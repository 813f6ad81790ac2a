//! Random well-typed KernelC program generation.
//!
//! Used by property tests across the workspace to check that
//! transformations preserve semantics: optimization passes must not change
//! VM results, the inliner must match un-inlined execution, and
//! reverse-mode gradients must match finite differences on these programs.
//!
//! [`generate`] builds numeric straight-line/structured code over
//! `double`/`float`/`int` scalars: declarations, (compound) assignments,
//! bounded `for` loops, `if`/`else` on comparisons, intrinsic calls from a
//! NaN-safe subset, and a final `double` return. Division denominators are
//! guarded (`d * d + 1.0`) so results stay finite and comparisons stay
//! meaningful.
//!
//! [`branching_kernel`], [`licm_kernel`] and [`straight_line_kernel`]
//! instead build one fixed kernel shape each from a seeded [`SplitMix`]
//! stream: near-tie float branches that demotions flip (the shadow
//! oracle's divergence tests), loops with hoistable invariants (the CFG
//! tier's differential tests), and straight-line arithmetic.

use chef_ir::ast::Function;
use chef_ir::parser::parse_program;
use chef_ir::typeck::check_program;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Tuning knobs for the generator.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Number of statements in the function body.
    pub stmts: usize,
    /// Maximum depth of generated expressions.
    pub max_depth: usize,
    /// Allow `for` loops.
    pub loops: bool,
    /// Allow `if`/`else`.
    pub branches: bool,
    /// Allow `float`-typed locals (exercises rounding).
    pub narrow_floats: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            stmts: 8,
            max_depth: 3,
            loops: true,
            branches: true,
            narrow_floats: true,
        }
    }
}

/// A generated program plus suitable arguments.
#[derive(Clone, Debug)]
pub struct GeneratedProgram {
    /// The KernelC source text.
    pub source: String,
    /// The checked function (named `gen`).
    pub function: Function,
    /// Float arguments (`x`, `y`).
    pub float_args: Vec<f64>,
    /// Int argument (`n`, small and positive).
    pub int_arg: i64,
}

struct Gen {
    rng: StdRng,
    cfg: GenConfig,
    f64_vars: Vec<String>,
    f32_vars: Vec<String>,
    /// Nesting depth of loops around the statement being generated.
    /// Inside loops only *damped* updates are emitted (|update factor| ≤ 1)
    /// so values cannot grow unboundedly across iterations — unbounded
    /// growth makes float-derivative comparisons meaningless (adjoint
    /// absorption: adding and removing a 1e40 swamps a 1e20 payload).
    loop_ctx: usize,
    next_var: usize,
}

impl Gen {
    fn fresh(&mut self, prefix: &str) -> String {
        let n = self.next_var;
        self.next_var += 1;
        format!("{prefix}{n}")
    }

    fn float_expr(&mut self, depth: usize) -> String {
        if depth == 0 || self.rng.gen_bool(0.3) {
            return match self.rng.gen_range(0..3) {
                0 => {
                    let v: f64 = self.rng.gen_range(-4.0..4.0);
                    format!("{v:?}")
                }
                1 if !self.f32_vars.is_empty() && self.rng.gen_bool(0.4) => {
                    self.f32_vars[self.rng.gen_range(0..self.f32_vars.len())].clone()
                }
                _ => self.f64_vars[self.rng.gen_range(0..self.f64_vars.len())].clone(),
            };
        }
        match self.rng.gen_range(0..8) {
            0 => format!(
                "({} + {})",
                self.float_expr(depth - 1),
                self.float_expr(depth - 1)
            ),
            1 => format!(
                "({} - {})",
                self.float_expr(depth - 1),
                self.float_expr(depth - 1)
            ),
            2 => format!(
                "({} * {})",
                self.float_expr(depth - 1),
                self.float_expr(depth - 1)
            ),
            3 => {
                // Guarded division: denominator >= 1.
                let d = self.float_expr(depth - 1);
                format!("({} / ({d} * {d} + 1.0))", self.float_expr(depth - 1))
            }
            // The space matters: `-` followed by a negative literal must
            // not lex as the `--` decrement token.
            4 => format!("(- {})", self.float_expr(depth - 1)),
            5 => {
                // NaN-safe unary intrinsics on any real input.
                let f = ["sin", "cos", "tanh", "atan", "fabs"][self.rng.gen_range(0..5)];
                format!("{f}({})", self.float_expr(depth - 1))
            }
            6 => {
                // Domain-guarded: sqrt/log of a positive quantity.
                let inner = self.float_expr(depth - 1);
                if self.rng.gen_bool(0.5) {
                    format!("sqrt({inner} * {inner} + 0.5)")
                } else {
                    format!("log({inner} * {inner} + 1.5)")
                }
            }
            _ => format!("(float)({})", self.float_expr(depth - 1)),
        }
    }

    fn cond_expr(&mut self) -> String {
        let a = self.float_expr(1);
        let b = self.float_expr(1);
        let op = ["<", "<=", ">", ">="][self.rng.gen_range(0..4)];
        format!("{a} {op} {b}")
    }

    fn stmt(&mut self, depth_budget: usize, out: &mut Vec<String>, indent: usize) {
        let pad = "    ".repeat(indent);
        let choice = self.rng.gen_range(0..10);
        match choice {
            0..=3 => {
                // New declaration.
                let e = self.float_expr(self.cfg.max_depth);
                if self.cfg.narrow_floats && self.rng.gen_bool(0.3) {
                    let v = self.fresh("s");
                    out.push(format!("{pad}float {v} = {e};"));
                    self.f32_vars.push(v);
                } else {
                    let v = self.fresh("v");
                    out.push(format!("{pad}double {v} = {e};"));
                    self.f64_vars.push(v);
                }
            }
            4..=6 => {
                // (Compound) assignment to an existing f64 var. Inside
                // loops only damped updates are allowed (see `loop_ctx`).
                let v = self.f64_vars[self.rng.gen_range(0..self.f64_vars.len())].clone();
                if self.loop_ctx > 0 {
                    let e = self.float_expr(self.cfg.max_depth.min(2));
                    match self.rng.gen_range(0..4) {
                        0 => out.push(format!("{pad}{v} = tanh({e});")),
                        1 => out.push(format!("{pad}{v} += sin({e});")),
                        2 => out.push(format!("{pad}{v} -= sin({e});")),
                        _ => out.push(format!("{pad}{v} *= cos({e});")),
                    }
                } else {
                    let op = ["=", "+=", "-=", "*="][self.rng.gen_range(0..4)];
                    let e = self.float_expr(self.cfg.max_depth);
                    out.push(format!("{pad}{v} {op} {e};"));
                }
            }
            7 if self.cfg.branches && depth_budget > 0 => {
                let c = self.cond_expr();
                out.push(format!("{pad}if ({c}) {{"));
                let (n64, n32) = (self.f64_vars.len(), self.f32_vars.len());
                let n = self.rng.gen_range(1..3);
                for _ in 0..n {
                    self.stmt(depth_budget - 1, out, indent + 1);
                }
                self.f64_vars.truncate(n64);
                self.f32_vars.truncate(n32);
                if self.rng.gen_bool(0.5) {
                    out.push(format!("{pad}}} else {{"));
                    let n = self.rng.gen_range(1..3);
                    for _ in 0..n {
                        self.stmt(depth_budget - 1, out, indent + 1);
                    }
                    self.f64_vars.truncate(n64);
                    self.f32_vars.truncate(n32);
                }
                out.push(format!("{pad}}}"));
            }
            8 if self.cfg.loops && depth_budget > 0 => {
                let i = self.fresh("i");
                let bound = self.rng.gen_range(2..6);
                out.push(format!("{pad}for (int {i} = 0; {i} < {bound}; {i}++) {{"));
                let (n64, n32) = (self.f64_vars.len(), self.f32_vars.len());
                self.loop_ctx += 1;
                let n = self.rng.gen_range(1..3);
                for _ in 0..n {
                    self.stmt(depth_budget - 1, out, indent + 1);
                }
                self.loop_ctx -= 1;
                self.f64_vars.truncate(n64);
                self.f32_vars.truncate(n32);
                out.push(format!("{pad}}}"));
            }
            _ => {
                // Accumulate into an f64 var with a trig-damped value
                // (stays bounded across loop iterations).
                let v = self.f64_vars[self.rng.gen_range(0..self.f64_vars.len())].clone();
                let e = self.float_expr(2);
                out.push(format!("{pad}{v} += sin({e});"));
            }
        }
    }
}

/// Generates one random, type-correct program from `seed`.
pub fn generate(seed: u64, cfg: &GenConfig) -> GeneratedProgram {
    let mut g = Gen {
        rng: StdRng::seed_from_u64(seed),
        cfg: cfg.clone(),
        f64_vars: vec!["x".into(), "y".into()],
        f32_vars: Vec::new(),
        loop_ctx: 0,
        next_var: 0,
    };
    let mut lines = Vec::new();
    for _ in 0..cfg.stmts {
        g.stmt(2, &mut lines, 1);
    }
    // Return a bounded combination of everything still in scope at the
    // top level (all f64 vars declared at nesting 0 … easiest: fold the
    // two parameters plus accumulators through sin to stay finite).
    let ret_var = g.f64_vars[g.rng.gen_range(0..g.f64_vars.len())].clone();
    let source = format!(
        "double gen(double x, double y, int n) {{\n{}\n    return sin({ret_var}) + x - y;\n}}\n",
        lines.join("\n")
    );
    let mut program = parse_program(&source).unwrap_or_else(|e| {
        panic!("generator produced unparsable code: {e}\n{source}");
    });
    // Declarations inside branches/loops go out of scope; if the chosen
    // return variable was declared in a nested scope the checker rejects
    // it. Fall back to `x` in that case.
    let function = match check_program(&mut program) {
        Ok(()) => program.functions.pop().unwrap(),
        Err(_) => {
            let source2 = format!(
                "double gen(double x, double y, int n) {{\n{}\n    return sin(x) + x - y;\n}}\n",
                lines.join("\n")
            );
            let mut p2 = parse_program(&source2)
                .unwrap_or_else(|e| panic!("generator fallback unparsable: {e}\n{source2}"));
            check_program(&mut p2).unwrap_or_else(|e| {
                panic!("generator fallback untypable: {e}\n{source2}");
            });
            return GeneratedProgram {
                source: source2,
                function: p2.functions.pop().unwrap(),
                float_args: pick_args(seed),
                int_arg: 3 + (seed % 5) as i64,
            };
        }
    };
    GeneratedProgram {
        source,
        function,
        float_args: pick_args(seed),
        int_arg: 3 + (seed % 5) as i64,
    }
}

fn pick_args(seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    vec![rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)]
}

// ------------------------------------------------- hand-shaped kernels
//
// The generators below build kernels of one fixed shape each (bounded
// loops around near-tie float compares, LICM bait, straight-line
// arithmetic) from a seeded [`SplitMix`] stream. They return source
// text; the caller parses it and picks the demotions.

/// Deterministic SplitMix64 stream for the hand-shaped kernel
/// generators, seeded per proptest case.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`, 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A full-precision literal in `[0.5, 2.0)` (virtually never exactly
    /// representable in `f32`, so demotion sites genuinely round).
    pub fn lit(&mut self) -> f64 {
        0.5 + self.unit() * 1.5
    }

    /// A literal of either sign, in `[-2.75, 3.25)`.
    pub fn signed_lit(&mut self) -> f64 {
        (self.unit() * 4.0 - 2.0) * 1.5 + 0.25
    }
}

/// A random *branching* kernel built so demotions genuinely flip
/// decisions on a healthy fraction of seeds: `part` accumulates `K`
/// steps, `acc` continues for `K` more (a `for` or a bounded `while`
/// shape), and the threshold branch compares `acc` against `chk = part +
/// part` — algebraically equal, differently associated. The two sides
/// land within ~1 ulp of each other at full precision and within ~an f32
/// ulp when the accumulators are demoted, so the comparison's sign is
/// decided by exactly the rounding a demotion perturbs. An optional
/// piecewise tail repeats the trick on the branched value. Returns the
/// source and the names of the float variables.
pub fn branching_kernel(g: &mut SplitMix, n_inputs: usize) -> (String, Vec<String>) {
    let mut src = String::from("double f(");
    for i in 0..n_inputs {
        let _ = write!(src, "{}double x{i}", if i > 0 { ", " } else { "" });
    }
    src.push_str(") {\n");
    let mut names: Vec<String> = (0..n_inputs).map(|i| format!("x{i}")).collect();
    let step = format!("x{} * {:.17}", g.below(n_inputs), 0.03 + g.unit() * 0.05);
    let iters = 8 + g.below(48);
    src.push_str("    double part = 0.0;\n");
    names.push("part".into());
    let _ = writeln!(
        src,
        "    for (int i = 0; i < {iters}; i++) {{ part = part + {step}; }}"
    );
    src.push_str("    double acc = part;\n");
    names.push("acc".into());
    if g.below(2) == 0 {
        let _ = writeln!(
            src,
            "    for (int i = 0; i < {iters}; i++) {{ acc = acc + {step}; }}"
        );
    } else {
        // The same trip count, as a while shape: inputs are ≥ 0.5, so
        // the step is bounded below and the loop terminates.
        let _ = writeln!(
            src,
            "    while (acc < part * 1.99) {{ acc = acc + {step}; }}"
        );
    }
    src.push_str("    double chk = part + part;\n");
    names.push("chk".into());
    src.push_str("    double r = 0.0;\n");
    names.push("r".into());
    let _ = writeln!(
        src,
        "    if (acc < chk) {{ r = acc * {:.17}; }} else {{ r = acc + {:.17}; }}",
        g.lit(),
        g.lit()
    );
    if g.below(2) == 0 {
        // Piecewise tail: again a near-tie — `acc` against a jittered
        // rescaling of `chk` (the jitter sits at f32-rounding scale, so
        // the knot lands inside the demotion's error band).
        src.push_str("    double w = 0.0;\n");
        names.push("w".into());
        let _ = writeln!(
            src,
            "    if (acc * 0.5 <= chk * {:.17}) {{ w = r + {:.17}; }} else {{ w = r * {:.17}; }}",
            0.5 * (1.0 + (g.unit() - 0.5) * 2e-7),
            g.lit(),
            g.lit()
        );
        src.push_str("    return w;\n}\n");
    } else {
        src.push_str("    return r;\n}\n");
    }
    (src, names)
}

/// A bounded branching kernel over two inputs, biased toward LICM bait:
/// loop bodies mix an invariant product (`x0 * x1 * lit`, hoistable)
/// with the loop-carried accumulation, behind near-tie float branches
/// and a possibly zero-trip while loop.
pub fn licm_kernel(g: &mut SplitMix) -> String {
    let mut src = String::from("double f(double x0, double x1) {\n");
    let inv = format!("x0 * x1 * {:.17}", g.lit());
    let step = format!("x{} * {:.17}", g.below(2), 0.03 + g.unit() * 0.05);
    let iters = g.below(44); // 0 and 1 trips exercise the zero-trip guard
    let _ = writeln!(src, "    double part = 0.0;");
    let _ = writeln!(
        src,
        "    for (int i = 0; i < {iters}; i++) {{ part = part + {step} + {inv}; }}"
    );
    let _ = writeln!(src, "    double acc = part;");
    if g.below(2) == 0 {
        let _ = writeln!(
            src,
            "    for (int i = 0; i < {iters}; i++) {{ acc = acc + {step}; }}"
        );
    } else {
        let _ = writeln!(
            src,
            "    while (acc < part * 1.99) {{ acc = acc + {step} + {inv}; }}"
        );
    }
    let _ = writeln!(src, "    double chk = part + part;");
    let _ = writeln!(src, "    double r = 0.0;");
    let _ = writeln!(
        src,
        "    if (acc < chk) {{ r = acc * {:.17}; }} else {{ r = acc + {:.17}; }}",
        g.lit(),
        g.lit()
    );
    let _ = writeln!(src, "    return r;\n}}");
    src
}

/// A random straight-line kernel over `n_inputs` inputs and `n_vars`
/// derived locals; returns the source and the local names.
pub fn straight_line_kernel(
    g: &mut SplitMix,
    n_inputs: usize,
    n_vars: usize,
) -> (String, Vec<String>) {
    let mut src = String::from("double f(");
    for i in 0..n_inputs {
        if i > 0 {
            src.push_str(", ");
        }
        src.push_str(&format!("double x{i}"));
    }
    src.push_str(") {\n");
    let mut names: Vec<String> = (0..n_inputs).map(|i| format!("x{i}")).collect();
    let mut locals = Vec::new();
    for v in 0..n_vars {
        let a = &names[g.below(names.len())];
        let b = &names[g.below(names.len())];
        let expr = match g.below(6) {
            0 => format!("{a} + {b}"),
            1 => format!("{a} - {b}"),
            2 => format!("{a} * {b}"),
            3 => format!("{a} * {:.6} + {b}", g.signed_lit()),
            4 => format!("sin({a}) + {:.6}", g.signed_lit()),
            _ => format!("sqrt({a} * {a} + {b} * {b} + 0.5)"),
        };
        src.push_str(&format!("    double v{v} = {expr};\n"));
        let name = format!("v{v}");
        names.push(name.clone());
        locals.push(name);
    }
    src.push_str("    return ");
    for (k, n) in locals.iter().enumerate() {
        if k > 0 {
            src.push_str(" + ");
        }
        src.push_str(n);
    }
    src.push_str(";\n}\n");
    (src, locals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_produces_checked_programs() {
        for seed in 0..50 {
            let g = generate(seed, &GenConfig::default());
            assert_eq!(g.function.name, "gen");
            assert!(g.function.vars.len() >= 3, "seed {seed}");
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let a = generate(42, &GenConfig::default());
        let b = generate(42, &GenConfig::default());
        assert_eq!(a.source, b.source);
        assert_eq!(a.float_args, b.float_args);
    }

    #[test]
    fn straight_line_config() {
        let cfg = GenConfig {
            loops: false,
            branches: false,
            ..GenConfig::default()
        };
        for seed in 0..20 {
            let g = generate(seed, &cfg);
            assert!(!g.source.contains("for ("), "seed {seed}: {}", g.source);
            assert!(!g.source.contains("if ("), "seed {seed}: {}", g.source);
        }
    }
}
