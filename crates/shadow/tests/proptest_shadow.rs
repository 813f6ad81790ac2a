//! Property tests for the shadow oracle on randomly generated
//! straight-line kernels:
//!
//! * the measured ground-truth error is always finite on the generated
//!   (division-free, bounded-magnitude) kernels,
//! * it is exactly zero when no demotion is applied,
//! * the primal stream is bit-identical to a plain run of the demoted
//!   compilation, and the `f64` shadow is bit-identical to a plain run
//!   of the *undemoted* compilation (the differential pin that makes the
//!   one-pass oracle equal to the classic two-run validation), and
//! * on kernels built from **dataflow-disjoint chains**, the accumulated
//!   measured rounding error is monotone non-decreasing as more
//!   variables (whole chains) are demoted — disjointness is what makes
//!   monotonicity exact: demoting one chain cannot perturb another
//!   chain's rounding sites, and the `f64`-mode final sum contributes no
//!   rounding of its own,
//! * and, on randomly generated **branching** kernels (bounded `for` /
//!   `while` loops, float-threshold branches, piecewise tails):
//!   divergence reports are bit-identical between the plain and the
//!   profiled dispatch loop, the primal stream still equals a plain run of the
//!   demoted compilation even when the trace flips, and an undemoted
//!   `f64`-shadow run never reports a divergence (shadow ≡ primal).

use chef_exec::compile::{compile, CompileOptions, PrecisionMap};
use chef_exec::prelude::*;
use chef_exec::shadow::run_shadow;
use chef_ir::ast::{Program, VarId};
use chef_ir::types::FloatTy;
use chef_passes::testgen::{branching_kernel, SplitMix};
use chef_shadow::{shadow_run, OracleOptions};
use proptest::prelude::*;
use std::fmt::Write as _;

fn parse(src: &str) -> Program {
    let mut p = chef_ir::parser::parse_program(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    chef_ir::typeck::check_program(&mut p).unwrap_or_else(|e| panic!("{e:?}\n{src}"));
    p
}

/// Ids of the named variables in `names` for function `f`.
fn ids_of(p: &Program, names: &[String]) -> Vec<VarId> {
    p.function("f")
        .unwrap()
        .vars_iter()
        .filter(|(_, v)| names.contains(&v.name))
        .map(|(id, _)| id)
        .collect()
}

fn config_of(p: &Program, names: &[String]) -> PrecisionMap {
    let mut pm = PrecisionMap::empty();
    for id in ids_of(p, names) {
        pm.set(id, FloatTy::F32);
    }
    pm
}

/// A random straight-line kernel with shared dataflow: `n_vars`
/// variables over `n_inputs` inputs, ops `+ - *` (division-free so every
/// value stays finite), returning the last variable. Returns the source
/// and the variable names.
fn shared_kernel(g: &mut SplitMix, n_inputs: usize, n_vars: usize) -> (String, Vec<String>) {
    let mut src = String::from("double f(");
    for i in 0..n_inputs {
        let _ = write!(src, "{}double x{i}", if i > 0 { ", " } else { "" });
    }
    src.push_str(") {\n");
    let mut names = Vec::new();
    for k in 0..n_vars {
        // term: input, literal, or an earlier variable.
        let term = |g: &mut SplitMix, src: &mut String| match g.below(3) {
            0 => {
                let _ = write!(src, "x{}", g.below(n_inputs));
            }
            1 => {
                let _ = write!(src, "{:.17}", g.lit());
            }
            _ if k > 0 => {
                let _ = write!(src, "v{}", g.below(k));
            }
            _ => {
                let _ = write!(src, "x{}", g.below(n_inputs));
            }
        };
        let _ = write!(src, "    double v{k} = ");
        term(g, &mut src);
        for _ in 0..(1 + g.below(2)) {
            src.push_str(match g.below(3) {
                0 => " + ",
                1 => " - ",
                _ => " * ",
            });
            term(g, &mut src);
        }
        src.push_str(";\n");
        names.push(format!("v{k}"));
    }
    let _ = write!(src, "    return v{};\n}}\n", n_vars - 1);
    for i in 0..n_inputs {
        names.push(format!("x{i}"));
    }
    (src, names)
}

/// A kernel made of `n_chains` dataflow-disjoint chains (chain `c` only
/// reads its own input `x{c}` and its own earlier variables), summed in
/// `f64` at the end. Returns the source and the per-chain variable names
/// (input included).
fn chain_kernel(g: &mut SplitMix, n_chains: usize, chain_len: usize) -> (String, Vec<Vec<String>>) {
    let mut src = String::from("double f(");
    for c in 0..n_chains {
        let _ = write!(src, "{}double x{c}", if c > 0 { ", " } else { "" });
    }
    src.push_str(") {\n");
    let mut chains = Vec::new();
    for c in 0..n_chains {
        let mut vars = vec![format!("x{c}")];
        let _ = writeln!(
            src,
            "    double v{c}_0 = x{c} * {:.17} + {:.17};",
            g.lit(),
            g.lit()
        );
        vars.push(format!("v{c}_0"));
        for k in 1..chain_len {
            let op = if g.below(2) == 0 { "+" } else { "*" };
            let term = match g.below(3) {
                0 => format!("x{c}"),
                1 => format!("{:.17}", g.lit()),
                _ => format!("v{c}_{}", g.below(k)),
            };
            let _ = writeln!(src, "    double v{c}_{k} = v{c}_{} {op} {term};", k - 1);
            vars.push(format!("v{c}_{k}"));
        }
        chains.push(vars);
    }
    src.push_str("    double out = 0.0;\n");
    for c in 0..n_chains {
        let _ = writeln!(src, "    out = out + v{c}_{};", chain_len - 1);
    }
    src.push_str("    return out;\n}\n");
    (src, chains)
}

fn inputs(g: &mut SplitMix, n: usize) -> Vec<ArgValue> {
    (0..n).map(|_| ArgValue::F(g.lit())).collect()
}

fn plain_run(p: &Program, pm: &PrecisionMap, args: &[ArgValue]) -> f64 {
    let c = compile(
        p.function("f").unwrap(),
        &CompileOptions {
            precisions: pm.clone(),
            ..Default::default()
        },
    )
    .unwrap();
    run(&c, args.to_vec()).unwrap().ret_f()
}

/// The branching generator is only a meaningful test bed if a healthy
/// fraction of its seeds *actually* flips a decision under demotion —
/// otherwise the divergence-report equalities would hold vacuously.
/// Deterministic (fixed seed range), so this is a generator-coverage pin,
/// not a flaky statistical test.
#[test]
fn branching_generator_produces_divergent_seeds() {
    let mut diverging = 0usize;
    for seed in 1u64..=96 {
        let mut g = SplitMix(seed);
        let n_inputs = 1 + g.below(3);
        let (src, names) = branching_kernel(&mut g, n_inputs);
        let p = parse(&src);
        let args = inputs(&mut g, n_inputs);
        let demoted: Vec<String> = names.iter().filter(|n| *n != "r").cloned().collect();
        let pm = config_of(&p, &demoted);
        let rep = shadow_run(&p, "f", &args, &pm, &OracleOptions::default())
            .unwrap_or_else(|e| panic!("{e}\n{src}"));
        if rep.diverged() {
            diverging += 1;
        }
    }
    assert!(
        diverging >= 5,
        "only {diverging}/96 seeds diverge — the generator went vacuous"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn oracle_is_finite_and_differentially_sound(seed in 0u64..(1u64 << 60)) {
        let mut g = SplitMix(seed | 1);
        let n_inputs = 1 + g.below(3);
        let n_vars = 2 + g.below(6);
        let (src, names) = shared_kernel(&mut g, n_inputs, n_vars);
        let p = parse(&src);
        let args = inputs(&mut g, n_inputs);
        // A random non-empty demotion subset.
        let demoted: Vec<String> = names
            .iter()
            .filter(|_| g.below(2) == 0)
            .cloned()
            .collect();
        let pm = config_of(&p, &demoted);
        let rep = shadow_run(&p, "f", &args, &pm, &OracleOptions::default())
            .unwrap_or_else(|e| panic!("{e}\n{src}"));
        prop_assert!(rep.output_error.is_finite(), "{src}");
        prop_assert!(rep.acc_error.is_finite(), "{src}");
        prop_assert_eq!(rep.nonfinite_samples, 0);
        // Differential pin: primal == plain demoted run, shadow == plain
        // undemoted run, both bit-exact (straight-line code: no trace
        // divergence is possible).
        let demoted_run = plain_run(&p, &pm, &args);
        let baseline_run = plain_run(&p, &PrecisionMap::empty(), &args);
        prop_assert_eq!(rep.primal.to_bits(), demoted_run.to_bits(), "{}", src);
        prop_assert_eq!(rep.shadow.to_bits(), baseline_run.to_bits(), "{}", src);
    }

    #[test]
    fn no_demotion_measures_exactly_zero(seed in 0u64..(1u64 << 60)) {
        let mut g = SplitMix(seed | 1);
        let n_inputs = 1 + g.below(3);
        let n_vars = 2 + g.below(6);
        let (src, _) = shared_kernel(&mut g, n_inputs, n_vars);
        let p = parse(&src);
        let args = inputs(&mut g, n_inputs);
        let rep = shadow_run(&p, "f", &args, &PrecisionMap::empty(), &OracleOptions::default())
            .unwrap_or_else(|e| panic!("{e}\n{src}"));
        prop_assert_eq!(rep.output_error, 0.0, "{}", src);
        prop_assert_eq!(rep.acc_error, 0.0, "{}", src);
        prop_assert!(rep.per_instruction.is_empty(), "{src}");
        prop_assert!(rep.per_variable.is_empty(), "{src}");
    }

    #[test]
    fn branching_kernels_never_diverge_without_demotion(seed in 0u64..(1u64 << 60)) {
        let mut g = SplitMix(seed | 1);
        let n_inputs = 1 + g.below(3);
        let (src, _) = branching_kernel(&mut g, n_inputs);
        let p = parse(&src);
        let args = inputs(&mut g, n_inputs);
        let rep = shadow_run(&p, "f", &args, &PrecisionMap::empty(), &OracleOptions::default())
            .unwrap_or_else(|e| panic!("{e}\n{src}"));
        prop_assert!(!rep.diverged(), "{src}");
        prop_assert!(rep.divergence.is_empty(), "{src}");
        prop_assert!(rep.per_variable_divergence.is_empty(), "{src}");
        prop_assert_eq!(rep.output_error, 0.0, "{}", src);
        prop_assert_eq!(rep.acc_error, 0.0, "{}", src);
    }

    #[test]
    fn branching_divergence_reports_are_identical_profiled_vs_plain(seed in 0u64..(1u64 << 60)) {
        let mut g = SplitMix(seed | 1);
        let n_inputs = 1 + g.below(3);
        let (src, names) = branching_kernel(&mut g, n_inputs);
        let p = parse(&src);
        let args = inputs(&mut g, n_inputs);
        // A random non-empty demotion subset (always include `acc` so a
        // healthy fraction of seeds genuinely flips a decision).
        let mut demoted: Vec<String> = names
            .iter()
            .filter(|_| g.below(2) == 0)
            .cloned()
            .collect();
        if !demoted.contains(&"acc".to_string()) {
            demoted.push("acc".into());
        }
        let pm = config_of(&p, &demoted);
        let compiled = compile(
            p.function("f").unwrap(),
            &CompileOptions { precisions: pm.clone(), ..Default::default() },
        )
        .unwrap();
        // The two instantiations of the dispatch loop (plain and per-pc
        // profiled) report the same splits and the same values.
        let run = |profile: bool| {
            let opts = ExecOptions { profile, ..Default::default() };
            run_shadow::<f64>(&compiled, args.clone(), &opts)
                .unwrap_or_else(|e| panic!("{e}\n{src}"))
        };
        let (a, b) = (run(false), run(true));
        prop_assert_eq!(a.divergence_count, b.divergence_count, "{}", src);
        prop_assert_eq!(&a.divergence, &b.divergence, "{}", src);
        prop_assert_eq!(&a.var_divergence, &b.var_divergence, "{}", src);
        prop_assert_eq!(a.ret_f().to_bits(), b.ret_f().to_bits(), "{}", src);
        prop_assert_eq!(a.shadow_f().to_bits(), b.shadow_f().to_bits(), "{}", src);
        prop_assert_eq!(a.acc_error.to_bits(), b.acc_error.to_bits(), "{}", src);
        // Even when the trace flips, the primal stream is authoritative:
        // it must equal a plain run of the same demoted compilation.
        let plain = plain_run(&p, &pm, &args);
        prop_assert_eq!(a.ret_f().to_bits(), plain.to_bits(), "{}", src);
    }

    #[test]
    fn accumulated_error_is_monotone_in_nested_demotion_sets(seed in 0u64..(1u64 << 60)) {
        let mut g = SplitMix(seed | 1);
        let n_chains = 2 + g.below(3);
        let chain_len = 2 + g.below(3);
        let (src, chains) = chain_kernel(&mut g, n_chains, chain_len);
        let p = parse(&src);
        let args = inputs(&mut g, n_chains);
        // Nested sets: demote whole chains, one more per step.
        let mut demoted: Vec<String> = Vec::new();
        let mut prev_acc = 0.0f64;
        for (step, chain) in chains.iter().enumerate() {
            demoted.extend(chain.iter().cloned());
            let pm = config_of(&p, &demoted);
            let rep = shadow_run(&p, "f", &args, &pm, &OracleOptions::default())
                .unwrap_or_else(|e| panic!("{e}\n{src}"));
            prop_assert!(rep.output_error.is_finite(), "{src}");
            prop_assert!(
                rep.acc_error >= prev_acc,
                "step {step}: acc dropped {prev_acc} -> {} on\n{src}",
                rep.acc_error
            );
            prev_acc = rep.acc_error;
        }
        // Demoting everything produced measurable rounding somewhere.
        prop_assert!(prev_acc > 0.0, "{src}");
    }
}
