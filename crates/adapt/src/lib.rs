//! # adapt-baseline — runtime-taping AD with post-hoc FP error analysis
//!
//! The comparator of the paper's evaluation: ADAPT (Menon et al., SC'18)
//! runs on top of CoDiPack, an operator-overloading (tracing) AD tool.
//! This crate reproduces that architecture for KernelC:
//!
//! 1. the primal runs in chef-exec's one dispatch loop with a taping
//!    lane (the `lane` module's `Taped`, a `ShadowNum`) that **records
//!    every elementary FP operation** on an active value into an
//!    operation tape ([`tape::OpTape`]), flattening control flow into it;
//! 2. the tape is interpreted backwards for adjoints;
//! 3. error terms (paper eq. 2, demotion to `float`) are evaluated
//!    **post hoc** over the entries recorded at inputs and assignments.
//!
//! Contrast with CHEF-FP (`chef-core`): same estimates, but the tape here
//! grows with the operation count of each analyzed execution and is
//! re-recorded on every run. Both engines now share the VM, so the time
//! and memory gap measured in the paper's Figs. 4–8 comes from the AD
//! strategy alone, not from a second interpreter.

mod lane;
pub mod tape;

pub use tape::{Entry, OpTape, TapeOom, ENTRY_BYTES};

use chef_exec::compile::compile_default;
use chef_exec::precision::demotion_error;
use chef_exec::shadow::run_shadow;
use chef_exec::value::{ArgValue, Value};
use chef_exec::vm::ExecOptions;
use chef_ir::ast::Function;
use chef_ir::types::{ElemTy, FloatTy, Type};
use std::collections::HashMap;

/// The precision eq. 2's error terms demote to.
const DEMOTION_TARGET: FloatTy = FloatTy::F32;

/// Analysis options.
#[derive(Clone, Debug, Default)]
pub struct AdaptOptions {
    /// Byte budget for the operation tape (reproduces the OOM points).
    pub memory_limit: Option<usize>,
}

/// Analysis failure.
#[derive(Clone, Debug)]
pub enum AdaptError {
    /// Tape exceeded the configured memory budget.
    OutOfMemory(TapeOom),
    /// The function did not compile, trapped, or returned no float.
    Runtime(String),
}

impl std::fmt::Display for AdaptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaptError::OutOfMemory(o) => write!(f, "{o}"),
            AdaptError::Runtime(m) => write!(f, "runtime error: {m}"),
        }
    }
}

impl std::error::Error for AdaptError {}

/// The analysis result.
#[derive(Clone, Debug)]
pub struct AdaptOutcome {
    /// Primal function value.
    pub value: f64,
    /// Total estimated FP error.
    pub fp_error: f64,
    /// Per-variable attribution (float variables by name).
    pub per_variable: HashMap<String, f64>,
    /// Gradient of float inputs: name → scalar or per-element adjoints.
    pub gradient: Vec<(String, ArgValue)>,
    /// Number of tape entries recorded.
    pub tape_entries: usize,
    /// Peak tape bytes (entries + the reverse pass's adjoint vector).
    pub tape_peak_bytes: usize,
}

/// Runs the ADAPT-style analysis of `func` (which must be inlined) on the
/// given arguments.
pub fn analyze(
    func: &Function,
    args: &[ArgValue],
    opts: &AdaptOptions,
) -> Result<AdaptOutcome, AdaptError> {
    let compiled = compile_default(func).map_err(|e| AdaptError::Runtime(e.to_string()))?;
    lane::start(opts.memory_limit);
    let run = run_shadow::<lane::Taped>(&compiled, args.to_vec(), &ExecOptions::default());
    let rec = lane::finish();
    if let Some(oom) = rec.oom {
        return Err(AdaptError::OutOfMemory(oom));
    }
    let value = match run.map_err(|t| AdaptError::Runtime(t.to_string()))?.ret {
        Some(Value::F(v)) => v,
        _ => return Err(AdaptError::Runtime("non-float return".into())),
    };

    let tape = &rec.tape;
    let adj = match rec.result {
        Some(idx) => tape.reverse(idx),
        None => vec![0.0; tape.len()],
    };
    // Variable `v` of a mark is 1 + its index in the float-then-array
    // variable table; 0 is the result, counted in the total only.
    let names = compiled.fvar_names.iter().chain(&compiled.avar_names);
    let mut var_error: Vec<Option<f64>> = vec![None; names.clone().count() + 1];
    let mut fp_error = 0.0;
    for &(idx, var) in &rec.marks {
        let gap = demotion_error(tape.value(idx), DEMOTION_TARGET).abs();
        let contribution = adj[idx as usize].abs() * gap;
        fp_error += contribution;
        *var_error[var as usize].get_or_insert(0.0) += contribution;
    }
    let mut per_variable: HashMap<String, f64> = HashMap::new();
    for ((_, name), e) in names.zip(&var_error[1..]) {
        if let Some(e) = e {
            *per_variable.entry(name.clone()).or_insert(0.0) += e;
        }
    }
    // The inputs are the tape's first entries, in parameter order.
    let mut inputs = adj.iter().copied();
    let gradient = func
        .params
        .iter()
        .zip(args)
        .filter_map(|(p, arg)| {
            let g = match (&p.ty, arg) {
                (Type::Float(_), _) => ArgValue::F(inputs.next()?),
                (Type::Array(ElemTy::Float(_)), ArgValue::FArr(v)) => {
                    ArgValue::FArr(inputs.by_ref().take(v.len()).collect())
                }
                _ => return None,
            };
            Some((p.name.clone(), g))
        })
        .collect();
    Ok(AdaptOutcome {
        value,
        fp_error,
        per_variable,
        gradient,
        tape_entries: tape.len(),
        tape_peak_bytes: tape.bytes() + tape.len() * 8,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chef_exec::value::ArgValue;
    use chef_ir::parser::parse_program;
    use chef_ir::typeck::check_program;

    fn func(src: &str) -> chef_ir::ast::Function {
        let mut p = parse_program(src).unwrap();
        check_program(&mut p).unwrap();
        p.functions.pop().unwrap()
    }

    #[test]
    fn gradient_of_product() {
        let f = func("double f(double x, double y) { double z = x * y; return z; }");
        let out = analyze(
            &f,
            &[ArgValue::F(3.0), ArgValue::F(5.0)],
            &Default::default(),
        )
        .unwrap();
        assert_eq!(out.value, 15.0);
        assert_eq!(out.gradient[0].1, ArgValue::F(5.0));
        assert_eq!(out.gradient[1].1, ArgValue::F(3.0));
    }

    #[test]
    fn loop_gradient_and_tape_growth() {
        let f = func(
            "double f(double x, int n) { double s = 0.0; for (int i = 0; i < n; i++) { s += x * x; } return s; }",
        );
        let small = analyze(
            &f,
            &[ArgValue::F(2.0), ArgValue::I(10)],
            &Default::default(),
        )
        .unwrap();
        let large = analyze(
            &f,
            &[ArgValue::F(2.0), ArgValue::I(1000)],
            &Default::default(),
        )
        .unwrap();
        assert_eq!(small.gradient[0].1, ArgValue::F(40.0)); // 2nx
        assert_eq!(large.gradient[0].1, ArgValue::F(4000.0));
        // The tape grows linearly with iterations: ~100x entries.
        assert!(large.tape_entries > small.tape_entries * 50);
    }

    #[test]
    fn memory_limit_oome() {
        let f = func(
            "double f(double x, int n) { double s = 0.0; for (int i = 0; i < n; i++) { s += x; } return s; }",
        );
        let opts = AdaptOptions {
            memory_limit: Some(10_000),
        };
        assert!(analyze(&f, &[ArgValue::F(1.0), ArgValue::I(10)], &opts).is_ok());
        let err = analyze(&f, &[ArgValue::F(1.0), ArgValue::I(100_000)], &opts).unwrap_err();
        assert!(matches!(err, AdaptError::OutOfMemory(_)));
    }

    #[test]
    fn error_estimate_positive_for_inexact_values() {
        let f = func("double f(double x) { double y = x * 3.0; return y; }");
        let out = analyze(&f, &[ArgValue::F(0.1)], &Default::default()).unwrap();
        assert!(out.fp_error > 0.0);
        assert!(out.per_variable["y"] > 0.0);
        assert!(out.per_variable["x"] > 0.0);
    }

    #[test]
    fn tape_entries_follow_inputs_operations_and_assignments() {
        // An input leaf per float parameter (element), an entry per
        // operation on an active value, a copy per store to a variable,
        // and a result copy unless a variable is returned; operations on
        // passive values record nothing.
        for (src, entries) in [
            ("double f(double x) { double y = x * 3.0; return y; }", 3),
            ("double f(double x) { return x * 3.0; }", 3),
            (
                "double f(double x) { double c = 2.0 * 3.0; return x + c; }",
                4,
            ),
            (
                "double f(double x, double a[]) { a[0] = x; return a[0]; }",
                4,
            ),
        ] {
            let args = [ArgValue::F(0.1), ArgValue::FArr(vec![2.0])];
            let n = func(src).params.len();
            let out = analyze(&func(src), &args[..n], &Default::default()).unwrap();
            assert_eq!(out.tape_entries, entries, "{src}");
        }
    }

    #[test]
    fn float_values_carry_no_demotion_error() {
        // Demoting to `float` what is already a `float` changes nothing:
        // the lane must hold the primal's rounded inputs and products
        // (a rounding op, then a separate round), not the unrounded ones,
        // when it marks them.
        let args = [ArgValue::F(0.3), ArgValue::F(0.7)];
        let single =
            func("float f(float x, float z) { float y = x * z; float w = y * 0.1; return w; }");
        let out = analyze(&single, &args, &Default::default()).unwrap();
        assert_eq!(out.fp_error, 0.0, "{:?}", out.per_variable);
        let double = func(
            "double f(double x, double z) { double y = x * z; double w = y * 0.1; return w; }",
        );
        let out = analyze(&double, &args, &Default::default()).unwrap();
        assert!(out.fp_error > 0.0);
    }

    #[test]
    fn branches_flatten_into_tape() {
        let f = func(
            "double f(double x) { double r = 0.0; if (x > 0.0) { r = x * x; } else { r = -x; } return r; }",
        );
        let pos = analyze(&f, &[ArgValue::F(2.0)], &Default::default()).unwrap();
        assert_eq!(pos.gradient[0].1, ArgValue::F(4.0));
        let neg = analyze(&f, &[ArgValue::F(-2.0)], &Default::default()).unwrap();
        assert_eq!(neg.gradient[0].1, ArgValue::F(-1.0));
    }

    #[test]
    fn half_to_bfloat_cast_rounds_like_chef_exec() {
        // 1 + 2^-10 is a half but not a bfloat, so the cast rounds it to
        // 1 (`Ord` puts half below bfloat; the cast must not skip the
        // round on that account).
        let f = func("double f(half h) { return (bfloat) h; }");
        let h = 1.0 + 2f64.powi(-10);
        let out = analyze(&f, &[ArgValue::F(h)], &Default::default()).unwrap();
        assert_eq!(out.value, 1.0);
        let widen = func("double f(half h) { return (float) h; }");
        let out = analyze(&widen, &[ArgValue::F(h)], &Default::default()).unwrap();
        assert_eq!(out.value, h);
    }

    #[test]
    fn array_inputs_get_per_element_adjoints() {
        let f = func(
            "double dot(double a[], double b[], int n) { double s = 0.0; for (int i = 0; i < n; i++) { s += a[i] * b[i]; } return s; }",
        );
        let out = analyze(
            &f,
            &[
                ArgValue::FArr(vec![1.0, 2.0]),
                ArgValue::FArr(vec![3.0, 4.0]),
                ArgValue::I(2),
            ],
            &Default::default(),
        )
        .unwrap();
        assert_eq!(out.gradient[0].1, ArgValue::FArr(vec![3.0, 4.0]));
        assert_eq!(out.gradient[1].1, ArgValue::FArr(vec![1.0, 2.0]));
    }
}
