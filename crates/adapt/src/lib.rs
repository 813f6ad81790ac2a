//! # adapt-baseline — runtime-taping AD with post-hoc FP error analysis
//!
//! The comparator of the paper's evaluation: ADAPT (Menon et al., SC'18)
//! runs on top of CoDiPack, an operator-overloading (tracing) AD tool.
//! This crate reproduces that architecture for KernelC:
//!
//! 1. a tree-walking interpreter executes the primal while **recording
//!    every elementary FP operation** into an operation tape
//!    ([`tape::OpTape`]);
//! 2. the tape is interpreted backwards for adjoints;
//! 3. error terms are evaluated **post hoc** over the recorded entries.
//!
//! Contrast with CHEF-FP (`chef-core`): same estimates, but the tape here
//! grows with the operation count of each analyzed execution and the whole
//! analysis re-interprets the program every run — the time and memory gap
//! measured in the paper's Figs. 4–8 comes from exactly this difference.

pub mod interp;
pub mod tape;

pub use interp::{analyze, AdaptError, AdaptOptions, AdaptOutcome, Formula};
pub use tape::{Entry, OpTape, TapeOom, ENTRY_BYTES};

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
            ..Default::default()
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
