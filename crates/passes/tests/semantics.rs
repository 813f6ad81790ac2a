//! Property tests: optimization and inlining preserve VM semantics.
//!
//! Random well-typed KernelC programs are executed before and after each
//! transformation; results must match bit-for-bit (the passes are
//! IEEE-safe by design — see `fold.rs` on why `-ffast-math` identities are
//! excluded).

use chef_exec::prelude::*;
use chef_ir::parser::parse_program;
use chef_ir::typeck::check_program;
use chef_passes::pipeline::{optimize_function, OptLevel};
use chef_passes::testgen::{generate, GenConfig};

fn eval(func: &chef_ir::ast::Function, args: &[ArgValue]) -> Result<f64, Trap> {
    let compiled = compile_default(func).expect("compiles");
    let opts = ExecOptions {
        max_instrs: Some(5_000_000),
        ..Default::default()
    };
    run_with(&compiled, args.to_vec(), &opts).map(|o| o.ret_f())
}

fn same_result(a: Result<f64, Trap>, b: Result<f64, Trap>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => x == y || (x.is_nan() && y.is_nan()),
        (Err(_), Err(_)) => true,
        _ => false,
    }
}

#[test]
fn o1_preserves_semantics_on_random_programs() {
    let cfg = GenConfig::default();
    for seed in 0..150 {
        let g = generate(seed, &cfg);
        let args = vec![
            ArgValue::F(g.float_args[0]),
            ArgValue::F(g.float_args[1]),
            ArgValue::I(g.int_arg),
        ];
        let before = eval(&g.function, &args);
        let mut opt = g.function.clone();
        optimize_function(&mut opt, OptLevel::O1);
        let after = eval(&opt, &args);
        assert!(
            same_result(before.clone(), after.clone()),
            "seed {seed}: {before:?} vs {after:?}\n{}",
            g.source
        );
    }
}

#[test]
fn o2_preserves_semantics_on_random_programs() {
    let cfg = GenConfig::default();
    for seed in 0..150 {
        let g = generate(seed, &cfg);
        let args = vec![
            ArgValue::F(g.float_args[0]),
            ArgValue::F(g.float_args[1]),
            ArgValue::I(g.int_arg),
        ];
        let before = eval(&g.function, &args);
        let mut opt = g.function.clone();
        optimize_function(&mut opt, OptLevel::O2);
        let after = eval(&opt, &args);
        assert!(
            same_result(before.clone(), after.clone()),
            "seed {seed}: {before:?} vs {after:?}\n{}",
            g.source
        );
    }
}

#[test]
fn o2_preserves_semantics_across_multiple_inputs() {
    // A smaller seed set probed at several argument points, catching
    // input-dependent miscompiles (branch-direction changes).
    let cfg = GenConfig {
        stmts: 10,
        ..GenConfig::default()
    };
    let probes: &[(f64, f64, i64)] =
        &[(0.0, 0.0, 3), (1.5, -2.5, 4), (-0.1, 3.9, 5), (2.0, 2.0, 2)];
    for seed in 0..40 {
        let g = generate(seed + 1000, &cfg);
        let mut opt = g.function.clone();
        optimize_function(&mut opt, OptLevel::O2);
        for &(x, y, n) in probes {
            let args = vec![ArgValue::F(x), ArgValue::F(y), ArgValue::I(n)];
            let before = eval(&g.function, &args);
            let after = eval(&opt, &args);
            assert!(
                same_result(before.clone(), after.clone()),
                "seed {}, args ({x},{y},{n}): {before:?} vs {after:?}\n{}",
                seed + 1000,
                g.source
            );
        }
    }
}

#[test]
fn o2_keeps_the_sign_of_a_zero_sum() {
    // `same_result` compares with `==`, under which -0.0 equals +0.0;
    // dividing by the sum turns the zero's sign into ±inf, and the bits
    // are compared.
    for src in [
        "double f(double x) { return 1.0 / (x + 0.0); }",
        "double f(double x) { return 1.0 / (0.0 + x); }",
        "double f(double x) { return 1.0 / (x + -0.0); }",
        "double f(double x) { return 1.0 / (x - 0.0); }",
    ] {
        let mut p = parse_program(src).unwrap();
        check_program(&mut p).unwrap();
        let base = &p.functions[0];
        let mut opt = base.clone();
        optimize_function(&mut opt, OptLevel::O2);
        for x in [-0.0, 0.0] {
            let args = [ArgValue::F(x)];
            let (before, after) = (eval(base, &args).unwrap(), eval(&opt, &args).unwrap());
            assert_eq!(before.to_bits(), after.to_bits(), "{src} at x = {x:?}");
        }
    }
}

#[test]
fn inlining_preserves_semantics() {
    // Hand-written multi-function programs with by-value, by-ref and array
    // parameters.
    let cases = [
        (
            "double sq(double a) { return a * a; }
             double main_fn(double x, double y) { return sq(x + y) - sq(x - y); }",
            vec![ArgValue::F(1.7), ArgValue::F(-0.3)],
        ),
        (
            "double horner(double c0, double c1, double c2, double t) {
                 double acc = c2;
                 acc = acc * t + c1;
                 acc = acc * t + c0;
                 return acc;
             }
             double main_fn(double x, double y) {
                 return horner(1.0, y, 3.0, x) * horner(y, 2.0, x, 0.5);
             }",
            vec![ArgValue::F(0.9), ArgValue::F(2.1)],
        ),
        (
            "void accumulate(double v, double &acc) { acc = acc + v * v; }
             double main_fn(double x, double y) {
                 double acc = 0.0;
                 accumulate(x, acc);
                 accumulate(y, acc);
                 return acc;
             }",
            vec![ArgValue::F(3.0), ArgValue::F(4.0)],
        ),
        (
            "double cndf_like(double t) {
                 double k = 1.0 / (1.0 + 0.2316419 * fabs(t));
                 double w = 1.0 - 0.39894228 * exp(-0.5 * t * t) * k;
                 return w;
             }
             double main_fn(double x, double y) {
                 return cndf_like(x) + cndf_like(-y);
             }",
            vec![ArgValue::F(0.25), ArgValue::F(1.75)],
        ),
    ];
    for (i, (src, args)) in cases.iter().enumerate() {
        let mut p = parse_program(src).unwrap();
        check_program(&mut p).unwrap();
        // Reference: execute main_fn by simulating the call tree manually
        // is impossible on the VM (single function), so the reference here
        // is the *inlined* program run at O0 versus O2 — plus, for the
        // first case, a closed-form check.
        let inlined = chef_passes::inline_program(&p).unwrap();
        let f = inlined.function("main_fn").unwrap();
        let base = eval(f, args).unwrap();
        let mut opt = f.clone();
        optimize_function(&mut opt, OptLevel::O2);
        let after = eval(&opt, args).unwrap();
        assert_eq!(base, after, "case {i}");
        if i == 0 {
            // (x+y)^2 - (x-y)^2 = 4xy exactly in this arithmetic order?
            // Not exactly in FP, but close:
            let (x, y) = (1.7, -0.3);
            assert!((base - 4.0 * x * y).abs() < 1e-12, "{base}");
        }
        if i == 2 {
            assert_eq!(base, 25.0);
        }
    }
}

#[test]
fn inlined_by_value_args_do_not_alias() {
    // g mutates its by-value parameter; the caller's variable must not
    // change.
    let src = "double g(double a) { a = a + 100.0; return a; }
               double main_fn(double x) { double r = g(x); return r + x; }";
    let mut p = parse_program(src).unwrap();
    check_program(&mut p).unwrap();
    let inlined = chef_passes::inline_program(&p).unwrap();
    let f = inlined.function("main_fn").unwrap();
    let out = eval(f, &[ArgValue::F(1.0)]).unwrap();
    assert_eq!(out, 102.0); // (1+100) + 1
}
