//! The approximate intrinsics are the one way a kernel approximates a
//! math function: a kernel calls `fastexp`, `fasterexp`, `fastlog`,
//! `fastsqrt` or `fastnormcdf` in its source. Each must evaluate its
//! `fastapprox::wide` function bit for bit in the plain VM, in the `f64`
//! shadow and in the double-double shadow — the approximation is the
//! program's semantics, so a shadow measures precision error on top of
//! it, never the approximation error itself. `sqrt` stays the full-DD
//! square root under the DD shadow.

use chef_exec::bytecode::CompiledFunction;
use chef_exec::compile::compile_default;
use chef_exec::prelude::*;
use chef_ir::parser::parse_program;
use chef_ir::typeck::check_program;
use chef_shadow::DD;
use fastapprox::wide;

fn kernel(intrinsic: &str) -> CompiledFunction {
    let src = format!("double f(double x) {{ return {intrinsic}(x); }}");
    let mut p = parse_program(&src).unwrap();
    check_program(&mut p).unwrap();
    compile_default(&p.functions[0]).unwrap()
}

const ARGS: [f64; 6] = [0.1, 0.7, 1.0 / 3.0, 2.0, 5.5, 17.25];

#[test]
fn fast_intrinsics_evaluate_fastapprox_in_the_vm_and_both_shadows() {
    let cases = [
        ("fastexp", wide::fastexp64 as fn(f64) -> f64),
        ("fasterexp", wide::fasterexp64),
        ("fastlog", wide::fastlog64),
        ("fastsqrt", wide::fastsqrt64),
        ("fastnormcdf", wide::fastnormcdf64),
    ];
    let opts = ExecOptions::default();
    for (name, native) in cases {
        let f = kernel(name);
        for x in ARGS {
            let want = native(x).to_bits();
            let args = || vec![ArgValue::F(x)];
            let vm = run(&f, args()).unwrap().ret_f();
            let sf64 = run_shadow::<f64>(&f, args(), &opts).unwrap();
            let sdd = run_shadow::<DD>(&f, args(), &opts).unwrap();
            assert_eq!(vm.to_bits(), want, "{name}({x}): plain VM");
            assert_eq!(sf64.ret_f().to_bits(), want, "{name}({x}): f64 primal");
            assert_eq!(sf64.shadow_f().to_bits(), want, "{name}({x}): f64 shadow");
            assert_eq!(sdd.ret_f().to_bits(), want, "{name}({x}): DD primal");
            assert_eq!(sdd.shadow_f().to_bits(), want, "{name}({x}): DD shadow");
            assert_eq!(
                sdd.output_error(),
                0.0,
                "{name}({x}): DD shadow follows the approximation"
            );
        }
    }
}

#[test]
fn dd_sqrt_is_full_precision_and_differs_from_fastsqrt() {
    let opts = ExecOptions::default();
    let (sqrt, fast) = (kernel("sqrt"), kernel("fastsqrt"));
    for x in ARGS {
        let exact = run_shadow::<DD>(&sqrt, vec![ArgValue::F(x)], &opts).unwrap();
        let approx = run_shadow::<DD>(&fast, vec![ArgValue::F(x)], &opts).unwrap();
        assert_eq!(exact.shadow_ret, Some(x.sqrt()), "sqrt({x})");
        assert_ne!(
            exact.shadow_ret, approx.shadow_ret,
            "sqrt({x}) vs fastsqrt({x})"
        );
        // The Newton-refined low word: the f64 root's own rounding error.
        assert!(exact.output_error() > 0.0, "sqrt({x}): DD refines past f64");
    }
}
