//! One precision rule, every engine: programs that mix formats, each
//! run through the VM unoptimized, the VM after the O2 pass pipeline
//! (with and without bytecode fusion) and ADAPT, whose forward pass runs
//! the unoptimized VM with its taping lane (which must leave the primal
//! alone). Every engine shares the VM's semantics, so the independent
//! reference is the hand-computed `want` of each row: every engine must
//! return its bits, and the type checker must annotate the returned
//! expression with the precision the rule gives it
//! (`chef_ir::precision`).

use chef_fp::adapt::{analyze, AdaptOptions};
use chef_fp::exec::prelude::*;
use chef_fp::ir::prelude::*;
use chef_fp::passes::{optimize_function, OptLevel};

struct Row {
    src: &'static str,
    args: Vec<ArgValue>,
    want: f64,
    /// The precision of the returned expression.
    prec: FloatTy,
}

fn rows() -> Vec<Row> {
    use ArgValue::{F, I};
    use FloatTy::*;
    let p2 = |e| 2f64.powi(e);
    let row = |src, args, want, prec| Row {
        src,
        args,
        want,
        prec,
    };
    vec![
        // An int operand of arithmetic counts as double, also for the
        // constant folder.
        row(
            "double f() { return (float) 0.1 * 3; }",
            vec![],
            0.30000000447034836,
            F64,
        ),
        // ... and for the type the CSE temporary is declared with.
        row(
            "double f(float x, int n) { double a = x * n; double b = x * n; return a + b; }",
            vec![F(0.1), I(3)],
            0.6000000089406967,
            F64,
        ),
        // An int argument of an intrinsic does not count.
        row(
            "double f(float x, int n) { return pow(x, n); }",
            vec![F(1.1), I(3)],
            1.3310000896453857,
            F32,
        ),
        // An intrinsic computes at its arguments' precision, even half.
        row(
            "double f(half h) { return sin(h); }",
            vec![F(0.7)],
            0.64453125,
            F16,
        ),
        // A widening cast widens.
        row(
            "double f(float x, float y) { return (double) x * (double) y; }",
            vec![F(1.0 + p2(-20)), F(1.0 + p2(-20))],
            1.0 + p2(-19) + p2(-40),
            F64,
        ),
        // Half and bfloat compute at their join, float.
        row(
            "double f(half h, bfloat b) { return h * b; }",
            vec![F(1.0 + p2(-10)), F(1.0)],
            1.0 + p2(-10),
            F32,
        ),
        row(
            "double f(half h, bfloat b) { return h + b; }",
            vec![F(1.0 + p2(-10)), F(0.0)],
            1.0 + p2(-10),
            F32,
        ),
        row(
            "double f(half h, bfloat b) { return fmax(h, b); }",
            vec![F(1.0 + p2(-10)), F(1.0)],
            1.0 + p2(-10),
            F32,
        ),
        // Folding `x + 0.0` to a `float` x would make the product float.
        row(
            "double f(float x, float y) { return (x + 0.0) * y; }",
            vec![F(1.0 + p2(-20)), F(1.0 + p2(-20))],
            1.0 + p2(-19) + p2(-40),
            F64,
        ),
    ]
}

fn checked(src: &str) -> Function {
    let mut p = parse_program(src).unwrap();
    check_program(&mut p).unwrap();
    p.functions.remove(0)
}

fn vm(f: &Function, args: &[ArgValue], fuse: bool) -> f64 {
    let opts = CompileOptions {
        fuse,
        ..CompileOptions::default()
    };
    run(&compile(f, &opts).unwrap(), args.to_vec())
        .unwrap()
        .ret_f()
}

#[test]
fn every_engine_computes_at_the_rules_precision() {
    let mut failures = Vec::new();
    for Row {
        src,
        args,
        want,
        prec,
    } in rows()
    {
        let f = checked(src);
        let ret_ty = f.body.stmts.iter().find_map(|s| match &s.kind {
            StmtKind::Return(Some(e)) => e.ty,
            _ => None,
        });
        if ret_ty != Some(Type::Float(prec)) {
            failures.push(format!("{src}\n  typeck: {ret_ty:?}, rule: {prec}"));
        }
        let mut o2 = f.clone();
        optimize_function(&mut o2, OptLevel::O2);
        let adapt = analyze(&f, &args, &AdaptOptions::default()).unwrap().value;
        for (engine, got) in [
            ("VM O0", vm(&f, &args, true)),
            ("VM O0 unfused", vm(&f, &args, false)),
            ("VM O2", vm(&o2, &args, true)),
            ("VM O2 unfused", vm(&o2, &args, false)),
            ("ADAPT", adapt),
        ] {
            if got.to_bits() != want.to_bits() {
                failures.push(format!("{src}\n  {engine}: {got:?}, want {want:?}"));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
