//! Dedicated tests for chef-exec's process pools of machines: a run on
//! a pooled machine (`vm::run_with`, `shadow::run_shadow::<S>`) —
//! across **different** compiled functions, including a branch-flipping
//! one, on whatever machine an earlier run parked — must be
//! observationally identical to a run on a fresh machine, for the plain
//! VM and for both shadow modes (`f64` and double-double). That the
//! pools recycle instead of growing is pinned in chef-exec's own
//! `arena::tests`.

use chef_apps::adversarial;
use chef_exec::bytecode::CompiledFunction;
use chef_exec::compile::{compile, CompileOptions, PrecisionMap};
use chef_exec::prelude::*;
use chef_exec::shadow::{run_shadow, ShadowMachine, ShadowNum, ShadowOutcome};
use chef_exec::vm::Machine;
use chef_ir::types::FloatTy;
use chef_shadow::DD;

/// Compiles `func` of `program` under an `f32` demotion of `vars`.
fn compiled(p: &chef_ir::ast::Program, func: &str, vars: &[&str]) -> CompiledFunction {
    let f = p.function(func).expect("function exists");
    let mut pm = PrecisionMap::empty();
    for (id, v) in f.vars_iter() {
        if vars.contains(&v.name.as_str()) {
            pm.set(id, FloatTy::F32);
        }
    }
    compile(
        f,
        &CompileOptions {
            precisions: pm,
            ..Default::default()
        },
    )
    .expect("compiles")
}

/// The workload: three *different* functions — one diverging under its
/// demotion, one branch-stable, one straight-line — each with its
/// arguments. Exercises re-sizing of every buffer class across reuse.
fn workload() -> Vec<(CompiledFunction, Vec<ArgValue>)> {
    let threshold = adversarial::threshold::program();
    let piecewise = adversarial::piecewise::program();
    let straight = {
        let mut p = chef_ir::parser::parse_program(
            "double g(double x) { double t = x * 0.1234567890123; double u = sqrt(t * t + 1.0); return u; }",
        )
        .unwrap();
        chef_ir::typeck::check_program(&mut p).unwrap();
        p
    };
    vec![
        (
            compiled(&threshold, adversarial::threshold::NAME, &["s"]),
            adversarial::threshold::flip_args(),
        ),
        (
            compiled(&piecewise, adversarial::piecewise::NAME, &["y"]),
            adversarial::piecewise::stable_args(),
        ),
        (compiled(&straight, "g", &["t"]), vec![ArgValue::F(1.7)]),
    ]
}

fn assert_outcomes_bit_equal(label: &str, a: &ShadowOutcome, b: &ShadowOutcome) {
    assert_eq!(a.ret_f().to_bits(), b.ret_f().to_bits(), "{label}: primal");
    assert_eq!(
        a.shadow_f().to_bits(),
        b.shadow_f().to_bits(),
        "{label}: shadow"
    );
    assert_eq!(
        a.acc_error.to_bits(),
        b.acc_error.to_bits(),
        "{label}: acc_error"
    );
    assert_eq!(a.stats, b.stats, "{label}: stats");
    assert_eq!(a.samples, b.samples, "{label}: samples");
    assert_eq!(a.divergence_count, b.divergence_count, "{label}: div count");
    assert_eq!(a.divergence, b.divergence, "{label}: div points");
    assert_eq!(
        a.var_divergence, b.var_divergence,
        "{label}: div attribution"
    );
    assert_eq!(a.var_error.len(), b.var_error.len(), "{label}: var table");
    for ((xn, xe), (yn, ye)) in a.var_error.iter().zip(&b.var_error) {
        assert_eq!(xn, yn, "{label}: var name");
        assert_eq!(xe.to_bits(), ye.to_bits(), "{label}: var error {xn}");
    }
}

fn shadow_arena_roundtrip<S: ShadowNum>(label: &str) {
    let opts = ExecOptions::default();
    // Two passes over the whole workload: each run reuses a machine an
    // earlier run parked, with buffers sized by whichever function ran
    // on it last — exactly the cross-function hazard.
    for pass in 0..2 {
        for (k, (func, args)) in workload().iter().enumerate() {
            let pooled = run_shadow::<S>(func, args.clone(), &opts)
                .unwrap_or_else(|t| panic!("{label}: {t}"));
            let fresh = ShadowMachine::<S>::new()
                .run_reused(func, args.clone(), &opts)
                .unwrap();
            assert_outcomes_bit_equal(&format!("{label}/pass{pass}/fn{k}"), &pooled, &fresh);
        }
    }
}

#[test]
fn f64_shadow_arena_reuse_is_bit_identical_across_functions() {
    shadow_arena_roundtrip::<f64>("f64");
}

#[test]
fn dd_shadow_arena_reuse_is_bit_identical_across_functions() {
    shadow_arena_roundtrip::<DD>("dd");
}

#[test]
fn plain_arena_reuse_is_bit_identical_across_functions() {
    let opts = ExecOptions::default();
    for pass in 0..2 {
        for (k, (func, args)) in workload().iter().enumerate() {
            let pooled = run_with(func, args.clone(), &opts).unwrap();
            let fresh = Machine::new()
                .run_reused(func, args.clone(), &opts)
                .unwrap();
            assert_eq!(
                pooled.ret_f().to_bits(),
                fresh.ret_f().to_bits(),
                "pass{pass}/fn{k}"
            );
            assert_eq!(pooled.stats, fresh.stats, "pass{pass}/fn{k}");
        }
    }
}

/// Two threads (the batch-worker shape) call `run_shadow` on different
/// functions round after round, each round started together by a
/// barrier. Whichever machine a run gets from the shared pool — a new
/// one while the other thread holds the parked one, or the one the
/// other thread just parked — the outcome matches a fresh machine.
#[test]
fn concurrent_shadow_checkouts_stay_distinct_then_pool() {
    let w = workload();
    let opts = ExecOptions::default();
    let (a, b) = (&w[0], &w[2]);
    let fa = ShadowMachine::<f64>::new()
        .run_reused(&a.0, a.1.clone(), &opts)
        .unwrap();
    let fb = ShadowMachine::<f64>::new()
        .run_reused(&b.0, b.1.clone(), &opts)
        .unwrap();
    assert!(fa.diverged(), "the threshold flip survives pooling");
    assert!(!fb.diverged());
    let opts = &opts;
    let start = &std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for ((func, args), fresh, label) in [(a, &fa, "a"), (b, &fb, "b")] {
            scope.spawn(move || {
                for round in 0..8 {
                    start.wait();
                    let pooled = run_shadow::<f64>(func, args.clone(), opts).unwrap();
                    assert_outcomes_bit_equal(
                        &format!("concurrent/{label}/{round}"),
                        &pooled,
                        fresh,
                    );
                }
            });
        }
    });
}
