//! Non-finite traps through the shadow oracle on the adversarial
//! corpus (`chef_apps::adversarial`): a demoted accumulator that
//! overflows must trap at a *pinned* instruction with the variable
//! named — identically with and without the per-pc profiler — and a
//! NaN input must be attributed to the parameter at entry, instead of
//! either flowing silently into the report.

use chef_apps::adversarial::threshold;
use chef_exec::bytecode::CompiledFunction;
use chef_exec::compile::{compile, CompileOptions, PrecisionMap};
use chef_exec::prelude::*;
use chef_exec::shadow::run_shadow;
use chef_exec::vm::TrapKind;
use chef_ir::types::FloatTy;
use chef_shadow::{shadow_run, OracleOptions};

/// The threshold kernel with its flip set (`s`) demoted to `f32`.
fn demoted() -> CompiledFunction {
    let p = threshold::program();
    let f = p.function(threshold::NAME).expect("kernel exists");
    let mut pm = PrecisionMap::empty();
    for (id, v) in f.vars_iter() {
        if threshold::FLIP_VARS.contains(&v.name.as_str()) {
            pm.set(id, FloatTy::F32);
        }
    }
    compile(
        f,
        &CompileOptions {
            precisions: pm,
            fuse: true,
            ..Default::default()
        },
    )
    .expect("kernel compiles")
}

/// 100 × 1e37 overflows the `f32`-rounded accumulator mid-loop
/// (`f32::MAX` ≈ 3.4e38) while the `f64` shadow stays finite — the
/// adversarial overflow input for [`threshold`].
fn overflow_args() -> Vec<ArgValue> {
    threshold::args(1e37, 100)
}

#[test]
fn overflowing_demoted_accumulator_traps_at_a_pinned_site() {
    let c = demoted();
    let mut pinned: Option<(usize, String)> = None;
    for profile in [false, true] {
        let opts = ExecOptions {
            trap_on_nonfinite: true,
            profile,
            ..Default::default()
        };
        let err = run_shadow::<f64>(&c, overflow_args(), &opts)
            .expect_err("the overflowing accumulator must trap");
        let TrapKind::NonFinite { value, op, var } = &err.kind else {
            panic!("expected a NonFinite trap, got {:?}", err.kind);
        };
        assert!(value.is_infinite(), "overflow produces ±Inf, got {value}");
        assert_eq!(var.as_deref(), Some("s"), "attributed to the accumulator");
        assert!(
            op.contains("Add") || op.contains("Round"),
            "the producing op is the rounded accumulation, got `{op}`"
        );
        // The same site in both instantiations of the dispatch loop, and
        // on a re-run.
        let again = run_shadow::<f64>(&c, overflow_args(), &opts)
            .expect_err("deterministic")
            .pc;
        assert_eq!(again, err.pc);
        match &pinned {
            None => pinned = Some((err.pc, op.clone())),
            Some((pc, op0)) => {
                assert_eq!(*pc, err.pc, "profiled and plain loops agree on the pc");
                assert_eq!(op0, op);
            }
        }
    }
}

#[test]
fn nan_input_is_attributed_to_the_parameter_at_entry() {
    let opts = ExecOptions {
        trap_on_nonfinite: true,
        ..Default::default()
    };
    let err = run_shadow::<f64>(&demoted(), threshold::args(f64::NAN, 3), &opts)
        .expect_err("a NaN argument must trap before the first instruction");
    let TrapKind::NonFinite { value, op, var } = &err.kind else {
        panic!("expected a NonFinite trap, got {:?}", err.kind);
    };
    assert!(value.is_nan());
    assert_eq!(op, "bind_args");
    assert_eq!(var.as_deref(), Some("x"));
    assert_eq!(err.pc, 0);
}

#[test]
fn without_the_flag_the_overflow_flows_into_the_report() {
    // Default options: IEEE semantics. The demoted primal overflows to
    // +Inf, the f64 shadow stays finite, and the report carries an
    // infinite measured error — exactly the silent escape
    // `trap_on_nonfinite` exists to catch at its source.
    let p = threshold::program();
    let f = p.function(threshold::NAME).expect("kernel exists");
    let mut pm = PrecisionMap::empty();
    for (id, v) in f.vars_iter() {
        if threshold::FLIP_VARS.contains(&v.name.as_str()) {
            pm.set(id, FloatTy::F32);
        }
    }
    let rep = shadow_run(
        &p,
        threshold::NAME,
        &overflow_args(),
        &pm,
        &OracleOptions::default(),
    )
    .expect("without the flag the run completes");
    assert!(rep.output_error.is_infinite());

    // The same run through the oracle surface with the flag on traps,
    // wrapped as `ChefError::Trap` with the attribution intact.
    let mut strict = OracleOptions::default();
    strict.exec.trap_on_nonfinite = true;
    let err = shadow_run(&p, threshold::NAME, &overflow_args(), &pm, &strict)
        .expect_err("with the flag the run traps");
    let chef_core::prelude::ChefError::Trap(trap) = err else {
        panic!("expected ChefError::Trap, got {err}");
    };
    assert!(matches!(
        trap.kind,
        TrapKind::NonFinite { var: Some(ref v), .. } if v == "s"
    ));
}
