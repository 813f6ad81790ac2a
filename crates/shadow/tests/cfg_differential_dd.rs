//! Differential test: the compaction tier (`chef_exec::cfg`) must be
//! unobservable under the double-double shadow oracle too.
//!
//! The f64-shadow leg lives in `chef-exec`'s own `cfg_differential`
//! suite; DD is defined here in `chef-shadow`, so the high-precision leg
//! rides along with the oracle. Same policy: the primal and shadow
//! returns are bit-identical, and the rest of the outcome — statistics,
//! per-pc samples, per-variable tables, `acc_error` and the divergence
//! report with its coordinates — is equal.

use chef_exec::compile::{compile, CompileOptions, PrecisionMap};
use chef_exec::prelude::*;
use chef_exec::shadow::run_shadow;
use chef_ir::ast::{Function, Program};
use chef_ir::types::FloatTy;
use chef_shadow::DD;

fn kernels() -> Vec<(&'static str, Program, &'static str, Vec<ArgValue>)> {
    vec![
        (
            "arclen",
            chef_apps::arclen::program(),
            chef_apps::arclen::NAME,
            chef_apps::arclen::args(300),
        ),
        (
            "simpsons",
            chef_apps::simpsons::program(),
            chef_apps::simpsons::NAME,
            chef_apps::simpsons::args(300),
        ),
        (
            "blackscholes",
            chef_apps::blackscholes::program(),
            chef_apps::blackscholes::NAME,
            chef_apps::blackscholes::args(&chef_apps::blackscholes::workload(30, 42)),
        ),
    ]
}

fn inlined_kernel(program: &Program, func: &str) -> Function {
    chef_passes::inline_program(program)
        .expect("kernel inlines")
        .function(func)
        .expect("kernel exists")
        .clone()
}

#[test]
fn demoted_kernels_preserve_the_dd_shadow_report_cfg_on_vs_off() {
    for (label, program, name, args) in kernels() {
        let func = inlined_kernel(&program, name);
        let pm = PrecisionMap::demote_all(&func, FloatTy::F32);
        let mk = |cfg_on: bool| {
            compile(
                &func,
                &CompileOptions {
                    precisions: pm.clone(),
                    fuse: true,
                    cfg: cfg_on,
                    pack: true,
                },
            )
            .expect("kernel compiles")
        };
        let opts = ExecOptions {
            max_instrs: Some(500_000_000),
            ..Default::default()
        };
        let sa = run_shadow::<DD>(&mk(false), args.clone(), &opts)
            .unwrap_or_else(|t| panic!("{label}: cfg-off trapped: {t}"));
        let sb = run_shadow::<DD>(&mk(true), args.clone(), &opts)
            .unwrap_or_else(|t| panic!("{label}: cfg-on trapped: {t}"));

        assert_eq!(
            sa.ret_f().to_bits(),
            sb.ret_f().to_bits(),
            "{label}: primal return differs"
        );
        match (sa.shadow_ret, sb.shadow_ret) {
            (Some(x), Some(y)) => {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{label}: DD shadow return differs"
                )
            }
            (x, y) => assert_eq!(x, y, "{label}: DD shadow return differs"),
        }
        assert_eq!(
            format!("{sa:?}"),
            format!("{sb:?}"),
            "{label}: DD shadow outcome differs"
        );
    }
}
