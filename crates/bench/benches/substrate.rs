//! Substrate micro-benchmarks: soft-float rounding, VM dispatch, and the
//! cost of the source transformations themselves (parse → check → AD →
//! optimize → compile).

use chef_ad::reverse::reverse_diff;
use chef_exec::precision::round_to;
use chef_exec::prelude::*;
use chef_ir::types::FloatTy;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn benches(c: &mut Criterion) {
    // Precision simulation.
    let xs: Vec<f64> = (1..=1024).map(|i| i as f64 * 0.0173).collect();
    let mut g = c.benchmark_group("precision/round_to");
    g.sample_size(20);
    for ty in [FloatTy::F32, FloatTy::F16, FloatTy::BF16] {
        g.bench_function(ty.keyword(), |b| {
            b.iter(|| xs.iter().map(|&x| round_to(black_box(x), ty)).sum::<f64>())
        });
    }
    g.finish();

    // VM throughput on the arclen primal (fused + reusable machine —
    // the default engine configuration).
    let p = chef_apps::arclen::program();
    let compiled = chef_exec::compile::compile_default(p.function("arclen").unwrap()).unwrap();
    let mut g = c.benchmark_group("vm/arclen-primal");
    g.sample_size(10);
    g.bench_function("n=10000", |b| {
        b.iter(|| run(&compiled, vec![ArgValue::I(10_000)]).unwrap().ret_f())
    });
    g.finish();

    // Fusion ablation: the same kernel with the peephole disabled, plus
    // an explicit reusable machine to isolate dispatch cost.
    let arclen = p.function("arclen").unwrap();
    let unfused = chef_exec::compile::compile(
        arclen,
        &chef_exec::compile::CompileOptions {
            fuse: false,
            ..Default::default()
        },
    )
    .unwrap();
    let fused = chef_exec::compile::compile_default(arclen).unwrap();
    let mut g = c.benchmark_group("vm/fused-vs-unfused");
    g.sample_size(10);
    g.bench_function("unfused", |b| {
        let mut m = chef_exec::vm::Machine::new();
        let opts = ExecOptions::default();
        b.iter(|| {
            m.run_reused(&unfused, vec![ArgValue::I(10_000)], &opts)
                .unwrap()
                .ret_f()
        })
    });
    g.bench_function("fused", |b| {
        let mut m = chef_exec::vm::Machine::new();
        let opts = ExecOptions::default();
        b.iter(|| {
            m.run_reused(&fused, vec![ArgValue::I(10_000)], &opts)
                .unwrap()
                .ret_f()
        })
    });
    g.finish();

    // Shadow-execution overhead: the fused primal+shadow pass against
    // the plain VM run on the same kernel. The acceptance bar for the
    // oracle subsystem is < 4x for the f64 shadow; the double-double
    // shadow is reported for reference.
    let mut g = c.benchmark_group("shadow/overhead");
    g.sample_size(10);
    g.bench_function("plain", |b| {
        let mut m = chef_exec::vm::Machine::new();
        let opts = ExecOptions::default();
        b.iter(|| {
            m.run_reused(&fused, vec![ArgValue::I(10_000)], &opts)
                .unwrap()
                .ret_f()
        })
    });
    g.bench_function("shadowed-f64", |b| {
        let mut m = chef_exec::shadow::ShadowMachine::<f64>::new();
        let opts = ExecOptions::default();
        b.iter(|| {
            m.run_reused(&fused, vec![ArgValue::I(10_000)], &opts)
                .unwrap()
                .ret_f()
        })
    });
    g.bench_function("shadowed-dd", |b| {
        let mut m = chef_exec::shadow::ShadowMachine::<chef_shadow::DD>::new();
        let opts = ExecOptions::default();
        b.iter(|| {
            m.run_reused(&fused, vec![ArgValue::I(10_000)], &opts)
                .unwrap()
                .ret_f()
        })
    });
    g.finish();

    // Telemetry overhead: the fused arclen run with the per-pc profiler
    // off (default) and on. The off path is a separate monomorphization
    // of the dispatch loop (`<const PROFILE: bool>`), so it must stay
    // within noise of the pre-telemetry baseline (the repro --smoke gate
    // enforces <= 1.02x); the profiling path pays one slice increment
    // per instruction and must stay <= 1.5x.
    let mut g = c.benchmark_group("telemetry/overhead");
    g.sample_size(10);
    g.bench_function("profile-off", |b| {
        let mut m = chef_exec::vm::Machine::new();
        let opts = ExecOptions::default();
        b.iter(|| {
            m.run_reused(&fused, vec![ArgValue::I(10_000)], &opts)
                .unwrap()
                .ret_f()
        })
    });
    g.bench_function("profile-on", |b| {
        let mut m = chef_exec::vm::Machine::new();
        let opts = ExecOptions {
            profile: true,
            ..Default::default()
        };
        b.iter(|| {
            m.run_reused(&fused, vec![ArgValue::I(10_000)], &opts)
                .unwrap()
                .ret_f()
        })
    });
    g.finish();

    // Divergence-detection overhead: the fused f64 shadow with the
    // default divergence checks (every float compare and F2I evaluated a
    // second time on shadow operands) against the same pass with
    // detection off and against the plain VM. Measured on arclen (the
    // < 4x acceptance bar) and on the branch-heavy simpsons kernel,
    // whose inner loop decides a float-derived branch per iteration.
    let ps = chef_apps::simpsons::program();
    let simpsons = chef_exec::compile::compile_default(ps.function("simpsons").unwrap()).unwrap();
    let simpsons_args = || chef_apps::simpsons::args(5_000);
    let mut g = c.benchmark_group("shadow/divergence-overhead");
    g.sample_size(10);
    g.bench_function("arclen-plain", |b| {
        let mut m = chef_exec::vm::Machine::new();
        let opts = ExecOptions::default();
        b.iter(|| {
            m.run_reused(&fused, vec![ArgValue::I(10_000)], &opts)
                .unwrap()
                .ret_f()
        })
    });
    g.bench_function("arclen-shadow-nodetect", |b| {
        let mut m = chef_exec::shadow::ShadowMachine::<f64>::new();
        let opts = ExecOptions {
            detect_divergence: false,
            ..Default::default()
        };
        b.iter(|| {
            m.run_reused(&fused, vec![ArgValue::I(10_000)], &opts)
                .unwrap()
                .ret_f()
        })
    });
    g.bench_function("arclen-shadow-detect", |b| {
        let mut m = chef_exec::shadow::ShadowMachine::<f64>::new();
        let opts = ExecOptions::default();
        b.iter(|| {
            m.run_reused(&fused, vec![ArgValue::I(10_000)], &opts)
                .unwrap()
                .ret_f()
        })
    });
    g.bench_function("simpsons-plain", |b| {
        let mut m = chef_exec::vm::Machine::new();
        let opts = ExecOptions::default();
        b.iter(|| {
            m.run_reused(&simpsons, simpsons_args(), &opts)
                .unwrap()
                .ret_f()
        })
    });
    g.bench_function("simpsons-shadow-detect", |b| {
        let mut m = chef_exec::shadow::ShadowMachine::<f64>::new();
        let opts = ExecOptions::default();
        b.iter(|| {
            m.run_reused(&simpsons, simpsons_args(), &opts)
                .unwrap()
                .ret_f()
        })
    });
    g.finish();

    // Batch API: serial machine reuse vs parallel fan-out on independent
    // analysis-style runs.
    let mut g = c.benchmark_group("vm/batch");
    g.sample_size(10);
    let sets = || -> Vec<Vec<ArgValue>> { (0..64).map(|_| vec![ArgValue::I(2_000)]).collect() };
    g.bench_function("serial-64", |b| {
        let opts = ExecOptions::default();
        b.iter(|| chef_exec::vm::run_batch(&fused, sets(), &opts))
    });
    g.bench_function("parallel-64", |b| {
        let opts = ExecOptions::default();
        b.iter(|| chef_exec::vm::run_batch_parallel(&fused, sets(), &opts, None))
    });
    g.finish();

    // Service layer: the same 64 independent runs submitted through an
    // `AnalysisServer` session — prices admission control, the
    // work-stealing queue, per-job stats and breaker feedback against
    // the raw parallel batch path the service wraps (`parallel-64`
    // above is the baseline).
    let mut g = c.benchmark_group("service/session-batch");
    g.sample_size(10);
    g.bench_function("session-64", |b| {
        let server = chef_service::AnalysisServer::new(chef_service::ServiceConfig {
            max_queue_depth: 128,
            ..Default::default()
        });
        let session = server
            .open_session(
                chef_service::SessionSpec::named("bench")
                    .with_fault(chef_exec::fault::FaultPlan::new(None, 0, 0, 1)),
            )
            .unwrap();
        let func = std::sync::Arc::new(fused.clone());
        b.iter(|| {
            let tickets: Vec<_> = (0..64)
                .map(|_| {
                    session
                        .submit_run(func.clone(), vec![ArgValue::I(2_000)])
                        .unwrap()
                })
                .collect();
            tickets
                .into_iter()
                .map(|t| t.wait().completed().expect("bench job completes").ret_f())
                .sum::<f64>()
        })
    });
    g.finish();

    // Transformation pipeline cost (compile-time work, amortized over
    // analyses in CHEF-FP; paid per run by tracing tools).
    let src = chef_apps::blackscholes::SOURCE;
    let mut g = c.benchmark_group("transform");
    g.sample_size(20);
    g.bench_function("parse+check", |b| {
        b.iter(|| {
            let mut p = chef_ir::parser::parse_program(black_box(src)).unwrap();
            chef_ir::typeck::check_program(&mut p).unwrap();
            p
        })
    });
    let mut checked = chef_ir::parser::parse_program(src).unwrap();
    chef_ir::typeck::check_program(&mut checked).unwrap();
    let primal = checked.function("blackscholes").unwrap().clone();
    g.bench_function("reverse-ad", |b| {
        b.iter(|| reverse_diff(black_box(&primal)).unwrap())
    });
    let grad = reverse_diff(&primal).unwrap();
    g.bench_function("optimize-O2", |b| {
        b.iter(|| {
            let mut f = grad.clone();
            chef_passes::optimize_function(&mut f, chef_passes::OptLevel::O2);
            f
        })
    });
    let mut opt = grad.clone();
    chef_passes::optimize_function(&mut opt, chef_passes::OptLevel::O2);
    g.bench_function("bytecode-compile", |b| {
        b.iter(|| chef_exec::compile::compile_default(black_box(&opt)).unwrap())
    });
    g.finish();
}

criterion_group!(substrate, benches);
criterion_main!(substrate);
