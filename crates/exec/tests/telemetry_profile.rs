//! Telemetry-layer integration tests.
//!
//! The per-pc profiler is an *observer*: with `ExecOptions::profile` on,
//! the dispatch loop increments one slot per executed instruction, so on
//! a successful run the profile must sum to exactly
//! `ExecStats::instrs_executed` (whose accounting is block-granular) —
//! in the plain VM and in the fused-shadow loop. The shadow profile must
//! match the plain VM profile slot for slot on the same kernel (the
//! shadow pass replays the primal instruction stream 1:1).
//!
//! Span coverage: the batch body opens one `exec.worker` span
//! per pool checkout and one `exec.run` span per argument set; the run
//! spans must nest under a worker span on the same thread.

use chef_exec::prelude::*;
use chef_ir::ast::{Function, Program};

fn kernels() -> Vec<(&'static str, Program, &'static str, Vec<ArgValue>)> {
    vec![
        (
            "arclen",
            chef_apps::arclen::program(),
            chef_apps::arclen::NAME,
            chef_apps::arclen::args(500),
        ),
        (
            "simpsons",
            chef_apps::simpsons::program(),
            chef_apps::simpsons::NAME,
            chef_apps::simpsons::args(500),
        ),
        (
            "kmeans",
            chef_apps::kmeans::program(),
            chef_apps::kmeans::NAME,
            chef_apps::kmeans::args(&chef_apps::kmeans::workload(100, 5, 4, 42)),
        ),
        (
            "blackscholes",
            chef_apps::blackscholes::program(),
            chef_apps::blackscholes::NAME,
            chef_apps::blackscholes::args(&chef_apps::blackscholes::workload(50, 42)),
        ),
        (
            "hpccg",
            chef_apps::hpccg::program(),
            chef_apps::hpccg::NAME,
            chef_apps::hpccg::args(&chef_apps::hpccg::problem(4, 4, 4)),
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

/// The profiled instruction counts bit-match `instrs_executed` on every
/// app kernel, and profiling leaves the dispatch count unchanged.
#[test]
fn profiled_counts_match_executed_on_all_kernels() {
    let opts = ExecOptions {
        profile: true,
        ..Default::default()
    };
    for (label, program, name, args) in kernels() {
        let func = inlined_kernel(&program, name);
        let compiled = compile_default(&func).expect("kernel compiles");

        let mut m = chef_exec::vm::Machine::new();
        let out = m
            .run_reused(&compiled, args.clone(), &opts)
            .unwrap_or_else(|t| panic!("{label}: run trapped: {t:?}"));
        let prof = out.profile.as_ref().expect("profile present");
        assert_eq!(
            prof.total(),
            out.stats.instrs_executed,
            "{label}: profile total != instrs_executed"
        );
        assert_eq!(
            prof.pc_counts.len(),
            compiled.instrs.len(),
            "{label}: one slot per pc"
        );

        // Off by default: the same runs without the flag carry no profile.
        let out_off = m
            .run_reused(&compiled, args.clone(), &ExecOptions::default())
            .expect("off-mode run");
        assert!(out_off.profile.is_none(), "{label}: profile without flag");
        assert_eq!(
            out_off.stats.instrs_executed, out.stats.instrs_executed,
            "{label}: profiling changed the dispatch count"
        );
    }
}

/// The fused shadow pass runs the plain VM's dispatch loop with a shadow
/// lane and replays the primal stream 1:1, so the shadow
/// profile equals the plain VM profile on the same compiled function —
/// and is indexed like `samples`, making `pc_counts[pc] * samples[pc]`
/// a frequency-times-error hotness signal.
#[test]
fn shadow_profile_matches_vm_profile() {
    let opts = ExecOptions {
        profile: true,
        ..Default::default()
    };
    for (label, program, name, args) in kernels() {
        let func = inlined_kernel(&program, name);
        let compiled = compile_default(&func).expect("kernel compiles");
        let mut vm = chef_exec::vm::Machine::new();
        let vm_out = vm
            .run_reused(&compiled, args.clone(), &opts)
            .unwrap_or_else(|t| panic!("{label}: vm run trapped: {t:?}"));
        let mut sm = chef_exec::shadow::ShadowMachine::<f64>::new();
        let sh_out = sm
            .run_reused(&compiled, args.clone(), &opts)
            .unwrap_or_else(|t| panic!("{label}: shadow run trapped: {t:?}"));

        let sh_prof = sh_out.profile.as_ref().expect("shadow profile present");
        assert_eq!(
            sh_prof.total(),
            sh_out.stats.instrs_executed,
            "{label}: shadow profile total != instrs_executed"
        );
        assert_eq!(
            vm_out.profile.as_ref().unwrap().pc_counts,
            sh_prof.pc_counts,
            "{label}: shadow and vm per-pc counts differ"
        );
        assert_eq!(
            sh_prof.pc_counts.len(),
            sh_out.samples.len(),
            "{label}: profile not indexed like samples"
        );
    }
}

/// `ExecProfile::merge` accumulates across runs; `hottest` ranks by
/// count and omits never-executed pcs.
#[test]
fn profile_merge_and_hottest() {
    let program = chef_apps::arclen::program();
    let func = inlined_kernel(&program, chef_apps::arclen::NAME);
    let compiled = compile_default(&func).expect("kernel compiles");
    let opts = ExecOptions {
        profile: true,
        ..Default::default()
    };
    let mut m = chef_exec::vm::Machine::new();
    let a = m
        .run_reused(&compiled, chef_apps::arclen::args(100), &opts)
        .unwrap()
        .profile
        .unwrap();
    let b = m
        .run_reused(&compiled, chef_apps::arclen::args(300), &opts)
        .unwrap()
        .profile
        .unwrap();
    let mut merged = a.clone();
    merged.merge(&b);
    assert_eq!(merged.total(), a.total() + b.total());
    let hot = merged.hottest(4);
    assert!(!hot.is_empty() && hot.len() <= 4);
    assert!(hot.windows(2).all(|w| w[0].1 >= w[1].1), "not sorted");
    assert!(hot.iter().all(|&(_, n)| n > 0), "zero-count pc reported");
}

/// Under `run_batch_parallel`, every `exec.run` span this test owns
/// nests under an `exec.worker` span recorded on the same thread. Other
/// tests in this binary run concurrently and also emit spans, so the
/// assertion is existential over our batch (matched by span count), not
/// universal over the snapshot.
#[test]
fn span_nesting_well_formed_under_parallel_batch() {
    let program = chef_apps::arclen::program();
    let func = inlined_kernel(&program, chef_apps::arclen::NAME);
    let compiled = compile_default(&func).expect("kernel compiles");
    let arg_sets: Vec<Vec<ArgValue>> = (1..=16).map(|n| chef_apps::arclen::args(n * 10)).collect();
    let results = run_batch_parallel(&compiled, arg_sets, &ExecOptions::default(), Some(4));
    assert!(results.iter().all(|r| r.is_ok()));

    let snap = chef_telemetry::snapshot();
    let workers = snap.spans_named("exec.worker");
    let runs = snap.spans_named("exec.run");
    assert!(!workers.is_empty(), "no worker spans recorded");
    let mut nested = 0usize;
    for r in &runs {
        let Some(parent) = r.parent else { continue };
        // A parent id that resolves to no record belongs to a span still
        // open (or evicted from a bounded ring) — skip, don't fail.
        let Some(p) = snap.spans.iter().find(|s| s.id == parent) else {
            continue;
        };
        assert_eq!(p.name, "exec.worker", "exec.run nested under {}", p.name);
        assert_eq!(p.thread, r.thread, "parent span on a different thread");
        assert!(
            p.start_ns <= r.start_ns && r.end_ns <= p.end_ns,
            "child span not contained in its parent"
        );
        nested += 1;
    }
    assert!(nested > 0, "no exec.run span resolved to its worker parent");
}
