//! Span memory is bounded by live threads, not by batches run.
//!
//! Every `run_batch_parallel` call fans out over fresh scoped threads,
//! and each worker opens spans, so each worker claims a span ring. A
//! worker's ring is retired when it exits and reused by later workers;
//! the registered ring count (the `telemetry.span_rings` gauge) must
//! stay within the live threads plus the retired-ring budget
//! (`chef_telemetry::retired_span_ring_budget`), however many batches
//! ran. This is the binary's only test, so no other test's
//! threads hold rings meanwhile.

use chef_exec::prelude::*;

#[test]
fn parallel_batches_leave_span_rings_bounded() {
    let program = chef_apps::arclen::program();
    let func = chef_passes::inline_program(&program)
        .expect("kernel inlines")
        .function(chef_apps::arclen::NAME)
        .expect("kernel exists")
        .clone();
    let compiled = compile_default(&func).expect("kernel compiles");
    for _ in 0..200 {
        let arg_sets = (0..4).map(|_| chef_apps::arclen::args(10)).collect();
        let results = run_batch_parallel(&compiled, arg_sets, &ExecOptions::default(), Some(2));
        assert!(results.iter().all(|r| r.is_ok()));
    }
    let rings = chef_telemetry::gauge("telemetry.span_rings").get() as usize;
    // This test's thread and one batch's two workers: a batch returns
    // only after its workers have released their rings.
    let peak = chef_telemetry::gauge("telemetry.span_threads_peak").get() as usize;
    assert!(peak <= 3, "{peak} threads held span rings at once");
    let bound = chef_telemetry::retired_span_ring_budget() + peak;
    assert!(
        rings <= bound,
        "{rings} span rings after 200 batches (bound {bound})"
    );
}
