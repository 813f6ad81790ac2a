//! Pins the [`Rejected::retry_after`] semantics table (one shape per
//! reason, on every path that produces the reason) and the server's
//! persistent-cache warm start: sessions share the `cache_dir` store,
//! drain flushes pending write-backs, and a second server on the same
//! store resolves every variant from disk without compiling.

use chef_exec::fault::FaultPlan;
use chef_exec::prelude::*;
use chef_service::{
    AnalysisServer, BreakerConfig, Outcome, RejectReason, ServiceConfig, SessionSpec,
};
use std::sync::{mpsc, Arc};

fn compiled(src: &str) -> Arc<CompiledFunction> {
    let mut p = chef_ir::parser::parse_program(src).unwrap();
    chef_ir::typeck::check_program(&mut p).unwrap();
    Arc::new(compile_default(&p.functions[0]).unwrap())
}

/// An inert plan (never fires): opts a session out of any ambient
/// `CHEF_FAULT_SEED` environment plan.
fn no_injection() -> FaultPlan {
    FaultPlan::new(None, 0, 0, 1)
}

const KERNEL: &str = "double f(double x, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) { s += sin(x + i * 0.01) * 0.5; }
    return s;
}";

#[test]
fn retry_after_semantics_per_reason() {
    let server = AnalysisServer::new(ServiceConfig {
        workers: 1,
        max_sessions: 1,
        max_queue_depth: 1,
        breaker: BreakerConfig {
            trip_after: 1,
            cooldown: 2,
        },
        ..Default::default()
    });
    let session = server
        .open_session(
            SessionSpec::named("only")
                .with_budget(100)
                .with_fault(no_injection()),
        )
        .unwrap();

    // SessionLimit → Some(n): n session closes free an open slot.
    let rej = server
        .open_session(SessionSpec::named("extra"))
        .unwrap_err();
    assert_eq!(rej.reason, RejectReason::SessionLimit);
    assert_eq!(rej.retry_after, Some(1));

    // QueueFull → Some(n): n queued jobs must start first.
    let light = compiled("double f(double x) { return x * 2.0; }");
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let gated = session
        .submit_task(move || gate_rx.recv().unwrap())
        .unwrap();
    // Wait until a worker has taken the gated job off the queue, so it
    // no longer counts against the queue depth.
    while !(server.active_jobs() == 1 && server.queue_depth() == 0) {
        std::thread::yield_now();
    }
    let queued = session.submit_task(|| ()).unwrap();
    let rej = session
        .submit_run(light.clone(), vec![ArgValue::F(1.0)])
        .unwrap_err();
    assert_eq!(rej.reason, RejectReason::QueueFull);
    assert_eq!(rej.retry_after, Some(1));
    gate_tx.send(()).unwrap();
    assert!(matches!(gated.wait(), Outcome::Completed { .. }));
    assert!(matches!(queued.wait(), Outcome::Completed { .. }));

    // CircuitOpen → Some(n): a countdown of rejected submissions until
    // the half-open probe. One budget fault trips the breaker
    // (trip_after = 1, cooldown = 2).
    let heavy = compiled(KERNEL);
    let o = session
        .submit_run(heavy, vec![ArgValue::F(0.3), ArgValue::I(500)])
        .unwrap()
        .wait();
    assert!(matches!(o, Outcome::Faulted { .. }), "{o:?}");
    let rej = session
        .submit_run(light.clone(), vec![ArgValue::F(1.0)])
        .unwrap_err();
    assert_eq!(rej.reason, RejectReason::CircuitOpen);
    assert_eq!(rej.retry_after, Some(2));

    // Draining → None on BOTH paths (session open and job submission):
    // the refusal is permanent, waiting can never help.
    server.drain();
    let rej = server.open_session(SessionSpec::named("late")).unwrap_err();
    assert_eq!(rej.reason, RejectReason::Draining);
    assert_eq!(rej.retry_after, None);
    let rej = session
        .submit_run(light, vec![ArgValue::F(1.0)])
        .unwrap_err();
    assert_eq!(rej.reason, RejectReason::Draining);
    assert_eq!(rej.retry_after, None);
}

#[test]
fn warm_start_shares_store_across_sessions_and_processes() {
    let dir = std::env::temp_dir().join(format!("chef-service-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut p = chef_ir::parser::parse_program(KERNEL).unwrap();
    chef_ir::typeck::check_program(&mut p).unwrap();
    let program = Arc::new(p);
    let args = vec![ArgValue::F(0.37), ArgValue::I(100)];
    let mut cfg = chef_tuner::TunerConfig::with_threshold(1e-3);
    cfg.fault_plan = Some(no_injection());

    let run_tune = |server: &AnalysisServer| {
        let session = server
            .open_session(SessionSpec::named("tuner").with_fault(no_injection()))
            .unwrap();
        let o = session
            .submit_tune(
                Arc::clone(&program),
                "f".to_string(),
                args.clone(),
                cfg.clone(),
                chef_tuner::OracleTuneOptions::default(),
            )
            .unwrap()
            .wait();
        match o {
            Outcome::Completed { value, .. } => value,
            other => panic!("tune failed: {other:?}"),
        }
    };

    // Cold server: everything compiles; drain flushes the write-backs.
    let cold_server = AnalysisServer::new(ServiceConfig {
        workers: 1,
        cache_dir: Some(dir.clone()),
        ..Default::default()
    });
    let cold = run_tune(&cold_server);
    let report = cold_server.drain();
    assert!(report.leak_free());
    let store = cold_server
        .disk_store()
        .expect("cache_dir attaches a store");
    assert!(
        store.writes() > 0,
        "drain must flush pending variant write-backs"
    );
    let entries = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".cfn"))
        .count();
    assert_eq!(entries as u64, store.writes());
    drop(cold_server);

    // Warm "process": a fresh server on the same directory resolves
    // every variant by content hash from disk — zero compilations
    // through the store, bit-identical tuning outcome.
    let warm_server = AnalysisServer::new(ServiceConfig {
        workers: 1,
        cache_dir: Some(dir.clone()),
        ..Default::default()
    });
    let warm = run_tune(&warm_server);
    let store = warm_server.disk_store().unwrap();
    assert!(store.hits() > 0, "warm tune must load variants from disk");
    assert_eq!(store.misses(), 0, "warm tune must not compile any variant");
    assert_eq!(store.corrupt(), 0);
    assert_eq!(warm.demoted, cold.demoted);
    assert_eq!(
        warm.baseline_value.to_bits(),
        cold.baseline_value.to_bits(),
        "disk-loaded variants must execute bit-identically"
    );
    match (warm.measured_error, cold.measured_error) {
        (Some(w), Some(c)) => assert_eq!(w.to_bits(), c.to_bits()),
        (w, c) => assert_eq!(w, c),
    }
    assert!(warm_server.drain().leak_free());
    let _ = std::fs::remove_dir_all(&dir);
}
