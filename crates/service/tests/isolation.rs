//! Cross-session isolation, drain, deadline and admission tests — the
//! pinned robustness contract of `chef-service`:
//!
//! * a session full of injected faults cannot perturb its neighbours'
//!   results by a single bit;
//! * a graceful drain leaves zero job attempts (so zero machine
//!   checkouts) outstanding, even after a job that panicked twice, and
//!   rejects everything afterwards;
//! * a deadline overrun is a typed trap with pc attribution, never a
//!   panic, for a single run and for a whole tuning job;
//! * admission rejects with typed reasons at the session limit, under
//!   queue backpressure, and while a breaker quarantines a session.

use chef_exec::fault::FaultPlan;
use chef_exec::prelude::*;
use chef_service::{
    AnalysisServer, BreakerConfig, Outcome, RejectReason, ServiceConfig, SessionSpec,
};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

fn compiled(src: &str) -> Arc<CompiledFunction> {
    let mut p = chef_ir::parser::parse_program(src).unwrap();
    chef_ir::typeck::check_program(&mut p).unwrap();
    Arc::new(compile_default(&p.functions[0]).unwrap())
}

/// An inert plan (never fires): opts a session out of any ambient
/// `CHEF_FAULT_SEED` environment plan, so clean sessions stay clean
/// under the CI fault matrix.
fn no_injection() -> FaultPlan {
    FaultPlan::new(None, 0, 0, 1)
}

const KERNEL: &str = "double f(double x, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) { s += sin(x + i * 0.01) * 0.5; }
    return s;
}";

#[test]
fn faulty_session_neighbors_stay_bit_identical_to_solo_runs() {
    let server = AnalysisServer::new(ServiceConfig {
        workers: 3,
        ..Default::default()
    });
    let clean_a = server
        .open_session(SessionSpec::named("clean-a").with_fault(no_injection()))
        .unwrap();
    let clean_b = server
        .open_session(SessionSpec::named("clean-b").with_fault(no_injection()))
        .unwrap();
    // The noisy neighbour: every ~3rd draw injects a trap, panic or NaN.
    let faulty = server
        .open_session(SessionSpec::named("faulty").with_fault(FaultPlan::from_seed(42, None)))
        .unwrap();

    let func = compiled(KERNEL);
    let args_of = |k: usize| vec![ArgValue::F(0.1 * k as f64), ArgValue::I(200 + k as i64)];

    // Interleave submissions so faulty jobs run concurrently with (and
    // between) the clean sessions' jobs on the shared workers.
    let mut clean_tickets = Vec::new();
    let mut faulty_tickets = Vec::new();
    for k in 0..12 {
        clean_tickets.push((0, k, clean_a.submit_run(func.clone(), args_of(k)).unwrap()));
        faulty_tickets.push(faulty.submit_run(func.clone(), args_of(k)).unwrap());
        clean_tickets.push((1, k, clean_b.submit_run(func.clone(), args_of(k)).unwrap()));
    }

    // Solo reference: a fresh machine, same exec options as a clean
    // session job (inert plan, no budget).
    let solo_opts = ExecOptions {
        fault: Some(no_injection()),
        ..Default::default()
    };
    for (_, k, t) in clean_tickets {
        match t.wait() {
            Outcome::Completed { value, .. } => {
                let solo = run_with(&func, args_of(k), &solo_opts).unwrap();
                assert_eq!(
                    value.ret_f().to_bits(),
                    solo.ret_f().to_bits(),
                    "clean session run {k} diverged from solo"
                );
                assert_eq!(value.stats, solo.stats, "stats diverged on run {k}");
            }
            other => panic!("clean session job {k} did not complete: {other:?}"),
        }
    }
    // Every faulty job reached a terminal state (completed, retried, or
    // a typed fault) — none hung, none killed a worker.
    for t in faulty_tickets {
        let o = t.wait();
        assert!(
            !matches!(o, Outcome::Cancelled),
            "nothing was draining, so nothing may cancel"
        );
    }
    let report = server.drain();
    assert!(report.leak_free(), "outstanding: {report:?}");
}

/// A job whose two attempts both panic inside the VM (a plan that
/// fires on every draw, so the retry fires too): each attempt ends in
/// the unwind, and the drain finds nothing of this server in flight.
#[test]
fn a_job_panicking_on_both_attempts_drains_leak_free() {
    let server = AnalysisServer::new(ServiceConfig {
        workers: 1,
        ..Default::default()
    });
    let every_draw = FaultPlan::new(Some(FaultKind::Panic), 1, 0, 1);
    let session = server
        .open_session(SessionSpec::named("panics").with_fault(every_draw))
        .unwrap();
    let outcome = session
        .submit_run(compiled(KERNEL), vec![ArgValue::F(0.5), ArgValue::I(10)])
        .unwrap()
        .wait();
    assert!(matches!(outcome, Outcome::Panicked { .. }), "{outcome:?}");
    let report = server.drain();
    assert!(report.leak_free(), "outstanding: {report:?}");
}

#[test]
fn drain_leaves_zero_outstanding_and_rejects_afterwards() {
    let server = AnalysisServer::new(ServiceConfig {
        workers: 2,
        ..Default::default()
    });
    let session = server
        .open_session(SessionSpec::named("s").with_fault(no_injection()))
        .unwrap();
    let func = compiled(KERNEL);
    let mut tickets = Vec::new();
    for k in 0..16 {
        tickets.push(
            session
                .submit_run(func.clone(), vec![ArgValue::F(k as f64), ArgValue::I(500)])
                .unwrap(),
        );
    }
    let report = server.drain();
    assert!(report.leak_free(), "outstanding: {report:?}");
    assert_eq!(server.queue_depth(), 0);
    assert_eq!(server.active_jobs(), 0);

    // In-flight jobs completed; queued ones were cancelled — and every
    // ticket resolved either way.
    let mut completed = 0u32;
    let mut cancelled = 0u32;
    for t in tickets {
        match t.wait() {
            Outcome::Completed { .. } => completed += 1,
            Outcome::Cancelled => cancelled += 1,
            other => panic!("unexpected outcome during drain: {other:?}"),
        }
    }
    assert_eq!(completed + cancelled, 16);

    // Post-drain: submissions and session opens are rejected, typed.
    let rej = session
        .submit_run(func.clone(), vec![ArgValue::F(0.0), ArgValue::I(1)])
        .unwrap_err();
    assert_eq!(rej.reason, RejectReason::Draining);
    let rej = server.open_session(SessionSpec::named("late")).unwrap_err();
    assert_eq!(rej.reason, RejectReason::Draining);

    // The per-session ledger agrees with the ticket tally.
    let stats = session.stats();
    assert_eq!(stats.completed, completed as u64);
    assert_eq!(stats.cancelled, cancelled as u64);
    assert_eq!(stats.rejected_backpressure, 1, "the post-drain submit");
}

#[test]
fn deadline_overrun_is_a_typed_trap_with_pc_never_a_panic() {
    let server = AnalysisServer::new(ServiceConfig {
        workers: 1,
        ..Default::default()
    });
    let session = server
        .open_session(
            SessionSpec::named("deadline")
                .with_deadline(Duration::from_millis(10))
                .with_fault(no_injection()),
        )
        .unwrap();
    let spin = compiled("void f() { while (true) { } }");
    let outcome = session.submit_run(spin.clone(), vec![]).unwrap().wait();
    match outcome {
        Outcome::DeadlineExceeded { pc, executed } => {
            assert!(pc < spin.instrs.len(), "pc {pc} out of range");
            assert!(executed >= DEADLINE_STRIDE, "{executed}");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(session.stats().deadline_exceeded, 1);
    // The worker survived: the same session still completes good work.
    let quick = compiled("double f(double x) { return x + 1.0; }");
    let o = session
        .submit_run(quick, vec![ArgValue::F(1.0)])
        .unwrap()
        .wait();
    match o {
        Outcome::Completed { value, .. } => assert_eq!(value.ret_f(), 2.0),
        other => panic!("expected completion after deadline trap: {other:?}"),
    }
    assert!(server.drain().leak_free());
}

/// A tuning job past its session deadline reports the overrun: the
/// deadline is one instant for the whole job, so the tuner does not
/// retry the trapped trial (its retry would trap again) and quarantine
/// it as if the trial alone had faulted.
#[test]
fn a_tune_job_past_its_deadline_reports_deadline_exceeded() {
    let server = AnalysisServer::new(ServiceConfig {
        workers: 1,
        ..Default::default()
    });
    let session = server
        .open_session(
            SessionSpec::named("late-tune")
                .with_deadline(Duration::ZERO)
                .with_fault(no_injection()),
        )
        .unwrap();
    let mut p = chef_ir::parser::parse_program(KERNEL).unwrap();
    chef_ir::typeck::check_program(&mut p).unwrap();
    let mut cfg = chef_tuner::TunerConfig::with_threshold(1e-3);
    cfg.fault_plan = Some(no_injection());
    let outcome = session
        .submit_tune(
            Arc::new(p),
            "f".to_string(),
            vec![ArgValue::F(0.37), ArgValue::I(20_000)],
            cfg,
            chef_tuner::OracleTuneOptions::default(),
        )
        .unwrap()
        .wait();
    match outcome {
        Outcome::DeadlineExceeded { executed, .. } => {
            assert!(executed >= DEADLINE_STRIDE, "{executed}");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(session.stats().deadline_exceeded, 1);
    assert!(server.drain().leak_free());
}

#[test]
fn budget_faults_trip_the_breaker_and_a_probe_closes_it() {
    let server = AnalysisServer::new(ServiceConfig {
        workers: 1,
        breaker: BreakerConfig {
            trip_after: 2,
            cooldown: 2,
        },
        ..Default::default()
    });
    let session = server
        .open_session(
            SessionSpec::named("hot")
                .with_budget(100)
                .with_fault(no_injection()),
        )
        .unwrap();
    let heavy = compiled(KERNEL); // needs ≫ 100 instructions at n=500
    let light = compiled("double f(double x) { return x * 2.0; }");

    // Two consecutive budget faults trip the breaker. (Sequential
    // submission: each outcome is awaited before the next submit.)
    for _ in 0..2 {
        let o = session
            .submit_run(heavy.clone(), vec![ArgValue::F(0.3), ArgValue::I(500)])
            .unwrap()
            .wait();
        assert!(
            matches!(
                &o,
                Outcome::Faulted { trap, .. }
                    if matches!(trap.kind, TrapKind::InstrBudgetExhausted { .. })
            ),
            "{o:?}"
        );
    }
    assert!(session.quarantined());
    assert_eq!(session.breaker_trips(), 1);

    // Cooldown: the next two submissions are rejected with a typed
    // countdown.
    for expected in [2u32, 1u32] {
        let rej = session
            .submit_run(light.clone(), vec![ArgValue::F(1.0)])
            .unwrap_err();
        assert_eq!(rej.reason, RejectReason::CircuitOpen);
        assert_eq!(rej.retry_after, Some(expected));
    }
    // Then one probe is admitted; it fits the budget, so it closes the
    // breaker and the session is healthy again.
    let o = session
        .submit_run(light.clone(), vec![ArgValue::F(21.0)])
        .unwrap()
        .wait();
    assert!(matches!(o, Outcome::Completed { .. }), "{o:?}");
    assert!(!session.quarantined());
    let o = session
        .submit_run(light, vec![ArgValue::F(1.0)])
        .unwrap()
        .wait();
    assert!(matches!(o, Outcome::Completed { .. }));
    assert_eq!(session.stats().rejected_quarantine, 2);
    assert!(server.drain().leak_free());
}

#[test]
fn injected_faults_recover_via_retry_under_sequential_submission() {
    let server = AnalysisServer::new(ServiceConfig {
        workers: 1,
        ..Default::default()
    });
    // Period ≥ 3 and one job in flight at a time: a fired draw is
    // always followed by a quiet one, so retry-once recovers every
    // injected trap/panic. (NaN injection completes with a poisoned
    // value — also terminal, also counted.)
    let session = server
        .open_session(SessionSpec::named("inj").with_fault(FaultPlan::from_seed(7, None)))
        .unwrap();
    let func = compiled(KERNEL);
    let mut done = 0u32;
    for k in 0..20 {
        let o = session
            .submit_run(
                func.clone(),
                vec![ArgValue::F(0.2 * k as f64), ArgValue::I(50)],
            )
            .unwrap()
            .wait();
        match o {
            Outcome::Completed { .. } => done += 1,
            other => panic!("sequential injected fault must recover: {other:?}"),
        }
    }
    assert_eq!(done, 20);
    let stats = session.stats();
    assert!(stats.retried > 0, "the plan fires within 20 jobs");
    assert!(server.drain().leak_free());
}

#[test]
fn admission_rejects_at_session_limit_and_queue_depth() {
    let server = AnalysisServer::new(ServiceConfig {
        workers: 1,
        max_sessions: 2,
        max_queue_depth: 1,
        ..Default::default()
    });
    let a = server.open_session(SessionSpec::named("a")).unwrap();
    let _b = server.open_session(SessionSpec::named("b")).unwrap();
    let rej = server.open_session(SessionSpec::named("c")).unwrap_err();
    assert_eq!(rej.reason, RejectReason::SessionLimit);

    // Closing a session frees its registry slot.
    a.close();
    let c = server.open_session(SessionSpec::named("c")).unwrap();

    // Backpressure: gate the single worker on a channel, fill the
    // one-deep queue, and watch the next submission bounce.
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let gated = c.submit_task(move || gate_rx.recv().unwrap()).unwrap();
    while server.active_jobs() == 0 {
        std::thread::yield_now();
    }
    let queued = c.submit_task(|| 1u32).unwrap();
    assert_eq!(server.queue_depth(), 1);
    let rej = c.submit_task(|| 2u32).unwrap_err();
    assert_eq!(rej.reason, RejectReason::QueueFull);
    assert_eq!(c.stats().rejected_backpressure, 1);

    gate_tx.send(()).unwrap();
    assert!(matches!(gated.wait(), Outcome::Completed { .. }));
    assert!(matches!(queued.wait(), Outcome::Completed { value: 1, .. }));
    assert!(server.drain().leak_free());
}

#[test]
fn backpressure_never_consumes_the_half_open_probe() {
    // Regression pin: admission must check queue depth *before* the
    // breaker. On the old order, a quarantined session whose cooldown
    // had elapsed would have its half-open Probe admitted by the
    // breaker and then bounced by QueueFull — stranding the breaker in
    // HalfOpen with no probe in flight, i.e. permanent quarantine.
    let server = AnalysisServer::new(ServiceConfig {
        workers: 1,
        max_queue_depth: 1,
        breaker: BreakerConfig {
            trip_after: 1,
            cooldown: 0,
        },
        ..Default::default()
    });
    let victim = server
        .open_session(
            SessionSpec::named("victim")
                .with_budget(100)
                .with_fault(no_injection()),
        )
        .unwrap();
    let noisy = server
        .open_session(SessionSpec::named("noisy").with_fault(no_injection()))
        .unwrap();
    let heavy = compiled(KERNEL); // needs ≫ 100 instructions at n=500
    let light = compiled("double f(double x) { return x * 2.0; }");

    // One budget fault trips the victim's breaker (trip_after = 1);
    // with cooldown = 0 its very next submission is the probe.
    let o = victim
        .submit_run(heavy, vec![ArgValue::F(0.3), ArgValue::I(500)])
        .unwrap()
        .wait();
    assert!(matches!(o, Outcome::Faulted { .. }), "{o:?}");
    assert!(victim.quarantined());

    // Let the faulted job fully settle: its worker decrements `active`
    // only after the outcome is delivered, so wait for the pool to go
    // idle before gating it (otherwise the gate loop below could see
    // the *old* job's `active` count).
    while server.active_jobs() != 0 {
        std::thread::yield_now();
    }

    // Fill the queue: gate the single worker, then queue one more job.
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let gated = noisy.submit_task(move || gate_rx.recv().unwrap()).unwrap();
    while server.active_jobs() == 0 {
        std::thread::yield_now();
    }
    let queued = noisy.submit_task(|| ()).unwrap();
    assert_eq!(server.queue_depth(), 1);

    // The victim's submission bounces on backpressure — and must NOT
    // have consumed the breaker's probe.
    let rej = victim
        .submit_run(light.clone(), vec![ArgValue::F(1.0)])
        .unwrap_err();
    assert_eq!(rej.reason, RejectReason::QueueFull);

    // Drain the queue, then the probe is still available: the next
    // submission is admitted, completes, and closes the breaker. (On
    // the old order this submission — and every one after it — was
    // rejected with CircuitOpen forever.)
    gate_tx.send(()).unwrap();
    assert!(matches!(gated.wait(), Outcome::Completed { .. }));
    assert!(matches!(queued.wait(), Outcome::Completed { .. }));
    let o = victim
        .submit_run(light, vec![ArgValue::F(21.0)])
        .unwrap()
        .wait();
    assert!(matches!(o, Outcome::Completed { .. }), "{o:?}");
    assert!(!victim.quarantined());
    let stats = victim.stats();
    assert_eq!(stats.rejected_backpressure, 1);
    assert_eq!(stats.rejected_quarantine, 0);
    assert!(server.drain().leak_free());
}

#[test]
fn error_outcomes_are_breaker_neutral_and_an_error_probe_rearms() {
    let server = AnalysisServer::new(ServiceConfig {
        workers: 1,
        breaker: BreakerConfig {
            trip_after: 2,
            cooldown: 0,
        },
        ..Default::default()
    });
    let session = server
        .open_session(
            SessionSpec::named("mistaken")
                .with_budget(100)
                .with_fault(no_injection()),
        )
        .unwrap();
    let mut p = chef_ir::parser::parse_program(KERNEL).unwrap();
    chef_ir::typeck::check_program(&mut p).unwrap();
    let program = Arc::new(p);
    let mut cfg = chef_tuner::TunerConfig::with_threshold(1e-3);
    cfg.fault_plan = Some(no_injection());
    let args = vec![ArgValue::F(0.37), ArgValue::I(100)];
    let submit_bad_tune = || {
        session
            .submit_tune(
                Arc::clone(&program),
                "no_such_function".to_string(),
                args.clone(),
                cfg.clone(),
                chef_tuner::OracleTuneOptions::default(),
            )
            .unwrap()
            .wait()
    };

    // A client retrying a malformed request keeps seeing its own error,
    // never CircuitOpen: deterministic caller mistakes must not extend
    // the fault streak (trip_after = 2 would trip on the second one).
    for _ in 0..3 {
        let o = submit_bad_tune();
        assert!(matches!(o, Outcome::Error { .. }), "{o:?}");
        assert!(!session.quarantined());
    }
    assert_eq!(session.breaker_trips(), 0);

    // Trip the breaker with two real (budget) faults...
    let heavy = compiled(KERNEL);
    for _ in 0..2 {
        let o = session
            .submit_run(heavy.clone(), vec![ArgValue::F(0.3), ArgValue::I(500)])
            .unwrap()
            .wait();
        assert!(matches!(o, Outcome::Faulted { .. }), "{o:?}");
    }
    assert!(session.quarantined());
    assert_eq!(session.breaker_trips(), 1);

    // ...then let the half-open probe settle as an Error. That is no
    // verdict on session health: the breaker re-arms instead of closing
    // (the error proves nothing), re-opening (it is not a fault), or
    // stranding HalfOpen (the next submission must still be admitted).
    let o = submit_bad_tune();
    assert!(matches!(o, Outcome::Error { .. }), "{o:?}");
    let light = compiled("double f(double x) { return x * 2.0; }");
    let o = session
        .submit_run(light, vec![ArgValue::F(21.0)])
        .unwrap()
        .wait();
    assert!(matches!(o, Outcome::Completed { .. }), "{o:?}");
    assert!(!session.quarantined());
    assert_eq!(session.breaker_trips(), 1);
    assert_eq!(session.stats().errors, 4);
    assert!(server.drain().leak_free());
}

#[test]
fn shadow_and_tune_jobs_flow_through_sessions() {
    let server = AnalysisServer::new(ServiceConfig {
        workers: 2,
        ..Default::default()
    });
    let session = server
        .open_session(SessionSpec::named("tuneme").with_fault(no_injection()))
        .unwrap();

    // Shadow run: same kernel, f64 shadow — completes with a report
    // bit-identical to a direct shadow run.
    let func = compiled(KERNEL);
    let args = vec![ArgValue::F(0.37), ArgValue::I(100)];
    let o = session
        .submit_shadow(func.clone(), args.clone())
        .unwrap()
        .wait();
    let via_service = match o {
        Outcome::Completed { value, .. } => value,
        other => panic!("shadow job failed: {other:?}"),
    };
    let solo = run_shadow::<f64>(
        &func,
        args.clone(),
        &ExecOptions {
            fault: Some(no_injection()),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(via_service.ret_f().to_bits(), solo.ret_f().to_bits());

    // A whole tuning job through the session's bounded variant cache.
    let mut p = chef_ir::parser::parse_program(KERNEL).unwrap();
    chef_ir::typeck::check_program(&mut p).unwrap();
    let program = Arc::new(p);
    let mut cfg = chef_tuner::TunerConfig::with_threshold(1e-3);
    cfg.fault_plan = Some(no_injection());
    let o = session
        .submit_tune(
            program,
            "f".to_string(),
            args,
            cfg,
            chef_tuner::OracleTuneOptions::default(),
        )
        .unwrap()
        .wait();
    match o {
        Outcome::Completed { value, .. } => {
            assert!(value.measured_error.unwrap_or(0.0) <= 1e-3);
        }
        other => panic!("tune job failed: {other:?}"),
    }
    let report = server.drain();
    assert!(report.leak_free(), "outstanding: {report:?}");
}
