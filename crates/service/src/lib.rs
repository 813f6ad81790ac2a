//! # chef-service — resilient concurrent multi-session analysis server
//!
//! A long-lived, dependency-free front end over the CHEF-FP substrate:
//! many *sessions* (one per client/kernel-under-analysis) share a fixed
//! pool of worker threads draining one FIFO job queue, submitting plain
//! runs, shadow-oracle runs, batches and whole tuning jobs, and getting
//! typed outcomes back — never a panic, never a wedged worker.
//!
//! The robustness layer has four stages, applied in order:
//!
//! 1. **Admission control** ([`AnalysisServer::open_session`],
//!    [`SessionHandle::submit_run`] & friends): a bounded session
//!    registry ([`ServiceConfig::max_sessions`]), queue-depth
//!    backpressure ([`ServiceConfig::max_queue_depth`]) and the
//!    per-session circuit breaker all reject *at submission* with a
//!    typed [`Rejected`] (and a retry hint) instead of queueing work the
//!    server cannot honour.
//! 2. **Per-session budgets**: every job runs under the session's
//!    instruction budget (`max_instrs`) and cooperative wall-clock
//!    [`deadline`](chef_exec::vm::ExecOptions::deadline), both enforced
//!    by the VM at block granularity — an overrun is a typed trap with
//!    pc attribution, not a killed thread. The deadline is armed when
//!    each *attempt* starts executing (re-armed for the retry), so
//!    neither queue wait nor a failed first attempt eats a session's
//!    execution budget.
//! 3. **Fault isolation + circuit breaking**: a trap or panic in one
//!    job is caught at the job boundary, retried once (the two attempts
//!    run on consecutive pinned ordinals of the session's
//!    [`FaultPlan`], and a seeded plan fires at most every other
//!    ordinal, so the retry of an injected fault never fires, whatever
//!    other workers draw; see [`chef_exec::fault`]), and reported as an
//!    [`Outcome`]. Every run checks its machine out of chef-exec's
//!    process pools for the run alone, and a machine whose run panicked
//!    is discarded, never parked — a faulting session cannot corrupt a
//!    neighbour's state (pinned bit-identically by the isolation tests).
//!    Repeated faults trip the session's [`CircuitBreaker`],
//!    quarantining it at admission until a half-open probe succeeds.
//! 4. **Graceful drain** ([`AnalysisServer::drain`]): new work is
//!    rejected, queued-but-unstarted jobs are cancelled, in-flight jobs
//!    complete, and the [`DrainReport`] verifies that no job attempt of
//!    this server is still in flight. Every machine checkout happens
//!    inside one attempt, so `outstanding_checkouts == 0` is the
//!    leak-freedom proof.
//!
//! See `ARCHITECTURE.md` next to this crate for the full lifecycle and
//! failure-mode table.

use chef_core::prelude::ChefError;
use chef_exec::fault::FaultPlan;
use chef_exec::prelude::{
    ArgValue, CallOutcome, CompiledFunction, ExecOptions, ShadowOutcome, Trap, TrapKind,
};
use chef_exec::store::DiskStore;
use chef_ir::ast::Program;
use chef_tuner::{tune_with_oracle, OracleTuneOptions, TuneResult, TunerConfig, VariantCache};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

pub mod breaker;
mod scheduler;

pub use breaker::{Admission, BreakerConfig, CircuitBreaker};

// ------------------------------------------------------------------------
// Configuration
// ------------------------------------------------------------------------

/// Server-wide tuning. Every limit is enforced at admission time; see
/// the crate docs for the four-stage lifecycle.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads. Minimum 1.
    pub workers: usize,
    /// Maximum concurrently open sessions; `open_session` past this is
    /// rejected with [`RejectReason::SessionLimit`].
    pub max_sessions: usize,
    /// Maximum jobs queued (accepted, not yet started) across the
    /// server; submissions past this are rejected with
    /// [`RejectReason::QueueFull`].
    pub max_queue_depth: usize,
    /// Capacity of each session's compiled-variant cache (LRU past
    /// this; see [`chef_tuner::VariantCache`]).
    pub cache_capacity: usize,
    /// Per-session circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Directory of the persistent compiled-variant store shared by
    /// every session ([`chef_exec::store::DiskStore`]). `None` (the
    /// default) falls back to the process-wide `CHEF_CACHE_DIR` store,
    /// if any. With a store attached, a restarted server **warm-starts**:
    /// sessions resolve previously compiled variants by content hash
    /// with zero compile work, and [`AnalysisServer::drain`] flushes
    /// every session's pending write-backs before reporting.
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(2),
            max_sessions: 8,
            max_queue_depth: 64,
            cache_capacity: chef_tuner::DEFAULT_CACHE_CAPACITY,
            breaker: BreakerConfig::default(),
            cache_dir: None,
        }
    }
}

/// What a client declares when opening a session; admission prices the
/// session off these.
#[derive(Clone, Debug, Default)]
pub struct SessionSpec {
    /// Display name (used in reports and keyed telemetry).
    pub name: String,
    /// Instruction budget per job (block-granular; overruns trap with
    /// [`TrapKind::InstrBudgetExhausted`]). `None` = unlimited.
    pub max_instrs: Option<u64>,
    /// Wall-clock budget per execution attempt, armed when the attempt
    /// starts executing and re-armed for the retry (overruns trap with
    /// [`TrapKind::DeadlineExceeded`]). `None` = unlimited.
    pub deadline: Option<Duration>,
    /// Deterministic fault injection for this session's jobs. `None`
    /// falls back to the `CHEF_FAULT_SEED` environment plan (the CI
    /// soak matrix); an inert plan opts out explicitly.
    pub fault: Option<FaultPlan>,
}

impl SessionSpec {
    /// A spec with just a name and no limits.
    pub fn named(name: impl Into<String>) -> Self {
        SessionSpec {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Sets the per-job instruction budget (builder style).
    pub fn with_budget(mut self, max_instrs: u64) -> Self {
        self.max_instrs = Some(max_instrs);
        self
    }

    /// Sets the per-job wall-clock deadline (builder style).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the session's fault plan (builder style).
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }
}

// ------------------------------------------------------------------------
// Outcome types
// ------------------------------------------------------------------------

/// Why a submission (or session open) was refused at admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The server is draining; no new work is accepted.
    Draining,
    /// The session registry is full ([`ServiceConfig::max_sessions`]).
    SessionLimit,
    /// Queue-depth backpressure ([`ServiceConfig::max_queue_depth`]).
    QueueFull,
    /// The session's circuit breaker is open (quarantined).
    CircuitOpen,
}

/// A typed admission refusal. `retry_after` is a per-reason hint with
/// **pinned semantics** — every path that rejects with a given reason
/// produces the same shape (the `retry_after_semantics_per_reason` test
/// enforces this table):
///
/// * [`RejectReason::Draining`] → always `None`. The refusal is
///   permanent for this server's lifetime; no amount of waiting helps.
/// * [`RejectReason::SessionLimit`] → always `Some(n)`: at least `n`
///   open sessions must close before an `open_session` can succeed.
/// * [`RejectReason::QueueFull`] → always `Some(n)`: at least `n`
///   queued jobs must start (or be cancelled) before a submission fits
///   under [`ServiceConfig::max_queue_depth`].
/// * [`RejectReason::CircuitOpen`] → always `Some(n)`: the breaker will
///   reject `n` more submissions before admitting a half-open probe.
///
/// So `None` means exactly "retrying can never succeed", and `Some(n)`
/// is always a countdown in the rejecting resource's own units — never
/// wall-clock time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rejected {
    pub reason: RejectReason,
    pub retry_after: Option<u32>,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let unit = match self.reason {
            RejectReason::SessionLimit => "session closes",
            RejectReason::QueueFull => "queued jobs",
            _ => "submissions",
        };
        match self.retry_after {
            Some(n) => write!(f, "rejected: {:?} (retry after {n} {unit})", self.reason),
            None => write!(f, "rejected: {:?} (permanent)", self.reason),
        }
    }
}

/// The terminal state of one accepted job. Every variant is a value —
/// a session observes its own faults and nothing of its neighbours'.
#[derive(Debug)]
pub enum Outcome<T> {
    /// The job finished; `latency_ns` spans submission → completion
    /// (queue wait included), `retried` marks a fault recovered by the
    /// single retry.
    Completed {
        value: T,
        latency_ns: u64,
        retried: bool,
    },
    /// The job trapped (after the retry, if the first fault was
    /// retryable). Budget overruns land here with
    /// [`TrapKind::InstrBudgetExhausted`].
    Faulted { trap: Trap, retried: bool },
    /// The session's wall-clock deadline expired mid-run: a cooperative
    /// [`TrapKind::DeadlineExceeded`] trap with pc attribution.
    DeadlineExceeded { pc: usize, executed: u64 },
    /// The job panicked twice (or the worker was lost).
    Panicked { msg: String },
    /// The job was queued when [`AnalysisServer::drain`] began and was
    /// cancelled without running.
    Cancelled,
    /// A non-trap, non-panic error (compile failure, unknown function):
    /// deterministic caller mistakes, reported without retry and
    /// *without* breaker feedback — retrying a malformed program keeps
    /// surfacing this error, never `CircuitOpen`.
    Error { msg: String },
}

impl<T> Outcome<T> {
    /// The completed value, if any.
    pub fn completed(self) -> Option<T> {
        match self {
            Outcome::Completed { value, .. } => Some(value),
            _ => None,
        }
    }

    /// Stable label for stats/telemetry.
    pub fn kind(&self) -> &'static str {
        match self {
            Outcome::Completed { .. } => "completed",
            Outcome::Faulted { .. } => "faulted",
            Outcome::DeadlineExceeded { .. } => "deadline_exceeded",
            Outcome::Panicked { .. } => "panicked",
            Outcome::Cancelled => "cancelled",
            Outcome::Error { .. } => "error",
        }
    }
}

/// A claim on one accepted job's [`Outcome`].
pub struct Ticket<T> {
    rx: mpsc::Receiver<Outcome<T>>,
}

impl<T> std::fmt::Debug for Ticket<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Ticket(..)")
    }
}

impl<T> Ticket<T> {
    /// Blocks until the job reaches a terminal state. A lost worker
    /// (impossible under the scheduler's panic guard, but defended
    /// against) reads as a panic outcome, not a hang.
    pub fn wait(self) -> Outcome<T> {
        self.rx.recv().unwrap_or(Outcome::Panicked {
            msg: "worker lost before reporting an outcome".to_string(),
        })
    }
}

// ------------------------------------------------------------------------
// Session state & stats
// ------------------------------------------------------------------------

/// Cap on per-session latency samples retained for quantiles (the
/// telemetry histograms are unbounded-count; this exact-sample buffer is
/// for reports).
const MAX_LATENCY_SAMPLES: usize = 8192;

/// Counters for one session's lifetime, snapshot via
/// [`SessionHandle::stats`].
#[derive(Clone, Debug, Default)]
pub struct SessionStats {
    pub submitted: u64,
    pub completed: u64,
    /// Completions whose first attempt faulted and whose retry
    /// recovered.
    pub retried: u64,
    pub faulted: u64,
    pub deadline_exceeded: u64,
    pub panicked: u64,
    pub cancelled: u64,
    pub errors: u64,
    /// Submissions refused by queue-depth backpressure or draining.
    pub rejected_backpressure: u64,
    /// Submissions refused by the session's open circuit breaker.
    pub rejected_quarantine: u64,
    latencies_ns: Vec<u64>,
}

impl SessionStats {
    /// Exact (p50, p95, p99) over the retained completion latencies;
    /// `None` before the first completion.
    pub fn latency_quantiles(&self) -> Option<(u64, u64, u64)> {
        if self.latencies_ns.is_empty() {
            return None;
        }
        let mut v = self.latencies_ns.clone();
        v.sort_unstable();
        let q = |p: f64| v[((v.len() - 1) as f64 * p).round() as usize];
        Some((q(0.50), q(0.95), q(0.99)))
    }

    /// Jobs that reached a terminal state (everything but rejections).
    pub fn terminal(&self) -> u64 {
        self.completed
            + self.faulted
            + self.deadline_exceeded
            + self.panicked
            + self.cancelled
            + self.errors
    }
}

struct SessionState {
    id: u64,
    name: String,
    cache: VariantCache,
    breaker: CircuitBreaker,
    max_instrs: Option<u64>,
    deadline: Option<Duration>,
    fault: Option<FaultPlan>,
    stats: Mutex<SessionStats>,
}

impl SessionState {
    fn stats(&self) -> std::sync::MutexGuard<'_, SessionStats> {
        self.stats.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Base exec options for one execution attempt, deadline *armed now*
    /// (call this on the worker per attempt, not at submission).
    fn exec_options(&self) -> ExecOptions {
        ExecOptions {
            max_instrs: self.max_instrs,
            deadline: self.deadline.map(|d| Instant::now() + d),
            fault: self.fault.clone().or_else(chef_exec::fault::env_plan),
            ..Default::default()
        }
    }

    fn record_outcome<T>(&self, outcome: &Outcome<T>, latency_ns: u64) {
        let mut s = self.stats();
        match outcome {
            Outcome::Completed { retried, .. } => {
                s.completed += 1;
                if *retried {
                    s.retried += 1;
                }
                if s.latencies_ns.len() < MAX_LATENCY_SAMPLES {
                    s.latencies_ns.push(latency_ns);
                }
            }
            Outcome::Faulted { .. } => s.faulted += 1,
            Outcome::DeadlineExceeded { .. } => s.deadline_exceeded += 1,
            Outcome::Panicked { .. } => s.panicked += 1,
            Outcome::Cancelled => s.cancelled += 1,
            Outcome::Error { .. } => s.errors += 1,
        }
        drop(s);
        chef_telemetry::counter_keyed("service.outcome", outcome.kind()).inc();
        if matches!(outcome, Outcome::Completed { .. }) {
            chef_telemetry::histogram!("service.trial.ns").record(latency_ns);
        }
    }
}

// ------------------------------------------------------------------------
// Server
// ------------------------------------------------------------------------

struct ServerInner {
    cfg: ServiceConfig,
    sched: scheduler::Scheduler,
    /// Job attempts of this server in flight (see [`AttemptGuard`]).
    attempts: AtomicUsize,
    /// The persistent variant store every session's cache shares
    /// ([`ServiceConfig::cache_dir`], falling back to `CHEF_CACHE_DIR`);
    /// `None` = in-memory caches only.
    store: Option<Arc<DiskStore>>,
    sessions: Mutex<HashMap<u64, Arc<SessionState>>>,
    next_id: AtomicU64,
    draining: AtomicBool,
    /// Set at drain start: queued-but-unstarted jobs observe it and
    /// report [`Outcome::Cancelled`] instead of running.
    cancel_queued: AtomicBool,
}

impl ServerInner {
    fn sessions(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Arc<SessionState>>> {
        self.sessions.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Counts one job attempt as in flight on its server from creation
/// until drop — also when the attempt panics, since the unwind drops
/// it. Machines come from chef-exec's process pools, which every server
/// in the process shares, so the server counts its own attempts
/// instead: each checkout happens inside one, and zero attempts means
/// zero machines held for this server.
struct AttemptGuard<'a>(&'a AtomicUsize);

impl<'a> AttemptGuard<'a> {
    fn start(attempts: &'a AtomicUsize) -> Self {
        attempts.fetch_add(1, Ordering::SeqCst);
        AttemptGuard(attempts)
    }
}

impl Drop for AttemptGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The server. Dropping it drains the scheduler (queued jobs cancel,
/// in-flight jobs finish) and joins the workers.
pub struct AnalysisServer {
    inner: Arc<ServerInner>,
}

/// The result of a graceful drain. `leak_free()` is the property the
/// isolation tests (and the smoke gate) pin.
#[derive(Debug)]
pub struct DrainReport {
    /// Job attempts of this server still in flight after quiescence —
    /// and so machines still checked out for it; 0 on a clean drain.
    pub outstanding_checkouts: usize,
    /// Final per-session stats, by session name, open sessions first.
    pub sessions: Vec<(String, SessionStats)>,
}

impl DrainReport {
    /// Every attempt ended, so every machine it held went back to its
    /// pool.
    pub fn leak_free(&self) -> bool {
        self.outstanding_checkouts == 0
    }
}

impl AnalysisServer {
    pub fn new(cfg: ServiceConfig) -> Self {
        let workers = cfg.workers.max(1);
        // An unopenable cache_dir degrades to no disk tier — a server
        // must come up (and compile everything) rather than fail.
        let store = match &cfg.cache_dir {
            Some(dir) => DiskStore::open(dir).ok().map(Arc::new),
            None => DiskStore::from_env(),
        };
        let inner = Arc::new(ServerInner {
            sched: scheduler::Scheduler::new(workers),
            attempts: AtomicUsize::new(0),
            store,
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            draining: AtomicBool::new(false),
            cancel_queued: AtomicBool::new(false),
            cfg,
        });
        AnalysisServer { inner }
    }

    /// Jobs accepted but not yet started.
    pub fn queue_depth(&self) -> usize {
        self.inner.sched.queue_depth()
    }

    /// Jobs currently executing on a worker.
    pub fn active_jobs(&self) -> usize {
        self.inner.sched.active()
    }

    /// Opens a session, or rejects it (draining, or the registry is at
    /// [`ServiceConfig::max_sessions`]).
    pub fn open_session(&self, spec: SessionSpec) -> Result<SessionHandle, Rejected> {
        if self.inner.draining.load(Ordering::SeqCst) {
            return Err(Rejected {
                reason: RejectReason::Draining,
                retry_after: None,
            });
        }
        let mut sessions = self.inner.sessions();
        if sessions.len() >= self.inner.cfg.max_sessions {
            chef_telemetry::counter!("service.rejected.session_limit").inc();
            // Hint: how many sessions must close before an open fits
            // (≥ 1; see the `Rejected` semantics table).
            let excess = (sessions.len() + 1).saturating_sub(self.inner.cfg.max_sessions);
            return Err(Rejected {
                reason: RejectReason::SessionLimit,
                retry_after: Some(excess as u32),
            });
        }
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let st = Arc::new(SessionState {
            id,
            name: if spec.name.is_empty() {
                format!("session-{id}")
            } else {
                spec.name
            },
            cache: {
                // Warm start: every session shares the server's store, so
                // a variant any session (or a previous process) compiled
                // is a content-hash disk hit for all of them.
                let cache = VariantCache::with_capacity(self.inner.cfg.cache_capacity);
                match &self.inner.store {
                    Some(store) => cache.with_store(Arc::clone(store)),
                    None => cache.without_store(),
                }
            },
            breaker: CircuitBreaker::new(self.inner.cfg.breaker),
            max_instrs: spec.max_instrs,
            deadline: spec.deadline,
            fault: spec.fault,
            stats: Mutex::new(SessionStats::default()),
        });
        sessions.insert(id, Arc::clone(&st));
        chef_telemetry::counter!("service.sessions.opened").inc();
        Ok(SessionHandle {
            inner: Arc::clone(&self.inner),
            st,
        })
    }

    /// Job attempts of this server currently in flight: an upper bound
    /// on the machines checked out for it, since every checkout happens
    /// inside one attempt.
    pub fn outstanding_checkouts(&self) -> usize {
        self.inner.attempts.load(Ordering::SeqCst)
    }

    /// The persistent variant store sessions share, if one is attached.
    pub fn disk_store(&self) -> Option<&Arc<DiskStore>> {
        self.inner.store.as_ref()
    }

    /// Graceful drain: stop admitting, cancel queued-but-unstarted
    /// jobs, let in-flight jobs complete, flush every session's pending
    /// variant write-backs to the shared disk store, then report.
    /// Idempotent; the server stays alive (for inspection) but rejects
    /// all new work.
    pub fn drain(&self) -> DrainReport {
        self.inner.draining.store(true, Ordering::SeqCst);
        self.inner.cancel_queued.store(true, Ordering::SeqCst);
        self.inner.sched.quiesce();
        chef_telemetry::counter!("service.drains").inc();
        // After quiescence no job is compiling, so this flush captures
        // everything the sessions ever enqueued: the next process
        // warm-starts from a complete store.
        for s in self.inner.sessions().values() {
            s.cache.flush_disk();
        }
        let sessions: Vec<(String, SessionStats)> = self
            .inner
            .sessions()
            .values()
            .map(|s| (s.name.clone(), s.stats().clone()))
            .collect();
        let outstanding = self.outstanding_checkouts();
        chef_telemetry::gauge!("service.drain.outstanding").set(outstanding as f64);
        DrainReport {
            outstanding_checkouts: outstanding,
            sessions,
        }
    }
}

impl Drop for AnalysisServer {
    fn drop(&mut self) {
        self.inner.draining.store(true, Ordering::SeqCst);
        self.inner.cancel_queued.store(true, Ordering::SeqCst);
        self.inner.sched.shutdown();
    }
}

// ------------------------------------------------------------------------
// Session handle & job submission
// ------------------------------------------------------------------------

/// A fault the job wrapper classifies.
enum JobFault {
    Trap(Trap),
    /// A caught panic, with its payload's text.
    Panic(String),
    Error(String),
}

/// A client's handle to one open session. Cloneable; all clones submit
/// into the same budgets, breaker and stats.
#[derive(Clone)]
pub struct SessionHandle {
    inner: Arc<ServerInner>,
    st: Arc<SessionState>,
}

impl std::fmt::Debug for SessionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionHandle")
            .field("name", &self.st.name)
            .finish_non_exhaustive()
    }
}

impl SessionHandle {
    /// The session's (possibly generated) display name.
    pub fn name(&self) -> &str {
        &self.st.name
    }

    /// Snapshot of the session's counters.
    pub fn stats(&self) -> SessionStats {
        self.st.stats().clone()
    }

    /// `true` while the circuit breaker is rejecting this session.
    pub fn quarantined(&self) -> bool {
        self.st.breaker.is_quarantining()
    }

    /// Times this session's breaker has tripped.
    pub fn breaker_trips(&self) -> u64 {
        self.st.breaker.times_opened()
    }

    /// Closes the session: removes it from the registry (freeing a
    /// [`ServiceConfig::max_sessions`] slot). Jobs already accepted
    /// still complete; their tickets stay valid.
    pub fn close(self) {
        self.inner.sessions().remove(&self.st.id);
        chef_telemetry::counter!("service.sessions.closed").inc();
    }

    /// One plain-VM run of `func` on `args`.
    pub fn submit_run(
        &self,
        func: Arc<CompiledFunction>,
        args: Vec<ArgValue>,
    ) -> Result<Ticket<CallOutcome>, Rejected> {
        self.submit_job(true, move |opts: &ExecOptions| {
            chef_exec::vm::run_with(&func, args.clone(), opts).map_err(JobFault::Trap)
        })
    }

    /// One batch of runs of `func`, run on one thread inside the job:
    /// the scheduler's workers are the service's parallelism.
    /// Per-argument-set traps are *data* in the completed value (they
    /// don't fault the job or feed the breaker) — a batch is the
    /// caller's own sweep.
    pub fn submit_batch(
        &self,
        func: Arc<CompiledFunction>,
        arg_sets: Vec<Vec<ArgValue>>,
    ) -> Result<Ticket<Vec<Result<CallOutcome, Trap>>>, Rejected> {
        self.submit_job(false, move |opts: &ExecOptions| {
            Ok(chef_exec::vm::run_batch_parallel(
                &func,
                arg_sets.clone(),
                opts,
                Some(1),
            ))
        })
    }

    /// One fused primal+shadow run (f64 shadow) of `func` on `args`.
    pub fn submit_shadow(
        &self,
        func: Arc<CompiledFunction>,
        args: Vec<ArgValue>,
    ) -> Result<Ticket<ShadowOutcome>, Rejected> {
        self.submit_job(true, move |opts: &ExecOptions| {
            chef_exec::shadow::run_shadow::<f64>(&func, args.clone(), opts).map_err(JobFault::Trap)
        })
    }

    /// A whole oracle-tuning job through the session's bounded variant
    /// cache. The session's budget/deadline/fault plan override
    /// `opts.oracle.exec` — the session owns execution policy, the
    /// caller owns tuning policy. Not retried at the service level: the
    /// tuner's own per-trial retry/quarantine layer already isolates
    /// faults, so an error surfacing here is persistent. A trial that
    /// overruns the session deadline ends the job as
    /// [`Outcome::DeadlineExceeded`].
    pub fn submit_tune(
        &self,
        program: Arc<Program>,
        func: String,
        args: Vec<ArgValue>,
        cfg: TunerConfig,
        opts: OracleTuneOptions,
    ) -> Result<Ticket<TuneResult>, Rejected> {
        let st = Arc::clone(&self.st);
        self.submit_job(false, move |exec: &ExecOptions| {
            let opts = OracleTuneOptions {
                oracle: chef_shadow::OracleOptions {
                    exec: exec.clone(),
                    ..opts.oracle.clone()
                },
                ..opts.clone()
            };
            tune_with_oracle(&program, &func, &args, &cfg, &opts, &st.cache).map_err(|e| match e {
                ChefError::Trap(t) => JobFault::Trap(t),
                other => JobFault::Error(other.to_string()),
            })
        })
    }

    /// An arbitrary closure as a job: same admission, panic isolation,
    /// breaker feedback and stats as kernel runs, but **no VM budget or
    /// deadline enforcement** — the closure is trusted to terminate.
    /// The escape hatch for custom analyses (and for tests that need a
    /// job they can gate externally). Never retried.
    pub fn submit_task<T: Send + 'static>(
        &self,
        task: impl FnOnce() -> T + Send + 'static,
    ) -> Result<Ticket<T>, Rejected> {
        let mut task = Some(task);
        self.submit_job(false, move |_opts: &ExecOptions| {
            Ok((task.take().expect("tasks run at most once"))())
        })
    }

    /// Admission gate: draining → queue depth → breaker, in that order.
    /// The breaker is consulted **last** so that a submission it admits
    /// (in particular a half-open `Probe`, which transitions breaker
    /// state) is guaranteed to be enqueued — a probe bounced by
    /// backpressure after `breaker.admit()` would strand the breaker in
    /// HalfOpen with no probe in flight, quarantining the session
    /// permanently.
    fn admit(&self) -> Result<Admission, Rejected> {
        if self.inner.draining.load(Ordering::SeqCst) {
            self.st.stats().rejected_backpressure += 1;
            chef_telemetry::counter!("service.rejected.draining").inc();
            return Err(Rejected {
                reason: RejectReason::Draining,
                retry_after: None,
            });
        }
        let depth = self.inner.sched.queue_depth();
        if depth >= self.inner.cfg.max_queue_depth {
            self.st.stats().rejected_backpressure += 1;
            chef_telemetry::counter!("service.rejected.backpressure").inc();
            // Hint: how many queued jobs must start before a submission
            // fits (≥ 1; see the `Rejected` semantics table).
            let excess = (depth + 1).saturating_sub(self.inner.cfg.max_queue_depth);
            return Err(Rejected {
                reason: RejectReason::QueueFull,
                retry_after: Some(excess as u32),
            });
        }
        let admission = self.st.breaker.admit();
        if let Admission::Reject { retry_after } = admission {
            self.st.stats().rejected_quarantine += 1;
            chef_telemetry::counter!("service.rejected.quarantine").inc();
            return Err(Rejected {
                reason: RejectReason::CircuitOpen,
                retry_after: Some(retry_after),
            });
        }
        Ok(admission)
    }

    /// The shared job wrapper: admission, then a closure that runs on a
    /// worker under the session's exec options, with panic catching,
    /// classification, a single retry for retryable faults,
    /// stats/telemetry recording and breaker feedback. Each attempt is
    /// counted in flight by an [`AttemptGuard`].
    fn submit_job<T: Send + 'static>(
        &self,
        retryable: bool,
        mut attempt: impl FnMut(&ExecOptions) -> Result<T, JobFault> + Send + 'static,
    ) -> Result<Ticket<T>, Rejected> {
        let is_probe = self.admit()? == Admission::Probe;
        self.st.stats().submitted += 1;
        chef_telemetry::counter!("service.submitted").inc();
        let (tx, rx) = mpsc::channel();
        let st = Arc::clone(&self.st);
        let inner = Arc::clone(&self.inner);
        let submitted_at = Instant::now();
        self.inner.sched.submit(Box::new(move || {
            if inner.cancel_queued.load(Ordering::SeqCst) {
                // A cancelled probe gives the breaker no verdict; re-arm
                // it so the session is not stranded in HalfOpen.
                if is_probe {
                    st.breaker.on_probe_inconclusive();
                }
                let outcome = Outcome::Cancelled;
                st.record_outcome(&outcome, 0);
                let _ = tx.send(outcome);
                return;
            }
            // A retryable job's attempts run pinned (see
            // `chef_exec::fault`): the first on the ordinal it reserves
            // here, the retry on the next one, so a seeded plan never
            // fires on the retry, whatever other workers draw meanwhile.
            let pinned = retryable
                .then(|| st.exec_options().fault.map(|p| p.pin_trial()))
                .flatten();
            // Exec options are rebuilt (and the deadline re-armed) per
            // attempt, so a retried fault gets the session's full wall
            // budget instead of whatever the failed attempt left over.
            let mut run_once = |retry: bool| {
                let mut opts = st.exec_options();
                if let Some(p) = &pinned {
                    opts.fault = Some(if retry { p.retry() } else { p.clone() });
                }
                catch_unwind(AssertUnwindSafe(|| {
                    let _in_flight = AttemptGuard::start(&inner.attempts);
                    attempt(&opts)
                }))
                .unwrap_or_else(|payload| Err(JobFault::Panic(panic_text(payload.as_ref()))))
            };
            let settle = |result: Result<T, JobFault>, retried: bool| match result {
                Ok(value) => Outcome::Completed {
                    value,
                    latency_ns: submitted_at.elapsed().as_nanos() as u64,
                    retried,
                },
                Err(JobFault::Trap(trap)) => match trap.kind {
                    TrapKind::DeadlineExceeded { executed } => Outcome::DeadlineExceeded {
                        pc: trap.pc,
                        executed,
                    },
                    _ => Outcome::Faulted { trap, retried },
                },
                Err(JobFault::Panic(msg)) => Outcome::Panicked {
                    msg: format!("panic: {msg}"),
                },
                Err(JobFault::Error(msg)) => Outcome::Error { msg },
            };
            let outcome = match run_once(false) {
                // Traps and panics are retried once; deadline overruns and
                // deterministic errors are not: the budget is spent / the
                // error will repeat.
                Err(JobFault::Trap(t))
                    if retryable && !matches!(t.kind, TrapKind::DeadlineExceeded { .. }) =>
                {
                    settle(run_once(true), true)
                }
                Err(JobFault::Panic(_)) if retryable => settle(run_once(true), true),
                first => settle(first, false),
            };
            match &outcome {
                Outcome::Completed { .. } => st.breaker.on_success(),
                Outcome::Faulted { .. }
                | Outcome::DeadlineExceeded { .. }
                | Outcome::Panicked { .. } => st.breaker.on_fault(),
                // Neutral outcomes: a cancellation or a deterministic
                // caller mistake (compile failure, unknown function) says
                // nothing about session health — retrying a malformed
                // program must surface the real error, not CircuitOpen.
                // If this job was the half-open probe, re-arm the breaker
                // so the next submission probes again.
                Outcome::Cancelled | Outcome::Error { .. } => {
                    if is_probe {
                        st.breaker.on_probe_inconclusive();
                    }
                }
            }
            st.record_outcome(&outcome, submitted_at.elapsed().as_nanos() as u64);
            let _ = tx.send(outcome);
        }));
        Ok(Ticket { rx })
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).to_string();
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    "opaque payload".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chef_exec::fault::FaultKind;
    use std::panic::resume_unwind;

    /// A job's retry runs with the plan pinned to the job, so an ordinal
    /// another worker draws between its two attempts cannot make the
    /// retry fire: here one extra draw lands in between, which would
    /// hand an unpinned retry the next firing ordinal of a period-2 plan.
    #[test]
    fn a_job_retry_never_fires_whatever_other_workers_draw() {
        let mut p =
            chef_ir::parser::parse_program("double f(double a) { return a * 3.0; }").unwrap();
        chef_ir::typeck::check_program(&mut p).unwrap();
        let func = Arc::new(chef_exec::compile::compile_default(&p.functions[0]).unwrap());
        for kind in [FaultKind::Trap, FaultKind::Panic] {
            let plan = FaultPlan::new(Some(kind), 2, 0, 1);
            let server = AnalysisServer::new(ServiceConfig {
                workers: 1,
                ..Default::default()
            });
            let session = server
                .open_session(SessionSpec::named("pinned").with_fault(plan.clone()))
                .unwrap();
            let func = Arc::clone(&func);
            let mut attempts = 0;
            let ticket = session
                .submit_job(true, move |opts: &ExecOptions| {
                    attempts += 1;
                    let out = catch_unwind(AssertUnwindSafe(|| {
                        chef_exec::vm::run_with(&func, vec![ArgValue::F(0.5)], opts)
                    }));
                    if attempts == 1 {
                        plan.draw();
                    }
                    match out {
                        Ok(r) => r.map_err(JobFault::Trap),
                        Err(payload) => resume_unwind(payload),
                    }
                })
                .unwrap();
            let outcome = ticket.wait();
            assert!(
                matches!(outcome, Outcome::Completed { retried: true, .. }),
                "{kind:?}: {outcome:?}"
            );
        }
    }
}
