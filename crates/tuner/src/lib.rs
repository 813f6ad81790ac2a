//! # chef-tuner — mixed-precision tuning on CHEF-FP estimates
//!
//! Implements the workflow of the paper's §III: analyze the sensitivity of
//! every variable with the ADAPT demotion model (eq. 2), then **greedily
//! demote the least-error variables** while the accumulated estimate stays
//! under the user threshold — "a mixed precision configuration is reached
//! when the accumulated error meets the threshold value". The chosen
//! configuration is validated by actually running the demoted program and
//! comparing against the full-precision result (paper Table I's
//! actual-vs-estimated columns).
//!
//! Two additions on top of the estimate-driven loop:
//!
//! * **Compiled-variant cache** ([`VariantCache`]): the greedy loop, the
//!   single-demotion sweep and repeated validations compile overlapping
//!   `PrecisionMap`s; a cache keyed by content hash (canonical source +
//!   options — [`chef_exec::store::content_key`]) shares the
//!   compilations and counts its hits (exposed on
//!   [`TuneResult::cache_hits`]), with an optional `CHEF_CACHE_DIR`
//!   disk tier that makes variants survive the process.
//! * **Oracle mode** ([`validate_with_oracle`], [`tune_with_oracle`]):
//!   instead of estimating, each candidate configuration is *measured* by
//!   the `chef-shadow` fused shadow pass — ground-truth output error in
//!   one run — and the greedy order can be re-ranked by the measured
//!   per-variable attribution.
//! * **Per-trial fault isolation** ([`FaultSummary`]): every trial (a
//!   greedy candidate, a validation config, the baseline, the estimation
//!   pass) is run under `catch_unwind`; a trap, a panic, or a non-finite
//!   measurement is retried once — escalating the instruction budget
//!   proportionally after `InstrBudgetExhausted`, but never past
//!   [`ESCALATION_CAP`] × the admitted budget — and a second fault
//!   quarantines that trial instead of aborting the tune.
//!   [`TuneResult::faults`] reports the counts; deterministic fault
//!   injection (explicit [`TunerConfig::fault_plan`] or the
//!   `CHEF_FAULT_SEED` environment toggle) exercises the whole layer.

use chef_core::prelude::*;
use chef_exec::arena::{MachineArena, ShadowMachineArena};
use chef_exec::compile::{compile, CompileError, CompileOptions, PrecisionMap};
use chef_exec::prelude::*;
use chef_ir::ast::{Function, Program, VarId};
use chef_ir::types::{FloatTy, Type};
use chef_shadow::{OracleOptions, ShadowReport};
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Tuning configuration.
#[derive(Clone, Debug)]
pub struct TunerConfig {
    /// Maximum admissible estimated error.
    pub threshold: f64,
    /// Demotion target precision.
    pub target: FloatTy,
    /// Restrict demotion to these variables (`None` = all float variables).
    pub candidates: Option<Vec<String>>,
    /// Array parameter → length parameter pairings for input error terms.
    pub array_lens: HashMap<String, String>,
    /// Deterministic fault injection for every run this tuning session
    /// performs (see [`chef_exec::fault::FaultPlan`]). `None` falls back
    /// to the `CHEF_FAULT_SEED` / `CHEF_FAULT_KIND` environment plan, so
    /// the whole pipeline can be fault-tested without touching call
    /// sites; unset env leaves execution untouched.
    pub fault_plan: Option<FaultPlan>,
}

impl TunerConfig {
    /// A threshold-only configuration demoting to `float`.
    pub fn with_threshold(threshold: f64) -> Self {
        TunerConfig {
            threshold,
            target: FloatTy::F32,
            candidates: None,
            array_lens: HashMap::new(),
            fault_plan: None,
        }
    }

    /// Registers an array-length pairing (builder style).
    pub fn with_array_len(mut self, array: impl Into<String>, len: impl Into<String>) -> Self {
        self.array_lens.insert(array.into(), len.into());
        self
    }
}

/// The tuner's decision.
#[derive(Clone, Debug)]
pub struct TuneResult {
    /// Variables chosen for demotion (selection order).
    pub demoted: Vec<String>,
    /// Accumulated estimate of the chosen set.
    pub estimated_error: f64,
    /// Every variable's estimated demotion error, ascending.
    pub per_variable: Vec<(String, f64)>,
    /// The precision map to compile the tuned variant with (keyed by the
    /// variable ids of the *inlined* function).
    pub config: PrecisionMap,
    /// The full-precision result on the profiling inputs.
    pub baseline_value: f64,
    /// Oracle-measured output error of the chosen configuration (only
    /// set by [`tune_with_oracle`]). For a trial admitted under
    /// [`DivergencePolicy::TwoRunValidate`] this is the two-run
    /// validation error, not the (untrusted) shadow measurement. `None`
    /// from [`tune_with_oracle`] when no trial was admitted *and* the
    /// empty starting configuration's own probe diverged (DD mode):
    /// nothing was measured on a trusted trace, and a two-run
    /// validation of the unchanged program would be vacuously zero.
    pub measured_error: Option<f64>,
    /// Compiled-variant cache hits observed during this tuning run (0
    /// when no cache was involved).
    pub cache_hits: u64,
    /// Greedy trials whose oracle run observed a primal-vs-shadow
    /// control-flow split and were therefore handled by the
    /// [`DivergencePolicy`] instead of the one-pass measurement (0 for
    /// estimate-only [`tune`]).
    pub divergent_trials: u64,
    /// Per-trial faults (traps, panics, non-finite measurements) the run
    /// isolated — injected or genuine. Every counted event was contained
    /// to one trial and retried; it either recovered or quarantined that
    /// trial, instead of aborting the tune.
    pub faults: FaultSummary,
}

/// Measured quality of a configuration.
#[derive(Clone, Debug)]
pub struct ValidationReport {
    /// Full-precision result.
    pub baseline: f64,
    /// Result under the demoted configuration.
    pub demoted: f64,
    /// `|baseline − demoted|`.
    pub actual_error: f64,
}

// ------------------------------------------------------------------------
// Per-trial fault isolation
// ------------------------------------------------------------------------

/// Counts of the per-trial faults a tuning or validation run isolated.
///
/// A *trial* is one configuration's compile + run (a greedy candidate, a
/// validation config, the baseline, the estimation pass). A *fault* is a
/// runtime trap, a panic, or a non-finite measured value. Every fault is
/// retried once — with a proportionally escalated instruction budget
/// when the trap was [`TrapKind::InstrBudgetExhausted`] — and the trial
/// is quarantined (dropped from consideration, never admitted) if the
/// retry faults again. Counters increment once per faulting attempt, so
/// a quarantined trial contributes two events.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Attempts that trapped (budget, div-by-zero, OOB, injected, …).
    pub trapped: u64,
    /// Attempts that panicked (caught at the trial boundary).
    pub panicked: u64,
    /// Attempts whose measured value came back NaN/±Inf.
    pub nonfinite: u64,
    /// Retries performed (one per first-attempt fault).
    pub retried: u64,
    /// Trials whose retry completed cleanly.
    pub recovered: u64,
    /// Trials that faulted twice and were quarantined.
    pub quarantined: u64,
    /// Human-readable per-fault notes, capped at
    /// [`FaultSummary::MAX_DETAILS`] (the counters are never capped).
    pub details: Vec<String>,
}

impl FaultSummary {
    /// Cap on [`FaultSummary::details`] entries.
    pub const MAX_DETAILS: usize = 32;

    /// Total fault events (attempts that trapped, panicked, or measured
    /// non-finite).
    pub fn total(&self) -> u64 {
        self.trapped + self.panicked + self.nonfinite
    }

    /// `true` when no trial faulted.
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }

    /// Accumulates another run's counts (details kept up to the cap).
    pub fn merge(&mut self, other: &FaultSummary) {
        self.trapped += other.trapped;
        self.panicked += other.panicked;
        self.nonfinite += other.nonfinite;
        self.retried += other.retried;
        self.recovered += other.recovered;
        self.quarantined += other.quarantined;
        for d in &other.details {
            self.note(d.clone());
        }
    }

    fn note(&mut self, msg: String) {
        if self.details.len() < Self::MAX_DETAILS {
            self.details.push(msg);
        }
    }

    fn bump(&mut self, fault: &Fault) {
        // The registry mirrors every event the public counters see
        // (`bump` only runs at `run_trial`'s fault sites, never on
        // result-side `merge`), so `tuner.faults.*` is a process-wide
        // view over the same ground truth as `TuneResult::faults`.
        match fault {
            // A non-finite *trap* is still a non-finite event: an
            // injected NaN arms `trap_on_nonfinite` for its run, so it
            // surfaces here instead of as a raw measurement.
            Fault::Trap(t) if matches!(t.kind, TrapKind::NonFinite { .. }) => {
                self.nonfinite += 1;
                chef_telemetry::counter!("tuner.faults.nonfinite").inc();
            }
            Fault::Trap(_) => {
                self.trapped += 1;
                chef_telemetry::counter!("tuner.faults.trapped").inc();
            }
            Fault::Panic { .. } => {
                self.panicked += 1;
                chef_telemetry::counter!("tuner.faults.panicked").inc();
            }
            Fault::NonFinite(_) => {
                self.nonfinite += 1;
                chef_telemetry::counter!("tuner.faults.nonfinite").inc();
            }
        }
    }
}

/// Shared, thread-safe fault accumulator (trials run on scoped threads).
/// Recovers from poisoning: a panicking trial is itself a recorded
/// event, not a reason to lose the log.
#[derive(Default)]
struct FaultLog(Mutex<FaultSummary>);

impl FaultLog {
    fn with(&self, f: impl FnOnce(&mut FaultSummary)) {
        f(&mut self.0.lock().unwrap_or_else(|p| p.into_inner()));
    }

    fn into_summary(self) -> FaultSummary {
        self.0.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

/// One faulting attempt, classified.
enum Fault {
    Trap(Trap),
    Panic {
        payload: Box<dyn std::any::Any + Send>,
        msg: String,
    },
    NonFinite(f64),
}

impl Fault {
    fn describe(&self) -> String {
        match self {
            Fault::Trap(t) => format!("trap: {t}"),
            Fault::Panic { msg, .. } => format!("panic: {msg}"),
            Fault::NonFinite(v) => format!("non-finite measurement ({v})"),
        }
    }
}

/// What [`run_trial`] resolved a trial to.
enum TrialOutcome<T> {
    /// Completed cleanly (possibly after one retry).
    Done(T),
    /// Faulted twice: quarantined, with the second fault and — when the
    /// run itself completed but measured non-finite — its value.
    Faulted(Fault, Option<T>),
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// `exec` with its instruction budget raised to at least `floor` (a
/// retry after [`TrapKind::InstrBudgetExhausted`] escalates
/// proportionally to the count the trap carried). An unlimited budget
/// stays unlimited.
fn with_budget_floor(exec: &ExecOptions, floor: Option<u64>) -> ExecOptions {
    match floor {
        None => exec.clone(),
        Some(fl) => ExecOptions {
            max_instrs: exec.max_instrs.map(|b| b.max(fl)),
            ..exec.clone()
        },
    }
}

/// Hard ceiling on the [`TrapKind::InstrBudgetExhausted`] retry
/// escalation, as a multiple of the admission-time budget: a retry may
/// run with at most `ESCALATION_CAP ×` the budget the trial was admitted
/// with. Block-granular accounting lets a pathological kernel (one huge
/// straight-line block) overshoot its budget by an arbitrary factor, and
/// an uncapped "double the executed count" retry would then ratchet the
/// session far past what admission priced — the cap bounds a trial's
/// worst-case spend at `(1 + ESCALATION_CAP) ×` the admitted budget.
pub const ESCALATION_CAP: u64 = 2;

/// Runs one trial with fault isolation: a trap, a panic, or (when
/// `value_of` yields the trial's measurement) a non-finite value is
/// recorded in `log` and retried once; a second fault quarantines the
/// trial. Non-fault errors (compile, unknown function, …) propagate
/// unchanged — they are deterministic caller mistakes, not per-trial
/// weather. `attempt` receives the retry's instruction-budget floor,
/// escalated from the trap's executed count but never past
/// [`ESCALATION_CAP`] × `admitted` (the trial's admission-time
/// `max_instrs`).
fn run_trial<T>(
    log: &FaultLog,
    what: &dyn Fn() -> String,
    admitted: Option<u64>,
    attempt: &mut dyn FnMut(Option<u64>) -> Result<T, ChefError>,
    value_of: &dyn Fn(&T) -> Option<f64>,
) -> Result<TrialOutcome<T>, ChefError> {
    let _span = chef_telemetry::span("trial");
    let mut once = |floor: Option<u64>| -> Result<Result<T, (Fault, Option<T>)>, ChefError> {
        match catch_unwind(AssertUnwindSafe(|| attempt(floor))) {
            Ok(Ok(v)) => match value_of(&v) {
                Some(x) if !x.is_finite() => Ok(Err((Fault::NonFinite(x), Some(v)))),
                _ => Ok(Ok(v)),
            },
            Ok(Err(ChefError::Trap(t))) => Ok(Err((Fault::Trap(t), None))),
            Ok(Err(e)) => Err(e),
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                Ok(Err((Fault::Panic { payload, msg }, None)))
            }
        }
    };
    let (first, _) = match once(None)? {
        Ok(v) => return Ok(TrialOutcome::Done(v)),
        Err(f) => f,
    };
    let floor = match &first {
        Fault::Trap(t) => match t.kind {
            TrapKind::InstrBudgetExhausted { executed } => {
                let escalated = executed.saturating_mul(2);
                let cap = admitted.map(|b| b.saturating_mul(ESCALATION_CAP));
                Some(cap.map_or(escalated, |c| escalated.min(c)))
            }
            _ => None,
        },
        _ => None,
    };
    chef_telemetry::counter!("tuner.faults.retried").inc();
    log.with(|s| {
        s.bump(&first);
        s.retried += 1;
    });
    match once(floor)? {
        Ok(v) => {
            chef_telemetry::counter!("tuner.faults.recovered").inc();
            log.with(|s| {
                s.recovered += 1;
                s.note(format!(
                    "{}: {} — retried, recovered",
                    what(),
                    first.describe()
                ));
            });
            Ok(TrialOutcome::Done(v))
        }
        Err((second, v)) => {
            chef_telemetry::counter!("tuner.faults.quarantined").inc();
            log.with(|s| {
                s.bump(&second);
                s.quarantined += 1;
                s.note(format!(
                    "{}: {}; {} on retry — quarantined",
                    what(),
                    first.describe(),
                    second.describe()
                ));
            });
            Ok(TrialOutcome::Faulted(second, v))
        }
    }
}

/// Unwraps a trial whose value is the deliverable (validation runs, the
/// estimation pass): a persistently non-finite value is genuine data —
/// the program really computes it, and the caller reports it — while a
/// persistent trap or panic propagates exactly as it did before the
/// fault layer existed.
fn accept_or_propagate<T>(outcome: TrialOutcome<T>) -> Result<T, ChefError> {
    match outcome {
        TrialOutcome::Done(v) => Ok(v),
        TrialOutcome::Faulted(Fault::NonFinite(_), v) => {
            Ok(v.expect("a non-finite fault carries its value"))
        }
        TrialOutcome::Faulted(Fault::Trap(t), _) => Err(ChefError::Trap(t)),
        TrialOutcome::Faulted(Fault::Panic { payload, .. }, _) => resume_unwind(payload),
    }
}

/// The fault plan in effect for a session: an explicit plan wins,
/// otherwise the `CHEF_FAULT_SEED` environment plan (if set) applies.
fn resolved_fault(explicit: Option<&FaultPlan>) -> Option<FaultPlan> {
    explicit.cloned().or_else(chef_exec::fault::env_plan)
}

// ------------------------------------------------------------------------
// Compiled-variant cache
// ------------------------------------------------------------------------

/// The one cache key, in memory and on disk: the 128-bit content hash
/// of the variant's canonical source + compile options
/// ([`chef_exec::store::content_key`]). The previous key —
/// `(function name, sorted demotion entries)` — silently collided the
/// moment a cache outlived one program: two different programs sharing
/// a function name (and demotion set) would cross-hit and execute each
/// other's bytecode. Content addressing makes that structurally
/// impossible; the `same_name_different_program` regression test pins
/// it.
type VariantKey = ContentKey;

/// How many pending disk write-backs accumulate before they are flushed
/// inline. Small enough that a crashed process loses little work, large
/// enough that a greedy sweep isn't paying one fsync per candidate.
const WRITE_BACK_BATCH: usize = 8;

/// A cache of compiled mixed-precision variants keyed by content hash
/// ([`ContentKey`] — canonical source + options, never the function
/// name), bundled with the session's machine arenas.
///
/// The greedy loops and sweeps recompile overlapping `PrecisionMap`s —
/// the empty baseline on every validation call, the accepted
/// configuration of each greedy step, the single-demotion configs shared
/// between [`sweep_single_demotions`] and [`tune_with_oracle`]'s first
/// round. Shareable across calls (interior mutability; `Sync`) and —
/// because keys are content hashes — safely shareable across *programs*
/// and sessions.
///
/// Compiling hundreds of variants is only half the cost — each one also
/// runs. The embedded [`MachineArena`]s let every run of every variant
/// (plain validation and both shadow-oracle modes) share one set of
/// register-file/tape allocations, sized to the session maximum.
///
/// The table is **bounded**: past [`VariantCache::capacity`] entries, the
/// least-recently-used variant is evicted (counted in
/// [`VariantCache::evictions`] and the `tuner.cache.evictions` metric).
/// A long-lived server session sweeping many functions through one cache
/// therefore holds at most `capacity` compiled bodies, not an unbounded
/// history. The default capacity (512) is far above any single tune's
/// working set, so short sessions never evict and their hit/miss counts
/// are exact compile-savings figures.
///
/// ## Disk tier
///
/// Behind the bounded in-memory table sits an optional
/// [`chef_exec::store::DiskStore`] (enabled process-wide by
/// `CHEF_CACHE_DIR`, or per cache via [`VariantCache::with_store`]). A
/// memory miss probes the store first: a hit is decoded, revalidated
/// through `validate_function`, inserted into the memory tier, and
/// marked with a zero-length `compile.skipped` span — no
/// `compile`/`fuse`/`pack` work happens at all. A genuine miss compiles
/// and *enqueues* the variant for write-back; pending write-backs flush
/// every `WRITE_BACK_BATCH` compilations, on [`VariantCache::flush_disk`]
/// (the server's drain calls this), and on drop. [`VariantCache::misses`]
/// keeps meaning "compilations actually performed" — a disk hit is
/// neither a memory hit nor a miss; the store's own
/// `cache.disk.{hits,misses,writes,corrupt}` counters tell the disk
/// story.
pub struct VariantCache {
    inner: Mutex<HashMap<VariantKey, CachedVariant>>,
    capacity: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    disk: Option<Arc<DiskStore>>,
    pending: Mutex<Vec<(ContentKey, Arc<CompiledFunction>)>>,
    arena: MachineArena,
    shadow64: ShadowMachineArena<f64>,
    shadow_dd: ShadowMachineArena<chef_shadow::DD>,
}

struct CachedVariant {
    func: Arc<CompiledFunction>,
    last_used: u64,
}

/// Default [`VariantCache`] capacity: generous enough that a single
/// tuning session (hundreds of variants at most) never evicts.
pub const DEFAULT_CACHE_CAPACITY: usize = 512;

impl Default for VariantCache {
    fn default() -> Self {
        VariantCache::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl VariantCache {
    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        VariantCache::default()
    }

    /// An empty cache holding at most `capacity` compiled variants
    /// (minimum 1). Smaller capacities trade recompilation for memory —
    /// useful for servers admitting many concurrent sessions.
    pub fn with_capacity(capacity: usize) -> Self {
        VariantCache {
            inner: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            disk: DiskStore::from_env(),
            pending: Mutex::new(Vec::new()),
            arena: MachineArena::new(),
            shadow64: ShadowMachineArena::new(),
            shadow_dd: ShadowMachineArena::new(),
        }
    }

    /// Attaches an explicit disk tier (builder style), replacing the
    /// `CHEF_CACHE_DIR` default. The `AnalysisServer` uses this so all
    /// of its sessions share one configured store; tests use it to get
    /// a hermetic store regardless of the environment.
    pub fn with_store(mut self, store: Arc<DiskStore>) -> Self {
        self.disk = Some(store);
        self
    }

    /// Removes the disk tier (builder style): a purely in-memory cache
    /// even when `CHEF_CACHE_DIR` is set.
    pub fn without_store(mut self) -> Self {
        self.disk = None;
        self
    }

    /// The attached disk store, if any.
    pub fn store(&self) -> Option<&Arc<DiskStore>> {
        self.disk.as_ref()
    }

    /// Maximum number of compiled variants retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The session's plain-VM machine arena.
    pub fn arena(&self) -> &MachineArena {
        &self.arena
    }

    /// The session's `f64`-shadow machine arena.
    pub fn shadow64(&self) -> &ShadowMachineArena<f64> {
        &self.shadow64
    }

    /// The session's double-double-shadow machine arena.
    pub fn shadow_dd(&self) -> &ShadowMachineArena<chef_shadow::DD> {
        &self.shadow_dd
    }

    /// Number of cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of compilations performed (cache misses).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of variants evicted to stay within capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// The variant table, recovering from mutex poisoning: a panicking
    /// trial (injected or genuine) may die between lock and unlock, but
    /// the table's invariant — a map of fully-compiled variants — holds
    /// at every await-free point inside the critical sections, so the
    /// poisoned state is always a valid cache.
    fn table(&self) -> std::sync::MutexGuard<'_, HashMap<VariantKey, CachedVariant>> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The next use-clock stamp. Relaxed is fine: the clock only orders
    /// evictions, and an occasionally stale ordering evicts a
    /// near-equally-old entry — never a correctness issue.
    fn stamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Number of cached variants.
    pub fn len(&self) -> usize {
        self.table().len()
    }

    /// `true` when nothing has been compiled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the compiled variant of `primal` under `pm`: memory tier,
    /// then disk tier (decode + revalidate, zero compilation), then a
    /// real compile (outside the lock; a racing miss keeps the first
    /// inserted variant) with a deferred disk write-back.
    pub fn get_or_compile(
        &self,
        primal: &Function,
        pm: &PrecisionMap,
    ) -> Result<Arc<CompiledFunction>, CompileError> {
        let opts = CompileOptions {
            precisions: pm.clone(),
            ..Default::default()
        };
        let key = content_key(primal, &opts);
        if let Some(hit) = self.table().get_mut(&key) {
            hit.last_used = self.stamp();
            self.hits.fetch_add(1, Ordering::Relaxed);
            chef_telemetry::counter!("tuner.cache.hits").inc();
            return Ok(hit.func.clone());
        }
        if let Some(store) = &self.disk {
            if let Some(func) = store.load(&key) {
                // A zero-length span marking a compilation the disk tier
                // made unnecessary — the warm-start signal `repro --smoke`
                // and the cache-reuse CI job assert on.
                drop(chef_telemetry::span("compile.skipped"));
                return Ok(self.insert(key, Arc::new(func)));
            }
        }
        let compiled = Arc::new(compile(primal, &opts)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        chef_telemetry::counter!("tuner.cache.misses").inc();
        if self.disk.is_some() {
            self.enqueue_write_back(key, compiled.clone());
        }
        Ok(self.insert(key, compiled))
    }

    /// Inserts `func` under `key` with a fresh use stamp (a racing
    /// insert keeps the incumbent) and evicts past capacity. Returns
    /// the variant now cached under `key`.
    fn insert(&self, key: VariantKey, func: Arc<CompiledFunction>) -> Arc<CompiledFunction> {
        let now = self.stamp();
        let mut table = self.table();
        // A racing miss may have inserted first; either way the variant
        // at `key` was just used, so it carries the fresh stamp — which
        // also shields it from the eviction scan below.
        let entry = table.entry(key).or_insert(CachedVariant {
            func,
            last_used: now,
        });
        entry.last_used = now;
        let func = entry.func.clone();
        while table.len() > self.capacity {
            let victim = table
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("non-empty past capacity");
            table.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            chef_telemetry::counter!("tuner.cache.evictions").inc();
        }
        func
    }

    /// Queues a freshly compiled variant for disk write-back, flushing
    /// inline once [`WRITE_BACK_BATCH`] are pending. The queue (not a
    /// synchronous write per compile) keeps the greedy loop's critical
    /// path free of fsyncs; durability hooks are [`flush_disk`], the
    /// server's drain, and [`Drop`].
    ///
    /// [`flush_disk`]: VariantCache::flush_disk
    fn enqueue_write_back(&self, key: ContentKey, func: Arc<CompiledFunction>) {
        let mut pending = self.pending.lock().unwrap_or_else(|p| p.into_inner());
        pending.push((key, func));
        if pending.len() >= WRITE_BACK_BATCH {
            let batch = std::mem::take(&mut *pending);
            drop(pending);
            self.write_back(batch);
        }
    }

    /// Flushes all pending disk write-backs; returns how many entries
    /// were written. A no-op without a disk tier (the queue is only fed
    /// when one is attached).
    pub fn flush_disk(&self) -> usize {
        let batch = {
            let mut pending = self.pending.lock().unwrap_or_else(|p| p.into_inner());
            std::mem::take(&mut *pending)
        };
        self.write_back(batch)
    }

    fn write_back(&self, batch: Vec<(ContentKey, Arc<CompiledFunction>)>) -> usize {
        let Some(store) = &self.disk else { return 0 };
        batch
            .iter()
            .filter(|(key, func)| store.store(key, func))
            .count()
    }
}

impl Drop for VariantCache {
    /// Best-effort durability: whatever the write-back queue still
    /// holds goes to disk when the cache (session) ends.
    fn drop(&mut self) {
        self.flush_disk();
    }
}

// ------------------------------------------------------------------------
// Estimate-driven tuning (paper §III)
// ------------------------------------------------------------------------

/// The combined demotion model the tuner estimates with: representation
/// error (eq. 2) plus, for computed variables, the extra arithmetic
/// rounding at the lower precision (eq. 1 with the target epsilon).
struct TunerModel {
    adapt: AdaptModel,
    taylor: TaylorModel,
}

impl ErrorModel for TunerModel {
    fn name(&self) -> &'static str {
        "tuner"
    }
    fn assign_error(&mut self, ctx: &ModelCtx<'_>) -> Option<chef_ir::ast::Expr> {
        match (self.adapt.assign_error(ctx), self.taylor.assign_error(ctx)) {
            (Some(a), Some(b)) => Some(chef_ir::ast::Expr::add(a, b)),
            (a, b) => a.or(b),
        }
    }
    fn input_error(
        &mut self,
        name: &str,
        value: &chef_ir::ast::Expr,
        adjoint: &chef_ir::ast::Expr,
        prec: FloatTy,
    ) -> Option<chef_ir::ast::Expr> {
        self.adapt.input_error(name, value, adjoint, prec)
    }
}

fn candidate_filter<'a>(cfg: &'a TunerConfig) -> impl Fn(&str) -> bool + 'a {
    move |name: &str| match &cfg.candidates {
        Some(c) => c.iter().any(|n| n == name),
        None => true,
    }
}

/// What one estimation pass yields: every candidate variable's
/// estimated demotion error (ascending), the full-precision result, and
/// the inlined program (so callers don't inline a second time).
type EstimateRanking = (Vec<(String, f64)>, f64, Program);

/// Runs the estimation pass once (see [`EstimateRanking`]). The
/// estimator's execution is one fault-isolated trial: a trap or panic is
/// retried once before propagating, and an injected fault (explicit plan
/// or `CHEF_FAULT_SEED`) is recovered without disturbing the ranking.
fn estimate_ranking(
    program: &Program,
    func: &str,
    args: &[ArgValue],
    cfg: &TunerConfig,
    log: &FaultLog,
) -> Result<EstimateRanking, ChefError> {
    let opts = EstimateOptions {
        array_lens: cfg.array_lens.clone(),
        ..Default::default()
    };
    let exec = ExecOptions {
        fault: resolved_fault(cfg.fault_plan.as_ref()),
        ..opts.exec.clone()
    };
    // Demoting a variable costs its representation error (eq. 2) *plus*,
    // for computed variables, the extra arithmetic rounding of the
    // operations now performed at the lower precision (eq. 1 with the
    // target epsilon). Inputs carry representation error only — they are
    // not computed, so a value that happens to be exactly representable
    // (the paper's quantized k-Means attributes) is free to demote.
    let mut model = TunerModel {
        adapt: AdaptModel::to(cfg.target),
        taylor: TaylorModel::for_demotion(cfg.target),
    };
    let est = estimate_error_with(program, func, &mut model, &opts)?;
    let out = accept_or_propagate(run_trial(
        log,
        &|| format!("estimate `{func}`"),
        exec.max_instrs,
        &mut |floor| {
            est.execute_with(args, &with_budget_floor(&exec, floor))
                .map_err(ChefError::Trap)
        },
        &|out: &EstimateOutcome| Some(out.value),
    )?)?;

    let inlined = chef_passes::inline_program(program).map_err(ChefError::Inline)?;
    let primal = inlined
        .function(func)
        .ok_or_else(|| ChefError::UnknownFunction(func.to_string()))?;
    let allowed = candidate_filter(cfg);
    let mut per_variable: Vec<(String, f64)> = primal
        .vars_iter()
        .filter(|(_, v)| v.ty.is_differentiable() && allowed(&v.name))
        .map(|(_, v)| (v.name.clone(), out.error_of(&v.name)))
        .collect();
    per_variable.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    Ok((per_variable, out.value, inlined))
}

/// Builds the `PrecisionMap` demoting `names` in the inlined `primal`.
fn config_for(primal: &Function, names: &[String], target: FloatTy) -> PrecisionMap {
    let mut config = PrecisionMap::empty();
    for (id, v) in primal.vars_iter() {
        if names.contains(&v.name) {
            if let Type::Float(_) | Type::Array(chef_ir::types::ElemTy::Float(_)) = v.ty {
                config.set(id, target);
            }
        }
    }
    config
}

/// Analyzes `func` on representative `args` and greedily selects a
/// demotion set under `cfg.threshold`.
pub fn tune(
    program: &Program,
    func: &str,
    args: &[ArgValue],
    cfg: &TunerConfig,
) -> Result<TuneResult, ChefError> {
    let log = FaultLog::default();
    let (per_variable, baseline_value, inlined) = estimate_ranking(program, func, args, cfg, &log)?;

    // Greedy selection under the threshold.
    let mut demoted = Vec::new();
    let mut acc = 0.0;
    for (name, err) in &per_variable {
        if acc + err <= cfg.threshold {
            acc += err;
            demoted.push(name.clone());
        }
    }
    let primal = inlined
        .function(func)
        .ok_or_else(|| ChefError::UnknownFunction(func.to_string()))?;
    let config = config_for(primal, &demoted, cfg.target);
    Ok(TuneResult {
        demoted,
        estimated_error: acc,
        per_variable,
        config,
        baseline_value,
        measured_error: None,
        cache_hits: 0,
        divergent_trials: 0,
        faults: log.into_summary(),
    })
}

// ------------------------------------------------------------------------
// Validation (two-run and oracle)
// ------------------------------------------------------------------------

/// Runs `func` at full precision and under `config`, reporting the actual
/// output difference.
pub fn validate(
    program: &Program,
    func: &str,
    args: &[ArgValue],
    config: &PrecisionMap,
) -> Result<ValidationReport, ChefError> {
    validate_configs(program, func, args, std::slice::from_ref(config)).map(|mut v| v.remove(0))
}

/// Validates many candidate configurations against one full-precision
/// baseline run: each config is compiled and executed on its own thread
/// (scoped; the batch is embarrassingly parallel), results in input
/// order. This is the tuner's candidate-evaluation fast path — wall-clock
/// scales with the slowest candidate instead of the sum.
pub fn validate_configs(
    program: &Program,
    func: &str,
    args: &[ArgValue],
    configs: &[PrecisionMap],
) -> Result<Vec<ValidationReport>, ChefError> {
    validate_configs_with(program, func, args, configs, None)
}

/// [`validate_configs`] with an optional shared [`VariantCache`]: the
/// baseline and every candidate compilation go through the cache, so
/// repeated validations of overlapping configurations compile each
/// variant once.
pub fn validate_configs_with(
    program: &Program,
    func: &str,
    args: &[ArgValue],
    configs: &[PrecisionMap],
    cache: Option<&VariantCache>,
) -> Result<Vec<ValidationReport>, ChefError> {
    let log = FaultLog::default();
    validate_configs_impl(program, func, args, configs, cache, None, &log)
}

/// The fault-isolated body of [`validate_configs_with`]: each config
/// (and the baseline) is one trial — a trap or a panic is retried once
/// before propagating, so a transient or injected fault never discards
/// the batch, while a deterministic failure still errors as it always
/// did. A persistently non-finite result is data (the demoted program
/// really overflows) and is reported, after one retry absorbs any
/// injected NaN.
fn validate_configs_impl(
    program: &Program,
    func: &str,
    args: &[ArgValue],
    configs: &[PrecisionMap],
    cache: Option<&VariantCache>,
    fault: Option<&FaultPlan>,
    log: &FaultLog,
) -> Result<Vec<ValidationReport>, ChefError> {
    let _span = chef_telemetry::span("validate");
    let inlined = chef_passes::inline_program(program).map_err(ChefError::Inline)?;
    let primal = inlined
        .function(func)
        .ok_or_else(|| ChefError::UnknownFunction(func.to_string()))?;
    let exec = ExecOptions {
        fault: resolved_fault(fault),
        ..Default::default()
    };
    let compile_cfg = |pm: &PrecisionMap| -> Result<Arc<CompiledFunction>, ChefError> {
        match cache {
            Some(c) => c.get_or_compile(primal, pm).map_err(ChefError::Compile),
            None => compile(
                primal,
                &CompileOptions {
                    precisions: pm.clone(),
                    ..Default::default()
                },
            )
            .map(Arc::new)
            .map_err(ChefError::Compile),
        }
    };
    let run_cfg = |pm: &PrecisionMap, what: &dyn Fn() -> String| -> Result<f64, ChefError> {
        accept_or_propagate(run_trial(
            log,
            what,
            exec.max_instrs,
            &mut |floor| {
                let c = compile_cfg(pm)?;
                let e = with_budget_floor(&exec, floor);
                let out = match cache {
                    // Shared session: draw a pooled machine so every
                    // variant run in the session reuses the same buffers.
                    // A panicking run drops the guard mid-unwind and the
                    // arena discards the machine (see `chef_exec::arena`).
                    Some(cache) => cache.arena().checkout().run_reused(&c, args.to_vec(), &e),
                    None => chef_exec::vm::run_with(&c, args.to_vec(), &e),
                };
                out.map(|o| o.ret_f()).map_err(ChefError::Trap)
            },
            &|v: &f64| Some(*v),
        )?)
    };
    let baseline = run_cfg(&PrecisionMap::empty(), &|| format!("baseline `{func}`"))?;

    chef_exec::par::parallel_map(configs.iter().enumerate().collect(), None, |(i, pm)| {
        run_cfg(pm, &|| format!("validate `{func}` config #{i}")).map(|demoted| ValidationReport {
            baseline,
            demoted,
            actual_error: (baseline - demoted).abs(),
        })
    })
    .into_iter()
    .collect()
}

/// Measures `config` with the shadow-execution oracle: one fused pass
/// yields the ground-truth output error *and* the per-instruction /
/// per-variable attribution, instead of the demoted-vs-baseline pair of
/// [`validate`].
pub fn validate_with_oracle(
    program: &Program,
    func: &str,
    args: &[ArgValue],
    config: &PrecisionMap,
    opts: &OracleOptions,
) -> Result<ShadowReport, ChefError> {
    chef_shadow::shadow_run(program, func, args, config, opts)
}

/// The paper's Table III study, generalized: demote each candidate
/// variable **on its own** and measure the actual output error, with the
/// candidates evaluated in parallel. Returns `(variable, report)` pairs
/// in candidate order.
pub fn sweep_single_demotions(
    program: &Program,
    func: &str,
    args: &[ArgValue],
    cfg: &TunerConfig,
) -> Result<Vec<(String, ValidationReport)>, ChefError> {
    sweep_single_demotions_with(program, func, args, cfg, None)
}

/// [`sweep_single_demotions`] through an optional shared [`VariantCache`]
/// (the single-variable configs are exactly the first greedy round of
/// [`tune_with_oracle`], so a shared cache de-duplicates those
/// compilations).
pub fn sweep_single_demotions_with(
    program: &Program,
    func: &str,
    args: &[ArgValue],
    cfg: &TunerConfig,
    cache: Option<&VariantCache>,
) -> Result<Vec<(String, ValidationReport)>, ChefError> {
    let inlined = chef_passes::inline_program(program).map_err(ChefError::Inline)?;
    let primal = inlined
        .function(func)
        .ok_or_else(|| ChefError::UnknownFunction(func.to_string()))?;
    let allowed = candidate_filter(cfg);
    let mut names = Vec::new();
    let mut configs = Vec::new();
    for (id, v) in primal.vars_iter() {
        if v.ty.is_differentiable() && allowed(&v.name) {
            names.push(v.name.clone());
            configs.push(PrecisionMap::empty().with(id, cfg.target));
        }
    }
    let log = FaultLog::default();
    let reports = validate_configs_impl(
        program,
        func,
        args,
        &configs,
        cache,
        cfg.fault_plan.as_ref(),
        &log,
    )?;
    Ok(names.into_iter().zip(reports).collect())
}

// ------------------------------------------------------------------------
// Oracle-guided tuning
// ------------------------------------------------------------------------

/// How [`tune_with_oracle`] treats a trial configuration whose oracle
/// run observed a primal-vs-shadow control-flow split
/// ([`ShadowReport::diverged`]). A divergent run measured the error
/// along a trace the high-precision program would not have taken, so its
/// one-pass number is exactly as untrustworthy as the configuration is
/// interesting — it must not drive admission directly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DivergencePolicy {
    /// Re-measure the divergent trial with the classic two-run
    /// validation (baseline run vs demoted run, both plain) and decide
    /// admission on that ground truth; the shadow number is discarded.
    /// This is the default — divergent configurations are re-ranked by
    /// two-run validation, not silently admitted or dropped.
    #[default]
    TwoRunValidate,
    /// Never admit a divergent configuration, whatever its error.
    Reject,
}

/// Options for [`tune_with_oracle`].
#[derive(Clone, Debug, Default)]
pub struct OracleTuneOptions {
    /// Shadow mode and VM options for the oracle runs.
    pub oracle: OracleOptions,
    /// Re-rank the greedy order by the *measured* per-variable
    /// attribution of an all-candidates-demoted shadow run (instead of
    /// the estimated order). Variables the measurement cannot separate
    /// keep their estimate order. Skipped (estimate order kept) when the
    /// all-candidates probe itself diverges: a divergent run's
    /// attribution describes the wrong trace.
    pub rerank_by_measured: bool,
    /// Treatment of divergent trial configurations.
    pub divergence_policy: DivergencePolicy,
}

impl OracleTuneOptions {
    /// Oracle tuning with measured re-ranking enabled.
    pub fn reranked() -> Self {
        OracleTuneOptions {
            rerank_by_measured: true,
            ..Default::default()
        }
    }
}

/// Greedy tuning against the shadow oracle: candidates are ranked by
/// estimate (optionally re-ranked by measured attribution), then added
/// one by one — each trial configuration compiled through `cache` and
/// **measured** by a fused shadow pass — while the measured output error
/// stays under `cfg.threshold`.
///
/// Unlike [`tune`], the returned configuration satisfies the threshold by
/// measurement ([`TuneResult::measured_error`]), not by estimate; the
/// estimate fields are still filled for comparison, and
/// [`TuneResult::cache_hits`] exposes the compilations the cache saved.
pub fn tune_with_oracle(
    program: &Program,
    func: &str,
    args: &[ArgValue],
    cfg: &TunerConfig,
    opts: &OracleTuneOptions,
    cache: &VariantCache,
) -> Result<TuneResult, ChefError> {
    let hits_before = cache.hits();
    let log = FaultLog::default();
    let (per_variable, baseline_value, inlined) = estimate_ranking(program, func, args, cfg, &log)?;
    let primal = inlined
        .function(func)
        .ok_or_else(|| ChefError::UnknownFunction(func.to_string()))?;

    // Exec options for every run of this session, with the fault plan
    // resolved (explicit oracle options > config plan > environment).
    let exec = ExecOptions {
        fault: opts
            .oracle
            .exec
            .fault
            .clone()
            .or_else(|| resolved_fault(cfg.fault_plan.as_ref())),
        ..opts.oracle.exec.clone()
    };

    // One pooled shadow machine per mode for the whole greedy loop —
    // drawn from the session cache's arenas, so the different compiled
    // variants (and any other tuning run sharing the cache) reuse the
    // same buffers. A panic mid-run leaves the machine stale, which is
    // fine: `run_reused` fully re-initializes it on the next call.
    let mut m64 = cache.shadow64().checkout();
    let mut mdd = cache.shadow_dd().checkout();
    let mut measure = |names: &[String], floor: Option<u64>| -> Result<ShadowReport, ChefError> {
        let _span = chef_telemetry::span("oracle_run");
        let pm = config_for(primal, names, cfg.target);
        let compiled = cache
            .get_or_compile(primal, &pm)
            .map_err(ChefError::Compile)?;
        let e = with_budget_floor(&exec, floor);
        let out = match opts.oracle.mode {
            chef_shadow::ShadowMode::F64 => m64.run_reused(&compiled, args.to_vec(), &e),
            chef_shadow::ShadowMode::DD => mdd.run_reused(&compiled, args.to_vec(), &e),
        }
        .map_err(ChefError::Trap)?;
        chef_shadow::report_from_outcome(&compiled, out)
    };
    // Every oracle measurement is a fault-isolated trial; a trial that
    // faults twice is quarantined (`None`) — never admitted, never
    // aborting the tune — and a non-finite measured error counts as a
    // fault, so a demoted config that overflows cannot poison the greedy
    // comparisons.
    let mut measure_isolated = |names: &[String]| -> Result<Option<ShadowReport>, ChefError> {
        let outcome = run_trial(
            &log,
            &|| format!("oracle trial `{func}` [{}]", names.join(", ")),
            exec.max_instrs,
            &mut |floor| measure(names, floor),
            &|rep: &ShadowReport| Some(rep.output_error),
        )?;
        Ok(match outcome {
            TrialOutcome::Done(rep) => Some(rep),
            TrialOutcome::Faulted(..) => None,
        })
    };

    // Two-run fallback for divergent trials: both sides run plain (no
    // shadow) through the cache and its machine arena. The baseline is
    // computed once, on first need.
    let mut baseline_run: Option<f64> = None;
    let run_plain = |pm: &PrecisionMap, what: &dyn Fn() -> String| -> Result<f64, ChefError> {
        accept_or_propagate(run_trial(
            &log,
            what,
            exec.max_instrs,
            &mut |floor| {
                let compiled = cache
                    .get_or_compile(primal, pm)
                    .map_err(ChefError::Compile)?;
                cache
                    .arena()
                    .checkout()
                    .run_reused(&compiled, args.to_vec(), &with_budget_floor(&exec, floor))
                    .map(|o| o.ret_f())
                    .map_err(ChefError::Trap)
            },
            &|v: &f64| Some(*v),
        )?)
    };
    let mut divergent_trials = 0u64;

    // Greedy order: estimated ascending, optionally re-ranked by the
    // measured attribution of one all-candidates shadow run.
    let mut order: Vec<(String, f64)> = per_variable.clone();
    if opts.rerank_by_measured && !order.is_empty() {
        let all: Vec<String> = order.iter().map(|(n, _)| n.clone()).collect();
        // A divergent (or quarantined) probe's attribution describes the
        // wrong trace — or no trace at all: keep the estimate order
        // instead of ranking by it.
        if let Some(rep) = measure_isolated(&all)? {
            if !rep.diverged() {
                // Stable sort: equal measured attributions keep the
                // estimate order.
                order.sort_by(|a, b| rep.error_of(&a.0).total_cmp(&rep.error_of(&b.0)));
            }
        }
    }

    // Measure the starting (empty) configuration rather than assuming
    // zero: in DD mode even the undemoted program has measurable error,
    // and `measured_error` must describe the *returned* configuration.
    // If that probe itself diverges (the undemoted program's own f64
    // rounding flips a branch against the DD shadow) there is no trusted
    // number for the empty config at all — a two-run validation of the
    // unchanged program is vacuously zero — so the result stays
    // unmeasured (`None`) unless a later trial is admitted.
    // A quarantined starting probe likewise leaves the empty config
    // unmeasured rather than failing the whole tune.
    let mut measured: Option<f64> = match measure_isolated(&[])? {
        Some(start) if start.diverged() => {
            divergent_trials += 1;
            chef_telemetry::counter!("tuner.trials.divergent").inc();
            None
        }
        Some(start) => Some(start.output_error),
        None => None,
    };

    // The trusted error of one trial: the one-pass oracle measurement
    // when the run was divergence-free, the policy's answer otherwise
    // (`None` = the trial may not be admitted — divergent-and-rejected
    // or quarantined by the fault layer).
    let mut trusted_error = |names: &[String],
                             baseline_run: &mut Option<f64>,
                             divergent_trials: &mut u64|
     -> Result<Option<f64>, ChefError> {
        let Some(rep) = measure_isolated(names)? else {
            return Ok(None);
        };
        if !rep.diverged() {
            return Ok(Some(rep.output_error));
        }
        *divergent_trials += 1;
        chef_telemetry::counter!("tuner.trials.divergent").inc();
        match opts.divergence_policy {
            DivergencePolicy::Reject => Ok(None),
            DivergencePolicy::TwoRunValidate => {
                let base = match *baseline_run {
                    Some(b) => b,
                    None => {
                        let b =
                            run_plain(&PrecisionMap::empty(), &|| format!("baseline `{func}`"))?;
                        *baseline_run = Some(b);
                        b
                    }
                };
                let demoted = run_plain(&config_for(primal, names, cfg.target), &|| {
                    format!("two-run trial `{func}` [{}]", names.join(", "))
                })?;
                Ok(Some((base - demoted).abs()))
            }
        }
    };

    let mut chosen: Vec<String> = Vec::new();
    let mut estimated = 0.0;
    for (name, est) in &order {
        let mut trial = chosen.clone();
        trial.push(name.clone());
        let Some(err) = trusted_error(&trial, &mut baseline_run, &mut divergent_trials)? else {
            continue; // divergent + Reject policy
        };
        if err <= cfg.threshold {
            chosen = trial;
            estimated += est;
            measured = Some(err);
        }
    }
    let config = config_for(primal, &chosen, cfg.target);
    Ok(TuneResult {
        demoted: chosen,
        estimated_error: estimated,
        per_variable,
        config,
        baseline_value,
        measured_error: measured,
        cache_hits: cache.hits() - hits_before,
        divergent_trials,
        faults: log.into_summary(),
    })
}

/// Finds the `VarId`s (in the inlined function) for a set of variable
/// names — convenience for building manual configurations (Table III's
/// one-variable-at-a-time study).
pub fn ids_of(program: &Program, func: &str, names: &[&str]) -> Result<Vec<VarId>, ChefError> {
    let inlined = chef_passes::inline_program(program).map_err(ChefError::Inline)?;
    let primal = inlined
        .function(func)
        .ok_or_else(|| ChefError::UnknownFunction(func.to_string()))?;
    Ok(primal
        .vars_iter()
        .filter(|(_, v)| names.contains(&v.name.as_str()))
        .map(|(id, _)| id)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program(src: &str) -> Program {
        let mut p = chef_ir::parser::parse_program(src).unwrap();
        chef_ir::typeck::check_program(&mut p).unwrap();
        p
    }

    #[test]
    fn demotes_low_sensitivity_variables_first() {
        // `noise` barely affects the result; `core` dominates it.
        let src = "double f(double a) {
            double noise = a * 1e-9;
            double core = a * 1000.0;
            double r = core * core + noise;
            return r;
        }";
        let p = program(src);
        let cfg = TunerConfig::with_threshold(1e-4);
        let res = tune(&p, "f", &[ArgValue::F(1.2345678901)], &cfg).unwrap();
        assert!(
            res.demoted.contains(&"noise".to_string()),
            "{:?}",
            res.demoted
        );
        assert!(
            !res.demoted.contains(&"core".to_string()),
            "{:?}",
            res.demoted
        );
        assert!(res.estimated_error <= 1e-4);
    }

    #[test]
    fn zero_threshold_demotes_only_zero_error_vars() {
        let src = "double f(double a) { double b = a * 3.0; return b; }";
        let p = program(src);
        let cfg = TunerConfig::with_threshold(0.0);
        let res = tune(&p, "f", &[ArgValue::F(0.1)], &cfg).unwrap();
        // 0.1*3 is not f32-exact: nothing demotable at zero threshold.
        assert!(res.demoted.is_empty(), "{:?}", res.demoted);
    }

    #[test]
    fn validation_confirms_threshold() {
        let src = "double f(double a, int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) { s += sin(a + i * 0.1); }
            return s;
        }";
        let p = program(src);
        let args = vec![ArgValue::F(0.37), ArgValue::I(100)];
        let cfg = TunerConfig::with_threshold(1e-4);
        let res = tune(&p, "f", &args, &cfg).unwrap();
        let report = validate(&p, "f", &args, &res.config).unwrap();
        assert!(
            report.actual_error <= 1e-4,
            "actual {} exceeds threshold; demoted {:?}",
            report.actual_error,
            res.demoted
        );
    }

    #[test]
    fn candidates_restriction_is_respected() {
        let src = "double f(double a) {
            double u = a + 0.125;
            double w = a * 7.0;
            return u * w;
        }";
        let p = program(src);
        let mut cfg = TunerConfig::with_threshold(1.0);
        cfg.candidates = Some(vec!["u".into()]);
        let res = tune(&p, "f", &[ArgValue::F(0.5)], &cfg).unwrap();
        assert_eq!(res.demoted, vec!["u".to_string()]);
    }

    #[test]
    fn validate_configs_matches_serial_validate() {
        let src = "double f(double a, int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) { s += sin(a + i * 0.1) * 0.5; }
            return s;
        }";
        let p = program(src);
        let args = vec![ArgValue::F(0.41), ArgValue::I(200)];
        let ids = ids_of(&p, "f", &["s", "a"]).unwrap();
        let configs: Vec<PrecisionMap> = ids
            .iter()
            .map(|&id| PrecisionMap::empty().with(id, FloatTy::F32))
            .collect();
        let batch = validate_configs(&p, "f", &args, &configs).unwrap();
        for (cfg, report) in configs.iter().zip(&batch) {
            let serial = validate(&p, "f", &args, cfg).unwrap();
            assert_eq!(report.baseline.to_bits(), serial.baseline.to_bits());
            assert_eq!(report.demoted.to_bits(), serial.demoted.to_bits());
        }
    }

    #[test]
    fn single_demotion_sweep_covers_all_candidates() {
        let src = "double f(double a) {
            double u = a + 0.125;
            double w = a * 7.0;
            double r = u * w;
            return r;
        }";
        let p = program(src);
        let cfg = TunerConfig::with_threshold(1.0);
        let sweep = sweep_single_demotions(&p, "f", &[ArgValue::F(0.511)], &cfg).unwrap();
        let names: Vec<&str> = sweep.iter().map(|(n, _)| n.as_str()).collect();
        assert!(
            names.contains(&"a")
                && names.contains(&"u")
                && names.contains(&"w")
                && names.contains(&"r"),
            "{names:?}"
        );
        // Each report agrees with a one-off validation.
        for (name, report) in &sweep {
            let ids = ids_of(&p, "f", &[name.as_str()]).unwrap();
            let pm = PrecisionMap::empty().with(ids[0], FloatTy::F32);
            let one = validate(&p, "f", &[ArgValue::F(0.511)], &pm).unwrap();
            assert_eq!(
                report.actual_error.to_bits(),
                one.actual_error.to_bits(),
                "{name}"
            );
        }
    }

    #[test]
    fn ids_of_resolves_names() {
        let src = "double f(double a) { double b = a; double c = b; return c; }";
        let p = program(src);
        let ids = ids_of(&p, "f", &["b", "c"]).unwrap();
        assert_eq!(ids.len(), 2);
    }

    #[test]
    fn variant_cache_hits_on_repeated_configs_and_is_bit_identical() {
        let src = "double f(double a, int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) { s += sin(a + i * 0.1) * 0.5; }
            return s;
        }";
        let p = program(src);
        let args = vec![ArgValue::F(0.29), ArgValue::I(100)];
        let ids = ids_of(&p, "f", &["s", "a", "i"]).unwrap();
        let configs: Vec<PrecisionMap> = ids
            .iter()
            .map(|&id| PrecisionMap::empty().with(id, FloatTy::F32))
            .collect();
        let cache = VariantCache::new().without_store();
        let first = validate_configs_with(&p, "f", &args, &configs, Some(&cache)).unwrap();
        let after_first = cache.misses();
        assert!(after_first >= 1 + configs.len() as u64 - 1); // baseline + variants
                                                              // Second pass over the same configs: baseline + variants all hit.
        let second = validate_configs_with(&p, "f", &args, &configs, Some(&cache)).unwrap();
        assert_eq!(cache.misses(), after_first, "no recompilation");
        assert!(cache.hits() > configs.len() as u64);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.demoted.to_bits(), b.demoted.to_bits());
        }
        // Uncached path agrees bit-for-bit with cached.
        let uncached = validate_configs(&p, "f", &args, &configs).unwrap();
        for (a, b) in first.iter().zip(&uncached) {
            assert_eq!(a.demoted.to_bits(), b.demoted.to_bits());
            assert_eq!(a.actual_error.to_bits(), b.actual_error.to_bits());
        }
    }

    #[test]
    fn oracle_validation_matches_two_run_validation() {
        let src = "double f(double a, int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) { s += a * 0.4999 + 0.001; }
            return s;
        }";
        let p = program(src);
        let args = vec![ArgValue::F(0.777), ArgValue::I(64)];
        let ids = ids_of(&p, "f", &["s"]).unwrap();
        let pm = PrecisionMap::empty().with(ids[0], FloatTy::F32);
        let two_run = validate(&p, "f", &args, &pm).unwrap();
        let oracle = validate_with_oracle(&p, "f", &args, &pm, &OracleOptions::default()).unwrap();
        // No float-controlled branches: the shadow reproduces the
        // baseline bit-for-bit, so the measured error is identical.
        assert_eq!(oracle.shadow.to_bits(), two_run.baseline.to_bits());
        assert_eq!(oracle.primal.to_bits(), two_run.demoted.to_bits());
        assert_eq!(
            oracle.output_error.to_bits(),
            two_run.actual_error.to_bits()
        );
        assert!(!oracle.per_variable.is_empty());
    }

    #[test]
    fn divergent_trials_are_not_trusted_by_the_oracle_tuner() {
        // Demoting `s` flips the threshold branch (f32 sum of 100 × 0.01
        // lands below 1.0, the f64 shadow above), so the one-pass oracle
        // number describes the wrong trace. Under the default
        // `TwoRunValidate` policy the trial is re-measured by the classic
        // two-run validation; under `Reject` it is never admitted.
        let src = "double f(double x, int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) { s = s + x; }
            double r = 0.0;
            if (s < 1.0) { r = s * 2.0; } else { r = s * 0.5; }
            return r;
        }";
        let p = program(src);
        let args = vec![ArgValue::F(0.01), ArgValue::I(100)];
        // The oracle itself reports the divergence on the direct probe.
        let ids = ids_of(&p, "f", &["s"]).unwrap();
        let pm = PrecisionMap::empty().with(ids[0], FloatTy::F32);
        let rep = validate_with_oracle(&p, "f", &args, &pm, &OracleOptions::default()).unwrap();
        assert!(rep.diverged(), "branch flip must be flagged");
        assert_eq!(rep.divergence_of("s"), rep.divergence_count);

        let mut cfg = TunerConfig::with_threshold(2.0); // two-run error ≈ 1.5 fits
        cfg.candidates = Some(vec!["s".into()]);
        let cache = VariantCache::new().without_store();
        let opts = OracleTuneOptions::default(); // TwoRunValidate
        let res = tune_with_oracle(&p, "f", &args, &cfg, &opts, &cache).unwrap();
        assert!(res.divergent_trials >= 1, "{res:?}");
        assert_eq!(res.demoted, vec!["s".to_string()]);
        // The reported measurement is the two-run ground truth, not the
        // (untrusted) shadow number.
        let two_run = validate(&p, "f", &args, &res.config).unwrap();
        assert_eq!(
            res.measured_error.unwrap().to_bits(),
            two_run.actual_error.to_bits()
        );
        assert_ne!(
            res.measured_error.unwrap().to_bits(),
            rep.output_error.to_bits(),
            "the divergent one-pass number must not be what admission used"
        );

        // Reject policy: the divergent configuration is never admitted.
        let reject = OracleTuneOptions {
            divergence_policy: DivergencePolicy::Reject,
            ..Default::default()
        };
        let res = tune_with_oracle(&p, "f", &args, &cfg, &reject, &cache).unwrap();
        assert!(res.demoted.is_empty(), "{:?}", res.demoted);
        assert!(res.divergent_trials >= 1);
    }

    /// An inert fault plan (period 0 never fires): explicitly opts a
    /// run out of any ambient `CHEF_FAULT_SEED` plan, so the reference
    /// ("clean") runs of the injection tests stay clean even under the
    /// CI fault matrix.
    fn no_injection() -> chef_exec::fault::FaultPlan {
        chef_exec::fault::FaultPlan::new(None, 0, 0, 1)
    }

    /// A straight-line kernel with 8 demotion candidates (no branches,
    /// so the oracle can never diverge and every trial is exactly one
    /// fault-plan draw).
    fn eight_var_kernel() -> Program {
        program(
            "double f(double a) {
                double v0 = a * 1.0000001;
                double v1 = a + 0.5;
                double v2 = v0 * v1;
                double v3 = a * 1e-8;
                double v4 = v1 + 0.25;
                double v5 = v2 * 0.999;
                double s = v0 + v1 + v2 + v3 + v4 + v5;
                return s;
            }",
        )
    }

    #[test]
    fn a_hundred_trial_fault_injected_tune_completes_with_exact_counts() {
        use chef_exec::fault::{FaultKind, FaultPlan};
        let p = eight_var_kernel();
        let args = vec![ArgValue::F(0.73)];
        let mut cfg = TunerConfig::with_threshold(1e-3);
        cfg.fault_plan = Some(no_injection());

        // Reference: the same tune with no faults injected.
        let clean_cache = VariantCache::new().without_store();
        let reference = tune_with_oracle(
            &p,
            "f",
            &args,
            &cfg,
            &OracleTuneOptions::reranked(),
            &clean_cache,
        )
        .unwrap();
        assert!(reference.faults.is_clean(), "{:?}", reference.faults);
        assert!(!reference.demoted.is_empty());

        // Mixed plan: every third draw fires, cycling trap → panic →
        // NaN. Period 3 means a retry draw can never fire, so every
        // fault recovers and the tune's *result* is unaffected.
        let (period, phase) = (3u64, 1u64);
        let plan = FaultPlan::new(None, period, phase, 1);
        let mut faulted_cfg = cfg.clone();
        faulted_cfg.fault_plan = Some(plan.clone());

        let cache = VariantCache::new().without_store();
        let mut total = FaultSummary::default();
        let mut tunes = 0u64;
        while plan.draws() < 100 {
            let res = tune_with_oracle(
                &p,
                "f",
                &args,
                &faulted_cfg,
                &OracleTuneOptions::reranked(),
                &cache,
            )
            .unwrap();
            assert_eq!(res.demoted, reference.demoted, "faults changed the result");
            assert_eq!(
                res.measured_error.unwrap().to_bits(),
                reference.measured_error.unwrap().to_bits()
            );
            total.merge(&res.faults);
            tunes += 1;
        }
        assert!(tunes >= 5, "expected many tunes, got {tunes}");

        // Replay the schedule: the counters must match the fires
        // *exactly* — every injected fault surfaced as a recorded,
        // recovered trial fault, none were double-counted or lost.
        let draws = plan.draws();
        assert!(draws >= 100);
        let (mut trap, mut panic, mut nan) = (0u64, 0u64, 0u64);
        for n in 0..draws {
            if n % period == phase {
                match (n / period) % 3 {
                    0 => trap += 1,
                    1 => panic += 1,
                    _ => nan += 1,
                }
            }
        }
        let fires = trap + panic + nan;
        assert!(fires >= 30, "schedule fired {fires} times");
        assert_eq!(total.trapped, trap);
        assert_eq!(total.panicked, panic);
        assert_eq!(total.nonfinite, nan);
        assert_eq!(total.retried, fires);
        assert_eq!(total.recovered, fires);
        assert_eq!(total.quarantined, 0);
        assert!(!total.details.is_empty());
        assert!(total.details.len() <= FaultSummary::MAX_DETAILS);

        // The cache survived every injected panic: a final clean tune
        // over it compiles nothing new and still matches the reference.
        let misses = cache.misses();
        let after =
            tune_with_oracle(&p, "f", &args, &cfg, &OracleTuneOptions::reranked(), &cache).unwrap();
        assert_eq!(cache.misses(), misses, "cache unusable after faults");
        assert!(after.cache_hits > 0);
        assert_eq!(after.demoted, reference.demoted);
        assert!(after.faults.is_clean());

        // Kind-pinned plans attribute every fire to the right counter.
        for (kind, pick) in [
            (FaultKind::Trap, 0usize),
            (FaultKind::Panic, 1),
            (FaultKind::Nan, 2),
        ] {
            let pinned = FaultPlan::new(Some(kind), 2, 0, 1);
            let mut c = cfg.clone();
            c.fault_plan = Some(pinned.clone());
            let res = tune_with_oracle(
                &p,
                "f",
                &args,
                &c,
                &OracleTuneOptions::reranked(),
                &VariantCache::new().without_store(),
            )
            .unwrap();
            assert_eq!(res.demoted, reference.demoted);
            let fired = pinned.draws().div_ceil(2);
            let counts = [
                res.faults.trapped,
                res.faults.panicked,
                res.faults.nonfinite,
            ];
            assert_eq!(counts[pick], fired, "{kind:?}: {:?}", res.faults);
            assert_eq!(res.faults.total(), fired);
        }
    }

    #[test]
    fn plain_tune_isolates_injected_faults_in_the_estimation_pass() {
        use chef_exec::fault::FaultPlan;
        let p = eight_var_kernel();
        let args = vec![ArgValue::F(0.29)];
        let mut cfg = TunerConfig::with_threshold(1e-3);
        cfg.fault_plan = Some(no_injection());
        let reference = tune(&p, "f", &args, &cfg).unwrap();
        assert!(reference.faults.is_clean());

        let plan = FaultPlan::new(None, 2, 0, 1);
        let mut faulted = cfg.clone();
        faulted.fault_plan = Some(plan.clone());
        let mut seen = FaultSummary::default();
        while plan.draws() < 6 {
            let res = tune(&p, "f", &args, &faulted).unwrap();
            assert_eq!(res.demoted, reference.demoted);
            assert_eq!(
                res.estimated_error.to_bits(),
                reference.estimated_error.to_bits()
            );
            seen.merge(&res.faults);
        }
        // Phase 0, period 2: the first draw of every tune fires and the
        // retry recovers.
        assert_eq!(seen.total(), seen.recovered);
        assert!(seen.total() >= 3, "{seen:?}");
        assert_eq!(seen.quarantined, 0);
    }

    #[test]
    fn variant_cache_recovers_from_mutex_poisoning() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let src = "double f(double a) { double b = a * 3.0; return b; }";
        let p = program(src);
        let args = vec![ArgValue::F(0.4)];
        let cache = VariantCache::new().without_store();
        let first =
            validate_configs_with(&p, "f", &args, &[PrecisionMap::empty()], Some(&cache)).unwrap();
        // Poison the table's mutex the hard way.
        let r = catch_unwind(AssertUnwindSafe(|| {
            let _g = cache.inner.lock().unwrap();
            panic!("poison");
        }));
        assert!(r.is_err());
        assert!(cache.inner.is_poisoned());
        // Every entry point still works and the cached variants survive.
        assert!(!cache.is_empty());
        let misses = cache.misses();
        let again =
            validate_configs_with(&p, "f", &args, &[PrecisionMap::empty()], Some(&cache)).unwrap();
        assert_eq!(cache.misses(), misses, "poisoning must not evict");
        assert_eq!(again[0].demoted.to_bits(), first[0].demoted.to_bits());
    }

    #[test]
    fn a_persistently_trapping_config_is_quarantined_not_fatal() {
        use chef_exec::fault::{FaultKind, FaultPlan};
        let p = eight_var_kernel();
        let args = vec![ArgValue::F(0.5)];
        let mut cfg = TunerConfig::with_threshold(1e-3);
        // Period 1 fires on *every* draw — the retry faults again, so
        // every trial quarantines. The tune must still complete (with
        // nothing admitted) instead of propagating the trap.
        cfg.fault_plan = Some(FaultPlan::new(Some(FaultKind::Trap), 1, 0, 1));
        let res = tune_with_oracle(
            &p,
            "f",
            &args,
            &cfg,
            &OracleTuneOptions::default(),
            &VariantCache::new().without_store(),
        );
        // The estimation pass propagates its persistent trap (a
        // deterministic failure of the foundation is still an error)…
        assert!(matches!(res, Err(ChefError::Trap(_))), "{res:?}");

        // …but when only the *oracle trials* fault persistently, the
        // greedy loop quarantines each one and completes empty-handed.
        let mut clean_est = TunerConfig::with_threshold(1e-3);
        clean_est.fault_plan = Some(no_injection());
        let opts = OracleTuneOptions {
            oracle: OracleOptions {
                exec: ExecOptions {
                    fault: Some(FaultPlan::new(Some(FaultKind::Trap), 1, 0, 1)),
                    ..Default::default()
                },
                ..Default::default()
            },
            ..Default::default()
        };
        let res = tune_with_oracle(
            &p,
            "f",
            &args,
            &clean_est,
            &opts,
            &VariantCache::new().without_store(),
        )
        .unwrap();
        assert!(res.demoted.is_empty(), "{:?}", res.demoted);
        assert_eq!(res.measured_error, None);
        assert!(res.faults.quarantined >= 9, "{:?}", res.faults); // start + 8 trials
        assert_eq!(res.faults.recovered, 0);
    }

    /// The telemetry registry mirrors the fault counters and survives
    /// the panicking-trial paths from the fault layer: a mixed-plan
    /// tune injects worker panics (which poison any mutex held across
    /// the unwind), yet `chef_telemetry::snapshot()` keeps working and
    /// every `tuner.faults.*` counter advances by at least this tune's
    /// own `FaultSummary` counts. Deltas use `>=` because the registry
    /// is process-global and other tests in this binary increment it
    /// concurrently.
    #[test]
    fn telemetry_registry_survives_fault_injected_trials() {
        use chef_exec::fault::FaultPlan;
        let p = eight_var_kernel();
        let args = vec![ArgValue::F(0.61)];
        let mut cfg = TunerConfig::with_threshold(1e-3);
        // Mixed plan, period 3: draws 1, 4, 7, … fire, cycling
        // trap → panic → NaN, so a panic is injected by draw 4.
        let plan = FaultPlan::new(None, 3, 1, 1);
        cfg.fault_plan = Some(plan.clone());

        let before = chef_telemetry::snapshot();
        let cache = VariantCache::new().without_store();
        let mut total = FaultSummary::default();
        while plan.draws() < 40 {
            let res =
                tune_with_oracle(&p, "f", &args, &cfg, &OracleTuneOptions::reranked(), &cache)
                    .unwrap();
            total.merge(&res.faults);
        }
        assert!(
            total.panicked >= 1,
            "plan never injected a panic: {total:?}"
        );
        assert!(total.trapped >= 1, "{total:?}");
        assert!(total.nonfinite >= 1, "{total:?}");

        let after = chef_telemetry::snapshot();
        let delta = |name: &str| after.counter(name).saturating_sub(before.counter(name));
        assert!(delta("tuner.faults.trapped") >= total.trapped);
        assert!(delta("tuner.faults.panicked") >= total.panicked);
        assert!(delta("tuner.faults.nonfinite") >= total.nonfinite);
        assert!(delta("tuner.faults.retried") >= total.retried);
        assert!(delta("tuner.faults.recovered") >= total.recovered);
        assert!(delta("tuner.cache.misses") >= 1, "first tune misses");
        assert!(delta("tuner.cache.hits") >= 1, "later tunes hit");
    }

    #[test]
    fn oracle_tuning_meets_threshold_by_measurement_and_reports_cache_hits() {
        let src = "double f(double a, int n) {
            double lo = a * 1e-7;
            double mid = a + 0.5;
            double s = 0.0;
            for (int i = 0; i < n; i++) { s += mid * 1.0001 + lo; }
            return s;
        }";
        let p = program(src);
        let args = vec![ArgValue::F(0.41), ArgValue::I(50)];
        let cfg = TunerConfig::with_threshold(1e-4);
        let cache = VariantCache::new().without_store();
        let res =
            tune_with_oracle(&p, "f", &args, &cfg, &OracleTuneOptions::reranked(), &cache).unwrap();
        // The threshold holds by *measurement* (and re-validates two-run).
        let measured = res.measured_error.expect("oracle tuning measures");
        assert!(measured <= 1e-4, "{measured}");
        let check = validate(&p, "f", &args, &res.config).unwrap();
        assert!(check.actual_error <= 1e-4, "{}", check.actual_error);
        assert!(!res.demoted.is_empty(), "{:?}", res.per_variable);
        // A second oracle tuning over the same cache compiles nothing
        // new: every greedy-step compilation is a per-run cache hit.
        let misses_before = cache.misses();
        let res2 =
            tune_with_oracle(&p, "f", &args, &cfg, &OracleTuneOptions::reranked(), &cache).unwrap();
        assert_eq!(cache.misses(), misses_before);
        assert!(res2.cache_hits > 0);
        assert!(res2.cache_hits >= res.cache_hits);
        assert_eq!(res2.demoted, res.demoted);
    }

    #[test]
    fn retry_escalation_is_capped_by_the_admitted_budget() {
        // A "kernel" needing 50 instructions under an admitted budget of
        // 10: block-granular accounting lets the first attempt overshoot
        // arbitrarily before trapping with its executed count, and the
        // retry runs with the escalated floor.
        let needs: u64 = 50;
        let admitted: u64 = 10;
        let mut attempt = |floor: Option<u64>| -> Result<f64, ChefError> {
            let budget = floor.unwrap_or(admitted);
            if budget >= needs {
                Ok(1.0)
            } else {
                Err(ChefError::Trap(Trap {
                    kind: TrapKind::InstrBudgetExhausted { executed: needs },
                    pc: 7,
                    span: chef_ir::span::Span::DUMMY,
                }))
            }
        };
        // Uncapped (no admitted budget): the floor doubles the executed
        // count (100 ≥ 50) and the retry recovers.
        let log = FaultLog::default();
        let out = run_trial(
            &log,
            &|| "uncapped".to_string(),
            None,
            &mut attempt,
            &|v: &f64| Some(*v),
        )
        .unwrap();
        assert!(matches!(out, TrialOutcome::Done(_)));
        // Capped: min(2·50, ESCALATION_CAP·10) = 20 < 50 — the retry
        // traps again and the trial is quarantined instead of ratcheting
        // the session past what admission priced.
        let log = FaultLog::default();
        let out = run_trial(
            &log,
            &|| "capped".to_string(),
            Some(admitted),
            &mut attempt,
            &|v: &f64| Some(*v),
        )
        .unwrap();
        match out {
            TrialOutcome::Faulted(Fault::Trap(t), _) => {
                assert!(matches!(t.kind, TrapKind::InstrBudgetExhausted { .. }));
            }
            TrialOutcome::Done(_) => panic!("capped retry must not recover"),
            TrialOutcome::Faulted(..) => panic!("expected a budget trap"),
        }
        let mut quarantined = 0;
        log.with(|s| quarantined = s.quarantined);
        assert_eq!(quarantined, 1);
    }

    #[test]
    fn variant_cache_evicts_least_recently_used_past_capacity() {
        let src = "double f(double a) {
            double u = a + 1.0;
            double w = a * 2.0;
            double r = u * w;
            return r;
        }";
        let p = program(src);
        let inlined = chef_passes::inline_program(&p).unwrap();
        let f = inlined.function("f").unwrap();
        let ids = ids_of(&p, "f", &["u", "w", "r"]).unwrap();
        let (pm_u, pm_w, pm_r) = (
            PrecisionMap::empty().with(ids[0], FloatTy::F32),
            PrecisionMap::empty().with(ids[1], FloatTy::F32),
            PrecisionMap::empty().with(ids[2], FloatTy::F32),
        );
        let cache = VariantCache::with_capacity(2).without_store();
        cache.get_or_compile(f, &pm_u).unwrap(); // miss
        cache.get_or_compile(f, &pm_w).unwrap(); // miss
        cache.get_or_compile(f, &pm_u).unwrap(); // hit — freshens `u`
        cache.get_or_compile(f, &pm_r).unwrap(); // miss → evicts `w`
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
        let misses = cache.misses();
        cache.get_or_compile(f, &pm_u).unwrap();
        assert_eq!(cache.misses(), misses, "`u` was freshened, not evicted");
        cache.get_or_compile(f, &pm_w).unwrap();
        assert_eq!(cache.misses(), misses + 1, "`w` was the LRU victim");
        assert_eq!(cache.evictions(), 2, "recompiling `w` evicted `r`");
    }
}
