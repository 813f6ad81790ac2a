//! Dependency-free telemetry substrate for the CHEF-FP workspace:
//! a process-global registry of named metrics, plus lightweight spans.
//!
//! Like `chef_core::json`, this crate deliberately has **no external
//! dependencies** — the workspace builds offline — and it is the one
//! place every layer (exec, tuner, core, bench) reports into, replacing
//! the scattered ad-hoc counters that grew per subsystem.
//!
//! ## Metrics
//!
//! Three metric kinds, all registered by `&'static str` name on first
//! use and updated lock-free afterwards:
//!
//! * [`Counter`] — monotonically increasing `u64` (`fetch_add`).
//! * [`Gauge`] — last-writer-wins `f64` (stored as bits in an atomic).
//! * [`Histogram`] — fixed 64-bucket log₂-scale histogram of `u64`
//!   magnitudes (bucket *b* holds `[2^(b−1), 2^b)`), with estimated
//!   [`Histogram::quantile`]s (p50/p95/p99) read straight from the
//!   bucket counts. Recording is one `fetch_add` on the value's bucket.
//!
//! The registry maps are mutex-guarded (registration only — a
//! once-per-name cost); the metric cells themselves are leaked
//! `&'static` atomics, so the hot path of an already-registered handle
//! is a single relaxed atomic op. Call sites cache the handle through
//! the [`counter!`]/[`gauge!`]/[`histogram!`] macros, which stash it in
//! a per-site `OnceLock`. All registry locks recover from poisoning
//! (`unwrap_or_else(|p| p.into_inner())`): a panicking thread mid-update
//! can at worst lose its own registration attempt, never wedge the
//! registry — the same policy as `chef-exec`'s machine pools.
//!
//! ## Spans
//!
//! [`span`] returns a guard that records a [`SpanRecord`] — name,
//! monotonic start/end nanoseconds, parent link, thread id — into a
//! **bounded per-thread ring buffer** ([`SPAN_RING_CAPACITY`] entries;
//! the oldest records are overwritten and tallied in
//! `spans_dropped`). Parents are tracked by a per-thread stack of open
//! span ids, so nesting needs no allocation per span. On drop, the
//! span's duration is additionally recorded into the histogram
//! `span.<name>.ns`, which is where p50/p95/p99 latency per phase comes
//! from. Timing uses a process-global [`std::time::Instant`] anchor, so
//! start/end values are comparable across threads.
//!
//! ## Export
//!
//! [`snapshot`] merges every registered metric and every thread's span
//! ring into a plain-data [`TelemetrySnapshot`] (spans sorted by start
//! time). JSON serialization lives in `chef_core::report` — this crate
//! stays at the bottom of the dependency graph and knows nothing about
//! encodings. [`reset`] zeroes all metrics and clears the rings (tests
//! and the `repro` harness call it between scenarios; handles stay
//! valid).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Locks a registry mutex, recovering from poisoning: every structure
/// guarded here (registration maps, span rings) is valid after any
/// partial update, so a panicking writer never invalidates readers.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Monotonic nanoseconds since the process-global anchor (first use).
pub fn now_ns() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Metric cells
// ---------------------------------------------------------------------------

/// A monotonically increasing counter. Updates are single relaxed
/// atomic adds — safe to call from any thread, including dispatch-loop
/// adjacent code.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-writer-wins `f64` cell (bits in an atomic word).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Stores `v`.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value (0.0 before the first `set`).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Number of log₂ buckets in a [`Histogram`] — covers the full `u64`
/// range (bucket 0 is the value 0; bucket 63 absorbs everything from
/// `2^62` up).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-bucket log₂-scale histogram of `u64` magnitudes (typically
/// nanoseconds). Bucket `b ≥ 1` holds values in `[2^(b−1), 2^b)`;
/// bucket 0 holds exactly 0. Recording is one relaxed `fetch_add` plus
/// a `fetch_min`/`fetch_max` pair maintaining the observed extremes;
/// quantiles are estimated from the bucket counts at read time (the
/// bucket's geometric midpoint, clamped into `[min, max]` — so the
/// estimate is within ~√2 of the true quantile and never reports a
/// value outside the observed range; a one-sample histogram's p99 is
/// exactly the recorded value).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    /// Smallest recorded value (`u64::MAX` until the first record).
    min: AtomicU64,
    /// Largest recorded value (0 until the first record).
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded value, or `None` for an empty histogram.
    pub fn min(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.min.load(Ordering::Relaxed))
        }
    }

    /// Largest recorded value, or `None` for an empty histogram.
    pub fn max(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.max.load(Ordering::Relaxed))
        }
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`): the geometric midpoint of
    /// the first bucket whose cumulative count reaches `q · total`,
    /// clamped into the recorded `[min, max]` range — a bucket midpoint
    /// can overshoot the true extreme by up to √2×, and without the
    /// clamp a one-sample histogram would report a p99 larger than the
    /// only value it ever saw. Returns 0.0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let lo = self.min.load(Ordering::Relaxed) as f64;
        let hi = self.max.load(Ordering::Relaxed) as f64;
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, cell) in self.buckets.iter().enumerate() {
            seen += cell.load(Ordering::Relaxed);
            if seen >= rank {
                let mid = if b == 0 {
                    0.0
                } else {
                    // Geometric midpoint of [2^(b-1), 2^b).
                    2f64.powf(b as f64 - 0.5)
                };
                return mid.clamp(lo, hi);
            }
        }
        2f64.powi((HISTOGRAM_BUCKETS - 1) as i32).clamp(lo, hi)
    }

    /// Median estimate.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    gauges: Mutex<BTreeMap<&'static str, &'static Gauge>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
    rings: Mutex<Vec<Arc<SpanRing>>>,
    next_thread: AtomicU64,
    next_span: AtomicU64,
}

fn registry() -> &'static Registry {
    static R: OnceLock<Registry> = OnceLock::new();
    R.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
        rings: Mutex::new(Vec::new()),
        next_thread: AtomicU64::new(0),
        next_span: AtomicU64::new(0),
    })
}

/// Looks up (registering on first use) the counter named `name`. The
/// returned handle is `'static` and lock-free to update; cache it with
/// the [`counter!`] macro instead of re-resolving per event.
pub fn counter(name: &'static str) -> &'static Counter {
    lock(&registry().counters)
        .entry(name)
        .or_insert_with(|| Box::leak(Box::default()))
}

/// Looks up (registering on first use) the gauge named `name`.
pub fn gauge(name: &'static str) -> &'static Gauge {
    lock(&registry().gauges)
        .entry(name)
        .or_insert_with(|| Box::leak(Box::default()))
}

/// Looks up (registering on first use) the histogram named `name`.
pub fn histogram(name: &'static str) -> &'static Histogram {
    lock(&registry().histograms)
        .entry(name)
        .or_insert_with(|| Box::leak(Box::default()))
}

/// Cached [`counter()`] lookup: resolves the registry handle once per
/// call site, so the steady-state cost is one relaxed atomic add.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Counter> = ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::counter($name))
    }};
}

/// Cached [`gauge()`] lookup (see [`counter!`]).
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::gauge($name))
    }};
}

/// Cached [`histogram()`] lookup (see [`counter!`]).
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::histogram($name))
    }};
}

// ---------------------------------------------------------------------------
// Dynamically keyed metrics (per-session labels)
// ---------------------------------------------------------------------------

/// Cap on distinct dynamically keyed metric names ([`counter_keyed`] /
/// [`gauge_keyed`] / [`histogram_keyed`]). Keyed names are interned
/// (leaked once, like every registry name), so an unbounded label space
/// would be a leak; past the cap, new keys collapse into the shared
/// `<base>.overflow` cell instead of minting fresh names — bounded by
/// construction, like the span rings.
pub const MAX_KEYED_NAMES: usize = 1024;

/// Interns `"<base>.<key>"` as a `'static` registry name, collapsing to
/// `"<base>.overflow"` once [`MAX_KEYED_NAMES`] distinct names exist.
fn intern_keyed(base: &'static str, key: &str) -> &'static str {
    static INTERNED: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();
    let table = INTERNED.get_or_init(|| Mutex::new(BTreeMap::new()));
    let full = format!("{base}.{key}");
    let mut map = lock(table);
    if let Some(&name) = map.get(&full) {
        return name;
    }
    let minted = if map.len() >= MAX_KEYED_NAMES {
        format!("{base}.overflow")
    } else {
        full
    };
    if let Some(&name) = map.get(&minted) {
        return name;
    }
    let leaked: &'static str = Box::leak(minted.clone().into_boxed_str());
    map.insert(minted, leaked);
    leaked
}

/// A counter under a dynamic key: `counter_keyed("service.session.trials",
/// "s42")` resolves the counter `service.session.trials.s42`. Intended
/// for *bounded* key spaces (session ids of a test or soak run, shard
/// indices); see [`MAX_KEYED_NAMES`] for the backstop. Resolution takes
/// the intern lock — cache the returned handle in hot paths.
pub fn counter_keyed(base: &'static str, key: &str) -> &'static Counter {
    counter(intern_keyed(base, key))
}

/// A gauge under a dynamic key (see [`counter_keyed`]).
pub fn gauge_keyed(base: &'static str, key: &str) -> &'static Gauge {
    gauge(intern_keyed(base, key))
}

/// A histogram under a dynamic key (see [`counter_keyed`]).
pub fn histogram_keyed(base: &'static str, key: &str) -> &'static Histogram {
    histogram(intern_keyed(base, key))
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Capacity of each thread's span ring buffer. When a thread records
/// more than this many spans between snapshots the oldest are
/// overwritten (counted in [`TelemetrySnapshot::spans_dropped`]) —
/// telemetry is bounded by construction, never a memory leak.
pub const SPAN_RING_CAPACITY: usize = 512;

/// One completed span: a named interval on one thread, with a link to
/// the span that was open on the same thread when it started.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (`compile`, `trial`, …).
    pub name: &'static str,
    /// Process-unique span id.
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Telemetry thread id (dense, assigned at each thread's first span).
    pub thread: u64,
    /// Start, in monotonic nanoseconds ([`now_ns`]).
    pub start_ns: u64,
    /// End, in monotonic nanoseconds.
    pub end_ns: u64,
}

struct RingInner {
    buf: Vec<SpanRecord>,
    /// Next write position once `buf` reached capacity.
    next: usize,
    dropped: u64,
}

struct SpanRing {
    thread: u64,
    inner: Mutex<RingInner>,
}

impl SpanRing {
    fn push(&self, rec: SpanRecord) {
        let mut g = lock(&self.inner);
        if g.buf.len() < SPAN_RING_CAPACITY {
            g.buf.push(rec);
        } else {
            let at = g.next;
            g.buf[at] = rec;
            g.next = (at + 1) % SPAN_RING_CAPACITY;
            g.dropped += 1;
        }
    }
}

struct ThreadSpans {
    ring: Arc<SpanRing>,
    /// Ids of the spans currently open on this thread, outermost first.
    stack: Vec<u64>,
}

thread_local! {
    static THREAD_SPANS: std::cell::RefCell<Option<ThreadSpans>> =
        const { std::cell::RefCell::new(None) };
}

/// An open span; records itself into the thread's ring when dropped
/// (including during a panic's unwind, so a trial that dies mid-span
/// still leaves its timing behind).
pub struct Span {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    start_ns: u64,
}

/// Opens a span named `name` on the current thread. The currently open
/// span (if any) becomes its parent. Dropping the guard closes it.
pub fn span(name: &'static str) -> Span {
    let reg = registry();
    let id = reg.next_span.fetch_add(1, Ordering::Relaxed) + 1;
    let parent = THREAD_SPANS.with(|cell| {
        let mut slot = cell.borrow_mut();
        let ts = slot.get_or_insert_with(|| {
            let ring = Arc::new(SpanRing {
                thread: reg.next_thread.fetch_add(1, Ordering::Relaxed),
                inner: Mutex::new(RingInner {
                    buf: Vec::new(),
                    next: 0,
                    dropped: 0,
                }),
            });
            lock(&reg.rings).push(Arc::clone(&ring));
            ThreadSpans {
                ring,
                stack: Vec::new(),
            }
        });
        let parent = ts.stack.last().copied();
        ts.stack.push(id);
        parent
    });
    Span {
        name,
        id,
        parent,
        start_ns: now_ns(),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let end_ns = now_ns();
        THREAD_SPANS.with(|cell| {
            // A drop during unwind may observe the RefCell borrowed (a
            // panic inside `span()` itself); losing one record beats
            // aborting the process with a double panic.
            let Ok(mut slot) = cell.try_borrow_mut() else {
                return;
            };
            let Some(ts) = slot.as_mut() else { return };
            // Out-of-order drops (guards moved across scopes) just
            // remove this id wherever it sits in the stack.
            if let Some(at) = ts.stack.iter().rposition(|&x| x == self.id) {
                ts.stack.truncate(at);
            }
            ts.ring.push(SpanRecord {
                name: self.name,
                id: self.id,
                parent: self.parent,
                thread: ts.ring.thread,
                start_ns: self.start_ns,
                end_ns,
            });
        });
        span_duration_histogram(self.name).record(end_ns.saturating_sub(self.start_ns));
    }
}

/// The `span.<name>.ns` duration histogram backing a span name. Span
/// names form a small closed set, so the leaked key strings are bounded.
fn span_duration_histogram(name: &'static str) -> &'static Histogram {
    static KEYS: OnceLock<Mutex<BTreeMap<&'static str, &'static str>>> = OnceLock::new();
    let keys = KEYS.get_or_init(|| Mutex::new(BTreeMap::new()));
    let key = *lock(keys)
        .entry(name)
        .or_insert_with(|| Box::leak(format!("span.{name}.ns").into_boxed_str()));
    histogram(key)
}

// ---------------------------------------------------------------------------
// Snapshot & reset
// ---------------------------------------------------------------------------

/// Point-in-time value of one counter.
#[derive(Clone, Debug, PartialEq)]
pub struct CounterSnapshot {
    /// Registered name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// Point-in-time value of one gauge.
#[derive(Clone, Debug, PartialEq)]
pub struct GaugeSnapshot {
    /// Registered name.
    pub name: String,
    /// Value at snapshot time.
    pub value: f64,
}

/// Point-in-time summary of one histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: String,
    /// Observation count.
    pub count: u64,
    /// Observation sum.
    pub sum: u64,
    /// Smallest recorded value (0 when the histogram is empty).
    pub min: u64,
    /// Largest recorded value (0 when the histogram is empty).
    pub max: u64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

/// Everything the registry knows, as plain data (see
/// `chef_core::report` for the JSON encoding).
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    /// All counters, by name.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Every thread's retained spans, merged and sorted by start time.
    pub spans: Vec<SpanRecord>,
    /// Spans evicted from full ring buffers since the last [`reset`].
    pub spans_dropped: u64,
}

impl TelemetrySnapshot {
    /// The value of counter `name`, or 0 when never registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// The spans named `name`, in start order.
    pub fn spans_named<'a>(&'a self, name: &str) -> Vec<&'a SpanRecord> {
        self.spans.iter().filter(|s| s.name == name).collect()
    }
}

/// Snapshots every registered metric and merges all span rings.
pub fn snapshot() -> TelemetrySnapshot {
    let reg = registry();
    let counters = lock(&reg.counters)
        .iter()
        .map(|(n, c)| CounterSnapshot {
            name: n.to_string(),
            value: c.get(),
        })
        .collect();
    let gauges = lock(&reg.gauges)
        .iter()
        .map(|(n, g)| GaugeSnapshot {
            name: n.to_string(),
            value: g.get(),
        })
        .collect();
    let histograms = lock(&reg.histograms)
        .iter()
        .map(|(n, h)| HistogramSnapshot {
            name: n.to_string(),
            count: h.count(),
            sum: h.sum(),
            min: h.min().unwrap_or(0),
            max: h.max().unwrap_or(0),
            p50: h.p50(),
            p95: h.p95(),
            p99: h.p99(),
        })
        .collect();
    let mut spans = Vec::new();
    let mut spans_dropped = 0;
    for ring in lock(&reg.rings).iter() {
        let g = lock(&ring.inner);
        spans.extend(g.buf.iter().cloned());
        spans_dropped += g.dropped;
    }
    spans.sort_by_key(|s| (s.start_ns, s.id));
    TelemetrySnapshot {
        counters,
        gauges,
        histograms,
        spans,
        spans_dropped,
    }
}

/// Zeroes every metric and clears every span ring. Handles already held
/// by call sites stay valid (the cells are reset in place, not
/// replaced). Open spans are unaffected and will record normally.
pub fn reset() {
    let reg = registry();
    for c in lock(&reg.counters).values() {
        c.reset();
    }
    for g in lock(&reg.gauges).values() {
        g.reset();
    }
    for h in lock(&reg.histograms).values() {
        h.reset();
    }
    for ring in lock(&reg.rings).iter() {
        let mut g = lock(&ring.inner);
        g.buf.clear();
        g.next = 0;
        g.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global and [`reset`] is destructive, so
    /// tests that read-modify-assert registry state run serialized.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        lock(&LOCK)
    }

    #[test]
    fn counters_accumulate_and_reset_in_place() {
        let _s = serial();
        let c = counter("test.unit.counter");
        let before = c.get();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), before + 5);
        // Same name resolves to the same cell.
        assert_eq!(counter("test.unit.counter").get(), before + 5);
        // The macro caches but hits the same cell too.
        counter!("test.unit.counter").inc();
        assert_eq!(c.get(), before + 6);
    }

    #[test]
    fn gauges_are_last_writer_wins() {
        let _s = serial();
        let g = gauge("test.unit.gauge");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        g.set(-1.0);
        assert_eq!(gauge!("test.unit.gauge").get(), -1.0);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        // 90 small values, 10 large ones: p50 lands in the small bucket,
        // p95/p99 in the large one.
        for _ in 0..90 {
            h.record(100); // bucket 7: [64, 128)
        }
        for _ in 0..10 {
            h.record(1 << 20);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 90 * 100 + 10 * (1 << 20));
        let p50 = h.p50();
        assert!((64.0..128.0).contains(&p50), "{p50}");
        let p95 = h.p95();
        assert!(p95 >= (1 << 20) as f64 / 2.0, "{p95}");
        assert!(h.p99() >= p95);
        // Zero maps to bucket 0 and reports 0.0.
        let z = Histogram::default();
        z.record(0);
        assert_eq!(z.p50(), 0.0);
    }

    #[test]
    fn histogram_quantiles_clamp_to_observed_range() {
        // One sample: every quantile is exactly the observed value, not
        // the bucket's geometric midpoint (100 lands in [64, 128), whose
        // midpoint ≈ 90.5 — below the sample; 65 would report ≈ 90.5 —
        // above it).
        for v in [65u64, 100, 127] {
            let h = Histogram::default();
            h.record(v);
            assert_eq!(h.p50(), v as f64);
            assert_eq!(h.p99(), v as f64);
            assert_eq!(h.min(), Some(v));
            assert_eq!(h.max(), Some(v));
        }
        // Multi-sample: quantiles stay within [min, max].
        let h = Histogram::default();
        h.record(70);
        h.record(80);
        h.record(120);
        assert!(h.p50() >= 70.0 && h.p50() <= 120.0);
        assert!(h.p99() >= 70.0 && h.p99() <= 120.0);
        assert_eq!(h.min(), Some(70));
        assert_eq!(h.max(), Some(120));
        // Empty histogram: no extremes, quantiles 0.
        let e = Histogram::default();
        assert_eq!(e.min(), None);
        assert_eq!(e.max(), None);
        assert_eq!(e.p99(), 0.0);
        // Reset restores the sentinels.
        h.reset();
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        h.record(7);
        assert_eq!(h.min(), Some(7));
        assert_eq!(h.max(), Some(7));
        assert_eq!(h.p99(), 7.0);
    }

    #[test]
    fn histogram_bucket_of_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn spans_nest_and_link_parents() {
        let _s = serial();
        let (outer_id, inner_id);
        {
            let outer = span("test.outer");
            outer_id = outer.id;
            {
                let inner = span("test.inner");
                inner_id = inner.id;
                assert_eq!(inner.parent, Some(outer.id));
            }
        }
        let snap = snapshot();
        let inner = snap.spans.iter().find(|s| s.id == inner_id).unwrap();
        let outer = snap.spans.iter().find(|s| s.id == outer_id).unwrap();
        assert_eq!(inner.parent, Some(outer_id));
        assert_eq!(inner.thread, outer.thread);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.end_ns <= outer.end_ns);
        // Span durations feed the span.<name>.ns histograms.
        assert!(snap
            .histograms
            .iter()
            .any(|h| h.name == "span.test.inner.ns" && h.count >= 1));
    }

    #[test]
    fn span_ring_is_bounded_and_counts_evictions() {
        let _s = serial();
        // Run on a dedicated thread so this test owns the whole ring.
        std::thread::spawn(|| {
            for _ in 0..SPAN_RING_CAPACITY + 10 {
                drop(span("test.flood"));
            }
            let snap = snapshot();
            assert!(snap.spans_dropped >= 10);
            let mine = snap.spans_named("test.flood");
            assert!(mine.len() <= SPAN_RING_CAPACITY);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn registry_survives_a_panicking_thread_mid_span() {
        let _s = serial();
        let base = counter("test.panic.counter").get();
        let spans_before = snapshot().spans_named("test.panic.span").len();
        let r = std::thread::spawn(|| {
            counter("test.panic.counter").inc();
            let _open = span("test.panic.span");
            panic!("injected");
        })
        .join();
        assert!(r.is_err());
        // The counter survived, the span was recorded during unwind,
        // and the registry still works from this thread.
        assert_eq!(counter("test.panic.counter").get(), base + 1);
        let snap = snapshot();
        assert_eq!(snap.spans_named("test.panic.span").len(), spans_before + 1);
        counter("test.panic.counter").inc();
        assert_eq!(snap.counter("test.panic.counter"), base + 1); // snapshot is point-in-time
        assert_eq!(counter("test.panic.counter").get(), base + 2);
    }

    #[test]
    fn snapshot_and_reset_round_trip() {
        let _s = serial();
        let c = counter("test.reset.counter");
        c.add(7);
        let h = histogram("test.reset.hist");
        h.record(42);
        assert!(snapshot().counter("test.reset.counter") >= 7);
        reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        // Handles stay live after reset.
        c.inc();
        assert_eq!(c.get(), 1);
    }
}
