//! Machine pooling: the one way the engine reuses machines. An analysis
//! or tuner session compiles hundreds of `PrecisionMap` variants (and
//! their adjoints) and runs each of them; the register files, array
//! slots and tape buffers of the machines that run them are
//! interchangeable — [`crate::vm::Machine::reset`] re-sizes without
//! releasing capacity — so a pool lets **different** compiled functions
//! share one set of allocations, sized by the largest function it has
//! executed.
//!
//! The process keeps one pool per machine kind and nothing else holds
//! one: `vm`'s `MACHINES` behind [`crate::vm::run_with`] and
//! [`crate::vm::run_batch_parallel`], and one pool of
//! `ShadowMachine<S>` per shadow type behind
//! [`crate::shadow::run_shadow`] ([`shadow_pool`]). The estimator, the
//! tuner's `VariantCache` and the service run through those entry
//! points. Checkout hands out a guard that returns the machine on drop,
//! so a pool never grows beyond the peak number of *concurrent*
//! activations (one per worker thread of a batch or of the service),
//! and it hands out the idle machine with the most buffer capacity, so
//! only as many machines grow to the largest function as ever ran it
//! at once. [`Pool::run_batch`] is the one batch body, for plain and
//! shadow machines alike.

use crate::bytecode::CompiledFunction;
use crate::shadow::{ShadowMachine, ShadowNum};
use crate::value::ArgValue;
use crate::vm::{invalid_bytecode, validate_function, ExecOptions, Trap};
use std::any::Any;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide count of machines currently checked out of any pool,
/// mirrored into the `exec.arena.outstanding` gauge: zero whenever no
/// run is in flight anywhere in the process.
static OUTSTANDING: AtomicI64 = AtomicI64::new(0);

fn note_checkout() {
    chef_telemetry::counter!("exec.arena.checkouts").inc();
    let now = OUTSTANDING.fetch_add(1, Ordering::Relaxed) + 1;
    chef_telemetry::gauge!("exec.arena.outstanding").set(now as f64);
}

fn note_return() {
    let now = OUTSTANDING.fetch_sub(1, Ordering::Relaxed) - 1;
    chef_telemetry::gauge!("exec.arena.outstanding").set(now as f64);
}

/// A pool of reusable machines. `Sync`, so one instance serves every
/// thread of the process.
pub(crate) struct Pool<M> {
    slots: Mutex<Vec<M>>,
    checked_out: AtomicUsize,
}

impl<M: sealed::Run> Pool<M> {
    /// An empty pool; machines are created on first checkout and retained
    /// (with their grown buffers) on return.
    pub(crate) const fn new() -> Self {
        Pool {
            slots: Mutex::new(Vec::new()),
            checked_out: AtomicUsize::new(0),
        }
    }

    /// The slot list, recovering from mutex poisoning: the pool's
    /// invariant (a list of idle machines) survives any panic because
    /// machines held by a panicking thread are discarded, never pushed
    /// (see [`Pooled`]'s `Drop`), so a poisoned lock carries no
    /// partially-updated state worth rejecting a whole session over.
    fn slots(&self) -> std::sync::MutexGuard<'_, Vec<M>> {
        self.slots.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Takes the idle machine with the largest footprint out of the pool
    /// (creating one if none is idle). The guard returns it — buffers
    /// intact — when dropped.
    pub(crate) fn checkout(&self) -> Pooled<'_, M> {
        note_checkout();
        self.checked_out.fetch_add(1, Ordering::Relaxed);
        let m = self.slots().pop();
        Pooled {
            pool: self,
            m: Some(m.unwrap_or_default()),
        }
    }

    /// Number of idle machines currently parked in the pool.
    #[cfg(test)]
    pub(crate) fn idle(&self) -> usize {
        self.slots().len()
    }

    /// Number of machines currently checked out of *this* pool and not
    /// yet returned. A machine discarded because its run panicked still
    /// counts as returned (the guard's drop ran) — outstanding means a
    /// live guard somewhere, i.e. a trial still holding resources.
    #[cfg(test)]
    pub(crate) fn outstanding(&self) -> usize {
        self.checked_out.load(Ordering::Relaxed)
    }
}

/// Checkout guard of a [`Pool`]: derefs to the machine and parks it back
/// into the pool on drop.
pub(crate) struct Pooled<'a, M: sealed::Run> {
    pool: &'a Pool<M>,
    m: Option<M>,
}

impl<M: sealed::Run> Deref for Pooled<'_, M> {
    type Target = M;
    fn deref(&self) -> &M {
        self.m.as_ref().expect("present until drop")
    }
}

impl<M: sealed::Run> DerefMut for Pooled<'_, M> {
    fn deref_mut(&mut self) -> &mut M {
        self.m.as_mut().expect("present until drop")
    }
}

impl<M: sealed::Run> Drop for Pooled<'_, M> {
    fn drop(&mut self) {
        // Return accounting runs unconditionally — a discarded machine
        // is still a *returned* checkout (nothing holds it any more), so
        // the outstanding gauge drains to zero even across panics.
        self.pool.checked_out.fetch_sub(1, Ordering::Relaxed);
        note_return();
        // A guard dropped during a panic's unwind may hold a machine
        // whose run was interrupted mid-mutation. `Machine::reset`
        // would re-initialize it anyway, but discarding costs only a
        // re-allocation on some later checkout — cheap insurance that a
        // panicking trial can never park corrupt state for its
        // neighbours.
        if std::thread::panicking() {
            return;
        }
        // Parked in footprint order, so checkout (`pop`) hands out the
        // largest idle machine: a single run gets the machine already
        // sized for the biggest function, and the extra machines a batch
        // needed stay small. Parked in return order instead, every
        // machine of a shared pool grows to the biggest function.
        if let Some(m) = self.m.take() {
            let size = m.footprint();
            let mut slots = self.pool.slots();
            let at = slots.partition_point(|idle| idle.footprint() <= size);
            slots.insert(at, m);
        }
    }
}

/// The machine kinds a [`Pool`] holds: the plain VM
/// ([`crate::vm::Machine`], yielding a `CallOutcome`) and the fused
/// shadow machine ([`ShadowMachine`], yielding a `ShadowOutcome`).
/// Sealed in a private module, because `run_prevalidated` skips the
/// bytecode validation the dispatch loop's unchecked accesses rely on.
pub(crate) mod sealed {
    use super::*;

    /// A machine kind with a call that trusts its caller to have run
    /// [`validate_function`] on `func`.
    pub trait Run: Default + Send {
        /// What one successful call returns.
        type Outcome: Send;
        /// Runs `func` on `args`; `func` must have passed
        /// [`validate_function`].
        fn run_prevalidated(
            &mut self,
            func: &CompiledFunction,
            args: Vec<ArgValue>,
            opts: &ExecOptions,
        ) -> Result<Self::Outcome, Trap>;
        /// Bytes of buffer capacity (registers, arrays, tape) the
        /// machine keeps between runs; the pool's parking order.
        fn footprint(&self) -> usize;
    }
}

impl<M: sealed::Run> Pool<M> {
    /// Runs `func` on every argument set: the bytecode is validated once
    /// for the whole batch, then the sets fan out over
    /// [`crate::par::parallel_map_init`] with one machine checked out
    /// per worker (inside an `exec.worker` span) and one `exec.run` span
    /// per set. Results keep the input order; `max_threads = None` uses
    /// the available parallelism and tiny batches run inline.
    ///
    /// A set whose run panics drops its worker's machine instead of
    /// parking it; the worker checks out another for its remaining sets,
    /// and the panic is re-raised once every set has run.
    pub(crate) fn run_batch(
        &self,
        func: &CompiledFunction,
        arg_sets: Vec<Vec<ArgValue>>,
        opts: &ExecOptions,
        max_threads: Option<usize>,
    ) -> Vec<Result<M::Outcome, Trap>> {
        if let Err(msg) = validate_function(func) {
            let trap = invalid_bytecode(msg);
            return arg_sets.into_iter().map(|_| Err(trap.clone())).collect();
        }
        // The worker span opens at checkout and closes when the worker's
        // state drops, so each `exec.run` span nests under its worker.
        crate::par::parallel_map_init(
            arg_sets,
            max_threads,
            || (self.checkout(), chef_telemetry::span!("exec.worker")),
            |(pooled, _worker), args| {
                let _run = chef_telemetry::span!("exec.run");
                // The machine leaves its guard for the run: a panic
                // unwinds past this local and drops it, so the guard
                // `parallel_map_init` later drops (outside the unwind)
                // has nothing to park.
                let mut m = pooled.m.take().expect("parked between runs");
                let out = m.run_prevalidated(func, args, opts);
                pooled.m = Some(m);
                out
            },
        )
    }
}

/// The process's pool of `ShadowMachine<S>`, created on first use. Rust
/// has no generic statics, so the pools (one per shadow type: `f64`,
/// `chef-shadow`'s double-double, any other [`ShadowNum`]) sit in one
/// type-keyed list; each is leaked once and lives as long as the
/// process, like `vm`'s `MACHINES`.
pub(crate) fn shadow_pool<S: ShadowNum>() -> &'static Pool<ShadowMachine<S>> {
    static POOLS: Mutex<Vec<&'static (dyn Any + Send + Sync)>> = Mutex::new(Vec::new());
    let mut pools = POOLS.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(pool) = pools.iter().find_map(|&p| p.downcast_ref()) {
        return pool;
    }
    let pool: &'static Pool<ShadowMachine<S>> = Box::leak(Box::new(Pool::new()));
    pools.push(pool);
    pool
}

#[cfg(test)]
mod tests {
    use super::sealed::Run;
    use super::*;
    use crate::compile::compile_default;
    use crate::shadow::run_shadow;
    use crate::value::ArgValue;
    use crate::vm::{ExecOptions, Machine};

    fn compiled(src: &str) -> crate::bytecode::CompiledFunction {
        let mut p = chef_ir::parser::parse_program(src).unwrap();
        chef_ir::typeck::check_program(&mut p).unwrap();
        compile_default(&p.functions[0]).unwrap()
    }

    #[test]
    fn checkout_reuses_machines_across_different_functions() {
        let arena = Pool::<Machine>::new();
        let small = compiled("double f(double x) { return x * 2.0; }");
        let big = compiled(
            "double g(int n) { double s = 0.0; for (int i = 0; i < n; i++) { s += i * 0.5; } return s; }",
        );
        let opts = ExecOptions::default();
        {
            let mut m = arena.checkout();
            assert_eq!(
                m.run_reused(&big, vec![ArgValue::I(100)], &opts)
                    .unwrap()
                    .ret_f(),
                (0..100).map(|i| i as f64 * 0.5).sum::<f64>()
            );
        }
        assert_eq!(arena.idle(), 1);
        {
            // The same machine now serves a *different* function.
            let mut m = arena.checkout();
            assert_eq!(arena.idle(), 0);
            assert_eq!(
                m.run_reused(&small, vec![ArgValue::F(21.0)], &opts)
                    .unwrap()
                    .ret_f(),
                42.0
            );
        }
        assert_eq!(arena.idle(), 1);
    }

    #[test]
    fn checkout_takes_the_largest_idle_machine() {
        let arena = Pool::<Machine>::new();
        let big = compiled(
            "double g(int n) { double a[n]; double s = 0.0; for (int i = 0; i < n; i++) { a[i] = i * 0.5; s += a[i]; } return s; }",
        );
        let small = compiled("double f(double x) { return x * 2.0; }");
        let opts = ExecOptions::default();
        let mut a = arena.checkout();
        let mut b = arena.checkout();
        a.run_reused(&big, vec![ArgValue::I(4096)], &opts).unwrap();
        b.run_reused(&small, vec![ArgValue::F(1.0)], &opts).unwrap();
        let big_footprint = a.footprint();
        assert!(big_footprint > b.footprint());
        // Returned last, the small machine would come out first in
        // return order; the pool hands out the large one instead.
        drop(a);
        drop(b);
        assert_eq!(arena.checkout().footprint(), big_footprint);
    }

    #[test]
    fn concurrent_checkouts_get_distinct_machines() {
        let arena = Pool::<Machine>::new();
        let a = arena.checkout();
        let b = arena.checkout();
        drop(a);
        drop(b);
        assert_eq!(arena.idle(), 2);
        // Further checkouts drain the pool instead of growing it.
        let _c = arena.checkout();
        assert_eq!(arena.idle(), 1);
    }

    #[test]
    fn a_panicking_checkout_is_discarded_and_the_pool_stays_usable() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let arena = Pool::<Machine>::new();
        drop(arena.checkout());
        assert_eq!(arena.idle(), 1);
        let r = catch_unwind(AssertUnwindSafe(|| {
            let _held = arena.checkout();
            panic!("injected");
        }));
        assert!(r.is_err());
        // The possibly-corrupt machine was discarded, not parked …
        assert_eq!(arena.idle(), 0);
        // … and the pool still hands out working machines afterwards.
        let f = compiled("double f(double x) { return x + 1.0; }");
        let out = arena
            .checkout()
            .run_reused(&f, vec![ArgValue::F(1.0)], &ExecOptions::default())
            .unwrap();
        assert_eq!(out.ret_f(), 2.0);
        assert_eq!(arena.idle(), 1);
    }

    /// A one-worker batch whose second run panics: the worker's machine
    /// is dropped, the third run gets a fresh one, and only that one is
    /// parked.
    fn panicking_batch_run_discards_its_machine<M: sealed::Run>() {
        use crate::fault::{FaultKind, FaultPlan};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let arena = Pool::<M>::new();
        let f = compiled("double f(double x) { return x + 1.0; }");
        let opts = ExecOptions {
            fault: Some(FaultPlan::new(Some(FaultKind::Panic), 3, 1, 16)),
            ..Default::default()
        };
        let sets = vec![vec![ArgValue::F(1.0)]; 3];
        let r = catch_unwind(AssertUnwindSafe(|| {
            arena.run_batch(&f, sets, &opts, Some(1))
        }));
        assert!(r.is_err(), "the injected panic is re-raised");
        assert_eq!(arena.idle(), 1);
        assert_eq!(arena.outstanding(), 0);
    }

    #[test]
    fn a_panicking_batch_run_discards_the_plain_machine() {
        panicking_batch_run_discards_its_machine::<Machine>();
    }

    #[test]
    fn a_panicking_batch_run_discards_the_shadow_machine() {
        panicking_batch_run_discards_its_machine::<ShadowMachine<f64>>();
    }

    #[test]
    fn pooled_runs_are_bit_identical_to_fresh_machines() {
        let arena = Pool::<Machine>::new();
        let f = compiled(
            "double f(double x, int n) { double s = 0.0; for (int i = 0; i < n; i++) { s += sin(x + i * 0.01); } return s; }",
        );
        let opts = ExecOptions::default();
        for k in 0..5 {
            let args = vec![ArgValue::F(0.2 * k as f64), ArgValue::I(40)];
            let pooled = arena
                .checkout()
                .run_reused(&f, args.clone(), &opts)
                .unwrap();
            let fresh = Machine::new().run_reused(&f, args, &opts).unwrap();
            assert_eq!(pooled.ret_f().to_bits(), fresh.ret_f().to_bits());
            assert_eq!(pooled.stats, fresh.stats);
        }

        // The process's shadow pools: `run_shadow` on two different
        // functions, one after the other, matches a fresh machine bit
        // for bit on `f64`, and on a lane type no other test of this
        // binary runs (so nothing else touches its pool) it leaves
        // exactly one idle machine.
        let g = compiled("double g(double x) { double t = x * 0.1; return sqrt(t * t + 1.0); }");
        let work = [
            (&f, vec![ArgValue::F(0.3), ArgValue::I(40)]),
            (&g, vec![ArgValue::F(1.7)]),
        ];
        for (func, args) in work.iter().chain(&work) {
            let pooled = run_shadow::<f64>(func, args.clone(), &opts).unwrap();
            let own = run_shadow::<OwnLane>(func, args.clone(), &opts).unwrap();
            let fresh = ShadowMachine::<f64>::new()
                .run_reused(func, args.clone(), &opts)
                .unwrap();
            for out in [&pooled, &own] {
                assert_eq!(out.ret_f().to_bits(), fresh.ret_f().to_bits());
                assert_eq!(out.shadow_f().to_bits(), fresh.shadow_f().to_bits());
                assert_eq!(out.acc_error.to_bits(), fresh.acc_error.to_bits());
                assert_eq!(out.samples, fresh.samples);
                assert_eq!(out.stats, fresh.stats);
            }
            assert_eq!(shadow_pool::<OwnLane>().idle(), 1);
        }
    }

    /// An `f64` shadow under a type of its own, so its process pool
    /// belongs to [`pooled_runs_are_bit_identical_to_fresh_machines`].
    #[derive(Clone, Copy)]
    struct OwnLane(f64);

    impl ShadowNum for OwnLane {
        fn from_f64(x: f64) -> Self {
            OwnLane(x)
        }
        fn to_f64(self) -> f64 {
            self.0
        }
        fn add(a: Self, b: Self) -> Self {
            OwnLane(a.0 + b.0)
        }
        fn sub(a: Self, b: Self) -> Self {
            OwnLane(a.0 - b.0)
        }
        fn mul(a: Self, b: Self) -> Self {
            OwnLane(a.0 * b.0)
        }
        fn div(a: Self, b: Self) -> Self {
            OwnLane(a.0 / b.0)
        }
        fn neg(a: Self) -> Self {
            OwnLane(-a.0)
        }
    }
}
