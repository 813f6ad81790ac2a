//! Machine pooling: the one way the engine reuses machines. An analysis
//! or tuner session compiles hundreds of `PrecisionMap` variants (and
//! their adjoints) and runs each of them; the register files, array
//! slots and tape buffers of the machines that run them are
//! interchangeable — [`Machine::reset`] re-sizes without releasing
//! capacity — so a pool lets **different** compiled functions share one
//! set of allocations, sized by the largest function it has executed.
//!
//! [`Pool`] is the generic shape (any `Default` machine type);
//! [`MachineArena`] and [`ShadowMachineArena`] are the two instantiations
//! the engine uses. The process has one [`MachineArena`] of its own,
//! behind [`crate::vm::run_with`] and [`crate::vm::run_batch_parallel`];
//! sessions (the tuner's `VariantCache`, the estimator, the service's
//! worker shards) hold their own. Checkout hands out a guard that
//! returns the machine on drop, so a pool never grows beyond the peak
//! number of *concurrent* activations (one per worker thread of a
//! batch, one per greedy loop in the tuner). [`Pool::run_batch`] is the
//! one batch body, for plain and shadow machines alike.

use crate::bytecode::CompiledFunction;
use crate::shadow::ShadowMachine;
use crate::value::ArgValue;
use crate::vm::{invalid_bytecode, validate_function, ExecOptions, Machine, Trap};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide count of machines currently checked out of any pool,
/// mirrored into the `exec.arena.outstanding` gauge. A drained server
/// (every trial finished, every guard dropped) reads exactly zero here —
/// the leak detector behind `chef-service`'s drain verification.
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

/// A pool of reusable machines. Cheap to create; `Sync`, so one instance
/// can serve every worker thread of a batch and every step of a greedy
/// loop.
pub struct Pool<M> {
    slots: Mutex<Vec<M>>,
    checked_out: AtomicUsize,
}

impl<M: Default> Default for Pool<M> {
    fn default() -> Self {
        Pool::new()
    }
}

impl<M: Default> Pool<M> {
    /// An empty pool; machines are created on first checkout and retained
    /// (with their grown buffers) on return.
    pub const fn new() -> Self {
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

    /// Takes a machine out of the pool (creating one if none is idle).
    /// The guard returns it — buffers intact — when dropped.
    pub fn checkout(&self) -> Pooled<'_, M> {
        note_checkout();
        self.checked_out.fetch_add(1, Ordering::Relaxed);
        let m = self.slots().pop();
        Pooled {
            pool: self,
            m: Some(m.unwrap_or_default()),
        }
    }

    /// Number of idle machines currently parked in the pool.
    pub fn idle(&self) -> usize {
        self.slots().len()
    }

    /// Number of machines currently checked out of *this* pool and not
    /// yet returned. A machine discarded because its run panicked still
    /// counts as returned (the guard's drop ran) — outstanding means a
    /// live guard somewhere, i.e. a trial still holding resources.
    pub fn outstanding(&self) -> usize {
        self.checked_out.load(Ordering::Relaxed)
    }
}

/// Checkout guard of a [`Pool`]: derefs to the machine and parks it back
/// into the pool on drop.
pub struct Pooled<'a, M: Default> {
    pool: &'a Pool<M>,
    m: Option<M>,
}

impl<M: Default> Deref for Pooled<'_, M> {
    type Target = M;
    fn deref(&self) -> &M {
        self.m.as_ref().expect("present until drop")
    }
}

impl<M: Default> DerefMut for Pooled<'_, M> {
    fn deref_mut(&mut self) -> &mut M {
        self.m.as_mut().expect("present until drop")
    }
}

impl<M: Default> Drop for Pooled<'_, M> {
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
        if let Some(m) = self.m.take() {
            self.pool.slots().push(m);
        }
    }
}

/// The machine kinds a [`Pool`] batch runs: the plain VM ([`Machine`],
/// yielding a `CallOutcome`) and the fused shadow machine
/// ([`ShadowMachine`], yielding a `ShadowOutcome`). Sealed in a private
/// module, because `run_prevalidated` skips the bytecode validation the
/// dispatch loop's unchecked accesses rely on.
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
    pub fn run_batch(
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
            || (self.checkout(), chef_telemetry::span("exec.worker")),
            |(pooled, _worker), args| {
                let _run = chef_telemetry::span("exec.run");
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

/// A session-scoped pool of plain VM [`Machine`]s.
pub type MachineArena = Pool<Machine>;

/// A session-scoped pool of fused primal+shadow machines.
pub type ShadowMachineArena<S> = Pool<ShadowMachine<S>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_default;
    use crate::value::ArgValue;
    use crate::vm::ExecOptions;

    fn compiled(src: &str) -> crate::bytecode::CompiledFunction {
        let mut p = chef_ir::parser::parse_program(src).unwrap();
        chef_ir::typeck::check_program(&mut p).unwrap();
        compile_default(&p.functions[0]).unwrap()
    }

    #[test]
    fn checkout_reuses_machines_across_different_functions() {
        let arena = MachineArena::new();
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
    fn concurrent_checkouts_get_distinct_machines() {
        let arena = MachineArena::new();
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
        let arena = MachineArena::new();
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
        let arena = MachineArena::new();
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
    }
}
