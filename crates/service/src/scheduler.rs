//! Work-stealing batch scheduler: a fixed pool of worker threads, one
//! job deque per worker, submissions spread round-robin and idle workers
//! stealing from their neighbours.
//!
//! The scheduler is deliberately *dumb* about what a job is — a job is a
//! boxed closure, and it does not matter which worker runs it: machines
//! come from chef-exec's process pools, not from the worker. All
//! resilience decisions (admission, budgets, retries, breakers) happen
//! in the closure; the scheduler only guarantees that every accepted job
//! runs exactly once, on some worker, and that [`Scheduler::quiesce`]
//! returns only when nothing is queued *or* executing.
//!
//! Counting protocol: `pending` is jobs accepted but not yet picked up,
//! `active` is jobs currently executing. A submitter increments
//! `pending` **before** pushing the job onto a deque, and a worker
//! increments `active` **before** decrementing `pending` when it takes
//! one — so `pending + active` never reads zero while a job is in
//! transit between the two counters (it may transiently *over*count by
//! one, which only errs conservative for backpressure and quiesce).
//! That is what makes the quiesce loop's exit test sound without a
//! global lock around job execution.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A unit of work: runs once, on some worker thread.
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

struct SchedInner {
    /// One deque per worker; workers pop their own front and steal from
    /// the back of their neighbours'.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Jobs accepted and queued but not yet taken by a worker.
    pending: AtomicUsize,
    /// Jobs currently executing on some worker.
    active: AtomicUsize,
    /// Round-robin cursor for submissions.
    next: AtomicUsize,
    /// Workers exit once this is set and the queues are empty.
    shutdown: AtomicBool,
    /// Sleep/wake for idle workers. The mutex guards the *notification*,
    /// not the counters; waits use a timeout so a lost race costs a tick
    /// of latency, never a hang.
    wake: Mutex<()>,
    wake_cv: Condvar,
    /// Signalled after every job completion for `quiesce` waiters.
    done: Mutex<()>,
    done_cv: Condvar,
}

/// Fixed-size work-stealing thread pool. See the module docs for the
/// counting protocol that backs [`Scheduler::quiesce`].
pub(crate) struct Scheduler {
    inner: Arc<SchedInner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// How long an idle worker (or a quiesce waiter) sleeps between
/// re-checks when a wakeup raced past it.
const IDLE_TICK: Duration = Duration::from_millis(2);

impl Scheduler {
    pub(crate) fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let inner = Arc::new(SchedInner {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            next: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            wake: Mutex::new(()),
            wake_cv: Condvar::new(),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("chef-service-worker-{i}"))
                    .spawn(move || worker_loop(&inner, i))
                    .expect("spawn service worker")
            })
            .collect();
        Scheduler {
            inner,
            workers: Mutex::new(handles),
        }
    }

    /// Number of worker threads.
    pub(crate) fn workers(&self) -> usize {
        self.inner.queues.len()
    }

    /// Jobs accepted but not yet started — the admission layer's
    /// backpressure signal.
    pub(crate) fn queue_depth(&self) -> usize {
        self.inner.pending.load(Ordering::Relaxed)
    }

    /// Jobs currently executing.
    pub(crate) fn active(&self) -> usize {
        self.inner.active.load(Ordering::Relaxed)
    }

    /// Enqueues a job (round-robin across worker deques) and wakes a
    /// worker. Panics if called after [`Scheduler::shutdown`] — the
    /// server's admission layer rejects before this point.
    pub(crate) fn submit(&self, job: Job) {
        assert!(
            !self.inner.shutdown.load(Ordering::SeqCst),
            "submit after shutdown"
        );
        let n = self.inner.queues.len();
        let at = self.inner.next.fetch_add(1, Ordering::Relaxed) % n;
        // `pending` goes up *before* the job becomes visible in a deque
        // (mirroring the active-before-pending order on the take side):
        // a worker can only decrement after the push, so `pending` never
        // wraps below zero, and `quiesce` can never observe
        // pending == 0 && active == 0 while this job is still in flight.
        self.inner.pending.fetch_add(1, Ordering::SeqCst);
        lock(&self.inner.queues[at]).push_back(job);
        let _g = lock(&self.inner.wake);
        self.inner.wake_cv.notify_one();
    }

    /// Blocks until no job is queued or executing. Callers stop
    /// admitting first (otherwise this chases a moving target).
    pub(crate) fn quiesce(&self) {
        loop {
            let g = lock(&self.inner.done);
            if self.inner.pending.load(Ordering::SeqCst) == 0
                && self.inner.active.load(Ordering::SeqCst) == 0
            {
                return;
            }
            let _ = self
                .inner
                .done_cv
                .wait_timeout(g, IDLE_TICK)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Stops the workers: runs everything still queued, then joins the
    /// threads. Idempotent.
    pub(crate) fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        {
            let _g = lock(&self.inner.wake);
            self.inner.wake_cv.notify_all();
        }
        let handles = std::mem::take(&mut *lock(&self.workers));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Poison-tolerant lock: a panicking *job* is caught inside the job
/// wrapper, but defence-in-depth keeps the scheduler serviceable even if
/// a queue mutex is ever poisoned.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn worker_loop(inner: &SchedInner, me: usize) {
    loop {
        match take_job(inner, me) {
            Some(job) => {
                // The server's job wrapper already catches panics and
                // converts them into outcomes; this outer catch is the
                // scheduler's own guarantee that a worker thread (and the
                // `active` count `quiesce` depends on) survives anything
                // a job does.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                inner.active.fetch_sub(1, Ordering::SeqCst);
                let _g = lock(&inner.done);
                inner.done_cv.notify_all();
            }
            None => {
                if inner.shutdown.load(Ordering::SeqCst)
                    && inner.pending.load(Ordering::SeqCst) == 0
                {
                    return;
                }
                let g = lock(&inner.wake);
                // Re-check under the wake lock so a submit that fired
                // between `take_job` and here is not slept through for a
                // full tick (it usually isn't even for the timeout).
                if inner.pending.load(Ordering::SeqCst) == 0
                    && !inner.shutdown.load(Ordering::SeqCst)
                {
                    let _ = inner
                        .wake_cv
                        .wait_timeout(g, IDLE_TICK)
                        .unwrap_or_else(|p| p.into_inner());
                }
            }
        }
    }
}

/// Takes one job: own queue front first (cache-warm), then steals from
/// the back of the other queues. Increments `active` *before*
/// decrementing `pending` — see the module docs.
fn take_job(inner: &SchedInner, me: usize) -> Option<Job> {
    let n = inner.queues.len();
    for k in 0..n {
        let i = (me + k) % n;
        let job = if i == me {
            lock(&inner.queues[i]).pop_front()
        } else {
            lock(&inner.queues[i]).pop_back()
        };
        if let Some(job) = job {
            inner.active.fetch_add(1, Ordering::SeqCst);
            inner.pending.fetch_sub(1, Ordering::SeqCst);
            return Some(job);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_job_exactly_once_across_workers() {
        let sched = Scheduler::new(4);
        let hits = Arc::new(AtomicU64::new(0));
        let used = Arc::new(Mutex::new(std::collections::HashSet::new()));
        for _ in 0..200 {
            let hits = Arc::clone(&hits);
            let used = Arc::clone(&used);
            sched.submit(Box::new(move || {
                // Enough dwell time that one worker cannot drain the
                // whole burst before the others wake.
                std::thread::sleep(Duration::from_micros(300));
                hits.fetch_add(1, Ordering::SeqCst);
                used.lock().unwrap().insert(std::thread::current().id());
            }));
        }
        sched.quiesce();
        assert_eq!(hits.load(Ordering::SeqCst), 200);
        // The burst is spread over more than one worker (work stealing
        // plus round-robin placement).
        assert!(lock(&used).len() > 1);
        sched.shutdown();
        assert_eq!(sched.queue_depth(), 0);
        assert_eq!(sched.active(), 0);
    }

    #[test]
    fn quiesce_waits_for_slow_in_flight_jobs() {
        let sched = Scheduler::new(2);
        let done = Arc::new(AtomicBool::new(false));
        let d = Arc::clone(&done);
        sched.submit(Box::new(move || {
            std::thread::sleep(Duration::from_millis(30));
            d.store(true, Ordering::SeqCst);
        }));
        sched.quiesce();
        assert!(done.load(Ordering::SeqCst), "quiesce returned early");
    }
}
