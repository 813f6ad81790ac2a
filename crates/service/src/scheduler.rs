//! Batch scheduler: a fixed pool of worker threads draining one FIFO
//! job queue.
//!
//! The scheduler is deliberately *dumb* about what a job is — a job is a
//! boxed closure, and it does not matter which worker runs it: machines
//! come from chef-exec's process pools, not from the worker. All
//! resilience decisions (admission, budgets, retries, breakers) happen
//! in the closure; the scheduler only guarantees that every accepted job
//! runs exactly once, on some worker, and that [`Scheduler::quiesce`]
//! returns only when nothing is queued *or* executing.
//!
//! One mutex guards the queue, the count of executing jobs and the
//! shutdown flag, so every count is exact and every wait has a matching
//! notify: `work` wakes a worker for a new job (or for shutdown), `idle`
//! wakes `quiesce` when the last job finishes. No wait needs a timeout.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// A unit of work: runs once, on some worker thread.
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

struct State {
    /// Jobs accepted but not yet taken by a worker, oldest first.
    queue: VecDeque<Job>,
    /// Jobs currently executing on some worker.
    active: usize,
    /// Workers exit once this is set and the queue is empty.
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when a job is queued or shutdown begins.
    work: Condvar,
    /// Signalled when the queue is empty and no job is executing.
    idle: Condvar,
}

/// Fixed-size thread pool over one FIFO queue.
pub(crate) struct Scheduler {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Scheduler {
    pub(crate) fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                active: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("chef-service-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn service worker")
            })
            .collect();
        Scheduler {
            shared,
            workers: Mutex::new(handles),
        }
    }

    /// Jobs accepted but not yet started — the admission layer's
    /// backpressure signal.
    pub(crate) fn queue_depth(&self) -> usize {
        lock(&self.shared.state).queue.len()
    }

    /// Jobs currently executing.
    pub(crate) fn active(&self) -> usize {
        lock(&self.shared.state).active
    }

    /// Enqueues a job and wakes a worker. Panics if called after
    /// [`Scheduler::shutdown`] — the server's admission layer rejects
    /// before this point.
    pub(crate) fn submit(&self, job: Job) {
        let mut st = lock(&self.shared.state);
        assert!(!st.shutdown, "submit after shutdown");
        st.queue.push_back(job);
        self.shared.work.notify_one();
    }

    /// Blocks until no job is queued or executing. Callers stop
    /// admitting first (otherwise this chases a moving target).
    pub(crate) fn quiesce(&self) {
        let mut st = lock(&self.shared.state);
        while !(st.queue.is_empty() && st.active == 0) {
            st = self.shared.idle.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Stops the workers: runs everything still queued, then joins the
    /// threads. Idempotent.
    pub(crate) fn shutdown(&self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.work.notify_all();
        for h in std::mem::take(&mut *lock(&self.workers)) {
            let _ = h.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Poison-tolerant lock: jobs never run under a scheduler lock and their
/// panics are caught, but a poisoned mutex would still stay usable.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn worker_loop(shared: &Shared) {
    let mut st = lock(&shared.state);
    loop {
        if let Some(job) = st.queue.pop_front() {
            st.active += 1;
            drop(st);
            // The server's job wrapper already catches panics and
            // converts them into outcomes; this outer catch is the
            // scheduler's own guarantee that a worker thread (and the
            // `active` count `quiesce` depends on) survives anything a
            // job does.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            st = lock(&shared.state);
            st.active -= 1;
            if st.active == 0 && st.queue.is_empty() {
                shared.idle.notify_all();
            }
        } else if st.shutdown {
            return;
        } else {
            st = shared.work.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::Duration;

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
        // The burst is spread over more than one worker.
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

    #[test]
    fn shutdown_runs_jobs_still_queued_behind_a_gated_job() {
        let sched = Arc::new(Scheduler::new(1));
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let ran = Arc::new(AtomicBool::new(false));
        sched.submit(Box::new(move || gate_rx.recv().unwrap()));
        let r = Arc::clone(&ran);
        sched.submit(Box::new(move || r.store(true, Ordering::SeqCst)));
        // The lone worker holds the gated job; the second waits behind it.
        while !(sched.active() == 1 && sched.queue_depth() == 1) {
            std::thread::yield_now();
        }
        let stopper = {
            let sched = Arc::clone(&sched);
            std::thread::spawn(move || sched.shutdown())
        };
        // Shutdown has begun (further submits are refused) while the
        // queued job still waits for the gate.
        while !lock(&sched.shared.state).shutdown {
            std::thread::yield_now();
        }
        assert!(!ran.load(Ordering::SeqCst));
        gate_tx.send(()).unwrap();
        stopper.join().unwrap();
        assert!(ran.load(Ordering::SeqCst), "shutdown dropped a queued job");
        assert_eq!(sched.queue_depth(), 0);
    }
}
