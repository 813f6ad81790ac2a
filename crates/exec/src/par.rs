//! A minimal scoped-thread parallel map, shared by the batch execution
//! APIs here and the candidate-validation loops in `chef-tuner`.
//!
//! The workspace builds offline (no rayon), so this wraps the one
//! fan-out shape the analysis loops need: consume a `Vec` of independent
//! inputs, apply `f`, and return the outputs **in input order**. Work is
//! split into contiguous chunks, one scoped thread per chunk, so there
//! is no work stealing — fine for the homogeneous workloads the engine
//! runs (same compiled function, different arguments).
//!
//! Items are **panic-isolated**: each application of `f` runs under
//! `catch_unwind`, a panicking item re-initializes its worker's state
//! (which may have been left mid-mutation) and every sibling item still
//! runs to completion; the first panic payload is re-raised once the
//! whole batch has finished. Callers that want panics as *values*
//! (chef-tuner's per-trial fault layer) wrap their own `catch_unwind`
//! inside `f`; the isolation here is the backstop that keeps one bad
//! trial from discarding a batch.

/// Applies `f` to every item on a pool of scoped threads, preserving
/// input order. `max_threads = None` uses the machine's available
/// parallelism; tiny inputs (or `max_threads = Some(1)`) run inline
/// with no thread spawned.
pub fn parallel_map<T, R, F>(items: Vec<T>, max_threads: Option<usize>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_init(items, max_threads, || (), |(), item| f(item))
}

/// [`parallel_map`] with per-worker state: `init` runs once on each
/// worker thread (and once for the inline fallback), and `f` receives a
/// mutable borrow of that worker's state for every item it processes.
///
/// This is the shape the execution engine's batch APIs need — one
/// reusable [`crate::vm::Machine`] (or shadow machine) per worker,
/// amortized over the worker's whole chunk — without forcing the state
/// type into a `thread_local!` (which cannot be generic).
pub fn parallel_map_init<T, R, S, I, F>(
    items: Vec<T>,
    max_threads: Option<usize>,
    init: I,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    let n = items.len();
    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    let threads = max_threads.unwrap_or(hw).min(n).max(1);
    let (f, init) = (&f, &init);
    // One worker's whole chunk, panic-isolated per item: a panic is
    // caught into the item's slot and rebuilds the state (the old one
    // may be mid-mutation), and the remaining items still run.
    let run_chunk = |item_chunk: &mut [Option<T>],
                     res_chunk: &mut [Option<std::thread::Result<R>>]| {
        let mut state = init();
        for (slot, item) in res_chunk.iter_mut().zip(item_chunk.iter_mut()) {
            let item = item.take().expect("each input is consumed once");
            let r = catch_unwind(AssertUnwindSafe(|| f(&mut state, item)));
            if r.is_err() {
                state = init();
            }
            *slot = Some(r);
        }
    };
    let mut items: Vec<Option<T>> = items.into_iter().map(Some).collect();
    let mut results: Vec<Option<std::thread::Result<R>>> = (0..n).map(|_| None).collect();
    if threads <= 1 || n < 2 {
        run_chunk(&mut items, &mut results);
    } else {
        let chunk = n.div_ceil(threads);
        let run_chunk = &run_chunk;
        std::thread::scope(|s| {
            let workers: Vec<_> = results
                .chunks_mut(chunk)
                .zip(items.chunks_mut(chunk))
                .map(|(res_chunk, item_chunk)| s.spawn(move || run_chunk(item_chunk, res_chunk)))
                .collect();
            // Joined by hand: the scope's implicit join may return before
            // a worker's thread-locals are destroyed, `join` only after,
            // so a worker has released its span ring when the map returns.
            for w in workers {
                if let Err(p) = w.join() {
                    resume_unwind(p);
                }
            }
        });
    }
    // The first panic is still the caller's to observe — but only after
    // every sibling finished, so a recovering caller loses one item, not
    // the batch.
    let mut out = Vec::with_capacity(n);
    let mut first_panic = None;
    for r in results {
        match r.expect("every slot is filled by its worker") {
            Ok(v) => out.push(v),
            Err(p) => first_panic = first_panic.or(Some(p)),
        }
    }
    if let Some(p) = first_panic {
        resume_unwind(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let out = parallel_map((0..100).collect(), Some(7), |x: i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_fallbacks_match() {
        let items: Vec<i32> = (0..10).collect();
        let a = parallel_map(items.clone(), Some(1), |x| x + 1);
        let b = parallel_map(items, Some(4), |x| x + 1);
        assert_eq!(a, b);
    }

    #[test]
    fn init_runs_once_per_worker_and_state_is_reused() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let out = parallel_map_init(
            (0..40).collect::<Vec<i32>>(),
            Some(4),
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                0i32 // per-worker running count
            },
            |seen, x| {
                *seen += 1;
                (x, *seen)
            },
        );
        // Order preserved, every item processed exactly once.
        assert_eq!(
            out.iter().map(|(x, _)| *x).collect::<Vec<_>>(),
            (0..40).collect::<Vec<_>>()
        );
        // At most one init per worker thread (4), each reused across its chunk.
        let inits = inits.load(Ordering::SeqCst);
        assert!((1..=4).contains(&inits), "{inits} inits");
        assert!(out.iter().any(|&(_, seen)| seen > 1), "state not reused");
    }

    #[test]
    fn a_panicking_item_does_not_take_its_siblings_down() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicUsize, Ordering};
        let done = AtomicUsize::new(0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            parallel_map((0..16).collect::<Vec<i32>>(), Some(4), |x| {
                if x == 5 {
                    panic!("injected");
                }
                done.fetch_add(1, Ordering::SeqCst);
                x
            })
        }));
        assert!(r.is_err(), "the panic must still reach the caller");
        assert_eq!(done.load(Ordering::SeqCst), 15, "all siblings completed");
    }

    #[test]
    fn worker_state_is_reinitialized_after_a_panicking_item() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            parallel_map_init(
                (0..6).collect::<Vec<i32>>(),
                Some(1),
                || {
                    inits.fetch_add(1, Ordering::SeqCst);
                },
                |(), x| {
                    if x == 2 {
                        panic!("injected");
                    }
                    x
                },
            )
        }));
        assert!(r.is_err());
        assert_eq!(
            inits.load(Ordering::SeqCst),
            2,
            "state is rebuilt after the panicking item"
        );
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(
            parallel_map(Vec::<i32>::new(), None, |x| x),
            Vec::<i32>::new()
        );
        assert_eq!(parallel_map(vec![5], None, |x: i32| x * x), vec![25]);
    }
}
