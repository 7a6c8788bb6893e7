//! Minimal scoped-thread data parallelism.
//!
//! The workloads in this workspace are embarrassingly parallel over an
//! index range, and only the run-level loops split that range: the
//! ensemble samples `run_streaming_ensemble` simulates, the evaluation
//! steps a sweep reduces and estimates, the samples one step aligns to
//! its reference, and fig 3's three panels. Every kernel below them
//! (force sweeps, ICP, the estimators) runs on its caller's thread.
//! Rather than pull in a full work-stealing runtime, this crate provides
//! one tiny, dependency-free parallel map, [`parallel_map_with`] (one
//! persistent scratch value per worker), built on [`std::thread::scope`]
//! with an atomic work counter for dynamic load balancing;
//! [`parallel_map`] is that map over unit workers. [`resolve_threads`]
//! is the one reading of a `threads` argument of 0.
//!
//! Design points (see the Rust Performance Book & "Rust Atomics and Locks"
//! guidance this workspace follows):
//!
//! * **Determinism** — each worker returns the `(index, value)` pairs of
//!   the tasks it ran, and after the scope joins every value moves into
//!   its index's output slot, so the output order never depends on the
//!   thread schedule. No slot is written from two threads, and the crate
//!   has no `unsafe`. Seed *derivation* (not shared streams) keeps
//!   stochastic tasks reproducible; see `sops_math::rng::derive_seed`.
//! * **Dynamic balancing** — workers claim indices with `fetch_add`
//!   (relaxed ordering suffices: the counter is only a work dispenser and
//!   the join provides the final happens-before edge).
//! * **Panic safety** — a panicking task aborts the call with the
//!   original panic payload, whatever the thread count. Each task runs
//!   under `catch_unwind`; a worker whose task panicked stops claiming
//!   and returns that task's index and payload, and after the join the
//!   lowest-index payload is re-raised. Workers claim indices in
//!   increasing order and stop only past the end or after their own
//!   task panicked, so every index below a claimed one ran: the payload
//!   is the one a sequential loop would raise, not
//!   `std::thread::scope`'s generic "a scoped thread panicked".

#![forbid(unsafe_code)]

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Maximum number of worker threads used by [`parallel_map`] when no
/// explicit count is given.
///
/// Resolution order: the `SOPS_THREADS` environment variable if set and
/// parseable, else [`std::thread::available_parallelism`], else 1.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("SOPS_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The worker count a `threads` argument asks for: `threads` itself, or
/// [`default_threads`] when it is 0 — the one reading of "0 = default"
/// every run-level loop in the workspace shares.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        default_threads()
    } else {
        threads
    }
}

/// Applies `f` to every index in `0..len`, in parallel, collecting results
/// in index order.
///
/// This is [`parallel_map_with`] over `threads.max(1).min(len.max(1))`
/// unit workers, so the output is identical to
/// `(0..len).map(f).collect()` regardless of scheduling, and a panicking
/// task re-raises as it does there.
///
/// Falls back to a sequential loop when `len` or the thread count is 1 —
/// callers don't pay thread spawn costs for trivial work.
pub fn parallel_map<T, F>(len: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut workers = vec![(); threads.max(1).min(len.max(1))];
    parallel_map_with(len, &mut workers, |(), i| f(i))
}

/// Applies `f` to every index in `0..len` in parallel, each worker thread
/// owning one element of `workers` — persistent per-worker state (scratch
/// buffers, caches) reused across every index that worker claims — and
/// collects the results in index order.
///
/// The worker count is `workers.len()`, capped at `len`; with one worker
/// (or at most one index) the map is a sequential loop on the caller's
/// thread. Which worker processes which index depends on scheduling, so
/// `f` must produce a result that does not depend on the worker's
/// accumulated state (workspaces that only cache buffer *capacity*
/// satisfy this); each worker keeps its `(index, value)` pairs, and the
/// values fill their index's slot after the scope joins.
///
/// # Panics
///
/// Panics if `workers` is empty, and re-raises the panic of the
/// lowest-index task that panicked.
pub fn parallel_map_with<T, W, F>(len: usize, workers: &mut [W], f: F) -> Vec<T>
where
    T: Send,
    W: Send,
    F: Fn(&mut W, usize) -> T + Sync,
{
    assert!(!workers.is_empty(), "parallel_map_with: no workers");
    let threads = workers.len().min(len.max(1));
    if threads == 1 || len <= 1 {
        let w = &mut workers[0];
        return (0..len).map(|i| f(w, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let (next, f) = (&next, &f);
    let per_worker: Vec<WorkerOutcome<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .take(threads)
            .map(|w| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        // Relaxed is enough: the counter only dispenses
                        // indices; the join synchronizes the values.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= len {
                            return Ok(done);
                        }
                        match catch_unwind(AssertUnwindSafe(|| f(w, i))) {
                            Ok(value) => done.push((i, value)),
                            Err(payload) => return Err((i, payload)),
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    let (done, panics): (Vec<_>, Vec<_>) = per_worker.into_iter().partition(Result::is_ok);
    if let Some((_, payload)) = panics
        .into_iter()
        .filter_map(Result::err)
        .min_by_key(|p| p.0)
    {
        resume_unwind(payload);
    }
    let mut out: Vec<Option<T>> = std::iter::repeat_with(|| None).take(len).collect();
    for (i, value) in done.into_iter().filter_map(Result::ok).flatten() {
        out[i] = Some(value);
    }
    out.into_iter()
        .map(|slot| slot.expect("parallel_map_with: slot not filled"))
        .collect()
}

/// What one worker of [`parallel_map_with`] hands back at the join: its
/// tasks' `(index, value)` pairs, or the index and payload of the one
/// task of its that panicked.
type WorkerOutcome<T> = Result<Vec<(usize, T)>, (usize, Box<dyn Any + Send>)>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_matches_sequential() {
        let par = parallel_map(1000, 8, |i| i * i);
        let seq: Vec<usize> = (0..1000).map(|i| i * i).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn map_with_one_thread_and_empty() {
        assert_eq!(parallel_map(5, 1, |i| i + 1), vec![1, 2, 3, 4, 5]);
        let empty: Vec<usize> = parallel_map(0, 8, |i| i);
        assert!(empty.is_empty());
    }

    #[test]
    fn map_preserves_order_under_uneven_work() {
        // Make early indices slow so late indices finish first.
        let out = parallel_map(64, 8, |i| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn map_with_matches_sequential_and_uses_workers() {
        let mut workers: Vec<u64> = vec![0; 4];
        let out = parallel_map_with(100, &mut workers, |w, i| {
            *w += 1;
            i * 3
        });
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        // Every index was claimed by exactly one worker.
        assert_eq!(workers.iter().sum::<u64>(), 100);
    }

    #[test]
    fn map_with_single_worker_is_sequential() {
        let mut workers = vec![String::new()];
        let out = parallel_map_with(5, &mut workers, |w, i| {
            w.push('x');
            i
        });
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(workers[0].len(), 5);
    }

    #[test]
    fn stress_many_small_maps() {
        for round in 0..50 {
            let out = parallel_map(17, 8, move |i| i + round);
            assert_eq!(out[16], 16 + round);
        }
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn resolve_threads_reads_zero_as_the_default() {
        assert_eq!(resolve_threads(0), default_threads());
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }

    type Task<'a> = dyn Fn(usize) + Sync + 'a;

    /// Runs `call` over twelve tasks at 1 and 4 threads and asserts it
    /// raises task 3's panic. Tasks 3 and 7 panic; with several threads
    /// task 3 first waits until task 7 has panicked, so the higher index
    /// panics first in time.
    fn assert_lowest_index_panic(call: impl Fn(usize, &Task<'_>)) {
        for threads in [1usize, 4] {
            let seven_panicked = std::sync::atomic::AtomicBool::new(false);
            let task = |i: usize| match i {
                3 => {
                    while threads > 1 && !seven_panicked.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    panic!("task 3 failed")
                }
                7 => {
                    seven_panicked.store(true, Ordering::SeqCst);
                    panic!("task 7 failed")
                }
                _ => {}
            };
            let payload = std::panic::catch_unwind(AssertUnwindSafe(|| call(threads, &task)))
                .expect_err("the call must panic");
            let message = match payload.downcast::<&str>() {
                Ok(message) => message.to_string(),
                Err(payload) => *payload.downcast::<String>().expect("a string payload"),
            };
            assert_eq!(message, "task 3 failed", "{threads} thread(s)");
        }
    }

    #[test]
    fn map_raises_the_lowest_index_panic() {
        assert_lowest_index_panic(|threads, task| {
            parallel_map(12, threads, task);
        });
    }

    #[test]
    fn map_with_raises_the_lowest_index_panic() {
        assert_lowest_index_panic(|threads, task| {
            let mut workers = vec![(); threads];
            parallel_map_with(12, &mut workers, |_, i| task(i));
        });
    }

    #[test]
    fn map_handles_non_copy_results() {
        let out = parallel_map(100, 4, |i| vec![i; i % 5]);
        assert_eq!(out[7], vec![7, 7]);
        assert!(out[0].is_empty());
    }
}
