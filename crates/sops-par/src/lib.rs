//! Minimal scoped-thread data parallelism.
//!
//! The workloads in this workspace are embarrassingly parallel over an
//! index range: `m` ensemble samples to simulate, `t_max` time steps to
//! align and estimate, `R` random matrix draws to sweep. Rather than pull
//! in a full work-stealing runtime, this crate provides a tiny,
//! dependency-free parallel map built on [`std::thread::scope`] with an
//! atomic work counter for dynamic load balancing.
//!
//! Design points (see the Rust Performance Book & "Rust Atomics and Locks"
//! guidance this workspace follows):
//!
//! * **Determinism** — results are written into pre-allocated output slots
//!   indexed by task id, so the output order never depends on the thread
//!   schedule. Seed *derivation* (not shared streams) keeps stochastic
//!   tasks reproducible; see `sops_math::rng::derive_seed`.
//! * **Dynamic balancing** — workers claim indices with `fetch_add`
//!   (relaxed ordering suffices: the counter is only a work dispenser and
//!   `scope` join provides the final happens-before edge).
//! * **Panic safety** — a panicking task aborts the call with the
//!   original panic payload, whatever the thread count. Each task runs
//!   under `catch_unwind`; a worker whose task panicked stops claiming,
//!   and once the scope ends the payload of the lowest-index panicking
//!   task is re-raised. Indices are claimed in order, so that task always
//!   runs, and the payload is the one a sequential loop would raise, not
//!   `std::thread::scope`'s generic "a scoped thread panicked".

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Maximum number of worker threads used by [`parallel_map`] /
/// [`parallel_for`] when no explicit count is given.
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

/// Applies `f` to every index in `0..len`, in parallel, collecting results
/// in index order.
///
/// `f` must be `Sync` (it is shared by reference across workers) and the
/// produced values are written into their index's slot, so the output is
/// identical to `(0..len).map(f).collect()` regardless of scheduling.
///
/// Falls back to a sequential loop when `len` or the thread count is 1 —
/// callers don't pay thread spawn costs for trivial work.
pub fn parallel_map<T, F>(len: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(len.max(1));
    if threads == 1 || len <= 1 {
        return (0..len).map(f).collect();
    }

    let mut out: Vec<Option<T>> = Vec::with_capacity(len);
    out.resize_with(len, || None);
    {
        let next = AtomicUsize::new(0);
        let panics = FirstPanic::default();
        let out_slots = SliceCells::new(&mut out);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    // Relaxed is enough: the counter only dispenses indices;
                    // scope join synchronizes the writes below.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= len {
                        break;
                    }
                    let Some(value) = panics.run(i, || f(i)) else {
                        break;
                    };
                    // SAFETY: every index is claimed exactly once by the
                    // fetch_add above, so no two threads write slot `i`.
                    unsafe { out_slots.write(i, Some(value)) };
                });
            }
        });
        panics.resume();
    }
    out.into_iter()
        .map(|slot| slot.expect("parallel_map: slot not filled"))
        .collect()
}

/// Like [`parallel_map`] but each worker thread owns one element of
/// `workers` — persistent per-worker state (scratch buffers, caches)
/// reused across every index that worker claims.
///
/// The worker count is `workers.len()`. Which worker processes which
/// index depends on scheduling, so `f` must produce a result that does
/// not depend on the worker's accumulated state (workspaces that only
/// cache buffer *capacity* satisfy this); the output is written into
/// index-ordered slots exactly like [`parallel_map`].
///
/// # Panics
///
/// Panics if `workers` is empty.
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
    let mut out: Vec<Option<T>> = Vec::with_capacity(len);
    out.resize_with(len, || None);
    {
        let next = AtomicUsize::new(0);
        let panics = FirstPanic::default();
        let out_slots = SliceCells::new(&mut out);
        let next = &next;
        let panics = &panics;
        let out_slots = &out_slots;
        let f = &f;
        std::thread::scope(|scope| {
            for w in workers.iter_mut().take(threads) {
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= len {
                        break;
                    }
                    let Some(value) = panics.run(i, || f(w, i)) else {
                        break;
                    };
                    // SAFETY: every index is claimed exactly once by the
                    // fetch_add above, so no two threads write slot `i`.
                    unsafe { out_slots.write(i, Some(value)) };
                });
            }
        });
        panics.resume();
    }
    out.into_iter()
        .map(|slot| slot.expect("parallel_map_with: slot not filled"))
        .collect()
}

/// Like [`parallel_map`] but with the default thread count.
pub fn parallel_map_auto<T, F>(len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map(len, default_threads(), f)
}

/// Runs `f(i)` for every index in `0..len` in parallel, for side effects.
pub fn parallel_for<F>(len: usize, threads: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let threads = threads.max(1).min(len.max(1));
    if threads == 1 || len <= 1 {
        for i in 0..len {
            f(i);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let panics = FirstPanic::default();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= len || panics.run(i, || f(i)).is_none() {
                    break;
                }
            });
        }
    });
    panics.resume();
}

/// Splits `data` into disjoint mutable chunks and runs `f(chunk_index,
/// chunk)` on each in parallel.
///
/// Chunks are as even as possible: the first `len % chunks` chunks get one
/// extra element. Useful for in-place per-slice transformations (e.g.
/// aligning each sample's particle vector).
pub fn parallel_chunks_mut<T, F>(data: &mut [T], chunks: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunks = chunks.max(1);
    let len = data.len();
    let base = len / chunks;
    let extra = len % chunks;
    let threads = threads.max(1).min(chunks);
    if threads == 1 || chunks == 1 {
        // Sequential fast path: same deterministic partition, no thread
        // spawn cost — hot per-substep callers (the force sweep) rely on
        // this when inner parallelism is disabled.
        let mut rest = data;
        for c in 0..chunks {
            let take = base + usize::from(c < extra);
            let (head, tail) = rest.split_at_mut(take.min(rest.len()));
            f(c, head);
            rest = tail;
        }
        return;
    }
    let mut slices: Vec<(usize, &mut [T])> = Vec::with_capacity(chunks);
    let mut rest = data;
    for c in 0..chunks {
        let take = base + usize::from(c < extra);
        let (head, tail) = rest.split_at_mut(take.min(rest.len()));
        slices.push((c, head));
        rest = tail;
    }
    let next = AtomicUsize::new(0);
    let panics = FirstPanic::default();
    let cells = SliceCells::new(&mut slices);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= chunks {
                    break;
                }
                // SAFETY: each index claimed once; we only take the chunk
                // out of its slot, never alias it.
                let (idx, chunk) = unsafe { cells.take(i) };
                if panics.run(i, || f(idx, chunk)).is_none() {
                    break;
                }
            });
        }
    });
    panics.resume();
}

/// Parallel fold-then-reduce over `0..len`.
///
/// Each worker folds its claimed indices into a thread-local accumulator
/// created by `init`, and the per-worker accumulators are combined with
/// `merge` in worker order. `merge` must be associative and `init` must be
/// its identity for the result to be schedule-independent; all uses in this
/// workspace (statistics merging, sum of force norms) satisfy that.
pub fn parallel_reduce<A, F, M, I>(len: usize, threads: usize, init: I, fold: F, merge: M) -> A
where
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(A, usize) -> A + Sync,
    M: Fn(A, A) -> A,
{
    let threads = threads.max(1).min(len.max(1));
    if threads == 1 || len <= 1 {
        return (0..len).fold(init(), &fold);
    }
    let next = AtomicUsize::new(0);
    let panics = FirstPanic::default();
    let partials: Vec<Option<A>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut acc = init();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= len {
                            return Some(acc);
                        }
                        acc = panics.run(i, || fold(acc, i))?;
                    }
                })
            })
            .collect();
        // A panic outside every task (in `init`) is re-raised as is.
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    panics.resume();
    partials
        .into_iter()
        .map(|acc| acc.expect("parallel_reduce: a worker stopped without a panic"))
        .fold(init(), merge)
}

/// The panic of the lowest-index task that panicked in one parallel call.
///
/// Which tasks panic first in time depends on the schedule, but the
/// lowest-index panicking task does not: workers claim indices in
/// increasing order and stop only past the end or after their own task
/// panicked, so every index below a claimed one was claimed and run.
/// Re-raising that task's payload gives the call the panic a sequential
/// loop would raise.
#[derive(Default)]
struct FirstPanic(Mutex<Option<(usize, Box<dyn Any + Send>)>>);

impl FirstPanic {
    /// Runs task `i`, returning its value, or `None` after recording its
    /// panic — the worker must then stop claiming.
    fn run<T>(&self, i: usize, task: impl FnOnce() -> T) -> Option<T> {
        match catch_unwind(AssertUnwindSafe(task)) {
            Ok(value) => Some(value),
            Err(payload) => {
                // Every update is one assignment, so a poisoned slot is
                // still a valid record.
                let mut first = self.0.lock().unwrap_or_else(PoisonError::into_inner);
                if first.as_ref().is_none_or(|(j, _)| i < *j) {
                    *first = Some((i, payload));
                }
                None
            }
        }
    }

    /// Re-raises the recorded panic, if any task panicked.
    fn resume(&self) {
        let first = self.0.lock().unwrap_or_else(PoisonError::into_inner).take();
        if let Some((_, payload)) = first {
            resume_unwind(payload);
        }
    }
}

/// Interior-mutability wrapper granting per-index write access to a slice
/// from multiple threads.
///
/// Safety contract: callers must guarantee each index is accessed by at
/// most one thread (enforced in this crate by the `fetch_add` index
/// dispenser).
struct SliceCells<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: access discipline (unique index per thread) is upheld by callers
// within this crate; T: Send makes moving values across threads sound.
unsafe impl<T: Send> Sync for SliceCells<'_, T> {}
unsafe impl<T: Send> Send for SliceCells<'_, T> {}

impl<'a, T> SliceCells<'a, T> {
    fn new(slice: &'a mut [T]) -> Self {
        SliceCells {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Writes `value` into slot `i`, dropping the previous value.
    ///
    /// # Safety
    ///
    /// `i < len` and no other thread may access slot `i` concurrently.
    unsafe fn write(&self, i: usize, value: T) {
        debug_assert!(i < self.len);
        *self.ptr.add(i) = value;
    }

    /// Moves the value out of slot `i` (leaving moved-from memory that must
    /// not be touched again), used for handing `&mut` chunks to workers.
    ///
    /// # Safety
    ///
    /// `i < len`, slot `i` accessed by exactly one thread, and the caller
    /// must ensure the original slice is not used after the scope in a way
    /// that observes the moved-from slot. In this crate the slot type is
    /// `(usize, &mut [T])` which is `Copy`-free but the containing `Vec` is
    /// dropped immediately after the scope without reads.
    #[allow(clippy::mut_from_ref)]
    unsafe fn take(&self, i: usize) -> T
    where
        T: Sized,
    {
        debug_assert!(i < self.len);
        std::ptr::read(self.ptr.add(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

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
    fn map_auto_threads() {
        let out = parallel_map_auto(100, |i| 2 * i);
        assert_eq!(out[99], 198);
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
    fn for_each_visits_every_index_once() {
        let hits: Vec<AtomicU64> = (0..500).map(|_| AtomicU64::new(0)).collect();
        parallel_for(500, 8, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn chunks_mut_partitions_fully() {
        let mut data: Vec<u64> = vec![0; 103];
        parallel_chunks_mut(&mut data, 7, 4, |c, chunk| {
            for v in chunk.iter_mut() {
                *v = c as u64 + 1;
            }
        });
        assert!(data.iter().all(|&v| v > 0), "all elements touched");
        // First 103 % 7 = 5 chunks have 15 elements, rest 14.
        assert_eq!(data.iter().filter(|&&v| v == 1).count(), 15);
        assert_eq!(data.iter().filter(|&&v| v == 7).count(), 14);
    }

    #[test]
    fn chunks_mut_sequential_path_matches_parallel() {
        let run = |threads: usize| {
            let mut data: Vec<u64> = vec![0; 103];
            parallel_chunks_mut(&mut data, 7, threads, |c, chunk| {
                for v in chunk.iter_mut() {
                    *v = c as u64 + 1;
                }
            });
            data
        };
        assert_eq!(run(1), run(4), "partition is thread-count independent");
    }

    #[test]
    fn chunks_mut_more_chunks_than_items() {
        let mut data = vec![1u32; 3];
        parallel_chunks_mut(&mut data, 10, 4, |_, chunk| {
            for v in chunk.iter_mut() {
                *v += 1;
            }
        });
        assert_eq!(data, vec![2, 2, 2]);
    }

    #[test]
    fn reduce_sums_correctly() {
        let total = parallel_reduce(10_000, 8, || 0u64, |acc, i| acc + i as u64, |a, b| a + b);
        assert_eq!(total, 10_000 * 9_999 / 2);
    }

    #[test]
    fn reduce_single_thread_path() {
        let total = parallel_reduce(10, 1, || 1u64, |acc, i| acc * (i as u64 + 1), |a, b| a * b);
        assert_eq!(total, 3_628_800); // 10!
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
    fn for_raises_the_lowest_index_panic() {
        assert_lowest_index_panic(|threads, task| parallel_for(12, threads, task));
    }

    #[test]
    fn chunks_mut_raises_the_lowest_index_panic() {
        assert_lowest_index_panic(|threads, task| {
            let mut data = vec![0u8; 12];
            parallel_chunks_mut(&mut data, 12, threads, |c, _| task(c));
        });
    }

    #[test]
    fn reduce_raises_the_lowest_index_panic() {
        assert_lowest_index_panic(|threads, task| {
            parallel_reduce(12, threads, || (), |(), i| task(i), |(), ()| ());
        });
    }

    #[test]
    fn map_handles_non_copy_results() {
        let out = parallel_map(100, 4, |i| vec![i; i % 5]);
        assert_eq!(out[7], vec![7, 7]);
        assert!(out[0].is_empty());
    }
}
