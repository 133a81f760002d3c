//! # parallel — small parallel executors for embarrassingly parallel sweeps
//!
//! The paper's evaluation is an exhaustive sweep over 3652 independent
//! simulations — a textbook embarrassingly parallel workload. Rather than
//! pulling in a data-parallelism framework, this crate runs two small,
//! auditable entry points on one claim loop over `std::thread::scope`
//! (self-scheduling: Tang & Yew, ICPP 1986). Workers claim the next index
//! from one atomic counter, so no worker hoards a batch however skewed
//! the per-item costs are (a model-checking proof explores thousands of
//! states where a refutation stops at its first bad terminal).
//!
//! * [`par_map`] — every result, in input order.
//! * [`par_find_min`] — deterministic early-exit search: the
//!   lowest-indexed hit, whatever the thread count (the sweep's
//!   fail-fast counterexample hunt and the impossibility search).
//!
//! Both take a `threads` argument; `0` means "use all available cores",
//! and `1` runs the loop on the calling thread alone. A panic inside `f`
//! is caught per item and re-raised on the caller, with its own payload,
//! once every worker has drained: [`par_map`] still runs every other
//! item, [`par_find_min`] every item below the panicking one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use telemetry::Counter;

pub mod stealing;

/// Process-lifetime total of items the claim loop ran. Workers tally
/// into a plain local and flush here once when they retire (per-worker
/// sharding — see DESIGN.md §16).
static POOL_TASKS: Counter = Counter::new();

/// Items that `f` has run on so far, in any worker of either entry
/// point, over the process lifetime; subtract two readings to attribute
/// pool activity to one sweep shard.
pub fn pool_stats() -> u64 {
    POOL_TASKS.get()
}

/// Resolves a `threads` argument: `0` becomes the number of available
/// cores (at least 1).
#[must_use]
pub fn resolve_threads(threads: usize) -> usize {
    if threads != 0 {
        return threads.max(1);
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The one scheduling loop behind both entry points. The calling thread
/// and `threads - 1` scoped helpers claim ascending indices from one
/// counter and run `f` on each under `catch_unwind`. With `stop_at_first`,
/// every `Some` result or caught panic stops claims above its index.
/// Returns every `Some` result and every caught panic with its index, in
/// no particular order, once all workers have drained.
fn claim<R, F>(
    len: usize,
    threads: usize,
    stop_at_first: bool,
    f: F,
) -> Vec<(usize, std::thread::Result<R>)>
where
    R: Send,
    F: Fn(usize) -> Option<R> + Sync,
{
    let threads = resolve_threads(threads).min(len.max(1));
    // Both atomics publish no data (results reach the caller through the
    // scope's joins), so `Relaxed` suffices: `fetch_add` alone makes
    // every claim unique, and a stale bound only costs a wasted item.
    let next = AtomicUsize::new(0);
    let bound = AtomicUsize::new(len);
    let work = || {
        let mut local = Vec::new();
        let mut ran = 0u64;
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            // Claims ascend, so every later claim would be at or above
            // the bound too.
            if i >= bound.load(Ordering::Relaxed) {
                break;
            }
            ran += 1;
            if let Some(result) = catch_unwind(AssertUnwindSafe(|| f(i))).transpose() {
                if stop_at_first {
                    bound.fetch_min(i, Ordering::Relaxed);
                }
                local.push((i, result));
            }
        }
        POOL_TASKS.add(ran);
        local
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut pairs = work();
        for helper in helpers {
            pairs.append(&mut helper.join().unwrap_or_else(|payload| resume_unwind(payload)));
        }
        pairs
    })
}

/// Applies `f` to every item, returning the results in input order,
/// independent of thread count and scheduling. Also exported as
/// [`stealing::par_map_stealing`].
///
/// The call is unwind-safe: a panic inside `f` does not tear down the
/// workers mid-drain. Every remaining item still runs, and the
/// lowest-indexed panic payload is re-raised on the calling thread
/// afterwards — so a caller that isolates panics per item (e.g. the
/// sweep's per-class `catch_unwind`) never loses the work of innocent
/// items to a poisoned sibling.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut pairs = claim(items.len(), threads, false, |i| Some(f(&items[i])));
    pairs.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(pairs.len(), items.len());
    pairs.into_iter().map(|(_, r)| r.unwrap_or_else(|payload| resume_unwind(payload))).collect()
}

/// Deterministic early-exit search: returns the **lowest-indexed** item
/// for which `f` returns `Some`, independent of thread count and
/// scheduling.
///
/// A hit or a panic bounds the search: indices above the lowest one so
/// far are never claimed, while every index below it is still scanned.
/// Use it when the result feeds deterministic records (e.g. the sweep
/// pipeline's fail-fast counterexample hunt) or when per-item costs are
/// wildly skewed (the impossibility search's subtrees), since no worker
/// hoards a batch. A panic below the lowest hit is re-raised with its
/// own payload once the workers drain, as a serial scan would raise it.
pub fn par_find_min<T, R, F>(items: &[T], threads: usize, f: F) -> Option<(usize, R)>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> Option<R> + Sync,
{
    let hits = claim(items.len(), threads, true, |i| f(&items[i]));
    let (i, hit) = hits.into_iter().min_by_key(|&(i, _)| i)?;
    Some((i, hit.unwrap_or_else(|payload| resume_unwind(payload))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        for threads in [0, 1, 2, 3, 8] {
            let out = par_map(&items, threads, |&x| x * x);
            let expected: Vec<u64> = items.iter().map(|&x| x * x).collect();
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn par_map_empty_and_tiny() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn resolve_threads_contract() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(1), 1);
    }

    #[test]
    fn par_find_min_always_returns_the_lowest_hit() {
        // Many hits: the deterministic variant must return the lowest
        // index regardless of thread count, every time.
        let items: Vec<u64> = (0..10_000).collect();
        for threads in [0, 1, 2, 3, 8] {
            for _ in 0..5 {
                let hit = par_find_min(&items, threads, |&x| (x % 1000 == 137).then_some(x));
                assert_eq!(hit, Some((137, 137)), "threads={threads}");
            }
        }
    }

    #[test]
    fn par_find_min_none_when_absent() {
        let items: Vec<u64> = (0..2000).collect();
        assert_eq!(par_find_min(&items, 4, |&x| (x > 5000).then_some(())), None);
        let empty: Vec<u64> = vec![];
        assert_eq!(par_find_min(&empty, 4, |&x| Some(x)), None);
    }

    #[test]
    fn par_find_min_reraises_the_items_own_panic() {
        use std::sync::atomic::AtomicU64;
        let items: Vec<u64> = (0..200).collect();
        for threads in [1, 4] {
            let visited = AtomicU64::new(0);
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                par_find_min(&items, threads, |&x| -> Option<()> {
                    visited.fetch_add(1, Ordering::Relaxed);
                    assert!(x != 13, "poisoned item");
                    None
                })
            }));
            let payload = result.expect_err("the caught panic must re-raise on the caller");
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(msg.contains("poisoned item"), "threads={threads}, payload was: {msg}");
            if threads == 1 {
                // A serial scan stops at the panicking item.
                assert_eq!(visited.load(Ordering::Relaxed), 14);
            }
        }
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..100).collect();
        let _ = par_map(&items, 4, |&x| {
            assert!(x != 50, "boom");
            x
        });
    }
}
