//! # parallel — small parallel executors for embarrassingly parallel sweeps
//!
//! The paper's evaluation is an exhaustive sweep over 3652 independent
//! simulations — a textbook embarrassingly parallel workload. Rather than
//! pulling in a full data-parallelism framework, this crate provides two
//! small, auditable entry points built on `std::thread::scope`,
//! `crossbeam` and `parking_lot` (the crates allowed for this
//! reproduction):
//!
//! * [`par_map`] — the crossbeam-deque work-stealing map of
//!   [`stealing`], re-exported here. Per-item costs in this repository
//!   range from uniform (FSYNC runs) to wildly skewed (a model-checking
//!   proof explores thousands of states where a refutation stops at its
//!   first bad terminal); one pool serves both.
//! * [`par_find_min`] — deterministic early-exit search: the
//!   lowest-indexed hit, whatever the thread count (the sweep's
//!   fail-fast counterexample hunt and the impossibility search).
//!
//! Both take a `threads` argument; `0` means "use all available cores".
//! Results preserve input order regardless of scheduling. Worker panics
//! propagate to the caller.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

pub mod stealing;

pub use stealing::par_map_stealing as par_map;

/// Resolves a `threads` argument: `0` becomes the number of available
/// cores (at least 1).
#[must_use]
pub fn resolve_threads(threads: usize) -> usize {
    if threads != 0 {
        return threads.max(1);
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Deterministic early-exit search: returns the **lowest-indexed** item
/// for which `f` returns `Some`, independent of thread count and
/// scheduling.
///
/// Workers claim one index at a time in ascending order. A hit bounds
/// the search: indices above the lowest hit so far are never claimed,
/// while every index below it is still scanned. Use it when the result
/// feeds deterministic records (e.g. the sweep pipeline's fail-fast
/// counterexample hunt) or when per-item costs are wildly skewed (the
/// impossibility search's subtrees), since no worker hoards a batch.
pub fn par_find_min<T, R, F>(items: &[T], threads: usize, f: F) -> Option<(usize, R)>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> Option<R> + Sync,
{
    let threads = resolve_threads(threads).min(items.len().max(1));
    if threads <= 1 {
        return items.iter().enumerate().find_map(|(i, t)| f(t).map(|r| (i, r)));
    }
    let next = AtomicUsize::new(0);
    // Lowest hit index so far; items above it need not be scanned.
    let bound = AtomicUsize::new(usize::MAX);
    let best: Mutex<Option<(usize, R)>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() || i > bound.load(Ordering::Relaxed) {
                    // Claims are handed out in ascending order, so every
                    // later claim would be above the bound too.
                    break;
                }
                if let Some(r) = f(&items[i]) {
                    bound.fetch_min(i, Ordering::Relaxed);
                    let mut guard = best.lock();
                    if guard.as_ref().is_none_or(|(j, _)| i < *j) {
                        *guard = Some((i, r));
                    }
                }
            });
        }
    });
    best.into_inner()
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
    #[should_panic]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..100).collect();
        let _ = par_map(&items, 4, |&x| {
            assert!(x != 50, "boom");
            x
        });
    }
}
