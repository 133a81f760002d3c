//! Integration contracts for the parallel executors: input order is
//! preserved under every thread count, and the early-exit search
//! actually exits early.

use parallel::{par_find_min, par_map, stealing::par_map_stealing};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A mildly expensive pure function so multi-thread runs really
/// interleave.
fn scramble(x: u64) -> u64 {
    let mut acc = x;
    for _ in 0..32 {
        acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
    }
    acc
}

#[test]
fn par_map_preserves_order_across_thread_counts() {
    let items: Vec<u64> = (0..4096).collect();
    let expected: Vec<u64> = items.iter().map(|&x| scramble(x)).collect();
    for threads in [1, 2, 0] {
        let out = par_map(&items, threads, |&x| scramble(x));
        assert_eq!(out, expected, "threads={threads}");
    }
}

#[test]
fn par_find_min_early_exits_sequentially() {
    // The single-threaded path is deterministic: the search must stop
    // at the hit, visiting exactly the items before and including it.
    let items: Vec<u64> = (0..100_000).collect();
    let visited = AtomicUsize::new(0);
    let hit = par_find_min(&items, 1, |&x| {
        visited.fetch_add(1, Ordering::Relaxed);
        (x == 500).then_some(x)
    });
    assert_eq!(hit, Some((500, 500)));
    assert_eq!(visited.load(Ordering::Relaxed), 501);
}

#[test]
fn par_find_min_early_exits_in_parallel() {
    // Worker interleaving is nondeterministic, but once the hit lands
    // no worker claims past it, so visiting all items would disprove
    // the early exit. (In practice only the claims in flight when the
    // hit lands run past it.)
    let items: Vec<u64> = (0..100_000).collect();
    let visited = AtomicUsize::new(0);
    let hit = par_find_min(&items, 4, |&x| {
        visited.fetch_add(1, Ordering::Relaxed);
        (x == 500).then_some(x)
    });
    assert_eq!(hit, Some((500, 500)));
    let count = visited.load(Ordering::Relaxed);
    assert!(count < items.len(), "all {count} items visited: no early exit");
}

#[test]
fn par_find_min_exhausts_when_absent() {
    let items: Vec<u64> = (0..10_000).collect();
    let visited = AtomicUsize::new(0);
    let hit = par_find_min(&items, 4, |&_x| -> Option<()> {
        visited.fetch_add(1, Ordering::Relaxed);
        None
    });
    assert_eq!(hit, None);
    assert_eq!(visited.load(Ordering::Relaxed), items.len());
}

#[test]
fn executors_agree_on_empty_and_single_inputs() {
    // `par_map` and `stealing::par_map_stealing` name one executor;
    // both public paths stay callable.
    let empty: Vec<u64> = Vec::new();
    assert!(par_map(&empty, 0, |&x| x).is_empty());
    assert!(par_map_stealing(&empty, 0, |&x| x).is_empty());
    assert_eq!(par_map(&[9u64], 0, |&x| x + 1), vec![10]);
    assert_eq!(par_map_stealing(&[9u64], 0, |&x| x + 1), vec![10]);
}
