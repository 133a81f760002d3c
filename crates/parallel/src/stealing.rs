//! Work-stealing executor on `crossbeam::deque`, re-exported as
//! [`crate::par_map`].
//!
//! Each worker owns an LIFO deque preloaded with an even share of the
//! item indices; when its own deque runs dry it steals batches from the
//! other workers. This keeps every core busy when the per-item cost is
//! heavily skewed (e.g. a model-checking proof that explores thousands
//! of states next to a refutation that stops at its first bad
//! terminal), and costs nothing measurable on uniform work.

use crossbeam::deque::{Steal, Stealer, Worker};
use parking_lot::Mutex;
use telemetry::Counter;

/// Process-lifetime totals for the stealing executor. Workers tally
/// into plain locals and flush here once when they retire, so the hot
/// pop/steal loop never touches shared cache lines (per-worker
/// sharding — see DESIGN.md §16).
static POOL_TASKS: Counter = Counter::new();
static POOL_STEAL_BATCHES: Counter = Counter::new();
static POOL_STEAL_RETRIES: Counter = Counter::new();
static POOL_IDLE_PROBES: Counter = Counter::new();
static POOL_SERIAL_CALLS: Counter = Counter::new();

/// A point-in-time reading of the executor totals; subtract two
/// readings (["delta_since"](PoolStats::delta_since)) to attribute pool
/// activity to one sweep shard or one exploration phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Items executed inside stealing workers.
    pub tasks: u64,
    /// Successful `steal_batch` transfers between workers.
    pub steal_batches: u64,
    /// `Steal::Retry` collisions while stealing.
    pub steal_retries: u64,
    /// Probes of a peer deque that found it empty.
    pub idle_probes: u64,
    /// Calls that fell back to the serial path (`threads <= 1`).
    pub serial_calls: u64,
}

impl PoolStats {
    /// Component-wise difference against an earlier reading
    /// (saturating, so a stale `earlier` cannot underflow).
    pub fn delta_since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            tasks: self.tasks.saturating_sub(earlier.tasks),
            steal_batches: self.steal_batches.saturating_sub(earlier.steal_batches),
            steal_retries: self.steal_retries.saturating_sub(earlier.steal_retries),
            idle_probes: self.idle_probes.saturating_sub(earlier.idle_probes),
            serial_calls: self.serial_calls.saturating_sub(earlier.serial_calls),
        }
    }
}

/// Current process-lifetime executor totals.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        tasks: POOL_TASKS.get(),
        steal_batches: POOL_STEAL_BATCHES.get(),
        steal_retries: POOL_STEAL_RETRIES.get(),
        idle_probes: POOL_IDLE_PROBES.get(),
        serial_calls: POOL_SERIAL_CALLS.get(),
    }
}

/// Applies `f` to every item on a work-stealing pool, returning results
/// in input order. Also exported as [`crate::par_map`].
///
/// With `threads == 1` (or a single item) the call degrades to a
/// sequential loop with no thread spawns.
///
/// The pool is unwind-safe: a panic inside `f` does not tear down the
/// scope mid-drain. The panicking item's worker catches the payload,
/// every worker finishes the remaining items, and the *first* payload
/// is re-raised on the calling thread after the pool drains — so a
/// caller that isolates panics per item (e.g. the sweep's per-class
/// `catch_unwind`) never loses the work of innocent items to a
/// poisoned sibling.
pub fn par_map_stealing<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = crate::resolve_threads(threads).min(items.len().max(1));
    if threads <= 1 {
        POOL_SERIAL_CALLS.inc();
        POOL_TASKS.add(items.len() as u64);
        return items.iter().map(f).collect();
    }

    // Deal the indices round-robin across the workers' deques.
    let workers: Vec<Worker<usize>> = (0..threads).map(|_| Worker::new_lifo()).collect();
    let stealers: Vec<Stealer<usize>> = workers.iter().map(Worker::stealer).collect();
    for (i, _) in items.iter().enumerate() {
        workers[i % threads].push(i);
    }

    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    // First panic payload caught in any worker; re-raised after the
    // drain so the caller sees the same panic it would have seen
    // serially, just without losing the rest of the batch.
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for (me, worker) in workers.into_iter().enumerate() {
            let stealers = &stealers;
            let collected = &collected;
            let panic_payload = &panic_payload;
            let f = &f;
            scope.spawn(move || {
                let mut local: Vec<(usize, R)> = Vec::new();
                // Worker-local tallies, flushed to the pool counters once
                // at retirement so the hot loop stays contention-free.
                let (mut batches, mut retries, mut probes) = (0u64, 0u64, 0u64);
                'work: loop {
                    // Drain our own deque first.
                    while let Some(i) = worker.pop() {
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                            || f(&items[i]),
                        )) {
                            Ok(r) => local.push((i, r)),
                            Err(payload) => {
                                let mut slot = panic_payload.lock();
                                if slot.is_none() {
                                    *slot = Some(payload);
                                }
                            }
                        }
                    }
                    // Then try to steal a batch from any other worker.
                    for (other, stealer) in stealers.iter().enumerate() {
                        if other == me {
                            continue;
                        }
                        loop {
                            match stealer.steal_batch(&worker) {
                                Steal::Success(()) => {
                                    batches += 1;
                                    continue 'work;
                                }
                                Steal::Retry => {
                                    retries += 1;
                                    continue;
                                }
                                Steal::Empty => {
                                    probes += 1;
                                    break;
                                }
                            }
                        }
                    }
                    break; // everyone is empty
                }
                POOL_TASKS.add(local.len() as u64);
                POOL_STEAL_BATCHES.add(batches);
                POOL_STEAL_RETRIES.add(retries);
                POOL_IDLE_PROBES.add(probes);
                if !local.is_empty() {
                    collected.lock().append(&mut local);
                }
            });
        }
    });

    if let Some(payload) = panic_payload.into_inner() {
        std::panic::resume_unwind(payload);
    }
    let mut pairs = collected.into_inner();
    pairs.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(pairs.len(), items.len());
    pairs.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_map() {
        let items: Vec<u64> = (0..2000).collect();
        for threads in [0, 1, 2, 4, 7] {
            let out = par_map_stealing(&items, threads, |&x| x.wrapping_mul(2654435761));
            let expected: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(2654435761)).collect();
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn handles_skewed_workloads() {
        // Items at the front are 1000x more expensive; stealing must still
        // cover everything exactly once and keep order.
        let items: Vec<u64> = (0..256).collect();
        let out = par_map_stealing(&items, 4, |&x| {
            let iters = if x < 8 { 100_000 } else { 100 };
            let mut acc = x;
            for _ in 0..iters {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc).0
        });
        assert_eq!(out, items);
    }

    #[test]
    fn empty_input() {
        let empty: Vec<u8> = vec![];
        assert!(par_map_stealing(&empty, 4, |&x| x).is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let items = [1u32, 2, 3];
        assert_eq!(par_map_stealing(&items, 16, |&x| x * 10), vec![10, 20, 30]);
    }

    #[test]
    fn panic_drains_remaining_items_then_reraises() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let items: Vec<u64> = (0..200).collect();
        let started = AtomicU64::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map_stealing(&items, 4, |&x| {
                started.fetch_add(1, Ordering::Relaxed);
                assert!(x != 13, "poisoned item");
                x
            })
        }));
        let payload = result.expect_err("the caught panic must re-raise on the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("poisoned item"), "payload was: {msg}");
        // Every item ran despite the mid-drain panic — the pool kept
        // draining instead of tearing down the scope.
        assert_eq!(started.load(Ordering::Relaxed), items.len() as u64);
    }
}
