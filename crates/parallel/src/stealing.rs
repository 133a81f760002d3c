//! [`par_map_stealing`] is [`crate::par_map`] under an older name, kept
//! because `perfbench/src/main.rs` imports it by this path.

pub use crate::par_map as par_map_stealing;

#[cfg(test)]
mod tests {
    use crate::par_map;

    #[test]
    fn matches_sequential_map() {
        let items: Vec<u64> = (0..2000).collect();
        for threads in [0, 1, 2, 4, 7] {
            let out = par_map(&items, threads, |&x| x.wrapping_mul(2654435761));
            let expected: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(2654435761)).collect();
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn handles_skewed_workloads() {
        // Items at the front are 1000x more expensive; the claim loop
        // must still cover everything exactly once and keep order.
        let items: Vec<u64> = (0..256).collect();
        let out = par_map(&items, 4, |&x| {
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
        assert!(par_map(&empty, 4, |&x| x).is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let items = [1u32, 2, 3];
        assert_eq!(par_map(&items, 16, |&x| x * 10), vec![10, 20, 30]);
    }

    #[test]
    fn panic_drains_remaining_items_then_reraises() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let items: Vec<u64> = (0..200).collect();
        let started = AtomicU64::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(&items, 4, |&x| {
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
        // Every item ran despite the mid-drain panic — the workers kept
        // draining instead of tearing down the scope.
        assert_eq!(started.load(Ordering::Relaxed), items.len() as u64);
    }
}
