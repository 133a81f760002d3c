//! Work pins: the exploration work each model checker does over a whole
//! cell, summed from the public per-class reports.
//!
//! The golden digests (`verdict_digest`) hash verdicts and refutation
//! schedules only, so they cannot see a checker that reaches the same
//! verdicts by exploring more or fewer states. These pins hold the
//! summed `states` (`classes` for the SSYNC adversary), `edges` and
//! `deduped` of every cell still, so a change to the exploration core
//! that alters its search order, its interning or its budget sites
//! shows up here even when every verdict survives. The verified
//! algorithm has no nontrivial equivariance, so nothing is deduped.
//!
//! The n = 8 rows are release-only (`cargo test --release`).

use gathering::SevenGather;
use robots::adversary::{AdversaryOptions, Checker};
use robots::async_model::{AsyncChecker, AsyncOptions};
use robots::faults::{CrashChecker, CrashOptions};
use robots::Configuration;

/// `(states, edges, deduped)` summed over every class of a cell.
type Work = (usize, usize, usize);

/// The summed work of the verified algorithm's `n`-robot cell under
/// `sched` (`adversary`, `crash:1` or `lcm-async`), with the sweep's
/// checker construction and one checker shared by the whole cell.
fn cell_work(n: usize, sched: &str) -> Work {
    let algo = SevenGather::verified();
    let classes = polyhex::enumerate_fixed(n);
    let initial = |cells: &Vec<trigrid::Coord>| Configuration::new(cells.iter().copied());
    let capacity = n.max(8);
    let rows: Vec<Work> = match sched {
        "adversary" => {
            let checker = Checker::for_robots(&algo, AdversaryOptions::for_robots(n), capacity);
            parallel::par_map(&classes, 0, |cells| {
                let r = checker.check(&initial(cells));
                (r.classes, r.edges, r.deduped)
            })
        }
        "crash:1" => {
            let checker = CrashChecker::for_robots(&algo, CrashOptions::new(1, 0), capacity);
            parallel::par_map(&classes, 0, |cells| {
                let r = checker.check(&initial(cells));
                (r.states, r.edges, r.deduped)
            })
        }
        "lcm-async" => {
            let checker = AsyncChecker::for_robots(&algo, AsyncOptions::default(), capacity);
            parallel::par_map(&classes, 0, |cells| {
                let r = checker.check(&initial(cells));
                (r.states, r.edges, r.deduped)
            })
        }
        other => panic!("no work pin for {other}"),
    };
    rows.iter().fold((0, 0, 0), |acc, r| (acc.0 + r.0, acc.1 + r.1, acc.2 + r.2))
}

#[test]
fn n7_adversary_work_is_pinned() {
    assert_eq!(cell_work(7, "adversary"), (318_817, 778_269, 0));
}

#[test]
fn n7_crash_work_is_pinned() {
    assert_eq!(cell_work(7, "crash:1"), (78_885, 113_048, 0));
}

#[test]
fn n7_async_work_is_pinned() {
    assert_eq!(cell_work(7, "lcm-async"), (358_085, 622_274, 0));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "n = 8 cells are release-only; run cargo test --release")]
fn n8_adversary_work_is_pinned() {
    assert_eq!(cell_work(8, "adversary"), (1_974_779, 5_629_101, 0));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "n = 8 cells are release-only; run cargo test --release")]
fn n8_crash_work_is_pinned() {
    assert_eq!(cell_work(8, "crash:1"), (5_475_073, 22_457_559, 0));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "n = 8 cells are release-only; run cargo test --release")]
fn n8_async_work_is_pinned() {
    assert_eq!(cell_work(8, "lcm-async"), (2_315_018, 4_441_421, 0));
}
