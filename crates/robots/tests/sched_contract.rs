//! The `Scheduler` trait contract, checked from outside the crate:
//! all-`false` selections are promoted to full activation (fairness),
//! round-robin activates exactly one robot per round, and the random
//! scheduler is a deterministic function of its seed.

use robots::sched::{run_scheduled, FullSync, RandomSubset, RoundRobin, Scheduler};
use robots::{Configuration, FnAlgorithm, Limits, Outcome, View};
use trigrid::{Coord, Dir, ORIGIN};

/// A scheduler that never selects anyone — the engine must treat every
/// round as fully active, or executions would stall forever.
struct NeverActive;

impl Scheduler for NeverActive {
    fn select(&mut self, _round: usize, n: usize) -> Vec<bool> {
        vec![false; n]
    }
    fn name(&self) -> &str {
        "never-active"
    }
}

#[test]
fn all_false_selection_activates_everyone() {
    // A lone robot marching east under NeverActive: if the all-false
    // fairness promotion did not kick in, no round would move anyone
    // and the robot would stay at the origin through the cap. With the
    // promotion, every round is fully active and the robot covers
    // exactly max_rounds steps.
    let march = FnAlgorithm::new(1, "march", |_: &View| Some(Dir::E));
    let lone = Configuration::new([ORIGIN]);
    let limits = Limits { max_rounds: 12, detect_livelock: false };
    let ex = run_scheduled(&lone, &march, &mut NeverActive, limits);
    assert_eq!(ex.outcome, Outcome::StepLimit { rounds: 12 });
    assert_eq!(ex.final_config, Configuration::new([Coord::new(24, 0)]));
}

#[test]
fn full_sync_selects_everyone_every_round() {
    for round in 0..8 {
        for n in [1, 3, 7] {
            assert_eq!(FullSync.select(round, n), vec![true; n]);
        }
    }
}

#[test]
fn round_robin_activates_exactly_one_per_round() {
    let mut rr = RoundRobin;
    for n in [1, 2, 7] {
        for round in 0..(3 * n) {
            let flags = rr.select(round, n);
            assert_eq!(flags.len(), n);
            assert_eq!(flags.iter().filter(|&&b| b).count(), 1, "round {round}, n={n}");
            assert!(flags[round % n], "round-robin must cycle in index order");
        }
    }
}

#[test]
fn round_robin_covers_all_robots_in_n_rounds() {
    let mut rr = RoundRobin;
    let n = 7;
    let mut seen = vec![false; n];
    for round in 0..n {
        let flags = rr.select(round, n);
        let who = flags.iter().position(|&b| b).expect("one active robot");
        seen[who] = true;
    }
    assert!(seen.iter().all(|&s| s), "every robot activated within n rounds");
}

#[test]
fn random_subset_is_deterministic_per_seed() {
    let mut a = RandomSubset::new(42, 0.4);
    let mut b = RandomSubset::new(42, 0.4);
    let mut c = RandomSubset::new(43, 0.4);
    let mut all_equal_across_seeds = true;
    for round in 0..200 {
        let fa = a.select(round, 7);
        let fb = b.select(round, 7);
        let fc = c.select(round, 7);
        assert_eq!(fa, fb, "same seed must produce identical schedules (round {round})");
        assert!(fa.iter().any(|&x| x), "selection is never empty (round {round})");
        all_equal_across_seeds &= fa == fc;
    }
    assert!(!all_equal_across_seeds, "different seeds should diverge somewhere in 200 rounds");
}

#[test]
fn nondeterministic_schedulers_hit_the_cap_not_livelock() {
    // A lone marcher's translation class repeats every single round,
    // and no activation subset can ever collide or disconnect it: with
    // livelock detection correctly disabled for a non-deterministic
    // scheduler, the run must terminate with the round cap
    // (`StepLimit`) — never a spurious `Livelock`, which is only sound
    // for deterministic round-independent schedulers.
    let march = FnAlgorithm::new(1, "march", |_: &View| Some(Dir::E));
    let lone = Configuration::new([ORIGIN]);
    for seed in 0..5 {
        let limits = Limits { max_rounds: 60, detect_livelock: false };
        let mut sched = RandomSubset::new(seed, 0.5);
        let ex = run_scheduled(&lone, &march, &mut sched, limits);
        assert_eq!(
            ex.outcome,
            Outcome::StepLimit { rounds: 60 },
            "seed {seed}: repeating classes must run to the cap"
        );
    }
}

#[test]
fn round_robin_with_detection_disabled_reaches_the_cap() {
    // Round-robin is deterministic but *round-dependent*: the sweep
    // pipeline disables class-repetition detection for it. Pin that a
    // repeating execution then ends at the cap rather than `Livelock`.
    let march = FnAlgorithm::new(1, "march", |_: &View| Some(Dir::E));
    let lone = Configuration::new([ORIGIN]);
    let limits = Limits { max_rounds: 25, detect_livelock: false };
    let ex = run_scheduled(&lone, &march, &mut RoundRobin, limits);
    assert_eq!(ex.outcome, Outcome::StepLimit { rounds: 25 });
}

#[test]
fn fullsync_livelock_detection_matches_the_engine() {
    // Under FullSync the scheduled runner with detection on must agree
    // with the FSYNC engine even on Livelock outcomes — the shared
    // engine loop makes this exact.
    let march = FnAlgorithm::new(1, "march", |_: &View| Some(Dir::E));
    let pair = Configuration::new([ORIGIN, Coord::new(2, 0)]);
    let limits = Limits { max_rounds: 500, detect_livelock: true };
    let fsync = robots::engine::run(&pair, &march, limits);
    let scheduled = run_scheduled(&pair, &march, &mut FullSync, limits);
    assert_eq!(fsync.outcome, Outcome::Livelock { entry: 0, period: 1 });
    assert_eq!(scheduled.outcome, fsync.outcome);
    assert_eq!(scheduled.final_config, fsync.final_config);
}

#[test]
fn random_subset_scheduled_runs_are_reproducible() {
    // Same seed ⇒ bit-identical execution, including the final
    // configuration, for a nontrivial multi-robot run.
    let march = FnAlgorithm::new(1, "march", |v: &View| {
        // March east unless the eastern neighbour is occupied.
        if v.neighbor(Dir::E) {
            None
        } else {
            Some(Dir::E)
        }
    });
    let line = Configuration::new([ORIGIN, Coord::new(2, 0), Coord::new(4, 0)]);
    let limits = Limits { max_rounds: 50, detect_livelock: false };
    let run = |seed: u64| {
        let mut sched = RandomSubset::new(seed, 0.5);
        run_scheduled(&line, &march, &mut sched, limits)
    };
    let a = run(5);
    let b = run(5);
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.final_config, b.final_config);
}
