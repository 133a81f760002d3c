//! Property-based tests of the crash-fault model: crashed robots never
//! move under any schedule, the crash checker's refutations replay to
//! their recorded outcomes, and the frozen-mask engine step agrees
//! with plain masking.

use proptest::prelude::*;
use robots::faults::{self, CrashChecker, CrashOptions, CrashVerdict};
use robots::sched::CrashRound;
use robots::{engine, Algorithm, Configuration, Limits, View};
use trigrid::{Coord, Dir};

/// Strategy: a connected configuration of `n` robots grown from the
/// origin (deterministic given the choice list).
fn connected_config(n: usize) -> impl Strategy<Value = Configuration> {
    proptest::collection::vec((0usize..64, 0usize..6), n - 1).prop_map(move |choices| {
        let mut cells = vec![trigrid::ORIGIN];
        for (anchor_raw, dir_raw) in choices {
            for probe in 0..cells.len() {
                let anchor = cells[(anchor_raw + probe) % cells.len()];
                let mut done = false;
                for k in 0..6 {
                    let cand = anchor.step(Dir::from_index(dir_raw + k));
                    if !cells.contains(&cand) {
                        cells.push(cand);
                        done = true;
                        break;
                    }
                }
                if done {
                    break;
                }
            }
        }
        Configuration::new(cells)
    })
}

/// Strategy: a random total visibility-1 algorithm as a 64-entry table.
fn random_rule_table() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..7, 64)
}

struct VecTable(Vec<u8>);

impl Algorithm for VecTable {
    fn radius(&self) -> u32 {
        1
    }
    fn compute(&self, view: &View) -> Option<Dir> {
        let code = self.0[view.bits() as usize];
        (code != 0).then(|| Dir::from_index((code - 1) as usize))
    }
}

/// Strategy: an arbitrary crash-fault schedule of 16 rounds (the
/// vendored proptest shim generates fixed-length vectors).
fn crash_schedule() -> impl Strategy<Value = Vec<CrashRound>> {
    proptest::collection::vec((0u16..256, 0u16..256), 16).prop_map(|rounds| {
        rounds.into_iter().map(|(crash, activate)| CrashRound { crash, activate }).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The heart of the fault model: once a robot crashes, its node
    /// stays occupied in every later configuration of the execution,
    /// under ANY schedule and ANY algorithm.
    #[test]
    fn crashed_robots_never_move(
        cfg in connected_config(7),
        table in random_rule_table(),
        schedule in crash_schedule(),
    ) {
        let algo = VecTable(table);
        let limits = Limits { max_rounds: 40, detect_livelock: false };
        let run = faults::run_crash_schedule(&cfg, &algo, &schedule, limits);
        let trace = run.execution.trace.as_ref().expect("crash runs record traces");
        prop_assert!(run.events.len() == run.crashed.len());
        for &(at, coord) in &run.events {
            prop_assert!(at < trace.len());
            prop_assert!(
                trace[at..].iter().all(|c| c.contains(coord)),
                "crashed robot at {coord:?} (trace index {at}) moved"
            );
        }
        // The total number of crashes never exceeds what the schedule
        // asked for.
        let asked: u32 = schedule.iter().map(|r| r.crash.count_ones()).sum();
        prop_assert!((run.crashed.len() as u32) <= asked);
    }

    /// Every crash-refuted verdict on random 5-robot classes replays
    /// through the engine to exactly its recorded outcome. The checker
    /// records outcomes in the canonical frame, so it is checked on the
    /// canonical class representative (as the sweep pipeline does).
    #[test]
    fn crash_refutations_replay(
        raw in connected_config(5),
        table in random_rule_table(),
    ) {
        let cfg = raw.canonical();
        let algo = VecTable(table);
        let checker = CrashChecker::new(&algo, CrashOptions::default());
        let report = checker.check(&cfg);
        if let CrashVerdict::Refuted { outcome, schedule } = &report.verdict {
            let crashes: u32 = schedule.iter().map(|a| a.crash.count_ones()).sum();
            prop_assert!(crashes <= u32::from(checker.crashes()));
            let run = faults::replay(&cfg, &algo, &report.verdict).expect("refutations replay");
            prop_assert_eq!(&run.execution.outcome, outcome);
            prop_assert!(!run.execution.outcome.is_gathered());
        }
    }

    /// `engine::step_frozen` is exactly `step_masked` with the frozen
    /// robots de-activated.
    #[test]
    fn step_frozen_matches_masked_step(
        cfg in connected_config(6),
        table in random_rule_table(),
        bits in 0u32..65_536,
    ) {
        let algo = VecTable(table);
        let n = cfg.len();
        let active: Vec<bool> = (0..n).map(|i| bits & (1 << i) != 0).collect();
        let frozen: Vec<bool> = (0..n).map(|i| bits & (1 << (i + 8)) != 0).collect();
        let thawed: Vec<bool> =
            active.iter().zip(&frozen).map(|(&a, &f)| a && !f).collect();
        let via_frozen = engine::step_frozen(&cfg, &algo, &active, &frozen);
        let via_masked = engine::step_masked(&cfg, &algo, &thawed);
        prop_assert_eq!(via_frozen, via_masked);
    }

    /// The checker's verdict is reproducible and its refutation
    /// schedules respect the crash budget even at larger budgets.
    #[test]
    fn crash_checker_is_deterministic(
        cfg in connected_config(4),
        table in random_rule_table(),
    ) {
        let algo = VecTable(table);
        let checker = CrashChecker::new(&algo, CrashOptions::new(2, 8));
        let a = checker.check(&cfg);
        let b = checker.check(&cfg);
        prop_assert_eq!(a, b);
    }
}

/// Deterministic LCG, so the deep-collision hunt below needs no rand
/// dependency and never shrinks away from its witnesses.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn lcg_connected(n: usize, rng: &mut Lcg) -> Configuration {
    let mut cells = vec![trigrid::ORIGIN];
    while cells.len() < n {
        let anchor = cells[(rng.next() as usize) % cells.len()];
        let cand = anchor.step(Dir::from_index(rng.next() as usize % 6));
        if !cells.contains(&cand) {
            cells.push(cand);
        }
    }
    Configuration::new(cells)
}

/// Collision refutations carry concrete coordinates, making them the
/// replay path's most frame-sensitive case: the recorded collision
/// must be reproduced node-for-node by re-running the schedule through
/// the engine. Hunt them over a large deterministic sample of random
/// rule tables and check replay outcome equality on every one. (BFS
/// minimality makes these collisions shallow — the checker refutes at
/// the first bad terminal — so the sample asserts breadth, not depth;
/// the `crash_refutations_replay` proptest above covers the shrunken
/// corner cases.)
#[test]
fn collision_refutations_replay_node_for_node() {
    let mut rng = Lcg(0xDEAD_BEEF);
    let mut collisions = 0usize;
    for _ in 0..400 {
        let table: Vec<u8> = (0..64).map(|_| (rng.next() % 7) as u8).collect();
        let algo = VecTable(table);
        let cfg = lcg_connected(5, &mut rng).canonical();
        let checker = CrashChecker::new(&algo, CrashOptions::default());
        let report = checker.check(&cfg);
        if let CrashVerdict::Refuted { outcome, .. } = &report.verdict {
            if matches!(outcome, robots::Outcome::Collision { .. }) {
                collisions += 1;
                let run = faults::replay(&cfg, &algo, &report.verdict).expect("refutations replay");
                assert_eq!(
                    &run.execution.outcome,
                    outcome,
                    "replay diverged on a collision from {:?}",
                    cfg.positions()
                );
            }
        }
    }
    assert!(collisions > 50, "the seeded hunt must surface plenty of collisions: {collisions}");
}

#[test]
fn frozen_coordinates_block_like_live_robots() {
    // A frozen robot still occupies its node: a live robot stepping
    // onto it collides exactly as if it were live and idle.
    let march = robots::FnAlgorithm::new(1, "march", |_: &View| Some(Dir::E));
    let two = Configuration::new([trigrid::ORIGIN, Coord::new(2, 0)]);
    let active = vec![true, true];
    let frozen = vec![false, true];
    let result = engine::step_frozen(&two, &march, &active, &frozen);
    assert!(matches!(result, Err(robots::RoundCollision::SharedTarget { .. })));
}
