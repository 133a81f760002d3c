//! Activation schedulers beyond FSYNC.
//!
//! The paper proves its results in the fully synchronous model and
//! leaves weaker synchrony as future work (§V). This module provides the
//! machinery to *experiment* with that question: a [`Scheduler`] decides
//! which robots are activated each round; activated robots perform a
//! full Look-Compute-Move cycle atomically (the SSYNC model), others are
//! idle.
//!
//! Livelock detection by state repetition is unsound under
//! non-deterministic or round-dependent scheduling; [`run_scheduled`]
//! honours `limits.detect_livelock`, and callers must disable it for
//! any scheduler other than [`FullSync`] (the sweep pipeline does this
//! automatically). The round cap plus the explicit all-active fixpoint
//! test keep every execution finite either way.
//!
//! All round execution goes through [`engine::step_moves`] via the
//! shared engine loop — the scheduler layer adds only activation
//! masking, never its own collision semantics.
//!
//! The model checkers record refutation schedules as [`CrashRound`]s,
//! replayed by [`crate::faults::run_crash_schedule`] (SSYNC and
//! crash-fault) and [`crate::async_model::run_async_schedule`] (ASYNC).

use crate::engine::{Execution, Limits};
use crate::{engine, Algorithm, Configuration};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Chooses the set of robots activated in each round.
///
/// Robots are anonymous; "robot `i`" refers to the `i`-th position in
/// the row-major ordering of the *current* configuration. Schedulers are
/// adversaries or random processes, so this instability is part of the
/// model being explored, not a bug.
pub trait Scheduler {
    /// Returns the activation flags for a round with `n` robots.
    /// An all-`false` result is treated as "activate everyone" to keep
    /// executions live (the standard fairness assumption).
    fn select(&mut self, round: usize, n: usize) -> Vec<bool>;

    /// Human-readable name for reports.
    fn name(&self) -> &str {
        "scheduler"
    }
}

/// The FSYNC scheduler: everyone, every round.
pub struct FullSync;

impl Scheduler for FullSync {
    fn select(&mut self, _round: usize, n: usize) -> Vec<bool> {
        vec![true; n]
    }
    fn name(&self) -> &str {
        "fsync"
    }
}

/// Activates exactly one robot per round, cycling through indices —
/// a maximally sequential (centralised) scheduler.
pub struct RoundRobin;

impl Scheduler for RoundRobin {
    fn select(&mut self, round: usize, n: usize) -> Vec<bool> {
        let mut flags = vec![false; n];
        if n > 0 {
            flags[round % n] = true;
        }
        flags
    }
    fn name(&self) -> &str {
        "round-robin"
    }
}

/// Activates each robot independently with probability `p` (re-drawing
/// when the result is empty), seeded for reproducibility.
pub struct RandomSubset {
    rng: StdRng,
    p: f64,
}

impl RandomSubset {
    /// Creates a random scheduler with activation probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 < p <= 1`.
    #[must_use]
    pub fn new(seed: u64, p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "activation probability must be in (0, 1]");
        Self { rng: StdRng::seed_from_u64(seed), p }
    }
}

impl Scheduler for RandomSubset {
    fn select(&mut self, _round: usize, n: usize) -> Vec<bool> {
        loop {
            let flags: Vec<bool> = (0..n).map(|_| self.rng.random_bool(self.p)).collect();
            if flags.iter().any(|&b| b) {
                return flags;
            }
        }
    }
    fn name(&self) -> &str {
        "random-subset"
    }
}

/// One round of a crash-fault schedule: the adversary first
/// *permanently crashes* the robots in `crash`, then activates the
/// robots in `activate`. Both masks use the standard scheduler
/// indexing — bit `i` = the `i`-th robot in row-major order of the
/// round's configuration (row-major order is translation-invariant, so
/// the indexing survives canonicalisation).
///
/// `activate == 0` is an *injection-only* round: crashes land but no
/// robot performs a Look-Compute-Move cycle, and replay round counters
/// do not advance.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct CrashRound {
    /// Robots permanently crashed at the start of this round.
    pub crash: u16,
    /// Robots activated this round (crashed robots are ignored).
    pub activate: u16,
}

/// Runs `algo` from `initial` under the given activation scheduler.
///
/// Terminates with [`Outcome::Gathered`]/[`Outcome::StuckFixpoint`] when
/// a *full* activation would move nobody (so the configuration is a true
/// fixpoint), with a collision/disconnection outcome as in FSYNC, with
/// [`Outcome::Livelock`] if `limits.detect_livelock` is set and a class
/// repeats (sound only for round-independent deterministic schedulers
/// such as [`FullSync`]), or with [`Outcome::StepLimit`].
///
/// [`Outcome::Gathered`]: crate::Outcome::Gathered
/// [`Outcome::StuckFixpoint`]: crate::Outcome::StuckFixpoint
/// [`Outcome::Livelock`]: crate::Outcome::Livelock
/// [`Outcome::StepLimit`]: crate::Outcome::StepLimit
#[must_use]
pub fn run_scheduled<A: Algorithm + ?Sized, S: Scheduler>(
    initial: &Configuration,
    algo: &A,
    sched: &mut S,
    limits: Limits,
) -> Execution {
    let (final_config, outcome) =
        engine::run_loop(initial, algo, limits, |round, n| Some(sched.select(round, n)), |_| ());
    Execution { initial: initial.clone(), final_config, outcome, trace: None }
}

/// Like [`run_scheduled`], additionally recording every visited
/// configuration (including the initial one), exactly as
/// [`engine::run_traced`] does.
#[must_use]
pub fn run_scheduled_traced<A: Algorithm + ?Sized, S: Scheduler>(
    initial: &Configuration,
    algo: &A,
    sched: &mut S,
    limits: Limits,
) -> Execution {
    let mut trace = Vec::new();
    let (final_config, outcome) = engine::run_loop(
        initial,
        algo,
        limits,
        |round, n| Some(sched.select(round, n)),
        |c| trace.push(c.clone()),
    );
    Execution { initial: initial.clone(), final_config, outcome, trace: Some(trace) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Outcome;
    use crate::{FnAlgorithm, StayAlgorithm, View};
    use trigrid::{Coord, Dir, ORIGIN};

    fn two() -> Configuration {
        Configuration::new([ORIGIN, Coord::new(2, 0)])
    }

    #[test]
    fn full_sync_selects_everyone() {
        assert_eq!(FullSync.select(3, 4), vec![true; 4]);
    }

    #[test]
    fn round_robin_cycles() {
        let mut rr = RoundRobin;
        assert_eq!(rr.select(0, 3), vec![true, false, false]);
        assert_eq!(rr.select(1, 3), vec![false, true, false]);
        assert_eq!(rr.select(4, 3), vec![false, true, false]);
    }

    #[test]
    fn random_subset_never_empty_and_reproducible() {
        let mut a = RandomSubset::new(9, 0.3);
        let mut b = RandomSubset::new(9, 0.3);
        for round in 0..50 {
            let fa = a.select(round, 5);
            assert!(fa.iter().any(|&x| x));
            assert_eq!(fa, b.select(round, 5));
        }
    }

    #[test]
    #[should_panic(expected = "activation probability")]
    fn random_subset_rejects_zero_probability() {
        let _ = RandomSubset::new(0, 0.0);
    }

    #[test]
    fn scheduled_run_detects_fixpoint() {
        let h = crate::config::hexagon(ORIGIN);
        let ex = run_scheduled(&h, &StayAlgorithm, &mut RoundRobin, Limits::default());
        assert_eq!(ex.outcome, Outcome::Gathered { rounds: 0 });
    }

    #[test]
    fn round_robin_serialises_moves() {
        // Under FSYNC these two robots would swap (collision); activating
        // one at a time turns the swap into a legal shuffle and the run
        // hits the step limit instead.
        let swap = FnAlgorithm::new(1, "swap", |v: &View| {
            if v.neighbor(Dir::E) {
                Some(Dir::E)
            } else if v.neighbor(Dir::W) {
                Some(Dir::W)
            } else {
                None
            }
        });
        let fsync = engine::run(&two(), &swap, Limits::default());
        assert!(matches!(fsync.outcome, Outcome::Collision { .. }));

        let limits = Limits { max_rounds: 40, detect_livelock: false };
        let ssync = run_scheduled(&two(), &swap, &mut RoundRobin, limits);
        // One active robot moving onto the stationary other is behaviour
        // (b): still a collision, but now of SharedTarget kind.
        assert!(matches!(
            ssync.outcome,
            Outcome::Collision { collision: crate::RoundCollision::SharedTarget { .. }, .. }
        ));
    }

    #[test]
    fn scheduled_step_limit() {
        // A lone robot marching east never terminates: the cap fires.
        let march = FnAlgorithm::new(1, "march", |_: &View| Some(Dir::E));
        let lone = Configuration::new([ORIGIN]);
        let limits = Limits { max_rounds: 10, detect_livelock: false };
        let ex = run_scheduled(&lone, &march, &mut RandomSubset::new(3, 0.5), limits);
        assert_eq!(ex.outcome, Outcome::StepLimit { rounds: 10 });
        assert_eq!(ex.final_config, Configuration::new([Coord::new(20, 0)]));
    }

    #[test]
    fn partial_activation_can_turn_fsync_safety_into_collision() {
        // march-east on two adjacent robots is a legal train under FSYNC,
        // but if only the west robot is activated it walks onto the idle
        // east robot — the SSYNC adversary breaks the train.
        let march = FnAlgorithm::new(1, "march", |_: &View| Some(Dir::E));
        struct WestOnly;
        impl Scheduler for WestOnly {
            fn select(&mut self, _round: usize, n: usize) -> Vec<bool> {
                let mut f = vec![false; n];
                f[0] = true; // positions are row-major sorted: index 0 is westmost here
                f
            }
        }
        let ex = run_scheduled(&two(), &march, &mut WestOnly, Limits::default());
        assert!(matches!(
            ex.outcome,
            Outcome::Collision { collision: crate::RoundCollision::SharedTarget { .. }, .. }
        ));
    }
}
