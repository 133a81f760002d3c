//! Exhaustive SSYNC adversary model checking.
//!
//! The paper proves Theorem 2 only under FSYNC and leaves weaker
//! synchrony open (§V). The sweep pipeline *samples* SSYNC with
//! round-robin and random schedulers — it can refute but never certify.
//! This module closes the gap for a single initial class: it explores
//! **every** nonempty activation subset in every reachable round over
//! the graph of canonical translation classes, and returns one of
//!
//! * [`AdversaryVerdict::Proof`] — *every* fair SSYNC schedule gathers,
//! * [`AdversaryVerdict::Refuted`] — some schedule provably does not;
//!   the verdict carries a minimal activation schedule, which [`replay`]
//!   runs through the crash replayer [`faults::run_crash_schedule`]
//!   with crash-free rounds,
//! * [`AdversaryVerdict::Undecided`] — a search budget tripped before
//!   either verdict was certified (see [`UndecidedReason`]).
//!
//! The BFS / fair-cycle / stabilizer-dedup machinery lives in
//! [`crate::explore`], and the checker itself is the one generic
//! [`ModelChecker`] of [`crate::checker`]: [`Checker`] names it over
//! [`SsyncModel`], the **crash-budget-0** instantiation of the crash
//! semantics with the paper's gathering goal, whose reports keep only
//! the activation masks. The instantiation is exact: with a zero budget
//! every crash branch of the explorer is dead, so this checker's
//! verdicts are byte-identical to the pre-refactor ones (the golden
//! files in `tests/golden/adversary-*.json` pin that). The explorer's
//! packed-state core (interned `u128` class keys — DESIGN.md §11) is
//! likewise verdict-transparent: the same goldens pin it.
//!
//! # Soundness (sketch — the full argument is DESIGN.md §7)
//!
//! A round's successor depends only on the activated robots **that
//! would move**; activating a robot whose decision is *stay* changes
//! nothing. The checker therefore expands the `2^m − 1` nonempty
//! subsets of the `m` movers — together with the free choice of idle
//! robots this covers all `2^7 − 1` activation subsets. Subsets that
//! activate no mover are self-loops; a *fair* schedule (every robot
//! performs infinitely many cycles) cannot take them forever, so they
//! are excluded. Reaching a collision, a disconnection or a stuck
//! fixpoint refutes outright. If the explored graph is acyclic, every
//! fair schedule reaches a terminal — the symmetry reduction below maps
//! every execution onto a walk of that graph — and all terminals are
//! gathered: proof. Otherwise the checker decides whether some cycle
//! can be pumped *fairly*. Each edge inside a strongly connected
//! component moves robots between row-major slots and serves some of
//! them: they move, or are observed deciding to stay (such a robot can
//! be activated for free). A product automaton that tracks which robot
//! sits in which slot either finds a closed walk serving every robot —
//! a lasso refutation — or proves none exists (Phase D, DESIGN.md §15).
//!
//! # Symmetry reduction
//!
//! Before expansion the checker computes the subgroup of the D6 point
//! group under which the **algorithm itself** is equivariant
//! (`compute(σ·view) = σ·compute(view)` for every view). Activation
//! subsets related by a stabilizer of the current class *within that
//! subgroup* produce isomorphic subtrees and are deduplicated.
//! Restricting to algorithm-equivariant symmetries is what makes the
//! reduction sound: robots agree on the x-axis and chirality, so an
//! arbitrary D6 stabilizer of the configuration does **not** commute
//! with the algorithm.

use crate::checker::{Model, ModelChecker};
use crate::engine::Outcome;
use crate::explore::{
    self, CrashSemantics, ExploreOptions, ExploreReport, ExploreVerdict, UndecidedReason,
};
use crate::faults;
use crate::sched::CrashRound;
use crate::{Algorithm, Configuration, Execution};
use serde::{Deserialize, Serialize};

pub use crate::explore::equivariance_group;

/// Search budgets for an SSYNC [`Checker`]. All budgets are deterministic
/// counters, so verdicts never depend on threading or timing.
#[derive(Clone, Copy, Debug)]
pub struct AdversaryOptions {
    /// Cap on distinct classes explored per check (the connected
    /// seven-robot space holds 3652, so the default never binds there).
    pub max_classes: usize,
    /// Cap on expanded edges per check.
    pub max_edges: usize,
    /// Ignored: the fair-cycle decision is complete and takes no depth
    /// bound. Kept so `adversary:D` cells and existing callers keep
    /// compiling.
    pub fair_depth: usize,
}

/// The `D` of `--sched adversary:D` when none is given. `D` only names
/// the cell (`adversary-d5`); it changes no verdict.
pub const DEFAULT_FAIR_DEPTH: usize = 12;

impl Default for AdversaryOptions {
    fn default() -> Self {
        AdversaryOptions { max_classes: 4096, max_edges: 2_000_000, fair_depth: DEFAULT_FAIR_DEPTH }
    }
}

impl AdversaryOptions {
    /// Budgets sized for an `n`-robot space. For n ≤ 7 these are
    /// exactly [`AdversaryOptions::default`] — the historical budgets
    /// the golden digests were pinned under. Wider spaces raise the
    /// state and edge caps so they cover the whole connected class
    /// space: the budget-0 adversary never leaves it (collisions and
    /// disconnections refute immediately; moves preserve the robot
    /// count), so a cap at least the connected-class count can never
    /// trip. n = 8 has 16689 connected classes with at most `2^8 - 1`
    /// activation edges each, hence 32768 classes / 16M edges.
    #[must_use]
    pub fn for_robots(n: usize) -> Self {
        let defaults = Self::default();
        match n {
            0..=7 => defaults,
            8 => AdversaryOptions { max_classes: 1 << 15, max_edges: 16_000_000, ..defaults },
            9 => AdversaryOptions { max_classes: 1 << 18, max_edges: 128_000_000, ..defaults },
            _ => AdversaryOptions { max_classes: 1 << 21, max_edges: 1_000_000_000, ..defaults },
        }
    }
}

/// The classification of one initial class under the SSYNC adversary.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum AdversaryVerdict {
    /// Every fair SSYNC schedule gathers from this class.
    Proof,
    /// A concrete schedule refutes gathering. `schedule[r]` is the
    /// activation bitmask of round `r` (bit `i` = the `i`-th robot in
    /// row-major order of the round's configuration). `outcome` is what
    /// replaying the schedule through [`replay`] ends with: a
    /// collision, a disconnection, a stuck fixpoint, or — for a
    /// fair non-gathering cycle — [`Outcome::StepLimit`] after the
    /// recorded lasso.
    Refuted {
        /// Per-round activation bitmasks.
        schedule: Vec<u16>,
        /// The outcome the replay must reproduce.
        outcome: Outcome,
    },
    /// Neither verdict was certified within the search budgets.
    Undecided {
        /// Which budget tripped: the class cap, the edge cap, or the
        /// Phase D product cap.
        #[serde(default)]
        reason: UndecidedReason,
    },
}

impl AdversaryVerdict {
    /// Short tag used by reports and golden files.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            AdversaryVerdict::Proof => "proof",
            AdversaryVerdict::Refuted { .. } => "refuted",
            AdversaryVerdict::Undecided { .. } => "undecided",
        }
    }
}

/// The result of checking one class: the verdict plus deterministic
/// exploration statistics.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct AdversaryReport {
    /// The classification.
    pub verdict: AdversaryVerdict,
    /// Distinct canonical classes explored.
    pub classes: usize,
    /// Activation-subset edges expanded (legal rounds executed).
    pub edges: usize,
    /// Subsets skipped by the stabilizer symmetry reduction.
    pub deduped: usize,
}

/// An incremental FNV-1a 64-bit hasher — the one hash implementation
/// behind [`schedule_hash`] and the sweep pipeline's verdict digest.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Mixes one byte.
    pub fn write(&mut self, byte: u8) {
        self.0 ^= u64::from(byte);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Mixes a byte slice.
    pub fn write_all(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write(b);
        }
    }

    /// Mixes a 16-bit activation/crash mask as a LEB128-style varint:
    /// a mask below `0x80` emits the single byte it has always been; a
    /// wider mask emits a continuation byte (`low 7 bits | 0x80`)
    /// followed by the high bits. Every mask a ≤ 7-robot schedule can
    /// contain stays below `0x80`, so all historical digests are
    /// byte-identical under the u8 → u16 mask widening.
    pub fn write_mask(&mut self, mask: u16) {
        if mask < 0x80 {
            self.write(mask as u8);
        } else {
            self.write((mask & 0x7f) as u8 | 0x80);
            self.write((mask >> 7) as u8);
        }
    }

    /// The current hash value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a hash of a counterexample schedule, for compact golden files.
/// Masks are mixed through [`Fnv64::write_mask`], so hashes over
/// ≤ 7-robot schedules equal the historical byte-per-round ones.
#[must_use]
pub fn schedule_hash(schedule: &[u16]) -> u64 {
    let mut h = Fnv64::new();
    for &mask in schedule {
        h.write_mask(mask);
    }
    h.finish()
}

/// Replays a [`AdversaryVerdict::Refuted`] schedule through
/// [`faults::run_crash_schedule`], each mask a round that crashes
/// nobody; returns `None` for other verdicts. The replayed execution
/// must end with exactly the verdict's `outcome`. With no crash the
/// replayer's goal is [`Configuration::is_gathered`], and every SSYNC
/// action activates a mover, so each mask is one movement round.
#[must_use]
pub fn replay<A: Algorithm + ?Sized>(
    initial: &Configuration,
    algo: &A,
    verdict: &AdversaryVerdict,
) -> Option<Execution> {
    let AdversaryVerdict::Refuted { schedule, outcome } = verdict else {
        return None;
    };
    let limits = explore::replay_limits(outcome, schedule.len());
    let rounds: Vec<CrashRound> =
        schedule.iter().map(|&activate| CrashRound { crash: 0, activate }).collect();
    Some(faults::run_crash_schedule(initial, algo, &rounds, limits).execution)
}

/// The SSYNC adversary as a [`Model`]: the crash semantics with crash
/// budget **0** and the paper's gathering goal, reporting activation
/// masks only.
pub enum SsyncModel {}

impl Model for SsyncModel {
    type Options = AdversaryOptions;
    type Semantics = CrashSemantics;
    type Report = AdversaryReport;

    fn explorer(opts: AdversaryOptions) -> (ExploreOptions, CrashSemantics) {
        let explore = ExploreOptions {
            max_states: opts.max_classes,
            max_edges: opts.max_edges,
            ..ExploreOptions::default()
        };
        // The goal is the gathered hexagon of Definition 1; the crash
        // mask is statically zero.
        (explore, CrashSemantics::new(0, |cfg, _crashed| cfg.is_gathered()))
    }

    fn report(report: ExploreReport) -> AdversaryReport {
        let verdict = match report.verdict {
            ExploreVerdict::Proof => AdversaryVerdict::Proof,
            ExploreVerdict::Undecided { reason } => AdversaryVerdict::Undecided { reason },
            ExploreVerdict::Refuted { schedule, outcome } => AdversaryVerdict::Refuted {
                schedule: schedule
                    .iter()
                    .map(|&CrashRound { crash, activate }| {
                        debug_assert_eq!(crash, 0, "budget 0 never injects crashes");
                        activate
                    })
                    .collect(),
                outcome,
            },
        };
        AdversaryReport {
            verdict,
            classes: report.states,
            edges: report.edges,
            deduped: report.deduped,
        }
    }
}

/// An exhaustive SSYNC adversary checker for one algorithm.
pub type Checker<'a, A> = ModelChecker<'a, A, SsyncModel>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Outcome;
    use crate::{FnAlgorithm, StayAlgorithm, View};
    use trigrid::transform::PointSymmetry;
    use trigrid::{Coord, Dir, ORIGIN};

    fn cfg(cells: &[(i32, i32)]) -> Configuration {
        Configuration::new(cells.iter().map(|&(x, y)| Coord::new(x, y)))
    }

    fn check<A: Algorithm>(algo: &A, initial: &Configuration) -> AdversaryReport {
        Checker::new(algo, AdversaryOptions::default()).check(initial)
    }

    /// Asserts a refuted verdict replays to exactly its recorded
    /// outcome and a non-gathered final configuration.
    fn assert_replays<A: Algorithm>(algo: &A, initial: &Configuration, report: &AdversaryReport) {
        let AdversaryVerdict::Refuted { outcome, .. } = &report.verdict else {
            panic!("expected a refutation, got {:?}", report.verdict);
        };
        let ex = replay(initial, algo, &report.verdict).expect("refutations replay");
        assert_eq!(&ex.outcome, outcome, "replay must reproduce the recorded outcome");
        if matches!(outcome, Outcome::StepLimit { .. }) {
            let moves = crate::engine::compute_moves(&ex.final_config, algo);
            assert!(
                !(ex.final_config.is_gathered() && moves.iter().all(Option::is_none)),
                "a lasso replay must not settle at a goal fixpoint"
            );
        }
    }

    #[test]
    fn gathered_fixpoint_is_proof() {
        let h = crate::config::hexagon(ORIGIN);
        let report = check(&StayAlgorithm, &h);
        assert_eq!(report.verdict, AdversaryVerdict::Proof);
        assert_eq!(report.classes, 1);
    }

    #[test]
    fn stuck_fixpoint_is_refuted_with_empty_schedule() {
        // A 4-line exceeds the ball four robots gather into (a 3-line
        // would count as gathered under the n-aware goal).
        let line = cfg(&[(0, 0), (2, 0), (4, 0), (6, 0)]);
        let report = check(&StayAlgorithm, &line);
        assert_eq!(
            report.verdict,
            AdversaryVerdict::Refuted {
                schedule: vec![],
                outcome: Outcome::StuckFixpoint { rounds: 0 }
            }
        );
        assert_replays(&StayAlgorithm, &line, &report);
    }

    #[test]
    fn lone_marcher_is_a_fair_livelock() {
        // One robot marching east forever: every schedule activates it,
        // the pumped cycle is fair, and gathering never happens.
        let march = FnAlgorithm::new(1, "march", |_: &View| Some(Dir::E));
        let lone = Configuration::new([ORIGIN]);
        let report = check(&march, &lone);
        match &report.verdict {
            AdversaryVerdict::Refuted { outcome: Outcome::StepLimit { .. }, schedule } => {
                assert!(!schedule.is_empty());
            }
            other => panic!("expected a step-limit lasso, got {other:?}"),
        }
        assert_replays(&march, &lone, &report);
    }

    #[test]
    fn ssync_breaks_the_fsync_train() {
        // Two robots marching east form a legal FSYNC train, but the
        // adversary activates only the west robot, which walks onto its
        // idle neighbour: a minimal 1-round collision schedule.
        let march = FnAlgorithm::new(1, "march", |_: &View| Some(Dir::E));
        let two = cfg(&[(0, 0), (2, 0)]);
        let report = check(&march, &two);
        match &report.verdict {
            AdversaryVerdict::Refuted {
                schedule,
                outcome: Outcome::Collision { round: 0, .. },
            } => {
                assert_eq!(schedule.len(), 1, "counterexample must be minimal");
            }
            other => panic!("expected an immediate collision, got {other:?}"),
        }
        assert_replays(&march, &two, &report);
    }

    #[test]
    fn fleeing_robot_is_refuted_by_disconnection() {
        let flee = FnAlgorithm::new(1, "flee", |v: &View| {
            (v.neighbor(Dir::W) && !v.neighbor(Dir::E)).then_some(Dir::E)
        });
        let two = cfg(&[(0, 0), (2, 0)]);
        let report = check(&flee, &two);
        match &report.verdict {
            AdversaryVerdict::Refuted { outcome: Outcome::Disconnected { .. }, .. } => {}
            other => panic!("expected disconnection, got {other:?}"),
        }
        assert_replays(&flee, &two, &report);
    }

    #[test]
    fn stay_is_fully_equivariant_and_march_is_not() {
        assert_eq!(equivariance_group(&StayAlgorithm).len(), 12);
        let march = FnAlgorithm::new(1, "march", |_: &View| Some(Dir::E));
        // Marching east commutes only with the identity and the mirror
        // across the x-axis (which fixes E).
        let group = equivariance_group(&march);
        assert!(group.contains(&PointSymmetry::Rot(0)));
        assert!(group.contains(&PointSymmetry::Ref(0)));
        assert_eq!(group.len(), 2);
    }

    #[test]
    fn symmetric_algorithm_dedups_subsets() {
        // A rotation-equivariant moving rule: a robot with exactly one
        // neighbour steps 60° counter-clockwise of it. (Reflections do
        // not commute with "counter-clockwise", so the group is C6.)
        let spin = FnAlgorithm::new(1, "spin", |v: &View| {
            (v.robot_count() == 1).then(|| {
                Dir::ALL.into_iter().find(|&d| v.neighbor(d)).expect("one neighbour").rotate_ccw(1)
            })
        });
        assert_eq!(equivariance_group(&spin).len(), 6);
        // The 2-robot pair is stabilized by the 180° rotation, which
        // swaps the two singleton activations: one of them is skipped.
        let two = cfg(&[(0, 0), (2, 0)]);
        let report = check(&spin, &two);
        assert!(report.deduped > 0, "stabilizer reduction must fire: {report:?}");
        assert!(matches!(report.verdict, AdversaryVerdict::Refuted { .. }));
    }

    #[test]
    fn eighth_robot_activations_are_enumerated() {
        // Eight robots in a row, marching east when clear: the only
        // mover is the easternmost robot — the *highest* row-major
        // index, bit 7 of the activation mask. Its only move
        // disconnects the line, so the verdict must be a refutation;
        // an enumeration that stopped at 7-bit masks would see no
        // edges at all and unsoundly report a proof.
        let march = FnAlgorithm::new(1, "march-if-clear", |v: &View| {
            (!v.neighbor(Dir::E)).then_some(Dir::E)
        });
        let line = Configuration::new((0..8).map(|i| Coord::new(2 * i, 0)));
        let report = check(&march, &line);
        match &report.verdict {
            AdversaryVerdict::Refuted { schedule, outcome: Outcome::Disconnected { round: 1 } } => {
                assert_eq!(schedule, &vec![0x80], "bit 7 names the easternmost robot");
            }
            other => panic!("expected a 1-round disconnection, got {other:?}"),
        }
        assert_replays(&march, &line, &report);
    }

    #[test]
    fn verdicts_are_deterministic() {
        let march = FnAlgorithm::new(1, "march", |_: &View| Some(Dir::E));
        let three = cfg(&[(0, 0), (2, 0), (1, 1)]);
        let checker = Checker::new(&march, AdversaryOptions::default());
        let a = checker.check(&three);
        let b = checker.check(&three);
        assert_eq!(a, b);
    }

    #[test]
    fn schedule_hash_distinguishes_schedules() {
        assert_ne!(schedule_hash(&[1, 2, 3]), schedule_hash(&[3, 2, 1]));
        assert_eq!(schedule_hash(&[]), schedule_hash(&[]));
    }

    #[test]
    fn replay_returns_none_for_proof_and_undecided() {
        let h = crate::config::hexagon(ORIGIN);
        assert!(replay(&h, &StayAlgorithm, &AdversaryVerdict::Proof).is_none());
        assert!(replay(
            &h,
            &StayAlgorithm,
            &AdversaryVerdict::Undecided { reason: UndecidedReason::FairDepth }
        )
        .is_none());
    }
}
