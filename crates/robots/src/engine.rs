//! The FSYNC execution engine with the paper's collision semantics.
//!
//! A *round* (one synchronous Look-Compute-Move cycle of all robots,
//! §II-A) computes every robot's move from its view, validates the
//! simultaneous moves against the three prohibited behaviours of the
//! paper:
//!
//! * **(a)** two robots traverse the same edge in opposite directions
//!   (an edge *swap*),
//! * **(b)** a robot moves onto a node where another robot stays,
//! * **(c)** several robots move onto the same empty node,
//!
//! and then applies them. (b) and (c) are both "two robots end on the
//! same node"; moving into a node vacated in the same round (a "train")
//! is legal.
//!
//! The [`run`] loop additionally detects:
//!
//! * **gathered fixpoint** — no robot moves and the configuration is the
//!   seven-robot hexagon (success per Definition 1),
//! * **stuck fixpoint** — no robot moves but gathering is not achieved,
//! * **livelock** — the translation class of the configuration repeats;
//!   since algorithms are deterministic and translation-invariant, a
//!   repeat implies an infinite loop (this is how the Fig. 12/13
//!   oscillations of the impossibility proof manifest),
//! * **disconnection** — the configuration splits; the paper argues an
//!   oblivious robot with an empty view can never deterministically
//!   rejoin, so this is terminal.

use crate::visited::ClassMap;
use crate::{Algorithm, Configuration, PackedClass, View};
use serde::{Deserialize, Serialize};
use trigrid::{Coord, Dir};

/// A single robot's move in a round.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Move {
    /// The node the robot left.
    pub from: Coord,
    /// The direction it moved.
    pub dir: Dir,
}

impl Move {
    /// The node the robot arrived at.
    #[must_use]
    pub fn to(&self) -> Coord {
        self.from.step(self.dir)
    }
}

/// A collision as defined in §II-A of the paper.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum RoundCollision {
    /// Prohibited behaviour (a): two robots traversed the same edge in
    /// opposite directions.
    Swap {
        /// One endpoint of the contested edge.
        a: Coord,
        /// The other endpoint.
        b: Coord,
    },
    /// Prohibited behaviours (b)/(c): at least two robots ended the
    /// round on the same node.
    SharedTarget {
        /// The contested node.
        target: Coord,
        /// Previous positions of all robots that ended there.
        sources: Vec<Coord>,
    },
}

/// Computes every robot's move decision for the current configuration,
/// aligned with `config.positions()`.
#[must_use]
pub fn compute_moves<A: Algorithm + ?Sized>(config: &Configuration, algo: &A) -> Vec<Option<Dir>> {
    let radius = algo.radius();
    config.positions().iter().map(|&p| algo.compute(&View::observe(config, p, radius))).collect()
}

/// Validates simultaneous moves against the paper's collision rules.
///
/// # Errors
/// Returns the first detected [`RoundCollision`] (swaps are reported
/// before shared targets).
pub fn check_moves(config: &Configuration, moves: &[Option<Dir>]) -> Result<(), RoundCollision> {
    let positions = config.positions();
    debug_assert_eq!(positions.len(), moves.len());

    // (a) edge swaps: a mover whose destination is an occupied node whose
    // occupant moves to the mover's origin.
    let index_of = |c: Coord| positions.iter().position(|&p| p == c);
    for (i, (&p, m)) in positions.iter().zip(moves).enumerate() {
        let Some(d) = m else { continue };
        let dest = p.step(*d);
        if let Some(j) = index_of(dest) {
            if j != i {
                if let Some(dj) = moves[j] {
                    if dest.step(dj) == p {
                        return Err(RoundCollision::Swap { a: p, b: dest });
                    }
                }
            }
        }
    }

    // (b)/(c) shared destinations. Configurations are small (≤ 8
    // robots in every checker workload), so a pairwise scan beats
    // sorting and — on the hot all-clear path — allocates nothing.
    // The reported collision is identical to the historical
    // sorted-scan formulation: the contested node with the smallest
    // row-major key, its sources in row-major origin order.
    let dest_of = |i: usize| moves[i].map_or(positions[i], |d| positions[i].step(d));
    let mut target: Option<Coord> = None;
    for i in 0..positions.len() {
        let di = dest_of(i);
        for j in i + 1..positions.len() {
            if di == dest_of(j) && target.is_none_or(|t| polyhex::key(di) < polyhex::key(t)) {
                target = Some(di);
            }
        }
    }
    if let Some(target) = target {
        let sources =
            (0..positions.len()).filter(|&i| dest_of(i) == target).map(|i| positions[i]).collect();
        return Err(RoundCollision::SharedTarget { target, sources });
    }
    Ok(())
}

/// The next submask of `set` after `cur` in ascending numeric order
/// (`(cur - set) & set` with wrapping arithmetic). Starting from `0`
/// and advancing until `cur == set` enumerates every nonzero submask
/// of `set` ascending; past `set` it wraps to `0`.
pub(crate) fn next_submask(cur: u16, set: u16) -> u16 {
    cur.wrapping_sub(set) & set
}

/// `moves` restricted to the robots in `mask` (bit `i` = slot `i`):
/// the others stay. The bit-mask form of [`masked_moves`], in a fixed
/// buffer whose first `moves.len()` entries are the masked vector.
pub(crate) fn mask_moves(
    moves: &[Option<Dir>],
    mask: u16,
) -> [Option<Dir>; PackedClass::MAX_ROBOTS] {
    let mut masked = [None; PackedClass::MAX_ROBOTS];
    for (i, (slot, m)) in masked.iter_mut().zip(moves).enumerate() {
        if mask & (1 << i) != 0 {
            *slot = *m;
        }
    }
    masked
}

/// What activating one subset of a class's movers does in one round.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RoundKind {
    /// The round is prohibited: [`check_moves`] fails on the masked
    /// decision vector.
    Collides,
    /// The round is legal but its successor is disconnected.
    Disconnects,
    /// The round is legal and its successor connected.
    Succ,
}

/// One activation subset of a [`RoundTable`] and its stepped result.
#[derive(Clone, Copy, Debug)]
pub struct RoundEntry {
    /// The successor's packed canonical class; meaningful only when
    /// `kind` is [`RoundKind::Succ`].
    pub key: PackedClass,
    /// Four bits per robot: bits `4i..4i + 4` hold robot `i`'s index
    /// in the successor's row-major positions (read with
    /// [`Self::slot`]); meaningful only when `kind` is
    /// [`RoundKind::Succ`].
    pub slots: u64,
    /// The activated robots (bit `i` = row-major slot `i`).
    pub mask: u16,
    /// What the round does.
    pub kind: RoundKind,
}

impl RoundEntry {
    /// Robot `robot`'s row-major index in the successor.
    #[must_use]
    pub fn slot(&self, robot: usize) -> usize {
        ((self.slots >> (4 * robot)) & 0xF) as usize
    }
}

// Slot maps hold one 4-bit index per robot of a packable class.
const _: () = assert!(4 * PackedClass::MAX_ROBOTS <= u64::BITS as usize);

/// One class's rounds, stepped once: every nonempty activation subset
/// of the class's movers, in ascending mask order, with what the round
/// does — it collides, it disconnects, or it reaches a successor class,
/// recorded as that class's packed key plus each robot's slot in it.
///
/// The exploration checkers expand every reachable state of a class
/// through the same subsets (a crash mask only filters them), and a
/// sweep cell interns each class many times over, so a class's rounds
/// are stepped once, when the explorer's class table first expands the
/// class (which stores them with successor class ids), and every later
/// expansion reads its edges from there. The
/// builder is the reference semantics itself — [`check_moves`], then
/// the move application of [`step_moves`], through which the FSYNC
/// runner and every replay step — so the table cannot disagree with
/// them.
pub struct RoundTable {
    entries: Box<[RoundEntry]>,
}

impl RoundTable {
    /// Steps every nonempty activation subset of the movers of
    /// `config` under its full decision vector `moves` (aligned with
    /// `config.positions()`).
    ///
    /// # Panics
    /// Panics if the configuration holds more than
    /// [`PackedClass::MAX_ROBOTS`] robots.
    #[must_use]
    pub fn new(config: &Configuration, moves: &[Option<Dir>]) -> RoundTable {
        let n = config.len();
        assert!(n <= PackedClass::MAX_ROBOTS, "round tables hold packable classes");
        debug_assert_eq!(n, moves.len());
        let movers =
            moves.iter().enumerate().fold(0u16, |acc, (i, m)| acc | u16::from(m.is_some()) << i);
        let mut entries = Vec::with_capacity((1usize << movers.count_ones()) - 1);
        // The key of entries that reach no successor: the empty class.
        let no_key = PackedClass::of_sorted(&[]);
        let mut mask = 0u16;
        while mask != movers {
            mask = next_submask(mask, movers);
            let masked = mask_moves(moves, mask);
            let masked = &masked[..n];
            let mut entry = RoundEntry { key: no_key, slots: 0, mask, kind: RoundKind::Collides };
            if check_moves(config, masked).is_ok() {
                let next = config.apply_unchecked(masked);
                entry.kind = RoundKind::Disconnects;
                if next.is_connected() {
                    entry.kind = RoundKind::Succ;
                    entry.key = next.canonical_key();
                    for (i, (&p, m)) in config.positions().iter().zip(masked).enumerate() {
                        let end = m.map_or(p, |d| p.step(d));
                        let slot = next.positions().iter().position(|&q| q == end);
                        entry.slots |=
                            (slot.expect("every robot lands in the successor") as u64) << (4 * i);
                    }
                }
            }
            entries.push(entry);
        }
        RoundTable { entries: entries.into_boxed_slice() }
    }

    /// The nonempty activation subsets of the movers and their results,
    /// in ascending mask order.
    #[must_use]
    pub fn entries(&self) -> &[RoundEntry] {
        &self.entries
    }
}

/// The outcome of one legal round: the successor configuration plus the
/// moves that were actually performed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RoundResult {
    /// The configuration after the round.
    pub config: Configuration,
    /// The moves performed (robots that stayed are omitted), in
    /// row-major order of their origins.
    pub moved: Vec<Move>,
}

/// Validates and applies a full vector of per-robot move decisions
/// (aligned with `config.positions()`). This is the **single**
/// implementation of the paper's round semantics: the FSYNC runner, the
/// SSYNC schedulers, the adversary model checker and the impossibility
/// simulator all execute rounds through this function.
///
/// # Errors
/// Returns the collision if the simultaneous moves are illegal.
pub fn step_moves(
    config: &Configuration,
    moves: &[Option<Dir>],
) -> Result<RoundResult, RoundCollision> {
    check_moves(config, moves)?;
    let moved: Vec<Move> = config
        .positions()
        .iter()
        .zip(moves)
        .filter_map(|(&p, m)| m.map(|dir| Move { from: p, dir }))
        .collect();
    Ok(RoundResult { config: config.apply_unchecked(moves), moved })
}

/// Restricts a full decision vector to the activated robots: inactive
/// robots stay regardless of what they would have decided. This is the
/// entire semantics of SSYNC activation.
#[must_use]
pub fn masked_moves(full: &[Option<Dir>], active: &[bool]) -> Vec<Option<Dir>> {
    debug_assert_eq!(full.len(), active.len());
    full.iter().zip(active).map(|(m, &a)| if a { *m } else { None }).collect()
}

/// Executes one SSYNC round: the robots flagged in `active` perform a
/// full Look-Compute-Move cycle, the rest are idle.
///
/// # Errors
/// Returns the collision if the simultaneous moves are illegal.
pub fn step_masked<A: Algorithm + ?Sized>(
    config: &Configuration,
    algo: &A,
    active: &[bool],
) -> Result<RoundResult, RoundCollision> {
    let full = compute_moves(config, algo);
    step_moves(config, &masked_moves(&full, active))
}

/// Executes one SSYNC round under a *frozen-robot* (crash-fault) mask:
/// robots flagged in `frozen` are permanently crashed — they never act,
/// not even when `active` selects them, but they still occupy their
/// node and appear in every view exactly like a live robot.
///
/// This is the reference form of the crash-masking rule
/// (`active && !frozen`, then a plain masked round): the crash
/// checker's replay loop ([`crate::faults::run_crash_schedule`])
/// open-codes the same rule so it can reuse its precomputed decision
/// vector for fixpoint detection — the property tests pin the two
/// paths against each other. The goal relaxation lives in
/// [`crate::faults`], not here.
///
/// # Errors
/// Returns the collision if the simultaneous moves are illegal.
pub fn step_frozen<A: Algorithm + ?Sized>(
    config: &Configuration,
    algo: &A,
    active: &[bool],
    frozen: &[bool],
) -> Result<RoundResult, RoundCollision> {
    debug_assert_eq!(active.len(), frozen.len());
    let thawed: Vec<bool> = active.iter().zip(frozen).map(|(&a, &f)| a && !f).collect();
    step_masked(config, algo, &thawed)
}

/// Executes one FSYNC round: compute, validate, apply.
///
/// # Errors
/// Returns the collision if the simultaneous moves are illegal.
pub fn step<A: Algorithm + ?Sized>(
    config: &Configuration,
    algo: &A,
) -> Result<(Configuration, Vec<Move>), RoundCollision> {
    let moves = compute_moves(config, algo);
    step_moves(config, &moves).map(|r| (r.config, r.moved))
}

/// Stopping parameters for [`run`].
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Limits {
    /// Hard cap on the number of rounds.
    pub max_rounds: usize,
    /// Whether to detect livelocks by canonical-class repetition (sound
    /// for deterministic FSYNC; must be disabled for randomised
    /// schedulers).
    pub detect_livelock: bool,
}

impl Default for Limits {
    fn default() -> Self {
        // Any legal 7-robot FSYNC execution visits each of the 3652
        // connected classes at most once, so 20_000 is far beyond any
        // non-livelocked run.
        Limits { max_rounds: 20_000, detect_livelock: true }
    }
}

/// How an execution ended.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Outcome {
    /// Reached the gathering-achieved configuration and stopped
    /// (Definition 1 satisfied).
    Gathered {
        /// Rounds until the fixpoint was reached.
        rounds: usize,
    },
    /// Reached a fixpoint that is not a gathered configuration.
    StuckFixpoint {
        /// Rounds until the fixpoint.
        rounds: usize,
    },
    /// The translation class of the configuration repeated: the
    /// deterministic execution loops forever.
    Livelock {
        /// Round at which the repeated class was first seen.
        entry: usize,
        /// Cycle length.
        period: usize,
    },
    /// A prohibited simultaneous move occurred.
    Collision {
        /// Round in which it happened (0-based).
        round: usize,
        /// The violation.
        collision: RoundCollision,
    },
    /// The configuration became disconnected.
    Disconnected {
        /// First round after which the configuration was disconnected.
        round: usize,
    },
    /// `max_rounds` elapsed without any other outcome.
    StepLimit {
        /// The configured limit.
        rounds: usize,
    },
    /// A model-checking budget exhausted before a verdict was
    /// certified. Never produced by an execution — this is the honest
    /// witness column for an undecided checker verdict (the sweep
    /// pipeline's `outcome_of_*_verdict` mapping), which previously
    /// mislabeled budget exhaustion as [`Outcome::StepLimit`] with a
    /// fabricated round count.
    Undecided {
        /// Which search budget tripped.
        reason: crate::explore::UndecidedReason,
    },
}

impl Outcome {
    /// Whether this outcome is a successful gathering.
    #[must_use]
    pub fn is_gathered(&self) -> bool {
        matches!(self, Outcome::Gathered { .. })
    }
}

/// The result of running an algorithm from an initial configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Execution {
    /// The initial configuration.
    pub initial: Configuration,
    /// The final configuration when the run stopped.
    pub final_config: Configuration,
    /// Why the run stopped.
    pub outcome: Outcome,
    /// The visited configurations (including the initial one); only
    /// populated by [`run_traced`].
    pub trace: Option<Vec<Configuration>>,
}

/// The shared execution loop behind [`run`], [`run_traced`] and
/// `sched::run_scheduled`: one round-semantics implementation for every
/// scheduler.
///
/// `select` returns the activation flags for a round (`None` = everyone,
/// the FSYNC fast path that skips masking entirely). An all-`false`
/// selection is promoted to full activation — the fairness convention
/// that keeps executions live.
///
/// Termination tests run against the **full** decision vector, so a
/// configuration only counts as a fixpoint when no robot would move even
/// if activated. Livelock detection by class repetition is applied when
/// `limits.detect_livelock` is set; it is sound only for schedulers
/// whose selection does not depend on the round index (FSYNC), and
/// callers with other schedulers must disable it.
pub(crate) fn run_loop<A: Algorithm + ?Sized>(
    initial: &Configuration,
    algo: &A,
    limits: Limits,
    mut select: impl FnMut(usize, usize) -> Option<Vec<bool>>,
    mut on_config: impl FnMut(&Configuration),
) -> (Configuration, Outcome) {
    let mut seen: ClassMap<usize> = ClassMap::new();
    let mut cfg = initial.clone();
    on_config(&cfg);
    for round in 0..limits.max_rounds {
        let full = compute_moves(&cfg, algo);
        if full.iter().all(Option::is_none) {
            let outcome = if cfg.is_gathered() {
                Outcome::Gathered { rounds: round }
            } else {
                Outcome::StuckFixpoint { rounds: round }
            };
            return (cfg, outcome);
        }
        if limits.detect_livelock {
            if let Some(&entry) = seen.get(&cfg) {
                return (cfg, Outcome::Livelock { entry, period: round - entry });
            }
            seen.insert(&cfg, round);
        }
        let moves = match select(round, cfg.len()) {
            None => full,
            Some(mut flags) => {
                flags.resize(cfg.len(), false);
                if flags.iter().all(|&b| !b) {
                    full // fairness: never a fully idle round
                } else {
                    masked_moves(&full, &flags)
                }
            }
        };
        match step_moves(&cfg, &moves) {
            Err(collision) => return (cfg, Outcome::Collision { round, collision }),
            Ok(result) => cfg = result.config,
        }
        on_config(&cfg);
        if !cfg.is_connected() {
            return (cfg, Outcome::Disconnected { round: round + 1 });
        }
    }
    (cfg, Outcome::StepLimit { rounds: limits.max_rounds })
}

/// Runs the algorithm from `initial` under FSYNC until a terminal
/// outcome, without recording the trace.
#[must_use]
pub fn run<A: Algorithm + ?Sized>(initial: &Configuration, algo: &A, limits: Limits) -> Execution {
    let (final_config, outcome) = run_loop(initial, algo, limits, |_, _| None, |_| ());
    Execution { initial: initial.clone(), final_config, outcome, trace: None }
}

/// Like [`run`], additionally recording every visited configuration.
#[must_use]
pub fn run_traced<A: Algorithm + ?Sized>(
    initial: &Configuration,
    algo: &A,
    limits: Limits,
) -> Execution {
    let mut trace = Vec::new();
    let (final_config, outcome) =
        run_loop(initial, algo, limits, |_, _| None, |c| trace.push(c.clone()));
    Execution { initial: initial.clone(), final_config, outcome, trace: Some(trace) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FnAlgorithm, StayAlgorithm};
    use trigrid::ORIGIN;

    fn cfg(cells: &[(i32, i32)]) -> Configuration {
        Configuration::new(cells.iter().map(|&(x, y)| Coord::new(x, y)))
    }

    /// Every robot marches east forever.
    fn march_east() -> impl Algorithm {
        FnAlgorithm::new(1, "march-east", |_| Some(Dir::E))
    }

    #[test]
    fn stay_on_hexagon_is_gathered() {
        let h = crate::config::hexagon(ORIGIN);
        let ex = run(&h, &StayAlgorithm, Limits::default());
        assert_eq!(ex.outcome, Outcome::Gathered { rounds: 0 });
    }

    #[test]
    fn stay_on_line_is_stuck() {
        // Four robots spanning three edges cannot fit the radius-1
        // ball four robots gather into: a dead fixpoint. (A 3-line
        // would count as gathered under the n-aware goal.)
        let line = cfg(&[(0, 0), (2, 0), (4, 0), (6, 0)]);
        let ex = run(&line, &StayAlgorithm, Limits::default());
        assert_eq!(ex.outcome, Outcome::StuckFixpoint { rounds: 0 });
    }

    #[test]
    fn marching_east_is_a_livelock_up_to_translation() {
        // Everyone moves east forever: the translation class repeats
        // immediately after one round.
        let line = cfg(&[(0, 0), (2, 0)]);
        let ex = run(&line, &march_east(), Limits::default());
        assert_eq!(ex.outcome, Outcome::Livelock { entry: 0, period: 1 });
    }

    #[test]
    fn livelock_detection_handles_more_than_eight_robots() {
        // Nine robots exceed the packed class-key window; the livelock
        // ClassMap must fall back to unpacked keys, not panic.
        let line = Configuration::new((0..9).map(|i| Coord::new(2 * i, 0)));
        let ex = run(&line, &march_east(), Limits::default());
        assert_eq!(ex.outcome, Outcome::Livelock { entry: 0, period: 1 });
    }

    #[test]
    fn swap_collision_detected() {
        // Two adjacent robots each move onto the other's node: behaviour (a).
        let a = FnAlgorithm::new(1, "swap", |v: &View| {
            if v.neighbor(Dir::E) {
                Some(Dir::E)
            } else if v.neighbor(Dir::W) {
                Some(Dir::W)
            } else {
                None
            }
        });
        let two = cfg(&[(0, 0), (2, 0)]);
        let ex = run(&two, &a, Limits::default());
        match ex.outcome {
            Outcome::Collision { round: 0, collision: RoundCollision::Swap { a, b } } => {
                assert_eq!((a, b), (ORIGIN, Coord::new(2, 0)));
            }
            other => panic!("expected swap collision, got {other:?}"),
        }
    }

    #[test]
    fn moving_onto_stationary_robot_is_collision() {
        // Behaviour (b): west robot moves east onto a robot that stays.
        let a = FnAlgorithm::new(1, "pushy", |v: &View| v.neighbor(Dir::E).then_some(Dir::E));
        // Three in a line: the leftmost moves onto the middle (which also
        // tries to move east onto the right one, which stays...). Use two:
        // right robot has no east neighbour -> stays; left moves onto it.
        let two = cfg(&[(0, 0), (2, 0)]);
        let ex = run(&two, &a, Limits::default());
        match ex.outcome {
            Outcome::Collision {
                round: 0,
                collision: RoundCollision::SharedTarget { target, sources },
            } => {
                assert_eq!(target, Coord::new(2, 0));
                assert_eq!(sources.len(), 2);
            }
            other => panic!("expected shared-target collision, got {other:?}"),
        }
    }

    #[test]
    fn two_movers_to_same_empty_node_is_collision() {
        // Behaviour (c): the robots at (1,1) and (1,-1) both move into the
        // empty node (2,0) — (1,1) steps SE because it has a SW neighbour,
        // (1,-1) steps NE because it has a NW neighbour; the anchor (0,0)
        // sees no SW/NW neighbour and stays.
        let c = FnAlgorithm::new(1, "merge", |v: &View| {
            if v.neighbor(Dir::SW) {
                Some(Dir::SE)
            } else if v.neighbor(Dir::NW) {
                Some(Dir::NE)
            } else {
                None
            }
        });
        let three = cfg(&[(0, 0), (1, 1), (1, -1)]);
        let ex = run(&three, &c, Limits::default());
        match ex.outcome {
            Outcome::Collision {
                round: 0,
                collision: RoundCollision::SharedTarget { target, sources },
            } => {
                assert_eq!(target, Coord::new(2, 0));
                assert_eq!(sources, vec![Coord::new(1, -1), Coord::new(1, 1)]);
            }
            other => panic!("expected shared-target collision, got {other:?}"),
        }
    }

    #[test]
    fn trains_are_legal() {
        // A column of two robots both moving east: the follower enters the
        // node the leader vacates. Legal per §II-A.
        let two = cfg(&[(0, 0), (2, 0)]);
        let moves = vec![Some(Dir::E), Some(Dir::E)];
        assert_eq!(check_moves(&two, &moves), Ok(()));
    }

    #[test]
    fn disconnection_detected() {
        // The east robot runs away east; the other has no east neighbour
        // and stays... make only robots with a W neighbour move east.
        let a = FnAlgorithm::new(1, "flee", |v: &View| {
            (v.neighbor(Dir::W) && !v.neighbor(Dir::E)).then_some(Dir::E)
        });
        let two = cfg(&[(0, 0), (2, 0)]);
        let ex = run(&two, &a, Limits::default());
        assert_eq!(ex.outcome, Outcome::Disconnected { round: 1 });
        assert_eq!(ex.final_config, cfg(&[(0, 0), (4, 0)]));
    }

    #[test]
    fn step_reports_applied_moves() {
        let two = cfg(&[(0, 0), (2, 0)]);
        let (next, moves) = step(&two, &march_east()).unwrap();
        assert_eq!(next, cfg(&[(2, 0), (4, 0)]));
        assert_eq!(moves.len(), 2);
        assert!(moves.iter().all(|m| m.dir == Dir::E));
        assert_eq!(moves[0].to(), moves[0].from.step(Dir::E));
    }

    #[test]
    fn run_traced_records_every_configuration() {
        let a = FnAlgorithm::new(1, "flee", |v: &View| {
            (v.neighbor(Dir::W) && !v.neighbor(Dir::E)).then_some(Dir::E)
        });
        let two = cfg(&[(0, 0), (2, 0)]);
        let ex = run_traced(&two, &a, Limits::default());
        let trace = ex.trace.unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0], two);
        assert_eq!(trace[1], cfg(&[(0, 0), (4, 0)]));
    }

    #[test]
    fn step_limit_respected() {
        // march-east with livelock detection disabled must hit the cap.
        let two = cfg(&[(0, 0), (2, 0)]);
        let limits = Limits { max_rounds: 17, detect_livelock: false };
        let ex = run(&two, &march_east(), limits);
        assert_eq!(ex.outcome, Outcome::StepLimit { rounds: 17 });
        assert_eq!(ex.final_config, cfg(&[(34, 0), (36, 0)]));
    }

    #[test]
    fn outcome_is_gathered_helper() {
        assert!(Outcome::Gathered { rounds: 3 }.is_gathered());
        assert!(!Outcome::StuckFixpoint { rounds: 3 }.is_gathered());
    }
}
