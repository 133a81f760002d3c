//! The crash-fault scenario model: gathering despite up to `f`
//! permanently crashed robots.
//!
//! The paper proves gathering only in the fault-free FSYNC model and
//! names weaker models as future work (§V); [`crate::adversary`]
//! settled the SSYNC axis. This module opens the next canonical axis:
//! an adversary that, on top of choosing SSYNC activations, may
//! **permanently crash** up to `f` robots. A crashed robot never
//! performs another Look-Compute-Move cycle, but it keeps occupying its
//! node and appears in every view exactly like a live robot — crashes
//! are invisible to the algorithm.
//!
//! Because the crashed robots cannot join any gathering point, the goal
//! is relaxed (the standard relaxation for crash-fault gathering): the
//! execution succeeds when it reaches a fixpoint of the *live* robots
//! in which all live robots fit inside one closed ball of the smallest
//! radius that could hold the full `n`-robot swarm
//! ([`crate::min_gather_radius`]) — see [`relaxed_gathered`]. The
//! radius depends on the *total* robot count, never on how many are
//! still live, so the goal is closed under further crash injections
//! (DESIGN.md §10 and §14). For seven robots and `f = 0` this
//! coincides exactly with the paper's hexagon (Definition 1), which is
//! why the fault-free checker is this model's `f = 0` instantiation.
//!
//! [`CrashChecker`], the generic [`ModelChecker`] over [`CrashModel`],
//! classifies an initial class as
//! **f-crash-proof** (every fair schedule with at most `f` crashes
//! gathers the live robots), **refuted** (a minimal replayable
//! schedule + crash assignment reaches a collision, a disconnection, a
//! dead fixpoint or a fair non-gathering cycle), or **undecided** (a
//! search budget tripped). Refutations replay through the engine
//! via [`replay`]. The exploration core is [`crate::explore`] — its
//! packed-state representation (DESIGN.md §11) carries this checker's
//! full-space classification; the crash golden files pin that the
//! packing is verdict-transparent. The soundness argument is DESIGN.md
//! §10.

use crate::adversary::{AdversaryOptions, Fnv64};
use crate::checker::{Model, ModelChecker};
use crate::engine::{self, Execution, Limits, Outcome};
use crate::explore::{self, CrashSemantics, ExploreOptions};
use crate::sched::CrashRound;
use crate::{Algorithm, Configuration};
use trigrid::Coord;

pub use crate::explore::{ExploreReport as CrashReport, ExploreVerdict as CrashVerdict};

/// Search parameters for [`CrashChecker`].
#[derive(Clone, Copy, Debug)]
pub struct CrashOptions {
    /// Maximal number of robots the adversary may crash (`f`).
    pub crashes: u8,
    /// Budgets of the underlying explorer.
    pub explore: ExploreOptions,
}

impl Default for CrashOptions {
    fn default() -> Self {
        CrashOptions { crashes: 1, explore: ExploreOptions::crash() }
    }
}

impl CrashOptions {
    /// Options for budget `f`. The depth is ignored — the fair-cycle
    /// decision is complete and takes no depth bound — and stays only
    /// so `crash:F:D` cells and existing callers keep compiling.
    #[must_use]
    pub fn new(crashes: u8, _depth: usize) -> Self {
        CrashOptions { crashes, explore: ExploreOptions::crash() }
    }

    /// Options for budget `f` over an `n`-robot space. For n ≤ 7 these
    /// are exactly [`CrashOptions::new`]'s (65,536 states, 16M edges),
    /// the budgets the n ≤ 7 goldens were pinned under. Wider spaces
    /// raise the caps to cover the cell's whole crash state space, so
    /// that neither a search nor the cell's labeled graph (DESIGN.md
    /// §19) can trip them:
    ///
    /// * a crash search never leaves the connected `n`-robot classes
    ///   (collisions and disconnections refute at once, and moves keep
    ///   the robot count), and [`AdversaryOptions::for_robots`]'s class
    ///   cap covers them (32,768 at n = 8; 16,689 are connected);
    /// * a class has at most R(n, f) = Σ_{k ≤ f} C(n, k) states, one per
    ///   crash mask the budget affords;
    /// * a state has at most R(n, f) × 2^n actions: an affordable crash
    ///   set, then an activation subset.
    ///
    /// At n = 8, f = 1 that is 294,912 states and 679M edges.
    #[must_use]
    pub fn for_robots(crashes: u8, n: usize) -> Self {
        if n <= 7 {
            return CrashOptions::new(crashes, 0);
        }
        let mut masks = 0usize;
        let mut choose = 1usize; // C(n, k)
        for k in 0..=usize::from(crashes).min(n) {
            masks += choose;
            choose = choose * (n - k) / (k + 1);
        }
        let max_states = AdversaryOptions::for_robots(n).max_classes * masks;
        let max_edges = max_states.saturating_mul(masks << n);
        let explore = ExploreOptions { max_states, max_edges, ..ExploreOptions::crash() };
        CrashOptions { crashes, explore }
    }
}

/// Whether the configuration counts as *relaxed-gathered* for the given
/// crashed-slot mask: every non-crashed robot lies within one closed
/// ball of radius [`crate::min_gather_radius`]`(cfg.len())` — the
/// smallest ball that could hold the *total* robot count. One or zero
/// live robots are vacuously gathered.
///
/// The radius is a function of the total count, **not** the live
/// count: crashing robots only shrinks the live set, so a goal state
/// stays a goal under every further injection — the closure property
/// the explorer's terminal classification relies on (DESIGN.md §10,
/// §14). With no crashes and seven robots this is exactly the paper's
/// gathered hexagon — a radius-1 ball holds seven nodes, so all seven
/// robots fill it.
#[must_use]
pub fn relaxed_gathered(cfg: &Configuration, crashed: u16) -> bool {
    let live: Vec<Coord> = cfg
        .positions()
        .iter()
        .enumerate()
        .filter(|(i, _)| crashed & (1 << *i) == 0)
        .map(|(_, &p)| p)
        .collect();
    let Some(&first) = live.first() else {
        return true;
    };
    if live.len() == 1 {
        return true;
    }
    let r = crate::config::min_gather_radius(cfg.len());
    // Any center covering every live robot is within `r` of `first`,
    // so scanning the disk around `first` is complete.
    trigrid::region::disk(first, r)
        .into_iter()
        .any(|center| live.iter().all(|&p| center.distance(p) <= r))
}

/// Slot bitmask of the `crashed` coordinates within `cfg` (row-major
/// slot indexing, like every scheduler mask).
///
/// # Panics
/// Panics if a coordinate is not a robot node of `cfg`, or if `cfg`
/// holds more than [`crate::explore::MASK_ROBOTS`] robots.
#[must_use]
pub fn crash_mask(cfg: &Configuration, crashed: &[Coord]) -> u16 {
    assert!(
        cfg.len() <= crate::explore::MASK_ROBOTS,
        "crash masks are 16-bit: at most {} robots",
        crate::explore::MASK_ROBOTS
    );
    let mut mask = 0u16;
    for &p in crashed {
        let slot = cfg
            .positions()
            .iter()
            .position(|&q| q == p)
            .expect("crashed robots occupy nodes of the configuration");
        mask |= 1 << slot;
    }
    mask
}

/// Whether `cfg` is a *successful* terminal of the crash model: no live
/// robot would move even if activated, and the live robots are
/// relaxed-gathered.
#[must_use]
pub fn is_goal_fixpoint<A: Algorithm + ?Sized>(
    cfg: &Configuration,
    algo: &A,
    crashed: &[Coord],
) -> bool {
    let mask = crash_mask(cfg, crashed);
    let moves = engine::compute_moves(cfg, algo);
    let live_mover = moves.iter().enumerate().any(|(i, m)| mask & (1 << i) == 0 && m.is_some());
    !live_mover && relaxed_gathered(cfg, mask)
}

/// FNV-1a hash of a crash-fault schedule (crash mask then activation
/// mask per round, each through [`Fnv64::write_mask`] so ≤ 7-robot
/// schedules hash exactly as in the byte-mask era), for compact golden
/// files — the crash-model counterpart of
/// [`crate::adversary::schedule_hash`].
#[must_use]
pub fn schedule_hash(schedule: &[CrashRound]) -> u64 {
    let mut h = Fnv64::new();
    for action in schedule {
        h.write_mask(action.crash);
        h.write_mask(action.activate);
    }
    h.finish()
}

/// The crash-fault adversary as a [`Model`]: the crash semantics with
/// crash budget `f` and the [`relaxed_gathered`] goal.
pub enum CrashModel {}

impl Model for CrashModel {
    type Options = CrashOptions;
    type Semantics = CrashSemantics;
    type Report = CrashReport;

    fn explorer(opts: CrashOptions) -> (ExploreOptions, CrashSemantics) {
        (opts.explore, CrashSemantics::new(opts.crashes, relaxed_gathered))
    }

    fn report(report: CrashReport) -> CrashReport {
        report
    }
}

/// An exhaustive crash-fault adversary checker for one algorithm.
pub type CrashChecker<'a, A> = ModelChecker<'a, A, CrashModel>;

/// The result of replaying a crash-fault schedule: the execution plus
/// the final crashed coordinates.
#[derive(Clone, Debug)]
pub struct CrashExecution {
    /// The replayed execution; `trace` is always recorded.
    pub execution: Execution,
    /// Coordinates of the crashed robots at the end, in discovery
    /// order.
    pub crashed: Vec<Coord>,
    /// Crash events as `(trace index, coordinate)`: the robot at
    /// `coordinate` crashed when the trace held `trace index + 1`
    /// configurations — it must still occupy that node in every later
    /// trace entry.
    pub events: Vec<(usize, Coord)>,
}

/// Replays a crash-fault schedule through the engine's round semantics
/// ([`engine::step_moves`]). Each recorded round first lands its crash
/// injections (freezing those robots' coordinates forever), then
/// activates the recorded non-crashed robots; rounds beyond the
/// schedule crash nobody and activate every live robot. Crashed robots
/// never activate again — they keep occupying their node and appearing
/// in views. The run terminates with
///
/// * [`Outcome::Gathered`] / [`Outcome::StuckFixpoint`] when no live
///   robot would move even under full activation (the goal is
///   [`relaxed_gathered`]),
/// * [`Outcome::Collision`] / [`Outcome::Disconnected`] as in FSYNC,
/// * [`Outcome::StepLimit`] after `limits.max_rounds` *movement*
///   rounds — injection-only rounds and rounds that move nobody do not
///   advance the counter (matching the explorer's round bookkeeping).
///
/// [`crate::adversary::replay`] runs SSYNC refutations here as
/// crash-free schedules.
#[must_use]
pub fn run_crash_schedule<A: Algorithm + ?Sized>(
    initial: &Configuration,
    algo: &A,
    schedule: &[CrashRound],
    limits: Limits,
) -> CrashExecution {
    assert!(
        initial.len() <= crate::explore::MASK_ROBOTS,
        "crash masks are 16-bit: at most {} robots",
        crate::explore::MASK_ROBOTS
    );
    let mut cfg = initial.clone();
    let mut trace = vec![cfg.clone()];
    let mut frozen: Vec<Coord> = Vec::new();
    let mut events: Vec<(usize, Coord)> = Vec::new();
    let mut rounds = 0usize;
    let mut next = 0usize;
    let outcome = loop {
        let full = engine::compute_moves(&cfg, algo);
        let crashed: Vec<bool> = cfg.positions().iter().map(|p| frozen.contains(p)).collect();
        if full.iter().zip(&crashed).all(|(m, &c)| c || m.is_none()) {
            let mask = crash_mask(&cfg, &frozen);
            break if relaxed_gathered(&cfg, mask) {
                Outcome::Gathered { rounds }
            } else {
                Outcome::StuckFixpoint { rounds }
            };
        }
        if rounds >= limits.max_rounds {
            break Outcome::StepLimit { rounds: limits.max_rounds };
        }
        // Beyond the schedule: no more crashes, everyone live acts.
        let beyond = CrashRound { crash: 0, activate: u16::MAX };
        let CrashRound { crash, activate } = schedule.get(next).copied().unwrap_or(beyond);
        next += 1;
        for (i, &p) in cfg.positions().iter().enumerate() {
            if crash & (1 << i) != 0 && !frozen.contains(&p) {
                frozen.push(p);
                events.push((trace.len() - 1, p));
            }
        }
        let moves: Vec<_> = full
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let live = !frozen.contains(&cfg.positions()[i]);
                if live && activate & (1 << i) != 0 {
                    *m
                } else {
                    None
                }
            })
            .collect();
        if moves.iter().all(Option::is_none) {
            continue; // injection-only (or mover-free) round
        }
        match engine::step_moves(&cfg, &moves) {
            Err(collision) => break Outcome::Collision { round: rounds, collision },
            Ok(result) => {
                cfg = result.config;
                rounds += 1;
                trace.push(cfg.clone());
                if !cfg.is_connected() {
                    break Outcome::Disconnected { round: rounds };
                }
            }
        }
    };
    CrashExecution {
        execution: Execution {
            initial: initial.clone(),
            final_config: cfg,
            outcome,
            trace: Some(trace),
        },
        crashed: frozen,
        events,
    }
}

/// Replays a [`CrashVerdict::Refuted`] schedule through
/// [`run_crash_schedule`]; returns `None` for other verdicts. The
/// replayed execution must end with exactly the verdict's `outcome`.
#[must_use]
pub fn replay<A: Algorithm + ?Sized>(
    initial: &Configuration,
    algo: &A,
    verdict: &CrashVerdict,
) -> Option<CrashExecution> {
    let CrashVerdict::Refuted { schedule, outcome } = verdict else {
        return None;
    };
    let limits = explore::replay_limits(outcome, explore::movement_rounds(schedule));
    Some(run_crash_schedule(initial, algo, schedule, limits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FnAlgorithm, StayAlgorithm, View};
    use trigrid::{Dir, ORIGIN};

    fn cfg(cells: &[(i32, i32)]) -> Configuration {
        Configuration::new(cells.iter().map(|&(x, y)| Coord::new(x, y)))
    }

    #[test]
    fn crash_caps_cover_the_whole_crash_space_from_eight_robots() {
        let small = CrashOptions::for_robots(2, 7).explore;
        assert_eq!((small.max_states, small.max_edges), (65_536, 16_000_000));
        let n8 = CrashOptions::for_robots(1, 8).explore;
        assert_eq!((n8.max_states, n8.max_edges), ((1 << 15) * 9, (1 << 15) * 9 * 9 * 256));
        let n9 = CrashOptions::for_robots(2, 9).explore;
        assert_eq!(n9.max_states, (1 << 18) * 46, "R(9, 2) = 1 + 9 + 36");
    }

    #[test]
    fn relaxed_gathering_accepts_balls_and_sub_balls() {
        let h = crate::config::hexagon(ORIGIN);
        assert!(relaxed_gathered(&h, 0), "the full hexagon is gathered");
        // Crash any one robot: the remaining six still fit the ball.
        for slot in 0..7 {
            assert!(relaxed_gathered(&h, 1 << slot));
        }
        // A line of three fits the ball centred on its middle robot; a
        // line of four does not, but crashing an end robot shrinks the
        // live set back into a ball.
        let line3 = cfg(&[(0, 0), (2, 0), (4, 0)]);
        assert!(relaxed_gathered(&line3, 0), "a 3-line sits inside one ball");
        let line4 = cfg(&[(0, 0), (2, 0), (4, 0), (6, 0)]);
        assert!(!relaxed_gathered(&line4, 0));
        assert!(relaxed_gathered(&line4, 0b0001), "crashing an end robot re-gathers the rest");
        assert!(!relaxed_gathered(&line4, 0b0010), "the live span is still 3 edges wide");
    }

    #[test]
    fn relaxed_gathering_is_vacuous_below_two_live_robots() {
        let two = cfg(&[(0, 0), (6, 0)]);
        assert!(relaxed_gathered(&two, 0b11));
        assert!(relaxed_gathered(&two, 0b01));
        assert!(relaxed_gathered(&Configuration::new([ORIGIN]), 0));
    }

    #[test]
    fn crash_mask_round_trips_coordinates() {
        let line = cfg(&[(0, 0), (2, 0), (4, 0)]);
        assert_eq!(crash_mask(&line, &[Coord::new(2, 0)]), 0b010);
        assert_eq!(crash_mask(&line, &[Coord::new(4, 0), Coord::new(0, 0)]), 0b101);
        assert_eq!(crash_mask(&line, &[]), 0);
    }

    #[test]
    fn crashed_robot_freezes_in_replay() {
        // Both robots march east; the schedule crashes the west robot
        // in round 0 and activates the east one: the frozen robot must
        // stay at the origin while the other walks away and
        // disconnects the pair.
        let march = FnAlgorithm::new(1, "march", |_: &View| Some(Dir::E));
        let two = cfg(&[(0, 0), (2, 0)]);
        let schedule = [CrashRound { crash: 0b01, activate: 0b10 }];
        let limits = Limits { max_rounds: 10, detect_livelock: false };
        let run = run_crash_schedule(&two, &march, &schedule, limits);
        assert_eq!(run.execution.outcome, Outcome::Disconnected { round: 1 });
        assert_eq!(run.crashed, vec![ORIGIN]);
        let trace = run.execution.trace.as_ref().expect("trace recorded");
        assert!(trace.iter().all(|c| c.contains(ORIGIN)), "the crashed robot never moves");
    }

    #[test]
    fn injection_only_round_does_not_advance_the_round_counter() {
        // A wanderer plus a stayer two nodes behind it: crashing the
        // wanderer in an injection-only round freezes the pair at span
        // 2 — a (relaxed-gathered) fixpoint after zero movement rounds.
        let march = FnAlgorithm::new(1, "march-if-clear", |v: &View| {
            (!v.neighbor(Dir::E)).then_some(Dir::E)
        });
        let pair = cfg(&[(0, 0), (2, 0)]);
        let schedule = [CrashRound { crash: 0b10, activate: 0 }];
        let limits = Limits { max_rounds: 10, detect_livelock: false };
        let run = run_crash_schedule(&pair, &march, &schedule, limits);
        assert_eq!(run.execution.outcome, Outcome::Gathered { rounds: 0 });
        assert_eq!(run.crashed, vec![Coord::new(2, 0)]);
    }

    #[test]
    fn replay_runs_the_recorded_masks_then_activates_every_robot() {
        // A NE diagonal marching east when clear: round 0 moves robot 0,
        // round 1 robots 1 and 2, and past the schedule every robot.
        let march = FnAlgorithm::new(1, "march-if-clear", |v: &View| {
            (!v.neighbor(Dir::E)).then_some(Dir::E)
        });
        let schedule = [0b001, 0b110].map(|activate| CrashRound { crash: 0, activate });
        let limits = Limits { max_rounds: 3, detect_livelock: false };
        let run = run_crash_schedule(&cfg(&[(0, 0), (1, 1), (2, 2)]), &march, &schedule, limits);
        assert_eq!(run.execution.outcome, Outcome::StepLimit { rounds: 3 });
        let moved = [[(2, 0), (1, 1), (2, 2)], [(2, 0), (3, 1), (4, 2)], [(4, 0), (5, 1), (6, 2)]];
        assert_eq!(run.execution.trace.expect("trace recorded")[1..], moved.map(|c| cfg(&c)));
    }

    #[test]
    fn checker_refutes_the_marching_pair_and_replays() {
        let march = FnAlgorithm::new(1, "march", |_: &View| Some(Dir::E));
        let two = cfg(&[(0, 0), (2, 0)]);
        let checker = CrashChecker::new(&march, CrashOptions::default());
        assert_eq!(checker.crashes(), 1);
        let report = checker.check(&two);
        let CrashVerdict::Refuted { outcome, .. } = &report.verdict else {
            panic!("marching east cannot crash-gather: {:?}", report.verdict);
        };
        let run = replay(&two, &march, &report.verdict).expect("refutations replay");
        assert_eq!(&run.execution.outcome, outcome, "replay reproduces the verdict outcome");
    }

    #[test]
    fn stay_on_a_ball_is_crash_proof() {
        // StayAlgorithm never moves, so any non-ball class is stuck —
        // but from the gathered hexagon every crash keeps the live
        // robots inside the ball: proof even with the full budget.
        let h = crate::config::hexagon(ORIGIN);
        for f in [0u8, 1, 3] {
            let checker = CrashChecker::new(&StayAlgorithm, CrashOptions::new(f, 12));
            assert_eq!(checker.check(&h).verdict, CrashVerdict::Proof, "f = {f}");
        }
    }

    #[test]
    fn goal_fixpoint_helper_matches_model() {
        let h = crate::config::hexagon(ORIGIN);
        assert!(is_goal_fixpoint(&h, &StayAlgorithm, &[]));
        assert!(is_goal_fixpoint(&h, &StayAlgorithm, &[ORIGIN]));
        let line4 = cfg(&[(0, 0), (2, 0), (4, 0), (6, 0)]);
        assert!(!is_goal_fixpoint(&line4, &StayAlgorithm, &[]));
        let march = FnAlgorithm::new(1, "march", |_: &View| Some(Dir::E));
        assert!(!is_goal_fixpoint(&h, &march, &[]), "movers forbid a fixpoint");
    }

    #[test]
    fn replay_returns_none_for_proof_and_undecided() {
        let h = crate::config::hexagon(ORIGIN);
        assert!(replay(&h, &StayAlgorithm, &CrashVerdict::Proof).is_none());
        assert!(replay(
            &h,
            &StayAlgorithm,
            &CrashVerdict::Undecided { reason: Default::default() }
        )
        .is_none());
    }

    #[test]
    fn crash_schedule_hash_distinguishes_crash_patterns() {
        let a = vec![CrashRound { crash: 1, activate: 2 }];
        let b = vec![CrashRound { crash: 2, activate: 1 }];
        assert_ne!(schedule_hash(&a), schedule_hash(&b));
        assert_eq!(schedule_hash(&[]), schedule_hash(&[]));
    }
}
