//! The ASYNC (fully asynchronous) model: semantics, exhaustive model
//! checker, and scheduled walks.
//!
//! In ASYNC the adversary interleaves the *phases* of the robots'
//! Look-Compute-Move cycles: a robot may compute a move from a stale
//! snapshot and execute it much later, after the world has changed.
//! This module implements the standard interleaving discretisation —
//! each tick the adversary advances exactly one robot's phase: an idle
//! robot performs Look+Compute (capturing a pending decision from the
//! *current* configuration), a robot with a pending decision executes
//! its (possibly outdated) move. A robot whose fresh decision is *stay*
//! completes its whole cycle with no effect, so the discretisation
//! collapses look-then-stay into a single no-op (DESIGN.md §13 argues
//! why this loses no adversary behaviour).
//!
//! The paper claims nothing about ASYNC (§V leaves even SSYNC open).
//! Historically this module could only *sample* the model with a
//! seeded random scheduler; it is now an instantiation of the generic
//! exploration layer: [`AsyncSemantics`] plugs the phase-advance
//! transition system into [`robots::explore`](crate::explore), and
//! [`AsyncChecker`], the generic [`ModelChecker`] over [`AsyncModel`],
//! classifies an initial class as **async-proof**
//! (every fair phase interleaving gathers), **refuted** (with a minimal
//! replayable tick schedule) or **undecided** (a search budget
//! tripped). States are `(canonical class, packed pending vector)` — see
//! [`PackedPending`] — actions are single-robot phase advances, and
//! every walk (the explorer's, [`run_async`]'s, and the replayer's)
//! steps through the one [`advance_phase`] successor function.
//! [`AsyncSemantics`] only enumerates a state's phase advances with
//! their targets ([`Semantics::actions`]); the explorer's one
//! expansion interns, counts, polls and refutes them as it does the
//! crash semantics' actions. The enumerator reads each move from its
//! class's move table in the explorer's class table: one entry per
//! `(slot, direction)`, filled on first read by `advance_phase` on the
//! class's decoded representative, naming the successor by class id and
//! the mover's new slot. An edge then costs a table read and a
//! pending-vector relabelling: no configuration, connectivity flood,
//! key or lock.
//!
//! Fairness in ASYNC means every robot's phase advances infinitely
//! often (every robot completes infinitely many LCM cycles); the
//! per-edge certificates behind the explorer's fair-cycle decision
//! (Phase D) encode exactly that, with idle robots that are observed
//! deciding to stay satisfiable for free.

use crate::checker::{Model, ModelChecker};
use crate::config::{PackedClass, PackedPending};
use crate::engine::{self, Execution, Limits, Outcome, RoundCollision};
use crate::explore::{
    self, canonical_action, edge_cert, ClassInfo, ClassNode, EdgeCert, ExploreOptions, Explorer,
    NodeKind, Semantics, Target, MAX_CLASSES,
};
use crate::sched::CrashRound;
use crate::{Algorithm, Configuration, View};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU32, Ordering};

use trigrid::transform::PointSymmetry;
use trigrid::{Coord, Dir};

pub use crate::explore::{ExploreReport as AsyncReport, ExploreVerdict as AsyncVerdict};

/// Chooses which robot's phase advances at each tick.
pub trait AsyncScheduler {
    /// Index (into the stable internal robot list, *not* the row-major
    /// slot order) of the robot to activate at this tick. Must be `< n`.
    fn pick(&mut self, tick: usize, n: usize) -> usize;
}

/// Cycles through the robots in index order — every robot completes its
/// cycle in two consecutive activations (an "almost synchronous"
/// adversary).
pub struct RoundRobinAsync;

impl AsyncScheduler for RoundRobinAsync {
    fn pick(&mut self, tick: usize, n: usize) -> usize {
        tick % n
    }
}

/// Uniformly random activations (seeded): some robots run far ahead
/// while others sit on stale pending moves — the interesting adversary.
pub struct RandomAsync {
    rng: StdRng,
}

impl RandomAsync {
    /// Creates a seeded random ASYNC adversary.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        RandomAsync { rng: StdRng::seed_from_u64(seed) }
    }
}

impl AsyncScheduler for RandomAsync {
    fn pick(&mut self, _tick: usize, n: usize) -> usize {
        self.rng.random_range(0..n)
    }
}

/// The effect of advancing one robot's LCM phase — the ASYNC model's
/// only adversary action, produced by [`advance_phase`].
pub enum PhaseAdvance {
    /// The robot was idle and its fresh decision is *stay*: the whole
    /// Look-Compute-Move cycle completes with no effect.
    Stayed,
    /// The robot was idle: Look+Compute captured a pending move from
    /// the current configuration.
    Looked(PackedPending),
    /// The robot executed its pending (possibly stale) move.
    Moved {
        /// The configuration after the move.
        config: Configuration,
        /// The surviving pendings, re-indexed to `config`'s row-major
        /// slots; the mover itself returns to idle.
        pending: PackedPending,
    },
}

/// Advances the phase of the robot in row-major slot `slot` of `cfg`
/// with pending state `pending`: the **single** successor function of
/// the ASYNC model, stepped through by the exhaustive checker
/// ([`AsyncSemantics`]), the simulator ([`run_async`]) and the
/// replayer ([`run_async_schedule`]) alike. Move execution validates
/// through the engine's shared round semantics
/// ([`engine::check_moves`]) — a one-hot round, whose only possible
/// violation is a shared target (a swap needs two movers).
///
/// # Errors
/// Returns the collision when the (stale) pending move lands on an
/// occupied node.
///
/// # Panics
/// Panics if `slot` is out of range or `cfg` holds more than
/// [`PackedClass::MAX_ROBOTS`] robots.
pub fn advance_phase<A: Algorithm + ?Sized>(
    cfg: &Configuration,
    pending: PackedPending,
    slot: usize,
    algo: &A,
) -> Result<PhaseAdvance, RoundCollision> {
    let n = cfg.len();
    assert!(
        n <= PackedClass::MAX_ROBOTS,
        "pending vectors hold at most {} robots",
        PackedClass::MAX_ROBOTS
    );
    assert!(slot < n, "slot {slot} out of range for {n} robots");
    match pending.get(slot) {
        None => {
            // Look + Compute on the *current* configuration.
            let p = cfg.positions()[slot];
            let view = View::observe(cfg, p, algo.radius());
            match algo.compute(&view) {
                None => Ok(PhaseAdvance::Stayed),
                Some(d) => Ok(PhaseAdvance::Looked(pending.with(slot, Some(d)))),
            }
        }
        Some(d) => {
            let mut moves = [None; PackedClass::MAX_ROBOTS];
            moves[slot] = Some(d);
            engine::check_moves(cfg, &moves[..n])?;
            let next = cfg.apply_unchecked(&moves[..n]);
            // Re-index the surviving pendings into the new row-major
            // slot order; stationary robots keep their coordinates.
            let mut remapped = PackedPending::IDLE;
            for (i, &p) in cfg.positions().iter().enumerate() {
                if i == slot {
                    continue; // the mover completes its cycle: idle
                }
                if let Some(dir) = pending.get(i) {
                    let j = next
                        .positions()
                        .iter()
                        .position(|&q| q == p)
                        .expect("stationary robots keep their nodes");
                    remapped = remapped.with(j, Some(dir));
                }
            }
            Ok(PhaseAdvance::Moved { config: next, pending: remapped })
        }
    }
}

/// Runs `algo` under the ASYNC model. `limits.max_rounds` counts
/// *ticks* (single-robot phase advances).
///
/// This is a thin scheduled walk over [`advance_phase`] — the same
/// successor function the exhaustive [`AsyncChecker`] explores.
/// Outcomes: [`Outcome::Gathered`]/[`Outcome::StuckFixpoint`] when no
/// robot has a pending move and a fresh Look would move nobody;
/// [`Outcome::Collision`] when a (stale) move lands on an occupied node;
/// [`Outcome::Disconnected`] when the adjacency graph splits (its round
/// counts the disconnecting move, as [`run_async_schedule`] does);
/// [`Outcome::StepLimit`] otherwise. Livelock detection is unsound under
/// a non-deterministic adversary and is not attempted.
#[must_use]
pub fn run_async<A: Algorithm + ?Sized, S: AsyncScheduler>(
    initial: &Configuration,
    algo: &A,
    sched: &mut S,
    limits: Limits,
) -> Execution {
    // Stable robot identities for the scheduler (the algorithm itself
    // never sees them); slot indices are re-derived per tick.
    let mut positions: Vec<Coord> = initial.positions().to_vec();
    let mut cfg = initial.clone();
    let mut pending = PackedPending::IDLE;

    let finish = |cfg: Configuration, outcome: Outcome| Execution {
        initial: initial.clone(),
        final_config: cfg,
        outcome,
        trace: None,
    };

    for tick in 0..limits.max_rounds {
        // Termination test: nothing pending, and a synchronous Look
        // would move nobody.
        if pending.is_idle() {
            let moves = engine::compute_moves(&cfg, algo);
            if moves.iter().all(Option::is_none) {
                let outcome = if cfg.is_gathered() {
                    Outcome::Gathered { rounds: tick }
                } else {
                    Outcome::StuckFixpoint { rounds: tick }
                };
                return finish(cfg, outcome);
            }
        }

        let i = sched.pick(tick, positions.len());
        let slot = cfg
            .positions()
            .iter()
            .position(|&p| p == positions[i])
            .expect("the robot occupies its own node");
        match advance_phase(&cfg, pending, slot, algo) {
            Err(collision) => return finish(cfg, Outcome::Collision { round: tick, collision }),
            Ok(PhaseAdvance::Stayed) => {}
            Ok(PhaseAdvance::Looked(captured)) => pending = captured,
            Ok(PhaseAdvance::Moved { config, pending: remapped }) => {
                let d = pending.get(slot).expect("the robot moved from a pending slot");
                positions[i] = positions[i].step(d);
                cfg = config;
                pending = remapped;
                if !cfg.is_connected() {
                    // The move itself is a tick, as in the replayer.
                    return finish(cfg, Outcome::Disconnected { round: tick + 1 });
                }
            }
        }
    }
    finish(cfg, Outcome::StepLimit { rounds: limits.max_rounds })
}

/// A move-table entry that is not filled yet.
const MOVE_UNFILLED: u32 = u32::MAX;
/// A move-table entry whose move lands on an occupied node.
const MOVE_COLLIDES: u32 = u32::MAX - 1;
/// A move-table entry whose move disconnects the configuration.
const MOVE_DISCONNECTS: u32 = u32::MAX - 2;
/// A successor entry holds the mover's new slot from this bit up, and
/// the successor's class id below it.
const MOVE_SLOT_SHIFT: u32 = 24;

// Every class id fits below the slot bits, and no successor entry
// reaches the sentinels.
const _: () = assert!(MAX_CLASSES <= 1 << MOVE_SLOT_SHIFT);
const _: () = assert!((PackedClass::MAX_ROBOTS as u32) < MOVE_DISCONNECTS >> MOVE_SLOT_SHIFT);

/// What one pending robot's move does from a class, as the class's move
/// table records it: a pure function of the class, the robot's slot and
/// the move's direction (the other robots' pendings only ride along).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum MoveEntry {
    /// The robot lands on an occupied node.
    Collides,
    /// The configuration splits.
    Disconnects,
    /// The successor class, and the mover's row-major slot in it.
    Succ {
        /// The successor's class table id.
        class: u32,
        /// The mover's slot in the successor.
        slot: usize,
    },
}

impl MoveEntry {
    fn pack(self) -> u32 {
        match self {
            MoveEntry::Collides => MOVE_COLLIDES,
            MoveEntry::Disconnects => MOVE_DISCONNECTS,
            MoveEntry::Succ { class, slot } => (slot as u32) << MOVE_SLOT_SHIFT | class,
        }
    }

    fn unpack(bits: u32) -> MoveEntry {
        match bits {
            MOVE_COLLIDES => MoveEntry::Collides,
            MOVE_DISCONNECTS => MoveEntry::Disconnects,
            _ => MoveEntry::Succ {
                class: bits & ((1 << MOVE_SLOT_SHIFT) - 1),
                slot: (bits >> MOVE_SLOT_SHIFT) as usize,
            },
        }
    }
}

/// The move table of class `id`: one entry per `(slot, direction)` at
/// `slot * 6 + direction index`, every one unfilled until first read
/// ([`read_move`]).
fn move_table<'e, A: Algorithm + ?Sized>(
    explorer: &'e Explorer<'_, A, AsyncSemantics>,
    id: u32,
) -> &'e [AtomicU32] {
    explorer.class_table(id, |node| {
        (0..node.info().robots() * Dir::ALL.len()).map(|_| AtomicU32::new(MOVE_UNFILLED)).collect()
    })
}

/// The entry of `table` (class `key`'s move table) for the robot in
/// slot `slot` moving towards `dir`, filled on first read through
/// [`step_class`]. Racing fills store the same value. The store
/// releases and the load acquires, so a reader that sees a successor
/// id also sees that class's node.
fn read_move<A: Algorithm + ?Sized>(
    explorer: &Explorer<'_, A, AsyncSemantics>,
    table: &[AtomicU32],
    key: PackedClass,
    slot: usize,
    dir: Dir,
) -> MoveEntry {
    let entry = &table[slot * Dir::ALL.len() + dir.index()];
    let bits = entry.load(Ordering::Acquire);
    if bits != MOVE_UNFILLED {
        return MoveEntry::unpack(bits);
    }
    let step = step_class(explorer, key, slot, dir);
    entry.store(step.pack(), Ordering::Release);
    step
}

/// Steps class `key`'s decoded representative through [`advance_phase`]
/// with only slot `slot` pending, towards `dir`: the one ASYNC
/// successor function fills the move table too.
fn step_class<A: Algorithm + ?Sized>(
    explorer: &Explorer<'_, A, AsyncSemantics>,
    key: PackedClass,
    slot: usize,
    dir: Dir,
) -> MoveEntry {
    let cfg = key.unpack();
    let pending = PackedPending::IDLE.with(slot, Some(dir));
    match advance_phase(&cfg, pending, slot, explorer.algorithm()) {
        Err(_) => MoveEntry::Collides,
        Ok(PhaseAdvance::Moved { config, .. }) if !config.is_connected() => MoveEntry::Disconnects,
        Ok(PhaseAdvance::Moved { config, .. }) => {
            let target = cfg.positions()[slot].step(dir);
            let landed = config
                .positions()
                .iter()
                .position(|&p| p == target)
                .expect("the mover lands on its target");
            MoveEntry::Succ { class: explorer.class_id(config.canonical_key()), slot: landed }
        }
        Ok(_) => unreachable!("a pending robot always moves"),
    }
}

/// The pending vector of an `n`-robot class after the robot in slot
/// `from` executes its move and lands in slot `to` of the successor.
/// The mover turns idle, and the stationary robots keep their
/// row-major order around it: old slot `k` becomes `k' + [k' ≥ to]`,
/// where `k' = k − [k > from]`.
fn remap_pending(pending: PackedPending, n: usize, from: usize, to: usize) -> PackedPending {
    let mut remapped = PackedPending::IDLE;
    for k in (0..n).filter(|&k| k != from) {
        if let Some(dir) = pending.get(k) {
            let rest = k - usize::from(k > from);
            remapped = remapped.with(rest + usize::from(rest >= to), Some(dir));
        }
    }
    remapped
}

/// The ASYNC instantiation of the exploration layer's [`Semantics`]:
/// states are `(canonical class, packed pending vector)`, actions are
/// single-robot phase advances (one-hot [`CrashRound::activate`]
/// masks, never a crash injection), and successors are
/// [`advance_phase`]: a look updates the pending vector in place, and a
/// move is read from the class's move table, which `advance_phase`
/// fills.
///
/// Idle robots whose fresh decision is *stay* offer no action — their
/// full LCM cycle is a no-effect self-loop, excluded from expansion
/// and granted to fairness for free in the edge certificates, exactly
/// as the SSYNC checker treats observed-stay activations.
pub struct AsyncSemantics {
    /// Whether a terminal (all idle, nobody would move) counts as
    /// successful.
    goal: fn(&Configuration) -> bool,
}

impl AsyncSemantics {
    /// Builds the semantics with the given terminal goal predicate.
    #[must_use]
    pub fn new(goal: fn(&Configuration) -> bool) -> Self {
        AsyncSemantics { goal }
    }

    /// The paper's gathering goal ([`Configuration::is_gathered`]).
    #[must_use]
    pub fn gathering() -> Self {
        AsyncSemantics::new(Configuration::is_gathered)
    }
}

impl Semantics for AsyncSemantics {
    type Aux = PackedPending;
    type Entry = AtomicU32;

    fn root_aux(&self) -> PackedPending {
        PackedPending::IDLE
    }

    fn permute_aux(
        aux: PackedPending,
        n: usize,
        map: impl Fn(usize) -> usize,
        sym: PointSymmetry,
    ) -> PackedPending {
        // Pendings carry directions, so the symmetry acts on the
        // payload too: the robot mapped to slot `map(i)` holds the
        // *transformed* pending move.
        aux.permute_map(n, map, |d| sym.apply_dir(d))
    }

    /// The one terminal state of a class, if any, is its all-idle
    /// state (rank 0), when nobody would move.
    fn goal_bits(&self, cfg: &Configuration, info: &ClassInfo) -> u64 {
        u64::from(info.movers() == 0 && (self.goal)(cfg))
    }

    fn classify(&self, node: &ClassNode, aux: PackedPending) -> NodeKind {
        // A pending robot can always execute; an idle mover can always
        // look. Terminal = everyone idle and nobody would move.
        if aux.is_idle() && node.info().movers() == 0 {
            if node.goal_bit(0) {
                NodeKind::Goal
            } else {
                NodeKind::Stuck
            }
        } else {
            NodeKind::Inner
        }
    }

    /// No dense slots: each class's states sit on its chain of pending
    /// vectors.
    fn width(&self, _n: usize) -> usize {
        0
    }

    fn rank(&self, _pending: PackedPending) -> usize {
        unreachable!("a zero width ranks no pending vector")
    }

    /// The phase advance of every robot with an action, slot by slot:
    /// an idle mover captures its decision (a successor in its own
    /// class); a pending robot executes its (possibly stale) move, read
    /// from the class's move table, and the other pendings follow their
    /// robots into the successor's slots. An idle robot deciding to stay
    /// completes its whole cycle with no effect: a self-loop excluded
    /// from expansion (fairness gets it for free). The dedup runs before
    /// the move table is read.
    #[inline(always)]
    fn actions<A: Algorithm + ?Sized>(
        &self,
        explorer: &Explorer<'_, A, Self>,
        id: u32,
        pending: PackedPending,
        mut visit: impl FnMut(CrashRound, Target<PackedPending>) -> bool,
    ) -> usize {
        let node = explorer.node(id);
        let info = node.info();
        let n = info.robots();
        let perms = explorer.stabilizer_perms(node.key(), pending);
        let moves = if pending.is_idle() { &[][..] } else { move_table(explorer, id) };
        let mut deduped = 0;
        for slot in 0..n {
            let (dir, look) = match (pending.get(slot), info.decision(slot)) {
                (Some(dir), _) => (dir, false),
                (None, Some(dir)) => (dir, true),
                (None, None) => continue,
            };
            let action = CrashRound { crash: 0, activate: 1 << slot };
            if canonical_action(action, &perms) != action {
                deduped += 1;
                continue;
            }
            // One call site for `visit`, so that it inlines.
            let target = if look {
                Target::Succ(id, pending.with(slot, Some(dir)))
            } else {
                match read_move(explorer, moves, node.key(), slot, dir) {
                    MoveEntry::Collides => Target::Collides,
                    MoveEntry::Disconnects => Target::Disconnects,
                    MoveEntry::Succ { class, slot: landed } => {
                        Target::Succ(class, remap_pending(pending, n, slot, landed))
                    }
                }
            };
            if !visit(action, target) {
                return deduped;
            }
        }
        deduped
    }

    /// Decodes the class (a collision ends the search, so at most once
    /// per search) and takes the exact report from [`advance_phase`].
    fn collision<A: Algorithm + ?Sized>(
        &self,
        explorer: &Explorer<'_, A, Self>,
        id: u32,
        pending: PackedPending,
        action: CrashRound,
    ) -> RoundCollision {
        let cfg = explorer.node(id).key().unpack();
        let slot = action.activate.trailing_zeros() as usize;
        let Err(collision) = advance_phase(&cfg, pending, slot, explorer.algorithm()) else {
            unreachable!("the move table records a collision");
        };
        collision
    }

    /// A robot satisfies fairness on the edge when its phase advances
    /// (finitely many phases ⇒ infinitely many completed cycles in a
    /// pumped run) or when it is idle at a state whose fresh decision
    /// for it is *stay* (it can run full no-effect cycles at will).
    fn cert(
        node: &ClassNode,
        pending: PackedPending,
        action: CrashRound,
        to: PackedClass,
    ) -> EdgeCert {
        debug_assert_eq!(action.crash, 0, "ASYNC actions never inject crashes");
        let slot = action.activate.trailing_zeros() as usize;
        let info = node.info();
        edge_cert(node.key(), to, |pos| {
            let mut flags = 1 << slot;
            for i in 0..pos.len() {
                if pending.get(i).is_none() && info.decision(i).is_none() {
                    flags |= 1 << i;
                }
            }
            // A look leaves the configuration (and slot order)
            // unchanged; a pending robot executes its move.
            if let Some(dir) = pending.get(slot) {
                pos[slot] = pos[slot].step(dir);
            }
            flags
        })
    }
}

/// Search parameters for [`AsyncChecker`].
#[derive(Clone, Copy, Debug)]
pub struct AsyncOptions {
    /// Budgets of the underlying explorer.
    pub explore: ExploreOptions,
}

impl Default for AsyncOptions {
    fn default() -> Self {
        AsyncOptions { explore: ExploreOptions::lcm_async() }
    }
}

impl AsyncOptions {
    /// The default options. The depth is ignored — the fair-cycle
    /// decision is complete and takes no depth bound — and stays only
    /// so `lcm-async:D` cells and existing callers keep compiling.
    #[must_use]
    pub fn new(_depth: usize) -> Self {
        AsyncOptions::default()
    }
}

/// The ASYNC adversary as a [`Model`]: [`AsyncSemantics`] with the
/// paper's gathering goal.
pub enum AsyncModel {}

impl Model for AsyncModel {
    type Options = AsyncOptions;
    type Semantics = AsyncSemantics;
    type Report = AsyncReport;

    fn explorer(opts: AsyncOptions) -> (ExploreOptions, AsyncSemantics) {
        (opts.explore, AsyncSemantics::gathering())
    }

    fn report(report: AsyncReport) -> AsyncReport {
        report
    }
}

/// An exhaustive ASYNC adversary checker for one algorithm.
pub type AsyncChecker<'a, A> = ModelChecker<'a, A, AsyncModel>;

/// The result of replaying an ASYNC tick schedule: the execution plus
/// the final pending vector.
#[derive(Clone, Debug)]
pub struct AsyncExecution {
    /// The replayed execution; `trace` is always recorded (one entry
    /// per *move* — look ticks do not change the configuration), and
    /// every entry is a canonical representative (see
    /// [`run_async_schedule`]).
    pub execution: Execution,
    /// The pending vector at the end, over the final configuration's
    /// row-major slots.
    pub pending: PackedPending,
}

/// Replays an ASYNC tick schedule through [`advance_phase`]. Each
/// recorded action advances the phase of the robot named by its one-hot
/// `activate` mask (row-major slot of the *current* configuration);
/// ticks beyond the schedule advance slots round-robin. Every applied
/// tick advances the round counter — matching the checker's
/// bookkeeping — and the walk steps through **canonical
/// representatives** (the initial configuration is canonicalised and
/// every move re-canonicalises): slot indexing is translation-invariant
/// so scheduling cannot observe the difference, and recorded collision
/// coordinates come out in exactly the frame the checker recorded them
/// in. The run terminates with
///
/// * [`Outcome::Gathered`] / [`Outcome::StuckFixpoint`] when every
///   robot is idle and a fresh Look would move nobody,
/// * [`Outcome::Collision`] / [`Outcome::Disconnected`] as in FSYNC,
/// * [`Outcome::StepLimit`] after `limits.max_rounds` ticks.
#[must_use]
pub fn run_async_schedule<A: Algorithm + ?Sized>(
    initial: &Configuration,
    algo: &A,
    schedule: &[CrashRound],
    limits: Limits,
) -> AsyncExecution {
    assert!(
        initial.len() <= PackedClass::MAX_ROBOTS,
        "pending vectors hold at most {} robots",
        PackedClass::MAX_ROBOTS
    );
    let mut cfg = initial.canonical();
    let mut pending = PackedPending::IDLE;
    let mut trace = vec![cfg.clone()];
    let mut rounds = 0usize;
    let mut next = 0usize;
    let outcome = loop {
        if pending.is_idle() {
            let moves = engine::compute_moves(&cfg, algo);
            if moves.iter().all(Option::is_none) {
                break if cfg.is_gathered() {
                    Outcome::Gathered { rounds }
                } else {
                    Outcome::StuckFixpoint { rounds }
                };
            }
        }
        if rounds >= limits.max_rounds {
            break Outcome::StepLimit { rounds: limits.max_rounds };
        }
        let slot = match schedule.get(next) {
            Some(action) => {
                debug_assert_eq!(action.crash, 0, "ASYNC schedules never inject crashes");
                debug_assert_eq!(action.activate.count_ones(), 1, "ASYNC actions are one-hot");
                action.activate.trailing_zeros() as usize
            }
            // Beyond the schedule: advance phases round-robin (fair).
            None => (next - schedule.len()) % cfg.len(),
        };
        next += 1;
        match advance_phase(&cfg, pending, slot, algo) {
            Err(collision) => break Outcome::Collision { round: rounds, collision },
            Ok(PhaseAdvance::Stayed) => rounds += 1,
            Ok(PhaseAdvance::Looked(captured)) => {
                pending = captured;
                rounds += 1;
            }
            Ok(PhaseAdvance::Moved { config, pending: remapped }) => {
                // Canonicalisation only translates, so the row-major
                // slot order (and thus `remapped`) is unaffected.
                cfg = config.canonical();
                pending = remapped;
                rounds += 1;
                trace.push(cfg.clone());
                if !cfg.is_connected() {
                    break Outcome::Disconnected { round: rounds };
                }
            }
        }
    };
    AsyncExecution {
        execution: Execution {
            initial: initial.clone(),
            final_config: cfg,
            outcome,
            trace: Some(trace),
        },
        pending,
    }
}

/// Replays an [`AsyncVerdict::Refuted`] schedule through
/// [`run_async_schedule`]; returns `None` for other verdicts. The
/// replayed execution must end with exactly the verdict's `outcome`.
#[must_use]
pub fn replay<A: Algorithm + ?Sized>(
    initial: &Configuration,
    algo: &A,
    verdict: &AsyncVerdict,
) -> Option<AsyncExecution> {
    let AsyncVerdict::Refuted { schedule, outcome } = verdict else {
        return None;
    };
    let limits = explore::replay_limits(outcome, schedule.len());
    Some(run_async_schedule(initial, algo, schedule, limits))
}

/// Whether `(cfg, pending)` is a *successful* terminal of the ASYNC
/// model: every robot idle, nobody would move on a fresh Look, and the
/// configuration is gathered.
#[must_use]
pub fn is_goal_state<A: Algorithm + ?Sized>(
    cfg: &Configuration,
    pending: PackedPending,
    algo: &A,
) -> bool {
    pending.is_idle()
        && cfg.is_gathered()
        && engine::compute_moves(cfg, algo).iter().all(Option::is_none)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FnAlgorithm, StayAlgorithm};
    use trigrid::{Dir, ORIGIN};

    fn cfg(cells: &[(i32, i32)]) -> Configuration {
        Configuration::new(cells.iter().map(|&(x, y)| Coord::new(x, y)))
    }

    fn check<A: Algorithm>(algo: &A, initial: &Configuration) -> AsyncReport {
        AsyncChecker::new(algo, AsyncOptions::default()).check(initial)
    }

    /// Asserts a refuted verdict replays to exactly its recorded
    /// outcome, with every action a crash-free one-hot phase advance.
    fn assert_replays<A: Algorithm>(algo: &A, initial: &Configuration, report: &AsyncReport) {
        let AsyncVerdict::Refuted { schedule, outcome } = &report.verdict else {
            panic!("expected a refutation, got {:?}", report.verdict);
        };
        assert!(schedule.iter().all(|a| a.crash == 0 && a.activate.count_ones() == 1));
        let run = replay(initial, algo, &report.verdict).expect("refutations replay");
        assert_eq!(&run.execution.outcome, outcome, "replay must reproduce the verdict outcome");
        if matches!(outcome, Outcome::StepLimit { .. }) {
            assert!(
                !is_goal_state(&run.execution.final_config, run.pending, algo),
                "a lasso replay must not settle at a goal"
            );
        }
    }

    #[test]
    fn hexagon_is_an_async_fixpoint() {
        let h = crate::config::hexagon(ORIGIN);
        let ex = run_async(&h, &StayAlgorithm, &mut RoundRobinAsync, Limits::default());
        assert_eq!(ex.outcome, Outcome::Gathered { rounds: 0 });
    }

    #[test]
    fn hexagon_is_async_proof() {
        let h = crate::config::hexagon(ORIGIN);
        let report = check(&StayAlgorithm, &h);
        assert_eq!(report.verdict, AsyncVerdict::Proof);
        assert_eq!(report.states, 1, "the gathered terminal is the whole state space");
    }

    #[test]
    fn stuck_fixpoint_is_refuted_with_empty_schedule() {
        // A 4-line exceeds the ball four robots gather into (a 3-line
        // would count as gathered under the n-aware goal).
        let line = cfg(&[(0, 0), (2, 0), (4, 0), (6, 0)]);
        let report = check(&StayAlgorithm, &line);
        assert_eq!(
            report.verdict,
            AsyncVerdict::Refuted {
                schedule: vec![],
                outcome: Outcome::StuckFixpoint { rounds: 0 }
            }
        );
    }

    #[test]
    fn stale_moves_can_collide() {
        // Robot 0 (west) looks, then moves onto robot 1's node while
        // robot 1 never advanced: the simplest stale-move collision.
        let march = FnAlgorithm::new(1, "always-east", |_: &View| Some(Dir::E));
        struct LeaderLast;
        impl AsyncScheduler for LeaderLast {
            fn pick(&mut self, _tick: usize, _n: usize) -> usize {
                0
            }
        }
        let two = Configuration::new([ORIGIN, Coord::new(2, 0)]);
        let ex = run_async(&two, &march, &mut LeaderLast, Limits::default());
        assert!(
            matches!(ex.outcome, Outcome::Collision { round: 1, .. }),
            "west robot walks onto the never-activated east robot: {:?}",
            ex.outcome
        );
    }

    #[test]
    fn checker_finds_the_stale_collision_and_replays() {
        let march = FnAlgorithm::new(1, "always-east", |_: &View| Some(Dir::E));
        let two = cfg(&[(0, 0), (2, 0)]);
        let report = check(&march, &two);
        match &report.verdict {
            AsyncVerdict::Refuted { schedule, outcome: Outcome::Collision { round: 1, .. } } => {
                assert_eq!(schedule.len(), 2, "look + stale move is the minimal refutation");
            }
            other => panic!("expected a 2-tick stale collision, got {other:?}"),
        }
        assert_replays(&march, &two, &report);
    }

    #[test]
    fn lone_marcher_is_a_fair_async_livelock() {
        // One robot marching east forever: look, move, look, move …
        // the pumped two-tick cycle is fair and never gathers.
        let march = FnAlgorithm::new(1, "march", |_: &View| Some(Dir::E));
        let lone = Configuration::new([ORIGIN]);
        let report = check(&march, &lone);
        match &report.verdict {
            AsyncVerdict::Refuted { outcome: Outcome::StepLimit { .. }, schedule } => {
                assert!(!schedule.is_empty());
            }
            other => panic!("expected a step-limit lasso, got {other:?}"),
        }
        assert_replays(&march, &lone, &report);
    }

    #[test]
    fn fleeing_robot_is_refuted_by_disconnection() {
        let flee = FnAlgorithm::new(1, "flee", |v: &View| {
            (v.neighbor(Dir::W) && !v.neighbor(Dir::E)).then_some(Dir::E)
        });
        let two = cfg(&[(0, 0), (2, 0)]);
        let report = check(&flee, &two);
        match &report.verdict {
            AsyncVerdict::Refuted { outcome: Outcome::Disconnected { .. }, .. } => {}
            other => panic!("expected disconnection, got {other:?}"),
        }
        assert_replays(&flee, &two, &report);
    }

    #[test]
    fn run_async_counts_the_disconnecting_move_like_the_replayer() {
        let flee = FnAlgorithm::new(1, "flee", |v: &View| {
            (v.neighbor(Dir::W) && !v.neighbor(Dir::E)).then_some(Dir::E)
        });
        struct EastOnly;
        impl AsyncScheduler for EastOnly {
            fn pick(&mut self, _tick: usize, _n: usize) -> usize {
                1
            }
        }
        let two = cfg(&[(0, 0), (2, 0)]);
        let walked = run_async(&two, &flee, &mut EastOnly, Limits::default());
        let east = CrashRound { crash: 0, activate: 0b10 };
        let replayed = run_async_schedule(&two, &flee, &[east, east], Limits::default());
        assert_eq!(walked.outcome, Outcome::Disconnected { round: 2 }, "look, then the move");
        assert_eq!(walked.outcome, replayed.execution.outcome);
    }

    #[test]
    fn round_robin_async_executes_trains_safely() {
        // march-east under round-robin: index 0 is the westmost robot,
        // so it moves onto the east robot's still-occupied node — ASYNC
        // breaks even simple trains, which is the point of the model.
        let march = FnAlgorithm::new(1, "always-east", |_: &View| Some(Dir::E));
        let two = Configuration::new([ORIGIN, Coord::new(2, 0)]);
        let ex = run_async(&two, &march, &mut RoundRobinAsync, Limits::default());
        assert!(matches!(
            ex.outcome,
            Outcome::Collision { .. } | Outcome::StepLimit { .. } | Outcome::Disconnected { .. }
        ));
    }

    #[test]
    fn random_async_is_reproducible() {
        let march = FnAlgorithm::new(1, "always-east", |_: &View| Some(Dir::E));
        let lone = Configuration::new([ORIGIN]);
        let limits = Limits { max_rounds: 11, detect_livelock: false };
        let a = run_async(&lone, &march, &mut RandomAsync::new(5), limits);
        let b = run_async(&lone, &march, &mut RandomAsync::new(5), limits);
        assert_eq!(a.final_config, b.final_config);
        assert_eq!(a.outcome, b.outcome);
    }

    #[test]
    fn pending_stay_completes_without_effect() {
        let h = crate::config::hexagon(ORIGIN);
        let mut sched = RoundRobinAsync;
        let ex = run_async(&h, &StayAlgorithm, &mut sched, Limits::default());
        assert_eq!(ex.final_config, h);
    }

    #[test]
    fn advance_phase_remaps_pendings_across_the_move() {
        // Three in a line; the middle robot holds a pending west move
        // while the west robot executes east … that would collide.
        // Instead: east robot pends E, west robot pends E, west robot
        // executes — slots shift because the configuration re-sorts.
        let two = cfg(&[(0, 0), (2, 0), (4, 0)]);
        let p = PackedPending::IDLE.with(0, Some(Dir::E)).with(2, Some(Dir::E));
        let Ok(PhaseAdvance::Moved { config, pending }) = advance_phase(&two, p, 2, &StayAlgorithm)
        else {
            panic!("the east robot's move is legal");
        };
        assert_eq!(config, cfg(&[(0, 0), (2, 0), (6, 0)]));
        assert_eq!(pending.get(0), Some(Dir::E), "the west pending survives in place");
        assert_eq!(pending.get(2), None, "the mover returns to idle");
    }

    /// ASYNC's analogue of `tests/round_table.rs`: every move-table
    /// entry of every class of up to six robots, and of every 37th
    /// seven-robot class, equals the single-robot [`advance_phase`]
    /// step followed by `is_connected` and `canonical_key`; and the
    /// pending remap built from a successor entry equals the one
    /// `advance_phase` makes, over random pending vectors.
    #[test]
    fn move_table_entries_match_advance_phase() {
        let explorer = Explorer::new(
            &StayAlgorithm,
            ExploreOptions::lcm_async(),
            AsyncSemantics::gathering(),
            8,
        );
        let mut rng = StdRng::seed_from_u64(20);
        let mut checked = [0usize; 3];
        for n in 1..=7 {
            let stride = if n == 7 { 37 } else { 1 };
            for cells in polyhex::enumerate_fixed(n).iter().step_by(stride) {
                let cfg = Configuration::new(cells.iter().copied()).canonical();
                let key = cfg.canonical_key();
                let table = move_table(&explorer, explorer.class_id(key));
                assert_eq!(table.len(), n * Dir::ALL.len());
                for (slot, dir) in (0..n).flat_map(|s| Dir::ALL.into_iter().map(move |d| (s, d))) {
                    let entry = &table[slot * Dir::ALL.len() + dir.index()];
                    assert_eq!(entry.load(Ordering::Relaxed), MOVE_UNFILLED, "read lazily");
                    let lone = PackedPending::IDLE.with(slot, Some(dir));
                    let want = match advance_phase(&cfg, lone, slot, &StayAlgorithm) {
                        Err(_) => MoveEntry::Collides,
                        Ok(PhaseAdvance::Moved { config, .. }) if !config.is_connected() => {
                            MoveEntry::Disconnects
                        }
                        Ok(PhaseAdvance::Moved { config, .. }) => {
                            let target = cfg.positions()[slot].step(dir);
                            let landed = config.positions().iter().position(|&p| p == target);
                            let class = explorer.class_id(config.canonical_key());
                            MoveEntry::Succ { class, slot: landed.expect("the mover lands") }
                        }
                        Ok(_) => unreachable!("a pending robot always moves"),
                    };
                    // The fill, then the filled entry.
                    assert_eq!(read_move(&explorer, table, key, slot, dir), want, "{cfg:?}");
                    assert_eq!(read_move(&explorer, table, key, slot, dir), want, "{cfg:?}");
                    let MoveEntry::Succ { slot: landed, .. } = want else {
                        checked[usize::from(want == MoveEntry::Disconnects)] += 1;
                        continue;
                    };
                    checked[2] += 1;
                    for _ in 0..4 {
                        let mut pending = lone;
                        for k in (0..n).filter(|&k| k != slot) {
                            let d = Dir::ALL[rng.random_range(0..Dir::ALL.len())];
                            pending = pending.with(k, rng.random_bool(0.5).then_some(d));
                        }
                        let Ok(PhaseAdvance::Moved { pending: remapped, .. }) =
                            advance_phase(&cfg, pending, slot, &StayAlgorithm)
                        else {
                            panic!("other robots' pendings never change the move");
                        };
                        assert_eq!(remap_pending(pending, n, slot, landed), remapped, "{cfg:?}");
                    }
                }
            }
        }
        assert!(checked.iter().all(|&c| c > 0), "collisions, splits and successors: {checked:?}");
        let last =
            MoveEntry::Succ { class: MAX_CLASSES as u32 - 1, slot: PackedClass::MAX_ROBOTS - 1 };
        assert_eq!(MoveEntry::unpack(last.pack()), last);
    }

    #[test]
    fn verdicts_are_deterministic() {
        let march = FnAlgorithm::new(1, "march", |_: &View| Some(Dir::E));
        let three = cfg(&[(0, 0), (2, 0), (1, 1)]);
        let checker = AsyncChecker::new(&march, AsyncOptions::default());
        let a = checker.check(&three);
        let b = checker.check(&three);
        assert_eq!(a, b);
    }

    #[test]
    fn symmetric_algorithm_dedups_phase_advances() {
        // A rotation-equivariant moving rule (C6 group): the 2-robot
        // pair is stabilized by the 180° rotation, which swaps the two
        // singleton look actions — one of them is skipped.
        let spin = FnAlgorithm::new(1, "spin", |v: &View| {
            (v.robot_count() == 1).then(|| {
                Dir::ALL.into_iter().find(|&d| v.neighbor(d)).expect("one neighbour").rotate_ccw(1)
            })
        });
        let two = cfg(&[(0, 0), (2, 0)]);
        let report = check(&spin, &two);
        assert!(report.deduped > 0, "stabilizer reduction must fire: {report:?}");
        assert!(matches!(report.verdict, AsyncVerdict::Refuted { .. }));
        assert_replays(&spin, &two, &report);
    }

    #[test]
    fn replay_returns_none_for_proof_and_undecided() {
        let h = crate::config::hexagon(ORIGIN);
        assert!(replay(&h, &StayAlgorithm, &AsyncVerdict::Proof).is_none());
        assert!(replay(
            &h,
            &StayAlgorithm,
            &AsyncVerdict::Undecided { reason: Default::default() }
        )
        .is_none());
    }
}
