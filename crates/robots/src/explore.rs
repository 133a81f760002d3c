//! Generic adversary transition-system exploration over a pluggable
//! **semantics**.
//!
//! This module is the BFS / cycle-hunting / stabilizer-dedup heart that
//! used to live inside [`crate::adversary`], generalized twice:
//!
//! 1. PR 3 turned the SSYNC checker into a transition system over
//!    states `(canonical class, crash mask)` with `(crash injection,
//!    activation subset)` actions;
//! 2. this layer abstracts the *state and transition shape itself*
//!    behind the [`Semantics`] trait — a semantics enumerates each
//!    state's adversary actions with their targets, and defines the
//!    packed auxiliary key stored alongside the translation class (a
//!    crash mask for [`CrashSemantics`]; a per-robot pending-move vector
//!    for the ASYNC model's
//!    [`AsyncSemantics`](crate::async_model::AsyncSemantics)).
//!
//! The search machinery is shared by every semantics:
//!
//! * Phase A — BFS to the first bad terminal (a minimal refutation);
//! * Phase D — the complete fair-cycle decision on a role-tracking
//!   product automaton per cyclic SCC (a stitched lasso refutation or
//!   a proof, DESIGN.md §15); a graph with no cyclic SCC is a proof
//!   outright;
//!
//! plus stabilizer-subset dedup throughout. Only the action enumeration
//! ([`Semantics::actions`]), terminal classification and the per-edge
//! fairness certificate ([`Semantics::cert`]) are
//! instantiation-specific: one expansion interns every successor,
//! counts the edges, polls the budgets and refutes, for every
//! semantics. (The letters skip B and C to match the telemetry counters
//! `explore.phase_{a,d}_ns`.)
//!
//! The SSYNC adversary checker is the crash semantics with budget **0**
//! and goal `Configuration::is_gathered` — every crash branch below is
//! statically dead in that instantiation, so [`crate::adversary`]
//! produces byte-identical verdicts through this core. The crash-fault
//! checker ([`crate::faults`]) is the same semantics with budget `f`
//! and the relaxed gathering goal. The ASYNC checker
//! ([`crate::async_model`]) swaps in single-robot phase-advance actions
//! over pending-move auxiliary state. All three are the one
//! [`ModelChecker`](crate::checker::ModelChecker) over an explorer
//! built by [`Explorer::new`], the explorer's only constructor.
//!
//! Soundness of the exploration (no bad terminal and no fair cycle ⇒
//! proof, fair cycle ⇒ refutation, stabilizer dedup) is argued in
//! DESIGN.md §7 for the fault-free system, extended to crash faults in
//! DESIGN.md §10 and to the ASYNC discretisation in DESIGN.md §13; the
//! key facts used here for the crash semantics are:
//!
//! * crash injections strictly grow the crash mask, so no cycle of the
//!   state graph contains one — no SCC-internal edge, and hence no
//!   edge certificate, ever carries an injection;
//! * deferring an injection past rounds in which the crashed robot is
//!   idle anyway yields the same execution, so combining "inject, then
//!   activate" into one transition loses no adversary behaviour;
//! * a goal terminal stays a goal terminal under further injections
//!   (crashing robots only shrinks the set that must gather and never
//!   creates movers), so goal terminals need no crash expansion.
//!
//! # The class table
//!
//! Every explorer owns one `ClassTable` that all of its searches
//! share — in a sweep, one per cell (DESIGN.md §11). A translation class
//! gets a dense `u32` id the first time any search meets it, from one
//! mutex-guarded [`FlatKeyIndex`] over the lossless packed
//! [`PackedClass`] keys. Its node — the decision vector and the goal
//! verdicts of its terminal states — is computed once, through a
//! `OnceLock` outside that lock. Each class also has one table of the
//! semantics' choosing ([`Semantics::Entry`]) that names successors by
//! class id: for the crash semantics (and so the SSYNC adversary) its
//! round table ([`engine::RoundTable`]: every activation subset of its
//! movers stepped once through the scalar engine), stored as
//! [`RoundStep`]s; for ASYNC its single-robot moves, one entry per
//! `(slot, direction)`, each filled on first read through
//! [`advance_phase`](crate::async_model::advance_phase). Entries live
//! in fixed segments that never move, so reading a node or a table
//! takes no lock and no reference count.
//!
//! A search resolves each successor by reading that id and finds the
//! successor's local class through a sparse set from class id to local
//! class (Briggs & Torczon, *An efficient representation for sparse
//! sets*, ACM LOPLAS 1993). A crash-semantics state then sits at one
//! slot per `(local class, crash-mask rank)`; an ASYNC state is found
//! on its local class's pending-vector chain. No edge costs a hash, a
//! lock or a refcount, and no state a hash or a lock.
//!
//! Class ids depend on thread timing, so nothing observable depends on
//! them: local class and state ids follow each search's own discovery
//! order, exactly as before the table existed, and the adversary, crash
//! and ASYNC golden files pin byte-identical output. A search runs on
//! the thread that called [`Explorer::check`]; the only parallelism is
//! the caller's, across classes, sharing one explorer. The per-state
//! aux ([`Semantics::Aux`]) is a `Copy` bit-packed value.
//!
//! # One labeled graph per cell
//!
//! For the crash semantics the explorer can also decide classes
//! without searching them: [`Explorer::label`] walks the cell's state
//! graph once and labels each state with its distance to a refuting
//! action and whether it is doomed, and [`Explorer::check`] settles a
//! labeled root as a proof, through the tight BFS, or through the search
//! restricted to doomed states (DESIGN.md §19). The tight BFS and the
//! doomed search are the one search with a filter on the successors it
//! keeps. The search and the walk enumerate actions through one
//! function, [`Semantics::actions`], and decide fair cycles through one
//! product, `fair_pump`.

mod labels;

use crate::config::PackedClass;
use crate::engine::{self, Limits, Outcome};
use crate::sched::CrashRound;
use crate::visited::{FlatKeyIndex, PackedKeyMap};
use crate::{view, Algorithm, Configuration, View};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use trigrid::transform::PointSymmetry;
use trigrid::{Coord, Dir, ORIGIN};

/// Deterministic search budgets for [`Explorer::check`]. All budgets
/// are plain counters, so verdicts never depend on threading or timing.
#[derive(Clone, Copy, Debug)]
pub struct ExploreOptions {
    /// Cap on distinct states explored per check.
    pub max_states: usize,
    /// Cap on expanded transitions per check.
    pub max_edges: usize,
    /// Cooperative per-class wall-clock deadline. `None` (the default)
    /// keeps every check purely counter-budgeted and the clock is never
    /// consulted. When set, the search polls the clock at the same
    /// sites that check the counter budgets (strided, so the poll cost
    /// is amortized over thousands of transitions) and degrades to
    /// [`ExploreVerdict::Undecided`] with [`UndecidedReason::Timeout`].
    /// Unlike the counter budgets this makes verdicts timing-dependent,
    /// which is exactly why it is opt-in and recorded as its own
    /// undecided reason: a timeout row in a sweep table is honest about
    /// being a wall-clock artifact, not a search-space fact.
    pub class_timeout: Option<std::time::Duration>,
    /// Byte budget for one check's live search storage. `None` (the
    /// default) never consults the accounting. When set, the search
    /// polls `Search::live_bytes` at the same sites that check the
    /// counter budgets and degrades to [`ExploreVerdict::Undecided`]
    /// with [`UndecidedReason::MemBudget`]. Unlike the wall-clock
    /// deadline this stays fully deterministic: the accounting is a
    /// pure function of the interned counts (never of allocator
    /// capacities or scratch-pool reuse), so a budget-armed cell
    /// produces byte-identical verdicts at every thread count.
    pub mem_budget: Option<usize>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        // The fault-free defaults: the connected seven-robot space
        // holds 3652 translation classes, so 4096 states never bind
        // there. Crash instantiations multiply the space by the crash
        // placements and should use [`ExploreOptions::crash`].
        ExploreOptions {
            max_states: 4096,
            max_edges: 2_000_000,
            class_timeout: None,
            mem_budget: None,
        }
    }
}

impl ExploreOptions {
    /// Budgets sized for crash instantiations of up to seven robots:
    /// each crash placement opens its own copy of the class graph, so
    /// the state and edge caps are an order of magnitude above the
    /// fault-free defaults. Wider cells take
    /// [`CrashOptions::for_robots`](crate::faults::CrashOptions::for_robots),
    /// whose caps cover their whole crash state space.
    #[must_use]
    pub fn crash() -> Self {
        ExploreOptions { max_states: 65_536, max_edges: 16_000_000, ..ExploreOptions::default() }
    }

    /// Budgets sized for the ASYNC semantics: every class fans out into
    /// its reachable pending-vector variants, so the state cap sits two
    /// orders of magnitude above the fault-free class count.
    #[must_use]
    pub fn lcm_async() -> Self {
        ExploreOptions { max_states: 524_288, max_edges: 16_000_000, ..ExploreOptions::default() }
    }
}

/// The goal predicate of a crash-semantics instantiation: whether `cfg`
/// with the given crashed-slot mask counts as a *successful* terminal.
/// Plain function pointer so [`CrashSemantics`] needs no extra type
/// parameter.
pub type Goal = fn(&Configuration, u16) -> bool;

/// Robot capacity of the 16-bit crash / activation slot masks used
/// throughout the exploration layer. The packed class keys are the
/// binding constraint (10 robots), and the compile-time check proves
/// every packable configuration fits the masks — widening
/// [`PackedClass::MAX_ROBOTS`] past 16 would fail the build here, not
/// corrupt masks at runtime.
pub const MASK_ROBOTS: usize = u16::BITS as usize;
const _: () = assert!(PackedClass::MAX_ROBOTS <= MASK_ROBOTS);

/// Which budget exhausted when a check ends [`ExploreVerdict::Undecided`]
/// — the diagnosis that tells an operator which knob to raise. Recorded
/// in verdicts and surfaced through the sweep shard JSON.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum UndecidedReason {
    /// [`ExploreOptions::max_states`] tripped during the BFS.
    States,
    /// [`ExploreOptions::max_edges`] tripped during the BFS.
    Edges,
    /// The BFS closed, but the Phase D product outgrew its cap, or
    /// coverage held only through stabilizer relabelings (DESIGN.md
    /// §15). The variant and its wire string `fair_depth` predate
    /// Phase D and are kept so old records still parse. The default:
    /// verdicts serialized before the reason field existed could only
    /// arise here at the historical budgets.
    #[default]
    FairDepth,
    /// [`ExploreOptions::class_timeout`] expired before any phase
    /// certified a verdict. Only produced when a wall-clock deadline is
    /// armed, so counter-budgeted runs never see it.
    Timeout,
    /// [`ExploreOptions::mem_budget`] tripped: the search's live
    /// storage accounting exceeded the byte budget before any phase
    /// certified a verdict. Deterministic (the accounting is a pure
    /// function of the interned counts), so a budget-armed cell is
    /// reproducible — unlike [`UndecidedReason::Timeout`].
    MemBudget,
    /// The per-class check panicked and the sweep layer degraded the
    /// class to a counted undecided row instead of killing the cell.
    /// Never produced by the explorer itself — the panic payload lives
    /// in the shard record, not here.
    Panicked,
}

impl UndecidedReason {
    /// Short tag used by reports and shard JSON summaries.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            UndecidedReason::States => "states",
            UndecidedReason::Edges => "edges",
            UndecidedReason::FairDepth => "fair_depth",
            UndecidedReason::Timeout => "timeout",
            UndecidedReason::MemBudget => "mem_budget",
            UndecidedReason::Panicked => "panicked",
        }
    }
}

/// The classification of one initial class by [`Explorer::check`].
///
/// The schedule of a refutation is a sequence of [`CrashRound`]
/// actions; for budget-0 crash instantiations every `crash` field is
/// zero and the sequence degrades to the activation schedule of
/// [`crate::adversary::AdversaryVerdict::Refuted`]. ASYNC refutations
/// also keep `crash == 0` — each action's `activate` is the one-hot
/// mask of the robot whose LCM phase advances.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum ExploreVerdict {
    /// Every fair schedule of the instantiated system reaches a goal
    /// terminal.
    Proof,
    /// A concrete schedule refutes the goal; replaying it must
    /// reproduce `outcome`.
    Refuted {
        /// Per-round adversary actions, indexed like every scheduler:
        /// bit `i` = the `i`-th robot in row-major order of the round's
        /// configuration.
        schedule: Vec<CrashRound>,
        /// The outcome the replay must reproduce. Round counts refer to
        /// the semantics' own round bookkeeping: for the crash
        /// semantics, *movement* rounds (injection-only actions do not
        /// advance the counter); for ASYNC, every phase advance is one
        /// tick.
        outcome: Outcome,
    },
    /// Neither verdict was certified within the search budgets.
    Undecided {
        /// Which budget tripped.
        #[serde(default)]
        reason: UndecidedReason,
    },
}

impl ExploreVerdict {
    /// Short tag used by reports and golden files.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ExploreVerdict::Proof => "proof",
            ExploreVerdict::Refuted { .. } => "refuted",
            ExploreVerdict::Undecided { .. } => "undecided",
        }
    }
}

/// The result of checking one class: the verdict plus deterministic
/// exploration statistics.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct ExploreReport {
    /// The classification.
    pub verdict: ExploreVerdict,
    /// Distinct `(class, aux)` states explored.
    pub states: usize,
    /// Transitions expanded (legal actions executed).
    pub edges: usize,
    /// Actions skipped by the stabilizer symmetry reduction.
    pub deduped: usize,
}

/// Computes the subgroup of D6 under which `algo` is equivariant:
/// `compute(σ·v) = σ·compute(v)` for every view `v` with at most
/// **seven** robots — the only views that can arise in up-to-8 robot
/// configurations. For explorers handling more robots use
/// [`equivariance_group_for`], which widens the view scan to
/// `max_robots - 1` other robots. Algorithms with radius beyond 2 are
/// conservatively treated as asymmetric.
#[must_use]
pub fn equivariance_group<A: Algorithm + ?Sized>(algo: &A) -> Vec<PointSymmetry> {
    equivariance_group_for(algo, 8)
}

/// Like [`equivariance_group`], scanning every view with at most
/// `max_robots - 1` robots — the views that can arise in configurations
/// of up to `max_robots` robots. The n = 7 checkers keep calling the
/// historical 8-robot bound so their deduplication (and hence their
/// golden-pinned schedules) is unchanged; wider explorers must widen
/// the scan or the dedup would be unsound.
#[must_use]
pub fn equivariance_group_for<A: Algorithm + ?Sized>(
    algo: &A,
    max_robots: usize,
) -> Vec<PointSymmetry> {
    let max_others = max_robots.saturating_sub(1) as u32;
    let radius = algo.radius();
    let mut group = vec![PointSymmetry::Rot(0)];
    let labels = view::labels(radius);
    if labels.len() > 18 {
        return group;
    }
    'sym: for &s in &PointSymmetry::ALL[1..] {
        let perm: Vec<usize> = labels
            .iter()
            .map(|&l| view::label_index(radius, s.apply(l)).expect("D6 permutes the label disk"))
            .collect();
        for bits in 0..(1u64 << labels.len()) {
            if bits.count_ones() > max_others {
                continue;
            }
            let mut mapped = 0u64;
            for (i, &j) in perm.iter().enumerate() {
                if bits & (1 << i) != 0 {
                    mapped |= 1 << j;
                }
            }
            let decision = algo.compute(&View::from_bits(radius, bits));
            let image = algo.compute(&View::from_bits(radius, mapped));
            if image != decision.map(|d| s.apply_dir(d)) {
                continue 'sym;
            }
        }
        group.push(s);
    }
    group
}

/// How a discovered state terminates, if it does.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeKind {
    /// Adversary actions remain: the state is expanded.
    Inner,
    /// No action remains and the goal predicate holds.
    Goal,
    /// No action remains and the goal predicate fails.
    Stuck,
}

/// Per-class decision data, computed once when a translation class
/// enters the explorer's `ClassTable`: the full decision vector (a
/// pure function of the class — auxiliary state never changes what a
/// robot *would* decide from a fresh Look) in a fixed `Copy` array, so
/// expansion never clones a `Vec`.
#[derive(Clone, Copy)]
pub struct ClassInfo {
    /// Robot count of the class.
    pub(crate) n: u8,
    /// Bitmask of robots whose fresh decision is a move (for the crash
    /// semantics this includes crashed robots — a crashed robot keeps
    /// "deciding", it just never acts).
    pub(crate) movers: u16,
    /// Full decision vector, aligned with the class's positions.
    pub(crate) moves: [Option<Dir>; PackedClass::MAX_ROBOTS],
}

impl ClassInfo {
    /// The decision data of a class whose robots decide `decisions`
    /// (aligned with its row-major positions).
    fn of(decisions: &[Option<Dir>]) -> ClassInfo {
        let mut moves = [None; PackedClass::MAX_ROBOTS];
        moves[..decisions.len()].copy_from_slice(decisions);
        let movers =
            decisions
                .iter()
                .enumerate()
                .fold(0u16, |acc, (i, m)| if m.is_some() { acc | (1 << i) } else { acc });
        ClassInfo { n: decisions.len() as u8, movers, moves }
    }

    /// Robot count of the class.
    #[must_use]
    pub fn robots(&self) -> usize {
        self.n as usize
    }

    /// Bitmask of robots whose fresh decision is a move.
    #[must_use]
    pub fn movers(&self) -> u16 {
        self.movers
    }

    /// The fresh decision of the robot in row-major slot `slot`.
    #[must_use]
    pub fn decision(&self, slot: usize) -> Option<Dir> {
        self.moves[slot]
    }
}

/// One class of a `ClassTable`: everything about it that is a pure
/// function of the class and the explorer's semantics, computed once
/// per table.
pub struct ClassNode {
    /// The packed canonical class; positions decode from it on demand.
    key: PackedClass,
    /// The decision data.
    info: ClassInfo,
    /// Goal verdicts of the class's terminal states: bit `r` for the
    /// terminal aux key the semantics ranks `r` ([`Semantics::goal_bits`]).
    goals: u64,
}

impl ClassNode {
    /// The packed canonical class.
    pub(crate) fn key(&self) -> PackedClass {
        self.key
    }

    /// The decision data.
    pub(crate) fn info(&self) -> &ClassInfo {
        &self.info
    }

    /// Whether the terminal state ranked `rank` by
    /// [`Semantics::goal_bits`] is a goal (ranks below 64 only).
    pub(crate) fn goal_bit(&self, rank: usize) -> bool {
        (self.goals >> rank) & 1 != 0
    }
}

/// One activation subset of a class's round table, as the class table
/// stores it for the crash semantics ([`Semantics::Entry`]): an
/// [`engine::RoundEntry`] whose successor is named by its class id
/// instead of its 16-byte key. 16 bytes.
#[derive(Clone, Copy)]
pub struct RoundStep {
    /// Each robot's slot in the successor ([`engine::RoundEntry::slots`]).
    slots: u64,
    /// The successor's class id; meaningful only for [`engine::RoundKind::Succ`].
    succ: u32,
    /// The activated robots.
    mask: u16,
    /// What the round does.
    kind: engine::RoundKind,
}

const _: () = assert!(size_of::<RoundStep>() == 16);

impl RoundStep {
    /// Robot `robot`'s row-major slot in the successor.
    fn slot(self, robot: usize) -> usize {
        ((self.slots >> (4 * robot)) & 0xF) as usize
    }
}

/// One entry of a `ClassTable`: the class's node, and its table of the
/// semantics' entries ([`Semantics::Entry`]).
struct ClassSlot<E> {
    node: std::sync::OnceLock<ClassNode>,
    table: std::sync::OnceLock<Box<[E]>>,
}

impl<E> Default for ClassSlot<E> {
    fn default() -> Self {
        ClassSlot { node: std::sync::OnceLock::new(), table: std::sync::OnceLock::new() }
    }
}

/// Entries per `ClassTable` segment.
const SEGMENT_SLOTS: usize = 1024;

/// Segments per `ClassTable`: room for 2^22 classes, more than every
/// connected class of up to [`PackedClass::MAX_ROBOTS`] robots together.
const TABLE_SEGMENTS: usize = 4096;

/// The most classes one `ClassTable` holds: every class id is below it.
pub(crate) const MAX_CLASSES: usize = SEGMENT_SLOTS * TABLE_SEGMENTS;

/// One `ClassTable` segment, allocated on first use.
type Segment<E> = std::sync::OnceLock<Box<[ClassSlot<E>]>>;

/// The class table one explorer's searches share: class key → dense
/// id, and per id a [`ClassNode`] plus the class's table of the
/// semantics' entries `E` (round-table steps, or ASYNC moves).
///
/// * Ids come from one mutex-guarded [`FlatKeyIndex`], in the order
///   classes are first met, so they depend on thread timing: nothing
///   may iterate the table to produce output.
/// * Nodes and tables initialize through `OnceLock`s outside that
///   lock; a racing reader waits for the one initializer.
/// * Entries live in fixed-size segments that are allocated on first
///   use and never move, so reads take no lock.
///
/// The table grows only with classes that searches reach.
pub(crate) struct ClassTable<E> {
    index: std::sync::Mutex<FlatKeyIndex>,
    segments: Box<[Segment<E>]>,
    /// Heap bytes retained: segments and the classes' tables.
    bytes: std::sync::atomic::AtomicUsize,
}

impl<E> ClassTable<E> {
    fn new() -> Self {
        let segments: Box<[_]> = (0..TABLE_SEGMENTS).map(|_| std::sync::OnceLock::new()).collect();
        let bytes = segments.len() * size_of::<Segment<E>>();
        ClassTable {
            index: std::sync::Mutex::new(FlatKeyIndex::new()),
            segments,
            bytes: std::sync::atomic::AtomicUsize::new(bytes),
        }
    }

    /// The id of `key`'s class and whether this call added it, building
    /// the class's node with `build` on first sight. The node is built
    /// after the index lock is released.
    fn resolve(&self, key: PackedClass, build: impl FnOnce() -> ClassNode) -> (u32, bool) {
        // The lock recovers from poisoning: the sweep layer's per-class
        // panic isolation can poison it, and `insert_full` leaves the
        // index valid at every step (its only panic, past 2^32 keys,
        // fires before it writes), so the recovered index is sound.
        let (id, new) = self
            .index
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert_full(key.bits());
        let (seg, off) = (id as usize / SEGMENT_SLOTS, id as usize % SEGMENT_SLOTS);
        assert!(seg < TABLE_SEGMENTS, "the class table holds at most 2^22 classes");
        let segment = self.segments[seg].get_or_init(|| {
            self.add_bytes(SEGMENT_SLOTS * size_of::<ClassSlot<E>>());
            (0..SEGMENT_SLOTS).map(|_| ClassSlot::default()).collect()
        });
        segment[off].node.get_or_init(|| {
            let node = build();
            debug_assert_eq!(node.key, key);
            node
        });
        (id, new)
    }

    /// The entry of an id [`Self::resolve`] returned.
    fn slot(&self, id: u32) -> &ClassSlot<E> {
        let segment = self.segments[id as usize / SEGMENT_SLOTS].get().expect("an issued class id");
        &segment[id as usize % SEGMENT_SLOTS]
    }

    /// The node of an id [`Self::resolve`] returned.
    fn node(&self, id: u32) -> &ClassNode {
        self.slot(id).node.get().expect("issued class ids have nodes")
    }

    /// The table of class `id`, built with `build` on first use.
    fn table(&self, id: u32, build: impl FnOnce() -> Box<[E]>) -> &[E] {
        self.slot(id).table.get_or_init(|| {
            let table = build();
            self.add_bytes(size_of_val(&*table));
            table
        })
    }

    fn add_bytes(&self, bytes: usize) {
        self.bytes.fetch_add(bytes, std::sync::atomic::Ordering::Relaxed);
    }

    /// Heap bytes the table retains (its index excluded).
    fn bytes(&self) -> usize {
        self.bytes.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// A **semantics** of the exploration layer: what a state's auxiliary
/// key is (packed alongside the interned translation class), which
/// adversary actions a state offers and where they lead, and which
/// robots one edge moves and serves fairly (the certificate the Phase D
/// product consumes).
///
/// A semantics only enumerates: [`Semantics::actions`] hands each
/// action of a state to a visitor with its [`Target`], and the search
/// interns the successor, counts the edge, polls the budgets and
/// refutes the same way for every semantics (DESIGN.md §11).
///
/// Implementations in this crate: [`CrashSemantics`] (SSYNC activation
/// subsets plus permanent crash injections — the budget-0 case is the
/// plain SSYNC adversary) and
/// [`AsyncSemantics`](crate::async_model::AsyncSemantics) (single-robot
/// LCM phase advances over pending-move state). The trait is public so
/// the instantiations can live next to their models, but its surface is
/// an internal extension point of this crate: an enumerator reads its
/// class's table through the explorer's crate-private accessors, so
/// foreign implementations cannot supply one.
pub trait Semantics: Sync + Sized {
    /// The packed per-state auxiliary key stored alongside the class
    /// id. Key equality must coincide with auxiliary-state equality
    /// (the packing is lossless), exactly as
    /// [`PackedClass`] equality coincides with
    /// translation-class equality.
    type Aux: Copy + Eq + std::fmt::Debug + Send + Sync;

    /// One entry of the table each class keeps in the explorer's
    /// `ClassTable`, naming successors by class id: a [`RoundStep`] of
    /// the crash semantics, a single-robot move of ASYNC. The
    /// enumerator builds (or fills) it on first use.
    type Entry: Send + Sync;

    /// The auxiliary key of an initial state (nothing crashed, every
    /// robot idle).
    fn root_aux(&self) -> Self::Aux;

    /// The image of `aux` under the point symmetry `sym`, whose induced
    /// slot permutation sends old slot `i` to new slot `map(i)`, for
    /// `n` robots. Semantics whose aux carries directions (the ASYNC
    /// pending vector) must transform them by `sym` too; slot masks
    /// ignore it.
    fn permute_aux(
        aux: Self::Aux,
        n: usize,
        map: impl Fn(usize) -> usize,
        sym: PointSymmetry,
    ) -> Self::Aux;

    /// The goal verdicts of class `cfg`'s terminal states, as the bits
    /// `ClassNode::goal_bit` reads: computed once per class, when its
    /// `ClassTable` node is built, so classifying a terminal state
    /// never decodes its class. Bit `r` belongs to the terminal state
    /// whose aux the semantics ranks `r`; terminals ranked 64 or higher
    /// are left to [`Semantics::classify`].
    fn goal_bits(&self, cfg: &Configuration, info: &ClassInfo) -> u64;

    /// Classifies a freshly interned state `(node's class, aux)`:
    /// [`NodeKind::Inner`] when adversary actions remain, otherwise
    /// goal or stuck.
    fn classify(&self, node: &ClassNode, aux: Self::Aux) -> NodeKind;

    /// State slots per `n`-robot class in a search's dense `(class,
    /// rank)` index, or 0 to keep each class's states on a chain of aux
    /// variants instead.
    fn width(&self, n: usize) -> usize;

    /// The dense slot of `aux` within its class, below
    /// [`Semantics::width`]; read only when the width is nonzero.
    fn rank(&self, aux: Self::Aux) -> usize;

    /// Every adversary action of the inner state `(class id, aux)`, in
    /// the semantics' one expansion order, after the stabilizer dedup,
    /// which skips every action that is not the least of its orbit.
    ///
    /// `visit` sees each kept action with its [`Target`] and returns
    /// whether to go on. Returns how many actions the dedup skipped
    /// before the enumeration ended.
    fn actions<A: Algorithm + ?Sized>(
        &self,
        explorer: &Explorer<'_, A, Self>,
        id: u32,
        aux: Self::Aux,
        visit: impl FnMut(CrashRound, Target<Self::Aux>) -> bool,
    ) -> usize;

    /// The scalar engine's exact report of `action`, an action of state
    /// `(class id, aux)` whose [`Target`] is [`Target::Collides`],
    /// materialized for a refutation outcome (at most once per search:
    /// a collision ends it).
    fn collision<A: Algorithm + ?Sized>(
        &self,
        explorer: &Explorer<'_, A, Self>,
        id: u32,
        aux: Self::Aux,
        action: CrashRound,
    ) -> engine::RoundCollision;

    /// The certificate of the explored crash-free edge `action` out of
    /// state `(node's class, aux)` into class `to`: where each robot
    /// lands and which robots satisfy fairness on the edge.
    fn cert(node: &ClassNode, aux: Self::Aux, action: CrashRound, to: PackedClass) -> EdgeCert;
}

/// The crash-fault semantics (and, at budget 0, the plain SSYNC
/// adversary): states are `(class, crashed-slot mask)`, actions first
/// permanently crash the robots in [`CrashRound::crash`] (allowed while
/// the crash budget lasts) and then activate the robots in
/// [`CrashRound::activate`], which must be non-crashed movers. When an
/// injection leaves no live mover the activation is empty: the
/// configuration is frozen forever.
pub struct CrashSemantics {
    /// Maximal number of robots the adversary may crash in total.
    budget: u8,
    /// Whether a terminal state counts as successful.
    goal: Goal,
    /// `rank[m]`: how many masks below `m` the budget affords — the
    /// state slot of crash mask `m` within its class. `rank[1 << n]` is
    /// R(n, f) = Σ_{k ≤ f} C(n, k), the slot count of an `n`-robot
    /// class. Numeric order on masks is colex order on sets, so ranks
    /// do not depend on `n`.
    rank: Box<[u16]>,
    /// `masks[r]`: the affordable crash mask of rank `r` (the inverse of
    /// `rank`).
    masks: Box<[u16]>,
}

impl CrashSemantics {
    /// Builds the semantics for the given crash budget and goal.
    ///
    /// # Panics
    /// Panics if `budget >= PackedClass::MAX_ROBOTS`: at least one
    /// robot must stay alive for the goal to be meaningful (the masks
    /// themselves hold [`MASK_ROBOTS`] slots).
    #[must_use]
    pub fn new(budget: u8, goal: Goal) -> Self {
        assert!(
            (budget as usize) < PackedClass::MAX_ROBOTS,
            "crash budget {budget} would allow crashing every robot \
             (capacity {})",
            PackedClass::MAX_ROBOTS
        );
        let mut rank = Vec::with_capacity((1 << PackedClass::MAX_ROBOTS) + 1);
        let mut masks = Vec::new();
        for mask in 0..=1u32 << PackedClass::MAX_ROBOTS {
            rank.push(masks.len() as u16);
            if mask.count_ones() <= u32::from(budget) {
                masks.push(mask as u16);
            }
        }
        CrashSemantics {
            budget,
            goal,
            rank: rank.into_boxed_slice(),
            masks: masks.into_boxed_slice(),
        }
    }

    /// The crash mask of state slot `rank` (the inverse of
    /// [`Semantics::rank`]).
    pub(crate) fn mask(&self, rank: usize) -> u16 {
        self.masks[rank]
    }
}

/// Struct-of-arrays storage for the interned states of one search.
/// Each field is a dense column indexed by state id. The columns the
/// graph phases walk millions of times (`edge_start`/`edge_len` for
/// the DFS sweeps, `kind` for the frontier filter) are contiguous
/// instead of strided through a 28-byte record, and every column
/// survives [`StateStore::clear`] with its capacity intact, so pooled
/// searches stop paying the allocator per class.
struct StateStore<Aux> {
    /// The translation class, as the search's local class index (see
    /// [`SearchScratch::classes`]); class data lives once in the
    /// explorer's `ClassTable`, not per aux variant.
    class: Vec<u32>,
    /// The packed auxiliary key (crash mask / pending vector) over the
    /// class's position slots.
    aux: Vec<Aux>,
    /// Rounds from the initial state, in the semantics' own bookkeeping
    /// (movement rounds for crash — injection-only actions do not
    /// count; phase-advance ticks for ASYNC). This is what replay
    /// outcomes report. `u32`: BFS depth is bounded by the state count,
    /// which the state budget caps far below `2^32`.
    rounds: Vec<u32>,
    /// Discovery parent id ([`NO_PARENT`] for the root), for schedule
    /// reconstruction.
    parent: Vec<u32>,
    /// The discovery edge's action, packed (meaningless on the root).
    parent_action: Vec<u32>,
    /// Start of this node's slice of the search's shared edge pool. A
    /// state's edges are recorded contiguously — expansion finishes a
    /// state before starting the next — so the whole graph lives in one
    /// flat pool instead of one heap allocation per expanded state.
    edge_start: Vec<u32>,
    /// Edge count of this node's slice of the edge pool.
    edge_len: Vec<u32>,
    /// Terminal classification.
    kind: Vec<NodeKind>,
}

impl<Aux> Default for StateStore<Aux> {
    fn default() -> Self {
        StateStore {
            class: Vec::new(),
            aux: Vec::new(),
            rounds: Vec::new(),
            parent: Vec::new(),
            parent_action: Vec::new(),
            edge_start: Vec::new(),
            edge_len: Vec::new(),
            kind: Vec::new(),
        }
    }
}

impl<Aux> StateStore<Aux> {
    fn len(&self) -> usize {
        self.class.len()
    }

    fn push(
        &mut self,
        class: u32,
        aux: Aux,
        rounds: u32,
        parent: u32,
        parent_action: u32,
        kind: NodeKind,
    ) {
        self.class.push(class);
        self.aux.push(aux);
        self.rounds.push(rounds);
        self.parent.push(parent);
        self.parent_action.push(parent_action);
        self.edge_start.push(0);
        self.edge_len.push(0);
        self.kind.push(kind);
    }

    fn clear(&mut self) {
        self.class.clear();
        self.aux.clear();
        self.rounds.clear();
        self.parent.clear();
        self.parent_action.clear();
        self.edge_start.clear();
        self.edge_len.clear();
        self.kind.clear();
    }

    /// Heap bytes currently reserved by the columns.
    fn heap_bytes(&self) -> usize {
        self.class.capacity() * size_of::<u32>()
            + self.aux.capacity() * size_of::<Aux>()
            + self.rounds.capacity() * size_of::<u32>()
            + self.parent.capacity() * size_of::<u32>()
            + self.parent_action.capacity() * size_of::<u32>()
            + self.edge_start.capacity() * size_of::<u32>()
            + self.edge_len.capacity() * size_of::<u32>()
            + self.kind.capacity() * size_of::<NodeKind>()
    }
}

/// Sentinel parent id of the root state.
const NO_PARENT: u32 = u32::MAX;

/// Sentinel "no state yet" entry of the crash semantics' state slots.
const NO_STATE: u32 = u32::MAX;

/// Sentinel "end of chain" index of the aux-variant chain pool.
const NO_VARIANT: u32 = u32::MAX;

/// One link of a per-class aux-variant chain of the ASYNC semantics:
/// the aux key, the state id it interned to, and the next link (newest
/// first). Aux keys are unique per class, so chain order is irrelevant
/// to the result.
struct VariantEntry<Aux> {
    aux: Aux,
    state: u32,
    next: u32,
}

/// The nominal type sizes [`Search::live_bytes`] charges, frozen at the
/// layout the byte budgets were calibrated on (a per-search class arena
/// with a shared representative pointer and decision vector per class,
/// and one aux-variant chain link per state). Budget-armed verdicts
/// stay byte-identical only while this formula does, whatever the
/// search actually allocates.
mod nominal {
    /// A class's decision vector ([`super::ClassInfo`]).
    pub(super) const CLASS_INFO: usize = 14;
    /// A class's shared representative pointer.
    pub(super) const CFG_POINTER: usize = 8;
    /// A class's aux-variant chain head.
    pub(super) const VARIANT_HEAD: usize = 4;
    /// A state's aux-variant chain link.
    pub(super) const VARIANT_ENTRY: usize = 12;
    /// A state's columns besides its aux: six `u32`s and a node kind.
    pub(super) const STATE: usize = 24 + 1;
    /// A state's BFS level entry.
    pub(super) const LEVEL: usize = 4;
}

/// The poolable storage of one [`Search`]: every growable buffer a
/// per-class check fills. [`Explorer::check`] leases one from the
/// explorer's scratch pool and returns it cleared-but-capacitated, so
/// a sweep cell's ~77k per-class searches re-allocate these buffers
/// once per worker instead of once per class. Soundness of the reuse
/// is structural: [`SearchScratch::clear`] empties every collection
/// that is read without a cross-check, the sparse side of the class set
/// is validated against its dense side on every read, and no search
/// ever reads an index it did not itself intern — so stale capacity can
/// never leak state between classes. The deterministic budget accounting
/// ([`Search::live_bytes`]) reads occupied counts, never capacities, so
/// pooling is invisible to verdicts.
struct SearchScratch<Aux> {
    states: StateStore<Aux>,
    /// The search's local classes, in discovery order: local class `l`
    /// is class table id `classes[l]`. This is the dense side of the
    /// class set.
    classes: Vec<u32>,
    /// Sparse side of the class set: class table id → local class,
    /// valid only where `classes` confirms it. Never cleared, so a
    /// search pays nothing to reset it.
    sparse: Vec<u32>,
    /// Crash semantics: the state id of `(local class l, aux rank r)` at
    /// `l * width + r`, or [`NO_STATE`].
    slots: Vec<u32>,
    /// ASYNC: head link of each local class's aux-variant chain
    /// ([`NO_VARIANT`] when empty).
    variant_head: Vec<u32>,
    /// ASYNC: flat chain-link pool behind `variant_head`.
    variant_pool: Vec<VariantEntry<Aux>>,
    /// Flat edge storage; each state owns a contiguous slice.
    edge_pool: Vec<PackedEdge>,
    /// Chunked BFS level storage: every discovered inner state id in
    /// discovery order, the current level being a window of this one
    /// buffer (children always join the next level, so the window
    /// simply advances — no per-level allocation, 4 bytes per queued
    /// state total).
    levels: Vec<u32>,
}

impl<Aux> Default for SearchScratch<Aux> {
    fn default() -> Self {
        SearchScratch {
            states: StateStore::default(),
            classes: Vec::new(),
            sparse: Vec::new(),
            slots: Vec::new(),
            variant_head: Vec::new(),
            variant_pool: Vec::new(),
            edge_pool: Vec::new(),
            levels: Vec::new(),
        }
    }
}

impl<Aux> SearchScratch<Aux> {
    /// Empties every buffer (except the self-validating `sparse`),
    /// keeping all capacities for the next lease.
    fn clear(&mut self) {
        self.states.clear();
        self.classes.clear();
        self.slots.clear();
        self.variant_head.clear();
        self.variant_pool.clear();
        self.edge_pool.clear();
        self.levels.clear();
    }

    /// Heap bytes reserved by the class index: local classes, the
    /// sparse set and the state slots.
    fn class_index_bytes(&self) -> usize {
        (self.classes.capacity() + self.sparse.capacity() + self.slots.capacity())
            * size_of::<u32>()
    }

    /// Heap bytes reserved by the visited-state storage: state columns
    /// and aux-variant chains.
    fn visited_bytes(&self) -> usize {
        self.states.heap_bytes()
            + self.variant_head.capacity() * size_of::<u32>()
            + self.variant_pool.capacity() * size_of::<VariantEntry<Aux>>()
    }

    /// Heap bytes currently reserved across every buffer — the real
    /// footprint reported to the telemetry gauges (capacity-based, so
    /// it reflects what the allocator actually holds).
    fn heap_bytes(&self) -> usize {
        self.class_index_bytes()
            + self.visited_bytes()
            + self.edge_pool.capacity() * size_of::<PackedEdge>()
            + self.levels.capacity() * size_of::<u32>()
    }
}

/// One expanded edge in 8 bytes: the action packed as
/// `crash << 16 | activate` plus the successor's dense state id. The
/// graph phases (Tarjan, the product decision)
/// walk millions of these, so halving the former
/// `(CrashRound, usize)` layout directly halves the resident graph.
#[derive(Clone, Copy)]
struct PackedEdge {
    action: u32,
    to: u32,
}

/// Packs a [`CrashRound`] into the edge/parent action word.
pub(crate) fn pack_action(action: CrashRound) -> u32 {
    (u32::from(action.crash) << 16) | u32::from(action.activate)
}

/// Inverse of [`pack_action`].
fn unpack_action(bits: u32) -> CrashRound {
    CrashRound { crash: (bits >> 16) as u16, activate: bits as u16 }
}

/// The fairness certificate of one explored edge — a pure function of
/// the edge, consumed by the Phase D product. Crash injections
/// strictly grow the crash mask, so no edge inside an SCC carries one,
/// and ASYNC actions never do.
#[derive(Clone, Copy)]
pub struct EdgeCert {
    /// Induced slot permutation: the robot in row-major slot `s` of the
    /// source state occupies slot `perm[s]` of the successor.
    pub(crate) perm: [u8; PackedClass::MAX_ROBOTS],
    /// Source slots whose robot satisfies fairness on the edge: it
    /// moves / advances a phase, is seen deciding to stay (and is thus
    /// activatable for free), or is crashed and exempt.
    pub(crate) flags: u16,
}

/// The certificate of an edge out of class `key` into class `to`:
/// `step` receives the source's positions (slot-indexed), applies the
/// action's semantics-specific effect to them and returns the slots that
/// satisfy fairness; re-sorting the moved positions into row-major order
/// then yields the slot permutation (the identity when no robot moved).
pub(crate) fn edge_cert(
    key: PackedClass,
    to: PackedClass,
    step: impl FnOnce(&mut [Coord]) -> u16,
) -> EdgeCert {
    let n = key.robots();
    let mut pos = key.cells();
    let flags = step(&mut pos[..n]);
    let mut order: [usize; PackedClass::MAX_ROBOTS] = std::array::from_fn(|i| i);
    order[..n].sort_unstable_by_key(|&s| polyhex::key(pos[s]));
    let mut perm = [0u8; PackedClass::MAX_ROBOTS];
    for (slot, &s) in order[..n].iter().enumerate() {
        perm[s] = slot as u8;
    }
    debug_assert_eq!(
        PackedClass::of_cells(&pos[..n]),
        to,
        "edge certificate diverged from the state graph"
    );
    EdgeCert { perm, flags }
}

/// Lock-free observability tallies for one [`Explorer`], accumulated
/// across every [`check`](Explorer::check) it runs. All fields are
/// relaxed atomics from the `telemetry` crate: bumping them from the
/// sweep pipeline's worker threads never serializes the workers.
/// Per-state and per-class counts stay in the search and are added
/// once per check; only per-level and per-check tallies touch these
/// shared lines. Nothing here ever feeds back into exploration
/// decisions — verdicts, statistics and digests are byte-identical
/// with telemetry enabled, disabled, or absent (see DESIGN.md §16).
#[derive(Default)]
pub(crate) struct ExploreMetrics {
    /// Searches completed: every [`Explorer::check`] but a graph proof.
    pub(crate) checks: telemetry::Counter,
    /// Interned states, summed over checks.
    pub(crate) states: telemetry::Counter,
    /// Expanded transitions, summed over checks.
    pub(crate) edges: telemetry::Counter,
    /// Actions skipped by the stabilizer reduction, summed over checks.
    pub(crate) deduped: telemetry::Counter,
    /// BFS levels expanded (Phase A iterations).
    pub(crate) levels: telemetry::Counter,
    /// Frontier width at the start of each BFS level.
    pub(crate) frontier_width: telemetry::Histogram,
    /// Distinct translation classes per check (local classes at
    /// verdict).
    pub(crate) arena_classes: telemetry::Histogram,
    /// Interned states per check.
    pub(crate) states_per_check: telemetry::Histogram,
    /// States consumed at verdict time, in percent of `max_states`.
    pub(crate) budget_states_pct: telemetry::Histogram,
    /// Edges consumed at verdict time, in percent of `max_edges`.
    pub(crate) budget_edges_pct: telemetry::Histogram,
    /// Wall time in Phase A (BFS expansion), nanoseconds.
    pub(crate) phase_a_ns: telemetry::Counter,
    /// Wall time in Phase D (fair-product decision), nanoseconds.
    pub(crate) phase_d_ns: telemetry::Counter,
    /// Checks that ended in [`ExploreVerdict::Proof`].
    pub(crate) verdict_proof: telemetry::Counter,
    /// Checks that ended in [`ExploreVerdict::Refuted`].
    pub(crate) verdict_refuted: telemetry::Counter,
    /// Checks that ended in [`ExploreVerdict::Undecided`].
    pub(crate) verdict_undecided: telemetry::Counter,
    /// Undecided verdicts attributed to the state cap.
    pub(crate) undecided_states: telemetry::Counter,
    /// Undecided verdicts attributed to the edge cap.
    pub(crate) undecided_edges: telemetry::Counter,
    /// Undecided verdicts attributed to the Phase D product
    /// ([`UndecidedReason::FairDepth`]).
    pub(crate) undecided_product: telemetry::Counter,
    /// Undecided verdicts attributed to the per-class deadline.
    pub(crate) undecided_timeout: telemetry::Counter,
    /// Undecided verdicts attributed to the byte budget.
    pub(crate) undecided_mem_budget: telemetry::Counter,
    /// Classes added to the explorer's `ClassTable` (so the counter
    /// reads the table's size).
    pub(crate) classes: telemetry::Counter,
    /// Heap bytes the `ClassTable` retains: segments and the classes'
    /// tables (crash round tables, ASYNC move tables).
    pub(crate) class_table_bytes: telemetry::Gauge,
    /// Peak heap bytes reserved by one check's class index (local
    /// classes, sparse set, state slots).
    pub(crate) arena_bytes: telemetry::Gauge,
    /// Peak heap bytes reserved by one check's visited-state storage
    /// (state columns, aux-variant chains).
    pub(crate) visited_bytes: telemetry::Gauge,
    /// Peak heap bytes reserved by one check's BFS level storage.
    pub(crate) frontier_bytes: telemetry::Gauge,
    /// Peak heap bytes reserved by one whole check (class index +
    /// visited + frontier + edge pool).
    pub(crate) peak_bytes: telemetry::Gauge,
    /// Classes [`Explorer::check`] proved from their label, with no
    /// search.
    pub(crate) decided_graph_proof: telemetry::Counter,
    /// Classes [`Explorer::check`] refuted by the tight BFS: the search
    /// kept to the root's shortest paths to a bad state.
    pub(crate) decided_tight_bfs: telemetry::Counter,
    /// Classes [`Explorer::check`] sent to the plain search: no walk
    /// reached the root, or the labels do not apply (an armed deadline
    /// or byte budget, a walk past a cap, or a semantics that no walk
    /// labels, such as ASYNC).
    pub(crate) decided_search: telemetry::Counter,
    /// Classes [`Explorer::check`] sent to the search over their
    /// doomed states: the Phase-D refutations.
    pub(crate) decided_doomed_search: telemetry::Counter,
    /// Classes [`Explorer::check`] refuted as stuck at the root.
    pub(crate) decided_stuck_root: telemetry::Counter,
    /// States the cell walks labeled ([`Explorer::label`]).
    pub(crate) graph_states: telemetry::Counter,
    /// Edges the cell walks followed, counted as a search counts them.
    pub(crate) graph_edges: telemetry::Counter,
    /// Cyclic SCCs the cell walks decided by Phase D.
    pub(crate) graph_products: telemetry::Counter,
    /// Wall time in the cell walks, nanoseconds.
    pub(crate) graph_ns: telemetry::Counter,
}

impl ExploreMetrics {
    /// Reads every tally into a named snapshot. Zero readings are
    /// included, so a snapshot always names the full metric surface.
    fn snapshot(&self) -> telemetry::Snapshot {
        let mut s = telemetry::Snapshot::new();
        s.add_counter("explore.checks", self.checks.get());
        s.add_counter("explore.states", self.states.get());
        s.add_counter("explore.edges", self.edges.get());
        s.add_counter("explore.deduped", self.deduped.get());
        s.add_counter("explore.levels", self.levels.get());
        s.add_counter("explore.phase_a_ns", self.phase_a_ns.get());
        s.add_counter("explore.phase_d_ns", self.phase_d_ns.get());
        s.add_counter("explore.verdict.proof", self.verdict_proof.get());
        s.add_counter("explore.verdict.refuted", self.verdict_refuted.get());
        s.add_counter("explore.verdict.undecided", self.verdict_undecided.get());
        s.add_counter("explore.undecided.states", self.undecided_states.get());
        s.add_counter("explore.undecided.edges", self.undecided_edges.get());
        s.add_counter("explore.undecided.fair_depth", self.undecided_product.get());
        s.add_counter("explore.undecided.timeout", self.undecided_timeout.get());
        s.add_counter("explore.undecided.mem_budget", self.undecided_mem_budget.get());
        s.add_counter("explore.classes", self.classes.get());
        s.add_counter("explore.decided.graph_proof", self.decided_graph_proof.get());
        s.add_counter("explore.decided.tight_bfs", self.decided_tight_bfs.get());
        s.add_counter("explore.decided.search", self.decided_search.get());
        s.add_counter("explore.decided.doomed_search", self.decided_doomed_search.get());
        s.add_counter("explore.decided.stuck_root", self.decided_stuck_root.get());
        s.add_counter("explore.graph_states", self.graph_states.get());
        s.add_counter("explore.graph_edges", self.graph_edges.get());
        s.add_counter("explore.graph_products", self.graph_products.get());
        s.add_counter("explore.graph_ns", self.graph_ns.get());
        s.add_histogram(self.frontier_width.read("explore.frontier_width"));
        s.add_histogram(self.arena_classes.read("explore.arena_classes"));
        s.add_histogram(self.states_per_check.read("explore.states_per_check"));
        s.add_histogram(self.budget_states_pct.read("explore.budget_states_pct"));
        s.add_histogram(self.budget_edges_pct.read("explore.budget_edges_pct"));
        s.add_gauge("explore.class_table_bytes", self.class_table_bytes.get());
        s.add_gauge("explore.arena_bytes", self.arena_bytes.get());
        s.add_gauge("explore.visited_bytes", self.visited_bytes.get());
        s.add_gauge("explore.frontier_bytes", self.frontier_bytes.get());
        s.add_gauge("explore.peak_bytes", self.peak_bytes.get());
        s
    }
}

/// An exhaustive adversary explorer for one algorithm and one
/// [`Semantics`] instantiation.
///
/// Construction computes the algorithm's equivariance subgroup once
/// (it scans every view of the algorithm's radius); reuse one explorer
/// across many [`check`](Explorer::check) calls.
pub struct Explorer<'a, A: Algorithm + ?Sized, S: Semantics = CrashSemantics> {
    /// The algorithm whose decisions build each class's
    /// [`ClassInfo`].
    algo: &'a A,
    opts: ExploreOptions,
    group: Vec<PointSymmetry>,
    semantics: S,
    /// Largest robot count [`Explorer::check`] accepts; the
    /// equivariance scan was widened to match, so the stabilizer dedup
    /// stays sound (see [`equivariance_group_for`]).
    max_robots: usize,
    /// The class table every search of this explorer shares — in a
    /// sweep, every search of the cell. Each class's decision data and
    /// table ([`Semantics::Entry`]) are computed once per explorer,
    /// when some search first needs them.
    table: ClassTable<S::Entry>,
    /// Pool of cleared [`SearchScratch`] buffers: each `check` leases
    /// one and returns it, so successive per-class searches reuse
    /// their grown allocations instead of rebuilding them per class.
    /// Depth is bounded by the number of concurrent `check` calls.
    scratch: std::sync::Mutex<Vec<SearchScratch<S::Aux>>>,
    /// The labels of the cell's state graph, grown by
    /// [`Explorer::label`] and read by [`Explorer::check`] (crash
    /// semantics only; DESIGN.md §19).
    labels: labels::CellLabels,
    /// Out-of-band observability tallies (see [`ExploreMetrics`]).
    metrics: ExploreMetrics,
}

impl<A: Algorithm + ?Sized> Explorer<'_, A, CrashSemantics> {
    /// The crash budget this explorer was built with.
    #[must_use]
    pub fn budget(&self) -> u8 {
        self.semantics.budget
    }

    /// The round table of class `id`, built on first use: the
    /// reference stepper [`engine::RoundTable`], with each successor
    /// key resolved to its class id.
    pub(crate) fn round_steps(&self, id: u32) -> &[RoundStep] {
        self.class_table(id, |node| {
            let cfg = node.key.unpack();
            let table = engine::RoundTable::new(&cfg, &node.info.moves[..cfg.len()]);
            table
                .entries()
                .iter()
                .map(|e| RoundStep {
                    slots: e.slots,
                    succ: if e.kind == engine::RoundKind::Succ { self.class_id(e.key) } else { 0 },
                    mask: e.mask,
                    kind: e.kind,
                })
                .collect()
        })
    }
}

impl<'a, A: Algorithm + ?Sized, S: Semantics> Explorer<'a, A, S> {
    /// Builds an explorer for `algo` over the given semantics, accepting
    /// configurations of up to `max_robots` robots. The equivariance
    /// subgroup is computed over every view with up to
    /// `max(max_robots, 8) - 1` robots: never fewer than the historical
    /// 7, so every explorer of up to 8 robots scans (and therefore
    /// dedups and schedules) exactly as in the u8-mask era, and widening
    /// can only shrink the group, so dedup stays sound at every
    /// supported count.
    ///
    /// # Panics
    /// Panics if `max_robots` exceeds [`PackedClass::MAX_ROBOTS`].
    #[must_use]
    pub fn new(algo: &'a A, opts: ExploreOptions, semantics: S, max_robots: usize) -> Self {
        assert!(
            max_robots <= PackedClass::MAX_ROBOTS,
            "explorers support at most {} robots",
            PackedClass::MAX_ROBOTS
        );
        let group = equivariance_group_for(algo, max_robots.max(8));
        Explorer {
            algo,
            opts,
            group,
            semantics,
            max_robots: max_robots.max(8),
            table: ClassTable::new(),
            scratch: std::sync::Mutex::new(Vec::new()),
            labels: labels::CellLabels::default(),
            metrics: ExploreMetrics::default(),
        }
    }

    /// A point-in-time telemetry snapshot: accumulated phase wall
    /// times, class-table size, verdict breakdowns, and BFS shape
    /// histograms over every [`check`](Self::check) this explorer has
    /// run. Strictly observational — reading it never changes behavior.
    #[must_use]
    pub fn metrics_snapshot(&self) -> telemetry::Snapshot {
        self.metrics.snapshot()
    }

    /// The algorithm's equivariance subgroup (always contains the
    /// identity).
    #[must_use]
    pub fn group(&self) -> &[PointSymmetry] {
        &self.group
    }

    /// Arms (or clears) the cooperative per-class wall-clock deadline
    /// applied to every subsequent [`check`](Self::check); see
    /// [`ExploreOptions::class_timeout`] for the tradeoff.
    pub fn set_class_timeout(&mut self, timeout: Option<std::time::Duration>) {
        self.opts.class_timeout = timeout;
    }

    /// Arms (or clears) the deterministic per-class byte budget applied
    /// to every subsequent [`check`](Self::check); see
    /// [`ExploreOptions::mem_budget`].
    pub fn set_mem_budget(&mut self, budget: Option<usize>) {
        self.opts.mem_budget = budget;
    }

    /// The algorithm being checked.
    pub(crate) fn algorithm(&self) -> &'a A {
        self.algo
    }

    /// The node of a class id [`Self::class_id`] returned.
    pub(crate) fn node(&self, id: u32) -> &ClassNode {
        self.table.node(id)
    }

    /// The class table id of `key`'s class, adding the class (and
    /// building its node) on first sight.
    pub(crate) fn class_id(&self, key: PackedClass) -> u32 {
        let (id, new) = self.table.resolve(key, || {
            let cfg = key.unpack();
            let info = ClassInfo::of(&engine::compute_moves(&cfg, self.algo));
            let goals = self.semantics.goal_bits(&cfg, &info);
            ClassNode { key, info, goals }
        });
        if new {
            self.metrics.classes.inc();
        }
        id
    }

    /// The table of class `id`, built by `build` from the class's node
    /// on first use.
    pub(crate) fn class_table(
        &self,
        id: u32,
        build: impl FnOnce(&ClassNode) -> Box<[S::Entry]>,
    ) -> &[S::Entry] {
        self.table.table(id, || build(self.table.node(id)))
    }

    /// Runs `run` on a fresh search with a leased scratch, and reports
    /// it: one of [`Self::check`]'s searches.
    fn search<'c>(
        &'c self,
        run: impl FnOnce(&mut Search<'c, 'a, A, S>) -> ExploreVerdict,
    ) -> ExploreReport {
        // Lease a scratch from the pool (cleared on return, so a
        // leased buffer is always empty) instead of growing a fresh
        // one: across the ~77k classes of a sweep cell this is the
        // difference between per-class allocator churn and steady
        // state. See [`SearchScratch`] for why reuse is sound.
        let scratch = self
            .scratch
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop()
            .unwrap_or_default();
        let mut search = Search {
            explorer: self,
            scratch,
            width: 0,
            edges: 0,
            deduped: 0,
            deadline: self.opts.class_timeout.map(|t| std::time::Instant::now() + t),
            deadline_ticks: std::cell::Cell::new(0),
        };
        let verdict = run(&mut search);

        // Out-of-band bookkeeping on the finished search; none of it
        // can reach the report or any digest.
        let m = &self.metrics;
        m.checks.inc();
        m.states.add(search.scratch.states.len() as u64);
        m.edges.add(search.edges as u64);
        m.deduped.add(search.deduped as u64);
        m.arena_classes.record(search.scratch.classes.len() as u64);
        m.states_per_check.record(search.scratch.states.len() as u64);
        let pct = |used: usize, cap: usize| -> u64 {
            let cap = cap.max(1) as u128;
            ((used as u128 * 100) / cap).min(u64::MAX as u128) as u64
        };
        m.budget_states_pct.record(pct(search.scratch.states.len(), self.opts.max_states));
        m.budget_edges_pct.record(pct(search.edges, self.opts.max_edges));
        m.class_table_bytes.record(self.table.bytes() as u64);
        m.arena_bytes.record(search.scratch.class_index_bytes() as u64);
        m.visited_bytes.record(search.scratch.visited_bytes() as u64);
        m.frontier_bytes.record((search.scratch.levels.capacity() * size_of::<u32>()) as u64);
        m.peak_bytes.record(search.scratch.heap_bytes() as u64);
        match &verdict {
            ExploreVerdict::Proof => m.verdict_proof.inc(),
            ExploreVerdict::Refuted { .. } => m.verdict_refuted.inc(),
            ExploreVerdict::Undecided { reason, .. } => {
                m.verdict_undecided.inc();
                match reason {
                    UndecidedReason::States => m.undecided_states.inc(),
                    UndecidedReason::Edges => m.undecided_edges.inc(),
                    UndecidedReason::FairDepth => m.undecided_product.inc(),
                    UndecidedReason::Timeout => m.undecided_timeout.inc(),
                    UndecidedReason::MemBudget => m.undecided_mem_budget.inc(),
                    // Only the sweep's panic isolation builds this reason.
                    UndecidedReason::Panicked => {}
                }
            }
        }

        let report = ExploreReport {
            verdict,
            states: search.scratch.states.len(),
            edges: search.edges,
            deduped: search.deduped,
        };
        let Search { scratch: mut lease, .. } = search;
        lease.clear();
        self.scratch.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(lease);
        report
    }

    /// Panics unless `initial` is connected and within this explorer's
    /// robot capacity.
    fn assert_checkable(&self, initial: &Configuration) {
        assert!(
            initial.len() <= self.max_robots,
            "this explorer was built for at most {} robots (got {}); \
             build it with a larger max_robots",
            self.max_robots,
            initial.len()
        );
        assert!(initial.is_connected(), "the paper's model starts connected");
    }

    /// Index permutations induced on class `key` by its stabilizer
    /// within the equivariance subgroup (identity omitted), restricted
    /// to permutations that also fix the auxiliary key — a symmetry
    /// that maps, say, a crashed robot onto a live one (or a pending
    /// robot onto an idle one) does not commute with the auxiliary
    /// state. The class's positions decode onto the stack, and the
    /// stabilizer test compares packed class keys, so non-stabilizing
    /// symmetries (the common case) are rejected without any
    /// allocation; a trivial subgroup decodes nothing.
    pub(crate) fn stabilizer_perms(&self, key: PackedClass, aux: S::Aux) -> Vec<Vec<usize>> {
        if self.group.len() == 1 {
            return Vec::new();
        }
        let cells = key.cells();
        let positions = &cells[..key.robots()];
        let n = positions.len();
        let mut perms = Vec::new();
        let mut mapped = [ORIGIN; PackedClass::MAX_ROBOTS];
        for &s in &self.group[1..] {
            for (m, &p) in mapped[..n].iter_mut().zip(positions) {
                *m = s.apply(p);
            }
            if PackedClass::of_cells(&mapped[..n]) != key {
                continue;
            }
            let delta = *mapped[..n]
                .iter()
                .min_by_key(|c| polyhex::key(**c))
                .expect("configurations are non-empty");
            let perm: Vec<usize> = mapped[..n]
                .iter()
                .map(|&q| {
                    let normalized = q - delta;
                    positions
                        .iter()
                        .position(|&p| p == normalized)
                        .expect("stabilizer permutes the class")
                })
                .collect();
            if S::permute_aux(aux, n, |i| perm[i], s) != aux {
                continue;
            }
            perms.push(perm);
        }
        perms
    }
}

impl<A: Algorithm + ?Sized, S: Semantics> Explorer<'_, A, S> {
    /// [`Self::stabilizer_perms`] as the fixed slot arrays the Phase D
    /// product takes as ε-edges.
    pub(crate) fn stabilizer_slots(
        &self,
        key: PackedClass,
        aux: S::Aux,
    ) -> Vec<[u8; PackedClass::MAX_ROBOTS]> {
        self.stabilizer_perms(key, aux)
            .into_iter()
            .map(|perm| {
                let mut p = [0u8; PackedClass::MAX_ROBOTS];
                for (i, &j) in perm.iter().enumerate() {
                    p[i] = j as u8;
                }
                p
            })
            .collect()
    }
}

/// Image of a slot bitmask under an index permutation.
fn apply_perm_mask(mask: u16, perm: &[usize]) -> u16 {
    let mut mapped = 0u16;
    for (i, &j) in perm.iter().enumerate() {
        if mask & (1 << i) != 0 {
            mapped |= 1 << j;
        }
    }
    mapped
}

/// Minimal representative of the action's orbit under the index
/// permutations, ordered by `(crash, activate)`.
pub(crate) fn canonical_action(action: CrashRound, perms: &[Vec<usize>]) -> CrashRound {
    let mut best = action;
    for perm in perms {
        let mapped = CrashRound {
            crash: apply_perm_mask(action.crash, perm),
            activate: apply_perm_mask(action.activate, perm),
        };
        if (mapped.crash, mapped.activate) < (best.crash, best.activate) {
            best = mapped;
        }
    }
    best
}

/// Movement rounds of a schedule: injection-only actions do not count.
/// (Every ASYNC action activates one robot, so there the count is the
/// schedule length — one tick per phase advance.)
pub(crate) fn movement_rounds(schedule: &[CrashRound]) -> usize {
    schedule.iter().filter(|a| a.activate != 0).count()
}

/// The limits every model's `replay` runs a refutation under: enough
/// rounds to reach its `outcome` after `movement` movement rounds (see
/// [`movement_rounds`]) and no more, with livelock detection off, so a
/// lasso replays to its step limit.
pub(crate) fn replay_limits(outcome: &Outcome, movement: usize) -> Limits {
    let max_rounds = match outcome {
        Outcome::StuckFixpoint { rounds } => rounds + 1,
        Outcome::StepLimit { rounds } => *rounds,
        Outcome::Collision { .. } | Outcome::Disconnected { .. } => movement.max(1),
        _ => movement + 1,
    };
    Limits { max_rounds, detect_livelock: false }
}

/// One `check` call's working state: the interned state graph plus the
/// exploration statistics.
struct Search<'c, 'a, A: Algorithm + ?Sized, S: Semantics> {
    explorer: &'c Explorer<'a, A, S>,
    /// The leased storage: state columns, class index, edge pool and
    /// level buffers (see [`SearchScratch`]).
    scratch: SearchScratch<S::Aux>,
    /// State slots per local class in the dense `(class, aux rank)`
    /// index ([`Semantics::width`]); zero for ASYNC, whose states sit
    /// on per-class aux-variant chains.
    width: usize,
    edges: usize,
    deduped: usize,
    /// Wall-clock deadline of this check when
    /// [`ExploreOptions::class_timeout`] is armed; `None` keeps the
    /// clock entirely out of the search.
    deadline: Option<std::time::Instant>,
    /// Strided deadline poll counter — a `Cell` so the read-only
    /// phases can bump it behind `&self` (a search never leaves its
    /// thread). Purely a cost amortizer: it never influences anything
    /// but how often the clock is read.
    deadline_ticks: std::cell::Cell<u32>,
}

/// How many deadline poll sites pass between actual clock reads. At
/// the Phase A edge rate (millions/s) this bounds the overshoot well
/// under a millisecond while keeping the per-edge cost to one
/// increment.
const DEADLINE_STRIDE: u32 = 1024;

impl<'c, 'a, A: Algorithm + ?Sized, S: Semantics> Search<'c, 'a, A, S> {
    /// `(local class, aux, rounds)` of state `id`.
    fn state(&self, id: usize) -> (u32, S::Aux, usize) {
        let s = &self.scratch.states;
        (s.class[id], s.aux[id], s.rounds[id] as usize)
    }

    /// The class table node of local class `class`.
    fn node(&self, class: u32) -> &'c ClassNode {
        self.explorer.table.node(self.scratch.classes[class as usize])
    }

    /// The class table id of local class `class`.
    fn table_id(&self, class: u32) -> u32 {
        self.scratch.classes[class as usize]
    }

    /// Occupied bytes of the search's live storage, as a **pure
    /// function of the interned counts** — local classes, states and
    /// recorded edges — never of allocator capacities, which depend on
    /// scratch-pool history. This is what the byte budget compares
    /// against, so budget-armed verdicts are byte-identical across
    /// thread counts, shardings and pool reuse. The per-item sizes are
    /// the frozen [`nominal`] ones, so the figure does not follow the
    /// actual layout (BFS level storage is folded in as one entry per
    /// state — every inner state is queued exactly once).
    fn live_bytes(&self) -> usize {
        let s = &self.scratch;
        let (classes, states) = (s.classes.len(), s.states.len());
        FlatKeyIndex::nominal_live_bytes(classes)
            + classes * (nominal::CFG_POINTER + nominal::CLASS_INFO + nominal::VARIANT_HEAD)
            + states
                * (nominal::STATE + size_of::<S::Aux>() + nominal::LEVEL + nominal::VARIANT_ENTRY)
            + s.edge_pool.len() * size_of::<PackedEdge>()
    }

    /// Whether a search budget is exhausted.
    fn over_budget(&self) -> bool {
        let opts = &self.explorer.opts;
        self.scratch.states.len() > opts.max_states
            || self.edges > opts.max_edges
            || opts.mem_budget.is_some_and(|cap| self.live_bytes() > cap)
    }

    /// The undecided verdict for a tripped BFS budget, recording which
    /// counter exhausted (states before edges before bytes when several
    /// did — the state cap is the one that names the blown search).
    fn budget_undecided(&self) -> ExploreVerdict {
        let reason = if self.scratch.states.len() > self.explorer.opts.max_states {
            UndecidedReason::States
        } else if self.edges > self.explorer.opts.max_edges {
            UndecidedReason::Edges
        } else {
            UndecidedReason::MemBudget
        };
        ExploreVerdict::Undecided { reason }
    }

    /// Whether the armed wall-clock deadline has passed, polling the
    /// clock only once per [`DEADLINE_STRIDE`] calls. With no deadline
    /// armed (the production default) this is a single `Option`
    /// branch — the clock is never read and verdicts stay purely
    /// counter-budgeted.
    fn deadline_tripped(&self) -> bool {
        let Some(deadline) = self.deadline else { return false };
        let tick = self.deadline_ticks.get();
        self.deadline_ticks.set(tick.wrapping_add(1));
        if !tick.is_multiple_of(DEADLINE_STRIDE) {
            return false;
        }
        std::time::Instant::now() >= deadline
    }

    /// Unstrided deadline poll for coarse sites (level and phase
    /// boundaries), where one clock read per call is negligible.
    fn deadline_passed_now(&self) -> bool {
        self.deadline.is_some_and(|d| std::time::Instant::now() >= d)
    }

    /// The undecided verdict for an expired per-class deadline.
    fn timeout_undecided(&self) -> ExploreVerdict {
        ExploreVerdict::Undecided { reason: UndecidedReason::Timeout }
    }

    /// Records the expanded edge `(action, succ)` on state `id`. Edges
    /// of a state are recorded back-to-back (expansion finishes one
    /// state before the next starts), which is what lets the pool stay
    /// flat.
    fn push_edge(&mut self, id: usize, action: CrashRound, succ: usize) {
        let offset = u32::try_from(self.scratch.edge_pool.len()).expect("fewer than 2^32 edges");
        let states = &mut self.scratch.states;
        if states.edge_len[id] == 0 {
            states.edge_start[id] = offset;
        }
        debug_assert_eq!(
            states.edge_start[id] + states.edge_len[id],
            offset,
            "interleaved expansion"
        );
        states.edge_len[id] += 1;
        self.scratch.edge_pool.push(PackedEdge { action: pack_action(action), to: succ as u32 });
    }

    /// The expanded edges of state `id`.
    fn edges_of(&self, id: usize) -> &[PackedEdge] {
        let s = &self.scratch.states;
        let start = s.edge_start[id] as usize;
        &self.scratch.edge_pool[start..start + s.edge_len[id] as usize]
    }

    /// The per-edge budget and deadline polls, run after each recorded
    /// edge.
    fn edge_polls(&self) -> Option<ExploreVerdict> {
        if self.over_budget() {
            return Some(self.budget_undecided());
        }
        if self.deadline_tripped() {
            return Some(self.timeout_undecided());
        }
        None
    }

    /// The local class of class table id `id`, added on first sight —
    /// a sparse-set lookup: `sparse` proposes a local index and
    /// `classes` confirms it. A new local class gets its `width` empty
    /// state slots and an empty aux-variant chain.
    fn local_class(&mut self, id: u32) -> u32 {
        let s = &mut self.scratch;
        if let Some(&local) = s.sparse.get(id as usize) {
            if s.classes.get(local as usize) == Some(&id) {
                return local;
            }
        }
        let local = s.classes.len() as u32;
        if s.sparse.len() <= id as usize {
            s.sparse.resize(id as usize + 1, 0);
        }
        s.sparse[id as usize] = local;
        s.classes.push(id);
        s.slots.resize(s.slots.len() + self.width, NO_STATE);
        s.variant_head.push(NO_VARIANT);
        local
    }

    /// Interns the state `(class, aux)` of local class `class`: at the
    /// aux's dense slot when the semantics ranks auxes
    /// ([`Semantics::width`]), else on the class's aux-variant chain. A
    /// new state is classified from the class's node. Returns `(id,
    /// newly_inserted)`.
    #[inline(always)]
    fn intern(
        &mut self,
        class: u32,
        aux: S::Aux,
        rounds: usize,
        parent: Option<(usize, CrashRound)>,
    ) -> (usize, bool) {
        let s = &mut self.scratch;
        let slot = if self.width > 0 {
            let rank = self.explorer.semantics.rank(aux);
            debug_assert!(rank < self.width, "aux rank {rank} outside the class's slots");
            let slot = class as usize * self.width + rank;
            if s.slots[slot] != NO_STATE {
                return (s.slots[slot] as usize, false);
            }
            Some(slot)
        } else {
            let mut cur = s.variant_head[class as usize];
            while cur != NO_VARIANT {
                let e = &s.variant_pool[cur as usize];
                if e.aux == aux {
                    return (e.state as usize, false);
                }
                cur = e.next;
            }
            None
        };
        let kind = self.explorer.semantics.classify(self.node(class), aux);
        let (parent, parent_action) = match parent {
            Some((p, a)) => (p as u32, pack_action(a)),
            None => (NO_PARENT, 0),
        };
        let s = &mut self.scratch;
        let id = s.states.len();
        s.states.push(class, aux, rounds as u32, parent, parent_action, kind);
        if let Some(slot) = slot {
            s.slots[slot] = id as u32;
        } else {
            let next = s.variant_head[class as usize];
            s.variant_pool.push(VariantEntry { aux, state: id as u32, next });
            s.variant_head[class as usize] = (s.variant_pool.len() - 1) as u32;
        }
        (id, true)
    }

    /// Interns the initial state `(initial's class, root aux)`; the
    /// class's robot count fixes the dense slots per class for the
    /// whole search.
    fn intern_root(&mut self, initial: &Configuration) -> usize {
        let semantics = &self.explorer.semantics;
        self.width = semantics.width(initial.len());
        let class = self.local_class(self.explorer.class_id(initial.canonical_key()));
        self.intern(class, semantics.root_aux(), 0, None).0
    }

    /// Takes `action` from state `id`, `rounds` rounds from the root, to
    /// its successor `(to, aux)`: counts the edge and interns the
    /// successor with its parent and rounds (injection-only actions keep
    /// the round count). Returns the successor's id and whether it is
    /// new.
    #[inline(always)]
    fn step_to(
        &mut self,
        id: usize,
        rounds: usize,
        action: CrashRound,
        to: u32,
        aux: S::Aux,
    ) -> (usize, bool) {
        let rounds = rounds + usize::from(action.activate != 0);
        self.edges += 1;
        let local = self.local_class(to);
        self.intern(local, aux, rounds, Some((id, action)))
    }

    /// The refutation that reaches state `id` and plays the bad `action`
    /// to `target`: a collision, a disconnection (counted as an edge, as
    /// the search always has) or a stuck successor, which the caller has
    /// interned through [`Self::step_to`].
    fn refute_bad(
        &mut self,
        id: usize,
        action: CrashRound,
        target: Target<S::Aux>,
    ) -> ExploreVerdict {
        let (class, aux, rounds) = self.state(id);
        let outcome = match target {
            Target::Collides => {
                let explorer = self.explorer;
                let collision =
                    explorer.semantics.collision(explorer, self.table_id(class), aux, action);
                Outcome::Collision { round: rounds, collision }
            }
            Target::Disconnects => {
                self.edges += 1;
                Outcome::Disconnected { round: rounds + 1 }
            }
            // Injection-only actions keep the round count.
            Target::Succ(..) => {
                Outcome::StuckFixpoint { rounds: rounds + usize::from(action.activate != 0) }
            }
        };
        let mut schedule = self.path_to(id);
        schedule.push(action);
        ExploreVerdict::Refuted { schedule, outcome }
    }

    /// Expands every adversary action of inner state `id`, in the order
    /// [`Semantics::actions`] enumerates them: interns each successor
    /// `(class id, aux)` that `keep` accepts, counts the edge, queues a
    /// new inner successor onto `queue` and polls the budgets after each
    /// recorded edge. A successor `keep` rejects is neither interned nor
    /// counted. Returns a verdict as soon as a bad action is reached or a
    /// budget is exhausted.
    ///
    /// A successor is its class id plus its aux, and its local state is
    /// found through the search's dense index or its class's aux chain
    /// — no hash, lock or reference count per edge.
    fn expand(
        &mut self,
        id: usize,
        queue: &mut Vec<u32>,
        keep: impl Fn(u32, S::Aux) -> bool,
    ) -> Option<ExploreVerdict> {
        let (class, aux, rounds) = self.state(id);
        let explorer = self.explorer;
        let mut verdict = None;
        let deduped =
            explorer.semantics.actions(explorer, self.table_id(class), aux, |action, target| {
                let Target::Succ(to, aux) = target else {
                    verdict = Some(self.refute_bad(id, action, target));
                    return false;
                };
                if !keep(to, aux) {
                    return true;
                }
                let (succ, new) = self.step_to(id, rounds, action, to, aux);
                // A search meets a stuck state only as a new one, and stops.
                if new && self.scratch.states.kind[succ] == NodeKind::Stuck {
                    verdict = Some(self.refute_bad(id, action, target));
                    return false;
                }
                // An injection-only successor is terminal: never queued.
                if new && action.activate != 0 {
                    queue.push(succ as u32);
                }
                self.push_edge(id, action, succ);
                verdict = self.edge_polls();
                verdict.is_none()
            });
        self.deduped += deduped;
        verdict
    }

    /// Actions from the initial state to `id`, via BFS parents.
    fn path_to(&self, id: usize) -> Vec<CrashRound> {
        let mut actions = Vec::new();
        let mut cur = id;
        loop {
            let parent = self.scratch.states.parent[cur];
            if parent == NO_PARENT {
                break;
            }
            actions.push(unpack_action(self.scratch.states.parent_action[cur]));
            cur = parent as usize;
        }
        actions.reverse();
        actions
    }

    /// Decides the root `initial`: a stuck root at once, then Phase A
    /// and Phase D over the states `keep` accepts (see [`Self::expand`]).
    /// `keep(level, class id, aux)` sees each successor with the BFS
    /// level of the state that expands it. [`Explorer::check`]'s plain
    /// search keeps every state; a labeled root keeps its doomed states,
    /// or only those on its shortest paths to a bad state, which changes
    /// no verdict (DESIGN.md §19).
    fn run(
        &mut self,
        initial: &Configuration,
        keep: impl Fn(usize, u32, S::Aux) -> bool,
    ) -> ExploreVerdict {
        let root = self.intern_root(initial);
        if self.scratch.states.kind[root] == NodeKind::Stuck {
            return ExploreVerdict::Refuted {
                schedule: Vec::new(),
                outcome: Outcome::StuckFixpoint { rounds: 0 },
            };
        }

        // Phase A: BFS over the reachable state graph, one level at a
        // time; the first bad terminal yields a minimal counterexample
        // schedule. All levels share one flat `levels` vector: the
        // current level is the window `[lo, hi)` and children append
        // past `hi`, so advancing `lo` to `hi` is the level barrier —
        // no per-level `Vec` allocation. Children always join the
        // *next* level, so walking each window in order reproduces the
        // historical single-queue FIFO order exactly. The phase timers
        // and level tallies around the loop are write-only telemetry;
        // they never influence the walk.
        let metrics = &self.explorer.metrics;
        let watch = telemetry::Stopwatch::started();
        let mut found: Option<ExploreVerdict> = None;
        let mut levels = std::mem::take(&mut self.scratch.levels);
        levels.clear();
        levels.push(root as u32);
        let (mut lo, mut level) = (0usize, 0usize);
        'levels: while lo < levels.len() {
            let hi = levels.len();
            if self.deadline_passed_now() {
                found = Some(self.timeout_undecided());
                break 'levels;
            }
            metrics.levels.inc();
            metrics.frontier_width.record((hi - lo) as u64);
            let kept = |to, aux| keep(level, to, aux);
            for i in lo..hi {
                let id = levels[i] as usize;
                if self.scratch.states.kind[id] != NodeKind::Inner {
                    continue;
                }
                if let Some(verdict) = self.expand(id, &mut levels, kept) {
                    found = Some(verdict);
                    break 'levels;
                }
                if self.over_budget() {
                    found = Some(self.budget_undecided());
                    break 'levels;
                }
            }
            lo = hi;
            level += 1;
        }
        self.scratch.levels = levels;
        watch.flush(&metrics.phase_a_ns);
        if let Some(verdict) = found {
            return verdict;
        }

        // Phase D: no bad terminal is reachable, so only a fair cycle
        // can refute. Decide fair pumps exactly on the role-tracking
        // product automaton of each cyclic SCC — a proof or a stitched
        // refutation lasso, undecided only if the product itself
        // overflows its cap (DESIGN.md §15). An acyclic graph has no
        // cyclic SCC and is a proof outright (DESIGN.md §7).
        let watch = telemetry::Stopwatch::started();
        let verdict = self.decide_fair_product();
        watch.flush(&metrics.phase_d_ns);
        verdict
    }

    /// The strongly connected components that contain a cycle — more
    /// than one state, or a self-loop — each sorted, in the completion
    /// order of Tarjan's algorithm (iterative, deterministic). Acyclic
    /// singletons, nearly every state of a search, are never
    /// materialized.
    fn cyclic_sccs(&self) -> Vec<Vec<usize>> {
        let n = self.scratch.states.len();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut sccs: Vec<Vec<usize>> = Vec::new();
        let mut counter = 0usize;
        for root in 0..n {
            if index[root] != usize::MAX {
                continue;
            }
            let mut call: Vec<(usize, usize)> = vec![(root, 0)];
            while let Some(&mut (v, ref mut ei)) = call.last_mut() {
                if *ei == 0 {
                    index[v] = counter;
                    low[v] = counter;
                    counter += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                let es = self.edges_of(v);
                if *ei < es.len() {
                    let w = es[*ei].to as usize;
                    *ei += 1;
                    if index[w] == usize::MAX {
                        call.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    if low[v] == index[v] {
                        if stack.last() == Some(&v) && !es.iter().any(|e| e.to as usize == v) {
                            stack.pop();
                            on_stack[v] = false;
                        } else {
                            let mut comp = Vec::new();
                            while let Some(w) = stack.pop() {
                                on_stack[w] = false;
                                comp.push(w);
                                if w == v {
                                    break;
                                }
                            }
                            comp.sort_unstable();
                            sccs.push(comp);
                        }
                    }
                    call.pop();
                    if let Some(&mut (parent, _)) = call.last_mut() {
                        low[parent] = low[parent].min(low[v]);
                    }
                }
            }
        }
        sccs
    }

    /// Phase D: the complete fair-cycle decision. Each cyclic SCC is
    /// decided exactly on the role-tracking product automaton over
    /// `(state, slot → role assignment)` pairs (DESIGN.md §15):
    ///
    /// * a reachable product structure covering every role yields a
    ///   stitched refutation lasso;
    /// * no coverage — even with stabilizer relabelings folded in —
    ///   proves no fair schedule can stay in the SCC forever, and once
    ///   every SCC is ruled out, every fair schedule reaches a (good)
    ///   terminal: proof;
    /// * a product overflow, a failed stitch, or coverage only under
    ///   stabilizer relabelings stays undecided.
    ///
    /// Every SCC-internal edge gets its certificate
    /// ([`Semantics::cert`]): the induced slot permutation plus the
    /// slots whose occupant satisfies fairness on that edge. The
    /// reachable product from `(scc[0], identity)` is strongly
    /// connected — closed walks at a state induce a sub*group* of slot
    /// permutations, so every reachable assignment can be walked back —
    /// which reduces generalized-Büchi acceptance to one reachability
    /// sweep: a fair pump exists iff the union of reachable product
    /// edges' covered-role masks is complete. The union only grows, so
    /// the sweep stops at the first node that completes it.
    ///
    /// A second sweep folds in the stabilizer permutations as
    /// flag-free ε-edges: executions of the *full* (un-deduped) system
    /// map onto explored walks only up to stabilizer relabeling, so a
    /// proof must also rule out coverage under those relabelings. The
    /// asymmetric corner — coverage complete only *with* ε-edges —
    /// would need deduped actions to stitch a concrete schedule and is
    /// reported undecided instead of guessed.
    fn decide_fair_product(&self) -> ExploreVerdict {
        for scc in self.cyclic_sccs() {
            if self.deadline_passed_now() {
                return self.timeout_undecided();
            }
            let n = self.node(self.scratch.states.class[scc[0]]).info.robots();
            let edges: Vec<Vec<ProductEdge>> = scc
                .iter()
                .map(|&u| {
                    let (class, aux, _) = self.state(u);
                    self.edges_of(u)
                        .iter()
                        .filter_map(|e| {
                            let to = e.to as usize;
                            let tidx = scc.binary_search(&to).ok()?;
                            let to = self.node(self.state(to).0).key;
                            let cert = S::cert(self.node(class), aux, unpack_action(e.action), to);
                            Some(ProductEdge { action: e.action, to: tidx as u32, cert })
                        })
                        .collect()
                })
                .collect();
            let eps = || {
                scc.iter()
                    .map(|&u| {
                        let (class, aux, _) = self.state(u);
                        self.explorer.stabilizer_slots(self.node(class).key, aux)
                    })
                    .collect()
            };
            let stitched = match fair_pump(&edges, eps, n, || self.deadline_tripped()) {
                Pump::NoFairCycle => continue,
                Pump::Fair(mut product) => {
                    self.stitch_product_cycle(scc[0], &mut product, (1u16 << n) - 1)
                }
                Pump::Undecided => None,
            };
            if let Some(verdict) = stitched {
                return verdict;
            }
            // An expired deadline surfaces here as an aborted product
            // sweep; attribute it honestly instead of blaming the product
            // cap.
            if self.deadline_passed_now() {
                return self.timeout_undecided();
            }
            return ExploreVerdict::Undecided { reason: UndecidedReason::FairDepth };
        }
        ExploreVerdict::Proof
    }

    /// Stitches an accepting product structure into a refutation lasso:
    /// the BFS prefix to the SCC entry state, then the product's
    /// covering walk ([`Product::covering_walk`]). `None` only when the
    /// walk grows the product past its caps.
    fn stitch_product_cycle(
        &self,
        entry: usize,
        product: &mut Product<'_>,
        all_roles: u16,
    ) -> Option<ExploreVerdict> {
        let mut schedule = self.path_to(entry);
        schedule.extend(product.covering_walk(all_roles)?.into_iter().map(unpack_action));
        let rounds = movement_rounds(&schedule);
        Some(ExploreVerdict::Refuted { schedule, outcome: Outcome::StepLimit { rounds } })
    }
}

/// Phase D's decision on one cyclic SCC, before any schedule is
/// stitched ([`fair_pump`]).
pub(crate) enum Pump<'e> {
    /// The product reachable from `(member 0, identity)` covers every
    /// role without ε-edges: a fair pump exists, and the product
    /// stitches it into a lasso.
    Fair(Product<'e>),
    /// No fair schedule can stay inside the SCC forever.
    NoFairCycle,
    /// The product outgrew its caps, `expired` fired, or coverage held
    /// only through stabilizer relabelings.
    Undecided,
}

/// Phase D on one cyclic SCC, given as its members' certified internal
/// edges (`edges[i]`: member `i`'s edges to other members, in
/// exploration order) and, built only when Pass 1 finds no coverage, the
/// members' stabilizer slot permutations (`eps`). The per-class search
/// and the cell walk both decide their SCCs here, on the same product.
///
/// Pass 1 sweeps the product over edge permutations only: coverage there
/// stitches into a concrete (deduped-action-free) refutation schedule.
/// Pass 2 widens it with the stabilizer ε-edges before claiming that no
/// fair pump exists; when no member has a nontrivial stabilizer the
/// products coincide and the sweep is skipped. Coverage only in Pass 2
/// means a fair pump exists up to symmetry, but its concrete schedule
/// would use actions the dedup skipped: an honest undecided rather than
/// an unreplayable refutation.
///
/// The verdict does not depend on which member is `edges[0]` (DESIGN.md
/// §19): the product reachable from another entry is a role relabeling
/// of this one, of the same size.
pub(crate) fn fair_pump<'e>(
    edges: &'e [Vec<ProductEdge>],
    eps: impl FnOnce() -> Vec<Vec<[u8; PackedClass::MAX_ROBOTS]>>,
    n: usize,
    expired: impl Fn() -> bool,
) -> Pump<'e> {
    let all_roles: u16 = (1u16 << n) - 1;
    let mut product = Product::new(edges, None, n);
    match product.sweep(all_roles, &expired) {
        None => return Pump::Undecided,
        Some(true) => return Pump::Fair(product),
        Some(false) => {}
    }
    let eps = eps();
    if eps.iter().all(Vec::is_empty) {
        return Pump::NoFairCycle;
    }
    match Product::new(edges, Some(&eps), n).sweep(all_roles, expired) {
        Some(false) => Pump::NoFairCycle,
        Some(true) | None => Pump::Undecided,
    }
}

/// One SCC-internal edge of the base graph, annotated with its
/// certificate (slot-indexed at the source state).
pub(crate) struct ProductEdge {
    /// The action, packed like [`PackedEdge::action`].
    pub(crate) action: u32,
    /// Successor, as an index into the SCC member list.
    pub(crate) to: u32,
    /// The edge's permutation and fairness flags.
    pub(crate) cert: EdgeCert,
}

/// Identity slot → role assignment, nibble-packed (role `s` at slot
/// `s`; [`PackedClass::MAX_ROBOTS`] ≤ 16 keeps every assignment in one
/// `u64`).
fn identity_assign(n: usize) -> u64 {
    let mut assign = 0u64;
    for s in 0..n {
        assign |= (s as u64) << (4 * s);
    }
    assign
}

/// Pushes a nibble-packed assignment through a slot permutation: the
/// role at source slot `s` lands at slot `perm[s]`.
fn permute_assign(assign: u64, perm: &[u8]) -> u64 {
    let mut out = 0u64;
    for (s, &p) in perm.iter().enumerate() {
        let role = (assign >> (4 * s)) & 0xF;
        out |= role << (4 * u64::from(p));
    }
    out
}

/// The roles currently occupying the flagged slots.
fn flagged_roles(assign: u64, flags: u16, n: usize) -> u16 {
    let mut roles = 0u16;
    for s in 0..n {
        if flags & (1 << s) != 0 {
            roles |= 1 << ((assign >> (4 * s)) & 0xF);
        }
    }
    roles
}

/// A product arc: `(target product node, packed action, covered-role
/// mask)`.
type ProductArc = (u32, u32, u16);

/// The role-tracking product automaton of one cyclic SCC. Nodes are
/// `(scc index, slot → role assignment)` pairs; the root
/// `(0, identity)` is node 0 and ids follow first discovery. Nodes are
/// expanded lazily — on the first visit by [`Product::sweep`] or a
/// stitch leg ([`Product::path`]) — and a node's arcs are a pure
/// function of its pair: the SCC edges in exploration order, then the
/// ε-edges. Any walk over the product therefore depends only on the
/// explored graph, never on how much of the product was expanded
/// before it, which is why stopping the sweep early leaves every
/// stitched lasso unchanged.
pub(crate) struct Product<'e> {
    /// Certified SCC-internal edges, per SCC member.
    edges: &'e [Vec<ProductEdge>],
    /// Stabilizer slot permutations per SCC member, folded in as
    /// flag-free ε-edges (Pass 2 only).
    eps: Option<&'e [Vec<[u8; PackedClass::MAX_ROBOTS]>]>,
    /// Robot count.
    n: usize,
    /// Packed `(scc index, assignment)` → node id.
    id_of: PackedKeyMap<u32>,
    /// `(scc index, assignment)` of each node, by id.
    nodes: Vec<(u32, u64)>,
    /// Each expanded node's range of `arcs`.
    span: Vec<Option<(u32, u32)>>,
    /// Arc pool: an expanded node's arcs are contiguous.
    arcs: Vec<ProductArc>,
}

impl<'e> Product<'e> {
    /// Node cap. Both caps are a backstop, not a working budget: the
    /// searches that reach Phase D hold a few hundred states, and
    /// reachable assignment groups are tiny in practice.
    const NODE_CAP: usize = 1 << 18;
    /// Arc cap over every expanded node.
    const ARC_CAP: usize = 1 << 22;

    /// The product of an SCC over `n` robots: just the root.
    fn new(
        edges: &'e [Vec<ProductEdge>],
        eps: Option<&'e [Vec<[u8; PackedClass::MAX_ROBOTS]>]>,
        n: usize,
    ) -> Self {
        let mut product = Product {
            edges,
            eps,
            n,
            id_of: PackedKeyMap::default(),
            nodes: Vec::new(),
            span: Vec::new(),
            arcs: Vec::new(),
        };
        product.node(0, identity_assign(n));
        product
    }

    /// The id of node `(sidx, assign)`, interned on first sight; `None`
    /// once the product outgrows [`Self::NODE_CAP`].
    fn node(&mut self, sidx: u32, assign: u64) -> Option<u32> {
        let next = self.nodes.len() as u32;
        let id = *self.id_of.entry(u128::from(sidx) << 64 | u128::from(assign)).or_insert(next);
        if id == next {
            if self.nodes.len() >= Self::NODE_CAP {
                return None;
            }
            self.nodes.push((sidx, assign));
            self.span.push(None);
        }
        Some(id)
    }

    /// The arcs of node `id`, as a range of the arc pool, expanding the
    /// node on its first visit; `None` once the product outgrows its
    /// caps.
    fn expand(&mut self, id: u32) -> Option<std::ops::Range<usize>> {
        if let Some((lo, hi)) = self.span[id as usize] {
            return Some(lo as usize..hi as usize);
        }
        let (sidx, assign) = self.nodes[id as usize];
        let (edges, n) = (self.edges, self.n);
        let lo = self.arcs.len();
        for e in &edges[sidx as usize] {
            let to = self.node(e.to, permute_assign(assign, &e.cert.perm[..n]))?;
            self.arcs.push((to, e.action, flagged_roles(assign, e.cert.flags, n)));
        }
        if let Some(eps) = self.eps {
            for tau in &eps[sidx as usize] {
                let to = self.node(sidx, permute_assign(assign, &tau[..n]))?;
                self.arcs.push((to, 0, 0));
            }
        }
        if self.arcs.len() > Self::ARC_CAP {
            return None;
        }
        self.span[id as usize] = Some((lo as u32, self.arcs.len() as u32));
        Some(lo..self.arcs.len())
    }

    /// Expands nodes in id order — breadth-first from the root — until
    /// the covered-role masks of the arcs seen so far make up
    /// `all_roles` (`Some(true)`), or every reachable node is expanded
    /// without that (`Some(false)`). `None` when the product outgrows
    /// its caps or `expired` reports a passed deadline; the caller
    /// re-polls the clock to tell the two apart.
    fn sweep(&mut self, all_roles: u16, expired: impl Fn() -> bool) -> Option<bool> {
        let mut covered = 0u16;
        let mut head = 0;
        while head < self.nodes.len() {
            if expired() {
                return None;
            }
            for k in self.expand(head as u32)? {
                covered |= self.arcs[k].2;
            }
            if covered == all_roles {
                return Some(true);
            }
            head += 1;
        }
        Some(false)
    }

    /// Deterministic BFS from node `from` to the first arc satisfying
    /// `pred` (checked in discovery order), expanding nodes as it
    /// reaches them; returns the arc sequence ending with that arc, or
    /// `None` when the product outgrows its caps first.
    fn path(&mut self, from: u32, pred: impl Fn(&ProductArc) -> bool) -> Option<Vec<ProductArc>> {
        let mut parent: Vec<Option<(u32, ProductArc)>> = Vec::new();
        let mut queue: VecDeque<u32> = VecDeque::from([from]);
        while let Some(p) = queue.pop_front() {
            let arcs = self.expand(p)?;
            parent.resize(self.nodes.len(), None);
            for k in arcs {
                let arc = self.arcs[k];
                if pred(&arc) {
                    let mut path = vec![arc];
                    let mut cur = p;
                    while cur != from {
                        let (prev, pe) = parent[cur as usize].expect("BFS parent chain is rooted");
                        path.push(pe);
                        cur = prev;
                    }
                    path.reverse();
                    return Some(path);
                }
                let to = arc.0;
                if to != from && parent[to as usize].is_none() {
                    parent[to as usize] = Some((p, arc));
                    queue.push_back(to);
                }
            }
        }
        debug_assert!(false, "full product coverage must stitch a lasso");
        None
    }

    /// A closed walk from the root that traverses, for every role in
    /// `all_roles`, some arc covering it: shortest legs ([`Self::path`])
    /// to the nearest arc covering a still-needed role, then back to
    /// the root. Returns the walk's packed actions, or `None` when the
    /// legs grow the product past its caps.
    fn covering_walk(&mut self, all_roles: u16) -> Option<Vec<u32>> {
        let mut actions = Vec::new();
        let mut need = all_roles;
        let mut cur: u32 = 0;
        while need != 0 {
            for (to, action, roles) in self.path(cur, |&(_, _, roles)| roles & need != 0)? {
                actions.push(action);
                need &= !roles;
                cur = to;
            }
        }
        if cur != 0 {
            actions.extend(self.path(cur, |&(to, _, _)| to == 0)?.into_iter().map(|arc| arc.1));
        }
        Some(actions)
    }
}

/// The next crash set after `cur` that a budget of `avail` more crashes
/// affords: the next submask of `live` in ascending order whose weight
/// is at most `avail`, or `0` once the enumeration wraps. Starting from
/// `0`, it yields exactly the affordable submasks that an ascending
/// scan of every submask would keep, in the same order, without
/// visiting the overweight ones.
fn next_affordable(cur: u16, live: u16, avail: u32) -> u16 {
    if avail == 0 {
        return 0; // the empty set, already visited first, is the only one
    }
    let mut next = engine::next_submask(cur, live);
    while next.count_ones() > avail {
        // Every submask between `next` and `next` plus its lowest bit
        // (counting over `live`'s bits only) keeps all of `next`'s bits
        // and so weighs as much: add the lowest bit, carrying through
        // the positions outside `live`, to skip them all.
        next = ((next | !live).wrapping_add(next & next.wrapping_neg())) & live;
    }
    next
}

/// Where one adversary action of a state leads
/// ([`Semantics::actions`]). A colliding or disconnecting action is
/// *bad*: reaching it refutes. So is an action into a stuck state, a
/// property of the successor state itself ([`Semantics::classify`]):
/// the search learns it when it interns the state, the cell walk when
/// it visits it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Target<Aux> {
    /// The successor state `(class id, aux)`. Crash injection-only
    /// actions lead to a terminal one, of their own class.
    Succ(u32, Aux),
    /// The action collides.
    Collides,
    /// The action disconnects the swarm.
    Disconnects,
}

impl RoundStep {
    /// Where this step leads after the crash set `after`: crashed robots
    /// never move, so their slot bits follow them into the successor's
    /// order.
    fn target(self, after: u16) -> Target<u16> {
        match self.kind {
            engine::RoundKind::Collides => Target::Collides,
            engine::RoundKind::Disconnects => Target::Disconnects,
            engine::RoundKind::Succ => {
                let mut aux = 0u16;
                let mut bits = after;
                while bits != 0 {
                    aux |= 1 << self.slot(bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
                Target::Succ(self.succ, aux)
            }
        }
    }
}

impl Semantics for CrashSemantics {
    type Aux = u16;
    type Entry = RoundStep;

    fn root_aux(&self) -> u16 {
        0
    }

    fn permute_aux(aux: u16, _n: usize, map: impl Fn(usize) -> usize, _sym: PointSymmetry) -> u16 {
        let mut mapped = 0u16;
        for i in 0..MASK_ROBOTS {
            if aux & (1 << i) != 0 {
                mapped |= 1 << map(i);
            }
        }
        mapped
    }

    /// Sets bit `rank(m)` for each terminal mask `m` — a superset of
    /// the movers within the budget — whose state is a goal.
    fn goal_bits(&self, cfg: &Configuration, info: &ClassInfo) -> u64 {
        let Some(avail) = u32::from(self.budget).checked_sub(info.movers.count_ones()) else {
            return 0; // the budget cannot freeze every mover
        };
        let free = ((1u16 << cfg.len()) - 1) & !info.movers;
        let mut bits = 0u64;
        let mut extra = 0u16;
        loop {
            let crashed = info.movers | extra;
            let rank = self.rank(crashed);
            if rank < 64 && (self.goal)(cfg, crashed) {
                bits |= 1 << rank;
            }
            extra = next_affordable(extra, free, avail);
            if extra == 0 {
                return bits;
            }
        }
    }

    fn classify(&self, node: &ClassNode, crashed: u16) -> NodeKind {
        if node.info.movers & !crashed != 0 {
            return NodeKind::Inner;
        }
        let rank = self.rank(crashed);
        let goal =
            if rank < 64 { node.goal_bit(rank) } else { (self.goal)(&node.key.unpack(), crashed) };
        if goal {
            NodeKind::Goal
        } else {
            NodeKind::Stuck
        }
    }

    /// R(n, f) = Σ_{k ≤ f} C(n, k): one slot per affordable crash mask.
    fn width(&self, n: usize) -> usize {
        usize::from(self.rank[1 << n])
    }

    fn rank(&self, crashed: u16) -> usize {
        usize::from(self.rank[usize::from(crashed)])
    }

    /// The one expansion order that the per-class search and the cell
    /// walk share (DESIGN.md §19): affordable crash
    /// sets of the live robots ascending; within each, the class's
    /// round-table steps that spare every crashed robot (the nonzero
    /// submasks of the surviving movers, ascending), or the injection
    /// alone when it leaves no live mover.
    fn actions<A: Algorithm + ?Sized>(
        &self,
        explorer: &Explorer<'_, A, Self>,
        id: u32,
        crashed: u16,
        mut visit: impl FnMut(CrashRound, Target<u16>) -> bool,
    ) -> usize {
        let node = explorer.table.node(id);
        let steps = explorer.round_steps(id);
        let perms = explorer.stabilizer_perms(node.key, crashed);
        let live = ((1u16 << node.info.robots()) - 1) & !crashed;
        let avail = u32::from(self.budget.saturating_sub(crashed.count_ones() as u8));
        let mut deduped = 0;
        let mut crash: u16 = 0;
        loop {
            let after = crashed | crash;
            // The injection froze every remaining mover: a single
            // injection-only action to a terminal variant of this class.
            // `crash` is nonzero then — an inner state has a live mover.
            let frozen = node.info.movers & !after == 0;
            let mut next = 0;
            loop {
                // One call site for `visit`, so that it inlines.
                let (action, target) = if frozen {
                    if next > 0 {
                        break;
                    }
                    next = 1;
                    (CrashRound { crash, activate: 0 }, Target::Succ(id, after))
                } else {
                    let Some(&step) = steps.get(next) else { break };
                    next += 1;
                    if step.mask & after != 0 {
                        continue;
                    }
                    let action = CrashRound { crash, activate: step.mask };
                    (action, step.target(after))
                };
                if canonical_action(action, &perms) != action {
                    deduped += 1;
                } else if !visit(action, target) {
                    return deduped;
                }
            }
            crash = next_affordable(crash, live, avail);
            if crash == 0 {
                return deduped;
            }
        }
    }

    fn collision<A: Algorithm + ?Sized>(
        &self,
        explorer: &Explorer<'_, A, Self>,
        id: u32,
        _crashed: u16,
        action: CrashRound,
    ) -> engine::RoundCollision {
        let node = explorer.table.node(id);
        let cfg = node.key.unpack();
        let masked = engine::mask_moves(&node.info.moves, action.activate);
        engine::check_moves(&cfg, &masked[..cfg.len()])
            .expect_err("the round table records a collision")
    }

    /// The activated movers step, and a slot is flagged when its robot
    /// moves, decides to stay (a free activation), or is crashed —
    /// crashed robots are exempt from fairness, so never activating
    /// them is legitimate.
    fn cert(node: &ClassNode, crashed: u16, action: CrashRound, to: PackedClass) -> EdgeCert {
        debug_assert_eq!(action.crash, 0, "cycles never cross a crash level");
        let moves = node.info.moves;
        edge_cert(node.key, to, |pos| {
            let mut flags = crashed;
            for (slot, p) in pos.iter_mut().enumerate() {
                match moves[slot] {
                    None => flags |= 1 << slot,
                    Some(dir) if action.activate & (1 << slot) != 0 => {
                        *p = p.step(dir);
                        flags |= 1 << slot;
                    }
                    Some(_) => {}
                }
            }
            flags
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FnAlgorithm, StayAlgorithm};
    use trigrid::ORIGIN;

    fn fsync_goal(cfg: &Configuration, _crashed: u16) -> bool {
        cfg.is_gathered()
    }

    /// A crash-semantics explorer with crash budget `budget`, the
    /// paper's gathering goal and the fault-free budgets.
    fn crash_explorer<A: Algorithm>(algo: &A, budget: u8) -> Explorer<'_, A> {
        Explorer::new(algo, ExploreOptions::default(), CrashSemantics::new(budget, fsync_goal), 8)
    }

    fn cfg(cells: &[(i32, i32)]) -> Configuration {
        Configuration::new(cells.iter().map(|&(x, y)| Coord::new(x, y)))
    }

    #[test]
    fn budget_zero_has_no_crash_actions() {
        let march = FnAlgorithm::new(1, "march", |_: &View| Some(Dir::E));
        let explorer = crash_explorer(&march, 0);
        let report = explorer.check(&cfg(&[(0, 0), (2, 0)]));
        let ExploreVerdict::Refuted { schedule, .. } = &report.verdict else {
            panic!("two marchers refute under SSYNC: {:?}", report.verdict);
        };
        assert!(schedule.iter().all(|a| a.crash == 0), "budget 0 must never inject");
    }

    #[test]
    fn crash_budget_preserves_a_stay_proof() {
        // StayAlgorithm on the hexagon has no mover anywhere, so the
        // crash budget gives the adversary nothing to exploit: the
        // gathered terminal stays a proof. (That a nonzero budget can
        // flip a budget-0 proof into a refutation is pinned at scale
        // by the crash golden files: 1869 adversary-proof classes vs
        // 11 crash-proof ones.)
        let h = crate::config::hexagon(ORIGIN);
        let explorer = crash_explorer(&StayAlgorithm, 1);
        assert_eq!(explorer.check(&h).verdict, ExploreVerdict::Proof);
    }

    #[test]
    fn injection_freezes_the_lone_mover() {
        // One robot marches east towards its idle neighbour's far side;
        // crashing the mover parks the pair two apart forever: a stuck
        // refutation reachable only through a crash injection.
        let march = FnAlgorithm::new(1, "march-if-clear", |v: &View| {
            (!v.neighbor(Dir::E)).then_some(Dir::E)
        });
        let two = cfg(&[(0, 0), (2, 0)]);
        let zero = crash_explorer(&march, 0);
        let one = crash_explorer(&march, 1);
        // Without crashes the east robot disconnects the pair.
        assert!(matches!(
            zero.check(&two).verdict,
            ExploreVerdict::Refuted { outcome: Outcome::Disconnected { .. }, .. }
        ));
        // With one crash the minimal refutation is still 1 action, and
        // budget 1 explores at least as much as budget 0.
        let report = one.check(&two);
        assert!(matches!(report.verdict, ExploreVerdict::Refuted { .. }));
        assert!(report.edges >= zero.check(&two).edges);
    }

    #[test]
    fn movement_rounds_skip_injection_only_actions() {
        let schedule = [
            CrashRound { crash: 0b01, activate: 0 },
            CrashRound { crash: 0, activate: 0b10 },
            CrashRound { crash: 0b10, activate: 0b100 },
        ];
        assert_eq!(movement_rounds(&schedule), 2);
    }

    #[test]
    fn affordable_crash_sets_are_the_light_submasks_ascending() {
        for live in 0u16..1 << 10 {
            for avail in 0..=3u32 {
                let mut sets = vec![0u16];
                let mut crash = next_affordable(0, live, avail);
                while crash != 0 {
                    sets.push(crash);
                    crash = next_affordable(crash, live, avail);
                }
                let want: Vec<u16> =
                    (0..=live).filter(|m| m & !live == 0 && m.count_ones() <= avail).collect();
                assert_eq!(sets, want, "live={live:#b} avail={avail}");
            }
        }
    }

    #[test]
    fn crash_mask_ranks_are_dense_slots_per_class() {
        for budget in 0..=3u8 {
            let semantics = CrashSemantics::new(budget, fsync_goal);
            for n in 1..=PackedClass::MAX_ROBOTS {
                let affordable: Vec<u16> =
                    (0..1u16 << n).filter(|m| m.count_ones() <= u32::from(budget)).collect();
                let ranks: Vec<usize> = affordable.iter().map(|&m| semantics.rank(m)).collect();
                assert_eq!(ranks, (0..affordable.len()).collect::<Vec<_>>(), "f={budget} n={n}");
                assert_eq!(
                    usize::from(semantics.rank[1 << n]),
                    affordable.len(),
                    "R({n}, {budget})"
                );
            }
        }
        assert_eq!(CrashSemantics::new(1, fsync_goal).rank[1 << 8], 9);
        assert_eq!(CrashSemantics::new(2, fsync_goal).rank[1 << 8], 37);
    }

    #[test]
    fn cached_goal_bits_classify_like_the_goal_predicate() {
        // Budget 3 over eight robots affords R(8, 3) = 93 crash masks,
        // so terminal masks rank past the 64 cached goal bits as well.
        let goal: Goal = |_, crashed| crashed % 3 == 0;
        let semantics = CrashSemantics::new(3, goal);
        let line = cfg(&[(0, 0), (2, 0), (4, 0), (6, 0), (8, 0), (10, 0), (12, 0), (14, 0)]);
        let march = FnAlgorithm::new(1, "march-if-clear", |v: &View| {
            (!v.neighbor(Dir::E)).then_some(Dir::E)
        });
        let stay_info = ClassInfo::of(&engine::compute_moves(&line, &StayAlgorithm));
        let march_info = ClassInfo::of(&engine::compute_moves(&line, &march));
        assert_eq!(march_info.movers, 1 << 7, "only the east end moves");
        for info in [stay_info, march_info] {
            let goals = semantics.goal_bits(&line, &info);
            let node = ClassNode { key: line.canonical_key(), info, goals };
            for crashed in (0..1u16 << 8).filter(|m| m.count_ones() <= 3) {
                let want = if info.movers & !crashed != 0 {
                    NodeKind::Inner
                } else if goal(&line, crashed) {
                    NodeKind::Goal
                } else {
                    NodeKind::Stuck
                };
                assert_eq!(semantics.classify(&node, crashed), want, "crashed={crashed:#b}");
            }
        }
    }

    #[test]
    fn canonical_action_orders_by_crash_then_activation() {
        let swap = vec![1usize, 0];
        let action = CrashRound { crash: 0b10, activate: 0b01 };
        let canon = canonical_action(action, std::slice::from_ref(&swap));
        assert_eq!(canon, CrashRound { crash: 0b01, activate: 0b10 });
    }

    /// A hand-built three-robot SCC: per member, its edges as
    /// `(target member, slot permutation, flagged slots)`. Each edge's
    /// action is `member << 8 | position`, so walks are comparable.
    fn scc_edges(spec: &[&[(u32, [u8; 3], u16)]]) -> Vec<Vec<ProductEdge>> {
        spec.iter()
            .enumerate()
            .map(|(member, edges)| {
                edges
                    .iter()
                    .enumerate()
                    .map(|(k, &(to, p, flags))| {
                        let mut perm = [0u8; PackedClass::MAX_ROBOTS];
                        perm[..3].copy_from_slice(&p);
                        let action = (member << 8 | k) as u32;
                        ProductEdge { action, to, cert: EdgeCert { perm, flags } }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn early_exit_and_lazy_legs_stitch_the_eager_walk() {
        // Slot 0's robot moves on 0 → 1, which swaps slots 0 and 1;
        // 1 → 0 serves slot 1; 2 → 0 serves slot 2 and swaps slots 1
        // and 2. Covering all three robots needs several laps.
        let edges = scc_edges(&[
            &[(1, [1, 0, 2], 0b001)],
            &[(2, [0, 1, 2], 0), (0, [0, 1, 2], 0b010)],
            &[(0, [0, 2, 1], 0b100)],
        ]);
        let all = 0b111;
        let mut lazy = Product::new(&edges, None, 3);
        assert_eq!(lazy.sweep(all, || false), Some(true));
        // A mask the arcs can never cover sweeps the whole product first.
        let mut eager = Product::new(&edges, None, 3);
        assert_eq!(eager.sweep(u16::MAX, || false), Some(false));
        assert!(lazy.span.iter().flatten().count() < eager.span.iter().flatten().count());
        let walk = lazy.covering_walk(all).expect("covered products stitch");
        assert_eq!(Some(&walk), eager.covering_walk(all).as_ref());

        // Replayed over the SCC, the walk is closed, returns every
        // robot to its slot, and serves each robot at least once.
        let (mut member, mut assign, mut served) = (0u32, identity_assign(3), 0u16);
        for action in walk {
            let edge = edges[member as usize].iter().find(|e| e.action == action).expect("an edge");
            served |= flagged_roles(assign, edge.cert.flags, 3);
            assign = permute_assign(assign, &edge.cert.perm[..3]);
            member = edge.to;
        }
        assert_eq!((member, assign, served), (0, identity_assign(3), all));
    }

    /// `edges` and `eps` re-indexed so that member `entry` comes first.
    fn rotate(
        edges: &[Vec<ProductEdge>],
        eps: &[Vec<[u8; PackedClass::MAX_ROBOTS]>],
        entry: usize,
    ) -> (Vec<Vec<ProductEdge>>, Vec<Vec<[u8; PackedClass::MAX_ROBOTS]>>) {
        let m = edges.len();
        let old = |new: usize| (new + entry) % m;
        let edges = (0..m)
            .map(|i| {
                let to = |t: u32| ((t as usize + m - entry) % m) as u32;
                edges[old(i)]
                    .iter()
                    .map(|e| ProductEdge { action: e.action, to: to(e.to), cert: e.cert })
                    .collect()
            })
            .collect();
        (edges, (0..m).map(|i| eps[old(i)].clone()).collect())
    }

    #[test]
    fn phase_d_verdicts_do_not_depend_on_the_entry_member() {
        // The product reachable from another entry is a role relabeling
        // of the one from member 0, of the same size: the sweep's verdict
        // and, when it exhausts the product, the product's size agree
        // from every entry, with and without ε-edges.
        let swap02 = {
            let mut p = [0u8; PackedClass::MAX_ROBOTS];
            p[..3].copy_from_slice(&[2, 1, 0]);
            p
        };
        let cases = [
            (
                scc_edges(&[
                    &[(1, [1, 0, 2], 0b001)],
                    &[(2, [0, 1, 2], 0), (0, [0, 1, 2], 0b010)],
                    &[(0, [0, 2, 1], 0b100)],
                ]),
                vec![Vec::new(), vec![swap02], Vec::new()],
            ),
            // Robot 2 is never served, unless a stabilizer relabels it
            // into slot 0.
            (
                scc_edges(&[&[(1, [0, 1, 2], 0b001)], &[(0, [0, 1, 2], 0b010)]]),
                vec![vec![swap02], Vec::new()],
            ),
        ];
        for (edges, eps) in &cases {
            for all in [0b111, 0b011, u16::MAX] {
                for with_eps in [false, true] {
                    let sweep = |edges: &[Vec<ProductEdge>], eps: &[Vec<_>]| {
                        let mut product = Product::new(edges, with_eps.then_some(eps), 3);
                        let verdict = product.sweep(all, || false);
                        (verdict, (verdict == Some(false)).then_some(product.nodes.len()))
                    };
                    let base = sweep(edges, eps);
                    for entry in 1..edges.len() {
                        let (edges, eps) = rotate(edges, eps, entry);
                        assert_eq!(sweep(&edges, &eps), base, "entry {entry}, roles {all:#b}");
                    }
                }
            }
        }
        // The second SCC covers every role only through its ε-edge.
        let (edges, eps) = &cases[1];
        assert_eq!(Product::new(edges, None, 3).sweep(0b111, || false), Some(false));
        assert_eq!(Product::new(edges, Some(eps), 3).sweep(0b111, || false), Some(true));
    }

    #[test]
    fn class_slots_hold_a_node_and_one_table() {
        // The table grows by one slot per class a cell reaches, so its
        // size is resident memory: a node and one boxed table, nothing
        // per semantics beyond that.
        assert_eq!(size_of::<ClassSlot<RoundStep>>(), 96);
        assert_eq!(size_of::<ClassSlot<std::sync::atomic::AtomicU32>>(), 96);
    }

    #[test]
    fn crash_aux_permutes_as_a_slot_mask() {
        // 3-cycle 0→1→2→0 on a 3-robot mask; the symmetry itself is
        // irrelevant to a direction-free mask.
        let mapped = CrashSemantics::permute_aux(0b011, 3, |i| (i + 1) % 3, PointSymmetry::Rot(2));
        assert_eq!(mapped, 0b110);
    }
}
