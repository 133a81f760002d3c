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
//!    behind the [`Semantics`] trait — a semantics defines the per-state
//!    adversary actions, the successor function, and the packed
//!    auxiliary key stored alongside the translation class (a crash
//!    mask for [`CrashSemantics`]; a per-robot pending-move vector for
//!    the ASYNC model's
//!    [`AsyncSemantics`](crate::async_model::AsyncSemantics)).
//!
//! The search machinery is shared by every semantics:
//!
//! * Phase A — BFS to the first bad terminal (a minimal refutation);
//! * Phase B — packed quotient acyclicity (a proof);
//! * Phase D — the complete fair-cycle decision on a role-tracking
//!   product automaton per cyclic SCC (a stitched lasso refutation or
//!   a proof, DESIGN.md §15);
//!
//! plus stabilizer-subset dedup throughout. Only expansion, terminal
//! classification and the per-edge fairness certificate
//! ([`Semantics::traverse`]) are instantiation-specific. (There is no
//! Phase C: the letters match the telemetry counters
//! `explore.phase_{a,b,d}_ns`.)
//!
//! The SSYNC adversary checker is the crash semantics with budget **0**
//! and goal `Configuration::is_gathered` — every crash branch below is
//! statically dead in that instantiation, so [`crate::adversary`]
//! produces byte-identical verdicts through this core. The crash-fault
//! checker ([`crate::faults`]) is the same semantics with budget `f`
//! and the relaxed gathering goal. The ASYNC checker
//! ([`crate::async_model`]) swaps in single-robot phase-advance actions
//! over pending-move auxiliary state.
//!
//! Soundness of the exploration (acyclicity ⇒ proof, fair cycle ⇒
//! refutation, stabilizer dedup) is argued in DESIGN.md §7 for the
//! fault-free system, extended to crash faults in DESIGN.md §10 and to
//! the ASYNC discretisation in DESIGN.md §13; the key facts used here
//! for the crash semantics are:
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
//! # Packed-state core
//!
//! The exploration substrate is built for mechanical sympathy
//! (DESIGN.md §11): translation classes are interned through a
//! [`ClassArena`] keyed by the lossless bit-packed
//! [`PackedClass`] `u128` form (one hash of 16
//! bytes per revisit, the decoded representative stored once per
//! class), per-class decision vectors (and, for the crash semantics,
//! round tables) are computed once per distinct class per checker and
//! fetched from its one class cache once per class per search, and
//! expansion, stabilizer tests and quotient orbit keys all work in
//! fixed stack buffers. A round table ([`engine::RoundTable`]) steps
//! each of its class's activation subsets once through the scalar
//! engine, so a crash-semantics expansion reads every edge — collision,
//! disconnection, or successor key and slot map — instead of
//! re-deriving it per state. A search runs on the thread that called
//! [`Explorer::check`]; the only parallelism is the caller's, across
//! classes, sharing one explorer. The auxiliary key rides along packed
//! too: the per-state aux ([`Semantics::Aux`]) is a `Copy` bit-packed
//! value whose raw bits fold into the quotient orbit keys.
//! None of this is observable in verdicts or exploration statistics —
//! the adversary and crash golden files pin byte-identical output.

use crate::config::PackedClass;
use crate::engine::{self, Outcome};
use crate::sched::CrashRound;
use crate::visited::{ClassArena, PackedKeyMap};
use crate::{view, Algorithm, Configuration, View};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
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
    /// Budgets sized for crash instantiations: each crash placement
    /// opens its own copy of the class graph, so the state and edge
    /// caps are an order of magnitude above the fault-free defaults.
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

/// Per-class data computed once when a translation class is first
/// interned: the full decision vector (a pure function of the class —
/// auxiliary state never changes what a robot *would* decide from a
/// fresh Look) in a fixed `Copy` array, so expansion never clones a
/// `Vec`.
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

/// One entry of the explorer's class cache: decision data, the shared
/// canonical representative, and the round table of semantics that
/// expand through one ([`Semantics::ROUND_TABLE`]).
type ClassEntry =
    (ClassInfo, std::sync::Arc<Configuration>, Option<std::sync::Arc<engine::RoundTable>>);

impl ClassInfo {
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

/// One expansion step of an inner state, produced without touching the
/// search — the *pure* half of a crash-semantics expansion. The
/// enumeration reads the state's round table, which lives in the
/// search, so it collects a state's steps first and
/// [`Search::apply_step`] then applies them in order.
pub(crate) enum PureStep<Aux> {
    /// The action is not the minimal representative of its stabilizer
    /// orbit: skipped, counted as deduped.
    Dedup,
    /// The activation collides; the scalar engine's exact collision
    /// report rides along for the refutation outcome.
    Collide(engine::RoundCollision),
    /// The successor configuration disconnects: refutation (after the
    /// edge is counted, matching the serial order).
    Disconnect,
    /// An aux-only successor at the *same* class and round count — a
    /// crash injection that froze every remaining mover.
    Variant(Aux),
    /// A movement successor: the packed canonical class key plus the
    /// aux re-expressed over the successor's row-major slots.
    Succ(PackedClass, Aux),
}

/// A **semantics** of the exploration layer: what a state's auxiliary
/// key is (packed alongside the interned translation class), which
/// adversary actions a state offers, what their successors are, and
/// which robots one edge moves and serves fairly (the certificate the
/// Phase D product consumes).
///
/// Implementations in this crate: [`CrashSemantics`] (SSYNC activation
/// subsets plus permanent crash injections — the budget-0 case is the
/// plain SSYNC adversary) and
/// [`AsyncSemantics`](crate::async_model::AsyncSemantics) (single-robot
/// LCM phase advances over pending-move state). The trait is public so
/// the instantiations can live next to their models, but its surface is
/// an internal extension point of this crate: [`Search`]'s mutation
/// methods are crate-private, so foreign implementations cannot drive a
/// search.
pub trait Semantics: Sync + Sized {
    /// The packed per-state auxiliary key stored alongside the class
    /// id. Key equality must coincide with auxiliary-state equality
    /// (the packing is lossless), exactly as
    /// [`PackedClass`] equality coincides with
    /// translation-class equality.
    type Aux: Copy + Eq + std::fmt::Debug + Send + Sync;

    /// The auxiliary key of an initial state (nothing crashed, every
    /// robot idle).
    fn root_aux(&self) -> Self::Aux;

    /// The raw bits of an aux key, folded into packed quotient orbit
    /// keys. Must be injective and monotone in the key's identity —
    /// i.e. a plain re-encoding of `Aux`'s `Eq`.
    fn aux_bits(aux: Self::Aux) -> u32;

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

    /// Classifies a freshly interned state `(cfg's class, aux)`:
    /// [`NodeKind::Inner`] when adversary actions remain, otherwise
    /// goal or stuck.
    fn classify(&self, cfg: &Configuration, info: &ClassInfo, aux: Self::Aux) -> NodeKind;

    /// Whether expansion reads each class's [`engine::RoundTable`]. The
    /// explorer's class cache then builds the table once per distinct
    /// class and carries it with the class's decision data; semantics
    /// that never read it pay no table memory.
    const ROUND_TABLE: bool = false;

    /// Expands every adversary action of inner state `id`, interning
    /// successors and pushing newly discovered inner states onto
    /// `queue`. Returns a verdict as soon as a bad terminal is reached
    /// or a search budget is exhausted.
    fn expand<A: Algorithm + ?Sized>(
        &self,
        search: &mut Search<'_, '_, A, Self>,
        id: usize,
        queue: &mut Vec<u32>,
    ) -> Option<ExploreVerdict>;

    /// Concretely traverses the explored edge `from --action--> to`
    /// once and returns its certificate: where each robot lands and
    /// which robots satisfy fairness on the edge. Implementations
    /// build it through `Search::traverse_roles`.
    fn traverse<A: Algorithm + ?Sized>(
        &self,
        search: &Search<'_, '_, A, Self>,
        from: usize,
        action: CrashRound,
        to: usize,
    ) -> EdgeCert;
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
        CrashSemantics { budget, goal }
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
    /// The translation class, as a dense [`ClassArena`] id; the
    /// canonical representative and decision vector are stored once
    /// per class, not per aux variant.
    class: Vec<u32>,
    /// The packed auxiliary key (crash mask / pending vector) over the
    /// class's position slots.
    aux: Vec<Aux>,
    /// Rounds from the initial state, in the semantics' own bookkeeping
    /// (movement rounds for crash — injection-only actions do not
    /// count; phase-advance ticks for ASYNC). This is what replay
    /// outcomes report. `u32`: BFS depth is bounded by the state count,
    /// which the arena caps far below `2^32`.
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
    /// Occupied bytes per state — the struct-of-arrays sum, a compile
    /// time constant used by the deterministic budget accounting.
    const BYTES_PER_STATE: usize = 6 * size_of::<u32>() + size_of::<Aux>() + size_of::<NodeKind>();

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

/// Sentinel "end of chain" index of the aux-variant chain pool.
const NO_VARIANT: u32 = u32::MAX;

/// One link of a per-class aux-variant chain: the aux key, the state
/// id it interned to, and the next link (newest first). Replaces the
/// former `Vec<Vec<(Aux, usize)>>` — one flat pool instead of one heap
/// allocation per class, with lookups walking the chain (aux keys are
/// unique per class, so chain order is irrelevant to the result).
struct VariantEntry<Aux> {
    aux: Aux,
    state: u32,
    next: u32,
}

/// The poolable storage of one [`Search`]: every growable buffer a
/// per-class check fills. [`Explorer::check`] leases one from the
/// explorer's scratch pool and returns it cleared-but-capacitated, so
/// a sweep cell's ~77k per-class searches re-allocate these buffers
/// once per worker instead of once per class. Soundness of the reuse
/// is structural: [`SearchScratch::clear`] empties every collection
/// (`FlatKeyIndex::clear` resets its probe slots), and no search ever
/// reads an index it did not itself intern, so stale capacity can
/// never leak state between classes — and the deterministic budget
/// accounting ([`Search::live_bytes`]) deliberately reads occupied
/// counts, never capacities, so pooling is invisible to verdicts.
struct SearchScratch<Aux> {
    states: StateStore<Aux>,
    /// Interned translation classes: packed `u128` key → dense id,
    /// decoded canonical representative stored once.
    arena: ClassArena,
    /// Per-class decision data, parallel to the arena ids.
    info: Vec<ClassInfo>,
    /// Per-class round table, parallel to the arena ids: shared out of
    /// the explorer's class cache when the semantics reads it
    /// ([`Semantics::ROUND_TABLE`]), `None` otherwise. Expansion
    /// borrows it from here, so a state's expansion touches no shared
    /// cache or reference count.
    tables: Vec<Option<std::sync::Arc<engine::RoundTable>>>,
    /// Head link of each class's aux-variant chain ([`NO_VARIANT`]
    /// when empty), parallel to the arena ids.
    variant_head: Vec<u32>,
    /// Flat chain-link pool behind `variant_head`.
    variant_pool: Vec<VariantEntry<Aux>>,
    /// Flat edge storage; each state owns a contiguous slice.
    edge_pool: Vec<PackedEdge>,
    /// Chunked BFS level storage: every discovered inner state id in
    /// discovery order, the current level being a window of this one
    /// buffer (children always join the next level, so the window
    /// simply advances — no per-level allocation, 4 bytes per queued
    /// state total).
    levels: Vec<u32>,
    /// One state's enumerated `(action, step)` list, reused across
    /// states: the crash semantics collects it while borrowing the
    /// state's round table, then applies it.
    steps: Vec<(CrashRound, PureStep<Aux>)>,
}

impl<Aux> Default for SearchScratch<Aux> {
    fn default() -> Self {
        SearchScratch {
            states: StateStore::default(),
            arena: ClassArena::new(),
            info: Vec::new(),
            tables: Vec::new(),
            variant_head: Vec::new(),
            variant_pool: Vec::new(),
            edge_pool: Vec::new(),
            levels: Vec::new(),
            steps: Vec::new(),
        }
    }
}

impl<Aux> SearchScratch<Aux> {
    /// Empties every buffer, keeping all capacities for the next lease.
    fn clear(&mut self) {
        self.states.clear();
        self.arena.clear();
        self.info.clear();
        self.tables.clear();
        self.variant_head.clear();
        self.variant_pool.clear();
        self.edge_pool.clear();
        self.levels.clear();
        self.steps.clear();
    }

    /// Heap bytes reserved by the per-class columns that parallel the
    /// arena ids (decision data, table pointers, variant-chain heads)
    /// and the variant-chain pool.
    fn class_column_bytes(&self) -> usize {
        self.info.capacity() * size_of::<ClassInfo>()
            + self.tables.capacity() * size_of::<Option<std::sync::Arc<engine::RoundTable>>>()
            + self.variant_head.capacity() * size_of::<u32>()
            + self.variant_pool.capacity() * size_of::<VariantEntry<Aux>>()
    }

    /// Heap bytes currently reserved across every buffer — the real
    /// footprint reported to the telemetry gauges (capacity-based, so
    /// it reflects what the allocator actually holds).
    fn heap_bytes(&self) -> usize {
        self.states.heap_bytes()
            + self.arena.heap_bytes()
            + self.class_column_bytes()
            + self.edge_pool.capacity() * size_of::<PackedEdge>()
            + self.levels.capacity() * size_of::<u32>()
            + self.steps.capacity() * size_of::<(CrashRound, PureStep<Aux>)>()
    }
}

/// One expanded edge in 8 bytes: the action packed as
/// `crash << 16 | activate` plus the successor's dense state id. The
/// graph phases (quotient acyclicity, Tarjan, the product decision)
/// walk millions of these, so halving the former
/// `(CrashRound, usize)` layout directly halves the resident graph.
#[derive(Clone, Copy)]
struct PackedEdge {
    action: u32,
    to: u32,
}

/// Packs a [`CrashRound`] into the edge/parent action word.
fn pack_action(action: CrashRound) -> u32 {
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
    /// `check` calls completed.
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
    /// Distinct translation classes per check (arena size at verdict).
    pub(crate) arena_classes: telemetry::Histogram,
    /// Interned states per check.
    pub(crate) states_per_check: telemetry::Histogram,
    /// States consumed at verdict time, in percent of `max_states`.
    pub(crate) budget_states_pct: telemetry::Histogram,
    /// Edges consumed at verdict time, in percent of `max_edges`.
    pub(crate) budget_edges_pct: telemetry::Histogram,
    /// Wall time in Phase A (BFS expansion), nanoseconds.
    pub(crate) phase_a_ns: telemetry::Counter,
    /// Wall time in Phase B (quotient acyclicity), nanoseconds.
    pub(crate) phase_b_ns: telemetry::Counter,
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
    /// Undecided verdicts attributed to a caught per-class panic
    /// (tallied by the sweep layer's degradation, never by `check`).
    pub(crate) undecided_panicked: telemetry::Counter,
    /// Class-cache hits, tallied per search and added once per check.
    pub(crate) info_hit: telemetry::Counter,
    /// Class-cache misses, tallied per search and added once per check.
    pub(crate) info_miss: telemetry::Counter,
    /// Peak heap bytes reserved by one check's class arena (probe
    /// table, key column, representative pointers).
    pub(crate) arena_bytes: telemetry::Gauge,
    /// Peak heap bytes reserved by one check's visited-state storage
    /// (state columns, per-class info, aux-variant chains).
    pub(crate) visited_bytes: telemetry::Gauge,
    /// Peak heap bytes reserved by one check's BFS level storage.
    pub(crate) frontier_bytes: telemetry::Gauge,
    /// Peak heap bytes reserved by one whole check (arena + visited +
    /// frontier + edge pool).
    pub(crate) peak_bytes: telemetry::Gauge,
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
        s.add_counter("explore.phase_b_ns", self.phase_b_ns.get());
        s.add_counter("explore.phase_d_ns", self.phase_d_ns.get());
        s.add_counter("explore.verdict.proof", self.verdict_proof.get());
        s.add_counter("explore.verdict.refuted", self.verdict_refuted.get());
        s.add_counter("explore.verdict.undecided", self.verdict_undecided.get());
        s.add_counter("explore.undecided.states", self.undecided_states.get());
        s.add_counter("explore.undecided.edges", self.undecided_edges.get());
        s.add_counter("explore.undecided.fair_depth", self.undecided_product.get());
        s.add_counter("explore.undecided.timeout", self.undecided_timeout.get());
        s.add_counter("explore.undecided.mem_budget", self.undecided_mem_budget.get());
        s.add_counter("explore.undecided.panicked", self.undecided_panicked.get());
        s.add_counter("memo.info.hit", self.info_hit.get());
        s.add_counter("memo.info.miss", self.info_miss.get());
        s.add_histogram(self.frontier_width.read("explore.frontier_width"));
        s.add_histogram(self.arena_classes.read("explore.arena_classes"));
        s.add_histogram(self.states_per_check.read("explore.states_per_check"));
        s.add_histogram(self.budget_states_pct.read("explore.budget_states_pct"));
        s.add_histogram(self.budget_edges_pct.read("explore.budget_edges_pct"));
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
    /// The cell-global class cache, keyed by packed class bits. Every
    /// entry is a pure function of the key: the decision vector (each
    /// robot's decision from a fresh Look), the decoded canonical
    /// representative, and — for semantics that expand through it
    /// ([`Semantics::ROUND_TABLE`]) — the class's round table, which
    /// depends only on the positions and decisions, never on aux state.
    /// One checker reused across a sweep cell thus computes each once
    /// per *distinct* class, and a search looks each class up once,
    /// when it first interns it — never per expanded state.
    info_memo: std::sync::Mutex<PackedKeyMap<ClassEntry>>,
    /// Pool of cleared [`SearchScratch`] buffers: each `check` leases
    /// one and returns it, so successive per-class searches reuse
    /// their grown allocations instead of rebuilding them per class.
    /// Depth is bounded by the number of concurrent `check` calls.
    scratch: std::sync::Mutex<Vec<SearchScratch<S::Aux>>>,
    /// Out-of-band observability tallies (see [`ExploreMetrics`]).
    metrics: ExploreMetrics,
}

impl<'a, A: Algorithm + ?Sized> Explorer<'a, A, CrashSemantics> {
    /// Builds a crash-semantics explorer for `algo` with the given
    /// budgets, crash budget and goal predicate, accepting up to 8
    /// robots (the historical bound; use [`Self::new_for_robots`] for
    /// wider configurations).
    ///
    /// # Panics
    /// Panics if `budget >= PackedClass::MAX_ROBOTS`: at least one
    /// robot must stay alive for the goal to be meaningful.
    #[must_use]
    pub fn new(algo: &'a A, opts: ExploreOptions, budget: u8, goal: Goal) -> Self {
        Self::with_semantics(algo, opts, CrashSemantics::new(budget, goal))
    }

    /// Like [`Self::new`], accepting configurations of up to
    /// `max_robots` robots (≤ [`PackedClass::MAX_ROBOTS`]).
    #[must_use]
    pub fn new_for_robots(
        algo: &'a A,
        opts: ExploreOptions,
        budget: u8,
        goal: Goal,
        max_robots: usize,
    ) -> Self {
        Self::with_semantics_for_robots(algo, opts, CrashSemantics::new(budget, goal), max_robots)
    }

    /// The crash budget this explorer was built with.
    #[must_use]
    pub fn budget(&self) -> u8 {
        self.semantics.budget
    }
}

impl<'a, A: Algorithm + ?Sized, S: Semantics> Explorer<'a, A, S> {
    /// Builds an explorer for `algo` over the given semantics, accepting
    /// up to 8 robots. This is the historical constructor: its
    /// equivariance scan (and therefore its dedup decisions and golden
    /// schedules) are byte-identical to the u8-mask era.
    #[must_use]
    pub fn with_semantics(algo: &'a A, opts: ExploreOptions, semantics: S) -> Self {
        Self::with_semantics_for_robots(algo, opts, semantics, 8)
    }

    /// Builds an explorer accepting configurations of up to `max_robots`
    /// robots. The equivariance subgroup is computed over every view
    /// with up to `max_robots - 1` robots (never fewer than the
    /// historical 7), so widening can only shrink the group — dedup
    /// stays sound at every supported count.
    ///
    /// # Panics
    /// Panics if `max_robots` exceeds [`PackedClass::MAX_ROBOTS`].
    #[must_use]
    pub fn with_semantics_for_robots(
        algo: &'a A,
        opts: ExploreOptions,
        semantics: S,
        max_robots: usize,
    ) -> Self {
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
            info_memo: std::sync::Mutex::new(PackedKeyMap::default()),
            scratch: std::sync::Mutex::new(Vec::new()),
            metrics: ExploreMetrics::default(),
        }
    }

    /// A point-in-time telemetry snapshot: accumulated phase wall
    /// times, memo hit/miss tallies, verdict breakdowns, and BFS shape
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

    /// The largest robot count this explorer accepts.
    #[must_use]
    pub fn max_robots(&self) -> usize {
        self.max_robots
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

    /// The semantics this explorer instantiates.
    pub(crate) fn semantics(&self) -> &S {
        &self.semantics
    }

    /// The algorithm being checked.
    pub(crate) fn algorithm(&self) -> &'a A {
        self.algo
    }

    /// The out-of-band observability tallies.
    pub(crate) fn metrics(&self) -> &ExploreMetrics {
        &self.metrics
    }

    /// The class cache's entry for the class `key` packs: its decision
    /// data, shared canonical representative and (when the semantics
    /// reads it) round table. Successive per-class searches of one
    /// checker revisit heavily overlapping class sets (for the full
    /// n = 7 adversary cell, all 318k interned states name only 3652
    /// distinct classes), so each entry is materialized once per class
    /// per cell, not once per search. The lookup is tallied into
    /// `memo` (`[hits, misses]`), which the caller's search flushes
    /// once per check. A racing miss recomputes the same pure value,
    /// so the lock is never held across the computation.
    pub(crate) fn class_entry(&self, key: PackedClass, memo: &mut [u64; 2]) -> ClassEntry {
        // The lock recovers from poisoning: the sweep layer's per-class
        // panic isolation can leave it poisoned by a panicking check,
        // but the map only ever holds pure values keyed by class and
        // is never mutated while the lock is held across fallible user
        // code — the worst a poisoned lock can hide is a lost insert,
        // never a wrong value.
        if let Some(entry) = self
            .info_memo
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&key.bits())
        {
            memo[0] += 1;
            return entry.clone();
        }
        memo[1] += 1;
        let cfg = std::sync::Arc::new(key.unpack());
        let decisions = engine::compute_moves(&cfg, self.algo);
        let mut moves = [None; PackedClass::MAX_ROBOTS];
        moves[..decisions.len()].copy_from_slice(&decisions);
        let movers =
            decisions
                .iter()
                .enumerate()
                .fold(0u16, |acc, (i, m)| if m.is_some() { acc | (1 << i) } else { acc });
        let info = ClassInfo { n: cfg.len() as u8, movers, moves };
        let table =
            S::ROUND_TABLE.then(|| std::sync::Arc::new(engine::RoundTable::new(&cfg, &decisions)));
        let entry = (info, cfg, table);
        self.info_memo
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(key.bits(), entry.clone());
        entry
    }

    /// Classifies `initial` under the exhaustive adversary of this
    /// instantiation.
    ///
    /// # Panics
    /// Panics if `initial` is disconnected or holds more robots than
    /// this explorer was built for (see
    /// [`Self::with_semantics_for_robots`]).
    #[must_use]
    pub fn check(&self, initial: &Configuration) -> ExploreReport {
        assert!(
            initial.len() <= self.max_robots,
            "this explorer was built for at most {} robots (got {}); \
             construct it with new_for_robots / with_semantics_for_robots",
            self.max_robots,
            initial.len()
        );
        assert!(initial.is_connected(), "the paper's model starts connected");
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
            edges: 0,
            deduped: 0,
            memo: [0; 2],
            deadline: self.opts.class_timeout.map(|t| std::time::Instant::now() + t),
            deadline_ticks: std::cell::Cell::new(0),
        };
        let verdict = search.run(initial);

        // Out-of-band bookkeeping on the finished search; none of it
        // can reach the report or any digest.
        let m = &self.metrics;
        m.checks.inc();
        m.states.add(search.scratch.states.len() as u64);
        m.edges.add(search.edges as u64);
        m.deduped.add(search.deduped as u64);
        m.info_hit.add(search.memo[0]);
        m.info_miss.add(search.memo[1]);
        m.arena_classes.record(search.scratch.arena.len() as u64);
        m.states_per_check.record(search.scratch.states.len() as u64);
        let pct = |used: usize, cap: usize| -> u64 {
            let cap = cap.max(1) as u128;
            ((used as u128 * 100) / cap).min(u64::MAX as u128) as u64
        };
        m.budget_states_pct.record(pct(search.scratch.states.len(), self.opts.max_states));
        m.budget_edges_pct.record(pct(search.edges, self.opts.max_edges));
        m.arena_bytes.record(search.scratch.arena.heap_bytes() as u64);
        let visited = search.scratch.states.heap_bytes() + search.scratch.class_column_bytes();
        m.visited_bytes.record(visited as u64);
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
                    UndecidedReason::Panicked => m.undecided_panicked.inc(),
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

    /// Index permutations induced on `cfg` by the stabilizer of its
    /// class within the equivariance subgroup (identity omitted),
    /// restricted to permutations that also fix the auxiliary key — a
    /// symmetry that maps, say, a crashed robot onto a live one (or a
    /// pending robot onto an idle one) does not commute with the
    /// auxiliary state. The stabilizer test compares packed class
    /// keys, so non-stabilizing symmetries (the common case) are
    /// rejected without any allocation.
    pub(crate) fn stabilizer_perms(&self, cfg: &Configuration, aux: S::Aux) -> Vec<Vec<usize>> {
        let positions = cfg.positions();
        let n = positions.len();
        let class_key = cfg.canonical_key();
        let mut perms = Vec::new();
        let mut mapped = [ORIGIN; PackedClass::MAX_ROBOTS];
        for &s in &self.group[1..] {
            for (m, &p) in mapped[..n].iter_mut().zip(positions) {
                *m = s.apply(p);
            }
            if PackedClass::of_cells(&mapped[..n]) != class_key {
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
fn movement_rounds(schedule: &[CrashRound]) -> usize {
    schedule.iter().filter(|a| a.activate != 0).count()
}

/// One `check` call's working state: the interned state graph plus the
/// exploration statistics. [`Semantics`] implementations drive it
/// through the crate-private mutation surface below.
pub struct Search<'c, 'a, A: Algorithm + ?Sized, S: Semantics> {
    explorer: &'c Explorer<'a, A, S>,
    /// The leased storage: state columns, arena, variant chains, edge
    /// pool and level buffers (see [`SearchScratch`]).
    scratch: SearchScratch<S::Aux>,
    edges: usize,
    deduped: usize,
    /// Class-cache `[hits, misses]` of this search, one lookup per
    /// interned class; [`Explorer::check`] adds them to the shared
    /// `memo.info.*` counters once, when the search ends.
    memo: [u64; 2],
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
    /// The explorer this search runs under.
    pub(crate) fn explorer(&self) -> &'c Explorer<'a, A, S> {
        self.explorer
    }

    /// `(class id, aux, rounds)` of state `id`.
    pub(crate) fn state(&self, id: usize) -> (u32, S::Aux, usize) {
        let s = &self.scratch.states;
        (s.class[id], s.aux[id], s.rounds[id] as usize)
    }

    /// The terminal classification of state `id`.
    pub(crate) fn node_kind(&self, id: usize) -> NodeKind {
        self.scratch.states.kind[id]
    }

    /// The canonical representative of class `class`.
    pub(crate) fn class_cfg(&self, class: u32) -> &Configuration {
        self.scratch.arena.get(class)
    }

    /// The per-class decision data of class `class`.
    pub(crate) fn info(&self, class: u32) -> ClassInfo {
        self.scratch.info[class as usize]
    }

    /// Counts one expanded transition.
    pub(crate) fn bump_edges(&mut self) {
        self.edges += 1;
    }

    /// Counts one action skipped by the stabilizer reduction.
    pub(crate) fn bump_deduped(&mut self) {
        self.deduped += 1;
    }

    /// Occupied bytes of the search's live storage, as a **pure
    /// function of the interned counts** — never of allocator
    /// capacities, which depend on scratch-pool history. This is what
    /// the byte budget compares against, so budget-armed verdicts are
    /// byte-identical across thread counts, shardings and pool reuse.
    /// (BFS level storage is folded in as one `u32` per state — every
    /// inner state is queued exactly once.)
    pub(crate) fn live_bytes(&self) -> usize {
        let s = &self.scratch;
        s.arena.live_bytes()
            + s.states.len() * (StateStore::<S::Aux>::BYTES_PER_STATE + size_of::<u32>())
            + s.info.len() * size_of::<ClassInfo>()
            + s.variant_head.len() * size_of::<u32>()
            + s.variant_pool.len() * size_of::<VariantEntry<S::Aux>>()
            + s.edge_pool.len() * size_of::<PackedEdge>()
    }

    /// Whether a search budget is exhausted.
    pub(crate) fn over_budget(&self) -> bool {
        let opts = &self.explorer.opts;
        self.scratch.states.len() > opts.max_states
            || self.edges > opts.max_edges
            || opts.mem_budget.is_some_and(|cap| self.live_bytes() > cap)
    }

    /// The undecided verdict for a tripped BFS budget, recording which
    /// counter exhausted (states before edges before bytes when several
    /// did — the state cap is the one that names the blown arena).
    pub(crate) fn budget_undecided(&self) -> ExploreVerdict {
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
    pub(crate) fn deadline_tripped(&self) -> bool {
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
    pub(crate) fn timeout_undecided(&self) -> ExploreVerdict {
        ExploreVerdict::Undecided { reason: UndecidedReason::Timeout }
    }

    /// Records the expanded edge `(action, succ)` on state `id`. Edges
    /// of a state are recorded back-to-back (expansion finishes one
    /// state before the next starts), which is what lets the pool stay
    /// flat.
    pub(crate) fn push_edge(&mut self, id: usize, action: CrashRound, succ: usize) {
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

    /// Interns `raw`'s translation class, computing its decision
    /// vector on first sight. This is the explorer's hottest path: the
    /// packed key folds the canonical translation without allocating,
    /// so a revisited class costs one `u128` hash lookup.
    fn intern_class(&mut self, raw: &Configuration) -> u32 {
        self.intern_class_key(raw.canonical_key())
    }

    /// Interns an already-packed canonical class key — the twin of
    /// [`Search::intern_class`] for successors whose key a pure
    /// expansion step computed without materializing a
    /// [`Configuration`]. A new class takes its entry from the
    /// explorer's class cache: the only shared lookup a class costs
    /// this search.
    fn intern_class_key(&mut self, key: PackedClass) -> u32 {
        if let Some(class) = self.scratch.arena.lookup_key(key) {
            return class;
        }
        let (info, cfg, table) = self.explorer.class_entry(key, &mut self.memo);
        let class = self.scratch.arena.insert_shared(key, cfg);
        self.scratch.info.push(info);
        self.scratch.tables.push(table);
        self.scratch.variant_head.push(NO_VARIANT);
        class
    }

    /// Interns the state `(class of raw, aux)` where `aux` is already
    /// expressed over `raw`'s row-major slots. Returns
    /// `(id, newly_inserted)`. Row-major order is translation-invariant
    /// and canonicalisation only translates, so a slot index in `raw`
    /// is its slot in the canonical representative — no canonical
    /// configuration is materialized here.
    pub(crate) fn intern_state(
        &mut self,
        raw: &Configuration,
        aux: S::Aux,
        rounds: usize,
        parent: Option<(usize, CrashRound)>,
    ) -> (usize, bool) {
        let class = self.intern_class(raw);
        self.intern_variant(class, aux, rounds, parent)
    }

    /// Interns the state `(class, aux)` for an already-interned class —
    /// the fast path for actions that leave the configuration (and thus
    /// the slot indexing of the aux) unchanged.
    pub(crate) fn intern_variant(
        &mut self,
        class: u32,
        aux: S::Aux,
        rounds: usize,
        parent: Option<(usize, CrashRound)>,
    ) -> (usize, bool) {
        let mut cur = self.scratch.variant_head[class as usize];
        while cur != NO_VARIANT {
            let e = &self.scratch.variant_pool[cur as usize];
            if e.aux == aux {
                return (e.state as usize, false);
            }
            cur = e.next;
        }
        let info = &self.scratch.info[class as usize];
        let kind = self.explorer.semantics.classify(self.scratch.arena.get(class), info, aux);
        let id = self.scratch.states.len();
        let (parent, parent_action) = match parent {
            Some((p, a)) => (p as u32, pack_action(a)),
            None => (NO_PARENT, 0),
        };
        let head = self.scratch.variant_head[class as usize];
        self.scratch.variant_pool.push(VariantEntry { aux, state: id as u32, next: head });
        self.scratch.variant_head[class as usize] = (self.scratch.variant_pool.len() - 1) as u32;
        self.scratch.states.push(class, aux, rounds as u32, parent, parent_action, kind);
        (id, true)
    }

    /// Applies one [`PureStep`] of state `id` under `action`: the
    /// counter bumps, interning, refutation outcome, queue push and
    /// per-action budget checks of that action.
    pub(crate) fn apply_step(
        &mut self,
        id: usize,
        action: CrashRound,
        step: PureStep<S::Aux>,
        queue: &mut Vec<u32>,
    ) -> Option<ExploreVerdict> {
        let rounds = self.scratch.states.rounds[id] as usize;
        match step {
            PureStep::Dedup => {
                self.bump_deduped();
                None
            }
            PureStep::Collide(collision) => {
                let mut schedule = self.path_to(id);
                schedule.push(action);
                Some(ExploreVerdict::Refuted {
                    schedule,
                    outcome: Outcome::Collision { round: rounds, collision },
                })
            }
            PureStep::Disconnect => {
                self.bump_edges();
                let mut schedule = self.path_to(id);
                schedule.push(action);
                Some(ExploreVerdict::Refuted {
                    schedule,
                    outcome: Outcome::Disconnected { round: rounds + 1 },
                })
            }
            PureStep::Variant(aux) => {
                self.bump_edges();
                let (succ, new) = self.intern_variant(
                    self.scratch.states.class[id],
                    aux,
                    rounds,
                    Some((id, action)),
                );
                if new && self.node_kind(succ) == NodeKind::Stuck {
                    let mut schedule = self.path_to(id);
                    schedule.push(action);
                    return Some(ExploreVerdict::Refuted {
                        schedule,
                        outcome: Outcome::StuckFixpoint { rounds },
                    });
                }
                self.push_edge(id, action, succ);
                if self.over_budget() {
                    return Some(self.budget_undecided());
                }
                if self.deadline_tripped() {
                    return Some(self.timeout_undecided());
                }
                None
            }
            PureStep::Succ(key, aux) => {
                self.bump_edges();
                let class = self.intern_class_key(key);
                let (succ, new) = self.intern_variant(class, aux, rounds + 1, Some((id, action)));
                if new {
                    if self.node_kind(succ) == NodeKind::Stuck {
                        let mut schedule = self.path_to(id);
                        schedule.push(action);
                        return Some(ExploreVerdict::Refuted {
                            schedule,
                            outcome: Outcome::StuckFixpoint { rounds: rounds + 1 },
                        });
                    }
                    queue.push(succ as u32);
                }
                self.push_edge(id, action, succ);
                if self.over_budget() {
                    return Some(self.budget_undecided());
                }
                if self.deadline_tripped() {
                    return Some(self.timeout_undecided());
                }
                None
            }
        }
    }

    /// Shared scaffolding of an edge certificate
    /// ([`Semantics::traverse`]) for the edge `from → to`: `step`
    /// receives the source state's positions (slot-indexed), applies
    /// the action's semantics-specific effect to them and returns the
    /// slots that satisfy fairness; re-sorting the moved positions into
    /// row-major order then yields the slot permutation (the identity
    /// when no robot moved).
    pub(crate) fn traverse_roles(
        &self,
        from: usize,
        to: usize,
        step: impl FnOnce(&mut [Coord]) -> u16,
    ) -> EdgeCert {
        let cfg = self.class_cfg(self.state(from).0);
        let n = cfg.len();
        let mut pos = [ORIGIN; PackedClass::MAX_ROBOTS];
        pos[..n].copy_from_slice(cfg.positions());
        let flags = step(&mut pos[..n]);
        let mut order: [usize; PackedClass::MAX_ROBOTS] = std::array::from_fn(|i| i);
        order[..n].sort_unstable_by_key(|&s| polyhex::key(pos[s]));
        let mut perm = [0u8; PackedClass::MAX_ROBOTS];
        for (slot, &s) in order[..n].iter().enumerate() {
            perm[s] = slot as u8;
        }
        debug_assert_eq!(
            &Configuration::new(pos[..n].iter().copied()).canonical(),
            self.class_cfg(self.state(to).0),
            "edge certificate diverged from the state graph"
        );
        EdgeCert { perm, flags }
    }

    /// Actions from the initial state to `id`, via BFS parents.
    pub(crate) fn path_to(&self, id: usize) -> Vec<CrashRound> {
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

    fn run(&mut self, initial: &Configuration) -> ExploreVerdict {
        let root_aux = self.explorer.semantics.root_aux();
        let (root, _) = self.intern_state(initial, root_aux, 0, None);
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
        let metrics = self.explorer.metrics();
        let watch = telemetry::Stopwatch::started();
        let mut found: Option<ExploreVerdict> = None;
        let mut levels = std::mem::take(&mut self.scratch.levels);
        levels.clear();
        levels.push(root as u32);
        let mut lo = 0usize;
        'levels: while lo < levels.len() {
            let hi = levels.len();
            if self.deadline_passed_now() {
                found = Some(self.timeout_undecided());
                break 'levels;
            }
            metrics.levels.inc();
            metrics.frontier_width.record((hi - lo) as u64);
            for i in lo..hi {
                let id = levels[i] as usize;
                if self.scratch.states.kind[id] != NodeKind::Inner {
                    continue;
                }
                let explorer = self.explorer;
                if let Some(verdict) = explorer.semantics().expand(self, id, &mut levels) {
                    found = Some(verdict);
                    break 'levels;
                }
                if self.over_budget() {
                    found = Some(self.budget_undecided());
                    break 'levels;
                }
            }
            lo = hi;
        }
        self.scratch.levels = levels;
        watch.flush(&metrics.phase_a_ns);
        if let Some(verdict) = found {
            return verdict;
        }

        // Phase B: no bad terminal is reachable. If the graph —
        // quotiented by the equivariance subgroup — is acyclic, every
        // fair schedule terminates, and all terminals are goals: proof.
        let watch = telemetry::Stopwatch::started();
        let acyclic = self.quotient_is_acyclic();
        watch.flush(&metrics.phase_b_ns);
        if acyclic {
            return ExploreVerdict::Proof;
        }
        if self.deadline_passed_now() {
            return self.timeout_undecided();
        }

        // Phase D: decide fair pumps exactly on the role-tracking
        // product automaton — a proof or a stitched refutation lasso,
        // undecided only if the product itself overflows its cap
        // (DESIGN.md §15).
        let watch = telemetry::Stopwatch::started();
        let verdict = self.decide_fair_product();
        watch.flush(&metrics.phase_d_ns);
        verdict
    }

    /// Whether the state graph, with nodes identified up to the
    /// algorithm's equivariance subgroup, is acyclic. The quotient is
    /// what must be checked: a subtree skipped by the stabilizer
    /// reduction is isomorphic to an explored one, so cycles in the
    /// full graph correspond exactly to closed walks in the quotient.
    ///
    /// Orbit keys are packed: each symmetry image is transformed,
    /// sorted and folded into a `(u128, u32)` pair on the stack — the
    /// class bits plus the permuted aux bits — and the orbit minimum of
    /// those pairs names the quotient node. Packing is injective, so
    /// the orbit partition is exactly the one unpacked
    /// `(Vec<Coord>, aux)` keys would induce — only the (free) choice
    /// of representative changed, which cannot affect whether the
    /// quotient graph has a cycle.
    fn quotient_is_acyclic(&self) -> bool {
        if self.explorer.group.len() == 1 {
            // Identity-only group: the orbit key of a state is the
            // state itself, so the quotient *is* the explored graph —
            // run the cycle DFS directly on it, skipping the per-state
            // orbit packing and the quotient interning entirely.
            return self.state_graph_acyclic();
        }
        let mut qid_of_key: HashMap<(u128, u32), usize> = HashMap::new();
        let mut qid: Vec<usize> = Vec::with_capacity(self.scratch.states.len());
        for i in 0..self.scratch.states.len() {
            let (s_class, s_aux) = (self.scratch.states.class[i], self.scratch.states.aux[i]);
            let positions = self.scratch.arena.get(s_class).positions();
            let n = positions.len();
            let key = self
                .explorer
                .group
                .iter()
                .map(|sym| {
                    let mut mapped = [ORIGIN; PackedClass::MAX_ROBOTS];
                    for (m, &p) in mapped[..n].iter_mut().zip(positions) {
                        *m = sym.apply(p);
                    }
                    // Sort slot indices by the row-major order of the
                    // images: slot `k` of the transformed canonical
                    // form holds the robot from original slot `idx[k]`.
                    let mut idx: [usize; PackedClass::MAX_ROBOTS] = std::array::from_fn(|i| i);
                    idx[..n].sort_unstable_by_key(|&i| polyhex::key(mapped[i]));
                    let delta = mapped[idx[0]];
                    let mut cells = [ORIGIN; PackedClass::MAX_ROBOTS];
                    let mut inv = [0usize; PackedClass::MAX_ROBOTS];
                    for k in 0..n {
                        cells[k] = mapped[idx[k]] - delta;
                        inv[idx[k]] = k;
                    }
                    let aux = S::permute_aux(s_aux, n, |i| inv[i], *sym);
                    (PackedClass::of_sorted(&cells[..n]).bits(), S::aux_bits(aux))
                })
                .min()
                .expect("the group contains the identity");
            let next = qid_of_key.len();
            qid.push(*qid_of_key.entry(key).or_insert(next));
        }
        let nq = qid_of_key.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nq];
        for i in 0..self.scratch.states.len() {
            for e in self.edges_of(i) {
                adj[qid[i]].push(qid[e.to as usize]);
            }
        }
        // Iterative three-colour DFS.
        let mut colour = vec![0u8; nq]; // 0 white, 1 grey, 2 black
        for start in 0..nq {
            if colour[start] != 0 {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            colour[start] = 1;
            while let Some(&mut (node, ref mut next)) = stack.last_mut() {
                if *next < adj[node].len() {
                    let to = adj[node][*next];
                    *next += 1;
                    match colour[to] {
                        0 => {
                            colour[to] = 1;
                            stack.push((to, 0));
                        }
                        1 => return false, // back edge: cycle
                        _ => {}
                    }
                } else {
                    colour[node] = 2;
                    stack.pop();
                }
            }
        }
        true
    }

    /// Three-colour cycle DFS straight over the explored state graph —
    /// the identity-group specialization of [`Self::quotient_is_acyclic`].
    fn state_graph_acyclic(&self) -> bool {
        let n = self.scratch.states.len();
        let mut colour = vec![0u8; n]; // 0 white, 1 grey, 2 black
        for start in 0..n {
            if colour[start] != 0 {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            colour[start] = 1;
            while let Some(&mut (node, ref mut next)) = stack.last_mut() {
                let es = self.edges_of(node);
                if *next < es.len() {
                    let to = es[*next].to as usize;
                    *next += 1;
                    match colour[to] {
                        0 => {
                            colour[to] = 1;
                            stack.push((to, 0));
                        }
                        1 => return false, // back edge: cycle
                        _ => {}
                    }
                } else {
                    colour[node] = 2;
                    stack.pop();
                }
            }
        }
        true
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
    /// decided exactly on the role-tracking product automaton
    /// (DESIGN.md §15):
    ///
    /// * a reachable product structure covering every role yields a
    ///   stitched refutation lasso;
    /// * no coverage — even with stabilizer relabelings folded in —
    ///   proves no fair schedule can stay in the SCC forever, and once
    ///   every SCC is ruled out, every fair schedule reaches a (good)
    ///   terminal: proof;
    /// * only a product overflow (or the symmetric corner case noted in
    ///   [`Search::product_fair_cycle`]) stays undecided.
    fn decide_fair_product(&self) -> ExploreVerdict {
        for scc in self.cyclic_sccs() {
            if self.deadline_passed_now() {
                return self.timeout_undecided();
            }
            match self.product_fair_cycle(&scc) {
                ProductOutcome::Refuted(verdict) => return verdict,
                ProductOutcome::NoFairCycle => {}
                ProductOutcome::Undecided => {
                    // An expired deadline surfaces here as an aborted
                    // product sweep; attribute it honestly instead of
                    // blaming the product cap.
                    if self.deadline_passed_now() {
                        return self.timeout_undecided();
                    }
                    return ExploreVerdict::Undecided { reason: UndecidedReason::FairDepth };
                }
            }
        }
        ExploreVerdict::Proof
    }

    /// Decides one cyclic SCC on the product automaton over
    /// `(state, slot → role assignment)` pairs.
    ///
    /// Every SCC-internal edge gets its certificate
    /// ([`Semantics::traverse`]): the induced slot permutation plus the
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
    fn product_fair_cycle(&self, scc: &[usize]) -> ProductOutcome {
        let n = self.info(self.scratch.states.class[scc[0]]).robots();
        let all_roles: u16 = (1u16 << n) - 1;
        let semantics = self.explorer.semantics();
        let edges: Vec<Vec<ProductEdge>> = scc
            .iter()
            .map(|&u| {
                self.edges_of(u)
                    .iter()
                    .filter_map(|e| {
                        let to = e.to as usize;
                        let tidx = scc.binary_search(&to).ok()?;
                        let cert = semantics.traverse(self, u, unpack_action(e.action), to);
                        Some(ProductEdge { action: e.action, to: tidx as u32, cert })
                    })
                    .collect()
            })
            .collect();

        // Pass 1: edge permutations only — coverage here stitches into
        // a concrete (deduped-action-free) refutation schedule.
        let mut product = Product::new(&edges, None, n);
        match product.sweep(all_roles, || self.deadline_tripped()) {
            None => return ProductOutcome::Undecided,
            Some(true) => {
                return self
                    .stitch_product_cycle(scc[0], &mut product, all_roles)
                    .map_or(ProductOutcome::Undecided, ProductOutcome::Refuted);
            }
            Some(false) => {}
        }

        // Pass 2: widen with stabilizer ε-edges before claiming a
        // proof. When no SCC state has a nontrivial stabilizer the
        // products coincide and the sweep is skipped.
        let eps: Vec<Vec<[u8; PackedClass::MAX_ROBOTS]>> = scc
            .iter()
            .map(|&u| {
                let (class, aux, _) = self.state(u);
                self.explorer
                    .stabilizer_perms(self.class_cfg(class), aux)
                    .into_iter()
                    .map(|perm| {
                        let mut p = [0u8; PackedClass::MAX_ROBOTS];
                        for (i, &j) in perm.iter().enumerate() {
                            p[i] = j as u8;
                        }
                        p
                    })
                    .collect()
            })
            .collect();
        if eps.iter().all(Vec::is_empty) {
            return ProductOutcome::NoFairCycle;
        }
        match Product::new(&edges, Some(&eps), n).sweep(all_roles, || self.deadline_tripped()) {
            Some(false) => ProductOutcome::NoFairCycle,
            // Coverage: a fair pump exists up to symmetry, but its
            // concrete schedule would use actions the dedup skipped —
            // honest undecided rather than an unreplayable refutation.
            // No answer: the product outgrew its caps.
            Some(true) | None => ProductOutcome::Undecided,
        }
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

/// Outcome of the per-SCC product decision of Phase D.
enum ProductOutcome {
    /// A covering product structure was stitched into a lasso.
    Refuted(ExploreVerdict),
    /// No fair schedule can stay inside this SCC forever.
    NoFairCycle,
    /// The product overflowed its caps, or coverage held only under
    /// stabilizer relabelings (no concrete schedule available).
    Undecided,
}

/// One SCC-internal edge of the base graph, annotated with its
/// certificate (slot-indexed at the source state).
struct ProductEdge {
    /// The action, packed like [`PackedEdge::action`].
    action: u32,
    /// Successor, as an index into the sorted SCC member list.
    to: u32,
    /// The edge's permutation and fairness flags.
    cert: EdgeCert,
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
struct Product<'e> {
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

impl CrashSemantics {
    /// Builds the per-state expansion context: everything the action
    /// enumeration needs, copied out of the search except the class's
    /// representative and round table, which it borrows.
    fn prepare<'s, A: Algorithm + ?Sized>(
        &self,
        search: &'s Search<'_, '_, A, Self>,
        id: usize,
    ) -> CrashExpand<'s> {
        let (class, crashed, _) = search.state(id);
        let info = search.info(class);
        let cfg = search.class_cfg(class);
        let explorer = search.explorer();
        let perms = if explorer.group().len() > 1 {
            explorer.stabilizer_perms(cfg, crashed)
        } else {
            Vec::new()
        };
        let table = search.scratch.tables[class as usize]
            .as_deref()
            .expect("the crash semantics caches a round table per class");
        CrashExpand {
            crashed,
            budget: self.budget,
            movers: info.movers,
            moves: info.moves,
            cfg,
            perms,
            table,
        }
    }
}

/// The pure expansion context of one crash-semantics state: the crash
/// mask, decision vector and stabilizer permutations, plus the class's
/// [`engine::RoundTable`], from which every activation's step is read.
struct CrashExpand<'s> {
    crashed: u16,
    budget: u8,
    movers: u16,
    moves: [Option<Dir>; PackedClass::MAX_ROBOTS],
    cfg: &'s Configuration,
    perms: Vec<Vec<usize>>,
    table: &'s engine::RoundTable,
}

impl CrashExpand<'_> {
    /// Enumerates every adversary action in the exact historical order
    /// — affordable crash submasks of the live robots ascending, and
    /// within each injection the nonzero activation submasks of the
    /// surviving movers ascending — feeding each `(action, step)` to
    /// `sink`. Stops after an unconditionally terminal step (collision
    /// / disconnection), which ends the expansion.
    fn for_each(&self, mut sink: impl FnMut(CrashRound, PureStep<u16>)) {
        let n = self.cfg.len();
        let live = ((1u16 << n) - 1) & !self.crashed;
        let avail = self.budget.saturating_sub(self.crashed.count_ones() as u8);
        let mut crash: u16 = 0;
        loop {
            let after = self.crashed | crash;
            if self.movers & !after == 0 {
                // The injection froze every remaining mover: a single
                // injection-only action to a terminal state. `crash` is
                // nonzero here — an inner state has a live mover.
                let action = CrashRound { crash, activate: 0 };
                let step =
                    if !self.perms.is_empty() && canonical_action(action, &self.perms) != action {
                        PureStep::Dedup
                    } else {
                        PureStep::Variant(after)
                    };
                sink(action, step);
            } else {
                // The table's subsets that spare every crashed robot are
                // exactly the nonzero submasks of the live movers, in
                // the same ascending order.
                for entry in self.table.entries().iter().filter(|e| e.mask & after == 0) {
                    let action = CrashRound { crash, activate: entry.mask };
                    if !self.perms.is_empty() && canonical_action(action, &self.perms) != action {
                        sink(action, PureStep::Dedup);
                        continue;
                    }
                    let step = match entry.kind {
                        engine::RoundKind::Collides => {
                            PureStep::Collide(self.collision(entry.mask))
                        }
                        engine::RoundKind::Disconnects => PureStep::Disconnect,
                        engine::RoundKind::Succ => {
                            // Crashed robots never move; their slot bits
                            // follow them into the successor's order.
                            let mut aux = 0u16;
                            let mut bits = after;
                            while bits != 0 {
                                aux |= 1 << entry.slot(bits.trailing_zeros() as usize);
                                bits &= bits - 1;
                            }
                            PureStep::Succ(entry.key, aux)
                        }
                    };
                    let terminal = matches!(step, PureStep::Collide(_) | PureStep::Disconnect);
                    sink(action, step);
                    if terminal {
                        return;
                    }
                }
            }
            crash = next_affordable(crash, live, u32::from(avail));
            if crash == 0 {
                return;
            }
        }
    }

    /// The scalar engine's exact report of a colliding activation,
    /// materialized for the refutation outcome (at most once per
    /// expansion: a collision ends it).
    fn collision(&self, mask: u16) -> engine::RoundCollision {
        let masked = engine::mask_moves(&self.moves, mask);
        engine::check_moves(self.cfg, &masked[..self.cfg.len()])
            .expect_err("the round table records a collision")
    }
}

impl Semantics for CrashSemantics {
    type Aux = u16;

    fn root_aux(&self) -> u16 {
        0
    }

    fn aux_bits(aux: u16) -> u32 {
        u32::from(aux)
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

    fn classify(&self, cfg: &Configuration, info: &ClassInfo, crashed: u16) -> NodeKind {
        if info.movers & !crashed == 0 {
            if (self.goal)(cfg, crashed) {
                NodeKind::Goal
            } else {
                NodeKind::Stuck
            }
        } else {
            NodeKind::Inner
        }
    }

    const ROUND_TABLE: bool = true;

    /// Expands every adversary action of inner state `id`: first the
    /// pure-activation actions (crash budget untouched), then every
    /// crash injection combined with each activation of the surviving
    /// movers — or alone, when it leaves no live mover. Returns a
    /// refutation as soon as a bad terminal is reached.
    ///
    /// `CrashExpand::for_each` enumerates the steps into the
    /// search's reused step buffer while it borrows the class's round
    /// table; `Search::apply_step` then applies them in order until
    /// one yields a verdict. Steps past that one were enumerated but
    /// are never applied, so the search sees exactly the sequence an
    /// apply-as-you-enumerate loop would.
    fn expand<A: Algorithm + ?Sized>(
        &self,
        search: &mut Search<'_, '_, A, Self>,
        id: usize,
        queue: &mut Vec<u32>,
    ) -> Option<ExploreVerdict> {
        let mut steps = std::mem::take(&mut search.scratch.steps);
        self.prepare(search, id).for_each(|action, step| steps.push((action, step)));
        let verdict =
            steps.drain(..).find_map(|(action, step)| search.apply_step(id, action, step, queue));
        search.scratch.steps = steps;
        verdict
    }

    /// Certifies one edge: the activated movers step, and a slot is
    /// flagged when its robot moves, decides to stay (a free
    /// activation), or is crashed — crashed robots are exempt from
    /// fairness, so never activating them is legitimate.
    fn traverse<A: Algorithm + ?Sized>(
        &self,
        search: &Search<'_, '_, A, Self>,
        from: usize,
        action: CrashRound,
        to: usize,
    ) -> EdgeCert {
        debug_assert_eq!(action.crash, 0, "cycles never cross a crash level");
        let (class, crashed, _) = search.state(from);
        let moves = search.info(class).moves;
        search.traverse_roles(from, to, |pos| {
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

    fn cfg(cells: &[(i32, i32)]) -> Configuration {
        Configuration::new(cells.iter().map(|&(x, y)| Coord::new(x, y)))
    }

    #[test]
    fn budget_zero_has_no_crash_actions() {
        let march = FnAlgorithm::new(1, "march", |_: &View| Some(Dir::E));
        let explorer = Explorer::new(&march, ExploreOptions::default(), 0, fsync_goal);
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
        let explorer = Explorer::new(&StayAlgorithm, ExploreOptions::default(), 1, fsync_goal);
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
        let zero = Explorer::new(&march, ExploreOptions::default(), 0, fsync_goal);
        let one = Explorer::new(&march, ExploreOptions::default(), 1, fsync_goal);
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

    #[test]
    fn crash_aux_permutes_as_a_slot_mask() {
        // 3-cycle 0→1→2→0 on a 3-robot mask; the symmetry itself is
        // irrelevant to a direction-free mask.
        let mapped = CrashSemantics::permute_aux(0b011, 3, |i| (i + 1) % 3, PointSymmetry::Rot(2));
        assert_eq!(mapped, 0b110);
        assert_eq!(CrashSemantics::aux_bits(0b110), 0b110u32);
    }
}
