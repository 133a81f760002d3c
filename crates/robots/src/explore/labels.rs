//! Deciding a cell on one labeled graph (DESIGN.md §19).
//!
//! The classes of a crash or SSYNC-adversary cell share one state
//! graph: the states `(class, crash mask)` over the explorer's class
//! table, with the edges [`Semantics::actions`] enumerates. A
//! per-class search re-explores its root's part of that graph. Instead,
//! [`Explorer::label`] walks the graph once from a range of roots and
//! labels every state it reaches with
//!
//! * `dist`: hops to the nearest *bad* state, one whose expansion
//!   refutes (a colliding, disconnecting or stuck action);
//! * `doomed`: the state reaches a bad state, or a cyclic SCC that
//!   Phase D does not rule out.
//!
//! [`Explorer::check`] then settles a root from its label: a root that
//! is not doomed is a proof, with no search; a root with a finite
//! `dist` is refuted by the tight BFS, the search kept to the states on
//! its shortest paths to a bad state, which yields the full BFS's
//! schedule; a stuck root is refuted at once; every other doomed root
//! (the Phase-D refutations) runs the search restricted to doomed
//! states, which neither interns nor counts a clean successor and
//! yields the plain search's verdict. A root no walk reached runs the
//! plain search.
//!
//! The walk is one iterative Tarjan pass (Tarjan, SIAM J. Comput.
//! 1972). A state's label doubles as its "done" mark, and the Tarjan
//! index lives only while the state's SCC is open, in a small map, so
//! the walk keeps nothing per state beyond the label. Labels are set as
//! each SCC completes, when every SCC it reaches is already labeled, and
//! Phase D runs once per cyclic SCC that nothing else dooms. Labels are
//! functions of the graph, never of the racy class ids that index them.
//!
//! The labels are exact only while no per-class search could have
//! tripped a budget, so they are read only when no deadline and no byte
//! budget is armed and the walked graph fits the explorer's state and
//! edge caps: a search from a labeled root interns a subset of the
//! walked states and edges (a bad state keeps its edges up to its bad
//! action, as the search does). The walk stops as soon as a cap would
//! be passed, and every class then runs the plain search.

use super::{
    fair_pump, pack_action, CrashSemantics, ExploreReport, ExploreVerdict, Explorer, NodeKind,
    ProductEdge, Pump, Semantics, Target,
};
use crate::sched::CrashRound;
use crate::visited::PackedKeyMap;
use crate::{Algorithm, Configuration};
use std::borrow::Borrow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Label of a state slot no walk has reached.
const UNLABELED: u16 = u16::MAX;

/// Label of a state that is not doomed.
const CLEAN: u16 = u16::MAX - 1;

/// Label of a doomed state with no stored distance: it reaches no bad
/// state, or none within [`DOOMED`]` - 1` hops. Every smaller label is
/// an exact distance.
const DOOMED: u16 = u16::MAX - 2;

/// The labels of one cell's state graph, kept by its explorer for the
/// cell's life: one `u16` per state slot `class id × R(n, f) +
/// rank(crash mask)` — a distance, [`DOOMED`], [`CLEAN`] or
/// [`UNLABELED`] — plus the walked totals the guard compares with the
/// explorer's caps.
#[derive(Default)]
pub(crate) struct CellLabels {
    /// The label of each state slot.
    slots: Vec<u16>,
    /// Slots per class, R(n, f); 0 before the first walk.
    width: usize,
    /// States walked so far, counted as a search interns them.
    states: usize,
    /// Edges walked so far, counted as a search counts them.
    edges: usize,
    /// A walk passed a cap (or met a root of another robot count): no
    /// label is read again.
    overflowed: bool,
}

impl CellLabels {
    /// The label of state `(class, aux)`.
    fn of<S: Semantics>(&self, semantics: &S, class: u32, aux: S::Aux) -> u16 {
        let slot = class as usize * self.width + semantics.rank(aux);
        self.slots.get(slot).copied().unwrap_or(UNLABELED)
    }
}

/// A state's provisional label after absorbing the final label `succ`
/// of one of its successors: one hop more than the successor's
/// distance if that is shorter, and doomed if the successor is.
fn combine(acc: u16, succ: u16) -> u16 {
    if succ == CLEAN {
        acc
    } else {
        acc.min(succ.saturating_add(1).min(DOOMED))
    }
}

/// One state on the walk's call stack.
struct Frame {
    /// The state's slot.
    slot: usize,
    /// Start of the state's successors in [`Walk::succs`]; they run to
    /// the end of it while the state is on top.
    lo: usize,
    /// The next successor to visit.
    cursor: usize,
    /// Tarjan's visit index.
    index: u32,
    /// Tarjan's lowlink: the least index of an open state it reaches.
    low: u32,
    /// The provisional label: the state's own bad action and its
    /// complete successors folded in.
    label: u16,
    /// Whether the state has an edge to itself.
    self_loop: bool,
}

/// The walk passed the explorer's state or edge cap.
struct Overflow;

/// One labeling pass over a range of roots: Tarjan's algorithm, with a
/// state's label in [`CellLabels`] once its SCC completes and its
/// index, while the SCC is open, in a map that holds only the states on
/// the walk's stacks (a few dozen at n = 8), so the walk allocates
/// nothing per state.
struct Walk<'w, 'a, A: Algorithm + ?Sized> {
    explorer: &'w Explorer<'a, A, CrashSemantics>,
    labels: &'w mut CellLabels,
    /// `(index, provisional label)` of each visited state whose SCC is
    /// still open, by slot; the label is current once its frame is
    /// popped.
    active: PackedKeyMap<(u32, u16)>,
    /// The last index issued.
    next: u32,
    frames: Vec<Frame>,
    /// Successors `(class id, crash mask)` of the states on `frames`.
    succs: Vec<(u32, u16)>,
    /// Popped states whose SCC is still open, in visit order.
    open: Vec<usize>,
    /// Cyclic SCCs decided by Phase D.
    products: u64,
}

impl<A: Algorithm + ?Sized> Walk<'_, '_, A> {
    /// The slot of state `(class, crashed)`, growing the labels to hold
    /// the class.
    fn slot(&mut self, class: u32, crashed: u16) -> usize {
        let width = self.labels.width;
        let end = (class as usize + 1) * width;
        if end > self.labels.slots.len() {
            self.labels.slots.resize(end, UNLABELED);
        }
        class as usize * width + self.explorer.semantics.rank(crashed)
    }

    /// The `(class id, crash mask)` of `slot`.
    fn state(&self, slot: usize) -> (u32, u16) {
        let width = self.labels.width;
        ((slot / width) as u32, self.explorer.semantics.mask(slot % width))
    }

    /// Labels every state reachable from the root `(class, no crash)`.
    fn walk_root(&mut self, class: u32) -> Result<(), Overflow> {
        let root = self.slot(class, 0);
        if self.labels.slots[root] != UNLABELED {
            return Ok(());
        }
        self.visit(class, 0)?;
        while let Some(top) = self.frames.len().checked_sub(1) {
            let frame = &mut self.frames[top];
            if frame.cursor < self.succs.len() {
                let (class, crashed) = self.succs[frame.cursor];
                frame.cursor += 1;
                let v = frame.slot;
                let w = self.slot(class, crashed);
                let frame = &mut self.frames[top];
                if w == v {
                    frame.self_loop = true;
                } else if self.labels.slots[w] != UNLABELED {
                    frame.label = combine(frame.label, self.labels.slots[w]);
                } else if let Some(&(index, _)) = self.active.get(&(w as u128)) {
                    frame.low = frame.low.min(index);
                } else {
                    // Unvisited: a terminal is labeled at once, an inner
                    // state goes on top.
                    self.visit(class, crashed)?;
                    if self.frames.len() == top + 1 {
                        let frame = &mut self.frames[top];
                        frame.label = combine(frame.label, self.labels.slots[w]);
                    }
                }
            } else {
                let frame = self.frames.pop().expect("a frame is on top");
                self.succs.truncate(frame.lo);
                let done = frame.low == frame.index;
                if done {
                    self.complete(&frame);
                } else {
                    self.active.insert(frame.slot as u128, (frame.index, frame.label));
                    self.open.push(frame.slot);
                }
                if let Some(parent) = self.frames.last_mut() {
                    if done {
                        parent.label = combine(parent.label, self.labels.slots[frame.slot]);
                    } else {
                        parent.low = parent.low.min(frame.low);
                    }
                }
            }
        }
        Ok(())
    }

    /// Enters state `(class, crashed)`: a terminal is labeled at once,
    /// an inner state gets a frame holding its successors up to its
    /// first bad action.
    fn visit(&mut self, class: u32, crashed: u16) -> Result<(), Overflow> {
        let slot = self.slot(class, crashed);
        self.labels.states += 1;
        let explorer = self.explorer;
        let semantics = &explorer.semantics;
        match semantics.classify(explorer.table.node(class), crashed) {
            NodeKind::Goal => self.labels.slots[slot] = CLEAN,
            NodeKind::Stuck => self.labels.slots[slot] = DOOMED,
            NodeKind::Inner => {
                let lo = self.succs.len();
                let (mut label, mut edges) = (CLEAN, 0);
                let succs = &mut self.succs;
                semantics.actions(explorer, class, crashed, |_, target| {
                    // A search counts every edge but a colliding one.
                    edges += usize::from(target != Target::Collides);
                    if let Target::Succ(to, mask) = target {
                        // The search interns a stuck successor before it
                        // refutes, so the walk visits it too.
                        succs.push((to, mask));
                        let node = explorer.table.node(to);
                        if semantics.classify(node, mask) != NodeKind::Stuck {
                            return true;
                        }
                    }
                    label = 0;
                    false
                });
                self.labels.edges += edges;
                self.next += 1;
                let index = self.next;
                self.active.insert(slot as u128, (index, label));
                self.frames.push(Frame {
                    slot,
                    lo,
                    cursor: lo,
                    index,
                    low: index,
                    label,
                    self_loop: false,
                });
            }
        }
        let opts = &explorer.opts;
        if self.labels.states > opts.max_states || self.labels.edges > opts.max_edges {
            return Err(Overflow);
        }
        Ok(())
    }

    /// Completes the SCC rooted at `frame`'s state: the state plus the
    /// open states visited after it. An acyclic singleton's provisional
    /// label is final.
    fn complete(&mut self, frame: &Frame) {
        // The open states visited after the root's, with their labels.
        let open_member = |walk: &Self| {
            let &w = walk.open.last()?;
            let (index, label) = walk.active[&(w as u128)];
            (index > frame.index).then_some((w, label))
        };
        self.active.remove(&(frame.slot as u128));
        if !frame.self_loop && open_member(self).is_none() {
            self.labels.slots[frame.slot] = frame.label;
            return;
        }
        let mut members = vec![(frame.slot, frame.label)];
        while let Some(member) = open_member(self) {
            self.open.pop();
            self.active.remove(&(member.0 as u128));
            members.push(member);
        }
        self.label_cyclic(&mut members);
    }

    /// Calls `each(action, member index, successor class)` for every
    /// edge from member `u` to a member of the sorted `members`, in
    /// action order, up to `u`'s first bad action.
    fn internal_edges(
        &self,
        members: &[usize],
        u: usize,
        mut each: impl FnMut(CrashRound, usize, u32),
    ) {
        let (class, crashed) = self.state(u);
        let semantics = &self.explorer.semantics;
        semantics.actions(self.explorer, class, crashed, |action, target| {
            // Terminal states have no edges, so none is a member. A bad
            // member's distance is 0 whatever edges it lists.
            let Target::Succ(to, mask) = target else { return false };
            let w = to as usize * self.labels.width + semantics.rank(mask);
            if let Ok(i) = members.binary_search(&w) {
                each(action, i, to);
            }
            true
        });
    }

    /// Labels a cyclic SCC from its members' provisional labels (own bad
    /// action and complete successors outside the SCC folded in). If
    /// none is doomed by those, Phase D decides the SCC once; otherwise
    /// distances relax over the SCC's internal edges.
    fn label_cyclic(&mut self, members: &mut [(usize, u16)]) {
        members.sort_unstable();
        let provisional: Vec<u16> = members.iter().map(|&(_, label)| label).collect();
        let members: Vec<usize> = members.iter().map(|&(slot, _)| slot).collect();
        let members = members.as_slice();
        let explorer = self.explorer;
        if provisional.iter().all(|&label| label == CLEAN) {
            let edges: Vec<Vec<ProductEdge>> = members
                .iter()
                .map(|&u| {
                    let (class, crashed) = self.state(u);
                    let node = explorer.table.node(class);
                    let mut out = Vec::new();
                    self.internal_edges(members, u, |action, i, to| {
                        let to = explorer.table.node(to).key;
                        let cert = CrashSemantics::cert(node, crashed, action, to);
                        out.push(ProductEdge { action: pack_action(action), to: i as u32, cert });
                    });
                    out
                })
                .collect();
            let eps = || {
                members
                    .iter()
                    .map(|&u| {
                        let (class, crashed) = self.state(u);
                        explorer.stabilizer_slots(explorer.table.node(class).key, crashed)
                    })
                    .collect()
            };
            let n = explorer.table.node(self.state(members[0]).0).info.robots();
            let label = match fair_pump(&edges, eps, n, || false) {
                Pump::NoFairCycle => CLEAN,
                Pump::Fair(_) | Pump::Undecided => DOOMED,
            };
            self.products += 1;
            for &m in members {
                self.labels.slots[m] = label;
            }
            return;
        }
        // Doomed: shortest distances to a bad state, from each member's
        // provisional distance over the internal edges (Dijkstra on
        // unit weights, over reversed edges).
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); members.len()];
        for (j, &u) in members.iter().enumerate() {
            self.internal_edges(members, u, |_, i, _| preds[i].push(j));
        }
        let mut dist: Vec<u16> = provisional.iter().map(|&label| label.min(DOOMED)).collect();
        let mut heap: BinaryHeap<Reverse<(u16, usize)>> = dist
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d < DOOMED)
            .map(|(i, &d)| Reverse((d, i)))
            .collect();
        while let Some(Reverse((d, i))) = heap.pop() {
            if d > dist[i] {
                continue;
            }
            let via = d.saturating_add(1).min(DOOMED);
            for &j in &preds[i] {
                if via < dist[j] {
                    dist[j] = via;
                    heap.push(Reverse((via, j)));
                }
            }
        }
        for (&m, &d) in members.iter().zip(&dist) {
            self.labels.slots[m] = d;
        }
    }
}

impl<A: Algorithm + ?Sized> Explorer<'_, A, CrashSemantics> {
    /// Builds the node and round table of `initial`'s class, which a
    /// walk from it reads first. Safe to call from many threads: a pool
    /// runs it over a range's roots before [`Self::label`] walks them.
    pub fn prepare(&self, initial: &Configuration) {
        let id = self.class_id(initial.canonical_key());
        if self.table.node(id).info.movers != 0 {
            self.round_steps(id);
        }
    }

    /// Labels every state reachable from `roots` (in their order) that
    /// no earlier call labeled, so that [`Self::check`] can settle them
    /// (DESIGN.md §19). Does nothing while a deadline or a byte budget
    /// is armed, or once a walk has passed the state or edge cap.
    ///
    /// # Panics
    /// Panics if a root is disconnected or holds more robots than the
    /// explorer accepts.
    pub fn label<C: Borrow<Configuration>>(&mut self, roots: impl IntoIterator<Item = C>) {
        if !self.labels_apply() || self.labels.overflowed {
            return;
        }
        let watch = telemetry::Stopwatch::started();
        let mut labels = std::mem::take(&mut self.labels);
        let (states, edges) = (labels.states, labels.edges);
        let mut walk = Walk {
            explorer: self,
            labels: &mut labels,
            active: PackedKeyMap::default(),
            next: 0,
            frames: Vec::new(),
            succs: Vec::new(),
            open: Vec::new(),
            products: 0,
        };
        for root in roots {
            let root = root.borrow();
            self.assert_checkable(root);
            let width = self.semantics.width(root.len());
            if walk.labels.width == 0 {
                walk.labels.width = width;
            }
            let id = self.class_id(root.canonical_key());
            if walk.labels.width != width || walk.walk_root(id).is_err() {
                walk.labels.overflowed = true;
                break;
            }
        }
        let products = walk.products;
        drop(walk);
        if labels.overflowed {
            labels.slots = Vec::new();
        }
        let m = &self.metrics;
        m.graph_states.add((labels.states - states) as u64);
        m.graph_edges.add((labels.edges - edges) as u64);
        m.graph_products.add(products);
        self.labels = labels;
        watch.flush(&m.graph_ns);
    }
}

impl<A: Algorithm + ?Sized, S: Semantics> Explorer<'_, A, S> {
    /// Whether labels may decide classes: no deadline and no byte
    /// budget is armed, so a per-class search could trip only a state
    /// or edge cap, and the walk checks those.
    fn labels_apply(&self) -> bool {
        self.opts.class_timeout.is_none() && self.opts.mem_budget.is_none()
    }

    /// Classifies `initial` under the exhaustive adversary of this
    /// instantiation.
    ///
    /// A root that a walk ([`Self::label`]) reached, while the labels
    /// apply, is settled from its label (DESIGN.md §19): a proof with no
    /// search; a refutation by the tight BFS, the search kept to the
    /// root's shortest paths to a bad state (the same schedule and
    /// outcome, from fewer states); a stuck root; or a doomed root with
    /// no distance, whose search skips every clean successor (the same
    /// verdict, from fewer states). Every other root runs the plain
    /// search, as every ASYNC root does: no walk labels that semantics.
    ///
    /// # Panics
    /// Panics if `initial` is disconnected or holds more robots than
    /// this explorer was built for (see [`Self::new`]).
    #[must_use]
    pub fn check(&self, initial: &Configuration) -> ExploreReport {
        self.assert_checkable(initial);
        let (m, labels, semantics) = (&self.metrics, &self.labels, &self.semantics);
        let root = semantics.root_aux();
        // Width 0 means no walk labeled this explorer. It is tested on its
        // own because ASYNC's `Semantics::width` is 0 as well, and no
        // ASYNC aux has a rank.
        let live = labels.width != 0
            && labels.width == semantics.width(initial.len())
            && !labels.overflowed
            && self.labels_apply();
        let plain = || self.search(|search| search.run(initial, |_, _, _| true));
        let label = if live {
            let id = self.class_id(initial.canonical_key());
            if semantics.classify(self.table.node(id), root) == NodeKind::Stuck {
                m.decided_stuck_root.inc();
                return plain();
            }
            labels.of(semantics, id, root)
        } else {
            UNLABELED
        };
        match label {
            UNLABELED => {
                m.decided_search.inc();
                plain()
            }
            CLEAN => {
                m.decided_graph_proof.inc();
                m.verdict_proof.inc();
                ExploreReport { verdict: ExploreVerdict::Proof, states: 0, edges: 0, deduped: 0 }
            }
            // A clean state reaches only clean states, so dropping them
            // keeps every doomed state's BFS parent, every doomed SCC and
            // Tarjan's order among them: Phase D stitches the same lasso
            // (DESIGN.md §19, point 6).
            DOOMED => {
                m.decided_doomed_search.inc();
                self.search(|search| {
                    search.run(initial, |_, to, aux| labels.of(semantics, to, aux) != CLEAN)
                })
            }
            // The tight BFS (DESIGN.md §19, point 2): level `k < dist`
            // keeps the successors at distance `dist - k - 1`, and level
            // `dist`, whose states are bad, only a stuck one. Every tight
            // parent of a tight state is in the full BFS's level before
            // it, so tight states keep their full-BFS order and parents,
            // and the first bad action of the first level-`dist` state is
            // the full BFS's refutation.
            dist => {
                m.decided_tight_bfs.inc();
                let dist = usize::from(dist);
                self.search(|search| {
                    let verdict = search.run(initial, |level, to, aux| {
                        if level < dist {
                            usize::from(labels.of(semantics, to, aux)) == dist - level - 1
                        } else {
                            semantics.classify(self.table.node(to), aux) == NodeKind::Stuck
                        }
                    });
                    assert!(
                        matches!(verdict, ExploreVerdict::Refuted { .. }),
                        "a root at a finite distance refutes at that level"
                    );
                    verdict
                })
            }
        }
    }
}
