//! The impossibility search: conflict-directed DFS over partial rule
//! tables, wrapped in a CEGIS loop.
//!
//! ## Why this is a proof
//!
//! * The DFS branches on the first view an execution needs; a failing
//!   execution refutes **every** completion of the current partial
//!   table, because the deterministic prefix only depends on the entries
//!   already assigned.
//! * [`crate::sim::simulate_tracked`] reports exactly which views a
//!   verdict depends on, so refutations *backjump*: if a subtree's
//!   refutation does not mention the branched view, its siblings are
//!   refuted by the same conflict and are skipped (conflict-directed
//!   backjumping, CBJ).
//! * UNSAT on a subset of the required initial classes is sound for
//!   UNSAT on all of them, so the CEGIS loop grows the class core only
//!   as far as needed.
//!
//! One search proves both forms of Theorem 1: a [`Symmetry`] names the
//! views each branch assigns together, one view ([`Symmetry::None`], every
//! table) or a view and its mirror image ([`Symmetry::Mirror`], the
//! mirror-symmetric tables only).

use crate::sim::{simulate_tracked, SimResult};
use crate::table::{RuleTable, TableAlgorithm, ACTIONS};
use robots::{engine, Configuration, Limits, Outcome};
use serde::{Deserialize, Serialize};
use trigrid::Coord;

/// Statistics of one DFS run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct SearchStats {
    /// DFS nodes visited (branch points).
    pub nodes: u64,
    /// Simulations executed.
    pub simulations: u64,
    /// Maximum branching depth reached.
    pub max_depth: usize,
    /// Backjumps taken (siblings skipped thanks to CBJ).
    pub backjumps: u64,
}

impl SearchStats {
    fn absorb(&mut self, other: SearchStats) {
        self.nodes += other.nodes;
        self.simulations += other.simulations;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.backjumps += other.backjumps;
    }
}

/// The result of a completed impossibility proof.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Certificate {
    /// The initial classes that jointly admit no algorithm. UNSAT on
    /// this subset is sound for UNSAT on all connected classes.
    pub core_classes: Vec<Configuration>,
    /// CEGIS iterations (candidate algorithms refuted by counterexample
    /// extension).
    pub cegis_rounds: usize,
    /// Accumulated DFS statistics.
    pub stats: SearchStats,
}

/// Which views one DFS branch assigns together: the table space a proof
/// searches.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Symmetry {
    /// Each view is a branch of its own: every rule table (Theorem 1).
    None,
    /// A view and its mirror image across the x-axis are assigned
    /// together, the mirror taking the mirrored action: only the
    /// mirror-symmetric tables (the restricted Theorem 1).
    Mirror,
}

/// One DFS branch as `(view, action)` assignments: the branched view's,
/// then its partner's.
type Branch = [(u8, u8); 2];

impl Symmetry {
    /// The branches on view `v`. The partner of `(v, action)` is itself
    /// under [`Symmetry::None`], and the mirror image with the mirrored
    /// action under [`Symmetry::Mirror`]; a self-paired view takes only
    /// self-paired actions (stay, E and W).
    fn branches(self, v: u8) -> impl Iterator<Item = Branch> {
        ACTIONS.into_iter().filter_map(move |action| {
            let partner = match self {
                Symmetry::None => (v, action),
                Symmetry::Mirror => (mirror_view_bits(v), mirror_action(action)),
            };
            (partner.0 != v || partner.1 == action).then_some([(v, action), partner])
        })
    }
}

/// Outcome of a (possibly budget-limited) DFS.
enum DfsOutcome {
    /// A partial table satisfying every class in the core.
    Sat(RuleTable),
    /// The subtree is exhausted; the refutation depends only on the
    /// views in this mask (conflict set for backjumping).
    Refuted(u64),
    /// The node budget ran out before a verdict.
    Budget,
}

/// Per-class simulation cache: the verdict and its read set. An entry
/// stays valid after assigning view `v` unless the simulation read `v`
/// (or was waiting to branch on it) — the watched-reads rule.
type ClassCache = Vec<(SimResult, u64)>;

fn affected(entry: &(SimResult, u64), v: u8) -> bool {
    entry.1 & (1u64 << v) != 0 || matches!(entry.0, SimResult::NeedsBranch(u) if u == v)
}

/// The fail-first scan over the classes' verdicts: `Err` carries the
/// read set of the first failure, `Ok` the first view a verdict needs
/// (`None` if every class gathers).
fn first_branch(verdicts: impl IntoIterator<Item = (SimResult, u64)>) -> Result<Option<u8>, u64> {
    let mut branch = None;
    for (res, reads) in verdicts {
        match res {
            SimResult::Gathers => {}
            SimResult::Fails(_) => return Err(reads),
            SimResult::NeedsBranch(v) => {
                branch.get_or_insert(v);
            }
        }
    }
    Ok(branch)
}

/// Simulates every class from scratch.
fn fresh_cache(
    table: &RuleTable,
    classes: &[Configuration],
    stats: &mut SearchStats,
) -> ClassCache {
    classes
        .iter()
        .map(|c| {
            stats.simulations += 1;
            simulate_tracked(c, table)
        })
        .collect()
}

/// Entry point for the conflict-directed DFS.
fn dfs(
    table: &mut RuleTable,
    classes: &[Configuration],
    sym: Symmetry,
    depth: usize,
    stats: &mut SearchStats,
    budget: &mut u64,
) -> DfsOutcome {
    let cache = fresh_cache(table, classes, stats);
    dfs_cached(table, classes, sym, &cache, depth, stats, budget)
}

/// Conflict-directed DFS with watched-reads caching (see module docs).
/// Each branch assigns a view and its partner under `sym`.
fn dfs_cached(
    table: &mut RuleTable,
    classes: &[Configuration],
    sym: Symmetry,
    cache: &ClassCache,
    depth: usize,
    stats: &mut SearchStats,
    budget: &mut u64,
) -> DfsOutcome {
    stats.nodes += 1;
    stats.max_depth = stats.max_depth.max(depth);
    if *budget == 0 {
        return DfsOutcome::Budget;
    }
    *budget -= 1;

    let v = match first_branch(cache.iter().copied()) {
        Err(reads) => return DfsOutcome::Refuted(reads),
        Ok(None) => return DfsOutcome::Sat(table.clone()),
        Ok(Some(v)) => v,
    };

    let mut conflict_acc: u64 = 0;
    for [(_, action), (m, m_action)] in sym.branches(v) {
        let pair = (1u64 << v) | (1u64 << m);
        table.assign(v, action);
        table.assign(m, m_action);
        // Refresh only the classes whose verdict watched either view.
        let mut child_cache = cache.clone();
        for (entry, class) in child_cache.iter_mut().zip(classes) {
            if affected(entry, v) || affected(entry, m) {
                stats.simulations += 1;
                *entry = simulate_tracked(class, table);
            }
        }
        let sub = dfs_cached(table, classes, sym, &child_cache, depth + 1, stats, budget);
        table.unassign(v);
        table.unassign(m);
        match sub {
            DfsOutcome::Sat(t) => return DfsOutcome::Sat(t),
            DfsOutcome::Budget => return DfsOutcome::Budget,
            DfsOutcome::Refuted(c) => {
                if c & pair == 0 {
                    // The refutation involves neither view: every
                    // sibling fails identically — backjump.
                    stats.backjumps += 1;
                    return DfsOutcome::Refuted(c);
                }
                conflict_acc |= c & !pair;
            }
        }
    }
    DfsOutcome::Refuted(conflict_acc)
}

/// Collects the open frontier of the DFS at `depth_limit` as paths of
/// branches under `sym`; `Err` carries a satisfying table if one is
/// found during collection.
fn collect_frontier(
    table: &mut RuleTable,
    classes: &[Configuration],
    sym: Symmetry,
    depth_limit: usize,
    path: &mut Vec<Branch>,
    out: &mut Vec<Vec<Branch>>,
    stats: &mut SearchStats,
) -> Result<(), RuleTable> {
    stats.nodes += 1;
    // Simulated lazily: the scan stops at the first failure.
    let verdicts = classes.iter().map(|class| {
        stats.simulations += 1;
        simulate_tracked(class, table)
    });
    let v = match first_branch(verdicts) {
        Err(_) => return Ok(()), // refuted leaf
        Ok(None) => return Err(table.clone()),
        Ok(Some(v)) => v,
    };
    if path.len() == depth_limit {
        out.push(path.clone());
        return Ok(());
    }
    for branch @ [(_, action), (m, m_action)] in sym.branches(v) {
        table.assign(v, action);
        table.assign(m, m_action);
        path.push(branch);
        let r = collect_frontier(table, classes, sym, depth_limit, path, out, stats);
        path.pop();
        table.unassign(v);
        table.unassign(m);
        r?;
    }
    Ok(())
}

/// Parallel exhaustive DFS below a shallow frontier; early-exits on SAT.
fn dfs_parallel(
    base: &RuleTable,
    classes: &[Configuration],
    sym: Symmetry,
    stats: &mut SearchStats,
) -> Option<RuleTable> {
    let mut table = base.clone();
    let mut path = Vec::new();
    let mut frontier = Vec::new();
    // Depth 4 gives up to 7^4 = 2401 subtrees; `par_find_min` claims
    // one at a time, which smooths out the (massively skewed) subtree
    // costs.
    if let Err(solution) =
        collect_frontier(&mut table, classes, sym, 4, &mut path, &mut frontier, stats)
    {
        return Some(solution);
    }
    if frontier.is_empty() {
        return None;
    }
    use parking_lot::Mutex;
    let task_stats: Mutex<SearchStats> = Mutex::new(SearchStats::default());
    let found = parallel::par_find_min(&frontier, 0, |path| {
        let mut t = base.clone();
        for &(v, action) in path.iter().flatten() {
            t.assign(v, action);
        }
        let mut local = SearchStats::default();
        let mut budget = u64::MAX;
        let out = dfs(&mut t, classes, sym, path.len(), &mut local, &mut budget);
        task_stats.lock().absorb(local);
        match out {
            DfsOutcome::Sat(t) => Some(t),
            DfsOutcome::Refuted(_) => None,
            DfsOutcome::Budget => unreachable!("unbounded task budget"),
        }
    });
    stats.absorb(task_stats.into_inner());
    found.map(|(_, t)| t)
}

/// Runs a total candidate algorithm over all connected `n`-robot
/// classes and returns up to `want` classes it does not gather from,
/// spread across the enumeration (consecutive failing classes are often
/// near-identical shapes; spreading them adds more independent
/// constraints per CEGIS round).
fn find_counterexamples(candidate: &RuleTable, n: usize, want: usize) -> Vec<Configuration> {
    let algo = TableAlgorithm::new(candidate);
    let limits = Limits { max_rounds: 4000, detect_livelock: true };
    let mut failing: Vec<Configuration> = Vec::new();
    polyhex::for_each_fixed(n, |cells| {
        let initial: Configuration = cells.iter().copied().collect();
        let ex = engine::run(&initial, &algo, limits);
        if !matches!(ex.outcome, Outcome::Gathered { .. }) {
            failing.push(initial);
        }
    });
    if failing.len() <= want {
        return failing;
    }
    let step = failing.len() / want;
    failing.into_iter().step_by(step.max(1)).take(want).collect()
}

/// Mirror of a 6-bit view across the x-axis: E↔E, NE↔SE, NW↔SW, W↔W
/// (bit order is `Dir::ALL`: E, NE, NW, W, SW, SE).
#[must_use]
pub fn mirror_view_bits(v: u8) -> u8 {
    (v & 0b001001) // E and W stay
        | ((v & 0b000010) << 4) // NE -> SE
        | ((v & 0b100000) >> 4) // SE -> NE
        | ((v & 0b000100) << 2) // NW -> SW
        | ((v & 0b010000) >> 2) // SW -> NW
}

/// Mirror of an encoded action across the x-axis.
#[must_use]
pub fn mirror_action(code: u8) -> u8 {
    match crate::table::decode(code) {
        None => crate::table::STAY,
        Some(d) => crate::table::encode(Some(d.mirror_x())),
    }
}

/// Mirrors a configuration across the x-axis.
fn mirror_config(c: &Configuration) -> Configuration {
    c.positions().iter().map(|&p| trigrid::transform::mirror_x(p)).collect()
}

/// Seed classes that constrain the search quickly: the three line
/// orientations of seven robots (the paper's proof also starts from
/// lines, Fig. 4).
#[must_use]
pub fn seed_classes() -> Vec<Configuration> {
    let line = |dx: i32, dy: i32| -> Configuration {
        (0..7).map(|i| Coord::new(i * dx, i * dy)).collect()
    };
    vec![
        line(2, 0),  // E–W line
        line(1, 1),  // SW–NE line
        line(-1, 1), // SE–NW line (the Fig. 4 diagonal)
    ]
}

/// Proves Theorem 1 mechanically over the tables `sym` admits: no
/// visibility-1 rule table gathers seven robots from every connected
/// initial configuration. Under [`Symmetry::Mirror`] this is the
/// *restricted* Theorem 1, over the tables satisfying
/// `action(mirror(view)) = mirror(action(view))`.
///
/// Each CEGIS round first hunts a satisfying table sequentially with a
/// conflict-directed DFS of at most `sat_hunt_budget` nodes; on budget
/// exhaustion it switches to the parallel exhaustive search. A
/// surviving table, completed with stays, adds the classes it fails to
/// gather from to the core: 4 per round, or under `Mirror` 2 plus their
/// mirror images (a symmetric candidate fails on both). When the DFS
/// exhausts the whole tree the theorem is proved and a [`Certificate`]
/// returned.
///
/// # Panics
/// Panics if a candidate algorithm gathers from every class (which
/// would *disprove* the paper's Theorem 1).
#[must_use]
pub fn prove_impossibility(sym: Symmetry, sat_hunt_budget: u64, progress: bool) -> Certificate {
    // The progress lines' labels, and the counterexamples each round adds.
    let (round, unsat, want, plus) = match sym {
        Symmetry::None => ("round", "UNSAT", 4, ""),
        Symmetry::Mirror => ("symmetric round", "SYMMETRIC UNSAT", 2, " (+mirrors)"),
    };
    let mut core = seed_classes();
    let mut stats = SearchStats::default();
    let mut cegis_rounds = 0;

    loop {
        cegis_rounds += 1;
        let mut table = RuleTable::with_forced_stays();
        let mut budget = sat_hunt_budget;
        let outcome = match dfs(&mut table, &core, sym, 0, &mut stats, &mut budget) {
            DfsOutcome::Budget => {
                if progress {
                    eprintln!(
                        "{round} {cegis_rounds}: SAT hunt budget exhausted, switching to parallel exhaustive search over {} classes",
                        core.len()
                    );
                }
                dfs_parallel(&RuleTable::with_forced_stays(), &core, sym, &mut stats)
            }
            DfsOutcome::Sat(t) => Some(t),
            DfsOutcome::Refuted(_) => None,
        };
        match outcome {
            None => {
                if progress {
                    eprintln!(
                        "{unsat} with {} core classes after {} CEGIS rounds ({} nodes, {} sims, {} backjumps)",
                        core.len(),
                        cegis_rounds,
                        stats.nodes,
                        stats.simulations,
                        stats.backjumps
                    );
                }
                return Certificate { core_classes: core, cegis_rounds, stats };
            }
            Some(surviving) => {
                let candidate = surviving.complete_with_stay();
                let counterexamples = find_counterexamples(&candidate, 7, want);
                assert!(
                    !counterexamples.is_empty(),
                    "a visibility-1 algorithm ({sym:?}) gathered all 3652 classes — Theorem 1 would be false"
                );
                if progress {
                    eprintln!(
                        "{round} {cegis_rounds}: candidate with {} moving views survives; adding {} counterexamples{plus}",
                        candidate.moving_views().len(),
                        counterexamples.len()
                    );
                }
                // Newest counterexamples first: they refute the most
                // recent candidate family early in the scan.
                for cls in counterexamples {
                    if sym == Symmetry::Mirror {
                        core.insert(0, mirror_config(&cls).canonical());
                    }
                    core.insert(0, cls);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::STAY;

    #[test]
    fn seed_classes_are_connected_lines() {
        for c in seed_classes() {
            assert_eq!(c.len(), 7);
            assert!(c.is_connected());
            assert_eq!(c.diameter(), 6);
        }
    }

    #[test]
    fn dfs_refutes_stay_only_table_on_a_line() {
        // A stay-only table fails on a line purely via the views it read.
        let mut table = RuleTable::empty().complete_with_stay();
        let mut stats = SearchStats::default();
        let out = dfs(&mut table, &seed_classes(), Symmetry::None, 0, &mut stats, &mut 10);
        let DfsOutcome::Refuted(conflict) = out else { panic!("expected refutation") };
        assert_ne!(conflict, 0, "a concrete failing simulation reads at least one view");
        assert!(stats.simulations >= 1);
    }

    #[test]
    fn dfs_finds_trivial_solution_for_the_hexagon_alone() {
        let mut table = RuleTable::with_forced_stays();
        let classes = vec![robots::hexagon(trigrid::ORIGIN)];
        let mut stats = SearchStats::default();
        let mut budget = 1_000;
        match dfs(&mut table, &classes, Symmetry::None, 0, &mut stats, &mut budget) {
            DfsOutcome::Sat(t) => {
                for bits in crate::table::gathered_views() {
                    assert_eq!(t.get(bits), Some(STAY));
                }
            }
            _ => panic!("hexagon alone is satisfiable"),
        }
    }

    /// Runs the DFS from forced stays on the seed core: the start of the
    /// first CEGIS round. Returns the outcome, its work and the budget left.
    fn seed_search(budget: u64) -> (DfsOutcome, SearchStats, u64) {
        let mut table = RuleTable::with_forced_stays();
        let mut stats = SearchStats::default();
        let mut left = budget;
        let out = dfs(&mut table, &seed_classes(), Symmetry::None, 0, &mut stats, &mut left);
        (out, stats, left)
    }

    #[test]
    fn dfs_budget_work_on_the_seed_core_is_pinned() {
        let (out, stats, _) = seed_search(1000);
        assert!(matches!(out, DfsOutcome::Budget));
        let budget_stats =
            SearchStats { nodes: 1001, simulations: 1529, max_depth: 42, backjumps: 4 };
        assert_eq!(stats, budget_stats);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "a full SAT hunt is release-only")]
    fn dfs_sat_work_on_the_seed_core_is_pinned() {
        let (out, stats, left) = seed_search(100_000);
        let DfsOutcome::Sat(table) = out else { panic!("a table satisfies the three seed lines") };
        assert_eq!(table.assigned(), 58);
        assert_eq!(table.moving_views().len(), 26);
        let sat_stats =
            SearchStats { nodes: 42399, simulations: 64790, max_depth: 53, backjumps: 112 };
        assert_eq!(stats, sat_stats);
        assert_eq!(left, 57601);
    }

    #[test]
    fn frontier_work_on_the_seed_core_is_pinned() {
        let mut table = RuleTable::with_forced_stays();
        let mut stats = SearchStats::default();
        let mut frontier = Vec::new();
        let classes = seed_classes();
        let collected = collect_frontier(
            &mut table,
            &classes,
            Symmetry::None,
            4,
            &mut Vec::new(),
            &mut frontier,
            &mut stats,
        );
        assert!(collected.is_ok(), "no table satisfies the seed core within depth 4");
        assert_eq!(frontier.len(), 252);
        assert_eq!(
            stats,
            SearchStats { nodes: 652, simulations: 1342, max_depth: 0, backjumps: 0 }
        );
        assert_eq!(table, RuleTable::with_forced_stays(), "collection restores the table");
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "two full SAT hunts are release-only")]
    fn parallel_search_finds_the_sequential_table() {
        let (out, _, _) = seed_search(u64::MAX);
        let DfsOutcome::Sat(sequential) = out else {
            panic!("a table satisfies the three seed lines")
        };
        let mut stats = SearchStats::default();
        let parallel = dfs_parallel(
            &RuleTable::with_forced_stays(),
            &seed_classes(),
            Symmetry::None,
            &mut stats,
        );
        assert_eq!(parallel, Some(sequential));
    }

    #[test]
    fn mirror_dfs_work_on_the_diagonals_is_pinned() {
        // The two diagonal lines are each other's mirror images: a
        // 30-deep search whose branches refresh the classes watching
        // either view of the pair.
        let mut table = RuleTable::with_forced_stays();
        let mut stats = SearchStats::default();
        let diagonals = &seed_classes()[1..];
        let out = dfs(&mut table, diagonals, Symmetry::Mirror, 0, &mut stats, &mut 100_000);
        let DfsOutcome::Sat(t) = out else { panic!("a symmetric table satisfies the diagonals") };
        let symmetric = (0..64).all(|v| t.get(v).map(mirror_action) == t.get(mirror_view_bits(v)));
        assert!(symmetric, "every branch assigns a view and its mirror image");
        assert_eq!(t.assigned(), 51);
        let sat_stats =
            SearchStats { nodes: 13235, simulations: 25581, max_depth: 30, backjumps: 0 };
        assert_eq!(stats, sat_stats);
    }

    #[test]
    fn parallel_search_refutes_the_seed_core_under_the_mirror_pairing() {
        // The mirror-symmetric tree ends above the frontier depth, so the
        // frontier walk alone visits the sequential proof's 40 nodes.
        let mut stats = SearchStats::default();
        let classes = seed_classes();
        let found =
            dfs_parallel(&RuleTable::with_forced_stays(), &classes, Symmetry::Mirror, &mut stats);
        assert_eq!(found, None);
        assert_eq!(stats.nodes, 40);
    }

    #[test]
    fn find_counterexamples_for_stay_table() {
        let t = RuleTable::empty().complete_with_stay();
        let cls = find_counterexamples(&t, 7, 4);
        assert_eq!(cls.len(), 4, "stay fails on 3651 classes; four were requested");
        for c in &cls {
            assert!(!c.is_gathered());
        }
    }

    #[test]
    fn mirror_view_bits_is_an_involution() {
        for v in 0..64u8 {
            assert_eq!(mirror_view_bits(mirror_view_bits(v)), v);
            assert_eq!(mirror_view_bits(v).count_ones(), v.count_ones());
        }
        // E-only and W-only are fixed; NE-only maps to SE-only.
        assert_eq!(mirror_view_bits(0b000001), 0b000001);
        assert_eq!(mirror_view_bits(0b001000), 0b001000);
        assert_eq!(mirror_view_bits(0b000010), 0b100000);
    }

    #[test]
    fn mirror_action_is_an_involution() {
        for code in crate::table::ACTIONS {
            assert_eq!(mirror_action(mirror_action(code)), code);
        }
        assert_eq!(mirror_action(crate::table::STAY), crate::table::STAY);
    }

    #[test]
    fn mirrored_configs_are_connected() {
        for c in seed_classes() {
            let m = mirror_config(&c);
            assert!(m.is_connected());
            assert_eq!(m.len(), c.len());
        }
    }

    #[test]
    fn restricted_theorem1_mirror_symmetric_algorithms_cannot_gather() {
        // Completes in microseconds: mirror-fixed views only admit
        // mirror-fixed actions (stay/E/W), which confine the x-axis line
        // to its own row — the hexagon needs three rows.
        let cert = prove_impossibility(Symmetry::Mirror, u64::MAX, false);
        assert_eq!(cert.core_classes, seed_classes());
        assert_eq!(cert.cegis_rounds, 1);
        assert_eq!(
            cert.stats,
            SearchStats { nodes: 40, simulations: 42, max_depth: 3, backjumps: 0 }
        );
    }
}
