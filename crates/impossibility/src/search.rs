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

use crate::sim::{simulate_tracked, SimResult};
use crate::table::{RuleTable, TableAlgorithm, ACTIONS};
use robots::{engine, Configuration, Limits, Outcome};
use serde::{Deserialize, Serialize};
use trigrid::Coord;

/// Statistics of one DFS run.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
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
    depth: usize,
    stats: &mut SearchStats,
    budget: &mut u64,
) -> DfsOutcome {
    let cache = fresh_cache(table, classes, stats);
    dfs_cached(table, classes, &cache, depth, stats, budget)
}

/// Conflict-directed DFS with watched-reads caching (see module docs).
fn dfs_cached(
    table: &mut RuleTable,
    classes: &[Configuration],
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

    // Fail-first scan using the cached verdicts.
    let mut branch: Option<u8> = None;
    for (res, reads) in cache {
        match res {
            SimResult::Gathers => {}
            SimResult::Fails(_) => return DfsOutcome::Refuted(*reads),
            SimResult::NeedsBranch(v) => {
                if branch.is_none() {
                    branch = Some(*v);
                }
            }
        }
    }
    let Some(v) = branch else {
        return DfsOutcome::Sat(table.clone());
    };

    let vbit = 1u64 << v;
    let mut conflict_acc: u64 = 0;
    for action in ACTIONS {
        table.assign(v, action);
        // Refresh only the classes whose verdict watched view v.
        let mut child_cache = cache.clone();
        for (entry, class) in child_cache.iter_mut().zip(classes) {
            if affected(entry, v) {
                stats.simulations += 1;
                *entry = simulate_tracked(class, table);
            }
        }
        let sub = dfs_cached(table, classes, &child_cache, depth + 1, stats, budget);
        table.unassign(v);
        match sub {
            DfsOutcome::Sat(t) => return DfsOutcome::Sat(t),
            DfsOutcome::Budget => return DfsOutcome::Budget,
            DfsOutcome::Refuted(c) => {
                if c & vbit == 0 {
                    // The refutation does not involve v: every sibling
                    // fails identically — backjump.
                    stats.backjumps += 1;
                    return DfsOutcome::Refuted(c);
                }
                conflict_acc |= c & !vbit;
            }
        }
    }
    DfsOutcome::Refuted(conflict_acc)
}

/// Collects the open frontier of the DFS at `depth_limit` as
/// `(view, action)` paths; `Err` carries a satisfying table if one is
/// found during collection.
fn collect_frontier(
    table: &mut RuleTable,
    classes: &[Configuration],
    depth_limit: usize,
    path: &mut Vec<(u8, u8)>,
    out: &mut Vec<Vec<(u8, u8)>>,
    stats: &mut SearchStats,
) -> Result<(), RuleTable> {
    stats.nodes += 1;
    let mut branch: Option<u8> = None;
    for class in classes {
        stats.simulations += 1;
        let (res, _) = simulate_tracked(class, table);
        match res {
            SimResult::Gathers => {}
            SimResult::Fails(_) => return Ok(()), // refuted leaf
            SimResult::NeedsBranch(v) => {
                if branch.is_none() {
                    branch = Some(v);
                }
            }
        }
    }
    let Some(v) = branch else {
        return Err(table.clone());
    };
    if path.len() == depth_limit {
        out.push(path.clone());
        return Ok(());
    }
    for action in ACTIONS {
        table.assign(v, action);
        path.push((v, action));
        let r = collect_frontier(table, classes, depth_limit, path, out, stats);
        path.pop();
        table.unassign(v);
        r?;
    }
    Ok(())
}

/// Parallel exhaustive DFS below a shallow frontier; early-exits on SAT.
fn dfs_parallel(
    base: &RuleTable,
    classes: &[Configuration],
    stats: &mut SearchStats,
) -> Option<RuleTable> {
    let mut table = base.clone();
    let mut path = Vec::new();
    let mut frontier = Vec::new();
    // Depth 4 gives up to 7^4 = 2401 subtrees; `par_find_min` claims
    // one at a time, which smooths out the (massively skewed) subtree
    // costs.
    if let Err(solution) = collect_frontier(&mut table, classes, 4, &mut path, &mut frontier, stats)
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
        for &(bits, action) in path {
            t.assign(bits, action);
        }
        let mut local = SearchStats::default();
        let mut budget = u64::MAX;
        let out = dfs(&mut t, classes, path.len(), &mut local, &mut budget);
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

/// Conflict-directed DFS restricted to **mirror-symmetric** tables:
/// assigning view `v` simultaneously assigns `mirror(v)` the mirrored
/// action; mirror-fixed views only take mirror-fixed actions (stay, E,
/// W). Exhausting this tree proves the *restricted* Theorem 1: no
/// mirror-symmetric visibility-1 algorithm gathers every class.
fn dfs_symmetric(
    table: &mut RuleTable,
    classes: &[Configuration],
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

    let mut branch: Option<u8> = None;
    for (res, reads) in cache {
        match res {
            SimResult::Gathers => {}
            SimResult::Fails(_) => return DfsOutcome::Refuted(*reads),
            SimResult::NeedsBranch(v) => {
                if branch.is_none() {
                    branch = Some(*v);
                }
            }
        }
    }
    let Some(v) = branch else {
        return DfsOutcome::Sat(table.clone());
    };

    let m = mirror_view_bits(v);
    let pair_mask = (1u64 << v) | (1u64 << m);
    let mut conflict_acc: u64 = 0;
    for action in ACTIONS {
        if m == v && mirror_action(action) != action {
            continue; // a mirror-fixed view needs a mirror-fixed action
        }
        table.assign(v, action);
        table.assign(m, mirror_action(action));
        let mut child_cache = cache.clone();
        for (entry, class) in child_cache.iter_mut().zip(classes) {
            if affected(entry, v) || affected(entry, m) {
                stats.simulations += 1;
                *entry = simulate_tracked(class, table);
            }
        }
        let sub = dfs_symmetric(table, classes, &child_cache, depth + 1, stats, budget);
        table.unassign(v);
        if m != v {
            table.unassign(m);
        }
        match sub {
            DfsOutcome::Sat(t) => return DfsOutcome::Sat(t),
            DfsOutcome::Budget => return DfsOutcome::Budget,
            DfsOutcome::Refuted(c) => {
                if c & pair_mask == 0 {
                    stats.backjumps += 1;
                    return DfsOutcome::Refuted(c);
                }
                conflict_acc |= c & !pair_mask;
            }
        }
    }
    DfsOutcome::Refuted(conflict_acc)
}

/// Mirrors a configuration across the x-axis.
fn mirror_config(c: &Configuration) -> Configuration {
    c.positions().iter().map(|&p| trigrid::transform::mirror_x(p)).collect()
}

/// Proves the *restricted* Theorem 1 for mirror-symmetric algorithms:
/// no visibility-1 rule table satisfying
/// `action(mirror(view)) = mirror(action(view))` gathers seven robots
/// from every connected initial configuration.
///
/// Same CEGIS structure as [`prove_impossibility`]; because candidates
/// are symmetric, every counterexample is added together with its
/// mirror image.
///
/// # Panics
/// Panics on budget exhaustion (`sat_hunt_budget` bounds each round's
/// whole search here) or if a symmetric algorithm solves everything.
#[must_use]
pub fn prove_impossibility_symmetric(sat_hunt_budget: u64, progress: bool) -> Certificate {
    let mut core = seed_classes();
    let mut stats = SearchStats::default();
    let mut cegis_rounds = 0;

    loop {
        cegis_rounds += 1;
        let mut table = RuleTable::with_forced_stays();
        let mut budget = sat_hunt_budget;
        let cache = fresh_cache(&table, &core, &mut stats);
        match dfs_symmetric(&mut table, &core, &cache, 0, &mut stats, &mut budget) {
            DfsOutcome::Budget => panic!("symmetric search budget exhausted"),
            DfsOutcome::Refuted(_) => {
                if progress {
                    eprintln!(
                        "SYMMETRIC UNSAT with {} core classes after {} CEGIS rounds ({} nodes, {} sims, {} backjumps)",
                        core.len(),
                        cegis_rounds,
                        stats.nodes,
                        stats.simulations,
                        stats.backjumps
                    );
                }
                return Certificate { core_classes: core, cegis_rounds, stats };
            }
            DfsOutcome::Sat(surviving) => {
                let candidate = surviving.complete_with_stay();
                let counterexamples = find_counterexamples(&candidate, 7, 2);
                assert!(
                    !counterexamples.is_empty(),
                    "a symmetric visibility-1 algorithm gathered everything — even the restricted Theorem 1 would be false"
                );
                if progress {
                    eprintln!(
                        "symmetric round {cegis_rounds}: candidate with {} moving views survives; adding {} counterexamples (+mirrors)",
                        candidate.moving_views().len(),
                        counterexamples.len()
                    );
                }
                for cls in counterexamples {
                    core.insert(0, mirror_config(&cls).canonical());
                    core.insert(0, cls);
                }
            }
        }
    }
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

/// Proves Theorem 1 mechanically: no total visibility-1 rule table
/// gathers seven robots from every connected initial configuration.
///
/// Each CEGIS round first hunts a satisfying table sequentially with a
/// bounded conflict-directed DFS; on budget exhaustion it switches to
/// the parallel exhaustive search. When the DFS exhausts the whole tree
/// the theorem is proved and a [`Certificate`] returned.
///
/// # Panics
/// Panics if a candidate algorithm gathers from every class (which
/// would *disprove* the paper's Theorem 1).
#[must_use]
pub fn prove_impossibility(sat_hunt_budget: u64, progress: bool) -> Certificate {
    let mut core = seed_classes();
    let mut stats = SearchStats::default();
    let mut cegis_rounds = 0;

    loop {
        cegis_rounds += 1;
        let mut table = RuleTable::with_forced_stays();
        let mut budget = sat_hunt_budget;
        let outcome = match dfs(&mut table, &core, 0, &mut stats, &mut budget) {
            DfsOutcome::Budget => {
                if progress {
                    eprintln!(
                        "round {cegis_rounds}: SAT hunt budget exhausted, switching to parallel exhaustive search over {} classes",
                        core.len()
                    );
                }
                dfs_parallel(&RuleTable::with_forced_stays(), &core, &mut stats)
            }
            DfsOutcome::Sat(t) => Some(t),
            DfsOutcome::Refuted(_) => None,
        };
        match outcome {
            None => {
                if progress {
                    eprintln!(
                        "UNSAT with {} core classes after {} CEGIS rounds ({} nodes, {} sims, {} backjumps)",
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
                let counterexamples = find_counterexamples(&candidate, 7, 4);
                assert!(
                    !counterexamples.is_empty(),
                    "a visibility-1 algorithm gathered all 3652 classes — Theorem 1 would be false"
                );
                if progress {
                    eprintln!(
                        "round {cegis_rounds}: candidate with {} moving views survives; adding {} counterexamples",
                        candidate.moving_views().len(),
                        counterexamples.len()
                    );
                }
                // Newest counterexamples first: they refute the most
                // recent candidate family early in the scan.
                for cls in counterexamples {
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
        let mut table = RuleTable::empty().complete_with_stay();
        let classes = seed_classes();
        let mut stats = SearchStats::default();
        let mut budget = 1_000;
        assert!(matches!(
            dfs(&mut table, &classes, 0, &mut stats, &mut budget),
            DfsOutcome::Refuted(_)
        ));
        assert!(stats.simulations >= 1);
    }

    #[test]
    fn dfs_finds_trivial_solution_for_the_hexagon_alone() {
        let mut table = RuleTable::with_forced_stays();
        let classes = vec![robots::hexagon(trigrid::ORIGIN)];
        let mut stats = SearchStats::default();
        let mut budget = 1_000;
        match dfs(&mut table, &classes, 0, &mut stats, &mut budget) {
            DfsOutcome::Sat(t) => {
                for bits in crate::table::gathered_views() {
                    assert_eq!(t.get(bits), Some(STAY));
                }
            }
            _ => panic!("hexagon alone is satisfiable"),
        }
    }

    #[test]
    fn dfs_respects_budget() {
        let mut table = RuleTable::with_forced_stays();
        let classes = seed_classes();
        let mut stats = SearchStats::default();
        let mut budget = 1; // one node, guaranteed to need branching
        assert!(matches!(
            dfs(&mut table, &classes, 0, &mut stats, &mut budget),
            DfsOutcome::Budget | DfsOutcome::Sat(_)
        ));
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
    fn refutation_conflicts_are_subsets_of_assigned_views() {
        // A stay-only table fails on a line purely via the views it read.
        let mut table = RuleTable::empty().complete_with_stay();
        let classes = seed_classes();
        let mut stats = SearchStats::default();
        let mut budget = 10;
        if let DfsOutcome::Refuted(c) = dfs(&mut table, &classes, 0, &mut stats, &mut budget) {
            assert_ne!(c, 0, "a concrete failing simulation reads at least one view");
        } else {
            panic!("expected refutation");
        }
    }
}

#[cfg(test)]
mod symmetric_tests {
    use super::*;

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
}

#[cfg(test)]
mod theorem_tests {
    use super::*;

    #[test]
    fn restricted_theorem1_mirror_symmetric_algorithms_cannot_gather() {
        // Completes in microseconds: mirror-fixed views only admit
        // mirror-fixed actions (stay/E/W), which confine the x-axis line
        // to its own row — the hexagon needs three rows.
        let cert = prove_impossibility_symmetric(u64::MAX, false);
        assert!(cert.stats.nodes > 0);
        assert!(!cert.core_classes.is_empty());
    }
}
