//! Equivalence of the labeled cell path with the per-class search.
//!
//! A crash or SSYNC-adversary cell labels its state graph once
//! (`label`), and `check` then settles each class from its label: a
//! proof with no search, a refutation by the tight BFS, a stuck root,
//! or, for the Phase-D refutations, the per-class search over the
//! root's doomed states only (DESIGN.md §19). These tests pin that a
//! labeled checker's `check` returns exactly what a fresh, never-labeled
//! checker's returns — verdict, schedule and outcome — on every class
//! of the small cells and of the n = 8 crash:1 and adversary cells, on
//! two symmetric rules that send the stabilizer dedup and Phase D's
//! ε-edge pass through the walk, the tight BFS and the doomed search,
//! and that the guard sends a class to the plain search when a cap or a
//! byte budget could bind, when no walk reached it, or when its
//! semantics has no labels (ASYNC). The decision-path counters and the
//! work the labeled paths do are pinned too.
//!
//! The n = 7 and n = 8 tests are release-only (`cargo test --release`).

use gathering::SevenGather;
use robots::adversary::{AdversaryOptions, AdversaryVerdict, Checker};
use robots::async_model::{AsyncChecker, AsyncOptions};
use robots::explore::UndecidedReason;
use robots::faults::{CrashChecker, CrashOptions, CrashVerdict};
use robots::{Algorithm, Configuration, FnAlgorithm, View};
use simlab::sweep::{run_sweep, SchedSpec, SweepConfig};
use trigrid::Dir;

fn roots(n: usize) -> Vec<Configuration> {
    polyhex::enumerate_fixed(n).into_iter().map(Configuration::new).collect()
}

/// The five decision-path counters, read through `counter`: graph
/// proofs, tight BFS refutations, unlabeled searches, stuck roots and
/// doomed searches (the Phase-D refutations).
fn paths(counter: impl Fn(&str) -> u64) -> [u64; 5] {
    ["graph_proof", "tight_bfs", "search", "stuck_root", "doomed_search"]
        .map(|path| counter(&format!("explore.decided.{path}")))
}

/// The work counters `(explore.states, explore.edges, explore.deduped)`,
/// read through `counter`: what the decisions interned, counted and
/// skipped by the stabilizer dedup.
fn work(counter: impl Fn(&str) -> u64) -> [u64; 3] {
    ["states", "edges", "deduped"].map(|name| counter(&format!("explore.{name}")))
}

/// Labels every `n`-robot class under the crash budget `f`, then asserts
/// the labeled `check` equals a plain checker's on each; returns the
/// decision-path counters.
fn crash_cell_matches<A: Algorithm + ?Sized>(algo: &A, n: usize, f: u8) -> [u64; 5] {
    let roots = roots(n);
    let opts = CrashOptions::for_robots(f, n);
    let plain = CrashChecker::for_robots(algo, opts, n.max(8));
    let mut labeled = CrashChecker::for_robots(algo, opts, n.max(8));
    for root in &roots {
        labeled.prepare(root);
    }
    labeled.label(&roots);
    for (index, root) in roots.iter().enumerate() {
        let want = plain.check(root);
        let got = labeled.check(root);
        assert_eq!(got.verdict, want.verdict, "{} n={n} crash:{f} class {index}", algo.name());
        if got.verdict == CrashVerdict::Proof {
            assert_eq!(got.states, 0, "a labeled proof searches nothing");
        }
    }
    let snapshot = labeled.metrics_snapshot();
    let counts = paths(|name| snapshot.counter(name));
    assert_eq!(counts.iter().sum::<u64>(), roots.len() as u64, "every class takes one path");
    counts
}

/// [`crash_cell_matches`] for the SSYNC adversary.
fn adversary_cell_matches<A: Algorithm + ?Sized>(algo: &A, n: usize) -> [u64; 5] {
    let roots = roots(n);
    let opts = AdversaryOptions::for_robots(n);
    let plain = Checker::for_robots(algo, opts, n.max(8));
    let mut labeled = Checker::for_robots(algo, opts, n.max(8));
    for root in &roots {
        labeled.prepare(root);
    }
    labeled.label(&roots);
    for (index, root) in roots.iter().enumerate() {
        let want = plain.check(root);
        let got = labeled.check(root);
        assert_eq!(got.verdict, want.verdict, "{} n={n} adversary class {index}", algo.name());
        if got.verdict == AdversaryVerdict::Proof {
            assert_eq!(got.classes, 0, "a labeled proof searches nothing");
        }
    }
    let snapshot = labeled.metrics_snapshot();
    let counts = paths(|name| snapshot.counter(name));
    assert_eq!(counts.iter().sum::<u64>(), roots.len() as u64, "every class takes one path");
    counts
}

#[test]
fn labeled_checks_equal_plain_checks_up_to_six_robots() {
    let algo = SevenGather::verified();
    for n in 1..=6 {
        adversary_cell_matches(&algo, n);
        crash_cell_matches(&algo, n, 1);
        crash_cell_matches(&algo, n, 2);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "n = 7 cells are release-only; run cargo test --release")]
fn labeled_checks_equal_plain_checks_at_seven_robots() {
    let algo = SevenGather::verified();
    assert_eq!(adversary_cell_matches(&algo, 7), [1869, 0, 0, 0, 1783]);
    assert_eq!(crash_cell_matches(&algo, 7, 1), [11, 3641, 0, 0, 0]);
    crash_cell_matches(&algo, 7, 2);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "n = 8 cells are release-only; run cargo test --release")]
fn labeled_checks_equal_plain_checks_at_eight_robots() {
    // The 1347 and 3063 Phase-D refutations take the doomed search.
    let algo = SevenGather::verified();
    assert_eq!(crash_cell_matches(&algo, 8, 1), [5349, 9986, 0, 7, 1347]);
    assert_eq!(adversary_cell_matches(&algo, 8), [8573, 5046, 0, 7, 3063]);
}

#[test]
fn symmetric_rules_take_the_labeled_path_exactly() {
    // `spin` is rotation-equivariant (group C6) and `march` commutes
    // with the mirror that fixes E (a 2-element group): both dedup
    // actions by stabilizers, and `march`'s translations close cycles
    // whose Phase D products take the ε-edge pass.
    let spin = FnAlgorithm::new(1, "spin", |v: &View| {
        (v.robot_count() == 1).then(|| {
            Dir::ALL.into_iter().find(|&d| v.neighbor(d)).expect("one neighbour").rotate_ccw(1)
        })
    });
    let march = FnAlgorithm::new(1, "march", |_: &View| Some(Dir::E));
    for n in 1..=5 {
        for algo in [&spin as &dyn Algorithm, &march] {
            adversary_cell_matches(algo, n);
            crash_cell_matches(algo, n, 1);
            crash_cell_matches(algo, n, 2);
        }
    }
    // Not vacuous: at n = 2 every `spin` root is refuted by the tight
    // BFS, whose stabilizer dedup skips an action per root; at n = 3
    // `spin` dedups actions, its walk decides a cyclic SCC through
    // Phase D, and its Phase-D refutations take the doomed search,
    // which dedups too. The work counters pin what the labeled paths
    // interned, counted and skipped.
    let labeled_spin = |n| {
        let roots = roots(n);
        let mut checker = Checker::for_robots(&spin, AdversaryOptions::for_robots(n), 8);
        checker.label(&roots);
        for root in &roots {
            let _ = checker.check(root);
        }
        checker.metrics_snapshot()
    };
    let snapshot = labeled_spin(2);
    assert_eq!(paths(|name| snapshot.counter(name)), [0, 3, 0, 0, 0], "every root is tight");
    assert_eq!(work(|name| snapshot.counter(name)), [3, 3, 3]);
    let snapshot = labeled_spin(3);
    assert!(snapshot.counter("explore.graph_products") > 0, "a product runs in the walk");
    assert_eq!(paths(|name| snapshot.counter(name))[4], 9, "Phase-D refutations search doomed");
    assert_eq!(work(|name| snapshot.counter(name)), [81, 162, 27]);
}

#[test]
fn a_graph_past_the_state_cap_sends_every_class_to_the_search() {
    // The n = 6 crash:1 graph holds thousands of states; a cap of half
    // the largest search stops the walk, so every class is checked, and
    // the classes whose own search passes the cap stay undecided
    // exactly as `check` says.
    let algo = SevenGather::verified();
    let roots = roots(6);
    let mut opts = CrashOptions::for_robots(1, 6);
    let uncapped = CrashChecker::for_robots(&algo, opts, 8);
    let largest = roots.iter().map(|root| uncapped.check(root).states).max().expect("classes");
    opts.explore.max_states = largest / 2;
    let plain = CrashChecker::for_robots(&algo, opts, 8);
    let mut labeled = CrashChecker::for_robots(&algo, opts, 8);
    labeled.label(&roots);
    let mut undecided = 0;
    for root in &roots {
        let want = plain.check(root);
        undecided += usize::from(matches!(
            want.verdict,
            CrashVerdict::Undecided { reason: UndecidedReason::States }
        ));
        assert_eq!(labeled.check(root), want);
    }
    assert!(undecided > 0, "the cap must bind on some class for this test to mean anything");
    let snapshot = labeled.metrics_snapshot();
    assert_eq!(paths(|name| snapshot.counter(name)), [0, 0, roots.len() as u64, 0, 0]);
}

#[test]
fn an_armed_byte_budget_sends_every_class_to_the_search() {
    let algo = SevenGather::verified();
    let roots = roots(6);
    let opts = CrashOptions::for_robots(1, 6);
    let mut plain = CrashChecker::for_robots(&algo, opts, 8);
    let mut labeled = CrashChecker::for_robots(&algo, opts, 8);
    plain.set_mem_budget(Some(4096));
    labeled.set_mem_budget(Some(4096));
    labeled.label(&roots);
    let mut over = 0;
    for root in &roots {
        let want = plain.check(root);
        over += usize::from(matches!(
            want.verdict,
            CrashVerdict::Undecided { reason: UndecidedReason::MemBudget }
        ));
        assert_eq!(labeled.check(root), want);
    }
    assert!(over > 0, "the budget must bind on some class for this test to mean anything");
    let snapshot = labeled.metrics_snapshot();
    assert_eq!(snapshot.counter("explore.graph_states"), 0, "an armed budget walks nothing");
    assert_eq!(paths(|name| snapshot.counter(name)), [0, 0, roots.len() as u64, 0, 0]);
}

#[test]
fn roots_no_walk_reached_take_the_plain_search() {
    // A walk from the first half of the n = 5 crash:1 roots reaches some
    // of the second half; the roots it misses read no label, and each
    // runs the plain search and counts as one.
    let algo = SevenGather::verified();
    let roots = roots(5);
    let (walked, rest) = roots.split_at(roots.len() / 2);
    let opts = CrashOptions::for_robots(1, 5);
    let mut labeled = CrashChecker::for_robots(&algo, opts, 8);
    labeled.label(walked);
    for (index, root) in rest.iter().enumerate() {
        let want = CrashChecker::for_robots(&algo, opts, 8).check(root);
        assert_eq!(labeled.check(root).verdict, want.verdict, "n=5 crash:1 class {index}");
    }
    let snapshot = labeled.metrics_snapshot();
    assert_eq!(paths(|name| snapshot.counter(name)), [31, 32, 30, 0, 0]);
}

#[test]
fn async_checks_take_the_plain_search() {
    // No walk labels the ASYNC semantics, whose width is 0 like that of
    // a never-labeled explorer: every class runs the plain search, and
    // one checker's verdicts over every class equal fresh checkers'.
    let algo = SevenGather::verified();
    for n in 1..=5 {
        let roots = roots(n);
        let checker = AsyncChecker::for_robots(&algo, AsyncOptions::default(), 8);
        for (index, root) in roots.iter().enumerate() {
            let want = AsyncChecker::for_robots(&algo, AsyncOptions::default(), 8).check(root);
            assert_eq!(checker.check(root).verdict, want.verdict, "n={n} lcm-async class {index}");
        }
        let snapshot = checker.metrics_snapshot();
        assert_eq!(paths(|name| snapshot.counter(name)), [0, 0, roots.len() as u64, 0, 0]);
    }
}

/// The decision-path and work counters of a full sweep cell.
fn sweep_paths(n: usize, sched: &str) -> ([u64; 5], [u64; 3]) {
    let sched = SchedSpec::parse(sched).expect("known scheduler");
    let cfg = SweepConfig { n, sched, ..SweepConfig::default() };
    let dir = std::env::temp_dir().join(format!(
        "trigather-cell-labels-{}-{n}-{}",
        std::process::id(),
        sched.name()
    ));
    let outcome = run_sweep(&cfg, &dir, false, |_, _, _| {}).expect("sweep runs");
    let _ = std::fs::remove_dir_all(&dir);
    let snapshot = outcome.summary.metrics.expect("metrics are on").snapshot;
    let counts = paths(|name| snapshot.counter(name));
    assert_eq!(counts.iter().sum::<u64>(), outcome.summary.total as u64);
    assert_eq!(snapshot.counter("explore.states"), outcome.expanded);
    (counts, work(|name| snapshot.counter(name)))
}

#[test]
fn seven_robot_cells_take_pinned_decision_paths() {
    assert_eq!(sweep_paths(7, "crash:1"), ([11, 3641, 0, 0, 0], [13451, 11403, 0]));
    assert_eq!(sweep_paths(7, "adversary"), ([1869, 0, 0, 0, 1783], [128889, 311285, 0]));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "n = 8 cells are release-only; run cargo test --release")]
fn eight_robot_cells_take_pinned_decision_paths() {
    assert_eq!(sweep_paths(8, "crash:1"), ([5349, 9986, 0, 7, 1347], [276365, 805077, 0]));
    assert_eq!(sweep_paths(8, "adversary"), ([8573, 5046, 0, 7, 3063], [374649, 958780, 0]));
}
