//! Equivalence regression for the `robots::explore` refactor.
//!
//! PR 2's SSYNC adversary checker was refactored onto the generic
//! crash-adversary transition system (`robots::explore`) with crash
//! budget 0. Its golden files (`tests/golden/adversary-*.json`,
//! checked by `tests/adversary_golden.rs`) pin that the refactor left
//! every verdict byte-identical; this file pins the *structural*
//! equivalences between the instantiations:
//!
//! * the crash checker with budget **0** must agree with the adversary
//!   checker verdict-for-verdict on seven-robot classes (at `n = 7`
//!   the relaxed gathering ball is exactly the paper's hexagon), with
//!   identical schedules, outcomes and exploration statistics;
//! * budget-0 schedules never contain a crash injection;
//! * a crash-proof class is necessarily adversary-proof — the crash
//!   adversary strictly contains the fault-free one.

use gathering::SevenGather;
use robots::adversary::{AdversaryOptions, AdversaryVerdict, Checker};
use robots::faults::{CrashChecker, CrashOptions, CrashVerdict};
use robots::Configuration;

/// Every 157th class: a 24-class sample that stays debug-friendly even
/// though it runs three exhaustive checkers per class.
fn sample() -> Vec<(usize, Configuration)> {
    let classes = polyhex::enumerate_fixed(7);
    (0..classes.len())
        .step_by(157)
        .map(|i| (i, Configuration::new(classes[i].iter().copied())))
        .collect()
}

#[test]
fn crash_budget_zero_matches_the_adversary_checker() {
    let algo = SevenGather::verified();
    let adversary = Checker::new(&algo, AdversaryOptions::default());
    let mut opts = CrashOptions { crashes: 0, ..CrashOptions::default() };
    // Identical budgets, so even Undecided-by-exhaustion agrees.
    opts.explore.max_states = AdversaryOptions::default().max_classes;
    opts.explore.max_edges = AdversaryOptions::default().max_edges;
    let crash = CrashChecker::new(&algo, opts);
    for (index, initial) in sample() {
        let a = adversary.check(&initial);
        let c = crash.check(&initial);
        assert_eq!(a.classes, c.states, "class {index}: explored state counts diverge");
        assert_eq!(a.edges, c.edges, "class {index}: expanded edge counts diverge");
        assert_eq!(a.deduped, c.deduped, "class {index}: dedup counts diverge");
        match (&a.verdict, &c.verdict) {
            (AdversaryVerdict::Proof, CrashVerdict::Proof) => {}
            (
                AdversaryVerdict::Undecided { reason: ra },
                CrashVerdict::Undecided { reason: rc },
            ) => {
                assert_eq!(ra, rc, "class {index}: undecided reasons diverge");
            }
            (
                AdversaryVerdict::Refuted { schedule, outcome },
                CrashVerdict::Refuted { schedule: cs, outcome: co },
            ) => {
                assert_eq!(outcome, co, "class {index}: refutation outcomes diverge");
                assert!(cs.iter().all(|a| a.crash == 0), "class {index}: budget 0 injected");
                let activations: Vec<u16> = cs.iter().map(|a| a.activate).collect();
                assert_eq!(schedule, &activations, "class {index}: schedules diverge");
            }
            (a, c) => panic!("class {index}: verdicts diverge: {a:?} vs {c:?}"),
        }
    }
}

#[test]
fn crash_proof_implies_adversary_proof() {
    let algo = SevenGather::verified();
    let adversary = Checker::new(&algo, AdversaryOptions::default());
    let crash = CrashChecker::new(&algo, CrashOptions::default());
    for (index, initial) in sample() {
        let c = crash.check(&initial);
        if c.verdict == CrashVerdict::Proof {
            let a = adversary.check(&initial);
            assert_eq!(
                a.verdict,
                AdversaryVerdict::Proof,
                "class {index}: 1-crash-proof must imply adversary-proof"
            );
            // Both proofs exhaust their reachable graphs, and every
            // budget-0 action is still available to the crash
            // adversary: its state space contains the fault-free one.
            // (For refutations both searches stop at their first bad
            // terminal, so no such comparison holds.)
            assert!(
                c.states >= a.classes,
                "class {index}: the crash state space contains the fault-free one"
            );
        }
    }
    // The headline hexagon class gathers even with a crash: make the
    // implication test non-vacuous regardless of how the sample falls.
    let hexagon = robots::hexagon(trigrid::ORIGIN);
    assert_eq!(crash.check(&hexagon).verdict, CrashVerdict::Proof);
    assert_eq!(adversary.check(&hexagon).verdict, AdversaryVerdict::Proof);
}
