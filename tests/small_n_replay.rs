//! Every refutation of the small-n model-checking cells replays.
//!
//! Over every class at n ∈ {4, 5, 6} under the SSYNC adversary, the
//! one-crash adversary and the ASYNC phase interleaving — checkers
//! built as a sweep shard builds them — no class is left undecided, and
//! every refutation's schedule replays through its model's own replayer
//! (`adversary::replay`, `faults::replay`, `async_model::replay`) to
//! exactly the recorded outcome. These cells hold the lassos the
//! fair-cycle decision (Phase D) stitches; `tests/nsweep_golden.rs`
//! pins their digests, this test pins that each lasso is a real
//! execution.

use gathering::SevenGather;
use robots::adversary::{self, AdversaryOptions, AdversaryVerdict, Checker};
use robots::async_model::{self, AsyncChecker, AsyncOptions, AsyncVerdict};
use robots::faults::{self, CrashChecker, CrashOptions, CrashVerdict};
use robots::Configuration;

#[test]
fn small_n_refutations_replay_to_their_recorded_outcomes() {
    let algo = SevenGather::verified();
    // Refutations per model: adversary, crash f = 1, lcm-async.
    let mut refuted = [0usize; 3];
    for n in 4..=6 {
        let capacity = n.max(8);
        let adversary = Checker::for_robots(&algo, AdversaryOptions::for_robots(n), capacity);
        let crash = CrashChecker::for_robots(&algo, CrashOptions::default(), capacity);
        let lcm = AsyncChecker::for_robots(&algo, AsyncOptions::default(), capacity);
        for (index, cells) in polyhex::enumerate_fixed(n).iter().enumerate() {
            let initial = Configuration::new(cells.iter().copied());
            let at = format!("n = {n}, class {index}");

            let verdict = adversary.check(&initial).verdict;
            match &verdict {
                AdversaryVerdict::Proof => {}
                AdversaryVerdict::Undecided { reason } => panic!("{at}: adversary {reason:?}"),
                AdversaryVerdict::Refuted { outcome, .. } => {
                    let run = adversary::replay(&initial, &algo, &verdict).expect("replays");
                    assert_eq!(&run.outcome, outcome, "{at}: adversary replay diverged");
                    refuted[0] += 1;
                }
            }

            let verdict = crash.check(&initial).verdict;
            match &verdict {
                CrashVerdict::Proof => {}
                CrashVerdict::Undecided { reason } => panic!("{at}: crash {reason:?}"),
                CrashVerdict::Refuted { outcome, .. } => {
                    let run = faults::replay(&initial, &algo, &verdict).expect("replays");
                    assert_eq!(&run.execution.outcome, outcome, "{at}: crash replay diverged");
                    refuted[1] += 1;
                }
            }

            let verdict = lcm.check(&initial).verdict;
            match &verdict {
                AsyncVerdict::Proof => {}
                AsyncVerdict::Undecided { reason } => panic!("{at}: lcm-async {reason:?}"),
                AsyncVerdict::Refuted { outcome, .. } => {
                    let run = async_model::replay(&initial, &algo, &verdict).expect("replays");
                    assert_eq!(&run.execution.outcome, outcome, "{at}: lcm-async replay diverged");
                    refuted[2] += 1;
                }
            }
        }
    }
    // The cells' refuted tallies at n = 4, 5, 6, summed: the loop above
    // really replayed every refutation.
    assert_eq!(refuted, [35 + 69 + 316, 35 + 127 + 779, 35 + 94 + 645]);
}
