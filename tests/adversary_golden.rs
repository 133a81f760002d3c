//! Golden-file regression for the SSYNC adversary model checker.
//!
//! * Debug tier: the verdicts (kind + counterexample schedule hash) of
//!   a fixed 65-class subset of the 3652-class space are pinned by
//!   `tests/golden/adversary-verified-subset.json`, and every refuted
//!   verdict is replayed through `adversary::replay` (the crash
//!   replayer with crash-free rounds) to its recorded outcome.
//! * Release tier: the full 3652-class classification is re-derived
//!   and pinned — verdict tallies plus an FNV digest over every
//!   per-class verdict and schedule —
//!   by `tests/golden/adversary-verified-full.json`.
//!
//! Regenerate both fixtures after an intentional checker change with:
//!
//! ```sh
//! cargo test --release --test adversary_golden -- --ignored regen
//! ```

use gathering::SevenGather;
use robots::adversary::{self, AdversaryOptions, AdversaryReport, AdversaryVerdict, Checker};
use robots::Configuration;
use simlab::sweep::{run_shard, verdict_digest, SchedSpec, SweepConfig};

const SUBSET_GOLDEN: &str = include_str!("golden/adversary-verified-subset.json");
const FULL_GOLDEN: &str = include_str!("golden/adversary-verified-full.json");

/// The pinned subset: every 57th class of the enumeration (65 classes,
/// spread across the whole space).
fn subset_indices() -> Vec<usize> {
    (0..3652).step_by(57).collect()
}

fn check_subset() -> Vec<(usize, Configuration, AdversaryReport)> {
    let classes = polyhex::enumerate_fixed(7);
    let algo = SevenGather::verified();
    let checker = Checker::new(&algo, AdversaryOptions::default());
    subset_indices()
        .into_iter()
        .map(|index| {
            let initial = Configuration::new(classes[index].iter().copied());
            let report = checker.check(&initial);
            (index, initial, report)
        })
        .collect()
}

fn subset_fixture_entries(
    reports: &[(usize, Configuration, AdversaryReport)],
) -> Vec<serde_json::Value> {
    reports
        .iter()
        .map(|(index, _, report)| {
            let schedule_hash = match &report.verdict {
                AdversaryVerdict::Refuted { schedule, .. } => {
                    format!("{:016x}", adversary::schedule_hash(schedule))
                }
                _ => String::new(),
            };
            serde_json::Value::Map(vec![
                ("index".to_string(), serde_json::Value::UInt(*index as u64)),
                ("verdict".to_string(), serde_json::Value::Str(report.verdict.kind().to_string())),
                ("schedule_hash".to_string(), serde_json::Value::Str(schedule_hash)),
            ])
        })
        .collect()
}

#[test]
fn adversary_subset_matches_golden_file() {
    let reports = check_subset();
    let produced = subset_fixture_entries(&reports);
    let golden: serde_json::Value = serde_json::from_str(SUBSET_GOLDEN).expect("fixture parses");
    let golden = golden.as_seq().expect("fixture is an array");
    assert_eq!(golden.len(), produced.len(), "fixture covers the 65-class subset");
    for (expected, actual) in golden.iter().zip(&produced) {
        assert_eq!(expected, actual, "subset verdict diverged from the golden file");
    }
}

#[test]
fn adversary_subset_refutations_replay_to_their_recorded_outcomes() {
    let algo = SevenGather::verified();
    let mut refuted = 0;
    for (index, initial, report) in check_subset() {
        if let AdversaryVerdict::Refuted { outcome, .. } = &report.verdict {
            let ex = adversary::replay(&initial, &algo, &report.verdict)
                .expect("refuted verdicts replay");
            assert_eq!(&ex.outcome, outcome, "class {index}: replay diverged");
            assert!(!ex.outcome.is_gathered(), "class {index}: a refutation cannot end gathered");
            refuted += 1;
        }
    }
    assert!(refuted > 0, "the pinned subset contains refuted classes");
}

#[test]
fn adversary_checker_is_deterministic_on_the_subset() {
    let a = check_subset();
    let b = check_subset();
    for ((ia, _, ra), (ib, _, rb)) in a.iter().zip(&b) {
        assert_eq!(ia, ib);
        assert_eq!(ra, rb, "class {ia}: verdicts must be reproducible");
    }
}

fn full_classification() -> (usize, usize, usize, String) {
    let sched = SchedSpec::parse("adversary").expect("known scheduler");
    let cfg = SweepConfig { sched, shards: 1, ..SweepConfig::default() };
    let classes = polyhex::enumerate_fixed(7);
    let record = run_shard(&classes, &cfg, 0, 0, classes.len());
    let digest = format!("{:016x}", verdict_digest(std::slice::from_ref(&record)));
    let mut proof = 0;
    let mut refuted = 0;
    let mut undecided = 0;
    for res in &record.results {
        match res.verdict.as_ref().expect("adversary cells store verdicts") {
            AdversaryVerdict::Proof => proof += 1,
            AdversaryVerdict::Refuted { .. } => refuted += 1,
            AdversaryVerdict::Undecided { .. } => undecided += 1,
        }
    }
    (proof, refuted, undecided, digest)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full 3652-class adversary classification is release-only; run cargo test --release"
)]
fn adversary_full_classification_matches_golden_file() {
    let (proof, refuted, undecided, digest) = full_classification();
    let golden: serde_json::Value = serde_json::from_str(FULL_GOLDEN).expect("fixture parses");
    let expect = |key: &str| {
        golden.get(key).and_then(serde_json::Value::as_f64).unwrap_or_else(|| {
            panic!("fixture lacks numeric key {key:?}");
        }) as usize
    };
    assert_eq!(proof + refuted + undecided, 3652, "every class is classified");
    assert_eq!(proof, expect("proof"), "adversary-proof count diverged");
    assert_eq!(refuted, expect("refuted"), "refuted count diverged");
    assert_eq!(undecided, expect("undecided"), "undecided count diverged");
    let expected_digest =
        golden.get("digest").and_then(serde_json::Value::as_str).expect("digest key");
    assert_eq!(digest, expected_digest, "per-class verdict digest diverged");
}

/// Not a test: regenerates both fixtures. Run explicitly (release!)
/// after an intentional checker change.
#[test]
#[ignore = "fixture regeneration helper; run explicitly with --ignored"]
fn regen_adversary_goldens() {
    let reports = check_subset();
    let entries = subset_fixture_entries(&reports);
    let subset =
        serde_json::to_string_pretty(&serde_json::Value::Seq(entries)).expect("fixture serialises");
    std::fs::write("tests/golden/adversary-verified-subset.json", subset + "\n")
        .expect("write subset fixture");

    let (proof, refuted, undecided, digest) = full_classification();
    let full = serde_json::to_string_pretty(&serde_json::Value::Map(vec![
        ("total".to_string(), serde_json::Value::UInt(3652)),
        ("proof".to_string(), serde_json::Value::UInt(proof as u64)),
        ("refuted".to_string(), serde_json::Value::UInt(refuted as u64)),
        ("undecided".to_string(), serde_json::Value::UInt(undecided as u64)),
        ("digest".to_string(), serde_json::Value::Str(digest)),
    ]))
    .expect("fixture serialises");
    std::fs::write("tests/golden/adversary-verified-full.json", full + "\n")
        .expect("write full fixture");

    // Keep replay validity in the regen path too.
    let algo = SevenGather::verified();
    for (index, initial, report) in &reports {
        if matches!(report.verdict, AdversaryVerdict::Refuted { .. }) {
            let ex = adversary::replay(initial, &algo, &report.verdict).expect("replays");
            assert!(!ex.outcome.is_gathered(), "class {index}: bad regenerated refutation");
        }
    }
}
