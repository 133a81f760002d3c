//! Golden-file regression for the parameterized (n ≠ 7) sweep cells —
//! the first classification tables beyond the paper's 3652-class
//! seven-robot experiment.
//!
//! * Debug tier: the full n ∈ {4, 5} FSYNC and crash f=1 cells and the
//!   full n ∈ {4, 5, 6} SSYNC adversary and lcm-async cells (44, 186
//!   and 814 classes — cheap even unoptimized), plus outcome-kind
//!   subset rows over every 257th n = 8 class and every 1201st n = 9
//!   class.
//! * Release tier: the full 16689-class n = 8 and 77359-class n = 9
//!   cells — FSYNC, crash f=1, SSYNC adversary and lcm-async — with
//!   verdict tallies and the n-tagged FNV verdict digest pinned. No
//!   silent truncation: a budget-capped class would land in
//!   `undecided`/`step_limit`, and the pinned rows record those
//!   columns exactly.
//!
//! Cross-model pins hold the proof sets of the model checkers against
//! each other at every n ≤ 8: lcm-async proofs and crash:1 proofs are
//! each a subset of the SSYNC adversary's. The n ≤ 6 pins run in the
//! debug tier (on the same cells as the golden rows), n = 7 and 8 in
//! release only.
//!
//! All rows live in `tests/golden/nsweep-verified.json`. Regenerate
//! after an intentional checker change with:
//!
//! ```sh
//! cargo test --release --test nsweep_golden -- --ignored regen
//! ```

use gathering::SevenGather;
use robots::{AdversaryVerdict, AsyncVerdict, CrashVerdict};
use simlab::sweep::{merge_shards, run_class, run_shard, SchedSpec, ShardRecord, SweepConfig};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex, OnceLock};

const GOLDEN: &str = include_str!("golden/nsweep-verified.json");

/// The pinned full cells: (n, scheduler spec, release_only).
const ROWS: &[(usize, &str, bool)] = &[
    (4, "fsync", false),
    (5, "fsync", false),
    (8, "fsync", true),
    (4, "crash:1", false),
    (5, "crash:1", false),
    (8, "crash:1", true),
    (4, "adversary", false),
    (5, "adversary", false),
    (6, "adversary", false),
    (8, "adversary", true),
    (4, "lcm-async", false),
    (5, "lcm-async", false),
    (6, "lcm-async", false),
    (8, "lcm-async", true),
    (9, "fsync", true),
    (9, "crash:1", true),
    (9, "adversary", true),
    (9, "lcm-async", true),
];

/// The pinned debug subsets: every `stride`-th class of the n = 8
/// space (66 classes) and of the n = 9 space (65 classes), outcome
/// kinds only — the release rows pin the verdict digests.
const SUBSET_ROWS: &[(usize, &str, usize)] = &[
    (8, "fsync", 257),
    (8, "crash:1", 257),
    (8, "adversary", 257),
    (9, "fsync", 1201),
    (9, "crash:1", 1201),
    (9, "adversary", 1201),
];

/// The one-shard record of a full cell. Cells up to n = 8 are computed
/// once per test process, so the golden rows and the cross-model pins
/// share them; the n = 9 cells are not kept.
fn full_record(n: usize, spec: &str) -> Arc<ShardRecord> {
    type Cells = Mutex<HashMap<(usize, String), Arc<OnceLock<Arc<ShardRecord>>>>>;
    static CELLS: OnceLock<Cells> = OnceLock::new();
    let compute = || {
        let sched = SchedSpec::parse(spec).expect("known scheduler");
        let cfg = SweepConfig { n, sched, shards: 1, ..SweepConfig::default() };
        cfg.validate().expect("supported cell");
        let classes = polyhex::enumerate_fixed(n);
        Arc::new(run_shard(&classes, &cfg, 0, 0, classes.len()))
    };
    if n > 8 {
        return compute();
    }
    let cell = CELLS
        .get_or_init(Cells::default)
        .lock()
        .expect("no test panics while holding the cell map")
        .entry((n, spec.to_string()))
        .or_default()
        .clone();
    cell.get_or_init(compute).clone()
}

/// Runs one full cell and renders its pinned row: verdict tallies and
/// digest for model-checking cells, the outcome breakdown for FSYNC.
fn full_row(n: usize, spec: &str) -> serde_json::Value {
    let sched = SchedSpec::parse(spec).expect("known scheduler");
    let cfg = SweepConfig { n, sched, shards: 1, ..SweepConfig::default() };
    let record = full_record(n, spec);
    let summary = merge_shards(&cfg, std::slice::from_ref(&*record)).expect("consistent shard");
    let mut entry = vec![
        ("n".to_string(), serde_json::Value::UInt(n as u64)),
        ("sched".to_string(), serde_json::Value::Str(sched.name())),
        ("total".to_string(), serde_json::Value::UInt(summary.total as u64)),
    ];
    match summary.adversary {
        Some(counts) => {
            entry.push(("proof".to_string(), serde_json::Value::UInt(counts.proof as u64)));
            entry.push(("refuted".to_string(), serde_json::Value::UInt(counts.refuted as u64)));
            entry.push(("undecided".to_string(), serde_json::Value::UInt(counts.undecided as u64)));
            let digest = summary.digest.expect("model-checking cells carry digests");
            entry.push(("digest".to_string(), serde_json::Value::Str(digest)));
        }
        None => {
            for (key, count) in [
                ("gathered", summary.gathered),
                ("stuck", summary.stuck),
                ("livelock", summary.livelock),
                ("collision", summary.collision),
                ("disconnected", summary.disconnected),
                ("step_limit", summary.step_limit),
                ("max_rounds", summary.max_rounds),
            ] {
                entry.push((key.to_string(), serde_json::Value::UInt(count as u64)));
            }
        }
    }
    serde_json::Value::Map(entry)
}

/// Runs every `stride`-th class of a cell and renders the subset row:
/// outcome-kind counts over the subset (crash proofs surface as
/// `gathered`, undecided classes as `step_limit` — the
/// `outcome_of_*_verdict` mapping).
fn subset_row(n: usize, spec: &str, stride: usize) -> serde_json::Value {
    let sched = SchedSpec::parse(spec).expect("known scheduler");
    let cfg = SweepConfig { n, sched, ..SweepConfig::default() };
    cfg.validate().expect("supported cell");
    let algo = SevenGather::verified();
    let limits = cfg.effective_limits();
    let classes = polyhex::enumerate_fixed(n);
    let (mut gathered, mut stuck, mut livelock, mut collision, mut disconnected, mut step_limit) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let mut undecided = 0u64;
    let mut covered = 0u64;
    for index in (0..classes.len()).step_by(stride) {
        let initial = robots::Configuration::new(classes[index].iter().copied());
        match run_class(&initial, &algo, sched, index, limits) {
            robots::Outcome::Gathered { .. } => gathered += 1,
            robots::Outcome::StuckFixpoint { .. } => stuck += 1,
            robots::Outcome::Livelock { .. } => livelock += 1,
            robots::Outcome::Collision { .. } => collision += 1,
            robots::Outcome::Disconnected { .. } => disconnected += 1,
            robots::Outcome::StepLimit { .. } => step_limit += 1,
            robots::Outcome::Undecided { .. } => undecided += 1,
        }
        covered += 1;
    }
    serde_json::Value::Map(vec![
        ("n".to_string(), serde_json::Value::UInt(n as u64)),
        ("sched".to_string(), serde_json::Value::Str(sched.name())),
        ("stride".to_string(), serde_json::Value::UInt(stride as u64)),
        ("classes".to_string(), serde_json::Value::UInt(covered)),
        ("gathered".to_string(), serde_json::Value::UInt(gathered)),
        ("stuck".to_string(), serde_json::Value::UInt(stuck)),
        ("livelock".to_string(), serde_json::Value::UInt(livelock)),
        ("collision".to_string(), serde_json::Value::UInt(collision)),
        ("disconnected".to_string(), serde_json::Value::UInt(disconnected)),
        ("step_limit".to_string(), serde_json::Value::UInt(step_limit)),
        ("undecided".to_string(), serde_json::Value::UInt(undecided)),
    ])
}

/// Finds the fixture row with the given `n`/`sched` name, requiring
/// the presence (or absence) of the `stride` marker to keep full and
/// subset rows apart.
fn fixture_row<'a>(
    golden: &'a [serde_json::Value],
    n: usize,
    name: &str,
    subset: bool,
) -> &'a serde_json::Value {
    golden
        .iter()
        .find(|e| {
            e.get("n").and_then(serde_json::Value::as_f64) == Some(n as f64)
                && e.get("sched").and_then(serde_json::Value::as_str) == Some(name)
                && e.get("stride").is_some() == subset
        })
        .unwrap_or_else(|| panic!("fixture lacks {} row n={n} sched={name:?}", kind(subset)))
}

fn kind(subset: bool) -> &'static str {
    if subset {
        "subset"
    } else {
        "full"
    }
}

fn parse_golden() -> Vec<serde_json::Value> {
    let golden: serde_json::Value = serde_json::from_str(GOLDEN).expect("fixture parses");
    golden.as_seq().expect("fixture is an array").to_vec()
}

#[test]
fn small_n_cells_match_golden_rows() {
    let golden = parse_golden();
    for &(n, spec, release_only) in ROWS {
        if release_only {
            continue;
        }
        let name = SchedSpec::parse(spec).expect("known scheduler").name();
        let expected = fixture_row(&golden, n, &name, false);
        assert_eq!(expected, &full_row(n, spec), "full row n={n} sched={name} diverged");
    }
}

/// The `:D` suffix of a scheduler spec only names the cell: the
/// fair-cycle decision takes no depth bound, so `adversary:1` must
/// classify the n = 6 space exactly like the pinned `adversary` row.
#[test]
fn depth_suffix_changes_no_verdict() {
    let golden = parse_golden();
    let pinned = fixture_row(&golden, 6, "adversary", false);
    let shallow = full_row(6, "adversary:1");
    assert_eq!(shallow.get("sched").and_then(serde_json::Value::as_str), Some("adversary-d1"));
    assert_eq!(shallow.get("digest"), pinned.get("digest"), "adversary:1 diverged from adversary");
}

#[test]
fn large_n_subset_outcomes_match_golden_rows() {
    let golden = parse_golden();
    for &(n, spec, stride) in SUBSET_ROWS {
        let name = SchedSpec::parse(spec).expect("known scheduler").name();
        let expected = fixture_row(&golden, n, &name, true);
        assert_eq!(
            expected,
            &subset_row(n, spec, stride),
            "subset row n={n} sched={name} diverged"
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full n=8 (16689-class) and n=9 (77359-class) cells are release-only; \
              run cargo test --release"
)]
fn large_n_full_cells_match_golden_rows() {
    let golden = parse_golden();
    for &(n, spec, release_only) in ROWS {
        if !release_only {
            continue;
        }
        let name = SchedSpec::parse(spec).expect("known scheduler").name();
        let expected = fixture_row(&golden, n, &name, false);
        assert_eq!(expected, &full_row(n, spec), "full row n={n} sched={name} diverged");
    }
}

/// The measured proof counts of the verified rules, `(n, [adversary,
/// lcm-async, crash:1])`: what the cross-model pins compare.
const PROOF_COUNTS: &[(usize, [usize; 3])] = &[
    (2, [3, 3, 3]),
    (3, [11, 11, 11]),
    (4, [9, 9, 9]),
    (5, [117, 92, 59]),
    (6, [498, 169, 35]),
    (7, [1869, 543, 11]),
    (8, [8573, 2275, 5349]),
];

/// The enumeration indices of a full cell's proof classes.
fn proof_classes(n: usize, spec: &str) -> BTreeSet<usize> {
    let record = full_record(n, spec);
    let proof = |res: &simlab::sweep::ClassOutcome| match spec {
        "adversary" => matches!(res.verdict, Some(AdversaryVerdict::Proof)),
        "lcm-async" => matches!(res.lcm_async, Some(AsyncVerdict::Proof)),
        "crash:1" => matches!(res.crash, Some(CrashVerdict::Proof)),
        other => panic!("no proof column for {other}"),
    };
    record.results.iter().filter(|res| proof(res)).map(|res| res.index).collect()
}

/// Empirical cross-model pins at `n`: every lcm-async proof class and
/// every crash:1 proof class is also an adversary proof class.
///
/// * crash:1 ⊆ adversary is expected by construction: with nothing
///   crashed, the relaxed goal is the gathering goal, and every SSYNC
///   schedule is a crash schedule that crashes no robot.
/// * lcm-async ⊆ adversary is not a theorem (a simultaneous SSYNC round
///   is not an ASYNC interleaving; `tests/async_golden.rs` explains).
///   The pin records the measured relation on these rules, so a checker
///   change that flips it is noticed.
///
/// The proof counts are pinned too, so the inclusions cannot hold
/// vacuously.
fn assert_proofs_nest(n: usize) {
    let (_, counts) = PROOF_COUNTS.iter().find(|(m, _)| *m == n).expect("a pinned n");
    let adversary = proof_classes(n, "adversary");
    assert_eq!(adversary.len(), counts[0], "n={n}: adversary proof count");
    for (spec, count) in [("lcm-async", counts[1]), ("crash:1", counts[2])] {
        let proofs = proof_classes(n, spec);
        assert_eq!(proofs.len(), count, "n={n}: {spec} proof count");
        let outside: Vec<&usize> = proofs.difference(&adversary).collect();
        assert!(outside.is_empty(), "n={n}: {spec} proof classes not adversary-proof: {outside:?}");
    }
}

#[test]
fn small_n_proofs_nest_across_models() {
    for n in 2..=6 {
        assert_proofs_nest(n);
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the n = 7 and n = 8 cross-model pins are release-only; run cargo test --release"
)]
fn large_n_proofs_nest_across_models() {
    for n in 7..=8 {
        assert_proofs_nest(n);
    }
}

/// Not a test: regenerates the fixture. Run explicitly (release — the
/// n = 8 rows are part of the file!) after an intentional change.
#[test]
#[ignore = "fixture regeneration helper; run explicitly with --ignored"]
#[allow(clippy::assertions_on_constants)]
fn regen_nsweep_golden() {
    assert!(!cfg!(debug_assertions), "regen must run in release: the n=8/n=9 rows are expensive");
    let mut rows: Vec<serde_json::Value> =
        ROWS.iter().map(|&(n, spec, _)| full_row(n, spec)).collect();
    rows.extend(SUBSET_ROWS.iter().map(|&(n, spec, stride)| subset_row(n, spec, stride)));
    let text =
        serde_json::to_string_pretty(&serde_json::Value::Seq(rows)).expect("fixture serialises");
    std::fs::write("tests/golden/nsweep-verified.json", text + "\n").expect("write fixture");
}
