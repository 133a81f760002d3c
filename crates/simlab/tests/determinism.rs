//! Determinism pins for the sweep pipeline: the merged per-class
//! record stream must be **byte-identical** regardless of worker
//! thread count and shard count — for the seeded random-subset cells
//! (whose per-class seed derivation must be threading/sharding
//! invariant) and for the adversary, crash and lcm-async
//! model-checking cells (whose verdicts and counterexample schedules
//! must be reproducible no matter how the executor's workers
//! interleave the classes).

use simlab::sweep::{
    merge_shards, run_shard, shard_ranges, verdict_digest, ClassOutcome, SchedSpec, ShardRecord,
    SweepConfig,
};

/// Runs a full cell with the given thread and shard counts and returns
/// the merged per-class results serialised to JSON.
fn merged_results_json(cfg: &SweepConfig) -> String {
    let classes = polyhex::enumerate_fixed(cfg.n);
    let merged: Vec<ClassOutcome> = shard_ranges(classes.len(), cfg.shards)
        .into_iter()
        .enumerate()
        .flat_map(|(s, (start, end))| run_shard(&classes, cfg, s, start, end).results)
        .collect();
    serde_json::to_string(&merged).expect("results serialise")
}

fn assert_invariant_across_threads_and_shards(base: SweepConfig, label: &str) {
    let reference = merged_results_json(&SweepConfig { threads: 1, shards: 1, ..base.clone() });
    for threads in [2, 8] {
        let got = merged_results_json(&SweepConfig { threads, shards: 1, ..base.clone() });
        assert_eq!(reference, got, "{label}: thread count {threads} changed the records");
    }
    for shards in [3, 5] {
        let got = merged_results_json(&SweepConfig { threads: 2, shards, ..base.clone() });
        assert_eq!(reference, got, "{label}: shard count {shards} changed the records");
    }
    let mixed = merged_results_json(&SweepConfig { threads: 4, shards: 2, ..base });
    assert_eq!(reference, mixed, "{label}: 4 threads over 2 shards changed the records");
}

#[test]
fn random_subset_records_are_thread_and_shard_invariant() {
    let sched = SchedSpec::RandomSubset { seed: 11, p: 0.4 };
    assert_invariant_across_threads_and_shards(
        SweepConfig { n: 5, sched, ..SweepConfig::default() },
        "random-subset n=5",
    );
}

#[test]
fn adversary_records_are_thread_and_shard_invariant() {
    let sched = SchedSpec::parse("adversary").expect("known scheduler");
    assert_invariant_across_threads_and_shards(
        SweepConfig { n: 4, sched, ..SweepConfig::default() },
        "adversary n=4",
    );
}

#[test]
fn crash_records_are_thread_and_shard_invariant() {
    // The acceptance bar for the parallel fan-out: crash-cell
    // verdicts (including the replayable schedule + crash assignment
    // of every refutation) must be byte-identical between a
    // single-thread run and any multi-thread run.
    let sched = SchedSpec::parse("crash:1").expect("known scheduler");
    assert_invariant_across_threads_and_shards(
        SweepConfig { n: 4, sched, ..SweepConfig::default() },
        "crash f=1 n=4",
    );
}

#[test]
fn lcm_async_records_are_thread_and_shard_invariant() {
    // The ASYNC checker's verdicts (including the replayable one-hot
    // tick schedule of every refutation) must be byte-identical
    // between a single-thread run and any multi-thread run.
    let sched = SchedSpec::parse("lcm-async").expect("known scheduler");
    assert_invariant_across_threads_and_shards(
        SweepConfig { n: 4, sched, ..SweepConfig::default() },
        "lcm-async n=4",
    );
}

#[test]
fn per_n_digests_are_thread_and_shard_invariant() {
    // The n axis must not cost any determinism: for every small robot
    // count the cell digest is a pure function of the classification,
    // independent of threading and sharding — and distinct across
    // counts (the n tag byte).
    let sched = SchedSpec::parse("crash:1").expect("known scheduler");
    let digest_of = |n: usize, threads: usize, shards: usize| {
        let cfg = SweepConfig { n, sched, threads, shards, ..SweepConfig::default() };
        cfg.validate().expect("supported cell");
        let classes = polyhex::enumerate_fixed(n);
        let records: Vec<ShardRecord> = shard_ranges(classes.len(), cfg.shards)
            .into_iter()
            .enumerate()
            .map(|(s, (start, end))| run_shard(&classes, &cfg, s, start, end))
            .collect();
        verdict_digest(&records)
    };
    let mut seen = std::collections::HashSet::new();
    for n in [2, 3, 4, 5] {
        let reference = digest_of(n, 1, 1);
        assert_eq!(reference, digest_of(n, 4, 1), "n={n}: thread count changed the digest");
        assert_eq!(reference, digest_of(n, 2, 3), "n={n}: shard count changed the digest");
        assert!(seen.insert(reference), "n={n}: digests must differ across robot counts");
    }
}

/// Runs one full cell and returns `(digest, merged results JSON)`.
fn cell_digest_and_json(cfg: &SweepConfig) -> (u64, String) {
    cfg.validate().expect("supported cell");
    let classes = polyhex::enumerate_fixed(cfg.n);
    let records: Vec<ShardRecord> = shard_ranges(classes.len(), cfg.shards)
        .into_iter()
        .enumerate()
        .map(|(s, (start, end))| run_shard(&classes, cfg, s, start, end))
        .collect();
    let merged: Vec<&ClassOutcome> = records.iter().flat_map(|r| r.results.iter()).collect();
    (verdict_digest(&records), serde_json::to_string(&merged).expect("results serialise"))
}

#[test]
fn metrics_toggle_never_perturbs_records_or_digests() {
    // The whole point of the telemetry layer: flipping metrics off must
    // leave every record and digest byte-identical, at every thread
    // count, in every semantics cell. (The toggle gates only the
    // timestamp reads — this pins that no observable output ever
    // depends on a telemetry value.)
    for spec in ["fsync", "adversary", "crash:1", "lcm-async"] {
        let sched = SchedSpec::parse(spec).expect("known scheduler");
        for threads in [1, 2, 8] {
            let cfg = SweepConfig { n: 4, sched, threads, ..SweepConfig::default() };
            telemetry::set_enabled(true);
            let on = cell_digest_and_json(&cfg);
            telemetry::set_enabled(false);
            let off = cell_digest_and_json(&cfg);
            telemetry::set_enabled(true);
            assert_eq!(on, off, "{spec} n=4 threads={threads}: metrics toggle changed output");
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full n=7/n=8 cells are release-only; run cargo test --release"
)]
fn full_cells_match_pinned_digests_with_metrics_on_and_off() {
    // The pinned verification digests (the acceptance bar for the
    // instrumented stack): metrics on or off, 1/2/8 worker threads —
    // the cell digest is always the committed constant. The full n=8
    // matrix rides along since the flat-interning refactor: id
    // assignment must stay a pure function of insertion order.
    let cells: [(&str, usize, u64); 6] = [
        ("adversary", 7, 0xd622cfe7b20dd7bb),
        ("crash:1", 7, 0x6696e3381f7fbd4f),
        ("lcm-async", 7, 0xbbf7a6b89fc5c8f0),
        ("adversary", 8, 0x48732f073bd06fc4),
        ("crash:1", 8, 0xb53d9682ec227d68),
        ("lcm-async", 8, 0x70c5901259f6d660),
    ];
    for (spec, n, expected) in cells {
        let sched = SchedSpec::parse(spec).expect("known scheduler");
        for threads in [1, 2, 8] {
            for enabled in [true, false] {
                telemetry::set_enabled(enabled);
                let cfg = SweepConfig { n, sched, threads, ..SweepConfig::default() };
                let (digest, _) = cell_digest_and_json(&cfg);
                telemetry::set_enabled(true);
                assert_eq!(
                    digest, expected,
                    "{spec} n={n} threads={threads} metrics={enabled}: digest drifted"
                );
            }
        }
    }
}

#[test]
fn summaries_are_thread_invariant_for_fixed_sharding() {
    // The merged summary (including the adversary verdict tallies) must
    // not depend on the thread count.
    let sched = SchedSpec::parse("adversary").expect("known scheduler");
    let summarise = |threads: usize| {
        let cfg = SweepConfig { n: 4, sched, threads, shards: 2, ..SweepConfig::default() };
        let classes = polyhex::enumerate_fixed(cfg.n);
        let records: Vec<ShardRecord> = shard_ranges(classes.len(), cfg.shards)
            .into_iter()
            .enumerate()
            .map(|(s, (start, end))| run_shard(&classes, &cfg, s, start, end))
            .collect();
        merge_shards(&cfg, &records).expect("consistent shards")
    };
    let a = summarise(1);
    let b = summarise(8);
    assert_eq!(a, b);
    assert!(a.adversary.is_some(), "adversary cells must tally verdicts");
}
