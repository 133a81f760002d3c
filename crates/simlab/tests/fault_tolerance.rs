//! End-to-end fault-tolerance tests for the sweep pipeline, driving
//! the real `sweep` binary as a subprocess with deterministic faults
//! armed through the `FAILPOINTS` environment variable (so faults
//! never leak into sibling tests: the variable only reaches the
//! child).
//!
//! The contract under test (ISSUE 9 / DESIGN.md §17): a sweep killed
//! mid-shard and resumed produces **byte-identical classifications**
//! to an uninterrupted run, and one killed between a completed
//! journal's fsync and its rename resumes every class of it; an
//! injected per-class panic degrades to a counted undecided row without
//! killing the cell; torn or tampered shard records are quarantined to
//! `*.corrupt` and recomputed; the cell deadline exits with the
//! dedicated code 3 and resumes cleanly.

use simlab::sweep::{SchedSpec, SweepConfig};
use std::path::{Path, PathBuf};
use std::process::Output;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("trigather-ft-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the sweep binary with `args` against `dir`, optionally with a
/// `FAILPOINTS` spec armed in the child's environment only.
fn sweep(dir: &Path, args: &[&str], failpoints: Option<&str>) -> Output {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_sweep"));
    cmd.args(args).arg("--out-dir").arg(dir);
    cmd.env_remove("FAILPOINTS");
    if let Some(spec) = failpoints {
        cmd.env("FAILPOINTS", spec);
    }
    cmd.output().expect("sweep binary spawns")
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// The cell config the CLI invocations below describe, for computing
/// record/summary paths.
fn cell(sched: &str, shards: usize) -> SweepConfig {
    SweepConfig {
        n: 4,
        shards,
        sched: SchedSpec::parse(sched).expect("known scheduler"),
        ..SweepConfig::default()
    }
}

/// Loads a merged summary with its nondeterministic telemetry block
/// stripped: everything left (tallies, digest, failure indices) must
/// be byte-identical across clean, killed-and-resumed, and
/// quarantined-and-recomputed runs.
fn summary_sans_metrics(path: &Path) -> serde_json::Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("summary {} must exist: {e}", path.display()));
    let mut value: serde_json::Value = serde_json::from_str(&text).expect("summary parses");
    if let serde_json::Value::Map(entries) = &mut value {
        entries.retain(|(key, _)| key != "metrics");
    }
    value
}

fn lookup<'v>(value: &'v serde_json::Value, key: &str) -> &'v serde_json::Value {
    match value {
        serde_json::Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("summary field {key} present")),
        _ => panic!("summary is an object"),
    }
}

/// Kill-resume round trip for one cell at one thread count: a run
/// aborted by a failpoint mid-shard, then resumed without faults, must
/// match the clean baseline summary exactly.
fn assert_kill_resume_identical(sched: &str, threads: usize, baseline: &serde_json::Value) {
    let threads_s = threads.to_string();
    let args: Vec<&str> = vec![
        "--algo",
        "verified",
        "--sched",
        sched,
        "--n",
        "4",
        "--shards",
        "2",
        "--journal-chunk",
        "4",
        "--threads",
        &threads_s,
    ];
    let dir = temp_dir(&format!("kill-{}-t{threads}", sched.replace(':', "_")));
    // Die before the second journal append: mid-shard, after some
    // classes are durably checkpointed.
    let killed = sweep(&dir, &args, Some("shard.journal=abort@2"));
    assert!(
        !killed.status.success(),
        "{sched} t{threads}: the armed abort failpoint must kill the run"
    );
    let mut resume_args = args.clone();
    resume_args.push("--resume");
    let resumed = sweep(&dir, &resume_args, None);
    assert!(
        resumed.status.success(),
        "{sched} t{threads}: resume must complete: {}",
        stderr_of(&resumed)
    );
    let cfg = cell(sched, 2);
    let summary = summary_sans_metrics(&cfg.summary_path(&dir));
    assert_eq!(
        baseline, &summary,
        "{sched} t{threads}: resumed summary diverged from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_resume_matches_clean_run_across_cells_and_threads() {
    for sched in ["adversary", "crash:1", "lcm-async", "fsync"] {
        // One clean baseline per cell; classifications are
        // thread-invariant (pinned by tests/determinism.rs), so it
        // serves all thread counts.
        let clean_dir = temp_dir(&format!("clean-{}", sched.replace(':', "_")));
        let clean = sweep(
            &clean_dir,
            &["--algo", "verified", "--sched", sched, "--n", "4", "--shards", "2"],
            None,
        );
        assert!(clean.status.success(), "{sched}: clean run: {}", stderr_of(&clean));
        let cfg = cell(sched, 2);
        let baseline = summary_sans_metrics(&cfg.summary_path(&clean_dir));
        for threads in [1, 2, 8] {
            assert_kill_resume_identical(sched, threads, &baseline);
        }
        let _ = std::fs::remove_dir_all(&clean_dir);
    }
}

#[test]
fn injected_panic_degrades_to_counted_undecided_without_killing_the_cell() {
    let clean_dir = temp_dir("panic-clean");
    let args = ["--algo", "verified", "--sched", "adversary", "--n", "4", "--shards", "1"];
    let clean = sweep(&clean_dir, &args, None);
    assert!(clean.status.success(), "clean run: {}", stderr_of(&clean));
    let cfg = cell("adversary", 1);
    let clean_undecided =
        match lookup(&summary_sans_metrics(&cfg.summary_path(&clean_dir)), "undecided") {
            serde_json::Value::UInt(u) => *u,
            other => panic!("undecided is a count, got {other:?}"),
        };

    let dir = temp_dir("panic");
    let events = dir.join("events.jsonl");
    let events_s = events.display().to_string();
    let mut poisoned_args: Vec<&str> = args.to_vec();
    poisoned_args.extend(["--events", &events_s]);
    let poisoned = sweep(&dir, &poisoned_args, Some("sweep.class=panic:injected boom@5"));
    assert!(
        poisoned.status.success(),
        "a panicking class must not kill the cell: {}",
        stderr_of(&poisoned)
    );
    assert!(stderr_of(&poisoned).contains("panicked"), "the degradation is announced on stderr");
    let summary = summary_sans_metrics(&cfg.summary_path(&dir));
    match lookup(&summary, "undecided") {
        serde_json::Value::UInt(u) => assert_eq!(
            *u,
            clean_undecided + 1,
            "exactly the poisoned class is degraded to undecided"
        ),
        other => panic!("undecided is a count, got {other:?}"),
    }
    // The payload is preserved in the shard record and the event log.
    let record = std::fs::read_to_string(cfg.shard_path(&dir, 0)).expect("record exists");
    assert!(record.contains("injected boom"), "the panic payload lands in the record");
    let log = std::fs::read_to_string(&events).expect("events log exists");
    assert!(log.contains("class_panic"), "the event stream reports the panic: {log}");
    assert!(log.contains("injected boom"), "the event carries the payload");
    // `--threads` was omitted, so the cell ran on all cores: the event
    // reports that count, not the `0` that selects it.
    let event = |name: &str| -> serde_json::Value {
        let tag = format!("\"event\":\"{name}\"");
        let line = log.lines().find(|l| l.contains(&tag)).unwrap_or_else(|| panic!("{tag}: {log}"));
        serde_json::from_str(line).expect("event lines parse")
    };
    let start = event("cell_start");
    assert_eq!(
        lookup(&start, "threads"),
        &serde_json::Value::UInt(parallel::resolve_threads(0) as u64)
    );
    let finish = event("cell_finish");
    assert!(matches!(lookup(&finish, "states_expanded"), serde_json::Value::UInt(s) if *s > 0));
    assert!(matches!(lookup(&finish, "classes_per_sec"), serde_json::Value::Float(r) if *r > 0.0));
    assert_eq!(lookup(&finish, "reused_shards"), &serde_json::Value::UInt(0));
    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_record_is_quarantined_and_recomputed_on_resume() {
    let args = ["--algo", "verified", "--sched", "adversary", "--n", "4", "--shards", "2"];
    let clean_dir = temp_dir("torn-clean");
    let clean = sweep(&clean_dir, &args, None);
    assert!(clean.status.success(), "clean run: {}", stderr_of(&clean));
    let cfg = cell("adversary", 2);
    let baseline = summary_sans_metrics(&cfg.summary_path(&clean_dir));

    // The torn-write failpoint models the pre-atomic writer dying
    // mid-write: 40 bytes of shard 0's record land in the final path.
    let dir = temp_dir("torn");
    let torn = sweep(&dir, &args, Some("shard.write=torn:40@1"));
    assert!(torn.status.success(), "the torn write itself reports success (that's the point)");
    let victim = cfg.shard_path(&dir, 0);
    assert_eq!(std::fs::metadata(&victim).expect("stump exists").len(), 40);

    let mut resume_args: Vec<&str> = args.to_vec();
    resume_args.push("--resume");
    let resumed = sweep(&dir, &resume_args, None);
    assert!(resumed.status.success(), "resume recovers: {}", stderr_of(&resumed));
    assert!(
        stderr_of(&resumed).contains("quarantined"),
        "the quarantine is announced: {}",
        stderr_of(&resumed)
    );
    assert!(
        PathBuf::from(format!("{}.corrupt", victim.display())).exists(),
        "the torn record is preserved as *.corrupt for triage"
    );
    assert_eq!(baseline, summary_sans_metrics(&cfg.summary_path(&dir)));
    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_record_with_an_out_of_range_integer_is_quarantined_on_resume() {
    let args = ["--algo", "verified", "--sched", "crash:1", "--n", "5", "--shards", "2"];
    let dir = temp_dir("huge-int");
    let clean = sweep(&dir, &args, None);
    assert!(clean.status.success(), "clean run: {}", stderr_of(&clean));
    let cfg = SweepConfig { n: 5, ..cell("crash:1", 2) };
    let baseline = summary_sans_metrics(&cfg.summary_path(&dir));
    assert_eq!(lookup(&baseline, "digest"), &serde_json::Value::Str("e5bea3a5a7103297".into()));

    // A hand edit puts 2^64 into shard 0's first row and re-frames the
    // line, so only the JSON reader stands between it and the digest.
    let victim = cfg.shard_path(&dir, 0);
    let text = std::fs::read_to_string(&victim).expect("record exists");
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let json = lines[1].splitn(3, ':').nth(2).expect("framed entry line");
    let (head, tail) = json.split_once("\"expanded\":").expect("rows record their work");
    let digits = tail.find(|c: char| !c.is_ascii_digit()).expect("the row goes on");
    let patched = format!("{head}\"expanded\":18446744073709551616{}", &tail[digits..]);
    let mut fnv = robots::adversary::Fnv64::new();
    fnv.write_all(patched.as_bytes());
    lines[1] = format!("{}:{:016x}:{patched}", patched.len(), fnv.finish());
    std::fs::write(&victim, lines.join("\n") + "\n").expect("patch the record");

    let mut resume_args: Vec<&str> = args.to_vec();
    resume_args.push("--resume");
    let resumed = sweep(&dir, &resume_args, None);
    assert!(resumed.status.success(), "resume recovers: {}", stderr_of(&resumed));
    assert!(
        stderr_of(&resumed).contains("quarantined"),
        "the quarantine is announced: {}",
        stderr_of(&resumed)
    );
    assert!(
        PathBuf::from(format!("{}.corrupt", victim.display())).exists(),
        "the patched record is preserved as *.corrupt for triage"
    );
    assert_eq!(baseline, summary_sans_metrics(&cfg.summary_path(&dir)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_between_journal_fsync_and_rename_resumes_every_class() {
    let args = ["--algo", "verified", "--sched", "adversary", "--n", "4", "--shards", "2"];
    let clean_dir = temp_dir("rename-clean");
    let clean = sweep(&clean_dir, &args, None);
    assert!(clean.status.success(), "clean run: {}", stderr_of(&clean));
    let cfg = cell("adversary", 2);
    let baseline = summary_sans_metrics(&cfg.summary_path(&clean_dir));

    // Die after shard 0's journal is complete (footer included) and
    // fsynced, but before it is renamed to the record path.
    let dir = temp_dir("rename-kill");
    let killed = sweep(&dir, &args, Some("shard.rename=abort@1"));
    assert!(!killed.status.success(), "the armed abort failpoint must kill the run");
    assert!(cfg.journal_path(&dir, 0).exists(), "shard 0's journal is complete");
    assert!(!cfg.shard_path(&dir, 0).exists(), "shard 0's record is unpublished");

    let mut resume_args: Vec<&str> = args.to_vec();
    resume_args.push("--resume");
    let resumed = sweep(&dir, &resume_args, None);
    assert!(resumed.status.success(), "resume completes: {}", stderr_of(&resumed));
    // The 44 n = 4 classes split 22 + 22: every class of shard 0 comes
    // back from its journal, none is recomputed.
    assert!(
        stderr_of(&resumed).contains("shard 0: journal resumes 22 of 22 classes"),
        "the journal is resumed whole: {}",
        stderr_of(&resumed)
    );
    assert_eq!(baseline, summary_sans_metrics(&cfg.summary_path(&dir)));
    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cell_deadline_exits_with_code_3_and_resume_completes() {
    let dir = temp_dir("deadline");
    let stopped = sweep(
        &dir,
        &[
            "--algo",
            "verified",
            "--sched",
            "adversary",
            "--n",
            "4",
            "--shards",
            "2",
            "--cell-deadline-secs",
            "0",
        ],
        None,
    );
    assert_eq!(
        stopped.status.code(),
        Some(3),
        "deadline stop uses the dedicated exit code: {}",
        stderr_of(&stopped)
    );
    assert!(
        stderr_of(&stopped).contains("--resume"),
        "the stop message tells the operator how to continue"
    );
    let resumed = sweep(
        &dir,
        &["--algo", "verified", "--sched", "adversary", "--n", "4", "--shards", "2", "--resume"],
        None,
    );
    assert!(resumed.status.success(), "resume completes: {}", stderr_of(&resumed));
    let cfg = cell("adversary", 2);
    assert!(cfg.summary_path(&dir).exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn class_timeout_flag_degrades_wedged_classes_to_timeouts() {
    // A zero per-class deadline trips the explorer's first poll on
    // every class: the cell still completes with exit 0, every class
    // counted undecided rather than wedging the sweep.
    let dir = temp_dir("class-timeout");
    let run = sweep(
        &dir,
        &[
            "--algo",
            "verified",
            "--sched",
            "adversary",
            "--n",
            "4",
            "--shards",
            "1",
            "--class-timeout-ms",
            "0",
        ],
        None,
    );
    assert!(run.status.success(), "timeouts are counted, not fatal: {}", stderr_of(&run));
    let cfg = cell("adversary", 1);
    let summary = summary_sans_metrics(&cfg.summary_path(&dir));
    assert_eq!(lookup(&summary, "undecided"), lookup(&summary, "total"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The release-tier pin: the full n=7 adversary cell, killed mid-cell
/// and resumed, must land on the exact digest the uninterrupted
/// pipeline has pinned since the adversary checker landed.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full 3652-class adversary cell: run with --release (tests/golden tier)"
)]
fn kill_resume_full_n7_adversary_pins_digest() {
    let args = ["--algo", "verified", "--sched", "adversary", "--n", "7", "--shards", "8"];
    let dir = temp_dir("n7-kill");
    // Default journal chunk (64) over ~457-class shards: abort at the
    // 20th entry append dies a few shards in, mid-shard.
    let killed = sweep(&dir, &args, Some("shard.journal=abort@20"));
    assert!(!killed.status.success(), "the armed abort failpoint must kill the run");
    let mut resume_args: Vec<&str> = args.to_vec();
    resume_args.push("--resume");
    let resumed = sweep(&dir, &resume_args, None);
    assert!(resumed.status.success(), "resume completes: {}", stderr_of(&resumed));
    let cfg = SweepConfig {
        sched: SchedSpec::parse("adversary").expect("known scheduler"),
        ..SweepConfig::default()
    };
    let summary = summary_sans_metrics(&cfg.summary_path(&dir));
    assert_eq!(
        lookup(&summary, "digest"),
        &serde_json::Value::Str("d622cfe7b20dd7bb".into()),
        "the resumed full cell must reproduce the pinned digest byte-for-byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
