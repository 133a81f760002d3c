//! Sharded, resumable scheduler-matrix verification sweeps.
//!
//! ```text
//! cargo run --release -p simlab --bin sweep -- \
//!     [--algo paper|verified|FLAGS] \
//!     [--sched fsync|round-robin|random[:SEED:P]|adversary[:DEPTH]|
//!              crash:F[:DEPTH]|lcm-async[:DEPTH]] \
//!     [--n 2..=10] [--shards 8] [--threads N] [--stealing auto|on|off] \
//!     [--max-rounds N] [--out-dir target/sweep] [--resume] \
//!     [--fail-fast] [--matrix] [--strict] [--events PATH] [--progress]
//! ```
//!
//! One invocation runs one cell of the {algorithm} × {scheduler}
//! matrix, writing per-shard JSON records plus a merged summary into
//! the output directory. `--resume` reuses any shard record already on
//! disk that matches the cell, so interrupted sweeps continue where
//! they stopped. `--fail-fast` skips the pipeline and instead hunts for
//! the lowest-index counterexample with the deterministic early-exit
//! executor. `--matrix` runs the full default matrix ({paper, verified,
//! fix25+conn+compl} × {fsync, round-robin, random}) and prints a
//! verdict table.
//!
//! `--sched adversary[:DEPTH]` runs the exhaustive SSYNC adversary
//! model checker per class (see `robots::adversary`); refuted classes
//! carry replayable counterexample schedules in the shard records.
//! `--sched crash:F[:DEPTH]` adds up to `F` permanent crash faults
//! (`robots::faults`), and `--sched lcm-async[:DEPTH]` runs the
//! exhaustive ASYNC phase-interleaving checker
//! (`robots::async_model`) — single-robot Look-Compute-Move phase
//! advances with stale pending moves. `DEPTH` only names the cell
//! (`adversary-d5`): the fair-cycle decision takes no depth bound, so
//! it changes no verdict.
//!
//! Every non-fail-fast invocation also writes `BENCH_sweep.json` into
//! the output directory: per-cell wall-clock, classes/sec and states
//! expanded, so the performance trajectory has a tracked baseline.
//!
//! `--strict` makes honest budget accounting enforceable: any class
//! left `Undecided` (a tripped exploration budget rather than a real
//! verdict) fails the invocation with a non-zero exit, so pipelines
//! can pin "every class decided" as a hard property of a cell.
//!
//! `--events PATH` appends a structured JSONL event stream (cell
//! start/finish, one heartbeat per shard, budget trips, per-class
//! panics) for machine consumption, and `--progress` prints a human
//! heartbeat with classes/sec and an ETA to stderr. Both are strictly
//! out-of-band: records, summaries and digests are byte-identical with
//! or without them.
//!
//! Fault tolerance (DESIGN.md §17): `--class-timeout-ms MS` bounds one
//! class's model check by wall clock (over-deadline classes degrade to
//! counted `Undecided` timeout verdicts); `--mem-budget-mb MB` bounds
//! one class's live exploration footprint deterministically
//! (over-budget classes degrade to counted `Undecided` mem_budget
//! verdicts, DESIGN.md §18); `--cell-deadline-secs S`
//! checkpoints the running shard's journal and exits with code 3 and a
//! resume hint once the budget is spent; `--journal-chunk N` sets the
//! classes-per-checkpoint granularity. Corrupt shard records found
//! during `--resume` are quarantined to `<record>.corrupt` with a
//! warning and recomputed; a class that panics is caught, recorded
//! (payload and all) and counted as undecided instead of killing the
//! cell.

use robots::{Limits, Outcome};
use simlab::sweep::{
    run_sweep_with, write_bench, AlgoSpec, BenchRecord, SchedSpec, ShardRecord, ShardStatus,
    SweepConfig, SweepRun, SweepSummary, SCHED_SPECS,
};
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use serde_json::Value;

#[derive(Debug)]
struct Args {
    cfg: SweepConfig,
    out_dir: PathBuf,
    resume: bool,
    fail_fast: bool,
    matrix: bool,
    strict: bool,
    /// Whether --algo / --sched were given explicitly (conflicts with
    /// --matrix, which supplies both axes itself).
    cell_chosen: bool,
    /// Structured JSONL event log destination, if requested.
    events: Option<PathBuf>,
    /// Whether to print the stderr progress heartbeat.
    progress: bool,
}

/// The single exit point for command-line mistakes: every usage error
/// prints its reason, the full usage text (including the valid
/// scheduler specs), and exits with the conventional usage code 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: sweep [--algo paper|verified|FLAGS]\n\
         \x20            [--sched fsync|round-robin|random[:SEED:P]|adversary[:DEPTH]|crash:F[:DEPTH]|lcm-async[:DEPTH]]\n\
         \x20            [--n N (2..=10)] [--shards S] [--threads T] [--stealing auto|on|off]\n\
         \x20            [--max-rounds R] [--out-dir DIR] [--resume] [--fail-fast] [--matrix] [--strict]\n\
         \x20            [--events PATH] [--progress]\n\
         \x20            [--class-timeout-ms MS] [--mem-budget-mb MB] [--cell-deadline-secs S]\n\
         \x20            [--journal-chunk N]\n\
         \n\
         FLAGS is a '+'-separated ablation list from fix25, conn, prio, compl, mirror (or 'none').\n\
         Scheduler specs: {SCHED_SPECS}.\n\
         DEPTH only names the cell (adversary:5 -> adversary-d5); it changes no verdict.\n\
         --threads takes the worker count of the per-shard pool (>= 1); the default\n\
         is all available cores.\n\
         --events appends machine-readable JSONL sweep events; --progress prints a\n\
         classes/sec + ETA heartbeat to stderr. Neither affects records or digests.\n\
         --class-timeout-ms degrades classes that outlive MS wall-clock milliseconds\n\
         to counted undecided timeout verdicts; --mem-budget-mb (>= 1) degrades\n\
         classes whose live exploration footprint exceeds MB mebibytes to counted\n\
         undecided mem_budget verdicts (deterministic); --cell-deadline-secs checkpoints the\n\
         journal and exits with code 3 once S seconds pass (rerun with --resume);\n\
         --journal-chunk sets classes per journal checkpoint (>= 1)."
    );
    std::process::exit(2);
}

/// Parses a raw argument vector. Pure (no I/O, no exit), so the usage
/// surface is unit-testable; `main` routes any `Err` through
/// [`usage_error`].
fn parse_cli(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        cfg: SweepConfig::default(),
        out_dir: PathBuf::from("target/sweep"),
        resume: false,
        fail_fast: false,
        matrix: false,
        strict: false,
        cell_chosen: false,
        events: None,
        progress: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--algo" => {
                let v = value("--algo")?;
                args.cfg.algo =
                    AlgoSpec::parse(v).ok_or_else(|| format!("unknown algorithm spec {v:?}"))?;
                args.cell_chosen = true;
            }
            "--sched" => {
                let v = value("--sched")?;
                args.cfg.sched = SchedSpec::parse(v).ok_or_else(|| {
                    format!("unknown scheduler spec {v:?}; valid specs: {SCHED_SPECS}")
                })?;
                args.cell_chosen = true;
            }
            "--n" => {
                let v = value("--n")?;
                args.cfg.n =
                    v.parse().map_err(|_| format!("invalid robot count for --n: {v:?}"))?;
            }
            "--shards" => {
                let v = value("--shards")?;
                args.cfg.shards =
                    v.parse().map_err(|_| format!("invalid shard count for --shards: {v:?}"))?;
                if args.cfg.shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--threads" => {
                let v = value("--threads")?;
                let threads: usize =
                    v.parse().map_err(|_| format!("invalid worker count for --threads: {v:?}"))?;
                if threads == 0 {
                    return Err(format!(
                        "--threads must be at least 1; omit the flag to use all \
                         available cores ({})",
                        parallel::resolve_threads(0)
                    ));
                }
                args.cfg.threads = threads;
            }
            "--stealing" => {
                args.cfg.stealing = match value("--stealing")?.as_str() {
                    "auto" => None,
                    "on" => Some(true),
                    "off" => Some(false),
                    v => return Err(format!("invalid executor mode for --stealing: {v:?}")),
                }
            }
            "--max-rounds" => {
                let v = value("--max-rounds")?;
                args.cfg.limits = Limits {
                    max_rounds: v
                        .parse()
                        .map_err(|_| format!("invalid round cap for --max-rounds: {v:?}"))?,
                    ..args.cfg.limits
                }
            }
            "--class-timeout-ms" => {
                let v = value("--class-timeout-ms")?;
                args.cfg.class_timeout_ms =
                    Some(v.parse().map_err(|_| {
                        format!("invalid milliseconds for --class-timeout-ms: {v:?}")
                    })?);
            }
            "--mem-budget-mb" => {
                let v = value("--mem-budget-mb")?;
                let mb: usize = v
                    .parse()
                    .map_err(|_| format!("invalid mebibytes for --mem-budget-mb: {v:?}"))?;
                if mb == 0 {
                    return Err("--mem-budget-mb must be at least 1".into());
                }
                args.cfg.mem_budget_mb = Some(mb);
            }
            "--cell-deadline-secs" => {
                let v = value("--cell-deadline-secs")?;
                args.cfg.cell_deadline_secs = Some(
                    v.parse()
                        .map_err(|_| format!("invalid seconds for --cell-deadline-secs: {v:?}"))?,
                );
            }
            "--journal-chunk" => {
                let v = value("--journal-chunk")?;
                let chunk: usize = v
                    .parse()
                    .map_err(|_| format!("invalid chunk size for --journal-chunk: {v:?}"))?;
                if chunk == 0 {
                    return Err("--journal-chunk must be at least 1".into());
                }
                args.cfg.journal_chunk = Some(chunk);
            }
            "--out-dir" => args.out_dir = PathBuf::from(value("--out-dir")?),
            "--events" => args.events = Some(PathBuf::from(value("--events")?)),
            "--progress" => args.progress = true,
            "--resume" => args.resume = true,
            "--fail-fast" => args.fail_fast = true,
            "--matrix" => args.matrix = true,
            "--strict" => args.strict = true,
            _ => return Err(format!("unknown argument {arg:?}")),
        }
    }
    if args.matrix && args.fail_fast {
        return Err("--matrix and --fail-fast are mutually exclusive".into());
    }
    if args.strict && args.fail_fast {
        return Err(
            "--strict audits the summary pipeline; it is meaningless with --fail-fast".into()
        );
    }
    if args.matrix && args.cell_chosen {
        return Err("--matrix supplies both axes itself; drop --algo/--sched".into());
    }
    args.cfg.validate().map_err(|reason| format!("unsupported sweep cell: {reason}"))?;
    Ok(args)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    parse_cli(&argv).unwrap_or_else(|msg| usage_error(&msg))
}

/// Append-only JSONL sink for `--events`: one self-describing object
/// per line, flushed per event so tail-following works mid-sweep.
struct EventLog {
    file: std::fs::File,
}

impl EventLog {
    fn open(path: &std::path::Path) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        Ok(EventLog { file })
    }

    fn emit(&mut self, event: &str, fields: Vec<(String, Value)>) {
        let mut map = vec![("event".to_string(), Value::Str(event.to_string()))];
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0);
        map.push(("unix_time".to_string(), Value::Float(stamp)));
        map.extend(fields);
        let line = serde_json::to_string(&Value::Map(map)).expect("events serialize");
        // Event loss must never fail a sweep; report and carry on.
        if let Err(e) = writeln!(self.file, "{line}") {
            eprintln!("warning: could not append sweep event: {e}");
        }
    }
}

/// Count of budget-capped classes in one shard record.
fn shard_undecided(record: &ShardRecord) -> usize {
    record.results.iter().filter(|r| matches!(r.outcome, Outcome::Undecided { .. })).count()
}

/// Per-reason tally of the budget-capped classes in one shard record,
/// rendered as event fields (`states`, `timeout`, `mem_budget`, …) so
/// a `budget_trip` line says *which* budget tripped, not just how
/// often.
fn shard_undecided_reasons(record: &ShardRecord) -> Vec<(String, Value)> {
    let mut tally: Vec<(&'static str, u64)> = Vec::new();
    for res in &record.results {
        if let Outcome::Undecided { reason } = res.outcome {
            match tally.iter_mut().find(|(tag, _)| *tag == reason.tag()) {
                Some((_, count)) => *count += 1,
                None => tally.push((reason.tag(), 1)),
            }
        }
    }
    tally.into_iter().map(|(tag, count)| (tag.to_string(), Value::UInt(count))).collect()
}

fn run_cell(
    cfg: &SweepConfig,
    out_dir: &std::path::Path,
    resume: bool,
    events: &mut Option<EventLog>,
    progress: bool,
) -> (SweepSummary, BenchRecord) {
    let started = Instant::now();
    eprintln!(
        "sweep {} · n={} shards={} threads={} executor={} resume={}",
        cfg.slug(),
        cfg.n,
        cfg.shards,
        cfg.threads,
        if cfg.use_stealing() { "stealing" } else { "chunked" },
        resume,
    );
    if let Some(log) = events.as_mut() {
        log.emit(
            "cell_start",
            vec![
                ("cell".into(), Value::Str(cfg.slug())),
                ("robots".into(), Value::UInt(cfg.n as u64)),
                ("shards".into(), Value::UInt(cfg.shards as u64)),
                ("threads".into(), Value::UInt(cfg.threads as u64)),
                ("resume".into(), Value::Bool(resume)),
            ],
        );
    }
    let total_shards = cfg.shards.max(1);
    let run = run_sweep_with(cfg, out_dir, resume, |shard, status, record| {
        let verb = match status {
            ShardStatus::Computed => "computed",
            ShardStatus::Reused => "reused",
        };
        eprintln!(
            "  shard {shard:>3}: {verb} classes {}..{} ({} results)",
            record.start,
            record.end,
            record.results.len()
        );
        // Shards arrive in index order, so `record.end` is the number
        // of classes finished so far; the remainder is extrapolated
        // from the mean shard width for the heartbeat's ETA.
        let elapsed = started.elapsed().as_secs_f64();
        let done = record.end as f64;
        let rate = if elapsed > 0.0 { done / elapsed } else { 0.0 };
        let remaining_shards = (total_shards - shard - 1) as f64;
        let eta = if rate > 0.0 && shard + 1 < total_shards {
            (done / (shard + 1) as f64) * remaining_shards / rate
        } else {
            0.0
        };
        let undecided = shard_undecided(record);
        if progress {
            eprintln!(
                "  progress: {} {}/{} shards · {} classes · {:.1} classes/s · ETA {:.0}s",
                cfg.slug(),
                shard + 1,
                total_shards,
                record.end,
                rate,
                eta,
            );
        }
        if let Some(log) = events.as_mut() {
            log.emit(
                "shard",
                vec![
                    ("cell".into(), Value::Str(cfg.slug())),
                    ("shard".into(), Value::UInt(shard as u64)),
                    ("status".into(), Value::Str(verb.to_string())),
                    ("start".into(), Value::UInt(record.start as u64)),
                    ("end".into(), Value::UInt(record.end as u64)),
                    ("elapsed_secs".into(), Value::Float(elapsed)),
                    ("classes_per_sec".into(), Value::Float(rate)),
                    ("eta_secs".into(), Value::Float(eta)),
                    ("undecided".into(), Value::UInt(undecided as u64)),
                ],
            );
            if undecided > 0 {
                let mut fields = vec![
                    ("cell".into(), Value::Str(cfg.slug())),
                    ("shard".into(), Value::UInt(shard as u64)),
                    ("undecided".into(), Value::UInt(undecided as u64)),
                ];
                fields.extend(shard_undecided_reasons(record));
                log.emit("budget_trip", fields);
            }
            // Panic isolation is only trustworthy if it is *visible*:
            // every degraded class lands in the event stream with its
            // payload, keyed by class index.
            for res in record.results.iter().filter(|r| r.panic.is_some()) {
                log.emit(
                    "class_panic",
                    vec![
                        ("cell".into(), Value::Str(cfg.slug())),
                        ("shard".into(), Value::UInt(shard as u64)),
                        ("class".into(), Value::UInt(res.index as u64)),
                        ("payload".into(), Value::Str(res.panic.clone().unwrap_or_default())),
                    ],
                );
            }
        }
    })
    .unwrap_or_else(|e| {
        eprintln!("sweep failed: {e}");
        std::process::exit(1);
    });
    let outcome = match run {
        SweepRun::Complete(outcome) => outcome,
        SweepRun::DeadlineStopped { completed_shards, journaled_classes } => {
            eprintln!(
                "  cell deadline reached: {completed_shards}/{total_shards} shards persisted, \
                 {journaled_classes} classes journaled; rerun with --resume to continue"
            );
            if let Some(log) = events.as_mut() {
                log.emit(
                    "cell_deadline",
                    vec![
                        ("cell".into(), Value::Str(cfg.slug())),
                        ("completed_shards".into(), Value::UInt(completed_shards as u64)),
                        ("journaled_classes".into(), Value::UInt(journaled_classes as u64)),
                    ],
                );
            }
            // Exit 3 distinguishes "out of budget, checkpointed" from
            // usage errors (2) and real failures (1).
            std::process::exit(3);
        }
    };
    let elapsed = started.elapsed();
    let reused = outcome.shard_status.iter().filter(|s| **s == ShardStatus::Reused).count();
    eprintln!(
        "  merged {} shards ({reused} reused) in {:.2?} -> {}",
        outcome.shard_status.len(),
        elapsed,
        cfg.summary_path(out_dir).display(),
    );
    println!("{}", outcome.summary.line());
    if let Some(log) = events.as_mut() {
        log.emit(
            "cell_finish",
            vec![
                ("cell".into(), Value::Str(cfg.slug())),
                ("total".into(), Value::UInt(outcome.summary.total as u64)),
                ("undecided".into(), Value::UInt(outcome.summary.undecided as u64)),
                ("elapsed_secs".into(), Value::Float(elapsed.as_secs_f64())),
                ("digest".into(), outcome.summary.digest.clone().map_or(Value::Null, Value::Str)),
            ],
        );
    }
    let elapsed_secs = elapsed.as_secs_f64();
    let bench = BenchRecord {
        cell: cfg.slug(),
        robots: cfg.n,
        total: outcome.summary.total,
        shards: outcome.shard_status.len(),
        threads: cfg.threads,
        computed_shards: outcome.shard_status.len() - reused,
        elapsed_secs,
        classes_per_sec: if elapsed_secs > 0.0 {
            outcome.summary.total as f64 / elapsed_secs
        } else {
            0.0
        },
        states_expanded: outcome.expanded,
        verdicts: outcome.summary.adversary,
    };
    (outcome.summary, bench)
}

/// `--strict` enforcement: a budget-capped class is an accounting
/// failure, not a verdict. Prints the offending cells and exits
/// non-zero if any summary admits undecided classes.
fn enforce_strict(summaries: &[SweepSummary]) {
    let undecided: Vec<&SweepSummary> = summaries.iter().filter(|s| s.undecided > 0).collect();
    if undecided.is_empty() {
        return;
    }
    for summary in undecided {
        eprintln!(
            "strict: {}/{} left {} of {} classes undecided",
            summary.algo, summary.sched, summary.undecided, summary.total,
        );
    }
    std::process::exit(1);
}

fn main() {
    let args = parse_args();
    let mut events = args.events.as_ref().map(|path| {
        EventLog::open(path).unwrap_or_else(|e| {
            eprintln!("could not open events log {}: {e}", path.display());
            std::process::exit(1);
        })
    });

    if args.fail_fast {
        match simlab::sweep::find_failure(&args.cfg) {
            None => println!("{}: no counterexample — every class gathers", args.cfg.slug()),
            Some((index, outcome)) => {
                println!("{}: class #{index} fails with {outcome:?}", args.cfg.slug());
                std::process::exit(1);
            }
        }
        return;
    }

    let bench_path = args.out_dir.join("BENCH_sweep.json");
    let write_benches = |benches: &[BenchRecord]| {
        // A fully-resumed cell spent its wall-clock on JSON I/O, not
        // simulation; writing it would clobber an honest baseline with
        // a wildly inflated classes/sec figure.
        let honest: Vec<BenchRecord> =
            benches.iter().filter(|b| b.computed_shards > 0).cloned().collect();
        if honest.is_empty() {
            eprintln!("  bench: all shards reused; leaving {} untouched", bench_path.display());
            return;
        }
        // Merge with records from earlier invocations (keyed by cell),
        // so successive single-cell runs accumulate one baseline file
        // instead of clobbering each other.
        let mut merged: Vec<BenchRecord> = std::fs::read_to_string(&bench_path)
            .ok()
            .and_then(|text| serde_json::from_str::<Vec<BenchRecord>>(&text).ok())
            .unwrap_or_default();
        merged.retain(|old| !honest.iter().any(|new| new.cell == old.cell));
        merged.extend(honest);
        merged.sort_by(|a, b| a.cell.cmp(&b.cell));
        if let Err(e) = write_bench(&bench_path, &merged) {
            eprintln!("warning: could not write {}: {e}", bench_path.display());
        } else {
            eprintln!("  bench -> {} ({} cells)", bench_path.display(), merged.len());
        }
    };

    if args.matrix {
        let algos = [
            AlgoSpec::Paper,
            AlgoSpec::Verified,
            AlgoSpec::parse("fix25+conn+compl").expect("known ablation"),
        ];
        let scheds =
            [SchedSpec::Fsync, SchedSpec::RoundRobin, SchedSpec::RandomSubset { seed: 1, p: 0.5 }];
        let mut summaries = Vec::new();
        let mut benches = Vec::new();
        for algo in algos {
            for sched in scheds {
                let cfg = SweepConfig { algo, sched, ..args.cfg.clone() };
                let (summary, bench) =
                    run_cell(&cfg, &args.out_dir, args.resume, &mut events, args.progress);
                summaries.push(summary);
                benches.push(bench);
            }
        }
        write_benches(&benches);
        println!("\n=== matrix verdicts ===");
        for summary in &summaries {
            println!("{}", summary.line());
        }
        if args.strict {
            enforce_strict(&summaries);
        }
        return;
    }

    let (summary, bench) =
        run_cell(&args.cfg, &args.out_dir, args.resume, &mut events, args.progress);
    write_benches(std::slice::from_ref(&bench));
    if args.strict {
        enforce_strict(std::slice::from_ref(&summary));
    }
    if args.cfg.sched == SchedSpec::Fsync
        && args.cfg.algo == AlgoSpec::Verified
        && args.cfg.n == 7
        && !summary.all_gathered()
    {
        // The Theorem 2 cell regressed; make pipelines notice. The
        // theorem is seven-robot-specific: at other n the verified
        // rules legitimately fail on some classes.
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_full_cell_spec() {
        let args = parse_cli(&argv(&[
            "--algo",
            "verified",
            "--sched",
            "adversary",
            "--n",
            "8",
            "--shards",
            "4",
            "--threads",
            "2",
            "--events",
            "/tmp/ev.jsonl",
            "--progress",
            "--strict",
        ]))
        .expect("valid invocation");
        assert_eq!(args.cfg.n, 8);
        assert_eq!(args.cfg.shards, 4);
        assert_eq!(args.cfg.threads, 2);
        assert!(args.cell_chosen && args.strict && args.progress);
        assert_eq!(args.events.as_deref(), Some(std::path::Path::new("/tmp/ev.jsonl")));
    }

    #[test]
    fn rejects_unknown_scheduler_listing_valid_specs() {
        let err = parse_cli(&argv(&["--sched", "bogus"])).unwrap_err();
        assert!(err.contains("unknown scheduler spec"), "{err}");
        assert!(err.contains("valid specs"), "usage errors must list valid specs: {err}");
        assert!(err.contains("adversary"), "{err}");
    }

    #[test]
    fn rejects_missing_values_and_bad_numbers() {
        assert!(parse_cli(&argv(&["--sched"])).unwrap_err().contains("missing value"));
        assert!(parse_cli(&argv(&["--n", "many"])).unwrap_err().contains("--n"));
        assert!(parse_cli(&argv(&["--shards", "0"])).unwrap_err().contains("at least 1"));
        assert!(parse_cli(&argv(&["--threads", "0"])).unwrap_err().contains("at least 1"));
        assert!(parse_cli(&argv(&["--stealing", "sometimes"])).unwrap_err().contains("--stealing"));
        assert!(parse_cli(&argv(&["--frobnicate"])).unwrap_err().contains("unknown argument"));
    }

    #[test]
    fn parses_fault_tolerance_flags() {
        let args = parse_cli(&argv(&[
            "--class-timeout-ms",
            "250",
            "--mem-budget-mb",
            "512",
            "--cell-deadline-secs",
            "3600",
            "--journal-chunk",
            "32",
        ]))
        .expect("valid invocation");
        assert_eq!(args.cfg.class_timeout_ms, Some(250));
        assert_eq!(args.cfg.mem_budget_mb, Some(512));
        assert_eq!(args.cfg.cell_deadline_secs, Some(3600));
        assert_eq!(args.cfg.journal_chunk, Some(32));
        // Unset flags stay off: no watchdog, default chunking.
        let plain = parse_cli(&argv(&[])).expect("empty invocation");
        assert_eq!(plain.cfg.class_timeout_ms, None);
        assert_eq!(plain.cfg.mem_budget_mb, None);
        assert_eq!(plain.cfg.cell_deadline_secs, None);
        assert_eq!(plain.cfg.journal_chunk, None);
    }

    #[test]
    fn rejects_bad_fault_tolerance_values() {
        let err = parse_cli(&argv(&["--class-timeout-ms", "soon"])).unwrap_err();
        assert!(err.contains("--class-timeout-ms"), "{err}");
        let err = parse_cli(&argv(&["--cell-deadline-secs", "-1"])).unwrap_err();
        assert!(err.contains("--cell-deadline-secs"), "{err}");
        let err = parse_cli(&argv(&["--journal-chunk", "0"])).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        assert!(parse_cli(&argv(&["--journal-chunk"])).unwrap_err().contains("missing value"));
        let err = parse_cli(&argv(&["--mem-budget-mb", "0"])).unwrap_err();
        assert!(err.contains("--mem-budget-mb") && err.contains("at least 1"), "{err}");
        let err = parse_cli(&argv(&["--mem-budget-mb", "lots"])).unwrap_err();
        assert!(err.contains("--mem-budget-mb"), "{err}");
        assert!(parse_cli(&argv(&["--mem-budget-mb"])).unwrap_err().contains("missing value"));
    }

    #[test]
    fn rejects_conflicting_modes() {
        let err = parse_cli(&argv(&["--matrix", "--fail-fast"])).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = parse_cli(&argv(&["--strict", "--fail-fast"])).unwrap_err();
        assert!(err.contains("--strict"), "{err}");
        let err = parse_cli(&argv(&["--matrix", "--algo", "paper"])).unwrap_err();
        assert!(err.contains("--matrix"), "{err}");
    }

    #[test]
    fn rejects_invalid_cells_through_validate() {
        let err = parse_cli(&argv(&["--n", "1"])).unwrap_err();
        assert!(err.contains("unsupported sweep cell"), "{err}");
    }
}
