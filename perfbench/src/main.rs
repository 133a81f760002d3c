//! One sweep cell in a fresh process, timed at the layer boundaries.
//!
//! `run.py` spawns this binary once per cell, so the process-global
//! decision tables are built every time, exactly as in every `sweep`
//! invocation. The sweep path is, in order:
//!
//! 1. `polyhex::enumerate_fixed` (span `polyhex.enumerate`);
//! 2. `AlgoSpec::build` (span `core.algo_build`);
//! 3. a warm-up running `robots::engine::compute_moves` on every initial
//!    configuration, which forces the lazy decision tables
//!    (span `core.warmup`);
//! 4. `simlab::sweep::run_sweep_with` into an empty directory, with one
//!    `simlab.shard` span per progress callback and a `simlab.summary`
//!    span for the merge and summary write after the last shard.
//!
//! With `--trace` the process then repeats the cell's layers one at a
//! time through their public entry points (`run_shard` per shard,
//! `merge_shards`, `verdict_digest`, then the FSYNC engine or checker
//! construction plus the per-class `check` at the cell's thread count and
//! at one thread) and asserts that each reproduces the sweep's summary.
//!
//! The process prints one JSON line: the epoch time of its first
//! instruction, every span as nanoseconds from that point, its peak
//! resident set when the sweep ends, the per-shard compute times and
//! (traced) the per-class check times.
//!
//! ```text
//! perfbench-cell --sched crash:1 --n 7 --threads 2 --shards 8 --out DIR [--trace]
//! ```

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use gathering::SevenGather;
use robots::adversary::{AdversaryOptions, Checker};
use robots::async_model::{AsyncChecker, AsyncOptions};
use robots::faults::{CrashChecker, CrashOptions};
use robots::{engine, Configuration, Outcome};
use simlab::sweep::{
    self, AlgoSpec, ClassOutcome, SchedSpec, ShardRecord, SweepConfig, SweepRun, SweepSummary,
};
use trigrid::Coord;

/// A named interval, in nanoseconds since the process's first
/// instruction; `parent` indexes the enclosing span.
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
}

/// In-memory span log, written out once when the process ends.
struct Trace {
    base: Instant,
    spans: Vec<Span>,
}

impl Trace {
    fn now(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).expect("a cell runs for under 584 years")
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span named `name`.
    fn time<R>(&mut self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }
}

struct Args {
    sched: SchedSpec,
    n: usize,
    threads: usize,
    shards: usize,
    out: PathBuf,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    // No defaults: `run.py` holds the one value of each.
    let (mut sched, mut n, mut threads, mut shards, mut out) = (None, None, None, None, None);
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--trace" {
            trace = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<usize>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--sched" => {
                sched = Some(SchedSpec::parse(&value).ok_or(format!("unknown --sched {value}"))?);
            }
            "--n" => n = Some(number()?),
            "--threads" => threads = Some(number()?),
            "--shards" => shards = Some(number()?),
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        sched: sched.ok_or("--sched is required")?,
        n: n.ok_or("--n is required")?,
        threads: threads.ok_or("--threads is required")?,
        shards: shards.ok_or("--shards is required")?,
        out: out.ok_or("--out is required")?,
        trace,
    })
}

/// One of the three public model checkers, built exactly as a sweep
/// shard builds its own.
enum AnyChecker<'a> {
    Adversary(Checker<'a, SevenGather>),
    Crash(CrashChecker<'a, SevenGather>),
    Async(AsyncChecker<'a, SevenGather>),
}

impl<'a> AnyChecker<'a> {
    fn for_robots(algo: &'a SevenGather, sched: SchedSpec, n: usize, threads: usize) -> Self {
        let capacity = n.max(8);
        let mut checker = match sched {
            SchedSpec::Adversary { depth } => {
                let opts =
                    AdversaryOptions { fair_depth: depth, ..AdversaryOptions::for_robots(n) };
                AnyChecker::Adversary(Checker::for_robots(algo, opts, capacity))
            }
            SchedSpec::Crash { f, depth } => AnyChecker::Crash(CrashChecker::for_robots(
                algo,
                CrashOptions::new(f, depth),
                capacity,
            )),
            SchedSpec::LcmAsync { depth } => AnyChecker::Async(AsyncChecker::for_robots(
                algo,
                AsyncOptions::new(depth),
                capacity,
            )),
            _ => unreachable!("only model-checking cells build a checker"),
        };
        match &mut checker {
            AnyChecker::Adversary(c) => c.set_threads(threads),
            AnyChecker::Crash(c) => c.set_threads(threads),
            AnyChecker::Async(c) => c.set_threads(threads),
        }
        checker
    }

    /// The class's record row, as the sweep writes it.
    fn check(&self, initial: &Configuration, index: usize, limits: robots::Limits) -> ClassOutcome {
        let mut row = ClassOutcome {
            index,
            outcome: Outcome::Gathered { rounds: 0 },
            expanded: 0,
            verdict: None,
            crash: None,
            lcm_async: None,
            panic: None,
        };
        match self {
            AnyChecker::Adversary(c) => {
                let report = c.check(initial);
                row.outcome = sweep::outcome_of_verdict(&report.verdict, limits);
                row.expanded = report.classes;
                row.verdict = Some(report.verdict);
            }
            AnyChecker::Crash(c) => {
                let report = c.check(initial);
                row.outcome = sweep::outcome_of_crash_verdict(&report.verdict, limits);
                row.expanded = report.states;
                row.crash = Some(report.verdict);
            }
            AnyChecker::Async(c) => {
                let report = c.check(initial);
                row.outcome = sweep::outcome_of_async_verdict(&report.verdict, limits);
                row.expanded = report.states;
                row.lcm_async = Some(report.verdict);
            }
        }
        row
    }
}

fn configuration(cells: &[Coord]) -> Configuration {
    Configuration::new(cells.iter().copied())
}

/// Checks every class through the public checker, one checker per shard
/// range and one pool call per journal chunk, as `run_sweep_with` does.
/// Returns the rows and each class's check time in nanoseconds.
fn check_pass(
    trace: &mut Trace,
    pass: usize,
    cfg: &SweepConfig,
    algo: &SevenGather,
    classes: &[Vec<Coord>],
    threads: usize,
) -> (Vec<ClassOutcome>, Vec<u64>) {
    let limits = cfg.effective_limits();
    let mut rows = Vec::with_capacity(classes.len());
    let mut class_ns = Vec::with_capacity(classes.len());
    for (start, end) in sweep::shard_ranges(classes.len(), cfg.shards) {
        let checker = trace.time("robots.checker_build", Some(pass), || {
            AnyChecker::for_robots(algo, cfg.sched, cfg.n, threads)
        });
        let mut cursor = start;
        while cursor < end {
            let cend = (cursor + sweep::DEFAULT_JOURNAL_CHUNK).min(end);
            let indexed: Vec<(usize, &Vec<Coord>)> =
                (cursor..cend).zip(&classes[cursor..cend]).collect();
            let timed = trace.time("robots.check_chunk", Some(pass), || {
                parallel::stealing::par_map_stealing(&indexed, threads, |&(index, cells)| {
                    let t0 = Instant::now();
                    let row = checker.check(&configuration(cells), index, limits);
                    (row, t0.elapsed().as_nanos() as u64)
                })
            });
            for (row, ns) in timed {
                rows.push(row);
                class_ns.push(ns);
            }
            cursor = cend;
        }
    }
    (rows, class_ns)
}

/// Tallies and digest of `rows`, merged as one record covering the cell.
fn summarize(cfg: &SweepConfig, rows: Vec<ClassOutcome>) -> Result<SweepSummary, String> {
    let record = ShardRecord {
        algo: cfg.algo.name(),
        sched: cfg.sched.name(),
        robots: cfg.n,
        max_rounds: cfg.limits.max_rounds,
        shard: 0,
        shards: 1,
        start: 0,
        end: rows.len(),
        results: rows,
        metrics: None,
        record_digest: None,
    };
    sweep::merge_shards(&SweepConfig { shards: 1, ..cfg.clone() }, &[record])
}

fn fail(what: &str) -> Result<(), String> {
    Err(format!("traced pass disagrees with the sweep: {what}"))
}

/// What the traced passes measure beyond their spans.
#[derive(Default)]
struct Traced {
    /// Per-class `check` time at the cell's thread count, in class order.
    class_ns: Vec<u64>,
    /// Rounds summed over the FSYNC engine runs.
    engine_rounds: u64,
}

/// The cell's layers one at a time, each checked against `summary`.
fn traced_passes(
    trace: &mut Trace,
    root: usize,
    cfg: &SweepConfig,
    algo: &SevenGather,
    classes: &[Vec<Coord>],
    summary: &SweepSummary,
) -> Result<Traced, String> {
    let mut traced = Traced::default();
    let pass = trace.open("simlab.shard_pass", Some(root));
    let records: Vec<ShardRecord> = sweep::shard_ranges(classes.len(), cfg.shards)
        .into_iter()
        .enumerate()
        .map(|(shard, (start, end))| {
            trace.time("simlab.run_shard", Some(pass), || {
                sweep::run_shard(classes, cfg, shard, start, end)
            })
        })
        .collect();
    trace.close(pass);
    let merged = trace.time("simlab.merge", Some(root), || sweep::merge_shards(cfg, &records))?;
    if merged != *summary {
        fail("merge_shards")?;
    }
    let digest = trace.time("simlab.digest", Some(root), || sweep::verdict_digest(&records));
    if summary.digest.is_some() && Some(format!("{digest:016x}")) != summary.digest {
        fail("verdict_digest")?;
    }
    drop(records);

    if cfg.sched == SchedSpec::Fsync {
        let limits = cfg.effective_limits();
        let (mut gathered, mut max_rounds, mut total_rounds) = (0usize, 0usize, 0usize);
        trace.time("robots.engine", Some(root), || {
            for cells in classes {
                if let Outcome::Gathered { rounds } =
                    engine::run(&configuration(cells), algo, limits).outcome
                {
                    gathered += 1;
                    max_rounds = max_rounds.max(rounds);
                    total_rounds += rounds;
                }
            }
        });
        if gathered != summary.gathered || max_rounds != summary.max_rounds {
            fail("FSYNC gathered count or max rounds")?;
        }
        traced.engine_rounds = total_rounds as u64;
        return Ok(traced);
    }
    let pass = trace.open("robots.check_pass", Some(root));
    let (rows, class_ns) = check_pass(trace, pass, cfg, algo, classes, cfg.threads);
    trace.close(pass);
    let checked = summarize(cfg, rows)?;
    if checked.adversary != summary.adversary || checked.digest != summary.digest {
        fail("verdict tallies or digest")?;
    }
    traced.class_ns = class_ns;
    let pass = trace.open("robots.check_pass_t1", Some(root));
    let (rows, _) = check_pass(trace, pass, cfg, algo, classes, 1);
    trace.close(pass);
    if summarize(cfg, rows)?.digest != summary.digest {
        fail("verdict digest at one thread")?;
    }
    Ok(traced)
}

/// This process's peak resident set (`VmHWM`), in KiB. Unlike the
/// parent's `wait4` rusage, it excludes whatever the spawning process had
/// resident before `exec`.
fn peak_rss_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn run(base: Instant, epoch: f64) -> Result<String, String> {
    let args = parse_args()?;
    let cfg = SweepConfig {
        algo: AlgoSpec::Verified,
        sched: args.sched,
        n: args.n,
        shards: args.shards,
        threads: args.threads,
        ..SweepConfig::default()
    };
    cfg.validate()?;
    let mut trace = Trace { base, spans: Vec::new() };

    let classes = trace.time("polyhex.enumerate", None, || polyhex::enumerate_fixed(cfg.n));
    let algo = trace.time("core.algo_build", None, || cfg.algo.build());
    trace.time("core.warmup", None, || {
        for cells in &classes {
            black_box(engine::compute_moves(&configuration(cells), &algo));
        }
    });

    // Each progress callback marks the end of one shard (compute, journal
    // and record publish); the records' own `sweep.shard_wall_ns` counter
    // gives the compute part.
    let sweep_span = trace.open("simlab.run_sweep_with", None);
    let mut shard_ends = Vec::with_capacity(cfg.shards);
    let mut shard_compute_ns = Vec::with_capacity(cfg.shards);
    let run = sweep::run_sweep_with(&cfg, &args.out, false, |_, _, record| {
        shard_ends.push(trace.now());
        shard_compute_ns
            .push(record.metrics.as_ref().map_or(0, |m| m.snapshot.counter("sweep.shard_wall_ns")));
    })
    .map_err(|e| format!("run_sweep_with: {e}"))?;
    let mut shard_start = trace.spans[sweep_span].start;
    for end in shard_ends {
        trace.spans.push(Span {
            name: "simlab.shard",
            start: shard_start,
            end,
            parent: Some(sweep_span),
        });
        shard_start = end;
    }
    let summary_span = trace.open("simlab.summary", Some(sweep_span));
    trace.spans[summary_span].start = shard_start;
    trace.close(summary_span);
    trace.close(sweep_span);
    let SweepRun::Complete(outcome) = run else {
        return Err("run_sweep_with stopped before the cell completed".into());
    };
    let sweep_end = trace.spans[sweep_span].end;
    let peak_rss_kb = peak_rss_kb()?;

    let traced = if args.trace {
        let root = trace.open("cell.traced_passes", None);
        let traced = traced_passes(&mut trace, root, &cfg, &algo, &classes, &outcome.summary)?;
        trace.close(root);
        traced
    } else {
        Traced::default()
    };

    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"epoch\":{epoch:.9},\"classes\":{},\"sweep_end_ns\":{sweep_end},\"peak_rss_kb\":{peak_rss_kb},\"summary\":\"{}\",\"spans\":[",
        classes.len(),
        cfg.summary_path(&args.out).display()
    );
    for (i, s) in trace.spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            line,
            "{sep}{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            s.name, s.start, s.end
        );
    }
    let list = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
    let _ = write!(
        line,
        "],\"class_ns\":[{}],\"shard_compute_ns\":[{}],\"engine_rounds\":{}}}",
        list(&traced.class_ns),
        list(&shard_compute_ns),
        traced.engine_rounds
    );
    Ok(line)
}

fn main() -> ExitCode {
    let base = Instant::now();
    let epoch = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0.0, |d| d.as_secs_f64());
    match run(base, epoch) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-cell: {e}");
            ExitCode::FAILURE
        }
    }
}
