//! Failure-cluster diagnosis for rule-set completion.
//!
//! Runs the exhaustive verification, groups the failing executions by
//! the canonical *final* configuration (for stuck fixpoints) or by
//! outcome type, and prints the most frequent clusters with per-robot
//! base decisions — the raw material for designing the missing guards.
//!
//! ```text
//! cargo run --release -p simlab --bin diagnose [-- paper|verified] [--top N]
//! cargo run --release -p simlab --bin diagnose -- --stats [--class I] [--n N] [paper|verified]
//! ```
//!
//! `--stats` switches to single-class telemetry mode: it runs the
//! exhaustive SSYNC adversary checker on one class (`--class`, default
//! 0, of the `--n`-robot enumeration, default 7) and dumps the
//! checker's telemetry snapshot — per-phase wall times, the class
//! table's size, frontier peaks — as pretty JSON plus a short human
//! summary.
//!
//! The algorithm (`paper`, or the default `verified`) may stand anywhere
//! among the flags, in either mode. Any other argument, a value that is
//! not a number, or an `--n` above [`MAX_SWEEP_N`] prints the usage to
//! stderr and exits 2 before anything runs. Both modes write through
//! [`simlab::write_stdout`], so a closed reader (`diagnose --stats |
//! head`) ends the run quietly with exit 0.

use gathering::base::{determine, BaseDecision};
use gathering::SevenGather;
use robots::adversary::{AdversaryOptions, Checker};
use robots::{engine, Algorithm, Configuration, Limits, Outcome, View};
use simlab::render;
use simlab::sweep::MAX_SWEEP_N;
use std::collections::HashMap;
use std::io::{self, Write};

/// The command line, parsed.
struct Args {
    /// Whether `paper` was given (else the verified rules run).
    paper: bool,
    /// Whether `--stats` was given.
    stats: bool,
    /// `--top N`: clusters printed (default 8).
    top: usize,
    /// `--n N`: the robot count of `--stats` (default 7).
    n: usize,
    /// `--class I`: the class of `--stats` (default 0).
    class: usize,
}

/// Parses the arguments; `Err` says why the first bad one is rejected.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { paper: false, stats: false, top: 8, n: 7, class: 0 };
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let mut number = |flag: &str| {
            let value = rest.next().ok_or_else(|| format!("{flag} takes a value"))?;
            value.parse().map_err(|_| format!("{flag} takes a number, not {value:?}"))
        };
        match arg.as_str() {
            "paper" => parsed.paper = true,
            "verified" => {}
            "--stats" => parsed.stats = true,
            "--top" => parsed.top = number("--top")?,
            "--n" => parsed.n = number("--n")?,
            "--class" => parsed.class = number("--class")?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.n > MAX_SWEEP_N {
        return Err(format!("--n {} is above the largest robot count, {MAX_SWEEP_N}", parsed.n));
    }
    Ok(parsed)
}

/// Prints `msg` and the usage to stderr, and exits with the usage code 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: diagnose [paper|verified] [--top N]\n\
         \x20      diagnose --stats [--n N] [--class I] [paper|verified]"
    );
    std::process::exit(2);
}

/// `--stats` mode: one class, one check, full telemetry dump.
fn run_stats(args: &Args, algo: &SevenGather, out: &mut impl Write) -> io::Result<()> {
    let Args { n, class, .. } = *args;
    let which = if args.paper { "paper" } else { "verified" };
    let classes = polyhex::enumerate_fixed(n);
    let Some(cells) = classes.get(class) else {
        eprintln!("class {class} out of range: the n={n} space holds {} classes", classes.len());
        std::process::exit(2);
    };
    let initial = Configuration::new(cells.iter().copied());
    let checker = Checker::for_robots(algo, AdversaryOptions::for_robots(n), n.max(8));
    let report = checker.check(&initial);
    let snapshot = checker.metrics_snapshot();

    writeln!(
        out,
        "class {class}/{} (n={n}, {which}): verdict {:?}",
        classes.len(),
        report.verdict
    )?;
    writeln!(
        out,
        "classes {} · edges {} · deduped {}",
        report.classes, report.edges, report.deduped
    )?;
    let ms = |name: &str| snapshot.counter(name) as f64 / 1e6;
    let (a, d) = (ms("explore.phase_a_ns"), ms("explore.phase_d_ns"));
    writeln!(out, "phases: A {a:.2} ms · D {d:.2} ms")?;
    writeln!(
        out,
        "class table: {} classes · {:.1} KiB",
        snapshot.counter("explore.classes"),
        snapshot.gauge("explore.class_table_bytes") as f64 / 1024.0
    )?;
    if let Some(width) = snapshot.histogram("explore.frontier_width") {
        writeln!(
            out,
            "frontier: peak {} · mean {:.1} over {} levels",
            width.max,
            width.mean(),
            width.count
        )?;
    }
    writeln!(out, "\nsnapshot:")?;
    writeln!(out, "{}", serde_json::to_string_pretty(&snapshot).expect("snapshot serializes"))
}

/// Default mode: FSYNC over every seven-robot class, failures clustered
/// by canonical final configuration.
fn run_clusters(top: usize, algo: &SevenGather, out: &mut impl Write) -> io::Result<()> {
    let limits = Limits::default();
    let classes = polyhex::enumerate_fixed(7);

    let results = parallel::par_map(&classes, 0, |cells| {
        let initial = Configuration::new(cells.iter().copied());
        engine::run(&initial, algo, limits)
    });

    let mut outcome_kinds: HashMap<&'static str, usize> = HashMap::new();
    // stuck fixpoints and livelocks clustered by canonical final config
    let mut clusters: HashMap<Configuration, (usize, Configuration, &'static str)> = HashMap::new();
    let mut gathered = 0usize;
    for ex in &results {
        let kind = match ex.outcome {
            Outcome::Gathered { .. } => {
                gathered += 1;
                continue;
            }
            Outcome::StuckFixpoint { .. } => "stuck",
            Outcome::Livelock { .. } => "livelock",
            Outcome::Collision { .. } => "collision",
            Outcome::Disconnected { .. } => "disconnected",
            Outcome::StepLimit { .. } => "step-limit",
            // `engine::run` never emits it (checker-only outcome), but
            // the match must stay total.
            Outcome::Undecided { .. } => "undecided",
        };
        *outcome_kinds.entry(kind).or_default() += 1;
        let key = ex.final_config.canonical();
        let entry = clusters.entry(key).or_insert((0, ex.initial.clone(), kind));
        entry.0 += 1;
    }

    writeln!(out, "gathered {gathered}/{} ; failure kinds: {outcome_kinds:?}", results.len())?;
    writeln!(out, "{} distinct failure clusters\n", clusters.len())?;

    let mut ordered: Vec<(&Configuration, &(usize, Configuration, &'static str))> =
        clusters.iter().collect();
    ordered.sort_by_key(|e| std::cmp::Reverse(e.1 .0));

    for (final_cfg, (count, sample_initial, kind)) in ordered.into_iter().take(top) {
        writeln!(out, "=== cluster ({kind}) x{count} — final configuration:")?;
        write!(out, "{}", render::render_with_margin(final_cfg, 0))?;
        writeln!(out, "per-robot analysis of the final configuration:")?;
        for &p in final_cfg.positions() {
            let v = View::observe(final_cfg, p, 2);
            let b = determine(&v);
            let mv = algo.compute(&v);
            let btxt = match b {
                BaseDecision::Base(c) => format!("base {c}"),
                BaseDecision::VirtualEast => "base virtual(4,0)".to_string(),
                BaseDecision::SelfPromotion => "self-promotion".to_string(),
                BaseDecision::Tie => "tie".to_string(),
            };
            writeln!(out, "  robot {p}: {btxt}, move {mv:?}")?;
        }
        writeln!(out, "sample initial configuration:")?;
        write!(out, "{}", render::render_with_margin(sample_initial, 0))?;
        writeln!(out)?;
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|msg| usage_error(&msg));
    let algo = if args.paper { SevenGather::paper() } else { SevenGather::verified() };
    simlab::write_stdout("diagnose", |out| {
        if args.stats {
            run_stats(&args, &algo, out)
        } else {
            run_clusters(args.top, &algo, out)
        }
    });
}
