//! Sharded, resumable verification sweeps — the §IV-B experiment as a
//! production pipeline.
//!
//! [`verify_all`](crate::verify_all) answers the paper's question in one
//! shot; this module turns it into a reusable pipeline over the
//! **scheduler matrix** the paper leaves as future work (§V):
//!
//! * a sweep **cell** is a pair of [`AlgoSpec`] (the paper rules, the
//!   verified rules, or a named ablation of [`RuleOptions`]) and
//!   [`SchedSpec`] (FSYNC, round-robin, seeded random subsets, or one
//!   of the exhaustive model checkers: the SSYNC adversary, the
//!   crash-fault adversary, or the ASYNC phase-interleaving
//!   adversary). A model-checking cell runs one [`ModelChecker`],
//!   built and armed with the cell's class deadline and byte budget in
//!   one place;
//! * the 3652-class space is split into contiguous **shards**, each
//!   fanned across [`parallel::par_map`], whose workers claim one class
//!   index at a time from a shared counter (the per-class checker runs
//!   of the model-checking cells are wildly skewed: a proof explores
//!   thousands of states where a refutation stops at its first bad
//!   terminal) and persisted as a **record**: the shard's journal of
//!   framed JSON lines (a header, one line per chunk of
//!   [`ClassOutcome`]s, a metrics footer), completed and renamed into
//!   place. Work items carry their class index and results are merged
//!   in index order, so the result stream is **byte-identical for every
//!   worker-thread count** — `tests/determinism.rs` pins this for the
//!   model-checking cells;
//! * a **merge** step loads the shard records, checks they tile the
//!   class space exactly, and folds them into a [`SweepSummary`];
//! * reruns with `resume` skip shards whose record on disk already
//!   matches the cell, so an interrupted sweep continues where it
//!   stopped and a finished sweep is free to re-query.
//!
//! The `sweep` binary exposes the pipeline on the command line; the
//! golden-file regression test pins the merged summary for the
//! verified-rules FSYNC cell at 3652/3652 gathered.
//!
//! # Fault tolerance (DESIGN.md §17)
//!
//! Long cells survive crashes, kills and poisoned classes:
//!
//! * each computing shard appends completed class chunks to an
//!   intra-shard **journal** (`*.journal`, length-and-digest-framed
//!   JSONL), so a killed process resumes mid-shard instead of
//!   re-running the whole range; the torn tail of a journal is
//!   detected by its framing and dropped;
//! * a completed journal is published **atomically** as the shard's
//!   record (metrics footer + fsync + rename + directory fsync), so
//!   every class result is serialized exactly once; on resume a record
//!   with a torn, corrupt, missing, duplicated or reordered line, or
//!   bytes after its footer, is **quarantined** to `<record>.corrupt`
//!   with a warning and recomputed;
//! * a **panicking class** is caught per item, degraded to a counted
//!   [`Outcome::Undecided`] row carrying the panic payload, and the
//!   rest of the shard keeps draining;
//! * wall-clock **watchdogs**: [`SweepConfig::class_timeout_ms`] bounds
//!   one class's check (yielding a `Timeout` undecided verdict), and
//!   [`SweepConfig::cell_deadline_secs`] checkpoints the journal and
//!   stops the sweep cleanly ([`SweepRun::DeadlineStopped`]) for a
//!   later resume.
//!
//! All of it is exercised deterministically through the `failpoints`
//! crate (`FAILPOINTS=site=action` in tests); with failpoints disarmed
//! every path costs one relaxed atomic load.

use gathering::rules::RuleOptions;
use gathering::SevenGather;
use robots::adversary::{
    self, AdversaryOptions, AdversaryVerdict, Checker, SsyncModel, DEFAULT_FAIR_DEPTH,
};
use robots::async_model::{AsyncChecker, AsyncModel, AsyncOptions, AsyncVerdict};
use robots::checker::{Model, ModelChecker};
use robots::explore::{CrashSemantics, UndecidedReason};
use robots::faults::{self, CrashChecker, CrashModel, CrashOptions, CrashVerdict};
use robots::sched::{RandomSubset, RoundRobin};
use robots::{engine, sched, Algorithm, Configuration, Limits, Outcome};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trigrid::Coord;

/// Which algorithm variant a sweep cell runs.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum AlgoSpec {
    /// Algorithm 1 exactly as printed ([`SevenGather::paper`]).
    Paper,
    /// The completed rule set ([`SevenGather::verified`]).
    Verified,
    /// A custom [`RuleOptions`] combination without the synthesized
    /// overrides ([`SevenGather::with_options`]) — the ablation axis.
    Ablation(RuleOptions),
}

impl AlgoSpec {
    /// Parses an algorithm spec: `paper`, `verified`, or a
    /// `+`-separated ablation flag list out of `fix25`, `conn`, `prio`,
    /// `compl`, `mirror` (e.g. `fix25+conn+compl`). `none` names the
    /// empty ablation (printed rules via the ablation path).
    #[must_use]
    pub fn parse(s: &str) -> Option<AlgoSpec> {
        match s {
            "paper" => return Some(AlgoSpec::Paper),
            "verified" => return Some(AlgoSpec::Verified),
            _ => {}
        }
        let mut opts = RuleOptions::PAPER;
        if s != "none" {
            for flag in s.split('+') {
                match flag {
                    "fix25" => opts.fix_line25_misprint = true,
                    "conn" => opts.connectivity_guard = true,
                    "prio" => opts.priority_guard = true,
                    "compl" => opts.completion = true,
                    "mirror" => opts.mirror_line23_guard = true,
                    _ => return None,
                }
            }
        }
        Some(AlgoSpec::Ablation(opts))
    }

    /// Canonical name used in filenames and records.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            AlgoSpec::Paper => "paper".to_string(),
            AlgoSpec::Verified => "verified".to_string(),
            AlgoSpec::Ablation(opts) => {
                let mut flags = Vec::new();
                if opts.fix_line25_misprint {
                    flags.push("fix25");
                }
                if opts.connectivity_guard {
                    flags.push("conn");
                }
                if opts.priority_guard {
                    flags.push("prio");
                }
                if opts.completion {
                    flags.push("compl");
                }
                if opts.mirror_line23_guard {
                    flags.push("mirror");
                }
                if flags.is_empty() {
                    "none".to_string()
                } else {
                    flags.join("+")
                }
            }
        }
    }

    /// Instantiates the algorithm.
    #[must_use]
    pub fn build(&self) -> SevenGather {
        match self {
            AlgoSpec::Paper => SevenGather::paper(),
            AlgoSpec::Verified => SevenGather::verified(),
            AlgoSpec::Ablation(opts) => SevenGather::with_options(*opts),
        }
    }
}

/// Which activation scheduler a sweep cell runs under.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum SchedSpec {
    /// Everyone, every round — the paper's model; livelock detection by
    /// class repetition is sound here and stays on.
    Fsync,
    /// Exactly one robot per round (maximally sequential adversary).
    RoundRobin,
    /// Each robot independently active with probability `p`; the
    /// per-class generator is derived from `seed` and the class index,
    /// so every cell is reproducible run-to-run and shard-to-shard.
    RandomSubset {
        /// Base seed for the sweep cell.
        seed: u64,
        /// Activation probability in `(0, 1]`.
        p: f64,
    },
    /// The exhaustive SSYNC adversary model checker
    /// ([`robots::adversary`]): every class is classified as
    /// adversary-proof, refuted (with a replayable counterexample
    /// schedule stored in the record), or undecided (a search budget
    /// tripped).
    Adversary {
        /// The `D` of `--sched adversary:D`. It only names the cell
        /// (`adversary-d5`) so existing record sets still resume; the
        /// fair-cycle decision takes no depth bound.
        depth: usize,
    },
    /// The exhaustive crash-fault model checker ([`robots::faults`]):
    /// the SSYNC adversary may additionally crash up to `f` robots
    /// permanently, and every class is classified as f-crash-proof,
    /// refuted (with a replayable schedule + crash assignment), or
    /// undecided (a search budget tripped).
    Crash {
        /// Maximal number of crashed robots (`F` of `--sched crash:F`).
        f: u8,
        /// The `D` of `--sched crash:F:D`; only names the cell.
        depth: usize,
    },
    /// The exhaustive ASYNC phase-interleaving model checker
    /// ([`robots::async_model`]): the adversary advances one robot's
    /// Look-Compute-Move phase per tick (pending moves execute from
    /// possibly stale snapshots), and every class is classified as
    /// async-proof, refuted (with a replayable tick schedule), or
    /// undecided (a search budget tripped).
    LcmAsync {
        /// The `D` of `--sched lcm-async:D`; only names the cell.
        depth: usize,
    },
}

/// The scheduler specs `SchedSpec::parse` accepts, for CLI error
/// messages and usage strings. Every spec listed here round-trips
/// through [`SchedSpec::parse`] (pinned by a unit test below).
pub const SCHED_SPECS: &str =
    "fsync, round-robin (rr), random[:SEED:P], adversary[:DEPTH], crash:F[:DEPTH], \
     lcm-async[:DEPTH]";

/// One concrete example per spec family of [`SCHED_SPECS`], with and
/// without the optional parameters — the round-trip test's fixture.
pub const SCHED_SPEC_EXAMPLES: &[&str] = &[
    "fsync",
    "round-robin",
    "rr",
    "random",
    "random:9:0.25",
    "adversary",
    "adversary:5",
    "crash:1",
    "crash:2:6",
    "lcm-async",
    "lcm-async:5",
];

impl SchedSpec {
    /// Parses a scheduler spec: `fsync`, `round-robin` (or `rr`),
    /// `random` (optionally `random:SEED:P`), `adversary` (optionally
    /// `adversary:DEPTH`), `crash:F` (optionally `crash:F:DEPTH`) with
    /// `F <= 7` crashed robots, or `lcm-async` (optionally
    /// `lcm-async:DEPTH`). `DEPTH` only names the cell.
    #[must_use]
    pub fn parse(s: &str) -> Option<SchedSpec> {
        match s {
            "fsync" => return Some(SchedSpec::Fsync),
            "round-robin" | "rr" => return Some(SchedSpec::RoundRobin),
            "random" => return Some(SchedSpec::RandomSubset { seed: 1, p: 0.5 }),
            "adversary" => return Some(SchedSpec::Adversary { depth: DEFAULT_FAIR_DEPTH }),
            "lcm-async" => return Some(SchedSpec::LcmAsync { depth: DEFAULT_FAIR_DEPTH }),
            _ => {}
        }
        let mut parts = s.split(':');
        match parts.next() {
            Some("random") => {
                let seed = parts.next()?.parse().ok()?;
                let p: f64 = parts.next()?.parse().ok()?;
                (parts.next().is_none() && p > 0.0 && p <= 1.0)
                    .then_some(SchedSpec::RandomSubset { seed, p })
            }
            Some("adversary") => {
                let depth: usize = parts.next()?.parse().ok()?;
                (parts.next().is_none() && depth > 0).then_some(SchedSpec::Adversary { depth })
            }
            Some("crash") => {
                let f: u8 = parts.next()?.parse().ok()?;
                let depth: usize = match parts.next() {
                    Some(d) => d.parse().ok()?,
                    None => DEFAULT_FAIR_DEPTH,
                };
                // At most n - 1 robots can crash and n <= MAX_SWEEP_N;
                // the per-cell f < n check lives in
                // [`SweepConfig::validate`].
                (parts.next().is_none() && usize::from(f) < MAX_SWEEP_N && depth > 0)
                    .then_some(SchedSpec::Crash { f, depth })
            }
            Some("lcm-async") => {
                let depth: usize = parts.next()?.parse().ok()?;
                (parts.next().is_none() && depth > 0).then_some(SchedSpec::LcmAsync { depth })
            }
            _ => None,
        }
    }

    /// Canonical name used in filenames and records.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            SchedSpec::Fsync => "fsync".to_string(),
            SchedSpec::RoundRobin => "round-robin".to_string(),
            SchedSpec::RandomSubset { seed, p } => format!("random-s{seed}-p{p}"),
            SchedSpec::Adversary { depth } if *depth == DEFAULT_FAIR_DEPTH => {
                "adversary".to_string()
            }
            SchedSpec::Adversary { depth } => format!("adversary-d{depth}"),
            SchedSpec::Crash { f, depth } if *depth == DEFAULT_FAIR_DEPTH => format!("crash-f{f}"),
            SchedSpec::Crash { f, depth } => format!("crash-f{f}-d{depth}"),
            SchedSpec::LcmAsync { depth } if *depth == DEFAULT_FAIR_DEPTH => {
                "lcm-async".to_string()
            }
            SchedSpec::LcmAsync { depth } => format!("lcm-async-d{depth}"),
        }
    }
}

/// Smallest robot count a sweep cell supports (a single robot is
/// trivially gathered; the class spaces of interest start at two).
pub const MIN_SWEEP_N: usize = 2;

/// Largest robot count a sweep cell supports, bounded by the packed
/// class key's capacity ([`robots::PackedClass::MAX_ROBOTS`]).
pub const MAX_SWEEP_N: usize = robots::PackedClass::MAX_ROBOTS;

/// Full description of one sweep cell plus its execution knobs.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// The algorithm axis.
    pub algo: AlgoSpec,
    /// The scheduler axis.
    pub sched: SchedSpec,
    /// Number of robots (7 for the paper's experiment; any
    /// [`MIN_SWEEP_N`]`..=`[`MAX_SWEEP_N`] sweeps soundly).
    pub n: usize,
    /// Number of contiguous shards the class space is split into.
    pub shards: usize,
    /// Worker threads per shard (`0` = all cores).
    pub threads: usize,
    /// Per-execution limits. Livelock detection is automatically
    /// disabled for non-deterministic schedulers.
    pub limits: Limits,
    /// Cooperative per-class wall-clock deadline in milliseconds for
    /// model-checking cells: a class whose check outlives it is
    /// degraded to an `Undecided` verdict with
    /// [`UndecidedReason::Timeout`]. Timing-dependent by nature, so
    /// the counter-budgeted default (`None`) keeps digests
    /// reproducible; arm it for exploratory cells where one
    /// pathological class must not wedge a sweep.
    pub class_timeout_ms: Option<u64>,
    /// Deterministic per-class byte budget in mebibytes for
    /// model-checking cells: a class whose live exploration footprint
    /// (a pure function of interned class/state/edge counts) exceeds it
    /// is degraded to an `Undecided` verdict with
    /// [`UndecidedReason::MemBudget`]. Unlike the wall-clock timeout
    /// this trips identically across thread counts, shard layouts and
    /// scratch reuse, so budgeted sweeps stay reproducible.
    pub mem_budget_mb: Option<usize>,
    /// Wall-clock deadline in seconds for the whole cell: once it
    /// passes, the running shard checkpoints its journal at the next
    /// chunk boundary and [`run_sweep_with`] returns
    /// [`SweepRun::DeadlineStopped`] instead of an error — rerun with
    /// resume to continue exactly there. `None` (the default) never
    /// stops.
    pub cell_deadline_secs: Option<u64>,
    /// Classes per journal checkpoint chunk while a shard computes
    /// (`None` = [`DEFAULT_JOURNAL_CHUNK`]). Smaller chunks lose less
    /// work to a kill but append to the journal more often.
    pub journal_chunk: Option<usize>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            algo: AlgoSpec::Verified,
            sched: SchedSpec::Fsync,
            n: 7,
            shards: 8,
            threads: 0,
            limits: Limits::default(),
            class_timeout_ms: None,
            mem_budget_mb: None,
            cell_deadline_secs: None,
            journal_chunk: None,
        }
    }
}

impl SweepConfig {
    /// The limits actually applied per execution (livelock detection
    /// off for schedulers where repetition is not proof of livelock).
    #[must_use]
    pub fn effective_limits(&self) -> Limits {
        match self.sched {
            SchedSpec::Fsync => self.limits,
            _ => Limits { detect_livelock: false, ..self.limits },
        }
    }

    /// Checks that the cell is one the pipeline can sweep soundly:
    /// `n` within the packed-key capacity and, for crash cells, a
    /// crash budget below the robot count (crashing every robot leaves
    /// nothing to gather). Call before running: an invalid cell must
    /// fail fast, never panic mid-shard or write bogus records.
    ///
    /// # Errors
    /// A human-readable description of the unsupported combination.
    pub fn validate(&self) -> Result<(), String> {
        if !(MIN_SWEEP_N..=MAX_SWEEP_N).contains(&self.n) {
            return Err(format!(
                "unsupported robot count n={}: packed class keys support n in \
                 {MIN_SWEEP_N}..={MAX_SWEEP_N}",
                self.n
            ));
        }
        if let SchedSpec::Crash { f, .. } = self.sched {
            if usize::from(f) >= self.n {
                return Err(format!(
                    "unsupported crash budget f={f} for n={}: at most n - 1 = {} robots \
                     may crash (use --sched crash:F with F < N)",
                    self.n,
                    self.n - 1
                ));
            }
        }
        Ok(())
    }

    /// `algo-sched` slug for filenames, suffixed with `-nN` for robot
    /// counts other than the paper's seven (whose artifact names
    /// predate the `n` axis and stay stable).
    #[must_use]
    pub fn slug(&self) -> String {
        let base = format!("{}-{}", self.algo.name(), self.sched.name());
        if self.n == 7 {
            base
        } else {
            format!("{base}-n{}", self.n)
        }
    }

    /// Path of the published record for `shard`: the shard's completed
    /// journal, renamed here. Records written as pretty `.json` files
    /// by older builds sit at a different path and are never opened.
    #[must_use]
    pub fn shard_path(&self, out_dir: &Path, shard: usize) -> PathBuf {
        out_dir.join(format!("sweep-{}-shard{:04}of{:04}.record", self.slug(), shard, self.shards))
    }

    /// Path of the intra-shard progress journal for `shard`: completed
    /// class chunks land here while the shard computes, and a resumed
    /// run continues from the journal's longest valid prefix. Publishing
    /// the record renames it to [`SweepConfig::shard_path`].
    #[must_use]
    pub fn journal_path(&self, out_dir: &Path, shard: usize) -> PathBuf {
        out_dir.join(format!("sweep-{}-shard{:04}of{:04}.journal", self.slug(), shard, self.shards))
    }

    /// Path of the merged summary file.
    #[must_use]
    pub fn summary_path(&self, out_dir: &Path) -> PathBuf {
        out_dir.join(format!("sweep-{}-summary.json", self.slug()))
    }
}

/// The verdict for one class, tagged with its global enumeration index
/// so shards can be merged and validated.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClassOutcome {
    /// Index of the class in enumeration order (global, not per-shard).
    pub index: usize,
    /// How the execution ended. For adversary cells this is the
    /// *witness* outcome: the counterexample's terminal outcome for
    /// refuted classes, `Gathered {{ rounds: 0 }}` for proofs, and
    /// `StepLimit` for undecided classes — use `verdict` for the
    /// authoritative classification.
    pub outcome: Outcome,
    /// Deterministic work measure: rounds executed for scheduled cells,
    /// states explored for model-checking cells. Summed into
    /// [`SweepOutcome::expanded`].
    pub expanded: usize,
    /// The model-checking verdict (adversary cells only).
    pub verdict: Option<AdversaryVerdict>,
    /// The crash-fault model-checking verdict (crash cells only;
    /// absent in records written before the crash subsystem).
    #[serde(default)]
    pub crash: Option<CrashVerdict>,
    /// The ASYNC model-checking verdict (lcm-async cells only; absent
    /// in records written before the ASYNC subsystem).
    #[serde(default)]
    pub lcm_async: Option<AsyncVerdict>,
    /// Panic payload when this class's check panicked and the sweep
    /// degraded it to a counted undecided row instead of killing the
    /// cell ([`UndecidedReason::Panicked`]); absent otherwise.
    #[serde(default)]
    pub panic: Option<String>,
}

/// An out-of-band telemetry reading riding along a shard record or a
/// merged summary: phase wall times, class-table size, BFS shape
/// histograms and pool activity (see DESIGN.md §16).
///
/// Wall times and pool activity are inherently nondeterministic, so
/// this wrapper's `PartialEq` deliberately ignores the reading:
/// metrics are observability, never part of result equality. Every
/// invariance the pipeline asserts (thread-count invariance, resume
/// equality, digest pinning) is about *classifications*, and those
/// comparisons must keep passing whether telemetry readings differ,
/// are disabled, or are absent.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct MetricsBlock {
    /// The merged telemetry snapshot.
    pub snapshot: telemetry::Snapshot,
}

impl PartialEq for MetricsBlock {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// The result of one shard of a sweep cell, as computed or as loaded
/// back from its published record.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShardRecord {
    /// Algorithm name ([`AlgoSpec::name`]).
    pub algo: String,
    /// Scheduler name ([`SchedSpec::name`]).
    pub sched: String,
    /// Number of robots.
    pub robots: usize,
    /// Round cap the executions ran under. A record computed with a
    /// different cap is not reusable: step-limit outcomes depend on it.
    pub max_rounds: usize,
    /// This shard's index in `0..shards`.
    pub shard: usize,
    /// Total number of shards in the sweep.
    pub shards: usize,
    /// First class index covered (inclusive).
    pub start: usize,
    /// One past the last class index covered.
    pub end: usize,
    /// Per-class outcomes, in enumeration order.
    pub results: Vec<ClassOutcome>,
    /// Telemetry reading for this shard's work (absent in records
    /// written before the observability layer; never affects resume
    /// matching, merging or digests).
    #[serde(default)]
    pub metrics: Option<MetricsBlock>,
    /// Unused: never set or read. Records are no longer sealed with a
    /// self-digest, because every line of a published record carries
    /// its own length and FNV-1a digest. The field stays only so that
    /// code outside this crate building a `ShardRecord` by struct
    /// literal (the benchmark harness) still compiles.
    #[serde(default)]
    pub record_digest: Option<String>,
}

impl ShardRecord {
    /// Deep per-record validation of the result rows: the range must
    /// tile exactly (right length, consecutive indices) and every row
    /// must carry exactly the verdict column the cell's scheduler
    /// produces. A record that fails this *while claiming to be this
    /// shard* is corrupt and gets quarantined on resume.
    ///
    /// # Errors
    /// A human-readable description of the first inconsistency.
    fn validate_results(&self, cfg: &SweepConfig) -> Result<(), String> {
        if self.results.len() != self.end - self.start {
            return Err(format!(
                "{} results for range {}..{}",
                self.results.len(),
                self.start,
                self.end
            ));
        }
        let (want_adv, want_crash, want_async) = match cfg.sched {
            SchedSpec::Adversary { .. } => (true, false, false),
            SchedSpec::Crash { .. } => (false, true, false),
            SchedSpec::LcmAsync { .. } => (false, false, true),
            _ => (false, false, false),
        };
        for (res, expected) in self.results.iter().zip(self.start..self.end) {
            if res.index != expected {
                return Err(format!("result index {} where {expected} was expected", res.index));
            }
            if res.verdict.is_some() != want_adv
                || res.crash.is_some() != want_crash
                || res.lcm_async.is_some() != want_async
            {
                return Err(format!(
                    "class {expected} carries verdict columns foreign to a {} cell",
                    cfg.sched.name()
                ));
            }
        }
        Ok(())
    }
}

/// Per-cell tallies of the adversary model checker's verdicts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdversaryCounts {
    /// Classes certified: every fair SSYNC schedule gathers.
    pub proof: usize,
    /// Classes refuted by a concrete counterexample schedule.
    pub refuted: usize,
    /// Classes left without a verdict because a search budget tripped
    /// or the check panicked (the row's [`UndecidedReason`] says which).
    pub undecided: usize,
}

/// The merged verdict of a sweep cell.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepSummary {
    /// Algorithm name.
    pub algo: String,
    /// Scheduler name.
    pub sched: String,
    /// Number of robots.
    pub robots: usize,
    /// Number of shards merged.
    pub shards: usize,
    /// Total classes covered.
    pub total: usize,
    /// Classes that gathered.
    pub gathered: usize,
    /// Classes stuck in a non-gathered fixpoint.
    pub stuck: usize,
    /// Classes that livelocked (FSYNC class-repetition detection).
    pub livelock: usize,
    /// Classes that collided.
    pub collision: usize,
    /// Classes that disconnected.
    pub disconnected: usize,
    /// Classes that hit the round cap.
    pub step_limit: usize,
    /// Classes whose witness outcome is an undecided checker verdict
    /// (a search budget exhausted). Zero for scheduled cells; for
    /// model-checking cells it equals the verdict tally's `undecided`.
    #[serde(default)]
    pub undecided: usize,
    /// Maximum rounds-to-gather over gathered classes.
    pub max_rounds: usize,
    /// Mean rounds-to-gather over gathered classes.
    pub mean_rounds: f64,
    /// Indices of the first non-gathering classes (capped, for triage).
    pub failure_indices: Vec<usize>,
    /// Model-checking verdict tallies (adversary, crash **and**
    /// lcm-async cells; the `sched` name says which model produced
    /// them).
    pub adversary: Option<AdversaryCounts>,
    /// Deterministic FNV-1a digest over the per-class verdict stream
    /// ([`verdict_digest`], as 16 hex digits), present for adversary,
    /// crash and lcm-async cells: two runs agree on this digest iff
    /// they classified every class identically.
    #[serde(default)]
    pub digest: Option<String>,
    /// Merged telemetry reading over all shards (absent for summaries
    /// merged from pre-observability records). Compares equal
    /// regardless of content — see [`MetricsBlock`].
    #[serde(default)]
    pub metrics: Option<MetricsBlock>,
}

impl SweepSummary {
    /// Whether every class gathered — Theorem 2 for the FSYNC cell.
    #[must_use]
    pub fn all_gathered(&self) -> bool {
        self.gathered == self.total
    }

    /// One-line human summary. Cells with undecided classes carry a
    /// trailing `UNDECIDED > 0` flag so pipelines (and `--strict`
    /// sweeps) can spot incomplete tables at a glance.
    #[must_use]
    pub fn line(&self) -> String {
        if let Some(counts) = &self.adversary {
            let flag = if counts.undecided > 0 { " [UNDECIDED > 0]" } else { "" };
            return format!(
                "{}/{}: {} proof, {} refuted, {} undecided of {} classes{}",
                self.algo,
                self.sched,
                counts.proof,
                counts.refuted,
                counts.undecided,
                self.total,
                flag,
            );
        }
        format!(
            "{}/{}: {}/{} gathered (stuck {}, livelock {}, collision {}, disconnected {}, cap {}), rounds max={} mean={:.2}",
            self.algo,
            self.sched,
            self.gathered,
            self.total,
            self.stuck,
            self.livelock,
            self.collision,
            self.disconnected,
            self.step_limit,
            self.max_rounds,
            self.mean_rounds,
        )
    }
}

/// How many failure indices a summary retains.
const FAILURE_INDEX_CAP: usize = 64;

/// What [`run_sweep`] did for each shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardStatus {
    /// The shard was executed in this run.
    Computed,
    /// A matching record existed on disk and was reused.
    Reused,
}

/// Progress report of a completed [`run_sweep`] call.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The merged summary (also written next to the shard files).
    pub summary: SweepSummary,
    /// Per-shard status, in shard order.
    pub shard_status: Vec<ShardStatus>,
    /// Total work across all classes (sum of [`ClassOutcome::expanded`]):
    /// rounds executed for scheduled cells, states explored for
    /// model-checking cells.
    pub expanded: u64,
    /// Deterministic digest of the per-class verdict stream
    /// ([`verdict_digest`]).
    pub digest: u64,
}

/// Splits `total` items into `shards` near-equal contiguous ranges.
/// Every item is covered exactly once; empty ranges only occur when
/// `shards > total`.
#[must_use]
pub fn shard_ranges(total: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.max(1);
    let base = total / shards;
    let extra = total % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        ranges.push((start, start + len));
        start += len;
    }
    ranges
}

/// Maps a model-checking verdict onto the witness [`Outcome`] stored in
/// the record's `outcome` column (see [`ClassOutcome::outcome`]).
#[must_use]
pub fn outcome_of_verdict(verdict: &AdversaryVerdict, _limits: Limits) -> Outcome {
    match verdict {
        AdversaryVerdict::Proof => Outcome::Gathered { rounds: 0 },
        AdversaryVerdict::Refuted { outcome, .. } => outcome.clone(),
        AdversaryVerdict::Undecided { reason, .. } => Outcome::Undecided { reason: *reason },
    }
}

/// [`outcome_of_verdict`] for crash-fault verdicts.
#[must_use]
pub fn outcome_of_crash_verdict(verdict: &CrashVerdict, _limits: Limits) -> Outcome {
    match verdict {
        CrashVerdict::Proof => Outcome::Gathered { rounds: 0 },
        CrashVerdict::Refuted { outcome, .. } => outcome.clone(),
        CrashVerdict::Undecided { reason, .. } => Outcome::Undecided { reason: *reason },
    }
}

/// [`outcome_of_verdict`] for ASYNC verdicts ([`AsyncVerdict`] and
/// [`CrashVerdict`] share the generic explore verdict type, so this is
/// the same mapping under the ASYNC cell's name).
#[must_use]
pub fn outcome_of_async_verdict(verdict: &AsyncVerdict, limits: Limits) -> Outcome {
    outcome_of_crash_verdict(verdict, limits)
}

/// Deterministic per-class work measure for scheduled executions.
#[must_use]
fn rounds_of(outcome: &Outcome) -> usize {
    match outcome {
        Outcome::Gathered { rounds }
        | Outcome::StuckFixpoint { rounds }
        | Outcome::StepLimit { rounds } => *rounds,
        Outcome::Livelock { entry, period } => entry + period,
        Outcome::Collision { round, .. } => round + 1,
        Outcome::Disconnected { round } => *round,
        Outcome::Undecided { .. } => 0,
    }
}

/// A result row with no verdict column and no panic payload.
fn row(index: usize, outcome: Outcome, expanded: usize) -> ClassOutcome {
    ClassOutcome {
        index,
        outcome,
        expanded,
        verdict: None,
        crash: None,
        lcm_async: None,
        panic: None,
    }
}

/// The checker of a model-checking cell, as the shard engine drives it.
/// [`run_sweep_with`] builds one per cell ([`cell_checker`]) and hands
/// it to every shard, so the algorithm's equivariance group is computed
/// once and every search of the cell shares one class table: each
/// class's decision data and round table are computed once per cell,
/// not once per shard. The explorer's telemetry is cumulative, so each
/// shard record carries the delta over its own shard.
trait CellChecker: CellTelemetry + Sync {
    /// Labels the cell's state graph from the roots `classes` before a
    /// shard checks them (DESIGN.md §19). ASYNC has no cell labels, so
    /// lcm-async cells keep this default.
    fn label(&mut self, _classes: &[Vec<Coord>], _threads: usize) {}

    /// Checks one class through the checker's one query, `check`, which
    /// settles a root a walk reached from the cell's labels: the row
    /// carries the verdict in the cell's column and, as `expanded`, the
    /// states (the adversary report's classes) the check interned — for
    /// a labeled class, the tight BFS's states, the states of the search
    /// over its doomed states, or 0 for a proof.
    fn run_class(&self, initial: &Configuration, index: usize, limits: Limits) -> ClassOutcome;
}

/// What every cell checker reads the same way, whatever its model.
trait CellTelemetry {
    /// The explorer's telemetry snapshot (phase times, class-table size,
    /// verdict tallies, BFS shape), cumulative over every check it ran.
    fn metrics_snapshot(&self) -> telemetry::Snapshot;
}

impl<A: Algorithm + ?Sized, M: Model> CellTelemetry for ModelChecker<'_, A, M> {
    fn metrics_snapshot(&self) -> telemetry::Snapshot {
        ModelChecker::metrics_snapshot(self)
    }
}

/// [`CellChecker::label`] for the adversary and crash cells. The roots'
/// class data is built through the pool first: the walk itself is
/// sequential, and those tables are most of its cost.
fn label_cell<A: Algorithm + ?Sized, M: Model<Semantics = CrashSemantics>>(
    checker: &mut ModelChecker<'_, A, M>,
    classes: &[Vec<Coord>],
    threads: usize,
) {
    let root = |cells: &Vec<Coord>| Configuration::new(cells.iter().copied());
    parallel::par_map(classes, threads, |cells| checker.prepare(&root(cells)));
    checker.label(classes.iter().map(root));
}

impl<A: Algorithm + ?Sized> CellChecker for Checker<'_, A> {
    fn label(&mut self, classes: &[Vec<Coord>], threads: usize) {
        label_cell(self, classes, threads);
    }

    fn run_class(&self, initial: &Configuration, index: usize, limits: Limits) -> ClassOutcome {
        let report = self.check(initial);
        let outcome = outcome_of_verdict(&report.verdict, limits);
        ClassOutcome { verdict: Some(report.verdict), ..row(index, outcome, report.classes) }
    }
}

impl<A: Algorithm + ?Sized> CellChecker for CrashChecker<'_, A> {
    fn label(&mut self, classes: &[Vec<Coord>], threads: usize) {
        label_cell(self, classes, threads);
    }

    fn run_class(&self, initial: &Configuration, index: usize, limits: Limits) -> ClassOutcome {
        let report = self.check(initial);
        let outcome = outcome_of_crash_verdict(&report.verdict, limits);
        ClassOutcome { crash: Some(report.verdict), ..row(index, outcome, report.states) }
    }
}

impl<A: Algorithm + ?Sized> CellChecker for AsyncChecker<'_, A> {
    fn run_class(&self, initial: &Configuration, index: usize, limits: Limits) -> ClassOutcome {
        let report = self.check(initial);
        let outcome = outcome_of_async_verdict(&report.verdict, limits);
        ClassOutcome { lcm_async: Some(report.verdict), ..row(index, outcome, report.states) }
    }
}

/// The checker of `cfg`'s cell (`None` for scheduled cells). Its state
/// and edge caps scale with `cfg.n`, so that wide cells cover their
/// whole class (and crash) space and the cell's labeled graph fits
/// them; for n <= 7 they are the historical budgets.
fn cell_checker<'a, A: Algorithm + ?Sized>(
    algo: &'a A,
    cfg: &SweepConfig,
) -> Option<Box<dyn CellChecker + 'a>> {
    let n = cfg.n;
    Some(match cfg.sched {
        SchedSpec::Adversary { .. } => {
            armed::<_, SsyncModel>(algo, AdversaryOptions::for_robots(n), cfg)
        }
        SchedSpec::Crash { f, .. } => {
            armed::<_, CrashModel>(algo, CrashOptions::for_robots(f, n), cfg)
        }
        SchedSpec::LcmAsync { depth } => {
            armed::<_, AsyncModel>(algo, AsyncOptions::new(depth), cfg)
        }
        _ => return None,
    })
}

/// A checker of model `M` for `cfg`'s cell, with the cell's per-class
/// deadline and byte budget armed. It keeps the historical 8-robot
/// floor, so n <= 7 cells stay byte-identical to the pre-parameterised
/// pipeline.
fn armed<'a, A: Algorithm + ?Sized, M: Model + 'a>(
    algo: &'a A,
    opts: M::Options,
    cfg: &SweepConfig,
) -> Box<dyn CellChecker + 'a>
where
    ModelChecker<'a, A, M>: CellChecker,
{
    let mut checker = ModelChecker::<A, M>::for_robots(algo, opts, cfg.n.max(8));
    checker.set_class_timeout(cfg.class_timeout_ms.map(Duration::from_millis));
    checker.set_mem_budget(cfg.mem_budget_mb.map(|mb| mb * 1024 * 1024));
    Box::new(checker)
}

/// Runs one class under the cell's scheduler and returns its outcome.
/// `index` is the global class index (it seeds the per-class random
/// scheduler, keeping outcomes independent of sharding and threading).
///
/// For [`SchedSpec::Adversary`], [`SchedSpec::Crash`] and
/// [`SchedSpec::LcmAsync`] this builds a throwaway checker per call,
/// whose class table grows only with the classes this one search
/// reaches; batch paths share one checker instead — [`run_sweep_with`]
/// one per cell, [`run_shard`] and [`find_failure`] one per call.
#[must_use]
pub fn run_class<A: Algorithm + ?Sized>(
    initial: &Configuration,
    algo: &A,
    spec: SchedSpec,
    index: usize,
    limits: Limits,
) -> Outcome {
    match spec {
        SchedSpec::Fsync => engine::run(initial, algo, limits).outcome,
        SchedSpec::RoundRobin => {
            sched::run_scheduled(initial, algo, &mut RoundRobin, limits).outcome
        }
        SchedSpec::RandomSubset { seed, p } => {
            let class_seed = seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut s = RandomSubset::new(class_seed, p);
            sched::run_scheduled(initial, algo, &mut s, limits).outcome
        }
        SchedSpec::Adversary { .. } | SchedSpec::Crash { .. } | SchedSpec::LcmAsync { .. } => {
            let cfg = SweepConfig { sched: spec, n: initial.len(), ..SweepConfig::default() };
            let checker = cell_checker(algo, &cfg).expect("model-checking cell");
            checker.run_class(initial, index, limits).outcome
        }
    }
}

/// Default classes-per-chunk between journal checkpoints (and cell
/// deadline polls) while a shard computes. Small enough that a kill
/// loses one chunk — milliseconds of work in the n = 8 and n = 9 cells,
/// whose classes check in tens of microseconds on average. Appends are
/// not free: they run on the calling thread between two pool calls.
/// Since the workers encode their own rows, the caller only joins,
/// frames and writes them, which takes 11–14 ms of the n = 8 crash:1
/// sweep's ~0.25 s on a 2-vCPU VM (`sweep.journal_ns`, summed over its
/// 8 shards); encoding the rows there took 52–72 ms, about a fifth.
pub const DEFAULT_JOURNAL_CHUNK: usize = 64;

/// FNV-1a over a byte string, via the same hasher the verdict digests
/// use.
fn fnv64_of(bytes: &[u8]) -> u64 {
    let mut h = adversary::Fnv64::new();
    h.write_all(bytes);
    h.finish()
}

/// Renders a caught panic payload for records and warnings.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// The degraded row for a class whose check panicked: a counted
/// undecided outcome in the cell's own verdict column, with the panic
/// payload preserved for triage. The row participates in merges and
/// digests like any other undecided class, so one poisoned class never
/// kills a cell.
fn panicked_outcome(index: usize, sched: SchedSpec, msg: String) -> ClassOutcome {
    let reason = UndecidedReason::Panicked;
    let (verdict, crash, lcm_async) = match sched {
        SchedSpec::Adversary { .. } => (Some(AdversaryVerdict::Undecided { reason }), None, None),
        SchedSpec::Crash { .. } => (None, Some(CrashVerdict::Undecided { reason }), None),
        SchedSpec::LcmAsync { .. } => (None, None, Some(AsyncVerdict::Undecided { reason })),
        _ => (None, None, None),
    };
    ClassOutcome {
        index,
        outcome: Outcome::Undecided { reason },
        expanded: 0,
        verdict,
        crash,
        lcm_async,
        panic: Some(msg),
    }
}

/// First line of a shard journal: binds the journal to its cell and
/// range so a stale file (different config, renamed directory) can
/// never feed results into a foreign shard.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct JournalHeader {
    algo: String,
    sched: String,
    robots: usize,
    max_rounds: usize,
    shard: usize,
    shards: usize,
    start: usize,
    end: usize,
}

impl JournalHeader {
    fn for_cell(cfg: &SweepConfig, shard: usize, start: usize, end: usize) -> JournalHeader {
        JournalHeader {
            algo: cfg.algo.name(),
            sched: cfg.sched.name(),
            robots: cfg.n,
            max_rounds: cfg.limits.max_rounds,
            shard,
            shards: cfg.shards,
            start,
            end,
        }
    }

    /// The record of the shard this header names, holding `results`.
    fn record(self, results: Vec<ClassOutcome>, metrics: MetricsBlock) -> ShardRecord {
        ShardRecord {
            algo: self.algo,
            sched: self.sched,
            robots: self.robots,
            max_rounds: self.max_rounds,
            shard: self.shard,
            shards: self.shards,
            start: self.start,
            end: self.end,
            results,
            metrics: Some(metrics),
            record_digest: None,
        }
    }
}

/// One completed chunk of classes, appended to the journal after the
/// chunk's results are in hand (written by [`entry_json`]).
#[derive(Clone, Debug, Serialize, Deserialize)]
struct JournalEntry {
    start: usize,
    end: usize,
    results: Vec<ClassOutcome>,
}

/// The JSON of the [`JournalEntry`] for classes `start..end` whose
/// results are already encoded, one `serde_json::to_string` per row:
/// byte for byte the entry's own encoding, without encoding a row again.
fn entry_json(start: usize, end: usize, rows: &[String]) -> String {
    format!("{{\"start\":{start},\"end\":{end},\"results\":[{}]}}", rows.join(","))
}

/// Last line of a completed journal: the shard's telemetry reading.
/// Header and entry lines lack its one field and it lacks theirs, so
/// every line parses as exactly one of the three line types.
#[derive(Debug, Serialize, Deserialize)]
struct JournalFooter {
    metrics: MetricsBlock,
}

/// What [`scan_journal`] recovers from a journal or record file. A
/// resumed shard continues from its journal's `results`, truncating the
/// file to `valid_len` before appending.
#[derive(Debug, Default)]
struct JournalScan {
    /// The header, if the first line is a valid frame holding one.
    header: Option<JournalHeader>,
    /// The results of the contiguous entries after a header naming the
    /// wanted shard, from its start.
    results: Vec<ClassOutcome>,
    /// Bytes occupied by that header and those entries.
    valid_len: u64,
    /// The footer's reading and the offset just past it, if the line
    /// after those entries is a footer.
    footer: Option<(MetricsBlock, usize)>,
}

/// Frames one journal line: `<json-byte-len>:<fnv64-hex>:<json>\n`.
/// The length and digest make a torn or bit-flipped tail detectable
/// without trusting the JSON parser to fail.
fn frame_line(json: &str) -> String {
    format!("{}:{:016x}:{json}\n", json.len(), fnv64_of(json.as_bytes()))
}

/// The JSON bodies of the intact [`frame_line`] lines at the start of
/// `bytes`, each with the offset just past its newline. Stops at the
/// first line whose length or digest does not match its body, and at
/// a last line without its newline.
fn framed_lines(bytes: &[u8]) -> impl Iterator<Item = (String, usize)> + '_ {
    let mut pos = 0;
    std::iter::from_fn(move || {
        let nl = bytes[pos..].iter().position(|&b| b == b'\n')?;
        let line = std::str::from_utf8(&bytes[pos..pos + nl]).ok()?;
        let (len, rest) = line.split_once(':')?;
        let (digest, json) = rest.split_once(':')?;
        let intact = len.parse() == Ok(json.len())
            && digest.len() == 16
            && u64::from_str_radix(digest, 16) == Ok(fnv64_of(json.as_bytes()));
        intact.then(|| {
            pos += nl + 1;
            (json.to_string(), pos)
        })
    })
}

/// Fsyncs the directory holding `path`, so a rename into it is
/// durable. Best-effort: a rename lost to a power cut only costs
/// re-running one shard or re-merging the summary.
fn sync_parent_dir(path: &Path) {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

/// Append-only writer for a shard journal. Appends are plain writes
/// (no fsync): the framing digest makes an unsynced or torn tail
/// detectable on resume, so the worst a crash costs is recomputing the
/// classes of the lost tail — never trusting them.
struct JournalWriter {
    file: std::fs::File,
    path: PathBuf,
}

impl JournalWriter {
    /// Starts a fresh journal (truncating any stale one) with the
    /// binding header as its first line.
    fn create(path: &Path, header: &JournalHeader) -> io::Result<JournalWriter> {
        let file =
            std::fs::OpenOptions::new().write(true).create(true).truncate(true).open(path)?;
        let mut writer = JournalWriter { file, path: path.to_path_buf() };
        let json = serde_json::to_string(header).map_err(io::Error::other)?;
        writer.append_line(&json, false)?;
        Ok(writer)
    }

    /// Reopens an existing journal whose first `valid_len` bytes were
    /// verified, truncating the invalid tail (or the footer of a
    /// journal killed before its rename) so new lines never
    /// concatenate onto torn bytes.
    fn resume(path: &Path, valid_len: u64) -> io::Result<JournalWriter> {
        let file = std::fs::OpenOptions::new().append(true).open(path)?;
        file.set_len(valid_len)?;
        Ok(JournalWriter { file, path: path.to_path_buf() })
    }

    fn append_line(&mut self, json: &str, failpoint: bool) -> io::Result<()> {
        use std::io::Write as _;
        let line = frame_line(json);
        // `shard.journal=abort@K` dies before the K-th entry lands
        // (the kill-resume tests' cut point); `shard.journal=torn:N`
        // leaves N bytes of the line, which the framing check must
        // reject on resume.
        if failpoint {
            if let Some(failpoints::Fault::Torn(n)) = failpoints::fire("shard.journal") {
                return self.file.write_all(&line.as_bytes()[..n.min(line.len())]);
            }
        }
        self.file.write_all(line.as_bytes())
    }

    /// Completes the journal and publishes it as the shard's record:
    /// appends `footer`, fsyncs the data, renames the journal over
    /// `record` and fsyncs the directory. A reader of `record` sees the
    /// previous file, the complete new record or no file, never a
    /// prefix.
    fn publish(mut self, footer: &JournalFooter, record: &Path) -> io::Result<()> {
        let json = serde_json::to_string(footer).map_err(io::Error::other)?;
        self.append_line(&json, false)?;
        // `shard.write=torn:N` leaves N bytes of the finished journal
        // at the record path and carries on none the wiser, as a
        // non-atomic writer caught by a crash would. Resume must
        // quarantine the stump.
        if let Some(failpoints::Fault::Torn(n)) = failpoints::fire("shard.write") {
            let len = self.file.metadata()?.len();
            self.file.set_len(len.min(n as u64))?;
            return std::fs::rename(&self.path, record);
        }
        self.file.sync_all()?;
        // `shard.rename=abort` dies with the journal complete and
        // durable but unpublished: resume reuses all of its classes.
        failpoints::fire("shard.rename");
        std::fs::rename(&self.path, record)?;
        sync_parent_dir(record);
        Ok(())
    }
}

/// The one reader of journals and records: a framed header, framed
/// entries tiling the shard's range from its start with consecutive
/// indices, and (once the shard is complete) a framed footer. Scanning
/// stops at the first torn, corrupt, foreign or non-contiguous line and
/// at the footer. Everything before the stop is trusted, because each
/// line carries its own length and digest. Entries are read only after
/// a header equal to `want`.
fn scan_journal(bytes: &[u8], want: &JournalHeader) -> JournalScan {
    let mut scan = JournalScan::default();
    let mut lines = framed_lines(bytes);
    let Some((json, header_end)) = lines.next() else {
        return scan;
    };
    scan.header = serde_json::from_str(&json).ok();
    if scan.header.as_ref() != Some(want) {
        return scan;
    }
    scan.valid_len = header_end as u64;
    for (json, line_end) in lines {
        let Ok(entry) = serde_json::from_str::<JournalEntry>(&json) else {
            scan.footer =
                serde_json::from_str::<JournalFooter>(&json).ok().map(|f| (f.metrics, line_end));
            break;
        };
        let contiguous = entry.start == want.start + scan.results.len()
            && entry.end > entry.start
            && entry.end <= want.end
            && entry.results.len() == entry.end - entry.start
            && entry.results.iter().zip(entry.start..entry.end).all(|(r, i)| r.index == i);
        if !contiguous {
            break;
        }
        scan.results.extend(entry.results);
        scan.valid_len = line_end as u64;
    }
    scan
}

/// Recovers the longest valid prefix of a shard journal. It stops
/// before any footer: a journal killed between its fsync and its
/// rename resumes with every class, and the resumed writer truncates
/// the old footer and publishes again.
fn read_journal(
    path: &Path,
    cfg: &SweepConfig,
    shard: usize,
    start: usize,
    end: usize,
) -> JournalScan {
    let Ok(bytes) = std::fs::read(path) else {
        return JournalScan::default();
    };
    scan_journal(&bytes, &JournalHeader::for_cell(cfg, shard, start, end))
}

/// How far [`run_shard_inner`] got.
enum ShardProgress {
    /// The shard completed, and with a journal its record is published
    /// (boxed — a full record dwarfs the other variant).
    Done(Box<ShardRecord>),
    /// The cell deadline passed at a chunk boundary; `journaled`
    /// classes are checkpointed in the journal for the next resume.
    DeadlineStopped { journaled: usize },
}

/// The full shard engine behind [`run_shard`]: chunked execution with
/// optional journal checkpoints, per-class panic isolation, and a
/// cooperative cell deadline polled between chunks. With `out_dir` the
/// shard journals into it and, once complete, publishes the journal as
/// its record. Without a journal and deadline the whole range runs as
/// one chunk — byte-identical to the historical single-pass shard.
/// `algo` and, for model-checking cells, `checker`
/// ([`cell_checker`]) are the cell's.
#[allow(clippy::too_many_arguments)]
fn run_shard_inner(
    classes: &[Vec<Coord>],
    cfg: &SweepConfig,
    algo: &SevenGather,
    mut checker: Option<&mut (dyn CellChecker + '_)>,
    shard: usize,
    start: usize,
    end: usize,
    out_dir: Option<&Path>,
    prior: JournalScan,
    deadline: Option<Instant>,
) -> io::Result<ShardProgress> {
    let limits = cfg.effective_limits();
    // The checker's telemetry is cumulative over the cell, so the
    // shard's reading is the delta from here.
    let metrics_before = checker.as_deref().map(|c| c.metrics_snapshot()).unwrap_or_default();
    let watch = telemetry::Stopwatch::started();
    // Telemetry bracketing: the pool totals are process-global, so the
    // before/after delta attributes pool activity to this shard
    // (approximately, if other pool calls run concurrently — metrics
    // are observability, not accounting).
    let pool_before = parallel::pool_stats();
    // The cell's labels grow with the roots this shard still has to
    // check, before its first chunk (DESIGN.md §19).
    let resumed = prior.results.len();
    if let Some(checker) = checker.as_deref_mut() {
        checker.label(&classes[start + resumed..end], cfg.threads);
    }
    let checker = checker.as_deref();
    let run_one = |offset: usize, cells: &Vec<Coord>| {
        let index = start + offset;
        // Per-class panic isolation: the unwind is caught here, before
        // the pool ever sees it, and degraded to a counted undecided
        // row. AssertUnwindSafe is sound because a panicking class
        // leaves only the explorer's class table behind, whose entries
        // are pure and whose index lock is poison-tolerant.
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // `sweep.class=panic:MSG@K` / `sleep:MS@K` inject a
            // poisoned or pathologically slow class deterministically.
            failpoints::fire("sweep.class");
            let initial = Configuration::new(cells.iter().copied());
            match checker {
                Some(checker) => checker.run_class(&initial, index, limits),
                None => {
                    let outcome = run_class(&initial, algo, cfg.sched, index, limits);
                    let expanded = rounds_of(&outcome);
                    row(index, outcome, expanded)
                }
            }
        })) {
            Ok(row) => row,
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                eprintln!("warning: class {index} panicked ({msg}); counted as undecided");
                panicked_outcome(index, cfg.sched, msg)
            }
        }
    };
    let mut results = prior.results;
    if !results.is_empty() {
        eprintln!("  shard {shard}: journal resumes {} of {} classes", results.len(), end - start);
    }
    let header = JournalHeader::for_cell(cfg, shard, start, end);
    let opening = telemetry::Stopwatch::started();
    let mut writer = match out_dir.map(|dir| cfg.journal_path(dir, shard)) {
        Some(path) if !results.is_empty() => Some(JournalWriter::resume(&path, prior.valid_len)?),
        Some(path) => Some(JournalWriter::create(&path, &header)?),
        None => None,
    };
    // The caller's serial share of journaling: opening the journal,
    // then building, framing and writing each entry line.
    let mut journal_ns = opening.elapsed_ns();
    let journaling = writer.is_some();
    let chunk = if journaling || deadline.is_some() {
        cfg.journal_chunk.unwrap_or(DEFAULT_JOURNAL_CHUNK).max(1)
    } else {
        (end - start).max(1)
    };
    let mut cursor = start + results.len();
    while cursor < end {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Ok(ShardProgress::DeadlineStopped { journaled: results.len() });
        }
        let cend = (cursor + chunk).min(end);
        // Work items carry their offset so the pool yields identical,
        // order-preserved records under every schedule.
        let base = cursor - start;
        let indexed: Vec<(usize, &Vec<Coord>)> = classes[cursor..cend].iter().enumerate().collect();
        // The worker that checks a row also encodes it, so the serial
        // commit below only joins the chunk's rows into one line.
        let checked = parallel::par_map(&indexed, cfg.threads, |&(o, c)| {
            let row = run_one(base + o, c);
            let json = journaling.then(|| serde_json::to_string(&row));
            (row, json)
        });
        let mut rows = Vec::with_capacity(checked.len());
        for (row, json) in checked {
            results.push(row);
            if let Some(json) = json {
                rows.push(json.map_err(io::Error::other)?);
            }
        }
        if let Some(w) = writer.as_mut() {
            let watch = telemetry::Stopwatch::started();
            w.append_line(&entry_json(cursor, cend, &rows), true)?;
            journal_ns += watch.elapsed_ns();
        }
        cursor = cend;
    }
    let mut snapshot =
        checker.map(|c| c.metrics_snapshot().delta_since(&metrics_before)).unwrap_or_default();
    snapshot.add_counter("parallel.tasks", parallel::pool_stats().saturating_sub(pool_before));
    snapshot.add_counter("sweep.classes", results.len() as u64);
    snapshot.add_counter("sweep.shard_wall_ns", watch.elapsed_ns());
    snapshot.add_counter("sweep.journal_ns", journal_ns);
    let panicked = results.iter().filter(|r| r.panic.is_some()).count() as u64;
    let timed_out = results
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Undecided { reason: UndecidedReason::Timeout }))
        .count() as u64;
    if panicked > 0 {
        snapshot.add_counter("sweep.classes_panicked", panicked);
    }
    if timed_out > 0 {
        snapshot.add_counter("sweep.classes_timed_out", timed_out);
    }
    let over_budget = results
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Undecided { reason: UndecidedReason::MemBudget }))
        .count() as u64;
    if over_budget > 0 {
        snapshot.add_counter("sweep.classes_mem_budget", over_budget);
    }
    let footer = JournalFooter { metrics: MetricsBlock { snapshot } };
    if let (Some(writer), Some(dir)) = (writer, out_dir) {
        writer.publish(&footer, &cfg.shard_path(dir, shard))?;
    }
    Ok(ShardProgress::Done(Box::new(header.record(results, footer.metrics))))
}

/// Runs one shard of a sweep cell over the given full class list,
/// through a checker built for this call.
#[must_use]
pub fn run_shard(
    classes: &[Vec<Coord>],
    cfg: &SweepConfig,
    shard: usize,
    start: usize,
    end: usize,
) -> ShardRecord {
    let algo = cfg.algo.build();
    let mut checker = cell_checker(&algo, cfg);
    match run_shard_inner(
        classes,
        cfg,
        &algo,
        checker.as_deref_mut(),
        shard,
        start,
        end,
        None,
        JournalScan::default(),
        None,
    ) {
        Ok(ShardProgress::Done(record)) => *record,
        Ok(ShardProgress::DeadlineStopped { .. }) | Err(_) => {
            unreachable!("journal-free, deadline-free shard runs always complete")
        }
    }
}

/// Merges shard records into a [`SweepSummary`], validating that they
/// tile the class space `0..total` exactly.
///
/// # Errors
/// Returns a description of the first inconsistency (wrong cell, gaps,
/// overlaps, or misaligned indices).
pub fn merge_shards(cfg: &SweepConfig, records: &[ShardRecord]) -> Result<SweepSummary, String> {
    let expected_shards = cfg.shards.max(1); // shard_ranges clamps the same way
    if records.len() != expected_shards {
        return Err(format!(
            "expected {expected_shards} shard records, found {} (incomplete sweep?)",
            records.len()
        ));
    }
    let mut sorted: Vec<&ShardRecord> = records.iter().collect();
    sorted.sort_by_key(|r| r.start);
    let mut expected_start = 0;
    for r in &sorted {
        if r.algo != cfg.algo.name() || r.sched != cfg.sched.name() || r.robots != cfg.n {
            return Err(format!(
                "shard {} belongs to cell {}/{} (robots {}), expected {}/{} (robots {})",
                r.shard,
                r.algo,
                r.sched,
                r.robots,
                cfg.algo.name(),
                cfg.sched.name(),
                cfg.n
            ));
        }
        if r.start != expected_start {
            return Err(format!(
                "shard {} starts at {} but {} classes are covered so far",
                r.shard, r.start, expected_start
            ));
        }
        if r.results.len() != r.end - r.start {
            return Err(format!(
                "shard {} holds {} results for range {}..{}",
                r.shard,
                r.results.len(),
                r.start,
                r.end
            ));
        }
        for (res, expected) in r.results.iter().zip(r.start..r.end) {
            if res.index != expected {
                return Err(format!(
                    "shard {} result index {} where {} was expected",
                    r.shard, res.index, expected
                ));
            }
        }
        expected_start = r.end;
    }
    let total = expected_start;

    // Counting is memory-bound and the records are already in order —
    // a sequential pass keeps `failure_indices` deterministically the
    // first (lowest-index) failures.
    #[derive(Default)]
    struct Acc {
        gathered: usize,
        stuck: usize,
        livelock: usize,
        collision: usize,
        disconnected: usize,
        step_limit: usize,
        undecided_outcomes: usize,
        max_rounds: usize,
        total_rounds: usize,
        failures: Vec<usize>,
        proof: usize,
        refuted: usize,
        undecided: usize,
        any_verdict: bool,
    }
    let mut acc = Acc::default();
    for res in sorted.iter().flat_map(|r| r.results.iter()) {
        match res.outcome {
            Outcome::Gathered { rounds } => {
                acc.gathered += 1;
                acc.max_rounds = acc.max_rounds.max(rounds);
                acc.total_rounds += rounds;
            }
            Outcome::StuckFixpoint { .. } => acc.stuck += 1,
            Outcome::Livelock { .. } => acc.livelock += 1,
            Outcome::Collision { .. } => acc.collision += 1,
            Outcome::Disconnected { .. } => acc.disconnected += 1,
            Outcome::StepLimit { .. } => acc.step_limit += 1,
            Outcome::Undecided { .. } => acc.undecided_outcomes += 1,
        }
        if !res.outcome.is_gathered() && acc.failures.len() < FAILURE_INDEX_CAP {
            acc.failures.push(res.index);
        }
        if let Some(verdict) = &res.verdict {
            acc.any_verdict = true;
            match verdict {
                AdversaryVerdict::Proof => acc.proof += 1,
                AdversaryVerdict::Refuted { .. } => acc.refuted += 1,
                AdversaryVerdict::Undecided { .. } => acc.undecided += 1,
            }
        }
        if let Some(verdict) = &res.crash {
            acc.any_verdict = true;
            match verdict {
                CrashVerdict::Proof => acc.proof += 1,
                CrashVerdict::Refuted { .. } => acc.refuted += 1,
                CrashVerdict::Undecided { .. } => acc.undecided += 1,
            }
        }
        if let Some(verdict) = &res.lcm_async {
            acc.any_verdict = true;
            match verdict {
                AsyncVerdict::Proof => acc.proof += 1,
                AsyncVerdict::Refuted { .. } => acc.refuted += 1,
                AsyncVerdict::Undecided { .. } => acc.undecided += 1,
            }
        }
    }
    // Every record was checked to be this cell's above, so the digest
    // is the cell's, over the class-ordered result stream.
    let digest = acc.any_verdict.then(|| format!("{:016x}", verdict_digest(records)));

    // Fold the shard telemetry readings (if any) into one cell-level
    // snapshot; merge is associative and commutative, so shard order
    // cannot matter. This stays strictly after the digest computation
    // and never feeds it.
    let metrics =
        sorted.iter().filter_map(|r| r.metrics.as_ref()).fold(None::<MetricsBlock>, |acc, m| {
            let mut block = acc.unwrap_or_default();
            block.snapshot.merge(&m.snapshot);
            Some(block)
        });

    Ok(SweepSummary {
        algo: cfg.algo.name(),
        sched: cfg.sched.name(),
        robots: cfg.n,
        shards: records.len(),
        total,
        gathered: acc.gathered,
        stuck: acc.stuck,
        livelock: acc.livelock,
        collision: acc.collision,
        disconnected: acc.disconnected,
        step_limit: acc.step_limit,
        undecided: acc.undecided_outcomes,
        max_rounds: acc.max_rounds,
        mean_rounds: if acc.gathered == 0 {
            0.0
        } else {
            acc.total_rounds as f64 / acc.gathered as f64
        },
        failure_indices: acc.failures,
        adversary: acc.any_verdict.then_some(AdversaryCounts {
            proof: acc.proof,
            refuted: acc.refuted,
            undecided: acc.undecided,
        }),
        digest,
        metrics,
    })
}

/// Mixes one class's verdicts into the running digest. Adversary and
/// crash verdicts use disjoint tag bytes so a cell can never be
/// mistaken for the other model.
fn digest_class(h: &mut adversary::Fnv64, res: &ClassOutcome) {
    h.write_all(&(res.index as u64).to_le_bytes());
    match &res.verdict {
        None => {}
        Some(AdversaryVerdict::Proof) => h.write(1),
        Some(AdversaryVerdict::Undecided { .. }) => h.write(2),
        Some(AdversaryVerdict::Refuted { schedule, .. }) => {
            h.write(3);
            h.write_all(&adversary::schedule_hash(schedule).to_le_bytes());
        }
    }
    match &res.crash {
        None => {}
        Some(CrashVerdict::Proof) => h.write(0x11),
        Some(CrashVerdict::Undecided { .. }) => h.write(0x12),
        Some(CrashVerdict::Refuted { schedule, .. }) => {
            h.write(0x13);
            h.write_all(&faults::schedule_hash(schedule).to_le_bytes());
        }
    }
    match &res.lcm_async {
        None => {}
        Some(AsyncVerdict::Proof) => h.write(0x21),
        Some(AsyncVerdict::Undecided { .. }) => h.write(0x22),
        Some(AsyncVerdict::Refuted { schedule, .. }) => {
            h.write(0x23);
            h.write_all(&faults::schedule_hash(schedule).to_le_bytes());
        }
    }
    if res.verdict.is_none() && res.crash.is_none() && res.lcm_async.is_none() {
        h.write(0xFF);
    }
}

/// FNV-1a digest over the merged per-class verdicts of a
/// model-checking (adversary, crash or lcm-async) cell: index, verdict
/// kind, and — for refutations — the counterexample schedule
/// (including crash assignments; ASYNC tick schedules hash through the
/// same [`faults::schedule_hash`] under their own tag bytes). Records
/// are digested in class order (shards sorted by their start index;
/// [`merge_shards`] calls this for [`SweepSummary::digest`]), so the
/// value depends only on the
/// classification, never on the order the caller collected the
/// shards in. Two runs agree on this digest iff they classified every
/// class identically; the release golden tests pin it for the full
/// 3652-class space. Cells at robot counts other than seven prefix
/// the stream with a `0x4E` ('N') tag byte and their count, so n=7
/// digests are byte-identical to their pre-parameterised values.
#[must_use]
pub fn verdict_digest(records: &[ShardRecord]) -> u64 {
    let mut sorted: Vec<&ShardRecord> = records.iter().collect();
    sorted.sort_by_key(|r| r.start);
    let mut h = adversary::Fnv64::new();
    let robots = sorted.first().map_or(7, |r| r.robots);
    if robots != 7 {
        h.write(0x4E);
        h.write(robots as u8);
    }
    for res in sorted.iter().flat_map(|r| r.results.iter()) {
        digest_class(&mut h, res);
    }
    h.finish()
}

/// Crash-safe JSON publish of the merged summary: serialize pretty,
/// write to a sibling tmp file, fsync the data, rename over the target,
/// then fsync the directory so the rename itself is durable. A reader
/// never observes a half-written summary — it sees the old file, the
/// new file, or no file. It hits the failpoint sites of shard
/// publication (`shard.write`, `shard.rename`), one hit each after the
/// last shard's.
fn write_json_atomic<T: Serialize>(path: &Path, value: &T) -> io::Result<()> {
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| io::Error::other(format!("serialise {}: {e}", path.display())))?;
    // `shard.write=torn:N`: N bytes land in the final path and the
    // caller carries on none the wiser.
    if let Some(failpoints::Fault::Torn(n)) = failpoints::fire("shard.write") {
        return std::fs::write(path, &json.as_bytes()[..n.min(json.len())]);
    }
    let tmp = path.with_extension("json.tmp");
    {
        use std::io::Write as _;
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(json.as_bytes())?;
        file.sync_all()?;
    }
    failpoints::fire("shard.rename");
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path);
    Ok(())
}

/// Loads and fully validates a published shard record for resume,
/// through the journal reader ([`scan_journal`]).
///
/// * `Ok(Some(record))` — trustworthy and reusable for this exact cell.
/// * `Ok(None)` — missing, or *stale*: its header names a different
///   cell, layout or round cap. Recompute silently, exactly as resume
///   always has.
/// * `Err(why)` — present but corrupt: anything short of a header for
///   this shard, entries tiling its range, a footer and the end of the
///   file, or results failing [`ShardRecord::validate_results`]. The
///   caller quarantines it and recomputes.
fn load_shard_checked(
    path: &Path,
    cfg: &SweepConfig,
    shard: usize,
    start: usize,
    end: usize,
) -> Result<Option<ShardRecord>, String> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("unreadable: {e}")),
    };
    let want = JournalHeader::for_cell(cfg, shard, start, end);
    let scan = scan_journal(&bytes, &want);
    match &scan.header {
        None => return Err("no valid header line".to_string()),
        Some(header) if *header != want => return Ok(None),
        Some(_) => {}
    }
    let covered = scan.results.len();
    match scan.footer {
        Some((metrics, footer_end)) if covered == end - start && footer_end == bytes.len() => {
            let record = want.record(scan.results, metrics);
            record.validate_results(cfg).map_err(|why| format!("inconsistent results: {why}"))?;
            Ok(Some(record))
        }
        Some((_, footer_end)) => Err(format!(
            "footer after {covered} of {} classes, then {} more bytes",
            end - start,
            bytes.len() - footer_end
        )),
        None => Err(format!("no footer after {covered} of {} classes", end - start)),
    }
}

/// Moves a corrupt shard record out of the way (to `<record>.corrupt`)
/// with a stderr warning, so the sweep can recompute the shard while
/// the evidence survives for triage (CI uploads these as artifacts).
fn quarantine_shard(path: &Path, why: &str) {
    let target = PathBuf::from(format!("{}.corrupt", path.display()));
    match std::fs::rename(path, &target) {
        Ok(()) => eprintln!(
            "warning: quarantined corrupt shard record {} -> {} ({why}); recomputing the shard",
            path.display(),
            target.display()
        ),
        Err(e) => eprintln!(
            "warning: corrupt shard record {} ({why}); quarantine rename failed ({e}); \
             recomputing the shard",
            path.display()
        ),
    }
}

/// How far [`run_sweep_with`] got.
// One value exists per cell run, so the variant size gap is irrelevant.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum SweepRun {
    /// Every shard completed and the merged summary was written.
    Complete(SweepOutcome),
    /// The cell deadline ([`SweepConfig::cell_deadline_secs`]) expired.
    /// Finished shards are persisted as records and the interrupted
    /// shard's completed chunks sit in its journal; rerun with resume
    /// to continue from exactly here.
    DeadlineStopped {
        /// Shards fully persisted (records on disk) before stopping.
        completed_shards: usize,
        /// Classes of the interrupted shard already checkpointed in
        /// its journal.
        journaled_classes: usize,
    },
}

/// Runs (or resumes) a full sweep cell: executes every shard whose
/// record is missing or stale, writes each record as it completes,
/// merges, writes the summary, and returns both.
///
/// With `resume`, shards whose on-disk record already matches the cell
/// (every line's framing digest, the line structure and per-record
/// result validation) are loaded instead of re-run; corrupt records
/// are quarantined to
/// `<record>.corrupt` with a warning and recomputed; a partially
/// computed shard continues from its journal's valid prefix. Without
/// `resume` every shard is recomputed.
///
/// # Errors
/// I/O errors from the output directory, or a corrupt/foreign record
/// set that fails [`merge_shards`] validation.
pub fn run_sweep_with(
    cfg: &SweepConfig,
    out_dir: &Path,
    resume: bool,
    mut progress: impl FnMut(usize, ShardStatus, &ShardRecord),
) -> io::Result<SweepRun> {
    // Normalise `shards: 0` once so file names, records and the merge
    // validation all agree with shard_ranges' clamp.
    let cfg = &SweepConfig { shards: cfg.shards.max(1), ..cfg.clone() };
    std::fs::create_dir_all(out_dir)?;
    let classes = polyhex::enumerate_fixed(cfg.n);
    let ranges = shard_ranges(classes.len(), cfg.shards);
    // One algorithm and one checker for the whole cell: every shard's
    // searches share its class table.
    let algo = cfg.algo.build();
    let mut checker = cell_checker(&algo, cfg);
    let deadline = cfg.cell_deadline_secs.map(|s| Instant::now() + Duration::from_secs(s));

    let mut records = Vec::with_capacity(ranges.len());
    let mut shard_status = Vec::with_capacity(ranges.len());
    for (shard, &(start, end)) in ranges.iter().enumerate() {
        let path = cfg.shard_path(out_dir, shard);
        let journal_path = cfg.journal_path(out_dir, shard);
        let reused = if resume {
            match load_shard_checked(&path, cfg, shard, start, end) {
                Ok(record) => record,
                Err(why) => {
                    quarantine_shard(&path, &why);
                    None
                }
            }
        } else {
            None
        };
        let (record, status) = match reused {
            Some(r) => {
                // A journal next to a reusable record was left by a
                // later run killed mid-shard; the record wins.
                let _ = std::fs::remove_file(&journal_path);
                (r, ShardStatus::Reused)
            }
            None => {
                let prior = if resume {
                    read_journal(&journal_path, cfg, shard, start, end)
                } else {
                    JournalScan::default()
                };
                match run_shard_inner(
                    &classes,
                    cfg,
                    &algo,
                    checker.as_deref_mut(),
                    shard,
                    start,
                    end,
                    Some(out_dir),
                    prior,
                    deadline,
                )? {
                    ShardProgress::Done(r) => (*r, ShardStatus::Computed),
                    ShardProgress::DeadlineStopped { journaled } => {
                        return Ok(SweepRun::DeadlineStopped {
                            completed_shards: shard,
                            journaled_classes: journaled,
                        });
                    }
                }
            }
        };
        progress(shard, status, &record);
        shard_status.push(status);
        records.push(record);
    }

    let summary = merge_shards(cfg, &records).map_err(io::Error::other)?;
    write_json_atomic(&cfg.summary_path(out_dir), &summary)?;
    let expanded = records.iter().flat_map(|r| r.results.iter()).map(|r| r.expanded as u64).sum();
    let digest = verdict_digest(&records);
    Ok(SweepRun::Complete(SweepOutcome { summary, shard_status, expanded, digest }))
}

/// [`run_sweep_with`] for callers without a cell deadline: the
/// historical entry point, returning the completed outcome directly.
///
/// # Errors
/// Everything [`run_sweep_with`] errors on; additionally, a tripped
/// cell deadline surfaces as an error here (use [`run_sweep_with`] to
/// handle it as a checkpointed stop instead).
pub fn run_sweep(
    cfg: &SweepConfig,
    out_dir: &Path,
    resume: bool,
    progress: impl FnMut(usize, ShardStatus, &ShardRecord),
) -> io::Result<SweepOutcome> {
    match run_sweep_with(cfg, out_dir, resume, progress)? {
        SweepRun::Complete(outcome) => Ok(outcome),
        SweepRun::DeadlineStopped { completed_shards, journaled_classes } => {
            Err(io::Error::other(format!(
                "cell deadline expired after {completed_shards} completed shards \
                 (+{journaled_classes} journaled classes); rerun with resume to continue"
            )))
        }
    }
}

/// Early-exit search for the **lowest-indexed** non-gathering class of
/// a sweep cell (for the adversary, crash and lcm-async cells: the
/// lowest class that is not proof), via [`parallel::par_find_min`] —
/// deterministic regardless of thread count. Returns `None` when the
/// cell's claim holds for every class. Orders of magnitude faster than
/// a full sweep when a regression makes many classes fail.
#[must_use]
pub fn find_failure(cfg: &SweepConfig) -> Option<(usize, Outcome)> {
    let classes = polyhex::enumerate_fixed(cfg.n);
    let algo = cfg.algo.build();
    let limits = cfg.effective_limits();
    let checker = cell_checker(&algo, cfg);
    let indexed: Vec<(usize, &Vec<Coord>)> = classes.iter().enumerate().collect();
    parallel::par_find_min(&indexed, cfg.threads, |&(index, cells)| {
        let initial = Configuration::new(cells.iter().copied());
        // A proof's witness outcome is `Gathered { rounds: 0 }`.
        let outcome = match &checker {
            Some(checker) => checker.run_class(&initial, index, limits).outcome,
            None => run_class(&initial, &algo, cfg.sched, index, limits),
        };
        (!outcome.is_gathered()).then_some(outcome)
    })
    .map(|(i, outcome)| (indexed[i].0, outcome))
}

impl fmt::Display for SweepSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.line())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_tile_exactly() {
        for total in [0, 1, 7, 44, 3652] {
            for shards in [1, 2, 3, 8, 50] {
                let ranges = shard_ranges(total, shards);
                assert_eq!(ranges.len(), shards);
                let mut next = 0;
                for (start, end) in ranges {
                    assert_eq!(start, next);
                    assert!(end >= start);
                    next = end;
                }
                assert_eq!(next, total, "total={total} shards={shards}");
            }
        }
    }

    #[test]
    fn algo_spec_parse_roundtrip() {
        for name in ["paper", "verified", "none", "fix25", "fix25+conn+compl", "prio+mirror"] {
            let spec = AlgoSpec::parse(name).expect(name);
            assert_eq!(spec.name(), name);
        }
        assert_eq!(AlgoSpec::parse("bogus"), None);
        assert_eq!(AlgoSpec::parse("fix25+bogus"), None);
    }

    #[test]
    fn sched_spec_parse() {
        assert_eq!(SchedSpec::parse("fsync"), Some(SchedSpec::Fsync));
        assert_eq!(SchedSpec::parse("rr"), Some(SchedSpec::RoundRobin));
        assert_eq!(
            SchedSpec::parse("random:9:0.25"),
            Some(SchedSpec::RandomSubset { seed: 9, p: 0.25 })
        );
        assert_eq!(SchedSpec::parse("random:9:1.5"), None);
        assert_eq!(SchedSpec::parse("sometimes"), None);
        assert_eq!(
            SchedSpec::parse("adversary"),
            Some(SchedSpec::Adversary { depth: DEFAULT_FAIR_DEPTH })
        );
        assert_eq!(SchedSpec::parse("adversary:5"), Some(SchedSpec::Adversary { depth: 5 }));
        assert_eq!(SchedSpec::parse("adversary:0"), None);
        assert_eq!(SchedSpec::parse("adversary:x"), None);
        assert_eq!(SchedSpec::parse("adversary").unwrap().name(), "adversary");
        assert_eq!(SchedSpec::parse("adversary:5").unwrap().name(), "adversary-d5");
    }

    #[test]
    fn sched_spec_parse_lcm_async() {
        assert_eq!(
            SchedSpec::parse("lcm-async"),
            Some(SchedSpec::LcmAsync { depth: DEFAULT_FAIR_DEPTH })
        );
        assert_eq!(SchedSpec::parse("lcm-async:5"), Some(SchedSpec::LcmAsync { depth: 5 }));
        assert_eq!(SchedSpec::parse("lcm-async:0"), None);
        assert_eq!(SchedSpec::parse("lcm-async:x"), None);
        assert_eq!(SchedSpec::parse("lcm-async:5:3"), None);
        assert_eq!(SchedSpec::parse("lcm-async").unwrap().name(), "lcm-async");
        assert_eq!(SchedSpec::parse("lcm-async:5").unwrap().name(), "lcm-async-d5");
    }

    #[test]
    fn every_listed_sched_spec_round_trips_through_parse() {
        for &example in SCHED_SPEC_EXAMPLES {
            let spec = SchedSpec::parse(example)
                .unwrap_or_else(|| panic!("listed spec {example:?} must parse"));
            // The usage string advertises the example's family.
            let family = example.split(':').next().expect("nonempty spec");
            assert!(
                SCHED_SPECS.contains(family),
                "SCHED_SPECS must advertise the {family:?} family: {SCHED_SPECS}"
            );
            // When a spec's canonical name is itself parseable, it
            // must round-trip to the same spec (parameterised names
            // like `crash-f1` are file slugs, not specs).
            if let Some(by_name) = SchedSpec::parse(&spec.name()) {
                assert_eq!(by_name, spec, "{example}: name {} re-parses", spec.name());
            }
        }
        // The default-parameter specs' canonical names ARE valid specs:
        // summaries and CLI flags agree on them verbatim.
        for base in ["fsync", "round-robin", "adversary", "lcm-async"] {
            let spec = SchedSpec::parse(base).expect("base spec parses");
            assert_eq!(spec.name(), base, "default-parameter names are canonical");
            assert_eq!(SchedSpec::parse(&spec.name()), Some(spec), "{base} round-trips by name");
        }
        // Every family named in SCHED_SPECS has at least one example.
        for family in ["fsync", "round-robin", "random", "adversary", "crash", "lcm-async"] {
            assert!(
                SCHED_SPEC_EXAMPLES.iter().any(|e| e.split(':').next() == Some(family)),
                "family {family:?} lacks an example"
            );
        }
    }

    #[test]
    fn sched_spec_parse_crash() {
        assert_eq!(
            SchedSpec::parse("crash:1"),
            Some(SchedSpec::Crash { f: 1, depth: DEFAULT_FAIR_DEPTH })
        );
        assert_eq!(SchedSpec::parse("crash:2:6"), Some(SchedSpec::Crash { f: 2, depth: 6 }));
        assert_eq!(SchedSpec::parse("crash"), None, "the crash budget is mandatory");
        assert_eq!(
            SchedSpec::parse("crash:9"),
            Some(SchedSpec::Crash { f: 9, depth: DEFAULT_FAIR_DEPTH }),
            "f up to MAX_SWEEP_N - 1 parses; validate() enforces f < n per cell"
        );
        assert_eq!(SchedSpec::parse("crash:10"), None, "f >= MAX_SWEEP_N can never satisfy f < n");
        assert_eq!(SchedSpec::parse("crash:1:0"), None);
        assert_eq!(SchedSpec::parse("crash:1:2:3"), None);
        assert_eq!(SchedSpec::parse("crash:1").unwrap().name(), "crash-f1");
        assert_eq!(SchedSpec::parse("crash:2:6").unwrap().name(), "crash-f2-d6");
    }

    #[test]
    fn validate_accepts_supported_cells_and_rejects_the_rest() {
        for n in MIN_SWEEP_N..=MAX_SWEEP_N {
            let cfg = SweepConfig { n, ..SweepConfig::default() };
            assert!(cfg.validate().is_ok(), "n={n} FSYNC must validate");
            let crash = SchedSpec::Crash { f: (n - 1) as u8, depth: DEFAULT_FAIR_DEPTH };
            let cfg = SweepConfig { n, sched: crash, ..SweepConfig::default() };
            assert!(cfg.validate().is_ok(), "n={n} crash f=n-1 must validate");
        }
        for n in [0, 1, MAX_SWEEP_N + 1] {
            let cfg = SweepConfig { n, ..SweepConfig::default() };
            let err = cfg.validate().expect_err("out-of-range n must be rejected");
            assert!(err.contains(&format!("n={n}")), "error names the bad count: {err}");
        }
        let crash = SchedSpec::Crash { f: 4, depth: DEFAULT_FAIR_DEPTH };
        let cfg = SweepConfig { n: 4, sched: crash, ..SweepConfig::default() };
        let err = cfg.validate().expect_err("f >= n must be rejected");
        assert!(err.contains("f=4"), "error names the bad budget: {err}");
    }

    #[test]
    fn slug_tags_non_default_robot_counts() {
        let seven = SweepConfig::default();
        assert_eq!(seven.slug(), "verified-fsync", "n=7 slugs stay stable");
        let eight = SweepConfig { n: 8, ..SweepConfig::default() };
        assert_eq!(eight.slug(), "verified-fsync-n8");
        let crash = SchedSpec::Crash { f: 1, depth: DEFAULT_FAIR_DEPTH };
        let five = SweepConfig { n: 5, sched: crash, ..SweepConfig::default() };
        assert_eq!(five.slug(), "verified-crash-f1-n5");
    }

    #[test]
    fn verdict_digests_are_robot_count_tagged() {
        // Identical verdict streams over different class spaces must
        // not collide: the n prefix keeps per-n cells apart even when
        // every class is (say) refuted in both.
        let mut record = ShardRecord {
            algo: "verified".into(),
            sched: "adversary".into(),
            robots: 7,
            max_rounds: Limits::default().max_rounds,
            shard: 0,
            shards: 1,
            start: 0,
            end: 1,
            results: vec![ClassOutcome {
                index: 0,
                outcome: Outcome::Gathered { rounds: 0 },
                expanded: 1,
                verdict: Some(AdversaryVerdict::Proof),
                crash: None,
                lcm_async: None,
                panic: None,
            }],
            metrics: None,
            record_digest: None,
        };
        let at_seven = verdict_digest(std::slice::from_ref(&record));
        record.robots = 8;
        let at_eight = verdict_digest(std::slice::from_ref(&record));
        assert_ne!(at_seven, at_eight);
        // And the n=7 stream hashes exactly as the untagged original:
        // no prefix bytes at all.
        let mut h = adversary::Fnv64::new();
        h.write_all(&0u64.to_le_bytes());
        h.write(1);
        assert_eq!(at_seven, h.finish());
    }

    #[test]
    fn crash_cell_records_verdicts_replayable_schedules_and_digest() {
        // The 44-class n=4 space is cheap even in debug. Every
        // refutation's schedule + crash assignment must replay to its
        // recorded outcome, the summary must tally the verdicts, and
        // the digest must be present and sharding-invariant.
        let sched = SchedSpec::parse("crash:1").expect("known scheduler");
        let cfg = SweepConfig { n: 4, sched, shards: 2, ..SweepConfig::default() };
        let classes = polyhex::enumerate_fixed(4);
        let records: Vec<ShardRecord> = shard_ranges(classes.len(), cfg.shards)
            .into_iter()
            .enumerate()
            .map(|(s, (start, end))| run_shard(&classes, &cfg, s, start, end))
            .collect();
        let summary = merge_shards(&cfg, &records).expect("consistent shards");
        let counts = summary.adversary.expect("crash cells tally verdicts");
        assert_eq!(counts.proof + counts.refuted + counts.undecided, 44);
        let digest = summary.digest.expect("crash cells carry a digest");
        assert_eq!(digest, format!("{:016x}", verdict_digest(&records)));

        let algo = cfg.algo.build();
        let mut replayed = 0;
        for res in records.iter().flat_map(|r| r.results.iter()) {
            assert!(res.verdict.is_none(), "crash cells use the crash column");
            let verdict = res.crash.as_ref().expect("crash cells store verdicts");
            if let CrashVerdict::Refuted { outcome, schedule } = verdict {
                assert_eq!(outcome, &res.outcome, "witness outcome mirrors the verdict");
                let crashes: u32 = schedule.iter().map(|a| a.crash.count_ones()).sum();
                assert!(crashes <= 1, "f = 1 schedules crash at most one robot");
                let initial = Configuration::new(classes[res.index].iter().copied());
                let run = faults::replay(&initial, &algo, verdict).expect("refutations replay");
                assert_eq!(&run.execution.outcome, outcome, "class {}", res.index);
                replayed += 1;
            }
        }
        assert!(replayed > 0, "expected at least one crash-refuted class in the n=4 space");

        // Sharding invariance of verdicts and digest.
        let one = SweepConfig { shards: 1, ..cfg.clone() };
        let whole = run_shard(&classes, &one, 0, 0, classes.len());
        let resharded = verdict_digest(std::slice::from_ref(&whole));
        assert_eq!(verdict_digest(&records), resharded, "digest must be sharding-invariant");
    }

    #[test]
    fn lcm_async_cell_records_verdicts_replayable_schedules_and_digest() {
        // The 44-class n=4 space is cheap even in debug. Every ASYNC
        // refutation's tick schedule must replay to its recorded
        // outcome, the summary must tally the verdicts, and the digest
        // must be present and sharding-invariant.
        let sched = SchedSpec::parse("lcm-async").expect("known scheduler");
        let cfg = SweepConfig { n: 4, sched, shards: 2, ..SweepConfig::default() };
        let classes = polyhex::enumerate_fixed(4);
        let records: Vec<ShardRecord> = shard_ranges(classes.len(), cfg.shards)
            .into_iter()
            .enumerate()
            .map(|(s, (start, end))| run_shard(&classes, &cfg, s, start, end))
            .collect();
        let summary = merge_shards(&cfg, &records).expect("consistent shards");
        let counts = summary.adversary.expect("lcm-async cells tally verdicts");
        assert_eq!(counts.proof + counts.refuted + counts.undecided, 44);
        let digest = summary.digest.expect("lcm-async cells carry a digest");
        assert_eq!(digest, format!("{:016x}", verdict_digest(&records)));

        let algo = cfg.algo.build();
        let mut replayed = 0;
        for res in records.iter().flat_map(|r| r.results.iter()) {
            assert!(res.verdict.is_none(), "lcm-async cells use the lcm_async column");
            assert!(res.crash.is_none(), "lcm-async cells use the lcm_async column");
            let verdict = res.lcm_async.as_ref().expect("lcm-async cells store verdicts");
            if let robots::AsyncVerdict::Refuted { outcome, schedule } = verdict {
                assert_eq!(outcome, &res.outcome, "witness outcome mirrors the verdict");
                assert!(
                    schedule.iter().all(|a| a.crash == 0 && a.activate.count_ones() == 1),
                    "ASYNC actions are crash-free one-hot phase advances"
                );
                let initial = Configuration::new(classes[res.index].iter().copied());
                let run = robots::async_model::replay(&initial, &algo, verdict)
                    .expect("refutations replay");
                assert_eq!(&run.execution.outcome, outcome, "class {}", res.index);
                replayed += 1;
            }
        }
        assert!(replayed > 0, "expected at least one async-refuted class in the n=4 space");

        // Sharding invariance of verdicts and digest.
        let one = SweepConfig { shards: 1, ..cfg.clone() };
        let whole = run_shard(&classes, &one, 0, 0, classes.len());
        let resharded = verdict_digest(std::slice::from_ref(&whole));
        assert_eq!(verdict_digest(&records), resharded, "digest must be sharding-invariant");
    }

    #[test]
    fn model_checking_digests_are_model_tagged() {
        // The same class space classified under two different models
        // must never produce the same digest, even when the verdict
        // kinds happen to coincide — the tag bytes keep the models
        // apart.
        let classes = polyhex::enumerate_fixed(4);
        let digest_of = |spec: &str| {
            let sched = SchedSpec::parse(spec).expect("known scheduler");
            let cfg = SweepConfig { n: 4, sched, shards: 1, ..SweepConfig::default() };
            verdict_digest(&[run_shard(&classes, &cfg, 0, 0, classes.len())])
        };
        let adversary = digest_of("adversary");
        let crash = digest_of("crash:1");
        let lcm_async = digest_of("lcm-async");
        assert_ne!(adversary, crash);
        assert_ne!(adversary, lcm_async);
        assert_ne!(crash, lcm_async);
    }

    #[test]
    fn fsync_cells_carry_no_digest() {
        let cfg = SweepConfig { n: 4, shards: 1, ..SweepConfig::default() };
        let classes = polyhex::enumerate_fixed(4);
        let record = run_shard(&classes, &cfg, 0, 0, classes.len());
        let summary = merge_shards(&cfg, std::slice::from_ref(&record)).expect("merges");
        assert!(summary.digest.is_none(), "digests are for model-checking cells");
        assert!(summary.adversary.is_none());
    }

    #[test]
    fn adversary_cell_records_verdicts_and_replayable_schedules() {
        // The 44-class n=4 space is cheap even in debug. The verified
        // algorithm targets seven robots, so plenty of classes refute;
        // every refutation's schedule must replay to its recorded
        // outcome, and the summary must tally the verdicts.
        let sched = SchedSpec::Adversary { depth: DEFAULT_FAIR_DEPTH };
        let cfg = SweepConfig { n: 4, sched, shards: 2, ..SweepConfig::default() };
        let classes = polyhex::enumerate_fixed(4);
        let records: Vec<ShardRecord> = shard_ranges(classes.len(), cfg.shards)
            .into_iter()
            .enumerate()
            .map(|(s, (start, end))| run_shard(&classes, &cfg, s, start, end))
            .collect();
        let summary = merge_shards(&cfg, &records).expect("consistent shards");
        let counts = summary.adversary.expect("adversary cells tally verdicts");
        assert_eq!(counts.proof + counts.refuted + counts.undecided, 44);

        let algo = cfg.algo.build();
        let mut replayed = 0;
        for res in records.iter().flat_map(|r| r.results.iter()) {
            let verdict = res.verdict.as_ref().expect("adversary cells store verdicts");
            if let AdversaryVerdict::Refuted { outcome, .. } = verdict {
                assert_eq!(outcome, &res.outcome, "witness outcome mirrors the verdict");
                let initial = Configuration::new(classes[res.index].iter().copied());
                let ex = adversary::replay(&initial, &algo, verdict).expect("refutations replay");
                assert_eq!(&ex.outcome, outcome, "class {}", res.index);
                replayed += 1;
            }
        }
        assert!(replayed > 0, "expected at least one refuted class in the n=4 space");
    }

    #[test]
    fn adversary_outcomes_are_sharding_invariant() {
        let sched = SchedSpec::Adversary { depth: DEFAULT_FAIR_DEPTH };
        let one = SweepConfig { n: 4, shards: 1, sched, ..SweepConfig::default() };
        let many = SweepConfig { n: 4, shards: 3, sched, threads: 2, ..SweepConfig::default() };
        let classes = polyhex::enumerate_fixed(4);
        let whole = run_shard(&classes, &one, 0, 0, classes.len());
        let pieces: Vec<ClassOutcome> = shard_ranges(classes.len(), 3)
            .into_iter()
            .enumerate()
            .flat_map(|(s, (start, end))| run_shard(&classes, &many, s, start, end).results)
            .collect();
        assert_eq!(whole.results.len(), pieces.len());
        for (a, b) in whole.results.iter().zip(&pieces) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.verdict, b.verdict, "class {}", a.index);
            assert_eq!(a.outcome, b.outcome, "class {}", a.index);
        }
    }

    #[test]
    fn fsync_cell_matches_verify_all_counts() {
        // The sharded pipeline must agree with the one-shot verifier.
        let cfg = SweepConfig { n: 5, shards: 3, ..SweepConfig::default() };
        let classes = polyhex::enumerate_fixed(5);
        let records: Vec<ShardRecord> = shard_ranges(classes.len(), cfg.shards)
            .into_iter()
            .enumerate()
            .map(|(s, (start, end))| run_shard(&classes, &cfg, s, start, end))
            .collect();
        let summary = merge_shards(&cfg, &records).expect("consistent shards");
        let report = crate::verify_all(5, &SevenGather::verified(), Limits::default(), 0);
        assert_eq!(summary.total, report.total);
        assert_eq!(summary.gathered, report.gathered);
        assert_eq!(summary.max_rounds, report.max_rounds);
    }

    #[test]
    fn merge_rejects_gaps_and_foreign_cells() {
        let cfg = SweepConfig { n: 4, shards: 2, ..SweepConfig::default() };
        let classes = polyhex::enumerate_fixed(4);
        let ranges = shard_ranges(classes.len(), 2);
        let a = run_shard(&classes, &cfg, 0, ranges[0].0, ranges[0].1);
        let b = run_shard(&classes, &cfg, 1, ranges[1].0, ranges[1].1);
        assert!(merge_shards(&cfg, &[a.clone(), b.clone()]).is_ok());
        // Incomplete: second shard missing.
        assert!(merge_shards(&cfg, std::slice::from_ref(&a)).is_err());
        // Foreign cell: wrong scheduler name.
        let mut foreign = b;
        foreign.sched = "round-robin".to_string();
        assert!(merge_shards(&cfg, &[a, foreign]).is_err());
    }

    #[test]
    fn random_subset_outcomes_are_sharding_invariant() {
        // The per-class seed derivation must make outcomes identical no
        // matter how the space is sharded.
        let sched = SchedSpec::RandomSubset { seed: 3, p: 0.6 };
        let one = SweepConfig { n: 4, shards: 1, sched, ..SweepConfig::default() };
        let many = SweepConfig { n: 4, shards: 5, sched, ..SweepConfig::default() };
        let classes = polyhex::enumerate_fixed(4);
        let whole = run_shard(&classes, &one, 0, 0, classes.len());
        let pieces: Vec<ClassOutcome> = shard_ranges(classes.len(), 5)
            .into_iter()
            .enumerate()
            .flat_map(|(s, (start, end))| run_shard(&classes, &many, s, start, end).results)
            .collect();
        assert_eq!(whole.results.len(), pieces.len());
        for (a, b) in whole.results.iter().zip(&pieces) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.outcome, b.outcome, "class {}", a.index);
        }
    }

    #[test]
    fn resume_skips_completed_shards() {
        let dir = std::env::temp_dir().join(format!("trigather-sweep-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = SweepConfig { n: 4, shards: 3, ..SweepConfig::default() };
        let first = run_sweep(&cfg, &dir, true, |_, _, _| {}).expect("first run");
        assert!(first.shard_status.iter().all(|s| *s == ShardStatus::Computed));
        let second = run_sweep(&cfg, &dir, true, |_, _, _| {}).expect("resumed run");
        assert!(second.shard_status.iter().all(|s| *s == ShardStatus::Reused));
        assert_eq!(first.summary, second.summary);
        // Without resume everything recomputes.
        let third = run_sweep(&cfg, &dir, false, |_, _, _| {}).expect("fresh run");
        assert!(third.shard_status.iter().all(|s| *s == ShardStatus::Computed));
        // A different round cap invalidates the records: step-limit
        // outcomes depend on it, so resume must not reuse them.
        let recapped =
            SweepConfig { limits: Limits { max_rounds: 123, ..Limits::default() }, ..cfg.clone() };
        let fourth = run_sweep(&recapped, &dir, true, |_, _, _| {}).expect("recapped run");
        assert!(fourth.shard_status.iter().all(|s| *s == ShardStatus::Computed));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn temp_sweep_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("trigather-sweep-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn one_checker_serves_every_shard_of_a_cell() {
        // Every shard of a cell runs through the cell's one checker, so
        // its class table — and the merged class count — does not grow
        // with the shard count, and the per-shard metric deltas merge
        // back to the cell's exact state count.
        let read = |shards: usize| {
            let sched = SchedSpec::parse("crash:1").expect("known scheduler");
            let cfg = SweepConfig { n: 6, shards, sched, ..SweepConfig::default() };
            let dir = temp_sweep_dir(&format!("cell-checker-{shards}"));
            let outcome = run_sweep(&cfg, &dir, false, |_, _, _| {}).expect("sweep runs");
            let _ = std::fs::remove_dir_all(&dir);
            let snapshot = outcome.summary.metrics.expect("metrics are on").snapshot;
            let states = snapshot.counter("explore.states");
            assert_eq!(states, outcome.expanded, "{shards} shards: states summed exactly once");
            (snapshot.counter("explore.classes"), states, outcome.digest)
        };
        let one = read(1);
        assert_eq!(one.0, 814, "each connected n = 6 class enters the table once");
        assert_eq!(read(4), one);
    }

    #[test]
    fn published_records_resume_as_reused_with_identical_results() {
        // Every record a sweep publishes reloads through the journal
        // reader to exactly the records the computing run held, in
        // every verdict column, and the directory keeps no journal or
        // tmp file once the cell is done.
        for spec in ["adversary", "crash:1", "lcm-async", "fsync"] {
            let sched = SchedSpec::parse(spec).expect("known scheduler");
            let cfg = SweepConfig {
                n: 4,
                shards: 3,
                sched,
                journal_chunk: Some(4),
                ..SweepConfig::default()
            };
            let dir = temp_sweep_dir(&format!("roundtrip-{}", spec.replace(':', "_")));
            let mut computed = Vec::new();
            let first = run_sweep(&cfg, &dir, false, |_, _, r| computed.push(r.clone()))
                .expect("first run");
            let mut reloaded = Vec::new();
            let second = run_sweep(&cfg, &dir, true, |_, _, r| reloaded.push(r.clone()))
                .expect("resumed run");
            assert!(second.shard_status.iter().all(|s| *s == ShardStatus::Reused), "{spec}");
            assert_eq!(first.summary, second.summary, "{spec}");
            assert_eq!(first.digest, second.digest, "{spec}");
            let json =
                |records: &[ShardRecord]| serde_json::to_string(records).expect("serializes");
            assert_eq!(json(&computed), json(&reloaded), "{spec}: records reload unchanged");
            let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
                .expect("out dir")
                .map(|e| e.expect("dir entry").path())
                .collect();
            files.sort();
            let mut expected: Vec<PathBuf> = (0..3).map(|s| cfg.shard_path(&dir, s)).collect();
            expected.push(cfg.summary_path(&dir));
            expected.sort();
            assert_eq!(files, expected, "{spec}: records and summary only");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn records_with_non_ascii_panic_messages_resume_as_reused() {
        // A panic payload is free text. A record row carrying one with
        // 2-, 3- and 4-byte characters next to escapes reloads as the
        // very row that was published.
        let dir = temp_sweep_dir("utf8-panic");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let sched = SchedSpec::parse("lcm-async").expect("known scheduler");
        let cfg = SweepConfig { n: 4, shards: 1, sched, ..SweepConfig::default() };
        let classes = polyhex::enumerate_fixed(4);
        let mut record = run_shard(&classes, &cfg, 0, 0, classes.len());
        let msg = "bööm: ¬ℵ “quoted” 😀\n\"escaped\"😀";
        record.results[5] = panicked_outcome(5, sched, msg.into());
        let header = JournalHeader::for_cell(&cfg, 0, 0, classes.len());
        let mut writer =
            JournalWriter::create(&cfg.journal_path(&dir, 0), &header).expect("create");
        append_rows(&mut writer, 0, &record.results);
        let footer = JournalFooter { metrics: record.metrics.clone().expect("shard metrics") };
        writer.publish(&footer, &cfg.shard_path(&dir, 0)).expect("publish");

        let mut reloaded = Vec::new();
        let run =
            run_sweep(&cfg, &dir, true, |_, _, r| reloaded.push(r.clone())).expect("resumed run");
        assert_eq!(run.shard_status, vec![ShardStatus::Reused]);
        assert_eq!(reloaded[0].results[5].panic.as_deref(), Some(msg));
        let json = |rows: &[ClassOutcome]| serde_json::to_string(rows).expect("serializes");
        assert_eq!(json(&reloaded[0].results), json(&record.results), "rows reload unchanged");
        assert_eq!(run.digest, verdict_digest(std::slice::from_ref(&record)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_json_records_are_neither_reused_nor_quarantined() {
        // Older builds published pretty `.json` records. Records moved
        // to a new path, so such a file is never opened: its shard is
        // recomputed as if no record existed, and the file stays put.
        let dir = temp_sweep_dir("migration");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let cfg = SweepConfig { n: 4, shards: 1, ..SweepConfig::default() };
        let classes = polyhex::enumerate_fixed(4);
        let mut record = run_shard(&classes, &cfg, 0, 0, classes.len());
        record.results[0].outcome = Outcome::Gathered { rounds: 4242 };
        let old = cfg.shard_path(&dir, 0).with_extension("json");
        let pretty = serde_json::to_string_pretty(&record).expect("serializes");
        std::fs::write(&old, &pretty).expect("plant the old record");
        let run = run_sweep(&cfg, &dir, true, |_, _, _| {}).expect("resumed run");
        assert_eq!(run.shard_status, vec![ShardStatus::Computed]);
        assert_ne!(run.summary.max_rounds, 4242, "the old record is never reused");
        assert_eq!(std::fs::read_to_string(&old).expect("old record stays"), pretty);
        assert!(!PathBuf::from(format!("{}.corrupt", old.display())).exists());
        assert!(cfg.shard_path(&dir, 0).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_with_damaged_line_structure_are_corrupt() {
        // A record must be a header, entries tiling the range with
        // consecutive indices, a footer and the end of the file. Every
        // damage below leaves each remaining line's framing intact, so
        // only the structure checks can catch it.
        let dir = temp_sweep_dir("structure");
        let cfg =
            SweepConfig { n: 4, shards: 1, journal_chunk: Some(10), ..SweepConfig::default() };
        let total = polyhex::enumerate_fixed(4).len();
        run_sweep(&cfg, &dir, false, |_, _, _| {}).expect("first run");
        let path = cfg.shard_path(&dir, 0);
        let text = std::fs::read_to_string(&path).expect("record exists");
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        assert_eq!(lines.len(), 7, "header, five entries of up to 10 classes, footer");
        let load = |body: &str| {
            std::fs::write(&path, body).expect("rewrite");
            load_shard_checked(&path, &cfg, 0, 0, total)
        };
        assert!(load(&text).expect("intact").is_some());
        let pick = |order: &[usize]| order.iter().map(|&i| lines[i]).collect::<String>();
        let damaged = [
            ("no header", pick(&[1, 2, 3, 4, 5, 6])),
            ("a missing entry", pick(&[0, 1, 2, 4, 5, 6])),
            ("a duplicated entry", pick(&[0, 1, 1, 2, 3, 4, 5, 6])),
            ("reordered entries", pick(&[0, 2, 1, 3, 4, 5, 6])),
            ("no footer", pick(&[0, 1, 2, 3, 4, 5])),
            ("a line after the footer", pick(&[0, 1, 2, 3, 4, 5, 6, 5])),
            ("bytes after the footer", format!("{text}x")),
        ];
        for (what, body) in &damaged {
            assert!(load(body).is_err(), "a record with {what} must be corrupt");
        }
        // Read as a journal, a complete record yields every class and
        // stops before its footer, so a resumed writer drops it.
        std::fs::write(&path, &text).expect("restore");
        let prefix = read_journal(&path, &cfg, 0, 0, total);
        assert_eq!(prefix.results.len(), total);
        assert_eq!(prefix.valid_len, (text.len() - lines[6].len()) as u64);
        // A record whose header names another cell is stale, not corrupt.
        let other = SweepConfig { algo: AlgoSpec::Paper, ..cfg.clone() };
        assert!(load_shard_checked(&path, &other, 0, 0, total).expect("stale").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_quarantines_malformed_records_and_recomputes() {
        let dir = temp_sweep_dir("quarantine");
        let cfg = SweepConfig { n: 4, shards: 2, ..SweepConfig::default() };
        let first = run_sweep(&cfg, &dir, false, |_, _, _| {}).expect("first run");
        // Truncate shard 0's record mid-file: parseable prefix of a
        // JSON document, i.e. malformed.
        let victim = cfg.shard_path(&dir, 0);
        let text = std::fs::read_to_string(&victim).expect("record exists");
        std::fs::write(&victim, &text[..text.len() / 2]).expect("truncate");
        let second = run_sweep(&cfg, &dir, true, |_, _, _| {}).expect("resume succeeds anyway");
        assert_eq!(second.shard_status[0], ShardStatus::Computed, "corrupt shard recomputed");
        assert_eq!(second.shard_status[1], ShardStatus::Reused, "healthy shard reused");
        assert_eq!(first.summary, second.summary);
        assert_eq!(first.digest, second.digest);
        let corpse = PathBuf::from(format!("{}.corrupt", victim.display()));
        assert!(corpse.exists(), "the corrupt record is preserved for triage");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_quarantines_digest_mismatches() {
        let dir = temp_sweep_dir("digestcheck");
        let cfg = SweepConfig { n: 4, shards: 1, ..SweepConfig::default() };
        let first = run_sweep(&cfg, &dir, false, |_, _, _| {}).expect("first run");
        // Flip one digit inside a record line's JSON, keeping its
        // length: the JSON stays well-formed and the structure valid,
        // so only the line's digest can catch it.
        let victim = cfg.shard_path(&dir, 0);
        let mut bytes = std::fs::read(&victim).expect("record exists");
        let key = b"\"expanded\":";
        let at = bytes.windows(key.len()).position(|w| w == key).expect("a result row") + key.len();
        bytes[at] = if bytes[at] == b'1' { b'2' } else { b'1' };
        std::fs::write(&victim, bytes).expect("rewrite");
        let second = run_sweep(&cfg, &dir, true, |_, _, _| {}).expect("resume succeeds anyway");
        assert!(second.shard_status.iter().all(|s| *s == ShardStatus::Computed));
        assert_eq!(first.summary, second.summary);
        assert!(
            PathBuf::from(format!("{}.corrupt", victim.display())).exists(),
            "the tampered record is preserved for triage"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Appends `rows` as the journal entry of the classes from `start`
    /// on, encoded as a journaling shard encodes them.
    fn append_rows(writer: &mut JournalWriter, start: usize, rows: &[ClassOutcome]) {
        let encoded: Vec<String> =
            rows.iter().map(|r| serde_json::to_string(r).expect("rows serialize")).collect();
        writer.append_line(&entry_json(start, start + rows.len(), &encoded), true).expect("append");
    }

    /// `serde_json::to_string` streams `x` through `write_json`; it must
    /// write what the `Value` path writes, and the text must read back
    /// as the same value.
    fn assert_streams_like_its_value<T>(x: &T)
    where
        T: Serialize + for<'de> Deserialize<'de>,
    {
        let streamed = serde_json::to_string(x).expect("serializes");
        let value = serde_json::to_value(x).expect("converts");
        assert_eq!(streamed, serde_json::to_string(&value).expect("serializes"));
        assert_eq!(serde_json::from_str::<serde_json::Value>(&streamed).expect("parses"), value);
        let typed: T = serde_json::from_str(&streamed).expect("reads back as its type");
        assert_eq!(serde_json::to_string(&typed).expect("serializes"), streamed);
    }

    #[test]
    fn streaming_json_matches_the_value_path() {
        let classes = polyhex::enumerate_fixed(5);
        let mut rows = Vec::new();
        let mut summaries = Vec::new();
        for (algo, sched) in [
            ("verified", "adversary"),
            ("verified", "crash:1"),
            ("verified", "lcm-async"),
            ("verified", "fsync"),
            ("paper", "fsync"),
        ] {
            let algo = AlgoSpec::parse(algo).expect("known algorithm");
            let sched = SchedSpec::parse(sched).expect("known scheduler");
            let cfg = SweepConfig { n: 5, shards: 1, algo, sched, ..SweepConfig::default() };
            let record = run_shard(&classes, &cfg, 0, 0, classes.len());
            let header = JournalHeader::for_cell(&cfg, 0, 0, classes.len());
            assert_streams_like_its_value(&header);
            let mut metrics = record.metrics.clone().expect("shard metrics");
            metrics.snapshot.add_gauge("test.gauge", 3);
            assert!(!metrics.snapshot.counters.is_empty());
            assert_streams_like_its_value(&JournalFooter { metrics });
            summaries.push(merge_shards(&cfg, std::slice::from_ref(&record)).expect("merges"));
            for reason in [
                UndecidedReason::States,
                UndecidedReason::Edges,
                UndecidedReason::FairDepth,
                UndecidedReason::Timeout,
                UndecidedReason::MemBudget,
            ] {
                // This cell's panic row, turned undecided under `reason`.
                let mut row = panicked_outcome(0, sched, String::new());
                row.outcome = Outcome::Undecided { reason };
                row.panic = None;
                row.verdict = row.verdict.map(|_| AdversaryVerdict::Undecided { reason });
                row.crash = row.crash.map(|_| CrashVerdict::Undecided { reason });
                row.lcm_async = row.lcm_async.map(|_| AsyncVerdict::Undecided { reason });
                rows.push(row);
            }
            rows.push(panicked_outcome(1, sched, "bööm: \"quoted\"\n\t¬ℵ 😀\u{1}\\".into()));
            rows.extend(record.results);
        }
        let verdict_kinds = |r: &ClassOutcome| {
            let v = serde_json::to_value(r).expect("converts");
            let kind = |column: &str| match v.get(column) {
                Some(serde_json::Value::Str(unit)) => unit.clone(),
                Some(serde_json::Value::Map(tagged)) => tagged[0].0.clone(),
                _ => String::new(),
            };
            format!("{}/{}/{}", kind("verdict"), kind("crash"), kind("lcm_async"))
        };
        // Each verdict column carries proofs, refutations with their
        // schedules and undecided rows.
        let kinds: std::collections::BTreeSet<String> = rows.iter().map(verdict_kinds).collect();
        for kind in ["Proof", "Refuted", "Undecided"] {
            for column in [format!("{kind}//"), format!("/{kind}/"), format!("//{kind}")] {
                assert!(kinds.contains(&column), "{column} missing from {kinds:?}");
            }
        }
        for row in &rows {
            assert_streams_like_its_value(row);
        }
        for summary in &summaries {
            assert_streams_like_its_value(summary);
        }
        let mut table = impossibility::RuleTable::with_forced_stays();
        table.assign(0b10_1010, 3);
        assert_streams_like_its_value(&table);
    }

    #[test]
    fn entry_lines_from_row_encodings_equal_the_encoded_entry() {
        // Every verdict column, and a panic row, in one entry.
        let classes = polyhex::enumerate_fixed(4);
        for sched in ["adversary", "crash:1", "lcm-async", "fsync"] {
            let sched = SchedSpec::parse(sched).expect("known scheduler");
            let cfg = SweepConfig { n: 4, shards: 1, sched, ..SweepConfig::default() };
            let mut results = run_shard(&classes, &cfg, 0, 0, classes.len()).results;
            results[3] = panicked_outcome(3, sched, "bööm \"quoted\"\n😀".into());
            let encoded: Vec<String> =
                results.iter().map(|r| serde_json::to_string(r).expect("serializes")).collect();
            let entry = JournalEntry { start: 0, end: results.len(), results };
            assert_eq!(
                entry_json(entry.start, entry.end, &encoded),
                serde_json::to_string(&entry).expect("serializes"),
                "{}",
                sched.name()
            );
        }
    }

    #[test]
    fn journal_round_trips_and_drops_torn_tails() {
        let dir = temp_sweep_dir("journal");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let cfg = SweepConfig { n: 4, shards: 1, ..SweepConfig::default() };
        let classes = polyhex::enumerate_fixed(4);
        let full = run_shard(&classes, &cfg, 0, 0, classes.len());
        let path = cfg.journal_path(&dir, 0);
        let header = JournalHeader::for_cell(&cfg, 0, 0, classes.len());
        {
            let mut w = JournalWriter::create(&path, &header).expect("create");
            append_rows(&mut w, 0, &full.results[..10]);
            append_rows(&mut w, 10, &full.results[10..20]);
        }
        let prefix = read_journal(&path, &cfg, 0, 0, classes.len());
        assert_eq!(prefix.results.len(), 20);
        assert_eq!(prefix.valid_len, std::fs::metadata(&path).expect("meta").len());
        for (a, b) in prefix.results.iter().zip(&full.results[..20]) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.outcome, b.outcome);
        }
        // Tear the tail: chop bytes off the last line. Only the intact
        // first entry survives; its byte length is reported so a
        // resumed writer can truncate the stump.
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 7]).expect("tear");
        let torn = read_journal(&path, &cfg, 0, 0, classes.len());
        assert_eq!(torn.results.len(), 10, "torn tail dropped, valid prefix kept");
        assert!(torn.valid_len < bytes.len() as u64 - 7);
        // A journal for a different cell is rejected outright.
        let other = SweepConfig { algo: AlgoSpec::Paper, ..cfg.clone() };
        let foreign = read_journal(&path, &other, 0, 0, classes.len());
        assert_eq!(foreign.results.len(), 0, "foreign headers never feed results");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_continues_mid_shard_from_the_journal() {
        let dir = temp_sweep_dir("midshard");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let cfg = SweepConfig { n: 4, shards: 1, ..SweepConfig::default() };
        let classes = polyhex::enumerate_fixed(4);
        // Plant a journal covering the first 8 classes with a forged
        // outcome for class 0: if the resumed run reuses the journal
        // (rather than recomputing), the forgery must surface in the
        // merged summary.
        let full = run_shard(&classes, &cfg, 0, 0, classes.len());
        let mut head = full.results[..8].to_vec();
        head[0].outcome = Outcome::Gathered { rounds: 4242 };
        let path = cfg.journal_path(&dir, 0);
        let header = JournalHeader::for_cell(&cfg, 0, 0, classes.len());
        {
            let mut w = JournalWriter::create(&path, &header).expect("create");
            append_rows(&mut w, 0, &head);
        }
        let outcome = run_sweep(&cfg, &dir, true, |_, _, _| {}).expect("resumed run");
        assert_eq!(
            outcome.summary.max_rounds, 4242,
            "journaled classes must be reused, not recomputed"
        );
        assert!(!path.exists(), "the journal is deleted once the record is published");
        // A fresh (non-resume) run ignores and replaces any journal.
        let clean = run_sweep(&cfg, &dir, false, |_, _, _| {}).expect("fresh run");
        assert_ne!(clean.summary.max_rounds, 4242);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_deadline_stops_cleanly_and_resume_completes() {
        let dir = temp_sweep_dir("deadline");
        let stopped =
            SweepConfig { n: 4, shards: 2, cell_deadline_secs: Some(0), ..SweepConfig::default() };
        match run_sweep_with(&stopped, &dir, false, |_, _, _| {}).expect("stop is not an error") {
            SweepRun::DeadlineStopped { completed_shards, journaled_classes } => {
                assert_eq!(completed_shards, 0, "an already-expired deadline stops immediately");
                assert_eq!(journaled_classes, 0);
            }
            SweepRun::Complete(_) => panic!("a zero deadline cannot complete the cell"),
        }
        // Resuming without the deadline finishes and matches a clean run.
        let relaxed = SweepConfig { cell_deadline_secs: None, ..stopped.clone() };
        let resumed = run_sweep(&relaxed, &dir, true, |_, _, _| {}).expect("resume completes");
        let clean_dir = temp_sweep_dir("deadline-clean");
        let clean = run_sweep(&relaxed, &clean_dir, false, |_, _, _| {}).expect("clean run");
        assert_eq!(resumed.summary, clean.summary);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&clean_dir);
    }

    #[test]
    fn class_timeout_degrades_to_counted_timeout_verdicts() {
        // A zero deadline trips the explorer's first poll, so every
        // class of the cell degrades to Undecided{Timeout} — counted,
        // not fatal, and visible in the summary tallies — whichever
        // model the cell's checker runs.
        let classes = polyhex::enumerate_fixed(4);
        for spec in ["adversary", "crash:1", "lcm-async"] {
            let sched = SchedSpec::parse(spec).expect("known scheduler");
            let cfg = SweepConfig {
                n: 4,
                shards: 1,
                sched,
                class_timeout_ms: Some(0),
                ..SweepConfig::default()
            };
            let record = run_shard(&classes, &cfg, 0, 0, classes.len());
            assert!(
                record.results.iter().all(|r| matches!(
                    r.outcome,
                    Outcome::Undecided { reason: UndecidedReason::Timeout }
                )),
                "{spec}: every class times out"
            );
            let summary = merge_shards(&cfg, std::slice::from_ref(&record)).expect("merges");
            assert_eq!(summary.undecided, classes.len(), "{spec}");
            let counts = summary.adversary.expect("model-checking cells tally verdicts");
            assert_eq!(counts.undecided, classes.len(), "{spec}");
        }
    }

    #[test]
    fn mem_budget_degrades_to_counted_mem_budget_verdicts() {
        // A zero-byte budget (the degenerate config value; the CLI
        // rejects it as useless) trips the first budget poll of every
        // class that reaches one, so the cell degrades to counted
        // Undecided{MemBudget} rows — deterministically, no panic —
        // and the shard metrics carry the tally, whichever model the
        // cell's checker runs.
        let classes = polyhex::enumerate_fixed(4);
        for spec in ["adversary", "crash:1", "lcm-async"] {
            let sched = SchedSpec::parse(spec).expect("known scheduler");
            let cfg = SweepConfig {
                n: 4,
                shards: 1,
                sched,
                mem_budget_mb: Some(0),
                ..SweepConfig::default()
            };
            let is_over_budget = |r: &ClassOutcome| {
                matches!(r.outcome, Outcome::Undecided { reason: UndecidedReason::MemBudget })
            };
            let record = run_shard(&classes, &cfg, 0, 0, classes.len());
            let over_budget = record.results.iter().filter(|r| is_over_budget(r)).count();
            assert!(over_budget > 0, "{spec}: a zero budget must trip on some n=4 class");
            let metrics = record.metrics.as_ref().expect("shard metrics present");
            assert_eq!(
                metrics.snapshot.counter("sweep.classes_mem_budget"),
                over_budget as u64,
                "{spec}"
            );
            let summary = merge_shards(&cfg, std::slice::from_ref(&record)).expect("merges");
            assert!(summary.undecided >= over_budget, "{spec}");

            // The same cell with no budget decides every class: the
            // budget path never leaks into unbudgeted runs.
            let unbudgeted = SweepConfig { mem_budget_mb: None, ..cfg };
            let record = run_shard(&classes, &unbudgeted, 0, 0, classes.len());
            assert!(!record.results.iter().any(is_over_budget), "{spec}");
        }
    }

    #[test]
    fn panicked_rows_validate_and_merge_like_any_undecided() {
        // panicked_outcome must produce rows consistent with each
        // cell's verdict-column contract (validate_results) and merge
        // into the undecided tallies.
        for spec in ["adversary", "crash:1", "lcm-async", "fsync"] {
            let sched = SchedSpec::parse(spec).expect("known scheduler");
            let cfg = SweepConfig { n: 4, shards: 1, sched, ..SweepConfig::default() };
            let classes = polyhex::enumerate_fixed(4);
            let mut record = run_shard(&classes, &cfg, 0, 0, classes.len());
            record.results[5] = panicked_outcome(5, sched, "injected".into());
            assert!(record.validate_results(&cfg).is_ok(), "{spec}: row stays consistent");
            let summary =
                merge_shards(&cfg, std::slice::from_ref(&record)).expect("poisoned row merges");
            assert!(summary.undecided >= 1, "{spec}: the panicked class is counted");
        }
    }

    #[test]
    fn find_failure_agrees_with_the_full_sweep() {
        // The algorithm targets exactly seven robots, so n=4 cells may
        // legitimately fail; the contract is that the early-exit search
        // reports a counterexample iff the exhaustive shard run holds
        // one, and never a gathered class.
        for algo in [AlgoSpec::Paper, AlgoSpec::Verified] {
            let cfg = SweepConfig { n: 4, algo, shards: 1, ..SweepConfig::default() };
            let classes = polyhex::enumerate_fixed(4);
            let full = run_shard(&classes, &cfg, 0, 0, classes.len());
            let any_fails = full.results.iter().any(|r| !r.outcome.is_gathered());
            match find_failure(&cfg) {
                None => assert!(!any_fails, "{}: search missed a failing class", cfg.slug()),
                Some((index, outcome)) => {
                    assert!(!outcome.is_gathered());
                    assert_eq!(
                        full.results[index].outcome,
                        outcome,
                        "{}: class {index} outcome mismatch",
                        cfg.slug()
                    );
                }
            }
        }
    }
}
