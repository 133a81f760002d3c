//! Completion synthesizer: recovers the paper's omitted rule details.
//!
//! The printed Algorithm 1 plus the documented fixes and the completion
//! fallback still strands a set of initial classes in non-gathered
//! fixpoints (the paper admits omitting "several robot behaviors"). This
//! tool closes the gap the way the authors validated their algorithm —
//! by exhaustive simulation:
//!
//! 1. run the §IV-B verification over all 3652 classes;
//! 2. cluster the stuck fixpoints by final configuration;
//! 3. for every stranded robot, propose per-view move overrides
//!    (empty target, locally connectivity-safe, never west);
//! 4. accept an override only if a full re-verification strictly
//!    increases the gathered count with **zero** collisions,
//!    disconnections and livelocks;
//! 5. repeat until every class gathers, then emit
//!    `crates/core/src/overrides.rs`.
//!
//! ```text
//! cargo run --release -p simlab --bin synthesize [-- --out PATH]
//! ```
//!
//! The verified algorithm ships as the compiled decision table
//! `crates/core/src/verified.table`, which includes the overrides, so
//! new overrides need the table regenerated; the tool ends by printing
//! the command.

use gathering::rules::{self, RuleOptions};
use gathering::safety::connectivity_safe;
use gathering::{completion, table};
use robots::{engine, Algorithm, Configuration, Limits, Outcome, View};
use std::collections::{BTreeMap, HashMap};
use trigrid::{Coord, Dir};

struct TableAlgo<'a> {
    table: &'a [u8],
    overrides: &'a BTreeMap<u32, u8>,
}

impl Algorithm for TableAlgo<'_> {
    fn radius(&self) -> u32 {
        2
    }
    fn compute(&self, view: &View) -> Option<Dir> {
        let bits = view.bits() as u32;
        let code = self.overrides.get(&bits).copied().unwrap_or(self.table[bits as usize]);
        rules::decode_decision(code)
    }
    fn name(&self) -> &str {
        "table+overrides"
    }
}

struct VerifyOutcome {
    gathered: usize,
    bad: usize,
    /// canonical stuck final configuration -> number of classes ending there
    clusters: HashMap<Configuration, usize>,
}

fn verify(classes: &[Vec<Coord>], table: &[u8], overrides: &BTreeMap<u32, u8>) -> VerifyOutcome {
    let algo = TableAlgo { table, overrides };
    let limits = Limits::default();
    let results = parallel::par_map(classes, 0, |cells| {
        let initial = Configuration::new(cells.iter().copied());
        let ex = engine::run(&initial, &algo, limits);
        (ex.outcome, ex.final_config)
    });
    let mut out = VerifyOutcome { gathered: 0, bad: 0, clusters: HashMap::new() };
    for (outcome, final_config) in results {
        match outcome {
            Outcome::Gathered { .. } => out.gathered += 1,
            Outcome::StuckFixpoint { .. } => {
                *out.clusters.entry(final_config.canonical()).or_default() += 1;
            }
            _ => out.bad += 1,
        }
    }
    out
}

/// Candidate directions for a stranded robot, most promising first:
/// its base's completion candidates, then the remaining non-west
/// directions in entry-priority order.
fn candidate_dirs(v: &View) -> Vec<Dir> {
    let mut dirs: Vec<Dir> = completion::candidates(gathering::base::determine(v)).to_vec();
    for d in [Dir::E, Dir::NE, Dir::SE, Dir::SW, Dir::NW] {
        if !dirs.contains(&d) {
            dirs.push(d);
        }
    }
    dirs
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "crates/core/src/overrides.rs".to_string());

    eprintln!("building base decision table (printed + fixes + completion)...");
    let base_table = table::full_table(RuleOptions::VERIFIED);
    let classes = polyhex::enumerate_fixed(7);
    let mut overrides: BTreeMap<u32, u8> = BTreeMap::new();

    let mut round = 0usize;
    loop {
        round += 1;
        let res = verify(&classes, &base_table, &overrides);
        let stuck: usize = res.clusters.values().sum();
        eprintln!(
            "pass {round}: gathered {}/{} | stuck {} in {} clusters | bad {} | overrides {}",
            res.gathered,
            classes.len(),
            stuck,
            res.clusters.len(),
            res.bad,
            overrides.len()
        );
        assert_eq!(res.bad, 0, "base rules must be safe before synthesis");
        if stuck == 0 {
            break;
        }

        // Try candidates from the biggest clusters first.
        let mut ordered: Vec<(&Configuration, &usize)> = res.clusters.iter().collect();
        ordered.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.positions().cmp(b.0.positions())));

        let mut accepted = false;
        'search: for (final_cfg, _) in ordered {
            for &p in final_cfg.positions() {
                let v = View::observe(final_cfg, p, 2);
                let bits = v.bits() as u32;
                if overrides.contains_key(&bits) {
                    continue; // already overridden: its verdict stands
                }
                for d in candidate_dirs(&v) {
                    if !v.is_empty_node(d.delta()) || !connectivity_safe(&v, d) {
                        continue;
                    }
                    overrides.insert(bits, rules::encode_decision(Some(d)));
                    let trial = verify(&classes, &base_table, &overrides);
                    if trial.bad == 0 && trial.gathered > res.gathered {
                        eprintln!(
                            "  + override view {bits:#07x} -> {d:?} (gathered {} -> {})",
                            res.gathered, trial.gathered
                        );
                        accepted = true;
                        break 'search;
                    }
                    overrides.remove(&bits);
                }
            }
        }
        if !accepted {
            eprintln!("no single-view override improves further; stopping");
            break;
        }
    }

    // Emit the overrides module.
    let mut body = String::from(
        "//! Synthesized per-view move overrides — the recovered \"omitted\n\
         //! behaviors\" of the paper's Algorithm 1.\n\
         //!\n\
         //! **Auto-generated by `cargo run --release -p simlab --bin synthesize`;\n\
         //! do not edit by hand.** Each entry is `(view_bits, decision)` where\n\
         //! `view_bits` indexes the 18-bit radius-2 view (see\n\
         //! `robots::view::labels`) and `decision` is encoded by\n\
         //! `gathering::rules::encode_decision`. Every entry was accepted by the\n\
         //! synthesizer only after a full exhaustive re-verification over all\n\
         //! 3652 connected initial classes showed strictly more gathering classes\n\
         //! and zero collisions, disconnections and livelocks.\n\n\
         /// The synthesized overrides, strictly sorted by view bits.\n\
         pub const OVERRIDES: &[(u32, u8)] = &[\n",
    );
    for (bits, code) in &overrides {
        body.push_str(&format!("    ({bits:#07x}, {code}),\n"));
    }
    body.push_str("];\n");
    std::fs::write(&out_path, body).expect("write overrides module");
    eprintln!("wrote {} overrides to {out_path}", overrides.len());
    eprintln!(
        "now regenerate the compiled decision table: cargo test --release -p gathering \
         --test verified_table -- --ignored regen_verified_table"
    );
}
