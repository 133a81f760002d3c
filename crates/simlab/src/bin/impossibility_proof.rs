//! Runs the Theorem 1 machine proof (experiment E3).
//!
//! ```text
//! cargo run --release -p simlab --bin impossibility_proof [-- --budget N] [--symmetric]
//! ```
//!
//! Each CEGIS round first hunts a satisfying rule table with a
//! sequential DFS of at most `--budget` nodes (default 50,000,000), then
//! switches to the parallel exhaustive search. `--budget 0` goes
//! straight to the parallel search; `--budget 18446744073709551615`
//! (`u64::MAX`) never leaves the sequential hunt.
//!
//! `--symmetric` proves the restricted statement (no **mirror-symmetric**
//! visibility-1 algorithm exists) — it completes in microseconds because
//! a mirror-symmetric rule set confines the x-axis-aligned line to its
//! own row (only stay/E/W are mirror-fixed actions), so the hexagon can
//! never form. The unrestricted proof explores the full 7^64 table space
//! and can run for a long time.
//!
//! Any other argument, or a missing or non-numeric budget, prints the
//! usage to stderr and exits 2 before anything runs.

use impossibility::Symmetry;

/// The command line, parsed.
#[derive(Debug, PartialEq)]
struct Args {
    /// `--budget N`: DFS nodes of each round's sequential SAT hunt.
    budget: u64,
    /// [`Symmetry::Mirror`] if `--symmetric` was given.
    symmetry: Symmetry,
}

/// Parses the arguments; `Err` says why the first bad one is rejected.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { budget: 50_000_000, symmetry: Symmetry::None };
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--symmetric" => parsed.symmetry = Symmetry::Mirror,
            "--budget" => {
                let value = rest.next().ok_or("--budget takes a value")?;
                parsed.budget =
                    value.parse().map_err(|_| format!("--budget takes a number, not {value:?}"))?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// Prints `msg` and the usage to stderr, and exits with the usage code 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: impossibility_proof [--budget N] [--symmetric]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&args).unwrap_or_else(|msg| usage_error(&msg));

    let start = std::time::Instant::now();
    let cert = impossibility::prove_impossibility(args.symmetry, args.budget, true);
    let elapsed = start.elapsed();
    match args.symmetry {
        Symmetry::Mirror => println!(
            "RESTRICTED THEOREM 1 VERIFIED: no mirror-symmetric visibility-1 algorithm\n\
             gathers all connected classes (symmetric rules confine the x-axis line to its row)"
        ),
        Symmetry::None => {
            println!("THEOREM 1 VERIFIED: no visibility-1 algorithm gathers all connected classes")
        }
    }
    println!(
        "core classes: {} | CEGIS rounds: {} | DFS nodes: {} | simulations: {} | max depth: {} | {:.2?}",
        cert.core_classes.len(),
        cert.cegis_rounds,
        cert.stats.nodes,
        cert.stats.simulations,
        cert.stats.max_depth,
        elapsed
    );
    for (i, c) in cert.core_classes.iter().enumerate() {
        println!("core class {i}: {:?}", c.positions());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_mode_and_the_budget() {
        let plain = parse_args(&argv(&[])).expect("empty invocation");
        assert_eq!(plain, Args { budget: 50_000_000, symmetry: Symmetry::None });
        let both = parse_args(&argv(&["--budget", "0", "--symmetric"])).expect("valid invocation");
        assert_eq!(both, Args { budget: 0, symmetry: Symmetry::Mirror });
        let unbounded = parse_args(&argv(&["--budget", "18446744073709551615"]));
        assert_eq!(unbounded.map(|a| a.budget), Ok(u64::MAX));
    }

    #[test]
    fn rejects_unknown_arguments_and_bad_budgets() {
        let err = |args: &[&str]| parse_args(&argv(args)).unwrap_err();
        assert!(err(&["--budget", "abc", "--symetric"]).contains("--budget takes a number"));
        assert!(err(&["--symetric"]).contains("unknown argument"));
        assert!(err(&["--budget"]).contains("takes a value"));
        assert!(err(&["--budget", "-1"]).contains("takes a number"));
        assert!(err(&["--full"]).contains("unknown argument"));
    }
}
