//! Regenerates and prints every measured experiment table as markdown.
//!
//! ```text
//! cargo run --release -p simlab --bin experiments [-- --skip-slow]
//! ```

use simlab::experiments as exp;

fn main() {
    let skip_slow = std::env::args().any(|a| a == "--skip-slow");
    let mut results = vec![
        exp::e1_exhaustive_verification(0),
        exp::e2_rules_ablation(0),
        exp::e5_enumeration(),
        exp::e8_steps_distribution(0),
        exp::e8b_rounds_by_diameter(0),
    ];
    if !skip_slow {
        results.push(exp::e9_schedulers(0));
        results.push(exp::e11_other_robot_counts(0));
        results.push(exp::e12_relaxed_connectivity(0));
        results.push(exp::e13_async(0));
    }
    for r in results {
        println!("## {} — {}\n\n{}\n", r.id, r.title, r.body);
    }
}
