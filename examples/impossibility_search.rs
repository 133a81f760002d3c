//! Experiment E4: Theorem 1 — visibility range 1 is not enough.
//!
//! Replays the paper's §III proof witnesses mechanically (fast). The
//! complete machine proof (experiment E3: the exhaustive CEGIS search
//! over every visibility-1 rule table — minutes to hours) is the
//! `impossibility_proof` binary.
//!
//! ```text
//! cargo run --release --example impossibility_search
//! cargo run --release -p simlab --bin impossibility_proof [-- --budget N] [--symmetric]
//! ```
//!
//! It takes no arguments: any argument (such as the old `--full`)
//! prints where the machine proof is and exits 2.

use impossibility::replay;

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: impossibility_search (no arguments; the machine proof is the impossibility_proof binary)");
        std::process::exit(2);
    }
    println!("== mechanical replay of the paper's §III witnesses ==\n");

    let base = replay::base_hypothesis();
    println!("base hypothesis (w.l.o.g.): a robot seeing only SE moves SW\n");
    for (name, claim) in replay::proposition1_claims() {
        match replay::collision_witness(base, claim, 7) {
            Some(w) => {
                println!("Proposition 1 {name}: collision witness found ✓");
                print!("{}", simlab::render::render(&w));
            }
            None => println!("Proposition 1 {name}: NO witness — check the claim!"),
        }
    }

    for (fig, rules) in [
        ("Fig. 12 (Case 2-1)", replay::case_2_1_rules()),
        ("Fig. 13 (Case 2-2)", replay::case_2_2_rules()),
    ] {
        match replay::livelock_witness(&rules) {
            Some((cfg, period)) => {
                println!("{fig}: livelock with period {period} from:");
                print!("{}", simlab::render::render(&cfg));
            }
            None => println!("{fig}: no livelock found — check the rules!"),
        }
    }

    println!(
        "\n(the complete machine proof: cargo run --release -p simlab --bin impossibility_proof)"
    );
}
