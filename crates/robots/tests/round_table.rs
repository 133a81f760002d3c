//! Property tests of the per-class round table against the scalar
//! engine, across the whole parameterized robot range n ∈ 2..=10.
//!
//! The crash-semantics explorer reads every activation's step from
//! [`engine::RoundTable`] (the scalar engine is only consulted to
//! materialize refutation reports), so the table's agreement with an
//! independent route — `engine::step_moves` plus
//! `Configuration::canonical` — is load-bearing for every verdict and
//! digest the sweeps pin. These tests pin it over random configurations
//! and random move assignments, exhaustively over all activation
//! subsets of each instance.

use proptest::prelude::*;
use robots::engine::{self, RoundKind};
use robots::Configuration;
use trigrid::Dir;

/// A connected configuration of `choices.len() + 1` robots grown from
/// the origin (deterministic given the choice list).
fn connected_config(choices: &[(usize, usize)]) -> Configuration {
    let mut cells = vec![trigrid::ORIGIN];
    for &(anchor_raw, dir_raw) in choices {
        for probe in 0..cells.len() {
            let anchor = cells[(anchor_raw + probe) % cells.len()];
            let mut done = false;
            for k in 0..6 {
                let cand = anchor.step(Dir::from_index(dir_raw + k));
                if !cells.contains(&cand) {
                    cells.push(cand);
                    done = true;
                    break;
                }
            }
            if done {
                break;
            }
        }
    }
    Configuration::new(cells)
}

/// Strategy: an instance of n ∈ 2..=10 robots with a random per-slot
/// move assignment (0 = stay, 1..=6 = the six grid directions).
fn instance() -> impl Strategy<Value = (Configuration, Vec<Option<Dir>>)> {
    (
        2usize..11,
        proptest::collection::vec((0usize..64, 0usize..6), 9),
        proptest::collection::vec(0usize..7, 10),
    )
        .prop_map(|(n, choices, codes)| {
            let cfg = connected_config(&choices[..n - 1]);
            let moves: Vec<Option<Dir>> =
                codes[..n].iter().map(|&c| (c != 0).then(|| Dir::from_index(c - 1))).collect();
            (cfg, moves)
        })
}

/// The slots with a move decision.
fn movers(moves: &[Option<Dir>]) -> u16 {
    (0..moves.len()).filter(|&i| moves[i].is_some()).fold(0, |acc, i| acc | 1 << i)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn entries_are_the_nonzero_mover_submasks_ascending((cfg, moves) in instance()) {
        let movers = movers(&moves);
        let table = engine::RoundTable::new(&cfg, &moves);
        let masks: Vec<u16> = table.entries().iter().map(|e| e.mask).collect();
        let want: Vec<u16> = (1..=movers).filter(|m| m & !movers == 0).collect();
        prop_assert_eq!(masks, want);
    }

    #[test]
    fn entries_match_the_scalar_step((cfg, moves) in instance()) {
        let n = cfg.len();
        let table = engine::RoundTable::new(&cfg, &moves);
        for entry in table.entries() {
            let act = entry.mask;
            let masked: Vec<Option<Dir>> = (0..n)
                .map(|i| if act & (1 << i) != 0 { moves[i] } else { None })
                .collect();
            let next = match engine::step_moves(&cfg, &masked) {
                Err(_) => {
                    prop_assert_eq!(entry.kind, RoundKind::Collides, "n={} act={:#b}", n, act);
                    continue;
                }
                Ok(round) => round.config,
            };
            prop_assert!(entry.kind != RoundKind::Collides, "n={} act={:#b}", n, act);
            prop_assert_eq!(
                entry.kind == RoundKind::Disconnects,
                !next.is_connected(),
                "n={} act={:#b}: connectivity answers diverged",
                n,
                act
            );
            if entry.kind != RoundKind::Succ {
                continue;
            }
            prop_assert_eq!(entry.key.unpack(), next.canonical(), "n={} act={:#b}", n, act);
            for (i, (&p, m)) in cfg.positions().iter().zip(&masked).enumerate() {
                let end = m.map_or(p, |d| p.step(d));
                prop_assert_eq!(
                    next.positions()[entry.slot(i)],
                    end,
                    "n={} act={:#b}: robot {} landed in the wrong slot",
                    n,
                    act,
                    i
                );
            }
        }
    }
}
