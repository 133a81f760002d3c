//! A naive baseline: eastward compaction *without* the paper's guards.
//!
//! The paper has no algorithmic baseline (its contribution is the first
//! algorithm for this setting), but the guards of Algorithm 1 are its
//! entire technical substance. This baseline keeps the base-node idea
//! and the movement preferences but drops every collision/connectivity
//! guard; experiment E2's ablation table and
//! `baseline::tests::baseline_fails_on_some_configuration` use it to
//! demonstrate that the guards are load-bearing (it collides or
//! livelocks on many of the 3652 initial configurations).

use crate::base::{determine, BaseDecision};
use robots::{Algorithm, View};
use trigrid::{Coord, Dir};

/// Guard-free eastward compaction (see module docs).
pub struct GreedyEast;

impl Algorithm for GreedyEast {
    fn radius(&self) -> u32 {
        2
    }

    fn compute(&self, v: &View) -> Option<Dir> {
        let far_base = match determine(v) {
            BaseDecision::Base(b) if b.x_element() >= 2 && b != Coord::new(2, 0) => true,
            BaseDecision::VirtualEast => true,
            BaseDecision::SelfPromotion => return Some(Dir::E),
            _ => false,
        };
        if !far_base {
            return None;
        }
        // Move to the first empty node among E, NE, SE — the ordinal
        // preference of Fig. 50 — with no safety guards at all.
        [Dir::E, Dir::NE, Dir::SE].into_iter().find(|&d| v.is_empty_node(d.delta()))
    }

    fn name(&self) -> &str {
        "greedy-east-baseline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robots::{engine, Configuration, Limits, Outcome};
    use trigrid::ORIGIN;

    #[test]
    fn baseline_destroys_even_the_gathered_hexagon() {
        // Without the guards the NW petal still sees a "far" base and
        // walks out of the hexagon: the gathered configuration is not
        // even a fixpoint. This is exactly why Algorithm 1's stay
        // conditions (line 31) matter.
        let h = robots::hexagon(ORIGIN);
        let moves = engine::compute_moves(&h, &GreedyEast);
        assert!(moves.iter().any(Option::is_some), "some robot leaves the hexagon");
        let ex = engine::run(&h, &GreedyEast, Limits::default());
        assert_ne!(ex.outcome, Outcome::Gathered { rounds: 0 });
    }

    #[test]
    fn baseline_fails_on_some_configuration() {
        // The guards exist for a reason: without them some connected
        // 7-robot configuration collides, disconnects or livelocks.
        let mut failed = false;
        polyhex::for_each_fixed(7, |cells| {
            if failed {
                return;
            }
            let cfg = Configuration::new(cells.iter().copied());
            let ex = engine::run(&cfg, &GreedyEast, Limits::default());
            if !ex.outcome.is_gathered() {
                failed = true;
            }
        });
        assert!(failed, "guard-free compaction should not solve every configuration");
    }
}
