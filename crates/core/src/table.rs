//! Table form of the decision function, plus the synthesized overrides.
//!
//! A radius-2 view is 18 bits, so the whole algorithm is a function
//! `[u8; 2^18]` (encoded with [`crate::rules::encode_decision`]). The
//! verified algorithm ships in exactly that form: [`VERIFIED`] is a
//! committed 262144-byte file compiled into the crate, and
//! `SevenGather::verified()` decides by one indexed load. The rule code
//! is its specification and generator: [`full_table`] evaluates the
//! rules on every view and [`apply_overrides`] adds the synthesized
//! overrides, and `tests/verified_table.rs` pins the file's digest and
//! re-derives it byte for byte.
//!
//! The overrides are the paper's omitted "several robot behaviors",
//! recovered the way the authors validated their algorithm, by
//! exhaustive simulation: a synthesizer (`simlab`'s `synthesize`
//! binary) proposes per-view move overrides for robots stranded in
//! stuck fixpoints and keeps an override only if full re-verification
//! strictly increases the number of gathering classes while keeping
//! zero collisions, disconnections and livelocks. The accepted
//! overrides are checked in as [`crate::overrides::OVERRIDES`]; a
//! change to them or to the rules needs the table regenerated:
//!
//! ```text
//! cargo test --release -p gathering --test verified_table -- --ignored regen_verified_table
//! ```

use crate::rules::{self, RuleOptions};
use robots::View;

/// Number of distinct radius-2 views.
pub const VIEWS: usize = 1 << 18;

/// The decision table of the *verified* algorithm: byte `i` is the
/// encoded decision for view bits `i` — [`full_table`] of
/// [`RuleOptions::VERIFIED`] plus [`apply_overrides`]. The array type
/// rejects a file of the wrong length at compile time.
pub static VERIFIED: &[u8; VIEWS] = include_bytes!("verified.table");

/// Builds the full decision table for the given rule options (printed
/// rules, vetoes and completion — everything except the synthesized
/// overrides) by evaluating the rules on every view.
#[must_use]
pub fn full_table(opts: RuleOptions) -> Vec<u8> {
    (0..VIEWS as u64)
        .map(|bits| rules::encode_decision(rules::compute(&View::from_bits(2, bits), opts)))
        .collect()
}

/// Applies the synthesized overrides to a decision table in place.
pub fn apply_overrides(table: &mut [u8]) {
    for &(view, decision) in crate::overrides::OVERRIDES {
        table[view as usize] = decision;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trigrid::{Coord, Dir};

    #[test]
    fn table_matches_direct_evaluation_on_samples() {
        let opts = RuleOptions::PAPER;
        let table = full_table(opts);
        // Spot-check a spread of views.
        for bits in (0..VIEWS as u64).step_by(4097) {
            let v = View::from_bits(2, bits);
            assert_eq!(
                rules::decode_decision(table[bits as usize]),
                rules::compute(&v, opts),
                "view {bits:#x}"
            );
        }
    }

    #[test]
    fn verified_table_has_movement() {
        // The all-west-line view must produce the line-8 NE move: robots
        // at (2,0) and (4,0) (the westmost robot of a 3+-line).
        let v = View::from_labels(2, &[Coord::new(2, 0), Coord::new(4, 0)]);
        assert_eq!(
            rules::decode_decision(VERIFIED[v.bits() as usize]),
            Some(Dir::NE),
            "west tail climbs NE (line 8)"
        );
    }

    #[test]
    fn overrides_are_sorted_and_unique() {
        let o = crate::overrides::OVERRIDES;
        for w in o.windows(2) {
            assert!(w[0].0 < w[1].0, "overrides must be strictly sorted by view bits");
        }
        for &(view, decision) in o {
            assert!((view as usize) < VIEWS);
            assert!(decision <= 6, "decision must encode stay or one of six directions");
        }
    }
}
