//! Pins the committed decision table of the verified algorithm
//! (`crates/core/src/verified.table`) and re-derives it from the rules.
//!
//! The debug tier checks the bytes themselves: length, digest, the
//! decision histogram, the synthesized overrides and the no-west
//! invariant, plus agreement with `SevenGather::verified()` on every
//! view. The release tier regenerates the table from `rules` +
//! `completion` + `overrides` and compares byte for byte, so a rule or
//! override edit without a regenerated table fails here, by name.

use gathering::rules::{self, RuleOptions};
use gathering::{overrides, table, SevenGather};
use robots::adversary::Fnv64;
use robots::{Algorithm, View};
use trigrid::Dir;

/// FNV-1a-64 of the committed table.
const DIGEST: u64 = 0x0f6d_172a_ba7f_e1a0;

/// How many views decide each encoded decision: stay, then E, NE, NW,
/// W, SW, SE (`1 + Dir::index()`).
const HISTOGRAM: [usize; 7] = [213_407, 39_116, 4_867, 753, 0, 752, 3_249];

const REGEN: &str =
    "cargo test --release -p gathering --test verified_table -- --ignored regen_verified_table";

/// The table as the rules generate it: every view evaluated under
/// `RuleOptions::VERIFIED`, then the synthesized overrides.
fn derive() -> Vec<u8> {
    let mut derived = table::full_table(RuleOptions::VERIFIED);
    table::apply_overrides(&mut derived);
    derived
}

#[test]
fn table_has_the_pinned_length_digest_and_histogram() {
    assert_eq!(table::VERIFIED.len(), 1 << 18);
    let mut h = Fnv64::new();
    h.write_all(table::VERIFIED);
    assert_eq!(h.finish(), DIGEST, "verified.table changed; regenerate it with `{REGEN}`");
    let mut histogram = [0usize; 7];
    for &code in table::VERIFIED {
        histogram[usize::from(code)] += 1;
    }
    assert_eq!(histogram, HISTOGRAM);
}

#[test]
fn every_override_view_holds_its_override() {
    for &(bits, code) in overrides::OVERRIDES {
        assert_eq!(table::VERIFIED[bits as usize], code, "override view {bits:#x}");
    }
}

#[test]
fn no_view_moves_west() {
    // The collision-freedom argument (east node of a target never
    // competes) rests on this global invariant.
    for (bits, &code) in table::VERIFIED.iter().enumerate() {
        assert_ne!(rules::decode_decision(code), Some(Dir::W), "view {bits:#x} moves west");
    }
}

#[test]
fn the_algorithm_object_decides_by_the_table_on_every_view() {
    let algo = SevenGather::verified();
    for bits in 0..(1u64 << 18) {
        let decision = algo.compute(&View::from_bits(2, bits));
        assert_eq!(decision, rules::decode_decision(table::VERIFIED[bits as usize]), "{bits:#x}");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "evaluates the rules on all 2^18 views; release-only")]
fn rules_and_overrides_regenerate_the_committed_table() {
    let derived = derive();
    if let Some(view) = derived.iter().zip(table::VERIFIED.iter()).position(|(a, b)| a != b) {
        panic!(
            "the rules no longer generate verified.table (first difference at view {view:#x}); \
             regenerate it with `{REGEN}`"
        );
    }
}

/// Not a test: rewrites `src/verified.table` from the rules and the
/// overrides. Run explicitly after an intentional rule or override
/// change, then update `DIGEST` and `HISTOGRAM` above.
#[test]
#[ignore = "table regeneration helper; run explicitly with --ignored"]
fn regen_verified_table() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/verified.table");
    std::fs::write(&path, derive()).expect("write verified.table");
}
