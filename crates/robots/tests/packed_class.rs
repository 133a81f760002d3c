//! Property-based pins for the packed translation-class keys: the
//! `Configuration` ↔ `u128` encoding is a lossless roundtrip on
//! canonical configurations, `canonical_key()` agrees with the
//! materializing `canonical().pack()` path on arbitrary translates of
//! random connected polyhexes, and key equality is exactly class
//! equality: every enumerated class space maps to as many distinct
//! keys as it has classes.

use proptest::prelude::*;
use robots::visited::{ClassMap, ClassSet, FlatKeyIndex};
use robots::{Configuration, PackedClass};
use trigrid::{Coord, Dir};

/// Grows a connected configuration from the origin, one robot per
/// choice (deterministic given the choice list) — the same random
/// connected-polyhex generator the crash-model proptests use.
fn grow_connected(choices: &[(usize, usize)]) -> Configuration {
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

/// Strategy: a connected configuration of exactly `n` robots.
fn connected_config(n: usize) -> impl Strategy<Value = Configuration> {
    proptest::collection::vec((0usize..64, 0usize..6), n - 1)
        .prop_map(move |choices| grow_connected(&choices))
}

/// Strategy: a connected configuration of any supported robot count
/// (2..=[`PackedClass::MAX_ROBOTS`]). The shim's vectors are
/// fixed-length, so a maximal choice list is generated and the first
/// `n - 1` choices used.
fn any_supported_config() -> impl Strategy<Value = Configuration> {
    (
        2usize..PackedClass::MAX_ROBOTS + 1,
        proptest::collection::vec((0usize..64, 0usize..6), PackedClass::MAX_ROBOTS - 1),
    )
        .prop_map(|(n, choices)| grow_connected(&choices[..n - 1]))
}

/// Strategy: a lattice translation vector (x + y even).
fn delta() -> impl Strategy<Value = Coord> {
    (-20i32..20, -10i32..10).prop_map(|(h, y)| Coord::new(2 * h + (y & 1), y))
}

proptest! {
    #[test]
    fn pack_unpack_roundtrips_canonical_configurations(
        cfg in connected_config(7),
        d in delta(),
    ) {
        let canonical = cfg.translate(d).canonical();
        prop_assert_eq!(canonical.pack().unpack(), canonical.clone());
        prop_assert_eq!(canonical.pack().robots(), canonical.len());
    }

    #[test]
    fn canonical_key_equals_canonical_then_pack(
        cfg in connected_config(7),
        d in delta(),
    ) {
        let translated = cfg.translate(d);
        prop_assert_eq!(translated.canonical_key(), translated.canonical().pack());
        // The key names the translation class: every translate agrees.
        prop_assert_eq!(translated.canonical_key(), cfg.canonical_key());
    }

    #[test]
    fn key_equality_is_class_equality(
        a in connected_config(6),
        b in connected_config(6),
    ) {
        prop_assert_eq!(
            a.canonical_key() == b.canonical_key(),
            a.canonical() == b.canonical(),
            "packed keys must induce exactly the translation-class partition"
        );
    }

    #[test]
    fn pack_unpack_roundtrips_at_every_supported_count(
        cfg in any_supported_config(),
        d in delta(),
    ) {
        let canonical = cfg.translate(d).canonical();
        prop_assert_eq!(canonical.pack().unpack(), canonical.clone());
        prop_assert_eq!(canonical.pack().robots(), canonical.len());
        prop_assert_eq!(cfg.translate(d).canonical_key(), canonical.pack());
    }

    #[test]
    fn key_partition_is_class_partition_at_every_supported_count(
        a in any_supported_config(),
        b in any_supported_config(),
    ) {
        // Covers mixed robot counts too: keys of different-size
        // classes must never collide (the packed length prefix).
        prop_assert_eq!(
            a.canonical_key() == b.canonical_key(),
            a.canonical() == b.canonical(),
            "packed keys must induce exactly the translation-class partition"
        );
    }

    #[test]
    fn of_cells_matches_the_configuration_path(cfg in connected_config(5), d in delta()) {
        let translated = cfg.translate(d);
        prop_assert_eq!(
            PackedClass::of_cells(translated.positions()),
            translated.canonical_key()
        );
    }

    #[test]
    fn class_set_and_map_agree_on_interning(
        cfg in connected_config(7),
        d in delta(),
    ) {
        let translated = cfg.translate(d);
        let mut set = ClassSet::new();
        prop_assert!(set.insert(&cfg));
        prop_assert!(!set.insert(&translated));
        prop_assert!(set.contains(&translated));

        let mut map: ClassMap<u32> = ClassMap::new();
        prop_assert_eq!(map.insert(&cfg, 1), None);
        prop_assert_eq!(map.insert(&translated, 2), Some(1));
        prop_assert_eq!(map.get_key(translated.canonical_key()), Some(&2));
    }
}

/// Exhaustive pin on the full enumerated space: the 3652 seven-robot
/// classes map to 3652 distinct keys, every one of which roundtrips.
#[test]
fn all_seven_robot_classes_have_distinct_roundtripping_keys() {
    let mut keys = FlatKeyIndex::new();
    for cells in polyhex::enumerate_fixed(7) {
        let cfg = Configuration::new(cells);
        let key = cfg.canonical_key();
        assert_eq!(key.unpack(), cfg, "enumerated classes are canonical already");
        let (_, new) = keys.insert_full(key.bits());
        assert!(new, "distinct classes must intern to distinct keys: {cfg:?}");
    }
    assert_eq!(keys.len(), 3652);
}

/// The same exhaustive pin across every class space the sweeps cover
/// up to n = 8 (OEIS A001207): per-n key counts equal class counts,
/// so the key partition is exactly the class partition on each space.
#[test]
fn enumerated_classes_have_distinct_keys_per_count() {
    for (n, expected) in [(2, 3usize), (3, 11), (4, 44), (5, 186), (6, 814), (8, 16_689)] {
        let mut keys = FlatKeyIndex::new();
        for cells in polyhex::enumerate_fixed(n) {
            let cfg = Configuration::new(cells);
            let key = cfg.canonical_key();
            assert_eq!(key.unpack(), cfg, "n={n}: enumerated classes are canonical already");
            let (_, new) = keys.insert_full(key.bits());
            assert!(new, "n={n}: distinct classes must intern to distinct keys: {cfg:?}");
        }
        assert_eq!(keys.len(), expected, "n={n}");
    }
}
