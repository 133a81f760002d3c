//! Property-based parity pins for the flat open-addressed interning
//! table ([`FlatKeyIndex`]) against a reference `HashMap` model: every
//! insert/get sequence must agree with the model on membership, on the
//! returned dense ids, and on the new/known flag — and ids must be
//! assigned in insertion order (the digest-stability invariant the
//! explorer's state numbering rests on). The configuration-keyed
//! wrappers ([`ClassMap`], [`ClassSet`]) are pinned at every supported
//! robot count, and the unpacked-key fallback path of [`ClassMap`] is
//! exercised with beyond-window configurations.

use proptest::prelude::*;
use robots::visited::{ClassMap, ClassSet, FlatKeyIndex};
use robots::{Configuration, PackedClass};
use std::collections::HashMap;
use trigrid::Dir;

/// Grows a connected configuration from the origin, one robot per
/// choice (deterministic given the choice list) — the same random
/// connected-polyhex generator the packed-key proptests use.
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

/// Strategy: a batch of keys with deliberate collisions — half the
/// draws come from a tiny dense domain (forcing duplicate inserts and
/// adjacent probe chains), half are arbitrary wide words.
fn key_batch() -> impl Strategy<Value = Vec<u128>> {
    proptest::collection::vec((0u64..2, 0u64..64, 0u64..u64::MAX), 200).prop_map(|draws| {
        draws
            .into_iter()
            .map(
                |(tag, small, wide)| {
                    if tag == 0 {
                        u128::from(small) << 7
                    } else {
                        u128::from(wide)
                    }
                },
            )
            .collect()
    })
}

proptest! {
    /// Interleaved `insert_full`/`get` agree with a `HashMap` model,
    /// and dense ids are exactly the first-insertion order.
    #[test]
    fn flat_index_matches_hashmap_model(keys in key_batch()) {
        let mut flat = FlatKeyIndex::new();
        let mut model: HashMap<u128, u32> = HashMap::new();
        let mut order: Vec<u128> = Vec::new();
        for &key in &keys {
            prop_assert_eq!(flat.get(key), model.get(&key).copied());
            let (id, new) = flat.insert_full(key);
            match model.get(&key) {
                Some(&known) => {
                    prop_assert!(!new);
                    prop_assert_eq!(id, known);
                }
                None => {
                    prop_assert!(new);
                    prop_assert_eq!(id as usize, order.len(), "ids follow insertion order");
                    model.insert(key, id);
                    order.push(key);
                }
            }
        }
        prop_assert_eq!(flat.len(), model.len());
        // Every interned key answers with its original id afterwards.
        for (i, &key) in order.iter().enumerate() {
            prop_assert_eq!(flat.get(key), Some(i as u32));
        }
    }

    /// `clear()` resets the id space without perturbing parity: a
    /// cleared (pooled) table replays a fresh insertion history with
    /// identical ids.
    #[test]
    fn cleared_flat_index_replays_like_fresh(first in key_batch(), second in key_batch()) {
        let mut pooled = FlatKeyIndex::new();
        for &key in &first {
            pooled.insert_full(key);
        }
        pooled.clear();
        let mut fresh = FlatKeyIndex::new();
        for &key in &second {
            prop_assert_eq!(pooled.insert_full(key), fresh.insert_full(key));
            prop_assert_eq!(pooled.live_bytes(), fresh.live_bytes());
        }
    }

    /// [`ClassMap`] insert/get (including overwrites) agree with a
    /// key-level model, and [`ClassSet`] with the induced set.
    #[test]
    fn class_map_and_set_match_model(
        n in 2usize..PackedClass::MAX_ROBOTS + 1,
        entries in proptest::collection::vec(
            (
                proptest::collection::vec((0usize..64, 0usize..6), PackedClass::MAX_ROBOTS - 1),
                0u32..u32::MAX,
            ),
            24,
        ),
    ) {
        let mut map: ClassMap<u32> = ClassMap::new();
        let mut set = ClassSet::new();
        let mut model: HashMap<u128, u32> = HashMap::new();
        for (raw, value) in &entries {
            let cfg = grow_connected(&raw[..n - 1]);
            let key = cfg.canonical_key().bits();
            prop_assert_eq!(map.get(&cfg).copied(), model.get(&key).copied());
            let was_new = !model.contains_key(&key);
            prop_assert_eq!(map.insert(&cfg, *value), model.insert(key, *value));
            prop_assert_eq!(set.insert(&cfg), was_new);
            prop_assert!(set.contains(&cfg));
        }
        prop_assert_eq!(map.len(), model.len());
        prop_assert_eq!(set.len(), model.len());
    }
}

/// Beyond-window configurations (more robots than a packed key holds)
/// transparently use the unpacked-key fallback — and mix freely with
/// packed-path entries in one map.
#[test]
fn class_map_fallback_key_path_mixes_with_packed() {
    // 14 robots: no packed key exists, so this class must take the
    // wide fallback.
    let wide_choices: Vec<(usize, usize)> = (0..13).map(|i| (i * 3, i % 6)).collect();
    let wide = grow_connected(&wide_choices);
    assert!(wide.try_canonical_key().is_none(), "14 robots must exceed the packed window");
    let narrow = grow_connected(&[(0, 0), (1, 2), (2, 4)]);
    assert!(narrow.try_canonical_key().is_some());

    let mut map: ClassMap<&str> = ClassMap::new();
    assert_eq!(map.insert(&wide, "wide"), None);
    assert_eq!(map.insert(&narrow, "narrow"), None);
    assert_eq!(map.len(), 2);
    assert_eq!(map.get(&wide), Some(&"wide"));
    assert_eq!(map.get(&narrow), Some(&"narrow"));
    // Overwrites hand back the previous value on both paths.
    assert_eq!(map.insert(&wide, "wide2"), Some("wide"));
    assert_eq!(map.insert(&narrow, "narrow2"), Some("narrow"));
    assert_eq!(map.len(), 2);

    // A translated copy of the wide configuration is the same class.
    let shifted =
        Configuration::new(wide.positions().iter().map(|&p| p + trigrid::Coord::new(4, 2)));
    assert_eq!(map.get(&shifted), Some(&"wide2"));

    let mut set = ClassSet::new();
    assert!(set.insert(&wide));
    assert!(!set.insert(&shifted), "translates share one wide class");
    assert!(set.contains(&wide));
    assert_eq!(set.len(), 1);
}
