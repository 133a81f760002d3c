//! Memoized visited-sets over canonical configuration classes.
//!
//! Every component that walks the configuration space — the FSYNC
//! engine's livelock detector, the impossibility simulator, the
//! exploration checkers' class table — needs the same primitive: "have
//! I seen this translation class before?". These wrappers keep the
//! canonicalisation in one place so no caller can accidentally memoize
//! raw (translated) configurations, and they key on the bit-packed
//! [`PackedClass`] form: membership tests hash 16 bytes instead of a
//! `Vec<Coord>`, and no canonical configuration is ever materialized
//! on the lookup path.
//!
//! [`ClassMap`] and [`ClassSet`] (like the explorer's class table) are
//! built on [`FlatKeyIndex`], a flat open-addressed table that assigns
//! **insertion-order dense indices**: the k-th distinct key inserted
//! gets index k, exactly as the previous `HashMap`-backed arenas
//! assigned ids from a push counter. That invariant is what keeps
//! every committed verdict digest byte-identical across the storage
//! swap — ids are a pure function of the insertion sequence, never of
//! hash or probe order.

use crate::config::PackedClass;
use crate::Configuration;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A two-multiply finalizer over packed `u128` class keys. The packed
/// representation already spreads occupancy bits across the whole
/// word, so SipHash's collision-resistance buys nothing here — these
/// maps are keyed by data the checker itself canonicalised, not by
/// untrusted input — while its per-lookup cost is very visible on the
/// hot paths that look a key up per step. Map
/// iteration order is never observed (ids are assigned in insertion
/// order), so the hash function cannot affect any digest.
#[derive(Default)]
pub struct PackedKeyHasher(u64);

/// `BuildHasher` for [`PackedKeyHasher`]-keyed maps.
pub type PackedKeyHash = BuildHasherDefault<PackedKeyHasher>;

/// A `HashMap` keyed by packed class keys with the cheap finalizer.
pub type PackedKeyMap<V> = HashMap<u128, V, PackedKeyHash>;

/// The splitmix64-style avalanche shared by [`PackedKeyHasher`] and
/// [`FlatKeyIndex`]: fold the halves, then two multiplies. One
/// definition so the flat table and the legacy hasher can never drift.
#[inline]
fn mix_key(key: u128) -> u64 {
    let mut h = (key as u64) ^ ((key >> 64) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

impl Hasher for PackedKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Cold fallback for non-u128 keys (never hit by the class
        // maps): FNV-1a, correct if slow.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u128(&mut self, key: u128) {
        self.0 = mix_key(key);
    }
}

/// Sentinel for an unoccupied probe slot.
const EMPTY_SLOT: u32 = u32::MAX;

/// A flat open-addressed index over `u128` keys with linear probing
/// and **insertion-order dense indices**: the k-th distinct key gets
/// index k, so the dense side doubles as an id space and as parallel
/// storage addressing. Compared to `HashMap<u128, u32>` this is one
/// `u32` probe array plus one dense key array — no per-entry control
/// bytes, no (key, value) pair scatter — and `clear()` keeps both
/// allocations, which is what lets per-class searches stop paying the
/// allocator across the ~77k classes of a sweep cell.
///
/// There is deliberately no deletion: every user is an interning
/// workload (monotone insert/lookup), and tombstone-free linear
/// probing keeps the lookup loop three instructions wide.
#[derive(Debug, Default)]
pub struct FlatKeyIndex {
    /// Probe table: `slots[h & mask]` holds a dense index into `keys`
    /// or [`EMPTY_SLOT`]. Length is always a power of two (or zero
    /// before first insert).
    slots: Vec<u32>,
    /// Keys in insertion order; `keys[i]` is the key with dense
    /// index `i`.
    keys: Vec<u128>,
}

impl FlatKeyIndex {
    /// Smallest non-empty probe table (keeps tiny searches tiny).
    const MIN_SLOTS: usize = 16;

    /// An empty index. Allocates nothing until the first insert.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The dense index of `key`, if present.
    #[inline]
    #[must_use]
    pub fn get(&self, key: u128) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut slot = (mix_key(key) as usize) & mask;
        loop {
            let idx = self.slots[slot];
            if idx == EMPTY_SLOT {
                return None;
            }
            if self.keys[idx as usize] == key {
                return Some(idx);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Interns `key`: returns its dense index and whether it was new.
    /// New keys get the next insertion-order index.
    ///
    /// # Panics
    /// Panics past 2^32 − 1 distinct keys (the dense-id width).
    #[inline]
    pub fn insert_full(&mut self, key: u128) -> (u32, bool) {
        // Grow at 7/8 load, before probing, so the probe loop below
        // always terminates on an empty slot.
        if (self.keys.len() + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut slot = (mix_key(key) as usize) & mask;
        loop {
            let idx = self.slots[slot];
            if idx == EMPTY_SLOT {
                let id = u32::try_from(self.keys.len()).expect("fewer than 2^32 keys");
                assert!(id != EMPTY_SLOT, "fewer than 2^32 keys");
                self.slots[slot] = id;
                self.keys.push(key);
                return (id, true);
            }
            if self.keys[idx as usize] == key {
                return (idx, false);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Doubles the probe table and re-seats every dense index. Dense
    /// indices (and therefore ids) are untouched — only probe
    /// placement changes.
    #[cold]
    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).max(Self::MIN_SLOTS);
        self.slots.clear();
        self.slots.resize(new_len, EMPTY_SLOT);
        let mask = new_len - 1;
        for (i, &key) in self.keys.iter().enumerate() {
            let mut slot = (mix_key(key) as usize) & mask;
            while self.slots[slot] != EMPTY_SLOT {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = u32::try_from(i).expect("fewer than 2^32 keys");
        }
    }

    /// Number of distinct keys interned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no key has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Empties the index but keeps both allocations, so a pooled
    /// search can reuse the table without touching the allocator.
    pub fn clear(&mut self) {
        self.keys.clear();
        for s in &mut self.slots {
            *s = EMPTY_SLOT;
        }
    }

    /// Heap bytes currently reserved by the index (probe table plus
    /// dense key array capacity).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.slots.len() * size_of::<u32>() + self.keys.capacity() * size_of::<u128>()
    }

    /// Heap bytes *occupied* as a pure function of the key count:
    /// identical across capacity histories (pooled vs fresh storage),
    /// which is what lets byte budgets trip deterministically.
    #[must_use]
    pub fn live_bytes(&self) -> usize {
        // `slots.len()` is NOT usable here: `clear()` keeps the probe
        // table, so a pooled index can be wider than a fresh one with
        // the same key count. Recompute the size a fresh table of
        // `len()` keys would have under the load-factor rule instead.
        Self::nominal_live_bytes(self.keys.len())
    }

    /// [`Self::live_bytes`] of an index holding `len` keys.
    pub(crate) fn nominal_live_bytes(len: usize) -> usize {
        Self::nominal_slots(len) * size_of::<u32>() + len * size_of::<u128>()
    }

    /// Probe-table length a fresh index holding `len` keys would have:
    /// the smallest power of two `s >= MIN_SLOTS` with `len * 8 <= s * 7`.
    fn nominal_slots(len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        let mut s = Self::MIN_SLOTS;
        while len * 8 > s * 7 {
            s *= 2;
        }
        s
    }
}

/// A set of translation classes of configurations.
#[derive(Default, Debug)]
pub struct ClassSet {
    map: ClassMap<()>,
}

impl ClassSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts the class of `cfg`; returns `true` if it was new.
    pub fn insert(&mut self, cfg: &Configuration) -> bool {
        self.map.insert(cfg, ()).is_none()
    }

    /// Whether the class of `cfg` is present.
    #[must_use]
    pub fn contains(&self, cfg: &Configuration) -> bool {
        self.map.get(cfg).is_some()
    }

    /// Number of distinct classes inserted.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no class has been inserted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// A map keyed by translation classes of configurations, stored as
/// packed `u128` class keys in a [`FlatKeyIndex`] with a dense value
/// column. Configurations beyond the packable window (more than
/// [`PackedClass::MAX_ROBOTS`] robots, or a huge diameter)
/// transparently fall back to unpacked canonical keys, so the map's
/// domain is unrestricted — only its hot path assumes the window.
#[derive(Debug)]
pub struct ClassMap<V> {
    index: FlatKeyIndex,
    /// Dense value column: `vals[i]` belongs to the key with dense
    /// index `i` in `index`.
    vals: Vec<V>,
    /// Fallback for classes that do not fit a packed key; empty in
    /// every checker workload.
    wide: HashMap<Configuration, V>,
}

impl<V> Default for ClassMap<V> {
    fn default() -> Self {
        ClassMap { index: FlatKeyIndex::new(), vals: Vec::new(), wide: HashMap::new() }
    }
}

impl<V> ClassMap<V> {
    /// An empty map.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `value` under the class of `cfg`, returning the previous
    /// value for that class if any.
    pub fn insert(&mut self, cfg: &Configuration, value: V) -> Option<V> {
        match cfg.try_canonical_key() {
            Some(key) => self.insert_key(key, value),
            None => self.wide.insert(cfg.canonical(), value),
        }
    }

    /// The value stored for the class of `cfg`.
    #[must_use]
    pub fn get(&self, cfg: &Configuration) -> Option<&V> {
        match cfg.try_canonical_key() {
            Some(key) => self.get_key(key),
            None => self.wide.get(&cfg.canonical()),
        }
    }

    /// Like [`Self::insert`] for a key the caller already packed.
    pub fn insert_key(&mut self, key: PackedClass, value: V) -> Option<V> {
        let (idx, new) = self.index.insert_full(key.bits());
        if new {
            self.vals.push(value);
            None
        } else {
            Some(std::mem::replace(&mut self.vals[idx as usize], value))
        }
    }

    /// Like [`Self::get`] for a key the caller already packed.
    #[must_use]
    pub fn get_key(&self, key: PackedClass) -> Option<&V> {
        self.index.get(key.bits()).map(|idx| &self.vals[idx as usize])
    }

    /// Number of distinct classes stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len() + self.wide.len()
    }

    /// Whether no class is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty() && self.wide.is_empty()
    }

    /// Heap bytes reserved by the packed-key path (probe table, key
    /// and value columns). The wide fallback is excluded: it is empty
    /// in every checker workload and has no cheap size accounting.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.index.heap_bytes() + self.vals.capacity() * size_of::<V>()
    }

    /// Occupied bytes as a pure function of the entry count (see
    /// [`FlatKeyIndex::live_bytes`]).
    #[must_use]
    pub fn live_bytes(&self) -> usize {
        self.index.live_bytes() + self.vals.len() * size_of::<V>()
    }

    /// Empties the map but keeps the packed-path allocations.
    pub fn clear(&mut self) {
        self.index.clear();
        self.vals.clear();
        self.wide.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trigrid::{Coord, ORIGIN};

    fn two() -> Configuration {
        Configuration::new([ORIGIN, Coord::new(2, 0)])
    }

    #[test]
    fn class_set_identifies_translates() {
        let mut set = ClassSet::new();
        assert!(set.insert(&two()));
        assert!(!set.insert(&two().translate(Coord::new(7, 3))));
        assert!(set.contains(&two().translate(Coord::new(-4, 2))));
        assert_eq!(set.len(), 1);
        assert!(!set.is_empty());
    }

    #[test]
    fn class_map_overwrites_per_class() {
        let mut map: ClassMap<usize> = ClassMap::new();
        assert_eq!(map.insert(&two(), 1), None);
        assert_eq!(map.insert(&two().translate(Coord::new(2, 0)), 2), Some(1));
        assert_eq!(map.get(&two()), Some(&2));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn class_map_key_paths_agree_with_configuration_paths() {
        let mut map: ClassMap<&str> = ClassMap::new();
        assert_eq!(map.insert_key(two().canonical_key(), "a"), None);
        assert_eq!(map.get(&two().translate(Coord::new(4, 0))), Some(&"a"));
        assert_eq!(map.get_key(two().canonical_key()), Some(&"a"));
    }

    #[test]
    fn class_map_and_set_handle_unpackable_configurations() {
        // Eleven robots exceed the packed-key capacity (ten); the
        // shared utilities must fall back to unpacked keys, not panic —
        // the engine's livelock detector runs on arbitrary robot
        // counts.
        let eleven = Configuration::new((0..11).map(|i| Coord::new(2 * i, 0)));
        assert_eq!(eleven.try_canonical_key(), None);
        let mut map: ClassMap<u32> = ClassMap::new();
        assert_eq!(map.insert(&eleven, 1), None);
        assert_eq!(map.insert(&eleven.translate(Coord::new(4, 2)), 2), Some(1));
        assert_eq!(map.get(&eleven), Some(&2));
        assert_eq!(map.insert(&two(), 7), None);
        assert_eq!(map.len(), 2);
        let mut set = ClassSet::new();
        assert!(set.insert(&eleven));
        assert!(!set.insert(&eleven.translate(Coord::new(-2, 0))));
        assert!(set.contains(&eleven));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn flat_index_assigns_dense_insertion_order_ids() {
        let mut idx = FlatKeyIndex::new();
        assert_eq!(idx.get(0), None);
        for i in 0..1000u128 {
            // A deliberately clustered key pattern (low entropy in the
            // low bits) to exercise linear-probe runs.
            let key = i << 7;
            let (id, new) = idx.insert_full(key);
            assert!(new);
            assert_eq!(id as u128, i, "ids must be dense in insertion order");
        }
        for i in 0..1000u128 {
            let key = i << 7;
            assert_eq!(idx.get(key), Some(i as u32));
            let (id, new) = idx.insert_full(key);
            assert!(!new);
            assert_eq!(id as u128, i);
        }
        assert_eq!(idx.len(), 1000);
        assert!(idx.heap_bytes() >= idx.live_bytes());
    }

    #[test]
    fn flat_index_clear_keeps_capacity_and_resets_ids() {
        let mut idx = FlatKeyIndex::new();
        for i in 0..100u128 {
            idx.insert_full(i * 31);
        }
        let bytes = idx.heap_bytes();
        idx.clear();
        assert!(idx.is_empty());
        assert_eq!(idx.heap_bytes(), bytes, "clear must keep the allocations");
        assert_eq!(idx.get(31), None, "cleared keys must be gone");
        let (id, new) = idx.insert_full(12345);
        assert!(new);
        assert_eq!(id, 0, "ids restart from zero after clear");
    }

    #[test]
    fn flat_index_live_bytes_ignores_pooled_capacity() {
        // A pooled (cleared-but-wide) index must report the same
        // occupied bytes as a fresh index with the same keys, or byte
        // budgets would trip differently depending on scratch reuse.
        let mut pooled = FlatKeyIndex::new();
        for i in 0..1000u128 {
            pooled.insert_full(i * 97);
        }
        pooled.clear();
        let mut fresh = FlatKeyIndex::new();
        assert_eq!(pooled.live_bytes(), fresh.live_bytes());
        for i in 0..37u128 {
            pooled.insert_full(i * 13);
            fresh.insert_full(i * 13);
            assert_eq!(pooled.live_bytes(), fresh.live_bytes());
        }
        assert!(pooled.heap_bytes() > fresh.heap_bytes());
    }
}
