//! Robot configurations: anonymous sets of occupied nodes.

use serde::{Deserialize, Serialize};
use std::fmt;
use trigrid::{path, Coord, Dir, ORIGIN};

/// A typed capacity violation: the input does not fit the packed
/// representation. Returned by the `try_*` packing constructors so
/// callers (the sweep pipeline, the checker front-ends) can reject
/// unsupported robot counts with a real error instead of tripping an
/// assert mid-run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CapacityError {
    /// More robots than the packed key can hold.
    TooManyRobots {
        /// The offending robot count.
        robots: usize,
        /// The capacity ([`PackedClass::MAX_ROBOTS`]).
        max: usize,
    },
    /// The configuration's diameter exceeds the packable window.
    WindowExceeded,
}

impl fmt::Display for CapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CapacityError::TooManyRobots { robots, max } => {
                write!(f, "{robots} robots exceed the packed-key capacity of {max}")
            }
            CapacityError::WindowExceeded => {
                write!(f, "configuration exceeds the packable diameter window")
            }
        }
    }
}

impl std::error::Error for CapacityError {}

/// Bits per packed node for the signed x offset (window `-64..=63`).
const X_BITS: u32 = 7;
/// Bits per packed node for the y offset (window `0..=31`).
const Y_BITS: u32 = 5;
/// Bits per packed node.
const NODE_BITS: u32 = X_BITS + Y_BITS;
/// Bits for the robot count prefix.
const LEN_BITS: u32 = 4;
/// Offset added to x so the packed field is non-negative.
const X_BIAS: i32 = 1 << (X_BITS - 1);

/// A lossless bit-packed translation-class key of a configuration.
///
/// The canonical representative of a translation class places its
/// row-major-minimal node at the origin, so every other node lies in
/// the half-plane `y > 0 || (y == 0 && x > 0)`; for the bounded
/// configurations the checkers handle (≤ [`PackedClass::MAX_ROBOTS`]
/// robots within a diameter window of 31 rows × 127 half-columns) each
/// node fits 12 bits and the whole class key fits a `u128`:
///
/// ```text
/// bits 0..4            robot count n (0..=10)
/// bits 4+12i..4+12i+7  node i: x + 64   (row-major order)
/// bits 4+12i+7..16+12i node i: y
/// ```
///
/// Packing is injective on that window, so two configurations have
/// equal keys **iff** they are translates of each other — the key is
/// the class. [`Configuration::canonical_key`] produces it without
/// materializing the canonical `Vec<Coord>`; [`PackedClass::unpack`]
/// decodes the canonical representative back.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PackedClass(u128);

impl PackedClass {
    /// Largest robot count a packed key can hold: the count prefix and
    /// ten 12-bit nodes take `4 + 10·12 = 124 ≤ 128` bits, and the
    /// compile-time checks below pin both capacity inequalities.
    pub const MAX_ROBOTS: usize = 10;

    /// Packs arbitrary cells (folding the translation): the packed
    /// canonical translation class of `cells`.
    ///
    /// # Panics
    /// Panics if there are more than [`Self::MAX_ROBOTS`] cells or the
    /// set exceeds the packable diameter window.
    #[must_use]
    pub fn of_cells(cells: &[Coord]) -> PackedClass {
        Self::try_of_cells(cells).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Self::of_cells`], returning a typed [`CapacityError`]
    /// instead of panicking when the cells do not fit a packed key.
    ///
    /// # Errors
    /// [`CapacityError::TooManyRobots`] beyond [`Self::MAX_ROBOTS`]
    /// cells, [`CapacityError::WindowExceeded`] beyond the diameter
    /// window.
    pub fn try_of_cells(cells: &[Coord]) -> Result<PackedClass, CapacityError> {
        if cells.len() > Self::MAX_ROBOTS {
            return Err(CapacityError::TooManyRobots {
                robots: cells.len(),
                max: Self::MAX_ROBOTS,
            });
        }
        let mut buf = [ORIGIN; Self::MAX_ROBOTS];
        buf[..cells.len()].copy_from_slice(cells);
        let sorted = &mut buf[..cells.len()];
        sorted.sort_unstable_by_key(|c| polyhex::key(*c));
        Self::try_of_sorted(sorted).ok_or(CapacityError::WindowExceeded)
    }

    /// Packs cells that are **already sorted in row-major order** (the
    /// stored order of [`Configuration::positions`]); the row-major
    /// minimum — the first cell — becomes the origin.
    pub(crate) fn of_sorted(sorted: &[Coord]) -> PackedClass {
        Self::try_of_sorted(sorted).unwrap_or_else(|| {
            panic!("configuration exceeds the packable diameter window: {sorted:?}")
        })
    }

    /// Like [`Self::of_sorted`], returning `None` when the set has
    /// more than [`Self::MAX_ROBOTS`] cells or exceeds the window.
    pub(crate) fn try_of_sorted(sorted: &[Coord]) -> Option<PackedClass> {
        debug_assert!(sorted.windows(2).all(|w| polyhex::key(w[0]) < polyhex::key(w[1])));
        if sorted.len() > Self::MAX_ROBOTS {
            return None;
        }
        let Some(&min) = sorted.first() else {
            return Some(PackedClass(0));
        };
        let mut bits = sorted.len() as u128;
        for (i, &c) in sorted.iter().enumerate() {
            let dx = c.x - min.x + X_BIAS;
            let dy = c.y - min.y;
            if !(0..1 << X_BITS).contains(&dx) || !(0..1 << Y_BITS).contains(&dy) {
                return None;
            }
            let node = (dx as u128) | ((dy as u128) << X_BITS);
            bits |= node << (LEN_BITS + NODE_BITS * i as u32);
        }
        Some(PackedClass(bits))
    }

    /// The raw key bits.
    #[must_use]
    pub fn bits(self) -> u128 {
        self.0
    }

    /// Number of robots in the packed configuration.
    #[must_use]
    pub fn robots(self) -> usize {
        (self.0 & ((1 << LEN_BITS) - 1)) as usize
    }

    /// Decodes the canonical representative of the class.
    #[must_use]
    pub fn unpack(self) -> Configuration {
        Configuration::new(self.cells()[..self.robots()].iter().copied())
    }

    /// The canonical representative's cells in row-major order, decoded
    /// into a fixed buffer without allocating: the first
    /// [`Self::robots`] entries are the cells, the rest are the origin.
    #[must_use]
    pub fn cells(self) -> [Coord; PackedClass::MAX_ROBOTS] {
        let mut cells = [ORIGIN; PackedClass::MAX_ROBOTS];
        for (i, cell) in cells[..self.robots()].iter_mut().enumerate() {
            let node = (self.0 >> (LEN_BITS + NODE_BITS * i as u32)) & ((1 << NODE_BITS) - 1);
            let x = (node & ((1 << X_BITS) - 1)) as i32 - X_BIAS;
            let y = (node >> X_BITS) as i32;
            *cell = Coord::new(x, y);
        }
        cells
    }
}

// Compile-time capacity proofs: the count prefix can represent
// MAX_ROBOTS, and MAX_ROBOTS packed nodes plus the prefix fit a u128.
const _: () = assert!(PackedClass::MAX_ROBOTS < (1 << LEN_BITS));
const _: () = assert!(
    LEN_BITS as usize + NODE_BITS as usize * PackedClass::MAX_ROBOTS <= u128::BITS as usize
);

impl fmt::Debug for PackedClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PackedClass({:#x})", self.0)
    }
}

/// Bits per packed pending slot: `0` = idle, `1 + d` = a pending move
/// in direction index `d`.
const PEND_BITS: u32 = 3;

/// A lossless bit-packed per-robot **pending-move vector** — the
/// auxiliary state of the ASYNC model ([`crate::async_model`]),
/// companion to [`PackedClass`].
///
/// Slot `i` (row-major, the standard scheduler indexing) holds 3 bits:
/// `0` when the robot is *idle* (between LCM cycles), `1 + d` when it
/// has performed Look+Compute and holds the *pending* move in direction
/// index `d`, captured from a possibly stale snapshot. Pending *stay*
/// decisions are not represented: executing a stay changes nothing and
/// interferes with nobody, so the ASYNC discretisation collapses
/// look-then-stay into a single no-effect cycle (DESIGN.md §13).
///
/// Packing is injective on the [`PackedClass::MAX_ROBOTS`]-slot
/// window, so two keys are equal
/// **iff** the pending vectors are equal — the key *is* the auxiliary
/// state, exactly as a [`PackedClass`] key is the translation class
/// (`tests/packed_pending.rs` pins both directions).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PackedPending(u32);

impl PackedPending {
    /// The all-idle vector (every robot between LCM cycles).
    pub const IDLE: PackedPending = PackedPending(0);

    /// Packs a slot-aligned pending vector.
    ///
    /// # Panics
    /// Panics if there are more than [`PackedClass::MAX_ROBOTS`] slots.
    #[must_use]
    pub fn of_slots(slots: &[Option<Dir>]) -> PackedPending {
        Self::try_of_slots(slots).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Self::of_slots`], returning a typed [`CapacityError`]
    /// instead of panicking on over-capacity vectors.
    ///
    /// # Errors
    /// [`CapacityError::TooManyRobots`] beyond
    /// [`PackedClass::MAX_ROBOTS`] slots.
    pub fn try_of_slots(slots: &[Option<Dir>]) -> Result<PackedPending, CapacityError> {
        if slots.len() > PackedClass::MAX_ROBOTS {
            return Err(CapacityError::TooManyRobots {
                robots: slots.len(),
                max: PackedClass::MAX_ROBOTS,
            });
        }
        let mut packed = PackedPending::IDLE;
        for (i, &p) in slots.iter().enumerate() {
            packed = packed.with(i, p);
        }
        Ok(packed)
    }

    /// The pending move of slot `slot` (`None` = idle).
    #[must_use]
    pub fn get(self, slot: usize) -> Option<Dir> {
        let code = (self.0 >> (PEND_BITS * slot as u32)) & ((1 << PEND_BITS) - 1);
        (code != 0).then(|| Dir::from_index(code as usize - 1))
    }

    /// This vector with slot `slot` replaced by `pending`.
    #[must_use]
    pub fn with(self, slot: usize, pending: Option<Dir>) -> PackedPending {
        let shift = PEND_BITS * slot as u32;
        let cleared = self.0 & !(((1 << PEND_BITS) - 1) << shift);
        let code = pending.map_or(0, |d| 1 + d.index() as u32);
        PackedPending(cleared | (code << shift))
    }

    /// Whether every robot is idle.
    #[must_use]
    pub fn is_idle(self) -> bool {
        self.0 == 0
    }

    /// The raw key bits.
    #[must_use]
    pub fn bits(self) -> u32 {
        self.0
    }

    /// The image under the slot permutation `old slot i → map(i)`, for
    /// `n` robots. `map` is only consulted for non-idle slots.
    #[must_use]
    pub fn permute(self, n: usize, map: impl Fn(usize) -> usize) -> PackedPending {
        self.permute_map(n, map, |d| d)
    }

    /// Like [`Self::permute`], additionally transforming each pending
    /// direction by `dirs` — the action of a point symmetry on a
    /// pending vector, which moves the robots *and* rotates/reflects
    /// their captured moves (see
    /// [`Semantics::permute_aux`](crate::explore::Semantics::permute_aux)).
    #[must_use]
    pub fn permute_map(
        self,
        n: usize,
        map: impl Fn(usize) -> usize,
        dirs: impl Fn(Dir) -> Dir,
    ) -> PackedPending {
        let mut mapped = PackedPending::IDLE;
        for i in 0..n {
            if let Some(d) = self.get(i) {
                mapped = mapped.with(map(i), Some(dirs(d)));
            }
        }
        mapped
    }
}

// Compile-time capacity proof: MAX_ROBOTS pending slots fit a u32.
const _: () = assert!(PEND_BITS as usize * PackedClass::MAX_ROBOTS <= u32::BITS as usize);

impl fmt::Debug for PackedPending {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PackedPending({:#x})", self.0)
    }
}

/// A configuration of anonymous robots: the set of *robot nodes*
/// (paper §II-A). Stored sorted in [`polyhex::key`] (row-major) order,
/// with no duplicates — several robots on one node would already be a
/// collision, so the type forbids it.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Configuration {
    nodes: Vec<Coord>,
}

impl Configuration {
    /// Builds a configuration from arbitrary positions.
    ///
    /// # Panics
    /// Panics if two positions coincide (a multiplicity would be a
    /// collision by Definition 1).
    #[must_use]
    pub fn new<I: IntoIterator<Item = Coord>>(positions: I) -> Self {
        let mut nodes: Vec<Coord> = positions.into_iter().collect();
        nodes.sort_unstable_by_key(|c| polyhex::key(*c));
        let before = nodes.len();
        nodes.dedup();
        assert_eq!(before, nodes.len(), "duplicate robot positions are a collision");
        Self { nodes }
    }

    /// The occupied nodes, sorted in row-major order.
    #[must_use]
    pub fn positions(&self) -> &[Coord] {
        &self.nodes
    }

    /// Number of robots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether there are no robots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `c` is a robot node.
    #[must_use]
    pub fn contains(&self, c: Coord) -> bool {
        self.nodes.binary_search_by_key(&polyhex::key(c), |n| polyhex::key(*n)).is_ok()
    }

    /// Whether the subgraph induced by the robot nodes is connected
    /// (the paper's standing assumption on initial configurations).
    #[must_use]
    pub fn is_connected(&self) -> bool {
        path::is_connected(&self.nodes)
    }

    /// The number of robot neighbours of `c`.
    #[must_use]
    pub fn occupied_neighbors(&self, c: Coord) -> usize {
        c.neighbors().into_iter().filter(|n| self.contains(*n)).count()
    }

    /// For seven robots, gathering is achieved when one robot has six
    /// adjacent robot nodes (paper Fig. 1); this returns that centre if
    /// it exists.
    #[must_use]
    pub fn gathered_center(&self) -> Option<Coord> {
        self.nodes.iter().copied().find(|&c| self.occupied_neighbors(c) == 6)
    }

    /// Whether this is a gathering-achieved configuration for its robot
    /// count `n`: all robots lie within one closed ball of radius
    /// [`min_gather_radius`]`(n)` — the smallest ball that can hold `n`
    /// robots, so no tighter cluster exists. For `n = 7` the radius-1
    /// ball has exactly seven nodes and this is precisely Definition 1's
    /// filled hexagon (a robot with six robot neighbours); for other `n`
    /// it is the natural "as close together as possible" generalisation
    /// the paper's §V open questions ask about (DESIGN.md §14).
    #[must_use]
    pub fn is_gathered(&self) -> bool {
        let n = self.len();
        if n == 0 {
            return false;
        }
        let r = min_gather_radius(n);
        // Any covering ball's centre lies within `r` of every robot, in
        // particular the first one, so scanning that disk is complete.
        trigrid::region::disk(self.nodes[0], r)
            .into_iter()
            .any(|c| self.nodes.iter().all(|&p| c.distance(p) <= r))
    }

    /// Maximum pairwise distance between robot nodes.
    #[must_use]
    pub fn diameter(&self) -> u32 {
        trigrid::region::diameter(&self.nodes)
    }

    /// The canonical representative of this configuration's translation
    /// class (robots agree on axes, so executions are invariant exactly
    /// under translation).
    #[must_use]
    pub fn canonical(&self) -> Configuration {
        Configuration { nodes: polyhex::canonical_translation(&self.nodes) }
    }

    /// The packed translation-class key: equal for two configurations
    /// **iff** they are translates of each other. Allocation-free — the
    /// nodes are already stored in row-major order and translation
    /// preserves that order, so the key folds directly off the stored
    /// slice without materializing [`Self::canonical`].
    ///
    /// # Panics
    /// Panics if the configuration holds more than
    /// [`PackedClass::MAX_ROBOTS`] robots or exceeds the packable
    /// diameter window (see [`PackedClass`]).
    #[must_use]
    pub fn canonical_key(&self) -> PackedClass {
        assert!(
            self.nodes.len() <= PackedClass::MAX_ROBOTS,
            "packed keys hold at most {} robots",
            PackedClass::MAX_ROBOTS
        );
        PackedClass::of_sorted(&self.nodes)
    }

    /// Like [`Self::canonical_key`], returning `None` instead of
    /// panicking when the configuration does not fit the packed window
    /// (more than [`PackedClass::MAX_ROBOTS`] robots, or a diameter
    /// beyond it). [`crate::visited::ClassMap`] uses this to fall back
    /// to unpacked keys, so the shared memoization utilities keep
    /// their full historical domain.
    #[must_use]
    pub fn try_canonical_key(&self) -> Option<PackedClass> {
        PackedClass::try_of_sorted(&self.nodes)
    }

    /// Packs this configuration's translation class — identical to
    /// [`Self::canonical_key`]; on a canonical configuration it is a
    /// pure re-encoding, so `cfg.canonical_key() == cfg.canonical().pack()`
    /// and `canonical.pack().unpack() == canonical` (the proptests in
    /// `tests/packed_class.rs` pin both).
    #[must_use]
    pub fn pack(&self) -> PackedClass {
        self.canonical_key()
    }

    /// Translates every robot by `delta`.
    #[must_use]
    pub fn translate(&self, delta: Coord) -> Configuration {
        Configuration::new(self.nodes.iter().map(|&c| c + delta))
    }

    /// Applies per-robot moves (aligned with [`Self::positions`]) without
    /// any collision checking; used by the engine after validation.
    #[must_use]
    pub(crate) fn apply_unchecked(&self, moves: &[Option<Dir>]) -> Configuration {
        debug_assert_eq!(moves.len(), self.nodes.len());
        Configuration::new(self.nodes.iter().zip(moves).map(|(&c, m)| m.map_or(c, |d| c.step(d))))
    }
}

impl fmt::Debug for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Configuration{:?}", self.nodes)
    }
}

impl FromIterator<Coord> for Configuration {
    fn from_iter<I: IntoIterator<Item = Coord>>(iter: I) -> Self {
        Configuration::new(iter)
    }
}

/// The gathering-achieved configuration for seven robots centred at `c`.
#[must_use]
pub fn hexagon(center: Coord) -> Configuration {
    Configuration::new(trigrid::region::disk(center, 1))
}

/// Number of nodes in a closed radius-`r` ball of the triangular grid:
/// `1 + 3r(r+1)` (1, 7, 19, 37, …).
#[must_use]
pub const fn ball_capacity(r: u32) -> usize {
    1 + 3 * (r as usize) * (r as usize + 1)
}

/// The smallest radius `r` such that a closed radius-`r` ball holds `n`
/// nodes — the tightest cluster `n` robots can possibly form, and hence
/// the n-aware gathering radius (`0` for `n ≤ 1`, `1` for `n ≤ 7`, `2`
/// for `n ≤ 19`, …). See DESIGN.md §14 for the soundness argument.
#[must_use]
pub fn min_gather_radius(n: usize) -> u32 {
    let mut r = 0;
    while ball_capacity(r) < n {
        r += 1;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use trigrid::ORIGIN;

    fn line(n: i32) -> Configuration {
        Configuration::new((0..n).map(|i| Coord::new(2 * i, 0)))
    }

    #[test]
    fn construction_sorts_rowmajor() {
        let c = Configuration::new([Coord::new(2, 0), Coord::new(0, 0), Coord::new(1, 1)]);
        assert_eq!(c.positions(), &[Coord::new(0, 0), Coord::new(2, 0), Coord::new(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "duplicate robot positions")]
    fn duplicates_rejected() {
        let _ = Configuration::new([ORIGIN, ORIGIN]);
    }

    #[test]
    fn contains_and_len() {
        let c = line(7);
        assert_eq!(c.len(), 7);
        assert!(c.contains(Coord::new(6, 0)));
        assert!(!c.contains(Coord::new(1, 1)));
        assert!(!c.is_empty());
        assert!(Configuration::new([]).is_empty());
    }

    #[test]
    fn hexagon_is_gathered() {
        let h = hexagon(Coord::new(4, 2));
        assert!(h.is_gathered());
        assert_eq!(h.gathered_center(), Some(Coord::new(4, 2)));
        assert_eq!(h.diameter(), 2);
    }

    #[test]
    fn line_is_connected_but_not_gathered() {
        let c = line(7);
        assert!(c.is_connected());
        assert!(!c.is_gathered());
        assert_eq!(c.gathered_center(), None);
        assert_eq!(c.diameter(), 6);
    }

    #[test]
    fn six_robot_hexagon_ring_gathers_for_its_count() {
        // A hollow hexagon is not the seven-robot goal (no robot has
        // six robot neighbours, so there is no gathered centre), but as
        // a 6-robot configuration it fits one closed radius-1 ball —
        // the tightest cluster six robots can form — so the n-aware
        // predicate accepts it.
        let ring = Configuration::new(trigrid::region::ring(ORIGIN, 1));
        assert_eq!(ring.gathered_center(), None);
        assert!(ring.is_gathered());
    }

    #[test]
    fn eight_robots_gather_within_a_radius_two_ball() {
        // min_gather_radius(8) = 2: a full hexagon plus a pendant robot
        // still fits one closed radius-2 ball, so it is gathered for
        // n = 8 even though no radius-1 ball can hold eight robots.
        let mut nodes = trigrid::region::disk(ORIGIN, 1);
        nodes.push(Coord::new(4, 0));
        let c = Configuration::new(nodes);
        assert_eq!(c.len(), 8);
        assert!(c.is_gathered());
        // A straight eight-robot line has diameter 7 > 2·2: not gathered.
        assert!(!line(8).is_gathered());
    }

    #[test]
    fn min_gather_radius_matches_ball_capacities() {
        assert_eq!(ball_capacity(0), 1);
        assert_eq!(ball_capacity(1), 7);
        assert_eq!(ball_capacity(2), 19);
        assert_eq!(min_gather_radius(1), 0);
        assert_eq!(min_gather_radius(2), 1);
        assert_eq!(min_gather_radius(7), 1);
        assert_eq!(min_gather_radius(8), 2);
        assert_eq!(min_gather_radius(10), 2);
        assert_eq!(min_gather_radius(19), 2);
        assert_eq!(min_gather_radius(20), 3);
        // The predicate agrees with the radius: n robots packed as a
        // ball prefix are always gathered.
        for n in 1..=10 {
            let r = min_gather_radius(n);
            let ball = trigrid::region::disk(ORIGIN, r);
            let c = Configuration::new(ball.into_iter().take(n));
            assert!(c.is_gathered(), "{n} robots in a radius-{r} ball prefix");
        }
    }

    #[test]
    fn canonical_identifies_translates() {
        let a = line(7);
        let b = a.translate(Coord::new(5, 3));
        assert_ne!(a, b);
        assert_eq!(a.canonical(), b.canonical());
    }

    #[test]
    fn occupied_neighbors_counts() {
        let h = hexagon(ORIGIN);
        assert_eq!(h.occupied_neighbors(ORIGIN), 6);
        assert_eq!(h.occupied_neighbors(Coord::new(2, 0)), 3);
        assert_eq!(h.occupied_neighbors(Coord::new(4, 0)), 1);
    }

    #[test]
    fn apply_unchecked_moves() {
        let c = line(2);
        let moved = c.apply_unchecked(&[None, Some(Dir::E)]);
        assert_eq!(moved, Configuration::new([ORIGIN, Coord::new(4, 0)]));
    }

    #[test]
    fn disconnected_detection() {
        let c = Configuration::new([ORIGIN, Coord::new(10, 0)]);
        assert!(!c.is_connected());
    }

    #[test]
    fn packed_key_identifies_translates_and_roundtrips() {
        let a = line(7);
        let b = a.translate(Coord::new(-7, 3));
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert_eq!(a.canonical_key(), a.canonical().pack());
        assert_eq!(a.canonical_key().unpack(), a.canonical());
        assert_eq!(a.canonical_key().robots(), 7);
        let h = hexagon(Coord::new(6, 2));
        assert_ne!(h.canonical_key(), a.canonical_key());
        assert_eq!(h.canonical_key().unpack(), h.canonical());
    }

    #[test]
    fn packed_key_of_cells_matches_configuration_path() {
        let cells = [Coord::new(3, 1), Coord::new(0, 0), Coord::new(2, 0)];
        let via_cfg = Configuration::new(cells).canonical_key();
        assert_eq!(PackedClass::of_cells(&cells), via_cfg);
        assert_eq!(PackedClass::of_cells(&[]), Configuration::new([]).canonical_key());
        assert_eq!(PackedClass::of_cells(&[]).robots(), 0);
    }

    #[test]
    fn packed_key_covers_negative_x_offsets() {
        // The row-major minimum is the *lowest row*, so upper rows may
        // extend to its west: x offsets are signed.
        let c = Configuration::new([ORIGIN, Coord::new(-5, 1), Coord::new(-3, 1)]);
        assert_eq!(c.canonical_key().unpack(), c.canonical());
    }

    #[test]
    #[should_panic(expected = "packable diameter window")]
    fn packed_key_rejects_configurations_beyond_the_window() {
        let _ = Configuration::new([ORIGIN, Coord::new(200, 0)]).canonical_key();
    }

    #[test]
    #[should_panic(expected = "at most 10 robots")]
    fn packed_key_rejects_eleven_robots() {
        let _ = Configuration::new((0..11).map(|i| Coord::new(2 * i, 0))).canonical_key();
    }

    #[test]
    fn packed_key_holds_nine_and_ten_robots() {
        for n in [9, 10] {
            let c = Configuration::new((0..n).map(|i| Coord::new(2 * i, 0)));
            assert_eq!(c.canonical_key().robots(), n as usize);
            assert_eq!(c.canonical_key().unpack(), c.canonical());
        }
    }

    #[test]
    fn try_of_cells_reports_typed_capacity_errors() {
        let eleven: Vec<Coord> = (0..11).map(|i| Coord::new(2 * i, 0)).collect();
        assert_eq!(
            PackedClass::try_of_cells(&eleven),
            Err(CapacityError::TooManyRobots { robots: 11, max: PackedClass::MAX_ROBOTS })
        );
        assert_eq!(
            PackedClass::try_of_cells(&[ORIGIN, Coord::new(200, 0)]),
            Err(CapacityError::WindowExceeded)
        );
        let ok = PackedClass::try_of_cells(&[ORIGIN, Coord::new(2, 0)]).expect("fits");
        assert_eq!(ok.robots(), 2);
        assert_eq!(
            PackedPending::try_of_slots(&[None; 11]),
            Err(CapacityError::TooManyRobots { robots: 11, max: PackedClass::MAX_ROBOTS })
        );
    }

    #[test]
    fn packed_pending_round_trips_and_permutes() {
        let slots = [None, Some(Dir::E), None, Some(Dir::W), Some(Dir::NE)];
        let packed = PackedPending::of_slots(&slots);
        for (i, &p) in slots.iter().enumerate() {
            assert_eq!(packed.get(i), p, "slot {i}");
        }
        assert!(!packed.is_idle());
        assert!(PackedPending::IDLE.is_idle());
        assert_eq!(packed.with(1, None).with(3, None).with(4, None), PackedPending::IDLE);
        // Rotate the five slots by one: slot i's pending lands at i+1.
        let rotated = packed.permute(5, |i| (i + 1) % 5);
        assert_eq!(rotated.get(2), Some(Dir::E));
        assert_eq!(rotated.get(4), Some(Dir::W));
        assert_eq!(rotated.get(0), Some(Dir::NE));
        assert_eq!(rotated.get(1), None);
    }

    #[test]
    #[should_panic(expected = "exceed the packed-key capacity")]
    fn packed_pending_rejects_eleven_slots() {
        let _ = PackedPending::of_slots(&[None; 11]);
    }
}
