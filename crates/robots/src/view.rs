//! Robot views: the sole input an algorithm may consult.

use crate::Configuration;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;
use trigrid::{region, Coord, Dir, ORIGIN};

/// Largest supported visibility radius.
pub const MAX_RADIUS: u32 = 4;

/// The fixed label ordering for a given radius: all nodes of the disk of
/// that radius around the origin except the origin itself, ring by ring,
/// each ring counter-clockwise from due east. For radius 1 this is
/// exactly `Dir::ALL` order (E, NE, NW, W, SW, SE); for radius 2 the
/// first six entries are the inner ring and the next twelve the outer
/// ring starting at label `(4,0)` — the labels of the paper's Fig. 48.
#[must_use]
pub fn labels(radius: u32) -> &'static [Coord] {
    static CACHE: OnceLock<Vec<Vec<Coord>>> = OnceLock::new();
    let all = CACHE.get_or_init(|| {
        (0..=MAX_RADIUS).map(|r| region::disk(ORIGIN, r).into_iter().skip(1).collect()).collect()
    });
    &all[radius as usize]
}

/// Index of `label` in [`labels`]`(radius)`, if it is within range.
#[must_use]
pub fn label_index(radius: u32, label: Coord) -> Option<usize> {
    labels(radius).iter().position(|&c| c == label)
}

/// What one robot sees: the occupancy of every node within its
/// visibility range, as relative *labels* (paper Fig. 48 assigns them
/// with the observer at the origin). Robots are transparent, so the view
/// is complete within the range.
///
/// A `View` deliberately carries no absolute position, no robot
/// identities and no history: an [`crate::Algorithm`] can use nothing
/// else.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct View {
    radius: u32,
    bits: u64,
}

impl View {
    /// Observes the configuration from `center` (which must be a robot
    /// node) with the given visibility radius.
    ///
    /// # Panics
    /// Panics if `center` is not occupied or `radius > MAX_RADIUS`.
    #[must_use]
    pub fn observe(config: &Configuration, center: Coord, radius: u32) -> View {
        assert!(config.contains(center), "the observer must be a robot node");
        let mut bits = 0u64;
        for (i, &label) in labels(radius).iter().enumerate() {
            if config.contains(center + label) {
                bits |= 1 << i;
            }
        }
        View { radius, bits }
    }

    /// Builds a view directly from a bitmask (bit `i` = occupancy of
    /// [`labels`]`(radius)[i]`).
    ///
    /// # Panics
    /// Panics if bits outside the label range are set.
    #[must_use]
    pub fn from_bits(radius: u32, bits: u64) -> View {
        let n = labels(radius).len();
        assert!(
            n == 64 || bits < (1u64 << n),
            "bitmask has bits beyond the {n} labels of radius {radius}"
        );
        View { radius, bits }
    }

    /// Builds a view from the list of occupied labels.
    ///
    /// # Panics
    /// Panics if a label is out of range (distance 0 or > radius).
    #[must_use]
    pub fn from_labels(radius: u32, occupied: &[Coord]) -> View {
        let mut bits = 0u64;
        for &l in occupied {
            let i = label_index(radius, l)
                .unwrap_or_else(|| panic!("label {l} out of range for radius {radius}"));
            bits |= 1 << i;
        }
        View { radius, bits }
    }

    /// The visibility radius.
    #[must_use]
    pub fn radius(&self) -> u32 {
        self.radius
    }

    /// The raw occupancy bitmask.
    #[must_use]
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Whether the node at relative `label` is a robot node. The
    /// observer's own node `(0,0)` reports `true` (the observer is a
    /// robot).
    ///
    /// # Panics
    /// Panics if the label is beyond the visibility radius — algorithms
    /// must not consult nodes they cannot see.
    #[must_use]
    pub fn is_robot(&self, label: Coord) -> bool {
        if label == ORIGIN {
            return true;
        }
        let i = label_index(self.radius, label)
            .unwrap_or_else(|| panic!("label {label} is beyond visibility radius {}", self.radius));
        self.bits & (1 << i) != 0
    }

    /// Whether the node at relative `label` is empty (complement of
    /// [`Self::is_robot`]).
    #[must_use]
    pub fn is_empty_node(&self, label: Coord) -> bool {
        !self.is_robot(label)
    }

    /// Convenience: whether the *adjacent* node in direction `d` is a
    /// robot node.
    #[must_use]
    pub fn neighbor(&self, d: Dir) -> bool {
        self.bits & (1 << d.index()) != 0
    }

    /// Number of robot nodes in view (excluding the observer).
    #[must_use]
    pub fn robot_count(&self) -> u32 {
        self.bits.count_ones()
    }

    /// The occupied labels, in label order (excluding the observer).
    pub fn robot_labels(&self) -> impl Iterator<Item = Coord> + '_ {
        labels(self.radius)
            .iter()
            .enumerate()
            .filter(move |(i, _)| self.bits & (1 << i) != 0)
            .map(|(_, &c)| c)
    }

    /// The view reflected across the x-axis (used for the mirror
    /// arguments of the Theorem 1 proof and for symmetry tests).
    #[must_use]
    pub fn mirror_x(&self) -> View {
        let occupied: Vec<Coord> = self.robot_labels().map(trigrid::transform::mirror_x).collect();
        View::from_labels(self.radius, &occupied)
    }

    /// The view rotated by `k * 60°` counter-clockwise.
    #[must_use]
    pub fn rotate_ccw(&self, k: usize) -> View {
        let occupied: Vec<Coord> =
            self.robot_labels().map(|c| trigrid::transform::rotate_ccw(c, k)).collect();
        View::from_labels(self.radius, &occupied)
    }
}

impl fmt::Debug for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "View(r={}, robots=[", self.radius)?;
        for (k, c) in self.robot_labels().enumerate() {
            if k > 0 {
                write!(f, " ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "])")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_order_radius1_matches_dir_order() {
        assert_eq!(labels(1), &Dir::ALL.map(|d| d.delta())[..]);
    }

    #[test]
    fn label_counts_per_radius() {
        assert_eq!(labels(1).len(), 6);
        assert_eq!(labels(2).len(), 18);
        assert_eq!(labels(0).len(), 0);
    }

    #[test]
    fn label_order_radius2_matches_fig48() {
        let l = labels(2);
        assert_eq!(l.len(), 18);
        assert_eq!(&l[..6], &Dir::ALL.map(|d| d.delta())[..]);
        assert_eq!(l[6], Coord::new(4, 0));
        assert_eq!(l[7], Coord::new(3, 1));
        assert_eq!(l[8], Coord::new(2, 2));
        assert_eq!(l[17], Coord::new(3, -1));
    }

    #[test]
    fn observe_reads_occupancy() {
        let cfg = Configuration::new([ORIGIN, Coord::new(2, 0), Coord::new(3, 1)]);
        let v = View::observe(&cfg, ORIGIN, 2);
        assert!(v.is_robot(Coord::new(2, 0)));
        assert!(v.is_robot(Coord::new(3, 1)));
        assert!(v.is_empty_node(Coord::new(1, 1)));
        assert!(v.is_robot(ORIGIN), "observer sees itself");
        assert_eq!(v.robot_count(), 2);
    }

    #[test]
    fn observe_truncates_to_radius() {
        // Fig. 3 of the paper: with radius 1 only adjacent robots are
        // visible; radius 2 reveals more.
        let cfg = Configuration::new([ORIGIN, Coord::new(2, 0), Coord::new(4, 0)]);
        let v1 = View::observe(&cfg, ORIGIN, 1);
        assert_eq!(v1.robot_count(), 1);
        let v2 = View::observe(&cfg, ORIGIN, 2);
        assert_eq!(v2.robot_count(), 2);
        assert!(v2.is_robot(Coord::new(4, 0)));
    }

    #[test]
    #[should_panic(expected = "beyond visibility radius")]
    fn consulting_invisible_node_panics() {
        let cfg = Configuration::new([ORIGIN]);
        let v = View::observe(&cfg, ORIGIN, 1);
        let _ = v.is_robot(Coord::new(4, 0));
    }

    #[test]
    #[should_panic(expected = "observer must be a robot node")]
    fn observe_from_empty_node_panics() {
        let cfg = Configuration::new([Coord::new(2, 0)]);
        let _ = View::observe(&cfg, ORIGIN, 1);
    }

    #[test]
    fn neighbor_shortcut_matches_is_robot() {
        let cfg =
            Configuration::new([ORIGIN, Coord::new(1, 1), Coord::new(-1, -1), Coord::new(2, 0)]);
        let v = View::observe(&cfg, ORIGIN, 1);
        for d in Dir::ALL {
            assert_eq!(v.neighbor(d), v.is_robot(d.delta()), "{d:?}");
        }
    }

    #[test]
    fn from_labels_roundtrip() {
        let occupied = [Coord::new(2, 0), Coord::new(0, 2), Coord::new(-3, -1)];
        let v = View::from_labels(2, &occupied);
        let back: Vec<Coord> = v.robot_labels().collect();
        let mut expected = occupied.to_vec();
        expected.sort_by_key(|c| label_index(2, *c).unwrap());
        assert_eq!(back, expected);
    }

    #[test]
    fn bits_roundtrip_and_range_check() {
        let v = View::from_bits(1, 0b101010);
        assert_eq!(v.bits(), 0b101010);
        assert!(std::panic::catch_unwind(|| View::from_bits(1, 1 << 6)).is_err());
    }

    #[test]
    fn mirror_is_involution_and_maps_labels() {
        let v = View::from_labels(2, &[Coord::new(1, 1), Coord::new(3, -1)]);
        let m = v.mirror_x();
        assert!(m.is_robot(Coord::new(1, -1)));
        assert!(m.is_robot(Coord::new(3, 1)));
        assert_eq!(m.mirror_x(), v);
    }

    #[test]
    fn rotation_of_views() {
        let v = View::from_labels(2, &[Coord::new(2, 0)]);
        let r = v.rotate_ccw(1);
        assert!(r.is_robot(Coord::new(1, 1)));
        assert_eq!(v.rotate_ccw(6), v);
    }

    #[test]
    fn transparency_full_axis_visible() {
        // Robots are transparent (§II-A): a robot two east is visible
        // even with a robot one east in between.
        let cfg = Configuration::new([ORIGIN, Coord::new(2, 0), Coord::new(4, 0)]);
        let v = View::observe(&cfg, ORIGIN, 2);
        assert!(v.is_robot(Coord::new(2, 0)));
        assert!(v.is_robot(Coord::new(4, 0)));
    }
}
