//! The algorithm abstraction: a deterministic, memoryless move rule.

use crate::View;
use trigrid::Dir;

/// A distributed algorithm for oblivious robots.
///
/// Robots are uniform (same algorithm), anonymous and oblivious, so an
/// algorithm is nothing more than a pure function from the robot's
/// current [`View`] to a decision: move to an adjacent node
/// (`Some(dir)`) or stay (`None`). The trait deliberately provides no
/// access to absolute coordinates, identities or history.
pub trait Algorithm: Sync {
    /// The visibility radius this algorithm needs (1 or 2 in the paper).
    fn radius(&self) -> u32;

    /// The Compute phase: given the Look phase's view, decide the Move
    /// phase's action.
    fn compute(&self, view: &View) -> Option<Dir>;

    /// Human-readable name for reports.
    fn name(&self) -> &str {
        "unnamed"
    }
}

impl<A: Algorithm + ?Sized> Algorithm for &A {
    fn radius(&self) -> u32 {
        (**self).radius()
    }
    fn compute(&self, view: &View) -> Option<Dir> {
        (**self).compute(view)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

/// An algorithm defined by a closure; handy for tests and experiments.
pub struct FnAlgorithm<F: Fn(&View) -> Option<Dir> + Sync> {
    radius: u32,
    name: String,
    f: F,
}

impl<F: Fn(&View) -> Option<Dir> + Sync> FnAlgorithm<F> {
    /// Wraps `f` as an algorithm with the given visibility radius.
    pub fn new(radius: u32, name: impl Into<String>, f: F) -> Self {
        Self { radius, name: name.into(), f }
    }
}

impl<F: Fn(&View) -> Option<Dir> + Sync> Algorithm for FnAlgorithm<F> {
    fn radius(&self) -> u32 {
        self.radius
    }
    fn compute(&self, view: &View) -> Option<Dir> {
        (self.f)(view)
    }
    fn name(&self) -> &str {
        &self.name
    }
}

/// The trivial algorithm that never moves (every configuration is a
/// fixpoint); useful as an engine test fixture.
pub struct StayAlgorithm;

impl Algorithm for StayAlgorithm {
    fn radius(&self) -> u32 {
        1
    }
    fn compute(&self, _view: &View) -> Option<Dir> {
        None
    }
    fn name(&self) -> &str {
        "stay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_algorithm_delegates() {
        let a = FnAlgorithm::new(1, "east-if-lonely", |v: &View| {
            (v.robot_count() == 0).then_some(Dir::E)
        });
        assert_eq!(a.radius(), 1);
        assert_eq!(a.name(), "east-if-lonely");
        assert_eq!(a.compute(&View::from_bits(1, 0)), Some(Dir::E));
        assert_eq!(a.compute(&View::from_bits(1, 1)), None);
    }

    #[test]
    fn stay_never_moves() {
        for bits in 0..64u64 {
            assert_eq!(StayAlgorithm.compute(&View::from_bits(1, bits)), None);
        }
    }

    #[test]
    fn references_implement_algorithm() {
        fn radius_of(a: impl Algorithm) -> u32 {
            a.radius()
        }
        assert_eq!(radius_of(&StayAlgorithm), 1);
    }
}
