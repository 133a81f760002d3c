//! # gathering — the paper's contribution (Theorem 2)
//!
//! The collision-free gathering algorithm for **seven** oblivious robots
//! with **visibility range 2** on the triangular grid, from §IV of
//! Shibata et al. 2021.
//!
//! ## How the algorithm works (paper §IV-A)
//!
//! Each robot interprets its 18-node view through the label system of
//! Fig. 48 (itself at `(0,0)`, east neighbour `(2,0)`, the node two east
//! `(4,0)`, …). It then:
//!
//! 1. **Determines the base node** — the robot node with the strictly
//!    largest *x-element* in view (possibly itself). Ties mean "wait",
//!    with two exceptions: the *virtual base* `(4,0)` (empty but flanked
//!    by robots at `(3,1)` and `(3,-1)`), and the *self-promotion* case
//!    where `(1,1)`/`(1,-1)` hold the maximum and the robot moves east to
//!    become the base itself. See [`base`].
//! 2. **Moves toward the base** — robots treat the base as the east pole
//!    of the target hexagon and compact eastward, with guards that make
//!    every move locally provably collision-free and
//!    connectivity-preserving. See [`rules`], a line-by-line
//!    transcription of Algorithm 1.
//!
//! ## Two rule sets
//!
//! The printed pseudocode is not quite the algorithm the authors
//! verified: it contains an unsatisfiable guard (line 25) and the paper
//! itself says "there still exist several robot behaviors that avoid a
//! collision or an unconnected configuration, we omit the detail". This
//! crate therefore ships:
//!
//! * [`SevenGather::paper`] — the pseudocode exactly as printed, and
//! * [`SevenGather::verified`] — the completed rule set that passes the
//!   exhaustive verification over all 3652 connected initial
//!   configurations (the paper's §IV-B experiment). Every deviation is a
//!   named flag in [`rules::RuleOptions`] and is documented in
//!   `DESIGN.md` §6. It ships as the compiled decision table
//!   [`table::VERIFIED`], which the rules generate and the tests
//!   re-derive.
//!
//! ```
//! use gathering::SevenGather;
//! use robots::{engine, Configuration, Limits};
//! use trigrid::Coord;
//!
//! // Seven robots in a row gather into the hexagon.
//! let line = Configuration::new((0..7).map(|i| Coord::new(2 * i, 0)));
//! let ex = engine::run(&line, &SevenGather::verified(), Limits::default());
//! assert!(ex.outcome.is_gathered());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod base;
pub mod baseline;
pub mod completion;
pub mod overrides;
pub mod rules;
pub mod safety;
pub mod table;

use robots::{Algorithm, View};
use std::sync::atomic::{AtomicU8, Ordering};
use trigrid::Dir;

/// Sentinel for "not yet computed" in the decision cache (valid
/// decisions are 0..=6).
const UNCACHED: u8 = 0xFF;

/// The paper's gathering algorithm for seven robots with visibility
/// range 2 (Algorithm 1).
///
/// [`SevenGather::verified`] reads the committed decision table
/// [`table::VERIFIED`]. The rule-evaluated variants ([`paper`] and
/// [`with_options`]) memoise their decisions per view in a lock-free
/// cache (the decision function is pure, so robots stay oblivious; the
/// cache is invisible to the model).
///
/// [`paper`]: SevenGather::paper
/// [`with_options`]: SevenGather::with_options
pub struct SevenGather {
    name: &'static str,
    /// `None` for the verified algorithm, which needs no evaluation.
    rules: Option<Rules>,
}

/// A rule-option combination evaluated on demand, with its per-view
/// decision cache.
struct Rules {
    opts: rules::RuleOptions,
    cache: Vec<AtomicU8>,
}

impl Rules {
    fn new(opts: rules::RuleOptions) -> Self {
        let mut cache = Vec::with_capacity(table::VIEWS);
        cache.resize_with(table::VIEWS, || AtomicU8::new(UNCACHED));
        Rules { opts, cache }
    }

    fn decide(&self, view: &View) -> Option<Dir> {
        let slot = &self.cache[view.bits() as usize];
        let cached = slot.load(Ordering::Relaxed);
        if cached != UNCACHED {
            return rules::decode_decision(cached);
        }
        let decision = rules::compute(view, self.opts);
        slot.store(rules::encode_decision(decision), Ordering::Relaxed);
        decision
    }
}

impl SevenGather {
    fn evaluated(opts: rules::RuleOptions, name: &'static str) -> Self {
        SevenGather { name, rules: Some(Rules::new(opts)) }
    }

    /// Algorithm 1 exactly as printed in the paper (including its
    /// misprinted line 25, which can never fire).
    #[must_use]
    pub fn paper() -> Self {
        SevenGather::evaluated(rules::RuleOptions::PAPER, "seven-gather/paper")
    }

    /// The completed rule set — printed rules with the documented fixes,
    /// the completion fallback, and the synthesized overrides — which
    /// passes the exhaustive verification over all 3652 connected
    /// initial configurations. Decides by one lookup in
    /// [`table::VERIFIED`].
    #[must_use]
    pub fn verified() -> Self {
        SevenGather { name: "seven-gather/verified", rules: None }
    }

    /// A custom rule-option combination, without the synthesized
    /// overrides (for ablation experiments).
    #[must_use]
    pub fn with_options(opts: rules::RuleOptions) -> Self {
        SevenGather::evaluated(opts, "seven-gather/custom")
    }
}

impl Clone for SevenGather {
    fn clone(&self) -> Self {
        let rules = self.rules.as_ref().map(|r| Rules::new(r.opts));
        SevenGather { name: self.name, rules }
    }
}

impl std::fmt::Debug for SevenGather {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SevenGather")
            .field("opts", &self.rules.as_ref().map(|r| r.opts))
            .field("name", &self.name)
            .finish()
    }
}

impl Algorithm for SevenGather {
    fn radius(&self) -> u32 {
        2
    }

    fn compute(&self, view: &View) -> Option<Dir> {
        match &self.rules {
            None => rules::decode_decision(table::VERIFIED[view.bits() as usize]),
            Some(r) => r.decide(view),
        }
    }

    fn name(&self) -> &str {
        self.name
    }
}
