//! # impossibility — machine verification of Theorem 1
//!
//! *"For robots with visibility range 1, there exists no collision-free
//! algorithm to solve the gathering problem even in the fully
//! synchronous (FSYNC) model."* (paper §III)
//!
//! A visibility-1 algorithm for oblivious robots that agree on the
//! x-axis and chirality is nothing but a total function from the 2^6 =
//! 64 possible views (occupancy of the six neighbours) to one of seven
//! actions (stay or one of six directions). The paper proves by a long
//! manual case analysis that **no** such function gathers seven robots
//! from every connected initial configuration. This crate proves the
//! same statement mechanically:
//!
//! * [`table::RuleTable`] — a (partial) visibility-1 rule table;
//! * [`sim`] — FSYNC simulation under a partial table, reporting the
//!   first unassigned view it needs (the branching literal);
//! * [`search`] — a DFS over partial tables with fail-first pruning,
//!   wrapped in a CEGIS loop: start from a small set of initial
//!   classes, and whenever some table survives them, find a concrete
//!   counterexample class from the full 3652 and add it. If the DFS
//!   exhausts the tree, **no algorithm exists** — impossibility proved
//!   (UNSAT on a subset of required instances is sound for UNSAT on all
//!   of them);
//! * [`replay`] — mechanical checks of the witnesses used by the
//!   paper's own proof (the Fig. 5 forced-stay configurations, the
//!   Fig. 12/13 livelock cycles, the deadlock configurations).
//!
//! ## Failure semantics (matching the paper)
//!
//! An execution fails when it collides, reaches a non-gathered fixpoint,
//! revisits a translation class (deterministic FSYNC ⇒ livelock), or
//! disconnects. The disconnection rule follows the paper's own reading
//! (§II-A: an oblivious robot that loses all neighbours "cannot know the
//! direction to reconstruct a connected configuration"); the search
//! treats *any* disconnection as terminal, exactly as the case analysis
//! of §III does ("a collision occurs or the configuration becomes
//! unconnected"). The `simlab` crate's `experiments` binary prints the
//! related measurement (E12: relaxed initial connectivity).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod replay;
pub mod search;
pub mod sim;
pub mod table;

pub use search::{prove_impossibility, prove_impossibility_symmetric, Certificate, SearchStats};
pub use table::RuleTable;
