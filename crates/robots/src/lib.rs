//! # robots — oblivious mobile-robot simulation core
//!
//! The Look-Compute-Move (LCM) substrate of the paper (§II-A):
//!
//! * [`Configuration`] — the set of robot positions on the triangular
//!   grid (robots are anonymous; a configuration is just the set of
//!   robot nodes).
//! * [`View`] — what a single robot observes: the occupancy of the nodes
//!   within its visibility range, **and nothing else**. Algorithms
//!   receive only a `View`, so the type system enforces the visibility
//!   model.
//! * [`Algorithm`] — a deterministic, memoryless rule `View → Option<Dir>`
//!   (`None` = stay). Obliviousness is enforced by the `&self` signature
//!   over an immutable rule set.
//! * [`engine`] — the FSYNC round function with the paper's exact
//!   collision semantics (edge swaps and node sharing are fatal;
//!   "trains" into vacated nodes are legal), plus a full execution
//!   runner with fixpoint, livelock, disconnection and gathering
//!   detection.
//! * [`sched`] — activation schedulers beyond FSYNC (round-robin,
//!   random subsets, recorded-schedule replay) for the paper's
//!   future-work question of weaker synchrony.
//! * [`explore`] — the semantics-generic transition-system explorer:
//!   BFS over `(canonical class, packed auxiliary key)` states with
//!   stabilizer-subset dedup and one exact fair-cycle decision per
//!   cyclic SCC (proof or lasso refutation), parameterized by a
//!   pluggable [`explore::Semantics`].
//! * [`checker`] — the one exhaustive model checker over the explorer,
//!   [`checker::ModelChecker`], generic over a small
//!   [`checker::Model`] type per model (its options, semantics and
//!   goal, and report). The three checkers below are its aliases.
//! * [`adversary`] — an exhaustive SSYNC adversary model checker
//!   (crash semantics with budget 0) that classifies an initial class
//!   as adversary-proof, refuted (with a minimal replayable
//!   counterexample schedule) or undecided.
//! * [`faults`] — the crash-fault scenario model (crash budget `f`,
//!   relaxed gathering of the live robots) with replayable
//!   schedule + crash assignments.
//! * [`async_model`] — the ASYNC phase-interleaving model: the same
//!   explorer over `(class, packed pending vector)` states with
//!   single-robot phase-advance actions, plus scheduled walks and
//!   replay over the shared [`async_model::advance_phase`] successor
//!   function.
//! * [`visited`] — shared canonical-class memoization primitives
//!   (packed-key [`visited::ClassSet`]/[`visited::ClassMap`], both on
//!   the flat [`visited::FlatKeyIndex`] that also backs the explorer's
//!   class table) used by the engine's livelock detector and the
//!   impossibility simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
mod algorithm;
pub mod async_model;
pub mod checker;
mod config;
pub mod engine;
pub mod explore;
pub mod faults;
pub mod sched;
pub mod view;
pub mod visited;

pub use adversary::{AdversaryReport, AdversaryVerdict, Checker};
pub use algorithm::{Algorithm, FnAlgorithm, StayAlgorithm};
pub use async_model::{AsyncChecker, AsyncOptions, AsyncReport, AsyncVerdict};
pub use config::{
    ball_capacity, hexagon, min_gather_radius, CapacityError, Configuration, PackedClass,
    PackedPending,
};
pub use engine::{run, run_traced, Execution, Limits, Move, Outcome, RoundCollision, RoundResult};
pub use faults::{CrashChecker, CrashOptions, CrashReport, CrashVerdict};
pub use view::View;
