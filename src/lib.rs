//! # trigather — gathering seven autonomous mobile robots on triangular grids
//!
//! A full reproduction of *"Gathering of seven autonomous mobile robots
//! on triangular grids"* (Shibata, Ohyabu, Sudo, Nakamura, Kim,
//! Katayama; APDCM/IPDPSW 2021, arXiv:2103.08172), as a workspace of
//! focused crates re-exported here:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`trigrid`] | triangular-grid geometry in doubled coordinates |
//! | [`polyhex`] | enumeration of connected node sets (the 3652 initial classes) |
//! | [`parallel`] | small parallel executors for the exhaustive sweeps |
//! | [`robots`] | oblivious-robot Look-Compute-Move simulation core |
//! | [`gathering`] | **the paper's contribution**: the visibility-2 algorithm |
//! | [`impossibility`] | machine verification of Theorem 1 (visibility 1) |
//! | [`simlab`] | exhaustive verification, statistics, rendering, export |
//!
//! ## Quickstart
//!
//! ```
//! use trigather::prelude::*;
//!
//! // Seven robots in a row, the verified algorithm, FSYNC.
//! let line = Configuration::new((0..7).map(|i| Coord::new(2 * i, 0)));
//! let ex = trigather::robots::engine::run(&line, &SevenGather::verified(), Limits::default());
//! assert!(ex.outcome.is_gathered());
//! ```
//!
//! ## The paper's two results
//!
//! * **Theorem 2** (positive): with visibility range 2 the algorithm
//!   gathers from *every* connected initial configuration. Reproduce
//!   with `cargo run --release --example exhaustive_verification` —
//!   3652/3652 classes gather.
//! * **Theorem 1** (negative): with visibility range 1 no collision-free
//!   algorithm exists. The machine proof is
//!   `cargo run --release -p simlab --bin impossibility_proof` (minutes
//!   to hours; add `-- --symmetric` for the mirror-symmetric
//!   restriction, proved in microseconds), and
//!   `cargo run --release --example impossibility_search` replays the
//!   paper's §III witnesses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gathering;
pub use impossibility;
pub use parallel;
pub use polyhex;
pub use robots;
pub use simlab;
pub use trigrid;

/// The most common imports for working with the library.
pub mod prelude {
    pub use gathering::SevenGather;
    pub use robots::{Algorithm, Configuration, Execution, Limits, Outcome, View};
    pub use trigrid::{Coord, Dir, ORIGIN};
}
