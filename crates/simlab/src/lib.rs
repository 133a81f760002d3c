//! # simlab — the experiment harness
//!
//! Regenerates the paper's evaluation:
//!
//! * [`verify`] — the §IV-B experiment: run a candidate algorithm from
//!   **every** connected seven-robot initial configuration (all 3652
//!   translation classes) and check that each execution gathers without
//!   collision, disconnection or livelock.
//! * [`stats`] — steps-to-gather distributions and summaries (an
//!   extension; the paper reports only the boolean verdict).
//! * [`render`] — ASCII rendering of triangular-grid configurations and
//!   traces (used to reproduce the paper's figures in the terminal).
//! * [`export`] — JSON/CSV export of verification reports.
//! * [`sweep`] — the sharded, resumable verification pipeline over the
//!   {algorithm} × {scheduler} matrix, behind the `sweep` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod export;
pub mod render;
pub mod stats;
pub mod sweep;
pub mod verify;

pub use verify::{verify_all, verify_classes, verify_detailed, ClassResult, VerificationReport};
