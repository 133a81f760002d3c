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
//!
//! `diagnose` and `show_overrides` print through [`write_stdout`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::{self, Write};

pub mod experiments;
pub mod export;
pub mod render;
pub mod stats;
pub mod sweep;
pub mod verify;

pub use verify::{verify_all, verify_classes, verify_detailed, ClassResult, VerificationReport};

/// Runs `write` as a command-line tool's whole output, through one
/// locked stdout. A reader that closes early (`tool | head -1`) has all
/// the output it wanted, so a broken pipe returns quietly, for the tool
/// to exit 0; any other write error prints a message naming `tool` and
/// exits with status 1.
pub fn write_stdout(
    tool: &str,
    write: impl FnOnce(&mut io::StdoutLock<'static>) -> io::Result<()>,
) {
    let mut out = io::stdout().lock();
    if let Err(e) = write(&mut out).and_then(|()| out.flush()) {
        if e.kind() != io::ErrorKind::BrokenPipe {
            eprintln!("{tool}: writing to stdout failed: {e}");
            std::process::exit(1);
        }
    }
}
