//! The report binaries, run into a pipe whose reader has gone away (as
//! in `diagnose --stats | head`), must exit quietly with status 0, not
//! panic on the failed write; and `diagnose` must read its algorithm
//! wherever it stands among the flags.

use std::process::{Command, Stdio};

/// Runs `bin` with `args`, closing the read end of its stdout before
/// the child writes its first line, and expects a quiet exit 0.
fn exits_quietly_when_its_reader_closes(bin: &str, args: &[&str]) {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the binary starts");
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("the binary runs to the end");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{bin}: exit status {}; stderr:\n{stderr}", output.status);
    assert!(!stderr.contains("panicked"), "{bin}: stderr:\n{stderr}");
}

#[test]
fn diagnose_exits_quietly_when_its_reader_closes() {
    exits_quietly_when_its_reader_closes(
        env!("CARGO_BIN_EXE_diagnose"),
        &["--stats", "--n", "5", "--class", "0"],
    );
}

#[test]
fn show_overrides_exits_quietly_when_its_reader_closes() {
    exits_quietly_when_its_reader_closes(env!("CARGO_BIN_EXE_show_overrides"), &[]);
}

#[test]
fn diagnose_reads_the_algorithm_in_any_argument_order() {
    // The paper's printed rules gather 883 of the 3652 classes; the
    // verified rules gather all of them.
    for args in [["paper", "--top", "1"], ["--top", "1", "paper"]] {
        let output = Command::new(env!("CARGO_BIN_EXE_diagnose"))
            .args(args)
            .output()
            .expect("diagnose runs to the end");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(output.status.success(), "{args:?}: exit status {}", output.status);
        assert!(stdout.contains("gathered 883/3652"), "{args:?}: stdout:\n{stdout}");
    }
}
