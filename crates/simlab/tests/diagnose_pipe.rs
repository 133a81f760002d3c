//! `diagnose` run into a pipe whose reader has gone away (as in
//! `diagnose --stats | head`) must exit quietly with status 0, not
//! panic on the failed write.

use std::process::{Command, Stdio};

#[test]
fn diagnose_exits_quietly_when_its_reader_closes() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_diagnose"))
        .args(["--stats", "--n", "5", "--class", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("diagnose starts");
    // Close the read end before the child writes its first line.
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("diagnose runs to the end");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "exit status {}; stderr:\n{stderr}", output.status);
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
}
