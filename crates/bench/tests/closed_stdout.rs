//! A reproduction binary whose reader closes the pipe ends quietly.

use std::process::{Command, Stdio};

#[test]
fn repro_criteria_ends_quietly_on_a_closed_pipe() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro_criteria"))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run repro_criteria");
    // The reader goes away before the first line is written.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("repro_criteria ends");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(stderr.is_empty(), "{stderr}");
}
