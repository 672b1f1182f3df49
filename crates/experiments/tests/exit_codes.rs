//! `experiments`' process exit codes, checked on the built binary.

use std::process::{Command, Stdio};

#[test]
fn a_failed_report_write_is_an_io_error() {
    // A directory where `fig1.json` should go makes that write fail.
    let out = std::env::temp_dir().join(format!("experiments-exit-codes-{}", std::process::id()));
    std::fs::create_dir_all(out.join("fig1.json")).expect("create blocking directory");
    let status = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig1", "--quick", "--out"])
        .arg(&out)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn experiments");
    std::fs::remove_dir_all(&out).expect("remove scratch output");
    assert_eq!(status.code(), Some(4));
}

#[test]
fn a_bad_command_line_exits_with_the_usage_code() {
    let status = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig1", "--no-such-flag"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn experiments");
    assert_eq!(status.code(), Some(64));
}

#[test]
fn a_closed_stdout_is_an_io_error_not_a_panic() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig1", "fig2", "--quick"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn experiments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn help_prints_the_usage_and_ids_and_exits_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["e1", "-h"])
        .output()
        .expect("spawn experiments");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("experiments [IDS...|all]"), "{stdout}");
    assert!(stdout.contains("IDS: fig1,"), "{stdout}");
}
