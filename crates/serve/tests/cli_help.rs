//! Command-line contract of the service binaries: `--help`/`-h` prints the
//! usage on stdout and exits 0; an unknown flag prints it on stderr and
//! exits 2.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

fn assert_help(bin: &str, args: &[&str]) {
    let out = run(bin, args);
    assert_eq!(out.status.code(), Some(0), "{bin} {args:?} must exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage:"), "{bin} {args:?} must print the usage on stdout, got {stdout:?}");
}

fn assert_bad_flag(bin: &str, args: &[&str]) {
    let out = run(bin, args);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?} must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{bin} {args:?} must print the usage on stderr, got {stderr:?}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} must keep stdout clean");
}

#[test]
fn ftclipd_help_exits_zero_and_bad_flags_exit_two() {
    let bin = env!("CARGO_BIN_EXE_ftclipd");
    assert_help(bin, &["--help"]);
    assert_help(bin, &["-h"]);
    assert_bad_flag(bin, &["--bogus"]);
}

#[test]
fn ftclipd_probe_help_exits_zero_and_bad_flags_exit_two() {
    let bin = env!("CARGO_BIN_EXE_ftclipd_probe");
    assert_help(bin, &["--help"]);
    assert_help(bin, &["-h"]);
    assert_help(bin, &["smoke", "--help"]);
    assert_bad_flag(bin, &["--bogus"]);
    assert_bad_flag(bin, &["smoke", "--bogus"]);
}
