//! End-to-end test of the experiment entry point: argument parsing, exit
//! codes, and usage output of the compiled `maestro-bench` binary.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_maestro-bench")).args(args).output().expect("binary runs")
}

/// Assert the run was rejected as bad usage: exit 2, usage on stderr,
/// nothing on stdout.
fn assert_usage_error(args: &[&str]) {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(stderr.contains("usage: maestro-bench"), "{args:?}: stderr {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
}

#[test]
fn test_scale_table1_prints_table_one() {
    let out = run(&["--test-scale", "--jobs", "2", "table1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("Table I"), "{stdout}");
}

#[test]
fn unknown_experiment_is_a_usage_error() {
    assert_usage_error(&["--test-scale", "no-such-table"]);
}

#[test]
fn retired_gate_and_json_are_usage_errors() {
    assert_usage_error(&["gate", "--current", "a.json", "--baseline", "b.json"]);
    assert_usage_error(&["--test-scale", "table1", "--json", "out.json"]);
}

#[test]
fn zero_jobs_is_a_usage_error() {
    assert_usage_error(&["--test-scale", "--jobs", "0", "table1"]);
}

#[test]
fn no_experiment_is_a_usage_error() {
    assert_usage_error(&["--test-scale"]);
}
