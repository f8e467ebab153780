//! End-to-end test of the `twostep-dist` binary: a real multi-process
//! partitioned exploration — coordinator spawning worker OS processes,
//! segment-file rendezvous, merge, canonical replay — whose printed
//! aggregates must match an in-process serial exploration of the same
//! system exactly.

use std::process::Command;

use twostep_core::crw_processes;
use twostep_model::{SystemConfig, WideValue};
use twostep_modelcheck::{explore_with, ExploreConfig, ExploreOptions};

fn field(line: &str, key: &str) -> String {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no {key}= field in {line:?}"))
        .to_string()
}

#[test]
fn dist_bin_matches_serial_exploration() {
    let (n, t) = (4usize, 3usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals: Vec<WideValue> = (0..n).map(|i| WideValue::new(1, (i % 2) as u64)).collect();
    let serial = explore_with(
        system,
        ExploreConfig::for_crw(&system),
        ExploreOptions::serial(),
        crw_processes(&system, &proposals),
        proposals,
    )
    .unwrap();

    let output = Command::new(env!("CARGO_BIN_EXE_twostep-dist"))
        .args([
            "--n",
            &n.to_string(),
            "--t",
            &t.to_string(),
            "--partitions",
            "2",
            "--worker-threads",
            "2",
        ])
        .output()
        .expect("twostep-dist runs");
    assert!(
        output.status.success(),
        "twostep-dist failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let summary = stdout
        .lines()
        .find(|l| l.contains("distinct_states="))
        .unwrap_or_else(|| panic!("no summary line in {stdout:?}"));

    assert_eq!(
        field(summary, "distinct_states"),
        serial.distinct_states.to_string(),
        "distinct states across process boundary"
    );
    assert_eq!(
        field(summary, "terminals"),
        serial.root.terminals.to_string(),
        "terminal executions across process boundary"
    );
    assert_eq!(field(summary, "violating"), "false");
    assert_eq!(field(summary, "partitions"), "2");
}

/// Runs `twostep-dist` with `args` and returns its exit code and stderr.
fn run_dist(args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_twostep-dist"))
        .args(args)
        .output()
        .expect("twostep-dist runs");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn dist_bin_refuses_bad_systems_without_panicking() {
    // No valid system: one line, exit 2, as a worker handed one does.
    let (code, stderr) = run_dist(&["--n", "3", "--t", "3"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("invalid system (3, 3)"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");

    // A round wider than the explorer takes: the explorer's error, exit 1.
    let (code, stderr) = run_dist(&["--n", "17", "--t", "1", "--partitions", "1"]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("round 1: p1 has 65553 crash outcomes"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
