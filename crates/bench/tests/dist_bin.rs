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

    // A system wider than the explorer takes: refused before any worker
    // is launched, naming the system and the limit, exit 1.
    let (code, stderr) = run_dist(&["--n", "65", "--t", "1"]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("65") && stderr.contains("64"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("dist-worker"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

/// Worker processes print their status lines on the stderr they share
/// with each other and the coordinator: each line goes out whole, so two
/// workers finishing at once leave two lines, neither cut into the other.
/// Whether two finish at once is up to the scheduler (a line written
/// piece by piece was cut into in about one debug run of twenty), so the
/// run is repeated.
#[test]
fn worker_status_lines_are_written_whole() {
    let prefix = "dist-worker:";
    for _ in 0..8 {
        let (code, stderr) = run_dist(&["--quick", "--partitions", "2"]);
        assert_eq!(code, Some(0), "stderr: {stderr}");
        for line in stderr.lines() {
            assert!(line.matches(prefix).count() <= 1, "spliced: {line:?}");
        }
        let status: Vec<&str> = (stderr.lines())
            .filter(|line| line.starts_with(prefix))
            .collect();
        for partition in 0..2 {
            let own = format!("{prefix} partition {partition}/2 ");
            let lines = status.iter().filter(|line| line.starts_with(&own));
            assert_eq!(lines.count(), 1, "partition {partition}: {stderr}");
        }
        assert_eq!(status.len(), 2, "stderr: {stderr}");
    }
}
