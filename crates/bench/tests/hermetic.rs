//! The paper's tables and the distributed CLI are configured by their
//! arguments alone: a shell that exports the `TWOSTEP_*` variables
//! earlier versions read as second spellings of a run's settings must
//! not change what either binary computes or prints, or make it write
//! anything.
//!
//! Each case runs a binary twice — once with every one of those
//! variables removed from the child's environment, once with a hostile
//! set of them exported — and compares the outputs.

use std::process::{Command, Output};

/// Every environment variable an earlier version of the workspace read:
/// the ten explorer and CLI knobs and the allocation probe's two.
const RETIRED: [&str; 12] = [
    "TWOSTEP_THREADS",
    "TWOSTEP_SYMMETRY",
    "TWOSTEP_DONATE_DEPTH",
    "TWOSTEP_MAX_STEPS",
    "TWOSTEP_DEADLINE_MS",
    "TWOSTEP_CACHE_DIR",
    "TWOSTEP_STEAL",
    "TWOSTEP_WATCHDOG_MS",
    "TWOSTEP_BACKOFF_MS",
    "TWOSTEP_FAULT",
    "TWOSTEP_BENCH_N",
    "TWOSTEP_BENCH_T",
];

/// Runs `exe args` with none of the [`RETIRED`] variables, then with
/// `exported` set, and returns both outputs.
fn clean_and_dirty(exe: &str, args: &[&str], exported: &[(&str, &str)]) -> [Output; 2] {
    [&[][..], exported].map(|exported| {
        let mut command = Command::new(exe);
        command.args(args);
        for name in RETIRED {
            command.env_remove(name);
        }
        command.envs(exported.iter().copied());
        command.output().expect("binary runs")
    })
}

/// The stdout of a run that must have succeeded.
fn stdout(output: &Output) -> String {
    assert!(
        output.status.success(),
        "exited with {}:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn lower_bound_tables_ignore_the_shell() {
    // A path of this test process's own; a clean run creates nothing
    // there.
    let root = std::env::temp_dir().join(format!("twostep-hermetic-{}", std::process::id()));
    let cache = root.join("cache");
    let cache_arg = cache.display().to_string();
    let [clean, dirty] = clean_and_dirty(
        env!("CARGO_BIN_EXE_repro"),
        &["e5-lowerbound"],
        &[
            ("TWOSTEP_SYMMETRY", "partial+value"),
            ("TWOSTEP_MAX_STEPS", "0"),
            ("TWOSTEP_CACHE_DIR", &cache_arg),
            ("TWOSTEP_THREADS", "1"),
        ],
    );
    let cache_written = cache.exists();
    let _ = std::fs::remove_dir_all(&root);
    let clean = stdout(&clean);
    assert_eq!(
        clean,
        stdout(&dirty),
        "the exported variables changed the E5 tables"
    );
    assert!(!cache_written, "the E5 run wrote {}", cache.display());
    // Debug and release builds print the same bytes, so one committed
    // copy pins the tables for both.
    assert!(
        clean == include_str!("e5-lowerbound.txt"),
        "`repro e5-lowerbound` no longer prints tests/e5-lowerbound.txt:\n{clean}"
    );
}

#[test]
fn dist_cli_ignores_the_shell() {
    let [clean, dirty] = clean_and_dirty(
        env!("CARGO_BIN_EXE_twostep-dist"),
        &["--quick", "--partitions", "2"],
        &[("TWOSTEP_STEAL", "1"), ("TWOSTEP_SYMMETRY", "full")],
    );
    let result = |output: &Output| {
        let stdout = stdout(output);
        assert!(
            !stdout.contains("steal workers="),
            "the elastic engine ran:\n{stdout}"
        );
        stdout
            .lines()
            .find(|line| line.starts_with("twostep-dist: result "))
            .unwrap_or_else(|| panic!("no result line in {stdout:?}"))
            .to_string()
    };
    assert_eq!(result(&clean), result(&dirty));
}
