//! `repro` refuses a `key=value` argument that no experiment of the run
//! reads, before it runs anything: a misspelt or foreign key would
//! otherwise print the default tables as if they answered the question.

use std::process::Command;

/// Runs `repro args`, expects exit 2 with no stdout, and returns stderr.
fn refused(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(output.stdout.is_empty(), "{args:?} printed to stdout");
    stderr
}

#[test]
fn a_key_the_experiment_does_not_read_exits_2() {
    let stderr = refused(&["e5-lowerbound", "n=8"]);
    assert!(stderr.contains("`n`"), "the key is not named: {stderr}");

    // Keys are case-sensitive: `N` is not the ablation's `n`, and the
    // `t` it does read is not named.
    let stderr = refused(&["ablation-commit-order", "N=5", "t=2"]);
    assert!(stderr.contains("`N`"), "the key is not named: {stderr}");
    assert!(!stderr.contains("`t`"), "a read key is named: {stderr}");
}

#[test]
fn under_all_a_key_counts_as_read_if_any_experiment_reads_it() {
    // `n` is E1's (and others'), `bogus` nobody's; nothing runs, so this
    // costs no experiment.
    let stderr = refused(&["all", "n=3", "bogus=1"]);
    assert!(stderr.contains("`bogus`"), "the key is not named: {stderr}");
    assert!(!stderr.contains("`n`"), "a read key is named: {stderr}");
}
