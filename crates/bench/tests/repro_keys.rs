//! `repro` refuses a `key=value` argument that no experiment of the run
//! reads, a malformed value and a stray argument, before it runs
//! anything: each would otherwise print the default tables as if they
//! answered the question, or panic.

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

#[test]
fn a_stray_argument_exits_2_naming_it() {
    // A misspelt flag, and a second experiment name: neither is the
    // experiment, `--csv` or a `key=value`.
    for (args, token) in [
        (&["ablation-commit-order", "--cvs"][..], "`--cvs`"),
        (
            &["ablation-commit-order", "e5-lowerbound"][..],
            "`e5-lowerbound`",
        ),
        (&["--cvs", "ablation-commit-order"][..], "`--cvs`"),
    ] {
        let stderr = refused(args);
        assert!(stderr.contains(token), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: repro"),
            "{args:?}: no usage line: {stderr}"
        );
    }
}

#[test]
fn a_malformed_value_exits_2_naming_its_token() {
    for (args, token) in [
        (&["e1-rounds", "n=banana"][..], "`n=banana`"),
        (&["e2-bestcase", "sizes=4,x"][..], "`sizes=4,x`"),
        (&["all", "seeds=-1"][..], "`seeds=-1`"),
    ] {
        let stderr = refused(args);
        assert!(stderr.contains(token), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: repro"),
            "{args:?}: no usage line: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
