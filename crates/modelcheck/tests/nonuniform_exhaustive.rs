//! Exhaustive verification of the non-uniform early-deciding baseline —
//! the Charron-Bost–Schiper landscape, mechanized:
//!
//! * under **plain** agreement, the algorithm is correct on every
//!   execution and decides by round `f+1` — matching the paper's extended-
//!   model bound, but in the classic model;
//! * under **uniform** agreement it provably fails, and the checker
//!   produces the concrete decide-then-crash counterexample — the very
//!   scenario the paper's commit messages eliminate.

use twostep_baselines::nonuniform_processes;
use twostep_model::SystemConfig;
use twostep_modelcheck::{explore, ExploreConfig, RoundBound, SpecMode, Symmetry};

use twostep_sim::{ModelKind, SpecViolation};

fn proposals(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| 10 + i).collect()
}

#[test]
fn plain_agreement_holds_and_decides_by_f_plus_1_n3() {
    let n = 3;
    let t = 2;
    let system = SystemConfig::new(n, t).unwrap();
    let options = ExploreConfig {
        model: ModelKind::Classic,
        max_rounds: t as u32 + 2,
        max_states: 10_000_000,
        round_bound: Some(RoundBound::FPlus(1)),
        max_crashes_per_round: None,
        symmetry: Symmetry::Off,
        spec: SpecMode::NonUniform,
    };
    let report = explore(
        system,
        options,
        nonuniform_processes(n, t, &proposals(n)),
        proposals(n),
    )
    .unwrap();
    assert!(
        !report.root.violating,
        "witness: {:?}",
        report.witness.map(|w| (w.schedule, w.violations))
    );
    // Decision-by-f+1, over the whole space: f=0 ⇒ 1 (vs the uniform
    // algorithm's 2), f=1 ⇒ 2, f=2 ⇒ 3.
    for f in 0..=t {
        assert_eq!(report.root.worst_round_by_f[f], Some(f as u32 + 1), "f={f}");
    }
}

#[test]
fn plain_agreement_holds_n4_t2() {
    let n = 4;
    let t = 2;
    let system = SystemConfig::new(n, t).unwrap();
    let options = ExploreConfig {
        model: ModelKind::Classic,
        max_rounds: t as u32 + 2,
        max_states: 30_000_000,
        round_bound: Some(RoundBound::FPlus(1)),
        max_crashes_per_round: None,
        symmetry: Symmetry::Off,
        spec: SpecMode::NonUniform,
    };
    let report = explore(
        system,
        options,
        nonuniform_processes(n, t, &proposals(n)),
        proposals(n),
    )
    .unwrap();
    assert!(
        !report.root.violating,
        "witness: {:?}",
        report.witness.map(|w| (w.schedule, w.violations))
    );
}

#[test]
fn uniformity_provably_fails_with_witness() {
    // The CBS separation, found mechanically: checking the SAME algorithm
    // against UNIFORM agreement must produce a counterexample — a process
    // that decides on a clean-looking view and crashes, while survivors
    // settle on a different value.
    let n = 3;
    let t = 2;
    let system = SystemConfig::new(n, t).unwrap();
    let options = ExploreConfig {
        model: ModelKind::Classic,
        max_rounds: t as u32 + 2,
        max_states: 10_000_000,
        round_bound: None, // isolate the agreement property
        max_crashes_per_round: None,
        symmetry: Symmetry::Off,
        spec: SpecMode::Uniform,
    };
    let report = explore(
        system,
        options,
        nonuniform_processes(n, t, &proposals(n)),
        proposals(n),
    )
    .unwrap();
    assert!(report.root.violating, "uniformity must fail somewhere");
    let witness = report.witness.expect("counterexample");
    assert!(
        witness
            .violations
            .iter()
            .any(|v| matches!(v, SpecViolation::UniformAgreement { .. })),
        "the failure is specifically uniform agreement: {:?}",
        witness.violations
    );
    // And the deviating decider is faulty in the witness schedule (plain
    // agreement among correct processes still holds).
    assert!(
        !witness
            .violations
            .iter()
            .any(|v| matches!(v, SpecViolation::Agreement { .. })),
        "correct processes never disagree: {:?}",
        witness.violations
    );
}
