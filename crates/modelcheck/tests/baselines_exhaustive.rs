//! Exhaustive verification of the classic-model baselines over the
//! complete crash-adversary space for small systems.  The early-stopping
//! algorithm in particular has a subtle early-decision rule; checking all
//! executions is the only test that really settles it.

use twostep_baselines::{earlystop_processes, floodset_processes};
use twostep_model::SystemConfig;
use twostep_modelcheck::{explore, ExploreConfig, RoundBound, SpecMode, Symmetry};

use twostep_sim::ModelKind;

fn proposals(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| 10 + i).collect()
}

#[test]
fn floodset_exhaustive_n3_t2() {
    let system = SystemConfig::new(3, 2).unwrap();
    let options = ExploreConfig {
        model: ModelKind::Classic,
        max_rounds: 4,
        max_states: 5_000_000,
        round_bound: Some(RoundBound::Fixed(3)), // t + 1
        max_crashes_per_round: None,
        symmetry: Symmetry::Off,
        spec: SpecMode::Uniform,
    };
    let report = explore(
        system,
        options,
        floodset_processes(3, 2, &proposals(3)),
        proposals(3),
    )
    .unwrap();
    assert!(
        !report.root.violating,
        "witness: {:?}",
        report.witness.map(|w| (w.schedule, w.violations))
    );
    assert!(report.root.terminals > 100);
}

#[test]
fn floodset_exhaustive_n4_t1() {
    let system = SystemConfig::new(4, 1).unwrap();
    let options = ExploreConfig {
        model: ModelKind::Classic,
        max_rounds: 3,
        max_states: 5_000_000,
        round_bound: Some(RoundBound::Fixed(2)),
        max_crashes_per_round: None,
        symmetry: Symmetry::Off,
        spec: SpecMode::Uniform,
    };
    let report = explore(
        system,
        options,
        floodset_processes(4, 1, &proposals(4)),
        proposals(4),
    )
    .unwrap();
    assert!(!report.root.violating);
}

#[test]
fn earlystop_exhaustive_n3_t2() {
    let system = SystemConfig::new(3, 2).unwrap();
    let options = ExploreConfig {
        model: ModelKind::Classic,
        max_rounds: 4,
        max_states: 10_000_000,
        round_bound: Some(RoundBound::ClassicEarly { t: 2 }),
        max_crashes_per_round: None,
        symmetry: Symmetry::Off,
        spec: SpecMode::Uniform,
    };
    let report = explore(
        system,
        options,
        earlystop_processes(3, 2, &proposals(3)),
        proposals(3),
    )
    .unwrap();
    assert!(
        !report.root.violating,
        "witness: {:?}",
        report.witness.map(|w| (w.schedule, w.violations))
    );
    // Early decision really happens: with f = 0 the worst round is 2
    // (min(f+2, t+1) = 2), not the flooding t+1 = 3.
    assert_eq!(report.root.worst_round_by_f[0], Some(2));
}

#[test]
fn earlystop_exhaustive_n4_t2() {
    let system = SystemConfig::new(4, 2).unwrap();
    let options = ExploreConfig {
        model: ModelKind::Classic,
        max_rounds: 4,
        max_states: 20_000_000,
        round_bound: Some(RoundBound::ClassicEarly { t: 2 }),
        max_crashes_per_round: None,
        symmetry: Symmetry::Off,
        spec: SpecMode::Uniform,
    };
    let report = explore(
        system,
        options,
        earlystop_processes(4, 2, &proposals(4)),
        proposals(4),
    )
    .unwrap();
    assert!(
        !report.root.violating,
        "witness: {:?}",
        report.witness.map(|w| (w.schedule, w.violations))
    );
    // The min(f+2, t+1) shape over the full space: f=0 ⇒ 2, f=1 ⇒ 3,
    // f=2 ⇒ 3 (capped by t+1).
    assert_eq!(report.root.worst_round_by_f[0], Some(2));
    assert_eq!(report.root.worst_round_by_f[1], Some(3));
    assert_eq!(report.root.worst_round_by_f[2], Some(3));
}
