//! Exhaustive verification of the §2.2 block simulation under a *stronger*
//! adversary than schedule translation produces: the explorer crashes the
//! wrapped protocol at **any classic sub-round with any stage**, i.e. at a
//! finer granularity than the extended model's own crash points.  Every
//! such classic behaviour corresponds to *some* extended-model behaviour
//! (a single-message "subset" is a prefix), so uniform consensus must
//! still hold, with decisions within `(f+1)·n` classic rounds.

use twostep_core::{crw_processes, Crw, ExtendedOnClassic};
use twostep_model::{SystemConfig, WideValue};
use twostep_modelcheck::{explore, ExploreConfig, RoundBound, SpecMode, Symmetry};

use twostep_sim::ModelKind;

#[test]
fn wrapped_crw_survives_arbitrary_classic_crashes_n3() {
    let n = 3;
    let system = SystemConfig::new(n, 2).unwrap();
    let proposals: Vec<WideValue> = (0..n).map(|i| WideValue::new(1, (i % 2) as u64)).collect();
    let wrapped: Vec<ExtendedOnClassic<Crw<WideValue>>> = crw_processes(&system, &proposals)
        .into_iter()
        .map(|p| ExtendedOnClassic::new(p, n))
        .collect();

    let options = ExploreConfig {
        model: ModelKind::Classic,
        // (t+1)+1 extended rounds' worth of blocks as a safety cap.
        max_rounds: (n as u32 + 2) * n as u32,
        max_states: 20_000_000,
        round_bound: Some(RoundBound::Scaled {
            base: n as u32,
            per_f: n as u32,
        }),
        max_crashes_per_round: None,
        symmetry: Symmetry::Off,
        spec: SpecMode::Uniform,
    };
    let report = explore(system, options, wrapped, proposals).unwrap();
    assert!(
        !report.root.violating,
        "witness: {:?}",
        report.witness.map(|w| (w.schedule, w.violations))
    );
    assert!(report.root.terminals > 50, "space is non-trivial");
    // The simulation preserves bivalence of the initial configuration.
    assert!(report.root.is_bivalent());
}

#[test]
fn scaled_bound_evaluates() {
    let b = RoundBound::Scaled { base: 3, per_f: 3 };
    assert_eq!(b.bound(0), 3);
    assert_eq!(b.bound(2), 9);
}
