//! Exhaustive verification of the paper's algorithm over the complete
//! adversary space for small systems — the mechanical counterpart of
//! Theorems 1–5.

use twostep_core::{crw_processes, CommitOrder, Crw};
use twostep_model::{ProcessId, SystemConfig, WideValue};
use twostep_modelcheck::{explore, ExploreConfig, ExploreError, RoundBound};

/// Binary proposals 0/1 alternating — the bivalency argument's input space.
fn binary_proposals(n: usize) -> Vec<WideValue> {
    (0..n).map(|i| WideValue::new(1, (i % 2) as u64)).collect()
}

fn explore_crw(
    n: usize,
    t: usize,
    proposals: &[WideValue],
) -> twostep_modelcheck::ExploreReport<WideValue> {
    let system = SystemConfig::new(n, t).unwrap();
    let options = ExploreConfig::for_crw(&system);
    explore(
        system,
        options,
        crw_processes(&system, proposals),
        proposals.to_vec(),
    )
    .unwrap()
}

#[test]
fn crw_satisfies_spec_on_every_execution_n3() {
    let report = explore_crw(3, 2, &binary_proposals(3));
    assert!(!report.root.violating, "spec holds on all executions");
    assert!(report.witness.is_none());
    assert!(report.root.terminals > 20, "space is non-trivial");
}

#[test]
fn crw_satisfies_spec_on_every_execution_n4() {
    let report = explore_crw(4, 3, &binary_proposals(4));
    assert!(!report.root.violating);
    assert!(report.root.terminals > 1_000);
}

#[test]
fn crw_satisfies_spec_at_intermediate_resilience_n4_t2() {
    // A different corner: budget below n-1.  The adversary can no longer
    // kill every coordinator, and the bound tightens accordingly.
    let report = explore_crw(4, 2, &binary_proposals(4));
    assert!(!report.root.violating);
    for f in 0..=2usize {
        assert_eq!(report.root.worst_round_by_f[f], Some(f as u32 + 1));
    }
}

#[test]
fn crw_satisfies_spec_wide_system_thin_budget_n5_t1() {
    // Wide system, a single allowed crash: every one-crash behaviour
    // (all data subsets over four destinations, all commit prefixes,
    // decide-then-die) is enumerated.
    let report = explore_crw(5, 1, &binary_proposals(5));
    assert!(!report.root.violating);
    assert_eq!(report.root.worst_round_by_f[0], Some(1));
    assert_eq!(report.root.worst_round_by_f[1], Some(2));
    // With ≤ 1 crash and mixed binary inputs, the adversary can still
    // steer: the initial configuration is bivalent.
    assert!(report.root.is_bivalent());
}

#[test]
fn crw_worst_round_is_exactly_f_plus_1() {
    // Theorem 1 (upper bound) + Theorem 4 (matching lower bound), checked
    // over *every* execution: for each actual crash count f, the worst
    // last-decision round equals f + 1 exactly.
    for (n, t) in [(3usize, 2usize), (4, 3)] {
        let report = explore_crw(n, t, &binary_proposals(n));
        for f in 0..=t {
            let worst = report.root.worst_round_by_f[f]
                .unwrap_or_else(|| panic!("no terminal with f={f}?"));
            assert_eq!(worst, f as u32 + 1, "n={n}: worst decision round for f={f}");
        }
    }
}

#[test]
fn crw_initial_configuration_is_bivalent_with_mixed_proposals() {
    // Both 0 and 1 are decidable from the initial configuration (the
    // adversary steers by killing coordinators) — the starting point of
    // the bivalency lower-bound argument.
    let report = explore_crw(3, 2, &binary_proposals(3));
    assert!(report.root.is_bivalent());
    // And bivalent configurations exist beyond round 1: the census must
    // show at least one bivalent configuration at rounds 1 and 2.
    let r1 = report
        .bivalency_by_round
        .iter()
        .find(|(r, _, _)| *r == 1)
        .unwrap();
    let r2 = report
        .bivalency_by_round
        .iter()
        .find(|(r, _, _)| *r == 2)
        .unwrap();
    assert!(r1.2 >= 1, "round-1 bivalent configs: {r1:?}");
    assert!(r2.2 >= 1, "round-2 bivalent configs: {r2:?}");
}

#[test]
fn crw_univalent_with_unanimous_proposals() {
    // Validity forces univalence when everyone proposes the same value.
    let unanimous: Vec<WideValue> = (0..3).map(|_| WideValue::new(1, 1)).collect();
    let report = explore_crw(3, 2, &unanimous);
    assert!(!report.root.violating);
    assert_eq!(report.root.decided.len(), 1);
    assert_eq!(report.root.decided[0].ident(), 1);
}

/// CRW at `(n, t)` with ascending commits, checked against the `f+1`
/// bound or without it.
fn explore_lowest_first(
    n: usize,
    t: usize,
    round_bound: Option<RoundBound>,
) -> twostep_modelcheck::ExploreReport<WideValue> {
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = binary_proposals(n);
    let procs: Vec<Crw<WideValue>> = proposals
        .iter()
        .enumerate()
        .map(|(i, v)| Crw::with_order(ProcessId::from_idx(i), n, *v, CommitOrder::LowestFirst))
        .collect();
    let config = ExploreConfig {
        round_bound,
        ..ExploreConfig::for_crw(&system)
    };
    explore(system, config, procs, proposals).unwrap()
}

#[test]
fn ablation_ascending_commits_violate_theorem1_exhaustively() {
    // The commit-order reconstruction (see twostep-core docs): with
    // ascending commits the f+1 bound fails somewhere in the execution
    // space, and the explorer both flags it and reconstructs a concrete
    // schedule — at (4,2) and at (6,3), a budget below n − 1 on a wider
    // system.  Uniform agreement itself still holds (checked by running
    // (4,2) again without the round bound).
    for (n, t) in [(4, 2), (6, 3)] {
        let report = explore_lowest_first(n, t, Some(RoundBound::FPlus(1)));
        assert!(
            report.root.violating,
            "({n},{t}): ascending commit order must break the f+1 bound somewhere"
        );
        let witness = report.witness.expect("counterexample schedule");
        assert!(
            !witness.violations.is_empty(),
            "({n},{t}): witness carries the violations"
        );
    }

    let report = explore_lowest_first(4, 2, None);
    assert!(
        !report.root.violating,
        "agreement/validity/termination still hold without the bound"
    );
}

#[test]
fn state_budget_error_is_reported_not_panicked() {
    let system = SystemConfig::new(4, 3).unwrap();
    let options = ExploreConfig {
        max_states: 10,
        ..ExploreConfig::for_crw(&system)
    };
    let proposals = binary_proposals(4);
    let err = explore(
        system,
        options,
        crw_processes(&system, &proposals),
        proposals,
    )
    .unwrap_err();
    assert!(matches!(err, ExploreError::StateLimit { budget: 10 }));
}

/// Theorem 3's restricted adversary (at most one crash per round) still
/// forces the `f+1` worst case — the §5 proof does not need crash bursts
/// — while exploring a strictly smaller execution space.
#[test]
fn theorem3_one_crash_per_round_adversary_still_forces_f_plus_1() {
    let proposals = binary_proposals(4);
    let system = SystemConfig::new(4, 3).unwrap();

    let full = explore(
        system,
        ExploreConfig::for_crw(&system),
        crw_processes(&system, &proposals),
        proposals.clone(),
    )
    .unwrap();
    let restricted = explore(
        system,
        ExploreConfig::theorem3(&system),
        crw_processes(&system, &proposals),
        proposals.clone(),
    )
    .unwrap();

    assert!(
        !restricted.root.violating,
        "spec holds under the restriction"
    );
    for f in 0..=3usize {
        assert_eq!(
            restricted.root.worst_round_by_f[f],
            Some(f as u32 + 1),
            "restricted worst at f={f}"
        );
        assert_eq!(
            full.root.worst_round_by_f[f],
            Some(f as u32 + 1),
            "unrestricted worst at f={f}"
        );
    }
    assert!(
        restricted.root.terminals < full.root.terminals,
        "one-per-round is a strict subset of the adversary space: {} vs {}",
        restricted.root.terminals,
        full.root.terminals
    );
    // The initial configuration stays bivalent under the restriction —
    // the starting point of the Theorem 3 bivalency argument.
    assert!(restricted.root.is_bivalent());
}

/// With the per-round cap at 0 the adversary is impotent: every run is
/// failure-free and decides in round 1.
#[test]
fn zero_crashes_per_round_cap_means_failure_free_space() {
    let proposals = binary_proposals(3);
    let system = SystemConfig::new(3, 2).unwrap();
    let report = explore(
        system,
        ExploreConfig {
            max_crashes_per_round: Some(0),
            ..ExploreConfig::for_crw(&system)
        },
        crw_processes(&system, &proposals),
        proposals.clone(),
    )
    .unwrap();
    assert_eq!(report.root.terminals, 1, "exactly the failure-free run");
    assert_eq!(report.root.worst_round_by_f[0], Some(1));
    assert!(!report.root.is_bivalent(), "p1 always wins: univalent");
}

/// `B(n, t, r)` for `r = 1, 2, …`: the bivalent configurations a walk of
/// CRW over [`binary_proposals`] meets at round `r`.  The same walk also
/// checks the specification on every execution and that the worst
/// decision round is exactly `f + 1` for every `f ≤ t` (Theorems 1 and
/// 4), so every rung of every chain below is a rung of E5a too.
fn bivalent_by_round(n: usize, t: usize) -> Vec<usize> {
    let report = explore_crw(n, t, &binary_proposals(n));
    assert!(!report.root.violating, "({n},{t}): spec violated");
    let f_plus_1: Vec<Option<u32>> = (1..=t as u32 + 1).map(Some).collect();
    assert_eq!(
        report.root.worst_round_by_f, f_plus_1,
        "({n},{t}): worst round per f"
    );
    let census = report.bivalency_by_round;
    for (at, (round, _, _)) in census.iter().enumerate() {
        assert_eq!(*round as usize, at + 1, "({n},{t}): census rounds");
    }
    census.iter().map(|(_, _, bivalent)| *bivalent).collect()
}

/// The lower bound's induction as an identity between sizes: one more
/// process and one more crash buy exactly one more round of bivalence,
/// `B(n, t, r) = B(n − 1, t − 1, r − 1)` for every `r ≥ 4`.  Only rounds
/// 2 and 3 are new at each rung (at `r = 3` the identity fails: (8,7)
/// has 602 bivalent configurations there, (7,6) has 145 at round 2).
/// `chain` lists rungs one process and one crash apart, smallest first,
/// so each rung is walked once; the censuses come back in that order.
/// The walker is compared with itself at two sizes, which catches a bug
/// that depends on size.
fn assert_bivalence_shifts(chain: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let mut censuses: Vec<Vec<usize>> = Vec::new();
    for (at, &(n, t)) in chain.iter().enumerate() {
        let census = bivalent_by_round(n, t);
        if let Some(below) = censuses.last() {
            let (m, s) = chain[at - 1];
            assert_eq!(
                (m + 1, s + 1),
                (n, t),
                "a chain steps by one process and one crash"
            );
            assert_eq!(
                census.len(),
                below.len() + 1,
                "({n},{t}) has one more round than ({m},{s})"
            );
            assert_eq!(
                census[3..],
                below[2..],
                "B({n},{t},r) = B({m},{s},r-1) for r >= 4: {census:?} against {below:?}"
            );
        }
        censuses.push(census);
    }
    censuses
}

#[test]
fn bivalence_at_one_more_crash_is_one_round_later() {
    let max_resilience = assert_bivalence_shifts(&[(3, 2), (4, 3), (5, 4), (6, 5)]);
    assert_eq!(max_resilience[3], [1, 69, 50, 12, 2, 0, 0], "B(6,5,r)");
    assert_bivalence_shifts(&[(5, 3), (6, 4)]);
    assert_bivalence_shifts(&[(6, 3), (7, 4)]);
}

/// The same identity, with the specification and the `f + 1` worst
/// round on every rung, up to (10,9), where a debug walk is too slow for
/// tier-1; `ci.sh` runs it with `--release`.
#[test]
#[ignore = "release only: walks up to CRW (10,9); ci.sh runs it"]
fn bivalence_at_one_more_crash_is_one_round_later_up_to_10_9() {
    assert_bivalence_shifts(&[(6, 5), (7, 6), (8, 7), (9, 8), (10, 9)]);
    assert_bivalence_shifts(&[(6, 4), (7, 5), (8, 6)]);
    assert_bivalence_shifts(&[(7, 4), (8, 5), (9, 6)]);
}
