//! Differential property test for symmetry reduction: for every `(n, t)`
//! with `n ≤ 5`, both model kinds, and every engine (serial, parallel,
//! spilling, partitioned, elastic steal), exploring with
//! `Symmetry::PartialValue` must agree with `Symmetry::Off` on
//! everything the checker *verifies* — the violation flag, the terminal
//! count (exact under effect-pruned adversary enumeration), the worst
//! decision round per `f`, the set of reachable decision values, and
//! the per-round bivalency *presence* — while `distinct_states` (the
//! work metric the reduction exists to shrink) only ever drops.
//!
//! Both bench protocols are rank-dependent (CRW's rotating coordinator,
//! FloodSet's identified senders), and the quotient pools what carries
//! no rank: settled records, and for CRW below `t = n − 1` the
//! rank-inert actives, are sorted into their slots, and for CRW's
//! binary proposals the value involution is quotiented on top.  Merged orbit
//! members enumerate their children in different orders, so the
//! `decided` *set* is pinned rather than its discovery order
//! ([`assert_quotient`]).
//!
//! Census semantics under the quotient: identical round list, per-round
//! counts become orbit counts (`≤` the raw counts), and a round has a
//! bivalent configuration after reduction iff it had one before.  Every
//! engine must still agree bit-for-bit *within* one mode.

use std::time::Duration;

use twostep_baselines::floodset_processes;
use twostep_core::crw_processes;
use twostep_model::{SystemConfig, WideValue};
use twostep_modelcheck::{
    explore_elastic_in_process, explore_partitioned_in_process, explore_with, DistOptions,
    ExploreConfig, ExploreOptions, ExploreReport, MemoConfig, RoundBound, SpecMode, StealConfig,
    Symmetry,
};
use twostep_sim::ModelKind;

/// Largest `n` explored at every `t`; larger `n` only with `t ≤ 2`
/// (same budget policy as `parallel_differential.rs`).
const FULL_DEPTH_N: usize = 4;

fn systems() -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for n in 2..=5usize {
        for t in 1..n {
            if n <= FULL_DEPTH_N || t <= 2 {
                out.push((n, t));
            }
        }
    }
    out
}

/// The engines the reduction must commute with.  Partitioned is run
/// separately (its entry point differs).
fn engines() -> Vec<(&'static str, ExploreOptions)> {
    vec![
        ("serial", ExploreOptions::serial()),
        (
            "parallel4",
            ExploreOptions::with_threads(4).with_cache(None),
        ),
        (
            "spill",
            ExploreOptions::serial()
                .with_memo(MemoConfig::spill(64))
                .with_cache(None),
        ),
    ]
}

/// Byte-for-byte identity of two reports (the determinism contract every
/// engine already honors, now required *per symmetry mode* too).
fn assert_identical<O: std::fmt::Debug + Eq>(
    a: &ExploreReport<O>,
    b: &ExploreReport<O>,
    label: &str,
) {
    assert_eq!(a.root, b.root, "{label}: root summary");
    assert_eq!(a.distinct_states, b.distinct_states, "{label}: states");
    assert_eq!(
        a.bivalency_by_round, b.bivalency_by_round,
        "{label}: census"
    );
}

/// The quotient contract: the verdict summary equal, except that
/// `decided` is compared as a *set* — the pooled tier merges orbits
/// whose members enumerate children in different orders, so discovery
/// order is not preserved (the memo sorts decided vectors into a normal
/// form instead).  Terminal counts stay exact: effect-pruned adversary
/// enumeration keeps one transition per live-effect class, so
/// pooled-orbit members contribute identical terminal counts.  The
/// state count never goes up; the census shrinks but keeps its round
/// shape and bivalency presence; a violating space still yields a
/// witness (reconstruction re-drives from the true initial
/// configuration, not from a canonical representative).
fn assert_quotient<O: std::fmt::Debug + Eq + Ord + Clone>(
    off: &ExploreReport<O>,
    quotient: &ExploreReport<O>,
    label: &str,
) {
    assert_eq!(
        off.root.violating, quotient.root.violating,
        "{label}: violation verdict"
    );
    assert_eq!(
        off.root.terminals, quotient.root.terminals,
        "{label}: terminal count must be exact"
    );
    assert_eq!(
        off.root.worst_round_by_f, quotient.root.worst_round_by_f,
        "{label}: per-f worst rounds"
    );
    let sorted = |v: &[O]| {
        let mut v = v.to_vec();
        v.sort_unstable();
        v
    };
    assert_eq!(
        sorted(&off.root.decided),
        sorted(&quotient.root.decided),
        "{label}: decided set"
    );
    assert!(
        quotient.distinct_states <= off.distinct_states,
        "{label}: reduction must never add states ({} > {})",
        quotient.distinct_states,
        off.distinct_states
    );
    assert_eq!(
        off.bivalency_by_round.len(),
        quotient.bivalency_by_round.len(),
        "{label}: census rounds"
    );
    for ((r_off, c_off, b_off), (r_q, c_q, b_q)) in off
        .bivalency_by_round
        .iter()
        .zip(&quotient.bivalency_by_round)
    {
        assert_eq!(r_off, r_q, "{label}: census round order");
        assert!(
            c_q <= c_off,
            "{label}: round {r_off} orbit count {c_q} > raw count {c_off}"
        );
        assert!(b_q <= b_off, "{label}: round {r_off} bivalent counts");
        assert_eq!(
            *b_off > 0,
            *b_q > 0,
            "{label}: round {r_off} bivalency presence"
        );
    }
    assert_eq!(
        off.witness.is_some(),
        quotient.witness.is_some(),
        "{label}: witness presence"
    );
}

fn crw_config(system: &SystemConfig, symmetry: Symmetry) -> ExploreConfig {
    ExploreConfig {
        symmetry,
        ..ExploreConfig::for_crw(system)
    }
}

fn floodset_config(t: usize, symmetry: Symmetry) -> ExploreConfig {
    ExploreConfig {
        model: ModelKind::Classic,
        max_rounds: t as u32 + 2,
        max_states: 10_000_000,
        round_bound: Some(RoundBound::Fixed(t as u32 + 1)),
        spec: SpecMode::Uniform,
        max_crashes_per_round: None,
        symmetry,
    }
}

#[test]
fn extended_model_crw_deeper_tiers_agree_on_every_engine() {
    // The pooled tier with the value quotient on top: verdict-exact
    // (decided as a set) against Off, and every engine agrees
    // bit-for-bit with the serial quotient walk.
    for (n, t) in systems() {
        let system = SystemConfig::new(n, t).unwrap();
        let proposals: Vec<WideValue> = (0..n).map(|i| WideValue::new(1, (i % 2) as u64)).collect();
        let run = |symmetry: Symmetry, options: ExploreOptions| {
            explore_with(
                system,
                crw_config(&system, symmetry),
                options,
                crw_processes(&system, &proposals),
                proposals.clone(),
            )
            .unwrap()
        };
        let off = run(Symmetry::Off, ExploreOptions::serial());
        let label = format!("crw n={n} t={t}");
        let quotient = run(Symmetry::PartialValue, ExploreOptions::serial());
        assert_quotient(&off, &quotient, &label);
        for (engine, options) in engines() {
            let engine_quotient = run(Symmetry::PartialValue, options);
            assert_identical(
                &quotient,
                &engine_quotient,
                &format!("{label} engine={engine}"),
            );
        }
    }
}

#[test]
fn classic_model_floodset_deeper_tiers_degrade_soundly() {
    // FloodSet opts out of both deeper quotients (`rank_inert` is
    // always false — every active broadcasts — and `min(W)` does not
    // commute with the value involution), so `partial+value` pools its
    // settled records alone; the verdict contract still holds, on every
    // engine.  `naive_oracle.rs` checks its orbit count against brute
    // force.
    for (n, t) in systems() {
        let system = SystemConfig::new(n, t).unwrap();
        let proposals: Vec<u64> = (0..n as u64).map(|i| 10 + i).collect();
        let run = |symmetry: Symmetry, options: ExploreOptions| {
            explore_with(
                system,
                floodset_config(t, symmetry),
                options,
                floodset_processes(n, t, &proposals),
                proposals.clone(),
            )
            .unwrap()
        };
        let off = run(Symmetry::Off, ExploreOptions::serial());
        let label = format!("floodset n={n} t={t}");
        let quotient = run(Symmetry::PartialValue, ExploreOptions::serial());
        assert_quotient(&off, &quotient, &label);
        for (engine, options) in engines() {
            let engine_quotient = run(Symmetry::PartialValue, options);
            assert_identical(
                &quotient,
                &engine_quotient,
                &format!("{label} engine={engine}"),
            );
        }
    }
}

#[test]
fn elastic_steal_engine_commutes_with_symmetry() {
    // The elastic engine under a policy that always fires: offload,
    // preempt handshake, frontier re-split, and seeded relaunch all
    // happen in both modes, and the merged report must still be
    // bit-identical to the same-mode serial walk.
    let (n, t) = (4usize, 3usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals: Vec<WideValue> = (0..n).map(|i| WideValue::new(1, (i % 2) as u64)).collect();
    let forced_steal = StealConfig {
        enabled: true,
        min_frontier: 1,
        poll_interval: Duration::ZERO,
        yield_every: 64,
    };
    let options = DistOptions {
        steal: forced_steal,
        ..DistOptions::new(2)
    };
    for symmetry in [Symmetry::Off, Symmetry::PartialValue] {
        let config = crw_config(&system, symmetry);
        let serial = explore_with(
            system,
            config,
            ExploreOptions::serial(),
            crw_processes(&system, &proposals),
            proposals.clone(),
        )
        .unwrap();
        let elastic = explore_elastic_in_process(
            system,
            config,
            &options,
            ExploreOptions::serial(),
            crw_processes(&system, &proposals),
            proposals.clone(),
        )
        .unwrap();
        assert_identical(
            &serial,
            &elastic,
            &format!("elastic crw n={n} t={t} {symmetry:?}"),
        );
    }
}

#[test]
fn partitioned_engine_commutes_with_symmetry() {
    // The distributed engine keys its frontier partition with the same
    // canonical bytes the walkers use, so a symmetric run must merge to
    // the same report as the symmetric serial walk — at any partition
    // count, here 2 (and its report must in turn be the exact quotient
    // of the Off run).
    for (n, t) in [(4usize, 2usize), (4, 3), (5, 2)] {
        let system = SystemConfig::new(n, t).unwrap();
        let proposals: Vec<WideValue> = (0..n).map(|i| WideValue::new(1, (i % 2) as u64)).collect();
        for symmetry in [Symmetry::Off, Symmetry::PartialValue] {
            let config = crw_config(&system, symmetry);
            let serial = explore_with(
                system,
                config,
                ExploreOptions::serial(),
                crw_processes(&system, &proposals),
                proposals.clone(),
            )
            .unwrap();
            let partitioned = explore_partitioned_in_process(
                system,
                config,
                &DistOptions::new(2),
                ExploreOptions::serial(),
                crw_processes(&system, &proposals),
                proposals.clone(),
            )
            .unwrap();
            assert_identical(
                &serial,
                &partitioned,
                &format!("partitioned crw n={n} t={t} {symmetry:?}"),
            );
        }
    }
}

#[test]
fn reduction_is_strict_for_a_pinned_system() {
    // The quotient theorems above allow `≤`; this pin proves the
    // machinery actually fires on the bench protocol — at `(5, 4)` CRW
    // reaches configurations whose settled records differ only by which
    // slots hold them, and value mirrors of one another, and those must
    // merge.
    let (n, t) = (5usize, 4usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals: Vec<WideValue> = (0..n).map(|i| WideValue::new(1, (i % 2) as u64)).collect();
    let run = |symmetry: Symmetry| {
        explore_with(
            system,
            crw_config(&system, symmetry),
            ExploreOptions::serial(),
            crw_processes(&system, &proposals),
            proposals.clone(),
        )
        .unwrap()
    };
    let off = run(Symmetry::Off);
    let pv = run(Symmetry::PartialValue);
    assert_quotient(&off, &pv, "crw n=5 t=4 partial+value");
    eprintln!(
        "symmetry_differential: crw (5, 4) {} raw -> {} partial+value orbit states",
        off.distinct_states, pv.distinct_states
    );
    // The exploration is deterministic, so any drift in these counts is
    // a semantic change to the quotient (or to the adversary
    // enumeration) that must be reviewed, not a flaky measurement.
    assert_eq!(
        (off.distinct_states, pv.distinct_states),
        PINNED_54_COUNTS,
        "pinned (5, 4) distinct-state counts drifted"
    );
}

/// The committed `(off, partial+value)` distinct-state counts at CRW
/// `(5, 4)` — see `reduction_is_strict_for_a_pinned_system`.  At
/// `t = n − 1` no rank is ever inert (an active process never sees more
/// actives below it than the remaining crash budget), so the 815 → 235
/// step is settled-record pooling and the binary value quotient.
const PINNED_54_COUNTS: (usize, usize) = (815, 235);
