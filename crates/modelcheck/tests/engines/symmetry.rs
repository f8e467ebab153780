//! `Symmetry::PartialValue` against `Symmetry::Off`.  Both bench
//! protocols are rank-dependent (CRW's rotating coordinator, FloodSet's
//! identified senders), and the quotient pools what carries no rank:
//! settled records, and for CRW below `t = n − 1` the rank-inert
//! actives, are sorted into their slots, and for CRW's binary proposals
//! the value involution is quotiented on top.  The quotient must keep
//! everything the checker verifies — violation flag, terminal count,
//! worst round per `f`, the decided set, per-round bivalency presence,
//! witness presence — while `distinct_states` only drops.  That every
//! engine agrees with the serial walk *within* a mode is the matrix's.

use twostep_modelcheck::{CheckableProtocol, ExploreReport, SpillCodec, Symmetry};

use crate::kit::{crw, floodset, reference, systems, Workload};

/// The quotient contract.  `decided` is compared as a *set*: merged
/// orbit members enumerate their children in different orders, so
/// discovery order is not kept (the memo sorts decided vectors into a
/// normal form instead).  Terminal counts stay exact: effect-pruned
/// adversary enumeration keeps one transition per live-effect class.
/// The census keeps its rounds and their bivalency presence while its
/// counts become orbit counts; a violating space still yields a witness
/// (reconstruction re-drives from the true initial configuration).
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

/// The quotient contract between the serial walks of `workload` in
/// both modes.
fn assert_quotient_of<P>(workload: &Workload<P>)
where
    P: CheckableProtocol,
    P::Output: std::hash::Hash + SpillCodec + Ord + 'static,
{
    let off = reference(&workload.under(Symmetry::Off));
    let quotient = reference(&workload.under(Symmetry::PartialValue));
    assert_quotient(&off, &quotient, &workload.label);
}

/// The pooled tier with the value quotient on top keeps CRW's verdict.
#[test]
fn extended_model_crw_deeper_tiers_keep_the_verdict() {
    for (n, t) in systems() {
        assert_quotient_of(&crw(n, t));
    }
}

/// FloodSet opts out of both deeper quotients (`rank_inert` is always
/// false — every active broadcasts — and `min(W)` does not commute with
/// the value involution), so `partial+value` pools its settled records
/// alone; the contract still holds.  `naive_oracle.rs` checks its orbit
/// count against brute force.
#[test]
fn classic_model_floodset_deeper_tiers_degrade_soundly() {
    for (n, t) in systems() {
        assert_quotient_of(&floodset(n, t));
    }
}

/// The committed `(off, partial+value)` distinct-state counts at CRW
/// `(5, 4)`.  At `t = n − 1` no rank is ever inert (an active process
/// never sees more actives below it than the remaining crash budget),
/// so the 815 → 235 step is settled-record pooling and the binary value
/// quotient.
const PINNED_54_COUNTS: (usize, usize) = (815, 235);

/// The contract allows `≤`; this pin proves the machinery fires on the
/// bench protocol: at `(5, 4)` CRW reaches configurations whose settled
/// records differ only by which slots hold them, and value mirrors of
/// one another, and those must merge.  The walk is deterministic, so a
/// drift in these counts is a semantic change to the quotient (or to
/// the adversary enumeration) to review, not a flaky measurement.
#[test]
fn reduction_is_strict_for_a_pinned_system() {
    let workload = crw(5, 4);
    let off = reference(&workload.under(Symmetry::Off));
    let pv = reference(&workload.under(Symmetry::PartialValue));
    assert_quotient(&off, &pv, "crw n=5 t=4 partial+value");
    eprintln!(
        "symmetry: crw (5, 4) {} raw -> {} partial+value orbit states",
        off.distinct_states, pv.distinct_states
    );
    assert_eq!(
        (off.distinct_states, pv.distinct_states),
        PINNED_54_COUNTS,
        "pinned (5, 4) distinct-state counts drifted"
    );
}
