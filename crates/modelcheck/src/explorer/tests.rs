//! Tests of the explorer as a whole — configuration and budget
//! plumbing, the key layouts, the walk and its step accounting, the run
//! drivers — over the shared kit (`testkit.rs`).  They stay one module so
//! that every test keeps the `explorer::tests::…` path it has always
//! run under; the five that read a round's private tables have their
//! bodies in `round.rs`, where those tables are visible, and their entry
//! points here.

use std::hash::Hash;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use twostep_model::codec::stable_hash64;
use twostep_model::{CrashPoint, CrashSchedule, CrashStage, ProcessId, Round, SystemConfig};
use twostep_sim::{
    check_uniform_consensus, EnvKnob, ModelKind, ProcStatus, RoundActions, SpecViolation, Stepper,
    TraceLevel,
};

use super::budget::{BudgetArbiter, BudgetKind, StepResult, StepStatus, Unbounded};
use super::canon::make_key_into;
use super::config::{
    CheckableProtocol, ExploreConfig, ExploreOptions, RoundBound, Symmetry, WalkBudget,
    DEADLINE_MS, DONATE_DEPTH, MAX_STEPS, SYMMETRY,
};
use super::report::{ExploreError, ExploreReport, Summary};
use super::run::{walk_roots, Autosave};
use super::testkit::*;
use super::walker::{Interrupt, Shared, StepWalker, Walker};
use super::{explore, explore_with};
use crate::checkpoint::{self, CheckpointConfig, CheckpointLoad};
use crate::memo::MemoConfig;
use crate::spill::SpillCodec;

/// Runs under its historical name a test whose body lives beside the
/// private tables it reads.
macro_rules! in_round_rs {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            super::round::tests::$name();
        }
    )*};
}

in_round_rs!(
    assembled_child_keys_match_stepped_children,
    index_rows_reproduce_the_reference_enumeration,
    views_that_settle_alike_share_a_class_and_are_each_absorbed,
    rows_that_permute_settled_records_share_an_orbit_and_are_each_absorbed,
    root_round_at_8_7_has_282_211_rows_and_no_per_row_storage,
);

#[test]
fn round_bounds_evaluate() {
    assert_eq!(RoundBound::FPlus(1).bound(3), 4);
    assert_eq!(RoundBound::ClassicEarly { t: 3 }.bound(1), 3);
    assert_eq!(RoundBound::ClassicEarly { t: 3 }.bound(3), 4, "capped");
    assert_eq!(RoundBound::Fixed(5).bound(0), 5);
}

#[test]
fn finds_agreement_violation_with_witness() {
    let system = SystemConfig::new(2, 1).unwrap();
    let report = explore(
        system,
        options(2, 100_000),
        vec![DecideOwn { v: 0 }, DecideOwn { v: 1 }],
        vec![0u64, 1],
    )
    .unwrap();
    assert!(report.root.violating);
    assert!(
        report.root.is_bivalent(),
        "both values get decided somewhere"
    );
    let witness = report.witness.expect("witness reconstructed");
    assert!(witness
        .violations
        .iter()
        .any(|v| matches!(v, SpecViolation::UniformAgreement { .. })));
}

#[test]
fn flags_non_termination_at_round_cap() {
    let system = SystemConfig::new(2, 0).unwrap();
    let report = explore(
        system,
        options(3, 10_000),
        vec![NeverDecide, NeverDecide],
        vec![0u64, 0],
    )
    .unwrap();
    assert!(report.root.violating, "termination violation expected");
    assert_eq!(report.root.terminals, 1, "t = 0 ⇒ single execution");
}

#[test]
fn state_budget_is_enforced() {
    let system = SystemConfig::new(3, 2).unwrap();
    let err = explore(
        system,
        options(4, 3),
        vec![DecideOwn { v: 0 }, DecideOwn { v: 0 }, DecideOwn { v: 0 }],
        vec![0u64, 0, 0],
    )
    .unwrap_err();
    assert_eq!(err, ExploreError::StateLimit { budget: 3 });
}

#[test]
fn state_budget_is_enforced_in_parallel_too() {
    let system = SystemConfig::new(3, 2).unwrap();
    let err = explore_with(
        system,
        options(4, 3),
        ExploreOptions::with_threads(4),
        vec![DecideOwn { v: 0 }, DecideOwn { v: 0 }, DecideOwn { v: 0 }],
        vec![0u64, 0, 0],
    )
    .unwrap_err();
    assert_eq!(err, ExploreError::StateLimit { budget: 3 });
}

#[test]
fn agreeing_decide_own_is_clean() {
    // If everyone proposes the same value, DecideOwn is "correct":
    // no violation, univalent, decisions in round 1.
    let system = SystemConfig::new(3, 1).unwrap();
    let config = ExploreConfig {
        round_bound: Some(RoundBound::Fixed(1)),
        ..options(2, 100_000)
    };
    let report = explore(
        system,
        config,
        vec![DecideOwn { v: 7 }, DecideOwn { v: 7 }, DecideOwn { v: 7 }],
        vec![7u64, 7, 7],
    )
    .unwrap();
    assert!(!report.root.violating);
    assert_eq!(report.root.decided, vec![7]);
    assert!(!report.root.is_bivalent());
    assert!(report.root.terminals >= 1);
    // Bivalency census exists and no round has bivalent configs.
    assert!(report.bivalency_by_round.iter().all(|(_, _, b)| *b == 0));
}

/// Structural equality of full reports — the bit-identical claim.
fn assert_reports_identical(a: &ExploreReport<u64>, b: &ExploreReport<u64>, label: &str) {
    assert_eq!(a.distinct_states, b.distinct_states, "{label}: states");
    assert_eq!(a.root.terminals, b.root.terminals, "{label}: terminals");
    assert_eq!(
        a.root.worst_round_by_f, b.root.worst_round_by_f,
        "{label}: worst rounds"
    );
    assert_eq!(a.root.decided, b.root.decided, "{label}: valency order");
    assert_eq!(a.root.violating, b.root.violating, "{label}: violating");
    assert_eq!(
        a.bivalency_by_round, b.bivalency_by_round,
        "{label}: census"
    );
}

#[test]
fn parallel_walk_is_bit_identical_to_serial() {
    for (n, t) in [(3usize, 1usize), (3, 2), (4, 2)] {
        let system = SystemConfig::new(n, t).unwrap();
        let procs: Vec<Flooder> = (1..=n as u32)
            .map(|r| Flooder {
                me: r,
                n,
                est: 100 + r as u64,
            })
            .collect();
        let proposals: Vec<u64> = (1..=n as u64).map(|r| 100 + r).collect();
        let serial = explore(
            system,
            options(4, 2_000_000),
            procs.clone(),
            proposals.clone(),
        )
        .unwrap();
        for threads in [2usize, 4, 8] {
            let parallel = explore_with(
                system,
                options(4, 2_000_000),
                ExploreOptions {
                    threads,
                    shards: 8,
                    memo: MemoConfig::all_ram(),
                    donate_depth: None,
                    cache: None,
                    budget: WalkBudget::unlimited(),
                    checkpoint: None,
                },
                procs.clone(),
                proposals.clone(),
            )
            .unwrap();
            assert_reports_identical(
                &serial,
                &parallel,
                &format!("n={n} t={t} threads={threads}"),
            );
        }
    }
}

#[test]
fn parallel_witness_matches_serial() {
    let system = SystemConfig::new(2, 1).unwrap();
    let serial = explore(
        system,
        options(2, 100_000),
        vec![DecideOwn { v: 0 }, DecideOwn { v: 1 }],
        vec![0u64, 1],
    )
    .unwrap();
    let parallel = explore_with(
        system,
        options(2, 100_000),
        ExploreOptions::with_threads(4),
        vec![DecideOwn { v: 0 }, DecideOwn { v: 1 }],
        vec![0u64, 1],
    )
    .unwrap();
    let ws = serial.witness.expect("serial witness");
    let wp = parallel.witness.expect("parallel witness");
    assert_eq!(format!("{:?}", ws.schedule), format!("{:?}", wp.schedule));
    assert_eq!(ws.decisions, wp.decisions);
}

#[test]
fn deep_spaces_do_not_overflow_the_stack() {
    // 64 rounds of a non-deciding protocol: the old recursive engine
    // walked one stack frame per round (fine at 64, fatal at tens of
    // thousands); the iterative engine's depth is heap-bounded.  Use a
    // large round cap with the trivial t = 0 space to make the path
    // long without exploding the state count.
    let system = SystemConfig::new(2, 0).unwrap();
    let report = explore(
        system,
        options(20_000, 50_000),
        vec![NeverDecide, NeverDecide],
        vec![0u64, 0],
    )
    .unwrap();
    assert!(report.root.violating, "never terminates");
    assert_eq!(report.distinct_states, 20_001);
}

#[test]
fn explore_options_defaults_are_sane() {
    assert_eq!(ExploreOptions::serial().threads, 1);
    assert!(ExploreOptions::default().threads >= 1);
    assert!(ExploreOptions::default().shards >= 1);
    assert_eq!(ExploreOptions::with_threads(0).threads, 1);
    assert!(!ExploreOptions::default().memo.spill_enabled());
    assert!(ExploreOptions::default()
        .with_memo(MemoConfig::spill(16))
        .memo
        .spill_enabled());
}

/// Regression test for the parallel abort protocol: a `StateLimit`
/// raised by any walker must set the cancel flag and close the work
/// queue *before* unwinding, so the whole exploration joins promptly
/// instead of leaving peers parked in `pop_wait` or churning through
/// the rest of the space.
#[test]
fn state_limit_abort_joins_promptly_at_four_threads() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let system = SystemConfig::new(4, 3).unwrap();
        let (procs, proposals) = flooder_procs(4);
        let result = explore_with(
            system,
            options(4, 10),
            ExploreOptions::with_threads(4),
            procs,
            proposals,
        );
        let _ = tx.send(result);
    });
    let result = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("parallel StateLimit abort must join promptly, not hang");
    assert_eq!(result.unwrap_err(), ExploreError::StateLimit { budget: 10 });
}

/// The two-tier memo is invisible to results: spill-vs-RAM reports
/// are identical at 1 and 4 threads (the broad differential matrix
/// lives in `tests/spill_differential.rs`).
#[test]
fn spill_memo_matches_all_ram_engine() {
    let system = SystemConfig::new(4, 2).unwrap();
    let (procs, proposals) = flooder_procs(4);
    let ram = explore(
        system,
        options(4, 2_000_000),
        procs.clone(),
        proposals.clone(),
    )
    .unwrap();
    for threads in [1usize, 4] {
        let spilled = explore_with(
            system,
            options(4, 2_000_000),
            ExploreOptions {
                threads,
                shards: 8,
                memo: MemoConfig::spill(16),
                donate_depth: None,
                cache: None,
                budget: WalkBudget::unlimited(),
                checkpoint: None,
            },
            procs.clone(),
            proposals.clone(),
        )
        .unwrap();
        assert_reports_identical(&ram, &spilled, &format!("spill threads={threads}"));
    }
}

/// `max_states` stops being a RAM bound: a hot capacity far below the
/// distinct-state count must still complete (eviction never forgets a
/// key, so the budget counts distinct configurations as before).
#[test]
fn tiny_hot_capacity_completes_without_state_limit() {
    let system = SystemConfig::new(4, 2).unwrap();
    let (procs, proposals) = flooder_procs(4);
    let report = explore_with(
        system,
        options(4, 2_000_000),
        ExploreOptions::serial().with_memo(MemoConfig::spill(2)),
        procs,
        proposals,
    )
    .unwrap();
    assert!(
        report.distinct_states > 50,
        "space must dwarf the 2-entry hot tier (got {})",
        report.distinct_states
    );
}

/// A spilling exploration must also still *fail* correctly: the state
/// budget counts distinct keys across both tiers.
#[test]
fn state_budget_is_enforced_with_spill_too() {
    let system = SystemConfig::new(3, 2).unwrap();
    let err = explore_with(
        system,
        options(4, 3),
        ExploreOptions::serial().with_memo(MemoConfig::spill(1)),
        vec![DecideOwn { v: 0 }, DecideOwn { v: 0 }, DecideOwn { v: 0 }],
        vec![0u64, 0, 0],
    )
    .unwrap_err();
    assert_eq!(err, ExploreError::StateLimit { budget: 3 });
}

/// The depth-aware donation policy changes only load balance, never
/// the result: every cutoff (including 0 = never donate) produces a
/// report identical to the unrestricted parallel walk and the serial
/// walk.
#[test]
fn donation_depth_cutoffs_are_result_invisible() {
    let system = SystemConfig::new(4, 2).unwrap();
    let (procs, proposals) = flooder_procs(4);
    let serial = explore(
        system,
        options(4, 2_000_000),
        procs.clone(),
        proposals.clone(),
    )
    .unwrap();
    for donate_depth in [Some(0u32), Some(1), Some(2), None] {
        let tuned = explore_with(
            system,
            options(4, 2_000_000),
            ExploreOptions::with_threads(4).with_donate_depth(donate_depth),
            procs.clone(),
            proposals.clone(),
        )
        .unwrap();
        assert_reports_identical(&serial, &tuned, &format!("donate_depth={donate_depth:?}"));
    }
}

#[test]
fn explore_options_donation_builder() {
    assert_eq!(ExploreOptions::serial().donate_depth, None);
    assert_eq!(
        ExploreOptions::serial()
            .with_donate_depth(Some(3))
            .donate_depth,
        Some(3)
    );
}

/// Structural equality of two configurations, field by field — the
/// ground truth the canonical key encoding must reproduce: round,
/// per-process lifecycle, decisions, and the protocol state of every
/// **active** process.  Two things are deliberately excluded, as the
/// structured `Snap` comparison always excluded them: a settled
/// (decided or crashed) process's internal state (it can never act
/// again — only its decision matters to the future) and the round a
/// crashed process died in (the spec check consumes only *who*
/// crashed).
fn configs_equal(a: &Stepper<Flooder>, b: &Stepper<Flooder>) -> bool {
    let lifecycles_match = a.status().iter().zip(b.status()).all(|(x, y)| {
        matches!(
            (x, y),
            (ProcStatus::Active, ProcStatus::Active)
                | (ProcStatus::Decided, ProcStatus::Decided)
                | (ProcStatus::Crashed(_), ProcStatus::Crashed(_))
        )
    });
    a.round() == b.round()
        && lifecycles_match
        && a.decisions() == b.decisions()
        && a.procs()
            .iter()
            .zip(a.status())
            .zip(b.procs())
            .all(|((x, status), y)| !matches!(status, ProcStatus::Active) || **x == **y)
}

/// Walks one seeded pseudo-random path from the initial Flooder
/// configuration, returning every prefix configuration with its
/// canonical key bytes.
fn random_walk_keys(
    shared: &Shared<'_, Flooder>,
    procs: Vec<Flooder>,
    mut state: u64,
) -> Vec<(Stepper<Flooder>, Vec<u8>)> {
    let mut walker = Walker::new(shared);
    let mut stepper =
        Stepper::new(shared.system, shared.config.model, TraceLevel::Off, procs).unwrap();
    let mut out = Vec::new();
    loop {
        let mut key = Vec::new();
        make_key_into(&stepper, &mut key);
        out.push((stepper.clone(), key));
        if walker.is_terminal(&stepper) {
            break;
        }
        let actions = action_sets_of(&mut walker, &stepper);
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let pick = (state >> 33) as usize % actions.len();
        stepper.step(&actions[pick]).unwrap();
    }
    out
}

proptest::proptest! {
    /// Satellite property: the canonical byte encoding is injective
    /// on reachable configurations — key-byte equality coincides
    /// exactly with structural configuration equality (in both
    /// directions), and equal keys always hash equal.  This is the
    /// soundness of merging configurations by bytes instead of by
    /// structured comparison.
    #[test]
    fn key_encoding_is_injective_on_reachable_configurations(
        seed_a in proptest::prelude::any::<u64>(),
        seed_b in proptest::prelude::any::<u64>(),
    ) {
        let system = SystemConfig::new(4, 2).unwrap();
        let (procs, proposals) = flooder_procs(4);
        let shared = Shared::new(
            system,
            options(4, 1_000_000),
            &ExploreOptions::serial(),
            &proposals,
            procs.clone(),
        )
        .unwrap();
        let mut configs = random_walk_keys(&shared, procs.clone(), seed_a);
        configs.extend(random_walk_keys(&shared, procs, seed_b));
        for (i, (stepper_i, key_i)) in configs.iter().enumerate() {
            // Every key decodes, consuming exactly its bytes.
            let mut input = key_i.as_slice();
            let decoded = crate::memo::decode_key_prefix::<Flooder>(&mut input);
            proptest::prop_assert!(decoded.is_some(), "key {i} must decode");
            proptest::prop_assert!(input.is_empty(), "key {i} must be self-delimiting");
            for (j, (stepper_j, key_j)) in configs.iter().enumerate().skip(i) {
                let keys_equal = key_i == key_j;
                let structs_equal = configs_equal(stepper_i, stepper_j);
                proptest::prop_assert_eq!(
                    keys_equal, structs_equal,
                    "configs {} and {}: key-byte equality must coincide with structural equality",
                    i, j
                );
                if keys_equal {
                    proptest::prop_assert_eq!(
                        stable_hash64(key_i), stable_hash64(key_j),
                        "equal keys must hash equal"
                    );
                }
            }
        }
    }
}

#[test]
fn symmetry_strength_is_protocol_dependent() {
    // Off is strength 0 for everyone; Full is settled-only (1) for
    // rank-dependent protocols and full-orbit (2) for declared
    // pid-symmetric ones; Partial adds the rank-inert tier (3) for
    // rank-dependent protocols and is subsumed by the orbit for
    // pid-symmetric ones.  u64 outputs are not value-symmetric, so
    // PartialValue degrades to Partial strength here.
    let p: Vec<u64> = vec![0, 1];
    assert_eq!(Symmetry::Off.plan::<Flooder>(&p).strength(), 0);
    assert_eq!(Symmetry::Off.plan::<DecideOwn>(&p).strength(), 0);
    assert_eq!(Symmetry::Full.plan::<Flooder>(&p).strength(), 1);
    assert_eq!(Symmetry::Full.plan::<DecideOwn>(&p).strength(), 2);
    assert_eq!(Symmetry::Full.plan::<Gossip>(&p).strength(), 2);
    assert_eq!(Symmetry::Partial.plan::<Flooder>(&p).strength(), 3);
    assert_eq!(Symmetry::Partial.plan::<Gossip>(&p).strength(), 2);
    assert_eq!(Symmetry::PartialValue.plan::<Flooder>(&p).strength(), 3);
}

#[test]
fn symmetry_tokens_roundtrip_and_reject_garbage() {
    for mode in [
        Symmetry::Off,
        Symmetry::Full,
        Symmetry::Partial,
        Symmetry::PartialValue,
    ] {
        assert_eq!(Symmetry::parse_token(mode.token()), Some(mode));
        assert_eq!(
            Symmetry::parse_token(&format!("  {}  ", mode.token().to_ascii_uppercase())),
            Some(mode),
            "tokens are case-insensitive and whitespace-tolerant"
        );
    }
    for garbage in ["", "on", "value", "partial+", "full+value", "partial value"] {
        assert_eq!(Symmetry::parse_token(garbage), None, "{garbage:?}");
    }
}

#[test]
fn full_orbit_key_is_permutation_invariant() {
    // Two initial configurations that are owner-relabelled index
    // permutations of each other: canonical keys must coincide under
    // Full and stay distinct under Off.
    let system = SystemConfig::new(3, 1).unwrap();
    let mk = |ests: &[u64]| {
        Stepper::new(
            system,
            ModelKind::Extended,
            TraceLevel::Off,
            gossip_procs(3, ests),
        )
        .unwrap()
    };
    let a = mk(&[5, 9, 5]);
    let b = mk(&[5, 5, 9]);
    let proposals: Vec<u64> = vec![5, 9, 5];
    let ka = test_key(&a, Symmetry::Full, &proposals, 1);
    let kb = test_key(&b, Symmetry::Full, &proposals, 1);
    assert_eq!(ka, kb, "permuted configurations share one canonical key");
    let oa = test_key(&a, Symmetry::Off, &proposals, 1);
    let ob = test_key(&b, Symmetry::Off, &proposals, 1);
    assert_ne!(oa, ob, "Off keeps raw configurations distinct");
    // The canonical key still decodes as an ordinary key encoding.
    let mut input = ka.as_slice();
    assert!(crate::memo::decode_key_prefix::<Gossip>(&mut input).is_some());
    assert!(input.is_empty());
}

/// Walks one seeded pseudo-random CRW path at `(4, 2)` (binary
/// proposals, optionally bit-flipped), returning every prefix
/// configuration.  The same seed drives the same action *indices*
/// regardless of the proposal polarity, which is what makes the
/// plain and flipped walks value mirrors of each other.
fn crw_walk(
    flip: bool,
    mut state: u64,
) -> Vec<Stepper<twostep_core::Crw<twostep_model::WideValue>>> {
    let system = SystemConfig::new(4, 2).unwrap();
    let proposals: Vec<twostep_model::WideValue> = (0..4)
        .map(|i| twostep_model::WideValue::new(1, ((i as u64) % 2) ^ (flip as u64)))
        .collect();
    let procs = twostep_core::crw_processes(&system, &proposals);
    let shared = Shared::new(
        system,
        options(6, 1_000_000),
        &ExploreOptions::serial(),
        &proposals,
        procs.clone(),
    )
    .unwrap();
    let mut walker = Walker::new(&shared);
    let mut stepper = Stepper::new(system, ModelKind::Extended, TraceLevel::Off, procs).unwrap();
    let mut out = vec![stepper.clone()];
    while !walker.is_terminal(&stepper) {
        let actions = action_sets_of(&mut walker, &stepper);
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let pick = (state >> 33) as usize % actions.len();
        stepper.step(&actions[pick]).unwrap();
        out.push(stepper.clone());
    }
    out
}

proptest::proptest! {
    /// The value-symmetry normal form: walking CRW with bit-flipped
    /// proposals under the *same* adversary choices produces the
    /// value-mirror of every configuration, and the
    /// `partial+value` canonical key — the lexicographic minimum
    /// over both encodings — must agree on each mirrored pair,
    /// while staying a valid, self-delimiting key encoding.  The
    /// plain (swap-free) partial keys must instead tell the two
    /// polarities apart at the root.
    #[test]
    fn value_quotient_key_is_involution_invariant(
        seed in proptest::prelude::any::<u64>(),
    ) {
        let t = 2usize;
        let walk_a = crw_walk(false, seed);
        let walk_b = crw_walk(true, seed);
        proptest::prop_assert_eq!(walk_a.len(), walk_b.len(), "mirrored walks must pace together");
        let proposals_a: Vec<twostep_model::WideValue> =
            (0..4).map(|i| twostep_model::WideValue::new(1, (i as u64) % 2)).collect();
        let proposals_b: Vec<twostep_model::WideValue> =
            (0..4).map(|i| twostep_model::WideValue::new(1, ((i as u64) % 2) ^ 1)).collect();
        for (i, (a, b)) in walk_a.iter().zip(&walk_b).enumerate() {
            let ka = test_key(a, Symmetry::PartialValue, &proposals_a, t);
            let kb = test_key(b, Symmetry::PartialValue, &proposals_b, t);
            proptest::prop_assert_eq!(
                &ka, &kb,
                "step {}: mirrored configurations must share one partial+value key", i
            );
            let mut input = ka.as_slice();
            let decoded = crate::memo::decode_key_prefix::<twostep_core::Crw<twostep_model::WideValue>>(&mut input);
            proptest::prop_assert!(decoded.is_some(), "step {} key must decode", i);
            proptest::prop_assert!(input.is_empty(), "step {} key must be self-delimiting", i);
        }
        let pa = test_key(&walk_a[0], Symmetry::Partial, &proposals_a, t);
        let pb = test_key(&walk_b[0], Symmetry::Partial, &proposals_b, t);
        proptest::prop_assert_ne!(
            pa, pb,
            "without the value quotient the two polarities are distinct states"
        );
    }
}

/// Census semantics under symmetry: same rounds, counts never grow,
/// and a round has bivalent orbits iff it had bivalent
/// configurations.
fn assert_census_shrinks(off: &ExploreReport<u64>, full: &ExploreReport<u64>, label: &str) {
    assert_eq!(
        off.bivalency_by_round.len(),
        full.bivalency_by_round.len(),
        "{label}: census rounds"
    );
    for ((r_off, c_off, b_off), (r_full, c_full, b_full)) in
        off.bivalency_by_round.iter().zip(&full.bivalency_by_round)
    {
        assert_eq!(r_off, r_full, "{label}: census round order");
        assert!(
            c_full <= c_off,
            "{label}: round {r_off} orbit count {c_full} > raw count {c_off}"
        );
        assert!(b_full <= b_off, "{label}: round {r_off} bivalent counts");
        assert_eq!(
            *b_off > 0,
            *b_full > 0,
            "{label}: round {r_off} bivalency presence"
        );
    }
}

/// Settled-record canonicalization (the strength every protocol
/// gets, the rank-dependent `Flooder` included) is summary-exact:
/// the root summary — `decided` order included — matches `Off`
/// bit for bit while the state count shrinks or holds.
#[test]
fn settled_canonicalization_is_summary_exact_for_rank_dependent_protocols() {
    let system = SystemConfig::new(4, 2).unwrap();
    let (procs, proposals) = flooder_procs(4);
    let off = explore(
        system,
        options(4, 2_000_000),
        procs.clone(),
        proposals.clone(),
    )
    .unwrap();
    let full = explore(
        system,
        ExploreConfig {
            symmetry: Symmetry::Full,
            ..options(4, 2_000_000)
        },
        procs,
        proposals,
    )
    .unwrap();
    assert_eq!(off.root, full.root, "settled-only merges are bit-identical");
    assert!(
        full.distinct_states < off.distinct_states,
        "crashed/decided permutations must merge: {} !< {}",
        full.distinct_states,
        off.distinct_states
    );
    assert_census_shrinks(&off, &full, "flooder");
}

/// The full-orbit quotient for a pid-symmetric protocol: verdicts
/// and per-`f` worst rounds are identical, valency agrees as a set,
/// the witness remains a real violating execution, and the state
/// count strictly drops (permuted actives merge).
#[test]
fn full_orbit_quotient_matches_off_for_pid_symmetric_protocols() {
    let system = SystemConfig::new(3, 2).unwrap();
    let procs = gossip_procs(3, &[5, 5, 9]);
    let proposals = vec![5u64, 5, 9];
    let off = explore(
        system,
        options(3, 2_000_000),
        procs.clone(),
        proposals.clone(),
    )
    .unwrap();
    let full = explore(
        system,
        ExploreConfig {
            symmetry: Symmetry::Full,
            ..options(3, 2_000_000)
        },
        procs,
        proposals,
    )
    .unwrap();
    assert_eq!(off.root.terminals, full.root.terminals);
    assert_eq!(off.root.worst_round_by_f, full.root.worst_round_by_f);
    assert_eq!(off.root.violating, full.root.violating);
    let sorted = |mut v: Vec<u64>| {
        v.sort_unstable();
        v
    };
    assert_eq!(
        sorted(off.root.decided.clone()),
        sorted(full.root.decided.clone()),
        "valency agrees as a set (order may follow the orbit representative)"
    );
    assert!(
        full.distinct_states < off.distinct_states,
        "permuted actives must merge: {} !< {}",
        full.distinct_states,
        off.distinct_states
    );
    assert_census_shrinks(&off, &full, "gossip");
}

/// A violating pid-symmetric space must still reconstruct a valid
/// witness under the quotient: the schedule is a real execution's
/// (re-driven from the true initial configuration, not decoded from
/// a canonical representative) and its violations are non-empty.
#[test]
fn symmetric_witness_is_a_real_execution() {
    let system = SystemConfig::new(3, 2).unwrap();
    let initial = vec![DecideOwn { v: 0 }, DecideOwn { v: 1 }, DecideOwn { v: 1 }];
    let proposals = vec![0u64, 1, 1];
    let off = explore(
        system,
        options(2, 100_000),
        initial.clone(),
        proposals.clone(),
    )
    .unwrap();
    let full = explore(
        system,
        ExploreConfig {
            symmetry: Symmetry::Full,
            ..options(2, 100_000)
        },
        initial,
        proposals,
    )
    .unwrap();
    assert!(off.root.violating && full.root.violating);
    assert!(
        full.distinct_states < off.distinct_states,
        "settled permutations of (decided, crashed) must merge: {} !< {}",
        full.distinct_states,
        off.distinct_states
    );
    let witness = full.witness.expect("witness under symmetry");
    assert!(
        witness
            .violations
            .iter()
            .any(|v| matches!(v, SpecViolation::UniformAgreement { .. })),
        "witness carries the uniform-agreement violation"
    );
    assert!(
        witness.decisions.iter().flatten().count() >= 2,
        "violating terminal has at least two deciders"
    );
}

/// Witness reconstruction reads summaries back through the two-tier
/// memo; a violating space must yield the same witness spilled.
#[test]
fn spilled_witness_matches_ram_witness() {
    let system = SystemConfig::new(2, 1).unwrap();
    let ram = explore(
        system,
        options(2, 100_000),
        vec![DecideOwn { v: 0 }, DecideOwn { v: 1 }],
        vec![0u64, 1],
    )
    .unwrap();
    let spilled = explore_with(
        system,
        options(2, 100_000),
        ExploreOptions::serial().with_memo(MemoConfig::spill(4)),
        vec![DecideOwn { v: 0 }, DecideOwn { v: 1 }],
        vec![0u64, 1],
    )
    .unwrap();
    let ws = ram.witness.expect("ram witness");
    let wp = spilled.witness.expect("spilled witness");
    assert_eq!(format!("{:?}", ws.schedule), format!("{:?}", wp.schedule));
    assert_eq!(ws.decisions, wp.decisions);
}

/// The env-knob policy over every model-checker variable, one row
/// each (`TWOSTEP_THREADS` has the same row next to its knob in
/// `twostep_sim`): unset resolves to the default silently, a valid
/// value (whitespace tolerated) is honored silently, and garbage
/// resolves to the default with a warning naming the variable and
/// the offending value — never silently ignored.
#[test]
fn every_env_knob_follows_the_warn_once_policy() {
    fn row<T: PartialEq + std::fmt::Debug>(knob: EnvKnob<T>, valid: &str, value: T, garbage: &str) {
        assert_eq!(knob.resolve(None), (None, None), "{}: unset", knob.name);
        assert_eq!(
            knob.resolve(Some(&format!("  {valid} "))),
            (Some(value), None),
            "{}: valid",
            knob.name
        );
        let (value, warning) = knob.resolve(Some(garbage));
        assert_eq!(value, None, "{}: garbage falls back", knob.name);
        let warning = warning.unwrap_or_else(|| panic!("{}: garbage must warn", knob.name));
        assert!(warning.contains(knob.name), "{warning}");
        assert!(warning.contains(&format!("{garbage:?}")), "{warning}");
    }
    use crate::dist::{BACKOFF_MS, STEAL, WATCHDOG_MS};
    let plan = "p0a0=crash@walk;p1a0=hang@export";
    row(DONATE_DEPTH, "2", 2, "deep");
    row(
        SYMMETRY,
        "Partial+Value",
        Symmetry::PartialValue,
        "sideways",
    );
    row(SYMMETRY, "off", Symmetry::Off, "");
    // `0` is a valid step budget (min-progress still advances).
    row(MAX_STEPS, "0", 0, "soon");
    row(MAX_STEPS, "123", 123, "-3");
    row(DEADLINE_MS, "250", Duration::from_millis(250), "1.5s");
    row(
        crate::cache::CACHE_DIR,
        "/tmp/twostep-cache",
        PathBuf::from("/tmp/twostep-cache"),
        "   ",
    );
    row(STEAL, "ON", true, "maybe");
    row(STEAL, "0", false, "2");
    row(WATCHDOG_MS, "0", 0, "5s");
    row(BACKOFF_MS, "40", 40, "fast");
    row(
        crate::faults::FAULT,
        plan,
        crate::faults::FaultPlan::parse(plan).unwrap(),
        "p0=explode",
    );
}

#[test]
fn unlimited_budget_is_unlimited() {
    assert!(WalkBudget::unlimited().is_unlimited());
    let budget = WalkBudget {
        max_steps: Some(1),
        ..WalkBudget::unlimited()
    };
    assert!(!budget.is_unlimited());
}

/// An exhausted step budget with no checkpoint configured suspends
/// with `checkpoint: None` — the partial work is discarded but the
/// error still names the budget and the progress made.  The
/// min-progress guarantee means even `max_steps: 0` memoizes at
/// least one fresh configuration before suspending.
#[test]
fn step_budget_without_checkpoint_interrupts() {
    let system = SystemConfig::new(3, 2).unwrap();
    let (procs, proposals) = flooder_procs(3);
    let err = explore_with(
        system,
        options(3, 2_000_000),
        ExploreOptions::serial().with_budget(WalkBudget {
            max_steps: Some(0),
            ..WalkBudget::unlimited()
        }),
        procs,
        proposals,
    )
    .unwrap_err();
    match err {
        ExploreError::Interrupted {
            reason,
            checkpoint,
            states,
        } => {
            assert_eq!(reason, BudgetKind::Steps);
            assert_eq!(checkpoint, None);
            assert!(states >= 1, "min-progress: at least one fresh state");
        }
        other => panic!("expected Interrupted, got {other:?}"),
    }
}

/// An already-expired deadline suspends promptly and is attributed
/// to the deadline budget.
#[test]
fn expired_deadline_interrupts() {
    let system = SystemConfig::new(3, 2).unwrap();
    let (procs, proposals) = flooder_procs(3);
    let err = explore_with(
        system,
        options(3, 2_000_000),
        ExploreOptions::serial().with_budget(WalkBudget {
            deadline: Some(Duration::ZERO),
            ..WalkBudget::unlimited()
        }),
        procs,
        proposals,
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            ExploreError::Interrupted {
                reason: BudgetKind::Deadline,
                checkpoint: None,
                ..
            }
        ),
        "got {err:?}"
    );
}

/// A one-byte memo ceiling trips as soon as anything is memoized.
#[test]
fn memo_byte_ceiling_interrupts() {
    let system = SystemConfig::new(3, 2).unwrap();
    let (procs, proposals) = flooder_procs(3);
    let err = explore_with(
        system,
        options(3, 2_000_000),
        ExploreOptions::serial().with_budget(WalkBudget {
            max_memo_bytes: Some(1),
            ..WalkBudget::unlimited()
        }),
        procs,
        proposals,
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            ExploreError::Interrupted {
                reason: BudgetKind::MemoBytes,
                ..
            }
        ),
        "got {err:?}"
    );
}

/// Cooperative yields are scheduling-only: a walk that yields every
/// step produces the bit-identical report.
#[test]
fn yield_every_step_changes_nothing() {
    let system = SystemConfig::new(3, 2).unwrap();
    let (procs, proposals) = flooder_procs(3);
    let plain = explore(
        system,
        options(3, 2_000_000),
        procs.clone(),
        proposals.clone(),
    )
    .unwrap();
    let yielding = explore_with(
        system,
        options(3, 2_000_000),
        ExploreOptions::serial().with_budget(WalkBudget {
            yield_every: Some(1),
            ..WalkBudget::unlimited()
        }),
        procs,
        proposals,
    )
    .unwrap();
    assert_reports_identical(&plain, &yielding, "yield-every-step");
}

/// A generous budget that never trips must not perturb the walk:
/// same report, same state count, same census.
#[test]
fn non_tripping_budget_is_bit_identical() {
    let system = SystemConfig::new(3, 2).unwrap();
    let (procs, proposals) = flooder_procs(3);
    let plain = explore(
        system,
        options(3, 2_000_000),
        procs.clone(),
        proposals.clone(),
    )
    .unwrap();
    let budgeted = explore_with(
        system,
        options(3, 2_000_000),
        ExploreOptions::serial().with_budget(WalkBudget {
            max_steps: Some(u64::MAX),
            deadline: Some(Duration::from_secs(86_400)),
            max_memo_bytes: Some(u64::MAX),
            yield_every: None,
        }),
        procs,
        proposals,
    )
    .unwrap();
    assert_reports_identical(&plain, &budgeted, "non-tripping budget");
}

/// Crash-safety autosave ([`CheckpointConfig::autosave_every`]): a
/// single-threaded walk snapshots *periodically* at `Yield` points,
/// so even an abort that writes no suspension checkpoint (a
/// `StateLimit` trip at the raw [`walk_roots`] layer) leaves a
/// loadable artifact behind — at most one interval of work is lost.
#[test]
fn autosave_snapshots_survive_an_unclean_abort() {
    let system = SystemConfig::new(4, 2).unwrap();
    let (procs, proposals) = flooder_procs(4);
    let dir = std::env::temp_dir().join(format!("twostep-autosave-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ckpt = CheckpointConfig::at(&dir).with_autosave_every(4);
    // Small enough to trip mid-walk, large enough for several
    // autosave intervals first.
    let config = options(4, 64);
    let shared = Shared::new(
        system,
        config,
        &ExploreOptions::serial(),
        &proposals,
        procs.clone(),
    )
    .unwrap();
    let root = Stepper::new(system, config.model, TraceLevel::Off, procs.clone()).unwrap();
    let err = match walk_roots(
        &shared,
        1,
        vec![root],
        &WalkBudget::unlimited(),
        Instant::now(),
        Some(Autosave {
            config: &ckpt,
            fingerprint: 42,
            every: 4,
        }),
    ) {
        Err(e) => e,
        Ok(_) => panic!("a 64-state budget must trip on this system"),
    };
    assert_eq!(err, ExploreError::StateLimit { budget: 64 });
    // The abort itself wrote nothing — whatever is on disk came from
    // the periodic autosaves during the walk.
    let probe = Shared::new(system, config, &ExploreOptions::serial(), &proposals, procs).unwrap();
    match checkpoint::load_checkpoint(
        &ckpt,
        42,
        probe.plan.strength(),
        &probe.memo,
        crate::memo::key_validator::<Flooder>(),
    ) {
        CheckpointLoad::Loaded { records } => {
            assert!(records > 0, "autosave captured fresh states");
        }
        other => panic!("expected a loadable autosave checkpoint, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The scenario the toy exists for, checked against the engine
/// alone: `p_1` crashing mid-commit loses its send-phase decision
/// while `p_2`, untouched, keeps its own — and the assembled key
/// says exactly that.
#[test]
fn mid_control_crash_suppresses_the_send_phase_decision_in_the_assembled_key() {
    let system = SystemConfig::new(4, 2).unwrap();
    let (procs, proposals) = duo_procs(4);
    let shared = Shared::new(
        system,
        options(3, 1_000),
        &ExploreOptions::serial(),
        &proposals,
        procs.clone(),
    )
    .unwrap();
    let mut walker = Walker::new(&shared);
    let root = Stepper::new(system, ModelKind::Extended, TraceLevel::Off, procs).unwrap();
    let row: RoundActions = vec![
        Some(CrashStage::MidControl { prefix_len: 1 }),
        None,
        None,
        None,
    ];
    let mut child = root.clone();
    child.step(&row).unwrap();
    assert_eq!(child.status()[0], ProcStatus::Crashed(Round::FIRST));
    assert!(
        child.decisions()[0].is_none(),
        "send phase did not complete"
    );
    assert_eq!(child.status()[1], ProcStatus::Decided);
    let mut stepped_key = Vec::new();
    make_key_into(&child, &mut stepped_key);
    let mut round = walker.open_round(&root).unwrap();
    let idx = row_index(&round, &row);
    round.classify(idx).expect("keyed");
    walker.cursor_key(&mut round);
    assert_eq!(walker.key_bytes(), &stepped_key[..]);
}

/// Arbitrary summaries over a handful of values, as wide as `t = 3`
/// makes them.
fn any_summary() -> impl proptest::prelude::Strategy<Value = Summary<u8>> {
    use proptest::prelude::*;
    let worst = prop::collection::vec(prop_oneof![Just(None), (1u32..9).prop_map(Some)], 4);
    let decided = prop::collection::vec(0u8..5, 0..6);
    (0u64..1 << 40, worst, decided, any::<bool>()).prop_map(
        |(terminals, worst_round_by_f, values, violating)| {
            let mut decided = Vec::new();
            for v in values {
                if !decided.contains(&v) {
                    decided.push(v);
                }
            }
            Summary {
                terminals,
                worst_round_by_f,
                decided,
                violating,
            }
        },
    )
}

proptest::proptest! {
    /// What run absorption rests on: absorbing a summary a second
    /// time changes nothing but the terminal count — worst rounds
    /// are maxima, `decided` is an ordered-set union, `violating`
    /// an OR — so a frame that has absorbed a child once may count
    /// every further row that leads to it by addition alone,
    /// whatever it absorbed in between.
    #[test]
    fn absorbing_a_summary_again_only_adds_its_terminals(
        frame in any_summary(),
        between in proptest::prelude::prop::collection::vec(any_summary(), 0..3),
        child in any_summary(),
    ) {
        let mut twice = frame;
        twice.absorb(&child);
        for other in &between {
            twice.absorb(other);
        }
        let mut once = twice.clone();
        twice.absorb(&child);
        once.terminals += child.terminals;
        proptest::prop_assert_eq!(twice, once);
    }
}

/// What a `step()` call reports of the walk, beside its step count:
/// distinct states, stack depth, status.
type Seen = (usize, usize, StepStatus);

fn seen(step: &StepResult) -> Seen {
    (step.distinct_states, step.frontier_len, step.status)
}

/// The reference the accounting tests compare against: the walk from
/// `root` with every step taken in its own call, under `arbiter`'s
/// verdicts.  Entry `k - 1` is what step `k` left behind; the root
/// summary rides along.
fn step_by_step<P>(
    shared: &Shared<'_, P>,
    root: &Stepper<P>,
    arbiter: &mut BudgetArbiter,
) -> (Vec<Seen>, Arc<Summary<P::Output>>)
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let mut walker = Walker::new(shared);
    let mut walk = StepWalker::new(&mut walker, vec![root.clone()]);
    let mut trace = Vec::new();
    while trace
        .last()
        .is_none_or(|(_, _, status)| *status != StepStatus::Done)
    {
        let step = walk.step(&mut NoHeadroom(arbiter)).unwrap();
        assert_eq!(step.steps, trace.len() as u64 + 1, "a step a call");
        trace.push(seen(&step));
    }
    (trace, walk.into_summaries().remove(0))
}

/// Step accounting under run absorption: a `step()` call that takes
/// several steps counts each, passes over none at which the arbiter
/// would have said anything but `Allow`, and returns what the
/// step-by-step walk saw at the same step number.  So
/// `yield_every = 7` yields at exactly the multiples of 7, and
/// `max_steps = k` refuses after exactly `k` steps — for every `k`
/// the walk has, inside runs included.
fn assert_steps_are_counted<P>(
    system: SystemConfig,
    config: ExploreConfig,
    procs: Vec<P>,
    proposals: Vec<P::Output>,
    label: &str,
) where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let fresh = || {
        let options = ExploreOptions::serial();
        Shared::new(system, config, &options, &proposals, procs.clone()).unwrap()
    };
    let root = Stepper::new(system, config.model, TraceLevel::Off, procs.clone()).unwrap();
    let yielding = || {
        BudgetArbiter::new(WalkBudget {
            yield_every: Some(7),
            ..WalkBudget::unlimited()
        })
    };
    let (trace, reference) = step_by_step(&fresh(), &root, &mut yielding());
    for (k, (_, _, status)) in (1..).zip(&trace) {
        let yields = k % 7 == 0 && k < trace.len();
        assert_eq!(*status == StepStatus::Yielded, yields, "{label}: step {k}");
    }

    // Runs taken: fewer calls, the same walk at every call's end.
    let shared = fresh();
    let mut walker = Walker::new(&shared);
    let mut walk = StepWalker::new(&mut walker, vec![root.clone()]);
    let mut yielding = yielding();
    let (mut calls, mut counted) = (0, 0);
    while counted < trace.len() {
        let step = walk.step(&mut yielding).unwrap();
        let passed = &trace[counted..step.steps as usize - 1];
        assert!(
            (passed.iter()).all(|(_, _, status)| *status == StepStatus::Running),
            "{label}: call {calls} passed over a step the arbiter had a say at"
        );
        assert_eq!(seen(&step), trace[step.steps as usize - 1], "{label}");
        (calls, counted) = (calls + 1, step.steps as usize);
    }
    assert!(calls < trace.len(), "{label}: {calls} calls, no run taken");
    assert_eq!(walk.into_summaries(), [reference], "{label}");

    // `max_steps = k`: the walk is free to run up to a stride ahead
    // of each `k`, and every `k` is the target of one of the walks.
    const STRIDE: usize = 13;
    for offset in 1..=STRIDE {
        let shared = fresh();
        let mut walker = Walker::new(&shared);
        let mut walk = StepWalker::new(&mut walker, vec![root.clone()]);
        for k in (offset..trace.len()).step_by(STRIDE) {
            refused_after(&mut walk, k, &trace);
        }
    }
    // And from the start, free to run all the way, at a few.
    for k in (1..8).map(|eighth| eighth * trace.len() / 8) {
        let shared = fresh();
        let mut walker = Walker::new(&shared);
        let mut walk = StepWalker::new(&mut walker, vec![root.clone()]);
        let calls = refused_after(&mut walk, k, &trace);
        assert!(calls < k, "{label}: {calls} calls for {k} steps");
    }
}

/// Steps `walk` under `max_steps = k` until it is refused — after
/// exactly `k` steps, where the step-by-step `trace` stood then.
/// Returns how many calls that took.
fn refused_after<P>(walk: &mut StepWalker<'_, '_, '_, P>, k: usize, trace: &[Seen]) -> usize
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let mut arbiter = BudgetArbiter::new(WalkBudget {
        max_steps: Some(k as u64),
        ..WalkBudget::unlimited()
    });
    let mut calls = 1;
    let mut step = walk.step(&mut arbiter).unwrap();
    while step.status == StepStatus::Running {
        (calls, step) = (calls + 1, walk.step(&mut arbiter).unwrap());
    }
    let (states, depth, _) = trace[k - 1];
    let refused = StepStatus::Refused(BudgetKind::Steps);
    assert_eq!(
        (step.steps, seen(&step)),
        (k as u64, (states, depth, refused))
    );
    calls
}

#[test]
fn steps_inside_runs_are_counted_one_by_one() {
    on_the_accounted_walks!(assert_steps_are_counted);
}

/// A harvest taken from a walk suspended anywhere — mid-frame, with
/// classes met and not yet met below it — leaves the walk able to go
/// on to the root summary of a walk never harvested: the harvest
/// reads the frames' class tables and writes nothing in them.  (A
/// class it gave a summary would count as absorbed by its frame, and
/// the rows that lead to it would add their terminals to a frame
/// that never merged the rest.)
fn assert_harvest_leaves_the_walk_whole<P>(
    system: SystemConfig,
    config: ExploreConfig,
    procs: Vec<P>,
    proposals: Vec<P::Output>,
    label: &str,
) where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let fresh = || {
        let options = ExploreOptions::serial();
        Shared::new(system, config, &options, &proposals, procs.clone()).unwrap()
    };
    let root = Stepper::new(system, config.model, TraceLevel::Off, procs.clone()).unwrap();
    // Every memoized summary counts, not the root's alone: what a
    // frame failed to merge may be merged by its siblings' parents.
    let image = |shared: &Shared<'_, P>| {
        let mut image = std::collections::BTreeMap::new();
        let entry = |key: &[u8], summary: &Arc<Summary<_>>| {
            image.insert(key.to_vec(), (**summary).clone());
        };
        shared.memo.for_each(entry).unwrap();
        image
    };
    let unharvested = fresh();
    let unbudgeted = &mut BudgetArbiter::new(WalkBudget::unlimited());
    let (trace, _) = step_by_step(&unharvested, &root, unbudgeted);
    let reference = image(&unharvested);
    let mut mid_frame = 0;
    for k in (1..24).map(|part| part * trace.len() / 24) {
        let shared = fresh();
        let mut walker = Walker::new(&shared);
        let mut walk = StepWalker::new(&mut walker, vec![root.clone()]);
        refused_after(&mut walk, k, &trace);
        let top = walk.stack.last().expect("suspended before the end");
        mid_frame += usize::from(0 < top.next_action && top.next_action < top.round.len());
        let mut frontier = Vec::new();
        walk.harvest_into(&[], &mut frontier).unwrap();
        assert!(frontier.len() <= walk.harvestable(), "{label}: at {k}");
        while walk.step(&mut Unbounded).unwrap().status != StepStatus::Done {}
        assert!(image(&shared) == reference, "{label}: harvested at {k}");
    }
    assert!(mid_frame > 12, "{label}: {mid_frame} harvests mid-frame");
}

#[test]
fn a_harvest_mid_frame_leaves_the_walk_whole() {
    on_the_accounted_walks!(assert_harvest_leaves_the_walk_whole);
}

/// A harvest emits a child once.  The probe records nothing in the class
/// table, so every row of a class its frame has not absorbed comes back
/// unanswered: emitted row by row, a (9, 8) frontier held more records
/// than the space has states.  Preempted mid-frame at CRW (5, 4) and
/// (6, 5), raw and under `partial+value`: the harvested hashes are
/// pairwise distinct — within a frame, and across the frames of the stack.
#[test]
fn a_harvest_emits_each_child_once() {
    use twostep_model::WideValue;
    for (n, t) in [(5, 4), (6, 5)] {
        let system = SystemConfig::new(n, t).unwrap();
        let bits: Vec<WideValue> = (0..n as u64).map(|i| WideValue::new(1, i % 2)).collect();
        let procs = twostep_core::crw_processes(&system, &bits);
        for symmetry in [Symmetry::Off, Symmetry::PartialValue] {
            let label = format!("crw ({n}, {t}) {symmetry:?}");
            let config = ExploreConfig {
                symmetry,
                ..ExploreConfig::for_crw(&system)
            };
            let options = ExploreOptions::serial();
            let shared = Shared::new(system, config, &options, &bits, procs.clone()).unwrap();
            let root = Stepper::new(system, config.model, TraceLevel::Off, procs.clone()).unwrap();
            let mut walker = Walker::new(&shared);
            let mut walk = StepWalker::new(&mut walker, vec![root]);
            let (mut mid_frame, mut repeats) = (0, 0);
            for stop in [25, 100, 400, 1600] {
                let mut arbiter = BudgetArbiter::new(WalkBudget {
                    max_steps: Some(stop),
                    ..WalkBudget::unlimited()
                });
                while walk.step(&mut arbiter).unwrap().status == StepStatus::Running {}
                let top = walk.stack.last().expect("suspended before the end");
                mid_frame += usize::from(0 < top.next_action && top.next_action < top.round.len());
                let mut frontier = Vec::new();
                walk.harvest_into(&[], &mut frontier).unwrap();
                let distinct: std::collections::HashSet<u64> =
                    frontier.iter().map(|(hash, _)| *hash).collect();
                assert_eq!(distinct.len(), frontier.len(), "{label}: at {stop}");
                assert!(frontier.len() <= walk.harvestable(), "{label}: at {stop}");
                repeats += walk.harvestable() - frontier.len();
            }
            assert!(mid_frame > 0, "{label}: no harvest mid-frame");
            assert!(repeats > 0, "{label}: no row repeated a harvested child");
        }
    }
}

/// A system too large for the views' sender masks is explored
/// entirely on the step path — the factoring imposes no limit on
/// `n`.  One round of a quiet protocol at `n = 65`, `t = 1`: the
/// crash-free run, plus each process dying silent or at the end.
#[test]
fn systems_beyond_the_view_masks_are_stepped() {
    let n = 65;
    let system = SystemConfig::new(n, 1).unwrap();
    let procs = vec![DecideOwn { v: 3 }; n];
    let report = explore(system, options(2, 10_000), procs, vec![3; n]).unwrap();
    assert_eq!(report.root.terminals, 1 + 2 * n as u64);
    assert!(report.root.decided == vec![3] && !report.root.violating);
}

/// `NeverDecide` at `(3, 2)` runs into the round cap: every leaf of
/// the walk is a terminal with *active* processes, found terminal by
/// the child's round, not by its records — which say `Active` — and
/// evaluated from them all the same.  The report is the one the walk
/// produced when it stepped every such child (PR 19's figures).
#[test]
fn round_cap_terminals_are_settled_from_their_records() {
    let system = SystemConfig::new(3, 2).unwrap();
    let procs = vec![NeverDecide; 3];
    let report = explore(system, options(2, 10_000), procs, vec![0u64; 3]).unwrap();
    assert_eq!((report.distinct_states, report.root.terminals), (15, 61));
    assert!(report.root.violating, "the survivors never decide");
    assert_eq!(report.root.worst_round_by_f, vec![None; 3]);
    assert!(report.root.decided.is_empty());
    let witness = report.witness.expect("a violating root has a witness");
    assert!(witness
        .violations
        .iter()
        .all(|v| matches!(v, SpecViolation::Termination { .. })));
}

/// A `max_states` limit that falls on a leaf is raised by the records
/// path where `enter` raised it: `DecideOwn` at `(3, 2)` is a root
/// and nineteen leaves, so with room for three states the fourth
/// child trips the limit — after the same four steps, with the same
/// three states memoized, as when that child was stepped first.
#[test]
fn a_state_limit_on_a_leaf_is_raised_from_the_records() {
    let system = SystemConfig::new(3, 2).unwrap();
    let procs: Vec<DecideOwn> = (0..3).map(|v| DecideOwn { v }).collect();
    let proposals = vec![0u64, 1, 2];
    let config = options(4, 3);
    let options = ExploreOptions::serial();
    let shared = Shared::new(system, config, &options, &proposals, procs.clone()).unwrap();
    let root = Stepper::new(system, config.model, TraceLevel::Off, procs).unwrap();
    let mut walker = Walker::new(&shared);
    let mut walk = StepWalker::new(&mut walker, vec![root]);
    let mut steps = 0;
    let failure = loop {
        match walk.step(&mut Unbounded) {
            Ok(step) if step.status == StepStatus::Done => panic!("twenty states fit in three"),
            Ok(step) => steps = step.steps,
            Err(failure) => break failure,
        }
    };
    assert!(matches!(
        failure,
        Interrupt::Failed(ExploreError::StateLimit { budget: 3 })
    ));
    assert_eq!((steps, shared.memo.len()), (4, 3));
}

/// Every reachable terminal configuration of `root`, by a memoized
/// DFS over stepped configurations that shares nothing with the walk
/// but its order: children are visited in enumeration order, so where
/// a key does not pin a configuration down (the early decider's state
/// keeps its decision, not the round it was taken in) both explore
/// the one met first.
fn stepped_leaves<P>(walker: &mut Walker<'_, '_, P>, root: &Stepper<P>) -> Vec<Stepper<P>>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let (mut seen, mut leaves) = (std::collections::HashSet::new(), Vec::new());
    let mut stack = vec![root.clone()];
    while let Some(stepper) = stack.pop() {
        let mut key = Vec::new();
        make_key_into(&stepper, &mut key);
        if !seen.insert(key) {
            continue;
        }
        if walker.is_terminal(&stepper) {
            leaves.push(stepper);
            continue;
        }

        for actions in action_sets_of(walker, &stepper).iter().rev() {
            let mut child = stepper.clone();
            child.step(actions).unwrap();
            stack.push(child);
        }
    }
    leaves
}

/// What a terminal configuration summarizes to, written down again
/// beside the test that uses it as its reference (uniform spec only).
fn reference_leaf<P>(shared: &Shared<'_, P>, leaf: &Stepper<P>) -> Summary<P::Output>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let mut schedule = CrashSchedule::none(shared.system.n());
    for (i, status) in leaf.status().iter().enumerate() {
        if let ProcStatus::Crashed(round) = status {
            let died = CrashPoint::new(*round, CrashStage::BeforeSend);
            schedule.set(ProcessId::from_idx(i), Some(died));
        }
    }
    let f = schedule.f();
    let bound = shared.config.round_bound.map(|rb| rb.bound(f));
    let report = check_uniform_consensus(shared.proposals, leaf.decisions(), &schedule, bound);
    let mut summary = Summary::empty(shared.system.t());
    summary.terminals = 1;
    summary.violating = !report.ok();
    for decision in leaf.decisions().iter().flatten() {
        let worst = &mut summary.worst_round_by_f[f];
        *worst = (*worst).max(Some(decision.round.get()));
        if !summary.decided.contains(&decision.value) {
            summary.decided.push(decision.value.clone());
        }
    }
    summary
}

/// Leaf by leaf: every terminal configuration a stepped DFS reaches
/// is memoized under the summary a stepped evaluation gives it —
/// though the walk built none of them and read each off its parent's
/// records.  Returns how many leaves were compared.
fn assert_leaves_are_memoized_as_evaluated<P>(
    system: SystemConfig,
    config: ExploreConfig,
    procs: Vec<P>,
    proposals: Vec<P::Output>,
    label: &str,
) -> usize
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let options = ExploreOptions::serial();
    let shared = Shared::new(system, config, &options, &proposals, procs.clone()).unwrap();
    let root = Stepper::new(system, config.model, TraceLevel::Off, procs).unwrap();
    let mut walker = Walker::new(&shared);
    let mut walk = StepWalker::new(&mut walker, vec![root.clone()]);
    while walk.step(&mut Unbounded).unwrap().status != StepStatus::Done {}
    let leaves = stepped_leaves(&mut walker, &root);
    for leaf in &leaves {
        let (hash, _) = walker.canonical_key(leaf);
        let memoized = shared.memo.get(hash, walker.key_bytes()).unwrap();
        assert_eq!(
            memoized.as_deref(),
            Some(&reference_leaf(&shared, leaf)),
            "{label}: {:?} {:?}",
            leaf.status(),
            leaf.decisions()
        );
    }
    leaves.len()
}

/// The leaves a correct protocol's *root* summary cannot tell apart
/// are told apart here: a crashed process's decision, an active
/// one's, a leaf on the round cap.
#[test]
fn leaves_are_memoized_as_a_stepped_evaluation_summarizes_them() {
    let system = SystemConfig::new(3, 2).unwrap();
    let own: Vec<DecideOwn> = (0..3).map(|v| DecideOwn { v }).collect();
    let leaves = assert_leaves_are_memoized_as_evaluated(
        system,
        options(4, 10_000),
        own,
        vec![0u64, 1, 2],
        "decide-own",
    );
    assert_eq!(leaves, 19);
    assert_leaves_are_memoized_as_evaluated(
        system,
        options(2, 10_000),
        vec![NeverDecide; 3],
        vec![0u64; 3],
        "never-decide on the round cap",
    );
    let system = SystemConfig::new(4, 3).unwrap();
    let ranks: Vec<u64> = (0..4).map(|i| 10 + (i * 7) % 4).collect();
    let classic = ExploreConfig {
        model: ModelKind::Classic,
        ..options(5, 1_000_000)
    };
    assert_leaves_are_memoized_as_evaluated(
        system,
        classic,
        twostep_baselines::nonuniform_processes(4, 3, &ranks),
        ranks,
        "nonuniform early decider",
    );
    let system = SystemConfig::new(5, 4).unwrap();
    let bits: Vec<_> = (0..5)
        .map(|i| twostep_model::WideValue::new(1, i % 2))
        .collect();
    let config = ExploreConfig {
        symmetry: Symmetry::Off,
        ..ExploreConfig::for_crw(&system)
    };
    let procs = twostep_core::crw_processes(&system, &bits);
    assert_leaves_are_memoized_as_evaluated(system, config, procs, bits, "crw (5, 4)");
}

/// Terminals that end alike are memoized under one `Arc`: over the
/// CRW `(5, 4)` walk, any two leaves whose memoized summaries are
/// equal hold the *same* summary — with symmetry off, on the settled
/// tier and under `partial+value`, where the summary is interned in
/// canonical space — and the walk's verdict is what it was when every
/// leaf had a summary of its own.
#[test]
fn equal_terminal_outcomes_share_one_summary() {
    use twostep_model::WideValue;
    let system = SystemConfig::new(5, 4).unwrap();
    let bits: Vec<WideValue> = (0..5).map(|i| WideValue::new(1, i % 2)).collect();
    let procs = twostep_core::crw_processes(&system, &bits);
    // States, terminals and worst rounds per `f` as PR 19 reports them.
    for (symmetry, states) in [
        (Symmetry::Off, 815),
        (Symmetry::Full, 314),
        (Symmetry::PartialValue, 235),
    ] {
        let config = ExploreConfig {
            symmetry,
            ..ExploreConfig::for_crw(&system)
        };
        let options = ExploreOptions::serial();
        let shared = Shared::new(system, config, &options, &bits, procs.clone()).unwrap();
        let root = Stepper::new(system, config.model, TraceLevel::Off, procs.clone()).unwrap();
        let mut walker = Walker::new(&shared);
        let mut walk = StepWalker::new(&mut walker, vec![root.clone()]);
        while walk.step(&mut Unbounded).unwrap().status != StepStatus::Done {}
        let summary = walk.into_summaries().remove(0);
        assert_eq!(
            (shared.memo.len(), summary.terminals, summary.violating),
            (states, 36_365, false),
            "{symmetry:?}"
        );
        let worst_rounds: Vec<_> = (1..=5).map(Some).collect();
        assert_eq!(summary.worst_round_by_f, worst_rounds, "{symmetry:?}");
        assert_eq!(summary.decided, &bits[..2], "{symmetry:?}");

        let leaves = stepped_leaves(&mut walker, &root);
        let mut distinct: Vec<Arc<Summary<WideValue>>> = Vec::new();
        for leaf in &leaves {
            let (hash, _) = walker.canonical_key(leaf);
            let memoized = shared.memo.get(hash, walker.key_bytes()).unwrap();
            let memoized = memoized.expect("the walk memoized every leaf");
            match distinct.iter().find(|met| ***met == *memoized) {
                Some(met) => assert!(Arc::ptr_eq(met, &memoized), "{symmetry:?}"),
                None => distinct.push(memoized),
            }
        }
        let interned: usize = walker.terminals.distinct.iter().map(Vec::len).sum();
        assert_eq!(distinct.len(), interned, "{symmetry:?}");
        assert!(
            leaves.len() > 4 * distinct.len(),
            "{symmetry:?}: {} leaves end in {} ways",
            leaves.len(),
            distinct.len()
        );
    }
}
