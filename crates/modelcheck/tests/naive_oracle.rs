//! An oracle that shares no code with the walker: a recursive explorer
//! with no memo, no pooling, no views, keys or classes — it clones the
//! configuration, steps it under every adversary move of a plain nested
//! product, and tallies the terminals it reaches one by one.  Every
//! differential suite compares an engine with the serial walk; this one
//! compares the serial walk with something else.  Its full root
//! [`Summary`] must equal the walk's, for the paper's algorithm under both
//! commit orders and for both classic baselines at every `n ≤ 4` (CRW at
//! `(5, 4)` too), and for the paper's algorithm the worst decision round
//! with `f` crashes must be exactly `f + 1`.

use twostep_adversary::crash_outcomes_effective_into;
use twostep_baselines::{earlystop_processes, floodset_processes};
use twostep_core::{crw_processes, CommitOrder, Crw};
use twostep_model::{CrashPoint, CrashSchedule, CrashStage, ProcessId, SystemConfig, WideValue};
use twostep_modelcheck::{
    explore_with, CheckableProtocol, ExploreConfig, ExploreOptions, RoundBound, SpecMode,
    SpillCodec, Summary, Symmetry,
};
use twostep_sim::{
    check_uniform_consensus, ModelKind, PlanShape, ProcStatus, RoundActions, Stepper, TraceLevel,
};

struct Naive<'a, O> {
    config: ExploreConfig,
    t: usize,
    proposals: &'a [O],
    tally: Summary<O>,
}

impl<O: Clone + Eq + std::fmt::Debug> Naive<'_, O> {
    fn walk<P>(&mut self, stepper: &Stepper<P>)
    where
        P: CheckableProtocol<Output = O>,
    {
        if stepper.is_quiescent() || stepper.round().get() > self.config.max_rounds {
            return self.terminal(stepper);
        }
        let n = stepper.procs().len();
        let is_active = |p: &ProcessId| matches!(stepper.status()[p.idx()], ProcStatus::Active);
        let active: Vec<usize> = stepper.active().map(ProcessId::idx).collect();
        let mut shape = PlanShape {
            data_dests: Vec::new(),
            control_len: 0,
            control_dests: Vec::new(),
        };
        let outcomes: Vec<Vec<CrashStage>> = active
            .iter()
            .map(|&i| {
                assert!(stepper.peek_plan_shape_into(i, &mut shape));
                let live: Vec<ProcessId> =
                    shape.data_dests.iter().copied().filter(is_active).collect();
                let ks: Vec<usize> = (1..=shape.control_len)
                    .filter(|k| is_active(&shape.control_dests[k - 1]))
                    .collect();
                let mut stages = Vec::new();
                let had_data = !shape.data_dests.is_empty();
                crash_outcomes_effective_into(n, &live, had_data, &ks, &mut stages);
                stages
            })
            .collect();
        let budget = self.t - crashed(stepper).count();
        self.product(stepper, &active, &outcomes, budget, &mut vec![None; n]);
    }

    /// Every move that extends `row` over the processes `active[..]`
    /// still undecided, crashing at most `budget` more of them.
    fn product<P>(
        &mut self,
        stepper: &Stepper<P>,
        active: &[usize],
        outcomes: &[Vec<CrashStage>],
        budget: usize,
        row: &mut RoundActions,
    ) where
        P: CheckableProtocol<Output = O>,
    {
        let Some((&i, rest)) = active.split_first() else {
            let mut child = stepper.clone();
            child.step(row).unwrap();
            return self.walk(&child);
        };
        self.product(stepper, rest, &outcomes[1..], budget, row);
        if budget > 0 {
            for stage in &outcomes[0] {
                row[i] = Some(stage.clone());
                self.product(stepper, rest, &outcomes[1..], budget - 1, row);
            }
            row[i] = None;
        }
    }

    fn terminal<P>(&mut self, stepper: &Stepper<P>)
    where
        P: CheckableProtocol<Output = O>,
    {
        let mut schedule = CrashSchedule::none(stepper.procs().len());
        for (i, round) in crashed(stepper) {
            let died = CrashPoint::new(round, CrashStage::BeforeSend);
            schedule.set(ProcessId::from_idx(i), Some(died));
        }
        let f = schedule.f();
        let bound = self.config.round_bound.map(|rb| rb.bound(f));
        let report = check_uniform_consensus(self.proposals, stepper.decisions(), &schedule, bound);
        assert_eq!(self.config.spec, SpecMode::Uniform);
        self.tally.terminals += 1;
        self.tally.violating |= !report.ok();
        for decision in stepper.decisions().iter().flatten() {
            let worst = &mut self.tally.worst_round_by_f[f];
            *worst = (*worst).max(Some(decision.round.get()));
            if !self.tally.decided.contains(&decision.value) {
                self.tally.decided.push(decision.value.clone());
            }
        }
    }
}

/// The crashed processes of a configuration, each with its crash round.
fn crashed<P: CheckableProtocol>(
    stepper: &Stepper<P>,
) -> impl Iterator<Item = (usize, twostep_model::Round)> + '_ {
    let status = stepper.status().iter().enumerate();
    status.filter_map(|(i, s)| match s {
        ProcStatus::Crashed(round) => Some((i, *round)),
        _ => None,
    })
}

/// Explores `procs` both ways and compares the root summaries; returns
/// the walk's.
fn assert_walk_matches_oracle<P>(
    system: SystemConfig,
    config: ExploreConfig,
    procs: Vec<P>,
    proposals: Vec<P::Output>,
    label: &str,
) -> Summary<P::Output>
where
    P: CheckableProtocol,
    P::Output: std::hash::Hash + SpillCodec + std::fmt::Debug,
{
    let root = Stepper::new(system, config.model, TraceLevel::Off, procs.clone()).unwrap();
    let mut naive = Naive {
        config,
        t: system.t(),
        proposals: &proposals,
        tally: Summary {
            terminals: 0,
            worst_round_by_f: vec![None; system.t() + 1],
            decided: Vec::new(),
            violating: false,
        },
    };
    naive.walk(&root);
    let oracle = naive.tally;
    let options = ExploreOptions::serial();
    let walk = explore_with(system, config, options, procs, proposals)
        .unwrap()
        .root;
    assert_eq!(walk.terminals, oracle.terminals, "{label}: terminals");
    assert_eq!(
        walk.worst_round_by_f, oracle.worst_round_by_f,
        "{label}: worst round by f"
    );
    assert_eq!(walk.violating, oracle.violating, "{label}: violating");
    assert_eq!(walk.decided.len(), oracle.decided.len(), "{label}: valency");
    for value in &oracle.decided {
        assert!(walk.decided.contains(value), "{label}: {value:?} decided");
    }
    walk
}

fn bits(n: usize) -> Vec<WideValue> {
    (0..n).map(|i| WideValue::new(1, (i % 2) as u64)).collect()
}

fn crw_config(system: &SystemConfig) -> ExploreConfig {
    ExploreConfig {
        symmetry: Symmetry::Off,
        ..ExploreConfig::for_crw(system)
    }
}

/// Every `(n, t)` with `n ≤ 4`, plus the sizes in `extra`.
fn systems(extra: &[(usize, usize)]) -> Vec<SystemConfig> {
    let small = (2..=4).flat_map(|n| (1..n).map(move |t| (n, t)));
    small
        .chain(extra.iter().copied())
        .map(|(n, t)| SystemConfig::new(n, t).unwrap())
        .collect()
}

#[test]
fn crw_walk_equals_the_naive_oracle_and_decides_by_f_plus_one() {
    for system in systems(&[(5, 4)]) {
        let (n, t) = (system.n(), system.t());
        let label = format!("crw ({n}, {t})");
        let procs = crw_processes(&system, &bits(n));
        let root = assert_walk_matches_oracle(system, crw_config(&system), procs, bits(n), &label);
        assert!(!root.violating, "{label}");
        // Theorem 1 and its matching lower bound: with `f` crashes the
        // adversary can force round `f + 1`, and nothing later.
        for (f, worst) in root.worst_round_by_f.iter().enumerate() {
            assert_eq!(*worst, Some(f as u32 + 1), "{label}: f = {f}");
        }
    }
}

#[test]
fn lowest_first_crw_walk_equals_the_naive_oracle() {
    for system in systems(&[]) {
        let n = system.n();
        let procs: Vec<Crw<WideValue>> = (bits(n).into_iter().enumerate())
            .map(|(i, v)| Crw::with_order(ProcessId::from_idx(i), n, v, CommitOrder::LowestFirst))
            .collect();
        let label = format!("lowest-first crw ({n}, {})", system.t());
        assert_walk_matches_oracle(system, crw_config(&system), procs, bits(n), &label);
    }
}

#[test]
fn classic_baseline_walks_equal_the_naive_oracle() {
    for system in systems(&[]) {
        let (n, t) = (system.n(), system.t());
        let proposals: Vec<u64> = (0..n as u64).map(|i| 10 + i).collect();
        let config = |round_bound| ExploreConfig {
            model: ModelKind::Classic,
            max_rounds: t as u32 + 2,
            max_states: 5_000_000,
            round_bound: Some(round_bound),
            max_crashes_per_round: None,
            symmetry: Symmetry::Off,
            spec: SpecMode::Uniform,
        };
        let root = assert_walk_matches_oracle(
            system,
            config(RoundBound::Fixed(t as u32 + 1)),
            floodset_processes(n, t, &proposals),
            proposals.clone(),
            &format!("floodset ({n}, {t})"),
        );
        assert!(!root.violating, "floodset ({n}, {t})");
        let root = assert_walk_matches_oracle(
            system,
            config(RoundBound::ClassicEarly { t }),
            earlystop_processes(n, t, &proposals),
            proposals.clone(),
            &format!("earlystop ({n}, {t})"),
        );
        assert!(!root.violating, "earlystop ({n}, {t})");
    }
}
