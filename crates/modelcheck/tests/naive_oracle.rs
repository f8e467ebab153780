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
//!
//! The same recursion is the reference for the symmetry quotient: it
//! writes every raw reachable configuration down in an encoding of its
//! own, with the summary of its subtree, canonicalizes each by brute force
//! — the minimum over every permutation of the settled records among the
//! settled slots, and over the value swap where the proposals are closed
//! under it — and the groups that fall out must be as many as the
//! quotient walk's `distinct_states`, each of one summary (up to the
//! swap).

use std::collections::HashMap;

use twostep_adversary::crash_outcomes_effective_into;
use twostep_baselines::{earlystop_processes, floodset_processes, nonuniform_processes};
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

/// Calls `visit` on every adversary move of `stepper`'s next round, as
/// a whole action vector: a plain nested product over the processes still
/// undecided — each survives, or crashes in one of its live-effect
/// outcomes — crashing at most what is left of `t`.
fn each_move<P: CheckableProtocol>(
    stepper: &Stepper<P>,
    t: usize,
    visit: &mut dyn FnMut(&RoundActions),
) {
    /// Every move that extends `row` over the processes `active[..]`,
    /// crashing at most `budget` more of them.
    fn product(
        active: &[usize],
        outcomes: &[Vec<CrashStage>],
        budget: usize,
        row: &mut RoundActions,
        visit: &mut dyn FnMut(&RoundActions),
    ) {
        let Some((&i, rest)) = active.split_first() else {
            return visit(row);
        };
        product(rest, &outcomes[1..], budget, row, visit);
        if budget > 0 {
            for stage in &outcomes[0] {
                row[i] = Some(stage.clone());
                product(rest, &outcomes[1..], budget - 1, row, visit);
            }
            row[i] = None;
        }
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
            let live: Vec<ProcessId> = shape.data_dests.iter().copied().filter(is_active).collect();
            let ks: Vec<usize> = (1..=shape.control_len)
                .filter(|k| is_active(&shape.control_dests[k - 1]))
                .collect();
            let mut stages = Vec::new();
            let had_data = !shape.data_dests.is_empty();
            crash_outcomes_effective_into(n, &live, had_data, &ks, &mut stages);
            stages
        })
        .collect();
    let budget = t - crashed(stepper).count();
    product(&active, &outcomes, budget, &mut vec![None; n], visit);
}

/// A summary of nothing, `t + 1` crash counts wide.
fn nothing<O>(t: usize) -> Summary<O> {
    Summary {
        terminals: 0,
        worst_round_by_f: vec![None; t + 1],
        decided: Vec::new(),
        violating: false,
    }
}

impl<O: Clone + Eq + std::fmt::Debug> Naive<'_, O> {
    fn is_terminal<P>(&self, stepper: &Stepper<P>) -> bool
    where
        P: CheckableProtocol<Output = O>,
    {
        stepper.is_quiescent() || stepper.round().get() > self.config.max_rounds
    }

    fn walk<P>(&mut self, stepper: &Stepper<P>)
    where
        P: CheckableProtocol<Output = O>,
    {
        if self.is_terminal(stepper) {
            let leaf = self.leaf(stepper);
            return merge(&mut self.tally, &leaf);
        }
        each_move(stepper, self.t, &mut |row| {
            let mut child = stepper.clone();
            child.step(row).unwrap();
            self.walk(&child)
        });
    }

    /// The summary of one terminal execution.
    fn leaf<P>(&self, stepper: &Stepper<P>) -> Summary<O>
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
        let mut leaf = nothing(self.t);
        leaf.terminals = 1;
        leaf.violating = !report.ok();
        for decision in stepper.decisions().iter().flatten() {
            let worst = &mut leaf.worst_round_by_f[f];
            *worst = (*worst).max(Some(decision.round.get()));
            if !leaf.decided.contains(&decision.value) {
                leaf.decided.push(decision.value.clone());
            }
        }
        leaf
    }

    /// The summary of everything below `stepper`, by the same memo-less
    /// recursion as [`walk`](Self::walk) — and on the way every
    /// configuration met is written down in `census` with its summary
    /// and its brute-force canonical forms.  A configuration met again
    /// is walked again, and must summarize as it did.
    fn census<P>(
        &mut self,
        stepper: &Stepper<P>,
        swappable: bool,
        census: &mut HashMap<Written, Censused<O>>,
    ) -> Summary<O>
    where
        P: CheckableProtocol<Output = O>,
        O: SpillCodec,
    {
        let mut below = nothing(self.t);
        if self.is_terminal(stepper) {
            below = self.leaf(stepper);
        } else {
            each_move(stepper, self.t, &mut |row| {
                let mut child = stepper.clone();
                child.step(row).unwrap();
                merge(&mut below, &self.census(&child, swappable, census));
            });
        }
        let met = census
            .entry(write_down(stepper, false))
            .or_insert_with(|| Censused {
                summary: below.clone(),
                settled_orbit: brute_force_canonical(stepper, false).0,
                swapped_orbit: brute_force_canonical(stepper, swappable),
            });
        assert_same_summary(&met.summary, &below, false, "a configuration met twice");
        below
    }
}

/// Folds `from` into `into`, the way a subtree's summary is made of its
/// children's.
fn merge<O: Clone + Eq>(into: &mut Summary<O>, from: &Summary<O>) {
    into.terminals += from.terminals;
    for (worst, theirs) in into.worst_round_by_f.iter_mut().zip(&from.worst_round_by_f) {
        *worst = (*worst).max(*theirs);
    }
    for value in &from.decided {
        if !into.decided.contains(value) {
            into.decided.push(value.clone());
        }
    }
    into.violating |= from.violating;
}

/// A configuration as this oracle writes it down: the round, and per
/// process what the explorer tells apart — an active process's state, a
/// decision's value and round, whether a crashed process had decided
/// (not the round it crashed in).  Values and states in their own
/// [`SpillCodec`] bytes.
type Written = (u32, Vec<Entry>);

#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
enum Entry {
    Active(Vec<u8>),
    Decided(Vec<u8>, u32),
    Crashed(Option<(Vec<u8>, u32)>),
}

/// What the census keeps of a raw configuration.
struct Censused<O> {
    summary: Summary<O>,
    /// Its canonical form modulo permutations of settled records.
    settled_orbit: Written,
    /// The same modulo the value swap too, where the run admits it, and
    /// whether the swapped image gave the minimum.
    swapped_orbit: (Written, bool),
}

fn bytes_of<T: SpillCodec>(value: &T, swap: bool) -> Vec<u8> {
    let mut out = Vec::new();
    match swap {
        true => value.value_swapped().expect("swappable").encode(&mut out),
        false => value.encode(&mut out),
    }
    out
}

fn write_down<P>(stepper: &Stepper<P>, swap: bool) -> Written
where
    P: CheckableProtocol,
    P::Output: SpillCodec,
{
    let decided = |i: usize| {
        let decision = stepper.decisions()[i].as_ref();
        decision.map(|d| (bytes_of(&d.value, swap), d.round.get()))
    };
    let entries = (0..stepper.procs().len()).map(|i| match stepper.status()[i] {
        ProcStatus::Active => Entry::Active(bytes_of(&*stepper.procs()[i], swap)),
        ProcStatus::Decided => {
            let (value, round) = decided(i).expect("a decided process has a decision");
            Entry::Decided(value, round)
        }
        ProcStatus::Crashed(_) => Entry::Crashed(decided(i)),
    });
    (stepper.round().get(), entries.collect())
}

/// Calls `visit` on every permutation of `0..k`.
fn each_permutation(k: usize, visit: &mut dyn FnMut(&[usize])) {
    fn extend(perm: &mut Vec<usize>, k: usize, visit: &mut dyn FnMut(&[usize])) {
        if perm.len() == k {
            return visit(perm);
        }
        for next in 0..k {
            if !perm.contains(&next) {
                perm.push(next);
                extend(perm, k, visit);
                perm.pop();
            }
        }
    }
    extend(&mut Vec::new(), k, visit);
}

/// The smallest written form among every image of `stepper`'s
/// configuration under a permutation of its settled records among its
/// settled slots — and, with `swappable`, under the value swap on top —
/// and whether a swapped image was it (the plain one wins a tie).
fn brute_force_canonical<P>(stepper: &Stepper<P>, swappable: bool) -> (Written, bool)
where
    P: CheckableProtocol,
    P::Output: SpillCodec,
{
    let mut best: Option<(Written, bool)> = None;
    for swap in [false, true] {
        if swap && !swappable {
            continue;
        }
        let (round, entries) = write_down(stepper, swap);
        let settled: Vec<usize> = (0..entries.len())
            .filter(|i| !matches!(entries[*i], Entry::Active(_)))
            .collect();
        each_permutation(settled.len(), &mut |perm| {
            let mut image = entries.clone();
            for (slot, from) in settled.iter().zip(perm) {
                image[*slot] = entries[settled[*from]].clone();
            }
            let image = (round, image);
            if best.as_ref().is_none_or(|(least, _)| image < *least) {
                best = Some((image, swap));
            }
        });
    }
    best.expect("the identity image")
}

/// `a` and `b` are one summary — once `b`'s decided values are mapped
/// through the value swap, if `swapped`.  Valencies compare as sets.
fn assert_same_summary<O>(a: &Summary<O>, b: &Summary<O>, swapped: bool, label: &str)
where
    O: SpillCodec,
{
    let valency = |summary: &Summary<O>, swap: bool| {
        let mut values: Vec<Vec<u8>> = summary.decided.iter().map(|v| bytes_of(v, swap)).collect();
        values.sort();
        values
    };
    assert_eq!(a.terminals, b.terminals, "{label}: terminals");
    assert_eq!(
        a.worst_round_by_f, b.worst_round_by_f,
        "{label}: worst rounds"
    );
    assert_eq!(a.violating, b.violating, "{label}: violating");
    assert_eq!(valency(a, false), valency(b, swapped), "{label}: valency");
}

/// The quotient against brute force: the raw reachable configurations of
/// `procs`, enumerated and summarized by the naive recursion, grouped by
/// their brute-force canonical forms, must fall into as many groups as
/// the walk memoizes states — with symmetry off (every configuration its
/// own group), under `Full`, and with `value_quotient` under
/// `PartialValue` — and the members of a group must summarize alike.
fn assert_orbits_match_brute_force<P>(
    system: SystemConfig,
    config: ExploreConfig,
    procs: Vec<P>,
    proposals: Vec<P::Output>,
    value_quotient: bool,
    label: &str,
) where
    P: CheckableProtocol,
    P::Output: std::hash::Hash + SpillCodec + std::fmt::Debug,
{
    // The swap applies where the protocol declares it and the proposal
    // set is closed under it.
    let swappable = P::value_symmetric()
        && (proposals.iter()).all(|p| p.value_swapped().is_some_and(|q| proposals.contains(&q)));
    let root = Stepper::new(system, config.model, TraceLevel::Off, procs.clone()).unwrap();
    let mut naive = Naive {
        config,
        t: system.t(),
        proposals: &proposals,
        tally: nothing(system.t()),
    };
    let mut census = HashMap::new();
    naive.census(&root, swappable, &mut census);

    let states = |symmetry| {
        let config = ExploreConfig { symmetry, ..config };
        let options = ExploreOptions::serial();
        let report = explore_with(system, config, options, procs.clone(), proposals.clone());
        report.unwrap().distinct_states
    };
    assert_eq!(census.len(), states(Symmetry::Off), "{label}: raw states");

    let mut settled: HashMap<&Written, &Censused<_>> = HashMap::new();
    let mut swapped: HashMap<&Written, &Censused<_>> = HashMap::new();
    for met in census.values() {
        let first = settled.entry(&met.settled_orbit).or_insert(met);
        assert_same_summary(&first.summary, &met.summary, false, label);
        let first = swapped.entry(&met.swapped_orbit.0).or_insert(met);
        let mirrored = first.swapped_orbit.1 != met.swapped_orbit.1;
        assert_same_summary(&first.summary, &met.summary, mirrored, label);
    }
    assert_eq!(settled.len(), states(Symmetry::Full), "{label}: full");
    if value_quotient {
        let quotient = states(Symmetry::PartialValue);
        assert_eq!(swapped.len(), quotient, "{label}: partial+value");
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
        tally: nothing(system.t()),
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

/// The one place a *crashed* process's decision decides the verdict: the
/// non-uniform early-deciding baseline held to **uniform** agreement
/// fails only where a process decides and then crashes while the
/// survivors settle on another value.  The walk evaluates those
/// terminals from what its records keep of a process that settled
/// crashed-with-a-decision; the oracle reads the stepped configuration.
#[test]
fn decide_then_crash_violations_equal_the_naive_oracle() {
    for system in systems(&[]).into_iter().filter(|system| system.t() >= 2) {
        let (n, t) = (system.n(), system.t());
        let proposals: Vec<u64> = (0..n as u64).map(|i| 10 + i).collect();
        let config = ExploreConfig {
            model: ModelKind::Classic,
            max_rounds: t as u32 + 2,
            max_states: 5_000_000,
            round_bound: None,
            max_crashes_per_round: None,
            symmetry: Symmetry::Off,
            spec: SpecMode::Uniform,
        };
        let root = assert_walk_matches_oracle(
            system,
            config,
            nonuniform_processes(n, t, &proposals),
            proposals,
            &format!("nonuniform ({n}, {t})"),
        );
        assert!(
            root.violating,
            "nonuniform ({n}, {t}) under uniform agreement"
        );
    }
}

#[test]
fn symmetry_quotients_equal_the_brute_force_orbits() {
    for system in systems(&[]) {
        let (n, t) = (system.n(), system.t());
        // At `t = n − 1` no rank is ever inert (there are never more
        // actives below a process than crashes left), so settled
        // permutations and the swap are the whole of `partial+value`.
        let maximal = t == n - 1;
        for order in [CommitOrder::HighestFirst, CommitOrder::LowestFirst] {
            let procs: Vec<Crw<WideValue>> = (bits(n).into_iter().enumerate())
                .map(|(i, v)| Crw::with_order(ProcessId::from_idx(i), n, v, order))
                .collect();
            let label = format!("{order:?} crw ({n}, {t})");
            let config = crw_config(&system);
            assert_orbits_match_brute_force(system, config, procs, bits(n), maximal, &label);
        }
        let proposals: Vec<u64> = (0..n as u64).map(|i| 10 + i).collect();
        let config = ExploreConfig {
            model: ModelKind::Classic,
            max_rounds: t as u32 + 2,
            max_states: 5_000_000,
            round_bound: Some(RoundBound::Fixed(t as u32 + 1)),
            max_crashes_per_round: None,
            symmetry: Symmetry::Off,
            spec: SpecMode::Uniform,
        };
        assert_orbits_match_brute_force(
            system,
            config,
            floodset_processes(n, t, &proposals),
            proposals,
            maximal,
            &format!("floodset ({n}, {t})"),
        );
    }
}
