//! The kit the explorer's test modules share: the protocol zoo
//! (`DecideOwn`, `NeverDecide`, `Flooder`, `Gossip`, `Duo`), a default
//! [`options`] config, hand-driven rounds and random adversary paths, a
//! mirror of the walker's key path ([`test_key`]), and the two macros
//! that run a protocol-generic check over the zoo.

use std::hash::Hash;

use twostep_model::codec::Canonicalizer;
use twostep_model::{BitSized, ProcessId, Round, SystemConfig};
use twostep_sim::{
    Inbox, ModelKind, RoundActions, SendPlan, Step, Stepper, SyncProtocol, TraceLevel,
};

use super::budget::{Arbiter, BudgetArbiter, StepProgress, StepVerdict};
use super::canon::{flag_in_place, make_key_into, tier_key_into};
use super::config::{
    CanonTier, CheckableProtocol, ExploreConfig, ExploreOptions, SpecMode, Symmetry,
};
use super::round::RoundKeys;
use super::walker::{Shared, Walker};
use crate::spill::SpillCodec;

/// A deliberately broken "consensus": everyone decides its own proposal
/// in round 1.  Uniform agreement must be violated whenever two
/// proposals differ, and the explorer must find a witness.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(super) struct DecideOwn {
    pub(super) v: u64,
}

impl SyncProtocol for DecideOwn {
    type Msg = u64;
    type Output = u64;
    fn send(&mut self, _round: Round) -> SendPlan<u64, u64> {
        SendPlan::quiet()
    }
    fn receive(&mut self, _round: Round, _inbox: &Inbox<u64>) -> Step<u64> {
        Step::Decide(self.v)
    }
}

impl SpillCodec for DecideOwn {
    fn encode(&self, out: &mut Vec<u8>) {
        self.v.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(DecideOwn {
            v: u64::decode(input)?,
        })
    }
    // Quiet and rank-oblivious: sends nothing, embeds no pid — the
    // full-orbit quotient is sound.
    fn pid_symmetric() -> bool {
        true
    }
}

/// A protocol that never decides — termination must be flagged.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(super) struct NeverDecide;

impl SyncProtocol for NeverDecide {
    type Msg = u64;
    type Output = u64;
    fn send(&mut self, _round: Round) -> SendPlan<u64, u64> {
        SendPlan::quiet()
    }
    fn receive(&mut self, _round: Round, _inbox: &Inbox<u64>) -> Step<u64> {
        Step::Continue
    }
}

impl SpillCodec for NeverDecide {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_input: &mut &[u8]) -> Option<Self> {
        Some(NeverDecide)
    }
    fn pid_symmetric() -> bool {
        true
    }
}

/// A small but non-trivial broadcaster: rank 1 floods its value with
/// commits for two rounds; others adopt and echo.  Gives the explorer
/// a real branching space for the parallel-equivalence tests.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(super) struct Flooder {
    pub(super) me: u32,
    pub(super) n: usize,
    pub(super) est: u64,
}

impl SyncProtocol for Flooder {
    type Msg = u64;
    type Output = u64;
    fn send(&mut self, round: Round) -> SendPlan<u64, u64> {
        let mut plan = SendPlan::quiet();
        if round.get() <= 2 {
            for r in 1..=self.n as u32 {
                if r != self.me {
                    plan = plan.with_data(ProcessId::new(r), self.est);
                }
            }
            if self.me == 1 {
                for r in (2..=self.n as u32).rev() {
                    plan = plan.with_control(ProcessId::new(r));
                }
            }
        }
        plan
    }
    fn receive(&mut self, round: Round, inbox: &Inbox<u64>) -> Step<u64> {
        if let Some(v) = inbox.data_from(ProcessId::new(1)) {
            self.est = *v;
        }
        if round.get() >= 2 {
            Step::Decide(self.est)
        } else {
            Step::Continue
        }
    }
}

impl SpillCodec for Flooder {
    fn encode(&self, out: &mut Vec<u8>) {
        self.me.encode(out);
        self.n.encode(out);
        self.est.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(Flooder {
            me: u32::decode(input)?,
            n: usize::decode(input)?,
            est: u64::decode(input)?,
        })
    }
}

const _: () = {
    // Compile-time check that u64 message payloads satisfy BitSized.
    fn assert_bitsized<T: BitSized>() {}
    fn probe() {
        assert_bitsized::<u64>();
    }
    let _ = probe;
};

pub(super) fn options(max_rounds: u32, max_states: usize) -> ExploreConfig {
    ExploreConfig {
        model: ModelKind::Extended,
        max_rounds,
        max_states,
        round_bound: None,
        max_crashes_per_round: None,
        spec: SpecMode::Uniform,
        symmetry: Symmetry::Off,
    }
}

/// Every adversary move of `stepper`'s next round as an action
/// vector, in enumeration order — a cold collector for tests that
/// drive configurations by hand.
pub(super) fn action_sets_of<P>(
    walker: &mut Walker<'_, '_, P>,
    stepper: &Stepper<P>,
) -> Vec<RoundActions>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let round = walker.open_round(stepper).unwrap();
    let rows = (0..round.len())
        .map(|idx| {
            let mut actions = RoundActions::new();
            round.actions_into(idx, &mut actions);
            actions
        })
        .collect();
    walker.close_round(round);
    rows
}

pub(super) fn flooder_procs(n: usize) -> (Vec<Flooder>, Vec<u64>) {
    let procs = (1..=n as u32)
        .map(|r| Flooder {
            me: r,
            n,
            est: 100 + r as u64,
        })
        .collect();
    let proposals = (1..=n as u64).map(|r| 100 + r).collect();
    (procs, proposals)
}

/// A genuinely pid-symmetric protocol (embeds its own pid, so the
/// relabelling remap is exercised): everyone broadcasts its estimate
/// to everyone else for two rounds, adopts the minimum it hears, and
/// decides at the end of round 2.  No rank is special and peers are
/// treated uniformly, so the full-orbit quotient is sound.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(super) struct Gossip {
    pub(super) me: u32,
    pub(super) n: usize,
    pub(super) est: u64,
}

impl SyncProtocol for Gossip {
    type Msg = u64;
    type Output = u64;
    fn send(&mut self, round: Round) -> SendPlan<u64, u64> {
        let mut plan = SendPlan::quiet();
        if round.get() <= 2 {
            for r in 1..=self.n as u32 {
                if r != self.me {
                    plan = plan.with_data(ProcessId::new(r), self.est);
                }
            }
        }
        plan
    }
    fn receive(&mut self, round: Round, inbox: &Inbox<u64>) -> Step<u64> {
        for r in 1..=self.n as u32 {
            if let Some(v) = inbox.data_from(ProcessId::new(r)) {
                if *v < self.est {
                    self.est = *v;
                }
            }
        }
        if round.get() >= 2 {
            Step::Decide(self.est)
        } else {
            Step::Continue
        }
    }
}

impl SpillCodec for Gossip {
    fn encode(&self, out: &mut Vec<u8>) {
        self.me.encode(out);
        self.n.encode(out);
        self.est.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(Gossip {
            me: u32::decode(input)?,
            n: usize::decode(input)?,
            est: u64::decode(input)?,
        })
    }
    fn pid_symmetric() -> bool {
        true
    }
    fn encode_relabelled(&self, at: usize, out: &mut Vec<u8>) {
        (at as u32 + 1).encode(out); // owner rewritten to rank at+1
        self.n.encode(out);
        self.est.encode(out);
    }
}

pub(super) fn gossip_procs(n: usize, ests: &[u64]) -> Vec<Gossip> {
    ests.iter()
        .enumerate()
        .map(|(i, &est)| Gossip {
            me: i as u32 + 1,
            n,
            est,
        })
        .collect()
}

/// A test-only mirror of `Walker::canonical_key` on a walker of its
/// own: plan resolution, tier encoding, and the value minimum, so
/// key-level tests can compare modes directly.
pub(super) fn test_key<P>(
    stepper: &Stepper<P>,
    mode: Symmetry,
    proposals: &[P::Output],
    t: usize,
) -> Vec<u8>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let plan = mode.plan::<P>(proposals);
    let mut out = Vec::new();
    if plan.tier == CanonTier::Raw {
        make_key_into(stepper, &mut out);
        return out;
    }
    let mut canon = Canonicalizer::new();
    let mut in_place = Vec::new();
    flag_in_place(stepper, plan.tier, t, &mut in_place);
    tier_key_into(stepper, plan.tier, false, &in_place, &mut canon, &mut out);
    if plan.value {
        let mut swapped = Vec::new();
        tier_key_into(
            stepper,
            plan.tier,
            true,
            &in_place,
            &mut canon,
            &mut swapped,
        );
        if swapped < out {
            out = swapped;
        }
    }
    out
}

// ---- Key-first successor generation ---------------------------------

/// Two simultaneous coordinators: in round 1 both `p_1` and `p_2`
/// send their estimate to everyone, commit to the ranks above 2 in
/// order, and schedule a send-phase decision; receivers adopt the
/// smallest estimate they hear and decide on a commit, or in round
/// 2.  Inboxes with two senders, and a `decide_after_send` that a
/// mid-send crash must suppress.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(super) struct Duo {
    pub(super) me: u32,
    pub(super) n: usize,
    pub(super) est: u64,
}

impl SyncProtocol for Duo {
    type Msg = u64;
    type Output = u64;
    fn send(&mut self, round: Round) -> SendPlan<u64, u64> {
        let mut plan = SendPlan::quiet();
        if round == Round::FIRST && self.me <= 2 {
            for r in (1..=self.n as u32).filter(|r| *r != self.me) {
                plan = plan.with_data(ProcessId::new(r), self.est);
            }
            for r in 3..=self.n as u32 {
                plan = plan.with_control(ProcessId::new(r));
            }
            plan = plan.then_decide(self.est);
        }
        plan
    }
    fn receive(&mut self, round: Round, inbox: &Inbox<u64>) -> Step<u64> {
        for (_, v) in inbox.data() {
            self.est = self.est.min(*v);
        }
        if !inbox.control().is_empty() || round.get() >= 2 {
            Step::Decide(self.est)
        } else {
            Step::Continue
        }
    }
}

impl SpillCodec for Duo {
    fn encode(&self, out: &mut Vec<u8>) {
        self.me.encode(out);
        self.n.encode(out);
        self.est.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(Duo {
            me: u32::decode(input)?,
            n: usize::decode(input)?,
            est: u64::decode(input)?,
        })
    }
}

pub(super) fn duo_procs(n: usize) -> (Vec<Duo>, Vec<u64>) {
    let proposals: Vec<u64> = (0..n as u64).map(|i| 10 + (i * 7) % 4).collect();
    let procs = proposals
        .iter()
        .enumerate()
        .map(|(i, est)| Duo {
            me: i as u32 + 1,
            n,
            est: *est,
        })
        .collect();
    (procs, proposals)
}

/// Calls `check` on every configuration met along seeded random
/// adversary paths from `procs`, with its round open; returns how
/// many rows those rounds had between them.
#[allow(clippy::too_many_arguments)]
pub(super) fn on_random_paths<P>(
    system: SystemConfig,
    model: ModelKind,
    max_rounds: u32,
    max_crashes_per_round: Option<usize>,
    symmetry: Symmetry,
    procs: Vec<P>,
    proposals: Vec<P::Output>,
    mut check: impl FnMut(&mut Walker<'_, '_, P>, &Stepper<P>, &mut RoundKeys<P>),
) -> usize
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let config = ExploreConfig {
        model,
        max_crashes_per_round,
        symmetry,
        ..options(max_rounds, 1_000_000)
    };
    let shared = Shared::new(
        system,
        config,
        &ExploreOptions::serial(),
        &proposals,
        procs.clone(),
    )
    .unwrap();
    let mut walker = Walker::new(&shared);
    let root = Stepper::new(system, model, TraceLevel::Off, procs).unwrap();
    let mut actions = RoundActions::new();
    let mut rows = 0;
    for seed in [1u64, 7, 42, 0xBAD5EED, 0xC0FFEE] {
        let mut state = seed;
        let mut stepper = root.clone();
        while !walker.is_terminal(&stepper) {
            let mut round = walker.open_round(&stepper).unwrap();
            check(&mut walker, &stepper, &mut round);
            rows += round.len();
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            round.actions_into((state >> 33) as usize % round.len(), &mut actions);
            walker.close_round(round);
            stepper.step(&actions).unwrap();
        }
    }
    rows
}

/// Sums `$check(system, model, max_rounds, procs, proposals, label,
/// $extra..)` — a function generic in the protocol — over the
/// protocols the key-first tests cover.
macro_rules! over_the_zoo {
    ($check:ident $(, $extra:expr)*) => {{
        use twostep_core::{crw_processes, CommitOrder, Crw, ExtendedOnClassic};
        use twostep_model::WideValue;

        let bits = |n: usize| -> Vec<WideValue> {
            (0..n).map(|i| WideValue::new(1, (i % 2) as u64)).collect()
        };
        let ranks =
            |n: usize| -> Vec<u64> { (0..n as u64).map(|i| 10 + (i * 7) % 4).collect() };
        let mut total = 0;

        // CRW under the paper's commit order and the LowestFirst
        // ablation.
        let system = SystemConfig::new(5, 4).unwrap();
        total += $check(
            system,
            ModelKind::Extended,
            6,
            crw_processes(&system, &bits(5)),
            bits(5),
            "crw highest-first"
            $(, $extra)*
        );
        let lowest_first: Vec<Crw<WideValue>> = bits(5)
            .into_iter()
            .enumerate()
            .map(|(i, v)| {
                Crw::with_order(ProcessId::from_idx(i), 5, v, CommitOrder::LowestFirst)
            })
            .collect();
        total += $check(
            system,
            ModelKind::Extended,
            7,
            lowest_first,
            bits(5),
            "crw lowest-first"
            $(, $extra)*
        );

        // FloodSet (everyone sends to everyone), EarlyStopping, and
        // the non-uniform early decider — the one `DecideAndContinue`
        // user, whose processes stand *active with a decision* — on
        // the classic model.
        let system = SystemConfig::new(4, 3).unwrap();
        total += $check(
            system,
            ModelKind::Classic,
            5,
            twostep_baselines::floodset_processes(4, 3, &ranks(4)),
            ranks(4),
            "floodset"
            $(, $extra)*
        );
        total += $check(
            system,
            ModelKind::Classic,
            5,
            twostep_baselines::earlystop_processes(4, 3, &ranks(4)),
            ranks(4),
            "earlystop"
            $(, $extra)*
        );
        total += $check(
            system,
            ModelKind::Classic,
            5,
            twostep_baselines::nonuniform_processes(4, 3, &ranks(4)),
            ranks(4),
            "nonuniform early decider"
            $(, $extra)*
        );

        // The §2.2 block simulation: its state stashes a `SendPlan`
        // that its own `send` mutates, so only the *post-send* state
        // is right.
        let system = SystemConfig::new(3, 2).unwrap();
        let wrapped: Vec<_> = crw_processes(&system, &bits(3))
            .into_iter()
            .map(|p| ExtendedOnClassic::new(p, 3))
            .collect();
        total += $check(
            system,
            ModelKind::Classic,
            10,
            wrapped,
            bits(3),
            "extended-on-classic crw"
            $(, $extra)*
        );

        // Two simultaneous senders with send-phase decisions.
        let system = SystemConfig::new(4, 2).unwrap();
        let (procs, proposals) = $crate::explorer::testkit::duo_procs(4);
        total += $check(
            system,
            ModelKind::Extended,
            3,
            procs,
            proposals,
            "duo"
            $(, $extra)*
        );
        total
    }};
}

/// The index of the row of `round` that materializes to `actions`.
pub(super) fn row_index<P>(round: &RoundKeys<P>, actions: &RoundActions) -> usize
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let mut row = RoundActions::new();
    (0..round.len())
        .find(|idx| {
            round.actions_into(*idx, &mut row);
            row == *actions
        })
        .expect("the adversary has this move")
}

/// [`BudgetArbiter`]'s verdicts with its headroom withheld (the
/// trait's default promises none): every step its own `step()` call,
/// as all of them were before runs.
pub(super) struct NoHeadroom<'b>(pub(super) &'b mut BudgetArbiter);

impl Arbiter for NoHeadroom<'_> {
    fn inspect(&mut self, progress: &StepProgress) -> StepVerdict {
        self.0.inspect(progress)
    }
}

/// Calls `$check(system, config, procs, proposals, label)` — a
/// function generic in the protocol — for the two walks the run
/// absorption tests drive: CRW `(5, 4)`, whose one sender a round
/// leaves long runs of repeated rows, and FloodSet `(4, 3)`, where
/// every slot is a sender.
macro_rules! on_the_accounted_walks {
    ($check:ident) => {{
        use twostep_model::WideValue;
        let system = SystemConfig::new(5, 4).unwrap();
        let bits: Vec<WideValue> = (0..5).map(|i| WideValue::new(1, i % 2)).collect();
        $check(
            system,
            ExploreConfig::for_crw(&system),
            twostep_core::crw_processes(&system, &bits),
            bits,
            "crw (5, 4)",
        );
        let system = SystemConfig::new(4, 3).unwrap();
        let ranks: Vec<u64> = (0..4).map(|i| 10 + (i * 7) % 4).collect();
        $check(
            system,
            ExploreConfig {
                model: ModelKind::Classic,
                ..$crate::explorer::testkit::options(5, 1_000_000)
            },
            twostep_baselines::floodset_processes(4, 3, &ranks),
            ranks,
            "floodset (4, 3)",
        );
    }};
}

pub(super) use {on_the_accounted_walks, over_the_zoo};
