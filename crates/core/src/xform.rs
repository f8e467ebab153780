//! The Section 2.2 computability constructions: the extended and classic
//! models simulate each other, so they have the same computational power —
//! the extended model only buys *efficiency* (rounds), not computability.
//!
//! * [`ClassicOnExtended`] — the trivial direction: a classic-model
//!   protocol runs unchanged on the extended engine by never using the
//!   control step ("if we suppress the second sending step we obtain the
//!   traditional synchronous model").
//!
//! * [`ExtendedOnClassic`] — the costly direction: each extended round is
//!   simulated by a **block of `n` classic rounds**: one round for the data
//!   step, then one classic round *per ordered control destination slot*
//!   (`n-1` of them).  Sending each control message in its own consecutive
//!   round is what restores the ordered-prefix crash semantics inside the
//!   classic model, where a crash only yields an arbitrary subset of a
//!   single round's messages: if the simulated process crashes while
//!   sending control message `#k`, messages `#1 … #k-1` went out in
//!   earlier (completed) rounds and messages `#k+1 …` were never sent, so
//!   the delivered control set is exactly a prefix, possibly including
//!   `#k`.  This is the paper's "(using additional separate rounds allows
//!   ensuring that the control messages are sent in the prescribed
//!   order)".
//!
//! [`translate_schedule`] maps an extended-model crash schedule onto the
//! corresponding classic-model schedule so that equivalence can be tested
//! mechanically: for every extended schedule, the direct run and the
//! simulated run decide **identically** (experiment E6, `repro
//! e6-equivalence`).

use std::fmt;
use twostep_model::{
    BitSized, CrashPoint, CrashSchedule, CrashStage, PidSet, ProcessId, Round, SpillCodec,
};
use twostep_sim::{Inbox, SendPlan, Step, SyncProtocol};

/// Marker wrapper for running a classic-model protocol on the extended
/// engine (the trivial simulation direction).
///
/// Purely a documentation device: it delegates everything and adds a
/// debug-time check that the wrapped protocol really never uses the
/// control step.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ClassicOnExtended<P>(pub P);

impl<P: SyncProtocol> SyncProtocol for ClassicOnExtended<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn send(&mut self, round: Round) -> SendPlan<P::Msg, P::Output> {
        let plan = self.0.send(round);
        debug_assert!(
            plan.control.is_empty(),
            "a classic-model protocol must not use the control step"
        );
        plan
    }

    fn receive(&mut self, round: Round, inbox: &Inbox<P::Msg>) -> Step<P::Output> {
        self.0.receive(round, inbox)
    }
}

impl<P: SpillCodec> SpillCodec for ClassicOnExtended<P> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(ClassicOnExtended(P::decode(input)?))
    }
    fn encode_relabelled(&self, at: usize, out: &mut Vec<u8>) {
        self.0.encode_relabelled(at, out);
    }
}

/// Message type of the classic-model simulation: either a real data
/// message of the wrapped protocol or an encoded one-bit control message.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum XMsg<M> {
    /// A data message of the simulated extended round.
    Data(M),
    /// A control (commit) message, encoded as a minimal data message.
    Control,
}

impl<M: BitSized> BitSized for XMsg<M> {
    fn bit_size(&self) -> u64 {
        match self {
            XMsg::Data(m) => m.bit_size(),
            // The simulation cannot do better than the classic model's
            // smallest message; Theorem 2's footnote prices it at one bit.
            XMsg::Control => 1,
        }
    }
}

/// Runs an extended-model protocol on the **classic** engine by expanding
/// every extended round into a block of `n` classic rounds.
///
/// Block layout for extended round `R` (with `B = n`):
///
/// ```text
/// classic round (R-1)·B + 1      : all data messages of R
/// classic round (R-1)·B + 1 + j  : ordered control message #j (j = 1..n-1)
/// ```
///
/// The wrapped protocol's send-phase decision (Figure 1 line 6) fires at
/// the **last** round of the block, after the final control slot — i.e.
/// only if the whole simulated send phase completed, mirroring the
/// extended engine's rule.  Inbound messages are buffered across the block
/// and handed to the wrapped protocol at the block's end, so a process
/// never acts on partial-round information.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ExtendedOnClassic<P: SyncProtocol> {
    inner: P,
    n: usize,
    stash: Option<SendPlan<P::Msg, P::Output>>,
    buf_data: Vec<(ProcessId, P::Msg)>,
    buf_control: Vec<ProcessId>,
}

impl<P: SyncProtocol> ExtendedOnClassic<P> {
    /// Wraps one process of an `n`-process extended-model protocol.
    pub fn new(inner: P, n: usize) -> Self {
        assert!(n >= 1);
        ExtendedOnClassic {
            inner,
            n,
            stash: None,
            buf_data: Vec::new(),
            buf_control: Vec::new(),
        }
    }

    /// Classic rounds per simulated extended round: `n` (1 data slot +
    /// `n-1` ordered control slots).
    pub fn block_len(n: usize) -> u32 {
        n as u32
    }

    /// Decomposes a classic round into `(extended_round, slot)` with
    /// `slot ∈ 1..=n`; slot 1 is the data slot, slot `1+j` carries control
    /// message `#j`.
    pub fn decompose(classic: Round, n: usize) -> (Round, u32) {
        let b = Self::block_len(n);
        let zero = classic.get() - 1;
        (Round::new(zero / b + 1), zero % b + 1)
    }

    /// The classic round corresponding to `(extended_round, slot)`.
    pub fn compose(extended: Round, slot: u32, n: usize) -> Round {
        debug_assert!(slot >= 1 && slot <= Self::block_len(n));
        Round::new((extended.get() - 1) * Self::block_len(n) + slot)
    }

    /// Access to the wrapped protocol state.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

/// Mid-block simulation state (the stashed plan and the buffered inbox)
/// is part of the configuration key under the model checker, so the
/// whole wrapper must round-trip through bytes for the spilling memo and
/// the distributed interchange format.
impl<P> SpillCodec for ExtendedOnClassic<P>
where
    P: SyncProtocol + SpillCodec,
    P::Msg: SpillCodec,
    P::Output: SpillCodec,
{
    fn encode(&self, out: &mut Vec<u8>) {
        self.inner.encode(out);
        self.n.encode(out);
        self.stash.encode(out);
        self.buf_data.encode(out);
        self.buf_control.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let inner = P::decode(input)?;
        let n = usize::decode(input)?;
        let stash = Option::<SendPlan<P::Msg, P::Output>>::decode(input)?;
        let buf_data = Vec::<(ProcessId, P::Msg)>::decode(input)?;
        let buf_control = Vec::<ProcessId>::decode(input)?;
        (n >= 1).then_some(ExtendedOnClassic {
            inner,
            n,
            stash,
            buf_data,
            buf_control,
        })
    }
}

impl<P: SyncProtocol> SyncProtocol for ExtendedOnClassic<P> {
    type Msg = XMsg<P::Msg>;
    type Output = P::Output;

    fn send(&mut self, classic: Round) -> SendPlan<XMsg<P::Msg>, P::Output> {
        let (ext_round, slot) = Self::decompose(classic, self.n);
        let b = Self::block_len(self.n);
        let mut out: SendPlan<XMsg<P::Msg>, P::Output> = SendPlan::quiet();

        if slot == 1 {
            // Data slot: obtain the extended round's full plan (atomically,
            // before anything of this block is received) and emit its data.
            let plan = self.inner.send(ext_round);
            for (dst, msg) in &plan.data {
                out.data.push((*dst, XMsg::Data(msg.clone())));
            }
            self.stash = Some(plan);
        } else {
            // Control slot j = slot - 1: one ordered control message per
            // classic round restores prefix semantics under subset-crash.
            let j = (slot - 2) as usize;
            if let Some(plan) = &self.stash {
                if let Some(dst) = plan.control.get(j) {
                    out.data.push((*dst, XMsg::Control));
                }
            }
        }

        if slot == b {
            // End of the simulated send phase: the line-6 decision becomes
            // effective only now (and only if this very round's send
            // completes — the classic engine enforces that).
            if let Some(plan) = &mut self.stash {
                out.decide_after_send = plan.decide_after_send.take();
            }
        }
        out
    }

    fn receive(&mut self, classic: Round, inbox: &Inbox<XMsg<P::Msg>>) -> Step<P::Output> {
        let (ext_round, slot) = Self::decompose(classic, self.n);
        for (from, msg) in inbox.data() {
            match msg {
                XMsg::Data(m) => self.buf_data.push((*from, m.clone())),
                XMsg::Control => self.buf_control.push(*from),
            }
        }
        if slot == Self::block_len(self.n) {
            // Block complete: deliver the assembled extended inbox.
            let ext_inbox = Inbox::from_parts(
                std::mem::take(&mut self.buf_data),
                std::mem::take(&mut self.buf_control),
            );
            self.inner.receive(ext_round, &ext_inbox)
        } else {
            Step::Continue
        }
    }
}

/// Translates an **extended-model** crash schedule into the equivalent
/// **classic-model** schedule for the block simulation.
///
/// | extended crash in round `R` | classic crash |
/// |---|---|
/// | `BeforeSend` | block slot 1, `BeforeSend` |
/// | `MidData{S}` | block slot 1, `MidData{S}` |
/// | `MidControl{k}`, `k + 2 ≤ n` | block slot `k + 2`, `BeforeSend` (controls `1..k` already left in earlier slots) |
/// | `MidControl{k}`, `k + 2 > n` | block slot `n`, `MidData{all}` (everything delivered, but the slot-`n` decision is suppressed because the send phase did not complete) |
/// | `EndOfRound` | block slot `n`, `EndOfRound` |
///
/// The `k + 2 > n` case covers a coordinator that delivered its *entire*
/// control list and still crashed before line 6 — in the simulation the
/// crash must land in the last slot without suppressing that slot's
/// outgoing message, which is exactly `MidData{full}` (delivers everything,
/// does not complete the send phase).
pub fn translate_schedule(extended: &CrashSchedule, n: usize) -> CrashSchedule {
    let b = ExtendedOnClassic::<DummyP>::block_len(n);
    let mut classic = CrashSchedule::none(n);
    for pid in (1..=n as u32).map(ProcessId::new) {
        let Some(cp) = extended.crash_point(pid) else {
            continue;
        };
        let base = (cp.round.get() - 1) * b; // classic rounds before the block
        let (round, stage) = match &cp.stage {
            CrashStage::BeforeSend => (Round::new(base + 1), CrashStage::BeforeSend),
            CrashStage::MidData { delivered } => (
                Round::new(base + 1),
                CrashStage::MidData {
                    delivered: delivered.clone(),
                },
            ),
            CrashStage::MidControl { prefix_len } => {
                let k = *prefix_len as u32;
                if k + 2 <= b {
                    (Round::new(base + k + 2), CrashStage::BeforeSend)
                } else {
                    (
                        Round::new(base + b),
                        CrashStage::MidData {
                            delivered: PidSet::full(n),
                        },
                    )
                }
            }
            CrashStage::EndOfRound => (Round::new(base + b), CrashStage::EndOfRound),
        };
        classic.set(pid, Some(CrashPoint::new(round, stage)));
    }
    classic
}

/// Zero-sized protocol used only to name `ExtendedOnClassic::block_len`
/// from the free function above (the method does not depend on `P`).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct DummyP;

impl SyncProtocol for DummyP {
    type Msg = u8;
    type Output = u8;
    fn send(&mut self, _round: Round) -> SendPlan<u8, u8> {
        SendPlan::quiet()
    }
    fn receive(&mut self, _round: Round, _inbox: &Inbox<u8>) -> Step<u8> {
        Step::Continue
    }
}

/// Pretty printer for the simulation overhead: classic rounds needed to
/// simulate `ext_rounds` extended rounds for system size `n`.
pub fn simulation_overhead(ext_rounds: u32, n: usize) -> u32 {
    ext_rounds * ExtendedOnClassic::<DummyP>::block_len(n)
}

impl<M: fmt::Display> fmt::Display for XMsg<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XMsg::Data(m) => write!(f, "DATA({m})"),
            XMsg::Control => write!(f, "COMMIT"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crw::{crw_processes, run_crw, Crw};
    use twostep_model::{SystemConfig, TimingModel};
    use twostep_sim::{check_uniform_consensus, ModelKind, Simulation, TraceLevel};

    fn pid(r: u32) -> ProcessId {
        ProcessId::new(r)
    }

    fn props(n: usize) -> Vec<u64> {
        (1..=n as u64).map(|i| 100 + i).collect()
    }

    /// Runs CRW both natively (extended engine) and through the classic
    /// simulation, asserting identical decision values and spec compliance.
    fn assert_equivalent(n: usize, t: usize, schedule: &CrashSchedule) {
        let config = SystemConfig::new(n, t).unwrap();

        let native = run_crw(&config, schedule, &props(n), TraceLevel::Off).unwrap();

        let wrapped: Vec<_> = crw_processes(&config, &props(n))
            .into_iter()
            .map(|p| ExtendedOnClassic::new(p, n))
            .collect();
        let classic_schedule = translate_schedule(schedule, n);
        let simulated = Simulation::new(config, ModelKind::Classic, &classic_schedule)
            .max_rounds((n as u32 + 1) * ExtendedOnClassic::<Crw<u64>>::block_len(n))
            .run(wrapped)
            .unwrap();

        for i in 0..n {
            let nv = native.decisions[i].as_ref().map(|d| d.value);
            let sv = simulated.decisions[i].as_ref().map(|d| d.value);
            assert_eq!(nv, sv, "p_{} decision differs (native vs simulated)", i + 1);
            // Round correspondence: the simulated decision lands inside the
            // block of the native round.
            if let (Some(nd), Some(sd)) = (&native.decisions[i], &simulated.decisions[i]) {
                let (ext_round, _slot) = ExtendedOnClassic::<Crw<u64>>::decompose(sd.round, n);
                assert_eq!(ext_round, nd.round, "p_{} round block mismatch", i + 1);
            }
        }
        let spec = check_uniform_consensus(&props(n), &simulated.decisions, schedule, None);
        assert!(spec.ok(), "simulated run violates spec: {spec}");
    }

    #[test]
    fn decompose_compose_round_trip() {
        let n = 5;
        for ext in 1..=4u32 {
            for slot in 1..=5u32 {
                let classic = ExtendedOnClassic::<Crw<u64>>::compose(Round::new(ext), slot, n);
                assert_eq!(
                    ExtendedOnClassic::<Crw<u64>>::decompose(classic, n),
                    (Round::new(ext), slot)
                );
            }
        }
    }

    #[test]
    fn xmsg_bit_sizes() {
        assert_eq!(XMsg::Data(7u64).bit_size(), 64);
        assert_eq!(XMsg::<u64>::Control.bit_size(), 1);
        assert_eq!(XMsg::Data(7u64).to_string(), "DATA(7)");
        assert_eq!(XMsg::<u64>::Control.to_string(), "COMMIT");
    }

    #[test]
    fn equivalence_failure_free() {
        for n in [2usize, 3, 5, 8] {
            let schedule = CrashSchedule::none(n);
            assert_equivalent(n, n - 1, &schedule);
        }
    }

    #[test]
    fn equivalence_before_send_crash() {
        let schedule = CrashSchedule::none(5).with_crash(
            pid(1),
            CrashPoint::new(Round::FIRST, CrashStage::BeforeSend),
        );
        assert_equivalent(5, 2, &schedule);
    }

    #[test]
    fn equivalence_mid_data_crash() {
        let schedule = CrashSchedule::none(5).with_crash(
            pid(1),
            CrashPoint::new(
                Round::FIRST,
                CrashStage::MidData {
                    delivered: PidSet::from_iter(5, [pid(3), pid(5)]),
                },
            ),
        );
        assert_equivalent(5, 2, &schedule);
    }

    #[test]
    fn equivalence_mid_control_prefixes() {
        // Every possible prefix, including the full list (k = n-1).
        for k in 0..=4usize {
            let schedule = CrashSchedule::none(5).with_crash(
                pid(1),
                CrashPoint::new(Round::FIRST, CrashStage::MidControl { prefix_len: k }),
            );
            assert_equivalent(5, 2, &schedule);
        }
    }

    #[test]
    fn equivalence_end_of_round_crash() {
        let schedule = CrashSchedule::none(5).with_crash(
            pid(1),
            CrashPoint::new(Round::FIRST, CrashStage::EndOfRound),
        );
        assert_equivalent(5, 2, &schedule);
    }

    #[test]
    fn equivalence_two_crashes_across_rounds() {
        let schedule = CrashSchedule::none(6)
            .with_crash(
                pid(1),
                CrashPoint::new(Round::FIRST, CrashStage::MidControl { prefix_len: 2 }),
            )
            .with_crash(
                pid(2),
                CrashPoint::new(
                    Round::new(2),
                    CrashStage::MidData {
                        delivered: PidSet::from_iter(6, [pid(4)]),
                    },
                ),
            );
        assert_equivalent(6, 3, &schedule);
    }

    #[test]
    fn simulation_pays_the_predicted_overhead() {
        // §2.2: the simulation costs extra rounds — exactly n classic
        // rounds per extended round in this construction, which is why the
        // extended model is *practically* interesting on LANs even though
        // it adds no computability.
        let n = 6;
        assert_eq!(simulation_overhead(3, n), 18);
        // And the timing model prices the native extended round at D + d,
        // far below n·D.
        let tm = TimingModel::new(1000, 50);
        assert!(tm.extended_round() < n as u64 * tm.round);
    }

    #[test]
    fn classic_on_extended_delegates() {
        // A trivially classic protocol (never uses control) runs unchanged.
        #[derive(Clone, Debug, PartialEq, Eq, Hash)]
        struct Echo {
            me: ProcessId,
            got: Option<u64>,
        }
        impl SyncProtocol for Echo {
            type Msg = u64;
            type Output = u64;
            fn send(&mut self, _round: Round) -> SendPlan<u64, u64> {
                if self.me == ProcessId::new(1) {
                    SendPlan::quiet().with_data(ProcessId::new(2), 9)
                } else {
                    SendPlan::quiet()
                }
            }
            fn receive(&mut self, _round: Round, inbox: &Inbox<u64>) -> Step<u64> {
                if let Some(v) = inbox.data_from(ProcessId::new(1)) {
                    Step::Decide(*v)
                } else if self.me == ProcessId::new(1) {
                    Step::Decide(9)
                } else {
                    Step::Continue
                }
            }
        }
        let config = SystemConfig::new(2, 0).unwrap();
        let schedule = CrashSchedule::none(2);
        let report = Simulation::new(config, ModelKind::Extended, &schedule)
            .run(vec![
                ClassicOnExtended(Echo {
                    me: pid(1),
                    got: None,
                }),
                ClassicOnExtended(Echo {
                    me: pid(2),
                    got: None,
                }),
            ])
            .unwrap();
        assert_eq!(report.decisions[0].as_ref().unwrap().value, 9);
        assert_eq!(report.decisions[1].as_ref().unwrap().value, 9);
    }

    #[test]
    fn translate_schedule_maps_every_stage() {
        let n = 4;
        let ext = CrashSchedule::none(n)
            .with_crash(
                pid(1),
                CrashPoint::new(Round::FIRST, CrashStage::BeforeSend),
            )
            .with_crash(
                pid(2),
                CrashPoint::new(Round::new(2), CrashStage::MidControl { prefix_len: 1 }),
            )
            .with_crash(
                pid(3),
                CrashPoint::new(Round::new(3), CrashStage::EndOfRound),
            );
        let classic = translate_schedule(&ext, n);
        // p_1: block 1 slot 1.
        assert_eq!(classic.crash_point(pid(1)).unwrap().round, Round::new(1));
        // p_2: extended round 2 ⇒ base 4; k=1 ⇒ slot 3 ⇒ classic round 7.
        assert_eq!(classic.crash_point(pid(2)).unwrap().round, Round::new(7));
        // p_3: extended round 3 EndOfRound ⇒ last slot of block 3 = 12.
        let cp3 = classic.crash_point(pid(3)).unwrap();
        assert_eq!(cp3.round, Round::new(12));
        assert_eq!(cp3.stage, CrashStage::EndOfRound);
        assert_eq!(classic.f(), 3);
    }
}
