//! The lockstep round engine for the extended (and classic) synchronous
//! model.
//!
//! [`Stepper`] executes one round at a time under explicit adversary
//! actions, which is what the exhaustive model checker needs; [`Simulation`]
//! drives a `Stepper` from a [`CrashSchedule`] until quiescence, which is
//! what tests, experiments and benchmarks use.
//!
//! ## Semantics enforced here (paper Section 2.1)
//!
//! * the complete send plan of a round is produced before anything of that
//!   round is delivered (no computation between the two send steps);
//! * a crash in the **data step** delivers an arbitrary subset of the data
//!   messages and *no* control message;
//! * a crash in the **control step** delivers all data and an ordered
//!   *prefix* of the control list;
//! * a message is *received* only if its destination executes the round's
//!   receive phase (it is alive, has not decided-and-halted, and is not
//!   crashing mid-send this round);
//! * a decision scheduled for the end of the send phase (Figure 1 line 6)
//!   is recorded only if the send phase completed — but an
//!   [`CrashStage::EndOfRound`] crash happens *after* the decision, which is
//!   precisely the "decide then die" scenario uniform agreement must
//!   survive;
//! * classic-model runs reject control messages outright (suppressing the
//!   second send step recovers the traditional model, Section 2.2).
//!
//! ## One definition of a round, two callers
//!
//! A round is an adversary-independent half — the send phase, a function
//! of each process's state and the round — and an adversary-dependent
//! half: deliveries, then every process's round *ending* (send-phase
//! decision if its send completed, receive + computation, crash last).
//! How a process's round ends is one private function, `settle`, and how
//! an adversary action resolves into "what gets through" and "how the
//! crasher's own round ends" is one small set of helpers beside it.
//! [`Stepper::step`] is written on top of them and executes a whole
//! configuration in place; [`SentRound`] is the second caller — it runs
//! the send phase once, tabulates what each of a process's crash outcomes
//! does (how its own round ends, where its messages still get through)
//! and then settles single (process, view) pairs on scratch, which is
//! what lets the model checker key a successor without building it.
//! Neither restates the other's rules.

use crate::protocol::{Inbox, SendPlan, Step, SyncProtocol};
use crate::trace::{Event, Trace, TraceLevel};
use std::fmt;
use std::sync::Arc;
use twostep_model::fault::ScheduleError;
use twostep_model::{
    BitSized, CrashSchedule, CrashStage, DeliveryOutcome, PidSet, ProcessId, Round, RunMetrics,
    SystemConfig,
};

/// Which round semantics the engine enforces.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ModelKind {
    /// The paper's extended model: data step + ordered control step.
    Extended,
    /// The traditional synchronous model: data step only; any attempt to
    /// send a control message is a protocol error.
    Classic,
}

/// Errors surfaced while executing a run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SimError {
    /// A protocol emitted control messages under classic semantics.
    ControlInClassicModel {
        /// Offending process.
        pid: ProcessId,
        /// Round of the offence.
        round: Round,
    },
    /// The crash schedule failed validation against the configuration.
    BadSchedule(ScheduleError),
    /// The number of protocol instances does not match `n`.
    WrongProcessCount {
        /// Instances supplied.
        got: usize,
        /// Configured `n`.
        want: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ControlInClassicModel { pid, round } => write!(
                f,
                "{pid} sent a control message in round {round} under classic semantics"
            ),
            SimError::BadSchedule(e) => write!(f, "invalid crash schedule: {e}"),
            SimError::WrongProcessCount { got, want } => {
                write!(f, "got {got} protocol instances for n={want}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A recorded decision: value + the round it was taken in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Decision<O> {
    /// The decided value.
    pub value: O,
    /// The round in which the decision was taken.
    pub round: Round,
}

/// Lifecycle state of one process inside the engine.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ProcStatus {
    /// Participating normally.
    Active,
    /// Decided and halted (the paper's `return`); round recorded in the
    /// decision table.
    Decided,
    /// Crashed in the given round.
    Crashed(Round),
}

/// The adversary's choice for a single round: which processes crash now and
/// at which stage.  Indexed by process; `None` = no crash this round.
pub type RoundActions = Vec<Option<CrashStage>>;

/// The externally visible shape of one process's send plan for a round:
/// enough for an adversary to enumerate its distinct crash outcomes,
/// nothing more (payloads stay hidden).
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct PlanShape {
    /// Destinations of the data step (order irrelevant).
    pub data_dests: Vec<ProcessId>,
    /// Length of the ordered control list.
    pub control_len: usize,
    /// Destinations of the ordered control list, in delivery order
    /// (`control_dests.len() == control_len`).  The model checker needs
    /// the identities — not just the count — to collapse crash prefixes
    /// that differ only in deliveries to already-settled receivers.
    pub control_dests: Vec<ProcessId>,
}

/// Round-at-a-time executor.  Drive it with [`Stepper::step`]; inspect state
/// with the accessors.  Cloneable, which is how the model checker forks
/// executions — and forking is **cheap**: per-process protocol snapshots
/// live behind [`Arc`]s shared between a stepper and its clones, so a
/// clone bumps `n` reference counts instead of deep-copying `n` protocol
/// states.  [`step`](Self::step) copies a snapshot on write
/// (`Arc::make_mut`) only for the processes it actually mutates — the
/// active ones — so the states of crashed and decided processes are
/// shared by every execution forked after their fate was sealed.  This
/// is the model checker's successor-generation hot path: late in an
/// exploration most processes are settled, and forking a child
/// configuration touches none of their snapshots.
pub struct Stepper<P: SyncProtocol> {
    config: SystemConfig,
    model: ModelKind,
    procs: Vec<Arc<P>>,
    status: Vec<ProcStatus>,
    decisions: Vec<Option<Decision<P::Output>>>,
    round: Round,
    metrics: RunMetrics,
    trace: Trace<P::Msg>,
    /// Reusable per-destination inboxes (cleared each round).  Scratch:
    /// their contents are only meaningful *inside* one [`step`](Self::step)
    /// call, so [`Clone`] gives the copy fresh empty inboxes instead of
    /// duplicating the previous round's dead messages.
    inboxes: Vec<Inbox<P::Msg>>,
    /// Per-round scratch (complete send plans, adversary delivery
    /// outcomes, receive eligibility), reused across [`step`](Self::step)
    /// calls so a step allocates none of its own bookkeeping.  Like the
    /// inboxes, never cloned.  `plans[i]` is meaningful only while
    /// `status[i]` is `Active` this round ([`SyncProtocol::send_into`]
    /// refills it in place); slots of settled processes hold stale
    /// plans that no phase reads.
    plans: Vec<SendPlan<P::Msg, P::Output>>,
    outcomes: Vec<Option<DeliveryOutcome>>,
    ends: Vec<RoundEnd>,
    settled: Vec<Settled>,
}

impl<P: SyncProtocol> Clone for Stepper<P> {
    fn clone(&self) -> Self {
        Stepper {
            config: self.config,
            model: self.model,
            procs: self.procs.clone(), // Arc bumps, not protocol deep-copies
            status: self.status.clone(),
            decisions: self.decisions.clone(),
            round: self.round,
            metrics: self.metrics.clone(),
            trace: self.trace.clone(),
            inboxes: (0..self.config.n()).map(|_| Inbox::new()).collect(),
            plans: Vec::new(),
            outcomes: Vec::new(),
            ends: Vec::new(),
            settled: Vec::new(),
        }
    }
}

impl<P: SyncProtocol> Stepper<P> {
    /// Creates a stepper over `procs` (one instance per process, `p_1`
    /// first).
    pub fn new(
        config: SystemConfig,
        model: ModelKind,
        trace_level: TraceLevel,
        procs: Vec<P>,
    ) -> Result<Self, SimError> {
        if procs.len() != config.n() {
            return Err(SimError::WrongProcessCount {
                got: procs.len(),
                want: config.n(),
            });
        }
        let n = config.n();
        Ok(Stepper {
            config,
            model,
            procs: procs.into_iter().map(Arc::new).collect(),
            status: vec![ProcStatus::Active; n],
            decisions: vec![None; n],
            round: Round::FIRST,
            metrics: RunMetrics::new(n),
            trace: Trace::new(trace_level),
            inboxes: (0..n).map(|_| Inbox::new()).collect(),
            plans: Vec::new(),
            outcomes: Vec::new(),
            ends: Vec::new(),
            settled: Vec::new(),
        })
    }

    /// Rewrites `self` into a copy of `source`, **reusing `self`'s
    /// buffers**: the status/decision/metrics vectors are refilled in
    /// place, a process snapshot whose `Arc` is uniquely owned is
    /// overwritten through it (no allocation), and the per-round scratch
    /// stays `self`'s own.  This is the model checker's fork path — a
    /// pooled stepper re-forked from a parent configuration allocates
    /// nothing in steady state, where `clone` would allocate half a
    /// dozen vectors per child.
    ///
    /// Both steppers must come from the same exploration (same `n`);
    /// forking across system sizes is a logic error.
    pub fn fork_from(&mut self, source: &Self)
    where
        P: Clone,
    {
        debug_assert_eq!(self.config.n(), source.config.n(), "fork across systems");
        self.config = source.config;
        self.model = source.model;
        self.round = source.round;
        for (mine, theirs) in self.procs.iter_mut().zip(&source.procs) {
            if Arc::ptr_eq(mine, theirs) {
                continue;
            }
            match Arc::get_mut(mine) {
                // Sole owner: refill the existing allocation.
                Some(slot) => slot.clone_from(theirs),
                // Shared: drop our handle and share the source's.
                None => *mine = Arc::clone(theirs),
            }
        }
        self.status.clone_from(&source.status);
        self.decisions.clone_from(&source.decisions);
        // RunMetrics implements clone_from buffer-reusingly itself.
        self.metrics.clone_from(&source.metrics);
        self.trace.clone_from(&source.trace);
    }

    /// The round the next [`step`](Self::step) will execute.
    pub fn round(&self) -> Round {
        self.round
    }

    /// Per-process lifecycle status.
    pub fn status(&self) -> &[ProcStatus] {
        &self.status
    }

    /// Per-process decisions (present even for processes that crashed
    /// *after* deciding — uniform agreement quantifies over these).
    pub fn decisions(&self) -> &[Option<Decision<P::Output>>] {
        &self.decisions
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Recorded trace.
    pub fn trace(&self) -> &Trace<P::Msg> {
        &self.trace
    }

    /// The protocol instances (for state inspection / key encoding by the
    /// model checker), behind the copy-on-write `Arc`s that make cloning
    /// a stepper cheap.
    pub fn procs(&self) -> &[Arc<P>] {
        &self.procs
    }

    /// The configured system.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Whether no process is `Active` any more (every process decided or
    /// crashed) — nothing can ever happen again.
    pub fn is_quiescent(&self) -> bool {
        self.status.iter().all(|s| !matches!(s, ProcStatus::Active))
    }

    /// Processes currently `Active`.
    pub fn active(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.status
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, ProcStatus::Active))
            .map(|(i, _)| ProcessId::from_idx(i))
    }

    /// The *shape* (data destinations, control list and its length) of
    /// the plan process `i` would produce this round, computed on a clone
    /// so the real protocol state is untouched, and written into `shape`
    /// (its destination buffers are reused); `false` when the process is
    /// not active.
    pub fn peek_plan_shape_into(&self, i: usize, shape: &mut PlanShape) -> bool
    where
        P: Clone,
    {
        if !matches!(self.status[i], ProcStatus::Active) {
            return false;
        }
        let plan = (*self.procs[i]).clone().send(self.round);
        shape.data_dests.clear();
        shape.data_dests.extend(plan.data.iter().map(|(d, _)| *d));
        shape.control_len = plan.control.len();
        shape.control_dests.clear();
        shape.control_dests.extend(plan.control.iter().copied());
        true
    }

    /// Executes one full round under the given adversary `actions`.
    ///
    /// `actions[i]` is the crash stage of `p_{i+1}` *in this round*, or
    /// `None`.  Crashing an already-crashed process is a no-op (the
    /// adversary wasted a move) and crashing a decided one only relabels
    /// it crashed; schedule-level validation prevents both in normal runs.
    ///
    /// Needs `P: Clone` for the copy-on-write snapshots: a process whose
    /// state this round mutates is unshared (`Arc::make_mut`) first.  On
    /// an unforked stepper every `Arc` is unique and no clone happens.
    pub fn step(&mut self, actions: &RoundActions) -> Result<(), SimError>
    where
        P: Clone,
    {
        debug_assert_eq!(actions.len(), self.config.n());
        let n = self.config.n();
        let round = self.round;
        self.metrics.rounds_executed = round.get();
        self.trace.record(|| Event::RoundBegan { round });

        self.send_phase()?;

        // --- The adversary's choice, resolved once per process: what
        // its crash lets through (`None`: no crash, nothing is held
        // back), and how its own round ends.
        self.outcomes.clear();
        self.ends.clear();
        for (i, action) in actions.iter().enumerate() {
            if !matches!(self.status[i], ProcStatus::Active) {
                self.outcomes.push(None);
                self.ends.push(RoundEnd::IDLE);
                continue;
            }
            self.outcomes
                .push(action.as_ref().map(|stage| stage.effect(n)));
            self.ends.push(RoundEnd::of(
                action.as_ref(),
                self.plans[i].decide_after_send.is_some(),
            ));
        }

        // --- Delivery: data step first, then control step, in sender rank
        // order so inboxes stay sorted by sender.
        for ib in &mut self.inboxes {
            ib.clear();
        }
        for i in 0..n {
            if !matches!(self.status[i], ProcStatus::Active) {
                continue;
            }
            let plan = &self.plans[i];
            let out = self.outcomes[i].as_ref();
            let from = ProcessId::from_idx(i);

            for (dst, msg) in &plan.data {
                // "Transmitted" = the sender put it on the wire (it passed
                // the sender's crash filter); Theorem 2's accounting counts
                // transmissions — a coordinator cannot know a destination
                // has already halted.  "Delivered" additionally requires
                // the destination to execute this round's receive phase.
                let transmitted = transmits_data(out, *dst);
                if transmitted {
                    self.metrics.count_data(msg.bit_size());
                }
                let delivered = transmitted && self.ends[dst.idx()].receives;
                if delivered {
                    self.inboxes[dst.idx()].push_data(from, msg.clone());
                }
                self.trace.record(|| Event::Data {
                    round,
                    from,
                    to: *dst,
                    transmitted,
                    delivered,
                    msg: msg.clone(),
                });
            }

            let prefix = control_prefix(out, plan.control.len());
            for (k, dst) in plan.control.iter().enumerate() {
                let transmitted = k < prefix;
                if transmitted {
                    self.metrics.count_control();
                }
                let delivered = transmitted && self.ends[dst.idx()].receives;
                if delivered {
                    self.inboxes[dst.idx()].push_control(from);
                }
                self.trace.record(|| Event::Control {
                    round,
                    from,
                    to: *dst,
                    transmitted,
                    delivered,
                });
            }
        }

        // --- Every process's round ends ([`settle`]): send-phase
        // decision, receive + computation, crash.  Process `i`'s end
        // touches only `i`'s own state, so one pass in rank order does it.
        self.settled.clear();
        for (i, action) in actions.iter().enumerate() {
            let what = if matches!(self.status[i], ProcStatus::Active) {
                let (procs, inboxes) = (&mut self.procs, &self.inboxes);
                let what = settle(
                    round,
                    self.ends[i],
                    self.plans[i].decide_after_send.take(),
                    || Arc::make_mut(&mut procs[i]).receive(round, &inboxes[i]),
                    &mut self.status[i],
                    &mut self.decisions[i],
                );
                if what.decided_sending || what.decided_receiving {
                    self.metrics.record_decision(ProcessId::from_idx(i), round);
                }
                what
            } else if action.is_some() && !matches!(self.status[i], ProcStatus::Crashed(_)) {
                // A crash aimed at a decided process: it is marked
                // crashed and its decision stands.
                self.status[i] = ProcStatus::Crashed(round);
                Settled {
                    crashed: true,
                    ..Settled::default()
                }
            } else {
                Settled::default()
            };
            self.settled.push(what);
        }

        // --- Lifecycle events, in the order the phases happen: every
        // send-phase decision, then every receive-phase decision, then
        // the crashes.
        if self.trace.level() != TraceLevel::Off {
            let pids = || (0..n).map(ProcessId::from_idx);
            for (pid, what) in pids().zip(&self.settled) {
                if what.decided_sending {
                    self.trace.record(|| Event::Decided { pid, round });
                }
            }
            for (pid, what) in pids().zip(&self.settled) {
                if what.decided_receiving {
                    self.trace.record(|| Event::Decided { pid, round });
                }
            }
            for (pid, what) in pids().zip(&self.settled) {
                if what.crashed {
                    self.trace.record(|| Event::Crashed { pid, round });
                }
            }
        }

        self.round = round.next();
        Ok(())
    }

    /// The send phase of the current round, one pass per active process:
    /// the complete plan is collected into the reusable per-slot scratch
    /// (each slot's buffers are refilled in place, so a steady-state
    /// round allocates no plan storage).  It depends on nothing but the
    /// configuration — not on the adversary — and all plans are produced
    /// before any delivery, so no computation can sneak in between the
    /// data and control steps.
    fn send_phase(&mut self) -> Result<(), SimError>
    where
        P: Clone,
    {
        let round = self.round;
        self.plans.resize_with(self.config.n(), SendPlan::quiet);
        for (i, plan) in self.plans.iter_mut().enumerate() {
            if !matches!(self.status[i], ProcStatus::Active) {
                continue;
            }
            plan.clear();
            Arc::make_mut(&mut self.procs[i]).send_into(round, plan);
            if self.model == ModelKind::Classic && !plan.control.is_empty() {
                return Err(SimError::ControlInClassicModel {
                    pid: ProcessId::from_idx(i),
                    round,
                });
            }
        }
        Ok(())
    }

    /// Consumes the stepper into its outcome pieces.  Needs `P: Clone`
    /// only for final states still shared with a live clone (an unforked
    /// run unwraps every `Arc` without copying).
    pub fn finish(self, hit_round_cap: bool) -> RunReport<P>
    where
        P: Clone,
    {
        let crashed = PidSet::from_iter(
            self.config.n(),
            self.status
                .iter()
                .enumerate()
                .filter(|(_, s)| matches!(s, ProcStatus::Crashed(_)))
                .map(|(i, _)| ProcessId::from_idx(i)),
        );
        RunReport {
            decisions: self.decisions,
            crashed,
            metrics: self.metrics,
            trace: self.trace,
            hit_round_cap,
            final_states: self
                .procs
                .into_iter()
                .map(|p| Arc::try_unwrap(p).unwrap_or_else(|shared| (*shared).clone()))
                .collect(),
        }
    }
}

/// How one process's own round ends under the adversary's action for it
/// (or the absence of one): everything about a [`CrashStage`] that
/// matters to the crashing process *itself*, as opposed to what the crash
/// lets through to others ([`DeliveryOutcome`]'s filters).  Opaque and
/// comparable, so it can key a table of already-settled rounds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct RoundEnd {
    /// The process executes the round's receive + computation phase.
    receives: bool,
    /// Its send phase ran to completion, so a decision scheduled for the
    /// end of it (Figure 1 line 6) stands.
    completes_send: bool,
    /// It is crashed when the round closes.
    crashes: bool,
}

impl RoundEnd {
    /// The round of a process that is not taking part in it (decided or
    /// crashed earlier): nothing reaches it, nothing happens to it.
    const IDLE: RoundEnd = RoundEnd {
        receives: false,
        completes_send: false,
        crashes: false,
    };

    /// How the round of one **active** process ends under the
    /// adversary's `action` for it; `decides_after_send` is whether its
    /// plan schedules a send-phase decision.  The receive phase requires
    /// surviving the round's deliveries *and* not halting on that
    /// decision.
    #[inline]
    fn of(action: Option<&CrashStage>, decides_after_send: bool) -> RoundEnd {
        RoundEnd {
            receives: action.is_none_or(CrashStage::receives_this_round) && !decides_after_send,
            completes_send: action.is_none_or(CrashStage::completes_send_phase),
            crashes: action.is_some(),
        }
    }
}

/// Whether the sender's crash lets its data message to `dst` onto the
/// wire.
#[inline]
fn transmits_data(outcome: Option<&DeliveryOutcome>, dst: ProcessId) -> bool {
    outcome
        .and_then(|o| o.data_filter.as_ref())
        .is_none_or(|filter| filter.contains(dst))
}

/// How many entries of an ordered control list of length `len` the
/// sender's crash lets onto the wire.
#[inline]
fn control_prefix(outcome: Option<&DeliveryOutcome>, len: usize) -> usize {
    outcome
        .and_then(|o| o.control_prefix)
        .unwrap_or(len)
        .min(len)
}

/// What [`settle`] did to a process — the lifecycle events of its round,
/// for the caller's trace and metrics.
#[derive(Clone, Copy, Default)]
struct Settled {
    /// Its first decision was recorded at the end of the send phase.
    decided_sending: bool,
    /// Its first decision was recorded in the receive phase.
    decided_receiving: bool,
    /// It crashed.
    crashed: bool,
}

/// Ends one **active** process's round — the single definition of what a
/// round does to the process that executes it, shared by
/// [`Stepper::step`] (which runs it in place) and [`SentRound::settle`]
/// (which runs it on a scratch copy):
///
/// 1. a decision scheduled for the end of the send phase is recorded,
///    and the process halts, only if the send phase completed;
/// 2. a process that reaches the receive phase runs `receive` — the
///    protocol's receive + computation step on this round's inbox — and
///    continues, decides and halts, or decides and keeps participating
///    (early deciding, late stopping: record now, halt later);
/// 3. a crash takes effect last: an `EndOfRound` crasher participated
///    fully above, and a process that decided this round and then dies
///    keeps its decision — the uniform-agreement trap.
///
/// The first decision wins: an early decider later emits a halting
/// `Decide` whose value must not overwrite the recorded one.
fn settle<O>(
    round: Round,
    end: RoundEnd,
    send_decision: Option<O>,
    receive: impl FnOnce() -> Step<O>,
    status: &mut ProcStatus,
    decision: &mut Option<Decision<O>>,
) -> Settled {
    let mut record = |value: O| {
        let first = decision.is_none();
        if first {
            *decision = Some(Decision { value, round });
        }
        first
    };
    let mut what = Settled::default();
    if let Some(value) = send_decision {
        if end.completes_send {
            what.decided_sending = record(value);
            *status = ProcStatus::Decided;
        }
    }
    if end.receives {
        match receive() {
            Step::Continue => {}
            Step::Decide(value) => {
                what.decided_receiving = record(value);
                *status = ProcStatus::Decided;
            }
            Step::DecideAndContinue(value) => {
                what.decided_receiving = record(value);
            }
        }
    }
    if end.crashes {
        *status = ProcStatus::Crashed(round);
        what.crashed = true;
    }
    what
}

/// One process's view of a round under one adversary row: which senders'
/// data and control messages reach its inbox, and how its own round ends.
/// By the round semantics this is *everything* the row contributes to
/// what becomes of the process — two rows that give a process equal views
/// leave it in equal states — which is what lets the model checker settle
/// each (process, view) pair once per configuration ([`SentRound`]).
/// Opaque and comparable; bit `i` of a mask is sender `p_{i+1}`, so a
/// view names senders of at most [`SentRound::MAX_PROCESSES`] processes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RoundView {
    data: u64,
    control: u64,
    end: RoundEnd,
}

/// What became of one process at the end of a round settled on the side
/// ([`SentRound::settle`]): exactly the per-process part of a
/// configuration that [`Stepper::step`] would have left behind.
pub struct SettledProcess<'a, P: SyncProtocol> {
    /// Its lifecycle status after the round.
    pub status: &'a ProcStatus,
    /// Its protocol state after the round.
    pub state: &'a P,
    /// Its recorded decision after the round.
    pub decision: &'a Option<Decision<P::Output>>,
}

/// Where a crashing sender's data and control messages still get
/// through, as destination masks.
fn crash_reach<M, O>(plan: &SendPlan<M, O>, outcome: &DeliveryOutcome) -> (u64, u64) {
    let outcome = Some(outcome);
    let data = plan.data.iter().map(|(dst, _)| *dst);
    let prefix = control_prefix(outcome, plan.control.len());
    (
        pid_mask(data.filter(|dst| transmits_data(outcome, *dst))),
        pid_mask(plan.control[..prefix].iter().copied()),
    )
}

/// The processes of `pids` as a mask, bit `i` for `p_{i+1}`.
fn pid_mask(pids: impl Iterator<Item = ProcessId>) -> u64 {
    pids.fold(0, |mask, pid| mask | 1 << pid.idx())
}

/// One entry of a [`SentRound`]'s outcome table: what one outcome of one
/// active process — surviving the round, or one of its crash stages —
/// means for the round: how the process's own round ends, and which
/// destinations its data and control messages still reach (both empty
/// for a process that sends nothing).
#[derive(Clone, Copy)]
struct Outcome {
    end: RoundEnd,
    data: u64,
    control: u64,
}

/// A configuration with the adversary-independent half of its next round
/// — the **send phase** — already executed, so the adversary-dependent
/// half can be evaluated process by process without stepping a whole
/// configuration per adversary row.
///
/// The factoring rests on three facts of the round semantics
/// ([`Stepper::step`] is written to make them evident):
///
/// * the send phase depends only on the configuration (states and round),
///   never on the adversary — so it is run once, here;
/// * what the receive phase does to a process is a function of its
///   post-send state, the round and its inbox;
/// * an adversary row touches process `j` only through `j`'s inbox and
///   `j`'s own action — its [`RoundView`].
///
/// The adversary of one round is a *product*: each active process
/// independently survives or crashes in one of its own outcomes.  So a
/// row is a vector of **outcome indices**, one per active process in
/// ascending order (`0` = survives, `k` = the `k`-th crash stage handed
/// to [`tabulate`](Self::tabulate)), and everything a [`CrashStage`]
/// means — `effect`, the reach of a crashing sender's two steps, how the
/// crasher's own round ends — is evaluated once per (process, outcome)
/// into a table, not once per cell of every row.  [`view`](Self::view)
/// reduces an index row to one process's view by table lookups and mask
/// ORs — per slot, because the caller rarely needs more than one: while
/// no [sender](Self::senders)'s outcome changes, a slot's view depends
/// on its own outcome index alone, so an enumeration that varies the
/// last slots fastest asks for a view only the first time it meets a
/// (slot, outcome) pair between two moves of a sender — and
/// [`settle`](Self::settle) evaluates one (process, view) pair with the
/// real `receive` on a scratch copy of the post-send state — through
/// the same `settle` function `step` ends every process's round with.
/// An index row can only name active processes, so the one thing `step`
/// does to a *settled* process (relabel a decided one crashed) never
/// arises.  The copy, its inbox, the plans and the
/// table are reusable scratch owned here; a settled pair allocates
/// nothing in steady state.
pub struct SentRound<P: SyncProtocol> {
    /// A fork of the configuration with the send phase run on it: `procs`
    /// hold the post-send states, `plans` the complete plans.  Never
    /// stepped further.
    sent: Stepper<P>,
    /// The active processes, ascending: slot `s` of an index row is
    /// about process `active[s]`.
    active: Vec<usize>,
    /// The outcome table: slot `s`'s entries are
    /// `table[starts[s]..starts[s + 1]]`, entry 0 its crash-free round.
    /// Empty until [`tabulate`](Self::tabulate) fills it.
    table: Vec<Outcome>,
    starts: Vec<u32>,
    /// The slots whose plan sends anything, ascending.
    senders: Vec<usize>,
    /// Scratch for [`settle`](Self::settle): the copy `receive` runs on,
    /// its inbox, and where its status and decision end up.
    proc: Option<P>,
    inbox: Inbox<P::Msg>,
    status: ProcStatus,
    decision: Option<Decision<P::Output>>,
}

impl<P: SyncProtocol> SentRound<P> {
    /// The largest system a round can be tabulated for: a
    /// [`RoundView`] keeps the senders that reach a process as bits of a
    /// `u64`.
    pub const MAX_PROCESSES: usize = u64::BITS as usize;
}

impl<P: SyncProtocol + Clone> SentRound<P> {
    /// Runs the send phase of `source`'s next round on a copy of it.
    /// Fails exactly where [`Stepper::step`] would fail before looking at
    /// its actions (a control message under classic semantics).
    pub fn new(source: &Stepper<P>) -> Result<Self, SimError> {
        let mut round = SentRound {
            sent: source.clone(),
            active: Vec::new(),
            table: Vec::new(),
            starts: Vec::new(),
            senders: Vec::new(),
            proc: None,
            inbox: Inbox::new(),
            status: ProcStatus::Active,
            decision: None,
        };
        round.send()?;
        Ok(round)
    }

    /// Re-aims `self` at `source`, reusing every buffer
    /// ([`Stepper::fork_from`]) — the pooled counterpart of
    /// [`new`](Self::new).
    pub fn reset(&mut self, source: &Stepper<P>) -> Result<(), SimError> {
        self.sent.fork_from(source);
        self.send()
    }

    /// Runs the send phase on the freshly forked copy and lists the
    /// active processes; the previous configuration's outcome table no
    /// longer counts as tabulated.
    fn send(&mut self) -> Result<(), SimError> {
        self.sent.send_phase()?;
        self.active.clear();
        self.active.extend(self.sent.active().map(ProcessId::idx));
        self.starts.clear();
        Ok(())
    }

    /// The round whose send phase this is.
    pub fn round(&self) -> Round {
        self.sent.round
    }

    /// Per-process lifecycle status of the configuration (the send
    /// phase settles nobody).
    pub fn status(&self) -> &[ProcStatus] {
        &self.sent.status
    }

    /// Per-process decisions of the configuration.
    pub fn decisions(&self) -> &[Option<Decision<P::Output>>] {
        &self.sent.decisions
    }

    /// The indices of the active processes, ascending — the slots of an
    /// index row, in order.
    pub fn active(&self) -> &[usize] {
        &self.active
    }

    /// The complete send plan of process `i` for this round; `None` when
    /// it is not active.
    pub fn plan(&self, i: usize) -> Option<&SendPlan<P::Msg, P::Output>> {
        matches!(self.sent.status[i], ProcStatus::Active).then(|| &self.sent.plans[i])
    }

    /// Tabulates the adversary's options for this round: `outcomes[s]`
    /// lists the crash stages open to the `s`-th active process, and
    /// outcome index `k ≥ 1` of slot `s` in an index row means
    /// `outcomes[s][k - 1]` from here on (`0` means it survives).  Each
    /// (process, outcome) pair is resolved once — [`CrashStage::effect`],
    /// the reach of a sender's data and control steps, how the process's
    /// own round ends.
    ///
    /// # Panics
    ///
    /// For a system of more than [`MAX_PROCESSES`](Self::MAX_PROCESSES)
    /// processes, whose senders the views' masks cannot hold.
    pub fn tabulate(&mut self, outcomes: &[Vec<CrashStage>]) {
        debug_assert_eq!(outcomes.len(), self.active.len());
        let n = self.sent.config.n();
        assert!(
            n <= Self::MAX_PROCESSES,
            "a round of {n} processes is wider than a view's {} senders",
            Self::MAX_PROCESSES
        );
        self.table.clear();
        self.starts.clear();
        self.senders.clear();
        for (slot, (&i, stages)) in self.active.iter().zip(outcomes).enumerate() {
            let plan = &self.sent.plans[i];
            let decides_after_send = plan.decide_after_send.is_some();
            let sends = !(plan.data.is_empty() && plan.control.is_empty());
            if sends {
                self.senders.push(slot);
            }
            self.starts.push(self.table.len() as u32);
            self.table.push(Outcome {
                end: RoundEnd::of(None, decides_after_send),
                data: pid_mask(plan.data.iter().map(|(dst, _)| *dst)),
                control: pid_mask(plan.control.iter().copied()),
            });
            self.table.extend(stages.iter().map(|stage| {
                let (data, control) = if sends {
                    crash_reach(plan, &stage.effect(n))
                } else {
                    (0, 0)
                };
                Outcome {
                    end: RoundEnd::of(Some(stage), decides_after_send),
                    data,
                    control,
                }
            }));
        }
        self.starts.push(self.table.len() as u32);
    }

    /// The slots whose plan sends anything, ascending.  A row reaches a
    /// process through the process's own outcome and these slots'
    /// outcomes, nothing else: between two rows that agree on them, the
    /// view of any other slot is a function of that slot's own outcome
    /// index alone.
    pub fn senders(&self) -> &[usize] {
        debug_assert_eq!(self.starts.len(), self.active.len() + 1, "tabulate first");
        &self.senders
    }

    /// The view the index row `row` — one outcome index per active
    /// process, against the lists last [`tabulate`](Self::tabulate)d —
    /// gives the process of `slot`: how its own outcome ends its round
    /// and — transmitted is not delivered: only a process that executes
    /// the receive phase has an inbox at all — which senders' outcomes
    /// let their data and control messages reach it.  Table lookups and
    /// mask ORs: no [`CrashStage`] is looked at.
    #[inline]
    pub fn view(&self, row: &[u16], slot: usize) -> RoundView {
        debug_assert_eq!(row.len(), self.active.len());
        debug_assert_eq!(self.starts.len(), self.active.len() + 1, "tabulate first");
        let entry = |slot: usize| &self.table[self.starts[slot] as usize + row[slot] as usize];
        let mut view = RoundView {
            data: 0,
            control: 0,
            end: entry(slot).end,
        };
        if view.end.receives {
            let i = self.active[slot];
            for &sender in &self.senders {
                let (out, bit) = (entry(sender), self.active[sender]);
                view.data |= (out.data >> i & 1) << bit;
                view.control |= (out.control >> i & 1) << bit;
            }
        }
        view
    }

    /// Ends the round of **active** process `i` under `view` (a
    /// [`view`](Self::view) of `i`'s slot), on scratch: the
    /// inbox the view describes is rebuilt from the senders' plans, the
    /// real `receive` runs on a copy of the post-send state, and the
    /// result is what [`Stepper::step`] leaves of process `i` under any
    /// action row that gives it this view.
    pub fn settle(&mut self, i: usize, view: &RoundView) -> SettledProcess<'_, P> {
        let sent = &self.sent;
        debug_assert!(
            matches!(sent.status[i], ProcStatus::Active),
            "only active processes have a round to settle"
        );
        let round = sent.round;
        self.status = ProcStatus::Active;
        self.decision.clone_from(&sent.decisions[i]);
        let (copy, inbox) = (&mut self.proc, &mut self.inbox);
        settle(
            round,
            view.end,
            sent.plans[i].decide_after_send.clone(),
            || {
                let proc = match copy {
                    Some(proc) => {
                        proc.clone_from(&sent.procs[i]);
                        proc
                    }
                    None => copy.insert((*sent.procs[i]).clone()),
                };
                inbox.clear();
                let mut senders = view.data | view.control;
                while senders != 0 {
                    let s = senders.trailing_zeros() as usize;
                    senders &= senders - 1;
                    let from = ProcessId::from_idx(s);
                    if view.data >> s & 1 == 1 {
                        for (dst, msg) in &sent.plans[s].data {
                            if dst.idx() == i {
                                inbox.push_data(from, msg.clone());
                            }
                        }
                    }
                    if view.control >> s & 1 == 1 {
                        inbox.push_control(from);
                    }
                }
                proc.receive(round, inbox)
            },
            &mut self.status,
            &mut self.decision,
        );
        SettledProcess {
            status: &self.status,
            // A process that skipped the receive phase keeps its
            // post-send state.
            state: match (&self.proc, view.end.receives) {
                (Some(proc), true) => proc,
                _ => &sent.procs[i],
            },
            decision: &self.decision,
        }
    }
}

/// The result of a complete run.
#[derive(Clone)]
pub struct RunReport<P: SyncProtocol> {
    /// Per-process decision (present for decided-then-crashed processes
    /// too).
    pub decisions: Vec<Option<Decision<P::Output>>>,
    /// Processes that crashed during the run.
    pub crashed: PidSet,
    /// Metrics per Theorem 2 accounting.
    pub metrics: RunMetrics,
    /// Event trace (contents depend on the configured [`TraceLevel`]).
    pub trace: Trace<P::Msg>,
    /// Whether the run stopped because it hit the round cap rather than
    /// quiescence — a termination-property red flag.
    pub hit_round_cap: bool,
    /// The protocol instances in their final states.
    pub final_states: Vec<P>,
}

impl<P: SyncProtocol> fmt::Debug for RunReport<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunReport")
            .field("decisions", &self.decisions)
            .field("crashed", &self.crashed)
            .field("metrics", &self.metrics)
            .field("hit_round_cap", &self.hit_round_cap)
            .finish_non_exhaustive()
    }
}

impl<P: SyncProtocol> RunReport<P> {
    /// The distinct decided values (for agreement inspection).
    pub fn decided_values(&self) -> Vec<&P::Output> {
        let mut vals: Vec<&P::Output> = Vec::new();
        for d in self.decisions.iter().flatten() {
            if !vals.contains(&&d.value) {
                vals.push(&d.value);
            }
        }
        vals
    }

    /// Latest decision round, the Theorem 1 quantity.
    pub fn last_decision_round(&self) -> Option<Round> {
        self.decisions.iter().flatten().map(|d| d.round).max()
    }
}

/// Whole-run driver: schedule in, report out.
///
/// # Examples
///
/// Running a trivial one-shot protocol (everyone decides 7 in round 1)
/// under the failure-free schedule:
///
/// ```
/// use twostep_model::{CrashSchedule, ProcessId, Round, SystemConfig};
/// use twostep_sim::{Inbox, ModelKind, SendPlan, Simulation, Step, SyncProtocol};
///
/// #[derive(Clone)]
/// struct Lucky;
/// impl SyncProtocol for Lucky {
///     type Msg = u8;
///     type Output = u8;
///     fn send(&mut self, _r: Round) -> SendPlan<u8, u8> { SendPlan::quiet() }
///     fn receive(&mut self, _r: Round, _i: &Inbox<u8>) -> Step<u8> { Step::Decide(7) }
/// }
///
/// let config = SystemConfig::new(3, 1).unwrap();
/// let schedule = CrashSchedule::none(3);
/// let report = Simulation::new(config, ModelKind::Extended, &schedule)
///     .run(vec![Lucky, Lucky, Lucky])
///     .unwrap();
/// assert!(report.decisions.iter().all(|d| d.as_ref().unwrap().value == 7));
/// ```
pub struct Simulation<'a> {
    config: SystemConfig,
    model: ModelKind,
    schedule: &'a CrashSchedule,
    max_rounds: u32,
    trace_level: TraceLevel,
}

impl<'a> Simulation<'a> {
    /// Creates a simulation of `config` under `schedule`.
    ///
    /// The default round cap is `n + t + 2`, comfortably above every bound
    /// in the paper (`t+1` classic flooding being the largest); protocols
    /// that fail to terminate by then yield `hit_round_cap = true`.
    pub fn new(config: SystemConfig, model: ModelKind, schedule: &'a CrashSchedule) -> Self {
        Simulation {
            config,
            model,
            schedule,
            max_rounds: (config.n() + config.t() + 2) as u32,
            trace_level: TraceLevel::Off,
        }
    }

    /// Overrides the safety round cap.
    pub fn max_rounds(mut self, cap: u32) -> Self {
        self.max_rounds = cap;
        self
    }

    /// Sets the trace verbosity.
    pub fn trace_level(mut self, level: TraceLevel) -> Self {
        self.trace_level = level;
        self
    }

    /// Runs `procs` to quiescence (or the round cap).
    pub fn run<P: SyncProtocol + Clone>(&self, procs: Vec<P>) -> Result<RunReport<P>, SimError> {
        self.schedule
            .validate(&self.config)
            .map_err(SimError::BadSchedule)?;
        let mut stepper = Stepper::new(self.config, self.model, self.trace_level, procs)?;
        let n = self.config.n();
        let mut actions: RoundActions = vec![None; n];
        let mut hit_cap = true;
        for round in Round::up_to(self.max_rounds) {
            actions.iter_mut().for_each(|a| *a = None);
            for pid in self.config.pids() {
                if let Some(cp) = self.schedule.crash_point(pid) {
                    if cp.round == round {
                        actions[pid.idx()] = Some(cp.stage.clone());
                    }
                }
            }
            stepper.step(&actions)?;
            if stepper.is_quiescent() {
                hit_cap = false;
                break;
            }
        }
        Ok(stepper.finish(hit_cap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twostep_model::{CrashPoint, CrashSchedule};

    fn pid(r: u32) -> ProcessId {
        ProcessId::new(r)
    }

    /// Toy protocol: p_1 broadcasts its value + commits in rank order and
    /// decides after sending; everyone else decides the received value when
    /// the commit arrives.  (A one-coordinator slice of Figure 1.)
    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    struct OneShot {
        me: ProcessId,
        n: usize,
        est: u64,
    }

    impl SyncProtocol for OneShot {
        type Msg = u64;
        type Output = u64;

        fn send(&mut self, round: Round) -> SendPlan<u64, u64> {
            if round == Round::FIRST && self.me == pid(1) {
                let mut plan = SendPlan::quiet();
                for dst in self.me.higher(self.n) {
                    plan = plan.with_data(dst, self.est);
                }
                for dst in self.me.higher(self.n) {
                    plan = plan.with_control(dst);
                }
                plan.then_decide(self.est)
            } else {
                SendPlan::quiet()
            }
        }

        fn receive(&mut self, _round: Round, inbox: &Inbox<u64>) -> Step<u64> {
            if let Some(v) = inbox.data_from(pid(1)) {
                self.est = *v;
            }
            if inbox.control_from(pid(1)) {
                Step::Decide(self.est)
            } else {
                Step::Continue
            }
        }
    }

    fn procs(n: usize) -> Vec<OneShot> {
        (1..=n as u32)
            .map(|r| OneShot {
                me: pid(r),
                n,
                est: 100 + r as u64,
            })
            .collect()
    }

    #[test]
    fn failure_free_one_round() {
        let config = SystemConfig::new(4, 2).unwrap();
        let schedule = CrashSchedule::none(4);
        let report = Simulation::new(config, ModelKind::Extended, &schedule)
            .run(procs(4))
            .unwrap();
        // Everyone decides 101 (p_1's value) in round 1.
        for d in &report.decisions {
            let d = d.as_ref().expect("all decide");
            assert_eq!(d.value, 101);
            assert_eq!(d.round, Round::FIRST);
        }
        assert!(!report.hit_round_cap);
        // Metrics: 3 data × 64 bits + 3 control × 1 bit.
        assert_eq!(report.metrics.data_messages, 3);
        assert_eq!(report.metrics.control_messages, 3);
        assert_eq!(report.metrics.total_bits(), 3 * 64 + 3);
    }

    #[test]
    fn mid_data_crash_delivers_subset_and_no_control() {
        let config = SystemConfig::new(4, 2).unwrap();
        // p_1 crashes mid-data: only p_3 gets the data message; no commits;
        // p_1 must NOT decide (its send phase never completed).
        let schedule = CrashSchedule::none(4).with_crash(
            pid(1),
            CrashPoint::new(
                Round::FIRST,
                CrashStage::MidData {
                    delivered: PidSet::from_iter(4, [pid(3)]),
                },
            ),
        );
        let report = Simulation::new(config, ModelKind::Extended, &schedule)
            .run(procs(4))
            .unwrap();
        assert!(report.decisions[0].is_none(), "crashed coordinator decided");
        assert!(report.decisions.iter().skip(1).all(|d| d.is_none()));
        assert_eq!(report.metrics.data_messages, 1);
        assert_eq!(report.metrics.control_messages, 0);
        assert!(report.crashed.contains(pid(1)));
        // Nobody decides, so the run ends at the cap.
        assert!(report.hit_round_cap);
        // p_3 adopted the value even though it could not decide.
        assert_eq!(report.final_states[2].est, 101);
        assert_eq!(report.final_states[1].est, 102, "p_2 saw nothing");
    }

    #[test]
    fn mid_control_crash_delivers_ordered_prefix() {
        let config = SystemConfig::new(4, 2).unwrap();
        // p_1 crashes after committing to p_2 only: all data arrived, and
        // exactly p_2 decides in round 1 — prefix semantics.
        let schedule = CrashSchedule::none(4).with_crash(
            pid(1),
            CrashPoint::new(Round::FIRST, CrashStage::MidControl { prefix_len: 1 }),
        );
        let report = Simulation::new(config, ModelKind::Extended, &schedule)
            .run(procs(4))
            .unwrap();
        assert!(report.decisions[0].is_none(), "send phase did not complete");
        let d2 = report.decisions[1].as_ref().expect("p_2 got the commit");
        assert_eq!((d2.value, d2.round), (101, Round::FIRST));
        assert!(report.decisions[2].is_none());
        assert!(report.decisions[3].is_none());
        // All three data messages delivered, one control.
        assert_eq!(report.metrics.data_messages, 3);
        assert_eq!(report.metrics.control_messages, 1);
        // p_3/p_4 adopted the estimate.
        assert_eq!(report.final_states[2].est, 101);
        assert_eq!(report.final_states[3].est, 101);
    }

    #[test]
    fn end_of_round_crash_decides_then_dies() {
        let config = SystemConfig::new(4, 2).unwrap();
        // p_1 completes the round (everyone decides), then crashes: its own
        // decision must be recorded — uniform agreement ranges over it.
        let schedule = CrashSchedule::none(4).with_crash(
            pid(1),
            CrashPoint::new(Round::FIRST, CrashStage::EndOfRound),
        );
        let report = Simulation::new(config, ModelKind::Extended, &schedule)
            .run(procs(4))
            .unwrap();
        let d1 = report.decisions[0].as_ref().expect("decided before dying");
        assert_eq!(d1.value, 101);
        assert!(report.crashed.contains(pid(1)));
        for d in report.decisions.iter().skip(1) {
            assert_eq!(d.as_ref().unwrap().value, 101);
        }
    }

    #[test]
    fn classic_model_rejects_control() {
        let config = SystemConfig::new(3, 1).unwrap();
        let schedule = CrashSchedule::none(3);
        let err = Simulation::new(config, ModelKind::Classic, &schedule)
            .run(procs(3))
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::ControlInClassicModel { pid, round }
                if pid == ProcessId::new(1) && round == Round::FIRST
        ));
    }

    #[test]
    fn schedule_validation_is_enforced() {
        let config = SystemConfig::new(3, 0).unwrap();
        let schedule = CrashSchedule::none(3).with_crash(
            pid(1),
            CrashPoint::new(Round::FIRST, CrashStage::BeforeSend),
        );
        let err = Simulation::new(config, ModelKind::Extended, &schedule)
            .run(procs(3))
            .unwrap_err();
        assert!(matches!(err, SimError::BadSchedule(_)));
    }

    #[test]
    fn wrong_process_count_rejected() {
        let config = SystemConfig::new(3, 1).unwrap();
        let schedule = CrashSchedule::none(3);
        let err = Simulation::new(config, ModelKind::Extended, &schedule)
            .run(procs(2))
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::WrongProcessCount { got: 2, want: 3 }
        ));
    }

    #[test]
    fn transmissions_to_dead_destinations_count_but_are_not_received() {
        let config = SystemConfig::new(3, 2).unwrap();
        // p_2 is dead from the start; p_1 still *transmits* to it (it cannot
        // know), so Theorem 2 accounting charges the message — but p_2 never
        // receives it.
        let schedule = CrashSchedule::none(3).with_crash(
            pid(2),
            CrashPoint::new(Round::FIRST, CrashStage::BeforeSend),
        );
        let report = Simulation::new(config, ModelKind::Extended, &schedule)
            .run(procs(3))
            .unwrap();
        assert_eq!(report.metrics.data_messages, 2, "both transmissions count");
        assert_eq!(report.metrics.control_messages, 2);
        assert!(report.decisions[1].is_none(), "dead p_2 received nothing");
        assert_eq!(report.decisions[2].as_ref().unwrap().value, 101);
    }

    #[test]
    fn sent_round_settles_each_process_as_step_does() {
        let config = SystemConfig::new(4, 2).unwrap();
        let root = Stepper::new(config, ModelKind::Extended, TraceLevel::Off, procs(4)).unwrap();
        let mut sent = SentRound::new(&root).unwrap();
        assert_eq!(sent.round(), Round::FIRST);
        assert_eq!(sent.plan(0).unwrap().control.len(), 3);
        assert_eq!(sent.active(), [0, 1, 2, 3]);
        // The adversary's options per process, and five index rows over
        // them: nobody crashes; p_1 dies mid-data, mid-control, at the
        // end of the round — with p_3 dying before it sends, then alone.
        let outcomes = vec![
            vec![
                CrashStage::MidData {
                    delivered: PidSet::from_iter(4, [pid(3)]),
                },
                CrashStage::MidControl { prefix_len: 1 },
                CrashStage::EndOfRound,
            ],
            vec![],
            vec![CrashStage::BeforeSend],
            vec![],
        ];
        sent.tabulate(&outcomes);
        let rows: [[u16; 4]; 5] = [
            [0, 0, 0, 0],
            [1, 0, 0, 0],
            [2, 0, 0, 0],
            [3, 0, 1, 0],
            [3, 0, 0, 0],
        ];
        assert_eq!(sent.senders(), [0], "only the coordinator sends");
        for row in &rows {
            let actions: RoundActions = row
                .iter()
                .zip(&outcomes)
                .map(|(&k, stages)| (k > 0).then(|| stages[k as usize - 1].clone()))
                .collect();
            let mut stepped = root.clone();
            stepped.step(&actions).unwrap();
            for i in 0..4 {
                let view = sent.view(row, i);
                // Between rows that agree on the one sender's outcome, a
                // slot's view is a function of its own outcome alone.
                for other in rows.iter().filter(|o| o[0] == row[0] && o[i] == row[i]) {
                    assert_eq!(sent.view(other, i), view, "{row:?} / {other:?} p{}", i + 1);
                }
                let after = sent.settle(i, &view);
                assert_eq!(*after.status, stepped.status()[i], "{row:?} p{}", i + 1);
                assert_eq!(
                    *after.decision,
                    stepped.decisions()[i],
                    "{row:?} p{}",
                    i + 1
                );
                if matches!(after.status, ProcStatus::Active) {
                    assert_eq!(*after.state, *stepped.procs()[i], "{row:?} p{}", i + 1);
                }
            }
        }
        // The sender's outcome is part of every receiver's view: p_4
        // hears the data of a coordinator that dies mid-control, and
        // nothing of one that dies mid-data towards p_3 alone.
        assert_ne!(sent.view(&rows[1], 3), sent.view(&rows[2], 3));

        // After a crash-free round 1 everyone has decided: the round has
        // no slots, so no row can name a decided process.
        let mut decided = root.clone();
        decided.step(&vec![None; 4]).unwrap();
        sent.reset(&decided).unwrap();
        assert!(sent.plan(0).is_none());
        assert!(sent.active().is_empty());
        sent.tabulate(&[]);
        assert!(sent.senders().is_empty());
    }

    #[test]
    fn stepper_accessors_expose_state() {
        let config = SystemConfig::new(3, 1).unwrap();
        let mut stepper =
            Stepper::new(config, ModelKind::Extended, TraceLevel::Off, procs(3)).unwrap();
        assert_eq!(stepper.round(), Round::FIRST);
        assert_eq!(stepper.active().count(), 3);
        assert!(!stepper.is_quiescent());
        stepper.step(&vec![None, None, None]).unwrap();
        assert!(stepper.is_quiescent(), "everyone decided in round 1");
        assert_eq!(stepper.round(), Round::new(2));
        assert_eq!(stepper.decisions().iter().flatten().count(), 3);
    }
}
