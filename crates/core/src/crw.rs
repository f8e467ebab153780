//! The paper's uniform consensus algorithm (Figure 1), line for line.
//!
//! ```text
//! Function Consensus(v_i):
//! (1)  est_i := v_i;
//! (2)  when r = 1, 2, …  do
//! (3)  begin round
//! (4)  case (r = i) then for each j ∈ {i+1, …, n} do send DATA(est_i) to p_j end do;
//! (5)                    for j from n down to i+1 do send COMMIT to p_j end do;
//! (6)                    return(est_i)
//! (7)      (r < i) then if (DATA(v) received from p_r) then est_i := v end if;
//! (8)                   if (COMMIT received from p_r) then return(est_i) end if
//! (9)      (r > i) then % cannot happen %
//! (10) end case
//! (11) end round
//! ```
//!
//! ### A reconstruction note on the commit order (line 5)
//!
//! The available text of the paper lost the loop bounds of line 5 to OCR.
//! The order is **not** a free choice: sending commits lowest-rank-first
//! breaks Theorem 1.  Example (`n = 5`): `p_1` crashes mid-commit with the
//! delivered prefix reaching only `p_2`; `p_2` decides in round 1 and
//! halts; round 2's coordinator *is* the halted `p_2`, so nothing happens
//! until `p_3` coordinates round 3 — a 3-round run with `f = 1`,
//! contradicting the `f+1` bound.  Sending commits **highest-rank-first**
//! (`p_n, p_{n-1}, …, p_{r+1}`) repairs this: a delivered commit to `p_j`
//! implies (prefix semantics) delivery to every `p_k` with `k > j`, so
//! whenever some process decides early, *all* higher-ranked processes
//! decide with it, and an easy induction shows a live undecided process at
//! round `r` always has rank ≥ `r`.  This is also the only reading under
//! which Lemma 3's printed proof goes through ("we can conclude that all
//! the processes [above `p_{f+1}`] have received both messages").  The
//! descending order is therefore the default; the ascending variant is
//! kept as [`CommitOrder::LowestFirst`] for the ablation experiment, where
//! the model checker exhibits the Theorem 1 violation mechanically
//! (`repro ablation-commit-order`).
//!
//! | Figure 1 | here |
//! |---|---|
//! | line 1 | [`Crw::new`] initializes `est` to the proposal |
//! | line 4 | the `r == i` arm of `send`: data to every higher-ranked process |
//! | line 5 | same arm: control destinations `p_n … p_{i+1}`, highest first |
//! | line 6 | [`SendPlan::then_decide`] — recorded only if the send phase completes |
//! | lines 7–8 | `receive`: adopt the coordinator's estimate, decide on commit |
//! | line 9 | a `debug_assert` — a live undecided process has rank ≥ round |
//!
//! Why it works (Lemma 2, informally): the *first* coordinator that
//! executes line 4 entirely locks its estimate — every live process then
//! holds that estimate, so no other value can ever be decided.  The commit
//! only tells receivers the lock happened; any delivered commit implies
//! the coordinator finished its data step.

use std::fmt;
use std::hash::Hash;
use twostep_model::{BitSized, CrashSchedule, ProcessId, Round, SpillCodec, SystemConfig};
use twostep_sim::{
    Inbox, ModelKind, RunReport, SendPlan, SimError, Simulation, Step, SyncProtocol, TraceLevel,
};

/// The order in which the coordinator sends its commit messages (line 5).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum CommitOrder {
    /// `p_n, p_{n-1}, …, p_{r+1}` — the paper's order (see the module-level
    /// reconstruction note).  Guarantees the `f+1` round bound.
    #[default]
    HighestFirst,
    /// `p_{r+1}, …, p_n` — the superficially natural order, kept as an
    /// **ablation**: uniform agreement still holds, but Theorem 1's round
    /// bound fails (a decided-and-halted low-rank process can leave a
    /// round without a live coordinator).
    LowestFirst,
}

/// One process of the Cao–Raynal–Wang–Wu consensus algorithm.
///
/// Runs on the **extended** model only ([`ModelKind::Extended`]); the
/// engine will not accept its commit messages under classic semantics.
///
/// `V` is the proposed-value type; [`WideValue`](twostep_model::WideValue)
/// gives experiments exact control over the Theorem 2 bit width `b`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Crw<V> {
    me: ProcessId,
    n: usize,
    /// `est_i` — the current estimate (line 1: initialized to the proposal).
    est: V,
    order: CommitOrder,
}

impl<V: Clone> Crw<V> {
    /// Creates process `me` of an `n`-process instance proposing
    /// `proposal` (Figure 1 line 1), with the paper's commit order.
    pub fn new(me: ProcessId, n: usize, proposal: V) -> Self {
        Self::with_order(me, n, proposal, CommitOrder::HighestFirst)
    }

    /// Like [`new`](Self::new) but with an explicit commit order — only
    /// the ablation experiments use `LowestFirst`.
    pub fn with_order(me: ProcessId, n: usize, proposal: V, order: CommitOrder) -> Self {
        assert!(me.idx() < n, "{me} outside a system of {n} processes");
        Crw {
            me,
            n,
            est: proposal,
            order,
        }
    }

    /// The process this instance plays.
    pub fn id(&self) -> ProcessId {
        self.me
    }

    /// The current estimate `est_i`.
    pub fn estimate(&self) -> &V {
        &self.est
    }
}

impl SpillCodec for CommitOrder {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            CommitOrder::HighestFirst => 0,
            CommitOrder::LowestFirst => 1,
        });
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(CommitOrder::HighestFirst),
            1 => Some(CommitOrder::LowestFirst),
            _ => None,
        }
    }
}

/// CRW process state is spillable so the model checker can evict memo
/// entries keyed by it to disk and exchange them between worker processes
/// (distributed exploration).
impl<V: SpillCodec> SpillCodec for Crw<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.me.encode(out);
        self.n.encode(out);
        self.est.encode(out);
        self.order.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let me = ProcessId::decode(input)?;
        let n = usize::decode(input)?;
        let est = V::decode(input)?;
        let order = CommitOrder::decode(input)?;
        (me.idx() < n).then_some(Crw { me, n, est, order })
    }

    /// The symmetry quotient owner-strips rank-inert records before
    /// pooling them, so the owner is rewritten to the process at `at`.
    fn encode_relabelled(&self, at: usize, out: &mut Vec<u8>) {
        ProcessId::from_idx(at).encode(out);
        self.n.encode(out);
        self.est.encode(out);
        self.order.encode(out);
    }

    /// Rank-inertness for the rotating-coordinator dynamics, sound only
    /// under the paper's highest-first commit order:
    ///
    /// * `p_i` sends only as round-`i` coordinator, and a live
    ///   undecided process always has rank ≥ the current round (the
    ///   engine's asserted invariant), so round `i` arriving with `p_i`
    ///   still active requires every active ranked in `[round, i)` to
    ///   leave the execution first *without* settling `p_i`;
    /// * under `HighestFirst`, any commit prefix that decides a process
    ///   ranked below `i` covers `p_i` too (prefixes run downward from
    ///   `p_n`), so those lower actives can only leave by **crashing**;
    /// * with more actives below `p_i` than the adversary has crashes
    ///   left, round `i` is therefore unreachable with `p_i` active: its
    ///   rank can no longer matter.  Deliveries reach inert actives
    ///   uniformly — data goes to every higher rank, commit prefixes to
    ///   rank-downward windows all inert ranks share — so the partial
    ///   tier may pool them (inertness is also monotone along reachable
    ///   futures: a crash lowers `actives_below` and the budget together,
    ///   and a decision below `i` settles `p_i` itself).
    ///
    /// Under the `LowestFirst` ablation the second bullet fails (a low
    /// prefix can settle lower ranks while leaving `p_i` active), so the
    /// answer is pinned `false` there.
    fn rank_inert(&self, ctx: &twostep_model::SymmetryContext) -> bool {
        self.order == CommitOrder::HighestFirst && ctx.actives_below > ctx.crash_budget
    }

    /// CRW only *adopts and forwards* values (lines 4, 7–8 of Figure 1);
    /// it never computes on them, so its dynamics commute with any value
    /// relabelling the value type defines.
    fn value_symmetric() -> bool {
        V::value_symmetric()
    }

    fn value_swapped(&self) -> Option<Self> {
        Some(Crw {
            me: self.me,
            n: self.n,
            est: self.est.value_swapped()?,
            order: self.order,
        })
    }
}

/// The coordinator of round `r` is `p_r` (rotating coordinator paradigm).
///
/// Returns `None` when `r > n` — after `n` rounds every process has either
/// coordinated (and decided or crashed) or decided earlier, so no such
/// round is ever executed by a live process.
pub fn coordinator_of(round: Round, n: usize) -> Option<ProcessId> {
    (round.get() as usize <= n).then(|| ProcessId::new(round.get()))
}

impl<V> SyncProtocol for Crw<V>
where
    V: Clone + Eq + fmt::Debug + BitSized + Send + Sync,
{
    type Msg = V;
    type Output = V;

    fn send(&mut self, round: Round) -> SendPlan<V, V> {
        let mut plan = SendPlan::quiet();
        self.send_into(round, &mut plan);
        plan
    }

    /// The allocation-free hot path: the model checker executes this
    /// once per process per explored round, so the plan's buffers are
    /// refilled in place instead of rebuilt ([`SendPlan::clear`] keeps
    /// their allocations).
    fn send_into(&mut self, round: Round, plan: &mut SendPlan<V, V>) {
        plan.clear();
        if round.get() == self.me.rank() {
            // Lines 4–6: I coordinate this round.  Data to all higher
            // processes, then commits to the same processes (order per
            // `self.order`), then decide.  The whole plan is one atomic
            // send phase: no computation between the data and control
            // steps, exactly as the model prescribes.
            plan.data.reserve(self.n - self.me.idx() - 1);
            for dst in self.me.higher(self.n) {
                plan.data.push((dst, self.est.clone()));
            }
            plan.control.reserve(self.n - self.me.idx() - 1);
            match self.order {
                CommitOrder::HighestFirst => {
                    for dst in self.me.higher(self.n).rev() {
                        plan.control.push(dst);
                    }
                }
                CommitOrder::LowestFirst => {
                    for dst in self.me.higher(self.n) {
                        plan.control.push(dst);
                    }
                }
            }
            plan.decide_after_send = Some(self.est.clone());
        } else {
            // Line 9: r > i cannot happen — p_i would have decided (line 6)
            // or crashed while coordinating round i < r.  (This invariant
            // does fail under the LowestFirst ablation, which is part of
            // what that ablation demonstrates, so it is debug-asserted only
            // for the paper's order.)
            debug_assert!(
                self.order == CommitOrder::LowestFirst || self.me.rank() > round.get(),
                "{me} is live and undecided in round {round}, past its own \
                 coordination round — Figure 1 line 9 violated",
                me = self.me
            );
        }
    }

    fn receive(&mut self, round: Round, inbox: &Inbox<V>) -> Step<V> {
        let Some(coord) = coordinator_of(round, self.n) else {
            return Step::Continue;
        };
        // Line 7: adopt the coordinator's estimate if its DATA arrived.
        if let Some(v) = inbox.data_from(coord) {
            self.est = v.clone();
        }
        // Line 8: the commit proves the coordinator completed its data
        // step, so its estimate is locked — decide it.
        if inbox.control_from(coord) {
            Step::Decide(self.est.clone())
        } else {
            Step::Continue
        }
    }
}

/// Builds the `n` process instances for proposals `proposals[i]` (the
/// proposal of `p_{i+1}`).
///
/// # Panics
///
/// Panics if `proposals.len() != config.n()`.
pub fn crw_processes<V: Clone>(config: &SystemConfig, proposals: &[V]) -> Vec<Crw<V>> {
    assert_eq!(
        proposals.len(),
        config.n(),
        "one proposal per process required"
    );
    proposals
        .iter()
        .enumerate()
        .map(|(i, v)| Crw::new(ProcessId::from_idx(i), config.n(), v.clone()))
        .collect()
}

/// Convenience driver: runs CRW consensus under `schedule` on the extended
/// model and returns the run report.
///
/// The round cap is `n + 1`: Theorem 1 guarantees decision by round
/// `f + 1 ≤ t + 1 ≤ n`, so hitting the cap indicates a bug (and is
/// reported via [`RunReport::hit_round_cap`]).
///
/// # Examples
///
/// The Theorem 1 worst case, `f = 2`: coordinators `p_1`, `p_2` die in
/// their own rounds and `p_3` closes the deal in round `f + 1 = 3`:
///
/// ```
/// use twostep_core::run_crw;
/// use twostep_model::{
///     CrashPoint, CrashSchedule, CrashStage, ProcessId, Round, SystemConfig,
/// };
/// use twostep_sim::TraceLevel;
///
/// let config = SystemConfig::new(5, 2).unwrap();
/// let schedule = CrashSchedule::none(5)
///     .with_crash(ProcessId::new(1),
///         CrashPoint::new(Round::new(1), CrashStage::BeforeSend))
///     .with_crash(ProcessId::new(2),
///         CrashPoint::new(Round::new(2), CrashStage::BeforeSend));
/// let proposals = vec![10u64, 20, 30, 40, 50];
///
/// let report = run_crw(&config, &schedule, &proposals, TraceLevel::Off).unwrap();
/// assert_eq!(report.last_decision_round().unwrap().get(), 3); // f + 1
/// assert_eq!(report.decided_values(), vec![&30]);             // p_3's estimate
/// ```
pub fn run_crw<V>(
    config: &SystemConfig,
    schedule: &CrashSchedule,
    proposals: &[V],
    trace: TraceLevel,
) -> Result<RunReport<Crw<V>>, SimError>
where
    V: Clone + Eq + fmt::Debug + BitSized + Send + Sync,
{
    Simulation::new(*config, ModelKind::Extended, schedule)
        .max_rounds(config.n() as u32 + 1)
        .trace_level(trace)
        .run(crw_processes(config, proposals))
}

#[cfg(test)]
mod tests {
    use super::*;
    use twostep_model::{CrashPoint, CrashStage, PidSet};
    use twostep_sim::check_uniform_consensus;

    fn pid(r: u32) -> ProcessId {
        ProcessId::new(r)
    }

    fn cfg(n: usize, t: usize) -> SystemConfig {
        SystemConfig::new(n, t).unwrap()
    }

    fn props(n: usize) -> Vec<u64> {
        (1..=n as u64).map(|i| 100 + i).collect()
    }

    #[test]
    fn coordinator_rotation() {
        assert_eq!(coordinator_of(Round::new(1), 4), Some(pid(1)));
        assert_eq!(coordinator_of(Round::new(4), 4), Some(pid(4)));
        assert_eq!(coordinator_of(Round::new(5), 4), None);
    }

    #[test]
    fn commit_list_is_highest_first() {
        let mut p = Crw::new(pid(2), 5, 0u64);
        let plan = p.send(Round::new(2));
        assert_eq!(plan.control, vec![pid(5), pid(4), pid(3)]);
        // Data destinations are a set; we emit them ascending.
        let data_dsts: Vec<_> = plan.data.iter().map(|(d, _)| *d).collect();
        assert_eq!(data_dsts, vec![pid(3), pid(4), pid(5)]);
        assert_eq!(plan.decide_after_send, Some(0));
    }

    #[test]
    fn ablation_commit_list_is_lowest_first() {
        let mut p = Crw::with_order(pid(2), 5, 0u64, CommitOrder::LowestFirst);
        let plan = p.send(Round::new(2));
        assert_eq!(plan.control, vec![pid(3), pid(4), pid(5)]);
    }

    #[test]
    fn no_crash_decides_in_one_round_on_p1s_value() {
        // §3.2: "if the first coordinator does not crash, the decision is
        // obtained in one round, whatever the number of faulty processes".
        for n in [2usize, 3, 5, 16] {
            let config = SystemConfig::max_resilience(n).unwrap();
            let schedule = CrashSchedule::none(n);
            let report = run_crw(&config, &schedule, &props(n), TraceLevel::Off).unwrap();
            for d in &report.decisions {
                let d = d.as_ref().expect("everyone decides");
                assert_eq!(d.value, 101, "decision is p_1's estimate");
                assert_eq!(d.round, Round::FIRST);
            }
            let spec = check_uniform_consensus(
                &props(n),
                &report.decisions,
                &schedule,
                Some(config.crw_round_bound(0)),
            );
            assert!(spec.ok(), "{spec}");
        }
    }

    #[test]
    fn first_coordinator_crash_before_send_takes_two_rounds() {
        // p_1 dies silently: p_2 coordinates round 2 and imposes its value.
        let config = cfg(5, 2);
        let schedule = CrashSchedule::none(5).with_crash(
            pid(1),
            CrashPoint::new(Round::FIRST, CrashStage::BeforeSend),
        );
        let report = run_crw(&config, &schedule, &props(5), TraceLevel::Off).unwrap();
        for (i, d) in report.decisions.iter().enumerate() {
            if i == 0 {
                assert!(d.is_none(), "p_1 crashed before deciding");
            } else {
                let d = d.as_ref().unwrap();
                assert_eq!(d.value, 102, "p_2's estimate wins");
                assert_eq!(d.round, Round::new(2), "f=1 ⇒ decision in round 2");
            }
        }
        let spec = check_uniform_consensus(
            &props(5),
            &report.decisions,
            &schedule,
            Some(config.crw_round_bound(1)),
        );
        assert!(spec.ok(), "{spec}");
    }

    #[test]
    fn commit_prefix_decides_high_ranks_first() {
        // p_1 crashes mid-commit with prefix length 1: highest-first order
        // means exactly p_5 gets the commit and decides in round 1.  The
        // others adopted 101 (all data was delivered) and decide in round 2
        // when p_2 — with the locked estimate 101 — coordinates.
        let config = cfg(5, 2);
        let schedule = CrashSchedule::none(5).with_crash(
            pid(1),
            CrashPoint::new(Round::FIRST, CrashStage::MidControl { prefix_len: 1 }),
        );
        let report = run_crw(&config, &schedule, &props(5), TraceLevel::Off).unwrap();
        let d5 = report.decisions[4].as_ref().unwrap();
        assert_eq!((d5.value, d5.round), (101, Round::FIRST));
        for i in [1usize, 2, 3] {
            let d = report.decisions[i].as_ref().unwrap();
            assert_eq!(d.value, 101, "locked value decided by p_{}", i + 1);
            assert_eq!(d.round, Round::new(2), "f=1 ⇒ by round 2");
        }
        let spec = check_uniform_consensus(
            &props(5),
            &report.decisions,
            &schedule,
            Some(config.crw_round_bound(1)),
        );
        assert!(spec.ok(), "{spec}");
    }

    #[test]
    fn ablation_lowest_first_violates_theorem1() {
        // The reconstruction note's counterexample, mechanized: with
        // ascending commits, prefix {p_2} makes p_2 decide and halt; round
        // 2 then has a halted coordinator and the run needs 3 rounds with
        // f = 1 — Theorem 1's f+1 = 2 bound is violated.  (Uniform
        // agreement still holds.)
        let config = cfg(5, 2);
        let schedule = CrashSchedule::none(5).with_crash(
            pid(1),
            CrashPoint::new(Round::FIRST, CrashStage::MidControl { prefix_len: 1 }),
        );
        let procs: Vec<_> = props(5)
            .iter()
            .enumerate()
            .map(|(i, v)| Crw::with_order(ProcessId::from_idx(i), 5, *v, CommitOrder::LowestFirst))
            .collect();
        let report = Simulation::new(config, ModelKind::Extended, &schedule)
            .max_rounds(6)
            .run(procs)
            .unwrap();
        assert_eq!(
            report.last_decision_round(),
            Some(Round::new(3)),
            "ascending order needs 3 rounds where the paper's order needs 2"
        );
        // Agreement is unaffected by the order.
        let spec = check_uniform_consensus(&props(5), &report.decisions, &schedule, None);
        assert!(spec.ok(), "{spec}");
    }

    #[test]
    fn commit_implies_data_invariant() {
        // Model invariant (Section 2.1): a receiver holding the commit also
        // holds the data — check it on a full trace.
        let config = cfg(4, 2);
        let schedule = CrashSchedule::none(4).with_crash(
            pid(1),
            CrashPoint::new(Round::FIRST, CrashStage::MidControl { prefix_len: 2 }),
        );
        let report = run_crw(&config, &schedule, &props(4), TraceLevel::Full).unwrap();
        let data: Vec<_> = report.trace.delivered_data().collect();
        for (round, from, to) in report.trace.delivered_control() {
            assert!(
                data.contains(&(round, from, to)),
                "commit from {from} to {to} in round {round} without data"
            );
        }
    }

    #[test]
    fn cascade_of_coordinator_crashes_decides_at_f_plus_1() {
        // Coordinators p_1..p_f each crash before sending anything; p_{f+1}
        // then decides in round f+1 — the Theorem 1 worst-case shape.
        let n = 8;
        let config = SystemConfig::max_resilience(n).unwrap();
        for f in 0..=5usize {
            let mut schedule = CrashSchedule::none(n);
            for k in 1..=f {
                schedule.set(
                    pid(k as u32),
                    Some(CrashPoint::new(
                        Round::new(k as u32),
                        CrashStage::BeforeSend,
                    )),
                );
            }
            let report = run_crw(&config, &schedule, &props(n), TraceLevel::Off).unwrap();
            assert_eq!(
                report.last_decision_round(),
                Some(Round::new(f as u32 + 1)),
                "f={f}"
            );
            let spec = check_uniform_consensus(
                &props(n),
                &report.decisions,
                &schedule,
                Some(config.crw_round_bound(f)),
            );
            assert!(spec.ok(), "f={f}: {spec}");
        }
    }

    #[test]
    fn mid_data_subset_does_not_break_uniformity() {
        // p_1 leaks its estimate to p_3 only, then dies.  p_3 adopts 101
        // but cannot decide; p_2 coordinates round 2 with est 102 — and
        // p_3's est is overwritten to 102.  Everyone decides 102.
        let config = cfg(4, 2);
        let schedule = CrashSchedule::none(4).with_crash(
            pid(1),
            CrashPoint::new(
                Round::FIRST,
                CrashStage::MidData {
                    delivered: PidSet::from_iter(4, [pid(3)]),
                },
            ),
        );
        let report = run_crw(&config, &schedule, &props(4), TraceLevel::Off).unwrap();
        for d in report.decisions.iter().skip(1) {
            assert_eq!(d.as_ref().unwrap().value, 102);
        }
        let spec = check_uniform_consensus(&props(4), &report.decisions, &schedule, None);
        assert!(spec.ok(), "{spec}");
    }

    #[test]
    fn decide_then_die_is_uniform() {
        // p_1 completes round 1 fully (decides at line 6) and crashes at the
        // end of the round: its decision stands and must agree with all.
        let config = cfg(4, 2);
        let schedule = CrashSchedule::none(4).with_crash(
            pid(1),
            CrashPoint::new(Round::FIRST, CrashStage::EndOfRound),
        );
        let report = run_crw(&config, &schedule, &props(4), TraceLevel::Off).unwrap();
        let d1 = report.decisions[0].as_ref().expect("decided at line 6");
        assert_eq!(d1.value, 101);
        let spec = check_uniform_consensus(&props(4), &report.decisions, &schedule, None);
        assert!(spec.ok(), "{spec}");
    }

    #[test]
    fn theorem2_best_case_bit_complexity() {
        // Best case: (n-1) data of 64 bits + (n-1) commits of 1 bit.
        let n = 9;
        let config = SystemConfig::max_resilience(n).unwrap();
        let schedule = CrashSchedule::none(n);
        let report = run_crw(&config, &schedule, &props(n), TraceLevel::Off).unwrap();
        assert_eq!(
            report.metrics.total_bits(),
            twostep_model::theorem2::best_case_bits(n, 64)
        );
        assert_eq!(
            report.metrics.total_messages(),
            twostep_model::theorem2::best_case_messages(n)
        );
    }

    #[test]
    fn single_process_system_decides_alone() {
        // Degenerate n = 1: p_1 coordinates round 1, sends nothing,
        // decides its own proposal.
        let config = SystemConfig::new(1, 0).unwrap();
        let schedule = CrashSchedule::none(1);
        let report = run_crw(&config, &schedule, &[42u64], TraceLevel::Off).unwrap();
        let d = report.decisions[0].as_ref().unwrap();
        assert_eq!((d.value, d.round), (42, Round::FIRST));
        assert_eq!(report.metrics.total_messages(), 0);
    }

    #[test]
    fn estimate_accessor() {
        let p = Crw::new(pid(2), 4, 7u64);
        assert_eq!(*p.estimate(), 7);
        assert_eq!(p.id(), pid(2));
    }

    #[test]
    #[should_panic(expected = "outside a system")]
    fn constructor_bounds_check() {
        let _ = Crw::new(pid(5), 4, 0u64);
    }
}
