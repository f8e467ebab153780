//! What an exploration reports: why it stopped ([`ExploreError`]), what
//! it found ([`ExploreReport`], its root [`Summary`] and census, a
//! [`Witness`] when the spec is violated), and how one terminal
//! configuration is evaluated into a summary (`Terminals`).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use twostep_model::{CrashPoint, CrashSchedule, CrashStage, ProcessId, SystemConfig};
use twostep_sim::{
    check_uniform_consensus, Decision, ProcStatus, SimError, SpecReport, SpecViolation,
};

use super::budget::BudgetKind;
use super::config::{ExploreConfig, SpecMode};
use crate::memo::{key_round, ShardedMemo};
use crate::spill::{SpillCodec, SpillError};

/// Errors aborting an exploration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExploreError {
    /// The distinct-state budget was exhausted.
    StateLimit {
        /// The configured budget.
        budget: usize,
    },
    /// The engine rejected a step (e.g. control messages under classic
    /// semantics).
    Engine(SimError),
    /// The disk tier of the memo failed (segment I/O, a corrupt or
    /// foreign segment file).
    Spill {
        /// What failed, human-readable.
        detail: String,
    },
    /// A distributed-exploration worker failed every launch attempt
    /// (see [`crate::dist`]).
    Worker {
        /// The frontier partition whose worker could not be completed.
        partition: usize,
        /// The last attempt's failure, human-readable.
        detail: String,
    },
    /// The distributed coordinator itself failed before or while
    /// orchestrating workers (e.g. it cannot locate its own binary for
    /// re-exec) — distinct from [`ExploreError::Worker`] so operators
    /// don't chase a worker that never launched.
    Coordinator {
        /// What failed, human-readable.
        detail: String,
    },
    /// The walk was suspended by an exhausted [`WalkBudget`](crate::WalkBudget) limit (or a
    /// `StateLimit` rerouted through the checkpoint path).  Not a
    /// failure: when [`checkpoint`](Self::Interrupted::checkpoint) is
    /// `Some`, re-running the identical exploration with that checkpoint
    /// directory configured resumes from the preserved partial memo and
    /// converges to the uninterrupted report.
    Interrupted {
        /// Which budget suspended the walk.
        reason: BudgetKind,
        /// Directory holding the resumable artifact, when one was
        /// written (`None`: no checkpoint configured, or writing it
        /// failed — reported loudly on stderr).
        checkpoint: Option<PathBuf>,
        /// Distinct configurations memoized at suspension — all of them
        /// preserved in the checkpoint.
        states: usize,
    },
    /// A resumable checkpoint exists for this run but was suspended at a
    /// different symmetry-canonicalization strength: its memo image
    /// lives in another strength's canonical key space and cannot be
    /// resumed under this one.  A hard refusal, not a silent restart —
    /// restore the suspended run's symmetry mode, or delete the
    /// checkpoint to start over at the new strength.
    CheckpointStrength {
        /// Strength byte the checkpoint was suspended at.
        found: u8,
        /// This run's effective strength byte.
        expected: u8,
    },
    /// A deliberately injected failure from the fault harness
    /// ([`crate::faults`]) — only ever produced under an armed
    /// `FaultPlan`, and distinguished so supervision tests can tell
    /// injected chaos from a genuine defect.
    Injected {
        /// Which fault fired, human-readable.
        detail: String,
    },
}

impl From<SpillError> for ExploreError {
    fn from(e: SpillError) -> Self {
        ExploreError::Spill {
            detail: e.to_string(),
        }
    }
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::StateLimit { budget } => {
                write!(f, "exploration exceeded the {budget}-state budget")
            }
            ExploreError::Engine(e) => write!(f, "engine error during exploration: {e}"),
            ExploreError::Spill { detail } => {
                write!(f, "memo spill failure during exploration: {detail}")
            }
            ExploreError::Worker { partition, detail } => {
                write!(
                    f,
                    "partition {partition} worker failed every attempt: {detail}"
                )
            }
            ExploreError::Coordinator { detail } => {
                write!(f, "distributed coordinator failure: {detail}")
            }
            ExploreError::Interrupted {
                reason,
                checkpoint,
                states,
            } => {
                write!(
                    f,
                    "exploration suspended ({reason} budget exhausted) after {states} \
                     distinct states; "
                )?;
                match checkpoint {
                    Some(dir) => write!(f, "resumable checkpoint at {}", dir.display()),
                    None => f.write_str("no checkpoint configured, partial work discarded"),
                }
            }
            ExploreError::Injected { detail } => {
                write!(f, "injected fault: {detail}")
            }
            ExploreError::CheckpointStrength { found, expected } => {
                write!(
                    f,
                    "checkpoint was suspended at symmetry strength {found:#04x} but this \
                     run canonicalizes at {expected:#04x}; restore the suspended run's \
                     symmetry mode or delete the checkpoint to start over"
                )
            }
        }
    }
}

impl std::error::Error for ExploreError {}

/// Memoized summary of everything reachable from one configuration.
///
/// Under a spilling memo ([`MemoConfig`](crate::MemoConfig)) summaries round-trip through
/// the compact binary record of [`crate::spill`]; equality is derived so
/// the round-trip (and the spill-vs-RAM differential suite) can assert
/// identity directly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Summary<O> {
    /// Terminal executions in the subtree.
    pub terminals: u64,
    /// `worst_round_by_f[f]` = the latest decision round over all subtree
    /// terminals whose total crash count is `f` (`None` = no such terminal
    /// or no decision in it).
    pub worst_round_by_f: Vec<Option<u32>>,
    /// Distinct values decided somewhere in the subtree — the
    /// configuration's valency.
    pub decided: Vec<O>,
    /// Whether some terminal in the subtree violates the spec.
    pub violating: bool,
}

impl<O: Clone + Eq> Summary<O> {
    pub(super) fn empty(t: usize) -> Self {
        Summary {
            terminals: 0,
            worst_round_by_f: vec![None; t + 1],
            decided: Vec::new(),
            violating: false,
        }
    }

    pub(super) fn absorb(&mut self, child: &Summary<O>) {
        self.terminals += child.terminals;
        for (mine, theirs) in self
            .worst_round_by_f
            .iter_mut()
            .zip(&child.worst_round_by_f)
        {
            *mine = match (*mine, *theirs) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
        }
        for v in &child.decided {
            if !self.decided.contains(v) {
                self.decided.push(v.clone());
            }
        }
        self.violating |= child.violating;
    }

    /// Whether at least two different values are reachable — the
    /// configuration is *bivalent* in the sense of the paper's Section 5.
    pub fn is_bivalent(&self) -> bool {
        self.decided.len() >= 2
    }
}

/// The result of a completed exploration.
#[derive(Clone, Debug)]
pub struct ExploreReport<O> {
    /// Distinct configurations visited.
    pub distinct_states: usize,
    /// Distinct configurations answered by the persistent cache (or
    /// distributed seed) instead of being explored: `0` on a cold run,
    /// equal to [`distinct_states`](Self::distinct_states) on a fully
    /// warm one.  Purely informational — the exploration *result* is
    /// identical with and without a cache.
    pub cache_hits: usize,
    /// Distinct configurations this run actually had to explore:
    /// `distinct_states - cache_hits`.
    pub fresh_states: usize,
    /// Root summary: terminals, worst rounds per `f`, valency, violations.
    pub root: Summary<O>,
    /// Per-round configuration census: `(round, configs, bivalent configs)`
    /// over all memoized configurations, ascending by round.  This is the
    /// empirical bivalency table of experiment E5.
    pub bivalency_by_round: Vec<(u32, usize, usize)>,
    /// A concrete violating schedule, if any terminal violated the spec:
    /// the crash points along one violating path plus the violations found
    /// at its terminal.
    pub witness: Option<Witness<O>>,
}

/// A reconstructed counterexample.
#[derive(Clone, Debug)]
pub struct Witness<O> {
    /// The crash schedule of the violating execution.
    pub schedule: CrashSchedule,
    /// The violations at its terminal.
    pub violations: Vec<SpecViolation<O>>,
    /// The terminal's decision table.
    pub decisions: Vec<Option<Decision<O>>>,
}

/// Post-processing over a completed walk (single-threaded): the
/// bivalency census over every memoized configuration, around the root
/// summary and the witness reconstructed for it if it violates.
pub(crate) fn build_report<O>(
    memo: &ShardedMemo<O>,
    root: Arc<Summary<O>>,
    witness: Option<Witness<O>>,
) -> Result<ExploreReport<O>, ExploreError>
where
    O: Clone + Eq + SpillCodec,
{
    let mut by_round: HashMap<u32, (usize, usize)> = HashMap::new();
    memo.for_each(|key, summary| {
        // The round is the key encoding's leading field — read it off
        // the bytes, no decode.
        let slot = by_round.entry(key_round(key)).or_insert((0, 0));
        slot.0 += 1;
        if summary.is_bivalent() {
            slot.1 += 1;
        }
    })?;
    let mut bivalency_by_round: Vec<(u32, usize, usize)> =
        by_round.into_iter().map(|(r, (c, b))| (r, c, b)).collect();
    bivalency_by_round.sort_unstable();

    let distinct_states = memo.len();
    let cache_hits = memo.seeded_len();
    Ok(ExploreReport {
        distinct_states,
        cache_hits,
        fresh_states: distinct_states - cache_hits,
        root: (*root).clone(),
        bivalency_by_round,
        witness,
    })
}

/// Terminal evaluation with everything it reuses.  A walk is mostly
/// leaves — 38 597 of the 47 789 configurations of CRW `(8, 7)` — and
/// they end in very few ways: a terminal's summary is its crash count,
/// its last decision round, the values decided and one flag, 64 distinct
/// ones over that whole walk.  So a terminal is evaluated into one
/// scratch summary, rewritten in place, and memoized under the `Arc` of
/// the first terminal that ended the same way: a repeated outcome
/// allocates nothing, and a later memo hit on any of those leaves touches
/// a summary that is already in cache.  The table has no capacity and no
/// eviction — crash counts × decision rounds × valencies bound it.
pub(super) struct Terminals<O> {
    /// Reusable pseudo-schedule: who crashed, all the spec check asks.
    schedule: CrashSchedule,
    /// The terminal last [`evaluate`](Self::evaluate)d: its summary and
    /// how many of its processes crashed.
    pub(super) summary: Summary<O>,
    crashed: usize,
    /// The distinct summaries [`interned`](Self::interned) so far, by
    /// crash count.
    pub(super) distinct: Vec<Vec<Arc<Summary<O>>>>,
}

impl<O: Clone + Eq + std::fmt::Debug> Terminals<O> {
    pub(super) fn new(system: SystemConfig) -> Self {
        Terminals {
            schedule: CrashSchedule::none(system.n()),
            summary: Summary::empty(system.t()),
            crashed: 0,
            distinct: vec![Vec::new(); system.t() + 1],
        }
    }

    /// Evaluates the terminal configuration whose processes stand with
    /// `status` and `decisions` — of a `Stepper`, or read off the
    /// records of a row (`RoundKeys::cursor_terminal`): settled records
    /// are final, so they are all a terminal ever was to the checker.
    /// Leaves its real-space summary in `self.summary` and returns the
    /// spec report behind the summary's `violating`.
    pub(super) fn evaluate(
        &mut self,
        config: &ExploreConfig,
        proposals: &[O],
        status: &[ProcStatus],
        decisions: &[Option<Decision<O>>],
    ) -> SpecReport<O> {
        self.schedule.reset();
        self.crashed = 0;
        for (i, status) in status.iter().enumerate() {
            if let ProcStatus::Crashed(round) = status {
                self.crashed += 1;
                // Stage is irrelevant to the spec check; only the correct
                // set and rounds matter.
                self.schedule.set(
                    ProcessId::from_idx(i),
                    Some(CrashPoint::new(*round, CrashStage::BeforeSend)),
                );
            }
        }

        let bound = config.round_bound.map(|rb| rb.bound(self.crashed));
        let mut report = check_uniform_consensus(proposals, decisions, &self.schedule, bound);
        if config.spec == SpecMode::NonUniform {
            report
                .violations
                .retain(|v| !matches!(v, SpecViolation::UniformAgreement { .. }));
        }

        let summary = &mut self.summary;
        summary.terminals = 1;
        summary.worst_round_by_f.fill(None);
        summary.worst_round_by_f[self.crashed] =
            decisions.iter().flatten().map(|d| d.round.get()).max();
        summary.decided.clear();
        for d in decisions.iter().flatten() {
            if !summary.decided.contains(&d.value) {
                summary.decided.push(d.value.clone());
            }
        }
        summary.violating = !report.ok();
        report
    }

    /// The shared `Arc` of `self.summary` — as it stands, which is in
    /// canonical space once the caller has taken it there.
    pub(super) fn interned(&mut self) -> Arc<Summary<O>> {
        let met = &mut self.distinct[self.crashed];
        if let Some(same) = met.iter().find(|same| ***same == self.summary) {
            return Arc::clone(same);
        }
        let fresh = Arc::new(self.summary.clone());
        met.push(Arc::clone(&fresh));
        fresh
    }
}
