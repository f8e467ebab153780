//! One exploration run, opened and finished the same way under every
//! engine, and the drivers that loop over the walker's `step()` in
//! between: the primary (budgeted) driver with its stealers, and the
//! elastic (pulsing, preemptible) one.
//!
//! ## One run spine: open → work → finish
//!
//! Every engine is the same three steps around one crate-private `Run`:
//!
//! * **open** — start the deadline clock (budgets bound the whole call,
//!   not one walk), fingerprint the run, build the shared state, seed
//!   the memo from the persistent cache when its fingerprint matches,
//!   and resume a checkpoint when one is there.  Seeding is **all or
//!   nothing**: a seeded parent hides its descendants from the walk, so
//!   an artifact that breaks mid-import (corrupt segment, bad CRC,
//!   undecompressable record) would be result-correct for the root but
//!   silently shrink `distinct_states` and the census.  A broken cache
//!   or checkpoint therefore costs the whole memo, which is rebuilt and
//!   re-seeded from whatever is still intact; a checkpoint suspended at
//!   another symmetry strength is a hard
//!   [`ExploreError::CheckpointStrength`] refusal;
//! * **work** — whatever fills the memo ahead of the final walk.
//!   Nothing, for `explore_with`, which *is* the zero-worker run; one
//!   frontier expansion and a supervised worker per partition, for the
//!   partitioned coordinator; a local-first walk and a steal scheduler,
//!   for the elastic one ([`crate::dist`]).  Workers share one body of
//!   their own (seed import → frontier-segment rebuild → walk → delta
//!   export).  Work phases run unbounded and may under-cover freely —
//!   the determinism argument in [`crate::explorer`] is why;
//! * **finish** — honor a deadline that passed during a work phase that
//!   made progress (everything merged rides into the checkpoint), run
//!   the canonical root walk under the budget, build the census and
//!   witness, commit the fresh delta to the cache, and consume the
//!   checkpoint the run resumed from.  Every way of stopping short — an
//!   exhausted [`WalkBudget`] limit, or a `StateLimit` abort when a
//!   checkpoint is configured — leaves through one suspend path that
//!   serializes the fresh memo delta and returns
//!   [`ExploreError::Interrupted`].

use std::hash::Hash;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use twostep_model::{CrashPoint, CrashSchedule, ProcessId, SystemConfig};
use twostep_sim::{run_on_workers, RoundActions, Stepper, TraceLevel, WorkQueue};

use super::budget::{BudgetArbiter, BudgetKind, StepStatus, Unbounded};
use super::config::{CheckableProtocol, ExploreConfig, ExploreOptions, WalkBudget};
use super::report::{build_report, ExploreError, ExploreReport, Summary, Terminals, Witness};
use super::walker::{Interrupt, Shared, StepWalker, Walker};
use crate::cache::{CacheConfig, CacheSession};
use crate::checkpoint::{self, CheckpointConfig, CheckpointLoad};
use crate::spill::SpillCodec;

/// One exploration run, the spine every engine shares: [`open`](Self::open)
/// it, do the engine's own work over [`shared`](Self::shared) (nothing
/// for `explore_with`; worker launches and merges for the
/// [`crate::dist`] coordinators), then [`finish`](Self::finish) it.  The
/// open policy and the finish policy exist only here.
pub(crate) struct Run<'a, P>
where
    P: CheckableProtocol,
    P::Output: Hash,
{
    /// The memo (seeded by `open`) and the walker machinery.
    pub(crate) shared: Shared<'a, P>,
    /// The true initial configuration, ready to step.
    pub(crate) root: Stepper<P>,
    /// Records imported from a resumed checkpoint (0 when none).
    pub(crate) resumed: u64,
    /// Threads, budget and checkpoint directory of the finishing walk.
    engine: &'a ExploreOptions,
    session: CacheSession,
    fingerprint: u64,
    /// Entry instant: the deadline bounds the whole run, not one walk.
    started: Instant,
    /// Memo size once `open` has seeded it — what came from a cache or a
    /// checkpoint is not this session's progress.
    baseline: usize,
}

impl<'a, P> Run<'a, P>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    /// Opens a run: starts the deadline clock, fingerprints the run,
    /// builds the shared state, seeds the memo from `cache` when its
    /// fingerprint matches, and resumes `engine.checkpoint` when one is
    /// there — the memo seeded all or nothing (module docs; a broken
    /// cache turns its session stale, so it re-seeds nothing and a
    /// ReadWrite commit replaces it with this run's full image).
    ///
    /// A resumed checkpoint's records import as *fresh* — relative to
    /// the cache they are exactly what the suspended run added — so the
    /// final commit still writes a complete delta and `cache_hits`
    /// matches an uninterrupted run.
    pub(crate) fn open(
        system: SystemConfig,
        config: ExploreConfig,
        engine: &'a ExploreOptions,
        cache: Option<CacheConfig>,
        proposals: &'a [P::Output],
        initial: Vec<P>,
    ) -> Result<Self, ExploreError> {
        let started = Instant::now();
        // A stale or absent cache is reported (loudly) by the session
        // and ignored.
        let fingerprint = crate::cache::run_fingerprint(system, &config, &initial, proposals);
        let mut session = CacheSession::open(cache, fingerprint);
        let root = Stepper::new(system, config.model, TraceLevel::Off, initial.clone())
            .map_err(ExploreError::Engine)?;
        let mut cache_seeded = |initial: Vec<P>| -> Result<Shared<'a, P>, ExploreError> {
            let shared = Shared::new(system, config, engine, proposals, initial)?;
            if session
                .seed(&shared.memo, crate::memo::key_validator::<P>())
                .is_some()
            {
                return Ok(shared);
            }
            // Broken cache: the partial seed goes, memo and all.
            Shared::new(system, config, engine, proposals, shared.initial)
        };
        let mut shared = cache_seeded(initial)?;
        let mut resumed = 0;
        if let Some(ckpt) = &engine.checkpoint {
            match checkpoint::load_checkpoint(
                ckpt,
                fingerprint,
                shared.plan.strength(),
                &shared.memo,
                crate::memo::key_validator::<P>(),
            ) {
                CheckpointLoad::Loaded { records } => resumed = records,
                CheckpointLoad::Absent => {}
                // A strength flip is a hard refusal, not a loud restart:
                // the user asked to resume a specific suspended image,
                // and that image lives in another strength's key space.
                CheckpointLoad::StrengthMismatch { found } => {
                    return Err(ExploreError::CheckpointStrength {
                        found,
                        expected: shared.plan.strength(),
                    });
                }
                CheckpointLoad::Broken => {
                    shared = cache_seeded(std::mem::take(&mut shared.initial))?;
                }
            }
        }
        let baseline = shared.memo.len();
        Ok(Run {
            shared,
            root,
            resumed,
            engine,
            session,
            fingerprint,
            started,
            baseline,
        })
    }

    /// The cache segments `open` seeded the memo from.
    pub(crate) fn cache_segments(&self) -> Vec<PathBuf> {
        self.session.segments()
    }

    /// Finishes a run: the canonical root walk over whatever the memo
    /// holds by now (everything, for a distributed run's replay; only
    /// the seeds, for `explore_with`), then census and witness, cache
    /// commit, and consumption of the checkpoint the run resumed from.
    /// Also returns the seconds the walk and the report took.
    ///
    /// Every way of stopping short goes through
    /// [`suspend`](Self::suspend) here: the deadline having already
    /// passed during a work phase that made progress (that phase runs
    /// unbounded, so the deadline is honored at the boundary and
    /// everything merged rides into the checkpoint), a budget the walk
    /// itself exhausts, and — when a checkpoint is configured, so that
    /// the partial memo survives for a rerun with a raised budget — a
    /// `StateLimit` abort.
    pub(crate) fn finish(self) -> Result<(ExploreReport<P::Output>, f64, f64), ExploreError> {
        let Run { engine, shared, .. } = &self;
        if let Some(deadline) = engine.budget.deadline {
            if self.started.elapsed() >= deadline && shared.memo.len() > self.baseline {
                return Err(self.suspend(BudgetKind::Deadline));
            }
        }
        let autosave = engine.checkpoint.as_ref().and_then(|ckpt| {
            ckpt.autosave_every.map(|every| Autosave {
                config: ckpt,
                fingerprint: self.fingerprint,
                every: every.max(1),
            })
        });
        let walk_start = Instant::now();
        let root = match walk_roots(
            shared,
            engine.threads,
            vec![self.root.clone()],
            &engine.budget,
            self.started,
            autosave,
        ) {
            Ok(WalkOutcome::Done(mut summaries)) => summaries.pop().expect("one root, one summary"),
            Ok(WalkOutcome::Suspended { reason }) => return Err(self.suspend(reason)),
            Err(ExploreError::StateLimit { .. }) if engine.checkpoint.is_some() => {
                return Err(self.suspend(BudgetKind::States));
            }
            Err(error) => return Err(error),
        };
        let walk_seconds = walk_start.elapsed().as_secs_f64();
        let report_start = Instant::now();
        let witness = (root.violating)
            .then(|| reconstruct_witness(&mut Walker::new(shared)))
            .transpose()?;
        let report = build_report(&shared.memo, root, witness)?;
        let report_seconds = report_start.elapsed().as_secs_f64();
        self.session.commit(&shared.memo);
        if let Some(ckpt) = &engine.checkpoint {
            checkpoint::consume_checkpoint(ckpt);
        }
        Ok((report, walk_seconds, report_seconds))
    }

    /// Serializes the suspended run's fresh memo delta (when a
    /// checkpoint directory is configured) and builds the
    /// [`ExploreError::Interrupted`] to return.  The exploration is
    /// quiescent here — every walker joined before [`walk_roots`]
    /// returned — so the memo image is descendant-closed (inserts happen
    /// only at frame pop / terminal entry).
    fn suspend(&self, reason: BudgetKind) -> ExploreError {
        let memo = &self.shared.memo;
        let written = self.engine.checkpoint.as_ref().and_then(|ckpt| {
            let strength = self.shared.plan.strength();
            checkpoint::write_checkpoint(ckpt, self.fingerprint, strength, reason, memo)
        });
        ExploreError::Interrupted {
            reason,
            checkpoint: written,
            states: memo.len(),
        }
    }
}

/// Periodic crash-safety snapshotting for [`walk_roots`]
/// ([`CheckpointConfig::autosave_every`]): at `Yield` points, once at
/// least `every` steps have passed since the last save, the walk's
/// fresh memo delta is rewritten as a checkpoint labelled
/// [`BudgetKind::Autosave`].
///
/// Only honored on single-threaded walks: with stealers running, a
/// mid-walk export scan can race a concurrent insert across shards (a
/// parent landing in a later-scanned shard after its child's shard was
/// scanned) and break the descendant-closure the resume path relies on.
/// A one-walker memo is trivially quiescent at every step boundary.
#[derive(Clone, Copy)]
pub(crate) struct Autosave<'c> {
    pub(crate) config: &'c CheckpointConfig,
    pub(crate) fingerprint: u64,
    pub(crate) every: u64,
}

/// How a [`walk_roots`] call ended when no error occurred.
pub(crate) enum WalkOutcome<O> {
    /// Every root fully memoized: one summary per root, in order.
    Done(Vec<Arc<Summary<O>>>),
    /// The budget arbiter suspended the walk after it made fresh
    /// progress.  The memo holds a descendant-closed partial image; the
    /// caller decides whether to checkpoint it.
    Suspended {
        /// Which budget limit was exhausted.
        reason: BudgetKind,
    },
}

/// Walks every subtree in `roots` (in order, each fully memoized) with
/// `threads` work-sharing walkers, returning one summary per root.
///
/// The roots may be *any* configurations — the canonical initial
/// configuration, or a batch of frontier subtree roots assigned to one
/// distributed worker ([`crate::dist`]) — and the memo inside `shared`
/// may be pre-seeded with summaries computed elsewhere; a walk simply
/// finds those subtrees already answered.
///
/// The primary walker is driven one step at a time through a
/// [`BudgetArbiter`] over `budget` (deadline measured from `started`):
/// a refusal — once the walk has memoized at least one fresh
/// configuration — halts every walker and returns
/// [`WalkOutcome::Suspended`]; [`WalkBudget::unlimited`] runs to
/// completion.
pub(crate) fn walk_roots<P>(
    shared: &Shared<'_, P>,
    threads: usize,
    roots: Vec<Stepper<P>>,
    budget: &WalkBudget,
    started: Instant,
    autosave: Option<Autosave<'_>>,
) -> Result<WalkOutcome<P::Output>, ExploreError>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    type Slot<O> = Mutex<Option<Result<WalkOutcome<O>, Interrupt>>>;
    let threads = threads.max(1);
    // Autosave is a single-threaded feature (see [`Autosave`]); a
    // multi-walker run silently degrades to suspension-only
    // checkpointing rather than risking a non-descendant-closed image.
    let autosave = autosave.filter(|_| threads == 1);
    let result_slot: Slot<P::Output> = Mutex::new(None);
    // Handed to worker 0 through a mutex so the closure only needs the
    // steppers to be `Send`, not `Sync`.
    let root_handoff = Mutex::new(Some(roots));

    run_on_workers(threads, |worker| {
        if worker == 0 {
            // Primary walker: canonical walk of every root, in order, on
            // the calling thread.  Close the queue however we exit
            // (including by panic), so stealers never block forever.
            let _closer = QueueCloser(&shared.queue);
            let roots = root_handoff
                .lock()
                .expect("root handoff poisoned")
                .take()
                .expect("roots taken once");
            let mut walker = Walker::new(shared);
            let outcome = drive_primary(&mut walker, roots, budget, started, autosave);
            *result_slot.lock().expect("result slot poisoned") = Some(outcome);
        } else {
            // Stealer: drain donated subtrees into the shared memo,
            // stepping unbounded — suspension is the primary's call; a
            // suspending primary halts stealers through the stop flag
            // exactly like an abort.  A failing walk already recorded
            // its error and signalled the abort at the failure site
            // (`Shared::fail`), so both interrupt flavors are discarded
            // here.
            let mut walker = Walker::new(shared);
            while let Some(job) = shared.queue.pop_wait() {
                let mut stepped = StepWalker::new(&mut walker, vec![job]);
                loop {
                    match stepped.step(&mut Unbounded) {
                        Ok(step) if step.status == StepStatus::Done => break,
                        Ok(_) => {}
                        Err(Interrupt::Stopped) | Err(Interrupt::Failed(_)) => break,
                    }
                }
            }
        }
    });

    match result_slot
        .into_inner()
        .expect("result slot poisoned")
        .expect("primary walker always reports")
    {
        Ok(outcome) => Ok(outcome),
        Err(Interrupt::Failed(error)) => Err(error),
        Err(Interrupt::Stopped) => {
            // The primary walker only observes a stop signal when a
            // stealer recorded a failure first.
            Err(shared
                .failure
                .lock()
                .expect("failure slot poisoned")
                .clone()
                .expect("stop without failure"))
        }
    }
}

/// The primary driver loop: steps the walk under a [`BudgetArbiter`],
/// yielding cooperatively and honoring refusals only after fresh
/// progress (the min-progress guarantee — resuming at `max_steps = 0`
/// still memoizes at least one new configuration per session, so a
/// resume chain terminates in at most `distinct_states` sessions).
fn drive_primary<P>(
    walker: &mut Walker<'_, '_, P>,
    roots: Vec<Stepper<P>>,
    budget: &WalkBudget,
    started: Instant,
    autosave: Option<Autosave<'_>>,
) -> Result<WalkOutcome<P::Output>, Interrupt>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let shared = walker.shared;
    // Fresh-progress baseline: everything memoized before this walk
    // (cache seeds, checkpoint imports, earlier phases) doesn't count.
    let baseline = shared.memo.len();
    // Autosave parks at `Yield` verdicts, so an autosaving walk with no
    // explicit yield cadence gets one derived from its save interval.
    let mut effective = budget.clone();
    if let Some(save) = &autosave {
        if effective.yield_every.is_none() {
            effective.yield_every = Some(save.every);
        }
    }
    let mut arbiter = BudgetArbiter::from_start(effective, started);
    let mut stepped = StepWalker::new(walker, roots);
    let mut last_saved = 0u64;
    loop {
        let step = stepped.step(&mut arbiter)?;
        match step.status {
            StepStatus::Running => {}
            StepStatus::Done => return Ok(WalkOutcome::Done(stepped.into_summaries())),
            StepStatus::Yielded => {
                if let Some(save) = &autosave {
                    if step.steps - last_saved >= save.every && step.distinct_states > baseline {
                        checkpoint::write_checkpoint(
                            save.config,
                            save.fingerprint,
                            shared.plan.strength(),
                            BudgetKind::Autosave,
                            &shared.memo,
                        );
                        last_saved = step.steps;
                    }
                }
                std::thread::yield_now()
            }
            StepStatus::Refused(reason) => {
                if step.distinct_states > baseline {
                    // Halt stealers mid-subtree (their completed inserts
                    // are closed; partial frames are discarded) and
                    // report the suspension once they join.
                    shared.halt();
                    return Ok(WalkOutcome::Suspended { reason });
                }
                // No fresh state memoized yet this session: honoring the
                // refusal now would make resume a no-op loop.  Keep
                // stepping until the walk has something to show.
            }
        }
    }
}

/// A subtree root addressed by its *action-index path* from the true
/// initial configuration — the wire form of the elastic frontier.
/// Canonical keys are not invertible (symmetry canonicalization is
/// lossy), so the only faithful way to ship "this exact configuration"
/// between processes is the deterministic action sequence reaching it:
/// index `i` selects row `i` of the configuration's open round at each
/// level.
pub(crate) struct PathedRoot<P>
where
    P: CheckableProtocol,
    P::Output: Hash,
{
    /// `stable_hash64` of the configuration's canonical key.
    pub(crate) hash: u64,
    /// Action indices from the initial configuration to this root.
    pub(crate) path: Vec<u32>,
    /// The reconstructed configuration itself.
    pub(crate) stepper: Stepper<P>,
}

/// One progress observation from [`drive_elastic`], emitted every
/// `yield_every` steps.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ElasticPulse {
    /// Steps performed across every root so far.
    pub(crate) steps: u64,
    /// Harvestable frontier right now: unexplored immediate children on
    /// the DFS stack plus whole roots not yet entered.
    pub(crate) frontier: usize,
    /// Configurations memoized since the walk began (excludes seeds).
    pub(crate) fresh: usize,
}

/// The observer's answer to an [`ElasticPulse`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ElasticVerdict {
    /// Keep walking.
    Continue,
    /// Suspend and hand the remaining frontier back (honored only after
    /// fresh progress — the same min-progress guarantee as
    /// [`drive_primary`], so a preempt chain terminates).
    Preempt,
}

/// How a [`drive_elastic`] walk ended.
pub(crate) enum ElasticOutcome {
    /// Every root fully memoized.  No summaries ride back: every elastic
    /// caller re-derives them through the final replay's memo hits.
    Done,
    /// Preempted: the fresh memo image is complete for every *finished*
    /// subtree, and `frontier` holds the `(hash, path)` of every
    /// not-yet-explored subtree root — harvested unexplored children of
    /// the suspended stack plus the untouched remaining roots.
    /// Partially-explored interior configurations are abandoned; the
    /// final replay recomputes them through memo hits.
    Preempted {
        /// `(canonical-key hash, action-index path)` per remaining root.
        frontier: Vec<(u64, Vec<u32>)>,
    },
}

/// The elastic driver: walks `roots` one at a time (single-threaded),
/// calling `observe` every `yield_every` steps with the current load
/// estimate, and on [`ElasticVerdict::Preempt`] suspends the walk and
/// returns the remaining frontier as `(hash, path)` records.  See the
/// *Elastic distribution* section of [`crate::dist`].
pub(crate) fn drive_elastic<P>(
    walker: &mut Walker<'_, '_, P>,
    roots: Vec<PathedRoot<P>>,
    yield_every: u64,
    mut observe: impl FnMut(&ElasticPulse) -> ElasticVerdict,
) -> Result<ElasticOutcome, Interrupt>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let baseline = walker.shared.memo.len();
    // The pulse cadence is the arbiter's yield cadence, over the steps
    // of every root: each root's walk carries the count on.
    let mut arbiter = BudgetArbiter::new(WalkBudget {
        yield_every: Some(yield_every.max(1)),
        ..WalkBudget::unlimited()
    });
    let mut queue: std::collections::VecDeque<PathedRoot<P>> = roots.into();
    let mut steps = 0u64;
    while let Some(root) = queue.pop_front() {
        let path = root.path;
        let mut stepped = StepWalker::new(walker, vec![root.stepper]);
        stepped.steps = steps;
        loop {
            let step = stepped.step(&mut arbiter)?;
            steps = step.steps;
            match step.status {
                StepStatus::Done => break,
                StepStatus::Yielded => {}
                StepStatus::Running | StepStatus::Refused(_) => continue,
            }
            let fresh = step.distinct_states.saturating_sub(baseline);
            let pulse = ElasticPulse {
                steps,
                frontier: stepped.harvestable() + queue.len(),
                fresh,
            };
            if observe(&pulse) == ElasticVerdict::Preempt && fresh > 0 {
                let mut frontier = Vec::new();
                stepped.harvest_into(&path, &mut frontier)?;
                frontier.extend(queue.into_iter().map(|r| (r.hash, r.path)));
                return Ok(ElasticOutcome::Preempted { frontier });
            }
        }
    }
    Ok(ElasticOutcome::Done)
}

/// Guard closing the work queue when the primary walker exits its scope,
/// normally or by unwind.
struct QueueCloser<'a, T>(&'a WorkQueue<T>);

impl<T> Drop for QueueCloser<'_, T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Walks one violating path through the completed memo, rebuilding its
/// crash schedule and the terminal's violations.  Only called when the
/// root summary is violating, in which case a violating child exists
/// at every level; works against the sharded memo because the whole
/// violating subtree is memoized by then.
fn reconstruct_witness<P>(
    walker: &mut Walker<'_, '_, P>,
) -> Result<Witness<P::Output>, ExploreError>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    // Re-drive real executions from the true initial configuration
    // (kept in `Shared` — under symmetry reduction the memoized
    // round-1 key may be a canonical representative, so it must not
    // be decoded back into processes), choosing at each level the
    // first child whose memoized summary violates.
    let shared = walker.shared;
    let mut stepper = Stepper::new(
        shared.system,
        shared.config.model,
        TraceLevel::Off,
        shared.initial.clone(),
    )
    .map_err(ExploreError::Engine)?;
    let mut schedule = CrashSchedule::none(shared.system.n());
    let mut row = RoundActions::new();

    loop {
        if walker.is_terminal(&stepper) {
            let (status, decisions) = (stepper.status(), stepper.decisions());
            let mut terminals = Terminals::new(shared.system);
            let report = terminals.evaluate(&shared.config, shared.proposals, status, decisions);
            debug_assert!(terminals.summary.violating);
            return Ok(Witness {
                schedule,
                violations: report.violations,
                decisions: decisions.to_vec(),
            });
        }

        let round = stepper.round();
        let mut advanced = false;
        let open = walker.open_round(&stepper).map_err(ExploreError::Engine)?;
        for idx in 0..open.len() {
            open.actions_into(idx, &mut row);
            let mut child = stepper.clone();
            child.step(&row).map_err(ExploreError::Engine)?;
            let (hash, _) = walker.canonical_key(&child);
            let violating = (shared.memo)
                .get(hash, walker.key_bytes())?
                .is_some_and(|s| s.violating);
            if violating {
                for (i, a) in row.iter().enumerate() {
                    if let Some(stage) = a {
                        schedule.set(
                            ProcessId::from_idx(i),
                            Some(CrashPoint::new(round, stage.clone())),
                        );
                    }
                }
                stepper = child;
                advanced = true;
                break;
            }
        }
        walker.close_round(open);
        assert!(
            advanced,
            "violating summary without violating child — memo inconsistency"
        );
    }
}
