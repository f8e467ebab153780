//! The frame-stepped core's driver protocol: a walk does **a bounded
//! unit of work** per `StepWalker::step` call and returns a
//! [`StepResult`] envelope; every engine (serial, parallel stealers,
//! spill, distributed workers and replay) is a thin *driver* looping
//! over `step()` — the spine's finish drives the root walk this way, and
//! so does every work phase.  A **step** is one iteration of the DFS —
//! one configuration entry (memo probe / terminal evaluation / frame
//! push) or one frame pop (memoizing insert) — and a call takes one or
//! more, each counted: the steps of a *run* (rows that repeat a
//! successor class their frame has absorbed, each an addition to the
//! frame's terminal count; see the head of `round.rs`) are taken in the
//! same call as the step that ends the run, as far as the arbiter
//! allows.  Three contracts make this preemption-safe:
//!
//! * **step law** — step *order* is the DFS's iteration order whoever
//!   owns the loop, so bit-identity of reports is structural, not
//!   re-proven: any interleaving of `step()` calls performs the same
//!   enters and the same canonical-order merges;
//! * **arbiter contract** — at the end of each call the driver-supplied
//!   [`Arbiter`] inspects a [`StepProgress`] snapshot and answers
//!   [`StepVerdict::Allow`] (keep going), [`StepVerdict::Yield`] (a
//!   cooperative scheduling point — the primary driver calls
//!   `thread::yield_now`), or [`StepVerdict::Refuse`] with the exhausted
//!   [`BudgetKind`] (steps, wall-clock deadline, memo bytes — the
//!   distinct-state budget is checked where a memo miss is about to
//!   become a state).  The built-in [`BudgetArbiter`] enforces a
//!   declarative [`WalkBudget`] (`ExploreOptions::budget`,
//!   env-resolvable via `TWOSTEP_MAX_STEPS` / `TWOSTEP_DEADLINE_MS`; the
//!   deadline clock is read every 64 steps, not every step).  A call
//!   never passes over a step at which the arbiter could have answered
//!   anything else, or changed its own state: before the first silent
//!   step of a run the walker asks for the arbiter's
//!   [`headroom`](Arbiter::headroom) — how many further steps are certain
//!   to be allowed while the memo does not change (none by default; the
//!   distance to `max_steps`, the next `yield_every` multiple and the
//!   next deadline poll for `BudgetArbiter`) — so a verdict lands on the
//!   same step number whether or not runs are taken.  A refusal is
//!   honored only after the walk has memoized at least one *fresh*
//!   configuration this session, so a resume chain always terminates in
//!   at most `distinct_states` sessions even at `max_steps = 0`;
//! * **suspension** — a refused walk serializes the memo's fresh delta
//!   and nothing of its stack; why that image is resumable, and what
//!   pins the resumed report to the uninterrupted one, is
//!   [`crate::checkpoint`]'s header.

use std::time::Instant;

use super::config::WalkBudget;

/// Which [`WalkBudget`] limit a refusal or
/// [`ExploreError::Interrupted`](crate::ExploreError::Interrupted)
/// is attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetKind {
    /// [`WalkBudget::max_steps`] exhausted.
    Steps,
    /// [`WalkBudget::deadline`] passed.
    Deadline,
    /// [`WalkBudget::max_memo_bytes`] exceeded.
    MemoBytes,
    /// The [`ExploreConfig::max_states`](crate::ExploreConfig::max_states)
    /// distinct-state budget — routed
    /// through the checkpoint path when one is configured.
    States,
    /// Not a limit at all: a periodic crash-safety snapshot
    /// ([`crate::CheckpointConfig::autosave_every`]).  Never refuses a
    /// step — it only labels the checkpoint manifest so a resume can
    /// tell a mid-run autosave from a budget suspension.
    Autosave,
}

impl std::fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BudgetKind::Steps => "steps",
            BudgetKind::Deadline => "deadline",
            BudgetKind::MemoBytes => "memo-bytes",
            BudgetKind::States => "states",
            BudgetKind::Autosave => "autosave",
        })
    }
}

/// Progress snapshot handed to an [`Arbiter`] at the end of every
/// `step()` call.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StepProgress {
    /// Steps performed by this walk so far (monotone).
    pub steps: u64,
    /// Distinct configurations memoized across the whole exploration
    /// (all walkers), including cache/checkpoint seeds.
    pub distinct_states: usize,
    /// Approximate memo footprint in bytes (see
    /// [`WalkBudget::max_memo_bytes`]).
    pub memo_bytes: u64,
}

/// An [`Arbiter`]'s answer for one step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum StepVerdict {
    /// Keep stepping.
    Allow,
    /// Cooperative scheduling point: the driver may deschedule the walk
    /// and step again later; nothing about the walk changes.
    Yield,
    /// A budget is exhausted: the driver should suspend the walk
    /// (honored after the min-progress guarantee, see [`WalkBudget`]).
    Refuse(BudgetKind),
}

/// Policy hook consulted by a frame-stepped driver at the end of every
/// `step()` call: the walker does a bounded unit of work, the arbiter
/// says Allow/Yield/Refuse, the driver owns the loop.  Implementations
/// must be cheap (called on the hot path) and need not be
/// deterministic: verdicts affect only *when* a walk suspends, never
/// its result.
pub(crate) trait Arbiter {
    /// Verdict for the step that just completed.
    fn inspect(&mut self, progress: &StepProgress) -> StepVerdict;

    /// How many steps after `progress.steps` are certain to be answered
    /// [`StepVerdict::Allow`] — by an `inspect` that would change
    /// nothing in `self` — for as long as the memo does not change
    /// (`distinct_states`, `memo_bytes`).
    /// A `step()` call may take that many steps whose only effect is an
    /// addition (rows that repeat a successor class their frame has
    /// absorbed) without returning to the driver in between; every one
    /// is still counted.  The default promises nothing, which makes
    /// every step its own `step()` call.
    fn headroom(&self, _progress: &StepProgress) -> u64 {
        0
    }
}

/// The trivial arbiter: always [`StepVerdict::Allow`].  Stealer threads
/// and distributed workers drive with this — suspension is the primary
/// (root) driver's decision.
pub(crate) struct Unbounded;

impl Arbiter for Unbounded {
    fn inspect(&mut self, _progress: &StepProgress) -> StepVerdict {
        StepVerdict::Allow
    }

    fn headroom(&self, _progress: &StepProgress) -> u64 {
        u64::MAX
    }
}

/// The built-in arbiter enforcing a [`WalkBudget`] against a fixed start
/// instant.
pub(crate) struct BudgetArbiter {
    budget: WalkBudget,
    started: Instant,
    /// Latched once the deadline has been seen to pass.
    expired: bool,
}

/// Steps between two reads of the deadline clock.  A step is well under
/// a microsecond and a clock read is a tenth of that, so reading it on
/// every step is a measurable share of a bounded walk; an expired
/// deadline is noticed at most this many steps late.
const DEADLINE_POLL_STEPS: u64 = 64;

impl BudgetArbiter {
    /// An arbiter whose deadline clock starts now.
    pub fn new(budget: WalkBudget) -> Self {
        Self::from_start(budget, Instant::now())
    }

    /// An arbiter measuring [`WalkBudget::deadline`] from an earlier
    /// instant — e.g. the entry into a multi-phase pipeline, so seed and
    /// worker phases count against the same clock.
    pub fn from_start(budget: WalkBudget, started: Instant) -> Self {
        BudgetArbiter {
            budget,
            started,
            expired: false,
        }
    }
}

impl Arbiter for BudgetArbiter {
    fn inspect(&mut self, progress: &StepProgress) -> StepVerdict {
        if let Some(max) = self.budget.max_steps {
            if progress.steps >= max {
                return StepVerdict::Refuse(BudgetKind::Steps);
            }
        }
        if let Some(max) = self.budget.max_memo_bytes {
            if progress.memo_bytes >= max {
                return StepVerdict::Refuse(BudgetKind::MemoBytes);
            }
        }
        if let Some(deadline) = self.budget.deadline {
            // Polled from a walk's first step on, and latched: a refusal
            // the driver cannot honor yet is repeated on every step.
            if !self.expired && progress.steps % DEADLINE_POLL_STEPS == 1 {
                self.expired = self.started.elapsed() >= deadline;
            }
            if self.expired {
                return StepVerdict::Refuse(BudgetKind::Deadline);
            }
        }
        if let Some(every) = self.budget.yield_every {
            if every > 0 && progress.steps.is_multiple_of(every) {
                return StepVerdict::Yield;
            }
        }
        StepVerdict::Allow
    }

    /// The distance to the nearest step at which `inspect` could do
    /// anything but return `Allow`: the step that exhausts `max_steps`,
    /// the next multiple of `yield_every`, the next read of the deadline
    /// clock.  Nothing, once a limit refuses.
    fn headroom(&self, progress: &StepProgress) -> u64 {
        let budget = &self.budget;
        let steps = progress.steps;
        if self.expired
            || budget
                .max_memo_bytes
                .is_some_and(|max| progress.memo_bytes >= max)
        {
            return 0;
        }
        let mut room = u64::MAX;
        if let Some(max) = budget.max_steps {
            room = room.min(max.saturating_sub(steps.saturating_add(1)));
        }
        if budget.deadline.is_some() {
            let polled = DEADLINE_POLL_STEPS;
            room = room.min(polled - 1 - (steps % polled + polled - 1) % polled);
        }
        if let Some(every) = budget.yield_every.filter(|every| *every > 0) {
            room = room.min(every - 1 - steps % every);
        }
        room
    }
}

/// What one `step()` call did — the uniform envelope every driver loops
/// on.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StepResult {
    /// Steps this walk has performed so far, this call's included — a
    /// call takes one or more ([`Arbiter::headroom`]), so drivers that
    /// keep a cadence in steps read it here instead of counting calls.
    pub steps: u64,
    /// Whether the call pushed a new frame (a configuration expanded),
    /// as opposed to a memo hit, terminal evaluation, or frame pop.  No
    /// driver asks; the tests that steer a walk frame by frame do.
    #[cfg_attr(not(test), allow(dead_code))]
    pub expanded: bool,
    /// DFS stack depth after the step (read like `expanded`).
    #[cfg_attr(not(test), allow(dead_code))]
    pub frontier_len: usize,
    /// Distinct configurations memoized across the whole exploration.
    pub distinct_states: usize,
    /// Whether and why to keep stepping.
    pub status: StepStatus,
}

/// Driver-facing status of a stepped walk after one `step()`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum StepStatus {
    /// More work remains; step again.
    Running,
    /// Every root's subtree is fully memoized; the walk is complete.
    Done,
    /// The arbiter requested a cooperative yield; step again whenever
    /// convenient.
    Yielded,
    /// The arbiter refused further work: the named budget is exhausted
    /// and the driver should suspend the walk.
    Refused(BudgetKind),
}
