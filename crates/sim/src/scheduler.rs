//! The workspace's one worker-scheduling idiom, shared by sweeps and the
//! model checker.
//!
//! Three pieces:
//!
//! * [`run_on_workers`] — fan a closure out over scoped `std::thread`
//!   workers, running worker 0 on the calling thread (so a single-worker
//!   run costs no spawn at all, and the caller's stack hosts the "primary"
//!   walker in parallel exploration);
//! * [`supervise`] — the fault-containing retry primitive: one fallible
//!   task run on the calling thread under a [`RetryPolicy`] of attempt
//!   budget / deterministic backoff / per-attempt timeout, a
//!   [`CancelToken`] handed to every attempt so hung work can be told to
//!   stop, and panic containment (a panicking task closure becomes that
//!   task's [`TaskError::Panicked`] — never the caller's death);
//! * [`WorkQueue`] — a closable MPMC injector with idle-worker accounting,
//!   the channel through which busy explorer walkers *share* unexplored
//!   subtrees with idle ones.
//!
//! Thread-count policy lives in [`default_threads`]: the `TWOSTEP_THREADS`
//! environment variable (minimum 1) overrides the machine's available
//! parallelism, and every parallel facility in the workspace — parameter
//! sweeps, the exhaustive explorer, experiment harnesses — resolves its
//! default through this single function.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

use crate::env::{warn_once, EnvKnob};

/// Hard cap on the worker count accepted from `TWOSTEP_THREADS`: values
/// above this are almost certainly typos (no machine this workspace
/// targets has thousands of cores, and each worker pins a thread), so
/// they are clamped rather than honored.
pub const MAX_THREADS: usize = 4096;

/// Number of worker threads to use by default.
///
/// Resolution order:
///
/// 1. `TWOSTEP_THREADS` environment variable (useful to pin CI or
///    reproduce serial behavior: `TWOSTEP_THREADS=1`); surrounding
///    whitespace is tolerated, values above [`MAX_THREADS`] are clamped,
///    and `0` or an unparseable value is **not** silently honored — it
///    falls back to machine parallelism with a one-time warning on
///    stderr;
/// 2. the machine's available parallelism;
/// 3. 1, if neither is known.
pub fn default_threads() -> usize {
    let machine = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (threads, warning) = clamp_threads(THREADS.get().unwrap_or(machine));
    if let Some(warning) = warning {
        warn_once("TWOSTEP_THREADS cap", &warning);
    }
    threads
}

/// `TWOSTEP_THREADS`: any positive worker count ([`default_threads`]
/// clamps it to [`MAX_THREADS`]).
const THREADS: EnvKnob<usize> = EnvKnob {
    name: "TWOSTEP_THREADS",
    fallback: "is not a thread count (need at least one worker); \
               falling back to machine parallelism",
    parse: |raw| raw.parse().ok().filter(|&n| n >= 1),
};

/// Clamps a requested worker count to [`MAX_THREADS`], with the warning
/// the clamp earns.
fn clamp_threads(requested: usize) -> (usize, Option<String>) {
    if requested > MAX_THREADS {
        let warning =
            format!("TWOSTEP_THREADS={requested} exceeds the {MAX_THREADS}-thread cap; clamping");
        return (MAX_THREADS, Some(warning));
    }
    (requested, None)
}

/// Runs `work(worker_index)` on `threads` workers: indexes `1..threads`
/// on scoped spawned threads, index `0` on the calling thread.  Returns
/// when every worker has returned; a panicking worker propagates its
/// panic to the caller when the scope joins.
pub fn run_on_workers<F>(threads: usize, work: F)
where
    F: Fn(usize) + Sync,
{
    let threads = threads.max(1);
    if threads == 1 {
        work(0);
        return;
    }
    std::thread::scope(|scope| {
        for idx in 1..threads {
            let work = &work;
            scope.spawn(move || work(idx));
        }
        work(0);
    });
}

/// A cooperative stop signal shared between a supervisor and the work it
/// supervises.
///
/// Cloning is cheap (one `Arc`); every clone observes the same flag.
/// There is deliberately no "un-cancel": a token represents one attempt's
/// lifetime, and a retry gets a fresh token.  Long-running work is
/// expected to poll [`is_cancelled`](Self::is_cancelled) at its natural
/// yield points (a poll is one relaxed atomic load); work driving an OS
/// process should kill the child when the token trips.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the token.  Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether [`cancel`](Self::cancel) has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Retry discipline for [`supervise`]: how many launches a task gets,
/// how long to wait between them, and how long any single attempt may
/// run.
///
/// Backoff is **deterministic** (no jitter): the delay before attempt
/// `k >= 1` is `backoff * 2^(k-1)`, capped at `backoff_cap` — so a given
/// policy produces the same launch schedule every run, which keeps
/// fault-injection scenarios reproducible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total launches allowed per task (must be at least 1).
    pub attempts: usize,
    /// Base delay before the first retry; `Duration::ZERO` disables
    /// backoff entirely.
    pub backoff: Duration,
    /// Upper bound on any single backoff delay.
    pub backoff_cap: Duration,
    /// Wall-clock budget for one attempt.  When it expires the attempt's
    /// [`CancelToken`] is tripped and, once the closure returns, the
    /// attempt is recorded as [`TaskError::TimedOut`] and retried like
    /// any other failure.  `None` disables the watchdog.
    pub attempt_timeout: Option<Duration>,
}

impl RetryPolicy {
    /// A policy with `attempts` launches, no backoff, and no per-attempt
    /// timeout.
    pub fn new(attempts: usize) -> Self {
        RetryPolicy {
            attempts,
            backoff: Duration::ZERO,
            backoff_cap: Duration::from_secs(5),
            attempt_timeout: None,
        }
    }

    /// The deterministic delay slept before launching `attempt`
    /// (0-based): zero for the first launch, then exponential in the
    /// retry count and capped.
    pub fn delay_before(&self, attempt: usize) -> Duration {
        if attempt == 0 || self.backoff.is_zero() {
            return Duration::ZERO;
        }
        let doublings = u32::try_from(attempt - 1).unwrap_or(u32::MAX).min(20);
        let factor = 1u32 << doublings;
        self.backoff
            .checked_mul(factor)
            .unwrap_or(self.backoff_cap)
            .min(self.backoff_cap)
    }
}

/// Why one supervised task ultimately failed (the error of its *last*
/// attempt).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TaskError<E> {
    /// The task closure returned an error.
    Failed(E),
    /// The task closure panicked; the payload's message is preserved.
    /// Contained by the supervisor — a panicking task never aborts the
    /// caller.
    Panicked(String),
    /// The attempt outlived [`RetryPolicy::attempt_timeout`]: the
    /// watchdog tripped the attempt's [`CancelToken`] and the closure
    /// returned an error afterwards.  (A closure that returns `Ok` after
    /// its token trips is still a success — it finished the work.)
    TimedOut {
        /// The timeout that expired.
        after: Duration,
    },
}

impl<E: std::fmt::Display> std::fmt::Display for TaskError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::Failed(e) => write!(f, "{e}"),
            TaskError::Panicked(msg) => write!(f, "task panicked: {msg}"),
            TaskError::TimedOut { after } => {
                write!(f, "attempt exceeded its {:?} timeout", after)
            }
        }
    }
}

/// One launch attempt under [`supervise`]: which attempt, and its
/// cancellation token (fresh per attempt).
#[derive(Clone, Debug)]
pub struct SupervisedAttempt {
    /// The attempt number, `0..policy.attempts`.
    pub attempt: usize,
    /// Tripped by the watchdog when the attempt outlives its timeout;
    /// the closure should poll it at yield points and abandon the work
    /// (killing any child process it spawned).
    pub cancel: CancelToken,
}

/// Best-effort extraction of a human-readable message from a panic
/// payload (`&str` and `String` payloads cover `panic!`, `assert!`,
/// `unwrap`, and friends).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(msg) = payload.downcast_ref::<&str>() {
        (*msg).to_string()
    } else if let Some(msg) = payload.downcast_ref::<String>() {
        msg.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `attempt()` with an optional watchdog: if the attempt is still
/// running when `timeout` expires, `cancel` is tripped (the attempt is
/// *not* abandoned — scoped threads always join — but cooperative work
/// observes the token and returns).
fn with_watchdog<R>(
    timeout: Option<Duration>,
    cancel: &CancelToken,
    attempt: impl FnOnce() -> R,
) -> R {
    let Some(timeout) = timeout else {
        return attempt();
    };
    // The watcher waits on a channel nothing is ever sent on: dropping
    // the sender — when the attempt returns, or unwinds — wakes it early.
    let (finished, watch) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            if watch.recv_timeout(timeout) == Err(mpsc::RecvTimeoutError::Timeout) {
                cancel.cancel();
            }
        });
        let result = attempt();
        drop(finished);
        result
    })
}

/// Runs one fallible task under a [`RetryPolicy`] on the calling thread
/// and returns the value of its first successful attempt, or the
/// [`TaskError`] of the *last* failed one.
///
/// This is the workspace's process-orchestration idiom: the distributed
/// explorer runs every worker launch inside it, on a thread of the
/// launch's own, where "failure" covers a non-zero exit, an export file
/// that fails validation, a hung attempt (timeout), or a panicking launch
/// closure.
///
/// Fault containment:
///
/// * a **panic** in the task closure is caught and recorded as
///   [`TaskError::Panicked`] for that attempt — retryable like any
///   failure, and never propagated to the caller;
/// * a **hung** attempt is detected by the per-attempt watchdog
///   ([`RetryPolicy::attempt_timeout`]): the attempt's [`CancelToken`]
///   trips, and once the closure observes it and returns, the attempt is
///   recorded as [`TaskError::TimedOut`].  The closure *must* poll the
///   token at its yield points for this to terminate — the supervisor
///   cannot abandon a scoped thread;
/// * **retries back off deterministically** per
///   [`RetryPolicy::delay_before`].
///
/// # Panics
///
/// Panics if `policy.attempts == 0` (a task needs at least one launch).
pub fn supervise<T, E>(
    policy: &RetryPolicy,
    mut run: impl FnMut(&SupervisedAttempt) -> Result<T, E>,
) -> Result<T, TaskError<E>> {
    assert!(policy.attempts >= 1, "a task needs at least one attempt");
    let mut attempt = 0;
    loop {
        let delay = policy.delay_before(attempt);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        let ctx = SupervisedAttempt {
            attempt,
            cancel: CancelToken::new(),
        };
        let outcome = with_watchdog(policy.attempt_timeout, &ctx.cancel, || {
            catch_unwind(AssertUnwindSafe(|| run(&ctx)))
        });
        let error = match outcome {
            Ok(Ok(value)) => return Ok(value),
            Ok(Err(e)) => match policy.attempt_timeout {
                Some(after) if ctx.cancel.is_cancelled() => TaskError::TimedOut { after },
                _ => TaskError::Failed(e),
            },
            Err(payload) => TaskError::Panicked(panic_message(payload)),
        };
        attempt += 1;
        if attempt == policy.attempts {
            return Err(error);
        }
    }
}

/// A closable multi-producer multi-consumer work injector.
///
/// Producers [`push`](Self::push) items; consumers block in
/// [`pop_wait`](Self::pop_wait) until an item arrives or the queue is
/// [`close`](Self::close)d (after which `pop_wait` returns `None`
/// immediately, *discarding* any leftover items — by construction a
/// closed exploration no longer needs them).
///
/// [`idle_workers`](Self::idle_workers) reports how many consumers are
/// currently parked in `pop_wait`, which is the work-sharing signal: a
/// busy walker donates subtrees only while somebody is actually idle, so
/// donation cost is bounded by the number of workers rather than the size
/// of the search space.
pub struct WorkQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
    idle: AtomicUsize,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> Default for WorkQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> WorkQueue<T> {
    /// An empty, open queue.
    pub fn new() -> Self {
        WorkQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            idle: AtomicUsize::new(0),
        }
    }

    /// Consumers currently blocked in [`pop_wait`](Self::pop_wait).
    pub fn idle_workers(&self) -> usize {
        self.idle.load(Ordering::Relaxed)
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("work queue poisoned").closed
    }

    /// Enqueues an item (no-op if the queue is already closed) and wakes
    /// one idle consumer.
    pub fn push(&self, item: T) {
        let mut state = self.state.lock().expect("work queue poisoned");
        if state.closed {
            return;
        }
        state.items.push_back(item);
        drop(state);
        self.ready.notify_one();
    }

    /// Blocks until an item is available (returning it) or the queue is
    /// closed (returning `None`).
    pub fn pop_wait(&self) -> Option<T> {
        let mut state = self.state.lock().expect("work queue poisoned");
        loop {
            if state.closed {
                return None;
            }
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            self.idle.fetch_add(1, Ordering::Relaxed);
            let result = self.ready.wait(state);
            self.idle.fetch_sub(1, Ordering::Relaxed);
            state = result.expect("work queue poisoned");
        }
    }

    /// Closes the queue: all parked consumers wake and drain to `None`,
    /// and leftover items are dropped.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("work queue poisoned");
        state.closed = true;
        state.items.clear();
        drop(state);
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Instant;

    /// `count` tasks, each under [`supervise`] on a scoped thread of its
    /// own — the way the distributed coordinator runs its launches.
    fn supervise_each<E: Send>(
        count: usize,
        policy: &RetryPolicy,
        run: impl Fn(usize, &SupervisedAttempt) -> Result<(), E> + Sync,
    ) -> Vec<Result<(), TaskError<E>>> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..count)
                .map(|index| {
                    let run = &run;
                    scope.spawn(move || supervise(policy, |task| run(index, task)))
                })
                .collect();
            let joined = handles.into_iter().map(|h| h.join().expect("contained"));
            joined.collect()
        })
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn clamp_threads_caps_absurd_values_loudly() {
        let (threads, warning) = clamp_threads(10_000);
        assert_eq!(threads, MAX_THREADS);
        assert!(warning.expect("clamping warns").contains("10000"));
        // The cap itself is accepted silently.
        assert_eq!(clamp_threads(MAX_THREADS), (MAX_THREADS, None));
        assert_eq!(clamp_threads(8), (8, None));
    }

    /// The env-knob policy, once, through the `TWOSTEP_THREADS` row (the
    /// model checker's table test runs the other nine variables through
    /// the same `resolve`): unset is the default and silent, garbage is
    /// the default plus a warning naming variable and value, a valid
    /// value is honored.
    #[test]
    fn threads_knob_follows_the_env_policy() {
        assert_eq!(THREADS.resolve(None), (None, None));
        assert_eq!(THREADS.resolve(Some("  8 ")), (Some(8), None));
        assert_eq!(THREADS.resolve(Some("1")), (Some(1), None));
        for garbage in ["0", "not-a-number", "-3", ""] {
            let (threads, warning) = THREADS.resolve(Some(garbage));
            assert_eq!(threads, None, "{garbage:?} falls back");
            let warning = warning.expect("garbage must warn, not be silently ignored");
            assert!(warning.contains("TWOSTEP_THREADS"), "{warning}");
            assert!(warning.contains(&format!("{garbage:?}")), "{warning}");
        }
    }

    #[test]
    fn run_on_workers_covers_all_indexes() {
        let seen = Mutex::new(Vec::new());
        run_on_workers(4, |idx| seen.lock().unwrap().push(idx));
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn run_on_workers_single_runs_inline() {
        let caller = std::thread::current().id();
        run_on_workers(1, |idx| {
            assert_eq!(idx, 0);
            assert_eq!(std::thread::current().id(), caller);
        });
    }

    #[test]
    fn supervised_tasks_retry_until_success() {
        // Task 1 fails its first two attempts, then succeeds; the others
        // succeed immediately.  Attempt numbers must be sequential.
        let attempts_seen = Mutex::new(Vec::new());
        let results = supervise_each(3, &RetryPolicy::new(3), |index, task| {
            attempts_seen.lock().unwrap().push((index, task.attempt));
            if index == 1 && task.attempt < 2 {
                Err(format!("task {} attempt {} died", index, task.attempt))
            } else {
                Ok(())
            }
        });
        assert!(results.iter().all(Result::is_ok), "{results:?}");
        let seen = attempts_seen.into_inner().unwrap();
        let task1: Vec<usize> = seen
            .iter()
            .filter(|(index, _)| *index == 1)
            .map(|&(_, attempt)| attempt)
            .collect();
        assert_eq!(task1, vec![0, 1, 2]);
        assert_eq!(seen.iter().filter(|(index, _)| *index == 0).count(), 1);
    }

    #[test]
    fn supervised_tasks_report_exhausted_task() {
        let results = supervise_each(2, &RetryPolicy::new(2), |index, _| {
            if index == 0 {
                Err("always dies")
            } else {
                Ok(())
            }
        });
        assert_eq!(results[0], Err(TaskError::Failed("always dies")));
        assert_eq!(results[1], Ok(()));
    }

    #[test]
    fn panicking_task_is_contained_and_retried() {
        // Regression for the old `handle.join().expect(...)`: a panic in
        // the task closure must surface as that task's retryable failure,
        // not abort the scheduler.  Task 0 panics once, then succeeds.
        let results = supervise_each(2, &RetryPolicy::new(2), |index, task| {
            if index == 0 && task.attempt == 0 {
                panic!("injected panic on attempt {}", task.attempt);
            }
            Ok::<(), String>(())
        });
        assert_eq!(results, vec![Ok(()), Ok(())]);
    }

    #[test]
    fn always_panicking_task_reports_panicked_without_aborting_siblings() {
        let results = supervise_each(3, &RetryPolicy::new(2), |index, _| {
            if index == 1 {
                panic!("task 1 always panics");
            }
            Ok::<(), String>(())
        });
        assert_eq!(results[0], Ok(()));
        assert_eq!(results[2], Ok(()));
        match &results[1] {
            Err(TaskError::Panicked(msg)) => {
                assert!(msg.contains("task 1 always panics"), "{msg}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_capped() {
        let policy = RetryPolicy {
            attempts: 6,
            backoff: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(35),
            attempt_timeout: None,
        };
        let delays: Vec<Duration> = (0..5).map(|a| policy.delay_before(a)).collect();
        assert_eq!(
            delays,
            vec![
                Duration::ZERO,
                Duration::from_millis(10),
                Duration::from_millis(20),
                Duration::from_millis(35),
                Duration::from_millis(35),
            ]
        );
        // Zero base backoff disables the sleep entirely.
        assert_eq!(RetryPolicy::new(5).delay_before(4), Duration::ZERO);
        // Absurd attempt numbers must not overflow.
        assert_eq!(policy.delay_before(10_000), Duration::from_millis(35));
    }

    #[test]
    fn watchdog_trips_cancel_and_classifies_timeout() {
        let policy = RetryPolicy {
            attempts: 1,
            backoff: Duration::ZERO,
            backoff_cap: Duration::ZERO,
            attempt_timeout: Some(Duration::from_millis(40)),
        };
        let started = Instant::now();
        let results = supervise_each(1, &policy, |_, ctx| {
            // A cooperative "hang": spins until the watchdog trips the
            // token, then reports failure.  The hard cap keeps the test
            // from wedging if the watchdog never fires.
            let hung_at = Instant::now();
            while !ctx.cancel.is_cancelled() {
                if hung_at.elapsed() > Duration::from_secs(30) {
                    return Err("watchdog never fired".to_string());
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err("killed".to_string())
        });
        assert_eq!(
            results[0],
            Err(TaskError::TimedOut {
                after: Duration::from_millis(40)
            })
        );
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "hang must be detected by the watchdog, not by the hard cap"
        );
    }

    #[test]
    fn timed_out_attempt_is_retried_with_fresh_token() {
        let policy = RetryPolicy {
            attempts: 2,
            backoff: Duration::ZERO,
            backoff_cap: Duration::ZERO,
            attempt_timeout: Some(Duration::from_millis(40)),
        };
        let results = supervise_each(1, &policy, |_, ctx| {
            if ctx.attempt == 0 {
                // Hang until cancelled.
                let hung_at = Instant::now();
                while !ctx.cancel.is_cancelled() {
                    if hung_at.elapsed() > Duration::from_secs(30) {
                        return Err("watchdog never fired".to_string());
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                return Err("killed".to_string());
            }
            // The retry's token must be fresh, not inherited tripped.
            assert!(!ctx.cancel.is_cancelled(), "retry saw a tripped token");
            Ok(())
        });
        assert_eq!(results, vec![Ok(())]);
    }

    #[test]
    fn successful_attempt_after_cancel_still_counts_as_success() {
        // A closure that finishes the work just as the watchdog fires
        // must not have its completed work discarded.
        let policy = RetryPolicy {
            attempts: 1,
            backoff: Duration::ZERO,
            backoff_cap: Duration::ZERO,
            attempt_timeout: Some(Duration::from_millis(5)),
        };
        let results = supervise_each(1, &policy, |_, ctx| {
            while !ctx.cancel.is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok::<(), String>(())
        });
        assert_eq!(results, vec![Ok(())]);
    }

    #[test]
    fn queue_hands_items_to_consumers() {
        let queue: WorkQueue<u64> = WorkQueue::new();
        let sum = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    while let Some(v) = queue.pop_wait() {
                        sum.fetch_add(v, Ordering::Relaxed);
                    }
                });
            }
            for v in 1..=100u64 {
                queue.push(v);
            }
            // Give consumers a moment to drain before closing.
            while sum.load(Ordering::Relaxed) < 5050 {
                std::thread::yield_now();
            }
            queue.close();
        });
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn close_wakes_parked_consumers() {
        let queue: WorkQueue<u64> = WorkQueue::new();
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| queue.pop_wait());
            while queue.idle_workers() == 0 {
                std::thread::yield_now();
            }
            queue.close();
            assert_eq!(handle.join().unwrap(), None);
        });
        assert!(queue.is_closed());
        queue.push(7); // no-op after close
        assert_eq!(queue.pop_wait(), None);
    }
}
