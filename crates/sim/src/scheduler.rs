//! The workspace's one worker-scheduling idiom, shared by sweeps and the
//! model checker.
//!
//! Two pieces:
//!
//! * [`run_on_workers`] — fan a closure out over scoped `std::thread`
//!   workers, running worker 0 on the calling thread (so a single-worker
//!   run costs no spawn at all, and the caller's stack hosts the "primary"
//!   walker in parallel exploration);
//! * [`WorkQueue`] — a closable MPMC injector with idle-worker accounting,
//!   the channel through which busy explorer walkers *share* unexplored
//!   subtrees with idle ones.
//!
//! Beside them sit [`CancelToken`], the cooperative stop signal a
//! supervisor hands the work it watches, and [`panic_message`], which
//! reads a caught panic's payload.
//!
//! Thread-count policy lives in [`default_threads`]: the machine's
//! available parallelism, which every parallel facility in the workspace
//! that is not handed an explicit count resolves through this one
//! function.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Number of worker threads to use by default: the machine's available
/// parallelism, or 1 if it is not known.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
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

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
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
        queue.push(7); // no-op after close
        assert_eq!(queue.pop_wait(), None);
    }
}
