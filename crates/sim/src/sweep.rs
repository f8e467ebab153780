//! Parallel parameter sweeps.
//!
//! Experiments routinely evaluate thousands of `(n, f, seed)` cells, each
//! an independent deterministic simulation — an embarrassingly parallel
//! workload.  [`par_map`] fans the cells out over the workspace-wide
//! scoped-worker scheduler ([`crate::scheduler::run_on_workers`], also
//! used by the exhaustive explorer) with dynamic (atomic-counter)
//! scheduling, without pulling a thread-pool dependency into the
//! workspace.  Callers that pick no worker count pass
//! [`default_threads`](crate::default_threads), the machine's available
//! parallelism.
//!
//! Results come back **in input order** regardless of completion order, so
//! sweep output is deterministic and directly zippable with the inputs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::scheduler::run_on_workers;

/// Applies `f` to every item on `threads` workers, returning results in
/// input order.
///
/// `f` receives `(index, &item)` so workloads can mix the position into
/// seeds.  Items are claimed dynamically one at a time, which balances
/// skewed workloads (e.g. exhaustive exploration cells next to trivial
/// ones); per-item work in the experiments is large enough that counter
/// contention is negligible.
///
/// # Examples
///
/// ```
/// use twostep_sim::par_map;
///
/// let seeds: Vec<u64> = (0..100).collect();
/// let out = par_map(&seeds, 4, |idx, seed| seed * 2 + idx as u64);
/// assert_eq!(out[10], 30); // input order preserved
/// ```
///
/// # Panics
///
/// Panics if a worker panics (the panic is propagated).
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1);
    if items.is_empty() {
        return Vec::new();
    }
    if threads == 1 || items.len() == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let slots = Mutex::new(slots);

    run_on_workers(threads.min(items.len()), |_| {
        // Collect locally, publish once at the end: one lock per
        // worker instead of one per item.
        let mut local: Vec<(usize, R)> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            local.push((i, f(i, &items[i])));
        }
        let mut slots = slots.lock().expect("sweep result mutex poisoned");
        for (i, r) in local {
            slots[i] = Some(r);
        }
    });

    slots
        .into_inner()
        .expect("sweep result mutex poisoned")
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn empty_input() {
        let out: Vec<u64> = par_map(&[] as &[u64], 4, |_, x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, 8, |_, x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn index_matches_item_position() {
        let items: Vec<u64> = (10..30).collect();
        let out = par_map(&items, 3, |i, x| (i, *x));
        for (i, (idx, val)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*val, items[i]);
        }
    }

    #[test]
    fn single_thread_path() {
        let items = [1u64, 2, 3];
        let out = par_map(&items, 1, |_, x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let count = AtomicU64::new(0);
        let items: Vec<u32> = (0..500).collect();
        let _ = par_map(&items, 7, |_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 500);
    }
}
