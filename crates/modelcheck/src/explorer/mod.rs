//! Bounded exhaustive exploration of a protocol's execution space — as a
//! parallel, work-sharing, sharded-memo model-checking engine.
//!
//! The explorer walks **every** execution of a round-based protocol under
//! the extended (or classic) model for a given `(n, t)`: at each round the
//! adversary may crash any subset of the live processes (within the
//! remaining budget), and each crash takes one of the *distinct* outcomes
//! enumerated by [`twostep_adversary::crash_outcomes_effective_into`]
//! against that process's concrete send plan — arbitrary data subsets,
//! ordered commit prefixes, end-of-round death — one per effect on the
//! processes still active.
//!
//! Identical configurations reached along different paths are merged: the
//! execution space is a DAG, and each node's subtree is summarized once
//! ([`Summary`]) and memoized.  A summary carries
//!
//! * how many terminal executions the subtree contains,
//! * the worst last-decision round per total crash count `f` (the Theorem
//!   1 / Theorem 4 quantity),
//! * the set of values decidable in the subtree (the **valency** of the
//!   configuration, the engine of the paper's Section 5 bivalency
//!   argument),
//! * whether any terminal violates the uniform-consensus spec.
//!
//! This regenerates the paper's lower-bound content mechanically for small
//! `n`: over all executions with `f` crashes the worst decision round is
//! exactly `f+1`, and bivalent configurations persist until the adversary's
//! budget is spent.
//!
//! ## Engine architecture
//!
//! The walk is **iterative** — an explicit frame stack per walker, so the
//! reachable depth is bounded by memory, not the OS stack — and
//! **parallel** with [`ExploreOptions::threads`] workers:
//!
//! * the memo table is split into [`ExploreOptions::shards`] hash-sharded
//!   `RwLock` shards, each a hot table over a key arena ([`Summary`]s
//!   behind `Arc`s) plus a spill index (`crate::memo`'s head), so
//!   concurrent walkers contend on `1/shards` of the table instead of
//!   one lock, and a hit takes only the read lock;
//! * each shard is optionally **two-tier** ([`crate::MemoConfig`]): a
//!   bounded hot map of live entries plus an append-only on-disk segment
//!   file of cold ones — full keys *and* summaries, checksummed — evicted in
//!   clock (second-chance) order and addressed by an in-memory index of
//!   fixed-width hashed keys.  A lookup that misses the hot tier
//!   rehydrates candidate records ([`crate::spill`]) from disk, verifies
//!   the decoded key against the probe, and promotes the match back, so
//!   `max_states` bounds *distinct* configurations — no longer resident
//!   RAM, not even for the keys;
//! * workers share work dynamically through a
//!   [`twostep_sim::WorkQueue`] injector: whenever a busy walker expands a
//!   configuration while some worker is idle, it donates child subtrees
//!   (tail-first — the ones it would reach last) to the queue.  Stealing
//!   walkers explore those subtrees into the shared memo and discard the
//!   local result; the primary walker later finds them memoized.  The
//!   depth-aware policy [`ExploreOptions::donate_depth`] optionally
//!   confines donation to shallow rounds, where subtrees are still big
//!   enough to repay the handoff;
//! * worker 0 — the **primary** walker, running on the calling thread via
//!   [`twostep_sim::run_on_workers`] — performs the canonical root walk
//!   (or, for a distributed worker, the canonical walk of each assigned
//!   subtree root in order — the core is root-agnostic).
//!
//! ## Determinism argument
//!
//! Results are **bit-identical** to the serial (`threads = 1`) walk.  The
//! primary walker expands every configuration's children in the fixed
//! enumeration order and absorbs their summaries in that order, exactly as
//! the serial walk does; whether a child summary was computed locally or
//! arrived via the memo from a stealer is unobservable, because each
//! subtree summary is itself the result of the same deterministic
//! child-order merge wherever it is computed, and merged summaries don't
//! depend on *when* they were computed.  Duplicate in-flight work (two
//! workers racing on one subtree) produces identical `Arc<Summary>`
//! values; the first insert wins and the count of distinct states is
//! key-set cardinality, not insert attempts — so `distinct_states`, the
//! per-round census, the root summary, and witness reconstruction all
//! match the serial walk byte for byte.
//!
//! The two-tier memo preserves this argument wholesale: spilling changes
//! only where an entry *resides*, never whether a key is memoized — a
//! `get` answers exactly as the all-RAM map would (rehydrating from disk
//! on a cold hit, full-key-verified), and `distinct_states` still counts
//! fresh insertions.  Reports are therefore bit-identical
//! spill-vs-no-spill at any `hot_capacity` and any thread count
//! (every engine row of `tests/engines/matrix.rs` runs a spilling memo
//! beside the all-RAM serial walk).
//!
//! One carve-out: the `max_states` budget is a **resource safety valve**,
//! not part of the deterministic result.  Whenever the budget is not
//! exhausted (it is at least the number of distinct reachable
//! configurations), no engine configuration can abort — a fresh memo miss
//! with the count already at the budget would require more distinct
//! states than exist — and every engine returns the identical report.
//! When the space genuinely overflows the budget, *which* configuration
//! trips [`ExploreError::StateLimit`] depends on timing (and was always
//! approximate: the pre-parallel recursive walk checked the budget only
//! on node entry, never on the inserts performed while unwinding).
//!
//! ## Module map
//!
//! A dependency chain — no module uses one below it — each holding the
//! argument for what it does at its own head:
//!
//! * `config` — what to explore and how: [`ExploreConfig`],
//!   [`ExploreOptions`], [`WalkBudget`], [`Symmetry`] and the plan a run
//!   resolves it to;
//! * `budget` — the driver protocol of the frame-stepped core: step
//!   results, arbiters, [`BudgetKind`];
//! * `report` — [`ExploreError`], [`Summary`], [`ExploreReport`],
//!   [`Witness`], the evaluation of one terminal configuration, and
//!   the walker's summary interner;
//! * `canon` — key layouts: the raw key and the canonical one, with
//!   the symmetry quotient's soundness argument;
//! * `round` — one configuration's open round: the odometer over its
//!   adversary moves, the key records, and the class, orbit and block
//!   tables key-first successor generation answers from, private to it
//!   (the tests that read them are its child `round/tests.rs`);
//! * `walker` — the DFS itself, a step at a time, and the state its
//!   walkers share (abort protocol included);
//! * `run` — the run spine (open → work → finish) every engine shares,
//!   the budgeted and the elastic driver, witness reconstruction.
//!
//! [`crate::dist`] sits after `run`: its coordinators open and finish a
//! run and fill the memo in between.

mod budget;
mod canon;
mod config;
mod report;
mod round;
mod run;
mod walker;

use std::hash::Hash;

use twostep_model::SystemConfig;

use crate::spill::SpillCodec;

pub use budget::BudgetKind;
pub use config::{
    CheckableProtocol, ExploreConfig, ExploreOptions, RoundBound, SpecMode, Symmetry, WalkBudget,
};
pub(crate) use report::SummaryInterner;
pub use report::{ExploreError, ExploreReport, Summary, Witness};
pub(crate) use run::{
    drive_elastic, walk_roots, ElasticOutcome, ElasticPulse, ElasticVerdict, PathedRoot, Run,
    WalkOutcome,
};
pub(crate) use walker::{Interrupt, Shared, Walker};

/// Exhaustively explores `initial` under every admissible adversary, with
/// the **serial** engine (`ExploreOptions::serial()`).
///
/// `proposals[i]` must be the value `p_{i+1}` proposed (for the validity
/// check).  See [`ExploreConfig`] for limits and [`explore_with`] for the
/// parallel engine (which produces the identical report faster).
///
/// # Examples
///
/// Verifying the paper's algorithm over the complete adversary space of a
/// 3-process system — every crash subset, every data-delivery subset,
/// every commit prefix — and reading off the exact Theorem 1/4 worst case:
///
/// ```
/// use twostep_core::crw_processes;
/// use twostep_model::{SystemConfig, WideValue};
/// use twostep_modelcheck::{SpecMode, explore, ExploreConfig};
///
/// let system = SystemConfig::new(3, 2).unwrap();
/// let proposals: Vec<WideValue> =
///     (0..3).map(|i| WideValue::new(1, i as u64 % 2)).collect();
/// let report = explore(
///     system,
///     ExploreConfig::for_crw(&system),
///     crw_processes(&system, &proposals),
///     proposals,
/// )
/// .unwrap();
///
/// assert!(!report.root.violating);                     // spec holds everywhere
/// assert_eq!(report.root.worst_round_by_f[2], Some(3)); // worst = f+1, exactly
/// assert!(report.root.is_bivalent());                  // §5's starting point
/// ```
pub fn explore<P>(
    system: SystemConfig,
    config: ExploreConfig,
    initial: Vec<P>,
    proposals: Vec<P::Output>,
) -> Result<ExploreReport<P::Output>, ExploreError>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    explore_with(system, config, ExploreOptions::serial(), initial, proposals)
}

/// Exhaustively explores `initial` under every admissible adversary with
/// an explicit engine configuration.
///
/// The report is bit-identical for every [`ExploreOptions`]; `threads > 1`
/// only changes how fast it is produced.
///
/// # Examples
///
/// ```
/// use twostep_core::crw_processes;
/// use twostep_model::{SystemConfig, WideValue};
/// use twostep_modelcheck::{explore_with, ExploreConfig, ExploreOptions};
///
/// let system = SystemConfig::new(3, 2).unwrap();
/// let proposals: Vec<WideValue> =
///     (0..3).map(|i| WideValue::new(1, i as u64 % 2)).collect();
/// let parallel = explore_with(
///     system,
///     ExploreConfig::for_crw(&system),
///     ExploreOptions::with_threads(4),
///     crw_processes(&system, &proposals),
///     proposals.clone(),
/// )
/// .unwrap();
/// assert!(!parallel.root.violating);
/// assert_eq!(parallel.root.worst_round_by_f[2], Some(3));
/// ```
pub fn explore_with<P>(
    system: SystemConfig,
    config: ExploreConfig,
    options: ExploreOptions,
    initial: Vec<P>,
    proposals: Vec<P::Output>,
) -> Result<ExploreReport<P::Output>, ExploreError>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    // The zero-worker run: open, no work phase, finish.
    Run::open(
        system,
        config,
        &options,
        options.cache.clone(),
        &proposals,
        initial,
    )?
    .finish()
    .map(|(report, ..)| report)
}

#[cfg(test)]
mod testkit;
#[cfg(test)]
mod tests;
