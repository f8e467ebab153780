//! # twostep-modelcheck — bounded exhaustive verification
//!
//! The paper's Section 5 lower bound is a bivalency proof: it argues over
//! *all* executions that uniform consensus cannot finish before round
//! `f+1` in the extended model.  A proof cannot be "run", but its content
//! can be regenerated mechanically for small systems: this crate explores
//! the **complete** execution space of a protocol under every admissible
//! crash adversary (arbitrary data subsets, ordered commit prefixes,
//! decide-then-die), verifies the uniform-consensus specification on every
//! terminal execution, and computes configuration **valency** round by
//! round.
//!
//! Highlights:
//!
//! * [`explore`] / [`explore_with`] — memoized DAG exploration with
//!   per-subtree [`Summary`]s (terminal counts, worst decision round per
//!   `f`, reachable decision values, violations); the engine is an
//!   iterative, work-sharing parallel walker over a sharded, optionally
//!   **two-tier (RAM + disk)** memo ([`ExploreOptions`] selects
//!   thread/shard counts and the [`MemoConfig`] tiering, `threads = 1`
//!   is the serial walk, and every option produces bit-identical
//!   reports).  Module [`explorer`] holds the engine's architecture and
//!   determinism argument and a map of what it is made of — `config`,
//!   `budget`, `report`, `canon` (key layouts, symmetry soundness),
//!   `round` (key-first successor generation), `walker`, `run` — each
//!   with its own argument at its head;
//! * [`MemoConfig`] / [`SpillCodec`] — the disk tier: a bounded hot map
//!   per shard plus append-only, checksummed segment files of compactly
//!   encoded cold entries — keys *and* summaries, indexed in RAM only by
//!   fixed-width hashes, written and read back a block at a time
//!   (module [`spill`]), so the reachable `(n, t)` is bounded by disk,
//!   not RAM;
//! * [`cache`] — persistent, fingerprinted memo segments with one
//!   manifest per directory: *seed* segments warm-start a run, *resume*
//!   segments let a suspended one finish ([`CheckpointConfig`] — a
//!   checkpoint directory is a cache directory), under one commit rule;
//! * one run spine — every engine opens a run the same way (deadline
//!   clock, fingerprint, seed then resume imports, all-or-nothing memo),
//!   differs only in the *work* that fills the memo, and finishes it the
//!   same way (root walk, report, one commit per directory);
//!   [`explore_with`] is the run with no work phase, and module [`dist`]
//!   adds the one that uses worker OS processes — one coordinator loop
//!   and one supervision rule under two plans, both bit-identical to the serial
//!   report with crashed workers validated out and retried:
//!   [`explore_partitioned_timed`] / [`run_worker`] hash-partition the
//!   depth-`d` frontier, and [`explore_elastic_timed`] /
//!   [`run_worker_elastic`] walk locally first, offload only when the
//!   run outlives [`StealConfig`]'s thresholds, and re-balance live by
//!   preempting loaded workers (steal-flag handshake, frontier
//!   re-split);
//! * [`Witness`] — concrete counterexample schedules, reconstructed when
//!   a violation exists (used by the commit-order ablation, where the
//!   ascending variant mechanically violates Theorem 1);
//! * [`RoundBound`] — the `f+1` / `min(f+2, t+1)` / `t+1` bounds as
//!   checkable predicates.
//!
//! Every answer is a walk of the whole execution space: the crate has no
//! sampling mode, because a sample can miss the worst execution and so
//! cannot prove a round bound.  Used by experiment **E5**
//! (`repro e5-lowerbound`) and by the cross-crate test suite to validate
//! every algorithm in the workspace over the full schedule space for
//! small `n`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod checkpoint;
pub mod dist;
pub mod explorer;
pub mod faults;
mod manifest;
pub mod memo;
pub mod spill;

pub use cache::{run_fingerprint, CacheConfig, CacheMode};
pub use checkpoint::CheckpointConfig;
pub use dist::{
    explore_elastic_in_process, explore_elastic_timed, explore_partitioned_in_process,
    explore_partitioned_timed, run_worker, run_worker_elastic, DistOptions, DistTimings,
    ElasticExit, ElasticStats, ElasticTask, StealConfig, SuperviseConfig, WorkerPulse,
    WorkerReport, WorkerTask,
};
pub use explorer::{
    explore, explore_with, BudgetKind, CheckableProtocol, ExploreConfig, ExploreError,
    ExploreOptions, ExploreReport, RoundBound, SpecMode, Summary, Symmetry, WalkBudget, Witness,
};
pub use faults::{install_io_fault, FaultPlan, IoFault, IoFaultGuard, WorkerFault, WorkerPhase};
pub use memo::MemoConfig;
pub use spill::{decode_summary, encode_summary, validate_segment_file, SpillCodec, SpillError};
