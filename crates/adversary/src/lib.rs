//! # twostep-adversary — adversary strategies for the extended model
//!
//! The paper's correctness claims quantify over *every* behaviour of a
//! crash adversary; its complexity claims are realized by *specific*
//! adversaries.  This crate supplies both sides:
//!
//! * [`worst_case`] — the coordinator-cascade families that realize the
//!   Theorem 1 round bound (`f+1`) and the Theorem 2 worst-case message
//!   counts;
//! * [`random`] — seed-deterministic random schedules and proposal vectors
//!   for property tests and large sweeps;
//! * [`enumerate`] — complete, duplicate-free enumeration of the crash
//!   outcomes against one process's send plan in one round, one per
//!   effect on the processes still active; the model checker in
//!   `twostep-modelcheck` branches on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod enumerate;
pub mod random;
pub mod worst_case;

pub use enumerate::{crash_outcome_count, crash_outcomes_effective_into};
pub use random::{
    random_binary_proposals, random_proposals, random_schedule, random_wide_proposals,
    RandomScheduleSpec,
};
pub use worst_case::{
    commit_tease_cascade, data_heavy_cascade, decide_then_die_cascade, leaky_first_coordinator,
    silent_cascade,
};
