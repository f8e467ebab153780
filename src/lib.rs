//! # twostep — synchronous agreement with pipelined synchronization messages
//!
//! A production-quality reproduction of *"The Power and Limit of Adding
//! Synchronization Messages for Synchronous Agreement"* (Jiannong Cao,
//! Michel Raynal, Xianbing Wang, Weigang Wu — ICPP 2006).
//!
//! The paper extends the round-based synchronous model with a second,
//! pipelined sending step: after its data messages, a process may emit
//! one-bit *synchronization* (commit) messages to an **ordered** list of
//! destinations; a crash delivers an ordered *prefix*.  On this model a
//! strikingly simple rotating-coordinator algorithm solves **uniform
//! consensus in `f+1` rounds** (`f` = actual crashes) — one round when the
//! first coordinator is healthy — beating the classic model's
//! `min(f+2, t+1)` bound, and `f+1` is optimal for the extended model.
//!
//! ## Crate map
//!
//! | concern | crate |
//! |---|---|
//! | foundation types, fault model, Theorem 2 forms, §2.2 timing | [`model`] |
//! | deterministic round engine (extended + classic), spec checker, sweeps | [`sim`] |
//! | **the paper's algorithm** (Figure 1) + §2.2 transformations | [`core`] |
//! | classic/timed baselines: FloodSet, early-stopping, fast-FD, interactive consistency | [`baselines`] |
//! | discrete-event timed kernel (delays, crashes, FD oracles, FIFO links) | [`events`] |
//! | MR99 + CT96 asynchronous ◇S consensus (§4 bridge) | [`asynch`] |
//! | adversaries: worst-case cascades, random schedules, enumerators | [`adversary`] |
//! | exhaustive model checker + valency analysis (§5 lower bound) | [`modelcheck`] |
//! | threaded lockstep runtime (threads + channels) | [`runtime`] |
//! | Chandy–Lamport snapshots — §1's synchronization-message exemplar | [`snapshot`] |
//!
//! ## Quickstart
//!
//! ```
//! use twostep::prelude::*;
//!
//! let config = SystemConfig::new(5, 2).unwrap();     // n = 5, tolerate 2
//! let schedule = CrashSchedule::none(5);              // failure-free run
//! let proposals = vec![7u64, 3, 9, 1, 5];
//! let report = run_crw(&config, &schedule, &proposals, TraceLevel::Off).unwrap();
//!
//! // One round, everyone decides the first coordinator's value.
//! for d in report.decisions.iter().flatten() {
//!     assert_eq!(d.value, 7);
//!     assert_eq!(d.round.get(), 1);
//! }
//! ```
//!
//! See `examples/` for crash storms, the threaded runtime, the MR99
//! bridge, the exhaustive lower bound, and the §2.2 cost model; run
//! `cargo run -p twostep-bench --bin repro -- all` to regenerate every
//! table of the paper's claims (`repro`'s usage text,
//! `crates/bench/src/bin/repro.rs`, lists them).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use twostep_adversary as adversary;
pub use twostep_asynch as asynch;
pub use twostep_baselines as baselines;
pub use twostep_core as core;
pub use twostep_events as events;
pub use twostep_model as model;
pub use twostep_modelcheck as modelcheck;
pub use twostep_runtime as runtime;
pub use twostep_sim as sim;
pub use twostep_snapshot as snapshot;

/// The working set for typical use: configuration, schedules, the
/// algorithm, the engine, and the spec checker.
pub mod prelude {
    pub use twostep_core::{
        check_value_locking, coordinator_of, crw_processes, run_crw, CommitOrder, Crw,
        ReplicatedLog,
    };
    pub use twostep_model::{
        format_schedule, parse_schedule, BitSized, CrashPoint, CrashSchedule, CrashStage, PidSet,
        ProcessId, Round, RunMetrics, SystemConfig, TimingModel, WideValue,
    };
    pub use twostep_sim::{
        check_uniform_consensus, Decision, Inbox, ModelKind, SendPlan, Simulation, Step,
        SyncProtocol, TraceLevel,
    };
}
