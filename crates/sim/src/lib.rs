//! # twostep-sim — the deterministic synchronous round simulator
//!
//! This crate executes round-based protocols under the **extended**
//! synchronous model of Cao–Raynal–Wang–Wu (ICPP 2006) — data messages plus
//! pipelined, ordered one-bit control messages — and, by suppressing the
//! control step, under the **classic** synchronous model.  It is the
//! substrate every algorithm in the workspace runs on:
//!
//! * [`SyncProtocol`] / [`SendPlan`] / [`Inbox`] — the protocol interface
//!   (module [`protocol`]);
//! * [`Stepper`] / [`Simulation`] — round-at-a-time and whole-run engines
//!   enforcing the paper's crash semantics: arbitrary data subsets, ordered
//!   control prefixes, decide-then-crash (module [`engine`]);
//! * [`check_uniform_consensus`] — the consensus specification as a
//!   post-hoc checker (module [`spec`]);
//! * [`Trace`] — optional event recording (module [`trace`]);
//! * [`par_map`] / [`Sweeper`] — parallel parameter sweeps (module
//!   [`sweep`]);
//! * [`run_on_workers`] / [`WorkQueue`] / [`default_threads`] — the
//!   workspace-wide worker scheduler and work-sharing injector (module
//!   [`scheduler`]), shared by sweeps and the exhaustive explorer and
//!   honoring the `TWOSTEP_THREADS` env override;
//! * [`EnvKnob`] — the one warn-once policy every `TWOSTEP_*` environment
//!   variable in the workspace resolves through.
//!
//! The engine is fully deterministic: given the same protocol states and
//! the same [`CrashSchedule`](twostep_model::CrashSchedule), it produces
//! the same run, bit for bit.  All randomness lives in workload generators
//! (crate `twostep-adversary`) behind explicit seeds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
mod env;
pub mod protocol;
pub mod scheduler;
pub mod spec;
pub mod stats;
pub mod sweep;
pub mod trace;

pub use engine::{
    Decision, ModelKind, PlanShape, ProcStatus, RoundActions, RoundView, RunReport, SentRound,
    SettledProcess, SimError, Simulation, Stepper,
};
pub use env::EnvKnob;
pub use protocol::{Inbox, SendPlan, Step, SyncProtocol};
pub use scheduler::{
    default_threads, panic_message, run_on_workers, supervise, CancelToken, RetryPolicy,
    SupervisedAttempt, TaskError, WorkQueue, MAX_THREADS,
};
pub use spec::{check_uniform_consensus, SpecReport, SpecViolation};
pub use stats::{Histogram, Summary};
pub use sweep::{par_map, Sweeper};
pub use trace::{Event, Trace, TraceLevel};
