//! # twostep-runtime — the extended model on real threads
//!
//! The deterministic simulator (`twostep-sim`) is where proofs-by-testing
//! happen; this crate is the existence proof that the extended model runs
//! on a real shared-nothing substrate: **one OS thread per process**,
//! `std::sync::mpsc` channels as reliable LAN links, and a lockstep
//! coordinator that enforces the round structure (the role played by
//! synchronized clocks in an actual deployment).
//!
//! Fault injection preserves the paper's semantics exactly, by placing the
//! crash in the *sender's network shim*: a thread scheduled to crash in
//! stage `MidData{S}` transmits only the data messages to `S` and exits
//! before its control step; a `MidControl{k}` thread transmits all data
//! and the first `k` entries of its **ordered** control list.  Both reuse
//! `CrashStage::effect` from `twostep-model`, so the simulator, the
//! model checker and this runtime cannot drift apart.
//!
//! The integration suite runs the same protocol + schedule on the
//! simulator and on this runtime and asserts identical decisions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lockstep;

pub use lockstep::{RuntimeError, RuntimeReport, ThreadedRuntime};
