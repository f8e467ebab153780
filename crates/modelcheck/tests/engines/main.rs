//! Every engine returns the serial walk's report, byte for byte.
//!
//! One binary, one harness ([`kit`]): the engine matrix ([`matrix`])
//! runs each workload — CRW on the routine systems, the Theorem 3
//! adversary, the violating commit-order ablation, classic FloodSet —
//! on each engine — threads, spilling memos, the partitioned and the
//! forced-steal elastic plans — in both symmetry modes, plain or over a
//! cache, and holds every cell to the serial walk in the same mode:
//! root summary, distinct states, bivalency census and witness.  The
//! modules beside it test what one engine or one artifact adds:
//!
//! - [`symmetry`]: `partial+value` against `Off` — the quotient keeps
//!   the verdict and never adds a state;
//! - [`cache`]: fingerprints, foreign and damaged segments, healing,
//!   and a cache primed by one engine warming every other;
//! - [`checkpoint`]: resume chains under every budget, and suspensions
//!   whose writes fail;
//! - [`dist`]: workers killed, lying or never coming up, the scratch
//!   directory's lifetime, steal races, and re-splits by proptest;
//! - [`fault`]: the fault-plan grammar's worker faults, supervision
//!   under both plans, and torn coordinator writes.
//!
//! Run one module with
//! `cargo test -q --offline -p twostep-modelcheck --test engines fault::`.

mod cache;
mod checkpoint;
mod dist;
mod fault;
mod kit;
mod matrix;
mod symmetry;
