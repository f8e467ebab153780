//! One module per experiment; each module's header names the paper
//! claim it checks and its workload, and `repro`'s usage text
//! (`crates/bench/src/bin/repro.rs`) is the index of regenerating
//! targets.

pub mod ablation;
pub mod e1;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
pub mod fig1;
