//! LAN config-commit: the paper's target deployment, on real threads.
//!
//! ```sh
//! cargo run --example lan_commit
//! ```
//!
//! A small cluster (one OS thread per node, `std::sync::mpsc` channels as
//! the reliable LAN) must agree on which configuration epoch to commit.  The
//! primary (`p_1`) pushes its epoch and crashes halfway through its commit
//! sequence; the run shows prefix delivery, value locking, and takeover —
//! and the threaded result is compared against the deterministic simulator
//! for the same schedule.

use twostep::prelude::*;
use twostep::runtime::ThreadedRuntime;

fn main() {
    let n = 6;
    let config = SystemConfig::new(n, 2).expect("valid");
    // Each node proposes "its" config epoch; consensus picks one for all.
    let proposals: Vec<u64> = vec![42, 17, 17, 23, 17, 8];

    // The primary crashes after committing to the top two replicas only.
    let schedule = CrashSchedule::none(n).with_crash(
        ProcessId::new(1),
        CrashPoint::new(Round::FIRST, CrashStage::MidControl { prefix_len: 2 }),
    );

    println!("cluster of {n} nodes, epochs proposed: {proposals:?}");
    println!("primary p1 crashes mid-commit (prefix 2)\n");

    // --- Real threads.
    let threaded = ThreadedRuntime::new(config, &schedule)
        .run(crw_processes(&config, &proposals))
        .expect("threaded run");
    println!("threaded runtime:");
    for (i, d) in threaded.decisions.iter().enumerate() {
        match d {
            Some(d) => println!(
                "  node {} commits epoch {} (round {})",
                i + 1,
                d.value,
                d.round
            ),
            None => println!("  node {} crashed undecided", i + 1),
        }
    }
    println!(
        "  traffic: {} data + {} commit messages",
        threaded.metrics.data_messages, threaded.metrics.control_messages
    );

    // --- Deterministic simulator, same schedule.
    let simulated = run_crw(&config, &schedule, &proposals, TraceLevel::Off).unwrap();

    // Identical decisions, thread scheduling notwithstanding: the lockstep
    // protocol + the model's crash semantics fully determine the outcome.
    for i in 0..n {
        let a = threaded.decisions[i].as_ref().map(|d| (d.value, d.round));
        let b = simulated.decisions[i].as_ref().map(|d| (d.value, d.round));
        assert_eq!(a, b, "node {} differs between runtime and simulator", i + 1);
    }
    println!("\nthreaded decisions == simulator decisions, message for message.");

    let spec = check_uniform_consensus(&proposals, &threaded.decisions, &schedule, Some(2));
    assert!(spec.ok(), "{spec}");
    println!("uniform consensus verified: {spec}");
    println!("\nthe committed epoch is p1's 42 — locked by its completed data step");
    println!("even though p1 died before finishing its commit sequence.");
}
