//! Pins the spill tier's I/O granularity where the kernel counts it: a
//! serial CRW (6,5) walk keeping 64 states resident must issue at most
//! one read-or-write system call per spilled state.  Moving bytes record
//! by record costs at least five (three writes when a state is evicted,
//! two reads when the census visits it, two more per rehydrate); moving
//! them in blocks costs a small fraction of one.
//!
//! One test in a binary of its own, so `/proc/self/io` counts nothing but
//! this walk and the harness around it.

use twostep_core::crw_processes;
use twostep_model::{SystemConfig, WideValue};
use twostep_modelcheck::{explore_with, ExploreConfig, ExploreOptions, MemoConfig};

const HOT_CAPACITY: usize = 64;

/// `syscr + syscw` of this process so far — `None` where the kernel does
/// not say (not Linux, or `/proc/self/io` unreadable).
fn io_syscalls() -> Option<u64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let io = std::fs::read_to_string("/proc/self/io").ok()?;
    let field = |name: &str| -> Option<u64> {
        let line = io.lines().find_map(|l| l.strip_prefix(name))?;
        line.trim().parse().ok()
    };
    Some(field("syscr:")? + field("syscw:")?)
}

#[test]
fn spilling_walk_issues_at_most_one_io_syscall_per_spilled_state() {
    let Some(before) = io_syscalls() else {
        println!("skipped: no readable /proc/self/io on this target");
        return;
    };
    let (n, t) = (6usize, 5usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals: Vec<WideValue> = (0..n).map(|i| WideValue::new(1, (i % 2) as u64)).collect();
    let report = explore_with(
        system,
        ExploreConfig::for_crw(&system),
        ExploreOptions::serial().with_memo(MemoConfig::spill(HOT_CAPACITY)),
        crw_processes(&system, &proposals),
        proposals,
    )
    .unwrap();
    let issued = io_syscalls().expect("readable a moment ago") - before;
    assert_eq!(report.root.worst_round_by_f[t], Some(t as u32 + 1));
    let spilled = (report.distinct_states - HOT_CAPACITY) as u64;
    println!("{issued} read + write syscalls for {spilled} spilled states");
    assert!(
        issued <= spilled,
        "{issued} read + write syscalls for {spilled} spilled states: \
         the spill tier is moving records, not blocks"
    );
}
