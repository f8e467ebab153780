//! Hot-path allocation probe: runs the serial exhaustive CRW
//! exploration under a counting global allocator and reports total
//! heap allocations alongside best-of-6 distinct-states/sec — for the
//! one serial driver with its budget unarmed (`plain`) *and* with every
//! limit armed but sized never to trip (`armed`).
//!
//! This is the measurement harness behind the explorer's hot-path
//! budget ("the inner loop allocates nothing in steady state", 2.5
//! allocations per distinct state end to end at the default `(5, 4)`,
//! 1.7 at `(8, 7)` — a leaf costs its memo entry and nothing else): watch
//! `allocs_total` when touching the walker, the stepper fork path, or
//! the memo — a regression shows up here as thousands of extra
//! allocations long before it is visible in wall-clock noise.  The probe
//! *pins* both budgets: each row stays under 3 allocs/state, and the
//! armed row stays within 10% (+64 fixed) of the plain one — a `step()`
//! call's arbiter inspection, and the headroom it asks for before a run
//! of repeated rows, must not buy their bookkeeping with heap traffic.  A
//! third row walks the same space under `partial+value` and is pinned to
//! the same 3 allocations per *raw* state (2.5 at `(5, 4)`, 2.3 at
//! `(8, 7)`): the quotient's orbit tables and record forms are pooled
//! with the round, and a memo an eighth the size must not be paid for in
//! heap traffic — what it does allocate is mostly the real-space copy of
//! a summary memoized under the value-swapped key, one per such hit.
//!
//! Usage: `cargo run --release --example alloc_probe` (set
//! `TWOSTEP_BENCH_N`/`TWOSTEP_BENCH_T` to change the system).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

use std::time::Duration;

use twostep_core::crw_processes;
use twostep_model::{SystemConfig, WideValue};
use twostep_modelcheck::{explore_with, ExploreConfig, ExploreOptions, Symmetry, WalkBudget};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|raw| raw.trim().parse().ok())
        .unwrap_or(default)
}

/// Best-of-6 serial exploration with `options`; returns (distinct
/// states, heap allocations across all 6 iterations, best seconds).
fn probe(
    system: SystemConfig,
    config: ExploreConfig,
    options: &ExploreOptions,
    proposals: &[WideValue],
) -> (usize, u64, f64) {
    let mut best = f64::INFINITY;
    let mut states = 0;
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..6 {
        let t0 = std::time::Instant::now();
        let report = explore_with(
            system,
            config,
            options.clone(),
            crw_processes(&system, proposals),
            proposals.to_vec(),
        )
        .expect("probe exploration within budget");
        best = best.min(t0.elapsed().as_secs_f64());
        states = report.distinct_states;
    }
    (states, ALLOCS.load(Ordering::Relaxed) - before, best)
}

fn main() {
    let n = env_usize("TWOSTEP_BENCH_N", 5);
    let t = env_usize("TWOSTEP_BENCH_T", 4);
    let system = SystemConfig::new(n, t).expect("valid probe system");
    let proposals: Vec<WideValue> = (0..n).map(|i| WideValue::new(1, (i % 2) as u64)).collect();
    let config = ExploreConfig {
        max_states: 50_000_000,
        symmetry: Symmetry::Off,
        ..ExploreConfig::for_crw(&system)
    };

    let (states, plain_allocs, plain_best) =
        probe(system, config, &ExploreOptions::serial(), &proposals);
    // Every budget limit armed (but sized never to trip), so the
    // per-step arbiter inspection is fully exercised.
    let armed_options = ExploreOptions::serial().with_budget(WalkBudget {
        max_steps: Some(u64::MAX),
        deadline: Some(Duration::from_secs(86_400)),
        max_memo_bytes: Some(u64::MAX),
        yield_every: None,
    });
    let (armed_states, armed_allocs, armed_best) =
        probe(system, config, &armed_options, &proposals);
    assert_eq!(
        states, armed_states,
        "an armed budget must not change the space"
    );
    let quotient_config = ExploreConfig {
        symmetry: Symmetry::PartialValue,
        ..config
    };
    let (orbits, quotient_allocs, quotient_best) = probe(
        system,
        quotient_config,
        &ExploreOptions::serial(),
        &proposals,
    );

    let per_state = |allocs: u64| allocs as f64 / (6 * states) as f64;
    println!(
        "(n={n}, t={t}) states={states} plain: allocs_total={plain_allocs} \
         allocs_per_state={:.2} best_secs={plain_best:.4} states/sec={:.0}",
        per_state(plain_allocs),
        states as f64 / plain_best
    );
    println!(
        "(n={n}, t={t}) states={states} armed: allocs_total={armed_allocs} \
         allocs_per_state={:.2} best_secs={armed_best:.4} states/sec={:.0}",
        per_state(armed_allocs),
        states as f64 / armed_best
    );

    println!(
        "(n={n}, t={t}) states={states} partial+value: orbits={orbits} \
         allocs_total={quotient_allocs} allocs_per_raw_state={:.2} best_secs={quotient_best:.4} \
         raw states/sec={:.0}",
        per_state(quotient_allocs),
        states as f64 / quotient_best
    );

    for (driver, allocs) in [
        ("plain", plain_allocs),
        ("armed", armed_allocs),
        ("partial+value", quotient_allocs),
    ] {
        assert!(
            per_state(allocs) <= 3.0,
            "{driver} walk exceeds the 3 allocs per raw state budget: {:.2}",
            per_state(allocs)
        );
    }
    let ceiling = plain_allocs + plain_allocs / 10 + 64;
    assert!(
        armed_allocs <= ceiling,
        "the armed budget allocates beyond the plain walk's envelope: \
         {armed_allocs} > {ceiling} (plain {plain_allocs})"
    );
    println!("alloc_probe: ok (armed within {ceiling} alloc ceiling)");
}
