//! Hot-path allocation probe: runs the serial exhaustive CRW
//! exploration under a counting global allocator and reports total
//! heap allocations alongside best-of-6 distinct-states/sec — for the
//! one serial driver with its budget unarmed (`plain`) *and* with every
//! limit armed but sized never to trip (`armed`).
//!
//! This is the measurement harness behind the explorer's hot-path
//! budget ("the inner loop allocates nothing in steady state", 1.3
//! allocations per distinct state end to end at the default `(5, 4)`,
//! 0.21 at `(8, 7)` — a memo entry's key is copied into its shard's
//! arena, and its summary is the walker's one `Arc` of that value, so a
//! leaf costs no allocation of its own, and a completed frame whose
//! summary the walker has met before hands its accumulator's buffers
//! to the next frame the walker expands): watch
//! `allocs_total` when touching the walker, the stepper fork path, or
//! the memo — a regression shows up here as thousands of extra
//! allocations long before it is visible in wall-clock noise.  The probe
//! *pins* both budgets: each row stays under 1.5 allocs/state (the
//! `(5, 4)` figure plus 10 %, rounded up to a tenth), and the
//! armed row stays within 10% (+64 fixed) of the plain one — a `step()`
//! call's arbiter inspection, and the headroom it asks for before a run
//! of repeated rows, must not buy their bookkeeping with heap traffic.  A
//! third row walks the same space under `partial+value` and is pinned to
//! 3 allocations per *raw* state (1.9 at `(5, 4)`, 0.9 at `(8, 7)`): the
//! quotient's orbit tables and record forms are pooled with the round,
//! and a memo an eighth the size must not be paid for in heap traffic —
//! what it does allocate is mostly the real-space copy of a summary
//! memoized under the value-swapped key, one per such hit.
//!
//! A fourth row walks the symmetry-off space with 2 % of its states hot
//! (`MemoConfig::spill(states / 50)`) and is pinned to 3 allocations per
//! state (1.8 at `(5, 4)`, 0.5 at `(8, 7)`): a rehydrate reads its
//! record out of the store's own buffers, shares the summary a slot of
//! the shard's summary table already decoded from the same bytes, and
//! copies its key into the arena; an eviction's index slot holds the
//! record's address inline, so what is left is mostly the summaries the
//! table has not met.  (While each spilled key's slots sat in a `Vec` of
//! their own, the row read 4.7 and 5.6; while each hot key was an
//! allocation of its own, 3.7 and 4.6.)  The first three counts do not
//! move with it — the table is built on a shard's first rehydrate,
//! which an all-RAM memo never makes.
//!
//! Over their six walks each at `(5, 4)` the four rows count 6 216,
//! 6 216, 9 114 and 8 706 allocations.  A round's two frame-local
//! tables — successor classes, orbits — are pooled with it and sized on
//! first use for the classes of an average frame, so a pooled round's
//! tables allocate once each, not class by class, until a larger frame
//! outgrows them.  A walker's block cache allocates its index, its
//! slots and its arena at its first store, and again only when one of
//! them doubles — the index and the slots with the blocks the walk
//! stores, the arena with their bytes — and the walker's summary
//! interner one summary per distinct block shape (447 at `(8, 7)`).
//! The blocks the cache takes skip their memo probes, and with them the
//! real-space copies of value-swapped hits and some rehydrates: when the
//! cache came in, the `(8, 7)` quotient row fell from 2.26 to 1.88
//! allocations per raw state and the spilling row from 6.97 to 5.59,
//! while the plain row rose from 1.69 to 1.71; when it came to keep
//! every block the walk completes, a round's last included, in place of
//! a frame-local block table beside sets that dropped blocks, the
//! quotient row fell from 1.17 to 0.92 and the spilling row from 0.58
//! to 0.47, and the plain row stayed at 0.21.  When the interner came
//! to completed frames' summaries — each had been an `Arc` of its own —
//! the plain row fell from 1.62 to 1.53 allocations per state at
//! `(5, 4)` and from 0.71 to 0.55 at `(8, 7)`; when a duplicate
//! frame's accumulator came to be reused rather than dropped, from 1.53
//! to 1.32 and from 0.55 to 0.21.
//!
//! Usage: `cargo run --release --example alloc_probe -- [N T]` (the
//! system defaults to `(5, 4)`; `ci.sh` runs it at the default and,
//! outside `--quick`, as `-- 8 7`, where the block cache grows).

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
use twostep_modelcheck::{
    explore_with, ExploreConfig, ExploreOptions, MemoConfig, Symmetry, WalkBudget,
};

/// The `index`-th command-line argument as a count; `default` when it
/// is absent.
fn arg(index: usize, default: usize) -> usize {
    std::env::args().nth(index).map_or(default, |raw| {
        raw.parse()
            .unwrap_or_else(|_| panic!("usage: alloc_probe [N T]; {raw:?} is not a count"))
    })
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
    let n = arg(1, 5);
    let t = arg(2, 4);
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
    let spill_options = ExploreOptions::serial().with_memo(MemoConfig::spill(states / 50));
    let (spill_states, spill_allocs, spill_best) =
        probe(system, config, &spill_options, &proposals);
    assert_eq!(states, spill_states, "spilling must not change the space");

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
    println!(
        "(n={n}, t={t}) states={states} spill: hot={} allocs_total={spill_allocs} \
         allocs_per_state={:.2} best_secs={spill_best:.4} states/sec={:.0}",
        states / 50,
        per_state(spill_allocs),
        states as f64 / spill_best
    );

    assert!(
        per_state(spill_allocs) <= 3.0,
        "the spilling walk exceeds the 3 allocs per state budget: {:.2}",
        per_state(spill_allocs)
    );
    for (driver, allocs, budget) in [
        ("plain", plain_allocs, 1.5),
        ("armed", armed_allocs, 1.5),
        ("partial+value", quotient_allocs, 3.0),
    ] {
        assert!(
            per_state(allocs) <= budget,
            "{driver} walk exceeds the {budget} allocs per raw state budget: {:.2}",
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
