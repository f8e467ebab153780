//! The engine matrix: one table of cells over workload × engine ×
//! symmetry mode × session, each cell held by [`assert_same`] to the
//! serial walk of its workload in its mode.  A cell's label names all
//! four, so a failing assertion says which engine broke where.
//!
//! The engines form families ([`Family`]); [`engines`] is every
//! family's rows.  The Theorem 3 and violating rows run on every
//! engine; the CRW row is one test per family (and, for the two plans,
//! per symmetry mode), so its slices share the cores and each carries
//! the name of the property it checks.  Deleting an engine is deleting
//! its row of [`Family::rows`]; a workload that cannot afford every
//! engine (FloodSet, whose classic rounds cost far more than CRW's)
//! names the rows it runs.

use std::fmt::Debug;
use std::hash::Hash;

use twostep_modelcheck::{
    CacheConfig, CacheMode, CheckableProtocol, DistOptions, ExploreOptions, ExploreReport,
    MemoConfig, SpillCodec, Symmetry,
};

use crate::kit::{
    assert_same, crw, floodset, forced_steal, lowest_first, reference, spill_2t, systems, theorem3,
    Engine, TempDir, Workload,
};

const BOTH_MODES: [Symmetry; 2] = [Symmetry::Off, Symmetry::PartialValue];

/// How a cell runs its engine.
#[derive(Clone, Copy, Debug)]
enum Session {
    /// One run, no cache.
    Plain,
    /// Three runs over one cache directory: a cold read-write run that
    /// commits it, a warm read-write run answered wholly from it, and a
    /// read-only run answered wholly from it.
    Cached,
}

/// A family of engines: the rows one kind of engine is run with.
#[derive(Clone, Copy)]
enum Family {
    /// The serial walk and the in-walk threads, all-RAM.
    Threads,
    /// Spilling memos, serial and threaded.
    Spill,
    /// The partitioned plan at 2 and 4 partitions.
    Partitioned,
    /// The forced-steal elastic plan.
    Elastic,
    /// The partitioned plan at frontier depths 0–3.
    Depths,
    /// The partitioned plan with more partitions than frontier configs.
    Wide,
}

impl Family {
    const ALL: [Family; 6] = [
        Family::Threads,
        Family::Spill,
        Family::Partitioned,
        Family::Elastic,
        Family::Depths,
        Family::Wide,
    ];

    /// The family's engines, labelled, with the option values each is
    /// run with.
    fn rows(self) -> Vec<(String, Engine)> {
        let walk = |threads: usize, shards: usize, memo: MemoConfig| {
            let options = ExploreOptions {
                threads,
                shards,
                memo,
                ..ExploreOptions::serial()
            };
            Engine::Walk(options)
        };
        let workers = [
            ("ram-serial", ExploreOptions::serial()),
            ("spill-2t", spill_2t()),
        ];
        let mut rows = Vec::new();
        match self {
            Family::Threads => {
                rows.push(("serial".to_string(), Engine::Walk(ExploreOptions::serial())));
                for threads in [2, 4, 8] {
                    let engine = walk(threads, 16, MemoConfig::all_ram());
                    rows.push((format!("threads-{threads}"), engine));
                }
                for shards in [64, 8] {
                    rows.push((
                        format!("threads-4/{shards}-shards"),
                        walk(4, shards, MemoConfig::all_ram()),
                    ));
                }
            }
            Family::Spill => {
                // One resident entry per shard makes nearly every memo
                // answer a rehydrate — and every answer a frame's class
                // table gives instead skips one, which must not show in
                // the report.
                let spills = [
                    ("spill-16", MemoConfig::spill(16)),
                    (
                        "spill-16-explicit-dir",
                        MemoConfig::spill_to(16, std::env::temp_dir()),
                    ),
                    ("spill-1", MemoConfig::spill(1)),
                ];
                for threads in [1, 4] {
                    for (label, memo) in spills.clone() {
                        rows.push((format!("{label}/{threads}t"), walk(threads, 8, memo)));
                    }
                }
                for hot in [16, 64] {
                    let options = ExploreOptions::serial().with_memo(MemoConfig::spill(hot));
                    rows.push((format!("spill-{hot}"), Engine::Walk(options)));
                }
                rows.push(("spill-2t".to_string(), Engine::Walk(spill_2t())));
            }
            Family::Partitioned => {
                for partitions in [2, 4] {
                    for (worker_label, worker) in workers.clone() {
                        let engine = Engine::Partitioned(DistOptions::new(partitions), worker);
                        rows.push((format!("partitioned-{partitions}/{worker_label}"), engine));
                    }
                }
            }
            Family::Elastic => {
                for partitions in [2, 4] {
                    for (worker_label, worker) in workers.clone() {
                        let steal = DistOptions {
                            steal: forced_steal(32),
                            ..DistOptions::new(partitions)
                        };
                        let engine = Engine::Elastic(steal, worker);
                        rows.push((format!("elastic-{partitions}/{worker_label}"), engine));
                    }
                }
                let steal = DistOptions {
                    steal: forced_steal(64),
                    ..DistOptions::new(2)
                };
                rows.push((
                    "elastic-2/yield-64".to_string(),
                    Engine::Elastic(steal, ExploreOptions::serial()),
                ));
            }
            Family::Depths => {
                // Deeper frontiers change which subtrees workers own,
                // never the report.
                for depth in 0..=3 {
                    let dist = DistOptions {
                        depth,
                        ..DistOptions::new(3)
                    };
                    let engine = Engine::Partitioned(dist, ExploreOptions::serial());
                    rows.push((format!("partitioned-3/depth-{depth}"), engine));
                }
            }
            Family::Wide => {
                // Partitions beyond the frontier's size leave workers
                // with nothing to walk; their empty exports merge fine.
                let engine = Engine::Partitioned(DistOptions::new(16), ExploreOptions::serial());
                rows.push(("partitioned-16".to_string(), engine));
            }
        }
        rows
    }
}

/// Every engine: every family's rows.
pub fn engines() -> Vec<(String, Engine)> {
    Family::ALL.into_iter().flat_map(Family::rows).collect()
}

/// The rows of [`engines`] named by `labels`, in that order.
pub fn named(labels: &[&str]) -> Vec<(String, Engine)> {
    let rows = engines();
    let row = |label: &&str| {
        let found = rows.iter().find(|(name, _)| name == label);
        found
            .unwrap_or_else(|| panic!("no engine row {label}"))
            .clone()
    };
    labels.iter().map(row).collect()
}

/// Runs every cell of `workloads` × `modes` × `engines` in `session`.
fn check<P>(
    workloads: &[Workload<P>],
    modes: &[Symmetry],
    engines: &[(String, Engine)],
    session: Session,
) where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec + Debug + 'static,
{
    for workload in workloads {
        for &mode in modes {
            let workload = workload.under(mode);
            let serial = reference(&workload);
            for (engine_label, engine) in engines {
                let label = format!("{} {mode:?} {engine_label} {session:?}", workload.label);
                match session {
                    Session::Plain => {
                        let report = engine
                            .run(&workload)
                            .unwrap_or_else(|e| panic!("{label}: {e}"));
                        assert_same(&serial, &report, &label);
                    }
                    Session::Cached => cached(&workload, &serial, engine, &label),
                }
            }
        }
    }
}

/// One [`Session::Cached`] cell.
fn cached<P>(
    workload: &Workload<P>,
    serial: &ExploreReport<P::Output>,
    engine: &Engine,
    label: &str,
) where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec + Debug,
{
    let dir = TempDir::new("matrix-cache");
    let run = |mode: CacheMode, pass: &str| {
        let cache = CacheConfig {
            dir: dir.path().to_path_buf(),
            mode,
        };
        let report = engine.clone().with_cache(Some(cache)).run(workload);
        let report = report.unwrap_or_else(|e| panic!("{label} {pass}: {e}"));
        assert_same(serial, &report, &format!("{label} {pass}"));
        report
    };
    let cold = run(CacheMode::ReadWrite, "cold");
    assert_eq!(cold.cache_hits, 0, "{label}: cold has no hits");
    assert_eq!(
        cold.fresh_states, cold.distinct_states,
        "{label}: cold is all fresh"
    );
    let warm = run(CacheMode::ReadWrite, "warm");
    assert_eq!(
        warm.cache_hits, warm.distinct_states,
        "{label}: warm is answered by the cache"
    );
    assert_eq!(warm.fresh_states, 0, "{label}: warm adds nothing");
    // A fully warm read-write run appends no segment: the cache still
    // holds exactly the cold run's image.
    let segments = std::fs::read_dir(dir.path()).unwrap().flatten();
    let segments = segments.filter(|e| e.path().extension().is_some_and(|x| x == "seg"));
    assert_eq!(
        segments.count(),
        1,
        "{label}: a fully warm commit writes no delta"
    );
    let read_only = run(CacheMode::Read, "read-only");
    assert_eq!(
        read_only.cache_hits, read_only.distinct_states,
        "{label}: read-only is warm"
    );
}

/// The CRW row on one family's engines, on every routine system.
fn crw_on(family: Family, modes: &[Symmetry]) {
    let workloads: Vec<_> = systems().into_iter().map(|(n, t)| crw(n, t)).collect();
    check(&workloads, modes, &family.rows(), Session::Plain);
}

#[test]
fn extended_model_crw_parallel_equals_serial() {
    crw_on(Family::Threads, &BOTH_MODES);
}

#[test]
fn extended_model_crw_spill_equals_ram() {
    crw_on(Family::Spill, &BOTH_MODES);
}

#[test]
fn extended_model_crw_partitioned_equals_serial() {
    crw_on(Family::Partitioned, &[Symmetry::Off]);
}

#[test]
fn partitioned_engine_commutes_with_symmetry() {
    crw_on(Family::Partitioned, &[Symmetry::PartialValue]);
}

#[test]
fn extended_model_crw_elastic_steal_equals_serial() {
    crw_on(Family::Elastic, &[Symmetry::Off]);
}

#[test]
fn elastic_steal_engine_commutes_with_symmetry() {
    crw_on(Family::Elastic, &[Symmetry::PartialValue]);
}

#[test]
fn deeper_frontier_is_result_invisible() {
    crw_on(Family::Depths, &BOTH_MODES);
}

#[test]
fn more_partitions_than_frontier_configs_is_fine() {
    crw_on(Family::Wide, &BOTH_MODES);
}

#[test]
fn theorem3_on_every_engine() {
    check(&[theorem3(4, 3)], &BOTH_MODES, &engines(), Session::Plain);
}

/// The violating row: every engine must reconstruct the serial walk's
/// witness — schedule, violations and decisions.
#[test]
fn violating_crw_on_every_engine() {
    let workloads = [lowest_first(4, 2), lowest_first(4, 3), lowest_first(5, 2)];
    for workload in &workloads {
        assert!(
            reference(workload).witness.is_some(),
            "{} violates",
            workload.label
        );
    }
    check(&workloads, &BOTH_MODES, &engines(), Session::Plain);
}

/// FloodSet on every routine system, on the engines `off` names
/// without symmetry and those `partial_value` names under it.
fn floodset_on(off: &[&str], partial_value: &[&str]) {
    let workloads: Vec<_> = systems().into_iter().map(|(n, t)| floodset(n, t)).collect();
    check(&workloads, &[Symmetry::Off], &named(off), Session::Plain);
    if !partial_value.is_empty() {
        let modes = [Symmetry::PartialValue];
        check(&workloads, &modes, &named(partial_value), Session::Plain);
    }
}

#[test]
fn classic_model_floodset_parallel_equals_serial() {
    floodset_on(
        &["threads-2", "threads-4", "threads-8"],
        &["threads-4/64-shards"],
    );
}

#[test]
fn classic_model_floodset_spill_equals_ram() {
    floodset_on(&["spill-16/1t", "spill-16/4t"], &["spill-64"]);
}

/// The partitioned plan, its workers walking all-RAM serial or
/// spilling on two threads.
#[test]
fn classic_model_floodset_partitioned_equals_serial() {
    let plans = [
        "partitioned-2/ram-serial",
        "partitioned-2/spill-2t",
        "partitioned-4/ram-serial",
        "partitioned-4/spill-2t",
    ];
    floodset_on(&plans, &[]);
}

#[test]
fn classic_model_floodset_elastic_steal_equals_serial() {
    let plans = [
        "elastic-2/ram-serial",
        "elastic-2/spill-2t",
        "elastic-4/ram-serial",
        "elastic-4/spill-2t",
    ];
    floodset_on(&plans, &[]);
}

/// The walks a cache session runs on besides the partitioned plan.
const CACHE_WALKS: [&str; 3] = ["serial", "threads-4/8-shards", "spill-16"];

/// Cold, warm and read-only runs over one cache are the serial walk on
/// every walk shape.
#[test]
fn extended_crw_cold_then_warm_is_bit_identical() {
    let crws = [crw(4, 2), crw(3, 2)];
    check(&crws, &BOTH_MODES, &named(&CACHE_WALKS), Session::Cached);
}

#[test]
fn classic_floodset_cold_then_warm_is_bit_identical() {
    let floodsets = [floodset(4, 2), floodset(3, 1)];
    check(
        &floodsets,
        &BOTH_MODES,
        &named(&CACHE_WALKS),
        Session::Cached,
    );
}

/// A violating workload's cached sessions carry the cold walk's whole
/// witness.
#[test]
fn warm_witness_matches_cold_witness() {
    let workloads = [lowest_first(4, 2)];
    check(
        &workloads,
        &BOTH_MODES,
        &named(&CACHE_WALKS),
        Session::Cached,
    );
}

#[test]
fn partitioned_cold_then_warm_is_bit_identical() {
    let plan = named(&["partitioned-2/ram-serial"]);
    let crws = [crw(4, 2), crw(3, 2), lowest_first(4, 2)];
    check(&crws, &BOTH_MODES, &plan, Session::Cached);
    let floodsets = [floodset(4, 2), floodset(3, 1)];
    check(&floodsets, &BOTH_MODES, &plan, Session::Cached);
}

/// A hot tier orders of magnitude below the state count completes
/// (`max_states` budgets disk-backed states, not resident ones), with
/// the serial walk's report.
#[test]
fn hot_capacity_far_below_state_count_completes() {
    let workload = crw(5, 4);
    let serial = reference(&workload);
    let spilled = workload
        .explore(spill_2t())
        .expect("a spilling walk must not trip StateLimit");
    assert!(
        serial.distinct_states > 20 * 16,
        "{} states",
        serial.distinct_states
    );
    assert!(!serial.root.violating);
    assert_eq!(serial.root.worst_round_by_f[4], Some(5));
    assert_same(&serial, &spilled, "crw (5, 4) spill-2t");
}

/// The rungs no debug build can afford: CRW up to `(8, 7)`, where the
/// engines' threads, disk tier and workers have real work to split.
#[test]
#[ignore = "release only: walks CRW up to (8, 7); ci.sh runs it"]
fn rungs_up_to_8_7() {
    let rung_engines = named(&[
        "serial",
        "threads-2",
        "spill-16",
        "partitioned-2/ram-serial",
        "elastic-2/ram-serial",
    ]);
    let workloads = [crw(6, 5), crw(7, 6), crw(8, 7)];
    check(&workloads, &BOTH_MODES, &rung_engines, Session::Plain);
}
