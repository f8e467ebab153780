//! Differential suite for the frontier-split distributed engine: a
//! partitioned exploration — workers expanding the depth-`d` frontier,
//! exploring their key-hash partition, exporting memo segments, and a
//! coordinator merging them and replaying the canonical root walk — must
//! produce a report **bit-identical** to the serial walk (`threads = 1`)
//! in every aggregate, for `n ≤ 5`, both model kinds, partition counts
//! {2, 4}, and workers with and without a spilling memo.  A worker that
//! is killed (leaving a truncated export) or that lies about success
//! (leaving a damaged export) must be retried and still yield the
//! identical report; a worker that fails every attempt must surface as
//! [`ExploreError::Worker`], never as a silently-degraded result.

use std::sync::atomic::{AtomicUsize, Ordering};

use twostep_baselines::floodset_processes;
use twostep_core::{crw_processes, CommitOrder, Crw};
use twostep_model::{ProcessId, SystemConfig, WideValue};
use twostep_modelcheck::{
    explore_elastic_in_process, explore_elastic_timed, explore_partitioned_in_process,
    explore_partitioned_timed, explore_with, run_worker, run_worker_elastic, DistOptions,
    ElasticTask, ExploreConfig, ExploreError, ExploreOptions, ExploreReport, FaultPlan, MemoConfig,
    RoundBound, SpecMode, StealConfig, SuperviseConfig, Symmetry, WorkerPulse, WorkerTask,
};
use twostep_sim::ModelKind;

/// Largest `n` explored at every `t`; larger `n` only with `t ≤ 2` (same
/// budget policy as the other differential suites).
const FULL_DEPTH_N: usize = 4;

fn systems() -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for n in 2..=5usize {
        for t in 1..n {
            if n <= FULL_DEPTH_N || t <= 2 {
                out.push((n, t));
            }
        }
    }
    out
}

fn assert_identical<O: std::fmt::Debug + Eq>(
    serial: &ExploreReport<O>,
    dist: &ExploreReport<O>,
    label: &str,
) {
    assert_eq!(serial.root, dist.root, "{label}: root summary");
    assert_eq!(
        serial.distinct_states, dist.distinct_states,
        "{label}: distinct states"
    );
    assert_eq!(
        serial.bivalency_by_round, dist.bivalency_by_round,
        "{label}: bivalency census"
    );
}

/// Worker engine variants of the acceptance matrix: an all-RAM serial
/// worker and a spilling two-thread worker.
fn worker_engines() -> Vec<(&'static str, ExploreOptions)> {
    vec![
        ("ram-serial", ExploreOptions::serial()),
        (
            "spill-2t",
            ExploreOptions::with_threads(2).with_memo(MemoConfig::spill(16)),
        ),
    ]
}

fn dist_options(partitions: usize) -> DistOptions {
    DistOptions {
        partitions,
        depth: 1,
        attempts: 3,
        scratch_dir: None,
        cache: None,
        replay: ExploreOptions::serial(),
        steal: StealConfig::default(),
        faults: FaultPlan::none(),
        supervise: SuperviseConfig::default(),
    }
}

/// Supervision with graceful degradation turned *off*: retry exhaustion
/// must surface as [`ExploreError::Worker`], which the loud-failure
/// tests below assert.
fn no_degrade() -> SuperviseConfig {
    SuperviseConfig {
        degrade: false,
        ..SuperviseConfig::default()
    }
}

/// A steal policy that *always* fires: zero warm-up, any frontier worth
/// one root, pulses every few steps — the elastic machinery (preempt,
/// harvest, re-split, seeded relaunch) exercised on even the smallest
/// systems, where the lazy defaults would never offload.
fn forced_steal(yield_every: u64) -> StealConfig {
    StealConfig {
        enabled: true,
        min_frontier: 1,
        poll_interval: std::time::Duration::ZERO,
        yield_every,
    }
}

fn crw_proposals(n: usize) -> Vec<WideValue> {
    (0..n).map(|i| WideValue::new(1, (i % 2) as u64)).collect()
}

#[test]
fn extended_model_crw_partitioned_equals_serial() {
    for (n, t) in systems() {
        let system = SystemConfig::new(n, t).unwrap();
        let proposals = crw_proposals(n);
        let config = ExploreConfig::for_crw(&system);
        let serial = explore_with(
            system,
            config,
            ExploreOptions::serial(),
            crw_processes(&system, &proposals),
            proposals.clone(),
        )
        .unwrap();
        for partitions in [2usize, 4] {
            for (engine_label, engine) in worker_engines() {
                let dist = explore_partitioned_in_process(
                    system,
                    config,
                    &dist_options(partitions),
                    engine,
                    crw_processes(&system, &proposals),
                    proposals.clone(),
                )
                .unwrap();
                assert_identical(
                    &serial,
                    &dist,
                    &format!("extended crw n={n} t={t} partitions={partitions} {engine_label}"),
                );
            }
        }
    }
}

#[test]
fn classic_model_floodset_partitioned_equals_serial() {
    for (n, t) in systems() {
        let system = SystemConfig::new(n, t).unwrap();
        let proposals: Vec<u64> = (0..n as u64).map(|i| 10 + i).collect();
        let config = ExploreConfig {
            model: ModelKind::Classic,
            max_rounds: t as u32 + 2,
            max_states: 10_000_000,
            round_bound: Some(RoundBound::Fixed(t as u32 + 1)),
            spec: SpecMode::Uniform,
            max_crashes_per_round: None,
            symmetry: Symmetry::Off,
        };
        let serial = explore_with(
            system,
            config,
            ExploreOptions::serial(),
            floodset_processes(n, t, &proposals),
            proposals.clone(),
        )
        .unwrap();
        for partitions in [2usize, 4] {
            for (engine_label, engine) in worker_engines() {
                let dist = explore_partitioned_in_process(
                    system,
                    config,
                    &dist_options(partitions),
                    engine,
                    floodset_processes(n, t, &proposals),
                    proposals.clone(),
                )
                .unwrap();
                assert_identical(
                    &serial,
                    &dist,
                    &format!("classic floodset n={n} t={t} partitions={partitions} {engine_label}"),
                );
            }
        }
    }
}

/// Deeper frontiers change which subtrees workers own, never the report.
#[test]
fn deeper_frontier_is_result_invisible() {
    let (n, t) = (4usize, 3usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = crw_proposals(n);
    let config = ExploreConfig::for_crw(&system);
    let serial = explore_with(
        system,
        config,
        ExploreOptions::serial(),
        crw_processes(&system, &proposals),
        proposals.clone(),
    )
    .unwrap();
    for depth in [0u32, 1, 2, 3] {
        let options = DistOptions {
            depth,
            ..dist_options(3)
        };
        let dist = explore_partitioned_in_process(
            system,
            config,
            &options,
            ExploreOptions::serial(),
            crw_processes(&system, &proposals),
            proposals.clone(),
        )
        .unwrap();
        assert_identical(&serial, &dist, &format!("depth={depth}"));
    }
}

/// Witness reconstruction runs over the merged memo: a violating space
/// (the LowestFirst commit-order ablation breaks the Theorem 1 bound)
/// must yield the same witness partitioned as serially.
#[test]
fn partitioned_witness_matches_serial() {
    let (n, t) = (4usize, 2usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = crw_proposals(n);
    let procs: Vec<Crw<WideValue>> = proposals
        .iter()
        .enumerate()
        .map(|(i, v)| Crw::with_order(ProcessId::from_idx(i), n, *v, CommitOrder::LowestFirst))
        .collect();
    let config = ExploreConfig {
        round_bound: Some(RoundBound::FPlus(1)),
        ..ExploreConfig::for_crw(&system)
    };
    let serial = explore_with(
        system,
        config,
        ExploreOptions::serial(),
        procs.clone(),
        proposals.clone(),
    )
    .unwrap();
    let dist = explore_partitioned_in_process(
        system,
        config,
        &dist_options(2),
        ExploreOptions::serial(),
        procs,
        proposals,
    )
    .unwrap();
    assert!(serial.root.violating, "ablation must violate the bound");
    let ws = serial.witness.expect("serial witness");
    let wd = dist.witness.expect("partitioned witness");
    assert_eq!(format!("{:?}", ws.schedule), format!("{:?}", wd.schedule));
    assert_eq!(ws.decisions, wd.decisions);
    assert_eq!(ws.violations.len(), wd.violations.len());
}

/// A worker killed mid-export (truncated, unsealed segment on disk plus
/// a failure report) is retried, and the retry's overwrite yields the
/// identical report.
#[test]
fn killed_worker_is_retried_to_identical_report() {
    let (n, t) = (4usize, 2usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = crw_proposals(n);
    let config = ExploreConfig::for_crw(&system);
    let serial = explore_with(
        system,
        config,
        ExploreOptions::serial(),
        crw_processes(&system, &proposals),
        proposals.clone(),
    )
    .unwrap();

    let kills = AtomicUsize::new(0);
    let launch = |task: &WorkerTask| {
        let run = || {
            run_worker(
                system,
                config,
                ExploreOptions::serial(),
                crw_processes(&system, &proposals),
                proposals.clone(),
                task,
            )
            .map(|_| ())
            .map_err(|e| e.to_string())
        };
        if task.partition == 0 && kills.fetch_add(1, Ordering::Relaxed) == 0 {
            // First attempt of partition 0 "dies": it runs, but its
            // export is cut short and the process exits non-zero.
            run()?;
            let bytes = std::fs::read(&task.export_path).expect("export exists");
            std::fs::write(&task.export_path, &bytes[..bytes.len() / 2]).expect("truncate");
            return Err("worker killed mid-export".to_string());
        }
        run()
    };
    let dist = explore_partitioned_timed(
        system,
        config,
        &dist_options(2),
        crw_processes(&system, &proposals),
        proposals.clone(),
        launch,
    )
    .unwrap()
    .0;
    assert_eq!(kills.load(Ordering::Relaxed), 2, "partition 0 ran twice");
    assert_identical(&serial, &dist, "killed worker retried");
}

/// A worker that *claims* success but leaves a damaged export is caught
/// by the coordinator's validation and retried.
#[test]
fn lying_worker_is_caught_by_validation_and_retried() {
    let (n, t) = (3usize, 2usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = crw_proposals(n);
    let config = ExploreConfig::for_crw(&system);
    let serial = explore_with(
        system,
        config,
        ExploreOptions::serial(),
        crw_processes(&system, &proposals),
        proposals.clone(),
    )
    .unwrap();

    let lies = AtomicUsize::new(0);
    let launch = |task: &WorkerTask| {
        if task.partition == 1 && lies.fetch_add(1, Ordering::Relaxed) == 0 {
            // Claims success, delivers garbage.
            std::fs::write(&task.export_path, b"trust me, all the states are in here").unwrap();
            return Ok(());
        }
        run_worker(
            system,
            config,
            ExploreOptions::serial(),
            crw_processes(&system, &proposals),
            proposals.clone(),
            task,
        )
        .map(|_| ())
        .map_err(|e| e.to_string())
    };
    let dist = explore_partitioned_timed(
        system,
        config,
        &dist_options(2),
        crw_processes(&system, &proposals),
        proposals.clone(),
        launch,
    )
    .unwrap()
    .0;
    assert_eq!(lies.load(Ordering::Relaxed), 2, "partition 1 ran twice");
    assert_identical(&serial, &dist, "lying worker retried");
}

/// A worker that fails every attempt surfaces as `ExploreError::Worker`
/// with its partition — the coordinator never silently degrades.
#[test]
fn exhausted_worker_attempts_fail_loudly() {
    let (n, t) = (3usize, 1usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = crw_proposals(n);
    let config = ExploreConfig::for_crw(&system);
    let launch = |task: &WorkerTask| {
        if task.partition == 1 {
            return Err("this worker never comes up".to_string());
        }
        run_worker(
            system,
            config,
            ExploreOptions::serial(),
            crw_processes(&system, &proposals),
            proposals.clone(),
            task,
        )
        .map(|_| ())
        .map_err(|e| e.to_string())
    };
    let options = DistOptions {
        attempts: 2,
        supervise: no_degrade(),
        ..dist_options(2)
    };
    let err = explore_partitioned_timed(
        system,
        config,
        &options,
        crw_processes(&system, &proposals),
        proposals.clone(),
        launch,
    )
    .unwrap_err();
    match err {
        ExploreError::Worker { partition, detail } => {
            assert_eq!(partition, 1);
            assert!(detail.contains("never comes up"), "{detail}");
        }
        other => panic!("expected Worker error, got {other:?}"),
    }
}

/// Satellite audit: the coordinator's shared scratch directory (worker
/// export segments, the seed segment) is removed on **every** outcome —
/// success, worker-retry exhaustion, and validation failure — because
/// `explore_partitioned` owns it as a drop-cleaned `SpillDir`.  Only the
/// caller-provided root must survive.
#[test]
fn scratch_dir_is_removed_on_every_coordinator_outcome() {
    let (n, t) = (3usize, 1usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = crw_proposals(n);
    let config = ExploreConfig::for_crw(&system);
    let root = std::env::temp_dir().join(format!("twostep-scratch-audit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let options = DistOptions {
        scratch_dir: Some(root.clone()),
        attempts: 2,
        supervise: no_degrade(),
        ..dist_options(2)
    };
    let assert_scratch_empty = |label: &str| {
        let leftovers: Vec<_> = std::fs::read_dir(&root)
            .expect("caller-provided scratch root must survive")
            .flatten()
            .map(|e| e.path())
            .collect();
        assert!(
            leftovers.is_empty(),
            "{label}: scratch root must be empty, found {leftovers:?}"
        );
    };

    // Success path.
    explore_partitioned_in_process(
        system,
        config,
        &options,
        ExploreOptions::serial(),
        crw_processes(&system, &proposals),
        proposals.clone(),
    )
    .unwrap();
    assert_scratch_empty("success");

    // Worker-retry exhaustion: a worker that never comes up.
    let err = explore_partitioned_timed(
        system,
        config,
        &options,
        crw_processes(&system, &proposals),
        proposals.clone(),
        |_task: &WorkerTask| Err("never comes up".to_string()),
    )
    .unwrap_err();
    assert!(matches!(err, ExploreError::Worker { .. }), "{err:?}");
    assert_scratch_empty("retry exhaustion");

    // Validation failure: a worker that always claims success but leaves
    // a damaged export, exhausting every attempt.
    let err = explore_partitioned_timed(
        system,
        config,
        &options,
        crw_processes(&system, &proposals),
        proposals.clone(),
        |task: &WorkerTask| {
            std::fs::write(&task.export_path, b"damaged beyond repair").unwrap();
            Ok(())
        },
    )
    .unwrap_err();
    assert!(matches!(err, ExploreError::Worker { .. }), "{err:?}");
    assert_scratch_empty("validation failure");

    // Graceful degradation: with the default supervision, the same
    // never-comes-up launch *succeeds* (the coordinator walks the
    // orphaned partitions locally) — and the scratch dir is still
    // removed on this outcome too.
    let degrading = DistOptions {
        supervise: SuperviseConfig::default(),
        ..options.clone()
    };
    let report = explore_partitioned_timed(
        system,
        config,
        &degrading,
        crw_processes(&system, &proposals),
        proposals.clone(),
        |_task: &WorkerTask| Err("never comes up".to_string()),
    )
    .unwrap()
    .0;
    assert!(report.distinct_states > 0, "degraded run still explores");
    assert_scratch_empty("degraded success");

    std::fs::remove_dir_all(&root).unwrap();
}

/// Partition counts far beyond the frontier size leave some workers with
/// zero subtrees; their (valid, empty) exports merge fine.
#[test]
fn more_partitions_than_frontier_configs_is_fine() {
    let (n, t) = (2usize, 1usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = crw_proposals(n);
    let config = ExploreConfig::for_crw(&system);
    let serial = explore_with(
        system,
        config,
        ExploreOptions::serial(),
        crw_processes(&system, &proposals),
        proposals.clone(),
    )
    .unwrap();
    let dist = explore_partitioned_in_process(
        system,
        config,
        &dist_options(16),
        ExploreOptions::serial(),
        crw_processes(&system, &proposals),
        proposals.clone(),
    )
    .unwrap();
    assert_identical(&serial, &dist, "16 partitions on a tiny frontier");
}

// ---------------------------------------------------------------------
// Elastic engine (work stealing)
// ---------------------------------------------------------------------

/// Forced stealing over the extended-model CRW matrix: every run
/// offloads immediately, preempts aggressively, and must still be
/// bit-identical to the serial walk for both worker engines and both
/// partition counts.
#[test]
fn extended_model_crw_elastic_steal_equals_serial() {
    for (n, t) in systems() {
        let system = SystemConfig::new(n, t).unwrap();
        let proposals = crw_proposals(n);
        let config = ExploreConfig::for_crw(&system);
        let serial = explore_with(
            system,
            config,
            ExploreOptions::serial(),
            crw_processes(&system, &proposals),
            proposals.clone(),
        )
        .unwrap();
        for partitions in [2usize, 4] {
            for (engine_label, engine) in worker_engines() {
                let options = DistOptions {
                    steal: forced_steal(32),
                    ..dist_options(partitions)
                };
                let dist = explore_elastic_in_process(
                    system,
                    config,
                    &options,
                    engine,
                    crw_processes(&system, &proposals),
                    proposals.clone(),
                )
                .unwrap();
                assert_identical(
                    &serial,
                    &dist,
                    &format!("elastic crw n={n} t={t} partitions={partitions} {engine_label}"),
                );
            }
        }
    }
}

/// The classic-model floodset matrix under forced stealing.
#[test]
fn classic_model_floodset_elastic_steal_equals_serial() {
    for (n, t) in systems() {
        let system = SystemConfig::new(n, t).unwrap();
        let proposals: Vec<u64> = (0..n as u64).map(|i| 10 + i).collect();
        let config = ExploreConfig {
            model: ModelKind::Classic,
            max_rounds: t as u32 + 2,
            max_states: 10_000_000,
            round_bound: Some(RoundBound::Fixed(t as u32 + 1)),
            spec: SpecMode::Uniform,
            max_crashes_per_round: None,
            symmetry: Symmetry::Off,
        };
        let serial = explore_with(
            system,
            config,
            ExploreOptions::serial(),
            floodset_processes(n, t, &proposals),
            proposals.clone(),
        )
        .unwrap();
        for partitions in [2usize, 4] {
            for (engine_label, engine) in worker_engines() {
                let options = DistOptions {
                    steal: forced_steal(32),
                    ..dist_options(partitions)
                };
                let dist = explore_elastic_in_process(
                    system,
                    config,
                    &options,
                    engine,
                    floodset_processes(n, t, &proposals),
                    proposals.clone(),
                )
                .unwrap();
                assert_identical(
                    &serial,
                    &dist,
                    &format!("elastic floodset n={n} t={t} partitions={partitions} {engine_label}"),
                );
            }
        }
    }
}

/// Steal-enabled run whose policy never fires (lazy defaults on a small
/// system): the elastic engine must degrade to a plain local walk and
/// still match serially — the quick-bench configuration in miniature.
#[test]
fn elastic_with_lazy_policy_never_offloads_and_matches_serial() {
    let (n, t) = (4usize, 2usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = crw_proposals(n);
    let config = ExploreConfig::for_crw(&system);
    let serial = explore_with(
        system,
        config,
        ExploreOptions::serial(),
        crw_processes(&system, &proposals),
        proposals.clone(),
    )
    .unwrap();
    let launches = AtomicUsize::new(0);
    let options = DistOptions {
        steal: StealConfig::on(), // default thresholds: 250ms warm-up
        ..dist_options(2)
    };
    let dist = explore_elastic_timed(
        system,
        config,
        &options,
        crw_processes(&system, &proposals),
        proposals.clone(),
        |task: &ElasticTask, pulse: &(dyn Fn(WorkerPulse) + Sync)| {
            launches.fetch_add(1, Ordering::Relaxed);
            run_worker_elastic(
                system,
                config,
                ExploreOptions::serial(),
                crw_processes(&system, &proposals),
                proposals.clone(),
                task,
                pulse,
            )
            .map_err(|e| e.to_string())
        },
    )
    .unwrap()
    .0;
    assert_eq!(
        launches.load(Ordering::Relaxed),
        0,
        "a sub-250ms run must never leave the coordinator"
    );
    assert_identical(&serial, &dist, "lazy elastic == serial");
}

/// A worker killed mid-steal — it preempted (or finished), but its
/// export segment is truncated on disk and its launch reports failure —
/// is relaunched with refreshed seeds and the run still converges to the
/// identical report.
#[test]
fn killed_elastic_worker_mid_steal_is_retried_to_identical_report() {
    let (n, t) = (4usize, 2usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = crw_proposals(n);
    let config = ExploreConfig::for_crw(&system);
    let serial = explore_with(
        system,
        config,
        ExploreOptions::serial(),
        crw_processes(&system, &proposals),
        proposals.clone(),
    )
    .unwrap();
    let kills = AtomicUsize::new(0);
    let options = DistOptions {
        steal: forced_steal(16),
        ..dist_options(2)
    };
    let dist = explore_elastic_timed(
        system,
        config,
        &options,
        crw_processes(&system, &proposals),
        proposals.clone(),
        |task: &ElasticTask, pulse: &(dyn Fn(WorkerPulse) + Sync)| {
            let exit = run_worker_elastic(
                system,
                config,
                ExploreOptions::serial(),
                crw_processes(&system, &proposals),
                proposals.clone(),
                task,
                pulse,
            )
            .map_err(|e| e.to_string())?;
            if task.worker == 0 && kills.fetch_add(1, Ordering::Relaxed) == 0 {
                // The worker ran — steal handshake included — but "dies"
                // before its export is sealed.
                let bytes = std::fs::read(&task.export_path).expect("export exists");
                std::fs::write(&task.export_path, &bytes[..bytes.len() / 2]).expect("truncate");
                return Err("worker killed mid-steal".to_string());
            }
            Ok(exit)
        },
    )
    .unwrap()
    .0;
    assert_eq!(kills.load(Ordering::Relaxed), 2, "worker 0 ran twice");
    assert_identical(&serial, &dist, "killed elastic worker retried");
}

/// A steal request racing a natural finish: workers that never observe
/// their steal flag (redirected to a path nobody writes) finish whole
/// slices even while flagged as victims — the coordinator must absorb a
/// `Finished` from a flagged worker without waiting for a preempt
/// segment that will never appear.
#[test]
fn steal_raced_with_natural_finish_is_identical() {
    let (n, t) = (4usize, 3usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = crw_proposals(n);
    let config = ExploreConfig::for_crw(&system);
    let serial = explore_with(
        system,
        config,
        ExploreOptions::serial(),
        crw_processes(&system, &proposals),
        proposals.clone(),
    )
    .unwrap();
    let options = DistOptions {
        steal: forced_steal(8),
        ..dist_options(2)
    };
    let dist = explore_elastic_timed(
        system,
        config,
        &options,
        crw_processes(&system, &proposals),
        proposals.clone(),
        |task: &ElasticTask, pulse: &(dyn Fn(WorkerPulse) + Sync)| {
            // Same assignment, but the worker polls a flag file the
            // coordinator never writes — every steal request loses the
            // race with the worker's own completion.
            let deaf = ElasticTask {
                steal_flag: task.steal_flag.with_extension("never"),
                ..task.clone()
            };
            run_worker_elastic(
                system,
                config,
                ExploreOptions::serial(),
                crw_processes(&system, &proposals),
                proposals.clone(),
                &deaf,
                pulse,
            )
            .map_err(|e| e.to_string())
        },
    )
    .unwrap()
    .0;
    assert_identical(&serial, &dist, "steal raced with natural finish");
}

/// An elastic worker that fails every attempt surfaces as
/// [`ExploreError::Worker`] — stealing never silently degrades either.
#[test]
fn exhausted_elastic_worker_attempts_fail_loudly() {
    let (n, t) = (3usize, 2usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = crw_proposals(n);
    let config = ExploreConfig::for_crw(&system);
    let options = DistOptions {
        attempts: 2,
        steal: forced_steal(16),
        supervise: no_degrade(),
        ..dist_options(2)
    };
    let err = explore_elastic_timed(
        system,
        config,
        &options,
        crw_processes(&system, &proposals),
        proposals.clone(),
        |_task: &ElasticTask, _pulse: &(dyn Fn(WorkerPulse) + Sync)| {
            Err("this worker never comes up".to_string())
        },
    )
    .unwrap_err();
    match err {
        ExploreError::Worker { detail, .. } => {
            assert!(detail.contains("never comes up"), "{detail}");
        }
        other => panic!("expected Worker error, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Property: re-splits compose
// ---------------------------------------------------------------------

mod resplit_props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Any re-split of a suspended frontier composes back to the
        /// uninterrupted report: whatever preempt cadence and partition
        /// count the scheduler happens to pick, the merged deltas plus
        /// the final replay equal the serial walk bit for bit.
        #[test]
        fn any_resplit_composes_to_serial_report(
            yield_every in 16u64..512,
            partitions in 2usize..=4,
            min_frontier in 1usize..8,
            seed in 0usize..2,
        ) {
            let (n, t) = [(3usize, 2usize), (4, 2)][seed];
            let system = SystemConfig::new(n, t).unwrap();
            let proposals = crw_proposals(n);
            let config = ExploreConfig::for_crw(&system);
            let serial = explore_with(
                system,
                config,
                ExploreOptions::serial(),
                crw_processes(&system, &proposals),
                proposals.clone(),
            )
            .unwrap();
            let options = DistOptions {
                steal: StealConfig {
                    enabled: true,
                    min_frontier,
                    poll_interval: std::time::Duration::ZERO,
                    yield_every,
                },
                ..dist_options(partitions)
            };
            let dist = explore_elastic_in_process(
                system,
                config,
                &options,
                ExploreOptions::serial(),
                crw_processes(&system, &proposals),
                proposals.clone(),
            )
            .unwrap();
            assert_identical(
                &serial,
                &dist,
                &format!(
                    "resplit n={n} t={t} partitions={partitions} \
                     yield_every={yield_every} min_frontier={min_frontier}"
                ),
            );
        }
    }
}
