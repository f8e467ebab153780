//! The distributed plans beyond their matrix cells: a worker that is
//! killed (leaving a truncated export) or that lies about success
//! (leaving a damaged export) is retried to the serial report; a worker
//! that fails every attempt surfaces as [`ExploreError::Worker`], never
//! as a silently degraded result; the coordinator's scratch directory is
//! removed on every outcome; and a steal that races a natural finish, a
//! lazy steal policy, or any re-split cadence all leave the report the
//! serial walk's.

use std::sync::atomic::{AtomicUsize, Ordering};

use twostep_modelcheck::{
    DistOptions, ElasticTask, ExploreError, ExploreOptions, StealConfig, SuperviseConfig,
    WorkerPulse, WorkerTask,
};

use crate::kit::{assert_same, crw, forced_steal, reference, Engine};

/// Supervision with graceful degradation turned *off*: retry exhaustion
/// must surface as [`ExploreError::Worker`].
fn no_degrade() -> SuperviseConfig {
    SuperviseConfig {
        degrade: false,
        ..SuperviseConfig::default()
    }
}

/// A worker killed mid-export (truncated, unsealed segment on disk plus
/// a failure report) is retried, and the retry's overwrite yields the
/// identical report.
#[test]
fn killed_worker_is_retried_to_identical_report() {
    let workload = crw(4, 2);
    let kills = AtomicUsize::new(0);
    let launch = |task: &WorkerTask| {
        if task.partition == 0 && kills.fetch_add(1, Ordering::Relaxed) == 0 {
            // First attempt of partition 0 "dies": it runs, but its
            // export is cut short and the process exits non-zero.
            workload.worker(task)?;
            let bytes = std::fs::read(&task.export_path).expect("export exists");
            std::fs::write(&task.export_path, &bytes[..bytes.len() / 2]).expect("truncate");
            return Err("worker killed mid-export".to_string());
        }
        workload.worker(task)
    };
    let (dist, _) = workload.partitioned(&DistOptions::new(2), launch).unwrap();
    assert_eq!(kills.load(Ordering::Relaxed), 2, "partition 0 ran twice");
    assert_same(&reference(&workload), &dist, "killed worker retried");
}

/// A worker that *claims* success but leaves a damaged export is caught
/// by the coordinator's validation and retried.
#[test]
fn lying_worker_is_caught_by_validation_and_retried() {
    let workload = crw(3, 2);
    let lies = AtomicUsize::new(0);
    let launch = |task: &WorkerTask| {
        if task.partition == 1 && lies.fetch_add(1, Ordering::Relaxed) == 0 {
            // Claims success, delivers garbage.
            std::fs::write(&task.export_path, b"trust me, all the states are in here").unwrap();
            return Ok(());
        }
        workload.worker(task)
    };
    let (dist, _) = workload.partitioned(&DistOptions::new(2), launch).unwrap();
    assert_eq!(lies.load(Ordering::Relaxed), 2, "partition 1 ran twice");
    assert_same(&reference(&workload), &dist, "lying worker retried");
}

/// A worker that fails every attempt surfaces as `ExploreError::Worker`
/// with its partition — the coordinator never silently degrades.
#[test]
fn exhausted_worker_attempts_fail_loudly() {
    let workload = crw(3, 1);
    let launch = |task: &WorkerTask| {
        if task.partition == 1 {
            return Err("this worker never comes up".to_string());
        }
        workload.worker(task)
    };
    let options = DistOptions {
        attempts: 2,
        supervise: no_degrade(),
        ..DistOptions::new(2)
    };
    match workload.partitioned(&options, launch).unwrap_err() {
        ExploreError::Worker { partition, detail } => {
            assert_eq!(partition, 1);
            assert!(detail.contains("never comes up"), "{detail}");
        }
        other => panic!("expected Worker error, got {other:?}"),
    }
}

/// The coordinator's shared scratch directory (worker export segments,
/// the seed segment) is removed on **every** outcome — success,
/// worker-retry exhaustion, validation failure, degraded success —
/// because the coordinator owns it as a drop-cleaned `SpillDir`.  Only
/// the caller-provided root survives.
#[test]
fn scratch_dir_is_removed_on_every_coordinator_outcome() {
    let workload = crw(3, 1);
    let root = std::env::temp_dir().join(format!("twostep-scratch-audit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let options = DistOptions {
        scratch_dir: Some(root.clone()),
        attempts: 2,
        supervise: no_degrade(),
        ..DistOptions::new(2)
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
    let engine = Engine::Partitioned(options.clone(), ExploreOptions::serial());
    engine.run(&workload).unwrap();
    assert_scratch_empty("success");

    // Worker-retry exhaustion: a worker that never comes up.
    let never = |_task: &WorkerTask| Err("never comes up".to_string());
    let err = workload.partitioned(&options, never).unwrap_err();
    assert!(matches!(err, ExploreError::Worker { .. }), "{err:?}");
    assert_scratch_empty("retry exhaustion");

    // Validation failure: a worker that always claims success but leaves
    // a damaged export, exhausting every attempt.
    let damaging = |task: &WorkerTask| {
        std::fs::write(&task.export_path, b"damaged beyond repair").unwrap();
        Ok(())
    };
    let err = workload.partitioned(&options, damaging).unwrap_err();
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
    let (report, _) = workload.partitioned(&degrading, never).unwrap();
    assert!(report.distinct_states > 0, "degraded run still explores");
    assert_scratch_empty("degraded success");

    std::fs::remove_dir_all(&root).unwrap();
}

/// Steal-enabled run whose policy never fires (lazy defaults on a small
/// system): the elastic engine must degrade to a plain local walk and
/// still match serially — the quick-bench configuration in miniature.
#[test]
fn elastic_with_lazy_policy_never_offloads_and_matches_serial() {
    let workload = crw(4, 2);
    let launches = AtomicUsize::new(0);
    let options = DistOptions {
        steal: StealConfig::on(), // default thresholds: 250ms warm-up
        ..DistOptions::new(2)
    };
    let launch = |task: &ElasticTask, pulse: &(dyn Fn(WorkerPulse) + Sync)| {
        launches.fetch_add(1, Ordering::Relaxed);
        workload.elastic_worker(task, pulse)
    };
    let (dist, ..) = workload.elastic(&options, launch).unwrap();
    assert_eq!(
        launches.load(Ordering::Relaxed),
        0,
        "a sub-250ms run must never leave the coordinator"
    );
    assert_same(&reference(&workload), &dist, "lazy elastic == serial");
}

/// A worker killed mid-steal — it preempted (or finished), but its
/// export segment is truncated on disk and its launch reports failure —
/// is relaunched with refreshed seeds and the run still converges to the
/// identical report.
#[test]
fn killed_elastic_worker_mid_steal_is_retried_to_identical_report() {
    let workload = crw(4, 2);
    let kills = AtomicUsize::new(0);
    let options = DistOptions {
        steal: forced_steal(16),
        ..DistOptions::new(2)
    };
    let launch = |task: &ElasticTask, pulse: &(dyn Fn(WorkerPulse) + Sync)| {
        let exit = workload.elastic_worker(task, pulse)?;
        if task.worker == 0 && kills.fetch_add(1, Ordering::Relaxed) == 0 {
            // The worker ran — steal handshake included — but "dies"
            // before its export is sealed.
            let bytes = std::fs::read(&task.export_path).expect("export exists");
            std::fs::write(&task.export_path, &bytes[..bytes.len() / 2]).expect("truncate");
            return Err("worker killed mid-steal".to_string());
        }
        Ok(exit)
    };
    let (dist, ..) = workload.elastic(&options, launch).unwrap();
    assert_eq!(kills.load(Ordering::Relaxed), 2, "worker 0 ran twice");
    assert_same(
        &reference(&workload),
        &dist,
        "killed elastic worker retried",
    );
}

/// A steal request racing a natural finish: workers that never observe
/// their steal flag (redirected to a path nobody writes) finish whole
/// slices even while flagged as victims — the coordinator must absorb a
/// `Finished` from a flagged worker without waiting for a preempt
/// segment that will never appear.
#[test]
fn steal_raced_with_natural_finish_is_identical() {
    let workload = crw(4, 3);
    let options = DistOptions {
        steal: forced_steal(8),
        ..DistOptions::new(2)
    };
    let launch = |task: &ElasticTask, pulse: &(dyn Fn(WorkerPulse) + Sync)| {
        // Same assignment, but the worker polls a flag file the
        // coordinator never writes — every steal request loses the race
        // with the worker's own completion.
        let deaf = ElasticTask {
            steal_flag: task.steal_flag.with_extension("never"),
            ..task.clone()
        };
        workload.elastic_worker(&deaf, pulse)
    };
    let (dist, ..) = workload.elastic(&options, launch).unwrap();
    assert_same(
        &reference(&workload),
        &dist,
        "steal raced with natural finish",
    );
}

/// An elastic worker that fails every attempt surfaces as
/// [`ExploreError::Worker`] — stealing never silently degrades either.
#[test]
fn exhausted_elastic_worker_attempts_fail_loudly() {
    let options = DistOptions {
        attempts: 2,
        steal: forced_steal(16),
        supervise: no_degrade(),
        ..DistOptions::new(2)
    };
    let never = |_task: &ElasticTask, _pulse: &(dyn Fn(WorkerPulse) + Sync)| {
        Err("this worker never comes up".to_string())
    };
    match crw(3, 2).elastic(&options, never).unwrap_err() {
        ExploreError::Worker { detail, .. } => {
            assert!(detail.contains("never comes up"), "{detail}");
        }
        other => panic!("expected Worker error, got {other:?}"),
    }
}

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
            let workload = crw(n, t);
            let steal = StealConfig { min_frontier, ..forced_steal(yield_every) };
            let options = DistOptions { steal, ..DistOptions::new(partitions) };
            let dist = Engine::Elastic(options, ExploreOptions::serial()).run(&workload).unwrap();
            assert_same(
                &reference(&workload),
                &dist,
                &format!(
                    "resplit n={n} t={t} partitions={partitions} \
                     yield_every={yield_every} min_frontier={min_frontier}"
                ),
            );
        }
    }
}
