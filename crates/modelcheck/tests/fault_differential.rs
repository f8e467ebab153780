//! Differential suite for the fault-injection harness: a distributed
//! exploration running under any **survivable** fault plan — crashes,
//! hangs, corrupted/truncated exports, slow IO, lying progress pulses —
//! must produce a report **bit-identical** to the serial walk.  Retry
//! exhaustion with graceful degradation enabled must *also* converge to
//! the identical report (the coordinator walks the orphaned slices
//! locally), and a torn coordinator write at *any* ordinal must never
//! leave a cache directory a later run would wrongly trust.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use twostep_baselines::floodset_processes;
use twostep_core::crw_processes;
use twostep_model::{SystemConfig, WideValue};
use twostep_modelcheck::{
    explore_elastic_timed, explore_partitioned_in_process, explore_partitioned_timed, explore_with,
    run_worker, run_worker_elastic, CacheConfig, CacheMode, DistOptions, ElasticTask,
    ExploreConfig, ExploreOptions, ExploreReport, FaultPlan, RoundBound, SpecMode, StealConfig,
    SuperviseConfig, Symmetry, WorkerPulse, WorkerTask,
};
use twostep_sim::ModelKind;

/// A unique temp directory removed on drop (cache roots for the suite).
struct TempDir {
    path: PathBuf,
}

impl TempDir {
    fn new(label: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "twostep-fault-{label}-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&path).unwrap();
        TempDir { path }
    }

    fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
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

/// Fast supervision for tests: millisecond backoff, no timeouts unless a
/// test sets them.
fn fast_supervise() -> SuperviseConfig {
    SuperviseConfig {
        backoff: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(8),
        attempt_timeout: None,
        watchdog: None,
        degrade: true,
    }
}

fn dist_options(partitions: usize, plan: FaultPlan) -> DistOptions {
    DistOptions {
        partitions,
        depth: 1,
        attempts: 3,
        scratch_dir: None,
        cache: None,
        replay: ExploreOptions::serial(),
        steal: StealConfig::default(),
        faults: plan,
        supervise: fast_supervise(),
    }
}

fn crw_proposals(n: usize) -> Vec<WideValue> {
    (0..n).map(|i| WideValue::new(1, (i % 2) as u64)).collect()
}

fn crw_serial(system: SystemConfig, config: ExploreConfig) -> ExploreReport<WideValue> {
    let proposals = crw_proposals(system.n());
    explore_with(
        system,
        config,
        ExploreOptions::serial(),
        crw_processes(&system, &proposals),
        proposals,
    )
    .unwrap()
}

/// Every single-shot worker fault the plan grammar can inject, applied
/// to the first attempt of partition 0: the retry (or, for the two
/// non-fatal faults, the attempt itself) must still converge to the
/// serial report — across both partition counts and both model kinds.
#[test]
fn survivable_fault_matrix_is_bit_identical() {
    let fault_tokens = [
        "crash@seed",
        "crash@frontier",
        "crash@walk",
        "crash@export",
        "corrupt-export",
        "truncate-export",
        "slow-io(1)",
        "lying-progress",
    ];

    // Extended-model CRW.
    let (n, t) = (4usize, 2usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = crw_proposals(n);
    let config = ExploreConfig::for_crw(&system);
    let serial = crw_serial(system, config);
    for partitions in [2usize, 4] {
        for token in fault_tokens {
            // A primary first-attempt fault plus a second-attempt fault
            // on another partition: retries of different partitions must
            // not interfere.
            let plan = FaultPlan::parse(&format!("p0a0={token};p1a1=crash@walk")).unwrap();
            assert!(plan.survivable(partitions as u64, 3), "{token}");
            let dist = explore_partitioned_in_process(
                system,
                config,
                &dist_options(partitions, plan),
                ExploreOptions::serial(),
                crw_processes(&system, &proposals),
                proposals.clone(),
            )
            .unwrap();
            assert_identical(
                &serial,
                &dist,
                &format!("crw partitions={partitions} fault={token}"),
            );
        }
    }

    // Classic-model floodset.
    let (n, t) = (3usize, 2usize);
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
    for token in fault_tokens {
        let plan = FaultPlan::parse(&format!("p1a0={token}")).unwrap();
        let dist = explore_partitioned_in_process(
            system,
            config,
            &dist_options(2, plan),
            ExploreOptions::serial(),
            floodset_processes(n, t, &proposals),
            proposals.clone(),
        )
        .unwrap();
        assert_identical(&serial, &dist, &format!("floodset fault={token}"));
    }
}

/// An injected hang is detected by the per-attempt timeout — the
/// supervisor cancels the attempt, the worker's hang loop observes the
/// token and aborts, and the retry converges — long before the worker's
/// own 60s in-process hang cap would fire.
#[test]
fn hung_worker_is_cancelled_by_attempt_timeout_and_retried() {
    let (n, t) = (3usize, 2usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = crw_proposals(n);
    let config = ExploreConfig::for_crw(&system);
    let serial = crw_serial(system, config);
    let mut options = dist_options(2, FaultPlan::parse("p0a0=hang@walk").unwrap());
    options.supervise.attempt_timeout = Some(Duration::from_millis(150));
    let started = Instant::now();
    let launch = |task: &WorkerTask| {
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
    let (dist, timings) = explore_partitioned_timed(
        system,
        config,
        &options,
        crw_processes(&system, &proposals),
        proposals.clone(),
        launch,
    )
    .unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "the watchdog, not the 60s hang cap, must end the hang (took {:?})",
        started.elapsed()
    );
    assert_eq!(
        timings.degraded_partitions, 0,
        "retry succeeded, no degradation"
    );
    assert_identical(&serial, &dist, "hang detected and retried");
}

/// The elastic coordinator reads the same per-attempt timeout: with no
/// pulse watchdog configured, a hung elastic worker is cancelled once its
/// launch is older than [`SuperviseConfig::attempt_timeout`] and the
/// relaunch converges — in well under the worker's own 60s hang cap,
/// which is all that ended such a hang before.
#[test]
fn elastic_hung_worker_is_cancelled_by_attempt_timeout_without_a_watchdog() {
    let (n, t) = (4usize, 2usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = crw_proposals(n);
    let config = ExploreConfig::for_crw(&system);
    let serial = crw_serial(system, config);
    let mut options = dist_options(2, FaultPlan::parse("p0a0=hang@walk").unwrap());
    options.supervise.attempt_timeout = Some(Duration::from_millis(150));
    assert_eq!(options.supervise.watchdog, None);
    options.steal = StealConfig {
        enabled: true,
        min_frontier: 1,
        poll_interval: Duration::ZERO,
        yield_every: 16,
    };
    let started = Instant::now();
    let launch = |task: &ElasticTask, pulse: &(dyn Fn(WorkerPulse) + Sync)| {
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
    };
    let (dist, _timings, stats) = explore_elastic_timed(
        system,
        config,
        &options,
        crw_processes(&system, &proposals),
        proposals.clone(),
        launch,
    )
    .unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the attempt timeout, not the 60s hang cap, must end the hang (took {:?})",
        started.elapsed()
    );
    assert!(stats.offloaded, "the forced policy reached a worker");
    assert_eq!(stats.degraded, 0, "the relaunch succeeded");
    assert_identical(&serial, &dist, "elastic hang ended by the attempt timeout");
}

/// A partition whose worker crashes on *every* attempt is walked locally
/// by the coordinator — the run degrades instead of failing, the
/// degradation is reported in the timings, and the report is still
/// bit-identical to the serial walk.
#[test]
fn retry_exhaustion_degrades_to_local_walk_with_identical_report() {
    let (n, t) = (4usize, 2usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = crw_proposals(n);
    let config = ExploreConfig::for_crw(&system);
    let serial = crw_serial(system, config);
    let plan = FaultPlan::parse("p0a0=crash@walk;p0a1=crash@export;p0a2=crash@seed").unwrap();
    assert!(
        !plan.survivable(2, 3),
        "every attempt of partition 0 is fatal"
    );
    let launch = |task: &WorkerTask| {
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
    let (dist, timings) = explore_partitioned_timed(
        system,
        config,
        &dist_options(2, plan),
        crw_processes(&system, &proposals),
        proposals.clone(),
        launch,
    )
    .unwrap();
    assert_eq!(
        timings.degraded_partitions, 1,
        "exactly partition 0 degraded"
    );
    assert!(timings.degraded_seconds >= 0.0);
    assert_identical(&serial, &dist, "retry exhaustion degraded");
}

/// Every partition exhausting every attempt degrades the *whole* run to
/// a coordinator-local walk — the distributed engine's worst case is the
/// serial engine, not a failure.
#[test]
fn total_worker_loss_degrades_whole_run_to_local_walk() {
    let (n, t) = (3usize, 2usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = crw_proposals(n);
    let config = ExploreConfig::for_crw(&system);
    let serial = crw_serial(system, config);
    let launch = |_task: &WorkerTask| Err("cluster is on fire".to_string());
    let (dist, timings) = explore_partitioned_timed(
        system,
        config,
        &dist_options(2, FaultPlan::none()),
        crw_processes(&system, &proposals),
        proposals.clone(),
        launch,
    )
    .unwrap();
    assert_eq!(timings.degraded_partitions, 2, "both partitions degraded");
    assert_identical(&serial, &dist, "total worker loss");
}

/// The elastic scheduler quarantines a worker slot that exhausts its
/// launch budget, walks its slice locally, and keeps going with reduced
/// capacity — stats reporting both, report identical.
#[test]
fn elastic_exhausted_worker_is_quarantined_and_walked_locally() {
    let (n, t) = (4usize, 2usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = crw_proposals(n);
    let config = ExploreConfig::for_crw(&system);
    let serial = crw_serial(system, config);
    let plan = FaultPlan::parse("p0a0=crash@walk;p0a1=crash@walk;p0a2=crash@walk").unwrap();
    let mut options = dist_options(2, plan);
    options.steal = StealConfig {
        enabled: true,
        min_frontier: 1,
        poll_interval: Duration::ZERO,
        yield_every: 16,
    };
    let launch = |task: &ElasticTask, pulse: &(dyn Fn(WorkerPulse) + Sync)| {
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
    };
    let (dist, _timings, stats) = explore_elastic_timed(
        system,
        config,
        &options,
        crw_processes(&system, &proposals),
        proposals.clone(),
        launch,
    )
    .unwrap();
    assert!(
        stats.degraded >= 1,
        "worker 0's slice must be walked locally (stats: {stats:?})"
    );
    assert!(
        stats.quarantined >= 1,
        "worker 0's slot must be quarantined (stats: {stats:?})"
    );
    assert_identical(&serial, &dist, "elastic quarantine");
}

/// An elastic worker that hangs (and therefore stops pulsing) is caught
/// by the pulse-liveness watchdog, cancelled, and relaunched — the run
/// converges to the identical report well inside the in-process hang
/// cap.
#[test]
fn elastic_hung_worker_is_caught_by_pulse_watchdog() {
    let (n, t) = (4usize, 2usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = crw_proposals(n);
    let config = ExploreConfig::for_crw(&system);
    let serial = crw_serial(system, config);
    let mut options = dist_options(2, FaultPlan::parse("p0a0=hang@walk").unwrap());
    options.supervise.watchdog = Some(Duration::from_millis(200));
    options.steal = StealConfig {
        enabled: true,
        min_frontier: 1,
        poll_interval: Duration::ZERO,
        yield_every: 16,
    };
    let started = Instant::now();
    let launch = |task: &ElasticTask, pulse: &(dyn Fn(WorkerPulse) + Sync)| {
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
    };
    let (dist, _timings, stats) = explore_elastic_timed(
        system,
        config,
        &options,
        crw_processes(&system, &proposals),
        proposals.clone(),
        launch,
    )
    .unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "the pulse watchdog must end the hang (took {:?})",
        started.elapsed()
    );
    assert_eq!(stats.degraded, 0, "the relaunch succeeded");
    assert_identical(&serial, &dist, "elastic hang caught by watchdog");
}

/// Supervision is one implementation under both plans: the same fault
/// on worker 0, run through the partitioned entry and through the
/// forced-steal elastic one at (5, 4), is retried the same number of
/// times after the same deterministic backoff, degrades the same number
/// of slices, fails with the same [`ExploreError::Worker`] detail — and
/// where the run completes, the report is the serial one.
#[test]
fn supervision_is_the_same_under_both_plans() {
    use std::sync::Mutex;
    use twostep_modelcheck::ExploreError;

    let (n, t) = (5usize, 4usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = crw_proposals(n);
    let config = ExploreConfig::for_crw(&system);
    let serial = crw_serial(system, config);
    let exhausting = "p0a0=crash@walk;p0a1=crash@walk;p0a2=crash@walk";
    // (label, fault plan, attempt timeout, degrade, worker 0's launches,
    // degraded slices — `None` where the run must fail).
    let timeout = Some(Duration::from_millis(150));
    let table = [
        (
            "crash on attempt 0",
            "p0a0=crash@walk",
            None,
            true,
            2,
            Some(0),
        ),
        (
            "hang ended by the timeout",
            "p0a0=hang@walk",
            timeout,
            true,
            2,
            Some(0),
        ),
        (
            "corrupt export",
            "p0a0=corrupt-export",
            None,
            true,
            2,
            Some(0),
        ),
        (
            "every attempt crashes, degrade on",
            exhausting,
            None,
            true,
            3,
            Some(1),
        ),
        (
            "every attempt crashes, degrade off",
            exhausting,
            None,
            false,
            3,
            None,
        ),
    ];
    for (label, plan, attempt_timeout, degrade, launches, degraded) in table {
        let mut options = dist_options(2, FaultPlan::parse(plan).unwrap());
        options.supervise = SuperviseConfig {
            backoff: Duration::from_millis(20),
            backoff_cap: Duration::from_millis(40),
            attempt_timeout,
            watchdog: None,
            degrade,
        };
        let policy = options.supervise.policy(options.attempts);
        // Per plan: `Ok(degraded slices)` or `Err(detail)`.
        let mut outcomes = Vec::new();
        for elastic in [false, true] {
            let label = format!(
                "{label}, {}",
                if elastic { "elastic" } else { "partitioned" }
            );
            // (worker, launch began, launch returned), in launch order.
            let log: Mutex<Vec<(u64, Instant, Instant)>> = Mutex::new(Vec::new());
            let logged = |worker: u64, began: Instant| {
                log.lock().unwrap().push((worker, began, Instant::now()));
            };
            let started = Instant::now();
            let result = if elastic {
                options.steal = StealConfig {
                    enabled: true,
                    min_frontier: 1,
                    poll_interval: Duration::ZERO,
                    yield_every: 16,
                };
                let launch = |task: &ElasticTask, pulse: &(dyn Fn(WorkerPulse) + Sync)| {
                    let began = Instant::now();
                    let exit = run_worker_elastic(
                        system,
                        config,
                        ExploreOptions::serial(),
                        crw_processes(&system, &proposals),
                        proposals.clone(),
                        task,
                        pulse,
                    );
                    logged(task.worker, began);
                    exit.map_err(|e| e.to_string())
                };
                explore_elastic_timed(
                    system,
                    config,
                    &options,
                    crw_processes(&system, &proposals),
                    proposals.clone(),
                    launch,
                )
                .map(|(report, timings, stats)| {
                    assert!(stats.offloaded, "{label}: the forced policy offloads");
                    assert_eq!(stats.degraded, timings.degraded_partitions, "{label}");
                    (report, timings)
                })
            } else {
                let launch = |task: &WorkerTask| {
                    let began = Instant::now();
                    let report = run_worker(
                        system,
                        config,
                        ExploreOptions::serial(),
                        crw_processes(&system, &proposals),
                        proposals.clone(),
                        task,
                    );
                    logged(task.partition as u64, began);
                    report.map(|_| ()).map_err(|e| e.to_string())
                };
                explore_partitioned_timed(
                    system,
                    config,
                    &options,
                    crw_processes(&system, &proposals),
                    proposals.clone(),
                    launch,
                )
            };
            assert!(
                started.elapsed() < Duration::from_secs(30),
                "{label}: the attempt timeout, not the 60s hang cap, ends a hang"
            );
            let log = log.into_inner().unwrap();
            let faulted: Vec<_> = log.iter().filter(|(worker, ..)| *worker == 0).collect();
            assert_eq!(faulted.len(), launches, "{label}: launches of worker 0");
            for (retry, pair) in faulted.windows(2).enumerate() {
                let waited = pair[1].1.duration_since(pair[0].2);
                let backoff = policy.delay_before(retry + 1);
                assert!(waited >= backoff, "{label}: retry {retry} after {waited:?}");
            }
            if degraded.is_some() {
                // A failing run stops waiting for the slices in flight.
                let others = log.iter().filter(|(worker, ..)| *worker != 0);
                let mut others: Vec<u64> = others.map(|(worker, ..)| *worker).collect();
                others.sort_unstable();
                let once: Vec<u64> = (1..=others.len() as u64).collect();
                assert_eq!(others, once, "{label}: every other slice launches once");
            }
            outcomes.push(match result {
                Ok((report, timings)) => {
                    assert_identical(&serial, &report, &label);
                    Ok(timings.degraded_partitions)
                }
                Err(ExploreError::Worker { partition, detail }) => {
                    assert_eq!(partition, 0, "{label}");
                    Err(detail)
                }
                Err(other) => panic!("{label}: {other:?}"),
            });
        }
        assert_eq!(outcomes[0], outcomes[1], "{label}: partitioned vs elastic");
        match degraded {
            Some(degraded) => assert_eq!(outcomes[0], Ok(degraded), "{label}"),
            None => assert!(outcomes[0].is_err(), "{label}: {:?}", outcomes[0]),
        }
    }
}

/// A torn coordinator write at **any** ordinal — wherever it lands in
/// the run's write sequence — must leave the cache directory in a state
/// a later clean run either rebuilds or validly reuses, never wrongly
/// trusts: the write-then-rename manifest protocol makes every commit
/// all-or-nothing, and segment validation catches the rest.
#[test]
fn any_single_torn_write_leaves_cache_trustworthy() {
    let (n, t) = (3usize, 1usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = crw_proposals(n);
    let config = ExploreConfig::for_crw(&system);
    let serial = crw_serial(system, config);
    for io_fault in ["torn-write", "fail-write", "enospc"] {
        // Dense over the run's first writes (frontier, seed, exports),
        // geometric tail so late writes (cache segment, manifest) land
        // in range too.
        for nth in [1u64, 2, 3, 4, 5, 6, 7, 8, 16, 64, 256] {
            let dir = TempDir::new(&format!("{io_fault}-{nth}"));
            let cache = Some(CacheConfig {
                dir: dir.path().to_path_buf(),
                mode: CacheMode::ReadWrite,
            });
            let plan = FaultPlan::parse(&format!("io={io_fault}({nth})")).unwrap();
            let mut options = dist_options(2, plan);
            options.cache = cache.clone();
            let label = format!("io={io_fault}({nth})");
            // The faulted run either succeeds (the torn write hit a
            // warn-and-continue path, or never fired) or fails loudly —
            // a success must already be bit-identical.
            match explore_partitioned_in_process(
                system,
                config,
                &options,
                ExploreOptions::serial(),
                crw_processes(&system, &proposals),
                proposals.clone(),
            ) {
                Ok(report) => assert_identical(&serial, &report, &label),
                Err(e) => {
                    let msg = e.to_string();
                    assert!(!msg.is_empty(), "{label}: error must carry detail");
                }
            }
            // Whatever the torn write left behind, a clean run over the
            // same cache directory must converge to the serial report —
            // rebuilding (loud-replace) rather than trusting damage.
            let mut clean = dist_options(2, FaultPlan::none());
            clean.cache = cache;
            let recovered = explore_partitioned_in_process(
                system,
                config,
                &clean,
                ExploreOptions::serial(),
                crw_processes(&system, &proposals),
                proposals.clone(),
            )
            .unwrap_or_else(|e| panic!("{label}: clean rerun failed: {e}"));
            assert_identical(&serial, &recovered, &format!("{label} clean rerun"));
        }
    }
}

// ---------------------------------------------------------------------
// Property: any survivable plan is invisible in the report
// ---------------------------------------------------------------------

mod fault_props {
    use super::*;
    use proptest::prelude::*;
    use twostep_modelcheck::{WorkerFault, WorkerPhase};

    fn arb_fault() -> impl Strategy<Value = WorkerFault> {
        let phases = [
            WorkerPhase::Seed,
            WorkerPhase::Frontier,
            WorkerPhase::Walk,
            WorkerPhase::Export,
        ];
        prop_oneof![
            (0usize..4).prop_map(move |i| WorkerFault::CrashAt(phases[i])),
            (0usize..4).prop_map(move |i| WorkerFault::HangAt(phases[i])),
            Just(WorkerFault::CorruptExport),
            Just(WorkerFault::TruncateExport),
            (1u64..3).prop_map(WorkerFault::SlowIo),
            Just(WorkerFault::LyingProgress),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Any survivable assignment of faults to `(partition, attempt)`
        /// slots — made survivable by construction: final attempts keep
        /// only non-fatal faults — yields the bit-identical report.
        #[test]
        fn any_survivable_plan_is_report_invisible(
            entries in prop::collection::vec(
                ((0u64..4, 0usize..3), arb_fault()),
                0..6,
            ),
            partitions in 2usize..=4,
        ) {
            // Hangs are survivable but slow (they wait out a timeout);
            // give every hang a fast attempt timeout and drop fatal
            // faults from final attempts so the plan is survivable with
            // the suite's 3-attempt budget.  Duplicate slots keep the
            // last fault (the plan grammar itself rejects duplicates).
            let assignment: std::collections::BTreeMap<(u64, usize), WorkerFault> =
                entries.into_iter().collect();
            let tokens: Vec<String> = assignment
                .iter()
                .filter(|((_, attempt), fault)| !(*attempt == 2 && fault.is_fatal()))
                .map(|((p, a), fault)| format!("p{p}a{a}={}", fault.token()))
                .collect();
            let plan = FaultPlan::parse(&tokens.join(";")).unwrap();
            prop_assert!(plan.survivable(partitions as u64, 3));

            let (n, t) = (3usize, 2usize);
            let system = SystemConfig::new(n, t).unwrap();
            let proposals = crw_proposals(n);
            let config = ExploreConfig::for_crw(&system);
            let serial = crw_serial(system, config);
            let mut options = dist_options(partitions, plan);
            options.supervise.attempt_timeout = Some(Duration::from_millis(200));
            let dist = explore_partitioned_in_process(
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
                &format!("plan [{}] partitions={partitions}", tokens.join(";")),
            );
        }
    }
}
