//! The fault-injection harness: a distributed exploration under any
//! **survivable** fault plan — crashes, hangs, corrupted/truncated
//! exports, slow IO, lying progress pulses — returns the serial walk's
//! report.  Retry exhaustion with graceful degradation on *also*
//! converges to it (the coordinator walks the orphaned slices locally),
//! each supervision rule behaves the same under both plans, and a torn
//! coordinator write at *any* ordinal never leaves a cache directory a
//! later run would wrongly trust.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use twostep_modelcheck::{
    CacheConfig, DistOptions, ElasticTask, ExploreError, ExploreOptions, FaultPlan,
    SuperviseConfig, WorkerPulse, WorkerTask,
};

use crate::kit::{assert_same, crw, floodset, forced_steal, reference, Engine, TempDir};

/// Fast supervision: millisecond backoff, no timeouts unless a test
/// sets them.
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
        faults: plan,
        supervise: fast_supervise(),
        ..DistOptions::new(partitions)
    }
}

/// The partitioned plan in-process, workers on the serial engine.
fn in_process(options: DistOptions) -> Engine {
    Engine::Partitioned(options, ExploreOptions::serial())
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

    let workload = crw(4, 2);
    let serial = reference(&workload);
    for partitions in [2usize, 4] {
        for token in fault_tokens {
            // A primary first-attempt fault plus a second-attempt fault
            // on another partition: retries of different partitions must
            // not interfere.
            let plan = FaultPlan::parse(&format!("p0a0={token};p1a1=crash@walk")).unwrap();
            assert!(plan.survivable(partitions as u64, 3), "{token}");
            let dist = in_process(dist_options(partitions, plan))
                .run(&workload)
                .unwrap();
            let label = format!("crw partitions={partitions} fault={token}");
            assert_same(&serial, &dist, &label);
        }
    }

    let workload = floodset(3, 2);
    let serial = reference(&workload);
    for token in fault_tokens {
        let plan = FaultPlan::parse(&format!("p1a0={token}")).unwrap();
        let dist = in_process(dist_options(2, plan)).run(&workload).unwrap();
        assert_same(&serial, &dist, &format!("floodset fault={token}"));
    }
}

/// An injected hang is detected by the per-attempt timeout — the
/// supervisor cancels the attempt, the worker's hang loop observes the
/// token and aborts, and the retry converges — long before the worker's
/// own 60s in-process hang cap would fire.
#[test]
fn hung_worker_is_cancelled_by_attempt_timeout_and_retried() {
    let workload = crw(3, 2);
    let mut options = dist_options(2, FaultPlan::parse("p0a0=hang@walk").unwrap());
    options.supervise.attempt_timeout = Some(Duration::from_millis(150));
    let started = Instant::now();
    let (dist, timings) = workload
        .partitioned(&options, |task| workload.worker(task))
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
    assert_same(&reference(&workload), &dist, "hang detected and retried");
}

/// The elastic coordinator reads the same per-attempt timeout: with no
/// pulse watchdog configured, a hung elastic worker is cancelled once its
/// launch is older than [`SuperviseConfig::attempt_timeout`] and the
/// relaunch converges — in well under the worker's own 60s hang cap,
/// which is all that ended such a hang before.
#[test]
fn elastic_hung_worker_is_cancelled_by_attempt_timeout_without_a_watchdog() {
    let workload = crw(4, 2);
    let mut options = dist_options(2, FaultPlan::parse("p0a0=hang@walk").unwrap());
    options.supervise.attempt_timeout = Some(Duration::from_millis(150));
    assert_eq!(options.supervise.watchdog, None);
    options.steal = forced_steal(16);
    let started = Instant::now();
    let launch = |task: &ElasticTask, pulse: &(dyn Fn(WorkerPulse) + Sync)| {
        workload.elastic_worker(task, pulse)
    };
    let (dist, _timings, stats) = workload.elastic(&options, launch).unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the attempt timeout, not the 60s hang cap, must end the hang (took {:?})",
        started.elapsed()
    );
    assert!(stats.offloaded, "the forced policy reached a worker");
    assert_eq!(stats.degraded, 0, "the relaunch succeeded");
    let label = "elastic hang ended by the attempt timeout";
    assert_same(&reference(&workload), &dist, label);
}

/// A partition whose worker crashes on *every* attempt is walked locally
/// by the coordinator — the run degrades instead of failing, the
/// degradation is reported in the timings, and the report is still the
/// serial walk's.
#[test]
fn retry_exhaustion_degrades_to_local_walk_with_identical_report() {
    let workload = crw(4, 2);
    let plan = FaultPlan::parse("p0a0=crash@walk;p0a1=crash@export;p0a2=crash@seed").unwrap();
    assert!(
        !plan.survivable(2, 3),
        "every attempt of partition 0 is fatal"
    );
    let options = dist_options(2, plan);
    let (dist, timings) = workload
        .partitioned(&options, |task| workload.worker(task))
        .unwrap();
    assert_eq!(
        timings.degraded_partitions, 1,
        "exactly partition 0 degraded"
    );
    assert!(timings.degraded_seconds >= 0.0);
    assert_same(&reference(&workload), &dist, "retry exhaustion degraded");
}

/// Every partition exhausting every attempt degrades the *whole* run to
/// a coordinator-local walk — the distributed engine's worst case is the
/// serial engine, not a failure.
#[test]
fn total_worker_loss_degrades_whole_run_to_local_walk() {
    let workload = crw(3, 2);
    let launch = |_task: &WorkerTask| Err("cluster is on fire".to_string());
    let options = dist_options(2, FaultPlan::none());
    let (dist, timings) = workload.partitioned(&options, launch).unwrap();
    assert_eq!(timings.degraded_partitions, 2, "both partitions degraded");
    assert_same(&reference(&workload), &dist, "total worker loss");
}

/// With degradation off, a run whose worker 0 crashes on every attempt
/// fails with [`ExploreError::Worker`] even while a surviving worker is
/// still to report: worker 1 finishes its slice and then returns only
/// once the loop, having taken worker 0's last failure, cancels it — so
/// its export reaches a loop that is failing the run or already gone.
/// The loop must not wedge on it, and must cancel the survivor rather
/// than wait for it.  The run goes on a thread of its own under a
/// wall-clock guard, so a hang fails the test instead of wedging the
/// suite.
#[test]
fn a_failing_loop_drops_a_survivors_pending_merge() {
    let plan = FaultPlan::parse("p0a0=crash@walk;p0a1=crash@export;p0a2=crash@seed").unwrap();
    let mut options = dist_options(2, plan);
    options.supervise.degrade = false;
    let survivor_cancelled = Arc::new(AtomicBool::new(false));
    let cancelled = Arc::clone(&survivor_cancelled);
    let (done, outcome) = mpsc::channel();
    std::thread::spawn(move || {
        let workload = crw(4, 2);
        let launch = |task: &WorkerTask| {
            let result = workload.worker(task);
            if task.partition == 1 {
                while !task.cancel.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                cancelled.store(true, Ordering::Relaxed);
            }
            result
        };
        let result = workload.partitioned(&options, launch);
        let _ = done.send(result.map(|_| ()));
    });
    match outcome.recv_timeout(Duration::from_secs(60)) {
        Ok(Err(ExploreError::Worker { partition, .. })) => assert_eq!(partition, 0),
        Ok(other) => panic!("expected worker 0's failure, got {other:?}"),
        Err(_) => panic!("the failing run did not return within 60 s"),
    }
    assert!(
        survivor_cancelled.load(Ordering::Relaxed),
        "the failing loop cancels its survivor"
    );
}

/// A failing run cancels its survivors instead of waiting for them, under
/// both plans: worker 0 crashes on every attempt with degradation off,
/// while worker 1 sleeps 5 s at each of its four phases.  The run must
/// report worker 0's failure within 5 s — a loop that waited for worker
/// 1 to finish would take about 20.
#[test]
fn a_failing_run_cancels_a_slow_survivor_under_both_plans() {
    let plan = "p0a0=crash@seed;p0a1=crash@seed;p0a2=crash@seed;p1a0=slow-io(5000)";
    for elastic in [false, true] {
        let mut options = dist_options(2, FaultPlan::parse(plan).unwrap());
        options.supervise.degrade = false;
        if elastic {
            options.steal = forced_steal(16);
        }
        let (done, outcome) = mpsc::channel();
        std::thread::spawn(move || {
            let workload = crw(4, 2);
            let result = if elastic {
                let launch = |task: &ElasticTask, pulse: &(dyn Fn(WorkerPulse) + Sync)| {
                    workload.elastic_worker(task, pulse)
                };
                workload.elastic(&options, launch).map(|_| ())
            } else {
                in_process(options).run(&workload).map(|_| ())
            };
            let _ = done.send(result);
        });
        let label = if elastic { "elastic" } else { "partitioned" };
        match outcome.recv_timeout(Duration::from_secs(5)) {
            Ok(Err(ExploreError::Worker { partition, .. })) => assert_eq!(partition, 0, "{label}"),
            Ok(other) => panic!("{label}: expected worker 0's failure, got {other:?}"),
            Err(_) => panic!("{label}: the failing run did not return within 5 s"),
        }
    }
}

/// A launch closure that panics on its first attempt is a failed
/// attempt, contained on its thread: the slice is retried and the report
/// is the serial one.
#[test]
fn a_launch_that_panics_once_is_retried_to_the_identical_report() {
    let workload = crw(4, 2);
    let launch = |task: &WorkerTask| {
        if task.partition == 0 && task.attempt == 0 {
            panic!("injected panic on attempt {}", task.attempt);
        }
        workload.worker(task)
    };
    let options = dist_options(2, FaultPlan::none());
    let (dist, timings) = workload.partitioned(&options, launch).unwrap();
    assert_eq!(timings.degraded_partitions, 0, "the retry succeeded");
    assert_same(&reference(&workload), &dist, "panic on attempt 0");
}

/// A launch closure that panics on every attempt exhausts its slice:
/// with degradation on the slice is walked locally and the report is the
/// serial one; with it off the run fails with the panic's message, and
/// the other slice is never disturbed.
#[test]
fn a_launch_that_always_panics_degrades_or_fails_naming_the_panic() {
    let workload = crw(4, 2);
    let launch = |task: &WorkerTask| {
        if task.partition == 0 {
            panic!("partition 0 always panics");
        }
        workload.worker(task)
    };
    let mut options = dist_options(2, FaultPlan::none());
    let (dist, timings) = workload.partitioned(&options, launch).unwrap();
    assert_eq!(timings.degraded_partitions, 1, "partition 0 degraded");
    assert_same(&reference(&workload), &dist, "a launch that always panics");
    options.supervise.degrade = false;
    match workload.partitioned(&options, launch) {
        Err(ExploreError::Worker { partition, detail }) => {
            assert_eq!(partition, 0);
            assert!(
                detail.contains("task panicked: partition 0 always panics"),
                "{detail}"
            );
        }
        other => panic!("expected partition 0's failure, got {other:?}"),
    }
}

/// A launch that returns `Ok` after the attempt timeout tripped its
/// token finished its work: the attempt counts as a success, its export
/// is merged, and the slice is launched once.
#[test]
fn an_attempt_that_returns_ok_after_its_timeout_counts() {
    let workload = crw(4, 2);
    let mut options = dist_options(2, FaultPlan::none());
    options.supervise.attempt_timeout = Some(Duration::from_millis(50));
    let launches = AtomicUsize::new(0);
    let launch = |task: &WorkerTask| {
        let result = workload.worker(task);
        if task.partition == 0 {
            launches.fetch_add(1, Ordering::Relaxed);
            let started = Instant::now();
            while !task.cancel.is_cancelled() && started.elapsed() < Duration::from_secs(30) {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(
                task.cancel.is_cancelled(),
                "the attempt timeout never fired"
            );
        }
        result
    };
    let (dist, timings) = workload.partitioned(&options, launch).unwrap();
    assert_eq!(launches.into_inner(), 1, "partition 0 is not retried");
    assert_eq!(timings.degraded_partitions, 0);
    assert_same(&reference(&workload), &dist, "Ok after the timeout");
}

/// A slice whose launch fails is relaunched until an attempt succeeds:
/// partition 0 fails its first two attempts and is launched as attempts
/// 0, 1, 2 in turn; partition 1 succeeds at once and is launched once.
#[test]
fn a_slice_is_relaunched_until_an_attempt_succeeds() {
    let workload = crw(4, 2);
    let seen = Mutex::new(Vec::new());
    let launch = |task: &WorkerTask| {
        seen.lock().unwrap().push((task.partition, task.attempt));
        if task.partition == 0 && task.attempt < 2 {
            return Err(format!("attempt {} died", task.attempt));
        }
        workload.worker(task)
    };
    let options = dist_options(2, FaultPlan::none());
    let (dist, timings) = workload.partitioned(&options, launch).unwrap();
    let seen = seen.into_inner().unwrap();
    let of = |partition| {
        let attempts = seen.iter().filter(|(p, _)| *p == partition);
        attempts.map(|&(_, attempt)| attempt).collect::<Vec<_>>()
    };
    assert_eq!(of(0), [0, 1, 2]);
    assert_eq!(of(1), [0]);
    assert_eq!(timings.degraded_partitions, 0);
    assert_same(
        &reference(&workload),
        &dist,
        "two failed attempts, then success",
    );
}

/// A hung attempt is cancelled at the attempt timeout and retried with a
/// fresh token — the relaunch converges to the serial report.
#[test]
fn a_timed_out_attempt_is_retried_with_a_fresh_token() {
    let workload = crw(4, 2);
    let mut options = dist_options(2, FaultPlan::parse("p0a0=hang@walk").unwrap());
    options.supervise.attempt_timeout = Some(Duration::from_millis(100));
    let tokens_at_launch = Mutex::new(Vec::new());
    let launch = |task: &WorkerTask| {
        if task.partition == 0 {
            let tripped = task.cancel.is_cancelled();
            tokens_at_launch.lock().unwrap().push(tripped);
        }
        workload.worker(task)
    };
    let (dist, timings) = workload.partitioned(&options, launch).unwrap();
    assert_eq!(
        tokens_at_launch.into_inner().unwrap(),
        [false, false],
        "each attempt starts with an untripped token"
    );
    assert_eq!(timings.degraded_partitions, 0, "the relaunch succeeded");
    assert_same(&reference(&workload), &dist, "hang timed out and retried");
}

/// An attempt that returns `Err` after the attempt timeout tripped its
/// token failed by timing out: with no attempt left and degradation off,
/// the run fails with the timeout's detail — in well under the injected
/// hang's own 60 s cap.
#[test]
fn a_timed_out_last_attempt_fails_naming_its_timeout() {
    let workload = crw(4, 2);
    let mut options = dist_options(2, FaultPlan::parse("p0a0=hang@walk").unwrap());
    options.attempts = 1;
    options.supervise.attempt_timeout = Some(Duration::from_millis(100));
    options.supervise.degrade = false;
    let started = Instant::now();
    match workload.partitioned(&options, |task| workload.worker(task)) {
        Err(ExploreError::Worker { partition, detail }) => {
            assert_eq!(partition, 0);
            assert_eq!(detail, "attempt exceeded its 100ms timeout");
        }
        other => panic!("expected partition 0's timeout, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "the attempt timeout, not the 60s hang cap, ends the hang"
    );
}

/// The elastic scheduler quarantines a worker slot that exhausts its
/// launch budget, walks its slice locally, and keeps going with reduced
/// capacity — stats reporting both, report identical.
#[test]
fn elastic_exhausted_worker_is_quarantined_and_walked_locally() {
    let workload = crw(4, 2);
    let plan = FaultPlan::parse("p0a0=crash@walk;p0a1=crash@walk;p0a2=crash@walk").unwrap();
    let mut options = dist_options(2, plan);
    options.steal = forced_steal(16);
    let launch = |task: &ElasticTask, pulse: &(dyn Fn(WorkerPulse) + Sync)| {
        workload.elastic_worker(task, pulse)
    };
    let (dist, _timings, stats) = workload.elastic(&options, launch).unwrap();
    assert!(
        stats.degraded >= 1,
        "worker 0's slice must be walked locally (stats: {stats:?})"
    );
    assert!(
        stats.quarantined >= 1,
        "worker 0's slot must be quarantined (stats: {stats:?})"
    );
    assert_same(&reference(&workload), &dist, "elastic quarantine");
}

/// An elastic worker that hangs (and therefore stops pulsing) is caught
/// by the pulse-liveness watchdog, cancelled, and relaunched — the run
/// converges to the identical report well inside the in-process hang
/// cap.
#[test]
fn elastic_hung_worker_is_caught_by_pulse_watchdog() {
    let workload = crw(4, 2);
    let mut options = dist_options(2, FaultPlan::parse("p0a0=hang@walk").unwrap());
    options.supervise.watchdog = Some(Duration::from_millis(200));
    options.steal = forced_steal(16);
    let started = Instant::now();
    let launch = |task: &ElasticTask, pulse: &(dyn Fn(WorkerPulse) + Sync)| {
        workload.elastic_worker(task, pulse)
    };
    let (dist, _timings, stats) = workload.elastic(&options, launch).unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "the pulse watchdog must end the hang (took {:?})",
        started.elapsed()
    );
    assert_eq!(stats.degraded, 0, "the relaunch succeeded");
    assert_same(
        &reference(&workload),
        &dist,
        "elastic hang caught by watchdog",
    );
}

/// Supervision is one implementation under both plans: the same fault
/// on worker 0, run through the partitioned entry and through the
/// forced-steal elastic one at (5, 4), is retried the same number of
/// times after the same deterministic backoff, degrades the same number
/// of slices, fails with the same [`ExploreError::Worker`] detail — and
/// where the run completes, the report is the serial one.
#[test]
fn supervision_is_the_same_under_both_plans() {
    let workload = crw(5, 4);
    let serial = reference(&workload);
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
                options.steal = forced_steal(16);
                let launch = |task: &ElasticTask, pulse: &(dyn Fn(WorkerPulse) + Sync)| {
                    let began = Instant::now();
                    let exit = workload.elastic_worker(task, pulse);
                    logged(task.worker, began);
                    exit
                };
                workload
                    .elastic(&options, launch)
                    .map(|(report, timings, stats)| {
                        assert!(stats.offloaded, "{label}: the forced policy offloads");
                        assert_eq!(stats.degraded, timings.degraded_partitions, "{label}");
                        (report, timings)
                    })
            } else {
                let launch = |task: &WorkerTask| {
                    let began = Instant::now();
                    let result = workload.worker(task);
                    logged(task.partition as u64, began);
                    result
                };
                workload.partitioned(&options, launch)
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
                let doubled = options.supervise.backoff * (1 << retry);
                let backoff = doubled.min(options.supervise.backoff_cap);
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
                    assert_same(&serial, &report, &label);
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
    let workload = crw(3, 1);
    let serial = reference(&workload);
    for io_fault in ["torn-write", "fail-write", "enospc"] {
        // Dense over the run's first writes (frontier, seed, exports),
        // geometric tail so late writes (cache segment, manifest) land
        // in range too.
        for nth in [1u64, 2, 3, 4, 5, 6, 7, 8, 16, 64, 256] {
            let dir = TempDir::new(&format!("{io_fault}-{nth}"));
            std::fs::create_dir_all(dir.path()).unwrap();
            let cache = Some(CacheConfig::read_write(dir.path()));
            let label = format!("io={io_fault}({nth})");
            let faulted = in_process(dist_options(2, FaultPlan::parse(&label).unwrap()));
            // The faulted run either succeeds (the torn write hit a
            // warn-and-continue path, or never fired) or fails loudly —
            // a success must already be the serial report.
            match faulted.with_cache(cache.clone()).run(&workload) {
                Ok(report) => assert_same(&serial, &report, &label),
                Err(e) => {
                    let msg = e.to_string();
                    assert!(!msg.is_empty(), "{label}: error must carry detail");
                }
            }
            // Whatever the torn write left behind, a clean run over the
            // same cache directory must converge to the serial report —
            // rebuilding (loud-replace) rather than trusting damage.
            let clean = in_process(dist_options(2, FaultPlan::none())).with_cache(cache);
            let recovered = clean
                .run(&workload)
                .unwrap_or_else(|e| panic!("{label}: clean rerun failed: {e}"));
            assert_same(&serial, &recovered, &format!("{label} clean rerun"));
        }
    }
}

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
        /// only non-fatal faults — yields the serial report.
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
            // the 3-attempt budget.  Duplicate slots keep the last fault
            // (the plan grammar itself rejects duplicates).
            let assignment: std::collections::BTreeMap<(u64, usize), WorkerFault> =
                entries.into_iter().collect();
            let tokens: Vec<String> = assignment
                .iter()
                .filter(|((_, attempt), fault)| !(*attempt == 2 && fault.is_fatal()))
                .map(|((p, a), fault)| format!("p{p}a{a}={}", fault.token()))
                .collect();
            let plan = FaultPlan::parse(&tokens.join(";")).unwrap();
            prop_assert!(plan.survivable(partitions as u64, 3));

            let workload = crw(3, 2);
            let mut options = dist_options(partitions, plan);
            options.supervise.attempt_timeout = Some(Duration::from_millis(200));
            let dist = in_process(options).run(&workload).unwrap();
            assert_same(
                &reference(&workload),
                &dist,
                &format!("plan [{}] partitions={partitions}", tokens.join(";")),
            );
        }
    }
}
