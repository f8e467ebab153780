//! The traced run: per-layer metrics, measured from outside.
//!
//! A separate run — end-to-end metrics are never taken from it.  It records
//! a seeded corpus from the workload's own input, replays each layer's
//! public functions over it inside batch spans, runs the engine-level rows,
//! and writes every span to `benchmark/out/trace-<workload>.json` when it
//! ends.  Spans are recorded here, around the calls into each layer; spans
//! inside the program are a later change.
//!
//! The work is the same whichever workload is traced, except for the rows
//! that describe the traced workload itself (`explorer.*_per_state`,
//! `run.*`, `trace.overhead_share`), so every traced run emits every
//! declared per-layer metric.  The work is also fixed — it does not scale
//! with `--seconds` — so that the exact-count rows repeat exactly.

use std::time::{Duration, Instant};

use crate::adapter::{self, Corpus, DistPhases, Engine, Problem, Verdict, WalkError};
use crate::alloc;
use crate::output::Values;
use crate::procfs;
use crate::run::Outcome;
use crate::scratch::{self, Scratch};
use crate::span::Tracer;
use crate::stats;
use crate::workload::{self, Workload, N, RAW_STATES, T};

/// Configurations in the replay corpus.
const CORPUS_CONFIGS: usize = 4096;

/// A layer row is the fastest of this many batch spans.
const BATCHES: usize = 5;

/// Batches are sized to last at least this long (never one span per call).
const MIN_BATCH: Duration = Duration::from_millis(2);

/// Untraced iterations of the traced workload (`run.samples`).
const UNTRACED_SAMPLES: usize = 3;

/// Rounds of the interleaved best-of comparison at (7,6).
const RATIO_ROUNDS: usize = 3;

/// Step budget that suspends the (7,6) walk about 40% of the way.
const CHECKPOINT_STEPS: u64 = 100_000;

const MIB: f64 = 1024.0 * 1024.0;

struct Trace {
    tracer: Tracer,
    values: Values,
    attempted: u64,
    failed: u64,
}

impl Trace {
    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Counts one check of an exploration's report.
    fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(detail) = result {
            self.failed += 1;
            eprintln!("trace: {what}: {detail}");
        }
    }

    /// Times one call inside its own span; returns its result and seconds.
    fn timed<R>(
        &mut self,
        name: &str,
        f: impl FnOnce() -> Result<R, String>,
    ) -> Result<(R, f64), String> {
        let span = self.tracer.begin(name);
        let result = f();
        let seconds = self.tracer.end(span, 1);
        result
            .map(|r| (r, seconds))
            .map_err(|e| format!("{name}: {e}"))
    }

    /// One exploration by `workload`'s engine inside a span of its own: the
    /// phases a distributed engine reports become child spans, the report is
    /// checked like a timed iteration's.  Returns the verdict, the phases and
    /// the seconds.
    fn exploration(
        &mut self,
        label: &str,
        workload: Workload,
        explore: impl FnOnce() -> Result<(Verdict, Option<DistPhases>), String>,
    ) -> Result<(Verdict, Option<DistPhases>, f64), String> {
        let span = self.tracer.begin(label);
        let result = explore();
        let seconds = self.tracer.end(span, 1);
        let (verdict, phases) = result.map_err(|e| format!("{label}: {e}"))?;
        if let Some(phases) = &phases {
            dist_spans(&mut self.tracer, span, phases);
        }
        self.check(label, workload.check(&verdict, phases.as_ref()));
        Ok((verdict, phases, seconds))
    }

    /// One layer row: sizes a batch to at least [`MIN_BATCH`], records
    /// [`BATCHES`] batch spans, returns the fastest batch's nanoseconds per
    /// call.  `prepare(reps)` builds a batch's input outside its span.
    fn micro<I>(
        &mut self,
        name: &str,
        mut prepare: impl FnMut(usize) -> I,
        mut batch: impl FnMut(I) -> Result<u64, String>,
    ) -> Result<f64, String> {
        let mut reps = 1usize;
        loop {
            let input = prepare(reps);
            let started = Instant::now();
            batch(input).map_err(|e| format!("{name}: {e}"))?;
            let took = started.elapsed();
            if took >= MIN_BATCH || reps >= 1 << 20 {
                break;
            }
            let scale = MIN_BATCH.as_secs_f64() * 2.0 / took.as_secs_f64().max(1e-9);
            reps = (reps as f64 * scale.max(2.0)).ceil() as usize;
        }
        let mut best = f64::INFINITY;
        for _ in 0..BATCHES {
            let input = prepare(reps);
            let span = self.tracer.begin(name);
            let calls = batch(input);
            let seconds = self.tracer.end(span, *calls.as_ref().unwrap_or(&0));
            let calls = calls.map_err(|e| format!("{name}: {e}"))?;
            if calls == 0 {
                return Err(format!("{name}: a batch made no calls"));
            }
            best = best.min(seconds * 1e9 / calls as f64);
        }
        Ok(best)
    }

    /// [`micro`](Self::micro) for rows whose batches need no prepared input.
    fn micro_reps(
        &mut self,
        name: &str,
        batch: impl FnMut(usize) -> Result<u64, String>,
    ) -> Result<f64, String> {
        self.micro(name, |reps| reps, batch)
    }
}

fn walk(problem: &Problem, engine: &Engine) -> Result<Verdict, String> {
    problem.explore(engine).map_err(|e| e.message())
}

pub fn run(workload: Workload, seed: u64) -> Result<Outcome, String> {
    let out_dir = scratch::out_dir()?;
    let scratch = Scratch::create(&format!("trace-{}", workload.name()))?;
    let mut trace = Trace {
        tracer: Tracer::new(),
        values: Values::new(),
        attempted: 0,
        failed: 0,
    };
    let root = trace.tracer.begin(&format!("trace:{}", workload.name()));
    let problem = Problem::crw(N, T, seed)?;

    layer_rows(&mut trace, &problem, seed)?;
    let reference = engine_rows(&mut trace, &problem, workload, &scratch)?;
    traced_workload_rows(&mut trace, &problem, workload, &scratch, &reference)?;
    small_system_rows(&mut trace, seed, &scratch)?;

    trace.tracer.end(root, 1);
    let path = out_dir.join(format!("trace-{}.json", workload.name()));
    let document = format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"spans\":\n{}}}\n",
        workload.name(),
        trace.tracer.to_json()
    );
    std::fs::write(&path, document).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "trace: {} spans written to {}",
        trace.tracer.spans().len(),
        path.display()
    );
    Ok(Outcome {
        values: trace.values,
        attempted: trace.attempted,
        failed: trace.failed,
    })
}

/// Replays each layer's public functions over the recorded corpus.
fn layer_rows(trace: &mut Trace, problem: &Problem, seed: u64) -> Result<(), String> {
    let layers = trace.tracer.begin("layers");
    let (mut corpus, _) = trace.timed("corpus.record", || {
        Corpus::record(problem, seed, CORPUS_CONFIGS)
    })?;

    let ns = trace.micro_reps("codec.hash", |reps| Ok(corpus.hash_keys(reps)))?;
    trace.set("codec.hash_ns_per_key", ns);
    let ns = trace.micro_reps("codec.encode", |reps| Ok(corpus.encode_configs(reps)))?;
    trace.set("codec.encode_ns_per_config", ns);
    let ns = trace.micro_reps("codec.canon_sort", |reps| Ok(corpus.canon_sort(reps)))?;
    trace.set("codec.canon_sort_ns_per_config", ns);

    let (raw_bytes, packed_bytes) = corpus.record_bytes();
    let bytes_per_record = raw_bytes as f64 / CORPUS_CONFIGS as f64;
    let mib_per_s = |ns_per_record: f64| bytes_per_record / MIB / (ns_per_record * 1e-9);
    let ns = trace.micro_reps("codec.compress", |reps| Ok(corpus.compress(reps)))?;
    trace.set("codec.compress_mib_per_s", mib_per_s(ns));
    let ns = trace.micro_reps("codec.decompress", |reps| corpus.decompress(reps))?;
    trace.set("codec.decompress_mib_per_s", mib_per_s(ns));
    trace.set(
        "codec.compress_ratio",
        raw_bytes as f64 / packed_bytes as f64,
    );

    let ns = trace.micro_reps("enumerate.effective", |reps| Ok(corpus.enumerate(reps)))?;
    trace.set("enumerate.effective_ns_per_call", ns);
    let (outcomes_per_call, kept_share) = corpus.enumeration_shape();
    trace.set("enumerate.outcomes_per_call", outcomes_per_call);
    trace.set("enumerate.kept_share", kept_share);

    let ns = trace.micro_reps("engine.fork", |reps| Ok(corpus.fork(reps)))?;
    trace.set("engine.fork_ns", ns);
    let ns = trace.micro(
        "engine.step",
        |reps| corpus.forks(reps.min(4)),
        |forks| corpus.step(forks),
    )?;
    trace.set("engine.step_ns_per_round", ns);
    let ns = trace.micro_reps("engine.peek", |reps| Ok(corpus.peek(reps)))?;
    trace.set("engine.peek_ns_per_proc", ns);
    let ns = trace.micro_reps("engine.plain_run", |reps| corpus.plain_runs(reps))?;
    trace.set("engine.plain_run_ns_per_round", ns);

    let ns = trace.micro_reps("spill.encode_summary", |reps| {
        Ok(corpus.encode_summaries(reps))
    })?;
    trace.set("spill.encode_summary_ns", ns);
    let ns = trace.micro_reps("spill.decode_summary", |reps| corpus.decode_summaries(reps))?;
    trace.set("spill.decode_summary_ns", ns);

    let ns = trace.micro_reps("cache.fingerprint", |reps| Ok(problem.fingerprint(reps)))?;
    trace.set("cache.fingerprint_ns", ns);
    let ns = trace.micro_reps("scheduler.spawn_join", |reps| Ok(adapter::spawn_join(reps)))?;
    trace.set("scheduler.spawn_join_us", ns / 1e3);
    let ns = trace.micro_reps("scheduler.queue", |reps| Ok(adapter::queue_items(reps)))?;
    trace.set("scheduler.queue_ns_per_item", ns);

    trace.tracer.end(layers, 1);
    Ok(())
}

/// One untraced exploration of each of the four engines at (8,7), plus the
/// in-process and elastic variants of the distributed one.  Returns the
/// serial/RAM/off verdict the rest of the run checks against.
fn engine_rows(
    trace: &mut Trace,
    problem: &Problem,
    traced: Workload,
    scratch: &Scratch,
) -> Result<Verdict, String> {
    let engines = trace.tracer.begin("engines");
    let mut engine_seconds = [0.0; 4];
    let mut verdicts: Vec<Verdict> = Vec::new();
    let mut dist = DistPhases::default();
    // Untraced samples of the traced workload; this pass gives the first.
    let mut samples = Vec::with_capacity(UNTRACED_SAMPLES);
    for (slot, engine) in Workload::ALL.into_iter().enumerate() {
        let written_before = procfs::bytes_written()?;
        let (verdict, phases, seconds) =
            trace.exploration(&format!("engine:{}", engine.name()), engine, || {
                engine.explore(problem, scratch.path())
            })?;
        engine_seconds[slot] = seconds;
        if engine == Workload::Spill {
            let written = procfs::bytes_written()? - written_before;
            trace.set("spill.bytes_written", written as f64);
        }
        if engine == traced {
            samples.push(seconds);
        }
        dist = phases.unwrap_or(dist);
        verdicts.push(verdict);
    }
    let reference = verdicts[0].clone();
    for (engine, verdict) in Workload::ALL.into_iter().zip(&verdicts).skip(1) {
        trace.check(engine.name(), engine.check_against(verdict, &reference));
    }
    let [cold_s, quotient_s, spill_s, _] = engine_seconds;
    trace.set("explorer.quotient_over_serial", quotient_s / cold_s);
    trace.set(
        "explorer.orbit_reduction",
        reference.distinct_states as f64 / verdicts[1].distinct_states as f64,
    );
    trace.set("memo.spill_over_ram", spill_s / cold_s);

    let worker_max =
        |pick: fn(&adapter::WorkerPhases) -> f64| dist.workers.iter().map(pick).fold(0.0, f64::max);
    let slowest_worker = worker_max(|w| w.frontier_s + w.walk_s + w.export_s);
    let memoized: usize = dist.workers.iter().map(|w| w.distinct_states).sum();
    trace.set("dist.frontier_s", dist.frontier_s);
    trace.set("dist.workers_wall_s", dist.workers_wall_s);
    trace.set("dist.worker_frontier_max_s", worker_max(|w| w.frontier_s));
    trace.set("dist.worker_walk_max_s", worker_max(|w| w.walk_s));
    trace.set("dist.worker_export_max_s", worker_max(|w| w.export_s));
    trace.set("dist.merge_s", dist.merge_s);
    trace.set("dist.replay_s", dist.replay_s);
    trace.set("dist.report_s", dist.report_s);
    trace.set(
        "dist.launch_overhead_s",
        dist.workers_wall_s - slowest_worker,
    );
    trace.set("dist.degraded", dist.degraded as f64);
    trace.set(
        "dist.duplicate_share",
        memoized as f64 / reference.distinct_states as f64 - 1.0,
    );

    let (verdict, seconds) = trace.timed("engine:dist2-in-process", || {
        problem.explore_dist2_in_process(scratch.path())
    })?;
    trace.set("dist.inproc_s", seconds);
    trace.check(
        "dist2 in process",
        workload::same_report(&verdict, &reference),
    );
    let ((verdict, steals), seconds) =
        trace.timed("engine:elastic", || problem.explore_elastic(scratch.path()))?;
    trace.set("dist.elastic_s", seconds);
    trace.set("dist.elastic_steals", steals as f64);
    trace.check("elastic", workload::same_report(&verdict, &reference));

    while samples.len() < UNTRACED_SAMPLES {
        let (_, _, seconds) =
            trace.exploration(&format!("engine:{}", traced.name()), traced, || {
                traced.explore(problem, scratch.path())
            })?;
        samples.push(seconds);
    }
    trace.set("run.verdict_median_s", stats::median(&samples));
    trace.set("run.samples", samples.len() as f64);
    trace.set(
        "run.raw_states_per_s",
        RAW_STATES as f64 / samples[stats::argmin(&samples)],
    );
    trace.tracer.end(engines, 1);
    Ok(reference)
}

/// Turns the phases the distributed engine reported into child spans of
/// the exploration that produced them: coordinator phases in sequence, the
/// workers side by side under the worker phase.
fn dist_spans(tracer: &mut Tracer, exploration: usize, phases: &DistPhases) {
    tracer.add_phase(exploration, "dist.frontier", 0.0, phases.frontier_s);
    let workers = tracer.add_phase(
        exploration,
        "dist.workers_wall",
        phases.frontier_s,
        phases.workers_wall_s,
    );
    for (i, worker) in phases.workers.iter().enumerate() {
        let mut offset = 0.0;
        for (phase, seconds) in [
            ("frontier", worker.frontier_s),
            ("walk", worker.walk_s),
            ("export", worker.export_s),
        ] {
            tracer.add_phase(workers, &format!("dist.worker{i}.{phase}"), offset, seconds);
            offset += seconds;
        }
    }
    // Imports happen as workers finish, at the end of the worker phase.
    tracer.add_phase(
        workers,
        "dist.merge",
        phases.workers_wall_s - phases.merge_s,
        phases.merge_s,
    );
    let replay_at = phases.frontier_s + phases.workers_wall_s;
    tracer.add_phase(exploration, "dist.replay", replay_at, phases.replay_s);
    tracer.add_phase(
        exploration,
        "dist.report",
        replay_at + phases.replay_s,
        phases.report_s,
    );
}

/// One iteration of the traced workload under the counting allocator.
fn traced_workload_rows(
    trace: &mut Trace,
    problem: &Problem,
    workload: Workload,
    scratch: &Scratch,
    reference: &Verdict,
) -> Result<(), String> {
    let (mut allocations, mut bytes) = (0, 0);
    let (verdict, _, seconds) =
        trace.exploration(&format!("traced:{}", workload.name()), workload, || {
            let (result, counted_allocations, counted_bytes) =
                alloc::counted(|| workload.explore(problem, scratch.path()));
            (allocations, bytes) = (counted_allocations, counted_bytes);
            result
        })?;
    trace.check(workload.name(), workload.check_against(&verdict, reference));
    trace.set(
        "explorer.ns_per_raw_state",
        seconds * 1e9 / RAW_STATES as f64,
    );
    trace.set(
        "explorer.allocs_per_state",
        allocations as f64 / RAW_STATES as f64,
    );
    trace.set(
        "explorer.alloc_bytes_per_state",
        bytes as f64 / RAW_STATES as f64,
    );
    let untraced = trace.values["run.verdict_median_s"];
    trace.set("trace.overhead_share", seconds / untraced);
    Ok(())
}

/// Rows at sizes below (8,7): the fixed-cost guards, the same-run engine
/// ratios, the cache and checkpoint layers, the classic-model baselines.
fn small_system_rows(trace: &mut Trace, seed: u64, scratch: &Scratch) -> Result<(), String> {
    let small = trace.tracer.begin("small-systems");

    let six = Problem::crw(6, 5, seed)?;
    let mut n6_s = f64::INFINITY;
    for _ in 0..RATIO_ROUNDS {
        let (verdict, seconds) = trace.timed("engine6:serial", || walk(&six, &Engine::serial()))?;
        trace.check(
            "(6,5) serial",
            workload::paper_invariants(&verdict, six.t()),
        );
        n6_s = n6_s.min(seconds);
    }
    trace.set("explorer.n6_s", n6_s);

    // Serial against the budget-arbited, two-thread and depth-limited
    // donation drivers: interleaved, best of each, so a slow phase of the
    // machine hits all four alike.
    let seven = Problem::crw(7, 6, seed)?;
    let threads2 = Engine {
        threads: 2,
        ..Engine::serial()
    };
    let drivers = [
        ("serial", Engine::serial()),
        (
            "stepped",
            Engine {
                stepped: true,
                ..Engine::serial()
            },
        ),
        ("threads2", threads2.clone()),
        (
            "donate2",
            Engine {
                donate_depth: Some(2),
                ..threads2
            },
        ),
    ];
    let mut best = [f64::INFINITY; 4];
    let mut serial7: Option<Verdict> = None;
    for _ in 0..RATIO_ROUNDS {
        for (slot, (name, engine)) in drivers.iter().enumerate() {
            let (verdict, seconds) =
                trace.timed(&format!("engine7:{name}"), || walk(&seven, engine))?;
            best[slot] = best[slot].min(seconds);
            let reference = serial7.get_or_insert_with(|| verdict.clone());
            let checked = workload::paper_invariants(&verdict, seven.t())
                .and_then(|()| workload::same_report(&verdict, reference));
            trace.check(&format!("(7,6) {name}"), checked);
        }
    }
    let serial7 = serial7.expect("the serial driver ran");
    trace.set("explorer.n7_s", best[0]);
    trace.set("explorer.stepped_over_serial", best[1] / best[0]);
    trace.set("explorer.threads2_over_serial", best[2] / best[0]);
    trace.set("explorer.donate2_over_serial", best[3] / best[0]);

    // Persistent cache: one cold run writes it, one warm run is answered
    // by it entirely; its sealed segments feed the validation row.
    let cache_dir = scratch.subdir("cache")?;
    let cached = |write: bool| Engine {
        cache: Some((cache_dir.clone(), write)),
        ..Engine::serial()
    };
    let (verdict, seconds) = trace.timed("cache.prime", || walk(&seven, &cached(true)))?;
    trace.set("cache.prime_s", seconds);
    trace.set(
        "cache.bytes_per_state",
        scratch::dir_bytes(&cache_dir) as f64 / verdict.distinct_states as f64,
    );
    trace.check("cache prime", workload::same_report(&verdict, &serial7));
    let (verdict, seconds) = trace.timed("cache.warm", || walk(&seven, &cached(false)))?;
    trace.set("cache.warm_s", seconds);
    let fully_warm = if verdict.cache_hits == verdict.distinct_states {
        workload::same_report(&verdict, &serial7)
    } else {
        Err(format!(
            "warm run hit the cache for {} of {} states",
            verdict.cache_hits, verdict.distinct_states
        ))
    };
    trace.check("cache warm", fully_warm);
    let mut segment_bytes = 0;
    let ns = trace.micro_reps("spill.validate", |reps| {
        for _ in 0..reps {
            segment_bytes = adapter::validate_segments(&cache_dir)?;
        }
        Ok(reps as u64)
    })?;
    trace.set(
        "spill.validate_mib_per_s",
        segment_bytes as f64 / MIB / (ns * 1e-9),
    );

    // Checkpoint: a step budget suspends the walk, a second call resumes it
    // to the identical report.
    let checkpoint_dir = scratch.subdir("checkpoint")?;
    let suspended = Engine {
        max_steps: Some(CHECKPOINT_STEPS),
        checkpoint: Some(checkpoint_dir.clone()),
        ..Engine::serial()
    };
    let (interrupted, seconds) = trace.timed("checkpoint.suspend", || {
        Ok(matches!(
            seven.explore(&suspended),
            Err(WalkError::Interrupted)
        ))
    })?;
    trace.set("checkpoint.suspend_s", seconds);
    trace.set(
        "checkpoint.bytes",
        scratch::dir_bytes(&checkpoint_dir) as f64,
    );
    let resumed = Engine {
        max_steps: None,
        ..suspended
    };
    let (verdict, seconds) = trace.timed("checkpoint.resume", || walk(&seven, &resumed))?;
    trace.set("checkpoint.resume_s", seconds);
    let checked = if interrupted {
        workload::same_report(&verdict, &serial7)
    } else {
        Err(format!(
            "a budget of {CHECKPOINT_STEPS} steps did not suspend the walk"
        ))
    };
    trace.check("checkpoint resume", checked);

    for (metric, name, explore) in [
        (
            "explorer.floodset5_s",
            "floodset5",
            adapter::explore_floodset as fn(usize) -> Result<Verdict, WalkError>,
        ),
        (
            "explorer.earlystop5_s",
            "earlystop5",
            adapter::explore_earlystop,
        ),
    ] {
        let (verdict, seconds) = trace.timed(&format!("baseline:{name}"), || {
            explore(5).map_err(|e| e.message())
        })?;
        trace.set(metric, seconds);
        let holds = if verdict.violating {
            Err("the specification is violated on some execution".to_string())
        } else {
            Ok(())
        };
        trace.check(name, holds);
    }

    trace.tracer.end(small, 1);
    Ok(())
}
