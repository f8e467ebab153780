//! `twostep-dist` — multi-process partitioned exploration of the CRW
//! algorithm, end to end: spawns one worker OS process per frontier
//! partition (re-executions of this binary), merges their exported memo
//! segments, replays the canonical root walk, and prints the report —
//! which is bit-identical to what the serial single-process engine would
//! produce.
//!
//! Usage: `twostep-dist [--quick] [--n N] [--t T] [--partitions K]
//!                      [--depth D] [--worker-threads W] [--spill HOT]
//!                      [--symmetry off|full|partial|partial+value]
//!                      [--cache-dir DIR]
//!                      [--max-steps S] [--deadline-ms MS]
//!                      [--checkpoint-dir DIR] [--steal]
//!                      [--steal-poll-ms MS] [--steal-min-frontier K]
//!                      [--steal-yield-every S] [--fault PLAN]
//!                      [--attempt-timeout-ms MS] [--watchdog-ms MS]
//!                      [--backoff-ms MS] [--no-degrade]`
//!
//! * default — the `(6, 5)` speedup-bench system across 2 partitions;
//! * `--quick` — the `(5, 4)` system (sub-second), used by `ci.sh`;
//! * `--steal` — the **elastic** engine: the coordinator walks locally
//!   and offloads to worker processes only when the run outlives the
//!   steal policy's thresholds, then re-balances by preempting loaded
//!   workers.  `TWOSTEP_STEAL=1|0` toggles it flaglessly (garbage values
//!   warn once and leave stealing off); the `--steal-*` knobs tune the
//!   policy and imply nothing on their own.  The `result` line is
//!   bit-identical to the classic engines — `ci.sh` asserts it;
//! * `--spill HOT` — workers run a two-tier memo with the given hot
//!   capacity instead of all-RAM;
//! * `--symmetry off|full|partial|partial+value` — symmetry reduction
//!   mode for the whole run (coordinator *and* every worker; the mode
//!   rides in the worker argv so a worker's own environment cannot
//!   diverge).  Defaults to the `TWOSTEP_SYMMETRY` env var, else `off`;
//! * `--cache-dir DIR` — persistent result cache (read-write): the
//!   coordinator and every worker warm-start from `DIR` when its
//!   fingerprint matches this run, and the run's newly discovered
//!   states are committed back as a delta segment.  Falls back to the
//!   `TWOSTEP_CACHE_DIR` env var;
//! * `--max-steps S` / `--deadline-ms MS` — walk budget for the whole
//!   coordinator pipeline (the deadline clock covers seed, workers,
//!   merge, and replay; workers walk unbounded).  Fall back to the
//!   `TWOSTEP_MAX_STEPS` / `TWOSTEP_DEADLINE_MS` env vars.  A budgeted
//!   run that suspends prints a parseable `twostep-dist: suspended`
//!   line and exits with code 3;
//! * `--checkpoint-dir DIR` — a suspended run serializes its partial
//!   memo there; rerunning with the same directory (and a looser or no
//!   budget) resumes to the bit-identical final report and consumes the
//!   artifact;
//! * `--fault PLAN` — deterministic fault injection for chaos testing
//!   (see `twostep_modelcheck::faults` for the grammar, e.g.
//!   `p0a0=crash@walk;p1a0=hang@export`).  Overrides the
//!   `TWOSTEP_FAULT` env var; an unparseable flag value is a hard
//!   error — a chaos run that silently ran clean would vacuously pass;
//! * `--attempt-timeout-ms MS` / `--watchdog-ms MS` / `--backoff-ms MS`
//!   — supervision knobs: per-attempt wall-clock cap, per-worker pulse
//!   liveness deadline (elastic engine), and the base of the
//!   deterministic exponential retry backoff.  `0` disables the two
//!   timeouts.  Fall back to `TWOSTEP_WATCHDOG_MS` / `TWOSTEP_BACKOFF_MS`;
//! * `--no-degrade` — a partition that exhausts its worker launch
//!   attempts fails the run loudly instead of being walked locally by
//!   the coordinator (the default prints a
//!   `twostep-dist: supervision degraded=N quarantined=M` line either
//!   way, which `ci.sh` asserts);
//! * worker processes are recognized by the `--dist-worker` argument
//!   vector (see `twostep_bench::distcli`) — never pass it by hand.
//!
//! Every flag with an env fallback resolves the same way: the flag when
//! it is present and parses, else the env var (which warns once on
//! garbage, like `TWOSTEP_THREADS`), else the default — and a flag whose
//! value is missing or unparseable says so before falling back, except
//! `--fault`, which is a hard error.

use std::path::PathBuf;
use std::time::Duration;

use twostep_bench::distcli::{maybe_run_dist_worker, run_dist_crw, CrwRunArgs, DistRequest};
use twostep_modelcheck::{
    budget_from_env, cache_from_env, fault_plan_from_env, steal_from_env, supervise_from_env,
    ExploreError, FaultPlan, StealConfig, SuperviseConfig, Symmetry, WalkBudget,
};

/// The value of `flag` when it is present and `parse` accepts it, else
/// `fallback()` — the env var's value, or the default.  A flag whose
/// value is missing or rejected is never silently dropped.
fn flag_or<T>(
    args: &[String],
    flag: &str,
    parse: impl Fn(&str) -> Option<T>,
    fallback: impl FnOnce() -> T,
) -> T {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return fallback();
    };
    args.get(i + 1).and_then(|v| parse(v)).unwrap_or_else(|| {
        eprintln!("twostep-dist: {flag} needs a valid value; using the env var or the default");
        fallback()
    })
}

/// [`flag_or`] for flags whose value is a plain number.
fn number_or<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    flag_or(args, flag, |v| v.parse().ok(), || default)
}

/// [`flag_or`] for millisecond flags where `0` means "off".
fn millis_or(args: &[String], flag: &str, fallback: Option<Duration>) -> Option<Duration> {
    let parse = |v: &str| {
        v.parse()
            .ok()
            .map(|ms| (ms > 0).then(|| Duration::from_millis(ms)))
    };
    flag_or(args, flag, parse, || fallback)
}

/// A directory flag's value; the next flag is not a directory.
fn directory(v: &str) -> Option<Option<PathBuf>> {
    (!v.starts_with("--")).then(|| Some(PathBuf::from(v)))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(code) = maybe_run_dist_worker(&args) {
        std::process::exit(code);
    }
    let has = |flag: &str| args.iter().any(|a| a == flag);

    let (default_n, default_t) = if has("--quick") { (5, 4) } else { (6, 5) };
    let n = number_or(&args, "--n", default_n);
    let t = number_or(&args, "--t", default_t);
    let env_budget = budget_from_env();
    let env_supervise = supervise_from_env();
    let steal_defaults = StealConfig::default();
    // The one flag that does not fall back: an unparseable `--fault` is
    // a hard error — a chaos run that silently ran clean would pass
    // vacuously.
    let faults = match args.iter().position(|a| a == "--fault") {
        None => fault_plan_from_env(),
        Some(i) => args
            .get(i + 1)
            .ok_or_else(|| "needs a plan (or 'none')".to_string())
            .and_then(|raw| FaultPlan::parse(raw).map_err(|e| format!("{raw:?}: {e}")))
            .unwrap_or_else(|e| {
                eprintln!("twostep-dist: --fault {e}");
                std::process::exit(2);
            }),
    };
    let defaults = DistRequest::new(n, t);
    let request = DistRequest {
        run: CrwRunArgs {
            threads: number_or(&args, "--worker-threads", twostep_sim::default_threads()),
            hot_capacity: Some(number_or(&args, "--spill", 0)).filter(|&hot| hot > 0),
            symmetry: flag_or(
                &args,
                "--symmetry",
                Symmetry::parse_token,
                Symmetry::from_env,
            ),
            ..defaults.run
        },
        partitions: number_or(&args, "--partitions", defaults.partitions).max(1),
        depth: number_or(&args, "--depth", defaults.depth),
        cache_dir: flag_or(&args, "--cache-dir", directory, || {
            cache_from_env().map(|c| c.dir)
        }),
        budget: WalkBudget {
            max_steps: flag_or(
                &args,
                "--max-steps",
                |v| v.parse().ok().map(Some),
                || env_budget.max_steps,
            ),
            deadline: flag_or(
                &args,
                "--deadline-ms",
                |v| v.parse().ok().map(|ms| Some(Duration::from_millis(ms))),
                || env_budget.deadline,
            ),
            ..env_budget
        },
        // Without it a budget suspension discards its partial work.
        checkpoint_dir: flag_or(&args, "--checkpoint-dir", directory, || None),
        steal: StealConfig {
            enabled: has("--steal") || steal_from_env().unwrap_or(false),
            poll_interval: Duration::from_millis(number_or(
                &args,
                "--steal-poll-ms",
                steal_defaults.poll_interval.as_millis() as u64,
            )),
            min_frontier: number_or(&args, "--steal-min-frontier", steal_defaults.min_frontier),
            yield_every: number_or(&args, "--steal-yield-every", steal_defaults.yield_every).max(1),
        },
        faults,
        supervise: SuperviseConfig {
            attempt_timeout: millis_or(
                &args,
                "--attempt-timeout-ms",
                env_supervise.attempt_timeout,
            ),
            watchdog: millis_or(&args, "--watchdog-ms", env_supervise.watchdog),
            backoff: Duration::from_millis(number_or(
                &args,
                "--backoff-ms",
                env_supervise.backoff.as_millis() as u64,
            )),
            degrade: !has("--no-degrade"),
            ..env_supervise
        },
    };
    if !request.faults.is_empty() {
        eprintln!("twostep-dist: fault plan {}", request.faults.render());
    }

    let partitions = request.partitions;
    eprintln!(
        "twostep-dist: exploring ({n}, {t}) across {partitions} worker processes \
         (depth {}, {} threads each, memo {}, symmetry {}, cache {}, steal {})",
        request.depth,
        request.run.threads,
        match request.run.hot_capacity {
            Some(h) => format!("spill@{h}"),
            None => "all-RAM".to_string(),
        },
        request.run.symmetry.token(),
        match &request.cache_dir {
            Some(dir) => dir.display().to_string(),
            None => "off".to_string(),
        },
        if request.steal.enabled { "on" } else { "off" }
    );
    let run = run_dist_crw(&request).unwrap_or_else(|e| bail(e));
    let (report, total_seconds, timings) = (&run.report, run.total_seconds, &run.timings);

    let worst = report
        .root
        .worst_round_by_f
        .iter()
        .enumerate()
        .filter_map(|(f, r)| r.map(|r| format!("f={f}:{r}")))
        .collect::<Vec<_>>()
        .join(" ");
    // Stable, machine-parseable summary line (asserted by the bench
    // crate's integration test).
    println!(
        "twostep-dist: n={n} t={t} partitions={partitions} distinct_states={} \
         terminals={} violating={} seconds={:.3} states_per_sec={:.1}",
        report.distinct_states,
        report.root.terminals,
        report.root.violating,
        total_seconds,
        report.distinct_states as f64 / total_seconds
    );
    // Timing-free result line: identical between a cold and a warm run
    // of the same system — and between the classic and elastic engines —
    // which is what `ci.sh` asserts.
    println!(
        "twostep-dist: result n={n} t={t} distinct_states={} terminals={} violating={} worst=[{worst}]",
        report.distinct_states, report.root.terminals, report.root.violating
    );
    println!(
        "twostep-dist: cache cache_hits={} fresh_states={}",
        report.cache_hits, report.fresh_states
    );
    // Engine attribution: the steal line and the workers' own phases
    // each exist for one engine only.
    let mut worker_phases = String::new();
    if request.steal.enabled {
        println!(
            "twostep-dist: steal workers={} steals={} offloaded={}",
            run.stats.workers_launched, run.stats.steals, run.stats.offloaded
        );
    } else {
        worker_phases = format!(
            "(seed<={:.3} frontier<={:.3} walk<={:.3} export<={:.3}) ",
            run.worker_phases.seed,
            run.worker_phases.frontier,
            run.worker_phases.walk,
            run.worker_phases.export
        );
    }
    println!(
        "twostep-dist: supervision degraded={} quarantined={}",
        timings.degraded_partitions, run.stats.quarantined
    );
    println!(
        "twostep-dist: phases seed={:.3} frontier={:.3} workers={:.3} {worker_phases}\
         merge={:.3} replay={:.3} report={:.3}",
        timings.seed_seconds,
        timings.frontier_seconds,
        timings.workers_wall_seconds,
        timings.merge_seconds,
        timings.replay_seconds,
        timings.report_seconds
    );
    println!("twostep-dist: worst decision round by crash count: {worst}");
}

/// Suspensions get a parseable line + dedicated exit code, so a driving
/// script can distinguish "budget ran out, resume me" from a failure.
fn bail(e: ExploreError) -> ! {
    match e {
        ExploreError::Interrupted {
            reason,
            checkpoint,
            states,
        } => {
            println!(
                "twostep-dist: suspended reason={reason} states={states} checkpoint={}",
                match &checkpoint {
                    Some(dir) => dir.display().to_string(),
                    None => "none".to_string(),
                }
            );
            std::process::exit(3);
        }
        e => {
            eprintln!("twostep-dist: {e}");
            std::process::exit(1);
        }
    }
}
