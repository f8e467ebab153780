//! CLI plumbing for multi-process partitioned exploration of the CRW
//! algorithm — the `twostep-dist` coordinator binary and its worker half.
//!
//! The distributed engine in `twostep_modelcheck::dist` is
//! protocol-generic but process-agnostic: the coordinator launches
//! workers through a closure.  OS-process deployment needs one concrete
//! decision — how a worker process learns *which* exploration to run —
//! and this module pins it for the canonical bench workload (CRW with
//! binary proposals `i % 2`): the coordinator re-executes **its own
//! binary** with a `--dist-worker` argument vector describing the system
//! and the partition, and the worker half of `main` recognizes it before
//! doing anything else.  No network, no serialization of protocol
//! objects across the wire — both sides reconstruct the identical
//! initial configuration from `(n, t)` and deterministically agree on
//! the frontier split.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use twostep_core::crw_processes;
use twostep_model::{SystemConfig, WideValue};
use twostep_modelcheck::{
    explore_elastic_timed, explore_partitioned_timed, run_worker, run_worker_elastic, CacheConfig,
    CheckpointConfig, DistOptions, DistTimings, ElasticExit, ElasticStats, ElasticTask,
    ExploreConfig, ExploreError, ExploreOptions, ExploreReport, FaultPlan, MemoConfig, StealConfig,
    SuperviseConfig, Symmetry, WalkBudget, WorkerFault, WorkerPulse, WorkerTask,
};
use twostep_sim::CancelToken;

/// `eprintln!` in one `write_all`, newline included.  Worker processes
/// and their coordinator share one stderr, and `eprintln!` writes a line
/// piece by piece, so lines printed at once cut into each other.
macro_rules! say {
    ($($arg:tt)*) => {{
        let line = format!("{}\n", format_args!($($arg)*));
        let _ = std::io::Write::write_all(&mut std::io::stderr(), line.as_bytes());
    }};
}

/// Argv marker that switches a binary into worker mode.
pub const WORKER_FLAG: &str = "--dist-worker";

/// Argv marker that switches a binary into *elastic* worker mode.
pub const WORKER_ELASTIC_FLAG: &str = "--dist-elastic-worker";

/// What every CRW worker — classic or elastic — needs to rebuild the
/// run it belongs to: the head both argv forms share.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrwRunArgs {
    /// System size.
    pub n: usize,
    /// Resilience bound.
    pub t: usize,
    /// Worker threads (memo sharding only for an elastic worker, whose
    /// walk is single-threaded).
    pub threads: usize,
    /// Spill hot capacity (`None` = all-RAM memo).
    pub hot_capacity: Option<usize>,
    /// Distinct-state budget.
    pub max_states: usize,
    /// Symmetry-reduction mode.  Workers rebuild their `ExploreConfig`
    /// from this argv, so the mode must ride along explicitly — every
    /// process of one run has to key (and partition) configurations
    /// identically.
    pub symmetry: Symmetry,
}

impl CrwRunArgs {
    fn to_args(&self) -> Vec<String> {
        vec![
            self.n.to_string(),
            self.t.to_string(),
            self.threads.to_string(),
            self.hot_capacity.map_or("ram".into(), |h| h.to_string()),
            self.max_states.to_string(),
            self.symmetry.token().to_string(),
        ]
    }

    fn parse<'a>(it: &mut impl Iterator<Item = &'a String>) -> Option<CrwRunArgs> {
        let n = it.next()?.parse().ok()?;
        let t = it.next()?.parse().ok()?;
        let threads = it.next()?.parse().ok()?;
        let hot_raw = it.next()?;
        let hot_capacity = if hot_raw == "ram" {
            None
        } else {
            Some(hot_raw.parse().ok()?)
        };
        let max_states = it.next()?.parse().ok()?;
        // An unknown symmetry token is a parse failure, not a default.
        let symmetry = Symmetry::parse_token(it.next()?)?;
        Some(CrwRunArgs {
            n,
            t,
            threads,
            hot_capacity,
            max_states,
            symmetry,
        })
    }

    fn engine(&self) -> ExploreOptions {
        let memo = match self.hot_capacity {
            Some(hot) => MemoConfig::spill(hot),
            None => MemoConfig::all_ram(),
        };
        ExploreOptions::with_threads(self.threads).with_memo(memo)
    }

    fn config(&self, system: &SystemConfig) -> ExploreConfig {
        ExploreConfig {
            max_states: self.max_states,
            symmetry: self.symmetry,
            ..ExploreConfig::for_crw(system)
        }
    }

    /// The system and the canonical bench proposals, or — after saying
    /// so as `who` — the exit code of a process handed an invalid system.
    pub fn instance(&self, who: &str) -> Result<(SystemConfig, Vec<WideValue>), i32> {
        match SystemConfig::new(self.n, self.t) {
            Ok(system) => Ok((system, bench_proposals(self.n))),
            Err(e) => {
                say!("{who}: invalid system ({}, {}): {e}", self.n, self.t);
                Err(2)
            }
        }
    }
}

/// The argv token of an optional injected fault, and its inverse (`None`
/// for a token that is neither `nofault` nor a fault: an unknown fault is
/// a parse failure, not a silent no-op).
fn fault_token(fault: Option<WorkerFault>) -> String {
    fault.map_or("nofault".into(), |f| f.token())
}

fn parse_fault_token(raw: &str) -> Option<Option<WorkerFault>> {
    if raw == "nofault" {
        return Some(None);
    }
    WorkerFault::parse_token(raw).ok().map(Some)
}

/// Everything a CRW partition worker needs to reproduce its assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrwWorkerArgs {
    /// The run this worker belongs to.
    pub run: CrwRunArgs,
    /// Frontier depth.
    pub depth: u32,
    /// This worker's partition.
    pub partition: usize,
    /// Total partitions.
    pub partitions: usize,
    /// Where to write the sealed export segment.
    pub export_path: PathBuf,
    /// Optional seed segment to import before walking (the coordinator's
    /// consolidated cache image).
    pub seed_path: Option<PathBuf>,
    /// The coordinator-expanded frontier segment (a worker handed `None`
    /// fails loudly).
    pub frontier_path: Option<PathBuf>,
    /// Injected misbehavior for this launch (fault harness); `None` — the
    /// production case — runs clean.  The coordinator resolves the fault
    /// from its [`FaultPlan`] by `(partition, attempt)` and ships only
    /// the resolved token, so the worker needs no plan of its own.
    pub fault: Option<WorkerFault>,
}

impl CrwWorkerArgs {
    /// The argument vector (starting with [`WORKER_FLAG`]) that
    /// [`parse`](Self::parse) inverts.
    pub fn to_args(&self) -> Vec<String> {
        let path_or = |path: &Option<PathBuf>, absent: &str| {
            path.as_ref()
                .map_or(absent.to_string(), |p| p.display().to_string())
        };
        let mut args = vec![WORKER_FLAG.to_string()];
        args.extend(self.run.to_args());
        args.extend([
            self.depth.to_string(),
            self.partition.to_string(),
            self.partitions.to_string(),
            self.export_path.display().to_string(),
            path_or(&self.seed_path, "unseeded"),
            path_or(&self.frontier_path, "nofrontier"),
            fault_token(self.fault),
        ]);
        args
    }

    /// Parses an argument vector produced by [`to_args`](Self::to_args);
    /// `None` if `args` is not a worker invocation.
    pub fn parse(args: &[String]) -> Option<CrwWorkerArgs> {
        let mut it = args.iter();
        if it.next().map(String::as_str) != Some(WORKER_FLAG) {
            return None;
        }
        let path_unless = |raw: &String, absent: &str| (raw != absent).then(|| PathBuf::from(raw));
        let parsed = CrwWorkerArgs {
            run: CrwRunArgs::parse(&mut it)?,
            depth: it.next()?.parse().ok()?,
            partition: it.next()?.parse().ok()?,
            partitions: it.next()?.parse().ok()?,
            export_path: PathBuf::from(it.next()?),
            seed_path: path_unless(it.next()?, "unseeded"),
            frontier_path: path_unless(it.next()?, "nofrontier"),
            fault: parse_fault_token(it.next()?)?,
        };
        it.next().is_none().then_some(parsed)
    }
}

/// The canonical bench proposals: `p_{i+1}` proposes bit `i % 2`.
pub fn bench_proposals(n: usize) -> Vec<WideValue> {
    (0..n).map(|i| WideValue::new(1, (i % 2) as u64)).collect()
}

/// Runs one CRW partition worker from parsed args; the body of a worker
/// process.  Returns the process exit code.
pub fn run_crw_worker(args: &CrwWorkerArgs) -> i32 {
    let (system, proposals) = match args.run.instance("dist-worker") {
        Ok(instance) => instance,
        Err(code) => return code,
    };
    // The coordinator resolved the fault before shipping it, so attempt
    // keying is already done; the cancel token is process-local — an
    // injected hang in a worker *process* ends when the coordinator's
    // launch kills the process (or the in-worker hang cap expires).
    let task = WorkerTask {
        partition: args.partition,
        partitions: args.partitions,
        depth: args.depth,
        export_path: args.export_path.clone(),
        seed_path: args.seed_path.clone(),
        frontier_path: args.frontier_path.clone(),
        attempt: 0,
        fault: args.fault,
        cancel: CancelToken::new(),
    };
    match run_worker(
        system,
        args.run.config(&system),
        args.run.engine(),
        crw_processes(&system, &proposals),
        proposals,
        &task,
    ) {
        Ok(report) => {
            say!(
                "dist-worker: partition {}/{} owned {}/{} frontier subtrees, \
                 {} distinct states ({} seeded), {} records exported",
                args.partition,
                args.partitions,
                report.owned,
                report.frontier,
                report.distinct_states,
                report.seeded,
                report.exported
            );
            // Machine-parseable phase attribution, read back by the
            // coordinator (`run_dist_crw` tails stdout).
            println!(
                "dist-worker-timing: partition={} seed={:.6} frontier={:.6} walk={:.6} export={:.6}",
                args.partition,
                report.seed_seconds,
                report.frontier_seconds,
                report.walk_seconds,
                report.export_seconds
            );
            0
        }
        Err(e) => {
            say!("dist-worker: partition {} failed: {e}", args.partition);
            1
        }
    }
}

/// If `argv` (without the program name) is a worker invocation — classic
/// partitioned or elastic — runs the worker and returns its exit code;
/// `None` means "not a worker, carry on".  Call first thing in `main` of
/// any binary that launches workers by re-executing itself.
pub fn maybe_run_dist_worker(argv: &[String]) -> Option<i32> {
    if let Some(args) = CrwWorkerArgs::parse(argv) {
        return Some(run_crw_worker(&args));
    }
    CrwElasticArgs::parse(argv)
        .as_ref()
        .map(run_crw_elastic_worker)
}

/// Everything a CRW *elastic* worker needs to reproduce its assignment.
/// Unlike [`CrwWorkerArgs`] there is no partition arithmetic: the
/// coordinator ships each worker its own pre-sliced frontier segment,
/// plus any number of seed segments (trailing argv).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrwElasticArgs {
    /// The run this worker belongs to.
    pub run: CrwRunArgs,
    /// Coordinator-assigned worker id.
    pub worker: u64,
    /// Progress-pulse cadence in walk steps.
    pub yield_every: u64,
    /// This worker's own sealed frontier segment.
    pub frontier_path: PathBuf,
    /// Where to export the fresh memo delta.
    pub export_path: PathBuf,
    /// Where to write the remaining frontier if preempted.
    pub preempt_path: PathBuf,
    /// Steal-request signal file polled every pulse.
    pub steal_flag: PathBuf,
    /// Injected misbehavior for this launch (see
    /// [`CrwWorkerArgs::fault`]).
    pub fault: Option<WorkerFault>,
    /// Seed segments to import before walking, in order.
    pub seed_paths: Vec<PathBuf>,
}

impl CrwElasticArgs {
    /// The argument vector (starting with [`WORKER_ELASTIC_FLAG`]) that
    /// [`parse`](Self::parse) inverts.
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![WORKER_ELASTIC_FLAG.to_string()];
        args.extend(self.run.to_args());
        args.extend([
            self.worker.to_string(),
            self.yield_every.to_string(),
            self.frontier_path.display().to_string(),
            self.export_path.display().to_string(),
            self.preempt_path.display().to_string(),
            self.steal_flag.display().to_string(),
            fault_token(self.fault),
        ]);
        args.extend(self.seed_paths.iter().map(|p| p.display().to_string()));
        args
    }

    /// Parses an argument vector produced by [`to_args`](Self::to_args);
    /// `None` if `args` is not an elastic worker invocation.
    pub fn parse(args: &[String]) -> Option<CrwElasticArgs> {
        let mut it = args.iter();
        if it.next().map(String::as_str) != Some(WORKER_ELASTIC_FLAG) {
            return None;
        }
        Some(CrwElasticArgs {
            run: CrwRunArgs::parse(&mut it)?,
            worker: it.next()?.parse().ok()?,
            yield_every: it.next()?.parse().ok()?,
            frontier_path: PathBuf::from(it.next()?),
            export_path: PathBuf::from(it.next()?),
            preempt_path: PathBuf::from(it.next()?),
            steal_flag: PathBuf::from(it.next()?),
            fault: parse_fault_token(it.next()?)?,
            seed_paths: it.map(PathBuf::from).collect(),
        })
    }
}

/// Runs one CRW elastic worker from parsed args; the body of an elastic
/// worker process.  Emits one `dist-progress:` line per pulse and a
/// final `dist-elastic:` outcome line on stdout (flushed per line — the
/// coordinator tails the pipe live).  Returns the process exit code.
pub fn run_crw_elastic_worker(args: &CrwElasticArgs) -> i32 {
    let (system, proposals) = match args.run.instance("dist-elastic-worker") {
        Ok(instance) => instance,
        Err(code) => return code,
    };
    let task = ElasticTask {
        worker: args.worker,
        seed_paths: args.seed_paths.clone(),
        frontier_path: args.frontier_path.clone(),
        export_path: args.export_path.clone(),
        preempt_path: args.preempt_path.clone(),
        steal_flag: args.steal_flag.clone(),
        yield_every: args.yield_every,
        fault: args.fault,
        cancel: CancelToken::new(),
    };
    let pulse = |p: WorkerPulse| {
        // Block-buffered when piped; flush per pulse or the coordinator's
        // load estimates lag an entire buffer behind reality.
        let mut out = std::io::stdout().lock();
        let _ = writeln!(out, "{}", pulse_line(&p));
        let _ = out.flush();
    };
    match run_worker_elastic(
        system,
        args.run.config(&system),
        args.run.engine(),
        crw_processes(&system, &proposals),
        proposals,
        &task,
        &pulse,
    ) {
        Ok(exit) => {
            println!(
                "dist-elastic: outcome={}",
                match exit {
                    ElasticExit::Finished => "finished",
                    ElasticExit::Preempted => "preempted",
                }
            );
            0
        }
        Err(e) => {
            say!("dist-elastic-worker: worker {} failed: {e}", args.worker);
            1
        }
    }
}

/// How one line of worker stdout classifies for the coordinator's tailer.
#[derive(Debug, PartialEq)]
enum PulseLine {
    /// A well-formed progress pulse.
    Pulse(WorkerPulse),
    /// Claimed to be a pulse (`dist-progress:` prefix) but is missing or
    /// mangling a required field — truncated by a dying process, garbage
    /// on a shared pipe, or a future dialect this coordinator doesn't
    /// speak.  Skipped, with one warning per worker launch: a garbled
    /// pulse must never kill the run, and a pulse storm must never spam
    /// the log.
    Garbled,
    /// Anything else a worker prints (status lines, the outcome line).
    NotAPulse,
}

/// The `dist-progress:` line a worker prints for one pulse;
/// [`classify_pulse_line`] reads it back.
fn pulse_line(p: &WorkerPulse) -> String {
    format!(
        "dist-progress: worker={} steps={} frontier={} fresh={}",
        p.worker, p.steps, p.frontier, p.fresh
    )
}

/// The value of `line`'s first `key=value` token, if it parses.
fn field<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
    line.split_whitespace()
        .find_map(|token| token.strip_prefix(key)?.strip_prefix('='))?
        .parse()
        .ok()
}

/// Classifies one worker stdout line.  Unknown `key=value` tokens are
/// ignored, so a *future* worker adding fields still parses — only a
/// line missing a required field is garbled.
fn classify_pulse_line(line: &str) -> PulseLine {
    let Some(rest) = line.strip_prefix("dist-progress:") else {
        return PulseLine::NotAPulse;
    };
    match (
        field(rest, "worker"),
        field(rest, "steps"),
        field(rest, "frontier"),
        field(rest, "fresh"),
    ) {
        (Some(worker), Some(steps), Some(frontier), Some(fresh)) => PulseLine::Pulse(WorkerPulse {
            worker,
            steps,
            frontier,
            fresh,
        }),
        _ => PulseLine::Garbled,
    }
}

/// Parses the final `dist-elastic:` outcome line.
fn parse_outcome_line(line: &str) -> Option<ElasticExit> {
    match line.strip_prefix("dist-elastic: outcome=")?.trim() {
        "finished" => Some(ElasticExit::Finished),
        "preempted" => Some(ElasticExit::Preempted),
        _ => None,
    }
}

/// One worker's phase attribution, parsed back from its stdout.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkerPhaseSeconds {
    /// Importing the seed segment.
    pub seed: f64,
    /// Rebuilding its slice of the frontier segment.
    pub frontier: f64,
    /// Walking the owned subtrees.
    pub walk: f64,
    /// Exporting the delta segment.
    pub export: f64,
}

/// Extracts the phase attribution a worker printed on its stdout.
fn parse_worker_timing(stdout: &str) -> Option<WorkerPhaseSeconds> {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("dist-worker-timing:"))?;
    Some(WorkerPhaseSeconds {
        seed: field(line, "seed")?,
        frontier: field(line, "frontier")?,
        walk: field(line, "walk")?,
        export: field(line, "export")?,
    })
}

/// Runs one worker process — `exe` re-executed with `args` — to its exit,
/// handing every line of its stdout to `on_line` as it arrives (its
/// stderr passes straight through).  A watcher kills the process as soon
/// as `cancel` trips: the coordinator's attempt timeout and pulse
/// watchdog must be able to end a hung worker, and a failing run its
/// survivors, and the tailer blocks on the pipe and cannot poll.  Killing the child closes the pipe, which
/// unblocks the tailer.  Anything but a clean, uncancelled exit is a
/// retryable launch failure.
fn run_child(
    exe: &Path,
    args: Vec<String>,
    cancel: &CancelToken,
    mut on_line: impl FnMut(&str),
) -> Result<(), String> {
    let mut child = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning worker process: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let child = Mutex::new(child);
    let done = AtomicBool::new(false);
    let status = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                if cancel.is_cancelled() {
                    let _ = child.lock().expect("child poisoned").kill();
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        let tail = || -> Result<ExitStatus, String> {
            for line in BufReader::new(stdout).lines() {
                on_line(&line.map_err(|e| format!("reading worker pipe: {e}"))?);
            }
            let mut child = child.lock().expect("child poisoned");
            child.wait().map_err(|e| format!("waiting for worker: {e}"))
        };
        let status = tail();
        done.store(true, Ordering::Relaxed);
        if status.is_err() {
            let mut child = child.lock().expect("child poisoned");
            let _ = child.kill();
            let _ = child.wait();
        }
        status
    })?;
    if cancel.is_cancelled() {
        return Err("worker killed by the supervisor (timeout/watchdog)".to_string());
    }
    if !status.success() {
        return Err(format!("worker process exited with {status}"));
    }
    Ok(())
}

/// One multi-process CRW exploration, as `twostep-dist` asks for it.
#[derive(Clone, Debug)]
pub struct DistRequest {
    /// The system, the workers' engine, the budget and symmetry mode of
    /// the whole run — coordinator and workers.
    pub run: CrwRunArgs,
    /// Worker processes (frontier partitions, or elastic capacity).
    pub partitions: usize,
    /// Frontier depth of the partitioned engine.
    pub depth: u32,
    /// Persistent result cache (read-write): the coordinator seeds
    /// itself and every worker from it, and commits the run's delta
    /// back.
    pub cache_dir: Option<PathBuf>,
    /// Governs the coordinator pipeline (the deadline clock spans seed,
    /// workers, merge, and replay; workers themselves walk unbounded).
    pub budget: WalkBudget,
    /// Makes a budget suspension resumable — rerun with the same
    /// directory to continue.
    pub checkpoint_dir: Option<PathBuf>,
    /// [`StealConfig::enabled`] selects the elastic engine: the
    /// coordinator walks locally and offloads only when the policy says
    /// the run is big enough.  Off is the partitioned engine.
    pub steal: StealConfig,
    /// Injected faults.
    pub faults: FaultPlan,
    /// Worker-lifecycle supervision.
    pub supervise: SuperviseConfig,
}

impl DistRequest {
    /// A clean two-process partitioned `(n, t)` run: depth 1, all-RAM
    /// one-thread workers, symmetry off, no cache, no budget, no faults.
    pub fn new(n: usize, t: usize) -> Self {
        DistRequest {
            run: CrwRunArgs {
                n,
                t,
                threads: 1,
                hot_capacity: None,
                max_states: 50_000_000,
                symmetry: Symmetry::Off,
            },
            partitions: 2,
            depth: 1,
            cache_dir: None,
            budget: WalkBudget::unlimited(),
            checkpoint_dir: None,
            steal: StealConfig::default(),
            faults: FaultPlan::none(),
            supervise: SuperviseConfig::default(),
        }
    }
}

/// The outcome and timing breakdown of [`run_dist_crw`].
pub struct DistRun {
    /// The merged report (bit-identical to the serial walk).
    pub report: ExploreReport<WideValue>,
    /// End-to-end wall time: workers + validation + merge + replay.
    pub total_seconds: f64,
    /// Coordinator-side phase attribution (seed, worker wall, merge,
    /// replay, report).
    pub timings: DistTimings,
    /// What the elastic plan's scheduling did (all zero for a partitioned
    /// run, whose degraded slices are counted in
    /// [`DistTimings::degraded_partitions`], as an elastic run's are too).
    pub stats: ElasticStats,
    /// Worker-reported seconds per phase, max across the workers of a
    /// partitioned run (they run concurrently, so the max approximates
    /// the phase's wall-clock share); zero for an elastic run.
    pub worker_phases: WorkerPhaseSeconds,
}

/// Runs a `(n, t)` CRW exploration across worker OS processes
/// (re-executions of the current binary), merging their exported
/// segments and replaying the canonical walk in this process.  `system`
/// and `proposals` are `request.run`'s [`CrwRunArgs::instance`], which
/// the workers resolve the same way.
pub fn run_dist_crw(
    request: &DistRequest,
    system: SystemConfig,
    proposals: Vec<WideValue>,
) -> Result<DistRun, ExploreError> {
    let run = &request.run;
    let config = run.config(&system);
    let exe = std::env::current_exe().map_err(|e| ExploreError::Coordinator {
        detail: format!("cannot locate own binary for re-exec: {e}"),
    })?;
    let options = DistOptions {
        partitions: request.partitions,
        depth: request.depth,
        attempts: 3,
        scratch_dir: None,
        replay: ExploreOptions::serial()
            .with_budget(request.budget.clone())
            .with_checkpoint(request.checkpoint_dir.clone().map(CheckpointConfig::at)),
        cache: request.cache_dir.clone().map(CacheConfig::read_write),
        steal: request.steal.clone(),
        faults: request.faults.clone(),
        supervise: request.supervise,
    };
    // Each partition's one successful launch files its phases here.
    let worker_phases = Mutex::new(WorkerPhaseSeconds::default());
    let launch = |task: &WorkerTask| {
        let args = CrwWorkerArgs {
            run: run.clone(),
            depth: task.depth,
            partition: task.partition,
            partitions: task.partitions,
            export_path: task.export_path.clone(),
            seed_path: task.seed_path.clone(),
            frontier_path: task.frontier_path.clone(),
            fault: task.fault,
        };
        let mut timing = None;
        run_child(&exe, args.to_args(), &task.cancel, |line| {
            timing = parse_worker_timing(line).or(timing);
        })?;
        let mine = timing.unwrap_or_default();
        let mut max = worker_phases.lock().expect("worker phases poisoned");
        max.seed = max.seed.max(mine.seed);
        max.frontier = max.frontier.max(mine.frontier);
        max.walk = max.walk.max(mine.walk);
        max.export = max.export.max(mine.export);
        Ok(())
    };
    let launch_elastic = |task: &ElasticTask, pulse: &(dyn Fn(WorkerPulse) + Sync)| {
        let args = CrwElasticArgs {
            run: run.clone(),
            worker: task.worker,
            yield_every: task.yield_every,
            frontier_path: task.frontier_path.clone(),
            export_path: task.export_path.clone(),
            preempt_path: task.preempt_path.clone(),
            steal_flag: task.steal_flag.clone(),
            fault: task.fault,
            seed_paths: task.seed_paths.clone(),
        };
        let mut outcome = None;
        let mut warned_garbled = false;
        run_child(
            &exe,
            args.to_args(),
            &task.cancel,
            |line| match classify_pulse_line(line) {
                PulseLine::Pulse(p) => pulse(p),
                PulseLine::Garbled if !warned_garbled => {
                    warned_garbled = true;
                    say!(
                        "dist-elastic: worker {}: ignoring garbled progress \
                         line {line:?} (warning once per launch)",
                        task.worker
                    );
                }
                PulseLine::Garbled => {}
                PulseLine::NotAPulse => outcome = parse_outcome_line(line).or(outcome),
            },
        )?;
        outcome.ok_or_else(|| "worker exited without reporting an outcome".to_string())
    };
    let initial = crw_processes(&system, &proposals);
    let start = Instant::now();
    let (report, timings, stats) = if request.steal.enabled {
        explore_elastic_timed(system, config, &options, initial, proposals, launch_elastic)?
    } else {
        explore_partitioned_timed(system, config, &options, initial, proposals, launch)
            .map(|(report, timings)| (report, timings, ElasticStats::default()))?
    };
    let total_seconds = start.elapsed().as_secs_f64();
    Ok(DistRun {
        report,
        total_seconds,
        timings,
        stats,
        worker_phases: worker_phases.into_inner().expect("worker phases poisoned"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn worker_args_roundtrip() {
        let args = CrwWorkerArgs {
            run: CrwRunArgs {
                n: 6,
                t: 5,
                threads: 4,
                hot_capacity: Some(1024),
                max_states: 50_000_000,
                symmetry: Symmetry::PartialValue,
            },
            depth: 1,
            partition: 1,
            partitions: 2,
            export_path: PathBuf::from("/tmp/worker1.seg"),
            seed_path: Some(PathBuf::from("/tmp/seed.seg")),
            frontier_path: Some(PathBuf::from("/tmp/frontier.seg")),
            fault: None,
        };
        assert_eq!(CrwWorkerArgs::parse(&args.to_args()), Some(args.clone()));
        let ram = CrwWorkerArgs {
            run: CrwRunArgs {
                hot_capacity: None,
                symmetry: Symmetry::Off,
                ..args.run.clone()
            },
            seed_path: None,
            frontier_path: None,
            ..args.clone()
        };
        assert_eq!(CrwWorkerArgs::parse(&ram.to_args()), Some(ram));
        // Every injected-fault token rides the argv unchanged.
        for fault in [
            WorkerFault::CrashAt(twostep_modelcheck::WorkerPhase::Walk),
            WorkerFault::HangAt(twostep_modelcheck::WorkerPhase::Export),
            WorkerFault::CorruptExport,
            WorkerFault::TruncateExport,
            WorkerFault::SlowIo(25),
            WorkerFault::LyingProgress,
        ] {
            let faulty = CrwWorkerArgs {
                fault: Some(fault),
                ..args.clone()
            };
            assert_eq!(
                CrwWorkerArgs::parse(&faulty.to_args()),
                Some(faulty.clone())
            );
        }
        // An unknown fault token is a parse failure, not a silent no-op.
        let mut mangled = args.to_args();
        let slot = mangled.iter().position(|a| a == "nofault").unwrap();
        mangled[slot] = "explode@never".to_string();
        assert_eq!(CrwWorkerArgs::parse(&mangled), None);
        // An unknown symmetry token is a parse failure, not a default:
        // silently falling back to `Off` would make one worker partition
        // the frontier differently from the rest of the run.
        let mut mangled = args.to_args();
        let slot = mangled.iter().position(|a| a == "partial+value").unwrap();
        mangled[slot] = "sideways".to_string();
        assert_eq!(CrwWorkerArgs::parse(&mangled), None);
    }

    #[test]
    fn worker_timing_line_roundtrips() {
        let stdout = "dist-worker: partition 0/2 ...\n\
                      dist-worker-timing: partition=0 seed=0.001000 frontier=0.002000 \
                      walk=1.500000 export=0.250000\n";
        assert_eq!(
            parse_worker_timing(stdout),
            Some(WorkerPhaseSeconds {
                seed: 0.001,
                frontier: 0.002,
                walk: 1.5,
                export: 0.25,
            })
        );
        assert_eq!(parse_worker_timing("no timing here"), None);
        assert_eq!(
            parse_worker_timing("dist-worker-timing: partition=0 seed=x"),
            None,
            "mangled values must not parse"
        );
    }

    #[test]
    fn non_worker_argv_is_ignored() {
        assert_eq!(CrwWorkerArgs::parse(&[]), None);
        assert_eq!(CrwWorkerArgs::parse(&["--quick".to_string()]), None);
        assert_eq!(maybe_run_dist_worker(&["--out".to_string()]), None);
        // A mangled worker vector parses to None rather than panicking.
        let mut broken = CrwWorkerArgs {
            run: CrwRunArgs {
                n: 4,
                t: 2,
                threads: 1,
                hot_capacity: None,
                max_states: 1000,
                symmetry: Symmetry::Off,
            },
            depth: 1,
            partition: 0,
            partitions: 2,
            export_path: PathBuf::from("x"),
            seed_path: None,
            frontier_path: None,
            fault: None,
        }
        .to_args();
        broken.truncate(4);
        assert_eq!(CrwWorkerArgs::parse(&broken), None);
    }

    #[test]
    fn elastic_args_roundtrip() {
        let args = CrwElasticArgs {
            run: CrwRunArgs {
                n: 6,
                t: 5,
                threads: 2,
                hot_capacity: Some(4096),
                max_states: 50_000_000,
                symmetry: Symmetry::PartialValue,
            },
            worker: 7,
            yield_every: 2048,
            frontier_path: PathBuf::from("/tmp/f7.seg"),
            export_path: PathBuf::from("/tmp/e7.seg"),
            preempt_path: PathBuf::from("/tmp/p7.seg"),
            steal_flag: PathBuf::from("/tmp/s7.flag"),
            fault: None,
            seed_paths: vec![
                PathBuf::from("/tmp/seed0.seg"),
                PathBuf::from("/tmp/d1.seg"),
            ],
        };
        assert_eq!(CrwElasticArgs::parse(&args.to_args()), Some(args.clone()));
        // A fault token rides along without eating the trailing
        // variadic seed paths.
        let faulty = CrwElasticArgs {
            fault: Some(WorkerFault::SlowIo(5)),
            ..args.clone()
        };
        assert_eq!(CrwElasticArgs::parse(&faulty.to_args()), Some(faulty));
        let unseeded = CrwElasticArgs {
            run: CrwRunArgs {
                hot_capacity: None,
                symmetry: Symmetry::Off,
                ..args.run.clone()
            },
            seed_paths: Vec::new(),
            ..args
        };
        assert_eq!(CrwElasticArgs::parse(&unseeded.to_args()), Some(unseeded));
        // The two worker argv dialects never cross-parse.
        assert_eq!(CrwElasticArgs::parse(&["--dist-worker".to_string()]), None);
    }

    #[test]
    fn progress_lines_roundtrip() {
        let PulseLine::Pulse(p) =
            classify_pulse_line("dist-progress: worker=3 steps=4096 frontier=17 fresh=900")
        else {
            panic!("pulse parses");
        };
        assert_eq!((p.worker, p.steps, p.frontier, p.fresh), (3, 4096, 17, 900));
        assert_eq!(classify_pulse_line("unrelated"), PulseLine::NotAPulse);
        assert_eq!(classify_pulse_line(""), PulseLine::NotAPulse);
        assert_eq!(
            parse_outcome_line("dist-elastic: outcome=finished"),
            Some(ElasticExit::Finished)
        );
        assert_eq!(
            parse_outcome_line("dist-elastic: outcome=preempted"),
            Some(ElasticExit::Preempted)
        );
        assert_eq!(parse_outcome_line("dist-elastic: outcome=sideways"), None);
    }

    #[test]
    fn garbled_progress_lines_classify_as_garbled_not_fatal() {
        // Mangled value.
        assert_eq!(
            classify_pulse_line("dist-progress: worker=3 steps=x frontier=1 fresh=1"),
            PulseLine::Garbled
        );
        // Truncated mid-line, as a dying process would leave it.
        assert_eq!(
            classify_pulse_line("dist-progress: worker=3 ste"),
            PulseLine::Garbled
        );
        // Prefix only.
        assert_eq!(classify_pulse_line("dist-progress:"), PulseLine::Garbled);
        // Binary garbage after the prefix.
        assert_eq!(
            classify_pulse_line("dist-progress: \u{1}\u{2}\u{3}"),
            PulseLine::Garbled
        );
    }

    #[test]
    fn future_versioned_pulse_with_extra_fields_still_parses() {
        // A newer worker appending fields must not strand an older
        // coordinator: unknown keys are skipped, required keys decide.
        let line = "dist-progress: v=2 worker=9 steps=64 frontier=5 fresh=40 spilled=3";
        let PulseLine::Pulse(p) = classify_pulse_line(line) else {
            panic!("future-versioned pulse still parses");
        };
        assert_eq!((p.worker, p.steps, p.frontier, p.fresh), (9, 64, 5, 40));
        // ...but a future line *dropping* a required field is garbled.
        assert_eq!(
            classify_pulse_line("dist-progress: v=3 worker=9 progress=0.5"),
            PulseLine::Garbled
        );
    }

    /// A piece of text near the pulse grammar: its prefix, field keys,
    /// separators and numbers — one past `u64::MAX` among them — or an
    /// arbitrary char.
    fn pulse_piece() -> impl Strategy<Value = String> {
        const PIECES: &str = "dist-progress:| |\t|=|worker=|steps=|frontier=|fresh=|v=|-|+|\
            0|18446744073709551616";
        let pieces: Vec<&str> = PIECES.split('|').collect();
        prop_oneof![
            (0..pieces.len()).prop_map(move |i| pieces[i].to_string()),
            any::<u64>().prop_map(|n| n.to_string()),
            (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('?').to_string()),
        ]
    }

    fn arb_pulse() -> impl Strategy<Value = WorkerPulse> {
        (any::<u64>(), any::<u64>(), any::<usize>(), any::<usize>()).prop_map(
            |(worker, steps, frontier, fresh)| WorkerPulse {
                worker,
                steps,
                frontier,
                fresh,
            },
        )
    }

    /// Pieces strung together, or a real pulse line with one spliced in.
    fn pulse_text() -> impl Strategy<Value = String> {
        let spliced = (arb_pulse(), pulse_piece(), any::<usize>()).prop_map(|(p, piece, at)| {
            let mut line = pulse_line(&p);
            line.insert_str(at % (line.len() + 1), &piece);
            line
        });
        prop_oneof![
            prop::collection::vec(pulse_piece(), 0..=12).prop_map(|pieces| pieces.concat()),
            spliced,
        ]
    }

    proptest! {
        /// Any line is a pulse, garbled or no pulse at all — never a
        /// panic; only the prefix makes it a claim, and a pulse it yields
        /// prints to a line that reads back to it.
        #[test]
        fn any_line_classifies(line in pulse_text()) {
            match classify_pulse_line(&line) {
                PulseLine::NotAPulse => prop_assert!(!line.starts_with("dist-progress:")),
                PulseLine::Garbled => prop_assert!(line.starts_with("dist-progress:")),
                PulseLine::Pulse(p) => {
                    prop_assert_eq!(classify_pulse_line(&pulse_line(&p)), PulseLine::Pulse(p));
                }
            }
        }

        #[test]
        fn printed_pulses_read_back(p in arb_pulse()) {
            prop_assert_eq!(classify_pulse_line(&pulse_line(&p)), PulseLine::Pulse(p));
        }
    }
}
