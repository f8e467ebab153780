//! The only file of the benchmark that names program symbols.
//!
//! Everything the harness does to the program goes through here, so this
//! header is the API the benchmark pins — a refactor of the library crates
//! must keep these compiling (or change this file, and nothing else of the
//! benchmark, in the same change):
//!
//! * `twostep_modelcheck`: `explore_with`, `ExploreConfig` (`for_crw`, plus
//!   every field for the classic-model baselines), `ExploreOptions`
//!   (`serial`, every field), `ExploreReport`, `ExploreError::Interrupted`,
//!   `Summary`, `Symmetry::{Off, PartialValue}`, `RoundBound`, `SpecMode`,
//!   `WalkBudget`, `MemoConfig::{all_ram, spill_to}`,
//!   `CacheConfig::{read, read_write}`, `CheckpointConfig::at`,
//!   `run_fingerprint`, `explore_partitioned_timed`,
//!   `explore_partitioned_in_process`, `explore_elastic_timed`, `run_worker`,
//!   `run_worker_elastic`, `DistOptions`, `DistTimings`, `WorkerTask`,
//!   `WorkerReport`, `ElasticTask`, `WorkerPulse`, `StealConfig`,
//!   `SuperviseConfig`, `FaultPlan::none`, `encode_summary`,
//!   `decode_summary`, `validate_segment_file`;
//! * `twostep_sim`: `Stepper` (`new`, `fork_from`, `step`,
//!   `peek_plan_shape_into`, `status`, `decisions`, `procs`, `round`,
//!   `is_quiescent`), `PlanShape`, `ProcStatus`, `RoundActions`,
//!   `ModelKind`, `TraceLevel`, `Simulation`, `CancelToken`,
//!   `run_on_workers`, `WorkQueue`;
//! * `twostep_adversary`: `crash_outcomes_effective_into`,
//!   `crash_outcome_count`, `silent_cascade`, `data_heavy_cascade`;
//! * `twostep_model`: `SystemConfig`, `WideValue`, `ProcessId`,
//!   `CrashStage`, `SpillCodec` (`encode`, `encode_relabelled`),
//!   `Canonicalizer`, and from `codec`: `stable_hash64`, `Compressor`,
//!   `decompress`;
//! * `twostep_core`: `Crw`, `crw_processes`; `twostep_baselines`:
//!   `floodset_processes`, `earlystop_processes`.
//!
//! No dependency on `twostep-bench` or its `distcli`: that launcher
//! hard-codes the `i % 2` proposals, so the benchmark brings its own (worker
//! processes are re-executions of this binary that get the seed in argv).

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Mutex;
use std::time::Duration;

use twostep_adversary::{
    crash_outcome_count, crash_outcomes_effective_into, data_heavy_cascade, silent_cascade,
};
use twostep_baselines::{earlystop_processes, floodset_processes};
use twostep_core::{crw_processes, Crw};
use twostep_model::codec::{decompress, stable_hash64, Compressor};
use twostep_model::{Canonicalizer, CrashStage, ProcessId, SpillCodec, SystemConfig, WideValue};
use twostep_modelcheck::{
    decode_summary, encode_summary, explore_elastic_timed, explore_partitioned_in_process,
    explore_partitioned_timed, explore_with, run_fingerprint, run_worker, run_worker_elastic,
    validate_segment_file, CacheConfig, CheckableProtocol, CheckpointConfig, DistOptions,
    ElasticTask, ExploreConfig, ExploreError, ExploreOptions, ExploreReport, FaultPlan, MemoConfig,
    RoundBound, SpecMode, StealConfig, Summary, SuperviseConfig, Symmetry, WalkBudget, WorkerPulse,
    WorkerTask,
};
use twostep_sim::{
    run_on_workers, CancelToken, ModelKind, PlanShape, ProcStatus, RoundActions, Simulation,
    Stepper, TraceLevel, WorkQueue,
};

use crate::inputs::{proposal_bits, SplitMix64};

type Proc = Crw<WideValue>;

/// Far above any state count reached here; the budget must never bind.
const MAX_STATES: usize = 50_000_000;

/// First argv word of a worker re-execution of this binary.
pub const WORKER_COMMAND: &str = "dist-worker";

/// A hung worker process fails its iteration instead of hanging the run.
const WORKER_TIMEOUT: Duration = Duration::from_secs(150);

// ---------------------------------------------------------------------------
// Problems, engines, verdicts
// ---------------------------------------------------------------------------

/// One CRW instance: a system and the proposals a seed generated for it.
pub struct Problem {
    system: SystemConfig,
    proposals: Vec<WideValue>,
    seed: u64,
}

/// What an exploration reported, in program-neutral terms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verdict {
    pub distinct_states: usize,
    pub cache_hits: usize,
    pub terminals: u64,
    pub worst_round_by_f: Vec<Option<u32>>,
    /// Encodings of the decided values, sorted.
    pub decided: Vec<Vec<u8>>,
    pub violating: bool,
    pub has_witness: bool,
    pub bivalency_by_round: Vec<(u32, usize, usize)>,
    /// The root summary's own binary record: equal bytes, equal summary
    /// (order of the decided list included).
    pub root: Vec<u8>,
}

fn verdict_of<O: SpillCodec>(report: &ExploreReport<O>) -> Verdict {
    let mut root = Vec::new();
    encode_summary(&report.root, &mut root);
    let mut decided: Vec<Vec<u8>> = report
        .root
        .decided
        .iter()
        .map(|value| {
            let mut bytes = Vec::new();
            value.encode(&mut bytes);
            bytes
        })
        .collect();
    decided.sort();
    Verdict {
        distinct_states: report.distinct_states,
        cache_hits: report.cache_hits,
        terminals: report.root.terminals,
        worst_round_by_f: report.root.worst_round_by_f.clone(),
        decided,
        violating: report.root.violating,
        has_witness: report.witness.is_some(),
        bivalency_by_round: report.bivalency_by_round.clone(),
        root,
    }
}

#[derive(Clone, Debug)]
pub enum Memo {
    Ram,
    /// At most `hot` summaries resident, the rest in segment files under a
    /// fresh subdirectory of `dir`.
    Spill {
        hot: usize,
        dir: PathBuf,
    },
}

/// How to explore.  Every field is passed to the program explicitly on
/// every call; nothing is left to its environment-reading defaults.
#[derive(Clone, Debug)]
pub struct Engine {
    /// `partial+value` symmetry instead of none.
    pub quotient: bool,
    pub threads: usize,
    pub donate_depth: Option<u32>,
    pub memo: Memo,
    /// Drive the walk through the budget arbiter with limits that never
    /// trip (prices the per-step inspection).
    pub stepped: bool,
    /// Suspend after this many steps.
    pub max_steps: Option<u64>,
    /// Persistent cache directory and whether to write to it.
    pub cache: Option<(PathBuf, bool)>,
    pub checkpoint: Option<PathBuf>,
}

impl Engine {
    /// One walker, all-RAM memo, symmetry off, no cache.
    pub fn serial() -> Self {
        Engine {
            quotient: false,
            threads: 1,
            donate_depth: None,
            memo: Memo::Ram,
            stepped: false,
            max_steps: None,
            cache: None,
            checkpoint: None,
        }
    }

    fn options(&self) -> ExploreOptions {
        let budget = if self.stepped {
            WalkBudget {
                max_steps: Some(u64::MAX),
                deadline: Some(Duration::from_secs(86_400)),
                max_memo_bytes: Some(u64::MAX),
                yield_every: None,
            }
        } else {
            WalkBudget {
                max_steps: self.max_steps,
                ..WalkBudget::unlimited()
            }
        };
        ExploreOptions {
            threads: self.threads,
            // The library's own choices: one shard for one walker, 64 for
            // a work-sharing engine.
            shards: if self.threads == 1 { 1 } else { 64 },
            memo: match &self.memo {
                Memo::Ram => MemoConfig::all_ram(),
                Memo::Spill { hot, dir } => MemoConfig::spill_to(*hot, dir),
            },
            donate_depth: self.donate_depth,
            cache: self.cache.as_ref().map(|(dir, write)| {
                if *write {
                    CacheConfig::read_write(dir)
                } else {
                    CacheConfig::read(dir)
                }
            }),
            budget,
            checkpoint: self.checkpoint.as_ref().map(CheckpointConfig::at),
        }
    }
}

pub enum WalkError {
    /// The step budget suspended the walk (and wrote a checkpoint when one
    /// was configured).
    Interrupted,
    Failed(String),
}

impl WalkError {
    pub fn message(&self) -> String {
        match self {
            WalkError::Interrupted => "walk interrupted by its step budget".to_string(),
            WalkError::Failed(detail) => detail.clone(),
        }
    }
}

fn walk<P>(
    system: SystemConfig,
    config: ExploreConfig,
    engine: &Engine,
    initial: Vec<P>,
    proposals: Vec<P::Output>,
) -> Result<Verdict, WalkError>
where
    P: CheckableProtocol,
    P::Output: std::hash::Hash + SpillCodec,
{
    match explore_with(system, config, engine.options(), initial, proposals) {
        Ok(report) => Ok(verdict_of(&report)),
        Err(ExploreError::Interrupted { .. }) => Err(WalkError::Interrupted),
        Err(other) => Err(WalkError::Failed(other.to_string())),
    }
}

impl Problem {
    /// CRW on `n` processes tolerating `t` crashes, proposals from `seed`.
    pub fn crw(n: usize, t: usize, seed: u64) -> Result<Self, String> {
        let system = SystemConfig::new(n, t).map_err(|e| format!("system ({n}, {t}): {e}"))?;
        let proposals = proposal_bits(seed, n)
            .into_iter()
            .map(|bit| WideValue::new(1, u64::from(bit)))
            .collect();
        Ok(Problem {
            system,
            proposals,
            seed,
        })
    }

    pub fn t(&self) -> usize {
        self.system.t()
    }

    fn config(&self, quotient: bool) -> ExploreConfig {
        ExploreConfig {
            max_states: MAX_STATES,
            // `for_crw` would otherwise take this from TWOSTEP_SYMMETRY.
            symmetry: if quotient {
                Symmetry::PartialValue
            } else {
                Symmetry::Off
            },
            ..ExploreConfig::for_crw(&self.system)
        }
    }

    fn initial(&self) -> Vec<Proc> {
        crw_processes(&self.system, &self.proposals)
    }

    /// One exploration in this process.
    pub fn explore(&self, engine: &Engine) -> Result<Verdict, WalkError> {
        walk(
            self.system,
            self.config(engine.quotient),
            engine,
            self.initial(),
            self.proposals.clone(),
        )
    }

    pub fn fingerprint(&self, reps: usize) -> u64 {
        let config = self.config(false);
        let initial = self.initial();
        for _ in 0..reps {
            black_box(run_fingerprint(
                self.system,
                black_box(&config),
                &initial,
                &self.proposals,
            ));
        }
        reps as u64
    }
}

/// The classic-model baselines at `(n, n - 1)`: guards that CRW-specific
/// hooks do not tax protocol-generic paths.
pub fn explore_floodset(n: usize) -> Result<Verdict, WalkError> {
    let (system, config, proposals) = classic(n, |t| RoundBound::Fixed(t as u32 + 1))?;
    let initial = floodset_processes(n, system.t(), &proposals);
    walk(system, config, &Engine::serial(), initial, proposals)
}

pub fn explore_earlystop(n: usize) -> Result<Verdict, WalkError> {
    let (system, config, proposals) = classic(n, |t| RoundBound::ClassicEarly { t })?;
    let initial = earlystop_processes(n, system.t(), &proposals);
    walk(system, config, &Engine::serial(), initial, proposals)
}

fn classic(
    n: usize,
    bound: impl Fn(usize) -> RoundBound,
) -> Result<(SystemConfig, ExploreConfig, Vec<u64>), WalkError> {
    let t = n - 1;
    let system = SystemConfig::new(n, t).map_err(|e| WalkError::Failed(e.to_string()))?;
    let config = ExploreConfig {
        model: ModelKind::Classic,
        max_rounds: t as u32 + 2,
        max_states: MAX_STATES,
        round_bound: Some(bound(t)),
        spec: SpecMode::Uniform,
        max_crashes_per_round: None,
        symmetry: Symmetry::Off,
    };
    Ok((system, config, (0..n as u64).map(|i| 10 + i).collect()))
}

// ---------------------------------------------------------------------------
// Distributed engines
// ---------------------------------------------------------------------------

/// One worker's own account of its phases.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkerPhases {
    pub distinct_states: usize,
    pub frontier_s: f64,
    pub walk_s: f64,
    pub export_s: f64,
}

/// Coordinator phases of one partitioned exploration plus each worker's.
#[derive(Clone, Debug, Default)]
pub struct DistPhases {
    pub frontier_s: f64,
    pub workers_wall_s: f64,
    pub merge_s: f64,
    pub replay_s: f64,
    pub report_s: f64,
    pub degraded: usize,
    pub workers: Vec<WorkerPhases>,
}

const PARTITIONS: usize = 2;

impl Problem {
    fn dist_options(&self, scratch: &Path, steal: StealConfig) -> DistOptions {
        DistOptions {
            partitions: PARTITIONS,
            depth: 1,
            attempts: 3,
            scratch_dir: Some(scratch.to_path_buf()),
            // The coordinator replays on one thread while nothing else
            // runs; 64 shards because both workers' imports land at once.
            replay: ExploreOptions {
                threads: 1,
                shards: 64,
                ..Engine::serial().options()
            },
            cache: None,
            steal,
            faults: FaultPlan::none(),
            supervise: SuperviseConfig {
                attempt_timeout: Some(WORKER_TIMEOUT),
                ..SuperviseConfig::default()
            },
        }
    }

    /// `explore_partitioned_timed` over two one-thread worker *processes*
    /// (re-executions of this binary), depth 1, all-RAM, symmetry off.
    pub fn explore_dist2(&self, scratch: &Path) -> Result<(Verdict, DistPhases), String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
        let workers: Mutex<Vec<WorkerPhases>> =
            Mutex::new(vec![WorkerPhases::default(); PARTITIONS]);
        let launch = |task: &WorkerTask| -> Result<(), String> {
            let frontier = task
                .frontier_path
                .as_ref()
                .ok_or("coordinator shipped no frontier segment")?;
            let mut child = Command::new(&exe)
                .arg(WORKER_COMMAND)
                .args([
                    self.system.n().to_string(),
                    self.system.t().to_string(),
                    self.seed.to_string(),
                    task.partition.to_string(),
                    task.partitions.to_string(),
                    task.depth.to_string(),
                ])
                .arg(&task.export_path)
                .arg(frontier)
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawning worker process: {e}"))?;
            // Poll instead of blocking so the supervisor's timeout can
            // kill a hung worker; its output is one line, far below the
            // pipe buffer, so draining after exit cannot deadlock.
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if task.cancel.is_cancelled() => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err("worker killed by the supervisor (timeout)".to_string());
                    }
                    Ok(None) => std::thread::sleep(Duration::from_millis(1)),
                    Err(e) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!("polling worker process: {e}"));
                    }
                }
            }
            let output = child
                .wait_with_output()
                .map_err(|e| format!("collecting worker output: {e}"))?;
            if !output.status.success() {
                return Err(format!("worker process exited with {}", output.status));
            }
            let phases = parse_worker_line(&String::from_utf8_lossy(&output.stdout))
                .ok_or("worker printed no report line")?;
            workers.lock().expect("worker phases poisoned")[task.partition] = phases;
            Ok(())
        };
        let (report, timings) = explore_partitioned_timed(
            self.system,
            self.config(false),
            &self.dist_options(scratch, StealConfig::default()),
            self.initial(),
            self.proposals.clone(),
            launch,
        )
        .map_err(|e| e.to_string())?;
        let phases = DistPhases {
            frontier_s: timings.frontier_seconds,
            workers_wall_s: timings.workers_wall_seconds,
            merge_s: timings.merge_seconds,
            replay_s: timings.replay_seconds,
            report_s: timings.report_seconds,
            degraded: timings.degraded_partitions,
            workers: workers.into_inner().expect("worker phases poisoned"),
        };
        Ok((verdict_of(&report), phases))
    }

    /// The same split with both workers as threads of this process.
    pub fn explore_dist2_in_process(&self, scratch: &Path) -> Result<Verdict, String> {
        explore_partitioned_in_process(
            self.system,
            self.config(false),
            &self.dist_options(scratch, StealConfig::default()),
            Engine::serial().options(),
            self.initial(),
            self.proposals.clone(),
        )
        .map(|report| verdict_of(&report))
        .map_err(|e| e.to_string())
    }

    /// The elastic engine with stealing on and in-process workers; returns
    /// the completed steals with the verdict.
    pub fn explore_elastic(&self, scratch: &Path) -> Result<(Verdict, u64), String> {
        let config = self.config(false);
        let launch = |task: &ElasticTask, pulse: &(dyn Fn(WorkerPulse) + Sync)| {
            run_worker_elastic(
                self.system,
                config,
                Engine::serial().options(),
                self.initial(),
                self.proposals.clone(),
                task,
                pulse,
            )
            .map_err(|e| e.to_string())
        };
        let (report, _, stats) = explore_elastic_timed(
            self.system,
            config,
            &self.dist_options(scratch, StealConfig::on()),
            self.initial(),
            self.proposals.clone(),
            launch,
        )
        .map_err(|e| e.to_string())?;
        Ok((verdict_of(&report), stats.steals))
    }
}

fn worker_line(phases: &WorkerPhases) -> String {
    format!(
        "worker-report: distinct={} frontier_s={} walk_s={} export_s={}",
        phases.distinct_states, phases.frontier_s, phases.walk_s, phases.export_s
    )
}

fn parse_worker_line(stdout: &str) -> Option<WorkerPhases> {
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("worker-report:"))?;
    let field = |key: &str| {
        line.split_whitespace()
            .find_map(|token| token.strip_prefix(key)?.strip_prefix('='))
    };
    Some(WorkerPhases {
        distinct_states: field("distinct")?.parse().ok()?,
        frontier_s: field("frontier_s")?.parse().ok()?,
        walk_s: field("walk_s")?.parse().ok()?,
        export_s: field("export_s")?.parse().ok()?,
    })
}

/// Body of a worker process: `args` is what follows [`WORKER_COMMAND`].
/// Rebuilds the problem from `(n, t, seed)`, walks its partition on one
/// thread, and prints its phase report on stdout.
pub fn run_dist_worker(args: &[String]) -> Result<(), String> {
    let [n, t, seed, partition, partitions, depth, export_path, frontier_path] = args else {
        return Err(format!("worker expects 8 arguments, got {}", args.len()));
    };
    let number = |raw: &String| {
        raw.parse::<u64>()
            .map_err(|_| format!("bad number {raw:?}"))
    };
    let problem = Problem::crw(number(n)? as usize, number(t)? as usize, number(seed)?)?;
    let task = WorkerTask {
        partition: number(partition)? as usize,
        partitions: number(partitions)? as usize,
        depth: number(depth)? as u32,
        export_path: PathBuf::from(export_path),
        seed_path: None,
        frontier_path: Some(PathBuf::from(frontier_path)),
        attempt: 0,
        fault: None,
        cancel: CancelToken::new(),
    };
    let report = run_worker(
        problem.system,
        problem.config(false),
        Engine::serial().options(),
        problem.initial(),
        problem.proposals.clone(),
        &task,
    )
    .map_err(|e| e.to_string())?;
    println!(
        "{}",
        worker_line(&WorkerPhases {
            distinct_states: report.distinct_states,
            frontier_s: report.frontier_seconds,
            walk_s: report.walk_seconds,
            export_s: report.export_seconds,
        })
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Layer corpus: inputs recorded once, replayed through one layer at a time
// ---------------------------------------------------------------------------

/// What `crash_outcomes_effective_into` is called with for one active
/// process of one configuration.
struct EnumInput {
    live_dests: Vec<ProcessId>,
    had_data_plan: bool,
    live_ks: Vec<usize>,
    /// `crash_outcome_count` of the raw plan: what an unpruned enumeration
    /// would branch on.
    unpruned: usize,
    /// Outcomes the effective enumeration kept of those.
    kept: usize,
}

/// Inputs for the per-layer replays, recorded from the workload's own
/// problem through public API only.  Each replay method makes `reps` passes
/// over its inputs and returns the number of calls it made into the layer.
pub struct Corpus {
    system: SystemConfig,
    proposals: Vec<WideValue>,
    /// Configurations along seeded random adversary walks.
    configs: Vec<Stepper<Proc>>,
    /// The adversary move taken from each configuration.
    moves: Vec<RoundActions>,
    enum_inputs: Vec<EnumInput>,
    keys: Vec<Vec<u8>>,
    summaries: Vec<Summary<WideValue>>,
    summary_records: Vec<Vec<u8>>,
    /// Key bytes followed by a summary record: the shape the memo spills.
    records: Vec<Vec<u8>>,
    packed: Vec<Vec<u8>>,
    spare: Stepper<Proc>,
    shape: PlanShape,
    outcomes: Vec<CrashStage>,
    canon: Canonicalizer,
    compressor: Compressor,
    buf: Vec<u8>,
}

fn enum_input(stepper: &Stepper<Proc>, shape: &PlanShape) -> EnumInput {
    let live = |p: &ProcessId| matches!(stepper.status()[p.idx()], ProcStatus::Active);
    EnumInput {
        live_dests: shape.data_dests.iter().copied().filter(live).collect(),
        had_data_plan: !shape.data_dests.is_empty(),
        live_ks: shape
            .control_dests
            .iter()
            .enumerate()
            .filter(|(_, p)| live(p))
            .map(|(k0, _)| k0 + 1)
            .collect(),
        unpruned: crash_outcome_count(shape.data_dests.len(), shape.control_len),
        kept: 0,
    }
}

/// The configuration's key bytes: round, process count, then per process a
/// status tag and its encoding — built from the public codec pieces.
/// `relabel` encodes every active as if it sat in slot 0, which is what the
/// canonicalizer sorts.
fn encode_process(stepper: &Stepper<Proc>, i: usize, relabel: bool, out: &mut Vec<u8>) {
    let decision = |out: &mut Vec<u8>| {
        if let Some(d) = &stepper.decisions()[i] {
            d.value.encode(out);
            d.round.get().encode(out);
        }
    };
    match stepper.status()[i] {
        ProcStatus::Active => {
            out.push(0);
            if relabel {
                stepper.procs()[i].encode_relabelled(0, out);
            } else {
                stepper.procs()[i].encode(out);
            }
        }
        ProcStatus::Decided => {
            out.push(1);
            decision(out);
        }
        ProcStatus::Crashed(_) => {
            out.push(2);
            out.push(u8::from(stepper.decisions()[i].is_some()));
            decision(out);
        }
    }
}

fn encode_key(stepper: &Stepper<Proc>, out: &mut Vec<u8>) {
    out.clear();
    stepper.round().get().encode(out);
    (stepper.procs().len() as u32).encode(out);
    for i in 0..stepper.procs().len() {
        encode_process(stepper, i, false, out);
    }
}

impl Corpus {
    /// Records `want` configurations by seeded random walks from the
    /// problem's root: at every configuration each active process crashes
    /// with probability 1/2 while crash budget remains, at a uniformly
    /// drawn effective outcome.  Also records root summaries of small
    /// explorations (every `(n, n - 1)` for `n` in 3..=5, four seeds each).
    pub fn record(problem: &Problem, seed: u64, want: usize) -> Result<Self, String> {
        let system = problem.system;
        let n = system.n();
        let root = Stepper::new(
            system,
            ModelKind::Extended,
            TraceLevel::Off,
            problem.initial(),
        )
        .map_err(|e| e.to_string())?;
        let mut rng = SplitMix64::new(seed ^ 0x636f_7270_7573);
        let mut corpus = Corpus {
            system,
            proposals: problem.proposals.clone(),
            configs: Vec::with_capacity(want),
            moves: Vec::with_capacity(want),
            enum_inputs: Vec::new(),
            keys: Vec::with_capacity(want),
            summaries: Vec::new(),
            summary_records: Vec::new(),
            records: Vec::with_capacity(want),
            packed: Vec::new(),
            spare: root.clone(),
            shape: PlanShape {
                data_dests: Vec::new(),
                control_len: 0,
                control_dests: Vec::new(),
            },
            outcomes: Vec::new(),
            canon: Canonicalizer::new(),
            compressor: Compressor::new(),
            buf: Vec::new(),
        };
        let mut current = root.clone();
        while corpus.configs.len() < want {
            if current.is_quiescent() || current.round().get() > n as u32 + 1 {
                current.fork_from(&root);
            }
            let crashed = current
                .status()
                .iter()
                .filter(|s| matches!(s, ProcStatus::Crashed(_)))
                .count();
            let mut budget = system.t() - crashed;
            let mut actions: RoundActions = vec![None; n];
            for (i, action) in actions.iter_mut().enumerate() {
                if !current.peek_plan_shape_into(i, &mut corpus.shape) {
                    continue;
                }
                let mut input = enum_input(&current, &corpus.shape);
                crash_outcomes_effective_into(
                    n,
                    &input.live_dests,
                    input.had_data_plan,
                    &input.live_ks,
                    &mut corpus.outcomes,
                );
                input.kept = corpus.outcomes.len();
                corpus.enum_inputs.push(input);
                if budget > 0 && rng.below(2) == 0 {
                    *action = Some(corpus.outcomes[rng.below(corpus.outcomes.len())].clone());
                    budget -= 1;
                }
            }
            let mut key = Vec::new();
            encode_key(&current, &mut key);
            corpus.keys.push(key);
            corpus.configs.push(current.clone());
            current.step(&actions).map_err(|e| e.to_string())?;
            corpus.moves.push(actions);
        }

        for small_n in 3..=5 {
            for small_seed in 1..=4 {
                let small = Problem::crw(small_n, small_n - 1, seed.wrapping_add(small_seed))?;
                let report = explore_with(
                    small.system,
                    small.config(false),
                    Engine::serial().options(),
                    small.initial(),
                    small.proposals.clone(),
                )
                .map_err(|e| e.to_string())?;
                let mut record = Vec::new();
                encode_summary(&report.root, &mut record);
                corpus.summary_records.push(record);
                corpus.summaries.push(report.root);
            }
        }
        for (i, key) in corpus.keys.iter().enumerate() {
            let mut record = key.clone();
            record.extend(&corpus.summary_records[i % corpus.summary_records.len()]);
            corpus.records.push(record);
        }
        let mut compressor = Compressor::new();
        corpus.packed = corpus
            .records
            .iter()
            .map(|record| {
                let mut packed = Vec::new();
                compressor.compress_into(record, &mut packed);
                packed
            })
            .collect();
        Ok(corpus)
    }

    pub fn hash_keys(&self, reps: usize) -> u64 {
        for _ in 0..reps {
            for key in &self.keys {
                black_box(stable_hash64(black_box(key)));
            }
        }
        (reps * self.keys.len()) as u64
    }

    pub fn encode_configs(&mut self, reps: usize) -> u64 {
        for _ in 0..reps {
            for config in &self.configs {
                encode_key(black_box(config), &mut self.buf);
                black_box(&self.buf);
            }
        }
        (reps * self.configs.len()) as u64
    }

    /// One canonicalization per configuration: every process as a
    /// relabelled record, sorted, emitted in sorted order.
    pub fn canon_sort(&mut self, reps: usize) -> u64 {
        for _ in 0..reps {
            for config in &self.configs {
                self.canon.begin();
                for i in 0..config.procs().len() {
                    encode_process(config, i, true, self.canon.record());
                }
                self.canon.sort();
                self.buf.clear();
                for (_, bytes) in self.canon.iter_sorted() {
                    self.buf.extend_from_slice(bytes);
                }
                black_box(&self.buf);
            }
        }
        (reps * self.configs.len()) as u64
    }

    /// Raw bytes fed to the compressor per pass, and what they pack to.
    pub fn record_bytes(&self) -> (u64, u64) {
        let total = |v: &[Vec<u8>]| v.iter().map(|r| r.len() as u64).sum();
        (total(&self.records), total(&self.packed))
    }

    pub fn compress(&mut self, reps: usize) -> u64 {
        for _ in 0..reps {
            for record in &self.records {
                self.compressor
                    .compress_into(black_box(record), &mut self.buf);
                black_box(&self.buf);
            }
        }
        (reps * self.records.len()) as u64
    }

    pub fn decompress(&self, reps: usize) -> Result<u64, String> {
        for _ in 0..reps {
            for (packed, record) in self.packed.iter().zip(&self.records) {
                let raw = decompress(black_box(packed), record.len())
                    .ok_or("a record the compressor wrote does not decompress")?;
                if raw.len() != record.len() {
                    return Err("decompressed record has the wrong length".to_string());
                }
                black_box(raw);
            }
        }
        Ok((reps * self.packed.len()) as u64)
    }

    pub fn enumerate(&mut self, reps: usize) -> u64 {
        let n = self.system.n();
        for _ in 0..reps {
            for input in &self.enum_inputs {
                crash_outcomes_effective_into(
                    n,
                    black_box(&input.live_dests),
                    input.had_data_plan,
                    &input.live_ks,
                    &mut self.outcomes,
                );
                black_box(&self.outcomes);
            }
        }
        (reps * self.enum_inputs.len()) as u64
    }

    /// Exact over the corpus: outcomes kept per call, and kept outcomes as
    /// a share of what the unpruned enumeration would produce.
    pub fn enumeration_shape(&self) -> (f64, f64) {
        let kept: usize = self.enum_inputs.iter().map(|input| input.kept).sum();
        let unpruned: usize = self.enum_inputs.iter().map(|input| input.unpruned).sum();
        (
            kept as f64 / self.enum_inputs.len() as f64,
            kept as f64 / unpruned as f64,
        )
    }

    pub fn fork(&mut self, reps: usize) -> u64 {
        for _ in 0..reps {
            for config in &self.configs {
                self.spare.fork_from(black_box(config));
                black_box(&self.spare);
            }
        }
        (reps * self.configs.len()) as u64
    }

    /// Fresh forks of every configuration, made outside the timed span.
    pub fn forks(&self, reps: usize) -> Vec<Stepper<Proc>> {
        (0..reps)
            .flat_map(|_| self.configs.iter().cloned())
            .collect()
    }

    /// Steps each fork one round under its recorded move.
    pub fn step(&self, mut forks: Vec<Stepper<Proc>>) -> Result<u64, String> {
        for (i, fork) in forks.iter_mut().enumerate() {
            fork.step(black_box(&self.moves[i % self.moves.len()]))
                .map_err(|e| e.to_string())?;
        }
        Ok(black_box(forks).len() as u64)
    }

    pub fn peek(&mut self, reps: usize) -> u64 {
        let mut calls = 0;
        for _ in 0..reps {
            for config in &self.configs {
                for i in 0..config.procs().len() {
                    calls += u64::from(config.peek_plan_shape_into(i, &mut self.shape));
                    black_box(&self.shape);
                }
            }
        }
        calls
    }

    /// Whole runs of the plain simulator (no forks) under the worst-case
    /// cascades for every `f`; returns rounds executed.
    pub fn plain_runs(&self, reps: usize) -> Result<u64, String> {
        let (n, t) = (self.system.n(), self.system.t());
        let mut rounds = 0u64;
        for _ in 0..reps {
            for f in 0..=t {
                for schedule in [silent_cascade(n, f), data_heavy_cascade(n, f)] {
                    let report = Simulation::new(self.system, ModelKind::Extended, &schedule)
                        .run(crw_processes(&self.system, &self.proposals))
                        .map_err(|e| e.to_string())?;
                    rounds += u64::from(report.metrics.rounds_executed);
                    black_box(report);
                }
            }
        }
        Ok(rounds)
    }

    pub fn encode_summaries(&mut self, reps: usize) -> u64 {
        for _ in 0..reps {
            for summary in &self.summaries {
                self.buf.clear();
                encode_summary(black_box(summary), &mut self.buf);
                black_box(&self.buf);
            }
        }
        (reps * self.summaries.len()) as u64
    }

    pub fn decode_summaries(&self, reps: usize) -> Result<u64, String> {
        for _ in 0..reps {
            for record in &self.summary_records {
                let summary: Summary<WideValue> = decode_summary(black_box(record))
                    .ok_or("a summary record the codec wrote does not decode")?;
                black_box(summary);
            }
        }
        Ok((reps * self.summary_records.len()) as u64)
    }
}

/// Validates every sealed segment file under `dir` (a cache directory the
/// program wrote); returns the bytes scanned.
pub fn validate_segments(dir: &Path) -> Result<u64, String> {
    let mut bytes = 0;
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|ext| ext == "seg") {
            validate_segment_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            bytes += entry.metadata().map(|m| m.len()).unwrap_or(0);
        }
    }
    if bytes == 0 {
        return Err(format!("no segment files under {}", dir.display()));
    }
    Ok(bytes)
}

/// `run_on_workers(2, noop)`: what a parallel engine pays to start and join.
pub fn spawn_join(reps: usize) -> u64 {
    for _ in 0..reps {
        run_on_workers(2, |worker| {
            black_box(worker);
        });
    }
    reps as u64
}

/// Uncontended push + pop through the donation queue.
pub fn queue_items(reps: usize) -> u64 {
    let queue: WorkQueue<usize> = WorkQueue::new();
    for item in 0..reps {
        queue.push(black_box(item));
        black_box(queue.pop_wait());
    }
    reps as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_report_line_round_trips() {
        let phases = WorkerPhases {
            distinct_states: 38_471,
            frontier_s: 0.012_345_678_9,
            walk_s: 1.25,
            export_s: 0.062_5,
        };
        let stdout = format!("noise\n{}\n", worker_line(&phases));
        assert_eq!(parse_worker_line(&stdout), Some(phases));
        assert_eq!(parse_worker_line("worker-report: distinct=x"), None);
        assert_eq!(parse_worker_line(""), None);
    }

    #[test]
    fn corpus_replays_are_deterministic_and_count_their_calls() {
        let problem = Problem::crw(5, 4, 3).unwrap();
        let mut a = Corpus::record(&problem, 3, 200).unwrap();
        let b = Corpus::record(&problem, 3, 200).unwrap();
        assert_eq!(a.keys, b.keys, "same seed, same corpus");
        assert_eq!(a.enumeration_shape(), b.enumeration_shape());
        assert_eq!(a.hash_keys(2), 400);
        assert_eq!(a.canon_sort(1), 200);
        assert_eq!(a.decompress(1), Ok(200));
        assert_eq!(a.step(a.forks(1)), Ok(200));
        assert_eq!(a.decode_summaries(1), Ok(12));
        let (per_call, kept_share) = a.enumeration_shape();
        assert!(per_call >= 2.0 && kept_share > 0.0 && kept_share <= 1.0);
        let other = Corpus::record(&problem, 4, 200).unwrap();
        assert_ne!(a.keys, other.keys, "another seed, another corpus");
    }

    #[test]
    fn small_problem_verdicts_agree_across_engines() {
        let problem = Problem::crw(4, 3, 0).unwrap();
        let serial = problem.explore(&Engine::serial()).ok().unwrap();
        assert!(!serial.violating && !serial.has_witness);
        assert_eq!(
            serial.worst_round_by_f,
            vec![Some(1), Some(2), Some(3), Some(4)]
        );
        let quotient = problem
            .explore(&Engine {
                quotient: true,
                ..Engine::serial()
            })
            .ok()
            .unwrap();
        assert!(quotient.distinct_states < serial.distinct_states);
        assert_eq!(quotient.terminals, serial.terminals);
        assert_eq!(quotient.decided, serial.decided);
    }
}
