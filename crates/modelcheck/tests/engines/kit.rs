//! What every module of the binary shares: the systems, the workloads,
//! the engines, one way to run a cell, the serial reference each cell
//! is held to, and the one comparison that holds it.

use std::any::Any;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use twostep_baselines::{floodset_processes, FloodSet};
use twostep_core::{crw_processes, CommitOrder, Crw};
use twostep_model::{ProcessId, SystemConfig, WideValue};
use twostep_modelcheck::{
    explore_elastic_in_process, explore_elastic_timed, explore_partitioned_in_process,
    explore_partitioned_timed, explore_with, run_worker, run_worker_elastic, CacheConfig,
    CheckableProtocol, DistOptions, DistTimings, ElasticExit, ElasticStats, ElasticTask,
    ExploreConfig, ExploreError, ExploreOptions, ExploreReport, MemoConfig, RoundBound, SpecMode,
    SpillCodec, StealConfig, Symmetry, WorkerPulse, WorkerTask,
};
use twostep_sim::ModelKind;

/// Largest `n` explored at every `t`; larger `n` only with `t ≤ 2`,
/// which still fans out wide without minutes of debug-build time.
const FULL_DEPTH_N: usize = 4;

/// The routine systems: every `(n, t)` with `n ≤ 4`, then `(5, 1)` and
/// `(5, 2)`.
pub fn systems() -> Vec<(usize, usize)> {
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

/// CRW's binary proposals: `0, 1, 0, 1, …`.
pub fn crw_proposals(n: usize) -> Vec<WideValue> {
    (0..n).map(|i| WideValue::new(1, (i % 2) as u64)).collect()
}

/// One thing to explore: a system, its exploration config, and the
/// initial processes with their proposals.  The label names the
/// protocol and its proposals; with the config it keys the serial
/// reference, so two workloads with one label must differ in nothing
/// but their config.
#[derive(Clone)]
pub struct Workload<P: CheckableProtocol> {
    pub label: String,
    pub system: SystemConfig,
    pub config: ExploreConfig,
    pub initial: Vec<P>,
    pub proposals: Vec<P::Output>,
}

/// The paper's algorithm in the extended model.
pub fn crw(n: usize, t: usize) -> Workload<Crw<WideValue>> {
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = crw_proposals(n);
    Workload {
        label: format!("crw ({n}, {t})"),
        system,
        config: ExploreConfig::for_crw(&system),
        initial: crw_processes(&system, &proposals),
        proposals,
    }
}

/// CRW with every process proposing 1: the run fingerprint of [`crw`]
/// at the same system, but for the proposals.
pub fn crw_unanimous(n: usize, t: usize) -> Workload<Crw<WideValue>> {
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = vec![WideValue::new(1, 1); n];
    Workload {
        label: format!("unanimous crw ({n}, {t})"),
        initial: crw_processes(&system, &proposals),
        proposals,
        ..crw(n, t)
    }
}

/// CRW under the Theorem 3 adversary: at most one crash per round,
/// which takes its own branch through the action enumeration.
pub fn theorem3(n: usize, t: usize) -> Workload<Crw<WideValue>> {
    let crw = crw(n, t);
    Workload {
        label: format!("theorem3 ({n}, {t})"),
        config: ExploreConfig::theorem3(&crw.system),
        ..crw
    }
}

/// The commit-order ablation: CRW committing lowest-first breaks the
/// `f + 1` bound (`ExploreConfig::for_crw`'s `RoundBound::FPlus(1)`),
/// so every run of it violates and carries a witness.
pub fn lowest_first(n: usize, t: usize) -> Workload<Crw<WideValue>> {
    let crw = crw(n, t);
    let initial = (crw.proposals.iter().enumerate())
        .map(|(i, v)| Crw::with_order(ProcessId::from_idx(i), n, *v, CommitOrder::LowestFirst))
        .collect();
    Workload {
        label: format!("lowest-first crw ({n}, {t})"),
        initial,
        ..crw
    }
}

/// FloodSet in the classic model (CRW's control messages are rejected
/// under classic semantics), proposals `10, 11, …`.
pub fn floodset(n: usize, t: usize) -> Workload<FloodSet<u64>> {
    let proposals: Vec<u64> = (0..n as u64).map(|i| 10 + i).collect();
    Workload {
        label: format!("floodset ({n}, {t})"),
        system: SystemConfig::new(n, t).unwrap(),
        config: ExploreConfig {
            model: ModelKind::Classic,
            max_rounds: t as u32 + 2,
            max_states: 10_000_000,
            round_bound: Some(RoundBound::Fixed(t as u32 + 1)),
            spec: SpecMode::Uniform,
            max_crashes_per_round: None,
            symmetry: Symmetry::Off,
        },
        initial: floodset_processes(n, t, &proposals),
        proposals,
    }
}

impl<P> Workload<P>
where
    P: CheckableProtocol,
    P::Output: std::hash::Hash + SpillCodec,
{
    /// The same workload under `symmetry`.
    pub fn under(&self, symmetry: Symmetry) -> Self {
        let mut workload = self.clone();
        workload.config.symmetry = symmetry;
        workload
    }

    /// `explore_with` under `options`.
    pub fn explore(
        &self,
        options: ExploreOptions,
    ) -> Result<ExploreReport<P::Output>, ExploreError> {
        explore_with(
            self.system,
            self.config,
            options,
            self.initial.clone(),
            self.proposals.clone(),
        )
    }

    /// One in-process partitioned worker on the serial engine, as a
    /// launch closure's body.
    pub fn worker(&self, task: &WorkerTask) -> Result<(), String> {
        let serial = ExploreOptions::serial();
        run_worker(
            self.system,
            self.config,
            serial,
            self.initial.clone(),
            self.proposals.clone(),
            task,
        )
        .map(|_| ())
        .map_err(|e| e.to_string())
    }

    /// One in-process elastic worker on the serial engine.
    pub fn elastic_worker(
        &self,
        task: &ElasticTask,
        pulse: &(dyn Fn(WorkerPulse) + Sync),
    ) -> Result<ElasticExit, String> {
        let serial = ExploreOptions::serial();
        run_worker_elastic(
            self.system,
            self.config,
            serial,
            self.initial.clone(),
            self.proposals.clone(),
            task,
            pulse,
        )
        .map_err(|e| e.to_string())
    }

    /// The partitioned plan under `options`, each attempt run by `launch`.
    pub fn partitioned(
        &self,
        options: &DistOptions,
        launch: impl Fn(&WorkerTask) -> Result<(), String> + Sync,
    ) -> Result<(ExploreReport<P::Output>, DistTimings), ExploreError> {
        explore_partitioned_timed(
            self.system,
            self.config,
            options,
            self.initial.clone(),
            self.proposals.clone(),
            launch,
        )
    }

    /// The elastic plan under `options`, each attempt run by `launch`.
    pub fn elastic(
        &self,
        options: &DistOptions,
        launch: impl Fn(&ElasticTask, &(dyn Fn(WorkerPulse) + Sync)) -> Result<ElasticExit, String>
            + Sync,
    ) -> Result<(ExploreReport<P::Output>, DistTimings, ElasticStats), ExploreError> {
        explore_elastic_timed(
            self.system,
            self.config,
            options,
            self.initial.clone(),
            self.proposals.clone(),
            launch,
        )
    }
}

/// One engine: what runs a cell.
#[derive(Clone)]
pub enum Engine {
    /// `explore_with` under these options.
    Walk(ExploreOptions),
    /// The partitioned plan in-process: coordinator options, worker engine.
    Partitioned(DistOptions, ExploreOptions),
    /// The elastic plan in-process: coordinator options, worker engine.
    Elastic(DistOptions, ExploreOptions),
}

impl Engine {
    /// The same engine reading (and, read-write, committing) `cache`.
    pub fn with_cache(self, cache: Option<CacheConfig>) -> Engine {
        match self {
            Engine::Walk(options) => Engine::Walk(options.with_cache(cache)),
            Engine::Partitioned(dist, worker) => {
                Engine::Partitioned(DistOptions { cache, ..dist }, worker)
            }
            Engine::Elastic(dist, worker) => Engine::Elastic(DistOptions { cache, ..dist }, worker),
        }
    }

    pub fn run<P>(&self, workload: &Workload<P>) -> Result<ExploreReport<P::Output>, ExploreError>
    where
        P: CheckableProtocol,
        P::Output: std::hash::Hash + SpillCodec,
    {
        let (system, config) = (workload.system, workload.config);
        let (initial, proposals) = (workload.initial.clone(), workload.proposals.clone());
        match self {
            Engine::Walk(options) => workload.explore(options.clone()),
            Engine::Partitioned(dist, worker) => explore_partitioned_in_process(
                system,
                config,
                dist,
                worker.clone(),
                initial,
                proposals,
            ),
            Engine::Elastic(dist, worker) => {
                explore_elastic_in_process(system, config, dist, worker.clone(), initial, proposals)
            }
        }
    }
}

/// A two-thread worker over a memo keeping 16 states resident.
pub fn spill_2t() -> ExploreOptions {
    ExploreOptions::with_threads(2).with_memo(MemoConfig::spill(16))
}

/// A steal policy that always fires: zero warm-up, any frontier worth
/// one root, a pulse every `yield_every` steps — offload, preempt,
/// re-split and seeded relaunch on even the smallest systems, where the
/// lazy defaults never offload.
pub fn forced_steal(yield_every: u64) -> StealConfig {
    StealConfig {
        enabled: true,
        min_frontier: 1,
        poll_interval: Duration::ZERO,
        yield_every,
    }
}

type Reports = Mutex<HashMap<String, Arc<dyn Any + Send + Sync>>>;

static REFERENCES: OnceLock<Reports> = OnceLock::new();

/// The serial walk's report on `workload`, walked once per process and
/// shared by every cell and every module that compares against it.
pub fn reference<P>(workload: &Workload<P>) -> Arc<ExploreReport<P::Output>>
where
    P: CheckableProtocol,
    P::Output: std::hash::Hash + SpillCodec + 'static,
{
    let key = format!("{} {:?}", workload.label, workload.config);
    let table = REFERENCES.get_or_init(Reports::default);
    // A panicking cell elsewhere must not poison every later lookup.
    let lookup = || {
        table
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    };
    let found = lookup().get(&key).cloned();
    let report = match found {
        Some(report) => report,
        None => {
            // Walked outside the lock: two cells racing for one reference
            // walk it twice, and the first insert wins.
            let walked = workload.explore(ExploreOptions::serial());
            let walked = walked.unwrap_or_else(|e| panic!("{key}: serial walk: {e}"));
            let walked = Arc::new(walked);
            Arc::clone(lookup().entry(key).or_insert(walked))
        }
    };
    report
        .downcast()
        .expect("one output type per reference key")
}

/// The one comparison: `got` is the serial walk's report — root summary
/// (terminal count, worst round per `f`, valency in its merge order,
/// violation flag), distinct-state count, per-round bivalency census
/// and the whole witness.
pub fn assert_same<O: std::fmt::Debug + Eq>(
    serial: &ExploreReport<O>,
    got: &ExploreReport<O>,
    label: &str,
) {
    assert_eq!(serial.root, got.root, "{label}: root summary");
    assert_eq!(
        serial.distinct_states, got.distinct_states,
        "{label}: distinct states"
    );
    assert_eq!(
        serial.bivalency_by_round, got.bivalency_by_round,
        "{label}: bivalency census"
    );
    assert_eq!(serial.witness, got.witness, "{label}: witness");
}

/// A unique temp directory, absent until a run creates it, removed on
/// drop.
pub struct TempDir {
    path: PathBuf,
}

static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl TempDir {
    pub fn new(label: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "twostep-engines-{label}-{}-{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        TempDir { path }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
