//! Distributed exploration: the two multi-process **work phases** of the
//! run spine in [`crate::explorer`] (open → work → finish).
//!
//! One machine's RAM and cores stopped being the ceiling in two earlier
//! steps (the work-sharing parallel engine, then the disk-backed memo);
//! this module removes the "one process" bound.  A coordinator opens a
//! run exactly as [`crate::explore_with`] does — clock, fingerprint,
//! cache seed, checkpoint resume — fills the run's memo with summaries
//! computed by worker processes, and finishes it exactly as
//! `explore_with` does: the canonical root walk (here a *replay*, which
//! finds every worker-covered subtree already memoized and computes
//! only the region above the frontier plus whatever no worker covered),
//! report, cache commit.  Nothing needs a network — processes
//! rendezvous through checksummed segment files under a shared scratch
//! directory.  What differs between the two coordinators is only how
//! the memo gets filled:
//!
//! * **partitioned** ([`explore_partitioned_timed`]) — the coordinator
//!   expands the root to the depth-`d` frontier (the distinct
//!   configurations reachable in exactly `d` rounds, deduplicated by
//!   configuration key) once, ships it as a sealed frontier segment,
//!   and launches one supervised worker per partition; a worker owns
//!   the subtree roots whose key hash lands in its partition
//!   (`hash % partitions == partition` — the memo's own stable hash,
//!   identical in every process running the same build);
//! * **elastic** ([`explore_elastic_timed`]) — the coordinator walks the
//!   root locally first and offloads only once the run outlives its
//!   [`StealConfig`]; a scheduler then re-balances by preempting loaded
//!   workers and re-splitting the frontiers they hand back.  The two
//!   schedulers are measured side by side, not folded into one: at CRW
//!   (8,7) the elastic one takes 0.23–0.27 s — with its default policy
//!   it never offloads at this size (`dist.elastic_steals` 0), so that
//!   is the local walk plus the coordinator's fixed costs — where the
//!   partitioned one, two in-process workers, takes 0.32–0.64 s
//!   (`dist.elastic_s` against `dist.inproc_s`, six traced runs of the
//!   repo benchmark at PR 21; the rows under `benchmark/results/` are
//!   ten times older).  Neither number says what the other engine would
//!   cost on the other's ground; ROADMAP 2(b) is where the two become
//!   one claim loop or one of them goes.
//!
//! Both kinds of worker ([`run_worker`], [`run_worker_elastic`]) are one
//! body: import the seed segments, rebuild subtree roots from the
//! frontier segment, walk them with the ordinary walker core — any
//! thread count, any memo tiering — and export the fresh memo delta
//! (full keys *and* summaries) as one sealed interchange segment.
//!
//! ## Determinism
//!
//! The final report is **bit-identical** to the serial walk.  Every
//! subtree summary is the result of the same deterministic child-order
//! merge *wherever* it is computed — a worker process is no different
//! from a stealer thread in this respect — and the merged memo is a
//! plain key → summary mapping, insensitive to import order because two
//! workers that both memoize a shared descendant necessarily computed
//! identical summaries for it.  The coordinator's replay then absorbs
//! child summaries in canonical enumeration order exactly as the serial
//! walk does; whether a summary came from its own walk, a thread, or
//! another process is unobservable.  Under-coverage is *safe*, not just
//! tolerated: a worker that was never launched, crashed, or exported
//! only part of its work merely leaves more for the replay to compute.
//! The coordinator still **fails loudly** ([`ExploreError::Worker`])
//! when a worker cannot be completed within its launch attempts, because
//! silent fallback to a near-serial replay would defeat the point of
//! distributing.  `tests/dist_differential.rs` pins all of it:
//! partitioned reports are bit-identical to `threads = 1` across
//! partition counts, frontier depths, worker memo tierings, and worker
//! crash/retry histories.
//!
//! ## Elastic distribution
//!
//! Static partitioning pays its whole coordination bill — frontier
//! expansion, worker spawn-up, export/merge — up front, whether or not
//! the run is long enough to amortize it.  The **elastic** engine
//! ([`explore_elastic_timed`]) inverts that: its work phase starts
//! walking the root *locally* through the same frame-stepped core, and
//! distribution is an escape hatch it only reaches for when the run
//! outlives a [`StealConfig`]'s thresholds.  Short runs therefore pay
//! nothing — they are a plain serial walk plus one
//! per-`yield_every`-steps policy check.
//!
//! Three mechanisms, all built on machinery the walker already proves
//! correct:
//!
//! * **progress protocol** — every elastic walk (local or worker)
//!   reports `(steps, frontier, fresh)` each `yield_every` steps;
//!   worker processes print it as parseable `dist-progress:` stdout
//!   lines which the coordinator tails into a live per-worker load
//!   board.  `frontier` counts the *unexplored siblings hanging off the
//!   DFS stack* — the work a preemption could harvest — and `fresh`
//!   counts new memo inserts, so a walk that is merely re-traversing
//!   memoized territory advertises no stealable value;
//! * **steal handshake** — the coordinator requests a steal by writing
//!   a flag file next to the victim's scratch; the victim observes it
//!   at its next report boundary, suspends, and exports two artifacts
//!   *in a fixed order*: first the harvested frontier (every unexplored
//!   subtree root, addressed by its **action-index path** from the true
//!   initial configuration — canonical keys are lossy under symmetry,
//!   so the path is the only faithful cross-process address), then its
//!   sealed memo delta.  A crash between the two leaves an unsealed
//!   delta that fails validation, so a half-preempted worker is
//!   indistinguishable from a dead one and simply retried.  The
//!   coordinator re-splits the harvested frontier across fresh workers,
//!   each seeded with *every* delta merged so far — stolen subtrees are
//!   never walked twice, and a re-assigned subtree that was already
//!   finished memoizes nothing fresh, cannot be preempted (preemption
//!   requires `fresh > 0`), and exits immediately, which bounds every
//!   preempt chain in a finite space;
//! * **memo handoff soundness** — the determinism argument above,
//!   unchanged: summaries are a function of the key, so merging a
//!   preempted worker's *partial* delta is as conflict-free as merging a
//!   complete one, and the final canonical replay recomputes anything
//!   the handoff under-covered.  Elastic scheduling decisions (when to
//!   offload, whom to preempt, how to re-split) can affect only
//!   *timing*, never the report.
//!
//! `tests/dist_differential.rs` pins the elastic engine the same way:
//! forced-steal runs (zero warm-up, preempt-everything policy) are
//! bit-identical to serial across both model kinds and partition
//! counts, through killed-mid-steal retries, steal requests that lose
//! the race with a natural finish, and — by proptest — arbitrary
//! `(yield_every, partitions, min_frontier)` re-split cadences.
//!
//! ## Fault tolerance
//!
//! Workers are crash-retryable by construction: an export is written to
//! a fresh file and *sealed* (record count patched into the header) only
//! at the end, so a killed worker leaves an unfinished file that fails
//! validation, and the coordinator relaunches it — the rerun overwrites
//! the remains.  Validation covers the magic/version header, every
//! record's CRC32, and the sealed record count
//! ([`crate::spill::SpillError`] classifies the failure modes).
//!
//! The partitioned retry loop is [`twostep_sim::run_tasks_supervised`],
//! the elastic one is the scheduler's own, and both read one
//! [`SuperviseConfig`]: per-worker attempts are bounded by
//! [`DistOptions::attempts`], retries back off deterministically
//! (doubling from [`SuperviseConfig::backoff`], no jitter — reruns
//! schedule identically), a panicking launch closure is contained as
//! that worker's failure, and [`SuperviseConfig::attempt_timeout`] bounds
//! any single launch under either engine (the attempt's
//! [`twostep_sim::CancelToken`] trips and the launch is expected to kill
//! its process and return).  The elastic scheduler additionally runs a
//! **liveness watchdog** over the progress-pulse feed
//! ([`SuperviseConfig::watchdog`]): a worker that stops pulsing is
//! cancelled and retried as if it had crashed.  Garbled `dist-progress:`
//! lines are skipped with a once-per-worker warning, never parsed into
//! the load board: a worker that lies about its progress can waste a
//! steal attempt; it cannot corrupt state.
//!
//! When a partition exhausts every launch attempt the coordinator
//! **degrades instead of failing** (unless
//! [`SuperviseConfig::degrade`] is off): it walks the orphaned frontier
//! slice locally — sound because under-coverage is safe (see above) and
//! the records to rebuild the slice are already on the coordinator's
//! side of the process boundary — and reports the event in
//! [`DistTimings::degraded_partitions`] / [`ElasticStats::degraded`].
//! The elastic scheduler also *quarantines* such a worker slot
//! (capacity shrinks; no future re-split lands on it).
//!
//! Every failure mode here is reproducible on demand: the
//! [`crate::faults`] harness injects crashes, hangs, corrupt/truncated
//! exports, slow IO, and lying pulses keyed by `(partition, attempt)`
//! ([`DistOptions::faults`]), and an IO shim can fail or tear the nth
//! coordinator-side spill/cache/checkpoint write.
//! `tests/fault_differential.rs` pins the contract: every survivable
//! plan is report-invisible (bit-identical to serial, by matrix and by
//! proptest), retry exhaustion degrades to an identical report, hung
//! workers die within the watchdog/timeout deadline, and no single torn
//! write leaves a cache a later run would trust.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use twostep_model::SystemConfig;
use twostep_sim::{
    panic_message, run_tasks_supervised, CancelToken, EnvKnob, RetryPolicy, RoundActions, Stepper,
    SupervisedAttempt, TraceLevel,
};

use crate::cache::CacheConfig;
use crate::explorer::{
    drive_elastic, walk_roots, CheckableProtocol, ElasticOutcome, ElasticPulse, ElasticVerdict,
    ExploreConfig, ExploreError, ExploreOptions, ExploreReport, Interrupt, PathedRoot, Run, Shared,
    WalkBudget, WalkOutcome, Walker,
};
use crate::faults::{self, FaultPlan, WorkerFault, WorkerPhase};
use crate::memo::key_validator;
use crate::spill::{read_frontier_segment, write_frontier_segment, SpillCodec, SpillDir};

/// How a partitioned exploration is split and merged.
#[derive(Clone, Debug)]
pub struct DistOptions {
    /// Number of frontier partitions == number of workers (min 1).
    pub partitions: usize,
    /// Frontier depth `d`: workers own the subtrees rooted at the
    /// distinct configurations reachable in exactly `d` rounds.  Depth 1
    /// already yields a frontier far wider than any sane partition count
    /// (every adversary move of round 1); deeper frontiers give finer
    /// partitions at the cost of a longer shared prefix that every
    /// worker re-expands.
    pub depth: u32,
    /// Launch attempts per worker before the coordinator gives up and
    /// reports [`ExploreError::Worker`] (min 1).
    pub attempts: usize,
    /// Root directory for the shared scratch (worker export segments);
    /// system temp dir when `None`.  A unique subdirectory is created
    /// per run and removed when the coordinator finishes.
    pub scratch_dir: Option<PathBuf>,
    /// Engine options the coordinator's run is opened and finished with
    /// (the finish is the merge replay).  Its own
    /// [`ExploreOptions::cache`] field is ignored — a distributed run's
    /// cache is configured by [`DistOptions::cache`], which also seeds
    /// the workers.  Its [`ExploreOptions::budget`] and
    /// [`ExploreOptions::checkpoint`] *are* honored and govern the whole
    /// pipeline: the deadline clock starts at coordinator entry and is
    /// checked both at the worker/replay phase boundary and per replay
    /// step, and a suspension checkpoints the coordinator memo — worker
    /// results included — for a later resumed run (which re-seeds the
    /// workers with it, so they skip everything already covered).
    /// Workers themselves always walk unbounded; suspension is a
    /// coordinator decision.
    pub replay: ExploreOptions,
    /// Persistent result cache ([`crate::cache`]).  When its
    /// fingerprint matches, the coordinator pre-seeds its own memo *and*
    /// writes a consolidated seed segment that every worker imports
    /// before walking — warm workers skip whole memoized subtrees and
    /// export only their (often empty) deltas, which is what removes the
    /// merge traffic from repeated runs.
    pub cache: Option<CacheConfig>,
    /// Work-stealing policy for the elastic engine
    /// ([`explore_elastic_timed`]); ignored by
    /// [`explore_partitioned_timed`].
    pub steal: StealConfig,
    /// Deterministic fault injection ([`crate::faults`]): which worker
    /// launches misbehave and how.  Empty by default — production runs
    /// inject nothing.
    pub faults: FaultPlan,
    /// Worker-lifecycle supervision: retry backoff, per-attempt timeout,
    /// pulse-liveness watchdog, and the degrade-vs-fail policy for
    /// partitions that exhaust their retry budget.
    pub supervise: SuperviseConfig,
}

impl DistOptions {
    /// Defaults for `partitions` workers: depth-1 frontier, 3 attempts,
    /// temp-dir scratch, default replay engine, no cache, stealing off,
    /// no injected faults, default supervision (degrade on exhaustion).
    pub fn new(partitions: usize) -> Self {
        DistOptions {
            partitions: partitions.max(1),
            depth: 1,
            attempts: 3,
            scratch_dir: None,
            replay: ExploreOptions::default(),
            cache: None,
            steal: StealConfig::default(),
            faults: FaultPlan::none(),
            supervise: SuperviseConfig::default(),
        }
    }
}

/// Worker-lifecycle supervision policy: how the coordinator retries,
/// times out, watches, and — when everything fails — degrades.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SuperviseConfig {
    /// Base delay before a worker's first relaunch; doubles per retry
    /// (deterministic, no jitter) up to [`backoff_cap`](Self::backoff_cap).
    /// `Duration::ZERO` relaunches immediately, the legacy behavior.
    pub backoff: Duration,
    /// Upper bound on any single backoff delay.
    pub backoff_cap: Duration,
    /// Wall-clock budget for one worker launch, under both coordinators:
    /// an attempt still running at the deadline has its [`CancelToken`]
    /// tripped and is retried as a crash.  `None` disables the
    /// per-attempt timeout.
    pub attempt_timeout: Option<Duration>,
    /// Pulse-liveness deadline for the elastic scheduler: a worker whose
    /// last `dist-progress:` pulse (or launch) is older than this is
    /// cancelled and retried as a crash.  `None` disables the watchdog.
    /// Ignored by the classic partitioned engine, whose workers don't
    /// pulse — [`attempt_timeout`](Self::attempt_timeout) is what bounds
    /// a launch there.
    pub watchdog: Option<Duration>,
    /// What retry-budget exhaustion means: `true` (default) walks the
    /// orphaned partition locally in the coordinator — the run *degrades*
    /// and still produces the exact report — while `false` preserves the
    /// legacy loud [`ExploreError::Worker`] failure.
    pub degrade: bool,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        SuperviseConfig {
            backoff: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(2),
            attempt_timeout: None,
            watchdog: None,
            degrade: true,
        }
    }
}

impl SuperviseConfig {
    /// The [`RetryPolicy`] this supervision config induces for
    /// `attempts` launches per task.
    pub fn policy(&self, attempts: usize) -> RetryPolicy {
        RetryPolicy {
            attempts: attempts.max(1),
            backoff: self.backoff,
            backoff_cap: self.backoff_cap,
            attempt_timeout: self.attempt_timeout,
        }
    }
}

/// `TWOSTEP_WATCHDOG_MS`: the pulse-liveness deadline in milliseconds
/// (`0` disables it).
pub(crate) const WATCHDOG_MS: EnvKnob<u64> = EnvKnob {
    name: "TWOSTEP_WATCHDOG_MS",
    fallback: "is not a millisecond count; keeping the default",
    parse: |raw| raw.parse().ok(),
};

/// `TWOSTEP_BACKOFF_MS`: the base retry backoff in milliseconds.
pub(crate) const BACKOFF_MS: EnvKnob<u64> = EnvKnob {
    name: "TWOSTEP_BACKOFF_MS",
    fallback: "is not a millisecond count; keeping the default",
    parse: |raw| raw.parse().ok(),
};

/// Resolves supervision overrides from the environment:
/// `TWOSTEP_WATCHDOG_MS` (pulse-liveness deadline, `0` disables) and
/// `TWOSTEP_BACKOFF_MS` (base retry backoff).  Garbage warns once per
/// process and leaves the default in place — never silently honored.
pub fn supervise_from_env() -> SuperviseConfig {
    let mut config = SuperviseConfig::default();
    if let Some(ms) = WATCHDOG_MS.get() {
        config.watchdog = (ms > 0).then(|| Duration::from_millis(ms));
    }
    if let Some(ms) = BACKOFF_MS.get() {
        config.backoff = Duration::from_millis(ms);
    }
    config
}

/// Work-stealing policy for [`explore_elastic_timed`]: when the coordinator
/// provisions workers, and when it preempts a loaded one to re-balance.
///
/// The defaults are deliberately lazy: a run that finishes within
/// [`poll_interval`](Self::poll_interval) — or whose harvestable
/// frontier never reaches [`min_frontier`](Self::min_frontier) — is
/// walked entirely in the coordinator process and never pays a single
/// worker spawn.  Distribution is an *escalation*, not a default.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StealConfig {
    /// Master switch; `false` means [`explore_elastic_timed`] runs the whole
    /// walk locally (observing pulses, never offloading).
    pub enabled: bool,
    /// Minimum harvestable frontier (unexplored subtree roots) before
    /// the coordinator offloads work or preempts a victim — below this
    /// the handoff costs more than the remaining walk.
    pub min_frontier: usize,
    /// How long the coordinator walks locally before considering
    /// offloading, and how often it re-evaluates steal opportunities
    /// while workers run.
    pub poll_interval: Duration,
    /// Worker progress-pulse cadence in walk steps: every this-many
    /// steps a worker reports its load and checks for a steal request.
    pub yield_every: u64,
}

impl Default for StealConfig {
    fn default() -> Self {
        StealConfig {
            enabled: false,
            min_frontier: 64,
            poll_interval: Duration::from_millis(250),
            yield_every: 2048,
        }
    }
}

impl StealConfig {
    /// Stealing enabled with the default thresholds.
    pub fn on() -> Self {
        StealConfig {
            enabled: true,
            ..Self::default()
        }
    }
}

/// `TWOSTEP_STEAL`: `1`/`true`/`on` or `0`/`false`/`off`.
pub(crate) const STEAL: EnvKnob<bool> = EnvKnob {
    name: "TWOSTEP_STEAL",
    fallback: "is not a toggle (1/0/true/false/on/off); work stealing stays off",
    parse: |raw| match raw.to_ascii_lowercase().as_str() {
        "1" | "true" | "on" => Some(true),
        "0" | "false" | "off" => Some(false),
        _ => None,
    },
};

/// Resolves the `TWOSTEP_STEAL` env toggle; `None` when unset, and —
/// loudly, once — when set to anything that is not a toggle: the user
/// would otherwise believe stealing is on when it is not.
pub fn steal_from_env() -> Option<bool> {
    STEAL.get()
}

/// One worker's assignment: which frontier partition to explore and
/// where to export the resulting memo segment.
#[derive(Clone, Debug)]
pub struct WorkerTask {
    /// This worker's partition, `0..partitions`.
    pub partition: usize,
    /// Total partition count.
    pub partitions: usize,
    /// Frontier depth the coordinator expanded to (informational: the
    /// worker reads the frontier from
    /// [`frontier_path`](Self::frontier_path)).
    pub depth: u32,
    /// Where the worker writes its sealed interchange segment — a
    /// **delta**: only the entries it computed beyond the seed.
    pub export_path: PathBuf,
    /// Optional seed segment (the coordinator's consolidated cache
    /// image) the worker imports before walking; subtrees answered by it
    /// are skipped, not re-explored, and excluded from the export.
    pub seed_path: Option<PathBuf>,
    /// The sealed frontier segment written by the coordinator (`(hash,
    /// path)` records for the *whole* depth-`d` frontier), from which
    /// the worker rebuilds its slice — the expansion happens once per
    /// run, not once per worker.  Every coordinator ships one; a worker
    /// handed `None` fails loudly.
    pub frontier_path: Option<PathBuf>,
    /// Which launch of this partition this is (0-based); the fault
    /// harness keys injected misbehavior by `(partition, attempt)`.
    pub attempt: usize,
    /// Injected misbehavior for this launch, resolved from
    /// [`DistOptions::faults`] by the coordinator; `None` (the
    /// production case) runs clean.
    pub fault: Option<WorkerFault>,
    /// The attempt's cooperative stop signal: tripped by the
    /// supervisor's timeout/watchdog.  An OS-process launch polls it and
    /// kills the child; in-process injected hangs poll it directly.
    pub cancel: CancelToken,
}

/// What one worker did, for logs and benches.
#[derive(Clone, Copy, Debug)]
pub struct WorkerReport {
    /// Distinct configurations on the full depth-`d` frontier.
    pub frontier: usize,
    /// Frontier subtree roots owned by this partition.
    pub owned: usize,
    /// Distinct configurations this worker memoized (seeded + fresh).
    pub distinct_states: usize,
    /// Entries pre-seeded from [`WorkerTask::seed_path`].
    pub seeded: u64,
    /// Records in the exported delta segment.
    pub exported: u64,
    /// Seconds spent importing the seed segment.
    pub seed_seconds: f64,
    /// Seconds spent rebuilding its subtree roots from the frontier
    /// segment.
    pub frontier_seconds: f64,
    /// Seconds spent walking the owned subtrees.
    pub walk_seconds: f64,
    /// Seconds spent exporting the delta segment.
    pub export_seconds: f64,
}

/// Expands `root` to the depth-`depth` frontier: the distinct
/// configurations reachable in exactly `depth` rounds, each as its
/// partitioning hash and its action-index path, in deterministic
/// (enumeration-order, first occurrence) order.  Terminal configurations
/// reached earlier are dropped — they are leaves the coordinator's
/// replay evaluates itself.
///
/// A configuration exists here only on a level that is expanded further:
/// the last level's are records from the moment their keys are
/// assembled, and nothing steps them.
fn expand_frontier<P>(
    walker: &mut Walker<'_, '_, P>,
    root: Stepper<P>,
    depth: u32,
) -> Result<Vec<FrontierRecord>, ExploreError>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    // The partitioning hash is the memo's own stable key-byte hash —
    // canonicalized under the run's symmetry plan, exactly as the walkers
    // key their memo lookups (`Walker::canonical_key` and
    // `Walker::cursor_key` keep every engine on the one key path) — so
    // every process running the same build partitions identically, and
    // pid-permuted frontier variants collapse onto one owner instead of
    // being walked by several.
    if depth == 0 {
        return Ok(vec![(walker.canonical_key(&root).0, Vec::new())]);
    }
    let mut level: Vec<(Vec<u32>, Stepper<P>)> = vec![(Vec::new(), root)];
    let mut records = Vec::new();
    for deeper in (0..depth).rev() {
        let mut seen: HashSet<Vec<u8>> = HashSet::new();
        let mut next = Vec::new();
        let mut actions = RoundActions::new();
        for (path, parent) in &level {
            if walker.is_terminal(parent) {
                continue;
            }
            let mut round = walker.open_round(parent).map_err(ExploreError::Engine)?;
            // Key first, like the walk itself.  A row whose successor
            // class the round has met is a repeated key: class numbers
            // are handed out in first-occurrence order, so dropping it
            // leaves that order untouched.  The first row of a class has
            // the plan's key assembled from its records, and a key the
            // level has not seen is stepped into existence only where the
            // next level opens its round.  (A round the engine does not
            // tabulate keys no row: every child is stepped, then keyed.)
            let mut met = 0;
            for idx in 0..round.len() {
                let assembled = match round.classify(idx) {
                    Some(class) if class < met => continue,
                    Some(class) => {
                        met = class + 1;
                        Some(walker.cursor_key(&mut round).0)
                    }
                    None => None,
                };
                if assembled.is_some() && seen.contains(walker.key_bytes()) {
                    continue;
                }
                let mut stepped = || {
                    round.actions_into(idx, &mut actions);
                    let mut child = parent.clone();
                    child.step(&actions).map_err(ExploreError::Engine)?;
                    Ok::<_, ExploreError>(child)
                };
                debug_assert!(
                    assembled
                        .is_none_or(|hash| stepped()
                            .is_ok_and(|child| walker.canonical_key(&child).0 == hash)),
                    "assembled frontier hash differs from the stepped child's"
                );
                let (hash, child) = match assembled {
                    Some(hash) if deeper == 0 => (hash, None),
                    Some(hash) => (hash, Some(stepped()?)),
                    None => {
                        let child = stepped()?;
                        (walker.canonical_key(&child).0, Some(child))
                    }
                };
                if seen.insert(walker.key_bytes().to_vec()) {
                    let mut path = path.clone();
                    path.push(idx as u32);
                    match child {
                        Some(child) if deeper > 0 => next.push((path, child)),
                        _ => records.push((hash, path)),
                    }
                }
            }
            walker.close_round(round);
        }
        level = next;
    }
    Ok(records)
}

/// A frontier record in wire form: the subtree root's canonical-key
/// hash plus its action-index path from the true initial configuration.
type FrontierRecord = (u64, Vec<u32>);

/// Rebuilds concrete configurations from `(hash, path)` frontier records
/// by re-driving the deterministic action enumeration from `root`.
/// Records sharing a path prefix share that prefix's enumeration and
/// stepping (a trie walk, not a per-record replay) — with hundreds of
/// depth-1 roots this is the difference between one root enumeration and
/// hundreds.  Output order equals input order: walk order is part of the
/// bit-identity contract.
fn reconstruct_paths<P>(
    walker: &mut Walker<'_, '_, P>,
    root: &Stepper<P>,
    records: Vec<(u64, Vec<u32>)>,
) -> Result<Vec<PathedRoot<P>>, ExploreError>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let mut out: Vec<Option<PathedRoot<P>>> = Vec::new();
    out.resize_with(records.len(), || None);
    let indexed: Vec<(usize, u64, Vec<u32>)> = records
        .into_iter()
        .enumerate()
        .map(|(slot, (hash, path))| (slot, hash, path))
        .collect();
    rebuild_level(walker, root, 0, indexed, &mut out)?;
    Ok(out
        .into_iter()
        .map(|slot| slot.expect("every frontier record was rebuilt"))
        .collect())
}

fn rebuild_level<P>(
    walker: &mut Walker<'_, '_, P>,
    node: &Stepper<P>,
    depth: usize,
    records: Vec<(usize, u64, Vec<u32>)>,
    out: &mut [Option<PathedRoot<P>>],
) -> Result<(), ExploreError>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let mut groups: BTreeMap<u32, Vec<(usize, u64, Vec<u32>)>> = BTreeMap::new();
    for (slot, hash, path) in records {
        if path.len() == depth {
            out[slot] = Some(PathedRoot {
                hash,
                path,
                stepper: node.clone(),
            });
        } else {
            groups
                .entry(path[depth])
                .or_default()
                .push((slot, hash, path));
        }
    }
    if groups.is_empty() {
        return Ok(());
    }
    let round = walker.open_round(node).map_err(ExploreError::Engine)?;
    let mut actions = RoundActions::new();
    for (idx, group) in groups {
        if idx as usize >= round.len() {
            // A path that indexes past the enumeration cannot have been
            // written by a same-build coordinator: classify like any
            // other damaged interchange artifact.
            return Err(ExploreError::Spill {
                detail: format!(
                    "frontier record selects action {idx} of {} at depth {depth}",
                    round.len()
                ),
            });
        }
        round.actions_into(idx as usize, &mut actions);
        let mut child = node.clone();
        child.step(&actions).map_err(ExploreError::Engine)?;
        rebuild_level(walker, &child, depth + 1, group, out)?;
    }
    walker.close_round(round);
    Ok(())
}

/// Walks `roots` to completion with `threads` walkers and no budget:
/// workers and degraded local walks never suspend — budgets belong to the
/// run's [`finish`](Run::finish), which owns the deadline clock and the
/// checkpoint.
fn walk_unbounded<P>(
    shared: &Shared<'_, P>,
    threads: usize,
    roots: Vec<PathedRoot<P>>,
) -> Result<(), ExploreError>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let roots = roots.into_iter().map(|r| r.stepper).collect();
    let unlimited = WalkBudget::unlimited();
    match walk_roots(shared, threads, roots, &unlimited, Instant::now(), None)? {
        WalkOutcome::Done(_) => Ok(()),
        WalkOutcome::Suspended { .. } => unreachable!("an unbounded walk never suspends"),
    }
}

/// Walks `roots` alone through the elastic driver, asking `observe` every
/// `yield_every` steps whether to go on.  `None` when every root is
/// memoized; otherwise the frontier a preemption left unexplored.
fn walk_elastic<P>(
    shared: &Shared<'_, P>,
    roots: Vec<PathedRoot<P>>,
    yield_every: u64,
    observe: impl FnMut(&ElasticPulse) -> ElasticVerdict,
) -> Result<Option<Vec<FrontierRecord>>, ExploreError>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let mut walker = Walker::new(shared);
    match drive_elastic(&mut walker, roots, yield_every.max(1), observe) {
        Ok(ElasticOutcome::Done) => Ok(None),
        Ok(ElasticOutcome::Preempted { frontier }) => Ok(Some(frontier)),
        Err(Interrupt::Failed(e)) => Err(e),
        Err(Interrupt::Stopped) => unreachable!("an elastic walk has no peers to stop it"),
    }
}

/// What a worker launch is handed, whichever coordinator launched it.
struct WorkerJob<'t> {
    /// Memo segments imported as seed, in order, before walking.
    seeds: &'t [PathBuf],
    /// The sealed frontier segment to rebuild subtree roots from.
    frontier: &'t Path,
    /// `Some((partition, partitions))` keeps only the records hashing
    /// into that partition; `None` means the whole segment is this
    /// worker's.
    slice: Option<(usize, usize)>,
    /// Where the fresh memo delta goes.
    export: &'t Path,
    fault: Option<WorkerFault>,
    cancel: &'t CancelToken,
}

/// The one worker body: seed import → frontier-segment rebuild → `walk`
/// → delta export, with the fault hooks of [`crate::faults`] at each
/// phase boundary.  `walk` explores the rebuilt roots and returns the
/// frontier it was preempted off, if any, with the path to write it to;
/// the flag in the result says whether it did.
fn worker_body<'t, P>(
    system: SystemConfig,
    config: ExploreConfig,
    engine: &ExploreOptions,
    initial: Vec<P>,
    proposals: &[P::Output],
    job: WorkerJob<'t>,
    walk: impl FnOnce(
        &Shared<'_, P>,
        Vec<PathedRoot<P>>,
    ) -> Result<Option<(&'t Path, Vec<FrontierRecord>)>, ExploreError>,
) -> Result<(WorkerReport, bool), ExploreError>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let root = Stepper::new(system, config.model, TraceLevel::Off, initial.clone())
        .map_err(ExploreError::Engine)?;
    let shared = Shared::new(system, config, engine, proposals, initial)?;
    let seed_start = Instant::now();
    faults::at_phase(job.fault, WorkerPhase::Seed, job.cancel)?;
    let mut seeded = 0;
    for seed in job.seeds {
        // A worker's seeds come from its own coordinator over a process
        // boundary it shares a disk with; a damaged seed means the run
        // is broken, so fail (and let the coordinator retry) rather than
        // silently exploring cold and re-exporting the whole space.
        seeded += shared.memo.import_seed_from(seed, key_validator::<P>())?;
    }
    let seed_seconds = seed_start.elapsed().as_secs_f64();
    let frontier_start = Instant::now();
    faults::at_phase(job.fault, WorkerPhase::Frontier, job.cancel)?;
    let mut records = read_frontier_segment(job.frontier)?;
    let frontier = records.len();
    if let Some((partition, partitions)) = job.slice {
        records.retain(|(hash, _)| (hash % partitions as u64) as usize == partition);
    }
    let roots = reconstruct_paths(&mut Walker::new(&shared), &root, records)?;
    let owned = roots.len();
    let frontier_seconds = frontier_start.elapsed().as_secs_f64();
    let walk_start = Instant::now();
    faults::at_phase(job.fault, WorkerPhase::Walk, job.cancel)?;
    let handoff = walk(&shared, roots)?;
    let walk_seconds = walk_start.elapsed().as_secs_f64();
    let export_start = Instant::now();
    faults::at_phase(job.fault, WorkerPhase::Export, job.cancel)?;
    if let Some((preempt_path, remaining)) = &handoff {
        // Frontier first: if the process dies between the two writes the
        // coordinator sees a valid preempt segment but an unsealed
        // export, fails validation, and retries — never the reverse (an
        // export without its frontier would silently drop the
        // unexplored subtrees until the replay recomputed them
        // serially).
        write_frontier_segment(preempt_path, remaining)?;
    }
    let exported = shared.memo.export_delta(job.export)?;
    // Post-export damage (corrupt/truncate): the worker then *claims*
    // success, and the coordinator's validation must catch it.
    faults::mangle_export(job.fault, job.export)?;
    let report = WorkerReport {
        frontier,
        owned,
        distinct_states: shared.memo.len(),
        seeded,
        exported,
        seed_seconds,
        frontier_seconds,
        walk_seconds,
        export_seconds: export_start.elapsed().as_secs_f64(),
    };
    Ok((report, handoff.is_some()))
}

/// Runs one partition worker to completion: imports its seed, rebuilds
/// its slice of the coordinator's frontier segment, explores the owned
/// subtrees with the given engine, and exports the memo delta as a
/// sealed interchange segment at `task.export_path`.
///
/// Callable in-process (the differential suite does) or as the body of a
/// worker OS process (`twostep-dist --dist-worker`); either way the
/// exported segment is identical.  A task without a
/// [`frontier_path`](WorkerTask::frontier_path) is an error: every
/// coordinator ships one.
pub fn run_worker<P>(
    system: SystemConfig,
    config: ExploreConfig,
    engine: ExploreOptions,
    initial: Vec<P>,
    proposals: Vec<P::Output>,
    task: &WorkerTask,
) -> Result<WorkerReport, ExploreError>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    assert!(task.partitions >= 1, "at least one partition");
    assert!(
        task.partition < task.partitions,
        "partition {} out of range (of {})",
        task.partition,
        task.partitions
    );
    let Some(frontier) = &task.frontier_path else {
        return Err(ExploreError::Worker {
            partition: task.partition,
            detail: "the task names no frontier segment to rebuild its subtree roots from"
                .to_string(),
        });
    };
    let job = WorkerJob {
        seeds: task.seed_path.as_slice(),
        frontier,
        slice: Some((task.partition, task.partitions)),
        export: &task.export_path,
        fault: task.fault,
        cancel: &task.cancel,
    };
    let walk = |shared: &Shared<'_, P>, roots| {
        walk_unbounded(shared, engine.threads, roots).map(|()| None)
    };
    worker_body(system, config, &engine, initial, &proposals, job, walk).map(|(report, _)| report)
}

/// Per-phase wall-clock breakdown of one distributed exploration, so
/// coordinator overhead is attributable instead of one opaque number.
/// Worker-internal phases (frontier rebuild, subtree walk, delta export)
/// are reported per worker in [`WorkerReport`]; these are the
/// coordinator-side phases.
#[derive(Clone, Copy, Debug, Default)]
pub struct DistTimings {
    /// Seeding: importing the persistent cache into the coordinator
    /// memo and writing the consolidated worker seed segment.
    pub seed_seconds: f64,
    /// The coordinator's single depth-`d` frontier expansion (written to
    /// the shared frontier segment; workers import their slice instead
    /// of re-expanding).
    pub frontier_seconds: f64,
    /// The worker phase, wall clock: first launch to last validated
    /// import (includes crashed-worker retries).
    pub workers_wall_seconds: f64,
    /// Segment merge: summed durations of the coordinator-side imports
    /// of worker export segments (they overlap in wall time — workers
    /// finish at different moments — so this is CPU attribution, not a
    /// wall-clock slice).
    pub merge_seconds: f64,
    /// The canonical root replay over the merged memo.
    pub replay_seconds: f64,
    /// Census and (if violating) witness reconstruction.
    pub report_seconds: f64,
    /// Partitions that exhausted their retry budget and were walked
    /// locally by the coordinator instead ([`SuperviseConfig::degrade`]).
    /// `0` on every clean run.
    pub degraded_partitions: usize,
    /// Wall clock spent on those degraded local walks.
    pub degraded_seconds: f64,
}

/// Walks `(hash, path)` records in the coordinator itself — the degraded
/// fallback for a slice whose worker exhausted every retry.  Sound for
/// the same reason under-coverage is: whatever the failed launches did
/// or didn't export, these subtrees end up memoized exactly once, here.
fn walk_locally<P>(
    run: &Run<'_, P>,
    threads: usize,
    records: Vec<FrontierRecord>,
) -> Result<(), ExploreError>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let roots = reconstruct_paths(&mut Walker::new(&run.shared), &run.root, records)?;
    walk_unbounded(&run.shared, threads, roots)
}

/// Finishes a coordinator's run ([`Run::finish`]: replay, report,
/// commit), filing the two phases it times under `timings`.
fn finish_timed<P>(
    run: Run<'_, P>,
    mut timings: DistTimings,
) -> Result<(ExploreReport<P::Output>, DistTimings), ExploreError>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let (report, replay_seconds, report_seconds) = run.finish()?;
    timings.replay_seconds = replay_seconds;
    timings.report_seconds = report_seconds;
    Ok((report, timings))
}

/// Explores `initial` by frontier partitioning: launches one worker per
/// partition via `launch`, validates and retries failed workers, merges
/// every exported segment into a pre-seeded memo, and replays the
/// canonical root walk over it.  Also returns the coordinator's
/// per-phase [`DistTimings`].
///
/// The report is bit-identical to [`crate::explore_with`] at any
/// partition count, any worker engine, and any worker crash/retry
/// history (module docs give the argument).  `launch` runs one worker to
/// completion — typically by spawning an OS process with the task's
/// parameters and waiting for it — and returns a human-readable error if
/// the worker could not run; the coordinator additionally validates the
/// export file itself, so a worker that *claims* success with a damaged
/// or unsealed export is also retried.
pub fn explore_partitioned_timed<P, L>(
    system: SystemConfig,
    config: ExploreConfig,
    options: &DistOptions,
    initial: Vec<P>,
    proposals: Vec<P::Output>,
    launch: L,
) -> Result<(ExploreReport<P::Output>, DistTimings), ExploreError>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
    L: Fn(&WorkerTask) -> Result<(), String> + Sync,
{
    let partitions = options.partitions.max(1);
    // An `io=` clause in the fault plan arms the IO shim over this
    // (the coordinator) thread's writes for the run's duration; workers
    // are untouched — their faults ride the task.
    let _io_fault = options.faults.io.map(faults::install_io_fault);
    // The scratch dir is owned by this function: whichever way it exits
    // — success, worker-retry exhaustion, validation failure, engine
    // error, even unwind — `scratch` drops and the directory is removed
    // recursively (`SpillDir`); only the caller-provided root outlives
    // the run.
    let scratch = SpillDir::create(options.scratch_dir.as_deref())?;
    let mut timings = DistTimings::default();

    let seed_start = Instant::now();
    let cache = options.cache.clone();
    let run = Run::open(system, config, &options.replay, cache, &proposals, initial)?;
    let shared = &run.shared;
    let seed_path = if shared.memo.len() == 0 {
        None
    } else {
        let mut segments = run.cache_segments();
        if run.resumed == 0 && segments.len() == 1 {
            // The common warm case: one sealed image the coordinator
            // just imported end to end.  Hand workers that very file
            // (they only read it) instead of re-compressing and
            // re-writing the whole image into the scratch dir.  (With a
            // resumed checkpoint in the memo the cache file alone would
            // under-seed, so that case falls through to a full export.)
            segments.pop()
        } else {
            let path = scratch.path().join("seed.seg");
            shared.memo.export_to(&path)?;
            Some(path)
        }
    };
    timings.seed_seconds = seed_start.elapsed().as_secs_f64();

    // Expand the depth-`d` frontier once, here, and ship it to every
    // worker as a sealed frontier segment.  The records stay alive past
    // the worker phase: if a partition exhausts its retry budget, the
    // coordinator rebuilds that slice from them and walks it locally.
    let frontier_start = Instant::now();
    let frontier_records =
        expand_frontier(&mut Walker::new(shared), run.root.clone(), options.depth)?;
    let frontier_path = scratch.path().join("frontier.seg");
    write_frontier_segment(&frontier_path, &frontier_records)?;
    timings.frontier_seconds = frontier_start.elapsed().as_secs_f64();

    let merge_seconds = Mutex::new(0f64);
    let workers_start = Instant::now();
    let policy = options.supervise.policy(options.attempts);
    let outcomes = run_tasks_supervised(partitions, &policy, |ctx: &SupervisedAttempt| {
        let task = WorkerTask {
            partition: ctx.index,
            partitions,
            depth: options.depth,
            export_path: scratch.path().join(format!("worker{}.seg", ctx.index)),
            seed_path: seed_path.clone(),
            frontier_path: Some(frontier_path.clone()),
            attempt: ctx.attempt,
            fault: options.faults.for_worker(ctx.index as u64, ctx.attempt),
            cancel: ctx.cancel.clone(),
        };
        launch(&task)?;
        // Trust nothing a process boundary crossed: the import scans
        // header, every record's CRC, and the sealed record count —
        // merging and validating in one pass over the file.  A
        // partial import of a file that fails mid-scan is harmless:
        // every record that passed its CRC is a correct
        // (key, summary) pair, so it simply pre-seeds the memo the
        // retried worker would re-export anyway (duplicate inserts
        // are absorbed).  Deltas import as *fresh*: relative to the
        // persistent cache they are exactly what this run added.
        let merge_start = Instant::now();
        let result = shared
            .memo
            .import_from(&task.export_path, key_validator::<P>())
            .map(|_| ())
            .map_err(|e| e.to_string());
        *merge_seconds.lock().expect("merge timing poisoned") +=
            merge_start.elapsed().as_secs_f64();
        result
    });
    timings.workers_wall_seconds = workers_start.elapsed().as_secs_f64();
    timings.merge_seconds = merge_seconds.into_inner().expect("merge timing poisoned");
    let degraded_start = Instant::now();
    for (partition, outcome) in outcomes.into_iter().enumerate() {
        let Err(err) = outcome else { continue };
        let detail = err.to_string();
        if !options.supervise.degrade {
            return Err(ExploreError::Worker { partition, detail });
        }
        // Graceful degradation: under-coverage is safe (module docs), so
        // an orphaned partition is walked right here — slower than a
        // worker, but the run completes with the exact report instead of
        // dying after every retry already failed.
        eprintln!(
            "twostep: partition {partition} exhausted its {} launch attempt(s) \
             ({detail}); walking it locally in degraded mode",
            policy.attempts
        );
        let mine = frontier_records
            .iter()
            .filter(|(hash, _)| (hash % partitions as u64) as usize == partition)
            .cloned()
            .collect();
        walk_locally(&run, options.replay.threads, mine)?;
        timings.degraded_partitions += 1;
    }
    if timings.degraded_partitions > 0 {
        timings.degraded_seconds = degraded_start.elapsed().as_secs_f64();
    }
    finish_timed(run, timings)
}

/// [`explore_partitioned_timed`] with every worker run inside this
/// process — the zero-setup path (and the one the differential suite
/// exercises): workers still communicate solely through exported segment
/// files, so the merge path is identical to the multi-process
/// deployment.
///
/// `worker_engine` selects each worker's thread count and memo tiering;
/// the coordinator's replay uses `options.replay`.
pub fn explore_partitioned_in_process<P>(
    system: SystemConfig,
    config: ExploreConfig,
    options: &DistOptions,
    worker_engine: ExploreOptions,
    initial: Vec<P>,
    proposals: Vec<P::Output>,
) -> Result<ExploreReport<P::Output>, ExploreError>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let worker_initial = initial.clone();
    let worker_proposals = proposals.clone();
    let launch = |task: &WorkerTask| {
        run_worker(
            system,
            config,
            worker_engine.clone(),
            worker_initial.clone(),
            worker_proposals.clone(),
            task,
        )
        .map(|_| ())
        .map_err(|e| e.to_string())
    };
    explore_partitioned_timed(system, config, options, initial, proposals, launch)
        .map(|(report, _)| report)
}

/// One elastic worker's assignment: the frontier slice it walks, the
/// seeds it imports first, and the rendezvous files of the steal
/// handshake.  Unlike [`WorkerTask`] there is no partition arithmetic —
/// the coordinator already sliced the frontier into this worker's own
/// sealed segment.
#[derive(Clone, Debug)]
pub struct ElasticTask {
    /// Coordinator-assigned worker id (monotonic across the run,
    /// including stolen re-splits — not a partition index).
    pub worker: u64,
    /// Memo segments to import as *seed* before walking, in order: the
    /// coordinator's pre-offload image plus every previously merged
    /// worker delta.  Seeded entries are skipped, not re-explored, and
    /// excluded from the export.
    pub seed_paths: Vec<PathBuf>,
    /// Sealed frontier segment holding exactly this worker's subtree
    /// roots (`(hash, path)` records; no partition filter applies).
    pub frontier_path: PathBuf,
    /// Where the worker exports its fresh memo delta when it exits
    /// (finished *or* preempted).
    pub export_path: PathBuf,
    /// Where a preempted worker writes its remaining frontier as a
    /// sealed frontier segment for the coordinator to re-split.
    pub preempt_path: PathBuf,
    /// Steal-request signal file: the coordinator creates it; the worker
    /// polls for it every [`yield_every`](Self::yield_every) steps and,
    /// once seen (and after fresh progress), suspends.
    pub steal_flag: PathBuf,
    /// Progress-pulse cadence in walk steps.
    pub yield_every: u64,
    /// Injected misbehavior for this launch, resolved from
    /// [`DistOptions::faults`] by `(worker id, attempt)`; `None` (the
    /// production case) runs clean.
    pub fault: Option<WorkerFault>,
    /// The attempt's cooperative stop signal: tripped by the
    /// supervisor's watchdog when the worker stops pulsing.  An
    /// OS-process launch polls it and kills the child; in-process
    /// injected hangs poll it directly.
    pub cancel: CancelToken,
}

/// How an elastic worker exited.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ElasticExit {
    /// Walked its whole frontier slice; the export delta covers it.
    Finished,
    /// Honored a steal request: the export delta covers every subtree it
    /// finished, and [`ElasticTask::preempt_path`] holds the rest.
    Preempted,
}

/// One progress pulse from an elastic worker, forwarded to the
/// coordinator every [`ElasticTask::yield_every`] steps.  Over a process
/// boundary this is a parsed `dist-progress:` stdout line; in-process it
/// is a plain callback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerPulse {
    /// Which worker ([`ElasticTask::worker`]).
    pub worker: u64,
    /// Walk steps performed so far.
    pub steps: u64,
    /// Harvestable frontier right now: unexplored immediate children on
    /// the DFS stack plus whole roots not yet entered — the coordinator's
    /// live load estimate for victim selection.
    pub frontier: usize,
    /// Distinct configurations memoized since the walk began.
    pub fresh: usize,
}

/// What the elastic coordinator actually did, for logs and benches.
#[derive(Clone, Copy, Debug, Default)]
pub struct ElasticStats {
    /// Worker launches, counting stolen re-splits (not retries).
    pub workers_launched: usize,
    /// Completed steals: preempt requests that came back with a frontier
    /// the coordinator re-split across idle capacity.
    pub steals: u64,
    /// Whether the run ever left the coordinator process.  `false` means
    /// the local-first walk finished inside the steal policy's thresholds
    /// and the run was effectively serial — the common quick-run case.
    pub offloaded: bool,
    /// Worker slices that exhausted their retry budget and were walked
    /// locally by the coordinator instead ([`SuperviseConfig::degrade`]).
    /// `0` on every clean run.
    pub degraded: usize,
    /// Worker slots quarantined after retry exhaustion: capacity the
    /// scheduler stopped re-splitting onto.
    pub quarantined: usize,
}

/// Runs one elastic worker to completion or preemption.
///
/// The walk itself is single-threaded ([`ElasticTask::yield_every`]-step
/// pulses require the frame-stepped driver); `engine` still governs memo
/// tiering and spill configuration.  Callable in-process (the
/// differential suite does) or as the body of a worker OS process
/// (`twostep-dist --dist-elastic-worker`); either way the exported
/// segments are identical.
pub fn run_worker_elastic<P>(
    system: SystemConfig,
    config: ExploreConfig,
    engine: ExploreOptions,
    initial: Vec<P>,
    proposals: Vec<P::Output>,
    task: &ElasticTask,
    pulse: &(dyn Fn(WorkerPulse) + Sync),
) -> Result<ElasticExit, ExploreError>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let job = WorkerJob {
        seeds: &task.seed_paths,
        frontier: &task.frontier_path,
        slice: None,
        export: &task.export_path,
        fault: task.fault,
        cancel: &task.cancel,
    };
    let lying = faults::lies(task.fault);
    let walk = |shared: &Shared<'_, P>, roots| {
        let remaining = walk_elastic(shared, roots, task.yield_every, |p| {
            pulse(WorkerPulse {
                worker: task.worker,
                steps: p.steps,
                // A lying worker advertises a wildly inflated load; the
                // steal scheduler may preempt it for nothing, and the
                // result must still be exact.
                frontier: if lying {
                    faults::lying_frontier(p.frontier)
                } else {
                    p.frontier
                },
                fresh: p.fresh,
            });
            if task.steal_flag.exists() {
                ElasticVerdict::Preempt
            } else {
                ElasticVerdict::Continue
            }
        })?;
        Ok(remaining.map(|frontier| (task.preempt_path.as_path(), frontier)))
    };
    let (_, preempted) = worker_body(system, config, &engine, initial, &proposals, job, walk)?;
    Ok(if preempted {
        ElasticExit::Preempted
    } else {
        ElasticExit::Finished
    })
}

/// A live elastic worker, from the coordinator's side of the handshake.
struct ActiveWorker {
    task: ElasticTask,
    attempt: usize,
    /// A steal flag has been written and not yet answered; such a victim
    /// is never flagged twice.
    flagged: bool,
    /// When the current attempt was launched — the liveness baseline for
    /// a worker that has not pulsed yet.
    spawned_at: Instant,
    /// A failed attempt waiting out its deterministic backoff; respawned
    /// when the deadline passes.  The slot stays occupied meanwhile.
    retry_at: Option<Instant>,
}

/// Sends the worker's result to the coordinator exactly once — including
/// when `launch` panics, so the scheduler loop never hangs on a worker
/// that will not report.
struct SendGuard {
    tx: mpsc::Sender<(u64, Result<ElasticExit, String>)>,
    worker: u64,
    done: bool,
}

impl SendGuard {
    fn finish(mut self, result: Result<ElasticExit, String>) {
        self.done = true;
        let _ = self.tx.send((self.worker, result));
    }
}

impl Drop for SendGuard {
    fn drop(&mut self) {
        if !self.done {
            let _ = self
                .tx
                .send((self.worker, Err("worker launch panicked".to_string())));
        }
    }
}

/// Explores `initial` elastically: walk locally first, offload to
/// workers only when the steal policy says the run is big enough, and
/// re-balance by preempting loaded workers while idle capacity exists.
/// Also returns the coordinator's per-phase [`DistTimings`] and the
/// run's [`ElasticStats`].
///
/// The report is bit-identical to [`crate::explore_with`] — see the
/// module docs ("Elastic distribution") for the soundness argument.  `launch` runs one worker to completion —
/// in-process or by spawning an OS process and tailing its pipe — and
/// forwards every progress pulse to the provided callback.
pub fn explore_elastic_timed<P, L>(
    system: SystemConfig,
    config: ExploreConfig,
    options: &DistOptions,
    initial: Vec<P>,
    proposals: Vec<P::Output>,
    launch: L,
) -> Result<(ExploreReport<P::Output>, DistTimings, ElasticStats), ExploreError>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
    L: Fn(&ElasticTask, &(dyn Fn(WorkerPulse) + Sync)) -> Result<ElasticExit, String> + Sync,
{
    let partitions = options.partitions.max(1);
    let steal = &options.steal;
    let attempts = options.attempts.max(1);
    // See `explore_partitioned_timed`: an `io=` clause arms the IO shim
    // over the coordinator thread's writes for the run.
    let _io_fault = options.faults.io.map(faults::install_io_fault);
    let scratch = SpillDir::create(options.scratch_dir.as_deref())?;
    let mut timings = DistTimings::default();
    let mut stats = ElasticStats::default();

    let seed_start = Instant::now();
    let cache = options.cache.clone();
    let run = Run::open(system, config, &options.replay, cache, &proposals, initial)?;
    let shared = &run.shared;
    timings.seed_seconds = seed_start.elapsed().as_secs_f64();

    // No upfront frontier expansion (`options.depth` is a partitioned
    // concern): the local walk starts at the root itself, and a preempted
    // stack *harvests* its natural frontier — the unexplored children of
    // whatever the DFS was holding when the steal policy fired.  That
    // keeps the never-offloads path within a whisker of the plain serial
    // walk, which is what lets elastic distribution win the quick bench
    // instead of taxing it.
    let frontier_start = Instant::now();
    let roots = vec![PathedRoot {
        hash: Walker::new(shared).canonical_key(&run.root).0,
        path: Vec::new(),
        stepper: run.root.clone(),
    }];
    timings.frontier_seconds = frontier_start.elapsed().as_secs_f64();

    // Local-first: walk in this very process and only consider
    // offloading once the run has outlived `poll_interval` *and* still
    // holds a frontier worth splitting.  A quick run never pays a worker
    // spawn; a big one sheds its whole remaining frontier in one preempt.
    let workers_start = Instant::now();
    let local = walk_elastic(shared, roots, steal.yield_every, |p| {
        if steal.enabled
            && partitions > 1
            && workers_start.elapsed() >= steal.poll_interval
            && p.frontier >= steal.min_frontier.max(1)
        {
            ElasticVerdict::Preempt
        } else {
            ElasticVerdict::Continue
        }
    })?;
    let mut pending: VecDeque<FrontierRecord> = local.unwrap_or_default().into();

    if !pending.is_empty() {
        stats.offloaded = true;
        // Everything walked so far — cache seed plus the local phase —
        // becomes the first worker seed.
        let first_seed = scratch.path().join("elastic-seed.seg");
        shared.memo.export_to(&first_seed)?;
        let mut seed_paths = vec![first_seed];

        let (tx, rx) = mpsc::channel::<(u64, Result<ElasticExit, String>)>();
        let pulse_board: Mutex<HashMap<u64, (usize, Instant)>> = Mutex::new(HashMap::new());
        let pulse_fn = |p: WorkerPulse| {
            pulse_board
                .lock()
                .expect("pulse board poisoned")
                .insert(p.worker, (p.frontier, Instant::now()));
        };
        let pulse_dyn: &(dyn Fn(WorkerPulse) + Sync) = &pulse_fn;
        let launch = &launch;
        let mut active: HashMap<u64, ActiveWorker> = HashMap::new();
        let mut next_worker = 0u64;
        let poll = steal.poll_interval.max(Duration::from_millis(1));
        let policy = options.supervise.policy(attempts);

        std::thread::scope(|scope| -> Result<(), ExploreError> {
            // Launches one attempt of `task`, containing panics: a
            // panicking launch closure reports as that worker's failure
            // (and is retried), never as coordinator death.
            let spawn_launch = |task: &ElasticTask| {
                let spawn_task = task.clone();
                let guard = SendGuard {
                    tx: tx.clone(),
                    worker: task.worker,
                    done: false,
                };
                scope.spawn(move || {
                    let result = catch_unwind(AssertUnwindSafe(|| launch(&spawn_task, pulse_dyn)))
                        .unwrap_or_else(|payload| {
                            Err(format!(
                                "worker launch panicked: {}",
                                panic_message(payload)
                            ))
                        });
                    guard.finish(result);
                });
            };
            loop {
                // Quarantined slots shrink capacity; with every slot
                // quarantined, whatever is still pending is walked
                // locally — the scheduler refuses to hand work to a
                // worker population that has failed every budget.
                let capacity = partitions - stats.quarantined.min(partitions - 1);
                if stats.quarantined >= partitions && !pending.is_empty() {
                    let records: Vec<FrontierRecord> = pending.drain(..).collect();
                    eprintln!(
                        "twostep: every worker slot is quarantined; walking the remaining \
                         {} frontier record(s) locally in degraded mode",
                        records.len()
                    );
                    walk_locally(&run, 1, records)?;
                    stats.degraded += 1;
                }
                // Respawn attempts whose deterministic backoff elapsed.
                let now = Instant::now();
                for w in active.values_mut() {
                    if w.retry_at.is_some_and(|at| at <= now) {
                        w.retry_at = None;
                        // Refresh the seeds: deltas merged since the
                        // first launch shrink the rerun.
                        w.task.seed_paths = seed_paths.clone();
                        w.task.fault = options.faults.for_worker(w.task.worker, w.attempt);
                        w.task.cancel = CancelToken::new();
                        w.attempt += 1;
                        w.spawned_at = now;
                        spawn_launch(&w.task);
                    }
                }
                // Fill idle slots: split the pending frontier evenly
                // across them (hash-order chunks; determinism of the
                // *result* never depends on the split — module docs).
                while !pending.is_empty() && active.len() < capacity {
                    let take = pending
                        .len()
                        .div_ceil(capacity - active.len())
                        .min(pending.len());
                    let chunk: Vec<FrontierRecord> = pending.drain(..take).collect();
                    let worker = next_worker;
                    next_worker += 1;
                    let frontier_path =
                        scratch.path().join(format!("elastic-frontier{worker}.seg"));
                    write_frontier_segment(&frontier_path, &chunk)?;
                    let task = ElasticTask {
                        worker,
                        seed_paths: seed_paths.clone(),
                        frontier_path,
                        export_path: scratch.path().join(format!("elastic-export{worker}.seg")),
                        preempt_path: scratch.path().join(format!("elastic-preempt{worker}.seg")),
                        steal_flag: scratch.path().join(format!("elastic-steal{worker}.flag")),
                        yield_every: steal.yield_every.max(1),
                        fault: options.faults.for_worker(worker, 0),
                        cancel: CancelToken::new(),
                    };
                    stats.workers_launched += 1;
                    spawn_launch(&task);
                    active.insert(
                        worker,
                        ActiveWorker {
                            task,
                            attempt: 1,
                            flagged: false,
                            spawned_at: Instant::now(),
                            retry_at: None,
                        },
                    );
                }
                if active.is_empty() {
                    if pending.is_empty() {
                        break;
                    }
                    continue;
                }
                // Idle capacity and nothing queued: preempt the most
                // loaded un-flagged worker whose advertised frontier
                // clears the threshold.
                if pending.is_empty() && active.len() < capacity {
                    let victim = {
                        let board = pulse_board.lock().expect("pulse board poisoned");
                        active
                            .iter()
                            .filter(|(_, w)| !w.flagged && w.retry_at.is_none())
                            .filter_map(|(&id, _)| board.get(&id).map(|&(f, _)| (id, f)))
                            .filter(|&(_, f)| f >= steal.min_frontier.max(1))
                            .max_by_key(|&(id, f)| (f, std::cmp::Reverse(id)))
                            .map(|(id, _)| id)
                    };
                    if let Some(id) = victim {
                        let w = active.get_mut(&id).expect("victim is active");
                        std::fs::write(&w.task.steal_flag, b"steal").map_err(|e| {
                            ExploreError::Coordinator {
                                detail: format!("writing steal flag: {e}"),
                            }
                        })?;
                        w.flagged = true;
                    }
                }
                // Liveness: an attempt older than the per-attempt
                // timeout, or — the watchdog — one whose last pulse (or
                // launch) is older than the pulse deadline, is cancelled:
                // the launch kills its process and reports a failure,
                // which flows into the ordinary retry path below.
                {
                    let board = pulse_board.lock().expect("pulse board poisoned");
                    for w in active.values() {
                        if w.retry_at.is_some() || w.task.cancel.is_cancelled() {
                            continue;
                        }
                        let worker = w.task.worker;
                        let last_alive = (board.get(&worker))
                            .map_or(w.spawned_at, |&(_, at)| at.max(w.spawned_at));
                        let overdue = match (policy.attempt_timeout, options.supervise.watchdog) {
                            (Some(timeout), _) if w.spawned_at.elapsed() >= timeout => {
                                format!("exceeded its {timeout:?} attempt timeout")
                            }
                            (_, Some(deadline)) if last_alive.elapsed() >= deadline => {
                                format!("has not pulsed within {deadline:?}")
                            }
                            _ => continue,
                        };
                        eprintln!(
                            "twostep: worker {worker} {overdue}; cancelling the attempt \
                             and retrying it as crashed"
                        );
                        w.task.cancel.cancel();
                    }
                }
                let (worker, result) = match rx.recv_timeout(poll) {
                    Ok(report) => report,
                    Err(mpsc::RecvTimeoutError::Timeout) => continue,
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        unreachable!("the coordinator holds a sender")
                    }
                };
                let w = active.get_mut(&worker).expect("unknown worker reported");
                // Trust nothing a thread/process boundary crossed: the
                // import validates header, per-record CRCs, and the
                // sealed count; a preempt segment is validated the same
                // way.  Any failure is charged to the worker and retried.
                let resolved: Result<Option<Vec<FrontierRecord>>, String> =
                    result.and_then(|exit| {
                        let merge_start = Instant::now();
                        let merged = shared
                            .memo
                            .import_from(&w.task.export_path, key_validator::<P>())
                            .map(|_| ())
                            .map_err(|e| e.to_string());
                        timings.merge_seconds += merge_start.elapsed().as_secs_f64();
                        merged?;
                        match exit {
                            ElasticExit::Finished => Ok(None),
                            ElasticExit::Preempted => read_frontier_segment(&w.task.preempt_path)
                                .map(Some)
                                .map_err(|e| e.to_string()),
                        }
                    });
                match resolved {
                    Ok(handed) => {
                        // The merged delta seeds every future worker, so
                        // a stolen subtree is never walked twice.
                        seed_paths.push(w.task.export_path.clone());
                        if let Some(handed) = handed {
                            stats.steals += 1;
                            pending.extend(handed);
                        }
                        active.remove(&worker);
                    }
                    Err(detail) if w.attempt >= attempts && options.supervise.degrade => {
                        // Quarantine the slot and walk its slice locally:
                        // the run degrades, it does not die.  The slice's
                        // own frontier segment is intact — the
                        // coordinator wrote it.
                        eprintln!(
                            "twostep: worker {worker} exhausted its {attempts} launch \
                             attempt(s) ({detail}); quarantining the slot and walking \
                             its slice locally in degraded mode"
                        );
                        let records = read_frontier_segment(&w.task.frontier_path)?;
                        let _ = std::fs::remove_file(&w.task.steal_flag);
                        active.remove(&worker);
                        walk_locally(&run, 1, records)?;
                        stats.degraded += 1;
                        stats.quarantined += 1;
                    }
                    Err(detail) if w.attempt >= attempts => {
                        // Hasten the survivors' exit before reporting:
                        // a flagged worker preempts at its next pulse
                        // instead of finishing its whole slice.
                        for other in active.values() {
                            let _ = std::fs::write(&other.task.steal_flag, b"stop");
                        }
                        return Err(ExploreError::Worker {
                            partition: worker as usize,
                            detail,
                        });
                    }
                    Err(_) => {
                        w.flagged = false;
                        // A stale flag would preempt the relaunch on its
                        // first pulse.
                        let _ = std::fs::remove_file(&w.task.steal_flag);
                        // Deterministic backoff before the relaunch; the
                        // slot waits it out without blocking the loop.
                        w.retry_at = Some(Instant::now() + policy.delay_before(w.attempt));
                    }
                }
            }
            Ok(())
        })?;
    }
    timings.workers_wall_seconds = workers_start.elapsed().as_secs_f64();

    let (report, timings) = finish_timed(run, timings)?;
    Ok((report, timings, stats))
}

/// [`explore_elastic_timed`] with every worker run inside this process —
/// the zero-setup path (and the one the differential suite exercises):
/// workers still communicate solely through exported segment files and
/// the steal-flag handshake, so the scheduler path is identical to the
/// multi-process deployment.
pub fn explore_elastic_in_process<P>(
    system: SystemConfig,
    config: ExploreConfig,
    options: &DistOptions,
    worker_engine: ExploreOptions,
    initial: Vec<P>,
    proposals: Vec<P::Output>,
) -> Result<ExploreReport<P::Output>, ExploreError>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let worker_initial = initial.clone();
    let worker_proposals = proposals.clone();
    let launch = |task: &ElasticTask, pulse: &(dyn Fn(WorkerPulse) + Sync)| {
        run_worker_elastic(
            system,
            config,
            worker_engine.clone(),
            worker_initial.clone(),
            worker_proposals.clone(),
            task,
            pulse,
        )
        .map_err(|e| e.to_string())
    };
    explore_elastic_timed(system, config, options, initial, proposals, launch)
        .map(|(report, ..)| report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::Symmetry;
    use twostep_core::crw_processes;
    use twostep_model::WideValue;

    /// The expansion [`expand_frontier`] is measured against: every child
    /// of every level forked and stepped, then keyed as a configuration
    /// that exists, first occurrence kept.  Nothing of the rounds' records
    /// or class tables is asked.
    fn stepped_frontier<P>(
        walker: &mut Walker<'_, '_, P>,
        root: Stepper<P>,
        depth: u32,
    ) -> Vec<FrontierRecord>
    where
        P: CheckableProtocol,
        P::Output: Hash + SpillCodec,
    {
        let mut level = vec![(walker.canonical_key(&root).0, Vec::new(), root)];
        for _ in 0..depth {
            let mut seen = HashSet::new();
            let mut next = Vec::new();
            let mut actions = RoundActions::new();
            for (_, path, parent) in &level {
                if walker.is_terminal(parent) {
                    continue;
                }
                let round = walker.open_round(parent).unwrap();
                for idx in 0..round.len() {
                    round.actions_into(idx, &mut actions);
                    let mut child = parent.clone();
                    child.step(&actions).unwrap();
                    let (hash, _) = walker.canonical_key(&child);
                    if seen.insert(walker.key_bytes().to_vec()) {
                        let path = path.iter().copied().chain([idx as u32]).collect();
                        next.push((hash, path, child));
                    }
                }
                walker.close_round(round);
            }
            level = next;
        }
        let records = level.into_iter().map(|(hash, path, _)| (hash, path));
        records.collect()
    }

    /// The frontier records — hashes, paths, first-occurrence order — are
    /// those of the stepped expansion at every depth the coordinators use,
    /// with symmetry off, on the settled tier and under `partial+value`:
    /// a last level that steps nothing partitions and rebuilds as before.
    #[test]
    fn the_frontier_is_the_stepped_expansions() {
        let system = SystemConfig::new(5, 4).unwrap();
        let bits: Vec<WideValue> = (0..5).map(|i| WideValue::new(1, i % 2)).collect();
        let procs = crw_processes(&system, &bits);
        for symmetry in [Symmetry::Off, Symmetry::Full, Symmetry::PartialValue] {
            let config = ExploreConfig {
                symmetry,
                ..ExploreConfig::for_crw(&system)
            };
            let options = ExploreOptions::serial();
            let shared = Shared::new(system, config, &options, &bits, procs.clone()).unwrap();
            let root = Stepper::new(system, config.model, TraceLevel::Off, procs.clone()).unwrap();
            let mut sizes = Vec::new();
            for depth in 0..=2 {
                let walker = &mut Walker::new(&shared);
                let records = expand_frontier(walker, root.clone(), depth).unwrap();
                let reference = stepped_frontier(walker, root.clone(), depth);
                assert_eq!(records, reference, "{symmetry:?} at depth {depth}");
                sizes.push(records.len());
            }
            assert!(
                sizes[0] == 1 && sizes[1] > 20 && sizes[2] > sizes[1],
                "{symmetry:?}: frontiers of {sizes:?} records"
            );
        }
    }
}
