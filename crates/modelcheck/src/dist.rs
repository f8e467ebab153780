//! Distributed exploration: the multi-process **work phase** of the run
//! spine in [`crate::explorer`] (open → work → finish), under two entry
//! points.
//!
//! The work-sharing parallel engine and the disk-backed memo lifted the
//! ceiling of one machine's cores and RAM; this module removes the "one
//! process" bound.  A coordinator opens a run exactly as
//! [`crate::explore_with`] does — clock, fingerprint, cache seed,
//! checkpoint resume — fills the run's memo with summaries computed by
//! worker processes, and finishes it exactly as `explore_with` does: the
//! canonical root walk (here a *replay*, which finds every
//! worker-covered subtree already memoized and computes only the region
//! above the frontier plus whatever no worker covered), report, cache
//! commit.  Nothing needs a network — processes rendezvous through
//! checksummed segment files under a shared scratch directory.
//!
//! There is **one coordinator loop** (`coordinate`).  It holds a queue
//! of frontier *slices* — lists of subtree roots, each addressed by its
//! **action-index path** from the true initial configuration (canonical
//! keys are lossy under symmetry, so the path is the only faithful
//! cross-process address) — and `partitions` worker slots.  An idle slot
//! takes the next slice: the loop writes it as a sealed frontier segment
//! and launches a worker on it, every launch on a thread of its own
//! inside the one supervision primitive ([`twostep_sim::supervise`]:
//! attempts, backoff, attempt timeout, panic containment).  What an
//! attempt is, is written once: refresh the seed list, clear a stale
//! steal flag, launch, then validate and merge the export on that same
//! thread, and read back the frontier of a worker that was preempted.
//! An entry point contributes a **plan** — the slices, the seed segments
//! every launch imports first, and a steal policy or none:
//!
//! * **partitioned** ([`explore_partitioned_timed`]) — the coordinator
//!   expands the root to the depth-`d` frontier (the distinct
//!   configurations reachable in exactly `d` rounds, deduplicated by
//!   configuration key) once and cuts it by key hash into one slice per
//!   partition (`hash % partitions` — the memo's own stable hash,
//!   identical in every process running the same build); stealing is
//!   off, so the plan is static: slice `i` is worker `i`'s, start to end;
//! * **elastic** ([`explore_elastic_timed`]) — the coordinator walks the
//!   root locally first and offloads only once the run outlives its
//!   [`StealConfig`]; the frontier its preempted walk leaves is cut
//!   evenly into the slices, and stealing is on: the loop re-balances by
//!   preempting loaded workers and re-cutting the frontiers they hand
//!   back (*Elastic distribution* below).
//!
//! Both kinds of worker ([`run_worker`], [`run_worker_elastic`]) are one
//! body: import the seed segments, rebuild subtree roots from the
//! frontier segment, walk them with the ordinary walker core (any thread
//! count, any memo tiering) and export the fresh memo delta — full keys
//! *and* summaries — as one sealed interchange segment.
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
//! So scheduling decisions (how the frontier is cut, when to offload,
//! whom to preempt) can affect only *timing*, never the report.
//! `tests/dist_differential.rs` pins it under both plans: bit-identical
//! to `threads = 1` across partition counts, frontier depths, worker
//! memo tierings and crash/retry histories; forced-steal runs through
//! killed-mid-steal retries, steal requests that lose the race with a
//! natural finish, and — by proptest — arbitrary `(yield_every,
//! partitions, min_frontier)` cadences.
//!
//! ## Elastic distribution
//!
//! Static partitioning pays its whole coordination bill — frontier
//! expansion, worker spawn-up, export/merge — up front, whether or not
//! the run is long enough to amortize it.  The elastic plan inverts
//! that: distribution is an escape hatch reached only when the local
//! walk outlives a [`StealConfig`]'s thresholds, so a short run is a
//! plain serial walk plus one policy check per `yield_every` steps.
//! Two mechanisms:
//!
//! * **progress protocol** — every elastic walk (local or worker)
//!   reports `(steps, frontier, fresh)` each `yield_every` steps;
//!   worker processes print it as parseable `dist-progress:` stdout
//!   lines which the coordinator tails into a live per-worker load
//!   board.  `frontier` counts the *unexplored siblings hanging off the
//!   DFS stack* — the work a preemption could harvest — and `fresh`
//!   counts new memo inserts, so a walk that is merely re-traversing
//!   memoized territory advertises no stealable value.  Garbled lines
//!   are skipped with a once-per-launch warning, never parsed into the
//!   board: a worker that lies about its progress can waste a steal
//!   attempt; it cannot corrupt state;
//! * **steal handshake** — the coordinator requests a steal by writing
//!   a flag file next to the victim's scratch; the victim observes it
//!   at its next report boundary, suspends, and exports two artifacts
//!   *in a fixed order*: first the harvested frontier (every unexplored
//!   subtree root, once), then its sealed memo delta.  A crash between
//!   the two leaves an unsealed delta that fails validation, so a
//!   half-preempted worker is indistinguishable from a dead one and
//!   simply retried.  The loop re-cuts the harvested frontier across
//!   its idle slots, each launch seeded with *every* delta merged so
//!   far — stolen subtrees are never walked twice, and a re-assigned
//!   subtree that was already finished memoizes nothing fresh, cannot
//!   be preempted (preemption requires `fresh > 0`), and exits
//!   immediately, which bounds every preempt chain in a finite space.
//!
//! ## Fault tolerance
//!
//! One rule each, whichever plan is running:
//!
//! * **validation** — an export is written to a fresh file and *sealed*
//!   (record count patched into the header) only at the end, so a
//!   killed worker leaves an unfinished file; the coordinator trusts
//!   nothing a process boundary crossed and scans the header, every
//!   record's CRC32 and the sealed count as it merges
//!   ([`crate::spill::SpillError`] classifies the failure modes).  An
//!   attempt whose launch or whose export fails is a failed attempt;
//! * **retry** — a failed attempt is relaunched (the rerun overwrites
//!   the remains) up to [`DistOptions::attempts`] times, after a
//!   deterministic backoff (doubling from [`SuperviseConfig::backoff`],
//!   no jitter — reruns schedule identically); a panicking launch
//!   closure is a failed attempt, never the coordinator's death;
//! * **deadlines** — [`SuperviseConfig::attempt_timeout`] bounds any
//!   single attempt, and where workers pulse
//!   [`SuperviseConfig::watchdog`] bounds the silence between two
//!   pulses: past either, the attempt's [`twostep_sim::CancelToken`]
//!   trips, the launch is expected to kill its process and return, and
//!   the attempt has failed;
//! * **degrade** — a slice whose attempts are exhausted is walked by the
//!   coordinator itself, from the records it cut the slice from, and its
//!   worker slot is *quarantined* (capacity shrinks; with every slot
//!   quarantined whatever is still queued is walked the same way).  The
//!   run completes with the exact report and says so in
//!   [`DistTimings::degraded_partitions`] / [`ElasticStats::degraded`].
//!   With [`SuperviseConfig::degrade`] off it **fails loudly** instead
//!   ([`ExploreError::Worker`]): silent fallback to a near-serial replay
//!   would defeat the point of distributing.
//!
//! Every failure mode here is reproducible on demand: the
//! [`crate::faults`] harness injects crashes, hangs, corrupt/truncated
//! exports, slow IO, and lying pulses keyed by `(worker, attempt)`
//! ([`DistOptions::faults`]), and an IO shim can fail or tear the nth
//! coordinator-side spill/cache/checkpoint write.
//! `tests/fault_differential.rs` pins the contract: every survivable
//! plan is report-invisible (bit-identical to serial, by matrix and by
//! proptest), each rule behaves the same under both plans, hung workers
//! die within the watchdog/timeout deadline, and no single torn write
//! leaves a cache a later run would trust.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::hash::Hash;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use twostep_model::SystemConfig;
use twostep_sim::{
    supervise, CancelToken, EnvKnob, RetryPolicy, RoundActions, Stepper, SupervisedAttempt,
    TraceLevel,
};

use crate::cache::CacheConfig;
use crate::explorer::{
    drive_elastic, walk_roots, CheckableProtocol, ElasticOutcome, ElasticPulse, ElasticVerdict,
    ExploreConfig, ExploreError, ExploreOptions, ExploreReport, Interrupt, PathedRoot, Run, Shared,
    WalkBudget, WalkOutcome, Walker,
};
use crate::faults::{self, FaultPlan, IoFaultGuard, WorkerFault, WorkerPhase};
use crate::memo::key_validator;
use crate::spill::{read_frontier_segment, write_frontier_segment, SpillCodec, SpillDir};

/// How a distributed exploration is split, supervised and merged.
#[derive(Clone, Debug)]
pub struct DistOptions {
    /// Worker slots: how many workers run at once (min 1) — and, under
    /// the partitioned plan, how many slices the frontier is cut into.
    pub partitions: usize,
    /// Frontier depth `d` of the partitioned plan, the only one that
    /// expands a frontier: workers own the subtrees rooted at the
    /// distinct configurations reachable in exactly `d` rounds.  Depth 1
    /// already yields a frontier far wider than any sane partition count
    /// (every adversary move of round 1); deeper frontiers give finer
    /// partitions at the cost of a longer shared prefix that every
    /// worker re-expands.
    pub depth: u32,
    /// Launch attempts per slice before the coordinator gives up on its
    /// worker and degrades, or reports [`ExploreError::Worker`] (min 1).
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
    /// The elastic plan's policy ([`explore_elastic_timed`]): when to
    /// offload, when to preempt.  The partitioned plan has none.
    pub steal: StealConfig,
    /// Deterministic fault injection ([`crate::faults`]): which worker
    /// launches misbehave and how.  Empty by default — production runs
    /// inject nothing.
    pub faults: FaultPlan,
    /// Worker-lifecycle supervision: retry backoff, per-attempt timeout,
    /// pulse-liveness watchdog, and the degrade-vs-fail policy for
    /// slices that exhaust their retry budget.
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
    /// `Duration::ZERO` relaunches immediately.
    pub backoff: Duration,
    /// Upper bound on any single backoff delay.
    pub backoff_cap: Duration,
    /// Wall-clock budget for one attempt — launch, validation and merge:
    /// one still running at the deadline has its [`CancelToken`] tripped
    /// and is retried as a crash.  `None` disables the timeout.
    pub attempt_timeout: Option<Duration>,
    /// Pulse-liveness deadline, for workers that pulse: one whose last
    /// `dist-progress:` pulse (or launch) is older than this is
    /// cancelled and retried as a crash.  `None` disables the watchdog.
    /// A partition worker never pulses —
    /// [`attempt_timeout`](Self::attempt_timeout) is what bounds it.
    pub watchdog: Option<Duration>,
    /// What retry-budget exhaustion means: `true` (default) walks the
    /// orphaned slice locally in the coordinator — the run *degrades*
    /// and still produces the exact report — while `false` fails it
    /// loudly with [`ExploreError::Worker`].
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
    /// `attempts` launches per slice.
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
    /// A sealed frontier segment written by the coordinator (`(hash,
    /// path)` records), from which the worker rebuilds the subtree roots
    /// that hash into its partition — the expansion happens once per
    /// run, not once per worker.  The coordinator ships each worker its
    /// own slice; a worker handed `None` fails loudly.
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
    /// Records in the frontier segment it was handed.
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

/// The partition, of `partitions`, that owns the subtree root whose key
/// has the memo's (build-stable) `hash`.
fn owner(hash: u64, partitions: usize) -> usize {
    (hash % partitions as u64) as usize
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
        records.retain(|(hash, _)| owner(*hash, partitions) == partition);
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
    /// The partitioned plan's single depth-`d` frontier expansion and
    /// its cut into slices (workers import theirs instead of
    /// re-expanding).
    pub frontier_seconds: f64,
    /// The work phase, wall clock: the elastic plan's local walk, then
    /// first launch to last validated import (crashed-worker retries and
    /// degraded local walks included).
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
    /// Slices that exhausted their retry budget and were walked locally
    /// by the coordinator instead ([`SuperviseConfig::degrade`]), under
    /// either plan.  `0` on every clean run.
    pub degraded_partitions: usize,
    /// Wall clock spent on those degraded local walks.
    pub degraded_seconds: f64,
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
    /// The attempt's cooperative stop signal, as
    /// [`WorkerTask::cancel`]: the pulse watchdog trips it too.
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

/// Walks `(hash, path)` records in the coordinator itself — the degraded
/// fallback for a slice whose worker exhausted every retry.
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

/// What both coordinators hold from entry to exit.  Bound to locals in
/// this order, they drop in reverse: the run before its scratch directory.
type Opened<'a, P> = (Option<IoFaultGuard>, SpillDir, Run<'a, P>, DistTimings);

/// Opens a coordinator's run ([`Run::open`]: clock, fingerprint, cache
/// seed, checkpoint resume) beside a fresh scratch directory.
fn open_coordinator<'a, P>(
    system: SystemConfig,
    config: ExploreConfig,
    options: &'a DistOptions,
    proposals: &'a [P::Output],
    initial: Vec<P>,
) -> Result<Opened<'a, P>, ExploreError>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    // An `io=` clause in the fault plan arms the IO shim over this (the
    // coordinator) thread's writes for the run's duration; workers are
    // untouched — their faults ride the task.
    let io_fault = options.faults.io.map(faults::install_io_fault);
    // Whichever way the entry point exits — errors and unwinding included
    // — the `SpillDir` drops and the directory is removed recursively;
    // only the caller-provided root outlives the run.
    let scratch = SpillDir::create(options.scratch_dir.as_deref())?;
    let seed_start = Instant::now();
    let cache = options.cache.clone();
    let run = Run::open(system, config, &options.replay, cache, proposals, initial)?;
    let timings = DistTimings {
        seed_seconds: seed_start.elapsed().as_secs_f64(),
        ..DistTimings::default()
    };
    Ok((io_fault, scratch, run, timings))
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

/// What an entry point contributes to the one loop ([`coordinate`]).
struct Plan<'p> {
    /// Frontier slices waiting for a worker slot; the loop launches them
    /// in queue order as workers `0, 1, …`.
    slices: VecDeque<Vec<FrontierRecord>>,
    /// Memo segments every launch imports before walking.
    seeds: Vec<PathBuf>,
    /// With stealing [`enabled`](StealConfig::enabled) workers pulse and
    /// honor steal flags: the loop preempts loaded ones while a slot
    /// idles, and runs the pulse watchdog.  Off, the slices are all.
    steal: &'p StealConfig,
}

/// Cuts `records` into `ways` slices by key hash, order kept: slice `i`
/// holds what partition worker `i` of `ways` owns.
fn cut_by_hash(records: Vec<FrontierRecord>, ways: usize) -> VecDeque<Vec<FrontierRecord>> {
    let mut slices = vec![Vec::new(); ways];
    for record in records {
        slices[owner(record.0, ways)].push(record);
    }
    slices.into()
}

/// Cuts `records` into at most `ways` slices of even length, order kept.
fn cut_evenly(
    records: Vec<FrontierRecord>,
    ways: usize,
) -> impl Iterator<Item = Vec<FrontierRecord>> {
    let mut rest: VecDeque<FrontierRecord> = records.into();
    (1..=ways.max(1)).rev().map_while(move |left| {
        let take = rest.len().div_ceil(left);
        (take > 0).then(|| rest.drain(..take).collect())
    })
}

/// A launch in flight, as its own thread and its pulses describe it to
/// the loop.
struct Live {
    /// Harvestable frontier last advertised (`0` before the first pulse).
    frontier: usize,
    /// Last pulse, or the launch.
    alive_at: Instant,
    /// A steal flag has been written and not yet answered; such a victim
    /// is never flagged twice.
    flagged: bool,
    cancel: CancelToken,
}

/// The one coordinator loop: fills idle worker slots from the plan's
/// slice queue, preempts loaded workers while a slot idles, watches
/// pulses, and receives finished slices — until nothing is queued or in
/// flight.  Every launch runs on a thread of its own inside
/// [`twostep_sim::supervise`] (retries, backoff, attempt timeout, panic
/// containment) and merges its own export there: merges overlap.
fn coordinate<P, L>(
    run: &Run<'_, P>,
    options: &DistOptions,
    scratch: &Path,
    plan: Plan<'_>,
    launch: L,
    timings: &mut DistTimings,
) -> Result<ElasticStats, ExploreError>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
    L: Fn(&ElasticTask, usize, &(dyn Fn(WorkerPulse) + Sync)) -> Result<ElasticExit, String> + Sync,
{
    let partitions = options.partitions.max(1);
    let policy = options.supervise.policy(options.attempts);
    let steal = plan.steal;
    let poll = steal.poll_interval.max(Duration::from_millis(1));
    let mut queue = plan.slices;
    let mut stats = ElasticStats::default();
    let seeds = Mutex::new(plan.seeds);
    let merge_seconds = Mutex::new(0f64);
    let board: Mutex<HashMap<u64, Live>> = Mutex::new(HashMap::new());
    let memo = &run.shared.memo;
    // Worker `worker`'s rendezvous file `name` under the scratch dir.
    let at = |worker: u64, name: &str| scratch.join(format!("worker{worker}-{name}"));
    let pulse = |p: WorkerPulse| {
        if let Some(live) = board.lock().expect("board poisoned").get_mut(&p.worker) {
            (live.frontier, live.alive_at) = (p.frontier, Instant::now());
        }
    };
    // What an attempt is, under either plan.  Its value is the frontier a
    // preempted worker handed back, if it was preempted.
    let attempt = |worker: u64, ctx: &SupervisedAttempt| {
        let task = ElasticTask {
            worker,
            // Deltas merged since the slice was cut shrink the run.
            seed_paths: seeds.lock().expect("seed list poisoned").clone(),
            frontier_path: at(worker, "frontier.seg"),
            export_path: at(worker, "export.seg"),
            preempt_path: at(worker, "preempt.seg"),
            steal_flag: at(worker, "steal.flag"),
            yield_every: steal.yield_every.max(1),
            fault: options.faults.for_worker(worker, ctx.attempt),
            cancel: ctx.cancel.clone(),
        };
        // A stale flag would preempt a relaunch on its first pulse.
        let _ = std::fs::remove_file(&task.steal_flag);
        let live = Live {
            frontier: 0,
            alive_at: Instant::now(),
            flagged: false,
            cancel: ctx.cancel.clone(),
        };
        board.lock().expect("board poisoned").insert(worker, live);
        let exit = launch(&task, ctx.attempt, &pulse);
        // Between attempts a slice is neither a victim nor watched.
        board.lock().expect("board poisoned").remove(&worker);
        let exit = exit?;
        // Merging and validating are one pass over the file (module
        // docs, *validation*).  A partial import of a file that fails
        // mid-scan is harmless: every record that passed its CRC is a
        // correct (key, summary) pair, so it simply pre-seeds the memo
        // the retried worker would re-export anyway.  Deltas import as
        // *fresh*: relative to the persistent cache they are exactly what
        // this run added.
        let merge_start = Instant::now();
        let merged = memo.import_from(&task.export_path, key_validator::<P>());
        *merge_seconds.lock().expect("merge timing poisoned") +=
            merge_start.elapsed().as_secs_f64();
        merged.map_err(|e| e.to_string())?;
        match exit {
            ElasticExit::Finished => Ok(None),
            ElasticExit::Preempted => read_frontier_segment(&task.preempt_path)
                .map(Some)
                .map_err(|e| e.to_string()),
        }
    };

    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| -> Result<(), ExploreError> {
        // What each busy slot's slice covers, kept for the degrade rule.
        let mut active: HashMap<u64, Vec<FrontierRecord>> = HashMap::new();
        let mut orphans: Vec<Vec<FrontierRecord>> = Vec::new();
        let mut next_worker = 0u64;
        loop {
            // The degrade rule (module docs): a slice that exhausted its
            // attempts — and, once every slot has failed every budget,
            // whatever is still queued — is walked right here.
            if stats.quarantined >= partitions {
                orphans.extend(queue.drain(..));
            }
            for records in orphans.drain(..) {
                let degraded_start = Instant::now();
                walk_locally(run, options.replay.threads, records)?;
                stats.degraded += 1;
                timings.degraded_seconds += degraded_start.elapsed().as_secs_f64();
            }
            // A slot whose slice was orphaned is quarantined: capacity
            // shrinks, and no later slice lands on it.
            let capacity = partitions - stats.quarantined.min(partitions - 1);
            while active.len() < capacity {
                let Some(records) = queue.pop_front() else {
                    break;
                };
                let worker = next_worker;
                next_worker += 1;
                write_frontier_segment(&at(worker, "frontier.seg"), &records)?;
                stats.workers_launched += 1;
                let (tx, attempt) = (tx.clone(), &attempt);
                scope.spawn(move || {
                    let result = supervise(&policy, |ctx| attempt(worker, ctx));
                    let _ = tx.send((worker, result));
                });
                active.insert(worker, records);
            }
            if active.is_empty() {
                return Ok(());
            }
            if steal.enabled {
                let mut board = board.lock().expect("board poisoned");
                // Idle capacity and nothing queued: preempt the most loaded
                // un-flagged worker whose frontier clears the threshold.
                if queue.is_empty() && active.len() < capacity {
                    let loaded = board.iter_mut().filter(|(_, live)| {
                        !live.flagged && live.frontier >= steal.min_frontier.max(1)
                    });
                    if let Some((&id, live)) =
                        loaded.max_by_key(|(&id, live)| (live.frontier, std::cmp::Reverse(id)))
                    {
                        std::fs::write(at(id, "steal.flag"), b"steal").map_err(|e| {
                            ExploreError::Coordinator {
                                detail: format!("writing steal flag: {e}"),
                            }
                        })?;
                        live.flagged = true;
                    }
                }
                // The pulse watchdog: a launch silent past the deadline is
                // cancelled — it kills its process and reports a failure,
                // which is retried like any other.
                if let Some(deadline) = options.supervise.watchdog {
                    for (worker, live) in board.iter() {
                        if live.alive_at.elapsed() >= deadline && !live.cancel.is_cancelled() {
                            eprintln!(
                                "twostep: worker {worker} has not pulsed within {deadline:?}; \
                                 cancelling the attempt and retrying it as crashed"
                            );
                            live.cancel.cancel();
                        }
                    }
                }
            }
            // The loop holds a sender, so the only error is the timeout.
            let Ok((worker, result)) = rx.recv_timeout(poll) else {
                continue;
            };
            let records = active.remove(&worker).expect("unknown worker reported");
            match result {
                Ok(handed) => {
                    // The merged delta seeds every later launch, so a
                    // stolen subtree is never walked twice.
                    (seeds.lock().expect("seed list poisoned")).push(at(worker, "export.seg"));
                    if let Some(handed) = handed {
                        stats.steals += 1;
                        queue.extend(cut_evenly(handed, capacity.saturating_sub(active.len())));
                    }
                }
                Err(error) if options.supervise.degrade => {
                    eprintln!(
                        "twostep: worker {worker} exhausted its {} launch attempt(s) \
                         ({error}); walking its slice locally in degraded mode",
                        policy.attempts
                    );
                    stats.quarantined += 1;
                    orphans.push(records);
                }
                Err(error) => {
                    // Hasten the survivors' exit before failing: a
                    // flagged worker preempts at its next pulse instead of
                    // finishing its whole slice.
                    for &other in active.keys() {
                        let _ = std::fs::write(at(other, "steal.flag"), b"stop");
                    }
                    return Err(ExploreError::Worker {
                        partition: worker as usize,
                        detail: error.to_string(),
                    });
                }
            }
        }
    })?;
    timings.merge_seconds = merge_seconds.into_inner().expect("merge timing poisoned");
    timings.degraded_partitions = stats.degraded;
    Ok(stats)
}

/// The partitioned plan's seed: a segment holding the coordinator's memo
/// as the run opened it, `None` when that is empty.
fn opening_seed<P>(run: &Run<'_, P>, scratch: &Path) -> Result<Option<PathBuf>, ExploreError>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let mut segments = run.cache_segments();
    if run.shared.memo.len() == 0 {
        Ok(None)
    } else if run.resumed == 0 && segments.len() == 1 {
        // The common warm case: one sealed image the coordinator just
        // imported end to end.  Hand workers that very file (they only
        // read it) instead of re-compressing and re-writing the whole
        // image into the scratch dir.  (With a resumed checkpoint in the
        // memo the cache file alone would under-seed.)
        Ok(segments.pop())
    } else {
        let path = scratch.join("seed.seg");
        run.shared.memo.export_to(&path)?;
        Ok(Some(path))
    }
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
    let (_io_fault, scratch, run, mut timings) =
        open_coordinator(system, config, options, &proposals, initial)?;
    let seed_start = Instant::now();
    let seed_path = opening_seed(&run, scratch.path())?;
    timings.seed_seconds += seed_start.elapsed().as_secs_f64();

    // The partitioned plan: the depth-`d` frontier, expanded once, here,
    // and cut by key hash — slice `i` is worker `i`'s.
    let frontier_start = Instant::now();
    let walker = &mut Walker::new(&run.shared);
    let frontier = expand_frontier(walker, run.root.clone(), options.depth)?;
    let slices = cut_by_hash(frontier, partitions);
    timings.frontier_seconds = frontier_start.elapsed().as_secs_f64();

    let workers_start = Instant::now();
    let plan = Plan {
        slices,
        seeds: seed_path.clone().into_iter().collect(),
        steal: &StealConfig::default(),
    };
    // The `WorkerTask` view of a slice: its own segment is the frontier
    // the worker filters (and keeps whole), its one seed the opening one.
    let view = |task: &ElasticTask, attempt: usize, _: &(dyn Fn(WorkerPulse) + Sync)| {
        let task = WorkerTask {
            partition: task.worker as usize,
            partitions,
            depth: options.depth,
            export_path: task.export_path.clone(),
            seed_path: seed_path.clone(),
            frontier_path: Some(task.frontier_path.clone()),
            attempt,
            fault: task.fault,
            cancel: task.cancel.clone(),
        };
        launch(&task).map(|()| ElasticExit::Finished)
    };
    coordinate(&run, options, scratch.path(), plan, view, &mut timings)?;
    timings.workers_wall_seconds = workers_start.elapsed().as_secs_f64();
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

/// Explores `initial` elastically: walk locally first, offload to
/// workers only when the steal policy says the run is big enough, and
/// re-balance by preempting loaded workers while idle capacity exists.
/// Also returns the coordinator's per-phase [`DistTimings`] and the
/// run's [`ElasticStats`].
///
/// The report is bit-identical to [`crate::explore_with`] — see the
/// module docs ("Elastic distribution") for the soundness argument.
/// `launch` runs one worker to completion — in-process or by spawning an
/// OS process and tailing its pipe — and forwards every progress pulse to
/// the provided callback.
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
    let (_io_fault, scratch, run, mut timings) =
        open_coordinator(system, config, options, &proposals, initial)?;
    let shared = &run.shared;
    // The elastic plan: walk the root right here, preempted only once the
    // run has outlived `poll_interval` *and* still holds a frontier worth
    // splitting; what the stack then *harvests* is cut into the slices.
    let roots = vec![PathedRoot {
        hash: Walker::new(shared).canonical_key(&run.root).0,
        path: Vec::new(),
        stepper: run.root.clone(),
    }];
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
    let mut stats = ElasticStats::default();
    if let Some(frontier) = local.filter(|frontier| !frontier.is_empty()) {
        // The workers' first seed: the cache seed plus the local phase.
        let seed = scratch.path().join("seed.seg");
        shared.memo.export_to(&seed)?;
        let plan = Plan {
            slices: cut_evenly(frontier, partitions).collect(),
            seeds: vec![seed],
            steal,
        };
        let launch = |task: &ElasticTask, _: usize, pulse: &(dyn Fn(WorkerPulse) + Sync)| {
            launch(task, pulse)
        };
        stats = coordinate(&run, options, scratch.path(), plan, launch, &mut timings)?;
        stats.offloaded = true;
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
