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
//! and launches a worker on it.  The loop owns every attempt, and what
//! an attempt is, is written once: a task built from the seed list as it
//! stands, a stale steal flag cleared, and one thread that runs the
//! launch once and sends its outcome to the loop — which validates and
//! merges the export on its own thread, the one thread that writes the
//! memo, and reads back the frontier of a worker that was preempted.
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
//! The engine matrix (`tests/engines/matrix.rs`) and `tests/engines/dist.rs`
//! pin it under both plans: bit-identical to `threads = 1` across
//! partition counts, frontier depths, worker memo tierings and
//! crash/retry histories; forced-steal runs through
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
//!   record's CRC32 and the sealed count as it merges — one export at a
//!   time, on the loop's own thread, once the launch's thread has ended
//!   ([`crate::spill::SpillError`] classifies the failure modes).  An
//!   attempt whose launch or whose export fails is a failed attempt, and
//!   so is one whose merge panics;
//! * **retry** — a failed attempt is relaunched (the rerun overwrites
//!   the remains) up to [`DistOptions::attempts`] times, after a
//!   deterministic backoff (doubling from [`SuperviseConfig::backoff`],
//!   no jitter — reruns schedule identically) that the loop waits out
//!   without a thread sleeping; a panicking launch closure is a failed
//!   attempt ("task panicked: …"), never the coordinator's death;
//! * **deadlines** — [`SuperviseConfig::attempt_timeout`] bounds any
//!   single launch, and where workers pulse [`SuperviseConfig::watchdog`]
//!   bounds the silence between two pulses.  The loop checks both each
//!   time it wakes, and wakes by the earliest: past either, it trips the
//!   attempt's [`twostep_sim::CancelToken`], the launch is expected to
//!   kill its process and return, and an `Err` it returns then is a
//!   failure "attempt exceeded its … timeout" (an `Ok` finished the work
//!   and counts);
//! * **degrade** — a slice whose attempts are exhausted is walked by the
//!   coordinator itself, from the records it cut the slice from, and its
//!   worker slot is *quarantined* (capacity shrinks; with every slot
//!   quarantined whatever is still queued is walked the same way).  The
//!   run completes with the exact report and says so in
//!   [`DistTimings::degraded_partitions`] / [`ElasticStats::degraded`].
//!   With [`SuperviseConfig::degrade`] off it **fails loudly** instead
//!   ([`ExploreError::Worker`]), and cancels every attempt still running
//!   rather than waiting for it: silent fallback to a near-serial replay
//!   would defeat the point of distributing.
//!
//! Every failure mode here is reproducible on demand: the
//! [`crate::faults`] harness injects crashes, hangs, corrupt/truncated
//! exports, slow IO, and lying pulses keyed by `(worker, attempt)`
//! ([`DistOptions::faults`]), and an IO shim can fail or tear the nth
//! coordinator-side spill/cache/checkpoint write.
//! `tests/engines/fault.rs` pins the contract: every survivable
//! plan is report-invisible (bit-identical to serial, by matrix and by
//! proptest), each rule behaves the same under both plans, hung workers
//! die within the watchdog/timeout deadline, and no single torn write
//! leaves a cache a later run would trust.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use twostep_model::SystemConfig;
use twostep_sim::{panic_message, CancelToken, RoundActions, Stepper, TraceLevel};

use crate::cache::CacheConfig;
use crate::explorer::{
    drive_elastic, walk_roots, CheckableProtocol, ElasticOutcome, ElasticPulse, ElasticVerdict,
    ExploreConfig, ExploreError, ExploreOptions, ExploreReport, Interrupt, PathedRoot, Run, Shared,
    WalkBudget, WalkOutcome, Walker,
};
use crate::faults::{self, FaultPlan, IoFaultGuard, WorkerFault, WorkerPhase};
use crate::memo::entry_validator;
use crate::spill::{read_frontier_segment, write_frontier_segment, SpillCodec, SpillDir};

/// `eprintln!` in one `write_all`, newline included.  The coordinator
/// shares its stderr with its worker processes, and `eprintln!` writes a
/// line piece by piece, so lines printed at once cut into each other.
macro_rules! say {
    ($($arg:tt)*) => {{
        let line = format!("{}\n", format_args!($($arg)*));
        let _ = std::io::Write::write_all(&mut std::io::stderr(), line.as_bytes());
    }};
}

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
    /// temp-dir scratch, serial replay engine, no cache, stealing off,
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
    /// Wall-clock budget for one launch: one still running at the
    /// deadline has its [`CancelToken`] tripped and is retried as a crash.
    /// The merge of its export runs on the coordinator loop afterwards and
    /// is not bounded by it.  `None` disables the timeout.
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
    /// The deterministic delay before a slice's `attempt` (0-based): none
    /// before the first, then [`backoff`](Self::backoff) doubling per
    /// retry up to [`backoff_cap`](Self::backoff_cap), with no jitter.
    fn delay_before(&self, attempt: usize) -> Duration {
        if attempt == 0 || self.backoff.is_zero() {
            return Duration::ZERO;
        }
        let doublings = u32::try_from(attempt - 1).unwrap_or(u32::MAX).min(20);
        let delay = self.backoff.checked_mul(1 << doublings);
        delay.unwrap_or(self.backoff_cap).min(self.backoff_cap)
    }
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
    /// offloading.  While workers run, the loop re-evaluates steal
    /// opportunities at every pulse.
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
    /// The attempt's cooperative stop signal: tripped by the coordinator
    /// loop at the attempt timeout or the watchdog, or when the run fails.
    /// An OS-process launch polls it and kills the child; in-process
    /// injected hangs poll it directly.
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
    // frontier variants one orbit holds collapse onto one owner instead
    // of being walked by several.
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
            let mut round = walker.open_round(parent)?;
            // Key first, like the walk itself.  A row whose successor
            // class the round has met is a repeated key: class numbers
            // are handed out in first-occurrence order, so dropping it
            // leaves that order untouched.  The first row of a class has
            // the plan's key assembled from its records, and a key the
            // level has not seen is stepped into existence only where the
            // next level opens its round.
            let mut met = 0;
            for idx in 0..round.len() {
                let class = round.classify(idx);
                if class < met {
                    continue;
                }
                met = class + 1;
                let hash = walker.cursor_key(&mut round).0;
                if seen.contains(walker.key_bytes()) {
                    continue;
                }
                let mut stepped = || {
                    round.actions_into(idx, &mut actions);
                    let mut child = parent.clone();
                    child.step(&actions).map_err(ExploreError::Engine)?;
                    Ok::<_, ExploreError>(child)
                };
                debug_assert!(
                    stepped().is_ok_and(|child| walker.canonical_key(&child).0 == hash),
                    "assembled frontier hash differs from the stepped child's"
                );
                seen.insert(walker.key_bytes().to_vec());
                let mut path = path.clone();
                path.push(idx as u32);
                if deeper == 0 {
                    records.push((hash, path));
                } else {
                    next.push((path, stepped()?));
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
    let round = walker.open_round(node)?;
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
        seeded += shared
            .memo
            .import_seed_from(seed, entry_validator::<P>(system.t()))?;
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
/// Callable in-process (the engine tests do) or as the body of a
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
    /// Segment merge: the coordinator loop's serial time validating and
    /// importing worker export segments.  The loop merges one export at a
    /// time on its own thread, so this is a slice of
    /// [`workers_wall_seconds`](Self::workers_wall_seconds).
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
/// engine tests do) or as the body of a worker OS process
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

/// A slice's attempt in flight, as its pulses describe it to the loop.
struct Live {
    /// When the launch began: the attempt timeout counts from here.
    launched: Instant,
    /// Last pulse, or the launch.
    alive_at: Instant,
    /// Harvestable frontier last advertised (`0` before the first pulse).
    frontier: usize,
    /// A steal flag has been written and not yet answered; such a victim
    /// is never flagged twice.
    flagged: bool,
    cancel: CancelToken,
    /// The deadline that expired, once the loop has tripped `cancel`.
    expired: Option<Duration>,
}

/// A slice the loop owns from its first launch to its last exit.
struct Slice {
    /// What the slice covers, kept for the degrade rule.
    records: Vec<FrontierRecord>,
    /// The attempt running, or the next one, launched once `due`.
    attempt: usize,
    due: Instant,
    /// `None` while no attempt runs: before the first, or in a backoff.
    live: Option<Live>,
}

/// What an attempt's thread sends the loop.
enum Event {
    /// A worker's progress pulse.
    Pulse(WorkerPulse),
    /// Attempt `attempt` of worker `worker`'s slice returned from its
    /// launch — or panicked in it, caught on its thread.
    Exited {
        worker: u64,
        attempt: usize,
        result: std::thread::Result<Result<ElasticExit, String>>,
    },
}

/// The one coordinator loop, and the only owner of every attempt: it
/// fills idle worker slots from the plan's slice queue, starts each
/// attempt on one thread of its own that runs `launch` once, and receives
/// everything on one channel — a pulse, or an attempt's exit.  On an exit
/// it validates and merges the export on its own thread (the one that
/// expands the frontier, walks degraded slices and replays, so every
/// allocation the memo makes comes from it), reads back a preempted
/// worker's frontier, and schedules a failed attempt's retry after its
/// backoff.  Deadlines and backoffs are checked each time it wakes, and
/// it sleeps no later than the earliest of them.  It preempts loaded
/// workers while a slot idles, until nothing is queued or in flight; a
/// run that fails cancels the attempts still running rather than waiting
/// for them.
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
    let attempts = options.attempts.max(1);
    let supervise = &options.supervise;
    let steal = plan.steal;
    let launch = &launch;
    let mut queue = plan.slices;
    let mut seeds = plan.seeds;
    let mut stats = ElasticStats::default();
    let memo = &run.shared.memo;
    let validator = entry_validator::<P>(run.shared.system.t());
    // Worker `worker`'s rendezvous file `name` under the scratch dir.
    let at = |worker: u64, name: &str| scratch.join(format!("worker{worker}-{name}"));

    std::thread::scope(|scope| -> Result<(), ExploreError> {
        // Made inside the scope, the receiver drops before the scope joins
        // its threads: an attempt that ends after the loop has gone sends
        // into nothing.
        let (tx, rx) = mpsc::channel();
        // What an attempt is, under either plan: a task built from the
        // seed list as it stands (deltas merged since the slice was cut
        // shrink the run), on one thread that runs the launch once.
        let start = |worker: u64, attempt: usize, seeds: &[PathBuf]| {
            let task = ElasticTask {
                worker,
                seed_paths: seeds.to_vec(),
                frontier_path: at(worker, "frontier.seg"),
                export_path: at(worker, "export.seg"),
                preempt_path: at(worker, "preempt.seg"),
                steal_flag: at(worker, "steal.flag"),
                yield_every: steal.yield_every.max(1),
                fault: options.faults.for_worker(worker, attempt),
                cancel: CancelToken::new(),
            };
            // A stale flag would preempt a relaunch on its first pulse.
            let _ = std::fs::remove_file(&task.steal_flag);
            let launched = Instant::now();
            let live = Live {
                launched,
                alive_at: launched,
                frontier: 0,
                flagged: false,
                cancel: task.cancel.clone(),
                expired: None,
            };
            let tx = tx.clone();
            scope.spawn(move || {
                let pulses = tx.clone();
                let pulse = move |p| drop(pulses.send(Event::Pulse(p)));
                let result = catch_unwind(AssertUnwindSafe(|| launch(&task, attempt, &pulse)));
                let _ = tx.send(Event::Exited {
                    worker,
                    attempt,
                    result,
                });
            });
            live
        };
        let mut slices: HashMap<u64, Slice> = HashMap::new();
        let mut orphans: Vec<Vec<FrontierRecord>> = Vec::new();
        let mut next_worker = 0u64;
        let outcome = (|| loop {
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
            while slices.len() < capacity {
                let Some(records) = queue.pop_front() else {
                    break;
                };
                let worker = next_worker;
                next_worker += 1;
                write_frontier_segment(&at(worker, "frontier.seg"), &records)?;
                stats.workers_launched += 1;
                let (due, live) = (Instant::now(), None);
                slices.insert(
                    worker,
                    Slice {
                        records,
                        attempt: 0,
                        due,
                        live,
                    },
                );
            }
            if slices.is_empty() {
                return Ok(());
            }
            // Due attempts start, expired deadlines trip their attempt's
            // token — the launch kills its process and reports a failure,
            // retried like any other — and the loop sleeps until the next
            // deadline or backoff.
            let now = Instant::now();
            let mut wake = None;
            for (&worker, slice) in &mut slices {
                if slice.live.is_none() && slice.due > now {
                    wake = Some(slice.due.min(wake.unwrap_or(slice.due)));
                    continue;
                }
                let live = slice
                    .live
                    .get_or_insert_with(|| start(worker, slice.attempt, &seeds));
                let timeout = supervise.attempt_timeout.map(|d| (live.launched + d, d));
                let watchdog = supervise.watchdog.filter(|_| steal.enabled);
                let silence = watchdog.map(|d| (live.alive_at + d, d));
                match timeout
                    .into_iter()
                    .chain(silence)
                    .min()
                    .filter(|_| live.expired.is_none())
                {
                    Some((expires, after)) if expires <= now => {
                        say!(
                            "twostep: worker {worker} exceeded its {after:?} deadline; \
                             cancelling the attempt"
                        );
                        live.cancel.cancel();
                        live.expired = Some(after);
                    }
                    Some((expires, _)) => wake = Some(expires.min(wake.unwrap_or(expires))),
                    None => {}
                }
            }
            // Idle capacity and nothing queued: preempt the most loaded
            // un-flagged worker whose frontier clears the threshold.
            if steal.enabled && queue.is_empty() && slices.len() < capacity {
                let running = slices
                    .iter_mut()
                    .filter_map(|(&id, s)| Some((id, s.live.as_mut()?)));
                let loaded = running.filter(|(_, live)| {
                    !live.flagged && live.frontier >= steal.min_frontier.max(1)
                });
                if let Some((id, live)) =
                    loaded.max_by_key(|(id, live)| (live.frontier, std::cmp::Reverse(*id)))
                {
                    std::fs::write(at(id, "steal.flag"), b"steal").map_err(|e| {
                        ExploreError::Coordinator {
                            detail: format!("writing steal flag: {e}"),
                        }
                    })?;
                    live.flagged = true;
                }
            }
            // The loop holds a sender, so the only error is the timeout.
            let sleep = wake.map(|w| w.saturating_duration_since(Instant::now()));
            let Ok(event) = rx.recv_timeout(sleep.unwrap_or(Duration::MAX)) else {
                continue;
            };
            if let Event::Pulse(p) = &event {
                if let Some(live) = slices.get_mut(&p.worker).and_then(|s| s.live.as_mut()) {
                    (live.frontier, live.alive_at) = (p.frontier, Instant::now());
                }
            }
            let Event::Exited {
                worker,
                attempt,
                result,
            } = event
            else {
                continue;
            };
            let mut slice = slices.remove(&worker).expect("unknown worker exited");
            let live = slice.live.take().expect("only a running attempt exits");
            let outcome = match result {
                Err(payload) => Err(format!("task panicked: {}", panic_message(payload))),
                // A launch that returns `Ok` after its token tripped
                // finished the work: it is merged like any other.
                Ok(Err(error)) => Err(match live.expired {
                    Some(after) => format!("attempt exceeded its {after:?} timeout"),
                    None => error,
                }),
                // Merging and validating are one pass over the file
                // (module docs, *validation*), here, on the memo's one
                // thread.  A file that fails mid-scan leaves only records
                // that passed their CRC: correct (key, summary) pairs that
                // pre-seed what the retry would re-export anyway.  Deltas
                // import as *fresh*: relative to the persistent cache they
                // are what this run added.  A panic fails the attempt.
                Ok(Ok(exit)) => {
                    let merge_start = Instant::now();
                    let export = at(worker, "export.seg");
                    let merged =
                        catch_unwind(AssertUnwindSafe(|| memo.import_from(&export, validator)));
                    timings.merge_seconds += merge_start.elapsed().as_secs_f64();
                    match (merged, exit) {
                        (Ok(Ok(_)), ElasticExit::Finished) => Ok(None),
                        (Ok(Ok(_)), ElasticExit::Preempted) => {
                            let handed = read_frontier_segment(&at(worker, "preempt.seg"));
                            handed.map(Some).map_err(|e| e.to_string())
                        }
                        (Ok(Err(e)), _) => Err(e.to_string()),
                        (Err(payload), _) => Err(format!(
                            "merging the export panicked: {}",
                            panic_message(payload)
                        )),
                    }
                }
            };
            match outcome {
                Ok(handed) => {
                    // The merged delta seeds every later launch, so a
                    // stolen subtree is never walked twice.
                    seeds.push(at(worker, "export.seg"));
                    if let Some(handed) = handed {
                        stats.steals += 1;
                        queue.extend(cut_evenly(handed, capacity.saturating_sub(slices.len())));
                    }
                }
                Err(_) if attempt + 1 < attempts => {
                    slice.attempt = attempt + 1;
                    slice.due = Instant::now() + supervise.delay_before(slice.attempt);
                    slices.insert(worker, slice);
                }
                Err(error) if supervise.degrade => {
                    say!(
                        "twostep: worker {worker} exhausted its {attempts} launch attempt(s) \
                         ({error}); walking its slice locally in degraded mode"
                    );
                    stats.quarantined += 1;
                    orphans.push(slice.records);
                }
                Err(detail) => {
                    let partition = worker as usize;
                    return Err(ExploreError::Worker { partition, detail });
                }
            }
        })();
        // However the loop ends, no attempt outlives it: a cancelled
        // launch kills its process and returns, and the scope joins it.
        for live in slices.values().filter_map(|slice| slice.live.as_ref()) {
            live.cancel.cancel();
        }
        outcome
    })?;
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
        // read it) instead of re-writing the whole image into the
        // scratch dir.  (With a resumed checkpoint in the
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
/// process — the zero-setup path (and the one the engine matrix
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
/// the zero-setup path (and the one the engine matrix exercises):
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

    /// The retry schedule is deterministic, doubles per retry from the base
    /// backoff, stops at the cap, never overflows, and a zero base
    /// relaunches at once.
    #[test]
    fn backoff_schedule_is_deterministic_and_capped() {
        let supervise = SuperviseConfig {
            backoff: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(35),
            ..SuperviseConfig::default()
        };
        let delays: Vec<Duration> = (0..5).map(|a| supervise.delay_before(a)).collect();
        let ms = Duration::from_millis;
        assert_eq!(delays, [Duration::ZERO, ms(10), ms(20), ms(35), ms(35)]);
        assert_eq!(supervise.delay_before(10_000), ms(35));
        let immediate = SuperviseConfig {
            backoff: Duration::ZERO,
            ..supervise
        };
        assert_eq!(immediate.delay_before(4), Duration::ZERO);
    }

    /// The frontier records — hashes, paths, first-occurrence order — are
    /// those of the stepped expansion at every depth the coordinators use,
    /// with symmetry off and under `partial+value`:
    /// a last level that steps nothing partitions and rebuilds as before.
    #[test]
    fn the_frontier_is_the_stepped_expansions() {
        let system = SystemConfig::new(5, 4).unwrap();
        let bits: Vec<WideValue> = (0..5).map(|i| WideValue::new(1, i % 2)).collect();
        let procs = crw_processes(&system, &bits);
        for symmetry in [Symmetry::Off, Symmetry::PartialValue] {
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
