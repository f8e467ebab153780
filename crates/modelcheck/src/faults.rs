//! Deterministic fault injection for the distributed explorer.
//!
//! The paper's subject is agreement that survives faults; this module
//! makes the *checker's own* fault tolerance testable.  Two layers:
//!
//! * **Worker faults** ([`WorkerFault`], [`FaultPlan`]): a parseable
//!   plan, keyed by `(partition, attempt)`, that makes a specific worker
//!   launch crash at a phase, hang at a phase, corrupt or truncate its
//!   export, stall its IO, or lie in its progress pulses.  Keying by
//!   attempt makes every scenario reproducible: "partition 1 crashes on
//!   its first two launches, then succeeds" is one plan string, and the
//!   supervised retry schedule replays it identically every run.
//! * **IO faults** ([`IoFault`], [`install_io_fault`]): a shim over the
//!   workspace's write choke points — framed spill/export records and
//!   cache/checkpoint manifests — that fails, tears, or ENOSPC-s the
//!   `n`-th write the arming (coordinator) thread makes.  This proves the
//!   loud-replace and all-or-nothing manifest guarantees under injected
//!   damage rather than hand-mangled files.
//!
//! Plans come from `--fault` on `twostep-dist` or the `TWOSTEP_FAULT`
//! environment variable (garbage warns once and is ignored, per the
//! `TWOSTEP_THREADS` idiom).  The grammar, entries separated by `;`:
//!
//! ```text
//! p<partition>a<attempt>=<fault>      one worker launch
//! io=<io-fault>                       arm the global IO shim
//!
//! <fault>    := crash@<phase> | hang@<phase> | corrupt-export
//!             | truncate-export | slow-io(<ms>) | lying-progress
//! <phase>    := seed | frontier | walk | export
//! <io-fault> := fail-write(<n>) | torn-write(<n>) | enospc(<n>)
//! ```
//!
//! Example: `p0a0=crash@walk;p1a0=hang@export;p1a1=corrupt-export` —
//! partition 0's first launch crashes mid-walk, partition 1 hangs on its
//! first launch and corrupts its export on the second; both succeed on a
//! later attempt, so the plan is *survivable* and the run must produce a
//! report bit-identical to the clean serial walk.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use twostep_sim::{CancelToken, EnvKnob};

use crate::explorer::ExploreError;

/// The phases of one distributed worker's lifecycle, in execution order.
/// Phase faults fire at the *start* of their phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum WorkerPhase {
    /// Importing the coordinator's seed segment(s) into the memo.
    Seed,
    /// Importing (or re-deriving) the frontier slice to walk.
    Frontier,
    /// The exhaustive walk of the owned subtrees.
    Walk,
    /// Exporting the memo delta for the coordinator to merge.
    Export,
}

impl WorkerPhase {
    /// All phases, in lifecycle order.
    pub const ALL: [WorkerPhase; 4] = [
        WorkerPhase::Seed,
        WorkerPhase::Frontier,
        WorkerPhase::Walk,
        WorkerPhase::Export,
    ];

    /// The phase's plan-grammar name.
    pub fn name(self) -> &'static str {
        match self {
            WorkerPhase::Seed => "seed",
            WorkerPhase::Frontier => "frontier",
            WorkerPhase::Walk => "walk",
            WorkerPhase::Export => "export",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "seed" => Ok(WorkerPhase::Seed),
            "frontier" => Ok(WorkerPhase::Frontier),
            "walk" => Ok(WorkerPhase::Walk),
            "export" => Ok(WorkerPhase::Export),
            other => Err(format!(
                "unknown worker phase {other:?} (expected seed, frontier, walk, or export)"
            )),
        }
    }
}

/// One injected misbehavior for one worker launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerFault {
    /// Fail loudly at the start of the phase (models a crash: the
    /// worker process exits nonzero, an in-process worker returns an
    /// error).
    CrashAt(WorkerPhase),
    /// Stop making progress at the start of the phase without exiting:
    /// the worker spins until its [`CancelToken`] trips (coordinator
    /// watchdog) or a hard cap expires.  Models the wedge the watchdog
    /// exists to detect.
    HangAt(WorkerPhase),
    /// Complete the walk, then flip a byte inside the export segment —
    /// the worker *claims* success and the coordinator's CRC validation
    /// must catch the damage.
    CorruptExport,
    /// Complete the walk, then cut the export segment short mid-record.
    TruncateExport,
    /// Sleep this many milliseconds at the start of every phase (models
    /// a slow disk / overloaded node; never fatal).
    SlowIo(u64),
    /// Report wildly inflated frontier sizes in `dist-progress:` pulses
    /// (elastic workers only; never fatal — the steal scheduler may
    /// preempt the liar, and the result must still be exact).
    LyingProgress,
}

impl WorkerFault {
    /// The fault's plan-grammar token; [`WorkerFault::parse_token`]
    /// round-trips it.
    pub fn token(self) -> String {
        match self {
            WorkerFault::CrashAt(p) => format!("crash@{}", p.name()),
            WorkerFault::HangAt(p) => format!("hang@{}", p.name()),
            WorkerFault::CorruptExport => "corrupt-export".to_string(),
            WorkerFault::TruncateExport => "truncate-export".to_string(),
            WorkerFault::SlowIo(ms) => format!("slow-io({ms})"),
            WorkerFault::LyingProgress => "lying-progress".to_string(),
        }
    }

    /// Parses one fault token (the grammar's `<fault>` production).
    pub fn parse_token(s: &str) -> Result<Self, String> {
        let s = s.trim();
        if let Some(phase) = s.strip_prefix("crash@") {
            return Ok(WorkerFault::CrashAt(WorkerPhase::parse(phase)?));
        }
        if let Some(phase) = s.strip_prefix("hang@") {
            return Ok(WorkerFault::HangAt(WorkerPhase::parse(phase)?));
        }
        if let Some(ms) = parse_paren_arg(s, "slow-io") {
            let ms = ms?
                .parse::<u64>()
                .map_err(|_| format!("slow-io wants milliseconds, got {s:?}"))?;
            return Ok(WorkerFault::SlowIo(ms));
        }
        match s {
            "corrupt-export" => Ok(WorkerFault::CorruptExport),
            "truncate-export" => Ok(WorkerFault::TruncateExport),
            "lying-progress" => Ok(WorkerFault::LyingProgress),
            other => Err(format!("unknown fault {other:?}")),
        }
    }

    /// Whether this fault makes the launch fail (crash/hang/corrupt/
    /// truncate) as opposed to merely degrading it (slow-io, lying).
    pub fn is_fatal(self) -> bool {
        !matches!(self, WorkerFault::SlowIo(_) | WorkerFault::LyingProgress)
    }
}

/// Parses `name(arg)` and returns `Some(Ok(arg))`, `Some(Err(..))` on a
/// malformed argument list, or `None` if `s` doesn't start with `name(`.
fn parse_paren_arg<'a>(s: &'a str, name: &str) -> Option<Result<&'a str, String>> {
    let rest = s.strip_prefix(name)?;
    let rest = rest.strip_prefix('(')?;
    match rest.strip_suffix(')') {
        Some(arg) => Some(Ok(arg.trim())),
        None => Some(Err(format!(
            "{name}(...) is missing its closing paren: {s:?}"
        ))),
    }
}

/// A deterministic chaos scenario: which worker launches misbehave and
/// how, plus an optional global IO fault.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Faults keyed by `(partition, attempt)`, both 0-based.  The
    /// elastic engine keys by worker id instead of partition.
    pub workers: BTreeMap<(u64, usize), WorkerFault>,
    /// An IO-shim fault armed for the whole run (coordinator side).
    pub io: Option<IoFault>,
}

impl FaultPlan {
    /// The empty plan: no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty() && self.io.is_none()
    }

    /// The fault (if any) for one worker launch.
    pub fn for_worker(&self, partition: u64, attempt: usize) -> Option<WorkerFault> {
        self.workers.get(&(partition, attempt)).copied()
    }

    /// Whether every partition in `0..partitions` has at least one
    /// fatal-fault-free launch within `attempts` — i.e. whether the
    /// supervised retry schedule is guaranteed to complete every
    /// partition without degradation.
    pub fn survivable(&self, partitions: u64, attempts: usize) -> bool {
        (0..partitions).all(|p| {
            (0..attempts).any(|a| !self.for_worker(p, a).is_some_and(WorkerFault::is_fatal))
        })
    }

    /// Parses a full plan string (see the module docs for the grammar).
    /// Empty and `"none"` parse to the empty plan.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::default();
        let s = s.trim();
        if s.is_empty() || s == "none" {
            return Ok(plan);
        }
        for entry in s.split(';') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault entry {entry:?} is missing '='"))?;
            let key = key.trim();
            if key == "io" {
                if plan.io.is_some() {
                    return Err("only one io=<fault> entry is allowed".to_string());
                }
                plan.io = Some(IoFault::parse_token(value)?);
                continue;
            }
            let (partition, attempt) = parse_worker_key(key)?;
            if plan
                .workers
                .insert((partition, attempt), WorkerFault::parse_token(value)?)
                .is_some()
            {
                return Err(format!("duplicate fault entry for {key}"));
            }
        }
        Ok(plan)
    }

    /// Renders the plan back into its grammar; `parse` round-trips it.
    pub fn render(&self) -> String {
        let mut parts: Vec<String> = self
            .workers
            .iter()
            .map(|((p, a), fault)| format!("p{p}a{a}={}", fault.token()))
            .collect();
        if let Some(io) = self.io {
            parts.push(format!("io={}", io.token()));
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join(";")
        }
    }
}

/// Parses a `p<partition>a<attempt>` worker key.
fn parse_worker_key(key: &str) -> Result<(u64, usize), String> {
    let bad = || format!("fault key {key:?} is not p<partition>a<attempt>");
    let rest = key.strip_prefix('p').ok_or_else(bad)?;
    let (partition, attempt) = rest.split_once('a').ok_or_else(bad)?;
    Ok((
        partition.parse::<u64>().map_err(|_| bad())?,
        attempt.parse::<usize>().map_err(|_| bad())?,
    ))
}

/// `TWOSTEP_FAULT`: a [`FaultPlan::parse`] plan; unset injects nothing.
pub(crate) const FAULT: EnvKnob<FaultPlan> = EnvKnob {
    name: "TWOSTEP_FAULT",
    fallback: "is not a fault plan; injecting nothing",
    parse: |raw| FaultPlan::parse(raw).ok(),
};

/// Resolves a fault plan from the `TWOSTEP_FAULT` environment variable.
/// Unset means no faults; a value that doesn't parse is **not** silently
/// honored — it warns once on stderr and injects nothing.
pub fn fault_plan_from_env() -> FaultPlan {
    FAULT.get().unwrap_or_default()
}

/// Hard cap on an injected hang whose cancel token never trips, so a
/// mis-configured test wedges for a bounded time instead of forever.
const HANG_CAP: Duration = Duration::from_secs(60);

/// How often a hanging worker polls its cancel token.
const HANG_POLL: Duration = Duration::from_millis(2);

/// Applies `fault` at the start of `phase`: crashes return an
/// [`ExploreError::Injected`], hangs spin until `cancel` trips (or the
/// hard cap expires), slow-io sleeps.  Everything else is a no-op here.
pub fn at_phase(
    fault: Option<WorkerFault>,
    phase: WorkerPhase,
    cancel: &CancelToken,
) -> Result<(), ExploreError> {
    match fault {
        Some(WorkerFault::CrashAt(p)) if p == phase => Err(ExploreError::Injected {
            detail: format!("injected crash at phase {}", phase.name()),
        }),
        Some(WorkerFault::HangAt(p)) if p == phase => {
            let hung_at = Instant::now();
            while !cancel.is_cancelled() {
                if hung_at.elapsed() >= HANG_CAP {
                    return Err(ExploreError::Injected {
                        detail: format!(
                            "injected hang at phase {} expired uncancelled after {HANG_CAP:?}",
                            phase.name()
                        ),
                    });
                }
                std::thread::sleep(HANG_POLL);
            }
            Err(ExploreError::Injected {
                detail: format!("injected hang at phase {} was cancelled", phase.name()),
            })
        }
        Some(WorkerFault::SlowIo(ms)) => {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Applies post-export damage: [`WorkerFault::CorruptExport`] flips one
/// payload byte (the CRC frame must catch it), [`WorkerFault::TruncateExport`]
/// cuts the file mid-record.  The worker then *claims* success — the
/// coordinator's validation is what must fail.  Other faults are no-ops.
pub fn mangle_export(fault: Option<WorkerFault>, path: &Path) -> Result<(), ExploreError> {
    let injected = |detail: String| ExploreError::Injected { detail };
    match fault {
        Some(WorkerFault::CorruptExport) => {
            use std::io::{Read, Seek, SeekFrom};
            let mut file = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(path)
                .map_err(|e| injected(format!("opening export to corrupt it: {e}")))?;
            let len = file
                .metadata()
                .map_err(|e| injected(format!("statting export: {e}")))?
                .len();
            // Flip a byte inside the first record's payload when there is
            // one, else the last byte of whatever is there.
            let target = (crate::spill::HEADER_LEN + 9).min(len.saturating_sub(1));
            let mut byte = [0u8];
            file.seek(SeekFrom::Start(target))
                .and_then(|_| file.read_exact(&mut byte))
                .map_err(|e| injected(format!("reading export byte to corrupt: {e}")))?;
            byte[0] ^= 0xA5;
            file.seek(SeekFrom::Start(target))
                .and_then(|_| file.write_all(&byte))
                .map_err(|e| injected(format!("corrupting export: {e}")))?;
            Ok(())
        }
        Some(WorkerFault::TruncateExport) => {
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| injected(format!("opening export to truncate it: {e}")))?;
            let len = file
                .metadata()
                .map_err(|e| injected(format!("statting export: {e}")))?
                .len();
            file.set_len(len * 2 / 3)
                .map_err(|e| injected(format!("truncating export: {e}")))?;
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Whether `fault` inflates progress pulses.
pub fn lies(fault: Option<WorkerFault>) -> bool {
    matches!(fault, Some(WorkerFault::LyingProgress))
}

/// The lie: an obviously inflated frontier size, deterministic in the
/// true value so lying runs are reproducible.
pub fn lying_frontier(true_frontier: usize) -> usize {
    true_frontier.saturating_mul(1000).saturating_add(7919)
}

// ---------------------------------------------------------------------------
// IO shim
// ---------------------------------------------------------------------------

/// One injected IO failure, applied to the `n`-th (1-based) write that
/// passes through the workspace's write choke points: framed
/// spill/export records ([`crate::spill`]) and cache/checkpoint manifest
/// temp files.  Writes after the `n`-th succeed again — one determinate
/// injury, so tests can assert the exact recovery path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoFault {
    /// The write fails outright; nothing reaches the file.
    FailWrite(u64),
    /// Half the bytes reach the file, then the write fails — the torn
    /// tail a crash mid-write leaves behind.
    TornWrite(u64),
    /// The write fails with `ENOSPC` (storage full).
    Enospc(u64),
}

impl IoFault {
    /// The fault's plan-grammar token; [`IoFault::parse_token`]
    /// round-trips it.
    pub fn token(self) -> String {
        match self {
            IoFault::FailWrite(n) => format!("fail-write({n})"),
            IoFault::TornWrite(n) => format!("torn-write({n})"),
            IoFault::Enospc(n) => format!("enospc({n})"),
        }
    }

    /// Parses one IO-fault token (the grammar's `<io-fault>` production).
    pub fn parse_token(s: &str) -> Result<Self, String> {
        let s = s.trim();
        for (name, make) in [
            ("fail-write", IoFault::FailWrite as fn(u64) -> IoFault),
            ("torn-write", IoFault::TornWrite as fn(u64) -> IoFault),
            ("enospc", IoFault::Enospc as fn(u64) -> IoFault),
        ] {
            if let Some(arg) = parse_paren_arg(s, name) {
                let n = arg?
                    .parse::<u64>()
                    .map_err(|_| format!("{name} wants a write ordinal, got {s:?}"))?;
                if n == 0 {
                    return Err(format!("{name} ordinals are 1-based; 0 never fires"));
                }
                return Ok(make(n));
            }
        }
        Err(format!("unknown io fault {s:?}"))
    }
}

// The armed flag is the fast path: every intercepted write costs one
// relaxed load when no fault is installed.
static IO_ARMED: AtomicBool = AtomicBool::new(false);
static IO_MODE: AtomicUsize = AtomicUsize::new(0);
static IO_NTH: AtomicU64 = AtomicU64::new(0);
static IO_COUNT: AtomicU64 = AtomicU64::new(0);
static IO_LOCK: Mutex<()> = Mutex::new(());

thread_local! {
    /// Whether this thread armed the shim: only its own writes are
    /// tapped, so whatever else runs in the process meanwhile — in-process
    /// workers, another test's exploration — never eats the fault.
    static IO_ARMED_HERE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Keeps an installed [`IoFault`] armed; disarms on drop.  Holds a
/// process-global lock so concurrently running tests cannot interleave
/// their injected faults.
#[derive(Debug)]
pub struct IoFaultGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for IoFaultGuard {
    fn drop(&mut self) {
        // The guard holds a `MutexGuard`, so it is dropped on the thread
        // that armed the shim.
        IO_ARMED_HERE.set(false);
        IO_ARMED.store(false, Ordering::SeqCst);
        IO_MODE.store(0, Ordering::SeqCst);
        IO_NTH.store(0, Ordering::SeqCst);
        IO_COUNT.store(0, Ordering::SeqCst);
    }
}

/// Arms the IO shim with `fault` for the calling thread's writes.  The
/// returned guard keeps it armed and serializes callers; hold it for the
/// duration of the scenario.
pub fn install_io_fault(fault: IoFault) -> IoFaultGuard {
    let lock = IO_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (mode, nth) = match fault {
        IoFault::FailWrite(n) => (1, n),
        IoFault::TornWrite(n) => (2, n),
        IoFault::Enospc(n) => (3, n),
    };
    IO_COUNT.store(0, Ordering::SeqCst);
    IO_NTH.store(nth, Ordering::SeqCst);
    IO_MODE.store(mode, Ordering::SeqCst);
    IO_ARMED.store(true, Ordering::SeqCst);
    IO_ARMED_HERE.set(true);
    IoFaultGuard { _lock: lock }
}

/// How an intercepted write should misbehave.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum IoTap {
    /// Fail without writing anything.
    Fail,
    /// Write a torn prefix, then fail.
    Torn,
    /// Fail with `ENOSPC`.
    Enospc,
}

/// Consulted by the write choke points: counts this write and returns
/// how it should misbehave, or `None` to proceed normally.  One relaxed
/// load when no fault is armed.
pub(crate) fn tap_write() -> Option<IoTap> {
    if !IO_ARMED.load(Ordering::Relaxed) || !IO_ARMED_HERE.get() {
        return None;
    }
    let ordinal = IO_COUNT.fetch_add(1, Ordering::SeqCst) + 1;
    if ordinal != IO_NTH.load(Ordering::SeqCst) {
        return None;
    }
    match IO_MODE.load(Ordering::SeqCst) {
        1 => Some(IoTap::Fail),
        2 => Some(IoTap::Torn),
        3 => Some(IoTap::Enospc),
        _ => None,
    }
}

/// The injected error for a tapped write.
pub(crate) fn injected_io_error(tap: IoTap) -> std::io::Error {
    match tap {
        IoTap::Fail => std::io::Error::other("injected write failure"),
        IoTap::Torn => std::io::Error::other("injected torn write"),
        IoTap::Enospc => std::io::Error::new(
            std::io::ErrorKind::StorageFull,
            "injected ENOSPC (storage full)",
        ),
    }
}

/// `std::fs::write` with the IO shim applied: the whole-file write used
/// for cache/checkpoint manifest temp files.  A torn write leaves the
/// first half of `contents` on disk before failing.
pub(crate) fn shim_fs_write(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    if let Some(tap) = tap_write() {
        if tap == IoTap::Torn {
            std::fs::write(path, &contents[..contents.len() / 2])?;
        }
        return Err(injected_io_error(tap));
    }
    std::fs::write(path, contents)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_tokens_round_trip() {
        let faults = [
            WorkerFault::CrashAt(WorkerPhase::Seed),
            WorkerFault::CrashAt(WorkerPhase::Export),
            WorkerFault::HangAt(WorkerPhase::Walk),
            WorkerFault::CorruptExport,
            WorkerFault::TruncateExport,
            WorkerFault::SlowIo(25),
            WorkerFault::LyingProgress,
        ];
        for fault in faults {
            assert_eq!(WorkerFault::parse_token(&fault.token()), Ok(fault));
        }
        let io_faults = [
            IoFault::FailWrite(1),
            IoFault::TornWrite(7),
            IoFault::Enospc(3),
        ];
        for fault in io_faults {
            assert_eq!(IoFault::parse_token(&fault.token()), Ok(fault));
        }
    }

    #[test]
    fn plan_parse_and_render_round_trip() {
        let text = "p0a0=crash@walk;p1a0=hang@export;p1a1=corrupt-export;io=torn-write(2)";
        let plan = FaultPlan::parse(text).unwrap();
        assert_eq!(
            plan.for_worker(0, 0),
            Some(WorkerFault::CrashAt(WorkerPhase::Walk))
        );
        assert_eq!(
            plan.for_worker(1, 0),
            Some(WorkerFault::HangAt(WorkerPhase::Export))
        );
        assert_eq!(plan.for_worker(1, 1), Some(WorkerFault::CorruptExport));
        assert_eq!(plan.for_worker(0, 1), None);
        assert_eq!(plan.io, Some(IoFault::TornWrite(2)));
        assert_eq!(FaultPlan::parse(&plan.render()).unwrap(), plan);
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::none());
        assert_eq!(FaultPlan::parse("none").unwrap(), FaultPlan::none());
        assert_eq!(FaultPlan::none().render(), "none");
    }

    #[test]
    fn plan_rejects_garbage_loudly() {
        for bad in [
            "p0=crash@walk",                       // key missing attempt
            "p0a0",                                // no '='
            "p0a0=crash@nowhere",                  // unknown phase
            "p0a0=explode",                        // unknown fault
            "p0a0=slow-io(fast)",                  // non-numeric ms
            "p0a0=slow-io(5",                      // unclosed paren
            "io=fail-write(0)",                    // 0 never fires
            "io=quota",                            // unknown io fault
            "p0a0=crash@walk;p0a0=corrupt-export", // duplicate key
            "io=fail-write(1);io=fail-write(2)",   // duplicate io
            "pXa0=crash@walk",                     // non-numeric partition
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn survivability_requires_a_clean_launch_per_partition() {
        let plan = FaultPlan::parse("p0a0=crash@walk;p1a0=slow-io(1)").unwrap();
        assert!(plan.survivable(2, 2), "crash has a clean retry");
        assert!(
            !plan.survivable(2, 1),
            "partition 0 crashes its only launch (slow-io alone would be fine)"
        );
        assert!(
            FaultPlan::parse("p1a0=slow-io(1)")
                .unwrap()
                .survivable(2, 1),
            "slow-io is non-fatal"
        );
        let plan = FaultPlan::parse("p0a0=crash@walk").unwrap();
        assert!(!plan.survivable(2, 1), "no retry budget for the crash");
        let plan =
            FaultPlan::parse("p0a0=hang@seed;p0a1=corrupt-export;p0a2=truncate-export").unwrap();
        assert!(!plan.survivable(1, 3), "every launch is fatal");
        assert!(plan.survivable(1, 4), "the fourth launch is clean");
    }

    #[test]
    fn at_phase_crashes_only_at_its_phase() {
        let cancel = CancelToken::new();
        let fault = Some(WorkerFault::CrashAt(WorkerPhase::Walk));
        assert!(at_phase(fault, WorkerPhase::Seed, &cancel).is_ok());
        assert!(at_phase(fault, WorkerPhase::Frontier, &cancel).is_ok());
        let err = at_phase(fault, WorkerPhase::Walk, &cancel).unwrap_err();
        assert!(err.to_string().contains("injected crash"), "{err}");
        assert!(at_phase(None, WorkerPhase::Walk, &cancel).is_ok());
    }

    #[test]
    fn hang_spins_until_cancelled() {
        let cancel = CancelToken::new();
        let fault = Some(WorkerFault::HangAt(WorkerPhase::Walk));
        let started = Instant::now();
        std::thread::scope(|scope| {
            let cancel_ref = &cancel;
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                cancel_ref.cancel();
            });
            let err = at_phase(fault, WorkerPhase::Walk, cancel_ref).unwrap_err();
            assert!(err.to_string().contains("cancelled"), "{err}");
        });
        assert!(started.elapsed() < HANG_CAP, "must exit via cancellation");
    }

    #[test]
    fn io_shim_taps_exactly_the_nth_write() {
        let guard = install_io_fault(IoFault::FailWrite(2));
        assert_eq!(tap_write(), None, "first write passes");
        // Another thread's writes are neither tapped nor counted: an
        // exploration running elsewhere in the process never eats the
        // fault (the suites run their tests on parallel threads).
        std::thread::scope(|scope| {
            let elsewhere = scope.spawn(|| [tap_write(), tap_write()]);
            assert_eq!(elsewhere.join().unwrap(), [None, None]);
        });
        assert_eq!(tap_write(), Some(IoTap::Fail), "second write fails");
        assert_eq!(tap_write(), None, "third write passes again");
        drop(guard);
        assert_eq!(tap_write(), None, "disarmed after the guard drops");
    }
}
