//! What to explore and how: the protocol bound ([`CheckableProtocol`]),
//! the exploration limits and model options ([`ExploreConfig`]), the
//! engine options ([`ExploreOptions`], [`WalkBudget`]), the symmetry
//! modes and what a run resolves one to (`SymmetryPlan` — the soundness
//! of each tier is argued at the head of `canon.rs`), and the four
//! `TWOSTEP_*` variables the explorer's defaults read.

use std::hash::Hash;
use std::time::Duration;

use twostep_model::codec::stable_hash64;
use twostep_model::SystemConfig;
use twostep_sim::{default_threads, EnvKnob, ModelKind, SyncProtocol};

use crate::cache::CacheConfig;
use crate::checkpoint::CheckpointConfig;
use crate::memo::MemoConfig;
use crate::spill::SpillCodec;

/// Protocols the explorer can check: cloneable (to fork executions),
/// hashable (to merge identical configurations), `Send + Sync` (to move
/// forked executions between worker threads and share memoized
/// configuration keys across the memo's tiers), and [`SpillCodec`] (so
/// configuration keys — per-process protocol snapshots — can spill to
/// disk and travel between worker processes as interchange segments).
pub trait CheckableProtocol: SyncProtocol + Clone + Eq + Hash + Send + Sync + SpillCodec {
    /// Stable 64-bit identity of this protocol snapshot, derived from
    /// its [`SpillCodec`] encoding via
    /// [`stable_hash64`] — the same
    /// hasher the memo applies to whole configuration keys, and the
    /// protocol-identity component of the persistent cache's run
    /// fingerprint ([`crate::cache::run_fingerprint`]).  Two snapshots
    /// fingerprint equal iff their encodings are byte-equal, and the
    /// hash is stable across builds and platforms (unlike
    /// `DefaultHasher`), so a cache written yesterday still identifies
    /// today's identical run.
    ///
    /// The encoding must therefore be **canonical**: `decode` inverts
    /// `encode` (the [`SpillCodec`] contract) and `Eq`-equal snapshots
    /// encode to equal bytes — the explorer merges configurations by
    /// comparing these bytes, so a snapshot whose encoding includes
    /// state its `Eq` ignores would split states the structured
    /// comparison used to merge.
    fn fingerprint(&self) -> u64 {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        stable_hash64(&buf)
    }
}
impl<T: SyncProtocol + Clone + Eq + Hash + Send + Sync + SpillCodec> CheckableProtocol for T {}

/// Decision-round bounds to verify at every terminal, as a function of the
/// run's actual crash count `f`.
#[derive(Clone, Copy, Debug)]
pub enum RoundBound {
    /// `f + c` — Theorem 1 is `FPlus(1)`.
    FPlus(u32),
    /// `min(f + 2, t + 1)` — the classic early-deciding bound.
    ClassicEarly {
        /// The resilience bound `t`.
        t: usize,
    },
    /// A fixed bound independent of `f` — flooding's `t + 1`.
    Fixed(u32),
    /// `base + f·per_f` — e.g. the block simulation of the extended model
    /// on the classic one decides within `(f+1)·n` classic rounds, which
    /// is `Scaled { base: n, per_f: n }`.
    Scaled {
        /// The `f = 0` bound.
        base: u32,
        /// Extra rounds per crash.
        per_f: u32,
    },
}

impl RoundBound {
    /// The bound for a run with `f` crashes.
    pub fn bound(&self, f: usize) -> u32 {
        match self {
            RoundBound::FPlus(c) => f as u32 + c,
            RoundBound::ClassicEarly { t } => ((f + 2).min(t + 1)) as u32,
            RoundBound::Fixed(b) => *b,
            RoundBound::Scaled { base, per_f } => base + f as u32 * per_f,
        }
    }
}

/// Which agreement property to verify at terminals.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SpecMode {
    /// Uniform consensus: no two processes — correct or faulty — decide
    /// differently (the paper's problem).
    #[default]
    Uniform,
    /// Plain consensus: only *correct* processes must agree; a faulty
    /// decider may deviate.  Used to check the classic-model `f+1`
    /// early-deciding baseline, for which uniformity provably fails
    /// (Charron-Bost–Schiper).
    NonUniform,
}

/// Symmetry-reduction mode: whether configurations are canonicalized
/// modulo process-index permutation (and, at the strongest mode, modulo
/// the binary value involution) before keying the memo — each tier's
/// soundness is argued at the head of `explorer/canon.rs`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Symmetry {
    /// No canonicalization: every raw configuration is a distinct memo
    /// entry.  The default, and the differential baseline the symmetry
    /// suites compare against.
    #[default]
    Off,
    /// Canonicalize modulo the largest *structurally* sound permutation
    /// group: settled (decided/crashed) records are sorted into their
    /// slots for every protocol, and the full `n!` orbit is quotiented
    /// for protocols declaring [`SpillCodec::pid_symmetric`].  Verdicts,
    /// the root summary, and witness validity are unchanged;
    /// `distinct_states` and the census count orbits instead of raw
    /// configurations.
    Full,
    /// Everything [`Full`](Symmetry::Full) does, plus the **partial
    /// (mixed-role) quotient**: active processes whose rank is provably
    /// inert ([`SpillCodec::rank_inert`]) are owner-stripped and pooled
    /// with the settled records.  Still exact for the root summary (see
    /// the normal-form argument at the head of `explorer/canon.rs`), up to
    /// the order of the `decided` valency list, which this tier stores in canonical
    /// (encoded-byte) order.
    Partial,
    /// Everything [`Partial`](Symmetry::Partial) does, plus **value
    /// symmetry** when it applies ([`SpillCodec::value_symmetric`]
    /// protocols over a swap-closed binary proposal set): each
    /// configuration is keyed by the lexicographically smaller of its
    /// canonical encoding and its value-swapped canonical encoding, and
    /// memoized summaries are mapped through the involution on the way
    /// in and out.  When value symmetry does not apply to the run it
    /// degrades to `Partial` (loudly, once).
    PartialValue,
}

impl Symmetry {
    /// The mode's canonical config-string token, shared by the
    /// `TWOSTEP_SYMMETRY` env override, the bench CLI, and the
    /// distributed worker argv (so every process of a run agrees on the
    /// spelling).
    pub fn token(self) -> &'static str {
        match self {
            Symmetry::Off => "off",
            Symmetry::Full => "full",
            Symmetry::Partial => "partial",
            Symmetry::PartialValue => "partial+value",
        }
    }

    /// Parses a [`token`](Self::token) (ASCII case-insensitive,
    /// surrounding whitespace ignored); `None` for anything else —
    /// callers decide whether that warrants a warning
    /// (the `TWOSTEP_SYMMETRY` warn-once policy) or a hard error.
    pub fn parse_token(raw: &str) -> Option<Symmetry> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "off" => Some(Symmetry::Off),
            "full" => Some(Symmetry::Full),
            "partial" => Some(Symmetry::Partial),
            "partial+value" => Some(Symmetry::PartialValue),
            _ => None,
        }
    }

    /// The mode the `TWOSTEP_SYMMETRY` env var selects
    /// (`off|full|partial|partial+value`); [`Symmetry::Off`] when unset,
    /// and — loudly, once — when set to anything else.
    pub fn from_env() -> Symmetry {
        SYMMETRY.get().unwrap_or_default()
    }

    /// Resolves the mode into the run's concrete [`SymmetryPlan`] —
    /// computed once per exploration from the protocol type and the
    /// proposal vector, then carried in `Shared`: the per-visit key
    /// path must not re-derive type-level facts, and value-symmetry
    /// applicability depends on the proposals, which only the run knows.
    pub(crate) fn plan<P>(self, proposals: &[P::Output]) -> SymmetryPlan
    where
        P: CheckableProtocol,
        P::Output: Hash + SpillCodec,
    {
        let tier = match self {
            Symmetry::Off => CanonTier::Raw,
            _ if P::pid_symmetric() => CanonTier::FullOrbit,
            Symmetry::Full => CanonTier::Settled,
            Symmetry::Partial | Symmetry::PartialValue => CanonTier::SettledInert,
        };
        let value = self == Symmetry::PartialValue && value_symmetry_applies::<P>(proposals);
        if self == Symmetry::PartialValue && !value {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!(
                    "twostep: symmetry mode \"partial+value\" requested but value \
                     symmetry does not apply to this run (protocol not value-symmetric, \
                     or proposal set not closed under the value swap); \
                     running at \"partial\" strength"
                )
            });
        }
        SymmetryPlan { tier, value }
    }
}

/// Whether the value-symmetry quotient is sound for a run of protocol
/// `P` over `proposals`: the protocol's dynamics must commute with the
/// involution ([`SpillCodec::value_symmetric`]), every proposal must
/// have a swap image, and the proposal *set* must be closed under the
/// swap — the validity check compares decided values against the
/// proposal set, so a swap that leaves it would flip a terminal's
/// verdict between a configuration and its swapped twin.
fn value_symmetry_applies<P>(proposals: &[P::Output]) -> bool
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    if !P::value_symmetric() || proposals.is_empty() {
        return false;
    }
    let encoded: Vec<Vec<u8>> = proposals
        .iter()
        .map(|p| {
            let mut buf = Vec::new();
            p.encode(&mut buf);
            buf
        })
        .collect();
    let mut swap_buf = Vec::new();
    for proposal in proposals {
        let Some(swapped) = proposal.value_swapped() else {
            return false;
        };
        swap_buf.clear();
        swapped.encode(&mut swap_buf);
        if !encoded.contains(&swap_buf) {
            return false;
        }
    }
    true
}

/// Which canonical-key layout a run uses — the [`Symmetry`] mode
/// resolved against the protocol's type-level declarations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum CanonTier {
    /// The plain `make_key_into` encoding; nothing is sorted.
    Raw,
    /// Settled (decided/crashed) records sorted into the settled slots;
    /// actives keep their true indexes.  Sound for every protocol.
    Settled,
    /// `Settled`, plus rank-inert actives ([`SpillCodec::rank_inert`])
    /// owner-stripped (tag `3`) and sorted jointly with the settled
    /// records into the non-true-active slots.
    SettledInert,
    /// Every record sorted, actives re-encoded at their sorted position
    /// — the full `n!` quotient for [`SpillCodec::pid_symmetric`]
    /// protocols (subsumes `SettledInert`, so pid-symmetric protocols
    /// take this tier at every non-`Off` mode).
    FullOrbit,
}

/// A run's resolved symmetry configuration: the canonical-key tier plus
/// whether the value-involution quotient is active.  Computed once per
/// run ([`Symmetry::plan`]) and carried in `Shared`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct SymmetryPlan {
    pub(crate) tier: CanonTier,
    pub(crate) value: bool,
}

impl SymmetryPlan {
    /// The effective canonicalization strength as the byte the
    /// persistent-cache fingerprint and the checkpoint manifest record:
    /// the tier code (`0` raw, `1` settled, `2` full-orbit, `3`
    /// settled-inert) with bit `0x10` set when the value quotient is
    /// active.  Fingerprinting the *strength* (not the configured mode)
    /// matters because `pid_symmetric` / `value_symmetric` are
    /// type-level declarations and value applicability depends on the
    /// proposals: any of them can change without an encoding changing,
    /// and a cache keyed at another strength holds a differently
    /// quotiented state space.
    pub(crate) fn strength(self) -> u8 {
        let tier = match self.tier {
            CanonTier::Raw => 0,
            CanonTier::Settled => 1,
            CanonTier::FullOrbit => 2,
            CanonTier::SettledInert => 3,
        };
        tier | if self.value { 0x10 } else { 0 }
    }
}

/// Exploration limits and model options (what to explore).
///
/// Engine parallelism (how to explore it) lives in [`ExploreOptions`];
/// the two are orthogonal, and every [`ExploreOptions`] produces the same
/// report for a given `ExploreConfig`.
#[derive(Clone, Copy, Debug)]
pub struct ExploreConfig {
    /// Which model semantics to run under.
    pub model: ModelKind,
    /// Round cap: reaching it with live undecided processes is a
    /// termination violation.
    pub max_rounds: u32,
    /// Distinct-configuration budget; exceeding it aborts with
    /// [`ExploreError::StateLimit`](crate::ExploreError::StateLimit).
    /// A resource safety valve: when the budget covers the reachable
    /// space the result is engine-independent, but a space that overflows
    /// it may abort at an engine-dependent point (the carve-out in
    /// [`crate::explorer`]'s determinism argument).
    pub max_states: usize,
    /// Optional decision-round bound to verify at every terminal.
    pub round_bound: Option<RoundBound>,
    /// Agreement property to verify (uniform by default).
    pub spec: SpecMode,
    /// Cap on crashes *per round* (`None` = only the global `t` budget).
    /// `Some(1)` is the restricted adversary of **Theorem 3** — the §5
    /// proof kills at most one process per round, so the `f+1` lower
    /// bound already holds against this weaker adversary.
    pub max_crashes_per_round: Option<usize>,
    /// Symmetry-reduction mode (default [`Symmetry::Off`]; the
    /// [`for_crw`](Self::for_crw) constructor honors the
    /// `TWOSTEP_SYMMETRY` env override).  Part of the persistent-cache
    /// fingerprint: runs at different effective strengths never share a
    /// cache.
    pub symmetry: Symmetry,
}

impl ExploreConfig {
    /// Defaults for checking the paper's algorithm: extended model, round
    /// cap `n + 1`, Theorem 1 bound, a generous state budget.  Honors
    /// the `TWOSTEP_SYMMETRY` env override ([`Symmetry::from_env`]) so
    /// operators can flip symmetry reduction without recompiling;
    /// explicit callers (the bench harness runs both modes in one
    /// process) just assign [`ExploreConfig::symmetry`] after
    /// construction.
    pub fn for_crw(system: &SystemConfig) -> Self {
        ExploreConfig {
            model: ModelKind::Extended,
            max_rounds: system.n() as u32 + 1,
            max_states: 5_000_000,
            round_bound: Some(RoundBound::FPlus(1)),
            spec: SpecMode::Uniform,
            max_crashes_per_round: None,
            symmetry: Symmetry::from_env(),
        }
    }

    /// The same exploration under the Theorem 3 adversary: at most one
    /// crash in each round.
    pub fn theorem3(system: &SystemConfig) -> Self {
        ExploreConfig {
            max_crashes_per_round: Some(1),
            ..Self::for_crw(system)
        }
    }
}

/// Engine options: how many workers walk the space, how finely the memo
/// table is sharded, and how the memo tiers between RAM and disk.
///
/// `threads = 1` *is* the serial engine — there is no separate code path —
/// and any thread count and any [`MemoConfig`] produce bit-identical
/// reports whenever the [`ExploreConfig::max_states`] safety valve is not
/// exhausted (see [`crate::explorer`] for the determinism argument and the
/// budget carve-out).
#[derive(Clone, Debug)]
pub struct ExploreOptions {
    /// Worker threads ([`twostep_sim::default_threads`] by default, which
    /// honors the `TWOSTEP_THREADS` env override; min 1).
    pub threads: usize,
    /// Memo shards (power of two recommended; min 1).  More shards mean
    /// less lock contention and slightly more per-lookup overhead.
    pub shards: usize,
    /// Memo tiering: all-RAM by default; a finite
    /// [`MemoConfig::hot_capacity`] spills cold entries to disk so the
    /// reachable `(n, t)` stops being bounded by RAM.
    pub memo: MemoConfig,
    /// Depth-aware donation policy: a configuration donates child
    /// subtrees to idle workers only while its round is `<=` this cutoff
    /// (`None` = donate at any depth, the historical behavior).  Shallow
    /// subtrees are the big ones, so a small cutoff keeps the
    /// work-sharing benefit while avoiding donation overhead (one extra
    /// `step` per donated child) deep in the tree, where subtrees are
    /// tiny and mostly memoized anyway.  Defaults to the
    /// `TWOSTEP_DONATE_DEPTH` env var when set; results are identical
    /// under every policy — only load balance changes.
    pub donate_depth: Option<u32>,
    /// Persistent result cache ([`crate::cache`]): `Some` pre-seeds the
    /// memo from the cache directory when its fingerprint matches this
    /// run (warm-started walks short-circuit on every memoized subtree)
    /// and, in [`CacheMode::ReadWrite`](crate::CacheMode::ReadWrite),
    /// commits newly discovered entries back as a delta segment.
    /// Defaults to the `TWOSTEP_CACHE_DIR` env var when set (ReadWrite);
    /// results are identical with and without a cache — only speed
    /// changes.
    pub cache: Option<CacheConfig>,
    /// Per-walk preemption budget enforced by the frame-stepped driver
    /// (`explorer/budget.rs`).  An exhausted budget suspends the walk:
    /// with a [`checkpoint`](Self::checkpoint) directory configured the
    /// partial memo is serialized for resume; either way the call returns
    /// [`ExploreError::Interrupted`](crate::ExploreError::Interrupted).
    /// Defaults to the `TWOSTEP_MAX_STEPS` / `TWOSTEP_DEADLINE_MS` env
    /// vars when set ([`budget_from_env`]); unlimited otherwise.  Results
    /// are identical under every budget — an interrupted-then-resumed
    /// chain converges to the uninterrupted report.
    pub budget: WalkBudget,
    /// Checkpoint directory for suspended walks ([`crate::checkpoint`]):
    /// `Some` makes budget suspensions (and `StateLimit` aborts) write a
    /// resumable fresh-delta segment there, and makes a later run with a
    /// matching fingerprint resume from it (the artifact is consumed on
    /// successful completion).  `None` (the default) keeps the
    /// historical behavior: interrupts discard partial work.
    pub checkpoint: Option<CheckpointConfig>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            threads: default_threads(),
            shards: 64,
            memo: MemoConfig::all_ram(),
            donate_depth: DONATE_DEPTH.get(),
            cache: crate::cache::cache_from_env(),
            budget: budget_from_env(),
            checkpoint: None,
        }
    }
}

impl ExploreOptions {
    /// The serial engine: one walker, one shard.
    pub fn serial() -> Self {
        ExploreOptions {
            threads: 1,
            shards: 1,
            memo: MemoConfig::all_ram(),
            donate_depth: None,
            cache: None,
            budget: WalkBudget::unlimited(),
            checkpoint: None,
        }
    }

    /// A parallel engine with an explicit worker count.
    pub fn with_threads(threads: usize) -> Self {
        ExploreOptions {
            threads: threads.max(1),
            ..Self::default()
        }
    }

    /// The same engine with an explicit memo tier configuration.
    pub fn with_memo(self, memo: MemoConfig) -> Self {
        ExploreOptions { memo, ..self }
    }

    /// The same engine with an explicit donation-depth cutoff.
    pub fn with_donate_depth(self, donate_depth: Option<u32>) -> Self {
        ExploreOptions {
            donate_depth,
            ..self
        }
    }

    /// The same engine with an explicit persistent-cache configuration.
    pub fn with_cache(self, cache: Option<CacheConfig>) -> Self {
        ExploreOptions { cache, ..self }
    }

    /// The same engine with an explicit per-walk budget.
    pub fn with_budget(self, budget: WalkBudget) -> Self {
        ExploreOptions { budget, ..self }
    }

    /// The same engine with an explicit checkpoint directory.
    pub fn with_checkpoint(self, checkpoint: Option<CheckpointConfig>) -> Self {
        ExploreOptions { checkpoint, ..self }
    }
}

/// `TWOSTEP_DONATE_DEPTH`: the donation cutoff round; unset donates at
/// any depth.
pub(crate) const DONATE_DEPTH: EnvKnob<u32> = EnvKnob {
    name: "TWOSTEP_DONATE_DEPTH",
    fallback: "is not a round number; donating at any depth",
    parse: |raw| raw.parse().ok(),
};

/// `TWOSTEP_SYMMETRY`: a [`Symmetry::token`]; unset is [`Symmetry::Off`].
pub(crate) const SYMMETRY: EnvKnob<Symmetry> = EnvKnob {
    name: "TWOSTEP_SYMMETRY",
    fallback: "is not \"off\", \"full\", \"partial\", or \"partial+value\"; \
               symmetry reduction stays off",
    parse: Symmetry::parse_token,
};

/// `TWOSTEP_MAX_STEPS`: a step count; unset is unbounded.  `0` is
/// accepted: the min-progress guarantee still advances one fresh state
/// per session.
pub(crate) const MAX_STEPS: EnvKnob<u64> = EnvKnob {
    name: "TWOSTEP_MAX_STEPS",
    fallback: "is not a step count; walks are unbounded",
    parse: |raw| raw.parse().ok(),
};

/// `TWOSTEP_DEADLINE_MS`: a wall-clock deadline in milliseconds; unset is
/// none.
pub(crate) const DEADLINE_MS: EnvKnob<Duration> = EnvKnob {
    name: "TWOSTEP_DEADLINE_MS",
    fallback: "is not a millisecond count; walks have no deadline",
    parse: |raw| raw.parse().ok().map(Duration::from_millis),
};

/// Declarative per-walk budget enforced by the frame-stepped driver via
/// `BudgetArbiter` (the contracts at the head of `explorer/budget.rs`).
/// `None` everywhere (the [`WalkBudget::unlimited`] default) never
/// suspends; any `Some` limit suspends the walk with
/// [`ExploreError::Interrupted`](crate::ExploreError::Interrupted) once
/// exhausted *and* at least one fresh configuration has been memoized
/// this session (the min-progress guarantee that makes resume chains
/// terminate).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WalkBudget {
    /// Maximum steps for this walk (`None` = unlimited).  A step is one
    /// configuration entry or one frame pop — however many of them a
    /// `step()` call takes — so this bounds work, not states: memo hits
    /// count too.
    pub max_steps: Option<u64>,
    /// Wall-clock deadline measured from the start of the exploration
    /// call (`None` = unlimited).  Checked cooperatively once per step —
    /// overshoot is at most one configuration expansion.
    pub deadline: Option<Duration>,
    /// Approximate memo footprint ceiling in bytes (`None` = unlimited);
    /// key bytes plus a flat per-record overhead, monotone over a run.
    pub max_memo_bytes: Option<u64>,
    /// Offer a cooperative yield point every this many steps (`None` =
    /// never): the primary driver calls `thread::yield_now` there, and
    /// autosave and the elastic pulse keep their cadence on it.  Results
    /// are unaffected.
    pub yield_every: Option<u64>,
}

impl WalkBudget {
    /// No limits: the walk runs to completion (the historical behavior).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Whether every limit is unset.
    pub fn is_unlimited(&self) -> bool {
        *self == Self::default()
    }
}

/// Resolves the default [`WalkBudget`] from the `TWOSTEP_MAX_STEPS` /
/// `TWOSTEP_DEADLINE_MS` env vars — unset means unlimited, and a
/// set-but-unparseable value is never silently ignored
/// ([`twostep_sim::EnvKnob`]).
pub fn budget_from_env() -> WalkBudget {
    WalkBudget {
        max_steps: MAX_STEPS.get(),
        deadline: DEADLINE_MS.get(),
        ..WalkBudget::unlimited()
    }
}
