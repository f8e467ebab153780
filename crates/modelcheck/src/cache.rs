//! Persistent result cache and resumable checkpoints: fingerprinted memo
//! segments that warm-start a run, or let a suspended one finish.
//!
//! Re-exploring millions of identical configurations on every invocation
//! is the engine's single biggest waste: the memo is deterministic — a
//! key's summary is a pure function of the key — so a previous run's
//! memo image answers every repeated subtree instantly.  This module
//! makes that image durable.  A **cache directory** holds:
//!
//! * sealed interchange segment files (the format of [`crate::spill`],
//!   records stored as written, CRC-validated), named
//!   `seg-<fingerprint>-<index>.seg` with an index no commit reuses.
//!   Each has a **role**.  A *seed* segment is a finished run's delta:
//!   the first is a full memo image, later ones hold what warm runs
//!   added.  A *resume* segment is a suspended run's fresh delta — a
//!   checkpoint directory ([`crate::checkpoint`]) is a cache directory;
//! * one **manifest** (`manifest.twocache`) binding them to a 64-bit
//!   **fingerprint** of everything that determines their contents: the
//!   segment format version, the system `(n, t)`, the
//!   exploration-relevant [`ExploreConfig`] options, and the protocol /
//!   proposal identity via [`CheckableProtocol::fingerprint`] (a
//!   [`stable_hash64`](twostep_model::codec::stable_hash64) of each
//!   initial process's [`SpillCodec`] encoding).  It also records the
//!   symmetry strength the segments are keyed at and the *seed floor*
//!   below.
//!
//! A run opens one session per distinct directory its cache and its
//! checkpoint name.  Under a **matching** fingerprint, the seed segments
//! of the cache's directory pre-seed the memo before the walk (imported
//! as seeded, so they count as `cache_hits`); the walk then
//! short-circuits on every memoized subtree, and in the fully-warm case
//! touches exactly the root.  Then the resume segments of the
//! checkpoint's directory are imported as fresh.  A **mismatched** or
//! unreadable manifest is **loudly ignored** — one stderr line, then a
//! cold run — never silently reused: a stale summary is undetectable
//! downstream, so the only safe policies are "provably same run" and
//! "start over".  One mismatch is louder still: resume segments keyed at
//! another symmetry strength are a hard
//! [`ExploreError::CheckpointStrength`] refusal, because the user asked
//! to continue that image, and recomputing it under another quotient
//! would change `distinct_states` and the census without a word.
//!
//! **Why a resume is exact.**  No frontier frames are saved, and none
//! are needed: memo inserts happen only at frame pop or terminal entry,
//! so a quiescent memo image is **descendant-closed** — every memoized
//! configuration's whole subtree is memoized.  A resumed run re-drives
//! the root walk and fast-forwards through memo hits until it reaches
//! unexplored territory.  Resume segments import as *fresh*, so the
//! report, `cache_hits` included, and the next commit's delta are those
//! of an uninterrupted run (`tests/engines/checkpoint.rs`, and
//! `tests/checkpoint_props.rs` composing arbitrary step-budget
//! partitions).
//!
//! **The seed floor.**  A fresh delta is descendant-closed only
//! *together with* the seed it was suspended over: a fresh parent may
//! have seeded descendants.  The manifest records that seed's size, and
//! a resume whose own seed is smaller loudly ignores the resume
//! segments.  A fingerprint-matching seed only grows — every commit
//! keeps every seed segment — so `>=` means superset.
//!
//! **One commit rule.**  A commit writes the memo's fresh entries
//! (everything beyond the seed; with no seed, the full image) as one new
//! segment of its role: `resume` for a suspension or an autosave, which
//! also records the floor, and `seed` for a [`CacheMode::ReadWrite`]
//! finish.  It keeps every seed segment and drops every resume segment
//! of a directory the checkpoint names — those imported as fresh, so the
//! new delta holds them, and any not imported are unsound above the new
//! floor.  Then it renames the manifest into place, and only after that
//! removes the segment files the manifest no longer lists.  Until the
//! rename the old manifest lists only intact files, so a failed commit
//! costs the new segment, never the one before it.  A commit that writes
//! a segment replaces a stale or absent manifest wholesale; segments of
//! a role the run did not configure for the directory are left alone and
//! stay listed.  A finish with no seed to write still drops the resume
//! segments (it consumes the checkpoint), and a manifest left listing
//! nothing is removed.
//!
//! The cache is an *optimization*, so its failures never fail an
//! exploration: a segment that fails validation mid-import costs the
//! whole memo, which is discarded and re-seeded from what is still
//! intact (a partial image would silently shrink `distinct_states` and
//! the census, because a seeded parent short-circuits the walk above its
//! missing descendants), and a failed commit warns and moves on.  What
//! the cache can never do is change a report: cold and warm runs are
//! bit-identical by the same argument that makes thread counts and
//! worker processes invisible (see [`crate::explorer`]'s determinism
//! section) — pinned across both model kinds and every engine shape by
//! the cache sessions of `tests/engines/matrix.rs`.  Every engine seeds
//! and commits alike: the run spine's open seeds the memo, its finish
//! commits it, and a distributed work phase passes the seed on (one
//! consolidated segment to the workers, deltas back).
//!
//! The `max_states` budget is deliberately **excluded** from the
//! fingerprint: it is a resource safety valve, not part of the
//! deterministic result, so raising it must not invalidate a cache.

use std::hash::Hash;
use std::path::{Path, PathBuf};

use twostep_model::SystemConfig;
use twostep_sim::ModelKind;

use crate::checkpoint::CheckpointConfig;
use crate::explorer::{CheckableProtocol, ExploreConfig, ExploreError, RoundBound, SpecMode};
pub use crate::manifest::MANIFEST_NAME;
use crate::manifest::{
    remove_unlisted, segment_index, segment_name, Manifest, Role, CACHE_FORMAT_VERSION,
};
use crate::memo::{EntryValidator, ShardedMemo};
use crate::spill::{SpillCodec, SpillError, FORMAT_VERSION};

/// Exploration **semantics** version, mixed into every run fingerprint.
///
/// Bump this whenever a change alters what the explorer computes for a
/// given input — summary merging, terminal evaluation, spec checking,
/// key construction, a protocol's step semantics — even though no file
/// *format* changed.  Cached summaries are the checker's outputs frozen
/// to disk; without this knob a semantic fix would fingerprint-match
/// old caches and silently reproduce pre-fix (wrong) reports, which is
/// exactly the failure the loud-ignore policy exists to prevent.
///
/// Version 2: configurations are merged by canonical key *bytes*
/// (hashed with [`twostep_model::codec::stable_hash64`]) instead of
/// structured snapshot comparison, and
/// [`CheckableProtocol::fingerprint`] switched to the same hasher.  The
/// v4 segment format bump invalidates v3-era caches by itself; this
/// bump records that the key path changed too.
///
/// Version 3: symmetry reduction ([`crate::Symmetry`]) — the key path
/// gained canonicalization modulo pid permutation, and the fingerprint
/// gained the run's *effective canonicalization strength* byte.  The
/// strength byte keeps caches of different strengths apart from here
/// on; the version bump keeps every version-2 cache (written before the byte
/// existed) from fingerprint-matching a version-3 `Off` run.
///
/// Version 4: effect-pruned adversary enumeration plus the deeper
/// symmetry tiers.  The enumeration now keeps one representative per
/// *live-effect* class of crash outcomes (deliveries to settled
/// receivers are effect-free), which changes every summary's `terminals`
/// count **at every symmetry mode, including `Off`** — so every
/// version-3 cache is stale, not just symmetry-reduced ones.  The key
/// path also gained the partial (rank-inert, tag `3`) and value-swapped
/// canonical layouts, and the strength byte became the
/// [`SymmetryPlan`](crate::explorer) encoding (tier code plus value
/// bit).
const EXPLORER_LOGIC_VERSION: u32 = 4;

/// How a run uses the persistent cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheMode {
    /// Seed the memo from the cache; never write back.
    Read,
    /// Seed the memo from the cache and commit this run's newly
    /// discovered entries back as a delta segment (or replace a stale /
    /// absent cache with a fresh full image).
    ReadWrite,
}

/// Persistent-cache configuration on [`crate::ExploreOptions::cache`]
/// and [`crate::DistOptions::cache`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CacheConfig {
    /// The cache directory (created on first ReadWrite commit).
    pub dir: PathBuf,
    /// Read-only or read-write.
    pub mode: CacheMode,
}

impl CacheConfig {
    /// A read-only cache at `dir`.
    pub fn read(dir: impl Into<PathBuf>) -> Self {
        CacheConfig {
            dir: dir.into(),
            mode: CacheMode::Read,
        }
    }

    /// A read-write cache at `dir`.
    pub fn read_write(dir: impl Into<PathBuf>) -> Self {
        CacheConfig {
            dir: dir.into(),
            mode: CacheMode::ReadWrite,
        }
    }
}

// ---------------------------------------------------------------------------
// Fingerprinting
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, chained from `state` (seed with
/// [`fnv1a_start`]).  Stable across platforms and builds — unlike
/// `DefaultHasher`, whose algorithm the standard library may change —
/// which is what a fingerprint persisted to disk requires.
pub(crate) fn fnv1a(bytes: &[u8], mut state: u64) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// The FNV-1a initial state.
pub(crate) fn fnv1a_start() -> u64 {
    FNV_OFFSET
}

/// The stable 64-bit fingerprint of one exploration: everything that
/// determines the memo's contents.  Two runs with equal fingerprints
/// memoize identical `key → summary` mappings, so one may safely reuse
/// the other's segments; any difference — another protocol snapshot,
/// another proposal vector, another model, another round cap — lands in
/// different fingerprints and the cache is ignored.
pub fn run_fingerprint<P>(
    system: SystemConfig,
    config: &ExploreConfig,
    initial: &[P],
    proposals: &[P::Output],
) -> u64
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let mut buf: Vec<u8> = Vec::with_capacity(64);
    FORMAT_VERSION.encode(&mut buf);
    CACHE_FORMAT_VERSION.encode(&mut buf);
    EXPLORER_LOGIC_VERSION.encode(&mut buf);
    system.n().encode(&mut buf);
    system.t().encode(&mut buf);
    buf.push(match config.model {
        ModelKind::Extended => 0,
        ModelKind::Classic => 1,
    });
    config.max_rounds.encode(&mut buf);
    // max_states deliberately omitted: a resource valve, not a result.
    match config.round_bound {
        None => buf.push(0),
        Some(RoundBound::FPlus(c)) => {
            buf.push(1);
            c.encode(&mut buf);
        }
        Some(RoundBound::ClassicEarly { t }) => {
            buf.push(2);
            t.encode(&mut buf);
        }
        Some(RoundBound::Fixed(b)) => {
            buf.push(3);
            b.encode(&mut buf);
        }
        Some(RoundBound::Scaled { base, per_f }) => {
            buf.push(4);
            base.encode(&mut buf);
            per_f.encode(&mut buf);
        }
    }
    buf.push(match config.spec {
        SpecMode::Uniform => 0,
        SpecMode::NonUniform => 1,
    });
    config.max_crashes_per_round.encode(&mut buf);
    // The *effective* canonicalization strength (the resolved
    // [`SymmetryPlan`](crate::explorer) byte: pooling code + value bit),
    // not just the configured mode: `value_symmetric` is a type-level
    // declaration and value applicability depends on the proposal set —
    // either can change between builds without any encoding changing,
    // and a cache keyed at the other strength holds a differently
    // quotiented state space.
    buf.push(config.symmetry.plan::<P>(proposals).strength());
    let mut state = fnv1a(&buf, fnv1a_start());
    for process in initial {
        state = fnv1a(&process.fingerprint().to_le_bytes(), state);
    }
    for proposal in proposals {
        buf.clear();
        proposal.encode(&mut buf);
        state = fnv1a(&buf, state);
    }
    state
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

/// What opening a directory found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum CacheState {
    /// No manifest yet (first run, or the directory is missing).
    Empty,
    /// A manifest that cannot be used: unreadable or corrupt
    /// (`found: None`), another run's (`found: Some(fp)`), or one whose
    /// seed broke mid-import.  Always reported loudly; never reused;
    /// replaced by the next commit.
    Stale { found: Option<u64> },
    /// A manifest of this run, as this session last left it on disk.
    Ready(Manifest),
}

/// One run's handle on one directory: open → [`import`] the roles the
/// run configured there → explore → [`commit`].
///
/// [`import`]: Self::import
/// [`commit`]: Self::commit
pub(crate) struct CacheSession {
    dir: PathBuf,
    /// The cache's mode, when the run's cache names this directory: its
    /// seed segments are imported, and a ReadWrite finish commits one.
    seed: Option<CacheMode>,
    /// Whether the run's checkpoint names this directory: its resume
    /// segments are imported, suspensions commit here, and every commit
    /// drops the resume segments it supersedes.
    resume: bool,
    fingerprint: u64,
    strength: u8,
    state: CacheState,
}

impl CacheSession {
    /// One session per distinct directory the run names: the cache's
    /// with its mode as the seed role, the checkpoint's with the resume
    /// role, or one session with both when they are the same directory.
    pub(crate) fn open_all(
        cache: Option<&CacheConfig>,
        checkpoint: Option<&CheckpointConfig>,
        fingerprint: u64,
        strength: u8,
    ) -> Result<Vec<CacheSession>, ExploreError> {
        let mut dirs: Vec<(&Path, Option<CacheMode>, bool)> = Vec::new();
        if let Some(cache) = cache {
            dirs.push((&cache.dir, Some(cache.mode), false));
        }
        if let Some(checkpoint) = checkpoint {
            match dirs.first_mut() {
                Some((dir, _, resume)) if *dir == checkpoint.dir => *resume = true,
                _ => dirs.push((&checkpoint.dir, None, true)),
            }
        }
        let open = |(dir, seed, resume)| Self::open(dir, seed, resume, fingerprint, strength);
        dirs.into_iter().map(open).collect()
    }

    /// Opens `dir` and classifies its manifest, warning on stderr when
    /// one exists but cannot be used — the loud-ignore policy — and
    /// refusing resume segments keyed at another strength.
    fn open(
        dir: &Path,
        seed: Option<CacheMode>,
        resume: bool,
        fingerprint: u64,
        strength: u8,
    ) -> Result<CacheSession, ExploreError> {
        let path = dir.join(MANIFEST_NAME);
        let ignored = |why: &str| {
            eprintln!(
                "twostep: {why}; ignoring {} and exploring cold",
                dir.display()
            );
        };
        let state = match std::fs::read(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => CacheState::Empty,
            Err(e) => {
                ignored(&format!("manifest {} is unreadable ({e})", path.display()));
                CacheState::Stale { found: None }
            }
            Ok(bytes) => match Manifest::parse(&bytes) {
                None => {
                    ignored(&format!("manifest {} is corrupt", path.display()));
                    CacheState::Stale { found: None }
                }
                Some(manifest)
                    if resume
                        && manifest.strength != strength
                        && manifest.segments.iter().any(|(r, _)| *r == Role::Resume) =>
                {
                    return Err(ExploreError::CheckpointStrength {
                        found: manifest.strength,
                        expected: strength,
                    });
                }
                Some(manifest) if manifest.fingerprint != fingerprint => {
                    ignored(&format!(
                        "its segments were produced by a different run (fingerprint \
                         {:016x}, this run is {fingerprint:016x})",
                        manifest.fingerprint
                    ));
                    CacheState::Stale {
                        found: Some(manifest.fingerprint),
                    }
                }
                Some(manifest) => CacheState::Ready(manifest),
            },
        };
        Ok(CacheSession {
            dir: dir.to_path_buf(),
            seed,
            resume,
            fingerprint,
            strength,
            state,
        })
    }

    /// The directory.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether the run's checkpoint names this directory.
    pub(crate) fn resumes(&self) -> bool {
        self.resume
    }

    /// The opened state (asserted by the unit tests).
    #[cfg(test)]
    pub(crate) fn state(&self) -> &CacheState {
        &self.state
    }

    /// The listed segments of `role` the run configured here, as paths.
    pub(crate) fn segments(&self, role: Role) -> Vec<PathBuf> {
        let configured = match role {
            Role::Seed => self.seed.is_some(),
            Role::Resume => self.resume,
        };
        match &self.state {
            CacheState::Ready(manifest) if configured => (manifest.segments.iter())
                .filter(|(r, _)| *r == role)
                .map(|(_, name)| self.dir.join(name))
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Imports the `role` segments the run configured here into `memo`,
    /// **all or nothing** — seed segments as seeded, resume segments as
    /// fresh, the latter only above the seed floor (module docs).
    /// `Some(records)` on success; `None` after a loud warning if a
    /// segment failed validation mid-import, in which case the **caller
    /// must discard `memo`** and import again into a fresh one: a broken
    /// seed has turned the session stale, so that import skips it and a
    /// ReadWrite commit replaces it.
    pub(crate) fn import<O>(
        &mut self,
        memo: &ShardedMemo<O>,
        role: Role,
        validator: EntryValidator,
    ) -> Option<u64>
    where
        O: Clone + Eq + std::hash::Hash + SpillCodec,
    {
        let paths = self.segments(role);
        if let CacheState::Ready(manifest) = &self.state {
            if role == Role::Resume
                && !paths.is_empty()
                && manifest.floor > memo.seeded_len() as u64
            {
                eprintln!(
                    "twostep: {} was suspended over a {}-entry cache seed but this run \
                     seeded only {}; ignoring its resume segments and starting over",
                    self.dir.display(),
                    manifest.floor,
                    memo.seeded_len()
                );
                return Some(0);
            }
        }
        let mut records = 0;
        for path in paths {
            let imported = match role {
                Role::Seed => memo.import_seed_from(&path, validator),
                Role::Resume => memo.import_from(&path, validator),
            };
            match imported {
                Ok(n) => records += n,
                Err(e) => {
                    eprintln!(
                        "twostep: segment {} failed to import ({e}); discarding the memo \
                         and starting over without it",
                        path.display()
                    );
                    if role == Role::Seed {
                        self.state = CacheState::Stale { found: None };
                    }
                    return None;
                }
            }
        }
        Some(records)
    }

    /// Commits to this directory by the module's one commit rule: a new
    /// segment of `role` holding the memo's fresh entries (when it has
    /// any; `None` writes nothing), seed segments kept, resume segments
    /// dropped when the run's checkpoint names the directory.  A commit
    /// that would change nothing touches nothing, nor does one that
    /// writes nothing over a manifest that is not this run's.  Failures
    /// warn and return `false` — they never fail the exploration.
    pub(crate) fn commit<O>(&mut self, memo: &ShardedMemo<O>, role: Option<Role>) -> bool
    where
        O: Clone + Eq + SpillCodec,
    {
        match self.try_commit(memo, role) {
            Ok(()) => true,
            Err(e) => {
                eprintln!(
                    "twostep: failed to commit {} ({e}); its previous manifest stands, \
                     and the exploration result is unaffected",
                    self.dir.display()
                );
                false
            }
        }
    }

    /// The finishing commit: a seed segment under
    /// [`CacheMode::ReadWrite`], the resume segments dropped in the same
    /// manifest — or the drop alone, where no seed may be written.
    pub(crate) fn finish<O>(&mut self, memo: &ShardedMemo<O>)
    where
        O: Clone + Eq + SpillCodec,
    {
        let role = (self.seed == Some(CacheMode::ReadWrite)).then_some(Role::Seed);
        if role.is_some() || self.resume {
            self.commit(memo, role);
        }
    }

    fn try_commit<O>(&mut self, memo: &ShardedMemo<O>, role: Option<Role>) -> Result<(), SpillError>
    where
        O: Clone + Eq + SpillCodec,
    {
        let write = role.filter(|_| memo.len() > memo.seeded_len());
        let mut manifest = match &self.state {
            CacheState::Ready(manifest) => manifest.clone(),
            // Nothing to write, and nothing listed is this run's to drop.
            _ if write.is_none() => return Ok(()),
            _ => Manifest::empty(self.fingerprint, self.strength),
        };
        // Past every listed index, dropped ones included: those files
        // stay live until the new manifest is in place.
        let next = (manifest.segments.iter())
            .filter_map(|(_, name)| segment_index(name))
            .max()
            .map_or(0, |index| index + 1);
        if self.resume {
            manifest.segments.retain(|(r, _)| *r == Role::Seed);
        }
        if role == Some(Role::Resume) {
            manifest.floor = memo.seeded_len() as u64;
        }
        if let Some(role) = write {
            std::fs::create_dir_all(&self.dir).map_err(|e| {
                SpillError::io(&format!("creating directory {}", self.dir.display()), e)
            })?;
            let name = segment_name(self.fingerprint, next);
            memo.export_delta(&self.dir.join(&name))?;
            manifest.segments.push((role, name));
        }
        if matches!(&self.state, CacheState::Ready(old) if *old == manifest) {
            return Ok(());
        }
        if !manifest.segments.is_empty() {
            manifest.write(&self.dir)?;
        } else if let Err(e) = std::fs::remove_file(self.dir.join(MANIFEST_NAME)) {
            if e.kind() != std::io::ErrorKind::NotFound {
                return Err(SpillError::io("removing an emptied manifest", e));
            }
        }
        remove_unlisted(&self.dir, &manifest.segments);
        self.state = if manifest.segments.is_empty() {
            CacheState::Empty
        } else {
            CacheState::Ready(manifest)
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::explorer::{ExploreOptions, ExploreReport, Summary, WalkBudget};
    use crate::memo::MemoConfig;
    use crate::spill::SpillDir;
    use twostep_model::codec::stable_hash64;
    use twostep_model::WideValue;

    fn summary(ident: u64) -> Arc<Summary<WideValue>> {
        Arc::new(Summary {
            terminals: 1,
            worst_round_by_f: vec![Some(2), None],
            decided: vec![WideValue::new(1, ident)],
            violating: false,
        })
    }

    /// Any key bytes, and the summaries [`summary`] builds (`t = 1`).
    fn any_key() -> EntryValidator {
        EntryValidator::new(|_| true, 1)
    }

    fn empty_memo() -> ShardedMemo<WideValue> {
        ShardedMemo::new(2, &MemoConfig::all_ram()).unwrap()
    }

    fn memo_with(keys: &[&[u8]]) -> ShardedMemo<WideValue> {
        let memo = empty_memo();
        for (i, key) in keys.iter().enumerate() {
            memo.insert(stable_hash64(key), key, summary(i as u64))
                .unwrap();
        }
        memo
    }

    /// A session on `dir` with only the resume role, as a run whose
    /// checkpoint names it opens one.
    fn checkpoint(dir: &Path, fingerprint: u64, strength: u8) -> CacheSession {
        CacheSession::open(dir, None, true, fingerprint, strength).unwrap()
    }

    /// The manifest `dir` holds.
    fn manifest_of(dir: &Path) -> Manifest {
        Manifest::parse(&std::fs::read(dir.join(MANIFEST_NAME)).unwrap()).unwrap()
    }

    /// The segment-named files of `dir`, sorted.
    fn segment_files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = (std::fs::read_dir(dir).into_iter().flatten().flatten())
            .filter_map(|entry| entry.file_name().into_string().ok())
            .filter(|name| segment_index(name).is_some())
            .collect();
        names.sort();
        names
    }

    /// A cache's manifest: seed segments only.  The checkpoint side —
    /// resume segments, floor — is `checkpoint::tests`'.
    #[test]
    fn manifest_roundtrips() {
        let fingerprint = 0xDEAD_BEEF_0BAD_F00D;
        let mut manifest = Manifest::empty(fingerprint, 0x13);
        for index in 0..2 {
            (manifest.segments).push((Role::Seed, segment_name(fingerprint, index)));
        }
        crate::manifest::assert_sealed(&manifest);
    }

    #[test]
    fn manifest_rejects_path_escapes() {
        let mut evil = Manifest::empty(1, 0);
        evil.segments.push((Role::Seed, "../../etc/passwd".into()));
        assert_eq!(Manifest::parse(&evil.to_bytes()), None);
    }

    #[test]
    fn gc_only_matches_own_segment_names() {
        assert_eq!(segment_index("seg-0123456789abcdef-000000.seg"), Some(0));
        assert_eq!(segment_index("seg-ABCDEF0123456789-000042.seg"), Some(42));
        assert_eq!(segment_index(&segment_name(7, 1_000_000)), Some(1_000_000));
        // Anything a commit didn't write must be left alone.
        assert_eq!(segment_index("worker0.seg"), None);
        assert_eq!(segment_index("seg-000000.seg"), None);
        assert_eq!(segment_index("seg-0123456789abcdef-000000.seg.bak"), None);
        assert_eq!(segment_index("seg-0123456789abcde-000000.seg"), None); // 15 hex
        assert_eq!(segment_index("seg-0123456789abcdxx-000000.seg"), None);
        assert_eq!(segment_index("seg-0123456789abcdef-00000.seg"), None); // 5 digits
        assert_eq!(segment_index("ckpt-0123456789abcdef.seg"), None);
        assert_eq!(segment_index("archive.seg"), None);
    }

    #[test]
    fn fnv1a_is_stable() {
        // Pinned values: the fingerprint is persisted to disk, so the
        // hash must never drift between builds.
        assert_eq!(fnv1a(b"", fnv1a_start()), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a", fnv1a_start()), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar", fnv1a_start()), 0x85944171f73967e8);
    }

    #[test]
    fn open_classifies_missing_and_stale() {
        let dir = SpillDir::create(None).unwrap();
        let cache_dir = dir.path().join("cache");
        let open = |fingerprint| {
            CacheSession::open(
                &cache_dir,
                Some(CacheMode::ReadWrite),
                false,
                fingerprint,
                0,
            )
            .unwrap()
        };
        assert_eq!(*open(7).state(), CacheState::Empty);

        // A valid manifest under another fingerprint is stale.
        std::fs::create_dir_all(&cache_dir).unwrap();
        Manifest::empty(99, 0).write(&cache_dir).unwrap();
        assert_eq!(*open(7).state(), CacheState::Stale { found: Some(99) });
        let ready = open(99);
        assert_eq!(*ready.state(), CacheState::Ready(Manifest::empty(99, 0)));
        assert!(ready.segments(Role::Seed).is_empty());

        // A corrupt manifest is stale with no recovered fingerprint.
        std::fs::write(cache_dir.join(MANIFEST_NAME), b"not a manifest").unwrap();
        assert_eq!(*open(7).state(), CacheState::Stale { found: None });
    }

    /// Suspend, suspend again, resume, finish: every rewrite lists a new
    /// file before removing the one it supersedes; a matching resume
    /// imports every record as fresh, a foreign one nothing; the finish
    /// consumes the checkpoint.
    #[test]
    fn write_resume_consume_cycle() {
        let dir = SpillDir::create(None).unwrap();
        let ckpt = dir.path().join("ckpt");
        let memo = memo_with(&[b"alpha", b"beta", b"gamma"]);
        let mut writer = checkpoint(&ckpt, 42, 0);
        assert!(writer.commit(&memo, Some(Role::Resume)));
        let first = segment_files(&ckpt);
        assert!(writer.commit(&memo, Some(Role::Resume)));
        let second = segment_files(&ckpt);
        assert_eq!((first.len(), second.len()), (1, 1));
        assert_ne!(first, second, "a rewrite never reuses a live file");
        assert_eq!(
            manifest_of(&ckpt).segments,
            vec![(Role::Resume, second[0].clone())]
        );

        let resumed = empty_memo();
        let mut resuming = checkpoint(&ckpt, 42, 0);
        assert_eq!(resuming.import(&resumed, Role::Resume, any_key()), Some(3));
        assert_eq!(resumed.len(), 3);
        assert_eq!(resumed.seeded_len(), 0, "resume segments import fresh");

        // A different fingerprint is loudly ignored, memo untouched.
        let foreign = empty_memo();
        let mut other = checkpoint(&ckpt, 43, 0);
        assert_eq!(other.import(&foreign, Role::Resume, any_key()), Some(0));
        assert_eq!(foreign.len(), 0);

        // The finish consumes: nothing listed, nothing left.
        resuming.finish(&resumed);
        assert!(!ckpt.join(MANIFEST_NAME).exists());
        assert!(segment_files(&ckpt).is_empty());
        assert_eq!(*checkpoint(&ckpt, 42, 0).state(), CacheState::Empty);
    }

    #[test]
    fn under_seeded_resume_is_rejected() {
        let dir = SpillDir::create(None).unwrap();
        let ckpt = dir.path().join("ckpt");
        let seed_path = dir.path().join("seed.seg");
        // The suspended run had 2 seeded + 1 fresh entry.
        memo_with(&[b"alpha", b"beta"])
            .export_to(&seed_path)
            .unwrap();
        let suspended = empty_memo();
        suspended.import_seed_from(&seed_path, any_key()).unwrap();
        suspended
            .insert(stable_hash64(b"gamma"), b"gamma", summary(9))
            .unwrap();
        assert!(checkpoint(&ckpt, 7, 0).commit(&suspended, Some(Role::Resume)));
        assert_eq!(manifest_of(&ckpt).floor, 2);

        // Resuming without the seed would hide alpha/beta's descendants
        // behind gamma: ignored, memo untouched.
        let cold = empty_memo();
        let imported = checkpoint(&ckpt, 7, 0).import(&cold, Role::Resume, any_key());
        assert_eq!((imported, cold.len()), (Some(0), 0));

        // With the (equal or larger) seed restored, the resume goes
        // through and the delta holds exactly the fresh entry.
        let warm = empty_memo();
        warm.import_seed_from(&seed_path, any_key()).unwrap();
        let imported = checkpoint(&ckpt, 7, 0).import(&warm, Role::Resume, any_key());
        assert_eq!((imported, warm.len()), (Some(1), 3));
    }

    #[test]
    fn strength_mismatch_is_a_hard_refusal_not_a_restart() {
        let dir = SpillDir::create(None).unwrap();
        let ckpt = dir.path().join("ckpt");
        let memo = memo_with(&[b"alpha"]);
        // Suspended at partial+value strength (0x13); resumed at off (0).
        assert!(checkpoint(&ckpt, 11, 0x13).commit(&memo, Some(Role::Resume)));
        assert_eq!(
            CacheSession::open(&ckpt, None, true, 11, 0).err(),
            Some(ExploreError::CheckpointStrength {
                found: 0x13,
                expected: 0
            })
        );
        // A run that only reads the directory as a cache is not resuming
        // anything: another strength is another fingerprint, ignored.
        let cache = CacheSession::open(&ckpt, Some(CacheMode::Read), false, 12, 0).unwrap();
        assert_eq!(*cache.state(), CacheState::Stale { found: Some(11) });
        // At the matching strength the same artifact resumes normally.
        let matching = empty_memo();
        let imported = checkpoint(&ckpt, 11, 0x13).import(&matching, Role::Resume, any_key());
        assert_eq!(imported, Some(1));
    }

    #[test]
    fn corrupt_segment_is_broken_not_partial_silence() {
        let dir = SpillDir::create(None).unwrap();
        let ckpt = dir.path().join("ckpt");
        let memo = memo_with(&[b"alpha", b"beta"]);
        assert!(checkpoint(&ckpt, 5, 0).commit(&memo, Some(Role::Resume)));
        let segment = ckpt.join(segment_name(5, 0));
        let mut bytes = std::fs::read(&segment).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&segment, &bytes).unwrap();

        let resumed = empty_memo();
        let imported = checkpoint(&ckpt, 5, 0).import(&resumed, Role::Resume, any_key());
        assert_eq!(imported, None, "the caller must discard the memo whole");
    }

    // -----------------------------------------------------------------
    // A cache and a checkpoint in one run
    // -----------------------------------------------------------------

    type Crw = twostep_core::Crw<WideValue>;

    fn crw_run(options: ExploreOptions) -> Result<ExploreReport<WideValue>, ExploreError> {
        let system = SystemConfig::new(3, 2).unwrap();
        let proposals: Vec<WideValue> = (0..3).map(|i| WideValue::new(1, i % 2)).collect();
        crate::explore_with::<Crw>(
            system,
            ExploreConfig::for_crw(&system),
            options,
            twostep_core::crw_processes(&system, &proposals),
            proposals,
        )
    }

    fn steps(max_steps: u64) -> WalkBudget {
        WalkBudget {
            max_steps: Some(max_steps),
            ..WalkBudget::unlimited()
        }
    }

    fn assert_same(a: &ExploreReport<WideValue>, b: &ExploreReport<WideValue>, label: &str) {
        assert_eq!(a.root, b.root, "{label}: root summary");
        assert_eq!(a.distinct_states, b.distinct_states, "{label}: states");
        assert_eq!(a.cache_hits, b.cache_hits, "{label}: cache hits");
        assert_eq!(
            a.bivalency_by_round, b.bivalency_by_round,
            "{label}: census"
        );
    }

    /// Suspends a run at `max_steps`, resuming into `checkpoint` with
    /// the given cache; asserts the suspension left its artifact.
    fn suspend(cache: Option<CacheConfig>, checkpoint: &Path, max_steps: u64) {
        let options = (ExploreOptions::serial().with_cache(cache))
            .with_budget(steps(max_steps))
            .with_checkpoint(Some(CheckpointConfig::at(checkpoint)));
        match crw_run(options) {
            Err(ExploreError::Interrupted {
                checkpoint: Some(dir),
                ..
            }) => assert_eq!(dir, checkpoint),
            other => panic!("expected a checkpointed suspension, got {other:?}"),
        }
    }

    /// A partial cache: a suspended run's resume segment is a
    /// descendant-closed image of part of the space, so relabelled a
    /// seed it is a valid cache that a warm run still makes progress
    /// beyond.
    fn partial_cache(dir: &Path) {
        suspend(None, dir, 7);
        let mut manifest = manifest_of(dir);
        for (role, _) in &mut manifest.segments {
            *role = Role::Seed;
        }
        manifest.floor = 0;
        manifest.write(dir).unwrap();
    }

    /// A warm-cache run suspended and resumed with the same cache reports
    /// what the uninterrupted warm run does, `cache_hits` included; the
    /// checkpoint is consumed and the cache gains one seed segment.
    #[test]
    fn a_warm_cache_run_suspends_and_resumes_with_its_cache() {
        let dir = SpillDir::create(None).unwrap();
        let (cache_dir, ckpt) = (dir.path().join("cache"), dir.path().join("ckpt"));
        partial_cache(&cache_dir);
        let warm =
            crw_run(ExploreOptions::serial().with_cache(Some(CacheConfig::read(&cache_dir))))
                .unwrap();
        assert!(
            warm.cache_hits > 0 && warm.fresh_states > 0,
            "a partial cache"
        );

        let cache = Some(CacheConfig::read_write(&cache_dir));
        suspend(cache.clone(), &ckpt, 1);
        assert_eq!(manifest_of(&ckpt).floor, warm.cache_hits as u64);
        let resumed = ExploreOptions::serial()
            .with_cache(cache)
            .with_checkpoint(Some(CheckpointConfig::at(&ckpt)));
        assert_same(&warm, &crw_run(resumed).unwrap(), "resumed warm run");
        assert!(!ckpt.join(MANIFEST_NAME).exists() && segment_files(&ckpt).is_empty());
        let roles: Vec<Role> = manifest_of(&cache_dir)
            .segments
            .iter()
            .map(|s| s.0)
            .collect();
        assert_eq!(roles, [Role::Seed, Role::Seed]);
    }

    /// A run suspended over a cache seed, resumed without the cache: the
    /// seed floor ignores the resume segments, and the run is the cold
    /// run.
    #[test]
    fn a_resume_without_its_cache_is_ignored_below_the_floor() {
        let dir = SpillDir::create(None).unwrap();
        let (cache_dir, ckpt) = (dir.path().join("cache"), dir.path().join("ckpt"));
        partial_cache(&cache_dir);
        suspend(Some(CacheConfig::read(&cache_dir)), &ckpt, 1);
        assert!(manifest_of(&ckpt).floor > 0);

        let cold = crw_run(ExploreOptions::serial()).unwrap();
        let resumed =
            crw_run(ExploreOptions::serial().with_checkpoint(Some(CheckpointConfig::at(&ckpt))))
                .unwrap();
        assert_same(&cold, &resumed, "resume below the floor");
        assert_eq!(resumed.cache_hits, 0);
        assert!(!ckpt.join(MANIFEST_NAME).exists() && segment_files(&ckpt).is_empty());
    }

    /// One directory as both cache and checkpoint: after completion the
    /// manifest lists only seed segments, no resume file is left, and a
    /// file the commits did not write is untouched.
    #[test]
    fn one_directory_for_cache_and_checkpoint_ends_with_seeds_only() {
        let dir = SpillDir::create(None).unwrap();
        let both = dir.path().join("both");
        std::fs::create_dir_all(&both).unwrap();
        std::fs::write(both.join("archive.seg"), b"not ours").unwrap();
        let cache = Some(CacheConfig::read_write(&both));
        suspend(cache.clone(), &both, 1);
        let listed = manifest_of(&both).segments;
        assert!(
            listed.iter().all(|(role, _)| *role == Role::Resume),
            "{listed:?}"
        );

        let resumed = ExploreOptions::serial()
            .with_cache(cache.clone())
            .with_checkpoint(Some(CheckpointConfig::at(&both)));
        let cold = crw_run(ExploreOptions::serial()).unwrap();
        assert_same(
            &cold,
            &crw_run(resumed).unwrap(),
            "resumed in one directory",
        );
        let listed = manifest_of(&both).segments;
        assert!(
            listed.iter().all(|(role, _)| *role == Role::Seed),
            "{listed:?}"
        );
        let names: Vec<String> = listed.into_iter().map(|(_, name)| name).collect();
        assert_eq!(segment_files(&both), names, "no resume file is left");
        assert_eq!(
            std::fs::read(both.join("archive.seg")).unwrap(),
            b"not ours"
        );

        // The seeds are the whole image: a warm run is answered by them.
        let warm = crw_run(ExploreOptions::serial().with_cache(cache)).unwrap();
        assert_eq!(warm.cache_hits, warm.distinct_states);
    }
}
