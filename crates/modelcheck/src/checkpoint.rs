//! Resumable walk checkpoints: the suspended half of the frame-stepped
//! explorer core (whose driver contracts are at the head of
//! `explorer/budget.rs`).
//!
//! A walk suspended by an exhausted [`WalkBudget`](crate::WalkBudget)
//! limit — or a rerouted `StateLimit` abort — serializes its partial
//! work here so a later run finishes instead of restarting.  A
//! **checkpoint directory** holds:
//!
//! * one sealed interchange segment (the v4 format of [`crate::spill`],
//!   compressed records, CRC-validated) with the memo's **fresh delta**:
//!   every configuration this run computed beyond its persistent-cache
//!   seed;
//! * a **manifest** (`manifest.twockpt`) binding that segment to the
//!   run's 64-bit fingerprint ([`crate::cache::run_fingerprint`] — the
//!   same identity the persistent cache uses), the suspending
//!   [`BudgetKind`], and the **seeded count** at suspension.
//!
//! No frontier frames are saved, and none are needed: memo inserts
//! happen only at frame pop or terminal entry, so a quiescent memo
//! image is **descendant-closed** — every memoized configuration's
//! whole subtree is memoized.  A resumed run simply re-drives the root
//! walk and fast-forwards through memo hits until it reaches unexplored
//! territory; the composed final report is bit-identical to an
//! uninterrupted run's (`tests/checkpoint_differential.rs`, and
//! `tests/checkpoint_props.rs` composing arbitrary step-budget
//! partitions).
//!
//! Two guards keep resume sound, both inherited from the cache's
//! policies:
//!
//! * **all-or-nothing import** — a segment that fails validation
//!   mid-import declares the checkpoint `CheckpointLoad::Broken` and
//!   the caller discards the partially seeded memo whole (a partial
//!   image would silently shrink `distinct_states` and the census);
//! * **seed superset check** — the fresh delta is descendant-closed
//!   only *together with* the cache seed that was present at
//!   suspension: a fresh parent may have seeded descendants.  The
//!   manifest records how many seeded entries the suspended run had,
//!   and a resume whose own seed is smaller loudly ignores the
//!   checkpoint (fingerprint-matching caches only grow — deltas are
//!   appended, never dropped — so `>=` means superset).
//!
//! Checkpoint failures never fail an exploration: an unwritable
//! checkpoint warns and the run reports the interrupt without one; an
//! unusable checkpoint warns and the run starts cold.  A completed run
//! **consumes** the artifact so a stale partial image can't shadow
//! later (differently budgeted) runs.

use std::path::PathBuf;

use crate::explorer::BudgetKind;
use crate::manifest::{put_name, remove_own_files, segment_suffix, take_name, Envelope};
use crate::memo::{EntryValidator, ShardedMemo};
use crate::spill::{SpillCodec, SpillError};

/// File name of the checkpoint manifest inside a checkpoint directory.
pub const CHECKPOINT_MANIFEST_NAME: &str = "manifest.twockpt";

/// Checkpoint manifest format version; independent of the segment
/// format version, which the fingerprint covers.  v2 added the
/// symmetry-canonicalization strength byte — a checkpoint's memo image
/// is keyed in one strength's canonical space, and resuming it at
/// another would mix quotients.
const CHECKPOINT_FORMAT_VERSION: u32 = 2;

const ENVELOPE: Envelope = Envelope {
    file_name: CHECKPOINT_MANIFEST_NAME,
    magic: *b"TWOCKPT1",
    version: CHECKPOINT_FORMAT_VERSION,
};

/// Where a suspended walk parks its resumable artifact
/// ([`crate::ExploreOptions::checkpoint`]).
///
/// The directory may be shared with other files — a cache directory,
/// worker scratch — because the checkpoint only ever touches its own
/// manifest and its own `ckpt-*.seg` naming.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// The checkpoint directory (created on first suspension).
    pub dir: PathBuf,
    /// When set, single-threaded walks also snapshot *periodically*:
    /// every this-many steps the walk parks at a `Yield` point and
    /// rewrites the checkpoint (write-then-rename, like every manifest
    /// update), so a crash loses at most one interval of work instead
    /// of the whole run.  `None` (the default) checkpoints only at
    /// suspension.
    pub autosave_every: Option<u64>,
}

impl CheckpointConfig {
    /// A checkpoint directory at `dir`, no autosave.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            autosave_every: None,
        }
    }

    /// Also autosave every `steps` steps (see
    /// [`autosave_every`](Self::autosave_every)).
    pub fn with_autosave_every(mut self, steps: u64) -> Self {
        self.autosave_every = Some(steps);
        self
    }
}

/// The parsed manifest: which run suspended, why, and what it saved.
#[derive(Clone, Debug, PartialEq, Eq)]
struct CheckpointManifest {
    /// [`crate::cache::run_fingerprint`] of the suspended run.
    fingerprint: u64,
    /// The suspending [`BudgetKind`], as its wire byte.
    reason: u8,
    /// Distinct states memoized at suspension (fresh + seeded).
    states: u64,
    /// Seeded entries at suspension — the superset guard's floor.
    seeded: u64,
    /// The symmetry-canonicalization strength the memo image is keyed
    /// at ([`SymmetryPlan::strength`](crate::explorer) byte).  Checked
    /// *before* the fingerprint: strength is folded into the
    /// fingerprint too, but a strength flip deserves a hard refusal
    /// with a precise message, not the generic foreign-run shrug.
    strength: u8,
    /// The delta segment's file name (flat, inside the directory).
    segment: String,
}

fn reason_byte(reason: BudgetKind) -> u8 {
    match reason {
        BudgetKind::Steps => 0,
        BudgetKind::Deadline => 1,
        BudgetKind::MemoBytes => 2,
        BudgetKind::States => 3,
        BudgetKind::Autosave => 4,
    }
}

impl CheckpointManifest {
    fn to_bytes(&self) -> Vec<u8> {
        ENVELOPE.seal(|out| {
            self.fingerprint.encode(out);
            out.push(self.reason);
            self.states.encode(out);
            self.seeded.encode(out);
            out.push(self.strength);
            put_name(&self.segment, out);
        })
    }

    fn parse(bytes: &[u8]) -> Option<CheckpointManifest> {
        let mut input = ENVELOPE.open(bytes)?;
        let fingerprint = u64::decode(&mut input)?;
        let reason = *twostep_model::codec::take(&mut input, 1)?.first()?;
        if reason > reason_byte(BudgetKind::Autosave) {
            return None;
        }
        let states = u64::decode(&mut input)?;
        let seeded = u64::decode(&mut input)?;
        let strength = *twostep_model::codec::take(&mut input, 1)?.first()?;
        let segment = take_name(&mut input)?;
        input.is_empty().then_some(CheckpointManifest {
            fingerprint,
            reason,
            states,
            seeded,
            strength,
            segment,
        })
    }
}

/// Whether `name` follows the checkpoint's own segment naming —
/// `ckpt-<16 hex fingerprint>.seg` — the only files consumption is
/// allowed to remove besides the manifest.
fn is_checkpoint_segment_name(name: &str) -> bool {
    segment_suffix(name, "ckpt-") == Some("")
}

/// Serializes a suspended walk's fresh memo delta into `config.dir` and
/// seals the manifest over it.  Returns the directory on success;
/// checkpoint write failures warn on stderr and return `None` — they
/// never fail the exploration (the caller reports the interrupt with
/// `checkpoint: None`, and the historical discard-partial-work behavior
/// applies).
pub(crate) fn write_checkpoint<O>(
    config: &CheckpointConfig,
    fingerprint: u64,
    strength: u8,
    reason: BudgetKind,
    memo: &ShardedMemo<O>,
) -> Option<PathBuf>
where
    O: Clone + Eq + SpillCodec,
{
    match try_write_checkpoint(config, fingerprint, strength, reason, memo) {
        Ok(()) => Some(config.dir.clone()),
        Err(e) => {
            eprintln!(
                "twostep: failed to write checkpoint {} ({e}); \
                 the suspended walk's partial work is discarded",
                config.dir.display()
            );
            None
        }
    }
}

fn try_write_checkpoint<O>(
    config: &CheckpointConfig,
    fingerprint: u64,
    strength: u8,
    reason: BudgetKind,
    memo: &ShardedMemo<O>,
) -> Result<(), SpillError>
where
    O: Clone + Eq + SpillCodec,
{
    std::fs::create_dir_all(&config.dir).map_err(|e| {
        SpillError::io(
            &format!("creating checkpoint dir {}", config.dir.display()),
            e,
        )
    })?;
    let segment = format!("ckpt-{fingerprint:016x}.seg");
    // The delta is everything this run computed beyond its cache seed —
    // with no seed, the full memo image.  A later suspension of the
    // same (resumed) run rewrites the same file with a strictly larger
    // delta: checkpoint imports count as fresh on resume, so the delta
    // always contains its predecessors.
    memo.export_delta(&config.dir.join(&segment))?;
    let manifest = CheckpointManifest {
        fingerprint,
        reason: reason_byte(reason),
        states: memo.len() as u64,
        seeded: memo.seeded_len() as u64,
        strength,
        segment,
    };
    ENVELOPE.write(&config.dir, &manifest.to_bytes())
}

/// What [`load_checkpoint`] found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum CheckpointLoad {
    /// No usable checkpoint: absent, stale, foreign, or under-seeded —
    /// all but the first reported loudly.  The memo is untouched; the
    /// run proceeds as if no checkpoint existed.
    Absent,
    /// The delta imported wholly into the memo (as *fresh* entries, so
    /// cache-hit accounting and the final commit match an uninterrupted
    /// run); `records` of them.
    Loaded {
        /// Records imported from the delta segment.
        records: u64,
    },
    /// The segment failed validation **mid-import**: the memo now holds
    /// a partial (descendant-open) image and the caller must discard it
    /// whole and rebuild — exactly the broken-cache protocol.
    Broken,
    /// The checkpoint was suspended at a different
    /// symmetry-canonicalization strength.  Unlike every other mismatch
    /// this is a **hard refusal** (`ExploreError::CheckpointStrength`),
    /// not a loud restart: the artifact is a resumable image the user
    /// asked to continue, and silently recomputing it under a different
    /// quotient — different `distinct_states`, different census — is
    /// exactly the confusion the strength byte exists to prevent.  The
    /// user either restores the old symmetry mode or deletes the
    /// checkpoint.
    StrengthMismatch {
        /// Strength byte the checkpoint was suspended at.
        found: u8,
    },
}

/// Seeds `memo` from the checkpoint in `config.dir`, if one exists and
/// is usable for the run identified by `fingerprint`.  Call *after* the
/// persistent-cache seed: the superset guard compares the manifest's
/// recorded seed against `memo.seeded_len()`.
pub(crate) fn load_checkpoint<O>(
    config: &CheckpointConfig,
    fingerprint: u64,
    strength: u8,
    memo: &ShardedMemo<O>,
    validator: EntryValidator,
) -> CheckpointLoad
where
    O: Clone + Eq + SpillCodec,
{
    let path = config.dir.join(CHECKPOINT_MANIFEST_NAME);
    let manifest = match std::fs::read(&path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CheckpointLoad::Absent,
        Err(e) => {
            eprintln!(
                "twostep: checkpoint manifest {} is unreadable ({e}); \
                 ignoring the checkpoint and starting over",
                path.display()
            );
            return CheckpointLoad::Absent;
        }
        Ok(bytes) => match CheckpointManifest::parse(&bytes) {
            None => {
                eprintln!(
                    "twostep: checkpoint manifest {} is corrupt; \
                     ignoring the checkpoint and starting over",
                    path.display()
                );
                return CheckpointLoad::Absent;
            }
            Some(manifest) => manifest,
        },
    };
    if manifest.strength != strength {
        return CheckpointLoad::StrengthMismatch {
            found: manifest.strength,
        };
    }
    if manifest.fingerprint != fingerprint {
        eprintln!(
            "twostep: checkpoint {} was suspended from a different run \
             (fingerprint {:016x}, this run is {fingerprint:016x}); \
             ignoring it and starting over",
            config.dir.display(),
            manifest.fingerprint
        );
        return CheckpointLoad::Absent;
    }
    if manifest.seeded > memo.seeded_len() as u64 {
        // The fresh delta is descendant-closed only on top of the seed
        // it was suspended over; resuming with less seed would hide
        // missing descendants behind checkpointed parents.
        eprintln!(
            "twostep: checkpoint {} was suspended over a {}-entry cache seed \
             but this run seeded only {}; ignoring it and starting over",
            config.dir.display(),
            manifest.seeded,
            memo.seeded_len()
        );
        return CheckpointLoad::Absent;
    }
    match memo.import_from(&config.dir.join(&manifest.segment), validator) {
        Ok(records) => CheckpointLoad::Loaded { records },
        Err(e) => {
            eprintln!(
                "twostep: checkpoint segment {} failed to import ({e}); \
                 discarding it and starting over",
                config.dir.join(&manifest.segment).display()
            );
            CheckpointLoad::Broken
        }
    }
}

/// Removes the checkpoint artifact after a successful completion — the
/// manifest plus every file matching the checkpoint's own segment
/// naming; nothing else in the directory is touched.  Removal failures
/// are ignored: a leftover checkpoint is harmless (a resumed run would
/// merely fast-forward through entries it recomputes) and the next
/// suspension overwrites it.
pub(crate) fn consume_checkpoint(config: &CheckpointConfig) {
    let _ = std::fs::remove_file(config.dir.join(CHECKPOINT_MANIFEST_NAME));
    remove_own_files(&config.dir, is_checkpoint_segment_name);
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::explorer::Summary;
    use crate::memo::MemoConfig;
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

    fn memo_with(keys: &[&[u8]]) -> ShardedMemo<WideValue> {
        let memo = ShardedMemo::new(2, &MemoConfig::all_ram()).unwrap();
        for (i, key) in keys.iter().enumerate() {
            memo.insert(stable_hash64(key), key, summary(i as u64))
                .unwrap();
        }
        memo
    }

    #[test]
    fn manifest_roundtrips_and_rejects_corruption() {
        let manifest = CheckpointManifest {
            fingerprint: 0xDEAD_BEEF_0BAD_F00D,
            reason: reason_byte(BudgetKind::Deadline),
            states: 815,
            seeded: 17,
            strength: 0x13,
            segment: "ckpt-deadbeef0badf00d.seg".into(),
        };
        let bytes = manifest.to_bytes();
        assert_eq!(CheckpointManifest::parse(&bytes), Some(manifest.clone()));

        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            assert_ne!(
                CheckpointManifest::parse(&bad),
                Some(manifest.clone()),
                "flip at byte {i} must not parse identically"
            );
        }
        for cut in 0..bytes.len() {
            assert_eq!(
                CheckpointManifest::parse(&bytes[..cut]),
                None,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn manifest_rejects_path_escapes_and_bad_reasons() {
        let evil = CheckpointManifest {
            fingerprint: 1,
            reason: 0,
            states: 1,
            seeded: 0,
            strength: 0,
            segment: "../../etc/passwd".into(),
        };
        assert_eq!(CheckpointManifest::parse(&evil.to_bytes()), None);
        let unknown_reason = CheckpointManifest {
            reason: 9,
            segment: "ckpt-0000000000000001.seg".into(),
            ..evil
        };
        assert_eq!(CheckpointManifest::parse(&unknown_reason.to_bytes()), None);
    }

    #[test]
    fn consume_only_matches_own_segment_names() {
        assert!(is_checkpoint_segment_name("ckpt-0123456789abcdef.seg"));
        assert!(is_checkpoint_segment_name("ckpt-ABCDEF0123456789.seg"));
        assert!(!is_checkpoint_segment_name(
            "seg-0123456789abcdef-000000.seg"
        ));
        assert!(!is_checkpoint_segment_name("ckpt-0123456789abcde.seg")); // 15 hex
        assert!(!is_checkpoint_segment_name("ckpt-0123456789abcdxx.seg"));
        assert!(!is_checkpoint_segment_name("worker0.seg"));
    }

    #[test]
    fn write_load_consume_cycle() {
        let dir = crate::spill::SpillDir::create(None).unwrap();
        let config = CheckpointConfig::at(dir.path().join("ckpt"));
        let keys: &[&[u8]] = &[b"alpha", b"beta", b"gamma"];
        let memo = memo_with(keys);
        let written = write_checkpoint(&config, 42, 0, BudgetKind::Steps, &memo);
        assert_eq!(written, Some(config.dir.clone()));

        // A matching resume imports every record as fresh.
        let resumed = ShardedMemo::<WideValue>::new(2, &MemoConfig::all_ram()).unwrap();
        assert_eq!(
            load_checkpoint(&config, 42, 0, &resumed, any_key()),
            CheckpointLoad::Loaded { records: 3 }
        );
        assert_eq!(resumed.len(), 3);
        assert_eq!(resumed.seeded_len(), 0, "checkpoint entries import fresh");

        // A different fingerprint is loudly ignored, memo untouched.
        let foreign = ShardedMemo::<WideValue>::new(2, &MemoConfig::all_ram()).unwrap();
        assert_eq!(
            load_checkpoint(&config, 43, 0, &foreign, any_key()),
            CheckpointLoad::Absent
        );
        assert_eq!(foreign.len(), 0);

        // Consumption removes the artifact; the next load sees nothing.
        consume_checkpoint(&config);
        let after = ShardedMemo::<WideValue>::new(2, &MemoConfig::all_ram()).unwrap();
        assert_eq!(
            load_checkpoint(&config, 42, 0, &after, any_key()),
            CheckpointLoad::Absent
        );
        assert!(!config.dir.join(CHECKPOINT_MANIFEST_NAME).exists());
    }

    #[test]
    fn under_seeded_resume_is_rejected() {
        let dir = crate::spill::SpillDir::create(None).unwrap();
        let config = CheckpointConfig::at(dir.path().join("ckpt"));
        let seed_path = dir.path().join("seed.seg");
        // The suspended run had 2 seeded + 1 fresh entry.
        let seed = memo_with(&[b"alpha", b"beta"]);
        seed.export_to(&seed_path).unwrap();
        let suspended = ShardedMemo::<WideValue>::new(2, &MemoConfig::all_ram()).unwrap();
        suspended.import_seed_from(&seed_path, any_key()).unwrap();
        suspended
            .insert(stable_hash64(b"gamma"), b"gamma", summary(9))
            .unwrap();
        assert!(write_checkpoint(&config, 7, 0, BudgetKind::MemoBytes, &suspended).is_some());

        // Resuming without the seed would hide alpha/beta's descendants
        // behind gamma: rejected, memo untouched.
        let cold = ShardedMemo::<WideValue>::new(2, &MemoConfig::all_ram()).unwrap();
        assert_eq!(
            load_checkpoint(&config, 7, 0, &cold, any_key()),
            CheckpointLoad::Absent
        );
        assert_eq!(cold.len(), 0);

        // With the (equal or larger) seed restored, the resume goes
        // through and the delta holds exactly the fresh entry.
        let warm = ShardedMemo::<WideValue>::new(2, &MemoConfig::all_ram()).unwrap();
        warm.import_seed_from(&seed_path, any_key()).unwrap();
        assert_eq!(
            load_checkpoint(&config, 7, 0, &warm, any_key()),
            CheckpointLoad::Loaded { records: 1 }
        );
        assert_eq!(warm.len(), 3);
    }

    #[test]
    fn strength_mismatch_is_a_hard_refusal_not_a_restart() {
        let dir = crate::spill::SpillDir::create(None).unwrap();
        let config = CheckpointConfig::at(dir.path().join("ckpt"));
        let memo = memo_with(&[b"alpha"]);
        // Suspended at partial+value strength (0x13); resumed at off (0).
        assert!(write_checkpoint(&config, 11, 0x13, BudgetKind::Steps, &memo).is_some());
        let resumed = ShardedMemo::<WideValue>::new(2, &MemoConfig::all_ram()).unwrap();
        assert_eq!(
            load_checkpoint(&config, 11, 0, &resumed, any_key()),
            CheckpointLoad::StrengthMismatch { found: 0x13 }
        );
        assert_eq!(resumed.len(), 0, "refusal leaves the memo untouched");
        // At the matching strength the same artifact resumes normally.
        let matching = ShardedMemo::<WideValue>::new(2, &MemoConfig::all_ram()).unwrap();
        assert_eq!(
            load_checkpoint(&config, 11, 0x13, &matching, any_key()),
            CheckpointLoad::Loaded { records: 1 }
        );
    }

    #[test]
    fn corrupt_segment_is_broken_not_partial_silence() {
        let dir = crate::spill::SpillDir::create(None).unwrap();
        let config = CheckpointConfig::at(dir.path().join("ckpt"));
        let memo = memo_with(&[b"alpha", b"beta"]);
        assert!(write_checkpoint(&config, 5, 0, BudgetKind::Steps, &memo).is_some());
        let segment = config.dir.join("ckpt-0000000000000005.seg");
        let mut bytes = std::fs::read(&segment).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&segment, &bytes).unwrap();

        let resumed = ShardedMemo::<WideValue>::new(2, &MemoConfig::all_ram()).unwrap();
        assert_eq!(
            load_checkpoint(&config, 5, 0, &resumed, any_key()),
            CheckpointLoad::Broken
        );
    }
}
