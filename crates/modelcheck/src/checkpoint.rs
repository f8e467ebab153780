//! Where a suspended walk parks its partial work: a checkpoint
//! directory is a cache directory ([`crate::cache`]) whose segments have
//! the *resume* role.  How a suspension commits, how a later run
//! resumes, why the resumed report is exact and why the seed floor
//! guards it are all in that module's header.

use std::path::PathBuf;

/// Where a suspended walk parks its resumable artifact
/// ([`crate::ExploreOptions::checkpoint`]).
///
/// The directory may be shared with other files — worker scratch, or
/// the run's own cache directory — because a commit only ever touches
/// the manifest and files named like its segments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// The checkpoint directory (created on first suspension).
    pub dir: PathBuf,
    /// When set, single-threaded walks also snapshot *periodically*:
    /// every this-many steps the walk parks at a `Yield` point and
    /// commits a resume segment (a new file, listed by a manifest
    /// renamed into place, before the one it supersedes is removed), so
    /// a crash loses at most one interval of work instead of the whole
    /// run.  `None` (the default) checkpoints only at suspension.
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

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::cache::CacheSession;
    use crate::explorer::Summary;
    use crate::manifest::{segment_name, Manifest, Role, MANIFEST_NAME};
    use crate::memo::{MemoConfig, ShardedMemo};
    use crate::spill::{crc32, SpillCodec, SpillDir};
    use twostep_model::codec::stable_hash64;
    use twostep_model::WideValue;

    /// A suspension's manifest: resume segments (beside the seed of a
    /// directory shared with the cache), the floor and the strength.
    #[test]
    fn manifest_roundtrips_and_rejects_corruption() {
        let fingerprint = 0xDEAD_BEEF_0BAD_F00D;
        let manifest = Manifest {
            fingerprint,
            strength: 0x13,
            floor: 17,
            segments: vec![
                (Role::Seed, segment_name(fingerprint, 0)),
                (Role::Resume, segment_name(fingerprint, 3)),
            ],
        };
        crate::manifest::assert_sealed(&manifest);
    }

    /// The role byte took the place of the reason byte: one no build
    /// writes is refused like the reason byte was.
    #[test]
    fn manifest_rejects_path_escapes_and_bad_reasons() {
        let mut evil = Manifest::empty(1, 0);
        (evil.segments).push((Role::Resume, "../../etc/passwd".into()));
        assert_eq!(Manifest::parse(&evil.to_bytes()), None);

        // A role byte no build writes, under a valid CRC.
        let name = segment_name(1, 0);
        let mut unknown = Manifest::empty(1, 0);
        unknown.segments.push((Role::Resume, name.clone()));
        let mut bytes = unknown.to_bytes();
        bytes.truncate(bytes.len() - 4);
        // The role byte follows the magic and five varint fields:
        // version, fingerprint, strength, floor and segment count.
        let mut body = &bytes[8..];
        u32::decode(&mut body).expect("version");
        u64::decode(&mut body).expect("fingerprint");
        u8::decode(&mut body).expect("strength");
        u64::decode(&mut body).expect("floor");
        assert_eq!(u32::decode(&mut body), Some(1), "one segment");
        let role_at = bytes.len() - body.len();
        assert_eq!(bytes[role_at], Role::Resume as u8);
        bytes[role_at] = 2;
        bytes.extend_from_slice(&crc32(&bytes).to_le_bytes());
        assert_eq!(Manifest::parse(&bytes), None);
    }

    /// Consuming a checkpoint removes its own segments and manifest and
    /// nothing else of a shared directory — an older build's `ckpt-*.seg`
    /// included.
    #[test]
    fn consume_only_matches_own_segment_names() {
        let dir = SpillDir::create(None).unwrap();
        let ckpt = dir.path().join("ckpt");
        std::fs::create_dir_all(&ckpt).unwrap();
        let bystanders = [
            "ckpt-0123456789abcdef.seg",
            "worker0.seg",
            "archive.seg",
            "seg-0123456789abcdef-000000.seg.bak",
        ];
        for name in bystanders {
            std::fs::write(ckpt.join(name), name).unwrap();
        }

        let memo = ShardedMemo::new(2, &MemoConfig::all_ram()).unwrap();
        let summary = Arc::new(Summary {
            terminals: 1,
            worst_round_by_f: vec![Some(2), None],
            decided: vec![WideValue::new(1, 0)],
            violating: false,
        });
        memo.insert(stable_hash64(b"alpha"), b"alpha", summary)
            .unwrap();
        let config = CheckpointConfig::at(&ckpt);
        let open = || CacheSession::open_all(None, Some(&config), 42, 0).unwrap();
        assert!(open()[0].commit(&memo, Some(Role::Resume)));
        assert!(ckpt.join(segment_name(42, 0)).exists());

        open()[0].finish(&memo);
        assert!(!ckpt.join(MANIFEST_NAME).exists());
        assert!(!ckpt.join(segment_name(42, 0)).exists());
        for name in bystanders {
            assert_eq!(std::fs::read(ckpt.join(name)).unwrap(), name.as_bytes());
        }
    }
}
