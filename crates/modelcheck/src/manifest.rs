//! The one manifest of a cache directory ([`crate::cache`]): which of
//! the directory's segment files a run may trust, and as what.
//!
//! It binds a list of segments, each tagged with its [`Role`], to the
//! run fingerprint and symmetry strength they were produced under and to
//! the *seed floor* their resume segments need.  It is sealed like every
//! other artifact — magic, version, body, CRC32 trailer — and written to
//! a temporary name, then renamed into place.  Two hygiene rules: a
//! manifest names only flat files of its own directory, and a cleanup
//! removes only files that follow the segment naming
//! `seg-<16 hex fingerprint>-<index>.seg` (six digits or more).

use std::path::Path;

use twostep_model::codec::take;

use crate::spill::{crc32, SpillCodec, SpillError};

/// File name of the manifest inside a cache directory.
pub const MANIFEST_NAME: &str = "manifest.twocache";

/// First 8 bytes of the manifest.
const MAGIC: [u8; 8] = *b"TWOCACHE";

/// Manifest format version; independent of the segment
/// [`FORMAT_VERSION`](crate::spill::FORMAT_VERSION), which is
/// fingerprinted separately.  Version 2 made it the manifest of
/// checkpoints too: the strength byte, the seed floor and a role per
/// segment.  Version 3 writes every integer of the body as a minimal
/// LEB128 varint ([`SpillCodec`]); the CRC trailer stays four
/// little-endian bytes, because the parser finds it by position.
pub(crate) const CACHE_FORMAT_VERSION: u32 = 3;

/// What a segment holds, relative to the run that reads it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Role {
    /// A finished run's memo delta: imported as seeded, so it counts
    /// toward `cache_hits`; every commit keeps it.
    Seed = 0,
    /// A suspended run's fresh delta: imported as fresh, so the resumed
    /// report equals the uninterrupted one; every commit of a run whose
    /// checkpoint names the directory drops it, because the new delta
    /// holds it.
    Resume = 1,
}

/// A parsed manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Manifest {
    /// [`crate::cache::run_fingerprint`] of the run that wrote the
    /// segments.
    pub(crate) fingerprint: u64,
    /// The symmetry-canonicalization strength the segments are keyed at
    /// (the `SymmetryPlan::strength` byte).  The fingerprint covers it
    /// too; it is kept apart so that a resume at another strength is a
    /// precise hard refusal rather than a foreign-run shrug.
    pub(crate) strength: u8,
    /// Seeded entries the last suspension ran over: its resume segments
    /// are descendant-closed only above a seed at least this large.
    pub(crate) floor: u64,
    /// The segments, oldest first.
    pub(crate) segments: Vec<(Role, String)>,
}

impl Manifest {
    /// A manifest listing nothing.
    pub(crate) fn empty(fingerprint: u64, strength: u8) -> Manifest {
        Manifest {
            fingerprint,
            strength,
            floor: 0,
            segments: Vec::new(),
        }
    }

    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        CACHE_FORMAT_VERSION.encode(&mut out);
        self.fingerprint.encode(&mut out);
        out.push(self.strength);
        self.floor.encode(&mut out);
        (self.segments.len() as u32).encode(&mut out);
        for (role, name) in &self.segments {
            out.push(*role as u8);
            (name.len() as u32).encode(&mut out);
            out.extend_from_slice(name.as_bytes());
        }
        out.extend_from_slice(&crc32(&out).to_le_bytes());
        out
    }

    /// The manifest `bytes` hold; `None` under another magic or version,
    /// a CRC that does not match, or a body of the wrong shape.
    pub(crate) fn parse(bytes: &[u8]) -> Option<Manifest> {
        if bytes.len() < MAGIC.len() + 4 || bytes[..MAGIC.len()] != MAGIC {
            return None;
        }
        let (sealed, crc) = bytes.split_at(bytes.len() - 4);
        if u32::from_le_bytes(crc.try_into().ok()?) != crc32(sealed) {
            return None;
        }
        let mut input = &sealed[MAGIC.len()..];
        if u32::decode(&mut input)? != CACHE_FORMAT_VERSION {
            return None;
        }
        let fingerprint = u64::decode(&mut input)?;
        let strength = *take(&mut input, 1)?.first()?;
        let floor = u64::decode(&mut input)?;
        let count = u32::decode(&mut input)?;
        let segments = (0..count)
            .map(|_| {
                let role = match take(&mut input, 1)?.first()? {
                    0 => Role::Seed,
                    1 => Role::Resume,
                    _ => return None,
                };
                Some((role, take_name(&mut input)?))
            })
            .collect::<Option<Vec<_>>>()?;
        input.is_empty().then_some(Manifest {
            fingerprint,
            strength,
            floor,
            segments,
        })
    }

    /// Atomically (write-then-rename) puts the manifest into `dir`.
    pub(crate) fn write(&self, dir: &Path) -> Result<(), SpillError> {
        let tmp = dir.join(format!("{MANIFEST_NAME}.tmp-{}", std::process::id()));
        crate::faults::shim_fs_write(&tmp, &self.to_bytes())
            .map_err(|e| SpillError::io(&format!("writing manifest {}", tmp.display()), e))?;
        std::fs::rename(&tmp, dir.join(MANIFEST_NAME))
            .map_err(|e| SpillError::io("renaming manifest into place", e))
    }
}

/// Reads a segment's file name back.  Segment names are flat file names
/// inside the manifest's directory; a name that escapes it is not
/// something we ever wrote.
fn take_name(input: &mut &[u8]) -> Option<String> {
    let len = u32::decode(input)? as usize;
    let name = std::str::from_utf8(take(input, len)?).ok()?;
    (!name.is_empty() && !name.contains(['/', '\\']) && name != "..").then(|| name.to_string())
}

/// The file name of segment `index` of the run with `fingerprint`.
pub(crate) fn segment_name(fingerprint: u64, index: u32) -> String {
    format!("seg-{fingerprint:016x}-{index:06}.seg")
}

/// The index of a file named like a segment, `None` for any other name.
/// Only such files are a cleanup's to remove.
pub(crate) fn segment_index(name: &str) -> Option<u32> {
    let stem = name.strip_prefix("seg-")?.strip_suffix(".seg")?;
    let (fingerprint, index) = stem.split_at_checked(16)?;
    let index = index.strip_prefix('-')?;
    let digits = index.len() >= 6 && index.chars().all(|c| c.is_ascii_digit());
    let hex = fingerprint.chars().all(|c| c.is_ascii_hexdigit());
    (hex && digits).then(|| index.parse().ok())?
}

/// Removes the segment-named files of `dir` that `listed` does not
/// name, and nothing else: a user may point a cache or checkpoint at a
/// directory that already holds other `.seg` files (worker exports,
/// archived segments), and a cleanup must never destroy something it
/// did not write.
pub(crate) fn remove_unlisted(dir: &Path, listed: &[(Role, String)]) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if segment_index(name).is_some() && !listed.iter().any(|(_, s)| s == name) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// Asserts that `manifest` round-trips, and that no single-byte
/// corruption or truncation of its bytes parses back to it.
#[cfg(test)]
pub(crate) fn assert_sealed(manifest: &Manifest) {
    let bytes = manifest.to_bytes();
    assert_eq!(Manifest::parse(&bytes).as_ref(), Some(manifest));

    // Any single-byte corruption must fail the CRC (or the shape
    // checks) — never parse to a different manifest.
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0x20;
        assert_ne!(
            Manifest::parse(&bad).as_ref(),
            Some(manifest),
            "flip at byte {i} must not parse identically"
        );
    }
    // Truncations never parse.
    for cut in 0..bytes.len() {
        assert_eq!(Manifest::parse(&bytes[..cut]), None, "cut at {cut}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `body` behind the magic, sealed with its CRC: bytes that reach the
    /// shape checks.
    fn sealed(body: &[u8]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(body);
        bytes.extend_from_slice(&crc32(&bytes).to_le_bytes());
        bytes
    }

    /// This version, then a zero fingerprint, strength and floor: the
    /// body up to the segment count.
    fn zeroed_head() -> Vec<u8> {
        let mut body = Vec::new();
        CACHE_FORMAT_VERSION.encode(&mut body);
        0u64.encode(&mut body);
        body.push(0);
        0u64.encode(&mut body);
        body
    }

    fn arb_manifest() -> impl Strategy<Value = Manifest> {
        // Flat names from a small alphabet; `..` is not one.
        let name = prop::collection::vec(0usize..4, 1..=12).prop_map(|chars| {
            chars
                .iter()
                .map(|&c| b".a0-"[c] as char)
                .collect::<String>()
        });
        let segment = (any::<bool>(), name).prop_map(|(resume, name)| {
            let role = if resume { Role::Resume } else { Role::Seed };
            (role, name)
        });
        let segments = prop::collection::vec(segment, 0..=4).prop_map(|segments| {
            segments
                .into_iter()
                .filter(|(_, name)| name != "..")
                .collect()
        });
        (any::<u64>(), any::<u8>(), any::<u64>(), segments).prop_map(
            |(fingerprint, strength, floor, segments)| Manifest {
                fingerprint,
                strength,
                floor,
                segments,
            },
        )
    }

    /// What the fuzz below hands [`Manifest::parse`].
    fn hostile_bytes() -> impl Strategy<Value = Vec<u8>> {
        let bytes = || prop::collection::vec(any::<u8>(), 0..=96);
        prop_oneof![
            // Anything at all.
            bytes(),
            // The magic, then anything: the CRC refuses nearly all.
            bytes().prop_map(|rest| [&MAGIC[..], &rest].concat()),
            // A sealed body of anything: the shape checks see arbitrary
            // versions, counts and name lengths.
            bytes().prop_map(|body| sealed(&body)),
            // This version and a segment count, then anything, sealed.
            (any::<u32>(), bytes()).prop_map(|(count, rest)| {
                let mut body = zeroed_head();
                count.encode(&mut body);
                body.extend_from_slice(&rest);
                sealed(&body)
            }),
            // A real manifest with one byte flipped, or cut there (mask
            // 0), resealed or not.
            (arb_manifest(), any::<usize>(), any::<u8>(), any::<bool>()).prop_map(
                |(manifest, at, mask, reseal)| {
                    let mut bytes = manifest.to_bytes();
                    let at = at % bytes.len();
                    match mask {
                        0 => bytes.truncate(at),
                        _ => bytes[at] ^= mask,
                    }
                    if reseal && bytes.len() > MAGIC.len() + 4 {
                        let body = &bytes[MAGIC.len()..bytes.len() - 4];
                        bytes = sealed(body);
                    }
                    bytes
                },
            ),
        ]
    }

    proptest! {
        /// Over any bytes the parser refuses or yields a manifest whose
        /// own encoding is exactly those bytes (so it round-trips), and
        /// never panics.
        #[test]
        fn any_bytes_are_refused_or_a_manifest_that_round_trips(bytes in hostile_bytes()) {
            if let Some(manifest) = Manifest::parse(&bytes) {
                prop_assert_eq!(Manifest::parse(&manifest.to_bytes()), Some(manifest.clone()));
                prop_assert_eq!(manifest.to_bytes(), bytes);
            }
        }

        #[test]
        fn generated_manifests_round_trip(manifest in arb_manifest()) {
            prop_assert_eq!(Manifest::parse(&manifest.to_bytes()), Some(manifest));
        }
    }

    /// The CRC sealing `manifest`, read off its trailer.
    fn trailer(manifest: &Manifest) -> u32 {
        let bytes = manifest.to_bytes();
        u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"))
    }

    /// An empty manifest sealed by CRC `target`, solved for rather than
    /// searched: from 2^63 up a fingerprint's varint is ten bytes whose
    /// free bits are the fingerprint's low 63, and over bodies of one
    /// length a CRC is affine in their bits, so the fingerprint bits
    /// that move the CRC by `trailer(base) ^ target` solve a GF(2)
    /// system.
    fn manifest_sealed_by(target: u32) -> Manifest {
        let base = 1u64 << 63;
        let crc = |fingerprint: u64| trailer(&Manifest::empty(fingerprint, 0));
        // `basis[b]`: a CRC difference whose highest set bit is `b`, and
        // the fingerprint bits that make it.
        let mut basis = [(0u32, 0u64); 32];
        let reduce = |basis: &[(u32, u64); 32], (mut diff, mut bits): (u32, u64)| {
            for b in (0..32).rev() {
                if diff >> b & 1 == 1 && basis[b].0 != 0 {
                    (diff, bits) = (diff ^ basis[b].0, bits ^ basis[b].1);
                }
            }
            (diff, bits)
        };
        for k in 0..63 {
            let (diff, bits) = reduce(&basis, (crc(base | 1 << k) ^ crc(base), 1 << k));
            if diff != 0 {
                basis[31 - diff.leading_zeros() as usize] = (diff, bits);
            }
        }
        let (left, bits) = reduce(&basis, (crc(base) ^ target, 0));
        assert_eq!(left, 0, "the fingerprint bits reach every CRC");
        Manifest::empty(base | bits, 0)
    }

    /// The CRC trailer is four bytes whatever its value: a CRC below 128,
    /// which a varint would spell in one byte, still seals a manifest
    /// that round-trips, and no cut of it parses.
    #[test]
    fn a_crc_below_128_keeps_a_four_byte_trailer() {
        for target in [0, 0x42, 0x7F] {
            let manifest = manifest_sealed_by(target);
            assert_eq!(trailer(&manifest), target);
            let bytes = manifest.to_bytes();
            assert_eq!(bytes[bytes.len() - 4..], target.to_le_bytes());
            assert_sealed(&manifest);
        }
    }

    /// A sealed manifest claiming `u32::MAX` segments, or one name of
    /// `u32::MAX` bytes, is refused by its length.  A parser that reserved
    /// by the count would ask for 128 GiB here and abort the run.
    #[test]
    fn a_claimed_count_is_never_reserved() {
        let body = zeroed_head();
        let mut huge_count = body.clone();
        u32::MAX.encode(&mut huge_count);
        huge_count.push(Role::Seed as u8);
        assert_eq!(Manifest::parse(&sealed(&huge_count)), None);
        let mut huge_name = body;
        1u32.encode(&mut huge_name);
        huge_name.push(Role::Seed as u8);
        u32::MAX.encode(&mut huge_name);
        huge_name.extend_from_slice(b"seg");
        assert_eq!(Manifest::parse(&sealed(&huge_name)), None);
    }
}
