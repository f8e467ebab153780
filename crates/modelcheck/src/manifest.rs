//! What the manifests of [`crate::cache`] and [`crate::checkpoint`] have
//! in common: the envelope they are sealed in — magic, version, body,
//! CRC32 trailer, written to a temporary name and renamed into place —
//! and the two hygiene rules both directories keep: a manifest names only
//! flat files of its own directory, and a cleanup removes only files that
//! follow its owner's naming.

use std::path::Path;

use twostep_model::codec::take;

use crate::spill::{crc32, SpillCodec, SpillError};

/// One kind of manifest file.
pub(crate) struct Envelope {
    /// The manifest's file name inside its directory.
    pub(crate) file_name: &'static str,
    /// First 8 bytes of the file.
    pub(crate) magic: [u8; 8],
    /// Format version of the body.
    pub(crate) version: u32,
}

impl Envelope {
    /// Seals the body `write_body` appends: magic and version before it,
    /// the CRC32 of all three after.
    pub(crate) fn seal(&self, write_body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = self.magic.to_vec();
        self.version.encode(&mut out);
        write_body(&mut out);
        crc32(&out).encode(&mut out);
        out
    }

    /// The body of a sealed manifest; `None` under another magic or
    /// version, or a CRC that does not match.
    pub(crate) fn open<'b>(&self, bytes: &'b [u8]) -> Option<&'b [u8]> {
        if bytes.len() < 8 + 4 + 4 || bytes[..8] != self.magic {
            return None;
        }
        let (sealed, mut crc) = bytes.split_at(bytes.len() - 4);
        if u32::decode(&mut crc)? != crc32(sealed) {
            return None;
        }
        let mut body = &sealed[8..];
        (u32::decode(&mut body)? == self.version).then_some(body)
    }

    /// Atomically (write-then-rename) puts `sealed` into `dir`.
    pub(crate) fn write(&self, dir: &Path, sealed: &[u8]) -> Result<(), SpillError> {
        let tmp = dir.join(format!("{}.tmp-{}", self.file_name, std::process::id()));
        crate::faults::shim_fs_write(&tmp, sealed)
            .map_err(|e| SpillError::io(&format!("writing manifest {}", tmp.display()), e))?;
        std::fs::rename(&tmp, dir.join(self.file_name))
            .map_err(|e| SpillError::io("renaming manifest into place", e))
    }
}

/// Appends a segment's file name to a manifest body.
pub(crate) fn put_name(name: &str, out: &mut Vec<u8>) {
    (name.len() as u32).encode(out);
    out.extend_from_slice(name.as_bytes());
}

/// Reads a segment's file name back.  Segment names are flat file names
/// inside the manifest's directory; a name that escapes it is not
/// something we ever wrote.
pub(crate) fn take_name(input: &mut &[u8]) -> Option<String> {
    let len = u32::decode(input)? as usize;
    let name = std::str::from_utf8(take(input, len)?).ok()?;
    (!name.is_empty() && !name.contains(['/', '\\']) && name != "..").then(|| name.to_string())
}

/// What stands between `<prefix><16 hex fingerprint>` and `.seg` in a
/// segment file name of that shape.
pub(crate) fn segment_suffix<'n>(name: &'n str, prefix: &str) -> Option<&'n str> {
    let stem = name.strip_prefix(prefix)?.strip_suffix(".seg")?;
    let (fingerprint, suffix) = stem.split_at_checked(16)?;
    let hex = fingerprint.chars().all(|c| c.is_ascii_hexdigit());
    hex.then_some(suffix)
}

/// Removes the files of `dir` whose names `ours` recognizes, and nothing
/// else: a user may point a cache or checkpoint at a directory that
/// already holds other `.seg` files (worker exports, archived segments),
/// and a cleanup must never destroy something its owner didn't write.
pub(crate) fn remove_own_files(dir: &Path, ours: impl Fn(&str) -> bool) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        if entry.file_name().to_str().is_some_and(&ours) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}
