//! Binary encoding, checksummed segment files, and the portable
//! interchange format for memo entries — the cold tier of the explorer's
//! two-tier memo and the wire format of its distributed engine.
//!
//! The hot tier of [`crate::memo`] keeps recently used summaries as live
//! `Arc<Summary>` values; everything evicted from it lands here, as a
//! compact, self-delimiting binary record inside an append-only **segment
//! file**.  The same record format doubles as the **interchange format**
//! of distributed exploration ([`crate::dist`]): a worker process exports
//! its entire memo — keys *and* summaries — as one segment file, and the
//! coordinator imports those files to pre-seed the memo of its final
//! canonical walk.  Pieces:
//!
//! * [`SpillCodec`] — the byte encoding of protocol state and decision
//!   values (re-exported from [`twostep_model::codec`], where the impls
//!   for the primitive building blocks live; protocol crates implement it
//!   for their process-state types).
//! * [`encode_summary`] / [`decode_summary`] — the summary payload:
//!   terminal count, round census (`worst_round_by_f`), valency set,
//!   violation flag, every count and round a varint, one byte below 128
//!   (a CRW (8,7) summary averages 15.4 bytes).  Encoding then decoding
//!   is the identity (round-trip tested here and property-tested in
//!   `tests/spill_roundtrip.rs`).
//! * **Segment files** — a 24-byte header (8-byte magic, `u32` format
//!   version, `u64` record count, flags byte, three reserved bytes)
//!   followed by `[u32 len][u32 crc32][payload]` records.  The header and
//!   the record frame are fixed-width little-endian, because readers find
//!   their fields by position; the payload is a memo entry (varints
//!   inside) or a frontier record (fixed-width, see `encode_frontier_record`).
//!   Every record is covered by an IEEE CRC32 of its stored bytes, so a
//!   truncated write, a flipped bit, or a file produced by something else
//!   entirely is detected *before* its bytes are interpreted — a
//!   requirement once files travel between processes.  Every segment —
//!   run-private spill segment or **interchange** file (an export, a
//!   seed or resume segment of a cache directory) — stores each record
//!   as it was written: what a reader checks the CRC of is what it
//!   lends.  Three access paths:
//!   `SegmentStore` (one memo shard's append-only spill storage,
//!   random-access by `SpillRef`, rotated every `SEGMENT_BYTES`; it
//!   moves bytes in blocks, not records — appends gather in a
//!   write-behind tail, reads go through a few cached blocks of the
//!   file, and a scan walks the segments front to back),
//!   `SegmentWriter` (builds one interchange file, patching the true
//!   record count into the header on `finish` so an unfinished file is
//!   distinguishable from a complete one), and `SegmentReader`
//!   (sequential scan of an interchange file, validating header, CRCs,
//!   and record count).  Both readers check each record against its
//!   length prefix and CRC, then lend it out of the buffer they checked.
//!
//! Spill segment files live in a `SpillDir`: a unique per-exploration
//! subdirectory of either a caller-chosen root or the system temp dir,
//! removed recursively when the exploration's memo is dropped.
//!
//! Failures are classified by [`SpillError`]: [`SpillError::Io`] for
//! operating-system failures, [`SpillError::Foreign`] for files that are
//! not segment files this build can read (bad magic, unsupported
//! version, header cut short), and [`SpillError::Corrupt`] for segment
//! files damaged after the header (CRC mismatch, truncated record —
//! under a reader or behind a live store alike — record-count mismatch,
//! undecodable payload).

use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

pub use twostep_model::codec::SpillCodec;

use crate::explorer::Summary;

/// Bytes after which a shard rotates to a fresh segment file.
pub(crate) const SEGMENT_BYTES: u64 = 64 * 1024 * 1024;

// Every record starts below `SEGMENT_BYTES`, so its offset fits the
// `u32` a `SpillRef` keeps.
const _: () = assert!(SEGMENT_BYTES <= u32::MAX as u64);

/// First 8 bytes of every segment file.
pub(crate) const MAGIC: [u8; 8] = *b"TWOSPILL";

/// Format version; bumped whenever the header or record layout changes.
/// Version 6 records are `[varint key_len][canonical key bytes][summary]`
/// — the explorer's canonical key encodings (hashed with
/// [`twostep_model::codec::stable_hash64`], never re-encoded on spill or
/// export) followed by the summary — stored as written, with the CRC
/// taken over exactly the bytes a reader lends.  Every integer inside a
/// record, in the key and the summary alike, is [`SpillCodec`]'s minimal
/// LEB128 varint; version 5 wrote them fixed-width.  A file of any
/// earlier version is a different format: readers classify it as
/// [`SpillError::Foreign`] at the header, before any record is read, and
/// cache consumers loudly replace it.
pub(crate) const FORMAT_VERSION: u32 = 6;

/// Header flag bit: the segment holds *frontier records* — action-index
/// paths from the initial configuration — rather than memo entries.  The
/// two record kinds share the framing, CRC, and sealing discipline but
/// are never interchangeable: a memo import reading a frontier file (or
/// vice versa) is rejected at [`SegmentReader::open`] /
/// [`SegmentReader::open_frontier`], before any payload is decoded.
pub(crate) const FLAG_FRONTIER: u8 = 2;

/// Every flag bit this build understands; anything else is a future
/// format and classified as [`SpillError::Foreign`].
const KNOWN_FLAGS: u8 = FLAG_FRONTIER;

/// Header record-count sentinel for streaming (never-finished) segment
/// files — the in-exploration spill segments, which are only ever read
/// back through their in-memory [`SpillRef`] index.
pub(crate) const STREAMING_COUNT: u64 = u64::MAX;

/// Header layout: magic (8) + version (4) + record count (8) + reserved
/// (4).
pub(crate) const HEADER_LEN: u64 = 24;

/// Byte offset of the record-count field inside the header.
const COUNT_OFFSET: u64 = 12;

/// An error from the spill / interchange tier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpillError {
    /// An operating-system I/O operation failed (directory creation,
    /// segment read/write, …).
    Io {
        /// What failed, human-readable.
        detail: String,
    },
    /// A segment file is damaged past its header: a record failed its
    /// CRC, was truncated, failed to decode, or the file holds a
    /// different number of records than its header promises.
    Corrupt {
        /// What failed, human-readable.
        detail: String,
    },
    /// A file is not a segment file this build can read: wrong magic,
    /// unsupported format version, or too short to hold a header.
    Foreign {
        /// What failed, human-readable.
        detail: String,
    },
}

impl SpillError {
    pub(crate) fn io(context: &str, e: std::io::Error) -> Self {
        SpillError::Io {
            detail: format!("{context}: {e}"),
        }
    }

    pub(crate) fn corrupt(detail: impl Into<String>) -> Self {
        SpillError::Corrupt {
            detail: detail.into(),
        }
    }

    pub(crate) fn foreign(detail: impl Into<String>) -> Self {
        SpillError::Foreign {
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillError::Io { detail } => write!(f, "spill I/O failure: {detail}"),
            SpillError::Corrupt { detail } => write!(f, "corrupt segment file: {detail}"),
            SpillError::Foreign { detail } => write!(f, "foreign segment file: {detail}"),
        }
    }
}

impl std::error::Error for SpillError {}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3), slicing-by-8, no dependencies
// ---------------------------------------------------------------------------

/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k][b]`
/// is the CRC of byte `b` followed by `k` zero bytes, which lets
/// [`crc32`] fold eight input bytes per step with eight independent
/// lookups instead of eight dependent ones.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let shorter = tables[t - 1][i];
            tables[t][i] = tables[0][(shorter & 0xFF) as usize] ^ (shorter >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// IEEE CRC32 of `bytes` — the per-record checksum of segment files.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes(chunk[..4].try_into().expect("4 bytes"));
        let hi = u32::from_le_bytes(chunk[4..].try_into().expect("4 bytes"));
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][(lo >> 8 & 0xFF) as usize]
            ^ CRC_TABLES[5][(lo >> 16 & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][(hi >> 8 & 0xFF) as usize]
            ^ CRC_TABLES[1][(hi >> 16 & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Summary records
// ---------------------------------------------------------------------------

/// Appends the compact binary record for a [`Summary`] to `out`.
pub fn encode_summary<O: SpillCodec>(summary: &Summary<O>, out: &mut Vec<u8>) {
    summary.terminals.encode(out);
    summary.worst_round_by_f.encode(out);
    summary.decided.encode(out);
    summary.violating.encode(out);
}

/// Decodes a [`Summary`] record produced by [`encode_summary`]; `None` if
/// the bytes are truncated, malformed, or carry trailing garbage.
pub fn decode_summary<O: SpillCodec>(mut input: &[u8]) -> Option<Summary<O>> {
    let input = &mut input;
    let summary = Summary {
        terminals: u64::decode(input)?,
        worst_round_by_f: Vec::<Option<u32>>::decode(input)?,
        decided: Vec::<O>::decode(input)?,
        violating: bool::decode(input)?,
    };
    input.is_empty().then_some(summary)
}

// ---------------------------------------------------------------------------
// Spill directory lifecycle
// ---------------------------------------------------------------------------

static SPILL_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique, owned directory holding one exploration's segment files,
/// removed recursively on drop.
///
/// Created as a fresh `twostep-spill-<pid>-<seq>` subdirectory of the
/// caller's root (or the system temp dir), so concurrent explorations —
/// even ones sharing a `spill_dir` root — never collide, and the root
/// itself is never deleted.
pub(crate) struct SpillDir {
    path: PathBuf,
}

impl SpillDir {
    /// Creates the unique spill directory under `root` (system temp dir
    /// when `None`).
    pub(crate) fn create(root: Option<&Path>) -> Result<SpillDir, SpillError> {
        let root = root.map_or_else(std::env::temp_dir, Path::to_path_buf);
        let path = root.join(format!(
            "twostep-spill-{}-{}",
            std::process::id(),
            SPILL_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)
            .map_err(|e| SpillError::io(&format!("creating spill dir {}", path.display()), e))?;
        Ok(SpillDir { path })
    }

    /// The directory's path.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

// ---------------------------------------------------------------------------
// Header helpers
// ---------------------------------------------------------------------------

fn header_bytes(record_count: u64, flags: u8) -> [u8; HEADER_LEN as usize] {
    let mut h = [0u8; HEADER_LEN as usize];
    h[..8].copy_from_slice(&MAGIC);
    h[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h[12..20].copy_from_slice(&record_count.to_le_bytes());
    h[20] = flags;
    h
}

/// Writes one `[u32 len][u32 crc][payload]` framed record — the single
/// definition of the record layout, shared by the in-exploration spill
/// store and the interchange export writer so the two can never
/// silently diverge within one `FORMAT_VERSION`.
fn write_framed_record(w: &mut impl Write, payload: &[u8]) -> Result<(), SpillError> {
    if let Some(tap) = crate::faults::tap_write() {
        if tap == crate::faults::IoTap::Torn {
            // A torn write leaves the frame header and a partial payload
            // behind — exactly what a crash mid-write produces.
            let _ = w.write_all(&(payload.len() as u32).to_le_bytes());
            let _ = w.write_all(&crc32(payload).to_le_bytes());
            let _ = w.write_all(&payload[..payload.len() / 2]);
            let _ = w.flush();
        }
        return Err(SpillError::io(
            "writing record",
            crate::faults::injected_io_error(tap),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())
        .map_err(|e| SpillError::io("writing record length", e))?;
    w.write_all(&crc32(payload).to_le_bytes())
        .map_err(|e| SpillError::io("writing record checksum", e))?;
    w.write_all(payload)
        .map_err(|e| SpillError::io("writing record payload", e))
}

/// Validates a header and returns its record count (`STREAMING_COUNT`
/// for never-finished streaming segments) plus its flag byte.
fn parse_header(h: &[u8], path: &Path) -> Result<(u64, u8), SpillError> {
    if h.len() < HEADER_LEN as usize {
        return Err(SpillError::foreign(format!(
            "{}: {} bytes is too short for a segment header",
            path.display(),
            h.len()
        )));
    }
    if h[..8] != MAGIC {
        return Err(SpillError::foreign(format!(
            "{}: bad magic (not a twostep segment file)",
            path.display()
        )));
    }
    let version = u32::from_le_bytes(h[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(SpillError::foreign(format!(
            "{}: format version {version}, this build reads {FORMAT_VERSION}",
            path.display()
        )));
    }
    let flags = h[20];
    if flags & !KNOWN_FLAGS != 0 {
        return Err(SpillError::foreign(format!(
            "{}: unknown header flags {flags:#04x}",
            path.display()
        )));
    }
    let count = u64::from_le_bytes(h[12..20].try_into().expect("8 bytes"));
    Ok((count, flags))
}

// ---------------------------------------------------------------------------
// Segment store (in-exploration spill tier)
// ---------------------------------------------------------------------------

/// Address of one spilled record: which segment file of the owning shard,
/// the byte offset of its length prefix, and the payload length — 12
/// bytes, since the memo keeps one per spilled state.  The offset fits a
/// `u32` because a record always *starts* below [`SEGMENT_BYTES`]:
/// [`SegmentStore::append`] opens a new segment once the write position
/// reaches it.  Ordered as the records lie in the store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct SpillRef {
    pub(crate) segment: u32,
    pub(crate) offset: u32,
    pub(crate) len: u32,
}

/// Framed bytes a store gathers in memory before writing them to the
/// last segment in one piece.  Tail and block sizes come from a sweep
/// (CHANGES.md, PR 19) whose timings could not tell 4 KiB blocks from
/// 64 KiB ones: these are the smallest that keep an (8,7) walk at 2 % hot
/// under 6 000 segment reads and 250 writes — a 64-shard memo holds a
/// tail and up to [`CACHED_BLOCKS`] blocks per shard.
const TAIL_BYTES: usize = 16 * 1024;

/// Size of one cached block of a segment file.
const BLOCK_BYTES: usize = 16 * 1024;

/// Blocks a store caches, the least recently used replaced first.
const CACHED_BLOCKS: usize = 4;

/// One segment file of a store and how many of its bytes have been
/// written (the store's own count: nothing else appends to the file).
struct Segment {
    file: File,
    len: u64,
}

/// A cached, block-aligned stretch of one segment file.
struct Block {
    segment: u32,
    /// File offset of `bytes[0]`, a multiple of the block size.
    start: u64,
    /// Valid bytes: short of the block size when the segment ended
    /// inside the block at the time it was read.
    len: usize,
    /// [`SegmentStore::clock`] at the last use (LRU order).
    used: u64,
    bytes: Box<[u8]>,
}

/// One shard's append-only spill storage: checksummed records in a chain
/// of segment files (`shard<S>-seg<K>.spill`), rotated every
/// [`SEGMENT_BYTES`].  All access is serialized by the owning shard's
/// lock.  Bytes move between memory and the files in blocks, not
/// records:
///
/// * **Write-behind tail.**  [`append`](Self::append) frames a record
///   into an in-memory tail of the last segment; the tail reaches the
///   file in one seek + one write when the next record would take it
///   past [`TAIL_BYTES`], before the store rotates to a new segment and
///   before a [`scan`](Self::scan).  A [`SpillRef`] past the segment's
///   written length is read from the tail.  An I/O error at a flush
///   surfaces from the `append` or `scan` that triggered it and — like
///   every spill error — ends the exploration; the tail keeps its bytes,
///   so the store stays consistent for whoever still holds it.  Dropping
///   the store discards the tail: spill segments are private to the run
///   and deleted with its [`SpillDir`], nothing ever re-opens them.
/// * **Block-cached reads.**  [`read`](Self::read) finds a written
///   record in one of [`CACHED_BLOCKS`] cached [`BLOCK_BYTES`] blocks
///   (one seek + one read on a miss; a block cached while the segment
///   was shorter is re-read when a record runs past its valid length),
///   or, when the record straddles a block boundary, reads exactly its
///   frame.  Siblings are evicted next to each other and probed in row
///   order, so most rehydrates land in a cached block.
/// * **File-order scans.**  [`scan`](Self::scan) walks every segment
///   front to back through the same block reads — frames are
///   self-delimiting after the header.
///
/// Records are stored as they were appended.  Every read, whichever way
/// its bytes came, checks the length prefix against the [`SpillRef`] and
/// the CRC against the stored bytes, then lends the payload out of the
/// frame it checked; a segment that ends inside a record (truncated
/// behind the store) is [`SpillError::Corrupt`], like a truncated export
/// under [`SegmentReader`].  What the payload *means* is the caller's to
/// check.  Tail and blocks are allocated on first use: a shard that
/// never spills, or never rehydrates, pays nothing.
pub(crate) struct SegmentStore {
    dir: PathBuf,
    shard: usize,
    tail_bytes: usize,
    block_bytes: usize,
    segment_bytes: u64,
    segments: Vec<Segment>,
    /// Whole frames (and a new segment's header) appended to the last
    /// segment but not yet written: file bytes `[len, len + tail.len())`.
    tail: Vec<u8>,
    blocks: Vec<Block>,
    /// Counts block uses; stamps [`Block::used`].
    clock: u64,
    /// The frame `fetch` last made addressable; `read` lends its
    /// payload.
    frame: Vec<u8>,
}

impl SegmentStore {
    /// An empty store writing `shard<shard>-seg*.spill` under `dir`.
    /// Segment files are created lazily on first append.
    pub(crate) fn new(dir: &Path, shard: usize) -> Self {
        Self::with_sizes(dir, shard, TAIL_BYTES, BLOCK_BYTES, SEGMENT_BYTES)
    }

    /// [`Self::new`] with explicit sizes — tests shrink them to a few
    /// hundred bytes so rotation and every block edge are exercised.
    fn with_sizes(
        dir: &Path,
        shard: usize,
        tail_bytes: usize,
        block_bytes: usize,
        segment_bytes: u64,
    ) -> Self {
        assert!(
            segment_bytes <= SEGMENT_BYTES,
            "record offsets must fit a u32"
        );
        SegmentStore {
            dir: dir.to_path_buf(),
            shard,
            tail_bytes,
            block_bytes,
            segment_bytes,
            segments: Vec::new(),
            tail: Vec::new(),
            blocks: Vec::new(),
            clock: 0,
            frame: Vec::new(),
        }
    }

    /// Writes the tail to the last segment: one seek (reads share the
    /// handle's cursor), one write.
    fn flush(&mut self) -> Result<(), SpillError> {
        if self.tail.is_empty() {
            return Ok(());
        }
        let last = self
            .segments
            .last_mut()
            .expect("a non-empty tail belongs to an open segment");
        last.file
            .seek(SeekFrom::Start(last.len))
            .map_err(|e| SpillError::io("seeking segment tail", e))?;
        last.file
            .write_all(&self.tail)
            .map_err(|e| SpillError::io("writing segment tail", e))?;
        last.len += self.tail.len() as u64;
        self.tail.clear();
        Ok(())
    }

    fn open_segment(&mut self) -> Result<(), SpillError> {
        self.flush()?;
        let path = self.dir.join(format!(
            "shard{}-seg{}.spill",
            self.shard,
            self.segments.len()
        ));
        let file = OpenOptions::new()
            .create_new(true)
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| SpillError::io(&format!("creating segment {}", path.display()), e))?;
        self.segments.push(Segment { file, len: 0 });
        // Streaming segments never learn their final record count.  The
        // header travels with the first flush.
        self.tail.reserve_exact(self.tail_bytes);
        self.tail
            .extend_from_slice(&header_bytes(STREAMING_COUNT, 0));
        Ok(())
    }

    /// Appends one `[u32 len][u32 crc][payload]` record, the payload as
    /// given, returning its address.
    pub(crate) fn append(&mut self, payload: &[u8]) -> Result<SpillRef, SpillError> {
        let position = self.segments.last().map_or(0, |last| last.len) + self.tail.len() as u64;
        if self.segments.is_empty() || position >= self.segment_bytes {
            self.open_segment()?;
        } else if self.tail.len() + 8 + payload.len() > self.tail_bytes {
            self.flush()?;
        }
        let segment = self.segments.len() - 1;
        let at = self.tail.len();
        if let Err(e) = write_framed_record(&mut self.tail, payload) {
            // A torn frame must not stay: refs and scans assume the tail
            // holds whole frames.
            self.tail.truncate(at);
            return Err(e);
        }
        Ok(SpillRef {
            segment: segment as u32,
            // Below `segment_bytes`: the record starts at `position`, or
            // past a fresh segment's header.
            offset: (self.segments[segment].len + at as u64) as u32,
            len: payload.len() as u32,
        })
    }

    /// Copies bytes `[offset, offset + n)` of `segment` into
    /// `self.frame`: from the tail, from a cached block (read first on a
    /// miss), or — across a block boundary — straight from the file.
    fn fetch(&mut self, segment: u32, offset: u64, n: usize) -> Result<(), SpillError> {
        let cut_short = || {
            SpillError::corrupt(format!(
                "segment {segment} ends inside the record at offset {offset}"
            ))
        };
        let is_last = segment as usize + 1 == self.segments.len();
        let seg = self
            .segments
            .get_mut(segment as usize)
            .ok_or_else(|| SpillError::corrupt(format!("segment {segment} does not exist")))?;
        let end = offset + n as u64;
        self.frame.clear();
        if end > seg.len {
            // Only the last segment's tail holds bytes its file does
            // not, and no frame spans the two.
            if !is_last || offset < seg.len {
                return Err(cut_short());
            }
            let (at, to) = ((offset - seg.len) as usize, (end - seg.len) as usize);
            let bytes = self.tail.get(at..to).ok_or_else(cut_short)?;
            self.frame.extend_from_slice(bytes);
            return Ok(());
        }
        let block_bytes = self.block_bytes as u64;
        let start = offset - offset % block_bytes;
        if end > start + block_bytes {
            self.frame.resize(n, 0);
            if read_at(&mut seg.file, offset, &mut self.frame)? < n {
                return Err(cut_short());
            }
            return Ok(());
        }
        let cached = (self.blocks.iter()).position(|b| b.segment == segment && b.start == start);
        let slot = match cached {
            Some(slot) => slot,
            None => {
                if self.blocks.len() < CACHED_BLOCKS {
                    self.blocks.push(Block {
                        segment,
                        start,
                        len: 0,
                        used: 0,
                        bytes: vec![0; self.block_bytes].into_boxed_slice(),
                    });
                }
                // A block just pushed was never used: it is the minimum.
                let (slot, block) = (self.blocks.iter_mut().enumerate())
                    .min_by_key(|(_, b)| b.used)
                    .expect("the cache holds at least one block");
                (block.segment, block.start, block.len) = (segment, start, 0);
                slot
            }
        };
        let block = &mut self.blocks[slot];
        self.clock += 1;
        block.used = self.clock;
        let (at, needed) = ((offset - start) as usize, (end - start) as usize);
        if block.len < needed {
            // Never read, or read while the segment was shorter.
            let want = (seg.len - start).min(block_bytes) as usize;
            block.len = 0; // a failed read leaves no byte of it valid
            block.len = read_at(&mut seg.file, start, &mut block.bytes[..want])?;
            if block.len < needed {
                return Err(cut_short());
            }
        }
        self.frame.extend_from_slice(&block.bytes[at..needed]);
        Ok(())
    }

    /// Lends the payload of the record at `r` — valid until the next
    /// call on the store — having verified its length prefix and its
    /// CRC.
    pub(crate) fn read(&mut self, r: &SpillRef) -> Result<&[u8], SpillError> {
        self.fetch(r.segment, u64::from(r.offset), 8 + r.len as usize)?;
        let (prefix, stored) = self.frame.split_at(8);
        let stored_len = u32::from_le_bytes(prefix[..4].try_into().expect("4 bytes"));
        let stored_crc = u32::from_le_bytes(prefix[4..].try_into().expect("4 bytes"));
        if stored_len != r.len {
            return Err(SpillError::corrupt(format!(
                "record length mismatch at segment {} offset {}: stored {stored_len}, expected {}",
                r.segment, r.offset, r.len
            )));
        }
        if crc32(stored) != stored_crc {
            return Err(SpillError::corrupt(format!(
                "CRC mismatch at segment {} offset {}",
                r.segment, r.offset
            )));
        }
        Ok(stored)
    }

    /// Visits every record in `(segment, offset)` order — the order they
    /// were appended in — with the [`SpillRef`] `append` returned for it,
    /// verified as by [`read`](Self::read), until `visit` returns `false`.
    pub(crate) fn scan(
        &mut self,
        mut visit: impl FnMut(SpillRef, &[u8]) -> Result<bool, SpillError>,
    ) -> Result<(), SpillError> {
        self.flush()?;
        for segment in 0..self.segments.len() {
            let (segment, end) = (segment as u32, self.segments[segment].len);
            let mut offset = HEADER_LEN;
            while offset < end {
                // The length prefix is not checksummed: bound it by what
                // the segment holds before the payload is touched.
                self.fetch(segment, offset, 4)?;
                let len = u32::from_le_bytes(self.frame[..].try_into().expect("4 bytes"));
                let left = end - offset;
                if 8 + u64::from(len) > left {
                    return Err(SpillError::corrupt(format!(
                        "segment {segment}: the record at offset {offset} claims {len} bytes \
                         but only {left} remain in the segment"
                    )));
                }
                // No record starts at or past the rotation point (which
                // is also what keeps its offset a `u32`): one that would
                // follows a length prefix gone wrong.
                if offset >= self.segment_bytes {
                    return Err(SpillError::corrupt(format!(
                        "segment {segment}: a record starts at offset {offset}, \
                         past the rotation point"
                    )));
                }
                let r = SpillRef {
                    segment,
                    offset: offset as u32,
                    len,
                };
                if !visit(r, self.read(&r)?)? {
                    return Ok(());
                }
                offset += 8 + len as u64;
            }
        }
        Ok(())
    }
}

/// Reads `file` from `offset` until `buf` is full or the file ends —
/// one seek and, short reads aside, one read; returns the bytes read.
fn read_at(file: &mut File, offset: u64, buf: &mut [u8]) -> Result<usize, SpillError> {
    file.seek(SeekFrom::Start(offset))
        .map_err(|e| SpillError::io("seeking segment", e))?;
    let mut filled = 0;
    while filled < buf.len() {
        match file.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(SpillError::io("reading segment", e)),
        }
    }
    Ok(filled)
}

// ---------------------------------------------------------------------------
// Interchange files (export / import)
// ---------------------------------------------------------------------------

/// Writes one interchange segment file: header, records, then a
/// [`finish`](Self::finish) that patches the true record count into the
/// header.  A file missing that patch (worker died mid-export) is
/// rejected by [`SegmentReader::open`] as corrupt.
///
/// Creation truncates an existing file, so a retried worker simply
/// overwrites the remains of its crashed predecessor.
pub(crate) struct SegmentWriter {
    /// Buffered: an export appends thousands of small framed records,
    /// and three tiny `write` syscalls per record were measurable in the
    /// partitioned engine's `worker_export` phase.  The buffer is
    /// flushed (and the handle recovered) before the header patch seeks.
    file: std::io::BufWriter<File>,
    path: PathBuf,
    records: u64,
}

impl SegmentWriter {
    /// A memo segment — an export, a seed or resume segment of a cache
    /// directory, or a dist interchange segment.
    pub(crate) fn create(path: &Path) -> Result<Self, SpillError> {
        Self::create_flagged(path, 0)
    }

    /// A frontier segment: records are action-index paths, and the
    /// [`FLAG_FRONTIER`] bit keeps a memo import from ever consuming the
    /// file by accident.
    pub(crate) fn create_frontier(path: &Path) -> Result<Self, SpillError> {
        Self::create_flagged(path, FLAG_FRONTIER)
    }

    fn create_flagged(path: &Path, flags: u8) -> Result<Self, SpillError> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)
            .map_err(|e| SpillError::io(&format!("creating export {}", path.display()), e))?;
        file.write_all(&header_bytes(STREAMING_COUNT, flags))
            .map_err(|e| SpillError::io("writing export header", e))?;
        Ok(SegmentWriter {
            file: std::io::BufWriter::with_capacity(256 * 1024, file),
            path: path.to_path_buf(),
            records: 0,
        })
    }

    pub(crate) fn append(&mut self, payload: &[u8]) -> Result<(), SpillError> {
        write_framed_record(&mut self.file, payload)?;
        self.records += 1;
        Ok(())
    }

    /// Seals the file: flushes the write buffer, patches the record
    /// count into the header, and syncs.  Returns the number of records
    /// written.
    pub(crate) fn finish(self) -> Result<u64, SpillError> {
        let mut file = self
            .file
            .into_inner()
            .map_err(|e| SpillError::io("flushing export buffer", e.into_error()))?;
        file.seek(SeekFrom::Start(COUNT_OFFSET))
            .map_err(|e| SpillError::io("seeking export header", e))?;
        file.write_all(&self.records.to_le_bytes())
            .map_err(|e| SpillError::io("patching export record count", e))?;
        file.sync_all()
            .map_err(|e| SpillError::io(&format!("syncing export {}", self.path.display()), e))?;
        Ok(self.records)
    }
}

/// Sequential reader over one interchange segment file, validating the
/// header on open and every record's CRC on read; at end of file the
/// scanned record count must match the header's.
#[derive(Debug)]
pub(crate) struct SegmentReader {
    reader: BufReader<File>,
    path: PathBuf,
    expected: u64,
    seen: u64,
    /// Bytes left in the file after the current read position — the
    /// upper bound any record length prefix must respect *before* its
    /// payload buffer is allocated (a corrupted prefix must surface as
    /// `Corrupt`, never as a multi-gigabyte allocation).
    remaining: u64,
    /// The current record's stored bytes, which [`Self::next_record`]
    /// lends once their CRC has passed: a scan allocates per file, not
    /// per record, and never more than the file holds.
    stored: Vec<u8>,
}

impl SegmentReader {
    /// Opens and validates the header of a *memo* segment.
    /// [`SpillError::Foreign`] if the file is not a segment file of this
    /// format version or is a frontier segment; [`SpillError::Corrupt`]
    /// if it is an unfinished export (a worker died before sealing it).
    pub(crate) fn open(path: &Path) -> Result<Self, SpillError> {
        let (reader, flags) = Self::open_any(path)?;
        if flags & FLAG_FRONTIER != 0 {
            return Err(SpillError::foreign(format!(
                "{}: frontier segment where a memo segment was expected",
                path.display()
            )));
        }
        Ok(reader)
    }

    /// Opens a *frontier* segment — rejects memo segments with
    /// [`SpillError::Foreign`], the mirror of [`Self::open`]'s guard.
    pub(crate) fn open_frontier(path: &Path) -> Result<Self, SpillError> {
        let (reader, flags) = Self::open_any(path)?;
        if flags & FLAG_FRONTIER == 0 {
            return Err(SpillError::foreign(format!(
                "{}: memo segment where a frontier segment was expected",
                path.display()
            )));
        }
        Ok(reader)
    }

    fn open_any(path: &Path) -> Result<(Self, u8), SpillError> {
        let file = File::open(path)
            .map_err(|e| SpillError::io(&format!("opening segment {}", path.display()), e))?;
        let file_len = file
            .metadata()
            .map_err(|e| SpillError::io("reading segment metadata", e))?
            .len();
        let mut reader = BufReader::new(file);
        let mut header = [0u8; HEADER_LEN as usize];
        let mut filled = 0;
        while filled < header.len() {
            match reader
                .read(&mut header[filled..])
                .map_err(|e| SpillError::io("reading segment header", e))?
            {
                0 => return Err(parse_header(&header[..filled], path).unwrap_err()),
                n => filled += n,
            }
        }
        let (expected, flags) = parse_header(&header, path)?;
        if expected == STREAMING_COUNT {
            return Err(SpillError::corrupt(format!(
                "{}: unfinished export (record count never sealed)",
                path.display()
            )));
        }
        Ok((
            SegmentReader {
                reader,
                path: path.to_path_buf(),
                expected,
                seen: 0,
                remaining: file_len.saturating_sub(HEADER_LEN),
                stored: Vec::new(),
            },
            flags,
        ))
    }

    /// The next record's payload — valid until the next call — or `None`
    /// at a clean end of file.
    pub(crate) fn next_record(&mut self) -> Result<Option<&[u8]>, SpillError> {
        let mut prefix = [0u8; 8];
        let mut filled = 0;
        while filled < prefix.len() {
            match self
                .reader
                .read(&mut prefix[filled..])
                .map_err(|e| SpillError::io("reading record prefix", e))?
            {
                0 if filled == 0 => {
                    if self.seen != self.expected {
                        return Err(SpillError::corrupt(format!(
                            "{}: header promises {} records, file holds {}",
                            self.path.display(),
                            self.expected,
                            self.seen
                        )));
                    }
                    return Ok(None);
                }
                0 => {
                    return Err(SpillError::corrupt(format!(
                        "{}: truncated record prefix",
                        self.path.display()
                    )))
                }
                n => filled += n,
            }
        }
        let len = u32::from_le_bytes(prefix[..4].try_into().expect("4 bytes")) as usize;
        let stored_crc = u32::from_le_bytes(prefix[4..].try_into().expect("4 bytes"));
        self.remaining = self.remaining.saturating_sub(8);
        if len as u64 > self.remaining {
            // The length prefix itself is not checksummed; bound it by
            // the file size so a corrupted prefix cannot demand an
            // absurd allocation before the CRC gets a chance to fail.
            return Err(SpillError::corrupt(format!(
                "{}: record {} claims {len} bytes but only {} remain in the file",
                self.path.display(),
                self.seen,
                self.remaining
            )));
        }
        self.remaining -= len as u64;
        self.stored.resize(len, 0);
        self.reader.read_exact(&mut self.stored).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                SpillError::corrupt(format!("{}: truncated record payload", self.path.display()))
            } else {
                SpillError::io("reading record payload", e)
            }
        })?;
        if crc32(&self.stored) != stored_crc {
            return Err(SpillError::corrupt(format!(
                "{}: CRC mismatch in record {}",
                self.path.display(),
                self.seen
            )));
        }
        self.seen += 1;
        Ok(Some(&self.stored))
    }

    /// Records promised by the header.
    #[cfg(test)]
    pub(crate) fn expected_records(&self) -> u64 {
        self.expected
    }
}

/// Scans a whole interchange file, validating the header, every record's
/// length prefix and CRC, and the record count; returns the record count.
/// It reads each record as stored, so it holds no more than the largest
/// record the file itself contains.  (The
/// distributed coordinator and the cache seed get the same guarantees
/// from the import scan itself — `ShardedMemo::import_from` — without a
/// second pass over the file; this standalone check exists for tests and
/// tooling, e.g. auditing a persistent cache directory.)
pub fn validate_segment_file(path: &Path) -> Result<u64, SpillError> {
    let mut reader = SegmentReader::open(path)?;
    let mut records = 0u64;
    while reader.next_record()?.is_some() {
        records += 1;
    }
    Ok(records)
}

// ---------------------------------------------------------------------------
// Frontier segments (elastic interchange)
// ---------------------------------------------------------------------------

/// One frontier record: the canonical-key hash of the configuration (for
/// ownership partitioning without reconstruction) plus its action-index
/// path from the true initial configuration.  Paths, not keys, because
/// canonical keys are not invertible under symmetry reduction — the only
/// faithful wire form of "this exact configuration" is the deterministic
/// action sequence that reaches it.
fn encode_frontier_record(hash: u64, path: &[u32], out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&hash.to_le_bytes());
    out.extend_from_slice(&(path.len() as u32).to_le_bytes());
    for idx in path {
        out.extend_from_slice(&idx.to_le_bytes());
    }
}

fn decode_frontier_record(payload: &[u8], context: &Path) -> Result<(u64, Vec<u32>), SpillError> {
    let corrupt =
        || SpillError::corrupt(format!("{}: malformed frontier record", context.display()));
    if payload.len() < 12 {
        return Err(corrupt());
    }
    let hash = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes")) as usize;
    let body = &payload[12..];
    if body.len() != len * 4 {
        return Err(corrupt());
    }
    let path = body
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect();
    Ok((hash, path))
}

/// Writes `(hash, path)` frontier records as one sealed frontier
/// segment; returns the record count.
pub(crate) fn write_frontier_segment(
    path: &Path,
    roots: &[(u64, Vec<u32>)],
) -> Result<u64, SpillError> {
    let mut writer = SegmentWriter::create_frontier(path)?;
    let mut payload = Vec::new();
    for (hash, root) in roots {
        encode_frontier_record(*hash, root, &mut payload);
        writer.append(&payload)?;
    }
    writer.finish()
}

/// Reads every record of a sealed frontier segment, in file order.
pub(crate) fn read_frontier_segment(path: &Path) -> Result<Vec<(u64, Vec<u32>)>, SpillError> {
    let mut reader = SegmentReader::open_frontier(path)?;
    let mut roots = Vec::new();
    while let Some(payload) = reader.next_record()? {
        roots.push(decode_frontier_record(payload, path)?);
    }
    Ok(roots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use twostep_model::WideValue;

    fn roundtrip<T: SpillCodec + PartialEq + std::fmt::Debug>(value: T) {
        let mut buf = Vec::new();
        value.encode(&mut buf);
        let mut input = buf.as_slice();
        let back = T::decode(&mut input).expect("decodes");
        assert_eq!(back, value);
        assert!(input.is_empty(), "decode consumed exactly the encoding");
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(u128::MAX);
        roundtrip(true);
        roundtrip(Some(17u32));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip((7u32, Some(9u64)));
        roundtrip(WideValue::new(1, 1));
        roundtrip(WideValue::new(128, 42));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time table loop `crc32` replaced: its reference.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    proptest! {
        /// Slicing-by-8 computes the same function, whatever the length
        /// leaves for its bytewise remainder: every length 0..=64 in
        /// every case, plus the generated length.
        #[test]
        fn crc32_matches_the_bytewise_reference(
            bytes in prop::collection::vec(any::<u8>(), 64..=300),
        ) {
            for len in 0..=64 {
                let prefix = &bytes[..len];
                prop_assert_eq!(crc32(prefix), crc32_bytewise(prefix), "length {}", len);
            }
            prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
        }
    }

    #[test]
    fn summary_record_roundtrips() {
        let summary = Summary {
            terminals: 42,
            worst_round_by_f: vec![Some(1), None, Some(3)],
            decided: vec![WideValue::new(1, 0), WideValue::new(1, 1)],
            violating: true,
        };
        let mut buf = Vec::new();
        encode_summary(&summary, &mut buf);
        let back: Summary<WideValue> = decode_summary(&buf).expect("decodes");
        assert_eq!(back, summary);
        // Trailing garbage is rejected.
        buf.push(0);
        assert!(decode_summary::<WideValue>(&buf).is_none());
    }

    /// A store whose tail, blocks and segments are a few frames long.
    fn tiny_store(dir: &SpillDir, shard: usize) -> SegmentStore {
        SegmentStore::with_sizes(dir.path(), shard, 96, 64, 400)
    }

    fn segment_len(dir: &SpillDir, shard: usize, segment: u32) -> u64 {
        let path = dir.path().join(format!("shard{shard}-seg{segment}.spill"));
        std::fs::metadata(path).unwrap().len()
    }

    /// Forty bytes, distinct per `i`.
    fn noise(i: u8) -> Vec<u8> {
        (0..40u8).map(|k| k.wrapping_mul(37) ^ i).collect()
    }

    /// Everything `scan` visits, in order.
    fn scanned(store: &mut SegmentStore) -> Vec<(SpillRef, Vec<u8>)> {
        let mut seen = Vec::new();
        store
            .scan(|r, payload| {
                seen.push((r, payload.to_vec()));
                Ok(true)
            })
            .unwrap();
        seen
    }

    #[test]
    fn segment_store_append_and_read() {
        let dir = SpillDir::create(None).unwrap();
        // The shipped sizes (all fifty records stay in the tail) and tiny
        // ones (flushes, block edges and rotation among them).
        for (shard, mut store) in [SegmentStore::new(dir.path(), 0), tiny_store(&dir, 1)]
            .into_iter()
            .enumerate()
        {
            let refs: Vec<SpillRef> = (0..50u8)
                .map(|i| store.append(&vec![i; i as usize + 1]).unwrap())
                .collect();
            // Read back in a scrambled order; every record must be intact.
            for (i, r) in refs.iter().enumerate().rev() {
                let payload = store.read(r).unwrap();
                assert_eq!(payload, vec![i as u8; i + 1]);
            }
            assert_eq!(refs[0].segment, 0);
            assert_eq!(
                u64::from(refs[0].offset),
                HEADER_LEN,
                "records start after the header"
            );
            let rotated = refs.last().unwrap().segment > 0;
            assert_eq!(rotated, shard == 1, "only the tiny store rotates");
        }
    }

    #[test]
    fn segment_store_writes_its_records_as_given_under_a_flag_clear_header() {
        let dir = SpillDir::create(None).unwrap();
        let mut store = tiny_store(&dir, 0);
        // Repetitive bytes a compressor would shrink to a few.
        let payload = [b'z'; 60];
        let r = store.append(&payload).unwrap();
        assert_eq!(r.len, 60, "the stored length is the payload's");
        store.scan(|_, _| Ok(true)).unwrap();
        let bytes = std::fs::read(dir.path().join("shard0-seg0.spill")).unwrap();
        assert_eq!(
            parse_header(&bytes, dir.path()).unwrap(),
            (STREAMING_COUNT, 0)
        );
        let at = r.offset as usize + 8;
        assert_eq!(&bytes[at..at + payload.len()], payload);
        assert_eq!(store.read(&r).unwrap(), payload);
    }

    #[test]
    fn segment_store_reads_a_block_cached_short_and_since_extended() {
        let dir = SpillDir::create(None).unwrap();
        let mut store = SegmentStore::with_sizes(dir.path(), 0, 1024, 256, 1 << 20);
        let first = store.append(b"first").unwrap();
        // A scan flushes; the read then caches block 0 as long as the
        // file is: header + one frame.
        assert_eq!(scanned(&mut store), [(first, b"first".to_vec())]);
        assert_eq!(store.read(&first).unwrap(), b"first");
        let second = store.append(b"second").unwrap();
        assert_eq!(store.read(&second).unwrap(), b"second", "from the tail");
        assert_eq!(
            segment_len(&dir, 0, 0),
            u64::from(second.offset),
            "still unwritten"
        );
        store.scan(|_, _| Ok(false)).unwrap();
        assert!(
            u64::from(second.offset + 8 + second.len) <= 256,
            "same block"
        );
        assert_eq!(
            store.read(&second).unwrap(),
            b"second",
            "from the re-read block"
        );
        assert_eq!(store.read(&first).unwrap(), b"first");
    }

    #[test]
    fn segment_store_detects_bit_rot() {
        let dir = SpillDir::create(None).unwrap();
        let mut store = SegmentStore::with_sizes(dir.path(), 0, 64, 64, 1 << 20);
        let flushed = store.append(b"precious bytes").unwrap();
        let in_tail = store.append(b"more precious bytes").unwrap();
        assert_eq!(
            segment_len(&dir, 0, 0),
            u64::from(in_tail.offset),
            "one record written"
        );
        // Flip one payload byte of the written record behind the store's
        // back, and ruin where the unwritten one will go.
        let path = dir.path().join("shard0-seg0.spill");
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = (flushed.offset + 8) as usize + 3;
        bytes[idx] ^= 0x40;
        bytes.extend_from_slice(&[0xFF; 64]);
        std::fs::write(&path, &bytes).unwrap();
        let err = store.read(&flushed).unwrap_err();
        assert!(
            matches!(err, SpillError::Corrupt { .. }),
            "bit rot must surface as Corrupt, got {err:?}"
        );
        // File damage cannot reach a record the file does not hold yet.
        assert_eq!(store.read(&in_tail).unwrap(), b"more precious bytes");
    }

    #[test]
    fn truncation_behind_the_store_is_corrupt() {
        let dir = SpillDir::create(None).unwrap();
        // 64-byte blocks: the 40-byte records sit inside one block or
        // straddle two, and both read paths must classify a cut alike.
        let mut store = SegmentStore::with_sizes(dir.path(), 0, 64, 64, 1 << 20);
        let refs: Vec<SpillRef> = (0..8).map(|i| store.append(&noise(i)).unwrap()).collect();
        assert_eq!(scanned(&mut store).len(), 8, "flushed, and intact so far");
        let file = OpenOptions::new()
            .write(true)
            .open(dir.path().join("shard0-seg0.spill"))
            .unwrap();
        for (i, r) in refs.iter().enumerate().rev() {
            // Cut the segment a few bytes into record `i`.  A cached
            // block rightly outlives the bytes under it, so forget them.
            file.set_len(u64::from(r.offset) + 11).unwrap();
            store.blocks.clear();
            for cut in &refs[i..] {
                match store.read(cut).unwrap_err() {
                    SpillError::Corrupt { detail } => {
                        assert!(detail.contains("ends inside the record"), "{detail}")
                    }
                    other => panic!("expected Corrupt, got {other:?}"),
                }
            }
            for (k, whole) in refs[..i].iter().enumerate() {
                assert_eq!(store.read(whole).unwrap(), noise(k as u8));
            }
            let mut visited = 0;
            let err = store
                .scan(|_, _| {
                    visited += 1;
                    Ok(true)
                })
                .unwrap_err();
            assert!(matches!(err, SpillError::Corrupt { .. }), "{err:?}");
            assert_eq!(visited, i, "the scan yields what precedes the cut");
        }
    }

    #[test]
    fn scan_bounds_a_length_prefix_before_touching_the_payload() {
        let dir = SpillDir::create(None).unwrap();
        // 40-byte payloads are 48-byte frames: two overflow an 88-byte
        // tail, so the first two records are written — and nothing is
        // cached, no read having happened yet.
        let mut store = SegmentStore::with_sizes(dir.path(), 0, 88, 64, 400);
        let refs: Vec<SpillRef> = (0..3).map(|i| store.append(&noise(i)).unwrap()).collect();
        assert_eq!(segment_len(&dir, 0, 0), u64::from(refs[2].offset));
        // The length prefix is not checksummed: a flipped high byte
        // claims ~4 GiB, which the segment's own length refutes.
        let path = dir.path().join("shard0-seg0.spill");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[refs[1].offset as usize + 3] = 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let mut visited = Vec::new();
        let err = store
            .scan(|r, _| {
                visited.push(r);
                Ok(true)
            })
            .unwrap_err();
        match &err {
            SpillError::Corrupt { detail } => assert!(detail.contains("claims"), "{detail}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert_eq!(visited, refs[..1]);
        assert!(
            store.frame.capacity() < 1 << 20,
            "nothing sized by the claim"
        );
    }

    /// A segment's last record may run past the rotation point, but no
    /// record starts there: two sound frames rewritten over one, the
    /// second starting at the rotation point, are `Corrupt` at the
    /// second.
    #[test]
    fn scan_refuses_a_frame_starting_past_the_rotation_point() {
        let dir = SpillDir::create(None).unwrap();
        // A 600-byte tail holds the 508-byte frame; the next append
        // rotates, which writes segment 0 — and nothing is cached yet.
        let mut store = SegmentStore::with_sizes(dir.path(), 0, 600, 64, 400);
        let long = store.append(&[7; 500]).unwrap();
        store.append(b"next").unwrap();
        assert_eq!(segment_len(&dir, 0, 0), u64::from(long.offset) + 508);
        let mut forged = Vec::new();
        write_framed_record(&mut forged, &[7; 368]).unwrap();
        write_framed_record(&mut forged, &[7; 124]).unwrap();
        let path = dir.path().join("shard0-seg0.spill");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(long.offset as usize);
        bytes.extend_from_slice(&forged);
        std::fs::write(&path, &bytes).unwrap();
        let mut visited = 0;
        let err = store
            .scan(|_, _| {
                visited += 1;
                Ok(true)
            })
            .unwrap_err();
        match &err {
            SpillError::Corrupt { detail } => {
                assert!(detail.contains("offset 400"), "{detail}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert_eq!(visited, 1, "the first forged frame is sound");
    }

    #[test]
    fn injected_write_fault_fails_the_append_it_names() {
        use crate::faults::{install_io_fault, IoFault};
        for fault in [
            IoFault::FailWrite(3),
            IoFault::TornWrite(3),
            IoFault::Enospc(3),
        ] {
            let dir = SpillDir::create(None).unwrap();
            let mut store = tiny_store(&dir, 0);
            let guard = install_io_fault(fault);
            // Write ordinals count records, not flushes: the third
            // append fails, wherever its bytes would have gone.
            let mut kept = Vec::new();
            for i in 0..6u8 {
                match store.append(&[i; 30]) {
                    Ok(r) => kept.push((r, vec![i; 30])),
                    Err(err) => {
                        assert_eq!(i, 2, "{fault:?} fired on the wrong append: {err:?}");
                        assert!(matches!(err, SpillError::Io { .. }), "{err:?}");
                    }
                }
            }
            drop(guard);
            assert_eq!(kept.len(), 5, "{fault:?}");
            // Nothing of the failed frame stayed behind.
            assert_eq!(scanned(&mut store), kept, "{fault:?}");
        }
    }

    /// One step of the model test below.
    #[derive(Clone, Debug)]
    enum StoreOp {
        Append(Vec<u8>),
        /// Read the record appended `n`-th, modulo how many there are.
        Read(usize),
        /// Scan, stopping after this many records.
        Scan(usize),
    }

    fn store_op() -> impl Strategy<Value = StoreOp> {
        prop_oneof![
            // Incompressible and repetitive payloads, empty to longer
            // than a block.
            prop::collection::vec(any::<u8>(), 0..=90).prop_map(StoreOp::Append),
            (any::<u8>(), 0usize..=200).prop_map(|(b, n)| StoreOp::Append(vec![b; n])),
            any::<usize>().prop_map(StoreOp::Read),
            any::<usize>().prop_map(StoreOp::Read),
            (1usize..=40).prop_map(StoreOp::Scan),
        ]
    }

    proptest! {
        /// The store against a `Vec` of what was appended, with sizes
        /// small enough that a few dozen operations put records in the
        /// tail, in cached blocks, in blocks cached short and since
        /// extended, across block boundaries and in rotated segments.
        #[test]
        fn segment_store_matches_a_model_at_block_edges(
            tail_bytes in 24usize..=200,
            block_bytes in 8usize..=128,
            segment_bytes in 60u64..=600,
            ops in prop::collection::vec(store_op(), 1..=80),
        ) {
            let dir = SpillDir::create(None).unwrap();
            let mut store =
                SegmentStore::with_sizes(dir.path(), 0, tail_bytes, block_bytes, segment_bytes);
            let mut model: Vec<(SpillRef, Vec<u8>)> = Vec::new();
            for op in ops {
                match op {
                    StoreOp::Append(payload) => {
                        let r = store.append(&payload).unwrap();
                        if let Some((last, _)) = model.last() {
                            prop_assert!(
                                (last.segment, last.offset) < (r.segment, r.offset),
                                "refs grow: {:?} then {:?}", last, r
                            );
                        }
                        model.push((r, payload));
                    }
                    StoreOp::Read(_) if model.is_empty() => {}
                    StoreOp::Read(n) => {
                        let (r, payload) = &model[n % model.len()];
                        prop_assert_eq!(store.read(r).unwrap(), &payload[..], "{:?}", r);
                    }
                    StoreOp::Scan(limit) => {
                        let mut seen = Vec::new();
                        store.scan(|r, payload| {
                            seen.push((r, payload.to_vec()));
                            Ok(seen.len() < limit)
                        }).unwrap();
                        prop_assert_eq!(&seen[..], &model[..limit.min(model.len())]);
                    }
                }
            }
            prop_assert_eq!(scanned(&mut store), model);
        }
    }

    #[test]
    fn export_roundtrips_through_reader() {
        let dir = SpillDir::create(None).unwrap();
        let path = dir.path().join("export.seg");
        let mut writer = SegmentWriter::create(&path).unwrap();
        for i in 0..10u8 {
            writer.append(&[i; 5]).unwrap();
        }
        assert_eq!(writer.finish().unwrap(), 10);

        assert_eq!(validate_segment_file(&path).unwrap(), 10);
        let mut reader = SegmentReader::open(&path).unwrap();
        assert_eq!(reader.expected_records(), 10);
        for i in 0..10u8 {
            assert_eq!(reader.next_record().unwrap().unwrap(), vec![i; 5]);
        }
        assert!(reader.next_record().unwrap().is_none());
    }

    #[test]
    fn foreign_file_is_rejected_as_foreign() {
        let dir = SpillDir::create(None).unwrap();
        let path = dir.path().join("not-a-segment");
        std::fs::write(&path, b"{\"json\": \"definitely not a segment file\"}").unwrap();
        let err = SegmentReader::open(&path).unwrap_err();
        assert!(matches!(err, SpillError::Foreign { .. }), "{err:?}");

        // Too short to even hold a header.
        std::fs::write(&path, b"short").unwrap();
        let err = SegmentReader::open(&path).unwrap_err();
        assert!(matches!(err, SpillError::Foreign { .. }), "{err:?}");
    }

    #[test]
    fn wrong_version_is_rejected_as_foreign() {
        let dir = SpillDir::create(None).unwrap();
        let path = dir.path().join("future.seg");
        let mut header = header_bytes(0, 0);
        header[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        std::fs::write(&path, header).unwrap();
        let err = SegmentReader::open(&path).unwrap_err();
        assert!(matches!(err, SpillError::Foreign { .. }), "{err:?}");
    }

    /// A sealed segment file of format `version` with flags byte `flags`,
    /// holding `records`, each framed with its length and a valid CRC.
    fn sealed_segment(version: u32, flags: u8, records: &[&[u8]]) -> Vec<u8> {
        let mut bytes = b"TWOSPILL".to_vec();
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.extend_from_slice(&(records.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&[flags, 0, 0, 0]);
        for record in records {
            bytes.extend_from_slice(&(record.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc32(record).to_le_bytes());
            bytes.extend_from_slice(record);
        }
        bytes
    }

    #[test]
    fn pre_v5_segments_are_rejected_as_foreign() {
        // Sealed, internally consistent files of earlier versions must
        // classify as Foreign at the header, before any record is read,
        // and cache consumers replace them loudly.  The v3 file holds a
        // pre-byte-key structured record.  The v4 file sets the
        // compression flag v5 dropped, and its one record is an LZ
        // stream of one literal and one distance-1 match claiming
        // 2^30 - 1 bytes: 45 bytes that a v4 reader expanded to 1 GiB.
        assert_eq!(FORMAT_VERSION, 6, "this test and the next pin v4→v5→v6");
        let mut bomb = Vec::new();
        ((1u64 << 30) - 1).encode(&mut bomb); // the expanded length
        1u64.encode(&mut bomb); // one literal…
        bomb.push(b'a');
        ((1u64 << 30) - 6).encode(&mut bomb); // …then 2^30 - 2 bytes
        1u64.encode(&mut bomb); // copied from distance 1
        let v4 = sealed_segment(4, 0x01, &[&bomb]);
        assert_eq!(v4.len(), 45);
        let v3 = sealed_segment(3, 0x01, &[b"a v3-era structured record"]);
        let dir = SpillDir::create(None).unwrap();
        let path = dir.path().join("pre-v5.seg");
        for (version, bytes) in [(3, v3), (4, v4)] {
            std::fs::write(&path, bytes).unwrap();
            let opened = SegmentReader::open(&path).map(|_| ());
            for result in [opened, validate_segment_file(&path).map(|_| ())] {
                match result {
                    Err(SpillError::Foreign { detail }) => assert!(
                        detail.contains(&format!("format version {version}")),
                        "{detail}"
                    ),
                    other => panic!("v{version}: expected Foreign, got {other:?}"),
                }
            }
        }
    }

    /// A sealed v5 file — flags byte 0, one memo entry whose integers
    /// are fixed-width, as v5 wrote them — is Foreign at the header: no
    /// v6 reader gets to misread its fixed-width fields as varints.
    #[test]
    fn v5_segments_are_rejected_as_foreign() {
        let mut v5_entry = Vec::new();
        v5_entry.extend_from_slice(&8u32.to_le_bytes()); // key length
        v5_entry.extend_from_slice(&2u32.to_le_bytes()); // key: round…
        v5_entry.extend_from_slice(&0u32.to_le_bytes()); // …no processes
        v5_entry.extend_from_slice(&1u64.to_le_bytes()); // terminals
        v5_entry.extend_from_slice(&0u32.to_le_bytes()); // no census
        v5_entry.extend_from_slice(&0u32.to_le_bytes()); // no values
        v5_entry.push(0); // not violating
        let v5 = sealed_segment(5, 0, &[&v5_entry]);
        let dir = SpillDir::create(None).unwrap();
        let path = dir.path().join("v5.seg");
        std::fs::write(&path, v5).unwrap();
        let opened = SegmentReader::open(&path).map(|_| ());
        for result in [opened, validate_segment_file(&path).map(|_| ())] {
            match result {
                Err(SpillError::Foreign { detail }) => {
                    assert!(detail.contains("format version 5"), "{detail}")
                }
                other => panic!("v5: expected Foreign, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_header_flags_are_rejected_as_foreign() {
        let dir = SpillDir::create(None).unwrap();
        let path = dir.path().join("flags.seg");
        // An unknown flag bit alongside garbage, and the compression
        // flag of v4, which v5 does not know.
        for flags in [0x82, 0x01] {
            std::fs::write(&path, header_bytes(0, flags)).unwrap();
            match SegmentReader::open(&path).unwrap_err() {
                SpillError::Foreign { detail } => {
                    assert!(detail.contains("unknown header flags"), "{detail}")
                }
                other => panic!("flags {flags:#04x}: expected Foreign, got {other:?}"),
            }
        }
    }

    #[test]
    fn unsealed_export_is_rejected_as_corrupt() {
        let dir = SpillDir::create(None).unwrap();
        let path = dir.path().join("killed.seg");
        let mut writer = SegmentWriter::create(&path).unwrap();
        writer.append(b"only record").unwrap();
        drop(writer); // worker "killed" before finish(): count never sealed
        let err = SegmentReader::open(&path).unwrap_err();
        assert!(matches!(err, SpillError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn truncated_export_is_rejected_as_corrupt() {
        let dir = SpillDir::create(None).unwrap();
        let path = dir.path().join("cut.seg");
        let mut writer = SegmentWriter::create(&path).unwrap();
        for _ in 0..4 {
            writer.append(&[7u8; 32]).unwrap();
        }
        writer.finish().unwrap();
        // Cut the file mid-record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let err = validate_segment_file(&path).unwrap_err();
        assert!(matches!(err, SpillError::Corrupt { .. }), "{err:?}");

        // Cut exactly at a record boundary: the record count exposes it.
        std::fs::write(&path, &bytes[..bytes.len() - 40]).unwrap();
        let err = validate_segment_file(&path).unwrap_err();
        assert!(matches!(err, SpillError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn corrupted_length_prefix_is_rejected_before_allocation() {
        // The length prefix is not checksummed; a flipped high byte must
        // surface as Corrupt via the file-size bound, not as a huge
        // payload allocation.
        let dir = SpillDir::create(None).unwrap();
        let path = dir.path().join("bigclaim.seg");
        let mut writer = SegmentWriter::create(&path).unwrap();
        writer.append(&[9u8; 16]).unwrap();
        writer.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN as usize + 3] = 0xFF; // len u32 high byte: ~4 GiB claim
        std::fs::write(&path, &bytes).unwrap();
        let err = validate_segment_file(&path).unwrap_err();
        match &err {
            SpillError::Corrupt { detail } => {
                assert!(detail.contains("claims"), "{detail}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_export_record_is_rejected_as_corrupt() {
        let dir = SpillDir::create(None).unwrap();
        let path = dir.path().join("rot.seg");
        let mut writer = SegmentWriter::create(&path).unwrap();
        writer.append(&[1u8; 16]).unwrap();
        writer.append(&[2u8; 16]).unwrap();
        writer.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = validate_segment_file(&path).unwrap_err();
        assert!(matches!(err, SpillError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn frontier_segment_roundtrips() {
        let dir = SpillDir::create(None).unwrap();
        let path = dir.path().join("frontier.seg");
        let roots = vec![
            (0xdead_beef_u64, vec![0u32, 3, 951]),
            (42, Vec::new()),
            (u64::MAX, vec![u32::MAX]),
        ];
        assert_eq!(write_frontier_segment(&path, &roots).unwrap(), 3);
        assert_eq!(read_frontier_segment(&path).unwrap(), roots);
    }

    #[test]
    fn frontier_and_memo_segments_are_not_interchangeable() {
        let dir = SpillDir::create(None).unwrap();
        // A memo import must refuse a frontier file…
        let frontier = dir.path().join("frontier.seg");
        write_frontier_segment(&frontier, &[(1, vec![2])]).unwrap();
        let err = SegmentReader::open(&frontier).unwrap_err();
        match &err {
            SpillError::Foreign { detail } => {
                assert!(detail.contains("frontier segment"), "{detail}")
            }
            other => panic!("expected Foreign, got {other:?}"),
        }
        // …and a frontier read must refuse a memo file.
        let memo = dir.path().join("memo.seg");
        let mut writer = SegmentWriter::create(&memo).unwrap();
        writer.append(b"a memo record").unwrap();
        writer.finish().unwrap();
        let err = SegmentReader::open_frontier(&memo).unwrap_err();
        match &err {
            SpillError::Foreign { detail } => {
                assert!(detail.contains("memo segment"), "{detail}")
            }
            other => panic!("expected Foreign, got {other:?}"),
        }
    }

    #[test]
    fn malformed_frontier_record_is_corrupt() {
        let dir = SpillDir::create(None).unwrap();
        let path = dir.path().join("bad-frontier.seg");
        let mut writer = SegmentWriter::create_frontier(&path).unwrap();
        writer.append(b"too short").unwrap();
        writer.finish().unwrap();
        let err = read_frontier_segment(&path).unwrap_err();
        assert!(matches!(err, SpillError::Corrupt { .. }), "{err:?}");
    }

    /// What the reader fuzz below puts in its file.
    #[derive(Clone, Debug)]
    enum Garbled {
        /// These bytes.
        Bytes(Vec<u8>),
        /// A v5 header — frontier flag or not, this sealed count — then
        /// these bytes.
        Header(bool, u64, Vec<u8>),
        /// A sealed segment of these records, memo or frontier, written
        /// by [`SegmentWriter`], with the byte at `at` (modulo the
        /// length) flipped by `mask`, or the file cut there if `mask` is
        /// zero.
        Damaged {
            frontier: bool,
            records: Vec<Vec<u8>>,
            at: usize,
            mask: u8,
        },
    }

    fn garbled() -> impl Strategy<Value = Garbled> {
        let bytes = || prop::collection::vec(any::<u8>(), 0..=120);
        let count = prop_oneof![0u64..=4, any::<u64>()];
        prop_oneof![
            bytes().prop_map(Garbled::Bytes),
            (any::<bool>(), count, bytes()).prop_map(|(f, n, rest)| Garbled::Header(f, n, rest)),
            (
                any::<bool>(),
                prop::collection::vec(prop::collection::vec(any::<u8>(), 0..=40), 0..=4),
                any::<usize>(),
                any::<u8>(),
            )
                .prop_map(|(frontier, records, at, mask)| Garbled::Damaged {
                    frontier,
                    records,
                    at,
                    mask,
                }),
        ]
    }

    proptest! {
        /// The reader is the whole decoder of interchange bytes: over
        /// garbage, a bare header or a damaged real segment, none of
        /// its entry points panics, every error is `Corrupt` or
        /// `Foreign`, and no record buffer outgrows the file.
        #[test]
        fn the_interchange_reader_classifies_any_bytes(input in garbled()) {
            let dir = SpillDir::create(None).unwrap();
            let path = dir.path().join("garbled.seg");
            let bytes = match input {
                Garbled::Bytes(bytes) => bytes,
                Garbled::Header(frontier, count, rest) => {
                    let flags = if frontier { FLAG_FRONTIER } else { 0 };
                    let mut bytes = header_bytes(count, flags).to_vec();
                    bytes.extend_from_slice(&rest);
                    bytes
                }
                Garbled::Damaged { frontier, records, at, mask } => {
                    if frontier {
                        let roots: Vec<(u64, Vec<u32>)> = (records.iter().enumerate())
                            .map(|(i, r)| (i as u64, r.iter().map(|&b| u32::from(b)).collect()))
                            .collect();
                        write_frontier_segment(&path, &roots).unwrap();
                    } else {
                        let mut writer = SegmentWriter::create(&path).unwrap();
                        for record in &records {
                            writer.append(record).unwrap();
                        }
                        writer.finish().unwrap();
                    }
                    let mut bytes = std::fs::read(&path).unwrap();
                    let at = at % bytes.len();
                    match mask {
                        0 => bytes.truncate(at),
                        _ => bytes[at] ^= mask,
                    }
                    bytes
                }
            };
            std::fs::write(&path, &bytes).unwrap();
            let classified = |err: &SpillError| {
                matches!(err, SpillError::Corrupt { .. } | SpillError::Foreign { .. })
            };
            if let Err(err) = validate_segment_file(&path) {
                prop_assert!(classified(&err), "validate: {:?}", err);
            }
            if let Err(err) = read_frontier_segment(&path) {
                prop_assert!(classified(&err), "read_frontier_segment: {:?}", err);
            }
            for open in [SegmentReader::open, SegmentReader::open_frontier] {
                let mut reader = match open(&path) {
                    Ok(reader) => reader,
                    Err(err) => {
                        prop_assert!(classified(&err), "open: {:?}", err);
                        continue;
                    }
                };
                loop {
                    let next = reader.next_record().map(|record| record.is_some());
                    prop_assert!(
                        reader.stored.capacity() <= bytes.len(),
                        "{} bytes held for a {}-byte file", reader.stored.capacity(), bytes.len()
                    );
                    match next {
                        Ok(true) => {}
                        Ok(false) => break,
                        Err(err) => {
                            prop_assert!(classified(&err), "next_record: {:?}", err);
                            break;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn spill_dir_is_removed_on_drop() {
        let dir = SpillDir::create(None).unwrap();
        let path = dir.path().to_path_buf();
        std::fs::write(path.join("probe"), b"x").unwrap();
        assert!(path.exists());
        drop(dir);
        assert!(!path.exists(), "temp spill dir cleaned on drop");
    }
}
