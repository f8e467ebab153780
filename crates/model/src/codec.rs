//! Compact, self-delimiting byte encoding for model-checker state — the
//! [`SpillCodec`] trait and its impls for the primitive building blocks.
//!
//! The model checker's two-tier memo spills cold entries to disk, and its
//! distributed engine ships whole memo segments between worker processes
//! as a portable interchange format.  Both paths need every piece of a
//! memo entry — the configuration key (per-process protocol snapshots)
//! *and* the subtree summary — to round-trip through bytes.  The trait
//! lives here, at the bottom of the workspace, so every crate that
//! defines protocol state (`twostep-core`, `twostep-baselines`, test
//! protocols…) can implement it without depending on the model checker.
//!
//! The contract is the obvious one: `decode` must invert `encode` —
//! appending `encode`'s output to a buffer and then decoding from it
//! yields an equal value and consumes exactly the bytes `encode`
//! produced.  `decode` returns `None` on truncated or malformed input
//! instead of panicking; the memo treats that as a corrupt record.

use std::collections::BTreeSet;

use crate::pid::ProcessId;
use crate::value::WideValue;

/// What the model checker knows about one **active** process when it asks
/// [`SpillCodec::rank_inert`] whether that process's rank can still
/// influence the future of the execution (the *partial-orbit* symmetry
/// tier).  Everything here is derived from the configuration alone, so
/// the answer is a pure function of the canonical key's inputs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SymmetryContext {
    /// The round the configuration is about to play (1-based).
    pub round: u32,
    /// Crashes the adversary can still schedule (`t` minus crashes so
    /// far) — an upper bound on how many active processes can leave the
    /// execution by crashing rather than by deciding.
    pub crash_budget: usize,
    /// Active processes whose 1-based rank lies in `[round, my rank)` —
    /// the actives that would all have to crash (deciding settles this
    /// process too, under a highest-first commit order) before this
    /// process's own coordination turn could arrive.
    pub actives_below: usize,
}

/// Byte encoding for values stored in spilled memo records and
/// distributed-exploration interchange segments.
///
/// Implemented for the primitive integers, `usize`, `bool`, `()`,
/// [`ProcessId`], [`PidSet`](crate::PidSet), [`WideValue`], `Option<T>`,
/// `Vec<T>`, `BTreeSet<T>`, and pairs.  Protocol crates implement it for
/// their process-state types so the model checker can spill and exchange
/// configuration keys.
pub trait SpillCodec: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value from the front of `input`, advancing it past the
    /// consumed bytes; `None` if the bytes do not form a valid value.
    fn decode(input: &mut &[u8]) -> Option<Self>;

    /// Whether this protocol-state type is **pid-symmetric**: its dynamics
    /// are invariant under any permutation of process indexes, provided
    /// each moved state is re-encoded for its new slot with
    /// [`encode_relabelled`](SpillCodec::encode_relabelled).
    ///
    /// The contract a `true` answer asserts (it is a *semantic* promise
    /// about the protocol, not just about the encoding):
    ///
    /// * the owning process id is used only for self-identification
    ///   (e.g. excluding itself from a broadcast), never to special-case
    ///   a rank (rotating coordinators, ring successors, leader ranks);
    /// * no other process's id or rank is embedded in the state (views,
    ///   heard-from sets, per-rank vectors all break the symmetry);
    /// * `encode_relabelled(at, …)` with a fixed `at` is injective on
    ///   states modulo the owner id: two states relabelled to the same
    ///   slot encode equal iff they differ only in their owner.
    ///
    /// Symmetry reduction in the model checker uses this to quotient the
    /// state space by the full permutation group; rank-dependent
    /// protocols keep the default `false` and still benefit from the
    /// weaker (always-sound) settled-record canonicalization.
    fn pid_symmetric() -> bool {
        false
    }

    /// Appends this value's encoding *as if its owner were the process at
    /// 0-based index `at`* — the permutation remap used by symmetry
    /// reduction when it moves a state to a canonical slot.
    ///
    /// The default encodes unchanged, which is correct for every state
    /// that does not embed its owner's id.  Types that do embed it (and
    /// opt into [`pid_symmetric`](SpillCodec::pid_symmetric)) must
    /// override this to substitute the owner for the process at `at`.
    fn encode_relabelled(&self, _at: usize, out: &mut Vec<u8>) {
        self.encode(out)
    }

    /// Whether this **active** process's rank is *inert* — provably
    /// irrelevant to every reachable future — in the configuration
    /// described by `ctx`.  Rank-inert actives may be pooled with the
    /// settled records by the model checker's partial-orbit symmetry
    /// tier (their records are owner-stripped via
    /// [`encode_relabelled`](SpillCodec::encode_relabelled) and sorted).
    ///
    /// The contract a `true` answer asserts:
    ///
    /// * no reachable future reaches a round in which this process
    ///   *sends* while still active (its sending turns are all in the
    ///   past, or unreachable within the remaining crash budget);
    /// * in every reachable round, every delivery pattern the adversary
    ///   can aim at this process it can aim identically at any other
    ///   currently-inert active (deliveries are rank-windowed only in
    ///   ways that cover all inert actives uniformly, e.g. highest-first
    ///   commit prefixes over a set the inert ranks share membership of);
    /// * the current round's coordinator (or any process whose identity
    ///   the round's dynamics single out) is never reported inert.
    ///
    /// The default `false` opts out: every active keeps its true slot.
    fn rank_inert(&self, _ctx: &SymmetryContext) -> bool {
        false
    }

    /// Whether this type's *dynamics* commute with the value involution
    /// given by [`value_swapped`](SpillCodec::value_swapped): applying
    /// the swap to every proposal and replaying any adversary schedule
    /// yields the swapped states, messages, and decisions, move for
    /// move.  Plain value types answer for themselves (the swap is just
    /// a relabelling); protocol state types answer for their transition
    /// function — adopt/forward protocols qualify, while protocols that
    /// *compute* on values (min/max/threshold decisions) do not.
    ///
    /// The model checker's value-symmetry tier activates only when this
    /// is `true` **and** the run's proposal set is closed under the
    /// swap; it then keys each configuration by the lexicographically
    /// smaller of its encoding and its swapped encoding.
    fn value_symmetric() -> bool {
        false
    }

    /// The image of this value/state under the type's value involution
    /// (`None` if the involution is undefined for it).  Must be a true
    /// involution where defined: `x.value_swapped().and_then(|y|
    /// y.value_swapped()) == Some(x)`, with equal values mapping to
    /// equal images.  For protocol states this swaps every embedded
    /// value (estimates, decisions) and nothing else.
    fn value_swapped(&self) -> Option<Self> {
        None
    }
}

/// Splits `n` bytes off the front of `input`, or `None` if it is shorter.
pub fn take<'a>(input: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if input.len() < n {
        return None;
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Some(head)
}

macro_rules! impl_spill_codec_int {
    ($($ty:ty),*) => {$(
        impl SpillCodec for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(input: &mut &[u8]) -> Option<Self> {
                let bytes = take(input, std::mem::size_of::<$ty>())?;
                Some(<$ty>::from_le_bytes(bytes.try_into().ok()?))
            }
        }
    )*};
}

impl_spill_codec_int!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);

impl SpillCodec for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        u64::decode(input)?.try_into().ok()
    }
}

impl SpillCodec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match take(input, 1)?[0] {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl SpillCodec for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_input: &mut &[u8]) -> Option<Self> {
        Some(())
    }
}

impl SpillCodec for ProcessId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rank().encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let rank = u32::decode(input)?;
        (rank >= 1).then(|| ProcessId::new(rank))
    }
}

impl SpillCodec for WideValue {
    fn encode(&self, out: &mut Vec<u8>) {
        self.width().encode(out);
        self.ident().encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let bits = u32::decode(input)?;
        let ident = u64::decode(input)?;
        if bits == 0 {
            return None; // Theorem 2 values are at least one bit wide.
        }
        let value = WideValue::new(bits, ident);
        // Reject non-canonical encodings (identity bits above the width):
        // equal values must have equal encodings.
        (value.ident() == ident).then_some(value)
    }

    /// A value carries no dynamics of its own, so the swap is always a
    /// sound relabelling; the involution itself is only defined on the
    /// binary (1-bit) alphabet, where it flips the identity bit.
    fn value_symmetric() -> bool {
        true
    }

    fn value_swapped(&self) -> Option<Self> {
        (self.width() == 1).then(|| WideValue::new(1, self.ident() ^ 1))
    }
}

impl<T: SpillCodec> SpillCodec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match take(input, 1)?[0] {
            0 => Some(None),
            1 => Some(Some(T::decode(input)?)),
            _ => None,
        }
    }
}

impl<T: SpillCodec> SpillCodec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let len = u32::decode(input)? as usize;
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(T::decode(input)?);
        }
        Some(out)
    }
}

impl<T: SpillCodec + Ord> SpillCodec for BTreeSet<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let len = u32::decode(input)? as usize;
        let mut out = BTreeSet::new();
        for _ in 0..len {
            if !out.insert(T::decode(input)?) {
                return None; // duplicate element: not a set encoding
            }
        }
        Some(out)
    }
}

impl<A: SpillCodec, B: SpillCodec> SpillCodec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some((A::decode(input)?, B::decode(input)?))
    }
}

// ---------------------------------------------------------------------------
// Canonical ordering of encoded records (symmetry reduction)
// ---------------------------------------------------------------------------

/// Reusable scratch for sorting a batch of encoded records into a
/// canonical order — the permutation step of the model checker's
/// symmetry reduction, which runs once per configuration visit and must
/// therefore not allocate in steady state.
///
/// Usage: [`begin`](Canonicalizer::begin), then one
/// [`record`](Canonicalizer::record) call per item (append the item's
/// bytes to the returned buffer), then [`sort`](Canonicalizer::sort),
/// then read back via [`iter_sorted`](Canonicalizer::iter_sorted).
/// Record buffers are pooled across calls; the sort is an argsort (the
/// buffers never move), ordered by record bytes with ties broken by
/// original index — ties encode identical bytes, so the tie-break keeps
/// the sort deterministic without breaking the normal form.
#[derive(Default)]
pub struct Canonicalizer {
    /// Pooled record buffers; only the first `live` are meaningful.
    bufs: Vec<Vec<u8>>,
    /// Number of records appended since the last `begin`.
    live: usize,
    /// Argsort of `bufs[..live]`, valid after `sort`.
    order: Vec<u32>,
}

impl Canonicalizer {
    /// A fresh canonicalizer with no pooled buffers yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new batch, forgetting previous records but keeping their
    /// buffers pooled.
    pub fn begin(&mut self) {
        self.live = 0;
    }

    /// Opens the next record and returns its (cleared) buffer; append
    /// the record's encoding to it.
    pub fn record(&mut self) -> &mut Vec<u8> {
        if self.live == self.bufs.len() {
            self.bufs.push(Vec::new());
        }
        let buf = &mut self.bufs[self.live];
        self.live += 1;
        buf.clear();
        buf
    }

    /// Number of records in the current batch.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the current batch has no records.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Sorts the batch by record bytes (ties by original index).
    pub fn sort(&mut self) {
        let bufs = &self.bufs;
        self.order.clear();
        self.order.extend(0..self.live as u32);
        self.order
            .sort_unstable_by(|&a, &b| bufs[a as usize].cmp(&bufs[b as usize]).then(a.cmp(&b)));
    }

    /// The sorted batch as `(original_index, record_bytes)` pairs; call
    /// only after [`sort`](Canonicalizer::sort).
    pub fn iter_sorted(&self) -> impl Iterator<Item = (usize, &[u8])> + '_ {
        debug_assert_eq!(self.order.len(), self.live, "sort() before iter_sorted()");
        self.order
            .iter()
            .map(move |&i| (i as usize, self.bufs[i as usize].as_slice()))
    }
}

// ---------------------------------------------------------------------------
// Stable 64-bit hashing for encoded state
// ---------------------------------------------------------------------------

/// Multiplicative mixing constants (from the wyhash family of hashes).
const STABLE_P0: u64 = 0xa076_1d64_78bd_642f;
const STABLE_P1: u64 = 0xe703_7ed1_a0b4_28db;

/// Folds a 128-bit product back to 64 bits (the wyhash "mum" step).
#[inline]
fn stable_mix(a: u64, b: u64) -> u64 {
    let r = u128::from(a).wrapping_mul(u128::from(b));
    (r as u64) ^ ((r >> 64) as u64)
}

/// Stable, fast 64-bit hash of a byte string — the hash of the model
/// checker's canonical configuration-key encodings.
///
/// Three properties the memo, spill index, distributed partitioner, and
/// persistent cache all rely on:
///
/// * **stable** — the value depends only on the bytes: identical across
///   runs, builds, platforms, and processes (explicit little-endian
///   chunking, no per-process seed), unlike `DefaultHasher`, which the
///   standard library is free to change;
/// * **one pass, word-at-a-time** — a wyhash-style multiply-mix over
///   8-byte chunks, several times faster than the byte-at-a-time FNV the
///   cache fingerprint uses (fine there: fingerprints hash a few dozen
///   bytes once per run, while this runs once per configuration visit);
/// * **length-aware** — the length is folded into the seed, so a prefix
///   of a string never trivially collides with it.
///
/// Collisions are still possible (any 64-bit hash has them); every
/// consumer chains on the full key bytes and compares them on hit.
pub fn stable_hash64(bytes: &[u8]) -> u64 {
    let mut h = STABLE_P0 ^ (bytes.len() as u64).wrapping_mul(STABLE_P1);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h = stable_mix(h ^ word, STABLE_P1);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = stable_mix(h ^ u64::from_le_bytes(tail), STABLE_P1);
    }
    stable_mix(h, STABLE_P0)
}

// ---------------------------------------------------------------------------
// Varint + LZ compression for segment records
// ---------------------------------------------------------------------------

/// Appends the LEB128 varint encoding of `value` to `out` (1–10 bytes).
///
/// Used by the segment-record compressor below, where lengths and match
/// distances are overwhelmingly small and a fixed-width `u64` would
/// double the size of short records.
pub fn encode_varint(mut value: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes one LEB128 varint from the front of `input`, advancing past
/// it; `None` on truncation or a non-canonical over-long encoding.
pub fn decode_varint(input: &mut &[u8]) -> Option<u64> {
    let mut value: u64 = 0;
    for (i, &byte) in input.iter().enumerate() {
        if i == 9 && byte > 0x01 {
            return None; // would overflow 64 bits
        }
        value |= u64::from(byte & 0x7F) << (7 * i as u32);
        if byte & 0x80 == 0 {
            if i > 0 && byte == 0 {
                return None; // over-long encoding: not canonical
            }
            *input = &input[i + 1..];
            return Some(value);
        }
        if i == 9 {
            return None;
        }
    }
    None // ran out of bytes mid-varint
}

/// Shortest run the compressor encodes as a back-reference instead of
/// literals: a match token costs at least two varint bytes plus the
/// literal-run header, so anything shorter is a net loss.
const MIN_MATCH: usize = 4;

/// How far back a match may reach.  64 KiB covers whole memo records
/// many times over while keeping distances one or two varint bytes.
const MAX_DISTANCE: usize = 64 * 1024;

/// Log2 of the compressor's hash-table size (positions of 4-byte seeds).
const HASH_BITS: u32 = 14;

fn hash4(bytes: &[u8]) -> usize {
    let seed = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
    (seed.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Reusable compressor state: the 4-byte-seed hash table, generation
/// stamped so back-to-back records (the memo's eviction and export hot
/// paths) pay neither a fresh allocation nor a 64 KiB zeroing per call.
/// Output is byte-identical to a fresh compressor every time — a slot
/// from an earlier record is simply invisible to the current one.
pub struct Compressor {
    /// `(generation, position + 1)` of the most recent occurrence of
    /// each seed hash; a slot is live only when its generation matches
    /// the current call's.  One probe, no chain — compression ratio is
    /// traded for a simple, allocation-free hot path.
    table: Vec<(u32, u32)>,
    generation: u32,
}

impl Default for Compressor {
    fn default() -> Self {
        Self::new()
    }
}

impl Compressor {
    /// A fresh compressor (128 KiB of table, allocated once).
    pub fn new() -> Self {
        Compressor {
            table: vec![(0, 0); 1 << HASH_BITS],
            generation: 0,
        }
    }

    /// Compresses `raw` into `out` (cleared first) with the workspace's
    /// LZ-style codec: a varint uncompressed length, then alternating
    /// literal runs and back-references (`varint literal_len, literals,
    /// varint match_len - MIN_MATCH, varint distance`), the final run
    /// literal-only.  Self-contained — no external crates — because
    /// segment files must be writable and readable in offline builds.
    ///
    /// Memo records are highly repetitive (per-process snapshots of
    /// mostly identical processes), so even this greedy single-pass
    /// matcher typically halves them; incompressible input costs a few
    /// header bytes.  [`decompress`] inverts the encoding exactly.
    /// Inputs are bounded by the segment record framing (`u32` lengths),
    /// comfortably within the table's `u32` positions.
    pub fn compress_into(&mut self, raw: &[u8], out: &mut Vec<u8>) {
        out.clear();
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Generation wrapped: ancient stamps could alias as live.
            // Reset once per 2^32 calls.
            self.table.fill((0, 0));
            self.generation = 1;
        }
        let generation = self.generation;
        encode_varint(raw.len() as u64, out);
        let mut i = 0;
        let mut literal_start = 0;
        while i + MIN_MATCH <= raw.len() {
            let slot = hash4(&raw[i..]);
            let (seen_generation, stored) = self.table[slot];
            self.table[slot] = (generation, (i + 1) as u32);
            if seen_generation == generation && stored > 0 {
                let candidate = (stored - 1) as usize;
                let distance = i - candidate;
                if (1..=MAX_DISTANCE).contains(&distance)
                    && raw[candidate..candidate + MIN_MATCH] == raw[i..i + MIN_MATCH]
                {
                    let mut len = MIN_MATCH;
                    while i + len < raw.len() && raw[candidate + len] == raw[i + len] {
                        len += 1;
                    }
                    encode_varint((i - literal_start) as u64, out);
                    out.extend_from_slice(&raw[literal_start..i]);
                    encode_varint((len - MIN_MATCH) as u64, out);
                    encode_varint(distance as u64, out);
                    i += len;
                    literal_start = i;
                    continue;
                }
            }
            i += 1;
        }
        if literal_start < raw.len() {
            encode_varint((raw.len() - literal_start) as u64, out);
            out.extend_from_slice(&raw[literal_start..]);
        }
    }
}

/// One-shot convenience over [`Compressor::compress_into`] for call
/// sites without a compressor to reuse (tests, single records).
pub fn compress(raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(raw.len() / 2 + 10);
    Compressor::new().compress_into(raw, &mut out);
    out
}

/// Decompresses a buffer produced by [`compress`]; `None` if the bytes
/// are truncated, malformed, carry trailing garbage, or claim an
/// uncompressed length above `max_len` (the caller's allocation bound —
/// a corrupted length claim must never force a giant allocation).
pub fn decompress(input: &[u8], max_len: usize) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    decompress_into(input, max_len, &mut out)?;
    Some(out)
}

/// [`decompress`] into a caller-owned buffer (cleared first), so a loop
/// over many records — the spill tier's rehydrates, a segment import —
/// reuses one allocation.  On `None` the contents of `out` are
/// unspecified.
pub fn decompress_into(mut input: &[u8], max_len: usize, out: &mut Vec<u8>) -> Option<()> {
    out.clear();
    let raw_len = decode_varint(&mut input)? as usize;
    if raw_len > max_len {
        return None;
    }
    out.reserve(raw_len.min(1 << 20));
    while out.len() < raw_len {
        let literal_len = decode_varint(&mut input)? as usize;
        if literal_len > raw_len - out.len() || literal_len > input.len() {
            return None;
        }
        out.extend_from_slice(take(&mut input, literal_len)?);
        if out.len() == raw_len {
            break;
        }
        // Bound the match-length token *before* adding MIN_MATCH: a
        // crafted varint near u64::MAX must be rejected, not overflow
        // the addition (debug panic / release wrap).
        let remaining_out = raw_len - out.len();
        if remaining_out < MIN_MATCH {
            return None; // no admissible match fits in the output
        }
        let token = decode_varint(&mut input)?;
        if token > (remaining_out - MIN_MATCH) as u64 {
            return None;
        }
        let match_len = token as usize + MIN_MATCH;
        let distance = decode_varint(&mut input)? as usize;
        if distance == 0 || distance > out.len() {
            return None;
        }
        let start = out.len() - distance;
        if distance >= match_len {
            // Non-overlapping match — the common case for memo records —
            // copies as one block instead of per-byte pushes (this is
            // the rehydrate-read hot path of the spill tier).
            out.extend_from_within(start..start + match_len);
        } else {
            // Overlapping match (the run-length idiom): the source grows
            // as we copy, so it must go byte by byte.
            for k in 0..match_len {
                let byte = out[start + k];
                out.push(byte);
            }
        }
    }
    if !input.is_empty() {
        return None; // trailing garbage is never a valid encoding
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PidSet;

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
        roundtrip(-5i64);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(Some(17u32));
        roundtrip(None::<u32>);
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip((7u32, Some(9u64)));
        roundtrip(BTreeSet::from([3u64, 1, 2]));
        roundtrip(WideValue::new(1, 1));
        roundtrip(WideValue::new(128, 42));
        roundtrip(ProcessId::new(7));
        roundtrip(PidSet::from_iter(
            130,
            [ProcessId::new(1), ProcessId::new(130)],
        ));
    }

    #[test]
    fn stable_hash64_is_pinned() {
        // The hash keys on-disk spill indexes, interchange partitioning,
        // and persistent-cache reuse, so its values must never drift
        // between builds or platforms: pin them.
        assert_eq!(stable_hash64(b""), 0xf47c_dffd_9671_363d);
        assert_eq!(stable_hash64(b"a"), 0x4445_08c4_5b1e_0093);
        assert_eq!(stable_hash64(b"abc"), 0x5373_c0d1_9c8c_277a);
        assert_eq!(stable_hash64(b"12345678"), 0x22e2_940f_d14f_72c5);
        assert_eq!(stable_hash64(b"123456789"), 0x62b4_ba6e_e5ba_7e6b);
        assert_eq!(
            stable_hash64(b"the quick brown fox jumps over the lazy dog"),
            0x1bbb_390d_5f54_a386
        );
        assert_eq!(stable_hash64(&[0u8; 8]), 0x9da8_e3ea_9593_a726);
        assert_eq!(stable_hash64(&[0u8; 16]), 0xbd5e_3218_5e8e_fe99);
    }

    #[test]
    fn stable_hash64_separates_lengths_and_contents() {
        // Zero-padded tails must not collide with their padded forms,
        // and single-bit flips anywhere must change the hash (a smoke
        // test, not a cryptographic claim).
        let mut seen = std::collections::BTreeSet::new();
        for len in 0..32usize {
            assert!(seen.insert(stable_hash64(&vec![0u8; len])), "len {len}");
        }
        let base: Vec<u8> = (0..32u8).collect();
        let h0 = stable_hash64(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(stable_hash64(&flipped), h0, "flip {i}.{bit}");
            }
        }
    }

    #[test]
    fn truncated_input_decodes_to_none() {
        let mut buf = Vec::new();
        12345u64.encode(&mut buf);
        let mut short = &buf[..5];
        assert!(u64::decode(&mut short).is_none());
        let mut bad_bool = &[7u8][..];
        assert!(bool::decode(&mut bad_bool).is_none());
        let mut zero_rank = &[0u8; 4][..];
        assert!(ProcessId::decode(&mut zero_rank).is_none());
    }

    #[test]
    fn varint_roundtrips() {
        for value in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            encode_varint(value, &mut buf);
            let mut input = buf.as_slice();
            assert_eq!(decode_varint(&mut input), Some(value));
            assert!(input.is_empty(), "value {value} consumed exactly");
        }
        // Truncated mid-varint.
        let mut buf = Vec::new();
        encode_varint(u64::MAX, &mut buf);
        let mut short = &buf[..4];
        assert!(decode_varint(&mut short).is_none());
        // Over-long (non-canonical) encoding of 1.
        let mut overlong = &[0x81u8, 0x00][..];
        assert!(decode_varint(&mut overlong).is_none());
        // An 11-byte continuation chain can never be a u64.
        let mut absurd = &[0xFFu8; 11][..];
        assert!(decode_varint(&mut absurd).is_none());
    }

    fn compression_roundtrip(raw: &[u8]) -> usize {
        let packed = compress(raw);
        let back = decompress(&packed, raw.len().max(1)).expect("decompresses");
        assert_eq!(back, raw, "roundtrip of {} bytes", raw.len());
        packed.len()
    }

    #[test]
    fn compression_roundtrips() {
        compression_roundtrip(b"");
        compression_roundtrip(b"x");
        compression_roundtrip(b"abc");
        compression_roundtrip(&[0u8; 1000]);
        compression_roundtrip(b"abcdabcdabcdabcdabcdabcd");
        // Overlapping match (run-length idiom: distance < match length).
        compression_roundtrip(b"aaaaaaaaaaaaaaaaaaaaaaaaaaaab");
        // Pseudo-random (incompressible) bytes survive untouched.
        let noise: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        compression_roundtrip(&noise);
        // A long repetitive buffer must actually shrink.
        let repetitive: Vec<u8> = b"round census terminal valency "
            .iter()
            .cycle()
            .take(30_000)
            .copied()
            .collect();
        let packed = compression_roundtrip(&repetitive);
        assert!(
            packed < repetitive.len() / 4,
            "repetitive input must compress well: {packed} of {}",
            repetitive.len()
        );
    }

    #[test]
    fn reused_compressor_matches_fresh_compressor() {
        // The generation-stamped table makes reuse output-identical to a
        // fresh compressor: stale slots from earlier records never leak
        // matches into later ones.
        let inputs: Vec<Vec<u8>> = vec![
            b"abcdabcdabcdabcd".to_vec(),
            b"completely different content, no overlap".to_vec(),
            vec![0u8; 500],
            b"abcdabcdabcdabcd".to_vec(), // repeat of the first
            (0..512u32).map(|i| (i % 7) as u8).collect(),
        ];
        let mut reused = Compressor::new();
        let mut out = Vec::new();
        // The same for the decompressor's caller-owned buffer: what an
        // earlier record left in it never shows in a later one.
        let mut back = vec![0xEE; 7];
        for raw in &inputs {
            reused.compress_into(raw, &mut out);
            assert_eq!(out, compress(raw), "reuse must not change the encoding");
            decompress_into(&out, raw.len().max(1), &mut back).expect("decompresses");
            assert_eq!(&back, raw);
            assert_eq!(decompress(&out, raw.len().max(1)).as_ref(), Some(raw));
        }
    }

    #[test]
    fn decompress_rejects_malformed_input() {
        // Truncated compressed stream.
        let packed = compress(b"abcdabcdabcdabcdXYZ");
        for cut in 0..packed.len() {
            assert!(
                decompress(&packed[..cut], 1024).is_none(),
                "prefix of {cut} bytes must not decode"
            );
        }
        // Trailing garbage.
        let mut noisy = packed.clone();
        noisy.push(0x55);
        assert!(decompress(&noisy, 1024).is_none());
        // A length claim above the caller's bound is refused before any
        // allocation of that size.
        let mut absurd = Vec::new();
        encode_varint(u64::MAX, &mut absurd);
        assert!(decompress(&absurd, 1 << 20).is_none());
        // Distance reaching before the start of the output.
        let mut bad = Vec::new();
        encode_varint(8, &mut bad); // raw_len
        encode_varint(2, &mut bad); // two literals
        bad.extend_from_slice(b"ab");
        encode_varint(0, &mut bad); // match_len = MIN_MATCH
        encode_varint(7, &mut bad); // distance 7 > 2 bytes produced
        assert!(decompress(&bad, 1024).is_none());
        // Zero distance is never valid.
        let mut zero = Vec::new();
        encode_varint(8, &mut zero);
        encode_varint(2, &mut zero);
        zero.extend_from_slice(b"ab");
        encode_varint(0, &mut zero);
        encode_varint(0, &mut zero);
        assert!(decompress(&zero, 1024).is_none());
        // A match-length token near u64::MAX must be rejected before the
        // `+ MIN_MATCH` addition, not overflow it (debug panic).
        let mut huge = Vec::new();
        encode_varint(8, &mut huge);
        encode_varint(2, &mut huge);
        huge.extend_from_slice(b"ab");
        encode_varint(u64::MAX, &mut huge);
        encode_varint(1, &mut huge);
        assert!(decompress(&huge, 1024).is_none());
    }

    #[test]
    fn canonicalizer_sorts_and_pools() {
        let mut canon = Canonicalizer::new();
        for _ in 0..2 {
            // Two passes: the second reuses pooled buffers and must see
            // none of the first batch's bytes.
            canon.begin();
            assert!(canon.is_empty());
            canon.record().extend_from_slice(b"bb");
            canon.record().extend_from_slice(b"aa");
            canon.record().extend_from_slice(b"aa");
            canon.record().extend_from_slice(b"a");
            assert_eq!(canon.len(), 4);
            canon.sort();
            let sorted: Vec<(usize, &[u8])> = canon.iter_sorted().collect();
            // Byte order with index tie-break: "a" < "aa"(idx 1) <
            // "aa"(idx 2) < "bb".
            assert_eq!(
                sorted,
                vec![
                    (3, b"a".as_slice()),
                    (1, b"aa".as_slice()),
                    (2, b"aa".as_slice()),
                    (0, b"bb".as_slice()),
                ]
            );
        }
        // A shrinking batch must not resurrect stale records.
        canon.begin();
        canon.record().extend_from_slice(b"zz");
        canon.sort();
        assert_eq!(canon.iter_sorted().count(), 1);
    }

    #[test]
    fn value_swap_is_a_binary_involution() {
        // Defined exactly on the 1-bit alphabet, where it flips the bit.
        let zero = WideValue::new(1, 0);
        let one = WideValue::new(1, 1);
        assert_eq!(zero.value_swapped(), Some(one));
        assert_eq!(one.value_swapped(), Some(zero));
        assert_eq!(
            zero.value_swapped().and_then(|v| v.value_swapped()),
            Some(zero)
        );
        // Wider alphabets have no canonical involution: undefined.
        assert_eq!(WideValue::new(2, 3).value_swapped(), None);
        assert_eq!(WideValue::new(128, 42).value_swapped(), None);
        assert!(WideValue::value_symmetric());
        // The blanket defaults stay conservative: no primitive claims
        // value symmetry or an involution.
        assert!(!u64::value_symmetric());
        assert_eq!(7u64.value_swapped(), None);
        let ctx = SymmetryContext {
            round: 3,
            crash_budget: 1,
            actives_below: 2,
        };
        assert!(!7u64.rank_inert(&ctx), "default rank_inert opts out");
    }

    #[test]
    fn default_codec_is_not_pid_symmetric() {
        // The opt-in must never leak through the blanket defaults: every
        // primitive keeps `false`, and the default relabel is the plain
        // encoding.
        assert!(!u64::pid_symmetric());
        assert!(!ProcessId::pid_symmetric());
        assert!(!Vec::<u32>::pid_symmetric());
        let v = WideValue::new(4, 9);
        let mut a = Vec::new();
        let mut b = Vec::new();
        v.encode(&mut a);
        v.encode_relabelled(3, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_set_elements_rejected() {
        let mut buf = Vec::new();
        2u32.encode(&mut buf);
        5u64.encode(&mut buf);
        5u64.encode(&mut buf);
        let mut input = buf.as_slice();
        assert!(BTreeSet::<u64>::decode(&mut input).is_none());
    }
}
