//! The explorer's memo table: a hash-sharded, optionally **two-tier**
//! (RAM + disk) map from **canonical key bytes** to subtree summaries,
//! with export/import of whole memo images as portable interchange
//! segments.
//!
//! Keys are opaque byte strings — the canonical [`SpillCodec`] encoding
//! of a configuration, produced once per visit into a reusable scratch
//! buffer by the explorer ([`crate::explorer`]'s `make_key_into`) and
//! hashed exactly once with [`twostep_model::codec::stable_hash64`].
//! That single `u64` then does *all* the addressing work:
//!
//! * it picks the shard (top bits) and the slot inside the shard's hot
//!   table (a `HashMap<u64, HotEntry>` behind a pass-through hasher, the
//!   slot holding its one entry inline — the key bytes are **never
//!   re-hashed**, not by the shard map and not by the spill index);
//! * it is the fixed-width key of the cold tier's on-disk record index,
//!   whose slot holds the record's address inline: a spilled state keeps
//!   24 bytes of RAM (plus table slack), not its key;
//! * it is the partitioning hash of distributed exploration — stable
//!   across processes, builds, and platforms by construction.
//!
//! Distinct keys that collide on the 64-bit hash chain — past the hot
//! table's and the spill index's inline slots, each in a side table of
//! its own — and are told apart by comparing full key bytes; a collision
//! costs one extra `memcmp`, never a wrong answer.
//!
//! Tier one is a bounded per-shard table of live `Arc<Summary>` values —
//! the *hot* tier (`hot.rs`).  An entry owns no allocation: its key
//! bytes are copied once, at admission, into an append-only arena of
//! byte chunks that belongs to the shard, and the entry names them by
//! position and length, so a hot state costs its key bytes plus one
//! 32-byte table slot.  Every integer in a key is a minimal LEB128
//! varint, so a CRW (8,7) key averages 29.7 bytes (fixed-width integers
//! made it 96.8).  The tier sits behind an `RwLock` whose **read lock
//! suffices for a hit**: lookups in a warm or late-stage walk (where
//! hits dominate) take the shared lock, compare bytes, bump an
//! atomic clock bit, and leave; only misses that must consult the disk
//! tier, and inserts, take the write lock.  When
//! [`MemoConfig::hot_capacity`] is finite, each shard evicts its coldest
//! entries (clock / second-chance order) to tier two: an append-only segment file per shard
//! (`crate::spill::SegmentStore`) whose records hold the **full key
//! bytes and summary**, addressed by the in-memory hash index.  A lookup
//! that misses the hot tier probes the index by hash, rehydrates each
//! candidate record — borrowed from the store's write-behind tail or
//! from one of its cached blocks of the segment file, checked against
//! its length prefix and CRC, and lent as it was stored — reads its
//! summary through the shard's summary table (below), and accepts it
//! only if the stored key bytes equal the probe exactly.  Whole-memo
//! visits (`ShardedMemo::for_each`, the exports) take from each shard's
//! hot table only the entries with no record, then every record in file
//! order, never in the index's hash order, so they read every block
//! once; a key with a record is met through it, so no visit hashes a
//! record's key or probes the hot table for it.
//!
//! Storing the key as its canonical bytes is also what makes segment
//! files cheap to move: a record is `[varint key_len][key bytes][summary]`,
//! so admitting (into the shard's key arena), spilling, exporting
//! (`ShardedMemo::export_to`), and importing
//! (`ShardedMemo::import_from`) all copy the key bytes verbatim — no
//! structured re-encode anywhere on those paths, and a spilled record
//! ships verbatim: the export hands the very payload the store holds to
//! the export writer, which stores it as it is.
//!
//! **Summaries are shared by their bytes.**  Every path that reads a
//! record back — a rehydrate, the census / `find_map` scan, an import —
//! decodes its summary through a `SummaryTable`: 256 slots, direct-mapped
//! by [`stable_hash64`] of the summary bytes, each holding those bytes
//! and their decoded `Arc<Summary>`.  A slot holding the same bytes
//! answers with a clone of its `Arc` — summaries are immutable, so
//! sharing one is sharing a value — and a miss decodes exactly as a
//! table-less read would, so undecodable bytes are still
//! [`SpillError::Corrupt`], found before any key is compared, and never
//! take a slot.  The paper's bound is why this pays: every run decides
//! by round `f + 1`, so a walk's summaries take very few distinct byte
//! strings (64 distinct terminal summaries at CRW (8,7)), and a slot
//! answers ≈ 94 % of the decodes of an (8,7) walk at 2 % hot.  A shard
//! builds its table on its first rehydrate or scan (an all-RAM memo
//! never does); an import builds one for the call, and passes each
//! summary it reads through a summary interner of the call's own, so
//! that equal values are one `Arc` across the import, whatever the
//! table's slots have lost.
//!
//! Two invariants make the tiers invisible to the exploration result:
//!
//! * **membership is exact** — a key is "memoized" iff it is in the hot
//!   table or (by full-byte comparison against its record) the spill
//!   index, so `get`/`insert` answer exactly as a flat map would;
//!   eviction never forgets a key (only its residence changes), so
//!   `distinct` still counts fresh insertions and the `max_states`
//!   budget and `distinct_states` are unaffected;
//! * **summaries are immutable** — once inserted, a summary never
//!   changes, so a record spilled once is never rewritten: re-evicting a
//!   rehydrated entry just drops the hot copy and keeps the old record
//!   (tracked by a per-entry `spilled` bit).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use twostep_model::codec::stable_hash64;
use twostep_sim::SyncProtocol;

use self::hot::{HotTable, KEY_CHUNK};

use crate::explorer::{Summary, SummaryInterner};
use crate::spill::{
    decode_summary, encode_summary, SegmentReader, SegmentStore, SegmentWriter, SpillCodec,
    SpillDir, SpillError, SpillRef,
};

mod hot;

/// Memo-tier configuration: how many summaries stay hot in RAM and where
/// cold ones spill.
///
/// The default ([`MemoConfig::all_ram`]) keeps every entry in memory —
/// behavior identical to the pre-spill engine.  Setting a finite
/// [`hot_capacity`](Self::hot_capacity) enables the disk tier: the memo
/// keeps at most that many entries hot (split across shards, minimum
/// one per shard) and spills the rest — keys *and* summaries — to
/// segment files under [`spill_dir`](Self::spill_dir), or under a fresh
/// directory inside the system temp dir when `None`.  Either way the
/// segment files live in a unique per-exploration subdirectory that is
/// removed when the exploration finishes (the caller's `spill_dir` root
/// itself is never deleted).
///
/// Spilling changes **only** memory residence: reports are bit-identical
/// to the all-RAM engine at any `hot_capacity` and any thread count, and
/// the `max_states` budget still counts *distinct* configurations, not
/// resident ones — which is the point: `max_states` stops being a RAM
/// bound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemoConfig {
    /// Target number of entries resident in RAM, split evenly across
    /// the engine's shards; `usize::MAX` (the default) disables the disk
    /// tier entirely.  The split quantizes: each shard holds at least one
    /// hot entry, so actual residency is
    /// `shards · max(1, hot_capacity / shards)` — up to `shards` entries
    /// when `hot_capacity < shards`.  Results never depend on the value,
    /// only memory/IO do.  A hot state keeps its key bytes (in its
    /// shard's arena of 64 KiB chunks) and a 32-byte table slot in RAM,
    /// plus a 16-byte clock item when this is finite; a state past the
    /// hot tier keeps a 24-byte index slot (its hash and its record's
    /// address), whatever its key's length.  Each hashed table adds its
    /// slack: it runs at most 7/8 full and grows by doubling.  A hot
    /// state's summary is an `Arc` in its slot, shared with every
    /// state whose summary is equal: a walker interns each summary it
    /// memoizes, so a state's summary costs it no allocation of its own.
    /// The walker's interner keeps each distinct summary it met alive
    /// for the run, whatever this is — and these are few: 6 605 over
    /// the 679 349 states of CRW `(10, 9)` with symmetry off, 1 877 of
    /// them the shapes of its block cache.  That cache is the walker's
    /// other RAM past the memo, whatever this is: a 16-byte slot per
    /// block it can hold, each held block's content at its own length
    /// plus three varints, and the cache doubles with the blocks the
    /// walk stores — at the end of the serial CRW walks with symmetry
    /// off 8 192 slots and 0.5 MiB at `(8, 7)`, 2.0 MiB at `(9, 8)` and
    /// 8.7 MiB at `(10, 9)` (allocated: slots and arena capacity); under
    /// `partial+value` 0.25, 1.0 and 2.4 MiB.
    pub hot_capacity: usize,
    /// Root directory for segment files (`None` = system temp dir).
    /// Ignored unless `hot_capacity` is finite.
    pub spill_dir: Option<PathBuf>,
}

impl Default for MemoConfig {
    fn default() -> Self {
        Self::all_ram()
    }
}

impl MemoConfig {
    /// Everything stays in RAM — the pre-spill engine, unchanged.
    pub fn all_ram() -> Self {
        MemoConfig {
            hot_capacity: usize::MAX,
            spill_dir: None,
        }
    }

    /// Spill to a fresh directory under the system temp dir, keeping at
    /// most `hot_capacity` entries in RAM.
    pub fn spill(hot_capacity: usize) -> Self {
        MemoConfig {
            hot_capacity,
            spill_dir: None,
        }
    }

    /// Spill to a fresh subdirectory of `dir`, keeping at most
    /// `hot_capacity` entries in RAM.
    pub fn spill_to(hot_capacity: usize, dir: impl Into<PathBuf>) -> Self {
        MemoConfig {
            hot_capacity,
            spill_dir: Some(dir.into()),
        }
    }

    /// Whether the disk tier is active.
    pub fn spill_enabled(&self) -> bool {
        self.hot_capacity != usize::MAX
    }
}

/// The round a canonical key encoding begins with (its first field) —
/// the census decodes it off the front of the bytes and nothing else.
pub(crate) fn key_round(mut key: &[u8]) -> u32 {
    u32::decode(&mut key).expect("keys start with a round")
}

/// Walks a full configuration key at the front of `input` (the inverse
/// of the explorer's `make_key_into` encoding — symmetry-canonicalized
/// keys use the same record grammar, only in a different record order),
/// advancing past it; `None` on malformed bytes.  Nothing structural is
/// retained: the hot path keys by canonical bytes and witness
/// reconstruction re-drives from the run's stored initial processes, so
/// decoding exists purely to *validate* imported segments.
pub(crate) fn decode_key_prefix<P>(input: &mut &[u8]) -> Option<()>
where
    P: SyncProtocol + SpillCodec,
    P::Output: SpillCodec,
{
    let _round = u32::decode(input)?;
    let len = u32::decode(input)? as usize;
    for _ in 0..len {
        let tag = u8::decode(input)?;
        match tag {
            0 => {
                P::decode(input)?;
            }
            1 => {
                let _value = P::Output::decode(input)?;
                let _decided_round = u32::decode(input)?;
            }
            2 => {
                let _decision = Option::<(P::Output, u32)>::decode(input)?;
            }
            // Rank-inert active (pooled symmetry plan): the protocol
            // state, owner-stripped via `encode_relabelled(0, ..)` —
            // which is still a valid protocol encoding to walk past.
            3 => {
                P::decode(input)?;
            }
            _ => return None,
        }
    }
    Some(())
}

// ---------------------------------------------------------------------------
// Entry codec: (key bytes, summary) records
// ---------------------------------------------------------------------------

/// Appends the self-contained record for one memo entry — the canonical
/// key bytes (length-prefixed, copied verbatim), then the summary — to
/// `out`.  This is both the spill-tier record format and the distributed
/// interchange format (segment format v6: every integer a varint).
pub(crate) fn encode_entry<O>(key: &[u8], summary: &Summary<O>, out: &mut Vec<u8>)
where
    O: SpillCodec,
{
    (key.len() as u32).encode(out);
    out.extend_from_slice(key);
    encode_summary(summary, out);
}

/// Borrows just the key bytes off the front of a record, advancing the
/// input past them — used where the summary is not needed (export's
/// hot-tier dedup check).
pub(crate) fn split_key_prefix<'a>(input: &mut &'a [u8]) -> Option<&'a [u8]> {
    let len = u32::decode(input)? as usize;
    twostep_model::codec::take(input, len)
}

/// Slots of a [`SummaryTable`].
const SUMMARY_SLOTS: usize = 256;

/// A decoded summary and the bytes it was decoded from.
struct Decoded<O> {
    bytes: Vec<u8>,
    summary: Arc<Summary<O>>,
}

/// Summaries decoded from records, direct-mapped by [`stable_hash64`]
/// of their bytes — the module docs' *summaries are shared by their
/// bytes*.  Allocates nothing until first used.
struct SummaryTable<O> {
    /// [`SUMMARY_SLOTS`] slots once used, none before.
    slots: Vec<Option<Decoded<O>>>,
}

impl<O: SpillCodec> SummaryTable<O> {
    fn new() -> Self {
        SummaryTable { slots: Vec::new() }
    }

    /// Splits a record produced by [`encode_entry`] into its borrowed
    /// key bytes and its summary: the one a slot holds for the same
    /// summary bytes, or else a fresh decode that `accept`s, which then
    /// takes the slot.  `None` on truncated, malformed or
    /// trailing-garbage input, or a summary `accept` refuses — and the
    /// table is left as it was.  A table is asked with one `accept`
    /// throughout, so a slot only ever holds what it would accept.
    fn split_entry<'a>(
        &mut self,
        payload: &'a [u8],
        accept: impl FnOnce(&Summary<O>) -> bool,
    ) -> Option<(&'a [u8], Arc<Summary<O>>)> {
        let mut bytes = payload;
        let key = split_key_prefix(&mut bytes)?;
        if self.slots.is_empty() {
            self.slots.resize_with(SUMMARY_SLOTS, || None);
        }
        let slot = &mut self.slots[stable_hash64(bytes) as usize % SUMMARY_SLOTS];
        if let Some(held) = slot.as_ref().filter(|held| held.bytes == bytes) {
            return Some((key, Arc::clone(&held.summary)));
        }
        let summary = Arc::new(decode_summary::<O>(bytes).filter(accept)?);
        match slot {
            Some(held) => {
                held.bytes.clear();
                held.bytes.extend_from_slice(bytes);
                held.summary = Arc::clone(&summary);
            }
            None => {
                *slot = Some(Decoded {
                    bytes: bytes.to_vec(),
                    summary: Arc::clone(&summary),
                })
            }
        }
        Some((key, summary))
    }
}

/// What an import accepts of a foreign `(key, summary)` record once its
/// frame and CRC have passed: key bytes the protocol's key decoder
/// accepts, and a summary shaped like the ones a walk at crash budget
/// `t` builds — `t + 1` worst-round entries, no value decided twice.
/// Either failure is [`SpillError::Corrupt`]: a summary with the wrong
/// number of rounds would be merged by `Summary::absorb`, whose `zip`
/// silently drops rounds, and a repeated value would read as bivalent
/// in the census.
#[derive(Clone, Copy)]
pub(crate) struct EntryValidator {
    key: fn(&[u8]) -> bool,
    t: usize,
}

impl EntryValidator {
    /// Accepts the keys `key` accepts and the summaries of crash budget
    /// `t`.
    pub(crate) fn new(key: fn(&[u8]) -> bool, t: usize) -> Self {
        EntryValidator { key, t }
    }

    fn accepts_summary<O: Eq>(&self, summary: &Summary<O>) -> bool {
        let decided = &summary.decided;
        summary.worst_round_by_f.len() == self.t + 1
            && (1..decided.len()).all(|i| !decided[..i].contains(&decided[i]))
    }
}

// ---------------------------------------------------------------------------
// Shards
// ---------------------------------------------------------------------------

/// Pass-through hasher for the shard tables: the key bytes were already
/// hashed once ([`stable_hash64`], well-mixed in every bit), so the maps
/// keyed by that `u64` must not pay a second hash — this hasher just
/// forwards the value.  Shard selection uses the *top* bits
/// ([`ShardedMemo::shard_of`]) precisely so that the low bits feeding
/// the buckets stay unconstrained within a shard.
#[derive(Default)]
struct PassThroughHasher(u64);

impl Hasher for PassThroughHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("the memo's tables are keyed by u64 hashes only")
    }
    fn write_u64(&mut self, value: u64) {
        self.0 = value;
    }
}

type PassThroughState = BuildHasherDefault<PassThroughHasher>;

/// One spilled record's address plus its freshness — the cold-tier twin
/// of `HotEntry::fresh`, so delta export survives eviction.  16 bytes,
/// kept inline in the spill index: a spilled state costs its table slot
/// and no allocation of its own.
struct SpillSlot {
    spill_ref: SpillRef,
    fresh: bool,
}

/// A rehydrated summary paired with its record's freshness bit.
type Rehydrated<O> = Option<(Arc<Summary<O>>, bool)>;

/// A spilled record passed its CRC yet is not a `(key, summary)` entry.
fn undecodable_entry(spill_ref: &SpillRef) -> SpillError {
    SpillError::corrupt(format!(
        "undecodable entry record at segment {} offset {}",
        spill_ref.segment, spill_ref.offset
    ))
}

/// One memo shard: its hot tier ([`HotTable`], whose key bytes live in
/// the shard's own arena) and its spill index.  Both are keyed by the
/// precomputed 64-bit key hash behind a pass-through hasher, each holding
/// the first entry under a hash inline; 64-bit collisions chain in a side
/// table (the hot tier's own, or `collided` for the spill index) and are
/// resolved by comparing full key bytes.
struct Shard<O> {
    hot: HotTable<O>,
    /// The first spilled record under each key hash, inline.
    index: HashMap<u64, SpillSlot, PassThroughState>,
    /// Further spilled records whose keys share their hash with one in
    /// `index` — empty unless two keys collide on all 64 bits.
    collided: HashMap<u64, Vec<SpillSlot>, PassThroughState>,
    store: Option<SegmentStore>,
    /// The summaries of the records read back from `store`.
    summaries: SummaryTable<O>,
    /// Reusable encode buffer for evictions.
    scratch: Vec<u8>,
}

impl<O> Shard<O>
where
    O: Clone + Eq + SpillCodec,
{
    fn new(store: Option<SegmentStore>, hot: HotTable<O>) -> Self {
        Shard {
            hot,
            index: HashMap::default(),
            collided: HashMap::default(),
            store,
            summaries: SummaryTable::new(),
            scratch: Vec::new(),
        }
    }

    /// Indexes a record just appended under `hash`: inline if the hash
    /// has no record yet, else in `collided`.
    fn index_spilled(&mut self, hash: u64, slot: SpillSlot) {
        match self.index.entry(hash) {
            std::collections::hash_map::Entry::Vacant(vacant) => {
                vacant.insert(slot);
            }
            std::collections::hash_map::Entry::Occupied(_) => {
                self.collided.entry(hash).or_default().push(slot);
            }
        }
    }

    /// Finds `key`'s spilled record, if any: probes the hashed index —
    /// its inline slot, then any records that collided with it — and
    /// verifies candidates by full-key-byte comparison.  Returns the
    /// summary together with the record's freshness; the caller promotes
    /// the result back to the hot tier via [`Self::admit`].
    fn rehydrate(&mut self, hash: u64, key: &[u8]) -> Result<Rehydrated<O>, SpillError> {
        // Destructure so the index borrow and the store's and table's
        // mutable borrows are disjoint — this is the cold-tier hot path:
        // the payload is lent from the store's buffers, and nothing is
        // allocated unless its summary bytes miss the table.
        let Shard {
            index,
            collided,
            store,
            summaries,
            ..
        } = self;
        let collisions = collided.get(&hash).into_iter().flatten();
        for slot in index.get(&hash).into_iter().chain(collisions) {
            let payload = store
                .as_mut()
                .expect("spill index entries require a segment store")
                .read(&slot.spill_ref)?;
            let (stored_key, summary) = summaries
                .split_entry(payload, |_| true)
                .ok_or_else(|| undecodable_entry(&slot.spill_ref))?;
            if stored_key == key {
                return Ok(Some((summary, slot.fresh)));
            }
        }
        Ok(None)
    }

    /// Makes `key` hot under `hash`, evicting first if the tier is
    /// full.  The key bytes are copied into the shard's arena.
    fn admit(
        &mut self,
        hash: u64,
        key: &[u8],
        summary: Arc<Summary<O>>,
        spilled: bool,
        fresh: bool,
        hot_capacity: usize,
    ) -> Result<(), SpillError> {
        if hot_capacity != usize::MAX {
            while self.hot.len() >= hot_capacity {
                self.evict_one()?;
            }
        }
        self.hot.insert(hash, key, summary, spilled, fresh);
        Ok(())
    }

    /// Evicts exactly one hot entry in clock (second-chance) order,
    /// spilling its full `(key bytes, summary)` record unless one
    /// already exists.  After this, the evicted key's only full copy
    /// lives on disk — the RAM cost of a cold entry is its 24-byte index
    /// slot (hash and [`SpillSlot`]) plus the table's slack: a hashed
    /// table runs at most 7/8 full, and grows by doubling.
    fn evict_one(&mut self) -> Result<(), SpillError> {
        let Shard {
            hot,
            store,
            scratch,
            ..
        } = self;
        let mut record = None;
        hot.evict(|hash, key, entry| {
            if !entry.spilled {
                scratch.clear();
                encode_entry(key, &entry.summary, scratch);
                let spill_ref = store
                    .as_mut()
                    .expect("bounded hot tier requires a segment store")
                    .append(scratch)?;
                let fresh = entry.fresh;
                record = Some((hash, SpillSlot { spill_ref, fresh }));
            }
            Ok(())
        })?;
        if let Some((hash, slot)) = record {
            self.index_spilled(hash, slot);
        }
        Ok(())
    }
}

/// The memo table, split into hash-addressed shards behind `RwLock`s so
/// concurrent walkers rarely contend — and, on the dominant hit path,
/// share the lock instead of serializing on it.  Each shard holds a hot
/// RAM tier and (under a finite [`MemoConfig::hot_capacity`]) a cold
/// disk tier, both addressed by the key's single precomputed hash.
///
/// `distinct` counts *fresh* key insertions only: racing walkers that
/// compute the same subtree insert identical summaries, the first wins,
/// and the count stays equal to the key-set cardinality — which is what
/// makes the state budget and `distinct_states` deterministic, spilled
/// or not.
pub(crate) struct ShardedMemo<O> {
    shards: Vec<RwLock<Shard<O>>>,
    distinct: AtomicUsize,
    /// Distinct entries that arrived via [`Self::import_seed_from`] — the
    /// persistent-cache / distributed-seed pre-seeds, as opposed to
    /// entries this run computed (or imported as another run's delta).
    /// `distinct - seeded` is the delta [`Self::export_delta`] writes.
    seeded: AtomicUsize,
    /// Approximate resident-plus-spilled footprint in bytes: per distinct
    /// entry, its key length plus a flat per-record overhead.  Kept as a
    /// relaxed counter so the frame-stepped arbiter can enforce a
    /// `max_memo_bytes` budget without walking the shards.
    approx_bytes: AtomicU64,
    /// Hot entries allowed per shard; `usize::MAX` = unbounded (no spill).
    per_shard_hot: usize,
    /// Owns the on-disk spill directory; dropped (and removed) with the
    /// memo.
    _spill_dir: Option<SpillDir>,
}

impl<O> ShardedMemo<O>
where
    O: Clone + Eq + SpillCodec,
{
    pub(crate) fn new(shards: usize, config: &MemoConfig) -> Result<Self, SpillError> {
        Self::with_key_chunk(shards, config, KEY_CHUNK)
    }

    /// [`Self::new`] with `key_chunk`-byte key chunks — tests shrink
    /// them so that compaction runs every few evictions.
    fn with_key_chunk(
        shards: usize,
        config: &MemoConfig,
        key_chunk: usize,
    ) -> Result<Self, SpillError> {
        let shards = shards.max(1);
        let (spill_dir, per_shard_hot) = if config.spill_enabled() {
            let dir = SpillDir::create(config.spill_dir.as_deref())?;
            (Some(dir), (config.hot_capacity / shards).max(1))
        } else {
            (None, usize::MAX)
        };
        let shard_vec = (0..shards)
            .map(|i| {
                let store = spill_dir
                    .as_ref()
                    .map(|dir| SegmentStore::new(dir.path(), i));
                let hot = HotTable::new(store.is_some(), key_chunk);
                RwLock::new(Shard::new(store, hot))
            })
            .collect();
        Ok(ShardedMemo {
            shards: shard_vec,
            distinct: AtomicUsize::new(0),
            seeded: AtomicUsize::new(0),
            approx_bytes: AtomicU64::new(0),
            per_shard_hot,
            _spill_dir: spill_dir,
        })
    }

    /// Shard selection uses the hash's **top** 32 bits: the shard tables'
    /// pass-through hasher feeds the *low* bits to the bucket mask, so
    /// the two must draw on disjoint parts of the hash or every bucket
    /// inside a shard would share its low bits.
    fn shard_of(&self, hash: u64) -> usize {
        ((hash >> 32) as usize) % self.shards.len()
    }

    /// Looks `key` (with its precomputed `hash`) up across both tiers.
    ///
    /// The hit path — dominant in warm and late-exploration walks —
    /// takes only the shard's **read** lock: probe the slot, compare
    /// the key bytes in the arena, set the atomic clock bit, clone the
    /// `Arc`.  Only a miss with a disk tier to consult (rehydrate +
    /// promote mutate the shard) upgrades to the write lock.
    pub(crate) fn get(&self, hash: u64, key: &[u8]) -> Result<Option<Arc<Summary<O>>>, SpillError> {
        let lock = &self.shards[self.shard_of(hash)];
        {
            let shard = lock.read().expect("memo shard poisoned");
            if let Some(entry) = shard.hot.get(hash, key) {
                entry.referenced.store(true, Ordering::Relaxed);
                return Ok(Some(Arc::clone(&entry.summary)));
            }
        }
        if self.per_shard_hot == usize::MAX {
            // All-RAM memo: a hot miss is a miss, no tier below.
            return Ok(None);
        }
        let mut shard = lock.write().expect("memo shard poisoned");
        if let Some(entry) = shard.hot.get(hash, key) {
            // A racing walker promoted it between our locks.
            entry.referenced.store(true, Ordering::Relaxed);
            return Ok(Some(Arc::clone(&entry.summary)));
        }
        match shard.rehydrate(hash, key)? {
            Some((summary, fresh)) => {
                // Promote: the full key re-enters the arena from the
                // probe's bytes (identical to the record's copy by
                // construction).
                shard.admit(
                    hash,
                    key,
                    Arc::clone(&summary),
                    true,
                    fresh,
                    self.per_shard_hot,
                )?;
                Ok(Some(summary))
            }
            None => Ok(None),
        }
    }

    /// Inserts if absent; returns the canonical summary for the key (the
    /// existing one on a race) so all holders share one `Arc`.
    pub(crate) fn insert(
        &self,
        hash: u64,
        key: &[u8],
        summary: Arc<Summary<O>>,
    ) -> Result<Arc<Summary<O>>, SpillError> {
        self.insert_inner(hash, key, summary, true)
    }

    fn insert_inner(
        &self,
        hash: u64,
        key: &[u8],
        summary: Arc<Summary<O>>,
        fresh: bool,
    ) -> Result<Arc<Summary<O>>, SpillError> {
        let lock = &self.shards[self.shard_of(hash)];
        let mut shard = lock.write().expect("memo shard poisoned");
        if let Some(entry) = shard.hot.get(hash, key) {
            entry.referenced.store(true, Ordering::Relaxed);
            return Ok(Arc::clone(&entry.summary));
        }
        if self.per_shard_hot != usize::MAX {
            if let Some((existing, was_fresh)) = shard.rehydrate(hash, key)? {
                shard.admit(
                    hash,
                    key,
                    Arc::clone(&existing),
                    true,
                    was_fresh,
                    self.per_shard_hot,
                )?;
                return Ok(existing);
            }
        }
        shard.admit(
            hash,
            key,
            Arc::clone(&summary),
            false,
            fresh,
            self.per_shard_hot,
        )?;
        self.distinct.fetch_add(1, Ordering::Relaxed);
        // Flat per-record estimate: key bytes + entry bookkeeping (hash,
        // table slot), over-approximated.  The budget this feeds is a
        // soft limit, so "approximately right, always monotone" is
        // enough.
        self.approx_bytes
            .fetch_add(key.len() as u64 + 64, Ordering::Relaxed);
        if !fresh {
            self.seeded.fetch_add(1, Ordering::Relaxed);
        }
        Ok(summary)
    }

    /// Distinct configurations memoized so far (hot + spilled).
    pub(crate) fn len(&self) -> usize {
        self.distinct.load(Ordering::Relaxed)
    }

    /// Distinct configurations that were pre-seeded via
    /// [`Self::import_seed_from`] — the persistent cache's contribution.
    pub(crate) fn seeded_len(&self) -> usize {
        self.seeded.load(Ordering::Relaxed)
    }

    /// Approximate total footprint of the memo in bytes (see
    /// [`ShardedMemo::approx_bytes`]'s field docs).  Monotone over a run.
    pub(crate) fn approx_bytes(&self) -> u64 {
        self.approx_bytes.load(Ordering::Relaxed)
    }

    /// Visits every memoized entry as `(key bytes, summary)` — each
    /// shard's hot entries that have no record first, then every record
    /// in file order (single-threaded, post-exploration).
    pub(crate) fn for_each(
        &self,
        mut f: impl FnMut(&[u8], &Arc<Summary<O>>),
    ) -> Result<(), SpillError> {
        self.find_map(|key, summary| {
            f(key, summary);
            None::<()>
        })
        .map(|_| ())
    }

    /// First `Some` produced by `f` over the memoized entries, stopping
    /// the scan as soon as it is found.  Each key is met exactly once:
    /// a hot entry whose `spilled` bit is clear from the hot table, every
    /// other key through its one record — a key both hot and spilled
    /// included, whose summary the record holds too, since summaries are
    /// immutable and a record is never rewritten.  So a record costs no
    /// hash and no hot probe.
    pub(crate) fn find_map<R>(
        &self,
        mut f: impl FnMut(&[u8], &Arc<Summary<O>>) -> Option<R>,
    ) -> Result<Option<R>, SpillError> {
        for lock in &self.shards {
            let mut shard = lock.write().expect("memo shard poisoned");
            for (key, entry) in shard.hot.entries().filter(|(_, e)| !e.spilled) {
                if let Some(found) = f(key, &entry.summary) {
                    return Ok(Some(found));
                }
            }
            let Shard {
                store, summaries, ..
            } = &mut *shard;
            let Some(store) = store else { continue };
            let mut found = None;
            // The store is walked front to back rather than through the
            // index: hash order would scatter the reads over its blocks.
            store.scan(|spill_ref, payload| {
                let (key, summary) = summaries
                    .split_entry(payload, |_| true)
                    .ok_or_else(|| undecodable_entry(&spill_ref))?;
                found = f(key, &summary);
                Ok(found.is_none())
            })?;
            if found.is_some() {
                return Ok(found);
            }
        }
        Ok(None)
    }

    /// Exports every memoized entry — full key bytes and summaries — as
    /// one sealed interchange segment file at `path`, overwriting it.
    /// Returns the number of records written.
    ///
    /// The file is self-contained and position-independent: importing it
    /// into any fresh memo (any shard count, any tiering) reproduces the
    /// exact key → summary mapping, which is what lets distributed
    /// workers hand their results to the coordinator.
    pub(crate) fn export_to(&self, path: &Path) -> Result<u64, SpillError> {
        self.export_filtered(path, false)
    }

    /// Exports only the **fresh** entries — those inserted by this run's
    /// own exploration (or imported as another run's delta), excluding
    /// everything pre-seeded via [`Self::import_seed_from`] — as one
    /// sealed interchange segment at `path`.  This is the persistent
    /// cache's delta commit and the distributed worker's export: a
    /// warm-started run ships what it *added*, not a re-image of the
    /// whole memo.  With no seed imported, the delta **is** the full
    /// image.  Returns the number of records written.
    pub(crate) fn export_delta(&self, path: &Path) -> Result<u64, SpillError> {
        self.export_filtered(path, true)
    }

    fn export_filtered(&self, path: &Path, only_fresh: bool) -> Result<u64, SpillError> {
        let mut writer = SegmentWriter::create(path)?;
        let mut scratch: Vec<u8> = Vec::new();
        for lock in &self.shards {
            let mut shard = lock.write().expect("memo shard poisoned");
            // The census's order: a key with a record ships as that
            // record, verbatim.
            for (key, entry) in shard.hot.entries() {
                if entry.spilled || (only_fresh && !entry.fresh) {
                    continue;
                }
                scratch.clear();
                encode_entry(key, &entry.summary, &mut scratch);
                writer.append(&scratch)?;
            }
            let Shard {
                index,
                collided,
                store,
                ..
            } = &mut *shard;
            let Some(store) = store else { continue };
            // Freshness lives in the index slot that addresses a record:
            // the seeded ones, sorted into file order, are what a delta
            // skips.
            let mut seeded: Vec<SpillRef> = if only_fresh {
                let slots = index.values().chain(collided.values().flatten());
                slots.filter(|s| !s.fresh).map(|s| s.spill_ref).collect()
            } else {
                Vec::new()
            };
            seeded.sort_unstable();
            store.scan(|spill_ref, payload| {
                if seeded.binary_search(&spill_ref).is_err() {
                    writer.append(payload)?;
                }
                Ok(true)
            })?;
        }
        writer.finish()
    }

    /// Merges an interchange segment file written by [`Self::export_to`]
    /// / [`Self::export_delta`] into this memo — validating header, CRCs,
    /// record count, and every record's shape, and rejecting any record
    /// the caller's `validator` ([`entry_validator`]) refuses: key bytes
    /// the protocol's canonical-key decoder does not accept, or a
    /// summary not shaped for the run's crash budget.  Such a record
    /// slipped past the CRC and must classify as [`SpillError::Corrupt`]
    /// here, at the trust boundary, not panic or skew a merge later in
    /// the walk, the census or the witness paths.  Summaries decode once
    /// per distinct byte string (and are checked then), through a
    /// summary table of the call's own.  Accepted key bytes are adopted
    /// verbatim (hashed once, never structurally re-encoded); records
    /// whose key is already present are skipped (their summaries are
    /// necessarily identical, both being the deterministic merge for
    /// that key).  Imported entries count as **fresh** — this is how a
    /// coordinator absorbs worker deltas it must itself re-export.
    /// Returns the number of records read.
    pub(crate) fn import_from(
        &self,
        path: &Path,
        validator: EntryValidator,
    ) -> Result<u64, SpillError>
    where
        O: Hash,
    {
        self.import_inner(path, validator, true)
    }

    /// [`Self::import_from`], but the entries count as **seeded** (not
    /// fresh): they pre-existed this run — a persistent cache image or a
    /// distributed seed segment — so [`Self::export_delta`] excludes
    /// them and [`Self::seeded_len`] reports them as cache hits.
    pub(crate) fn import_seed_from(
        &self,
        path: &Path,
        validator: EntryValidator,
    ) -> Result<u64, SpillError>
    where
        O: Hash,
    {
        self.import_inner(path, validator, false)
    }

    fn import_inner(
        &self,
        path: &Path,
        validator: EntryValidator,
        fresh: bool,
    ) -> Result<u64, SpillError>
    where
        O: Hash,
    {
        let mut reader = SegmentReader::open(path)?;
        let mut summaries = SummaryTable::new();
        // The table decodes each distinct byte string about once; the
        // interner makes each distinct value one `Arc` across the call,
        // whatever the table's slots have lost.
        let mut interner = SummaryInterner::new();
        let mut records = 0u64;
        while let Some(payload) = reader.next_record()? {
            let (key, summary) = summaries
                .split_entry(payload, |summary| validator.accepts_summary(summary))
                .ok_or_else(|| {
                    SpillError::corrupt(format!(
                        "{}: record {records} holds no entry of crash budget {} \
                         (undecodable, or a summary of the wrong shape)",
                        path.display(),
                        validator.t
                    ))
                })?;
            if !(validator.key)(key) {
                return Err(SpillError::corrupt(format!(
                    "{}: record {records} holds undecodable key bytes",
                    path.display()
                )));
            }
            let summary = interner.shared(summary);
            self.insert_inner(stable_hash64(key), key, summary, fresh)?;
            records += 1;
        }
        Ok(records)
    }
}

/// The import validator for protocol `P` at crash budget `t`: keys are
/// exactly the byte strings that decode as one self-delimiting
/// configuration key (`make_key_into`'s output), summaries are shaped
/// for `t` ([`EntryValidator`]).  Import paths run every foreign record
/// through this before adopting it.
pub(crate) fn entry_validator<P>(t: usize) -> EntryValidator
where
    P: SyncProtocol + SpillCodec,
    P::Output: SpillCodec,
{
    EntryValidator::new(
        |key| {
            let mut input = key;
            decode_key_prefix::<P>(&mut input).is_some() && input.is_empty()
        },
        t,
    )
}

#[cfg(test)]
mod tests {
    use super::hot::{ClockItem, HotEntry};
    use super::*;
    use proptest::prelude::*;

    /// A deterministic canonical-looking key for index `i`: round prefix
    /// plus some payload bytes of varying length.
    fn key_for(i: u64) -> Vec<u8> {
        let mut key = Vec::new();
        ((i % 7) as u32 + 1).encode(&mut key);
        2u32.encode(&mut key);
        key.push(0);
        i.encode(&mut key);
        key.extend(std::iter::repeat_n(0xA5, (i % 5) as usize));
        key
    }

    fn hash_for(key: &[u8]) -> u64 {
        stable_hash64(key)
    }

    /// The summary every thread must agree on for key `i`.
    fn summary_for(i: u64) -> Summary<u64> {
        Summary {
            terminals: i + 1,
            worst_round_by_f: vec![Some(i as u32), None],
            decided: vec![i, i + 100],
            violating: i.is_multiple_of(3),
        }
    }

    fn insert(memo: &ShardedMemo<u64>, i: u64) -> Arc<Summary<u64>> {
        let key = key_for(i);
        memo.insert(hash_for(&key), &key, Arc::new(summary_for(i)))
            .unwrap()
    }

    fn get(memo: &ShardedMemo<u64>, i: u64) -> Option<Arc<Summary<u64>>> {
        let key = key_for(i);
        memo.get(hash_for(&key), &key).unwrap()
    }

    /// Any key bytes, and the summaries [`summary_for`] builds (`t = 1`).
    fn any_key() -> EntryValidator {
        EntryValidator::new(|_| true, 1)
    }

    #[test]
    fn entry_record_roundtrips() {
        let key = key_for(42);
        let summary = summary_for(42);
        let mut buf = Vec::new();
        encode_entry(&key, &summary, &mut buf);
        let mut table = SummaryTable::new();
        let (k2, s2) = table.split_entry(&buf, |_| true).expect("decodes");
        assert_eq!(k2, key.as_slice());
        assert_eq!(*s2, summary);
        buf.push(0);
        assert!(
            table.split_entry(&buf, |_| true).is_none(),
            "trailing garbage"
        );
    }

    #[test]
    fn spilled_key_is_verified_on_rehydrate() {
        // hot_capacity 1 on a single shard: every second insert evicts,
        // so most keys live only on disk.  Each get must return exactly
        // its own summary (full-key-byte verification behind the hashed
        // index), never a neighbor's.
        let memo: ShardedMemo<u64> = ShardedMemo::new(1, &MemoConfig::spill(1)).unwrap();
        for i in 0..200u64 {
            insert(&memo, i);
        }
        assert_eq!(memo.len(), 200);
        for i in (0..200u64).rev() {
            let got = get(&memo, i).expect("spilled key found");
            assert_eq!(*got, summary_for(i), "key {i}");
        }
        assert!(get(&memo, 777).is_none(), "absent key");
        assert_eq!(memo.len(), 200, "gets never mint distinct states");
    }

    /// The index `key_for` built `key` from, checked against it.
    fn index_of(key: &[u8]) -> u64 {
        let mut input = key;
        u32::decode(&mut input).expect("key_for's round");
        u32::decode(&mut input).expect("key_for's process count");
        u8::decode(&mut input).expect("key_for's tag");
        let i = u64::decode(&mut input).expect("key_for's index field");
        assert_eq!(key_for(i), key, "known key bytes");
        i
    }

    /// The round is decoded, not sliced: a round of 128 or more takes a
    /// second varint byte, and the census still reads it back whole.
    #[test]
    fn key_round_reads_every_round_back() {
        for round in [1u32, 127, 128, 300, 16_384, u32::MAX] {
            let mut key = Vec::new();
            round.encode(&mut key);
            2u32.encode(&mut key);
            key.extend_from_slice(&[0, 0xA5, 0xA5]);
            assert_eq!(key_round(&key), round, "{key:02x?}");
        }
    }

    /// Satellite regression: concurrent rehydrate/promote/evict races at
    /// a tiny hot capacity.  Many threads hammer overlapping key ranges
    /// with interleaved gets and inserts; every observed summary must be
    /// the key's canonical one, and the distinct count must equal the
    /// key-set cardinality exactly.  With two hot entries and a thousand
    /// keys, each shard's records fill several tail flushes and blocks,
    /// and the scans below walk all of them.
    #[test]
    fn eviction_races_preserve_memo_contents() {
        const KEYS: u64 = 1024;
        const THREADS: u64 = 8;
        const ROUNDS: u64 = 3;
        let memo: ShardedMemo<u64> = ShardedMemo::new(2, &MemoConfig::spill(2)).unwrap();
        std::thread::scope(|scope| {
            for tid in 0..THREADS {
                let memo = &memo;
                scope.spawn(move || {
                    // Deterministic per-thread permutation of the keys,
                    // interleaving gets and inserts so rehydrates and
                    // promotes race with evictions on other threads.
                    for round in 0..ROUNDS {
                        for step in 0..KEYS {
                            let i = (step * (2 * tid + 1) + round * 13) % KEYS;
                            if (step + tid + round) % 2 == 0 {
                                if let Some(seen) = get(memo, i) {
                                    assert_eq!(*seen, summary_for(i), "get({i})");
                                }
                            }
                            let canonical = insert(memo, i);
                            assert_eq!(*canonical, summary_for(i), "insert({i})");
                        }
                    }
                });
            }
        });
        assert_eq!(memo.len(), KEYS as usize, "distinct == key-set size");
        // Every key is present exactly once with its canonical summary.
        let mut seen = vec![0usize; KEYS as usize];
        memo.for_each(|key, summary| {
            let i = index_of(key);
            seen[i as usize] += 1;
            assert_eq!(**summary, summary_for(i), "for_each({i})");
        })
        .unwrap();
        assert!(
            seen.iter().all(|&c| c == 1),
            "each key visited once: {seen:?}"
        );
        // `find_map` walks the same order and stops at its first `Some`.
        for wanted in [0, KEYS / 2, KEYS - 1] {
            let found = memo
                .find_map(|key, summary| (index_of(key) == wanted).then(|| Arc::clone(summary)))
                .unwrap()
                .expect("every key is memoized");
            assert_eq!(*found, summary_for(wanted), "find_map({wanted})");
        }
        let mut visits = 0;
        let first = memo.find_map(|key, _| {
            visits += 1;
            Some(index_of(key))
        });
        assert!(first.unwrap().is_some());
        assert_eq!(visits, 1, "the first `Some` ends the scan");
    }

    #[test]
    fn export_import_roundtrips_across_tierings() {
        let dir = crate::spill::SpillDir::create(None).unwrap();
        let path = dir.path().join("memo.seg");
        // Source: spilling memo, so the export walks both tiers.
        let source: ShardedMemo<u64> = ShardedMemo::new(4, &MemoConfig::spill(3)).unwrap();
        for i in 0..100u64 {
            insert(&source, i);
        }
        // One hot entry a shard, so 96 of the 100 are spilled-only: the
        // census and the export both meet each key once.
        let mut seen = [0usize; 100];
        source
            .for_each(|key, summary| {
                let i = index_of(key);
                seen[i as usize] += 1;
                assert_eq!(**summary, summary_for(i), "for_each({i})");
            })
            .unwrap();
        assert_eq!(seen, [1; 100], "each key visited once");
        assert_eq!(source.export_to(&path).unwrap(), 100);

        // Destination: all-RAM with a different shard count.
        let dest: ShardedMemo<u64> = ShardedMemo::new(7, &MemoConfig::all_ram()).unwrap();
        assert_eq!(dest.import_from(&path, any_key()).unwrap(), 100);
        assert_eq!(dest.len(), 100);
        for i in 0..100u64 {
            let got = get(&dest, i).expect("imported key");
            assert_eq!(*got, summary_for(i));
        }

        // Importing the same file again is idempotent.
        assert_eq!(dest.import_from(&path, any_key()).unwrap(), 100);
        assert_eq!(dest.len(), 100, "duplicate imports mint nothing");
    }

    /// Import is the trust boundary for foreign records: a sealed,
    /// CRC-valid segment whose record carries key bytes the caller's
    /// validator rejects must classify as `Corrupt` — never be adopted
    /// (and panic later in census/witness paths).
    #[test]
    fn import_rejects_records_with_invalid_key_bytes() {
        let dir = crate::spill::SpillDir::create(None).unwrap();
        let path = dir.path().join("evil.seg");
        let source: ShardedMemo<u64> = ShardedMemo::new(1, &MemoConfig::all_ram()).unwrap();
        let tiny_key = [0xAAu8; 3]; // shorter than a round prefix
        source
            .insert(
                stable_hash64(&tiny_key),
                &tiny_key,
                Arc::new(summary_for(1)),
            )
            .unwrap();
        assert_eq!(source.export_to(&path).unwrap(), 1);

        let dest: ShardedMemo<u64> = ShardedMemo::new(1, &MemoConfig::all_ram()).unwrap();
        let err = dest
            .import_from(&path, EntryValidator::new(|key| key.len() >= 8, 1))
            .expect_err("invalid key bytes must not import");
        assert!(
            matches!(err, SpillError::Corrupt { .. }),
            "expected Corrupt, got {err:?}"
        );
        assert_eq!(dest.len(), 0, "nothing is adopted from a rejected segment");
    }

    /// Delta export writes exactly the entries inserted *after* the
    /// seed import — across both tiers, surviving eviction and
    /// rehydration — and a seed-only memo has an empty delta.
    #[test]
    fn delta_export_excludes_seeded_entries() {
        let dir = crate::spill::SpillDir::create(None).unwrap();
        let seed_path = dir.path().join("seed.seg");
        let delta_path = dir.path().join("delta.seg");

        // Build the seed image: keys 0..40.
        let origin: ShardedMemo<u64> = ShardedMemo::new(2, &MemoConfig::all_ram()).unwrap();
        for i in 0..40u64 {
            insert(&origin, i);
        }
        assert_eq!(origin.export_to(&seed_path).unwrap(), 40);
        // A memo with no seed: the delta IS the full image.
        assert_eq!(origin.export_delta(&delta_path).unwrap(), 40);

        // Warm-start a tiny-hot-tier memo from the seed, then add keys
        // 40..100 (interleaved with gets so seeded entries are evicted,
        // rehydrated, and re-evicted along the way).
        let memo: ShardedMemo<u64> = ShardedMemo::new(2, &MemoConfig::spill(2)).unwrap();
        assert_eq!(memo.import_seed_from(&seed_path, any_key()).unwrap(), 40);
        assert_eq!(memo.seeded_len(), 40);
        for i in 0..100u64 {
            if i % 3 == 0 {
                let seen = get(&memo, i % 40).expect("seeded key");
                assert_eq!(*seen, summary_for(i % 40));
            }
            insert(&memo, i);
        }
        assert_eq!(memo.len(), 100);
        assert_eq!(memo.seeded_len(), 40, "re-inserting seeds changes nothing");

        assert_eq!(
            memo.export_delta(&delta_path).unwrap(),
            60,
            "delta = fresh entries only"
        );
        let fresh: ShardedMemo<u64> = ShardedMemo::new(1, &MemoConfig::all_ram()).unwrap();
        fresh.import_from(&delta_path, any_key()).unwrap();
        for i in 40..100u64 {
            let got = get(&fresh, i).expect("fresh key in delta");
            assert_eq!(*got, summary_for(i));
        }
        for i in 0..40u64 {
            assert!(
                get(&fresh, i).is_none(),
                "seeded key {i} must not appear in the delta"
            );
        }

        // A memo that only re-walked the seed has nothing to commit.
        let warm: ShardedMemo<u64> = ShardedMemo::new(2, &MemoConfig::all_ram()).unwrap();
        warm.import_seed_from(&seed_path, any_key()).unwrap();
        for i in 0..40u64 {
            insert(&warm, i);
        }
        assert_eq!(warm.export_delta(&delta_path).unwrap(), 0);
        assert_eq!(warm.len(), 40);
        assert_eq!(warm.seeded_len(), 40);
    }

    /// Keys sharing a 64-bit hash must chain, not clobber: simulate a
    /// full collision by inserting three different byte keys under the
    /// same forged hash — in an all-RAM memo, and in a bounded one whose
    /// hot tier holds the first inline and the others in its side table.
    /// There, evicting the inline entry promotes a collided one: both
    /// still answer from the hot tier, having no record to rehydrate
    /// from.  Once all three are spilled and rehydrated, the export
    /// holds each key once.
    #[test]
    fn hash_collisions_chain_on_key_bytes() {
        let keys = [
            b"key-a".to_vec(),
            b"key-b-longer".to_vec(),
            b"key-c".to_vec(),
        ];
        let forged = 0xDEAD_BEEF_u64;
        let answers = |memo: &ShardedMemo<u64>| {
            for (i, key) in keys.iter().enumerate() {
                let got = memo.get(forged, key).unwrap().expect("a colliding key");
                assert_eq!(*got, summary_for(i as u64), "key {i}");
            }
            assert!(memo.get(forged, b"key-d").unwrap().is_none());
        };
        let ram: ShardedMemo<u64> = ShardedMemo::new(1, &MemoConfig::all_ram()).unwrap();
        let memo: ShardedMemo<u64> = ShardedMemo::new(1, &MemoConfig::spill(3)).unwrap();
        for memo in [&ram, &memo] {
            for (i, key) in keys.iter().enumerate() {
                memo.insert(forged, key, Arc::new(summary_for(i as u64)))
                    .unwrap();
            }
            assert_eq!(memo.len(), 3, "colliding keys are distinct states");
            answers(memo);
        }
        // The hand clears all three bits, then evicts the inline `a`.
        insert(&memo, 10);
        assert_eq!(records(&memo), 1, "only the inline entry was evicted");
        for (i, key) in keys.iter().enumerate().skip(1) {
            let got = memo.get(forged, key).unwrap().expect("still hot");
            assert_eq!(*got, summary_for(i as u64), "key {i}");
        }
        for i in 11..20u64 {
            insert(&memo, i);
        }
        assert_eq!(records(&memo), 10, "all three spilled, 17..20 hot");
        answers(&memo);
        assert_eq!(records(&memo), 13, "17..20 evicted by the rehydrates");
        insert(&memo, 10);
        answers(&memo);
        assert_eq!(records(&memo), 13, "a rehydrated entry is never rewritten");

        let dir = SpillDir::create(None).unwrap();
        let path = dir.path().join("collided.seg");
        assert_eq!(memo.export_to(&path).unwrap(), 13, "each key once");
        let dest: ShardedMemo<u64> = ShardedMemo::new(1, &MemoConfig::all_ram()).unwrap();
        assert_eq!(dest.import_from(&path, any_key()).unwrap(), 13);
        assert_eq!(dest.len(), 13);
        for (i, key) in keys.iter().enumerate() {
            let got = dest.get(hash_for(key), key).unwrap().expect("exported");
            assert_eq!(*got, summary_for(i as u64), "key {i}");
        }
    }

    /// A bounded one-shard memo whose key chunks are 64 bytes, driven
    /// through a pseudo-random run of inserts and gets — hot hits,
    /// rehydrates, and with them re-evictions that write nothing —
    /// against a model map, then one delta export and import.  Every get
    /// answers what the model holds, and after every operation the arena
    /// has written at most twice its live key bytes plus one chunk:
    /// evictions free bytes, compaction (which runs many times here, and
    /// moves every live key and clock item) takes them back.  One key in
    /// eight is longer than a chunk and takes one of its own.
    #[test]
    fn compaction_under_churn_keeps_every_key_and_bounds_the_arena() {
        const CHUNK: usize = 64;
        const KEYS: u64 = 24;
        let key = |i: u64| {
            let mut key = key_for(i);
            if i % 8 == 7 {
                key.resize(CHUNK + 16 + i as usize, 0x5A);
            }
            key
        };
        let memo: ShardedMemo<u64> =
            ShardedMemo::with_key_chunk(1, &MemoConfig::spill(4), CHUNK).unwrap();
        let mut model = std::collections::BTreeMap::new();
        let (mut compactions, mut hits, mut last_written) = (0, 0, 0);
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        for step in 0..4_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let i = state % KEYS;
            let key = key(i);
            if (state >> 32).is_multiple_of(3) {
                let got = memo.insert(hash_for(&key), &key, Arc::new(summary_for(i)));
                assert_eq!(*got.unwrap(), summary_for(i), "step {step}: insert({i})");
                model.insert(i, summary_for(i));
            } else {
                let hot = {
                    let shard = memo.shards[0].read().unwrap();
                    shard.hot.get(hash_for(&key), &key).is_some()
                };
                hits += usize::from(hot);
                let got = memo.get(hash_for(&key), &key).unwrap();
                assert_eq!(got.as_deref(), model.get(&i), "step {step}: get({i})");
            }
            let (written, live) = memo.shards[0].read().unwrap().hot.arena_bytes();
            assert!(
                written <= 2 * live + CHUNK,
                "step {step}: {written} bytes written for {live} live"
            );
            compactions += usize::from(written < last_written);
            last_written = written;
        }
        assert_eq!(memo.len(), model.len());
        assert!(compactions > 100, "{compactions} compactions");
        assert!(hits > 100, "{hits} hot hits");

        let dir = SpillDir::create(None).unwrap();
        let path = dir.path().join("churn.seg");
        assert_eq!(memo.export_delta(&path).unwrap(), model.len() as u64);
        let dest: ShardedMemo<u64> = ShardedMemo::new(1, &MemoConfig::all_ram()).unwrap();
        dest.import_from(&path, any_key()).unwrap();
        assert_eq!(dest.len(), model.len());
        for (&i, summary) in &model {
            let key = key(i);
            let got = dest.get(hash_for(&key), &key).unwrap();
            assert_eq!(got.as_deref(), Some(summary), "imported({i})");
        }
    }

    /// Records in all of `memo`'s stores.
    fn records(memo: &ShardedMemo<u64>) -> usize {
        let mut records = 0;
        for lock in &memo.shards {
            let mut shard = lock.write().unwrap();
            if let Some(store) = shard.store.as_mut() {
                store
                    .scan(|_, _| {
                        records += 1;
                        Ok(true)
                    })
                    .unwrap();
            }
        }
        records
    }

    /// Same, but through the spill tier: three keys under one hash — the
    /// first evicted kept inline in the index, the other two in its
    /// `collided` table — rehydrate to their own summaries, are evicted
    /// again without a second record, and keep their freshness: the one
    /// seeded stays out of the delta export.
    #[test]
    fn hash_collisions_chain_through_the_spill_tier() {
        let dir = SpillDir::create(None).unwrap();
        let (seed_path, delta_path) = (dir.path().join("seed.seg"), dir.path().join("delta.seg"));
        let keys = [
            b"key-a".to_vec(),
            b"key-b-longer".to_vec(),
            b"key-c".to_vec(),
        ];
        // The "forged" hash is `a`'s own, so that the seed import — which
        // hashes what it reads — files `a` under it too.
        let forged = hash_for(&keys[0]);
        let origin: ShardedMemo<u64> = ShardedMemo::new(1, &MemoConfig::all_ram()).unwrap();
        origin
            .insert(forged, &keys[0], Arc::new(summary_for(0)))
            .unwrap();
        assert_eq!(origin.export_to(&seed_path).unwrap(), 1);

        let memo: ShardedMemo<u64> = ShardedMemo::new(1, &MemoConfig::spill(1)).unwrap();
        assert_eq!(memo.import_seed_from(&seed_path, any_key()).unwrap(), 1);
        for (i, key) in keys.iter().enumerate().skip(1) {
            memo.insert(forged, key, Arc::new(summary_for(i as u64)))
                .unwrap();
        }
        // Push all three out of the hot tier, then give every key a
        // record: the get evicts the last key inserted.
        for i in 10..20u64 {
            insert(&memo, i);
        }
        get(&memo, 10).unwrap();
        assert_eq!(memo.len(), 13);
        assert_eq!(records(&memo), 13, "one record per key");
        {
            let shard = memo.shards[0].read().unwrap();
            assert!(shard.index.contains_key(&forged), "the first inline");
            assert_eq!(shard.collided.len(), 1, "one hash collided");
            assert_eq!(shard.collided[&forged].len(), 2, "the others chained");
        }
        for _ in 0..2 {
            for (i, key) in keys.iter().enumerate() {
                let got = memo.get(forged, key).unwrap().expect("rehydrates");
                assert_eq!(*got, summary_for(i as u64), "key {i}");
            }
            // Evicts the last of the three, which has its record.
            get(&memo, 11).unwrap();
            assert_eq!(records(&memo), 13, "a rehydrated entry is never rewritten");
        }
        assert!(memo.get(forged, b"key-d").unwrap().is_none());
        assert_eq!(memo.len(), 13, "colliding keys are distinct states");

        assert_eq!(memo.export_delta(&delta_path).unwrap(), 12);
        let dest: ShardedMemo<u64> = ShardedMemo::new(1, &MemoConfig::all_ram()).unwrap();
        dest.import_from(&delta_path, any_key()).unwrap();
        let mut exported = Vec::new();
        dest.for_each(|key, _| exported.push(key.to_vec())).unwrap();
        let colliding: Vec<_> = keys.iter().filter(|key| exported.contains(key)).collect();
        assert_eq!(colliding, [&keys[1], &keys[2]], "the seeded key stays out");
    }

    /// A spilled state's RAM is its index slot: a hash and an inline
    /// record address, no allocation of its own.
    #[test]
    fn a_spilled_state_costs_one_24_byte_index_slot() {
        assert_eq!(std::mem::size_of::<SpillRef>(), 12);
        assert_eq!(std::mem::size_of::<(u64, SpillSlot)>(), 24);
    }

    /// A hot state's RAM is its key bytes in the shard's arena plus one
    /// 32-byte table slot — and, in a bounded tier, a 16-byte clock item.
    #[test]
    fn a_hot_state_costs_one_32_byte_slot() {
        assert_eq!(std::mem::size_of::<(u64, HotEntry<u64>)>(), 32);
        assert_eq!(std::mem::size_of::<ClockItem>(), 16);
    }

    /// `summary`'s bytes, as a record holds them.
    fn summary_bytes(summary: &Summary<u64>) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_summary(summary, &mut bytes);
        bytes
    }

    fn slot_of(summary_bytes: &[u8]) -> usize {
        stable_hash64(summary_bytes) as usize % SUMMARY_SLOTS
    }

    /// Appends `payload` to the store of `hash`'s shard and indexes it
    /// under `hash`, as an eviction would — whatever the payload holds.
    fn plant(memo: &ShardedMemo<u64>, hash: u64, payload: &[u8]) {
        let mut shard = memo.shards[memo.shard_of(hash)].write().unwrap();
        let store = shard.store.as_mut().expect("a spilling memo");
        let spill_ref = store.append(payload).unwrap();
        let slot = SpillSlot {
            spill_ref,
            fresh: true,
        };
        shard.index_spilled(hash, slot);
    }

    /// Twenty keys inserted under twenty `Arc`s of one summary come back
    /// as one `Arc` from every path that reads records back.
    #[test]
    fn equal_summary_bytes_come_back_as_one_arc() {
        const KEYS: u64 = 20;
        let shared = summary_for(5);
        // One hot entry: every key but the last inserted is spilled-only.
        let memo: ShardedMemo<u64> = ShardedMemo::new(1, &MemoConfig::spill(1)).unwrap();
        for i in 0..KEYS {
            let key = key_for(i);
            memo.insert(hash_for(&key), &key, Arc::new(shared.clone()))
                .unwrap();
        }
        let mut scanned = Vec::new();
        memo.for_each(|key, summary| {
            if index_of(key) != KEYS - 1 {
                scanned.push(Arc::clone(summary));
            }
        })
        .unwrap();
        assert_eq!(scanned.len(), KEYS as usize - 1);
        assert_eq!(*scanned[0], shared);
        assert!(
            scanned.iter().all(|s| Arc::ptr_eq(s, &scanned[0])),
            "census scan"
        );
        // Each get misses the hot tier and rehydrates through the slot.
        for i in 0..KEYS {
            assert!(
                Arc::ptr_eq(&get(&memo, i).unwrap(), &scanned[0]),
                "get({i})"
            );
        }
        let dir = SpillDir::create(None).unwrap();
        let path = dir.path().join("shared.seg");
        assert_eq!(memo.export_to(&path).unwrap(), KEYS);
        let dest: ShardedMemo<u64> = ShardedMemo::new(1, &MemoConfig::all_ram()).unwrap();
        assert_eq!(dest.import_from(&path, any_key()).unwrap(), KEYS);
        let first = get(&dest, 0).unwrap();
        for i in 0..KEYS {
            assert!(Arc::ptr_eq(&get(&dest, i).unwrap(), &first), "import({i})");
        }
    }

    /// Three times as many distinct summaries as slots, one hot entry:
    /// keys whose summaries share a slot are read alternately, so every
    /// read finds the slot holding another summary's bytes.
    #[test]
    fn more_distinct_summaries_than_slots_read_back_as_themselves() {
        const KEYS: u64 = 3 * SUMMARY_SLOTS as u64;
        let memo: ShardedMemo<u64> = ShardedMemo::new(1, &MemoConfig::spill(1)).unwrap();
        for i in 0..KEYS {
            insert(&memo, i);
        }
        let mut by_slot: std::collections::BTreeMap<usize, Vec<u64>> = Default::default();
        for i in 0..KEYS {
            let slot = slot_of(&summary_bytes(&summary_for(i)));
            by_slot.entry(slot).or_default().push(i);
        }
        let shared_slots = by_slot.values().filter(|keys| keys.len() > 1);
        let mut collisions = 0;
        for keys in shared_slots {
            for &i in keys.iter().chain(keys) {
                assert_eq!(*get(&memo, i).unwrap(), summary_for(i), "get({i})");
                collisions += 1;
            }
        }
        assert!(collisions > 0, "{KEYS} summaries in {SUMMARY_SLOTS} slots");
        for i in (0..KEYS).rev() {
            assert_eq!(*get(&memo, i).unwrap(), summary_for(i), "get({i})");
        }
        memo.for_each(|key, summary| assert_eq!(**summary, summary_for(index_of(key))))
            .unwrap();
    }

    /// Summary bytes that do not decode are `Corrupt` before any key is
    /// compared — under the probe's own key and under another key at the
    /// probe's hash — even when a valid summary holds their slot, and
    /// they never take it.
    #[test]
    fn undecodable_summary_bytes_are_corrupt_whatever_the_key() {
        let memo: ShardedMemo<u64> = ShardedMemo::new(1, &MemoConfig::spill(1)).unwrap();
        insert(&memo, 1);
        insert(&memo, 2);
        let held = get(&memo, 1).expect("rehydrated: its summary holds its slot");
        let slot = slot_of(&summary_bytes(&summary_for(1)));
        // Three bytes cannot hold a summary: each of its four fields
        // takes a byte at least.
        let garbage = (0..=u16::MAX)
            .map(|k| [&[0xEE][..], &k.to_le_bytes()].concat())
            .find(|bytes| slot_of(bytes) == slot)
            .expect("three-byte strings reach every slot");
        assert!(decode_summary::<u64>(&garbage).is_none());
        let record = |key: &[u8]| {
            let mut record = Vec::new();
            (key.len() as u32).encode(&mut record);
            record.extend_from_slice(key);
            record.extend_from_slice(&garbage);
            record
        };
        let (k5, k6, k7) = (key_for(5), key_for(6), key_for(7));
        plant(&memo, hash_for(&k5), &record(&k5));
        plant(&memo, hash_for(&k7), &record(&k6));
        for probe in [&k5, &k7] {
            let err = memo.get(hash_for(probe), probe).unwrap_err();
            assert!(matches!(err, SpillError::Corrupt { .. }), "{err:?}");
        }
        // Key 1, evicted again, still reads back as the `Arc` its slot
        // held; the census then meets the planted records.
        insert(&memo, 3);
        assert!(Arc::ptr_eq(&get(&memo, 1).unwrap(), &held));
        let err = memo.for_each(|_, _| {}).unwrap_err();
        assert!(matches!(err, SpillError::Corrupt { .. }), "{err:?}");
    }

    /// A record whose frame and CRC are sound and whose summary decodes,
    /// but not to one a walk at the validator's crash budget builds —
    /// too few rounds, too many, a value decided twice — is `Corrupt` at
    /// import and is not adopted.
    #[test]
    fn import_rejects_a_summary_of_the_wrong_shape() {
        let dir = SpillDir::create(None).unwrap();
        let path = dir.path().join("forged.seg");
        let forgeries = [
            Summary {
                worst_round_by_f: vec![Some(1)],
                ..summary_for(1)
            },
            Summary {
                worst_round_by_f: vec![Some(1), None, Some(3)],
                ..summary_for(1)
            },
            Summary {
                decided: vec![7, 7],
                ..summary_for(1)
            },
        ];
        for forged in forgeries {
            let mut writer = SegmentWriter::create(&path).unwrap();
            for (i, summary) in [(0, summary_for(0)), (1, forged.clone())] {
                let mut record = Vec::new();
                encode_entry(&key_for(i), &summary, &mut record);
                writer.append(&record).unwrap();
            }
            writer.finish().unwrap();
            assert_eq!(crate::spill::validate_segment_file(&path).unwrap(), 2);
            let dest: ShardedMemo<u64> = ShardedMemo::new(1, &MemoConfig::all_ram()).unwrap();
            match dest.import_from(&path, any_key()).unwrap_err() {
                SpillError::Corrupt { detail } => assert!(detail.contains("record 1"), "{detail}"),
                other => panic!("expected Corrupt for {forged:?}, got {other:?}"),
            }
            assert!(get(&dest, 1).is_none(), "{forged:?} adopted");
        }
    }

    /// What `payload` spells by a reference that shares no code with the
    /// summary table: one `(key, summary)` entry, if it is one — and,
    /// when `shaped`, only if its summary is one of `t = 1`.
    fn spelled(payload: &[u8], shaped: bool) -> Option<(Vec<u8>, Summary<u64>)> {
        let mut rest = payload;
        let len = u32::decode(&mut rest)? as usize;
        if rest.len() < len {
            return None;
        }
        let (key, summary) = rest.split_at(len);
        let summary = decode_summary::<u64>(summary)?;
        let mut seen = std::collections::BTreeSet::new();
        let sound =
            summary.worst_round_by_f.len() == 2 && summary.decided.iter().all(|v| seen.insert(v));
        (sound || !shaped).then(|| (key.to_vec(), summary))
    }

    /// Fuzz inputs for the read-back decoders: arbitrary bytes, and
    /// sound entries with a byte changed, four bytes set to `0xFF` (a
    /// varint claiming 2^28 or more, or an over-long one), or cut short.
    fn record_bytes() -> impl Strategy<Value = Vec<u8>> {
        fn entry(i: u64) -> Vec<u8> {
            let mut record = Vec::new();
            encode_entry(&key_for(i % 64), &summary_for(i % 64), &mut record);
            record
        }
        prop_oneof![
            prop::collection::vec(any::<u8>(), 0..=64),
            (any::<u64>(), any::<usize>(), any::<u8>()).prop_map(|(i, at, byte)| {
                let mut record = entry(i);
                let at = at % record.len();
                record[at] = byte;
                record
            }),
            (any::<u64>(), any::<usize>()).prop_map(|(i, at)| {
                let mut record = entry(i);
                let at = at % (record.len() - 3);
                record[at..at + 4].fill(0xFF);
                record
            }),
            (any::<u64>(), any::<usize>()).prop_map(|(i, cut)| {
                let record = entry(i);
                record[..cut % record.len()].to_vec()
            }),
        ]
    }

    proptest! {
        /// A store record and a CRC-valid import record yield `Corrupt`
        /// unless they spell an entry, and then exactly that entry.  No
        /// input panics, allocates by the lengths it claims (a claim of
        /// four billion entries would abort the process), or enters a
        /// summary table.
        #[test]
        fn arbitrary_record_bytes_are_corrupt_or_the_entry_they_spell(
            payload in record_bytes(),
        ) {
            let stored = spelled(&payload, false);
            let probe = stored.as_ref().map_or_else(|| key_for(999), |(key, _)| key.clone());
            let memo: ShardedMemo<u64> = ShardedMemo::new(1, &MemoConfig::spill(1)).unwrap();
            plant(&memo, hash_for(&probe), &payload);
            let read = memo.get(hash_for(&probe), &probe);
            let census = memo.for_each(|_, _| {});
            match &stored {
                Some((_, summary)) => {
                    let read = read.unwrap().expect("the key it spells is memoized");
                    prop_assert_eq!(&*read, summary);
                    prop_assert!(census.is_ok(), "{:?}", census);
                }
                None => {
                    prop_assert!(matches!(read, Err(SpillError::Corrupt { .. })), "{:?}", read);
                    prop_assert!(matches!(census, Err(SpillError::Corrupt { .. })), "{:?}", census);
                }
            }
            let shard = memo.shards[0].read().unwrap();
            for held in shard.summaries.slots.iter().flatten() {
                let decoded = decode_summary::<u64>(&held.bytes);
                prop_assert_eq!(decoded.as_ref(), Some(&*held.summary));
            }

            let dir = SpillDir::create(None).unwrap();
            let path = dir.path().join("fuzz.seg");
            let mut writer = SegmentWriter::create(&path).unwrap();
            writer.append(&payload).unwrap();
            writer.finish().unwrap();
            let dest: ShardedMemo<u64> = ShardedMemo::new(1, &MemoConfig::all_ram()).unwrap();
            let imported = dest.import_from(&path, any_key());
            match spelled(&payload, true) {
                Some((key, summary)) => {
                    prop_assert_eq!(imported.unwrap(), 1);
                    let got = dest.get(hash_for(&key), &key).unwrap();
                    prop_assert_eq!(got.as_deref(), Some(&summary));
                }
                None => {
                    prop_assert!(matches!(imported, Err(SpillError::Corrupt { .. })), "{:?}", imported);
                    prop_assert_eq!(dest.len(), 0);
                }
            }
        }
    }
}
