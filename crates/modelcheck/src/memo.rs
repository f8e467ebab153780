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
//! * it picks the shard (top bits) and the bucket inside the shard's
//!   raw-index table (a `HashMap<u64, Vec<entry>>` behind a pass-through
//!   hasher — the key bytes are **never re-hashed**, not by the shard
//!   map and not by the spill index);
//! * it is the fixed-width key of the cold tier's on-disk record index;
//! * it is the partitioning hash of distributed exploration — stable
//!   across processes, builds, and platforms by construction.
//!
//! Distinct keys that collide on the 64-bit hash chain into the same
//! bucket and are told apart by comparing full key bytes, exactly like
//! the spill index always has; a collision costs one extra `memcmp`,
//! never a wrong answer.
//!
//! Tier one is a bounded per-shard table of live `Arc<Summary>` values —
//! the *hot* tier — behind an `RwLock` whose **read lock suffices for a
//! hit**: lookups in a warm or late-stage walk (where hits dominate)
//! take the shared lock, compare bytes, bump an atomic clock bit, and
//! leave; only misses that must consult the disk tier, and inserts,
//! take the write lock.  When [`MemoConfig::hot_capacity`] is finite,
//! each shard evicts its coldest entries (clock / second-chance order)
//! to tier two: an append-only segment file per shard
//! (`crate::spill::SegmentStore`) whose records hold the **full key
//! bytes and summary**, addressed by the in-memory hash index.  A lookup
//! that misses the hot tier probes the index by hash, rehydrates each
//! candidate record — borrowed from the store's write-behind tail or
//! from one of its cached blocks of the segment file, checked against
//! its length prefix and CRC, decompressed into a store-owned buffer —
//! and accepts it only if the stored key bytes equal the probe exactly.
//! Whole-memo visits (`ShardedMemo::for_each`, the exports) take each
//! shard's hot entries first and then its spilled records in file
//! order, never in the index's hash order, so they read every block
//! once.
//!
//! Storing the key as its canonical bytes is also what makes segment
//! files cheap to move: a record is `[u32 key_len][key bytes][summary]`,
//! so spilling, exporting (`ShardedMemo::export_to`), and importing
//! (`ShardedMemo::import_from`) all copy the key bytes verbatim — no
//! structured re-encode anywhere on those paths.
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

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use twostep_model::codec::stable_hash64;
use twostep_sim::SyncProtocol;

use crate::explorer::Summary;
use crate::spill::{
    decode_summary_prefix, encode_summary, SegmentReader, SegmentStore, SegmentWriter, SpillCodec,
    SpillDir, SpillError,
};

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
    /// only memory/IO do.
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
/// the census reads this straight off the bytes without decoding
/// anything else.
pub(crate) fn key_round(key: &[u8]) -> u32 {
    u32::from_le_bytes(key[..4].try_into().expect("keys start with a round"))
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
            // Rank-inert active (partial symmetry tier): the protocol
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
/// interchange format (segment format v4).
pub(crate) fn encode_entry<O>(key: &[u8], summary: &Summary<O>, out: &mut Vec<u8>)
where
    O: SpillCodec,
{
    (key.len() as u32).encode(out);
    out.extend_from_slice(key);
    encode_summary(summary, out);
}

/// Splits a record produced by [`encode_entry`] into its borrowed key
/// bytes and decoded summary; `None` on truncated, malformed, or
/// trailing-garbage input.
pub(crate) fn split_entry<O>(payload: &[u8]) -> Option<(&[u8], Summary<O>)>
where
    O: SpillCodec,
{
    let mut input = payload;
    let key = split_key_prefix(&mut input)?;
    let summary = decode_summary_prefix::<O>(&mut input)?;
    if !input.is_empty() {
        return None;
    }
    Some((key, summary))
}

/// Borrows just the key bytes off the front of a record, advancing the
/// input past them — used where the summary is not needed (export's
/// hot-tier dedup check).
pub(crate) fn split_key_prefix<'a>(input: &mut &'a [u8]) -> Option<&'a [u8]> {
    let len = u32::decode(input)? as usize;
    twostep_model::codec::take(input, len)
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

/// One hot-tier entry: the full key bytes, the live summary, its clock
/// reference bit, and whether a spill record for this key already exists
/// on disk.
struct HotEntry<O> {
    /// Canonical key bytes, shared with the clock queue.
    key: Arc<[u8]>,
    summary: Arc<Summary<O>>,
    /// Second-chance bit: set on every touch, cleared (and the entry
    /// rotated to the clock tail) the first time the hand reaches it.
    /// Atomic so the read-locked hit path can set it without upgrading
    /// to the write lock.
    referenced: AtomicBool,
    /// A segment record for this key already exists (the entry was
    /// rehydrated), so evicting it again writes nothing.
    spilled: bool,
    /// Inserted fresh by this run's own exploration (as opposed to
    /// seeded from a persistent cache / distributed seed segment).
    /// [`ShardedMemo::export_delta`] writes exactly the fresh entries.
    fresh: bool,
}

/// One spilled record's address plus its freshness — the cold-tier twin
/// of [`HotEntry::fresh`], so delta export survives eviction.
struct SpillSlot {
    spill_ref: crate::spill::SpillRef,
    fresh: bool,
}

/// A rehydrated summary paired with its record's freshness bit.
type Rehydrated<O> = Option<(Arc<Summary<O>>, bool)>;

/// A hot-table bucket: the overwhelmingly common single entry lives
/// inline (no `Vec` allocation or extra pointer chase per configuration
/// probe); genuine 64-bit hash collisions promote the bucket to a
/// chain.
enum Bucket<O> {
    One(HotEntry<O>),
    Many(Vec<HotEntry<O>>),
}

impl<O> Bucket<O> {
    fn as_slice(&self) -> &[HotEntry<O>] {
        match self {
            Bucket::One(entry) => std::slice::from_ref(entry),
            Bucket::Many(entries) => entries,
        }
    }

    fn push(&mut self, entry: HotEntry<O>) {
        match self {
            Bucket::Many(entries) => entries.push(entry),
            Bucket::One(_) => {
                let Bucket::One(first) = std::mem::replace(self, Bucket::Many(Vec::new())) else {
                    unreachable!("just matched One")
                };
                let Bucket::Many(entries) = self else {
                    unreachable!("just replaced with Many")
                };
                entries.reserve(2);
                entries.push(first);
                entries.push(entry);
            }
        }
    }
}

/// A shard's hot tier: buckets by precomputed key hash.
type HotTable<O> = HashMap<u64, Bucket<O>, PassThroughState>;

/// A spilled record passed its CRC yet is not a `(key, summary)` entry.
fn undecodable_entry(spill_ref: &crate::spill::SpillRef) -> SpillError {
    SpillError::corrupt(format!(
        "undecodable entry record at segment {} offset {}",
        spill_ref.segment, spill_ref.offset
    ))
}

/// One memo shard.  Both tables are keyed by the precomputed 64-bit key
/// hash behind a pass-through hasher; 64-bit collisions chain inside
/// the bucket and are resolved by comparing full key bytes.
struct Shard<O> {
    hot: HotTable<O>,
    /// Entries across all hot buckets (`hot.len()` counts buckets).
    hot_len: usize,
    /// Clock order over the hot entries; front = eviction hand.
    clock: VecDeque<(u64, Arc<[u8]>)>,
    /// Spilled records by fixed-width key hash.
    index: HashMap<u64, Vec<SpillSlot>, PassThroughState>,
    store: Option<SegmentStore>,
    /// Reusable encode buffer for evictions.
    scratch: Vec<u8>,
}

impl<O> Shard<O>
where
    O: Clone + Eq + SpillCodec,
{
    fn new(store: Option<SegmentStore>) -> Self {
        Shard {
            hot: HashMap::default(),
            hot_len: 0,
            clock: VecDeque::new(),
            index: HashMap::default(),
            store,
            scratch: Vec::new(),
        }
    }

    /// The hot entry for `key`, if resident: one u64 bucket probe plus a
    /// byte comparison per collision-chained candidate.  An associated
    /// fn over the table (not `&self`) so the spilled-record scans can
    /// ask while they hold the store.
    fn hot_get<'a>(hot: &'a HotTable<O>, hash: u64, key: &[u8]) -> Option<&'a HotEntry<O>> {
        hot.get(&hash)?.as_slice().iter().find(|e| &*e.key == key)
    }

    /// Finds `key`'s spilled record, if any: probes the hashed index and
    /// verifies candidates by full-key-byte comparison.  Returns the
    /// summary together with the record's freshness; the caller promotes
    /// the result back to the hot tier via [`Self::admit`].
    fn rehydrate(&mut self, hash: u64, key: &[u8]) -> Result<Rehydrated<O>, SpillError> {
        // Destructure so the index borrow and the store's mutable borrow
        // are disjoint — this is the cold-tier hot path: the payload is
        // lent from the store's buffers, nothing is allocated until a
        // candidate's summary is decoded.
        let Shard { index, store, .. } = self;
        let slots = match index.get(&hash) {
            Some(slots) => slots,
            None => return Ok(None),
        };
        let store = store
            .as_mut()
            .expect("spill index entries require a segment store");
        for slot in slots {
            let payload = store.read(&slot.spill_ref)?;
            let (stored_key, summary) =
                split_entry::<O>(payload).ok_or_else(|| undecodable_entry(&slot.spill_ref))?;
            if stored_key == key {
                return Ok(Some((Arc::new(summary), slot.fresh)));
            }
        }
        Ok(None)
    }

    fn admit(
        &mut self,
        hash: u64,
        key: Arc<[u8]>,
        summary: Arc<Summary<O>>,
        spilled: bool,
        fresh: bool,
        hot_capacity: usize,
    ) -> Result<(), SpillError> {
        if hot_capacity != usize::MAX {
            while self.hot_len >= hot_capacity {
                self.evict_one()?;
            }
            self.clock.push_back((hash, Arc::clone(&key)));
        }
        let entry = HotEntry {
            key,
            summary,
            referenced: AtomicBool::new(true),
            spilled,
            fresh,
        };
        match self.hot.entry(hash) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(Bucket::One(entry));
            }
            std::collections::hash_map::Entry::Occupied(slot) => {
                slot.into_mut().push(entry);
            }
        }
        self.hot_len += 1;
        Ok(())
    }

    /// Evicts exactly one hot entry in clock (second-chance) order,
    /// spilling its full `(key bytes, summary)` record unless one
    /// already exists.  After this, the evicted key's only full copy
    /// lives on disk — the RAM cost of a cold entry is its index slot.
    fn evict_one(&mut self) -> Result<(), SpillError> {
        loop {
            let (hash, key) = self
                .clock
                .pop_front()
                .expect("clock queue tracks every hot entry");
            let entry = {
                let mut slot = match self.hot.entry(hash) {
                    std::collections::hash_map::Entry::Occupied(slot) => slot,
                    std::collections::hash_map::Entry::Vacant(_) => {
                        unreachable!("clock queue tracks every hot entry")
                    }
                };
                let entries = slot.get().as_slice();
                let pos = entries
                    .iter()
                    .position(|e| Arc::ptr_eq(&e.key, &key))
                    .expect("clock queue tracks every hot entry");
                if entries[pos].referenced.load(Ordering::Relaxed) {
                    entries[pos].referenced.store(false, Ordering::Relaxed);
                    self.clock.push_back((hash, key));
                    continue;
                }
                match slot.get_mut() {
                    Bucket::One(_) => {
                        let Bucket::One(entry) = slot.remove() else {
                            unreachable!("just matched One")
                        };
                        entry
                    }
                    Bucket::Many(entries) => {
                        let entry = entries.swap_remove(pos);
                        if entries.is_empty() {
                            slot.remove();
                        }
                        entry
                    }
                }
            };
            self.hot_len -= 1;
            if !entry.spilled {
                self.scratch.clear();
                encode_entry(&entry.key, &entry.summary, &mut self.scratch);
                let spill_ref = self
                    .store
                    .as_mut()
                    .expect("bounded hot tier requires a segment store")
                    .append(&self.scratch)?;
                self.index.entry(hash).or_default().push(SpillSlot {
                    spill_ref,
                    fresh: entry.fresh,
                });
            }
            return Ok(());
        }
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
                RwLock::new(Shard::new(store))
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
    /// takes only the shard's **read** lock: probe the bucket, compare
    /// bytes, set the atomic clock bit, clone the `Arc`.  Only a miss
    /// with a disk tier to consult (rehydrate + promote mutate the
    /// shard) upgrades to the write lock.
    pub(crate) fn get(&self, hash: u64, key: &[u8]) -> Result<Option<Arc<Summary<O>>>, SpillError> {
        let lock = &self.shards[self.shard_of(hash)];
        {
            let shard = lock.read().expect("memo shard poisoned");
            if let Some(entry) = Shard::hot_get(&shard.hot, hash, key) {
                entry.referenced.store(true, Ordering::Relaxed);
                return Ok(Some(Arc::clone(&entry.summary)));
            }
        }
        if self.per_shard_hot == usize::MAX {
            // All-RAM memo: a hot miss is a miss, no tier below.
            return Ok(None);
        }
        let mut shard = lock.write().expect("memo shard poisoned");
        if let Some(entry) = Shard::hot_get(&shard.hot, hash, key) {
            // A racing walker promoted it between our locks.
            entry.referenced.store(true, Ordering::Relaxed);
            return Ok(Some(Arc::clone(&entry.summary)));
        }
        match shard.rehydrate(hash, key)? {
            Some((summary, fresh)) => {
                // Promote: the full key re-enters RAM from the probe's
                // bytes (identical to the record's copy by construction).
                shard.admit(
                    hash,
                    Arc::from(key),
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
        if let Some(entry) = Shard::hot_get(&shard.hot, hash, key) {
            entry.referenced.store(true, Ordering::Relaxed);
            return Ok(Arc::clone(&entry.summary));
        }
        if self.per_shard_hot != usize::MAX {
            if let Some((existing, was_fresh)) = shard.rehydrate(hash, key)? {
                shard.admit(
                    hash,
                    Arc::from(key),
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
            Arc::from(key),
            Arc::clone(&summary),
            false,
            fresh,
            self.per_shard_hot,
        )?;
        self.distinct.fetch_add(1, Ordering::Relaxed);
        // Flat per-record estimate: key bytes + entry bookkeeping (Arc
        // headers, hash, bucket slot).  The budget this feeds is a soft
        // limit, so "approximately right, always monotone" is enough.
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
    /// shard's hot entries first, then its spilled-only records in file
    /// order (single-threaded, post-exploration).
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

    /// First `Some` produced by `f` over the memoized entries (hot first,
    /// then spilled-only — each key exactly once), stopping the scan as
    /// soon as it is found.
    pub(crate) fn find_map<R>(
        &self,
        mut f: impl FnMut(&[u8], &Arc<Summary<O>>) -> Option<R>,
    ) -> Result<Option<R>, SpillError> {
        for lock in &self.shards {
            let mut shard = lock.write().expect("memo shard poisoned");
            for bucket in shard.hot.values() {
                for entry in bucket.as_slice() {
                    if let Some(found) = f(&entry.key, &entry.summary) {
                        return Ok(Some(found));
                    }
                }
            }
            let Shard { hot, store, .. } = &mut *shard;
            let Some(store) = store else { continue };
            let mut found = None;
            // The store is walked front to back rather than through the
            // index: hash order would scatter the reads over its blocks.
            store.scan(|spill_ref, payload| {
                let (key, summary) =
                    split_entry::<O>(payload).ok_or_else(|| undecodable_entry(&spill_ref))?;
                if Shard::hot_get(hot, stable_hash64(key), key).is_none() {
                    found = f(key, &Arc::new(summary));
                }
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
            for bucket in shard.hot.values() {
                for entry in bucket.as_slice() {
                    if only_fresh && !entry.fresh {
                        continue;
                    }
                    scratch.clear();
                    encode_entry(&entry.key, &entry.summary, &mut scratch);
                    writer.append(&scratch)?;
                }
            }
            let Shard {
                hot, index, store, ..
            } = &mut *shard;
            let Some(store) = store else { continue };
            store.scan(|spill_ref, payload| {
                let mut input = payload;
                let key =
                    split_key_prefix(&mut input).ok_or_else(|| undecodable_entry(&spill_ref))?;
                let hash = stable_hash64(key);
                if only_fresh {
                    // Freshness lives in the index slot that addresses
                    // this very record.
                    let slot = index
                        .get(&hash)
                        .and_then(|slots| slots.iter().find(|slot| slot.spill_ref == spill_ref))
                        .ok_or_else(|| {
                            SpillError::corrupt(format!(
                                "the record at segment {} offset {} is not in the spill index",
                                spill_ref.segment, spill_ref.offset
                            ))
                        })?;
                    if !slot.fresh {
                        return Ok(true);
                    }
                }
                // Entries both hot and spilled were exported above; the
                // record's key-byte prefix detects them without decoding
                // the summary — and the record ships verbatim, no
                // re-encode.
                if Shard::hot_get(hot, hash, key).is_none() {
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
    /// whose key bytes fail the caller's `validate_key` (the protocol's
    /// canonical-key decoder, [`key_validator`]): a malformed key that
    /// slipped past the CRC must classify as [`SpillError::Corrupt`]
    /// here, at the trust boundary, not panic later in the census or
    /// witness paths.  Accepted key bytes are adopted verbatim (hashed
    /// once, never structurally re-encoded); records whose key is
    /// already present are skipped (their summaries are necessarily
    /// identical, both being the deterministic merge for that key).
    /// Imported entries count as **fresh** — this is how a coordinator
    /// absorbs worker deltas it must itself re-export.  Returns the
    /// number of records read.
    pub(crate) fn import_from(
        &self,
        path: &Path,
        validate_key: impl Fn(&[u8]) -> bool,
    ) -> Result<u64, SpillError> {
        self.import_inner(path, validate_key, true)
    }

    /// [`Self::import_from`], but the entries count as **seeded** (not
    /// fresh): they pre-existed this run — a persistent cache image or a
    /// distributed seed segment — so [`Self::export_delta`] excludes
    /// them and [`Self::seeded_len`] reports them as cache hits.
    pub(crate) fn import_seed_from(
        &self,
        path: &Path,
        validate_key: impl Fn(&[u8]) -> bool,
    ) -> Result<u64, SpillError> {
        self.import_inner(path, validate_key, false)
    }

    fn import_inner(
        &self,
        path: &Path,
        validate_key: impl Fn(&[u8]) -> bool,
        fresh: bool,
    ) -> Result<u64, SpillError> {
        let mut reader = SegmentReader::open(path)?;
        let mut records = 0u64;
        while let Some(payload) = reader.next_record()? {
            let (key, summary) = split_entry::<O>(payload).ok_or_else(|| {
                SpillError::corrupt(format!(
                    "{}: undecodable entry in record {records}",
                    path.display()
                ))
            })?;
            if !validate_key(key) {
                return Err(SpillError::corrupt(format!(
                    "{}: record {records} holds undecodable key bytes",
                    path.display()
                )));
            }
            self.insert_inner(stable_hash64(key), key, Arc::new(summary), fresh)?;
            records += 1;
        }
        Ok(records)
    }
}

/// The canonical key validator for protocol `P`: accepts exactly the
/// byte strings that decode as one self-delimiting configuration key
/// (`make_key_into`'s output).  Import paths run every foreign record's
/// key through this before adopting it.
pub(crate) fn key_validator<P>() -> impl Fn(&[u8]) -> bool
where
    P: SyncProtocol + SpillCodec,
    P::Output: SpillCodec,
{
    |key: &[u8]| {
        let mut input = key;
        decode_key_prefix::<P>(&mut input).is_some() && input.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn entry_record_roundtrips() {
        let key = key_for(42);
        let summary = summary_for(42);
        let mut buf = Vec::new();
        encode_entry(&key, &summary, &mut buf);
        let (k2, s2) = split_entry::<u64>(&buf).expect("decodes");
        assert_eq!(k2, key.as_slice());
        assert_eq!(s2, summary);
        buf.push(0);
        assert!(split_entry::<u64>(&buf).is_none(), "trailing garbage");
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
        let i = u64::from_le_bytes(key[9..17].try_into().expect("key_for's index field"));
        assert_eq!(key_for(i), key, "known key bytes");
        i
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
        assert_eq!(dest.import_from(&path, |_| true).unwrap(), 100);
        assert_eq!(dest.len(), 100);
        for i in 0..100u64 {
            let got = get(&dest, i).expect("imported key");
            assert_eq!(*got, summary_for(i));
        }

        // Importing the same file again is idempotent.
        assert_eq!(dest.import_from(&path, |_| true).unwrap(), 100);
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
            .import_from(&path, |key: &[u8]| key.len() >= 8)
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
        assert_eq!(memo.import_seed_from(&seed_path, |_| true).unwrap(), 40);
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
        fresh.import_from(&delta_path, |_| true).unwrap();
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
        warm.import_seed_from(&seed_path, |_| true).unwrap();
        for i in 0..40u64 {
            insert(&warm, i);
        }
        assert_eq!(warm.export_delta(&delta_path).unwrap(), 0);
        assert_eq!(warm.len(), 40);
        assert_eq!(warm.seeded_len(), 40);
    }

    /// Keys sharing a 64-bit hash must chain, not clobber: simulate a
    /// full collision by inserting two different byte keys under the
    /// same forged hash.
    #[test]
    fn hash_collisions_chain_on_key_bytes() {
        let memo: ShardedMemo<u64> = ShardedMemo::new(1, &MemoConfig::all_ram()).unwrap();
        let (a, b) = (b"key-a".to_vec(), b"key-b-longer".to_vec());
        let forged = 0xDEAD_BEEF_u64;
        memo.insert(forged, &a, Arc::new(summary_for(1))).unwrap();
        memo.insert(forged, &b, Arc::new(summary_for(2))).unwrap();
        assert_eq!(memo.len(), 2, "colliding keys are distinct states");
        assert_eq!(*memo.get(forged, &a).unwrap().unwrap(), summary_for(1));
        assert_eq!(*memo.get(forged, &b).unwrap().unwrap(), summary_for(2));
        assert!(memo.get(forged, b"key-c").unwrap().is_none());
    }

    /// Same, but through the spill tier: colliding keys evicted to disk
    /// rehydrate to their own summaries.
    #[test]
    fn hash_collisions_chain_through_the_spill_tier() {
        let memo: ShardedMemo<u64> = ShardedMemo::new(1, &MemoConfig::spill(1)).unwrap();
        let (a, b) = (b"key-a".to_vec(), b"key-b-longer".to_vec());
        let forged = 0xDEAD_BEEF_u64;
        memo.insert(forged, &a, Arc::new(summary_for(1))).unwrap();
        memo.insert(forged, &b, Arc::new(summary_for(2))).unwrap();
        // Push both out of the hot tier.
        for i in 10..20u64 {
            insert(&memo, i);
        }
        assert_eq!(*memo.get(forged, &a).unwrap().unwrap(), summary_for(1));
        assert_eq!(*memo.get(forged, &b).unwrap().unwrap(), summary_for(2));
        assert_eq!(memo.len(), 12);
    }
}
