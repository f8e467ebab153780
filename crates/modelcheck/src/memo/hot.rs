//! A shard's hot tier: its live entries, their key bytes, and — when the
//! tier is bounded — the clock that picks what to evict.
//!
//! A hot entry owns no allocation.  Its key bytes are copied once, at
//! admission, into the shard's [`KeyArena`] — an append-only list of
//! byte chunks — and the entry names them by position and length, so a
//! state costs its key bytes plus one 32-byte table slot
//! (`(u64, HotEntry)`).  An entry's position is also its identity: the
//! clock holds `(hash, key_at)` pairs, so admitting or evicting touches
//! no reference count.
//!
//! An eviction marks its key's bytes dead.  When dead bytes exceed live
//! ones (and fill at least one chunk), the table rewrites its live keys
//! into fresh chunks in clock order and updates each entry and each
//! clock item — one key copy per eviction, amortised, and the arena's
//! written bytes stay within twice the live ones plus a chunk.  An
//! unbounded tier never evicts, so it never compacts.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use super::PassThroughState;
use crate::explorer::Summary;

/// Bytes of a key chunk.  A key longer than this gets a chunk of its
/// own.
pub(super) const KEY_CHUNK: usize = 64 * 1024;

/// A clock item: an entry's key hash and its key's arena position.
pub(super) type ClockItem = (u64, u64);

/// Panic message of a clock item whose entry is gone.
const TRACKED: &str = "clock queue tracks every hot entry";

/// One hot entry: where its key bytes sit in the shard's arena, the live
/// summary, its clock reference bit, and whether a spill record for its
/// key already exists.  24 bytes.
pub(super) struct HotEntry<O> {
    /// Arena position of the key bytes: chunk index in the high 32
    /// bits, offset in the low 32.
    key_at: u64,
    key_len: u32,
    pub(super) summary: Arc<Summary<O>>,
    /// Second-chance bit: set on every touch, cleared (and the entry
    /// rotated to the clock tail) the first time the hand reaches it.
    /// Atomic so the read-locked hit path can set it without upgrading
    /// to the write lock.
    pub(super) referenced: AtomicBool,
    /// A segment record for this key already exists (the entry was
    /// rehydrated), so evicting it again writes nothing.
    pub(super) spilled: bool,
    /// Inserted fresh by this run's own exploration (as opposed to
    /// seeded from a persistent cache / distributed seed segment).
    /// `ShardedMemo::export_delta` writes exactly the fresh entries.
    pub(super) fresh: bool,
}

/// Append-only key storage: fixed-size byte chunks, each filled in
/// order and never moved.  `live` counts the bytes of keys still held,
/// `dead` the written bytes that hold none — evicted keys and the
/// unused ends of closed chunks.
struct KeyArena {
    chunks: Vec<Vec<u8>>,
    chunk_len: usize,
    live: usize,
    dead: usize,
}

impl KeyArena {
    fn new(chunk_len: usize) -> Self {
        KeyArena {
            chunks: Vec::new(),
            chunk_len,
            live: 0,
            dead: 0,
        }
    }

    /// Every key takes at least one byte, so no two held keys share a
    /// position.
    fn span(len: usize) -> usize {
        len.max(1)
    }

    /// Copies `key` in and returns its position.
    fn push(&mut self, key: &[u8]) -> u64 {
        let span = Self::span(key.len());
        let fits = self
            .chunks
            .last()
            .is_some_and(|chunk| chunk.capacity() - chunk.len() >= span);
        if !fits {
            if let Some(closed) = self.chunks.last() {
                self.dead += closed.capacity() - closed.len();
            }
            self.chunks
                .push(Vec::with_capacity(span.max(self.chunk_len)));
        }
        let index = self.chunks.len() - 1;
        let chunk = &mut self.chunks[index];
        let offset = chunk.len();
        chunk.extend_from_slice(key);
        chunk.resize(offset + span, 0);
        self.live += span;
        let index = u32::try_from(index).expect("a shard's key chunks fit a u32 index");
        let offset = u32::try_from(offset).expect("a key chunk's offsets fit a u32");
        (u64::from(index) << 32) | u64::from(offset)
    }

    fn get(&self, at: u64, len: u32) -> &[u8] {
        let offset = at as u32 as usize;
        &self.chunks[(at >> 32) as usize][offset..offset + len as usize]
    }

    /// Marks the bytes of a key of `len` bytes dead.
    fn free(&mut self, len: u32) {
        let span = Self::span(len as usize);
        self.live -= span;
        self.dead += span;
    }

    fn wants_compaction(&self) -> bool {
        self.dead > self.live && self.dead >= self.chunk_len
    }
}

/// A shard's hot entries, keyed by the precomputed 64-bit key hash.
/// The first entry under a hash sits inline in `inline`; a further one
/// whose key shares the hash goes to `collided` (empty unless two keys
/// collide on all 64 bits), and is promoted inline when that entry
/// leaves.
pub(super) struct HotTable<O> {
    inline: HashMap<u64, HotEntry<O>, PassThroughState>,
    collided: HashMap<u64, Vec<HotEntry<O>>, PassThroughState>,
    keys: KeyArena,
    /// Entries across `inline` and `collided`.
    len: usize,
    /// Clock order over the entries, front = eviction hand; kept only
    /// for a bounded tier.
    clock: Option<VecDeque<ClockItem>>,
}

impl<O> HotTable<O> {
    /// An empty table storing its keys in `chunk_len`-byte chunks
    /// ([`KEY_CHUNK`] outside tests); `bounded` keeps the clock that
    /// [`Self::evict`] turns.
    pub(super) fn new(bounded: bool, chunk_len: usize) -> Self {
        HotTable {
            inline: HashMap::default(),
            collided: HashMap::default(),
            keys: KeyArena::new(chunk_len),
            len: 0,
            clock: bounded.then(VecDeque::new),
        }
    }

    pub(super) fn len(&self) -> usize {
        self.len
    }

    /// `entry`'s key bytes.
    pub(super) fn key(&self, entry: &HotEntry<O>) -> &[u8] {
        self.keys.get(entry.key_at, entry.key_len)
    }

    /// The entry for `key`: one u64 probe plus a byte comparison, and a
    /// second probe only if a colliding key holds the inline slot.
    pub(super) fn get(&self, hash: u64, key: &[u8]) -> Option<&HotEntry<O>> {
        let first = self.inline.get(&hash)?;
        if self.key(first) == key {
            return Some(first);
        }
        self.collided
            .get(&hash)?
            .iter()
            .find(|entry| self.key(entry) == key)
    }

    /// Every entry with its key bytes: the inline ones, then the
    /// collided ones.
    pub(super) fn entries(&self) -> impl Iterator<Item = (&[u8], &HotEntry<O>)> {
        let collided = self.collided.values().flatten();
        self.inline
            .values()
            .chain(collided)
            .map(|entry| (self.key(entry), entry))
    }

    /// Admits `key` (absent from the table) under `hash`, copying its
    /// bytes into the arena; the entry starts referenced.
    pub(super) fn insert(
        &mut self,
        hash: u64,
        key: &[u8],
        summary: Arc<Summary<O>>,
        spilled: bool,
        fresh: bool,
    ) {
        let key_at = self.keys.push(key);
        let entry = HotEntry {
            key_at,
            key_len: u32::try_from(key.len()).expect("a key's length fits a u32"),
            summary,
            referenced: AtomicBool::new(true),
            spilled,
            fresh,
        };
        match self.inline.entry(hash) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(entry);
            }
            std::collections::hash_map::Entry::Occupied(_) => {
                self.collided.entry(hash).or_default().push(entry);
            }
        }
        if let Some(clock) = &mut self.clock {
            clock.push_back((hash, key_at));
        }
        self.len += 1;
    }

    /// The entry under `hash` whose key sits at `key_at` — an associated
    /// fn over the two maps, so a caller may hold the arena and the
    /// clock meanwhile.
    fn entry_mut<'a>(
        inline: &'a mut HashMap<u64, HotEntry<O>, PassThroughState>,
        collided: &'a mut HashMap<u64, Vec<HotEntry<O>>, PassThroughState>,
        hash: u64,
        key_at: u64,
    ) -> &'a mut HotEntry<O> {
        let first = inline.get_mut(&hash).expect(TRACKED);
        if first.key_at == key_at {
            return first;
        }
        let chain = collided.get_mut(&hash).expect(TRACKED);
        chain
            .iter_mut()
            .find(|entry| entry.key_at == key_at)
            .expect(TRACKED)
    }

    /// Takes the entry under `hash` at `key_at` out of the maps,
    /// promoting a collided entry into its inline slot.  Its key bytes
    /// stay readable until the next compaction.
    fn remove(&mut self, hash: u64, key_at: u64) -> HotEntry<O> {
        let first = self.inline.get_mut(&hash).expect(TRACKED);
        let entry = if first.key_at == key_at {
            match self.collided.get_mut(&hash) {
                Some(chain) => {
                    let promoted = chain.pop().expect("a collided chain is never empty");
                    if chain.is_empty() {
                        self.collided.remove(&hash);
                    }
                    std::mem::replace(first, promoted)
                }
                None => self.inline.remove(&hash).expect(TRACKED),
            }
        } else {
            let chain = self.collided.get_mut(&hash).expect(TRACKED);
            let at = chain
                .iter()
                .position(|entry| entry.key_at == key_at)
                .expect(TRACKED);
            let entry = chain.swap_remove(at);
            if chain.is_empty() {
                self.collided.remove(&hash);
            }
            entry
        };
        self.keys.free(entry.key_len);
        self.len -= 1;
        entry
    }

    /// Evicts exactly one entry in clock (second-chance) order.
    /// `spill` sees its hash, key bytes and entry before the bytes are
    /// freed; an error from it leaves the entry evicted.
    pub(super) fn evict<E>(
        &mut self,
        spill: impl FnOnce(u64, &[u8], &HotEntry<O>) -> Result<(), E>,
    ) -> Result<(), E> {
        let clock = self.clock.as_mut().expect("only a bounded hot tier evicts");
        let (hash, key_at) = loop {
            let (hash, key_at) = clock.pop_front().expect(TRACKED);
            let entry = Self::entry_mut(&mut self.inline, &mut self.collided, hash, key_at);
            if entry.referenced.swap(false, Ordering::Relaxed) {
                clock.push_back((hash, key_at));
                continue;
            }
            break (hash, key_at);
        };
        let entry = self.remove(hash, key_at);
        let spilled = spill(hash, self.keys.get(entry.key_at, entry.key_len), &entry);
        if self.keys.wants_compaction() {
            self.compact();
        }
        spilled
    }

    /// Rewrites the live keys into fresh chunks, in clock order, and
    /// points each entry and each clock item at its new position.
    fn compact(&mut self) {
        let HotTable {
            inline,
            collided,
            keys,
            clock,
            ..
        } = self;
        let clock = clock.as_mut().expect("only a bounded hot tier evicts");
        let mut fresh = KeyArena::new(keys.chunk_len);
        for (hash, key_at) in clock.iter_mut() {
            let entry = Self::entry_mut(inline, collided, *hash, *key_at);
            entry.key_at = fresh.push(keys.get(entry.key_at, entry.key_len));
            *key_at = entry.key_at;
        }
        *keys = fresh;
    }

    /// The bytes the arena has written — every chunk but the last in
    /// full, the last up to its end of use — and the live ones among
    /// them, counted from the entries.
    #[cfg(test)]
    pub(super) fn arena_bytes(&self) -> (usize, usize) {
        let chunks = &self.keys.chunks;
        let closed = chunks.iter().rev().skip(1).map(Vec::capacity);
        let written = closed.sum::<usize>() + chunks.last().map_or(0, Vec::len);
        let live = self.entries().map(|(key, _)| key.len().max(1)).sum();
        (written, live)
    }
}
