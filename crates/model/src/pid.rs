//! Process identifiers and dense process-id sets.
//!
//! The paper names processes `p_1, p_2, …, p_n` and the rotating-coordinator
//! algorithm relies on that total order (round `r` is coordinated by `p_r`,
//! commit messages are sent to `p_{r+1}, …, p_n` *in rank order*).
//! [`ProcessId`] therefore stores the **1-based rank** directly, and
//! [`PidSet`] is a bitset keyed by rank, used for delivery subsets, crashed
//! sets, and "heard-from" bookkeeping in the algorithms.

use std::fmt;
use std::num::NonZeroU32;

use crate::codec::SpillCodec;

/// A process identifier: the 1-based rank of a process in `p_1 … p_n`.
///
/// The rank order is semantically meaningful throughout the paper: the
/// coordinator of round `r` is `p_r`, and the ordered control-message
/// sequence of the extended model's second send step follows rank order.
///
/// `ProcessId` is a `NonZeroU32` newtype, so `Option<ProcessId>` is
/// pointer-width-free (niche optimized) — relevant because the simulator
/// stores per-destination options in hot loops.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(NonZeroU32);

impl ProcessId {
    /// Creates a process id from its 1-based rank.
    ///
    /// # Panics
    ///
    /// Panics if `rank == 0`; the paper's processes are numbered from 1.
    #[inline]
    pub fn new(rank: u32) -> Self {
        Self(NonZeroU32::new(rank).expect("process ranks are 1-based; rank 0 is invalid"))
    }

    /// Creates a process id from its 1-based rank, returning `None` for 0.
    #[inline]
    pub fn try_new(rank: u32) -> Option<Self> {
        NonZeroU32::new(rank).map(Self)
    }

    /// Creates a process id from a 0-based index (e.g. a `Vec` slot).
    ///
    /// # Panics
    ///
    /// Panics if `idx + 1` overflows `u32`.
    #[inline]
    pub fn from_idx(idx: usize) -> Self {
        let rank = u32::try_from(idx + 1).expect("process index out of u32 range");
        Self::new(rank)
    }

    /// The 1-based rank (`p_1` has rank 1).
    #[inline]
    pub fn rank(self) -> u32 {
        self.0.get()
    }

    /// The 0-based index (`p_1` has index 0), for slice addressing.
    #[inline]
    pub fn idx(self) -> usize {
        (self.0.get() - 1) as usize
    }

    /// The next process in rank order (`p_{r+1}`).
    #[inline]
    pub fn next(self) -> Self {
        Self::new(self.rank() + 1)
    }

    /// Iterator over all process ids `p_1 … p_n` for a system of size `n`.
    #[inline]
    pub fn all(n: usize) -> impl DoubleEndedIterator<Item = ProcessId> + Clone {
        (1..=u32::try_from(n).expect("n out of u32 range")).map(ProcessId::new)
    }

    /// Iterator over the processes with a **strictly higher** rank, i.e. the
    /// destinations of the paper's Figure 1 line 4/5 sends
    /// (`p_{r+1}, …, p_n`), in rank order.
    #[inline]
    pub fn higher(self, n: usize) -> impl DoubleEndedIterator<Item = ProcessId> + Clone {
        (self.rank() + 1..=u32::try_from(n).expect("n out of u32 range")).map(ProcessId::new)
    }
}

impl fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.rank())
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.rank())
    }
}

/// A dense set of process ids for a system of known size `n`.
///
/// Backed by `u64` words; all operations are branch-light and allocation is
/// amortized (one `Vec` per set). Used for the adversary's *arbitrary data
/// delivery subsets* (Section 2.1), crashed-process tracking, and the
/// "heard-from" sets of the flooding baselines.
///
/// Two `PidSet`s compare equal iff they have the same universe size **and**
/// the same members; this is deliberate, since delivery subsets are only
/// meaningful relative to a system size.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PidSet {
    /// Universe size `n`; member ranks are in `1..=n`.
    n: usize,
    /// Bit `i` of the concatenated words == membership of rank `i+1`.
    words: PidWords,
}

/// Word storage for a [`PidSet`].  Universes of up to 128 processes —
/// every system the checker's hot paths ever build — live **inline**:
/// constructing, cloning, and dropping such a set touches no allocator,
/// which is what makes crash-outcome enumeration and delivery filtering
/// allocation-free.  Larger universes (the flooding baselines allow
/// them) fall back to heap words.  The representation is a function of
/// `n` alone, so derived `Eq`/`Hash` never compare across variants; the
/// words beyond `word_count(n)` in an inline set are kept zero.
#[derive(Clone, PartialEq, Eq, Hash)]
enum PidWords {
    Inline([u64; INLINE_WORDS]),
    Heap(Vec<u64>),
}

const WORD_BITS: usize = 64;

/// Inline words: 2 × 64 bits covers `n ≤ 128`.
const INLINE_WORDS: usize = 2;

impl PidSet {
    /// The empty set over a universe of `n` processes.
    pub fn empty(n: usize) -> Self {
        let count = Self::word_count(n);
        Self {
            n,
            words: if count <= INLINE_WORDS {
                PidWords::Inline([0; INLINE_WORDS])
            } else {
                PidWords::Heap(vec![0; count])
            },
        }
    }

    /// Words needed for a universe of `n` processes.
    #[inline]
    fn word_count(n: usize) -> usize {
        n.div_ceil(WORD_BITS)
    }

    /// The live words of this set (exactly `word_count(n)` of them).
    #[inline]
    fn words(&self) -> &[u64] {
        match &self.words {
            PidWords::Inline(words) => &words[..Self::word_count(self.n)],
            PidWords::Heap(words) => words,
        }
    }

    /// Mutable view of the live words.
    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        let count = Self::word_count(self.n);
        match &mut self.words {
            PidWords::Inline(words) => &mut words[..count],
            PidWords::Heap(words) => words,
        }
    }

    /// The full set `{p_1, …, p_n}`.
    pub fn full(n: usize) -> Self {
        let mut s = Self::empty(n);
        for w in s.words_mut() {
            *w = u64::MAX;
        }
        s.clear_tail();
        s
    }

    /// Builds a set over universe `n` from an iterator of members.
    ///
    /// # Panics
    ///
    /// Panics if any member's rank exceeds `n`.
    pub fn from_iter<I: IntoIterator<Item = ProcessId>>(n: usize, members: I) -> Self {
        let mut s = Self::empty(n);
        for pid in members {
            s.insert(pid);
        }
        s
    }

    /// Universe size `n` this set ranges over.
    #[inline]
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Whether the set contains every process in the universe.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len() == self.n
    }

    /// Membership test.
    ///
    /// # Panics
    ///
    /// Panics if `pid`'s rank exceeds the universe size.
    #[inline]
    pub fn contains(&self, pid: ProcessId) -> bool {
        let i = self.checked_bit(pid);
        self.words()[i / WORD_BITS] & (1u64 << (i % WORD_BITS)) != 0
    }

    /// Inserts a member; returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, pid: ProcessId) -> bool {
        let i = self.checked_bit(pid);
        let w = &mut self.words_mut()[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        let fresh = *w & mask == 0;
        *w |= mask;
        fresh
    }

    /// Removes a member; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, pid: ProcessId) -> bool {
        let i = self.checked_bit(pid);
        let w = &mut self.words_mut()[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        let present = *w & mask != 0;
        *w &= !mask;
        present
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn union_with(&mut self, other: &PidSet) {
        assert_eq!(self.n, other.n, "PidSet universes differ");
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a |= b;
        }
    }

    /// In-place intersection with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn intersect_with(&mut self, other: &PidSet) {
        assert_eq!(self.n, other.n, "PidSet universes differ");
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a &= b;
        }
    }

    /// In-place set difference (`self \ other`).
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn difference_with(&mut self, other: &PidSet) {
        assert_eq!(self.n, other.n, "PidSet universes differ");
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a &= !b;
        }
    }

    /// Whether `self ⊆ other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn is_subset(&self, other: &PidSet) -> bool {
        assert_eq!(self.n, other.n, "PidSet universes differ");
        self.words()
            .iter()
            .zip(other.words())
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates over members in ascending rank order.
    pub fn iter(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.words().iter().enumerate().flat_map(|(wi, &w)| {
            let base = wi * WORD_BITS;
            BitIter { word: w, base }
        })
    }

    /// The lowest-ranked member, if any.
    pub fn min(&self) -> Option<ProcessId> {
        self.iter().next()
    }

    /// Removes all members.
    pub fn clear(&mut self) {
        for w in self.words_mut() {
            *w = 0;
        }
    }

    #[inline]
    fn checked_bit(&self, pid: ProcessId) -> usize {
        let i = pid.idx();
        assert!(i < self.n, "{pid} out of universe 1..={n}", n = self.n);
        i
    }

    /// Zeroes the bits above `n` in the last word so `Eq`/`Hash` stay honest.
    fn clear_tail(&mut self) {
        let tail = self.n % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words_mut().last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

impl SpillCodec for PidSet {
    fn encode(&self, out: &mut Vec<u8>) {
        self.n.encode(out);
        // Byte-identical to the `Vec<u64>` encoding: the count, then
        // the live words, each a varint.
        let words = self.words();
        (words.len() as u32).encode(out);
        for w in words {
            w.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let n = usize::decode(input)?;
        let words = Vec::<u64>::decode(input)?;
        if words.len() != Self::word_count(n) {
            return None;
        }
        let mut set = PidSet::empty(n);
        set.words_mut().copy_from_slice(&words);
        // Reject non-canonical tails: `Eq`/`Hash` assume the bits above
        // `n` are zero, so a decoded set must honor that too.
        let mut canonical = set.clone();
        canonical.clear_tail();
        (canonical == set).then_some(set)
    }
}

impl fmt::Debug for PidSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, pid) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{pid}")?;
        }
        write!(f, "}}")
    }
}

/// Iterator over the set bits of a single word.
struct BitIter {
    word: u64,
    base: usize,
}

impl Iterator for BitIter {
    type Item = ProcessId;

    #[inline]
    fn next(&mut self) -> Option<ProcessId> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1; // clear lowest set bit
        Some(ProcessId::from_idx(self.base + tz))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn rank_and_idx_round_trip() {
        for rank in 1..=70u32 {
            let pid = ProcessId::new(rank);
            assert_eq!(pid.rank(), rank);
            assert_eq!(pid.idx(), (rank - 1) as usize);
            assert_eq!(ProcessId::from_idx(pid.idx()), pid);
        }
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn rank_zero_panics() {
        let _ = ProcessId::new(0);
    }

    #[test]
    fn try_new_rejects_zero() {
        assert!(ProcessId::try_new(0).is_none());
        assert_eq!(ProcessId::try_new(3), Some(ProcessId::new(3)));
    }

    #[test]
    fn higher_matches_paper_destinations() {
        // Figure 1 line 4: coordinator p_r sends to processes with a higher
        // identity, i.e. p_{r+1} .. p_n in rank order.
        let dests: Vec<_> = ProcessId::new(2).higher(5).collect();
        assert_eq!(
            dests,
            vec![ProcessId::new(3), ProcessId::new(4), ProcessId::new(5)]
        );
        // The last process has no higher destination.
        assert_eq!(ProcessId::new(5).higher(5).count(), 0);
    }

    #[test]
    fn all_enumerates_in_order() {
        let ids: Vec<_> = ProcessId::all(3).collect();
        assert_eq!(
            ids,
            vec![ProcessId::new(1), ProcessId::new(2), ProcessId::new(3)]
        );
    }

    #[test]
    fn empty_full_invariants() {
        for n in [0usize, 1, 5, 63, 64, 65, 130] {
            let e = PidSet::empty(n);
            let f = PidSet::full(n);
            assert_eq!(e.len(), 0);
            assert!(e.is_empty());
            assert_eq!(f.len(), n);
            assert!(f.is_full());
            assert!(e.is_subset(&f));
            if n > 0 {
                assert!(!f.is_subset(&e));
            }
        }
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = PidSet::empty(10);
        let p3 = ProcessId::new(3);
        assert!(!s.contains(p3));
        assert!(s.insert(p3));
        assert!(!s.insert(p3), "double insert reports not-fresh");
        assert!(s.contains(p3));
        assert_eq!(s.len(), 1);
        assert!(s.remove(p3));
        assert!(!s.remove(p3), "double remove reports absent");
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn out_of_universe_panics() {
        let s = PidSet::empty(4);
        let _ = s.contains(ProcessId::new(5));
    }

    #[test]
    fn full_set_word_boundary() {
        // n = 64 exactly fills one word; n = 65 spills into a second.
        let f64b = PidSet::full(64);
        assert_eq!(f64b.len(), 64);
        assert!(f64b.contains(ProcessId::new(64)));
        let f65 = PidSet::full(65);
        assert_eq!(f65.len(), 65);
        assert!(f65.contains(ProcessId::new(65)));
    }

    #[test]
    fn eq_depends_on_universe() {
        // Same members, different universes: not equal (a delivery subset is
        // only meaningful relative to a system size).
        let a = PidSet::from_iter(4, [ProcessId::new(1)]);
        let b = PidSet::from_iter(5, [ProcessId::new(1)]);
        assert_ne!(a, b);
    }

    #[test]
    fn set_algebra_matches_reference() {
        let n = 70;
        let a = PidSet::from_iter(n, (1..=40).map(ProcessId::new));
        let b = PidSet::from_iter(n, (30..=70).map(ProcessId::new));

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.len(), 70);

        let mut i = a.clone();
        i.intersect_with(&b);
        let want: BTreeSet<u32> = (30..=40).collect();
        let got: BTreeSet<u32> = i.iter().map(|p| p.rank()).collect();
        assert_eq!(got, want);

        let mut d = a.clone();
        d.difference_with(&b);
        let want: BTreeSet<u32> = (1..=29).collect();
        let got: BTreeSet<u32> = d.iter().map(|p| p.rank()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn iter_ascending_and_min() {
        let s = PidSet::from_iter(100, [70, 3, 99, 64, 65].map(ProcessId::new));
        let ranks: Vec<u32> = s.iter().map(|p| p.rank()).collect();
        assert_eq!(ranks, vec![3, 64, 65, 70, 99]);
        assert_eq!(s.min(), Some(ProcessId::new(3)));
        assert_eq!(PidSet::empty(5).min(), None);
    }

    #[test]
    fn debug_formats() {
        let s = PidSet::from_iter(5, [1, 3].map(ProcessId::new));
        assert_eq!(format!("{s:?}"), "{p1, p3}");
        assert_eq!(format!("{}", ProcessId::new(2)), "p2");
    }
}
