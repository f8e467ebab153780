//! Configuration keys: the raw layout every memo entry is stored under,
//! and the canonical layout symmetry reduction keys by — the one place
//! a key's tag bytes `0`–`3` are written.
//!
//! ## Symmetry reduction
//!
//! The paper's processes are identical up to rank, so many distinct
//! configurations are mere relabelings of one another — and exploring
//! each label variant separately pays up to `n!` redundancy that no
//! constant-factor hot-path win can touch.  `ExploreConfig::symmetry`
//! (`Symmetry::Off | PartialValue`, CLI tokens `off|partial+value`)
//! quotients the key path by the largest group that is *sound for the
//! protocol being checked*, composed of:
//!
//! * **settled-record pooling** — sound for **every** protocol.  Before
//!   hashing, the records of settled (decided or crashed) processes are
//!   sorted into their index slots in canonical byte order; active
//!   processes keep their true indexes and encodings.  Two
//!   configurations merged this way have *identical* active processes
//!   at *identical* indexes (hence identical future dynamics: a settled
//!   process is inert, and the silent-index set is unchanged) and
//!   multiset-equal settled records — and every quantity a `Summary`
//!   carries is a function of decision values/counts and the crash
//!   count, never of which index holds which settled record (validity
//!   is membership in the proposal set, agreement compares values
//!   pairwise, termination and `f` are counts).  Merged subtrees
//!   therefore summarize identically;
//! * **rank-inert pooling** — on top of settled-record pooling, the
//!   partial-orbit tier.  A protocol may declare an *active* process
//!   rank-inert ([`SpillCodec::rank_inert`]): its remaining behaviour
//!   no longer depends on its rank.  For CRW under
//!   `HighestFirst` commit order that is exactly the case when more
//!   actives sit below it than the adversary has crashes left
//!   (`actives_below > t − crashed`): its own coordinator round can
//!   then never arrive with it still the committing frontier, so for
//!   the rest of the run it only ever *receives* — a role every other
//!   rank-inert active plays identically.  Rank-inert actives join the
//!   settled pool (owner-stripped, tag 3), so two configurations that
//!   differ only in *which* doomed-to-silence ranks hold which state
//!   merge.  **Normal-form argument**: members of one partial orbit
//!   have identical true-active slots (bytes and indexes), identical
//!   settled-record multisets, and identical rank-inert state
//!   multisets; every transition of one member maps to a transition of
//!   the other by the slot permutation that witnesses the orbit, and
//!   — because effect-pruned adversary enumeration (`round.rs`) keys
//!   transitions by their *live effect*, not by raw crash pattern —
//!   the two members enumerate the *same multiset* of child orbits
//!   with the same multiplicities.  Summaries are multiset-invariant
//!   merges of child summaries except for `decided` discovery order,
//!   which the memo normalizes by sorting decided vectors (by
//!   canonical value encoding) at insert under this tier — so orbit
//!   members summarize identically and the quotient is summary-exact,
//!   terminal counts included;
//! * **value symmetry** — composed on top of the pooling when the
//!   protocol declares a value involution
//!   ([`SpillCodec::value_symmetric`] / [`SpillCodec::value_swapped`],
//!   e.g. flipping a binary estimate) *and* the run's proposal set is
//!   closed under it (checked per run against the actual proposals;
//!   where it does not apply, the run warns once and quotients by
//!   permutations alone).  The canonical key becomes the lexicographic
//!   minimum of the plain and the value-swapped encoding, so a
//!   configuration and its value mirror share one memo entry holding
//!   the canonical-space summary; a hit through the swapped encoding
//!   maps the summary back through the involution (element-wise on
//!   `decided` — the swap commutes with the dynamics, so terminals,
//!   rounds, and the violation flag are fixed points).  Composition is sound because the involution
//!   acts value-wise and commutes with rank inertness (which reads
//!   only statuses, ranks, and the crash budget — never values).
//!
//! What changes and what doesn't: `distinct_states` drops (each memo
//! entry now summarizes an orbit of configurations), and the per-round
//! census counts *orbits* rather than raw configurations — rounds,
//! bivalency flags, and the zero/non-zero structure are preserved, only
//! the counts shrink.  Verdicts, the root summary, and witness validity
//! are unchanged: witness reconstruction re-drives real (uncanonicalized)
//! configurations from the true initial configuration and probes the
//! memo through the same canonical keys, and an orbit representative's
//! `violating` bit equals every member's.  Disable symmetry
//! (`Symmetry::Off`, the default) when raw per-configuration counts or
//! differential comparison against historical baselines matter.  The
//! effective strength (off / pooled, with a value-quotient bit) is part
//! of the persistent-cache fingerprint and the checkpoint manifest, so
//! caches never cross strengths silently — should a protocol's
//! `value_symmetric` declaration or the proposal set change — and a
//! checkpoint suspended at one strength refuses to resume at another
//! (its frontier keys and memo image are meaningless in the other
//! quotient).
//!
//! ## Canonicalization hot path
//!
//! A canonical key is written in one place, the tier encoder
//! (`tier_key_into`), over a *source* of per-process records with two
//! implementors.  A [`Stepper`] encodes each form from the process's
//! state as it is asked; that is the key path of every configuration
//! that exists — a root, a donated subtree, a frontier root rebuilt
//! from its path — and a walk from one root runs it once.  The row an open round's
//! cursor stands on is the other: when a record is interned, the round
//! keeps beside its raw bytes what the encoder may ask of that process
//! in the child — its in-place and its pooled (owner-stripped) bytes, in
//! the plain and, under a value plan, the swapped encoding, and an
//! active process's state itself, which `rank_inert` is asked of — so
//! the key of a child nothing has stepped is the same encoder copying
//! those forms.  A first-of-orbit row thus costs the row's in-place
//! flags, its orbit vector and a table lookup, then one assembly per
//! encoding, one stable hash and one memo probe — and the key stands
//! for a child nothing answers for: it is settled or expanded under it,
//! never keyed again.  A key is always encoded from
//! scratch — its pooled records, a handful of short ones, sorted in
//! full — and nothing caches keys across frames: the orbit table
//! remembers, for the life of a frame, which children it has seen, and
//! the memo everything else.

use std::hash::Hash;

use twostep_model::codec::Canonicalizer;
use twostep_model::SymmetryContext;
use twostep_sim::{Decision, ProcStatus, Stepper};

use super::config::CheckableProtocol;
use crate::spill::SpillCodec;

/// Encodes `stepper`'s configuration into its **canonical key bytes**,
/// reusing `out` (cleared first): no per-process snapshot is cloned, and
/// in steady state no allocation happens at all (the buffer is
/// walker-local and reused across configurations).
///
/// Layout (self-delimiting, decoded by
/// [`decode_key_prefix`](crate::memo::decode_key_prefix) on the cold
/// witness path): `round: u32`, `process count: u32` (varints, like
/// every integer [`SpillCodec`] writes), then per process a tag byte —
/// `0` active + protocol encoding, `1` decided + value + round, `2`
/// crashed + optional `(value, round)`.  Byte equality of two
/// keys coincides with structural equality of the configurations because
/// every component encoding is canonical (see
/// [`CheckableProtocol::fingerprint`]).
pub(super) fn make_key_into<P>(stepper: &Stepper<P>, out: &mut Vec<u8>)
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    out.clear();
    stepper.round().get().encode(out);
    (stepper.procs().len() as u32).encode(out);
    for ((status, proc), decision) in stepper
        .status()
        .iter()
        .zip(stepper.procs())
        .zip(stepper.decisions())
    {
        encode_key_record(status, &**proc, decision, false, out);
    }
}

/// Appends the key record of one process as it stands in a slot: tag
/// `0` and its protocol encoding while it is active, its settled record
/// otherwise — with `swap`, those of its value-swapped image (which only
/// the value-symmetry tier asks for; a raw key is never swapped).
pub(super) fn encode_key_record<P>(
    status: &ProcStatus,
    proc: &P,
    decision: &Option<Decision<P::Output>>,
    swap: bool,
    out: &mut Vec<u8>,
) where
    P: CheckableProtocol,
    P::Output: SpillCodec,
{
    match status {
        ProcStatus::Active if swap => encode_active_record(&swapped_proc(proc), out),
        ProcStatus::Active => encode_active_record(proc, out),
        settled => encode_settled_record(settled, decision, swap, out),
    }
}

/// Appends the key record of an **active** process in state `proc`: tag
/// `0` and its protocol encoding.
pub(super) fn encode_active_record<P: SpillCodec>(proc: &P, out: &mut Vec<u8>) {
    out.push(0);
    proc.encode(out);
}

/// Appends the key record of one **settled** (decided or crashed)
/// process: tag `1` decided + value + round, or tag `2` crashed +
/// optional `(value, round)`.  Shared by the plain key encoding and the
/// canonical layout, so a settled process encodes identically whether or
/// not its record is about to be sorted.  With `swap` set, decided
/// values encode their [`SpillCodec::value_swapped`] image — the
/// value-symmetry tier's swapped encoding pass.
pub(super) fn encode_settled_record<O: SpillCodec>(
    status: &ProcStatus,
    decision: &Option<Decision<O>>,
    swap: bool,
    out: &mut Vec<u8>,
) {
    let encode_value = |v: &O, out: &mut Vec<u8>| {
        if swap {
            v.value_swapped()
                .expect("value-symmetry tier active but a decided value has no swap image")
                .encode(out)
        } else {
            v.encode(out)
        }
    };
    match status {
        ProcStatus::Active => unreachable!("settled records only"),
        ProcStatus::Decided => {
            let d = decision.as_ref().expect("decided process has a decision");
            out.push(1);
            encode_value(&d.value, out);
            d.round.get().encode(out);
        }
        ProcStatus::Crashed(_) => {
            out.push(2);
            match decision {
                None => out.push(0),
                Some(d) => {
                    out.push(1);
                    encode_value(&d.value, out);
                    d.round.get().encode(out);
                }
            }
        }
    }
}

/// The value-swapped twin of an active process state — only called on
/// the value-symmetry tier's swapped encoding pass, where the
/// activation check (`Symmetry::plan`) has already proven the protocol
/// value-symmetric.
pub(super) fn swapped_proc<P: SpillCodec>(proc: &P) -> P {
    proc.value_swapped()
        .expect("value-symmetry tier active but a process state has no swap image")
}

/// What has become of a process, as far as a key cares: the crash round
/// of a crashed one is not keyed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum Role {
    Active,
    Decided,
    Crashed,
}

impl Role {
    pub(super) fn of(status: &ProcStatus) -> Role {
        match status {
            ProcStatus::Active => Role::Active,
            ProcStatus::Decided => Role::Decided,
            ProcStatus::Crashed(_) => Role::Crashed,
        }
    }
}

/// A configuration as the tier encoder ([`tier_key_into`]) reads it: one
/// record per process, in the forms the canonical layouts are made of
/// (module docs, *Canonicalization hot path*: a [`Stepper`], or the row
/// an open round's cursor stands on).  With `swap` a form is that of the
/// process's [`SpillCodec::value_swapped`] image.
pub(super) trait KeySource<P: CheckableProtocol> {
    /// The round the configuration is about to play.
    fn round_number(&self) -> u32;
    /// How many processes it has.
    fn processes(&self) -> usize;
    fn role(&self, i: usize) -> Role;
    /// [`SpillCodec::rank_inert`] of **active** process `i`'s state.
    fn rank_inert(&self, i: usize, ctx: &SymmetryContext) -> bool;
    /// Appends process `i`'s record as it stands in a slot
    /// ([`encode_key_record`]): tag `0` + protocol encoding for an
    /// active process, the settled record otherwise.
    fn record(&self, i: usize, swap: bool, out: &mut Vec<u8>);
    /// Appends **active** process `i`'s owner-stripped encoding — as if
    /// the process at index 0 owned it ([`SpillCodec::encode_relabelled`])
    /// — untagged.
    fn stripped(&self, i: usize, swap: bool, out: &mut Vec<u8>);
}

impl<P> KeySource<P> for Stepper<P>
where
    P: CheckableProtocol,
    P::Output: SpillCodec,
{
    fn round_number(&self) -> u32 {
        self.round().get()
    }

    fn processes(&self) -> usize {
        self.procs().len()
    }

    fn role(&self, i: usize) -> Role {
        Role::of(&self.status()[i])
    }

    fn rank_inert(&self, i: usize, ctx: &SymmetryContext) -> bool {
        self.procs()[i].rank_inert(ctx)
    }

    fn record(&self, i: usize, swap: bool, out: &mut Vec<u8>) {
        let (status, decision) = (&self.status()[i], &self.decisions()[i]);
        encode_key_record(status, &*self.procs()[i], decision, swap, out);
    }

    fn stripped(&self, i: usize, swap: bool, out: &mut Vec<u8>) {
        if swap {
            swapped_proc(&*self.procs()[i]).encode_relabelled(0, out);
        } else {
            self.procs()[i].encode_relabelled(0, out);
        }
    }
}

/// Fills `in_place[i]` for every process: whether the tier encoder
/// leaves `p_{i+1}`'s record in its own slot rather than pooling it.
/// Every active process does — unless the protocol declares the
/// process's *rank* inert for the rest of the run
/// ([`SpillCodec::rank_inert`], soundness in the module docs).  One
/// ascending pass: `crash_budget` is the remaining crashes
/// `t − crashed`, and `actives_below` counts the actives `j < i` whose
/// rank `j + 1` is still reachable by the committing frontier
/// (`j + 1 ≥ round`).  Computed from the
/// **unswapped** state only — the value involution commutes with the
/// dynamics, so it cannot change rank inertness.
pub(super) fn flag_in_place<P, S>(source: &S, t: usize, in_place: &mut Vec<bool>)
where
    P: CheckableProtocol,
    S: KeySource<P>,
{
    let n = source.processes();
    in_place.clear();
    let mut crashed = 0usize;
    for i in 0..n {
        let role = source.role(i);
        in_place.push(role == Role::Active);
        crashed += usize::from(role == Role::Crashed);
    }
    let round = source.round_number();
    let crash_budget = t.saturating_sub(crashed);
    let mut running = 0usize;
    for (i, stands) in in_place
        .iter_mut()
        .enumerate()
        .filter(|(_, active)| **active)
    {
        let ctx = SymmetryContext {
            round,
            crash_budget,
            actives_below: running,
        };
        *stands = !source.rank_inert(i, &ctx);
        if (i as u32 + 1) >= round {
            running += 1;
        }
    }
}

/// Encodes one canonical key — the one place the canonical layout is
/// written, behind every [`KeySource`]: the walker's key-first probe (a
/// row's records), `enter`, witness reconstruction, and the distributed
/// frontier expander, so every engine keys (and therefore hashes, shards, and
/// partitions) a configuration identically, stepped or not.
///
/// * `swap` — encode the value-swapped twin of the configuration (the
///   value-symmetry tier runs this encoder twice and keeps the
///   lexicographically smaller key).
/// * `in_place` — which processes keep their slot ([`flag_in_place`]).
///
/// A process the encoder leaves **in place** — an active one, unless
/// its rank is inert — is encoded into its own slot; every other record
/// is **pooled**: settled records as they are, rank-inert actives
/// owner-stripped (relabelled to slot 0) behind tag `3`, all sorted by
/// their bytes into the remaining slots.
///
/// The canonical layout remains a valid key encoding —
/// [`decode_key_prefix`](crate::memo::decode_key_prefix) and the
/// segment key validator accept tags `0`–`3` unchanged.
pub(super) fn tier_key_into<P, S>(
    source: &S,
    swap: bool,
    in_place: &[bool],
    canon: &mut Canonicalizer,
    out: &mut Vec<u8>,
) where
    P: CheckableProtocol,
    S: KeySource<P>,
{
    let n = source.processes();
    out.clear();
    source.round_number().encode(out);
    (n as u32).encode(out);
    canon.begin();
    for i in (0..n).filter(|i| !in_place[*i]) {
        let rec = canon.record();
        match source.role(i) {
            Role::Active => {
                rec.push(3);
                source.stripped(i, swap, rec);
            }
            Role::Decided | Role::Crashed => source.record(i, swap, rec),
        }
    }
    canon.sort();
    let mut pooled = canon.iter_sorted();
    for (i, stands) in in_place.iter().enumerate() {
        if *stands {
            source.record(i, swap, out);
        } else {
            let (_, bytes) = pooled
                .next()
                .expect("one pooled record per slot not kept in place");
            out.extend_from_slice(bytes);
        }
    }
    debug_assert!(pooled.next().is_none(), "pooled records exceed slots");
}
