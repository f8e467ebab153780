//! One configuration's **open round**: its send phase run once, the
//! adversary's moves as an odometer over per-slot outcome lists, the
//! key records its children are made of, the successor-class and
//! orbit-class tables that say which children its frame has absorbed,
//! and the block the walk stands in, which the walker's block cache
//! keeps.
//! Every table is private to this module: a round is opened by
//! [`RoundKeys::open`], a class's summary is read through
//! [`RoundKeys::class_summary`] (an orbit's comes back from
//! [`RoundKeys::orbit_class`]) and written by [`RoundKeys::absorb`]
//! alone — which is what makes "has a summary" mean "was absorbed".
//!
//! ## Key-first successor generation
//!
//! A memoized DFS asks for far more children than it finds states: the
//! serial `(8, 7)` CRW walk enters 2 936 634 children — 9 192 expanded
//! configurations × ~320 adversary moves each — to find 47 789 states,
//! so 98.4 % of the children resolve in a memo hit (under
//! `partial+value`: 2 420 154 children for 5 787 orbits).  Building each
//! of those children as a [`Stepper`] — fork, run the send phase, deliver,
//! receive, encode — only to learn its key was the walk's dominant cost;
//! after that, materializing each move as a vector of crash stages
//! (282 211 moves ≈ 97 MB for the `(8, 7)` root alone), re-deriving what
//! each stage means for every cell of every row, and hashing + probing
//! the memo for every row were.  Successors are therefore generated
//! **key first**, from a round that is kept **factored**: a child is
//! resolved to a *successor class* by table lookups, a class's raw key
//! is assembled without the child, and of the 1.6 % nothing answers for
//! the terminal ones — four in five — are evaluated from the records
//! their key was assembled from: a child is a key until something has
//! to *run* on it, and `fork` + `step` is the path of the 0.3 % that
//! expand.
//!
//! The adversary of one round is a product — every active process
//! independently survives or crashes in one of its own outcomes (for the
//! one sending coordinator of `(8, 7)` up to 136 of them, 2 for a silent
//! process) — and what a move does to a process is a function of that
//! process's view alone.  A frame's open round ([`RoundKeys`]) follows
//! that shape, in four steps per row:
//!
//! 1. **counted rows** — when a configuration expands, its **send phase
//!    runs once** ([`SentRound`]) and the live-effect crash
//!    outcomes of each active process are listed against the plans it
//!    produced.  A move within the crash budget is a row of outcome
//!    indices (`0` = survives), and the rows stand in the canonical
//!    enumeration order — survive first, then each outcome, last process
//!    fastest — that action-index paths, checkpoints and frontier
//!    segments are written against.  None is written down.  A table of
//!    suffix counts (`count[slot][crashes left]`, 72 entries at
//!    `(8, 7)`) makes the number of rows a closed form and row `idx` a
//!    mixed-radix numeral; the walk keeps an **odometer** — the row it
//!    stands on and the crashes that row spends — and finds the next
//!    row in place, from the right: the last slot that can take a
//!    further outcome takes it, the slots after it go back to
//!    surviving.  A `RoundActions` vector exists only where the engine
//!    needs one — a memo miss that expands, a donation, a frontier or
//!    witness replay — *unranked* from the row's index into one pooled
//!    buffer, the cursor left where it stands;
//! 2. **record ids by (slot, outcome)** — the engine resolves each
//!    (process, outcome) pair once per configuration (~150 entries at
//!    `(8, 7)`): how the process's own round ends, and which
//!    destinations a crashing sender's data and control steps still
//!    reach.  A row reaches a process through the process's own outcome
//!    and the *senders'* outcomes, nothing else — so while no sender
//!    slot moves, a slot's [`RoundView`] (which senders'
//!    data and control messages reach it, how its round ends), hence
//!    its key record, is a function of its own outcome index alone, and
//!    a per-round table stamped with an epoch answers it.  The odometer
//!    reports the first slot it changed: the ids of the slots before it
//!    stand, the slots from it on read the table, and a view is
//!    computed only to fill an entry.  When a sender slot does move,
//!    the epoch moves on, every entry goes stale and **every** slot's
//!    id is looked up again — a sender late in the row changes the view
//!    of a slot early in it;
//! 3. **interned record ids** — a per-slot table maps each view met so
//!    far to the process's **key record**, the exact bytes
//!    `make_key_into` would emit for it in the child.  A view met for
//!    the first time is settled by the engine (the real `receive` on a
//!    copy of the post-send state), and its record is interned by
//!    content among the slot's records: different views often settle to
//!    the same bytes (a process that hears its own estimate, or dies at
//!    the end of the round undecided whatever it heard), and only ids
//!    that mean "equal bytes" make the next step work — without
//!    interning half the rows repeat a class, with it 86.8 %.  Beside
//!    its bytes a record keeps what they encode of the process — its
//!    status and its decision — for step 5;
//! 4. **the successor-class table** — the row's vector of record ids
//!    *is* its child: equal ids are equal records process by process,
//!    hence equal raw keys.  A frame-local open-addressed table keyed by
//!    that vector (hashed by an FNV fold kept as per-slot prefix states,
//!    so a row re-folds only the slots that changed; the index starts
//!    small and doubles at half full, so it is sized by the classes
//!    met; entries verified by comparing ids; pooled with the round)
//!    holds, per class the frame has absorbed, the child's real-space
//!    summary.  Only the **first** row of a class is keyed at all.
//!    Under a raw plan its raw key is assembled (header + one record
//!    per process) and taken to the memo.  Under a canonicalizing plan
//!    there is an **orbit level** between the class and the key: the
//!    row is resolved to its *orbit vector* — per slot, the record id
//!    where the tier encoder would leave the child's process in place,
//!    and, in the slots it would pool (settled records and rank-inert
//!    actives), the sorted *content ids* of the pooled records,
//!    interned across the frame by their plain-encoding bytes — and a
//!    second frame-local table of the same kind, keyed by that vector,
//!    holds per orbit the frame has absorbed the summary absorbed for
//!    it.  Equal vectors are equal in-place records at equal slots and
//!    equal multisets of pooled records, so equal plain *and* equal
//!    value-swapped canonical bytes: the same memo entry, read through
//!    the same orientation — an absorbed orbit answers the row with
//!    exactly what the memo probe it skips would return.  Only the first
//!    row of an *orbit* has its canonical key assembled — the tier
//!    encoder run over the forms each interned record keeps of its
//!    process, see the head of `canon.rs` — and probed.  Whatever answers, the summary is absorbed
//!    into the frame and recorded for the class and the orbit in one
//!    move, so a class or an orbit that has a summary has been absorbed.
//!    A row that repeats such a class is an addition: no key is
//!    assembled, nothing is hashed, neither the orbit table nor the memo
//!    is touched, no summary is cloned; the first row of another class
//!    of such an orbit is absorbed in full — only its probe is skipped.
//!    Above the class there is a **block level**.  Call the slot after
//!    the round's last sender the *cut*; the rows that agree on every
//!    slot before it are a *block*, and differ only in slots whose
//!    records are functions of their own outcomes (step 2).  So a
//!    block's sequence of children is fixed by its **content**: the
//!    child round, the process count and the crashes left to spend,
//!    then per process the records a row of the block may give it — the
//!    one record of a process settled before the round or of a slot
//!    before the cut, and the record of every outcome of a slot from the
//!    cut on, read through the (slot, outcome) table, where the block's
//!    own rows find them again — so equal contents are equal child
//!    keys, row for row.  A row starts a block when every slot from the
//!    cut on survives, however the cursor got there; a round whose last
//!    slot sends has no slot past the cut, and writes no content.  The
//!    walker keeps every block one of its frames took from first row to
//!    last in one [`BlockCache`], keyed by content, which forgets
//!    nothing: an index that doubles at half full, over one slot per
//!    block and one arena of contents at their own length.  An entry
//!    holds the block's row count, the terminals its rows added, and
//!    its *shape*: the rest of what they folded into their frame —
//!    worst rounds, `decided` in discovery order, the violation flag —
//!    a summary with no terminal, interned walker-wide by the
//!    [`SummaryInterner`] every summary the walker memoizes passes
//!    through too, so equal shapes are one allocation.  To record a
//!    block, its round keeps an accumulator for it while it is open:
//!    every summary the frame absorbs in it, and, once each (a
//!    per-class stamp), the class of a row that repeats one the frame
//!    absorbed before the block opened; it is stored with the block's
//!    count when the walk comes from its last row to the next block
//!    start, or to the end of the round.  A block the cache holds —
//!    taken by an earlier frame or earlier in the same one — is taken
//!    in one move, one [`Summary::absorb`] of its shape and one
//!    addition, its rows counted as steps and an unranking at the next
//!    row, when the arbiter lets all of its rows pass in silence
//!    (below), and row by row otherwise.  This is exact: equal contents
//!    lead to the same children, which the memo already holds — it
//!    forgets none; an eviction only moves an entry — under the same
//!    summaries; the merge is associative (maximum, ordered-set union,
//!    OR, sum) and, but for `terminals`, idempotent, so one absorb of
//!    the rows' fold is their absorbs one by one, and into a frame that
//!    has absorbed those rows already it adds their terminals alone;
//!    and a walker never outlives its run, so no summary meets another
//!    run's proposals, spec or `max_rounds`.  No state is admitted:
//!    `max_states`, step numbers and reports do not move;
//! 5. **the probe's miss is the child's entry** — a child nothing
//!    answers for is a new state, and the key its probe assembled —
//!    bytes, hash, swap orientation — is the key it is memoized under:
//!    nothing keys or probes it a second time.  It passes the
//!    `max_states` test, and then its records say what it is.  If every
//!    one of them is settled, or the child would play a round past
//!    `max_rounds`, it is **terminal**, and a terminal evaluation reads
//!    statuses and decisions, nothing else — which the records hold, and
//!    which are final (a decided or crashed process has nothing more to
//!    say): the spec check runs on them, the summary is interned among
//!    the distinct summaries of the walk and memoized, and the frame
//!    absorbs it — one step, no [`Stepper`].  Otherwise the child
//!    is forked, stepped and its frame pushed, under the same key.
//!
//! At `(8, 7)` the walk meets 33 138 blocks (31 367 of more than one
//! row) in 2 936 634 rows.  The cache holds 21 808 of the 31 367 when
//! the walk comes to them, and those are taken whole — 2 588 916 rows —
//! so 2 567 108 rows are never classified; it stores the other 9 559
//! once the walk has taken them, 1 805 of them the last block of their
//! round.  The 369 526 rows that are classified fall into 129 642
//! classes, and the first row of each is keyed and probed — 121 050
//! memo probes a walk, the root's included; the other 8 593 start a
//! block the cache takes.  Every other row costs a table lookup and an
//! addition.  (The serial walk's unlimited budget takes those rows in
//! silence: its 2 945 827 steps take 130 242 `step()` calls.)  Of the
//! 47 788 children nothing answers for, 38 597 are terminal and settled
//! from their rows, under 64 distinct summaries; 9 191 are forked,
//! stepped and expanded; the tier encoder runs on a [`Stepper`] once,
//! for the root.  Under `partial+value` the 2 420 154 rows meet 18 662
//! blocks of more than one row, of which the cache takes 14 033 and
//! stores the other 4 629 (712 of them the last block of their round),
//! and 2 112 348 rows are never classified; the rest fall into 90 038
//! classes, those into 33 422 orbit classes — the keys assembled and
//! probed — and of the 5 786 children nothing answers for 2 810 are
//! settled from their rows and 2 976 expand.  An index row can only
//! name active processes.
//! The distributed frontier expander, the steal harvester and witness
//! replay key their children the same way: the harvester builds no child
//! at all — a probe's miss is its record — the expander only those of a
//! level it expands further, and witness replay only the child it
//! descends into.
//!
//! **Multiplicity and order are untouched.**  The class table answers
//! *what* a child's summary is, never *whether* the row counts: every
//! row is still taken in enumeration order and counted as a step.  What
//! a row that repeats an absorbed class contributes is worked out, not
//! skipped: [`Summary`]'s merge takes the maximum of worst rounds, the
//! ordered-set union of `decided` and the OR of `violating` — all three
//! idempotent, so merging the same child a second time changes none of
//! them, whatever was merged in between — and adds `terminals`
//! (saturating at `u64::MAX`), so the whole of the second merge is that
//! addition (property-tested).  A **run** is a maximal stretch of consecutive
//! such rows; since none of them touches the memo, the stack or
//! anything an arbiter looks at but the step count, one `step()` call
//! takes a run together with the step that ends it — the next first row
//! of a class, or the frame's pop — as far as the arbiter's
//! `Arbiter::headroom` says no verdict but `Allow` is
//! passed over (the serial `(8, 7)` walk: 2 945 827 steps in 130 242
//! calls).  A block the cache holds is taken under the same rule — in
//! one move when the headroom covers it, split like any run when not;
//! its rows are memo hits or repeats, whose summaries its shape folds
//! in their order.  Order cannot change because
//! nothing is reordered: the first row of every class that is entered
//! at all is where it was, so the children are entered in the same
//! order (DFS order, memo insertion order), `decided` values are
//! discovered in the same order (a repeat discovers none), and a
//! budget, a yield or a deadline poll falls on the same step number.
//!
//! Soundness rests on three facts of the round semantics, all of them
//! properties of [`Stepper::step`] (which is written on top
//! of the same per-process settle function, so this is a second *caller*
//! of the round, not a second copy):
//!
//! 1. the send phase depends only on a process's state and the round —
//!    never on the adversary — so one execution serves every row;
//! 2. `receive` is a function of the post-send state, the round and the
//!    inbox;
//! 3. `step` touches process `j` only through `j`'s inbox and `j`'s own
//!    action — exactly what a view records — so rows that give `j` equal
//!    views leave `j` with equal key records.
//!
//! What is deliberately **not** keyed, because `make_key_into` never
//! encoded it: metrics, the trace, and the round a process crashed in.
//! In debug builds the walker's oracles
//! (`assembled_keys_are_stepped_keys`, `skipped_probe`,
//! `records_are_the_stepped_child`) fork and step after all for every
//! key assembled from records, every row answered from a table and
//! every child settled from its row, and `block_is_its_rows` classifies
//! every row of a block taken whole and folds what the memo holds for
//! each into the frame's summary from before the take — so each
//! cell of the engine matrix is also a differential of this.
//! Enumeration order, absorb order, the one-step-per-child
//! accounting, the stop check and the `max_states` check are where they
//! always were: reports are bit-identical.  One thing does move: a
//! probe that is not made does not touch the memo's clock bits, so a
//! spilling memo may evict — and write — a different set of entries;
//! what it *answers* cannot change.
//!
//! ## Effect-pruned adversary enumeration
//!
//! Deliveries to settled receivers are no-ops on the configuration, so
//! two crash outcomes that differ only in such effect-free deliveries
//! produce byte-identical successors.  The explorer therefore
//! enumerates crash outcomes keyed by their **live effect** — which
//! *active* data receivers hear, which *active* control slots fire —
//! keeping one representative per class
//! ([`crash_outcomes_effective_into`]).  This prunes duplicate edges at
//! **every** symmetry mode (`Off` included): the reachable state set is
//! unchanged, while terminal/path counts drop to one per
//! effect-distinct schedule — which is also what restores the
//! transition *bijection* between partial-orbit members whose settled
//! pools differ in how many effect-free receivers they contain, making
//! the partial tier's terminal counts exact rather than merely
//! verdict-preserving.  (Logic version v4; Off-mode reports before v4
//! counted effect-duplicate terminals separately.)
//!
//! ## How wide a round can be
//!
//! Two limits, both checked before anything is walked:
//!
//! * **at most 64 processes** ([`SentRound::MAX_PROCESSES`]) — a view
//!   keeps the senders that reach a process as bits of a `u64`, so every
//!   round of a wider system would have to be stepped row by row to be
//!   keyed.  The run refuses such a system when it opens, with
//!   [`ExploreError::SystemTooWide`] (naming `n` and the limit), and every
//!   round the walker opens is tabulated;
//! * **at most 15 live data destinations per sender** — a row names each
//!   slot's outcome by a `u16`, `0` for surviving, so a process may have
//!   at most 65 534 crash outcomes in a round, and a sender with `d` live
//!   data destinations and `k` live commit prefixes has `2^d + k + 1` of
//!   them: `d` may reach 15, not 16.  CRW's round-1 coordinator sends
//!   data to every other process, so the walker takes CRW up to
//!   `n = 16`.  [`RoundKeys::open`] counts each slot's outcomes before it
//!   lists them, and a wider round fails the run with
//!   [`ExploreError::RoundTooWide`] (naming the round, the process and
//!   the count).

use std::hash::Hash;
use std::sync::Arc;

use twostep_adversary::{crash_outcome_count, crash_outcomes_effective_into};
use twostep_model::codec::stable_hash64;
use twostep_model::{CrashStage, ProcessId, SymmetryContext};
use twostep_sim::{
    Decision, ProcStatus, RoundActions, RoundView, SentRound, Stepper, SyncProtocol,
};

use super::canon::{
    encode_active_record, encode_key_record, encode_settled_record, swapped_proc, KeySource, Role,
};
use super::config::{CheckableProtocol, ExploreConfig, SymmetryPlan};
use super::report::{ExploreError, Summary, SummaryInterner};
use crate::spill::SpillCodec;

/// The most crash outcomes one process may have in a round: a row stores
/// each slot's outcome index as a `u16`, `0` for surviving (the head of
/// this module, "How wide a round can be").
const MAX_OUTCOMES: usize = u16::MAX as usize - 1;

/// One configuration's **open round** — what key-first successor
/// generation (module docs) works from, and the only thing that reads or
/// writes its tables: the send phase, the odometer, the interned key
/// records, the successor classes and, under a canonicalizing plan, the
/// orbit level ([`Orbits`]).  Pooled by the walker and re-opened
/// ([`open`](Self::open)) for one configuration after another.
pub(crate) struct RoundKeys<P>
where
    P: CheckableProtocol,
{
    sent: SentRound<P>,
    /// The crash stages open to each active process, in slot order
    /// ([`SentRound::active`]), one representative per live-effect
    /// class.  Outcome index `k ≥ 1` of a slot is its `k - 1`-th stage;
    /// `0` is survival.
    outcomes: Vec<Vec<CrashStage>>,
    /// How many processes a row may crash: the tighter of the `t` budget
    /// left and the per-round cap, and no more than there are slots.
    budget: usize,
    /// Suffix counts: `count[slot * (budget + 1) + left]` rows differ
    /// over the slots `slot..` when `left` crashes may still be spent
    /// (one, past the last slot).  The rows stand in canonical
    /// enumeration order — survival first, then each outcome; last slot
    /// fastest — which makes row `idx` a mixed-radix numeral in these.
    count: Vec<usize>,
    /// The cursor: the row last classified, its index (`None` before
    /// the first) and its class, and how many crashes that row spends.
    row: Vec<u16>,
    at: Option<usize>,
    class: usize,
    spent: usize,
    /// Key records ([`encode_key_record`] bytes), back to back, and each
    /// record id's range in them.
    records: Vec<u8>,
    ranges: Vec<(u32, u32)>,
    /// Per record id, what its bytes encode of the process: its status
    /// and decision in the child.  All a terminal evaluation reads, so a
    /// child whose records are all settled — final, whatever follows — is
    /// evaluated from its row and never built
    /// ([`cursor_terminal`](Self::cursor_terminal)).
    fates: Vec<(ProcStatus, ChildDecision<P>)>,
    /// The cursor row's child as a terminal evaluation reads it — one
    /// status and one decision per process — filled where the row is
    /// found to lead to a terminal.
    child_status: Vec<ProcStatus>,
    child_decisions: Vec<ChildDecision<P>>,
    /// Per process: the id of its record if it was settled before the
    /// round — no row changes it — and `None` for an active process,
    /// whose record is its slot's entry in a class.
    fixed: Vec<Option<u32>>,
    /// Per slot, the views met so far, each with the id of the record it
    /// settled to — interned per slot, so equal bytes get equal ids
    /// (module docs, step 3).
    known: Vec<Vec<(RoundView, u32)>>,
    /// The slots whose process sends, as a mask.  A row reaches a slot
    /// through the slot's own outcome and these slots' outcomes only.
    sender_slots: u64,
    /// Record ids by (slot, outcome) (module docs, step 2): entry
    /// `first_entry[slot] + outcome` is `(stamp, id)`, good while
    /// `stamp == epoch` — the epoch moves on whenever a sender slot does,
    /// and a stale entry is refilled from the slot's view.
    by_outcome: Vec<(u64, u32)>,
    first_entry: Vec<u32>,
    epoch: u64,
    /// The cursor row's record id per slot — the row's successor class —
    /// and the class hash as per-slot prefix states: `folds[slot]` is
    /// the fold of `ids[..slot]`, so a row that differs from the last in
    /// its trailing slots re-folds only those.
    ids: Vec<u32>,
    folds: Vec<u64>,
    classes: ClassTable<Arc<Summary<P::Output>>>,
    /// The orbit level, under a canonicalizing plan — boxed, so that a
    /// raw-plan round carries an empty pointer and nothing else of it.
    orbits: Option<Box<Orbits<P>>>,
    /// The block level (module docs, step 4): the slot after the last
    /// sender — the number of slots where no block can repeat: the last
    /// slot sends, or nothing sends.
    cut: usize,
    /// The block the walk entered at its first row and has not left.
    open_block: Option<OpenBlock>,
    /// The content ([`cursor_content`](Self::cursor_content)) of the
    /// block last looked up — the open one's, while one is open.
    content: Vec<u8>,
    /// What the open block's rows have folded into the frame so far —
    /// every summary [`absorb`](Self::absorb)ed while it is open, and
    /// once each the classes absorbed before it that its rows
    /// [`repeat`](Self::repeat).  Its terminal count is not read: a
    /// shape has none, so it is zeroed before the block is stored.
    block_acc: Summary<P::Output>,
    /// How many blocks the round has opened, and per class the number
    /// of the last one opened when its summary was absorbed or folded
    /// into `block_acc`: a class is in the open block's accumulator
    /// exactly when its stamp is `opened`.
    opened: u32,
    folded: Vec<u32>,
    /// How many blocks the walker's cache held that the walk took in one
    /// move, and how many it had to split, over the round's whole life
    /// in its walker's pool.
    #[cfg(test)]
    pub(super) block_counts: BlockCounts,
}

/// A block the walk entered at its first row: that row, the row after
/// its last, the frame's terminal count before it, and the hash of its
/// content.
#[derive(Clone, Copy)]
struct OpenBlock {
    first: usize,
    end: usize,
    terminals: u64,
    hash: u64,
}

/// What `RoundKeys::block_counts` counts.
#[cfg(test)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(super) struct BlockCounts {
    pub(super) whole: usize,
    pub(super) split: usize,
}

/// Scratch of [`RoundKeys::open`], kept by whoever opens rounds: a plan's
/// data destinations still active, and the 1-based control-message
/// counts `k` whose `k`-th receiver is — deliveries to settled processes
/// are effect-free, so the outcome lists quotient them out.
#[derive(Default)]
pub(super) struct LiveEffects {
    dests: Vec<ProcessId>,
    ks: Vec<usize>,
}

/// The decision one process of a configuration stands with, if it took
/// one.
pub(super) type ChildDecision<P> = Option<Decision<<P as SyncProtocol>::Output>>;

/// Where a keyed child's summary is recorded once its frame absorbs it
/// ([`RoundKeys::absorb`]): its successor class, and under a
/// canonicalizing plan its orbit class.
#[derive(Clone, Copy, Debug)]
pub(super) struct ChildClass {
    pub(super) class: usize,
    pub(super) orbit: Option<usize>,
}

/// The **orbit level** of an open round, kept under a canonicalizing
/// plan only.  Two things.  Per interned record, the **forms** the tier
/// encoder (`tier_key_into`) may ask of that process in the child —
/// written once when the record is interned, so that the canonical key
/// of a child nothing has stepped is assembled by copying them
/// ([`CursorRow`]).  And the **orbit classes** the frame's rows have met:
/// a second [`ClassTable`], consulted for the first row of a successor
/// class only, keyed on the row's *orbit vector* — per slot, the record
/// id where the encoder leaves the child's process in place, and in the
/// slots it pools the **content ids** of the pooled records, sorted.
/// Content ids intern the pooled forms by their plain bytes across the
/// whole frame (record ids are per slot); why equal vectors are one memo
/// entry read through one orientation is step 4 of the module docs.
struct Orbits<P: CheckableProtocol> {
    plan: SymmetryPlan,
    /// Per record id (parallel to [`RoundKeys::ranges`]).
    forms: Vec<RecordForms>,
    /// The states behind the active records, which `rank_inert` is asked
    /// of.  Pooled with the round: only the first `live_states` belong
    /// to it.
    states: Vec<P>,
    live_states: usize,
    /// The distinct pooled forms met in the frame — whether of an active
    /// process, and where the plain bytes lie in the record arena.  A
    /// record's content id is its form's index here.
    contents: Vec<(bool, (u32, u32))>,
    /// The record id of every process under the cursor row: fixed for a
    /// process settled before the round, refreshed from the row's ids
    /// for the others ([`RoundKeys::cursor_row`]).
    recs: Vec<u32>,
    /// The cursor row's orbit vector, and scratch for the content ids
    /// of its pooled slots.
    vector: Vec<u32>,
    pooled: Vec<u32>,
    table: ClassTable<Arc<Summary<P::Output>>>,
}

/// What [`Orbits`] keeps of one interned record: the process's role in
/// the child, and where in the record arena its forms lie, each as
/// `[plain, value-swapped]` (the swapped one only under a value plan).
struct RecordForms {
    role: Role,
    /// The record as it stands in a slot: tag `0` + encoding for an
    /// active process, the settled record otherwise.
    whole: [(u32, u32); 2],
    /// An active process's owner-stripped encoding (relabelled to slot
    /// 0, untagged).
    stripped: [(u32, u32); 2],
    /// The content id of the form the record pools as, if it ever does.
    content: u32,
    /// Where its state is kept among [`Orbits::states`], if it is.
    state: u32,
}

/// Appends what `write` encodes to the record arena; returns its range.
fn appended(records: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) -> (u32, u32) {
    let start = records.len() as u32;
    write(records);
    (start, records.len() as u32)
}

/// In an orbit vector, marks a content id — record ids and content ids
/// are numbered apart, and a slot kept in place must not compare equal
/// to a pooled one.
const POOLED: u32 = 1 << 31;

impl<P> Orbits<P>
where
    P: CheckableProtocol,
    P::Output: SpillCodec,
{
    fn new(plan: SymmetryPlan) -> Self {
        Orbits {
            plan,
            forms: Vec::new(),
            states: Vec::new(),
            live_states: 0,
            contents: Vec::new(),
            recs: Vec::new(),
            vector: Vec::new(),
            pooled: Vec::new(),
            table: ClassTable::new(),
        }
    }

    /// Keeps the forms of the record just interned with the next id —
    /// raw bytes `records[whole]` — of a process the round leaves
    /// active, in `state`.
    fn keep_active(&mut self, records: &mut Vec<u8>, whole: (u32, u32), state: &P) {
        let mut forms = RecordForms {
            role: Role::Active,
            whole: [whole; 2],
            stripped: [(0, 0); 2],
            content: u32::MAX,
            state: self.live_states as u32,
        };
        let swapped = self.plan.value.then(|| swapped_proc(state));
        if let Some(swapped) = &swapped {
            forms.whole[1] = appended(records, |out| encode_active_record(swapped, out));
        }
        forms.stripped[0] = appended(records, |out| state.encode_relabelled(0, out));
        if let Some(swapped) = &swapped {
            forms.stripped[1] = appended(records, |out| swapped.encode_relabelled(0, out));
        }
        forms.content = self.content_of(records, true, forms.stripped[0]);
        match self.states.get_mut(self.live_states) {
            Some(kept) => kept.clone_from(state),
            None => self.states.push(state.clone()),
        }
        self.live_states += 1;
        self.forms.push(forms);
    }

    /// Keeps the forms of the record just interned with the next id —
    /// raw bytes `records[whole]` — of a process settled as `status`
    /// with `decision`.
    fn keep_settled(
        &mut self,
        records: &mut Vec<u8>,
        whole: (u32, u32),
        status: &ProcStatus,
        decision: &Option<Decision<P::Output>>,
    ) {
        let swapped = match self.plan.value {
            true => appended(records, |out| {
                encode_settled_record(status, decision, true, out)
            }),
            false => whole,
        };
        let content = self.content_of(records, false, whole);
        self.forms.push(RecordForms {
            role: Role::of(status),
            whole: [whole, swapped],
            stripped: [(0, 0); 2],
            content,
            state: u32::MAX,
        });
    }

    /// The content id of the pooled form whose plain bytes are
    /// `records[range]`.
    fn content_of(&mut self, records: &[u8], active: bool, range: (u32, u32)) -> u32 {
        let bytes = |(from, to): (u32, u32)| &records[from as usize..to as usize];
        let met = (self.contents.iter())
            .position(|(of_active, at)| *of_active == active && bytes(*at) == bytes(range));
        met.unwrap_or_else(|| {
            self.contents.push((active, range));
            self.contents.len() - 1
        }) as u32
    }
}

/// The row an open round's cursor stands on, as a [`KeySource`]: the
/// child that row leads to — which nothing has stepped — read off the
/// forms of the records the row's ids name.
pub(super) struct CursorRow<'r, P: CheckableProtocol> {
    round: u32,
    records: &'r [u8],
    orbits: &'r Orbits<P>,
}

impl<P: CheckableProtocol> CursorRow<'_, P> {
    fn forms(&self, i: usize) -> &RecordForms {
        &self.orbits.forms[self.orbits.recs[i] as usize]
    }

    fn state(&self, i: usize) -> &P {
        &self.orbits.states[self.forms(i).state as usize]
    }

    fn copy(&self, (from, to): (u32, u32), out: &mut Vec<u8>) {
        out.extend_from_slice(&self.records[from as usize..to as usize]);
    }
}

impl<P> KeySource<P> for CursorRow<'_, P>
where
    P: CheckableProtocol,
{
    fn round_number(&self) -> u32 {
        self.round
    }

    fn processes(&self) -> usize {
        self.orbits.recs.len()
    }

    fn role(&self, i: usize) -> Role {
        self.forms(i).role
    }

    fn rank_inert(&self, i: usize, ctx: &SymmetryContext) -> bool {
        self.state(i).rank_inert(ctx)
    }

    fn record(&self, i: usize, swap: bool, out: &mut Vec<u8>) {
        self.copy(self.forms(i).whole[usize::from(swap)], out);
    }

    fn stripped(&self, i: usize, swap: bool, out: &mut Vec<u8>) {
        self.copy(self.forms(i).stripped[usize::from(swap)], out);
    }
}

/// The record id of every process under a row, in process order: its
/// `fixed` one for a process settled before the round, its slot's among
/// the row's `ids` otherwise.
fn row_records<'r>(fixed: &'r [Option<u32>], ids: &'r [u32]) -> impl Iterator<Item = u32> + 'r {
    let mut slots = ids.iter();
    (fixed.iter()).map(move |fixed| {
        fixed.unwrap_or_else(|| *slots.next().expect("one id per active process"))
    })
}

/// The class hash: an FNV-1a fold over a row's record ids, one id per
/// step.
const FOLD_START: u64 = 0xcbf2_9ce4_8422_2325;

#[inline]
fn fold_id(state: u64, id: u32) -> u64 {
    (state ^ u64::from(id)).wrapping_mul(0x0000_0100_0000_01b3)
}

fn fold_ids(ids: &[u32]) -> u64 {
    ids.iter().fold(FOLD_START, |state, id| fold_id(state, *id))
}

/// An open-addressed index of entry numbers by hash: entry + 1 per
/// bucket, `0` for an empty one, a power of two of buckets, doubled
/// when its entries fill half of it — so it is sized by what it holds.
/// What an entry is, and how a probe verifies one, is its owner's.
#[derive(Default)]
struct HashIndex(Vec<u32>);

impl HashIndex {
    /// Empties the index to `buckets` buckets.
    fn reset(&mut self, buckets: usize) {
        self.0.clear();
        self.0.resize(buckets, 0);
    }

    /// The first bucket from `hash`'s home on that is empty or holds an
    /// entry `matches` accepts, with what it holds.
    fn find(&self, hash: u64, matches: impl Fn(usize) -> bool) -> (usize, Option<usize>) {
        let mask = self.0.len() - 1;
        let mut bucket = (hash ^ (hash >> 32)) as usize & mask;
        loop {
            match self.0[bucket] {
                0 => return (bucket, None),
                entry if matches(entry as usize - 1) => return (bucket, Some(entry as usize - 1)),
                _ => bucket = (bucket + 1) & mask,
            }
        }
    }

    /// Puts `entry` — the last of the owner's, numbered from 0 — into
    /// `bucket`, which [`find`](Self::find) found empty, and doubles the
    /// index when that fills half of it, every entry going back by the
    /// hash `hash_of` gives it.
    fn put(&mut self, bucket: usize, entry: usize, hash_of: impl Fn(usize) -> u64) {
        self.0[bucket] = entry as u32 + 1;
        if 2 * (entry + 1) > self.0.len() {
            self.reset(2 * self.0.len());
            for entry in 0..=entry {
                let (bucket, _) = self.find(hash_of(entry), |_| false);
                self.0[bucket] = entry as u32 + 1;
            }
        }
    }
}

/// A frame's **successor classes** (module docs, step 4): the distinct
/// record-id vectors its rows have produced, each — once the frame has
/// absorbed it — with a value: the real-space summary of the child they
/// all lead to.  A [`HashIndex`] over them, entries verified by
/// comparing ids, starts small, so it is sized by classes, not by rows
/// (13 % of them at `(8, 7)`).  A round's orbit level ([`Orbits`])
/// keeps one more, keyed on orbit vectors.
struct ClassTable<V> {
    index: HashIndex,
    /// Class `c`'s record ids: `ids[c * stride..][..stride]`.
    ids: Vec<u32>,
    stride: usize,
    /// A class's value, from the moment its frame absorbed it — which
    /// [`RoundKeys::absorb`] alone records, so "has a summary" *is*
    /// "was absorbed", the fact run absorption rests on.
    values: Vec<Option<V>>,
}

impl<V> ClassTable<V> {
    /// Buckets of an emptied table: room for the classes of an average
    /// frame (42 at `(8, 7)`) without growing — in the index, which
    /// doubles at half full, and in the storage of the classes.
    const START_BUCKETS: usize = 128;

    fn new() -> Self {
        ClassTable {
            index: HashIndex::default(),
            ids: Vec::new(),
            stride: 0,
            values: Vec::new(),
        }
    }

    /// Empties the table for id vectors `stride` long.
    fn reset(&mut self, stride: usize) {
        self.index.reset(Self::START_BUCKETS);
        self.ids.clear();
        self.ids.reserve(Self::START_BUCKETS / 2 * stride);
        self.stride = stride;
        self.values.clear();
        self.values.reserve(Self::START_BUCKETS / 2);
    }

    fn ids_of(&self, class: usize) -> &[u32] {
        &self.ids[class * self.stride..][..self.stride]
    }

    /// The class of the id vector `ids`, whose [`fold_ids`] hash is
    /// `hash` — entered as a new one, without a value, when no row
    /// produced it before.
    fn class_of(&mut self, ids: &[u32], hash: u64) -> usize {
        debug_assert_eq!(ids.len(), self.stride);
        debug_assert_eq!(hash, fold_ids(ids));
        let (bucket, met) = self.index.find(hash, |class| self.ids_of(class) == ids);
        if let Some(class) = met {
            return class;
        }
        let class = self.values.len();
        self.ids.extend_from_slice(ids);
        self.values.push(None);
        let (ids, stride) = (&self.ids, self.stride);
        (self.index).put(bucket, class, |class| {
            fold_ids(&ids[class * stride..][..stride])
        });
        class
    }
}

/// The walker's **block cache** (module docs, step 4): every block
/// content a frame of the walk took from first row to last, each with
/// its row count, the terminals its rows added and its *shape* — the
/// rest of what they folded into their frame, a summary with no
/// terminal, whose `Arc` the walker's [`SummaryInterner`] hands out.
///
/// It forgets nothing.  A [`HashIndex`] picks a block by its content's
/// [`stable_hash64`], and a hit is verified on the full bytes.  A slot
/// is 16 bytes: the shape, the high half of the content's hash, and
/// where the block's record starts in one arena — its content's length,
/// its row count and its terminal count as varints, then the content,
/// at its own length, whatever that is.  So the cache is as large as
/// the blocks the walk has stored: 9 559 at the end of the serial CRW
/// `(8, 7)` walk (1.2 MB with the index and the spare capacity of each
/// buffer), 4 629 under `partial+value`.  Nothing is allocated before
/// the first store.
pub(super) struct BlockCache<O> {
    index: HashIndex,
    /// One per block stored, in the order of their stores.
    slots: Vec<CachedBlock<O>>,
    /// The blocks' records, back to back.
    arena: Vec<u8>,
    /// Whether a store keeps its block: a walk whose cache keeps
    /// nothing is a test's differential.
    #[cfg(test)]
    keeps: bool,
}

/// One slot of a [`BlockCache`]: its block's interned shape, the high
/// half of its content's hash, and where its record starts.
#[derive(Clone, PartialEq, Eq)]
struct CachedBlock<O> {
    shape: Arc<Summary<O>>,
    check: u32,
    at: u32,
}

/// What a [`BlockCache`] record holds besides its content, and where.
struct Record {
    rows: usize,
    terminals: u64,
    /// The content's range in the arena.
    content: std::ops::Range<usize>,
}

impl<O: Clone + Eq + Hash> BlockCache<O> {
    /// Buckets of the index at the first store.
    const START_BUCKETS: usize = 1 << 10;

    pub(super) fn new() -> Self {
        BlockCache {
            index: HashIndex::default(),
            slots: Vec::new(),
            arena: Vec::new(),
            #[cfg(test)]
            keeps: true,
        }
    }

    fn record(&self, block: &CachedBlock<O>) -> Record {
        let mut input = &self.arena[block.at as usize..];
        let mut varint = || u64::decode(&mut input).expect("a cache record's head");
        let (len, rows, terminals) = (varint() as usize, varint() as usize, varint());
        let start = self.arena.len() - input.len();
        Record {
            rows,
            terminals,
            content: start..start + len,
        }
    }

    fn content(&self, block: &CachedBlock<O>) -> &[u8] {
        &self.arena[self.record(block).content]
    }

    /// The bucket of the block stored under `content`, whose hash is
    /// `hash`, or the empty one where it would go, with the block.
    fn find(&self, hash: u64, content: &[u8]) -> (usize, Option<usize>) {
        let check = (hash >> 32) as u32;
        self.index.find(hash, |block| {
            let block = &self.slots[block];
            block.check == check && self.content(block) == content
        })
    }

    /// The rows, the terminals and the shape of the block stored under
    /// `content`, whose hash is `hash`, if one is.
    fn get(&self, hash: u64, content: &[u8]) -> Option<(usize, u64, &Summary<O>)> {
        if self.slots.is_empty() {
            return None;
        }
        let block = &self.slots[self.find(hash, content).1?];
        let Record {
            rows, terminals, ..
        } = self.record(block);
        Some((rows, terminals, &*block.shape))
    }

    /// Stores the block whose content is `content` (hash `hash`): its
    /// `rows`, the `terminals` they added, and its interned `shape` —
    /// unless a block of that content is stored already.
    fn store(
        &mut self,
        hash: u64,
        content: &[u8],
        rows: usize,
        terminals: u64,
        shape: Arc<Summary<O>>,
    ) {
        #[cfg(test)]
        if !self.keeps {
            return;
        }
        if self.slots.is_empty() {
            self.index.reset(Self::START_BUCKETS);
        }
        let (bucket, met) = self.find(hash, content);
        if met.is_some() {
            return;
        }
        let at = u32::try_from(self.arena.len()).expect("a block cache's arena fits a u32 offset");
        content.len().encode(&mut self.arena);
        rows.encode(&mut self.arena);
        terminals.encode(&mut self.arena);
        self.arena.extend_from_slice(content);
        self.slots.push(CachedBlock {
            shape,
            check: (hash >> 32) as u32,
            at,
        });
        let mut index = std::mem::take(&mut self.index);
        let hash_of = |block| stable_hash64(self.content(&self.slots[block]));
        index.put(bucket, self.slots.len() - 1, hash_of);
        self.index = index;
    }
}

impl<P> RoundKeys<P>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    /// A round with nothing in its tables, around a send phase, for a
    /// system of crash budget `t`.
    fn new(sent: SentRound<P>, plan: SymmetryPlan, t: usize) -> Self {
        RoundKeys {
            sent,
            outcomes: Vec::new(),
            budget: 0,
            count: Vec::new(),
            row: Vec::new(),
            at: None,
            class: 0,
            spent: 0,
            records: Vec::new(),
            ranges: Vec::new(),
            fates: Vec::new(),
            child_status: Vec::new(),
            child_decisions: Vec::new(),
            fixed: Vec::new(),
            known: Vec::new(),
            sender_slots: 0,
            by_outcome: Vec::new(),
            first_entry: Vec::new(),
            epoch: 0,
            ids: Vec::new(),
            folds: Vec::new(),
            classes: ClassTable::new(),
            orbits: plan.pooled.then(|| Box::new(Orbits::new(plan))),
            cut: 0,
            open_block: None,
            content: Vec::new(),
            block_acc: Summary::empty(t),
            opened: 0,
            folded: Vec::new(),
            #[cfg(test)]
            block_counts: BlockCounts::default(),
        }
    }

    /// Opens `stepper`'s next round — on the buffers of `pooled`, a
    /// retired round of the same run, when there is one: runs its send
    /// phase once, lists the crash outcomes open to each active process
    /// against the plans it produced, has the engine tabulate them, and
    /// counts the adversary moves within the crash budget — index rows
    /// the round's odometer steps through and unranks, the no-crash move
    /// first, then the canonical order that makes reports deterministic.
    /// Fails where stepping any child would have failed (the send phase
    /// does not look at the adversary), and with
    /// [`ExploreError::RoundTooWide`] where a process has more outcomes
    /// than a row can name.
    pub(super) fn open(
        pooled: Option<Self>,
        stepper: &Stepper<P>,
        config: &ExploreConfig,
        plan: SymmetryPlan,
        live: &mut LiveEffects,
    ) -> Result<Self, ExploreError> {
        let mut round = match pooled {
            Some(mut round) => {
                round.sent.reset(stepper).map_err(ExploreError::Engine)?;
                round
            }
            None => {
                let sent = SentRound::new(stepper).map_err(ExploreError::Engine)?;
                Self::new(sent, plan, stepper.config().t())
            }
        };
        let status = round.sent.status();
        let slots = round.sent.active().len();
        round.outcomes.resize_with(slots, Vec::new);
        for (&i, stages) in round.sent.active().iter().zip(&mut round.outcomes) {
            let plan = round.sent.plan(i).expect("active process has a plan");
            // Deliveries to settled (decided/crashed) receivers are
            // dropped by the engine, so crash stages differing only in
            // them produce bit-identical successors — enumerate one
            // representative per *live-effect* class (module docs,
            // "Effect-pruned adversary enumeration").
            live.dests.clear();
            live.dests.extend(
                plan.data
                    .iter()
                    .map(|(dst, _)| *dst)
                    .filter(|p| matches!(status[p.idx()], ProcStatus::Active)),
            );
            live.ks.clear();
            live.ks.extend(
                plan.control
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| matches!(status[p.idx()], ProcStatus::Active))
                    .map(|(k0, _)| k0 + 1),
            );
            // The live-effect list is as long as the full list of a plan
            // whose receivers are the live ones: count it before building it.
            let outcomes = crash_outcome_count(live.dests.len(), live.ks.len());
            if outcomes > MAX_OUTCOMES {
                return Err(ExploreError::RoundTooWide {
                    round: round.sent.round(),
                    process: ProcessId::from_idx(i),
                    outcomes,
                });
            }
            crash_outcomes_effective_into(
                status.len(),
                &live.dests,
                !plan.data.is_empty(),
                &live.ks,
                stages,
            );
            debug_assert_eq!(stages.len(), outcomes);
        }

        let crashed_so_far = status
            .iter()
            .filter(|s| matches!(s, ProcStatus::Crashed(_)))
            .count();
        // The tighter of the global `t` budget and the per-round cap.
        let budget = config
            .max_crashes_per_round
            .unwrap_or(usize::MAX)
            .min(stepper.config().t() - crashed_so_far);
        round.count_rows(budget);
        round.start_tables();
        Ok(round)
    }

    /// Counts the round's rows — every subset of the active processes of
    /// at most `budget` members crashing, each member in every one of its
    /// outcomes — suffix by suffix, from the last slot back.
    fn count_rows(&mut self, budget: usize) {
        let slots = self.outcomes.len();
        self.budget = budget.min(slots);
        let width = self.budget + 1;
        self.count.clear();
        self.count.resize((slots + 1) * width, 1);
        for slot in (0..slots).rev() {
            let stages = self.outcomes[slot].len();
            for left in 0..width {
                let below = (slot + 1) * width + left;
                let crashing = match left {
                    0 => Some(0),
                    _ => stages.checked_mul(self.count[below - 1]),
                };
                self.count[slot * width + left] = crashing
                    .and_then(|rows| rows.checked_add(self.count[below]))
                    .expect("a round's rows are indexed by usize");
            }
        }
    }

    /// Has the engine tabulate the outcomes and starts the round's
    /// tables: the fixed records of the processes settled before the
    /// round, no view met, no (slot, outcome) entry good, the cursor
    /// before the first row, no class, no block.
    fn start_tables(&mut self) {
        self.sent.tabulate(&self.outcomes);
        self.open_block = None;
        self.opened = 0;
        self.folded.clear();
        self.records.clear();
        self.ranges.clear();
        self.fates.clear();
        self.fixed.clear();
        if let Some(orbits) = &mut self.orbits {
            orbits.forms.clear();
            orbits.live_states = 0;
            orbits.contents.clear();
            orbits.recs.clear();
            orbits.recs.resize(self.sent.status().len(), 0);
        }
        for i in 0..self.sent.status().len() {
            let fixed = match &self.sent.status()[i] {
                ProcStatus::Active => None,
                settled => {
                    let start = self.records.len() as u32;
                    let decision = &self.sent.decisions()[i];
                    encode_settled_record(settled, decision, false, &mut self.records);
                    let whole = (start, self.records.len() as u32);
                    let id = self.ranges.len() as u32;
                    self.ranges.push(whole);
                    self.fates.push((settled.clone(), decision.clone()));
                    if let Some(orbits) = &mut self.orbits {
                        orbits.keep_settled(&mut self.records, whole, settled, decision);
                        orbits.recs[i] = id;
                    }
                    Some(id)
                }
            };
            self.fixed.push(fixed);
        }
        let slots = self.outcomes.len();
        self.known.resize_with(slots, Vec::new);
        self.known.iter_mut().for_each(Vec::clear);
        self.sender_slots = (self.sent.senders().iter()).fold(0, |mask, slot| mask | 1 << slot);
        self.first_entry.clear();
        let mut entries = 0;
        for stages in &self.outcomes {
            self.first_entry.push(entries);
            entries += stages.len() as u32 + 1;
        }
        // Stamp 0 is good in no epoch: the first row is unranked into
        // the cursor, which moves the epoch on.
        self.by_outcome.clear();
        self.by_outcome.resize(entries as usize, (0, 0));
        self.epoch = 0;
        self.row.clear();
        self.row.resize(slots, 0);
        self.at = None;
        self.ids.clear();
        self.ids.resize(slots, 0);
        self.folds.clear();
        self.folds.resize(slots + 1, FOLD_START);
        self.classes.reset(slots);
        if let Some(orbits) = &mut self.orbits {
            orbits.table.reset(slots);
        }
        // With nothing sending the round is one block, which no other
        // block of the frame can repeat.
        self.cut = self.sent.senders().last().map_or(slots, |last| last + 1);
    }

    /// How many adversary moves the round has.
    pub(crate) fn len(&self) -> usize {
        self.count[self.budget]
    }

    /// Unranks row `idx`: calls `put(slot, outcome index)` for every
    /// slot in order, without touching the cursor.  At each slot the
    /// rows that let it survive come first, then one block per crash
    /// outcome, each as long as the rest of the row has moves with one
    /// crash fewer to spend.
    fn unrank(&self, mut idx: usize, mut put: impl FnMut(usize, u16)) {
        debug_assert!(idx < self.len());
        let width = self.budget + 1;
        let mut left = self.budget;
        for slot in 0..self.outcomes.len() {
            let below = &self.count[(slot + 1) * width..][..width];
            let mut outcome = 0;
            if idx >= below[left] {
                idx -= below[left];
                left -= 1;
                outcome = idx / below[left] + 1;
                idx %= below[left];
            }
            put(slot, outcome as u16);
        }
    }

    /// Materializes row `idx` as the action vector the engine steps
    /// under — only ever setting active processes.  For the few places a
    /// child has to exist: a memo miss that expands, a donation, a
    /// frontier or witness replay.
    pub(crate) fn actions_into(&self, idx: usize, actions: &mut RoundActions) {
        actions.clear();
        actions.resize(self.sent.status().len(), None);
        let active = self.sent.active();
        self.unrank(idx, |slot, outcome| {
            if outcome > 0 {
                actions[active[slot]] = Some(self.outcomes[slot][outcome as usize - 1].clone());
            }
        });
    }

    /// Whether rows `idx..idx + rows` are one whole block: they agree on
    /// every slot before the cut, and the rows on either side of them do
    /// not.  Read off unranked rows, for the walker's debug oracle.
    pub(super) fn is_block(&self, idx: usize, rows: usize) -> bool {
        let prefix = |idx: usize| {
            let mut prefix = vec![0; self.cut];
            self.unrank(idx, |slot, outcome| {
                if slot < self.cut {
                    prefix[slot] = outcome;
                }
            });
            prefix
        };
        let first = prefix(idx);
        (idx..idx + rows).all(|row| prefix(row) == first)
            && (idx == 0 || prefix(idx - 1) != first)
            && (idx + rows == self.len() || prefix(idx + rows) != first)
    }

    /// Moves the cursor to the next row, in place and from the right:
    /// the last slot that can take its next outcome — a crashed one that
    /// has a further stage, a surviving one if the row has a crash left
    /// to spend — takes it, and every slot after it goes back to
    /// surviving.  Returns the first slot whose record id the move can
    /// have changed: the slot that stepped, or — the epoch moving on —
    /// slot 0 when a sender's outcome is among those that changed.
    fn advance(&mut self) -> usize {
        let mut moved = 0u64;
        for slot in (0..self.row.len()).rev() {
            let outcome = usize::from(self.row[slot]);
            let stepped = if outcome > 0 {
                let further = outcome < self.outcomes[slot].len();
                if further {
                    self.row[slot] += 1;
                } else {
                    self.row[slot] = 0;
                    self.spent -= 1;
                }
                further
            } else if self.spent < self.budget && !self.outcomes[slot].is_empty() {
                self.row[slot] = 1;
                self.spent += 1;
                true
            } else {
                continue;
            };
            moved |= 1 << slot;
            if stepped {
                if moved & self.sender_slots == 0 {
                    return slot;
                }
                self.epoch += 1;
                return 0;
            }
        }
        unreachable!("the cursor stood on the round's last row")
    }

    /// Resolves row `idx` to its successor class (module docs, steps
    /// 1–4): one interned record id per slot → class number.  The cursor
    /// moves to `idx` — one step of the odometer when the rows arrive in
    /// enumeration order, an unranking otherwise.
    pub(crate) fn classify(&mut self, idx: usize) -> usize {
        let slots = self.row.len();
        let from = match self.at.replace(idx) {
            // A row's class stands: the table only ever gains classes.
            Some(at) if at == idx => return self.class,
            Some(at) if at + 1 == idx => self.advance(),
            _ => {
                let mut row = std::mem::take(&mut self.row);
                self.unrank(idx, |slot, outcome| row[slot] = outcome);
                self.spent = row.iter().filter(|outcome| **outcome > 0).count();
                self.row = row;
                self.epoch += 1;
                0
            }
        };
        for slot in from..slots {
            let id = self.record_id(slot);
            self.ids[slot] = id;
            self.folds[slot + 1] = fold_id(self.folds[slot], id);
        }
        self.class = self.classes.class_of(&self.ids, self.folds[slots]);
        self.class
    }

    /// The id of `slot`'s record under the cursor row: its (slot,
    /// outcome) entry, refilled from the slot's view when stale (module
    /// docs, step 2).
    #[inline]
    fn record_id(&mut self, slot: usize) -> u32 {
        let entry = self.first_entry[slot] as usize + usize::from(self.row[slot]);
        let (stamp, id) = self.by_outcome[entry];
        if stamp == self.epoch {
            return id;
        }
        let view = self.sent.view(&self.row, slot);
        let id = match self.known[slot].iter().find(|(met, _)| *met == view) {
            Some(&(_, id)) => id,
            None => self.settle_record(slot, &view),
        };
        self.by_outcome[entry] = (self.epoch, id);
        id
    }

    /// Whether the row last [`classify`](Self::classify)d starts a block
    /// (module docs, step 4): the round has slots past the cut, and every
    /// one of them survives.  A property of the row, so an unranked
    /// cursor recognises a block start as a stepped one does.
    #[inline]
    pub(super) fn cursor_starts_block(&self) -> bool {
        // From the right, where the odometer moves fastest.
        self.cut < self.row.len()
            && self.row[self.cut..]
                .iter()
                .rev()
                .all(|outcome| *outcome == 0)
    }

    /// Takes in one move the block that row `idx` — the row last
    /// [`classify`](Self::classify)d, which
    /// [starts one](Self::cursor_starts_block) — starts, folding its
    /// rows into `acc`, the frame's summary before row `idx`: returns
    /// how many rows it has.  First the block the walk leaves here is
    /// [closed](Self::close_block).  Then `cache` answers (module docs,
    /// step 4), if `room()` — asked once, and only then — covers all of
    /// the block's rows: a content a frame took before is one
    /// [`Summary::absorb`] of its shape and one addition of its count.
    /// A block the cache holds that `room()` does not cover is split
    /// like a run; one it does not hold is entered, and stored when the
    /// walk comes from its last row to the row after it.  One the walk
    /// enters anywhere but its first row records nothing.  Out of line:
    /// the walk's loops over rows call it at block starts alone.
    #[inline(never)]
    pub(super) fn take_block(
        &mut self,
        idx: usize,
        acc: &mut Summary<P::Output>,
        cache: &mut BlockCache<P::Output>,
        interner: &mut SummaryInterner<P::Output>,
        room: impl FnOnce() -> u64,
    ) -> Option<usize> {
        debug_assert!(self.at == Some(idx) && self.cursor_starts_block());
        if self.open_block.is_some_and(|open| open.first == idx) {
            return None;
        }
        self.close_block(idx, acc, cache, interner);
        let rows = self.cursor_content()?;
        let hash = stable_hash64(&self.content);
        if let Some((stored, added, shape)) = cache.get(hash, &self.content) {
            debug_assert_eq!(stored, rows, "one content, one row count");
            let whole = rows as u64 <= room();
            #[cfg(test)]
            match whole {
                true => self.block_counts.whole += 1,
                false => self.block_counts.split += 1,
            }
            if whole {
                acc.absorb(shape);
                acc.terminals = acc.terminals.saturating_add(added);
            }
            return whole.then_some(rows);
        }
        self.opened += 1;
        self.block_acc.clear();
        self.open_block = Some(OpenBlock {
            first: idx,
            end: idx + rows,
            terminals: acc.terminals,
            hash,
        });
        None
    }

    /// Leaves the open block, if there is one, at row `idx` — a block
    /// start, or the round's end — with `acc` the frame's summary: if
    /// `idx` is the row after its last, the walk took every row of it,
    /// and it is stored in `cache` with its count and shape.  A
    /// saturated count is no block's count: nothing is kept.
    pub(super) fn close_block(
        &mut self,
        idx: usize,
        acc: &Summary<P::Output>,
        cache: &mut BlockCache<P::Output>,
        interner: &mut SummaryInterner<P::Output>,
    ) {
        let Some(open) = self.open_block.take() else {
            return;
        };
        if open.end == idx && acc.terminals != u64::MAX {
            self.block_acc.terminals = 0;
            let shape = interner.interned(&self.block_acc);
            let (rows, added) = (open.end - open.first, acc.terminals - open.terminals);
            cache.store(open.hash, &self.content, rows, added, shape);
        }
    }

    /// Writes into `content` the **content** of the block the cursor
    /// row starts, and returns how many rows it has — `None` for a
    /// block of one row: the row spends every crash left.  The child
    /// round, the process count and the crashes left, then per process
    /// the number of records a row may give it and those records: one
    /// for a process settled before the round or a slot before the cut,
    /// and for a slot from the cut on one per outcome, survival first —
    /// read through the (slot, outcome) table, where the block's own
    /// rows find them again.  A record needs no length: records are
    /// self-delimiting, as in a key, which is their concatenation.
    ///
    /// Past the last sender a slot's record is a function of its own
    /// outcome (step 2), and with a crash left every outcome of every
    /// such slot is some row's, so equal contents are equal child keys,
    /// row for row.
    fn cursor_content(&mut self) -> Option<usize> {
        let left = self.budget - self.spent;
        if left == 0 {
            return None;
        }
        let mut content = std::mem::take(&mut self.content);
        content.clear();
        self.sent.round().next().get().encode(&mut content);
        (self.fixed.len() as u32).encode(&mut content);
        (left as u32).encode(&mut content);
        let mut slot = 0;
        for i in 0..self.fixed.len() {
            if let Some(id) = self.fixed[i] {
                1usize.encode(&mut content);
                content.extend_from_slice(self.record(id));
            } else if slot < self.cut {
                1usize.encode(&mut content);
                content.extend_from_slice(self.record(self.ids[slot]));
                slot += 1;
            } else {
                let outcomes = self.outcomes[slot].len();
                (outcomes + 1).encode(&mut content);
                for outcome in 0..=outcomes {
                    self.row[slot] = outcome as u16;
                    let id = self.record_id(slot);
                    content.extend_from_slice(self.record(id));
                }
                self.row[slot] = 0;
                slot += 1;
            }
        }
        self.content = content;
        Some(self.count[self.cut * (self.budget + 1) + left])
    }

    /// The bytes of the record `id` names.
    fn record(&self, id: u32) -> &[u8] {
        let (from, to) = self.ranges[id as usize];
        &self.records[from as usize..to as usize]
    }

    /// Settles `slot`'s process under a view met for the first time and
    /// interns its key record among the slot's records.
    fn settle_record(&mut self, slot: usize, view: &RoundView) -> u32 {
        let start = self.records.len();
        let after = self.sent.settle(self.sent.active()[slot], view);
        let (status, state, decision) = (after.status, after.state, after.decision);
        encode_key_record(status, state, decision, false, &mut self.records);
        let (earlier, fresh) = self.records.split_at(start);
        let same = self.known[slot].iter().map(|(_, id)| *id).find(|id| {
            let (from, to) = self.ranges[*id as usize];
            earlier[from as usize..to as usize] == *fresh
        });
        let id = match same {
            Some(id) => {
                self.records.truncate(start);
                id
            }
            None => {
                let whole = (start as u32, self.records.len() as u32);
                self.ranges.push(whole);
                self.fates
                    .push((after.status.clone(), after.decision.clone()));
                if let Some(orbits) = &mut self.orbits {
                    match after.status {
                        ProcStatus::Active => {
                            orbits.keep_active(&mut self.records, whole, after.state)
                        }
                        settled => {
                            orbits.keep_settled(&mut self.records, whole, settled, after.decision)
                        }
                    }
                }
                self.ranges.len() as u32 - 1
            }
        };
        self.known[slot].push((*view, id));
        id
    }

    /// Assembles into `key` the raw key (`make_key_into` layout) of the
    /// class last [`classify`](Self::classify)d: round and process count,
    /// then one record per process — its slot's for an active one, its
    /// fixed one otherwise.
    pub(super) fn class_key_into(&self, key: &mut Vec<u8>) {
        key.clear();
        self.sent.round().next().get().encode(key);
        (self.fixed.len() as u32).encode(key);
        for id in row_records(&self.fixed, &self.ids) {
            key.extend_from_slice(self.record(id));
        }
    }

    /// If the child the row last [`classify`](Self::classify)d leads to
    /// is terminal — it would play a round past `max_rounds`, or every
    /// record of the row is settled — its statuses and decisions, process
    /// by process, read off the records.
    pub(super) fn cursor_terminal(
        &mut self,
        max_rounds: u32,
    ) -> Option<(&[ProcStatus], &[ChildDecision<P>])> {
        let fates = &self.fates;
        let quiescent = || (self.ids.iter()).all(|id| fates[*id as usize].0 != ProcStatus::Active);
        if self.sent.round().next().get() <= max_rounds && !quiescent() {
            return None;
        }
        self.child_status.clear();
        self.child_decisions.clear();
        for id in row_records(&self.fixed, &self.ids) {
            let (status, decision) = &fates[id as usize];
            self.child_status.push(status.clone());
            self.child_decisions.push(decision.clone());
        }
        Some((&self.child_status, &self.child_decisions))
    }

    /// The row last [`classify`](Self::classify)d — the child it leads
    /// to — as the tier encoder's source.  Canonicalizing plans only.
    pub(super) fn cursor_row(&mut self) -> CursorRow<'_, P> {
        let orbits = self.orbits.as_deref_mut();
        let orbits = orbits.expect("a canonicalizing plan keeps the records' forms");
        for (&i, &id) in self.sent.active().iter().zip(&self.ids) {
            orbits.recs[i] = id;
        }
        CursorRow {
            round: self.sent.round().next().get(),
            records: &self.records,
            orbits,
        }
    }

    /// Resolves the row last [`classify`](Self::classify)d to its orbit
    /// class — entered as a new one, without a summary, when no row of
    /// the frame produced its orbit vector before — and returns it with
    /// the summary the frame has absorbed for it, if any.  `in_place`
    /// are the row's flags (`flag_in_place` of its
    /// [`cursor_row`](Self::cursor_row)).
    pub(super) fn orbit_class(
        &mut self,
        in_place: &[bool],
    ) -> (usize, Option<Arc<Summary<P::Output>>>) {
        let orbits = self.orbits.as_deref_mut();
        let orbits = orbits.expect("a canonicalizing plan has an orbit level");
        orbits.vector.clear();
        orbits.pooled.clear();
        for (&i, &id) in self.sent.active().iter().zip(&self.ids) {
            if in_place[i] {
                orbits.vector.push(id);
            } else {
                orbits.vector.push(POOLED);
                orbits.pooled.push(orbits.forms[id as usize].content);
            }
        }
        // The pooled slots take the row's content ids in ascending
        // order: which slot pooled which record is what the orbit
        // forgets.
        orbits.pooled.sort_unstable();
        let mut sorted = orbits.pooled.iter();
        for entry in orbits.vector.iter_mut().filter(|entry| **entry == POOLED) {
            *entry |= sorted.next().expect("one content id per pooled slot");
        }
        let hash = fold_ids(&orbits.vector);
        let orbit = orbits.table.class_of(&orbits.vector, hash);
        (orbit, orbits.table.values[orbit].clone())
    }

    /// The summary the frame has absorbed for successor class `class`,
    /// if it has absorbed it.
    pub(super) fn class_summary(&self, class: usize) -> Option<&Arc<Summary<P::Output>>> {
        self.classes.values[class].as_ref()
    }

    /// Absorbs into `acc` — the summary the frame of this round is
    /// accumulating — the summary of a child met for the first time, and
    /// records it for the child's classes (`child`).  The one place a class or an orbit gets its
    /// summary, so that one that has a summary has been absorbed: what is
    /// left of a later row that repeats the class is its terminal count
    /// ([`Summary::absorb`] adds `terminals` and is idempotent in
    /// everything else), and a later row of the orbit is absorbed without
    /// asking the memo.
    pub(super) fn absorb(
        &mut self,
        acc: &mut Summary<P::Output>,
        child: ChildClass,
        summary: Arc<Summary<P::Output>>,
    ) {
        acc.absorb(&summary);
        if self.open_block.is_some() {
            self.block_acc.absorb(&summary);
        }
        if self.folded.len() <= child.class {
            self.folded.resize(child.class + 1, 0);
        }
        self.folded[child.class] = self.opened;
        if let (Some(orbit), Some(orbits)) = (child.orbit, &mut self.orbits) {
            // An orbit that answered the row itself keeps what it has.
            orbits.table.values[orbit].get_or_insert_with(|| Arc::clone(&summary));
        }
        self.classes.values[child.class] = Some(summary);
    }

    /// What is left of a row that repeats `class`, if the frame has
    /// absorbed that class: its terminal count.  If a block is open and
    /// the class was absorbed before it opened, the class's summary is
    /// folded into the block's once — the walk's repeats reach the block
    /// through here alone (a harvest probes rows; it never takes them).
    #[inline]
    pub(super) fn repeat(&mut self, class: usize) -> Option<u64> {
        let summary = self.classes.values[class].as_ref()?;
        if self.open_block.is_some() && self.folded[class] != self.opened {
            self.block_acc.absorb(summary);
            self.folded[class] = self.opened;
        }
        Some(summary.terminals)
    }
}

#[cfg(test)]
pub(super) mod tests;
