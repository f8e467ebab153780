//! One configuration's **open round**: its send phase run once, the
//! adversary's moves as an odometer over per-slot outcome lists, the
//! key records its children are made of, and the successor-class and
//! orbit-class tables that say which children its frame has absorbed.
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
//!    and, in the slots it would pool (settled records; rank-inert
//!    actives on the partial tier; every record on the full orbit), the
//!    sorted *content ids* of the pooled records, interned across the
//!    frame by their plain-encoding bytes — and a second frame-local
//!    table of the same kind, keyed by that vector, holds per orbit the
//!    frame has absorbed the summary absorbed for it.  Equal vectors
//!    are equal in-place records at equal slots and equal multisets of
//!    pooled records, so equal plain *and* equal value-swapped canonical
//!    bytes: the same memo entry, read through the same orientation —
//!    an absorbed orbit answers the row with exactly what the memo probe
//!    it skips would return.  Only the first row of an *orbit* has its
//!    canonical key assembled — the tier encoder run over the forms each
//!    interned record keeps of its process, see the head of `canon.rs`
//!    — and probed.  Whatever answers, the summary is absorbed
//!    into the frame and recorded for the class and the orbit in one
//!    move, so a class or an orbit that has a summary has been absorbed.
//!    A row that repeats such a class is an addition: no key is
//!    assembled, nothing is hashed, neither the orbit table nor the memo
//!    is touched, no summary is cloned; the first row of another class
//!    of such an orbit is absorbed in full — only its probe is skipped;
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
//!    the distinct terminal summaries of the walk and memoized, and the
//!    frame absorbs it — one step, no [`Stepper`].  Otherwise the child
//!    is forked, stepped and its frame pushed, under the same key.
//!
//! At `(8, 7)` the 2 936 634 rows fall into 387 567 classes (13.2 %), so
//! that many keys are assembled and probed — 387 568 memo probes a walk,
//! the root's included — and the other 2 549 067 rows cost a table
//! lookup and an addition each.  Of the 47 788 children nothing answers
//! for, 38 597 are terminal and settled from their rows, under 64
//! distinct summaries; 9 191 are forked, stepped and expanded; the tier
//! encoder runs on a [`Stepper`] once, for the root.  Under
//! `partial+value` the 2 420 154 rows fall into 278 081 classes, those
//! into 72 818 orbit classes — the keys assembled and probed — and of
//! the 5 786 children nothing answers for 2 810 are settled from their
//! rows and 2 976 expand.  An index row can only name active processes.
//! The distributed frontier expander and the steal harvester key their
//! children the same way: the harvester builds no child at all — a
//! probe's miss is its record — and the expander only those of a level
//! it expands further.
//!
//! **Multiplicity and order are untouched.**  The class table answers
//! *what* a child's summary is, never *whether* the row counts: every
//! row is still taken in enumeration order and counted as a step.  What
//! a row that repeats an absorbed class contributes is worked out, not
//! skipped: [`Summary`]'s merge takes the maximum of worst rounds, the
//! ordered-set union of `decided` and the OR of `violating` — all three
//! idempotent, so merging the same child a second time changes none of
//! them, whatever was merged in between — and adds `terminals`, so the
//! whole of the second merge is `terminals += child.terminals`
//! (property-tested).  A **run** is a maximal stretch of consecutive
//! such rows; since none of them touches the memo, the stack or
//! anything an arbiter looks at but the step count, one `step()` call
//! takes a run together with the step that ends it — the next first row
//! of a class, or the frame's pop — as far as the arbiter's
//! `Arbiter::headroom` says no verdict but `Allow` is
//! passed over (the serial `(8, 7)` walk: 2 945 827 steps in 396 760
//! calls).  Order cannot change because nothing is reordered: the first
//! row of every class is where it was, so the children are entered in
//! the same order (DFS order, memo insertion order), `decided` values
//! are discovered in the same order (a repeat discovers none), and a
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
//! The one fallback is a system wider than the views' 64-bit sender
//! masks: the engine declines to tabulate it, nothing is classified, and
//! every row is materialized, stepped and entered as a configuration
//! that exists (key, probe, and on a miss what step 5 does from the
//! probe's miss on, read off the `Stepper`).  In debug builds the
//! walker's oracles (`assembled_keys_are_stepped_keys`, `skipped_probe`,
//! `records_are_the_stepped_child`) fork and step after all for every
//! key assembled from records, every row answered from a table and
//! every child settled from its row — so each differential suite is
//! also a differential of this.
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

use std::hash::Hash;
use std::sync::Arc;

use twostep_adversary::crash_outcomes_effective_into;
use twostep_model::{CrashStage, ProcessId, SymmetryContext};
use twostep_sim::{
    Decision, ProcStatus, RoundActions, RoundView, SentRound, SimError, Stepper, SyncProtocol,
};

use super::canon::{
    encode_active_record, encode_key_record, encode_settled_record, swapped_proc, KeySource, Role,
};
use super::config::{CanonTier, CheckableProtocol, ExploreConfig, SymmetryPlan};
use super::report::Summary;
use crate::spill::SpillCodec;

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
    /// Whether the engine tabulated the outcomes.  It declines a system
    /// wider than its view masks; no child of such a configuration is
    /// keyed, and every row takes the fork + step path.
    keyed: bool,
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
    classes: ClassTable<P::Output>,
    /// The orbit level, under a canonicalizing plan — boxed, so that a
    /// raw-plan round carries an empty pointer and nothing else of it.
    orbits: Option<Box<Orbits<P>>>,
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
    /// The states behind the active records of a tier that asks for them
    /// (`rank_inert`, `encode_relabelled` at a sorted position).  Pooled
    /// with the round: only the first `live_states` belong to it.
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
    table: ClassTable<P::Output>,
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
    /// 0, untagged), under the tiers that pool actives.
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
            state: u32::MAX,
        };
        let swapped = self.plan.value.then(|| swapped_proc(state));
        if let Some(swapped) = &swapped {
            forms.whole[1] = appended(records, |out| encode_active_record(swapped, out));
        }
        // The settled tier leaves every active in place and asks its
        // state nothing.
        if self.plan.tier != CanonTier::Settled {
            forms.stripped[0] = appended(records, |out| state.encode_relabelled(0, out));
            if let Some(swapped) = &swapped {
                forms.stripped[1] = appended(records, |out| swapped.encode_relabelled(0, out));
            }
            forms.content = self.content_of(records, true, forms.stripped[0]);
            forms.state = self.live_states as u32;
            match self.states.get_mut(self.live_states) {
                Some(kept) => kept.clone_from(state),
                None => self.states.push(state.clone()),
            }
            self.live_states += 1;
        }
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

    /// The stripped form (`at == 0`) is kept with the record; an owner
    /// anywhere else — the full orbit's sorted positions — is encoded
    /// from the kept state.
    fn relabelled(&self, i: usize, swap: bool, at: usize, out: &mut Vec<u8>) {
        if at == 0 {
            self.copy(self.forms(i).stripped[usize::from(swap)], out);
        } else if swap {
            swapped_proc(self.state(i)).encode_relabelled(at, out);
        } else {
            self.state(i).encode_relabelled(at, out);
        }
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

/// A frame's **successor classes** (module docs, step 4): the distinct
/// record-id vectors its rows have produced, each — once the frame has
/// absorbed it — with the real-space summary of the child they all lead
/// to.  Open addressing, entries verified by comparing ids; the index
/// starts small and doubles when the classes met fill half of it, so it
/// is sized by classes, not by rows (13 % of them at `(8, 7)`).  A
/// round's orbit level ([`Orbits`]) keeps a second one, keyed on orbit
/// vectors.
struct ClassTable<O> {
    /// Class number + 1 per bucket, `0` for an empty one; a power of two
    /// long.
    index: Vec<u32>,
    /// Class `c`'s record ids: `ids[c * stride..][..stride]`.
    ids: Vec<u32>,
    stride: usize,
    /// A class's summary, from the moment its frame absorbed it — which
    /// [`RoundKeys::absorb`] alone records, so "has a summary" *is* "was
    /// absorbed", the fact run absorption rests on.
    summaries: Vec<Option<Arc<Summary<O>>>>,
}

impl<O> ClassTable<O> {
    /// Buckets of an emptied table: room for the classes of an average
    /// frame (42 at `(8, 7)`) without growing.
    const START_BUCKETS: usize = 128;

    fn new() -> Self {
        ClassTable {
            index: Vec::new(),
            ids: Vec::new(),
            stride: 0,
            summaries: Vec::new(),
        }
    }

    /// Empties the table for a round of `stride` slots.
    fn reset(&mut self, stride: usize) {
        self.index.clear();
        self.index.resize(Self::START_BUCKETS, 0);
        self.ids.clear();
        self.stride = stride;
        self.summaries.clear();
    }

    fn ids_of(&self, class: usize) -> &[u32] {
        &self.ids[class * self.stride..][..self.stride]
    }

    /// The first bucket from `hash`'s home on that is empty or holds a
    /// class `matches` accepts, with what it holds.
    fn find(&self, hash: u64, matches: impl Fn(usize) -> bool) -> (usize, Option<usize>) {
        let mask = self.index.len() - 1;
        let mut bucket = (hash ^ (hash >> 32)) as usize & mask;
        loop {
            match self.index[bucket] {
                0 => return (bucket, None),
                entry if matches(entry as usize - 1) => return (bucket, Some(entry as usize - 1)),
                _ => bucket = (bucket + 1) & mask,
            }
        }
    }

    /// The class of the id vector `ids`, whose [`fold_ids`] hash is
    /// `hash` — entered as a new one, without a summary, when no row
    /// produced it before.
    fn class_of(&mut self, ids: &[u32], hash: u64) -> usize {
        debug_assert_eq!(ids.len(), self.stride);
        debug_assert_eq!(hash, fold_ids(ids));
        let (bucket, met) = self.find(hash, |class| self.ids_of(class) == ids);
        if let Some(class) = met {
            return class;
        }
        let class = self.summaries.len();
        self.ids.extend_from_slice(ids);
        self.summaries.push(None);
        self.index[bucket] = class as u32 + 1;
        if 2 * self.summaries.len() > self.index.len() {
            let buckets = 2 * self.index.len();
            self.index.clear();
            self.index.resize(buckets, 0);
            for class in 0..self.summaries.len() {
                let (bucket, _) = self.find(fold_ids(self.ids_of(class)), |_| false);
                self.index[bucket] = class as u32 + 1;
            }
        }
        class
    }
}

impl<P> RoundKeys<P>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    /// A round with nothing in its tables, around a send phase.
    fn new(sent: SentRound<P>, plan: SymmetryPlan) -> Self {
        RoundKeys {
            sent,
            outcomes: Vec::new(),
            budget: 0,
            count: Vec::new(),
            row: Vec::new(),
            at: None,
            class: 0,
            spent: 0,
            keyed: false,
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
            orbits: (plan.tier != CanonTier::Raw).then(|| Box::new(Orbits::new(plan))),
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
    /// does not look at the adversary).
    pub(super) fn open(
        pooled: Option<Self>,
        stepper: &Stepper<P>,
        config: &ExploreConfig,
        plan: SymmetryPlan,
        live: &mut LiveEffects,
    ) -> Result<Self, SimError> {
        let mut round = match pooled {
            Some(mut round) => {
                round.sent.reset(stepper)?;
                round
            }
            None => Self::new(SentRound::new(stepper)?, plan),
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
            crash_outcomes_effective_into(
                status.len(),
                &live.dests,
                !plan.data.is_empty(),
                &live.ks,
                stages,
            );
            assert!(
                stages.len() < usize::from(u16::MAX),
                "a row stores outcome indices as u16"
            );
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

    /// Has the engine tabulate the outcomes and, if it does, starts the
    /// round's tables: the fixed records of the processes settled before
    /// the round, no view met, no (slot, outcome) entry good, the cursor
    /// before the first row, no class.
    fn start_tables(&mut self) {
        self.keyed = self.sent.tabulate(&self.outcomes);
        if !self.keyed {
            return;
        }
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
    /// enumeration order, an unranking otherwise.  `None` for a round the
    /// engine did not tabulate; the caller steps the row instead.
    pub(crate) fn classify(&mut self, idx: usize) -> Option<usize> {
        if !self.keyed {
            return None;
        }
        let slots = self.row.len();
        let from = match self.at.replace(idx) {
            // A row's class stands: the table only ever gains classes.
            Some(at) if at == idx => return Some(self.class),
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
            let entry = self.first_entry[slot] as usize + usize::from(self.row[slot]);
            let (stamp, mut id) = self.by_outcome[entry];
            if stamp != self.epoch {
                let view = self.sent.view(&self.row, slot);
                id = match self.known[slot].iter().find(|(met, _)| *met == view) {
                    Some(&(_, id)) => id,
                    None => self.settle_record(slot, &view),
                };
                self.by_outcome[entry] = (self.epoch, id);
            }
            self.ids[slot] = id;
            self.folds[slot + 1] = fold_id(self.folds[slot], id);
        }
        self.class = self.classes.class_of(&self.ids, self.folds[slots]);
        Some(self.class)
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
            let (from, to) = self.ranges[id as usize];
            key.extend_from_slice(&self.records[from as usize..to as usize]);
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
        (orbit, orbits.table.summaries[orbit].clone())
    }

    /// The summary the frame has absorbed for successor class `class`,
    /// if it has absorbed it.
    pub(super) fn class_summary(&self, class: usize) -> Option<&Arc<Summary<P::Output>>> {
        self.classes.summaries[class].as_ref()
    }

    /// Absorbs into `acc` — the summary the frame of this round is
    /// accumulating — the summary of a child met for the first time, and
    /// records it for the child's classes (`child`; `None` if the round
    /// is not keyed).  The one place a class or an orbit gets its
    /// summary, so that one that has a summary has been absorbed: what is
    /// left of a later row that repeats the class is its terminal count
    /// ([`Summary::absorb`] adds `terminals` and is idempotent in
    /// everything else), and a later row of the orbit is absorbed without
    /// asking the memo.
    pub(super) fn absorb(
        &mut self,
        acc: &mut Summary<P::Output>,
        child: Option<ChildClass>,
        summary: Arc<Summary<P::Output>>,
    ) {
        acc.absorb(&summary);
        let Some(child) = child else { return };
        if let (Some(orbit), Some(orbits)) = (child.orbit, &mut self.orbits) {
            // An orbit that answered the row itself keeps what it has.
            orbits.table.summaries[orbit].get_or_insert_with(|| Arc::clone(&summary));
        }
        self.classes.summaries[child.class] = Some(summary);
    }
}

#[cfg(test)]
pub(super) mod tests {
    //! The tests that read a round's tables.  They run as
    //! `explorer::tests::<name>` — the ids they have always had; the
    //! `#[test]` entry points are in `tests.rs` — so here they are plain
    //! functions.  The walker they use as driver and as oracle is the
    //! one place a module of the chain looks at a later one.

    use twostep_model::SystemConfig;
    use twostep_sim::{ModelKind, TraceLevel};

    use super::super::budget::{BudgetArbiter, StepStatus, Unbounded};
    use super::super::canon::flag_in_place;
    use super::super::config::{ExploreOptions, Symmetry, WalkBudget};
    use super::super::testkit::*;
    use super::super::walker::{Shared, StepWalker, Walker};
    use super::*;

    /// The key-first differential: along seeded random adversary paths
    /// from `procs`, for **every** row of every visited configuration,
    /// the plan's key assembled from the open round's interned
    /// per-process records ([`Walker::cursor_key`]: the raw key with
    /// symmetry off, the tier encoder run on the row's record forms
    /// otherwise) must equal [`Walker::canonical_key`] of the child that
    /// `fork_from` and `step` produce under the materialized row — in
    /// bytes, hash and swap orientation — and the statuses and decisions
    /// the row's records keep ([`RoundKeys::cursor_terminal`] reads a
    /// terminal child off them) must be that child's.  The oracle side
    /// shares none of the table, view, record-form or assembly code.
    /// Returns how many children were compared.
    fn assert_assembled_keys_match_stepped<P>(
        system: SystemConfig,
        model: ModelKind,
        max_rounds: u32,
        procs: Vec<P>,
        proposals: Vec<P::Output>,
        label: &str,
        symmetry: Symmetry,
    ) -> usize
    where
        P: CheckableProtocol,
        P::Output: Hash + SpillCodec,
    {
        let mut spare = Stepper::new(system, model, TraceLevel::Off, procs.clone()).unwrap();
        let mut row = RoundActions::new();
        on_random_paths(
            system,
            model,
            max_rounds,
            None,
            symmetry,
            procs,
            proposals,
            |walker, stepper, round| {
                for idx in 0..round.len() {
                    round.classify(idx).expect("systems this small are keyed");
                    let assembled = walker.cursor_key(round);
                    let assembled_bytes = walker.key_bytes().to_vec();
                    round.actions_into(idx, &mut row);
                    spare.fork_from(stepper);
                    spare.step(&row).unwrap();
                    assert_eq!(
                        (walker.canonical_key(&spare), walker.key_bytes()),
                        (assembled, &assembled_bytes[..]),
                        "{label} under {symmetry:?}: round {} row {idx} {row:?}",
                        stepper.round()
                    );
                    // What the row's records keep of each process is
                    // what the stepped child stands with, and the row
                    // is terminal exactly if the child is.
                    let kept = row_records(&round.fixed, &round.ids);
                    let (status, decisions): (Vec<_>, Vec<_>) =
                        kept.map(|id| round.fates[id as usize].clone()).unzip();
                    assert_eq!(
                        (&status[..], &decisions[..]),
                        (spare.status(), spare.decisions()),
                        "{label} under {symmetry:?}: round {} row {idx} {row:?}",
                        stepper.round()
                    );
                    assert_eq!(
                        round.cursor_terminal(max_rounds),
                        (walker.is_terminal(&spare)).then_some((&status[..], &decisions[..])),
                        "{label} under {symmetry:?}: round {} row {idx} {row:?}",
                        stepper.round()
                    );
                }
            },
        )
    }

    pub(in crate::explorer) fn assembled_child_keys_match_stepped_children() {
        use twostep_model::WideValue;
        // CRW under both commit orders, FloodSet, EarlyStopping, the
        // block simulation and Duo, at every strength: raw, settled,
        // rank-inert (which no process of these systems is: t = n − 1,
        // or a protocol that declares none) and the value quotient on
        // top where the proposals admit it.
        for symmetry in [
            Symmetry::Off,
            Symmetry::Full,
            Symmetry::Partial,
            Symmetry::PartialValue,
        ] {
            let compared = over_the_zoo!(assert_assembled_keys_match_stepped, symmetry);
            assert!(compared > 5_000, "only {compared} children compared");
        }

        // Below t = n − 1 rank-inertness fires — at the root already,
        // for the two highest ranks — and pooled actives reach the keys.
        let system = SystemConfig::new(5, 2).unwrap();
        let bits: Vec<WideValue> = (0..5).map(|i| WideValue::new(1, i % 2)).collect();
        let procs = twostep_core::crw_processes(&system, &bits);
        let root = Stepper::new(system, ModelKind::Extended, TraceLevel::Off, procs.clone());
        let mut in_place = Vec::new();
        flag_in_place(&root.unwrap(), CanonTier::SettledInert, 2, &mut in_place);
        assert_eq!(in_place, [true, true, true, false, false]);
        for symmetry in [Symmetry::Partial, Symmetry::PartialValue] {
            let compared = assert_assembled_keys_match_stepped(
                system,
                ModelKind::Extended,
                6,
                procs.clone(),
                bits.clone(),
                "crw below maximal resilience",
                symmetry,
            );
            assert!(compared > 500, "only {compared} children compared");
        }

        // The full orbit: every record pooled, actives re-encoded at
        // their sorted positions from the states the records keep.
        let system = SystemConfig::new(4, 2).unwrap();
        let ests = [5, 9, 5, 7];
        assert_eq!(
            Symmetry::Full.plan::<Gossip>(&ests).tier,
            CanonTier::FullOrbit
        );
        let compared = assert_assembled_keys_match_stepped(
            system,
            ModelKind::Extended,
            3,
            gossip_procs(4, &ests),
            ests.to_vec(),
            "gossip",
            Symmetry::Full,
        );
        assert!(compared > 500, "only {compared} children compared");
    }

    /// The nested product the odometer must reproduce, as whole action
    /// vectors: each active process survives first, then crashes in each
    /// of its outcomes in turn, at most `budget` of them in one row.
    fn reference_product(
        n: usize,
        active: &[usize],
        outcomes: &[Vec<CrashStage>],
        budget: usize,
    ) -> Vec<RoundActions> {
        fn rec(
            active: &[usize],
            outcomes: &[Vec<CrashStage>],
            idx: usize,
            budget: usize,
            current: &mut RoundActions,
            out: &mut Vec<RoundActions>,
        ) {
            if idx == active.len() {
                out.push(current.clone());
                return;
            }
            rec(active, outcomes, idx + 1, budget, current, out);
            if budget > 0 {
                for stage in &outcomes[idx] {
                    current[active[idx]] = Some(stage.clone());
                    rec(active, outcomes, idx + 1, budget - 1, current, out);
                }
                current[active[idx]] = None;
            }
        }
        let mut out = Vec::new();
        rec(active, outcomes, 0, budget, &mut vec![None; n], &mut out);
        out
    }

    /// The enumeration the odometer must reproduce, written the way the
    /// walker wrote it before rows were indices: peek each active
    /// process's plan shape, list its live-effect crash outcomes, and
    /// take the nested product.
    fn reference_rows<P>(
        stepper: &Stepper<P>,
        t: usize,
        max_crashes_per_round: Option<usize>,
    ) -> Vec<RoundActions>
    where
        P: SyncProtocol + Clone,
    {
        let n = stepper.procs().len();
        let is_active = |p: &ProcessId| matches!(stepper.status()[p.idx()], ProcStatus::Active);
        let active: Vec<usize> = stepper.active().map(ProcessId::idx).collect();
        let mut shape = twostep_sim::PlanShape {
            data_dests: Vec::new(),
            control_len: 0,
            control_dests: Vec::new(),
        };
        let outcomes: Vec<Vec<CrashStage>> = active
            .iter()
            .map(|&i| {
                assert!(stepper.peek_plan_shape_into(i, &mut shape));
                let live: Vec<ProcessId> =
                    shape.data_dests.iter().copied().filter(is_active).collect();
                let ks: Vec<usize> = (1..=shape.control_len)
                    .filter(|k| is_active(&shape.control_dests[k - 1]))
                    .collect();
                let mut stages = Vec::new();
                crash_outcomes_effective_into(
                    n,
                    &live,
                    !shape.data_dests.is_empty(),
                    &ks,
                    &mut stages,
                );
                stages
            })
            .collect();
        let crashed = (stepper.status().iter())
            .filter(|s| matches!(s, ProcStatus::Crashed(_)))
            .count();
        let budget = max_crashes_per_round.unwrap_or(usize::MAX).min(t - crashed);
        reference_product(n, &active, &outcomes, budget)
    }

    /// Every way of asking `round`'s odometer for a row gives the row of
    /// `reference`: unranked off the cursor, stepped to in place from
    /// the row before — whatever was unranked in between — and unranked
    /// *into* the cursor, with the step after that.
    fn assert_odometer_matches<P>(round: &mut RoundKeys<P>, reference: &[RoundActions], label: &str)
    where
        P: CheckableProtocol,
        P::Output: Hash + SpillCodec,
    {
        let cursor = |round: &RoundKeys<P>| -> RoundActions {
            let spent = round.row.iter().filter(|outcome| **outcome > 0).count();
            assert_eq!(round.spent, spent, "{label}: {:?}", round.row);
            let mut actions = vec![None; round.sent.status().len()];
            for (slot, &outcome) in round.row.iter().enumerate() {
                if outcome > 0 {
                    actions[round.sent.active()[slot]] =
                        Some(round.outcomes[slot][outcome as usize - 1].clone());
                }
            }
            actions
        };
        assert_eq!(round.len(), reference.len(), "{label}");
        let mut row = RoundActions::new();
        for (idx, expected) in reference.iter().enumerate() {
            round.actions_into(idx, &mut row);
            assert_eq!(row, *expected, "{label}: row {idx} unranked");
            // An index row cannot name a settled process.
            for (action, status) in row.iter().zip(round.sent.status()) {
                assert!(action.is_none() || matches!(status, ProcStatus::Active));
            }
            round.actions_into((7 * idx + 3) % reference.len(), &mut row);
            round.classify(idx).expect("keyed");
            assert_eq!(cursor(round), *expected, "{label}: row {idx} stepped to");
        }
        for idx in (0..reference.len()).rev().step_by(3) {
            round.classify(idx).expect("keyed");
            assert_eq!(cursor(round), reference[idx], "{label}: row {idx} sought");
            if let Some(expected) = reference.get(idx + 1) {
                round.classify(idx + 1).expect("keyed");
                assert_eq!(cursor(round), *expected, "{label}: row {idx} + 1");
            }
        }
    }

    /// Row `idx` of an open round *is* row `idx` of the enumeration every
    /// `(hash, Vec<u32>)` frontier path, checkpoint and persistent cache
    /// was written against — and stays it under budgets and outcome
    /// lists the walk itself does not produce at these sizes: no crash
    /// left to spend, one, more than there are slots, and a slot that
    /// cannot crash at all.
    fn assert_rows_match_reference<P>(
        system: SystemConfig,
        model: ModelKind,
        max_rounds: u32,
        procs: Vec<P>,
        proposals: Vec<P::Output>,
        label: &str,
        max_crashes_per_round: Option<usize>,
    ) -> usize
    where
        P: CheckableProtocol,
        P::Output: Hash + SpillCodec,
    {
        let mut at_root = true;
        on_random_paths(
            system,
            model,
            max_rounds,
            max_crashes_per_round,
            Symmetry::Off,
            procs,
            proposals,
            |_, stepper, round| {
                let reference = reference_rows(stepper, system.t(), max_crashes_per_round);
                assert_odometer_matches(
                    round,
                    &reference,
                    &format!("{label}: {}", stepper.round()),
                );
                if !std::mem::take(&mut at_root) {
                    return;
                }
                let (n, active) = (system.n(), round.sent.active().to_vec());
                let (outcomes, budget) = (round.outcomes.clone(), round.budget);
                for unable in [None, Some(1)] {
                    if let Some(slot) = unable {
                        round.outcomes[slot].clear();
                    }
                    for budget in [0, 1, active.len() + 1] {
                        round.count_rows(budget);
                        round.start_tables();
                        let reference = reference_product(n, &active, &round.outcomes, budget);
                        let label = format!("{label}: budget {budget}, unable {unable:?}");
                        assert_odometer_matches(round, &reference, &label);
                    }
                }
                // The path goes on from the round the walker opened.
                round.outcomes = outcomes;
                round.count_rows(budget);
                round.start_tables();
            },
        )
    }

    pub(in crate::explorer) fn index_rows_reproduce_the_reference_enumeration() {
        let free = over_the_zoo!(assert_rows_match_reference, None);
        let capped = over_the_zoo!(assert_rows_match_reference, Some(1));
        assert!(capped < free, "the per-round cap prunes rows");
        assert!(free > 5_000, "only {free} rows compared");
    }

    /// Two views of one process that settle to the same record: `p_4`
    /// dies at the end of round 1 with and without the coordinator's
    /// data (and no commit either way), and is "crashed, undecided" both
    /// times.  The two rows must share a successor class — one key, one
    /// memo probe — and still count once each: a frame steered over just
    /// these two rows absorbs the shared child at the first and adds its
    /// terminals again at the second.
    pub(in crate::explorer) fn views_that_settle_alike_share_a_class_and_are_each_absorbed() {
        use twostep_model::{PidSet, WideValue};
        let system = SystemConfig::new(4, 3).unwrap();
        let proposals: Vec<WideValue> = (0..4).map(|i| WideValue::new(1, i % 2)).collect();
        let procs = twostep_core::crw_processes(&system, &proposals);
        let shared = |procs: &Vec<_>| {
            Shared::new(
                system,
                options(6, 100_000),
                &ExploreOptions::serial(),
                &proposals,
                procs.clone(),
            )
            .unwrap()
        };
        let root = Stepper::new(system, ModelKind::Extended, TraceLevel::Off, procs.clone())
            .expect("four processes");
        let silent = |heard: &[ProcessId]| -> RoundActions {
            vec![
                Some(CrashStage::MidData {
                    delivered: PidSet::from_iter(4, heard.iter().copied()),
                }),
                None,
                None,
                Some(CrashStage::EndOfRound),
            ]
        };
        let (without, with) = (silent(&[]), silent(&[ProcessId::new(4)]));

        let classes = shared(&procs);
        let mut walker = Walker::new(&classes);
        let mut round = walker.open_round(&root).unwrap();
        let (a, b) = (row_index(&round, &without), row_index(&round, &with));
        let class = round.classify(a).expect("keyed");
        let view = round.sent.view(&round.row, 3);
        assert_eq!(round.classify(b), Some(class), "one class for both rows");
        assert_ne!(round.sent.view(&round.row, 3), view, "p_4 saw two rounds");
        assert_eq!(round.known[3].len(), 2, "two views of p_4 met");
        assert_eq!(round.known[3][0].1, round.known[3][1].1, "one record");

        // The child on its own, for its terminal count.
        let alone = shared(&procs);
        let mut walker = Walker::new(&alone);
        let mut child = root.clone();
        child.step(&without).unwrap();
        let mut walk = StepWalker::new(&mut walker, vec![child]);
        while walk.step(&mut Unbounded).unwrap().status != StepStatus::Done {}
        let child_terminals = walk.into_summaries()[0].terminals;
        assert!(child_terminals > 1);

        // The root, steered: row `a`, row `b`, then straight to the pop.
        let steered = shared(&procs);
        let mut walker = Walker::new(&steered);
        let mut walk = StepWalker::new(&mut walker, vec![root]);
        let mut unbudgeted = BudgetArbiter::new(WalkBudget::unlimited());
        let by_step = &mut NoHeadroom(&mut unbudgeted);
        assert!(walk.step(by_step).unwrap().expanded);
        walk.stack[0].next_action = a;
        assert!(walk.step(by_step).unwrap().expanded, "a first row");
        while walk.step(by_step).unwrap().frontier_len > 1 {}
        let frame = &mut walk.stack[0];
        assert_eq!(frame.acc.terminals, child_terminals, "absorbed at row a");
        assert!(frame.round.classes.summaries[class].is_some());
        frame.next_action = b;
        let (states, steps) = (steered.memo.len(), walk.steps);
        assert!(!walk.step(by_step).unwrap().expanded, "a repeat");
        assert_eq!((steered.memo.len(), walk.steps), (states, steps + 1));
        let frame = &mut walk.stack[0];
        assert_eq!(frame.acc.terminals, 2 * child_terminals, "added at row b");
        frame.next_action = frame.round.len();
        assert_eq!(walk.step(by_step).unwrap().status, StepStatus::Done);
        assert_eq!(walk.into_summaries()[0].terminals, 2 * child_terminals);
    }

    /// Two rows that crash different silent receivers alike: `p_1` dies
    /// mid-commit having reached `p_4` and `p_3`, and one of the two dies
    /// at the end of the round, undecided, while the other decides.  The
    /// children are two raw configurations — two successor classes — but
    /// one orbit under the settled tier: `p_2` stands in place in both,
    /// and the settled records are the same three, two of them in
    /// exchanged slots.  One key is assembled and probed, at the first
    /// row; the second is answered by the orbit table, and the child is
    /// absorbed in full both times.
    pub(in crate::explorer) fn rows_that_permute_settled_records_share_an_orbit_and_are_each_absorbed(
    ) {
        use twostep_model::WideValue;
        let system = SystemConfig::new(4, 3).unwrap();
        let proposals: Vec<WideValue> = (0..4).map(|i| WideValue::new(1, i % 2)).collect();
        let procs = twostep_core::crw_processes(&system, &proposals);
        let config = ExploreConfig {
            symmetry: Symmetry::Full,
            ..options(6, 100_000)
        };
        let shared = |procs: &Vec<_>| {
            Shared::new(
                system,
                config,
                &ExploreOptions::serial(),
                &proposals,
                procs.clone(),
            )
            .unwrap()
        };
        let root = Stepper::new(system, ModelKind::Extended, TraceLevel::Off, procs.clone())
            .expect("four processes");
        let dying = |silent: usize| -> RoundActions {
            let mut row = vec![
                Some(CrashStage::MidControl { prefix_len: 2 }),
                None,
                None,
                None,
            ];
            row[silent] = Some(CrashStage::EndOfRound);
            row
        };
        let (third, fourth) = (dying(2), dying(3));

        // The two children differ, and only in which slot holds which
        // settled record.
        let (mut a, mut b) = (root.clone(), root.clone());
        a.step(&third).unwrap();
        b.step(&fourth).unwrap();
        let key = |child| test_key(child, Symmetry::Off, &proposals, 3);
        assert_ne!(key(&a), key(&b), "two raw configurations");
        assert_eq!(a.status()[1], ProcStatus::Active);
        let (a_status, b_status) = (a.status(), b.status());
        assert_eq!(
            (&a_status[2], &b_status[2]),
            (&b_status[3], &a_status[3]),
            "the silent receivers' fates, exchanged"
        );

        // The child on its own, for its terminal count.
        let alone = shared(&procs);
        let mut walker = Walker::new(&alone);
        let mut walk = StepWalker::new(&mut walker, vec![a]);
        while walk.step(&mut Unbounded).unwrap().status != StepStatus::Done {}
        let child_terminals = walk.into_summaries()[0].terminals;
        assert!(child_terminals > 1);

        // The root, steered: row `a`, row `b`, then straight to the pop.
        let steered = shared(&procs);
        let mut walker = Walker::new(&steered);
        let mut walk = StepWalker::new(&mut walker, vec![root]);
        let mut unbudgeted = BudgetArbiter::new(WalkBudget::unlimited());
        let by_step = &mut NoHeadroom(&mut unbudgeted);
        assert!(walk.step(by_step).unwrap().expanded);
        let round = &walk.stack[0].round;
        let (a, b) = (row_index(round, &third), row_index(round, &fourth));
        walk.stack[0].next_action = a;
        assert!(walk.step(by_step).unwrap().expanded, "nothing answers yet");
        while walk.step(by_step).unwrap().frontier_len > 1 {}
        let frame = &mut walk.stack[0];
        assert_eq!(frame.acc.terminals, child_terminals, "absorbed at row a");
        frame.next_action = b;
        let (states, steps) = (steered.memo.len(), walk.steps);
        assert!(
            !walk.step(by_step).unwrap().expanded,
            "answered by the orbit"
        );
        assert_eq!((steered.memo.len(), walk.steps), (states, steps + 1));
        let frame = &mut walk.stack[0];
        assert_eq!(
            frame.acc.terminals,
            2 * child_terminals,
            "absorbed at row b"
        );
        // Two rows met, two successor classes, both with the summary —
        // and one orbit class, which is one key assembled and one memo
        // probe: a key is assembled only for an orbit without a summary.
        let orbits = frame.round.orbits.as_deref().expect("a settled-tier round");
        assert_eq!(frame.round.classes.summaries.len(), 2);
        assert!(frame.round.classes.summaries.iter().all(Option::is_some));
        assert_eq!(orbits.table.summaries.len(), 1);
        assert!(orbits.table.summaries[0].is_some());
        frame.next_action = frame.round.len();
        assert_eq!(walk.step(by_step).unwrap().status, StepStatus::Done);
        assert_eq!(walk.into_summaries()[0].terminals, 2 * child_terminals);
    }

    /// What the odometer bought: the `(8, 7)` CRW root round — 282 211
    /// adversary moves, 97 MB as action vectors, 4.5 MB as index rows —
    /// is a cursor and a count table, and its class index is sized by
    /// the classes it meets.
    pub(in crate::explorer) fn root_round_at_8_7_has_282_211_rows_and_no_per_row_storage() {
        use twostep_model::WideValue;
        let system = SystemConfig::new(8, 7).unwrap();
        let proposals: Vec<WideValue> = (0..8).map(|i| WideValue::new(1, i % 2)).collect();
        let procs = twostep_core::crw_processes(&system, &proposals);
        let shared = Shared::new(
            system,
            ExploreConfig::for_crw(&system),
            &ExploreOptions::serial(),
            &proposals,
            procs.clone(),
        )
        .unwrap();
        let root = Stepper::new(system, ModelKind::Extended, TraceLevel::Off, procs).unwrap();
        let mut round = Walker::new(&shared).open_round(&root).unwrap();
        assert_eq!(round.len(), 282_211);
        // Eight slots, seven crashes to spend.
        assert_eq!((round.row.len(), round.count.len()), (8, 9 * 8));
        let outcomes: usize = round.outcomes.iter().map(|stages| stages.len() + 1).sum();
        assert_eq!(round.by_outcome.len(), outcomes);
        assert!(outcomes < 256, "{outcomes} (slot, outcome) pairs");
        let buckets = |round: &RoundKeys<_>| round.classes.index.len();
        assert_eq!(buckets(&round), ClassTable::<WideValue>::START_BUCKETS);
        for idx in 0..round.len() {
            round.classify(idx).expect("keyed");
        }
        let classes = round.classes.summaries.len();
        assert!(classes < round.len() / 4, "{classes} classes");
        assert!(2 * classes <= buckets(&round) && buckets(&round) < 4 * classes + 4);
    }
}
