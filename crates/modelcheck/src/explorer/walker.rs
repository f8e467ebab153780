//! The walker: one DFS over configurations, a step at a time.  A
//! [`Walker`] holds the scratch and pools of one thread, a [`Frame`] one
//! configuration mid-expansion, and a [`StepWalker`] the stack — its
//! `step()` is the one loop body every engine drives (the driver
//! protocol is at the head of `budget.rs`, what a frame's open round
//! answers without a child at the head of `round.rs`).
//!
//! ## Hot path
//!
//! Everything every engine does funnels through one loop — key a child
//! configuration, probe the memo, and only for a child nothing answers
//! for settle it from its records if it is terminal, or fork it, step it
//! one round and expand it — so that loop is engineered to allocate
//! nothing and hash once in steady state:
//!
//! * **canonical byte keys** — entering a configuration encodes it once
//!   into a walker-local scratch buffer (`make_key_into`: round,
//!   process count, then per-process tag + [`SpillCodec`] encoding).
//!   Byte equality coincides with structural equality of configurations
//!   (`key_encoding_is_injective_on_reachable_configurations`), because
//!   the component encodings are canonical;
//! * **a single stable hash** — the key bytes are hashed exactly once
//!   ([`stable_hash64`]); that one `u64` picks
//!   the memo shard, indexes the shard's raw table (behind a
//!   pass-through hasher — nothing re-hashes the bytes), keys the spill
//!   index, and partitions distributed frontiers.  Collisions chain on
//!   full key bytes, so they cost a `memcmp`, never correctness;
//! * **lock-lean probes** — a memo hit (the dominant outcome in warm
//!   and late-exploration walks) takes only the shard's read lock and
//!   touches an atomic clock bit; write locks are for misses with a
//!   disk tier and for inserts ([`crate::memo`]);
//! * **clone-free successors** — a child that has to exist (a memo
//!   miss that expands — the 0.3 % of `round.rs`'s head)
//!   costs no allocation either: per-process snapshots live behind
//!   `Arc`s ([`Stepper`] copy-on-write), child steppers
//!   are recycled through a walker pool and re-forked in place
//!   (`Stepper::fork_from` reuses every buffer), round scratch (send
//!   plans, outcomes, receive flags, inboxes) persists inside the
//!   stepper, and hot protocols refill their plans in place
//!   ([`SyncProtocol::send_into`]);
//! * **pooled enumeration** — a configuration's adversary moves are
//!   rows of small outcome *indices*, and none of them is stored: an
//!   odometer holds the one row the walk stands on and steps it in
//!   place.  The odometer, the per-process outcome lists, the
//!   send-phase copy, the record arena, the (slot, outcome), class and
//!   orbit tables, the one buffer a row is materialized into when the
//!   engine needs a real action vector, key buffers, and the terminal
//!   pseudo-schedule and scratch summary are all recycled across
//!   configurations; a terminal is memoized under the one shared summary
//!   of its outcome ([`Terminals`]), so a leaf allocates its memo entry
//!   and nothing else.
//!
//! ## `StateLimit` abort protocol
//!
//! Aborts are **cooperative and prompt**.  Whichever walker first
//! exhausts the state budget — or hits an engine or spill error — records
//! the failure, raises the shared cancel flag, and closes the work queue
//! *before* it unwinds (`Shared::fail`).  Every peer walker polls the
//! flag on each configuration entry and bails with a quiet interrupt;
//! workers parked in `pop_wait` wake to `None` immediately because the
//! queue is already closed.  No walker can keep expanding configurations
//! or block on the queue after an abort, so the exploration call joins
//! promptly and returns the first recorded failure
//! (`state_limit_abort_joins_promptly_at_four_threads`).  When a checkpoint directory is
//! configured ([`ExploreOptions::checkpoint`]), the spine's finish
//! reroutes a `StateLimit` abort through its suspend path, so the
//! partial walk survives for a rerun with a raised budget.

use std::hash::Hash;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use twostep_model::codec::{stable_hash64, Canonicalizer};
use twostep_model::SystemConfig;
use twostep_sim::{ProcStatus, RoundActions, SimError, Stepper, SyncProtocol, WorkQueue};

use super::budget::{Arbiter, StepProgress, StepResult, StepStatus, StepVerdict};
use super::canon::{flag_in_place, make_key_into, tier_key_into, KeySource};
use super::config::{CanonTier, CheckableProtocol, ExploreConfig, ExploreOptions, SymmetryPlan};
use super::report::{ExploreError, Summary, Terminals};
use super::round::{ChildClass, ChildDecision, LiveEffects, RoundKeys};
use crate::memo::ShardedMemo;
use crate::spill::SpillCodec;

/// Why a walker stopped before finishing its subtree.
#[derive(Clone, Debug)]
pub(crate) enum Interrupt {
    /// A real error: propagate to the caller.
    Failed(ExploreError),
    /// Another worker failed (or the run is over); discard quietly.
    Stopped,
}

/// State shared by every walker of one exploration: the memo, the
/// work-sharing queue, and the abort machinery.  Constructed once per
/// walk; the distributed engine constructs it directly so it can
/// pre-seed [`Self::memo`] before calling `walk_roots`.
pub(crate) struct Shared<'a, P>
where
    P: CheckableProtocol,
    P::Output: Hash,
{
    pub(crate) system: SystemConfig,
    pub(crate) config: ExploreConfig,
    pub(crate) proposals: &'a [P::Output],
    /// The true (uncanonicalized) initial configuration — witness
    /// reconstruction re-drives real executions from here.  Under
    /// symmetry reduction a memoized round-1 key may be a canonical
    /// *representative* of the initial configuration rather than the
    /// configuration itself, so the initial processes must be kept, not
    /// recovered from key bytes.
    pub(crate) initial: Vec<P>,
    /// The run's resolved symmetry plan (`Symmetry::plan`) — computed
    /// once here so the per-visit key path never re-derives type-level
    /// facts or re-checks value-symmetry applicability.
    pub(crate) plan: SymmetryPlan,
    pub(crate) memo: ShardedMemo<P::Output>,
    pub(super) queue: WorkQueue<Stepper<P>>,
    stop: AtomicBool,
    pub(super) failure: Mutex<Option<ExploreError>>,
    donate_depth: Option<u32>,
}

impl<'a, P> Shared<'a, P>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    pub(crate) fn new(
        system: SystemConfig,
        config: ExploreConfig,
        options: &ExploreOptions,
        proposals: &'a [P::Output],
        initial: Vec<P>,
    ) -> Result<Self, ExploreError> {
        let plan = config.symmetry.plan::<P>(proposals);
        Ok(Shared {
            system,
            config,
            proposals,
            initial,
            plan,
            memo: ShardedMemo::new(options.shards, &options.memo)?,
            queue: WorkQueue::new(),
            stop: AtomicBool::new(false),
            failure: Mutex::new(None),
            donate_depth: options.donate_depth,
        })
    }
}

impl<P> Shared<'_, P>
where
    P: CheckableProtocol,
    P::Output: Hash,
{
    /// Whether a configuration at `round` may donate its children to
    /// idle workers under the depth-aware donation policy.
    fn donate_allowed(&self, round: u32) -> bool {
        self.donate_depth.is_none_or(|cutoff| round <= cutoff)
    }

    /// Records the first failure and signals every walker to stop —
    /// **before** the failing walker unwinds: the cancel flag halts peers
    /// at their next configuration entry, and closing the queue wakes
    /// anyone parked in `pop_wait` (the `StateLimit` abort protocol in
    /// the module docs).  Returns the interrupt to propagate, so every
    /// failure site reads `return Err(self.shared.fail(error))`.
    fn fail(&self, error: ExploreError) -> Interrupt {
        let mut slot = self.failure.lock().expect("failure slot poisoned");
        if slot.is_none() {
            *slot = Some(error.clone());
        }
        drop(slot);
        self.stop.store(true, Ordering::Relaxed);
        self.queue.close();
        Interrupt::Failed(error)
    }

    /// Halts every walker *without* recording a failure — the suspension
    /// path: same cancel flag and queue close as [`Self::fail`], so
    /// stealers bail at their next configuration entry and parked
    /// workers wake immediately, but the run is suspended, not failed.
    pub(super) fn halt(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.queue.close();
    }
}

/// One exploration walker: an explicit DFS stack plus reusable scratch
/// buffers and recycling pools, so the hot enumeration loop performs no
/// per-configuration `Vec` allocation in steady state — not for crash
/// outcomes, not for key bytes, not for adversary rows.
pub(crate) struct Walker<'s, 'a, P>
where
    P: CheckableProtocol,
    P::Output: Hash,
{
    pub(super) shared: &'s Shared<'a, P>,
    /// Scratch for the canonical key last encoded — of a configuration
    /// being entered, or assembled from a row's records by the key-first
    /// probe.  A probe's miss leaves the child's key here: a terminal
    /// child is memoized under it, and when a configuration expands it is
    /// swapped into the frame (and replaced from `key_pool`).
    key_scratch: Vec<u8>,
    /// Retired frame key buffers, reused for future frames.
    key_pool: Vec<Vec<u8>>,
    /// The one buffer an index row is materialized into where the engine
    /// needs a real action vector ([`RoundKeys::actions_into`]).
    row_buf: RoundActions,
    /// Retired steppers, re-forked (`Stepper::fork_from`) for future
    /// children so successor generation reuses their buffers instead of
    /// allocating a full clone per child.
    pub(super) stepper_pool: Vec<Stepper<P>>,
    /// Retired open rounds, re-opened ([`RoundKeys::open`]) for future
    /// configurations so that every buffer and table of theirs is reused.
    round_pool: Vec<RoundKeys<P>>,
    /// Terminal evaluation: its scratch, and the distinct summaries it
    /// has produced.
    pub(super) terminals: Terminals<P::Output>,
    /// Reusable record-sorting scratch for symmetry-reduced keying
    /// (unused when [`ExploreConfig::symmetry`] is off).
    canon: Canonicalizer,
    /// Scratch for the value-swapped candidate key; the lexicographic
    /// minimum against `key_scratch` decides the canonical key.
    swap_buf: Vec<u8>,
    /// Which processes keep their slot ([`flag_in_place`]) in the
    /// configuration the tier encoder is about to run on.
    in_place_buf: Vec<bool>,
    /// Two encoded `decided` values, compared where a summary's valency
    /// list is sorted for the memo ([`Walker::canonicalize`]).
    decided_bufs: (Vec<u8>, Vec<u8>),
    /// Scratch of [`RoundKeys::open`].
    live: LiveEffects,
}

/// One level of the explicit DFS stack: a configuration mid-expansion.
pub(crate) struct Frame<P>
where
    P: CheckableProtocol,
    P::Output: Hash,
{
    stepper: Stepper<P>,
    /// The configuration's canonical key bytes and their single hash.
    hash: u64,
    key: Vec<u8>,
    /// The next adversary move to take: the index of a row of the open
    /// round, whose rows stand in canonical enumeration order (the merge
    /// order that makes reports deterministic).
    pub(super) next_action: usize,
    /// Where the child the frame is waiting for — the one it forked,
    /// stepped and expanded for `next_action - 1`, now the frame above it
    /// — will be recorded when its summary comes back.
    awaiting: Option<ChildClass>,
    pub(super) acc: Summary<P::Output>,
    /// Whether the value-swapped encoding won this configuration's key
    /// (value-symmetry tier): the accumulated summary is in *real*
    /// space, so the memo insert maps it through the involution first.
    value_swapped: bool,
    /// This configuration's open round: its one send phase, the
    /// odometer over its adversary moves, and the records and classes
    /// its children are keyed from.
    pub(super) round: RoundKeys<P>,
}

impl<P> Frame<P>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    /// Absorbs the summary of the child the frame was waiting for
    /// ([`RoundKeys::absorb`]).
    fn absorb_awaited(&mut self, summary: Arc<Summary<P::Output>>) {
        let child = self.awaiting.take();
        self.round.absorb(&mut self.acc, child, summary);
    }
}

/// What the key-first probe ([`Walker::probe_child`]) learned about a
/// child.
enum Probed<O> {
    /// Its row repeats a successor class the frame has absorbed: all
    /// that is left of it is the class's terminal count, to be added.
    Repeat(u64),
    /// Its row is the first of its class, and this is its real-space
    /// summary: what the memo answered for its key, or what the frame
    /// absorbed for its orbit.
    Answered(ChildClass, Arc<Summary<O>>),
    /// Nothing answers for it.  If its round is keyed, the probe's miss
    /// is all the keying it gets: it is settled or expanded under the
    /// key that miss left in the walker's scratch.  If not, it has to be
    /// forked, stepped and entered.
    Unanswered(Option<KeyedChild>),
}

/// A child the memo knows nothing of, as far as its probe got: its
/// classes, and the `(hash, value_swapped)` of its key — whose bytes
/// stand in `key_scratch` until the walker keys something else.
#[derive(Clone, Copy, Debug)]
struct KeyedChild {
    class: ChildClass,
    hash: u64,
    value_swapped: bool,
}

/// Outcome of entering a configuration.
///
/// `Ready` intentionally carries the (large) stepper inline: it exists
/// precisely to hand the buffer back to the walker's pool, and boxing
/// it would reintroduce an allocation on the hottest return path.
#[allow(clippy::large_enum_variant)]
enum Entered<P, O>
where
    P: SyncProtocol,
{
    /// Summary already available (memo hit or terminal); the entered
    /// stepper comes back so the walker can recycle its buffers.
    Ready(Arc<Summary<O>>, Stepper<P>),
    /// A new frame was pushed; children must be walked first.
    Expanded,
}

/// The frame-stepped walker core: a bounded unit of DFS work per
/// [`step`](Self::step) call, driver owns the loop — what a step is, and
/// the contracts that make any interleaving of calls the same walk, are
/// at the head of `budget.rs`.  Borrows a [`Walker`] so its scratch pools
/// survive across jobs — a stealer reuses one walker for every donated
/// subtree it drives.
pub(crate) struct StepWalker<'w, 's, 'a, P>
where
    P: CheckableProtocol,
    P::Output: Hash,
{
    walker: &'w mut Walker<'s, 'a, P>,
    pub(super) stack: Vec<Frame<P>>,
    /// Roots not yet entered; the next one starts when the stack drains.
    roots: std::vec::IntoIter<Stepper<P>>,
    /// Completed roots' summaries, in root order.
    summaries: Vec<Arc<Summary<P::Output>>>,
    pub(super) steps: u64,
}

impl<'w, 's, 'a, P> StepWalker<'w, 's, 'a, P>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    pub(crate) fn new(walker: &'w mut Walker<'s, 'a, P>, roots: Vec<Stepper<P>>) -> Self {
        let summaries = Vec::with_capacity(roots.len());
        StepWalker {
            walker,
            stack: Vec::new(),
            roots: roots.into_iter(),
            summaries,
            steps: 0,
        }
    }

    /// Performs a bounded unit of work — the run of repeated rows the
    /// walk stands before, if any and as far as `arbiter`'s headroom
    /// reaches, then one step more — and (unless the walk just finished)
    /// asks `arbiter` whether to continue.  Errors carry the usual
    /// interrupt protocol — the failure site has already signalled the
    /// abort.
    pub(crate) fn step(&mut self, arbiter: &mut impl Arbiter) -> Result<StepResult, Interrupt> {
        let shared = self.walker.shared;
        let progress = |steps: u64| StepProgress {
            steps,
            distinct_states: shared.memo.len(),
            memo_bytes: shared.memo.approx_bytes(),
        };
        let mut expanded = false;
        // Steps the arbiter lets this call take in silence; asked at the
        // first row that could use one.
        let mut headroom = None;
        loop {
            let Some(frame) = self.stack.last_mut() else {
                let Some(root) = self.roots.next() else {
                    return Ok(StepResult {
                        steps: self.steps,
                        expanded: false,
                        frontier_len: 0,
                        distinct_states: shared.memo.len(),
                        status: StepStatus::Done,
                    });
                };
                match self.walker.enter(root, &mut self.stack)? {
                    Entered::Ready(summary, stepper) => {
                        self.walker.stepper_pool.push(stepper);
                        self.summaries.push(summary);
                    }
                    Entered::Expanded => expanded = true,
                }
                break;
            };
            if frame.next_action == frame.round.len() {
                let done = self.stack.pop().expect("popping the completed frame");
                // `acc` accumulated in real value space; the memo stores
                // canonical space, and whatever comes back is translated
                // again for the parent (an involution, so racing inserts
                // of the same key agree regardless of which twin won).
                let canonical = self.walker.canonical_arc(done.acc, done.value_swapped);
                let summary = shared
                    .memo
                    .insert(done.hash, &done.key, canonical)
                    .map_err(|e| shared.fail(e.into()))?;
                let summary = self.walker.to_real(summary, done.value_swapped);
                self.walker.recycle(done.key, done.round);
                self.walker.stepper_pool.push(done.stepper);
                // The child a class of the frame below was waiting for
                // is back: its repeats there are additions from here on.
                match self.stack.last_mut() {
                    Some(parent) => parent.absorb_awaited(summary),
                    None => self.summaries.push(summary),
                }
                break;
            }
            let idx = frame.next_action;
            frame.next_action += 1;
            if shared.stop.load(Ordering::Relaxed) {
                return Err(Interrupt::Stopped);
            }
            // Key first: a child is its key until something has to run
            // on it.
            match self.walker.probe_child(frame, idx)? {
                Probed::Repeat(terminals) => {
                    frame.acc.terminals += terminals;
                    let silent =
                        headroom.get_or_insert_with(|| arbiter.headroom(&progress(self.steps)));
                    if *silent > 0 {
                        // This row is taken in silence, and so is the rest
                        // of its run, without leaving the frame.
                        let taken = 1 + self.walker.absorb_repeats(frame, *silent - 1)?;
                        *silent -= taken;
                        self.steps += taken;
                        continue;
                    }
                }
                Probed::Answered(child, summary) => {
                    frame.round.absorb(&mut frame.acc, Some(child), summary)
                }
                Probed::Unanswered(Some(child)) => {
                    self.walker.admit_state()?;
                    debug_assert!(
                        self.walker.records_are_the_stepped_child(frame, idx),
                        "records and stepper disagree on a terminal child"
                    );
                    let (hash, swapped) = (child.hash, child.value_swapped);
                    let max_rounds = shared.config.max_rounds;
                    if let Some((status, decisions)) = frame.round.cursor_terminal(max_rounds) {
                        // Settled records are final: the row holds all a
                        // terminal evaluation reads, and no child is built.
                        let summary =
                            (self.walker).settle_terminal(hash, swapped, status, decisions)?;
                        frame
                            .round
                            .absorb(&mut frame.acc, Some(child.class), summary);
                    } else {
                        frame.awaiting = Some(child.class);
                        let stepper = self.walker.step_child(frame, idx)?;
                        (self.walker).expand(stepper, hash, swapped, &mut self.stack)?;
                        expanded = true;
                    }
                }
                Probed::Unanswered(None) => {
                    let child = self.walker.step_child(frame, idx)?;
                    match self.walker.enter(child, &mut self.stack)? {
                        Entered::Ready(summary, stepper) => {
                            self.walker.stepper_pool.push(stepper);
                            let frame = self.stack.last_mut().expect("the frame is still open");
                            frame.round.absorb(&mut frame.acc, None, summary);
                        }
                        Entered::Expanded => expanded = true,
                    }
                }
            }
            break;
        }
        self.steps += 1;

        let frontier_len = self.stack.len();
        let progress = progress(self.steps);
        let status = if frontier_len == 0 && self.roots.as_slice().is_empty() {
            StepStatus::Done
        } else {
            match arbiter.inspect(&progress) {
                StepVerdict::Allow => StepStatus::Running,
                StepVerdict::Yield => StepStatus::Yielded,
                StepVerdict::Refuse(kind) => StepStatus::Refused(kind),
            }
        };
        Ok(StepResult {
            steps: self.steps,
            expanded,
            frontier_len,
            distinct_states: progress.distinct_states,
            status,
        })
    }

    /// The completed walk's summaries, one per root in root order.  Only
    /// meaningful after a [`StepStatus::Done`].
    pub(crate) fn into_summaries(self) -> Vec<Arc<Summary<P::Output>>> {
        self.summaries
    }

    /// Unexplored immediate children across every frame of the current
    /// DFS stack, row by row — an upper bound on what
    /// [`Self::harvest_into`] emits (harvest additionally skips children
    /// already memoized, and the rows that repeat a child).
    pub(crate) fn harvestable(&self) -> usize {
        self.stack
            .iter()
            .map(|f| f.round.len() - f.next_action)
            .sum()
    }

    /// Harvests the suspended walk's remaining frontier: for every frame
    /// on the stack, each not-yet-started child is emitted as a
    /// `(canonical-key hash, action-index path)` record — unless the memo
    /// already holds it, which the key-first probe answers without the
    /// child; the hash of a probe that missed is the record's, so no
    /// child is built.  A child is emitted once, under its first row:
    /// the rows of a frame are many to a child, and the frontier is cut
    /// into workers' slices record by record.  `prefix` is the current
    /// root's own path; a child of frame `j` extends it with the actions
    /// chosen into frames `1..=j` plus the child's own index.
    ///
    /// The frames themselves (partially-absorbed interiors) are *not*
    /// emitted: their summaries are recomputed by whoever re-drives the
    /// path — by then every child is memoized, so the recomputation is
    /// pure memo-hit fast-forward.
    pub(crate) fn harvest_into(
        &mut self,
        prefix: &[u32],
        out: &mut Vec<(u64, Vec<u32>)>,
    ) -> Result<(), Interrupt> {
        let walker = &mut *self.walker;
        // Actions chosen into the stack so far: frame `j+1` is frame
        // `j`'s child via action `next_action - 1` (LIFO: the frame
        // above is always the most recent fork).
        let mut path: Vec<u32> = Vec::with_capacity(prefix.len() + self.stack.len() + 1);
        path.extend_from_slice(prefix);
        let depth = self.stack.len();
        // Hashes emitted so far, over every frame: two classes of one
        // orbit are one child.  (Dropping a record is always sound —
        // under-coverage is left to the replay.)
        let mut emitted = std::collections::HashSet::new();
        for (level, frame) in self.stack.iter_mut().enumerate() {
            // Interior frames (those with a frame above) necessarily
            // advanced `next_action` to push that child; only the top
            // frame may sit just-entered at `next_action == 0`.
            debug_assert!(
                level + 1 == depth || frame.next_action > 0,
                "interior frames were entered through an action"
            );
            // Class numbers are handed out in first-occurrence order, so
            // a row whose class is below the highest met has had its row:
            // in this harvest, or before it — and then the frame has
            // absorbed the class, or is waiting for it, and the child is
            // the frame above.
            let mut met = 0;
            for idx in frame.next_action..frame.round.len() {
                match frame.round.classify(idx) {
                    Some(class) if class < met => continue,
                    Some(class) => met = class + 1,
                    None => {}
                }
                // The probe reads the frame's class table and records
                // nothing in it: a class gets a summary only from the
                // walk, when the frame absorbs it.  Its miss is the
                // child's record; only a round that keys no row has the
                // child stepped to be keyed and probed.
                let hash = match walker.probe_child(frame, idx)? {
                    Probed::Unanswered(Some(child)) => child.hash,
                    Probed::Unanswered(None) => {
                        let child = walker.step_child(frame, idx)?;
                        let (hash, swapped) = walker.canonical_key(&child);
                        walker.stepper_pool.push(child);
                        if walker.memoized(hash, swapped)?.is_some() {
                            continue;
                        }
                        hash
                    }
                    _ => continue,
                };
                if !emitted.insert(hash) {
                    continue;
                }
                path.push(idx as u32);
                out.push((hash, path.clone()));
                path.pop();
            }
            path.push((frame.next_action.max(1) - 1) as u32);
        }
        Ok(())
    }
}

impl<'s, 'a, P> Walker<'s, 'a, P>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    pub(crate) fn new(shared: &'s Shared<'a, P>) -> Self {
        Walker {
            shared,
            key_scratch: Vec::new(),
            key_pool: Vec::new(),
            row_buf: Vec::new(),
            stepper_pool: Vec::new(),
            round_pool: Vec::new(),
            terminals: Terminals::new(shared.system),
            canon: Canonicalizer::new(),
            swap_buf: Vec::new(),
            in_place_buf: Vec::new(),
            decided_bufs: (Vec::new(), Vec::new()),
            live: LiveEffects::default(),
        }
    }

    /// Returns a completed frame's buffers to the walker's pools so the
    /// next expansion reuses their allocations.
    fn recycle(&mut self, key: Vec<u8>, round: RoundKeys<P>) {
        self.key_pool.push(key);
        self.close_round(round);
    }

    /// Opens `stepper`'s next round ([`RoundKeys::open`]) on a round from
    /// the pool, if it holds one.
    pub(crate) fn open_round(&mut self, stepper: &Stepper<P>) -> Result<RoundKeys<P>, SimError> {
        let (pooled, shared) = (self.round_pool.pop(), self.shared);
        RoundKeys::open(pooled, stepper, &shared.config, shared.plan, &mut self.live)
    }

    /// Returns an open round's buffers to the pool.
    pub(crate) fn close_round(&mut self, round: RoundKeys<P>) {
        self.round_pool.push(round);
    }

    /// The key-first probe: `frame`'s child under row `idx`, answered
    /// without the child (the head of `round.rs`, step 4: the class
    /// table, then the orbit table, then the plan's key assembled from
    /// the row's records — [`cursor_key`](Self::cursor_key) — and taken
    /// to the memo).  A miss comes back with that key's hash and
    /// orientation, its bytes left in `key_scratch` for whoever makes
    /// the child a state.  Nothing is recorded here: the caller that
    /// absorbs an answer records it for the class and the orbit
    /// ([`RoundKeys::absorb`]), as it does for a child nothing answered for
    /// when that child's summary exists — at once if it is settled from
    /// its records, when its frame pops if it expands.
    fn probe_child(
        &mut self,
        frame: &mut Frame<P>,
        idx: usize,
    ) -> Result<Probed<P::Output>, Interrupt> {
        let Some(class) = frame.round.classify(idx) else {
            return Ok(Probed::Unanswered(None));
        };
        if let Some(summary) = frame.round.class_summary(class) {
            let terminals = summary.terminals;
            debug_assert!(
                self.skipped_probe(frame, idx).as_ref() == frame.round.class_summary(class),
                "class table and memo disagree on a repeated child"
            );
            return Ok(Probed::Repeat(terminals));
        }
        let mut child = ChildClass { class, orbit: None };
        let (hash, swap) = if self.shared.plan.tier != CanonTier::Raw {
            self.flag_in_place(&frame.round.cursor_row());
            let (orbit, absorbed) = frame.round.orbit_class(&self.in_place_buf);
            child.orbit = Some(orbit);
            if let Some(summary) = absorbed {
                debug_assert!(
                    self.skipped_probe(frame, idx).as_deref() == Some(&*summary),
                    "orbit table and memo disagree"
                );
                return Ok(Probed::Answered(child, summary));
            }
            // The row's flags stand from the orbit lookup.
            self.tier_key(&frame.round.cursor_row())
        } else {
            self.cursor_key(&mut frame.round)
        };
        debug_assert!(
            self.assembled_keys_are_stepped_keys(frame, idx, (hash, swap)),
            "assembled child key differs from the stepped child's key"
        );
        Ok(match self.memoized(hash, swap)? {
            Some(summary) => Probed::Answered(child, summary),
            None => Probed::Unanswered(Some(KeyedChild {
                class: child,
                hash,
                value_swapped: swap,
            })),
        })
    }

    /// The oracle behind `probe_child`'s debug assertions on a key it
    /// assembled: fork, step, encode.  The cursor row's raw key
    /// ([`RoundKeys::class_key_into`]) must be the stepped child's
    /// [`make_key_into`], and `keyed` with the bytes in `key_scratch` —
    /// the row's plan key as [`cursor_key`](Self::cursor_key) left it —
    /// the child's [`canonical_key`](Self::canonical_key): bytes, hash
    /// and swap orientation.
    fn assembled_keys_are_stepped_keys(
        &mut self,
        frame: &Frame<P>,
        idx: usize,
        keyed: (u64, bool),
    ) -> bool {
        let mut child = self.fork(&frame.stepper);
        frame.round.actions_into(idx, &mut self.row_buf);
        let stepped = child.step(&self.row_buf).is_ok();
        let (mut raw, mut stepped_raw) = (Vec::new(), Vec::new());
        frame.round.class_key_into(&mut raw);
        make_key_into(&child, &mut stepped_raw);
        let assembled = self.key_scratch.clone();
        let agree = stepped
            && raw == stepped_raw
            && self.canonical_key(&child) == keyed
            && self.key_scratch == assembled;
        self.stepper_pool.push(child);
        agree
    }

    /// The oracle behind `probe_child`'s debug assertions on a row it
    /// answers from a table — a repeat of an absorbed class, the first
    /// row of a class in an absorbed orbit: what the probe that row
    /// skipped would have returned.  The key is assembled after all,
    /// must be the stepped child's, and is taken to the memo.
    fn skipped_probe(
        &mut self,
        frame: &mut Frame<P>,
        idx: usize,
    ) -> Option<Arc<Summary<P::Output>>> {
        let (hash, swap) = self.cursor_key(&mut frame.round);
        if !self.assembled_keys_are_stepped_keys(frame, idx, (hash, swap)) {
            return None;
        }
        self.memoized(hash, swap).ok().flatten()
    }

    /// Encodes `stepper`'s configuration into its canonical key bytes in
    /// `key_scratch` and returns `(hash, value_swapped)` — the key path
    /// of every configuration that exists: a root, a configuration being
    /// entered, a frontier or witness replay.  Raw plans delegate
    /// straight to [`make_key_into`]; canonicalizing plans run the tier
    /// encoder on the stepper.
    pub(crate) fn canonical_key(&mut self, stepper: &Stepper<P>) -> (u64, bool) {
        if self.shared.plan.tier == CanonTier::Raw {
            make_key_into(stepper, &mut self.key_scratch);
            return (stable_hash64(&self.key_scratch), false);
        }
        self.flag_in_place(stepper);
        self.tier_key(stepper)
    }

    /// The same key — bytes in `key_scratch`, `(hash, value_swapped)` —
    /// of a configuration that does not exist: `round`'s successor under
    /// the row last [`classify`](RoundKeys::classify)d, assembled from
    /// the row's records.  The raw key under a raw plan; under a
    /// canonicalizing one the tier encoder runs on the row.
    pub(crate) fn cursor_key(&mut self, round: &mut RoundKeys<P>) -> (u64, bool) {
        if self.shared.plan.tier == CanonTier::Raw {
            round.class_key_into(&mut self.key_scratch);
            return (stable_hash64(&self.key_scratch), false);
        }
        let row = round.cursor_row();
        self.flag_in_place(&row);
        self.tier_key(&row)
    }

    /// Leaves in `in_place_buf` which of `source`'s processes keep their
    /// slot under the run's tier.
    fn flag_in_place<S: KeySource<P>>(&mut self, source: &S) {
        let (plan, t) = (self.shared.plan, self.shared.system.t());
        flag_in_place(source, plan.tier, t, &mut self.in_place_buf);
    }

    /// Runs the tier encoder on `source`, whose flags are in
    /// `in_place_buf` — twice under a value plan, for the plain and the
    /// value-swapped encoding, keeping the smaller.  Leaves the key in
    /// `key_scratch`.
    fn tier_key<S: KeySource<P>>(&mut self, source: &S) -> (u64, bool) {
        let plan = self.shared.plan;
        let (in_place, canon) = (&self.in_place_buf, &mut self.canon);
        tier_key_into(
            source,
            plan.tier,
            false,
            in_place,
            canon,
            &mut self.key_scratch,
        );
        let mut swap = false;
        if plan.value {
            tier_key_into(source, plan.tier, true, in_place, canon, &mut self.swap_buf);
            if self.swap_buf < self.key_scratch {
                std::mem::swap(&mut self.swap_buf, &mut self.key_scratch);
                swap = true;
            }
        }
        (stable_hash64(&self.key_scratch), swap)
    }

    /// Probes the memo with the canonical key in `key_scratch`; a hit
    /// comes back in the configuration's real value space.
    fn memoized(
        &self,
        hash: u64,
        value_swapped: bool,
    ) -> Result<Option<Arc<Summary<P::Output>>>, Interrupt> {
        let summary = self
            .shared
            .memo
            .get(hash, &self.key_scratch)
            .map_err(|e| self.shared.fail(e.into()))?;
        Ok(summary.map(|summary| self.to_real(summary, value_swapped)))
    }

    /// The canonical key bytes the last [`canonical_key`](Self::canonical_key)
    /// or [`cursor_key`](Self::cursor_key) call produced — for callers
    /// (the distributed frontier expander) that need the bytes, not just
    /// the hash.
    pub(crate) fn key_bytes(&self) -> &[u8] {
        &self.key_scratch
    }

    /// Maps decided values through the value involution, element-wise
    /// (discovery order is preserved — the swap does not reorder
    /// enumeration; a summary's counts and rounds are untouched by it).
    fn swap_decided(decided: &mut [P::Output]) {
        for value in decided {
            *value = value
                .value_swapped()
                .expect("value-symmetry tier active but a decided value has no swap image");
        }
    }

    /// A memoized (canonical-space) summary translated back into the
    /// entered configuration's *real* value space.
    fn to_real(
        &self,
        summary: Arc<Summary<P::Output>>,
        value_swapped: bool,
    ) -> Arc<Summary<P::Output>> {
        if value_swapped {
            let mut real = (*summary).clone();
            Self::swap_decided(&mut real.decided);
            Arc::new(real)
        } else {
            summary
        }
    }

    /// Takes a real-space summary to the form the memo holds, in place:
    /// mapped into canonical value space when the swapped encoding won
    /// the key, and — on the partial tier only — its `decided` list
    /// sorted by encoded bytes, because merged orbit members enumerate
    /// children in different orders and would otherwise disagree on
    /// discovery order (the normal-form argument at the head of
    /// `canon.rs`; `Off` and
    /// `Full` summaries are deliberately left byte-for-byte as before).
    /// The values are compared through two walker-owned buffers (`bufs`):
    /// a valency list is a handful of values, sorted in place (a stable
    /// sort, like the keyed one it replaces) without allocating.
    fn canonicalize(
        plan: SymmetryPlan,
        bufs: &mut (Vec<u8>, Vec<u8>),
        summary: &mut Summary<P::Output>,
        value_swapped: bool,
    ) {
        if value_swapped {
            Self::swap_decided(&mut summary.decided);
        }
        if plan.tier == CanonTier::SettledInert {
            let (left, right) = bufs;
            summary.decided.sort_by(|a, b| {
                left.clear();
                a.encode(left);
                right.clear();
                b.encode(right);
                left.cmp(&right)
            });
        }
    }

    /// A completed frame's real-space summary, [`canonicalize`](Self::canonicalize)d
    /// for the memo.
    fn canonical_arc(
        &mut self,
        mut summary: Summary<P::Output>,
        value_swapped: bool,
    ) -> Arc<Summary<P::Output>> {
        let plan = self.shared.plan;
        Self::canonicalize(plan, &mut self.decided_bufs, &mut summary, value_swapped);
        Arc::new(summary)
    }

    /// A configuration forked from `parent` — from the stepper pool when
    /// possible, so steady-state successor generation reuses buffers
    /// instead of allocating a fresh clone.
    fn fork(&mut self, parent: &Stepper<P>) -> Stepper<P> {
        match self.stepper_pool.pop() {
            Some(mut stepper) => {
                stepper.fork_from(parent);
                stepper
            }
            None => parent.clone(),
        }
    }

    /// `frame`'s child under row `idx`, built: forked from the frame's
    /// configuration and stepped under the materialized row.
    fn step_child(&mut self, frame: &Frame<P>, idx: usize) -> Result<Stepper<P>, Interrupt> {
        let mut child = self.fork(&frame.stepper);
        frame.round.actions_into(idx, &mut self.row_buf);
        child
            .step(&self.row_buf)
            .map_err(|e| self.shared.fail(ExploreError::Engine(e)))?;
        Ok(child)
    }

    /// Takes `frame`'s next rows for as long as each repeats a successor
    /// class the frame has absorbed — at most `limit` of them — adding
    /// their classes' terminal counts to the frame; returns how many it
    /// took.  The body of a run: per row the stop flag, one
    /// [`classify`](RoundKeys::classify) and one addition.  It stops
    /// *before* the row that ends the run, which `step` then takes like
    /// any other (the cursor stands on it, classified).
    fn absorb_repeats(&mut self, frame: &mut Frame<P>, limit: u64) -> Result<u64, Interrupt> {
        let rows = frame.round.len();
        let (mut taken, mut terminals) = (0, 0);
        while taken < limit && frame.next_action < rows {
            if self.shared.stop.load(Ordering::Relaxed) {
                return Err(Interrupt::Stopped);
            }
            let idx = frame.next_action;
            let class = (frame.round.classify(idx)).expect("a repeat was met: the round is keyed");
            let Some(summary) = frame.round.class_summary(class) else {
                break;
            };
            terminals += summary.terminals;
            debug_assert!(
                self.skipped_probe(frame, idx).as_ref() == frame.round.class_summary(class),
                "class table and memo disagree on a repeated child"
            );
            frame.next_action += 1;
            taken += 1;
        }
        frame.acc.terminals += terminals;
        Ok(taken)
    }

    /// Enters one configuration that exists — a root, a donated subtree,
    /// a child of a round the engine does not tabulate: key, probe, and
    /// on a miss what a keyed child goes through from its probe's miss
    /// on — the `max_states` test, then terminal evaluation or the frame
    /// push.
    fn enter(
        &mut self,
        stepper: Stepper<P>,
        stack: &mut Vec<Frame<P>>,
    ) -> Result<Entered<P, P::Output>, Interrupt> {
        if self.shared.stop.load(Ordering::Relaxed) {
            return Err(Interrupt::Stopped);
        }
        let (hash, value_swapped) = self.canonical_key(&stepper);
        if let Some(real) = self.memoized(hash, value_swapped)? {
            return Ok(Entered::Ready(real, stepper));
        }
        self.admit_state()?;
        if self.is_terminal(&stepper) {
            let (status, decisions) = (stepper.status(), stepper.decisions());
            let real = self.settle_terminal(hash, value_swapped, status, decisions)?;
            return Ok(Entered::Ready(real, stepper));
        }
        self.expand(stepper, hash, value_swapped, stack)?;
        Ok(Entered::Expanded)
    }

    /// The `max_states` test a configuration the memo does not hold
    /// passes before it becomes a state.
    fn admit_state(&self) -> Result<(), Interrupt> {
        if self.shared.memo.len() >= self.shared.config.max_states {
            // Raise the abort (cancel flag + queue close) before this
            // walker unwinds, so no peer hangs in `pop_wait` or keeps
            // expanding configurations past the budget.
            return Err(self.shared.fail(ExploreError::StateLimit {
                budget: self.shared.config.max_states,
            }));
        }
        Ok(())
    }

    /// Settles a terminal configuration the memo does not hold — keyed
    /// `(hash, value_swapped)`, key bytes in `key_scratch`, its processes
    /// standing with `status` and `decisions`: evaluates it, memoizes
    /// the shared `Arc` of its canonical summary ([`Terminals`]) and
    /// returns its real-space summary.
    fn settle_terminal(
        &mut self,
        hash: u64,
        value_swapped: bool,
        status: &[ProcStatus],
        decisions: &[ChildDecision<P>],
    ) -> Result<Arc<Summary<P::Output>>, Interrupt> {
        let shared = self.shared;
        (self.terminals).evaluate(&shared.config, shared.proposals, status, decisions);
        let (bufs, summary) = (&mut self.decided_bufs, &mut self.terminals.summary);
        Self::canonicalize(shared.plan, bufs, summary, value_swapped);
        let canonical = self.terminals.interned();
        let summary = (shared.memo)
            .insert(hash, &self.key_scratch, canonical)
            .map_err(|e| shared.fail(e.into()))?;
        Ok(self.to_real(summary, value_swapped))
    }

    /// Pushes the frame of a configuration the memo does not hold and
    /// that is not terminal — keyed `(hash, value_swapped)`, key bytes in
    /// `key_scratch` — donating tail children to idle workers on the way.
    fn expand(
        &mut self,
        stepper: Stepper<P>,
        hash: u64,
        value_swapped: bool,
        stack: &mut Vec<Frame<P>>,
    ) -> Result<(), Interrupt> {
        // The configuration expands: its send phase runs here, once, for
        // the enumeration below and for every child key after it.
        let round = self
            .open_round(&stepper)
            .map_err(|e| self.shared.fail(ExploreError::Engine(e)))?;

        // Work-sharing: if workers are parked on the injector, hand them
        // the subtrees this walker would reach last.  They explore into
        // the shared memo; this walker finds the results memoized when it
        // gets there.  Cost: one extra `step` per donated child.  The
        // depth-aware policy (`ExploreOptions::donate_depth`) can confine
        // donation to shallow rounds, where subtrees are still large
        // enough to be worth the handoff.
        let idle = self.shared.queue.idle_workers();
        let rows = round.len();
        if idle > 0 && rows > 1 && self.shared.donate_allowed(stepper.round().get()) {
            for idx in (0..rows).rev().take(idle.min(rows - 1)) {
                let mut child = self.fork(&stepper);
                round.actions_into(idx, &mut self.row_buf);
                if child.step(&self.row_buf).is_ok() {
                    self.shared.queue.push(child);
                }
            }
        }

        // The scratch becomes the frame's key; the frame's eventual
        // insert needs exactly these bytes, and the pool hands the
        // scratch slot a recycled buffer for the next key.
        let key = std::mem::replace(
            &mut self.key_scratch,
            self.key_pool.pop().unwrap_or_default(),
        );
        stack.push(Frame {
            stepper,
            hash,
            key,
            next_action: 0,
            awaiting: None,
            acc: Summary::empty(self.shared.system.t()),
            value_swapped,
            round,
        });
        Ok(())
    }

    /// The oracle behind `step`'s debug assertion on a keyed child the
    /// memo does not hold: fork, step, look.  The stepped child must be
    /// terminal exactly if the cursor row's records say so
    /// ([`RoundKeys::cursor_terminal`]), and then stand with the statuses
    /// and decisions read off them and evaluate to the same summary.
    fn records_are_the_stepped_child(&mut self, frame: &mut Frame<P>, idx: usize) -> bool {
        let Ok(child) = self.step_child(frame, idx) else {
            return false;
        };
        let (config, proposals) = (&self.shared.config, self.shared.proposals);
        let agree = match frame.round.cursor_terminal(config.max_rounds) {
            None => !self.is_terminal(&child),
            Some((status, decisions)) => {
                let evaluated = |terminals: &mut Terminals<P::Output>, status, decisions| {
                    terminals.evaluate(config, proposals, status, decisions);
                    terminals.summary.clone()
                };
                self.is_terminal(&child)
                    && status == child.status()
                    && decisions == child.decisions()
                    && evaluated(&mut self.terminals, status, decisions)
                        == evaluated(&mut self.terminals, child.status(), child.decisions())
            }
        };
        self.stepper_pool.push(child);
        agree
    }

    pub(crate) fn is_terminal(&self, stepper: &Stepper<P>) -> bool {
        stepper.is_quiescent() || stepper.round().get() > self.shared.config.max_rounds
    }
}
