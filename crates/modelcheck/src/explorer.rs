//! Bounded exhaustive exploration of a protocol's execution space — as a
//! parallel, work-sharing, sharded-memo model-checking engine.
//!
//! The explorer walks **every** execution of a round-based protocol under
//! the extended (or classic) model for a given `(n, t)`: at each round the
//! adversary may crash any subset of the live processes (within the
//! remaining budget), and each crash takes one of the *distinct* outcomes
//! enumerated by [`twostep_adversary::crash_outcomes_iter`] against that
//! process's concrete send plan — arbitrary data subsets, ordered commit
//! prefixes, end-of-round death.
//!
//! Identical configurations reached along different paths are merged: the
//! execution space is a DAG, and each node's subtree is summarized once
//! ([`Summary`]) and memoized.  A summary carries
//!
//! * how many terminal executions the subtree contains,
//! * the worst last-decision round per total crash count `f` (the Theorem
//!   1 / Theorem 4 quantity),
//! * the set of values decidable in the subtree (the **valency** of the
//!   configuration, the engine of the paper's Section 5 bivalency
//!   argument),
//! * whether any terminal violates the uniform-consensus spec.
//!
//! This regenerates the paper's lower-bound content mechanically for small
//! `n`: over all executions with `f` crashes the worst decision round is
//! exactly `f+1`, and bivalent configurations persist until the adversary's
//! budget is spent.
//!
//! ## Engine architecture
//!
//! The walk is **iterative** — an explicit frame stack per walker, so the
//! reachable depth is bounded by memory, not the OS stack — and
//! **parallel** with [`ExploreOptions::threads`] workers:
//!
//! * the memo table is split into [`ExploreOptions::shards`] hash-sharded,
//!   mutex-guarded `HashMap`s ([`Summary`]s behind `Arc`s), so concurrent
//!   walkers contend on `1/shards` of the table instead of one lock;
//! * each shard is optionally **two-tier** ([`MemoConfig`]): a bounded hot
//!   map of live entries plus an append-only on-disk segment file of
//!   cold ones — full keys *and* summaries, checksummed — evicted in
//!   clock (second-chance) order and addressed by an in-memory index of
//!   fixed-width hashed keys.  A lookup that misses the hot tier
//!   rehydrates candidate records ([`crate::spill`]) from disk, verifies
//!   the decoded key against the probe, and promotes the match back, so
//!   `max_states` bounds *distinct* configurations — no longer resident
//!   RAM, not even for the keys;
//! * workers share work dynamically through a
//!   [`twostep_sim::WorkQueue`] injector: whenever a busy walker expands a
//!   configuration while some worker is idle, it donates child subtrees
//!   (tail-first — the ones it would reach last) to the queue.  Stealing
//!   walkers explore those subtrees into the shared memo and discard the
//!   local result; the primary walker later finds them memoized.  The
//!   depth-aware policy [`ExploreOptions::donate_depth`]
//!   (`TWOSTEP_DONATE_DEPTH`) optionally confines donation to shallow
//!   rounds, where subtrees are still big enough to repay the handoff;
//! * worker 0 — the **primary** walker, running on the calling thread via
//!   [`twostep_sim::run_on_workers`] — performs the canonical root walk
//!   (or, for a distributed worker, the canonical walk of each assigned
//!   subtree root in order — the core is root-agnostic).
//!
//! ## One run spine: open → work → finish
//!
//! Every engine is the same three steps around one crate-private `Run`:
//!
//! * **open** — start the deadline clock (budgets bound the whole call,
//!   not one walk), fingerprint the run, build the shared state, seed
//!   the memo from the persistent cache when its fingerprint matches,
//!   and resume a checkpoint when one is there.  Seeding is **all or
//!   nothing**: a seeded parent hides its descendants from the walk, so
//!   an artifact that breaks mid-import (corrupt segment, bad CRC,
//!   undecompressable record) would be result-correct for the root but
//!   silently shrink `distinct_states` and the census.  A broken cache
//!   or checkpoint therefore costs the whole memo, which is rebuilt and
//!   re-seeded from whatever is still intact; a checkpoint suspended at
//!   another symmetry strength is a hard
//!   [`ExploreError::CheckpointStrength`] refusal;
//! * **work** — whatever fills the memo ahead of the final walk.
//!   Nothing, for [`explore_with`], which *is* the zero-worker run; one
//!   frontier expansion and a supervised worker per partition, for the
//!   partitioned coordinator; a local-first walk and a steal scheduler,
//!   for the elastic one ([`crate::dist`]).  Workers share one body of
//!   their own (seed import → frontier-segment rebuild → walk → delta
//!   export).  Work phases run unbounded and may under-cover freely —
//!   the determinism argument below is why;
//! * **finish** — honor a deadline that passed during a work phase that
//!   made progress (everything merged rides into the checkpoint), run
//!   the canonical root walk under the budget, build the census and
//!   witness, commit the fresh delta to the cache, and consume the
//!   checkpoint the run resumed from.  Every way of stopping short — an
//!   exhausted [`WalkBudget`] limit, or a `StateLimit` abort when a
//!   checkpoint is configured — leaves through one suspend path that
//!   serializes the fresh memo delta and returns
//!   [`ExploreError::Interrupted`].
//!
//! The sections below describe what each layer adds; none of them opens
//! or closes a run differently.
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
//!   process count, then per-process tag + [`SpillCodec`] encoding)
//!   instead of cloning per-process snapshots into a structured key.
//!   Byte equality coincides with the structured equality the explorer
//!   has always merged by (property-tested in this module), because the
//!   component encodings are canonical;
//! * **a single stable hash** — the key bytes are hashed exactly once
//!   ([`twostep_model::codec::stable_hash64`]); that one `u64` picks
//!   the memo shard, indexes the shard's raw table (behind a
//!   pass-through hasher — nothing re-hashes the bytes), keys the spill
//!   index, and partitions distributed frontiers.  Collisions chain on
//!   full key bytes, so they cost a `memcmp`, never correctness;
//! * **lock-lean probes** — a memo hit (the dominant outcome in warm
//!   and late-exploration walks) takes only the shard's read lock and
//!   touches an atomic clock bit; write locks are for misses with a
//!   disk tier and for inserts ([`crate::memo`]);
//! * **clone-free successors** — a child that has to exist (a memo
//!   miss that expands, see *Key-first successor generation* below)
//!   costs no allocation either: per-process snapshots live behind
//!   `Arc`s ([`twostep_sim::Stepper`] copy-on-write), child steppers
//!   are recycled through a walker pool and re-forked in place
//!   (`Stepper::fork_from` reuses every buffer), round scratch (send
//!   plans, outcomes, receive flags, inboxes) persists inside the
//!   stepper, and hot protocols refill their plans in place
//!   ([`twostep_sim::SyncProtocol::send_into`]);
//! * **pooled enumeration** — a configuration's adversary moves are
//!   rows of small outcome *indices*, and none of them is stored: an
//!   odometer holds the one row the walk stands on and steps it in
//!   place.  The odometer, the per-process outcome lists, the
//!   send-phase copy, the record arena, the (slot, outcome), class and
//!   orbit tables, the one buffer a row is materialized into when the
//!   engine needs a real action vector, key buffers, and the terminal
//!   pseudo-schedule and scratch summary are all recycled across
//!   configurations; a terminal is memoized under the one shared summary
//!   of its outcome (`Terminals`), so a leaf allocates its memo entry
//!   and nothing else.
//!
//! None of this changes a single observable bit: keys merge exactly the
//! configurations the structured comparison merged, summaries are the
//! same deterministic child-order merges, and the differential suites
//! (parallel/spill/dist/cache) pin the reports unchanged.  The spill /
//! interchange record format did change shape (key bytes stored
//! verbatim, length-prefixed), which is segment format **v4** — v3-era
//! files and caches are foreign and loudly replaced, never reused.
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
//! process's view alone.  A frame's open round (`RoundKeys`) follows
//! that shape, in four steps per row:
//!
//! 1. **counted rows** — when a configuration expands, its **send phase
//!    runs once** ([`twostep_sim::SentRound`]) and the live-effect crash
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
//!    slot moves, a slot's [`twostep_sim::RoundView`] (which senders'
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
//!    interned record keeps of its process, see *Canonicalization hot
//!    path* — and probed.  Whatever answers, the summary is absorbed
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
//! rows and 2 976 expand.  What the factoring deleted: the per-frame
//! `Vec<RoundActions>` and its two pools, then the flat row array after
//! it (4.5 MB for the `(8, 7)` root), the per-row `CrashStage::effect` /
//! reach / round-end evaluation, the per-row view vector, and the
//! engine's "row aimed at a decided process" escape — an index row can
//! only name active processes.  The distributed frontier expander and the steal harvester key their
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
//! [`headroom`](Arbiter::headroom) says no verdict but `Allow` is
//! passed over (the serial `(8, 7)` walk: 2 945 827 steps in 396 760
//! calls).  Order cannot change because nothing is reordered: the first
//! row of every class is where it was, so the children are entered in
//! the same order (DFS order, memo insertion order), `decided` values
//! are discovered in the same order (a repeat discovers none), and a
//! budget, a yield or a deadline poll falls on the same step number.
//!
//! Soundness rests on three facts of the round semantics, all of them
//! properties of [`twostep_sim::Stepper::step`] (which is written on top
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
//! probe's miss on, read off the `Stepper`).  In debug builds every key
//! assembled from records is checked against the forked + stepped child
//! — its raw bytes against `make_key_into`, its plan key against the
//! tier encoder run on the child, in bytes, hash and swap orientation —
//! every row answered from a table — a class hit, the rows inside a run
//! included, and an orbit hit — assembles its key after all, checks it
//! the same way, and compares the table's summary with what the skipped
//! probe returns, and every child the memo does not hold is stepped
//! after all: it must be terminal exactly if its records say so, and
//! then stand with their statuses and decisions and evaluate to the same
//! summary — so each differential suite is also a differential of this.
//! Enumeration order, absorb order, the one-step-per-child
//! accounting, the stop check and the `max_states` check are where they
//! always were: reports are bit-identical.  One thing does move: a
//! probe that is not made does not touch the memo's clock bits, so a
//! spilling memo may evict — and write — a different set of entries;
//! what it *answers* cannot change.
//!
//! ## Symmetry reduction
//!
//! The paper's processes are identical up to rank, so many distinct
//! configurations are mere relabelings of one another — and exploring
//! each label variant separately pays up to `n!` redundancy that no
//! constant-factor hot-path win can touch.  [`ExploreConfig::symmetry`]
//! (`Symmetry::Off | Full | Partial | PartialValue`, env tokens
//! `off|full|partial|partial+value` via `TWOSTEP_SYMMETRY`) quotients
//! the key path by the largest group that is *sound for the protocol
//! being checked*, at escalating strengths:
//!
//! * **settled-record canonicalization** — always applied under
//!   [`Symmetry::Full`], sound for **every** protocol.  Before hashing,
//!   the records of settled (decided or crashed) processes are sorted
//!   into their index slots in canonical byte order; active processes
//!   keep their true indexes and encodings.  Two configurations merged
//!   this way have *identical* active processes at *identical* indexes
//!   (hence identical future dynamics: a settled process is inert, and
//!   the silent-index set is unchanged) and multiset-equal settled
//!   records — and every quantity a [`Summary`] carries is a function
//!   of decision values/counts and the crash count, never of which
//!   index holds which settled record (validity is membership in the
//!   proposal set, agreement compares values pairwise, termination and
//!   `f` are counts).  Merged subtrees therefore summarize
//!   **bit-identically**, and the root report matches `Off` exactly;
//! * **full-orbit canonicalization** — additionally applied when the
//!   protocol declares itself pid-symmetric
//!   ([`SpillCodec::pid_symmetric`]): *all* records are sorted (each
//!   active stripped to its owner-relabelled-to-slot-0 encoding via
//!   [`SpillCodec::encode_relabelled`], ties broken by index — tied
//!   records are byte-identical, so the tie-break never breaks the
//!   normal form) and each active is re-encoded as owned by its sorted
//!   position.  This is the full `n!` quotient; it is sound only when
//!   the dynamics are invariant under index permutation (the
//!   `pid_symmetric` contract), which rank-dependent protocols — the
//!   paper's rotating-coordinator algorithm among them — do **not**
//!   satisfy, so they keep the settled-only strength automatically;
//! * **rank-inert pooling** (`Symmetry::Partial`) — the partial-orbit
//!   tier for rank-dependent protocols.  A protocol may declare an
//!   *active* process rank-inert ([`SpillCodec::rank_inert`]): its
//!   remaining behaviour no longer depends on its rank.  For CRW under
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
//!   — because effect-pruned adversary enumeration (below) keys
//!   transitions by their *live effect*, not by raw crash pattern —
//!   the two members enumerate the *same multiset* of child orbits
//!   with the same multiplicities.  Summaries are multiset-invariant
//!   merges of child summaries except for `decided` discovery order,
//!   which the memo normalizes by sorting decided vectors (by
//!   canonical value encoding) at insert under this tier — so orbit
//!   members summarize identically and the quotient is summary-exact,
//!   terminal counts included;
//! * **value symmetry** (`Symmetry::PartialValue`) — composed on top
//!   of the partial tier when the protocol declares a value involution
//!   ([`SpillCodec::value_symmetric`] / [`SpillCodec::value_swapped`],
//!   e.g. flipping a binary estimate) *and* the run's proposal set is
//!   closed under it (checked per run against the actual proposals;
//!   inapplicable requests warn once and degrade to `Partial`).  The
//!   canonical key becomes the lexicographic minimum of the plain and
//!   the value-swapped encoding, so a configuration and its value
//!   mirror share one memo entry holding the canonical-space summary;
//!   a hit through the swapped encoding maps the summary back through
//!   the involution (element-wise on `decided` — the swap commutes
//!   with the dynamics, so terminals, rounds, and the violation flag
//!   are fixed points).  Composition is sound because the involution
//!   acts value-wise and commutes with rank inertness (which reads
//!   only statuses, ranks, and the crash budget — never values).
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
//! effective strength (off / settled-only / full-orbit / rank-inert,
//! with a value-quotient bit) is part of the persistent-cache
//! fingerprint and the checkpoint manifest, so caches never cross
//! strengths silently — should a protocol's `pid_symmetric` /
//! `value_symmetric` declarations or the proposal set change — and a
//! checkpoint suspended at one strength refuses to resume at another
//! (its frontier keys and memo image are meaningless in the other
//! quotient).
//!
//! ### Canonicalization hot path
//!
//! A canonical key is written in one place, the tier encoder
//! (`tier_key_into`), over a *source* of per-process records with two
//! implementors.  A [`Stepper`] encodes each form from the process's
//! state as it is asked; that is the key path of every configuration
//! that exists — a root, a donated subtree, a child of a round the
//! engine does not tabulate, a frontier or witness replay — and a walk
//! from one root runs it once.  The row an open round's
//! cursor stands on is the other: when a record is interned, the round
//! keeps beside its raw bytes what the encoder may ask of that process
//! in the child — its in-place and its pooled (owner-stripped) bytes, in
//! the plain and, under a value plan, the swapped encoding, and the
//! settled state itself where `rank_inert` or a relabelling to a sorted
//! position must be asked — so the key of a child nothing has stepped
//! is the same encoder copying those forms.  A first-of-orbit row thus
//! costs the row's in-place flags, its orbit vector and a table lookup,
//! then one assembly per encoding, one stable hash and one memo probe —
//! and the key stands for a child nothing answers for: it is settled or
//! expanded under it, never keyed again.  A key is always encoded from scratch — its pooled records, a
//! handful of short ones, sorted in full — and nothing caches keys
//! across frames: the orbit table remembers, for the life of a frame,
//! which children it has seen, and the memo everything else.
//!
//! ## Determinism argument
//!
//! Results are **bit-identical** to the serial (`threads = 1`) walk.  The
//! primary walker expands every configuration's children in the fixed
//! enumeration order and absorbs their summaries in that order, exactly as
//! the serial walk does; whether a child summary was computed locally or
//! arrived via the memo from a stealer is unobservable, because each
//! subtree summary is itself the result of the same deterministic
//! child-order merge wherever it is computed, and merged summaries don't
//! depend on *when* they were computed.  Duplicate in-flight work (two
//! workers racing on one subtree) produces identical `Arc<Summary>`
//! values; the first insert wins and the count of distinct states is
//! key-set cardinality, not insert attempts — so `distinct_states`, the
//! per-round census, the root summary, and witness reconstruction all
//! match the serial walk byte for byte.
//!
//! The two-tier memo preserves this argument wholesale: spilling changes
//! only where an entry *resides*, never whether a key is memoized — a
//! `get` answers exactly as the all-RAM map would (rehydrating from disk
//! on a cold hit, full-key-verified), and `distinct_states` still counts
//! fresh insertions.  Reports are therefore bit-identical
//! spill-vs-no-spill at any `hot_capacity` and any thread count
//! (differentially tested in `tests/spill_differential.rs`).
//!
//! ## Distributed exploration
//!
//! The same argument extends across **process boundaries**, which is what
//! [`crate::dist`] exploits.  A partitioned run's work phase
//! deterministically expands the root to a depth-`d` frontier, assigns
//! each distinct frontier subtree to a worker process by key hash, and
//! merges the workers' exported memo segments; the spine's finish is
//! then the canonical root walk over the merged memo (the *replay*).
//! Three observations carry the proof over:
//!
//! 1. a worker process is indistinguishable from a stealer thread: it
//!    computes subtree summaries with the identical child-order merge,
//!    just into a private memo that is shipped as a segment file instead
//!    of shared memory;
//! 2. the merged memo is a plain key → summary mapping and summaries are
//!    a *function of the key* (each is the deterministic merge of its
//!    subtree), so the merge is conflict-free and insensitive to import
//!    order — two workers that both computed a shared descendant
//!    necessarily exported identical records for it;
//! 3. the coordinator's replay is the canonical root walk over a
//!    pre-seeded memo, and the walk never observes *where* a memoized
//!    summary came from — its own expansion, a thread, or another
//!    process.  Missing coverage (a crashed worker, a dropped segment)
//!    only moves work back into the replay; it cannot change the result.
//!
//! The differential suite `tests/dist_differential.rs` pins this:
//! partitioned reports are bit-identical to `threads = 1` across
//! partition counts, frontier depths, worker memo tierings, and worker
//! crash/retry histories.
//!
//! ## Elastic distribution
//!
//! Static partitioning pays its whole coordination bill — frontier
//! expansion, worker spawn-up, export/merge — up front, whether or not
//! the run is long enough to amortize it.  The **elastic** engine
//! ([`crate::dist::explore_elastic_timed`]) inverts that: its work phase
//! starts walking the root *locally* through the same frame-stepped
//! core, and distribution is an escape hatch it only reaches for when
//! the run outlives a [`crate::StealConfig`]'s thresholds.  Short runs
//! therefore pay nothing — they are a plain serial walk plus one
//! per-`yield_every`-steps policy check.
//!
//! Three mechanisms, all built on machinery this module already proves
//! correct:
//!
//! * **progress protocol** — every elastic walk (local or worker)
//!   reports `(steps, frontier, fresh)` each `yield_every` steps;
//!   worker processes print it as parseable `dist-progress:` stdout
//!   lines which the coordinator tails into a live per-worker load
//!   board.  `frontier` counts the *unexplored siblings hanging off the
//!   DFS stack* — the work a preemption could harvest — and `fresh`
//!   counts new memo inserts, so a walk that is merely re-traversing
//!   memoized territory advertises no stealable value;
//! * **steal handshake** — the coordinator requests a steal by writing
//!   a flag file next to the victim's scratch; the victim observes it
//!   at its next report boundary, suspends, and exports two artifacts
//!   *in a fixed order*: first the harvested frontier (every unexplored
//!   subtree root, addressed by its **action-index path** from the true
//!   initial configuration — canonical keys are lossy under symmetry,
//!   so the path is the only faithful cross-process address), then its
//!   sealed memo delta.  A crash between the two leaves an unsealed
//!   delta that fails validation, so a half-preempted worker is
//!   indistinguishable from a dead one and simply retried.  The
//!   coordinator re-splits the harvested frontier across fresh workers,
//!   each seeded with *every* delta merged so far — stolen subtrees are
//!   never walked twice, and a re-assigned subtree that was already
//!   finished memoizes nothing fresh, cannot be preempted (preemption
//!   requires `fresh > 0`), and exits immediately, which bounds every
//!   preempt chain in a finite space;
//! * **memo handoff soundness** — this is observation 2/3 of the
//!   distributed argument above, unchanged: summaries are a function of
//!   the key, so merging a preempted worker's *partial* delta is as
//!   conflict-free as merging a complete one, and the final canonical
//!   replay recomputes anything the handoff under-covered.  Elastic
//!   scheduling decisions (when to offload, whom to preempt, how to
//!   re-split) can affect only *timing*, never the report.
//!
//! `tests/dist_differential.rs` pins the elastic engine the same way:
//! forced-steal runs (zero warm-up, preempt-everything policy) are
//! bit-identical to serial across both model kinds and partition
//! counts, through killed-mid-steal retries, steal requests that lose
//! the race with a natural finish, and — by proptest — arbitrary
//! `(yield_every, partitions, min_frontier)` re-split cadences.
//!
//! ## Fault tolerance
//!
//! Worker launches are assumed to fail — crash, hang, corrupt their
//! exports, lie in their progress reports — and the coordinator is
//! engineered so none of that can reach the report.  The argument has
//! three layers:
//!
//! * **supervised lifecycle** ([`crate::dist::SuperviseConfig`], built
//!   on [`twostep_sim::run_tasks_supervised`]) — every launch runs
//!   under a supervisor that converts panics into ordinary retryable
//!   failures (a panicking launch closure can never abort the
//!   coordinator), enforces an optional per-attempt wall-clock cap,
//!   and — for the elastic engine — runs a pulse-liveness watchdog
//!   over the `dist-progress:` board: a worker whose last pulse (or
//!   spawn) is older than the deadline has its
//!   [`twostep_sim::CancelToken`] tripped, its OS process killed, and
//!   is retried as a crash.  Retries back off deterministically
//!   (doubling from [`SuperviseConfig::backoff`](crate::dist::SuperviseConfig::backoff),
//!   no jitter — reruns schedule identically);
//! * **validated ingestion** — everything a worker hands back is
//!   checked before it is believed: frontier and delta segments carry
//!   CRCs and seals ([`crate::spill`]), manifests are written
//!   all-or-nothing (write-then-rename), and garbled `dist-progress:`
//!   lines are *skipped with a once-per-worker warning*, never parsed
//!   into the load board.  A worker that lies about its progress can
//!   waste a steal attempt; it cannot corrupt state;
//! * **graceful degradation** — a partition that exhausts its launch
//!   attempts is not a run failure (unless
//!   [`SuperviseConfig::degrade`](crate::dist::SuperviseConfig::degrade)
//!   is off): the coordinator walks the orphaned subtree roots
//!   *locally* through the same frame-stepped core into the same memo,
//!   which is sound for exactly the reason replay is — under-coverage
//!   only costs recomputation.  The elastic scheduler additionally
//!   *quarantines* the repeat offender (capacity shrinks by one, never
//!   below one) so a poisoned worker slot cannot absorb the whole
//!   retry budget.  Degraded work is reported
//!   ([`crate::dist::DistTimings::degraded_partitions`],
//!   [`crate::dist::ElasticStats::degraded`]), never hidden.
//!
//! All of it is testable deterministically because faults are *data*:
//! a [`crate::faults::FaultPlan`] (`TWOSTEP_FAULT`, `--fault`) maps
//! `(partition, attempt)` to an injected fault — crash/hang at a named
//! phase, export corruption or truncation, slow IO, lying progress —
//! and an IO shim can fail or tear the nth coordinator-side
//! spill/cache/checkpoint write.  `tests/fault_differential.rs` pins
//! the contract: every survivable plan is report-invisible
//! (bit-identical to serial, by matrix and by proptest), retry
//! exhaustion degrades to an identical report, hung workers die within
//! the watchdog/timeout deadline, and no single torn write leaves a
//! cache a later run would trust.
//!
//! ## Persistent cache
//!
//! The same portability argument extends across **run boundaries**
//! ([`crate::cache`], [`ExploreOptions::cache`]).  Because a summary is
//! a pure function of its key, a previous run's memo image — stored as
//! compressed, CRC'd interchange segments plus a fingerprinted
//! manifest — can pre-seed this run's memo, and the walk short-circuits
//! on every seeded subtree; a fully warm run touches exactly the root.
//! The spine's open seeds it and its finish commits it, for every
//! engine alike; two rules (plus open's all-or-nothing seeding) keep it
//! sound:
//!
//! * **fingerprinting** — segments are only reused when the manifest's
//!   fingerprint matches this run ([`crate::cache::run_fingerprint`]:
//!   segment format and exploration-logic versions, `(n, t)`, the
//!   exploration-relevant [`ExploreConfig`] fields, and
//!   protocol/proposal identity via [`CheckableProtocol::fingerprint`],
//!   a stable FNV-1a over the [`SpillCodec`] encoding).  A mismatch is
//!   loudly ignored — one stderr line, then a cold run — never silently
//!   reused.  The `max_states` safety valve is excluded: it cannot
//!   change results, so it must not invalidate caches.  Changes to what
//!   the checker *computes* must bump the logic version constant in
//!   [`crate::cache`], or old caches would replay pre-change results;
//! * **delta commit** — the memo tracks which entries were seeded and
//!   which this run inserted, so a ReadWrite commit appends a segment
//!   holding only the *new* entries (nothing at all when fully warm);
//!   a stale or absent cache is replaced wholesale.  Distributed work
//!   phases pass the seed on: the coordinator hands workers one
//!   consolidated segment and workers export deltas only.
//!
//! Cold-vs-warm bit-identity across both model kinds and every engine
//! shape is pinned by `tests/cache_differential.rs`; the report's
//! [`ExploreReport::cache_hits`] / [`ExploreReport::fresh_states`]
//! counters attribute the split without affecting any result field.
//!
//! One carve-out: the `max_states` budget is a **resource safety valve**,
//! not part of the deterministic result.  Whenever the budget is not
//! exhausted (it is at least the number of distinct reachable
//! configurations), no engine configuration can abort — a fresh memo miss
//! with the count already at the budget would require more distinct
//! states than exist — and every engine returns the identical report.
//! When the space genuinely overflows the budget, *which* configuration
//! trips [`ExploreError::StateLimit`] depends on timing (and was always
//! approximate: the pre-parallel recursive walk checked the budget only
//! on node entry, never on the inserts performed while unwinding).
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
//! promptly and returns the first recorded failure (regression-tested at
//! `threads = 4` in this module).  When a checkpoint directory is
//! configured ([`ExploreOptions::checkpoint`]), the spine's finish
//! reroutes a `StateLimit` abort through its suspend path, so the
//! partial walk survives for a rerun with a raised budget.
//!
//! ## Frame-stepped core
//!
//! The walker no longer owns its loop.  The DFS body lives in a
//! `StepWalker` whose `step()` performs **a bounded unit of work** and
//! returns a [`StepResult`] envelope; every engine (serial, parallel
//! stealers, spill, distributed workers and replay) is a thin *driver*
//! looping over `step()` — the spine's finish drives the root walk this
//! way, and so does every work phase.  A **step** is one iteration of
//! the historical loop — one configuration entry (memo probe / terminal
//! evaluation / frame push) or one frame pop (memoizing insert) — and a
//! call takes one or more, each counted: the steps of a *run* (rows
//! that repeat a successor class their frame has absorbed, each an
//! addition to the frame's terminal count; see *Key-first successor
//! generation*) are taken in the same call as the step that ends the
//! run, as far as the arbiter allows.  Three contracts make this
//! preemption-safe:
//!
//! * **step law** — step *order* is exactly the owned loop's iteration
//!   order (only loop ownership moved), so bit-identity of reports is
//!   structural, not re-proven: any interleaving of `step()` calls
//!   performs the same enters and the same canonical-order merges;
//! * **arbiter contract** — at the end of each call the driver-supplied
//!   [`Arbiter`] inspects a [`StepProgress`] snapshot and answers
//!   [`StepVerdict::Allow`] (keep going), [`StepVerdict::Yield`] (a
//!   cooperative scheduling point — the primary driver calls
//!   `thread::yield_now`), or [`StepVerdict::Refuse`] with the exhausted
//!   [`BudgetKind`] (steps, wall-clock deadline, memo bytes — the
//!   distinct-state budget keeps its historical check, where a memo
//!   miss is about to become a state).
//!   The built-in [`BudgetArbiter`] enforces a declarative
//!   [`WalkBudget`] ([`ExploreOptions::budget`], env-resolvable via
//!   `TWOSTEP_MAX_STEPS` / `TWOSTEP_DEADLINE_MS`; the deadline clock
//!   is read every 64 steps, not every step).  A call never passes over
//!   a step at which the arbiter could have answered anything else, or
//!   changed its own state: before the first silent step of a run the
//!   walker asks for the arbiter's [`headroom`](Arbiter::headroom) — how
//!   many further steps are certain to be allowed while the memo does
//!   not change (none by default; the distance to `max_steps`, the next
//!   `yield_every` multiple and the next deadline poll for
//!   `BudgetArbiter`) — so verdicts land on the step numbers they
//!   always did.  A refusal is
//!   honored only after the walk has memoized at least one *fresh*
//!   configuration this session, so a resume chain always terminates in
//!   at most `distinct_states` sessions even at `max_steps = 0`;
//! * **checkpoint format** — suspension serializes the memo's fresh
//!   delta through the existing v4 interchange segment
//!   ([`crate::spill`]) plus a CRC'd, fingerprinted manifest
//!   ([`crate::checkpoint`]).  No frontier frames are saved: memo
//!   inserts happen only at frame pop or terminal entry, so any
//!   quiescent memo image is **descendant-closed**, and a resumed run
//!   (the spine's open imports the image) simply re-drives the root
//!   walk, fast-forwarding through memo hits until it reaches
//!   unexplored territory.  The resumed final report is
//!   bit-identical to the uninterrupted one
//!   (`tests/checkpoint_differential.rs`, plus a proptest composing
//!   arbitrary step-budget partitions).

use std::collections::HashMap;
use std::hash::Hash;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use twostep_adversary::crash_outcomes_effective_into;
use twostep_model::codec::{stable_hash64, Canonicalizer};
use twostep_model::{
    CrashPoint, CrashSchedule, CrashStage, ProcessId, SymmetryContext, SystemConfig,
};
use twostep_sim::{
    check_uniform_consensus, default_threads, run_on_workers, Decision, EnvKnob, ModelKind,
    ProcStatus, RoundActions, RoundView, SentRound, SimError, SpecReport, SpecViolation, Stepper,
    SyncProtocol, TraceLevel, WorkQueue,
};

use crate::cache::{CacheConfig, CacheSession};
use crate::checkpoint::{self, CheckpointConfig, CheckpointLoad};
use crate::memo::{key_round, MemoConfig, ShardedMemo};
use crate::spill::{SpillCodec, SpillError};

/// Protocols the explorer can check: cloneable (to fork executions),
/// hashable (to merge identical configurations), `Send + Sync` (to move
/// forked executions between worker threads and share memoized
/// configuration keys across the memo's tiers), and [`SpillCodec`] (so
/// configuration keys — per-process protocol snapshots — can spill to
/// disk and travel between worker processes as interchange segments).
pub trait CheckableProtocol: SyncProtocol + Clone + Eq + Hash + Send + Sync + SpillCodec {
    /// Stable 64-bit identity of this protocol snapshot, derived from
    /// its [`SpillCodec`] encoding via
    /// [`stable_hash64`](twostep_model::codec::stable_hash64) — the same
    /// hasher the memo applies to whole configuration keys, and the
    /// protocol-identity component of the persistent cache's run
    /// fingerprint ([`crate::cache::run_fingerprint`]).  Two snapshots
    /// fingerprint equal iff their encodings are byte-equal, and the
    /// hash is stable across builds and platforms (unlike
    /// `DefaultHasher`), so a cache written yesterday still identifies
    /// today's identical run.
    ///
    /// The encoding must therefore be **canonical**: `decode` inverts
    /// `encode` (the [`SpillCodec`] contract) and `Eq`-equal snapshots
    /// encode to equal bytes — the explorer merges configurations by
    /// comparing these bytes, so a snapshot whose encoding includes
    /// state its `Eq` ignores would split states the structured
    /// comparison used to merge.
    fn fingerprint(&self) -> u64 {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        stable_hash64(&buf)
    }
}
impl<T: SyncProtocol + Clone + Eq + Hash + Send + Sync + SpillCodec> CheckableProtocol for T {}

/// Decision-round bounds to verify at every terminal, as a function of the
/// run's actual crash count `f`.
#[derive(Clone, Copy, Debug)]
pub enum RoundBound {
    /// `f + c` — Theorem 1 is `FPlus(1)`.
    FPlus(u32),
    /// `min(f + 2, t + 1)` — the classic early-deciding bound.
    ClassicEarly {
        /// The resilience bound `t`.
        t: usize,
    },
    /// A fixed bound independent of `f` — flooding's `t + 1`.
    Fixed(u32),
    /// `base + f·per_f` — e.g. the block simulation of the extended model
    /// on the classic one decides within `(f+1)·n` classic rounds, which
    /// is `Scaled { base: n, per_f: n }`.
    Scaled {
        /// The `f = 0` bound.
        base: u32,
        /// Extra rounds per crash.
        per_f: u32,
    },
}

impl RoundBound {
    /// The bound for a run with `f` crashes.
    pub fn bound(&self, f: usize) -> u32 {
        match self {
            RoundBound::FPlus(c) => f as u32 + c,
            RoundBound::ClassicEarly { t } => ((f + 2).min(t + 1)) as u32,
            RoundBound::Fixed(b) => *b,
            RoundBound::Scaled { base, per_f } => base + f as u32 * per_f,
        }
    }
}

/// Which agreement property to verify at terminals.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SpecMode {
    /// Uniform consensus: no two processes — correct or faulty — decide
    /// differently (the paper's problem).
    #[default]
    Uniform,
    /// Plain consensus: only *correct* processes must agree; a faulty
    /// decider may deviate.  Used to check the classic-model `f+1`
    /// early-deciding baseline, for which uniformity provably fails
    /// (Charron-Bost–Schiper).
    NonUniform,
}

/// Symmetry-reduction mode: whether configurations are canonicalized
/// modulo process-index permutation (and, at the strongest mode, modulo
/// the binary value involution) before keying the memo — the module
/// docs' "Symmetry reduction" section.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Symmetry {
    /// No canonicalization: every raw configuration is a distinct memo
    /// entry.  The default, and the differential baseline the symmetry
    /// suites compare against.
    #[default]
    Off,
    /// Canonicalize modulo the largest *structurally* sound permutation
    /// group: settled (decided/crashed) records are sorted into their
    /// slots for every protocol, and the full `n!` orbit is quotiented
    /// for protocols declaring [`SpillCodec::pid_symmetric`].  Verdicts,
    /// the root summary, and witness validity are unchanged;
    /// `distinct_states` and the census count orbits instead of raw
    /// configurations.
    Full,
    /// Everything [`Full`](Symmetry::Full) does, plus the **partial
    /// (mixed-role) quotient**: active processes whose rank is provably
    /// inert ([`SpillCodec::rank_inert`]) are owner-stripped and pooled
    /// with the settled records.  Still exact for the root summary (see
    /// the module docs' soundness argument), up to the order of the
    /// `decided` valency list, which this tier stores in canonical
    /// (encoded-byte) order.
    Partial,
    /// Everything [`Partial`](Symmetry::Partial) does, plus **value
    /// symmetry** when it applies ([`SpillCodec::value_symmetric`]
    /// protocols over a swap-closed binary proposal set): each
    /// configuration is keyed by the lexicographically smaller of its
    /// canonical encoding and its value-swapped canonical encoding, and
    /// memoized summaries are mapped through the involution on the way
    /// in and out.  When value symmetry does not apply to the run it
    /// degrades to `Partial` (loudly, once).
    PartialValue,
}

impl Symmetry {
    /// The mode's canonical config-string token, shared by the
    /// `TWOSTEP_SYMMETRY` env override, the bench CLI, and the
    /// distributed worker argv (so every process of a run agrees on the
    /// spelling).
    pub fn token(self) -> &'static str {
        match self {
            Symmetry::Off => "off",
            Symmetry::Full => "full",
            Symmetry::Partial => "partial",
            Symmetry::PartialValue => "partial+value",
        }
    }

    /// Parses a [`token`](Self::token) (ASCII case-insensitive,
    /// surrounding whitespace ignored); `None` for anything else —
    /// callers decide whether that warrants a warning
    /// (the `TWOSTEP_SYMMETRY` warn-once policy) or a hard error.
    pub fn parse_token(raw: &str) -> Option<Symmetry> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "off" => Some(Symmetry::Off),
            "full" => Some(Symmetry::Full),
            "partial" => Some(Symmetry::Partial),
            "partial+value" => Some(Symmetry::PartialValue),
            _ => None,
        }
    }

    /// The mode the `TWOSTEP_SYMMETRY` env var selects
    /// (`off|full|partial|partial+value`); [`Symmetry::Off`] when unset,
    /// and — loudly, once — when set to anything else.
    pub fn from_env() -> Symmetry {
        SYMMETRY.get().unwrap_or_default()
    }

    /// Resolves the mode into the run's concrete [`SymmetryPlan`] —
    /// computed once per exploration from the protocol type and the
    /// proposal vector, then carried in [`Shared`]: the per-visit key
    /// path must not re-derive type-level facts, and value-symmetry
    /// applicability depends on the proposals, which only the run knows.
    pub(crate) fn plan<P>(self, proposals: &[P::Output]) -> SymmetryPlan
    where
        P: CheckableProtocol,
        P::Output: Hash + SpillCodec,
    {
        let tier = match self {
            Symmetry::Off => CanonTier::Raw,
            _ if P::pid_symmetric() => CanonTier::FullOrbit,
            Symmetry::Full => CanonTier::Settled,
            Symmetry::Partial | Symmetry::PartialValue => CanonTier::SettledInert,
        };
        let value = self == Symmetry::PartialValue && value_symmetry_applies::<P>(proposals);
        if self == Symmetry::PartialValue && !value {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!(
                    "twostep: symmetry mode \"partial+value\" requested but value \
                     symmetry does not apply to this run (protocol not value-symmetric, \
                     or proposal set not closed under the value swap); \
                     running at \"partial\" strength"
                )
            });
        }
        SymmetryPlan { tier, value }
    }
}

/// Whether the value-symmetry quotient is sound for a run of protocol
/// `P` over `proposals`: the protocol's dynamics must commute with the
/// involution ([`SpillCodec::value_symmetric`]), every proposal must
/// have a swap image, and the proposal *set* must be closed under the
/// swap — the validity check compares decided values against the
/// proposal set, so a swap that leaves it would flip a terminal's
/// verdict between a configuration and its swapped twin.
fn value_symmetry_applies<P>(proposals: &[P::Output]) -> bool
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    if !P::value_symmetric() || proposals.is_empty() {
        return false;
    }
    let encoded: Vec<Vec<u8>> = proposals
        .iter()
        .map(|p| {
            let mut buf = Vec::new();
            p.encode(&mut buf);
            buf
        })
        .collect();
    let mut swap_buf = Vec::new();
    for proposal in proposals {
        let Some(swapped) = proposal.value_swapped() else {
            return false;
        };
        swap_buf.clear();
        swapped.encode(&mut swap_buf);
        if !encoded.contains(&swap_buf) {
            return false;
        }
    }
    true
}

/// Which canonical-key layout a run uses — the [`Symmetry`] mode
/// resolved against the protocol's type-level declarations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum CanonTier {
    /// The plain [`make_key_into`] encoding; nothing is sorted.
    Raw,
    /// Settled (decided/crashed) records sorted into the settled slots;
    /// actives keep their true indexes.  Sound for every protocol.
    Settled,
    /// `Settled`, plus rank-inert actives ([`SpillCodec::rank_inert`])
    /// owner-stripped (tag `3`) and sorted jointly with the settled
    /// records into the non-true-active slots.
    SettledInert,
    /// Every record sorted, actives re-encoded at their sorted position
    /// — the full `n!` quotient for [`SpillCodec::pid_symmetric`]
    /// protocols (subsumes `SettledInert`, so pid-symmetric protocols
    /// take this tier at every non-`Off` mode).
    FullOrbit,
}

/// A run's resolved symmetry configuration: the canonical-key tier plus
/// whether the value-involution quotient is active.  Computed once per
/// run ([`Symmetry::plan`]) and carried in [`Shared`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct SymmetryPlan {
    pub(crate) tier: CanonTier,
    pub(crate) value: bool,
}

impl SymmetryPlan {
    /// The effective canonicalization strength as the byte the
    /// persistent-cache fingerprint and the checkpoint manifest record:
    /// the tier code (`0` raw, `1` settled, `2` full-orbit, `3`
    /// settled-inert) with bit `0x10` set when the value quotient is
    /// active.  Fingerprinting the *strength* (not the configured mode)
    /// matters because `pid_symmetric` / `value_symmetric` are
    /// type-level declarations and value applicability depends on the
    /// proposals: any of them can change without an encoding changing,
    /// and a cache keyed at another strength holds a differently
    /// quotiented state space.
    pub(crate) fn strength(self) -> u8 {
        let tier = match self.tier {
            CanonTier::Raw => 0,
            CanonTier::Settled => 1,
            CanonTier::FullOrbit => 2,
            CanonTier::SettledInert => 3,
        };
        tier | if self.value { 0x10 } else { 0 }
    }
}

/// Exploration limits and model options (what to explore).
///
/// Engine parallelism (how to explore it) lives in [`ExploreOptions`];
/// the two are orthogonal, and every [`ExploreOptions`] produces the same
/// report for a given `ExploreConfig`.
#[derive(Clone, Copy, Debug)]
pub struct ExploreConfig {
    /// Which model semantics to run under.
    pub model: ModelKind,
    /// Round cap: reaching it with live undecided processes is a
    /// termination violation.
    pub max_rounds: u32,
    /// Distinct-configuration budget; exceeding it aborts with
    /// [`ExploreError::StateLimit`].  A resource safety valve: when the
    /// budget covers the reachable space the result is engine-independent,
    /// but a space that overflows it may abort at an engine-dependent
    /// point (see the module docs).
    pub max_states: usize,
    /// Optional decision-round bound to verify at every terminal.
    pub round_bound: Option<RoundBound>,
    /// Agreement property to verify (uniform by default).
    pub spec: SpecMode,
    /// Cap on crashes *per round* (`None` = only the global `t` budget).
    /// `Some(1)` is the restricted adversary of **Theorem 3** — the §5
    /// proof kills at most one process per round, so the `f+1` lower
    /// bound already holds against this weaker adversary.
    pub max_crashes_per_round: Option<usize>,
    /// Symmetry-reduction mode (default [`Symmetry::Off`]; the
    /// [`for_crw`](Self::for_crw) constructor honors the
    /// `TWOSTEP_SYMMETRY` env override).  Part of the persistent-cache
    /// fingerprint: runs at different effective strengths never share a
    /// cache.
    pub symmetry: Symmetry,
}

impl ExploreConfig {
    /// Defaults for checking the paper's algorithm: extended model, round
    /// cap `n + 1`, Theorem 1 bound, a generous state budget.  Honors
    /// the `TWOSTEP_SYMMETRY` env override ([`Symmetry::from_env`]) so
    /// operators can flip symmetry reduction without recompiling;
    /// explicit callers (the bench harness runs both modes in one
    /// process) just assign [`ExploreConfig::symmetry`] after
    /// construction.
    pub fn for_crw(system: &SystemConfig) -> Self {
        ExploreConfig {
            model: ModelKind::Extended,
            max_rounds: system.n() as u32 + 1,
            max_states: 5_000_000,
            round_bound: Some(RoundBound::FPlus(1)),
            spec: SpecMode::Uniform,
            max_crashes_per_round: None,
            symmetry: Symmetry::from_env(),
        }
    }

    /// The same exploration under the Theorem 3 adversary: at most one
    /// crash in each round.
    pub fn theorem3(system: &SystemConfig) -> Self {
        ExploreConfig {
            max_crashes_per_round: Some(1),
            ..Self::for_crw(system)
        }
    }
}

/// Engine options: how many workers walk the space, how finely the memo
/// table is sharded, and how the memo tiers between RAM and disk.
///
/// `threads = 1` *is* the serial engine — there is no separate code path —
/// and any thread count and any [`MemoConfig`] produce bit-identical
/// reports whenever the [`ExploreConfig::max_states`] safety valve is not
/// exhausted (see the module docs for the determinism argument and the
/// budget carve-out).
#[derive(Clone, Debug)]
pub struct ExploreOptions {
    /// Worker threads ([`twostep_sim::default_threads`] by default, which
    /// honors the `TWOSTEP_THREADS` env override; min 1).
    pub threads: usize,
    /// Memo shards (power of two recommended; min 1).  More shards mean
    /// less lock contention and slightly more per-lookup overhead.
    pub shards: usize,
    /// Memo tiering: all-RAM by default; a finite
    /// [`MemoConfig::hot_capacity`] spills cold entries to disk so the
    /// reachable `(n, t)` stops being bounded by RAM.
    pub memo: MemoConfig,
    /// Depth-aware donation policy: a configuration donates child
    /// subtrees to idle workers only while its round is `<=` this cutoff
    /// (`None` = donate at any depth, the historical behavior).  Shallow
    /// subtrees are the big ones, so a small cutoff keeps the
    /// work-sharing benefit while avoiding donation overhead (one extra
    /// `step` per donated child) deep in the tree, where subtrees are
    /// tiny and mostly memoized anyway.  Defaults to the
    /// `TWOSTEP_DONATE_DEPTH` env var when set; results are identical
    /// under every policy — only load balance changes.
    pub donate_depth: Option<u32>,
    /// Persistent result cache ([`crate::cache`]): `Some` pre-seeds the
    /// memo from the cache directory when its fingerprint matches this
    /// run (warm-started walks short-circuit on every memoized subtree)
    /// and, in [`CacheMode::ReadWrite`](crate::CacheMode::ReadWrite),
    /// commits newly discovered entries back as a delta segment.
    /// Defaults to the `TWOSTEP_CACHE_DIR` env var when set (ReadWrite);
    /// results are identical with and without a cache — only speed
    /// changes.
    pub cache: Option<CacheConfig>,
    /// Per-walk preemption budget enforced by the frame-stepped driver
    /// (see the module docs).  An exhausted budget suspends the walk:
    /// with a [`checkpoint`](Self::checkpoint) directory configured the
    /// partial memo is serialized for resume; either way the call
    /// returns [`ExploreError::Interrupted`].  Defaults to the
    /// `TWOSTEP_MAX_STEPS` / `TWOSTEP_DEADLINE_MS` env vars when set
    /// ([`budget_from_env`]); unlimited otherwise.  Results are
    /// identical under every budget — an interrupted-then-resumed chain
    /// converges to the uninterrupted report.
    pub budget: WalkBudget,
    /// Checkpoint directory for suspended walks ([`crate::checkpoint`]):
    /// `Some` makes budget suspensions (and `StateLimit` aborts) write a
    /// resumable fresh-delta segment there, and makes a later run with a
    /// matching fingerprint resume from it (the artifact is consumed on
    /// successful completion).  `None` (the default) keeps the
    /// historical behavior: interrupts discard partial work.
    pub checkpoint: Option<CheckpointConfig>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            threads: default_threads(),
            shards: 64,
            memo: MemoConfig::all_ram(),
            donate_depth: DONATE_DEPTH.get(),
            cache: crate::cache::cache_from_env(),
            budget: budget_from_env(),
            checkpoint: None,
        }
    }
}

impl ExploreOptions {
    /// The serial engine: one walker, one shard.
    pub fn serial() -> Self {
        ExploreOptions {
            threads: 1,
            shards: 1,
            memo: MemoConfig::all_ram(),
            donate_depth: None,
            cache: None,
            budget: WalkBudget::unlimited(),
            checkpoint: None,
        }
    }

    /// A parallel engine with an explicit worker count.
    pub fn with_threads(threads: usize) -> Self {
        ExploreOptions {
            threads: threads.max(1),
            ..Self::default()
        }
    }

    /// The same engine with an explicit memo tier configuration.
    pub fn with_memo(self, memo: MemoConfig) -> Self {
        ExploreOptions { memo, ..self }
    }

    /// The same engine with an explicit donation-depth cutoff.
    pub fn with_donate_depth(self, donate_depth: Option<u32>) -> Self {
        ExploreOptions {
            donate_depth,
            ..self
        }
    }

    /// The same engine with an explicit persistent-cache configuration.
    pub fn with_cache(self, cache: Option<CacheConfig>) -> Self {
        ExploreOptions { cache, ..self }
    }

    /// The same engine with an explicit per-walk budget.
    pub fn with_budget(self, budget: WalkBudget) -> Self {
        ExploreOptions { budget, ..self }
    }

    /// The same engine with an explicit checkpoint directory.
    pub fn with_checkpoint(self, checkpoint: Option<CheckpointConfig>) -> Self {
        ExploreOptions { checkpoint, ..self }
    }
}

/// `TWOSTEP_DONATE_DEPTH`: the donation cutoff round; unset donates at
/// any depth.
pub(crate) const DONATE_DEPTH: EnvKnob<u32> = EnvKnob {
    name: "TWOSTEP_DONATE_DEPTH",
    fallback: "is not a round number; donating at any depth",
    parse: |raw| raw.parse().ok(),
};

/// `TWOSTEP_SYMMETRY`: a [`Symmetry::token`]; unset is [`Symmetry::Off`].
pub(crate) const SYMMETRY: EnvKnob<Symmetry> = EnvKnob {
    name: "TWOSTEP_SYMMETRY",
    fallback: "is not \"off\", \"full\", \"partial\", or \"partial+value\"; \
               symmetry reduction stays off",
    parse: Symmetry::parse_token,
};

/// `TWOSTEP_MAX_STEPS`: a step count; unset is unbounded.  `0` is
/// accepted: the min-progress guarantee still advances one fresh state
/// per session.
pub(crate) const MAX_STEPS: EnvKnob<u64> = EnvKnob {
    name: "TWOSTEP_MAX_STEPS",
    fallback: "is not a step count; walks are unbounded",
    parse: |raw| raw.parse().ok(),
};

/// `TWOSTEP_DEADLINE_MS`: a wall-clock deadline in milliseconds; unset is
/// none.
pub(crate) const DEADLINE_MS: EnvKnob<Duration> = EnvKnob {
    name: "TWOSTEP_DEADLINE_MS",
    fallback: "is not a millisecond count; walks have no deadline",
    parse: |raw| raw.parse().ok().map(Duration::from_millis),
};

/// Declarative per-walk budget enforced by the frame-stepped driver via
/// [`BudgetArbiter`] (see the module docs' *Frame-stepped core* section).
/// `None` everywhere (the [`WalkBudget::unlimited`] default) never
/// suspends; any `Some` limit suspends the walk with
/// [`ExploreError::Interrupted`] once exhausted *and* at least one fresh
/// configuration has been memoized this session (the min-progress
/// guarantee that makes resume chains terminate).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WalkBudget {
    /// Maximum steps for this walk (`None` = unlimited).  A step is one
    /// configuration entry or one frame pop — however many of them a
    /// `step()` call takes — so this bounds work, not states: memo hits
    /// count too.
    pub max_steps: Option<u64>,
    /// Wall-clock deadline measured from the start of the exploration
    /// call (`None` = unlimited).  Checked cooperatively once per step —
    /// overshoot is at most one configuration expansion.
    pub deadline: Option<Duration>,
    /// Approximate memo footprint ceiling in bytes (`None` = unlimited);
    /// key bytes plus a flat per-record overhead, monotone over a run.
    pub max_memo_bytes: Option<u64>,
    /// Emit a cooperative [`StepVerdict::Yield`] every this many steps
    /// (`None` = never).  The built-in drivers map it to
    /// `thread::yield_now`; a scheduling server can park the walk
    /// instead.  Results are unaffected.
    pub yield_every: Option<u64>,
}

impl WalkBudget {
    /// No limits: the walk runs to completion (the historical behavior).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Whether every limit is unset.
    pub fn is_unlimited(&self) -> bool {
        *self == Self::default()
    }
}

/// Which [`WalkBudget`] limit a refusal or [`ExploreError::Interrupted`]
/// is attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetKind {
    /// [`WalkBudget::max_steps`] exhausted.
    Steps,
    /// [`WalkBudget::deadline`] passed.
    Deadline,
    /// [`WalkBudget::max_memo_bytes`] exceeded.
    MemoBytes,
    /// The [`ExploreConfig::max_states`] distinct-state budget — routed
    /// through the checkpoint path when one is configured.
    States,
    /// Not a limit at all: a periodic crash-safety snapshot
    /// ([`crate::CheckpointConfig::autosave_every`]).  Never refuses a
    /// step — it only labels the checkpoint manifest so a resume can
    /// tell a mid-run autosave from a budget suspension.
    Autosave,
}

impl std::fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BudgetKind::Steps => "steps",
            BudgetKind::Deadline => "deadline",
            BudgetKind::MemoBytes => "memo-bytes",
            BudgetKind::States => "states",
            BudgetKind::Autosave => "autosave",
        })
    }
}

/// Progress snapshot handed to an [`Arbiter`] at the end of every
/// `step()` call.
#[derive(Clone, Copy, Debug)]
pub struct StepProgress {
    /// Steps performed by this walk so far (monotone).
    pub steps: u64,
    /// Current DFS stack depth — frames awaiting completion.
    pub frontier_len: usize,
    /// Distinct configurations memoized across the whole exploration
    /// (all walkers), including cache/checkpoint seeds.
    pub distinct_states: usize,
    /// Approximate memo footprint in bytes (see
    /// [`WalkBudget::max_memo_bytes`]).
    pub memo_bytes: u64,
}

/// An [`Arbiter`]'s answer for one step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepVerdict {
    /// Keep stepping.
    Allow,
    /// Cooperative scheduling point: the driver may deschedule the walk
    /// and step again later; nothing about the walk changes.
    Yield,
    /// A budget is exhausted: the driver should suspend the walk
    /// (honored after the min-progress guarantee, see [`WalkBudget`]).
    Refuse(BudgetKind),
}

/// Policy hook consulted by a frame-stepped driver at the end of every
/// `step()` call: the walker does a bounded unit of work, the arbiter
/// says Allow/Yield/Refuse, the driver owns the loop.  Implementations
/// must be cheap (called on the hot path) and need not be
/// deterministic: verdicts affect only *when* a walk suspends, never
/// its result.
pub trait Arbiter {
    /// Verdict for the step that just completed.
    fn inspect(&mut self, progress: &StepProgress) -> StepVerdict;

    /// How many steps after `progress.steps` are certain to be answered
    /// [`StepVerdict::Allow`] — by an `inspect` that would change
    /// nothing in `self` — for as long as the memo does not change
    /// (`distinct_states`, `memo_bytes`) and the stack does not move.
    /// A `step()` call may take that many steps whose only effect is an
    /// addition (rows that repeat a successor class their frame has
    /// absorbed) without returning to the driver in between; every one
    /// is still counted.  The default promises nothing, which makes
    /// every step its own `step()` call.
    fn headroom(&self, _progress: &StepProgress) -> u64 {
        0
    }
}

/// The trivial arbiter: always [`StepVerdict::Allow`].  Stealer threads
/// and distributed workers drive with this — suspension is the primary
/// (root) driver's decision.
pub struct Unbounded;

impl Arbiter for Unbounded {
    fn inspect(&mut self, _progress: &StepProgress) -> StepVerdict {
        StepVerdict::Allow
    }

    fn headroom(&self, _progress: &StepProgress) -> u64 {
        u64::MAX
    }
}

/// The built-in arbiter enforcing a [`WalkBudget`] against a fixed start
/// instant.
pub struct BudgetArbiter {
    budget: WalkBudget,
    started: Instant,
    /// Latched once the deadline has been seen to pass.
    expired: bool,
}

/// Steps between two reads of the deadline clock.  A step is well under
/// a microsecond and a clock read is a tenth of that, so reading it on
/// every step is a measurable share of a bounded walk; an expired
/// deadline is noticed at most this many steps late.
const DEADLINE_POLL_STEPS: u64 = 64;

impl BudgetArbiter {
    /// An arbiter whose deadline clock starts now.
    pub fn new(budget: WalkBudget) -> Self {
        Self::from_start(budget, Instant::now())
    }

    /// An arbiter measuring [`WalkBudget::deadline`] from an earlier
    /// instant — e.g. the entry into a multi-phase pipeline, so seed and
    /// worker phases count against the same clock.
    pub fn from_start(budget: WalkBudget, started: Instant) -> Self {
        BudgetArbiter {
            budget,
            started,
            expired: false,
        }
    }
}

impl Arbiter for BudgetArbiter {
    fn inspect(&mut self, progress: &StepProgress) -> StepVerdict {
        if let Some(max) = self.budget.max_steps {
            if progress.steps >= max {
                return StepVerdict::Refuse(BudgetKind::Steps);
            }
        }
        if let Some(max) = self.budget.max_memo_bytes {
            if progress.memo_bytes >= max {
                return StepVerdict::Refuse(BudgetKind::MemoBytes);
            }
        }
        if let Some(deadline) = self.budget.deadline {
            // Polled from a walk's first step on, and latched: a refusal
            // the driver cannot honor yet is repeated on every step.
            if !self.expired && progress.steps % DEADLINE_POLL_STEPS == 1 {
                self.expired = self.started.elapsed() >= deadline;
            }
            if self.expired {
                return StepVerdict::Refuse(BudgetKind::Deadline);
            }
        }
        if let Some(every) = self.budget.yield_every {
            if every > 0 && progress.steps.is_multiple_of(every) {
                return StepVerdict::Yield;
            }
        }
        StepVerdict::Allow
    }

    /// The distance to the nearest step at which `inspect` could do
    /// anything but return `Allow`: the step that exhausts `max_steps`,
    /// the next multiple of `yield_every`, the next read of the deadline
    /// clock.  Nothing, once a limit refuses.
    fn headroom(&self, progress: &StepProgress) -> u64 {
        let budget = &self.budget;
        let steps = progress.steps;
        if self.expired
            || budget
                .max_memo_bytes
                .is_some_and(|max| progress.memo_bytes >= max)
        {
            return 0;
        }
        let mut room = u64::MAX;
        if let Some(max) = budget.max_steps {
            room = room.min(max.saturating_sub(steps.saturating_add(1)));
        }
        if budget.deadline.is_some() {
            let polled = DEADLINE_POLL_STEPS;
            room = room.min(polled - 1 - (steps % polled + polled - 1) % polled);
        }
        if let Some(every) = budget.yield_every.filter(|every| *every > 0) {
            room = room.min(every - 1 - steps % every);
        }
        room
    }
}

/// What one `step()` call did — the uniform envelope every driver loops
/// on.
#[derive(Clone, Copy, Debug)]
pub struct StepResult {
    /// Steps this walk has performed so far, this call's included — a
    /// call takes one or more ([`Arbiter::headroom`]), so drivers that
    /// keep a cadence in steps read it here instead of counting calls.
    pub steps: u64,
    /// Whether the call pushed a new frame (a configuration expanded),
    /// as opposed to a memo hit, terminal evaluation, or frame pop.
    pub expanded: bool,
    /// DFS stack depth after the step.
    pub frontier_len: usize,
    /// Distinct configurations memoized across the whole exploration.
    pub distinct_states: usize,
    /// Whether and why to keep stepping.
    pub status: StepStatus,
}

/// Driver-facing status of a stepped walk after one `step()`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepStatus {
    /// More work remains; step again.
    Running,
    /// Every root's subtree is fully memoized; the walk is complete.
    Done,
    /// The arbiter requested a cooperative yield; step again whenever
    /// convenient.
    Yielded,
    /// The arbiter refused further work: the named budget is exhausted
    /// and the driver should suspend the walk.
    Refused(BudgetKind),
}

/// Resolves the default [`WalkBudget`] from the `TWOSTEP_MAX_STEPS` /
/// `TWOSTEP_DEADLINE_MS` env vars — unset means unlimited, and a
/// set-but-unparseable value is never silently ignored
/// ([`twostep_sim::EnvKnob`]).
pub fn budget_from_env() -> WalkBudget {
    WalkBudget {
        max_steps: MAX_STEPS.get(),
        deadline: DEADLINE_MS.get(),
        ..WalkBudget::unlimited()
    }
}

/// Errors aborting an exploration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExploreError {
    /// The distinct-state budget was exhausted.
    StateLimit {
        /// The configured budget.
        budget: usize,
    },
    /// The engine rejected a step (e.g. control messages under classic
    /// semantics).
    Engine(SimError),
    /// The disk tier of the memo failed (segment I/O, a corrupt or
    /// foreign segment file).
    Spill {
        /// What failed, human-readable.
        detail: String,
    },
    /// A distributed-exploration worker failed every launch attempt
    /// (see [`crate::dist`]).
    Worker {
        /// The frontier partition whose worker could not be completed.
        partition: usize,
        /// The last attempt's failure, human-readable.
        detail: String,
    },
    /// The distributed coordinator itself failed before or while
    /// orchestrating workers (e.g. it cannot locate its own binary for
    /// re-exec) — distinct from [`ExploreError::Worker`] so operators
    /// don't chase a worker that never launched.
    Coordinator {
        /// What failed, human-readable.
        detail: String,
    },
    /// The walk was suspended by an exhausted [`WalkBudget`] limit (or a
    /// `StateLimit` rerouted through the checkpoint path).  Not a
    /// failure: when [`checkpoint`](Self::Interrupted::checkpoint) is
    /// `Some`, re-running the identical exploration with that checkpoint
    /// directory configured resumes from the preserved partial memo and
    /// converges to the uninterrupted report.
    Interrupted {
        /// Which budget suspended the walk.
        reason: BudgetKind,
        /// Directory holding the resumable artifact, when one was
        /// written (`None`: no checkpoint configured, or writing it
        /// failed — reported loudly on stderr).
        checkpoint: Option<PathBuf>,
        /// Distinct configurations memoized at suspension — all of them
        /// preserved in the checkpoint.
        states: usize,
    },
    /// A resumable checkpoint exists for this run but was suspended at a
    /// different symmetry-canonicalization strength: its memo image
    /// lives in another strength's canonical key space and cannot be
    /// resumed under this one.  A hard refusal, not a silent restart —
    /// restore the suspended run's symmetry mode, or delete the
    /// checkpoint to start over at the new strength.
    CheckpointStrength {
        /// Strength byte the checkpoint was suspended at.
        found: u8,
        /// This run's effective strength byte.
        expected: u8,
    },
    /// A deliberately injected failure from the fault harness
    /// ([`crate::faults`]) — only ever produced under an armed
    /// `FaultPlan`, and distinguished so supervision tests can tell
    /// injected chaos from a genuine defect.
    Injected {
        /// Which fault fired, human-readable.
        detail: String,
    },
}

impl From<SpillError> for ExploreError {
    fn from(e: SpillError) -> Self {
        ExploreError::Spill {
            detail: e.to_string(),
        }
    }
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::StateLimit { budget } => {
                write!(f, "exploration exceeded the {budget}-state budget")
            }
            ExploreError::Engine(e) => write!(f, "engine error during exploration: {e}"),
            ExploreError::Spill { detail } => {
                write!(f, "memo spill failure during exploration: {detail}")
            }
            ExploreError::Worker { partition, detail } => {
                write!(
                    f,
                    "partition {partition} worker failed every attempt: {detail}"
                )
            }
            ExploreError::Coordinator { detail } => {
                write!(f, "distributed coordinator failure: {detail}")
            }
            ExploreError::Interrupted {
                reason,
                checkpoint,
                states,
            } => {
                write!(
                    f,
                    "exploration suspended ({reason} budget exhausted) after {states} \
                     distinct states; "
                )?;
                match checkpoint {
                    Some(dir) => write!(f, "resumable checkpoint at {}", dir.display()),
                    None => f.write_str("no checkpoint configured, partial work discarded"),
                }
            }
            ExploreError::Injected { detail } => {
                write!(f, "injected fault: {detail}")
            }
            ExploreError::CheckpointStrength { found, expected } => {
                write!(
                    f,
                    "checkpoint was suspended at symmetry strength {found:#04x} but this \
                     run canonicalizes at {expected:#04x}; restore the suspended run's \
                     symmetry mode or delete the checkpoint to start over"
                )
            }
        }
    }
}

impl std::error::Error for ExploreError {}

/// Memoized summary of everything reachable from one configuration.
///
/// Under a spilling memo ([`MemoConfig`]) summaries round-trip through
/// the compact binary record of [`crate::spill`]; equality is derived so
/// the round-trip (and the spill-vs-RAM differential suite) can assert
/// identity directly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Summary<O> {
    /// Terminal executions in the subtree.
    pub terminals: u64,
    /// `worst_round_by_f[f]` = the latest decision round over all subtree
    /// terminals whose total crash count is `f` (`None` = no such terminal
    /// or no decision in it).
    pub worst_round_by_f: Vec<Option<u32>>,
    /// Distinct values decided somewhere in the subtree — the
    /// configuration's valency.
    pub decided: Vec<O>,
    /// Whether some terminal in the subtree violates the spec.
    pub violating: bool,
}

impl<O: Clone + Eq> Summary<O> {
    fn empty(t: usize) -> Self {
        Summary {
            terminals: 0,
            worst_round_by_f: vec![None; t + 1],
            decided: Vec::new(),
            violating: false,
        }
    }

    fn absorb(&mut self, child: &Summary<O>) {
        self.terminals += child.terminals;
        for (mine, theirs) in self
            .worst_round_by_f
            .iter_mut()
            .zip(&child.worst_round_by_f)
        {
            *mine = match (*mine, *theirs) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
        }
        for v in &child.decided {
            if !self.decided.contains(v) {
                self.decided.push(v.clone());
            }
        }
        self.violating |= child.violating;
    }

    /// Whether at least two different values are reachable — the
    /// configuration is *bivalent* in the sense of the paper's Section 5.
    pub fn is_bivalent(&self) -> bool {
        self.decided.len() >= 2
    }
}

/// Encodes `stepper`'s configuration into its **canonical key bytes**,
/// reusing `out` (cleared first) — the hot-path replacement for the old
/// structured key clone: no per-process snapshot is cloned, no `Vec` of
/// snapshots is built, and in steady state no allocation happens at all
/// (the buffer is walker-local and reused across configurations).
///
/// Layout (self-delimiting, decoded by
/// [`decode_key_prefix`](crate::memo::decode_key_prefix) on the cold
/// witness path): `round: u32`, `process count: u32`, then per process a
/// tag byte — `0` active + protocol encoding, `1` decided + value +
/// round, `2` crashed + optional `(value, round)`.  Byte equality of two
/// keys coincides with structural equality of the configurations because
/// every component encoding is canonical (see
/// [`CheckableProtocol::fingerprint`]).
pub(crate) fn make_key_into<P>(stepper: &Stepper<P>, out: &mut Vec<u8>)
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
fn encode_key_record<P>(
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
        ProcStatus::Active => {
            out.push(0);
            if swap {
                swapped_proc(proc).encode(out);
            } else {
                proc.encode(out);
            }
        }
        settled => encode_settled_record(settled, decision, swap, out),
    }
}

/// Appends the key record of one **settled** (decided or crashed)
/// process: tag `1` decided + value + round, or tag `2` crashed +
/// optional `(value, round)`.  Shared by the plain key encoding and the
/// canonical tiers, so a settled process encodes identically whether or
/// not its record is about to be sorted.  With `swap` set, decided
/// values encode their [`SpillCodec::value_swapped`] image — the
/// value-symmetry tier's swapped encoding pass.
fn encode_settled_record<O: SpillCodec>(
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
/// activation check ([`value_symmetry_applies`]) has already proven the
/// protocol value-symmetric.
fn swapped_proc<P: SpillCodec>(proc: &P) -> P {
    proc.value_swapped()
        .expect("value-symmetry tier active but a process state has no swap image")
}

/// What has become of a process, as far as a key cares: the crash round
/// of a crashed one is not keyed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Role {
    Active,
    Decided,
    Crashed,
}

impl Role {
    fn of(status: &ProcStatus) -> Role {
        match status {
            ProcStatus::Active => Role::Active,
            ProcStatus::Decided => Role::Decided,
            ProcStatus::Crashed(_) => Role::Crashed,
        }
    }
}

/// A configuration as the tier encoder ([`tier_key_into`]) reads it: one
/// record per process, in the forms the canonical layouts are made of.
/// Two implementors: a [`Stepper`], which encodes each form from the
/// process's state as it is asked — roots, `enter`, the distributed
/// frontier, witness replay, the debug oracles — and the row an open
/// round's cursor stands on ([`CursorRow`]), which copies the forms its
/// interned records keep, so that the key of a child nothing has stepped
/// is assembled by `memcpy`.  With `swap` a form is that of the
/// process's [`SpillCodec::value_swapped`] image.
trait KeySource<P: CheckableProtocol> {
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
    /// Appends **active** process `i`'s encoding as if the process at
    /// index `at` owned it ([`SpillCodec::encode_relabelled`]), untagged.
    fn relabelled(&self, i: usize, swap: bool, at: usize, out: &mut Vec<u8>);
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

    fn relabelled(&self, i: usize, swap: bool, at: usize, out: &mut Vec<u8>) {
        if swap {
            swapped_proc(&*self.procs()[i]).encode_relabelled(at, out);
        } else {
            self.procs()[i].encode_relabelled(at, out);
        }
    }
}

/// Fills `in_place[i]` for every process: whether the tier encoder
/// leaves `p_{i+1}`'s record in its own slot rather than pooling it.
/// No record stands on the full orbit; otherwise every active process
/// does — unless the tier pools rank-inert actives
/// ([`CanonTier::SettledInert`]) and the protocol declares the process's
/// *rank* inert for the rest of the run ([`SpillCodec::rank_inert`],
/// soundness in the module docs).  One ascending pass: `crash_budget` is
/// the remaining crashes `t − crashed`, and `actives_below` counts the
/// actives `j < i` whose rank `j + 1` is still reachable by the
/// committing frontier (`j + 1 ≥ round`).  Computed from the
/// **unswapped** state only — the value involution commutes with the
/// dynamics, so it cannot change rank inertness.
fn flag_in_place<P, S>(source: &S, tier: CanonTier, t: usize, in_place: &mut Vec<bool>)
where
    P: CheckableProtocol,
    S: KeySource<P>,
{
    let n = source.processes();
    in_place.clear();
    if tier == CanonTier::FullOrbit {
        return in_place.resize(n, false);
    }
    let mut crashed = 0usize;
    for i in 0..n {
        let role = source.role(i);
        in_place.push(role == Role::Active);
        crashed += usize::from(role == Role::Crashed);
    }
    if tier != CanonTier::SettledInert {
        return;
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

/// Encodes one canonical key at the given tier — the one place a
/// canonical layout is written, behind every canonicalizing mode and
/// every [`KeySource`]: the walker's key-first probe (a row's records),
/// `enter`, witness reconstruction, and the distributed frontier
/// expander, so every engine keys (and therefore hashes, shards, and
/// partitions) a configuration identically, stepped or not.
///
/// * `swap` — encode the value-swapped twin of the configuration (the
///   value-symmetry tier runs this encoder twice and keeps the
///   lexicographically smaller key).
/// * `in_place` — which processes keep their slot ([`flag_in_place`]).
///
/// A process the tier leaves **in place** — an active one, unless the
/// tier is the full orbit or the process's rank is inert — is encoded
/// into its own slot; every other record is **pooled**: settled records
/// as they are, pooled actives owner-stripped (relabelled to slot 0)
/// behind tag `3` (rank-inert) or `0` (full orbit), all sorted by their
/// bytes into the remaining slots — where the full orbit re-encodes each
/// active as owned by its sorted position.
///
/// Every canonical layout remains a valid key encoding —
/// [`decode_key_prefix`](crate::memo::decode_key_prefix) and the
/// segment key validator accept tags `0`–`3` unchanged.
fn tier_key_into<P, S>(
    source: &S,
    tier: CanonTier,
    swap: bool,
    in_place: &[bool],
    canon: &mut Canonicalizer,
    out: &mut Vec<u8>,
) where
    P: CheckableProtocol,
    S: KeySource<P>,
{
    debug_assert!(tier != CanonTier::Raw, "raw keys take make_key_into");
    let n = source.processes();
    out.clear();
    source.round_number().encode(out);
    (n as u32).encode(out);
    canon.begin();
    for i in (0..n).filter(|i| !in_place[*i]) {
        let rec = canon.record();
        match source.role(i) {
            Role::Active => {
                rec.push(if tier == CanonTier::FullOrbit { 0 } else { 3 });
                source.relabelled(i, swap, 0, rec);
            }
            Role::Decided | Role::Crashed => source.record(i, swap, rec),
        }
    }
    canon.sort();
    if tier == CanonTier::FullOrbit {
        // Everything was pooled, so a record's place in the batch is its
        // process's index.
        for (at, (i, bytes)) in canon.iter_sorted().enumerate() {
            if bytes.first() == Some(&0) {
                out.push(0);
                source.relabelled(i, swap, at, out);
            } else {
                out.extend_from_slice(bytes);
            }
        }
        return;
    }
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

/// The result of a completed exploration.
#[derive(Clone, Debug)]
pub struct ExploreReport<O> {
    /// Distinct configurations visited.
    pub distinct_states: usize,
    /// Distinct configurations answered by the persistent cache (or
    /// distributed seed) instead of being explored: `0` on a cold run,
    /// equal to [`distinct_states`](Self::distinct_states) on a fully
    /// warm one.  Purely informational — the exploration *result* is
    /// identical with and without a cache.
    pub cache_hits: usize,
    /// Distinct configurations this run actually had to explore:
    /// `distinct_states - cache_hits`.
    pub fresh_states: usize,
    /// Root summary: terminals, worst rounds per `f`, valency, violations.
    pub root: Summary<O>,
    /// Per-round configuration census: `(round, configs, bivalent configs)`
    /// over all memoized configurations, ascending by round.  This is the
    /// empirical bivalency table of experiment E5.
    pub bivalency_by_round: Vec<(u32, usize, usize)>,
    /// A concrete violating schedule, if any terminal violated the spec:
    /// the crash points along one violating path plus the violations found
    /// at its terminal.
    pub witness: Option<Witness<O>>,
}

/// A reconstructed counterexample.
#[derive(Clone, Debug)]
pub struct Witness<O> {
    /// The crash schedule of the violating execution.
    pub schedule: CrashSchedule,
    /// The violations at its terminal.
    pub violations: Vec<SpecViolation<O>>,
    /// The terminal's decision table.
    pub decisions: Vec<Option<Decision<O>>>,
}

/// Exhaustively explores `initial` under every admissible adversary, with
/// the **serial** engine (`ExploreOptions::serial()`).
///
/// `proposals[i]` must be the value `p_{i+1}` proposed (for the validity
/// check).  See [`ExploreConfig`] for limits and [`explore_with`] for the
/// parallel engine (which produces the identical report faster).
///
/// # Examples
///
/// Verifying the paper's algorithm over the complete adversary space of a
/// 3-process system — every crash subset, every data-delivery subset,
/// every commit prefix — and reading off the exact Theorem 1/4 worst case:
///
/// ```
/// use twostep_core::crw_processes;
/// use twostep_model::{SystemConfig, WideValue};
/// use twostep_modelcheck::{SpecMode, explore, ExploreConfig};
///
/// let system = SystemConfig::new(3, 2).unwrap();
/// let proposals: Vec<WideValue> =
///     (0..3).map(|i| WideValue::new(1, i as u64 % 2)).collect();
/// let report = explore(
///     system,
///     ExploreConfig::for_crw(&system),
///     crw_processes(&system, &proposals),
///     proposals,
/// )
/// .unwrap();
///
/// assert!(!report.root.violating);                     // spec holds everywhere
/// assert_eq!(report.root.worst_round_by_f[2], Some(3)); // worst = f+1, exactly
/// assert!(report.root.is_bivalent());                  // §5's starting point
/// ```
pub fn explore<P>(
    system: SystemConfig,
    config: ExploreConfig,
    initial: Vec<P>,
    proposals: Vec<P::Output>,
) -> Result<ExploreReport<P::Output>, ExploreError>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    explore_with(system, config, ExploreOptions::serial(), initial, proposals)
}

/// Exhaustively explores `initial` under every admissible adversary with
/// an explicit engine configuration.
///
/// The report is bit-identical for every [`ExploreOptions`]; `threads > 1`
/// only changes how fast it is produced.
///
/// # Examples
///
/// ```
/// use twostep_core::crw_processes;
/// use twostep_model::{SystemConfig, WideValue};
/// use twostep_modelcheck::{explore_with, ExploreConfig, ExploreOptions};
///
/// let system = SystemConfig::new(3, 2).unwrap();
/// let proposals: Vec<WideValue> =
///     (0..3).map(|i| WideValue::new(1, i as u64 % 2)).collect();
/// let parallel = explore_with(
///     system,
///     ExploreConfig::for_crw(&system),
///     ExploreOptions::with_threads(4),
///     crw_processes(&system, &proposals),
///     proposals.clone(),
/// )
/// .unwrap();
/// assert!(!parallel.root.violating);
/// assert_eq!(parallel.root.worst_round_by_f[2], Some(3));
/// ```
pub fn explore_with<P>(
    system: SystemConfig,
    config: ExploreConfig,
    options: ExploreOptions,
    initial: Vec<P>,
    proposals: Vec<P::Output>,
) -> Result<ExploreReport<P::Output>, ExploreError>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    // The zero-worker run: open, no work phase, finish.
    Run::open(
        system,
        config,
        &options,
        options.cache.clone(),
        &proposals,
        initial,
    )?
    .finish()
    .map(|(report, ..)| report)
}

/// One exploration run, the spine every engine shares: [`open`](Self::open)
/// it, do the engine's own work over [`shared`](Self::shared) (nothing
/// for [`explore_with`]; worker launches and merges for the
/// [`crate::dist`] coordinators), then [`finish`](Self::finish) it.  The
/// open policy and the finish policy exist only here.
pub(crate) struct Run<'a, P>
where
    P: CheckableProtocol,
    P::Output: Hash,
{
    /// The memo (seeded by `open`) and the walker machinery.
    pub(crate) shared: Shared<'a, P>,
    /// The true initial configuration, ready to step.
    pub(crate) root: Stepper<P>,
    /// Records imported from a resumed checkpoint (0 when none).
    pub(crate) resumed: u64,
    /// Threads, budget and checkpoint directory of the finishing walk.
    engine: &'a ExploreOptions,
    session: CacheSession,
    fingerprint: u64,
    /// Entry instant: the deadline bounds the whole run, not one walk.
    started: Instant,
    /// Memo size once `open` has seeded it — what came from a cache or a
    /// checkpoint is not this session's progress.
    baseline: usize,
}

impl<'a, P> Run<'a, P>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    /// Opens a run: starts the deadline clock, fingerprints the run,
    /// builds the shared state, seeds the memo from `cache` when its
    /// fingerprint matches, and resumes `engine.checkpoint` when one is
    /// there.
    ///
    /// The memo is seeded **all or nothing**: a seeded parent hides its
    /// descendants from the walk, so a cache or checkpoint that breaks
    /// mid-import would silently shrink `distinct_states` and the
    /// census.  A broken artifact therefore costs the whole memo, which
    /// is rebuilt and re-seeded from whatever is still intact (a broken
    /// cache turns its session stale, so it re-seeds nothing and a
    /// ReadWrite commit replaces it with this run's full image).
    ///
    /// A resumed checkpoint's records import as *fresh* — relative to
    /// the cache they are exactly what the suspended run added — so the
    /// final commit still writes a complete delta and `cache_hits`
    /// matches an uninterrupted run.
    pub(crate) fn open(
        system: SystemConfig,
        config: ExploreConfig,
        engine: &'a ExploreOptions,
        cache: Option<CacheConfig>,
        proposals: &'a [P::Output],
        initial: Vec<P>,
    ) -> Result<Self, ExploreError> {
        let started = Instant::now();
        // A stale or absent cache is reported (loudly) by the session
        // and ignored.
        let fingerprint = crate::cache::run_fingerprint(system, &config, &initial, proposals);
        let mut session = CacheSession::open(cache, fingerprint);
        let root = Stepper::new(system, config.model, TraceLevel::Off, initial.clone())
            .map_err(ExploreError::Engine)?;
        let mut cache_seeded = |initial: Vec<P>| -> Result<Shared<'a, P>, ExploreError> {
            let shared = Shared::new(system, config, engine, proposals, initial)?;
            if session
                .seed(&shared.memo, crate::memo::key_validator::<P>())
                .is_some()
            {
                return Ok(shared);
            }
            // Broken cache: the partial seed goes, memo and all.
            Shared::new(system, config, engine, proposals, shared.initial)
        };
        let mut shared = cache_seeded(initial)?;
        let mut resumed = 0;
        if let Some(ckpt) = &engine.checkpoint {
            match checkpoint::load_checkpoint(
                ckpt,
                fingerprint,
                shared.plan.strength(),
                &shared.memo,
                crate::memo::key_validator::<P>(),
            ) {
                CheckpointLoad::Loaded { records } => resumed = records,
                CheckpointLoad::Absent => {}
                // A strength flip is a hard refusal, not a loud restart:
                // the user asked to resume a specific suspended image,
                // and that image lives in another strength's key space.
                CheckpointLoad::StrengthMismatch { found } => {
                    return Err(ExploreError::CheckpointStrength {
                        found,
                        expected: shared.plan.strength(),
                    });
                }
                CheckpointLoad::Broken => {
                    shared = cache_seeded(std::mem::take(&mut shared.initial))?;
                }
            }
        }
        let baseline = shared.memo.len();
        Ok(Run {
            shared,
            root,
            resumed,
            engine,
            session,
            fingerprint,
            started,
            baseline,
        })
    }

    /// The cache segments `open` seeded the memo from.
    pub(crate) fn cache_segments(&self) -> Vec<PathBuf> {
        self.session.segments()
    }

    /// Finishes a run: the canonical root walk over whatever the memo
    /// holds by now (everything, for a distributed run's replay; only
    /// the seeds, for [`explore_with`]), then census and witness, cache
    /// commit, and consumption of the checkpoint the run resumed from.
    /// Also returns the seconds the walk and the report took.
    ///
    /// Every way of stopping short goes through
    /// [`suspend`](Self::suspend) here: the deadline having already
    /// passed during a work phase that made progress (that phase runs
    /// unbounded, so the deadline is honored at the boundary and
    /// everything merged rides into the checkpoint), a budget the walk
    /// itself exhausts, and — when a checkpoint is configured, so that
    /// the partial memo survives for a rerun with a raised budget — a
    /// `StateLimit` abort.
    pub(crate) fn finish(self) -> Result<(ExploreReport<P::Output>, f64, f64), ExploreError> {
        let Run { engine, shared, .. } = &self;
        if let Some(deadline) = engine.budget.deadline {
            if self.started.elapsed() >= deadline && shared.memo.len() > self.baseline {
                return Err(self.suspend(BudgetKind::Deadline));
            }
        }
        let autosave = engine.checkpoint.as_ref().and_then(|ckpt| {
            ckpt.autosave_every.map(|every| Autosave {
                config: ckpt,
                fingerprint: self.fingerprint,
                every: every.max(1),
            })
        });
        let walk_start = Instant::now();
        let root = match walk_roots(
            shared,
            engine.threads,
            vec![self.root.clone()],
            &engine.budget,
            self.started,
            autosave,
        ) {
            Ok(WalkOutcome::Done(mut summaries)) => summaries.pop().expect("one root, one summary"),
            Ok(WalkOutcome::Suspended { reason }) => return Err(self.suspend(reason)),
            Err(ExploreError::StateLimit { .. }) if engine.checkpoint.is_some() => {
                return Err(self.suspend(BudgetKind::States));
            }
            Err(error) => return Err(error),
        };
        let walk_seconds = walk_start.elapsed().as_secs_f64();
        let report_start = Instant::now();
        let report = build_report(shared, root)?;
        let report_seconds = report_start.elapsed().as_secs_f64();
        self.session.commit(&shared.memo);
        if let Some(ckpt) = &engine.checkpoint {
            checkpoint::consume_checkpoint(ckpt);
        }
        Ok((report, walk_seconds, report_seconds))
    }

    /// Serializes the suspended run's fresh memo delta (when a
    /// checkpoint directory is configured) and builds the
    /// [`ExploreError::Interrupted`] to return.  The exploration is
    /// quiescent here — every walker joined before [`walk_roots`]
    /// returned — so the memo image is descendant-closed (inserts happen
    /// only at frame pop / terminal entry).
    fn suspend(&self, reason: BudgetKind) -> ExploreError {
        let memo = &self.shared.memo;
        let written = self.engine.checkpoint.as_ref().and_then(|ckpt| {
            let strength = self.shared.plan.strength();
            checkpoint::write_checkpoint(ckpt, self.fingerprint, strength, reason, memo)
        });
        ExploreError::Interrupted {
            reason,
            checkpoint: written,
            states: memo.len(),
        }
    }
}

/// Periodic crash-safety snapshotting for [`walk_roots`]
/// ([`CheckpointConfig::autosave_every`]): at `Yield` points, once at
/// least `every` steps have passed since the last save, the walk's
/// fresh memo delta is rewritten as a checkpoint labelled
/// [`BudgetKind::Autosave`].
///
/// Only honored on single-threaded walks: with stealers running, a
/// mid-walk export scan can race a concurrent insert across shards (a
/// parent landing in a later-scanned shard after its child's shard was
/// scanned) and break the descendant-closure the resume path relies on.
/// A one-walker memo is trivially quiescent at every step boundary.
#[derive(Clone, Copy)]
pub(crate) struct Autosave<'c> {
    pub(crate) config: &'c CheckpointConfig,
    pub(crate) fingerprint: u64,
    pub(crate) every: u64,
}

/// How a [`walk_roots`] call ended when no error occurred.
pub(crate) enum WalkOutcome<O> {
    /// Every root fully memoized: one summary per root, in order.
    Done(Vec<Arc<Summary<O>>>),
    /// The budget arbiter suspended the walk after it made fresh
    /// progress.  The memo holds a descendant-closed partial image; the
    /// caller decides whether to checkpoint it.
    Suspended {
        /// Which budget limit was exhausted.
        reason: BudgetKind,
    },
}

/// Walks every subtree in `roots` (in order, each fully memoized) with
/// `threads` work-sharing walkers, returning one summary per root.
///
/// This is the extracted walker core: the roots may be *any*
/// configurations — the canonical initial configuration
/// ([`explore_with`]), or a batch of frontier subtree roots assigned to
/// one distributed worker ([`crate::dist`]) — and the memo inside
/// `shared` may be pre-seeded with summaries computed elsewhere; a walk
/// simply finds those subtrees already answered.
///
/// The primary walker is driven one step at a time through a
/// [`BudgetArbiter`] over `budget` (deadline measured from `started`):
/// a refusal — once the walk has memoized at least one fresh
/// configuration — halts every walker and returns
/// [`WalkOutcome::Suspended`].  Pass [`WalkBudget::unlimited`] for the
/// historical run-to-completion behavior.
pub(crate) fn walk_roots<P>(
    shared: &Shared<'_, P>,
    threads: usize,
    roots: Vec<Stepper<P>>,
    budget: &WalkBudget,
    started: Instant,
    autosave: Option<Autosave<'_>>,
) -> Result<WalkOutcome<P::Output>, ExploreError>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    type Slot<O> = Mutex<Option<Result<WalkOutcome<O>, Interrupt>>>;
    let threads = threads.max(1);
    // Autosave is a single-threaded feature (see [`Autosave`]); a
    // multi-walker run silently degrades to suspension-only
    // checkpointing rather than risking a non-descendant-closed image.
    let autosave = autosave.filter(|_| threads == 1);
    let result_slot: Slot<P::Output> = Mutex::new(None);
    // Handed to worker 0 through a mutex so the closure only needs the
    // steppers to be `Send`, not `Sync`.
    let root_handoff = Mutex::new(Some(roots));

    run_on_workers(threads, |worker| {
        if worker == 0 {
            // Primary walker: canonical walk of every root, in order, on
            // the calling thread.  Close the queue however we exit
            // (including by panic), so stealers never block forever.
            let _closer = QueueCloser(&shared.queue);
            let roots = root_handoff
                .lock()
                .expect("root handoff poisoned")
                .take()
                .expect("roots taken once");
            let mut walker = Walker::new(shared);
            let outcome = drive_primary(&mut walker, roots, budget, started, autosave);
            *result_slot.lock().expect("result slot poisoned") = Some(outcome);
        } else {
            // Stealer: drain donated subtrees into the shared memo,
            // stepping unbounded — suspension is the primary's call; a
            // suspending primary halts stealers through the stop flag
            // exactly like an abort.  A failing walk already recorded
            // its error and signalled the abort at the failure site
            // (`Shared::fail`), so both interrupt flavors are discarded
            // here.
            let mut walker = Walker::new(shared);
            while let Some(job) = shared.queue.pop_wait() {
                let mut stepped = StepWalker::new(&mut walker, vec![job]);
                loop {
                    match stepped.step(&mut Unbounded) {
                        Ok(step) if step.status == StepStatus::Done => break,
                        Ok(_) => {}
                        Err(Interrupt::Stopped) | Err(Interrupt::Failed(_)) => break,
                    }
                }
            }
        }
    });

    match result_slot
        .into_inner()
        .expect("result slot poisoned")
        .expect("primary walker always reports")
    {
        Ok(outcome) => Ok(outcome),
        Err(Interrupt::Failed(error)) => Err(error),
        Err(Interrupt::Stopped) => {
            // The primary walker only observes a stop signal when a
            // stealer recorded a failure first.
            Err(shared
                .failure
                .lock()
                .expect("failure slot poisoned")
                .clone()
                .expect("stop without failure"))
        }
    }
}

/// The primary driver loop: steps the walk under a [`BudgetArbiter`],
/// yielding cooperatively and honoring refusals only after fresh
/// progress (the min-progress guarantee — resuming at `max_steps = 0`
/// still memoizes at least one new configuration per session, so a
/// resume chain terminates in at most `distinct_states` sessions).
fn drive_primary<P>(
    walker: &mut Walker<'_, '_, P>,
    roots: Vec<Stepper<P>>,
    budget: &WalkBudget,
    started: Instant,
    autosave: Option<Autosave<'_>>,
) -> Result<WalkOutcome<P::Output>, Interrupt>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let shared = walker.shared;
    // Fresh-progress baseline: everything memoized before this walk
    // (cache seeds, checkpoint imports, earlier phases) doesn't count.
    let baseline = shared.memo.len();
    // Autosave parks at `Yield` verdicts, so an autosaving walk with no
    // explicit yield cadence gets one derived from its save interval.
    let mut effective = budget.clone();
    if let Some(save) = &autosave {
        if effective.yield_every.is_none() {
            effective.yield_every = Some(save.every);
        }
    }
    let mut arbiter = BudgetArbiter::from_start(effective, started);
    let mut stepped = StepWalker::new(walker, roots);
    let mut last_saved = 0u64;
    loop {
        let step = stepped.step(&mut arbiter)?;
        match step.status {
            StepStatus::Running => {}
            StepStatus::Done => return Ok(WalkOutcome::Done(stepped.into_summaries())),
            StepStatus::Yielded => {
                if let Some(save) = &autosave {
                    if step.steps - last_saved >= save.every && step.distinct_states > baseline {
                        checkpoint::write_checkpoint(
                            save.config,
                            save.fingerprint,
                            shared.plan.strength(),
                            BudgetKind::Autosave,
                            &shared.memo,
                        );
                        last_saved = step.steps;
                    }
                }
                std::thread::yield_now()
            }
            StepStatus::Refused(reason) => {
                if step.distinct_states > baseline {
                    // Halt stealers mid-subtree (their completed inserts
                    // are closed; partial frames are discarded) and
                    // report the suspension once they join.
                    shared.halt();
                    return Ok(WalkOutcome::Suspended { reason });
                }
                // No fresh state memoized yet this session: honoring the
                // refusal now would make resume a no-op loop.  Keep
                // stepping until the walk has something to show.
            }
        }
    }
}

/// A subtree root addressed by its *action-index path* from the true
/// initial configuration — the wire form of the elastic frontier.
/// Canonical keys are not invertible (symmetry canonicalization is
/// lossy), so the only faithful way to ship "this exact configuration"
/// between processes is the deterministic action sequence reaching it:
/// index `i` selects row `i` of the configuration's open round at each
/// level.
pub(crate) struct PathedRoot<P>
where
    P: CheckableProtocol,
    P::Output: Hash,
{
    /// `stable_hash64` of the configuration's canonical key.
    pub(crate) hash: u64,
    /// Action indices from the initial configuration to this root.
    pub(crate) path: Vec<u32>,
    /// The reconstructed configuration itself.
    pub(crate) stepper: Stepper<P>,
}

/// One progress observation from [`drive_elastic`], emitted every
/// `yield_every` steps.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ElasticPulse {
    /// Steps performed across every root so far.
    pub(crate) steps: u64,
    /// Harvestable frontier right now: unexplored immediate children on
    /// the DFS stack plus whole roots not yet entered.
    pub(crate) frontier: usize,
    /// Configurations memoized since the walk began (excludes seeds).
    pub(crate) fresh: usize,
}

/// The observer's answer to an [`ElasticPulse`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ElasticVerdict {
    /// Keep walking.
    Continue,
    /// Suspend and hand the remaining frontier back (honored only after
    /// fresh progress — the same min-progress guarantee as
    /// [`drive_primary`], so a preempt chain terminates).
    Preempt,
}

/// How a [`drive_elastic`] walk ended.
pub(crate) enum ElasticOutcome {
    /// Every root fully memoized.  No summaries ride back: every elastic
    /// caller re-derives them through the final replay's memo hits.
    Done,
    /// Preempted: the fresh memo image is complete for every *finished*
    /// subtree, and `frontier` holds the `(hash, path)` of every
    /// not-yet-explored subtree root — harvested unexplored children of
    /// the suspended stack plus the untouched remaining roots.
    /// Partially-explored interior configurations are abandoned; the
    /// final replay recomputes them through memo hits.
    Preempted {
        /// `(canonical-key hash, action-index path)` per remaining root.
        frontier: Vec<(u64, Vec<u32>)>,
    },
}

/// The elastic driver: walks `roots` one at a time (single-threaded),
/// calling `observe` every `yield_every` steps with the current load
/// estimate, and on [`ElasticVerdict::Preempt`] suspends the walk and
/// returns the remaining frontier as `(hash, path)` records.  See the
/// *Elastic distribution* section of the module docs.
pub(crate) fn drive_elastic<P>(
    walker: &mut Walker<'_, '_, P>,
    roots: Vec<PathedRoot<P>>,
    yield_every: u64,
    mut observe: impl FnMut(&ElasticPulse) -> ElasticVerdict,
) -> Result<ElasticOutcome, Interrupt>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let baseline = walker.shared.memo.len();
    // The pulse cadence is the arbiter's yield cadence, over the steps
    // of every root: each root's walk carries the count on.
    let mut arbiter = BudgetArbiter::new(WalkBudget {
        yield_every: Some(yield_every.max(1)),
        ..WalkBudget::unlimited()
    });
    let mut queue: std::collections::VecDeque<PathedRoot<P>> = roots.into();
    let mut steps = 0u64;
    while let Some(root) = queue.pop_front() {
        let path = root.path;
        let mut stepped = StepWalker::new(walker, vec![root.stepper]);
        stepped.steps = steps;
        loop {
            let step = stepped.step(&mut arbiter)?;
            steps = step.steps;
            match step.status {
                StepStatus::Done => break,
                StepStatus::Yielded => {}
                StepStatus::Running | StepStatus::Refused(_) => continue,
            }
            let fresh = step.distinct_states.saturating_sub(baseline);
            let pulse = ElasticPulse {
                steps,
                frontier: stepped.harvestable() + queue.len(),
                fresh,
            };
            if observe(&pulse) == ElasticVerdict::Preempt && fresh > 0 {
                let mut frontier = Vec::new();
                stepped.harvest_into(&path, &mut frontier)?;
                frontier.extend(queue.into_iter().map(|r| (r.hash, r.path)));
                return Ok(ElasticOutcome::Preempted { frontier });
            }
        }
    }
    Ok(ElasticOutcome::Done)
}

/// Post-processing over a completed walk (single-threaded): the
/// bivalency census over every memoized configuration, plus witness
/// reconstruction when the root summary violates.
pub(crate) fn build_report<P>(
    shared: &Shared<'_, P>,
    root: Arc<Summary<P::Output>>,
) -> Result<ExploreReport<P::Output>, ExploreError>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let mut by_round: HashMap<u32, (usize, usize)> = HashMap::new();
    shared.memo.for_each(|key, summary| {
        // The round is the key encoding's leading field — read it off
        // the bytes, no decode.
        let slot = by_round.entry(key_round(key)).or_insert((0, 0));
        slot.0 += 1;
        if summary.is_bivalent() {
            slot.1 += 1;
        }
    })?;
    let mut bivalency_by_round: Vec<(u32, usize, usize)> =
        by_round.into_iter().map(|(r, (c, b))| (r, c, b)).collect();
    bivalency_by_round.sort_unstable();

    let witness = if root.violating {
        let mut walker = Walker::new(shared);
        Some(walker.reconstruct_witness()?)
    } else {
        None
    };

    let distinct_states = shared.memo.len();
    let cache_hits = shared.memo.seeded_len();
    Ok(ExploreReport {
        distinct_states,
        cache_hits,
        fresh_states: distinct_states - cache_hits,
        root: (*root).clone(),
        bivalency_by_round,
        witness,
    })
}

/// Guard closing the work queue when the primary walker exits its scope,
/// normally or by unwind.
struct QueueCloser<'a, T>(&'a WorkQueue<T>);

impl<T> Drop for QueueCloser<'_, T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

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
/// pre-seed [`Self::memo`] before calling [`walk_roots`].
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
    /// The run's resolved symmetry plan ([`Symmetry::plan`]) — computed
    /// once here so the per-visit key path never re-derives type-level
    /// facts or re-checks value-symmetry applicability.
    pub(crate) plan: SymmetryPlan,
    pub(crate) memo: ShardedMemo<P::Output>,
    queue: WorkQueue<Stepper<P>>,
    stop: AtomicBool,
    failure: Mutex<Option<ExploreError>>,
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
    fn halt(&self) {
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
    shared: &'s Shared<'a, P>,
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
    stepper_pool: Vec<Stepper<P>>,
    /// Retired open rounds ([`RoundKeys`]), re-aimed at future
    /// configurations so their send-phase copy, outcome lists, odometer,
    /// record arena, (slot, outcome) and class tables are reused.
    round_pool: Vec<RoundKeys<P>>,
    /// Terminal evaluation: its scratch, and the distinct summaries it
    /// has produced.
    terminals: Terminals<P::Output>,
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
    /// Reusable buffer of a plan's data destinations still active —
    /// deliveries to settled processes are effect-free, so the adversary
    /// enumeration quotients them out (`crash_outcomes_effective_into`).
    live_dests_buf: Vec<ProcessId>,
    /// Reusable buffer of the 1-based control-message counts `k` whose
    /// `k`-th receiver is still active (same effect quotient).
    live_ks_buf: Vec<usize>,
}

/// Terminal evaluation with everything it reuses.  A walk is mostly
/// leaves — 38 597 of the 47 789 configurations of CRW `(8, 7)` — and
/// they end in very few ways: a terminal's summary is its crash count,
/// its last decision round, the values decided and one flag, 64 distinct
/// ones over that whole walk.  So a terminal is evaluated into one
/// scratch summary, rewritten in place, and memoized under the `Arc` of
/// the first terminal that ended the same way: a repeated outcome
/// allocates nothing, and a later memo hit on any of those leaves touches
/// a summary that is already in cache.  The table has no capacity and no
/// eviction — crash counts × decision rounds × valencies bound it.
struct Terminals<O> {
    /// Reusable pseudo-schedule: who crashed, all the spec check asks.
    schedule: CrashSchedule,
    /// The terminal last [`evaluate`](Self::evaluate)d: its summary and
    /// how many of its processes crashed.
    summary: Summary<O>,
    crashed: usize,
    /// The distinct summaries [`interned`](Self::interned) so far, by
    /// crash count.
    distinct: Vec<Vec<Arc<Summary<O>>>>,
}

impl<O: Clone + Eq + std::fmt::Debug> Terminals<O> {
    fn new(system: SystemConfig) -> Self {
        Terminals {
            schedule: CrashSchedule::none(system.n()),
            summary: Summary::empty(system.t()),
            crashed: 0,
            distinct: vec![Vec::new(); system.t() + 1],
        }
    }

    /// Evaluates the terminal configuration whose processes stand with
    /// `status` and `decisions` — of a [`Stepper`], or read off the
    /// records of a row ([`RoundKeys::cursor_terminal`]): settled records
    /// are final, so they are all a terminal ever was to the checker.
    /// Leaves its real-space summary in `self.summary` and returns the
    /// spec report behind the summary's `violating`.
    fn evaluate(
        &mut self,
        config: &ExploreConfig,
        proposals: &[O],
        status: &[ProcStatus],
        decisions: &[Option<Decision<O>>],
    ) -> SpecReport<O> {
        self.schedule.reset();
        self.crashed = 0;
        for (i, status) in status.iter().enumerate() {
            if let ProcStatus::Crashed(round) = status {
                self.crashed += 1;
                // Stage is irrelevant to the spec check; only the correct
                // set and rounds matter.
                self.schedule.set(
                    ProcessId::from_idx(i),
                    Some(CrashPoint::new(*round, CrashStage::BeforeSend)),
                );
            }
        }

        let bound = config.round_bound.map(|rb| rb.bound(self.crashed));
        let mut report = check_uniform_consensus(proposals, decisions, &self.schedule, bound);
        if config.spec == SpecMode::NonUniform {
            report
                .violations
                .retain(|v| !matches!(v, SpecViolation::UniformAgreement { .. }));
        }

        let summary = &mut self.summary;
        summary.terminals = 1;
        summary.worst_round_by_f.fill(None);
        summary.worst_round_by_f[self.crashed] =
            decisions.iter().flatten().map(|d| d.round.get()).max();
        summary.decided.clear();
        for d in decisions.iter().flatten() {
            if !summary.decided.contains(&d.value) {
                summary.decided.push(d.value.clone());
            }
        }
        summary.violating = !report.ok();
        report
    }

    /// The shared `Arc` of `self.summary` — as it stands, which is in
    /// canonical space once the caller has taken it there.
    fn interned(&mut self) -> Arc<Summary<O>> {
        let met = &mut self.distinct[self.crashed];
        if let Some(same) = met.iter().find(|same| ***same == self.summary) {
            return Arc::clone(same);
        }
        let fresh = Arc::new(self.summary.clone());
        met.push(Arc::clone(&fresh));
        fresh
    }
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
    next_action: usize,
    /// Where the child the frame is waiting for — the one it forked,
    /// stepped and expanded for `next_action - 1`, now the frame above it
    /// — will be recorded when its summary comes back.
    awaiting: Option<ChildClass>,
    acc: Summary<P::Output>,
    /// Whether the value-swapped encoding won this configuration's key
    /// (value-symmetry tier): the accumulated summary is in *real*
    /// space, so the memo insert maps it through the involution first.
    value_swapped: bool,
    /// This configuration's open round: its one send phase, the
    /// odometer over its adversary moves, and the records and classes
    /// its children are keyed from.
    round: RoundKeys<P>,
}

/// Where a keyed child's summary is recorded once its frame absorbs it:
/// its successor class, and under a canonicalizing plan its orbit class.
#[derive(Clone, Copy, Debug)]
struct ChildClass {
    class: usize,
    orbit: Option<usize>,
}

impl<P> Frame<P>
where
    P: CheckableProtocol,
    P::Output: Hash,
{
    /// Absorbs the summary of a child met for the first time — `child`
    /// its classes, if the round is keyed — and records it for both.
    /// The one place a class or an orbit gets its summary, so that one
    /// that has a summary has been absorbed: what is left of a later row
    /// that repeats the class is its terminal count ([`Summary::absorb`]
    /// adds `terminals` and is idempotent in everything else), and a
    /// later row of the orbit is absorbed without asking the memo.
    fn absorb(&mut self, child: Option<ChildClass>, summary: Arc<Summary<P::Output>>) {
        self.acc.absorb(&summary);
        let Some(child) = child else { return };
        if let (Some(orbit), Some(orbits)) = (child.orbit, &mut self.round.orbits) {
            // An orbit that answered the row itself keeps what it has.
            orbits.table.summaries[orbit].get_or_insert_with(|| Arc::clone(&summary));
        }
        self.round.classes.summaries[child.class] = Some(summary);
    }

    /// [`absorb`](Self::absorb)s the summary of the child the frame was
    /// waiting for.
    fn absorb_awaited(&mut self, summary: Arc<Summary<P::Output>>) {
        let child = self.awaiting.take();
        self.absorb(child, summary);
    }
}

/// One configuration's **open round** — what key-first successor
/// generation (module docs) works from.  It holds the configuration's
/// send phase, executed once ([`SentRound`]); the adversary's options for
/// the round as a *product* — the crash stages open to each active
/// process — and an **odometer** over its moves: the row of outcome
/// indices the cursor stands on and a table of suffix counts, from which
/// the number of rows is a closed form, the next row is found in place
/// and any row is unranked from its index, so no row is stored; the raw
/// key record of every (process, view) pair settled so far, interned by
/// content; and the successor classes met so far.  Almost every child is
/// a repeat of a class its frame has already absorbed, and costs a table
/// lookup and an addition; a child that is the first of its class is
/// keyed by `memcpy` from the records, and if the memo does not hold it
/// and its records are all settled, evaluated from what they keep of
/// each process — none of these ever exists as a [`Stepper`].  Under a
/// canonicalizing plan the round also has an
/// **orbit level** ([`Orbits`]): the first row of a class is resolved to
/// the orbit of its child before any key exists, and keyed canonically
/// from the records if the frame has not absorbed that orbit.
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
    /// settled to.  Records are interned per slot: different views of one
    /// process often settle to the same bytes (a process that hears its
    /// own estimate, or dies at the end of the round undecided whatever
    /// it heard), and equal bytes get equal ids.
    known: Vec<Vec<(RoundView, u32)>>,
    /// The slots whose process sends, as a mask.  A row reaches a slot
    /// through the slot's own outcome and these slots' outcomes only.
    sender_slots: u64,
    /// While the senders stand still, a slot's record id is a function
    /// of its own outcome index: entry `first_entry[slot] + outcome` is
    /// `(stamp, id)`, good while `stamp == epoch` — the epoch moves on
    /// whenever a sender slot does, and a stale entry is refilled from
    /// the slot's view.
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

/// The decision one process of a configuration stands with, if it took
/// one.
type ChildDecision<P> = Option<Decision<<P as SyncProtocol>::Output>>;

/// The **orbit level** of an open round, kept under a canonicalizing
/// plan only.  Two things.  Per interned record, the **forms** the tier
/// encoder ([`tier_key_into`]) may ask of that process in the child —
/// written once when the record is interned, so that the canonical key
/// of a child nothing has stepped is assembled by copying them
/// ([`CursorRow`]).  And the **orbit classes** the frame's rows have met:
/// a second [`ClassTable`], consulted for the first row of a successor
/// class only, keyed on the row's *orbit vector* — per slot, the record
/// id where the encoder leaves the child's process in place, and in the
/// slots it pools the **content ids** of the pooled records, sorted.
/// Content ids intern the pooled forms by their plain bytes across the
/// whole frame (record ids are per slot), so equal vectors are equal
/// in-place records at equal slots and equal multisets of pooled
/// records: equal plain *and* equal value-swapped canonical bytes, hence
/// the same memo entry read through the same orientation.  A row whose
/// orbit the frame has absorbed is therefore answered with the orbit's
/// real-space summary — what the memo probe it skips would return.
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
            forms.whole[1] = appended(records, |out| {
                out.push(0);
                swapped.encode(out);
            });
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
struct CursorRow<'r, P: CheckableProtocol> {
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

/// A frame's **successor classes**: the distinct record-id vectors its
/// rows have produced, each — once the frame has absorbed it — with the
/// real-space summary of the child they all lead to.  Equal id vectors
/// are equal record bytes process by process, hence equal raw keys,
/// hence one child; so a row that repeats a class repeats its answer,
/// and nothing is assembled, hashed or probed for it.  Open addressing,
/// entries verified by comparing ids; the index starts small and doubles
/// when the classes met fill half of it, so it is sized by classes, not
/// by rows (13 % of them at `(8, 7)`).  A round's orbit level ([`Orbits`])
/// keeps a second one, keyed on orbit vectors.
struct ClassTable<O> {
    /// Class number + 1 per bucket, `0` for an empty one; a power of two
    /// long.
    index: Vec<u32>,
    /// Class `c`'s record ids: `ids[c * stride..][..stride]`.
    ids: Vec<u32>,
    stride: usize,
    /// A class's summary, from the moment its frame absorbed it — which
    /// [`Frame::absorb`] alone records, so "has a summary" *is* "was
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

    /// Resolves row `idx` to its successor class: one interned record id
    /// per slot → class number.  The cursor moves to `idx` — one step of
    /// the odometer when the rows arrive in enumeration order, which
    /// varies the last slots fastest, so the ids of the leading slots
    /// stand; an unranking otherwise.  A slot's id is read off the
    /// (slot, outcome) table; an entry that is not good is refilled
    /// through the slot's view, and a (process, view) pair met for the
    /// first time is settled by the engine — the real `receive` on a
    /// copy of the post-send state — and its record kept.  `None` for a
    /// round the engine did not tabulate; the caller steps the row
    /// instead.
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

    /// Assembles into `key` the raw key ([`make_key_into`] layout) of the
    /// class last [`classify`](Self::classify)d: round and process count,
    /// then one record per process — its slot's for an active one, its
    /// fixed one otherwise.
    fn class_key_into(&self, key: &mut Vec<u8>) {
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
    fn cursor_terminal(&mut self, max_rounds: u32) -> Option<(&[ProcStatus], &[ChildDecision<P>])> {
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
    fn cursor_row(&mut self) -> CursorRow<'_, P> {
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
    /// are the row's flags ([`flag_in_place`] of its
    /// [`cursor_row`](Self::cursor_row)).
    fn orbit_class(&mut self, in_place: &[bool]) -> (usize, Option<Arc<Summary<P::Output>>>) {
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
/// [`step`](Self::step) call, driver owns the loop (module docs,
/// *Frame-stepped core*).  Borrows a [`Walker`] so its scratch pools
/// survive across jobs — a stealer reuses one walker for every donated
/// subtree it drives.
///
/// A *step* is exactly one iteration of the historical owned loop: the
/// entry of the next configuration (memo probe / terminal evaluation /
/// frame push, child or next root) or the pop of a completed frame
/// (memoizing insert).  Step order is therefore identical to the owned
/// loop's — bit-identity of the final report is structural.  A call
/// takes one step or more: steps that only add a terminal count to their
/// frame (rows that repeat a successor class it has absorbed) are taken
/// in the same call as the step that follows them, as far as the
/// arbiter's [`headroom`](Arbiter::headroom) reaches, each counted.
pub(crate) struct StepWalker<'w, 's, 'a, P>
where
    P: CheckableProtocol,
    P::Output: Hash,
{
    walker: &'w mut Walker<'s, 'a, P>,
    stack: Vec<Frame<P>>,
    /// Roots not yet entered; the next one starts when the stack drains.
    roots: std::vec::IntoIter<Stepper<P>>,
    /// Completed roots' summaries, in root order.
    summaries: Vec<Arc<Summary<P::Output>>>,
    steps: u64,
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
        let progress = |steps: u64, frontier_len: usize| StepProgress {
            steps,
            frontier_len,
            distinct_states: shared.memo.len(),
            memo_bytes: shared.memo.approx_bytes(),
        };
        let mut expanded = false;
        // Steps the arbiter lets this call take in silence; asked at the
        // first row that could use one.
        let mut headroom = None;
        loop {
            let depth = self.stack.len();
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
                    let silent = headroom
                        .get_or_insert_with(|| arbiter.headroom(&progress(self.steps, depth)));
                    if *silent > 0 {
                        // This row is taken in silence, and so is the rest
                        // of its run, without leaving the frame.
                        let taken = 1 + self.walker.absorb_repeats(frame, *silent - 1)?;
                        *silent -= taken;
                        self.steps += taken;
                        continue;
                    }
                }
                Probed::Answered(child, summary) => frame.absorb(Some(child), summary),
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
                        frame.absorb(Some(child.class), summary);
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
                            frame.absorb(None, summary);
                        }
                        Entered::Expanded => expanded = true,
                    }
                }
            }
            break;
        }
        self.steps += 1;

        let frontier_len = self.stack.len();
        let progress = progress(self.steps, frontier_len);
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
    /// DFS stack — an upper bound on what [`Self::harvest_into`] emits
    /// (harvest additionally skips children already memoized).
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
    /// child is built.  `prefix` is the current root's
    /// own path; a child of frame `j` extends it with the actions chosen
    /// into frames `1..=j` plus the child's own index.
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
        for (level, frame) in self.stack.iter_mut().enumerate() {
            // Interior frames (those with a frame above) necessarily
            // advanced `next_action` to push that child; only the top
            // frame may sit just-entered at `next_action == 0`.
            debug_assert!(
                level + 1 == depth || frame.next_action > 0,
                "interior frames were entered through an action"
            );
            for idx in frame.next_action..frame.round.len() {
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
            live_dests_buf: Vec::new(),
            live_ks_buf: Vec::new(),
        }
    }

    /// Returns a completed frame's buffers to the walker's pools so the
    /// next expansion reuses their allocations.
    fn recycle(&mut self, key: Vec<u8>, round: RoundKeys<P>) {
        self.key_pool.push(key);
        self.close_round(round);
    }

    /// Opens `stepper`'s next round on a pooled [`RoundKeys`]: runs its
    /// send phase once, lists the crash outcomes open to each active
    /// process against the plans it produced, has the engine tabulate
    /// them, and counts the adversary moves within the crash budget —
    /// index rows the round's odometer steps through and unranks, the
    /// no-crash move first, then the canonical order that makes reports
    /// deterministic.  Fails where stepping any child would have failed
    /// (the send phase does not look at the adversary).
    pub(crate) fn open_round(&mut self, stepper: &Stepper<P>) -> Result<RoundKeys<P>, SimError> {
        let mut round = match self.round_pool.pop() {
            Some(mut round) => {
                round.sent.reset(stepper)?;
                round
            }
            None => RoundKeys {
                sent: SentRound::new(stepper)?,
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
                orbits: (self.shared.plan.tier != CanonTier::Raw)
                    .then(|| Box::new(Orbits::new(self.shared.plan))),
            },
        };
        let n = self.shared.system.n();
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
            self.live_dests_buf.clear();
            self.live_dests_buf.extend(
                plan.data
                    .iter()
                    .map(|(dst, _)| *dst)
                    .filter(|p| matches!(status[p.idx()], ProcStatus::Active)),
            );
            self.live_ks_buf.clear();
            self.live_ks_buf.extend(
                plan.control
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| matches!(status[p.idx()], ProcStatus::Active))
                    .map(|(k0, _)| k0 + 1),
            );
            crash_outcomes_effective_into(
                n,
                &self.live_dests_buf,
                !plan.data.is_empty(),
                &self.live_ks_buf,
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
        let budget = self
            .shared
            .config
            .max_crashes_per_round
            .unwrap_or(usize::MAX)
            .min(self.shared.system.t() - crashed_so_far);
        round.count_rows(budget);
        round.start_tables();
        Ok(round)
    }

    /// Returns an open round's buffers to the pool.
    pub(crate) fn close_round(&mut self, round: RoundKeys<P>) {
        self.round_pool.push(round);
    }

    /// The key-first probe: `frame`'s child under row `idx`, answered
    /// without the child.  A row that repeats a successor class its
    /// frame has absorbed is answered by the class table, with the one
    /// number that is left to add.  The first row of a class is, under a
    /// canonicalizing plan, resolved to its orbit class first — an orbit
    /// the frame has absorbed answers it with the summary absorbed then,
    /// and no key is assembled; otherwise the plan's key of the child is
    /// assembled from the row's records ([`cursor_key`](Self::cursor_key))
    /// and taken to the memo; a miss comes back with that key's hash and
    /// orientation, its bytes left in `key_scratch` for whoever makes
    /// the child a state.  Nothing is recorded here: the caller that
    /// absorbs an answer records it for the class and the orbit
    /// ([`Frame::absorb`]), as it does for a child nothing answered for
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
        if let Some(summary) = &frame.round.classes.summaries[class] {
            let terminals = summary.terminals;
            debug_assert!(
                self.skipped_probe(frame, idx).as_deref()
                    == frame.round.classes.summaries[class].as_deref(),
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
    /// discovery order (the module docs' normal-form argument; `Off` and
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
            let Some(summary) = &frame.round.classes.summaries[class] else {
                break;
            };
            terminals += summary.terminals;
            debug_assert!(
                self.skipped_probe(frame, idx).as_deref()
                    == frame.round.classes.summaries[class].as_deref(),
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

    /// Walks one violating path through the completed memo, rebuilding its
    /// crash schedule and the terminal's violations.  Only called when the
    /// root summary is violating, in which case a violating child exists
    /// at every level; works against the sharded memo because the whole
    /// violating subtree is memoized by then.
    fn reconstruct_witness(&mut self) -> Result<Witness<P::Output>, ExploreError> {
        // Re-drive real executions from the true initial configuration
        // (kept in `Shared` — under symmetry reduction the memoized
        // round-1 key may be a canonical representative, so it must not
        // be decoded back into processes), choosing at each level the
        // first child whose memoized summary violates.
        let initial: Vec<P> = self.shared.initial.clone();

        let mut stepper = Stepper::new(
            self.shared.system,
            self.shared.config.model,
            TraceLevel::Off,
            initial,
        )
        .map_err(ExploreError::Engine)?;
        let mut schedule = CrashSchedule::none(self.shared.system.n());

        loop {
            if self.is_terminal(&stepper) {
                let (config, proposals) = (&self.shared.config, self.shared.proposals);
                let (status, decisions) = (stepper.status(), stepper.decisions());
                let report = (self.terminals).evaluate(config, proposals, status, decisions);
                debug_assert!(self.terminals.summary.violating);
                return Ok(Witness {
                    schedule,
                    violations: report.violations,
                    decisions: decisions.to_vec(),
                });
            }

            let round = stepper.round();
            let mut advanced = false;
            let open = self.open_round(&stepper).map_err(ExploreError::Engine)?;
            for idx in 0..open.len() {
                open.actions_into(idx, &mut self.row_buf);
                let mut child = stepper.clone();
                child.step(&self.row_buf).map_err(ExploreError::Engine)?;
                let (hash, _) = self.canonical_key(&child);
                let violating = self
                    .shared
                    .memo
                    .get(hash, &self.key_scratch)?
                    .map(|s| s.violating)
                    .unwrap_or(false);
                if violating {
                    for (i, a) in self.row_buf.iter().enumerate() {
                        if let Some(stage) = a {
                            schedule.set(
                                ProcessId::from_idx(i),
                                Some(CrashPoint::new(round, stage.clone())),
                            );
                        }
                    }
                    stepper = child;
                    advanced = true;
                    break;
                }
            }
            self.close_round(open);
            assert!(
                advanced,
                "violating summary without violating child — memo inconsistency"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twostep_model::{BitSized, Round};
    use twostep_sim::{Inbox, SendPlan, Step};

    /// A deliberately broken "consensus": everyone decides its own proposal
    /// in round 1.  Uniform agreement must be violated whenever two
    /// proposals differ, and the explorer must find a witness.
    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    struct DecideOwn {
        v: u64,
    }

    impl SyncProtocol for DecideOwn {
        type Msg = u64;
        type Output = u64;
        fn send(&mut self, _round: Round) -> SendPlan<u64, u64> {
            SendPlan::quiet()
        }
        fn receive(&mut self, _round: Round, _inbox: &Inbox<u64>) -> Step<u64> {
            Step::Decide(self.v)
        }
    }

    impl SpillCodec for DecideOwn {
        fn encode(&self, out: &mut Vec<u8>) {
            self.v.encode(out);
        }
        fn decode(input: &mut &[u8]) -> Option<Self> {
            Some(DecideOwn {
                v: u64::decode(input)?,
            })
        }
        // Quiet and rank-oblivious: sends nothing, embeds no pid — the
        // full-orbit quotient is sound.
        fn pid_symmetric() -> bool {
            true
        }
    }

    /// A protocol that never decides — termination must be flagged.
    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    struct NeverDecide;

    impl SyncProtocol for NeverDecide {
        type Msg = u64;
        type Output = u64;
        fn send(&mut self, _round: Round) -> SendPlan<u64, u64> {
            SendPlan::quiet()
        }
        fn receive(&mut self, _round: Round, _inbox: &Inbox<u64>) -> Step<u64> {
            Step::Continue
        }
    }

    impl SpillCodec for NeverDecide {
        fn encode(&self, _out: &mut Vec<u8>) {}
        fn decode(_input: &mut &[u8]) -> Option<Self> {
            Some(NeverDecide)
        }
        fn pid_symmetric() -> bool {
            true
        }
    }

    /// A small but non-trivial broadcaster: rank 1 floods its value with
    /// commits for two rounds; others adopt and echo.  Gives the explorer
    /// a real branching space for the parallel-equivalence tests.
    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    struct Flooder {
        me: u32,
        n: usize,
        est: u64,
    }

    impl SyncProtocol for Flooder {
        type Msg = u64;
        type Output = u64;
        fn send(&mut self, round: Round) -> SendPlan<u64, u64> {
            let mut plan = SendPlan::quiet();
            if round.get() <= 2 {
                for r in 1..=self.n as u32 {
                    if r != self.me {
                        plan = plan.with_data(ProcessId::new(r), self.est);
                    }
                }
                if self.me == 1 {
                    for r in (2..=self.n as u32).rev() {
                        plan = plan.with_control(ProcessId::new(r));
                    }
                }
            }
            plan
        }
        fn receive(&mut self, round: Round, inbox: &Inbox<u64>) -> Step<u64> {
            if let Some(v) = inbox.data_from(ProcessId::new(1)) {
                self.est = *v;
            }
            if round.get() >= 2 {
                Step::Decide(self.est)
            } else {
                Step::Continue
            }
        }
    }

    impl SpillCodec for Flooder {
        fn encode(&self, out: &mut Vec<u8>) {
            self.me.encode(out);
            self.n.encode(out);
            self.est.encode(out);
        }
        fn decode(input: &mut &[u8]) -> Option<Self> {
            Some(Flooder {
                me: u32::decode(input)?,
                n: usize::decode(input)?,
                est: u64::decode(input)?,
            })
        }
    }

    const _: () = {
        // Compile-time check that u64 message payloads satisfy BitSized.
        fn assert_bitsized<T: BitSized>() {}
        fn probe() {
            assert_bitsized::<u64>();
        }
        let _ = probe;
    };

    fn options(max_rounds: u32, max_states: usize) -> ExploreConfig {
        ExploreConfig {
            model: ModelKind::Extended,
            max_rounds,
            max_states,
            round_bound: None,
            max_crashes_per_round: None,
            spec: SpecMode::Uniform,
            symmetry: Symmetry::Off,
        }
    }

    /// Every adversary move of `stepper`'s next round as an action
    /// vector, in enumeration order — a cold collector for tests that
    /// drive configurations by hand.
    fn action_sets_of<P>(walker: &mut Walker<'_, '_, P>, stepper: &Stepper<P>) -> Vec<RoundActions>
    where
        P: CheckableProtocol,
        P::Output: Hash + SpillCodec,
    {
        let round = walker.open_round(stepper).unwrap();
        let rows = (0..round.len())
            .map(|idx| {
                let mut actions = RoundActions::new();
                round.actions_into(idx, &mut actions);
                actions
            })
            .collect();
        walker.close_round(round);
        rows
    }

    #[test]
    fn round_bounds_evaluate() {
        assert_eq!(RoundBound::FPlus(1).bound(3), 4);
        assert_eq!(RoundBound::ClassicEarly { t: 3 }.bound(1), 3);
        assert_eq!(RoundBound::ClassicEarly { t: 3 }.bound(3), 4, "capped");
        assert_eq!(RoundBound::Fixed(5).bound(0), 5);
    }

    #[test]
    fn finds_agreement_violation_with_witness() {
        let system = SystemConfig::new(2, 1).unwrap();
        let report = explore(
            system,
            options(2, 100_000),
            vec![DecideOwn { v: 0 }, DecideOwn { v: 1 }],
            vec![0u64, 1],
        )
        .unwrap();
        assert!(report.root.violating);
        assert!(
            report.root.is_bivalent(),
            "both values get decided somewhere"
        );
        let witness = report.witness.expect("witness reconstructed");
        assert!(witness
            .violations
            .iter()
            .any(|v| matches!(v, SpecViolation::UniformAgreement { .. })));
    }

    #[test]
    fn flags_non_termination_at_round_cap() {
        let system = SystemConfig::new(2, 0).unwrap();
        let report = explore(
            system,
            options(3, 10_000),
            vec![NeverDecide, NeverDecide],
            vec![0u64, 0],
        )
        .unwrap();
        assert!(report.root.violating, "termination violation expected");
        assert_eq!(report.root.terminals, 1, "t = 0 ⇒ single execution");
    }

    #[test]
    fn state_budget_is_enforced() {
        let system = SystemConfig::new(3, 2).unwrap();
        let err = explore(
            system,
            options(4, 3),
            vec![DecideOwn { v: 0 }, DecideOwn { v: 0 }, DecideOwn { v: 0 }],
            vec![0u64, 0, 0],
        )
        .unwrap_err();
        assert_eq!(err, ExploreError::StateLimit { budget: 3 });
    }

    #[test]
    fn state_budget_is_enforced_in_parallel_too() {
        let system = SystemConfig::new(3, 2).unwrap();
        let err = explore_with(
            system,
            options(4, 3),
            ExploreOptions::with_threads(4),
            vec![DecideOwn { v: 0 }, DecideOwn { v: 0 }, DecideOwn { v: 0 }],
            vec![0u64, 0, 0],
        )
        .unwrap_err();
        assert_eq!(err, ExploreError::StateLimit { budget: 3 });
    }

    #[test]
    fn agreeing_decide_own_is_clean() {
        // If everyone proposes the same value, DecideOwn is "correct":
        // no violation, univalent, decisions in round 1.
        let system = SystemConfig::new(3, 1).unwrap();
        let config = ExploreConfig {
            round_bound: Some(RoundBound::Fixed(1)),
            ..options(2, 100_000)
        };
        let report = explore(
            system,
            config,
            vec![DecideOwn { v: 7 }, DecideOwn { v: 7 }, DecideOwn { v: 7 }],
            vec![7u64, 7, 7],
        )
        .unwrap();
        assert!(!report.root.violating);
        assert_eq!(report.root.decided, vec![7]);
        assert!(!report.root.is_bivalent());
        assert!(report.root.terminals >= 1);
        // Bivalency census exists and no round has bivalent configs.
        assert!(report.bivalency_by_round.iter().all(|(_, _, b)| *b == 0));
    }

    /// Structural equality of full reports — the bit-identical claim.
    fn assert_reports_identical(a: &ExploreReport<u64>, b: &ExploreReport<u64>, label: &str) {
        assert_eq!(a.distinct_states, b.distinct_states, "{label}: states");
        assert_eq!(a.root.terminals, b.root.terminals, "{label}: terminals");
        assert_eq!(
            a.root.worst_round_by_f, b.root.worst_round_by_f,
            "{label}: worst rounds"
        );
        assert_eq!(a.root.decided, b.root.decided, "{label}: valency order");
        assert_eq!(a.root.violating, b.root.violating, "{label}: violating");
        assert_eq!(
            a.bivalency_by_round, b.bivalency_by_round,
            "{label}: census"
        );
    }

    #[test]
    fn parallel_walk_is_bit_identical_to_serial() {
        for (n, t) in [(3usize, 1usize), (3, 2), (4, 2)] {
            let system = SystemConfig::new(n, t).unwrap();
            let procs: Vec<Flooder> = (1..=n as u32)
                .map(|r| Flooder {
                    me: r,
                    n,
                    est: 100 + r as u64,
                })
                .collect();
            let proposals: Vec<u64> = (1..=n as u64).map(|r| 100 + r).collect();
            let serial = explore(
                system,
                options(4, 2_000_000),
                procs.clone(),
                proposals.clone(),
            )
            .unwrap();
            for threads in [2usize, 4, 8] {
                let parallel = explore_with(
                    system,
                    options(4, 2_000_000),
                    ExploreOptions {
                        threads,
                        shards: 8,
                        memo: MemoConfig::all_ram(),
                        donate_depth: None,
                        cache: None,
                        budget: WalkBudget::unlimited(),
                        checkpoint: None,
                    },
                    procs.clone(),
                    proposals.clone(),
                )
                .unwrap();
                assert_reports_identical(
                    &serial,
                    &parallel,
                    &format!("n={n} t={t} threads={threads}"),
                );
            }
        }
    }

    #[test]
    fn parallel_witness_matches_serial() {
        let system = SystemConfig::new(2, 1).unwrap();
        let serial = explore(
            system,
            options(2, 100_000),
            vec![DecideOwn { v: 0 }, DecideOwn { v: 1 }],
            vec![0u64, 1],
        )
        .unwrap();
        let parallel = explore_with(
            system,
            options(2, 100_000),
            ExploreOptions::with_threads(4),
            vec![DecideOwn { v: 0 }, DecideOwn { v: 1 }],
            vec![0u64, 1],
        )
        .unwrap();
        let ws = serial.witness.expect("serial witness");
        let wp = parallel.witness.expect("parallel witness");
        assert_eq!(format!("{:?}", ws.schedule), format!("{:?}", wp.schedule));
        assert_eq!(ws.decisions, wp.decisions);
    }

    #[test]
    fn deep_spaces_do_not_overflow_the_stack() {
        // 64 rounds of a non-deciding protocol: the old recursive engine
        // walked one stack frame per round (fine at 64, fatal at tens of
        // thousands); the iterative engine's depth is heap-bounded.  Use a
        // large round cap with the trivial t = 0 space to make the path
        // long without exploding the state count.
        let system = SystemConfig::new(2, 0).unwrap();
        let report = explore(
            system,
            options(20_000, 50_000),
            vec![NeverDecide, NeverDecide],
            vec![0u64, 0],
        )
        .unwrap();
        assert!(report.root.violating, "never terminates");
        assert_eq!(report.distinct_states, 20_001);
    }

    #[test]
    fn explore_options_defaults_are_sane() {
        assert_eq!(ExploreOptions::serial().threads, 1);
        assert!(ExploreOptions::default().threads >= 1);
        assert!(ExploreOptions::default().shards >= 1);
        assert_eq!(ExploreOptions::with_threads(0).threads, 1);
        assert!(!ExploreOptions::default().memo.spill_enabled());
        assert!(ExploreOptions::default()
            .with_memo(MemoConfig::spill(16))
            .memo
            .spill_enabled());
    }

    fn flooder_procs(n: usize) -> (Vec<Flooder>, Vec<u64>) {
        let procs = (1..=n as u32)
            .map(|r| Flooder {
                me: r,
                n,
                est: 100 + r as u64,
            })
            .collect();
        let proposals = (1..=n as u64).map(|r| 100 + r).collect();
        (procs, proposals)
    }

    /// Regression test for the parallel abort protocol: a `StateLimit`
    /// raised by any walker must set the cancel flag and close the work
    /// queue *before* unwinding, so the whole exploration joins promptly
    /// instead of leaving peers parked in `pop_wait` or churning through
    /// the rest of the space.
    #[test]
    fn state_limit_abort_joins_promptly_at_four_threads() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let system = SystemConfig::new(4, 3).unwrap();
            let (procs, proposals) = flooder_procs(4);
            let result = explore_with(
                system,
                options(4, 10),
                ExploreOptions::with_threads(4),
                procs,
                proposals,
            );
            let _ = tx.send(result);
        });
        let result = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("parallel StateLimit abort must join promptly, not hang");
        assert_eq!(result.unwrap_err(), ExploreError::StateLimit { budget: 10 });
    }

    /// The two-tier memo is invisible to results: spill-vs-RAM reports
    /// are identical at 1 and 4 threads (the broad differential matrix
    /// lives in `tests/spill_differential.rs`).
    #[test]
    fn spill_memo_matches_all_ram_engine() {
        let system = SystemConfig::new(4, 2).unwrap();
        let (procs, proposals) = flooder_procs(4);
        let ram = explore(
            system,
            options(4, 2_000_000),
            procs.clone(),
            proposals.clone(),
        )
        .unwrap();
        for threads in [1usize, 4] {
            let spilled = explore_with(
                system,
                options(4, 2_000_000),
                ExploreOptions {
                    threads,
                    shards: 8,
                    memo: MemoConfig::spill(16),
                    donate_depth: None,
                    cache: None,
                    budget: WalkBudget::unlimited(),
                    checkpoint: None,
                },
                procs.clone(),
                proposals.clone(),
            )
            .unwrap();
            assert_reports_identical(&ram, &spilled, &format!("spill threads={threads}"));
        }
    }

    /// `max_states` stops being a RAM bound: a hot capacity far below the
    /// distinct-state count must still complete (eviction never forgets a
    /// key, so the budget counts distinct configurations as before).
    #[test]
    fn tiny_hot_capacity_completes_without_state_limit() {
        let system = SystemConfig::new(4, 2).unwrap();
        let (procs, proposals) = flooder_procs(4);
        let report = explore_with(
            system,
            options(4, 2_000_000),
            ExploreOptions::serial().with_memo(MemoConfig::spill(2)),
            procs,
            proposals,
        )
        .unwrap();
        assert!(
            report.distinct_states > 50,
            "space must dwarf the 2-entry hot tier (got {})",
            report.distinct_states
        );
    }

    /// A spilling exploration must also still *fail* correctly: the state
    /// budget counts distinct keys across both tiers.
    #[test]
    fn state_budget_is_enforced_with_spill_too() {
        let system = SystemConfig::new(3, 2).unwrap();
        let err = explore_with(
            system,
            options(4, 3),
            ExploreOptions::serial().with_memo(MemoConfig::spill(1)),
            vec![DecideOwn { v: 0 }, DecideOwn { v: 0 }, DecideOwn { v: 0 }],
            vec![0u64, 0, 0],
        )
        .unwrap_err();
        assert_eq!(err, ExploreError::StateLimit { budget: 3 });
    }

    /// The depth-aware donation policy changes only load balance, never
    /// the result: every cutoff (including 0 = never donate) produces a
    /// report identical to the unrestricted parallel walk and the serial
    /// walk.
    #[test]
    fn donation_depth_cutoffs_are_result_invisible() {
        let system = SystemConfig::new(4, 2).unwrap();
        let (procs, proposals) = flooder_procs(4);
        let serial = explore(
            system,
            options(4, 2_000_000),
            procs.clone(),
            proposals.clone(),
        )
        .unwrap();
        for donate_depth in [Some(0u32), Some(1), Some(2), None] {
            let tuned = explore_with(
                system,
                options(4, 2_000_000),
                ExploreOptions::with_threads(4).with_donate_depth(donate_depth),
                procs.clone(),
                proposals.clone(),
            )
            .unwrap();
            assert_reports_identical(&serial, &tuned, &format!("donate_depth={donate_depth:?}"));
        }
    }

    #[test]
    fn explore_options_donation_builder() {
        assert_eq!(ExploreOptions::serial().donate_depth, None);
        assert_eq!(
            ExploreOptions::serial()
                .with_donate_depth(Some(3))
                .donate_depth,
            Some(3)
        );
    }

    /// Structural equality of two configurations, field by field — the
    /// ground truth the canonical key encoding must reproduce: round,
    /// per-process lifecycle, decisions, and the protocol state of every
    /// **active** process.  Two things are deliberately excluded, as the
    /// structured `Snap` comparison always excluded them: a settled
    /// (decided or crashed) process's internal state (it can never act
    /// again — only its decision matters to the future) and the round a
    /// crashed process died in (the spec check consumes only *who*
    /// crashed).
    fn configs_equal(a: &Stepper<Flooder>, b: &Stepper<Flooder>) -> bool {
        let lifecycles_match = a.status().iter().zip(b.status()).all(|(x, y)| {
            matches!(
                (x, y),
                (ProcStatus::Active, ProcStatus::Active)
                    | (ProcStatus::Decided, ProcStatus::Decided)
                    | (ProcStatus::Crashed(_), ProcStatus::Crashed(_))
            )
        });
        a.round() == b.round()
            && lifecycles_match
            && a.decisions() == b.decisions()
            && a.procs()
                .iter()
                .zip(a.status())
                .zip(b.procs())
                .all(|((x, status), y)| !matches!(status, ProcStatus::Active) || **x == **y)
    }

    /// Walks one seeded pseudo-random path from the initial Flooder
    /// configuration, returning every prefix configuration with its
    /// canonical key bytes.
    fn random_walk_keys(
        shared: &Shared<'_, Flooder>,
        procs: Vec<Flooder>,
        mut state: u64,
    ) -> Vec<(Stepper<Flooder>, Vec<u8>)> {
        let mut walker = Walker::new(shared);
        let mut stepper =
            Stepper::new(shared.system, shared.config.model, TraceLevel::Off, procs).unwrap();
        let mut out = Vec::new();
        loop {
            let mut key = Vec::new();
            make_key_into(&stepper, &mut key);
            out.push((stepper.clone(), key));
            if walker.is_terminal(&stepper) {
                break;
            }
            let actions = action_sets_of(&mut walker, &stepper);
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pick = (state >> 33) as usize % actions.len();
            stepper.step(&actions[pick]).unwrap();
        }
        out
    }

    proptest::proptest! {
        /// Satellite property: the canonical byte encoding is injective
        /// on reachable configurations — key-byte equality coincides
        /// exactly with structural configuration equality (in both
        /// directions), and equal keys always hash equal.  This is the
        /// soundness of merging configurations by bytes instead of by
        /// structured comparison.
        #[test]
        fn key_encoding_is_injective_on_reachable_configurations(
            seed_a in proptest::prelude::any::<u64>(),
            seed_b in proptest::prelude::any::<u64>(),
        ) {
            let system = SystemConfig::new(4, 2).unwrap();
            let (procs, proposals) = flooder_procs(4);
            let shared = Shared::new(
                system,
                options(4, 1_000_000),
                &ExploreOptions::serial(),
                &proposals,
                procs.clone(),
            )
            .unwrap();
            let mut configs = random_walk_keys(&shared, procs.clone(), seed_a);
            configs.extend(random_walk_keys(&shared, procs, seed_b));
            for (i, (stepper_i, key_i)) in configs.iter().enumerate() {
                // Every key decodes, consuming exactly its bytes.
                let mut input = key_i.as_slice();
                let decoded = crate::memo::decode_key_prefix::<Flooder>(&mut input);
                proptest::prop_assert!(decoded.is_some(), "key {i} must decode");
                proptest::prop_assert!(input.is_empty(), "key {i} must be self-delimiting");
                for (j, (stepper_j, key_j)) in configs.iter().enumerate().skip(i) {
                    let keys_equal = key_i == key_j;
                    let structs_equal = configs_equal(stepper_i, stepper_j);
                    proptest::prop_assert_eq!(
                        keys_equal, structs_equal,
                        "configs {} and {}: key-byte equality must coincide with structural equality",
                        i, j
                    );
                    if keys_equal {
                        proptest::prop_assert_eq!(
                            stable_hash64(key_i), stable_hash64(key_j),
                            "equal keys must hash equal"
                        );
                    }
                }
            }
        }
    }

    /// A genuinely pid-symmetric protocol (embeds its own pid, so the
    /// relabelling remap is exercised): everyone broadcasts its estimate
    /// to everyone else for two rounds, adopts the minimum it hears, and
    /// decides at the end of round 2.  No rank is special and peers are
    /// treated uniformly, so the full-orbit quotient is sound.
    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    struct Gossip {
        me: u32,
        n: usize,
        est: u64,
    }

    impl SyncProtocol for Gossip {
        type Msg = u64;
        type Output = u64;
        fn send(&mut self, round: Round) -> SendPlan<u64, u64> {
            let mut plan = SendPlan::quiet();
            if round.get() <= 2 {
                for r in 1..=self.n as u32 {
                    if r != self.me {
                        plan = plan.with_data(ProcessId::new(r), self.est);
                    }
                }
            }
            plan
        }
        fn receive(&mut self, round: Round, inbox: &Inbox<u64>) -> Step<u64> {
            for r in 1..=self.n as u32 {
                if let Some(v) = inbox.data_from(ProcessId::new(r)) {
                    if *v < self.est {
                        self.est = *v;
                    }
                }
            }
            if round.get() >= 2 {
                Step::Decide(self.est)
            } else {
                Step::Continue
            }
        }
    }

    impl SpillCodec for Gossip {
        fn encode(&self, out: &mut Vec<u8>) {
            self.me.encode(out);
            self.n.encode(out);
            self.est.encode(out);
        }
        fn decode(input: &mut &[u8]) -> Option<Self> {
            Some(Gossip {
                me: u32::decode(input)?,
                n: usize::decode(input)?,
                est: u64::decode(input)?,
            })
        }
        fn pid_symmetric() -> bool {
            true
        }
        fn encode_relabelled(&self, at: usize, out: &mut Vec<u8>) {
            (at as u32 + 1).encode(out); // owner rewritten to rank at+1
            self.n.encode(out);
            self.est.encode(out);
        }
    }

    fn gossip_procs(n: usize, ests: &[u64]) -> Vec<Gossip> {
        ests.iter()
            .enumerate()
            .map(|(i, &est)| Gossip {
                me: i as u32 + 1,
                n,
                est,
            })
            .collect()
    }

    /// A test-only mirror of `Walker::canonical_key` on a walker of its
    /// own: plan resolution, tier encoding, and the value minimum, so
    /// key-level tests can compare modes directly.
    fn test_key<P>(
        stepper: &Stepper<P>,
        mode: Symmetry,
        proposals: &[P::Output],
        t: usize,
    ) -> Vec<u8>
    where
        P: CheckableProtocol,
        P::Output: Hash + SpillCodec,
    {
        let plan = mode.plan::<P>(proposals);
        let mut out = Vec::new();
        if plan.tier == CanonTier::Raw {
            make_key_into(stepper, &mut out);
            return out;
        }
        let mut canon = Canonicalizer::new();
        let mut in_place = Vec::new();
        flag_in_place(stepper, plan.tier, t, &mut in_place);
        tier_key_into(stepper, plan.tier, false, &in_place, &mut canon, &mut out);
        if plan.value {
            let mut swapped = Vec::new();
            tier_key_into(
                stepper,
                plan.tier,
                true,
                &in_place,
                &mut canon,
                &mut swapped,
            );
            if swapped < out {
                out = swapped;
            }
        }
        out
    }

    #[test]
    fn symmetry_strength_is_protocol_dependent() {
        // Off is strength 0 for everyone; Full is settled-only (1) for
        // rank-dependent protocols and full-orbit (2) for declared
        // pid-symmetric ones; Partial adds the rank-inert tier (3) for
        // rank-dependent protocols and is subsumed by the orbit for
        // pid-symmetric ones.  u64 outputs are not value-symmetric, so
        // PartialValue degrades to Partial strength here.
        let p: Vec<u64> = vec![0, 1];
        assert_eq!(Symmetry::Off.plan::<Flooder>(&p).strength(), 0);
        assert_eq!(Symmetry::Off.plan::<DecideOwn>(&p).strength(), 0);
        assert_eq!(Symmetry::Full.plan::<Flooder>(&p).strength(), 1);
        assert_eq!(Symmetry::Full.plan::<DecideOwn>(&p).strength(), 2);
        assert_eq!(Symmetry::Full.plan::<Gossip>(&p).strength(), 2);
        assert_eq!(Symmetry::Partial.plan::<Flooder>(&p).strength(), 3);
        assert_eq!(Symmetry::Partial.plan::<Gossip>(&p).strength(), 2);
        assert_eq!(Symmetry::PartialValue.plan::<Flooder>(&p).strength(), 3);
    }

    #[test]
    fn symmetry_tokens_roundtrip_and_reject_garbage() {
        for mode in [
            Symmetry::Off,
            Symmetry::Full,
            Symmetry::Partial,
            Symmetry::PartialValue,
        ] {
            assert_eq!(Symmetry::parse_token(mode.token()), Some(mode));
            assert_eq!(
                Symmetry::parse_token(&format!("  {}  ", mode.token().to_ascii_uppercase())),
                Some(mode),
                "tokens are case-insensitive and whitespace-tolerant"
            );
        }
        for garbage in ["", "on", "value", "partial+", "full+value", "partial value"] {
            assert_eq!(Symmetry::parse_token(garbage), None, "{garbage:?}");
        }
    }

    #[test]
    fn full_orbit_key_is_permutation_invariant() {
        // Two initial configurations that are owner-relabelled index
        // permutations of each other: canonical keys must coincide under
        // Full and stay distinct under Off.
        let system = SystemConfig::new(3, 1).unwrap();
        let mk = |ests: &[u64]| {
            Stepper::new(
                system,
                ModelKind::Extended,
                TraceLevel::Off,
                gossip_procs(3, ests),
            )
            .unwrap()
        };
        let a = mk(&[5, 9, 5]);
        let b = mk(&[5, 5, 9]);
        let proposals: Vec<u64> = vec![5, 9, 5];
        let ka = test_key(&a, Symmetry::Full, &proposals, 1);
        let kb = test_key(&b, Symmetry::Full, &proposals, 1);
        assert_eq!(ka, kb, "permuted configurations share one canonical key");
        let oa = test_key(&a, Symmetry::Off, &proposals, 1);
        let ob = test_key(&b, Symmetry::Off, &proposals, 1);
        assert_ne!(oa, ob, "Off keeps raw configurations distinct");
        // The canonical key still decodes as an ordinary key encoding.
        let mut input = ka.as_slice();
        assert!(crate::memo::decode_key_prefix::<Gossip>(&mut input).is_some());
        assert!(input.is_empty());
    }

    /// Walks one seeded pseudo-random CRW path at `(4, 2)` (binary
    /// proposals, optionally bit-flipped), returning every prefix
    /// configuration.  The same seed drives the same action *indices*
    /// regardless of the proposal polarity, which is what makes the
    /// plain and flipped walks value mirrors of each other.
    fn crw_walk(
        flip: bool,
        mut state: u64,
    ) -> Vec<Stepper<twostep_core::Crw<twostep_model::WideValue>>> {
        let system = SystemConfig::new(4, 2).unwrap();
        let proposals: Vec<twostep_model::WideValue> = (0..4)
            .map(|i| twostep_model::WideValue::new(1, ((i as u64) % 2) ^ (flip as u64)))
            .collect();
        let procs = twostep_core::crw_processes(&system, &proposals);
        let shared = Shared::new(
            system,
            options(6, 1_000_000),
            &ExploreOptions::serial(),
            &proposals,
            procs.clone(),
        )
        .unwrap();
        let mut walker = Walker::new(&shared);
        let mut stepper =
            Stepper::new(system, ModelKind::Extended, TraceLevel::Off, procs).unwrap();
        let mut out = vec![stepper.clone()];
        while !walker.is_terminal(&stepper) {
            let actions = action_sets_of(&mut walker, &stepper);
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pick = (state >> 33) as usize % actions.len();
            stepper.step(&actions[pick]).unwrap();
            out.push(stepper.clone());
        }
        out
    }

    proptest::proptest! {
        /// The value-symmetry normal form: walking CRW with bit-flipped
        /// proposals under the *same* adversary choices produces the
        /// value-mirror of every configuration, and the
        /// `partial+value` canonical key — the lexicographic minimum
        /// over both encodings — must agree on each mirrored pair,
        /// while staying a valid, self-delimiting key encoding.  The
        /// plain (swap-free) partial keys must instead tell the two
        /// polarities apart at the root.
        #[test]
        fn value_quotient_key_is_involution_invariant(
            seed in proptest::prelude::any::<u64>(),
        ) {
            let t = 2usize;
            let walk_a = crw_walk(false, seed);
            let walk_b = crw_walk(true, seed);
            proptest::prop_assert_eq!(walk_a.len(), walk_b.len(), "mirrored walks must pace together");
            let proposals_a: Vec<twostep_model::WideValue> =
                (0..4).map(|i| twostep_model::WideValue::new(1, (i as u64) % 2)).collect();
            let proposals_b: Vec<twostep_model::WideValue> =
                (0..4).map(|i| twostep_model::WideValue::new(1, ((i as u64) % 2) ^ 1)).collect();
            for (i, (a, b)) in walk_a.iter().zip(&walk_b).enumerate() {
                let ka = test_key(a, Symmetry::PartialValue, &proposals_a, t);
                let kb = test_key(b, Symmetry::PartialValue, &proposals_b, t);
                proptest::prop_assert_eq!(
                    &ka, &kb,
                    "step {}: mirrored configurations must share one partial+value key", i
                );
                let mut input = ka.as_slice();
                let decoded = crate::memo::decode_key_prefix::<twostep_core::Crw<twostep_model::WideValue>>(&mut input);
                proptest::prop_assert!(decoded.is_some(), "step {} key must decode", i);
                proptest::prop_assert!(input.is_empty(), "step {} key must be self-delimiting", i);
            }
            let pa = test_key(&walk_a[0], Symmetry::Partial, &proposals_a, t);
            let pb = test_key(&walk_b[0], Symmetry::Partial, &proposals_b, t);
            proptest::prop_assert_ne!(
                pa, pb,
                "without the value quotient the two polarities are distinct states"
            );
        }
    }

    /// Census semantics under symmetry: same rounds, counts never grow,
    /// and a round has bivalent orbits iff it had bivalent
    /// configurations.
    fn assert_census_shrinks(off: &ExploreReport<u64>, full: &ExploreReport<u64>, label: &str) {
        assert_eq!(
            off.bivalency_by_round.len(),
            full.bivalency_by_round.len(),
            "{label}: census rounds"
        );
        for ((r_off, c_off, b_off), (r_full, c_full, b_full)) in
            off.bivalency_by_round.iter().zip(&full.bivalency_by_round)
        {
            assert_eq!(r_off, r_full, "{label}: census round order");
            assert!(
                c_full <= c_off,
                "{label}: round {r_off} orbit count {c_full} > raw count {c_off}"
            );
            assert!(b_full <= b_off, "{label}: round {r_off} bivalent counts");
            assert_eq!(
                *b_off > 0,
                *b_full > 0,
                "{label}: round {r_off} bivalency presence"
            );
        }
    }

    /// Settled-record canonicalization (the strength every protocol
    /// gets, the rank-dependent `Flooder` included) is summary-exact:
    /// the root summary — `decided` order included — matches `Off`
    /// bit for bit while the state count shrinks or holds.
    #[test]
    fn settled_canonicalization_is_summary_exact_for_rank_dependent_protocols() {
        let system = SystemConfig::new(4, 2).unwrap();
        let (procs, proposals) = flooder_procs(4);
        let off = explore(
            system,
            options(4, 2_000_000),
            procs.clone(),
            proposals.clone(),
        )
        .unwrap();
        let full = explore(
            system,
            ExploreConfig {
                symmetry: Symmetry::Full,
                ..options(4, 2_000_000)
            },
            procs,
            proposals,
        )
        .unwrap();
        assert_eq!(off.root, full.root, "settled-only merges are bit-identical");
        assert!(
            full.distinct_states < off.distinct_states,
            "crashed/decided permutations must merge: {} !< {}",
            full.distinct_states,
            off.distinct_states
        );
        assert_census_shrinks(&off, &full, "flooder");
    }

    /// The full-orbit quotient for a pid-symmetric protocol: verdicts
    /// and per-`f` worst rounds are identical, valency agrees as a set,
    /// the witness remains a real violating execution, and the state
    /// count strictly drops (permuted actives merge).
    #[test]
    fn full_orbit_quotient_matches_off_for_pid_symmetric_protocols() {
        let system = SystemConfig::new(3, 2).unwrap();
        let procs = gossip_procs(3, &[5, 5, 9]);
        let proposals = vec![5u64, 5, 9];
        let off = explore(
            system,
            options(3, 2_000_000),
            procs.clone(),
            proposals.clone(),
        )
        .unwrap();
        let full = explore(
            system,
            ExploreConfig {
                symmetry: Symmetry::Full,
                ..options(3, 2_000_000)
            },
            procs,
            proposals,
        )
        .unwrap();
        assert_eq!(off.root.terminals, full.root.terminals);
        assert_eq!(off.root.worst_round_by_f, full.root.worst_round_by_f);
        assert_eq!(off.root.violating, full.root.violating);
        let sorted = |mut v: Vec<u64>| {
            v.sort_unstable();
            v
        };
        assert_eq!(
            sorted(off.root.decided.clone()),
            sorted(full.root.decided.clone()),
            "valency agrees as a set (order may follow the orbit representative)"
        );
        assert!(
            full.distinct_states < off.distinct_states,
            "permuted actives must merge: {} !< {}",
            full.distinct_states,
            off.distinct_states
        );
        assert_census_shrinks(&off, &full, "gossip");
    }

    /// A violating pid-symmetric space must still reconstruct a valid
    /// witness under the quotient: the schedule is a real execution's
    /// (re-driven from the true initial configuration, not decoded from
    /// a canonical representative) and its violations are non-empty.
    #[test]
    fn symmetric_witness_is_a_real_execution() {
        let system = SystemConfig::new(3, 2).unwrap();
        let initial = vec![DecideOwn { v: 0 }, DecideOwn { v: 1 }, DecideOwn { v: 1 }];
        let proposals = vec![0u64, 1, 1];
        let off = explore(
            system,
            options(2, 100_000),
            initial.clone(),
            proposals.clone(),
        )
        .unwrap();
        let full = explore(
            system,
            ExploreConfig {
                symmetry: Symmetry::Full,
                ..options(2, 100_000)
            },
            initial,
            proposals,
        )
        .unwrap();
        assert!(off.root.violating && full.root.violating);
        assert!(
            full.distinct_states < off.distinct_states,
            "settled permutations of (decided, crashed) must merge: {} !< {}",
            full.distinct_states,
            off.distinct_states
        );
        let witness = full.witness.expect("witness under symmetry");
        assert!(
            witness
                .violations
                .iter()
                .any(|v| matches!(v, SpecViolation::UniformAgreement { .. })),
            "witness carries the uniform-agreement violation"
        );
        assert!(
            witness.decisions.iter().flatten().count() >= 2,
            "violating terminal has at least two deciders"
        );
    }

    /// Witness reconstruction reads summaries back through the two-tier
    /// memo; a violating space must yield the same witness spilled.
    #[test]
    fn spilled_witness_matches_ram_witness() {
        let system = SystemConfig::new(2, 1).unwrap();
        let ram = explore(
            system,
            options(2, 100_000),
            vec![DecideOwn { v: 0 }, DecideOwn { v: 1 }],
            vec![0u64, 1],
        )
        .unwrap();
        let spilled = explore_with(
            system,
            options(2, 100_000),
            ExploreOptions::serial().with_memo(MemoConfig::spill(4)),
            vec![DecideOwn { v: 0 }, DecideOwn { v: 1 }],
            vec![0u64, 1],
        )
        .unwrap();
        let ws = ram.witness.expect("ram witness");
        let wp = spilled.witness.expect("spilled witness");
        assert_eq!(format!("{:?}", ws.schedule), format!("{:?}", wp.schedule));
        assert_eq!(ws.decisions, wp.decisions);
    }

    /// The env-knob policy over every model-checker variable, one row
    /// each (`TWOSTEP_THREADS` has the same row next to its knob in
    /// `twostep_sim`): unset resolves to the default silently, a valid
    /// value (whitespace tolerated) is honored silently, and garbage
    /// resolves to the default with a warning naming the variable and
    /// the offending value — never silently ignored.
    #[test]
    fn every_env_knob_follows_the_warn_once_policy() {
        fn row<T: PartialEq + std::fmt::Debug>(
            knob: EnvKnob<T>,
            valid: &str,
            value: T,
            garbage: &str,
        ) {
            assert_eq!(knob.resolve(None), (None, None), "{}: unset", knob.name);
            assert_eq!(
                knob.resolve(Some(&format!("  {valid} "))),
                (Some(value), None),
                "{}: valid",
                knob.name
            );
            let (value, warning) = knob.resolve(Some(garbage));
            assert_eq!(value, None, "{}: garbage falls back", knob.name);
            let warning = warning.unwrap_or_else(|| panic!("{}: garbage must warn", knob.name));
            assert!(warning.contains(knob.name), "{warning}");
            assert!(warning.contains(&format!("{garbage:?}")), "{warning}");
        }
        use crate::dist::{BACKOFF_MS, STEAL, WATCHDOG_MS};
        let plan = "p0a0=crash@walk;p1a0=hang@export";
        row(DONATE_DEPTH, "2", 2, "deep");
        row(
            SYMMETRY,
            "Partial+Value",
            Symmetry::PartialValue,
            "sideways",
        );
        row(SYMMETRY, "off", Symmetry::Off, "");
        // `0` is a valid step budget (min-progress still advances).
        row(MAX_STEPS, "0", 0, "soon");
        row(MAX_STEPS, "123", 123, "-3");
        row(DEADLINE_MS, "250", Duration::from_millis(250), "1.5s");
        row(
            crate::cache::CACHE_DIR,
            "/tmp/twostep-cache",
            PathBuf::from("/tmp/twostep-cache"),
            "   ",
        );
        row(STEAL, "ON", true, "maybe");
        row(STEAL, "0", false, "2");
        row(WATCHDOG_MS, "0", 0, "5s");
        row(BACKOFF_MS, "40", 40, "fast");
        row(
            crate::faults::FAULT,
            plan,
            crate::faults::FaultPlan::parse(plan).unwrap(),
            "p0=explode",
        );
    }

    #[test]
    fn unlimited_budget_is_unlimited() {
        assert!(WalkBudget::unlimited().is_unlimited());
        let budget = WalkBudget {
            max_steps: Some(1),
            ..WalkBudget::unlimited()
        };
        assert!(!budget.is_unlimited());
    }

    /// An exhausted step budget with no checkpoint configured suspends
    /// with `checkpoint: None` — the partial work is discarded but the
    /// error still names the budget and the progress made.  The
    /// min-progress guarantee means even `max_steps: 0` memoizes at
    /// least one fresh configuration before suspending.
    #[test]
    fn step_budget_without_checkpoint_interrupts() {
        let system = SystemConfig::new(3, 2).unwrap();
        let (procs, proposals) = flooder_procs(3);
        let err = explore_with(
            system,
            options(3, 2_000_000),
            ExploreOptions::serial().with_budget(WalkBudget {
                max_steps: Some(0),
                ..WalkBudget::unlimited()
            }),
            procs,
            proposals,
        )
        .unwrap_err();
        match err {
            ExploreError::Interrupted {
                reason,
                checkpoint,
                states,
            } => {
                assert_eq!(reason, BudgetKind::Steps);
                assert_eq!(checkpoint, None);
                assert!(states >= 1, "min-progress: at least one fresh state");
            }
            other => panic!("expected Interrupted, got {other:?}"),
        }
    }

    /// An already-expired deadline suspends promptly and is attributed
    /// to the deadline budget.
    #[test]
    fn expired_deadline_interrupts() {
        let system = SystemConfig::new(3, 2).unwrap();
        let (procs, proposals) = flooder_procs(3);
        let err = explore_with(
            system,
            options(3, 2_000_000),
            ExploreOptions::serial().with_budget(WalkBudget {
                deadline: Some(Duration::ZERO),
                ..WalkBudget::unlimited()
            }),
            procs,
            proposals,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                ExploreError::Interrupted {
                    reason: BudgetKind::Deadline,
                    checkpoint: None,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    /// A one-byte memo ceiling trips as soon as anything is memoized.
    #[test]
    fn memo_byte_ceiling_interrupts() {
        let system = SystemConfig::new(3, 2).unwrap();
        let (procs, proposals) = flooder_procs(3);
        let err = explore_with(
            system,
            options(3, 2_000_000),
            ExploreOptions::serial().with_budget(WalkBudget {
                max_memo_bytes: Some(1),
                ..WalkBudget::unlimited()
            }),
            procs,
            proposals,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                ExploreError::Interrupted {
                    reason: BudgetKind::MemoBytes,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    /// Cooperative yields are scheduling-only: a walk that yields every
    /// step produces the bit-identical report.
    #[test]
    fn yield_every_step_changes_nothing() {
        let system = SystemConfig::new(3, 2).unwrap();
        let (procs, proposals) = flooder_procs(3);
        let plain = explore(
            system,
            options(3, 2_000_000),
            procs.clone(),
            proposals.clone(),
        )
        .unwrap();
        let yielding = explore_with(
            system,
            options(3, 2_000_000),
            ExploreOptions::serial().with_budget(WalkBudget {
                yield_every: Some(1),
                ..WalkBudget::unlimited()
            }),
            procs,
            proposals,
        )
        .unwrap();
        assert_reports_identical(&plain, &yielding, "yield-every-step");
    }

    /// A generous budget that never trips must not perturb the walk:
    /// same report, same state count, same census.
    #[test]
    fn non_tripping_budget_is_bit_identical() {
        let system = SystemConfig::new(3, 2).unwrap();
        let (procs, proposals) = flooder_procs(3);
        let plain = explore(
            system,
            options(3, 2_000_000),
            procs.clone(),
            proposals.clone(),
        )
        .unwrap();
        let budgeted = explore_with(
            system,
            options(3, 2_000_000),
            ExploreOptions::serial().with_budget(WalkBudget {
                max_steps: Some(u64::MAX),
                deadline: Some(Duration::from_secs(86_400)),
                max_memo_bytes: Some(u64::MAX),
                yield_every: None,
            }),
            procs,
            proposals,
        )
        .unwrap();
        assert_reports_identical(&plain, &budgeted, "non-tripping budget");
    }

    /// Crash-safety autosave ([`CheckpointConfig::autosave_every`]): a
    /// single-threaded walk snapshots *periodically* at `Yield` points,
    /// so even an abort that writes no suspension checkpoint (a
    /// `StateLimit` trip at the raw [`walk_roots`] layer) leaves a
    /// loadable artifact behind — at most one interval of work is lost.
    #[test]
    fn autosave_snapshots_survive_an_unclean_abort() {
        let system = SystemConfig::new(4, 2).unwrap();
        let (procs, proposals) = flooder_procs(4);
        let dir =
            std::env::temp_dir().join(format!("twostep-autosave-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ckpt = CheckpointConfig::at(&dir).with_autosave_every(4);
        // Small enough to trip mid-walk, large enough for several
        // autosave intervals first.
        let config = options(4, 64);
        let shared = Shared::new(
            system,
            config,
            &ExploreOptions::serial(),
            &proposals,
            procs.clone(),
        )
        .unwrap();
        let root = Stepper::new(system, config.model, TraceLevel::Off, procs.clone()).unwrap();
        let err = match walk_roots(
            &shared,
            1,
            vec![root],
            &WalkBudget::unlimited(),
            Instant::now(),
            Some(Autosave {
                config: &ckpt,
                fingerprint: 42,
                every: 4,
            }),
        ) {
            Err(e) => e,
            Ok(_) => panic!("a 64-state budget must trip on this system"),
        };
        assert_eq!(err, ExploreError::StateLimit { budget: 64 });
        // The abort itself wrote nothing — whatever is on disk came from
        // the periodic autosaves during the walk.
        let probe =
            Shared::new(system, config, &ExploreOptions::serial(), &proposals, procs).unwrap();
        match checkpoint::load_checkpoint(
            &ckpt,
            42,
            probe.plan.strength(),
            &probe.memo,
            crate::memo::key_validator::<Flooder>(),
        ) {
            CheckpointLoad::Loaded { records } => {
                assert!(records > 0, "autosave captured fresh states");
            }
            other => panic!("expected a loadable autosave checkpoint, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- Key-first successor generation ---------------------------------

    /// Two simultaneous coordinators: in round 1 both `p_1` and `p_2`
    /// send their estimate to everyone, commit to the ranks above 2 in
    /// order, and schedule a send-phase decision; receivers adopt the
    /// smallest estimate they hear and decide on a commit, or in round
    /// 2.  Inboxes with two senders, and a `decide_after_send` that a
    /// mid-send crash must suppress.
    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    struct Duo {
        me: u32,
        n: usize,
        est: u64,
    }

    impl SyncProtocol for Duo {
        type Msg = u64;
        type Output = u64;
        fn send(&mut self, round: Round) -> SendPlan<u64, u64> {
            let mut plan = SendPlan::quiet();
            if round == Round::FIRST && self.me <= 2 {
                for r in (1..=self.n as u32).filter(|r| *r != self.me) {
                    plan = plan.with_data(ProcessId::new(r), self.est);
                }
                for r in 3..=self.n as u32 {
                    plan = plan.with_control(ProcessId::new(r));
                }
                plan = plan.then_decide(self.est);
            }
            plan
        }
        fn receive(&mut self, round: Round, inbox: &Inbox<u64>) -> Step<u64> {
            for (_, v) in inbox.data() {
                self.est = self.est.min(*v);
            }
            if !inbox.control().is_empty() || round.get() >= 2 {
                Step::Decide(self.est)
            } else {
                Step::Continue
            }
        }
    }

    impl SpillCodec for Duo {
        fn encode(&self, out: &mut Vec<u8>) {
            self.me.encode(out);
            self.n.encode(out);
            self.est.encode(out);
        }
        fn decode(input: &mut &[u8]) -> Option<Self> {
            Some(Duo {
                me: u32::decode(input)?,
                n: usize::decode(input)?,
                est: u64::decode(input)?,
            })
        }
    }

    fn duo_procs(n: usize) -> (Vec<Duo>, Vec<u64>) {
        let proposals: Vec<u64> = (0..n as u64).map(|i| 10 + (i * 7) % 4).collect();
        let procs = proposals
            .iter()
            .enumerate()
            .map(|(i, est)| Duo {
                me: i as u32 + 1,
                n,
                est: *est,
            })
            .collect();
        (procs, proposals)
    }

    /// Calls `check` on every configuration met along seeded random
    /// adversary paths from `procs`, with its round open; returns how
    /// many rows those rounds had between them.
    #[allow(clippy::too_many_arguments)]
    fn on_random_paths<P>(
        system: SystemConfig,
        model: ModelKind,
        max_rounds: u32,
        max_crashes_per_round: Option<usize>,
        symmetry: Symmetry,
        procs: Vec<P>,
        proposals: Vec<P::Output>,
        mut check: impl FnMut(&mut Walker<'_, '_, P>, &Stepper<P>, &mut RoundKeys<P>),
    ) -> usize
    where
        P: CheckableProtocol,
        P::Output: Hash + SpillCodec,
    {
        let config = ExploreConfig {
            model,
            max_crashes_per_round,
            symmetry,
            ..options(max_rounds, 1_000_000)
        };
        let shared = Shared::new(
            system,
            config,
            &ExploreOptions::serial(),
            &proposals,
            procs.clone(),
        )
        .unwrap();
        let mut walker = Walker::new(&shared);
        let root = Stepper::new(system, model, TraceLevel::Off, procs).unwrap();
        let mut actions = RoundActions::new();
        let mut rows = 0;
        for seed in [1u64, 7, 42, 0xBAD5EED, 0xC0FFEE] {
            let mut state = seed;
            let mut stepper = root.clone();
            while !walker.is_terminal(&stepper) {
                let mut round = walker.open_round(&stepper).unwrap();
                check(&mut walker, &stepper, &mut round);
                rows += round.len();
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                round.actions_into((state >> 33) as usize % round.len(), &mut actions);
                walker.close_round(round);
                stepper.step(&actions).unwrap();
            }
        }
        rows
    }

    /// Sums `$check(system, model, max_rounds, procs, proposals, label,
    /// $extra..)` — a function generic in the protocol — over the
    /// protocols the key-first tests cover.
    macro_rules! over_the_zoo {
        ($check:ident $(, $extra:expr)*) => {{
            use twostep_core::{crw_processes, CommitOrder, Crw, ExtendedOnClassic};
            use twostep_model::WideValue;

            let bits = |n: usize| -> Vec<WideValue> {
                (0..n).map(|i| WideValue::new(1, (i % 2) as u64)).collect()
            };
            let ranks =
                |n: usize| -> Vec<u64> { (0..n as u64).map(|i| 10 + (i * 7) % 4).collect() };
            let mut total = 0;

            // CRW under the paper's commit order and the LowestFirst
            // ablation.
            let system = SystemConfig::new(5, 4).unwrap();
            total += $check(
                system,
                ModelKind::Extended,
                6,
                crw_processes(&system, &bits(5)),
                bits(5),
                "crw highest-first"
                $(, $extra)*
            );
            let lowest_first: Vec<Crw<WideValue>> = bits(5)
                .into_iter()
                .enumerate()
                .map(|(i, v)| {
                    Crw::with_order(ProcessId::from_idx(i), 5, v, CommitOrder::LowestFirst)
                })
                .collect();
            total += $check(
                system,
                ModelKind::Extended,
                7,
                lowest_first,
                bits(5),
                "crw lowest-first"
                $(, $extra)*
            );

            // FloodSet (everyone sends to everyone), EarlyStopping, and
            // the non-uniform early decider — the one `DecideAndContinue`
            // user, whose processes stand *active with a decision* — on
            // the classic model.
            let system = SystemConfig::new(4, 3).unwrap();
            total += $check(
                system,
                ModelKind::Classic,
                5,
                twostep_baselines::floodset_processes(4, 3, &ranks(4)),
                ranks(4),
                "floodset"
                $(, $extra)*
            );
            total += $check(
                system,
                ModelKind::Classic,
                5,
                twostep_baselines::earlystop_processes(4, 3, &ranks(4)),
                ranks(4),
                "earlystop"
                $(, $extra)*
            );
            total += $check(
                system,
                ModelKind::Classic,
                5,
                twostep_baselines::nonuniform_processes(4, 3, &ranks(4)),
                ranks(4),
                "nonuniform early decider"
                $(, $extra)*
            );

            // The §2.2 block simulation: its state stashes a `SendPlan`
            // that its own `send` mutates, so only the *post-send* state
            // is right.
            let system = SystemConfig::new(3, 2).unwrap();
            let wrapped: Vec<_> = crw_processes(&system, &bits(3))
                .into_iter()
                .map(|p| ExtendedOnClassic::new(p, 3))
                .collect();
            total += $check(
                system,
                ModelKind::Classic,
                10,
                wrapped,
                bits(3),
                "extended-on-classic crw"
                $(, $extra)*
            );

            // Two simultaneous senders with send-phase decisions.
            let system = SystemConfig::new(4, 2).unwrap();
            let (procs, proposals) = duo_procs(4);
            total += $check(
                system,
                ModelKind::Extended,
                3,
                procs,
                proposals,
                "duo"
                $(, $extra)*
            );
            total
        }};
    }

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

    #[test]
    fn assembled_child_keys_match_stepped_children() {
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

    #[test]
    fn index_rows_reproduce_the_reference_enumeration() {
        let free = over_the_zoo!(assert_rows_match_reference, None);
        let capped = over_the_zoo!(assert_rows_match_reference, Some(1));
        assert!(capped < free, "the per-round cap prunes rows");
        assert!(free > 5_000, "only {free} rows compared");
    }

    /// The index of the row of `round` that materializes to `actions`.
    fn row_index<P>(round: &RoundKeys<P>, actions: &RoundActions) -> usize
    where
        P: CheckableProtocol,
        P::Output: Hash + SpillCodec,
    {
        let mut row = RoundActions::new();
        (0..round.len())
            .find(|idx| {
                round.actions_into(*idx, &mut row);
                row == *actions
            })
            .expect("the adversary has this move")
    }

    /// The scenario the toy exists for, checked against the engine
    /// alone: `p_1` crashing mid-commit loses its send-phase decision
    /// while `p_2`, untouched, keeps its own — and the assembled key
    /// says exactly that.
    #[test]
    fn mid_control_crash_suppresses_the_send_phase_decision_in_the_assembled_key() {
        let system = SystemConfig::new(4, 2).unwrap();
        let (procs, proposals) = duo_procs(4);
        let shared = Shared::new(
            system,
            options(3, 1_000),
            &ExploreOptions::serial(),
            &proposals,
            procs.clone(),
        )
        .unwrap();
        let mut walker = Walker::new(&shared);
        let root = Stepper::new(system, ModelKind::Extended, TraceLevel::Off, procs).unwrap();
        let row: RoundActions = vec![
            Some(CrashStage::MidControl { prefix_len: 1 }),
            None,
            None,
            None,
        ];
        let mut child = root.clone();
        child.step(&row).unwrap();
        assert_eq!(child.status()[0], ProcStatus::Crashed(Round::FIRST));
        assert!(
            child.decisions()[0].is_none(),
            "send phase did not complete"
        );
        assert_eq!(child.status()[1], ProcStatus::Decided);
        let mut stepped_key = Vec::new();
        make_key_into(&child, &mut stepped_key);
        let mut round = walker.open_round(&root).unwrap();
        let idx = row_index(&round, &row);
        round.classify(idx).expect("keyed");
        walker.cursor_key(&mut round);
        assert_eq!(walker.key_bytes(), &stepped_key[..]);
    }

    /// [`BudgetArbiter`]'s verdicts with its headroom withheld (the
    /// trait's default promises none): every step its own `step()` call,
    /// as all of them were before runs.
    struct NoHeadroom<'b>(&'b mut BudgetArbiter);

    impl Arbiter for NoHeadroom<'_> {
        fn inspect(&mut self, progress: &StepProgress) -> StepVerdict {
            self.0.inspect(progress)
        }
    }

    /// Two views of one process that settle to the same record: `p_4`
    /// dies at the end of round 1 with and without the coordinator's
    /// data (and no commit either way), and is "crashed, undecided" both
    /// times.  The two rows must share a successor class — one key, one
    /// memo probe — and still count once each: a frame steered over just
    /// these two rows absorbs the shared child at the first and adds its
    /// terminals again at the second.
    #[test]
    fn views_that_settle_alike_share_a_class_and_are_each_absorbed() {
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
    #[test]
    fn rows_that_permute_settled_records_share_an_orbit_and_are_each_absorbed() {
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
    #[test]
    fn root_round_at_8_7_has_282_211_rows_and_no_per_row_storage() {
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

    /// Arbitrary summaries over a handful of values, as wide as `t = 3`
    /// makes them.
    fn any_summary() -> impl proptest::prelude::Strategy<Value = Summary<u8>> {
        use proptest::prelude::*;
        let worst = prop::collection::vec(prop_oneof![Just(None), (1u32..9).prop_map(Some)], 4);
        let decided = prop::collection::vec(0u8..5, 0..6);
        (0u64..1 << 40, worst, decided, any::<bool>()).prop_map(
            |(terminals, worst_round_by_f, values, violating)| {
                let mut decided = Vec::new();
                for v in values {
                    if !decided.contains(&v) {
                        decided.push(v);
                    }
                }
                Summary {
                    terminals,
                    worst_round_by_f,
                    decided,
                    violating,
                }
            },
        )
    }

    proptest::proptest! {
        /// What run absorption rests on: absorbing a summary a second
        /// time changes nothing but the terminal count — worst rounds
        /// are maxima, `decided` is an ordered-set union, `violating`
        /// an OR — so a frame that has absorbed a child once may count
        /// every further row that leads to it by addition alone,
        /// whatever it absorbed in between.
        #[test]
        fn absorbing_a_summary_again_only_adds_its_terminals(
            frame in any_summary(),
            between in proptest::prelude::prop::collection::vec(any_summary(), 0..3),
            child in any_summary(),
        ) {
            let mut twice = frame;
            twice.absorb(&child);
            for other in &between {
                twice.absorb(other);
            }
            let mut once = twice.clone();
            twice.absorb(&child);
            once.terminals += child.terminals;
            proptest::prop_assert_eq!(twice, once);
        }
    }

    /// Calls `$check(system, config, procs, proposals, label)` — a
    /// function generic in the protocol — for the two walks the run
    /// absorption tests drive: CRW `(5, 4)`, whose one sender a round
    /// leaves long runs of repeated rows, and FloodSet `(4, 3)`, where
    /// every slot is a sender.
    macro_rules! on_the_accounted_walks {
        ($check:ident) => {{
            use twostep_model::WideValue;
            let system = SystemConfig::new(5, 4).unwrap();
            let bits: Vec<WideValue> = (0..5).map(|i| WideValue::new(1, i % 2)).collect();
            $check(
                system,
                ExploreConfig::for_crw(&system),
                twostep_core::crw_processes(&system, &bits),
                bits,
                "crw (5, 4)",
            );
            let system = SystemConfig::new(4, 3).unwrap();
            let ranks: Vec<u64> = (0..4).map(|i| 10 + (i * 7) % 4).collect();
            $check(
                system,
                ExploreConfig {
                    model: ModelKind::Classic,
                    ..options(5, 1_000_000)
                },
                twostep_baselines::floodset_processes(4, 3, &ranks),
                ranks,
                "floodset (4, 3)",
            );
        }};
    }

    /// What a `step()` call reports of the walk, beside its step count:
    /// distinct states, stack depth, status.
    type Seen = (usize, usize, StepStatus);

    fn seen(step: &StepResult) -> Seen {
        (step.distinct_states, step.frontier_len, step.status)
    }

    /// The reference the accounting tests compare against: the walk from
    /// `root` with every step taken in its own call, under `arbiter`'s
    /// verdicts.  Entry `k - 1` is what step `k` left behind; the root
    /// summary rides along.
    fn step_by_step<P>(
        shared: &Shared<'_, P>,
        root: &Stepper<P>,
        arbiter: &mut BudgetArbiter,
    ) -> (Vec<Seen>, Arc<Summary<P::Output>>)
    where
        P: CheckableProtocol,
        P::Output: Hash + SpillCodec,
    {
        let mut walker = Walker::new(shared);
        let mut walk = StepWalker::new(&mut walker, vec![root.clone()]);
        let mut trace = Vec::new();
        while trace
            .last()
            .is_none_or(|(_, _, status)| *status != StepStatus::Done)
        {
            let step = walk.step(&mut NoHeadroom(arbiter)).unwrap();
            assert_eq!(step.steps, trace.len() as u64 + 1, "a step a call");
            trace.push(seen(&step));
        }
        (trace, walk.into_summaries().remove(0))
    }

    /// Step accounting under run absorption: a `step()` call that takes
    /// several steps counts each, passes over none at which the arbiter
    /// would have said anything but `Allow`, and returns what the
    /// step-by-step walk saw at the same step number.  So
    /// `yield_every = 7` yields at exactly the multiples of 7, and
    /// `max_steps = k` refuses after exactly `k` steps — for every `k`
    /// the walk has, inside runs included.
    fn assert_steps_are_counted<P>(
        system: SystemConfig,
        config: ExploreConfig,
        procs: Vec<P>,
        proposals: Vec<P::Output>,
        label: &str,
    ) where
        P: CheckableProtocol,
        P::Output: Hash + SpillCodec,
    {
        let fresh = || {
            let options = ExploreOptions::serial();
            Shared::new(system, config, &options, &proposals, procs.clone()).unwrap()
        };
        let root = Stepper::new(system, config.model, TraceLevel::Off, procs.clone()).unwrap();
        let yielding = || {
            BudgetArbiter::new(WalkBudget {
                yield_every: Some(7),
                ..WalkBudget::unlimited()
            })
        };
        let (trace, reference) = step_by_step(&fresh(), &root, &mut yielding());
        for (k, (_, _, status)) in (1..).zip(&trace) {
            let yields = k % 7 == 0 && k < trace.len();
            assert_eq!(*status == StepStatus::Yielded, yields, "{label}: step {k}");
        }

        // Runs taken: fewer calls, the same walk at every call's end.
        let shared = fresh();
        let mut walker = Walker::new(&shared);
        let mut walk = StepWalker::new(&mut walker, vec![root.clone()]);
        let mut yielding = yielding();
        let (mut calls, mut counted) = (0, 0);
        while counted < trace.len() {
            let step = walk.step(&mut yielding).unwrap();
            let passed = &trace[counted..step.steps as usize - 1];
            assert!(
                (passed.iter()).all(|(_, _, status)| *status == StepStatus::Running),
                "{label}: call {calls} passed over a step the arbiter had a say at"
            );
            assert_eq!(seen(&step), trace[step.steps as usize - 1], "{label}");
            (calls, counted) = (calls + 1, step.steps as usize);
        }
        assert!(calls < trace.len(), "{label}: {calls} calls, no run taken");
        assert_eq!(walk.into_summaries(), [reference], "{label}");

        // `max_steps = k`: the walk is free to run up to a stride ahead
        // of each `k`, and every `k` is the target of one of the walks.
        const STRIDE: usize = 13;
        for offset in 1..=STRIDE {
            let shared = fresh();
            let mut walker = Walker::new(&shared);
            let mut walk = StepWalker::new(&mut walker, vec![root.clone()]);
            for k in (offset..trace.len()).step_by(STRIDE) {
                refused_after(&mut walk, k, &trace);
            }
        }
        // And from the start, free to run all the way, at a few.
        for k in (1..8).map(|eighth| eighth * trace.len() / 8) {
            let shared = fresh();
            let mut walker = Walker::new(&shared);
            let mut walk = StepWalker::new(&mut walker, vec![root.clone()]);
            let calls = refused_after(&mut walk, k, &trace);
            assert!(calls < k, "{label}: {calls} calls for {k} steps");
        }
    }

    /// Steps `walk` under `max_steps = k` until it is refused — after
    /// exactly `k` steps, where the step-by-step `trace` stood then.
    /// Returns how many calls that took.
    fn refused_after<P>(walk: &mut StepWalker<'_, '_, '_, P>, k: usize, trace: &[Seen]) -> usize
    where
        P: CheckableProtocol,
        P::Output: Hash + SpillCodec,
    {
        let mut arbiter = BudgetArbiter::new(WalkBudget {
            max_steps: Some(k as u64),
            ..WalkBudget::unlimited()
        });
        let mut calls = 1;
        let mut step = walk.step(&mut arbiter).unwrap();
        while step.status == StepStatus::Running {
            (calls, step) = (calls + 1, walk.step(&mut arbiter).unwrap());
        }
        let (states, depth, _) = trace[k - 1];
        let refused = StepStatus::Refused(BudgetKind::Steps);
        assert_eq!(
            (step.steps, seen(&step)),
            (k as u64, (states, depth, refused))
        );
        calls
    }

    #[test]
    fn steps_inside_runs_are_counted_one_by_one() {
        on_the_accounted_walks!(assert_steps_are_counted);
    }

    /// A harvest taken from a walk suspended anywhere — mid-frame, with
    /// classes met and not yet met below it — leaves the walk able to go
    /// on to the root summary of a walk never harvested: the harvest
    /// reads the frames' class tables and writes nothing in them.  (A
    /// class it gave a summary would count as absorbed by its frame, and
    /// the rows that lead to it would add their terminals to a frame
    /// that never merged the rest.)
    fn assert_harvest_leaves_the_walk_whole<P>(
        system: SystemConfig,
        config: ExploreConfig,
        procs: Vec<P>,
        proposals: Vec<P::Output>,
        label: &str,
    ) where
        P: CheckableProtocol,
        P::Output: Hash + SpillCodec,
    {
        let fresh = || {
            let options = ExploreOptions::serial();
            Shared::new(system, config, &options, &proposals, procs.clone()).unwrap()
        };
        let root = Stepper::new(system, config.model, TraceLevel::Off, procs.clone()).unwrap();
        // Every memoized summary counts, not the root's alone: what a
        // frame failed to merge may be merged by its siblings' parents.
        let image = |shared: &Shared<'_, P>| {
            let mut image = std::collections::BTreeMap::new();
            let entry = |key: &[u8], summary: &Arc<Summary<_>>| {
                image.insert(key.to_vec(), (**summary).clone());
            };
            shared.memo.for_each(entry).unwrap();
            image
        };
        let unharvested = fresh();
        let unbudgeted = &mut BudgetArbiter::new(WalkBudget::unlimited());
        let (trace, _) = step_by_step(&unharvested, &root, unbudgeted);
        let reference = image(&unharvested);
        let mut mid_frame = 0;
        for k in (1..24).map(|part| part * trace.len() / 24) {
            let shared = fresh();
            let mut walker = Walker::new(&shared);
            let mut walk = StepWalker::new(&mut walker, vec![root.clone()]);
            refused_after(&mut walk, k, &trace);
            let top = walk.stack.last().expect("suspended before the end");
            mid_frame += usize::from(0 < top.next_action && top.next_action < top.round.len());
            let mut frontier = Vec::new();
            walk.harvest_into(&[], &mut frontier).unwrap();
            assert!(frontier.len() <= walk.harvestable(), "{label}: at {k}");
            while walk.step(&mut Unbounded).unwrap().status != StepStatus::Done {}
            assert!(image(&shared) == reference, "{label}: harvested at {k}");
        }
        assert!(mid_frame > 12, "{label}: {mid_frame} harvests mid-frame");
    }

    #[test]
    fn a_harvest_mid_frame_leaves_the_walk_whole() {
        on_the_accounted_walks!(assert_harvest_leaves_the_walk_whole);
    }

    /// A system too large for the views' sender masks is explored
    /// entirely on the step path — the factoring imposes no limit on
    /// `n`.  One round of a quiet protocol at `n = 65`, `t = 1`: the
    /// crash-free run, plus each process dying silent or at the end.
    #[test]
    fn systems_beyond_the_view_masks_are_stepped() {
        let n = 65;
        let system = SystemConfig::new(n, 1).unwrap();
        let procs = vec![DecideOwn { v: 3 }; n];
        let report = explore(system, options(2, 10_000), procs, vec![3; n]).unwrap();
        assert_eq!(report.root.terminals, 1 + 2 * n as u64);
        assert!(report.root.decided == vec![3] && !report.root.violating);
    }

    /// `NeverDecide` at `(3, 2)` runs into the round cap: every leaf of
    /// the walk is a terminal with *active* processes, found terminal by
    /// the child's round, not by its records — which say `Active` — and
    /// evaluated from them all the same.  The report is the one the walk
    /// produced when it stepped every such child (PR 19's figures).
    #[test]
    fn round_cap_terminals_are_settled_from_their_records() {
        let system = SystemConfig::new(3, 2).unwrap();
        let procs = vec![NeverDecide; 3];
        let report = explore(system, options(2, 10_000), procs, vec![0u64; 3]).unwrap();
        assert_eq!((report.distinct_states, report.root.terminals), (15, 61));
        assert!(report.root.violating, "the survivors never decide");
        assert_eq!(report.root.worst_round_by_f, vec![None; 3]);
        assert!(report.root.decided.is_empty());
        let witness = report.witness.expect("a violating root has a witness");
        assert!(witness
            .violations
            .iter()
            .all(|v| matches!(v, SpecViolation::Termination { .. })));
    }

    /// A `max_states` limit that falls on a leaf is raised by the records
    /// path where `enter` raised it: `DecideOwn` at `(3, 2)` is a root
    /// and nineteen leaves, so with room for three states the fourth
    /// child trips the limit — after the same four steps, with the same
    /// three states memoized, as when that child was stepped first.
    #[test]
    fn a_state_limit_on_a_leaf_is_raised_from_the_records() {
        let system = SystemConfig::new(3, 2).unwrap();
        let procs: Vec<DecideOwn> = (0..3).map(|v| DecideOwn { v }).collect();
        let proposals = vec![0u64, 1, 2];
        let config = options(4, 3);
        let options = ExploreOptions::serial();
        let shared = Shared::new(system, config, &options, &proposals, procs.clone()).unwrap();
        let root = Stepper::new(system, config.model, TraceLevel::Off, procs).unwrap();
        let mut walker = Walker::new(&shared);
        let mut walk = StepWalker::new(&mut walker, vec![root]);
        let mut steps = 0;
        let failure = loop {
            match walk.step(&mut Unbounded) {
                Ok(step) if step.status == StepStatus::Done => panic!("twenty states fit in three"),
                Ok(step) => steps = step.steps,
                Err(failure) => break failure,
            }
        };
        assert!(matches!(
            failure,
            Interrupt::Failed(ExploreError::StateLimit { budget: 3 })
        ));
        assert_eq!((steps, shared.memo.len()), (4, 3));
    }

    /// Every reachable terminal configuration of `root`, by a memoized
    /// DFS over stepped configurations that shares nothing with the walk
    /// but its order: children are visited in enumeration order, so where
    /// a key does not pin a configuration down (the early decider's state
    /// keeps its decision, not the round it was taken in) both explore
    /// the one met first.
    fn stepped_leaves<P>(walker: &mut Walker<'_, '_, P>, root: &Stepper<P>) -> Vec<Stepper<P>>
    where
        P: CheckableProtocol,
        P::Output: Hash + SpillCodec,
    {
        let (mut seen, mut leaves) = (std::collections::HashSet::new(), Vec::new());
        let mut stack = vec![root.clone()];
        while let Some(stepper) = stack.pop() {
            let mut key = Vec::new();
            make_key_into(&stepper, &mut key);
            if !seen.insert(key) {
                continue;
            }
            if walker.is_terminal(&stepper) {
                leaves.push(stepper);
                continue;
            }

            for actions in action_sets_of(walker, &stepper).iter().rev() {
                let mut child = stepper.clone();
                child.step(actions).unwrap();
                stack.push(child);
            }
        }
        leaves
    }

    /// What a terminal configuration summarizes to, written down again
    /// beside the test that uses it as its reference (uniform spec only).
    fn reference_leaf<P>(shared: &Shared<'_, P>, leaf: &Stepper<P>) -> Summary<P::Output>
    where
        P: CheckableProtocol,
        P::Output: Hash + SpillCodec,
    {
        let mut schedule = CrashSchedule::none(shared.system.n());
        for (i, status) in leaf.status().iter().enumerate() {
            if let ProcStatus::Crashed(round) = status {
                let died = CrashPoint::new(*round, CrashStage::BeforeSend);
                schedule.set(ProcessId::from_idx(i), Some(died));
            }
        }
        let f = schedule.f();
        let bound = shared.config.round_bound.map(|rb| rb.bound(f));
        let report = check_uniform_consensus(shared.proposals, leaf.decisions(), &schedule, bound);
        let mut summary = Summary::empty(shared.system.t());
        summary.terminals = 1;
        summary.violating = !report.ok();
        for decision in leaf.decisions().iter().flatten() {
            let worst = &mut summary.worst_round_by_f[f];
            *worst = (*worst).max(Some(decision.round.get()));
            if !summary.decided.contains(&decision.value) {
                summary.decided.push(decision.value.clone());
            }
        }
        summary
    }

    /// Leaf by leaf: every terminal configuration a stepped DFS reaches
    /// is memoized under the summary a stepped evaluation gives it —
    /// though the walk built none of them and read each off its parent's
    /// records.  Returns how many leaves were compared.
    fn assert_leaves_are_memoized_as_evaluated<P>(
        system: SystemConfig,
        config: ExploreConfig,
        procs: Vec<P>,
        proposals: Vec<P::Output>,
        label: &str,
    ) -> usize
    where
        P: CheckableProtocol,
        P::Output: Hash + SpillCodec,
    {
        let options = ExploreOptions::serial();
        let shared = Shared::new(system, config, &options, &proposals, procs.clone()).unwrap();
        let root = Stepper::new(system, config.model, TraceLevel::Off, procs).unwrap();
        let mut walker = Walker::new(&shared);
        let mut walk = StepWalker::new(&mut walker, vec![root.clone()]);
        while walk.step(&mut Unbounded).unwrap().status != StepStatus::Done {}
        let leaves = stepped_leaves(&mut walker, &root);
        for leaf in &leaves {
            let (hash, _) = walker.canonical_key(leaf);
            let memoized = shared.memo.get(hash, walker.key_bytes()).unwrap();
            assert_eq!(
                memoized.as_deref(),
                Some(&reference_leaf(&shared, leaf)),
                "{label}: {:?} {:?}",
                leaf.status(),
                leaf.decisions()
            );
        }
        leaves.len()
    }

    /// The leaves a correct protocol's *root* summary cannot tell apart
    /// are told apart here: a crashed process's decision, an active
    /// one's, a leaf on the round cap.
    #[test]
    fn leaves_are_memoized_as_a_stepped_evaluation_summarizes_them() {
        let system = SystemConfig::new(3, 2).unwrap();
        let own: Vec<DecideOwn> = (0..3).map(|v| DecideOwn { v }).collect();
        let leaves = assert_leaves_are_memoized_as_evaluated(
            system,
            options(4, 10_000),
            own,
            vec![0u64, 1, 2],
            "decide-own",
        );
        assert_eq!(leaves, 19);
        assert_leaves_are_memoized_as_evaluated(
            system,
            options(2, 10_000),
            vec![NeverDecide; 3],
            vec![0u64; 3],
            "never-decide on the round cap",
        );
        let system = SystemConfig::new(4, 3).unwrap();
        let ranks: Vec<u64> = (0..4).map(|i| 10 + (i * 7) % 4).collect();
        let classic = ExploreConfig {
            model: ModelKind::Classic,
            ..options(5, 1_000_000)
        };
        assert_leaves_are_memoized_as_evaluated(
            system,
            classic,
            twostep_baselines::nonuniform_processes(4, 3, &ranks),
            ranks,
            "nonuniform early decider",
        );
        let system = SystemConfig::new(5, 4).unwrap();
        let bits: Vec<_> = (0..5)
            .map(|i| twostep_model::WideValue::new(1, i % 2))
            .collect();
        let config = ExploreConfig {
            symmetry: Symmetry::Off,
            ..ExploreConfig::for_crw(&system)
        };
        let procs = twostep_core::crw_processes(&system, &bits);
        assert_leaves_are_memoized_as_evaluated(system, config, procs, bits, "crw (5, 4)");
    }

    /// Terminals that end alike are memoized under one `Arc`: over the
    /// CRW `(5, 4)` walk, any two leaves whose memoized summaries are
    /// equal hold the *same* summary — with symmetry off, on the settled
    /// tier and under `partial+value`, where the summary is interned in
    /// canonical space — and the walk's verdict is what it was when every
    /// leaf had a summary of its own.
    #[test]
    fn equal_terminal_outcomes_share_one_summary() {
        use twostep_model::WideValue;
        let system = SystemConfig::new(5, 4).unwrap();
        let bits: Vec<WideValue> = (0..5).map(|i| WideValue::new(1, i % 2)).collect();
        let procs = twostep_core::crw_processes(&system, &bits);
        // States, terminals and worst rounds per `f` as PR 19 reports them.
        for (symmetry, states) in [
            (Symmetry::Off, 815),
            (Symmetry::Full, 314),
            (Symmetry::PartialValue, 235),
        ] {
            let config = ExploreConfig {
                symmetry,
                ..ExploreConfig::for_crw(&system)
            };
            let options = ExploreOptions::serial();
            let shared = Shared::new(system, config, &options, &bits, procs.clone()).unwrap();
            let root = Stepper::new(system, config.model, TraceLevel::Off, procs.clone()).unwrap();
            let mut walker = Walker::new(&shared);
            let mut walk = StepWalker::new(&mut walker, vec![root.clone()]);
            while walk.step(&mut Unbounded).unwrap().status != StepStatus::Done {}
            let summary = walk.into_summaries().remove(0);
            assert_eq!(
                (shared.memo.len(), summary.terminals, summary.violating),
                (states, 36_365, false),
                "{symmetry:?}"
            );
            let worst_rounds: Vec<_> = (1..=5).map(Some).collect();
            assert_eq!(summary.worst_round_by_f, worst_rounds, "{symmetry:?}");
            assert_eq!(summary.decided, &bits[..2], "{symmetry:?}");

            let leaves = stepped_leaves(&mut walker, &root);
            let mut distinct: Vec<Arc<Summary<WideValue>>> = Vec::new();
            for leaf in &leaves {
                let (hash, _) = walker.canonical_key(leaf);
                let memoized = shared.memo.get(hash, walker.key_bytes()).unwrap();
                let memoized = memoized.expect("the walk memoized every leaf");
                match distinct.iter().find(|met| ***met == *memoized) {
                    Some(met) => assert!(Arc::ptr_eq(met, &memoized), "{symmetry:?}"),
                    None => distinct.push(memoized),
                }
            }
            let interned: usize = walker.terminals.distinct.iter().map(Vec::len).sum();
            assert_eq!(distinct.len(), interned, "{symmetry:?}");
            assert!(
                leaves.len() > 4 * distinct.len(),
                "{symmetry:?}: {} leaves end in {} ways",
                leaves.len(),
                distinct.len()
            );
        }
    }
}
