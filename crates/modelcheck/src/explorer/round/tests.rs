//! The tests that read a round's tables or the walker's block cache.
//! They run as `explorer::tests::<name>` — the ids the first of them
//! have always had; the `#[test]` entry points are in `tests.rs` — so
//! here they are plain functions.  The walker that steps them and
//! serves as their oracle is the one place a module of the chain looks
//! at a later one.

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
                round.classify(idx);
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
    // block simulation and Duo, raw and quotiented: settled records
    // pooled (no process of these systems is rank-inert: t = n − 1,
    // or a protocol that declares none) and the value quotient on
    // top where the proposals admit it.
    for symmetry in [Symmetry::Off, Symmetry::PartialValue] {
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
    flag_in_place(&root.unwrap(), 2, &mut in_place);
    assert_eq!(in_place, [true, true, true, false, false]);
    let compared = assert_assembled_keys_match_stepped(
        system,
        ModelKind::Extended,
        6,
        procs,
        bits,
        "crw below maximal resilience",
        Symmetry::PartialValue,
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
            let live: Vec<ProcessId> = shape.data_dests.iter().copied().filter(is_active).collect();
            let ks: Vec<usize> = (1..=shape.control_len)
                .filter(|k| is_active(&shape.control_dests[k - 1]))
                .collect();
            let mut stages = Vec::new();
            crash_outcomes_effective_into(n, &live, !shape.data_dests.is_empty(), &ks, &mut stages);
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
        round.classify(idx);
        assert_eq!(cursor(round), *expected, "{label}: row {idx} stepped to");
    }
    for idx in (0..reference.len()).rev().step_by(3) {
        round.classify(idx);
        assert_eq!(cursor(round), reference[idx], "{label}: row {idx} sought");
        if let Some(expected) = reference.get(idx + 1) {
            round.classify(idx + 1);
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
            assert_odometer_matches(round, &reference, &format!("{label}: {}", stepper.round()));
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
    let class = round.classify(a);
    let view = round.sent.view(&round.row, 3);
    assert_eq!(round.classify(b), class, "one class for both rows");
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
    assert!(frame.round.classes.values[class].is_some());
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
/// one orbit under the pooled tier: `p_2` stands in place in both,
/// and the settled records are the same three, two of them in
/// exchanged slots.  One key is assembled and probed, at the first
/// row; the second is answered by the orbit table, and the child is
/// absorbed in full both times.
pub(in crate::explorer) fn rows_that_permute_settled_records_share_an_orbit_and_are_each_absorbed()
{
    use twostep_model::WideValue;
    let system = SystemConfig::new(4, 3).unwrap();
    let proposals: Vec<WideValue> = (0..4).map(|i| WideValue::new(1, i % 2)).collect();
    let procs = twostep_core::crw_processes(&system, &proposals);
    let config = ExploreConfig {
        symmetry: Symmetry::PartialValue,
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
    let orbits = frame.round.orbits.as_deref().expect("a pooled-tier round");
    assert_eq!(frame.round.classes.values.len(), 2);
    assert!(frame.round.classes.values.iter().all(Option::is_some));
    assert_eq!(orbits.table.values.len(), 1);
    assert!(orbits.table.values[0].is_some());
    frame.next_action = frame.round.len();
    assert_eq!(walk.step(by_step).unwrap().status, StepStatus::Done);
    assert_eq!(walk.into_summaries()[0].terminals, 2 * child_terminals);
}

/// Cuts every round met along seeded random paths into blocks as the
/// definition reads — maximal runs of rows that agree on every slot
/// up to the round's last sender, read off the cursor row — and has
/// the round write each block's content at its first row: a block of
/// more than one row has one, with its length, and blocks that share
/// one classify row for row to the same classes.  Returns how many
/// blocks repeated an earlier one's content, and the length of the
/// longest.
fn assert_blocks_of_a_content_classify_alike<P>(
    system: SystemConfig,
    procs: Vec<P>,
    proposals: Vec<P::Output>,
    symmetry: Symmetry,
    label: &str,
) -> (usize, usize)
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let (mut repeats, mut longest) = (0, 0);
    let model = ModelKind::Extended;
    on_random_paths(
        system,
        model,
        6,
        None,
        symmetry,
        procs,
        proposals,
        |_, _, round| {
            let slots = round.row.len();
            let last_sender = round.sent.senders().last().copied();
            let cut = last_sender.map_or(slots, |last| last + 1);
            assert_eq!(round.cut, cut, "{label}");
            // The class of every row, and the first row of every
            // block with the content the round writes for it.
            let (mut classes, mut starts) = (Vec::new(), Vec::new());
            let mut prefix = None;
            for idx in 0..round.len() {
                classes.push(round.classify(idx));
                let here = last_sender.map(|last| round.row[..=last].to_vec());
                if idx == 0 || here != prefix {
                    let rows = (cut < slots).then(|| round.cursor_content()).flatten();
                    starts.push((idx, rows.map(|rows| (round.content.clone(), rows))));
                    prefix = here;
                }
            }
            starts.push((classes.len(), None));
            let mut classes_of = std::collections::HashMap::new();
            for pair in starts.windows(2) {
                let ((first, content), (end, _)) = (&pair[0], &pair[1]);
                let block = &classes[*first..*end];
                let Some((content, rows)) = content else {
                    assert!(cut == slots || block.len() == 1, "{label}: {block:?}");
                    continue;
                };
                assert_eq!(*rows, block.len(), "{label}");
                longest = longest.max(*rows);
                if let Some(earlier) = classes_of.insert(content, block) {
                    assert_eq!(earlier, block, "{label}: block at row {first}");
                    repeats += 1;
                }
            }
        },
    );
    (repeats, longest)
}

pub(in crate::explorer) fn blocks_of_one_signature_classify_row_for_row_alike() {
    use twostep_model::WideValue;
    for (n, t) in [(5, 4), (4, 3)] {
        let system = SystemConfig::new(n, t).unwrap();
        let bits: Vec<WideValue> = (0..n as u64).map(|i| WideValue::new(1, i % 2)).collect();
        for symmetry in [Symmetry::Off, Symmetry::PartialValue] {
            let label = format!("crw ({n}, {t}) {symmetry:?}");
            let procs = twostep_core::crw_processes(&system, &bits);
            let (repeats, longest) = assert_blocks_of_a_content_classify_alike(
                system,
                procs,
                bits.clone(),
                symmetry,
                &label,
            );
            assert!(repeats > 10, "{label}: {repeats} blocks repeated");
            assert!(longest < BEYOND_BLOCKS as usize, "{label}: {longest} rows");
        }
    }
}

/// A FloodSet round in which the last slot has something fresh to
/// flood, hence sends, has no slot past the cut: none of its rows
/// starts a block, so a walk over them neither takes a block nor writes
/// a block's content.
pub(in crate::explorer) fn a_round_whose_last_slot_sends_builds_no_signature() {
    let system = SystemConfig::new(4, 3).unwrap();
    let ranks: Vec<u64> = (0..4).map(|i| 10 + (i * 7) % 4).collect();
    let procs = twostep_baselines::floodset_processes(4, 3, &ranks);
    let model = ModelKind::Classic;
    let mut sending = 0;
    on_random_paths(
        system,
        model,
        5,
        None,
        Symmetry::Off,
        procs,
        ranks,
        |_, _, round| {
            let slots = round.row.len();
            if round.sent.senders().last() != Some(&(slots - 1)) {
                return;
            }
            assert_eq!(round.cut, slots);
            // The walker writes a content at a block start only.
            for idx in 0..round.len() {
                round.classify(idx);
                assert!(!round.cursor_starts_block(), "row {idx} starts a block");
            }
            sending += round.len();
        },
    );
    assert!(sending > 1_000, "only {sending} rows");
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
    let buckets = |round: &RoundKeys<_>| round.classes.index.0.len();
    assert_eq!(buckets(&round), ClassTable::<WideValue>::START_BUCKETS);
    for idx in 0..round.len() {
        round.classify(idx);
    }
    let classes = round.classes.values.len();
    assert!(classes < round.len() / 4, "{classes} classes");
    assert!(2 * classes <= buckets(&round) && buckets(&round) < 4 * classes + 4);
}

/// A shape as the cache tests store it: one value decided at round
/// `value` by a crash-free terminal.
fn shape(value: u64) -> Summary<u64> {
    Summary {
        terminals: 0,
        worst_round_by_f: vec![Some(value as u32), None],
        decided: vec![value],
        violating: false,
    }
}

/// Two contents forced to one hash share a set and never answer for
/// each other: a hit is verified on the full bytes.
pub(in crate::explorer) fn block_cache_contents_of_one_hash_never_answer_for_each_other() {
    let mut cache = BlockCache::<u64>::new();
    let (a, b) = (&b"content-a"[..], &b"content-b-longer"[..]);
    let forged = 0xDEAD_BEEF_u64;
    cache.store(forged, a, 3, 7, Arc::new(shape(1)));
    assert_eq!(cache.get(forged, a), Some((3, 7, &shape(1))));
    assert_eq!(cache.get(forged, b), None, "a answered for b");
    cache.store(forged, b, 4, 9, Arc::new(shape(2)));
    assert_eq!(cache.get(forged, b), Some((4, 9, &shape(2))));
    assert_eq!(
        cache.get(forged, a),
        Some((3, 7, &shape(1))),
        "b answered for a"
    );
}

/// The index grows with the contents stored, and growing loses none:
/// every content stored answers with what it was stored with, none
/// answers for another, and a second store of a content keeps the
/// first.  The arena holds each content once, at its own length.
pub(in crate::explorer) fn block_cache_growth_keeps_stored_contents_answerable() {
    let mut cache = BlockCache::<u64>::new();
    assert!(cache.get(1, b"x").is_none() && cache.index.0.is_empty());
    let content = |i: u64| {
        let mut bytes = i.to_le_bytes().to_vec();
        bytes.resize(1 + (i % 37) as usize * 5, i as u8);
        bytes
    };
    let answer = |cache: &BlockCache<u64>, i: u64| {
        let bytes = content(i);
        let got = cache.get(stable_hash64(&bytes), &bytes);
        got.map(|(rows, terminals, shape)| (rows, terminals, shape.clone()))
    };
    let stored = |i: u64| Some((i as usize, 2 * i, shape(i % 3)));
    const STORES: u64 = 3_000;
    for i in 0..STORES {
        let (bytes, buckets) = (content(i), cache.index.0.len());
        let shape = Arc::new(shape(i % 3));
        cache.store(stable_hash64(&bytes), &bytes, i as usize, 2 * i, shape);
        if cache.index.0.len() != buckets {
            assert!((0..=i).all(|j| answer(&cache, j) == stored(j)), "store {i}");
        }
    }
    assert!((0..STORES).all(|i| answer(&cache, i) == stored(i)));
    assert!((STORES..2 * STORES).all(|i| answer(&cache, i).is_none()));
    let buckets = cache.index.0.len();
    assert!(
        buckets.is_power_of_two()
            && buckets / 4 < cache.slots.len()
            && cache.slots.len() <= buckets / 2
    );
    let bytes = content(0);
    cache.store(stable_hash64(&bytes), &bytes, 9, 9, Arc::new(shape(2)));
    assert_eq!(
        answer(&cache, 0),
        stored(0),
        "the second store replaced the first"
    );
    assert_eq!(cache.slots.len(), STORES as usize);
    let records: usize = (cache.slots.iter())
        .map(|block| cache.record(block).content.end - block.at as usize)
        .sum();
    assert_eq!(records, cache.arena.len());
}

/// A content is kept whatever its length — none, or longer than any
/// block's — and answers with what was stored under it.
pub(in crate::explorer) fn block_cache_keeps_a_content_of_any_length() {
    let mut cache = BlockCache::<u64>::new();
    let long = vec![7; 1 << 16];
    let (hash, empty_hash) = (2, 3);
    cache.store(hash, &long, 3, 7, Arc::new(shape(1)));
    cache.store(empty_hash, &[], 1, 2, Arc::new(shape(2)));
    assert_eq!(cache.get(hash, &long), Some((3, 7, &shape(1))));
    assert_eq!(cache.get(empty_hash, &[]), Some((1, 2, &shape(2))));
    assert_eq!(cache.get(hash, &long[1..]), None);
}

/// A walker whose cache keeps nothing takes no block at all: it walks
/// each block row by row, to the same summaries and the same states.
pub(in crate::explorer) fn a_walk_whose_cache_keeps_nothing_ends_alike() {
    use twostep_model::WideValue;
    let system = SystemConfig::new(5, 4).unwrap();
    let bits: Vec<WideValue> = (0..5).map(|i| WideValue::new(1, i % 2)).collect();
    let procs = twostep_core::crw_processes(&system, &bits);
    let root = Stepper::new(system, ModelKind::Extended, TraceLevel::Off, procs.clone()).unwrap();
    let walk = |keeps: bool| {
        let config = ExploreConfig::for_crw(&system);
        let options = ExploreOptions::serial();
        let shared = Shared::new(system, config, &options, &bits, procs.clone()).unwrap();
        let mut walker = Walker::new(&shared);
        walker.blocks.keeps = keeps;
        let mut walk = StepWalker::new(&mut walker, vec![root.clone()]);
        let mut yielding = BudgetArbiter::new(WalkBudget {
            yield_every: Some(BEYOND_BLOCKS),
            ..WalkBudget::unlimited()
        });
        while walk.step(&mut yielding).unwrap().status != StepStatus::Done {}
        let (counts, summaries) = (walk.block_counts(), walk.into_summaries());
        assert_eq!(walker.blocks.slots.is_empty(), !keeps, "{counts:?}");
        (counts, summaries, shared.memo.len())
    };
    let (cached, summaries, states) = walk(true);
    let (bare, bare_summaries, bare_states) = walk(false);
    assert!(cached.whole > 0, "{cached:?}");
    assert_eq!(bare, BlockCounts::default());
    assert_eq!((bare_summaries, bare_states), (summaries, states));
}

/// Shapes are interned by value, in the walker's summary interner: a
/// summary's worst rounds, its values in discovery order, its flag and
/// its count, which a block's accumulator zeroes before its shape is
/// stored.  Over the CRW `(5, 4)` walk, every shape the cache stores
/// has no terminal, is the interner's own `Arc`, and two equal ones are one
/// allocation.
pub(in crate::explorer) fn block_cache_equal_shapes_share_one_id() {
    use twostep_model::WideValue;
    let mut interner = SummaryInterner::new();
    let one = interner.interned(&shape(1));
    assert!(Arc::ptr_eq(&interner.interned(&shape(1)), &one));
    assert!(Arc::ptr_eq(&interner.intern(shape(1)), &one));
    assert!(!Arc::ptr_eq(&interner.interned(&shape(2)), &one));
    let counted = Summary {
        terminals: 40,
        ..shape(1)
    };
    assert!(!Arc::ptr_eq(&interner.interned(&counted), &one));
    let both = |decided: Vec<u64>| Summary {
        decided,
        ..shape(1)
    };
    let (ascending, descending) = (both(vec![1, 2]), both(vec![2, 1]));
    assert!(!Arc::ptr_eq(
        &interner.interned(&ascending),
        &interner.interned(&descending)
    ));
    assert_eq!(interner.len(), 5);

    let system = SystemConfig::new(5, 4).unwrap();
    let bits: Vec<WideValue> = (0..5).map(|i| WideValue::new(1, i % 2)).collect();
    let procs = twostep_core::crw_processes(&system, &bits);
    let config = ExploreConfig::for_crw(&system);
    let options = ExploreOptions::serial();
    let shared = Shared::new(system, config, &options, &bits, procs.clone()).unwrap();
    let root = Stepper::new(system, ModelKind::Extended, TraceLevel::Off, procs).unwrap();
    let mut walker = Walker::new(&shared);
    let mut walk = StepWalker::new(&mut walker, vec![root]);
    while walk.step(&mut Unbounded).unwrap().status != StepStatus::Done {}
    drop(walk);
    let stored: Vec<_> = walker
        .blocks
        .slots
        .iter()
        .map(|block| &block.shape)
        .collect();
    let mut distinct: Vec<&Arc<Summary<WideValue>>> = Vec::new();
    for &shape in &stored {
        assert_eq!(shape.terminals, 0, "a shape has no terminal");
        assert!(Arc::ptr_eq(shape, &walker.interner.interned(shape)));
        match distinct.iter().find(|met| ***met == *shape) {
            Some(met) => assert!(Arc::ptr_eq(met, shape)),
            None => distinct.push(shape),
        }
    }
    assert!(
        stored.len() > 2 * distinct.len(),
        "{} blocks stored, {} shapes",
        stored.len(),
        distinct.len()
    );
}

/// Reads the block a cache slot holds back into its rows and checks
/// it against the memo: the content decoded into the raw key of each
/// row's child, in enumeration order — one record per process, each
/// slot from the cut on taking its outcomes survival first, the last
/// fastest, at most the crashes left of them crashing — and each key's
/// summary read from the memo.  The slot's row count is the rows', its
/// terminals their sum, and its shape their fold.
fn assert_cached_block_is_its_rows<P>(
    shared: &Shared<'_, P>,
    cache: &BlockCache<P::Output>,
    slot: usize,
    label: &str,
) where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let stored = &cache.slots[slot];
    let (mut input, record) = (cache.content(stored), cache.record(stored));
    let decode = |input: &mut &[u8]| u32::decode(input).expect("a u32");
    let (round, processes, left) = (decode(&mut input), decode(&mut input), decode(&mut input));
    // A record is as long as the key decoder finds a one-process key
    // made of it.
    let split = |input: &mut &[u8]| {
        let mut key = Vec::new();
        round.encode(&mut key);
        1u32.encode(&mut key);
        let head = key.len();
        key.extend_from_slice(input);
        let mut rest = &key[..];
        crate::memo::decode_key_prefix::<P>(&mut rest).expect("a key record");
        let (record, tail) = input.split_at(key.len() - head - rest.len());
        *input = tail;
        record.to_vec()
    };
    // Per process, the records a row may give it, survival first.
    let mut choices: Vec<Vec<Vec<u8>>> = Vec::new();
    for _ in 0..processes {
        let count = usize::decode(&mut input).expect("a record count");
        choices.push((0..count).map(|_| split(&mut input)).collect());
    }
    assert!(input.is_empty(), "{label}: slot {slot} has trailing bytes");
    fn product(choices: &[usize], left: usize, row: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        let Some((&count, rest)) = choices.split_first() else {
            out.push(row.clone());
            return;
        };
        for outcome in 0..if left > 0 { count } else { 1 } {
            row.push(outcome);
            product(rest, left - usize::from(outcome > 0), row, out);
            row.pop();
        }
    }
    let mut rows = Vec::new();
    let counts: Vec<usize> = choices.iter().map(Vec::len).collect();
    product(&counts, left as usize, &mut Vec::new(), &mut rows);
    let mut folded = Summary::empty(shared.system.t());
    for row in &rows {
        let mut key = Vec::new();
        round.encode(&mut key);
        processes.encode(&mut key);
        for (records, &outcome) in choices.iter().zip(row) {
            key.extend_from_slice(&records[outcome]);
        }
        let summary = shared.memo.get(stable_hash64(&key), &key).unwrap();
        folded.absorb(&summary.expect("a cached block's children are memoized"));
    }
    assert_eq!(
        (record.rows, record.terminals),
        (rows.len(), folded.terminals),
        "{label}: slot {slot}"
    );
    folded.terminals = 0;
    assert_eq!(*stored.shape, folded, "{label}: slot {slot}");
}

/// Every block the cache stores ([`assert_cached_block_is_its_rows`]) —
/// whichever frame absorbed each class its rows reach: in the block, or
/// before the block opened; a round's last block among them.  Returns
/// how many blocks were checked.
fn assert_cached_blocks_are_their_rows<P>(
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
    // Under a raw plan a child's raw key is its memo key.
    let config = ExploreConfig {
        symmetry: Symmetry::Off,
        ..config
    };
    let options = ExploreOptions::serial();
    let shared = Shared::new(system, config, &options, &proposals, procs.clone()).unwrap();
    let root = Stepper::new(system, config.model, TraceLevel::Off, procs).unwrap();
    let mut walker = Walker::new(&shared);
    let mut walk = StepWalker::new(&mut walker, vec![root]);
    while walk.step(&mut Unbounded).unwrap().status != StepStatus::Done {}
    drop(walk);
    // The memo forgets nothing either: each block's children are there.
    for slot in 0..walker.blocks.slots.len() {
        assert_cached_block_is_its_rows(&shared, &walker.blocks, slot, label);
    }
    walker.blocks.slots.len()
}

pub(in crate::explorer) fn cached_blocks_are_the_fold_of_their_rows() {
    let (crw, floodset) = on_the_accounted_walks!(assert_cached_blocks_are_their_rows);
    assert!(
        crw > 10 && floodset > 10,
        "stores checked: {crw}, {floodset}"
    );
}

/// A class the frame absorbed before a block opened and the block's
/// rows repeat is in what the block stores, so a later frame that
/// takes the block from the cache absorbs it too.  In the walks of
/// this suite such a class never adds what the block's other rows do
/// not, so this drives the CRW `(4, 3)` root round by hand, with
/// made-up summaries whose worst rounds name the classes they stand
/// for.  (Every row repeats the same class here — the accumulator asks
/// nothing of the row.)
pub(in crate::explorer) fn a_block_stores_the_classes_its_rows_repeat() {
    use twostep_model::WideValue;
    let system = SystemConfig::new(4, 3).unwrap();
    let proposals: Vec<WideValue> = (0..4).map(|i| WideValue::new(1, i % 2)).collect();
    let procs = twostep_core::crw_processes(&system, &proposals);
    let config = ExploreConfig::for_crw(&system);
    let options = ExploreOptions::serial();
    let shared = Shared::new(system, config, &options, &proposals, procs.clone()).unwrap();
    let root = Stepper::new(system, ModelKind::Extended, TraceLevel::Off, procs).unwrap();
    let mut walker = Walker::new(&shared);
    let marked = |f: usize, round: u32, terminals: u64| {
        let mut summary = Summary::empty(3);
        summary.worst_round_by_f[f] = Some(round);
        summary.terminals = terminals;
        Arc::new(summary)
    };
    let class = |class| ChildClass { class, orbit: None };

    let (mut cache, mut acc) = (BlockCache::new(), Summary::empty(3));
    let mut interner = SummaryInterner::new();
    let mut round = walker.open_round(&root).unwrap();
    let before = round.classify(0);
    assert!(round.cursor_starts_block());
    round.absorb(&mut acc, class(before), marked(0, 7, 2));
    let taken = round.take_block(0, &mut acc, &mut cache, &mut interner, || u64::MAX);
    assert_eq!(taken, None);
    let inside = round.classify(1);
    round.absorb(&mut acc, class(inside), marked(1, 8, 3));
    let end = (2..round.len())
        .find(|&idx| {
            round.classify(idx);
            round.cursor_starts_block()
        })
        .expect("a second block");
    for _ in 2..end {
        acc.terminals += round.repeat(before).expect("absorbed before the block");
    }
    round.classify(end);
    round.take_block(end, &mut acc, &mut cache, &mut interner, || 0);
    let added = 3 + 2 * (end as u64 - 2);
    let stored = cache.slots.first();
    let stored = stored.expect("the block is stored when the walk leaves it");
    let record = cache.record(stored);
    assert_eq!((record.rows, record.terminals), (end, added));
    assert_eq!(
        stored.shape.worst_round_by_f,
        [Some(7), Some(8), None, None]
    );

    // A frame that has absorbed nothing takes the block whole.
    let (mut later, mut acc) = (walker.open_round(&root).unwrap(), Summary::empty(3));
    later.classify(0);
    let taken = later.take_block(0, &mut acc, &mut cache, &mut interner, || u64::MAX);
    assert_eq!(taken, Some(end));
    assert_eq!(acc.worst_round_by_f, [Some(7), Some(8), None, None]);
    assert_eq!(acc.terminals, added);
}

/// A round's last block is stored when its frame pops: after a walk,
/// the root round's last block — more than one row, completed by the
/// root's frame alone, as no other frame of the walk plays round 1 —
/// is taken whole by a later frame of the same configuration, with
/// what the root's rows folded into it.
pub(in crate::explorer) fn a_rounds_last_block_is_taken_whole_by_a_later_frame() {
    use twostep_model::WideValue;
    let system = SystemConfig::new(4, 3).unwrap();
    let bits: Vec<WideValue> = (0..4).map(|i| WideValue::new(1, i % 2)).collect();
    let procs = twostep_core::crw_processes(&system, &bits);
    let config = ExploreConfig::for_crw(&system);
    let options = ExploreOptions::serial();
    let shared = Shared::new(system, config, &options, &bits, procs.clone()).unwrap();
    let root = Stepper::new(system, ModelKind::Extended, TraceLevel::Off, procs).unwrap();
    let mut walker = Walker::new(&shared);
    let mut walk = StepWalker::new(&mut walker, vec![root.clone()]);
    while walk.step(&mut Unbounded).unwrap().status != StepStatus::Done {}
    let whole = walk.into_summaries().remove(0);

    let mut later = walker.open_round(&root).unwrap();
    let last = (0..later.len()).rev().find(|&idx| {
        later.classify(idx);
        later.cursor_starts_block()
    });
    let last = last.expect("the root round has blocks");
    let (cache, interner) = (&mut walker.blocks, &mut walker.interner);
    let mut acc = Summary::empty(3);
    let taken = later.take_block(last, &mut acc, cache, interner, || u64::MAX);
    assert_eq!(taken, Some(later.len() - last));
    assert!(later.len() - last > 1, "a block of one row is never stored");
    assert!(0 < acc.terminals && acc.terminals < whole.terminals);
    assert!(!acc.decided.is_empty(), "a value decided in it");
}

/// The serial CRW `(n, n - 1)` walk, `i % 2` proposals, under
/// `symmetry`: the blocks its rounds took whole from the cache and
/// split, and the blocks the cache stored and its bytes.
fn block_traffic(n: usize, symmetry: Symmetry) -> (BlockCounts, usize, usize) {
    use twostep_model::WideValue;
    let system = SystemConfig::new(n, n - 1).unwrap();
    let bits: Vec<WideValue> = (0..n).map(|i| WideValue::new(1, i as u64 % 2)).collect();
    let procs = twostep_core::crw_processes(&system, &bits);
    let config = ExploreConfig {
        symmetry,
        ..ExploreConfig::for_crw(&system)
    };
    let options = ExploreOptions::serial();
    let shared = Shared::new(system, config, &options, &bits, procs.clone()).unwrap();
    let root = Stepper::new(system, ModelKind::Extended, TraceLevel::Off, procs).unwrap();
    let mut walker = Walker::new(&shared);
    let mut walk = StepWalker::new(&mut walker, vec![root]);
    while walk.step(&mut Unbounded).unwrap().status != StepStatus::Done {}
    let counts = walk.block_counts();
    drop(walk);
    let cache = &walker.blocks;
    let bytes = cache.slots.capacity() * std::mem::size_of::<CachedBlock<WideValue>>()
        + cache.index.0.capacity() * std::mem::size_of::<u32>()
        + cache.arena.capacity();
    (counts, cache.slots.len(), bytes)
}

/// The block traffic of the serial CRW `(8, 7)` walk in both symmetry
/// modes, pinned: these counts repeat exactly, so a change that loses
/// cache hits — or takes a block it did not before — fails here.  In
/// release only (`ci.sh` runs it); debug builds classify every row of
/// a block taken whole again.
pub(in crate::explorer) fn block_traffic_at_8_7_is_pinned() {
    let pinned = |whole, split| BlockCounts { whole, split };
    for (symmetry, counts, blocks) in [
        (Symmetry::Off, pinned(21_808, 0), 9_559),
        (Symmetry::PartialValue, pinned(14_033, 0), 4_629),
    ] {
        let (met, stored, bytes) = block_traffic(8, symmetry);
        eprintln!("(8, 7) {symmetry:?}: {met:?}, {stored} blocks stored, {bytes} bytes");
        assert_eq!((met, stored), (counts, blocks), "(8, 7) under {symmetry:?}");
    }
}
