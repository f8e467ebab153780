//! Exhaustive enumeration of the adversary's choices in one round.
//!
//! [`crash_outcomes_effective_into`] lists the crash stages open to the
//! adversary against **one** process's send plan in **one** round, one
//! per distinct effect on the processes still active.  This is what the
//! model checker branches on.  For a plan whose data destinations are
//! `Δ` and whose ordered control list has length `c`, with every
//! receiver active, the distinct observable outcomes are exactly
//!
//! * `MidData{S}` for every *proper* subset `S ⊊ Δ` (the data step was
//!   interrupted; includes `S = ∅`, which subsumes `BeforeSend`);
//! * `MidControl{k}` for `k = 0 ..= c` (data step completed, commit
//!   prefix of length `k` delivered; `k = 0` subsumes `MidData{Δ}`, and
//!   for an empty `Δ` it is `MidData{∅}` already, so `k` starts at 1);
//! * `EndOfRound` (full participation, then death).
//!
//! Any other stage produces an outcome identical to one of these, so
//! enumerating them, and nothing else, makes the execution tree both
//! complete and non-redundant.  Where some receivers are already settled
//! (decided or crashed), stages that differ only in deliveries to them
//! collapse further; the function's docs say how.
//! [`crash_outcome_count`] counts the list without building it.

use twostep_model::{CrashStage, PidSet, ProcessId};

/// Fills `out` (cleared first) with one representative crash stage per
/// **live-effect class** of the outcomes against one round's send plan:
/// the complete list of the module docs, quotiented by "produces the
/// same deliveries to still-*active* receivers".  Deliveries to crashed
/// or decided receivers are dropped by the engine without any
/// configuration-visible effect, so two stages differing only there step
/// to bit-identical successors; enumerating both multiplies identical
/// subtrees into the execution count without adding a single behavior.
/// The model checker therefore branches on this pruned set — uniformly,
/// in every engine — and `terminals` counts *effectively distinct*
/// executions.
///
/// The caller pre-resolves liveness (it owns the configuration):
///
/// * `live_data_dests` — the plan's data destinations that are still
///   active (a subset of the raw `Δ`);
/// * `had_data_plan` — whether the *raw* plan had any data destination
///   (distinguishes "no data step at all" from "data step aimed only at
///   settled receivers", which changes which stage represents the
///   nothing-delivered class);
/// * `live_control_ks` — ascending 1-based prefix lengths `k` whose
///   `k`-th control destination is still active.  A prefix whose last
///   entry is settled has the same live effect as the next shorter one,
///   so only these lengths (plus 0) represent distinct commit windows.
///
/// The order is fixed: data subsets by ascending mask, then commit
/// prefixes by ascending length, then [`CrashStage::EndOfRound`].  With
/// every receiver live this is the complete list of the module docs:
/// the quotient is the identity on a live system.
///
/// # Panics
///
/// Panics if `live_data_dests.len() > 20`: enumerating 2²⁰ subsets is
/// never what a bounded model check wants.
pub fn crash_outcomes_effective_into(
    n: usize,
    live_data_dests: &[ProcessId],
    had_data_plan: bool,
    live_control_ks: &[usize],
    out: &mut Vec<CrashStage>,
) {
    assert!(
        live_data_dests.len() <= 20,
        "exhaustive subset enumeration capped at 20 destinations"
    );
    debug_assert!(
        live_control_ks.windows(2).all(|w| w[0] < w[1]),
        "live prefix lengths are strictly ascending"
    );
    out.clear();
    let dl = live_data_dests.len();
    if dl > 0 {
        // Proper subsets of the live destination set, ascending mask; the
        // full live set is subsumed by `MidControl{0}` (data step done).
        let subsets = 1usize << dl;
        for mask in 0..subsets - 1 {
            let mut delivered = PidSet::empty(n);
            for (bit, pid) in live_data_dests.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    delivered.insert(*pid);
                }
            }
            out.push(CrashStage::MidData { delivered });
        }
        out.push(CrashStage::MidControl { prefix_len: 0 });
    } else if had_data_plan {
        // Every data subset delivers to settled receivers only — the
        // whole family collapses into `MidControl{0}`'s class.
        out.push(CrashStage::MidControl { prefix_len: 0 });
    } else {
        // No data step at all: `MidData{∅}` is the canonical
        // nothing-sent representative.
        out.push(CrashStage::MidData {
            delivered: PidSet::empty(n),
        });
    }
    for &k in live_control_ks {
        debug_assert!(k >= 1, "prefix length 0 is the data-complete class");
        out.push(CrashStage::MidControl { prefix_len: k });
    }
    out.push(CrashStage::EndOfRound);
}

/// Number of outcomes against a plan with `data_dest_count` data
/// destinations and `control_len` commit prefixes, every receiver live,
/// without building them.  Given the live counts
/// (`live_data_dests.len()`, `live_control_ks.len()`) it is the length
/// of the list [`crash_outcomes_effective_into`] fills, which lets the
/// model checker refuse a round too wide for it before building one.
/// `usize::MAX` when `data_dest_count` is `usize::BITS` or more.
pub fn crash_outcome_count(data_dest_count: usize, control_len: usize) -> usize {
    if data_dest_count >= usize::BITS as usize {
        return usize::MAX;
    }
    let subsets = 1usize << data_dest_count;
    let (proper, prefixes) = if data_dest_count > 0 {
        (subsets - 1, control_len + 1)
    } else {
        (1, control_len)
    };
    proper + prefixes + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(r: u32) -> ProcessId {
        ProcessId::new(r)
    }

    /// Reference implementation: the original eager enumeration of the
    /// complete list against a plan whose receivers are all live, written
    /// out independently of the live-effect form.
    fn crash_outcomes_reference(
        n: usize,
        data_dests: &[ProcessId],
        control_len: usize,
    ) -> Vec<CrashStage> {
        let d = data_dests.len();
        let subsets = 1usize << d;
        let mut out = Vec::with_capacity(subsets + control_len + 1);
        for mask in 0..subsets {
            if mask == subsets - 1 && d > 0 {
                continue;
            }
            let mut delivered = PidSet::empty(n);
            for (bit, pid) in data_dests.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    delivered.insert(*pid);
                }
            }
            out.push(CrashStage::MidData { delivered });
        }
        let k_start = if d > 0 { 0 } else { 1 };
        for k in k_start..=control_len {
            out.push(CrashStage::MidControl { prefix_len: k });
        }
        out.push(CrashStage::EndOfRound);
        out
    }

    #[test]
    fn outcome_count_matches_enumeration() {
        let dests = [pid(2), pid(3), pid(4)];
        for ctl in 0..=3usize {
            let outs = crash_outcomes_reference(5, &dests, ctl);
            assert_eq!(outs.len(), crash_outcome_count(dests.len(), ctl));
            // 2^3 - 1 proper subsets + (ctl+1) prefixes + EndOfRound.
            assert_eq!(outs.len(), 7 + ctl + 1 + 1);
        }
        assert_eq!(crash_outcome_count(usize::BITS as usize, 0), usize::MAX);
    }

    #[test]
    fn outcomes_for_empty_plan_collapse() {
        // A process sending nothing has exactly 2 distinct fates: die
        // without receiving this round, or die after full participation.
        let outs = crash_outcomes_reference(4, &[], 0);
        assert_eq!(outs.len(), crash_outcome_count(0, 0));
        assert_eq!(outs.len(), 2);
        // With control messages but no data: prefixes 1..=c are distinct.
        let outs = crash_outcomes_reference(4, &[], 2);
        assert_eq!(outs.len(), crash_outcome_count(0, 2));
        assert_eq!(outs.len(), 1 + 2 + 1);
    }

    #[test]
    fn effective_equals_full_when_every_receiver_is_live() {
        // On a fully live system the live-effect quotient is the
        // identity: same stages, same order, byte for byte.
        let dest_sets: Vec<Vec<ProcessId>> = vec![
            vec![],
            vec![pid(2)],
            vec![pid(2), pid(3)],
            vec![pid(2), pid(3), pid(5)],
            (1..=5).map(pid).collect(),
        ];
        let mut buf = Vec::new();
        for dests in &dest_sets {
            for ctl in 0..=4usize {
                let live_ks: Vec<usize> = (1..=ctl).collect();
                crash_outcomes_effective_into(6, dests, !dests.is_empty(), &live_ks, &mut buf);
                assert_eq!(
                    buf,
                    crash_outcomes_reference(6, dests, ctl),
                    "dests={dests:?} ctl={ctl}"
                );
            }
        }
    }

    #[test]
    fn effective_prunes_settled_receivers() {
        // Raw plan: data to {2,3,4}, control prefix over [2,3,4]; only
        // p_2 is still active.  Live classes: deliver-nothing,
        // deliver-to-2 (≡ full delivery ≡ prefix 0), prefix 1, and
        // EndOfRound — 4 stages instead of the raw 12.
        let mut buf = Vec::new();
        crash_outcomes_effective_into(4, &[pid(2)], true, &[1], &mut buf);
        assert_eq!(
            buf,
            vec![
                CrashStage::MidData {
                    delivered: PidSet::empty(4)
                },
                CrashStage::MidControl { prefix_len: 0 },
                CrashStage::MidControl { prefix_len: 1 },
                CrashStage::EndOfRound,
            ]
        );
        assert_eq!(
            buf.len(),
            crash_outcome_count(1, 1),
            "count of the live counts"
        );
        assert_eq!(crash_outcome_count(3, 3), 12, "raw count for contrast");
    }

    #[test]
    fn effective_collapses_all_settled_data_plan() {
        // The plan had data destinations but every one is settled: the
        // whole subset family folds into the data-step-complete class.
        let mut buf = Vec::new();
        crash_outcomes_effective_into(4, &[], true, &[2], &mut buf);
        assert_eq!(
            buf,
            vec![
                CrashStage::MidControl { prefix_len: 0 },
                CrashStage::MidControl { prefix_len: 2 },
                CrashStage::EndOfRound,
            ]
        );
        assert_eq!(
            buf.len(),
            crash_outcome_count(0, 1),
            "count of the live counts"
        );
    }

    #[test]
    fn effective_keeps_empty_data_representative_without_a_plan() {
        // No data step at all: the nothing-sent class is represented by
        // `MidData{∅}`, exactly as in the complete list's `d = 0` edge.
        let mut buf = Vec::new();
        crash_outcomes_effective_into(4, &[], false, &[1, 3], &mut buf);
        assert_eq!(
            buf,
            vec![
                CrashStage::MidData {
                    delivered: PidSet::empty(4)
                },
                CrashStage::MidControl { prefix_len: 1 },
                CrashStage::MidControl { prefix_len: 3 },
                CrashStage::EndOfRound,
            ]
        );
        assert_eq!(
            buf.len(),
            crash_outcome_count(0, 2),
            "count of the live counts"
        );
    }

    fn assert_effects_distinct(n: usize, dests: &[ProcessId], ctl: usize) {
        let outs = crash_outcomes_reference(n, dests, ctl);
        let mut effects = Vec::new();
        for stage in &outs {
            let e = stage.effect(n);
            let data: Vec<u32> = match &e.data_filter {
                None => dests.iter().map(|p| p.rank()).collect(),
                Some(f) => dests
                    .iter()
                    .filter(|p| f.contains(**p))
                    .map(|p| p.rank())
                    .collect(),
            };
            let prefix = e.control_prefix.unwrap_or(ctl).min(ctl);
            let key = (data, prefix, e.receives_this_round);
            assert!(!effects.contains(&key), "duplicate effect {key:?}");
            effects.push(key);
        }
    }

    #[test]
    fn outcomes_have_no_duplicate_effects() {
        // Every enumerated stage yields a distinct
        // (delivered-data, delivered-prefix, receives) triple — for data
        // plans, control-only plans, empty plans, and mixed ones.
        assert_effects_distinct(3, &[pid(2), pid(3)], 2);
        assert_effects_distinct(3, &[pid(2), pid(3)], 0);
        assert_effects_distinct(4, &[], 3);
        assert_effects_distinct(4, &[], 0);
        assert_effects_distinct(5, &[pid(2)], 4);
    }

    #[test]
    #[should_panic(expected = "capped at 20")]
    fn subset_cap_enforced() {
        let dests: Vec<ProcessId> = (1..=21).map(pid).collect();
        crash_outcomes_effective_into(30, &dests, true, &[], &mut Vec::new());
    }
}
