//! **E5 — Theorems 3–5 (§5):** the lower bound, regenerated mechanically.
//!
//! For each system the model checker enumerates **every** execution of
//! the algorithm under **every** admissible adversary (all crash subsets,
//! all data-delivery subsets, all commit prefixes, decide-then-die) and
//! reports, per actual crash count `f`, the worst last-decision round.
//! Theorem 1 says it is at most `f+1`; Theorem 4 says no algorithm in the
//! extended model can do better in the worst case — and indeed the
//! measured worst is **exactly** `f+1`: the algorithm is optimal
//! (Theorem 5).
//!
//! The second table is the bivalency census behind the Theorem 3 proof:
//! how many distinct reachable configurations exist at each round, and how
//! many are still *bivalent* (both decision values reachable).  Bivalent
//! configurations surviving into round `f` are exactly what forces the
//! `f+1` worst case.  The third walks the system again under Theorem 3's
//! adversary, at most one crash per round.
//!
//! Every table is an exhaustive walk; E5 samples nothing, since a sample
//! can miss the worst execution and so cannot show a bound is tight.

use crate::cells;
use crate::table::Table;
use twostep_core::crw_processes;
use twostep_model::{SystemConfig, WideValue};
use twostep_modelcheck::{explore, ExploreConfig};

/// Parameters for E5.
#[derive(Clone, Debug)]
pub struct E5Params {
    /// `(n, t)` systems to walk exhaustively, each twice: E5a and E5b
    /// read one walk, E5d a second under Theorem 3's adversary.  A debug
    /// build walks the default's largest rung, (6, 5), in well under a
    /// second; (7, 6) would add about three seconds and (8, 7) forty.
    pub systems: Vec<(usize, usize)>,
}

impl Default for E5Params {
    fn default() -> Self {
        E5Params {
            systems: vec![(3, 2), (4, 3), (6, 5)],
        }
    }
}

fn binary_proposals(n: usize) -> Vec<WideValue> {
    (0..n).map(|i| WideValue::new(1, (i % 2) as u64)).collect()
}

/// Runs E5 and renders its three tables (E5a, E5b, E5d) per system.
pub fn tables(p: E5Params) -> Vec<Table> {
    let mut out = Vec::new();

    for &(n, t) in &p.systems {
        let system = SystemConfig::new(n, t).expect("valid system");
        let proposals = binary_proposals(n);
        let report = explore(
            system,
            ExploreConfig::for_crw(&system),
            crw_processes(&system, &proposals),
            proposals.clone(),
        )
        .expect("exploration within budget");

        let mut worst = Table::new(
            format!("E5a: exhaustive worst decision round (n={n}, t={t}, binary inputs)"),
            &["f", "worst round (all executions)", "f+1", "optimal"],
        );
        for f in 0..=t {
            let w = report.root.worst_round_by_f[f];
            worst.row(cells!(
                f,
                w.map_or("-".into(), |r| r.to_string()),
                f + 1,
                w == Some(f as u32 + 1)
            ));
        }
        worst.note(format!(
            "spec verified on every terminal: violations = {}",
            report.root.violating
        ));
        worst.note(format!(
            "distinct configurations: {}, terminal executions: {}",
            report.distinct_states, report.root.terminals
        ));
        out.push(worst);

        let mut census = Table::new(
            format!("E5b: bivalency census (n={n}, t={t}) — the §5 machinery"),
            &["round", "configs", "bivalent", "share"],
        );
        for (round, configs, bivalent) in &report.bivalency_by_round {
            census.row(cells!(
                round,
                configs,
                bivalent,
                format!("{:.1}%", 100.0 * *bivalent as f64 / *configs as f64)
            ));
        }
        census.note("a bivalent configuration at round r means the adversary can still steer the decision either way — the engine of the bivalency lower-bound proof.");
        out.push(census);

        // The Theorem 3 adversary: at most ONE crash per round — the
        // restriction the §5 proof actually uses.  The worst case must
        // still be exactly f+1: the lower bound needs no crash bursts.
        let t3 = explore(
            system,
            ExploreConfig::theorem3(&system),
            crw_processes(&system, &proposals),
            proposals.clone(),
        )
        .expect("restricted exploration within budget");
        let mut restricted = Table::new(
            format!("E5d: Theorem 3 adversary — at most one crash per round (n={n}, t={t})"),
            &[
                "f",
                "worst round (<=1 crash/round)",
                "worst round (unrestricted)",
                "f+1",
                "tight under both",
            ],
        );
        for f in 0..=t {
            let w_restricted = t3.root.worst_round_by_f[f];
            let w_full = report.root.worst_round_by_f[f];
            restricted.row(cells!(
                f,
                w_restricted.map_or("-".into(), |r| r.to_string()),
                w_full.map_or("-".into(), |r| r.to_string()),
                f + 1,
                w_restricted == Some(f as u32 + 1) && w_full == Some(f as u32 + 1)
            ));
        }
        restricted.note(format!(
            "terminal executions: {} restricted vs {} unrestricted — the one-per-round adversary is strictly weaker yet already forces f+1 (Theorem 3's hypothesis suffices).",
            t3.root.terminals, report.root.terminals
        ));
        restricted.note(format!(
            "spec violations under the restricted adversary: {}",
            t3.root.violating
        ));
        out.push(restricted);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The data rows of a table's CSV, split into cells.
    fn rows(table: &Table) -> Vec<Vec<String>> {
        let csv = table.render_csv();
        csv.lines()
            .skip(2)
            .filter(|line| !line.starts_with('#'))
            .map(|line| line.split(',').map(str::to_string).collect())
            .collect()
    }

    #[test]
    fn e5_optimality_column_is_all_true() {
        let tables = tables(E5Params {
            systems: vec![(3, 2)],
        });
        for row in rows(&tables[0]) {
            assert_eq!(row[3], "true", "worst == f+1: {row:?}");
        }
        // Census: round 1 has exactly one configuration (the initial
        // one), and it is bivalent.
        assert_eq!(rows(&tables[1])[0][..3], ["1", "1", "1"]);
        // Theorem 3 adversary: the one-crash-per-round worst case is
        // still exactly f+1 for every f.
        for row in rows(&tables[2]) {
            assert_eq!(row[4], "true", "tight under both adversaries: {row:?}");
        }
    }
}
