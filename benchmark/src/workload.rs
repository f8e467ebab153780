//! The four workloads and the checks that make their numbers count.
//!
//! Every workload is CRW at `n = 8, t = 7` with binary proposals; they
//! differ only in the engine that produces the verdict.

use std::path::Path;

use crate::adapter::{DistPhases, Engine, Memo, Problem, Verdict};

pub const N: usize = 8;
pub const T: usize = 7;

/// Counts at (8,7) for every admissible proposal vector (see
/// `inputs::proposal_bits`: the seed only permutes proposals behind a
/// leading run of length 1, which the counts do not depend on).
pub const RAW_STATES: usize = 47_789;
pub const TERMINALS: u64 = 26_516_780_751;
pub const ORBITS: usize = 5_787;

/// `crw8-spill` keeps 2% of the raw states resident.
const SPILL_HOT_CAPACITY: usize = 1024;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Cold,
    Quotient,
    Spill,
    Dist2,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Cold,
        Workload::Quotient,
        Workload::Spill,
        Workload::Dist2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold => "crw8-cold",
            Workload::Quotient => "crw8-quotient",
            Workload::Spill => "crw8-spill",
            Workload::Dist2 => "crw8-dist2",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One exploration from the engine call to its report; `scratch` is
    /// where this workload's engine may put files.
    pub fn explore(
        self,
        problem: &Problem,
        scratch: &Path,
    ) -> Result<(Verdict, Option<DistPhases>), String> {
        let single = |engine: Engine| {
            problem
                .explore(&engine)
                .map(|verdict| (verdict, None))
                .map_err(|e| e.message())
        };
        match self {
            Workload::Cold => single(Engine::serial()),
            Workload::Quotient => single(Engine {
                quotient: true,
                ..Engine::serial()
            }),
            Workload::Spill => single(Engine {
                memo: Memo::Spill {
                    hot: SPILL_HOT_CAPACITY,
                    dir: scratch.to_path_buf(),
                },
                ..Engine::serial()
            }),
            Workload::Dist2 => problem
                .explore_dist2(scratch)
                .map(|(verdict, phases)| (verdict, Some(phases))),
        }
    }

    /// What one report of this workload must satisfy on its own: the
    /// paper's invariants and the pinned counts.
    pub fn check(self, verdict: &Verdict, phases: Option<&DistPhases>) -> Result<(), String> {
        paper_invariants(verdict, T)?;
        let states = match self {
            Workload::Quotient => ORBITS,
            _ => RAW_STATES,
        };
        expect_eq("distinct states", &verdict.distinct_states, &states)?;
        expect_eq("terminal executions", &verdict.terminals, &TERMINALS)?;
        match phases {
            Some(phases) if phases.degraded != 0 => Err(format!(
                "{} partition(s) degraded to a local walk",
                phases.degraded
            )),
            _ => Ok(()),
        }
    }

    /// What a report must satisfy against the serial/RAM/off reference walk
    /// of the same problem.
    pub fn check_against(self, verdict: &Verdict, reference: &Verdict) -> Result<(), String> {
        match self {
            Workload::Quotient => same_verdict_fewer_states(verdict, reference),
            _ => same_report(verdict, reference),
        }
    }
}

fn expect_eq<V: PartialEq + std::fmt::Debug>(what: &str, got: &V, want: &V) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, expected {want:?}"))
    }
}

/// The paper's claims, as far as a report shows them: the specification
/// holds on every execution (so there is no witness), the worst decision
/// round with `f` crashes is exactly `f + 1` for every `f <= t`, and the
/// initial configuration is bivalent.
pub fn paper_invariants(verdict: &Verdict, t: usize) -> Result<(), String> {
    if verdict.violating || verdict.has_witness {
        return Err("the specification is violated on some execution".to_string());
    }
    let f_plus_one: Vec<Option<u32>> = (0..=t as u32).map(|f| Some(f + 1)).collect();
    expect_eq(
        "worst decision round by f",
        &verdict.worst_round_by_f,
        &f_plus_one,
    )?;
    if verdict.decided.len() < 2 {
        return Err("the root configuration is not bivalent".to_string());
    }
    Ok(())
}

/// Engines that must reproduce the serial walk bit for bit.
pub fn same_report(verdict: &Verdict, reference: &Verdict) -> Result<(), String> {
    expect_eq(
        "distinct states",
        &verdict.distinct_states,
        &reference.distinct_states,
    )?;
    expect_eq("root summary", &verdict.root, &reference.root)?;
    expect_eq(
        "bivalency by round",
        &verdict.bivalency_by_round,
        &reference.bivalency_by_round,
    )
}

/// The symmetry quotient: same verdict, same executions, same decided set,
/// strictly fewer states.
pub fn same_verdict_fewer_states(verdict: &Verdict, reference: &Verdict) -> Result<(), String> {
    expect_eq("violation flag", &verdict.violating, &reference.violating)?;
    expect_eq(
        "worst decision round by f",
        &verdict.worst_round_by_f,
        &reference.worst_round_by_f,
    )?;
    expect_eq(
        "terminal executions",
        &verdict.terminals,
        &reference.terminals,
    )?;
    expect_eq("decided set", &verdict.decided, &reference.decided)?;
    if verdict.distinct_states >= reference.distinct_states {
        return Err(format!(
            "quotient kept {} states of {} raw",
            verdict.distinct_states, reference.distinct_states
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest;

    fn good() -> Verdict {
        Verdict {
            distinct_states: RAW_STATES,
            cache_hits: 0,
            terminals: TERMINALS,
            worst_round_by_f: (1..=8).map(Some).collect(),
            decided: vec![vec![0], vec![1]],
            violating: false,
            has_witness: false,
            bivalency_by_round: vec![(1, 1, 1)],
            root: vec![1, 2, 3],
        }
    }

    #[test]
    fn workload_names_are_the_declared_ones() {
        let declared: Vec<&str> = manifest::WORKLOADS.iter().map(|w| w.name).collect();
        let named: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(named, declared);
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("crw8-warm"), None);
    }

    #[test]
    fn a_wrong_count_or_a_broken_invariant_fails_the_check() {
        assert_eq!(Workload::Cold.check(&good(), None), Ok(()));
        let off_by_one = Verdict {
            distinct_states: RAW_STATES - 1,
            ..good()
        };
        assert!(Workload::Cold.check(&off_by_one, None).is_err());
        assert!(
            Workload::Quotient.check(&good(), None).is_err(),
            "orbits are pinned too"
        );
        let late = Verdict {
            worst_round_by_f: (1..=8).map(|r| Some(r + 1)).collect(),
            ..good()
        };
        assert!(Workload::Cold.check(&late, None).is_err());
        let univalent = Verdict {
            decided: vec![vec![0]],
            ..good()
        };
        assert!(Workload::Cold.check(&univalent, None).is_err());
        let violating = Verdict {
            violating: true,
            ..good()
        };
        assert!(Workload::Cold.check(&violating, None).is_err());
        let degraded = DistPhases {
            degraded: 1,
            ..DistPhases::default()
        };
        assert!(Workload::Dist2.check(&good(), Some(&degraded)).is_err());
    }

    #[test]
    fn reference_comparisons() {
        let reference = good();
        assert_eq!(Workload::Spill.check_against(&good(), &reference), Ok(()));
        let reordered_root = Verdict {
            root: vec![3, 2, 1],
            ..good()
        };
        assert!(Workload::Dist2
            .check_against(&reordered_root, &reference)
            .is_err());
        let quotient = Verdict {
            distinct_states: ORBITS,
            root: vec![9],
            bivalency_by_round: vec![],
            ..good()
        };
        assert_eq!(
            Workload::Quotient.check_against(&quotient, &reference),
            Ok(())
        );
        assert!(
            Workload::Quotient
                .check_against(&good(), &reference)
                .is_err(),
            "a quotient that merges nothing is not one"
        );
    }
}
