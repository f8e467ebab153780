//! Statistical model checking: randomized deep exploration for systems too
//! large to enumerate exhaustively.
//!
//! The sampler drives the same [`Stepper`] the exhaustive explorer uses,
//! but picks one adversary action per round at random (seeded,
//! reproducible).  Two strategies:
//!
//! * [`SampleStrategy::UniformRandom`] — every live process may crash with
//!   a budget-aware probability, stages drawn uniformly from the distinct
//!   outcomes against its concrete plan.  Good for spec confidence.
//! * [`SampleStrategy::CoordinatorHunter`] — biases the adversary toward
//!   killing the *current round's coordinator* mid-send, the pattern that
//!   realizes the paper's worst cases.  Good for reproducing the `f+1`
//!   round bound tightly at sizes where exhaustive search is infeasible.
//!
//! Every sampled execution is checked against the uniform-consensus spec
//! (plus an optional round bound); the report aggregates worst decision
//! rounds per actual crash count, exactly like the exhaustive explorer's
//! summary — the two are designed to be read side by side (experiment E5).

use crate::explorer::{CheckableProtocol, RoundBound};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hash::Hash;
use twostep_model::{CrashPoint, CrashSchedule, CrashStage, PidSet, ProcessId, SystemConfig};
use twostep_sim::{
    check_uniform_consensus, ModelKind, PlanShape, ProcStatus, RoundActions, SimError,
    SpecViolation, Stepper, TraceLevel,
};

/// How the sampler picks adversary actions.
#[derive(Clone, Copy, Debug)]
pub enum SampleStrategy {
    /// Unbiased: each live process crashes this round with probability
    /// `crash_prob` (while budget lasts), stage uniform over outcomes.
    UniformRandom {
        /// Per-process, per-round crash probability.
        crash_prob: f64,
    },
    /// Adversarial bias: with probability `hunt_prob`, kill the current
    /// round's coordinator right after its data step (`MidControl` with a
    /// short random prefix); other processes crash rarely.
    CoordinatorHunter {
        /// Probability of killing the live coordinator each round.
        hunt_prob: f64,
    },
}

/// Sampler configuration.
#[derive(Clone, Copy, Debug)]
pub struct SampleConfig {
    /// Model semantics.
    pub model: ModelKind,
    /// Round cap per run (termination violation when exceeded).
    pub max_rounds: u32,
    /// Number of sampled executions.
    pub runs: u64,
    /// Base seed; run `i` uses `seed + i`.
    pub seed: u64,
    /// Action-selection strategy.
    pub strategy: SampleStrategy,
    /// Optional decision-round bound to verify.
    pub round_bound: Option<RoundBound>,
}

/// Aggregated result of a sampling campaign.
#[derive(Clone, Debug)]
pub struct SampleReport<O> {
    /// Executions sampled.
    pub runs: u64,
    /// Worst observed last-decision round per actual crash count.
    pub worst_round_by_f: Vec<Option<u32>>,
    /// Executions per crash count (coverage indicator).
    pub runs_by_f: Vec<u64>,
    /// First spec violation found, with the run's seed and schedule.
    pub violation: Option<SampleViolation<O>>,
}

/// A violating sampled execution.
#[derive(Clone, Debug)]
pub struct SampleViolation<O> {
    /// The seed of the violating run (`config.seed + run_index`).
    pub seed: u64,
    /// The crash schedule the sampler improvised.
    pub schedule: CrashSchedule,
    /// The violations at the terminal.
    pub violations: Vec<SpecViolation<O>>,
}

impl<O> SampleReport<O> {
    /// Whether every sampled execution satisfied the spec.
    pub fn ok(&self) -> bool {
        self.violation.is_none()
    }
}

/// Samples `config.runs` executions of the protocol built by `factory`.
pub fn sample<P, F>(
    system: SystemConfig,
    config: SampleConfig,
    factory: F,
    proposals: &[P::Output],
) -> Result<SampleReport<P::Output>, SimError>
where
    P: CheckableProtocol,
    P::Output: Hash,
    F: Fn() -> Vec<P>,
{
    let n = system.n();
    let t = system.t();
    let mut worst_round_by_f: Vec<Option<u32>> = vec![None; t + 1];
    let mut runs_by_f: Vec<u64> = vec![0; t + 1];
    let mut violation: Option<SampleViolation<P::Output>> = None;
    // The plan shape of the process being crashed, read after the draw
    // that picks it.
    let mut shape = PlanShape::default();

    for run_idx in 0..config.runs {
        let seed = config.seed.wrapping_add(run_idx);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut stepper = Stepper::new(system, config.model, TraceLevel::Off, factory())?;
        let mut schedule = CrashSchedule::none(n);
        let mut budget = t;

        while !stepper.is_quiescent() && stepper.round().get() <= config.max_rounds {
            let round = stepper.round();
            let mut actions: RoundActions = vec![None; n];

            match config.strategy {
                SampleStrategy::UniformRandom { crash_prob } => {
                    for (i, action) in actions.iter_mut().enumerate() {
                        if budget == 0 {
                            break;
                        }
                        if !matches!(stepper.status()[i], ProcStatus::Active) {
                            continue;
                        }
                        if rng.gen_bool(crash_prob) {
                            assert!(stepper.peek_plan_shape_into(i, &mut shape));
                            *action = Some(random_stage(
                                &mut rng,
                                n,
                                &shape.data_dests,
                                shape.control_len,
                            ));
                            budget -= 1;
                        }
                    }
                }
                SampleStrategy::CoordinatorHunter { hunt_prob } => {
                    // The coordinator of round r in the rotating scheme is
                    // p_r; hunt it while it is alive and within budget.
                    let coord_idx = (round.get() as usize).checked_sub(1);
                    if let Some(ci) = coord_idx {
                        if ci < n
                            && budget > 0
                            && matches!(stepper.status()[ci], ProcStatus::Active)
                            && rng.gen_bool(hunt_prob)
                        {
                            assert!(stepper.peek_plan_shape_into(ci, &mut shape));
                            // Right after the data step, with a short
                            // commit prefix: the Theorem 1 killer move.
                            let prefix = rng.gen_range(0..=shape.control_len.min(1));
                            actions[ci] = Some(CrashStage::MidControl { prefix_len: prefix });
                            budget -= 1;
                        }
                    }
                    // Occasional collateral crash elsewhere.
                    if budget > 0 && rng.gen_bool(0.05) {
                        let i = rng.gen_range(0..n);
                        if matches!(stepper.status()[i], ProcStatus::Active) && actions[i].is_none()
                        {
                            assert!(stepper.peek_plan_shape_into(i, &mut shape));
                            actions[i] = Some(random_stage(
                                &mut rng,
                                n,
                                &shape.data_dests,
                                shape.control_len,
                            ));
                            budget -= 1;
                        }
                    }
                }
            }

            for (i, a) in actions.iter().enumerate() {
                if let Some(stage) = a {
                    schedule.set(
                        ProcessId::from_idx(i),
                        Some(CrashPoint::new(round, stage.clone())),
                    );
                }
            }
            stepper.step(&actions)?;
        }

        // Evaluate the terminal.
        let f = stepper
            .status()
            .iter()
            .filter(|s| matches!(s, ProcStatus::Crashed(_)))
            .count();
        runs_by_f[f] += 1;
        let last = stepper
            .decisions()
            .iter()
            .flatten()
            .map(|d| d.round.get())
            .max();
        worst_round_by_f[f] = match (worst_round_by_f[f], last) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };

        if violation.is_none() {
            let bound = config.round_bound.map(|rb| rb.bound(f));
            let report = check_uniform_consensus(proposals, stepper.decisions(), &schedule, bound);
            if !report.ok() {
                violation = Some(SampleViolation {
                    seed,
                    schedule: schedule.clone(),
                    violations: report.violations,
                });
            }
        }
    }

    Ok(SampleReport {
        runs: config.runs,
        worst_round_by_f,
        runs_by_f,
        violation,
    })
}

/// Uniform draw over the distinct crash outcomes against a concrete plan.
fn random_stage(
    rng: &mut SmallRng,
    n: usize,
    data_dests: &[ProcessId],
    control_len: usize,
) -> CrashStage {
    match rng.gen_range(0..4u8) {
        0 => CrashStage::BeforeSend,
        1 => {
            let mut delivered = PidSet::empty(n);
            for pid in data_dests {
                if rng.gen_bool(0.5) {
                    delivered.insert(*pid);
                }
            }
            CrashStage::MidData { delivered }
        }
        2 => CrashStage::MidControl {
            prefix_len: rng.gen_range(0..=control_len),
        },
        _ => CrashStage::EndOfRound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategies_are_constructible() {
        let _ = SampleStrategy::UniformRandom { crash_prob: 0.1 };
        let _ = SampleStrategy::CoordinatorHunter { hunt_prob: 0.9 };
    }
}
