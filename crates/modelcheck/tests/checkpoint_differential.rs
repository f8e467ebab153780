//! Differential suite for the frame-stepped core's checkpoint/resume
//! path: an exploration interrupted by *any* budget — step counts of
//! {0, 1, prime strides}, an already-expired deadline, the `max_states`
//! valve — and resumed from its checkpoint must converge to a final
//! report **bit-identical** to the uninterrupted walk, across engines
//! {serial, parallel-4, spill, partitioned-2} and both symmetry modes.
//! Every intermediate error must be `ExploreError::Interrupted` carrying
//! the checkpoint directory, each session must make progress (the resume
//! chain is bounded by the distinct-state count), and the successful
//! final session must consume the checkpoint artifact.  A suspension
//! whose write fails — at any write ordinal — must never cost a later
//! resume the checkpoint before it.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use twostep_core::crw_processes;
use twostep_model::{SystemConfig, WideValue};
use twostep_modelcheck::cache::MANIFEST_NAME;
use twostep_modelcheck::{
    explore_partitioned_in_process, explore_with, install_io_fault, BudgetKind, CheckpointConfig,
    DistOptions, ExploreConfig, ExploreError, ExploreOptions, ExploreReport, FaultPlan, IoFault,
    MemoConfig, StealConfig, SuperviseConfig, Symmetry, WalkBudget,
};

/// A unique temp directory removed on drop (checkpoint roots).
struct TempDir {
    path: PathBuf,
}

static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl TempDir {
    fn new(label: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "twostep-ckpt-test-{label}-{}-{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        TempDir { path }
    }

    fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn assert_identical(a: &ExploreReport<WideValue>, b: &ExploreReport<WideValue>, label: &str) {
    assert_eq!(a.root, b.root, "{label}: root summary");
    assert_eq!(a.distinct_states, b.distinct_states, "{label}: states");
    assert_eq!(
        a.bivalency_by_round, b.bivalency_by_round,
        "{label}: bivalency census"
    );
}

/// A successful run consumed its checkpoint: the directory's manifest,
/// which would list the resume segments, is gone, and so is every file
/// — a checkpoint-only directory holds nothing else.
fn assert_consumed(dir: &Path, label: &str) {
    assert!(
        !dir.join(MANIFEST_NAME).exists(),
        "{label}: success consumes the checkpoint"
    );
    let left: Vec<_> = (std::fs::read_dir(dir).into_iter().flatten().flatten())
        .map(|entry| entry.file_name())
        .collect();
    assert!(left.is_empty(), "{label}: left behind {left:?}");
}

fn crw_config(system: &SystemConfig, symmetry: Symmetry) -> ExploreConfig {
    ExploreConfig {
        symmetry,
        ..ExploreConfig::for_crw(system)
    }
}

fn crw_proposals(n: usize) -> Vec<WideValue> {
    (0..n).map(|i| WideValue::new(1, (i % 2) as u64)).collect()
}

/// The single-process engine matrix (partitioned-2 goes through the
/// distributed entry point).
fn engines() -> Vec<(&'static str, ExploreOptions)> {
    vec![
        ("serial", ExploreOptions::serial()),
        (
            "parallel-4",
            ExploreOptions {
                threads: 4,
                shards: 8,
                memo: MemoConfig::all_ram(),
                donate_depth: None,
                cache: None,
                budget: WalkBudget::unlimited(),
                checkpoint: None,
            },
        ),
        (
            "spill",
            ExploreOptions::serial().with_memo(MemoConfig::spill(16)),
        ),
    ]
}

/// Runs one budgeted exploration to completion by resuming from its
/// checkpoint after every interruption.  Asserts every intermediate
/// error is a checkpoint-carrying `Interrupted` and that the chain
/// terminates (min-progress: each session memoizes at least one fresh
/// configuration, so `distinct_states + 2` sessions is a safe ceiling).
fn run_resumable(
    system: SystemConfig,
    config: ExploreConfig,
    engine: &ExploreOptions,
    budget: WalkBudget,
    proposals: &[WideValue],
    dir: &Path,
    label: &str,
) -> (ExploreReport<WideValue>, usize) {
    let mut sessions = 0usize;
    loop {
        sessions += 1;
        assert!(
            sessions <= 100_000,
            "{label}: resume chain does not converge"
        );
        let options = engine
            .clone()
            .with_budget(budget.clone())
            .with_checkpoint(Some(CheckpointConfig::at(dir)));
        match explore_with(
            system,
            config,
            options,
            crw_processes(&system, proposals),
            proposals.to_vec(),
        ) {
            Ok(report) => return (report, sessions),
            Err(ExploreError::Interrupted {
                checkpoint, states, ..
            }) => {
                assert_eq!(
                    checkpoint.as_deref(),
                    Some(dir),
                    "{label}: interruption must leave a resumable artifact"
                );
                assert!(states > 0, "{label}: min-progress before suspending");
            }
            Err(other) => panic!("{label}: unexpected error {other:?}"),
        }
    }
}

/// Step-budget matrix: pause every step (`max_steps: 0` and `1`) and at
/// prime strides, across every single-process engine and both symmetry
/// modes; the resumed report is bit-identical to the uninterrupted one
/// and the artifact is consumed on success.
#[test]
fn interrupted_and_resumed_matches_uninterrupted() {
    let system = SystemConfig::new(3, 2).unwrap();
    let proposals = crw_proposals(3);
    for symmetry in [Symmetry::Off, Symmetry::PartialValue] {
        let config = crw_config(&system, symmetry);
        let baseline = explore_with(
            system,
            config,
            ExploreOptions::serial(),
            crw_processes(&system, &proposals),
            proposals.clone(),
        )
        .unwrap();
        for (engine_label, engine) in engines() {
            for max_steps in [0u64, 1, 7, 13] {
                let label = format!("crw(3,2) {symmetry:?} {engine_label} max_steps={max_steps}");
                let dir = TempDir::new(engine_label);
                let (resumed, sessions) = run_resumable(
                    system,
                    config,
                    &engine,
                    WalkBudget {
                        max_steps: Some(max_steps),
                        ..WalkBudget::unlimited()
                    },
                    &proposals,
                    dir.path(),
                    &label,
                );
                assert_identical(&baseline, &resumed, &label);
                assert!(
                    sessions > 1,
                    "{label}: a {max_steps}-step budget must actually interrupt"
                );
                assert_consumed(dir.path(), &label);
            }
        }
    }
}

/// An already-expired wall-clock deadline still converges: every
/// session suspends as soon as it has made minimum progress, and the
/// chain composes to the uninterrupted report.
#[test]
fn expired_deadline_resume_chain_converges() {
    let system = SystemConfig::new(3, 1).unwrap();
    let proposals = crw_proposals(3);
    let config = crw_config(&system, Symmetry::Off);
    let baseline = explore_with(
        system,
        config,
        ExploreOptions::serial(),
        crw_processes(&system, &proposals),
        proposals.clone(),
    )
    .unwrap();
    let dir = TempDir::new("deadline");
    let (resumed, sessions) = run_resumable(
        system,
        config,
        &ExploreOptions::serial(),
        WalkBudget {
            deadline: Some(Duration::ZERO),
            ..WalkBudget::unlimited()
        },
        &proposals,
        dir.path(),
        "deadline-zero",
    );
    assert_identical(&baseline, &resumed, "deadline-zero");
    assert!(sessions > 1, "an expired deadline must interrupt");
}

/// Satellite fix: a `StateLimit` abort with a checkpoint configured now
/// leaves a resumable artifact (`Interrupted` with `BudgetKind::States`)
/// instead of only an error; resuming with a raised valve completes to
/// the uninterrupted report (`max_states` is deliberately outside the
/// run fingerprint).
#[test]
fn state_limit_leaves_a_resumable_checkpoint() {
    let system = SystemConfig::new(3, 2).unwrap();
    let proposals = crw_proposals(3);
    let roomy = crw_config(&system, Symmetry::Off);
    let baseline = explore_with(
        system,
        roomy,
        ExploreOptions::serial(),
        crw_processes(&system, &proposals),
        proposals.clone(),
    )
    .unwrap();
    let starved = ExploreConfig {
        max_states: baseline.distinct_states / 2,
        ..roomy
    };

    let dir = TempDir::new("statelimit");
    let err = explore_with(
        system,
        starved,
        ExploreOptions::serial().with_checkpoint(Some(CheckpointConfig::at(dir.path()))),
        crw_processes(&system, &proposals),
        proposals.clone(),
    )
    .unwrap_err();
    match err {
        ExploreError::Interrupted {
            reason,
            checkpoint,
            states,
        } => {
            assert_eq!(reason, BudgetKind::States);
            assert_eq!(checkpoint.as_deref(), Some(dir.path()));
            assert!(states > 0);
        }
        other => panic!("expected a rerouted StateLimit, got {other:?}"),
    }

    // Without a checkpoint the historical error is unchanged.
    let bare = explore_with(
        system,
        starved,
        ExploreOptions::serial(),
        crw_processes(&system, &proposals),
        proposals.clone(),
    )
    .unwrap_err();
    assert!(
        matches!(bare, ExploreError::StateLimit { .. }),
        "no checkpoint keeps the historical StateLimit error, got {bare:?}"
    );

    // Resume with the valve raised: completes, identical, consumed.
    let resumed = explore_with(
        system,
        roomy,
        ExploreOptions::serial().with_checkpoint(Some(CheckpointConfig::at(dir.path()))),
        crw_processes(&system, &proposals),
        proposals.clone(),
    )
    .unwrap();
    // Checkpointed records deliberately import as *fresh* (so a final
    // cache commit exports them), so `fresh_states` can't witness the
    // fast-forward; report identity and artifact consumption do.
    assert_identical(&baseline, &resumed, "statelimit resume");
    assert_consumed(dir.path(), "statelimit resume");
}

/// The partitioned-2 engine: budgets govern the whole pipeline.  An
/// expired deadline suspends at a phase boundary (checkpointing the
/// merged worker results) or inside the replay, and resuming converges
/// to the uninterrupted distributed report; a step budget bounds the
/// replay walk the same way.
#[test]
fn partitioned_interrupted_and_resumed_matches_uninterrupted() {
    let system = SystemConfig::new(3, 2).unwrap();
    let proposals = crw_proposals(3);
    for symmetry in [Symmetry::Off, Symmetry::PartialValue] {
        let config = crw_config(&system, symmetry);
        // Depth 2 keeps a real interior region (root + depth-1 configs)
        // for the replay to compute fresh: at depth 1 the only interior
        // insert is the root pop, which *is* walk completion, so a step
        // budget could never observe an interruptible replay.
        let dist = |replay: ExploreOptions| DistOptions {
            partitions: 2,
            depth: 2,
            attempts: 3,
            scratch_dir: None,
            replay,
            cache: None,
            steal: StealConfig::default(),
            faults: FaultPlan::none(),
            supervise: SuperviseConfig::default(),
        };
        let baseline = explore_partitioned_in_process(
            system,
            config,
            &dist(ExploreOptions::serial()),
            ExploreOptions::serial(),
            crw_processes(&system, &proposals),
            proposals.clone(),
        )
        .unwrap();

        let budgets = [
            (
                "deadline-zero",
                WalkBudget {
                    deadline: Some(Duration::ZERO),
                    ..WalkBudget::unlimited()
                },
            ),
            (
                "max-steps-1",
                WalkBudget {
                    max_steps: Some(1),
                    ..WalkBudget::unlimited()
                },
            ),
            (
                "max-steps-7",
                WalkBudget {
                    max_steps: Some(7),
                    ..WalkBudget::unlimited()
                },
            ),
        ];
        for (budget_label, budget) in budgets {
            let label = format!("partitioned-2 {symmetry:?} {budget_label}");
            let dir = TempDir::new("partitioned");
            let mut sessions = 0usize;
            let resumed = loop {
                sessions += 1;
                assert!(sessions <= 100_000, "{label}: does not converge");
                let replay = ExploreOptions::serial()
                    .with_budget(budget.clone())
                    .with_checkpoint(Some(CheckpointConfig::at(dir.path())));
                match explore_partitioned_in_process(
                    system,
                    config,
                    &dist(replay),
                    ExploreOptions::serial(),
                    crw_processes(&system, &proposals),
                    proposals.clone(),
                ) {
                    Ok(report) => break report,
                    Err(ExploreError::Interrupted { checkpoint, .. }) => {
                        assert_eq!(
                            checkpoint.as_deref(),
                            Some(dir.path()),
                            "{label}: interruption must leave an artifact"
                        );
                    }
                    Err(other) => panic!("{label}: unexpected error {other:?}"),
                }
            };
            assert_identical(&baseline, &resumed, &label);
            assert!(sessions > 1, "{label}: the budget must actually interrupt");
            assert_consumed(dir.path(), &label);
        }
    }
}

/// A stale checkpoint from a *different* run (other proposals → other
/// fingerprint) is loudly ignored, never imported: the run completes
/// cold and matches its own baseline.
#[test]
fn foreign_checkpoint_is_ignored_not_imported() {
    let system = SystemConfig::new(3, 1).unwrap();
    let config = crw_config(&system, Symmetry::Off);
    let dir = TempDir::new("foreign");

    // Suspend run A (proposals 0,1,0) to populate the checkpoint.
    let a_proposals = crw_proposals(3);
    let err = explore_with(
        system,
        config,
        ExploreOptions::serial()
            .with_budget(WalkBudget {
                max_steps: Some(1),
                ..WalkBudget::unlimited()
            })
            .with_checkpoint(Some(CheckpointConfig::at(dir.path()))),
        crw_processes(&system, &a_proposals),
        a_proposals.clone(),
    )
    .unwrap_err();
    assert!(matches!(err, ExploreError::Interrupted { .. }));

    // Run B (all-same proposals) sees A's checkpoint but must not use it.
    let b_proposals = vec![WideValue::new(1, 1); 3];
    let baseline = explore_with(
        system,
        config,
        ExploreOptions::serial(),
        crw_processes(&system, &b_proposals),
        b_proposals.clone(),
    )
    .unwrap();
    let with_stale = explore_with(
        system,
        config,
        ExploreOptions::serial().with_checkpoint(Some(CheckpointConfig::at(dir.path()))),
        crw_processes(&system, &b_proposals),
        b_proposals.clone(),
    )
    .unwrap();
    // A foreign import would inflate `distinct_states` with run A's
    // configurations; bit-identity to the cold baseline rules it out.
    assert_identical(&baseline, &with_stale, "foreign checkpoint");
}

/// One session of the CRW (4, 3) walk, checkpointing into `dir`.
fn crw43_session(dir: &Path, budget: WalkBudget) -> Result<ExploreReport<WideValue>, ExploreError> {
    let system = SystemConfig::new(4, 3).unwrap();
    let proposals = crw_proposals(4);
    explore_with(
        system,
        crw_config(&system, Symmetry::Off),
        ExploreOptions::serial()
            .with_budget(budget)
            .with_checkpoint(Some(CheckpointConfig::at(dir))),
        crw_processes(&system, &proposals),
        proposals,
    )
}

/// `(checkpoint, states)` of a session that must have suspended.
fn suspended(result: Result<ExploreReport<WideValue>, ExploreError>) -> (Option<PathBuf>, usize) {
    match result {
        Err(ExploreError::Interrupted {
            checkpoint, states, ..
        }) => (checkpoint, states),
        other => panic!("expected a suspension, got {other:?}"),
    }
}

const STEPS_200: WalkBudget = WalkBudget {
    max_steps: Some(200),
    deadline: None,
    max_memo_bytes: None,
    yield_every: None,
};

/// Resumes `dir` to completion in 200-step sessions: every session must
/// start from at least the `last_good` states it was handed, and the
/// composed report must be the uninterrupted one.
fn resume_to_completion(dir: &Path, mut last_good: usize, label: &str) {
    let system = SystemConfig::new(4, 3).unwrap();
    let proposals = crw_proposals(4);
    let baseline = explore_with(
        system,
        crw_config(&system, Symmetry::Off),
        ExploreOptions::serial(),
        crw_processes(&system, &proposals),
        proposals.clone(),
    )
    .unwrap();
    let report = loop {
        match crw43_session(dir, STEPS_200) {
            Ok(report) => break report,
            Err(ExploreError::Interrupted {
                checkpoint, states, ..
            }) => {
                assert_eq!(checkpoint.as_deref(), Some(dir), "{label}");
                assert!(
                    states > last_good,
                    "{label}: suspended at {states} states after a checkpoint of {last_good}"
                );
                last_good = states;
            }
            Err(other) => panic!("{label}: unexpected error {other:?}"),
        }
    };
    assert_identical(&baseline, &report, label);
    assert_consumed(dir, label);
}

/// A rewrite that fails keeps the checkpoint before it: the new resume
/// segment is a new file, and the manifest listing it replaces the old
/// one only once the segment is whole.  (A rewrite that exports over the
/// file the live manifest lists tears it, and the next resume starts
/// over from nothing.)
#[test]
fn a_failed_checkpoint_rewrite_keeps_the_previous_checkpoint() {
    let dir = TempDir::new("rewrite");
    let (written, first) = suspended(crw43_session(dir.path(), STEPS_200));
    assert_eq!(written.as_deref(), Some(dir.path()));
    let fault = install_io_fault(IoFault::FailWrite(1));
    let (written, _) = suspended(crw43_session(dir.path(), STEPS_200));
    drop(fault);
    assert_eq!(written, None, "the faulted rewrite fails");
    resume_to_completion(dir.path(), first, "after a failed rewrite");
}

/// The checkpoint twin of `fault_differential`'s
/// `any_single_torn_write_leaves_cache_trustworthy`: one faulted
/// suspension, wherever the fault lands in its writes (segment records
/// or manifest), never costs a clean resume the last good checkpoint,
/// and the chain still converges to the uninterrupted report.
#[test]
fn any_single_faulted_suspension_keeps_the_last_good_checkpoint() {
    for io_fault in ["torn-write", "fail-write", "enospc"] {
        for nth in [1u64, 2, 3, 4, 5, 6, 7, 8, 16, 64, 256] {
            let label = format!("io={io_fault}({nth})");
            let dir = TempDir::new("faulted");
            let (_, mut last_good) = suspended(crw43_session(dir.path(), STEPS_200));
            let plan = FaultPlan::parse(&label).unwrap();
            let fault = install_io_fault(plan.io.unwrap());
            let (written, states) = suspended(crw43_session(dir.path(), STEPS_200));
            drop(fault);
            if written.is_some() {
                last_good = states;
            }
            resume_to_completion(dir.path(), last_good, &label);
        }
    }
}
