//! Checkpoint and resume: an exploration interrupted by *any* budget —
//! step counts of {0, 1, prime strides}, an already-expired deadline,
//! the `max_states` valve — and resumed from its checkpoint converges to
//! the serial walk's report, across engines {serial, parallel-4, spill,
//! partitioned-2} and both symmetry modes.  Every intermediate error is
//! `ExploreError::Interrupted` carrying the checkpoint directory, each
//! session makes progress, and the successful final session consumes
//! the checkpoint.  A suspension whose write fails — at any write
//! ordinal — never costs a later resume the checkpoint before it.

use std::path::{Path, PathBuf};
use std::time::Duration;

use twostep_model::WideValue;
use twostep_modelcheck::cache::MANIFEST_NAME;
use twostep_modelcheck::{
    install_io_fault, BudgetKind, CheckpointConfig, DistOptions, ExploreConfig, ExploreError,
    ExploreOptions, ExploreReport, FaultPlan, IoFault, SpillCodec, Symmetry, WalkBudget,
};

use crate::kit::{assert_same, crw, crw_unanimous, reference, Engine, TempDir, Workload};
use crate::matrix::named;

type CrwWorkload = Workload<twostep_core::Crw<WideValue>>;

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

/// `options` checkpointing into `dir` under `budget`.
fn checkpointed(options: ExploreOptions, budget: WalkBudget, dir: &Path) -> ExploreOptions {
    options
        .with_budget(budget)
        .with_checkpoint(Some(CheckpointConfig::at(dir)))
}

/// Runs one budgeted exploration to completion by resuming from its
/// checkpoint after every interruption.  Asserts every intermediate
/// error is a checkpoint-carrying `Interrupted` and that the chain
/// terminates (min-progress: each session memoizes at least one fresh
/// configuration, so `distinct_states + 2` sessions is a safe ceiling).
fn run_resumable(
    workload: &CrwWorkload,
    engine: &ExploreOptions,
    budget: WalkBudget,
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
        match workload.explore(checkpointed(engine.clone(), budget.clone(), dir)) {
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

fn max_steps(steps: u64) -> WalkBudget {
    WalkBudget {
        max_steps: Some(steps),
        ..WalkBudget::unlimited()
    }
}

fn expired_deadline() -> WalkBudget {
    WalkBudget {
        deadline: Some(Duration::ZERO),
        ..WalkBudget::unlimited()
    }
}

/// Step-budget matrix: pause every step (`max_steps: 0` and `1`) and at
/// prime strides, across every single-process engine and both symmetry
/// modes; the resumed report is the serial walk's and the artifact is
/// consumed on success.
#[test]
fn interrupted_and_resumed_matches_uninterrupted() {
    for symmetry in [Symmetry::Off, Symmetry::PartialValue] {
        let workload = crw(3, 2).under(symmetry);
        let baseline = reference(&workload);
        for (engine_label, engine) in named(&["serial", "threads-4/8-shards", "spill-16"]) {
            let Engine::Walk(engine) = engine else {
                panic!("{engine_label} is not a single-process engine")
            };
            for steps in [0u64, 1, 7, 13] {
                let label = format!("crw(3,2) {symmetry:?} {engine_label} max_steps={steps}");
                let dir = TempDir::new("resume");
                let (resumed, sessions) =
                    run_resumable(&workload, &engine, max_steps(steps), dir.path(), &label);
                assert_same(&baseline, &resumed, &label);
                assert!(
                    sessions > 1,
                    "{label}: a {steps}-step budget must actually interrupt"
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
    let workload = crw(3, 1);
    let dir = TempDir::new("deadline");
    let (resumed, sessions) = run_resumable(
        &workload,
        &ExploreOptions::serial(),
        expired_deadline(),
        dir.path(),
        "deadline-zero",
    );
    assert_same(&reference(&workload), &resumed, "deadline-zero");
    assert!(sessions > 1, "an expired deadline must interrupt");
}

/// A `StateLimit` abort with a checkpoint configured leaves a resumable
/// artifact (`Interrupted` with `BudgetKind::States`) instead of only an
/// error; resuming with a raised valve completes to the uninterrupted
/// report (`max_states` is deliberately outside the run fingerprint).
#[test]
fn state_limit_leaves_a_resumable_checkpoint() {
    let roomy = crw(3, 2);
    let baseline = reference(&roomy);
    let starved = Workload {
        config: ExploreConfig {
            max_states: baseline.distinct_states / 2,
            ..roomy.config
        },
        ..roomy.clone()
    };

    let dir = TempDir::new("statelimit");
    let with_checkpoint =
        || ExploreOptions::serial().with_checkpoint(Some(CheckpointConfig::at(dir.path())));
    match starved.explore(with_checkpoint()).unwrap_err() {
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
    let bare = starved.explore(ExploreOptions::serial()).unwrap_err();
    assert!(
        matches!(bare, ExploreError::StateLimit { .. }),
        "no checkpoint keeps the historical StateLimit error, got {bare:?}"
    );

    // Resume with the valve raised: completes, identical, consumed.
    // Checkpointed records deliberately import as *fresh* (so a final
    // cache commit exports them), so `fresh_states` can't witness the
    // fast-forward; report identity and artifact consumption do.
    let resumed = roomy.explore(with_checkpoint()).unwrap();
    assert_same(&baseline, &resumed, "statelimit resume");
    assert_consumed(dir.path(), "statelimit resume");
}

/// The partitioned-2 engine: budgets govern the whole pipeline.  An
/// expired deadline suspends at a phase boundary (checkpointing the
/// merged worker results) or inside the replay, and resuming converges
/// to the serial report; a step budget bounds the replay walk the same
/// way.
#[test]
fn partitioned_interrupted_and_resumed_matches_uninterrupted() {
    for symmetry in [Symmetry::Off, Symmetry::PartialValue] {
        let workload = crw(3, 2).under(symmetry);
        let baseline = reference(&workload);
        let budgets = [
            ("deadline-zero", expired_deadline()),
            ("max-steps-1", max_steps(1)),
            ("max-steps-7", max_steps(7)),
        ];
        for (budget_label, budget) in budgets {
            let label = format!("partitioned-2 {symmetry:?} {budget_label}");
            let dir = TempDir::new("partitioned");
            // Depth 2 keeps a real interior region (root + depth-1
            // configs) for the replay to compute fresh: at depth 1 the
            // only interior insert is the root pop, which *is* walk
            // completion, so a step budget could never observe an
            // interruptible replay.
            let options = DistOptions {
                depth: 2,
                replay: checkpointed(ExploreOptions::serial(), budget, dir.path()),
                ..DistOptions::new(2)
            };
            let engine = Engine::Partitioned(options, ExploreOptions::serial());
            let mut sessions = 0usize;
            let resumed = loop {
                sessions += 1;
                assert!(sessions <= 100_000, "{label}: does not converge");
                match engine.run(&workload) {
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
            assert_same(&baseline, &resumed, &label);
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
    let dir = TempDir::new("foreign");

    // Suspend run A (proposals 0,1,0) to populate the checkpoint.
    let a = checkpointed(ExploreOptions::serial(), max_steps(1), dir.path());
    let err = crw(3, 1).explore(a).unwrap_err();
    assert!(matches!(err, ExploreError::Interrupted { .. }));

    // Run B (all-same proposals) sees A's checkpoint but must not use it.
    // A foreign import would inflate `distinct_states` with run A's
    // configurations; identity with the cold baseline rules it out.
    let b = crw_unanimous(3, 1);
    let with_stale =
        ExploreOptions::serial().with_checkpoint(Some(CheckpointConfig::at(dir.path())));
    assert_same(
        &reference(&b),
        &b.explore(with_stale).unwrap(),
        "foreign checkpoint",
    );
}

/// One 200-step session of the CRW (4, 3) walk, checkpointing into `dir`.
fn crw43_session(dir: &Path) -> Result<ExploreReport<WideValue>, ExploreError> {
    crw(4, 3).explore(checkpointed(ExploreOptions::serial(), max_steps(200), dir))
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

/// Resumes `dir` to completion in 200-step sessions: every session must
/// start from at least the `last_good` states it was handed, and the
/// composed report must be the uninterrupted one.
fn resume_to_completion(dir: &Path, mut last_good: usize, label: &str) {
    let report = loop {
        match crw43_session(dir) {
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
    assert_same(&reference(&crw(4, 3)), &report, label);
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
    let (written, first) = suspended(crw43_session(dir.path()));
    assert_eq!(written.as_deref(), Some(dir.path()));
    let fault = install_io_fault(IoFault::FailWrite(1));
    let (written, _) = suspended(crw43_session(dir.path()));
    drop(fault);
    assert_eq!(written, None, "the faulted rewrite fails");
    resume_to_completion(dir.path(), first, "after a failed rewrite");
}

/// The checkpoint twin of `fault::any_single_torn_write_leaves_cache_trustworthy`:
/// one faulted suspension, wherever the fault lands in its writes
/// (segment records or manifest), never costs a clean resume the last
/// good checkpoint, and the chain still converges to the uninterrupted
/// report.
#[test]
fn any_single_faulted_suspension_keeps_the_last_good_checkpoint() {
    for io_fault in ["torn-write", "fail-write", "enospc"] {
        for nth in [1u64, 2, 3, 4, 5, 6, 7, 8, 16, 64, 256] {
            let label = format!("io={io_fault}({nth})");
            let dir = TempDir::new("faulted");
            let (_, mut last_good) = suspended(crw43_session(dir.path()));
            let plan = FaultPlan::parse(&label).unwrap();
            let fault = install_io_fault(plan.io.unwrap());
            let (written, states) = suspended(crw43_session(dir.path()));
            drop(fault);
            if written.is_some() {
                last_good = states;
            }
            resume_to_completion(dir.path(), last_good, &label);
        }
    }
}

/// IEEE CRC32, bit by bit: the seal of a manifest, for forging an old
/// one.
fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &byte in bytes {
        c ^= u32::from(byte);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

/// The v2 form of the v3 manifest `bytes`: the same fields, every
/// integer fixed-width little-endian as v2 wrote it, sealed by its CRC.
fn as_v2_manifest(bytes: &[u8]) -> Vec<u8> {
    let mut body = &bytes[8..bytes.len() - 4];
    let varint = |input: &mut &[u8]| u64::decode(input).expect("a varint field");
    let byte = |input: &mut &[u8]| u8::decode(input).expect("a byte field");
    assert_eq!(varint(&mut body), 3, "a fresh manifest is v3");
    let mut v2 = b"TWOCACHE".to_vec();
    v2.extend_from_slice(&2u32.to_le_bytes());
    v2.extend_from_slice(&varint(&mut body).to_le_bytes()); // fingerprint
    v2.push(byte(&mut body)); // strength
    v2.extend_from_slice(&varint(&mut body).to_le_bytes()); // floor
    let count = varint(&mut body) as u32;
    v2.extend_from_slice(&count.to_le_bytes());
    for _ in 0..count {
        v2.push(byte(&mut body)); // role
        let len = varint(&mut body) as usize;
        v2.extend_from_slice(&(len as u32).to_le_bytes());
        v2.extend_from_slice(&body[..len]);
        body = &body[len..];
    }
    assert!(body.is_empty(), "every field of the v3 manifest read");
    let crc = crc32(&v2);
    v2.extend_from_slice(&crc.to_le_bytes());
    v2
}

/// A checkpoint under a **v2 manifest** — the fields a suspension
/// wrote, spelled fixed-width as v2 did and sealed by a valid CRC — is
/// refused and replaced: the next session starts cold, so it suspends
/// at exactly the states the first one did, and writes a v3 manifest
/// that resumes to the uninterrupted report.
#[test]
fn v2_manifest_checkpoint_is_foreign_and_replaced() {
    let dir = TempDir::new("v2-manifest");
    let (written, first) = suspended(crw43_session(dir.path()));
    assert_eq!(written.as_deref(), Some(dir.path()));
    let manifest = dir.path().join(MANIFEST_NAME);
    let v3 = std::fs::read(&manifest).unwrap();
    std::fs::write(&manifest, as_v2_manifest(&v3)).unwrap();

    let (written, states) = suspended(crw43_session(dir.path()));
    assert_eq!(written.as_deref(), Some(dir.path()));
    assert_eq!(states, first, "a v2 manifest's checkpoint is never resumed");
    let replaced = std::fs::read(&manifest).unwrap();
    assert_eq!(&replaced[..9], b"TWOCACHE\x03", "replaced by a v3 manifest");
    resume_to_completion(dir.path(), first, "after a v2 manifest");
}
