//! The untraced run: set up, time a window of checked iterations, report the
//! end-to-end metrics.
//!
//! Closed loop, one client: the next exploration starts when the previous
//! report has been checked.

use std::time::Instant;

use crate::adapter::{Engine, Problem, Verdict};
use crate::output::Values;
use crate::procfs;
use crate::scratch::Scratch;
use crate::stats;
use crate::workload::{self, Workload, N, RAW_STATES, T};

/// Set-up is sampled this many times per run and reported as the median;
/// the first sample starts at process start.
const SETUP_PASSES: usize = 3;

/// The warm-up exploration of a set-up pass runs the workload's own engine
/// one size down: it takes every code path of the timed iterations at a
/// tenth of their cost, which leaves the run's time for the timed window.
/// (The first timed iteration still grows the heap to full size; it is never
/// the fastest, so the gated minimum does not see that.)
const WARMUP_N: usize = N - 1;
const WARMUP_T: usize = T - 1;

/// A window never closes on fewer timed iterations than this.
const MIN_ITERATIONS: usize = 3;

/// A run that keeps failing stops instead of burning its whole window.
const MAX_FAILURES: u64 = 3;

pub struct Outcome {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
}

/// One set-up: generate the inputs from the seed, make the scratch
/// directory, run and check the warm-up exploration.
fn set_up(workload: Workload, seed: u64) -> Result<(Problem, Scratch), String> {
    let problem = Problem::crw(N, T, seed)?;
    let warmup = Problem::crw(WARMUP_N, WARMUP_T, seed)?;
    let scratch = Scratch::create(workload.name())?;
    let (verdict, _) = workload.explore(&warmup, scratch.path())?;
    workload::paper_invariants(&verdict, WARMUP_T).map_err(|e| format!("warm-up: {e}"))?;
    Ok((problem, scratch))
}

pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    process_start: Instant,
) -> Result<Outcome, String> {
    // Work a later change moves out of the timed iterations into per-run
    // preparation shows in every set-up sample; first-use initialisation of
    // process-wide state shows in the first one only (all are printed).
    let mut setup_samples = Vec::with_capacity(SETUP_PASSES);
    let mut prepared = None;
    for pass in 0..SETUP_PASSES {
        drop(prepared.take());
        let started = if pass == 0 {
            process_start
        } else {
            Instant::now()
        };
        prepared = Some(set_up(workload, seed)?);
        setup_samples.push(started.elapsed().as_secs_f64());
    }
    let (problem, scratch) = prepared.expect("at least one set-up pass");

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut verdicts: Vec<Verdict> = Vec::new();
    let window = Instant::now();
    while failed < MAX_FAILURES
        && (walls.len() < MIN_ITERATIONS || window.elapsed().as_secs_f64() < seconds)
    {
        attempted += 1;
        let cpu_before = procfs::cpu_seconds()?;
        let started = Instant::now();
        // From the engine call to a checked report.
        let checked = workload
            .explore(&problem, scratch.path())
            .and_then(|(verdict, phases)| {
                workload.check(&verdict, phases.as_ref())?;
                Ok(verdict)
            });
        let wall = started.elapsed().as_secs_f64();
        let cpu = procfs::cpu_seconds()? - cpu_before;
        match checked {
            Ok(verdict) => {
                walls.push(wall);
                cpus.push(cpu);
                verdicts.push(verdict);
            }
            Err(detail) => {
                failed += 1;
                eprintln!(
                    "{}: iteration {attempted} failed: {detail}",
                    workload.name()
                );
            }
        }
    }
    let window_s = window.elapsed().as_secs_f64();
    // Before the reference walk, whose all-RAM memo would otherwise set
    // the high-water mark of the spilling workload.
    let peak_rss_mib = procfs::peak_rss_mib()?;

    // Every timed report against one serial/RAM/off walk of the same
    // problem (for `crw8-cold` that is one more iteration of itself, which
    // also shows the walk repeats bit for bit).
    attempted += 1;
    match problem.explore(&Engine::serial()) {
        Ok(reference) => {
            for (i, verdict) in verdicts.iter().enumerate() {
                if let Err(detail) = workload.check_against(verdict, &reference) {
                    failed += 1;
                    eprintln!(
                        "{}: timed iteration {} differs from the reference walk: {detail}",
                        workload.name(),
                        i + 1
                    );
                }
            }
        }
        Err(e) => {
            failed += 1;
            eprintln!(
                "{}: reference walk failed: {}",
                workload.name(),
                e.message()
            );
        }
    }

    if walls.is_empty() {
        return Err(format!(
            "{}: no timed iteration passed its check",
            workload.name()
        ));
    }
    // The minimum, not the median, is the gated timing: on a shared
    // machine noise only ever adds time, and it comes in phases of tens of
    // seconds that move the median of a window far more than its fastest
    // iteration (measurements in README.md).
    let fastest = stats::argmin(&walls);
    let mut values = Values::new();
    values.insert("verdict_s".to_string(), walls[fastest]);
    values.insert("verdict_cpu_s".to_string(), cpus[fastest]);
    values.insert("peak_rss_mib".to_string(), peak_rss_mib);
    values.insert("setup_s".to_string(), stats::median(&setup_samples));

    eprintln!(
        "{} seed {seed}: {} timed iterations in {window_s:.1} s; verdict_s min {:.4} median {:.4}{}; \
         {:.0} raw states/s; set-up samples {setup_samples:.4?} s",
        workload.name(),
        walls.len(),
        walls[fastest],
        stats::median(&walls),
        match stats::highest_supported_percentile(&walls) {
            Some((p, value)) => format!(" p{p} {value:.4}"),
            None => " (too few samples for a tail percentile)".to_string(),
        },
        RAW_STATES as f64 / walls[fastest],
    );
    Ok(Outcome {
        values,
        attempted,
        failed,
    })
}
