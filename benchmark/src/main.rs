//! The repository benchmark: time to a verified verdict at `(8, 7)` on four
//! engine workloads, with an outside-in layer trace.  See `README.md`.
//!
//! ```text
//! twostep-benchmark --workload W --seed N --seconds S --trace 0|1
//! twostep-benchmark selfcheck [--seed N] [--seconds S] [--runs K]
//! twostep-benchmark manifest
//! ```

mod adapter;
mod alloc;
mod inputs;
mod manifest;
mod output;
mod procfs;
mod run;
mod scratch;
mod selfcheck;
mod span;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use workload::Workload;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// Removes every `TWOSTEP_*` variable from this process's environment (and
/// so from its workers'): the library reads them for symmetry, cache
/// directory, threads, stealing, fault injection, budgets and donation
/// depth, and a developer's shell must not warm, quotient or parallelise a
/// workload.  The adapter additionally passes every such setting explicitly.
fn scrub_environment() {
    let knobs: Vec<_> = std::env::vars_os()
        .map(|(name, _)| name)
        .filter(|name| name.to_string_lossy().starts_with("TWOSTEP_"))
        .collect();
    for name in knobs {
        std::env::remove_var(name);
    }
}

struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 0,
        seconds: manifest::RUN_SECONDS as f64,
        trace: false,
        runs: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => flags.workload = Some(value.clone()),
            "--seed" => flags.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                flags.seconds = value.parse().map_err(|_| bad())?;
                if !(flags.seconds > 0.0 && flags.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                flags.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--runs" => {
                flags.runs = value.parse().map_err(|_| bad())?;
                if flags.runs == 0 {
                    return Err(bad());
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(flags)
}

fn run_workload(flags: &Flags, process_start: Instant) -> Result<ExitCode, String> {
    let name = flags.workload.as_deref().ok_or("--workload is required")?;
    let workload = Workload::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = manifest::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let (outcome, declared): (run::Outcome, Vec<(&str, &str)>) = if flags.trace {
        (
            trace::run(workload, flags.seed)?,
            manifest::PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit))
                .collect(),
        )
    } else {
        (
            run::run(workload, flags.seed, flags.seconds, process_start)?,
            manifest::END_TO_END
                .iter()
                .map(|m| (m.name, m.unit))
                .collect(),
        )
    };
    let correct = outcome.failed == 0;
    println!(
        "{}",
        output::result_line(
            correct,
            outcome.attempted,
            outcome.failed,
            &declared,
            &outcome.values
        )?
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    scrub_environment();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some(adapter::WORKER_COMMAND) => {
            adapter::run_dist_worker(&args[1..]).map(|()| ExitCode::SUCCESS)
        }
        Some("manifest") => {
            print!("{}", manifest::render());
            Ok(ExitCode::SUCCESS)
        }
        Some("selfcheck") => parse_flags(&args[1..])
            .and_then(|flags| selfcheck::run(flags.seed, flags.seconds, flags.runs)),
        _ => parse_flags(&args).and_then(|flags| run_workload(&flags, process_start)),
    };
    result.unwrap_or_else(|detail| {
        eprintln!("twostep-benchmark: {detail}");
        ExitCode::from(2)
    })
}
