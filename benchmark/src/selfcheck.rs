//! Repeatability self-check: runs every workload in two sets of `--runs`
//! processes each (seeds `seed`, `seed + 1`, …, the same in both sets) and
//! fails if, for any end-to-end metric, the second set's median is worse
//! than the first's by more than the metric's bound, or — with at least two
//! runs per set — the distance between the quartiles of a set exceeds the
//! bound as a share of its median (`setup_s` excepted, as in the acceptance
//! rule the bounds were chosen against).  Prints the spread table as JSON.

use std::process::{Command, ExitCode, Stdio};

use crate::manifest::{END_TO_END, WORKLOADS};
use crate::output::{count_field, metric_value};
use crate::stats;

/// One untraced run of `workload` in a process of its own; returns its
/// end-to-end values in `END_TO_END` order.
fn run_once(workload: &str, seed: u64, seconds: f64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !output.status.success() || count_field(line, "failed") != Some(0) {
        return Err(format!(
            "{workload} seed {seed}: exited with {} after printing {line:?}",
            output.status
        ));
    }
    END_TO_END
        .iter()
        .map(|m| {
            metric_value(line, m.name)
                .ok_or_else(|| format!("{workload}: no {} in {line:?}", m.name))
        })
        .collect()
}

fn list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(f64::to_string).collect();
    format!("[{}]", items.join(", "))
}

pub fn run(seed: u64, seconds: f64, runs: usize) -> Result<ExitCode, String> {
    // sets[set][workload][run] = values in END_TO_END order
    let mut sets: Vec<Vec<Vec<Vec<f64>>>> = Vec::new();
    for set in 0..2 {
        let mut per_workload = Vec::new();
        for workload in WORKLOADS {
            let mut per_run = Vec::new();
            for k in 0..runs {
                eprintln!(
                    "selfcheck: set {} of 2, {}, run {} of {runs}",
                    set + 1,
                    workload.name,
                    k + 1
                );
                per_run.push(run_once(workload.name, seed + k as u64, seconds)?);
            }
            per_workload.push(per_run);
        }
        sets.push(per_workload);
    }

    let mut all_ok = true;
    let mut rows = Vec::new();
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let column =
                |set: usize| -> Vec<f64> { sets[set][w].iter().map(|run| run[m]).collect() };
            let (first, second) = (column(0), column(1));
            let (first_median, second_median) = (stats::median(&first), stats::median(&second));
            // Lower is better for every end-to-end metric.
            let worse_by = second_median / first_median - 1.0;
            let spreads = (runs >= 2).then(|| {
                [
                    stats::quartile_spread(&first),
                    stats::quartile_spread(&second),
                ]
            });
            let steady = metric.name == "setup_s"
                || spreads.is_none_or(|s| s.iter().all(|spread| *spread <= metric.bound));
            let ok = worse_by <= metric.bound && steady;
            all_ok &= ok;
            eprintln!(
                "selfcheck: {:<14} {:<14} median {:>10.4} -> {:>10.4} {:<4} worse by {:>+7.2}% (bound {:.0}%){} {}",
                workload.name,
                metric.name,
                first_median,
                second_median,
                metric.unit,
                worse_by * 100.0,
                metric.bound * 100.0,
                spreads.map_or(String::new(), |s| format!(
                    ", spread {:.2}% / {:.2}%",
                    s[0] * 100.0,
                    s[1] * 100.0
                )),
                if ok { "ok" } else { "OUT OF BOUND" },
            );
            rows.push(format!(
                "    {{\"workload\": \"{}\", \"metric\": \"{}\", \"unit\": \"{}\", \"bound\": {}, \
                 \"first\": {}, \"second\": {}, \"first_median\": {first_median}, \
                 \"second_median\": {second_median}, \"worse_by\": {worse_by}, \"spread\": {}, \"ok\": {ok}}}",
                workload.name,
                metric.name,
                metric.unit,
                metric.bound,
                list(&first),
                list(&second),
                spreads.map_or("null".to_string(), |s| list(&s)),
            ));
        }
    }
    println!(
        "{{\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"runs_per_set\": {runs},\n  \"ok\": {all_ok},\n  \"rows\": [\n{}\n  ]\n}}",
        rows.join(",\n")
    );
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
