//! **E8 — substrate scaling:** wall-clock speedup of the parallel sweep
//! executor over worker counts, on a fixed batch of independent consensus
//! simulations.
//!
//! One timing per worker count (the best of `reps` repetitions), as a
//! text table from `repro e8-scaling` — the workload is embarrassingly
//! parallel, so the shape to look for is near-linear speedup until
//! physical cores run out.

use crate::cells;
use crate::table::Table;
use std::time::Instant;
use twostep_adversary::{random_schedule, RandomScheduleSpec};
use twostep_core::run_crw;
use twostep_model::SystemConfig;
use twostep_sim::{default_threads, par_map, TraceLevel};

/// Parameters for E8.
#[derive(Clone, Debug)]
pub struct E8Params {
    /// System size per simulation.
    pub n: usize,
    /// Batch size (independent runs per measurement).
    pub batch: u64,
    /// Worker counts to sweep (deduplicated, capped at available
    /// parallelism is *not* enforced — oversubscription is informative).
    pub threads: Vec<usize>,
    /// Measurement repetitions (the minimum is reported).
    pub reps: u32,
}

impl Default for E8Params {
    fn default() -> Self {
        let max = default_threads();
        let mut threads = vec![1usize, 2, 4, 8];
        threads.retain(|t| *t <= max);
        if !threads.contains(&max) {
            threads.push(max);
        }
        E8Params {
            n: 16,
            batch: 2048,
            threads,
            reps: 3,
        }
    }
}

/// Runs E8 and renders the table.
pub fn table(p: E8Params) -> Table {
    let config = SystemConfig::max_resilience(p.n).expect("n >= 1");
    let proposals: Vec<u64> = (0..p.n as u64).map(|i| 1000 + i).collect();
    let seeds: Vec<u64> = (0..p.batch).collect();

    let measure = |threads: usize| -> (f64, u32) {
        let mut best_ms = f64::INFINITY;
        let mut checksum = 0u32;
        for _ in 0..p.reps.max(1) {
            let start = Instant::now();
            let rounds = par_map(&seeds, threads, |_, seed| {
                let sched = random_schedule(&config, RandomScheduleSpec::uniform(&config), *seed);
                run_crw(&config, &sched, &proposals, TraceLevel::Off)
                    .expect("run")
                    .last_decision_round()
                    .map_or(0, |r| r.get())
            });
            let elapsed = start.elapsed().as_secs_f64() * 1e3;
            best_ms = best_ms.min(elapsed);
            checksum = rounds.iter().sum();
        }
        (best_ms, checksum)
    };

    let mut table = Table::new(
        format!(
            "E8: parallel sweep scaling (n={}, batch={}, best of {})",
            p.n, p.batch, p.reps
        ),
        &["threads", "ms", "speedup", "efficiency", "checksum"],
    );
    let mut base_ms: Option<f64> = None;
    let mut base_checksum: Option<u32> = None;
    for &threads in &p.threads {
        let (ms, checksum) = measure(threads);
        let base = *base_ms.get_or_insert(ms);
        if let Some(expected) = base_checksum {
            assert_eq!(
                checksum, expected,
                "parallel result must not depend on thread count"
            );
        }
        base_checksum = Some(checksum);
        let speedup = base / ms;
        table.row(cells!(
            threads,
            format!("{ms:.1}"),
            format!("{speedup:.2}x"),
            format!("{:.0}%", 100.0 * speedup / threads as f64),
            checksum
        ));
    }
    table.note(format!(
        "available parallelism on this machine: {}",
        default_threads()
    ));
    table.note("identical checksums certify thread-count independence (determinism).");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8_runs_and_is_thread_count_independent() {
        // Small batch; the assert inside `table` does the real checking.
        let t = table(E8Params {
            n: 8,
            batch: 64,
            threads: vec![1, 2],
            reps: 1,
        });
        assert_eq!(t.len(), 2);
        let csv = t.render_csv();
        let rows: Vec<Vec<String>> = csv
            .lines()
            .skip(2)
            .filter(|l| !l.starts_with('#'))
            .map(|l| l.split(',').map(String::from).collect())
            .collect();
        assert_eq!(rows[0][4], rows[1][4], "checksums match across threads");
    }
}
