//! `repro` — regenerate every table/figure-level claim of the paper.
//!
//! ```text
//! repro [--csv] <experiment> [key=value ...]
//!
//! experiments:
//!   e1-rounds               Theorem 1: decision rounds vs f
//!                             (n=16 max_f=8 seeds=1000 threads=auto)
//!   e2-bestcase             §3.2: failure-free runs (sizes=4,8,…,256)
//!   e3-bits                 Theorem 2: bit/message complexity
//!                             (sizes=8,16,32,64 widths=8,64,512)
//!   e4-cost                 §2.2: timed cost model + crossover
//!                             (n=9 D=1000 ds=1,10,…)
//!   e5-lowerbound           Theorems 3–5: exhaustive lower bound + bivalency
//!                             ((n,t) = (3,2) (4,3) (6,5); takes no key)
//!   e6-equivalence          §2.2: extended-on-classic simulation
//!                             (sizes=3,…,8 seeds=500)
//!   e7-bridge               §4: CRW vs MR99 (n=9 delay=100 fd=10)
//!   e8-scaling              sweep-executor speedup vs threads
//!                             (n=16 batch=2048 threads=1,2,4,8 reps=3)
//!   e9-snapshot             §1 related work: Chandy-Lamport snapshots
//!                             (sizes=3,…,16 initial=1000 seeds=20)
//!   fig1-trace              Figure 1: annotated execution trace
//!                             (n=5 prefix=2 | schedule="p1@r1:mid-control/2")
//!   ablation-commit-order   line 5 reconstruction ablation (n=4 t=2)
//!   all                     everything above, default parameters
//! ```
//!
//! A key that no experiment of the run reads (misspelt, or not one of
//! that experiment's) exits 2 before anything runs; under `all` a key
//! counts as read if any experiment reads it.  So do a malformed value
//! (`n=banana`) and a token that is neither `--csv`, the experiment nor
//! `key=value` (`--cvs`, a second experiment name): each is named, with
//! the usage line.

use twostep_bench::{exp, Overrides, Table};

/// The experiments `all` runs, in order.
const ALL: [&str; 11] = [
    "e1-rounds",
    "e2-bestcase",
    "e3-bits",
    "e4-cost",
    "e5-lowerbound",
    "e6-equivalence",
    "e7-bridge",
    "e8-scaling",
    "e9-snapshot",
    "fig1-trace",
    "ablation-commit-order",
];

/// One experiment with its parameters already read and checked: run
/// with the `--csv` flag, it prints its output.
type Job = Box<dyn FnOnce(bool)>;

/// A job that prints the tables `make` renders.
fn tables(make: impl FnOnce() -> Vec<Table> + 'static) -> Job {
    Box::new(move |csv| {
        for table in make() {
            let text = if csv {
                table.render_csv()
            } else {
                table.render()
            };
            println!("{text}");
        }
    })
}

/// Reads and checks `cmd`'s parameters from `ov` and returns the jobs
/// that run it, or the error for an unknown experiment or a bad
/// schedule.  Nothing runs here.
fn plan(cmd: &str, ov: &Overrides) -> Result<Vec<Job>, String> {
    let job: Job = match cmd {
        "e1-rounds" => {
            let d = exp::e1::E1Params::default();
            let p = exp::e1::E1Params {
                n: ov.usize_or("n", d.n)?,
                max_f: ov.usize_or("max_f", d.max_f)?,
                seeds: ov.u64_or("seeds", d.seeds)?,
                threads: ov.usize_or("threads", d.threads)?,
            };
            tables(move || vec![exp::e1::table(p)])
        }
        "e2-bestcase" => {
            let d = exp::e2::E2Params::default();
            let p = exp::e2::E2Params {
                sizes: ov.usize_list_or("sizes", &d.sizes)?,
            };
            tables(move || vec![exp::e2::table(p)])
        }
        "e3-bits" => {
            let d = exp::e3::E3Params::default();
            let p = exp::e3::E3Params {
                sizes: ov.usize_list_or("sizes", &d.sizes)?,
                widths: ov
                    .u64_list_or(
                        "widths",
                        &d.widths.iter().map(|w| *w as u64).collect::<Vec<_>>(),
                    )?
                    .into_iter()
                    .map(|w| w as u32)
                    .collect(),
            };
            tables(move || vec![exp::e3::table(p)])
        }
        "e4-cost" => {
            let d = exp::e4::E4Params::default();
            let p = exp::e4::E4Params {
                n: ov.usize_or("n", d.n)?,
                big_d: ov.u64_or("D", d.big_d)?,
                small_ds: ov.u64_list_or("ds", &d.small_ds)?,
                fs: ov.usize_list_or("fs", &d.fs)?,
            };
            tables(move || vec![exp::e4::table(p)])
        }
        "e5-lowerbound" => tables(|| exp::e5::tables(exp::e5::E5Params::default())),
        "e6-equivalence" => {
            let d = exp::e6::E6Params::default();
            let p = exp::e6::E6Params {
                sizes: ov.usize_list_or("sizes", &d.sizes)?,
                seeds: ov.u64_or("seeds", d.seeds)?,
                threads: ov.usize_or("threads", d.threads)?,
            };
            tables(move || vec![exp::e6::table(p)])
        }
        "e7-bridge" => {
            let d = exp::e7::E7Params::default();
            let p = exp::e7::E7Params {
                n: ov.usize_or("n", d.n)?,
                delay: ov.u64_or("delay", d.delay)?,
                fd_latency: ov.u64_or("fd", d.fd_latency)?,
            };
            tables(move || vec![exp::e7::table(p)])
        }
        "e8-scaling" => {
            let d = exp::e8::E8Params::default();
            let p = exp::e8::E8Params {
                n: ov.usize_or("n", d.n)?,
                batch: ov.u64_or("batch", d.batch)?,
                threads: ov.usize_list_or("threads", &d.threads)?,
                reps: ov.usize_or("reps", d.reps as usize)? as u32,
            };
            tables(move || vec![exp::e8::table(p)])
        }
        "e9-snapshot" => {
            let d = exp::e9::E9Params::default();
            let p = exp::e9::E9Params {
                sizes: ov.usize_list_or("sizes", &d.sizes)?,
                initial: ov.u64_or("initial", d.initial)?,
                seeds: ov.u64_or("seeds", d.seeds)?,
            };
            tables(move || exp::e9::tables(p))
        }
        "fig1-trace" => {
            let n = ov.usize_or("n", 5)?;
            match ov.get("schedule") {
                Some(text) => {
                    let schedule =
                        twostep_model::parse_schedule(n, text).map_err(|e| e.to_string())?;
                    Box::new(move |_| println!("{}", exp::fig1::render_with(n, &schedule)))
                }
                None => {
                    let prefix = ov.usize_or("prefix", 2)?;
                    Box::new(move |_| println!("{}", exp::fig1::render(n, prefix)))
                }
            }
        }
        "ablation-commit-order" => {
            let (n, t) = (ov.usize_or("n", 4)?, ov.usize_or("t", 2)?);
            tables(move || vec![exp::ablation::table(n, t)])
        }
        "all" => {
            let mut jobs = Vec::new();
            for c in ALL {
                jobs.extend(plan(c, ov)?);
            }
            return Ok(jobs);
        }
        _ => return Err(format!("unknown experiment: {cmd}")),
    };
    Ok(vec![job])
}

const USAGE: &str = "usage: repro [--csv] <experiment> [key=value ...]   (try: repro all)";

/// Prints `error` and the usage line, and exits 2: nothing has run.
fn refuse(error: &str) -> ! {
    eprintln!("{error}");
    eprintln!("{USAGE}");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = args.iter().any(|a| a == "--csv");
    // The experiment is the one bare word; any other token that is
    // neither `--csv` nor `key=value` is refused by name.
    let mut cmd = None;
    for arg in args.iter().filter(|a| *a != "--csv" && !a.contains('=')) {
        match cmd {
            None if !arg.starts_with('-') => cmd = Some(arg.clone()),
            _ => refuse(&format!("repro takes no argument `{arg}`; nothing was run")),
        }
    }
    let overrides = Overrides::from_args(&args);

    let Some(cmd) = cmd else {
        eprintln!("{USAGE}");
        eprintln!("experiments: {} all", ALL.join(" "));
        std::process::exit(2);
    };

    let jobs = plan(&cmd, &overrides).unwrap_or_else(|e| refuse(&e));
    let unread = overrides.unread();
    if !unread.is_empty() {
        let keys: Vec<String> = unread.iter().map(|key| format!("`{key}`")).collect();
        eprintln!(
            "{cmd} reads no key {} (keys are case-sensitive); nothing was run",
            keys.join(", ")
        );
        std::process::exit(2);
    }
    for job in jobs {
        job(csv);
    }
}
