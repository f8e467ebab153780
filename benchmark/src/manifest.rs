//! The benchmark's declared surface: workloads, metrics, bounds.  The tables
//! here are the single source; `BENCHMARK.json` at the repository root is
//! their rendering (`twostep-benchmark manifest` prints it, and a unit test
//! keeps the committed file equal to it).

/// How long one run's timed window lasts; `--seconds` defaults to it.
pub const RUN_SECONDS: u64 = 28;

/// How the driver invokes the benchmark, from the repository root.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub struct WorkloadDecl {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDecl] = &[
    WorkloadDecl {
        name: "crw8-cold",
        why: "serial walk, all-RAM memo, symmetry off: the walker inner loop does all the work; every other workload's reference",
    },
    WorkloadDecl {
        name: "crw8-quotient",
        why: "same walk under partial+value symmetry: canonicalization does the extra work on an 8x smaller memo; crw8-cold must not move with it",
    },
    WorkloadDecl {
        name: "crw8-spill",
        why: "serial walk with 2% of states resident: the disk tier and LZ77 codec write on eviction and read on rehydrate in the same run",
    },
    WorkloadDecl {
        name: "crw8-dist2",
        why: "two one-thread worker processes: launch, frontier, segment export and merge, replay; the only workload on both cores",
    },
];

pub struct EndToEndDecl {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn end_to_end(name: &'static str, unit: &'static str, bound: f64) -> EndToEndDecl {
    EndToEndDecl { name, unit, bound }
}

/// Lower is better for every one.  README.md records the measured spreads
/// these bounds were chosen against.
pub const END_TO_END: &[EndToEndDecl] = &[
    end_to_end("verdict_s", "s", 0.25),
    end_to_end("verdict_cpu_s", "s", 0.25),
    end_to_end("peak_rss_mib", "MiB", 0.15),
    end_to_end("setup_s", "s", 0.25),
];

pub struct PerLayerDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayerDecl {
    PerLayerDecl {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayerDecl {
    PerLayerDecl {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Module names are the layers.  The traced run of every workload emits all
/// of them; only the `explorer.*_per_state`, `run.*` and `trace.*` rows
/// depend on which workload is traced.
pub const PER_LAYER: &[PerLayerDecl] = &[
    lower("codec.hash_ns_per_key", "ns"),
    lower("codec.encode_ns_per_config", "ns"),
    lower("codec.canon_sort_ns_per_config", "ns"),
    higher("codec.compress_mib_per_s", "MiB/s"),
    higher("codec.decompress_mib_per_s", "MiB/s"),
    higher("codec.compress_ratio", "ratio"),
    lower("enumerate.effective_ns_per_call", "ns"),
    lower("enumerate.outcomes_per_call", "count"),
    lower("enumerate.kept_share", "ratio"),
    lower("engine.fork_ns", "ns"),
    lower("engine.step_ns_per_round", "ns"),
    lower("engine.peek_ns_per_proc", "ns"),
    lower("engine.plain_run_ns_per_round", "ns"),
    lower("explorer.ns_per_raw_state", "ns"),
    lower("explorer.allocs_per_state", "count"),
    lower("explorer.alloc_bytes_per_state", "B"),
    lower("explorer.stepped_over_serial", "ratio"),
    lower("explorer.threads2_over_serial", "ratio"),
    lower("explorer.donate2_over_serial", "ratio"),
    higher("explorer.orbit_reduction", "ratio"),
    lower("explorer.quotient_over_serial", "ratio"),
    lower("explorer.n6_s", "s"),
    lower("explorer.n7_s", "s"),
    lower("explorer.floodset5_s", "s"),
    lower("explorer.earlystop5_s", "s"),
    lower("memo.spill_over_ram", "ratio"),
    lower("spill.bytes_written", "B"),
    lower("spill.encode_summary_ns", "ns"),
    lower("spill.decode_summary_ns", "ns"),
    higher("spill.validate_mib_per_s", "MiB/s"),
    lower("cache.prime_s", "s"),
    lower("cache.warm_s", "s"),
    lower("cache.bytes_per_state", "B"),
    lower("cache.fingerprint_ns", "ns"),
    lower("checkpoint.suspend_s", "s"),
    lower("checkpoint.resume_s", "s"),
    lower("checkpoint.bytes", "B"),
    lower("dist.frontier_s", "s"),
    lower("dist.workers_wall_s", "s"),
    lower("dist.worker_frontier_max_s", "s"),
    lower("dist.worker_walk_max_s", "s"),
    lower("dist.worker_export_max_s", "s"),
    lower("dist.merge_s", "s"),
    lower("dist.replay_s", "s"),
    lower("dist.report_s", "s"),
    lower("dist.launch_overhead_s", "s"),
    lower("dist.degraded", "count"),
    lower("dist.duplicate_share", "ratio"),
    lower("dist.inproc_s", "s"),
    lower("dist.elastic_s", "s"),
    higher("dist.elastic_steals", "count"),
    lower("scheduler.spawn_join_us", "us"),
    lower("scheduler.queue_ns_per_item", "ns"),
    lower("run.verdict_median_s", "s"),
    higher("run.samples", "count"),
    higher("run.raw_states_per_s", "1/s"),
    lower("trace.overhead_share", "ratio"),
];

fn better(higher_is_better: bool) -> &'static str {
    if higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// The text of `BENCHMARK.json`.
pub fn render() -> String {
    let quoted: Vec<String> = COMMAND.iter().map(|c| format!("\"{c}\"")).collect();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"lower\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.higher_is_better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted.join(", "),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(ok)
    }

    fn is_unit(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
    }

    #[test]
    fn committed_manifest_is_the_rendering_of_these_tables() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            render(),
            "regenerate with: cargo run --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn declarations_stay_inside_the_contract() {
        let mut names: Vec<&str> = Vec::new();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(is_name(name), "bad name {name:?}");
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used once");

        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32);
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"', '\\']),
                "{}",
                w.name
            );
        }
        for m in END_TO_END {
            assert!(
                is_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
        }
        for m in PER_LAYER {
            assert!(is_unit(m.unit), "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!(setup.unit, "s");
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(render().len() <= 64 * 1024);
    }
}
