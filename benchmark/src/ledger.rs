//! The ledger's metric tables: names, units, clocks and regression bounds.

use crate::stats::Bound;

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// What it costs this machine to produce the result; noisy.
    Host,
    /// What the modelled Delta-class machine would take; exact.
    Simulated,
    /// A count of ops, fixed by the op list.
    Ops,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Simulated => "simulated",
            Clock::Ops => "-",
        }
    }
}

/// One end-to-end metric. Lower is better for all of them.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub bound: Bound,
}

/// Host times. The issue asked for 10%, but the quartile spread of
/// `host_sweep_p50_s` over ten runs on the 2-core reference box is 2–10%
/// depending on the hour, so a 10% bound would be unresolved as often as
/// not. 25% is what the box can resolve and the most the driver accepts.
const HOST_TIME: Bound = Bound::Relative {
    rel: 0.25,
    abs: 0.0,
};

/// The end-to-end metrics, the same on every workload: the issue's twelve,
/// and the two `floor` host times the build driver is given (see
/// [`DRIVER_END_TO_END`]).
pub const END_TO_END: [EndToEnd; 14] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        clock: Clock::Host,
        bound: Bound::Relative {
            rel: 0.25,
            abs: 0.2,
        },
    },
    EndToEnd {
        name: "host_sweep_p50_s",
        unit: "s",
        clock: Clock::Host,
        bound: HOST_TIME,
    },
    EndToEnd {
        name: "host_us_per_sim_event",
        unit: "us",
        clock: Clock::Host,
        bound: HOST_TIME,
    },
    EndToEnd {
        name: "host_sweep_floor_s",
        unit: "s",
        clock: Clock::Host,
        bound: HOST_TIME,
    },
    EndToEnd {
        name: "host_floor_us_per_sim_event",
        unit: "us",
        clock: Clock::Host,
        bound: HOST_TIME,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        clock: Clock::Host,
        // Identical runs differ by 17–22% (allocator arenas): only a gross
        // growth is resolvable.
        bound: Bound::Relative {
            rel: 0.50,
            abs: 0.0,
        },
    },
    EndToEnd {
        name: "sim_elapsed_s",
        unit: "s",
        clock: Clock::Simulated,
        bound: Bound::Exact,
    },
    EndToEnd {
        name: "sim_io_requests",
        unit: "count",
        clock: Clock::Simulated,
        bound: Bound::Exact,
    },
    EndToEnd {
        name: "sim_io_bytes",
        unit: "bytes",
        clock: Clock::Simulated,
        bound: Bound::Exact,
    },
    EndToEnd {
        name: "sim_msg_bytes",
        unit: "bytes",
        clock: Clock::Simulated,
        bound: Bound::Exact,
    },
    EndToEnd {
        name: "sim_events",
        unit: "count",
        clock: Clock::Simulated,
        bound: Bound::Exact,
    },
    EndToEnd {
        name: "est_gap_max_rel",
        unit: "ratio",
        clock: Clock::Simulated,
        bound: Bound::Exact,
    },
    EndToEnd {
        name: "ops_attempted",
        unit: "count",
        clock: Clock::Ops,
        bound: Bound::Exact,
    },
    EndToEnd {
        name: "ops_failed",
        unit: "count",
        clock: Clock::Ops,
        bound: Bound::Exact,
    },
];

/// The end-to-end metrics `BENCHMARK.json` hands to the build driver, with
/// the share of the parent's median each may worsen by. The driver runs
/// every workload under many seeds, bounds each metric's spread across
/// them, and wants metrics that are never zero. That leaves the host-clock
/// times, plus `sim_events` — the denominator of the per-event cost, pinned
/// so the ratio cannot improve by inflating it; it is never zero and moves
/// by under 4% between seeds. Of the host times it gets the lap floors
/// ([`crate::stats::LapFloor`]) and not the sweep medians: the driver's
/// shared host spread `host_sweep_p50_s` by 26–32% of its median between
/// runs of the same code, past any bound it accepts. The other simulated quantities are
/// exact per seed but differ between seeds by up to 33% (and are
/// legitimately zero on some workloads), so `--repeat-check` and
/// `sim_fingerprint` compare them exactly instead; peak RSS swings by
/// 17–22% between identical runs (which rank's buffers land in which
/// allocator arena), wider than any bound the driver accepts.
pub const DRIVER_END_TO_END: [(&str, f64); 4] = [
    ("host_sweep_floor_s", 0.25),
    ("host_floor_us_per_sim_event", 0.25),
    ("sim_events", 0.15),
    ("setup_s", 0.25),
];

/// Seconds one driver run measures for: 5–7 sweeps of the slower workloads,
/// and 114 runs of about 24 s (with setup, probes and two builds) in about
/// five sixths of the driver's 3420 s on the reference box.
pub const DRIVER_RUN_SECONDS: u32 = 20;

/// `BENCHMARK.json`, generated from the tables above so the file and the
/// program cannot drift apart (a test compares them).
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = crate::workloads::WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = DRIVER_END_TO_END
        .iter()
        .map(|(name, bound)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{}\", \"better\": \"lower\", \"bound\": {bound}}}",
                end_to_end(name).unit
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                if higher_is_better(name) {
                    "higher"
                } else {
                    "lower"
                }
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {DRIVER_RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// Per-layer metrics `(name, unit)`, measured from the traced pass only.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hpf.parse_s", "s"),
    ("hpf.sema_s", "s"),
    ("hpf.source_bytes", "bytes"),
    ("hpf.parse_mb_per_s", "MB/s"),
    ("hpf.rejects", "count"),
    ("ooc-core.lower_s", "s"),
    ("ooc-core.plan_s", "s"),
    ("ooc-core.search_s", "s"),
    ("ooc-core.reuse_replay_s", "s"),
    ("ooc-core.ir_ops", "count"),
    ("ooc-core.chose_row_slab", "count"),
    ("ooc-core.chose_two_phase", "count"),
    ("ooc-core.programs", "count"),
    ("noderun.run_s", "s"),
    ("noderun.run_p50_ms", "ms"),
    ("noderun.run_p90_ms", "ms"),
    ("noderun.collect_verify_s", "s"),
    ("noderun.sim_flops", "count"),
    ("noderun.host_mflops", "Mflop/s"),
    ("ooc-array.redist_s", "s"),
    ("ooc-array.inspect_s", "s"),
    ("ooc-array.gather_s", "s"),
    ("ooc-array.gathers_per_inspect", "ratio"),
    ("ooc-array.section_runs_s", "s"),
    ("pario.read_requests", "count"),
    ("pario.write_requests", "count"),
    ("pario.read_bytes", "bytes"),
    ("pario.write_bytes", "bytes"),
    ("pario.cache_hit_ratio", "ratio"),
    ("pario.write_backs", "count"),
    ("pario.io_retries", "count"),
    ("pario.faults_injected", "count"),
    ("pario.probe_read_s", "s"),
    ("pario.probe_write_s", "s"),
    ("pario.probe_mb_per_s", "MB/s"),
    ("pario.plan_union_s", "s"),
    ("dmsim.messages", "count"),
    ("dmsim.msg_bytes", "bytes"),
    ("dmsim.msg_retries", "count"),
    ("dmsim.pool_start_s", "s"),
    ("dmsim.run_s.64", "s"),
    ("dmsim.run_s.256", "s"),
    ("dmsim.run_s.1024", "s"),
    ("dmsim.run_s.4096", "s"),
    ("dmsim.alltoall_s.256", "s"),
    ("dmsim.host_us_per_rank.256", "us"),
    ("dmsim.host_us_per_rank.1024", "us"),
    ("dmsim.host_us_per_rank.4096", "us"),
    ("dmsim.rank_cost_ratio_4096_over_256", "ratio"),
    ("ooc-sched.capture_s", "s"),
    ("ooc-sched.submit_s", "s"),
    ("ooc-sched.submit_ack_p50_us", "us"),
    ("ooc-sched.submit_ack_p99_us", "us"),
    ("ooc-sched.drain_s", "s"),
    ("ooc-sched.drain_us_per_job", "us"),
    ("ooc-sched.farm_only_s", "s"),
    ("ooc-sched.guarded_s", "s"),
    ("ooc-sched.observed_s", "s"),
    ("ooc-sched.stream_s", "s"),
    ("ooc-sched.jobs", "count"),
    ("ooc-sched.dispatches", "count"),
    ("ooc-sched.events", "count"),
    ("ooc-sched.samples", "count"),
    ("ooc-sched.preemptions", "count"),
    ("ooc-sched.watchdog_kills", "count"),
    ("ooc-sched.retries", "count"),
    ("ooc-sched.quarantined", "count"),
    ("ooc-sched.sim_turnaround_p95_s", "s"),
    ("ooc-sched.sim_deadline_hit_rate", "ratio"),
    ("ooc-trace.json_parse_s", "s"),
    ("ooc-trace.prom_write_s", "s"),
    ("ooc-trace.sim_events_recorded", "count"),
    ("ooc-trace.record_overhead_ratio", "ratio"),
    ("ooc-trace.perfetto_export_s", "s"),
    ("ooc-trace.export_bytes", "bytes"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.spans", "count"),
    ("bench.sweeps", "count"),
];

/// Whether more of a per-layer metric is better (rates and useful-outcome
/// ratios); everything else — times, counts of work, retries — is better
/// lower for the same simulated result.
pub fn higher_is_better(name: &str) -> bool {
    matches!(
        name,
        "hpf.parse_mb_per_s"
            | "noderun.host_mflops"
            | "pario.probe_mb_per_s"
            | "pario.cache_hit_ratio"
            | "ooc-array.gathers_per_inspect"
            | "ooc-sched.sim_deadline_hit_rate"
    )
}

pub fn end_to_end(name: &str) -> &'static EndToEnd {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("unknown end-to-end metric {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a metric name is used twice");
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn every_per_layer_metric_names_a_layer() {
        for (name, _) in PER_LAYER {
            let layer = crate::spans::LAYERS
                .iter()
                .filter(|l| name.starts_with(&format!("{l}.")))
                .count();
            assert_eq!(layer, 1, "{name}");
        }
    }

    #[test]
    fn driver_metrics_keep_the_contracts_bounds() {
        for (name, bound) in DRIVER_END_TO_END {
            assert_ne!(end_to_end(name).clock, Clock::Ops);
            assert!(bound > 0.0 && bound <= 0.25, "{name}");
        }
        assert!(DRIVER_END_TO_END.iter().any(|m| m.0 == "setup_s"));
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `perf --benchmark-json`"
        );
        let doc = ooc_trace::json::parse(&committed).expect("BENCHMARK.json is JSON");
        assert!(committed.len() <= 64 << 10);
        for w in doc.get("workloads").and_then(|w| w.as_arr()).unwrap() {
            let why = w.get("why").and_then(|s| s.as_str()).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }
}
