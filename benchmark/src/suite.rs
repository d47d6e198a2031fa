//! Running every workload, each in a process of its own: the committed
//! baseline, the layer table, `--smoke` and `--repeat-check`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use ooc_trace::json::{self, Json};

use crate::ledger::{END_TO_END, PER_LAYER};
use crate::spans::LAYERS;
use crate::workloads::WORKLOADS;

/// What a child process reported on its `full:` line.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: String,
    pub raw: String,
    pub json: Json,
}

impl Report {
    pub fn e2e(&self, name: &str) -> f64 {
        self.json
            .get("end_to_end")
            .and_then(|m| m.get(name))
            .and_then(Json::as_num)
            .unwrap_or(f64::NAN)
    }

    pub fn fingerprint(&self) -> &str {
        self.json
            .get("sim_fingerprint")
            .and_then(Json::as_str)
            .unwrap_or("")
    }

    fn map(&self, key: &str) -> BTreeMap<String, f64> {
        match self.json.get(key) {
            Some(Json::Obj(m)) => m
                .iter()
                .filter_map(|(k, v)| v.as_num().map(|v| (k.clone(), v)))
                .collect(),
            _ => BTreeMap::new(),
        }
    }
}

/// How the suite runs its children.
#[derive(Debug, Clone)]
pub struct SuiteSpec {
    pub seed: u64,
    pub smoke: bool,
    pub seconds: Option<f64>,
    pub sweeps: Option<usize>,
    pub out_dir: PathBuf,
}

/// Run one workload in a child process and parse its report. The child is
/// waited for before this returns.
pub fn run_child(spec: &SuiteSpec, workload: &str, trace: bool) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &spec.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&spec.out_dir);
    if spec.smoke {
        cmd.arg("--smoke");
    }
    if let Some(s) = spec.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if let Some(k) = spec.sweeps {
        cmd.args(["--sweeps", &k.to_string()]);
    }
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let raw = stdout
        .lines()
        .find_map(|l| l.strip_prefix("full: "))
        .ok_or_else(|| {
            format!(
                "{workload} printed no report (exit {:?}): {}",
                out.status.code(),
                String::from_utf8_lossy(&out.stderr)
            )
        })?
        .to_string();
    let json = json::parse(&raw).map_err(|e| format!("{workload} report: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} failed ops: {} of {}",
            json.get("end_to_end")
                .and_then(|m| m.get("ops_failed"))
                .and_then(Json::as_num)
                .unwrap_or(f64::NAN),
            json.get("end_to_end")
                .and_then(|m| m.get("ops_attempted"))
                .and_then(Json::as_num)
                .unwrap_or(f64::NAN)
        ));
    }
    Ok(Report {
        workload: workload.to_string(),
        raw,
        json,
    })
}

/// Every workload, untraced then traced. Returns `(untraced, traced)` per
/// workload in report order.
pub fn run_all(spec: &SuiteSpec) -> Result<Vec<(Report, Report)>, String> {
    WORKLOADS
        .iter()
        .map(|(name, _)| {
            let plain = run_child(spec, name, false)?;
            let traced = run_child(spec, name, true)?;
            eprintln!(
                "{name}: sweep floor {:.4} s, p50 {:.4} s, setup {:.3} s, fingerprint {}",
                plain.e2e("host_sweep_floor_s"),
                plain.e2e("host_sweep_p50_s"),
                plain.e2e("setup_s"),
                plain.fingerprint()
            );
            Ok((plain, traced))
        })
        .collect()
}

/// The end-to-end table of a suite run.
pub fn print_summary(results: &[(Report, Report)]) {
    print!("{:<32}", "end-to-end");
    for (plain, _) in results {
        print!(" {:>16}", plain.workload);
    }
    println!();
    for m in END_TO_END {
        print!("{:<32}", format!("{} ({})", m.name, m.unit));
        for (plain, _) in results {
            print!(" {:>16.6}", plain.e2e(m.name));
        }
        println!();
    }
    print!("{:<32}", "sim_fingerprint");
    for (plain, _) in results {
        print!(" {:>16}", plain.fingerprint());
    }
    println!();
    print!("{:<32}", "trace_overhead_ratio");
    for (_, traced) in results {
        print!(
            " {:>16.4}",
            traced.map("per_layer")["bench.trace_overhead_ratio"]
        );
    }
    println!();
}

/// `baseline.json`: the untraced end-to-end metrics and the traced
/// per-layer metrics of every workload, as the children reported them.
pub fn baseline_json(seed: u64, results: &[(Report, Report)]) -> String {
    let mut out = format!("{{\n  \"seed\": {seed},\n  \"workloads\": {{\n");
    for (i, (plain, traced)) in results.iter().enumerate() {
        let _ = write!(
            out,
            "    \"{}\": {{\n      \"untraced\": {},\n      \"traced\": {}\n    }}{}\n",
            plain.workload,
            plain.raw,
            traced.raw,
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    out.push_str("  }\n}\n");
    out
}

/// `layers.md`: where each workload's traced sweep time went, and the
/// per-layer metrics beside it.
pub fn layers_md(seed: u64, results: &[(Report, Report)]) -> String {
    let mut out = format!(
        "# Traced layer table (seed {seed})\n\n\
         Share of traced sweep time by layer (self time: a span's duration minus the part its\n\
         children cover; probe and setup spans excluded). `bench` is the harness itself.\n\n| layer |"
    );
    for (plain, _) in results {
        let _ = write!(out, " {} |", plain.workload);
    }
    out.push_str("\n|---|");
    out.push_str(&"---:|".repeat(results.len()));
    out.push('\n');
    for layer in LAYERS {
        let _ = write!(out, "| `{layer}` |");
        for (_, traced) in results {
            let share = traced.map("layer_share").get(layer).copied().unwrap_or(0.0);
            let _ = write!(out, " {:.2}% |", share * 100.0);
        }
        out.push('\n');
    }
    out.push_str("\n## Per-layer metrics\n\n| metric | unit |");
    for (plain, _) in results {
        let _ = write!(out, " {} |", plain.workload);
    }
    out.push_str("\n|---|---|");
    out.push_str(&"---:|".repeat(results.len()));
    out.push('\n');
    let maps: Vec<BTreeMap<String, f64>> = results.iter().map(|r| r.1.map("per_layer")).collect();
    for (name, unit) in PER_LAYER {
        let _ = write!(out, "| `{name}` | {unit} |");
        for m in &maps {
            let v = m.get(*name).copied().unwrap_or(0.0);
            let _ = write!(out, " {} |", fmt_value(v));
        }
        out.push('\n');
    }
    out.push_str(
        "\nSample counts: `noderun.run_p50_ms` / `run_p90_ms` over `run_samples` runs and\n\
         `ooc-sched.submit_ack_*` over `ack_samples` acks, both recorded per workload in\n\
         `baseline.json`.\n",
    );
    out
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.6}")
    }
}

/// Write the baseline, the layer table and (already written by the traced
/// children) the Chrome traces under `dir`.
pub fn write_results(dir: &Path, seed: u64, results: &[(Report, Report)]) -> Result<(), String> {
    let write = |name: &str, body: String| {
        std::fs::write(dir.join(name), body).map_err(|e| format!("write {name}: {e}"))
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    write("baseline.json", baseline_json(seed, results))?;
    write("layers.md", layers_md(seed, results))
}

/// Run every workload twice and require the two runs to agree: simulated
/// metrics, op counts and the fingerprint exactly, host metrics within
/// their bounds. Returns the disagreements.
pub fn repeat_check(spec: &SuiteSpec) -> Result<Vec<String>, String> {
    let mut problems = Vec::new();
    for (name, _) in WORKLOADS {
        let a = run_child(spec, name, false)?;
        let b = run_child(spec, name, false)?;
        if a.fingerprint() != b.fingerprint() {
            problems.push(format!(
                "{name}: sim_fingerprint {} vs {}",
                a.fingerprint(),
                b.fingerprint()
            ));
        }
        for m in END_TO_END {
            let (x, y) = (a.e2e(m.name), b.e2e(m.name));
            if !m.bound.agree(x, y) {
                problems.push(format!(
                    "{name}: {} {x} vs {y} {} ({} clock, bound {:?})",
                    m.name,
                    m.unit,
                    m.clock.label(),
                    m.bound
                ));
            }
        }
        println!(
            "{name}: fingerprint {}  sweep floor {:.4} / {:.4} s  p50 {:.4} / {:.4} s  setup {:.3} / {:.3} s  rss {:.1} / {:.1} MiB",
            a.fingerprint(),
            a.e2e("host_sweep_floor_s"),
            b.e2e("host_sweep_floor_s"),
            a.e2e("host_sweep_p50_s"),
            b.e2e("host_sweep_p50_s"),
            a.e2e("setup_s"),
            b.e2e("setup_s"),
            a.e2e("peak_rss_mib"),
            b.e2e("peak_rss_mib"),
        );
    }
    Ok(problems)
}

/// The failed-op share of `workload` in the committed baseline (0 when
/// there is none): a run may not fail a larger share of its ops.
pub fn baseline_failed_share(results_dir: &Path, workload: &str) -> f64 {
    let Ok(text) = std::fs::read_to_string(results_dir.join("baseline.json")) else {
        return 0.0;
    };
    let Ok(doc) = json::parse(&text) else {
        return 0.0;
    };
    let e2e = doc
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("untraced"))
        .and_then(|w| w.get("end_to_end"));
    let get = |k: &str| e2e.and_then(|m| m.get(k)).and_then(Json::as_num);
    match (get("ops_failed"), get("ops_attempted")) {
        (Some(f), Some(a)) if a > 0.0 => f / a,
        _ => 0.0,
    }
}
