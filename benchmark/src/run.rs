//! Running one workload in this process: setup, the untraced sweeps, the
//! traced pass, and the printed report.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use crate::ledger::{DRIVER_END_TO_END, END_TO_END, PER_LAYER};
use crate::spans::{self, Span, Tracer};
use crate::stats::{median, nearest_rank, LapFloor};
use crate::workloads::{self, OpRow, Size, Sweep, Workload, POOL_WORKERS};

/// At least this many sweeps, however short `--seconds` is: a median of
/// fewer is not a median.
const MIN_SWEEPS: usize = 3;
/// Setup is repeated at least 3 times in one run, and up to 15 times while
/// the repeats have taken less than [`SETUP_ENOUGH_S`]; `setup_s` is the
/// median.
const SETUP_REPEATS: (usize, usize) = (3, 15);
const SETUP_ENOUGH_S: f64 = 1.0;
/// Spans written to the Chrome-trace file; the rest of a longer sweep is
/// covered by the per-layer totals.
const TRACE_EXPORT_MAX_SPANS: usize = 4000;

/// How one run is parameterised.
#[derive(Debug, Clone)]
pub struct RunSpec {
    pub workload: String,
    pub seed: u64,
    /// Measure for this long (at least [`MIN_SWEEPS`] sweeps).
    pub seconds: Option<f64>,
    /// Or exactly this many sweeps.
    pub sweeps: Option<usize>,
    pub trace: bool,
    pub size: Size,
    /// Where the traced pass writes its Chrome trace.
    pub out_dir: PathBuf,
}

/// Sweeps per run when neither `--seconds` nor `--sweeps` is given.
pub fn default_sweeps(workload: &str) -> usize {
    match workload {
        "remap-mix" | "compile-sweep" => 8,
        "farm-burst" => 4,
        _ => 5,
    }
}

/// Facts about the run printed first, so a number is never read without
/// its provenance.
#[derive(Debug, Clone)]
pub struct Header {
    pub commit: String,
    pub rustc: String,
    pub nproc: usize,
}

impl Header {
    pub fn gather() -> Header {
        let cmd = |prog: &str, args: &[&str]| {
            std::process::Command::new(prog)
                .args(args)
                .current_dir(env!("CARGO_MANIFEST_DIR"))
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_string())
        };
        Header {
            commit: cmd("git", &["rev-parse", "--short", "HEAD"]),
            rustc: cmd("rustc", &["-V"]),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub spec: RunSpec,
    pub sweeps: usize,
    /// Wall time of every untraced sweep, in run order.
    pub sweep_samples_s: Vec<f64>,
    /// The fastest time of every lap over those sweeps (their sum is
    /// `host_sweep_floor_s`), the time outside any lap last.
    pub lap_floor_s: Vec<f64>,
    /// The end-to-end metrics, from the untraced sweeps only.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// FNV over every simulated quantity and result digest of one sweep.
    pub sim_fingerprint: String,
    /// Per-layer metrics, from the traced pass only.
    pub per_layer: Option<BTreeMap<&'static str, f64>>,
    /// Self time per layer of the traced sweeps, as a share of their time.
    pub layer_share: Option<BTreeMap<&'static str, f64>>,
    /// Samples behind `noderun.run_p50_ms` / `noderun.run_p90_ms`.
    pub run_samples: usize,
    /// Samples behind `ooc-sched.submit_ack_*`.
    pub ack_samples: usize,
    pub rows: Vec<OpRow>,
}

/// `VmHWM` of this process (0 where `/proc` has none).
fn peak_rss_mib() -> f64 {
    ooc_bench::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1 << 20) as f64)
}

/// Fold one more sweep into the running totals; a sweep whose digest
/// differs from the first one's is a failed repetition.
fn account(first: &Sweep, s: &Sweep, attempted: &mut u64, failed: &mut u64) {
    *attempted += s.ops;
    *failed += s.failed;
    if s.digest != first.digest {
        *failed += 1;
    }
}

pub fn run(spec: &RunSpec, process_start: Instant) -> Result<RunResult, String> {
    // ---- Setup, several times; the last one is kept. ---------------------
    // A short setup is repeated more often: its median has to be as steady
    // as a long one's.
    let (min_repeats, max_repeats) = if spec.size == Size::Smoke {
        (1, 1)
    } else {
        SETUP_REPEATS
    };
    let mut setup_samples = Vec::with_capacity(max_repeats);
    let mut workload: Option<Box<dyn Workload>> = None;
    let mut tr = Tracer::new(spec.trace);
    for i in 0..max_repeats {
        if i >= min_repeats && setup_samples.iter().sum::<f64>() >= SETUP_ENOUGH_S {
            break;
        }
        // Free the previous instance first, so peak memory is one
        // workload's, not two.
        drop(workload.take());
        let t0 = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        tr = Tracer::new(spec.trace);
        tr.set_probe(true);
        workload = Some(
            workloads::setup(&spec.workload, spec.seed, spec.size, &mut tr)
                .ok_or_else(|| format!("unknown workload {:?}", spec.workload))?,
        );
        // Warm-up: one sweep of the same workload at smoke size, so lazy
        // initialisation anywhere in the layers is paid (and shows) here
        // and not in the first timed sweep.
        if spec.size == Size::Full {
            let mut off = Tracer::new(false);
            if let Some(mut warm) =
                workloads::setup(&spec.workload, spec.seed, Size::Smoke, &mut off)
            {
                std::hint::black_box(warm.sweep(&mut off));
            }
        }
        setup_samples.push(t0.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one setup");
    let setup_s = median(&setup_samples);
    tr.set_probe(false);

    // ---- Sweeps. ----------------------------------------------------------
    // Untraced run: every sweep is untraced. Traced run: untraced and traced
    // sweeps alternate, so the two medians see the same machine state.
    let fixed = match (spec.seconds, spec.sweeps) {
        (None, None) => Some(default_sweeps(&spec.workload)),
        (_, k) => k,
    };
    let mut off = Tracer::new(false);
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let (mut floor, mut traced_floor) = (LapFloor::default(), LapFloor::default());
    let mut first: Option<Sweep> = None;
    let mut last_traced: Option<Sweep> = None;
    let mut last_traced_from = 0usize;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let pass_start = Instant::now();
    loop {
        let t0 = Instant::now();
        let s = workload.sweep(&mut off);
        let wall = t0.elapsed().as_secs_f64();
        plain_s.push(wall);
        floor.fold(&s.laps, wall);
        let f = first.get_or_insert_with(|| s.clone());
        account(f, &s, &mut attempted, &mut failed);
        if spec.trace {
            last_traced_from = tr.spans().len();
            let t0 = Instant::now();
            let root = tr.begin("bench", "sweep");
            let s = workload.sweep(&mut tr);
            tr.end(root);
            let wall = t0.elapsed().as_secs_f64();
            traced_s.push(wall);
            traced_floor.fold(&s.laps, wall);
            account(f, &s, &mut attempted, &mut failed);
            last_traced = Some(s);
        }
        let done = match fixed {
            // A traced run spends its sweeps in pairs.
            Some(k) if spec.trace => plain_s.len() >= (k / 2).max(2),
            Some(k) => plain_s.len() >= k,
            None => {
                plain_s.len() >= if spec.trace { 2 } else { MIN_SWEEPS }
                    && pass_start.elapsed().as_secs_f64() >= spec.seconds.unwrap_or(0.0)
            }
        };
        if done {
            break;
        }
    }
    let first = first.expect("at least one sweep");
    let host_sweep_p50_s = median(&plain_s);

    let mut e2e = BTreeMap::new();
    e2e.insert("setup_s", setup_s);
    e2e.insert("host_sweep_p50_s", host_sweep_p50_s);
    let per_event_us = |sweep_s: f64| sweep_s * 1e6 / first.sim.events.max(1) as f64;
    e2e.insert("host_us_per_sim_event", per_event_us(host_sweep_p50_s));
    e2e.insert("host_sweep_floor_s", floor.total());
    e2e.insert("host_floor_us_per_sim_event", per_event_us(floor.total()));
    e2e.insert("sim_elapsed_s", first.sim.elapsed_s);
    e2e.insert("sim_io_requests", first.sim.io_requests as f64);
    e2e.insert("sim_io_bytes", first.sim.io_bytes as f64);
    e2e.insert("sim_msg_bytes", first.sim.msg_bytes as f64);
    e2e.insert("sim_events", first.sim.events as f64);
    e2e.insert("est_gap_max_rel", first.est_gap_max_rel);
    e2e.insert("ops_attempted", attempted as f64);
    e2e.insert("ops_failed", failed as f64);

    // ---- Traced pass: layer probes, then the per-layer metrics. ----------
    let mut result = RunResult {
        spec: spec.clone(),
        sweeps: plain_s.len(),
        sweep_samples_s: plain_s.clone(),
        lap_floor_s: floor.laps().to_vec(),
        end_to_end: e2e,
        sim_fingerprint: format!("{:016x}", first.digest),
        per_layer: None,
        layer_share: None,
        run_samples: 0,
        ack_samples: 0,
        rows: first.rows.clone(),
    };
    if let Some(traced) = last_traced {
        tr.set_probe(true);
        tr.set_op(u32::MAX);
        let probe_counts = workload.probes(&mut tr);
        let mut m = layer_metrics(tr.spans(), traced_s.len(), &traced, &probe_counts);
        // Floor over floor: a ratio of two medians of two or three sweeps
        // each would mostly be the host's load.
        m.insert(
            "bench.trace_overhead_ratio",
            traced_floor.total() / floor.total(),
        );
        m.insert("bench.sweeps", traced_s.len() as f64);
        workload.derive(&mut m);
        result.run_samples = tr
            .spans()
            .iter()
            .filter(|s| s.layer == "noderun" && s.name == "run_s")
            .count();
        result.ack_samples = traced
            .counts
            .get("ooc-sched.ack_samples")
            .map_or(0, |v| *v as usize);
        let total: f64 = traced_s.iter().sum();
        result.layer_share = Some(
            spans::layer_self_s(tr.spans())
                .into_iter()
                .map(|(l, s)| (l, s / total))
                .collect(),
        );
        result.per_layer = Some(m);
        write_trace(spec, tr.spans(), last_traced_from)?;
    }
    // Read last: the high-water mark covers everything above.
    result.end_to_end.insert("peak_rss_mib", peak_rss_mib());
    Ok(result)
}

/// The per-layer metrics of a traced pass: host times from the spans
/// (sweep spans averaged per traced sweep, probe and setup spans as they
/// are), counts from the reports of one traced sweep and from the probes,
/// and the ratios derived from both.
fn layer_metrics(
    spans: &[Span],
    traced_sweeps: usize,
    sweep: &Sweep,
    probe_counts: &BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect();
    let named = spans::named_durations_s(spans, traced_sweeps);
    let mut raw: BTreeMap<&str, f64> = BTreeMap::new();
    for (k, v) in sweep.counts.iter().chain(probe_counts) {
        *raw.entry(k).or_default() += v;
    }
    for (name, v) in m.iter_mut() {
        let key = name.split_once('.').expect("metrics are named layer.name");
        if let Some(secs) = named.get(&key) {
            *v = *secs;
        } else if let Some(c) = raw.get(name) {
            *v = *c;
        }
    }
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let get = |m: &BTreeMap<&'static str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let rawv = |k: &str| raw.get(k).copied().unwrap_or(0.0);

    m.insert(
        "hpf.parse_mb_per_s",
        ratio(get(&m, "hpf.source_bytes") / 1e6, get(&m, "hpf.parse_s")),
    );
    m.insert(
        "noderun.host_mflops",
        ratio(get(&m, "noderun.sim_flops") / 1e6, get(&m, "noderun.run_s")),
    );
    let mut runs_ms: Vec<f64> = spans
        .iter()
        .filter(|s| !s.probe && s.layer == "noderun" && s.name == "run_s")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    runs_ms.sort_by(|a, b| a.total_cmp(b));
    if !runs_ms.is_empty() {
        m.insert("noderun.run_p50_ms", nearest_rank(&runs_ms, 0.50));
        m.insert("noderun.run_p90_ms", nearest_rank(&runs_ms, 0.90));
    }
    m.insert(
        "pario.cache_hit_ratio",
        ratio(
            rawv("pario.cache_hits"),
            rawv("pario.cache_hits") + get(&m, "pario.read_requests"),
        ),
    );
    m.insert(
        "pario.probe_mb_per_s",
        ratio(
            rawv("pario.probe_bytes") / 1e6,
            get(&m, "pario.probe_read_s") + get(&m, "pario.probe_write_s"),
        ),
    );
    m.insert(
        "ooc-array.gathers_per_inspect",
        ratio(rawv("ooc-array.gathers"), rawv("ooc-array.inspects")),
    );
    m.insert(
        "ooc-sched.drain_us_per_job",
        ratio(
            get(&m, "ooc-sched.drain_s") * 1e6,
            get(&m, "ooc-sched.jobs"),
        ),
    );
    let in_sweep = spans.iter().filter(|s| !s.probe).count();
    m.insert("bench.spans", in_sweep as f64 / traced_sweeps as f64);
    m
}

/// Write the last traced sweep and the probe spans as a Chrome trace.
fn write_trace(spec: &RunSpec, spans: &[Span], last_sweep_from: usize) -> Result<(), String> {
    let keep: Vec<Span> = spans
        .iter()
        .filter(|s| s.probe || s.id as usize >= last_sweep_from)
        .take(TRACE_EXPORT_MAX_SPANS)
        .cloned()
        .collect();
    let path = spec.out_dir.join(format!("trace-{}.json", spec.workload));
    std::fs::create_dir_all(&spec.out_dir)
        .and_then(|_| std::fs::write(&path, spans::to_chrome_json(&keep, &spec.workload)))
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// A number as JSON: all its digits, and never `NaN` or `inf`.
pub fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn jlist(v: &[f64]) -> String {
    v.iter().map(|x| jnum(*x)).collect::<Vec<_>>().join(",")
}

fn jmap(m: &BTreeMap<&'static str, f64>) -> String {
    let fields: Vec<String> = m
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", jnum(*v)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

impl RunResult {
    pub fn ok(&self) -> bool {
        self.end_to_end["ops_failed"] == 0.0
    }

    /// The whole result on one line, for the suite runner.
    pub fn full_json(&self, header: &Header) -> String {
        let mut out = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"sweeps\":{},\"size\":\"{}\",\"trace\":{},\
             \"commit\":\"{}\",\"rustc\":\"{}\",\"nproc\":{},\"engine\":\"Pool({POOL_WORKERS})\",\
             \"sim_fingerprint\":\"{}\",\"sweep_samples_s\":[{}],\"lap_floor_s\":[{}],\"end_to_end\":{}",
            self.spec.workload,
            self.spec.seed,
            self.sweeps,
            if self.spec.size == Size::Smoke {
                "smoke"
            } else {
                "full"
            },
            self.spec.trace,
            header.commit,
            header.rustc,
            header.nproc,
            self.sim_fingerprint,
            jlist(&self.sweep_samples_s),
            jlist(&self.lap_floor_s),
            jmap(&self.end_to_end),
        );
        if let (Some(pl), Some(share)) = (&self.per_layer, &self.layer_share) {
            let _ = write!(
                out,
                ",\"per_layer\":{},\"layer_share\":{},\"run_samples\":{},\"ack_samples\":{}",
                jmap(pl),
                jmap(share),
                self.run_samples,
                self.ack_samples
            );
        }
        let ops: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"label\":\"{}\",\"sim_s\":{},\"est_s\":{},\"est_gap\":{},\"ok\":{}}}",
                    r.label,
                    jnum(r.sim_s),
                    r.est_gap.map_or("null".to_string(), |e| jnum(e.0)),
                    r.est_gap.map_or("null".to_string(), |e| jnum(e.1)),
                    r.ok
                )
            })
            .collect();
        let _ = write!(out, ",\"ops\":[{}]}}", ops.join(","));
        out
    }

    /// The line the build driver reads: the `BENCHMARK.json` end-to-end
    /// metrics of an untraced run, or every per-layer metric of a traced one.
    pub fn driver_json(&self) -> String {
        let metrics: Vec<String> = match &self.per_layer {
            Some(pl) => PER_LAYER
                .iter()
                .map(|(n, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", jnum(pl[n])))
                .collect(),
            None => DRIVER_END_TO_END
                .iter()
                .map(|(n, _)| {
                    let m = crate::ledger::end_to_end(n);
                    format!(
                        "\"{n}\":{{\"value\":{},\"unit\":\"{}\"}}",
                        jnum(self.end_to_end[n]),
                        m.unit
                    )
                })
                .collect(),
        };
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.ok(),
            self.end_to_end["ops_attempted"] as u64,
            self.end_to_end["ops_failed"] as u64,
            metrics.join(",")
        )
    }

    /// The printed report: header, op table, every metric by name with its
    /// unit, then the two machine-readable lines.
    pub fn print(&self, header: &Header) {
        println!(
            "# ooc-perf  workload {}  seed {}  K {}  size {}  trace {}",
            self.spec.workload,
            self.spec.seed,
            self.sweeps,
            if self.spec.size == Size::Smoke {
                "smoke"
            } else {
                "full"
            },
            u8::from(self.spec.trace)
        );
        println!(
            "# commit {}  {}  nproc {}  engine Pool({POOL_WORKERS})",
            header.commit, header.rustc, header.nproc
        );
        println!(
            "\n{:<34} {:>14} {:>14} {:>8}  ok",
            "op", "sim_s", "est_s", "est_gap"
        );
        for r in &self.rows {
            println!(
                "{:<34} {:>14.6} {:>14} {:>8}  {}",
                r.label,
                r.sim_s,
                r.est_gap.map_or("-".to_string(), |e| format!("{:.6}", e.0)),
                r.est_gap.map_or("-".to_string(), |e| format!("{:.4}", e.1)),
                if r.ok { "yes" } else { "NO" }
            );
        }
        println!("\nend-to-end (untraced sweeps, K = {}):", self.sweeps);
        for m in END_TO_END {
            let samples = match m.name {
                "host_sweep_p50_s"
                | "host_us_per_sim_event"
                | "host_sweep_floor_s"
                | "host_floor_us_per_sim_event" => {
                    format!("  samples={}", self.sweeps)
                }
                _ => String::new(),
            };
            println!(
                "  {:<28} {:>20} {:<6} {:<9}{samples}",
                m.name,
                jnum(self.end_to_end[m.name]),
                m.unit,
                m.clock.label()
            );
        }
        println!("  {:<28} {:>20}", "sim_fingerprint", self.sim_fingerprint);
        if let (Some(pl), Some(share)) = (&self.per_layer, &self.layer_share) {
            println!("\nper-layer (traced pass):");
            for (name, unit) in PER_LAYER {
                let samples = match *name {
                    "noderun.run_p50_ms" | "noderun.run_p90_ms" => {
                        format!("  samples={}", self.run_samples)
                    }
                    "ooc-sched.submit_ack_p50_us" | "ooc-sched.submit_ack_p99_us" => {
                        format!("  samples={}", self.ack_samples)
                    }
                    _ => String::new(),
                };
                println!("  {:<40} {:>20} {unit}{samples}", name, jnum(pl[name]));
            }
            println!("\nshare of traced sweep time (self time):");
            for (layer, s) in share {
                println!("  {:<12} {:>7.2}%", layer, s * 100.0);
            }
        }
        println!("full: {}", self.full_json(header));
        println!("{}", self.driver_json());
    }
}
