//! Service bench: the workload observatory end to end.
//!
//! A fleet of chaos-captured gaxpy jobs runs through the guarded runtime
//! once per queueing policy with the observatory attached: every run
//! streams typed events into an [`EventLog`], samples the farm on a fixed
//! virtual-time cadence, and is scored into an SLO scorecard. The bench
//! asserts the observatory contract end to end:
//!
//! - observation is transparent: the guarded report with an observer
//!   attached equals the unobserved one, job for job;
//! - the rendered event stream and all three artifacts are byte-identical
//!   across two invocations, and across capture engines (`Threads` vs
//!   `Pool(4)`);
//! - the Prometheus exposition passes [`ooc_trace::prom::validate`], the
//!   HTML report passes [`ooc_trace::html::validate`], and the JSON
//!   summary parses with [`ooc_trace::json::parse`].
//!
//! Artifacts: `BENCH_service.json` (scorecards + stream digests),
//! `BENCH_service.prom` (SLO metrics exposition) and `BENCH_service.html`
//! (timeline + time-series report). CI's obs-smoke job runs the bench
//! twice and `cmp`s all three.
//!
//! Usage: `cargo run --release -p ooc-bench --bin service
//! [--jobs N] [--ranks R] [--seed S] [--out FILE]` (defaults: 16 jobs,
//! 4 ranks, seed 2026, FILE = BENCH_service.json).

use ooc_bench::fleet::{self, Opts, Shape};
use ooc_bench::TextTable;
use ooc_sched::obs::render_event;
use ooc_sched::{
    run_workload_guarded, run_workload_guarded_observed, DomainConfig, EventLog, GuardedReport,
    JobSpec, ObsKind, Policy, SloScorecard,
};
use ooc_trace::digest::fnv1a;
use ooc_trace::html::{Lane, Series};

const SHAPE: Shape = Shape {
    long_scale: 32,
    short_prefix: "short-",
    hang_chance: 0.25,
};

/// One policy's observed run: the reproducible pieces the artifacts are
/// built from.
struct PolicyRun {
    report: GuardedReport,
    log: EventLog,
    card: SloScorecard,
    stream: String,
}

fn run_policy(specs: &[JobSpec], cfg: &DomainConfig) -> PolicyRun {
    let sample_every = cfg.epoch * 2.0;
    // Observation must be transparent: the unobserved run is the oracle.
    let plain = run_workload_guarded(specs, cfg).expect("admissible batch");
    let mut log = EventLog::default();
    let report = run_workload_guarded_observed(specs, cfg, sample_every, &mut log)
        .expect("admissible batch");
    assert_eq!(
        plain.jobs,
        report.jobs,
        "{}: observer perturbed the guarded run",
        cfg.policy.name()
    );
    assert_eq!(plain.farm.served, report.farm.served);
    // And reproducible: a second observed run streams identical bytes.
    let mut log2 = EventLog::default();
    run_workload_guarded_observed(specs, cfg, sample_every, &mut log2).unwrap();
    let stream = log.render();
    assert_eq!(
        stream,
        log2.render(),
        "{}: event stream is not reproducible",
        cfg.policy.name()
    );
    let card = SloScorecard::from_guarded(&report);
    PolicyRun {
        report,
        log,
        card,
        stream,
    }
}

/// Deterministic JSON summary: one scorecard and stream digest per policy.
/// Zero-sample quantiles are absent, not zero: `null` in JSON, `-` in the
/// console table.
fn opt_num(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), |v| format!("{v:.9}"))
}

fn opt_cell(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), |v| format!("{v:.3}"))
}

fn summarize(runs: &[PolicyRun], opts: &Opts, sample_every: f64) -> String {
    let mut json = String::from("{\n  \"bench\": \"service\",\n");
    json.push_str(&format!(
        "  \"jobs\": {},\n  \"ranks\": {},\n  \"seed\": {},\n  \"sample_every\": {:.9},\n",
        opts.jobs, opts.ranks, opts.seed, sample_every
    ));
    json.push_str("  \"policies\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let c = &r.card;
        let postmortems = r
            .report
            .jobs
            .iter()
            .filter(|j| !j.postmortem.is_empty())
            .count();
        json.push_str(&format!(
            "    {{\"policy\": \"{}\", \"completed\": {}, \"recovered\": {}, \
             \"killed\": {}, \"quarantined\": {}, \"deadline_hit_rate\": {:.9}, \
             \"p50_turnaround\": {}, \"p95_turnaround\": {}, \
             \"p99_turnaround\": {}, \"mean_slowdown\": {:.9}, \"makespan\": {:.9}, \
             \"events\": {}, \"samples\": {}, \"postmortems\": {}, \
             \"stream_fnv\": \"{:016x}\"}}{}\n",
            c.policy,
            c.completed,
            c.recovered,
            c.killed,
            c.quarantined,
            c.deadline_hit_rate(),
            opt_num(c.p50_turnaround),
            opt_num(c.p95_turnaround),
            opt_num(c.p99_turnaround),
            c.mean_slowdown,
            c.makespan,
            r.log.events.len(),
            r.log.samples.len(),
            postmortems,
            fnv1a(r.stream.as_bytes()),
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

/// The self-contained HTML report for one policy's observed run: a job
/// timeline (admission to terminal event, kills and retries as marks) and
/// the sampled series (per-disk utilization and depth, in-flight jobs).
fn html_report(run: &PolicyRun, opts: &Opts) -> String {
    let mut lanes: Vec<Lane> = Vec::new();
    let mut farm_lane = Lane::new("farm");
    for e in &run.log.events {
        if let ObsKind::DiskDeath { disk, migrated, .. } = &e.kind {
            farm_lane
                .marks
                .push((e.t, format!("disk {disk} died, {migrated} migrated")));
        }
    }
    lanes.push(farm_lane);
    for j in &run.report.jobs {
        let mut lane = Lane::new(&j.name);
        let mut admit: Option<f64> = None;
        for e in run.log.events.iter().filter(|e| e.job == j.job) {
            match &e.kind {
                ObsKind::Admitted { .. } => admit = admit.or(Some(e.t)),
                ObsKind::Completed { .. } | ObsKind::Killed | ObsKind::Quarantined { .. } => {
                    if let Some(a) = admit {
                        lane.spans.push((a, e.t, j.outcome.label().to_string()));
                    }
                }
                ObsKind::WatchdogKill
                | ObsKind::DeadlineKill
                | ObsKind::Preempted
                | ObsKind::RetryScheduled { .. } => {
                    lane.marks.push((e.t, e.kind.tag().to_string()));
                }
                _ => {}
            }
        }
        lanes.push(lane);
    }
    let mut util: Vec<Series> = (0..opts.ranks)
        .map(|d| Series::new(&format!("disk {d} util"), Vec::new()))
        .collect();
    let mut depth: Vec<Series> = (0..opts.ranks)
        .map(|d| Series::new(&format!("disk {d} depth"), Vec::new()))
        .collect();
    let mut in_flight = Series::new("in-flight jobs", Vec::new());
    for s in &run.log.samples {
        for (d, ds) in s.disks.iter().enumerate() {
            util[d].points.push((s.t, ds.utilization));
            depth[d].points.push((s.t, ds.depth as f64));
        }
        in_flight.points.push((s.t, s.in_flight as f64));
    }
    let charts: Vec<(&str, Vec<Series>)> = vec![
        ("disk utilization", util),
        ("queue depth", depth),
        ("in-flight jobs", vec![in_flight]),
    ];
    ooc_trace::html::render(
        &format!("workload observatory — {} policy", run.card.policy),
        &lanes,
        &charts,
    )
}

fn main() {
    let opts = Opts::parse(16, "BENCH_service.json");

    // Capture on both engines; the observed runs are pure functions of
    // the profiles, so engine parity here transfers to every artifact.
    let (specs, pooled_specs) = fleet::capture(&opts, &SHAPE);
    println!(
        "service bench: {} jobs ({} tenants) on {} disks, seed {}",
        opts.jobs,
        opts.nlong(),
        opts.ranks,
        opts.seed
    );

    let policies = [
        Policy::Fifo,
        Policy::Elevator,
        Policy::Deadline,
        Policy::FairShare,
    ];
    let runs: Vec<PolicyRun> = policies
        .iter()
        .map(|&p| run_policy(&specs, &fleet::domain_cfg(&opts, &SHAPE, &specs, p)))
        .collect();
    let sample_every = fleet::domain_cfg(&opts, &SHAPE, &specs, Policy::Fifo).epoch * 2.0;
    let json = summarize(&runs, &opts, sample_every);

    // Engine parity: the pooled capture feeds one policy end to end and
    // must reproduce the threaded stream byte for byte.
    let via_pool = run_policy(
        &pooled_specs,
        &fleet::domain_cfg(&opts, &SHAPE, &pooled_specs, Policy::FairShare),
    );
    assert_eq!(
        runs.last().unwrap().stream,
        via_pool.stream,
        "Threads vs Pool(4) event streams diverged"
    );

    let mut table = TextTable::new(&[
        "Policy",
        "Completed",
        "Quarantined",
        "Hit rate",
        "p50",
        "p95",
        "Slowdown",
        "Events",
    ]);
    for r in &runs {
        let c = &r.card;
        table.row(vec![
            c.policy.to_string(),
            format!("{}/{}", c.completed, c.jobs),
            c.quarantined.to_string(),
            format!("{:.2}", c.deadline_hit_rate()),
            opt_cell(c.p50_turnaround),
            opt_cell(c.p95_turnaround),
            format!("{:.2}", c.mean_slowdown),
            r.log.events.len().to_string(),
        ]);
    }
    print!("{}", table.render());

    // A postmortem surfaced somewhere across the policy sweep, and every
    // quarantined job carries one ending in its terminal event.
    for r in &runs {
        for j in r.report.jobs.iter().filter(|j| !j.postmortem.is_empty()) {
            let last = j.postmortem.last().unwrap();
            assert!(
                matches!(last.kind, ObsKind::Quarantined { .. } | ObsKind::Killed),
                "{}: postmortem does not end terminally: {}",
                j.name,
                render_event(last)
            );
        }
    }

    // Artifacts: JSON summary, Prometheus exposition, HTML report — each
    // schema-checked here, byte-compared across invocations by CI.
    let cards: Vec<SloScorecard> = runs.iter().map(|r| r.card.clone()).collect();
    let prom = ooc_trace::prom::render(&SloScorecard::prom(&cards));
    ooc_trace::prom::validate(&prom).expect("Prometheus exposition validates");
    let html = html_report(runs.last().unwrap(), &opts);
    ooc_trace::html::validate(&html).expect("HTML report validates");
    ooc_trace::json::parse(&json).expect("bench JSON is well-formed");

    let stem = opts.out.strip_suffix(".json").unwrap_or(&opts.out);
    std::fs::write(&opts.out, &json).expect("write bench JSON");
    std::fs::write(format!("{stem}.prom"), &prom).expect("write Prometheus exposition");
    std::fs::write(format!("{stem}.html"), &html).expect("write HTML report");
    println!("\nwrote {} {stem}.prom {stem}.html", opts.out);

    let total_events: usize = runs.iter().map(|r| r.log.events.len()).sum();
    let total_samples: usize = runs.iter().map(|r| r.log.samples.len()).sum();
    println!(
        "ok: {} policies scored, {} events and {} samples streamed; \
         artifacts reproducible across runs and engines",
        runs.len(),
        total_events,
        total_samples
    );
}
