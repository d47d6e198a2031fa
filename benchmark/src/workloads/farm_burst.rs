//! `farm-burst`: one `oocd` session per sweep — an embedded daemon on
//! loopback, one subscriber, two closed-loop submitter connections, a
//! bursty multi-tenant arrival trace of captured program profiles.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use dmsim::{Engine, WorkerPool};
use noderun::{init_fn, RunConfig};
use ooc_core::stripmine::SlabSizing;
use ooc_core::{compile_source, CompilerOptions, SlabStrategy};
use ooc_sched::serve::{serve, submit_json, Client, Listener};
use ooc_sched::{
    profile_all_on, run_workload_guarded, run_workload_guarded_observed, simulate, DomainConfig,
    EventLog, FarmConfig, FarmJob, JobSpec, ObsKind, ProgramJob, ServeConfig, SloScorecard,
};
use ooc_trace::json::{self, Json};

use super::{gaxpy_source, start_pool, LapClock, OpRow, Sim, Size, Sweep, Workload, POOL_WORKERS};
use crate::gen::{arrival_trace, stencil_source, transpose_source, StencilDist};
use crate::spans::Tracer;
use crate::stats::{highest_tail, nearest_rank, Fnv};

/// Submitter connections (closed loop: each sends its next job after the
/// previous ack).
const SUBMITTERS: usize = 2;
/// Subscriber lines per timed lap: about twenty laps of 35 ms in a full
/// session's stream.
const STREAM_LAP_LINES: u64 = 10_000;
/// Jobs the `ooc-sched.farm_only_s` probe replays (the first ones in
/// execution order).
const FARM_ONLY_JOBS: usize = 2000;

pub struct FarmBurst {
    /// Submit frames in trace order.
    frames: Vec<String>,
    /// The same jobs as specs, in the order the daemon runs them.
    specs: Vec<JobSpec>,
    tenants: usize,
    /// The configuration `oocd` and `oocload` run under: FairShare, hang
    /// chance 0.1, watchdog, deadline factor 6, 2 retries.
    serve: ServeConfig,
    /// Offered load, from the specs: requests and bytes of every job.
    offered: (u64, u64),
}

/// The eight program templates tenants submit runs of: small instances of
/// every statement class, so their captured request streams differ in
/// length, rank count and read/write mix.
fn templates() -> Vec<(&'static str, String, CompilerOptions)> {
    let base = CompilerOptions {
        engine: Engine::Pool(POOL_WORKERS),
        ..CompilerOptions::default()
    };
    let row_half = CompilerOptions {
        force_strategy: Some(SlabStrategy::RowSlab),
        sizing: SlabSizing::Ratio(0.5),
        ..base.clone()
    };
    vec![
        ("gaxpy32p2", gaxpy_source(32, 2), base.clone()),
        ("gaxpy32p4", gaxpy_source(32, 4), base.clone()),
        ("gaxpy48row", gaxpy_source(48, 4), row_half),
        ("gaxpy64p4", gaxpy_source(64, 4), base.clone()),
        ("transpose64", transpose_source(64, 4, false), base.clone()),
        ("transpose32", transpose_source(32, 2, false), base.clone()),
        (
            "jacobi64",
            stencil_source(64, 4, 1, StencilDist::Aligned),
            base.clone(),
        ),
        ("spmv64", hpf::SPMV_SOURCE.to_string(), base),
    ]
}

impl FarmBurst {
    pub fn setup(seed: u64, size: Size, tr: &mut Tracer) -> FarmBurst {
        let (jobs, tenants) = match size {
            Size::Full => (10_000, 100),
            Size::Smoke => (200, 10),
        };
        let pool: WorkerPool = start_pool(tr);
        let fleet: Vec<ProgramJob> = templates()
            .into_iter()
            .enumerate()
            .map(|(i, (name, source, options))| {
                let compiled = compile_source(&source, &options).expect("template compiles");
                let mut cfg = RunConfig::default();
                if name == "spmv64" {
                    // A CSR structure the executor can walk: 8 stored entries
                    // per row of `hpf::SPMV_SOURCE`'s 64 x 64 matrix.
                    cfg.init
                        .insert("rowptr".into(), init_fn(|g| (g[0] * 8) as f32));
                    cfg.init.insert(
                        "colidx".into(),
                        init_fn(|g| ((g[0] * 37 + (g[0] / 3) * 11) % 64) as f32),
                    );
                }
                ProgramJob::new(name, Arc::new(compiled))
                    .with_cfg(cfg)
                    .with_job_tag(i as u32 + 1)
            })
            .collect();
        let profiles = tr.span("ooc-sched", "capture_s", || {
            profile_all_on(&fleet, &pool).expect("templates run")
        });
        let trace = arrival_trace(seed, jobs, tenants, profiles.len());
        let mut frames = Vec::with_capacity(trace.len());
        let mut specs = Vec::with_capacity(trace.len());
        let mut offered = (0u64, 0u64);
        for a in &trace {
            let spec = JobSpec::new(a.name.clone(), profiles[a.template].clone())
                .with_submit(a.submit)
                .with_weight(a.weight);
            for r in spec.profile.streams.iter().flatten() {
                offered.0 += r.requests;
                offered.1 += r.bytes;
            }
            frames.push(submit_json(&a.tenant, &spec));
            specs.push(spec);
        }
        // The daemon's execution order: (submit, name), a total order.
        specs.sort_by(|a, b| a.submit.total_cmp(&b.submit).then(a.name.cmp(&b.name)));
        let mut names: Vec<&str> = trace.iter().map(|a| a.tenant.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        FarmBurst {
            frames,
            specs,
            tenants: names.len(),
            serve: ooc_bench::daemon_serve_config(seed),
            offered,
        }
    }
}

fn is_ok(resp: &Json) -> bool {
    matches!(resp.get("ok"), Some(Json::Bool(true)))
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_num).unwrap_or(f64::NAN)
}

impl Workload for FarmBurst {
    fn sweep(&mut self, tr: &mut Tracer) -> Sweep {
        let mut sweep = Sweep::default();
        let mut clock = LapClock::start();
        let session = tr.begin("bench", "op");
        let daemon = serve(
            Listener::bind_tcp("127.0.0.1:0").expect("bind loopback"),
            self.serve.clone(),
        );
        let addr = daemon.addr.clone();
        let mut sub = Client::connect(&addr).expect("subscriber connects");
        let subscribed = sub
            .request("{\"op\":\"subscribe\"}")
            .is_ok_and(|r| is_ok(&r));

        // ---- Submit: two closed-loop connections, trace order striped. ---
        let frames = &self.frames;
        let t_submit = Instant::now();
        let mut conns: Vec<(Client, Vec<f64>, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..SUBMITTERS)
                .map(|k| {
                    let addr = &addr;
                    scope.spawn(move || {
                        let mut c = Client::connect(addr).expect("submitter connects");
                        let mut ack_us = Vec::with_capacity(frames.len() / SUBMITTERS + 1);
                        let mut refused = 0u64;
                        for frame in frames.iter().skip(k).step_by(SUBMITTERS) {
                            let t0 = Instant::now();
                            let ok = c.request(frame).is_ok_and(|r| is_ok(&r));
                            ack_us.push(t0.elapsed().as_secs_f64() * 1e6);
                            refused += u64::from(!ok);
                        }
                        (c, ack_us, refused)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("submitter thread"))
                .collect()
        });
        tr.add("ooc-sched", "submit_s", t_submit, Instant::now());
        // Laps: connect + submit, drain, the subscriber stream in pieces,
        // the rest.
        sweep.laps.push(clock.lap());
        sweep.ops += frames.len() as u64;
        sweep.failed += conns.iter().map(|c| c.2).sum::<u64>();
        let mut acks: Vec<f64> = conns.iter().flat_map(|c| c.1.iter().copied()).collect();
        acks.sort_by(|a, b| a.total_cmp(b));
        // The second connection would idle into the daemon's read timeout.
        let (mut c, _, _) = conns.swap_remove(0);
        drop(conns);

        // ---- Drain: seal the timeline and run the session. ---------------
        let status_ok = c.request("{\"op\":\"status\"}").is_ok_and(|st| {
            num(&st, "jobs") == frames.len() as f64 && num(&st, "tenants") == self.tenants as f64
        });
        let summary_raw = tr.span("ooc-sched", "drain_s", || {
            c.request_raw("{\"op\":\"drain\"}")
        });
        let summary = tr.span("ooc-trace", "json_parse_s", || {
            summary_raw
                .as_ref()
                .ok()
                .and_then(|raw| json::parse(raw).ok())
        });
        sweep.laps.push(clock.lap());
        let jobs = frames.len() as f64;
        let (completed, killed, quarantined) = summary.as_ref().map_or((0.0, 0.0, 0.0), |s| {
            (num(s, "completed"), num(s, "killed"), num(s, "quarantined"))
        });
        let drain_ok = status_ok
            && summary.as_ref().is_some_and(|s| {
                is_ok(s) && num(s, "jobs") == jobs && completed + killed + quarantined == jobs
            });
        let stream_fnv = summary
            .as_ref()
            .and_then(|s| s.get("stream_fnv").and_then(Json::as_str))
            .unwrap_or("")
            .to_string();

        // ---- Subscriber stream: every line, then the end frame. ----------
        let stream = tr.span("ooc-sched", "stream_s", || {
            let mut lines = 0u64;
            loop {
                match sub.next_frame() {
                    Ok(Some(f)) if matches!(f.get("end"), Some(Json::Bool(true))) => {
                        return Some((lines, f))
                    }
                    Ok(Some(f)) if f.get("line").is_some() => {
                        lines += 1;
                        if lines.is_multiple_of(STREAM_LAP_LINES) {
                            sweep.laps.push(clock.lap());
                        }
                    }
                    _ => return None,
                }
            }
        });
        sweep.laps.push(clock.lap());
        let (events, samples) = stream.as_ref().map_or((0.0, 0.0), |(_, end)| {
            (num(end, "events"), num(end, "samples"))
        });
        let stream_ok = subscribed
            && stream.as_ref().is_some_and(|(lines, end)| {
                *lines as f64 == events + samples
                    && end.get("stream_fnv").and_then(Json::as_str) == Some(stream_fnv.as_str())
            });

        // ---- Scorecard and Prometheus exposition. ------------------------
        let card_raw = tr.span("ooc-sched", "scorecard_s", || {
            c.request_raw("{\"op\":\"scorecard\"}")
        });
        let card = tr.span("ooc-trace", "json_parse_s", || {
            card_raw.as_ref().ok().and_then(|raw| json::parse(raw).ok())
        });
        let prom_ok = tr.span("ooc-trace", "prom_validate_s", || {
            card.as_ref()
                .and_then(|c| c.get("prom").and_then(Json::as_str))
                .is_some_and(|p| ooc_trace::prom::validate(p).is_ok())
        });
        let score = card.as_ref().and_then(|c| c.get("scorecard"));

        // ---- Shutdown. ---------------------------------------------------
        let stopping = tr.span("ooc-sched", "shutdown_s", || {
            let ok = c
                .request("{\"op\":\"shutdown\"}")
                .is_ok_and(|r| matches!(r.get("stopping"), Some(Json::Bool(true))));
            drop(c);
            drop(sub);
            daemon.join().is_ok() && ok
        });
        tr.end(session);
        sweep.laps.push(clock.lap());

        let checks = [
            ("drain", drain_ok),
            ("subscriber stream", stream_ok),
            ("scorecard + prom", prom_ok),
            ("shutdown", stopping),
        ];
        sweep.ops += checks.len() as u64;
        sweep.failed += checks.iter().filter(|c| !c.1).count() as u64;

        let makespan = summary.as_ref().map_or(0.0, |s| num(s, "makespan"));
        sweep.sim = Sim {
            elapsed_s: makespan,
            io_requests: self.offered.0,
            io_bytes: self.offered.1,
            msg_bytes: 0,
            // Offered requests + everything the observatory published
            // (admissions, dispatches, kills, retries, completions).
            events: self.offered.0 + events as u64,
        };
        let mut digest = Fnv::default();
        sweep.sim.digest(&mut digest);
        digest.bytes(summary_raw.as_deref().unwrap_or("").as_bytes());
        digest.bytes(card_raw.as_deref().unwrap_or("").as_bytes());
        sweep.digest = digest.0;

        sweep.count("ooc-sched.jobs", jobs);
        sweep.count("ooc-sched.events", events);
        sweep.count("ooc-sched.samples", samples);
        sweep.count("ooc-sched.quarantined", quarantined);
        if let Some(s) = score {
            sweep.count("ooc-sched.sim_turnaround_p95_s", num(s, "p95_turnaround"));
            sweep.count(
                "ooc-sched.sim_deadline_hit_rate",
                num(s, "deadline_hit_rate"),
            );
        }
        if !acks.is_empty() {
            sweep.count("ooc-sched.submit_ack_p50_us", nearest_rank(&acks, 0.50));
            sweep.count("ooc-sched.submit_ack_p99_us", nearest_rank(&acks, 0.99));
            sweep.count("ooc-sched.ack_samples", acks.len() as f64);
        }
        // The highest tail the sample count supports, beside the fixed p99.
        let tail = highest_tail(&acks).map_or(String::new(), |t| {
            format!("; ack p{} {:.1} us (n={})", t.q * 100.0, t.value, t.samples)
        });
        sweep.rows.push(OpRow {
            label: format!("{} submits, {} tenants{tail}", frames.len(), self.tenants),
            sim_s: 0.0,
            est_gap: None,
            ok: sweep.failed == 0,
        });
        for (label, ok) in checks {
            sweep.rows.push(OpRow {
                label: label.to_string(),
                sim_s: if label == "drain" { makespan } else { 0.0 },
                est_gap: None,
                ok,
            });
        }
        sweep
    }

    /// Drive the same specs in-process through one more layer each, so the
    /// daemon's, the observatory's and the executive's own shares fall out
    /// as differences; then the `ooc-trace` writers and parsers on the
    /// session's own artifacts.
    fn probes(&mut self, tr: &mut Tracer) -> BTreeMap<&'static str, f64> {
        let mut counts = BTreeMap::new();
        let domain = &self.serve.domain;
        // The batch replay keeps every admitted stream live to the end, so
        // its cost grows with the square of the job count (13 s at 10 000
        // jobs on the reference box); it is driven on a fixed prefix.
        let farm_jobs: Vec<FarmJob> = self.specs[..self.specs.len().min(FARM_ONLY_JOBS)]
            .iter()
            .enumerate()
            .map(|(i, s)| FarmJob {
                job: i as u32 + 1,
                profile: &s.profile,
                base: s.submit,
                weight: s.weight,
                qos_slack: s.qos_slack,
            })
            .collect();
        let farm_cfg = FarmConfig {
            policy: domain.policy,
            ..FarmConfig::default()
        };
        tr.span("ooc-sched", "farm_only_s", || {
            std::hint::black_box(simulate(&farm_jobs, &farm_cfg))
        });
        let t0 = Instant::now();
        let guarded =
            run_workload_guarded(&self.specs, domain).expect("the daemon admitted these specs");
        let t1 = Instant::now();
        tr.add("ooc-sched", "guarded_s", t0, t1);
        let guarded_s = (t1 - t0).as_secs_f64();
        let mut log = EventLog::default();
        let observed = tr
            .span("ooc-sched", "observed_s", || {
                run_workload_guarded_observed(
                    &self.specs,
                    domain,
                    self.serve.sample_every,
                    &mut log,
                )
            })
            .expect("the daemon admitted these specs");
        assert_eq!(guarded, observed, "observation perturbed the replay");

        let tally = |f: fn(&ObsKind) -> bool| log.events.iter().filter(|e| f(&e.kind)).count();
        counts.insert(
            "ooc-sched.dispatches",
            tally(|k| matches!(k, ObsKind::Dispatched { .. })) as f64,
        );
        counts.insert(
            "ooc-sched.watchdog_kills",
            tally(|k| matches!(k, ObsKind::WatchdogKill)) as f64,
        );
        counts.insert(
            "ooc-sched.retries",
            tally(|k| matches!(k, ObsKind::RetryScheduled { .. })) as f64,
        );
        counts.insert(
            "ooc-sched.preemptions",
            observed.jobs.iter().map(|j| j.preemptions as f64).sum(),
        );

        // ooc-trace: parse what the daemon parsed, write what it wrote.
        tr.span("ooc-trace", "json_parse_s", || {
            for f in &self.frames {
                std::hint::black_box(json::parse(f).expect("submit frames are JSON"));
            }
        });
        let card = SloScorecard::from_guarded(&observed);
        tr.span("ooc-trace", "prom_write_s", || {
            std::hint::black_box(ooc_trace::prom::render(&SloScorecard::prom(
                std::slice::from_ref(&card),
            )))
        });

        // Simulated-clock tracing of the same session: the farm's per-disk
        // queue timeline.
        let traced_cfg = DomainConfig {
            trace: true,
            ..domain.clone()
        };
        let t0 = Instant::now();
        let mut traced = run_workload_guarded(&self.specs, &traced_cfg).expect("admitted");
        let traced_s = t0.elapsed().as_secs_f64();
        if let Some(trace) = traced.farm.trace.take() {
            let json = tr.span("ooc-trace", "perfetto_export_s", || {
                ooc_trace::perfetto::to_chrome_json(&trace)
            });
            counts.insert("ooc-trace.sim_events_recorded", trace.event_count() as f64);
            counts.insert("ooc-trace.export_bytes", json.len() as f64);
            counts.insert("ooc-trace.record_overhead_ratio", traced_s / guarded_s);
        }
        counts
    }
}
