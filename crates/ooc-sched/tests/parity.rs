//! Regression tests: the farm must not change what it does not schedule.
//!
//! The contract of this subsystem is that it is *additive*: a single job
//! replayed under the default (static-share) policy — or under FIFO, where
//! it never has to wait — reproduces the pre-farm simulated times exactly,
//! bit for bit, and a run traced with the default configuration exports a
//! Perfetto file byte-identical to one from a build without the scheduling
//! layer (no offset fields leak in).

use noderun::{run, RunConfig};
use ooc_core::{compile_source, CompilerOptions};
use ooc_sched::{profile, run_workload, FarmConfig, FarmJob, JobSpec, Policy, WorkloadConfig};
use ooc_trace::TraceConfig;

fn compiled_gaxpy() -> ooc_core::CompiledProgram {
    compile_source(hpf::GAXPY_SOURCE, &CompilerOptions::default()).unwrap()
}

#[test]
fn profiling_does_not_change_simulated_time() {
    let compiled = compiled_gaxpy();
    let baseline = run(&compiled, &RunConfig::default()).unwrap();
    let p = profile(&compiled, &RunConfig::default()).unwrap();
    assert_eq!(
        p.makespan().to_bits(),
        baseline.report.elapsed().to_bits(),
        "detailed tracing must not perturb the clock"
    );
    assert_eq!(p.nprocs(), compiled.nprocs());
    assert!(p.total_requests() > 0, "gaxpy does I/O");
    // Every captured request carries the offset detail for the elevator.
    for s in &p.streams {
        assert!(s.iter().all(|r| r.offset.is_some()));
    }
}

#[test]
fn single_job_fifo_reproduces_solo_times_exactly() {
    let compiled = compiled_gaxpy();
    let baseline = run(&compiled, &RunConfig::default()).unwrap();
    let p = profile(&compiled, &RunConfig::default()).unwrap();
    for policy in [Policy::Fifo, Policy::StaticShare] {
        let rep = ooc_sched::simulate(
            &[FarmJob::new(1, &p)],
            &FarmConfig {
                policy,
                ..FarmConfig::default()
            },
        );
        assert_eq!(
            rep.jobs[0].completion.to_bits(),
            baseline.report.elapsed().to_bits(),
            "{}: solo completion must be the solo makespan, bitwise",
            policy.name()
        );
        assert_eq!(rep.jobs[0].total_wait, 0.0, "{}", policy.name());
        // Every request is served exactly on its solo schedule.
        for sv in &rep.served {
            let orig = &p.streams[sv.disk][sv.seq];
            assert_eq!(sv.start.to_bits(), orig.t0.to_bits());
            assert_eq!(sv.finish.to_bits(), orig.t1.to_bits());
        }
        // Work conservation bookkeeping: busy time is the service sum.
        let total: f64 = rep.served.iter().map(|s| s.service).sum();
        let busy: f64 = rep.disk_busy.iter().sum();
        assert!((total - busy).abs() < 1e-12);
    }
}

#[test]
fn single_job_workload_under_default_policy_is_bitwise_legacy() {
    let compiled = compiled_gaxpy();
    let baseline = run(&compiled, &RunConfig::default()).unwrap();
    let p = profile(&compiled, &RunConfig::default()).unwrap();
    let rep = run_workload(&[JobSpec::new("solo", p)], &WorkloadConfig::default()).unwrap();
    assert_eq!(
        rep.policy,
        Policy::StaticShare,
        "default is the legacy divide"
    );
    assert_eq!(
        rep.jobs[0].completion.to_bits(),
        baseline.report.elapsed().to_bits()
    );
    assert_eq!(rep.jobs[0].admit, 0.0);
    assert_eq!(rep.jobs[0].stretch(), 1.0);
}

#[test]
fn static_share_stays_exact_even_with_prefetch_overlap() {
    // Prefetch makes overlap-track disk spans (the column version overlaps
    // its fetches of A); a queueing policy would serialize any overlap, but
    // the static divide must stay exact.
    let options = CompilerOptions {
        force_strategy: Some(ooc_core::SlabStrategy::ColumnSlab),
        prefetch: true,
        ..CompilerOptions::default()
    };
    let compiled = compile_source(hpf::GAXPY_SOURCE, &options).unwrap();
    let cfg = RunConfig::default();
    let baseline = run(&compiled, &cfg).unwrap();
    let p = profile(&compiled, &cfg).unwrap();
    let rep = run_workload(&[JobSpec::new("pf", p)], &WorkloadConfig::default()).unwrap();
    assert_eq!(
        rep.jobs[0].completion.to_bits(),
        baseline.report.elapsed().to_bits()
    );
}

#[test]
fn default_trace_exports_are_byte_identical_and_offset_free() {
    // The offset detail is gated behind TraceConfig::detailed(); a default
    // traced run must export the same bytes as before this subsystem
    // existed — in particular, no "offset" keys.
    let compiled = compiled_gaxpy();
    let cfg = RunConfig {
        trace: Some(TraceConfig::on()),
        ..RunConfig::default()
    };
    let mut a = run(&compiled, &cfg).unwrap();
    let mut b = run(&compiled, &cfg).unwrap();
    let ja = ooc_trace::perfetto::to_chrome_json(&a.report.take_trace().unwrap());
    let jb = ooc_trace::perfetto::to_chrome_json(&b.report.take_trace().unwrap());
    assert_eq!(ja, jb, "traced runs are byte-reproducible");
    assert!(
        !ja.contains("\"offset\""),
        "no detail fields without io_detail"
    );

    // And the detailed profile run does carry them.
    let cfg = RunConfig {
        trace: Some(TraceConfig::detailed()),
        ..RunConfig::default()
    };
    let mut c = run(&compiled, &cfg).unwrap();
    let jc = ooc_trace::perfetto::to_chrome_json(&c.report.take_trace().unwrap());
    assert!(jc.contains("\"offset\""));
}

#[test]
fn contention_slows_jobs_and_fair_share_bounds_the_damage() {
    // Two identical gaxpy jobs on the same farm: both must finish later
    // than solo under any queueing policy, and the farm trace must export.
    let compiled = compiled_gaxpy();
    let p = profile(&compiled, &RunConfig::default()).unwrap();
    let solo = p.makespan();
    for policy in [
        Policy::Fifo,
        Policy::Elevator,
        Policy::Deadline,
        Policy::FairShare,
    ] {
        let rep = run_workload(
            &[JobSpec::new("a", p.clone()), JobSpec::new("b", p.clone())],
            &WorkloadConfig {
                policy,
                trace: true,
                ..WorkloadConfig::default()
            },
        )
        .unwrap();
        for j in &rep.jobs {
            assert!(
                j.completion >= solo,
                "{}: contention never speeds a job up",
                policy.name()
            );
        }
        assert!(
            rep.jobs.iter().any(|j| j.total_wait > 0.0),
            "{}: identical overlapping jobs must queue",
            policy.name()
        );
        let trace = rep.farm.trace.as_ref().expect("trace requested");
        assert_eq!(
            trace.ranks.len(),
            compiled.nprocs(),
            "one timeline per disk"
        );
        // Queueing produces overlapping waits, but they live on the
        // nesting-exempt queue track: every disk timeline stays well
        // nested.
        for rt in &trace.ranks {
            ooc_trace::check_well_nested(rt)
                .unwrap_or_else(|e| panic!("{}: farm trace nesting: {e}", policy.name()));
        }
        let json = ooc_trace::perfetto::to_chrome_json(trace);
        ooc_trace::json::parse(&json).expect("farm trace is valid JSON");
    }
}

#[test]
fn observed_workload_is_transparent_and_its_traces_stay_well_nested() {
    // Attaching the observatory must not change the guarded report, the
    // farm trace, or the domain trace — and the stream it publishes must
    // be byte-reproducible.
    let compiled = compiled_gaxpy();
    let p = profile(&compiled, &RunConfig::default()).unwrap();
    let specs = [
        JobSpec::new("a", p.clone()),
        JobSpec::new("b", p.clone()).with_submit(0.01),
    ];
    let cadence = p.makespan() / 4.0;
    let dcfg = ooc_sched::DomainConfig {
        policy: Policy::Fifo,
        trace: true,
        ..ooc_sched::DomainConfig::default()
    };
    let gplain = ooc_sched::run_workload_guarded(&specs, &dcfg).unwrap();
    let mut glog = ooc_sched::EventLog::default();
    let gobs = ooc_sched::run_workload_guarded_observed(&specs, &dcfg, cadence, &mut glog).unwrap();
    assert_eq!(gplain, gobs, "observation perturbed the guarded run");
    ooc_trace::check_well_nested(gobs.domain_trace.as_ref().unwrap())
        .expect("observed domain trace nesting");
    for rt in &gobs.farm.trace.as_ref().unwrap().ranks {
        ooc_trace::check_well_nested(rt).expect("observed farm trace nesting");
    }
    assert!(!glog.events.is_empty() && !glog.samples.is_empty());
    let mut glog2 = ooc_sched::EventLog::default();
    ooc_sched::run_workload_guarded_observed(&specs, &dcfg, cadence, &mut glog2).unwrap();
    assert_eq!(glog.render(), glog2.render(), "stream is not reproducible");
}
