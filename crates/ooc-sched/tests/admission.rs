//! The plain workload runtime's one-pass admission against its definition.
//!
//! `reference_workload` is the runtime as first written: after every
//! admission it replays the whole farm again, and a job that finds the
//! cap full is admitted at the `(n - C + 1)`-th smallest completion that
//! replay predicts. It costs one full replay per job.
//! `run_workload` admits in a single event-driven pass over one
//! `FarmSim`; over random batches the two must agree bit for bit on the
//! whole report, the farm's included.

use proptest::prelude::*;

use ooc_sched::{
    run_workload, simulate, FarmConfig, FarmJob, FarmReport, IoReq, JobProfile, JobReport, JobSpec,
    Policy, WorkloadConfig, WorkloadReport,
};

/// The re-simulating runtime: the admission schedule, then a final replay.
fn reference_workload(specs: &[JobSpec], cfg: &WorkloadConfig) -> WorkloadReport {
    let mut order: Vec<usize> = (0..specs.len()).collect();
    order.sort_by(|&a, &b| specs[a].submit.total_cmp(&specs[b].submit).then(a.cmp(&b)));
    let farm_cfg = FarmConfig {
        policy: cfg.policy,
        seek_penalty: cfg.seek_penalty,
        trace: false,
        observe: false,
    };
    let mut admitted: Vec<(usize, f64)> = Vec::new();
    let mut last: Option<FarmReport> = None;
    for &idx in &order {
        let spec = &specs[idx];
        let admit = if cfg.max_concurrent == 0 || admitted.len() < cfg.max_concurrent {
            spec.submit
        } else {
            // A slot frees when all but (C - 1) of the jobs admitted so far
            // have completed.
            let mut done: Vec<f64> = last
                .as_ref()
                .expect("simulated after admission")
                .jobs
                .iter()
                .map(|j| j.completion)
                .collect();
            done.sort_by(f64::total_cmp);
            spec.submit.max(done[admitted.len() - cfg.max_concurrent])
        };
        admitted.push((idx, admit));
        last = Some(simulate(&farm_jobs(specs, &admitted), &farm_cfg));
    }
    let farm = simulate(
        &farm_jobs(specs, &admitted),
        &FarmConfig {
            trace: cfg.trace,
            ..farm_cfg
        },
    );
    let mut jobs: Vec<Option<JobReport>> = vec![None; specs.len()];
    for (pos, &(i, admit)) in admitted.iter().enumerate() {
        let qs = &farm.jobs[pos];
        let p = &specs[i].profile;
        jobs[i] = Some(JobReport {
            name: specs[i].name.clone(),
            job: i as u32 + 1,
            submit: specs[i].submit,
            admit,
            completion: qs.completion,
            solo_makespan: p.makespan(),
            requests: qs.requests,
            total_wait: qs.total_wait,
            max_wait: qs.max_wait,
            faults_injected: p.faults_injected,
            io_retries: p.io_retries,
            msg_retries: p.msg_retries,
        });
    }
    WorkloadReport {
        jobs: jobs.into_iter().map(|j| j.expect("admitted")).collect(),
        farm,
        policy: cfg.policy,
    }
}

fn farm_jobs<'a>(specs: &'a [JobSpec], admitted: &[(usize, f64)]) -> Vec<FarmJob<'a>> {
    admitted
        .iter()
        .map(|&(i, base)| FarmJob {
            job: i as u32 + 1,
            profile: &specs[i].profile,
            base,
            weight: specs[i].weight,
            qos_slack: specs[i].qos_slack,
        })
        .collect()
}

/// One rank's stream: `(lead, service, gap)` per request in tenths of a
/// second plus a fractional jitter, so sums round; offsets from a small
/// range so the elevator both sweeps and wraps. The rank finishes after
/// its last request ends.
fn stream(reqs: &[(u8, u8, u8, u16)], tail: u8) -> (Vec<IoReq>, f64) {
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(reqs.len());
    for &(lead, svc, gap, off) in reqs {
        let t0 = t + lead as f64 * 0.1;
        let t1 = t0 + svc as f64 * 0.1 + 0.013 * (off % 7) as f64;
        out.push(IoReq {
            t0,
            t1,
            requests: 1,
            bytes: 64,
            offset: Some(64 * off as u64),
            write: off % 3 == 0,
        });
        t = t1 + gap as f64 * 0.07;
    }
    (out, t + tail as f64 * 0.1)
}

type Req = (u8, u8, u8, u16);
type Job = (Vec<(Vec<Req>, u8)>, u8, u8, u8);

/// A job: 1–3 ranks of 0–5 positive-length requests, a submit time on a
/// coarse grid (so submits tie), a weight and a deadline slack.
fn job() -> impl Strategy<Value = Job> {
    let req = (0u8..4, 1u8..9, 0u8..4, 0u16..40);
    let rank = (proptest::collection::vec(req, 0..6), 0u8..4);
    (
        proptest::collection::vec(rank, 1..4),
        0u8..6,
        1u8..4,
        1u8..30,
    )
}

fn specs_of(jobs: &[Job]) -> Vec<JobSpec> {
    jobs.iter()
        .enumerate()
        .map(|(i, (ranks, submit, weight, slack))| {
            let (streams, rank_finish) = ranks.iter().map(|(r, tail)| stream(r, *tail)).unzip();
            let profile = JobProfile {
                streams,
                rank_finish,
                ..JobProfile::default()
            };
            let mut spec = JobSpec::new(format!("j{i}"), profile)
                .with_submit(*submit as f64 * 0.4)
                .with_weight(*weight as f64);
            spec.qos_slack = *slack as f64 * 0.2;
            spec
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn one_pass_admission_equals_the_resimulating_reference(
        jobs in proptest::collection::vec(job(), 1..15),
        cap in 0usize..5,
        policy_ix in 0usize..5,
        seek in proptest::bool::ANY,
        trace in proptest::bool::ANY,
    ) {
        let specs = specs_of(&jobs);
        let cfg = WorkloadConfig {
            policy: Policy::ALL[policy_ix],
            max_concurrent: cap,
            seek_penalty: if seek { 0.05 } else { 0.0 },
            trace,
            ..WorkloadConfig::default()
        };
        let got = run_workload(&specs, &cfg).unwrap();
        let want = reference_workload(&specs, &cfg);
        // `Debug` prints every float's shortest round trip: equal strings
        // are equal bits.
        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }
}
