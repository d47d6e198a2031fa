//! Admission-error corpus: malformed or inadmissible job submissions must
//! come back as typed [`AdmissionError`]s from every workload entry point
//! — `run_workload`, `capture_specs` and `run_workload_guarded` — and
//! never as panics.

use std::sync::Arc;

use dmsim::WorkerPool;
use ooc_sched::{
    capture_specs, run_workload, run_workload_guarded, AdmissionError, DomainConfig, IoReq,
    JobProfile, JobSpec, ProgramJob, WorkloadConfig, WorkloadError,
};

fn tiny_profile() -> JobProfile {
    JobProfile {
        rank_finish: vec![2.0],
        streams: vec![vec![IoReq {
            t0: 0.0,
            t1: 1.0,
            requests: 1,
            bytes: 64,
            offset: Some(0),
            write: false,
        }]],
        ..JobProfile::default()
    }
}

fn wide_profile(ranks: usize) -> JobProfile {
    JobProfile {
        rank_finish: vec![1.0; ranks],
        streams: vec![Vec::new(); ranks],
        ..JobProfile::default()
    }
}

#[test]
fn zero_rank_job_is_refused() {
    let specs = [JobSpec::new("empty", JobProfile::default())];
    let err = run_workload(&specs, &WorkloadConfig::default()).unwrap_err();
    assert_eq!(
        err,
        AdmissionError::NoRanks {
            job: "empty".into()
        }
    );
    assert!(err.to_string().contains("zero ranks"));
}

#[test]
fn job_wider_than_the_farm_is_refused() {
    let specs = [JobSpec::new("wide", wide_profile(8))];
    let cfg = WorkloadConfig {
        disks: 4,
        ..WorkloadConfig::default()
    };
    let err = run_workload(&specs, &cfg).unwrap_err();
    assert_eq!(
        err,
        AdmissionError::CapacityExceeded {
            job: "wide".into(),
            ranks: 8,
            disks: 4,
        }
    );
    // Zero (auto-sized) capacity admits any width.
    assert!(run_workload(&specs, &WorkloadConfig::default()).is_ok());
}

#[test]
fn duplicate_job_ids_are_refused() {
    let specs = [
        JobSpec::new("twin", tiny_profile()),
        JobSpec::new("other", tiny_profile()),
        JobSpec::new("twin", tiny_profile()),
    ];
    let err = run_workload(&specs, &WorkloadConfig::default()).unwrap_err();
    assert_eq!(err, AdmissionError::DuplicateJobId { job: "twin".into() });
}

#[test]
fn non_finite_submit_times_are_refused_not_panicked() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let specs = [
            JobSpec::new("ok", tiny_profile()),
            JobSpec::new("bad", tiny_profile()).with_submit(bad),
        ];
        let err = run_workload(&specs, &WorkloadConfig::default()).unwrap_err();
        assert!(
            matches!(err, AdmissionError::BadSubmitTime { ref job, .. } if job == "bad"),
            "submit {bad}: got {err:?}"
        );
    }
}

#[test]
fn structurally_unsound_profiles_are_refused_not_replayed() {
    // Each mutation yields a profile whose replay would poison the farm's
    // time arithmetic (NaN comparisons, -inf arrivals) or index out of
    // bounds — precisely what a truncated or hand-corrupted replay file
    // submitted to the daemon looks like.
    let poison: Vec<(&str, JobProfile)> = vec![
        ("nan_t0", {
            let mut p = tiny_profile();
            p.streams[0][0].t0 = f64::NAN;
            p
        }),
        ("inf_t1", {
            let mut p = tiny_profile();
            p.streams[0][0].t1 = f64::INFINITY;
            p
        }),
        ("negative_span", {
            let mut p = tiny_profile();
            p.streams[0][0].t1 = -1.0;
            p
        }),
        ("negative_t0", {
            let mut p = tiny_profile();
            p.streams[0][0].t0 = -2.0;
            p.streams[0][0].t1 = -1.0;
            p
        }),
        ("nan_rank_finish", {
            let mut p = tiny_profile();
            p.rank_finish[0] = f64::NAN;
            p
        }),
        ("truncated_streams", {
            let mut p = tiny_profile();
            p.rank_finish.push(3.0); // two ranks, one stream
            p
        }),
    ];
    for (label, profile) in poison {
        let specs = [JobSpec::new(label, profile)];
        let err = run_workload(&specs, &WorkloadConfig::default()).unwrap_err();
        assert!(
            matches!(err, AdmissionError::MalformedProfile { ref job, .. } if job == label),
            "{label}: got {err:?}"
        );
        assert!(
            matches!(
                run_workload_guarded(&specs, &DomainConfig::default()),
                Err(AdmissionError::MalformedProfile { .. })
            ),
            "{label}: the guarded runtime must refuse it too"
        );
    }
}

#[test]
fn a_rank_finishing_before_its_last_request_ends_is_refused() {
    let mut early = tiny_profile();
    early.rank_finish[0] = 0.5;
    let specs = [JobSpec::new("early", early)];
    for err in [
        run_workload(&specs, &WorkloadConfig::default()).unwrap_err(),
        run_workload_guarded(&specs, &DomainConfig::default()).unwrap_err(),
    ] {
        assert!(
            matches!(err, AdmissionError::MalformedProfile { ref job, ref reason }
                if job == "early" && reason.contains("before its last request ends")),
            "got {err:?}"
        );
    }
    // Finishing exactly as the last request ends is sound.
    let mut flush = tiny_profile();
    flush.rank_finish[0] = 1.0;
    assert!(run_workload(&[JobSpec::new("flush", flush)], &WorkloadConfig::default()).is_ok());
}

#[test]
fn the_guarded_runtime_shares_the_same_corpus() {
    let cfg = DomainConfig::default();
    assert!(matches!(
        run_workload_guarded(&[JobSpec::new("e", JobProfile::default())], &cfg),
        Err(AdmissionError::NoRanks { .. })
    ));
    assert!(matches!(
        run_workload_guarded(
            &[
                JobSpec::new("x", tiny_profile()),
                JobSpec::new("x", tiny_profile())
            ],
            &cfg
        ),
        Err(AdmissionError::DuplicateJobId { .. })
    ));
    let capped = DomainConfig {
        disks: 1,
        ..DomainConfig::default()
    };
    assert!(matches!(
        run_workload_guarded(&[JobSpec::new("w", wide_profile(2))], &capped),
        Err(AdmissionError::CapacityExceeded { .. })
    ));
}

#[test]
fn live_capture_refuses_duplicate_job_tags_before_running_anything() {
    let compiled = Arc::new(
        ooc_core::compile_source(hpf::GAXPY_SOURCE, &ooc_core::CompilerOptions::default()).unwrap(),
    );
    let pool = WorkerPool::new(1);
    let jobs = [
        ProgramJob::new("a", Arc::clone(&compiled)).with_job_tag(3),
        ProgramJob::new("b", Arc::clone(&compiled)).with_job_tag(3),
    ];
    let err = capture_specs(&jobs, &pool).unwrap_err();
    assert!(
        matches!(
            err,
            WorkloadError::Admission(AdmissionError::DuplicateJobId { .. })
        ),
        "got {err:?}"
    );
    // Distinct tags (or untagged jobs) pass.
    let jobs = [
        ProgramJob::new("a", Arc::clone(&compiled)).with_job_tag(1),
        ProgramJob::new("b", compiled).with_job_tag(2),
    ];
    assert!(capture_specs(&jobs, &pool).is_ok());
}

#[test]
fn guarded_runtime_refuses_a_config_it_cannot_sweep() {
    // A panic here would take down whichever thread ran the workload —
    // under `oocd` a connection thread, wedging the session in `draining`.
    let specs = [JobSpec::new("w", wide_profile(2))];
    let bad = [
        DomainConfig {
            // Only disks 0 and 1 exist: the farm is sized from the jobs.
            disk_deaths: vec![(1.0, 2)],
            ..DomainConfig::default()
        },
        DomainConfig {
            epoch: 0.0,
            ..DomainConfig::default()
        },
        DomainConfig {
            backoff_cap: f64::NAN,
            ..DomainConfig::default()
        },
        DomainConfig {
            hang_chance: 0.5,
            watchdog_quantum: 0.0,
            ..DomainConfig::default()
        },
    ];
    for cfg in bad {
        let err = run_workload_guarded(&specs, &cfg).unwrap_err();
        assert!(
            matches!(err, AdmissionError::BadConfig { .. }),
            "{cfg:?}: got {err:?}"
        );
    }
}

#[test]
fn admission_errors_are_std_errors_with_readable_messages() {
    let errors: Vec<AdmissionError> = vec![
        AdmissionError::NoRanks { job: "j".into() },
        AdmissionError::CapacityExceeded {
            job: "j".into(),
            ranks: 9,
            disks: 2,
        },
        AdmissionError::DuplicateJobId { job: "j".into() },
        AdmissionError::BadSubmitTime {
            job: "j".into(),
            submit: f64::NAN,
        },
        AdmissionError::MalformedProfile {
            job: "j".into(),
            reason: "rank 0: bad finish time NaN".into(),
        },
        AdmissionError::BadConfig {
            what: "job-independent".into(),
        },
    ];
    for e in errors {
        let msg = e.to_string();
        assert!(msg.contains('j'), "{msg}");
        let _: &dyn std::error::Error = &e;
    }
}
