//! Multi-job workload runtime: admission control plus farm replay.
//!
//! A workload is a batch of compiled-program profiles submitted to the
//! shared disk farm. The runtime admits jobs in deterministic `(submit,
//! index)` order, holding each until a concurrency slot frees, then
//! replays all admitted jobs together under the configured policy.
//!
//! Admission is *optimistic*: a job's admit time is computed from the
//! completion times the farm predicts at the moment of the decision, and
//! admitting the job then slows those very completions down. Re-simulating
//! after every admission keeps the whole schedule deterministic and
//! reproducible — the admit times are the runtime's view at decision time,
//! exactly as a real batch scheduler's would be.

use std::collections::HashSet;
use std::fmt;

use crate::capture::JobProfile;
use crate::farm::{simulate, FarmConfig, FarmJob, FarmReport};
use crate::policy::Policy;

/// A job submission the runtime refuses to admit. Raised by
/// [`run_workload`], [`crate::capture_specs`] and
/// [`crate::run_workload_guarded`] before anything runs — a malformed
/// batch never reaches the farm, and never panics the runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// The job's profile has zero ranks: there is nothing to schedule.
    NoRanks { job: String },
    /// The job wants more ranks (= logical disks) than the farm has
    /// ([`WorkloadConfig::disks`] when nonzero).
    CapacityExceeded {
        job: String,
        ranks: usize,
        disks: usize,
    },
    /// Two jobs share an id; reports and fault streams would collide.
    DuplicateJobId { job: String },
    /// A submission time is NaN or infinite; admission order would be
    /// undefined.
    BadSubmitTime { job: String, submit: f64 },
    /// The job's profile is structurally unsound (non-finite or negative
    /// request spans, stream/rank count mismatch) — replaying it would
    /// poison the farm's time arithmetic. See
    /// [`JobProfile::validate`](crate::capture::JobProfile::validate).
    MalformedProfile { job: String, reason: String },
    /// The guarded runtime's [`crate::DomainConfig`] cannot drive a run
    /// (a disk death outside the farm, a non-positive epoch, a NaN backoff
    /// cap, hang injection with no watchdog to end the hang).
    BadConfig { what: String },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::NoRanks { job } => {
                write!(f, "job {job:?}: profile has zero ranks")
            }
            AdmissionError::CapacityExceeded { job, ranks, disks } => write!(
                f,
                "job {job:?}: wants {ranks} ranks but the farm has {disks} disks"
            ),
            AdmissionError::DuplicateJobId { job } => {
                write!(f, "job id {job:?} submitted more than once")
            }
            AdmissionError::BadSubmitTime { job, submit } => {
                write!(f, "job {job:?}: submit time {submit} is not finite")
            }
            AdmissionError::MalformedProfile { job, reason } => {
                write!(f, "job {job:?}: malformed profile: {reason}")
            }
            AdmissionError::BadConfig { what } => write!(f, "bad domain config: {what}"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Validate a batch before admission: every job has at least one rank, a
/// finite submit time and a structurally sound profile, fits the farm, and
/// carries a unique id.
pub(crate) fn validate_specs(specs: &[JobSpec], disks: usize) -> Result<(), AdmissionError> {
    let mut seen: HashSet<&str> = HashSet::with_capacity(specs.len());
    for spec in specs {
        if spec.profile.nprocs() == 0 {
            return Err(AdmissionError::NoRanks {
                job: spec.name.clone(),
            });
        }
        if disks > 0 && spec.profile.nprocs() > disks {
            return Err(AdmissionError::CapacityExceeded {
                job: spec.name.clone(),
                ranks: spec.profile.nprocs(),
                disks,
            });
        }
        if !spec.submit.is_finite() {
            return Err(AdmissionError::BadSubmitTime {
                job: spec.name.clone(),
                submit: spec.submit,
            });
        }
        if let Err(reason) = spec.profile.validate() {
            return Err(AdmissionError::MalformedProfile {
                job: spec.name.clone(),
                reason,
            });
        }
        if !seen.insert(&spec.name) {
            return Err(AdmissionError::DuplicateJobId {
                job: spec.name.clone(),
            });
        }
    }
    Ok(())
}

/// One job submitted to the workload runtime.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Display name (job type, bench label…).
    pub name: String,
    /// Captured solo profile (see [`crate::capture::profile`]).
    pub profile: JobProfile,
    /// Submission time on the workload clock.
    pub submit: f64,
    /// Fair-share weight.
    pub weight: f64,
    /// Deadline slack for [`Policy::Deadline`].
    pub qos_slack: f64,
}

impl JobSpec {
    /// A job submitted at time zero with unit weight and a solo-makespan
    /// deadline slack.
    pub fn new(name: impl Into<String>, profile: JobProfile) -> JobSpec {
        let qos_slack = profile.makespan();
        JobSpec {
            name: name.into(),
            profile,
            submit: 0.0,
            weight: 1.0,
            qos_slack,
        }
    }

    /// Same job with a different fair-share weight.
    pub fn with_weight(mut self, weight: f64) -> JobSpec {
        self.weight = weight;
        self
    }

    /// Same job with a different submission time.
    pub fn with_submit(mut self, submit: f64) -> JobSpec {
        self.submit = submit;
        self
    }
}

/// Workload runtime configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Disk service-order policy.
    pub policy: Policy,
    /// Maximum jobs running concurrently (0 = unlimited). Admission holds
    /// later submissions until a predicted completion frees a slot.
    pub max_concurrent: usize,
    /// Elevator seek penalty, seconds per non-contiguous head movement.
    pub seek_penalty: f64,
    /// Record the per-disk queue trace in the final replay.
    pub trace: bool,
    /// Farm capacity in logical disks. Zero (the default) sizes the farm
    /// to the widest job; nonzero makes a job wanting more ranks an
    /// [`AdmissionError::CapacityExceeded`].
    pub disks: usize,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            policy: Policy::default(),
            max_concurrent: 0,
            seek_penalty: 0.0,
            trace: false,
            disks: 0,
        }
    }
}

/// Outcome of one job in the workload.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Display name from the spec.
    pub name: String,
    /// Job tag the runtime assigned (1-based; tag 0 is reserved for the
    /// legacy single-job path).
    pub job: u32,
    /// Submission time.
    pub submit: f64,
    /// Admission time the runtime granted.
    pub admit: f64,
    /// Completion on the farm clock.
    pub completion: f64,
    /// Solo makespan of the profile (the no-contention baseline).
    pub solo_makespan: f64,
    /// Requests served for this job.
    pub requests: u64,
    /// Sum of queueing waits.
    pub total_wait: f64,
    /// Largest single queueing wait.
    pub max_wait: f64,
    /// Faults injected into the job's capture run (all kinds).
    pub faults_injected: u64,
    /// Disk requests the capture run re-issued under the retry policy.
    pub io_retries: u64,
    /// Message re-transmissions after injected drops in the capture run.
    pub msg_retries: u64,
}

impl JobReport {
    /// Turnaround: submission to completion.
    pub fn turnaround(&self) -> f64 {
        self.completion - self.submit
    }

    /// Slowdown of the running phase vs the solo baseline (1.0 = no
    /// contention effect).
    pub fn stretch(&self) -> f64 {
        if self.solo_makespan > 0.0 {
            (self.completion - self.admit) / self.solo_makespan
        } else {
            1.0
        }
    }
}

/// Result of running a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    /// Per-job outcomes, in submission-slice order.
    pub jobs: Vec<JobReport>,
    /// The final farm replay (served log, per-disk metrics, queue trace).
    pub farm: FarmReport,
    /// Policy the workload ran under.
    pub policy: Policy,
}

impl WorkloadReport {
    /// Workload makespan: the latest completion.
    pub fn makespan(&self) -> f64 {
        self.jobs.iter().map(|j| j.completion).fold(0.0, f64::max)
    }
}

/// Admit and run `specs` against the shared farm.
///
/// Malformed batches (zero-rank jobs, duplicate ids, non-finite submit
/// times, jobs wider than [`WorkloadConfig::disks`]) are refused with a
/// typed [`AdmissionError`] before anything runs.
pub fn run_workload(
    specs: &[JobSpec],
    cfg: &WorkloadConfig,
) -> Result<WorkloadReport, AdmissionError> {
    validate_specs(specs, cfg.disks)?;
    let admitted = admission_schedule(specs, cfg);
    // Final replay, with tracing if requested.
    let farm = simulate(
        &farm_jobs(specs, &admitted),
        &FarmConfig {
            policy: cfg.policy,
            seek_penalty: cfg.seek_penalty,
            trace: cfg.trace,
            observe: false,
        },
    );
    Ok(build_report(specs, &admitted, farm, cfg.policy))
}

/// The deterministic admission schedule: `(spec index, admit time)` in
/// admission order.
fn admission_schedule(specs: &[JobSpec], cfg: &WorkloadConfig) -> Vec<(usize, f64)> {
    // Deterministic admission order: submission time, then slice position.
    let mut order: Vec<usize> = (0..specs.len()).collect();
    order.sort_by(|&a, &b| specs[a].submit.total_cmp(&specs[b].submit).then(a.cmp(&b)));

    let farm_cfg = FarmConfig {
        policy: cfg.policy,
        seek_penalty: cfg.seek_penalty,
        trace: false,
        observe: false,
    };
    // (spec index, admit time) of everything admitted so far.
    let mut admitted: Vec<(usize, f64)> = Vec::new();
    let mut last_report: Option<FarmReport> = None;
    for &idx in &order {
        let spec = &specs[idx];
        let admit = if cfg.max_concurrent == 0 || admitted.len() < cfg.max_concurrent {
            spec.submit
        } else {
            // A slot frees when all but (C - 1) of the previously admitted
            // jobs have completed: take the (n - C + 1)-th smallest
            // predicted completion.
            let completions = &last_report
                .as_ref()
                .expect("simulated after admission")
                .jobs;
            let mut done: Vec<f64> = completions.iter().map(|j| j.completion).collect();
            done.sort_by(f64::total_cmp);
            let slot_free = done[admitted.len() - cfg.max_concurrent];
            spec.submit.max(slot_free)
        };
        admitted.push((idx, admit));
        last_report = Some(simulate(&farm_jobs(specs, &admitted), &farm_cfg));
    }
    admitted
}

/// The farm's job slice for an admission schedule.
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

/// Assemble the report in original spec order.
fn build_report(
    specs: &[JobSpec],
    admitted: &[(usize, f64)],
    farm: FarmReport,
    policy: Policy,
) -> WorkloadReport {
    let mut jobs_out: Vec<Option<JobReport>> = vec![None; specs.len()];
    for (pos, &(i, admit)) in admitted.iter().enumerate() {
        let qs = &farm.jobs[pos];
        jobs_out[i] = Some(JobReport {
            name: specs[i].name.clone(),
            job: i as u32 + 1,
            submit: specs[i].submit,
            admit,
            completion: qs.completion,
            solo_makespan: specs[i].profile.makespan(),
            requests: qs.requests,
            total_wait: qs.total_wait,
            max_wait: qs.max_wait,
            faults_injected: specs[i].profile.faults_injected,
            io_retries: specs[i].profile.io_retries,
            msg_retries: specs[i].profile.msg_retries,
        });
    }
    WorkloadReport {
        jobs: jobs_out
            .into_iter()
            .map(|j| j.expect("every spec admitted"))
            .collect(),
        farm,
        policy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::IoReq;

    fn profile(n: usize, service: f64) -> JobProfile {
        let reqs: Vec<IoReq> = (0..n)
            .map(|i| IoReq {
                t0: i as f64 * service,
                t1: (i as f64 + 1.0) * service,
                requests: 1,
                bytes: 64,
                offset: Some(64 * i as u64),
                write: false,
            })
            .collect();
        JobProfile {
            rank_finish: vec![n as f64 * service],
            streams: vec![reqs],
            ..JobProfile::default()
        }
    }

    #[test]
    fn single_job_default_policy_matches_solo_exactly() {
        let p = profile(8, 1.0);
        let rep = run_workload(
            &[JobSpec::new("solo", p.clone())],
            &WorkloadConfig::default(),
        )
        .unwrap();
        assert_eq!(rep.jobs[0].completion.to_bits(), p.makespan().to_bits());
        assert_eq!(rep.jobs[0].total_wait, 0.0);
        assert_eq!(rep.jobs[0].stretch(), 1.0);
    }

    #[test]
    fn admission_staggers_beyond_the_concurrency_cap() {
        let p = profile(4, 1.0);
        let specs: Vec<JobSpec> = (0..3)
            .map(|i| JobSpec::new(format!("j{i}"), p.clone()))
            .collect();
        let rep = run_workload(
            &specs,
            &WorkloadConfig {
                policy: Policy::Fifo,
                max_concurrent: 1,
                ..WorkloadConfig::default()
            },
        )
        .unwrap();
        // Serial admission: each job starts when the previous completes.
        assert_eq!(rep.jobs[0].admit, 0.0);
        assert_eq!(rep.jobs[1].admit, rep.jobs[0].completion);
        assert_eq!(rep.jobs[2].admit, rep.jobs[1].completion);
        // Serialized jobs never queue against each other.
        assert!(rep.jobs.iter().all(|j| j.total_wait == 0.0));
    }

    #[test]
    fn unlimited_concurrency_admits_everything_at_submit() {
        let p = profile(4, 1.0);
        let specs: Vec<JobSpec> = (0..4)
            .map(|i| JobSpec::new(format!("j{i}"), p.clone()))
            .collect();
        let rep = run_workload(
            &specs,
            &WorkloadConfig {
                policy: Policy::Fifo,
                ..WorkloadConfig::default()
            },
        )
        .unwrap();
        assert!(rep.jobs.iter().all(|j| j.admit == j.submit));
        assert!(
            rep.makespan() > p.makespan(),
            "contention stretches the batch"
        );
    }

    #[test]
    fn workload_is_deterministic() {
        let p = profile(6, 0.5);
        let specs: Vec<JobSpec> = (0..5)
            .map(|i| JobSpec::new(format!("j{i}"), p.clone()).with_weight(1.0 + i as f64))
            .collect();
        let cfg = WorkloadConfig {
            policy: Policy::FairShare,
            max_concurrent: 3,
            ..WorkloadConfig::default()
        };
        let a = run_workload(&specs, &cfg).unwrap();
        let b = run_workload(&specs, &cfg).unwrap();
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.farm.served, b.farm.served);
    }
}
