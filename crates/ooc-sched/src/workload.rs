//! Multi-job workload runtime: admission control plus farm replay.
//!
//! A workload is a batch of compiled-program profiles submitted to the
//! shared disk farm. The runtime admits jobs in deterministic `(submit,
//! index)` order, holding each until a concurrency slot frees, and
//! replays them together under the configured policy in one pass over a
//! [`FarmSim`].
//!
//! A slot frees at a completion event. The farm is causal — a job
//! admitted at `t` changes no service that starts before `t` — so the
//! runtime advances the farm one start time at a time until the earliest
//! completion no earlier admission used is final, admits the waiting job
//! there, and goes on. The schedule is the one a batch scheduler would
//! see, deterministic and bitwise reproducible; under a cap it costs host
//! time linear in the served requests.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::fmt;

use crate::capture::JobProfile;
use crate::domain::Key;
use crate::farm::{FarmConfig, FarmJob, FarmReport, FarmSim};
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
///
/// A job that finds every slot taken is admitted at its submit time or at
/// the earliest completion no earlier admission used, whichever is later.
/// That completion is final once it is no later than the farm's next
/// start time: a job not yet drained completes after that time, since no
/// rank finishes before its last request ends (admission refuses a
/// profile where one does).
pub fn run_workload(
    specs: &[JobSpec],
    cfg: &WorkloadConfig,
) -> Result<WorkloadReport, AdmissionError> {
    validate_specs(specs, cfg.disks)?;
    // Deterministic admission order: submission time, then slice position.
    let mut order: Vec<usize> = (0..specs.len()).collect();
    order.sort_by(|&a, &b| specs[a].submit.total_cmp(&specs[b].submit).then(a.cmp(&b)));

    let ndisks = specs.iter().map(|s| s.profile.nprocs()).max().unwrap_or(0);
    let mut sim = FarmSim::new(
        ndisks,
        FarmConfig {
            policy: cfg.policy,
            seek_penalty: cfg.seek_penalty,
            trace: cfg.trace,
            observe: false,
        },
    );
    // Admit time per spec; admitted slots not yet drained, and the
    // completions of drained ones that no admission has used yet.
    let mut admit_at = vec![0.0; specs.len()];
    let mut running: Vec<usize> = Vec::new();
    let mut unused: BinaryHeap<Reverse<Key>> = BinaryHeap::new();
    for (k, &i) in order.iter().enumerate() {
        let spec = &specs[i];
        let mut admit = spec.submit;
        if cfg.max_concurrent != 0 && k >= cfg.max_concurrent {
            let slot_free = loop {
                running.retain(|&slot| match sim.completion(slot) {
                    Some(c) => {
                        unused.push(Reverse(Key(c, slot)));
                        false
                    }
                    None => true,
                });
                let next = sim.next_start();
                if let Some(&Reverse(Key(c, _))) = unused.peek() {
                    if c <= next {
                        unused.pop();
                        break c;
                    }
                }
                // Serve exactly the requests starting at `next`: a wider
                // horizon could pass the admission still being decided.
                sim.run_until(next.next_up());
            };
            admit = admit.max(slot_free);
        }
        running.push(sim.admit(&FarmJob {
            job: i as u32 + 1,
            profile: &spec.profile,
            base: admit,
            weight: spec.weight,
            qos_slack: spec.qos_slack,
        }));
        admit_at[i] = admit;
    }
    sim.run_to_end();
    let farm = sim.finish();
    // One report per admission slot, then back in spec order: a job's tag
    // is its spec index plus one.
    let mut jobs: Vec<JobReport> = farm
        .jobs
        .iter()
        .map(|qs| {
            let i = qs.job as usize - 1;
            let p = &specs[i].profile;
            JobReport {
                name: specs[i].name.clone(),
                job: qs.job,
                submit: specs[i].submit,
                admit: admit_at[i],
                completion: qs.completion,
                solo_makespan: p.makespan(),
                requests: qs.requests,
                total_wait: qs.total_wait,
                max_wait: qs.max_wait,
                faults_injected: p.faults_injected,
                io_retries: p.io_retries,
                msg_retries: p.msg_retries,
            }
        })
        .collect();
    jobs.sort_by_key(|j| j.job);
    Ok(WorkloadReport {
        jobs,
        farm,
        policy: cfg.policy,
    })
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

    /// `jobs` jobs of `ranks` ranks, each rank `n` back-to-back 5 ms
    /// requests, submitted 10 ms apart: a burst that keeps the cap full.
    fn burst(jobs: usize, ranks: usize, n: usize) -> Vec<JobSpec> {
        let one = profile(n, 0.005);
        let p = JobProfile {
            rank_finish: vec![one.rank_finish[0]; ranks],
            streams: vec![one.streams[0].clone(); ranks],
            ..JobProfile::default()
        };
        (0..jobs)
            .map(|i| JobSpec::new(format!("b{i}"), p.clone()).with_submit(0.01 * i as f64))
            .collect()
    }

    const CAP4: WorkloadConfig = WorkloadConfig {
        policy: Policy::Fifo,
        max_concurrent: 4,
        seek_penalty: 0.0,
        trace: false,
        disks: 0,
    };

    /// Admission is one pass over the farm, and drained streams leave its
    /// scans: the streams visited per served request do not grow with the
    /// job count. Re-simulating after every admission grows them linearly.
    #[test]
    fn farm_visits_per_served_request_do_not_grow_with_the_job_count() {
        let per_request = |jobs: usize| {
            let specs = burst(jobs, 2, 4);
            let before = crate::farm::visits();
            let rep = run_workload(&specs, &CAP4).unwrap();
            assert!(rep.jobs.iter().any(|j| j.admit > j.submit));
            (crate::farm::visits() - before) as f64 / rep.farm.served.len() as f64
        };
        let small = per_request(1_000);
        let large = per_request(10_000);
        assert!(
            large <= 1.2 * small && small <= 1.2 * large,
            "stream visits per served request: {small} at 1000 jobs, {large} at 10000"
        );
    }

    /// 400 four-rank jobs at cap 4 in well under a tenth of a second
    /// (about 0.014 s on a shared 2-core box); the bound is the whole
    /// tenth, since host clocks on shared machines jitter, and the visit
    /// count above pins the growth. Host time is a claim about optimized
    /// builds only.
    #[test]
    fn four_hundred_jobs_at_cap_four_take_well_under_a_tenth_of_a_second() {
        if cfg!(debug_assertions) {
            return;
        }
        let specs = burst(400, 4, 20);
        let t0 = std::time::Instant::now();
        let rep = run_workload(&specs, &CAP4).unwrap();
        let host = t0.elapsed().as_secs_f64();
        assert_eq!(rep.farm.served.len(), 400 * 4 * 20);
        assert!(host < 0.1, "400 jobs took {host} s of host time");
    }
}
