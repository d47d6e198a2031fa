//! Live workloads: profile many compiled programs *concurrently* on one
//! shared worker pool, ready to schedule against the disk farm.
//!
//! [`crate::capture::profile`] runs one program at a time, each on its own
//! simulated machine with one OS thread per rank. That is fine for a
//! handful of jobs but cannot express the target workload — a hundred-plus
//! programs in flight at once would need thousands of OS threads. Here the
//! pooled engine hosts every rank of every job as a cooperative task on a
//! fixed set of workers: [`profile_all_on`] submits all captures up front
//! via [`noderun::start`] and only then waits, so the whole fleet
//! interleaves on the pool. Each job's simulated machine is still private —
//! clocks never entangle across jobs — so every profile is bit-identical
//! to the one [`crate::capture::profile`] would have captured solo.

use std::sync::Arc;

use dmsim::WorkerPool;
use noderun::{start, RunConfig, RunError, StartedRun};
use ooc_core::CompiledProgram;

use crate::capture::{capture_cfg, JobProfile};
use crate::workload::{AdmissionError, JobSpec};

/// Failure of a live capture: either the batch was refused at admission,
/// or a capture run failed on the pool.
#[derive(Debug)]
pub enum WorkloadError {
    /// The batch was malformed; nothing ran.
    Admission(AdmissionError),
    /// A capture run failed (I/O, recovery exhaustion, hung run…).
    Run(RunError),
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::Admission(e) => write!(f, "admission refused: {e}"),
            WorkloadError::Run(e) => write!(f, "capture run failed: {e}"),
        }
    }
}

impl std::error::Error for WorkloadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WorkloadError::Admission(e) => Some(e),
            WorkloadError::Run(e) => Some(e),
        }
    }
}

impl From<AdmissionError> for WorkloadError {
    fn from(e: AdmissionError) -> Self {
        WorkloadError::Admission(e)
    }
}

impl From<RunError> for WorkloadError {
    fn from(e: RunError) -> Self {
        WorkloadError::Run(e)
    }
}

/// One program of a live workload: what to run, how, and its scheduling
/// identity on the farm.
#[derive(Clone)]
pub struct ProgramJob {
    /// Display name (job type, bench label…).
    pub name: String,
    /// The compiled program (shared — many jobs typically run the same
    /// binary with different tags or weights).
    pub compiled: Arc<CompiledProgram>,
    /// Execution configuration for the capture run. The job tag
    /// ([`RunConfig::job`]) gives the job its own fault/RNG streams; leave
    /// it 0 for bit-identity with an untagged solo run.
    pub cfg: RunConfig,
    /// Submission time on the workload clock.
    pub submit: f64,
    /// Fair-share weight.
    pub weight: f64,
}

impl ProgramJob {
    /// A job with default configuration, submitted at time zero with unit
    /// weight.
    pub fn new(name: impl Into<String>, compiled: Arc<CompiledProgram>) -> ProgramJob {
        ProgramJob {
            name: name.into(),
            compiled,
            cfg: RunConfig::default(),
            submit: 0.0,
            weight: 1.0,
        }
    }

    /// Same job with a different execution configuration.
    pub fn with_cfg(mut self, cfg: RunConfig) -> ProgramJob {
        self.cfg = cfg;
        self
    }

    /// Same job with a workload job tag (its own fault/RNG streams, see
    /// [`RunConfig::job`]).
    pub fn with_job_tag(mut self, job: u32) -> ProgramJob {
        self.cfg.job = job;
        self
    }

    /// Same job with a different submission time.
    pub fn with_submit(mut self, submit: f64) -> ProgramJob {
        self.submit = submit;
        self
    }

    /// Same job with a different fair-share weight.
    pub fn with_weight(mut self, weight: f64) -> ProgramJob {
        self.weight = weight;
        self
    }
}

/// Capture every job's solo profile, with all captures in flight at once on
/// `pool`.
///
/// All jobs are submitted before any is waited on, so the pool interleaves
/// their ranks freely; profiles come back in job order and are bit-identical
/// to sequential [`crate::capture::profile`] calls with the same configs.
pub fn profile_all_on(jobs: &[ProgramJob], pool: &WorkerPool) -> Result<Vec<JobProfile>, RunError> {
    let started: Vec<StartedRun> = jobs
        .iter()
        .map(|job| {
            start(
                Arc::clone(&job.compiled),
                Arc::new(capture_cfg(&job.cfg)),
                pool,
            )
        })
        .collect::<Result<_, _>>()?;
    started
        .into_iter()
        .map(|s| Ok(JobProfile::from_run(s.wait()?)))
        .collect()
}

/// Capture the fleet concurrently on `pool` and assemble the [`JobSpec`]s
/// the admission machinery consumes — the live front end of
/// [`run_workload`](crate::run_workload) and
/// [`run_workload_guarded`](crate::run_workload_guarded): hand the result
/// to either.
pub fn capture_specs(
    jobs: &[ProgramJob],
    pool: &WorkerPool,
) -> Result<Vec<JobSpec>, WorkloadError> {
    // Refuse duplicate job tags up front: two jobs sharing a nonzero tag
    // would draw from the same fault/RNG streams and their identities
    // would collide in the report.
    let mut tags: Vec<u32> = jobs.iter().map(|j| j.cfg.job).filter(|&t| t != 0).collect();
    tags.sort_unstable();
    if let Some(w) = tags.windows(2).find(|w| w[0] == w[1]) {
        return Err(AdmissionError::DuplicateJobId {
            job: format!("tag {}", w[0]),
        }
        .into());
    }
    let profiles = profile_all_on(jobs, pool)?;
    Ok(jobs
        .iter()
        .zip(profiles)
        .map(|(j, p)| {
            JobSpec::new(j.name.clone(), p)
                .with_submit(j.submit)
                .with_weight(j.weight)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::profile;
    use crate::policy::Policy;
    use crate::workload::{run_workload, WorkloadConfig};
    use ooc_core::{compile_source, CompilerOptions};

    fn small_program() -> Arc<CompiledProgram> {
        Arc::new(compile_source(hpf::GAXPY_SOURCE, &CompilerOptions::default()).unwrap())
    }

    #[test]
    fn concurrent_capture_matches_solo_capture_bit_for_bit() {
        let compiled = small_program();
        let pool = WorkerPool::new(2);
        let jobs: Vec<ProgramJob> = (0..4)
            .map(|i| {
                ProgramJob::new(format!("j{i}"), Arc::clone(&compiled)).with_job_tag(i as u32 + 1)
            })
            .collect();
        let live = profile_all_on(&jobs, &pool).unwrap();
        for (job, got) in jobs.iter().zip(&live) {
            let solo = profile(&job.compiled, &job.cfg).unwrap();
            assert_eq!(got, &solo, "job {} profile diverged", job.name);
        }
    }

    #[test]
    fn live_capture_matches_precaptured_run_workload() {
        let compiled = small_program();
        let pool = WorkerPool::new(2);
        let jobs: Vec<ProgramJob> = (0..3)
            .map(|i| {
                ProgramJob::new(format!("j{i}"), Arc::clone(&compiled)).with_weight(1.0 + i as f64)
            })
            .collect();
        let wcfg = WorkloadConfig {
            policy: Policy::FairShare,
            max_concurrent: 2,
            ..WorkloadConfig::default()
        };
        let live = run_workload(&capture_specs(&jobs, &pool).unwrap(), &wcfg).unwrap();
        let specs: Vec<JobSpec> = jobs
            .iter()
            .map(|j| {
                JobSpec::new(j.name.clone(), profile(&j.compiled, &j.cfg).unwrap())
                    .with_weight(j.weight)
            })
            .collect();
        let precaptured = run_workload(&specs, &wcfg).unwrap();
        assert_eq!(live, precaptured);
    }
}
