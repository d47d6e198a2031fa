//! Workload-level fault domains: the guarded runtime.
//!
//! The plain workload runtime ([`crate::run_workload`]) assumes every job
//! runs to completion. Real multi-tenant I/O servers cannot: jobs hang,
//! deadlines blow, disks die under everyone at once. This module wraps the
//! resumable farm ([`crate::FarmSim`]) in a control-plane *executive* that
//! sweeps the workload on the simulated clock and keeps each failure inside
//! its own fault domain:
//!
//! - a **watchdog** kills a job that makes no virtual-time progress within
//!   its quantum (the configured quantum plus the job's own largest solo
//!   inter-request gap, so compute-heavy jobs are not misdiagnosed);
//! - **deadlines** bound each job's turnaround; a miss kills the attempt;
//! - killed jobs are **resubmitted** with exponential backoff charged to
//!   the workload clock, resuming from their last checkpoint watermark,
//!   until a bounded re-run budget is exhausted and the job is
//!   **quarantined** — a typed outcome, not a panic;
//! - under overload, EDF **preempts** the latest-deadline running job at a
//!   checkpoint boundary and resumes it when a slot frees;
//! - a **permanent disk death** migrates the dead disk's queued streams to
//!   the survivors ([`FarmSim::kill_disk`]) instead of killing every
//!   tenant that touched it.
//!
//! Every decision is a pure function of the specs, the configuration and
//! the seed: the injected hangs are drawn from [`dmsim::FaultStream`]s
//! derived per (job, attempt), disk deaths fire at configured virtual
//! times, and the sweep visits jobs in a fixed order — so the whole
//! chaotic workload is bitwise-reproducible.

use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeSet, BinaryHeap};
use std::ops::{Index, IndexMut};

use dmsim::{FaultStream, StatsSnapshot};
use ooc_trace::{Args, Category, RankTrace, TraceConfig, Tracer};

use crate::farm::{FarmConfig, FarmJob, FarmReport, FarmSim};
use crate::obs::{FlightRecorder, ObsEvent, ObsKind, Sampler, WorkloadObserver};
use crate::policy::Policy;
use crate::workload::{validate_specs, AdmissionError, JobSpec};

/// Terminal fate of one guarded job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// Completed on its first attempt, untouched by the executive.
    Done {
        /// Completion on the workload clock.
        completion: f64,
    },
    /// Completed after at least one kill, resubmission or preemption.
    Recovered {
        /// Completion on the workload clock.
        completion: f64,
        /// Total admissions (first run + resubmissions + resumes).
        attempts: u32,
        /// EDF preemptions among those.
        preemptions: u32,
    },
    /// Killed by the watchdog or a deadline with no re-run budget
    /// configured ([`DomainConfig::max_retries`] = 0).
    Killed {
        /// Kill time on the workload clock.
        at: f64,
    },
    /// Exhausted its re-run budget; the executive stopped resubmitting.
    Quarantined {
        /// Quarantine time on the workload clock.
        at: f64,
        /// Total admissions before quarantine.
        attempts: u32,
    },
}

impl JobOutcome {
    /// Completion time, when the job completed.
    pub fn completion(&self) -> Option<f64> {
        match self {
            JobOutcome::Done { completion } | JobOutcome::Recovered { completion, .. } => {
                Some(*completion)
            }
            _ => None,
        }
    }

    /// True for [`JobOutcome::Done`] and [`JobOutcome::Recovered`].
    pub fn completed(&self) -> bool {
        self.completion().is_some()
    }

    /// Stable lowercase label for summaries and traces.
    pub fn label(&self) -> &'static str {
        match self {
            JobOutcome::Done { .. } => "done",
            JobOutcome::Recovered { .. } => "recovered",
            JobOutcome::Killed { .. } => "killed",
            JobOutcome::Quarantined { .. } => "quarantined",
        }
    }
}

/// Configuration of the guarded workload runtime.
#[derive(Debug, Clone)]
pub struct DomainConfig {
    /// Disk service-order policy.
    pub policy: Policy,
    /// Elevator seek penalty, seconds per non-contiguous head movement.
    pub seek_penalty: f64,
    /// Record the per-disk queue trace plus the fault-domain control rank.
    pub trace: bool,
    /// Farm capacity in logical disks. Zero sizes the farm to the widest
    /// job; nonzero refuses wider jobs at admission.
    pub disks: usize,
    /// Maximum jobs running concurrently (0 = unlimited). Overload beyond
    /// the cap triggers EDF preemption.
    pub max_concurrent: usize,
    /// Seed of the workload-level fault streams (hang injection).
    pub seed: u64,
    /// Probability that one attempt of a job hangs mid-run. Drawn per
    /// (job, attempt), so a resubmitted job usually recovers.
    pub hang_chance: f64,
    /// Watchdog quantum in virtual seconds: a running job that serves no
    /// request for this long — beyond its own largest solo request gap —
    /// is declared hung and killed. 0 disables the watchdog.
    pub watchdog_quantum: f64,
    /// Deadline factor: each job's deadline is `submit + factor *
    /// solo_makespan`. 0 disables deadlines (and with them EDF urgency).
    pub deadline_factor: f64,
    /// Re-run budget: how many times a killed job may be resubmitted
    /// before quarantine. 0 means a killed job dies terminally.
    pub max_retries: u32,
    /// Backoff base: resubmission `k` waits `backoff_base * 2^(k-1)`
    /// virtual seconds after the kill, clamped to
    /// [`DomainConfig::backoff_cap`].
    pub backoff_base: f64,
    /// Upper bound on a single backoff wait. Without it, large retry
    /// budgets overflow `2^(k-1)` to infinity and the virtual clock never
    /// reaches the resubmission — the executive would sweep forever.
    pub backoff_cap: f64,
    /// Checkpoint granularity in requests per rank: a killed or preempted
    /// job resumes from `floor(cursor / every) * every`. 0 restarts every
    /// attempt from scratch.
    pub checkpoint_every: usize,
    /// Control-plane sweep period in virtual seconds (watchdog, deadline
    /// and completion checks happen on this grid).
    pub epoch: f64,
    /// Scheduled permanent disk deaths: `(virtual time, disk index)`.
    /// Killing the last surviving disk is refused at validation.
    pub disk_deaths: Vec<(f64, usize)>,
    /// Crash flight recorder depth: the last N bus events retained per
    /// job, dumped into [`GuardedJobReport::postmortem`] when a job ends
    /// [`JobOutcome::Killed`] or [`JobOutcome::Quarantined`]. 0 disables
    /// the recorder.
    pub flight_recorder_depth: usize,
}

impl Default for DomainConfig {
    fn default() -> Self {
        DomainConfig {
            policy: Policy::default(),
            seek_penalty: 0.0,
            trace: false,
            disks: 0,
            max_concurrent: 0,
            seed: 0,
            hang_chance: 0.0,
            watchdog_quantum: 0.0,
            deadline_factor: 0.0,
            max_retries: 2,
            backoff_base: 1.0,
            backoff_cap: 1e6,
            checkpoint_every: 4,
            epoch: 1.0,
            disk_deaths: Vec::new(),
            flight_recorder_depth: 32,
        }
    }
}

/// Per-job result of a guarded workload.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardedJobReport {
    /// Display name from the spec.
    pub name: String,
    /// Job tag (1-based position in the spec slice).
    pub job: u32,
    /// Submission time.
    pub submit: f64,
    /// Deadline the executive enforced (infinity when disabled).
    pub deadline: f64,
    /// Solo makespan of the profile.
    pub solo_makespan: f64,
    /// Terminal typed outcome.
    pub outcome: JobOutcome,
    /// Total admissions (first run + resubmissions + resumes).
    pub attempts: u32,
    /// EDF preemptions suffered.
    pub preemptions: u32,
    /// Watchdog / deadline kills suffered.
    pub kills: u32,
    /// Hangs the chaos harness injected into this job's attempts.
    pub hangs_injected: u32,
    /// Faults injected into the job's capture run (all kinds).
    pub faults_injected: u64,
    /// Disk requests the capture run re-issued under the retry policy.
    pub io_retries: u64,
    /// Message re-transmissions after injected drops in the capture run.
    pub msg_retries: u64,
    /// The crash flight recorder's dump — the last
    /// [`DomainConfig::flight_recorder_depth`] bus events of this job —
    /// when the outcome is [`JobOutcome::Killed`] or
    /// [`JobOutcome::Quarantined`]; empty otherwise.
    pub postmortem: Vec<ObsEvent>,
}

/// Result of a guarded workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardedReport {
    /// Per-job fates, in spec order.
    pub jobs: Vec<GuardedJobReport>,
    /// The farm's served log and per-disk metrics (every attempt's
    /// requests, including ones later rolled back to a checkpoint).
    pub farm: FarmReport,
    /// Policy the farm ran under.
    pub policy: Policy,
    /// Disk deaths that actually fired.
    pub disk_deaths: u32,
    /// The fault-domain control-plane trace (admissions, kills, resumes,
    /// preemptions, quarantines, disk deaths), when tracing was on.
    pub domain_trace: Option<RankTrace>,
}

impl GuardedReport {
    /// Workload makespan: the latest completion among completed jobs.
    pub fn makespan(&self) -> f64 {
        self.jobs
            .iter()
            .filter_map(|j| j.outcome.completion())
            .fold(0.0, f64::max)
    }

    /// Number of jobs that completed ([`JobOutcome::completed`]).
    pub fn completed(&self) -> usize {
        self.jobs.iter().filter(|j| j.outcome.completed()).count()
    }
}

/// Where a job sits in the executive's state machine.
enum St {
    /// Waiting to (re)enter the farm (when is the `waiting` heap's key),
    /// resuming from `resume`.
    Waiting { resume: Option<Vec<usize>> },
    /// Running on the farm as `slot`.
    Running { slot: usize },
    /// Fate sealed.
    Terminal,
}

struct JobState {
    st: St,
    deadline: f64,
    /// Effective watchdog quantum (config quantum + max solo gap).
    quantum: f64,
    attempts: u32,
    preemptions: u32,
    kills: u32,
    hangs_injected: u32,
    /// Progress (served requests) at the last watchdog reset.
    last_progress: u64,
    /// Workload time of the last watchdog reset.
    last_progress_t: f64,
    /// Flight-recorder dump captured when the fate sealed badly.
    postmortem: Vec<ObsEvent>,
    outcome: Option<JobOutcome>,
}

/// The executive's job records in spec order. Every access goes through
/// indexing, so the tests can count the records a run touches — the
/// executive's host-cost measure.
struct Jobs(Vec<JobState>);

impl Index<usize> for Jobs {
    type Output = JobState;

    fn index(&self, j: usize) -> &JobState {
        touched();
        &self.0[j]
    }
}

impl IndexMut<usize> for Jobs {
    fn index_mut(&mut self, j: usize) -> &mut JobState {
        touched();
        &mut self.0[j]
    }
}

#[cfg(test)]
thread_local! {
    static TOUCHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn touched() {
    #[cfg(test)]
    TOUCHES.with(|n| n.set(n.get() + 1));
}

/// A time (or deadline) and a job index, ordered by `f64::total_cmp` and
/// then the index: the key of the executive's waiting and ready queues,
/// and of the plain runtime's unused completions.
#[derive(Clone, Copy)]
pub(crate) struct Key(pub(crate) f64, pub(crate) usize);

impl Ord for Key {
    fn cmp(&self, other: &Key) -> Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Key) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Key {}

/// Largest idle stretch of the solo profile: the initial lead-in plus
/// inter-request gaps per rank, and the widest request itself. A healthy
/// job never goes longer than this without completing a request solo, so
/// the watchdog adds it to the configured quantum.
fn max_solo_gap(spec: &JobSpec) -> f64 {
    let mut g = 0.0f64;
    for s in &spec.profile.streams {
        let mut prev = 0.0f64;
        for r in s {
            g = g.max(r.t0 - prev).max(r.t1 - r.t0);
            prev = r.t1;
        }
    }
    g
}

/// Salt domain for workload-level fault draws, disjoint from the
/// machine-level (rank, domain) space and the job-tag space.
fn attempt_salt(job: u32, attempt: u32) -> u64 {
    ((job as u64) << 20) | attempt as u64
}

/// Run `specs` under the guarded runtime: fault domains, watchdog,
/// deadlines, checkpoint-preempt-resume and degraded-disk re-planning.
///
/// Returns one terminal [`JobOutcome`] per spec — never panics on a hung,
/// late or unlucky job.
pub fn run_workload_guarded(
    specs: &[JobSpec],
    cfg: &DomainConfig,
) -> Result<GuardedReport, AdmissionError> {
    run_guarded(specs, cfg, None)
}

/// [`run_workload_guarded`] with the observatory attached: the executive
/// publishes every control-plane decision as an [`ObsEvent`] to
/// `observer` (in non-decreasing time order) and samples the time series
/// on the `sample_every` virtual-time cadence.
///
/// Observation is transparent: the farm advance is chunked at sample
/// points (bitwise outcome-invariant), the flight recorder runs either
/// way, and the returned report is identical to the unobserved one —
/// asserted by the observer-transparency tests.
pub fn run_workload_guarded_observed(
    specs: &[JobSpec],
    cfg: &DomainConfig,
    sample_every: f64,
    observer: &mut dyn WorkloadObserver,
) -> Result<GuardedReport, AdmissionError> {
    run_guarded(specs, cfg, Some((sample_every, observer)))
}

fn run_guarded(
    specs: &[JobSpec],
    cfg: &DomainConfig,
    obs: Option<(f64, &mut dyn WorkloadObserver)>,
) -> Result<GuardedReport, AdmissionError> {
    validate_specs(specs, cfg.disks)?;
    let ndisks = match cfg.disks {
        0 => specs
            .iter()
            .map(|s| s.profile.nprocs())
            .max()
            .unwrap_or(1)
            .max(1),
        n => n,
    };
    check_config(cfg, ndisks)?;

    let farm_cfg = FarmConfig {
        policy: cfg.policy,
        seek_penalty: cfg.seek_penalty,
        trace: cfg.trace,
        // Always collect dispatch events: the flight recorder runs with or
        // without an observer, so postmortems (and thus the report) are
        // identical either way.
        observe: true,
    };
    let mut sim = FarmSim::new(ndisks, farm_cfg);
    let tracer = cfg
        .trace
        .then(|| Tracer::new(ndisks, TraceConfig::detailed()));
    let (mut sampler, mut observer) = match obs {
        Some((every, o)) => (Some(Sampler::new(every, ndisks)), Some(o)),
        None => (None, None),
    };
    let mut recorder = FlightRecorder::new(cfg.flight_recorder_depth);
    // Events of the current epoch, stable-sorted by stamp before flushing
    // so the published stream is globally non-decreasing in time. Every
    // control-plane decision is stated once, here; the flush fans it out
    // to the flight recorder, the control-plane trace and the observer.
    let mut epoch_buf: Vec<ObsEvent> = Vec::new();
    let tag = |j: usize| j as u32 + 1;

    let mut jobs = Jobs(
        specs
            .iter()
            .map(|s| JobState {
                st: St::Waiting { resume: None },
                deadline: if cfg.deadline_factor > 0.0 {
                    s.submit + cfg.deadline_factor * s.profile.makespan()
                } else {
                    f64::INFINITY
                },
                quantum: if cfg.watchdog_quantum > 0.0 {
                    cfg.watchdog_quantum + max_solo_gap(s)
                } else {
                    f64::INFINITY
                },
                attempts: 0,
                preemptions: 0,
                kills: 0,
                hangs_injected: 0,
                last_progress: 0,
                last_progress_t: 0.0,
                postmortem: Vec::new(),
                outcome: None,
            })
            .collect(),
    );
    // Views of the job records kept current at every state change, so an
    // epoch costs the work happening in it, not a pass over every job:
    // - `waiting`: jobs not yet due, a min-heap on (re-entry time, index);
    // - `ready`: due jobs EDF deferred, ordered by (deadline, index) — a
    //   job's deadline never changes while it waits;
    // - `running`: jobs on the farm, by index (the sweep's visit order);
    // - `terminal`: how many fates are sealed.
    let mut waiting: BinaryHeap<Reverse<Key>> = (0..specs.len())
        .map(|j| Reverse(Key(specs[j].submit, j)))
        .collect();
    let mut ready: BTreeSet<Key> = BTreeSet::new();
    let mut running: BTreeSet<usize> = BTreeSet::new();
    let mut sweep: Vec<usize> = Vec::new();
    let mut terminal = 0usize;
    // First admissions in time order. A sample attributes the capture
    // counters of every job first admitted by its own time; the cursor over
    // this log states that rule whenever the sampler runs. A total bumped
    // at admission would agree only while the sampler never lags behind an
    // admission — which holds just because a fast-forward stops an epoch
    // short of the next re-entry.
    let mut first_admits: Vec<(f64, usize)> = Vec::new();
    let mut attributed = 0usize;
    let mut cum = StatsSnapshot::default();
    let mut deaths: Vec<(f64, usize)> = cfg.disk_deaths.clone();
    deaths.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut next_death = 0usize;
    let mut deaths_fired = 0u32;

    let mut t = 0.0f64;
    loop {
        // 1. Scheduled disk deaths at or before the sweep time. The farm
        // migrates the dead disk's queued streams; running jobs keep going
        // on the survivors (degraded mode) instead of dying.
        while next_death < deaths.len() && deaths[next_death].0 <= t {
            let (at, disk) = deaths[next_death];
            next_death += 1;
            if sim.alive_disks() > 1 {
                let migrated = sim.kill_disk(disk);
                deaths_fired += 1;
                let died = ObsKind::DiskDeath { disk, migrated, at };
                emit(&mut epoch_buf, t, 0, died);
            }
        }

        // 2. Admissions: every waiting job whose (re)submit time has come,
        // most urgent deadline first. Under overload, EDF preempts the
        // latest-deadline running job at its checkpoint boundary — but
        // only for a strictly more urgent candidate. A preempted job waits
        // for the next sweep.
        while let Some(&Reverse(Key(at, j))) = waiting.peek() {
            if at > t {
                break;
            }
            waiting.pop();
            ready.insert(Key(jobs[j].deadline, j));
        }
        while let Some(Key(deadline, j)) = ready.pop_first() {
            if cfg.max_concurrent != 0 && running.len() >= cfg.max_concurrent {
                // Overload: find the least urgent running job.
                let victim = *running
                    .iter()
                    .max_by(|&&a, &&b| {
                        jobs[a]
                            .deadline
                            .total_cmp(&jobs[b].deadline)
                            .then(a.cmp(&b))
                    })
                    .expect("running >= cap >= 1");
                if jobs[victim].deadline <= deadline {
                    // Nothing less urgent to evict — nor for any later
                    // candidate, whose deadline is no earlier: they all
                    // stay ready for the next sweep.
                    ready.insert(Key(deadline, j));
                    break;
                }
                let St::Running { slot } = jobs[victim].st else {
                    unreachable!()
                };
                let cursors = sim.remove_job(slot);
                let resume = checkpoint_watermark(&cursors, cfg.checkpoint_every);
                jobs[victim].preemptions += 1;
                emit(&mut epoch_buf, t, tag(victim), ObsKind::Preempted);
                emit(&mut epoch_buf, t, tag(victim), checkpoint_event(&resume));
                jobs[victim].st = St::Waiting {
                    resume: Some(resume),
                };
                running.remove(&victim);
                waiting.push(Reverse(Key(t, victim)));
            }
            let St::Waiting { resume } = std::mem::replace(
                &mut jobs[j].st,
                St::Terminal, // placeholder, overwritten below
            ) else {
                unreachable!()
            };
            let fj = FarmJob {
                job: j as u32 + 1,
                profile: &specs[j].profile,
                base: t.max(specs[j].submit),
                weight: specs[j].weight,
                qos_slack: specs[j].qos_slack,
            };
            let resumed = matches!(&resume, Some(w) if w.iter().any(|&c| c > 0));
            let slot = match &resume {
                Some(w) if w.iter().any(|&c| c > 0) => sim.admit_resumed(&fj, w),
                _ => sim.admit(&fj),
            };
            jobs[j].attempts += 1;
            jobs[j].last_progress = sim.progress(slot);
            jobs[j].last_progress_t = t;
            jobs[j].st = St::Running { slot };
            running.insert(j);
            let attempt = jobs[j].attempts;
            if attempt == 1 {
                first_admits.push((t, j));
            }
            let admitted = ObsKind::Admitted { attempt, resumed };
            emit(&mut epoch_buf, t, tag(j), admitted);
            // Chaos: this attempt may hang, per the seeded per-(job,
            // attempt) stream. The hang pins one rank's remaining requests
            // past a fraction of its solo life.
            let stream =
                FaultStream::derive(cfg.seed, attempt_salt(j as u32 + 1, jobs[j].attempts));
            if stream.chance(cfg.hang_chance) {
                let nprocs = specs[j].profile.nprocs();
                let rank = (stream.next_u64() % nprocs as u64) as usize;
                let frac = 0.25 + 0.5 * stream.next_f64();
                let at_solo = frac * specs[j].profile.rank_finish[rank];
                sim.hang(slot, rank, at_solo);
                jobs[j].hangs_injected += 1;
                emit(&mut epoch_buf, t, tag(j), ObsKind::HangInjected { rank });
            }
        }

        // 3. Advance the farm one epoch, chunking at sample grid points
        // when the observatory is attached (chunked replay is bitwise
        // outcome-invariant, so sampling never perturbs the run).
        t += cfg.epoch;
        if let Some(sampler) = sampler.as_mut() {
            while let Some(s) = sampler.due(t) {
                sim.run_until(s);
                // Chaos counters attributable so far: the capture counters
                // of every job first admitted by the sample time.
                while let Some(&(admitted, j)) = first_admits.get(attributed) {
                    if admitted > s {
                        break;
                    }
                    let p = &specs[j].profile;
                    cum = cum.merge(&StatsSnapshot::fault_counts(
                        p.faults_injected,
                        p.io_retries,
                        p.msg_retries,
                    ));
                    attributed += 1;
                }
                let sample = sampler.take(&sim, cum);
                if let Some(o) = observer.as_mut() {
                    o.sample(&sample);
                }
            }
        }
        sim.run_until(t);
        epoch_buf.extend(sim.drain_obs());

        // 4. Sweep running jobs: completion, then deadline, then watchdog.
        let mut sealed_badly: Vec<usize> = Vec::new();
        sweep.clear();
        sweep.extend(&running);
        for &j in &sweep {
            let St::Running { slot } = jobs[j].st else {
                unreachable!("the running view holds running jobs only")
            };
            if sim.job_done(slot) {
                let completion = sim.completion(slot).expect("job is done");
                let recovered = jobs[j].kills > 0 || jobs[j].preemptions > 0;
                jobs[j].outcome = Some(if recovered {
                    JobOutcome::Recovered {
                        completion,
                        attempts: jobs[j].attempts,
                        preemptions: jobs[j].preemptions,
                    }
                } else {
                    JobOutcome::Done { completion }
                });
                jobs[j].st = St::Terminal;
                running.remove(&j);
                terminal += 1;
                sim.remove_job(slot);
                // Stamped at the detecting sweep; the actual completion
                // (≤ t, or past it for a rigid compute tail) rides in the
                // payload.
                let done = ObsKind::Completed {
                    completion,
                    recovered,
                };
                emit(&mut epoch_buf, t, tag(j), done);
                continue;
            }
            let late = t > jobs[j].deadline;
            let progress = sim.progress(slot);
            if progress > jobs[j].last_progress {
                jobs[j].last_progress = progress;
                jobs[j].last_progress_t = t;
            }
            let hung = t - jobs[j].last_progress_t >= jobs[j].quantum;
            if !late && !hung {
                continue;
            }
            // Kill the attempt: roll back to the checkpoint watermark and
            // either resubmit with backoff or seal the fate.
            let cursors = sim.remove_job(slot);
            running.remove(&j);
            jobs[j].kills += 1;
            let kill = if late {
                ObsKind::DeadlineKill
            } else {
                ObsKind::WatchdogKill
            };
            emit(&mut epoch_buf, t, tag(j), kill);
            if cfg.max_retries == 0 {
                jobs[j].outcome = Some(JobOutcome::Killed { at: t });
                jobs[j].st = St::Terminal;
                terminal += 1;
                emit(&mut epoch_buf, t, tag(j), ObsKind::Killed);
                sealed_badly.push(j);
            } else if jobs[j].kills > cfg.max_retries {
                let attempts = jobs[j].attempts;
                jobs[j].outcome = Some(JobOutcome::Quarantined { at: t, attempts });
                jobs[j].st = St::Terminal;
                terminal += 1;
                emit(&mut epoch_buf, t, tag(j), ObsKind::Quarantined { attempts });
                sealed_badly.push(j);
            } else {
                let resume = checkpoint_watermark(&cursors, cfg.checkpoint_every);
                // Exponent clamped below f64 overflow (2^1023 is finite) so
                // the product never goes 0 * inf = NaN; the cap then bounds
                // the wait itself for large retry budgets.
                let exp = f64::powi(2.0, (jobs[j].kills as i32 - 1).min(1023));
                let backoff = (cfg.backoff_base * exp).min(cfg.backoff_cap);
                let at = t + backoff;
                if late {
                    // A renegotiated deadline for the retry; keeping the
                    // blown one would guarantee a kill loop into
                    // quarantine regardless of behavior.
                    jobs[j].deadline = if cfg.deadline_factor > 0.0 {
                        at + cfg.deadline_factor * specs[j].profile.makespan()
                    } else {
                        f64::INFINITY
                    };
                }
                emit(&mut epoch_buf, t, tag(j), checkpoint_event(&resume));
                let retry = ObsKind::RetryScheduled {
                    attempt: jobs[j].attempts + 1,
                    backoff,
                    resume_at: at,
                };
                emit(&mut epoch_buf, t, tag(j), retry);
                jobs[j].st = St::Waiting {
                    resume: Some(resume),
                };
                waiting.push(Reverse(Key(at, j)));
            }
        }

        // 5. Flush the epoch's events: stable-sort by stamp (control
        // events at the epoch edges, dispatches in between), feed the
        // flight recorder and the control-plane trace, publish to the
        // observer — then capture postmortems for jobs whose fate just
        // sealed badly, so the dump includes their terminal events.
        epoch_buf.sort_by(|a, b| a.t.total_cmp(&b.t));
        for e in &epoch_buf {
            recorder.push(e);
            if let Some(tr) = &tracer {
                trace_decision(tr, specs, e);
            }
            if let Some(o) = observer.as_mut() {
                o.event(e);
            }
        }
        epoch_buf.clear();
        for j in sealed_badly {
            jobs[j].postmortem = recorder.dump(j as u32 + 1);
        }

        if terminal == specs.len() {
            break;
        }
        // Fast-forward across idle stretches (everyone waiting on backoff
        // or future submits) so backoff cost is virtual time, not host
        // sweeps. The next sweep still lands on the epoch grid. A deferred
        // ready job is due already, so it rules the skip out too.
        if running.is_empty() && ready.is_empty() {
            if let Some(&Reverse(Key(next_event, _))) = waiting.peek() {
                if next_event.is_finite() && next_event > t + cfg.epoch {
                    let skip = ((next_event - t) / cfg.epoch).floor();
                    t += (skip - 1.0).max(0.0) * cfg.epoch;
                }
            }
        }
    }

    let farm = sim.finish();
    let out = GuardedReport {
        jobs: specs
            .iter()
            .zip(&jobs.0)
            .enumerate()
            .map(|(i, (s, st))| GuardedJobReport {
                name: s.name.clone(),
                job: i as u32 + 1,
                submit: s.submit,
                deadline: st.deadline,
                solo_makespan: s.profile.makespan(),
                outcome: st.outcome.clone().expect("terminal"),
                attempts: st.attempts,
                preemptions: st.preemptions,
                kills: st.kills,
                hangs_injected: st.hangs_injected,
                faults_injected: s.profile.faults_injected,
                io_retries: s.profile.io_retries,
                msg_retries: s.profile.msg_retries,
                postmortem: st.postmortem.clone(),
            })
            .collect(),
        farm,
        policy: cfg.policy,
        disk_deaths: deaths_fired,
        domain_trace: tracer.map(|tr| tr.finish()),
    };
    Ok(out)
}

/// The four conditions a [`DomainConfig`] must meet for the executive's
/// sweep to terminate. Written so a NaN fails each of them.
fn check_config(cfg: &DomainConfig, ndisks: usize) -> Result<(), AdmissionError> {
    let require = |ok: bool, what: std::fmt::Arguments| {
        ok.then_some(()).ok_or_else(|| AdmissionError::BadConfig {
            what: what.to_string(),
        })
    };
    for &(t, d) in &cfg.disk_deaths {
        require(
            t.is_finite() && d < ndisks,
            format_args!("disk death ({t}, {d}) outside the farm of {ndisks} disks"),
        )?;
    }
    require(
        cfg.epoch > 0.0,
        format_args!("the control-plane epoch must be positive"),
    )?;
    require(
        cfg.backoff_cap >= 0.0,
        format_args!("the backoff cap must be non-negative (and not NaN)"),
    )?;
    require(
        cfg.hang_chance <= 0.0 || cfg.watchdog_quantum > 0.0,
        format_args!("hang injection without a watchdog would stall the executive forever"),
    )
}

/// Queue one control-plane decision for the epoch's flush.
fn emit(buf: &mut Vec<ObsEvent>, t: f64, job: u32, kind: ObsKind) {
    buf.push(ObsEvent { t, job, kind });
}

/// The rollback a kill or preemption resumes from.
fn checkpoint_event(resume: &[usize]) -> ObsKind {
    ObsKind::Checkpoint {
        watermark: resume.iter().map(|&c| c as u64).sum(),
    }
}

/// The control-plane trace's view of one bus event: admissions, hangs,
/// kills, preemptions, quarantines, completions and disk deaths become
/// [`Category::FaultDomain`] instants (a disk death and a completion at
/// their actual times, the rest at the sweep stamp); dispatches,
/// checkpoints, retry schedules and terminal kills do not appear.
fn trace_decision(tracer: &Tracer, specs: &[JobSpec], e: &ObsEvent) {
    let name = || &specs[e.job as usize - 1].name;
    let (label, at) = match &e.kind {
        ObsKind::DiskDeath { disk, at, .. } => (format!("disk_death:d{disk}"), *at),
        ObsKind::Preempted => (format!("preempt:{}", name()), e.t),
        ObsKind::Admitted { attempt, .. } => (format!("admit:{}:a{attempt}", name()), e.t),
        ObsKind::HangInjected { rank } => (format!("hang_injected:{}:r{rank}", name()), e.t),
        ObsKind::Completed { completion, .. } => (format!("complete:{}", name()), *completion),
        ObsKind::DeadlineKill => (format!("kill:{}:deadline", name()), e.t),
        ObsKind::WatchdogKill => (format!("kill:{}:watchdog", name()), e.t),
        ObsKind::Quarantined { .. } => (format!("quarantine:{}", name()), e.t),
        ObsKind::Dispatched { .. }
        | ObsKind::Checkpoint { .. }
        | ObsKind::RetryScheduled { .. }
        | ObsKind::Killed => return,
    };
    tracer.instant(Category::FaultDomain, &label, at, Args::default());
}

/// Roll per-rank cursors back to the checkpoint grid.
fn checkpoint_watermark(cursors: &[usize], every: usize) -> Vec<usize> {
    cursors
        .iter()
        .map(|&c| c.checked_div(every).map_or(0, |q| q * every))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{IoReq, JobProfile};
    use crate::obs::EventLog;
    use crate::workload::WorkloadConfig;

    fn profile(n: usize, service: f64, gap: f64) -> JobProfile {
        let mut reqs = Vec::new();
        let mut t = 0.0;
        for i in 0..n {
            reqs.push(IoReq {
                t0: t,
                t1: t + service,
                requests: 1,
                bytes: 64,
                offset: Some(64 * i as u64),
                write: false,
            });
            t += service + gap;
        }
        JobProfile {
            rank_finish: vec![t],
            streams: vec![reqs],
            ..JobProfile::default()
        }
    }

    fn quiet_cfg() -> DomainConfig {
        DomainConfig {
            policy: Policy::Fifo,
            watchdog_quantum: 5.0,
            epoch: 0.5,
            ..DomainConfig::default()
        }
    }

    #[test]
    fn fault_free_guarded_run_matches_the_plain_workload() {
        let specs: Vec<JobSpec> = (0..3)
            .map(|i| JobSpec::new(format!("j{i}"), profile(6 + i, 1.0, 0.25)))
            .collect();
        let guarded = run_workload_guarded(&specs, &quiet_cfg()).unwrap();
        let plain = crate::workload::run_workload(
            &specs,
            &WorkloadConfig {
                policy: Policy::Fifo,
                ..WorkloadConfig::default()
            },
        )
        .unwrap();
        for (g, p) in guarded.jobs.iter().zip(&plain.jobs) {
            assert_eq!(g.attempts, 1);
            let JobOutcome::Done { completion } = g.outcome else {
                panic!("fault-free job not Done: {:?}", g.outcome);
            };
            assert_eq!(
                completion.to_bits(),
                p.completion.to_bits(),
                "job {}: guarded completion diverged from the plain runtime",
                g.name
            );
        }
    }

    #[test]
    fn watchdog_kills_a_hung_job_and_the_retry_recovers_it() {
        let specs = vec![
            JobSpec::new("victim", profile(8, 1.0, 0.0)),
            JobSpec::new("bystander", profile(8, 1.0, 0.0)),
        ];
        let cfg = DomainConfig {
            hang_chance: 1.0, // every attempt draws a hang...
            seed: 7,
            watchdog_quantum: 4.0,
            max_retries: 5,
            backoff_base: 0.5,
            ..quiet_cfg()
        };
        // ...so with hang_chance 1.0 every retry hangs again and both jobs
        // must end quarantined — but deterministically, with no panic.
        let rep = run_workload_guarded(&specs, &cfg).unwrap();
        for j in &rep.jobs {
            assert!(
                matches!(j.outcome, JobOutcome::Quarantined { .. }),
                "always-hanging job must quarantine, got {:?}",
                j.outcome
            );
            assert_eq!(j.kills, cfg.max_retries + 1);
            assert!(j.hangs_injected >= 1);
        }
        // Now only the first attempt hangs: seed chosen so retries draw no
        // hang; the job must recover.
        let cfg2 = DomainConfig {
            hang_chance: 0.45,
            seed: 11,
            ..cfg
        };
        let rep2 = run_workload_guarded(&specs, &cfg2).unwrap();
        assert!(
            rep2.jobs.iter().any(|j| j.kills > 0),
            "some attempt must have hung under 45% hang chance (seed-dependent)"
        );
        for j in &rep2.jobs {
            assert!(
                j.outcome.completed(),
                "job {} should finish eventually: {:?}",
                j.name,
                j.outcome
            );
            if j.kills > 0 {
                assert!(matches!(j.outcome, JobOutcome::Recovered { .. }));
            }
        }
    }

    #[test]
    fn huge_retry_budgets_terminate_under_the_backoff_cap() {
        // Regression: `backoff_base * 2^(kills-1)` overflows f64 to
        // infinity near kill 1075, so with an 1100-retry budget the
        // resubmission time becomes `t + inf` and the virtual clock can
        // never reach it — the executive used to sweep forever. The cap
        // bounds every wait, so the run must now terminate with finite
        // times after exhausting the whole budget.
        let specs = vec![JobSpec::new("stubborn", profile(8, 1.0, 0.0))];
        let cfg = DomainConfig {
            hang_chance: 1.0, // every attempt hangs; all 1100 retries burn
            seed: 5,
            watchdog_quantum: 2.0,
            max_retries: 1100,
            backoff_base: 0.5,
            backoff_cap: 4.0,
            ..quiet_cfg()
        };
        let rep = run_workload_guarded(&specs, &cfg).unwrap();
        let j = &rep.jobs[0];
        assert!(
            matches!(j.outcome, JobOutcome::Quarantined { at, .. } if at.is_finite()),
            "budget exhaustion must quarantine at a finite time: {:?}",
            j.outcome
        );
        assert_eq!(j.kills, cfg.max_retries + 1);
        // Every wait was capped: 1101 attempts, each costing at most the
        // solo makespan (the hang can land anywhere in it) plus a watchdog
        // round, the capped backoff, and epoch slop — linear in the retry
        // budget, where the uncapped backoff alone would be 2^1100.
        let bound = (cfg.max_retries + 1) as f64
            * (specs[0].profile.makespan()
                + 2.0 * cfg.watchdog_quantum
                + cfg.backoff_cap
                + 2.0 * cfg.epoch);
        assert!(
            rep.makespan() <= bound,
            "makespan {} exceeds the capped-backoff bound {}",
            rep.makespan(),
            bound
        );
    }

    #[test]
    fn zero_retry_budget_kills_terminally() {
        let specs = vec![JobSpec::new("doomed", profile(8, 1.0, 0.0))];
        let cfg = DomainConfig {
            hang_chance: 1.0,
            seed: 3,
            watchdog_quantum: 2.0,
            max_retries: 0,
            ..quiet_cfg()
        };
        let rep = run_workload_guarded(&specs, &cfg).unwrap();
        assert!(matches!(rep.jobs[0].outcome, JobOutcome::Killed { .. }));
    }

    #[test]
    fn edf_preempts_the_latest_deadline_job_under_overload() {
        // Two long lax jobs occupy both slots; a short urgent job arrives
        // later and must preempt one of them.
        let lax = profile(30, 1.0, 0.0);
        let urgent = profile(4, 1.0, 0.0);
        let specs = vec![
            JobSpec::new("lax-a", lax.clone()),
            JobSpec::new("lax-b", lax),
            JobSpec::new("urgent", urgent).with_submit(3.0),
        ];
        let cfg = DomainConfig {
            max_concurrent: 2,
            deadline_factor: 10.0, // lax deadline = 300, urgent = 43
            checkpoint_every: 4,
            ..quiet_cfg()
        };
        let rep = run_workload_guarded(&specs, &cfg).unwrap();
        assert_eq!(
            rep.jobs.iter().map(|j| j.preemptions).sum::<u32>(),
            1,
            "exactly one lax job is preempted"
        );
        for j in &rep.jobs {
            assert!(j.outcome.completed(), "{}: {:?}", j.name, j.outcome);
        }
        let urgent = &rep.jobs[2];
        assert!(
            urgent.outcome.completion().unwrap() <= urgent.deadline,
            "EDF exists to make the urgent deadline"
        );
        let preempted = rep.jobs.iter().find(|j| j.preemptions > 0).unwrap();
        assert!(
            matches!(preempted.outcome, JobOutcome::Recovered { .. }),
            "a preempted-and-resumed job reports Recovered"
        );
    }

    #[test]
    fn disk_death_degrades_the_farm_without_killing_tenants() {
        let wide = JobProfile {
            rank_finish: vec![12.0, 12.0],
            streams: vec![
                profile(10, 1.0, 0.2).streams[0].clone(),
                profile(10, 1.0, 0.2).streams[0].clone(),
            ],
            ..JobProfile::default()
        };
        let specs = vec![
            JobSpec::new("wide-a", wide.clone()),
            JobSpec::new("wide-b", wide),
        ];
        let cfg = DomainConfig {
            disk_deaths: vec![(3.0, 1)],
            trace: true,
            ..quiet_cfg()
        };
        let rep = run_workload_guarded(&specs, &cfg).unwrap();
        assert_eq!(rep.disk_deaths, 1);
        // Traced at its configured time, between the admissions and the
        // completions.
        let instants: Vec<(&str, f64)> = rep
            .domain_trace
            .as_ref()
            .unwrap()
            .events
            .iter()
            .map(|e| (e.name.as_str(), e.t0))
            .collect();
        assert_eq!(
            instants[..3],
            [
                ("admit:wide-a:a1", 0.0),
                ("admit:wide-b:a1", 0.0),
                ("disk_death:d1", 3.0)
            ]
        );
        for j in &rep.jobs {
            assert!(
                j.outcome.completed(),
                "tenant {} must survive the disk death: {:?}",
                j.name,
                j.outcome
            );
            assert_eq!(j.kills, 0, "re-planning, not killing");
        }
        // The survivors' completions stretch past solo (one disk serves
        // both ranks' tails).
        assert!(rep.makespan() > 12.0);
    }

    #[test]
    fn guarded_chaos_is_bitwise_deterministic() {
        let specs: Vec<JobSpec> = (0..6)
            .map(|i| {
                JobSpec::new(format!("j{i}"), profile(10 + i, 0.5, 0.1)).with_submit(i as f64 * 0.8)
            })
            .collect();
        let cfg = DomainConfig {
            hang_chance: 0.4,
            seed: 42,
            watchdog_quantum: 3.0,
            deadline_factor: 12.0,
            max_concurrent: 3,
            disk_deaths: vec![(4.0, 0)],
            trace: true,
            ..quiet_cfg()
        };
        let a = run_workload_guarded(&specs, &cfg).unwrap();
        let b = run_workload_guarded(&specs, &cfg).unwrap();
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.farm.served, b.farm.served);
        assert_eq!(a.domain_trace, b.domain_trace);
        // The control-plane trace, pinned instant for instant (name, time
        // bits): the flush-time fan-out must not reorder, rename or
        // re-time a single one.
        const GOLDEN: [(&str, u64); 41] = [
            ("admit:j0:a1", 0x0000000000000000),
            ("hang_injected:j0:r0", 0x0000000000000000),
            ("admit:j1:a1", 0x3ff0000000000000),
            ("admit:j2:a1", 0x4000000000000000),
            ("hang_injected:j2:r0", 0x4000000000000000),
            ("kill:j0:watchdog", 0x4021000000000000),
            ("admit:j3:a1", 0x4021000000000000),
            ("preempt:j3", 0x4023000000000000),
            ("admit:j0:a2", 0x4023000000000000),
            ("kill:j2:watchdog", 0x4025000000000000),
            ("admit:j3:a2", 0x4025000000000000),
            ("hang_injected:j3:r0", 0x4025000000000000),
            ("preempt:j3", 0x4027000000000000),
            ("admit:j2:a2", 0x4027000000000000),
            ("hang_injected:j2:r0", 0x4027000000000000),
            ("complete:j1", 0x4028cccccccccccd),
            ("admit:j3:a3", 0x4028000000000000),
            ("hang_injected:j3:r0", 0x4028000000000000),
            ("complete:j0", 0x4030666666666666),
            ("admit:j4:a1", 0x4030000000000000),
            ("hang_injected:j4:r0", 0x4030000000000000),
            ("kill:j2:watchdog", 0x4030800000000000),
            ("admit:j5:a1", 0x4030800000000000),
            ("preempt:j5", 0x4032800000000000),
            ("admit:j2:a3", 0x4032800000000000),
            ("kill:j3:watchdog", 0x4035800000000000),
            ("admit:j5:a2", 0x4035800000000000),
            ("preempt:j5", 0x4036800000000000),
            ("admit:j3:a4", 0x4036800000000000),
            ("complete:j2", 0x403be66666666666),
            ("admit:j5:a3", 0x403b800000000000),
            ("kill:j4:watchdog", 0x403d800000000000),
            ("admit:j4:a2", 0x403e800000000000),
            ("hang_injected:j4:r0", 0x403e800000000000),
            ("complete:j3", 0x4040b33333333333),
            ("kill:j4:watchdog", 0x4041000000000000),
            ("admit:j4:a3", 0x4042000000000000),
            ("hang_injected:j4:r0", 0x4042000000000000),
            ("complete:j5", 0x4043a66666666666),
            ("kill:j4:watchdog", 0x4043c00000000000),
            ("quarantine:j4", 0x4043c00000000000),
        ];
        let tr = a.domain_trace.unwrap();
        let got: Vec<(&str, u64)> = tr
            .events
            .iter()
            .map(|e| (e.name.as_str(), e.t0.to_bits()))
            .collect();
        assert_eq!(got, GOLDEN);
        assert!(tr.events.iter().all(|e| e.cat == Category::FaultDomain));
        // And it exports cleanly.
        let full = ooc_trace::Trace {
            ranks: a
                .farm
                .trace
                .map(|t| t.ranks)
                .unwrap_or_default()
                .into_iter()
                .chain([tr])
                .collect(),
        };
        let json = ooc_trace::perfetto::to_chrome_json(&full);
        ooc_trace::json::parse(&json).expect("valid JSON");
    }

    #[test]
    fn guarded_rejects_malformed_batches() {
        let ok = JobSpec::new("ok", profile(3, 1.0, 0.0));
        let empty = JobSpec::new("empty", JobProfile::default());
        assert!(matches!(
            run_workload_guarded(&[empty], &quiet_cfg()),
            Err(AdmissionError::NoRanks { .. })
        ));
        let dup = vec![ok.clone(), ok.clone()];
        assert!(matches!(
            run_workload_guarded(&dup, &quiet_cfg()),
            Err(AdmissionError::DuplicateJobId { .. })
        ));
        let wide = JobSpec::new(
            "wide",
            JobProfile {
                rank_finish: vec![1.0; 4],
                streams: vec![Vec::new(); 4],
                ..JobProfile::default()
            },
        );
        let cfg = DomainConfig {
            disks: 2,
            ..quiet_cfg()
        };
        assert!(matches!(
            run_workload_guarded(&[wide], &cfg),
            Err(AdmissionError::CapacityExceeded { .. })
        ));
        let nan = JobSpec::new("nan", profile(3, 1.0, 0.0)).with_submit(f64::NAN);
        assert!(matches!(
            run_workload_guarded(&[nan], &quiet_cfg()),
            Err(AdmissionError::BadSubmitTime { .. })
        ));
    }

    /// A mixed batch for the pinned scenarios: staggered submits, varied
    /// lengths, gaps and weights, one- and two-rank jobs, and nonzero
    /// capture counters for the sampler to attribute.
    fn mixed_specs(n: usize, spread: f64) -> Vec<JobSpec> {
        (0..n)
            .map(|i| {
                let one = profile(
                    4 + (i * 5) % 11,
                    0.5 + 0.25 * (i % 3) as f64,
                    0.1 * (i % 4) as f64,
                );
                let mut p = if i % 3 == 0 {
                    JobProfile {
                        rank_finish: vec![one.rank_finish[0]; 2],
                        streams: vec![one.streams[0].clone(); 2],
                        ..JobProfile::default()
                    }
                } else {
                    one
                };
                p.faults_injected = i as u64 % 3;
                p.io_retries = i as u64 % 2;
                p.msg_retries = 1;
                JobSpec::new(format!("m{i}"), p)
                    .with_submit(spread * ((i * 7) % n) as f64)
                    .with_weight(1.0 + (i % 2) as f64)
            })
            .collect()
    }

    /// The executive's observable behaviour on scenarios covering every
    /// control path, pinned by FNV-1a digests of the rendered event stream
    /// and of the whole report (`Debug`, so every float bit counts). The
    /// goldens were captured from the epoch sweep that rescanned every job
    /// record; the incremental views must reproduce them byte for byte.
    #[test]
    fn executive_reproduces_the_pinned_scenarios_byte_for_byte() {
        let edf = DomainConfig {
            max_concurrent: 2,
            deadline_factor: 3.0,
            checkpoint_every: 2,
            ..quiet_cfg()
        };
        let kills = DomainConfig {
            hang_chance: 0.35,
            seed: 9,
            watchdog_quantum: 2.0,
            deadline_factor: 1.6,
            max_retries: 2,
            backoff_base: 0.5,
            ..quiet_cfg()
        };
        let death = DomainConfig {
            policy: Policy::FairShare,
            disk_deaths: vec![(2.0, 1)],
            hang_chance: 0.2,
            seed: 4,
            watchdog_quantum: 3.0,
            max_concurrent: 3,
            deadline_factor: 5.0,
            trace: true,
            ..quiet_cfg()
        };
        // One slot: a deferred job is still ready when the running one
        // ends, with a far-future submit pending — no fast-forward.
        let cap1 = DomainConfig {
            max_concurrent: 1,
            deadline_factor: 3.0,
            ..quiet_cfg()
        };
        let mut cap1_specs = mixed_specs(6, 3.0);
        cap1_specs[5].submit = 200.0;
        let idle = DomainConfig {
            hang_chance: 0.5,
            seed: 21,
            watchdog_quantum: 2.0,
            backoff_base: 12.0,
            max_retries: 3,
            epoch: 1.0,
            ..quiet_cfg()
        };
        let cases = [
            ("edf", mixed_specs(12, 0.75), edf, 1.0),
            ("kills", mixed_specs(10, 1.5), kills, 1.0),
            ("death", mixed_specs(9, 0.5), death, 0.75),
            ("cap1", cap1_specs, cap1, 1.0),
            ("idle", mixed_specs(6, 40.0), idle, 0.3),
        ];
        const GOLDEN: [(&str, u64, u64); 5] = [
            ("edf", 0x5f24f6566bf88b59, 0x68935bc50d48f38c),
            ("kills", 0x710c0be179680541, 0x9c8a96e9181da2b9),
            ("death", 0x85348e8ad7edfd50, 0xfdaadb4ce897af9b),
            ("cap1", 0x36e828c68b19794e, 0xd397b053c51970b8),
            ("idle", 0xf99deff698e67328, 0x53e78404013b146b),
        ];
        let mut got = Vec::new();
        for (name, specs, cfg, every) in &cases {
            let mut log = EventLog::default();
            let rep = run_workload_guarded_observed(specs, cfg, *every, &mut log).unwrap();
            assert_eq!(rep, run_workload_guarded(specs, cfg).unwrap(), "{name}");
            let has = |f: fn(&ObsKind) -> bool| log.events.iter().any(|e| f(&e.kind));
            match *name {
                "edf" => {
                    // Preempt / resume, and an admission EDF deferred.
                    assert!(has(|k| matches!(k, ObsKind::Preempted)));
                    assert!(has(|k| matches!(
                        k,
                        ObsKind::Admitted { resumed: true, .. }
                    )));
                    assert!(log.events.iter().any(|e| {
                        matches!(e.kind, ObsKind::Admitted { attempt: 1, .. })
                            && e.t >= specs[e.job as usize - 1].submit + 2.0 * cfg.epoch
                    }));
                }
                "kills" => {
                    // Both kill kinds, renegotiated deadlines, quarantine.
                    assert!(has(|k| matches!(k, ObsKind::WatchdogKill)));
                    assert!(has(|k| matches!(k, ObsKind::DeadlineKill)));
                    assert!(has(|k| matches!(k, ObsKind::Quarantined { .. })));
                    assert!(rep.jobs.iter().any(|j| {
                        j.deadline != j.submit + cfg.deadline_factor * j.solo_makespan
                    }));
                }
                "cap1" => {
                    // A job admitted only once the one before it ended.
                    assert!(log.events.windows(2).any(|w| {
                        matches!(w[0].kind, ObsKind::Completed { .. })
                            && matches!(w[1].kind, ObsKind::Admitted { attempt: 1, .. })
                            && w[1].t > w[0].t
                    }));
                }
                "death" => {
                    assert_eq!(rep.disk_deaths, 1);
                    assert!(has(|k| matches!(
                        k,
                        ObsKind::DiskDeath { migrated: 1.., .. }
                    )));
                }
                _ => {
                    // An idle stretch the sweep fast-forwarded across, its
                    // sample grid caught up afterwards.
                    let gap = log.events.windows(2).find(|w| w[1].t - w[0].t > 10.0);
                    let (from, to) = gap.map(|w| (w[0].t, w[1].t)).expect("an idle stretch");
                    assert!(log.samples.iter().any(|s| s.t > from && s.t < to));
                    assert!(has(|k| matches!(k, ObsKind::RetryScheduled { .. })));
                }
            }
            let stream = ooc_trace::digest::fnv1a(log.render().as_bytes());
            let report = ooc_trace::digest::fnv1a(format!("{rep:?}").as_bytes());
            got.push((*name, stream, report));
        }
        assert_eq!(got, GOLDEN);
    }

    /// The executive's host cost is the work happening, not jobs × epochs:
    /// job records touched per run stay within a constant of (sweeps +
    /// admissions + events), and touches per event do not grow with the
    /// job count. A sweep that rescans every record grows as N × sweeps.
    #[test]
    fn job_records_touched_scale_with_events_not_jobs_times_epochs() {
        let touches_per_event = |n: usize| {
            // One short job per ten epochs: most of the timeline is idle,
            // and each job finishes inside the epoch it was admitted in.
            let specs: Vec<JobSpec> = (0..n)
                .map(|i| {
                    JobSpec::new(format!("c{i}"), profile(2, 0.02, 0.02)).with_submit(i as f64)
                })
                .collect();
            let cfg = DomainConfig {
                epoch: 0.1,
                ..quiet_cfg()
            };
            let mut log = EventLog::default();
            TOUCHES.set(0);
            let rep = run_workload_guarded_observed(&specs, &cfg, 1.0, &mut log).unwrap();
            let touches = TOUCHES.get() as f64;
            assert_eq!(rep.completed(), n);
            // Fast-forwards only remove sweeps from the epoch grid.
            let sweeps = rep.makespan() / cfg.epoch + 1.0;
            let admissions: f64 = rep.jobs.iter().map(|j| j.attempts as f64).sum();
            let events = log.events.len() as f64;
            assert!(
                touches <= 32.0 * (sweeps + admissions + events),
                "{n} jobs: {touches} touches for {sweeps} sweeps, {events} events"
            );
            touches / events
        };
        let small = touches_per_event(1_000);
        let large = touches_per_event(10_000);
        assert!(
            large <= 1.2 * small && small <= 1.2 * large,
            "touches per event: {small} at 1000 jobs, {large} at 10000"
        );
    }
}
