//! The workload observatory: a typed, ordered event bus, a deterministic
//! virtual-time sampler, a bounded crash flight recorder, and SLO
//! scorecards.
//!
//! The farm and the guarded executive publish every control-plane decision
//! — admissions, dispatches, preemptions and resumes, watchdog and
//! deadline kills, retries with backoff, checkpoint watermarks, disk
//! deaths and migrations, completions — as [`ObsEvent`]s stamped with
//! simulated time, consumed through the [`WorkloadObserver`] trait passed
//! into [`crate::run_workload_guarded_observed`].
//!
//! Ordering contract: the stream is globally non-decreasing in `t`.
//! Control events are stamped at the sweep that *detected* them (actual
//! times, when different, ride in the payload — e.g.
//! [`ObsKind::Completed::completion`]); farm dispatches are stamped at
//! service start; each flush batch is stable-sorted by time before
//! delivery. Because every event derives purely from the captured solo
//! profiles and the configuration, the stream is byte-identical across
//! runs, seeds of equal value, and execution engines — the parity tests
//! compare rendered [`EventLog`]s bitwise.
//!
//! The [`Sampler`] walks a fixed virtual-time cadence and records per-disk
//! queue depth and utilization, the in-flight job count, chaos-counter
//! deltas (via [`StatsSnapshot::delta`]), and per-job progress against the
//! solo profile. Sampling never perturbs the simulation: the chunked
//! `run_until` it inserts is bitwise outcome-invariant (proven by the
//! farm's chunked-replay test), and the observer-transparency tests assert
//! the full report is unchanged by observation.

use dmsim::StatsSnapshot;
use ooc_trace::metrics::percentile_sorted;
use std::collections::{BTreeMap, VecDeque};

use crate::digits::{push_f9, push_f9_field, push_uint, push_uint_field};
use crate::domain::GuardedReport;
use crate::farm::FarmSim;

/// One observatory event: a simulated-time stamp, the owning job tag
/// (0 for workload-level events such as disk deaths), and the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsEvent {
    /// Simulated time the event was published (sweep/detection time for
    /// control events, service start for dispatches).
    pub t: f64,
    /// Owning job tag (1-based spec position; 0 = workload-level).
    pub job: u32,
    /// Typed payload.
    pub kind: ObsKind,
}

/// Event payloads published on the observatory bus.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsKind {
    /// A job (re)entered the farm.
    Admitted {
        /// Admission count for this job so far (1 = first run).
        attempt: u32,
        /// True when resuming from a checkpoint watermark.
        resumed: bool,
    },
    /// A disk began serving one of the job's requests.
    Dispatched {
        /// Serving disk.
        disk: usize,
        /// Stream rank within the job.
        rank: usize,
        /// Request position in its stream.
        seq: usize,
        /// Queueing wait the request suffered, seconds.
        wait: f64,
        /// Service time charged, seconds.
        service: f64,
        /// Payload bytes.
        bytes: u64,
        /// True for writes.
        write: bool,
    },
    /// EDF evicted the job at a checkpoint boundary.
    Preempted,
    /// The watchdog declared the job hung and killed the attempt.
    WatchdogKill,
    /// The job blew its deadline and the attempt was killed.
    DeadlineKill,
    /// A killed job was rescheduled with exponential backoff.
    RetryScheduled {
        /// Upcoming admission count.
        attempt: u32,
        /// Backoff charged, virtual seconds.
        backoff: f64,
        /// Workload time the retry re-enters admission.
        resume_at: f64,
    },
    /// The job's progress was rolled back to a checkpoint watermark.
    Checkpoint {
        /// Total requests (summed over ranks) the resume will skip.
        watermark: u64,
    },
    /// Re-run budget exhausted; the executive stopped resubmitting.
    Quarantined {
        /// Total admissions before quarantine.
        attempts: u32,
    },
    /// Killed terminally (no re-run budget configured).
    Killed,
    /// The job completed.
    Completed {
        /// Completion on the workload clock (may precede the stamping
        /// sweep; completion is detected on the epoch grid).
        completion: f64,
        /// True when the job was killed or preempted along the way.
        recovered: bool,
    },
    /// A disk died permanently; its queued streams migrated.
    DiskDeath {
        /// The dead disk.
        disk: usize,
        /// Streams migrated to the survivors.
        migrated: usize,
        /// Configured death time (the stamp is the detecting sweep).
        at: f64,
    },
    /// The chaos harness pinned one rank's remaining requests.
    HangInjected {
        /// The hung stream's rank.
        rank: usize,
    },
}

impl ObsKind {
    /// Stable lowercase tag for rendering and filtering.
    pub fn tag(&self) -> &'static str {
        match self {
            ObsKind::Admitted { .. } => "admitted",
            ObsKind::Dispatched { .. } => "dispatched",
            ObsKind::Preempted => "preempted",
            ObsKind::WatchdogKill => "watchdog_kill",
            ObsKind::DeadlineKill => "deadline_kill",
            ObsKind::RetryScheduled { .. } => "retry_scheduled",
            ObsKind::Checkpoint { .. } => "checkpoint",
            ObsKind::Quarantined { .. } => "quarantined",
            ObsKind::Killed => "killed",
            ObsKind::Completed { .. } => "completed",
            ObsKind::DiskDeath { .. } => "disk_death",
            ObsKind::HangInjected { .. } => "hang_injected",
        }
    }
}

/// Per-disk state captured by one [`Sample`].
#[derive(Debug, Clone, PartialEq)]
pub struct DiskSample {
    /// Streams with an armed (arrived, unserved) head request at the
    /// sample time.
    pub depth: usize,
    /// Busy-time delta over the cadence interval divided by the cadence.
    /// May transiently exceed 1.0: service is not preemptible, so a
    /// request entering service just before a sample boundary charges its
    /// full service time to that interval.
    pub utilization: f64,
}

/// One job's progress at a sample point.
#[derive(Debug, Clone, PartialEq)]
pub struct JobProgress {
    /// Job tag.
    pub job: u32,
    /// Requests served so far (checkpoint watermark included on resume).
    pub done: u64,
    /// Total requests in the solo profile.
    pub total: u64,
}

/// One deterministic time-series sample on the virtual-time cadence.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Sample time (a multiple of the cadence).
    pub t: f64,
    /// Jobs admitted and not yet drained at `t`.
    pub in_flight: usize,
    /// Per-disk queue depth and utilization, disk order.
    pub disks: Vec<DiskSample>,
    /// Chaos-counter *deltas* since the previous sample
    /// (`faults_injected`, `io_retries`, `msg_retries` are the meaningful
    /// fields; computed with [`StatsSnapshot::delta`]).
    pub counters: StatsSnapshot,
    /// Per-job progress for jobs on the farm at `t`, admission order.
    pub progress: Vec<JobProgress>,
}

/// Consumer of the observatory stream. Implementations must be cheap and
/// side-effect-free with respect to the simulation: the runtime calls
/// [`WorkloadObserver::event`] for every bus event in non-decreasing time
/// order and [`WorkloadObserver::sample`] at every cadence point.
pub trait WorkloadObserver {
    /// One bus event.
    fn event(&mut self, e: &ObsEvent);
    /// One time-series sample (default: ignored).
    fn sample(&mut self, _s: &Sample) {}
}

/// Observer that retains the full stream and renders it deterministically
/// — the byte-comparison vehicle for parity tests and the CI smoke job.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct EventLog {
    /// Every event, in delivery order (non-decreasing `t`).
    pub events: Vec<ObsEvent>,
    /// Every sample, in cadence order.
    pub samples: Vec<Sample>,
}

impl WorkloadObserver for EventLog {
    fn event(&mut self, e: &ObsEvent) {
        self.events.push(e.clone());
    }

    fn sample(&mut self, s: &Sample) {
        self.samples.push(s.clone());
    }
}

/// Render one event as a single deterministic line (no trailing newline).
pub fn render_event(e: &ObsEvent) -> String {
    let mut line = String::new();
    render_event_into(&mut line, e);
    line
}

/// Append [`render_event`]'s line for `e` to `out`.
pub(crate) fn render_event_into(out: &mut String, e: &ObsEvent) {
    push_f9(out, e.t);
    out.push_str(" j");
    push_uint(out, u64::from(e.job));
    out.push(' ');
    out.push_str(e.kind.tag());
    match &e.kind {
        ObsKind::Admitted { attempt, resumed } => {
            push_uint_field(out, " attempt=", u64::from(*attempt));
            push_bool_field(out, " resumed=", *resumed);
        }
        ObsKind::Dispatched {
            disk,
            rank,
            seq,
            wait,
            service,
            bytes,
            write,
        } => {
            push_uint_field(out, " disk=", *disk as u64);
            push_uint_field(out, " rank=", *rank as u64);
            push_uint_field(out, " seq=", *seq as u64);
            push_f9_field(out, " wait=", *wait);
            push_f9_field(out, " service=", *service);
            push_uint_field(out, " bytes=", *bytes);
            push_bool_field(out, " write=", *write);
        }
        ObsKind::RetryScheduled {
            attempt,
            backoff,
            resume_at,
        } => {
            push_uint_field(out, " attempt=", u64::from(*attempt));
            push_f9_field(out, " backoff=", *backoff);
            push_f9_field(out, " resume_at=", *resume_at);
        }
        ObsKind::Checkpoint { watermark } => push_uint_field(out, " watermark=", *watermark),
        ObsKind::Quarantined { attempts } => {
            push_uint_field(out, " attempts=", u64::from(*attempts));
        }
        ObsKind::Completed {
            completion,
            recovered,
        } => {
            push_f9_field(out, " completion=", *completion);
            push_bool_field(out, " recovered=", *recovered);
        }
        ObsKind::DiskDeath { disk, migrated, at } => {
            push_uint_field(out, " disk=", *disk as u64);
            push_uint_field(out, " migrated=", *migrated as u64);
            push_f9_field(out, " at=", *at);
        }
        ObsKind::HangInjected { rank } => push_uint_field(out, " rank=", *rank as u64),
        ObsKind::Preempted | ObsKind::WatchdogKill | ObsKind::DeadlineKill | ObsKind::Killed => {}
    }
}

/// Append one sample's deterministic line (no trailing newline) to `out`.
pub(crate) fn render_sample_into(out: &mut String, s: &Sample) {
    push_f9(out, s.t);
    push_uint_field(out, " sample in_flight=", s.in_flight as u64);
    out.push_str(" disks=[");
    for (i, d) in s.disks.iter().enumerate() {
        out.push_str(if i > 0 { " d" } else { "d" });
        push_uint(out, i as u64);
        push_uint_field(out, ":", d.depth as u64);
        push_f9_field(out, ":", d.utilization);
    }
    push_uint_field(out, "] faults=+", s.counters.faults_injected);
    push_uint_field(out, " io_retries=+", s.counters.io_retries);
    push_uint_field(out, " msg_retries=+", s.counters.msg_retries);
    out.push_str(" progress=[");
    for (i, p) in s.progress.iter().enumerate() {
        out.push_str(if i > 0 { " j" } else { "j" });
        push_uint(out, u64::from(p.job));
        push_uint_field(out, ":", p.done);
        push_uint_field(out, "/", p.total);
    }
    out.push(']');
}

fn push_bool_field(out: &mut String, key: &str, b: bool) {
    out.push_str(key);
    out.push_str(if b { "true" } else { "false" });
}

/// The order a stream renders in — the one rule behind
/// [`EventLog::render`] and the daemon's `stream_fnv`. `stamps` holds
/// each published line's time and whether it is a sample, in publish
/// order; the result lists their positions by time, events before samples
/// at equal times, otherwise in publish order.
pub(crate) fn render_order(stamps: &[(f64, bool)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..stamps.len()).collect();
    // Stable, so publish order breaks the remaining ties.
    order.sort_by(|&a, &b| {
        let (ta, sa) = stamps[a];
        let (tb, sb) = stamps[b];
        ta.total_cmp(&tb).then(sa.cmp(&sb))
    });
    order
}

impl EventLog {
    /// Render the whole stream as deterministic text, one line per event
    /// or sample, merged in time order (events first on ties). Two
    /// identical runs — across seeds of equal value and across execution
    /// engines — produce byte-identical renders.
    pub fn render(&self) -> String {
        let stamps: Vec<(f64, bool)> = self
            .events
            .iter()
            .map(|e| (e.t, false))
            .chain(self.samples.iter().map(|s| (s.t, true)))
            .collect();
        let mut out = String::new();
        for i in render_order(&stamps) {
            match self.events.get(i) {
                Some(e) => render_event_into(&mut out, e),
                None => render_sample_into(&mut out, &self.samples[i - self.events.len()]),
            }
            out.push('\n');
        }
        out
    }
}

/// Deterministic time-series sampler on a fixed virtual-time cadence.
///
/// Sample times are the exact grid `every * k` (computed by
/// multiplication, not accumulation, so the grid itself is bitwise
/// reproducible). The runtime chunks its farm advances at
/// [`Sampler::due`] points; chunked `run_until` is bitwise
/// outcome-invariant, so sampling never changes what it measures.
#[derive(Debug, Clone)]
pub struct Sampler {
    every: f64,
    k: u64,
    prev_busy: Vec<f64>,
    prev_counters: StatsSnapshot,
}

impl Sampler {
    /// A sampler with cadence `every` (virtual seconds, positive finite)
    /// over a farm of `ndisks` disks.
    pub fn new(every: f64, ndisks: usize) -> Sampler {
        assert!(
            every > 0.0 && every.is_finite(),
            "sample cadence must be positive and finite"
        );
        Sampler {
            every,
            k: 0,
            prev_busy: vec![0.0; ndisks],
            prev_counters: StatsSnapshot::default(),
        }
    }

    /// The next grid point, if it is at or before `horizon`.
    pub fn due(&self, horizon: f64) -> Option<f64> {
        let next = self.every * (self.k + 1) as f64;
        (next <= horizon).then_some(next)
    }

    /// Take the sample at the pending grid point. The caller must have
    /// advanced `sim` to exactly that time; `cumulative` carries the
    /// chaos counters attributable to the workload so far (the sample
    /// stores the delta against the previous sample).
    pub fn take(&mut self, sim: &FarmSim, cumulative: StatsSnapshot) -> Sample {
        self.k += 1;
        let t = self.every * self.k as f64;
        let mut disks = Vec::with_capacity(self.prev_busy.len());
        for d in 0..self.prev_busy.len() {
            let busy = sim.busy(d);
            let utilization = (busy - self.prev_busy[d]) / self.every;
            self.prev_busy[d] = busy;
            disks.push(DiskSample {
                depth: sim.queue_depth_at(d, t),
                utilization,
            });
        }
        let counters = cumulative.delta(&self.prev_counters);
        self.prev_counters = cumulative;
        Sample {
            t,
            in_flight: sim.in_flight_at(t),
            disks,
            counters,
            progress: sim
                .progress_report(t)
                .iter()
                .map(|&(job, done, total)| JobProgress { job, done, total })
                .collect(),
        }
    }
}

/// Bounded per-job ring buffer of recent events: the crash flight
/// recorder. The guarded runtime feeds it every bus event; when a job
/// ends [`crate::JobOutcome::Killed`] or [`crate::JobOutcome::Quarantined`],
/// the ring is dumped into the report as the job's postmortem.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    cap: usize,
    rings: BTreeMap<u32, VecDeque<ObsEvent>>,
}

impl FlightRecorder {
    /// A recorder keeping the last `cap` events per job (0 disables it).
    pub fn new(cap: usize) -> FlightRecorder {
        FlightRecorder {
            cap,
            rings: BTreeMap::new(),
        }
    }

    /// Record one event under its owning job tag.
    pub fn push(&mut self, e: &ObsEvent) {
        if self.cap == 0 {
            return;
        }
        let ring = self.rings.entry(e.job).or_default();
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(e.clone());
    }

    /// The retained events for `job`, oldest first.
    pub fn dump(&self, job: u32) -> Vec<ObsEvent> {
        self.rings
            .get(&job)
            .map(|r| r.iter().cloned().collect())
            .unwrap_or_default()
    }
}

/// Service-level scorecard for one guarded workload run: turnaround
/// quantiles, slowdown vs the solo baseline, and the deadline hit rate.
#[derive(Debug, Clone, PartialEq)]
pub struct SloScorecard {
    /// Policy name ([`crate::Policy::name`]).
    pub policy: &'static str,
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs that completed (Done or Recovered).
    pub completed: usize,
    /// Completions that needed a kill, retry or preemption.
    pub recovered: usize,
    /// Jobs killed terminally.
    pub killed: usize,
    /// Jobs quarantined.
    pub quarantined: usize,
    /// Completed jobs that made their enforced deadline.
    pub deadline_hits: usize,
    /// Median turnaround (submit to completion) among completed jobs;
    /// `None` when nothing completed — a zero-sample quantile is
    /// "unknown", not 0 (which would read as a perfect SLO).
    pub p50_turnaround: Option<f64>,
    /// 95th-percentile turnaround (nearest rank); `None` on no samples.
    pub p95_turnaround: Option<f64>,
    /// 99th-percentile turnaround (nearest rank); `None` on no samples.
    pub p99_turnaround: Option<f64>,
    /// Mean of turnaround / solo makespan over completed jobs.
    pub mean_slowdown: f64,
    /// Latest completion on the workload clock.
    pub makespan: f64,
}

impl SloScorecard {
    /// Score a guarded run.
    pub fn from_guarded(rep: &GuardedReport) -> SloScorecard {
        use crate::domain::JobOutcome;
        let mut turnarounds: Vec<f64> = Vec::new();
        let mut slowdowns: Vec<f64> = Vec::new();
        let mut deadline_hits = 0usize;
        let (mut recovered, mut killed, mut quarantined) = (0usize, 0usize, 0usize);
        for j in &rep.jobs {
            match &j.outcome {
                JobOutcome::Done { completion } | JobOutcome::Recovered { completion, .. } => {
                    if matches!(j.outcome, JobOutcome::Recovered { .. }) {
                        recovered += 1;
                    }
                    let ta = completion - j.submit;
                    turnarounds.push(ta);
                    if j.solo_makespan > 0.0 {
                        slowdowns.push(ta / j.solo_makespan);
                    }
                    if *completion <= j.deadline {
                        deadline_hits += 1;
                    }
                }
                JobOutcome::Killed { .. } => killed += 1,
                JobOutcome::Quarantined { .. } => quarantined += 1,
            }
        }
        turnarounds.sort_by(|a, b| a.total_cmp(b));
        let mean_slowdown = if slowdowns.is_empty() {
            0.0
        } else {
            slowdowns.iter().sum::<f64>() / slowdowns.len() as f64
        };
        SloScorecard {
            policy: rep.policy.name(),
            jobs: rep.jobs.len(),
            completed: turnarounds.len(),
            recovered,
            killed,
            quarantined,
            deadline_hits,
            p50_turnaround: percentile_sorted(&turnarounds, 0.50),
            p95_turnaround: percentile_sorted(&turnarounds, 0.95),
            p99_turnaround: percentile_sorted(&turnarounds, 0.99),
            mean_slowdown,
            makespan: rep.makespan(),
        }
    }

    /// Deadline hit rate over all submitted jobs (1.0 on an empty batch).
    pub fn deadline_hit_rate(&self) -> f64 {
        if self.jobs == 0 {
            1.0
        } else {
            self.deadline_hits as f64 / self.jobs as f64
        }
    }

    /// Render scorecards as Prometheus metric families (one label set per
    /// policy), ready for [`ooc_trace::prom::render`].
    pub fn prom(cards: &[SloScorecard]) -> Vec<ooc_trace::prom::Metric> {
        use ooc_trace::prom::Metric;
        let mut turnaround = Metric::gauge(
            "ooc_slo_turnaround_seconds",
            "Turnaround quantiles among completed jobs",
        );
        let mut jobs = Metric::gauge("ooc_slo_jobs", "Job count by terminal outcome");
        let mut hit_rate = Metric::gauge(
            "ooc_slo_deadline_hit_ratio",
            "Completed-within-deadline fraction of submitted jobs",
        );
        let mut slowdown = Metric::gauge(
            "ooc_slo_mean_slowdown",
            "Mean turnaround over solo makespan among completed jobs",
        );
        let mut makespan = Metric::gauge(
            "ooc_slo_makespan_seconds",
            "Latest completion on the workload clock",
        );
        for c in cards {
            // Zero-sample quantiles are omitted rather than exported as a
            // misleading 0.0; scrapers see an absent series, not a perfect
            // turnaround.
            for (q, v) in [
                ("0.5", c.p50_turnaround),
                ("0.95", c.p95_turnaround),
                ("0.99", c.p99_turnaround),
            ] {
                if let Some(v) = v {
                    turnaround = turnaround.sample(&[("policy", c.policy), ("quantile", q)], v);
                }
            }
            for (outcome, n) in [
                ("completed", c.completed),
                ("recovered", c.recovered),
                ("killed", c.killed),
                ("quarantined", c.quarantined),
            ] {
                jobs = jobs.sample(&[("policy", c.policy), ("outcome", outcome)], n as f64);
            }
            hit_rate = hit_rate.sample(&[("policy", c.policy)], c.deadline_hit_rate());
            slowdown = slowdown.sample(&[("policy", c.policy)], c.mean_slowdown);
            makespan = makespan.sample(&[("policy", c.policy)], c.makespan);
        }
        vec![turnaround, jobs, hit_rate, slowdown, makespan]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{IoReq, JobProfile};
    use crate::domain::{DomainConfig, GuardedJobReport, JobOutcome};
    use crate::farm::{FarmConfig, FarmJob};
    use crate::policy::Policy;
    use crate::workload::JobSpec;
    use std::fmt::Write as _;

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

    fn ev(t: f64, job: u32, kind: ObsKind) -> ObsEvent {
        ObsEvent { t, job, kind }
    }

    /// The renderers as they were written on `core::fmt`: the oracle the
    /// digit writer is held to.
    fn fmt_render_event(e: &ObsEvent) -> String {
        let mut line = format!("{:.9} j{} {}", e.t, e.job, e.kind.tag());
        match &e.kind {
            ObsKind::Admitted { attempt, resumed } => {
                let _ = write!(line, " attempt={attempt} resumed={resumed}");
            }
            ObsKind::Dispatched {
                disk,
                rank,
                seq,
                wait,
                service,
                bytes,
                write,
            } => {
                let _ = write!(
                    line,
                    " disk={disk} rank={rank} seq={seq} wait={wait:.9} \
                     service={service:.9} bytes={bytes} write={write}"
                );
            }
            ObsKind::RetryScheduled {
                attempt,
                backoff,
                resume_at,
            } => {
                let _ = write!(
                    line,
                    " attempt={attempt} backoff={backoff:.9} resume_at={resume_at:.9}"
                );
            }
            ObsKind::Checkpoint { watermark } => {
                let _ = write!(line, " watermark={watermark}");
            }
            ObsKind::Quarantined { attempts } => {
                let _ = write!(line, " attempts={attempts}");
            }
            ObsKind::Completed {
                completion,
                recovered,
            } => {
                let _ = write!(line, " completion={completion:.9} recovered={recovered}");
            }
            ObsKind::DiskDeath { disk, migrated, at } => {
                let _ = write!(line, " disk={disk} migrated={migrated} at={at:.9}");
            }
            ObsKind::HangInjected { rank } => {
                let _ = write!(line, " rank={rank}");
            }
            ObsKind::Preempted
            | ObsKind::WatchdogKill
            | ObsKind::DeadlineKill
            | ObsKind::Killed => {}
        }
        line
    }

    fn fmt_render_sample(s: &Sample) -> String {
        let mut line = format!("{:.9} sample in_flight={}", s.t, s.in_flight);
        line.push_str(" disks=[");
        for (i, d) in s.disks.iter().enumerate() {
            if i > 0 {
                line.push(' ');
            }
            let _ = write!(line, "d{i}:{}:{:.9}", d.depth, d.utilization);
        }
        let _ = write!(
            line,
            "] faults=+{} io_retries=+{} msg_retries=+{} progress=[",
            s.counters.faults_injected, s.counters.io_retries, s.counters.msg_retries
        );
        for (i, p) in s.progress.iter().enumerate() {
            if i > 0 {
                line.push(' ');
            }
            let _ = write!(line, "j{}:{}/{}", p.job, p.done, p.total);
        }
        line.push(']');
        line
    }

    fn f9(x: f64) -> String {
        let mut out = String::new();
        push_f9(&mut out, x);
        out
    }

    #[test]
    fn digit_writer_matches_fmt_on_the_edges() {
        let edges = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits((1 << 52) - 1),
            5e-10,
            -5e-10,
            4.9999999999e-10,
            1.5e-9,
            2.5e-9,
            0.5,
            1.0,
            999_999_999.999_999_9,
            1e9,
            -1e9,
            1e9 + 0.25,
            1e300,
            f64::MAX,
            f64::MIN,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            u64::MAX as f64,
        ];
        let near_1e9 = (1..64u64).flat_map(|k| {
            [
                f64::from_bits(1e9f64.to_bits() - k),
                f64::from_bits(1e9f64.to_bits() + k),
            ]
        });
        for x in edges.into_iter().chain(near_1e9) {
            assert_eq!(f9(x), format!("{x:.9}"), "{x:e} ({:#x})", x.to_bits());
        }
        for n in [0, 1, 9, 10, 99, 100, 12_345, u64::from(u32::MAX), u64::MAX] {
            let mut out = String::new();
            push_uint(&mut out, n);
            assert_eq!(out, n.to_string());
        }
    }

    mod props {
        use super::*;
        use proptest::bool::ANY as BOOL;
        use proptest::collection::vec;
        use proptest::prelude::*;

        fn u32s() -> std::ops::Range<u32> {
            0..u32::MAX
        }

        fn u64s() -> std::ops::Range<u64> {
            0..u64::MAX
        }

        /// Any `f64` bit pattern: NaNs, infinities and subnormals included.
        fn any_bits() -> impl Strategy<Value = f64> {
            u64s().prop_map(f64::from_bits)
        }

        /// Magnitudes a rendered stream holds, 1e-12 to 1e10, either sign.
        fn in_range() -> impl Strategy<Value = f64> {
            (-12i32..11, 0u64..1 << 53, BOOL).prop_map(|(e, m, neg)| {
                let x = (1.0 + m as f64 / (1u64 << 53) as f64 * 9.0) * 10f64.powi(e);
                if neg {
                    -x
                } else {
                    x
                }
            })
        }

        /// `m / 2^k`, either sign.
        fn dyadic() -> impl Strategy<Value = f64> {
            (0u64..1 << 40, 0i32..61, BOOL).prop_map(|(m, k, neg)| {
                let x = m as f64 / 2f64.powi(k);
                if neg {
                    -x
                } else {
                    x
                }
            })
        }

        /// Odd `m / 2^10`: the tenth decimal is exactly a 5 with nothing
        /// after it, so `{:.9}` must round half to even.
        fn ties() -> impl Strategy<Value = f64> {
            (0u64..1 << 38).prop_map(|m| (2 * m + 1) as f64 / 1024.0)
        }

        fn any_f64() -> impl Strategy<Value = f64> {
            prop_oneof![any_bits(), in_range(), dyadic(), ties()]
        }

        fn kind() -> impl Strategy<Value = ObsKind> {
            let n = || 0usize..1 << 20;
            prop_oneof![
                (u32s(), BOOL)
                    .prop_map(|(attempt, resumed)| ObsKind::Admitted { attempt, resumed }),
                ((n(), n(), n()), (any_f64(), any_f64()), (u64s(), BOOL)).prop_map(
                    |((disk, rank, seq), (wait, service), (bytes, write))| {
                        ObsKind::Dispatched {
                            disk,
                            rank,
                            seq,
                            wait,
                            service,
                            bytes,
                            write,
                        }
                    }
                ),
                Just(ObsKind::Preempted),
                Just(ObsKind::WatchdogKill),
                Just(ObsKind::DeadlineKill),
                (u32s(), any_f64(), any_f64()).prop_map(|(attempt, backoff, resume_at)| {
                    ObsKind::RetryScheduled {
                        attempt,
                        backoff,
                        resume_at,
                    }
                }),
                u64s().prop_map(|watermark| ObsKind::Checkpoint { watermark }),
                u32s().prop_map(|attempts| ObsKind::Quarantined { attempts }),
                Just(ObsKind::Killed),
                (any_f64(), BOOL).prop_map(|(completion, recovered)| ObsKind::Completed {
                    completion,
                    recovered,
                }),
                (n(), n(), any_f64()).prop_map(|(disk, migrated, at)| ObsKind::DiskDeath {
                    disk,
                    migrated,
                    at
                }),
                n().prop_map(|rank| ObsKind::HangInjected { rank }),
            ]
        }

        fn sample() -> impl Strategy<Value = Sample> {
            (
                (any_f64(), 0usize..1 << 20),
                vec((0usize..64, any_f64()), 0..6),
                (u64s(), u64s(), u64s()),
                vec((u32s(), u64s(), u64s()), 0..6),
            )
                .prop_map(|((t, in_flight), disks, (f, io, msg), progress)| Sample {
                    t,
                    in_flight,
                    disks: disks
                        .into_iter()
                        .map(|(depth, utilization)| DiskSample { depth, utilization })
                        .collect(),
                    counters: StatsSnapshot::fault_counts(f, io, msg),
                    progress: progress
                        .into_iter()
                        .map(|(job, done, total)| JobProgress { job, done, total })
                        .collect(),
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn digit_writer_matches_fmt(xs in vec(any_f64(), 256..257)) {
                for x in xs {
                    prop_assert_eq!(f9(x), format!("{x:.9}"), "{:#x}", x.to_bits());
                }
            }

            #[test]
            fn renderers_match_the_fmt_renderers(
                head in (any_f64(), u32s()),
                kind in kind(),
                s in sample(),
            ) {
                let e = ev(head.0, head.1, kind);
                prop_assert_eq!(render_event(&e), fmt_render_event(&e));
                let mut line = String::from("kept ");
                render_sample_into(&mut line, &s);
                prop_assert_eq!(line, format!("kept {}", fmt_render_sample(&s)));
            }
        }
    }

    #[test]
    fn event_log_render_is_deterministic_and_time_merged() {
        let mut log = EventLog::default();
        log.event(&ev(
            0.0,
            1,
            ObsKind::Admitted {
                attempt: 1,
                resumed: false,
            },
        ));
        log.event(&ev(
            2.5,
            1,
            ObsKind::Completed {
                completion: 2.25,
                recovered: false,
            },
        ));
        log.sample(&Sample {
            t: 1.0,
            in_flight: 1,
            disks: vec![DiskSample {
                depth: 1,
                utilization: 0.5,
            }],
            counters: StatsSnapshot::fault_counts(2, 1, 0),
            progress: vec![JobProgress {
                job: 1,
                done: 3,
                total: 8,
            }],
        });
        let a = log.render();
        let b = log.render();
        assert_eq!(a, b);
        let lines: Vec<&str> = a.lines().collect();
        assert_eq!(lines.len(), 3);
        // Merged by time: the t=1.0 sample lands between the two events.
        assert!(lines[0].starts_with("0.000000000 j1 admitted"));
        assert!(lines[1].contains("sample in_flight=1"));
        assert!(lines[1].contains("faults=+2 io_retries=+1"));
        assert!(lines[1].contains("progress=[j1:3/8]"));
        assert!(lines[2].contains("completed completion=2.250000000"));
    }

    #[test]
    fn flight_recorder_keeps_the_last_cap_events_per_job() {
        let mut fr = FlightRecorder::new(3);
        for i in 0..5 {
            fr.push(&ev(i as f64, 1, ObsKind::Preempted));
            fr.push(&ev(i as f64, 2, ObsKind::Killed));
        }
        let d1 = fr.dump(1);
        assert_eq!(d1.len(), 3);
        assert_eq!(d1[0].t, 2.0, "oldest retained event");
        assert_eq!(d1[2].t, 4.0);
        assert_eq!(fr.dump(2).len(), 3);
        assert!(fr.dump(9).is_empty());
        // Depth 0 disables recording entirely.
        let mut off = FlightRecorder::new(0);
        off.push(&ev(0.0, 1, ObsKind::Killed));
        assert!(off.dump(1).is_empty());
    }

    #[test]
    fn sampler_walks_the_exact_grid_and_reports_deltas() {
        let p = profile(6, 1.0, 0.0);
        let cfg = FarmConfig {
            policy: Policy::Fifo,
            ..FarmConfig::default()
        };
        let mut sim = FarmSim::new(1, cfg);
        sim.admit(&FarmJob::new(1, &p));
        sim.admit(&FarmJob::new(2, &p));
        let mut sampler = Sampler::new(2.0, 1);
        assert_eq!(sampler.due(1.0), None);
        assert_eq!(sampler.due(2.0), Some(2.0));
        sim.run_until(2.0);
        let s1 = sampler.take(&sim, StatsSnapshot::fault_counts(3, 1, 0));
        assert_eq!(s1.t, 2.0);
        assert_eq!(s1.in_flight, 2);
        // Two backlogged unit-request streams on one disk: fully busy,
        // one stream armed behind the one in service.
        assert_eq!(s1.disks[0].utilization, 1.0);
        assert!(s1.disks[0].depth >= 1);
        assert_eq!(s1.counters.faults_injected, 3);
        assert_eq!(s1.progress.len(), 2);
        assert_eq!(s1.progress[0].total, 6);
        sim.run_until(4.0);
        let s2 = sampler.take(&sim, StatsSnapshot::fault_counts(3, 1, 0));
        assert_eq!(s2.t, 4.0);
        assert_eq!(s2.counters.faults_injected, 0, "delta, not cumulative");
        assert!(s2.progress[0].done >= s1.progress[0].done);
        // Drain: the farm empties and in-flight drops to zero.
        sim.run_to_end();
        let mut sampler2 = sampler.clone();
        let s3 = sampler2.take(&sim, StatsSnapshot::fault_counts(3, 1, 0));
        assert_eq!(s3.in_flight, 0);
        assert_eq!(s3.disks[0].depth, 0);
    }

    fn card_from(outcomes: Vec<(JobOutcome, f64, f64, f64)>) -> SloScorecard {
        // (outcome, submit, deadline, solo)
        let rep = GuardedReport {
            jobs: outcomes
                .into_iter()
                .enumerate()
                .map(|(i, (outcome, submit, deadline, solo))| GuardedJobReport {
                    name: format!("j{i}"),
                    job: i as u32 + 1,
                    submit,
                    deadline,
                    solo_makespan: solo,
                    outcome,
                    attempts: 1,
                    preemptions: 0,
                    kills: 0,
                    hangs_injected: 0,
                    faults_injected: 0,
                    io_retries: 0,
                    msg_retries: 0,
                    postmortem: Vec::new(),
                })
                .collect(),
            farm: crate::farm::FarmReport {
                jobs: Vec::new(),
                served: Vec::new(),
                disk_busy: Vec::new(),
                max_queue_depth: Vec::new(),
                trace: None,
            },
            policy: Policy::Fifo,
            disk_deaths: 0,
            domain_trace: None,
        };
        SloScorecard::from_guarded(&rep)
    }

    #[test]
    fn scorecard_quantiles_hits_and_slowdown() {
        let done = |c: f64| JobOutcome::Done { completion: c };
        let card = card_from(vec![
            (done(10.0), 0.0, 100.0, 5.0), // turnaround 10, slowdown 2
            (done(20.0), 0.0, 15.0, 5.0),  // misses its deadline
            (done(30.0), 0.0, 100.0, 5.0),
            (
                JobOutcome::Recovered {
                    completion: 40.0,
                    attempts: 2,
                    preemptions: 1,
                },
                0.0,
                100.0,
                5.0,
            ),
            (
                JobOutcome::Quarantined {
                    at: 9.0,
                    attempts: 3,
                },
                0.0,
                1.0,
                5.0,
            ),
            (JobOutcome::Killed { at: 2.0 }, 0.0, 1.0, 5.0),
        ]);
        assert_eq!(card.jobs, 6);
        assert_eq!(card.completed, 4);
        assert_eq!(card.recovered, 1);
        assert_eq!(card.killed, 1);
        assert_eq!(card.quarantined, 1);
        assert_eq!(card.deadline_hits, 3);
        assert_eq!(card.deadline_hit_rate(), 0.5);
        // Nearest rank over [10, 20, 30, 40].
        assert_eq!(card.p50_turnaround, Some(20.0));
        assert_eq!(card.p95_turnaround, Some(40.0));
        assert_eq!(card.p99_turnaround, Some(40.0));
        assert_eq!(card.mean_slowdown, (2.0 + 4.0 + 6.0 + 8.0) / 4.0);
        assert_eq!(card.makespan, 40.0);
        // Degenerate: an empty batch scores cleanly.
        let empty = card_from(Vec::new());
        assert_eq!(empty.p50_turnaround, None);
        assert_eq!(empty.deadline_hit_rate(), 1.0);
        assert_eq!(empty.mean_slowdown, 0.0);
    }

    #[test]
    fn zero_completions_scorecard_has_no_quantiles_not_perfect_ones() {
        // Every job died: a 0.0 percentile here would read as "all jobs
        // turned around instantly", i.e. a perfect SLO from a run that
        // completed nothing. The quantiles must be absent instead.
        let card = card_from(vec![
            (JobOutcome::Killed { at: 2.0 }, 0.0, 1.0, 5.0),
            (
                JobOutcome::Quarantined {
                    at: 9.0,
                    attempts: 3,
                },
                0.0,
                1.0,
                5.0,
            ),
        ]);
        assert_eq!(card.jobs, 2);
        assert_eq!(card.completed, 0);
        assert_eq!(card.p50_turnaround, None);
        assert_eq!(card.p95_turnaround, None);
        assert_eq!(card.p99_turnaround, None);
        assert_eq!(card.deadline_hits, 0);
        // The prom export stays structurally valid and simply omits the
        // turnaround series instead of inventing zeros.
        let metrics = SloScorecard::prom(&[card]);
        let text = ooc_trace::prom::render(&metrics);
        ooc_trace::prom::validate(&text).unwrap();
        assert!(!text.contains("ooc_slo_turnaround_seconds{"));
        assert!(text.contains("ooc_slo_jobs{policy=\"fifo\",outcome=\"killed\"} 1.000000000"));
    }

    #[test]
    fn scorecard_prom_export_validates_and_is_deterministic() {
        let card = card_from(vec![(
            JobOutcome::Done { completion: 12.0 },
            0.0,
            100.0,
            6.0,
        )]);
        let metrics = SloScorecard::prom(&[card.clone(), card]);
        let a = ooc_trace::prom::render(&metrics);
        let b = ooc_trace::prom::render(&metrics);
        assert_eq!(a, b);
        ooc_trace::prom::validate(&a).unwrap();
        assert!(a.contains("ooc_slo_turnaround_seconds{policy=\"fifo\",quantile=\"0.5\"}"));
        assert!(a.contains("ooc_slo_jobs{policy=\"fifo\",outcome=\"completed\"} 1.000000000"));
    }

    #[test]
    fn observed_guarded_run_records_postmortems_and_matches_unobserved() {
        use crate::domain::{run_workload_guarded, run_workload_guarded_observed};
        let specs = vec![
            JobSpec::new("doomed", profile(8, 1.0, 0.0)),
            JobSpec::new("fine", profile(4, 1.0, 0.0)),
        ];
        let cfg = DomainConfig {
            policy: Policy::Fifo,
            hang_chance: 1.0,
            seed: 7,
            watchdog_quantum: 3.0,
            max_retries: 1,
            backoff_base: 0.5,
            epoch: 0.5,
            ..DomainConfig::default()
        };
        let plain = run_workload_guarded(&specs, &cfg).unwrap();
        let mut log = EventLog::default();
        let observed = run_workload_guarded_observed(&specs, &cfg, 1.0, &mut log).unwrap();
        assert_eq!(plain.jobs, observed.jobs, "observation is transparent");
        assert_eq!(plain.farm.served, observed.farm.served);
        // The always-hanging job quarantines and carries a postmortem
        // ending in its terminal events.
        let doomed = &observed.jobs[0];
        assert!(matches!(doomed.outcome, JobOutcome::Quarantined { .. }));
        assert!(!doomed.postmortem.is_empty());
        assert!(doomed
            .postmortem
            .iter()
            .any(|e| matches!(e.kind, ObsKind::Quarantined { .. })));
        assert!(doomed.postmortem.len() <= cfg.flight_recorder_depth);
        // The stream saw the kills and retries.
        assert!(log
            .events
            .iter()
            .any(|e| matches!(e.kind, ObsKind::WatchdogKill)));
        assert!(log
            .events
            .iter()
            .any(|e| matches!(e.kind, ObsKind::RetryScheduled { .. })));
        assert!(log
            .events
            .iter()
            .any(|e| matches!(e.kind, ObsKind::HangInjected { .. })));
        for w in log.events.windows(2) {
            assert!(w[0].t <= w[1].t, "{:?} then {:?}", w[0], w[1]);
        }
    }

    /// Sampling off the epoch grid chunks the farm's advance at points the
    /// unobserved run never stops at. With three-rank jobs (several disks,
    /// several streams a disk) under every policy, the whole report must
    /// still come out bit for bit the same.
    #[test]
    fn off_grid_sampling_leaves_the_whole_guarded_report_unchanged() {
        for seed in 0..20u64 {
            // A splitmix stream picks each job's shape from the seed.
            let mut x = seed;
            let mut draw = |n: u64| {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) % n
            };
            let specs: Vec<JobSpec> = (0..6)
                .map(|i| {
                    let mut p = JobProfile::default();
                    for _ in 0..3 {
                        let n = 2 + draw(6) as usize;
                        let service = 0.13 + 0.07 * draw(9) as f64;
                        let one = profile(n, service, 0.03 * draw(5) as f64);
                        p.rank_finish.push(one.rank_finish[0]);
                        p.streams.extend(one.streams);
                    }
                    JobSpec::new(format!("s{seed}j{i}"), p)
                        .with_submit(0.37 * draw(8) as f64)
                        .with_weight(1.0 + draw(3) as f64)
                })
                .collect();
            for policy in Policy::ALL {
                let cfg = DomainConfig {
                    policy,
                    seek_penalty: 0.01,
                    trace: true,
                    max_concurrent: 4,
                    epoch: 0.5,
                    ..DomainConfig::default()
                };
                let plain = crate::run_workload_guarded(&specs, &cfg).unwrap();
                let mut log = EventLog::default();
                let observed =
                    crate::run_workload_guarded_observed(&specs, &cfg, 0.3, &mut log).unwrap();
                assert!(!log.samples.is_empty());
                // `Debug` prints every float's shortest round trip: equal
                // strings are equal bits.
                assert_eq!(
                    format!("{plain:?}"),
                    format!("{observed:?}"),
                    "seed {seed}, {policy:?}"
                );
            }
        }
    }
}
