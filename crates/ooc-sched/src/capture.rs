//! Profile capture: turn one traced solo run of a compiled program into the
//! per-rank disk request streams the farm replays.
//!
//! The farm does not re-execute programs under contention — that would
//! entangle the rank clocks across jobs and destroy determinism. Instead
//! each job is profiled once, solo, with tracing on; the disk-transfer
//! spans of that run (service start, service end, bytes, offsets) become a
//! closed-loop request stream per rank. Replaying the streams against the
//! shared farm then computes queueing delays without touching the programs
//! themselves. Because the solo run is deterministic, so is the profile,
//! and so is everything derived from it.

use noderun::{run, RunConfig, RunError, RunOutcome};
use ooc_core::CompiledProgram;
use ooc_trace::{Category, EventKind, Trace, TraceConfig};

/// One captured disk request: a disk-transfer span of the solo run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoReq {
    /// Service start on the solo run's simulated clock.
    pub t0: f64,
    /// Service end on the solo run's simulated clock.
    pub t1: f64,
    /// Coalesced I/O requests covered by the span.
    pub requests: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Starting file offset — recorded when the profile was captured with
    /// [`TraceConfig::detailed`]; the elevator policy orders seeks by it.
    pub offset: Option<u64>,
    /// Whether the span is a write or write-back (reads otherwise).
    pub write: bool,
}

impl IoReq {
    /// Service time of the request in simulated seconds.
    pub fn service(&self) -> f64 {
        self.t1 - self.t0
    }
}

/// The farm-facing profile of one job: per-rank request streams plus the
/// solo timing envelope.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobProfile {
    /// Per-rank solo finish times (`rank_finish.len()` = processor count).
    pub rank_finish: Vec<f64>,
    /// Per-rank disk request streams, ordered by service start.
    pub streams: Vec<Vec<IoReq>>,
    /// Faults the chaos harness injected into the capture run (all kinds,
    /// summed over ranks). Surfaced in workload summaries so quarantine
    /// decisions are explainable from the report alone.
    pub faults_injected: u64,
    /// Disk requests the capture run re-issued under the retry policy.
    pub io_retries: u64,
    /// Message re-transmissions after injected drops in the capture run.
    pub msg_retries: u64,
}

impl JobProfile {
    /// Number of processors (= logical disks) the job uses.
    pub fn nprocs(&self) -> usize {
        self.rank_finish.len()
    }

    /// Solo makespan: the latest rank finish time.
    pub fn makespan(&self) -> f64 {
        self.rank_finish.iter().copied().fold(0.0, f64::max)
    }

    /// Total requests across all ranks.
    pub fn total_requests(&self) -> usize {
        self.streams.iter().map(|s| s.len()).sum()
    }

    /// Structural soundness of a profile that arrived from outside the
    /// capture pipeline (a replay file, a daemon submission): every rank
    /// has a finite non-negative finish time and a matching stream, every
    /// request span is finite, non-negative and well-ordered, and no rank
    /// finishes before its last request ends. A NaN smuggled into a
    /// request poisons the farm's time comparisons, so this is the
    /// admission gate that keeps a long-lived server alive; a rank that
    /// finishes early could complete its job before requests still
    /// queued, which the workload runtime's admission rules out.
    pub fn validate(&self) -> Result<(), String> {
        if self.streams.len() != self.rank_finish.len() {
            return Err(format!(
                "{} request streams for {} ranks",
                self.streams.len(),
                self.rank_finish.len()
            ));
        }
        for (rank, &f) in self.rank_finish.iter().enumerate() {
            if !f.is_finite() || f < 0.0 {
                return Err(format!("rank {rank}: bad finish time {f}"));
            }
        }
        for (rank, stream) in self.streams.iter().enumerate() {
            for (i, r) in stream.iter().enumerate() {
                if !r.t0.is_finite() || !r.t1.is_finite() || r.t0 < 0.0 || r.t1 < r.t0 {
                    return Err(format!(
                        "rank {rank} request {i}: bad span [{}, {}]",
                        r.t0, r.t1
                    ));
                }
            }
            let end = stream.iter().map(|r| r.t1).fold(0.0, f64::max);
            if self.rank_finish[rank] < end {
                return Err(format!(
                    "rank {rank}: finishes at {} before its last request ends at {end}",
                    self.rank_finish[rank]
                ));
            }
        }
        Ok(())
    }

    /// Extract the disk-transfer spans of `trace` into per-rank streams.
    /// `rank_finish` is the solo run's per-rank finish times, index = rank.
    pub fn from_trace(trace: &Trace, rank_finish: Vec<f64>) -> JobProfile {
        let mut streams = vec![Vec::new(); rank_finish.len()];
        for rt in &trace.ranks {
            if rt.rank >= streams.len() {
                continue;
            }
            let stream = &mut streams[rt.rank];
            for ev in &rt.events {
                if ev.kind != EventKind::Span {
                    continue;
                }
                let write = match ev.cat {
                    Category::DiskRead => false,
                    Category::DiskWrite | Category::WriteBack => true,
                    _ => continue,
                };
                stream.push(IoReq {
                    t0: ev.t0,
                    t1: ev.t1,
                    requests: ev.args.requests,
                    bytes: ev.args.bytes,
                    offset: ev.args.offset,
                    write,
                });
            }
            // Main-track and overlap-track (prefetch) spans interleave in
            // emission order; the disk serves them in time order.
            stream.sort_by(|a, b| a.t0.total_cmp(&b.t0).then(a.t1.total_cmp(&b.t1)));
        }
        JobProfile {
            rank_finish,
            streams,
            ..JobProfile::default()
        }
    }

    /// Attach the capture run's fault/retry counters (summed over ranks).
    pub fn with_counters(mut self, totals: &dmsim::StatsSnapshot) -> JobProfile {
        self.faults_injected = totals.faults_injected;
        self.io_retries = totals.io_retries;
        self.msg_retries = totals.msg_retries;
        self
    }
}

/// Run `compiled` solo with detailed tracing and capture its farm profile.
///
/// The run is an ordinary [`noderun::run`] — same results, same simulated
/// times — except tracing is forced to [`TraceConfig::detailed`] so the
/// disk spans carry file offsets for the elevator policy. The compiled
/// program's own choices (access methods, prefetch, cache budget) run as
/// compiled and `cfg`'s fields (backend, faults, job tag…) apply as given,
/// so the profile reflects exactly the configuration the job would run
/// with.
pub fn profile(compiled: &CompiledProgram, cfg: &RunConfig) -> Result<JobProfile, RunError> {
    Ok(JobProfile::from_run(run(compiled, &capture_cfg(cfg))?))
}

/// `cfg` with tracing forced to [`TraceConfig::detailed`].
pub(crate) fn capture_cfg(cfg: &RunConfig) -> RunConfig {
    RunConfig {
        trace: Some(TraceConfig::detailed()),
        ..cfg.clone()
    }
}

impl JobProfile {
    /// The profile of a finished capture run (one started under
    /// [`capture_cfg`]).
    pub(crate) fn from_run(mut out: RunOutcome) -> JobProfile {
        let trace = out
            .report
            .take_trace()
            .expect("tracing was enabled for profiling");
        let rank_finish = out
            .report
            .per_proc()
            .iter()
            .map(|p| p.finish_time)
            .collect();
        JobProfile::from_trace(&trace, rank_finish).with_counters(&out.report.totals())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooc_trace::{Args, RankTrace, Tracer, Track};

    #[test]
    fn from_trace_keeps_only_disk_spans_in_time_order() {
        let tr = Tracer::new(0, TraceConfig::detailed());
        tr.span(
            Category::Compute,
            "flops",
            0.0,
            1.0,
            Track::Main,
            Args::default(),
        );
        tr.span(
            Category::DiskWrite,
            "write",
            3.0,
            4.0,
            Track::Main,
            Args::io(1, 64).with_offset(128),
        );
        tr.span(
            Category::DiskRead,
            "read",
            1.0,
            2.0,
            Track::Overlap,
            Args::io(2, 32),
        );
        tr.instant(Category::CacheHit, "hit", 2.5, Args::io(1, 8));
        let trace = Trace {
            ranks: vec![tr.finish()],
        };
        let p = JobProfile::from_trace(&trace, vec![5.0]);
        assert_eq!(p.nprocs(), 1);
        assert_eq!(p.makespan(), 5.0);
        let s = &p.streams[0];
        assert_eq!(s.len(), 2, "compute spans and instants are not requests");
        assert!(!s[0].write);
        assert_eq!(s[0].t0, 1.0);
        assert!(s[1].write);
        assert_eq!(s[1].offset, Some(128));
        assert_eq!(s[1].service(), 1.0);
    }

    #[test]
    fn ranks_beyond_the_report_are_ignored() {
        let tr = Tracer::new(7, TraceConfig::on());
        tr.span(
            Category::DiskRead,
            "read",
            0.0,
            1.0,
            Track::Main,
            Args::io(1, 4),
        );
        let trace = Trace {
            ranks: vec![RankTrace {
                rank: 7,
                ..tr.finish()
            }],
        };
        let p = JobProfile::from_trace(&trace, vec![1.0, 1.0]);
        assert_eq!(p.total_requests(), 0);
    }
}
