//! The modeled disk-farm server layer.
//!
//! One simulated physical disk per rank id: job streams captured by
//! [`crate::capture`] feed per-disk request queues, and a
//! [`Policy`] decides the service order. The replay is
//! closed-loop — a stream's next request arrives only after its previous
//! one finished plus the solo inter-request gap — so queueing delay
//! propagates through each job exactly once, and the whole farm is a pure
//! function of the profiles and the policy.
//!
//! Arithmetic is arranged so the uncontended case is *bitwise* exact: a
//! request that starts at its arrival with zero accumulated lag finishes at
//! its original solo end time (no re-derivation through `t0 + (t1 - t0)`,
//! which float non-associativity would perturb). Single-job replays under
//! FIFO therefore reproduce the pre-farm simulated times byte-for-byte.

use std::cmp::Ordering;
use std::collections::BTreeSet;

use crate::capture::{IoReq, JobProfile};
use crate::obs::{ObsEvent, ObsKind};
use crate::policy::Policy;
use ooc_trace::{Args, Category, Trace, TraceConfig, Tracer, Track};

/// One job's standing in the farm: its profile, admission time and QoS.
#[derive(Debug, Clone, Copy)]
pub struct FarmJob<'a> {
    /// Workload job tag (nonzero for real workload members; the tag also
    /// seeds the job's fault/RNG streams in the executor).
    pub job: u32,
    /// The captured solo profile being replayed.
    pub profile: &'a JobProfile,
    /// Admission time: every request arrival and the completion shift by
    /// this base. Zero means "started with the farm".
    pub base: f64,
    /// Fair-share weight (higher = larger bandwidth share).
    pub weight: f64,
    /// Deadline slack for [`Policy::Deadline`]: a request arriving at `t`
    /// carries deadline `t + qos_slack`.
    pub qos_slack: f64,
}

impl<'a> FarmJob<'a> {
    /// A job admitted at time zero with unit weight and a solo-makespan
    /// deadline slack.
    pub fn new(job: u32, profile: &'a JobProfile) -> FarmJob<'a> {
        FarmJob {
            job,
            profile,
            base: 0.0,
            weight: 1.0,
            qos_slack: profile.makespan(),
        }
    }
}

/// Farm configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FarmConfig {
    /// Service-order policy at every disk.
    pub policy: Policy,
    /// Extra seconds the elevator model charges when the chosen request is
    /// not contiguous with the previous head position. Zero (the default)
    /// keeps total service equal to the captured service time, so policies
    /// differ only in ordering.
    pub seek_penalty: f64,
    /// Record a per-disk queue trace (service spans, enqueue instants,
    /// wait spans, queue-depth counters) exportable to Perfetto.
    pub trace: bool,
    /// Publish [`ObsKind::Dispatched`] events on the observatory bus
    /// (collected via [`FarmSim::drain_obs`]). Purely additive: the
    /// replay's scheduling decisions and trace are unaffected.
    pub observe: bool,
}

impl Default for FarmConfig {
    fn default() -> Self {
        FarmConfig {
            policy: Policy::default(),
            seek_penalty: 0.0,
            trace: false,
            observe: false,
        }
    }
}

/// One served request, as logged by the farm replay. The log is the ground
/// truth for the property tests (work conservation, fairness, determinism).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Served {
    /// Disk that served the request.
    pub disk: usize,
    /// Owning job tag.
    pub job: u32,
    /// Position of the request in its stream.
    pub seq: usize,
    /// When the request became ready at the disk.
    pub arrival: f64,
    /// When service began (`start - arrival` is the queueing wait).
    pub start: f64,
    /// When service completed.
    pub finish: f64,
    /// Service duration actually charged (captured service, plus any seek
    /// penalty).
    pub service: f64,
    /// Starting file offset, when the profile recorded one.
    pub offset: Option<u64>,
}

impl Served {
    /// Queueing wait of this request.
    pub fn wait(&self) -> f64 {
        self.start - self.arrival
    }
}

/// Per-job queue metrics accumulated over the whole farm.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JobQueueStats {
    /// Job tag.
    pub job: u32,
    /// Requests served.
    pub requests: u64,
    /// Sum of queueing waits, seconds.
    pub total_wait: f64,
    /// Largest single queueing wait, seconds.
    pub max_wait: f64,
    /// Sum of service time charged, seconds.
    pub total_service: f64,
    /// Job completion time on the farm clock: the latest rank finish,
    /// shifted by the admission base and that rank's accumulated lag.
    pub completion: f64,
}

/// Result of one farm replay.
#[derive(Debug, Clone, PartialEq)]
pub struct FarmReport {
    /// Per-job metrics, parallel to the input job slice.
    pub jobs: Vec<JobQueueStats>,
    /// Every served request, grouped by disk in service order.
    pub served: Vec<Served>,
    /// Per-disk total service time (busy time; the farm never idles while
    /// a request is armed, so busy == sum of service).
    pub disk_busy: Vec<f64>,
    /// Per-disk maximum queue depth observed at a service start (armed
    /// requests, including the one entering service).
    pub max_queue_depth: Vec<usize>,
    /// Per-disk queue timeline (one trace rank per disk) when
    /// [`FarmConfig::trace`] was set. Wait spans overlap by nature, so
    /// they live on the nesting-exempt [`Track::Queue`]; the whole trace
    /// passes [`ooc_trace::check_well_nested`].
    pub trace: Option<Trace>,
}

/// `base + t`, exact when `base` is zero (the parity-critical case: a job
/// admitted at 0.0 must replay its solo timestamps bitwise).
#[inline]
fn shift(base: f64, t: f64) -> f64 {
    if base == 0.0 {
        t
    } else {
        base + t
    }
}

/// Per-disk replay state of one job's stream.
struct StreamState<'a> {
    /// Admission slot: index into the sim's job list.
    slot: usize,
    job: u32,
    weight: f64,
    qos_slack: f64,
    base: f64,
    /// Solo-time re-anchor for resumed jobs: arrivals and finishes use
    /// `t − origin`, so a stream resumed from a checkpoint watermark
    /// replays its remaining requests relative to its new admission base.
    /// Zero for fresh admissions — the bitwise-parity case.
    origin: f64,
    /// Profile stream index: the rank whose requests these are, and the
    /// disk the stream started on before any migration.
    rank: usize,
    reqs: &'a [IoReq],
    cursor: usize,
    /// Accumulated delay vs the solo schedule (finish − solo finish of the
    /// last served request). Never negative: queueing only pushes later.
    lag: f64,
    /// Finish time of the previously served request: the closed loop arms
    /// the next request no earlier than this.
    floor: f64,
    /// Weighted attained service, for fair-share selection.
    attained: f64,
    /// Injected hang: requests at or past this solo time never arrive, so
    /// the stream makes no further progress until its job is killed.
    hung_at: Option<f64>,
}

impl StreamState<'_> {
    /// Solo time re-anchored for resume (`origin == 0.0` stays bitwise).
    #[inline]
    fn rel(&self, t: f64) -> f64 {
        if self.origin == 0.0 {
            t
        } else {
            t - self.origin
        }
    }

    fn exhausted(&self) -> bool {
        self.cursor >= self.reqs.len()
    }

    /// Whether the head request will never arrive (injected hang).
    fn hung(&self) -> bool {
        match (self.hung_at, self.reqs.get(self.cursor)) {
            (Some(h), Some(r)) => r.t0 >= h,
            _ => false,
        }
    }

    /// Solo arrival of the head request (caller ensures one exists),
    /// shifted by the admission base and the accumulated lag: when static
    /// share serves it. An injected hang arrives never.
    fn solo_arrival(&self) -> f64 {
        if self.hung() {
            return f64::INFINITY;
        }
        let r = &self.reqs[self.cursor];
        let mut a = shift(self.base, self.rel(r.t0));
        if self.lag != 0.0 {
            a += self.lag;
        }
        a
    }

    /// Closed-loop arrival of the head request: its solo arrival, no
    /// earlier than the previous request's finish.
    fn arrival(&self) -> f64 {
        self.solo_arrival().max(self.floor)
    }

    /// The job's completion as far as this stream goes: its rank's solo
    /// finish, shifted by the base, the resume anchor and the final lag.
    fn completion(&self, profile: &JobProfile) -> f64 {
        let mut f = shift(self.base, self.rel(profile.rank_finish[self.rank]));
        if self.lag != 0.0 {
            f += self.lag;
        }
        f
    }
}

/// Selection key `(k0, k1, arrival, job)`, all finite: the armed stream
/// with the lexicographically smallest key is served next (the first in
/// queue order on a full tie).
type Key = (u8, f64, f64, u32);

fn key_of(policy: Policy, s: &StreamState, head: Option<u64>) -> Key {
    let arrival = s.arrival();
    let r = &s.reqs[s.cursor];
    let (k0, k1) = match policy {
        Policy::StaticShare => (0, 0.0), // unused: static share bypasses the queue
        Policy::Fifo => (0, 0.0),
        Policy::Elevator => {
            // C-SCAN: requests at or beyond the head sweep first, ordered
            // by offset; the rest wait for the wrap, also by offset.
            let pos = head.unwrap_or(0);
            let off = r.offset.unwrap_or(0);
            (u8::from(off < pos), off as f64)
        }
        Policy::Deadline => (0, arrival + s.qos_slack),
        Policy::FairShare => (0, s.attained / s.weight.max(f64::MIN_POSITIVE)),
    };
    (k0, k1, arrival, s.job)
}

/// Replay all jobs against the shared farm under `cfg`, start to finish.
///
/// The batch entry point: admit everything, run to quiescence, report.
/// Byte-identical to the pre-resumable replay — it is a thin wrapper over
/// [`FarmSim`] with an infinite horizon.
pub fn simulate(jobs: &[FarmJob], cfg: &FarmConfig) -> FarmReport {
    let ndisks = jobs.iter().map(|j| j.profile.nprocs()).max().unwrap_or(0);
    let mut sim = FarmSim::new(ndisks, *cfg);
    for j in jobs {
        sim.admit(j);
    }
    sim.run_to_end();
    sim.finish()
}

/// Per-disk server state that persists across [`FarmSim::run_until`] calls.
struct DiskState {
    now: f64,
    head: Option<u64>,
    alive: bool,
    busy: f64,
    max_depth: usize,
    served: Vec<Served>,
    /// Admission slot of each served request, parallel to `served`.
    served_slot: Vec<usize>,
    tracer: Option<Tracer>,
}

/// Per-admission bookkeeping: what the farm knows about a job without
/// visiting its streams.
struct JobSlot<'a> {
    job: u32,
    profile: &'a JobProfile,
    /// Admission base, for the sampler's in-flight accounting.
    base: f64,
    /// Streams admitted for the job (its ranks the farm has disks for).
    streams: usize,
    /// Streams still queued: a stream retires into its slot when it drains.
    pending: usize,
    /// Request cursors summed over the job's streams.
    progress: u64,
    /// Latest completion among the retired streams.
    completion: f64,
}

impl JobSlot<'_> {
    fn retire(&mut self, s: &StreamState) {
        self.pending -= 1;
        self.completion = self.completion.max(s.completion(self.profile));
    }
}

/// A resumable disk-farm replay.
///
/// Where [`simulate`] replays a fixed job set to quiescence, `FarmSim`
/// keeps the whole farm state — per-disk clocks, head positions, queued
/// streams with their closed-loop lag — alive between horizon-bounded
/// advances, so a workload executive can interleave replay with
/// control-plane events on the simulated clock: admit a job mid-timeline,
/// kill a hung one, preempt at a checkpoint watermark and resume later,
/// or fail a disk permanently and migrate its queued streams to the
/// survivors. Everything is a pure function of the admitted profiles and
/// the call sequence, and the report does not depend on how the
/// timeline is chunked into `run_until` calls: with the same admissions
/// it is bitwise-identical to a single `run_to_end`, and so to
/// [`simulate`].
pub struct FarmSim<'a> {
    cfg: FarmConfig,
    ndisks: usize,
    disks: Vec<DiskState>,
    /// Per-disk streams with requests left, in admission (then
    /// migration) order. Drained streams retire into their slot.
    queues: Vec<Vec<StreamState<'a>>>,
    slots: Vec<JobSlot<'a>>,
    /// Slots admitted and not yet removed (completed, preempted,
    /// quarantined), in admission order: the sampler's views visit these
    /// only, not every slot ever admitted.
    live: BTreeSet<usize>,
    /// Pending observatory events ([`FarmConfig::observe`]), drained by
    /// the executive after each advance.
    obs: Vec<ObsEvent>,
}

impl<'a> FarmSim<'a> {
    /// An empty farm of `ndisks` disks.
    pub fn new(ndisks: usize, cfg: FarmConfig) -> FarmSim<'a> {
        let disks = (0..ndisks)
            .map(|d| DiskState {
                now: 0.0,
                head: None,
                alive: true,
                busy: 0.0,
                max_depth: 0,
                served: Vec::new(),
                served_slot: Vec::new(),
                tracer: cfg.trace.then(|| Tracer::new(d, TraceConfig::detailed())),
            })
            .collect();
        FarmSim {
            cfg,
            ndisks,
            disks,
            queues: (0..ndisks).map(|_| Vec::new()).collect(),
            slots: Vec::new(),
            live: BTreeSet::new(),
            obs: Vec::new(),
        }
    }

    /// Number of disks (dead ones included).
    pub fn ndisks(&self) -> usize {
        self.ndisks
    }

    /// Number of disks still alive.
    pub fn alive_disks(&self) -> usize {
        self.disks.iter().filter(|d| d.alive).count()
    }

    /// Admit a fresh job; returns its slot (index into the report's job
    /// list). Arrivals are shifted by `j.base`.
    pub fn admit(&mut self, j: &FarmJob<'a>) -> usize {
        self.admit_streams(j, None)
    }

    /// Admit a job resuming from per-rank request cursors `start` (the
    /// checkpoint watermark): each stream skips its first `start[rank]`
    /// requests and replays the rest re-anchored at `j.base`, preserving
    /// the solo inter-request gaps.
    pub fn admit_resumed(&mut self, j: &FarmJob<'a>, start: &[usize]) -> usize {
        self.admit_streams(j, Some(start))
    }

    fn admit_streams(&mut self, j: &FarmJob<'a>, start: Option<&[usize]>) -> usize {
        let slot = self.slots.len();
        let streams = j.profile.nprocs().min(self.ndisks);
        self.slots.push(JobSlot {
            job: j.job,
            profile: j.profile,
            base: j.base,
            streams,
            pending: streams,
            progress: 0,
            completion: 0.0,
        });
        self.live.insert(slot);
        for rank in 0..streams {
            let reqs: &'a [IoReq] = &j.profile.streams[rank];
            let w = start
                .map(|s| s.get(rank).copied().unwrap_or(0))
                .unwrap_or(0)
                .min(reqs.len());
            // Re-anchor a resumed stream at the watermark request's solo
            // start (or, fully-drained, at its last solo finish so only the
            // rigid compute tail remains).
            let origin = if w == 0 {
                0.0
            } else if w < reqs.len() {
                reqs[w].t0
            } else {
                reqs[w - 1].t1
            };
            let s = StreamState {
                slot,
                job: j.job,
                weight: j.weight,
                qos_slack: j.qos_slack,
                base: j.base,
                origin,
                rank,
                reqs,
                cursor: w,
                lag: 0.0,
                floor: f64::NEG_INFINITY,
                attained: 0.0,
                hung_at: None,
            };
            self.slots[slot].progress += w as u64;
            if s.exhausted() {
                self.slots[slot].retire(&s);
            } else {
                let disk = self.route(rank);
                self.queues[disk].push(s);
            }
        }
        slot
    }

    /// The disk serving streams of `rank`: the rank's own disk, or — after
    /// a disk death — the next surviving disk in cyclic order.
    fn route(&self, rank: usize) -> usize {
        if self.disks[rank].alive {
            return rank;
        }
        (1..self.ndisks)
            .map(|k| (rank + k) % self.ndisks)
            .find(|&d| self.disks[d].alive)
            .expect("at least one disk is alive")
    }

    /// Inject a hang into `slot`'s stream on `rank`: its requests at or
    /// past solo time `after_solo` never arrive, so the job stalls until a
    /// watchdog kills it.
    pub fn hang(&mut self, slot: usize, rank: usize, after_solo: f64) {
        for q in &mut self.queues {
            for s in q.iter_mut() {
                if s.slot == slot && s.rank == rank {
                    s.hung_at = Some(after_solo);
                }
            }
        }
    }

    /// Requests of `slot` done so far, those before its resume watermark
    /// included (the watchdog's virtual progress measure).
    pub fn progress(&self, slot: usize) -> u64 {
        self.slots[slot].progress
    }

    /// Cumulative busy time of `disk` (sum of charged service so far).
    pub fn busy(&self, disk: usize) -> f64 {
        self.disks[disk].busy
    }

    /// Streams of `disk` with an armed head request at time `t`: arrived
    /// (by `t`), unserved, and not behind an injected hang.
    pub fn queue_depth_at(&self, disk: usize, t: f64) -> usize {
        self.queues[disk]
            .iter()
            .filter(|s| s.arrival() <= t)
            .count()
    }

    /// Jobs admitted by `t` whose streams have not all drained: the
    /// sampler's in-flight count.
    pub fn in_flight_at(&self, t: f64) -> usize {
        self.live
            .iter()
            .filter(|&&slot| self.slots[slot].base <= t && !self.job_done(slot))
            .count()
    }

    /// `(job tag, requests served, solo total)` for every job on the farm
    /// at time `t`, in admission order — the sampler's progress view.
    pub fn progress_report(&self, t: f64) -> Vec<(u32, u64, u64)> {
        self.live
            .iter()
            .map(|&slot| &self.slots[slot])
            .filter(|js| js.base <= t)
            .map(|js| (js.job, js.progress, js.profile.total_requests() as u64))
            .collect()
    }

    /// Take the pending observatory events, stable-sorted by time. With
    /// [`FarmConfig::observe`] unset this is always empty. Tied stamps
    /// keep their push order (disk-major, service order), which is
    /// invariant under horizon chunking: a chunk boundary splits serves
    /// strictly before it from the rest on every disk alike.
    pub fn drain_obs(&mut self) -> Vec<ObsEvent> {
        let mut out = std::mem::take(&mut self.obs);
        out.sort_by(|a, b| a.t.total_cmp(&b.t));
        out
    }

    /// Whether every remaining request of `slot` is behind an injected
    /// hang: the job can never progress again on its own.
    pub fn stalled(&self, slot: usize) -> bool {
        let mut any_live = false;
        for q in &self.queues {
            for s in q {
                if s.slot == slot {
                    if !s.hung() {
                        return false;
                    }
                    any_live = true;
                }
            }
        }
        any_live
    }

    /// Whether every stream of `slot` has drained (the job's I/O is done;
    /// only rigid compute tails remain).
    pub fn job_done(&self, slot: usize) -> bool {
        let js = &self.slots[slot];
        self.live.contains(&slot) && js.streams > 0 && js.pending == 0
    }

    /// Completion time of a drained job: the latest rank finish, shifted
    /// by the admission base, resume anchor, and that stream's final lag.
    /// `None` until [`FarmSim::job_done`].
    pub fn completion(&self, slot: usize) -> Option<f64> {
        self.job_done(slot).then(|| self.slots[slot].completion)
    }

    /// When the next request would start on any living disk: the next
    /// event of the replay. Infinite when nothing can arrive any more.
    /// A job not yet drained completes no earlier than this.
    pub(crate) fn next_start(&self) -> f64 {
        let next = |d: usize| match self.cfg.policy {
            Policy::StaticShare => self.queues[d]
                .iter()
                .map(StreamState::solo_arrival)
                .fold(f64::INFINITY, f64::min),
            _ => next_on(&self.queues[d], self.disks[d].now),
        };
        (0..self.ndisks)
            .filter(|&d| self.disks[d].alive)
            .map(next)
            .fold(f64::INFINITY, f64::min)
    }

    /// Remove `slot` from the farm (completed, preempted, or quarantined):
    /// its streams leave the queues. Returns the per-rank request cursors
    /// at removal — the executive rolls them back to a checkpoint
    /// watermark for [`FarmSim::admit_resumed`].
    pub fn remove_job(&mut self, slot: usize) -> Vec<usize> {
        let js = &self.slots[slot];
        // Streams no longer queued drained to their end.
        let mut cursors: Vec<usize> = js.profile.streams.iter().map(Vec::len).collect();
        cursors[js.streams..].fill(0);
        for q in &mut self.queues {
            q.retain(|s| {
                if s.slot == slot {
                    cursors[s.rank] = s.cursor;
                    false
                } else {
                    true
                }
            });
        }
        self.live.remove(&slot);
        cursors
    }

    /// Fail `disk` permanently: it serves nothing further, and its queued
    /// streams migrate to the surviving disks in deterministic cyclic
    /// order, keeping their closed-loop state (cursor, lag, floor).
    /// Requests already served — including one in flight past the caller's
    /// horizon — stand. Returns the number of streams migrated. Panics if
    /// it would kill the last disk.
    pub fn kill_disk(&mut self, disk: usize) -> usize {
        if !self.disks[disk].alive {
            return 0;
        }
        assert!(
            self.disks
                .iter()
                .enumerate()
                .any(|(i, d)| i != disk && d.alive),
            "cannot kill the last surviving disk"
        );
        self.disks[disk].alive = false;
        let moving = std::mem::take(&mut self.queues[disk]);
        let alive: Vec<usize> = (0..self.ndisks).filter(|&d| self.disks[d].alive).collect();
        let migrated = moving.len();
        for (k, s) in moving.into_iter().enumerate() {
            self.queues[alive[k % alive.len()]].push(s);
        }
        migrated
    }

    /// Advance every living disk until no request would *start* before
    /// `horizon`. A request entering service just before the horizon runs
    /// to completion (service is not preemptible), possibly leaving the
    /// disk clock past the horizon.
    pub fn run_until(&mut self, horizon: f64) {
        for disk in 0..self.ndisks {
            if self.disks[disk].alive {
                self.run_disk(disk, horizon);
            }
        }
    }

    /// Advance every disk to quiescence (hung streams never arrive and are
    /// left pending).
    pub fn run_to_end(&mut self) {
        self.run_until(f64::INFINITY);
    }

    /// Serve `disk`'s requests in start order until the next one would
    /// start at or past `horizon`. Each choice depends on the queue state
    /// alone, so the served order is the same however the timeline is
    /// chunked.
    fn run_disk(&mut self, disk: usize, horizon: f64) {
        if self.cfg.policy == Policy::StaticShare {
            self.run_static(disk, horizon);
        } else {
            self.run_queued(disk, horizon);
        }
    }

    fn run_queued(&mut self, disk: usize, horizon: f64) {
        let d = &mut self.disks[disk];
        let streams = &mut self.queues[disk];
        let slots = &mut self.slots;
        let mut obs = self.cfg.observe.then_some(&mut self.obs);
        loop {
            let start = next_on(streams, d.now);
            // Commit the clock only when the service will actually start
            // inside the horizon, so later admissions can still use the
            // idle gap.
            if !start.is_finite() || start >= horizon {
                break;
            }
            d.now = start;
            // Armed set and policy selection.
            let mut pick: Option<usize> = None;
            let mut best: Option<Key> = None;
            let mut depth = 0usize;
            for (i, s) in streams.iter().enumerate() {
                visit();
                if s.arrival() <= start {
                    depth += 1;
                    let k = key_of(self.cfg.policy, s, d.head);
                    if best.is_none_or(|b| k < b) {
                        best = Some(k);
                        pick = Some(i);
                    }
                }
            }
            // An armed stream must exist at `start` for well-formed
            // profiles; a NaN-poisoned arrival could fail every `<=`
            // comparison above, so degrade to an idle disk instead of
            // panicking (profiles are validated at admission, this is
            // defense in depth for a long-lived daemon).
            let Some(i) = pick else { break };
            let s = &mut streams[i];
            let r = s.reqs[s.cursor];
            let arrival = s.arrival();
            let mut service = r.service();
            if self.cfg.seek_penalty > 0.0 {
                if let (Some(h), Some(o)) = (d.head, r.offset) {
                    if o != h {
                        service += self.cfg.seek_penalty;
                    }
                }
            }
            // Bitwise-exact fast path: an undisturbed request keeps its
            // solo finish time instead of re-deriving it as
            // start + (t1 - t0).
            let finish = if s.base == 0.0
                && s.origin == 0.0
                && s.lag == 0.0
                && start == r.t0
                && service == r.service()
            {
                r.t1
            } else {
                start + service
            };
            record(
                disk,
                d,
                s,
                arrival,
                start,
                finish,
                service,
                depth,
                Track::Main,
                obs.as_deref_mut(),
            );
            slots[s.slot].progress += 1;
            if let Some(o) = r.offset {
                d.head = Some(o + r.bytes);
            }
            d.now = finish;
            if s.exhausted() {
                let s = streams.remove(i);
                slots[s.slot].retire(&s);
            }
        }
    }

    /// Static share is the legacy divide: no queue. The captured service
    /// times were already priced under the cost model's static bandwidth
    /// share, so every request is served exactly at its solo arrival —
    /// services of different streams overlap freely, so their spans go on
    /// the nesting-exempt queue track. A stream never lags, so its solo
    /// arrivals are its start times; the requests due before the horizon
    /// go out in start order.
    fn run_static(&mut self, disk: usize, horizon: f64) {
        let d = &mut self.disks[disk];
        let streams = &mut self.queues[disk];
        let slots = &mut self.slots;
        let mut obs = self.cfg.observe.then_some(&mut self.obs);
        let mut due: Vec<(f64, usize)> = Vec::new();
        for (i, s) in streams.iter().enumerate() {
            visit();
            let armed = s.reqs[s.cursor..]
                .iter()
                .take_while(|r| s.hung_at.is_none_or(|h| r.t0 < h));
            let starts = armed.map(|r| (shift(s.base, s.rel(r.t0)), i));
            due.extend(starts.take_while(|&(start, _)| start < horizon));
        }
        // Stable, and no start is NaN: ties keep queue order, then each
        // stream's sequence.
        due.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal));
        for (start, i) in due {
            let s = &mut streams[i];
            let r = s.reqs[s.cursor];
            let finish = shift(s.base, s.rel(r.t1));
            record(
                disk,
                d,
                s,
                start,
                start,
                finish,
                r.service(),
                1,
                Track::Queue,
                obs.as_deref_mut(),
            );
            slots[s.slot].progress += 1;
            if s.exhausted() {
                slots[s.slot].retire(s);
            }
        }
        streams.retain(|s| !s.exhausted());
    }

    /// Tear the farm down into its report: per-disk served logs
    /// concatenated in disk order, completion times filled in for every
    /// drained job (jobs removed or still pending keep completion 0.0 —
    /// the executive reports their fate separately). Per-job totals are
    /// summed over the served logs in that same order, so they do not
    /// depend on how the timeline was chunked.
    pub fn finish(self) -> FarmReport {
        let mut jobs: Vec<JobQueueStats> = (0..self.slots.len())
            .map(|slot| JobQueueStats {
                job: self.slots[slot].job,
                completion: self.completion(slot).unwrap_or(0.0),
                ..JobQueueStats::default()
            })
            .collect();
        let mut served = Vec::new();
        let mut disk_busy = Vec::with_capacity(self.ndisks);
        let mut max_queue_depth = Vec::with_capacity(self.ndisks);
        let mut rank_traces = Vec::new();
        for d in self.disks {
            for (sv, &slot) in d.served.iter().zip(&d.served_slot) {
                let js = &mut jobs[slot];
                js.requests += 1;
                js.total_wait += sv.wait();
                js.max_wait = js.max_wait.max(sv.wait());
                js.total_service += sv.service;
            }
            served.extend(d.served);
            disk_busy.push(d.busy);
            max_queue_depth.push(d.max_depth);
            if let Some(t) = d.tracer {
                rank_traces.push(t.finish());
            }
        }
        FarmReport {
            jobs,
            served,
            disk_busy,
            max_queue_depth,
            trace: self.cfg.trace.then_some(Trace { ranks: rank_traces }),
        }
    }
}

/// When a queueing disk next starts a request: never idle past the
/// earliest armed request (work conservation), nor start one before its
/// own clock.
fn next_on(streams: &[StreamState], now: f64) -> f64 {
    let mut min_arrival = f64::INFINITY;
    for s in streams {
        visit();
        min_arrival = min_arrival.min(s.arrival());
    }
    if now < min_arrival {
        min_arrival
    } else {
        now
    }
}

/// Book-keep the service of `s`'s head request: advance the stream,
/// update its lag and attained service, log it, and emit trace and
/// observatory events.
/// `service_track` carries the service span: the main track for queueing
/// policies (one request in service at a time), the nesting-exempt queue
/// track for static share (services overlap).
#[allow(clippy::too_many_arguments)]
fn record(
    disk: usize,
    d: &mut DiskState,
    s: &mut StreamState,
    arrival: f64,
    start: f64,
    finish: f64,
    service: f64,
    depth: usize,
    service_track: Track,
    obs: Option<&mut Vec<ObsEvent>>,
) {
    let seq = s.cursor;
    let r = &s.reqs[seq];
    let solo_finish = shift(s.base, s.rel(r.t1));
    s.lag = if finish == solo_finish {
        0.0
    } else {
        (finish - solo_finish).max(0.0)
    };
    s.floor = finish;
    s.attained += service;
    s.cursor = seq + 1;

    d.served.push(Served {
        disk,
        job: s.job,
        seq,
        arrival,
        start,
        finish,
        service,
        offset: r.offset,
    });
    d.served_slot.push(s.slot);
    d.busy += service;
    d.max_depth = d.max_depth.max(depth);
    let wait = start - arrival;

    if let Some(out) = obs {
        out.push(ObsEvent {
            t: start,
            job: s.job,
            kind: ObsKind::Dispatched {
                disk,
                rank: s.rank,
                seq,
                wait,
                service,
                bytes: r.bytes,
                write: r.write,
            },
        });
    }

    if let Some(tr) = &d.tracer {
        let name = format!("j{}", s.job);
        tr.instant(
            Category::Queue,
            &format!("enqueue:{name}"),
            arrival,
            Args::io(r.requests, r.bytes),
        );
        if wait > 0.0 {
            // Waits of different requests overlap freely; they live on the
            // nesting-exempt queue track.
            tr.span(
                Category::Queue,
                &format!("wait:{name}"),
                arrival,
                start,
                Track::Queue,
                Args::io(r.requests, r.bytes),
            );
        }
        let cat = if r.write {
            Category::DiskWrite
        } else {
            Category::DiskRead
        };
        let mut args = Args::io(r.requests, r.bytes);
        if let Some(o) = r.offset {
            args = args.with_offset(o);
        }
        tr.span(
            cat,
            &format!("service:{name}"),
            start,
            finish,
            service_track,
            args,
        );
        tr.counter(&format!("queue_depth:d{disk}"), start, depth as f64);
    }
}

/// Count one stream visit of the farm's scans: the unit of its host cost
/// (a no-op outside tests).
fn visit() {
    #[cfg(test)]
    VISITS.with(|n| n.set(n.get() + 1));
}

#[cfg(test)]
thread_local! {
    static VISITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Streams visited by the farm's scans on this thread so far.
#[cfg(test)]
pub(crate) fn visits() -> u64 {
    VISITS.with(|n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A profile with one rank and evenly spaced unit requests.
    fn uniform_profile(n: usize, gap: f64, service: f64) -> JobProfile {
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

    /// Static share serves each advance's due requests in one sorted
    /// pass: it visits every queued stream once per advance, not once per
    /// served request, however many streams are queued.
    #[test]
    fn static_share_visits_each_queued_stream_once_per_advance() {
        let p = uniform_profile(20, 0.0, 0.005);
        for n in [1_000usize, 8_000] {
            let jobs: Vec<FarmJob> = (0..n)
                .map(|i| FarmJob {
                    base: 0.001 * i as f64,
                    ..FarmJob::new(i as u32 + 1, &p)
                })
                .collect();
            let before = visits();
            let rep = simulate(&jobs, &FarmConfig::default());
            assert_eq!(rep.served.len(), 20 * n);
            assert_eq!(visits() - before, n as u64, "{n} streams queued");
        }
    }

    #[test]
    fn solo_fifo_replay_is_bitwise_exact() {
        let p = uniform_profile(10, 0.25, 1.0);
        let jobs = [FarmJob::new(1, &p)];
        let rep = simulate(
            &jobs,
            &FarmConfig {
                policy: Policy::Fifo,
                ..FarmConfig::default()
            },
        );
        for sv in &rep.served {
            assert_eq!(sv.wait(), 0.0);
            let orig = &p.streams[0][sv.seq];
            assert_eq!(sv.start.to_bits(), orig.t0.to_bits());
            assert_eq!(sv.finish.to_bits(), orig.t1.to_bits());
        }
        assert_eq!(
            rep.jobs[0].completion.to_bits(),
            p.makespan().to_bits(),
            "solo completion is the solo makespan, bitwise"
        );
    }

    #[test]
    fn static_share_ignores_contention_entirely() {
        let p = uniform_profile(5, 0.0, 1.0);
        let jobs = [FarmJob::new(1, &p), FarmJob::new(2, &p)];
        let rep = simulate(&jobs, &FarmConfig::default());
        assert!(rep.jobs.iter().all(|j| j.total_wait == 0.0));
        assert_eq!(rep.jobs[0].completion, rep.jobs[1].completion);
        assert_eq!(rep.jobs[0].completion.to_bits(), p.makespan().to_bits());
    }

    #[test]
    fn two_backlogged_jobs_under_fifo_interleave_and_delay() {
        let p = uniform_profile(4, 0.0, 1.0);
        let jobs = [FarmJob::new(1, &p), FarmJob::new(2, &p)];
        let rep = simulate(
            &jobs,
            &FarmConfig {
                policy: Policy::Fifo,
                ..FarmConfig::default()
            },
        );
        // One disk, 8 unit requests, no gaps: busy the whole span.
        assert_eq!(rep.disk_busy[0], 8.0);
        assert!(rep.jobs.iter().any(|j| j.total_wait > 0.0));
        // Completion reflects the queueing: both jobs finish later than solo.
        assert!(rep.jobs[0].completion > p.makespan());
        assert!(rep.jobs[1].completion > p.makespan());
        assert_eq!(rep.max_queue_depth[0], 2);
    }

    #[test]
    fn elevator_orders_by_offset_and_charges_seeks() {
        // Two jobs whose first requests are armed together; job 2's offset
        // is lower, so a fresh head (None -> pos 0) serves it first.
        let mut p1 = uniform_profile(1, 0.0, 1.0);
        p1.streams[0][0].offset = Some(1000);
        let p2 = uniform_profile(1, 0.0, 1.0);
        let jobs = [FarmJob::new(1, &p1), FarmJob::new(2, &p2)];
        let rep = simulate(
            &jobs,
            &FarmConfig {
                policy: Policy::Elevator,
                ..FarmConfig::default()
            },
        );
        assert_eq!(rep.served[0].job, 2);
        assert_eq!(rep.served[1].job, 1);
        // With a seek penalty, the non-contiguous second request costs more.
        let rep = simulate(
            &jobs,
            &FarmConfig {
                policy: Policy::Elevator,
                seek_penalty: 0.5,
                ..FarmConfig::default()
            },
        );
        assert_eq!(rep.served[1].service, 1.5);
    }

    #[test]
    fn deadline_prefers_the_tighter_qos() {
        let p = uniform_profile(1, 0.0, 1.0);
        let mut tight = FarmJob::new(1, &p);
        tight.qos_slack = 0.5;
        let mut loose = FarmJob::new(2, &p);
        loose.qos_slack = 100.0;
        let rep = simulate(
            &[loose, tight],
            &FarmConfig {
                policy: Policy::Deadline,
                ..FarmConfig::default()
            },
        );
        assert_eq!(rep.served[0].job, 1, "tighter deadline is served first");
    }

    #[test]
    fn farm_trace_records_queue_events() {
        let p = uniform_profile(3, 0.0, 1.0);
        let jobs = [FarmJob::new(1, &p), FarmJob::new(2, &p)];
        let rep = simulate(
            &jobs,
            &FarmConfig {
                policy: Policy::Fifo,
                trace: true,
                ..FarmConfig::default()
            },
        );
        let trace = rep.trace.expect("tracing was requested");
        assert_eq!(trace.ranks.len(), 1);
        let evs = &trace.ranks[0].events;
        assert!(evs
            .iter()
            .any(|e| e.cat == Category::Queue && e.name.starts_with("enqueue")));
        assert!(evs
            .iter()
            .any(|e| e.cat == Category::Queue && e.name.starts_with("wait")));
        assert!(evs.iter().any(|e| e.cat == Category::DiskRead));
        // Queue-depth counters are per-disk named tracks.
        assert!(evs
            .iter()
            .any(|e| e.name == "queue_depth:d0" && e.args.value == Some(2.0)));
        // Overlapping wait spans live on the nesting-exempt queue track,
        // so the farm trace passes the nesting check.
        assert!(evs
            .iter()
            .filter(|e| e.name.starts_with("wait"))
            .all(|e| e.track == Track::Queue));
        for rt in &trace.ranks {
            ooc_trace::check_well_nested(rt).expect("farm trace is well nested");
        }
        // The queue trace exports to Perfetto JSON without panicking.
        let json = ooc_trace::perfetto::to_chrome_json(&trace);
        ooc_trace::json::parse(&json).expect("valid JSON");
    }

    #[test]
    fn static_share_trace_is_well_nested_despite_overlapping_services() {
        let p = uniform_profile(4, 0.0, 1.0);
        let jobs = [FarmJob::new(1, &p), FarmJob::new(2, &p)];
        let rep = simulate(
            &jobs,
            &FarmConfig {
                policy: Policy::StaticShare,
                trace: true,
                ..FarmConfig::default()
            },
        );
        let trace = rep.trace.expect("tracing was requested");
        // Static share serves both streams concurrently: the service
        // spans overlap, and only the exempt queue track makes that legal.
        assert!(trace.ranks[0]
            .events
            .iter()
            .filter(|e| e.name.starts_with("service"))
            .all(|e| e.track == Track::Queue));
        for rt in &trace.ranks {
            ooc_trace::check_well_nested(rt).expect("static-share trace is well nested");
        }
    }

    #[test]
    fn observe_collects_dispatch_events_without_perturbing_the_replay() {
        let p = uniform_profile(4, 0.0, 1.0);
        let jobs = [FarmJob::new(1, &p), FarmJob::new(2, &p)];
        let cfg = FarmConfig {
            policy: Policy::Fifo,
            trace: true,
            ..FarmConfig::default()
        };
        let plain = simulate(&jobs, &cfg);
        let mut sim = FarmSim::new(
            1,
            FarmConfig {
                observe: true,
                ..cfg
            },
        );
        for j in &jobs {
            sim.admit(j);
        }
        sim.run_to_end();
        let events = sim.drain_obs();
        let observed = sim.finish();
        assert_eq!(plain.served, observed.served, "observation is transparent");
        assert_eq!(plain.trace, observed.trace);
        assert_eq!(events.len(), plain.served.len());
        for w in events.windows(2) {
            assert!(w[0].t <= w[1].t, "drained events are time-ordered");
        }
        // Dispatch payloads mirror the served log.
        for (e, sv) in events.iter().zip(&observed.served) {
            assert_eq!(e.t.to_bits(), sv.start.to_bits());
            assert_eq!(e.job, sv.job);
            let ObsKind::Dispatched {
                disk,
                seq,
                wait,
                service,
                ..
            } = e.kind.clone()
            else {
                panic!("farm publishes only Dispatched, got {:?}", e.kind);
            };
            assert_eq!(disk, sv.disk);
            assert_eq!(seq, sv.seq);
            assert_eq!(wait.to_bits(), sv.wait().to_bits());
            assert_eq!(service.to_bits(), sv.service.to_bits());
        }
        // A second drain is empty.
        assert!(FarmSim::new(1, cfg).drain_obs().is_empty());
    }

    /// A profile with `ranks` identical streams of evenly spaced requests.
    fn wide_profile(ranks: usize, n: usize, gap: f64, service: f64) -> JobProfile {
        let one = uniform_profile(n, gap, service);
        JobProfile {
            rank_finish: vec![one.rank_finish[0]; ranks],
            streams: vec![one.streams[0].clone(); ranks],
            ..JobProfile::default()
        }
    }

    /// A job whose rank `r` replays `uniform_profile(n, gap, service)` of
    /// `ranks[r]`, its offsets moved to start at `offset`.
    fn ranked_profile(ranks: &[(usize, f64, f64)], offset: u64) -> JobProfile {
        let mut p = JobProfile::default();
        for &(n, gap, service) in ranks {
            let mut one = uniform_profile(n, gap, service);
            for r in &mut one.streams[0] {
                r.offset = r.offset.map(|o| o + offset);
            }
            p.rank_finish.push(one.rank_finish[0]);
            p.streams.push(one.streams.remove(0));
        }
        p
    }

    /// The report does not depend on how the timeline is chunked: per-job
    /// float totals are summed once, in disk then service order, and every
    /// policy (static share included) serves each disk in start order.
    #[test]
    fn horizon_chunked_replay_is_bitwise_identical_to_batch() {
        let a = ranked_profile(&[(8, 0.25, 1.0), (6, 0.1, 0.37), (5, 0.0, 0.61)], 0);
        let b = ranked_profile(&[(6, 0.0, 1.5), (7, 0.13, 0.29), (4, 0.3, 0.83)], 900);
        let c = ranked_profile(&[(5, 0.07, 0.41), (3, 0.2, 1.1), (9, 0.05, 0.23)], 300);
        let d = ranked_profile(&[(7, 0.11, 0.53), (6, 0.0, 0.47)], 150);
        let jobs = [
            FarmJob::new(1, &a),
            FarmJob {
                base: 0.7,
                ..FarmJob::new(2, &b)
            },
            FarmJob {
                base: 1.3,
                weight: 2.0,
                qos_slack: 3.0,
                ..FarmJob::new(3, &c)
            },
            FarmJob {
                base: 0.45,
                weight: 0.5,
                ..FarmJob::new(4, &d)
            },
        ];
        for policy in Policy::ALL {
            let cfg = FarmConfig {
                policy,
                seek_penalty: 0.05,
                trace: true,
                ..FarmConfig::default()
            };
            let batch = simulate(&jobs, &cfg);
            let mut sim = FarmSim::new(3, cfg);
            for j in &jobs {
                sim.admit(j);
            }
            // Advance in awkward fractional steps, then drain.
            let mut h = 0.3;
            while h < 40.0 {
                sim.run_until(h);
                h += 0.7;
            }
            sim.run_to_end();
            let chunked = sim.finish();
            assert_eq!(batch, chunked, "{policy:?}");
            // `Debug` prints every float's shortest round trip: equal
            // strings are equal bits.
            assert_eq!(format!("{batch:?}"), format!("{chunked:?}"), "{policy:?}");
        }
    }

    #[test]
    fn late_admission_uses_an_idle_disk_gap() {
        // A lone early job drains by t=2; a job admitted later must start
        // at its own base, not at some stale committed clock.
        let early = uniform_profile(2, 0.0, 1.0);
        let late = uniform_profile(2, 0.0, 1.0);
        let cfg = FarmConfig {
            policy: Policy::Fifo,
            ..FarmConfig::default()
        };
        let mut sim = FarmSim::new(1, cfg);
        sim.admit(&FarmJob::new(1, &early));
        // Stop exactly at the horizon where the early job has fully drained.
        sim.run_until(10.0);
        let slot = sim.admit(&FarmJob {
            base: 20.0,
            ..FarmJob::new(2, &late)
        });
        sim.run_to_end();
        assert!(sim.job_done(slot));
        let c = sim.completion(slot).unwrap();
        assert_eq!(
            c.to_bits(),
            (20.0 + late.makespan()).to_bits(),
            "late job replays solo on the idle disk"
        );
    }

    #[test]
    fn killed_disk_migrates_streams_and_jobs_still_finish() {
        let p = wide_profile(2, 6, 0.5, 1.0);
        let cfg = FarmConfig {
            policy: Policy::Fifo,
            ..FarmConfig::default()
        };
        let mut sim = FarmSim::new(2, cfg);
        let slot = sim.admit(&FarmJob::new(1, &p));
        sim.run_until(2.0);
        sim.kill_disk(1);
        assert_eq!(sim.alive_disks(), 1);
        sim.run_to_end();
        assert!(sim.job_done(slot), "job survives the disk death");
        let rep = sim.finish();
        // Disk 1 served nothing after its death at t=2 (an in-flight
        // request may finish at exactly 2.0 + service).
        for sv in rep.served.iter().filter(|s| s.disk == 1) {
            assert!(sv.start < 2.0 + 1.0);
        }
        // Every request was served exactly once.
        assert_eq!(rep.served.len(), 12);
        assert!(rep.jobs[0].completion >= p.makespan());
    }

    #[test]
    fn resumed_job_replays_only_the_suffix() {
        let p = uniform_profile(10, 0.25, 1.0);
        let cfg = FarmConfig {
            policy: Policy::Fifo,
            ..FarmConfig::default()
        };
        let mut sim = FarmSim::new(1, cfg);
        let slot = sim.admit_resumed(
            &FarmJob {
                base: 5.0,
                ..FarmJob::new(3, &p)
            },
            &[4],
        );
        sim.run_to_end();
        assert!(sim.job_done(slot));
        let rep = sim.finish();
        assert_eq!(rep.served.len(), 6, "the first 4 requests are skipped");
        assert_eq!(rep.served[0].seq, 4);
        // The watermark request is re-anchored to start at the new base.
        assert_eq!(rep.served[0].start.to_bits(), 5.0f64.to_bits());
        // Suffix solo gaps are preserved: completion = base + remaining tail.
        let origin = p.streams[0][4].t0;
        assert_eq!(
            rep.jobs[0].completion.to_bits(),
            (5.0 + (p.rank_finish[0] - origin)).to_bits()
        );
    }

    #[test]
    fn hung_stream_stalls_the_job_without_blocking_others() {
        let p = uniform_profile(6, 0.0, 1.0);
        let q = uniform_profile(6, 0.0, 1.0);
        let cfg = FarmConfig {
            policy: Policy::Fifo,
            ..FarmConfig::default()
        };
        let mut sim = FarmSim::new(1, cfg);
        let hung = sim.admit(&FarmJob::new(1, &p));
        let fine = sim.admit(&FarmJob::new(2, &q));
        // Requests at/past solo time 3.0 (seq >= 3) never arrive.
        sim.hang(hung, 0, 3.0);
        sim.run_to_end();
        assert!(!sim.job_done(hung));
        assert!(sim.stalled(hung), "all remaining requests are hung");
        assert_eq!(sim.progress(hung), 3);
        assert!(sim.job_done(fine), "the healthy job drains past the hang");
        assert!(!sim.stalled(fine));
        // Killing the hung job releases its slot; cursors reflect progress.
        let cursors = sim.remove_job(hung);
        assert_eq!(cursors, vec![3]);
        assert!(!sim.job_done(hung));
    }
}
