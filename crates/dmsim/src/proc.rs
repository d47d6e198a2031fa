//! Per-processor execution context.
//!
//! A [`ProcCtx`] is the view one simulated processor has of the machine: its
//! rank, its virtual clock, its operation counters, and its endpoints into
//! the message fabric. The out-of-core runtime layers (`pario`, `noderun`)
//! charge all their work through this context so that simulated time and the
//! paper's two I/O metrics stay consistent by construction.

use std::cell::{Cell, RefCell};

use ooc_trace::{Args, Category, RankTrace, SpanId, Tracer, Track};
use serde::{Deserialize, Serialize};

use crate::collectives::CommError;
use crate::comm::{Endpoints, Msg, Payload, RecvError, Tag};
use crate::costmodel::CostModel;
use crate::fault::{FaultCharges, FaultInjector};
use crate::pool::CoroHook;
use crate::stats::{ProcStats, StatsSnapshot};
use crate::time::{Clock, SimTime};

/// Processor rank, `0..nprocs`.
pub type Rank = usize;

/// How this processor's execution engine blocks at clock-advance points.
pub(crate) enum Blocker {
    /// The rank is an OS thread: block on the mailbox condvar.
    Thread,
    /// The rank is a coroutine on the worker pool: park / yield through
    /// the scheduler hook.
    Coro(CoroHook),
}

impl Blocker {
    fn hook(&self) -> Option<&CoroHook> {
        match self {
            Blocker::Thread => None,
            Blocker::Coro(h) => Some(h),
        }
    }
}

/// The execution context handed to the SPMD closure on each processor.
pub struct ProcCtx {
    rank: Rank,
    nprocs: usize,
    cost: CostModel,
    clock: Clock,
    stats: ProcStats,
    endpoints: RefCell<Endpoints>,
    /// Message-domain fault injector; `None` runs the exact fault-free path.
    faults: Option<FaultInjector>,
    /// Simulated-clock event recorder; `None` (the default) keeps every
    /// instrumented path a single branch.
    tracer: Option<Tracer>,
    /// Array identity of the I/O operation currently charging, set by the
    /// runtime layers via `set_io_hint` so disk spans carry array names.
    io_hint: RefCell<Option<(String, u64)>>,
    /// File offset of the I/O operation currently charging, set by the disk
    /// substrate via `set_io_offset`; consumed by the next disk span when
    /// the trace configuration asks for I/O detail.
    io_offset: Cell<Option<u64>>,
    /// Workload job identity (0 for single-program runs).
    job: u32,
    /// How this rank blocks: as an OS thread or as a pooled coroutine.
    blocker: Blocker,
}

impl ProcCtx {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        rank: Rank,
        nprocs: usize,
        cost: CostModel,
        endpoints: Endpoints,
        faults: Option<FaultInjector>,
        tracer: Option<Tracer>,
        job: u32,
        blocker: Blocker,
    ) -> Self {
        ProcCtx {
            rank,
            nprocs,
            cost,
            clock: Clock::new(),
            stats: ProcStats::new(),
            endpoints: RefCell::new(endpoints),
            faults,
            tracer,
            io_hint: RefCell::new(None),
            io_offset: Cell::new(None),
            job,
            blocker,
        }
    }

    /// Refresh the scheduler's virtual-time key for this rank (pooled
    /// engine only) right before a potential suspension.
    fn sync_blocker_vtime(&self) -> Option<&CoroHook> {
        let hook = self.blocker.hook();
        if let Some(h) = hook {
            h.set_vtime_bits(self.clock.now().seconds().to_bits());
        }
        hook
    }

    /// A clock-advance point with no data dependency (a disk wait in the
    /// parallel I/O layer): give ranks that are behind in virtual time a
    /// chance to run. No-op on the threaded engine; purely a scheduling
    /// hint on the pooled one — results are bitwise-identical either way.
    pub fn io_yield(&self) {
        if let Some(h) = self.sync_blocker_vtime() {
            h.coop_yield();
        }
    }

    /// This processor's rank.
    #[inline]
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of processors in the SPMD region.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Current local simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Whether event tracing is active on this processor.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// The event recorder, when tracing is enabled.
    #[inline]
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Workload job identity this processor runs under (0 outside
    /// multi-job workloads).
    #[inline]
    pub fn job(&self) -> u32 {
        self.job
    }

    /// Tag subsequent disk charges with the array identity they serve.
    /// No-op when tracing is off. Called by the I/O runtime layers, which
    /// know the array; the disk substrate below them only sees offsets.
    pub fn set_io_hint(&self, array: &str, file: u64) {
        if self.tracer.is_some() {
            *self.io_hint.borrow_mut() = Some((array.to_string(), file));
        }
    }

    /// Tag the *next* disk charge with its starting file offset. Recorded
    /// on the span only when the trace configuration enables `io_detail`,
    /// and consumed by that one charge — stale offsets never leak onto
    /// later spans.
    pub fn set_io_offset(&self, offset: u64) {
        if self.tracer.as_ref().is_some_and(|tr| tr.config().io_detail) {
            self.io_offset.set(Some(offset));
        }
    }

    fn hinted_args(&self, requests: u64, bytes: u64) -> Args {
        let mut args = Args::io(requests, bytes);
        if let Some((array, file)) = self.io_hint.borrow().as_ref() {
            args = args.with_array(array, Some(*file));
        }
        if let Some(offset) = self.io_offset.take() {
            args = args.with_offset(offset);
        }
        args
    }

    /// Record a completed charge span `[t0, now]` if tracing; `args` is
    /// only built then.
    fn trace_charge(
        &self,
        cat: Category,
        name: &str,
        t0: SimTime,
        track: Track,
        args: impl FnOnce() -> Args,
    ) {
        if let Some(tr) = &self.tracer {
            tr.span(
                cat,
                name,
                t0.seconds(),
                self.clock.now().seconds(),
                track,
                args(),
            );
        }
    }

    /// Open a structural span closed when the returned guard drops. With
    /// tracing off this is free of allocation and recording.
    pub fn trace_span(&self, cat: Category, name: &str) -> TraceSpanGuard<'_> {
        self.open_guard(cat, name, Args::default(), None)
    }

    /// Open a structural span carrying a slab / stage index.
    pub fn trace_slab_span(&self, name: &str, slab: u64) -> TraceSpanGuard<'_> {
        self.open_guard(Category::Slab, name, Args::default().with_slab(slab), None)
    }

    /// Open a statement-level phase scope: until the guard drops, every
    /// recorded event is attributed to phase `name`.
    pub fn trace_phase(&self, name: &str) -> TraceSpanGuard<'_> {
        self.open_guard(Category::Phase, name, Args::default(), Some(name))
    }

    /// Enter an I/O access-method scope: until the returned guard drops,
    /// disk-transfer events carry `label` (`direct`, `sieved`, `two-phase`)
    /// so metrics can histogram request sizes per method. No-op with
    /// tracing off.
    pub fn trace_io_method(&self, label: &str) -> IoMethodGuard<'_> {
        if let Some(tr) = &self.tracer {
            tr.push_io_method(label);
        }
        IoMethodGuard { ctx: self }
    }

    fn open_guard(
        &self,
        cat: Category,
        name: &str,
        args: Args,
        phase_name: Option<&str>,
    ) -> TraceSpanGuard<'_> {
        let id = self
            .tracer
            .as_ref()
            .map(|tr| tr.open_span(cat, name, self.clock.now().seconds(), args, phase_name));
        TraceSpanGuard { ctx: self, id }
    }

    /// Record a point annotation at the current simulated time.
    pub fn trace_instant(&self, cat: Category, name: &str, args: Args) {
        if let Some(tr) = &self.tracer {
            tr.instant(cat, name, self.clock.now().seconds(), args);
        }
    }

    /// Record a counter sample at the current simulated time.
    pub fn trace_counter(&self, name: &str, value: f64) {
        if let Some(tr) = &self.tracer {
            tr.counter(name, self.clock.now().seconds(), value);
        }
    }

    /// Charge `n` floating point operations to this processor.
    pub fn charge_flops(&self, n: u64) {
        let dt = self.cost.compute_time(n);
        let t0 = self.clock.now();
        self.clock.advance(dt);
        self.stats.record_flops(n, dt);
        self.trace_charge(Category::Compute, "compute", t0, Track::Main, || Args {
            value: Some(n as f64),
            ..Args::default()
        });
    }

    /// Charge a disk read of `requests` requests moving `bytes` bytes.
    /// Called by the parallel I/O layer.
    pub fn charge_io_read(&self, requests: u64, bytes: u64) {
        let dt = self.cost.io_time(requests, bytes);
        let t0 = self.clock.now();
        self.clock.advance(dt);
        self.stats.record_io_read(requests, bytes, dt);
        self.trace_charge(Category::DiskRead, "read", t0, Track::Main, || {
            self.hinted_args(requests, bytes)
        });
    }

    /// Charge a disk write of `requests` requests moving `bytes` bytes
    /// (write-behind: see [`CostModel::io_write_time`]).
    pub fn charge_io_write(&self, requests: u64, bytes: u64) {
        let dt = self.cost.io_write_time(requests, bytes);
        let t0 = self.clock.now();
        self.clock.advance(dt);
        self.stats.record_io_write(requests, bytes, dt);
        self.trace_charge(Category::DiskWrite, "write", t0, Track::Main, || {
            self.hinted_args(requests, bytes)
        });
    }

    /// Record `runs` read accesses of `bytes` served from the slab cache.
    /// Hits move no data and advance no clock — only the observability
    /// counters change.
    pub fn charge_io_cache_hit(&self, runs: u64, bytes: u64) {
        self.stats.record_cache_hit(runs, bytes);
        if self.tracer.is_some() {
            let args = self.hinted_args(runs, bytes);
            self.trace_instant(Category::CacheHit, "hit", args);
        }
    }

    /// Charge a dirty-slab write-back: timed like an ordinary disk write
    /// and additionally tracked in the write-back counters, so
    /// `io_write_requests` keeps meaning "requests that reached the disk".
    /// Write-backs happen at eviction/flush time, possibly far from the
    /// access that dirtied the slab; the cache re-establishes the owning
    /// array via `set_io_hint` just before charging, so the span carries
    /// the array identity like any other disk span.
    pub fn charge_io_write_back(&self, requests: u64, bytes: u64) {
        let dt = self.cost.io_write_time(requests, bytes);
        let t0 = self.clock.now();
        self.clock.advance(dt);
        self.stats.record_io_write_back(requests, bytes, dt);
        self.trace_charge(Category::WriteBack, "write_back", t0, Track::Main, || {
            self.hinted_args(requests, bytes)
        });
    }

    /// Charge an arbitrary fixed delay (used by redistribution setup and the
    /// prefetch pipeline model).
    pub fn charge_seconds(&self, dt: f64) {
        self.clock.advance(dt);
    }

    /// Charge recovery work accumulated by the I/O fault layer: re-issued
    /// requests are timed like the originals, backoff and latency spikes are
    /// pure waiting. None of it touches the logical request/byte counters —
    /// the new fault counters record it instead.
    pub fn charge_io_faults(&self, c: &FaultCharges) {
        if c.is_zero() {
            return;
        }
        let dt = self.cost.io_time(c.read_retries, c.read_retry_bytes)
            + self
                .cost
                .io_write_time(c.write_retries, c.write_retry_bytes)
            + c.wait_secs;
        let t0 = self.clock.now();
        self.clock.advance(dt);
        self.stats
            .record_io_faults(c.faults, c.read_retries + c.write_retries, dt);
        self.trace_charge(Category::Fault, "io_recovery", t0, Track::Main, || {
            Args::io(
                c.read_retries + c.write_retries,
                c.read_retry_bytes + c.write_retry_bytes,
            )
        });
    }

    /// Charge a disk read that was *prefetched*: it overlapped `flops` of
    /// computation, so the clock advances by
    /// [`CostModel::overlapped_read_time`] while the counters record both
    /// components in full (software pipelining of slab fetches, as in the
    /// PASSION runtime).
    pub fn charge_prefetched_read(&self, requests: u64, bytes: u64, flops: u64) {
        let io_t = self.cost.io_time(requests, bytes);
        let comp_t = self.cost.compute_time(flops);
        let t0 = self.clock.now();
        self.stats.record_io_read(requests, bytes, io_t);
        self.stats.record_flops(flops, comp_t);
        self.clock
            .advance(self.cost.overlapped_read_time(requests, bytes, flops));
        if self.tracer.is_some() {
            // The read overlaps the compute, so its span lives on the
            // prefetch track: both tracks individually stay non-overlapping
            // while the timeline shows the software pipelining.
            let t = t0.seconds();
            if let Some(tr) = &self.tracer {
                tr.span(
                    Category::DiskRead,
                    "prefetch_read",
                    t,
                    t + io_t,
                    Track::Overlap,
                    self.hinted_args(requests, bytes),
                );
                tr.span(
                    Category::Compute,
                    "compute",
                    t,
                    t + comp_t,
                    Track::Main,
                    Args {
                        value: Some(flops as f64),
                        ..Args::default()
                    },
                );
            }
        }
    }

    /// Blocking send of `payload` to `dst` with matching `tag`.
    ///
    /// Advances this processor's clock by the full transfer time and stamps
    /// the message with its arrival instant.
    pub fn send(&self, dst: Rank, tag: Tag, payload: Payload) {
        assert!(dst < self.nprocs, "send to rank {dst} of {}", self.nprocs);
        assert_ne!(dst, self.rank, "self-send is a protocol error");
        let bytes = payload.size_bytes();
        // Injected message faults are resolved sender-side: a dropped attempt
        // costs a full transfer plus a retransmission backoff, a delay pushes
        // the arrival instant out. The payload itself always arrives intact,
        // so injected faults can never change computed values.
        let mut extra_delay = 0.0;
        if let Some(fi) = &self.faults {
            let plan = fi.msg_plan();
            for attempt in 1..=plan.drops {
                let lost = self.cost.message_time(bytes) + fi.retry().backoff(attempt);
                let t0 = self.clock.now();
                self.clock.advance(lost);
                self.stats.record_msg_retry(lost);
                self.trace_charge(Category::Retry, "msg_retry", t0, Track::Main, || {
                    Args::msg(dst, bytes)
                });
            }
            if plan.delay_secs > 0.0 {
                extra_delay = plan.delay_secs;
                self.stats.record_msg_delay();
                self.trace_instant(Category::Fault, "msg_delay", Args::msg(dst, bytes));
            }
        }
        let dt = self.cost.message_time(bytes);
        let t0 = self.clock.now();
        let arrival = self.clock.advance(dt);
        let arrival = SimTime(arrival.seconds() + extra_delay);
        self.stats.record_send(bytes, dt);
        self.trace_charge(Category::Send, "send", t0, Track::Main, || {
            Args::msg(dst, bytes)
        });
        // A `false` return means `dst` already aborted (permanent fault);
        // the charge above stands either way so the sender's clock and
        // counters never depend on peer liveness.
        let _ = self.endpoints.borrow().send(
            dst,
            Msg {
                tag,
                payload,
                arrival,
            },
        );
    }

    /// Blocking receive from `src` with matching `tag`.
    ///
    /// The receiver's clock is moved forward to the message's arrival time if
    /// it was waiting; time already past arrival costs nothing.
    pub fn recv(&self, src: Rank, tag: Tag) -> Result<Payload, RecvError> {
        assert!(src < self.nprocs, "recv from rank {src} of {}", self.nprocs);
        let hook = self.sync_blocker_vtime();
        let msg = self.endpoints.borrow().recv(src, tag, hook)?;
        let before = self.clock.now();
        let after = self.clock.sync_to(msg.arrival);
        let wait = (after.seconds() - before.seconds()).max(0.0);
        let bytes = msg.payload.size_bytes();
        self.stats.record_recv(bytes, wait);
        self.trace_charge(Category::Recv, "recv", before, Track::Main, || {
            Args::msg(src, bytes)
        });
        Ok(msg.payload)
    }

    /// Receive an `F32` payload, surfacing dead peers and payload
    /// mismatches as [`CommError`] — what the executors' exchanges use.
    pub fn try_recv_f32(&self, src: Rank, tag: Tag) -> Result<Vec<f32>, CommError> {
        Ok(self.recv(src, tag)?.try_into_f32()?)
    }

    /// Snapshot of this processor's counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    pub(crate) fn finish(self) -> (ProcReport, Option<RankTrace>) {
        let report = ProcReport {
            rank: self.rank,
            finish_time: self.clock.now().seconds(),
            stats: self.stats.snapshot(),
        };
        (report, self.tracer.map(Tracer::finish))
    }
}

/// RAII scope for a structural trace span opened through
/// [`ProcCtx::trace_span`] / [`ProcCtx::trace_phase`]: the span closes at
/// the simulated time the guard drops. With tracing off the guard is inert.
pub struct TraceSpanGuard<'a> {
    ctx: &'a ProcCtx,
    id: Option<SpanId>,
}

impl Drop for TraceSpanGuard<'_> {
    fn drop(&mut self) {
        if let (Some(tr), Some(id)) = (&self.ctx.tracer, self.id) {
            tr.close_span(id, self.ctx.clock.now().seconds());
        }
    }
}

/// RAII scope for an I/O access-method label opened through
/// [`ProcCtx::trace_io_method`]; pops the method on drop.
pub struct IoMethodGuard<'a> {
    ctx: &'a ProcCtx,
}

impl Drop for IoMethodGuard<'_> {
    fn drop(&mut self) {
        if let Some(tr) = &self.ctx.tracer {
            tr.pop_io_method();
        }
    }
}

/// Final state of one processor after the SPMD region.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProcReport {
    /// The processor's rank.
    pub rank: Rank,
    /// Its clock when it finished, in simulated seconds.
    pub finish_time: f64,
    /// Its operation counters.
    pub stats: StatsSnapshot,
}

/// Result of running an SPMD region on the simulated machine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    per_proc: Vec<ProcReport>,
    wall_seconds: f64,
    trace: Option<ooc_trace::Trace>,
    /// Peak resident set size of the *host* process, when a harness
    /// recorded one (see `ooc-bench`'s `/proc/self/status` reader). Not a
    /// simulated quantity: excluded from parity comparisons.
    peak_rss_bytes: Option<u64>,
}

impl RunReport {
    pub(crate) fn new(
        mut per_proc: Vec<ProcReport>,
        wall_seconds: f64,
        trace: Option<ooc_trace::Trace>,
    ) -> Self {
        per_proc.sort_by_key(|p| p.rank);
        RunReport {
            per_proc,
            wall_seconds,
            trace,
            peak_rss_bytes: None,
        }
    }

    /// Best-effort peak resident memory of the simulating process, if a
    /// harness attached one via [`RunReport::set_peak_rss_bytes`].
    pub fn peak_rss_bytes(&self) -> Option<u64> {
        self.peak_rss_bytes
    }

    /// Attach a host peak-RSS measurement (bytes) to the report.
    pub fn set_peak_rss_bytes(&mut self, bytes: Option<u64>) {
        self.peak_rss_bytes = bytes;
    }

    /// The recorded simulated-clock trace, when tracing was enabled on the
    /// machine configuration.
    pub fn trace(&self) -> Option<&ooc_trace::Trace> {
        self.trace.as_ref()
    }

    /// Detach the recorded trace from the report.
    pub fn take_trace(&mut self) -> Option<ooc_trace::Trace> {
        self.trace.take()
    }

    /// Number of processors that ran.
    pub fn nprocs(&self) -> usize {
        self.per_proc.len()
    }

    /// Per-processor reports, ordered by rank.
    pub fn per_proc(&self) -> &[ProcReport] {
        &self.per_proc
    }

    /// Simulated elapsed time of the region: the latest finish time.
    pub fn elapsed(&self) -> f64 {
        self.per_proc
            .iter()
            .map(|p| p.finish_time)
            .fold(0.0, f64::max)
    }

    /// Counters summed over all processors.
    pub fn totals(&self) -> StatsSnapshot {
        self.per_proc
            .iter()
            .fold(StatsSnapshot::default(), |acc, p| acc.merge(&p.stats))
    }

    /// Maximum per-processor I/O requests — the paper's "requests per
    /// processor" metric (processors are symmetric in its experiments).
    pub fn io_requests_per_proc(&self) -> u64 {
        self.per_proc
            .iter()
            .map(|p| p.stats.io_requests())
            .max()
            .unwrap_or(0)
    }

    /// Maximum per-processor I/O bytes — the paper's "data fetched per
    /// processor" metric.
    pub fn io_bytes_per_proc(&self) -> u64 {
        self.per_proc
            .iter()
            .map(|p| p.stats.io_bytes())
            .max()
            .unwrap_or(0)
    }

    /// Host wall-clock seconds the simulation itself took (not simulated
    /// time; useful for harness diagnostics only).
    pub fn wall_seconds(&self) -> f64 {
        self.wall_seconds
    }
}
