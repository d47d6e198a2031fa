//! Deterministic tracing and metrics for the out-of-core compiler stack.
//!
//! The paper's argument is a cost story: where simulated time goes — I/O
//! requests, bytes, messages — per translation scheme (Tables 1–2, Fig. 10).
//! End-of-run totals (`ProcStats` / `DiskStats`) answer *how much*; this
//! crate answers *when* and *why* by recording a per-rank timeline of spans
//! stamped with the **simulated** clock. Because every timestamp comes from
//! the deterministic virtual clock (never the host), traces are
//! byte-for-byte reproducible across runs and seeds, including chaos runs.
//!
//! Three sinks consume a recorded [`Trace`]:
//!
//! * [`perfetto`] — Chrome-trace-event JSON loadable in Perfetto / chrome
//!   tracing (one process per rank, counter tracks for cache occupancy).
//! * [`metrics`] — an in-memory registry of histograms (I/O request size,
//!   message size, retry backoff) and per-array / per-phase / per-category
//!   attribution.
//! * [`json`] — a minimal hand-rolled JSON parser used to validate exported
//!   traces against a checked-in schema (CI `trace_smoke`).
//!
//! [`digest`] holds the FNV-1a fingerprint every layer stamps its
//! deterministic artifacts with.
//!
//! This crate sits below `dmsim` in the dependency graph, so timestamps are
//! plain `f64` simulated seconds rather than `dmsim::SimTime`.

use std::cell::RefCell;

use serde::{Deserialize, Serialize};

pub mod digest;
pub mod html;
pub mod json;
pub mod metrics;
pub mod perfetto;
pub mod prom;

/// Tracing configuration, threaded `CompilerOptions` → `RunConfig` →
/// `MachineConfig`. Default is fully off: with `enabled == false` no
/// [`Tracer`] is constructed and the instrumented code paths reduce to a
/// `None` check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Master switch: record span/instant events on the simulated clock.
    pub enabled: bool,
    /// Also emit counter samples (cache occupancy, outstanding dirty bytes).
    pub counters: bool,
    /// Stamp disk-transfer spans with per-request detail (file offsets) so
    /// scheduling layers can replay them. Off by default: without it the
    /// recorded events — and therefore exported traces — are byte-identical
    /// to builds that predate the detail fields.
    pub io_detail: bool,
}

impl TraceConfig {
    /// Tracing fully on (spans + counters).
    pub fn on() -> TraceConfig {
        TraceConfig {
            enabled: true,
            counters: true,
            io_detail: false,
        }
    }

    /// Spans only, no counter tracks.
    pub fn spans_only() -> TraceConfig {
        TraceConfig {
            enabled: true,
            counters: false,
            io_detail: false,
        }
    }

    /// Tracing fully on, including per-request I/O detail (offsets) for
    /// scheduling replay (`ooc-sched`).
    pub fn detailed() -> TraceConfig {
        TraceConfig {
            enabled: true,
            counters: true,
            io_detail: true,
        }
    }
}

/// Event taxonomy. Every instrumented operation in the stack maps to
/// exactly one category; [`Category::time_group`] defines how span
/// durations reconcile against the `ProcStats` time counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Category {
    /// Statement-level scope (`s0:gaxpy(c)` …); pushes a phase name.
    Phase,
    /// Structural executor scope (slab loop, transpose stage, ghost
    /// exchange); does not affect phase attribution.
    Slab,
    /// Charged floating-point work.
    Compute,
    /// Message transmit (fabric latency + bandwidth).
    Send,
    /// Message receive (wait until arrival).
    Recv,
    /// Collective operation scope (reduce, broadcast, …); inner sends and
    /// receives nest inside it.
    Collective,
    /// Two-phase I/O exchange scope: the all-to-all that moves data from
    /// the file-conforming to the computation-conforming decomposition.
    /// Inner sends and receives nest inside it.
    Exchange,
    /// Disk read transfer.
    DiskRead,
    /// Disk write transfer.
    DiskWrite,
    /// Dirty-slab write-back issued by the cache.
    WriteBack,
    /// Cache hit (instant: no simulated time passes).
    CacheHit,
    /// Sieve read annotation (spanning read vs useful bytes).
    Sieve,
    /// Injected-fault recovery time (torn-write repair, latency faults).
    Fault,
    /// Retry of a dropped message or failed I/O, including backoff.
    Retry,
    /// Checkpoint write / restore scope.
    Checkpoint,
    /// Array redistribution scope.
    Redist,
    /// Disk-farm queueing event (enqueue instants, wait spans, queue-depth
    /// counters) emitted by the `ooc-sched` scheduling layer. Queueing is
    /// waiting, not transfer, so it joins no `ProcStats` time group.
    Queue,
    /// Workload fault-domain executive event (admissions, watchdog kills,
    /// deadline misses, preemptions, resumes, quarantines, disk deaths)
    /// emitted by the `ooc-sched` guarded runtime. Control-plane actions
    /// charge no simulated time, so the category joins no time group.
    FaultDomain,
    /// Irregular-access inspector scope: the one-time indirection read,
    /// owner binning and want-list exchange that build an `IrregSchedule`.
    /// Structural — its charged reads/sends nest inside it.
    Inspector,
    /// Irregular-access executor scope: one gather driven by a cached
    /// schedule. Structural, like [`Category::Redist`].
    Gather,
}

/// Which `ProcStats` time counter a category's span durations sum into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeGroup {
    /// `time_compute`.
    Compute,
    /// `time_comm`.
    Comm,
    /// `time_io`.
    Io,
    /// `time_faults`.
    Faults,
}

impl Category {
    /// All categories, in display order.
    pub const ALL: [Category; 20] = [
        Category::Phase,
        Category::Slab,
        Category::Compute,
        Category::Send,
        Category::Recv,
        Category::Collective,
        Category::Exchange,
        Category::DiskRead,
        Category::DiskWrite,
        Category::WriteBack,
        Category::CacheHit,
        Category::Sieve,
        Category::Fault,
        Category::Retry,
        Category::Checkpoint,
        Category::Redist,
        Category::Queue,
        Category::FaultDomain,
        Category::Inspector,
        Category::Gather,
    ];

    /// Stable lowercase label used in exported JSON.
    pub fn label(&self) -> &'static str {
        match self {
            Category::Phase => "phase",
            Category::Slab => "slab",
            Category::Compute => "compute",
            Category::Send => "send",
            Category::Recv => "recv",
            Category::Collective => "collective",
            Category::Exchange => "exchange",
            Category::DiskRead => "disk_read",
            Category::DiskWrite => "disk_write",
            Category::WriteBack => "write_back",
            Category::CacheHit => "cache_hit",
            Category::Sieve => "sieve",
            Category::Fault => "fault",
            Category::Retry => "retry",
            Category::Checkpoint => "checkpoint",
            Category::Redist => "redist",
            Category::Queue => "queue",
            Category::FaultDomain => "fault_domain",
            Category::Inspector => "inspector",
            Category::Gather => "gather",
        }
    }

    /// Reconciliation group: charged leaf categories sum into exactly one
    /// `ProcStats` time counter; structural scopes (phase, slab, collective,
    /// exchange, checkpoint, redist, inspector, gather) and zero-duration
    /// annotations return `None`.
    pub fn time_group(&self) -> Option<TimeGroup> {
        match self {
            Category::Compute => Some(TimeGroup::Compute),
            Category::Send | Category::Recv => Some(TimeGroup::Comm),
            Category::DiskRead | Category::DiskWrite | Category::WriteBack => Some(TimeGroup::Io),
            Category::Fault | Category::Retry => Some(TimeGroup::Faults),
            _ => None,
        }
    }
}

/// Timeline track within a rank's process. Charged operations normally run
/// sequentially on [`Track::Main`]; prefetched reads overlap compute, so
/// their I/O spans live on [`Track::Overlap`] to keep every track
/// well-nested and non-overlapping. Queueing spans (waits of competing
/// requests, static-share services) overlap each other *by design*, so they
/// live on [`Track::Queue`], the one track exempt from nesting checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Track {
    /// The rank's main sequential timeline.
    Main,
    /// Prefetch I/O overlapped with main-track compute.
    Overlap,
    /// Disk-farm queueing spans (request waits, static-share services).
    /// Waits of different requests overlap freely; this track is exempt
    /// from [`check_well_nested`].
    Queue,
}

impl Track {
    /// Thread id used in the Chrome trace export.
    pub fn tid(&self) -> u32 {
        match self {
            Track::Main => 0,
            Track::Overlap => 1,
            Track::Queue => 2,
        }
    }

    /// Whether spans on this track must be well-nested and non-overlapping.
    /// [`Track::Queue`] carries inherently overlapping queueing spans and is
    /// exempt; every other track is checked by [`check_well_nested`].
    pub fn requires_nesting(&self) -> bool {
        !matches!(self, Track::Queue)
    }

    /// All tracks, in tid order.
    pub const ALL: [Track; 3] = [Track::Main, Track::Overlap, Track::Queue];
}

/// Optional structured payload attached to an event. All fields are
/// deterministic; absent fields are omitted from exported JSON.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Args {
    /// Array display name (`a`, `b`, …) the operation touches.
    pub array: Option<String>,
    /// Backing file id within the rank's logical disk.
    pub file: Option<u64>,
    /// Slab / stage index within the enclosing loop.
    pub slab: Option<u64>,
    /// I/O requests or message count covered by the event.
    pub requests: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Peer rank for point-to-point communication.
    pub peer: Option<usize>,
    /// Free-form scalar (flops for compute spans, counter values).
    pub value: Option<f64>,
    /// I/O access method in effect (`direct`, `sieved`, `two-phase`) —
    /// stamped on disk-transfer events inside a method scope, see
    /// [`Tracer::push_io_method`].
    #[serde(default)]
    pub method: Option<String>,
    /// Starting file offset of the first request covered by the event.
    /// Stamped on disk-transfer spans only when [`TraceConfig::io_detail`]
    /// is set; used by the `ooc-sched` elevator policy to order seeks.
    #[serde(default)]
    pub offset: Option<u64>,
}

impl Args {
    /// Requests + bytes payload.
    pub fn io(requests: u64, bytes: u64) -> Args {
        Args {
            requests,
            bytes,
            ..Args::default()
        }
    }

    /// Peer + bytes payload for point-to-point messages.
    pub fn msg(peer: usize, bytes: u64) -> Args {
        Args {
            peer: Some(peer),
            bytes,
            ..Args::default()
        }
    }

    /// Attach an array name.
    pub fn with_array(mut self, name: &str, file: Option<u64>) -> Args {
        self.array = Some(name.to_string());
        self.file = file;
        self
    }

    /// Attach a slab index.
    pub fn with_slab(mut self, slab: u64) -> Args {
        self.slab = Some(slab);
        self
    }

    /// Attach a starting file offset (scheduling replay detail).
    pub fn with_offset(mut self, offset: u64) -> Args {
        self.offset = Some(offset);
        self
    }
}

/// How an event renders on the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// `[t0, t1]` duration scope.
    Span,
    /// Point annotation at `t0`.
    Instant,
    /// Counter sample at `t0` (value in `args.value`).
    Counter,
}

/// One recorded event on a rank's timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Category (determines reconciliation group and export color).
    pub cat: Category,
    /// Short stable display name (`read`, `send`, `s0:gaxpy(c)`, …).
    pub name: String,
    /// Event kind.
    pub kind: EventKind,
    /// Start time, simulated seconds.
    pub t0: f64,
    /// End time, simulated seconds (== `t0` for instants and counters).
    pub t1: f64,
    /// Track within the rank's process.
    pub track: Track,
    /// Index into [`RankTrace::phases`] of the innermost enclosing phase.
    pub phase: Option<u32>,
    /// Structured payload.
    pub args: Args,
}

impl Event {
    /// Span duration in seconds (zero for instants).
    pub fn dur(&self) -> f64 {
        self.t1 - self.t0
    }
}

/// The completed timeline of one rank.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankTrace {
    /// Rank that recorded the events.
    pub rank: usize,
    /// Events in emission order (non-decreasing `t0` per track).
    pub events: Vec<Event>,
    /// Phase names, indexed by [`Event::phase`].
    pub phases: Vec<String>,
}

impl RankTrace {
    /// Name of the phase an event belongs to, if any.
    pub fn phase_name(&self, ev: &Event) -> Option<&str> {
        ev.phase.map(|i| self.phases[i as usize].as_str())
    }
}

/// A full machine trace: one [`RankTrace`] per rank, sorted by rank.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Trace {
    /// Per-rank timelines.
    pub ranks: Vec<RankTrace>,
}

impl Trace {
    /// Total number of events across all ranks.
    pub fn event_count(&self) -> usize {
        self.ranks.iter().map(|r| r.events.len()).sum()
    }
}

/// Handle to an open span; close it with [`Tracer::close_span`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId {
    index: usize,
    pops_phase: bool,
}

impl SpanId {
    /// Whether closing this span also pops a phase from the phase stack.
    pub fn pops_phase(&self) -> bool {
        self.pops_phase
    }
}

struct TracerInner {
    events: Vec<Event>,
    phases: Vec<String>,
    phase_stack: Vec<u32>,
    method_stack: Vec<String>,
}

/// Per-rank event recorder. Interior-mutable so instrumented code can emit
/// through a shared reference; never shared across threads (each rank owns
/// its tracer).
pub struct Tracer {
    rank: usize,
    cfg: TraceConfig,
    inner: RefCell<TracerInner>,
}

impl Tracer {
    /// New empty tracer for `rank`.
    pub fn new(rank: usize, cfg: TraceConfig) -> Tracer {
        Tracer {
            rank,
            cfg,
            inner: RefCell::new(TracerInner {
                events: Vec::new(),
                phases: Vec::new(),
                phase_stack: Vec::new(),
                method_stack: Vec::new(),
            }),
        }
    }

    /// Rank this tracer records for.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Configuration the tracer was built with.
    pub fn config(&self) -> TraceConfig {
        self.cfg
    }

    fn current_phase(inner: &TracerInner) -> Option<u32> {
        inner.phase_stack.last().copied()
    }

    /// Whether `cat` is a disk-transfer event that should carry the active
    /// I/O access-method label.
    fn carries_method(cat: Category) -> bool {
        matches!(
            cat,
            Category::DiskRead | Category::DiskWrite | Category::WriteBack | Category::CacheHit
        )
    }

    fn stamp_method(inner: &TracerInner, cat: Category, args: &mut Args) {
        if args.method.is_none() && Self::carries_method(cat) {
            args.method = inner.method_stack.last().cloned();
        }
    }

    /// Enter an I/O access-method scope: disk-transfer events recorded
    /// before the matching [`Tracer::pop_io_method`] are stamped with
    /// `label` so metrics can histogram requests per method.
    pub fn push_io_method(&self, label: &str) {
        self.inner.borrow_mut().method_stack.push(label.to_string());
    }

    /// Leave the innermost I/O access-method scope.
    pub fn pop_io_method(&self) {
        self.inner.borrow_mut().method_stack.pop();
    }

    /// Record a completed `[t0, t1]` span (charge-style instrumentation:
    /// the caller knows the duration only after charging the clock).
    pub fn span(&self, cat: Category, name: &str, t0: f64, t1: f64, track: Track, mut args: Args) {
        let mut inner = self.inner.borrow_mut();
        let phase = Self::current_phase(&inner);
        Self::stamp_method(&inner, cat, &mut args);
        inner.events.push(Event {
            cat,
            name: name.to_string(),
            kind: EventKind::Span,
            t0,
            t1,
            track,
            phase,
            args,
        });
    }

    /// Open a structural span at `t0`; scope-style instrumentation closed by
    /// [`Tracer::close_span`]. If `phase_name` is given, the span also
    /// pushes a phase: every event emitted before the close is attributed
    /// to it.
    pub fn open_span(
        &self,
        cat: Category,
        name: &str,
        t0: f64,
        args: Args,
        phase_name: Option<&str>,
    ) -> SpanId {
        let mut inner = self.inner.borrow_mut();
        let phase = Self::current_phase(&inner);
        let index = inner.events.len();
        inner.events.push(Event {
            cat,
            name: name.to_string(),
            kind: EventKind::Span,
            t0,
            t1: t0,
            track: Track::Main,
            phase,
            args,
        });
        let pops_phase = if let Some(p) = phase_name {
            let id = inner.phases.len() as u32;
            inner.phases.push(p.to_string());
            inner.phase_stack.push(id);
            true
        } else {
            false
        };
        SpanId { index, pops_phase }
    }

    /// Close a span opened with [`Tracer::open_span`] at `t1`.
    pub fn close_span(&self, id: SpanId, t1: f64) {
        let mut inner = self.inner.borrow_mut();
        inner.events[id.index].t1 = t1;
        if id.pops_phase {
            inner.phase_stack.pop();
        }
    }

    /// Record a point annotation at `t`.
    pub fn instant(&self, cat: Category, name: &str, t: f64, mut args: Args) {
        let mut inner = self.inner.borrow_mut();
        let phase = Self::current_phase(&inner);
        Self::stamp_method(&inner, cat, &mut args);
        inner.events.push(Event {
            cat,
            name: name.to_string(),
            kind: EventKind::Instant,
            t0: t,
            t1: t,
            track: Track::Main,
            phase,
            args,
        });
    }

    /// Record a counter sample at `t`. No-op unless counters are enabled.
    pub fn counter(&self, name: &str, t: f64, value: f64) {
        if !self.cfg.counters {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        let phase = Self::current_phase(&inner);
        inner.events.push(Event {
            cat: Category::Slab,
            name: name.to_string(),
            kind: EventKind::Counter,
            t0: t,
            t1: t,
            track: Track::Main,
            phase,
            args: Args {
                value: Some(value),
                ..Args::default()
            },
        });
    }

    /// Finish recording: consume the tracer and return the rank timeline.
    /// Any still-open structural spans keep their open-time `t1`.
    pub fn finish(self) -> RankTrace {
        let inner = self.inner.into_inner();
        RankTrace {
            rank: self.rank,
            events: inner.events,
            phases: inner.phases,
        }
    }
}

/// Check that every nesting-checked track of `rt` is well-nested and
/// non-overlapping: any two proper spans on the same track are either
/// disjoint or one contains the other (shared endpoints allowed).
/// [`Track::Queue`] is exempt ([`Track::requires_nesting`]) — queueing
/// waits overlap by nature. Returns a description of the first violation.
pub fn check_well_nested(rt: &RankTrace) -> Result<(), String> {
    for track in Track::ALL.into_iter().filter(Track::requires_nesting) {
        let mut spans: Vec<&Event> = rt
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Span && e.track == track && e.t1 > e.t0)
            .collect();
        // Sort outermost-first: by start time, then longest first so a
        // containing span precedes its children.
        spans.sort_by(|a, b| {
            a.t0.partial_cmp(&b.t0)
                .unwrap()
                .then(b.t1.partial_cmp(&a.t1).unwrap())
        });
        let mut stack: Vec<&Event> = Vec::new();
        for s in spans {
            while let Some(top) = stack.last() {
                if s.t0 >= top.t1 {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(top) = stack.last() {
                if s.t1 > top.t1 {
                    return Err(format!(
                        "rank {} track {:?}: span {:?} [{:.9}, {:.9}] overlaps {:?} [{:.9}, {:.9}]",
                        rt.rank, track, s.name, s.t0, s.t1, top.name, top.t0, top.t1
                    ));
                }
            }
            stack.push(s);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracer_records_spans_with_phase_attribution() {
        let tr = Tracer::new(0, TraceConfig::on());
        let phase = tr.open_span(
            Category::Phase,
            "s0:gaxpy",
            0.0,
            Args::default(),
            Some("s0"),
        );
        tr.span(
            Category::DiskRead,
            "read",
            0.0,
            1.0,
            Track::Main,
            Args::io(2, 64).with_array("a", Some(0)),
        );
        tr.close_span(phase, 2.0);
        tr.span(
            Category::Compute,
            "compute",
            2.0,
            3.0,
            Track::Main,
            Args::default(),
        );
        let rt = tr.finish();
        assert_eq!(rt.events.len(), 3);
        assert_eq!(rt.phase_name(&rt.events[1]), Some("s0"));
        assert_eq!(rt.phase_name(&rt.events[2]), None);
        assert_eq!(rt.events[0].t1, 2.0);
        check_well_nested(&rt).unwrap();
    }

    #[test]
    fn counters_respect_config() {
        let tr = Tracer::new(0, TraceConfig::spans_only());
        tr.counter("cache_used", 0.0, 42.0);
        assert_eq!(tr.finish().events.len(), 0);
        let tr = Tracer::new(0, TraceConfig::on());
        tr.counter("cache_used", 0.0, 42.0);
        let rt = tr.finish();
        assert_eq!(rt.events.len(), 1);
        assert_eq!(rt.events[0].kind, EventKind::Counter);
    }

    #[test]
    fn nesting_check_flags_overlap() {
        let tr = Tracer::new(0, TraceConfig::on());
        tr.span(Category::Send, "a", 0.0, 2.0, Track::Main, Args::default());
        tr.span(Category::Recv, "b", 1.0, 3.0, Track::Main, Args::default());
        let rt = tr.finish();
        assert!(check_well_nested(&rt).is_err());
    }

    #[test]
    fn queue_track_is_exempt_from_nesting() {
        // Queueing waits of competing requests overlap by nature; the same
        // pair of spans that fails on Main must pass on Queue.
        let tr = Tracer::new(0, TraceConfig::on());
        tr.span(
            Category::Queue,
            "w1",
            0.0,
            2.0,
            Track::Queue,
            Args::default(),
        );
        tr.span(
            Category::Queue,
            "w2",
            1.0,
            3.0,
            Track::Queue,
            Args::default(),
        );
        let rt = tr.finish();
        assert!(!Track::Queue.requires_nesting());
        assert!(Track::Main.requires_nesting());
        assert!(Track::Overlap.requires_nesting());
        check_well_nested(&rt).unwrap();
    }

    #[test]
    fn nesting_check_allows_contained_and_disjoint() {
        let tr = Tracer::new(0, TraceConfig::on());
        tr.span(
            Category::Collective,
            "outer",
            0.0,
            4.0,
            Track::Main,
            Args::default(),
        );
        tr.span(
            Category::Send,
            "in1",
            0.0,
            1.0,
            Track::Main,
            Args::default(),
        );
        tr.span(
            Category::Recv,
            "in2",
            1.0,
            4.0,
            Track::Main,
            Args::default(),
        );
        tr.span(
            Category::Compute,
            "later",
            4.0,
            5.0,
            Track::Main,
            Args::default(),
        );
        // Overlap track is independent of main.
        tr.span(
            Category::DiskRead,
            "pf",
            3.5,
            4.5,
            Track::Overlap,
            Args::default(),
        );
        let rt = tr.finish();
        check_well_nested(&rt).unwrap();
    }
}
