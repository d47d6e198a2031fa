//! Host-clock spans around the driver's calls into each layer.
//!
//! Spans live in memory and are written out when the run ends. A span's
//! *self time* is its duration minus the part of it its children cover, so
//! summing self times over a tree never counts an instant twice.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The nine layers: the eight crates plus the harness itself.
pub const LAYERS: [&str; 9] = [
    "hpf",
    "ooc-core",
    "noderun",
    "ooc-array",
    "pario",
    "dmsim",
    "ooc-sched",
    "ooc-trace",
    "bench",
];

/// Spans reserved by an enabled tracer; more than any run records.
const SPAN_RESERVE: usize = 1 << 20;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that was open when this one began.
    pub parent: Option<u32>,
    pub layer: &'static str,
    /// Metric suffix: a span `("hpf", "parse_s")` feeds `hpf.parse_s`.
    pub name: &'static str,
    /// Index of the op (within the sweep) the span belongs to.
    pub op: u32,
    pub t0_ns: u64,
    pub t1_ns: u64,
    /// Recorded by a layer probe, outside the sweep.
    pub probe: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.t1_ns - self.t0_ns
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
#[must_use = "an open span must be ended"]
pub struct Open(Option<u32>);

/// In-memory span recorder. Disabled, every call is a branch and nothing
/// else, so the untraced pass runs the same code path.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
    probe: bool,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            // Reserved up front (untouched pages cost nothing): growing by
            // reallocation in the middle of a sweep would perturb the very
            // allocator the measured code is using.
            spans: Vec::with_capacity(if enabled { SPAN_RESERVE } else { 0 }),
            stack: Vec::new(),
            op: 0,
            probe: false,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag subsequent spans with op index `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Mark subsequent spans as probe spans (outside the sweep).
    pub fn set_probe(&mut self, probe: bool) {
        self.probe = probe;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let t = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            layer,
            name,
            op: self.op,
            t0_ns: t,
            t1_ns: t,
            probe: self.probe,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let t = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans end in LIFO order");
        self.spans[id as usize].t1_ns = t;
    }

    /// Time `f` as one span.
    pub fn span<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(layer, name);
        let out = f();
        self.end(open);
        out
    }

    /// Record a span measured elsewhere (a client thread), as a child of the
    /// currently open span.
    pub fn add(&mut self, layer: &'static str, name: &'static str, t0: Instant, t1: Instant) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            layer,
            name,
            op: self.op,
            t0_ns: t0.saturating_duration_since(self.origin).as_nanos() as u64,
            t1_ns: t1.saturating_duration_since(self.origin).as_nanos() as u64,
            probe: self.probe,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in span order: duration minus the union of its
/// children's intervals (children on other threads may overlap each other,
/// so the union, not the sum, is subtracted).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.t0_ns, s.t1_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.dur_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.t0_ns;
            for &(a, b) in kids.iter() {
                let a = a.clamp(reach, s.t1_ns);
                let b = b.clamp(reach, s.t1_ns);
                covered += b - a;
                reach = reach.max(b);
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-layer self time in seconds over the non-probe spans.
pub fn layer_self_s(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
    for (s, ns) in spans.iter().zip(selfs) {
        if !s.probe {
            *out.entry(s.layer).or_default() += ns as f64 * 1e-9;
        }
    }
    out
}

/// Summed duration in seconds per `(layer, name)`: sweep spans divided by
/// `sweeps` (a per-sweep average), probe and setup spans as they are (a
/// probe metric exists only as probe spans).
pub fn named_durations_s(
    spans: &[Span],
    sweeps: usize,
) -> BTreeMap<(&'static str, &'static str), f64> {
    let mut out = BTreeMap::new();
    for s in spans.iter().filter(|s| s.layer != "bench") {
        let weight = if s.probe { 1.0 } else { 1.0 / sweeps as f64 };
        *out.entry((s.layer, s.name)).or_default() += s.dur_ns() as f64 * 1e-9 * weight;
    }
    out
}

/// Chrome-trace JSON (`chrome://tracing`, <https://ui.perfetto.dev>): one
/// complete event per span, one row (`tid`) per layer, with the span id,
/// parent and op in `args`.
pub fn to_chrome_json(spans: &[Span], workload: &str) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (tid, layer) in LAYERS.iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{layer}\"}}}},"
        );
    }
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{{\"name\":\"{workload}\"}}}}"
    );
    for s in spans {
        let tid = LAYERS.iter().position(|l| *l == s.layer).unwrap_or(8);
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"cat\":\"{}\",\"name\":\"{}.{}\",\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{parent},\"op\":{},\
             \"probe\":{}}}}}",
            s.layer,
            s.layer,
            s.name,
            s.t0_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.op,
            s.probe
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, layer: &'static str, t0: u64, t1: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: "x_s",
            op: 0,
            t0_ns: t0,
            t1_ns: t1,
            probe: false,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(0, None, "bench", 0, 100),
            span(1, Some(0), "hpf", 10, 30),
            span(2, Some(0), "noderun", 40, 90),
            span(3, Some(2), "pario", 50, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
        let by_layer = layer_self_s(&spans);
        let total: f64 = by_layer.values().sum();
        assert!((total - 100e-9).abs() < 1e-15, "self times tile the root");
    }

    #[test]
    fn overlapping_children_subtract_their_union() {
        // Two client threads' spans overlap inside one parent.
        let spans = vec![
            span(0, None, "bench", 0, 100),
            span(1, Some(0), "ooc-sched", 10, 60),
            span(2, Some(0), "ooc-sched", 40, 80),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn a_child_outside_its_parent_is_clamped() {
        let spans = vec![
            span(0, None, "bench", 10, 20),
            span(1, Some(0), "hpf", 5, 15),
        ];
        assert_eq!(self_times_ns(&spans)[0], 5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let v = tr.span("hpf", "parse_s", || 7);
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn tracer_nests_by_call_order() {
        let mut tr = Tracer::new(true);
        let op = tr.begin("bench", "op");
        tr.span("hpf", "parse_s", || ());
        tr.span("noderun", "run_s", || ());
        tr.end(op);
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s[0].t1_ns >= s[2].t1_ns);
        let json = to_chrome_json(s, "w");
        ooc_trace::json::parse(&json).expect("chrome trace is well-formed JSON");
    }
}
