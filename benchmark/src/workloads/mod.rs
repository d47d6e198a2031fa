//! The five workloads and what they share.
//!
//! A workload is a *setup* (inputs from the seed, serial references,
//! templates, the worker pool) and then identical *sweeps* of a fixed op
//! list. Because the op list is fixed, every simulated quantity of a sweep
//! repeats exactly; only the host clock varies.

use std::collections::BTreeMap;
use std::time::Instant;

use dmsim::{RunReport, StatsSnapshot, WorkerPool};
use ooc_core::{CompileError, CompiledProgram, CompilerOptions};

use crate::spans::Tracer;
use crate::stats::Fnv;

pub mod compile_sweep;
pub mod farm_burst;
pub mod gaxpy_table;
pub mod rank_ladder;
pub mod remap_mix;

/// Worker threads hosting every execution. Rank counts above this are
/// coroutines, not threads. One worker, not the two the reference box has
/// cores for: its cores are shares of a host other tenants use, and with
/// both busy (`Pool(2)` keeps them at 1.3 to 2.0 cores) every burst of a
/// neighbour lands in the sweep. The build driver measured 26-32% between
/// runs of the same code that way; one worker and the harness thread that
/// waits for it leave the second core to absorb the bursts.
pub const POOL_WORKERS: usize = 1;

/// Cores `perf` refuses to measure below: one for the pool worker or the
/// daemon, one for the harness and its socket clients.
pub const MIN_CORES: usize = 2;

/// The workloads, in report order, with the reason each is here.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "gaxpy-table",
        "the paper's headline tables: read-dominated, compute-heavy; noderun::gaxpy and pario section reads do the host work",
    ),
    (
        "remap-mix",
        "same pario/ooc-array/dmsim layers used differently: writes equal reads, messages carry the data, irregular accesses, fault retries",
    ),
    (
        "rank-ladder",
        "dmsim alone: pool dispatch, per-pair queues and collective fan-in from 64 to 4096 coroutine ranks; the rank-scaling cliff lives here",
    ),
    (
        "farm-burst",
        "ooc-sched and ooc-trace alone: a 10000-job oocd session over loopback; the only workload where an op (submit to ack) has a waiting user",
    ),
    (
        "compile-sweep",
        "hpf and ooc-core alone: 2000 generated programs under six option sets, nothing executes; guards frontend and planner refactors",
    ),
];

/// Input sizes: the stated shapes, or tiny ones for `--smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// Simulated quantities of one sweep (or one op), all exact.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sim {
    /// Simulated seconds summed over ops.
    pub elapsed_s: f64,
    /// I/O requests summed over ranks and ops.
    pub io_requests: u64,
    /// I/O bytes, same scope.
    pub io_bytes: u64,
    /// Message payload bytes, same scope.
    pub msg_bytes: u64,
    /// I/O requests + messages + collectives + farm dispatches (node-IR ops
    /// on `compile-sweep`).
    pub events: u64,
}

impl Sim {
    pub fn add(&mut self, o: &Sim) {
        self.elapsed_s += o.elapsed_s;
        self.io_requests += o.io_requests;
        self.io_bytes += o.io_bytes;
        self.msg_bytes += o.msg_bytes;
        self.events += o.events;
    }

    /// The simulated quantities of one machine run.
    pub fn of_report(report: &RunReport) -> Sim {
        let t = report.totals();
        Sim {
            elapsed_s: report.elapsed(),
            io_requests: t.io_requests(),
            io_bytes: t.io_bytes(),
            msg_bytes: t.bytes_sent,
            events: t.io_requests() + t.msgs_sent,
        }
    }

    pub fn digest(&self, h: &mut Fnv) {
        h.f64(self.elapsed_s);
        h.u64(self.io_requests);
        h.u64(self.io_bytes);
        h.u64(self.msg_bytes);
        h.u64(self.events);
    }
}

/// What one sweep produced.
#[derive(Debug, Clone, Default)]
pub struct Sweep {
    pub sim: Sim,
    /// Max over executed ops of |estimated − measured| / measured on
    /// requests, bytes and seconds. Reported, never asserted.
    pub est_gap_max_rel: f64,
    /// Ops attempted.
    pub ops: u64,
    /// Ops that errored, panicked, or produced a result outside tolerance
    /// of the serial reference.
    pub failed: u64,
    /// FNV over every simulated quantity and result digest of the sweep.
    pub digest: u64,
    /// Counts read from the reports the layers returned, by metric name.
    pub counts: BTreeMap<&'static str, f64>,
    /// Per-op rows for the human-readable table: label, simulated seconds,
    /// estimate gap.
    pub rows: Vec<OpRow>,
    /// Host seconds of each timed lap of the sweep, in op-list order. The
    /// list is fixed, so lap `i` of every sweep timed the same work.
    pub laps: Vec<f64>,
}

/// Splits a sweep's wall time into consecutive laps: each [`LapClock::lap`]
/// is the time since the previous one, so the laps of a sweep add up to the
/// time between its first and last mark with nothing left out.
pub struct LapClock(Instant);

impl LapClock {
    pub fn start() -> LapClock {
        LapClock(Instant::now())
    }

    /// Seconds since the previous lap (or the start).
    pub fn lap(&mut self) -> f64 {
        let now = Instant::now();
        let secs = (now - self.0).as_secs_f64();
        self.0 = now;
        secs
    }
}

/// One op of a sweep, for the printed table and FINDINGS.
#[derive(Debug, Clone)]
pub struct OpRow {
    pub label: String,
    pub sim_s: f64,
    /// Where the compiler estimated the op: `(estimated seconds, largest
    /// relative gap between estimate and measurement)`.
    pub est_gap: Option<(f64, f64)>,
    pub ok: bool,
}

impl Sweep {
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    /// Fold the runtime counters of one machine run into the layer counts.
    pub fn count_stats(&mut self, t: &StatsSnapshot) {
        self.count("pario.read_requests", t.io_read_requests as f64);
        self.count("pario.write_requests", t.io_write_requests as f64);
        self.count("pario.read_bytes", t.io_bytes_read as f64);
        self.count("pario.write_bytes", t.io_bytes_written as f64);
        self.count("pario.cache_hits", t.cache_hits as f64);
        self.count("pario.write_backs", t.write_back_requests as f64);
        self.count("pario.io_retries", t.io_retries as f64);
        self.count("pario.faults_injected", t.faults_injected as f64);
        self.count("dmsim.messages", t.msgs_sent as f64);
        self.count("dmsim.msg_bytes", t.bytes_sent as f64);
        self.count("dmsim.msg_retries", t.msg_retries as f64);
    }
}

/// A set-up workload.
pub trait Workload {
    /// Run the fixed op list once. With an enabled tracer, a span is
    /// recorded around every call into a layer's public function.
    fn sweep(&mut self, tr: &mut Tracer) -> Sweep;

    /// The layer probes of the traced pass: re-drive the layers `sweep`
    /// cannot see into (they run inside rank tasks) with the inputs the ops
    /// gave them. Returns counts by metric name.
    fn probes(&mut self, tr: &mut Tracer) -> BTreeMap<&'static str, f64>;

    /// Per-layer metrics only this workload can derive from the measured
    /// ones (it knows its own sizes).
    fn derive(&self, _metrics: &mut BTreeMap<&'static str, f64>) {}
}

/// Build the named workload from `seed`.
pub fn setup(name: &str, seed: u64, size: Size, tr: &mut Tracer) -> Option<Box<dyn Workload>> {
    Some(match name {
        "gaxpy-table" => Box::new(gaxpy_table::GaxpyTable::setup(seed, size, tr)),
        "remap-mix" => Box::new(remap_mix::RemapMix::setup(seed, size, tr)),
        "rank-ladder" => Box::new(rank_ladder::RankLadder::setup(seed, size, tr)),
        "farm-burst" => Box::new(farm_burst::FarmBurst::setup(seed, size, tr)),
        "compile-sweep" => Box::new(compile_sweep::CompileSweep::setup(seed, size, tr)),
        _ => return None,
    })
}

/// Start the shared worker pool under a `dmsim.pool_start_s` span.
pub fn start_pool(tr: &mut Tracer) -> WorkerPool {
    tr.span("dmsim", "pool_start_s", || WorkerPool::new(POOL_WORKERS))
}

/// Compile `source`. Untraced, this is the user-facing
/// [`ooc_core::compile_source`]; traced, the same four stages are called
/// one by one with a span around each.
pub fn compile(
    source: &str,
    options: &CompilerOptions,
    tr: &mut Tracer,
) -> Result<CompiledProgram, CompileError> {
    if !tr.enabled() {
        return ooc_core::compile_source(source, options);
    }
    // Each stage's input is released inside the span of the stage that
    // consumed it, so freeing an AST counts as front-end time, not as the
    // harness's.
    let prog = tr.span("hpf", "parse_s", || hpf::parse_program(source))?;
    let info = tr.span("hpf", "sema_s", move || hpf::analyze(&prog))?;
    let hir = tr
        .span("ooc-core", "lower_s", move || ooc_core::lower::lower(&info))
        .map_err(CompileError::Lower)?;
    tr.span("ooc-core", "plan_s", || ooc_core::compile_hir(hir, options))
}

/// Release a compiled program under an `ooc-core.release_s` span: freeing
/// the compiler's output is the compiler's cost.
pub fn release(compiled: CompiledProgram, tr: &mut Tracer) {
    tr.span("ooc-core", "release_s", move || drop(compiled));
}

/// Node-IR ops of a compiled program: every node of every statement's nest.
pub fn ir_ops(compiled: &CompiledProgram) -> u64 {
    fn walk(nodes: &[ooc_core::NestNode]) -> u64 {
        nodes
            .iter()
            .map(|n| match n {
                ooc_core::NestNode::Loop { body, .. }
                | ooc_core::NestNode::IfOwner { body, .. } => 1 + walk(body),
                _ => 1,
            })
            .sum()
    }
    compiled.nests.iter().map(|n| walk(n)).sum()
}

/// Summed per-processor estimate of a compiled program: requests, bytes,
/// seconds.
pub fn estimate_of(compiled: &CompiledProgram) -> (u64, u64, f64) {
    compiled.estimates.iter().fold((0, 0, 0.0), |acc, e| {
        (
            acc.0 + e.io_requests(),
            acc.1 + e.io_bytes(),
            acc.2 + e.time(),
        )
    })
}

/// Largest relative gap between the compiler's per-processor estimate and
/// the measured run, over requests, bytes and seconds.
pub fn est_gap(compiled: &CompiledProgram, report: &RunReport) -> f64 {
    let (req, bytes, secs) = estimate_of(compiled);
    let rel = |est: f64, got: f64| {
        if got > 0.0 {
            (est - got).abs() / got
        } else {
            0.0
        }
    };
    rel(req as f64, report.io_requests_per_proc() as f64)
        .max(rel(bytes as f64, report.io_bytes_per_proc() as f64))
        .max(rel(secs, report.elapsed()))
}

/// Count the compiler's unforced choices of a compiled program.
pub fn count_choices(compiled: &CompiledProgram, forced_strategy: bool, sweep: &mut Sweep) {
    use ooc_core::{ExecPlan, SlabStrategy};
    sweep.count("ooc-core.programs", 1.0);
    sweep.count("ooc-core.ir_ops", ir_ops(compiled) as f64);
    for plan in &compiled.plans {
        if let ExecPlan::Gaxpy(g) = plan {
            if !forced_strategy && g.strategy == SlabStrategy::RowSlab {
                sweep.count("ooc-core.chose_row_slab", 1.0);
            }
        }
    }
    for ch in compiled.io_choices.iter().flatten() {
        if !ch.forced && ch.chosen == pario::IoMethod::TwoPhase {
            sweep.count("ooc-core.chose_two_phase", 1.0);
        }
    }
}

/// A small seeded generator (splitmix64): inputs are a pure function of the
/// seed and the draw order.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Mild seeded element values, exact in `f32`: multiples of 1/8 in
/// `[-1, 1)`, so sums of a few thousand products stay well conditioned.
pub fn seeded_init(seed: u64, salt: u64) -> impl Fn(&[usize]) -> f32 + Send + Sync + Clone {
    let mut r = Rng::new(seed, salt);
    let (ka, kb, off) = (
        3 + 2 * r.below(8) as usize,
        1 + 2 * r.below(8) as usize,
        r.below(16) as usize,
    );
    move |g: &[usize]| {
        let j = g.get(1).copied().unwrap_or(0);
        ((g[0] * ka + j * kb + off) % 16) as f32 * 0.125 - 1.0
    }
}

/// The paper's Figure 3 with `n` and `nprocs` substituted.
pub fn gaxpy_source(n: usize, p: usize) -> String {
    hpf::GAXPY_SOURCE.replace("n=64, nprocs=4", &format!("n={n}, nprocs={p}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(name: &str, seed: u64) -> u64 {
        let mut off = Tracer::new(false);
        let mut w = setup(name, seed, Size::Smoke, &mut off).expect("known workload");
        let sweep = w.sweep(&mut off);
        assert_eq!(sweep.failed, 0, "{name} seed {seed}: {:?}", sweep.rows);
        assert!(sweep.ops > 0 && sweep.sim.events > 0);
        sweep.digest
    }

    #[test]
    fn same_seed_same_fingerprint_different_seed_different_fingerprint() {
        for (name, _) in WORKLOADS {
            let a = digest(name, 2026);
            assert_eq!(a, digest(name, 2026), "{name} does not repeat");
            assert_ne!(a, digest(name, 7), "{name} ignores its seed");
        }
    }

    #[test]
    fn traced_and_untraced_sweeps_agree() {
        for (name, _) in WORKLOADS {
            let mut off = Tracer::new(false);
            let mut on = Tracer::new(true);
            let mut w = setup(name, 3, Size::Smoke, &mut off).expect("known workload");
            let plain = w.sweep(&mut off);
            let traced = w.sweep(&mut on);
            assert_eq!(plain.digest, traced.digest, "{name}");
            assert!(!on.spans().is_empty());
            w.probes(&mut on);
        }
    }

    #[test]
    fn every_sweep_times_the_same_laps() {
        for (name, _) in WORKLOADS {
            let mut off = Tracer::new(false);
            let mut w = setup(name, 5, Size::Smoke, &mut off).expect("known workload");
            let (a, b) = (w.sweep(&mut off), w.sweep(&mut off));
            assert!(!a.laps.is_empty(), "{name} times no lap");
            assert_eq!(a.laps.len(), b.laps.len(), "{name}");
            assert!(a.laps.iter().all(|s| *s >= 0.0));
        }
    }

    #[test]
    fn seeded_values_are_exact_eighths() {
        let f = seeded_init(2026, 1);
        for i in 0..40 {
            let v = f(&[i, 3 * i]);
            assert!((-1.0..1.0).contains(&v) && (v * 8.0).fract() == 0.0);
        }
    }
}
