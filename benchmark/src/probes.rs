//! Layer probes of the traced pass.
//!
//! `noderun::run` hides `dmsim`, `pario` and `ooc-array` inside rank tasks,
//! and the compiler hides its memory search and reuse replay inside
//! `compile_hir`. Each probe re-drives one of those crates' public functions
//! directly with the inputs the op gave it — the plan's slab sections, the
//! op's descriptors, the same rank count — under a span of its own. Probe
//! spans lie outside the sweep and are excluded from the sweep's shares.

use std::collections::BTreeMap;
use std::time::Instant;

use dmsim::{CostModel, Machine, MachineConfig, TraceConfig, WorkerPool};
use noderun::RunConfig;
use ooc_array::{ArrayDesc, FileLayout, OocEnv, Section, Shape};
use ooc_core::{CompilerOptions, GaxpyPlan, MemoryPolicy};
use pario::{ByteRun, ElemKind, ElemRun, IoMethod, LocalArrayFile, LogicalDisk, NoCharge};

use crate::spans::Tracer;
use crate::stats::median;

pub type Counts = BTreeMap<&'static str, f64>;

/// `ooc-core.search_s`: the memory-split search the compiler ran for this
/// plan's budget.
pub fn memory_search(
    tr: &mut Tracer,
    plan: &GaxpyPlan,
    elems: usize,
    policy: MemoryPolicy,
    model: &CostModel,
    cache_budget: Option<usize>,
) {
    tr.span("ooc-core", "search_s", || {
        std::hint::black_box(ooc_core::memory::split_gaxpy_budget_with_cache(
            plan.strategy,
            plan.n,
            plan.nprocs,
            elems,
            policy,
            model,
            cache_budget,
        ))
    });
}

/// `ooc-core.reuse_replay_s`: the predictor-mode cache replay behind a
/// reuse-aware estimate.
pub fn reuse_replay(tr: &mut Tracer, plan: &GaxpyPlan, budget: usize) {
    tr.span("ooc-core", "reuse_replay_s", || {
        std::hint::black_box(ooc_core::reuse::gaxpy_cached_totals(plan, 0, budget))
    });
}

/// `ooc-array.section_runs_s`, `pario.probe_*` and `pario.plan_union_s`:
/// decompose each plan's slab sections into file runs, then move exactly
/// those runs through an in-memory logical disk, uncharged.
pub fn section_io(
    tr: &mut Tracer,
    plans: &[(FileLayout, Shape, Vec<Section>)],
    counts: &mut Counts,
) {
    let mut bytes = 0u64;
    for (layout, shape, slabs) in plans {
        let runs: Vec<Vec<ElemRun>> = tr.span("ooc-array", "section_runs_s", || {
            slabs
                .iter()
                .map(|s| layout.section_runs(shape, s))
                .collect()
        });
        let mut disk = LogicalDisk::in_memory();
        let laf = LocalArrayFile::create(&mut disk, ElemKind::F32, shape.len() as u64)
            .expect("in-memory file");
        let data: Vec<Vec<f32>> = slabs.iter().map(|s| vec![1.0f32; s.len()]).collect();
        tr.span("pario", "probe_write_s", || {
            for (r, d) in runs.iter().zip(&data) {
                laf.write_f32(&mut disk, r, d, &NoCharge)
                    .expect("probe write");
            }
        });
        tr.span("pario", "probe_read_s", || {
            for r in &runs {
                std::hint::black_box(laf.read_f32(&mut disk, r, &NoCharge).expect("probe read"));
            }
        });
        bytes += 2 * 4 * slabs.iter().map(|s| s.len() as u64).sum::<u64>();
        let pieces: Vec<Vec<ByteRun>> = runs
            .iter()
            .map(|rs| {
                rs.iter()
                    .map(|r| ByteRun::new(r.offset * 4, r.len * 4))
                    .collect()
            })
            .collect();
        tr.span("pario", "plan_union_s", || {
            std::hint::black_box(pario::plan_union(&pieces))
        });
    }
    *counts.entry("pario.probe_bytes").or_default() += bytes as f64;
}

/// Run `body` on every rank of a `p`-rank Delta machine hosted on `pool` and
/// record one span from the first rank entering the timed part to the last
/// rank leaving it.
fn collective_span(
    tr: &mut Tracer,
    layer: &'static str,
    name: &'static str,
    p: usize,
    pool: &WorkerPool,
    body: impl Fn(&dmsim::ProcCtx) -> (Instant, Instant) + Send + Sync,
) {
    let machine = Machine::new(MachineConfig::delta(p));
    let (_, spans) = machine.run_on(pool, body);
    let t0 = spans.iter().map(|s| s.0).min().expect("ranks ran");
    let t1 = spans.iter().map(|s| s.1).max().expect("ranks ran");
    tr.add(layer, name, t0, t1);
}

/// `ooc-array.redist_s`: the redistribution an op's remap performed, on the
/// op's descriptors and method.
pub fn redistribute(
    tr: &mut Tracer,
    src: &ArrayDesc,
    dst: &ArrayDesc,
    method: IoMethod,
    init: &noderun::InitFn,
    pool: &WorkerPool,
) {
    collective_span(
        tr,
        "ooc-array",
        "redist_s",
        src.dist.nprocs(),
        pool,
        |ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            env.alloc(src).expect("alloc");
            env.alloc(dst).expect("alloc");
            env.load_global(src, &|g| init(g)).expect("load");
            let t0 = Instant::now();
            ooc_array::redistribute_with(ctx, &mut env, src, dst, method, ctx)
                .expect("redistribute");
            (t0, Instant::now())
        },
    );
}

/// `ooc-array.inspect_s` and `ooc-array.gather_s`: one inspection of the
/// op's indirection array and `gathers` executor passes over its schedule.
#[allow(clippy::too_many_arguments)]
pub fn inspect_gather(
    tr: &mut Tracer,
    data: &ArrayDesc,
    index: &ArrayDesc,
    method: IoMethod,
    gathers: usize,
    init_data: &noderun::InitFn,
    init_index: &noderun::InitFn,
    pool: &WorkerPool,
) {
    let p = data.dist.nprocs();
    let machine = Machine::new(MachineConfig::delta(p));
    let (_, spans) = machine.run_on(pool, |ctx| {
        let mut env = OocEnv::in_memory(ctx.rank());
        env.alloc(data).expect("alloc");
        env.alloc(index).expect("alloc");
        env.load_global(data, &|g| init_data(g)).expect("load");
        env.load_global(index, &|g| init_index(g)).expect("load");
        let t0 = Instant::now();
        let sched = ooc_array::inspect(ctx, &mut env, data, index, ctx).expect("inspect");
        let t1 = Instant::now();
        for _ in 0..gathers {
            std::hint::black_box(
                ooc_array::gather_with(ctx, &mut env, &sched, method, ctx).expect("gather"),
            );
        }
        (t0, t1, Instant::now())
    });
    let first = |f: fn(&(Instant, Instant, Instant)) -> Instant| spans.iter().map(f).min().unwrap();
    let last = |f: fn(&(Instant, Instant, Instant)) -> Instant| spans.iter().map(f).max().unwrap();
    tr.add("ooc-array", "inspect_s", first(|s| s.0), last(|s| s.1));
    tr.add("ooc-array", "gather_s", first(|s| s.1), last(|s| s.2));
}

/// `ooc-trace.*`: the same op with simulated-clock tracing off and on
/// (three alternating runs each, medians compared), the events it recorded,
/// and the Perfetto export of its trace.
pub fn trace_recording(
    tr: &mut Tracer,
    source: &str,
    options: &CompilerOptions,
    init: &dyn Fn(&mut RunConfig),
    pool: &WorkerPool,
    counts: &mut Counts,
) {
    let compiled = ooc_core::compile_source(source, options).expect("probe program compiles");
    let run = |trace: TraceConfig| {
        let mut cfg = RunConfig {
            pool: Some(pool.clone()),
            trace: Some(trace),
            ..RunConfig::default()
        };
        init(&mut cfg);
        let t0 = Instant::now();
        let out = noderun::run(&compiled, &cfg).expect("probe program runs");
        (t0.elapsed().as_secs_f64(), out)
    };
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut traced = None;
    for _ in 0..3 {
        off.push(run(TraceConfig::default()).0);
        let (secs, out) = run(TraceConfig::on());
        on.push(secs);
        traced = Some(out);
    }
    let mut out = traced.expect("three runs");
    let trace = out.report.take_trace().expect("tracing was on");
    let json = tr.span("ooc-trace", "perfetto_export_s", || {
        ooc_trace::perfetto::to_chrome_json(&trace)
    });
    counts.insert("ooc-trace.sim_events_recorded", trace.event_count() as f64);
    counts.insert("ooc-trace.export_bytes", json.len() as f64);
    counts.insert(
        "ooc-trace.record_overhead_ratio",
        median(&on) / median(&off),
    );
}
