//! The end-to-end compilation pipeline.
//!
//! `source → parse → analyze → lower → [per statement: partition,
//! communication analysis, reorganization, stripmining, node generation]
//! → CompiledProgram` — Figure 7 of the paper, as one function call.

use std::borrow::Cow;
use std::fmt;
use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use dmsim::CostModel;
use hpf::FrontError;
use ooc_array::{ArrayDesc, ArrayId, FileLayout, Redistribution, SlabPlan};
use pario::{ElemKind, IoMethod};

use crate::comm::{analyze_elw, CommRequirement};
use crate::cost::{CostEstimate, NestPrice};
use crate::hir::{HirProgram, HirStmt};
use crate::ir::{render, NestNode};
use crate::lower::lower;
use crate::nodegen::{elw_emit, RemapGeometry};
use crate::plan::{ElwPlan, ExecPlan, SlabStrategy, SpmvPlan, TransposePlan};
use crate::reorg::{choose_gaxpy, decide, Decision, GaxpyChoice, GaxpySelection};
use crate::stripmine::SlabSizing;

/// Cost-model profile the compiler optimizes for.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MachineProfile {
    /// Intel Touchstone Delta calibration (the paper's machine).
    Delta,
    /// A modern cluster profile (ablations).
    Cluster,
    /// Zero-cost machine (functional tests).
    Free,
    /// Explicit model; its `nprocs` is overwritten with the program's.
    Custom(CostModel),
}

impl MachineProfile {
    /// Instantiate the cost model for `p` processors.
    pub fn model(&self, p: usize) -> CostModel {
        match self {
            MachineProfile::Delta => CostModel::delta(p),
            MachineProfile::Cluster => CostModel::cluster(p),
            MachineProfile::Free => CostModel::free(p),
            MachineProfile::Custom(m) => {
                let mut m = m.clone();
                m.nprocs = p;
                m
            }
        }
    }
}

/// Compiler options.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompilerOptions {
    /// Slab sizing policy for GAXPY statements.
    pub sizing: SlabSizing,
    /// Machine the cost estimator targets.
    pub profile: MachineProfile,
    /// Force a GAXPY slab strategy instead of cost-based selection.
    pub force_strategy: Option<SlabStrategy>,
    /// Allow the compiler to reorganize array storage on disk (file
    /// layouts). Disabling this is the paper's implicit baseline where row
    /// slabs would be strided.
    pub reorganize_storage: bool,
    /// In-core element budget for elementwise and transpose statements.
    pub elw_slab_elems: usize,
    /// Byte budget of the slab cache the program runs with (`None` =
    /// uncached, the default). Recorded in
    /// [`CompiledProgram::cache_budget`], from which the executor enables
    /// the cache. GAXPY estimates become reuse-aware: instead of walking the
    /// symbolic nest, the estimator replays the access sequence through a
    /// predictor-mode cache so estimate == measurement still holds under
    /// caching.
    pub cache_budget: Option<usize>,
    /// Simulated-clock tracing configuration for the compiled program's
    /// runs. Off by default; carried into `CompiledProgram` so the executor
    /// builds its machine with tracing already configured.
    pub trace: ooc_trace::TraceConfig,
    /// Force one I/O access method for every access of every statement
    /// instead of the default (`None`): remap-style accesses (pre-statement
    /// redistributions, transposes and SpMV gathers, which then skip
    /// run-time re-selection) are otherwise selected by cost, and GAXPY
    /// slabs and elementwise ghost strips and stages run `Direct`. Every
    /// estimate prices the method it runs. Slab and stage accesses have no
    /// exchange to make collective, so a forced two-phase method services
    /// them directly.
    pub io_method: Option<pario::IoMethod>,
    /// Overlap slab fetches with the previous slab's computation (software
    /// pipelining, as in PASSION): GAXPY's column version overlaps each
    /// fetch of A with the multiply before it, an elementwise statement each
    /// stage's reads with the previous stage's evaluation. The overlapped
    /// operand holds a second slab buffer, which GAXPY's budget split
    /// reserves and every plan's memory accounting counts, and each
    /// overlapped read is priced as the longer of its I/O and the
    /// computation it hides. Off by default.
    pub prefetch: bool,
    /// Background disk-farm load the compiled program will run against
    /// (concurrent workload jobs sharing the physical disks). `Some` prices
    /// every estimate — and therefore every strategy and access-method
    /// selection — under this job's fair bandwidth share via
    /// [`dmsim::CostModel::contended`]; `None` (the default, and any load
    /// with zero competitors) is bit-identical to the uncontended compiler.
    pub background: Option<dmsim::BackgroundLoad>,
    /// Execution engine for the compiled program's runs: OS threads (the
    /// default) or a fixed worker pool hosting the ranks as cooperative
    /// tasks. Purely a hosting choice — reports are bit-identical either
    /// way — but `Pool` is the only way to run hundreds of ranks or jobs.
    /// Carried into [`CompiledProgram`] like `trace`.
    pub engine: dmsim::Engine,
}

impl Default for CompilerOptions {
    fn default() -> Self {
        CompilerOptions {
            sizing: SlabSizing::default(),
            profile: MachineProfile::Delta,
            force_strategy: None,
            reorganize_storage: true,
            elw_slab_elems: 1 << 20,
            cache_budget: None,
            trace: ooc_trace::TraceConfig::default(),
            io_method: None,
            prefetch: false,
            background: None,
            engine: dmsim::Engine::default(),
        }
    }
}

/// Compilation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Lexing, parsing or semantic analysis failed.
    Front(FrontError),
    /// A statement is outside the supported subset.
    Lower(String),
    /// Plan construction failed (communication analysis, sizing…).
    Plan(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Front(e) => write!(f, "front end: {e}"),
            CompileError::Lower(m) => write!(f, "lowering: {m}"),
            CompileError::Plan(m) => write!(f, "planning: {m}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<FrontError> for CompileError {
    fn from(e: FrontError) -> Self {
        CompileError::Front(e)
    }
}

/// A compiled out-of-core program: one executable plan per statement, plus
/// the symbolic node programs and cost estimates behind the choices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledProgram {
    /// The lowered program.
    pub hir: HirProgram,
    /// Final array descriptors (ids are indices into `hir.arrays`).
    pub descs: Vec<ArrayDesc>,
    /// One plan per statement.
    pub plans: Vec<ExecPlan>,
    /// One symbolic node program per statement.
    pub nests: Vec<Vec<NestNode>>,
    /// One cost estimate per statement.
    pub estimates: Vec<CostEstimate>,
    /// For GAXPY statements, the strategy decision.
    pub alternatives: Vec<Option<Decision<SlabStrategy>>>,
    /// Per statement, the access-method decisions of its remap-style
    /// accesses (pre-statement redistributions, transposes, gathers);
    /// empty for statements without any.
    pub io_choices: Vec<Vec<Decision<pario::IoMethod>>>,
    /// The cost model used.
    pub model: CostModel,
    /// Tracing configuration requested at compile time (threaded from
    /// [`CompilerOptions::trace`] to the executor's machine).
    pub trace: ooc_trace::TraceConfig,
    /// Execution engine requested at compile time (threaded from
    /// [`CompilerOptions::engine`] to the executor's machine).
    pub engine: dmsim::Engine,
    /// Byte budget of the slab cache the estimates assume (threaded from
    /// [`CompilerOptions::cache_budget`]); the executor runs with exactly
    /// this cache.
    pub cache_budget: Option<usize>,
}

impl CompiledProgram {
    /// Number of processors the program runs on.
    pub fn nprocs(&self) -> usize {
        self.hir.nprocs
    }

    /// Pseudo-code of statement `i`'s node program (Figures 9/12 style).
    pub fn node_program_text(&self, i: usize) -> String {
        render(&self.nests[i])
    }

    /// Human-readable compilation report: arrays, layouts, per-statement
    /// strategy choices and estimates.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "out-of-core compilation report ({} processors)",
            self.nprocs()
        );
        let _ = writeln!(out, "arrays:");
        for d in &self.descs {
            let exts: Vec<String> = d
                .global_shape()
                .extents()
                .iter()
                .map(|e| e.to_string())
                .collect();
            let layout = if d.layout == FileLayout::column_major(d.layout.ndims()) {
                "column-major".to_string()
            } else if d.layout == FileLayout::row_major(d.layout.ndims()) {
                "row-major (reorganized)".to_string()
            } else {
                format!("{:?}", d.layout.order())
            };
            let _ = writeln!(out, "  {}: {} file layout {layout}", d.name, exts.join("x"));
        }
        for (i, plan) in self.plans.iter().enumerate() {
            match plan {
                ExecPlan::Gaxpy(g) => {
                    let _ = writeln!(
                        out,
                        "statement {}: gaxpy {} = {} * {} (n={}) -> {} selected \
                         (slab_a={}, slab_b={}, {} elements in-core)",
                        i + 1,
                        g.c.name,
                        g.a.name,
                        g.b.name,
                        g.n,
                        g.strategy.name(),
                        g.slab_a,
                        g.slab_b,
                        g.memory_elems()
                    );
                    if let Some(alts) = &self.alternatives[i] {
                        for (s, e) in &alts.estimates {
                            let _ = writeln!(
                                out,
                                "  {:12}: {:>12} requests, {:>14} bytes, est {:>10.2} s",
                                s.name(),
                                e.io_requests(),
                                e.io_bytes(),
                                e.time()
                            );
                        }
                        // The Figure 14 analysis behind the choice.
                        let rows =
                            crate::access::fig14_table(&alts.estimates, &g.a.name, &g.b.name);
                        let _ = writeln!(
                            out,
                            "  access analysis (T_fetch = requests, T_data = elements per processor):"
                        );
                        for r in &rows {
                            let _ = writeln!(
                                out,
                                "    slabs of `{}` along dim {} ({:12}): T_fetch {:>10}, T_data {:>12}",
                                r.array,
                                r.dim,
                                r.strategy.name(),
                                r.t_fetch,
                                r.t_data
                            );
                        }
                        if let Some(dom) = crate::access::dominant_array(&rows) {
                            let _ = writeln!(
                                out,
                                "  dominant array: `{dom}` (largest amount of I/O; Figure 14)"
                            );
                        }
                    }
                }
                ExecPlan::Elementwise(e) => {
                    let _ = writeln!(
                        out,
                        "statement {}: elementwise {} (slab dim {}, thickness {}, {} ghost exchange(s))",
                        i + 1,
                        e.lhs.name,
                        e.slab_dim,
                        e.slab_thickness,
                        e.ghosts.len()
                    );
                }
                ExecPlan::Transpose(t) => {
                    let _ = writeln!(
                        out,
                        "statement {}: transpose {} = {}^T (slab thickness {}, {} I/O)",
                        i + 1,
                        t.dst.name,
                        t.src.name,
                        t.slab_thickness,
                        t.method.label()
                    );
                }
                ExecPlan::Spmv(s) => {
                    let schedule = match s.reuses {
                        Some(r) => format!("schedule of statement {} reused, no inspection", r + 1),
                        None => "inspector-executor".to_string(),
                    };
                    let _ = writeln!(
                        out,
                        "statement {}: spmv {} = A * {} (n={}, {} nonzeros, \
                         {schedule}, {} gather I/O)",
                        i + 1,
                        s.y.name,
                        s.x.name,
                        s.n,
                        s.nnz,
                        s.method.label()
                    );
                }
            }
            for ch in &self.io_choices[i] {
                let forced = if ch.forced { " (forced)" } else { "" };
                let _ = writeln!(
                    out,
                    "  {}: {} I/O selected{}",
                    ch.access,
                    ch.chosen.label(),
                    forced
                );
                for (m, e) in &ch.estimates {
                    let _ = writeln!(
                        out,
                        "    {:10}: {:>10} requests, {:>12} bytes, est {:>10.4} s",
                        m.label(),
                        e.io_requests(),
                        e.io_bytes(),
                        e.time()
                    );
                }
            }
        }
        out
    }
}

/// Block-cyclic locals are not regular sections; plans over them would
/// silently compute nothing, so reject at compile time.
fn require_regular_dist(desc: &ArrayDesc, what: &str) -> Result<(), CompileError> {
    use ooc_array::{DimDist, DistKind};
    for (d, dd) in desc.dist.dims().iter().enumerate() {
        if let DimDist::Distributed {
            kind: DistKind::BlockCyclic(_),
            ..
        } = dd
        {
            return Err(CompileError::Plan(format!(
                "{what}: dimension {d} of `{}` is block-cyclic distributed; \
                 only block, cyclic and collapsed dimensions are supported",
                desc.name
            )));
        }
    }
    Ok(())
}

/// The transpose remap relies on contiguous owned ranges (block/collapsed).
fn require_block_or_collapsed(desc: &ArrayDesc, what: &str) -> Result<(), CompileError> {
    use ooc_array::{DimDist, DistKind};
    for (d, dd) in desc.dist.dims().iter().enumerate() {
        match dd {
            DimDist::Collapsed
            | DimDist::Distributed {
                kind: DistKind::Block,
                ..
            } => {}
            other => {
                return Err(CompileError::Plan(format!(
                    "{what}: dimension {d} of `{}` is distributed {other:?}; \
                     only block or collapsed dimensions are supported",
                    desc.name
                )))
            }
        }
    }
    Ok(())
}

/// Reject a machine the estimator cannot price: times finite and >= 0,
/// bandwidths > 0 (an infinite one is a free link, as in
/// [`CostModel::free`]), background fair-share weights finite, this job's
/// > 0 and its competitors' >= 0.
fn check_machine(m: &CostModel, load: Option<&dmsim::BackgroundLoad>) -> Result<(), CompileError> {
    let time: fn(f64) -> bool = |v| v.is_finite() && v >= 0.0;
    let bandwidth: fn(f64) -> bool = |v| v > 0.0;
    let weight: fn(f64) -> bool = |v| v.is_finite() && v > 0.0;
    let (w, cw) = load.map_or((1.0, 0.0), |l| (l.weight, l.competitor_weight));
    let fields = [
        ("flop_time", m.flop_time, time),
        ("msg_latency", m.msg_latency, time),
        ("io_startup", m.io_startup, time),
        ("io_write_startup", m.io_write_startup, time),
        ("msg_bandwidth", m.msg_bandwidth, bandwidth),
        (
            "io_aggregate_bandwidth",
            m.io_aggregate_bandwidth,
            bandwidth,
        ),
        ("io_write_bandwidth", m.io_write_bandwidth, bandwidth),
        ("weight", w, weight),
        ("competitor_weight", cw, time),
    ];
    if let Some((name, v, _)) = fields.into_iter().find(|(_, v, ok)| !ok(*v)) {
        let msg = format!("machine model: `{name}` = {v} is out of range");
        return Err(CompileError::Plan(msg));
    }
    Ok(())
}

/// The statement whose inspected schedule `plan` can gather through: the
/// inspector hoisted out of an unrolled loop of SpMVs. The schedule depends
/// on `x`'s distribution and `colidx`'s values only, so the nearest earlier
/// SpMV qualifies when it has the same `x` and `colidx` descriptors and
/// neither it nor any statement since assigns `colidx`; writes to `x`,
/// `vals` or `rowptr` do not matter. Only the nearest SpMV counts because
/// the executor keeps one schedule per rank. The answer is the statement
/// that inspected, so a chain of reuses names its head.
fn reusable_schedule(plans: &[ExecPlan], plan: &SpmvPlan) -> Option<usize> {
    for (i, earlier) in plans.iter().enumerate().rev() {
        if earlier.target().id == plan.colidx.id {
            return None;
        }
        if let ExecPlan::Spmv(s) = earlier {
            let same = s.x == plan.x && s.colidx == plan.colidx;
            return same.then(|| s.reuses.unwrap_or(i));
        }
    }
    None
}

/// Compile HPF source text.
pub fn compile_source(
    source: &str,
    options: &CompilerOptions,
) -> Result<CompiledProgram, CompileError> {
    let prog = hpf::parse_program(source)?;
    let info = hpf::analyze_owned(prog)?;
    let hir = lower(&info).map_err(CompileError::Lower)?;
    compile_hir(hir, options)
}

/// Compile an already-lowered program (the programmatic API used by
/// examples and benches).
pub fn compile_hir(
    hir: HirProgram,
    options: &CompilerOptions,
) -> Result<CompiledProgram, CompileError> {
    let p = hir.nprocs;
    // Under background load the whole compilation — strategy selection,
    // access-method selection, estimates, and the model the executor's
    // machine charges — is priced at this job's static bandwidth share.
    // This is the legacy `shared_disks`-style static divide; the `ooc-sched`
    // farm instead models contention dynamically from queues and should be
    // fed programs compiled *without* a background load.
    let model = options.profile.model(p);
    check_machine(&model, options.background.as_ref())?;
    if let SlabSizing::Ratio(r) = options.sizing {
        if !(r > 0.0 && r <= 1.0) {
            let msg = format!("sizing: slab ratio {r} is outside (0, 1]");
            return Err(CompileError::Plan(msg));
        }
    }
    let model = match &options.background {
        Some(load) => model.contended(load),
        None => model,
    };

    let id_of = |name: &str| -> Result<ArrayId, CompileError> {
        hir.arrays
            .iter()
            .position(|a| a.name == name)
            .map(|i| ArrayId(i as u32))
            .ok_or_else(|| CompileError::Plan(format!("undeclared array `{name}`")))
    };

    // Pass 1: walk statements in order deciding strategies and locking
    // layouts (first statement to care about an array's storage wins).
    let mut locked: Vec<Option<FileLayout>> = vec![None; hir.arrays.len()];
    let mut gaxpy_choices: Vec<Option<GaxpyChoice>> = Vec::with_capacity(hir.stmts.len());
    for stmt in &hir.stmts {
        match stmt {
            HirStmt::Gaxpy { a, b, c, n, .. } => {
                let (ia, ib, ic) = (id_of(a)?, id_of(b)?, id_of(c)?);
                let sel = GaxpySelection {
                    ids: (ia, ib, ic),
                    arrays: (
                        hir.array(a).expect("id_of checked"),
                        hir.array(b).expect("id_of checked"),
                        hir.array(c).expect("id_of checked"),
                    ),
                    n: *n,
                    p,
                    sizing: options.sizing,
                    reorganize: options.reorganize_storage,
                    locked: (
                        locked[ia.0 as usize].clone(),
                        locked[ib.0 as usize].clone(),
                        locked[ic.0 as usize].clone(),
                    ),
                    force: options.force_strategy,
                    method: options.io_method.unwrap_or_default(),
                    prefetch: options.prefetch,
                };
                let choice = choose_gaxpy(&sel, &model);
                for (id, layout) in [
                    (ia, choice.plan.a.layout.clone()),
                    (ib, choice.plan.b.layout.clone()),
                    (ic, choice.plan.c.layout.clone()),
                ] {
                    locked[id.0 as usize].get_or_insert(layout);
                }
                gaxpy_choices.push(Some(choice));
            }
            _ => gaxpy_choices.push(None),
        }
    }

    // Freeze descriptors: locked layout or column-major default.
    let descs: Vec<ArrayDesc> = hir
        .arrays
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let layout = locked[i]
                .clone()
                .unwrap_or_else(|| FileLayout::column_major(a.shape.ndims()));
            ArrayDesc::new(
                ArrayId(i as u32),
                a.name.clone(),
                ElemKind::F32,
                a.dist.clone(),
            )
            .with_layout(layout)
        })
        .collect();

    // Pass 2: build plans against frozen descriptors.
    let mut next_tmp_id = hir.arrays.len() as u32;
    let mut plans = Vec::with_capacity(hir.stmts.len());
    let mut nests = Vec::with_capacity(hir.stmts.len());
    let mut estimates = Vec::with_capacity(hir.stmts.len());
    let mut alternatives = Vec::with_capacity(hir.stmts.len());
    let mut io_choices = Vec::with_capacity(hir.stmts.len());
    for (si, stmt) in hir.stmts.iter().enumerate() {
        match stmt {
            HirStmt::Gaxpy { .. } => {
                let choice = gaxpy_choices[si].take().expect("pass 1 recorded");
                // Descriptors in the plan must match the frozen table.
                let mut plan = choice.plan;
                plan.a = descs[plan.a.id.0 as usize].clone();
                plan.b = descs[plan.b.id.0 as usize].clone();
                plan.c = descs[plan.c.id.0 as usize].clone();
                let nest = crate::nodegen::gaxpy_nest(&plan);
                let est = match options.cache_budget {
                    // Reuse-aware estimate: replay rank 0's access sequence
                    // through a predictor-mode slab cache.
                    Some(budget) => CostEstimate::from_totals(
                        crate::reuse::gaxpy_cached_totals(&plan, 0, budget),
                        &model,
                        4,
                    ),
                    None => CostEstimate::from_nest(&nest, &model, 4),
                };
                plans.push(ExecPlan::Gaxpy(plan));
                nests.push(nest);
                estimates.push(est);
                alternatives.push(Some(choice.decision));
                io_choices.push(Vec::new());
            }
            HirStmt::Elementwise(e) => {
                let lhs_id = id_of(&e.lhs)?;
                let lhs_desc = descs[lhs_id.0 as usize].clone();
                require_regular_dist(&lhs_desc, "elementwise")?;
                // FORALL has copy-in-copy-out semantics; a shifted self-
                // reference would read slabs already overwritten by earlier
                // stages of the stripmined loop. (Unshifted self-reference
                // is safe: each stage reads its inputs before writing.)
                let refs = e.rhs.rhs_refs();
                for &(name, offs) in &refs {
                    if name == e.lhs && offs.iter().any(|&o| o != 0) {
                        return Err(CompileError::Plan(format!(
                            "elementwise: `{name}` is assigned and referenced \
                             with a shift; the stripmined translation cannot \
                             preserve forall copy-in semantics (use a second \
                             array)"
                        )));
                    }
                    // Every shifted reference must stay inside the global
                    // array over the whole iteration region.
                    let arr = hir
                        .array(name)
                        .ok_or_else(|| CompileError::Plan(format!("undeclared array `{name}`")))?;
                    for (d, &off) in offs.iter().enumerate().take(e.region.ndims()) {
                        let r = e.region.range(d);
                        let lo = r.lo as isize + off;
                        let hi = (r.hi - 1) as isize + off;
                        if lo < 0 || hi >= arr.shape.extent(d) as isize {
                            return Err(CompileError::Plan(format!(
                                "elementwise: reference `{name}` shifted by \
                                 {off} along dimension {d} leaves the array \
                                 bounds for part of the iteration region \
                                 ({}..{} of extent {})",
                                lo,
                                hi + 1,
                                arr.shape.extent(d)
                            )));
                        }
                    }
                }
                // Right-hand sides in a different distribution are legal:
                // the compiler inserts a redistribution into a statement-
                // local temporary with the lhs's distribution (the remap an
                // HPF compiler schedules for misaligned operands).
                let mut rhs_descs: Vec<ArrayDesc> = Vec::new();
                let mut pre_remaps = Vec::new();
                for &(name, _) in &refs {
                    let id = id_of(name)?;
                    let d = descs[id.0 as usize].clone();
                    if rhs_descs.iter().any(|x| x.name == d.name) {
                        continue;
                    }
                    if d.dist == lhs_desc.dist {
                        rhs_descs.push(d);
                    } else {
                        require_regular_dist(&d, "elementwise remap")?;
                        if d.global_shape() != lhs_desc.global_shape() {
                            return Err(CompileError::Plan(format!(
                                "elementwise: `{name}` and `{}` have different shapes",
                                e.lhs
                            )));
                        }
                        let tmp = ArrayDesc::new(
                            ArrayId(next_tmp_id),
                            d.name.clone(),
                            ElemKind::F32,
                            lhs_desc.dist.clone(),
                        );
                        next_tmp_id += 1;
                        pre_remaps.push(crate::plan::RemapSpec {
                            src: d,
                            tmp: tmp.clone(),
                            method: pario::IoMethod::Direct,
                        });
                        rhs_descs.push(tmp);
                    }
                }
                // Per-remap access-method selection: tally the remap's
                // schedule once, price every method exactly from it, keep
                // the cheapest, and build the statement's nest from that
                // same tally.
                let mut stmt_choices = Vec::with_capacity(pre_remaps.len());
                let mut geometries = Vec::with_capacity(pre_remaps.len());
                for r in &mut pre_remaps {
                    let geometry = RemapGeometry::new(&Redistribution::new(&r.src, &r.tmp), 0);
                    let access = format!("remap {}", r.src.name);
                    let choice = Decision::new(access, IoMethod::ALL, options.io_method, |m| {
                        CostEstimate::from_nest(&geometry.nodes(m), &model, 4)
                    });
                    r.method = choice.chosen;
                    geometries.push((geometry, r.method));
                    stmt_choices.push(choice);
                }
                // Ghost analysis runs against the post-remap distributions.
                let hir_view = if pre_remaps.is_empty() {
                    Cow::Borrowed(&hir)
                } else {
                    let mut v = hir.clone();
                    for r in &pre_remaps {
                        if let Some(a) = v.arrays.iter_mut().find(|a| a.name == r.src.name) {
                            a.dist = lhs_desc.dist.clone();
                        }
                    }
                    Cow::Owned(v)
                };
                let ghosts = match analyze_elw(e, &hir_view).map_err(CompileError::Plan)? {
                    CommRequirement::Ghost(g) => g,
                    CommRequirement::None => Vec::new(),
                };
                let top = lhs_desc.global_shape().ndims() - 1;
                let mut plan = ElwPlan {
                    pre_remaps,
                    lhs: lhs_desc,
                    rhs_arrays: rhs_descs,
                    expr: e.rhs.clone(),
                    region: e.region.clone(),
                    slab_dim: top,
                    slab_thickness: 1,
                    ghosts,
                    flops_per_point: e.rhs.flops_per_point(),
                    method: options.io_method.unwrap_or_default(),
                    prefetch: options.prefetch,
                };
                // The slab dimension (Figure 14): the first of the cheapest
                // by the estimate of the nest each would store, highest
                // dimension first, whose slabs are contiguous under the
                // default column-major layout. The highest is built; the
                // others are priced without building their nests.
                plan.stripmine(top, options.elw_slab_elems);
                let mut nest = Vec::new();
                geometries.iter().for_each(|(g, m)| g.emit(*m, &mut nest));
                let remaps = nest.len();
                elw_emit(&plan, 0, &mut nest);
                let mut est = CostEstimate::from_nest(&nest, &model, 4);
                let lower = (0..top).rev().map(|d| {
                    plan.stripmine(d, options.elw_slab_elems);
                    let mut price = NestPrice::new(&model, 4);
                    geometries.iter().for_each(|(g, m)| g.emit(*m, &mut price));
                    elw_emit(&plan, 0, &mut price);
                    (d, price.time())
                });
                let priced = std::iter::once((top, est.time())).chain(lower);
                let (slab_dim, _) = decide(priced, None).expect("a dimension");
                plan.stripmine(slab_dim, options.elw_slab_elems);
                if slab_dim != top {
                    nest.truncate(remaps);
                    elw_emit(&plan, 0, &mut nest);
                    est = CostEstimate::from_nest(&nest, &model, 4);
                }
                plans.push(ExecPlan::Elementwise(plan));
                nests.push(nest);
                estimates.push(est);
                alternatives.push(None);
                io_choices.push(stmt_choices);
            }
            HirStmt::Transpose { src, dst } => {
                // Streamed in more than one slab, an in-place transpose
                // would overwrite slabs later stages have not read yet.
                if src == dst {
                    return Err(CompileError::Plan(format!(
                        "transpose: `{src}` is assigned its own transpose; the \
                         stripmined remap cannot preserve forall copy-in \
                         semantics (use a second array)"
                    )));
                }
                let src_desc = descs[id_of(src)?.0 as usize].clone();
                let dst_desc = descs[id_of(dst)?.0 as usize].clone();
                require_block_or_collapsed(&src_desc, "transpose")?;
                require_block_or_collapsed(&dst_desc, "transpose")?;
                let local = src_desc.local_shape(0);
                let slab_dim = src_desc.layout.slowest_dim();
                let sp = SlabPlan::from_memory(local, slab_dim, options.elw_slab_elems.max(1));
                let mut plan = TransposePlan {
                    src: src_desc,
                    dst: dst_desc,
                    slab_thickness: sp.thickness(),
                    method: pario::IoMethod::Direct,
                };
                let geometry = RemapGeometry::new(&plan, 0);
                let access = format!("transpose {}", plan.dst.name);
                let choice = Decision::new(access, IoMethod::ALL, options.io_method, |m| {
                    CostEstimate::from_nest(&geometry.nodes(m), &model, 4)
                });
                plan.method = choice.chosen;
                let nest = geometry.nodes(plan.method);
                let est = CostEstimate::from_nest(&nest, &model, 4);
                plans.push(ExecPlan::Transpose(plan));
                nests.push(nest);
                estimates.push(est);
                alternatives.push(None);
                io_choices.push(vec![choice]);
            }
            HirStmt::Spmv {
                y,
                rowptr,
                colidx,
                vals,
                x,
                n,
                nnz,
            } => {
                let mut plan = SpmvPlan {
                    y: descs[id_of(y)?.0 as usize].clone(),
                    rowptr: descs[id_of(rowptr)?.0 as usize].clone(),
                    colidx: descs[id_of(colidx)?.0 as usize].clone(),
                    vals: descs[id_of(vals)?.0 as usize].clone(),
                    x: descs[id_of(x)?.0 as usize].clone(),
                    n: *n,
                    nnz: *nnz,
                    nprocs: p,
                    method: pario::IoMethod::Direct,
                    reuses: None,
                };
                plan.reuses = reusable_schedule(&plans, &plan);
                // The index set is unknown at compile time: price the gather
                // over the fully-scattered member of the irregular cost-term
                // family. The executor re-selects at run time from the
                // inspected schedule's measured statistics.
                let stats = crate::irreg::scattered_stats(*n, *nnz, p, 4, 1);
                let access = format!("gather {x}({colidx}(k))");
                let choice = Decision::new(access, IoMethod::ALL, options.io_method, |m| {
                    let nest = crate::irreg::spmv_nest_with(&plan, m, &stats, 0);
                    CostEstimate::from_nest(&nest, &model, 4)
                });
                plan.method = choice.chosen;
                let nest = crate::irreg::spmv_nest(&plan);
                let est = CostEstimate::from_nest(&nest, &model, 4);
                plans.push(ExecPlan::Spmv(Box::new(plan)));
                nests.push(nest);
                estimates.push(est);
                alternatives.push(None);
                io_choices.push(vec![choice]);
            }
        }
    }

    Ok(CompiledProgram {
        hir,
        descs,
        plans,
        nests,
        estimates,
        alternatives,
        io_choices,
        model,
        trace: options.trace,
        engine: options.engine,
        cache_budget: options.cache_budget,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_compiles_and_selects_row_slabs() {
        let compiled = compile_source(hpf::GAXPY_SOURCE, &CompilerOptions::default()).unwrap();
        assert_eq!(compiled.plans.len(), 1);
        let ExecPlan::Gaxpy(g) = &compiled.plans[0] else {
            panic!("expected gaxpy plan");
        };
        assert_eq!(g.strategy, SlabStrategy::RowSlab);
        let report = compiled.report();
        assert!(report.contains("row slab"), "{report}");
        assert!(report.contains("reorganized"), "{report}");
        // Both alternatives were scored.
        let alts = &compiled.alternatives[0].as_ref().unwrap().estimates;
        assert_eq!(alts.len(), 2);
        assert!(alts[0].1.io_requests() > alts[1].1.io_requests());
    }

    #[test]
    fn forced_column_strategy() {
        let opts = CompilerOptions {
            force_strategy: Some(SlabStrategy::ColumnSlab),
            ..CompilerOptions::default()
        };
        let compiled = compile_source(hpf::GAXPY_SOURCE, &opts).unwrap();
        let ExecPlan::Gaxpy(g) = &compiled.plans[0] else {
            panic!()
        };
        assert_eq!(g.strategy, SlabStrategy::ColumnSlab);
    }

    #[test]
    fn report_includes_figure14_analysis() {
        let compiled = compile_source(hpf::GAXPY_SOURCE, &CompilerOptions::default()).unwrap();
        let report = compiled.report();
        assert!(report.contains("access analysis"), "{report}");
        assert!(report.contains("dominant array: `a`"), "{report}");
        assert!(report.contains("T_fetch"), "{report}");
    }

    #[test]
    fn node_program_text_looks_like_figure_12() {
        let compiled = compile_source(hpf::GAXPY_SOURCE, &CompilerOptions::default()).unwrap();
        let text = compiled.node_program_text(0);
        assert!(text.contains("row slabs of a"), "{text}");
        assert!(text.contains("global_sum"), "{text}");
        assert!(text.contains("read_slab(b)"), "{text}");
    }

    #[test]
    fn jacobi_program_compiles_to_elementwise() {
        let src = "
      parameter (n=32)
      real u(n, n), v(n, n)
!hpf$ processors pr(4)
!hpf$ template t(n)
!hpf$ distribute t(block) on pr
!hpf$ align (:, *) with t :: u, v
      forall (i = 2:n-1, j = 2:n-1)
        v(i, j) = 0.25 * (u(i-1, j) + u(i+1, j) + u(i, j-1) + u(i, j+1))
      end forall
      end
";
        let compiled = compile_source(src, &CompilerOptions::default()).unwrap();
        let ExecPlan::Elementwise(e) = &compiled.plans[0] else {
            panic!("expected elementwise plan");
        };
        // Row-block distribution: shifts along dim 0 need ghosts.
        assert_eq!(e.ghosts.len(), 1);
        assert_eq!(e.ghosts[0].dim, 0);
        assert!(compiled.estimates[0].io_requests() > 0);
    }

    #[test]
    fn out_of_bounds_shift_is_rejected_at_compile_time() {
        // u(i, j+1) over the full region walks off the last column.
        let src = "
      parameter (n=8)
      real u(n, n), v(n, n)
!hpf$ processors pr(2)
!hpf$ distribute u(*, block) on pr
!hpf$ distribute v(*, block) on pr
      forall (i = 1:n, j = 1:n)
        v(i, j) = u(i, j+1)
      end forall
      end
";
        let err = compile_source(src, &CompilerOptions::default()).unwrap_err();
        assert!(err.to_string().contains("leaves the array bounds"), "{err}");
        // Restricting the region makes it legal.
        let ok = src.replace("j = 1:n)", "j = 1:n-1)");
        assert!(compile_source(&ok, &CompilerOptions::default()).is_ok());
    }

    #[test]
    fn shifted_self_reference_is_rejected() {
        let src = "
      parameter (n=16)
      real u(n, n)
!hpf$ processors pr(2)
!hpf$ distribute u(*, block) on pr
      forall (i = 2:n-1, j = 1:n)
        u(i, j) = u(i-1, j)
      end forall
      end
";
        let err = compile_source(src, &CompilerOptions::default()).unwrap_err();
        assert!(err.to_string().contains("copy-in"), "{err}");
        // Unshifted in-place update stays legal.
        let ok_src = src.replace("u(i-1, j)", "2.0 * u(i, j)");
        assert!(compile_source(&ok_src, &CompilerOptions::default()).is_ok());
    }

    #[test]
    fn in_place_transpose_is_rejected() {
        let src = "
      parameter (n=16)
      real a(n, n), b(n, n)
!hpf$ processors pr(2)
!hpf$ distribute a(*, block) on pr
!hpf$ distribute b(*, block) on pr
      forall (i = 1:n, j = 1:n)
        a(i, j) = a(j, i)
      end forall
      end
";
        match compile_source(src, &CompilerOptions::default()) {
            Err(CompileError::Plan(msg)) => {
                assert!(msg.contains("`a`") && msg.contains("copy-in"), "{msg}")
            }
            other => panic!("in-place transpose compiled: {other:?}"),
        }
        let ok = src.replace("a(i, j) = a(j, i)", "b(i, j) = a(j, i)");
        assert!(compile_source(&ok, &CompilerOptions::default()).is_ok());
    }

    #[test]
    fn background_load_degrades_estimates_without_changing_metrics() {
        let base = compile_source(hpf::GAXPY_SOURCE, &CompilerOptions::default()).unwrap();
        let idle = compile_source(
            hpf::GAXPY_SOURCE,
            &CompilerOptions {
                background: Some(dmsim::BackgroundLoad::jobs(0)),
                ..CompilerOptions::default()
            },
        )
        .unwrap();
        assert_eq!(idle, base, "zero competitors is bit-identical");
        let busy = compile_source(
            hpf::GAXPY_SOURCE,
            &CompilerOptions {
                background: Some(dmsim::BackgroundLoad::jobs(3)),
                ..CompilerOptions::default()
            },
        )
        .unwrap();
        assert!(busy.estimates[0].io_time > base.estimates[0].io_time);
        assert_eq!(
            busy.estimates[0].io_requests(),
            base.estimates[0].io_requests(),
            "the paper's metrics are load-blind"
        );
    }

    #[test]
    fn spmv_compiles_and_selects_two_phase_unforced() {
        let compiled = compile_source(hpf::SPMV_SOURCE, &CompilerOptions::default()).unwrap();
        assert_eq!(compiled.plans.len(), 1);
        let ExecPlan::Spmv(s) = &compiled.plans[0] else {
            panic!("expected spmv plan, got {:?}", compiled.plans[0]);
        };
        // A scattered index set with heavy requester overlap: the deduped
        // two-phase union read must win on cost, not by force.
        assert_eq!(s.method, pario::IoMethod::TwoPhase);
        let choice = &compiled.io_choices[0][0];
        assert!(!choice.forced);
        assert_eq!(choice.estimates.len(), 3, "all three methods priced");
        let report = compiled.report();
        assert!(report.contains("spmv"), "{report}");
        assert!(report.contains("two-phase"), "{report}");
        assert!(compiled.estimates[0].io_requests() > 0);
    }

    #[test]
    fn spmv_gather_method_can_be_forced() {
        let opts = CompilerOptions {
            io_method: Some(pario::IoMethod::Sieved),
            ..CompilerOptions::default()
        };
        let compiled = compile_source(hpf::SPMV_SOURCE, &opts).unwrap();
        let ExecPlan::Spmv(s) = &compiled.plans[0] else {
            panic!()
        };
        assert_eq!(s.method, pario::IoMethod::Sieved);
        assert!(compiled.io_choices[0][0].forced);
    }

    /// `hpf::SPMV_SOURCE` with its row nest written out twice and `between`
    /// in between, or (`between = None`) wrapped in `do it = 1, 4`.
    fn spmv_twice(between: Option<&str>) -> String {
        let (head, rest) = hpf::SPMV_SOURCE.split_once("      do i = 1, n").unwrap();
        let nest = format!(
            "      do i = 1, n{}",
            rest.strip_suffix("      end\n").unwrap()
        );
        match between {
            Some(b) => format!("{head}{nest}{b}{nest}      end\n"),
            None => format!("{head}      do it = 1, 4\n{nest}      end do\n      end\n"),
        }
    }

    fn reuses(compiled: &CompiledProgram) -> Vec<Option<usize>> {
        let spmv = |p: &ExecPlan| match p {
            ExecPlan::Spmv(s) => Some(s.reuses),
            _ => None,
        };
        compiled.plans.iter().filter_map(spmv).collect()
    }

    #[test]
    fn a_loop_of_spmvs_inspects_once_and_prices_one_inspection() {
        let compiled = compile_source(&spmv_twice(None), &CompilerOptions::default()).unwrap();
        assert_eq!(reuses(&compiled), [None, Some(0), Some(0), Some(0)]);
        // A reusing statement is the inspecting one minus the inspector:
        // no `colidx` read and one all-to-all fewer.
        let inspector = crate::irreg::inspector_nodes(
            "colidx",
            &crate::irreg::scattered_stats(64, 512, 4, 4, 1),
        );
        let model = &compiled.model;
        let first = compiled.estimates[0].time();
        let inspect = CostEstimate::from_nest(&inspector, model, 4).time();
        for i in 1..4 {
            assert!(!crate::ir::totals(&compiled.nests[i])
                .per_array
                .contains_key("colidx"));
            let t = compiled.estimates[i].time();
            assert!((first - inspect - t).abs() <= 1e-12 * first, "{i}: {t}");
        }
        let report = compiled.report();
        assert!(
            report.contains(
                "statement 1: spmv y = A * x (n=64, 512 nonzeros, inspector-executor, \
                 two-phase gather I/O)\n"
            ),
            "{report}"
        );
        for i in 2..=4 {
            let line = format!(
                "statement {i}: spmv y = A * x (n=64, 512 nonzeros, schedule of \
                 statement 1 reused, no inspection, two-phase gather I/O)\n"
            );
            assert!(report.contains(&line), "{report}");
        }
    }

    #[test]
    fn only_a_write_to_colidx_between_spmvs_forces_a_new_inspection() {
        let forall = |lhs: &str, n: &str| {
            format!(
                "      forall (k = 1:{n})\n        {lhs}(k) = 63.0 - {lhs}(k)\n      end forall\n"
            )
        };
        for (array, n, expect) in [
            ("colidx", "nnz", None),
            ("x", "n", Some(0)),
            ("vals", "nnz", Some(0)),
            ("rowptr", "n", Some(0)),
        ] {
            let src = spmv_twice(Some(&forall(array, n)));
            let compiled = compile_source(&src, &CompilerOptions::default()).unwrap();
            assert!(matches!(compiled.plans[1], ExecPlan::Elementwise(_)));
            assert_eq!(reuses(&compiled), [None, expect], "{array}");
        }
        // A gather of a different vector needs its own schedule.
        let other = spmv_twice(Some(""))
            .replacen("real y(n), x(n)", "real y(n), x(n), z(n)", 1)
            .replacen(
                "!hpf$ distribute x(block) on pr\n",
                "!hpf$ distribute x(block) on pr\n!hpf$ distribute z(block) on pr\n",
                1,
            );
        let at = other.rfind("x(colidx(k))").unwrap();
        let other = format!("{}z{}", &other[..at], &other[at + 1..]);
        let compiled = compile_source(&other, &CompilerOptions::default()).unwrap();
        assert_eq!(reuses(&compiled), [None, None]);
    }

    #[test]
    fn a_model_the_estimator_cannot_price_is_a_plan_error_not_a_panic() {
        let transpose = "
      parameter (n=16)
      real a(n, n), b(n, n)
!hpf$ processors pr(4)
!hpf$ distribute a(*, block) on pr
!hpf$ distribute b(*, block) on pr
      forall (i = 1:n, j = 1:n)
        b(i, j) = a(j, i)
      end forall
      end
";
        type Field = fn(&mut CostModel) -> &mut f64;
        let times: [(&str, Field); 4] = [
            ("flop_time", |m| &mut m.flop_time),
            ("msg_latency", |m| &mut m.msg_latency),
            ("io_startup", |m| &mut m.io_startup),
            ("io_write_startup", |m| &mut m.io_write_startup),
        ];
        let bandwidths: [(&str, Field); 3] = [
            ("msg_bandwidth", |m| &mut m.msg_bandwidth),
            ("io_aggregate_bandwidth", |m| &mut m.io_aggregate_bandwidth),
            ("io_write_bandwidth", |m| &mut m.io_write_bandwidth),
        ];
        let cases = times
            .iter()
            .flat_map(|&(name, field)| [f64::NAN, -1.0, f64::INFINITY].map(|v| (name, field, v)))
            .chain(
                bandwidths
                    .iter()
                    .flat_map(|&(name, field)| [f64::NAN, -1.0, 0.0].map(|v| (name, field, v))),
            );
        for (name, field, v) in cases {
            let mut m = CostModel::delta(4);
            *field(&mut m) = v;
            let opts = CompilerOptions {
                profile: MachineProfile::Custom(m),
                ..CompilerOptions::default()
            };
            for source in [hpf::GAXPY_SOURCE, transpose] {
                match compile_source(source, &opts) {
                    Err(CompileError::Plan(msg)) => assert!(msg.contains(name), "{msg}"),
                    other => panic!("`{name}` = {v}: expected a plan error, got {other:?}"),
                }
            }
        }
        // A free link (infinite bandwidth) is a valid model.
        let mut free_links = CostModel::delta(4);
        free_links.msg_bandwidth = f64::INFINITY;
        let opts = CompilerOptions {
            profile: MachineProfile::Custom(free_links),
            ..CompilerOptions::default()
        };
        assert!(compile_source(transpose, &opts).is_ok());
        // Fair-share weights outside their domain are refused the same way.
        for (name, load) in [
            (
                "weight",
                dmsim::BackgroundLoad {
                    weight: f64::NAN,
                    ..dmsim::BackgroundLoad::jobs(3)
                },
            ),
            (
                "weight",
                dmsim::BackgroundLoad {
                    weight: 0.0,
                    ..dmsim::BackgroundLoad::jobs(3)
                },
            ),
            (
                "weight",
                dmsim::BackgroundLoad {
                    weight: f64::INFINITY,
                    ..dmsim::BackgroundLoad::jobs(3)
                },
            ),
            (
                "competitor_weight",
                dmsim::BackgroundLoad {
                    competitor_weight: -1.0,
                    ..dmsim::BackgroundLoad::jobs(3)
                },
            ),
            (
                "competitor_weight",
                dmsim::BackgroundLoad {
                    competitor_weight: f64::NAN,
                    ..dmsim::BackgroundLoad::jobs(3)
                },
            ),
        ] {
            let opts = CompilerOptions {
                background: Some(load),
                ..CompilerOptions::default()
            };
            for source in [hpf::GAXPY_SOURCE, transpose] {
                match compile_source(source, &opts) {
                    Err(CompileError::Plan(msg)) => assert!(msg.contains(name), "{msg}"),
                    other => panic!("{load:?}: expected a plan error, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn an_out_of_range_slab_ratio_is_a_plan_error_not_a_panic() {
        for r in [0.0, f64::NAN, 1.5] {
            let opts = CompilerOptions {
                sizing: SlabSizing::Ratio(r),
                ..CompilerOptions::default()
            };
            match compile_source(hpf::GAXPY_SOURCE, &opts) {
                Err(CompileError::Plan(msg)) => assert!(msg.contains("sizing"), "{msg}"),
                other => panic!("ratio {r}: expected a plan error, got {other:?}"),
            }
        }
        let whole = CompilerOptions {
            sizing: SlabSizing::Ratio(1.0),
            ..CompilerOptions::default()
        };
        assert!(compile_source(hpf::GAXPY_SOURCE, &whole).is_ok());
    }

    #[test]
    fn parse_errors_are_reported() {
        let err = compile_source("this is not hpf $$$", &CompilerOptions::default()).unwrap_err();
        assert!(matches!(err, CompileError::Front(_)));
    }

    #[test]
    fn unsupported_patterns_are_reported() {
        let src = "
      parameter (n=8)
      real a(n)
!hpf$ processors pr(2)
!hpf$ distribute a(block) on pr
      do i = 1, n
        a(i) = i
      end do
      end
";
        let err = compile_source(src, &CompilerOptions::default()).unwrap_err();
        assert!(matches!(err, CompileError::Lower(_)), "{err}");
    }

    #[test]
    fn misaligned_operands_of_different_shapes_are_reported_in_one_line() {
        let src = "
      parameter (n=16)
      real u(16, 24), v(16, 16)
!hpf$ processors pr(4)
!hpf$ distribute u(block, *) on pr
!hpf$ distribute v(*, block) on pr
      forall (i = 1:n, j = 1:n)
        v(i, j) = u(i, j)
      end forall
      end
";
        let err = compile_source(src, &CompilerOptions::default()).unwrap_err();
        let want = "planning: elementwise: `u` and `v` have different shapes";
        assert_eq!(err.to_string(), want);
    }

    /// The elementwise plan of statement `i` of `compiled`.
    fn elw_plan(compiled: &CompiledProgram, i: usize) -> &ElwPlan {
        match &compiled.plans[i] {
            ExecPlan::Elementwise(e) => e,
            other => panic!("statement {i} is {other:?}"),
        }
    }

    /// The estimate of `plan`'s nest stripmined along `dim` instead, sized
    /// from `elems` as the compiler sizes it.
    fn priced_along(plan: &ElwPlan, dim: usize, elems: usize, model: &CostModel) -> f64 {
        let mut other = plan.clone();
        other.stripmine(dim, elems);
        CostEstimate::from_nest(&crate::nodegen::elw_nest(&other, 0), model, 4).time()
    }

    #[test]
    fn elw_prefers_contiguous_dim_for_cm_layout() {
        // Local 16x4, column-major: slabs along dim 1 are contiguous, along
        // dim 0 strided, so dim 1 is both the cheaper and the chosen one.
        let src = "
      parameter (n=16)
      real u(n, n), v(n, n)
!hpf$ processors pr(4)
!hpf$ distribute u(*, block) on pr
!hpf$ distribute v(*, block) on pr
      forall (i = 1:n, j = 1:n)
        v(i, j) = u(i, j)
      end forall
      end
";
        let options = CompilerOptions {
            elw_slab_elems: 64,
            ..CompilerOptions::default()
        };
        let compiled = compile_source(src, &options).unwrap();
        let plan = elw_plan(&compiled, 0);
        assert_eq!(plan.slab_dim, 1);
        let along = |d| priced_along(plan, d, 64, &compiled.model);
        assert!(along(0) > along(1));
    }

    #[test]
    fn elw_prefers_rows_for_rm_layout() {
        // Row slabs of the GAXPY store `a` and `c` row-major, so a forall
        // over them stripmines along rows.
        let (head, _) = hpf::GAXPY_SOURCE.rsplit_once("      end").unwrap();
        let src = format!(
            "{head}      forall (i = 2:n-1, j = 1:n)\n        a(i, j) = c(i-1, j) + c(i+1, j)\n      end forall\n      end\n"
        );
        let options = CompilerOptions {
            elw_slab_elems: 256,
            ..CompilerOptions::default()
        };
        let compiled = compile_source(&src, &options).unwrap();
        assert_eq!(compiled.descs[0].layout, FileLayout::row_major(2));
        let plan = elw_plan(&compiled, 1);
        assert_eq!(plan.slab_dim, 0);
        let along = |d| priced_along(plan, d, 256, &compiled.model);
        assert!(along(1) > along(0));
    }

    /// A splitmix64 stream, so the cases below are a function of the seed.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// A random elementwise statement `lhs = Σ refs`: 1- to 3-D, one
    /// dimension block or cyclic and the others collapsed,
    /// shifted references, an operand in another distribution now and
    /// then (remapped first), and a quarter of the time a 2-D statement
    /// after a GAXPY whose row slabs store its arrays row-major.
    fn random_elw_program(rng: &mut Rng) -> HirProgram {
        use crate::hir::{ElwExpr, ElwStmt, HirArray};
        use ooc_array::{DimDist, DimRange, DistKind, Distribution, ProcGrid, Section, Shape};
        let p = 1 + rng.below(4);
        let array = |name: &str, dist: &Distribution| HirArray {
            name: name.into(),
            shape: dist.global().clone(),
            dist: dist.clone(),
        };
        let mut arrays = Vec::new();
        let mut stmts = Vec::new();
        let (lhs, rhs, dist) = if rng.below(4) == 0 {
            let n = 4 + rng.below(13);
            let shape = Shape::matrix(n, n);
            let (col, row) = (
                Distribution::column_block(shape.clone(), p),
                Distribution::row_block(shape, p),
            );
            arrays.extend([array("a", &col), array("b", &row), array("c", &col)]);
            let (a, b, c, temp) = ("a".into(), "b".into(), "c".into(), "t".into());
            stmts.push(HirStmt::Gaxpy { a, b, c, temp, n });
            let rhs = if rng.below(3) == 0 {
                vec!["c", "b"]
            } else {
                vec!["c"]
            };
            ("a", rhs, col)
        } else {
            let nd = 1 + rng.below(3);
            let top = [40, 14, 8][nd - 1];
            let extents: Vec<usize> = (0..nd).map(|_| 3 + rng.below(top - 2)).collect();
            let distributed = rng.below(nd);
            let kind = [DistKind::Block, DistKind::Cyclic][rng.below(2)];
            let dims: Vec<DimDist> = (0..nd)
                .map(|d| match d == distributed {
                    true => DimDist::Distributed { kind, axis: 0 },
                    false => DimDist::Collapsed,
                })
                .collect();
            let dist = Distribution::new(Shape::new(&extents), dims, ProcGrid::line(p));
            arrays.extend([array("v", &dist), array("u", &dist)]);
            let mut rhs = vec!["u"];
            if rng.below(3) == 0 {
                // `w` block-distributed along any dimension.
                let other = rng.below(nd);
                let dims: Vec<DimDist> = (0..nd)
                    .map(|d| match d == other {
                        true => DimDist::Distributed {
                            kind: DistKind::Block,
                            axis: 0,
                        },
                        false => DimDist::Collapsed,
                    })
                    .collect();
                let w = Distribution::new(Shape::new(&extents), dims, ProcGrid::line(p));
                arrays.push(array("w", &w));
                rhs.push("w");
            }
            ("v", rhs, dist)
        };
        // Shifts of up to 2 where the extent leaves room for them.
        let shape = dist.global();
        let room: Vec<bool> = shape.extents().iter().map(|&e| e >= 5).collect();
        let region: Section = (0..shape.ndims())
            .map(|d| match room[d] {
                true => DimRange::new(2, shape.extent(d) - 2),
                false => DimRange::new(0, shape.extent(d)),
            })
            .collect();
        let mut expr = ElwExpr::Const(1.0);
        for name in rhs {
            for _ in 0..1 + rng.below(3) {
                let offsets = (room.iter())
                    .map(|&r| if r { rng.below(5) as isize - 2 } else { 0 })
                    .collect();
                expr = ElwExpr::add(expr, ElwExpr::shifted(name, offsets));
            }
        }
        let stmt = ElwStmt {
            lhs: lhs.into(),
            region,
            rhs: expr,
        };
        stmts.push(HirStmt::Elementwise(stmt));
        HirProgram {
            arrays,
            stmts,
            nprocs: p,
        }
    }

    #[test]
    fn the_slab_dimension_is_the_first_cheapest_by_its_nest_estimate() {
        // Whatever the statement, its compiled estimate is its nest's and
        // no other slab dimension's nest is cheaper; a higher dimension is
        // dearer, so ties go to the highest.
        let mut rng = Rng(2026);
        let (mut compiled_cases, mut lower_dims) = (0, 0);
        for case in 0..1000 {
            let hir = random_elw_program(&mut rng);
            let options = CompilerOptions {
                elw_slab_elems: [1, 6, 40, 300, 1 << 20][rng.below(5)],
                io_method: [None, Some(pario::IoMethod::Sieved)][rng.below(2)],
                prefetch: rng.below(2) == 0,
                ..CompilerOptions::default()
            };
            let Ok(compiled) = compile_hir(hir.clone(), &options) else {
                continue;
            };
            compiled_cases += 1;
            let i = compiled.plans.len() - 1;
            let plan = elw_plan(&compiled, i);
            assert_eq!(compiled.nests[i], crate::nodegen::elw_nest(plan, 0));
            let stored = compiled.estimates[i].time();
            let elems = options.elw_slab_elems;
            for d in (0..plan.lhs.global_shape().ndims()).filter(|&d| d != plan.slab_dim) {
                let other = priced_along(plan, d, elems, &compiled.model);
                assert!(
                    stored < other || (stored == other && d < plan.slab_dim),
                    "case {case}: slab dim {} at {stored} s, dim {d} at {other} s\n{hir:?}",
                    plan.slab_dim
                );
            }
            let top = plan.lhs.global_shape().ndims() - 1;
            lower_dims += usize::from(plan.slab_dim < top);
        }
        assert!(compiled_cases >= 500, "{compiled_cases} cases compiled");
        assert!(lower_dims >= 50, "{lower_dims} cases chose below the top");
    }
}
