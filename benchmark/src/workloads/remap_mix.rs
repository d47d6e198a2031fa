//! `remap-mix`: eight program shapes that move data instead of streaming
//! it — transposes under every access method, an automatic redistribution,
//! ghost exchanges, and the inspector–executor — each run quiet and under
//! chaos fault injection.

use std::collections::BTreeMap;

use dmsim::{Engine, FaultConfig, Machine, MachineConfig, WorkerPool};
use noderun::{init_fn, max_abs_diff, ref_jacobi, ref_transpose, run, InitFn, RunConfig};
use ooc_array::{OocEnv, Section};
use ooc_core::{CompiledProgram, CompilerOptions, ExecPlan};
use pario::IoMethod;

use super::{
    compile, count_choices, est_gap, estimate_of, seeded_init, start_pool, LapClock, OpRow, Rng,
    Sim, Size, Sweep, Workload, POOL_WORKERS,
};
use crate::gen::{spmv_source, stencil_source, transpose_source, StencilDist};
use crate::probes;
use crate::spans::Tracer;
use crate::stats::{fnv_f32, Fnv};

/// SpMV iterations per op.
const SPMV_ITERS: usize = 4;

/// How a shape's program is executed.
#[derive(Clone, Copy, PartialEq)]
enum Exec {
    /// `noderun::run` on the compiled program.
    Run,
    /// The SpMV statement driven [`SPMV_ITERS`] times through
    /// `noderun::spmv::execute_cached` with one schedule cache, so only the
    /// first iteration inspects.
    SpmvReused,
}

struct Shape {
    label: &'static str,
    source: String,
    options: CompilerOptions,
    init: Vec<(&'static str, InitFn)>,
    collect: &'static str,
    reference: Vec<f32>,
    exec: Exec,
}

pub struct RemapMix {
    shapes: Vec<Shape>,
    chaos: FaultConfig,
    pool: WorkerPool,
    compiled: Vec<CompiledProgram>,
}

fn misaligned_source(n: usize, p: usize) -> String {
    format!(
        "
      parameter (n={n})
      real u(n, n), w(n, n), v(n, n)
!hpf$ processors pr({p})
!hpf$ distribute u(block, *) on pr
!hpf$ distribute w(*, block) on pr
!hpf$ distribute v(*, block) on pr
      forall (i = 1:n, j = 1:n)
        v(i, j) = 2.0 * u(i, j) + w(i, j)
      end forall
      end
"
    )
}

impl RemapMix {
    pub fn setup(seed: u64, size: Size, tr: &mut Tracer) -> RemapMix {
        let (nt, pt, ne, pe, nj, pj, ns, nnz, ps) = match size {
            Size::Full => (1024, 16, 512, 8, 512, 4, 8192, 1 << 19, 8),
            Size::Smoke => (64, 4, 32, 4, 32, 4, 64, 512, 4),
        };
        let base = CompilerOptions {
            engine: Engine::Pool(POOL_WORKERS),
            ..CompilerOptions::default()
        };
        let mut shapes = Vec::new();

        let fa = seeded_init(seed, 0x7a);
        let transposed = ref_transpose(nt, &fa);
        for (label, method) in [
            ("transpose direct", Some(IoMethod::Direct)),
            ("transpose sieved", Some(IoMethod::Sieved)),
            ("transpose two-phase", Some(IoMethod::TwoPhase)),
            ("transpose auto", None),
        ] {
            shapes.push(Shape {
                label,
                source: transpose_source(nt, pt, false),
                options: CompilerOptions {
                    io_method: method,
                    ..base.clone()
                },
                init: vec![("a", init_fn(fa.clone()))],
                collect: "b",
                reference: transposed.clone(),
                exec: Exec::Run,
            });
        }

        let (fu, fw) = (seeded_init(seed, 0x7b), seeded_init(seed, 0x7c));
        let mut misaligned = vec![0.0f32; ne * ne];
        for j in 0..ne {
            for i in 0..ne {
                misaligned[i + j * ne] = 2.0 * fu(&[i, j]) + fw(&[i, j]);
            }
        }
        shapes.push(Shape {
            label: "misaligned forall",
            source: misaligned_source(ne, pe),
            options: base.clone(),
            init: vec![("u", init_fn(fu)), ("w", init_fn(fw))],
            collect: "v",
            reference: misaligned,
            exec: Exec::Run,
        });

        let fj = seeded_init(seed, 0x7d);
        shapes.push(Shape {
            label: "jacobi x2",
            source: stencil_source(nj, pj, 2, StencilDist::Aligned),
            options: base.clone(),
            // The boundary of v keeps its initial values.
            init: vec![("u", init_fn(fj.clone())), ("v", init_fn(fj.clone()))],
            collect: "v",
            reference: ref_jacobi(nj, &fj),
            exec: Exec::Run,
        });

        // CSR with `nnz / n` stored entries per row at seeded scattered
        // columns; all values are multiples of 1/8, so the row sums are
        // exact and a plain serial product is the reference.
        let per = nnz / ns;
        let mut r = Rng::new(seed, 0x5b);
        let (ca, cb, cc) = (
            1 + 2 * r.below(64) as usize,
            1 + 2 * r.below(16) as usize,
            r.below(ns as u64) as usize,
        );
        let col = move |k: usize| (k * ca + (k / 3) * cb + cc) % ns;
        let fv = seeded_init(seed, 0x7e);
        let fx = seeded_init(seed, 0x7f);
        let y: Vec<f32> = (0..ns)
            .map(|i| (i * per..(i + 1) * per).fold(0.0f32, |acc, k| acc + fv(&[k]) * fx(&[col(k)])))
            .collect();
        let csr_init: Vec<(&'static str, InitFn)> = vec![
            ("rowptr", init_fn(move |g| (g[0] * per) as f32)),
            ("colidx", init_fn(move |g| col(g[0]) as f32)),
            ("vals", init_fn(fv)),
            ("x", init_fn(fx)),
        ];
        shapes.push(Shape {
            label: "spmv x4 re-inspected",
            source: spmv_source(ns, nnz, ps, SPMV_ITERS),
            options: base.clone(),
            init: csr_init.clone(),
            collect: "y",
            reference: y.clone(),
            exec: Exec::Run,
        });
        shapes.push(Shape {
            label: "spmv x4 schedule reused",
            source: spmv_source(ns, nnz, ps, 1),
            options: base,
            init: csr_init,
            collect: "y",
            reference: y,
            exec: Exec::SpmvReused,
        });

        RemapMix {
            shapes,
            chaos: FaultConfig::chaos(seed),
            pool: start_pool(tr),
            compiled: Vec::new(),
        }
    }
}

/// Drive the compiled SpMV statement [`SPMV_ITERS`] times with one schedule
/// cache per rank: what `noderun::run` does for one statement, plus reuse.
fn run_spmv_reused(
    compiled: &CompiledProgram,
    init: &[(&'static str, InitFn)],
    fault: Option<&FaultConfig>,
    pool: &WorkerPool,
) -> Result<(dmsim::RunReport, Vec<f32>), String> {
    let ExecPlan::Spmv(plan) = &compiled.plans[0] else {
        return Err("not an spmv program".into());
    };
    let mut machine = Machine::new(MachineConfig::new(
        compiled.nprocs(),
        compiled.model.clone(),
    ));
    if let Some(fc) = fault {
        machine = machine.with_fault_injection(fc.clone());
    }
    let (report, per_rank) = machine.run_on(pool, |ctx| -> Result<Vec<f32>, String> {
        let mut env = OocEnv::in_memory(ctx.rank());
        for desc in &compiled.descs {
            env.alloc(desc).map_err(|e| e.to_string())?;
            if let Some((_, f)) = init.iter().find(|(name, _)| *name == desc.name) {
                env.load_global(desc, &|g| f(g))
                    .map_err(|e| e.to_string())?;
            }
        }
        if let Some(fc) = fault {
            env.enable_faults_for_job(fc, ctx.job());
        }
        let mut cache = None;
        for _ in 0..SPMV_ITERS {
            noderun::spmv::execute_cached(ctx, &mut env, plan, &mut cache, Some(&compiled.model))
                .map_err(|e| e.to_string())?;
        }
        let shape = plan.y.local_shape(ctx.rank());
        env.read_section_uncharged(&plan.y, &Section::full(&shape))
            .map_err(|e| e.to_string())
    });
    // y is block distributed: rank order is global order.
    let mut y = Vec::new();
    for piece in per_rank {
        y.extend(piece?);
    }
    Ok((report, y))
}

impl Workload for RemapMix {
    fn sweep(&mut self, tr: &mut Tracer) -> Sweep {
        let mut sweep = Sweep::default();
        let mut digest = Fnv::default();
        self.compiled.clear();
        let mut op_index = 0u32;
        let mut clock = LapClock::start();
        for fault in [None, Some(&self.chaos)] {
            for shape in &self.shapes {
                tr.set_op(op_index);
                op_index += 1;
                let op = tr.begin("bench", "op");
                sweep.ops += 1;
                let mut row = OpRow {
                    label: format!(
                        "{}{}",
                        shape.label,
                        if fault.is_some() { " (chaos)" } else { "" }
                    ),
                    sim_s: 0.0,
                    est_gap: None,
                    ok: false,
                };
                let compiled = compile(&shape.source, &shape.options, tr);
                let outcome = compiled
                    .as_ref()
                    .ok()
                    .and_then(|compiled| match shape.exec {
                        Exec::Run => {
                            let mut cfg = RunConfig {
                                pool: Some(self.pool.clone()),
                                collect: vec![shape.collect.into()],
                                fault: fault.cloned(),
                                ..RunConfig::default()
                            };
                            for (name, f) in &shape.init {
                                cfg.init.insert((*name).into(), f.clone());
                            }
                            tr.span("noderun", "run_s", || run(compiled, &cfg))
                                .ok()
                                .map(|mut out| {
                                    let (_, data) =
                                        out.collected.remove(shape.collect).expect("collected");
                                    (out.report, data)
                                })
                        }
                        Exec::SpmvReused => tr
                            .span("noderun", "run_s", || {
                                run_spmv_reused(compiled, &shape.init, fault, &self.pool)
                            })
                            .ok(),
                    });
                if let (Ok(compiled), Some((report, data))) = (compiled, outcome) {
                    let (diff, fnv) = tr.span("noderun", "collect_verify_s", || {
                        (max_abs_diff(&data, &shape.reference), fnv_f32(&data))
                    });
                    row.ok = diff == 0.0;
                    let sim = Sim::of_report(&report);
                    row.sim_s = sim.elapsed_s;
                    // The compiler estimates one statement execution; the
                    // reused-schedule op has no estimate of its own.
                    if shape.exec == Exec::Run {
                        let gap = est_gap(&compiled, &report);
                        row.est_gap = Some((estimate_of(&compiled).2, gap));
                        sweep.est_gap_max_rel = sweep.est_gap_max_rel.max(gap);
                    }
                    sweep.sim.add(&sim);
                    sim.digest(&mut digest);
                    digest.u64(fnv);
                    let totals = report.totals();
                    sweep.count_stats(&totals);
                    sweep.count("noderun.sim_flops", totals.flops as f64);
                    count_choices(&compiled, false, &mut sweep);
                    sweep.count("hpf.source_bytes", shape.source.len() as f64);
                    if matches!(compiled.plans[0], ExecPlan::Spmv(_)) {
                        sweep.count("ooc-array.gathers", SPMV_ITERS as f64);
                        sweep.count(
                            "ooc-array.inspects",
                            if shape.exec == Exec::SpmvReused {
                                1.0
                            } else {
                                SPMV_ITERS as f64
                            },
                        );
                    }
                    if fault.is_none() {
                        self.compiled.push(compiled);
                    }
                }
                sweep.failed += u64::from(!row.ok);
                sweep.rows.push(row);
                tr.end(op);
                sweep.laps.push(clock.lap());
            }
        }
        sweep.digest = digest.0;
        sweep
    }

    fn probes(&mut self, tr: &mut Tracer) -> BTreeMap<&'static str, f64> {
        let mut counts = BTreeMap::new();
        let mut sections = Vec::new();
        for (shape, compiled) in self.shapes.iter().zip(&self.compiled) {
            let init_of = |name: &str| {
                shape
                    .init
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, f)| f.clone())
                    .expect("the op initialised the array")
            };
            match &compiled.plans[0] {
                // The slab sections rank 0 reads of the transpose source.
                ExecPlan::Transpose(t) => {
                    let local = t.src.local_shape(0);
                    let dim = t.src.layout.slowest_dim();
                    let plan = ooc_array::SlabPlan::new(local.clone(), dim, t.slab_thickness);
                    sections.push((t.src.layout.clone(), local, plan.iter().collect()));
                }
                ExecPlan::Elementwise(e) => {
                    for r in &e.pre_remaps {
                        let init = init_of(&r.src.name);
                        probes::redistribute(tr, &r.src, &r.tmp, r.method, &init, &self.pool);
                    }
                }
                ExecPlan::Spmv(s) if shape.exec == Exec::SpmvReused => {
                    probes::inspect_gather(
                        tr,
                        &s.x,
                        &s.colidx,
                        s.method,
                        SPMV_ITERS,
                        &init_of("x"),
                        &init_of("colidx"),
                        &self.pool,
                    );
                }
                _ => {}
            }
        }
        probes::section_io(tr, &sections, &mut counts);
        // Simulated-clock tracing on the Jacobi shape: compute, exchange
        // and disk events in one small run.
        let jacobi = &self.shapes[5];
        probes::trace_recording(
            tr,
            &jacobi.source,
            &jacobi.options,
            &|cfg: &mut RunConfig| {
                for (name, f) in &jacobi.init {
                    cfg.init.insert((*name).into(), f.clone());
                }
            },
            &self.pool,
            &mut counts,
        );
        counts
    }
}
