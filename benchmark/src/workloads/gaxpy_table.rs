//! `gaxpy-table`: the paper's Tables 1 and 2 as thirty compile-and-run
//! cells of the Figure 3 program.

use std::collections::BTreeMap;

use dmsim::{Engine, WorkerPool};
use noderun::{init_fn, max_abs_diff, ref_gaxpy, run, RunConfig};
use ooc_array::Section;
use ooc_core::stripmine::SlabSizing;
use ooc_core::{CompiledProgram, CompilerOptions, ExecPlan, MemoryPolicy, SlabStrategy};

use super::{
    compile, count_choices, est_gap, estimate_of, gaxpy_source, seeded_init, start_pool, LapClock,
    OpRow, Sim, Size, Sweep, Workload, POOL_WORKERS,
};
use crate::probes;
use crate::spans::Tracer;
use crate::stats::{fnv_f32, Fnv};

/// Result tolerance against the serial reference. The seeded inputs are
/// multiples of 1/8, so products and their sums are exact in `f32` and any
/// summation order gives the same bits; the slack is for nothing but form.
const TOLERANCE: f32 = 1e-3;

struct Cell {
    label: String,
    p: usize,
    options: CompilerOptions,
    cache_budget: Option<usize>,
}

pub struct GaxpyTable {
    cells: Vec<Cell>,
    sources: BTreeMap<usize, String>,
    init_a: noderun::InitFn,
    init_b: noderun::InitFn,
    reference: Vec<f32>,
    reference_fnv: u64,
    pool: WorkerPool,
    /// The compiled program of every cell of the last sweep, for the probes.
    compiled: Vec<CompiledProgram>,
}

impl GaxpyTable {
    pub fn setup(seed: u64, size: Size, tr: &mut Tracer) -> GaxpyTable {
        let n = match size {
            Size::Full => 512,
            Size::Smoke => 64,
        };
        let fa = seeded_init(seed, 0xa);
        let fb = seeded_init(seed, 0xb);
        let reference = ref_gaxpy(n, &fa, &fb);
        let reference_fnv = fnv_f32(&reference);

        let base = CompilerOptions {
            engine: Engine::Pool(POOL_WORKERS),
            ..CompilerOptions::default()
        };
        let mut cells = Vec::new();
        // Table 1 / Figure 10: slab ratio sweep, both forced orientations
        // and the compiler's own choice.
        for p in [4usize, 16] {
            for (ratio, rname) in [(0.125, "1/8"), (0.25, "1/4"), (0.5, "1/2"), (1.0, "1")] {
                for (strategy, sname) in [
                    (Some(SlabStrategy::ColumnSlab), "col"),
                    (Some(SlabStrategy::RowSlab), "row"),
                    (None, "auto"),
                ] {
                    cells.push(Cell {
                        label: format!("p{p} ratio {rname} {sname}"),
                        p,
                        options: CompilerOptions {
                            sizing: SlabSizing::Ratio(ratio),
                            force_strategy: strategy,
                            ..base.clone()
                        },
                        cache_budget: None,
                    });
                }
            }
        }
        // Table 2: one node-memory budget split three ways, uncached and
        // in front of a 256 KiB slab cache. The budget is the table's
        // largest swept total, scaled from the paper's 2K x 2K to `n`.
        let p = 16usize;
        let budget_elems = (256 * n / 2048 + n) * (n / p);
        for (policy, pname) in [
            (MemoryPolicy::EqualSplit, "equal"),
            (MemoryPolicy::AccessWeighted, "weighted"),
            (MemoryPolicy::Search, "search"),
        ] {
            for cache_budget in [None, Some(256 << 10)] {
                cells.push(Cell {
                    label: format!(
                        "p{p} budget {pname}{}",
                        if cache_budget.is_some() {
                            " +cache"
                        } else {
                            ""
                        }
                    ),
                    p,
                    options: CompilerOptions {
                        sizing: SlabSizing::Budget {
                            elems: budget_elems,
                            policy,
                        },
                        cache_budget,
                        ..base.clone()
                    },
                    cache_budget,
                });
            }
        }
        let sources = [4usize, 16]
            .into_iter()
            .map(|p| (p, gaxpy_source(n, p)))
            .collect();
        GaxpyTable {
            cells,
            sources,
            init_a: init_fn(fa),
            init_b: init_fn(fb),
            reference,
            reference_fnv,
            pool: start_pool(tr),
            compiled: Vec::new(),
        }
    }
}

impl Workload for GaxpyTable {
    fn sweep(&mut self, tr: &mut Tracer) -> Sweep {
        let mut sweep = Sweep::default();
        let mut digest = Fnv::default();
        self.compiled.clear();
        let mut clock = LapClock::start();
        for (i, cell) in self.cells.iter().enumerate() {
            tr.set_op(i as u32);
            let op = tr.begin("bench", "op");
            sweep.ops += 1;
            let mut row = OpRow {
                label: cell.label.clone(),
                sim_s: 0.0,
                est_gap: None,
                ok: false,
            };
            let compiled = compile(&self.sources[&cell.p], &cell.options, tr);
            let outcome = compiled.as_ref().ok().map(|compiled| {
                let mut cfg = RunConfig {
                    cache_budget: cell.cache_budget,
                    pool: Some(self.pool.clone()),
                    collect: vec!["c".into()],
                    ..RunConfig::default()
                };
                cfg.init.insert("a".into(), self.init_a.clone());
                cfg.init.insert("b".into(), self.init_b.clone());
                tr.span("noderun", "run_s", || run(compiled, &cfg))
            });
            if let (Ok(compiled), Some(Ok(outcome))) = (compiled, outcome) {
                let (_, c) = &outcome.collected["c"];
                let (diff, fnv) = tr.span("noderun", "collect_verify_s", || {
                    (max_abs_diff(c, &self.reference), fnv_f32(c))
                });
                row.ok = diff <= TOLERANCE && fnv == self.reference_fnv;
                let sim = Sim::of_report(&outcome.report);
                let gap = est_gap(&compiled, &outcome.report);
                row.sim_s = sim.elapsed_s;
                row.est_gap = Some((estimate_of(&compiled).2, gap));
                sweep.est_gap_max_rel = sweep.est_gap_max_rel.max(gap);
                sweep.sim.add(&sim);
                sim.digest(&mut digest);
                digest.u64(fnv);
                let totals = outcome.report.totals();
                sweep.count_stats(&totals);
                sweep.count("noderun.sim_flops", totals.flops as f64);
                count_choices(&compiled, cell.options.force_strategy.is_some(), &mut sweep);
                sweep.count("hpf.source_bytes", self.sources[&cell.p].len() as f64);
                self.compiled.push(compiled);
            }
            sweep.failed += u64::from(!row.ok);
            sweep.rows.push(row);
            tr.end(op);
            sweep.laps.push(clock.lap());
        }
        sweep.digest = digest.0;
        sweep
    }

    fn probes(&mut self, tr: &mut Tracer) -> BTreeMap<&'static str, f64> {
        let mut counts = BTreeMap::new();
        let mut sections = Vec::new();
        for (cell, compiled) in self.cells.iter().zip(&self.compiled) {
            let ExecPlan::Gaxpy(g) = &compiled.plans[0] else {
                continue;
            };
            // The slab sections rank 0 reads of A, in the plan's order.
            let local = g.a.local_shape(0);
            let slab_dim = match g.strategy {
                SlabStrategy::ColumnSlab => 1,
                SlabStrategy::RowSlab => 0,
            };
            let plan = ooc_array::SlabPlan::new(local.clone(), slab_dim, g.slab_a);
            let slabs: Vec<Section> = plan.iter().collect();
            sections.push((g.a.layout.clone(), local, slabs));
            if let SlabSizing::Budget { elems, policy } = cell.options.sizing {
                probes::memory_search(tr, g, elems, policy, &compiled.model, cell.cache_budget);
            }
            if let Some(budget) = cell.cache_budget {
                probes::reuse_replay(tr, g, budget);
            }
        }
        probes::section_io(tr, &sections, &mut counts);
        let cell = &self.cells[0];
        probes::trace_recording(
            tr,
            &self.sources[&cell.p],
            &cell.options,
            &|cfg: &mut RunConfig| {
                cfg.init.insert("a".into(), self.init_a.clone());
                cfg.init.insert("b".into(), self.init_b.clone());
            },
            &self.pool,
            &mut counts,
        );
        counts
    }
}
