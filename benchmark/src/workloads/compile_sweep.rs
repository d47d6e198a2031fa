//! `compile-sweep`: a seeded HPF corpus compiled under six option sets.
//! Nothing executes, so `hpf` and `ooc-core` do all the work.

use std::collections::BTreeMap;

use ooc_core::stripmine::SlabSizing;
use ooc_core::{
    CompileError, CompiledProgram, CompilerOptions, ExecPlan, MemoryPolicy, SlabStrategy,
};

use super::{
    compile, count_choices, estimate_of, ir_ops, release, LapClock, OpRow, Sim, Size, Sweep,
    Workload,
};
use crate::gen::{hpf_corpus, Class, Expect, Program};
use crate::probes;
use crate::spans::Tracer;
use crate::stats::Fnv;

/// Node memory the budgeted option sets split, in elements.
const BUDGET_ELEMS: usize = 1 << 16;
/// Slab cache in front of the disk for the cached option set, bytes.
const CACHE_BYTES: usize = 256 << 10;
/// Programs per timed lap: 20 laps of about 35 ms in a full sweep.
const LAP_PROGRAMS: usize = 100;

pub struct CompileSweep {
    corpus: Vec<Program>,
    options: Vec<(&'static str, CompilerOptions)>,
}

impl CompileSweep {
    pub fn setup(seed: u64, size: Size, _tr: &mut Tracer) -> CompileSweep {
        let count = match size {
            Size::Full => 2000,
            Size::Smoke => 60,
        };
        let search = SlabSizing::Budget {
            elems: BUDGET_ELEMS,
            policy: MemoryPolicy::Search,
        };
        let base = CompilerOptions::default;
        let options = vec![
            ("default", base()),
            (
                "forced column 1/8",
                CompilerOptions {
                    force_strategy: Some(SlabStrategy::ColumnSlab),
                    sizing: SlabSizing::Ratio(0.125),
                    ..base()
                },
            ),
            (
                "budget search",
                CompilerOptions {
                    sizing: search,
                    ..base()
                },
            ),
            (
                "budget search +cache",
                CompilerOptions {
                    sizing: search,
                    cache_budget: Some(CACHE_BYTES),
                    ..base()
                },
            ),
            (
                "background load",
                CompilerOptions {
                    background: Some(dmsim::BackgroundLoad::jobs(3)),
                    ..base()
                },
            ),
            (
                "forced direct",
                CompilerOptions {
                    io_method: Some(pario::IoMethod::Direct),
                    ..base()
                },
            ),
        ];
        CompileSweep {
            corpus: hpf_corpus(seed, count),
            options,
        }
    }
}

/// Whether the compiler did what the generator says it must: the plan kind
/// and statement count of an accepted program come from the generator, not
/// from the compiler under test.
fn as_expected(p: &Program, got: &Result<CompiledProgram, CompileError>) -> bool {
    match (p.expect, got) {
        (Expect::Accept { stmts }, Ok(c)) => {
            c.nprocs() == p.nprocs
                && c.plans.len() == stmts
                && c.plans.iter().all(|plan| {
                    matches!(
                        (p.class, plan),
                        (Class::Gaxpy, ExecPlan::Gaxpy(_))
                            | (Class::Stencil, ExecPlan::Elementwise(_))
                            | (Class::Transpose, ExecPlan::Transpose(_))
                            | (Class::Spmv, ExecPlan::Spmv(_))
                    )
                })
                && c.estimates.iter().all(|e| e.time().is_finite())
        }
        (Expect::Malformed, Err(CompileError::Front(e))) => e.line >= 1,
        (Expect::Unsupported, Err(CompileError::Plan(_))) => true,
        _ => false,
    }
}

impl Workload for CompileSweep {
    fn sweep(&mut self, tr: &mut Tracer) -> Sweep {
        let mut sweep = Sweep::default();
        let mut digest = Fnv::default();
        let mut per_set: Vec<(f64, bool)> = vec![(0.0, true); self.options.len()];
        let mut clock = LapClock::start();
        for (i, program) in self.corpus.iter().enumerate() {
            tr.set_op(i as u32);
            let op = tr.begin("bench", "op");
            for (k, (_, options)) in self.options.iter().enumerate() {
                sweep.ops += 1;
                let got = compile(&program.source, options, tr);
                let ok = as_expected(program, &got);
                sweep.failed += u64::from(!ok);
                per_set[k].1 &= ok;
                sweep.count("hpf.source_bytes", program.source.len() as f64);
                match got {
                    Ok(compiled) => {
                        let (req, bytes, secs) = estimate_of(&compiled);
                        let sim = Sim {
                            elapsed_s: secs,
                            io_requests: req,
                            io_bytes: bytes,
                            msg_bytes: compiled.estimates.iter().map(|e| e.totals.comm_bytes).sum(),
                            events: ir_ops(&compiled),
                        };
                        per_set[k].0 += secs;
                        sweep.sim.add(&sim);
                        sim.digest(&mut digest);
                        count_choices(&compiled, options.force_strategy.is_some(), &mut sweep);
                        release(compiled, tr);
                    }
                    Err(e) => {
                        sweep.count("hpf.rejects", 1.0);
                        digest.bytes(e.to_string().as_bytes());
                    }
                }
            }
            tr.end(op);
            if (i + 1) % LAP_PROGRAMS == 0 || i + 1 == self.corpus.len() {
                sweep.laps.push(clock.lap());
            }
        }
        for ((label, _), (secs, ok)) in self.options.iter().zip(per_set) {
            sweep.rows.push(OpRow {
                label: format!("{} x {}", self.corpus.len(), label),
                sim_s: secs,
                est_gap: None,
                ok,
            });
        }
        sweep.digest = digest.0;
        sweep
    }

    /// The memory search and the reuse replay behind every searched GAXPY
    /// compile of the sweep, on the plan that compile produced. The plans
    /// are recompiled here rather than kept from the sweep, so the traced
    /// sweep allocates exactly what the untraced one does.
    fn probes(&mut self, tr: &mut Tracer) -> BTreeMap<&'static str, f64> {
        for program in self.corpus.iter().filter(|p| p.class == Class::Gaxpy) {
            for (_, options) in &self.options {
                let SlabSizing::Budget {
                    elems,
                    policy: policy @ MemoryPolicy::Search,
                } = options.sizing
                else {
                    continue;
                };
                let Ok(compiled) = ooc_core::compile_source(&program.source, options) else {
                    continue;
                };
                let Some(ExecPlan::Gaxpy(g)) = compiled.plans.first() else {
                    continue;
                };
                let cache = options.cache_budget;
                probes::memory_search(tr, g, elems, policy, &compiled.model, cache);
                if let Some(budget) = cache {
                    probes::reuse_replay(tr, g, budget);
                }
            }
        }
        BTreeMap::new()
    }
}
