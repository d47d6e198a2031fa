//! Budget sweep of the slab reuse cache (DESIGN.md "Reuse and caching").
//!
//! For each kernel the runtime cache budget sweeps from uncached to
//! several multiples of the working set, and the table reports the disk
//! requests, bytes, cache hits, write-backs and simulated time per
//! processor. Requests are monotonically non-increasing in the budget:
//! a larger cache never issues more disk requests (EXPERIMENTS.md). Both
//! are asserted, and so is GAXPY's estimate: `est req` equals the measured
//! `req/proc` in every row.
//!
//! Three kernels exercise the three reuse shapes:
//!
//! * **gaxpy** (column and row slabs) — cyclic slab re-reads of A; once
//!   the budget covers the local A panel the re-reads collapse to one
//!   cold pass. The compiler's reuse-aware estimate (`est`) walks the
//!   executor's own slab schedule through a predictor cache, so estimated
//!   and measured request counts agree exactly.
//! * **jacobi sweeps** (elementwise) — ghost-row overlap between adjacent
//!   slabs and cross-sweep reuse of the just-written array.
//! * **transpose** — no read reuse (the source streams once); the gain is
//!   pure write-back coalescing of the small per-piece column fragments.
//!
//! Usage: `cargo run --release -p ooc-bench --bin cache_sweep [n]`
//! (default n = 128).

use dmsim::{Machine, MachineConfig, RunReport};
use noderun::{init_fn, run, RunConfig};
use ooc_array::{ArrayDesc, ArrayId, Distribution, FileLayout, OocEnv, Shape};
use ooc_bench::table::secs;
use ooc_bench::{gaxpy_hir, TextTable};
use ooc_core::plan::TransposePlan;
use ooc_core::stripmine::SlabSizing;
use ooc_core::{compile_source, CompilerOptions, SlabStrategy};
use pario::ElemKind;

fn budget_label(b: Option<usize>) -> String {
    match b {
        None => "uncached".to_string(),
        Some(b) if b >= 1 << 20 => format!("{} MiB", b >> 20),
        Some(b) => format!("{} KiB", b >> 10),
    }
}

/// One row of measured counters from rank 0 (all ranks are symmetric for
/// evenly divisible configurations).
fn counters(report: &RunReport) -> Vec<String> {
    let s = report.per_proc()[0].stats;
    vec![
        s.io_requests().to_string(),
        s.io_bytes().to_string(),
        s.cache_hits.to_string(),
        s.write_back_requests.to_string(),
        secs(report.elapsed()),
    ]
}

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("n must be an integer"))
        .unwrap_or(128);
    let p = 4usize;
    let la_bytes = n * (n / p) * 4; // one local panel of A (or C)

    // ---- 1. GAXPY: slab re-reads collapse as the budget grows -----------
    for strategy in [SlabStrategy::ColumnSlab, SlabStrategy::RowSlab] {
        println!(
            "cache sweep: gaxpy {n}x{n}, {p} procs, {}, ratio 1/4\n",
            strategy.name()
        );
        let mut t = TextTable::new(&[
            "budget",
            "req/proc",
            "bytes/proc",
            "hits",
            "write-backs",
            "time (s)",
            "est req",
            "est time (s)",
        ]);
        let budgets = [
            None,
            Some(la_bytes / 4),
            Some(la_bytes / 2),
            Some(la_bytes),
            Some(2 * la_bytes),
        ];
        let mut last_requests = u64::MAX;
        for budget in budgets {
            let compiled = ooc_core::compile_hir(
                gaxpy_hir(n, p),
                &CompilerOptions {
                    sizing: SlabSizing::Ratio(0.25),
                    force_strategy: Some(strategy),
                    cache_budget: budget,
                    ..CompilerOptions::default()
                },
            )
            .expect("gaxpy compiles");
            let mut cfg = RunConfig::default();
            cfg.init
                .insert("a".into(), init_fn(ooc_bench::harness::init_a));
            cfg.init
                .insert("b".into(), init_fn(ooc_bench::harness::init_b));
            let outcome = run(&compiled, &cfg).expect("runs");
            let mut cells = vec![budget_label(budget)];
            cells.extend(counters(&outcome.report));
            cells.push(compiled.estimates[0].io_requests().to_string());
            cells.push(secs(compiled.estimates[0].time()));
            t.row(cells);
            let req = outcome.report.per_proc()[0].stats.io_requests();
            let est = compiled.estimates[0].io_requests();
            assert_eq!(
                est,
                req,
                "{}, budget {budget:?}: estimated {est} requests, measured {req}",
                strategy.name()
            );
            assert!(
                req <= last_requests,
                "budget {budget:?}: {req} requests > previous {last_requests}"
            );
            last_requests = req;
        }
        print!("{}", t.render());
        println!();
    }

    // ---- 2. Jacobi sweeps: ghost overlap + cross-sweep reuse ------------
    println!("cache sweep: jacobi {n}x{n}, {p} procs, 4 sweeps\n");
    {
        let src = format!(
            "
      parameter (n={n})
      real u(n, n), v(n, n)
!hpf$ processors pr({p})
!hpf$ template t(n)
!hpf$ distribute t(block) on pr
!hpf$ align (:, *) with t :: u, v
      do it = 1, 2
        forall (i = 2:n-1, j = 2:n-1)
          v(i, j) = 0.25 * (u(i-1, j) + u(i+1, j) + u(i, j-1) + u(i, j+1))
        end forall
        forall (i = 2:n-1, j = 2:n-1)
          u(i, j) = 0.25 * (v(i-1, j) + v(i+1, j) + v(i, j-1) + v(i, j+1))
        end forall
      end do
      end
"
        );
        let mut t = TextTable::new(&[
            "budget",
            "req/proc",
            "bytes/proc",
            "hits",
            "write-backs",
            "time (s)",
        ]);
        let mut last_requests = u64::MAX;
        for budget in [None, Some(la_bytes / 2), Some(la_bytes), Some(4 * la_bytes)] {
            let compiled = compile_source(
                &src,
                &CompilerOptions {
                    elw_slab_elems: 4 * n * 3,
                    cache_budget: budget,
                    ..CompilerOptions::default()
                },
            )
            .expect("jacobi compiles");
            let mut cfg = RunConfig::default();
            cfg.init.insert(
                "u".into(),
                init_fn(|g| ((g[0] * 13 + g[1] * 7) % 17) as f32 * 0.0625),
            );
            let outcome = run(&compiled, &cfg).expect("runs");
            let mut cells = vec![budget_label(budget)];
            cells.extend(counters(&outcome.report));
            t.row(cells);
            let req = outcome.report.per_proc()[0].stats.io_requests();
            assert!(req <= last_requests, "requests must not grow with budget");
            last_requests = req;
        }
        print!("{}", t.render());
        println!();
    }

    // ---- 3. Transpose: pure write-back coalescing -----------------------
    println!("cache sweep: transpose {n}x{n}, {p} procs (write coalescing only)\n");
    {
        let shape = Shape::matrix(n, n);
        let src = ArrayDesc::new(
            ArrayId(0),
            "s",
            ElemKind::F32,
            Distribution::row_block(shape.clone(), p),
        )
        .with_layout(FileLayout::column_major(2));
        let dst = ArrayDesc::new(
            ArrayId(1),
            "d",
            ElemKind::F32,
            Distribution::column_block(shape, p),
        );
        let plan = TransposePlan {
            src: src.clone(),
            dst: dst.clone(),
            slab_thickness: (n / p / 4).max(1),
            method: pario::IoMethod::Direct,
        };
        let value = |g: &[usize]| (g[0] * 100 + g[1]) as f32;
        let mut t = TextTable::new(&[
            "budget",
            "req/proc",
            "bytes/proc",
            "hits",
            "write-backs",
            "time (s)",
        ]);
        let mut last_requests = u64::MAX;
        for budget in [None, Some(la_bytes / 4), Some(la_bytes), Some(4 * la_bytes)] {
            let machine = Machine::new(MachineConfig::delta(p));
            let report = machine.run(|ctx| {
                let mut env = OocEnv::in_memory(ctx.rank());
                env.alloc(&src).unwrap();
                env.alloc(&dst).unwrap();
                env.load_global(&src, &value).unwrap();
                if let Some(b) = budget {
                    env.enable_cache(b);
                }
                noderun::transpose::execute(ctx, &mut env, &plan).unwrap();
                env.flush_cache(ctx).unwrap();
            });
            let mut cells = vec![budget_label(budget)];
            cells.extend(counters(&report));
            t.row(cells);
            let req = report.per_proc()[0].stats.io_requests();
            assert!(req <= last_requests, "requests must not grow with budget");
            last_requests = req;
        }
        print!("{}", t.render());
    }
}
