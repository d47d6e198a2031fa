//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. storage reorganization on/off (row slabs with and without the
//!    row-major relayout of A and C);
//! 2. cost-model-driven strategy selection vs forced column slabs;
//! 3. memory-allocation policies at several budgets, on two disk regimes;
//! 4. prefetch (overlap slab fetches with compute);
//! 5. PASSION-style data sieving vs storage reorganization;
//! 6. amortization of the one-time relayout (§2.3);
//! 7. the same program on a modern cluster cost profile (does the
//!    optimization still matter when I/O is 1000x faster?).
//!
//! Usage: `cargo run --release -p ooc-bench --bin ablation [n]`
//! (default n = 512 — ablations sweep many cells).

use dmsim::CostModel;
use ooc_bench::table::secs;
use ooc_bench::{gaxpy_hir, run_matmul, MatmulSetup, TextTable};
use ooc_core::pipeline::MachineProfile;
use ooc_core::stripmine::SlabSizing;
use ooc_core::{compile_hir, CompilerOptions, MemoryPolicy, SlabStrategy};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("n must be an integer"))
        .unwrap_or(512);
    let p = 4usize;

    // ---- 1. Storage reorganization ------------------------------------
    println!("ablation 1: storage reorganization (row-slab {n}x{n}, {p} procs, ratio 1/4)\n");
    let mut t = TextTable::new(&["reorganize", "time (s)", "requests/proc"]);
    for reorg in [true, false] {
        let row = run_matmul(&MatmulSetup {
            n,
            p,
            strategy: Some(SlabStrategy::RowSlab),
            sizing: SlabSizing::Ratio(0.25),
            reorganize: reorg,
            verify: false,
            cache_budget: None,
        });
        t.row(vec![
            reorg.to_string(),
            secs(row.sim_seconds),
            row.io_requests.to_string(),
        ]);
    }
    print!("{}", t.render());

    // ---- 2. Automatic strategy selection -------------------------------
    println!("\nablation 2: compiler selection vs forced strategies\n");
    let mut t = TextTable::new(&["strategy", "time (s)", "bytes/proc"]);
    for (strategy, label) in [
        (None, "auto (cost model)"),
        (Some(SlabStrategy::ColumnSlab), "forced column"),
        (Some(SlabStrategy::RowSlab), "forced row"),
    ] {
        let row = run_matmul(&MatmulSetup {
            n,
            p,
            strategy,
            sizing: SlabSizing::Ratio(0.25),
            reorganize: true,
            verify: false,
            cache_budget: None,
        });
        t.row(vec![
            label.to_string(),
            secs(row.sim_seconds),
            row.io_bytes.to_string(),
        ]);
    }
    print!("{}", t.render());

    // ---- 3. Memory policies across budgets ------------------------------
    // Two regimes: on the request-dominated Delta model an equal split is
    // near-optimal (the A·B request product is symmetric — `search` shows
    // the true optimum); on a bytes-dominated disk the paper's heuristic
    // (weight toward A, whose slab count multiplies B's restreamed volume)
    // pays off.
    println!("\nablation 3: memory allocation policies (row slab)\n");
    let lc = n / p;
    let slow_disk = MachineProfile::Custom(CostModel {
        io_startup: 0.0,
        io_aggregate_bandwidth: 5.5e6 / 8.0,
        ..CostModel::delta(p)
    });
    for (profile, label) in [
        (MachineProfile::Delta, "delta (request-dominated)"),
        (slow_disk, "slow disk (bytes-dominated)"),
    ] {
        println!("{label}:");
        let mut t = TextTable::new(&["budget (elems)", "equal", "weighted", "search"]);
        for budget_cols in [4usize, 16, 64] {
            let elems = budget_cols * lc * 2;
            let mut cells = vec![elems.to_string()];
            for policy in [
                MemoryPolicy::EqualSplit,
                MemoryPolicy::AccessWeighted,
                MemoryPolicy::Search,
            ] {
                let row = ooc_bench::harness::run_matmul_on(
                    &MatmulSetup {
                        n,
                        p,
                        strategy: Some(SlabStrategy::RowSlab),
                        sizing: SlabSizing::Budget { elems, policy },
                        reorganize: true,
                        verify: false,
                        cache_budget: None,
                    },
                    profile.clone(),
                );
                cells.push(secs(row.sim_seconds));
            }
            t.row(cells);
        }
        print!("{}", t.render());
    }

    // ---- 4. Prefetch (software pipelining) -------------------------------
    // Prefetch is compiled: the estimate prices each overlapped fetch, and
    // the peak counts the second A buffer the overlap needs.
    println!("\nablation 4: prefetch — overlap slab fetches with compute\n");
    {
        let mut t = TextTable::new(&[
            "prefetch",
            "time (s)",
            "estimate (s)",
            "est_gap",
            "requests/proc",
            "peak elems/proc",
        ]);
        for prefetch in [false, true] {
            let options = CompilerOptions {
                sizing: SlabSizing::Ratio(0.25),
                force_strategy: Some(SlabStrategy::ColumnSlab),
                prefetch,
                ..CompilerOptions::default()
            };
            let (outcome, estimate) = run_gaxpy(n, p, &options);
            let measured = outcome.report.elapsed();
            t.row(vec![
                prefetch.to_string(),
                secs(measured),
                secs(estimate),
                format!("{:.4}", (measured - estimate).abs() / measured),
                outcome.report.io_requests_per_proc().to_string(),
                outcome.peak_elems.to_string(),
            ]);
        }
        print!("{}", t.render());
    }

    // ---- 5. Data sieving on the unreorganized baseline -------------------
    println!("\nablation 5: PASSION-style data sieving vs storage reorganization\n");
    {
        let mut t = TextTable::new(&["configuration", "time (s)", "estimate (s)", "requests/proc"]);
        for (reorganize_storage, io_method, label) in [
            (false, None, "no reorg, direct"),
            (false, Some(pario::IoMethod::Sieved), "no reorg, sieved"),
            (true, None, "reorganized storage"),
        ] {
            let options = CompilerOptions {
                sizing: SlabSizing::Ratio(0.25),
                force_strategy: Some(SlabStrategy::RowSlab),
                reorganize_storage,
                io_method,
                ..CompilerOptions::default()
            };
            let (outcome, estimate) = run_gaxpy(n, p, &options);
            t.row(vec![
                label.to_string(),
                secs(outcome.report.elapsed()),
                secs(estimate),
                outcome.report.io_requests_per_proc().to_string(),
            ]);
        }
        print!("{}", t.render());
    }

    // ---- 6. Amortizing the initial reorganization ------------------------
    // §2.3: redistribution "involves some additional overhead which can be
    // amortized if the array is used several times". Measure the one-time
    // cost of relaying A out row-major, against the per-multiply savings.
    println!("\nablation 6: amortizing the storage reorganization of A\n");
    {
        use dmsim::Machine;
        use ooc_array::{
            relayout_in_place, ArrayDesc, ArrayId, Distribution, FileLayout, OocEnv, Shape,
        };
        use pario::ElemKind;
        let dist = Distribution::column_block(Shape::matrix(n, n), p);
        let desc = ArrayDesc::new(ArrayId(0), "a", ElemKind::F32, dist);
        let machine = Machine::new(dmsim::MachineConfig::delta(p));
        let report = machine.run(|ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            env.alloc(&desc).unwrap();
            env.load_global(&desc, &ooc_bench::harness::init_a).unwrap();
            relayout_in_place(&mut env, &desc, FileLayout::row_major(2), (n / p) * 64, ctx)
                .unwrap();
        });
        let reorg_cost = report.elapsed();
        let col = run_matmul(&MatmulSetup::table1(n, p, 0.25, SlabStrategy::ColumnSlab));
        let row = run_matmul(&MatmulSetup::table1(n, p, 0.25, SlabStrategy::RowSlab));
        let savings = col.sim_seconds - row.sim_seconds;
        println!(
            "one-time relayout of A: {:.2} s; per-multiply savings (col - row): {:.2} s\n\
             => the reorganization pays for itself after {:.2} uses of the array\n",
            reorg_cost,
            savings,
            reorg_cost / savings.max(1e-9)
        );
    }

    // ---- 7. Modern cluster profile --------------------------------------
    println!("\nablation 7: does the choice still matter on a modern cluster profile?\n");
    let mut t = TextTable::new(&["profile", "col est (s)", "row est (s)", "ratio"]);
    for (profile, label) in [
        (MachineProfile::Delta, "delta 1994"),
        (MachineProfile::Cluster, "cluster 2020s"),
        (
            MachineProfile::Custom(CostModel {
                io_startup: 5e-3,
                ..CostModel::cluster(p)
            }),
            "cluster + slow seeks",
        ),
    ] {
        let mut est = Vec::new();
        for strategy in [SlabStrategy::ColumnSlab, SlabStrategy::RowSlab] {
            let compiled = compile_hir(
                gaxpy_hir(n, p),
                &CompilerOptions {
                    sizing: SlabSizing::Ratio(0.25),
                    profile: profile.clone(),
                    force_strategy: Some(strategy),
                    ..CompilerOptions::default()
                },
            )
            .expect("compiles");
            est.push(compiled.estimates[0].time());
        }
        t.row(vec![
            label.to_string(),
            secs(est[0]),
            secs(est[1]),
            format!("{:.1}x", est[0] / est[1]),
        ]);
    }
    print!("{}", t.render());
}

/// Compile the `n`-order GAXPY on `p` ranks under `options`, run it on the
/// harness's inputs, and return the outcome with the compiled estimate.
fn run_gaxpy(n: usize, p: usize, options: &CompilerOptions) -> (noderun::RunOutcome, f64) {
    let compiled = compile_hir(gaxpy_hir(n, p), options).expect("compiles");
    let mut cfg = noderun::RunConfig::default();
    cfg.init
        .insert("a".into(), noderun::init_fn(ooc_bench::harness::init_a));
    cfg.init
        .insert("b".into(), noderun::init_fn(ooc_bench::harness::init_b));
    let outcome = noderun::run(&compiled, &cfg).expect("runs");
    (outcome, compiled.estimates[0].time())
}
