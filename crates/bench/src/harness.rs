//! Experiment drivers: configure, compile, execute, measure.

use dmsim::{Machine, MachineConfig, ReduceOp};
use noderun::{init_fn, run, RunConfig};
use ooc_array::{ArrayDesc, ArrayId, DimRange, Distribution, OocEnv, Section, Shape};
use ooc_core::hir::{HirArray, HirProgram, HirStmt};
use ooc_core::stripmine::SlabSizing;
use ooc_core::{compile_hir, CompilerOptions, SlabStrategy};
use pario::ElemKind;

/// Best-effort peak resident set size of this process in bytes (Linux
/// `VmHWM` from `/proc/self/status`; `None` elsewhere). A *host* quantity
/// for capacity benchmarking — never part of simulated results or parity
/// comparisons (see [`dmsim::RunReport::set_peak_rss_bytes`]).
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kib: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kib * 1024);
        }
    }
    None
}

/// Deterministic initializers used by all experiments (mild values so f32
/// accumulation stays accurate at 2K).
pub fn init_a(g: &[usize]) -> f32 {
    ((g[0] * 7 + g[1] * 3) % 8) as f32 * 0.25 - 1.0
}

/// See [`init_a`].
pub fn init_b(g: &[usize]) -> f32 {
    ((g[0] * 5 + g[1]) % 9) as f32 * 0.25 - 1.0
}

/// Build the GAXPY HIR program directly (equivalent to parsing Figure 3
/// with `n`, `nprocs` substituted).
pub fn gaxpy_hir(n: usize, p: usize) -> HirProgram {
    let shape = Shape::matrix(n, n);
    let col = Distribution::column_block(shape.clone(), p);
    let row = Distribution::row_block(shape.clone(), p);
    HirProgram {
        arrays: vec![
            HirArray {
                name: "a".into(),
                shape: shape.clone(),
                dist: col.clone(),
            },
            HirArray {
                name: "b".into(),
                shape: shape.clone(),
                dist: row,
            },
            HirArray {
                name: "c".into(),
                shape,
                dist: col,
            },
        ],
        stmts: vec![HirStmt::Gaxpy {
            a: "a".into(),
            b: "b".into(),
            c: "c".into(),
            temp: "temp".into(),
            n,
        }],
        nprocs: p,
    }
}

/// Configuration of one out-of-core matmul measurement.
#[derive(Debug, Clone)]
pub struct MatmulSetup {
    /// Matrix order.
    pub n: usize,
    /// Processors.
    pub p: usize,
    /// Forced strategy (`None` lets the compiler choose).
    pub strategy: Option<SlabStrategy>,
    /// Slab sizing.
    pub sizing: SlabSizing,
    /// Allow storage reorganization.
    pub reorganize: bool,
    /// Verify the product against the serial reference (slow; use for
    /// small `n`).
    pub verify: bool,
    /// Byte budget of the slab cache (`None` = uncached), compiled into the
    /// program: its estimates are reuse-aware and its run is cached.
    pub cache_budget: Option<usize>,
}

impl MatmulSetup {
    /// The paper's Table 1 cell: size `n`, `p` processors, a slab ratio and
    /// a strategy.
    pub fn table1(n: usize, p: usize, ratio: f64, strategy: SlabStrategy) -> Self {
        MatmulSetup {
            n,
            p,
            strategy: Some(strategy),
            sizing: SlabSizing::Ratio(ratio),
            reorganize: true,
            verify: false,
            cache_budget: None,
        }
    }
}

/// One measured experiment row.
#[derive(Debug, Clone)]
pub struct ExperimentRow {
    /// Description (strategy / configuration).
    pub label: String,
    /// Simulated elapsed seconds.
    pub sim_seconds: f64,
    /// Estimator's predicted seconds.
    pub est_seconds: f64,
    /// Measured I/O requests per processor (max over ranks).
    pub io_requests: u64,
    /// Measured I/O bytes per processor (max over ranks).
    pub io_bytes: u64,
    /// Max |error| against the serial reference, when verified.
    pub max_error: Option<f32>,
}

/// Compile and execute one out-of-core matmul on the Delta profile.
pub fn run_matmul(setup: &MatmulSetup) -> ExperimentRow {
    run_matmul_on(setup, ooc_core::pipeline::MachineProfile::Delta)
}

/// Compile and execute one out-of-core matmul on an explicit machine
/// profile.
pub fn run_matmul_on(
    setup: &MatmulSetup,
    profile: ooc_core::pipeline::MachineProfile,
) -> ExperimentRow {
    let hir = gaxpy_hir(setup.n, setup.p);
    let options = CompilerOptions {
        sizing: setup.sizing,
        force_strategy: setup.strategy,
        reorganize_storage: setup.reorganize,
        profile,
        cache_budget: setup.cache_budget,
        ..CompilerOptions::default()
    };
    let compiled = compile_hir(hir, &options).expect("gaxpy compiles");
    let mut cfg = RunConfig::default();
    cfg.init.insert("a".into(), init_fn(init_a));
    cfg.init.insert("b".into(), init_fn(init_b));
    if setup.verify {
        cfg.collect.push("c".into());
    }
    let outcome = run(&compiled, &cfg).expect("runs");
    let max_error = if setup.verify {
        let (_, c) = &outcome.collected["c"];
        let expect = noderun::ref_gaxpy(setup.n, &init_a, &init_b);
        Some(noderun::max_abs_diff(c, &expect))
    } else {
        None
    };
    let strategy = match &compiled.plans[0] {
        ooc_core::ExecPlan::Gaxpy(g) => g.strategy,
        _ => unreachable!("gaxpy program"),
    };
    ExperimentRow {
        label: strategy.name().to_string(),
        sim_seconds: outcome.report.elapsed(),
        est_seconds: compiled.estimates[0].time(),
        io_requests: outcome.report.io_requests_per_proc(),
        io_bytes: outcome.report.io_bytes_per_proc(),
        max_error,
    }
}

/// The in-core reference of Table 1: the hand-coded distributed GAXPY
/// (Figure 5) with the local arrays read from disk once at the start and C
/// written once at the end.
pub fn run_incore_matmul(n: usize, p: usize) -> ExperimentRow {
    let shape = Shape::matrix(n, n);
    let col = Distribution::column_block(shape.clone(), p);
    let row = Distribution::row_block(shape.clone(), p);
    let a = ArrayDesc::new(ArrayId(0), "a", ElemKind::F32, col.clone());
    let b = ArrayDesc::new(ArrayId(1), "b", ElemKind::F32, row);
    let c = ArrayDesc::new(ArrayId(2), "c", ElemKind::F32, col);

    let machine = Machine::new(MachineConfig::delta(p));
    let report = machine.run(|ctx| {
        let rank = ctx.rank();
        let mut env = OocEnv::in_memory(rank);
        for d in [&a, &b, &c] {
            env.alloc(d).unwrap();
        }
        env.load_global(&a, &init_a).unwrap();
        env.load_global(&b, &init_b).unwrap();

        // Initial read: whole local arrays, one request each.
        let la = a.local_shape(rank);
        let lb = b.local_shape(rank);
        let a_in = env.read_section(&a, &Section::full(&la), ctx).unwrap();
        let b_in = env.read_section(&b, &Section::full(&lb), ctx).unwrap();

        let lc = la.extent(1);
        let lr_b = lb.extent(0);
        let mut c_out = vec![0.0f32; la.len()]; // C shares A's distribution
        let mut next_col = 0usize;
        for j in 0..n {
            let mut temp = vec![0.0f32; n];
            for i in 0..lc {
                let bval = b_in[i + j * lr_b];
                let colv = &a_in[i * n..(i + 1) * n];
                for (t, &av) in temp.iter_mut().zip(colv) {
                    *t += av * bval;
                }
            }
            ctx.charge_flops((2 * n * lc) as u64);
            let owner = c.dist.owner(&[0, j]);
            let summed = ctx.reduce(&temp, ReduceOp::Sum, owner);
            if rank == owner {
                let v = summed.expect("root");
                c_out[next_col * n..(next_col + 1) * n].copy_from_slice(&v);
                next_col += 1;
            }
        }
        // Final write: whole local C, one request.
        let sec = Section::new(vec![DimRange::new(0, n), DimRange::new(0, lc)]);
        env.write_section(&c, &sec, &c_out, ctx, pario::SievePolicy::Direct)
            .unwrap();
    });

    ExperimentRow {
        label: "in-core".to_string(),
        sim_seconds: report.elapsed(),
        est_seconds: report.elapsed(),
        io_requests: report.io_requests_per_proc(),
        io_bytes: report.io_bytes_per_proc(),
        max_error: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_row_beats_column_and_verifies() {
        let col = run_matmul(&MatmulSetup {
            verify: true,
            ..MatmulSetup::table1(32, 4, 0.25, SlabStrategy::ColumnSlab)
        });
        let row = run_matmul(&MatmulSetup {
            verify: true,
            ..MatmulSetup::table1(32, 4, 0.25, SlabStrategy::RowSlab)
        });
        assert!(col.max_error.unwrap() < 1e-3);
        assert!(row.max_error.unwrap() < 1e-3);
        assert!(col.sim_seconds > row.sim_seconds);
        assert!(col.io_bytes > row.io_bytes);
    }

    #[test]
    fn incore_is_fastest() {
        let incore = run_incore_matmul(32, 4);
        // At slab ratio 1 the row version degenerates to the in-core
        // structure (whole OCLA as one slab): times tie.
        let row1 = run_matmul(&MatmulSetup::table1(32, 4, 1.0, SlabStrategy::RowSlab));
        assert!(incore.sim_seconds <= row1.sim_seconds + 1e-9);
        // At smaller ratios the out-of-core version re-reads B and pays
        // request startups: strictly slower.
        let row_half = run_matmul(&MatmulSetup::table1(32, 4, 0.5, SlabStrategy::RowSlab));
        assert!(incore.sim_seconds < row_half.sim_seconds);
        // In-core does exactly 3 requests per proc: read A, read B, write C.
        assert_eq!(incore.io_requests, 3);
    }

    #[test]
    fn estimator_tracks_measurement() {
        // Estimated and simulated seconds agree closely (compute + I/O are
        // exact; the collective-time model is approximate).
        let row = run_matmul(&MatmulSetup::table1(64, 4, 0.5, SlabStrategy::RowSlab));
        let rel = (row.est_seconds - row.sim_seconds).abs() / row.sim_seconds;
        assert!(
            rel < 0.15,
            "est {} vs sim {}",
            row.est_seconds,
            row.sim_seconds
        );
    }
}
