//! The hoisted SpMV inspector, end to end.
//!
//! An unrolled loop of SpMVs inspects once per rank and runs, clock and
//! counters, exactly as the hand-driven loop over one schedule cache per
//! rank does. A statement that rewrites `colidx` between two SpMVs makes
//! the second inspect again; reusing the first schedule there would gather
//! the wrong elements, although the schedule's descriptor stamp still
//! matches.

use dmsim::{Engine, FaultConfig, Machine, MachineConfig, RunReport};
use noderun::spmv::execute_cached;
use noderun::{init_fn, run, RunConfig};
use ooc_array::OocEnv;
use ooc_core::{compile_source, CompiledProgram, CompilerOptions, ExecPlan};
use ooc_trace::{Category, EventKind, TraceConfig};

/// `hpf::SPMV_SOURCE`'s sizes: 8 nonzeros per row at scattered columns.
const N: usize = 64;
const NNZ: usize = 512;
const ITERS: usize = 4;

fn col(k: usize) -> usize {
    (k * 37 + (k / 3) * 11) % N
}

fn val(k: usize) -> f32 {
    (k % 89) as f32 * 0.25 + 1.0
}

fn xv(j: usize) -> f32 {
    (j % 17) as f32 * 0.5 + 0.125
}

/// Serial CSR product over column map `col`. Every term is a multiple of
/// 1/32 and every row sum is small, so any summation order is exact.
fn reference_y(col: impl Fn(usize) -> usize) -> Vec<f32> {
    let per = NNZ / N;
    (0..N)
        .map(|i| (i * per..(i + 1) * per).fold(0.0, |acc, k| acc + val(k) * xv(col(k))))
        .collect()
}

/// `hpf::SPMV_SOURCE` with its row nest written out twice and `between`
/// in between, or (`between = None`) wrapped in `do it = 1, ITERS`.
fn spmv_twice(between: Option<&str>) -> String {
    let (head, rest) = hpf::SPMV_SOURCE.split_once("      do i = 1, n").unwrap();
    let nest = format!(
        "      do i = 1, n{}",
        rest.strip_suffix("      end\n").unwrap()
    );
    match between {
        Some(b) => format!("{head}{nest}{b}{nest}      end\n"),
        None => format!("{head}      do it = 1, {ITERS}\n{nest}      end do\n      end\n"),
    }
}

fn config() -> RunConfig {
    let mut cfg = RunConfig {
        collect: vec!["y".into()],
        ..RunConfig::default()
    };
    cfg.init
        .insert("rowptr".into(), init_fn(|g| (g[0] * (NNZ / N)) as f32));
    cfg.init
        .insert("colidx".into(), init_fn(|g| col(g[0]) as f32));
    cfg.init.insert("vals".into(), init_fn(|g| val(g[0])));
    cfg.init.insert("x".into(), init_fn(|g| xv(g[0])));
    cfg
}

fn y_of(compiled: &CompiledProgram) -> Vec<f32> {
    let mut out = run(compiled, &config()).unwrap();
    out.collected.remove("y").unwrap().1
}

fn spmv(compiled: &mut CompiledProgram, i: usize) -> &mut ooc_core::SpmvPlan {
    match &mut compiled.plans[i] {
        ExecPlan::Spmv(s) => s,
        other => panic!("statement {i} is not an spmv: {other:?}"),
    }
}

#[test]
fn rewriting_colidx_between_two_spmvs_forces_a_new_inspection() {
    let flip = "      forall (k = 1:nnz)\n        colidx(k) = 63.0 - colidx(k)\n      end forall\n";
    let mut compiled =
        compile_source(&spmv_twice(Some(flip)), &CompilerOptions::default()).unwrap();
    assert_eq!(compiled.plans.len(), 3);
    assert!(matches!(compiled.plans[1], ExecPlan::Elementwise(_)));
    assert_eq!(spmv(&mut compiled, 2).reuses, None);
    let flipped = reference_y(|k| N - 1 - col(k));
    assert_eq!(y_of(&compiled), flipped);

    // The first schedule's stamp still matches the second statement's
    // descriptors; trusting it gathers through the old column indices and
    // silently returns the first product.
    spmv(&mut compiled, 2).reuses = Some(0);
    let stale = y_of(&compiled);
    assert_ne!(stale, flipped);
    assert_eq!(stale, reference_y(col));
}

/// The loop's first statement driven `ITERS` times by hand with one
/// schedule cache per rank, set up as `noderun::run` sets a rank up.
fn hand_driven(
    compiled: &CompiledProgram,
    engine: Engine,
    fault: Option<&FaultConfig>,
) -> (RunReport, Vec<f32>) {
    let ExecPlan::Spmv(plan) = &compiled.plans[0] else {
        panic!("expected an spmv plan");
    };
    let cfg = config();
    let machine_cfg =
        MachineConfig::new(compiled.nprocs(), compiled.model.clone()).with_engine(engine);
    let mut machine = Machine::new(machine_cfg);
    if let Some(fc) = fault {
        machine = machine.with_fault_injection(fc.clone());
    }
    let (report, ys) = machine.run_with(|ctx| {
        let mut env = OocEnv::in_memory(ctx.rank());
        for desc in &compiled.descs {
            env.alloc(desc).unwrap();
            if let Some(f) = cfg.init.get(&desc.name) {
                env.load_global(desc, f.as_ref()).unwrap();
            }
        }
        if let Some(fc) = fault {
            env.enable_faults_for_job(fc, ctx.job());
        }
        let mut cache = None;
        for _ in 0..ITERS {
            execute_cached(ctx, &mut env, plan, &mut cache, Some(&compiled.model)).unwrap();
        }
        env.read_local_all(&plan.y).unwrap()
    });
    (report, ys.concat())
}

#[test]
fn a_loop_of_spmvs_inspects_once_per_rank_and_matches_one_hand_driven_cache() {
    let mut compiled = compile_source(&spmv_twice(None), &CompilerOptions::default()).unwrap();
    assert_eq!(compiled.plans.len(), ITERS);
    let reference = reference_y(col);

    // Per-file attribution: the traced run's disk spans name their array,
    // and its phases name the statements that reuse a schedule.
    let mut cfg = config();
    cfg.trace = Some(TraceConfig::on());
    let traced = run(&compiled, &cfg).unwrap();
    let trace = traced.report.trace().expect("traced");
    assert_eq!(trace.ranks.len(), 4);
    for (rank, rt) in trace.ranks.iter().enumerate() {
        assert_eq!(
            rt.phases,
            [
                "s0:spmv(y)",
                "s1:spmv(y) reusing s0",
                "s2:spmv(y) reusing s0",
                "s3:spmv(y) reusing s0"
            ]
        );
        let colidx_reads: Vec<_> = rt
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Span && e.cat == Category::DiskRead)
            .filter(|e| e.args.array.as_deref() == Some("colidx"))
            .map(|e| (rt.phase_name(e), e.args.requests))
            .collect();
        assert_eq!(colidx_reads, [(Some("s0:spmv(y)"), 1)], "rank {rank}");
    }

    for engine in [Engine::Threads, Engine::Pool(1)] {
        for fault in [None, Some(FaultConfig::chaos(2026))] {
            let tag = format!("{engine:?} chaos={}", fault.is_some());
            let mut cfg = config();
            compiled.engine = engine;
            cfg.fault = fault.clone();
            let mut out = run(&compiled, &cfg).unwrap();
            let (hand, hand_y) = hand_driven(&compiled, engine, fault.as_ref());
            assert_eq!(
                out.report.elapsed().to_bits(),
                hand.elapsed().to_bits(),
                "{tag}"
            );
            assert_eq!(out.report.per_proc(), hand.per_proc(), "{tag}");
            if fault.is_some() {
                assert!(hand.totals().faults_injected > 0, "{tag}: chaos injected");
            }
            let y = out.collected.remove("y").unwrap().1;
            assert_eq!(y, reference, "{tag}");
            assert_eq!(hand_y, reference, "{tag}");
        }
    }
}
