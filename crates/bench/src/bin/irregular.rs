//! Inspector-reuse amortization bench for the irregular (indirection-array)
//! gather path.
//!
//! An `A(idx(i))` gather pays two distinct costs: the **inspector** (read
//! the indirection array, exchange want-lists, coalesce serve runs) and the
//! **executor** (drive the cached schedule through one of the three I/O
//! methods). The inspector's product — the [`ooc_array::IrregSchedule`] —
//! is valid for as long as the descriptors and index contents stand still,
//! so iterative codes pay it once. This bench measures exactly that
//! amortization on the Touchstone-Delta cost model: `ITERS` gather
//! iterations with the schedule rebuilt every time (1-shot) versus
//! inspected once and reused, per method, per rank count. The reused
//! ladder must come out at least 2× cheaper.
//!
//! Every rung is run on the threaded engine, on a worker pool, and on both
//! again under chaos fault injection; all four must agree bitwise (chaos
//! may add simulated retry time, never change data). An end-to-end SpMV
//! at 8 ranks through the compiled pipeline closes the loop.
//!
//! Usage: `cargo run --release -p ooc-bench --bin irregular [--smoke]
//! [--out FILE]` (default FILE = BENCH_irregular.json). The JSON contains
//! only simulated quantities, so two invocations produce byte-identical
//! files — CI diffs them.

use dmsim::{Engine, FaultConfig, Machine, MachineConfig};
use ooc_array::irreg::{gather_with, inspect};
use ooc_array::{ArrayDesc, ArrayId, DimDist, DistKind, Distribution, OocEnv, ProcGrid, Shape};
use ooc_bench::TextTable;
use ooc_core::ir::totals;
use ooc_core::irreg::schedule_nodes;
use ooc_core::{compile_source, CompiledProgram, CompilerOptions};
use ooc_trace::digest::Fnv1a;
use pario::{ElemKind, IoMethod};

/// Gather iterations per scenario (the amortization horizon).
const ITERS: usize = 4;
/// Global extent of the gathered data array.
const N_DATA: usize = 4096;
/// Indirection entries per rank: sized so the inspector's one charged
/// indirection read dominates a single gather, which is what makes reuse
/// worth ≥ 2× over four iterations.
const IDX_PER_RANK: usize = 65_536;
/// Indirection values land in `[0, WINDOW)` — a hot subset that dedups to
/// few serve runs, like the column-index locality of a banded sparse
/// matrix. WINDOW ≤ N_DATA/p keeps the whole window on rank 0.
const WINDOW: usize = 256;
/// Workers on the pooled engine.
const POOL: usize = 3;
/// Fault seed for the chaos parity runs.
const CHAOS_SEED: u64 = 29;

/// The scattered-but-hot indirection stream.
fn index_value(g: usize) -> usize {
    (g * 7 + g / 5) % WINDOW
}

fn vec_desc(id: u32, name: &str, n: usize, p: usize) -> ArrayDesc {
    ArrayDesc::new(
        ArrayId(id),
        name,
        ElemKind::F32,
        Distribution::new(
            Shape::new(vec![n]),
            vec![DimDist::Distributed {
                kind: DistKind::Block,
                axis: 0,
            }],
            ProcGrid::line(p),
        ),
    )
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Re-inspect every iteration: the schedule is built, used once,
    /// thrown away.
    OneShot,
    /// Inspect on the first iteration, reuse the cached schedule after.
    Reused,
}

/// One machine run of `ITERS` gather iterations. Returns the simulated
/// elapsed bits plus per-rank (digest, inspector read bytes, gather read
/// requests) in rank order.
fn scenario(
    p: usize,
    method: IoMethod,
    mode: Mode,
    engine: Engine,
    fault: Option<FaultConfig>,
) -> (u64, Vec<(u64, u64, u64)>) {
    let x = vec_desc(0, "x", N_DATA, p);
    let idx = vec_desc(1, "idx", IDX_PER_RANK * p, p);
    let mut machine = Machine::new(MachineConfig::delta(p).with_engine(engine));
    if let Some(f) = fault {
        machine = machine.with_fault_injection(f);
    }
    let (report, per_rank) = machine.run_with(move |ctx| {
        let mut env = OocEnv::in_memory(ctx.rank());
        env.alloc(&x).unwrap();
        env.alloc(&idx).unwrap();
        env.load_global(&x, &|g: &[usize]| (g[0] % 97) as f32 * 0.25 - 3.0)
            .unwrap();
        env.load_global(&idx, &|g: &[usize]| index_value(g[0]) as f32)
            .unwrap();

        let mut digest = Fnv1a::new();
        let mut inspect_bytes = 0u64;
        let mut gather_reqs = 0u64;
        let mut cached = None;
        for _ in 0..ITERS {
            let inspected = mode == Mode::OneShot || cached.is_none();
            if inspected {
                cached = Some(inspect(ctx, &mut env, &x, &idx, ctx).unwrap());
            }
            let s = cached.as_ref().expect("inspected above");
            let out = gather_with(ctx, &mut env, s, method, ctx).unwrap();
            let est = totals(&schedule_nodes(s, method, inspected));
            let of = |name: &str| est.per_array.get(name).copied().unwrap_or_default();
            inspect_bytes += 4 * of("idx").read_elems;
            gather_reqs += of("x").read_requests;
            digest = digest.f32s(&out);
        }
        (digest.finish(), inspect_bytes, gather_reqs)
    });
    (report.elapsed().to_bits(), per_rank)
}

struct Rung {
    ranks: usize,
    method: IoMethod,
    oneshot_s: f64,
    reused_s: f64,
    amortization: f64,
    inspect_bytes: u64,
    gather_requests: u64,
    digest: u64,
}

/// Run one (ranks, method) rung: both modes, four engines each, all parity
/// asserted. The recorded numbers come from the clean threaded runs.
fn run_rung(p: usize, method: IoMethod) -> Rung {
    let mut elapsed = [0.0f64; 2];
    let mut digest = 0u64;
    let mut inspect_bytes = 0u64;
    let mut gather_requests = 0u64;
    for (slot, mode) in [(0, Mode::OneShot), (1, Mode::Reused)] {
        let (bits, ranks) = scenario(p, method, mode, Engine::Threads, None);
        let (pool_bits, pool_ranks) = scenario(p, method, mode, Engine::Pool(POOL), None);
        assert_eq!(
            (bits, &ranks),
            (pool_bits, &pool_ranks),
            "Threads vs Pool({POOL}) diverged at p={p} {}",
            method.label()
        );
        let chaos = || Some(FaultConfig::chaos(CHAOS_SEED));
        let (cbits, cranks) = scenario(p, method, mode, Engine::Threads, chaos());
        let (cpool_bits, cpool_ranks) = scenario(p, method, mode, Engine::Pool(POOL), chaos());
        assert_eq!(
            (cbits, &cranks),
            (cpool_bits, &cpool_ranks),
            "chaos Threads vs Pool({POOL}) diverged at p={p} {}",
            method.label()
        );
        let values = |rs: &[(u64, u64, u64)]| rs.iter().map(|r| r.0).collect::<Vec<_>>();
        assert_eq!(
            values(&cranks),
            values(&ranks),
            "chaos changed gathered data at p={p} {}",
            method.label()
        );
        elapsed[slot] = f64::from_bits(bits);
        if mode == Mode::Reused {
            digest = Fnv1a::new().u64s(ranks.iter().map(|r| r.0)).finish();
            inspect_bytes = ranks.iter().map(|r| r.1).sum();
            gather_requests = ranks.iter().map(|r| r.2).sum();
        }
    }
    let amortization = elapsed[0] / elapsed[1];
    assert!(
        amortization >= 2.0,
        "inspector reuse amortized only {amortization:.2}x at p={p} {} \
         (one-shot {:.4}s, reused {:.4}s over {ITERS} iterations)",
        method.label(),
        elapsed[0],
        elapsed[1],
    );
    Rung {
        ranks: p,
        method,
        oneshot_s: elapsed[0],
        reused_s: elapsed[1],
        amortization,
        inspect_bytes,
        gather_requests,
        digest,
    }
}

struct SpmvRow {
    ranks: usize,
    elapsed_s: f64,
    y_fnv: u64,
}

/// End-to-end: the compiled SpMV example at 8 ranks, threaded vs pooled.
fn run_spmv_e2e() -> SpmvRow {
    const P: usize = 8;
    let src = hpf::SPMV_SOURCE.replace("nprocs=4", "nprocs=8");
    let compiled = compile_source(&src, &CompilerOptions::default()).unwrap();
    let n = 64usize;
    let nnz = 512usize;
    let mut cfg = noderun::RunConfig::default();
    cfg.init.insert(
        "rowptr".into(),
        noderun::init_fn(move |g| (g[0] * (nnz / n)) as f32),
    );
    cfg.init.insert(
        "colidx".into(),
        noderun::init_fn(move |g| ((g[0] * 37 + (g[0] / 3) * 11) % n) as f32),
    );
    cfg.init.insert(
        "vals".into(),
        noderun::init_fn(|g| ((g[0] % 89) as f32) * 0.25 + 1.0),
    );
    cfg.init.insert(
        "x".into(),
        noderun::init_fn(|g| (g[0] % 17) as f32 * 0.5 + 0.125),
    );
    cfg.collect.push("y".into());

    let threaded = noderun::run(&compiled, &cfg).unwrap();
    let pooled = CompiledProgram {
        engine: Engine::Pool(POOL),
        ..compiled.clone()
    };
    let pooled = noderun::run(&pooled, &cfg).unwrap();
    assert_eq!(
        threaded.collected, pooled.collected,
        "spmv collected arrays diverged between engines at p={P}"
    );
    assert_eq!(
        threaded.report.elapsed().to_bits(),
        pooled.report.elapsed().to_bits(),
        "spmv elapsed diverged between engines at p={P}"
    );
    let (_, y) = &threaded.collected["y"];
    assert!(y.iter().any(|v| *v != 0.0), "spmv product is non-trivial");
    SpmvRow {
        ranks: P,
        elapsed_s: threaded.report.elapsed(),
        y_fnv: Fnv1a::new().f32s(y).finish(),
    }
}

fn main() {
    let mut out_path = "BENCH_irregular.json".to_string();
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--smoke" => smoke = true,
            other => panic!("unknown argument {other}"),
        }
    }
    let ladder: &[usize] = if smoke { &[8] } else { &[2, 4, 8] };

    println!(
        "irregular bench: {ITERS} iterations, {IDX_PER_RANK} indirection \
         entries/rank into a {WINDOW}-element window of {N_DATA}, ranks \
         {ladder:?} (delta cost model; parity: threads, pool, chaos)\n"
    );

    let mut rungs = Vec::new();
    for &p in ladder {
        for method in IoMethod::ALL {
            rungs.push(run_rung(p, method));
        }
    }

    let mut table = TextTable::new(&[
        "Ranks",
        "Method",
        "1-shot (s)",
        "Reused (s)",
        "Amortization",
        "Gather reqs",
    ]);
    for r in &rungs {
        table.row(vec![
            r.ranks.to_string(),
            r.method.label().to_string(),
            format!("{:.4}", r.oneshot_s),
            format!("{:.4}", r.reused_s),
            format!("{:.2}x", r.amortization),
            r.gather_requests.to_string(),
        ]);
    }
    print!("{}", table.render());

    let spmv = run_spmv_e2e();
    println!(
        "\nspmv e2e: p={} elapsed {:.4}s y_fnv {:016x}",
        spmv.ranks, spmv.elapsed_s, spmv.y_fnv
    );

    // JSON artifact (hand-rolled: the serde shim is marker-only). Only
    // simulated quantities — the file must be byte-identical across runs.
    let mut json = String::from("{\n  \"bench\": \"irregular\",\n");
    json.push_str(&format!(
        "  \"iters\": {ITERS},\n  \"n\": {N_DATA},\n  \"idx_per_rank\": {IDX_PER_RANK},\n  \
         \"window\": {WINDOW},\n  \"pool_workers\": {POOL},\n  \"chaos_seed\": {CHAOS_SEED},\n  \
         \"smoke\": {smoke},\n"
    ));
    json.push_str("  \"rungs\": [\n");
    for (i, r) in rungs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"ranks\": {}, \"method\": \"{}\", \"oneshot_s\": {:.9}, \
             \"reused_s\": {:.9}, \"amortization\": {:.6}, \"inspect_bytes\": {}, \
             \"gather_requests\": {}, \"digest\": \"{:016x}\", \
             \"parity\": \"threads+pool+chaos\"}}{}\n",
            r.ranks,
            r.method.label(),
            r.oneshot_s,
            r.reused_s,
            r.amortization,
            r.inspect_bytes,
            r.gather_requests,
            r.digest,
            if i + 1 < rungs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"spmv\": {{\"ranks\": {}, \"elapsed_s\": {:.9}, \"y_fnv\": \"{:016x}\", \
         \"parity\": \"threads+pool\"}}\n",
        spmv.ranks, spmv.elapsed_s, spmv.y_fnv
    ));
    json.push_str("}\n");
    ooc_trace::json::parse(&json).expect("bench JSON is well-formed");
    std::fs::write(&out_path, &json).expect("write bench JSON");
    println!("wrote {out_path}");
}
