//! Every candidate, every kernel, exact.
//!
//! The access-method selector compares a price for each of direct, sieved
//! and two-phase I/O, so each price must be what the executor charges when
//! that method runs — not only the winner's. For every remap-style kernel
//! (transposes, a misaligned forall's redistribution, the irregular gather
//! of SpMV) and every forced method, rank 0's measured requests, bytes and
//! messages equal the compiler's estimate and its simulated seconds agree
//! to 1e-9; and every candidate an unforced compile reports equals the
//! estimate of compiling with that candidate forced. Transposes and
//! redistributions are also held to the tally of their remap stages on
//! every rank, ranks that own nothing included. A stencil whose shift is
//! wider than its slab is held to its estimate stage by stage. GAXPY slabs
//! and elementwise strips and stages run the forced method too, with and
//! without prefetch, and are held to their estimates the same way.

use dmsim::{Machine, MachineConfig, StatsSnapshot};
use noderun::spmv::execute_cached;
use noderun::{
    assemble_global, init_fn, max_abs_diff, ref_gaxpy, ref_transpose, run, InitFn, RunConfig,
};
use ooc_array::{
    gather_with, inspect, redistribute_with, ArrayDesc, ArrayId, DimDist, DistKind, Distribution,
    FileLayout, OocEnv, ProcGrid, Shape,
};
use ooc_core::ir::{totals, ArrayIoTotals, NestNode, NestTotals};
use ooc_core::irreg::schedule_nodes;
use ooc_core::nodegen::{remap_nodes, RemapGeometry};
use ooc_core::plan::{RemapSpec, SlabStrategy, SpmvPlan, TransposePlan};
use ooc_core::{compile_source, CompiledProgram, CompilerOptions, CostEstimate, ExecPlan};
use pario::{ElemKind, IoMethod};

fn fa(g: &[usize]) -> f32 {
    ((g[0] * 7 + g[1] * 3) % 11) as f32 * 0.125 - 0.5
}

fn fb(g: &[usize]) -> f32 {
    ((g[0] * 5 + g[1]) % 13) as f32 * 0.125 - 0.75
}

fn fv(g: &[usize]) -> f32 {
    (g[0] % 17) as f32 * 0.5 + 0.125
}

fn transpose_source(n: usize, p: usize, dist: &str) -> String {
    format!(
        "
      parameter (n={n})
      real a(n, n), b(n, n)
!hpf$ processors pr({p})
!hpf$ distribute a({dist}) on pr
!hpf$ distribute b({dist}) on pr
      forall (i = 1:n, j = 1:n)
        b(i, j) = a(j, i)
      end forall
      end
"
    )
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

fn sum(t: &NestTotals, f: fn(&ArrayIoTotals) -> u64) -> u64 {
    t.per_array.values().map(f).sum()
}

/// Rank 0's measured counters and finish time against an estimate.
fn assert_exact(tag: &str, est: &CostEstimate, s: &StatsSnapshot, finish: f64) {
    assert_counters(tag, est, s);
    let secs = est.time();
    assert!(
        (secs - finish).abs() <= 1e-9 * finish,
        "{tag}: estimated {secs} s, rank 0 finished at {finish} s"
    );
}

/// Rank 0's six measured counters against an estimate.
fn assert_counters(tag: &str, est: &CostEstimate, s: &StatsSnapshot) {
    assert_io(tag, est, s);
    let t = &est.totals;
    assert_eq!(s.msgs_sent, t.comm_messages, "{tag}: messages");
    assert_eq!(s.bytes_sent, t.comm_bytes, "{tag}: message bytes");
}

/// Rank 0's four measured disk counters against an estimate.
fn assert_io(tag: &str, est: &CostEstimate, s: &StatsSnapshot) {
    let t = &est.totals;
    for (counter, measured, estimated) in [
        (
            "read requests",
            s.io_read_requests,
            sum(t, |a| a.read_requests),
        ),
        ("read bytes", s.io_bytes_read, 4 * sum(t, |a| a.read_elems)),
        (
            "write requests",
            s.io_write_requests,
            sum(t, |a| a.write_requests),
        ),
        (
            "write bytes",
            s.io_bytes_written,
            4 * sum(t, |a| a.write_elems),
        ),
    ] {
        assert_eq!(measured, estimated, "{tag}: {counter}");
    }
}

/// Rank 0's finish time and its distance from the estimate, in seconds.
fn time_gap(est: &CostEstimate, finish: f64) -> (f64, f64) {
    ((est.time() - finish).abs(), finish)
}

/// Holds the finish-time gaps of one statement's {Direct, Sieved} ×
/// prefetch {off, on} runs, in that order: where the unprefetched direct
/// run's estimate is exact to 1e-9, every run's is; elsewhere no prefetched
/// run is further off, in seconds, than the same method unprefetched.
fn assert_gaps(tag: &str, gaps: &[(f64, f64); 4]) {
    let exact = |(gap, finish): (f64, f64)| gap <= 1e-9 * finish;
    if exact(gaps[0]) {
        assert!(gaps.iter().all(|&g| exact(g)), "{tag}: gaps {gaps:?}");
    } else {
        let no_worse = |pre: (f64, f64), base: (f64, f64)| pre.0 <= base.0 + 1e-12 * base.1;
        let ok = no_worse(gaps[1], gaps[0]) && no_worse(gaps[3], gaps[2]);
        assert!(ok, "{tag}: gaps {gaps:?}");
    }
}

/// Each forced slab method, with and without prefetch, in [`assert_gaps`]'s
/// order.
const SLAB_RUNS: [(IoMethod, bool); 4] = [
    (IoMethod::Direct, false),
    (IoMethod::Direct, true),
    (IoMethod::Sieved, false),
    (IoMethod::Sieved, true),
];

/// `hpf::GAXPY_SOURCE` at order `n` on `p` ranks.
fn gaxpy_source(n: usize, p: usize) -> String {
    let params = format!("parameter (n={n}, nprocs={p})");
    hpf::GAXPY_SOURCE.replace("parameter (n=64, nprocs=4)", &params)
}

#[test]
fn every_forced_gaxpy_matches_its_estimate_with_and_without_prefetch() {
    // Column and row slabs; 30 over 4 ranks is ragged; without storage
    // reorganization the row version's slabs of A and C are strided, so a
    // sieved run reads spans and writes C by read-modify-write.
    for strategy in [SlabStrategy::ColumnSlab, SlabStrategy::RowSlab] {
        for (n, p) in [(32, 4), (30, 4)] {
            for reorganize_storage in [true, false] {
                let tag = format!("gaxpy {strategy:?} n={n} p={p} reorganize={reorganize_storage}");
                let mut gaps = [(0.0, 0.0); 4];
                for (k, (method, prefetch)) in SLAB_RUNS.into_iter().enumerate() {
                    let options = CompilerOptions {
                        force_strategy: Some(strategy),
                        sizing: ooc_core::stripmine::SlabSizing::Ratio(0.25),
                        reorganize_storage,
                        io_method: Some(method),
                        prefetch,
                        ..CompilerOptions::default()
                    };
                    let compiled = compile_source(&gaxpy_source(n, p), &options).unwrap();
                    let ExecPlan::Gaxpy(plan) = &compiled.plans[0] else {
                        panic!("expected a gaxpy plan");
                    };
                    let mut cfg = RunConfig::default();
                    cfg.init.insert("a".into(), init_fn(fa));
                    cfg.init.insert("b".into(), init_fn(fb));
                    cfg.collect.push("c".into());
                    let outcome = run(&compiled, &cfg).unwrap();
                    let tag = format!("{tag} {method:?} prefetch={prefetch}");
                    let c = &outcome.collected["c"].1;
                    assert!(max_abs_diff(c, &ref_gaxpy(n, &fa, &fb)) < 1e-3, "{tag}");
                    let rank0 = &outcome.report.per_proc()[0];
                    // The nest prices each column's reduction as its
                    // critical path, ⌈log₂ p⌉ messages, not rank 0's own
                    // sends, so only the disk counters are rank 0's.
                    let est = &compiled.estimates[0];
                    assert_io(&tag, est, &rank0.stats);
                    assert!(
                        outcome.peak_elems <= plan.memory_elems(),
                        "{tag}: peak {} > {}",
                        outcome.peak_elems,
                        plan.memory_elems()
                    );
                    gaps[k] = time_gap(est, rank0.finish_time);
                }
                assert_gaps(&tag, &gaps);
            }
        }
    }
}

#[test]
fn a_cached_prefetched_gaxpy_matches_its_estimate() {
    // One rank, so no reduction waits. Under a slab cache the overlapped
    // reads are the misses the compiler's predictor replays: a budget
    // smaller than an A slab misses every read, a larger one hits A.
    for budget in [256, 4096] {
        for prefetch in [false, true] {
            let options = CompilerOptions {
                force_strategy: Some(SlabStrategy::ColumnSlab),
                sizing: ooc_core::stripmine::SlabSizing::Ratio(0.25),
                cache_budget: Some(budget),
                prefetch,
                ..CompilerOptions::default()
            };
            let compiled = compile_source(&gaxpy_source(32, 1), &options).unwrap();
            let mut cfg = RunConfig::default();
            cfg.init.insert("a".into(), init_fn(fa));
            cfg.init.insert("b".into(), init_fn(fb));
            let outcome = run(&compiled, &cfg).unwrap();
            let rank0 = &outcome.report.per_proc()[0];
            let tag = format!("cached gaxpy budget={budget} prefetch={prefetch}");
            assert_exact(
                &tag,
                &compiled.estimates[0],
                &rank0.stats,
                rank0.finish_time,
            );
        }
    }
}

/// A Jacobi sweep over `n × n` on `p` ranks with `u` and `v` aligned
/// `align` with a block template: `(:, *)` for row blocks, whose ghost
/// strips are strided rows, or `(*, :)` for column blocks.
fn jacobi_source(n: usize, p: usize, align: &str) -> String {
    format!(
        "
      parameter (n={n})
      real u(n, n), v(n, n)
!hpf$ processors pr({p})
!hpf$ template t(n)
!hpf$ distribute t(block) on pr
!hpf$ align {align} with t :: u, v
      forall (i = 2:n-1, j = 2:n-1)
        v(i, j) = 0.25 * (u(i-1, j) + u(i+1, j) + u(i, j-1) + u(i, j+1))
      end forall
      end
"
    )
}

#[test]
fn every_forced_shifted_forall_matches_its_estimate_with_and_without_prefetch() {
    // Interior rows leave every stage's output strided, so sieved stages
    // write by read-modify-write; row blocks also exchange strided strips.
    for align in ["(:, *)", "(*, :)"] {
        for (n, p) in [(32, 4), (30, 4)] {
            let tag = format!("jacobi {align} n={n} p={p}");
            let mut gaps = [(0.0, 0.0); 4];
            for (k, (method, prefetch)) in SLAB_RUNS.into_iter().enumerate() {
                let options = CompilerOptions {
                    elw_slab_elems: 4 * n,
                    io_method: Some(method),
                    prefetch,
                    ..CompilerOptions::default()
                };
                let compiled = compile_source(&jacobi_source(n, p, align), &options).unwrap();
                let ExecPlan::Elementwise(plan) = &compiled.plans[0] else {
                    panic!("expected an elementwise plan");
                };
                assert!(plan.schedule(0).stages.len() > 2, "{tag}: several stages");
                let mut cfg = RunConfig::default();
                cfg.init.insert("u".into(), init_fn(fa));
                cfg.init.insert("v".into(), init_fn(fa));
                cfg.collect.push("v".into());
                let outcome = run(&compiled, &cfg).unwrap();
                let tag = format!("{tag} {method:?} prefetch={prefetch}");
                let v = &outcome.collected["v"].1;
                assert!(
                    max_abs_diff(v, &noderun::ref_jacobi(n, &fa)) < 1e-5,
                    "{tag}"
                );
                let rank0 = &outcome.report.per_proc()[0];
                let est = &compiled.estimates[0];
                assert_counters(&tag, est, &rank0.stats);
                gaps[k] = time_gap(est, rank0.finish_time);
            }
            assert_gaps(&tag, &gaps);
        }
    }
}

/// Compile `source` with `method` forced, run it, and hold rank 0 to the
/// statement's estimate.
fn forced_run_is_exact(tag: &str, source: &str, init: &[(&str, InitFn)], method: IoMethod) {
    let options = CompilerOptions {
        io_method: Some(method),
        ..CompilerOptions::default()
    };
    let compiled = compile_source(source, &options).unwrap();
    let mut cfg = RunConfig::default();
    for (name, f) in init {
        cfg.init.insert((*name).into(), f.clone());
    }
    let outcome = run(&compiled, &cfg).unwrap();
    let rank0 = &outcome.report.per_proc()[0];
    assert_eq!(compiled.estimates.len(), 1, "{tag}: one statement");
    assert_exact(
        &format!("{tag} {method:?}"),
        &compiled.estimates[0],
        &rank0.stats,
        rank0.finish_time,
    );
}

/// The remap-style nodes a compiled statement prices for one access under
/// `method`: the whole transpose, or the redistribution of a forall's
/// `k`-th pre-remap.
fn access_nodes(compiled: &CompiledProgram, k: usize) -> Vec<NestNode> {
    match &compiled.plans[0] {
        ExecPlan::Transpose(_) | ExecPlan::Spmv(_) => compiled.nests[0].clone(),
        ExecPlan::Elementwise(e) => remap_nodes(&e.pre_remaps[k], 0),
        ExecPlan::Gaxpy(_) => unreachable!("no remap-style access"),
    }
}

/// Every candidate an unforced compile priced equals the estimate of the
/// same access compiled with that candidate forced.
fn losers_are_priced_as_if_forced(tag: &str, source: &str) {
    let unforced = compile_source(source, &CompilerOptions::default()).unwrap();
    for method in IoMethod::ALL {
        let forced = compile_source(
            source,
            &CompilerOptions {
                io_method: Some(method),
                ..CompilerOptions::default()
            },
        )
        .unwrap();
        for (k, choice) in unforced.io_choices[0].iter().enumerate() {
            let (m, priced) =
                &choice.estimates[IoMethod::ALL.iter().position(|x| *x == method).unwrap()];
            assert_eq!(*m, method);
            let as_forced = CostEstimate::from_nest(&access_nodes(&forced, k), &forced.model, 4);
            assert_eq!(*priced, as_forced, "{tag} {}: {method:?}", choice.access);
        }
    }
}

#[test]
fn every_forced_transpose_matches_its_estimate() {
    for dist in ["*, block", "block, *"] {
        // (64, 48): ranks 32..47 own nothing.
        for (n, p) in [(32, 4), (13, 4), (100, 7), (64, 48)] {
            let source = transpose_source(n, p, dist);
            let tag = format!("transpose ({dist}) n={n} p={p}");
            for method in IoMethod::ALL {
                forced_run_is_exact(&tag, &source, &[("a", init_fn(fa))], method);
            }
            losers_are_priced_as_if_forced(&tag, &source);
        }
    }
}

/// Run `plan` on every rank: each rank's measured requests, bytes and
/// messages equal the tally of its remap stages, and the assembled
/// destination is the transpose of `fa`.
fn every_rank_transposes_as_scheduled(tag: &str, plan: &TransposePlan) {
    let p = plan.src.dist.nprocs();
    let (_, locals) = Machine::new(MachineConfig::free(p)).run_with(|ctx| {
        let mut env = OocEnv::in_memory(ctx.rank());
        env.alloc(&plan.src).unwrap();
        env.alloc(&plan.dst).unwrap();
        env.load_global(&plan.src, &fa).unwrap();
        let before = ctx.stats();
        noderun::transpose::execute(ctx, &mut env, plan).unwrap();
        let tally = RemapGeometry::new(plan, ctx.rank()).nodes(plan.method);
        assert_eq!(
            delta(&ctx.stats(), &before),
            estimated(&tally),
            "{tag} rank {}",
            ctx.rank()
        );
        env.read_local_all(&plan.dst).unwrap()
    });
    let locals: Vec<&[f32]> = locals.iter().map(Vec::as_slice).collect();
    let n = plan.src.global_shape().extent(0);
    let got = assemble_global(&plan.dst, &locals).1;
    assert_eq!(got, ref_transpose(n, &fa), "{tag}: contents");
}

#[test]
fn every_rank_of_every_forced_transpose_matches_its_schedule() {
    for dist in ["*, block", "block, *"] {
        for (n, p) in [(32, 4), (13, 4), (100, 7), (64, 48)] {
            for method in IoMethod::ALL {
                let options = CompilerOptions {
                    io_method: Some(method),
                    ..CompilerOptions::default()
                };
                let compiled = compile_source(&transpose_source(n, p, dist), &options).unwrap();
                let ExecPlan::Transpose(plan) = &compiled.plans[0] else {
                    panic!("expected a transpose plan");
                };
                if (n, p) == (64, 48) {
                    assert!(
                        plan.src.local_shape(p - 1).is_empty(),
                        "a rank owns nothing"
                    );
                }
                let tag = format!("transpose ({dist}) n={n} p={p} {method:?}");
                every_rank_transposes_as_scheduled(&tag, plan);
                // A row-major source: two-phase reads each stage's slab in
                // layout order and carves the pieces in row-major order.
                let row_major = TransposePlan {
                    src: plan.src.clone().with_layout(FileLayout::row_major(2)),
                    ..plan.clone()
                };
                every_rank_transposes_as_scheduled(&format!("{tag} row-major"), &row_major);
            }
        }
    }
}

#[test]
fn every_forced_misaligned_forall_matches_its_estimate() {
    for (n, p) in [(32, 4), (13, 3)] {
        let source = misaligned_source(n, p);
        let tag = format!("misaligned forall n={n} p={p}");
        let init = [("u", init_fn(fa)), ("w", init_fn(fb))];
        for method in IoMethod::ALL {
            forced_run_is_exact(&tag, &source, &init, method);
        }
        losers_are_priced_as_if_forced(&tag, &source);
    }
}

/// `v(i, j) = u(i, j-2) + u(i, j+2)` with both arrays `(*, block)` through
/// one template: a ghost strip of two columns each way.
fn wide_shift_source(n: usize, p: usize) -> String {
    format!(
        "
      parameter (n={n})
      real u(n, n), v(n, n)
!hpf$ processors pr({p})
!hpf$ template t(n)
!hpf$ distribute t(block) on pr
!hpf$ align (*, :) with t :: u, v
      forall (i = 1:n, j = 3:n-2)
        v(i, j) = u(i, j-2) + u(i, j+2)
      end forall
      end
"
    )
}

#[test]
fn a_shift_wider_than_the_slab_is_priced_stage_by_stage() {
    // One-column slabs under a shift of two: the stages next to the local
    // edges read clamped inputs, and the estimate prices each of them.
    for p in [2, 4] {
        let options = CompilerOptions {
            elw_slab_elems: 64,
            ..CompilerOptions::default()
        };
        let compiled = compile_source(&wide_shift_source(32, p), &options).unwrap();
        let ExecPlan::Elementwise(plan) = &compiled.plans[0] else {
            panic!("expected an elementwise plan");
        };
        assert_eq!((plan.slab_dim, plan.slab_thickness), (1, 1));
        let mut cfg = RunConfig::default();
        cfg.init.insert("u".into(), init_fn(fa));
        let outcome = run(&compiled, &cfg).unwrap();
        let rank0 = &outcome.report.per_proc()[0];
        assert_exact(
            &format!("wide shift p={p}"),
            &compiled.estimates[0],
            &rank0.stats,
            rank0.finish_time,
        );
    }
}

fn vec_dist(n: usize, p: usize) -> Distribution {
    Distribution::new(
        Shape::new(vec![n]),
        vec![DimDist::Distributed {
            kind: DistKind::Block,
            axis: 0,
        }],
        ProcGrid::line(p),
    )
}

/// `hpf::SPMV_SOURCE` with its row nest wrapped in `do it = 1, iters`.
fn spmv_loop_source(iters: usize) -> String {
    let (head, rest) = hpf::SPMV_SOURCE.split_once("      do i = 1, n").unwrap();
    let nest = rest.strip_suffix("      end\n").unwrap();
    format!("{head}      do it = 1, {iters}\n      do i = 1, n{nest}      end do\n      end\n")
}

#[test]
fn every_forced_spmv_gather_matches_its_inspected_schedule() {
    // `hpf::SPMV_SOURCE`'s matrix: 8 nonzeros per row at scattered columns,
    // multiplied `iters` times; only the first iteration inspects.
    let (n, nnz, p, iters) = (64usize, 512usize, 4usize, 4usize);
    let source = &spmv_loop_source(iters);
    losers_are_priced_as_if_forced("spmv", source);
    for method in IoMethod::ALL {
        let options = CompilerOptions {
            io_method: Some(method),
            ..CompilerOptions::default()
        };
        let compiled = compile_source(source, &options).unwrap();
        let ExecPlan::Spmv(plan) = &compiled.plans[0] else {
            panic!("expected an spmv plan");
        };
        let plan: SpmvPlan = (**plan).clone();
        let model = compiled.model.clone();
        let inits = [
            (&plan.rowptr, init_fn(move |g| (g[0] * (nnz / n)) as f32)),
            (
                &plan.colidx,
                init_fn(move |g| ((g[0] * 37 + (g[0] / 3) * 11) % n) as f32),
            ),
            (&plan.vals, init_fn(fv)),
            (&plan.x, init_fn(fv)),
            (&plan.y, init_fn(fv)),
        ];
        let machine = Machine::new(MachineConfig::new(p, model.clone()));
        let (report, scheds) = machine.run_with(|ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            for (desc, f) in &inits {
                env.alloc(desc).unwrap();
                env.load_global(desc, &|g| f(g)).unwrap();
            }
            let mut cache = None;
            for _ in 0..iters {
                execute_cached(ctx, &mut env, &plan, &mut cache, None).unwrap();
            }
            cache.expect("inspected")
        });
        // The executor's program, step for step and once per iteration:
        // stream and allgather the row pointers, inspect (first iteration
        // only) and gather over the real schedule, stream the values,
        // reduce the partial rows, write y. (The accumulation charges no
        // flops, so unlike the compile-time nest this one has no compute
        // node.)
        let rank = 0;
        let local = |d: &ArrayDesc| d.local_shape(rank).len() as u64;
        let peers = p as u64 - 1;
        let mut nest = Vec::new();
        for it in 0..iters {
            nest.extend([
                NestNode::read(&plan.rowptr.name, 1, local(&plan.rowptr)),
                NestNode::Comm {
                    label: "allgather rowptr".into(),
                    messages: peers,
                    bytes: 4 * local(&plan.rowptr) * peers,
                },
            ]);
            nest.extend(schedule_nodes(&scheds[rank], method, it == 0));
            nest.extend([
                NestNode::read(&plan.vals.name, 1, local(&plan.vals)),
                NestNode::Comm {
                    label: "reduce partial y".into(),
                    messages: peers,
                    bytes: 4 * local(&plan.y) * peers,
                },
                NestNode::write(&plan.y.name, 1, local(&plan.y)),
            ]);
        }
        let est = CostEstimate::from_nest(&nest, &model, 4);
        let rank0 = &report.per_proc()[rank];
        assert_exact(
            &format!("spmv {method:?}"),
            &est,
            &rank0.stats,
            rank0.finish_time,
        );
        // The whole program run from the same compile gathers through the
        // method forced at compile time (no run-time re-selection) and
        // inspects in its first statement only.
        let mut cfg = RunConfig::default();
        for (desc, f) in &inits {
            cfg.init.insert(desc.name.clone(), f.clone());
        }
        let whole = run(&compiled, &cfg).unwrap();
        let none = StatsSnapshot::default();
        assert_eq!(
            delta(&whole.report.per_proc()[rank].stats, &none),
            delta(&rank0.stats, &none),
            "spmv {method:?}: noderun::run re-selected the gather or re-inspected"
        );
    }
}

/// Disk and message counters of one rank around an operation.
fn delta(after: &StatsSnapshot, before: &StatsSnapshot) -> [u64; 6] {
    [
        after.io_read_requests - before.io_read_requests,
        after.io_bytes_read - before.io_bytes_read,
        after.io_write_requests - before.io_write_requests,
        after.io_bytes_written - before.io_bytes_written,
        after.msgs_sent - before.msgs_sent,
        after.bytes_sent - before.bytes_sent,
    ]
}

/// The same six counters from a nest's totals.
fn estimated(nest: &[NestNode]) -> [u64; 6] {
    let t = totals(nest);
    [
        sum(&t, |a| a.read_requests),
        4 * sum(&t, |a| a.read_elems),
        sum(&t, |a| a.write_requests),
        4 * sum(&t, |a| a.write_elems),
        t.comm_messages,
        t.comm_bytes,
    ]
}

#[test]
fn every_method_of_every_rank_redistributes_as_estimated() {
    // Column-block/column-major → row-block/row-major: pieces are strided
    // on both sender and receiver, so the three methods take genuinely
    // different request schedules, sieved writes included. Block → cyclic
    // gives strided pieces whose runs touch across columns.
    let (n, p) = (14, 2);
    let cyclic = Distribution::new(
        Shape::matrix(n, 3),
        vec![
            DimDist::Distributed {
                kind: DistKind::Cyclic,
                axis: 0,
            },
            DimDist::Collapsed,
        ],
        ProcGrid::line(p),
    );
    let desc = |id: u32, dist: Distribution| ArrayDesc::new(ArrayId(id), "a", ElemKind::F32, dist);
    for (src, dst, p) in [
        (
            desc(0, Distribution::column_block(Shape::matrix(12, 12), 3)),
            desc(1, Distribution::row_block(Shape::matrix(12, 12), 3))
                .with_layout(FileLayout::row_major(2)),
            3,
        ),
        (
            desc(0, Distribution::row_block(Shape::matrix(n, 3), p)),
            desc(1, cyclic.clone()),
            p,
        ),
        (
            desc(0, cyclic),
            desc(1, Distribution::row_block(Shape::matrix(n, 3), p)),
            p,
        ),
    ] {
        for method in IoMethod::ALL {
            let spec = RemapSpec {
                src: src.clone(),
                tmp: dst.clone(),
                method,
            };
            Machine::new(MachineConfig::free(p)).run(|ctx| {
                let mut env = OocEnv::in_memory(ctx.rank());
                env.alloc(&src).unwrap();
                env.alloc(&dst).unwrap();
                env.load_global(&src, &fa).unwrap();
                let before = ctx.stats();
                redistribute_with(ctx, &mut env, &src, &dst, method, ctx).unwrap();
                assert_eq!(
                    delta(&ctx.stats(), &before),
                    estimated(&remap_nodes(&spec, ctx.rank())),
                    "{:?} -> {:?} {method:?} rank {}",
                    src.dist.dims(),
                    dst.dist.dims(),
                    ctx.rank()
                );
            });
        }
    }
}

#[test]
fn two_phase_reads_once_where_direct_reads_per_row() {
    // The paper's worst case: a row-major file read in a column-conforming
    // decomposition. Direct issues one request per (row, destination)
    // pair; the file-conforming union of all pieces is this rank's entire
    // contiguous file — one request.
    let (n, p) = (16, 4);
    let src = ArrayDesc::new(
        ArrayId(0),
        "a",
        ElemKind::F32,
        Distribution::row_block(Shape::matrix(n, n), p),
    )
    .with_layout(FileLayout::row_major(2));
    let dst = ArrayDesc::new(
        ArrayId(1),
        "a2",
        ElemKind::F32,
        Distribution::column_block(Shape::matrix(n, n), p),
    );
    let counts = |method| {
        let spec = RemapSpec {
            src: src.clone(),
            tmp: dst.clone(),
            method,
        };
        estimated(&remap_nodes(&spec, 0))
    };
    let (direct, two_phase) = (counts(IoMethod::Direct), counts(IoMethod::TwoPhase));
    let rows_per_rank = (n / p) as u64;
    assert_eq!(direct[0], rows_per_rank * p as u64);
    assert_eq!(two_phase[0], 1);
    assert_eq!(two_phase[1], direct[1], "no overread");
    // Writes collapse too: the receiver assembles its full local part.
    assert_eq!(two_phase[2], 1);
    assert!(direct[2] > two_phase[2]);
}

#[test]
fn every_method_of_every_rank_gathers_as_its_schedule_estimates() {
    // A scattered-but-deterministic index stream with repeats.
    let (n, nidx, p) = (48, 96, 3);
    let x = ArrayDesc::new(ArrayId(0), "x", ElemKind::F32, vec_dist(n, p));
    let idx = ArrayDesc::new(ArrayId(1), "idx", ElemKind::F32, vec_dist(nidx, p));
    for method in IoMethod::ALL {
        Machine::new(MachineConfig::free(p)).run(|ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            env.alloc(&x).unwrap();
            env.alloc(&idx).unwrap();
            env.load_global(&x, &|g| g[0] as f32 * 0.5).unwrap();
            env.load_global(&idx, &|g| ((g[0] * 37 + (g[0] / 3) * 11) % n) as f32)
                .unwrap();
            let before = ctx.stats();
            let sched = inspect(ctx, &mut env, &x, &idx, ctx).unwrap();
            let inspected = ctx.stats();
            gather_with(ctx, &mut env, &sched, method, ctx).unwrap();
            let tag = format!("{method:?} rank {}", ctx.rank());
            assert_eq!(
                delta(&ctx.stats(), &before),
                estimated(&schedule_nodes(&sched, method, true)),
                "{tag}: inspect + gather"
            );
            assert_eq!(
                delta(&ctx.stats(), &inspected),
                estimated(&schedule_nodes(&sched, method, false)),
                "{tag}: gather alone"
            );
        });
    }
}
