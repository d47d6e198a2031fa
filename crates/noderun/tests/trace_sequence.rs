//! The generated node program is an *operation sequence*, not just a cost
//! total: the executor's I/O trace must match the symbolic nest (Figures
//! 9/12) operation for operation — same order, same request counts, same
//! byte counts. Reads and writes are compared as separate sequences: the
//! column version's C-buffer flushes happen while the *owning* rank's
//! columns stream by, so their interleaving position is rank-dependent,
//! while the read stream and the write stream themselves are identical on
//! every rank. An elementwise statement's ranks differ (ghost strips,
//! stages clamped at local edges), so each is held to its own nest.

use dmsim::{Machine, MachineConfig};
use noderun::trace::{expected_io_sequence, TracingCharge};
use ooc_array::{ArrayDesc, ArrayId, DimRange, Distribution, OocEnv, Section, Shape};
use ooc_core::hir::ElwExpr;
use ooc_core::nodegen::{elw_nest, gaxpy_nest};
use ooc_core::plan::{ElwPlan, GaxpyPlan, GhostSpec, SlabStrategy};
use pario::ElemKind;

fn make_plan(strategy: SlabStrategy, n: usize, p: usize, sa: usize, sb: usize) -> GaxpyPlan {
    GaxpyPlan::new(strategy, n, p, sa, sb)
}

#[test]
fn executor_io_sequence_matches_the_node_program() {
    for (strategy, sa, sb) in [
        (SlabStrategy::ColumnSlab, 2, 4),
        (SlabStrategy::ColumnSlab, 3, 5), // ragged everywhere
        (SlabStrategy::RowSlab, 4, 4),
        (SlabStrategy::RowSlab, 5, 7),  // ragged
        (SlabStrategy::RowSlab, 4, 16), // B resident (hoisted read)
    ] {
        let n = 16;
        let p = 4;
        let plan = make_plan(strategy, n, p, sa, sb);
        let expected = expected_io_sequence(&gaxpy_nest(&plan), 4, 100_000)
            .expect("nest small enough to flatten");

        let machine = Machine::new(MachineConfig::free(p));
        let (_, traces) = machine.run_with(|ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            env.alloc(&plan.a).unwrap();
            env.alloc(&plan.b).unwrap();
            env.alloc(&plan.c).unwrap();
            let tracer = TracingCharge::new(ctx);
            noderun::gaxpy::execute_recoverable(ctx, &mut env, &plan, &tracer, &Default::default())
                .unwrap();
            tracer.into_events()
        });

        let expected_reads: Vec<_> = expected.iter().filter(|o| o.read).collect();
        let expected_writes: Vec<_> = expected.iter().filter(|o| !o.read).collect();
        for (rank, trace) in traces.iter().enumerate() {
            let reads: Vec<_> = trace.iter().filter(|o| o.read).collect();
            let writes: Vec<_> = trace.iter().filter(|o| !o.read).collect();
            assert_eq!(
                reads, expected_reads,
                "{strategy:?} sa={sa} sb={sb}: rank {rank} read sequence \
                 diverges from the generated node program"
            );
            assert_eq!(
                writes, expected_writes,
                "{strategy:?} sa={sa} sb={sb}: rank {rank} write sequence \
                 diverges from the generated node program"
            );
        }
    }
}

/// `v = expr` over `u` on an `n × n` grid, `(*, block)` over `p` ranks,
/// stripmined along the distributed columns in slabs of `thickness`, with
/// the ghost strips the expression's column shift needs.
fn elw_plan(n: usize, p: usize, expr: ElwExpr, cols: (usize, usize), thickness: usize) -> ElwPlan {
    let dist = Distribution::column_block(Shape::matrix(n, n), p);
    let desc = |id, name: &str| ArrayDesc::new(ArrayId(id), name, ElemKind::F32, dist.clone());
    let w = expr.max_shift(2)[1];
    ElwPlan {
        pre_remaps: vec![],
        lhs: desc(1, "v"),
        rhs_arrays: vec![desc(0, "u")],
        flops_per_point: expr.flops_per_point(),
        expr,
        region: Section::new(vec![DimRange::new(1, n - 1), DimRange::new(cols.0, cols.1)]),
        slab_dim: 1,
        slab_thickness: thickness,
        ghosts: vec![GhostSpec {
            dim: 1,
            lo_width: w,
            hi_width: w,
        }],
        method: pario::IoMethod::Direct,
        prefetch: false,
    }
}

#[test]
fn elementwise_io_sequence_matches_each_ranks_node_program() {
    let at = |d0, d1| ElwExpr::shifted("u", vec![d0, d1]);
    let jacobi = ElwExpr::mul(
        ElwExpr::Const(0.25),
        ElwExpr::add(
            ElwExpr::add(at(-1, 0), at(1, 0)),
            ElwExpr::add(at(0, -1), at(0, 1)),
        ),
    );
    let wide = ElwExpr::add(at(0, -2), at(0, 2));
    for (name, plan) in [
        ("jacobi t=1", elw_plan(16, 4, jacobi.clone(), (1, 15), 1)),
        ("jacobi t=3", elw_plan(32, 4, jacobi, (1, 31), 3)), // ragged
        ("shift 2 t=1", elw_plan(32, 4, wide, (2, 30), 1)),
    ] {
        let p = plan.lhs.dist.nprocs();
        let (_, traces) = Machine::new(MachineConfig::free(p)).run_with(|ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            env.alloc(&plan.rhs_arrays[0]).unwrap();
            env.alloc(&plan.lhs).unwrap();
            let tracer = TracingCharge::new(ctx);
            noderun::elementwise::execute(ctx, &mut env, &plan, &tracer).unwrap();
            tracer.into_events()
        });
        for (rank, trace) in traces.iter().enumerate() {
            let expected = expected_io_sequence(&elw_nest(&plan, rank), 4, 100_000)
                .expect("nest small enough to flatten");
            for read in [true, false] {
                let got: Vec<_> = trace.iter().filter(|o| o.read == read).collect();
                let want: Vec<_> = expected.iter().filter(|o| o.read == read).collect();
                assert_eq!(
                    got,
                    want,
                    "{name}: rank {rank} {} sequence diverges from its node program",
                    if read { "read" } else { "write" }
                );
            }
        }
    }
}

#[test]
fn sequence_differs_between_strategies() {
    // Sanity: the two translations are genuinely different programs.
    let a = expected_io_sequence(
        &gaxpy_nest(&make_plan(SlabStrategy::ColumnSlab, 16, 4, 2, 4)),
        4,
        100_000,
    )
    .unwrap();
    let b = expected_io_sequence(
        &gaxpy_nest(&make_plan(SlabStrategy::RowSlab, 16, 4, 4, 4)),
        4,
        100_000,
    )
    .unwrap();
    assert_ne!(a, b);
    assert!(a.len() > b.len(), "column version issues more operations");
}
