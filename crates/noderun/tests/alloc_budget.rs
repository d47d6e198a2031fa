//! Allocation budget of the runtime's per-element paths.
//!
//! Host cost per element must be a small constant: index translation is
//! hoisted to once per rank and dimension, so these paths may allocate
//! O(ranks · ndims) times and never once per element. A counting global
//! allocator makes a reintroduced per-element `Vec` fail tier-1 instead of
//! only showing up as host time in the ledger.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use dmsim::{Machine, MachineConfig};
use noderun::assemble_global;
use ooc_array::{
    ArrayDesc, ArrayId, DimDist, DimRange, DistKind, Distribution, FileLayout, OocEnv, ProcGrid,
    Section, Shape,
};
use ooc_core::hir::ElwExpr;
use ooc_core::plan::{ElwPlan, GaxpyPlan, GhostSpec, SlabStrategy};
use pario::{ElemKind, IoMethod, NoCharge, SievePolicy::Direct};

thread_local! {
    // Per thread, so the test harness's parallel tests do not count each
    // other's allocations.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a counter bump
// on a const-initialised thread local, which itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Run `f` and count the allocations it made on this thread.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

fn locals(desc: &ArrayDesc) -> Vec<Vec<f32>> {
    (0..desc.dist.nprocs())
        .map(|r| vec![r as f32; desc.local_shape(r).len()])
        .collect()
}

#[test]
fn assemble_global_allocates_per_rank_and_dimension_not_per_element() {
    let n = 256;
    let ranks = 16;
    let block_cyclic = |axis| DimDist::Distributed {
        kind: DistKind::BlockCyclic(3),
        axis,
    };
    for dist in [
        Distribution::column_block(Shape::matrix(n, n), ranks),
        Distribution::new(
            Shape::matrix(n, n),
            vec![block_cyclic(0), block_cyclic(1)],
            ProcGrid::new(vec![4, 4]),
        ),
    ] {
        let desc = ArrayDesc::new(ArrayId(0), "a", ElemKind::F32, dist);
        let bufs = locals(&desc);
        let refs: Vec<&[f32]> = bufs.iter().map(Vec::as_slice).collect();
        let ((_, global), allocs) = allocs_during(|| assemble_global(&desc, &refs));
        assert_eq!(global.len(), n * n);
        let budget = 4 * ranks * 2;
        assert!(
            allocs <= budget,
            "{allocs} allocations for {} elements (budget {budget}): {:?}",
            n * n,
            desc.dist
        );
    }
}

#[test]
fn owner_lookups_do_not_allocate() {
    let d = Distribution::new(
        Shape::matrix(100, 100),
        vec![
            DimDist::Distributed {
                kind: DistKind::Cyclic,
                axis: 1,
            },
            DimDist::Distributed {
                kind: DistKind::Block,
                axis: 0,
            },
        ],
        ProcGrid::new(vec![4, 4]),
    );
    let (sum, allocs) = allocs_during(|| {
        let mut sum = 0usize;
        for i in 0..100 {
            for j in 0..100 {
                sum += d.owner(black_box(&[i, j]));
            }
        }
        sum
    });
    assert!(sum > 0);
    assert_eq!(allocs, 0, "10 000 owner lookups allocated");
}

#[test]
fn a_section_offset_walk_allocates_once() {
    let sec = Section::new(vec![DimRange::strided(1, 256, 2), DimRange::new(0, 256)]);
    let strides = [1, 256];
    let (sum, allocs) = allocs_during(|| sec.offsets(&strides).map(black_box).sum::<usize>());
    assert!(sum > 0);
    assert!(
        allocs <= 1,
        "{allocs} allocations walking {} elements",
        sec.len()
    );
}

/// Allocations made by each rank's column-slab GAXPY body (setup excluded)
/// with A slabs `slab_a` columns thick. `slab_b` stays fixed, so only the
/// number of A-slab reads (and of C writes, one per `slab_a` owned
/// columns) varies with `slab_a`.
fn column_gaxpy_allocs(n: usize, p: usize, slab_a: usize) -> Vec<usize> {
    let plan = GaxpyPlan::new(SlabStrategy::ColumnSlab, n, p, slab_a, n / 4);
    let f = |g: &[usize]| (g[0] + 2 * g[1]) as f32;
    let (_, allocs) = Machine::new(MachineConfig::free(p)).run_with(|ctx| {
        let mut env = OocEnv::in_memory(ctx.rank());
        for desc in [&plan.a, &plan.b, &plan.c] {
            env.alloc(desc).unwrap();
            env.load_global(desc, &f).unwrap();
        }
        let (peak, allocs) = allocs_during(|| {
            noderun::gaxpy::execute_recoverable(ctx, &mut env, &plan, ctx, &Default::default())
                .unwrap()
        });
        assert!(peak > 0);
        allocs
    });
    allocs
}

#[test]
fn column_gaxpy_allocates_per_column_of_c_not_per_a_slab_read() {
    let (n, p) = (64usize, 4usize);
    let lc = n / p;
    // Every column of C re-reads all of A: n * lc / slab_a reads per rank.
    let reads = |slab_a: usize| n * lc.div_ceil(slab_a);
    let thick = column_gaxpy_allocs(n, p, lc);
    let thin = column_gaxpy_allocs(n, p, lc / 2);
    let added_reads = reads(lc / 2) - reads(lc);
    for (rank, (&t, &h)) in thick.iter().zip(&thin).enumerate() {
        let added = h.saturating_sub(t);
        assert!(
            added < added_reads,
            "rank {rank}: halving slab_a added {added} allocations for {added_reads} \
             added A-slab reads ({t} -> {h})"
        );
    }
}

/// Allocations made by each rank's elementwise executor (setup excluded)
/// for a 5-point stencil on a `rows × cols` grid, `(block, *)` over two
/// ranks (one ghost exchange each way), stripmined along `slab_dim` in
/// slabs of 2. Also returns the stage count, the same on both ranks.
fn stencil_allocs(rows: usize, cols: usize, slab_dim: usize) -> (Vec<usize>, usize) {
    let dist = Distribution::row_block(Shape::matrix(rows, cols), 2);
    let u = ArrayDesc::new(ArrayId(0), "u", ElemKind::F32, dist.clone());
    let v = ArrayDesc::new(ArrayId(1), "v", ElemKind::F32, dist);
    let at = |d0, d1| ElwExpr::shifted("u", vec![d0, d1]);
    let sum = ElwExpr::add(
        ElwExpr::add(at(-1, 0), at(1, 0)),
        ElwExpr::add(at(0, -1), at(0, 1)),
    );
    let expr = ElwExpr::mul(ElwExpr::Const(0.25), sum);
    let region = Section::new(vec![DimRange::new(1, rows - 1), DimRange::new(1, cols - 1)]);
    let stages = [rows / 2 - 1, cols - 2][slab_dim].div_ceil(2);
    let plan = ElwPlan {
        pre_remaps: vec![],
        lhs: v,
        rhs_arrays: vec![u],
        flops_per_point: expr.flops_per_point(),
        expr,
        region,
        slab_dim,
        slab_thickness: 2,
        ghosts: vec![GhostSpec {
            dim: 0,
            lo_width: 1,
            hi_width: 1,
        }],
        method: IoMethod::Direct,
        prefetch: false,
    };
    let f = |g: &[usize]| (g[0] + 2 * g[1]) as f32;
    let (_, allocs) = Machine::new(MachineConfig::free(2)).run_with(|ctx| {
        let mut env = OocEnv::in_memory(ctx.rank());
        for desc in [&plan.rhs_arrays[0], &plan.lhs] {
            env.alloc(desc).unwrap();
            env.load_global(desc, &f).unwrap();
        }
        let (peak, allocs) =
            allocs_during(|| noderun::elementwise::execute(ctx, &mut env, &plan, ctx).unwrap());
        assert!(peak > 0);
        allocs
    });
    (allocs, stages)
}

#[test]
fn elementwise_allocates_per_stage_not_per_run_or_point() {
    // Slabs across the ghost dimension: doubling the rows doubles every
    // run. Slabs along it: doubling the columns doubles the runs of every
    // stage. Either way stages, arrays and ghost strips stay fixed.
    for (slab_dim, small, doubled) in [(1, (16, 16), (32, 16)), (0, (16, 16), (16, 32))] {
        let (before, stages) = stencil_allocs(small.0, small.1, slab_dim);
        let (after, same_stages) = stencil_allocs(doubled.0, doubled.1, slab_dim);
        assert_eq!(stages, same_stages);
        for (rank, (&b, &a)) in before.iter().zip(&after).enumerate() {
            let added = a.saturating_sub(b);
            assert!(
                added < stages,
                "slab dim {slab_dim}, rank {rank}: doubling every stage added {added} \
                 allocations over {stages} stages ({b} -> {a})"
            );
        }
    }
}

/// Allocations each rank's `inspect` makes for `per_rank` indirection
/// entries per rank, scattered without repeats over a 2^16-element array
/// block-distributed over `p` ranks.
fn inspect_allocs(p: usize, per_rank: usize) -> Vec<usize> {
    let n = 1 << 16;
    let line = |len| {
        Distribution::new(
            Shape::new(vec![len]),
            vec![DimDist::Distributed {
                kind: DistKind::Block,
                axis: 0,
            }],
            ProcGrid::line(p),
        )
    };
    let x = ArrayDesc::new(ArrayId(0), "x", ElemKind::F32, line(n));
    let idx = ArrayDesc::new(ArrayId(1), "idx", ElemKind::F32, line(per_rank * p));
    let (_, allocs) = Machine::new(MachineConfig::free(p)).run_with(|ctx| {
        let mut env = OocEnv::in_memory(ctx.rank());
        env.alloc(&idx).unwrap();
        // 40 503 is odd, so no target repeats, and close to 2^16 / φ, so
        // every owner gets an even share of every rank's entries.
        env.load_global(&idx, &|g| ((40_503 * g[0]) % n) as f32)
            .unwrap();
        let mut inspect = || {
            let (sched, allocs) =
                allocs_during(|| ooc_array::inspect(ctx, &mut env, &x, &idx, &NoCharge).unwrap());
            assert_eq!(sched.nout, per_rank);
            allocs
        };
        // The warm-up run allocates every mailbox. The barrier keeps the
        // measured run's messages from queueing behind the warm-up's, so
        // no mailbox grows however the ranks' threads are timed.
        inspect();
        ctx.barrier();
        inspect()
    });
    allocs
}

#[test]
fn inspect_allocates_per_peer_not_per_entry_or_target() {
    // Doubling the entries doubles every want and serve list. Each of the
    // p want lists may grow once more; nothing else may allocate again.
    let p = 4;
    let before = inspect_allocs(p, 3000);
    let after = inspect_allocs(p, 6000);
    for (rank, (&b, &a)) in before.iter().zip(&after).enumerate() {
        let added = a.saturating_sub(b);
        assert!(
            added <= p,
            "rank {rank}: doubling the entries added {added} allocations ({b} -> {a})"
        );
    }
}

/// Allocations of one warmed-up `read_section_into` and one `write_section`
/// of `section` of a 64×64 array stored under `layout` on a single rank.
fn section_io_allocs(layout: &FileLayout, section: &Section) -> (usize, usize) {
    let dist = Distribution::column_block(Shape::matrix(64, 64), 1);
    let desc = ArrayDesc::new(ArrayId(0), "a", ElemKind::F32, dist).with_layout(layout.clone());
    let mut env = OocEnv::in_memory(0);
    env.alloc(&desc).unwrap();
    env.load_global(&desc, &|g| (64 * g[0] + g[1]) as f32)
        .unwrap();
    let data: Vec<f32> = (0..section.len()).map(|i| i as f32).collect();
    let mut out = Vec::new();
    // One pass of each first, so every reused scratch buffer has its size.
    env.read_section_into(&desc, section, &mut out, &NoCharge, Direct)
        .unwrap();
    env.write_section(&desc, section, &data, &NoCharge, Direct)
        .unwrap();
    let ((), reads) = allocs_during(|| {
        env.read_section_into(&desc, section, &mut out, &NoCharge, Direct)
            .unwrap()
    });
    let ((), writes) = allocs_during(|| {
        env.write_section(&desc, section, &data, &NoCharge, Direct)
            .unwrap()
    });
    assert_eq!(out, data, "the write must land where the read finds it");
    (reads, writes)
}

#[test]
fn section_writes_allocate_no_more_than_reads_and_neither_per_run() {
    let shape = Shape::matrix(64, 64);
    let row_slab = Section::new(vec![DimRange::new(0, 16), DimRange::new(0, 64)]);
    let every_other_column = Section::new(vec![DimRange::new(0, 16), DimRange::strided(0, 64, 2)]);
    for layout in [FileLayout::column_major(2), FileLayout::row_major(2)] {
        for section in [&row_slab, &every_other_column] {
            let runs = layout.count_section_runs(&shape, section);
            let (reads, writes) = section_io_allocs(&layout, section);
            let case = format!(
                "{:?}, {} elements in {runs} runs",
                layout.order(),
                section.len()
            );
            // The run split, the reorder and the disk all work in reused
            // scratch: a warmed access allocates nothing, however many runs.
            assert_eq!(
                (reads, writes),
                (0, 0),
                "{case}: allocations per (read, write)"
            );
        }
    }
}

/// Allocations of one `load_global` of a `rows × cols` array, `(*, block)`
/// over `p` ranks and stored under `layout`, on each rank (the file is
/// allocated beforehand).
fn load_global_allocs(rows: usize, cols: usize, p: usize, layout: &FileLayout) -> Vec<usize> {
    let dist = Distribution::column_block(Shape::matrix(rows, cols), p);
    let desc = ArrayDesc::new(ArrayId(0), "a", ElemKind::F32, dist).with_layout(layout.clone());
    (0..p)
        .map(|rank| {
            let mut env = OocEnv::in_memory(rank);
            env.alloc(&desc).unwrap();
            let ((), allocs) = allocs_during(|| {
                env.load_global(&desc, &|g| (g[0] + 3 * g[1]) as f32)
                    .unwrap()
            });
            allocs
        })
        .collect()
}

#[test]
fn load_global_allocates_per_dimension_not_per_run_or_element() {
    // Growing the rows lengthens every column-major run and multiplies the
    // row-major runs; growing the columns does the opposite. Neither may
    // change the count: a few per dimension for the index tables and the
    // odometer, plus the buffer and the one write of the whole file.
    let ndims = 2;
    for layout in [
        FileLayout::column_major(ndims),
        FileLayout::row_major(ndims),
    ] {
        let base = load_global_allocs(8, 8, 4, &layout);
        for (rows, cols) in [(64, 8), (8, 64), (64, 64)] {
            let grown = load_global_allocs(rows, cols, 4, &layout);
            assert_eq!(
                grown,
                base,
                "{:?}: {rows}x{cols} allocates differently from 8x8",
                layout.order()
            );
        }
        for (rank, &allocs) in base.iter().enumerate() {
            assert!(
                allocs <= 4 * ndims + 8,
                "{:?}, rank {rank}: {allocs} allocations",
                layout.order()
            );
        }
    }
}

#[test]
fn contiguous_reads_from_a_disk_backed_file_allocate_nothing() {
    let dist = Distribution::column_block(Shape::matrix(64, 64), 1);
    let desc = ArrayDesc::new(ArrayId(0), "a", ElemKind::F32, dist);
    let whole_columns = Section::new(vec![DimRange::new(0, 64), DimRange::new(8, 24)]);
    let mut out = Vec::new();
    for mut env in [OocEnv::in_memory(0), OocEnv::on_disk(0).unwrap()] {
        env.alloc(&desc).unwrap();
        env.load_global(&desc, &|g| (64 * g[0] + g[1]) as f32)
            .unwrap();
        // One read first, so every reused buffer has its size.
        env.read_section_into(&desc, &whole_columns, &mut out, &NoCharge, Direct)
            .unwrap();
        let ((), allocs) = allocs_during(|| {
            env.read_section_into(&desc, &whole_columns, &mut out, &NoCharge, Direct)
                .unwrap()
        });
        assert_eq!(allocs, 0, "a warmed-up contiguous read allocated");
        assert_eq!(out[..2], [8.0, 72.0], "the read must find the fill");
    }
}
