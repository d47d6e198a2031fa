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

use noderun::assemble_global;
use ooc_array::{
    ArrayDesc, ArrayId, DimDist, DimRange, DistKind, Distribution, ProcGrid, Section, Shape,
};
use pario::ElemKind;

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
