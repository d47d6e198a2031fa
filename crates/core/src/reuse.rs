//! Reuse-aware I/O prediction for cached executions.
//!
//! With a slab cache in the I/O substrate (`pario::SlabCache`), the
//! closed-form request counts in [`crate::nodegen`] no longer describe a
//! cached execution: a read fully covered by cached segments costs nothing,
//! a miss fetches only the spanning gap, and writes are buffered until
//! write-back. Rather than approximating those effects analytically, the
//! estimator *replays* the executor's exact access sequence through the same
//! cache implementation in predictor mode (no payloads, no backend) and
//! reads the request/byte counts off the cache's per-file counters. Because
//! runtime and predictor share one cache, estimate == measurement holds by
//! construction — the repo's central invariant, extended to caching.

use ooc_array::{ArrayDesc, ArrayId, DimRange, Distribution, FileLayout, Section, Shape};
use pario::{coalesce_runs, DiskStats, ElemKind, NoCharge, SlabCache};

use crate::ir::{ArrayIoTotals, NestTotals};
use crate::nodegen::gaxpy_nest_for;
use crate::plan::{GaxpyPlan, SlabStrategy};

/// Synthetic file ids the replay uses: allocation order in the executor
/// (`alloc(a)`, `alloc(b)`, `alloc(c)` on a fresh environment).
const FILE_A: u64 = 0;
const FILE_B: u64 = 1;
const FILE_C: u64 = 2;

/// One replayed section access against the predictor cache: exactly what
/// `OocEnv::{read,write}_section` does on the byte level — the section's
/// byte runs ([`ArrayDesc::section_byte_runs`]), coalesced, then one cache
/// operation per coalesced run in ascending order.
fn replay_access(
    cache: &mut SlabCache,
    stats: &mut DiskStats,
    file: u64,
    desc: &ArrayDesc,
    rank: usize,
    sec: &Section,
    is_read: bool,
) {
    let mut byte_runs = Vec::new();
    desc.section_byte_runs(&desc.local_shape(rank), sec, &mut byte_runs);
    for run in coalesce_runs(&byte_runs) {
        if is_read {
            cache
                .read(file, run, None, None, None, &NoCharge, stats)
                .expect("predictor cache read cannot fail");
        } else {
            cache
                .write(file, run, None, None, None, &NoCharge, stats)
                .expect("predictor cache write cannot fail");
        }
    }
}

/// Per-array totals as seen through the cache: misses are the only reads
/// that reach the disk, write-backs the only writes.
fn array_totals(cache: &SlabCache, file: u64, elem: ElemKind) -> ArrayIoTotals {
    let es = elem.size() as u64;
    let c = cache.file_counts(file);
    ArrayIoTotals {
        read_requests: c.read_requests,
        read_elems: c.read_bytes / es,
        write_requests: c.write_back_requests,
        write_elems: c.write_back_bytes / es,
    }
}

/// Predict the I/O totals of executing `plan` on `rank` with a slab cache
/// of `budget` bytes in front of the disk, by replaying the executor's
/// access sequence (including the final charged flush) through a
/// predictor-mode [`SlabCache`]. Communication and flop totals are
/// unaffected by caching and are copied from the symbolic nest.
pub fn gaxpy_cached_totals(plan: &GaxpyPlan, rank: usize, budget: usize) -> NestTotals {
    let base = crate::ir::totals(&gaxpy_nest_for(plan, rank));
    let mut cache = SlabCache::predictor(budget);
    let mut stats = DiskStats::default();

    match plan.strategy {
        SlabStrategy::ColumnSlab => replay_column(plan, rank, &mut cache, &mut stats),
        SlabStrategy::RowSlab => replay_row(plan, rank, &mut cache, &mut stats),
    }
    cache
        .flush(None, None, &NoCharge, &mut stats)
        .expect("predictor flush cannot fail");

    let mut t = NestTotals {
        comm_messages: base.comm_messages,
        comm_bytes: base.comm_bytes,
        flops: base.flops,
        ..NestTotals::default()
    };
    t.per_array.insert(
        plan.a.name.clone(),
        array_totals(&cache, FILE_A, plan.a.elem),
    );
    t.per_array.insert(
        plan.b.name.clone(),
        array_totals(&cache, FILE_B, plan.b.elem),
    );
    t.per_array.insert(
        plan.c.name.clone(),
        array_totals(&cache, FILE_C, plan.c.elem),
    );
    t
}

/// The column-slab access sequence (Figure 9; mirrors
/// `noderun::gaxpy::column_version` line by line).
fn replay_column(plan: &GaxpyPlan, rank: usize, cache: &mut SlabCache, stats: &mut DiskStats) {
    let n = plan.n;
    let lc_a = plan.a.local_shape(rank).extent(1);
    let lr_b = plan.b.local_shape(rank).extent(0);

    let mut cbuf_start_col = 0usize;
    let mut next_c_col = 0usize;

    let mut b_lo = 0usize;
    while b_lo < n {
        let b_hi = (b_lo + plan.slab_b).min(n);
        let b_sec = Section::new(vec![DimRange::new(0, lr_b), DimRange::new(b_lo, b_hi)]);
        replay_access(cache, stats, FILE_B, &plan.b, rank, &b_sec, true);

        for m in 0..(b_hi - b_lo) {
            let j = b_lo + m;
            let mut a_lo = 0usize;
            while a_lo < lc_a {
                let a_hi = (a_lo + plan.slab_a).min(lc_a);
                let a_sec = Section::new(vec![DimRange::new(0, n), DimRange::new(a_lo, a_hi)]);
                replay_access(cache, stats, FILE_A, &plan.a, rank, &a_sec, true);
                a_lo = a_hi;
            }
            if plan.c.dist.owner(&[0, j]) == rank {
                next_c_col += 1;
                if next_c_col - cbuf_start_col == plan.slab_c {
                    let sec = Section::new(vec![
                        DimRange::new(0, n),
                        DimRange::new(cbuf_start_col, next_c_col),
                    ]);
                    replay_access(cache, stats, FILE_C, &plan.c, rank, &sec, false);
                    cbuf_start_col = next_c_col;
                }
            }
        }
        b_lo = b_hi;
    }
    if next_c_col > cbuf_start_col {
        let sec = Section::new(vec![
            DimRange::new(0, n),
            DimRange::new(cbuf_start_col, next_c_col),
        ]);
        replay_access(cache, stats, FILE_C, &plan.c, rank, &sec, false);
    }
}

/// The row-slab access sequence (Figure 12; mirrors
/// `noderun::gaxpy::row_version` line by line).
fn replay_row(plan: &GaxpyPlan, rank: usize, cache: &mut SlabCache, stats: &mut DiskStats) {
    let n = plan.n;
    let lc = plan.a.local_shape(rank).extent(1);
    let lr_b = plan.b.local_shape(rank).extent(0);
    let c_cols = plan.c.local_shape(rank).extent(1);

    let b_resident = plan.slab_b >= n;
    if b_resident {
        let sec = Section::new(vec![DimRange::new(0, lr_b), DimRange::new(0, n)]);
        replay_access(cache, stats, FILE_B, &plan.b, rank, &sec, true);
    }

    let mut r_lo = 0usize;
    while r_lo < n {
        let r_hi = (r_lo + plan.slab_a).min(n);
        let a_sec = Section::new(vec![DimRange::new(r_lo, r_hi), DimRange::new(0, lc)]);
        replay_access(cache, stats, FILE_A, &plan.a, rank, &a_sec, true);

        let mut b_lo = 0usize;
        while b_lo < n {
            let b_hi = (b_lo + plan.slab_b).min(n);
            if !b_resident {
                let b_sec = Section::new(vec![DimRange::new(0, lr_b), DimRange::new(b_lo, b_hi)]);
                replay_access(cache, stats, FILE_B, &plan.b, rank, &b_sec, true);
            }
            b_lo = b_hi;
        }

        let c_sec = Section::new(vec![DimRange::new(r_lo, r_hi), DimRange::new(0, c_cols)]);
        replay_access(cache, stats, FILE_C, &plan.c, rank, &c_sec, false);
        r_lo = r_hi;
    }
}

/// A canonical GAXPY plan for `strategy` with the paper's distributions and
/// layouts: A and C column-block (column-major for column slabs, row-major
/// reorganized for row slabs), B row-block column-major. Used by the
/// cache-aware memory splitter to score slab splits without needing the
/// full reorganization pass.
pub fn canonical_gaxpy_plan(
    strategy: SlabStrategy,
    n: usize,
    p: usize,
    slab_a: usize,
    slab_b: usize,
) -> GaxpyPlan {
    let col = Distribution::column_block(Shape::matrix(n, n), p);
    let row = Distribution::row_block(Shape::matrix(n, n), p);
    let layout = match strategy {
        SlabStrategy::ColumnSlab => FileLayout::column_major(2),
        SlabStrategy::RowSlab => FileLayout::row_major(2),
    };
    GaxpyPlan {
        strategy,
        a: ArrayDesc::new(ArrayId(0), "a", ElemKind::F32, col.clone()).with_layout(layout.clone()),
        b: ArrayDesc::new(ArrayId(1), "b", ElemKind::F32, row),
        c: ArrayDesc::new(ArrayId(2), "c", ElemKind::F32, col).with_layout(layout),
        n,
        nprocs: p,
        slab_a,
        slab_b,
        slab_c: slab_a.min(n / p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::totals;

    #[test]
    fn zero_budget_reproduces_the_uncached_nest_exactly() {
        for (strategy, sa, sb) in [
            (SlabStrategy::ColumnSlab, 2, 4),
            (SlabStrategy::ColumnSlab, 3, 5), // ragged
            (SlabStrategy::RowSlab, 4, 4),
            (SlabStrategy::RowSlab, 5, 7), // ragged
        ] {
            let plan = canonical_gaxpy_plan(strategy, 16, 4, sa, sb);
            let uncached = totals(&gaxpy_nest_for(&plan, 0));
            let cached = gaxpy_cached_totals(&plan, 0, 0);
            for name in ["a", "b", "c"] {
                assert_eq!(
                    cached.per_array[name], uncached.per_array[name],
                    "{strategy:?} sa={sa} sb={sb} array {name}"
                );
            }
            assert_eq!(cached.comm_messages, uncached.comm_messages);
            assert_eq!(cached.flops, uncached.flops);
        }
    }

    #[test]
    fn generous_budget_collapses_column_slab_rereads() {
        // Column slabs re-read all of A once per column of C; with a budget
        // holding the whole working set, A is fetched from disk once.
        let plan = canonical_gaxpy_plan(SlabStrategy::ColumnSlab, 16, 4, 2, 4);
        let uncached = totals(&gaxpy_nest_for(&plan, 0));
        let cached = gaxpy_cached_totals(&plan, 0, 1 << 20);
        assert!(
            cached.per_array["a"].read_requests < uncached.per_array["a"].read_requests,
            "cached {} !< uncached {}",
            cached.per_array["a"].read_requests,
            uncached.per_array["a"].read_requests
        );
        // Whole local A is 16x4 elements = 256 bytes: one cold fetch per
        // slab, every revisit a hit.
        assert_eq!(
            cached.per_array["a"].read_requests,
            plan.num_slabs_a() as u64
        );
        assert_eq!(cached.per_array["a"].read_elems, 16 * 4);
        // B is streamed once either way.
        assert_eq!(
            cached.per_array["b"].read_elems,
            uncached.per_array["b"].read_elems
        );
    }

    #[test]
    fn one_extra_slab_of_budget_already_helps_column_gaxpy() {
        // slab_a covering all local columns makes A a single slab that is
        // revisited for every column of C; budget = |A local| + |B slab| + C
        // buffer keeps it resident.
        let n = 16;
        let p = 4;
        let plan = canonical_gaxpy_plan(SlabStrategy::ColumnSlab, n, p, n / p, 4);
        let a_bytes = n * (n / p) * 4;
        let b_bytes = (n / p) * plan.slab_b * 4;
        let c_bytes = n * plan.slab_c * 4;
        let budget = a_bytes + b_bytes + c_bytes;
        let uncached = totals(&gaxpy_nest_for(&plan, 0));
        let cached = gaxpy_cached_totals(&plan, 0, budget);
        assert_eq!(cached.per_array["a"].read_requests, 1, "one cold A fetch");
        assert!(cached.io_requests() < uncached.io_requests());
    }

    #[test]
    fn row_version_write_backs_merge_adjacent_slabs() {
        // Row-major C: consecutive row slabs of all owned columns are *not*
        // byte-adjacent per write (each write is c_cols runs), but the
        // buffered segments merge row-wise; flushing writes the merged
        // extents. With a generous budget the total write-backs can only be
        // <= the uncached write count.
        let plan = canonical_gaxpy_plan(SlabStrategy::RowSlab, 16, 4, 4, 4);
        let uncached = totals(&gaxpy_nest_for(&plan, 0));
        let cached = gaxpy_cached_totals(&plan, 0, 1 << 20);
        assert!(cached.per_array["c"].write_requests <= uncached.per_array["c"].write_requests);
        assert_eq!(
            cached.per_array["c"].write_elems, uncached.per_array["c"].write_elems,
            "every produced element still reaches disk"
        );
    }

    #[test]
    fn requests_are_monotonically_non_increasing_in_budget() {
        let plan = canonical_gaxpy_plan(SlabStrategy::ColumnSlab, 16, 4, 2, 4);
        let mut prev = u64::MAX;
        for budget in [0usize, 256, 1024, 4096, 1 << 20] {
            let t = gaxpy_cached_totals(&plan, 0, budget);
            let req = t.io_requests();
            assert!(
                req <= prev,
                "budget {budget}: {req} requests > previous {prev}"
            );
            prev = req;
        }
    }
}
