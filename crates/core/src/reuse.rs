//! Reuse-aware I/O prediction for cached executions.
//!
//! With a slab cache in the I/O substrate (`pario::SlabCache`), the
//! closed-form request counts in [`crate::nodegen`] no longer describe a
//! cached execution: a read fully covered by cached segments costs nothing,
//! a miss fetches only the spanning gap, and writes are buffered until
//! write-back. Rather than approximating those effects analytically, the
//! estimator drives the executor's own slab walk ([`GaxpyPlan::walk`])
//! through the same cache implementation in predictor mode (no payloads, no
//! backend) and reads the request/byte counts off the cache's per-file
//! counters. Runtime and predictor share one walk and one cache, so
//! estimate == measurement holds by construction — the repo's central
//! invariant, extended to caching.

use ooc_array::{Section, Shape};
use pario::{coalesce_runs_into, ByteRun, DiskStats, ElemKind, IoError, NoCharge, SlabCache};

use crate::ir::{ArrayIoTotals, NestTotals, OverlapTotals};
use crate::nodegen::gaxpy_nest_for;
use crate::plan::{GaxpyOperand, GaxpyPlan, GaxpyVisitor};

/// Synthetic file ids the predictor uses: allocation order in the executor
/// (`alloc(a)`, `alloc(b)`, `alloc(c)` on a fresh environment).
const FILE_A: u64 = 0;
const FILE_B: u64 = 1;
const FILE_C: u64 = 2;

/// The walk's visitor in predictor mode: each section access replayed
/// exactly as `OocEnv::{read,write}_section` issues it on the byte level —
/// the section's byte runs ([`ooc_array::ArrayDesc::section_byte_runs`]),
/// coalesced, then one cache operation per coalesced run in ascending
/// order.
struct Predictor<'p> {
    plan: &'p GaxpyPlan,
    /// The walked rank's local shapes of A, B and C, indexed by file id.
    shapes: [Shape; 3],
    cache: SlabCache,
    stats: DiskStats,
    runs: Vec<ByteRun>,
    /// `runs` coalesced, reused across accesses like `runs`.
    coalesced: Vec<ByteRun>,
    /// Flops of the multiply a prefetched read of A would overlap, and the
    /// overlaps so far: each A read's misses with the multiply before it.
    pending: u64,
    overlaps: Vec<OverlapTotals>,
}

impl Predictor<'_> {
    fn access(&mut self, file: u64, sec: &Section, is_read: bool) -> Result<(), IoError> {
        let desc = [&self.plan.a, &self.plan.b, &self.plan.c][file as usize];
        desc.section_byte_runs(&self.shapes[file as usize], sec, &mut self.runs);
        coalesce_runs_into(self.runs.iter().copied(), &mut self.coalesced);
        let (cache, stats) = (&mut self.cache, &mut self.stats);
        for &run in &self.coalesced {
            if is_read {
                cache.read(file, run, None, None, None, &NoCharge, stats)?;
            } else {
                cache.write(file, run, None, None, None, &NoCharge, stats)?;
            }
        }
        Ok(())
    }
}

impl GaxpyVisitor for Predictor<'_> {
    type Error = IoError;

    fn read(&mut self, operand: GaxpyOperand, sec: &Section) -> Result<(), IoError> {
        let file = match operand {
            GaxpyOperand::A => FILE_A,
            GaxpyOperand::B => FILE_B,
        };
        let before = self.cache.file_counts(file);
        self.access(file, sec, true)?;
        if operand == GaxpyOperand::A && self.plan.prefetches_a() {
            let after = self.cache.file_counts(file);
            if self.pending > 0 {
                self.overlaps.push(OverlapTotals {
                    requests: after.read_requests - before.read_requests,
                    elems: (after.read_bytes - before.read_bytes) / self.plan.a.elem.size() as u64,
                    flops: self.pending,
                    times: 1,
                });
            }
            self.pending = (2 * self.plan.n * sec.range(1).len()) as u64;
        }
        Ok(())
    }

    fn end_column(&mut self, _j: usize) -> Result<(), IoError> {
        // The reduction needs the multiply done: nothing stays pending.
        self.pending = 0;
        Ok(())
    }

    fn write_c(&mut self, sec: &Section) -> Result<(), IoError> {
        self.access(FILE_C, sec, false)
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
/// of `budget` bytes in front of the disk, by walking the executor's slab
/// schedule (including the final charged flush) through a predictor-mode
/// [`SlabCache`]. Communication and flop totals are unaffected by caching
/// and are copied from the symbolic nest.
pub fn gaxpy_cached_totals(plan: &GaxpyPlan, rank: usize, budget: usize) -> NestTotals {
    let base = crate::ir::totals(&gaxpy_nest_for(plan, rank));
    let mut p = Predictor {
        plan,
        shapes: [&plan.a, &plan.b, &plan.c].map(|d| d.local_shape(rank)),
        cache: SlabCache::predictor(budget),
        stats: DiskStats::default(),
        runs: Vec::new(),
        coalesced: Vec::new(),
        pending: 0,
        overlaps: Vec::new(),
    };
    plan.walk(rank, None, &mut p)
        .and_then(|()| p.cache.flush(None, None, &NoCharge, &mut p.stats))
        .expect("a predictor cache has no backend to fail");

    let mut t = NestTotals {
        comm_messages: base.comm_messages,
        comm_bytes: base.comm_bytes,
        flops: base.flops,
        overlaps: p.overlaps,
        ..NestTotals::default()
    };
    for (file, desc) in [(FILE_A, &plan.a), (FILE_B, &plan.b), (FILE_C, &plan.c)] {
        t.per_array
            .insert(desc.name.clone(), array_totals(&p.cache, file, desc.elem));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::totals;
    use crate::plan::SlabStrategy;

    #[test]
    fn zero_budget_reproduces_the_uncached_nest_exactly() {
        for (strategy, sa, sb) in [
            (SlabStrategy::ColumnSlab, 2, 4),
            (SlabStrategy::ColumnSlab, 3, 5), // ragged
            (SlabStrategy::RowSlab, 4, 4),
            (SlabStrategy::RowSlab, 5, 7), // ragged
        ] {
            let plan = GaxpyPlan::new(strategy, 16, 4, sa, sb);
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
        let plan = GaxpyPlan::new(SlabStrategy::ColumnSlab, 16, 4, 2, 4);
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
        let plan = GaxpyPlan::new(SlabStrategy::ColumnSlab, n, p, n / p, 4);
        let a_bytes = n * (n / p) * 4;
        let b_bytes = (n / p) * plan.slab_b * 4;
        let c_bytes = n * plan.slab_a * 4;
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
        let plan = GaxpyPlan::new(SlabStrategy::RowSlab, 16, 4, 4, 4);
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
        let plan = GaxpyPlan::new(SlabStrategy::ColumnSlab, 16, 4, 2, 4);
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
