//! Executable plans: the compiler's output.
//!
//! An [`ExecPlan`] carries every decision the out-of-core phase made — slab
//! orientation, slab thicknesses, file layouts, ghost widths — in a form the
//! executor (`noderun`) interprets directly. Each plan also knows how to
//! describe itself as a symbolic loop nest ([`crate::ir::NestNode`], built in
//! [`crate::nodegen`]) which is what the cost estimator analyzes and the
//! pretty printer renders.

use serde::{Deserialize, Serialize};

use ooc_array::{
    local_section_of_global, ArrayDesc, ArrayId, DimDist, DimRange, Distribution, RemapStage,
    RemapStages, Section, Shape, SlabPlan,
};
use pario::ElemKind;

use crate::hir::ElwExpr;

/// Slab orientation for the GAXPY translation — the choice at the heart of
/// the paper's §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SlabStrategy {
    /// Figure 9: stripmine A along its columns; the straightforward
    /// extension of in-core compilation. A streams from disk once per
    /// column of C.
    ColumnSlab,
    /// Figure 12: reorganize A (and C) row-major on disk and stripmine A
    /// along rows; A streams from disk exactly once.
    RowSlab,
}

impl SlabStrategy {
    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            SlabStrategy::ColumnSlab => "column slab",
            SlabStrategy::RowSlab => "row slab",
        }
    }
}

/// Fully parameterized out-of-core GAXPY matrix multiplication.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaxpyPlan {
    /// Chosen slab orientation.
    pub strategy: SlabStrategy,
    /// A — column-block distributed; layout column-major for
    /// [`SlabStrategy::ColumnSlab`], row-major (reorganized) for
    /// [`SlabStrategy::RowSlab`].
    pub a: ArrayDesc,
    /// B — row-block distributed, always column-major (its column slabs are
    /// contiguous either way).
    pub b: ArrayDesc,
    /// C — column-block distributed; layout follows A's.
    pub c: ArrayDesc,
    /// Matrix order.
    pub n: usize,
    /// Processors.
    pub nprocs: usize,
    /// Slab thickness of A along its slab dimension: columns of the OCLA
    /// for the column version, rows for the row version.
    pub slab_a: usize,
    /// Columns of B's OCLA per slab.
    pub slab_b: usize,
    /// Access method of every slab read and every write of C: `Direct`
    /// unless [`crate::CompilerOptions::io_method`] forces one. The
    /// executor passes its [`pario::IoMethod::sieve_policy`] to each access
    /// and the estimator tallies each access under the same policy.
    pub method: pario::IoMethod,
    /// Overlap each fetch of A with the multiply of the slab before it
    /// ([`crate::CompilerOptions::prefetch`]); see
    /// [`GaxpyPlan::prefetches_a`].
    pub prefetch: bool,
}

impl GaxpyPlan {
    /// The paper's GAXPY on `p` processors: arrays `a`, `b`, `c` (ids 0, 1,
    /// 2), A and C `(*, block)`, B `(block, *)`, stored as
    /// [`crate::reorg::desired_layouts`] wants for `strategy`.
    pub fn new(strategy: SlabStrategy, n: usize, p: usize, slab_a: usize, slab_b: usize) -> Self {
        let shape = Shape::matrix(n, n);
        let col = Distribution::column_block(shape.clone(), p);
        let row = Distribution::row_block(shape, p);
        let (la, lb, lc) = crate::reorg::desired_layouts(strategy);
        let desc = |id, name: &str, dist, layout| {
            ArrayDesc::new(ArrayId(id), name, ElemKind::F32, dist).with_layout(layout)
        };
        GaxpyPlan {
            strategy,
            a: desc(0, "a", col.clone(), la),
            b: desc(1, "b", row, lb),
            c: desc(2, "c", col, lc),
            n,
            nprocs: p,
            slab_a,
            slab_b,
            method: pario::IoMethod::Direct,
            prefetch: false,
        }
    }

    /// True when A's slab fetches overlap the multiply of the slab before
    /// them, so A's slab is held twice. Only the column version overlaps:
    /// there, a column's A slabs stream back to back. In the row version
    /// every column's partial product is reduced before the next read, so
    /// nothing is left to overlap and prefetch changes nothing.
    pub fn prefetches_a(&self) -> bool {
        crate::memory::a_slab_buffers(self.strategy, self.prefetch) > 1
    }

    /// Local columns per processor (`n / p`, block distribution).
    pub fn local_cols(&self) -> usize {
        self.n.div_ceil(self.nprocs)
    }

    /// Number of slabs of A per processor.
    pub fn num_slabs_a(&self) -> usize {
        let extent = match self.strategy {
            SlabStrategy::ColumnSlab => self.local_cols(),
            SlabStrategy::RowSlab => self.n,
        };
        extent.div_ceil(self.slab_a)
    }

    /// Elements of one A slab.
    pub fn slab_a_elems(&self) -> usize {
        match self.strategy {
            SlabStrategy::ColumnSlab => self.n * self.slab_a,
            SlabStrategy::RowSlab => self.slab_a * self.local_cols(),
        }
    }

    /// Elements of one B slab.
    pub fn slab_b_elems(&self) -> usize {
        self.local_cols() * self.slab_b
    }

    /// Peak in-core elements the plan needs (the A slab, held twice when
    /// prefetched, the B slab, the temporary and the C buffer) — what the
    /// memory allocator budgets. The column version buffers as many columns
    /// of C as an A slab holds; the row version one row slab of C.
    pub fn memory_elems(&self) -> usize {
        let temp = match self.strategy {
            SlabStrategy::ColumnSlab => self.n,
            SlabStrategy::RowSlab => self.slab_a,
        };
        let cbuf = match self.strategy {
            SlabStrategy::ColumnSlab => self.n * self.slab_a,
            SlabStrategy::RowSlab => self.slab_a * self.local_cols(),
        };
        let a_buffers = crate::memory::a_slab_buffers(self.strategy, self.prefetch);
        a_buffers * self.slab_a_elems() + self.slab_b_elems() + temp + cbuf
    }

    /// Walk `rank`'s node program — Figure 9 for column slabs, Figure 12
    /// for row slabs — handing every section access to `v` in program
    /// order. This is the one place that decides which section is read or
    /// written, and when: slab ranges with their ragged tails, the hoisted
    /// read of a resident B, the column version's C flush cadence, the
    /// restart watermark, and the one-time degraded-disk re-plan. The
    /// executor (`noderun::gaxpy`) and the reuse predictor
    /// ([`crate::reuse::gaxpy_cached_totals`]) are both visitors of it.
    ///
    /// `checkpoint` is the restart watermark of a checkpointed run: a
    /// global column (column version) or row (row version) below which
    /// every rank's C is already on disk. A checkpointed walk starts there
    /// and calls [`GaxpyVisitor::checkpoint`] after every outer slab.
    pub fn walk<V: GaxpyVisitor>(
        &self,
        rank: usize,
        checkpoint: Option<usize>,
        v: &mut V,
    ) -> Result<(), V::Error> {
        match self.strategy {
            SlabStrategy::ColumnSlab => self.walk_columns(rank, checkpoint, v),
            SlabStrategy::RowSlab => self.walk_rows(rank, checkpoint, v),
        }
    }

    /// Figure 9: outer slabs of B; per column of C, every slab of A; the
    /// owner buffers its columns of C and writes them `slab_a` at a time.
    fn walk_columns<V: GaxpyVisitor>(
        &self,
        rank: usize,
        checkpoint: Option<usize>,
        v: &mut V,
    ) -> Result<(), V::Error> {
        let n = self.n;
        let lc_a = self.a.local_shape(rank).extent(1);
        let lr_b = self.b.local_shape(rank).extent(0);
        // Local columns `lo..hi` of A or C (both hold all n rows).
        let cols = |lo, hi| Section::new(vec![DimRange::new(0, n), DimRange::new(lo, hi)]);
        let owner = |j: usize| self.c.dist.owner(&[0, j]);
        // Local columns of C: those this rank owns below the watermark are
        // on disk already; `flushed..produced` are buffered.
        let start = checkpoint.unwrap_or(0);
        let done = (0..start).filter(|&j| owner(j) == rank).count();
        let (mut flushed, mut produced) = (done, done);
        // Both thicknesses may shrink under a degraded-disk re-plan: the
        // reduce sequence is one reduce per global column in ascending
        // order, whatever the slabbing. The C buffer keeps the planned size.
        let (mut slab_a, mut slab_b, mut replanned) = (self.slab_a, self.slab_b, false);
        // One A section, re-ranged for every read: A streams once per
        // column of C, so its reads must not allocate.
        let mut a_sec = cols(0, 0);
        let (mut idx, mut b_lo) = (0, start);
        while b_lo < n {
            v.begin_slab(idx);
            let b_hi = (b_lo + slab_b).min(n);
            let b_sec = Section::new(vec![DimRange::new(0, lr_b), DimRange::new(b_lo, b_hi)]);
            v.read(GaxpyOperand::B, &b_sec)?;
            for j in b_lo..b_hi {
                v.begin_column(j);
                for (a_lo, a_hi) in slabs(0, lc_a, slab_a) {
                    a_sec = a_sec.with_range(1, DimRange::new(a_lo, a_hi));
                    v.read(GaxpyOperand::A, &a_sec)?;
                }
                v.end_column(j)?;
                if owner(j) == rank {
                    produced += 1;
                    if produced - flushed == self.slab_a {
                        v.write_c(&cols(flushed, produced))?;
                        flushed = produced;
                    }
                }
            }
            if checkpoint.is_some() {
                // Every finished column reaches disk before the checkpoint.
                let pending = (produced > flushed).then(|| cols(flushed, produced));
                flushed = produced;
                v.checkpoint(b_hi, pending.as_ref())?;
            }
            if !replanned {
                if let Some((a, b)) = v.replan() {
                    (slab_a, slab_b, replanned) = (a, b, true);
                }
            }
            v.end_slab();
            (idx, b_lo) = (idx + 1, b_hi);
        }
        if produced > flushed {
            v.write_c(&cols(flushed, produced))?;
        }
        debug_assert_eq!(
            produced,
            self.c.local_shape(rank).extent(1),
            "every owned column"
        );
        Ok(())
    }

    /// Figure 12: outer slabs of A's rows; per slab, every slab of B
    /// (or the resident B) and every column of C; the row slab of C's
    /// owned columns is written once per A slab.
    fn walk_rows<V: GaxpyVisitor>(
        &self,
        rank: usize,
        checkpoint: Option<usize>,
        v: &mut V,
    ) -> Result<(), V::Error> {
        let n = self.n;
        let lc = self.a.local_shape(rank).extent(1);
        let lr_b = self.b.local_shape(rank).extent(0);
        let lc_c = self.c.local_shape(rank).extent(1);
        // One section per operand, re-ranged for every access: B streams
        // once per row slab of A, so its reads must not allocate.
        let mut b_sec = Section::new(vec![DimRange::new(0, lr_b), DimRange::new(0, n)]);
        let mut a_sec = Section::new(vec![DimRange::new(0, 0), DimRange::new(0, lc)]);
        let mut c_sec = Section::new(vec![DimRange::new(0, 0), DimRange::new(0, lc_c)]);
        // Loop-invariant I/O motion: a B ICLA covering the whole OCLA is
        // read once, before the A-slab loop, and stays resident.
        let b_resident = self.slab_b >= n;
        if b_resident {
            v.read(GaxpyOperand::B, &b_sec)?;
        }
        // The row-slab height is part of the reduce sequence (one reduce
        // per row slab and column), so every rank's watermark lies on a
        // shared `slab_a` boundary, and a re-plan may change only B's
        // thickness: ranks that degrade at different times stay in step.
        let (mut slab_b, mut replanned) = (self.slab_b, false);
        for (idx, (r_lo, r_hi)) in (0..).zip(slabs(checkpoint.unwrap_or(0), n, self.slab_a)) {
            v.begin_slab(idx);
            a_sec = a_sec.with_range(0, DimRange::new(r_lo, r_hi));
            v.read(GaxpyOperand::A, &a_sec)?;
            for (b_lo, b_hi) in slabs(0, n, slab_b) {
                if !b_resident {
                    b_sec = b_sec.with_range(1, DimRange::new(b_lo, b_hi));
                    v.read(GaxpyOperand::B, &b_sec)?;
                }
                for j in b_lo..b_hi {
                    v.begin_column(j);
                    v.end_column(j)?;
                }
            }
            c_sec = c_sec.with_range(0, DimRange::new(r_lo, r_hi));
            v.write_c(&c_sec)?;
            if checkpoint.is_some() {
                v.checkpoint(r_hi, None)?;
            }
            if !replanned {
                if let Some((_, b)) = v.replan() {
                    (slab_b, replanned) = (b, true);
                }
            }
            v.end_slab();
        }
        Ok(())
    }
}

/// `[lo, hi)` cut into consecutive slabs of `thickness`, the last one
/// ragged.
fn slabs(lo: usize, hi: usize, thickness: usize) -> impl Iterator<Item = (usize, usize)> {
    (lo..hi)
        .step_by(thickness)
        .map(move |s| (s, (s + thickness).min(hi)))
}

/// The array a GAXPY read fetches a section of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaxpyOperand {
    /// The matrix A.
    A,
    /// The matrix B.
    B,
}

/// What one rank's GAXPY node program does, one event at a time, as
/// [`GaxpyPlan::walk`] issues it. Sections are of the rank's local arrays.
/// Only the reads and the writes of C are required; the other events
/// default to nothing beyond writing a checkpoint's pending columns.
pub trait GaxpyVisitor {
    /// Why an event failed; the walk stops at the first failure.
    type Error;

    /// Outer slab `idx` (of B in the column version, of A's rows in the
    /// row version) begins.
    fn begin_slab(&mut self, _idx: u64) {}

    /// Read `sec` of A or B.
    fn read(&mut self, operand: GaxpyOperand, sec: &Section) -> Result<(), Self::Error>;

    /// Work on global column `j` of C begins. The column version's reads
    /// of A for it follow; the row version reads nothing inside a column.
    fn begin_column(&mut self, _j: usize) {}

    /// Column `j` (of the current row slab, in the row version) is
    /// complete on this rank and is reduced to the rank that owns column
    /// `j` of C.
    fn end_column(&mut self, _j: usize) -> Result<(), Self::Error> {
        Ok(())
    }

    /// Write `sec` of C from the buffered columns.
    fn write_c(&mut self, sec: &Section) -> Result<(), Self::Error>;

    /// A checkpointed walk finished an outer slab: write `flush` (the
    /// buffered columns of C, when there are any), then persist C with
    /// `watermark`.
    fn checkpoint(
        &mut self,
        _watermark: usize,
        flush: Option<&Section>,
    ) -> Result<(), Self::Error> {
        flush.map_or(Ok(()), |sec| self.write_c(sec))
    }

    /// New `(slab_a, slab_b)` thicknesses for the outer slabs still to
    /// come, asked after each outer slab until one is returned.
    fn replan(&mut self) -> Option<(usize, usize)> {
        None
    }

    /// The outer slab begun last ends.
    fn end_slab(&mut self) {}
}

/// Ghost-cell exchange requirement along one dimension (from communication
/// analysis of an elementwise statement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GhostSpec {
    /// Array dimension the exchange runs along (the distributed one).
    pub dim: usize,
    /// Strip width received from the lower neighbor.
    pub lo_width: usize,
    /// Strip width received from the upper neighbor.
    pub hi_width: usize,
}

/// A distribution remap the executor performs before an elementwise
/// statement: `src` (the declared array) is redistributed into `tmp`
/// (same name, fresh id, the lhs's distribution) so the statement's
/// owner-computes translation applies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RemapSpec {
    /// The declared array in its original distribution.
    pub src: ArrayDesc,
    /// The temporary, distributed like the statement's lhs.
    pub tmp: ArrayDesc,
    /// Access method servicing the redistribution (cost-selected by the
    /// compiler unless [`crate::CompilerOptions::io_method`] forces one).
    pub method: pario::IoMethod,
}

/// Stripmined elementwise forall.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ElwPlan {
    /// Redistributions inserted before the statement (mixed-distribution
    /// right-hand sides).
    pub pre_remaps: Vec<RemapSpec>,
    /// Assigned array descriptor.
    pub lhs: ArrayDesc,
    /// Right-hand side arrays in reference order (deduplicated).
    pub rhs_arrays: Vec<ArrayDesc>,
    /// The expression over those arrays.
    pub expr: ElwExpr,
    /// Global iteration region (lhs index space).
    pub region: Section,
    /// Dimension the local iteration space is stripmined along.
    pub slab_dim: usize,
    /// Slab thickness along `slab_dim`.
    pub slab_thickness: usize,
    /// Ghost exchanges needed before the slab loop (empty when no shift
    /// crosses a processor boundary).
    pub ghosts: Vec<GhostSpec>,
    /// Flops evaluated per point.
    pub flops_per_point: u64,
    /// Access method of every ghost-strip read, stage read and stage
    /// write: `Direct` unless [`crate::CompilerOptions::io_method`] forces
    /// one (the pre-statement remaps choose their own).
    pub method: pario::IoMethod,
    /// Overlap each stage's reads with the previous stage's computation,
    /// holding a second input buffer per rhs array
    /// ([`crate::CompilerOptions::prefetch`]).
    pub prefetch: bool,
}

/// One ghost-strip message of an elementwise statement's exchange.
#[derive(Debug, Clone, PartialEq)]
pub struct GhostStrip {
    /// This rank reads the strip and sends it; otherwise it receives it.
    pub send: bool,
    /// The rhs array the strip is of, as an index into
    /// [`ElwPlan::rhs_arrays`].
    pub array: usize,
    /// The rank on the other end of the message.
    pub peer: usize,
    /// A sent strip's section of this rank's local array, or the section of
    /// the [`ElwSchedule::halo`] space a received strip fills.
    pub section: Section,
}

/// One stage of an elementwise statement, in the rank's local index space.
#[derive(Debug, Clone, PartialEq)]
pub struct ElwStage {
    /// The section of the lhs the stage computes and writes.
    pub out: Section,
    /// The section the stage reads from every rhs array: `out` widened by
    /// [`ElwExpr::widen`] within the local shape.
    pub input: Section,
}

/// One rank's side of an elementwise statement: its ghost exchange, then
/// its stages in order. The executor (`noderun::elementwise`) runs it and
/// [`crate::nodegen::elw_nest`] prices every stage of it.
#[derive(Debug, Clone, PartialEq)]
pub struct ElwSchedule {
    /// The local shape extended along the ghost dimension by the strips
    /// the rank receives: the lower strip sits below local index 0, the
    /// upper one past the local extent.
    pub halo: Shape,
    /// Where local index 0 sits in the halo space, per dimension.
    pub pad: Vec<usize>,
    /// The exchange in order: per rhs array, the strips the rank sends,
    /// then those it receives, lower neighbour first.
    pub strips: Vec<GhostStrip>,
    /// The stages in order.
    pub stages: Vec<ElwStage>,
}

/// The stage and ghost geometry of an elementwise statement.
impl ElwPlan {
    /// Stripmine along `dim` in the thickest slabs that keep each array's
    /// slab within an equal share of `elems` (at least one index thick), as
    /// rank 0's local shape sizes them.
    pub fn stripmine(&mut self, dim: usize, elems: usize) {
        let per_array = (elems / (1 + self.rhs_arrays.len())).max(1);
        let sized = SlabPlan::from_memory(self.lhs.local_shape(0), dim, per_array);
        (self.slab_dim, self.slab_thickness) = (dim, sized.thickness());
    }

    /// `rank`'s schedule: the one place the local iteration space is cut
    /// into stages of `slab_thickness` along `slab_dim` and each stage's
    /// input is widened. A rank sends its strips whether or not it
    /// computes anything itself.
    pub fn schedule(&self, rank: usize) -> ElwSchedule {
        // Compiled statements exchange along at most one dimension
        // (`crate::comm::analyze_elw`).
        assert!(
            self.ghosts.len() <= 1,
            "ghost exchange runs along one dimension"
        );
        let local = self.lhs.local_shape(rank);
        let (mut halo, mut pad) = (local.clone(), vec![0; local.ndims()]);
        let mut strips = Vec::new();
        if let Some(g) = self.ghosts.first() {
            // Toward its lower neighbour (side 0) a rank sends its lowest
            // `hi_width` indices along `g.dim`, which are that neighbour's
            // upper ghosts; toward its upper one (side 1) its highest
            // `lo_width`. A rank with no neighbour on a side, or a zero
            // width, sends nothing there.
            let widths = [g.hi_width, g.lo_width];
            let strip = |side: usize, ext: usize| {
                let w = widths[side].min(ext);
                [DimRange::new(0, w), DimRange::new(ext - w, ext)][side]
            };
            let nbs = self.neighbours(g, rank);
            let peer = |side: usize, toward: usize| nbs[side].filter(|_| widths[toward] > 0);
            // The lower neighbour's strip lands below local index 0, the
            // upper neighbour's past the local extent.
            let recvs = [0, 1].map(|side| {
                let (nb, nb_ext) = peer(side, 1 - side)?;
                Some((nb, strip(1 - side, nb_ext).len()))
            });
            let width = |side: usize| recvs[side].map_or(0, |(_, w)| w);
            let ext = local.extent(g.dim);
            // The halo space differs from the local one along `g.dim` only.
            let wide = |d| (d == g.dim).then(|| width(0) + ext + width(1));
            halo = (0..local.ndims())
                .map(|d| wide(d).unwrap_or(local.extent(d)))
                .collect();
            pad[g.dim] = width(0);
            let at = |r: DimRange| Section::full(&local).with_range(g.dim, r);
            let sent = [0, 1].map(|side| Some((true, peer(side, side)?.0, at(strip(side, ext)))));
            let received = [0, 1].map(|side| {
                let ((nb, w), lo) = (recvs[side]?, [0, width(0) + ext][side]);
                Some((false, nb, at(DimRange::new(lo, lo + w))))
            });
            let moves = || sent.iter().chain(&received).flatten();
            strips = (0..self.rhs_arrays.len())
                .flat_map(|array| {
                    moves().map(move |(send, peer, section)| GhostStrip {
                        send: *send,
                        array,
                        peer: *peer,
                        section: section.clone(),
                    })
                })
                .collect();
        }
        // Owner computes: the rank runs the part of the region it stores.
        let region = local_section_of_global(&self.lhs.dist, rank, &self.region);
        let stages = region.map_or(Vec::new(), |region| {
            let r = region.range(self.slab_dim);
            slabs(r.lo, r.hi, self.slab_thickness.max(1))
                .map(|(lo, hi)| {
                    let out = (region.clone()).with_range(self.slab_dim, DimRange::new(lo, hi));
                    let input = self.expr.widen(&out, &local);
                    ElwStage { out, input }
                })
                .collect()
        });
        ElwSchedule {
            halo,
            pad,
            strips,
            stages,
        }
    }

    /// The ranks adjacent to `rank` along the processor axis of `g.dim`,
    /// lower first, each with its local extent along `g.dim`.
    fn neighbours(&self, g: &GhostSpec, rank: usize) -> [Option<(usize, usize)>; 2] {
        let DimDist::Distributed { axis, .. } = self.lhs.dist.dims()[g.dim] else {
            return [None, None];
        };
        let grid = self.lhs.dist.grid();
        let (c, step) = (grid.coord(rank, axis), grid.stride(axis));
        [
            c.checked_sub(1),
            Some(c + 1).filter(|&u| u < grid.extent(axis)),
        ]
        .map(|nb| {
            let nb = nb?;
            let extent = self.lhs.dist.local_extent(g.dim, nb);
            Some((rank + nb * step - c * step, extent))
        })
    }
}

/// Out-of-core transpose `dst = srcᵀ` via slab-wise all-to-all remap.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransposePlan {
    /// Source descriptor.
    pub src: ArrayDesc,
    /// Destination descriptor.
    pub dst: ArrayDesc,
    /// Slab thickness along the source's stripmined dimension (its slowest
    /// layout dimension, so reads are contiguous).
    pub slab_thickness: usize,
    /// Access method servicing the remap's file traffic (cost-selected by
    /// the compiler unless [`crate::CompilerOptions::io_method`] forces
    /// one).
    pub method: pario::IoMethod,
}

/// The stage and piece geometry of a transpose: the stage stream the remap
/// executor runs and the compiler prices.
impl RemapStages for TransposePlan {
    fn src(&self) -> &ArrayDesc {
        &self.src
    }

    fn dst(&self) -> &ArrayDesc {
        &self.dst
    }

    fn transposes(&self) -> bool {
        true
    }

    /// Every rank's source is cut into slabs along the source's slowest
    /// layout dimension, so each slab read is one contiguous request, and
    /// every rank runs as many stages as the rank with the most slabs, so
    /// the exchange stays symmetric. Stage `s` reads the rank's `s`-th
    /// slab, if it has one, as its one read and its two-phase union, and
    /// sends each destination rank its piece: the part of the slab's
    /// transpose that rank owns. A piece's source section read in row-major
    /// order is the destination piece in column-major order. The empty
    /// slabs of a rank that owns nothing have no pieces.
    fn for_each_stage<E>(
        &self,
        rank: usize,
        mut f: impl FnMut(RemapStage<'_>) -> Result<(), E>,
    ) -> Result<(), E> {
        let p = self.src.dist.nprocs();
        let (dim, thickness) = (self.src.layout.slowest_dim(), self.slab_thickness.max(1));
        // Block and collapsed dimensions own one contiguous global range,
        // so a local index is the global one less the owner's lower corner.
        // Every rank's ranges, once: each stage pairs this rank with all.
        let owned = |desc: &ArrayDesc| -> Vec<[DimRange; 2]> {
            (0..p)
                .map(|r| {
                    [0, 1].map(|d| {
                        let coord = desc.dist.dim_coord(d, r);
                        desc.dist
                            .owned_range(d, coord)
                            .expect("regular distribution")
                    })
                })
                .collect()
        };
        let (src_owned, dst_owned) = (owned(&self.src), owned(&self.dst));
        let slab_of = |q: usize, s: usize| {
            let mut slab = src_owned[q].map(|r| DimRange::full(r.len()));
            let (lo, extent) = (s * thickness, slab[dim].hi);
            (lo < extent).then(|| {
                slab[dim] = DimRange::new(lo, (lo + thickness).min(extent));
                slab
            })
        };
        let stages = (src_owned.iter())
            .map(|o| o[dim].len().div_ceil(thickness))
            .max()
            .unwrap_or(0);
        // The piece of rank `q`'s slab that rank `j` receives, as global
        // destination ranges: the slab's transpose intersected with what
        // `j` owns.
        let piece = |q: usize, slab: &[DimRange; 2], j: usize| {
            let (o, d) = (src_owned[q], dst_owned[j]);
            let global = |k: usize| DimRange::new(o[k].lo + slab[k].lo, o[k].lo + slab[k].hi);
            Some([global(1).intersect(&d[0])?, global(0).intersect(&d[1])?])
        };
        let local = |global: [DimRange; 2], o: [DimRange; 2]| {
            Section::new(
                [0, 1].map(|k| DimRange::new(global[k].lo - o[k].lo, global[k].hi - o[k].lo)),
            )
        };
        let (src_mine, dst_mine) = (src_owned[rank], dst_owned[rank]);
        let (mut sends, mut recv) = (Vec::with_capacity(p), Vec::with_capacity(p));
        for s in 0..stages {
            let slab = slab_of(rank, s);
            sends.clear();
            if let Some(slab) = &slab {
                sends.extend((0..p).filter_map(|j| {
                    let [d0, d1] = piece(rank, slab, j)?;
                    Some((j, local([d1, d0], src_mine)))
                }));
            }
            recv.clear();
            recv.extend((0..p).map(|q| Some(local(piece(q, &slab_of(q, s)?, rank)?, dst_mine))));
            let read = slab.map(|slab| (Section::new(slab), sends.len()));
            f(RemapStage {
                union: read.as_ref().map(|(slab, _)| slab),
                reads: read.as_slice(),
                sends: &sends,
                recv: &recv,
            })?;
        }
        Ok(())
    }
}

/// Out-of-core CSR SpMV `y = A·x`, where the `x(colidx(k))` gather runs
/// through the inspector–executor subsystem ([`ooc_array::irreg`]): the
/// inspector reads the indirection array once and caches an
/// [`ooc_array::IrregSchedule`]; the executor drives the schedule through
/// the chosen access method every iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpmvPlan {
    /// Result vector (block distributed, length `n`).
    pub y: ArrayDesc,
    /// CSR row pointers (block distributed, length `n + 1`).
    pub rowptr: ArrayDesc,
    /// CSR column indices — the indirection array (block, length `nnz`).
    pub colidx: ArrayDesc,
    /// CSR stored values (block distributed, length `nnz`).
    pub vals: ArrayDesc,
    /// Gathered vector (block distributed, length `n`).
    pub x: ArrayDesc,
    /// Matrix order.
    pub n: usize,
    /// Stored nonzeros.
    pub nnz: usize,
    /// Processors.
    pub nprocs: usize,
    /// Access method for the executor's gather of `x`, cost-selected over
    /// the compiler's scattered-index statistics
    /// ([`crate::irreg::scattered_stats`]). The runtime re-selects from the
    /// inspected schedule's real, allreduced statistics unless overridden.
    pub method: pario::IoMethod,
    /// The earlier statement (0-based) whose inspected schedule this one
    /// gathers through instead of inspecting again: the hoisted inspector.
    /// The compiler sets it only when the two statements gather the same
    /// `x` through the same `colidx` and no statement between them assigns
    /// `colidx` ([`crate::pipeline::compile_hir`]).
    pub reuses: Option<usize>,
}

/// One compiled statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExecPlan {
    /// GAXPY matrix multiplication.
    Gaxpy(GaxpyPlan),
    /// Elementwise forall.
    Elementwise(ElwPlan),
    /// Transpose.
    Transpose(TransposePlan),
    /// CSR sparse matrix–vector product (irregular gather). Boxed: the
    /// five descriptors make this variant far larger than the others.
    Spmv(Box<SpmvPlan>),
}

impl ExecPlan {
    /// The array the statement assigns.
    pub(crate) fn target(&self) -> &ArrayDesc {
        match self {
            ExecPlan::Gaxpy(g) => &g.c,
            ExecPlan::Elementwise(e) => &e.lhs,
            ExecPlan::Transpose(t) => &t.dst,
            ExecPlan::Spmv(s) => &s.y,
        }
    }

    /// Every array descriptor the plan touches (for allocation).
    pub fn arrays(&self) -> Vec<&ArrayDesc> {
        match self {
            ExecPlan::Gaxpy(g) => vec![&g.a, &g.b, &g.c],
            ExecPlan::Elementwise(e) => {
                let mut v = vec![&e.lhs];
                v.extend(e.rhs_arrays.iter());
                for r in &e.pre_remaps {
                    v.push(&r.src);
                    v.push(&r.tmp);
                }
                v
            }
            ExecPlan::Transpose(t) => vec![&t.src, &t.dst],
            ExecPlan::Spmv(s) => vec![&s.y, &s.rowptr, &s.colidx, &s.vals, &s.x],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(strategy: SlabStrategy, n: usize, p: usize, sa: usize, sb: usize) -> GaxpyPlan {
        GaxpyPlan::new(strategy, n, p, sa, sb)
    }

    #[test]
    fn column_version_slab_counts() {
        // 1K arrays, 4 procs, slab ratio 1/4: A OCLA 1024x256, 64-col slabs.
        let g = plan(SlabStrategy::ColumnSlab, 1024, 4, 64, 64);
        assert_eq!(g.local_cols(), 256);
        assert_eq!(g.num_slabs_a(), 4);
        assert_eq!(g.slab_a_elems(), 1024 * 64);
    }

    #[test]
    fn row_version_slab_counts() {
        // Row slabs cut the full 1024 rows.
        let g = plan(SlabStrategy::RowSlab, 1024, 4, 128, 64);
        assert_eq!(g.num_slabs_a(), 8);
        assert_eq!(g.slab_a_elems(), 128 * 256);
    }

    #[test]
    fn memory_accounting_is_sum_of_buffers() {
        let g = plan(SlabStrategy::ColumnSlab, 64, 4, 4, 8);
        // A slab 64*4 + B slab 16*8 + temp 64 + C buffer of slab_a columns.
        assert_eq!(g.memory_elems(), 64 * 4 + 16 * 8 + 64 + 64 * 4);
    }

    #[test]
    fn a_prefetched_column_version_holds_a_second_a_slab() {
        for strategy in [SlabStrategy::ColumnSlab, SlabStrategy::RowSlab] {
            let g = plan(strategy, 64, 4, 4, 8);
            let prefetched = GaxpyPlan {
                prefetch: true,
                ..g.clone()
            };
            let second = match strategy {
                SlabStrategy::ColumnSlab => g.slab_a_elems(),
                SlabStrategy::RowSlab => 0,
            };
            assert_eq!(prefetched.memory_elems(), g.memory_elems() + second);
            assert_eq!(prefetched.prefetches_a(), second > 0);
        }
    }

    #[test]
    fn exec_plan_lists_arrays() {
        let g = plan(SlabStrategy::RowSlab, 64, 4, 8, 8);
        let p = ExecPlan::Gaxpy(g);
        let names: Vec<&str> = p.arrays().iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }
}
