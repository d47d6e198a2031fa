//! Executable plans: the compiler's output.
//!
//! An [`ExecPlan`] carries every decision the out-of-core phase made — slab
//! orientation, slab thicknesses, file layouts, ghost widths — in a form the
//! executor (`noderun`) interprets directly. Each plan also knows how to
//! describe itself as a symbolic loop nest ([`crate::ir::NestNode`], built in
//! [`crate::nodegen`]) which is what the cost estimator analyzes and the
//! pretty printer renders.

use serde::{Deserialize, Serialize};

use ooc_array::{global_section_of_local, ArrayDesc, DimDist, DimRange, Section, Shape, SlabPlan};

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
    /// Columns of C buffered per write in the column version (the row
    /// version writes one row slab of C per A slab).
    pub slab_c: usize,
}

impl GaxpyPlan {
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

    /// Number of slabs of B per processor.
    pub fn num_slabs_b(&self) -> usize {
        self.n.div_ceil(self.slab_b)
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

    /// Peak in-core elements the plan needs (A slab + B slab + temporary +
    /// C buffer) — what the memory allocator budgets.
    pub fn memory_elems(&self) -> usize {
        let temp = match self.strategy {
            SlabStrategy::ColumnSlab => self.n,
            SlabStrategy::RowSlab => self.slab_a,
        };
        let cbuf = match self.strategy {
            SlabStrategy::ColumnSlab => self.n * self.slab_c,
            SlabStrategy::RowSlab => self.slab_a * self.local_cols(),
        };
        self.slab_a_elems() + self.slab_b_elems() + temp + cbuf
    }

    /// The paper's slab ratio for A: slab elements / OCLA elements.
    pub fn slab_ratio_a(&self) -> f64 {
        self.slab_a_elems() as f64 / (self.n * self.local_cols()) as f64
    }
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
    /// compiler, overridable at run time).
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
}

/// A ghost strip and the rank on the other end of its message: lower
/// neighbour first, then upper, along the ghost's processor axis.
pub type GhostStrips = [Option<(usize, Section)>; 2];

/// The stage and ghost geometry of an elementwise statement, shared by the
/// executor and the compiler's estimate ([`crate::nodegen::elw_nest`]).
impl ElwPlan {
    /// The input section of the stage that computes `out`: `out` widened by
    /// the expression's largest shift in every dimension
    /// ([`ElwExpr::max_shift`]) and clamped to `[0, extent)` of `bounds`.
    /// Under a rank's local shape this is the section the stage reads from
    /// disk.
    pub fn stage_input(&self, out: &Section, bounds: &Shape) -> Section {
        let ranges: Vec<DimRange> = (out.ranges().iter().zip(self.expr.max_shift(out.ndims())))
            .enumerate()
            .map(|(d, (r, s))| {
                DimRange::new(r.lo.saturating_sub(s), (r.hi + s).min(bounds.extent(d)))
            })
            .collect();
        Section::new(ranges)
    }

    /// The strips `rank` sends along `g`, as sections of its local arrays:
    /// its lowest `hi_width` indices along `g.dim` to the lower neighbour
    /// (they are that neighbour's upper ghosts) and its highest `lo_width`
    /// to the upper one. A rank with no neighbour on a side, or a zero
    /// width, sends nothing there.
    pub fn ghost_sends(&self, g: &GhostSpec, rank: usize) -> GhostStrips {
        let [lower, upper] = self.neighbours(g, rank);
        let local = self.lhs.local_shape(rank);
        let ext = local.extent(g.dim);
        let strip =
            |lo: usize, hi: usize| Section::full(&local).with_range(g.dim, DimRange::new(lo, hi));
        [
            lower
                .filter(|_| g.hi_width > 0)
                .map(|nb| (nb, strip(0, g.hi_width.min(ext)))),
            upper
                .filter(|_| g.lo_width > 0)
                .map(|nb| (nb, strip(ext.saturating_sub(g.lo_width), ext))),
        ]
    }

    /// The strips `rank` receives along `g`: what its lower neighbour sends
    /// up and what its upper neighbour sends down, each as a section of the
    /// sender's local arrays.
    pub fn ghost_recvs(&self, g: &GhostSpec, rank: usize) -> GhostStrips {
        let [lower, upper] = self.neighbours(g, rank);
        let from = |nb: Option<usize>, side: usize| {
            let nb = nb?;
            let (_, strip) = self.ghost_sends(g, nb)[side].take()?;
            Some((nb, strip))
        };
        [from(lower, 1), from(upper, 0)]
    }

    /// The ranks adjacent to `rank` along the processor axis of `g.dim`.
    fn neighbours(&self, g: &GhostSpec, rank: usize) -> [Option<usize>; 2] {
        let DimDist::Distributed { axis, .. } = self.lhs.dist.dims()[g.dim] else {
            return [None, None];
        };
        let grid = self.lhs.dist.grid();
        let mut coords = grid.coords(rank);
        let c = coords[axis];
        [
            c.checked_sub(1),
            Some(c + 1).filter(|&u| u < grid.extent(axis)),
        ]
        .map(|nb| {
            let nb = nb?;
            coords[axis] = nb;
            Some(grid.rank(&coords))
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
    /// the compiler, overridable at run time).
    pub method: pario::IoMethod,
}

/// The stage and piece geometry of a transpose, shared by the executor and
/// the compiler's estimate. Stage `s` moves every rank's `s`-th source slab;
/// a slab is split into one piece per destination rank that owns part of
/// its transpose.
impl TransposePlan {
    /// Every rank's source slab plan (slabs along the source's slowest
    /// layout dimension, so each slab read is one contiguous request), and
    /// the stage count: the largest slab count, which every rank runs so
    /// the exchange stays symmetric.
    pub fn slab_plans(&self) -> (Vec<SlabPlan>, usize) {
        let (dim, thickness) = (self.src.layout.slowest_dim(), self.slab_thickness.max(1));
        let plans: Vec<SlabPlan> = (0..self.src.dist.nprocs())
            .map(|r| SlabPlan::new(self.src.local_shape(r), dim, thickness))
            .collect();
        let stages = plans.iter().map(SlabPlan::num_slabs).max().unwrap_or(0);
        (plans, stages)
    }

    /// The piece of `src_rank`'s source slab `slab` that `dst_rank`
    /// receives, as a global destination section: the transpose of the
    /// slab's global section intersected with what `dst_rank` owns. `None`
    /// when they share nothing, or the slab is empty (a rank that owns
    /// nothing).
    pub fn piece(&self, src_rank: usize, slab: &Section, dst_rank: usize) -> Option<Section> {
        if slab.is_empty() {
            return None;
        }
        let owned = |desc: &ArrayDesc, rank| {
            global_section_of_local(&desc.dist, rank).expect("regular distribution")
        };
        // Block and collapsed dimensions own one contiguous global range.
        let src = owned(&self.src, src_rank);
        let global: Vec<DimRange> = (slab.ranges().iter().zip(src.ranges()))
            .map(|(r, o)| DimRange::new(o.lo + r.lo, o.lo + r.hi))
            .collect();
        transposed(&Section::new(global)).intersect(&owned(&self.dst, dst_rank))
    }
}

/// Transpose of a 2-D section: swap the two dimension ranges.
pub fn transposed(sec: &Section) -> Section {
    assert_eq!(sec.ndims(), 2, "transpose is 2-D");
    Section::new(vec![sec.range(1), sec.range(0)])
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
    use ooc_array::{ArrayId, Distribution, FileLayout, Shape};
    use pario::ElemKind;

    fn plan(strategy: SlabStrategy, n: usize, p: usize, sa: usize, sb: usize) -> GaxpyPlan {
        let col = Distribution::column_block(Shape::matrix(n, n), p);
        let row = Distribution::row_block(Shape::matrix(n, n), p);
        let a_layout = match strategy {
            SlabStrategy::ColumnSlab => FileLayout::column_major(2),
            SlabStrategy::RowSlab => FileLayout::row_major(2),
        };
        GaxpyPlan {
            strategy,
            a: ArrayDesc::new(ArrayId(0), "a", ElemKind::F32, col.clone())
                .with_layout(a_layout.clone()),
            b: ArrayDesc::new(ArrayId(1), "b", ElemKind::F32, row),
            c: ArrayDesc::new(ArrayId(2), "c", ElemKind::F32, col).with_layout(a_layout),
            n,
            nprocs: p,
            slab_a: sa,
            slab_b: sb,
            slab_c: sb.min(n / p),
        }
    }

    #[test]
    fn column_version_slab_counts() {
        // 1K arrays, 4 procs, slab ratio 1/4: A OCLA 1024x256, 64-col slabs.
        let g = plan(SlabStrategy::ColumnSlab, 1024, 4, 64, 64);
        assert_eq!(g.local_cols(), 256);
        assert_eq!(g.num_slabs_a(), 4);
        assert_eq!(g.slab_a_elems(), 1024 * 64);
        assert!((g.slab_ratio_a() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn row_version_slab_counts() {
        // Row slabs cut the full 1024 rows.
        let g = plan(SlabStrategy::RowSlab, 1024, 4, 128, 64);
        assert_eq!(g.num_slabs_a(), 8);
        assert_eq!(g.slab_a_elems(), 128 * 256);
        assert_eq!(g.num_slabs_b(), 16);
    }

    #[test]
    fn memory_accounting_is_sum_of_buffers() {
        let g = plan(SlabStrategy::ColumnSlab, 64, 4, 4, 8);
        // A slab 64*4 + B slab 16*8 + temp 64 + C buffer 64*slab_c.
        assert_eq!(g.memory_elems(), 64 * 4 + 16 * 8 + 64 + 64 * g.slab_c);
    }

    #[test]
    fn exec_plan_lists_arrays() {
        let g = plan(SlabStrategy::RowSlab, 64, 4, 8, 8);
        let p = ExecPlan::Gaxpy(g);
        let names: Vec<&str> = p.arrays().iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }
}
