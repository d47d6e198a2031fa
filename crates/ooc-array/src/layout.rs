//! File layouts: the order in which an out-of-core local array's elements
//! lie in its LAF.
//!
//! The paper's central optimization *reorganizes data storage on disk* so
//! that the chosen slabs are contiguous: column slabs want column-major
//! files, row slabs want row-major files (§4, Figure 11). A [`FileLayout`]
//! is a permutation of the dimensions ordered fastest-varying first;
//! [`FileLayout::section_runs`] converts an array section into the minimal
//! list of contiguous element runs under that layout — the quantity the cost
//! model counts as I/O requests.

use serde::{Deserialize, Serialize};

use pario::{Access, ElemRun};

use crate::dims::Dims;
use crate::section::{offset, DimRange, Section};
use crate::shape::Shape;

/// A dimension permutation, fastest-varying dimension first.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FileLayout {
    order: Dims<usize, 3>,
}

impl FileLayout {
    /// Layout from an explicit order (must be a permutation of `0..n`).
    pub fn new(order: impl AsRef<[usize]>) -> Self {
        FileLayout::of(Dims::from_slice(order.as_ref()))
    }

    fn of(order: Dims<usize, 3>) -> Self {
        for (i, &d) in order.iter().enumerate() {
            let seen = order[..i].contains(&d);
            assert!(d < order.len() && !seen, "order must be a permutation");
        }
        FileLayout { order }
    }

    /// Fortran column-major: dimension 0 fastest.
    pub fn column_major(ndims: usize) -> Self {
        FileLayout::of((0..ndims).collect())
    }

    /// Row-major: last dimension fastest.
    pub fn row_major(ndims: usize) -> Self {
        FileLayout::of((0..ndims).rev().collect())
    }

    /// The layout that makes slabs along `slab_dim` contiguous: `slab_dim`
    /// slowest, remaining dimensions in ascending order fastest-first.
    ///
    /// This is the "data reorganization" the compiler applies when it picks
    /// a slab orientation: e.g. row slabs (`slab_dim = 0`) of a matrix get
    /// layout `[1, 0]`, storing the local array row-major so each row slab
    /// is one contiguous extent.
    pub fn for_slab_dim(ndims: usize, slab_dim: usize) -> Self {
        assert!(slab_dim < ndims);
        let order = (0..ndims).filter(|&d| d != slab_dim).chain([slab_dim]);
        FileLayout::of(order.collect())
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.order.len()
    }

    /// Dimension order, fastest first.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// The slowest-varying dimension — slabs along it are contiguous.
    pub fn slowest_dim(&self) -> usize {
        *self.order.last().expect("non-empty layout")
    }

    /// Strides (in elements) of each dimension under this layout for a local
    /// array of `shape`.
    pub fn strides(&self, shape: &Shape) -> Vec<usize> {
        self.dim_strides(shape).to_vec()
    }

    /// [`FileLayout::strides`], held inline.
    fn dim_strides(&self, shape: &Shape) -> Dims<usize, 3> {
        assert_eq!(shape.ndims(), self.ndims());
        let mut strides: Dims<usize, 3> = self.order.iter().map(|_| 0).collect();
        let mut acc = 1usize;
        for &d in &self.order {
            strides[d] = acc;
            acc *= shape.extent(d);
        }
        strides
    }

    /// Linear element offset of `index` in a file holding `shape` under this
    /// layout.
    pub fn linear(&self, shape: &Shape, index: &[usize]) -> usize {
        offset(index, &self.dim_strides(shape))
    }

    /// Decompose `section` of a local array of `shape` into contiguous
    /// element runs under this layout, in ascending offset order.
    ///
    /// The number of returned runs is exactly the number of I/O requests a
    /// strided read of the section issues (before cross-run coalescing,
    /// which cannot apply: consecutive runs are separated by unselected
    /// elements unless the section is degenerate, and degenerate adjacency
    /// is handled by the disk layer's coalescer anyway).
    pub fn section_runs(&self, shape: &Shape, section: &Section) -> Vec<ElemRun> {
        let mut runs = Vec::new();
        self.section_runs_into(shape, section, &mut runs, ElemRun::new);
        runs
    }

    /// [`FileLayout::section_runs`] into a caller-owned buffer, replacing
    /// its contents, with each `(offset, len)` element run built by `run`.
    /// Nothing is allocated beyond the growth of `runs`.
    pub(crate) fn section_runs_into<R>(
        &self,
        shape: &Shape,
        section: &Section,
        runs: &mut Vec<R>,
        run: impl Fn(u64, u64) -> R,
    ) {
        assert_eq!(shape.ndims(), section.ndims());
        runs.clear();
        if section.is_empty() {
            return;
        }
        // Every element of a walk over the dimensions outside the chunk
        // (fastest first => ascending offsets) starts one chunk-long run;
        // the chunk's own dimensions stay at their range starts.
        let (outer_start, chunk) = self.chunk(shape, section.ranges());
        let outer = &self.order[outer_start..];
        let strides = self.dim_strides(shape);
        let step = outer
            .first()
            .map_or(0, |&d| section.range(d).step * strides[d]);
        runs.reserve(outer.iter().map(|&d| section.range(d).len()).product());
        section.for_each_run(outer, |at, len| {
            let start = offset(at, &strides);
            runs.extend((0..len).map(|k| run((start + k * step) as u64, chunk as u64)));
        });
    }

    /// The contiguous chunk every run of `section` shares: the fastest
    /// dimensions the section covers whole, grown by at most one partially
    /// covered unit-stride dimension. Returns the position in the layout
    /// order of the first dimension outside the chunk, and the chunk's
    /// element count.
    fn chunk(&self, shape: &Shape, ranges: &[DimRange]) -> (usize, usize) {
        let mut chunk = 1usize;
        for (pos, &d) in self.order.iter().enumerate() {
            let r = ranges[d];
            if r.covers(shape.extent(d)) {
                chunk *= shape.extent(d);
            } else if r.step == 1 {
                return (pos + 1, chunk * r.len());
            } else {
                return (pos, chunk);
            }
        }
        (self.order.len(), chunk)
    }

    /// Element offsets of the first and the last element of a non-empty
    /// `section` under this layout.
    fn first_last(&self, shape: &Shape, ranges: &[DimRange]) -> (usize, usize) {
        let (mut first, mut last, mut stride) = (0usize, 0usize, 1usize);
        for &d in &self.order {
            let r = ranges[d];
            first += r.lo * stride;
            last += (r.lo + (r.len() - 1) * r.step) * stride;
            stride *= shape.extent(d);
        }
        (first, last)
    }

    /// Number of runs [`FileLayout::section_runs`] would produce, computed
    /// without materializing them — used by the compiler's cost estimator.
    pub fn count_section_runs(&self, shape: &Shape, section: &Section) -> u64 {
        assert_eq!(shape.ndims(), section.ndims());
        if section.is_empty() {
            return 0;
        }
        let (outer_start, _) = self.chunk(shape, section.ranges());
        self.order[outer_start..]
            .iter()
            .map(|&d| section.range(d).len() as u64)
            .product()
    }

    /// The [`Access`] the disk sees for the section `ranges` (one
    /// [`DimRange`] per dimension) of a local array of `shape`, elements of
    /// `elem_size` bytes, in O(ndims): what coalescing
    /// [`FileLayout::section_runs`] and spanning them would give, without
    /// materializing a run.
    ///
    /// Runs only touch when the first dimension outside the chunk is
    /// strided and the chunk fills its stride: then the transition that
    /// wraps outer dimensions `0..k` and advances outer dimension `k`
    /// joins two runs exactly when each wrapped dimension selects both its
    /// first and its last index and dimension `k` has unit stride.
    pub(crate) fn section_access(
        &self,
        shape: &Shape,
        ranges: &[DimRange],
        elem_size: u64,
    ) -> Access {
        if ranges.iter().any(DimRange::is_empty) {
            return Access::default();
        }
        let (outer_start, _) = self.chunk(shape, ranges);
        let outer = &self.order[outer_start..];
        let spans_ends = |d: usize| {
            let r = ranges[d];
            r.lo == 0 && r.lo + (r.len() - 1) * r.step + 1 == shape.extent(d)
        };
        let chunk_fills_stride = self.order[..outer_start]
            .iter()
            .all(|&d| ranges[d].covers(shape.extent(d)));
        let wrapping = if chunk_fills_stride {
            outer.iter().take_while(|&&d| spans_ends(d)).count()
        } else {
            0
        };
        let (mut runs, mut joins) = (1u64, 0u64);
        for (k, &d) in outer.iter().enumerate().rev() {
            let r = ranges[d];
            if (1..=wrapping).contains(&k) && r.step == 1 {
                joins += (r.len() as u64 - 1) * runs;
            }
            runs *= r.len() as u64;
        }
        let (first, last) = self.first_last(shape, ranges);
        let len: usize = ranges.iter().map(DimRange::len).product();
        Access {
            runs: runs - joins,
            bytes: len as u64 * elem_size,
            span: (last - first + 1) as u64 * elem_size,
        }
    }

    /// Iterate the section's multi-indices in this layout's order (fastest
    /// layout dimension varies fastest) — the order in which
    /// [`FileLayout::section_runs`] delivers elements.
    pub fn section_indices_in_layout_order<'a>(
        &'a self,
        section: &'a Section,
    ) -> impl Iterator<Item = Vec<usize>> + 'a {
        let counts: Vec<usize> = self.order.iter().map(|&d| section.range(d).len()).collect();
        let total: usize = counts.iter().product();
        let order = &self.order;
        (0..total).map(move |mut k| {
            let mut idx = vec![0usize; order.len()];
            for (pos, &d) in order.iter().enumerate() {
                let c = counts[pos];
                let rel = k % c;
                k /= c;
                let r = section.range(d);
                idx[d] = r.lo + rel * r.step;
            }
            idx
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::section::DimRange;
    use proptest::prelude::*;

    fn sec2(r0: DimRange, r1: DimRange) -> Section {
        Section::new(vec![r0, r1])
    }

    #[test]
    fn column_slab_is_one_run_in_cm() {
        // Local array 8 rows x 6 cols, column-major file. Columns 2..4
        // (full rows) are contiguous: one run of 16 elements at offset 16.
        let shape = Shape::matrix(8, 6);
        let layout = FileLayout::column_major(2);
        let s = sec2(DimRange::full(8), DimRange::new(2, 4));
        let runs = layout.section_runs(&shape, &s);
        assert_eq!(runs, vec![ElemRun::new(16, 16)]);
        assert_eq!(layout.count_section_runs(&shape, &s), 1);
    }

    #[test]
    fn row_slab_in_cm_is_strided() {
        // Rows 2..4 of all 6 columns in a column-major file: 6 runs of 2.
        let shape = Shape::matrix(8, 6);
        let layout = FileLayout::column_major(2);
        let s = sec2(DimRange::new(2, 4), DimRange::full(6));
        let runs = layout.section_runs(&shape, &s);
        assert_eq!(runs.len(), 6);
        assert_eq!(runs[0], ElemRun::new(2, 2));
        assert_eq!(runs[1], ElemRun::new(10, 2));
        assert_eq!(layout.count_section_runs(&shape, &s), 6);
    }

    #[test]
    fn row_slab_is_one_run_in_rm() {
        // Same row slab in a row-major file: contiguous.
        let shape = Shape::matrix(8, 6);
        let layout = FileLayout::row_major(2);
        let s = sec2(DimRange::new(2, 4), DimRange::full(6));
        let runs = layout.section_runs(&shape, &s);
        assert_eq!(runs, vec![ElemRun::new(12, 12)]);
    }

    #[test]
    fn for_slab_dim_makes_slabs_contiguous() {
        let shape = Shape::matrix(8, 6);
        for slab_dim in 0..2 {
            let layout = FileLayout::for_slab_dim(2, slab_dim);
            assert_eq!(layout.slowest_dim(), slab_dim);
            let s = Section::full(&shape).with_range(slab_dim, DimRange::new(1, 3));
            assert_eq!(layout.count_section_runs(&shape, &s), 1);
        }
    }

    #[test]
    fn partial_both_dims_cm() {
        // Rows 1..3 of columns 0..2 in CM 4x4: per-column runs.
        let shape = Shape::matrix(4, 4);
        let layout = FileLayout::column_major(2);
        let s = sec2(DimRange::new(1, 3), DimRange::new(0, 2));
        let runs = layout.section_runs(&shape, &s);
        assert_eq!(runs, vec![ElemRun::new(1, 2), ElemRun::new(5, 2)]);
    }

    #[test]
    fn strided_fast_dim_gives_unit_runs() {
        let shape = Shape::matrix(8, 2);
        let layout = FileLayout::column_major(2);
        let s = sec2(DimRange::strided(0, 8, 2), DimRange::single(0));
        let runs = layout.section_runs(&shape, &s);
        assert_eq!(runs.len(), 4);
        assert!(runs.iter().all(|r| r.len == 1));
    }

    #[test]
    fn layout_order_iteration_matches_runs() {
        let shape = Shape::matrix(4, 3);
        let layout = FileLayout::row_major(2);
        let s = sec2(DimRange::new(1, 3), DimRange::new(0, 3));
        // Walk runs element by element; they must visit the same offsets as
        // the layout-order index iteration.
        let runs = layout.section_runs(&shape, &s);
        let offs_from_runs: Vec<u64> = runs
            .iter()
            .flat_map(|r| r.offset..r.offset + r.len)
            .collect();
        let offs_from_iter: Vec<u64> = layout
            .section_indices_in_layout_order(&s)
            .map(|i| layout.linear(&shape, &i) as u64)
            .collect();
        assert_eq!(offs_from_runs, offs_from_iter);
    }

    #[test]
    fn three_d_slab_runs() {
        let shape = Shape::new(vec![4, 4, 4]);
        let layout = FileLayout::for_slab_dim(3, 1);
        let s = Section::full(&shape).with_range(1, DimRange::new(2, 3));
        assert_eq!(layout.count_section_runs(&shape, &s), 1);
        let runs = layout.section_runs(&shape, &s);
        assert_eq!(runs, vec![ElemRun::new(32, 16)]);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn bad_permutation_rejected() {
        FileLayout::new(vec![0, 0]);
    }

    proptest! {
        #[test]
        fn runs_cover_section_exactly(
            n0 in 1usize..6, n1 in 1usize..6, n2 in 1usize..4,
            lo0 in 0usize..6, len0 in 1usize..6,
            lo1 in 0usize..6, len1 in 1usize..6,
            perm in 0usize..6,
        ) {
            let shape = Shape::new(vec![n0, n1, n2]);
            let orders = [
                vec![0,1,2], vec![0,2,1], vec![1,0,2],
                vec![1,2,0], vec![2,0,1], vec![2,1,0],
            ];
            let layout = FileLayout::new(orders[perm].clone());
            let s = Section::new(vec![
                DimRange::new(lo0.min(n0.saturating_sub(1)), (lo0 + len0).min(n0)),
                DimRange::new(lo1.min(n1.saturating_sub(1)), (lo1 + len1).min(n1)),
                DimRange::full(n2),
            ]);
            let runs = layout.section_runs(&shape, &s);
            prop_assert_eq!(runs.len() as u64, layout.count_section_runs(&shape, &s));
            // Runs cover exactly the offsets of the section's elements.
            let mut from_runs: Vec<u64> =
                runs.iter().flat_map(|r| r.offset..r.offset + r.len).collect();
            from_runs.sort_unstable();
            let mut expected: Vec<u64> = s
                .indices()
                .map(|i| layout.linear(&shape, &i) as u64)
                .collect();
            expected.sort_unstable();
            prop_assert_eq!(from_runs, expected);
            // Offsets are ascending run-to-run (runs don't overlap).
            for w in runs.windows(2) {
                prop_assert!(w[0].offset + w[0].len <= w[1].offset);
            }
        }
    }
}
