//! HPF-style data distributions over a processor grid.
//!
//! A [`Distribution`] records, for each array dimension, whether it is
//! collapsed (`*` in HPF — the whole extent lives on every owning processor)
//! or distributed over one axis of a [`ProcGrid`] with block, cyclic or
//! block-cyclic mapping. The paper's GAXPY example uses 1-D grids:
//! `A, C: (*, block)` (column-block) and `B: (block, *)` (row-block).

use serde::{Deserialize, Serialize};

use crate::dims::Dims;
use crate::section::DimRange;
use crate::shape::Shape;

/// Mapping of a distributed dimension onto processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DistKind {
    /// Contiguous blocks of `ceil(n/p)` indices.
    Block,
    /// Round-robin single indices.
    Cyclic,
    /// Round-robin blocks of the given size.
    BlockCyclic(usize),
}

/// Per-dimension distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DimDist {
    /// HPF `*`: not partitioned; every processor owning the other dimensions
    /// holds this whole extent.
    Collapsed,
    /// Partitioned over grid axis `axis` with the given mapping.
    Distributed {
        /// The mapping rule.
        kind: DistKind,
        /// Which processor-grid axis this dimension is spread over.
        axis: usize,
    },
}

/// A Cartesian grid of processors. Rank order is column-major (axis 0
/// fastest), matching the array linearization convention.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProcGrid {
    extents: Dims<usize, 3>,
}

impl ProcGrid {
    /// Grid from axis extents. Every axis must be non-empty.
    pub fn new(extents: impl AsRef<[usize]>) -> Self {
        let extents = extents.as_ref();
        assert!(
            !extents.is_empty() && extents.iter().all(|&e| e > 0),
            "processor grid axes must be non-empty"
        );
        ProcGrid {
            extents: Dims::from_slice(extents),
        }
    }

    /// 1-D grid of `p` processors (the paper's `processors Pr(nprocs)`).
    pub fn line(p: usize) -> Self {
        ProcGrid::new([p])
    }

    /// Number of grid axes.
    pub fn naxes(&self) -> usize {
        self.extents.len()
    }

    /// Extent of axis `a`.
    pub fn extent(&self, a: usize) -> usize {
        self.extents[a]
    }

    /// Total processors.
    pub fn nprocs(&self) -> usize {
        self.extents.iter().product()
    }

    /// Grid coordinate of `rank` along axis `a`: entry `a` of
    /// [`ProcGrid::coords`], without collecting the others.
    pub fn coord(&self, rank: usize, a: usize) -> usize {
        assert!(rank < self.nprocs(), "rank out of grid");
        rank / self.stride(a) % self.extents[a]
    }

    /// Grid coordinates of `rank`.
    pub fn coords(&self, mut rank: usize) -> Vec<usize> {
        assert!(rank < self.nprocs(), "rank out of grid");
        self.extents
            .iter()
            .map(|&e| {
                let c = rank % e;
                rank /= e;
                c
            })
            .collect()
    }

    /// Rank of grid coordinates.
    pub fn rank(&self, coords: &[usize]) -> usize {
        debug_assert_eq!(coords.len(), self.extents.len());
        coords
            .iter()
            .zip(&self.extents)
            .rev()
            .fold(0, |rank, (&c, &e)| {
                debug_assert!(c < e, "coordinate {c} out of grid axis extent {e}");
                rank * e + c
            })
    }

    /// Rank stride of axis `a`: how far one step along it moves the rank.
    pub fn stride(&self, a: usize) -> usize {
        self.extents[..a].iter().product()
    }
}

/// A complete distribution: global shape + per-dimension mapping + grid.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Distribution {
    global: Shape,
    dims: Dims<DimDist, 2>,
    grid: ProcGrid,
}

impl Distribution {
    /// Build and validate a distribution. Each grid axis must be used by at
    /// most one array dimension; axes used by none would replicate data,
    /// which the out-of-core model does not support.
    pub fn new(global: Shape, dims: impl AsRef<[DimDist]>, grid: ProcGrid) -> Self {
        let dims = dims.as_ref();
        assert_eq!(global.ndims(), dims.len(), "one DimDist per dimension");
        let on_axis =
            |d: &DimDist, a: usize| matches!(d, DimDist::Distributed { axis, .. } if *axis == a);
        for (i, d) in dims.iter().enumerate() {
            if let DimDist::Distributed { axis, kind } = d {
                assert!(*axis < grid.naxes(), "grid axis {axis} out of range");
                let used = dims[..i].iter().any(|e| on_axis(e, *axis));
                assert!(!used, "grid axis {axis} used by two dimensions");
                if let DistKind::BlockCyclic(b) = kind {
                    assert!(*b > 0, "block-cyclic block size must be positive");
                }
            }
        }
        assert!(
            (0..grid.naxes()).all(|a| dims.iter().any(|d| on_axis(d, a))),
            "every grid axis must map exactly one array dimension"
        );
        Distribution {
            global,
            dims: Dims::from_slice(dims),
            grid,
        }
    }

    /// Column-block distribution of a matrix over a 1-D grid: `(*, block)`.
    pub fn column_block(global: Shape, p: usize) -> Self {
        assert_eq!(global.ndims(), 2);
        Distribution::new(
            global,
            [
                DimDist::Collapsed,
                DimDist::Distributed {
                    kind: DistKind::Block,
                    axis: 0,
                },
            ],
            ProcGrid::line(p),
        )
    }

    /// Row-block distribution of a matrix over a 1-D grid: `(block, *)`.
    pub fn row_block(global: Shape, p: usize) -> Self {
        assert_eq!(global.ndims(), 2);
        Distribution::new(
            global,
            [
                DimDist::Distributed {
                    kind: DistKind::Block,
                    axis: 0,
                },
                DimDist::Collapsed,
            ],
            ProcGrid::line(p),
        )
    }

    /// Global shape.
    pub fn global(&self) -> &Shape {
        &self.global
    }

    /// Per-dimension mappings.
    pub fn dims(&self) -> &[DimDist] {
        &self.dims
    }

    /// The processor grid.
    pub fn grid(&self) -> &ProcGrid {
        &self.grid
    }

    /// Total processors.
    pub fn nprocs(&self) -> usize {
        self.grid.nprocs()
    }

    /// Block size used along dimension `d` (for `Block`: `ceil(n/p)`).
    fn block_of(&self, d: usize) -> Option<usize> {
        match self.dims[d] {
            DimDist::Distributed {
                kind: DistKind::Block,
                axis,
            } => Some(self.global.extent(d).div_ceil(self.grid.extent(axis))),
            _ => None,
        }
    }

    /// Grid coordinate (along the owning axis) of global index `g` in
    /// dimension `d`. `None` for collapsed dimensions.
    pub fn owner_coord(&self, d: usize, g: usize) -> Option<usize> {
        debug_assert!(g < self.global.extent(d));
        match self.dims[d] {
            DimDist::Collapsed => None,
            DimDist::Distributed { kind, axis } => {
                let p = self.grid.extent(axis);
                Some(match kind {
                    DistKind::Block => g / self.block_of(d).expect("block"),
                    DistKind::Cyclic => g % p,
                    DistKind::BlockCyclic(b) => (g / b) % p,
                })
            }
        }
    }

    /// Rank of the processor owning the element at `index`.
    pub fn owner(&self, index: &[usize]) -> usize {
        self.dims
            .iter()
            .enumerate()
            .filter_map(|(d, dd)| match dd {
                DimDist::Collapsed => None,
                DimDist::Distributed { axis, .. } => Some(
                    self.owner_coord(d, index[d])
                        .expect("distributed dim has coord")
                        * self.grid.stride(*axis),
                ),
            })
            .sum()
    }

    /// Local index along dimension `d` of global index `g` (valid on the
    /// owning processor).
    pub fn local_index(&self, d: usize, g: usize) -> usize {
        match self.dims[d] {
            DimDist::Collapsed => g,
            DimDist::Distributed { kind, axis } => {
                let p = self.grid.extent(axis);
                match kind {
                    DistKind::Block => g % self.block_of(d).expect("block"),
                    DistKind::Cyclic => g / p,
                    DistKind::BlockCyclic(b) => (g / (b * p)) * b + g % b,
                }
            }
        }
    }

    /// Global index along dimension `d` of local index `l` on grid
    /// coordinate `coord`.
    pub fn global_index(&self, d: usize, coord: usize, l: usize) -> usize {
        match self.dims[d] {
            DimDist::Collapsed => l,
            DimDist::Distributed { kind, axis } => {
                let p = self.grid.extent(axis);
                match kind {
                    DistKind::Block => coord * self.block_of(d).expect("block") + l,
                    DistKind::Cyclic => l * p + coord,
                    DistKind::BlockCyclic(b) => (l / b) * b * p + coord * b + l % b,
                }
            }
        }
    }

    /// Grid coordinate of `rank` along the axis dimension `d` is
    /// distributed over; 0 for a collapsed dimension, whose indices do not
    /// depend on it. Panics when `rank` is outside the grid.
    pub fn dim_coord(&self, d: usize, rank: usize) -> usize {
        match self.dims[d] {
            DimDist::Collapsed => {
                assert!(rank < self.grid.nprocs(), "rank out of grid");
                0
            }
            DimDist::Distributed { axis, .. } => self.grid.coord(rank, axis),
        }
    }

    /// Local → global index tables of `rank`'s local part, one per
    /// dimension: `tables[d][l]` is the global index of local index `l`
    /// along `d`, [`Distribution::global_index`] of it. Per-element loops
    /// look indices up here instead of translating per element, and the
    /// tables are built per block run, not per element: a block or
    /// collapsed dimension is one run at the owner's lower corner, a cyclic
    /// one steps by `p`, and a block-cyclic one is a run of `b` per cycle.
    pub fn global_index_tables(&self, rank: usize) -> Vec<Vec<usize>> {
        (0..self.dims.len())
            .map(|d| {
                let coord = self.dim_coord(d, rank);
                let len = self.local_extent(d, coord);
                // (first global index, run length, stride between runs).
                let (base, run, cycle) = match self.dims[d] {
                    DimDist::Collapsed => (0, len, 0),
                    DimDist::Distributed { kind, axis } => {
                        let p = self.grid.extent(axis);
                        match kind {
                            DistKind::Block => (coord * self.block_of(d).expect("block"), len, 0),
                            DistKind::Cyclic => (coord, 1, p),
                            DistKind::BlockCyclic(b) => (coord * b, b, b * p),
                        }
                    }
                };
                let mut table = Vec::with_capacity(len);
                let mut start = base;
                while table.len() < len {
                    let take = run.min(len - table.len());
                    table.extend(start..start + take);
                    start += cycle;
                }
                table
            })
            .collect()
    }

    /// Number of local elements along dimension `d` on grid coordinate
    /// `coord`.
    pub fn local_extent(&self, d: usize, coord: usize) -> usize {
        let n = self.global.extent(d);
        match self.dims[d] {
            DimDist::Collapsed => n,
            DimDist::Distributed { kind, axis } => {
                let p = self.grid.extent(axis);
                match kind {
                    DistKind::Block => {
                        let b = self.block_of(d).expect("block");
                        n.saturating_sub(coord * b).min(b)
                    }
                    DistKind::Cyclic => (n + p - 1 - coord) / p,
                    DistKind::BlockCyclic(b) => {
                        // Count indices g < n with (g/b) % p == coord.
                        let full_cycles = n / (b * p);
                        let mut cnt = full_cycles * b;
                        let rem_start = full_cycles * b * p;
                        for g in rem_start..n {
                            if (g / b) % p == coord {
                                cnt += 1;
                            }
                        }
                        cnt
                    }
                }
            }
        }
    }

    /// Shape of the out-of-core local array on `rank`.
    pub fn local_shape(&self, rank: usize) -> Shape {
        (0..self.dims.len())
            .map(|d| self.local_extent(d, self.dim_coord(d, rank)))
            .collect()
    }

    /// The global indices owned along dimension `d` by grid coordinate
    /// `coord`, as a regular range. `None` for block-cyclic (not a regular
    /// section).
    pub fn owned_range(&self, d: usize, coord: usize) -> Option<DimRange> {
        let n = self.global.extent(d);
        match self.dims[d] {
            DimDist::Collapsed => Some(DimRange::new(0, n)),
            DimDist::Distributed { kind, axis } => {
                let p = self.grid.extent(axis);
                match kind {
                    DistKind::Block => {
                        let b = self.block_of(d).expect("block");
                        let lo = (coord * b).min(n);
                        let hi = ((coord + 1) * b).min(n);
                        Some(DimRange::new(lo, hi))
                    }
                    DistKind::Cyclic => {
                        if coord < n {
                            Some(DimRange::strided(coord, n, p))
                        } else {
                            Some(DimRange::new(0, 0))
                        }
                    }
                    DistKind::BlockCyclic(_) => None,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn block_dist(n: usize, p: usize) -> Distribution {
        Distribution::row_block(Shape::matrix(n, 3), p)
    }

    #[test]
    fn paper_distributions() {
        // 64x64 arrays on 4 procs, as in Figure 3.
        let a = Distribution::column_block(Shape::matrix(64, 64), 4);
        assert_eq!(a.local_shape(0).extents(), &[64, 16]);
        assert_eq!(a.owner(&[10, 17]), 1);
        let b = Distribution::row_block(Shape::matrix(64, 64), 4);
        assert_eq!(b.local_shape(3).extents(), &[16, 64]);
        assert_eq!(b.owner(&[63, 0]), 3);
    }

    #[test]
    fn block_round_trip() {
        let d = block_dist(10, 3); // blocks of ceil(10/3)=4: [0..4),[4..8),[8..10)
        assert_eq!(d.local_extent(0, 0), 4);
        assert_eq!(d.local_extent(0, 1), 4);
        assert_eq!(d.local_extent(0, 2), 2);
        for g in 0..10 {
            let c = d.owner_coord(0, g).unwrap();
            let l = d.local_index(0, g);
            assert_eq!(d.global_index(0, c, l), g);
            assert!(l < d.local_extent(0, c));
        }
    }

    #[test]
    fn cyclic_round_trip() {
        let d = Distribution::new(
            Shape::matrix(11, 2),
            vec![
                DimDist::Distributed {
                    kind: DistKind::Cyclic,
                    axis: 0,
                },
                DimDist::Collapsed,
            ],
            ProcGrid::line(4),
        );
        let mut per_proc = [0usize; 4];
        for g in 0..11 {
            let c = d.owner_coord(0, g).unwrap();
            per_proc[c] += 1;
            let l = d.local_index(0, g);
            assert_eq!(d.global_index(0, c, l), g);
        }
        for (c, &owned) in per_proc.iter().enumerate() {
            assert_eq!(owned, d.local_extent(0, c), "coord {c}");
        }
        // Owned ranges are strided.
        let r = d.owned_range(0, 1).unwrap();
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![1, 5, 9]);
    }

    #[test]
    fn block_cyclic_round_trip() {
        let d = Distribution::new(
            Shape::matrix(23, 1),
            vec![
                DimDist::Distributed {
                    kind: DistKind::BlockCyclic(3),
                    axis: 0,
                },
                DimDist::Collapsed,
            ],
            ProcGrid::line(3),
        );
        let mut seen = vec![vec![]; 3];
        for g in 0..23 {
            let c = d.owner_coord(0, g).unwrap();
            let l = d.local_index(0, g);
            assert_eq!(d.global_index(0, c, l), g, "g={g}");
            seen[c].push(l);
        }
        for (c, locals) in seen.iter().enumerate() {
            assert_eq!(locals.len(), d.local_extent(0, c), "coord {c}");
            // Local indices are dense 0..extent.
            let mut s = locals.clone();
            s.sort_unstable();
            assert_eq!(s, (0..s.len()).collect::<Vec<_>>(), "coord {c}");
        }
    }

    #[test]
    fn global_index_tables_equal_per_element_global_index() {
        let on = |kind, axis| DimDist::Distributed { kind, axis };
        let dists = [
            // Blocks of 2 over 4 ranks: rank 3 owns nothing of 5.
            Distribution::new(
                Shape::matrix(5, 3),
                vec![on(DistKind::Block, 0), DimDist::Collapsed],
                ProcGrid::line(4),
            ),
            Distribution::new(
                Shape::matrix(3, 11),
                vec![DimDist::Collapsed, on(DistKind::Cyclic, 0)],
                ProcGrid::line(4),
            ),
            // Cyclic over more ranks than indices: ranks 3 and 4 own nothing.
            Distribution::new(
                Shape::new(vec![3]),
                vec![on(DistKind::Cyclic, 0)],
                ProcGrid::line(5),
            ),
            // Block-cyclic with a ragged last block, on a 2-D grid.
            Distribution::new(
                Shape::matrix(23, 10),
                vec![on(DistKind::BlockCyclic(3), 1), on(DistKind::Block, 0)],
                ProcGrid::new(vec![3, 2]),
            ),
            // One block of 4 over 4 ranks: grid columns 1–3 own nothing.
            Distribution::new(
                Shape::matrix(4, 9),
                vec![on(DistKind::BlockCyclic(4), 0), on(DistKind::Cyclic, 1)],
                ProcGrid::new(vec![4, 2]),
            ),
        ];
        let mut empty = 0;
        for dist in &dists {
            for rank in 0..dist.nprocs() {
                let coords = dist.grid().coords(rank);
                let tables = dist.global_index_tables(rank);
                assert_eq!(tables.len(), dist.dims().len());
                for (d, table) in tables.iter().enumerate() {
                    let coord = match dist.dims()[d] {
                        DimDist::Collapsed => 0,
                        DimDist::Distributed { axis, .. } => coords[axis],
                    };
                    let each: Vec<usize> = (0..dist.local_extent(d, coord))
                        .map(|l| dist.global_index(d, coord, l))
                        .collect();
                    assert_eq!(table, &each, "{dist:?} rank {rank} dim {d}");
                }
                empty += usize::from(dist.local_shape(rank).is_empty());
            }
        }
        assert_eq!(empty, 1 + 2 + 6, "ranks that own nothing are covered");
    }

    #[test]
    #[should_panic(expected = "rank out of grid")]
    fn local_shape_of_a_rank_outside_the_grid_panics() {
        Distribution::column_block(Shape::matrix(4, 4), 2).local_shape(2);
    }

    #[test]
    fn grid_coord_is_one_entry_of_coords() {
        let g = ProcGrid::new(vec![2, 3, 2]);
        for r in 0..g.nprocs() {
            let all: Vec<usize> = (0..g.naxes()).map(|a| g.coord(r, a)).collect();
            assert_eq!(all, g.coords(r));
        }
    }

    #[test]
    fn grid_coords_round_trip() {
        let g = ProcGrid::new(vec![2, 3]);
        assert_eq!(g.nprocs(), 6);
        for r in 0..6 {
            assert_eq!(g.rank(&g.coords(r)), r);
        }
        assert_eq!(g.coords(3), vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "grid axis")]
    fn two_dims_on_one_axis_rejected() {
        Distribution::new(
            Shape::matrix(4, 4),
            vec![
                DimDist::Distributed {
                    kind: DistKind::Block,
                    axis: 0,
                },
                DimDist::Distributed {
                    kind: DistKind::Block,
                    axis: 0,
                },
            ],
            ProcGrid::line(2),
        );
    }

    #[test]
    #[should_panic(expected = "every grid axis")]
    fn unused_axis_rejected() {
        Distribution::new(
            Shape::matrix(4, 4),
            vec![DimDist::Collapsed, DimDist::Collapsed],
            ProcGrid::line(2),
        );
    }

    fn kind_of(k: usize, b: usize) -> DistKind {
        match k {
            0 => DistKind::Block,
            1 => DistKind::Cyclic,
            _ => DistKind::BlockCyclic(b),
        }
    }

    proptest! {
        #[test]
        fn grid_coords_rank_and_owner_match_the_shape_formulas_on_2d_grids(
            e0 in 1usize..5, e1 in 1usize..5, n0 in 1usize..12, n1 in 1usize..12,
            k0 in 0usize..3, k1 in 0usize..3, b in 1usize..4, swap in proptest::bool::ANY,
        ) {
            let grid = ProcGrid::new(vec![e0, e1]);
            let as_shape = Shape::new(vec![e0, e1]);
            for r in 0..grid.nprocs() {
                let c = grid.coords(r);
                prop_assert_eq!(&c, &as_shape.unlinear(r));
                prop_assert_eq!(grid.rank(&c), r);
            }
            // Array dimension d on grid axis d (or the axes swapped).
            let (a0, a1) = if swap { (1, 0) } else { (0, 1) };
            let d = Distribution::new(
                Shape::matrix(n0, n1),
                vec![
                    DimDist::Distributed { kind: kind_of(k0, b), axis: a0 },
                    DimDist::Distributed { kind: kind_of(k1, b), axis: a1 },
                ],
                grid.clone(),
            );
            for idx in Shape::matrix(n0, n1).indices() {
                let mut coords = vec![0; 2];
                coords[a0] = d.owner_coord(0, idx[0]).unwrap();
                coords[a1] = d.owner_coord(1, idx[1]).unwrap();
                prop_assert_eq!(d.owner(&idx), as_shape.linear(&coords));
            }
        }

        #[test]
        fn owner_and_local_consistent_for_all_kinds(
            n in 1usize..40, p in 1usize..6, kind in 0usize..3, b in 1usize..4
        ) {
            let kind = kind_of(kind, b);
            let d = Distribution::new(
                Shape::new(vec![n]),
                vec![DimDist::Distributed { kind, axis: 0 }],
                ProcGrid::line(p),
            );
            let mut counts = vec![0usize; p];
            for g in 0..n {
                let c = d.owner_coord(0, g).unwrap();
                prop_assert!(c < p);
                let l = d.local_index(0, g);
                prop_assert_eq!(d.global_index(0, c, l), g);
                counts[c] += 1;
            }
            for (c, &count) in counts.iter().enumerate() {
                prop_assert_eq!(count, d.local_extent(0, c));
            }
            prop_assert_eq!(counts.iter().sum::<usize>(), n);
        }

        #[test]
        fn owned_ranges_partition_block_and_cyclic(
            n in 1usize..50, p in 1usize..7, cyclic in proptest::bool::ANY
        ) {
            let kind = if cyclic { DistKind::Cyclic } else { DistKind::Block };
            let d = Distribution::new(
                Shape::new(vec![n]),
                vec![DimDist::Distributed { kind, axis: 0 }],
                ProcGrid::line(p),
            );
            let mut seen = vec![false; n];
            for c in 0..p {
                for g in d.owned_range(0, c).unwrap().iter() {
                    prop_assert!(!seen[g], "index {} owned twice", g);
                    seen[g] = true;
                    prop_assert_eq!(d.owner_coord(0, g).unwrap(), c);
                }
            }
            prop_assert!(seen.iter().all(|&s| s));
        }
    }
}
