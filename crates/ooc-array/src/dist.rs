//! HPF-style data distributions over a processor grid.
//!
//! A [`Distribution`] records, for each array dimension, whether it is
//! collapsed (`*` in HPF — the whole extent lives on every owning processor)
//! or distributed over one axis of a [`ProcGrid`] with block, cyclic or
//! block-cyclic mapping. The paper's GAXPY example uses 1-D grids:
//! `A, C: (*, block)` (column-block) and `B: (block, *)` (row-block).

use serde::{Deserialize, Serialize};

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
    extents: Vec<usize>,
}

impl ProcGrid {
    /// Grid from axis extents. Every axis must be non-empty.
    pub fn new(extents: impl Into<Vec<usize>>) -> Self {
        let extents = extents.into();
        assert!(
            !extents.is_empty() && extents.iter().all(|&e| e > 0),
            "processor grid axes must be non-empty"
        );
        ProcGrid { extents }
    }

    /// 1-D grid of `p` processors (the paper's `processors Pr(nprocs)`).
    pub fn line(p: usize) -> Self {
        ProcGrid::new(vec![p])
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
    fn stride(&self, a: usize) -> usize {
        self.extents[..a].iter().product()
    }
}

/// A complete distribution: global shape + per-dimension mapping + grid.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Distribution {
    global: Shape,
    dims: Vec<DimDist>,
    grid: ProcGrid,
}

impl Distribution {
    /// Build and validate a distribution. Each grid axis must be used by at
    /// most one array dimension; axes used by none would replicate data,
    /// which the out-of-core model does not support.
    pub fn new(global: Shape, dims: Vec<DimDist>, grid: ProcGrid) -> Self {
        assert_eq!(global.ndims(), dims.len(), "one DimDist per dimension");
        let mut used = vec![false; grid.naxes()];
        for d in &dims {
            if let DimDist::Distributed { axis, kind } = d {
                assert!(*axis < grid.naxes(), "grid axis {axis} out of range");
                assert!(!used[*axis], "grid axis {axis} used by two dimensions");
                used[*axis] = true;
                if let DistKind::BlockCyclic(b) = kind {
                    assert!(*b > 0, "block-cyclic block size must be positive");
                }
            }
        }
        assert!(
            used.iter().all(|&u| u),
            "every grid axis must map exactly one array dimension"
        );
        Distribution { global, dims, grid }
    }

    /// Column-block distribution of a matrix over a 1-D grid: `(*, block)`.
    pub fn column_block(global: Shape, p: usize) -> Self {
        assert_eq!(global.ndims(), 2);
        Distribution::new(
            global,
            vec![
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
            vec![
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

    /// Local → global index tables of `rank`'s local part, one per
    /// dimension: `tables[d][l]` is the global index of local index `l`
    /// along `d`. Per-element loops look indices up here instead of
    /// calling [`Distribution::global_index`] (and [`ProcGrid::coords`])
    /// per element.
    pub fn global_index_tables(&self, rank: usize) -> Vec<Vec<usize>> {
        let coords = self.grid.coords(rank);
        self.dims
            .iter()
            .enumerate()
            .map(|(d, dd)| {
                let coord = match dd {
                    DimDist::Collapsed => 0,
                    DimDist::Distributed { axis, .. } => coords[*axis],
                };
                (0..self.local_extent(d, coord))
                    .map(|l| self.global_index(d, coord, l))
                    .collect()
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
        let coords = self.grid.coords(rank);
        let exts: Vec<usize> = self
            .dims
            .iter()
            .enumerate()
            .map(|(d, dd)| match dd {
                DimDist::Collapsed => self.global.extent(d),
                DimDist::Distributed { axis, .. } => self.local_extent(d, coords[*axis]),
            })
            .collect();
        Shape::new(exts)
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
