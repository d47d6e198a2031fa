//! Localization: translating between global and local index spaces.
//!
//! These are the "in-core phase" primitives of the compilation flow chart
//! (Figure 7): computing local bounds for each processor from the global
//! iteration space, and finding owners of produced values.

use crate::dist::{DimDist, DistKind, Distribution};
use crate::section::{DimRange, Section};
use crate::shape::Shape;

/// Rank of the processor owning the element at `index`.
pub fn owner_of(dist: &Distribution, index: &[usize]) -> usize {
    dist.owner(index)
}

/// Shape of the out-of-core local array of `rank` — the OCLA extents.
pub fn local_part(dist: &Distribution, rank: usize) -> Shape {
    dist.local_shape(rank)
}

/// Restrict a *global* section to the part owned by `rank`, expressed in
/// *local* indices. Returns `None` when the processor owns nothing of it.
///
/// Exact for block, cyclic and collapsed dimensions; block-cyclic
/// distributions do not produce regular local sections and return `None`
/// (callers fall back to element-wise transfer).
pub fn local_section_of_global(
    dist: &Distribution,
    rank: usize,
    global: &Section,
) -> Option<Section> {
    assert_eq!(global.ndims(), dist.global().ndims(), "rank mismatch");
    (0..global.ndims())
        .map(|d| {
            let coord = dist.dim_coord(d, rank);
            let isect = dist.owned_range(d, coord)?.intersect(&global.range(d))?;
            global_range_to_local(dist, d, coord, isect)
        })
        .collect()
}

/// `r`, global indices along dimension `d` that grid coordinate `coord`
/// owns all of, in its local indices; `None` when they are not a regular
/// local range.
pub(crate) fn global_range_to_local(
    dist: &Distribution,
    d: usize,
    coord: usize,
    r: DimRange,
) -> Option<DimRange> {
    match dist.dims()[d] {
        DimDist::Collapsed => Some(r),
        DimDist::Distributed { kind, axis } => {
            let p = dist.grid().extent(axis);
            match kind {
                DistKind::Block => {
                    let base = dist.global_index(d, coord, 0);
                    Some(DimRange::strided(r.lo - base, r.hi - base, r.step))
                }
                DistKind::Cyclic => {
                    // Global indices owned here are ≡ coord (mod p); the
                    // intersected range has lo ≡ coord and stride k·p.
                    if !r.step.is_multiple_of(p) && r.len() > 1 {
                        return None;
                    }
                    let lstep = if r.len() > 1 { r.step / p } else { 1 };
                    let llo = (r.lo - coord) / p;
                    let llen = r.len();
                    Some(DimRange::strided(llo, llo + (llen - 1) * lstep + 1, lstep))
                }
                DistKind::BlockCyclic(_) => None,
            }
        }
    }
}

/// The global section corresponding to the whole OCLA of `rank`, when it is
/// regular (block/cyclic/collapsed dimensions).
pub fn global_section_of_local(dist: &Distribution, rank: usize) -> Option<Section> {
    (0..dist.global().ndims())
        .map(|d| dist.owned_range(d, dist.dim_coord(d, rank)))
        .collect()
}

/// Map a full global multi-index to `(rank, local index)`.
pub fn global_to_local(dist: &Distribution, index: &[usize]) -> (usize, Vec<usize>) {
    let rank = dist.owner(index);
    let local = index
        .iter()
        .enumerate()
        .map(|(d, &g)| dist.local_index(d, g))
        .collect();
    (rank, local)
}

/// Map a local multi-index on `rank` back to the global index.
pub fn local_to_global(dist: &Distribution, rank: usize, local: &[usize]) -> Vec<usize> {
    local
        .iter()
        .enumerate()
        .map(|(d, &l)| dist.global_index(d, dist.dim_coord(d, rank), l))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::ProcGrid;
    use proptest::prelude::*;

    #[test]
    fn column_block_local_sections() {
        // 8x8 over 4 procs, column-block: proc 2 owns columns 4..6.
        let d = Distribution::column_block(Shape::matrix(8, 8), 4);
        let global = Section::new(vec![DimRange::new(0, 8), DimRange::new(3, 7)]);
        let local = local_section_of_global(&d, 2, &global).unwrap();
        assert_eq!(local.range(0), DimRange::new(0, 8));
        assert_eq!(local.range(1), DimRange::new(0, 2)); // cols 4,5 -> local 0,1
                                                         // Proc 0 owns columns 0..2, disjoint from 3..7.
        assert!(local_section_of_global(&d, 0, &global).is_none());
    }

    /// Owner-computes iteration counts of `region` on each rank.
    fn per_rank_iterations(d: &Distribution, region: &Section) -> Vec<usize> {
        (0..d.nprocs())
            .map(|r| local_section_of_global(d, r, region).map_or(0, |s| s.len()))
            .collect()
    }

    #[test]
    fn partition_covers_region_exactly() {
        // Columns 1..7 of an 8x8 column-block matrix over 4 procs (2 cols
        // each): the edge procs own one column of it, the inner ones two.
        let d = Distribution::column_block(Shape::matrix(8, 8), 4);
        let region = Section::new(vec![DimRange::new(1, 7), DimRange::new(1, 7)]);
        let per_rank = per_rank_iterations(&d, &region);
        assert_eq!(per_rank.iter().sum::<usize>(), region.len());
        assert_eq!(per_rank, vec![6, 12, 12, 6]);
    }

    #[test]
    fn full_region_is_balanced() {
        let d = Distribution::column_block(Shape::matrix(8, 8), 4);
        let full = Section::full(&Shape::matrix(8, 8));
        assert_eq!(per_rank_iterations(&d, &full), vec![16; 4]);
    }

    #[test]
    fn empty_processor_gets_none() {
        // A proc owning none of the region's columns executes nothing.
        let d = Distribution::column_block(Shape::matrix(4, 4), 4);
        let first_col = Section::new(vec![DimRange::new(0, 4), DimRange::new(0, 1)]);
        assert!(local_section_of_global(&d, 0, &first_col).is_some());
        assert!(local_section_of_global(&d, 3, &first_col).is_none());
    }

    #[test]
    fn row_block_local_sections() {
        let d = Distribution::row_block(Shape::matrix(8, 8), 2);
        let global = Section::new(vec![DimRange::new(2, 6), DimRange::single(7)]);
        let p0 = local_section_of_global(&d, 0, &global).unwrap();
        assert_eq!(p0.range(0), DimRange::new(2, 4));
        let p1 = local_section_of_global(&d, 1, &global).unwrap();
        assert_eq!(p1.range(0), DimRange::new(0, 2));
        assert_eq!(p1.range(1), DimRange::single(7));
    }

    #[test]
    fn cyclic_local_sections() {
        let d = Distribution::new(
            Shape::new(vec![10]),
            vec![DimDist::Distributed {
                kind: DistKind::Cyclic,
                axis: 0,
            }],
            ProcGrid::line(3),
        );
        // Global 2..9 on coord 1 (owns 1,4,7): intersection 4,7 -> local 1,2.
        let global = Section::new(vec![DimRange::new(2, 9)]);
        let local = local_section_of_global(&d, 1, &global).unwrap();
        assert_eq!(local.range(0).iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn global_local_roundtrip_pointwise() {
        let d = Distribution::column_block(Shape::matrix(6, 9), 3);
        for idx in Shape::matrix(6, 9).indices() {
            let (rank, local) = global_to_local(&d, &idx);
            let back = local_to_global(&d, rank, &local);
            assert_eq!(back, idx);
        }
    }

    #[test]
    fn whole_local_part_as_global_section() {
        let d = Distribution::row_block(Shape::matrix(10, 4), 3);
        // blocks of 4: proc 2 owns rows 8..10.
        let s = global_section_of_local(&d, 2).unwrap();
        assert_eq!(s.range(0), DimRange::new(8, 10));
        assert_eq!(s.range(1), DimRange::new(0, 4));
        assert_eq!(s.shape(), local_part(&d, 2));
    }

    proptest! {
        #[test]
        fn local_sections_partition_any_global_section(
            n0 in 1usize..12, n1 in 1usize..12, p in 1usize..5,
            lo0 in 0usize..12, len0 in 0usize..12,
            lo1 in 0usize..12, len1 in 0usize..12,
            colblock in proptest::bool::ANY,
        ) {
            let shape = Shape::matrix(n0, n1);
            let dist = if colblock {
                Distribution::column_block(shape.clone(), p)
            } else {
                Distribution::row_block(shape.clone(), p)
            };
            let g = Section::new(vec![
                DimRange::new(lo0.min(n0), (lo0 + len0).min(n0)),
                DimRange::new(lo1.min(n1), (lo1 + len1).min(n1)),
            ]);
            // Each global element of g appears in exactly one local section.
            let mut count = 0usize;
            for rank in 0..p {
                if let Some(local) = local_section_of_global(&dist, rank, &g) {
                    for l in local.indices() {
                        let back = local_to_global(&dist, rank, &l);
                        prop_assert!(g.contains(&back), "{:?} not in section", back);
                        prop_assert_eq!(owner_of(&dist, &back), rank);
                        count += 1;
                    }
                }
            }
            prop_assert_eq!(count, g.len());
        }
    }
}
