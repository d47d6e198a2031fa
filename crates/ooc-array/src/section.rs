//! Regular array sections (`l:u:s` per dimension, 0-based half-open).
//!
//! Sections describe both the iteration spaces the compiler stripmines and
//! the slabs the runtime fetches. They support the intersection algebra the
//! in-core compilation phase needs to compute local bounds.

use serde::{Deserialize, Serialize};

use crate::dims::Dims;
use crate::shape::Shape;

/// A strided range over one dimension: indices `lo, lo+step, … < hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DimRange {
    /// Inclusive lower bound.
    pub lo: usize,
    /// Exclusive upper bound.
    pub hi: usize,
    /// Stride (≥ 1).
    pub step: usize,
}

impl DimRange {
    /// `lo..hi` with stride 1.
    pub fn new(lo: usize, hi: usize) -> Self {
        DimRange { lo, hi, step: 1 }
    }

    /// `lo..hi` with an explicit stride.
    pub fn strided(lo: usize, hi: usize, step: usize) -> Self {
        assert!(step >= 1, "stride must be positive");
        DimRange { lo, hi, step }
    }

    /// The full extent of a dimension.
    pub fn full(extent: usize) -> Self {
        DimRange::new(0, extent)
    }

    /// A single index.
    pub fn single(i: usize) -> Self {
        DimRange::new(i, i + 1)
    }

    /// Number of indices in the range.
    pub fn len(&self) -> usize {
        if self.hi <= self.lo {
            0
        } else {
            (self.hi - self.lo).div_ceil(self.step)
        }
    }

    /// True when the range selects nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the range is `0..extent` with stride 1.
    pub fn covers(&self, extent: usize) -> bool {
        self.step == 1 && self.lo == 0 && self.hi >= extent
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        i >= self.lo && i < self.hi && (i - self.lo).is_multiple_of(self.step)
    }

    /// Iterate the indices.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (self.lo..self.hi).step_by(self.step)
    }

    /// Intersection with another range, exact for any pair of strides: the
    /// common indices recur every lcm of the two steps. `None` when they
    /// share no index.
    pub fn intersect(&self, other: &DimRange) -> Option<DimRange> {
        let (lo, hi) = (self.lo.max(other.lo), self.hi.min(other.hi));
        // Two dense ranges, the common case, need no lattice walk.
        if self.step == 1 && other.step == 1 {
            return (lo < hi).then(|| DimRange::new(lo, hi));
        }
        // Walk the coarser lattice from the higher lower bound: the first
        // common index is among its next `fine.step / gcd` indices.
        let (coarse, fine) = if self.step >= other.step {
            (self, other)
        } else {
            (other, self)
        };
        let start = coarse.lo + (lo - coarse.lo).div_ceil(coarse.step) * coarse.step;
        let (mut a, mut b) = (coarse.step, fine.step);
        while b != 0 {
            (a, b) = (b, a % b);
        }
        let first = (0..fine.step / a)
            .map(|k| start + k * coarse.step)
            .find(|i| (i - fine.lo).is_multiple_of(fine.step))?;
        (first < hi).then(|| DimRange::strided(first, hi, coarse.step / a * fine.step))
    }
}

/// An n-dimensional regular section: one [`DimRange`] per dimension.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Section {
    ranges: Dims<DimRange, 3>,
}

impl Section {
    /// Section from per-dimension ranges.
    pub fn new(ranges: impl AsRef<[DimRange]>) -> Self {
        Section {
            ranges: Dims::from_slice(ranges.as_ref()),
        }
    }

    /// The whole of `shape`.
    pub fn full(shape: &Shape) -> Self {
        Section {
            ranges: shape.extents().iter().map(|&e| DimRange::full(e)).collect(),
        }
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.ranges.len()
    }

    /// Range along dimension `d`.
    pub fn range(&self, d: usize) -> DimRange {
        self.ranges[d]
    }

    /// All ranges.
    pub fn ranges(&self) -> &[DimRange] {
        &self.ranges
    }

    /// Replace the range along dimension `d` (builder style).
    pub fn with_range(mut self, d: usize, r: DimRange) -> Self {
        self.ranges[d] = r;
        self
    }

    /// Number of selected elements.
    pub fn len(&self) -> usize {
        self.ranges.iter().map(|r| r.len()).product()
    }

    /// True when the section selects nothing.
    pub fn is_empty(&self) -> bool {
        self.ranges.iter().any(|r| r.is_empty())
    }

    /// The extents of the section viewed as a dense array of its own.
    pub fn shape(&self) -> Shape {
        self.ranges.iter().map(|r| r.len()).collect()
    }

    /// Element-wise intersection; `None` if empty or not representable.
    pub fn intersect(&self, other: &Section) -> Option<Section> {
        assert_eq!(self.ndims(), other.ndims(), "rank mismatch");
        let ranges = (self.ranges.iter().zip(other.ranges.iter()))
            .map(|(a, b)| a.intersect(b))
            .collect::<Option<Dims<DimRange, 3>>>()?;
        Some(Section { ranges })
    }

    /// Membership test for a multi-index.
    pub fn contains(&self, index: &[usize]) -> bool {
        index.len() == self.ndims() && self.ranges.iter().zip(index).all(|(r, &i)| r.contains(i))
    }

    /// Linear offsets `Σ idx[d]·strides[d]` of the selected multi-indices,
    /// in the column-major order of [`Section::indices`] — the per-element
    /// walk that scatters a section buffer into a larger one. Allocates
    /// nothing for up to four dimensions, and never per element.
    pub fn offsets<'a>(&'a self, strides: &'a [usize]) -> SectionOffsets<'a> {
        assert_eq!(strides.len(), self.ndims(), "one stride per dimension");
        SectionOffsets {
            ranges: &self.ranges,
            strides,
            idx: self.ranges.iter().map(|r| r.lo).collect(),
            off: self.ranges.iter().zip(strides).map(|(r, s)| r.lo * s).sum(),
            left: self.len(),
        }
    }

    /// Walk the section one run at a time: the one odometer over a
    /// section's dimensions. `order` lists distinct dimensions, fastest
    /// first; `f` gets each run's first multi-index and its length, a run
    /// being the range along `order[0]`, and the dimensions in `order[1..]`
    /// advance as an odometer between runs. Dimensions `order` leaves out
    /// stay at their range start, so an empty order (and a 0-D section) is
    /// one run of length 1; an empty section has no run. The caller turns
    /// the index into offsets under whatever strides it needs. Allocates
    /// nothing for up to three dimensions.
    pub fn for_each_run(&self, order: &[usize], mut f: impl FnMut(&[usize], usize)) {
        if self.is_empty() {
            return;
        }
        let mut at: Dims<usize, 3> = self.ranges.iter().map(|r| r.lo).collect();
        let Some((&run, outer)) = order.split_first() else {
            return f(&at, 1);
        };
        let len = self.ranges[run].len();
        'runs: loop {
            f(&at, len);
            for &d in outer {
                let r = self.ranges[d];
                at[d] += r.step;
                if at[d] < r.hi {
                    continue 'runs;
                }
                at[d] = r.lo;
            }
            return;
        }
    }

    /// Iterate the selected multi-indices in column-major order (dimension 0
    /// fastest).
    pub fn indices(&self) -> impl Iterator<Item = Vec<usize>> + '_ {
        let sec_shape = self.shape();
        sec_shape.indices().map(move |rel| {
            rel.iter()
                .enumerate()
                .map(|(d, &k)| self.ranges[d].lo + k * self.ranges[d].step)
                .collect()
        })
    }
}

impl FromIterator<DimRange> for Section {
    fn from_iter<I: IntoIterator<Item = DimRange>>(ranges: I) -> Self {
        Section {
            ranges: ranges.into_iter().collect(),
        }
    }
}

impl AsRef<[DimRange]> for Section {
    fn as_ref(&self) -> &[DimRange] {
        &self.ranges
    }
}

/// Linear offset `Σ index[d]·strides[d]` of a multi-index.
pub(crate) fn offset(index: &[usize], strides: &[usize]) -> usize {
    index.iter().zip(strides).map(|(i, s)| i * s).sum()
}

/// Iterator of [`Section::offsets`]: an odometer over the section that
/// carries the linear offset along with the multi-index.
#[derive(Debug)]
pub struct SectionOffsets<'a> {
    ranges: &'a [DimRange],
    strides: &'a [usize],
    idx: Dims<usize, 3>,
    off: usize,
    left: usize,
}

impl Iterator for SectionOffsets<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        self.left = self.left.checked_sub(1)?;
        let cur = self.off;
        for ((i, r), s) in self.idx.iter_mut().zip(self.ranges).zip(self.strides) {
            *i += r.step;
            self.off += r.step * s;
            if *i < r.hi {
                break;
            }
            self.off -= (*i - r.lo) * s;
            *i = r.lo;
        }
        Some(cur)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for SectionOffsets<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn range_len_and_contains() {
        let r = DimRange::strided(2, 11, 3); // 2, 5, 8
        assert_eq!(r.len(), 3);
        assert!(r.contains(5));
        assert!(!r.contains(6));
        assert!(!r.contains(11));
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![2, 5, 8]);
    }

    #[test]
    fn dense_intersection() {
        let a = DimRange::new(0, 10);
        let b = DimRange::new(5, 20);
        assert_eq!(a.intersect(&b), Some(DimRange::new(5, 10)));
        assert_eq!(b.intersect(&a), Some(DimRange::new(5, 10)));
        assert_eq!(a.intersect(&DimRange::new(10, 12)), None);
    }

    #[test]
    fn strided_vs_dense_intersection() {
        let s = DimRange::strided(1, 20, 4); // 1,5,9,13,17
        let d = DimRange::new(6, 18);
        let got = s.intersect(&d).unwrap();
        assert_eq!(got.iter().collect::<Vec<_>>(), vec![9, 13, 17]);
        let got2 = d.intersect(&s).unwrap();
        assert_eq!(got2.iter().collect::<Vec<_>>(), vec![9, 13, 17]);
    }

    #[test]
    fn intersection_of_different_strides_keeps_their_common_lattice() {
        // 1, 3, 5, … ∩ 3, 6, 9, … = 3, 9, 15.
        let (odd, threes) = (DimRange::strided(1, 20, 2), DimRange::strided(3, 20, 3));
        assert_eq!(odd.intersect(&threes), Some(DimRange::strided(3, 20, 6)));
        assert_eq!(threes.intersect(&odd), Some(DimRange::strided(3, 20, 6)));
        // 0, 4, 8, … and 2, 6, 10, … never meet.
        let (fours, twos) = (DimRange::strided(0, 20, 4), DimRange::strided(2, 20, 4));
        assert_eq!(fours.intersect(&twos), None);
        assert_eq!(fours.intersect(&DimRange::strided(1, 20, 2)), None);
    }

    #[test]
    fn section_basics() {
        let s = Section::new(vec![DimRange::new(1, 3), DimRange::new(0, 4)]);
        assert_eq!(s.len(), 8);
        assert_eq!(s.shape().extents(), &[2, 4]);
        assert!(s.contains(&[2, 3]));
        assert!(!s.contains(&[3, 3]));
    }

    #[test]
    fn section_indices_cm_order() {
        let s = Section::new(vec![DimRange::new(1, 3), DimRange::new(5, 7)]);
        let idx: Vec<_> = s.indices().collect();
        assert_eq!(idx, vec![vec![1, 5], vec![2, 5], vec![1, 6], vec![2, 6]]);
    }

    #[test]
    fn full_section_covers_shape() {
        let shape = Shape::matrix(3, 5);
        let s = Section::full(&shape);
        assert_eq!(s.len(), 15);
        assert!(s.range(0).covers(3));
        assert!(s.range(1).covers(5));
    }

    #[test]
    fn empty_intersection_is_none() {
        let a = Section::new(vec![DimRange::new(0, 2), DimRange::new(0, 2)]);
        let b = Section::new(vec![DimRange::new(2, 4), DimRange::new(0, 2)]);
        assert!(a.intersect(&b).is_none());
    }

    proptest! {
        #[test]
        fn intersection_matches_pointwise(
            alo in 0usize..15, alen in 0usize..15, astep in 1usize..4,
            blo in 0usize..15, blen in 0usize..15, bstep in 1usize..5,
        ) {
            let a = DimRange::strided(alo, alo + alen, astep);
            let b = DimRange::strided(blo, blo + blen, bstep);
            let got: Vec<usize> = match a.intersect(&b) {
                Some(r) => r.iter().collect(),
                None => vec![],
            };
            let expect: Vec<usize> =
                (0..40).filter(|&i| a.contains(i) && b.contains(i)).collect();
            prop_assert_eq!(got, expect);
        }

        #[test]
        fn section_len_equals_index_count(
            l0 in 0usize..4, n0 in 0usize..4, l1 in 0usize..4, n1 in 0usize..4
        ) {
            let s = Section::new(vec![
                DimRange::new(l0, l0 + n0),
                DimRange::new(l1, l1 + n1),
            ]);
            prop_assert_eq!(s.indices().count(), s.len());
            prop_assert_eq!(s.is_empty(), s.is_empty());
        }

        #[test]
        fn offset_walk_matches_indices_dot_strides(
            lo in proptest::collection::vec(0usize..5, 3..4),
            len in proptest::collection::vec(0usize..5, 3..4),
            step in proptest::collection::vec(1usize..4, 3..4),
            strides in proptest::collection::vec(1usize..50, 3..4),
            ndims in 1usize..4,
        ) {
            // Strided, single-index (len 1) and empty (len 0) ranges, 1-D
            // to 3-D, under arbitrary (even overlapping) strides.
            let s = Section::new(
                (0..ndims)
                    .map(|d| DimRange::strided(lo[d], lo[d] + len[d] * step[d], step[d]))
                    .collect::<Vec<_>>(),
            );
            let strides = &strides[..ndims];
            let expect: Vec<usize> = s
                .indices()
                .map(|i| i.iter().zip(strides).map(|(i, s)| i * s).sum())
                .collect();
            let walk = s.offsets(strides);
            prop_assert_eq!(walk.len(), s.len());
            prop_assert_eq!(walk.collect::<Vec<_>>(), expect);
        }

        #[test]
        fn run_walk_matches_the_reordered_indices(s in sections()) {
            for order in orders(s.ndims()) {
                // Dimensions left out of the order are pinned at their
                // range start; the rest vary `order[0]` fastest.
                let pinned: Section = (0..s.ndims())
                    .map(|d| if order.contains(&d) {
                        s.range(d)
                    } else {
                        DimRange::single(s.range(d).lo)
                    })
                    .collect();
                let mut want: Vec<Vec<usize>> = if s.is_empty() {
                    Vec::new()
                } else {
                    pinned.indices().collect()
                };
                want.sort_by_key(|i| order.iter().rev().map(|&d| i[d]).collect::<Vec<_>>());
                let mut got = Vec::new();
                s.for_each_run(&order, |at, len| {
                    for k in 0..len {
                        let mut i = at.to_vec();
                        if let Some(&d) = order.first() {
                            i[d] += k * s.range(d).step;
                        }
                        got.push(i);
                    }
                });
                prop_assert_eq!(&got, &want, "order {:?}", order);
            }
        }
    }

    /// A 0-D to 3-D section over extents ≤ 6, with strided, single-index
    /// and empty (`hi <= lo`) ranges.
    fn sections() -> impl Strategy<Value = Section> {
        proptest::collection::vec((0usize..6, 0usize..7, 1usize..4), 0..4).prop_map(|dims| {
            dims.into_iter()
                .map(|(lo, hi, step)| DimRange::strided(lo, hi, step))
                .collect()
        })
    }

    /// Every ordered selection of distinct dimensions out of `0..n`: every
    /// permutation, and every proper subset in every order.
    fn orders(n: usize) -> Vec<Vec<usize>> {
        let mut all = vec![Vec::new()];
        let mut k = 0;
        while k < all.len() {
            let picked = all[k].clone();
            all.extend((0..n).filter(|d| !picked.contains(d)).map(|d| {
                let mut next = picked.clone();
                next.push(d);
                next
            }));
            k += 1;
        }
        all
    }

    #[test]
    fn a_zero_dimensional_section_is_one_run_and_an_empty_one_none() {
        let mut runs = Vec::new();
        Section::new(Vec::<DimRange>::new()).for_each_run(&[], |at, len| {
            runs.push((at.to_vec(), len));
        });
        assert_eq!(runs, vec![(vec![], 1)]);
        let empty = Section::new(vec![DimRange::new(0, 4), DimRange::new(3, 3)]);
        for order in orders(2) {
            empty.for_each_run(&order, |at, len| panic!("run {at:?}+{len} of {order:?}"));
        }
    }
}
