//! Array shapes and column-major index arithmetic.

use serde::{Deserialize, Serialize};

use crate::dims::Dims;

/// The extents of an n-dimensional array.
///
/// Linearization is Fortran column-major: dimension 0 varies fastest.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape {
    dims: Dims<usize, 3>,
}

impl Shape {
    /// Shape from extents. Zero-extent dimensions are allowed (empty array).
    pub fn new(dims: impl AsRef<[usize]>) -> Self {
        Shape {
            dims: Dims::from_slice(dims.as_ref()),
        }
    }

    /// 2-D convenience: `rows` × `cols` (dimension 0 = rows).
    pub fn matrix(rows: usize, cols: usize) -> Self {
        Shape::new([rows, cols])
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// Extent of dimension `d`.
    pub fn extent(&self, d: usize) -> usize {
        self.dims[d]
    }

    /// All extents.
    pub fn extents(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// True when the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Column-major strides: `stride[0] = 1`, `stride[d] = Π extents[..d]`.
    pub fn strides(&self) -> Vec<usize> {
        self.dim_strides().to_vec()
    }

    /// [`Shape::strides`], held inline.
    pub(crate) fn dim_strides(&self) -> Dims<usize, 3> {
        let mut stride = 1;
        self.dims
            .iter()
            .map(|&e| {
                let this = stride;
                stride *= e;
                this
            })
            .collect()
    }

    /// Linear offset of a multi-index (column-major).
    pub fn linear(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.dims.len());
        let mut off = 0;
        let mut stride = 1;
        for (d, &i) in index.iter().enumerate() {
            debug_assert!(
                i < self.dims[d],
                "index {i} out of bounds for dim {d} (extent {})",
                self.dims[d]
            );
            off += i * stride;
            stride *= self.dims[d];
        }
        off
    }

    /// Multi-index of a linear offset (column-major).
    pub fn unlinear(&self, mut off: usize) -> Vec<usize> {
        debug_assert!(off < self.len().max(1));
        let mut idx = vec![0; self.dims.len()];
        for (d, &e) in self.dims.iter().enumerate() {
            if e == 0 {
                return idx;
            }
            idx[d] = off % e;
            off /= e;
        }
        idx
    }

    /// Iterate all multi-indices in column-major order.
    pub fn indices(&self) -> IndexIter {
        IndexIter {
            shape: self.dims.to_vec(),
            next: if self.is_empty() {
                None
            } else {
                Some(vec![0; self.dims.len()])
            },
        }
    }
}

impl FromIterator<usize> for Shape {
    fn from_iter<I: IntoIterator<Item = usize>>(extents: I) -> Self {
        Shape {
            dims: extents.into_iter().collect(),
        }
    }
}

/// Iterator over multi-indices in column-major order.
#[derive(Debug)]
pub struct IndexIter {
    shape: Vec<usize>,
    next: Option<Vec<usize>>,
}

impl Iterator for IndexIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let current = self.next.clone()?;
        // Advance like an odometer, dimension 0 fastest.
        let mut idx = current.clone();
        let mut d = 0;
        loop {
            if d == self.shape.len() {
                self.next = None;
                break;
            }
            idx[d] += 1;
            if idx[d] < self.shape[d] {
                self.next = Some(idx);
                break;
            }
            idx[d] = 0;
            d += 1;
        }
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matrix_shape_basics() {
        let s = Shape::matrix(4, 6);
        assert_eq!(s.ndims(), 2);
        assert_eq!(s.extent(0), 4);
        assert_eq!(s.extent(1), 6);
        assert_eq!(s.len(), 24);
        assert_eq!(s.strides(), vec![1, 4]);
    }

    #[test]
    fn column_major_linearization() {
        let s = Shape::matrix(4, 6);
        assert_eq!(s.linear(&[0, 0]), 0);
        assert_eq!(s.linear(&[1, 0]), 1); // down a column first
        assert_eq!(s.linear(&[0, 1]), 4);
        assert_eq!(s.linear(&[3, 5]), 23);
    }

    #[test]
    fn indices_visit_all_in_cm_order() {
        let s = Shape::matrix(2, 3);
        let all: Vec<_> = s.indices().collect();
        assert_eq!(
            all,
            vec![
                vec![0, 0],
                vec![1, 0],
                vec![0, 1],
                vec![1, 1],
                vec![0, 2],
                vec![1, 2]
            ]
        );
    }

    #[test]
    fn empty_shape_iterates_nothing() {
        let s = Shape::new(vec![3, 0, 2]);
        assert!(s.is_empty());
        assert_eq!(s.indices().count(), 0);
    }

    #[test]
    fn three_d_linearization() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.strides(), vec![1, 2, 6]);
        assert_eq!(s.linear(&[1, 2, 3]), 1 + 2 * 2 + 3 * 6);
    }

    proptest! {
        #[test]
        fn linear_unlinear_roundtrip(
            d0 in 1usize..6, d1 in 1usize..6, d2 in 1usize..6, seed in 0usize..1000
        ) {
            let s = Shape::new(vec![d0, d1, d2]);
            let off = seed % s.len();
            let idx = s.unlinear(off);
            prop_assert_eq!(s.linear(&idx), off);
        }

        #[test]
        fn indices_are_sequential_offsets(d0 in 1usize..5, d1 in 1usize..5) {
            let s = Shape::matrix(d0, d1);
            for (expect, idx) in s.indices().enumerate() {
                prop_assert_eq!(s.linear(&idx), expect);
            }
        }
    }
}
