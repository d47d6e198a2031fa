//! Inline storage for per-dimension values.
//!
//! Shapes, sections, processor grids, file layouts and distributions each
//! hold one value per dimension. In a `Vec`, every shape the compiler
//! derives, every section it tallies and every descriptor it clones would
//! be a heap allocation, for lists of one to three entries. [`Dims`] keeps
//! a few of them inline and spills longer lists to the heap, so index math
//! on the arrays programs declare never allocates.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

use crate::dist::DimDist;
use crate::section::DimRange;

/// A value an inline [`Dims`] pads its unused slots with. The padding is
/// never read: a `Dims` is only ever seen as the slice of its entries.
pub(crate) trait Pad: Copy {
    const PAD: Self;
}

impl Pad for usize {
    const PAD: usize = 0;
}

impl Pad for DimRange {
    const PAD: DimRange = DimRange {
        lo: 0,
        hi: 0,
        step: 1,
    };
}

impl Pad for DimDist {
    const PAD: DimDist = DimDist::Collapsed;
}

/// A short list of per-dimension values, inline up to `N` entries. `N` is
/// chosen per use so a descriptor stays small: three extents fill the
/// bytes a `Vec` header takes anyway. It behaves as the slice it holds:
/// equality, hashing and `Debug` are the slice's, exactly as they were over
/// a `Vec`.
#[derive(Clone)]
pub(crate) enum Dims<T: Pad, const N: usize> {
    Inline { len: u8, items: [T; N] },
    Heap(Vec<T>),
}

impl<T: Pad, const N: usize> Dims<T, N> {
    /// The entries of `values`, copied.
    pub(crate) fn from_slice(values: &[T]) -> Self {
        if values.len() > N {
            return Dims::Heap(values.to_vec());
        }
        let mut items = [T::PAD; N];
        items[..values.len()].copy_from_slice(values);
        Dims::Inline {
            len: values.len() as u8,
            items,
        }
    }
}

impl<T: Pad, const N: usize> FromIterator<T> for Dims<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut items = [T::PAD; N];
        let mut len = 0;
        let mut iter = iter.into_iter();
        for v in iter.by_ref() {
            if len == N {
                let mut heap = items.to_vec();
                heap.push(v);
                heap.extend(iter);
                return Dims::Heap(heap);
            }
            items[len] = v;
            len += 1;
        }
        Dims::Inline {
            len: len as u8,
            items,
        }
    }
}

impl<T: Pad, const N: usize> Deref for Dims<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            Dims::Inline { len, items } => &items[..*len as usize],
            Dims::Heap(v) => v,
        }
    }
}

impl<T: Pad, const N: usize> DerefMut for Dims<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            Dims::Inline { len, items } => &mut items[..*len as usize],
            Dims::Heap(v) => v,
        }
    }
}

impl<'a, T: Pad, const N: usize> IntoIterator for &'a Dims<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Pad + PartialEq, const N: usize> PartialEq for Dims<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Pad + Eq, const N: usize> Eq for Dims<T, N> {}

impl<T: Pad + Hash, const N: usize> Hash for Dims<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state)
    }
}

impl<T: Pad + fmt::Debug, const N: usize> fmt::Debug for Dims<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_lists_stay_inline_and_long_ones_spill_unchanged() {
        for n in 0..=6 {
            let values: Vec<usize> = (10..10 + n).collect();
            let from_slice = Dims::<usize, 3>::from_slice(&values);
            let collected: Dims<usize, 3> = values.iter().copied().collect();
            assert_eq!(&*from_slice, &values[..]);
            assert_eq!(&*collected, &values[..]);
            assert_eq!(matches!(collected, Dims::Inline { .. }), n <= 3);
            assert_eq!(format!("{from_slice:?}"), format!("{values:?}"));
            assert_eq!(format!("{collected:#?}"), format!("{values:#?}"));
        }
    }

    #[test]
    fn equality_and_hash_are_the_slices() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |h: &dyn Fn(&mut DefaultHasher)| {
            let mut s = DefaultHasher::new();
            h(&mut s);
            s.finish()
        };
        let v = vec![3usize, 1, 4];
        let d = Dims::<usize, 2>::from_slice(&v);
        assert_eq!(d, [3usize, 1, 4].into_iter().collect());
        assert_ne!(d, Dims::from_slice(&[3, 1]));
        assert_eq!(hash(&|s| d.hash(s)), hash(&|s| v.hash(s)));
    }
}
