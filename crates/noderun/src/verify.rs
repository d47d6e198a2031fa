//! Verification helpers: global assembly and serial references.

use ooc_array::{ArrayDesc, DimRange, Section, Shape};

/// Assemble a global column-major array from per-rank local buffers (local
/// column-major order, as returned by `OocEnv::read_local_all`).
///
/// Index translation is hoisted to once per rank and dimension: each
/// dimension gets a table of global-offset contributions, and the local
/// buffer is walked one dimension-0 run (a local column) at a time.
pub fn assemble_global(desc: &ArrayDesc, per_rank: &[&[f32]]) -> (Shape, Vec<f32>) {
    let shape = desc.global_shape().clone();
    let gstrides = shape.strides();
    let cm: Vec<usize> = (0..shape.ndims()).collect();
    let mut out = vec![0.0f32; shape.len()];
    for (rank, local) in per_rank.iter().enumerate() {
        let mut contrib = desc.dist.global_index_tables(rank);
        let section: Section = contrib.iter().map(|t| DimRange::full(t.len())).collect();
        assert_eq!(local.len(), section.len(), "rank {rank} buffer size");
        for (table, s) in contrib.iter_mut().zip(&gstrides) {
            table.iter_mut().for_each(|g| *g *= s);
        }
        let mut local = *local;
        section.for_each_run(&cm, |at, len| {
            let (run, rest) = local.split_at(len);
            local = rest;
            let base: usize = (contrib.iter().zip(at).skip(1))
                .map(|(table, &i)| table[i])
                .sum();
            for (v, &c) in run.iter().zip(&contrib[0]) {
                out[base + c] = *v;
            }
        });
    }
    (shape, out)
}

/// Largest absolute element difference between two equal-length buffers.
/// A NaN against a number is an infinite difference; two NaNs, like two
/// equal infinities, count as equal.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| match (x.is_nan(), y.is_nan()) {
            (false, false) => (x - y).abs(),
            (true, true) => 0.0,
            _ => f32::INFINITY,
        })
        .fold(0.0, f32::max)
}

/// Serial reference GAXPY: C = A·B for `n × n` matrices generated by `fa`,
/// `fb` (global column-major result).
///
/// A is materialized once (n² generator calls), then each element sums its
/// products in ascending `k`, so the result bits do not depend on how the
/// loops are arranged. Plain loops, deliberately not the executor's kernel.
pub fn ref_gaxpy(n: usize, fa: &dyn Fn(&[usize]) -> f32, fb: &dyn Fn(&[usize]) -> f32) -> Vec<f32> {
    let mut a = Vec::with_capacity(n * n);
    for k in 0..n {
        for i in 0..n {
            a.push(fa(&[i, k]));
        }
    }
    let mut c = vec![0.0f32; n * n];
    for j in 0..n {
        let c_col = &mut c[j * n..(j + 1) * n];
        for k in 0..n {
            let bkj = fb(&[k, j]);
            for (cij, &aik) in c_col.iter_mut().zip(&a[k * n..(k + 1) * n]) {
                *cij += aik * bkj;
            }
        }
    }
    c
}

/// Serial reference for one 4-point Jacobi sweep on the interior of an
/// `n × n` grid initialized by `f`; boundary cells keep `f`'s values.
pub fn ref_jacobi(n: usize, f: &dyn Fn(&[usize]) -> f32) -> Vec<f32> {
    let u = |i: usize, j: usize| f(&[i, j]);
    let mut v = vec![0.0f32; n * n];
    for j in 0..n {
        for i in 0..n {
            v[i + j * n] = if i > 0 && i < n - 1 && j > 0 && j < n - 1 {
                0.25 * (u(i - 1, j) + u(i + 1, j) + u(i, j - 1) + u(i, j + 1))
            } else {
                u(i, j)
            };
        }
    }
    v
}

/// Serial reference transpose of an `n × n` matrix generated by `f`.
pub fn ref_transpose(n: usize, f: &dyn Fn(&[usize]) -> f32) -> Vec<f32> {
    let mut t = vec![0.0f32; n * n];
    for j in 0..n {
        for i in 0..n {
            t[i + j * n] = f(&[j, i]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooc_array::{local_to_global, ArrayId, DimDist, DistKind, Distribution, ProcGrid, Section};
    use pario::ElemKind;
    use proptest::prelude::*;

    #[test]
    fn assemble_inverts_distribution() {
        let shape = Shape::matrix(6, 8);
        let desc = ArrayDesc::new(
            ArrayId(0),
            "x",
            ElemKind::F32,
            Distribution::column_block(shape.clone(), 4),
        );
        // Build per-rank local buffers holding the global value directly.
        let mut locals: Vec<Vec<f32>> = Vec::new();
        for rank in 0..4 {
            let ls = desc.local_shape(rank);
            let mut buf = Vec::with_capacity(ls.len());
            for idx in Section::full(&ls).indices() {
                let g = local_to_global(&desc.dist, rank, &idx);
                buf.push((g[0] * 10 + g[1]) as f32);
            }
            locals.push(buf);
        }
        let refs: Vec<&[f32]> = locals.iter().map(|v| v.as_slice()).collect();
        let (gshape, global) = assemble_global(&desc, &refs);
        for (off, idx) in Section::full(&gshape).indices().enumerate() {
            assert_eq!(global[off], (idx[0] * 10 + idx[1]) as f32);
        }
    }

    /// The per-element scatter `assemble_global` replaced: the reference.
    fn scatter_reference(desc: &ArrayDesc, per_rank: &[&[f32]]) -> Vec<f32> {
        let shape = desc.global_shape();
        let mut out = vec![0.0f32; shape.len()];
        for (rank, local) in per_rank.iter().enumerate() {
            for (off, idx) in Section::full(&desc.local_shape(rank)).indices().enumerate() {
                out[shape.linear(&local_to_global(&desc.dist, rank, &idx))] = local[off];
            }
        }
        out
    }

    /// Every rank's local buffer filled with values unique machine-wide.
    fn distinct_locals(desc: &ArrayDesc) -> Vec<Vec<f32>> {
        (0..desc.dist.nprocs())
            .map(|r| {
                let n = desc.local_shape(r).len();
                (0..n).map(|k| (r * 10_000 + k) as f32).collect()
            })
            .collect()
    }

    fn assert_assembles_like_the_reference(desc: &ArrayDesc) {
        let locals = distinct_locals(desc);
        let refs: Vec<&[f32]> = locals.iter().map(|v| v.as_slice()).collect();
        let (shape, got) = assemble_global(desc, &refs);
        assert_eq!(&shape, desc.global_shape());
        assert_eq!(got, scatter_reference(desc, &refs), "{:?}", desc.dist);
    }

    #[test]
    fn assemble_skips_ranks_with_empty_parts() {
        // Blocks of ceil(5/4) = 2 rows: rank 3 owns nothing.
        let desc = ArrayDesc::new(
            ArrayId(0),
            "x",
            ElemKind::F32,
            Distribution::row_block(Shape::matrix(5, 3), 4),
        );
        assert!(desc.local_shape(3).is_empty());
        assert_assembles_like_the_reference(&desc);
    }

    proptest! {
        #[test]
        fn assemble_matches_the_per_element_scatter(
            ndims in 1usize..4,
            n in proptest::collection::vec(1usize..9, 3..4),
            kinds in proptest::collection::vec(0usize..4, 3..4),
            p in proptest::collection::vec(1usize..5, 3..4),
            b in 1usize..4,
        ) {
            // Collapsed / block / cyclic / block-cyclic per dimension, each
            // distributed dimension on its own grid axis; p need not divide
            // n, and a rank may own nothing.
            let mut dims = Vec::new();
            let mut grid = Vec::new();
            for d in 0..ndims {
                let kind = match kinds[d] {
                    0 => {
                        dims.push(DimDist::Collapsed);
                        continue;
                    }
                    1 => DistKind::Block,
                    2 => DistKind::Cyclic,
                    _ => DistKind::BlockCyclic(b),
                };
                dims.push(DimDist::Distributed { kind, axis: grid.len() });
                grid.push(p[d]);
            }
            if grid.is_empty() {
                dims[0] = DimDist::Distributed { kind: DistKind::Block, axis: 0 };
                grid.push(p[0]);
            }
            let dist = Distribution::new(Shape::new(&n[..ndims]), dims, ProcGrid::new(grid));
            assert_assembles_like_the_reference(&ArrayDesc::new(ArrayId(0), "x", ElemKind::F32, dist));
        }
    }

    #[test]
    fn gaxpy_reference_identity() {
        // A = I: C must equal B.
        let n = 5;
        let fa = |g: &[usize]| if g[0] == g[1] { 1.0 } else { 0.0 };
        let fb = |g: &[usize]| (g[0] * 7 + g[1]) as f32;
        let c = ref_gaxpy(n, &fa, &fb);
        for j in 0..n {
            for i in 0..n {
                assert_eq!(c[i + j * n], fb(&[i, j]));
            }
        }
    }

    #[test]
    fn jacobi_reference_constant_field() {
        // A constant field is a fixed point of the sweep.
        let c = ref_jacobi(6, &|_| 3.5);
        assert!(c.iter().all(|&v| v == 3.5));
    }

    #[test]
    fn transpose_reference_involution() {
        let n = 4;
        let f = |g: &[usize]| (g[0] * 10 + g[1]) as f32;
        let t = ref_transpose(n, &f);
        for j in 0..n {
            for i in 0..n {
                assert_eq!(t[i + j * n], f(&[j, i]));
            }
        }
    }

    #[test]
    fn max_abs_diff_finds_the_worst() {
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.0, 2.5]), 0.5);
        assert_eq!(max_abs_diff(&[], &[]), 0.0);
    }

    #[test]
    fn max_abs_diff_sees_a_nan() {
        assert_eq!(max_abs_diff(&[f32::NAN], &[1.0]), f32::INFINITY);
        assert_eq!(max_abs_diff(&[1.0], &[f32::NAN]), f32::INFINITY);
        assert_eq!(max_abs_diff(&[f32::NAN, 2.0], &[f32::NAN, 2.5]), 0.5);
        assert_eq!(max_abs_diff(&[f32::INFINITY], &[f32::INFINITY]), 0.0);
    }
}
