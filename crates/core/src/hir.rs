//! High-level IR: analyzed data-parallel statements.
//!
//! Lowering ([`crate::lower`]) recognizes the statement patterns the
//! compiler knows how to translate out-of-core:
//!
//! * **GAXPY matrix multiplication** — the paper's running example
//!   (Figure 3): a sequential `do j` loop around a `forall k` rank-1 update
//!   and a `SUM` reduction. This is the pattern the access-reorganization
//!   optimization targets.
//! * **Elementwise forall** — a forall nest assigning an expression of
//!   shifted references to identically-distributed arrays (Jacobi
//!   relaxation, scaled copies, AXPY…). Shifts across processor boundaries
//!   become ghost-cell exchanges.
//! * **Transpose** — `c(i,j) = a(j,i)`: a full data remapping, compiled to
//!   an out-of-core redistribution.
//! * **CSR sparse matrix–vector product** — a `do i` loop over rows whose
//!   inner `do k = rowptr(i), rowptr(i+1) - 1` accumulates
//!   `y(i) = y(i) + vals(k) * x(colidx(k))`. The `x(colidx(k))` gather is
//!   irregular, so it compiles to an inspector–executor pair.
//!
//! All bounds are 0-based half-open after lowering.

use serde::{Deserialize, Serialize};

use ooc_array::{DimRange, Distribution, Section, Shape};

/// A lowered program: resolved array table plus recognized statements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HirProgram {
    /// Arrays in declaration order (name, shape, distribution).
    pub arrays: Vec<HirArray>,
    /// Statements in execution order.
    pub stmts: Vec<HirStmt>,
    /// Total processors.
    pub nprocs: usize,
}

/// One out-of-core array.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HirArray {
    /// Source name.
    pub name: String,
    /// Global shape.
    pub shape: Shape,
    /// HPF distribution.
    pub dist: Distribution,
}

impl HirProgram {
    /// Find an array by name.
    pub fn array(&self, name: &str) -> Option<&HirArray> {
        self.arrays.iter().find(|a| a.name == name)
    }
}

/// A recognized data-parallel statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum HirStmt {
    /// GAXPY matrix multiplication `C = A·B` with A, C column-block and B
    /// row-block distributed, all `n × n`.
    Gaxpy {
        /// Left operand (column-block).
        a: String,
        /// Right operand (row-block).
        b: String,
        /// Result (column-block).
        c: String,
        /// Name of the in-core temporary from the source (kept for
        /// diagnostics; the translation keeps it in memory).
        temp: String,
        /// Matrix order.
        n: usize,
    },
    /// Elementwise forall statement.
    Elementwise(ElwStmt),
    /// `dst(i, j) = src(j, i)` over full extents.
    Transpose {
        /// Source array.
        src: String,
        /// Destination array.
        dst: String,
    },
    /// Out-of-core CSR sparse matrix–vector product: a `do i` loop over
    /// rows accumulating `y(i) = Σ vals(k)·x(colidx(k))` for `k` in
    /// `rowptr(i)..rowptr(i+1)`. The `x(colidx(k))` indirection is the
    /// irregular access the inspector–executor subsystem services.
    Spmv {
        /// Result vector, length `n`.
        y: String,
        /// CSR row pointers, length `n + 1` (1-based values in source).
        rowptr: String,
        /// CSR column indices, length `nnz` — the indirection array.
        colidx: String,
        /// CSR stored values, length `nnz`.
        vals: String,
        /// Gathered vector, length `n`.
        x: String,
        /// Matrix order (rows of A, length of `x` and `y`).
        n: usize,
        /// Stored nonzeros.
        nnz: usize,
    },
}

/// An elementwise forall: `lhs(i₀, i₁, …) = expr` for all indices in
/// `region`, where every array reference in `expr` is `array(i₀+d₀, …)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ElwStmt {
    /// Assigned array.
    pub lhs: String,
    /// Global iteration region in lhs index space (0-based half-open).
    pub region: Section,
    /// Right-hand side.
    pub rhs: ElwExpr,
}

/// Elementwise expression over shifted array references.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ElwExpr {
    /// Scalar constant.
    Const(f32),
    /// `array(i₀+offsets[0], i₁+offsets[1], …)`.
    Ref {
        /// Referenced array.
        array: String,
        /// Per-dimension shift relative to the iteration index.
        offsets: Vec<isize>,
    },
    /// Negation.
    Neg(Box<ElwExpr>),
    /// Sum.
    Add(Box<ElwExpr>, Box<ElwExpr>),
    /// Difference.
    Sub(Box<ElwExpr>, Box<ElwExpr>),
    /// Product.
    Mul(Box<ElwExpr>, Box<ElwExpr>),
    /// Quotient.
    Div(Box<ElwExpr>, Box<ElwExpr>),
}

impl ElwExpr {
    /// Unshifted reference.
    pub fn aref(array: &str, ndims: usize) -> ElwExpr {
        ElwExpr::Ref {
            array: array.to_string(),
            offsets: vec![0; ndims],
        }
    }

    /// Shifted reference.
    pub fn shifted(array: &str, offsets: Vec<isize>) -> ElwExpr {
        ElwExpr::Ref {
            array: array.to_string(),
            offsets,
        }
    }

    /// `l + r`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(l: ElwExpr, r: ElwExpr) -> ElwExpr {
        ElwExpr::Add(Box::new(l), Box::new(r))
    }

    /// `l * r`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(l: ElwExpr, r: ElwExpr) -> ElwExpr {
        ElwExpr::Mul(Box::new(l), Box::new(r))
    }

    /// All arrays referenced, with their shift offsets, in first-appearance
    /// order (each array/offsets pair once), borrowed from the expression.
    pub fn rhs_refs(&self) -> Vec<(&str, &[isize])> {
        let mut out: Vec<(&str, &[isize])> = Vec::new();
        self.visit_refs(&mut |array, offsets| {
            if !out.iter().any(|&(a, o)| a == array && o == offsets) {
                out.push((array, offsets));
            }
        });
        out
    }

    /// The largest |offset| per dimension over all references — how far a
    /// point's inputs reach, and so the ghost-zone width the translation
    /// needs.
    pub fn max_shift(&self, ndims: usize) -> Vec<usize> {
        (0..ndims).map(|d| self.shift_along(d)).collect()
    }

    /// Entry `d` of [`ElwExpr::max_shift`].
    fn shift_along(&self, d: usize) -> usize {
        let mut m = 0;
        self.visit_refs(&mut |_, offsets| {
            m = offsets.get(d).map_or(m, |o| m.max(o.unsigned_abs()));
        });
        m
    }

    /// The input of the points in `out`: `out` widened by the largest
    /// shift in every dimension ([`ElwExpr::max_shift`]) and clamped to
    /// `[0, extent)` of `bounds`. Under a rank's local shape this is the
    /// section a stage computing `out` reads from disk.
    pub fn widen(&self, out: &Section, bounds: &Shape) -> Section {
        (out.ranges().iter().enumerate())
            .map(|(d, r)| {
                let s = self.shift_along(d);
                DimRange::new(r.lo.saturating_sub(s), (r.hi + s).min(bounds.extent(d)))
            })
            .collect()
    }

    fn visit_refs<'a>(&'a self, f: &mut dyn FnMut(&'a str, &'a [isize])) {
        match self {
            ElwExpr::Const(_) => {}
            ElwExpr::Ref { array, offsets } => f(array, offsets),
            ElwExpr::Neg(inner) => inner.visit_refs(f),
            ElwExpr::Add(l, r) | ElwExpr::Sub(l, r) | ElwExpr::Mul(l, r) | ElwExpr::Div(l, r) => {
                l.visit_refs(f);
                r.visit_refs(f);
            }
        }
    }

    /// Count floating-point operations per evaluated point.
    pub fn flops_per_point(&self) -> u64 {
        match self {
            ElwExpr::Const(_) | ElwExpr::Ref { .. } => 0,
            ElwExpr::Neg(i) => 1 + i.flops_per_point(),
            ElwExpr::Add(l, r) | ElwExpr::Sub(l, r) | ElwExpr::Mul(l, r) | ElwExpr::Div(l, r) => {
                1 + l.flops_per_point() + r.flops_per_point()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooc_array::DimRange;

    fn jacobi_stmt() -> ElwStmt {
        // a(i,j) = 0.25 * (b(i-1,j) + b(i+1,j) + b(i,j-1) + b(i,j+1))
        let sum = ElwExpr::add(
            ElwExpr::add(
                ElwExpr::shifted("b", vec![-1, 0]),
                ElwExpr::shifted("b", vec![1, 0]),
            ),
            ElwExpr::add(
                ElwExpr::shifted("b", vec![0, -1]),
                ElwExpr::shifted("b", vec![0, 1]),
            ),
        );
        ElwStmt {
            lhs: "a".into(),
            region: Section::new(vec![DimRange::new(1, 7), DimRange::new(1, 7)]),
            rhs: ElwExpr::mul(ElwExpr::Const(0.25), sum),
        }
    }

    #[test]
    fn rhs_refs_dedup_and_order() {
        let s = jacobi_stmt();
        let refs = s.rhs.rhs_refs();
        assert_eq!(refs.len(), 4);
        assert_eq!(refs[0], ("b", &[-1, 0][..]));
    }

    #[test]
    fn max_shift_is_ghost_width() {
        let s = jacobi_stmt();
        assert_eq!(s.rhs.max_shift(2), vec![1, 1]);
    }

    #[test]
    fn flop_counting() {
        let s = jacobi_stmt();
        // 3 adds + 1 mul = 4 flops per point.
        assert_eq!(s.rhs.flops_per_point(), 4);
    }
}
