//! # hpf — a mini High Performance Fortran front end
//!
//! Parses the HPF subset the paper compiles (its Figure 3 program parses
//! verbatim, modulo an explicit `*` the scanned paper dropped):
//!
//! * `parameter (name=value, …)` integer constants;
//! * `real a(n,n), …` array declarations;
//! * `!hpf$ processors P(np)` / `!hpf$ template t(n)` /
//!   `!hpf$ distribute t(block) on P` (also `cyclic`, `cyclic(b)`, `*`, and
//!   direct `distribute a(block, *) on P`) /
//!   `!hpf$ align (*,:) with t :: a, b`;
//! * `do v = lo, hi` … `end do` sequential loops;
//! * `forall (i=lo:hi, …)` … `end forall` parallel loops;
//! * array assignments with triplet sections `a(1:n, j)` and the `SUM`
//!   reduction intrinsic.
//!
//! Semantic analysis ([`sema::analyze`]) resolves parameters, shapes,
//! alignment and distribution directives into concrete
//! [`ooc_array::Distribution`]s — the information the out-of-core compiler's
//! in-core phase starts from.

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod sema;

pub use ast::{AlignDim, BinOp, Directive, DistSpec, Expr, Program, Stmt, Subscript};
pub use error::{FrontError, FrontResult};
pub use parser::parse_program;
pub use pretty::pretty_print;
pub use sema::{analyze, analyze_owned, ArrayInfo, ProgramInfo};

/// The paper's Figure 3: GAXPY matrix multiplication in HPF. Parsing and
/// compiling this program end-to-end is the reference use of this crate.
pub const GAXPY_SOURCE: &str = r#"
      parameter (n=64, nprocs=4)
      real a(n,n), b(n,n), c(n,n), temp(n,n)
!hpf$ processors pr(nprocs)
!hpf$ template d(n)
!hpf$ distribute d(block) on pr
!hpf$ align (*,:) with d :: a, c, temp
!hpf$ align (:,*) with d :: b
      do j = 1, n
        forall (k = 1:n)
          temp(1:n, k) = b(k, j) * a(1:n, k)
        end forall
        c(1:n, j) = sum(temp, 2)
      end do
      end
"#;

/// Out-of-core CSR sparse matrix–vector multiplication: the irregular
/// `x(colidx(k))` gather drives the inspector–executor subsystem. The
/// bounds of the inner loop come from the `rowptr` array, so neither the
/// iteration counts nor the access pattern are compile-time affine.
pub const SPMV_SOURCE: &str = r#"
      parameter (n=64, nnz=512, nprocs=4)
      real y(n), x(n), rowptr(n+1)
      real colidx(nnz), vals(nnz)
!hpf$ processors pr(nprocs)
!hpf$ distribute y(block) on pr
!hpf$ distribute x(block) on pr
!hpf$ distribute rowptr(block) on pr
!hpf$ distribute colidx(block) on pr
!hpf$ distribute vals(block) on pr
      do i = 1, n
        y(i) = 0.0
        do k = rowptr(i), rowptr(i+1) - 1
          y(i) = y(i) + vals(k) * x(colidx(k))
        end do
      end do
      end
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_program_parses_and_analyzes() {
        let prog = parse_program(GAXPY_SOURCE).expect("parse");
        let info = analyze(&prog).expect("sema");
        assert_eq!(info.nprocs, 4);
        let a = info.array("a").unwrap();
        assert_eq!(a.shape.extents(), &[64, 64]);
        let b = info.array("b").unwrap();
        // a: (*, block); b: (block, *).
        assert_eq!(a.dist.local_shape(0).extents(), &[64, 16]);
        assert_eq!(b.dist.local_shape(0).extents(), &[16, 64]);
    }
}
