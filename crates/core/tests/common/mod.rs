//! The programs and option sets the compile goldens and the compile
//! allocation budgets share: one of each statement class, and the six
//! option sets of the `compile-sweep` workload.

use ooc_core::stripmine::SlabSizing;
use ooc_core::{CompilerOptions, MemoryPolicy, SlabStrategy};

/// A stencil `forall` inside a 3-trip `do`, `n × n`, on `p` processors:
/// aligned, both operands row-block through one template (Jacobi), or
/// misaligned, the operand row-block and the result column-block, so every
/// statement first redistributes the operand.
pub fn stencil(n: usize, p: usize, aligned: bool) -> String {
    let (decl, body) = if aligned {
        (
            "!hpf$ template t(n)\n!hpf$ distribute t(block) on pr\n\
             !hpf$ align (:, *) with t :: u, v\n",
            "forall (i = 2:n-1, j = 2:n-1)\n          \
             v(i, j) = 0.25 * (u(i-1, j) + u(i+1, j) + u(i, j-1) + u(i, j+1))",
        )
    } else {
        (
            "!hpf$ distribute u(block, *) on pr\n!hpf$ distribute v(*, block) on pr\n",
            "forall (i = 2:n-1, j = 1:n)\n          v(i, j) = u(i-1, j) + u(i+1, j)",
        )
    };
    format!(
        "
      parameter (n={n})
      real u(n, n), v(n, n)
!hpf$ processors pr({p})
{decl}      do it = 1, 3
        {body}
        end forall
      end do
      end
"
    )
}

/// `b = aᵀ`, both arrays column-block, `n × n` on `p` processors.
pub fn transpose(n: usize, p: usize) -> String {
    format!(
        "
      parameter (n={n})
      real a(n, n), b(n, n)
!hpf$ processors pr({p})
!hpf$ distribute a(*, block) on pr
!hpf$ distribute b(*, block) on pr
      forall (i = 1:n, j = 1:n)
        b(i, j) = a(j, i)
      end forall
      end
"
    )
}

/// A 6-point stencil over an `n³` cube, `(block, *, *)` over `p`
/// processors: the ghosts run along dimension 0, the slabs along 2.
pub fn stencil_3d(n: usize, p: usize) -> String {
    format!(
        "
      parameter (n={n})
      real u(n, n, n), v(n, n, n)
!hpf$ processors pr({p})
!hpf$ template t(n)
!hpf$ distribute t(block) on pr
!hpf$ align (:, *, *) with t :: u, v
      forall (i = 2:n-1, j = 2:n-1, k = 2:n-1)
        v(i, j, k) = u(i-1, j, k) + u(i+1, j, k) + u(i, j-1, k) + u(i, j+1, k) + u(i, j, k-1) + u(i, j, k+1)
      end forall
      end
"
    )
}

/// `hpf::GAXPY_SOURCE` at order `n` on `p` processors, then a `forall`
/// over its result `c` that overwrites `a`: where the GAXPY takes row
/// slabs, both files are stored row-major and the `forall` stripmines
/// along rows.
pub fn gaxpy_then_forall(n: usize, p: usize) -> String {
    let forall = "      forall (i = 2:n-1, j = 1:n)\n        \
                  a(i, j) = c(i-1, j) + c(i+1, j)\n      end forall\n      end\n";
    let source = (hpf::GAXPY_SOURCE.strip_suffix("      end\n"))
        .expect("the GAXPY source ends its program")
        .replacen(
            "parameter (n=64, nprocs=4)",
            &format!("parameter (n={n}, nprocs={p})"),
            1,
        );
    source + forall
}

/// One program of each statement class, by name.
pub fn programs() -> Vec<(&'static str, String)> {
    vec![
        ("gaxpy", hpf::GAXPY_SOURCE.to_string()),
        ("jacobi aligned x3", stencil(256, 4, true)),
        ("misaligned x3 p16", stencil(256, 16, false)),
        ("transpose 1024 p16", transpose(1024, 16)),
        ("spmv", hpf::SPMV_SOURCE.to_string()),
        ("stencil 3-D 160 p4", stencil_3d(160, 4)),
        ("gaxpy then forall 1100 p2", gaxpy_then_forall(1100, 2)),
    ]
}

/// `Budget { Search }` over 2¹⁶ elements, as `compile-sweep` searches.
pub fn search() -> CompilerOptions {
    CompilerOptions {
        sizing: SlabSizing::Budget {
            elems: 1 << 16,
            policy: MemoryPolicy::Search,
        },
        ..CompilerOptions::default()
    }
}

/// The six option sets of `compile-sweep`, by name.
pub fn option_sets() -> Vec<(&'static str, CompilerOptions)> {
    let base = CompilerOptions::default;
    vec![
        ("default", base()),
        (
            "forced column 1/8",
            CompilerOptions {
                force_strategy: Some(SlabStrategy::ColumnSlab),
                sizing: SlabSizing::Ratio(0.125),
                ..base()
            },
        ),
        ("budget search", search()),
        (
            "budget search +cache",
            CompilerOptions {
                cache_budget: Some(256 << 10),
                ..search()
            },
        ),
        (
            "background load",
            CompilerOptions {
                background: Some(dmsim::BackgroundLoad::jobs(3)),
                ..base()
            },
        ),
        (
            "forced direct",
            CompilerOptions {
                io_method: Some(pario::IoMethod::Direct),
                ..base()
            },
        ),
    ]
}
