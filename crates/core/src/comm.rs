//! In-core phase, step 2: communication detection.
//!
//! Elementwise statements are analyzed for the communication they induce
//! (Figure 7, "Determine Communication"): shifted references in a forall
//! need **ghost exchanges** when the shift runs along a distributed
//! dimension. The other statement kinds carry their communication in their
//! plans: the GAXPY reduction's global sum per result column, a
//! transpose's remap and SpMV's inspected gather.

use serde::{Deserialize, Serialize};

use ooc_array::DimDist;

use crate::hir::{ElwStmt, HirProgram};
use crate::plan::GhostSpec;

/// The communication an elementwise statement requires.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CommRequirement {
    /// No interprocessor communication.
    None,
    /// Boundary strips exchanged with grid neighbors before computation.
    Ghost(Vec<GhostSpec>),
}

/// Ghost analysis for an elementwise statement: every referenced array must
/// share the lhs distribution; shifts along distributed dimensions become
/// ghost strips of the shift width, which need a block distribution on a
/// one-dimensional processor grid.
pub fn analyze_elw(stmt: &ElwStmt, prog: &HirProgram) -> Result<CommRequirement, String> {
    let lhs = prog
        .array(&stmt.lhs)
        .ok_or_else(|| format!("undeclared array `{}`", stmt.lhs))?;
    let refs = stmt.rhs.rhs_refs();
    for &(name, _) in &refs {
        let arr = prog
            .array(name)
            .ok_or_else(|| format!("undeclared array `{name}`"))?;
        if arr.dist != lhs.dist {
            return Err(format!(
                "elementwise statement mixes distributions: `{}` and `{name}` \
                 are distributed differently (a remap would be needed)",
                stmt.lhs
            ));
        }
        if arr.shape != lhs.shape {
            return Err(format!(
                "elementwise statement mixes shapes: `{}` vs `{name}`",
                stmt.lhs
            ));
        }
    }
    let ndims = lhs.shape.ndims();
    let grid = lhs.dist.grid();
    let mut ghosts = Vec::new();
    for d in 0..ndims {
        let (kind, axis) = match lhs.dist.dims()[d] {
            DimDist::Collapsed => continue, // shifts stay on-processor
            DimDist::Distributed { kind, axis } => (kind, axis),
        };
        let mut lo = 0usize;
        let mut hi = 0usize;
        for (_, offs) in &refs {
            let o = offs[d];
            if o < 0 {
                lo = lo.max(o.unsigned_abs());
            } else {
                hi = hi.max(o as usize);
            }
        }
        if lo > 0 || hi > 0 {
            // Ghost strips come from the two adjacent processors along one
            // grid axis. Adjacent global indices must live there (a block
            // distribution), no corner neighbour may be needed (a
            // one-dimensional grid), and a strip can be no wider than the
            // neighbour's block.
            let block = lhs.shape.extent(d).div_ceil(grid.extent(axis));
            let why = if kind != ooc_array::DistKind::Block {
                format!(
                    "which is distributed {kind:?}: ghost exchange requires a block distribution"
                )
            } else if grid.naxes() > 1 {
                format!(
                    "needs a ghost exchange, which runs only on a one-dimensional \
                     processor grid (this one has {} axes)",
                    grid.naxes()
                )
            } else if lo.max(hi) > block {
                format!(
                    "by {} reaches past the neighbouring processor's block of {block}",
                    lo.max(hi)
                )
            } else {
                ghosts.push(GhostSpec {
                    dim: d,
                    lo_width: lo,
                    hi_width: hi,
                });
                continue;
            };
            return Err(format!("shift along dimension {d} of `{}` {why}", stmt.lhs));
        }
    }
    if ghosts.is_empty() {
        Ok(CommRequirement::None)
    } else {
        Ok(CommRequirement::Ghost(ghosts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hir::{ElwExpr, HirArray};
    use ooc_array::{DimRange, Distribution, Section, Shape};

    fn prog_two_arrays(p: usize, same_dist: bool) -> HirProgram {
        let shape = Shape::matrix(8, 8);
        let d1 = Distribution::column_block(shape.clone(), p);
        let d2 = if same_dist {
            d1.clone()
        } else {
            Distribution::row_block(shape.clone(), p)
        };
        HirProgram {
            arrays: vec![
                HirArray {
                    name: "u".into(),
                    shape: shape.clone(),
                    dist: d1,
                },
                HirArray {
                    name: "v".into(),
                    shape,
                    dist: d2,
                },
            ],
            stmts: vec![],
            nprocs: p,
        }
    }

    fn stencil(offsets: Vec<Vec<isize>>) -> ElwStmt {
        let mut expr = ElwExpr::Const(0.0);
        for o in offsets {
            expr = ElwExpr::add(expr, ElwExpr::shifted("v", o));
        }
        ElwStmt {
            lhs: "u".into(),
            region: Section::new(vec![DimRange::new(1, 7), DimRange::new(1, 7)]),
            rhs: expr,
        }
    }

    #[test]
    fn no_shift_no_comm() {
        let prog = prog_two_arrays(4, true);
        let s = stencil(vec![vec![0, 0]]);
        assert_eq!(analyze_elw(&s, &prog).unwrap(), CommRequirement::None);
    }

    #[test]
    fn shift_along_collapsed_dim_is_local() {
        // Column-block: dim 0 collapsed, shifts along rows need no comm.
        let prog = prog_two_arrays(4, true);
        let s = stencil(vec![vec![-1, 0], vec![1, 0]]);
        assert_eq!(analyze_elw(&s, &prog).unwrap(), CommRequirement::None);
    }

    #[test]
    fn shift_along_distributed_dim_needs_ghosts() {
        let prog = prog_two_arrays(4, true);
        let s = stencil(vec![vec![0, -2], vec![0, 1]]);
        let CommRequirement::Ghost(g) = analyze_elw(&s, &prog).unwrap() else {
            panic!("expected ghosts");
        };
        assert_eq!(
            g,
            vec![GhostSpec {
                dim: 1,
                lo_width: 2,
                hi_width: 1
            }]
        );
    }

    #[test]
    fn ghosts_on_a_multi_axis_grid_are_rejected() {
        use ooc_array::{DistKind, ProcGrid};
        let block = |axis| DimDist::Distributed {
            kind: DistKind::Block,
            axis,
        };
        let mut prog = prog_two_arrays(4, true);
        let dist = Distribution::new(
            Shape::matrix(8, 8),
            vec![block(0), block(1)],
            ProcGrid::new(vec![2, 2]),
        );
        for a in &mut prog.arrays {
            a.dist = dist.clone();
        }
        let err = analyze_elw(&stencil(vec![vec![-1, 0], vec![0, 1]]), &prog).unwrap_err();
        assert!(err.contains("dimension 0 of `u`"), "{err}");
        assert!(err.contains("one-dimensional processor grid"), "{err}");
        // Without a shift there is nothing to exchange.
        let s = stencil(vec![vec![0, 0]]);
        assert_eq!(analyze_elw(&s, &prog).unwrap(), CommRequirement::None);
    }

    #[test]
    fn a_ghost_wider_than_the_neighbouring_block_is_rejected() {
        // 8 columns over 4 processors: blocks of 2.
        let prog = prog_two_arrays(4, true);
        let err = analyze_elw(&stencil(vec![vec![0, 3]]), &prog).unwrap_err();
        assert!(err.contains("block of 2"), "{err}");
        assert!(analyze_elw(&stencil(vec![vec![0, -2]]), &prog).is_ok());
    }

    #[test]
    fn mixed_distributions_are_rejected() {
        let prog = prog_two_arrays(4, false);
        let s = stencil(vec![vec![0, 0]]);
        let err = analyze_elw(&s, &prog).unwrap_err();
        assert!(err.contains("distributed differently"));
    }
}
