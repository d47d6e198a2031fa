//! Semantic analysis: parameters, shapes, directives → distributions.
//!
//! This performs the front half of the paper's "in-core phase" (Figure 7):
//! using the distribution directives, every declared array is given a
//! concrete [`Distribution`] over a concrete processor grid, and all
//! declared extents are folded to integers. Alignment with a template is
//! resolved transitively: `align (*,:) with d` where `d` is
//! `distribute d(block)` yields a `(*, block)` distribution.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use ooc_array::{DimDist, DistKind, Distribution, ProcGrid, Shape};

use crate::ast::*;
use crate::error::{FrontError, FrontResult};

/// Resolved information about one declared array.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrayInfo {
    /// Array name.
    pub name: String,
    /// Concrete shape.
    pub shape: Shape,
    /// Concrete distribution.
    pub dist: Distribution,
}

/// Result of semantic analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgramInfo {
    /// Integer parameters (`parameter` declarations), by name.
    pub params: HashMap<String, i64>,
    /// Declared arrays in declaration order.
    pub arrays: Vec<ArrayInfo>,
    /// Total processors of the (single) processor grid.
    pub nprocs: usize,
    /// Executable statements (unchanged from the AST).
    pub stmts: Vec<Stmt>,
}

impl ProgramInfo {
    /// Look up an array by name.
    pub fn array(&self, name: &str) -> Option<&ArrayInfo> {
        self.arrays.iter().find(|a| a.name == name)
    }

    /// Fold an expression to an integer using the parameter environment.
    pub fn eval_const(&self, e: &Expr) -> FrontResult<i64> {
        eval_const(e, &self.params)
    }
}

/// Fold `e` to an integer given parameter bindings.
pub fn eval_const(e: &Expr, params: &HashMap<String, i64>) -> FrontResult<i64> {
    match e {
        Expr::Int(v) => Ok(*v),
        Expr::Real(_) => Err(FrontError::new(0, "real literal in constant context")),
        Expr::Var(name) => params
            .get(name)
            .copied()
            .ok_or_else(|| FrontError::new(0, format!("`{name}` is not a constant parameter"))),
        Expr::Neg(inner) => Ok(-eval_const(inner, params)?),
        Expr::Bin(op, l, r) => {
            let a = eval_const(l, params)?;
            let b = eval_const(r, params)?;
            Ok(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => {
                    if b == 0 {
                        return Err(FrontError::new(0, "division by zero in constant"));
                    }
                    a / b
                }
            })
        }
        Expr::ArrayRef { name, .. } | Expr::Call { name, .. } => Err(FrontError::new(
            0,
            format!("`{name}` reference is not constant"),
        )),
    }
}

struct TemplateInfo<'p> {
    extents: Vec<usize>,
    specs: Option<(&'p [DistSpec], &'p str)>, // distribution specs + grid name
}

/// Analyze a parsed program.
pub fn analyze(prog: &Program) -> FrontResult<ProgramInfo> {
    let (params, arrays, nprocs) = resolve(prog)?;
    checked(params, arrays, nprocs, prog.stmts.clone())
}

/// [`analyze`], consuming the program: its statements move into the
/// result instead of being copied.
pub fn analyze_owned(prog: Program) -> FrontResult<ProgramInfo> {
    let (params, arrays, nprocs) = resolve(&prog)?;
    checked(params, arrays, nprocs, prog.stmts)
}

/// The analysis of `stmts` over the resolved declarations, once every
/// indirect subscript checks out.
fn checked(
    params: HashMap<String, i64>,
    arrays: Vec<ArrayInfo>,
    nprocs: usize,
    stmts: Vec<Stmt>,
) -> FrontResult<ProgramInfo> {
    let info = ProgramInfo {
        params,
        arrays,
        nprocs,
        stmts,
    };
    for stmt in &info.stmts {
        check_indirect_stmt(stmt, 0, &info)?;
    }
    Ok(info)
}

/// Parameters, arrays with their distributions, and the processor count
/// of `prog`'s declarations and directives.
fn resolve(prog: &Program) -> FrontResult<(HashMap<String, i64>, Vec<ArrayInfo>, usize)> {
    let mut params: HashMap<String, i64> = HashMap::new();
    // Names borrow the AST: only the analysis's output owns copies.
    let mut declared: Vec<(&str, Vec<usize>)> = Vec::new();

    for decl in &prog.decls {
        match decl {
            Decl::Parameter { name, value } => {
                let v = eval_const(value, &params)?;
                if params.insert(name.clone(), v).is_some() {
                    return Err(FrontError::new(0, format!("parameter `{name}` redefined")));
                }
            }
            Decl::Array { name, dims } => {
                let mut extents = Vec::with_capacity(dims.len());
                for d in dims {
                    let v = eval_const(d, &params)?;
                    if v <= 0 {
                        return Err(FrontError::new(
                            0,
                            format!("array `{name}` has non-positive extent {v}"),
                        ));
                    }
                    extents.push(v as usize);
                }
                if declared.iter().any(|(n, _)| n == name) {
                    return Err(FrontError::new(0, format!("array `{name}` redeclared")));
                }
                declared.push((name, extents));
            }
        }
    }

    // Directives.
    let mut grids: HashMap<&str, Vec<usize>> = HashMap::new();
    let mut templates: HashMap<&str, TemplateInfo> = HashMap::new();
    // name -> (specs, grid) from direct `distribute a(...) on p`.
    let mut direct_dist: HashMap<&str, (&[DistSpec], &str)> = HashMap::new();
    // array -> (pattern, template) from align.
    let mut aligns: HashMap<&str, (&[AlignDim], &str)> = HashMap::new();

    for dir in &prog.directives {
        match dir {
            Directive::Processors { name, extents } => {
                let exts: Vec<usize> = extents
                    .iter()
                    .map(|e| {
                        let v = eval_const(e, &params)?;
                        if v <= 0 {
                            return Err(FrontError::new(
                                0,
                                format!("processor grid `{name}` axis must be positive"),
                            ));
                        }
                        Ok(v as usize)
                    })
                    .collect::<FrontResult<_>>()?;
                grids.insert(name, exts);
            }
            Directive::Template { name, extents } => {
                let exts: Vec<usize> = extents
                    .iter()
                    .map(|e| eval_const(e, &params).map(|v| v as usize))
                    .collect::<FrontResult<_>>()?;
                templates.insert(
                    name,
                    TemplateInfo {
                        extents: exts,
                        specs: None,
                    },
                );
            }
            Directive::Distribute {
                target,
                specs,
                procs,
            } => {
                if let Some(t) = templates.get_mut(target.as_str()) {
                    if specs.len() != t.extents.len() {
                        return Err(FrontError::new(
                            0,
                            format!("distribute rank mismatch for template `{target}`"),
                        ));
                    }
                    t.specs = Some((specs, procs));
                } else if declared.iter().any(|(n, _)| n == target) {
                    direct_dist.insert(target, (specs, procs));
                } else {
                    return Err(FrontError::new(
                        0,
                        format!("distribute target `{target}` is neither template nor array"),
                    ));
                }
            }
            Directive::Align {
                pattern,
                template,
                arrays,
            } => {
                if !templates.contains_key(template.as_str()) {
                    return Err(FrontError::new(
                        0,
                        format!("align references unknown template `{template}`"),
                    ));
                }
                for a in arrays {
                    aligns.insert(a, (pattern, template));
                }
            }
        }
    }

    // Every program in this subset uses a single processor grid.
    if grids.len() != 1 {
        return Err(FrontError::new(
            0,
            format!(
                "expected exactly one processors directive, found {}",
                grids.len()
            ),
        ));
    }
    let (_grid_name, grid_extents) = grids.iter().next().expect("one grid");
    let grid = ProcGrid::new(grid_extents.clone());
    let nprocs = grid.nprocs();

    // Resolve each declared array.
    let mut arrays = Vec::with_capacity(declared.len());
    for (name, extents) in declared {
        let shape = Shape::new(extents);
        let dist = if let Some((specs, procs)) = direct_dist.get(name) {
            check_grid(procs, &grids)?;
            dist_from_specs(&shape, specs, &grid, name)?
        } else if let Some((pattern, template)) = aligns.get(name) {
            let t = templates.get(template).expect("checked");
            let Some((tspecs, procs)) = &t.specs else {
                return Err(FrontError::new(
                    0,
                    format!("template `{template}` used by `{name}` was never distributed"),
                ));
            };
            check_grid(procs, &grids)?;
            if pattern.len() != shape.ndims() {
                return Err(FrontError::new(
                    0,
                    format!("align pattern rank mismatch for `{name}`"),
                ));
            }
            // Map ':' entries to template dimensions in order.
            let matched: Vec<usize> = pattern
                .iter()
                .enumerate()
                .filter(|(_, p)| matches!(p, AlignDim::Colon))
                .map(|(d, _)| d)
                .collect();
            if matched.len() != t.extents.len() {
                return Err(FrontError::new(
                    0,
                    format!(
                        "align pattern for `{name}` matches {} dims, template `{template}` has {}",
                        matched.len(),
                        t.extents.len()
                    ),
                ));
            }
            // Aligned dims must have the template extent.
            for (tdim, &adim) in matched.iter().enumerate() {
                if shape.extent(adim) != t.extents[tdim] {
                    return Err(FrontError::new(
                        0,
                        format!(
                            "array `{name}` dim {adim} extent {} does not match template `{template}` extent {}",
                            shape.extent(adim),
                            t.extents[tdim]
                        ),
                    ));
                }
            }
            // Build per-dimension specs: '*' dims collapsed, ':' dims take
            // the template's spec for the corresponding template dim.
            let mut specs = vec![DistSpec::Star; shape.ndims()];
            for (tdim, &adim) in matched.iter().enumerate() {
                specs[adim] = tspecs[tdim].clone();
            }
            dist_from_specs(&shape, &specs, &grid, name)?
        } else {
            return Err(FrontError::new(
                0,
                format!("array `{name}` has no distribution (missing align/distribute)"),
            ));
        };
        arrays.push(ArrayInfo {
            name: name.to_string(),
            shape,
            dist,
        });
    }

    Ok((params, arrays, nprocs))
}

/// Walk one statement checking every indirect subscript (`a(idx(i))`).
///
/// `line` is the nearest enclosing source line known for this statement
/// (assignments carry their own; do/forall bounds inherit).
fn check_indirect_stmt(stmt: &Stmt, line: usize, info: &ProgramInfo) -> FrontResult<()> {
    match stmt {
        Stmt::Assign { lhs, rhs, line } => {
            check_indirect_expr(lhs, None, *line, info)?;
            check_indirect_expr(rhs, None, *line, info)
        }
        Stmt::Do { lo, hi, body, .. } => {
            check_indirect_expr(lo, None, line, info)?;
            check_indirect_expr(hi, None, line, info)?;
            body.iter()
                .try_for_each(|s| check_indirect_stmt(s, line, info))
        }
        Stmt::Forall { indices, body } => {
            for (_, lo, hi) in indices {
                check_indirect_expr(lo, None, line, info)?;
                check_indirect_expr(hi, None, line, info)?;
            }
            body.iter()
                .try_for_each(|s| check_indirect_stmt(s, line, info))
        }
    }
}

/// Walk an expression; `encl` is `Some(outer)` while inside a subscript of
/// array `outer`, so any array reference found there is an indirection
/// array and must be inspector-compatible: declared, one-dimensional, and
/// block-distributed (the runtime inspector bins gather targets by block
/// owner, so any other layout would make the owner computation wrong).
fn check_indirect_expr(
    e: &Expr,
    encl: Option<&str>,
    line: usize,
    info: &ProgramInfo,
) -> FrontResult<()> {
    match e {
        Expr::Int(_) | Expr::Real(_) | Expr::Var(_) => Ok(()),
        Expr::Neg(inner) => check_indirect_expr(inner, encl, line, info),
        Expr::Bin(_, l, r) => {
            check_indirect_expr(l, encl, line, info)?;
            check_indirect_expr(r, encl, line, info)
        }
        // Intrinsic arguments are value context, not subscripts.
        Expr::Call { args, .. } => args
            .iter()
            .try_for_each(|a| check_indirect_expr(a, None, line, info)),
        Expr::ArrayRef { name, subs } => {
            if let Some(outer) = encl {
                check_indirection_array(name, outer, line, info)?;
            }
            for s in subs {
                let parts: [&Option<Expr>; 3] = match s {
                    Subscript::Index(idx) => {
                        check_indirect_expr(idx, Some(name), line, info)?;
                        continue;
                    }
                    Subscript::Triplet { lo, hi, step } => [lo, hi, step],
                };
                for part in parts.into_iter().flatten() {
                    check_indirect_expr(part, Some(name), line, info)?;
                }
            }
            Ok(())
        }
    }
}

/// Validate one indirection array `idx` used as `outer(… idx(…) …)`.
fn check_indirection_array(
    idx: &str,
    outer: &str,
    line: usize,
    info: &ProgramInfo,
) -> FrontResult<()> {
    let Some(arr) = info.array(idx) else {
        return Err(FrontError::new(
            line,
            format!("indirection array `{idx}` in subscript of `{outer}` is not a declared array"),
        ));
    };
    if arr.shape.ndims() != 1 {
        return Err(FrontError::new(
            line,
            format!(
                "indirection array `{idx}` in subscript of `{outer}` must be one-dimensional, \
                 has {} dimensions",
                arr.shape.ndims()
            ),
        ));
    }
    match arr.dist.dims()[0] {
        DimDist::Distributed {
            kind: DistKind::Block,
            ..
        } => Ok(()),
        ref other => {
            let found = match other {
                DimDist::Collapsed => "collapsed (replicated)".to_string(),
                DimDist::Distributed {
                    kind: DistKind::Cyclic,
                    ..
                } => "cyclic".to_string(),
                DimDist::Distributed {
                    kind: DistKind::BlockCyclic(b),
                    ..
                } => format!("cyclic({b})"),
                DimDist::Distributed {
                    kind: DistKind::Block,
                    ..
                } => unreachable!("handled above"),
            };
            Err(FrontError::new(
                line,
                format!(
                    "indirection array `{idx}` in subscript of `{outer}` is not \
                     distribution-compatible: the inspector bins gather targets by block \
                     owner, so `{idx}` must be block-distributed, found {found}"
                ),
            ))
        }
    }
}

fn check_grid(procs: &str, grids: &HashMap<&str, Vec<usize>>) -> FrontResult<()> {
    if grids.contains_key(procs) {
        Ok(())
    } else {
        Err(FrontError::new(
            0,
            format!("unknown processor grid `{procs}`"),
        ))
    }
}

fn dist_from_specs(
    shape: &Shape,
    specs: &[DistSpec],
    grid: &ProcGrid,
    name: &str,
) -> FrontResult<Distribution> {
    if specs.len() != shape.ndims() {
        return Err(FrontError::new(
            0,
            format!("distribution rank mismatch for `{name}`"),
        ));
    }
    let mut dims = Vec::with_capacity(specs.len());
    let mut next_axis = 0usize;
    for spec in specs {
        let dd = match spec {
            DistSpec::Star => DimDist::Collapsed,
            DistSpec::Block => {
                let axis = next_axis;
                next_axis += 1;
                DimDist::Distributed {
                    kind: DistKind::Block,
                    axis,
                }
            }
            DistSpec::Cyclic => {
                let axis = next_axis;
                next_axis += 1;
                DimDist::Distributed {
                    kind: DistKind::Cyclic,
                    axis,
                }
            }
            DistSpec::CyclicBlock(b) => {
                if *b <= 0 {
                    return Err(FrontError::new(
                        0,
                        format!("array `{name}` has non-positive cyclic block size {b}"),
                    ));
                }
                let axis = next_axis;
                next_axis += 1;
                DimDist::Distributed {
                    kind: DistKind::BlockCyclic(*b as usize),
                    axis,
                }
            }
        };
        dims.push(dd);
    }
    if next_axis != grid.naxes() {
        return Err(FrontError::new(
            0,
            format!(
                "array `{name}` distributes {next_axis} dims over a {}-axis grid",
                grid.naxes()
            ),
        ));
    }
    Ok(Distribution::new(shape.clone(), dims, grid.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn analyze_src(src: &str) -> FrontResult<ProgramInfo> {
        analyze(&parse_program(src).expect("parse"))
    }

    #[test]
    fn figure3_distributions() {
        let info = analyze_src(crate::GAXPY_SOURCE).unwrap();
        assert_eq!(info.nprocs, 4);
        assert_eq!(info.params["n"], 64);
        assert_eq!(info.params["nprocs"], 4);
        // a, c, temp: (*, block); b: (block, *).
        for name in ["a", "c", "temp"] {
            let arr = info.array(name).unwrap();
            assert_eq!(arr.dist.local_shape(2).extents(), &[64, 16], "{name}");
            assert!(matches!(arr.dist.dims()[0], DimDist::Collapsed));
        }
        let b = info.array("b").unwrap();
        assert!(matches!(b.dist.dims()[1], DimDist::Collapsed));
    }

    #[test]
    fn direct_distribute_form() {
        let info = analyze_src(
            "
      parameter (n=8, p=2)
      real a(n, n)
!hpf$ processors pr(p)
!hpf$ distribute a(*, block) on pr
      end
",
        )
        .unwrap();
        let a = info.array("a").unwrap();
        assert_eq!(a.dist.local_shape(0).extents(), &[8, 4]);
    }

    #[test]
    fn cyclic_distribution() {
        let info = analyze_src(
            "
      parameter (n=10)
      real a(n)
!hpf$ processors pr(3)
!hpf$ distribute a(cyclic) on pr
      end
",
        )
        .unwrap();
        let a = info.array("a").unwrap();
        assert!(matches!(
            a.dist.dims()[0],
            DimDist::Distributed {
                kind: DistKind::Cyclic,
                ..
            }
        ));
    }

    #[test]
    fn missing_distribution_is_an_error() {
        let err = analyze_src(
            "
      real a(4)
!hpf$ processors pr(2)
      end
",
        )
        .unwrap_err();
        assert!(err.message.contains("no distribution"));
    }

    #[test]
    fn align_extent_mismatch_is_an_error() {
        let err = analyze_src(
            "
      parameter (n=8)
      real a(n, 7)
!hpf$ processors pr(2)
!hpf$ template d(n)
!hpf$ distribute d(block) on pr
!hpf$ align (*, :) with d :: a
      end
",
        )
        .unwrap_err();
        assert!(err.message.contains("does not match template"));
    }

    #[test]
    fn undistributed_template_is_an_error() {
        let err = analyze_src(
            "
      parameter (n=8)
      real a(n)
!hpf$ processors pr(2)
!hpf$ template d(n)
!hpf$ align (:) with d :: a
      end
",
        )
        .unwrap_err();
        assert!(err.message.contains("never distributed"));
    }

    #[test]
    fn const_folding() {
        let info = analyze_src(
            "
      parameter (n=8, m=n*2+1)
      real a(m)
!hpf$ processors pr(1)
!hpf$ distribute a(block) on pr
      end
",
        )
        .unwrap();
        assert_eq!(info.params["m"], 17);
        assert_eq!(info.array("a").unwrap().shape.extents(), &[17]);
    }

    #[test]
    fn eval_const_errors() {
        let params = HashMap::new();
        assert!(eval_const(&Expr::var("zz"), &params).is_err());
        assert!(eval_const(&Expr::bin(BinOp::Div, Expr::Int(1), Expr::Int(0)), &params).is_err());
        assert_eq!(
            eval_const(&Expr::Neg(Box::new(Expr::Int(5))), &params).unwrap(),
            -5
        );
    }

    #[test]
    fn block_indirection_array_is_accepted() {
        // The shipped SpMV example indexes x through colidx; colidx is
        // block-distributed, so the whole program must pass sema.
        let info = analyze_src(crate::SPMV_SOURCE).unwrap();
        assert_eq!(info.nprocs, 4);
    }

    #[test]
    fn cyclic_indirection_array_is_rejected_with_its_line() {
        let err = analyze_src(
            "
      parameter (n=8)
      real a(n), idx(n)
!hpf$ processors pr(2)
!hpf$ distribute a(block) on pr
!hpf$ distribute idx(cyclic) on pr
      do i = 1, n
        a(i) = a(idx(i))
      end do
      end
",
        )
        .unwrap_err();
        assert!(
            err.message.contains("`idx`") && err.message.contains("block-distributed"),
            "{err}"
        );
        assert_eq!(err.line, 8, "diagnostic should carry the assignment line");
    }

    #[test]
    fn undeclared_indirection_array_is_rejected() {
        let err = analyze_src(
            "
      parameter (n=8)
      real a(n)
!hpf$ processors pr(2)
!hpf$ distribute a(block) on pr
      a(1) = a(ghost(1))
      end
",
        )
        .unwrap_err();
        assert!(
            err.message.contains("`ghost`") && err.message.contains("not a declared array"),
            "{err}"
        );
        assert_eq!(err.line, 6);
    }

    #[test]
    fn two_dimensional_indirection_array_is_rejected() {
        let err = analyze_src(
            "
      parameter (n=8)
      real a(n), idx(n, n)
!hpf$ processors pr(2)
!hpf$ distribute a(block) on pr
!hpf$ distribute idx(*, block) on pr
      a(1) = a(idx(1, 2))
      end
",
        )
        .unwrap_err();
        assert!(err.message.contains("one-dimensional"), "{err}");
    }

    #[test]
    fn indirection_inside_arithmetic_subscript_is_still_checked() {
        // `a(idx(i) + 1)` is just as indirect as `a(idx(i))`.
        let err = analyze_src(
            "
      parameter (n=8)
      real a(n), idx(n)
!hpf$ processors pr(2)
!hpf$ distribute a(block) on pr
!hpf$ distribute idx(cyclic) on pr
      a(1) = a(idx(1) + 1)
      end
",
        )
        .unwrap_err();
        assert!(err.message.contains("distribution-compatible"), "{err}");
    }

    #[test]
    fn two_grids_rejected() {
        let err = analyze_src(
            "
      real a(4)
!hpf$ processors p1(2)
!hpf$ processors p2(2)
!hpf$ distribute a(block) on p1
      end
",
        )
        .unwrap_err();
        assert!(err.message.contains("exactly one"));
    }
}
