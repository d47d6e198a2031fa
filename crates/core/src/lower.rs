//! Lowering: analyzed HPF AST → HIR statement patterns.

use hpf::{BinOp, Expr, ProgramInfo, Stmt, Subscript};
use ooc_array::{DimRange, Section};

use crate::hir::{ElwExpr, ElwStmt, HirArray, HirProgram, HirStmt};

/// Lowering failure: the statement is outside the supported subset. The
/// message explains which pattern failed and why.
pub type LowerResult<T> = Result<T, String>;

/// Lower an analyzed program to HIR.
pub fn lower(info: &ProgramInfo) -> LowerResult<HirProgram> {
    let arrays: Vec<HirArray> = info
        .arrays
        .iter()
        .map(|a| HirArray {
            name: a.name.clone(),
            shape: a.shape.clone(),
            dist: a.dist.clone(),
        })
        .collect();
    let mut stmts = Vec::new();
    for s in &info.stmts {
        stmts.extend(lower_stmt_seq(s, info)?);
    }
    Ok(HirProgram {
        arrays,
        stmts,
        nprocs: info.nprocs,
    })
}

/// Largest constant-trip `do` loop the compiler will unroll.
pub const UNROLL_LIMIT: i64 = 256;

fn lower_stmt_seq(s: &Stmt, info: &ProgramInfo) -> LowerResult<Vec<HirStmt>> {
    if let Some(g) = try_gaxpy(s, info)? {
        return Ok(vec![g]);
    }
    if let Some(t) = try_transpose(s, info)? {
        return Ok(vec![t]);
    }
    if let Some(e) = try_elementwise(s, info)? {
        return Ok(vec![HirStmt::Elementwise(e)]);
    }
    if let Some(m) = try_spmv(s, info)? {
        return Ok(vec![m]);
    }
    // Iteration: a constant-trip do loop whose body does not reference the
    // loop variable unrolls into the repeated body (e.g. relaxation sweeps
    // alternating between two arrays).
    if let Stmt::Do { var, lo, hi, body } = s {
        let lo_v = info.eval_const(lo).map_err(|e| e.to_string())?;
        let hi_v = info.eval_const(hi).map_err(|e| e.to_string())?;
        let trips = hi_v - lo_v + 1;
        if trips < 0 {
            return Ok(vec![]); // zero-trip loop
        }
        if body.iter().any(|b| stmt_uses_var(b, var)) {
            return Err(format!(
                "do loop over `{var}`: the body references the loop variable, \
                 which only the GAXPY pattern supports"
            ));
        }
        if trips > UNROLL_LIMIT {
            return Err(format!(
                "do loop over `{var}` has {trips} iterations; the unroll \
                 limit is {UNROLL_LIMIT}"
            ));
        }
        let mut once = Vec::new();
        for b in body {
            once.extend(lower_stmt_seq(b, info)?);
        }
        let mut out = Vec::with_capacity(once.len() * trips as usize);
        for _ in 0..trips {
            out.extend(once.iter().cloned());
        }
        return Ok(out);
    }
    Err(format!(
        "unsupported statement pattern: {}",
        hpf::pretty::expr_of_stmt_head(s)
    ))
}

fn stmt_uses_var(s: &Stmt, var: &str) -> bool {
    match s {
        Stmt::Do {
            var: v,
            lo,
            hi,
            body,
        } => {
            // An inner loop may shadow `var`.
            expr_uses_var(lo, var)
                || expr_uses_var(hi, var)
                || (v != var && body.iter().any(|b| stmt_uses_var(b, var)))
        }
        Stmt::Forall { indices, body } => {
            indices
                .iter()
                .any(|(_, lo, hi)| expr_uses_var(lo, var) || expr_uses_var(hi, var))
                || (!indices.iter().any(|(v, _, _)| v == var)
                    && body.iter().any(|b| stmt_uses_var(b, var)))
        }
        Stmt::Assign { lhs, rhs, .. } => expr_uses_var(lhs, var) || expr_uses_var(rhs, var),
    }
}

fn expr_uses_var(e: &Expr, var: &str) -> bool {
    match e {
        Expr::Int(_) | Expr::Real(_) => false,
        Expr::Var(v) => v == var,
        Expr::Neg(i) => expr_uses_var(i, var),
        Expr::Bin(_, l, r) => expr_uses_var(l, var) || expr_uses_var(r, var),
        Expr::ArrayRef { subs, .. } => subs.iter().any(|s| match s {
            Subscript::Index(e) => expr_uses_var(e, var),
            Subscript::Triplet { lo, hi, step } => [lo, hi, step]
                .iter()
                .any(|o| o.as_ref().is_some_and(|e| expr_uses_var(e, var))),
        }),
        Expr::Call { args, .. } => args.iter().any(|a| expr_uses_var(a, var)),
    }
}

/// Recognize the paper's GAXPY pattern (Figure 3):
/// `do j = 1, n { forall (k = 1:n) temp(1:n,k) = b(k,j)*a(1:n,k); c(1:n,j) = sum(temp, 2) }`.
fn try_gaxpy(s: &Stmt, info: &ProgramInfo) -> LowerResult<Option<HirStmt>> {
    let Stmt::Do {
        var: j,
        lo,
        hi,
        body,
    } = s
    else {
        return Ok(None);
    };
    if body.len() != 2 {
        return Ok(None);
    }
    let Stmt::Forall { indices, body: fb } = &body[0] else {
        return Ok(None);
    };
    if indices.len() != 1 || fb.len() != 1 {
        return Ok(None);
    }
    let (k, klo, khi) = &indices[0];
    let Stmt::Assign { lhs, rhs, .. } = &fb[0] else {
        return Ok(None);
    };
    // temp(1:n, k) = b(k, j) * a(1:n, k)  (either multiplication order)
    let Expr::ArrayRef {
        name: temp,
        subs: tsubs,
    } = lhs
    else {
        return Ok(None);
    };
    if !(tsubs.len() == 2 && is_full_triplet(&tsubs[0], info) && is_index_var(&tsubs[1], k)) {
        return Ok(None);
    }
    let Expr::Bin(BinOp::Mul, m1, m2) = rhs else {
        return Ok(None);
    };
    let (scalar_ref, vector_ref) = if is_scalar_ref(m1, k, j) {
        (m1, m2)
    } else if is_scalar_ref(m2, k, j) {
        (m2, m1)
    } else {
        return Ok(None);
    };
    let Expr::ArrayRef { name: b, .. } = scalar_ref.as_ref() else {
        return Ok(None);
    };
    let Expr::ArrayRef { name: a, subs } = vector_ref.as_ref() else {
        return Ok(None);
    };
    if !(subs.len() == 2 && is_full_triplet(&subs[0], info) && is_index_var(&subs[1], k)) {
        return Ok(None);
    }
    // c(1:n, j) = sum(temp, 2)
    let Stmt::Assign {
        lhs: clhs,
        rhs: crhs,
        ..
    } = &body[1]
    else {
        return Ok(None);
    };
    let Expr::ArrayRef { name: c, subs: cs } = clhs else {
        return Ok(None);
    };
    if !(cs.len() == 2 && is_full_triplet(&cs[0], info) && is_index_var(&cs[1], j)) {
        return Ok(None);
    }
    let Expr::Call { name: f, args } = crhs else {
        return Ok(None);
    };
    if f != "sum" || args.len() != 2 {
        return Ok(None);
    }
    match (&args[0], &args[1]) {
        (Expr::Var(t2), Expr::Int(2)) if t2 == temp => {}
        _ => return Ok(None),
    }

    // The pattern matched structurally — now the distributions must fit the
    // GAXPY translation; mismatches are hard errors so the user learns why.
    let n = info
        .eval_const(hi)
        .map_err(|e| format!("gaxpy: non-constant bound: {e}"))? as usize;
    let lo_v = info
        .eval_const(lo)
        .map_err(|e| format!("gaxpy: non-constant bound: {e}"))?;
    let klo_v = info.eval_const(klo).map_err(|e| e.to_string())?;
    let khi_v = info.eval_const(khi).map_err(|e| e.to_string())? as usize;
    if lo_v != 1 || klo_v != 1 || khi_v != n {
        return Err("gaxpy: loops must cover 1:n".to_string());
    }
    // The column sections must cover the full first dimension; a partial
    // triplet like temp(1:5, k) is NOT the GAXPY pattern and must not be
    // silently compiled as if it were.
    let full_covers = |sub: &Subscript| -> bool {
        match sub {
            Subscript::Triplet { hi, .. } => match hi {
                None => true,
                Some(e) => info.eval_const(e).map(|v| v as usize == n).unwrap_or(false),
            },
            _ => false,
        }
    };
    if !(full_covers(&tsubs[0]) && full_covers(&subs[0]) && full_covers(&cs[0])) {
        return Err(format!(
            "gaxpy: column sections must cover 1:{n} (partial sections are not \
             the GAXPY pattern)"
        ));
    }
    for name in [a, b, c] {
        let arr = info
            .array(name)
            .ok_or_else(|| format!("gaxpy: undeclared array `{name}`"))?;
        if arr.shape.extents() != [n, n] {
            return Err(format!("gaxpy: `{name}` must be {n}x{n}"));
        }
    }
    use ooc_array::{DimDist, DistKind};
    let col_block = |name: &str| -> LowerResult<()> {
        let d = &info.array(name).expect("checked").dist;
        match (d.dims()[0], d.dims()[1]) {
            (
                DimDist::Collapsed,
                DimDist::Distributed {
                    kind: DistKind::Block,
                    ..
                },
            ) => Ok(()),
            _ => Err(format!("gaxpy: `{name}` must be distributed (*, block)")),
        }
    };
    col_block(a)?;
    col_block(c)?;
    let bd = &info.array(b).expect("checked").dist;
    match (bd.dims()[0], bd.dims()[1]) {
        (
            DimDist::Distributed {
                kind: DistKind::Block,
                ..
            },
            DimDist::Collapsed,
        ) => {}
        _ => return Err(format!("gaxpy: `{b}` must be distributed (block, *)")),
    }

    Ok(Some(HirStmt::Gaxpy {
        a: a.clone(),
        b: b.clone(),
        c: c.clone(),
        temp: temp.clone(),
        n,
    }))
}

/// Recognize `forall (i=1:n, j=1:m) dst(i,j) = src(j,i)`.
fn try_transpose(s: &Stmt, info: &ProgramInfo) -> LowerResult<Option<HirStmt>> {
    let Stmt::Forall { indices, body } = s else {
        return Ok(None);
    };
    if indices.len() != 2 || body.len() != 1 {
        return Ok(None);
    }
    let Stmt::Assign { lhs, rhs, .. } = &body[0] else {
        return Ok(None);
    };
    let (
        Expr::ArrayRef {
            name: dst,
            subs: ls,
        },
        Expr::ArrayRef {
            name: src,
            subs: rs,
        },
    ) = (lhs, rhs)
    else {
        return Ok(None);
    };
    let (i, j) = (&indices[0].0, &indices[1].0);
    let straight = ls.len() == 2
        && rs.len() == 2
        && is_index_var(&ls[0], i)
        && is_index_var(&ls[1], j)
        && is_index_var(&rs[0], j)
        && is_index_var(&rs[1], i);
    if !straight {
        return Ok(None);
    }
    // Must cover the full extents.
    let dst_arr = info
        .array(dst)
        .ok_or_else(|| format!("transpose: undeclared array `{dst}`"))?;
    let src_arr = info
        .array(src)
        .ok_or_else(|| format!("transpose: undeclared array `{src}`"))?;
    for (dim, (_, lo, hi)) in indices.iter().enumerate() {
        let lo = info.eval_const(lo).map_err(|e| e.to_string())?;
        let hi = info.eval_const(hi).map_err(|e| e.to_string())? as usize;
        if lo != 1 || hi != dst_arr.shape.extent(dim) {
            return Err("transpose: forall must cover the full arrays".to_string());
        }
    }
    if src_arr.shape.extent(0) != dst_arr.shape.extent(1)
        || src_arr.shape.extent(1) != dst_arr.shape.extent(0)
    {
        return Err("transpose: shape mismatch".to_string());
    }
    Ok(Some(HirStmt::Transpose {
        src: src.clone(),
        dst: dst.clone(),
    }))
}

/// Recognize an elementwise forall with shifted references.
fn try_elementwise(s: &Stmt, info: &ProgramInfo) -> LowerResult<Option<ElwStmt>> {
    let Stmt::Forall { indices, body } = s else {
        return Ok(None);
    };
    if body.len() != 1 {
        return Ok(None);
    }
    let Stmt::Assign { lhs, rhs, .. } = &body[0] else {
        return Ok(None);
    };
    let Expr::ArrayRef { name, subs } = lhs else {
        return Ok(None);
    };
    if subs.len() != indices.len() {
        return Ok(None);
    }
    // lhs subscripts must be the forall indices in order.
    let vars: Vec<&str> = indices.iter().map(|(v, _, _)| v.as_str()).collect();
    for (d, sub) in subs.iter().enumerate() {
        if !is_index_var(sub, vars[d]) {
            return Ok(None);
        }
    }
    let arr = info
        .array(name)
        .ok_or_else(|| format!("elementwise: undeclared array `{name}`"))?;
    // Iteration region from the forall bounds (1-based inclusive source).
    let mut ranges = Vec::with_capacity(indices.len());
    for (d, (_, lo, hi)) in indices.iter().enumerate() {
        let lo = info.eval_const(lo).map_err(|e| e.to_string())?;
        let hi = info.eval_const(hi).map_err(|e| e.to_string())?;
        if lo < 1 || hi as usize > arr.shape.extent(d) {
            return Err(format!(
                "elementwise: bounds {lo}:{hi} outside `{name}` dim {d}"
            ));
        }
        ranges.push(DimRange::new(lo as usize - 1, hi as usize));
    }
    let rhs = match lower_elw_expr(rhs, &vars, info) {
        Ok(e) => e,
        // Structurally an elementwise forall but the expression is out of
        // subset — report the reason rather than falling through.
        Err(msg) => return Err(format!("elementwise: {msg}")),
    };
    Ok(Some(ElwStmt {
        lhs: name.clone(),
        region: Section::new(ranges),
        rhs,
    }))
}

/// Recognize out-of-core CSR sparse matrix–vector multiplication:
///
/// ```text
/// do i = 1, n
///   y(i) = 0.0
///   do k = rowptr(i), rowptr(i+1) - 1
///     y(i) = y(i) + vals(k) * x(colidx(k))
///   end do
/// end do
/// ```
///
/// The trigger is the inner loop's array-valued lower bound — `do k =
/// rowptr(i), …` — which no other supported pattern produces; once
/// triggered, deviations are hard errors so the user learns why the
/// irregular translation does not apply.
fn try_spmv(s: &Stmt, info: &ProgramInfo) -> LowerResult<Option<HirStmt>> {
    let Stmt::Do {
        var: i,
        lo,
        hi,
        body,
    } = s
    else {
        return Ok(None);
    };
    if body.len() != 2 {
        return Ok(None);
    }
    let Stmt::Do {
        var: k,
        lo: klo,
        hi: khi,
        body: kbody,
    } = &body[1]
    else {
        return Ok(None);
    };
    let Expr::ArrayRef {
        name: rowptr,
        subs: rp_lo,
    } = klo
    else {
        return Ok(None);
    };
    let err = |msg: String| format!("spmv: {msg}");
    if !(rp_lo.len() == 1 && is_index_var(&rp_lo[0], i)) {
        return Err(err(format!("inner loop must start at `{rowptr}({i})`")));
    }
    let hi_matches = || -> bool {
        let Expr::Bin(BinOp::Sub, l, r) = khi else {
            return false;
        };
        if !matches!(r.as_ref(), Expr::Int(1)) {
            return false;
        }
        let Expr::ArrayRef { name, subs } = l.as_ref() else {
            return false;
        };
        name == rowptr && subs.len() == 1 && affine_offset(&subs[0], i) == Some(1)
    };
    if !hi_matches() {
        return Err(err(format!("inner loop must end at `{rowptr}({i}+1) - 1`")));
    }
    // y(i) = 0.0
    let Stmt::Assign { lhs, rhs, .. } = &body[0] else {
        return Err(err(
            "the row loop must clear the result first, `y(i) = 0.0`".into(),
        ));
    };
    let Expr::ArrayRef { name: y, subs: ys } = lhs else {
        return Err(err(
            "the row loop must clear the result first, `y(i) = 0.0`".into(),
        ));
    };
    if !(ys.len() == 1 && is_index_var(&ys[0], i)) {
        return Err(err(format!("the cleared element must be `{y}({i})`")));
    }
    match rhs {
        Expr::Real(v) if *v == 0.0 => {}
        Expr::Int(0) => {}
        _ => return Err(err(format!("`{y}({i})` must be cleared to zero"))),
    }
    // y(i) = y(i) + vals(k) * x(colidx(k))  (either multiplication order)
    let is_y_i = |e: &Expr| {
        matches!(e, Expr::ArrayRef { name, subs }
            if name == y && subs.len() == 1 && is_index_var(&subs[0], i))
    };
    let acc_err = || {
        err(format!(
            "inner body must be `{y}({i}) = {y}({i}) + vals({k}) * x(colidx({k}))`"
        ))
    };
    if kbody.len() != 1 {
        return Err(acc_err());
    }
    let Stmt::Assign {
        lhs: alhs,
        rhs: arhs,
        ..
    } = &kbody[0]
    else {
        return Err(acc_err());
    };
    if !is_y_i(alhs) {
        return Err(acc_err());
    }
    let Expr::Bin(BinOp::Add, al, ar) = arhs else {
        return Err(acc_err());
    };
    if !is_y_i(al) {
        return Err(acc_err());
    }
    let Expr::Bin(BinOp::Mul, f1, f2) = ar.as_ref() else {
        return Err(acc_err());
    };
    // vals(k): a direct reference through the nonzero index.
    fn direct_ref<'a>(e: &'a Expr, k: &str) -> Option<&'a str> {
        match e {
            Expr::ArrayRef { name, subs } if subs.len() == 1 && is_index_var(&subs[0], k) => {
                Some(name.as_str())
            }
            _ => None,
        }
    }
    // x(colidx(k)): the irregular indirection the inspector services.
    fn indirect_ref<'a>(e: &'a Expr, k: &str) -> Option<(&'a str, &'a str)> {
        let Expr::ArrayRef { name, subs } = e else {
            return None;
        };
        if subs.len() != 1 {
            return None;
        }
        let Subscript::Index(Expr::ArrayRef {
            name: idx,
            subs: isubs,
        }) = &subs[0]
        else {
            return None;
        };
        (isubs.len() == 1 && is_index_var(&isubs[0], k)).then_some((name.as_str(), idx.as_str()))
    }
    let (vals, x, colidx) =
        if let (Some(v), Some((x, c))) = (direct_ref(f1, k), indirect_ref(f2, k)) {
            (v, x, c)
        } else if let (Some(v), Some((x, c))) = (direct_ref(f2, k), indirect_ref(f1, k)) {
            (v, x, c)
        } else {
            return Err(acc_err());
        };

    // Pattern matched — validate bounds, shapes and distributions.
    let lo_v = info
        .eval_const(lo)
        .map_err(|e| err(format!("non-constant row bound: {e}")))?;
    let n = info
        .eval_const(hi)
        .map_err(|e| err(format!("non-constant row bound: {e}")))? as usize;
    if lo_v != 1 {
        return Err(err("the row loop must start at 1".into()));
    }
    let arr = |name: &str| {
        info.array(name)
            .ok_or_else(|| err(format!("undeclared array `{name}`")))
    };
    use ooc_array::{DimDist, DistKind};
    for name in [y, rowptr, colidx, vals, x] {
        let a = arr(name)?;
        if a.shape.extents().len() != 1 {
            return Err(err(format!("`{name}` must be a vector")));
        }
        if !matches!(
            a.dist.dims()[0],
            DimDist::Distributed {
                kind: DistKind::Block,
                ..
            }
        ) {
            return Err(err(format!(
                "`{name}` must be distributed (block): the inspector bins \
                 gather targets by block owner"
            )));
        }
    }
    if arr(y)?.shape.extents() != [n] {
        return Err(err(format!("`{y}` must have length {n}")));
    }
    if arr(x)?.shape.extents() != [n] {
        return Err(err(format!("`{x}` must have length {n}")));
    }
    if arr(rowptr)?.shape.extents() != [n + 1] {
        return Err(err(format!("`{rowptr}` must have length {}", n + 1)));
    }
    let nnz = arr(colidx)?.shape.extent(0);
    if arr(vals)?.shape.extents() != [nnz] {
        return Err(err(format!(
            "`{vals}` must match `{colidx}` (length {nnz})"
        )));
    }
    Ok(Some(HirStmt::Spmv {
        y: y.to_string(),
        rowptr: rowptr.clone(),
        colidx: colidx.to_string(),
        vals: vals.to_string(),
        x: x.to_string(),
        n,
        nnz,
    }))
}

fn lower_elw_expr(e: &Expr, vars: &[&str], info: &ProgramInfo) -> LowerResult<ElwExpr> {
    match e {
        Expr::Int(v) => Ok(ElwExpr::Const(*v as f32)),
        Expr::Real(v) => Ok(ElwExpr::Const(*v as f32)),
        Expr::Var(name) => match info.params.get(name) {
            Some(v) => Ok(ElwExpr::Const(*v as f32)),
            None => Err(format!("scalar `{name}` is not a constant parameter")),
        },
        Expr::Neg(inner) => Ok(ElwExpr::Neg(Box::new(lower_elw_expr(inner, vars, info)?))),
        Expr::Bin(op, l, r) => {
            let l = Box::new(lower_elw_expr(l, vars, info)?);
            let r = Box::new(lower_elw_expr(r, vars, info)?);
            Ok(match op {
                BinOp::Add => ElwExpr::Add(l, r),
                BinOp::Sub => ElwExpr::Sub(l, r),
                BinOp::Mul => ElwExpr::Mul(l, r),
                BinOp::Div => ElwExpr::Div(l, r),
            })
        }
        Expr::ArrayRef { name, subs } => {
            if subs.len() != vars.len() {
                return Err(format!("`{name}` rank does not match forall nest"));
            }
            let mut offsets = Vec::with_capacity(subs.len());
            for (d, sub) in subs.iter().enumerate() {
                offsets.push(affine_offset(sub, vars[d]).ok_or_else(|| {
                    format!("subscript {d} of `{name}` is not `{} ± const`", vars[d])
                })?);
            }
            Ok(ElwExpr::Ref {
                array: name.clone(),
                offsets,
            })
        }
        Expr::Call { name, .. } => Err(format!("intrinsic `{name}` not allowed here")),
    }
}

/// Match `v`, `v + c`, `c + v`, `v - c`; return the signed offset.
fn affine_offset(sub: &Subscript, var: &str) -> Option<isize> {
    let Subscript::Index(e) = sub else {
        return None;
    };
    match e {
        Expr::Var(v) if v == var => Some(0),
        Expr::Bin(BinOp::Add, l, r) => match (l.as_ref(), r.as_ref()) {
            (Expr::Var(v), Expr::Int(c)) if v == var => Some(*c as isize),
            (Expr::Int(c), Expr::Var(v)) if v == var => Some(*c as isize),
            _ => None,
        },
        Expr::Bin(BinOp::Sub, l, r) => match (l.as_ref(), r.as_ref()) {
            (Expr::Var(v), Expr::Int(c)) if v == var => Some(-(*c as isize)),
            _ => None,
        },
        _ => None,
    }
}

fn is_index_var(sub: &Subscript, var: &str) -> bool {
    matches!(sub, Subscript::Index(Expr::Var(v)) if v == var)
}

/// `1:n`, `1:n:1` or `:` (the full first dimension).
fn is_full_triplet(sub: &Subscript, info: &ProgramInfo) -> bool {
    match sub {
        Subscript::Triplet { lo, hi, step } => {
            let lo_ok = match lo {
                None => true,
                Some(e) => info.eval_const(e).map(|v| v == 1).unwrap_or(false),
            };
            let step_ok = match step {
                None => true,
                Some(e) => info.eval_const(e).map(|v| v == 1).unwrap_or(false),
            };
            // `hi` is checked against the shape later; any constant works
            // for pattern recognition.
            let hi_ok = match hi {
                None => true,
                Some(e) => info.eval_const(e).is_ok(),
            };
            lo_ok && step_ok && hi_ok
        }
        _ => false,
    }
}

/// `b(k, j)` — both subscripts plain index variables `k` then `j`.
fn is_scalar_ref(e: &Expr, k: &str, j: &str) -> bool {
    match e {
        Expr::ArrayRef { subs, .. } => {
            subs.len() == 2 && is_index_var(&subs[0], k) && is_index_var(&subs[1], j)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf::{analyze, parse_program};

    fn lower_src(src: &str) -> LowerResult<HirProgram> {
        let prog = parse_program(src).expect("parse");
        let info = analyze(&prog).expect("sema");
        lower(&info)
    }

    #[test]
    fn figure3_lowers_to_gaxpy() {
        let hir = lower_src(hpf::GAXPY_SOURCE).unwrap();
        assert_eq!(hir.stmts.len(), 1);
        match &hir.stmts[0] {
            HirStmt::Gaxpy { a, b, c, temp, n } => {
                assert_eq!((a.as_str(), b.as_str(), c.as_str()), ("a", "b", "c"));
                assert_eq!(temp, "temp");
                assert_eq!(*n, 64);
            }
            other => panic!("expected gaxpy, got {other:?}"),
        }
    }

    #[test]
    fn gaxpy_with_swapped_multiplication_order() {
        let src = hpf::GAXPY_SOURCE.replace("b(k, j) * a(1:n, k)", "a(1:n, k) * b(k, j)");
        let hir = lower_src(&src).unwrap();
        assert!(matches!(hir.stmts[0], HirStmt::Gaxpy { .. }));
    }

    #[test]
    fn jacobi_lowers_to_elementwise() {
        let src = "
      parameter (n=16)
      real u(n, n), v(n, n)
!hpf$ processors pr(4)
!hpf$ template t(n)
!hpf$ distribute t(block) on pr
!hpf$ align (:, *) with t :: u, v
      forall (i = 2:n-1, j = 2:n-1)
        v(i, j) = 0.25 * (u(i-1, j) + u(i+1, j) + u(i, j-1) + u(i, j+1))
      end forall
      end
";
        let hir = lower_src(src).unwrap();
        let HirStmt::Elementwise(e) = &hir.stmts[0] else {
            panic!("expected elementwise");
        };
        assert_eq!(e.lhs, "v");
        assert_eq!(e.region.range(0), DimRange::new(1, 15));
        assert_eq!(e.rhs.max_shift(2), vec![1, 1]);
        assert_eq!(e.rhs.flops_per_point(), 4);
    }

    #[test]
    fn transpose_is_recognized() {
        let src = "
      parameter (n=8)
      real a(n, n), b(n, n)
!hpf$ processors pr(2)
!hpf$ distribute a(*, block) on pr
!hpf$ distribute b(*, block) on pr
      forall (i = 1:n, j = 1:n)
        b(i, j) = a(j, i)
      end forall
      end
";
        let hir = lower_src(src).unwrap();
        assert_eq!(
            hir.stmts[0],
            HirStmt::Transpose {
                src: "a".into(),
                dst: "b".into()
            }
        );
    }

    #[test]
    fn scaled_copy_is_elementwise() {
        let src = "
      parameter (n=8)
      real a(n, n), b(n, n)
!hpf$ processors pr(2)
!hpf$ distribute a(*, block) on pr
!hpf$ distribute b(*, block) on pr
      forall (i = 1:n, j = 1:n)
        b(i, j) = 2.0 * a(i, j) + 1.0
      end forall
      end
";
        let hir = lower_src(src).unwrap();
        assert!(matches!(hir.stmts[0], HirStmt::Elementwise(_)));
    }

    #[test]
    fn nonaffine_subscript_is_reported() {
        let src = "
      parameter (n=8)
      real a(n, n), b(n, n)
!hpf$ processors pr(2)
!hpf$ distribute a(*, block) on pr
!hpf$ distribute b(*, block) on pr
      forall (i = 1:n, j = 1:n)
        b(i, j) = a(i * 2, j)
      end forall
      end
";
        let err = lower_src(src).unwrap_err();
        assert!(err.contains("not `i ± const`"), "{err}");
    }

    #[test]
    fn constant_do_loop_unrolls_sweeps() {
        let src = "
      parameter (n=16, iters=3)
      real u(n, n), v(n, n)
!hpf$ processors pr(4)
!hpf$ template t(n)
!hpf$ distribute t(block) on pr
!hpf$ align (:, *) with t :: u, v
      do it = 1, iters
        forall (i = 2:n-1, j = 2:n-1)
          v(i, j) = 0.25 * (u(i-1, j) + u(i+1, j) + u(i, j-1) + u(i, j+1))
        end forall
        forall (i = 2:n-1, j = 2:n-1)
          u(i, j) = v(i, j)
        end forall
      end do
      end
";
        let hir = lower_src(src).unwrap();
        assert_eq!(hir.stmts.len(), 6); // 3 iterations x 2 statements
        assert!(hir
            .stmts
            .iter()
            .all(|s| matches!(s, HirStmt::Elementwise(_))));
    }

    #[test]
    fn do_loop_referencing_its_variable_is_rejected() {
        let src = "
      parameter (n=8)
      real u(n, n)
!hpf$ processors pr(2)
!hpf$ distribute u(*, block) on pr
      do it = 1, 4
        forall (i = 1:n, j = 1:n)
          u(i, j) = u(i, j) + it
        end forall
      end do
      end
";
        let err = lower_src(src).unwrap_err();
        assert!(err.contains("references the loop variable"), "{err}");
    }

    #[test]
    fn huge_do_loop_hits_the_unroll_limit() {
        let src = "
      parameter (n=8)
      real u(n, n)
!hpf$ processors pr(2)
!hpf$ distribute u(*, block) on pr
      do it = 1, 1000
        forall (i = 1:n, j = 1:n)
          u(i, j) = 2.0 * u(i, j)
        end forall
      end do
      end
";
        let err = lower_src(src).unwrap_err();
        assert!(err.contains("unroll limit"), "{err}");
    }

    #[test]
    fn nested_do_loops_multiply_out() {
        let src = "
      parameter (n=8)
      real u(n, n), v(n, n)
!hpf$ processors pr(2)
!hpf$ distribute u(*, block) on pr
!hpf$ distribute v(*, block) on pr
      do a = 1, 2
        do b = 1, 3
          forall (i = 1:n, j = 1:n)
            v(i, j) = u(i, j)
          end forall
        end do
      end do
      end
";
        let hir = lower_src(src).unwrap();
        assert_eq!(hir.stmts.len(), 6);
    }

    #[test]
    fn gaxpy_partial_column_section_is_rejected() {
        // temp(1:5, k) is not the GAXPY pattern; it must not compile as one.
        let src = hpf::GAXPY_SOURCE.replace("temp(1:n, k)", "temp(1:5, k)");
        let err = lower_src(&src).unwrap_err();
        assert!(err.contains("cover 1:64"), "{err}");
    }

    #[test]
    fn gaxpy_wrong_distribution_is_reported() {
        // b distributed column-block like a: the GAXPY translation does not
        // apply.
        let src = hpf::GAXPY_SOURCE.replace(
            "!hpf$ align (:,*) with d :: b",
            "!hpf$ align (*,:) with d :: b",
        );
        let err = lower_src(&src).unwrap_err();
        assert!(err.contains("(block, *)"), "{err}");
    }

    #[test]
    fn csr_spmv_lowers_to_spmv() {
        let hir = lower_src(hpf::SPMV_SOURCE).unwrap();
        assert_eq!(hir.stmts.len(), 1);
        match &hir.stmts[0] {
            HirStmt::Spmv {
                y,
                rowptr,
                colidx,
                vals,
                x,
                n,
                nnz,
            } => {
                assert_eq!(
                    (
                        y.as_str(),
                        rowptr.as_str(),
                        colidx.as_str(),
                        vals.as_str(),
                        x.as_str()
                    ),
                    ("y", "rowptr", "colidx", "vals", "x")
                );
                assert_eq!((*n, *nnz), (64, 512));
            }
            other => panic!("expected spmv, got {other:?}"),
        }
    }

    #[test]
    fn spmv_with_swapped_multiplication_order() {
        let src = hpf::SPMV_SOURCE.replace("vals(k) * x(colidx(k))", "x(colidx(k)) * vals(k)");
        let hir = lower_src(&src).unwrap();
        assert!(matches!(hir.stmts[0], HirStmt::Spmv { .. }));
    }

    #[test]
    fn spmv_without_clearing_the_result_is_reported() {
        let src = hpf::SPMV_SOURCE.replace("y(i) = 0.0", "y(i) = 1.0");
        let err = lower_src(&src).unwrap_err();
        assert!(err.contains("cleared to zero"), "{err}");
    }

    #[test]
    fn spmv_with_undistributed_indirection_array_is_reported() {
        // The indirection array itself is checked upstream in sema (with a
        // source line); the lowering still rejects it for callers that skip
        // the frontend, and rejects non-block *data* arrays itself.
        let src = hpf::SPMV_SOURCE.replace(
            "distribute colidx(block) on pr",
            "distribute colidx(cyclic) on pr",
        );
        let prog = parse_program(&src).expect("parse");
        let err = analyze(&prog).unwrap_err();
        assert!(
            err.message.contains("colidx") && err.message.contains("block"),
            "{err}"
        );
        assert!(err.line > 0, "sema diagnostic should carry a line: {err}");

        let src =
            hpf::SPMV_SOURCE.replace("distribute x(block) on pr", "distribute x(cyclic) on pr");
        let err = lower_src(&src).unwrap_err();
        assert!(err.contains("`x`") && err.contains("block"), "{err}");
    }

    #[test]
    fn spmv_with_mismatched_vals_length_is_reported() {
        let src = hpf::SPMV_SOURCE.replace("vals(nnz)", "vals(nnz + 1)");
        let err = lower_src(&src).unwrap_err();
        assert!(err.contains("must match"), "{err}");
    }

    #[test]
    fn spmv_with_wrong_upper_bound_is_reported() {
        let src = hpf::SPMV_SOURCE.replace("rowptr(i+1) - 1", "rowptr(i+1)");
        let err = lower_src(&src).unwrap_err();
        assert!(err.contains("rowptr(i+1) - 1"), "{err}");
    }

    #[test]
    fn out_of_bounds_forall_is_reported() {
        let src = "
      parameter (n=8)
      real a(n, n)
!hpf$ processors pr(2)
!hpf$ distribute a(*, block) on pr
      forall (i = 1:n+1, j = 1:n)
        a(i, j) = 0.0
      end forall
      end
";
        let err = lower_src(src).unwrap_err();
        assert!(err.contains("outside"), "{err}");
    }
}
