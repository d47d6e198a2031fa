//! Elementwise forall executor: ghost exchange + stripmined evaluation.
//!
//! The plan's arrays all share one distribution, so the owner-computes
//! local iteration space is the local part of the global region. Shifted
//! references crossing the processor boundary along the distributed
//! dimension are served from ghost strips exchanged once, up front (HPF
//! copy-in semantics: the exchange happens before any element of the
//! statement is stored).

use std::collections::HashMap;

use dmsim::{Payload, ProcCtx, Tag};
use ooc_array::{DimDist, DimRange, OocEnv, OocError, Section, Shape};
use ooc_core::hir::ElwExpr;
use ooc_core::partition::local_iteration_space;
use ooc_core::plan::ElwPlan;

const GHOST_TAG: Tag = Tag(0x6057);

/// Ghost strips for one (rhs array, dimension) pair, in section-CM order.
struct Ghost {
    /// Strip from the lower neighbor: serves local indices `-lo_width..0`
    /// along the dimension. `(section in the neighbor's local space, data)`.
    lo: Option<(Section, Vec<f32>)>,
    /// Strip from the upper neighbor: serves `ext..ext+hi_width`.
    hi: Option<(Section, Vec<f32>)>,
}

/// Expression with array references resolved to rhs-array indices.
enum CExpr {
    Const(f32),
    Ref { ai: usize, offsets: Vec<isize> },
    Neg(Box<CExpr>),
    Add(Box<CExpr>, Box<CExpr>),
    Sub(Box<CExpr>, Box<CExpr>),
    Mul(Box<CExpr>, Box<CExpr>),
    Div(Box<CExpr>, Box<CExpr>),
}

fn compile_expr(e: &ElwExpr, plan: &ElwPlan) -> CExpr {
    match e {
        ElwExpr::Const(v) => CExpr::Const(*v),
        ElwExpr::Ref { array, offsets } => {
            let ai = plan
                .rhs_arrays
                .iter()
                .position(|d| d.name == *array)
                .unwrap_or_else(|| panic!("rhs array `{array}` missing from plan"));
            CExpr::Ref {
                ai,
                offsets: offsets.clone(),
            }
        }
        ElwExpr::Neg(i) => CExpr::Neg(Box::new(compile_expr(i, plan))),
        ElwExpr::Add(l, r) => CExpr::Add(
            Box::new(compile_expr(l, plan)),
            Box::new(compile_expr(r, plan)),
        ),
        ElwExpr::Sub(l, r) => CExpr::Sub(
            Box::new(compile_expr(l, plan)),
            Box::new(compile_expr(r, plan)),
        ),
        ElwExpr::Mul(l, r) => CExpr::Mul(
            Box::new(compile_expr(l, plan)),
            Box::new(compile_expr(r, plan)),
        ),
        ElwExpr::Div(l, r) => CExpr::Div(
            Box::new(compile_expr(l, plan)),
            Box::new(compile_expr(r, plan)),
        ),
    }
}

/// Execute the plan on this processor. Returns peak in-core elements.
///
/// With `prefetch`, each stage's slab reads overlap the previous stage's
/// deferred computation (stencil stages have no intervening collective, so
/// the overlap is effective — unlike the GAXPY row version).
pub fn execute(ctx: &ProcCtx, env: &mut OocEnv, plan: &ElwPlan) -> Result<usize, OocError> {
    execute_prefetched(ctx, env, plan, false)
}

/// See [`execute`]; `prefetch` selects the software-pipelined variant.
pub fn execute_prefetched(
    ctx: &ProcCtx,
    env: &mut OocEnv,
    plan: &ElwPlan,
    prefetch: bool,
) -> Result<usize, OocError> {
    let rank = ctx.rank();
    let local_shape = plan.lhs.local_shape(rank);
    let ndims = local_shape.ndims();
    let mut peak = 0usize;

    // Mixed-distribution right-hand sides were remapped by the compiler:
    // redistribute each into its statement-local temporary first.
    for remap in &plan.pre_remaps {
        ooc_array::redistribute_with(ctx, env, &remap.src, &remap.tmp, remap.method, ctx)?;
        peak = peak.max(remap.src.local_shape(rank).len());
    }

    // ---- Ghost exchange (charged I/O + real messages). -----------------
    let ghost_span = ctx.trace_span(ooc_trace::Category::Slab, "ghost_exchange");
    let mut ghosts: HashMap<(usize, usize), Ghost> = HashMap::new();
    for g in &plan.ghosts {
        let (p_axis, coord) = match plan.lhs.dist.dims()[g.dim] {
            DimDist::Distributed { axis, .. } => {
                debug_assert_eq!(plan.lhs.dist.grid().naxes(), 1, "1-D grids supported");
                let coords = plan.lhs.dist.grid().coords(rank);
                (plan.lhs.dist.grid().extent(axis), coords[axis])
            }
            DimDist::Collapsed => unreachable!("ghost along collapsed dim"),
        };
        let ext = local_shape.extent(g.dim);

        for (ai, rd) in plan.rhs_arrays.iter().enumerate() {
            let rd_local = rd.local_shape(rank);
            // Send my lowest hi_width rows to the lower neighbor (they are
            // its upper ghosts) and my highest lo_width rows to the upper
            // neighbor (its lower ghosts).
            if coord > 0 && g.hi_width > 0 {
                let sec = Section::full(&rd_local)
                    .with_range(g.dim, DimRange::new(0, g.hi_width.min(ext)));
                let data = env.read_section(rd, &sec, ctx)?;
                ctx.send(rank - 1, GHOST_TAG, Payload::F32(data));
            }
            if coord + 1 < p_axis && g.lo_width > 0 {
                let lo = ext.saturating_sub(g.lo_width);
                let sec = Section::full(&rd_local).with_range(g.dim, DimRange::new(lo, ext));
                let data = env.read_section(rd, &sec, ctx)?;
                ctx.send(rank + 1, GHOST_TAG, Payload::F32(data));
            }
            let mut ghost = Ghost { lo: None, hi: None };
            if coord > 0 && g.lo_width > 0 {
                let nb = plan.lhs.local_shape(rank - 1);
                let nb_ext = nb.extent(g.dim);
                let sec = Section::full(&nb).with_range(
                    g.dim,
                    DimRange::new(nb_ext.saturating_sub(g.lo_width), nb_ext),
                );
                let data = ctx.try_recv_f32(rank - 1, GHOST_TAG)?;
                debug_assert_eq!(data.len(), sec.len());
                ghost.lo = Some((sec, data));
            }
            if coord + 1 < p_axis && g.hi_width > 0 {
                let nb = plan.lhs.local_shape(rank + 1);
                let sec = Section::full(&nb)
                    .with_range(g.dim, DimRange::new(0, g.hi_width.min(nb.extent(g.dim))));
                let data = ctx.try_recv_f32(rank + 1, GHOST_TAG)?;
                debug_assert_eq!(data.len(), sec.len());
                ghost.hi = Some((sec, data));
            }
            peak += ghost.lo.as_ref().map(|(_, d)| d.len()).unwrap_or(0)
                + ghost.hi.as_ref().map(|(_, d)| d.len()).unwrap_or(0);
            ghosts.insert((ai, g.dim), ghost);
        }
    }
    drop(ghost_span);
    let ghost_peak = peak;

    // ---- Stripmined evaluation. -----------------------------------------
    let Some(local_region) = local_iteration_space(&plan.lhs.dist, rank, &plan.region) else {
        // Nothing to compute here; the exchange above still served the
        // neighbors.
        return Ok(peak);
    };

    let expr = compile_expr(&plan.expr, plan);
    // Specialize: a linear combination with no ghost strips runs through
    // contiguous term-by-term loops instead of the per-point interpreter.
    let fast_kernel = if plan.ghosts.is_empty() {
        crate::kernels::linearize(&plan.expr, &|name| {
            plan.rhs_arrays
                .iter()
                .position(|d| d.name == name)
                .expect("rhs array present")
        })
    } else {
        None
    };
    let stmt_shifts = {
        let stmt = ooc_core::hir::ElwStmt {
            lhs: plan.lhs.name.clone(),
            region: plan.region.clone(),
            rhs: plan.expr.clone(),
        };
        stmt.max_shift(ndims)
    };

    let r = local_region.range(plan.slab_dim);
    let t = plan.slab_thickness.max(1);
    let mut pending_flops = 0u64;
    let mut slab_idx = 0u64;
    let mut lo = r.lo;
    while lo < r.hi {
        let _slab = ctx.trace_slab_span("slab", slab_idx);
        let hi = (lo + t).min(r.hi);
        let out_sec = local_region
            .clone()
            .with_range(plan.slab_dim, DimRange::new(lo, hi));

        // Widened input section per rhs array, clamped to the local array.
        // With prefetch, the whole stage's reads overlap the previous
        // stage's deferred compute.
        let pend = pario::PendingIo::new();
        let mut inputs: Vec<(Section, Vec<f32>)> = Vec::with_capacity(plan.rhs_arrays.len());
        for rd in &plan.rhs_arrays {
            let mut sec = out_sec.clone();
            for (d, &shift) in stmt_shifts.iter().enumerate().take(ndims) {
                let rr = sec.range(d);
                let a = rr.lo.saturating_sub(shift);
                let b = (rr.hi + shift).min(local_shape.extent(d));
                sec = sec.with_range(d, DimRange::new(a, b));
            }
            let data = if prefetch {
                env.read_section(rd, &sec, &pend)?
            } else {
                env.read_section(rd, &sec, ctx)?
            };
            inputs.push((sec, data));
        }
        if prefetch {
            let (reqs, bytes) = pend.reads();
            ctx.charge_prefetched_read(reqs, bytes, pending_flops);
            pending_flops = 0;
        }

        let mut out = vec![0.0f32; out_sec.len()];
        match &fast_kernel {
            Some(k) => crate::kernels::run_linear(k, &out_sec, &inputs, &mut out),
            None => {
                // One index buffer for the whole slab, advanced as an
                // odometer in section column-major order.
                let mut idx: Vec<usize> = out_sec.ranges().iter().map(|r| r.lo).collect();
                for o in out.iter_mut() {
                    *o = eval(&expr, &idx, &inputs, &ghosts, &local_shape);
                    for (i, r) in idx.iter_mut().zip(out_sec.ranges()) {
                        *i += r.step;
                        if *i < r.hi {
                            break;
                        }
                        *i = r.lo;
                    }
                }
            }
        }
        if prefetch {
            pending_flops += out_sec.len() as u64 * plan.flops_per_point;
        } else {
            ctx.charge_flops(out_sec.len() as u64 * plan.flops_per_point);
        }
        peak =
            peak.max(ghost_peak + out.len() + inputs.iter().map(|(_, d)| d.len()).sum::<usize>());

        env.write_section(&plan.lhs, &out_sec, &out, ctx)?;
        slab_idx += 1;
        lo = hi;
    }
    if pending_flops > 0 {
        ctx.charge_flops(pending_flops);
    }
    Ok(peak)
}

fn eval(
    e: &CExpr,
    idx: &[usize],
    inputs: &[(Section, Vec<f32>)],
    ghosts: &HashMap<(usize, usize), Ghost>,
    local_shape: &Shape,
) -> f32 {
    match e {
        CExpr::Const(v) => *v,
        CExpr::Neg(i) => -eval(i, idx, inputs, ghosts, local_shape),
        CExpr::Add(l, r) => {
            eval(l, idx, inputs, ghosts, local_shape) + eval(r, idx, inputs, ghosts, local_shape)
        }
        CExpr::Sub(l, r) => {
            eval(l, idx, inputs, ghosts, local_shape) - eval(r, idx, inputs, ghosts, local_shape)
        }
        CExpr::Mul(l, r) => {
            eval(l, idx, inputs, ghosts, local_shape) * eval(r, idx, inputs, ghosts, local_shape)
        }
        CExpr::Div(l, r) => {
            eval(l, idx, inputs, ghosts, local_shape) / eval(r, idx, inputs, ghosts, local_shape)
        }
        CExpr::Ref { ai, offsets } => sample(*ai, idx, offsets, inputs, ghosts, local_shape),
    }
}

/// Fetch `array[idx + offsets]`, falling back to ghost strips when the
/// target leaves the local index space along a distributed dimension.
fn sample(
    ai: usize,
    idx: &[usize],
    offsets: &[isize],
    inputs: &[(Section, Vec<f32>)],
    ghosts: &HashMap<(usize, usize), Ghost>,
    local_shape: &Shape,
) -> f32 {
    // The target `idx + offsets` is computed on the fly, never stored.
    let target = |d: usize| idx[d] as isize + offsets[d];
    let oob = |d: &usize| {
        let t = target(*d);
        t < 0 || t >= local_shape.extent(*d) as isize
    };
    debug_assert!(
        (0..idx.len()).filter(oob).count() <= 1,
        "corner ghost (two out-of-bounds dims) not supported on 1-D grids"
    );
    match (0..idx.len()).rev().find(oob) {
        None => {
            let (sec, data) = &inputs[ai];
            data[section_cm_index(sec, target)]
        }
        Some(d) => {
            let ghost = ghosts
                .get(&(ai, d))
                .unwrap_or_else(|| panic!("reference leaves local space without ghosts (dim {d})"));
            let ((sec, data), shift) = if target(d) < 0 {
                let strip = ghost
                    .lo
                    .as_ref()
                    .expect("lower ghost present (boundary region excluded it otherwise)");
                // Neighbor-local coordinate of the target row: strips end
                // at the neighbor's extent.
                (strip, strip.0.range(d).hi as isize)
            } else {
                let strip = ghost.hi.as_ref().expect("upper ghost present");
                (strip, -(local_shape.extent(d) as isize))
            };
            data[section_cm_index(sec, |k| target(k) + if k == d { shift } else { 0 })]
        }
    }
}

/// Column-major position inside a section of the absolute local index
/// whose coordinate along dimension `d` is `target(d)`.
fn section_cm_index(sec: &Section, target: impl Fn(usize) -> isize) -> usize {
    let mut pos = 0usize;
    let mut stride = 1usize;
    for d in 0..sec.ndims() {
        let t = target(d);
        let r = sec.range(d);
        debug_assert!(
            t >= r.lo as isize && (t as usize) < r.hi,
            "target {t} outside section dim {d} [{}, {})",
            r.lo,
            r.hi
        );
        pos += (t as usize - r.lo) * stride;
        stride *= r.len();
    }
    pos
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{assemble_global, max_abs_diff, ref_jacobi};
    use dmsim::{Machine, MachineConfig};
    use ooc_array::{ArrayDesc, ArrayId, Distribution, Shape as AShape};
    use ooc_core::hir::ElwExpr;
    use pario::ElemKind;

    fn jacobi_plan(n: usize, p: usize, thickness: usize, row_block: bool) -> ElwPlan {
        let shape = AShape::matrix(n, n);
        let dist = if row_block {
            Distribution::row_block(shape.clone(), p)
        } else {
            Distribution::column_block(shape.clone(), p)
        };
        let u = ArrayDesc::new(ArrayId(0), "u", ElemKind::F32, dist.clone());
        let v = ArrayDesc::new(ArrayId(1), "v", ElemKind::F32, dist.clone());
        let sum = ElwExpr::add(
            ElwExpr::add(
                ElwExpr::shifted("u", vec![-1, 0]),
                ElwExpr::shifted("u", vec![1, 0]),
            ),
            ElwExpr::add(
                ElwExpr::shifted("u", vec![0, -1]),
                ElwExpr::shifted("u", vec![0, 1]),
            ),
        );
        let expr = ElwExpr::mul(ElwExpr::Const(0.25), sum);
        let region = Section::new(vec![DimRange::new(1, n - 1), DimRange::new(1, n - 1)]);
        let ghosts = if row_block {
            vec![ooc_core::plan::GhostSpec {
                dim: 0,
                lo_width: 1,
                hi_width: 1,
            }]
        } else {
            vec![ooc_core::plan::GhostSpec {
                dim: 1,
                lo_width: 1,
                hi_width: 1,
            }]
        };
        let slab_dim = if row_block { 0 } else { 1 };
        ElwPlan {
            pre_remaps: vec![],
            lhs: v,
            rhs_arrays: vec![u],
            expr: expr.clone(),
            region,
            slab_dim,
            slab_thickness: thickness,
            ghosts,
            flops_per_point: expr.flops_per_point(),
        }
    }

    fn init_u(g: &[usize]) -> f32 {
        ((g[0] * 13 + g[1] * 7) % 17) as f32 - 8.0
    }

    fn run_jacobi(n: usize, p: usize, thickness: usize, row_block: bool) -> Vec<f32> {
        let plan = jacobi_plan(n, p, thickness, row_block);
        let machine = Machine::new(MachineConfig::free(p));
        let (_, results) = machine.run_with(|ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            env.alloc(&plan.rhs_arrays[0]).unwrap();
            env.alloc(&plan.lhs).unwrap();
            env.load_global(&plan.rhs_arrays[0], &init_u).unwrap();
            // v starts as a copy of u so the untouched boundary matches the
            // reference.
            env.load_global(&plan.lhs, &init_u).unwrap();
            execute(ctx, &mut env, &plan).unwrap();
            env.read_local_all(&plan.lhs).unwrap()
        });
        let locals: Vec<&[f32]> = results.iter().map(|v| v.as_slice()).collect();
        assemble_global(&plan.lhs, &locals).1
    }

    #[test]
    fn jacobi_sweep_matches_reference_both_distributions() {
        let n = 12;
        let expect = ref_jacobi(n, &init_u);
        for row_block in [true, false] {
            for p in [1, 2, 4] {
                for thickness in [1, 3, 16] {
                    let got = run_jacobi(n, p, thickness, row_block);
                    assert!(
                        max_abs_diff(&got, &expect) < 1e-5,
                        "row_block={row_block} p={p} t={thickness}"
                    );
                }
            }
        }
    }

    #[test]
    fn ghost_exchange_sends_messages() {
        let plan = jacobi_plan(12, 3, 4, true);
        let machine = Machine::new(MachineConfig::delta(3));
        let report = machine.run(|ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            env.alloc(&plan.rhs_arrays[0]).unwrap();
            env.alloc(&plan.lhs).unwrap();
            env.load_global(&plan.rhs_arrays[0], &init_u).unwrap();
            execute(ctx, &mut env, &plan).unwrap();
        });
        // Rank 1 (middle) exchanges with both neighbors: 2 sends.
        assert_eq!(report.per_proc()[1].stats.msgs_sent, 2);
        assert_eq!(report.per_proc()[0].stats.msgs_sent, 1);
    }

    #[test]
    fn scaled_copy_without_ghosts() {
        // v = 2*u + 1 with zero offsets: no communication at all.
        let n = 8;
        let shape = AShape::matrix(n, n);
        let dist = Distribution::column_block(shape.clone(), 2);
        let u = ArrayDesc::new(ArrayId(0), "u", ElemKind::F32, dist.clone());
        let v = ArrayDesc::new(ArrayId(1), "v", ElemKind::F32, dist);
        let expr = ElwExpr::add(
            ElwExpr::mul(ElwExpr::Const(2.0), ElwExpr::aref("u", 2)),
            ElwExpr::Const(1.0),
        );
        let plan = ElwPlan {
            pre_remaps: vec![],
            lhs: v.clone(),
            rhs_arrays: vec![u.clone()],
            expr: expr.clone(),
            region: Section::full(&shape),
            slab_dim: 1,
            slab_thickness: 2,
            ghosts: vec![],
            flops_per_point: expr.flops_per_point(),
        };
        let machine = Machine::new(MachineConfig::delta(2));
        let (report, results) = machine.run_with(|ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            env.alloc(&u).unwrap();
            env.alloc(&v).unwrap();
            env.load_global(&u, &init_u).unwrap();
            execute(ctx, &mut env, &plan).unwrap();
            env.read_local_all(&v).unwrap()
        });
        assert_eq!(report.totals().msgs_sent, 0);
        let locals: Vec<&[f32]> = results.iter().map(|x| x.as_slice()).collect();
        let (gshape, got) = assemble_global(&v, &locals);
        for (off, idx) in Section::full(&gshape).indices().enumerate() {
            assert_eq!(got[off], 2.0 * init_u(&idx) + 1.0);
        }
    }

    #[test]
    fn linear_fast_path_agrees_with_the_interpreter() {
        // Same statement run twice: once eligible for the specialized
        // linear kernel, once forced onto the per-point interpreter by a
        // zero-width ghost spec (which disables the fast path but never
        // exchanges anything). Outputs must be identical.
        let n = 12;
        let shape = AShape::matrix(n, n);
        let dist = Distribution::column_block(shape.clone(), 3);
        let u = ArrayDesc::new(ArrayId(0), "u", ElemKind::F32, dist.clone());
        let w = ArrayDesc::new(ArrayId(1), "w", ElemKind::F32, dist.clone());
        let v = ArrayDesc::new(ArrayId(2), "v", ElemKind::F32, dist);
        // v = 2u(i-1,j) - w/4 + 1  (shift along the collapsed dim only).
        let expr = ElwExpr::add(
            ElwExpr::Sub(
                Box::new(ElwExpr::mul(
                    ElwExpr::Const(2.0),
                    ElwExpr::shifted("u", vec![-1, 0]),
                )),
                Box::new(ElwExpr::Div(
                    Box::new(ElwExpr::aref("w", 2)),
                    Box::new(ElwExpr::Const(4.0)),
                )),
            ),
            ElwExpr::Const(1.0),
        );
        let region = Section::new(vec![DimRange::new(1, n), DimRange::new(0, n)]);
        let base_plan = ElwPlan {
            pre_remaps: vec![],
            lhs: v.clone(),
            rhs_arrays: vec![u.clone(), w.clone()],
            expr: expr.clone(),
            region,
            slab_dim: 1,
            slab_thickness: 2,
            ghosts: vec![],
            flops_per_point: expr.flops_per_point(),
        };
        let mut forced_slow = base_plan.clone();
        forced_slow.ghosts.push(ooc_core::plan::GhostSpec {
            dim: 1,
            lo_width: 0,
            hi_width: 0,
        });

        let run_plan = |plan: &ElwPlan| -> Vec<f32> {
            let machine = Machine::new(MachineConfig::free(3));
            let (_, results) = machine.run_with(|ctx| {
                let mut env = OocEnv::in_memory(ctx.rank());
                env.alloc(&u).unwrap();
                env.alloc(&w).unwrap();
                env.alloc(&v).unwrap();
                env.load_global(&u, &init_u).unwrap();
                env.load_global(&w, &|g: &[usize]| (g[0] + 2 * g[1]) as f32)
                    .unwrap();
                execute(ctx, &mut env, plan).unwrap();
                env.read_local_all(&v).unwrap()
            });
            let locals: Vec<&[f32]> = results.iter().map(|x| x.as_slice()).collect();
            assemble_global(&v, &locals).1
        };

        let fast = run_plan(&base_plan);
        let slow = run_plan(&forced_slow);
        assert_eq!(fast, slow, "specialized kernel diverges from interpreter");
    }

    #[test]
    fn elementwise_prefetch_shrinks_time_not_counts() {
        let plan = jacobi_plan(24, 2, 3, true);
        let run_with = |prefetch: bool| {
            let machine = Machine::new(MachineConfig::delta(2));
            machine.run(|ctx| {
                let mut env = OocEnv::in_memory(ctx.rank());
                env.alloc(&plan.rhs_arrays[0]).unwrap();
                env.alloc(&plan.lhs).unwrap();
                env.load_global(&plan.rhs_arrays[0], &init_u).unwrap();
                execute_prefetched(ctx, &mut env, &plan, prefetch).unwrap();
            })
        };
        let base = run_with(false);
        let pre = run_with(true);
        assert!(
            pre.elapsed() < base.elapsed(),
            "prefetch {} !< base {}",
            pre.elapsed(),
            base.elapsed()
        );
        let (b0, p0) = (base.per_proc()[0].stats, pre.per_proc()[0].stats);
        assert_eq!(b0.io_requests(), p0.io_requests());
        assert_eq!(b0.io_bytes(), p0.io_bytes());
        assert_eq!(b0.flops, p0.flops);
    }

    #[test]
    fn measured_elw_io_matches_estimator() {
        // Interior/edge slab grouping in the estimator must agree with the
        // executor, including the ragged last stage.
        for thickness in [1, 2, 3, 5] {
            let plan = jacobi_plan(12, 2, thickness, true);
            let nest = ooc_core::nodegen::elw_nest(&plan, 0);
            let predicted = ooc_core::ir::totals(&nest);
            let machine = Machine::new(MachineConfig::delta(2));
            let report = machine.run(|ctx| {
                let mut env = OocEnv::in_memory(ctx.rank());
                env.alloc(&plan.rhs_arrays[0]).unwrap();
                env.alloc(&plan.lhs).unwrap();
                execute(ctx, &mut env, &plan).unwrap();
            });
            let s0 = report.per_proc()[0].stats;
            assert_eq!(
                s0.io_read_requests, predicted.per_array["u"].read_requests,
                "t={thickness}"
            );
            assert_eq!(
                s0.io_write_requests, predicted.per_array["v"].write_requests,
                "t={thickness}"
            );
        }
    }
}
