//! Elementwise forall executor: the rank's schedule
//! ([`ElwPlan::schedule`]) run as a ghost exchange, then one evaluator over
//! contiguous runs of ghost-filled stage buffers.
//!
//! The schedule is the one the compiler prices stage by stage
//! (`ooc_core::nodegen::elw_nest`); this module decides no section itself.
//! The plan's arrays all share one distribution, so the owner-computes
//! local iteration space is the local part of the global region. Shifted
//! references crossing the processor boundary along the distributed
//! dimension are served from ghost strips exchanged once, up front (HPF
//! copy-in semantics: the exchange happens before any element of the
//! statement is stored).
//!
//! Each stage reads, per rhs array, the stage's input section and places
//! it in one buffer together with the part of the received strips the
//! stage reaches (the same widening, [`ElwExpr::widen`], in the halo
//! space), so every shifted reference is an in-bounds offset into that
//! buffer. The expression is compiled once into a postfix `Program` and
//! evaluated one dimension-0 run at a time: a constant fills the run, a
//! reference reads a slice of its buffer, an operation combines two runs.
//! Every element sees the operations of the written expression in the
//! written order, so the result is bitwise a serial evaluation of the same
//! tree.

use std::iter::repeat;

use dmsim::{Payload, ProcCtx, Tag};
use ooc_array::{DimRange, OocEnv, OocError, Section};
use ooc_core::hir::ElwExpr;
use ooc_core::plan::ElwPlan;
use pario::IoCharge;

const GHOST_TAG: Tag = Tag(0x6057);

/// Execute the plan on this processor: run its schedule
/// ([`ElwPlan::schedule`]), every strip and stage access under the plan's
/// method ([`ElwPlan::method`]), charging every disk access through
/// `charge`. Returns peak in-core elements.
///
/// When the plan prefetches ([`ElwPlan::prefetch`]), each stage's slab
/// reads overlap the previous stage's deferred computation (stencil stages
/// have no intervening collective, so the overlap is effective — unlike the
/// GAXPY row version) into a second input buffer per rhs array. Prefetched
/// reads charge through the context's overlapped path, not `charge`.
pub fn execute(
    ctx: &ProcCtx,
    env: &mut OocEnv,
    plan: &ElwPlan,
    charge: &dyn IoCharge,
) -> Result<usize, OocError> {
    let (rank, prefetch, policy) = (ctx.rank(), plan.prefetch, plan.method.sieve_policy());
    let mut peak = 0usize;

    // Mixed-distribution right-hand sides were remapped by the compiler:
    // redistribute each into its statement-local temporary first.
    for remap in &plan.pre_remaps {
        ooc_array::redistribute_with(ctx, env, &remap.src, &remap.tmp, remap.method, charge)?;
        peak = peak.max(remap.src.local_shape(rank).len());
    }
    let schedule = plan.schedule(rank);

    // ---- Ghost exchange (charged I/O + real messages). -----------------
    // `placed[ai]` holds array `ai`'s received strips, each with the
    // section of the halo space it fills.
    let ghost_span = ctx.trace_span(ooc_trace::Category::Slab, "ghost_exchange");
    let narr = plan.rhs_arrays.len();
    let mut placed: Vec<Vec<(&Section, Vec<f32>)>> = vec![Vec::new(); narr];
    for strip in &schedule.strips {
        if strip.send {
            let mut data = Vec::new();
            let rd = &plan.rhs_arrays[strip.array];
            env.read_section_into(rd, &strip.section, &mut data, charge, policy)?;
            ctx.send(strip.peer, GHOST_TAG, Payload::F32(data));
        } else {
            let data = ctx.try_recv_f32(strip.peer, GHOST_TAG)?;
            debug_assert_eq!(data.len(), strip.section.len());
            peak += data.len();
            placed[strip.array].push((&strip.section, data));
        }
    }
    drop(ghost_span);
    let ghost_peak = peak;
    let to_halo = |sec: &Section| {
        let ranges: Vec<DimRange> = (sec.ranges().iter().zip(&schedule.pad))
            .map(|(r, p)| DimRange::new(r.lo + p, r.hi + p))
            .collect();
        Section::new(ranges)
    };

    // ---- Stripmined evaluation. -----------------------------------------
    let mut program = Program::compile(plan);
    let (mut disk, mut filled) = (vec![Vec::new(); narr], vec![Vec::new(); narr]);
    let (mut out, mut scratch) = (Vec::new(), Vec::new());
    let mut pending_flops = 0u64;
    for (slab_idx, stage) in (0..).zip(&schedule.stages) {
        let _slab = ctx.trace_slab_span("slab", slab_idx);

        // The stage's disk input. With prefetch, the whole stage's reads
        // overlap the previous stage's deferred compute.
        let pend = pario::PendingIo::over(charge);
        let reads: &dyn IoCharge = if prefetch { &pend } else { charge };
        for (rd, buf) in plan.rhs_arrays.iter().zip(&mut disk) {
            env.read_section_into(rd, &stage.input, buf, reads, policy)?;
        }
        if prefetch {
            let (reqs, bytes) = pend.reads();
            ctx.charge_prefetched_read(reqs, bytes, pending_flops);
            pending_flops = 0;
        }

        // Each array's stage buffer: the same widening in the halo space.
        // Where it reaches into the ghost strips, the disk input and the
        // strips are assembled into one buffer.
        let out_halo = to_halo(&stage.out);
        let (buf_sec, disk_sec) = (
            plan.expr.widen(&out_halo, &schedule.halo),
            to_halo(&stage.input),
        );
        let bufs: Vec<&[f32]> = if buf_sec == disk_sec {
            disk.iter().map(Vec::as_slice).collect()
        } else {
            for ((buf, data), strips) in filled.iter_mut().zip(&disk).zip(&placed) {
                buf.resize(buf_sec.len(), 0.0);
                copy_overlap(data, &disk_sec, buf, &buf_sec);
                for (sec, strip) in strips {
                    copy_overlap(strip, sec, buf, &buf_sec);
                }
            }
            filled.iter().map(Vec::as_slice).collect()
        };

        out.resize(stage.out.len(), 0.0);
        program.run(&out_halo, &buf_sec, &bufs, &mut out, &mut scratch);
        let flops = stage.out.len() as u64 * plan.flops_per_point;
        if prefetch {
            pending_flops += flops;
        } else {
            ctx.charge_flops(flops);
        }
        // Prefetched, the next stage's input is read into a second buffer
        // while this one is evaluated.
        let inputs = (1 + usize::from(prefetch)) * narr * stage.input.len();
        peak = peak.max(ghost_peak + out.len() + inputs);

        env.write_section(&plan.lhs, &stage.out, &out, charge, policy)?;
    }
    if pending_flops > 0 {
        ctx.charge_flops(pending_flops);
    }
    Ok(peak)
}

/// Copy the elements of `src` (column-major over `src_sec`) that `dst_sec`
/// also covers into `dst` (column-major over `dst_sec`), one dimension-0
/// run at a time.
fn copy_overlap(src: &[f32], src_sec: &Section, dst: &mut [f32], dst_sec: &Section) {
    let Some(common) = src_sec.intersect(dst_sec) else {
        return;
    };
    let (src_at, dst_at) = (cm_offset(src_sec), cm_offset(dst_sec));
    let cm: Vec<usize> = (0..common.ndims()).collect();
    common.for_each_run(&cm, |at, len| {
        let (s, d) = (src_at(at), dst_at(at));
        dst[d..d + len].copy_from_slice(&src[s..s + len]);
    });
}

/// The offset of a multi-index in a column-major buffer over the unit-step
/// section `sec`.
fn cm_offset(sec: &Section) -> impl Fn(&[usize]) -> usize {
    let strides = sec.shape().strides();
    let origin: usize = (sec.ranges().iter().zip(&strides))
        .map(|(r, s)| r.lo * s)
        .sum();
    move |at| at.iter().zip(&strides).map(|(i, s)| i * s).sum::<usize>() - origin
}

/// A leaf of the expression: a constant, or rhs array `ai` shifted by
/// `offsets` — `delta` elements from the output point in the current
/// stage's buffers.
enum Leaf {
    Const(f32),
    Ref {
        ai: usize,
        offsets: Vec<isize>,
        delta: isize,
    },
}

#[derive(Clone, Copy)]
enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl BinOp {
    /// `dst[k] = dst[k] ∘ src[k]`.
    fn apply(self, dst: &mut [f32], src: impl Iterator<Item = f32>) {
        let pairs = dst.iter_mut().zip(src);
        match self {
            BinOp::Add => pairs.for_each(|(d, s)| *d += s),
            BinOp::Sub => pairs.for_each(|(d, s)| *d -= s),
            BinOp::Mul => pairs.for_each(|(d, s)| *d *= s),
            BinOp::Div => pairs.for_each(|(d, s)| *d /= s),
        }
    }
}

/// One postfix instruction; each acts on whole runs, kept on a stack.
enum Op {
    /// Push a run holding the leaf.
    Load(Leaf),
    /// `top = top ∘ leaf`.
    Apply(BinOp, Leaf),
    /// Pop the top run and fold it into the one below: `below = below ∘
    /// top`.
    Combine(BinOp),
    /// `top = -top`.
    Neg,
}

/// A statement's expression, compiled once into postfix instructions over
/// runs. `depth` is the most runs live at once.
struct Program {
    ops: Vec<Op>,
    depth: usize,
}

impl Program {
    fn compile(plan: &ElwPlan) -> Program {
        let mut program = Program {
            ops: Vec::new(),
            depth: 0,
        };
        program.emit(&plan.expr, plan, 0);
        program
    }

    /// Emit `e`, leaving its value in stack run `slot`. A binary operation
    /// whose right operand is a leaf applies it in place instead of pushing
    /// it first.
    fn emit(&mut self, e: &ElwExpr, plan: &ElwPlan, slot: usize) {
        self.depth = self.depth.max(slot + 1);
        let leaf = |e: &ElwExpr| match e {
            ElwExpr::Const(v) => Some(Leaf::Const(*v)),
            ElwExpr::Ref { array, offsets } => Some(Leaf::Ref {
                ai: (plan.rhs_arrays.iter().position(|d| d.name == *array))
                    .unwrap_or_else(|| panic!("rhs array `{array}` missing from plan")),
                offsets: offsets.clone(),
                delta: 0,
            }),
            _ => None,
        };
        let (op, l, r) = match e {
            ElwExpr::Add(l, r) => (BinOp::Add, l, r),
            ElwExpr::Sub(l, r) => (BinOp::Sub, l, r),
            ElwExpr::Mul(l, r) => (BinOp::Mul, l, r),
            ElwExpr::Div(l, r) => (BinOp::Div, l, r),
            ElwExpr::Neg(inner) => {
                self.emit(inner, plan, slot);
                return self.ops.push(Op::Neg);
            }
            e => return self.ops.push(Op::Load(leaf(e).expect("a leaf"))),
        };
        self.emit(l, plan, slot);
        match leaf(r) {
            Some(leaf) => self.ops.push(Op::Apply(op, leaf)),
            None => {
                self.emit(r, plan, slot + 1);
                self.ops.push(Op::Combine(op));
            }
        }
    }

    /// Evaluate over `out_sec` into `out`, column-major. Every rhs array is
    /// read from its stage buffer, column-major over `buf_sec`; both
    /// sections are in the halo space.
    fn run(
        &mut self,
        out_sec: &Section,
        buf_sec: &Section,
        bufs: &[&[f32]],
        out: &mut [f32],
        scratch: &mut Vec<f32>,
    ) {
        let strides = buf_sec.shape().strides();
        let buf_at = cm_offset(buf_sec);
        for op in &mut self.ops {
            if let Op::Load(Leaf::Ref { offsets, delta, .. })
            | Op::Apply(_, Leaf::Ref { offsets, delta, .. }) = op
            {
                *delta = (offsets.iter().zip(&strides))
                    .map(|(&o, &s)| o * s as isize)
                    .sum();
            }
        }
        let len = out_sec.range(0).len();
        scratch.resize(self.depth * len, 0.0);
        let mut runs = out.chunks_exact_mut(len);
        let cm: Vec<usize> = (0..out_sec.ndims()).collect();
        out_sec.for_each_run(&cm, |at, _| {
            let run = runs.next().expect("one output run per section run");
            self.eval(buf_at(at), bufs, scratch, len);
            run.copy_from_slice(&scratch[..len]);
        });
    }

    /// Evaluate one run of `len` points, the first at `base` in every stage
    /// buffer, into stack run 0 of `scratch`.
    fn eval(&self, base: usize, bufs: &[&[f32]], scratch: &mut [f32], len: usize) {
        let read = |ai: usize, delta: isize| {
            let at = (base.checked_add_signed(delta)).expect("reference inside its buffer");
            &bufs[ai][at..at + len]
        };
        let mut top = 0;
        for op in &self.ops {
            match op {
                Op::Load(leaf) => {
                    let dst = &mut scratch[top * len..(top + 1) * len];
                    match leaf {
                        Leaf::Const(c) => dst.fill(*c),
                        Leaf::Ref { ai, delta, .. } => dst.copy_from_slice(read(*ai, *delta)),
                    }
                    top += 1;
                }
                Op::Apply(op, leaf) => {
                    let dst = &mut scratch[(top - 1) * len..top * len];
                    match leaf {
                        Leaf::Const(c) => op.apply(dst, repeat(*c)),
                        Leaf::Ref { ai, delta, .. } => {
                            op.apply(dst, read(*ai, *delta).iter().copied())
                        }
                    }
                }
                Op::Combine(op) => {
                    top -= 1;
                    let (below, above) = scratch.split_at_mut(top * len);
                    op.apply(&mut below[(top - 1) * len..], above[..len].iter().copied());
                }
                Op::Neg => scratch[(top - 1) * len..top * len]
                    .iter_mut()
                    .for_each(|x| *x = -*x),
            }
        }
    }
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
            method: pario::IoMethod::Direct,
            prefetch: false,
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
            execute(ctx, &mut env, &plan, ctx).unwrap();
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
            execute(ctx, &mut env, &plan, ctx).unwrap();
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
            method: pario::IoMethod::Direct,
            prefetch: false,
        };
        let machine = Machine::new(MachineConfig::delta(2));
        let (report, results) = machine.run_with(|ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            env.alloc(&u).unwrap();
            env.alloc(&v).unwrap();
            env.load_global(&u, &init_u).unwrap();
            execute(ctx, &mut env, &plan, ctx).unwrap();
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
    fn program_runs_match_hand_computation() {
        // out over rows 1..3, cols 0..2 of a 4x3 local space; the buffer
        // covers rows 0..4 (shift ±1 along dim 0) and holds row + 10*col.
        // v = (100 + u(i-1, j)) + 2 * u(i+1, j): the right leaf of the outer
        // sum is not a leaf, so it takes a second stack run.
        let mut plan = jacobi_plan(4, 1, 1, true);
        plan.expr = ElwExpr::add(
            ElwExpr::add(ElwExpr::Const(100.0), ElwExpr::shifted("u", vec![-1, 0])),
            ElwExpr::mul(ElwExpr::Const(2.0), ElwExpr::shifted("u", vec![1, 0])),
        );
        let mut program = Program::compile(&plan);
        assert_eq!(program.depth, 2);
        let out_sec = Section::new(vec![DimRange::new(1, 3), DimRange::new(0, 2)]);
        let buf_sec = Section::new(vec![DimRange::new(0, 4), DimRange::new(0, 2)]);
        let data: Vec<f32> = (0..2)
            .flat_map(|c| (0..4).map(move |r| (r + 10 * c) as f32))
            .collect();
        let mut out = vec![0.0f32; out_sec.len()];
        program.run(&out_sec, &buf_sec, &[&data], &mut out, &mut Vec::new());
        for c in 0..2 {
            for (k, r) in (1..3).enumerate() {
                let expect = (100.0 + (r - 1 + 10 * c) as f32) + 2.0 * (r + 1 + 10 * c) as f32;
                assert_eq!(out[k + c * 2], expect, "r={r} c={c}");
            }
        }
    }

    #[test]
    fn elementwise_prefetch_shrinks_time_not_counts() {
        let run_with = |prefetch: bool| {
            let plan = ElwPlan {
                prefetch,
                ..jacobi_plan(24, 2, 3, true)
            };
            let machine = Machine::new(MachineConfig::delta(2));
            machine.run(|ctx| {
                let mut env = OocEnv::in_memory(ctx.rank());
                env.alloc(&plan.rhs_arrays[0]).unwrap();
                env.alloc(&plan.lhs).unwrap();
                env.load_global(&plan.rhs_arrays[0], &init_u).unwrap();
                execute(ctx, &mut env, &plan, ctx).unwrap();
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

    /// `v = u(−shift) + u(+shift)` along the distributed dimension of an
    /// `n × n` grid over `p` ranks, stripmined along that dimension: every
    /// stage within `shift` of a local edge is clamped there.
    fn wide_plan(n: usize, p: usize, shift: usize, thickness: usize, row_block: bool) -> ElwPlan {
        let mut plan = jacobi_plan(n, p, thickness, row_block);
        let d = plan.slab_dim;
        let at = |s: isize| {
            let mut offsets = vec![0, 0];
            offsets[d] = s;
            ElwExpr::shifted("u", offsets)
        };
        plan.expr = ElwExpr::add(at(-(shift as isize)), at(shift as isize));
        plan.flops_per_point = plan.expr.flops_per_point();
        plan.region =
            Section::full(&AShape::matrix(n, n)).with_range(d, DimRange::new(shift, n - shift));
        plan.ghosts[0].lo_width = shift;
        plan.ghosts[0].hi_width = shift;
        plan
    }

    #[test]
    fn measured_elw_io_matches_estimator() {
        // Every rank's own nest — ghost strips, every stage and the ragged
        // last one — agrees with what that rank's executor does, including
        // ranks that own nothing (12 rows over 5: blocks of 3, the last
        // rank empty) and stages clamped at a local edge by a shift wider
        // than the slab.
        let jacobi = (0..2)
            .flat_map(|rb| [2, 3, 5].map(move |p| (rb == 0, p)))
            .flat_map(|(rb, p)| [1, 2, 3, 5].map(move |t| (rb, p, t)))
            .map(|(rb, p, t)| {
                (
                    format!("jacobi row_block={rb} p={p} t={t}"),
                    jacobi_plan(12, p, t, rb),
                )
            });
        let wide = [true, false]
            .into_iter()
            .flat_map(|rb| [2, 3, 4].map(move |p| (rb, p)))
            .flat_map(|(rb, p)| [(2, 1), (3, 2)].map(move |(s, t)| (rb, p, s, t)))
            .map(|(rb, p, s, t)| {
                (
                    format!("shift {s} row_block={rb} p={p} t={t}"),
                    wide_plan(24, p, s, t, rb),
                )
            });
        for (name, plan) in jacobi.chain(wide) {
            let p = plan.lhs.dist.nprocs();
            let machine = Machine::new(MachineConfig::delta(p));
            let report = machine.run(|ctx| {
                let mut env = OocEnv::in_memory(ctx.rank());
                env.alloc(&plan.rhs_arrays[0]).unwrap();
                env.alloc(&plan.lhs).unwrap();
                execute(ctx, &mut env, &plan, ctx).unwrap();
            });
            for (rank, proc) in report.per_proc().iter().enumerate() {
                let t = ooc_core::ir::totals(&ooc_core::nodegen::elw_nest(&plan, rank));
                let sum = |f: fn(&ooc_core::ir::ArrayIoTotals) -> u64| {
                    t.per_array.values().map(f).sum::<u64>()
                };
                let s = proc.stats;
                let tag = format!("{name} rank {rank}");
                assert_eq!(s.io_read_requests, sum(|a| a.read_requests), "{tag}");
                assert_eq!(s.io_bytes_read, 4 * sum(|a| a.read_elems), "{tag}");
                assert_eq!(s.io_write_requests, sum(|a| a.write_requests), "{tag}");
                assert_eq!(s.io_bytes_written, 4 * sum(|a| a.write_elems), "{tag}");
                assert_eq!(s.msgs_sent, t.comm_messages, "{tag}");
                assert_eq!(s.bytes_sent, t.comm_bytes, "{tag}");
            }
        }
    }
}
