//! Out-of-core transpose executor: slab-wise all-to-all remap.
//!
//! Every rank streams its source OCLA once, slab by slab along the slowest
//! layout dimension (contiguous reads). Each slab is split by the
//! destination owners of its transposed coordinates; pieces travel as
//! point-to-point messages and are written into the destination LAF on
//! arrival. The stage structure is deterministic (stage `s` moves every
//! rank's `s`-th slab), so receives match sends without a scheduler. The
//! stage and piece geometry is [`TransposePlan`]'s, the same the compiler
//! prices.

use dmsim::{Payload, ProcCtx, Tag};
use ooc_array::{local_section_of_global, OocEnv, OocError, Section};
use ooc_core::plan::{transposed, TransposePlan};

const REMAP_TAG: Tag = Tag(0x7A05);

/// Execute the plan on this processor. Returns peak in-core elements.
///
/// Dispatches on [`TransposePlan::method`]: `Direct` issues per-piece
/// destination writes as they arrive; `Sieved` runs the same schedule with
/// the sieve forced on (per-piece writes become span read-modify-writes);
/// `TwoPhase` exchanges every stage's pieces collectively and assembles the
/// whole destination in memory for a single contiguous write.
pub fn execute(ctx: &ProcCtx, env: &mut OocEnv, plan: &TransposePlan) -> Result<usize, OocError> {
    let _m = ctx.trace_io_method(plan.method.label());
    match plan.method {
        pario::IoMethod::Direct => execute_direct(ctx, env, plan),
        pario::IoMethod::Sieved => {
            let saved = env.sieve_policy();
            env.set_sieve_policy(plan.method.sieve_policy());
            let r = execute_direct(ctx, env, plan);
            env.set_sieve_policy(saved);
            r
        }
        pario::IoMethod::TwoPhase => execute_two_phase(ctx, env, plan),
    }
}

fn execute_direct(
    ctx: &ProcCtx,
    env: &mut OocEnv,
    plan: &TransposePlan,
) -> Result<usize, OocError> {
    let rank = ctx.rank();
    let p = ctx.nprocs();
    let (slabs, stages) = plan.slab_plans();

    let mut peak = 0usize;
    for stage in 0..stages {
        // Stage `s` moves every rank's s-th slab; one structural span each.
        let _stage = ctx.trace_slab_span("stage", stage as u64);
        // ---- Send my stage-th slab, split by destination owner. ----------
        if stage < slabs[rank].num_slabs() {
            let slab = slabs[rank].slab(stage);
            let data = env.read_section(&plan.src, &slab, ctx)?;
            peak = peak.max(data.len());
            for dst_rank in 0..p {
                let Some(isect_dst) = plan.piece(rank, &slab, dst_rank) else {
                    continue;
                };
                // Element (i, j) of dst = element (j, i) of src: iterate
                // the destination intersection in its CM order and pull
                // from the slab buffer.
                let payload = gather_transposed(&isect_dst, &slab, &data, plan, rank);
                if dst_rank == rank {
                    let local = local_dst(plan, rank, &isect_dst);
                    env.write_section(&plan.dst, &local, &payload, ctx)?;
                } else {
                    ctx.send(dst_rank, REMAP_TAG, Payload::F32(payload));
                }
            }
        }

        // ---- Receive the pieces of everyone else's stage-th slab. --------
        for (src_rank, peer) in slabs.iter().enumerate() {
            if src_rank == rank || stage >= peer.num_slabs() {
                continue;
            }
            let Some(isect_dst) = plan.piece(src_rank, &peer.slab(stage), rank) else {
                continue;
            };
            let payload = ctx.try_recv_f32(src_rank, REMAP_TAG)?;
            peak = peak.max(payload.len());
            env.write_section(&plan.dst, &local_dst(plan, rank, &isect_dst), &payload, ctx)?;
        }
    }
    Ok(peak)
}

/// Two-phase transpose: the same stage structure, but each stage's pieces
/// travel in one collective exchange instead of point-to-point sends, and
/// destination pieces accumulate in a full-local buffer that is written with
/// a single contiguous request after the last stage — the file only ever
/// sees conforming accesses.
fn execute_two_phase(
    ctx: &ProcCtx,
    env: &mut OocEnv,
    plan: &TransposePlan,
) -> Result<usize, OocError> {
    let rank = ctx.rank();
    let p = ctx.nprocs();
    let (slabs, stages) = plan.slab_plans();

    let dst_local_shape = plan.dst.local_shape(rank);
    let strides = dst_local_shape.strides();
    let mut assembled = vec![0.0f32; dst_local_shape.len()];
    let mut peak = assembled.len();

    for stage in 0..stages {
        let _stage = ctx.trace_slab_span("stage", stage as u64);
        // ---- Split my stage-th slab by destination owner. ----------------
        let mut sends: Vec<Vec<f32>> = vec![Vec::new(); p];
        if stage < slabs[rank].num_slabs() {
            let slab = slabs[rank].slab(stage);
            let data = env.read_section(&plan.src, &slab, ctx)?;
            peak = peak.max(assembled.len() + data.len());
            for (dst_rank, send) in sends.iter_mut().enumerate() {
                if let Some(isect_dst) = plan.piece(rank, &slab, dst_rank) {
                    *send = gather_transposed(&isect_dst, &slab, &data, plan, rank);
                }
            }
        }

        // ---- Exchange: every rank runs all `stages`, so the collective is
        // symmetric even when slab counts differ across ranks. -------------
        let received = {
            let _x = ctx.trace_span(ooc_trace::Category::Exchange, "exchange");
            ctx.try_alltoallv::<f32>(sends)?
        };

        // ---- Scatter the received pieces into the local assembly. --------
        for (src_rank, piece) in received.iter().enumerate() {
            if piece.is_empty() {
                continue;
            }
            let peer = &slabs[src_rank];
            debug_assert!(stage < peer.num_slabs());
            let isect_dst = plan
                .piece(src_rank, &peer.slab(stage), rank)
                .expect("non-empty payload implies intersection");
            let local = local_dst(plan, rank, &isect_dst);
            debug_assert_eq!(local.len(), piece.len());
            for (v, off) in piece.iter().zip(local.offsets(&strides)) {
                assembled[off] = *v;
            }
        }
    }

    if !dst_local_shape.is_empty() {
        env.write_section(&plan.dst, &Section::full(&dst_local_shape), &assembled, ctx)?;
    }
    Ok(peak)
}

/// The receiver-local section of a destination piece.
fn local_dst(plan: &TransposePlan, rank: usize, piece: &Section) -> Section {
    local_section_of_global(&plan.dst.dist, rank, piece).expect("receiver owns the piece")
}

/// Gather the values of a destination-space global section from a local
/// source slab buffer (section-CM order on both sides).
fn gather_transposed(
    isect_dst: &Section,
    slab: &Section,
    slab_data: &[f32],
    plan: &TransposePlan,
    rank: usize,
) -> Vec<f32> {
    let src_of_dst = transposed(isect_dst); // global src coordinates
    let local_src = local_section_of_global(&plan.src.dist, rank, &src_of_dst)
        .expect("sender owns the transposed section");
    // Walk destination CM order: dst index (i, j) ↔ src local (j', i').
    let mut out = Vec::with_capacity(isect_dst.len());
    let d0 = isect_dst.range(0);
    let d1 = isect_dst.range(1);
    let s0 = local_src.range(0);
    let s1 = local_src.range(1);
    let slab0 = slab.range(0);
    let slab1 = slab.range(1);
    let rows = slab0.len();
    for j in 0..d1.len() {
        for i in 0..d0.len() {
            // dst (d0.lo + i, d1.lo + j) = src global (d1.lo + j, d0.lo + i)
            // = src local (s0.lo + j, s1.lo + i).
            let lr = s0.lo + j;
            let lc = s1.lo + i;
            let pos = (lr - slab0.lo) + (lc - slab1.lo) * rows;
            out.push(slab_data[pos]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{assemble_global, max_abs_diff, ref_transpose};
    use dmsim::{Machine, MachineConfig};
    use ooc_array::{ArrayDesc, ArrayId, Distribution, FileLayout, Shape};
    use pario::ElemKind;

    fn value(g: &[usize]) -> f32 {
        (g[0] * 100 + g[1]) as f32
    }

    fn run_transpose(
        n: usize,
        p: usize,
        t: usize,
        src_row_block: bool,
        method: pario::IoMethod,
    ) -> Vec<f32> {
        let shape = Shape::matrix(n, n);
        let src_dist = if src_row_block {
            Distribution::row_block(shape.clone(), p)
        } else {
            Distribution::column_block(shape.clone(), p)
        };
        let dst_dist = Distribution::column_block(shape.clone(), p);
        let src = ArrayDesc::new(ArrayId(0), "s", ElemKind::F32, src_dist)
            .with_layout(FileLayout::column_major(2));
        let dst = ArrayDesc::new(ArrayId(1), "d", ElemKind::F32, dst_dist);
        let plan = TransposePlan {
            src: src.clone(),
            dst: dst.clone(),
            slab_thickness: t,
            method,
        };
        let machine = Machine::new(MachineConfig::free(p));
        let (_, results) = machine.run_with(|ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            env.alloc(&src).unwrap();
            env.alloc(&dst).unwrap();
            env.load_global(&src, &value).unwrap();
            execute(ctx, &mut env, &plan).unwrap();
            env.read_local_all(&dst).unwrap()
        });
        let locals: Vec<&[f32]> = results.iter().map(|v| v.as_slice()).collect();
        assemble_global(&dst, &locals).1
    }

    #[test]
    fn write_buffering_cuts_transpose_requests_and_time() {
        // The remap writes many small per-piece column fragments; the slab
        // cache merges adjacent dirty fragments so the flush writes back
        // far fewer, larger extents. Reads see no reuse (the source streams
        // once), so the whole difference is write coalescing.
        let n = 16;
        let p = 4;
        let shape = Shape::matrix(n, n);
        let src = ArrayDesc::new(
            ArrayId(0),
            "s",
            ElemKind::F32,
            Distribution::row_block(shape.clone(), p),
        )
        .with_layout(FileLayout::column_major(2));
        let dst = ArrayDesc::new(
            ArrayId(1),
            "d",
            ElemKind::F32,
            Distribution::column_block(shape, p),
        );
        let plan = TransposePlan {
            src: src.clone(),
            dst: dst.clone(),
            slab_thickness: 2,
            method: pario::IoMethod::Direct,
        };
        let run = |budget: Option<usize>| {
            let machine = Machine::new(MachineConfig::delta(p));
            let (report, results) = machine.run_with(|ctx| {
                let mut env = OocEnv::in_memory(ctx.rank());
                env.alloc(&src).unwrap();
                env.alloc(&dst).unwrap();
                env.load_global(&src, &value).unwrap();
                if let Some(b) = budget {
                    env.enable_cache(b);
                }
                execute(ctx, &mut env, &plan).unwrap();
                env.flush_cache(ctx).unwrap();
                env.read_local_all(&dst).unwrap()
            });
            let locals: Vec<&[f32]> = results.iter().map(|v| v.as_slice()).collect();
            (assemble_global(&dst, &locals).1, report)
        };
        let (base_c, base) = run(None);
        let (cached_c, cached) = run(Some(1 << 20));
        assert_eq!(base_c, cached_c, "caching must not change the transpose");
        assert_eq!(cached_c, ref_transpose(n, &value));
        let (b0, c0) = (base.per_proc()[0].stats, cached.per_proc()[0].stats);
        assert!(
            c0.io_write_requests < b0.io_write_requests,
            "cached {} !< uncached {} write requests",
            c0.io_write_requests,
            b0.io_write_requests
        );
        assert_eq!(c0.io_read_requests, b0.io_read_requests, "no read reuse");
        assert!(
            cached.elapsed() < base.elapsed(),
            "cached {} !< uncached {}",
            cached.elapsed(),
            base.elapsed()
        );
    }

    #[test]
    fn transpose_is_correct_across_shapes_of_parallelism() {
        let n = 12;
        let expect = ref_transpose(n, &value);
        for p in [1, 2, 3, 4] {
            for t in [1, 2, 5, 16] {
                for src_row_block in [false, true] {
                    for method in pario::IoMethod::ALL {
                        let got = run_transpose(n, p, t, src_row_block, method);
                        assert!(
                            max_abs_diff(&got, &expect) == 0.0,
                            "p={p} t={t} rb={src_row_block} m={method:?}"
                        );
                    }
                }
            }
        }
    }
}
