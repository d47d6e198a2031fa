//! Out-of-core transpose executor: slab-wise all-to-all remap.
//!
//! Every rank streams its source OCLA once, slab by slab along the slowest
//! layout dimension (contiguous reads). Each slab is split by the
//! destination owners of its transposed coordinates, and stage `s` moves
//! every rank's `s`-th slab, so receives match sends without a scheduler.
//! The plan is the stages' producer ([`ooc_array::RemapStages`]), run by
//! the same remap executor as a redistribution ([`ooc_array::remap`]) and
//! tallied by the compiler from the same stream.

use dmsim::ProcCtx;
use ooc_array::{OocEnv, OocError};
use ooc_core::plan::TransposePlan;

/// Execute the plan on this processor under [`TransposePlan::method`].
/// Returns peak in-core elements.
pub fn execute(ctx: &ProcCtx, env: &mut OocEnv, plan: &TransposePlan) -> Result<usize, OocError> {
    ooc_array::remap(ctx, env, plan, plan.method, ctx)
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
