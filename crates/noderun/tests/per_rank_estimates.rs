//! Per-rank estimator exactness: the GAXPY slab walk is the executor on
//! every rank.
//!
//! The executor and the reuse predictor drive one walk
//! (`GaxpyPlan::walk`), so for every rank, layout set and cache budget the
//! measured disk traffic must equal `gaxpy_cached_totals`, and, uncached,
//! both must equal the symbolic nest of Figures 9/12 (`gaxpy_nest_for`),
//! which is built independently of the walk. Processor counts that do not
//! divide the matrix order give ragged local extents and empty trailing
//! ranks.

use dmsim::{Machine, MachineConfig};
use noderun::{assemble_global, max_abs_diff, ref_gaxpy};
use ooc_array::{FileLayout, OocEnv};
use ooc_core::ir::{totals, NestTotals};
use ooc_core::nodegen::gaxpy_nest_for;
use ooc_core::plan::{GaxpyPlan, SlabStrategy};
use ooc_core::reuse::gaxpy_cached_totals;

fn fa(g: &[usize]) -> f32 {
    ((g[0] * 7 + g[1] * 3) % 11) as f32 * 0.25 - 1.0
}
fn fb(g: &[usize]) -> f32 {
    ((g[0] * 5 + g[1]) % 13) as f32 * 0.25 - 1.0
}

/// The plan under each layout set its strategy can be compiled with:
/// the desired layouts, everything column-major (`reorganize_storage =
/// false`), and, for row slabs, A locked column-major by an earlier
/// statement while C is still reorganized.
fn layout_sets(plan: &GaxpyPlan) -> Vec<(&'static str, GaxpyPlan)> {
    let cm = FileLayout::column_major(2);
    let mut all_cm = plan.clone();
    all_cm.a = all_cm.a.with_layout(cm.clone());
    all_cm.c = all_cm.c.with_layout(cm.clone());
    let mut sets = vec![("desired", plan.clone())];
    if plan.strategy == SlabStrategy::RowSlab {
        let mut a_locked = plan.clone();
        a_locked.a = a_locked.a.with_layout(cm);
        sets.push(("all column-major", all_cm));
        sets.push(("a locked column-major", a_locked));
    }
    sets
}

/// `(read requests, read elements, write requests, write elements)`.
fn io(t: &NestTotals) -> (u64, u64, u64, u64) {
    let sum = |f: fn(&ooc_core::ir::ArrayIoTotals) -> u64| t.per_array.values().map(f).sum();
    (
        sum(|a| a.read_requests),
        sum(|a| a.read_elems),
        sum(|a| a.write_requests),
        sum(|a| a.write_elems),
    )
}

#[test]
fn every_rank_matches_its_own_nest_even_when_p_does_not_divide_n() {
    for (strategy, n, p, sa, sb) in [
        (SlabStrategy::ColumnSlab, 13usize, 4usize, 2usize, 4usize),
        (SlabStrategy::ColumnSlab, 17, 3, 3, 5),
        (SlabStrategy::ColumnSlab, 16, 4, 4, 16),
        // p > n/2: trailing ranks own nothing.
        (SlabStrategy::ColumnSlab, 5, 4, 1, 2),
        (SlabStrategy::RowSlab, 13, 4, 5, 4),
        (SlabStrategy::RowSlab, 19, 5, 4, 7),
        (SlabStrategy::RowSlab, 5, 4, 2, 2),
        // B resident: its read is hoisted out of the A-slab loop.
        (SlabStrategy::RowSlab, 13, 4, 3, 13),
        (SlabStrategy::RowSlab, 16, 4, 5, 16),
    ] {
        let a_panel = n * n.div_ceil(p) * 4;
        for (layouts, plan) in layout_sets(&GaxpyPlan::new(strategy, n, p, sa, sb)) {
            for budget in [0, a_panel, 1 << 20] {
                let machine = Machine::new(MachineConfig::delta(p));
                let (report, locals) = machine.run_with(|ctx| {
                    let mut env = OocEnv::in_memory(ctx.rank());
                    for desc in [&plan.a, &plan.b, &plan.c] {
                        env.alloc(desc).unwrap();
                    }
                    env.load_global(&plan.a, &fa).unwrap();
                    env.load_global(&plan.b, &fb).unwrap();
                    // Budget 0 runs uncached; a cache goes live cold, after
                    // the uncharged setup, as the predictor assumes.
                    if budget > 0 {
                        env.enable_cache(budget);
                    }
                    noderun::gaxpy::execute_recoverable(
                        ctx,
                        &mut env,
                        &plan,
                        ctx,
                        &Default::default(),
                    )
                    .unwrap();
                    env.flush_cache(ctx).unwrap();
                    env.read_local_all(&plan.c).unwrap()
                });

                let case =
                    format!("{strategy:?} n={n} p={p} sa={sa} sb={sb} {layouts} budget={budget}");
                for rank in 0..p {
                    let s = report.per_proc()[rank].stats;
                    let measured = (
                        s.io_read_requests,
                        s.io_bytes_read / 4,
                        s.io_write_requests,
                        s.io_bytes_written / 4,
                    );
                    let predicted = io(&gaxpy_cached_totals(&plan, rank, budget));
                    assert_eq!(
                        measured, predicted,
                        "{case} rank {rank}: measured vs predictor"
                    );
                    if budget == 0 {
                        let nest = totals(&gaxpy_nest_for(&plan, rank));
                        assert_eq!(
                            predicted,
                            io(&nest),
                            "{case} rank {rank}: predictor vs nest"
                        );
                        // The executor also charges the reduce's combine
                        // flops, which the nest leaves to the collective.
                        assert!(s.flops >= nest.flops, "{case} rank {rank}: flops");
                    }
                }

                let refs: Vec<&[f32]> = locals.iter().map(|v| v.as_slice()).collect();
                let (_, c) = assemble_global(&plan.c, &refs);
                let expect = ref_gaxpy(n, &fa, &fb);
                assert!(max_abs_diff(&c, &expect) < 1e-3, "{case}: wrong product");
            }
        }
    }
}
