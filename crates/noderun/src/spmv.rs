//! Out-of-core CSR SpMV executor: the inspector–executor end-to-end proof.
//!
//! Per statement execution is the node program of
//! [`ooc_core::irreg::spmv_nest_with`], step for step: stream the local
//! `rowptr` slice and allgather it, inspect the `colidx` indirection (or
//! reuse a cached [`IrregSchedule`]), gather `x` through the selected I/O
//! method, stream the local `vals`, accumulate partial row products, reduce
//! the partials to the row owners, and write the local `y` slice.
//!
//! Data conventions (the executor defines its file contents; the HPF
//! source is symbolic): `rowptr` holds 0-based half-open nonzero offsets —
//! `rowptr[i] .. rowptr[i+1]` are row `i`'s nonzeros and `rowptr[n] = nnz`
//! — and `colidx` holds 0-based global indices into `x`, exactly as
//! [`ooc_array::inspect`] requires. Both are stored as `f32` like every
//! other out-of-core array.
//!
//! Determinism: the reduction adds received partial blocks in peer order
//! `0..p`, and runtime method re-selection decides from *allreduced*
//! statistics, so every rank picks the same method and every run of the
//! same inputs is bitwise identical across engines.

use dmsim::{CostModel, ProcCtx};
use ooc_array::{
    gather_with, global_section_of_local, inspect, IrregSchedule, IrregStats, OocEnv, OocError,
    Section,
};
use ooc_core::cost::CostEstimate;
use ooc_core::plan::SpmvPlan;
use pario::{IoMethod, SievePolicy::Direct};

/// Allgather this rank's block of a 1-D block-distributed vector; returns
/// the full global vector (blocks of ascending ranks are ascending global
/// ranges, so concatenation in rank order reassembles it).
fn allgather_block(ctx: &ProcCtx, mine: Vec<f32>) -> Result<Vec<f32>, OocError> {
    let p = ctx.nprocs();
    let sends: Vec<Vec<f32>> = (0..p).map(|_| mine.clone()).collect();
    let received = ctx.try_alltoallv::<f32>(sends)?;
    Ok(received.into_iter().flatten().collect())
}

/// Check the allgathered row pointers of array `name` against the CSR
/// format the accumulation loop indexes by — first entry 0, non-decreasing,
/// last entry `nnz`, every entry a whole number — and convert them. Every
/// rank holds the same vector, so every rank returns the same verdict and
/// none is left waiting in a later collective.
fn checked_rowptr(name: &str, rowptr: &[f32], n: usize, nnz: usize) -> Result<Vec<u64>, OocError> {
    let bad = |reason: String| OocError::Data {
        array: name.to_string(),
        reason,
    };
    debug_assert_eq!(rowptr.len(), n + 1);
    let whole = |v: f32| v >= 0.0 && v.fract() == 0.0;
    if let Some(i) = rowptr.iter().position(|v| !whole(*v)) {
        return Err(bad(format!(
            "entry {i} = {} is not a nonzero offset",
            rowptr[i]
        )));
    }
    let rp: Vec<u64> = rowptr.iter().map(|v| *v as u64).collect();
    if rp[0] != 0 {
        return Err(bad(format!("entry 0 = {}, expected 0", rp[0])));
    }
    if let Some(i) = (1..=n).find(|&i| rp[i] < rp[i - 1]) {
        return Err(bad(format!(
            "entry {i} = {} is below entry {} = {}",
            rp[i],
            i - 1,
            rp[i - 1]
        )));
    }
    if rp[n] != nnz as u64 {
        return Err(bad(format!("entry {n} = {}, expected nnz = {nnz}", rp[n])));
    }
    Ok(rp)
}

/// Row of nonzero `g` over checked row pointers — the last `r` with
/// `rowptr[r] <= g`, in `0..n` because `rowptr[0] = 0 <= g < nnz =
/// rowptr[n]` — searched forward from `row`, the row of an earlier
/// nonzero (or 0). The executor visits its nonzeros in rising order, so
/// the whole pass costs `O(n + nnz)` instead of a binary search each.
fn row_from(rowptr: &[u64], mut row: usize, g: u64) -> usize {
    while rowptr[row + 1] <= g {
        row += 1;
    }
    row
}

/// Re-select the gather method from the *measured* schedule statistics,
/// allreduced so every rank prices the same machine-global view: per-rank
/// stats travel as `u64` vectors through one all-to-all and merge in rank
/// order. Forced methods never reach here; the caller skips re-selection.
fn select_method(
    ctx: &ProcCtx,
    model: &CostModel,
    sched: &IrregSchedule,
) -> Result<IoMethod, OocError> {
    let p = ctx.nprocs();
    let mine = sched.stats().to_vec();
    let sends: Vec<Vec<u64>> = (0..p).map(|_| mine.clone()).collect();
    let received = ctx.try_alltoallv::<u64>(sends)?;
    let mut merged = IrregStats::default();
    for v in &received {
        merged.merge(&IrregStats::from_vec(v));
    }
    let priced = IoMethod::ALL.map(|m| {
        let nest = ooc_core::irreg::gather_nodes(&sched.stamp.data.name, &merged, m);
        (m, CostEstimate::from_nest(&nest, model, 4).time())
    });
    Ok(ooc_core::reorg::decide(priced, None).expect("a method").0)
}

/// Execute the plan on this processor, reusing (or filling) the caller's
/// schedule cache slot. Returns peak in-core elements.
///
/// When `cache` already holds a schedule valid for this plan's data and
/// indirection descriptors, the inspector is skipped entirely — the
/// amortization the subsystem exists for. Validity compares descriptors,
/// not the indirection values, so the caller must empty the slot when
/// `colidx` may have been rewritten since it was filled; [`crate::run`]
/// keeps it only for statements whose [`SpmvPlan::reuses`] is set. `model`
/// enables runtime method re-selection from the inspected statistics;
/// `None` keeps `plan.method` (the compile-time choice; [`crate::run`]
/// passes `None` when that choice was forced).
pub fn execute_cached(
    ctx: &ProcCtx,
    env: &mut OocEnv,
    plan: &SpmvPlan,
    cache: &mut Option<IrregSchedule>,
    model: Option<&CostModel>,
) -> Result<usize, OocError> {
    let rank = ctx.rank();
    let p = ctx.nprocs();
    assert_eq!(p, plan.nprocs, "spmv: machine/plan shape mismatch");

    // ---- Row pointers: stream the local slice, allgather the rest. -------
    let rp_shape = plan.rowptr.local_shape(rank);
    let my_rp = if rp_shape.is_empty() {
        Vec::new()
    } else {
        env.read_section(&plan.rowptr, &Section::full(&rp_shape), ctx)?
    };
    let rowptr = {
        let _x = ctx.trace_span(ooc_trace::Category::Collective, "allgather rowptr");
        allgather_block(ctx, my_rp)?
    };
    let rp = checked_rowptr(&plan.rowptr.name, &rowptr, plan.n, plan.nnz)?;

    // ---- Inspect the indirection, or reuse the cached schedule. ----------
    let reusable = matches!(cache, Some(s) if s.is_valid_for(&plan.x, &plan.colidx, rank, p));
    if !reusable {
        *cache = Some(inspect(ctx, env, &plan.x, &plan.colidx, ctx)?);
    }
    let sched = cache.as_ref().expect("slot filled above");

    // ---- Gather x through the selected method. ---------------------------
    let method = match model {
        Some(m) => select_method(ctx, m, sched)?,
        None => plan.method,
    };
    let xg = gather_with(ctx, env, sched, method, ctx)?;

    // ---- Stream the local values and accumulate partial products. --------
    let vals_shape = plan.vals.local_shape(rank);
    let vals = if vals_shape.is_empty() {
        Vec::new()
    } else {
        env.read_section(&plan.vals, &Section::full(&vals_shape), ctx)?
    };
    debug_assert_eq!(vals.len(), xg.len(), "vals and colidx are co-distributed");
    let nnz_lo = global_section_of_local(&plan.vals.dist, rank)
        .map(|s| s.range(0).lo)
        .unwrap_or(0);
    let mut partial = vec![0.0f32; plan.n];
    {
        let _c = ctx.trace_span(ooc_trace::Category::Compute, "spmv accumulate");
        let mut row = 0;
        for (t, (&v, &xv)) in vals.iter().zip(xg.iter()).enumerate() {
            row = row_from(&rp, row, (nnz_lo + t) as u64);
            partial[row] += v * xv;
        }
    }

    // ---- Reduce partials to the row owners (peer-order addition). --------
    let sends: Vec<Vec<f32>> = (0..p)
        .map(|j| {
            global_section_of_local(&plan.y.dist, j)
                .map(|s| {
                    let r = s.range(0);
                    partial[r.lo..r.hi].to_vec()
                })
                .unwrap_or_default()
        })
        .collect();
    let received = {
        let _x = ctx.trace_span(ooc_trace::Category::Exchange, "reduce partial y");
        ctx.try_alltoallv::<f32>(sends)?
    };
    let y_shape = plan.y.local_shape(rank);
    let mut y = vec![0.0f32; y_shape.len()];
    for piece in &received {
        debug_assert!(piece.len() == y.len() || piece.is_empty());
        for (a, b) in y.iter_mut().zip(piece.iter()) {
            *a += *b;
        }
    }

    // ---- Write the local result slice. -----------------------------------
    if !y_shape.is_empty() {
        env.write_section(&plan.y, &Section::full(&y_shape), &y, ctx, Direct)?;
    }

    Ok(rowptr.len() + partial.len() + vals.len() + xg.len() + y.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmsim::{Machine, MachineConfig};
    use ooc_array::{ArrayDesc, ArrayId, DimDist, DistKind, Distribution, ProcGrid, Shape};
    use ooc_core::ir::totals;
    use pario::ElemKind;
    use std::sync::{Arc, Mutex};

    fn vec_dist(n: usize, p: usize) -> Distribution {
        Distribution::new(
            Shape::new(vec![n]),
            vec![DimDist::Distributed {
                kind: DistKind::Block,
                axis: 0,
            }],
            ProcGrid::line(p),
        )
    }

    /// A deterministic CSR matrix: row i holds `nnz/n` nonzeros (nnz must
    /// divide evenly) at scattered columns, value = row*1000 + slot.
    pub(crate) struct Csr {
        pub n: usize,
        pub nnz: usize,
    }

    impl Csr {
        pub fn rowptr(&self, i: usize) -> f32 {
            (i * (self.nnz / self.n)) as f32
        }
        pub fn col(&self, k: usize) -> usize {
            (k * 37 + (k / 3) * 11) % self.n
        }
        pub fn val(&self, k: usize) -> f32 {
            ((k % 89) as f32) * 0.25 + 1.0
        }
        pub fn x(&self, j: usize) -> f32 {
            (j % 17) as f32 * 0.5 + 0.125
        }
        /// Dense reference product under the same float order as the
        /// executor: ascending k within each row.
        pub fn reference_y(&self) -> Vec<f32> {
            let per = self.nnz / self.n;
            (0..self.n)
                .map(|i| {
                    let mut acc = 0.0f32;
                    for k in i * per..(i + 1) * per {
                        acc += self.val(k) * self.x(self.col(k));
                    }
                    acc
                })
                .collect()
        }
    }

    pub(crate) fn spmv_plan(n: usize, nnz: usize, p: usize, method: IoMethod) -> SpmvPlan {
        let v = |id: u32, name: &str, len: usize| {
            ArrayDesc::new(ArrayId(id), name, ElemKind::F32, vec_dist(len, p))
        };
        SpmvPlan {
            y: v(0, "y", n),
            rowptr: v(1, "rowptr", n + 1),
            colidx: v(2, "colidx", nnz),
            vals: v(3, "vals", nnz),
            x: v(4, "x", n),
            n,
            nnz,
            nprocs: p,
            method,
            reuses: None,
        }
    }

    pub(crate) fn load_csr(env: &mut OocEnv, plan: &SpmvPlan, m: &Csr) {
        env.alloc(&plan.y).unwrap();
        env.alloc(&plan.rowptr).unwrap();
        env.alloc(&plan.colidx).unwrap();
        env.alloc(&plan.vals).unwrap();
        env.alloc(&plan.x).unwrap();
        let n = m.n;
        let nnz = m.nnz;
        let mr = Csr { n, nnz };
        env.load_global(&plan.rowptr, &move |g: &[usize]| mr.rowptr(g[0]))
            .unwrap();
        let mc = Csr { n, nnz };
        env.load_global(&plan.colidx, &move |g: &[usize]| mc.col(g[0]) as f32)
            .unwrap();
        let mv = Csr { n, nnz };
        env.load_global(&plan.vals, &move |g: &[usize]| mv.val(g[0]))
            .unwrap();
        let mx = Csr { n, nnz };
        env.load_global(&plan.x, &move |g: &[usize]| mx.x(g[0]))
            .unwrap();
    }

    fn run_spmv(n: usize, nnz: usize, p: usize, method: IoMethod, reselect: bool) -> Vec<f32> {
        let plan = spmv_plan(n, nnz, p, method);
        let model = CostModel::delta(p);
        let out = Arc::new(Mutex::new(vec![Vec::new(); p]));
        let out_c = Arc::clone(&out);
        let machine = Machine::new(MachineConfig::free(p));
        machine.run(move |ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            load_csr(&mut env, &plan, &Csr { n, nnz });
            let m = reselect.then_some(&model);
            execute_cached(ctx, &mut env, &plan, &mut None, m).unwrap();
            let y = env.read_local_all(&plan.y).unwrap();
            out_c.lock().unwrap()[ctx.rank()] = y;
        });
        Arc::try_unwrap(out)
            .unwrap()
            .into_inner()
            .unwrap()
            .into_iter()
            .flatten()
            .collect()
    }

    #[test]
    fn spmv_matches_the_reference_under_every_method() {
        let (n, nnz, p) = (64, 512, 4);
        let expect = Csr { n, nnz }.reference_y();
        for method in IoMethod::ALL {
            let got = run_spmv(n, nnz, p, method, false);
            assert_eq!(got, expect, "{method:?}");
        }
        // Runtime re-selection computes the same product.
        assert_eq!(run_spmv(n, nnz, p, IoMethod::Direct, true), expect);
    }

    #[test]
    fn spmv_is_bitwise_stable_across_rank_counts() {
        let (n, nnz) = (64, 512);
        let expect = Csr { n, nnz }.reference_y();
        for p in [1, 2, 4, 8] {
            assert_eq!(
                run_spmv(n, nnz, p, IoMethod::TwoPhase, false),
                expect,
                "p={p}"
            );
        }
    }

    #[test]
    fn schedule_reuse_skips_the_inspector() {
        let (n, nnz, p) = (64, 512, 4);
        let plan = spmv_plan(n, nnz, p, IoMethod::TwoPhase);
        let machine = Machine::new(MachineConfig::free(p));
        machine.run(move |ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            load_csr(&mut env, &plan, &Csr { n, nnz });
            let mut cache = None;
            execute_cached(ctx, &mut env, &plan, &mut cache, None).unwrap();
            let first = cache.clone().expect("inspected");
            let colidx_reads_after_first = env.disk().stats().read_requests;

            // Second iteration: same schedule object, no re-inspection.
            execute_cached(ctx, &mut env, &plan, &mut cache, None).unwrap();
            assert_eq!(cache.as_ref(), Some(&first), "schedule unchanged");

            // The reused iteration never re-reads the indirection array:
            // its reads are rowptr + gather + vals only.
            let gather = totals(&ooc_core::irreg::schedule_nodes(
                &first,
                IoMethod::TwoPhase,
                false,
            ));
            let rp_loc = plan.rowptr.local_shape(ctx.rank()).len() as u64;
            let nnz_loc = plan.vals.local_shape(ctx.rank()).len() as u64;
            let expected = u64::from(rp_loc > 0) + gather.io_requests() + u64::from(nnz_loc > 0);
            let second_reads = env.disk().stats().read_requests - colidx_reads_after_first;
            assert_eq!(second_reads, expected, "rank {}", ctx.rank());
        });
    }

    #[test]
    fn measured_io_matches_the_schedule_nest_exactly() {
        // The acceptance criterion: estimate == measured for the inspected
        // schedule, through every method. The exact nest is the affine
        // reads/writes plus `schedule_nodes` over the real schedule.
        let (n, nnz, p) = (64, 512, 4);
        for method in IoMethod::ALL {
            let plan = spmv_plan(n, nnz, p, method);
            let machine = Machine::new(MachineConfig::free(p));
            machine.run(move |ctx| {
                let rank = ctx.rank();
                let mut env = OocEnv::in_memory(ctx.rank());
                load_csr(&mut env, &plan, &Csr { n, nnz });
                let before = env.disk().stats();
                let mut cache = None;
                execute_cached(ctx, &mut env, &plan, &mut cache, None).unwrap();
                let after = env.disk().stats();
                let sched = cache.expect("inspected");

                // Build the exact per-rank nest and compare byte-for-byte.
                let mut nest = ooc_core::irreg::schedule_nodes(&sched, method, true);
                let rp_loc = plan.rowptr.local_shape(rank).len() as u64;
                let nnz_loc = plan.vals.local_shape(rank).len() as u64;
                let nloc = plan.y.local_shape(rank).len() as u64;
                nest.push(ooc_core::ir::NestNode::read(
                    "rowptr",
                    u64::from(rp_loc > 0),
                    rp_loc,
                ));
                nest.push(ooc_core::ir::NestNode::read(
                    "vals",
                    u64::from(nnz_loc > 0),
                    nnz_loc,
                ));
                nest.push(ooc_core::ir::NestNode::write(
                    "y",
                    u64::from(nloc > 0),
                    nloc,
                ));
                let t = totals(&nest);
                let est_read_reqs: u64 = t.per_array.values().map(|a| a.read_requests).sum();
                let est_read_elems: u64 = t.per_array.values().map(|a| a.read_elems).sum();
                let est_write_reqs: u64 = t.per_array.values().map(|a| a.write_requests).sum();
                let est_write_elems: u64 = t.per_array.values().map(|a| a.write_elems).sum();
                assert_eq!(
                    after.read_requests - before.read_requests,
                    est_read_reqs,
                    "{method:?} rank {rank} read requests"
                );
                assert_eq!(
                    after.bytes_read - before.bytes_read,
                    est_read_elems * 4,
                    "{method:?} rank {rank} read bytes"
                );
                assert_eq!(
                    after.write_requests - before.write_requests,
                    est_write_reqs,
                    "{method:?} rank {rank} write requests"
                );
                assert_eq!(
                    after.bytes_written - before.bytes_written,
                    est_write_elems * 4,
                    "{method:?} rank {rank} write bytes"
                );
            });
        }
    }

    /// Run the executor on `engine` over the test matrix with its row
    /// pointers replaced by `rowptr`; every rank's verdict, in rank order.
    fn run_with_rowptr(engine: dmsim::Engine, rowptr: fn(usize) -> f32) -> Vec<String> {
        let (n, nnz, p) = (64, 512, 4);
        let plan = spmv_plan(n, nnz, p, IoMethod::TwoPhase);
        let machine = Machine::new(MachineConfig::free(p).with_engine(engine));
        let (_, verdicts) = machine.run_with(move |ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            load_csr(&mut env, &plan, &Csr { n, nnz });
            env.load_global(&plan.rowptr, &move |g: &[usize]| rowptr(g[0]))
                .unwrap();
            match execute_cached(ctx, &mut env, &plan, &mut None, None) {
                Ok(_) => "ok".to_string(),
                Err(e) => {
                    assert!(matches!(e, OocError::Data { .. }), "{e:?}");
                    assert!(!e.is_recoverable());
                    e.to_string()
                }
            }
        });
        verdicts
    }

    #[test]
    fn malformed_rowptr_is_a_typed_error_on_every_rank_and_engine() {
        // The test matrix has 8 nonzeros per row: rowptr[i] = 8 i.
        let zeroed: fn(usize) -> f32 = |_| 0.0;
        let dips: fn(usize) -> f32 = |i| if i == 32 { 8.0 } else { 8.0 * i as f32 };
        let starts_late: fn(usize) -> f32 = |i| 8.0 * i as f32 + 8.0;
        let fractional: fn(usize) -> f32 = |i| if i == 1 { 7.5 } else { 8.0 * i as f32 };
        for engine in [dmsim::Engine::Threads, dmsim::Engine::Pool(2)] {
            for (rowptr, complaint) in [
                (zeroed, "`rowptr`: entry 64 = 0, expected nnz = 512"),
                (dips, "`rowptr`: entry 32 = 8 is below entry 31 = 248"),
                (starts_late, "`rowptr`: entry 0 = 8, expected 0"),
                (
                    fractional,
                    "`rowptr`: entry 1 = 7.5 is not a nonzero offset",
                ),
            ] {
                let verdicts = run_with_rowptr(engine, rowptr);
                assert_eq!(verdicts.len(), 4);
                for v in &verdicts {
                    assert!(v.contains(complaint), "{engine:?}: {v}");
                }
            }
        }
    }

    #[test]
    fn bad_indirection_entry_on_one_rank_is_a_data_error_on_every_engine() {
        // `hpf::SPMV_SOURCE`: n = 64, nnz = 512 on 4 ranks, so colidx
        // entry 300 lives on rank 2 alone. That rank fails in the inspector
        // before its want-list exchange; its peers lose it there and fail
        // with communication errors, which must not mask the real cause.
        let mut compiled =
            ooc_core::compile_source(hpf::SPMV_SOURCE, &ooc_core::CompilerOptions::default())
                .unwrap();
        for bad in [64.0f32, -1.0, 2.5, f32::NAN] {
            for engine in [dmsim::Engine::Threads, dmsim::Engine::Pool(2)] {
                let m = || Csr { n: 64, nnz: 512 };
                compiled.engine = engine;
                let mut cfg = crate::RunConfig::default();
                let init = [
                    ("rowptr", crate::init_fn(move |g| m().rowptr(g[0]))),
                    ("vals", crate::init_fn(move |g| m().val(g[0]))),
                    ("x", crate::init_fn(move |g| m().x(g[0]))),
                    (
                        "colidx",
                        crate::init_fn(move |g| match g[0] {
                            300 => bad,
                            k => m().col(k) as f32,
                        }),
                    ),
                ];
                for (name, f) in init {
                    cfg.init.insert(name.into(), f);
                }
                match crate::run(&compiled, &cfg) {
                    Err(crate::RunError::Data(msg)) => assert!(
                        msg.contains("`colidx`: local entry 44 on rank 2")
                            && msg.contains(&format!("= {bad} is not an index into `x` (0..64)")),
                        "{engine:?} {bad}: {msg}"
                    ),
                    other => panic!("{engine:?} {bad}: expected a data error, got {other:?}"),
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn row_cursor_matches_partition_point(
            lens in proptest::collection::vec(0u64..4, 1..12),
            start in 0u64..40,
        ) {
            // Zero-length rows anywhere — leading, trailing, consecutive.
            let mut rp = vec![0u64];
            for l in &lens {
                rp.push(rp.last().unwrap() + l);
            }
            let nnz = *rp.last().unwrap();
            proptest::prop_assume!(nnz > 0);
            // A rank's nonzeros are one ascending run starting anywhere.
            let mut row = 0;
            for g in start % nnz..nnz {
                row = row_from(&rp, row, g);
                proptest::prop_assert_eq!(row, rp.partition_point(|&x| x <= g) - 1);
            }
        }
    }

    #[test]
    fn runtime_reselection_picks_two_phase_on_this_index_set() {
        let (n, nnz, p) = (64, 512, 4);
        let plan = spmv_plan(n, nnz, p, IoMethod::Direct);
        let model = CostModel::delta(p);
        let chosen = Arc::new(Mutex::new(Vec::new()));
        let chosen_c = Arc::clone(&chosen);
        let machine = Machine::new(MachineConfig::free(p));
        machine.run(move |ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            load_csr(&mut env, &plan, &Csr { n, nnz });
            let sched = inspect(ctx, &mut env, &plan.x, &plan.colidx, ctx).unwrap();
            let m = select_method(ctx, &model, &sched).unwrap();
            chosen_c.lock().unwrap().push(m);
        });
        let picks = Arc::try_unwrap(chosen).unwrap().into_inner().unwrap();
        assert_eq!(picks.len(), p);
        assert!(
            picks.iter().all(|m| *m == IoMethod::TwoPhase),
            "all ranks agree on the overlap-deduped method: {picks:?}"
        );
    }
}
