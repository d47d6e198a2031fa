//! Cost terms for irregular (indirection-array) request streams.
//!
//! Affine accesses are priced by enumerating their sections; an
//! `A(idx(i))` gather cannot be — its request stream depends on runtime
//! data. This module prices it anyway, two ways:
//!
//! * **A priori** ([`scattered_stats`]): a synthetic [`IrregStats`]
//!   parameterized by the run-length statistics of the (unseen) index set.
//!   The compiler uses the fully-scattered member of the family (average
//!   run length 1) to select the executor's access method before any data
//!   exists.
//! * **Exact** ([`schedule_nodes`]): once the inspector has produced a real
//!   [`ooc_array::IrregSchedule`], its serve runs are tallied through the
//!   disk's own decision rule, so the resulting nest prices the measured
//!   run exactly — estimate == measured for the inspected schedule, like
//!   every affine path.
//!
//! Both produce ordinary [`NestNode`] programs, so the existing
//! [`crate::cost::CostEstimate`] machinery and the
//! [`crate::reorg::choose_io_method`] selector apply unchanged.

use ooc_array::{IrregSchedule, IrregStats};
use pario::{plan_union, Access, IoMethod, Tally};

use crate::ir::{NestNode, NestSink};
use crate::plan::SpmvPlan;

/// Coalesced runs covering `u` elements that appear in clumps of average
/// length `run_len` inside a window of `window` element slots. Two effects
/// bound the count: clumping (at most `ceil(u / run_len)` runs) and density
/// (as `u` approaches `window`, neighbouring clumps touch and merge; a
/// saturated window is one run). The model takes the tighter bound.
pub fn runs_of(u: u64, window: u64, run_len: u64) -> u64 {
    if u == 0 {
        return 0;
    }
    let l = run_len.max(1);
    let by_clump = u.div_ceil(l);
    let by_density = (u * window.saturating_sub(u))
        .checked_div(window)
        .unwrap_or(0)
        + 1;
    by_clump.min(by_density).max(1)
}

/// Synthetic per-rank statistics of an index set the compiler has never
/// seen: `nnz` indirection entries into a length-`n` block-distributed
/// vector on `p` ranks, targets scattered with average run length
/// `run_len`. This is the a-priori member of the cost-term family —
/// [`IrregSchedule::stats`] produces the measured member once the inspector
/// has run.
pub fn scattered_stats(
    n: usize,
    nnz: usize,
    p: usize,
    elem_size: usize,
    run_len: usize,
) -> IrregStats {
    let p64 = p.max(1) as u64;
    let nloc = (n as u64).div_ceil(p64);
    // Index entries one rank inspects, and the distinct targets they name
    // (repeats collapse; a stream longer than the vector saturates it).
    let m = (nnz as u64).div_ceil(p64);
    let d = m.min(n as u64);
    // Want-list length per (requester, owner) pair: the requester's
    // distinct targets spread evenly over the owners, capped by the
    // owner's local extent.
    let w = d.div_ceil(p64).min(nloc);
    let l = run_len.max(1) as u64;
    // Union across the p requesters an owner serves: overlapping scattered
    // wants dedup, capped by the local extent (where coalescing collapses
    // the union toward one spanning run).
    let u = (w * p64).min(nloc);
    IrregStats {
        nprocs: p64,
        elem_size: elem_size as u64,
        index_elems: m,
        index_requests: u64::from(m > 0),
        gather_elems: m,
        serve_elems: w * p64,
        serve_runs: p64 * runs_of(w, nloc, l),
        peers_with_data: if w > 0 { p64 } else { 0 },
        // A scattered want-list of 2+ elements spans essentially the whole
        // local file; a single element spans one clump.
        span_bytes: if w == 0 {
            0
        } else if w == 1 {
            p64 * l.min(nloc) * elem_size as u64
        } else {
            p64 * nloc * elem_size as u64
        },
        union_runs: runs_of(u, nloc, l),
        union_bytes: u * elem_size as u64,
        remote_served_elems: w * p64.saturating_sub(1),
        remote_want_elems: w * p64.saturating_sub(1),
    }
}

/// Price the inspector itself: the one charged indirection read plus the
/// want-list all-to-all (8 bytes per remote want entry).
pub fn inspector_nodes(index_name: &str, s: &IrregStats) -> Vec<NestNode> {
    let mut v = Vec::new();
    v.io(index_name, true, s.index_requests, s.index_elems);
    let messages = s.nprocs.saturating_sub(1);
    v.comm("exchange want-lists", messages, s.remote_want_elems * 8);
    v
}

/// Price one executor invocation under `method`. The three methods trade
/// requests for bytes exactly as the affine remaps do:
///
/// * `Direct` — one request per coalesced serve run, exact bytes;
/// * `Sieved` — one spanning request per peer served, span bytes;
/// * `TwoPhase` — the union read (requester overlap deduped) plus the
///   all-to-all exchange.
pub fn gather_nodes(data_name: &str, s: &IrregStats, method: IoMethod) -> Vec<NestNode> {
    let es = s.elem_size.max(1);
    let (requests, elems) = match method {
        IoMethod::Direct => (s.serve_runs, s.serve_elems),
        IoMethod::Sieved => (s.peers_with_data, s.span_bytes / es),
        IoMethod::TwoPhase => (s.union_runs, s.union_bytes / es),
    };
    let messages = match method {
        // One message per remote peer served.
        IoMethod::Direct | IoMethod::Sieved => s
            .peers_with_data
            .saturating_sub(u64::from(s.peers_with_data > 0)),
        // The all-to-all posts to every peer.
        IoMethod::TwoPhase => s.nprocs.saturating_sub(1),
    };
    let mut v = Vec::new();
    v.io(data_name, true, requests, elems);
    let label = format!("gather exchange ({})", method.label());
    v.comm(&label, messages, s.remote_served_elems * es);
    v
}

/// Exact per-rank nodes for a real inspected schedule (the irregular
/// counterpart of [`crate::nodegen::remap_nodes`]): the gather's serve
/// runs are tallied through the disk's decision rule ([`Tally`]) and the
/// messages counted as the executor posts them, so a [`CostEstimate`] built
/// from this nest matches the measured disk/message deltas exactly.
///
/// [`CostEstimate`]: crate::cost::CostEstimate
pub fn schedule_nodes(
    sched: &IrregSchedule,
    method: IoMethod,
    include_inspect: bool,
) -> Vec<NestNode> {
    let me = sched.stamp.rank;
    let remote = |lists: &[Vec<u64>]| -> u64 {
        let all: usize = lists.iter().map(Vec::len).sum();
        (all - lists.get(me).map_or(0, Vec::len)) as u64
    };
    // An all-to-all posts to every peer, empty pieces included.
    let all_to_all = sched.stamp.nprocs.saturating_sub(1) as u64;
    let mut v = Vec::new();
    if include_inspect {
        // One read of the whole local indirection file.
        let nout = sched.nout as u64;
        let index = &sched.stamp.index.name;
        v.io(index, true, u64::from(nout > 0), nout);
        v.comm("exchange want-lists", all_to_all, remote(&sched.want) * 8);
    }
    let mut t = Tally::default();
    let mut messages = all_to_all;
    if method == IoMethod::TwoPhase {
        let union = plan_union(&sched.serve_runs).union;
        t.read(Access::of_coalesced(&union), method.sieve_policy());
    } else {
        messages = 0;
        for (j, runs) in sched.serve_runs.iter().enumerate() {
            if !runs.is_empty() {
                t.read(Access::of_coalesced(runs), method.sieve_policy());
                messages += u64::from(j != me);
            }
        }
    }
    let (data, es) = (&sched.stamp.data, sched.stamp.data.elem.size() as u64);
    v.io(&data.name, true, t.read_requests, t.read_bytes / es);
    let label = format!("gather exchange ({})", method.label());
    v.comm(&label, messages, remote(&sched.serve_elems) * es);
    v
}

/// The per-rank SpMV node program under `method`, priced from `stats`
/// (synthetic at compile time, measured at run time). Mirrors the executor
/// step for step: stream the local rowptr slice and broadcast it, inspect
/// the indirection array (unless the plan reuses an earlier statement's
/// schedule), gather `x`, stream the local values, accumulate, reduce the
/// partial products to the row owners, write `y`.
pub fn spmv_nest_with(
    plan: &SpmvPlan,
    method: IoMethod,
    stats: &IrregStats,
    rank: usize,
) -> Vec<NestNode> {
    let p = plan.nprocs as u64;
    let nloc = plan.y.local_shape(rank).extent(0) as u64;
    let rp_loc = plan.rowptr.local_shape(rank).extent(0) as u64;
    let nnz_loc = plan.vals.local_shape(rank).extent(0) as u64;
    let peers = p.saturating_sub(1);
    let mut v = Vec::new();
    v.io(&plan.rowptr.name, true, u64::from(rp_loc > 0), rp_loc);
    v.comm("allgather rowptr", peers, rp_loc * 4 * peers);
    if plan.reuses.is_none() {
        v.extend(inspector_nodes(&plan.colidx.name, stats));
    }
    v.extend(gather_nodes(&plan.x.name, stats, method));
    v.io(&plan.vals.name, true, u64::from(nnz_loc > 0), nnz_loc);
    let flops = 2 * nnz_loc + peers * nloc;
    v.compute("y(row(k)) += vals(k) * x(colidx(k))", flops);
    v.comm("reduce partial y to row owners", peers, nloc * 4 * peers);
    v.io(&plan.y.name, false, u64::from(nloc > 0), nloc);
    v
}

/// The compile-time SpMV nest: the plan's chosen method priced over the
/// fully-scattered member of the cost-term family (run length 1 — the
/// conservative assumption for an unseen index set).
pub fn spmv_nest(plan: &SpmvPlan) -> Vec<NestNode> {
    let stats = scattered_stats(plan.n, plan.nnz, plan.nprocs, 4, 1);
    spmv_nest_with(plan, plan.method, &stats, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostEstimate;
    use crate::ir::totals;
    use dmsim::CostModel;

    #[test]
    fn run_model_obeys_both_bounds() {
        // Clump bound: 16 elements in runs of 4 inside a huge window.
        assert_eq!(runs_of(16, 1 << 20, 4), 4);
        // Density bound: a saturated window coalesces to one run.
        assert_eq!(runs_of(16, 16, 1), 1);
        // Empty stream, no runs.
        assert_eq!(runs_of(0, 64, 1), 0);
        // Sparse scattered singletons: one run each.
        assert_eq!(runs_of(4, 1 << 20, 1), 4);
    }

    #[test]
    fn scattered_family_tightens_with_run_length() {
        let loose = scattered_stats(1 << 16, 1 << 14, 4, 4, 1);
        let tight = scattered_stats(1 << 16, 1 << 14, 4, 4, 8);
        assert!(tight.serve_runs < loose.serve_runs, "clumps coalesce");
        assert!(tight.union_runs <= loose.union_runs);
        assert_eq!(tight.serve_elems, loose.serve_elems, "bytes are run-blind");
    }

    #[test]
    fn two_phase_never_reads_more_than_direct_in_the_model() {
        for (n, nnz, p) in [(64, 512, 4), (1 << 14, 1 << 16, 8), (256, 300, 2)] {
            let s = scattered_stats(n, nnz, p, 4, 1);
            let d = totals(&gather_nodes("x", &s, IoMethod::Direct));
            let t = totals(&gather_nodes("x", &s, IoMethod::TwoPhase));
            assert!(t.per_array["x"].read_requests <= d.per_array["x"].read_requests);
            assert!(t.per_array["x"].read_elems <= d.per_array["x"].read_elems);
        }
    }

    #[test]
    fn selector_prefers_two_phase_on_a_scattered_overlapping_set() {
        // nnz >> n: every rank's want lists overlap heavily, so the union
        // read dedups across requesters and wins under Delta's per-request
        // latency.
        let s = scattered_stats(64, 512, 4, 4, 1);
        let model = CostModel::delta(4);
        let choice =
            crate::reorg::choose_io_method("gather x", &model, None, |m| gather_nodes("x", &s, m));
        assert_eq!(choice.chosen, IoMethod::TwoPhase, "{:?}", choice.estimates);
        assert!(!choice.forced);
    }

    #[test]
    fn spmv_nest_accounts_every_stream() {
        use ooc_array::{ArrayDesc, ArrayId, DimDist, DistKind, Distribution, ProcGrid, Shape};
        use pario::ElemKind;
        let (n, nnz, p) = (64, 512, 4);
        let vec_desc = |id: u32, name: &str, len: usize| {
            ArrayDesc::new(
                ArrayId(id),
                name,
                ElemKind::F32,
                Distribution::new(
                    Shape::new(vec![len]),
                    vec![DimDist::Distributed {
                        kind: DistKind::Block,
                        axis: 0,
                    }],
                    ProcGrid::line(p),
                ),
            )
        };
        let plan = SpmvPlan {
            y: vec_desc(0, "y", n),
            rowptr: vec_desc(1, "rowptr", n + 1),
            colidx: vec_desc(2, "colidx", nnz),
            vals: vec_desc(3, "vals", nnz),
            x: vec_desc(4, "x", n),
            n,
            nnz,
            nprocs: p,
            method: IoMethod::TwoPhase,
            reuses: None,
        };
        let t = totals(&spmv_nest(&plan));
        // Every stream appears: rowptr, colidx (inspector), x (gather),
        // vals in; y out.
        for name in ["rowptr", "colidx", "x", "vals"] {
            assert!(t.per_array[name].read_elems > 0, "{name}");
        }
        assert_eq!(t.per_array["vals"].read_elems, (nnz / p) as u64);
        assert_eq!(t.per_array["y"].write_elems, (n / p) as u64);
        assert!(t.flops >= 2 * (nnz / p) as u64);
        let est = CostEstimate::from_nest(&spmv_nest(&plan), &CostModel::delta(p), 4);
        assert!(est.time() > 0.0);
    }
}
