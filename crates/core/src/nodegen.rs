//! Node-program generation: executable plans → symbolic loop nests.
//!
//! For each [`ExecPlan`](crate::ExecPlan) this module builds the per-processor
//! node+MP+I/O program as a [`NestNode`] tree, which the cost estimator
//! walks. Predicted and measured I/O agree request-for-request (ragged
//! final slabs included) because each nest is built from what the
//! executor runs:
//!
//! * Figures 9 and 12 of the paper are exactly [`gaxpy_nest`] for the
//!   column-slab and row-slab plans. They are built by hand in closed
//!   form; the executor walks [`GaxpyPlan::walk`], and tests hold the two
//!   to the same operation sequence.
//! * [`elw_nest`] prices every stage of [`ElwPlan::schedule`], the
//!   schedule the elementwise executor runs; [`elw_emit`] is its body,
//!   which also prices each candidate slab dimension without building it.
//! * [`RemapGeometry`] tallies the stages of the [`RemapStages`] producer
//!   the remap executor runs, for redistributions and transposes alike.

use std::convert::Infallible;

use ooc_array::{ArrayDesc, DimRange, Redistribution, RemapStages, Section, Shape};
use pario::{Access, IoMethod, SievePolicy, Tally};

use crate::ir::{NestNode, NestSink};
use crate::plan::{ElwPlan, GaxpyPlan, RemapSpec, SlabStrategy};

/// ceil(log2(p)): stages of a binomial-tree collective.
pub fn ceil_log2(p: usize) -> u64 {
    if p <= 1 {
        0
    } else {
        (usize::BITS - (p - 1).leading_zeros()) as u64
    }
}

/// The tally of one section access of `desc`'s local array, of shape
/// `local`, under `policy`, by the disk's own rule ([`Tally`]).
fn section_tally((desc, local): Operand, sec: &Section, read: bool, policy: SievePolicy) -> Tally {
    let access = desc.section_access(local, sec);
    let mut t = Tally::default();
    if read {
        t.read(access, policy);
    } else {
        t.write(access, policy);
    }
    t
}

/// Emit the tally `t` of one access of `desc`: one read node, or for a
/// write, the read of a sieved read-modify-write (when there is one) and
/// the write node.
fn emit_io<S: NestSink>(sink: &mut S, desc: &ArrayDesc, read: bool, t: Tally) {
    let es = desc.elem.size() as u64;
    if read || t.read_requests > 0 {
        sink.io(&desc.name, true, t.read_requests, t.read_bytes / es);
    }
    if !read {
        sink.io(&desc.name, false, t.write_requests, t.write_bytes / es);
    }
}

/// Emit the access of the slab `[lo, hi)` along `dim` of `desc`'s local
/// array, of shape `local`.
fn slab_io<S: NestSink>(
    sink: &mut S,
    array: Operand,
    (dim, lo, hi): (usize, usize, usize),
    read: bool,
    policy: SievePolicy,
) {
    let sec = Section::full(array.1).with_range(dim, DimRange::new(lo, hi));
    let t = section_tally(array, &sec, read, policy);
    emit_io(sink, array.0, read, t);
}

/// The GAXPY node program (Figure 9 for column slabs, Figure 12 for row
/// slabs) for rank 0, the rank the compiler prices. Under ceil-block
/// distribution no rank owns more columns than rank 0.
pub fn gaxpy_nest(plan: &GaxpyPlan) -> Vec<NestNode> {
    gaxpy_nest_for(plan, 0)
}

/// The GAXPY node program of a *specific* rank. When `p` does not divide
/// `n`, ranks own different numbers of columns, so their A-streams, compute
/// and C-writes differ; this per-rank nest matches each rank's measured
/// I/O exactly.
pub fn gaxpy_nest_for(plan: &GaxpyPlan, rank: usize) -> Vec<NestNode> {
    let mut nest = Vec::new();
    gaxpy_emit(plan, rank, &mut nest);
    nest
}

/// Emit [`gaxpy_nest_for`]`(plan, rank)` into `sink`: the one body behind
/// the nest and its allocation-free price ([`crate::cost::NestPrice`]).
pub fn gaxpy_emit<S: NestSink>(plan: &GaxpyPlan, rank: usize, sink: &mut S) {
    let [a, b, c] = [&plan.a, &plan.b, &plan.c].map(|d| (d, d.local_shape(rank)));
    let arrays = [(a.0, &a.1), (b.0, &b.1), (c.0, &c.1)];
    match plan.strategy {
        SlabStrategy::ColumnSlab => gaxpy_column_nest(plan, arrays, sink),
        SlabStrategy::RowSlab => gaxpy_row_nest(plan, arrays, sink),
    }
}

/// One operand of a GAXPY nest: its descriptor and the rank's local shape.
type Operand<'a> = (&'a ArrayDesc, &'a Shape);

fn gaxpy_column_nest<S: NestSink>(plan: &GaxpyPlan, [a, b, c]: [Operand; 3], sink: &mut S) {
    let n = plan.n;
    let (lc, lc_c) = (a.1.extent(1), c.1.extent(1));
    let logp = ceil_log2(plan.nprocs);
    let policy = plan.method.sieve_policy();
    let cols = |s: &mut S, array, lo, hi, read| slab_io(s, array, (1, lo, hi), read, policy);
    const MULTIPLY: &str = "temp(:) = temp(:) + a(:,i)*b(i,m)";
    let multiply = |s: &mut S, w: usize| s.compute(MULTIPLY, (2 * n * w) as u64);

    // Streaming all slabs of A once (per column of B): full slabs + ragged.
    // Prefetched, every read but a column's first overlaps the multiply of
    // the full slab before it.
    let fa = lc / plan.slab_a;
    let ra = lc % plan.slab_a;
    let full_flops = (2 * n * plan.slab_a) as u64;
    let full_read = |s: &mut S| cols(s, a, 0, plan.slab_a, true);
    let a_stream = |s: &mut S| {
        if fa > 0 && plan.prefetches_a() {
            full_read(s);
            multiply(s, plan.slab_a);
            if fa > 1 {
                let label = "s = 2, ka  (slabs of a, prefetched)";
                s.loop_(label, (fa - 1) as u64, |s| {
                    s.overlap(full_flops, full_read);
                    multiply(s, plan.slab_a);
                });
            }
        } else if fa > 0 {
            s.loop_("s = 1, ka  (slabs of a)", fa as u64, |s| {
                full_read(s);
                multiply(s, plan.slab_a);
            });
        }
        if ra > 0 {
            let read = |s: &mut S| cols(s, a, fa * plan.slab_a, lc, true);
            if fa > 0 && plan.prefetches_a() {
                s.overlap(full_flops, read);
            } else {
                read(s);
            }
            s.compute(
                "temp(:) = temp(:) + a(:,i)*b(i,m)  (ragged)",
                (2 * n * ra) as u64,
            );
        }
    };

    let per_column = |s: &mut S| {
        a_stream(s);
        let label = "global_sum(temp) -> column of c";
        s.comm(label, logp, 4 * n as u64 * logp);
    };

    let col_body = |s: &mut S, w: usize| {
        cols(s, b, 0, w, true);
        s.loop_("m = 1, cols in icla of b", w as u64, per_column);
    };

    let fb = n / plan.slab_b;
    let rb = n % plan.slab_b;
    if fb > 0 {
        sink.loop_("l = 1, kb  (slabs of b)", fb as u64, |s| {
            col_body(s, plan.slab_b)
        });
    }
    if rb > 0 {
        col_body(sink, rb);
    }

    // Buffered writes of C's owned columns (ICLA of slab_a columns).
    let fc = lc_c / plan.slab_a;
    let rc = lc_c % plan.slab_a;
    sink.if_owner("mynode owns these columns of c", |s| {
        if fc > 0 {
            s.loop_("c buffers", fc as u64, |s| {
                cols(s, c, 0, plan.slab_a, false)
            });
        }
        if rc > 0 {
            cols(s, c, fc * plan.slab_a, lc_c, false);
        }
    });
}

fn gaxpy_row_nest<S: NestSink>(plan: &GaxpyPlan, [a, b, c]: [Operand; 3], sink: &mut S) {
    let n = plan.n;
    let lc = a.1.extent(1);
    let logp = ceil_log2(plan.nprocs);
    let fb = n / plan.slab_b;
    let rb = n % plan.slab_b;
    let policy = plan.method.sieve_policy();
    let slab = |s: &mut S, array, dim, lo, hi, read| slab_io(s, array, (dim, lo, hi), read, policy);
    // Loop-invariant I/O motion: when B's ICLA holds the whole OCLA, its
    // read is invariant in the A-slab loop and hoisted out (this is what
    // makes "give B enough memory" pay off in Table 2).
    let b_resident = plan.slab_b >= n;

    let row_body = |s: &mut S, h_lo: usize, h_hi: usize| {
        let h = h_hi - h_lo;
        let per_column = |s: &mut S| {
            s.compute("temp(:) = temp(:) + a(j,i)*b(i,m)", (2 * h * lc) as u64);
            let label = "global_sum(temp) -> subcolumn of c";
            s.comm(label, logp, 4 * h as u64 * logp);
        };
        slab(s, a, 0, h_lo, h_hi, true);
        if b_resident {
            s.loop_("m = 1, n  (b resident)", n as u64, per_column);
        } else {
            if fb > 0 {
                s.loop_("nn = 1, kb  (slabs of b)", fb as u64, |s| {
                    slab(s, b, 1, 0, plan.slab_b, true);
                    s.loop_("m = 1, cols in icla of b", plan.slab_b as u64, per_column);
                });
            }
            if rb > 0 {
                slab(s, b, 1, fb * plan.slab_b, n, true);
                let label = "m = 1, cols in icla of b  (ragged)";
                s.loop_(label, rb as u64, per_column);
            }
        }
        s.if_owner("mynode owns these columns of c", |s| {
            slab(s, c, 0, h_lo, h_hi, false)
        });
    };

    let fa = n / plan.slab_a;
    let ra = n % plan.slab_a;
    if b_resident {
        // Hoisted: B streamed into memory exactly once.
        slab(sink, b, 1, 0, n, true);
    }
    if fa > 0 {
        sink.loop_("l = 1, ka  (row slabs of a)", fa as u64, |s| {
            row_body(s, 0, plan.slab_a)
        });
    }
    if ra > 0 {
        row_body(sink, fa * plan.slab_a, n);
    }
}

/// Node program for an elementwise plan on `rank` (the estimator uses rank
/// 0): its pre-statement remaps, then [`elw_emit`].
pub fn elw_nest(plan: &ElwPlan, rank: usize) -> Vec<NestNode> {
    // Pre-statement remaps: an exact replay of the redistribution's request
    // arithmetic under the chosen access method (same section machinery,
    // same coalescing, same sieve planner as the executor).
    let mut nest: Vec<NestNode> = (plan.pre_remaps.iter())
        .flat_map(|r| remap_nodes(r, rank))
        .collect();
    elw_emit(plan, rank, &mut nest);
    nest
}

/// Emit what [`elw_nest`]`(plan, rank)` holds after its pre-statement
/// remaps into `sink`: the one body behind the nest and its price
/// ([`crate::cost::NestPrice`]), which builds no node. Every stage of the
/// rank's [`ElwPlan::schedule`], the one the executor runs, is priced on
/// its own. The first and last stages stand alone; in between, each run
/// of consecutive stages with equal bodies is one loop, so a stage clamped
/// at a local edge is a group of its own.
pub fn elw_emit<S: NestSink>(plan: &ElwPlan, rank: usize, sink: &mut S) {
    // Every array of the statement shares the lhs's distribution.
    let local = plan.lhs.local_shape(rank);
    let schedule = plan.schedule(rank);
    let policy = plan.method.sieve_policy();
    let tally =
        |desc: &ArrayDesc, sec: &Section, read| section_tally((desc, &local), sec, read, policy);

    // Ghost exchange: one strip read and one message per strip this rank
    // sends. A received strip reads nothing, and its message is counted at
    // the sender.
    let dim = plan.ghosts.first().map_or(0, |g| g.dim);
    for strip in schedule.strips.iter().filter(|s| s.send) {
        let desc = &plan.rhs_arrays[strip.array];
        emit_io(sink, desc, true, tally(desc, &strip.section, true));
        let label = format_args!("ghost send dim {dim}");
        sink.comm(label, 1, strip.section.len() as u64 * 4);
    }

    // The open group's reads, then the stage's; a stage joins the group
    // when its record and reads equal the group's.
    let narr = plan.rhs_arrays.len();
    let mut reads = vec![Tally::default(); 2 * narr];
    let (mut group, mut trips) = (StageIo::default(), 0);
    let last = schedule.stages.len().saturating_sub(1);
    let mut previous = None;
    for (i, stage) in schedule.stages.iter().enumerate() {
        let flops = stage.out.len() as u64 * plan.flops_per_point;
        let next = StageIo {
            // Prefetched, a stage's reads overlap the previous stage's
            // evaluation.
            pending: previous.replace(flops).filter(|_| plan.prefetch),
            flops,
            write: tally(&plan.lhs, &stage.out, false),
        };
        let (group_reads, next_reads) = reads.split_at_mut(narr);
        for (t, rd) in next_reads.iter_mut().zip(&plan.rhs_arrays) {
            *t = tally(rd, &stage.input, true);
        }
        if 0 < i && i < last && trips > 0 && (next, &*next_reads) == (group, &*group_reads) {
            trips += 1;
            continue;
        }
        if trips > 0 {
            sink.loop_("interior slabs", trips, |s| {
                group.emit(group_reads, plan, s)
            });
        }
        if i == 0 || i == last {
            next.emit(next_reads, plan, sink);
        } else {
            (group, trips) = (next, 1);
            group_reads.copy_from_slice(next_reads);
        }
    }
}

/// What one stage of an elementwise nest emits besides its reads of the
/// right-hand arrays, as tallies: whether those reads overlap the
/// `pending` flops of the stage before (prefetched), the evaluation and
/// the write. Stages with equal records and reads emit equal nodes.
#[derive(Clone, Copy, Default, PartialEq)]
struct StageIo {
    pending: Option<u64>,
    flops: u64,
    write: Tally,
}

impl StageIo {
    fn emit<S: NestSink>(&self, reads: &[Tally], plan: &ElwPlan, sink: &mut S) {
        let read_all = |s: &mut S| {
            for (rd, t) in plan.rhs_arrays.iter().zip(reads) {
                emit_io(s, rd, true, *t);
            }
        };
        match self.pending {
            Some(flops) => sink.overlap(flops, read_all),
            None => read_all(sink),
        }
        sink.compute("evaluate rhs over slab", self.flops);
        emit_io(sink, &plan.lhs, false, self.write);
    }
}

/// The nodes of one pre-statement remap under its access method, exact for
/// `rank`.
pub fn remap_nodes(r: &RemapSpec, rank: usize) -> Vec<NestNode> {
    RemapGeometry::new(&Redistribution::new(&r.src, &r.tmp), rank).nodes(r.method)
}

/// One remap-style access on one rank — a redistribution or a transpose —
/// as the tally of its [`RemapStages`] stream: the disk accesses and
/// messages the executor ([`ooc_array::remap`]) issues from that same
/// stream. [`RemapGeometry::nodes`] tallies them through the disk's
/// decision rule ([`Tally`]) under any access method, so one walk of the
/// stages prices every candidate access method of a
/// [`crate::reorg::Decision`] exactly.
#[derive(Debug, Clone)]
pub struct RemapGeometry {
    src: String,
    dst: String,
    label: String,
    elem_size: u64,
    /// Direct and sieved: every section read from the source and every
    /// received piece written to the destination.
    reads: Vec<Access>,
    writes: Vec<Access>,
    /// Two-phase: each stage's union read.
    unions: Vec<Access>,
    /// Point-to-point messages and their bytes; the all-to-all carries the
    /// same bytes.
    sends: (u64, u64),
    /// All-to-all messages: every exchange posts to every peer.
    collective_messages: u64,
    /// The assembled destination two-phase writes at once.
    dst_bytes: u64,
}

impl RemapGeometry {
    /// The tally of every stage of `remap` on `rank`. Every section read
    /// is a read, every piece sent to another rank a message, every piece
    /// received a write, and each stage one all-to-all exchange.
    pub fn new(remap: &impl RemapStages, rank: usize) -> RemapGeometry {
        let (src, dst) = (remap.src(), remap.dst());
        let elem_size = src.elem.size() as u64;
        let (src_local, dst_local) = (src.local_shape(rank), dst.local_shape(rank));
        let mut g = RemapGeometry {
            src: src.name.clone(),
            dst: dst.name.clone(),
            label: if remap.transposes() {
                "transpose exchange".into()
            } else {
                format!("remap `{}` to the lhs distribution", src.name)
            },
            elem_size,
            reads: Vec::new(),
            writes: Vec::new(),
            unions: Vec::new(),
            sends: (0, 0),
            collective_messages: 0,
            dst_bytes: dst_local.len() as u64 * elem_size,
        };
        let mut stages = 0u64;
        let tallied = remap.for_each_stage(rank, |stage| {
            stages += 1;
            if let Some(union) = stage.union {
                g.unions.push(src.section_access(&src_local, union));
            }
            for (read, _) in stage.reads {
                g.reads.push(src.section_access(&src_local, read));
            }
            for (_, piece) in stage.sends.iter().filter(|(j, _)| *j != rank) {
                g.sends.0 += 1;
                g.sends.1 += piece.len() as u64 * elem_size;
            }
            for piece in stage.recv.iter().flatten() {
                g.writes.push(dst.section_access(&dst_local, piece));
            }
            Ok::<_, Infallible>(())
        });
        let Ok(()) = tallied;
        g.collective_messages = src.dist.nprocs().saturating_sub(1) as u64 * stages;
        g
    }

    /// The access's flat node program under `method`: one read node per
    /// array (the destination's only when a sieved write reads it back),
    /// one exchange node, one write node.
    pub fn nodes(&self, method: IoMethod) -> Vec<NestNode> {
        let mut nest = Vec::new();
        self.emit(method, &mut nest);
        nest
    }

    /// Emit [`RemapGeometry::nodes`]`(method)` into `sink`.
    pub fn emit<S: NestSink>(&self, method: IoMethod, sink: &mut S) {
        let policy = method.sieve_policy();
        let assembled = [Access::contiguous(self.dst_bytes)];
        let (reads, writes, messages) = match method {
            IoMethod::TwoPhase => (&self.unions, &assembled[..], self.collective_messages),
            IoMethod::Direct | IoMethod::Sieved => (&self.reads, &self.writes[..], self.sends.0),
        };
        let (mut src, mut dst) = (Tally::default(), Tally::default());
        reads.iter().for_each(|a| src.read(*a, policy));
        writes.iter().for_each(|a| dst.write(*a, policy));
        let es = self.elem_size;
        sink.io(&self.src, true, src.read_requests, src.read_bytes / es);
        if dst.read_requests > 0 {
            sink.io(&self.dst, true, dst.read_requests, dst.read_bytes / es);
        }
        let label = format_args!("{} ({})", self.label, method.label());
        sink.comm(label, messages, self.sends.1);
        sink.io(&self.dst, false, dst.write_requests, dst.write_bytes / es);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hir::ElwExpr;
    use crate::ir::{render, totals};
    use crate::plan::GhostSpec;
    use ooc_array::{ArrayId, Distribution, FileLayout};
    use pario::ElemKind;

    fn gaxpy_plan(strategy: SlabStrategy, n: usize, p: usize, sa: usize, sb: usize) -> GaxpyPlan {
        GaxpyPlan::new(strategy, n, p, sa, sb)
    }

    #[test]
    fn column_nest_matches_equations_3_and_4() {
        // N=64, P=4, slab_a = 4 columns => M = N*slab_a = 256 elements.
        let plan = gaxpy_plan(SlabStrategy::ColumnSlab, 64, 4, 4, 4);
        let t = totals(&gaxpy_nest(&plan));
        let n = 64u64;
        let p = 4u64;
        let m = 64 * 4u64;
        // T_fetch(A) = N^3 / (M P); T_data(A) = N^3 / P.
        assert_eq!(t.per_array["a"].read_requests, n * n * n / (m * p));
        assert_eq!(t.per_array["a"].read_elems, n * n * n / p);
        // B read once: N/slab_b requests, N^2/P elements.
        assert_eq!(t.per_array["b"].read_requests, 64 / 4);
        assert_eq!(t.per_array["b"].read_elems, n * n / p);
        // C written once.
        assert_eq!(t.per_array["c"].write_elems, n * n / p);
    }

    #[test]
    fn row_nest_matches_equations_5_and_6() {
        // N=64, P=4, slab_a = 16 rows => M = slab_a * N/P = 16*16 = 256.
        let plan = gaxpy_plan(SlabStrategy::RowSlab, 64, 4, 16, 4);
        let t = totals(&gaxpy_nest(&plan));
        let n = 64u64;
        let p = 4u64;
        let m = 16 * 16u64;
        // T_fetch(A) = N^2/(M P); T_data(A) = N^2/P.
        assert_eq!(t.per_array["a"].read_requests, n * n / (m * p));
        assert_eq!(t.per_array["a"].read_elems, n * n / p);
        // B re-read once per slab of A.
        let ka = n * n / (m * p);
        assert_eq!(t.per_array["b"].read_elems, ka * n * n / p);
        // C written once, one row slab per A slab.
        assert_eq!(t.per_array["c"].write_requests, ka);
        assert_eq!(t.per_array["c"].write_elems, n * n / p);
    }

    #[test]
    fn row_slabs_order_of_magnitude_fewer_requests() {
        // The paper's headline: same memory, ~N x fewer fetches for A.
        let col = gaxpy_plan(SlabStrategy::ColumnSlab, 256, 4, 16, 16);
        let row = gaxpy_plan(SlabStrategy::RowSlab, 256, 4, 64, 16); // same slab elems
        assert_eq!(col.slab_a_elems(), row.slab_a_elems());
        let tc = totals(&gaxpy_nest(&col));
        let tr = totals(&gaxpy_nest(&row));
        let ratio = tc.per_array["a"].read_requests as f64 / tr.per_array["a"].read_requests as f64;
        assert_eq!(ratio, 256.0, "A fetch ratio should be N");
        assert!(
            tc.per_array["a"].read_elems / tr.per_array["a"].read_elems == 256,
            "A data ratio should be N"
        );
    }

    #[test]
    fn ragged_slabs_account_every_element() {
        // lc = 10, slab_a = 3: slabs of 3,3,3,1 columns.
        let plan = gaxpy_plan(SlabStrategy::ColumnSlab, 40, 4, 3, 7);
        let t = totals(&gaxpy_nest(&plan));
        // A's data per column of C: full OCLA = 40*10; times N=40 columns.
        assert_eq!(t.per_array["a"].read_elems, (40 * 10 * 40) as u64);
        // 4 slabs per sweep, 40 sweeps.
        assert_eq!(t.per_array["a"].read_requests, 4 * 40);
        // B: slabs of 7 columns: 5 full + ragged 5 -> 6 requests.
        assert_eq!(t.per_array["b"].read_requests, 6);
        assert_eq!(t.per_array["b"].read_elems, (10 * 40) as u64);
    }

    #[test]
    fn unreorganized_row_slabs_are_strided() {
        // Ablation: row slabs but A kept column-major -> each A read is
        // lc strided runs instead of 1.
        let mut plan = gaxpy_plan(SlabStrategy::RowSlab, 64, 4, 16, 16);
        plan.a = plan.a.clone().with_layout(FileLayout::column_major(2));
        let t = totals(&gaxpy_nest(&plan));
        let ka = 64 / 16u64;
        assert_eq!(t.per_array["a"].read_requests, ka * 16); // lc=16 runs per slab
    }

    #[test]
    fn compute_flops_total_2n3_over_p() {
        for strategy in [SlabStrategy::ColumnSlab, SlabStrategy::RowSlab] {
            let plan = gaxpy_plan(strategy, 64, 4, 8, 8);
            let t = totals(&gaxpy_nest(&plan));
            assert_eq!(t.flops, 2 * 64u64.pow(3) / 4, "{strategy:?}");
        }
    }

    /// `v = expr` over `u` on an `n × n` grid, `(*, block)` over `p`
    /// ranks, rows `1..n-1` and columns `cols`, stripmined along the
    /// distributed columns in slabs of `thickness`.
    fn elw_plan(n: usize, p: usize, expr: ElwExpr, cols: (usize, usize), t: usize) -> ElwPlan {
        let dist = Distribution::column_block(Shape::matrix(n, n), p);
        let desc = |id, name: &str| ArrayDesc::new(ArrayId(id), name, ElemKind::F32, dist.clone());
        let w = expr.max_shift(2)[1];
        ElwPlan {
            pre_remaps: vec![],
            lhs: desc(1, "v"),
            rhs_arrays: vec![desc(0, "u")],
            flops_per_point: expr.flops_per_point(),
            expr,
            region: Section::new(vec![DimRange::new(1, n - 1), DimRange::new(cols.0, cols.1)]),
            slab_dim: 1,
            slab_thickness: t,
            ghosts: vec![GhostSpec {
                dim: 1,
                lo_width: w,
                hi_width: w,
            }],
            method: IoMethod::Direct,
            prefetch: false,
        }
    }

    /// The trips of every loop at the top of `nest`, in order.
    fn loop_trips(nest: &[NestNode]) -> Vec<u64> {
        (nest.iter())
            .filter_map(|n| match n {
                NestNode::Loop { trips, .. } => Some(*trips),
                _ => None,
            })
            .collect()
    }

    // The Jacobi node program of the first, an interior and the last rank
    // of 16² over 4 ranks in one-column slabs. Every interior stage of a
    // Jacobi sweep reads the same, so each rank's program is one loop
    // between its first and last stages.
    const JACOBI_RANK_0: &str = "\
call read_slab(u)   ! 1 req, 16 elems
call ghost send dim 1   ! 1 msgs, 64 bytes
call read_slab(u)   ! 1 req, 48 elems
evaluate rhs over slab   ! 56 flops
call write_slab(v)   ! 1 req, 14 elems
do interior slabs   ! 1 trips
  call read_slab(u)   ! 1 req, 48 elems
  evaluate rhs over slab   ! 56 flops
  call write_slab(v)   ! 1 req, 14 elems
end do
call read_slab(u)   ! 1 req, 32 elems
evaluate rhs over slab   ! 56 flops
call write_slab(v)   ! 1 req, 14 elems
";
    const JACOBI_RANK_1: &str = "\
call read_slab(u)   ! 1 req, 16 elems
call ghost send dim 1   ! 1 msgs, 64 bytes
call read_slab(u)   ! 1 req, 16 elems
call ghost send dim 1   ! 1 msgs, 64 bytes
call read_slab(u)   ! 1 req, 32 elems
evaluate rhs over slab   ! 56 flops
call write_slab(v)   ! 1 req, 14 elems
do interior slabs   ! 2 trips
  call read_slab(u)   ! 1 req, 48 elems
  evaluate rhs over slab   ! 56 flops
  call write_slab(v)   ! 1 req, 14 elems
end do
call read_slab(u)   ! 1 req, 32 elems
evaluate rhs over slab   ! 56 flops
call write_slab(v)   ! 1 req, 14 elems
";
    const JACOBI_RANK_3: &str = "\
call read_slab(u)   ! 1 req, 16 elems
call ghost send dim 1   ! 1 msgs, 64 bytes
call read_slab(u)   ! 1 req, 32 elems
evaluate rhs over slab   ! 56 flops
call write_slab(v)   ! 1 req, 14 elems
do interior slabs   ! 1 trips
  call read_slab(u)   ! 1 req, 48 elems
  evaluate rhs over slab   ! 56 flops
  call write_slab(v)   ! 1 req, 14 elems
end do
call read_slab(u)   ! 1 req, 48 elems
evaluate rhs over slab   ! 56 flops
call write_slab(v)   ! 1 req, 14 elems
";

    #[test]
    fn elementwise_node_program_groups_equal_stages() {
        let at = |d1| ElwExpr::shifted("u", vec![0, d1]);
        let sum = ElwExpr::add(
            ElwExpr::add(
                ElwExpr::shifted("u", vec![-1, 0]),
                ElwExpr::shifted("u", vec![1, 0]),
            ),
            ElwExpr::add(at(-1), at(1)),
        );
        let jacobi = elw_plan(16, 4, ElwExpr::mul(ElwExpr::Const(0.25), sum), (1, 15), 1);
        for (rank, text) in [(0, JACOBI_RANK_0), (1, JACOBI_RANK_1), (3, JACOBI_RANK_3)] {
            assert_eq!(render(&elw_nest(&jacobi, rank)), text, "rank {rank}");
        }
        // Shift 2 over one-column slabs: an interior rank's second and
        // second-to-last stages are clamped at its local edges, so each is
        // a group of its own. The first rank clamps only its second-to-last
        // stage (its region starts at column 2), the last only its second.
        let wide = elw_plan(32, 4, ElwExpr::add(at(-2), at(2)), (2, 30), 1);
        for (rank, trips) in [(0, vec![3, 1]), (1, vec![1, 4, 1]), (3, vec![1, 3])] {
            assert_eq!(loop_trips(&elw_nest(&wide, rank)), trips, "rank {rank}");
        }
    }

    #[test]
    fn the_priced_elementwise_nest_is_the_built_nest_priced() {
        // `NestPrice` over `elw_emit` is `from_nest` over `elw_nest`, bit
        // for bit: 1- to 3-D, every slab dimension, ragged last slabs,
        // ghosts on and off, prefetch on and off, every access method and
        // every rank, the last owning less than the others.
        use crate::cost::{CostEstimate, NestPrice};
        use ooc_array::{DimDist, DistKind, ProcGrid};
        let (p, model) = (3, dmsim::CostModel::delta(3));
        let mut cases = 0;
        for extents in [vec![13], vec![12, 10], vec![7, 6, 11]] {
            let nd = extents.len();
            // Block along the last dimension; the others collapsed.
            let gd = nd - 1;
            let dims: Vec<DimDist> = (0..nd)
                .map(|d| match d == gd {
                    true => DimDist::Distributed {
                        kind: DistKind::Block,
                        axis: 0,
                    },
                    false => DimDist::Collapsed,
                })
                .collect();
            let dist = Distribution::new(Shape::new(&extents), dims, ProcGrid::line(p));
            let desc = |id, name: &str, layout| {
                ArrayDesc::new(ArrayId(id), name, ElemKind::F32, dist.clone()).with_layout(layout)
            };
            let shifted = |name: &str, by: isize| {
                let mut offsets = vec![0; nd];
                offsets[gd] = by;
                ElwExpr::shifted(name, offsets)
            };
            for ghost in [false, true] {
                // Ghosts: `u` reaches 1 below and 2 above along the
                // distributed dimension. Without: two unshifted operands,
                // one stored row-major.
                let (expr, rhs_arrays, ghosts) = match ghost {
                    true => (
                        ElwExpr::add(shifted("u", -1), shifted("u", 2)),
                        vec![desc(0, "u", FileLayout::column_major(nd))],
                        vec![GhostSpec {
                            dim: gd,
                            lo_width: 1,
                            hi_width: 2,
                        }],
                    ),
                    false => (
                        ElwExpr::mul(
                            ElwExpr::Const(2.0),
                            ElwExpr::add(shifted("u", 0), shifted("w", 0)),
                        ),
                        vec![
                            desc(0, "u", FileLayout::row_major(nd)),
                            desc(2, "w", FileLayout::column_major(nd)),
                        ],
                        vec![],
                    ),
                };
                let mut region = Section::full(&Shape::new(&extents));
                region = region.with_range(gd, DimRange::new(1, extents[gd] - 2));
                for (slab_dim, &extent) in extents.iter().enumerate() {
                    for thickness in [1, 2, 3, extent] {
                        for prefetch in [false, true] {
                            for method in IoMethod::ALL {
                                let plan = ElwPlan {
                                    pre_remaps: vec![],
                                    lhs: desc(1, "v", FileLayout::column_major(nd)),
                                    rhs_arrays: rhs_arrays.clone(),
                                    flops_per_point: expr.flops_per_point(),
                                    expr: expr.clone(),
                                    region: region.clone(),
                                    slab_dim,
                                    slab_thickness: thickness,
                                    ghosts: ghosts.clone(),
                                    method,
                                    prefetch,
                                };
                                for rank in 0..p {
                                    let nest = elw_nest(&plan, rank);
                                    let want = CostEstimate::from_nest(&nest, &model, 4).time();
                                    let mut price = NestPrice::new(&model, 4);
                                    elw_emit(&plan, rank, &mut price);
                                    let got = price.time();
                                    assert_eq!(
                                        got.to_bits(),
                                        want.to_bits(),
                                        "rank {rank} {plan:?}"
                                    );
                                    cases += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 2 * 4 * 2 * 3 * 3 * (1 + 2 + 3));
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(64), 6);
    }
}
