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
//!   schedule the elementwise executor runs.
//! * [`RemapGeometry`] tallies the stages of the [`RemapStages`] producer
//!   the remap executor runs, for redistributions and transposes alike.

use std::convert::Infallible;

use ooc_array::{ArrayDesc, DimRange, Redistribution, RemapStages, Section, Shape};
use pario::{Access, IoMethod, SievePolicy, Tally};

use crate::ir::NestNode;
use crate::plan::{ElwPlan, GaxpyPlan, RemapSpec, SlabStrategy};

/// ceil(log2(p)): stages of a binomial-tree collective.
pub fn ceil_log2(p: usize) -> u64 {
    if p <= 1 {
        0
    } else {
        (usize::BITS - (p - 1).leading_zeros()) as u64
    }
}

/// The nodes of one section access of `desc`'s local array, of shape
/// `local`, under `policy`, tallied by the disk's own rule ([`Tally`]): one
/// read node, or for a write, the read of a sieved read-modify-write (when
/// there is one) and the write node.
fn section_io(
    desc: &ArrayDesc,
    local: &Shape,
    sec: &Section,
    read: bool,
    policy: SievePolicy,
) -> Vec<NestNode> {
    let access = desc.section_access(local, sec);
    let mut t = Tally::default();
    if read {
        t.read(access, policy);
    } else {
        t.write(access, policy);
    }
    let es = desc.elem.size() as u64;
    let reads = NestNode::read(&desc.name, t.read_requests, t.read_bytes / es);
    if read {
        return vec![reads];
    }
    let write = NestNode::write(&desc.name, t.write_requests, t.write_bytes / es);
    if t.read_requests > 0 {
        vec![reads, write]
    } else {
        vec![write]
    }
}

/// [`section_io`] of the slab `[lo, hi)` along `dim` of `desc`'s local
/// array, of shape `local`.
fn slab_io(
    (desc, local): (&ArrayDesc, &Shape),
    (dim, lo, hi): (usize, usize, usize),
    read: bool,
    policy: SievePolicy,
) -> Vec<NestNode> {
    let sec = Section::full(local).with_range(dim, DimRange::new(lo, hi));
    section_io(desc, local, &sec, read, policy)
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
    match plan.strategy {
        SlabStrategy::ColumnSlab => gaxpy_column_nest(plan, rank),
        SlabStrategy::RowSlab => gaxpy_row_nest(plan, rank),
    }
}

fn gaxpy_column_nest(plan: &GaxpyPlan, rank: usize) -> Vec<NestNode> {
    let n = plan.n;
    let shapes = [&plan.a, &plan.b, &plan.c].map(|d| d.local_shape(rank));
    let [a, b, c] = [
        (&plan.a, &shapes[0]),
        (&plan.b, &shapes[1]),
        (&plan.c, &shapes[2]),
    ];
    let (lc, lc_c) = (a.1.extent(1), c.1.extent(1));
    let logp = ceil_log2(plan.nprocs);
    let policy = plan.method.sieve_policy();
    let cols = |array, lo, hi, read| slab_io(array, (1, lo, hi), read, policy);
    let multiply = |w: usize, label: &str| NestNode::Compute {
        label: label.into(),
        flops: (2 * n * w) as u64,
    };

    // Streaming all slabs of A once (per column of B): full slabs + ragged.
    // Prefetched, every read but a column's first overlaps the multiply of
    // the full slab before it.
    let fa = lc / plan.slab_a;
    let ra = lc % plan.slab_a;
    let full = multiply(plan.slab_a, "temp(:) = temp(:) + a(:,i)*b(i,m)");
    let after_full = |read: Vec<NestNode>| {
        if !plan.prefetches_a() {
            return read;
        }
        let flops = (2 * n * plan.slab_a) as u64;
        vec![NestNode::Overlap { flops, body: read }]
    };
    let full_read = cols(a, 0, plan.slab_a, true);
    let mut a_stream = Vec::new();
    if fa > 0 {
        let slab = [full_read.clone(), vec![full.clone()]].concat();
        if plan.prefetches_a() {
            a_stream.extend(slab);
            if fa > 1 {
                a_stream.push(NestNode::loop_(
                    "s = 2, ka  (slabs of a, prefetched)",
                    (fa - 1) as u64,
                    [after_full(full_read), vec![full]].concat(),
                ));
            }
        } else {
            a_stream.push(NestNode::loop_("s = 1, ka  (slabs of a)", fa as u64, slab));
        }
    }
    if ra > 0 {
        let read = cols(a, fa * plan.slab_a, lc, true);
        a_stream.extend(if fa > 0 { after_full(read) } else { read });
        a_stream.push(multiply(ra, "temp(:) = temp(:) + a(:,i)*b(i,m)  (ragged)"));
    }

    let per_column = {
        let mut v = a_stream;
        v.push(NestNode::Comm {
            label: "global_sum(temp) -> column of c".into(),
            messages: logp,
            bytes: 4 * n as u64 * logp,
        });
        v
    };

    let col_body = |w: usize| -> Vec<NestNode> {
        let mut v = cols(b, 0, w, true);
        v.push(NestNode::loop_(
            "m = 1, cols in icla of b",
            w as u64,
            per_column.clone(),
        ));
        v
    };

    let fb = n / plan.slab_b;
    let rb = n % plan.slab_b;
    let mut nest = Vec::new();
    if fb > 0 {
        nest.push(NestNode::loop_(
            "l = 1, kb  (slabs of b)",
            fb as u64,
            col_body(plan.slab_b),
        ));
    }
    if rb > 0 {
        nest.extend(col_body(rb));
    }

    // Buffered writes of C's owned columns (ICLA of slab_a columns).
    let fc = lc_c / plan.slab_a;
    let rc = lc_c % plan.slab_a;
    let mut writes = Vec::new();
    if fc > 0 {
        writes.push(NestNode::loop_(
            "c buffers",
            fc as u64,
            cols(c, 0, plan.slab_a, false),
        ));
    }
    if rc > 0 {
        writes.extend(cols(c, fc * plan.slab_a, lc_c, false));
    }
    nest.push(NestNode::IfOwner {
        label: "mynode owns these columns of c".into(),
        body: writes,
    });
    nest
}

fn gaxpy_row_nest(plan: &GaxpyPlan, rank: usize) -> Vec<NestNode> {
    let n = plan.n;
    let shapes = [&plan.a, &plan.b, &plan.c].map(|d| d.local_shape(rank));
    let [a, b, c] = [
        (&plan.a, &shapes[0]),
        (&plan.b, &shapes[1]),
        (&plan.c, &shapes[2]),
    ];
    let lc = a.1.extent(1);
    let logp = ceil_log2(plan.nprocs);
    let fb = n / plan.slab_b;
    let rb = n % plan.slab_b;
    let policy = plan.method.sieve_policy();
    let slab = |array, dim, lo, hi, read| slab_io(array, (dim, lo, hi), read, policy);
    // Loop-invariant I/O motion: when B's ICLA holds the whole OCLA, its
    // read is invariant in the A-slab loop and hoisted out (this is what
    // makes "give B enough memory" pay off in Table 2).
    let b_resident = plan.slab_b >= n;

    let row_body = |h_lo: usize, h_hi: usize| -> Vec<NestNode> {
        let h = h_hi - h_lo;
        let per_column = vec![
            NestNode::Compute {
                label: "temp(:) = temp(:) + a(j,i)*b(i,m)".into(),
                flops: (2 * h * lc) as u64,
            },
            NestNode::Comm {
                label: "global_sum(temp) -> subcolumn of c".into(),
                messages: logp,
                bytes: 4 * h as u64 * logp,
            },
        ];
        let mut v = slab(a, 0, h_lo, h_hi, true);
        if b_resident {
            v.push(NestNode::loop_(
                "m = 1, n  (b resident)",
                n as u64,
                per_column.clone(),
            ));
        } else {
            if fb > 0 {
                let mut b_slab = slab(b, 1, 0, plan.slab_b, true);
                b_slab.push(NestNode::loop_(
                    "m = 1, cols in icla of b",
                    plan.slab_b as u64,
                    per_column.clone(),
                ));
                v.push(NestNode::loop_(
                    "nn = 1, kb  (slabs of b)",
                    fb as u64,
                    b_slab,
                ));
            }
            if rb > 0 {
                v.extend(slab(b, 1, fb * plan.slab_b, n, true));
                v.push(NestNode::loop_(
                    "m = 1, cols in icla of b  (ragged)",
                    rb as u64,
                    per_column,
                ));
            }
        }
        v.push(NestNode::IfOwner {
            label: "mynode owns these columns of c".into(),
            body: slab(c, 0, h_lo, h_hi, false),
        });
        v
    };

    let fa = n / plan.slab_a;
    let ra = n % plan.slab_a;
    let mut nest = Vec::new();
    if b_resident {
        // Hoisted: B streamed into memory exactly once.
        nest.extend(slab(b, 1, 0, n, true));
    }
    if fa > 0 {
        nest.push(NestNode::loop_(
            "l = 1, ka  (row slabs of a)",
            fa as u64,
            row_body(0, plan.slab_a),
        ));
    }
    if ra > 0 {
        nest.extend(row_body(fa * plan.slab_a, n));
    }
    nest
}

/// Node program for an elementwise plan on `rank` (the estimator uses rank
/// 0): every stage of the rank's [`ElwPlan::schedule`], the one the
/// executor runs, priced on its own. The first and last stages stand
/// alone; in between, each run of consecutive stages with equal bodies is
/// one loop, so a stage clamped at a local edge is a group of its own.
pub fn elw_nest(plan: &ElwPlan, rank: usize) -> Vec<NestNode> {
    // Pre-statement remaps: an exact replay of the redistribution's request
    // arithmetic under the chosen access method (same section machinery,
    // same coalescing, same sieve planner as the executor).
    let remaps = (plan.pre_remaps.iter())
        .flat_map(|r| remap_nodes(r, rank))
        .collect();
    elw_nest_after(plan, rank, remaps)
}

/// [`elw_nest`] after `remaps`, the nodes of the plan's pre-statement
/// remaps on `rank` under their methods: the compiler tallies each remap
/// once, to choose its method, and builds the nest from that same tally.
pub fn elw_nest_after(plan: &ElwPlan, rank: usize, remaps: Vec<NestNode>) -> Vec<NestNode> {
    // Every array of the statement shares the lhs's distribution.
    let local = plan.lhs.local_shape(rank);
    let schedule = plan.schedule(rank);
    let policy = plan.method.sieve_policy();
    let io = |desc, sec, read| section_io(desc, &local, sec, read, policy);
    let mut nest = remaps;

    // Ghost exchange: one strip read and one message per strip this rank
    // sends. A received strip reads nothing, and its message is counted at
    // the sender.
    let dim = plan.ghosts.first().map_or(0, |g| g.dim);
    for strip in schedule.strips.iter().filter(|s| s.send) {
        nest.extend(io(&plan.rhs_arrays[strip.array], &strip.section, true));
        nest.push(NestNode::Comm {
            label: format!("ghost send dim {dim}"),
            messages: 1,
            bytes: strip.section.len() as u64 * 4,
        });
    }

    // Prefetched, a stage's reads overlap the previous stage's evaluation.
    let mut previous = None;
    let mut bodies = schedule.stages.iter().map(|stage| {
        let reads: Vec<NestNode> = (plan.rhs_arrays.iter())
            .flat_map(|rd| io(rd, &stage.input, true))
            .collect();
        let flops = stage.out.len() as u64 * plan.flops_per_point;
        let mut body = match previous.replace(flops).filter(|_| plan.prefetch) {
            Some(pending) => vec![NestNode::Overlap {
                flops: pending,
                body: reads,
            }],
            None => reads,
        };
        body.push(NestNode::Compute {
            label: "evaluate rhs over slab".into(),
            flops,
        });
        body.extend(io(&plan.lhs, &stage.out, false));
        body
    });
    nest.extend(bodies.next().into_iter().flatten());
    let mut interior: Vec<Vec<NestNode>> = bodies.collect();
    let last = interior.pop();
    for group in interior.chunk_by(|a, b| a == b) {
        nest.push(NestNode::loop_(
            "interior slabs",
            group.len() as u64,
            group[0].clone(),
        ));
    }
    nest.extend(last.into_iter().flatten());
    nest
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
/// stages prices every candidate of [`crate::reorg::choose_io_method`]
/// exactly.
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
        let policy = method.sieve_policy();
        let assembled = [Access::contiguous(self.dst_bytes)];
        let (reads, writes, messages) = match method {
            IoMethod::TwoPhase => (&self.unions, &assembled[..], self.collective_messages),
            IoMethod::Direct | IoMethod::Sieved => (&self.reads, &self.writes[..], self.sends.0),
        };
        let (mut src, mut dst) = (Tally::default(), Tally::default());
        reads.iter().for_each(|a| src.read(*a, policy));
        writes.iter().for_each(|a| dst.write(*a, policy));
        let io = |read: bool, array: &str, (requests, bytes): (u64, u64)| NestNode::Io {
            array: array.into(),
            read,
            requests,
            elems: bytes / self.elem_size,
        };
        let mut v = vec![io(true, &self.src, (src.read_requests, src.read_bytes))];
        if dst.read_requests > 0 {
            v.push(io(true, &self.dst, (dst.read_requests, dst.read_bytes)));
        }
        v.push(NestNode::Comm {
            label: format!("{} ({})", self.label, method.label()),
            messages,
            bytes: self.sends.1,
        });
        v.push(io(false, &self.dst, (dst.write_requests, dst.write_bytes)));
        v
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
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(64), 6);
    }
}
