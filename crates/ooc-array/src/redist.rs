//! Storage reorganization: relayout on disk and redistribution across
//! processors.
//!
//! §2.3 of the paper: "In order to store data on the disks based on the
//! distribution pattern specified in the program, redistribution of data may
//! be needed … This involves some additional overhead which can be amortized
//! if the array is used several times." Both operations here are real: they
//! move every byte through the I/O layer (and, for redistribution, the
//! message fabric), so experiments can charge or amortize them explicitly.

use dmsim::{Payload, ProcCtx, Tag};
use pario::{plan_union, AccessPlan, ByteRun, IoCharge, IoError, IoMethod, SievePolicy};

use crate::error::OocError;

use crate::layout::FileLayout;
use crate::localize::{global_section_of_local, local_section_of_global};
use crate::ocla::{layout_is_cm, layout_to_cm, ArrayDesc, OocEnv};
use crate::section::Section;
use crate::slab::SlabPlan;

/// Tag used by redistribution messages.
const REDIST_TAG: Tag = Tag(0x5ED1);

/// Rewrite the OCLA of `desc` on this processor into `new_layout`, moving at
/// most `memory_elems` elements through memory at a time (slab-wise, slabs
/// along the new layout's slowest dimension so writes are contiguous).
///
/// Returns the descriptor with the new layout. Reads of the old layout are
/// generally strided — that is exactly the cost the compiler weighs against
/// the savings of the reorganized accesses.
pub fn relayout_in_place(
    env: &mut OocEnv,
    desc: &ArrayDesc,
    new_layout: FileLayout,
    memory_elems: usize,
    charge: &dyn IoCharge,
) -> Result<ArrayDesc, IoError> {
    let new_desc = desc.clone().with_layout(new_layout.clone());
    if new_layout == desc.layout {
        return Ok(new_desc);
    }
    let local_shape = desc.local_shape(env.rank());
    if local_shape.is_empty() {
        return Ok(new_desc);
    }
    let slab_dim = new_layout.slowest_dim();
    let plan = SlabPlan::from_memory(local_shape, slab_dim, memory_elems.max(1));
    // The rewrite is in place, and a slab's bytes under the new layout
    // overlap other slabs' bytes under the old one, so every slab is read
    // before any is written: the whole array passes through memory.
    let mut slab_bufs = Vec::with_capacity(plan.num_slabs());
    for slab in plan.iter() {
        slab_bufs.push(env.read_section(desc, &slab, charge)?);
    }
    for (slab, buf) in plan.iter().zip(slab_bufs) {
        env.write_section(&new_desc, &slab, &buf, charge)?;
    }
    Ok(new_desc)
}

/// Redistribute a global array from `src` to `dst` descriptors (different
/// distribution and/or layout). Collective: every rank must call it with the
/// same descriptors. `dst` must already be allocated in `env`.
///
/// Each pair of processors exchanges exactly the intersection of the
/// sender's and receiver's owned global sections; payloads travel through
/// the message fabric and both file accesses go through the charged I/O
/// path. Failures in either substrate surface as [`OocError`] instead of
/// panicking, so a rank lost to a permanent fault unwinds its peers
/// cleanly.
pub fn redistribute(
    ctx: &ProcCtx,
    env: &mut OocEnv,
    src: &ArrayDesc,
    dst: &ArrayDesc,
    charge: &dyn IoCharge,
) -> Result<(), OocError> {
    redistribute_with(ctx, env, src, dst, IoMethod::Direct, charge)
}

/// [`redistribute`] with an explicit I/O access method.
///
/// * `Direct` — the baseline: each piece is read/written with one request
///   per contiguous file run.
/// * `Sieved` — the same schedule, but every multi-run piece access is
///   serviced by a single spanning request ([`SievePolicy::Always`]); the
///   environment's policy is restored afterwards.
/// * `TwoPhase` — collective two-phase I/O: each rank reads the coalesced
///   *file-conforming union* of everything it contributes, carves the
///   per-destination pieces in memory, exchanges them with an all-to-all,
///   and assembles its whole local destination for one contiguous write.
///
/// All three produce byte-identical array contents; they differ only in the
/// request/message schedule, which is exactly what [`redist_counts`]
/// predicts.
pub fn redistribute_with(
    ctx: &ProcCtx,
    env: &mut OocEnv,
    src: &ArrayDesc,
    dst: &ArrayDesc,
    method: IoMethod,
    charge: &dyn IoCharge,
) -> Result<(), OocError> {
    check_conformance(src, dst);
    let _m = ctx.trace_io_method(method.label());
    match method {
        IoMethod::Direct => redistribute_direct(ctx, env, src, dst, charge),
        IoMethod::Sieved => {
            let saved = env.sieve_policy();
            env.set_sieve_policy(SievePolicy::Always);
            let r = redistribute_direct(ctx, env, src, dst, charge);
            env.set_sieve_policy(saved);
            r
        }
        IoMethod::TwoPhase => redistribute_two_phase(ctx, env, src, dst, charge),
    }
}

fn check_conformance(src: &ArrayDesc, dst: &ArrayDesc) {
    assert_eq!(
        src.dist.global(),
        dst.dist.global(),
        "redistribute: global shapes differ"
    );
    assert_eq!(
        src.dist.nprocs(),
        dst.dist.nprocs(),
        "redistribute: processor counts differ"
    );
}

/// The baseline schedule: one read/send (or local write) per destination,
/// one receive/write per source, each file access serviced piece-wise under
/// the environment's sieve policy.
fn redistribute_direct(
    ctx: &ProcCtx,
    env: &mut OocEnv,
    src: &ArrayDesc,
    dst: &ArrayDesc,
    charge: &dyn IoCharge,
) -> Result<(), OocError> {
    let _span = ctx.trace_span(ooc_trace::Category::Redist, "redistribute");
    let me = ctx.rank();
    let p = ctx.nprocs();

    let my_src_global =
        global_section_of_local(&src.dist, me).expect("regular source distribution required");

    // Send phase (unbounded channels: sends never block on capacity).
    for dst_rank in 0..p {
        let their_dst_global = global_section_of_local(&dst.dist, dst_rank)
            .expect("regular destination distribution required");
        let Some(isect) = my_src_global.intersect(&their_dst_global) else {
            continue;
        };
        let local_src =
            local_section_of_global(&src.dist, me, &isect).expect("sender owns intersection");
        let data = env.read_section(src, &local_src, charge)?;
        if dst_rank == me {
            let local_dst =
                local_section_of_global(&dst.dist, me, &isect).expect("receiver owns intersection");
            env.write_section(dst, &local_dst, &data, charge)?;
        } else {
            ctx.send(dst_rank, REDIST_TAG, Payload::F32(data));
        }
    }

    // Receive phase.
    let my_dst_global =
        global_section_of_local(&dst.dist, me).expect("regular destination distribution required");
    for src_rank in 0..p {
        if src_rank == me {
            continue;
        }
        let their_src_global = global_section_of_local(&src.dist, src_rank)
            .expect("regular source distribution required");
        let Some(isect) = my_dst_global.intersect(&their_src_global) else {
            continue;
        };
        let data = ctx.try_recv_f32(src_rank, REDIST_TAG)?;
        let local_dst =
            local_section_of_global(&dst.dist, me, &isect).expect("receiver owns intersection");
        assert_eq!(data.len(), local_dst.len(), "redistribute payload size");
        env.write_section(dst, &local_dst, &data, charge)?;
    }
    Ok(())
}

/// The piece this rank contributes to `dst_rank`: the intersection of the
/// two ranks' owned global sections, in the sender's local index space.
/// `None` when the ranks share nothing.
fn piece_section(src: &ArrayDesc, dst: &ArrayDesc, me: usize, dst_rank: usize) -> Option<Section> {
    let mine =
        global_section_of_local(&src.dist, me).expect("regular source distribution required");
    let theirs = global_section_of_local(&dst.dist, dst_rank)
        .expect("regular destination distribution required");
    let isect = mine.intersect(&theirs)?;
    Some(local_section_of_global(&src.dist, me, &isect).expect("sender owns intersection"))
}

/// Byte runs of local section `sec` of `desc` on `rank`.
fn byte_runs(desc: &ArrayDesc, rank: usize, sec: &Section) -> Vec<ByteRun> {
    let mut runs = Vec::new();
    desc.section_byte_runs(&desc.local_shape(rank), sec, &mut runs);
    runs
}

/// Byte runs of every outgoing piece (empty where this rank sends nothing):
/// what the two-phase union read covers.
fn piece_runs(src: &ArrayDesc, rank: usize, piece_secs: &[Option<Section>]) -> Vec<Vec<ByteRun>> {
    piece_secs
        .iter()
        .map(|sec| {
            sec.as_ref()
                .map_or_else(Vec::new, |s| byte_runs(src, rank, s))
        })
        .collect()
}

/// Two-phase collective redistribution (del Rosario–Bordawekar–Choudhary):
/// phase one services the file-conforming union of this rank's outgoing
/// pieces with coalesced requests; phase two all-to-alls the pieces to
/// their computation-conforming owners, after which each rank assembles its
/// entire local destination in memory and writes it with a single
/// contiguous request.
fn redistribute_two_phase(
    ctx: &ProcCtx,
    env: &mut OocEnv,
    src: &ArrayDesc,
    dst: &ArrayDesc,
    charge: &dyn IoCharge,
) -> Result<(), OocError> {
    let _span = ctx.trace_span(ooc_trace::Category::Redist, "redistribute");
    let me = ctx.rank();
    let p = ctx.nprocs();

    // Phase 1: one coalesced union read covering every outgoing piece. The
    // union is already file-conforming, so it is never sieved.
    let piece_secs: Vec<Option<Section>> = (0..p).map(|j| piece_section(src, dst, me, j)).collect();
    let plan = plan_union(&piece_runs(src, me, &piece_secs));
    let mut union = Vec::new();
    if plan.buffer_len() > 0 {
        env.read_runs(src, &plan.union, &mut union, charge, SievePolicy::Direct)?;
    }

    // Carve the per-destination pieces out of the union buffer, each in the
    // direct path's wire format (section column-major order).
    let cm = layout_is_cm(&src.layout);
    let sends: Vec<Vec<f32>> = piece_secs
        .iter()
        .enumerate()
        .map(|(j, sec)| match sec {
            Some(sec) if !cm => {
                let raw = plan.carve(j, &union);
                let mut piece = vec![0.0; raw.len()];
                layout_to_cm(&src.layout, sec, &raw, &mut piece);
                piece
            }
            Some(_) => plan.carve(j, &union),
            None => Vec::new(),
        })
        .collect();

    // Phase 2: exchange to the computation-conforming decomposition.
    let received = {
        let _x = ctx.trace_span(ooc_trace::Category::Exchange, "exchange");
        ctx.try_alltoallv::<f32>(sends)?
    };

    // Source sections partition the global array, so the incoming pieces
    // tile this rank's whole destination: assemble it in memory and issue
    // one contiguous full-section write.
    let dst_local_shape = dst.local_shape(me);
    if dst_local_shape.is_empty() {
        return Ok(());
    }
    let my_dst_global =
        global_section_of_local(&dst.dist, me).expect("regular destination distribution required");
    let strides = dst_local_shape.strides();
    let mut buf = vec![0.0f32; dst_local_shape.len()];
    for (src_rank, piece) in received.iter().enumerate() {
        if piece.is_empty() {
            continue;
        }
        let their_src = global_section_of_local(&src.dist, src_rank)
            .expect("regular source distribution required");
        let isect = my_dst_global
            .intersect(&their_src)
            .expect("non-empty payload implies intersection");
        let local_dst =
            local_section_of_global(&dst.dist, me, &isect).expect("receiver owns intersection");
        assert_eq!(piece.len(), local_dst.len(), "two-phase payload size");
        for (v, off) in piece.iter().zip(local_dst.offsets(&strides)) {
            buf[off] = *v;
        }
    }
    env.write_section(dst, &Section::full(&dst_local_shape), &buf, charge)?;
    Ok(())
}

/// Predicted I/O and message traffic of [`redistribute_with`] on one rank —
/// an exact replay of the executor's request arithmetic (same section
/// machinery, same coalescing, same sieve planner), so estimate ==
/// measurement holds by construction for every method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RedistCounts {
    /// Disk read requests issued against the *source* array on this rank.
    pub read_requests: u64,
    /// Bytes those reads move (sieved spans count whole).
    pub read_bytes: u64,
    /// Read requests against the *destination* array — the read half of
    /// sieved read-modify-write writes (zero for the other methods).
    pub dst_read_requests: u64,
    /// Bytes those destination-side reads move.
    pub dst_read_bytes: u64,
    /// Disk write requests issued on this rank.
    pub write_requests: u64,
    /// Bytes those writes move.
    pub write_bytes: u64,
    /// Messages this rank sends.
    pub messages: u64,
    /// Payload bytes this rank sends.
    pub msg_bytes: u64,
}

/// Replay the request schedule of `redistribute_with(.., method, ..)` for
/// `rank` without touching any data.
pub fn redist_counts(
    src: &ArrayDesc,
    dst: &ArrayDesc,
    rank: usize,
    method: IoMethod,
) -> RedistCounts {
    check_conformance(src, dst);
    let p = src.dist.nprocs();
    let es = src.elem.size() as u64;
    let mut c = RedistCounts::default();

    let piece_secs: Vec<Option<Section>> =
        (0..p).map(|j| piece_section(src, dst, rank, j)).collect();

    match method {
        IoMethod::Direct | IoMethod::Sieved => {
            let policy = match method {
                IoMethod::Sieved => SievePolicy::Always,
                _ => SievePolicy::Direct,
            };
            // Send phase: one piece-wise read per destination with data.
            for (j, sec) in piece_secs.iter().enumerate() {
                let Some(sec) = sec else { continue };
                let runs = byte_runs(src, rank, sec);
                let rp = pario::plan_access(&runs, policy);
                c.read_requests += rp.requests();
                c.read_bytes += rp.bytes();
                if j != rank {
                    c.messages += 1;
                    c.msg_bytes += sec.len() as u64 * es;
                }
            }
            // Receive phase: one piece-wise write per source with data.
            let my_dst_global = global_section_of_local(&dst.dist, rank)
                .expect("regular destination distribution required");
            for src_rank in 0..p {
                let their_src = global_section_of_local(&src.dist, src_rank)
                    .expect("regular source distribution required");
                let Some(isect) = my_dst_global.intersect(&their_src) else {
                    continue;
                };
                let local_dst = local_section_of_global(&dst.dist, rank, &isect)
                    .expect("receiver owns intersection");
                let runs = byte_runs(dst, rank, &local_dst);
                match pario::plan_access(&runs, policy) {
                    AccessPlan::Direct(coalesced) => {
                        c.write_requests += coalesced.len() as u64;
                        c.write_bytes += coalesced.iter().map(|r| r.len).sum::<u64>();
                    }
                    // A sieved write is read-modify-write of the span.
                    AccessPlan::Sieved { span, .. } => {
                        c.dst_read_requests += 1;
                        c.dst_read_bytes += span.len;
                        c.write_requests += 1;
                        c.write_bytes += span.len;
                    }
                }
            }
        }
        IoMethod::TwoPhase => {
            let plan = plan_union(&piece_runs(src, rank, &piece_secs));
            c.read_requests = plan.requests();
            c.read_bytes = plan.bytes();
            // alltoallv posts to every peer, empty pieces included.
            c.messages = p.saturating_sub(1) as u64;
            for (j, sec) in piece_secs.iter().enumerate() {
                if j != rank {
                    c.msg_bytes += sec.as_ref().map_or(0, |s| s.len() as u64) * es;
                }
            }
            let local_len = dst.local_shape(rank).len() as u64;
            if local_len > 0 {
                c.write_requests = 1;
                c.write_bytes = local_len * es;
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Distribution;
    use crate::ocla::ArrayId;
    use crate::section::Section;
    use crate::shape::Shape;
    use dmsim::{Machine, MachineConfig};
    use pario::{ElemKind, NoCharge};

    fn value(g: &[usize]) -> f32 {
        (1000 * g[0] + g[1]) as f32
    }

    #[test]
    fn relayout_preserves_contents() {
        let desc = ArrayDesc::new(
            ArrayId(0),
            "a",
            ElemKind::F32,
            Distribution::column_block(Shape::matrix(16, 8), 2),
        );
        let mut env = OocEnv::in_memory(1);
        env.alloc(&desc).unwrap();
        env.load_global(&desc, &value).unwrap();
        let before = env.read_local_all(&desc).unwrap();

        let new_desc =
            relayout_in_place(&mut env, &desc, FileLayout::row_major(2), 24, &NoCharge).unwrap();
        let after = env.read_local_all(&new_desc).unwrap();
        assert_eq!(before, after, "local CM view must be layout-invariant");
    }

    #[test]
    fn relayout_same_layout_is_noop() {
        let desc = ArrayDesc::new(
            ArrayId(0),
            "a",
            ElemKind::F32,
            Distribution::column_block(Shape::matrix(4, 4), 1),
        );
        let mut env = OocEnv::in_memory(0);
        env.alloc(&desc).unwrap();
        let stats_before = env.disk().stats();
        let nd =
            relayout_in_place(&mut env, &desc, FileLayout::column_major(2), 4, &NoCharge).unwrap();
        assert_eq!(nd, desc);
        assert_eq!(env.disk().stats(), stats_before);
    }

    #[test]
    fn redistribute_column_block_to_row_block() {
        let n = 12;
        let p = 3;
        let src_dist = Distribution::column_block(Shape::matrix(n, n), p);
        let dst_dist = Distribution::row_block(Shape::matrix(n, n), p);
        let src = ArrayDesc::new(ArrayId(0), "a", ElemKind::F32, src_dist);
        let dst = ArrayDesc::new(ArrayId(1), "a2", ElemKind::F32, dst_dist);

        let machine = Machine::new(MachineConfig::free(p));
        let src_c = src.clone();
        let dst_c = dst.clone();
        machine.run(move |ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            env.alloc(&src_c).unwrap();
            env.alloc(&dst_c).unwrap();
            env.load_global(&src_c, &value).unwrap();

            redistribute(ctx, &mut env, &src_c, &dst_c, &NoCharge).unwrap();

            // Every local element of dst must hold the right global value.
            let local_shape = dst_c.local_shape(ctx.rank());
            let all = env.read_local_all(&dst_c).unwrap();
            for (off, idx) in Section::full(&local_shape).indices().enumerate() {
                let g = crate::localize::local_to_global(&dst_c.dist, ctx.rank(), &idx);
                assert_eq!(all[off], value(&g), "rank {} idx {:?}", ctx.rank(), idx);
            }
        });
    }

    #[test]
    fn every_method_matches_direct_contents_and_its_replayed_counts() {
        // Column-block/column-major → row-block/row-major: pieces are
        // strided on both sender and receiver, so the three methods take
        // genuinely different request schedules (sieved even goes through
        // its read-modify-write path) — yet contents must be identical, and
        // the measured disk counters must equal the redist_counts replay.
        let n = 12;
        let p = 3;
        let src = ArrayDesc::new(
            ArrayId(0),
            "a",
            ElemKind::F32,
            Distribution::column_block(Shape::matrix(n, n), p),
        );
        let dst = ArrayDesc::new(
            ArrayId(1),
            "a2",
            ElemKind::F32,
            Distribution::row_block(Shape::matrix(n, n), p),
        )
        .with_layout(FileLayout::row_major(2));

        for method in pario::IoMethod::ALL {
            let machine = Machine::new(MachineConfig::free(p));
            let (src_c, dst_c) = (src.clone(), dst.clone());
            machine.run(move |ctx| {
                let mut env = OocEnv::in_memory(ctx.rank());
                env.alloc(&src_c).unwrap();
                env.alloc(&dst_c).unwrap();
                env.load_global(&src_c, &value).unwrap();

                let before = env.disk().stats();
                redistribute_with(ctx, &mut env, &src_c, &dst_c, method, &NoCharge).unwrap();
                let after = env.disk().stats();

                let counts = redist_counts(&src_c, &dst_c, ctx.rank(), method);
                assert_eq!(
                    after.read_requests - before.read_requests,
                    counts.read_requests + counts.dst_read_requests,
                    "{method:?} rank {} read requests",
                    ctx.rank()
                );
                assert_eq!(
                    after.bytes_read - before.bytes_read,
                    counts.read_bytes + counts.dst_read_bytes,
                    "{method:?} rank {} read bytes",
                    ctx.rank()
                );
                assert_eq!(
                    after.write_requests - before.write_requests,
                    counts.write_requests,
                    "{method:?} rank {} write requests",
                    ctx.rank()
                );
                assert_eq!(
                    after.bytes_written - before.bytes_written,
                    counts.write_bytes,
                    "{method:?} rank {} write bytes",
                    ctx.rank()
                );

                let local_shape = dst_c.local_shape(ctx.rank());
                let all = env.read_local_all(&dst_c).unwrap();
                for (off, idx) in Section::full(&local_shape).indices().enumerate() {
                    let g = crate::localize::local_to_global(&dst_c.dist, ctx.rank(), &idx);
                    assert_eq!(all[off], value(&g), "{method:?} rank {}", ctx.rank());
                }
            });
        }
    }

    #[test]
    fn two_phase_reads_once_where_direct_reads_per_row() {
        // The paper's worst case: a row-major file read in a
        // column-conforming decomposition. Direct issues one request per
        // (row, destination) pair; the file-conforming union of all pieces
        // is this rank's entire contiguous file — one request.
        let n = 16;
        let p = 4;
        let src = ArrayDesc::new(
            ArrayId(0),
            "a",
            ElemKind::F32,
            Distribution::row_block(Shape::matrix(n, n), p),
        )
        .with_layout(FileLayout::row_major(2));
        let dst = ArrayDesc::new(
            ArrayId(1),
            "a2",
            ElemKind::F32,
            Distribution::column_block(Shape::matrix(n, n), p),
        );
        let rows_per_rank = n / p;
        let direct = redist_counts(&src, &dst, 0, pario::IoMethod::Direct);
        let two_phase = redist_counts(&src, &dst, 0, pario::IoMethod::TwoPhase);
        assert_eq!(direct.read_requests, (rows_per_rank * p) as u64);
        assert_eq!(two_phase.read_requests, 1);
        assert_eq!(two_phase.read_bytes, direct.read_bytes, "no overread");
        // Writes collapse too: the receiver assembles its full local part.
        assert_eq!(two_phase.write_requests, 1);
        assert!(direct.write_requests > two_phase.write_requests);
    }

    #[test]
    fn redistribute_block_to_cyclic() {
        use crate::dist::{DimDist, DistKind, ProcGrid};
        let n = 10;
        let p = 4;
        let src_dist = Distribution::row_block(Shape::matrix(n, 3), p);
        let dst_dist = Distribution::new(
            Shape::matrix(n, 3),
            vec![
                DimDist::Distributed {
                    kind: DistKind::Cyclic,
                    axis: 0,
                },
                DimDist::Collapsed,
            ],
            ProcGrid::line(p),
        );
        let src = ArrayDesc::new(ArrayId(0), "a", ElemKind::F32, src_dist);
        let dst = ArrayDesc::new(ArrayId(1), "a2", ElemKind::F32, dst_dist);

        let machine = Machine::new(MachineConfig::free(p));
        let (src_c, dst_c) = (src.clone(), dst.clone());
        machine.run(move |ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            env.alloc(&src_c).unwrap();
            env.alloc(&dst_c).unwrap();
            env.load_global(&src_c, &value).unwrap();
            redistribute(ctx, &mut env, &src_c, &dst_c, &NoCharge).unwrap();
            let local_shape = dst_c.local_shape(ctx.rank());
            let all = env.read_local_all(&dst_c).unwrap();
            for (off, idx) in Section::full(&local_shape).indices().enumerate() {
                let g = crate::localize::local_to_global(&dst_c.dist, ctx.rank(), &idx);
                assert_eq!(all[off], value(&g));
            }
        });
    }
}
