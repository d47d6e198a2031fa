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
use pario::{plan_union, ByteRun, IoCharge, IoError, IoMethod, SievePolicy};

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
/// request/message schedule over the same [`RedistPieces`], which is what
/// the compiler prices.
pub fn redistribute_with(
    ctx: &ProcCtx,
    env: &mut OocEnv,
    src: &ArrayDesc,
    dst: &ArrayDesc,
    method: IoMethod,
    charge: &dyn IoCharge,
) -> Result<(), OocError> {
    let _m = ctx.trace_io_method(method.label());
    match method {
        IoMethod::Direct => redistribute_direct(ctx, env, src, dst, charge),
        IoMethod::Sieved => {
            let saved = env.sieve_policy();
            env.set_sieve_policy(method.sieve_policy());
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

/// One rank's pieces of a redistribution: per peer, what it exchanges with
/// that peer — the intersection of the two ranks' owned global sections —
/// in this rank's local index space, `None` where they share nothing. The
/// executor moves exactly these pieces, under every access method, and the
/// compiler prices them.
#[derive(Debug, Clone, PartialEq)]
pub struct RedistPieces {
    /// Per destination rank: the section of this rank's source it sends
    /// (`send[rank]` stays local).
    pub send: Vec<Option<Section>>,
    /// Per source rank: the section of this rank's destination it fills
    /// (`recv[rank]` is the local piece).
    pub recv: Vec<Option<Section>>,
}

impl RedistPieces {
    /// The pieces `rank` exchanges when `src` is redistributed into `dst`.
    pub fn of(src: &ArrayDesc, dst: &ArrayDesc, rank: usize) -> RedistPieces {
        check_conformance(src, dst);
        let owned = |desc: &ArrayDesc, r: usize| {
            global_section_of_local(&desc.dist, r).expect("regular distribution required")
        };
        let (my_src, my_dst) = (owned(src, rank), owned(dst, rank));
        let local = |desc: &ArrayDesc, isect: Option<Section>| {
            isect.map(|g| local_section_of_global(&desc.dist, rank, &g).expect("owns intersection"))
        };
        let p = src.dist.nprocs();
        RedistPieces {
            send: (0..p)
                .map(|j| local(src, my_src.intersect(&owned(dst, j))))
                .collect(),
            recv: (0..p)
                .map(|j| local(dst, my_dst.intersect(&owned(src, j))))
                .collect(),
        }
    }
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
    let pieces = RedistPieces::of(src, dst, me);

    // Send phase (unbounded channels: sends never block on capacity).
    for (dst_rank, piece) in pieces.send.iter().enumerate() {
        let Some(local_src) = piece else { continue };
        let data = env.read_section(src, local_src, charge)?;
        if dst_rank == me {
            let local_dst = pieces.recv[me]
                .as_ref()
                .expect("the local piece is received too");
            env.write_section(dst, local_dst, &data, charge)?;
        } else {
            ctx.send(dst_rank, REDIST_TAG, Payload::F32(data));
        }
    }

    // Receive phase.
    for (src_rank, piece) in pieces.recv.iter().enumerate() {
        let Some(local_dst) = piece.as_ref().filter(|_| src_rank != me) else {
            continue;
        };
        let data = ctx.try_recv_f32(src_rank, REDIST_TAG)?;
        assert_eq!(data.len(), local_dst.len(), "redistribute payload size");
        env.write_section(dst, local_dst, &data, charge)?;
    }
    Ok(())
}

/// Byte runs of every outgoing piece (empty where this rank sends nothing):
/// what the two-phase union read covers.
fn piece_runs(src: &ArrayDesc, rank: usize, pieces: &[Option<Section>]) -> Vec<Vec<ByteRun>> {
    let shape = src.local_shape(rank);
    pieces
        .iter()
        .map(|sec| {
            let mut runs = Vec::new();
            if let Some(sec) = sec {
                src.section_byte_runs(&shape, sec, &mut runs);
            }
            runs
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
    let pieces = RedistPieces::of(src, dst, me);

    // Phase 1: one coalesced union read covering every outgoing piece. The
    // union is already file-conforming, so it is never sieved.
    let plan = plan_union(&piece_runs(src, me, &pieces.send));
    let mut union = Vec::new();
    if plan.buffer_len() > 0 {
        env.read_runs(src, &plan.union, &mut union, charge, SievePolicy::Direct)?;
    }

    // Carve the per-destination pieces out of the union buffer, each in the
    // direct path's wire format (section column-major order).
    let cm = layout_is_cm(&src.layout);
    let sends: Vec<Vec<f32>> = pieces
        .send
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
    let strides = dst_local_shape.strides();
    let mut buf = vec![0.0f32; dst_local_shape.len()];
    for (piece, local_dst) in received.iter().zip(&pieces.recv) {
        if piece.is_empty() {
            continue;
        }
        let local_dst = local_dst
            .as_ref()
            .expect("non-empty payload implies intersection");
        assert_eq!(piece.len(), local_dst.len(), "two-phase payload size");
        for (v, off) in piece.iter().zip(local_dst.offsets(&strides)) {
            buf[off] = *v;
        }
    }
    env.write_section(dst, &Section::full(&dst_local_shape), &buf, charge)?;
    Ok(())
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
    fn every_method_matches_direct_contents() {
        // Column-block/column-major → row-block/row-major: pieces are
        // strided on both sender and receiver, so the three methods take
        // genuinely different request schedules (sieved even goes through
        // its read-modify-write path) — yet contents must be identical.
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
                redistribute_with(ctx, &mut env, &src_c, &dst_c, method, &NoCharge).unwrap();

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
