//! Storage reorganization: relayout on disk and redistribution across
//! processors.
//!
//! §2.3 of the paper: "In order to store data on the disks based on the
//! distribution pattern specified in the program, redistribution of data may
//! be needed … This involves some additional overhead which can be amortized
//! if the array is used several times." Both operations here are real: they
//! move every byte through the I/O layer (and, for redistribution, the
//! message fabric), so experiments can charge or amortize them explicitly.
//!
//! Redistribution and the out-of-core transpose are one operation: each
//! rank reads its source in pieces, sends every piece to the rank owning its
//! destination, and writes what it receives, piece by piece or assembled in
//! one write. A [`RemapSchedule`] lists one rank's side of it, built by
//! [`RemapSchedule::redistribution`] or by the transpose plan; [`remap`]
//! runs it under every access method, and the compiler prices the same
//! schedule.

use dmsim::{Payload, ProcCtx, Tag};
use ooc_trace::Category;
use pario::{IoCharge, IoError, IoMethod, SievePolicy};

use crate::dims::Dims;
use crate::error::OocError;

use crate::layout::FileLayout;
use crate::localize::local_range_of_global;
use crate::ocla::{ArrayDesc, OocEnv};
use crate::section::{offset, DimRange, Section};
use crate::slab::SlabPlan;

/// Tag of remap messages (redistribution and transpose pieces).
const REMAP_TAG: Tag = Tag(0x5ED1);

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
        env.write_section(&new_desc, &slab, &buf, charge, SievePolicy::Direct)?;
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

/// [`redistribute`] with an explicit I/O access method: [`remap`] over
/// [`RemapSchedule::redistribution`]. All three methods produce
/// byte-identical array contents; they differ only in the request/message
/// schedule over the same [`RedistPieces`], which is what the compiler
/// prices.
pub fn redistribute_with(
    ctx: &ProcCtx,
    env: &mut OocEnv,
    src: &ArrayDesc,
    dst: &ArrayDesc,
    method: IoMethod,
    charge: &dyn IoCharge,
) -> Result<(), OocError> {
    let schedule = RemapSchedule::redistribution(src, dst, ctx.rank());
    remap(ctx, env, src, dst, &schedule, method, charge).map(|_| ())
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
/// in this rank's local index space, `None` where they share nothing.
/// [`RemapSchedule::redistribution`] is built from them.
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
        let p = src.dist.nprocs();
        let mut pieces = RedistPieces {
            send: Vec::with_capacity(p),
            recv: Vec::with_capacity(p),
        };
        RedistPieces::visit(src, dst, rank, |_, send, recv| {
            pieces.send.push(send.map(Section::new));
            pieces.recv.push(recv.map(Section::new));
        });
        pieces
    }

    /// [`RedistPieces::of`] peer by peer in rank order, without a
    /// [`Section`] per piece: `f(j, send, recv)` gets the local ranges of
    /// the piece sent to rank `j` and of the piece received from it. The
    /// compiler tallies a redistribution through this.
    pub fn visit(
        src: &ArrayDesc,
        dst: &ArrayDesc,
        rank: usize,
        mut f: impl FnMut(usize, Option<&[DimRange]>, Option<&[DimRange]>),
    ) {
        check_conformance(src, dst);
        let owned = |desc: &ArrayDesc, r: usize, d: usize| {
            let coord = desc.dist.dim_coord(d, r);
            (desc.dist.owned_range(d, coord)).expect("regular distribution required")
        };
        let ndims = src.dist.global().ndims();
        // Into `out`, the local ranges of what `rank` owns of `desc`
        // intersected with what rank `j` owns of `other`; false when they
        // share nothing.
        let piece = |out: &mut Vec<DimRange>, desc: &ArrayDesc, other: &ArrayDesc, j: usize| {
            out.clear();
            for d in 0..ndims {
                match owned(desc, rank, d).intersect(&owned(other, j, d)) {
                    Some(g) => out.push(g),
                    None => return false,
                }
            }
            for (d, g) in out.iter_mut().enumerate() {
                let coord = desc.dist.dim_coord(d, rank);
                *g = local_range_of_global(&desc.dist, d, coord, *g).expect("owns intersection");
            }
            true
        };
        let (mut send, mut recv) = (Vec::with_capacity(ndims), Vec::with_capacity(ndims));
        for j in 0..src.dist.nprocs() {
            let sends = piece(&mut send, src, dst, j);
            let receives = piece(&mut recv, dst, src, j);
            f(j, sends.then_some(&send[..]), receives.then_some(&recv[..]));
        }
    }
}

/// One rank's side of a remap — a redistribution or a transpose — as
/// stages of one exchange: in each, the rank reads source sections, sends
/// every piece of them to the rank owning its destination, and receives at
/// most one piece from each peer. [`remap`] runs it under every access
/// method and the compiler tallies it, so both see the same requests and
/// messages.
#[derive(Debug, Clone, PartialEq)]
pub struct RemapSchedule {
    /// Payloads are transposed: a piece's source section, read in row-major
    /// order, is its destination piece in column-major order. A transpose
    /// also traces each stage as a slab span.
    pub transpose: bool,
    /// The stages in order; every rank runs as many.
    pub stages: Vec<RemapStage>,
}

/// One stage of a [`RemapSchedule`], in this rank's local index spaces.
#[derive(Debug, Clone, PartialEq)]
pub struct RemapStage {
    /// The source section the stage's reads tile, which two-phase reads in
    /// one request; `None` when the rank reads nothing.
    pub union: Option<Section>,
    /// Each source section read, with how many of the next `sends` are
    /// pieces of it.
    pub reads: Vec<(Section, usize)>,
    /// Every piece sent, grouped by read: destination rank and the piece's
    /// source section.
    pub sends: Vec<(usize, Section)>,
    /// Per source rank: the destination section its piece fills.
    pub recv: Vec<Option<Section>>,
}

impl RemapSchedule {
    /// The redistribution of `src` into `dst` on `rank`: one stage, one read
    /// per outgoing piece of [`RedistPieces`]. The destination distribution
    /// partitions the global array, so the pieces tile the local source,
    /// which two-phase reads whole.
    pub fn redistribution(src: &ArrayDesc, dst: &ArrayDesc, rank: usize) -> RemapSchedule {
        let pieces = RedistPieces::of(src, dst, rank);
        let sends: Vec<_> = (pieces.send.into_iter().enumerate())
            .filter_map(|(j, piece)| Some((j, piece?)))
            .collect();
        let whole = Section::full(&src.local_shape(rank));
        let stage = RemapStage {
            union: (!sends.is_empty()).then_some(whole),
            reads: sends.iter().map(|(_, piece)| (piece.clone(), 1)).collect(),
            sends,
            recv: pieces.recv,
        };
        RemapSchedule {
            transpose: false,
            stages: vec![stage],
        }
    }
}

/// Run `schedule`, this rank's side of a remap of `src` into `dst`, under
/// `method`. Collective. Returns the peak in-core elements.
///
/// * `Direct` — each read is one section access; each piece is sent (or
///   written, if it stays local) and each received piece is written on
///   arrival, one request per contiguous file run.
/// * `Sieved` — the same under [`SievePolicy::Always`]: every multi-run
///   access becomes one spanning request, and a sieved write a
///   read-modify-write.
/// * `TwoPhase` — collective two-phase I/O (del Rosario–Bordawekar–
///   Choudhary): each stage reads its file-conforming union in one request,
///   carves the pieces in memory and exchanges them in one all-to-all; the
///   received pieces assemble the whole local destination, written with one
///   contiguous request after the last stage.
pub fn remap(
    ctx: &ProcCtx,
    env: &mut OocEnv,
    src: &ArrayDesc,
    dst: &ArrayDesc,
    schedule: &RemapSchedule,
    method: IoMethod,
    charge: &dyn IoCharge,
) -> Result<usize, OocError> {
    let _m = ctx.trace_io_method(method.label());
    let _span = (!schedule.transpose).then(|| ctx.trace_span(Category::Redist, "redistribute"));
    let (me, two_phase, policy) = (
        ctx.rank(),
        method == IoMethod::TwoPhase,
        method.sieve_policy(),
    );
    let dst_shape = dst.local_shape(me);
    let strides = dst_shape.strides();
    let mut assembled = vec![0.0f32; if two_phase { dst_shape.len() } else { 0 }];
    let mut peak = assembled.len();
    for (s, stage) in schedule.stages.iter().enumerate() {
        let _stage = schedule
            .transpose
            .then(|| ctx.trace_slab_span("stage", s as u64));
        if two_phase {
            let mut payloads = vec![Vec::new(); ctx.nprocs()];
            if let Some(union) = &stage.union {
                let data = env.read_section(src, union, charge)?;
                peak = peak.max(assembled.len() + data.len());
                for (j, piece) in &stage.sends {
                    payloads[*j] = carve(&data, union, piece, schedule.transpose);
                }
            }
            let received = {
                let _x = ctx.trace_span(Category::Exchange, "exchange");
                ctx.try_alltoallv::<f32>(payloads)?
            };
            for (piece, sec) in received.iter().zip(&stage.recv) {
                if piece.is_empty() {
                    continue;
                }
                let sec = sec.as_ref().expect("non-empty payload implies a piece");
                assert_eq!(piece.len(), sec.len(), "remap payload size");
                scatter(&mut assembled, &strides, sec, piece);
            }
        } else {
            let mut sends = stage.sends.iter();
            for (read, count) in &stage.reads {
                let mut data = Vec::new();
                env.read_section_into(src, read, &mut data, charge, policy)?;
                peak = peak.max(data.len());
                for (j, piece) in sends.by_ref().take(*count) {
                    let payload = carve(&data, read, piece, schedule.transpose);
                    if *j == me {
                        let local = stage.recv[me]
                            .as_ref()
                            .expect("the local piece is received");
                        env.write_section(dst, local, &payload, charge, policy)?;
                    } else {
                        ctx.send(*j, REMAP_TAG, Payload::F32(payload));
                    }
                }
            }
            for (q, sec) in stage.recv.iter().enumerate() {
                let Some(sec) = sec.as_ref().filter(|_| q != me) else {
                    continue;
                };
                let payload = ctx.try_recv_f32(q, REMAP_TAG)?;
                assert_eq!(payload.len(), sec.len(), "remap payload size");
                peak = peak.max(payload.len());
                env.write_section(dst, sec, &payload, charge, policy)?;
            }
        }
    }
    if two_phase && !dst_shape.is_empty() {
        env.write_section(dst, &Section::full(&dst_shape), &assembled, charge, policy)?;
    }
    Ok(peak)
}

/// The elements of `piece` out of `data`, which holds the dense section
/// `read` ⊇ `piece` in column-major order: in column-major order, or in
/// row-major order when `transpose`. Moved a run at a time.
fn carve(data: &[f32], read: &Section, piece: &Section, transpose: bool) -> Vec<f32> {
    if piece == read && !transpose {
        return data.to_vec();
    }
    let strides = read.shape().dim_strides();
    let base: usize = (read.ranges().iter().zip(&strides))
        .map(|(r, s)| r.lo * s)
        .sum();
    let order: Dims<usize, 3> = if transpose {
        (0..piece.ndims()).rev().collect()
    } else {
        (0..piece.ndims()).collect()
    };
    let step = order
        .first()
        .map_or(1, |&d| piece.range(d).step * strides[d]);
    let mut out = Vec::with_capacity(piece.len());
    piece.for_each_run(&order, |at, len| {
        let start = offset(at, &strides) - base;
        if step == 1 {
            out.extend_from_slice(&data[start..start + len]);
        } else {
            out.extend(data[start..].iter().step_by(step).take(len));
        }
    });
    out
}

/// Write `piece`, the elements of `sec` in column-major order, into
/// `assembled` at `sec`'s offsets under `strides`, a dimension-0 run at a
/// time.
fn scatter(assembled: &mut [f32], strides: &[usize], sec: &Section, piece: &[f32]) {
    let order: Dims<usize, 3> = (0..sec.ndims()).collect();
    let step = order.first().map_or(1, |&d| sec.range(d).step * strides[d]);
    let mut src = piece;
    sec.for_each_run(&order, |at, len| {
        let (run, rest) = src.split_at(len);
        src = rest;
        let start = offset(at, strides);
        if step == 1 {
            assembled[start..start + len].copy_from_slice(run);
        } else {
            for (dst, &v) in assembled[start..].iter_mut().step_by(step).zip(run) {
                *dst = v;
            }
        }
    });
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

    /// `carve` and the two-phase assembly by their definition: one
    /// [`Section::offsets`] step per element.
    fn carve_by_element(
        data: &[f32],
        read: &Section,
        piece: &Section,
        transpose: bool,
    ) -> Vec<f32> {
        let mut rel: Vec<DimRange> = (piece.ranges().iter().zip(read.ranges()))
            .map(|(p, r)| DimRange::strided(p.lo - r.lo, p.hi - r.lo, p.step))
            .collect();
        let mut strides = read.shape().strides();
        if transpose {
            rel.reverse();
            strides.reverse();
        }
        let rel = Section::new(rel);
        rel.offsets(&strides).map(|off| data[off]).collect()
    }

    fn scatter_by_element(assembled: &mut [f32], strides: &[usize], sec: &Section, piece: &[f32]) {
        for (v, off) in piece.iter().zip(sec.offsets(strides)) {
            assembled[off] = *v;
        }
    }

    mod props {
        use super::*;
        use proptest::bool::ANY as BOOL;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// Per dimension: where the dense read starts, its extent, and the
        /// piece inside it as `lo` and `hi` offsets (reduced into the read,
        /// `hi <= lo` leaves it empty) and a step.
        type Dim = ((usize, usize), (usize, usize), usize);

        fn dims() -> impl Strategy<Value = Vec<Dim>> {
            vec(
                ((0usize..4, 1usize..7), (0usize..7, 0usize..8), 1usize..4),
                3..4,
            )
        }

        /// The read and the piece of the first `ndims` dimensions of `dims`.
        fn sections(dims: &[Dim], ndims: usize) -> (Section, Section) {
            let (read, piece) = dims[..ndims]
                .iter()
                .map(|&((at, extent), (lo, hi), step)| {
                    let lo = at + lo % extent;
                    let hi = at + hi.min(extent);
                    (
                        DimRange::new(at, at + extent),
                        DimRange::strided(lo, hi.max(lo), step),
                    )
                })
                .unzip::<_, _, Vec<_>, Vec<_>>();
            (Section::new(read), Section::new(piece))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn carve_and_scatter_match_the_per_element_walk(
                dims in dims(),
                ndims in 1usize..4,
                transpose in BOOL,
                whole in BOOL,
            ) {
                // 1- to 3-D, strided and unit-step, empty pieces, the whole
                // read, transposed and not.
                let (read, piece) = sections(&dims, ndims);
                let piece = if whole { read.clone() } else { piece };
                let data: Vec<f32> = (0..read.len()).map(|i| i as f32 + 0.5).collect();
                let carved = carve(&data, &read, &piece, transpose);
                prop_assert_eq!(&carved, &carve_by_element(&data, &read, &piece, transpose));
                prop_assert_eq!(carved.len(), piece.len());

                // The piece scattered back into a copy of the read, at its
                // place relative to the read.
                let rel = Section::new(
                    (piece.ranges().iter().zip(read.ranges()))
                        .map(|(p, r)| DimRange::strided(p.lo - r.lo, p.hi - r.lo, p.step))
                        .collect::<Vec<_>>(),
                );
                let strides = read.shape().strides();
                let payload: Vec<f32> = (0..rel.len()).map(|i| -(i as f32) - 1.0).collect();
                let (mut runs, mut elems) = (vec![0.0; read.len()], vec![0.0; read.len()]);
                scatter(&mut runs, &strides, &rel, &payload);
                scatter_by_element(&mut elems, &strides, &rel, &payload);
                prop_assert_eq!(runs, elems);
            }
        }
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
