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
//! one write. Each kind of remap is one [`RemapStages`] producer that hands
//! a rank its stages one by one, borrowed, with no schedule built: a
//! [`Redistribution`] here, and the transpose plan in the compiler.
//! [`remap`] runs a producer under every access method, and the compiler
//! tallies the same producer to price it.

use dmsim::{Payload, ProcCtx, Tag};
use ooc_trace::Category;
use pario::{IoCharge, IoError, IoMethod, SievePolicy};

use crate::dims::Dims;
use crate::error::OocError;

use crate::layout::FileLayout;
use crate::localize::global_range_to_local;
use crate::ocla::{ArrayDesc, OocEnv};
use crate::section::{offset, Section};
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

/// [`redistribute`] with an explicit I/O access method: [`remap`] over the
/// [`Redistribution`] of `src` into `dst`. All three methods produce
/// byte-identical array contents; they differ only in the request/message
/// schedule over the same stage, which is what the compiler prices.
pub fn redistribute_with(
    ctx: &ProcCtx,
    env: &mut OocEnv,
    src: &ArrayDesc,
    dst: &ArrayDesc,
    method: IoMethod,
    charge: &dyn IoCharge,
) -> Result<(), OocError> {
    remap(ctx, env, &Redistribution::new(src, dst), method, charge).map(|_| ())
}

/// One stage of a remap on one rank, in this rank's local index spaces,
/// borrowed from its [`RemapStages`] producer: the rank reads source
/// sections, sends every piece of them to the rank owning its destination,
/// and receives at most one piece from each peer.
#[derive(Debug, Clone, Copy)]
pub struct RemapStage<'a> {
    /// The source section the stage's reads tile, which two-phase reads in
    /// one request; `None` when the rank reads nothing.
    pub union: Option<&'a Section>,
    /// Each source section read, with how many of the next `sends` are
    /// pieces of it.
    pub reads: &'a [(Section, usize)],
    /// Every piece sent, grouped by read: destination rank and the piece's
    /// source section.
    pub sends: &'a [(usize, Section)],
    /// Per source rank: the destination section its piece fills.
    pub recv: &'a [Option<Section>],
}

/// One remap — a redistribution or a transpose — as the stages each rank
/// runs. [`remap`] runs the stream under every access method and the
/// compiler tallies the same stream, so both see the same requests and
/// messages.
pub trait RemapStages {
    /// The array read.
    fn src(&self) -> &ArrayDesc;

    /// The array written.
    fn dst(&self) -> &ArrayDesc;

    /// Payloads are transposed: a piece's source section, read in row-major
    /// order, is its destination piece in column-major order. A transpose
    /// also traces each stage as a slab span.
    fn transposes(&self) -> bool;

    /// `rank`'s stages in order, each handed to `f`; the walk stops at the
    /// first error `f` returns. Every rank runs as many stages.
    fn for_each_stage<E>(
        &self,
        rank: usize,
        f: impl FnMut(RemapStage<'_>) -> Result<(), E>,
    ) -> Result<(), E>;
}

/// The redistribution of one array into another of the same global shape
/// over the same processors: one stage in which each rank sends every peer
/// the intersection of its owned source section and the peer's owned
/// destination section, one read per piece. The destination distribution
/// partitions the global array, so the pieces tile the local source, which
/// two-phase reads whole.
#[derive(Debug, Clone, Copy)]
pub struct Redistribution<'a> {
    src: &'a ArrayDesc,
    dst: &'a ArrayDesc,
}

impl<'a> Redistribution<'a> {
    /// The redistribution of `src` into `dst`. Panics when their global
    /// shapes or processor counts differ.
    pub fn new(src: &'a ArrayDesc, dst: &'a ArrayDesc) -> Self {
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
        Redistribution { src, dst }
    }
}

impl RemapStages for Redistribution<'_> {
    fn src(&self) -> &ArrayDesc {
        self.src
    }

    fn dst(&self) -> &ArrayDesc {
        self.dst
    }

    fn transposes(&self) -> bool {
        false
    }

    fn for_each_stage<E>(
        &self,
        rank: usize,
        mut f: impl FnMut(RemapStage<'_>) -> Result<(), E>,
    ) -> Result<(), E> {
        let p = self.src.dist.nprocs();
        let (mut reads, mut sends, mut recv) = (
            Vec::with_capacity(p),
            Vec::with_capacity(p),
            Vec::with_capacity(p),
        );
        for j in 0..p {
            if let Some(piece) = overlap(self.src, self.dst, rank, j) {
                reads.push((piece.clone(), 1));
                sends.push((j, piece));
            }
            recv.push(overlap(self.dst, self.src, rank, j));
        }
        let union = (!sends.is_empty()).then(|| Section::full(&self.src.local_shape(rank)));
        f(RemapStage {
            union: union.as_ref(),
            reads: &reads,
            sends: &sends,
            recv: &recv,
        })
    }
}

/// What `rank` owns of `desc` intersected with what rank `j` owns of
/// `other`, in `rank`'s local index space of `desc`; `None` when they share
/// nothing.
fn overlap(desc: &ArrayDesc, other: &ArrayDesc, rank: usize, j: usize) -> Option<Section> {
    let owned = |desc: &ArrayDesc, r: usize, d: usize| {
        let coord = desc.dist.dim_coord(d, r);
        let range = desc.dist.owned_range(d, coord);
        (coord, range.expect("regular distribution required"))
    };
    (0..desc.dist.global().ndims())
        .map(|d| {
            let ((coord, mine), (_, theirs)) = (owned(desc, rank, d), owned(other, j, d));
            let global = mine.intersect(&theirs)?;
            Some(global_range_to_local(&desc.dist, d, coord, global).expect("owns the overlap"))
        })
        .collect()
}

/// Run `stages`, this rank's side of a remap, under `method`. Collective.
/// Returns the peak in-core elements.
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
    stages: &impl RemapStages,
    method: IoMethod,
    charge: &dyn IoCharge,
) -> Result<usize, OocError> {
    let (src, dst, transpose) = (stages.src(), stages.dst(), stages.transposes());
    let _m = ctx.trace_io_method(method.label());
    let _span = (!transpose).then(|| ctx.trace_span(Category::Redist, "redistribute"));
    let (me, two_phase, policy) = (
        ctx.rank(),
        method == IoMethod::TwoPhase,
        method.sieve_policy(),
    );
    let dst_shape = dst.local_shape(me);
    let strides = dst_shape.strides();
    let mut assembled = vec![0.0f32; if two_phase { dst_shape.len() } else { 0 }];
    let mut peak = assembled.len();
    let mut s = 0;
    stages.for_each_stage(me, |stage| {
        let _stage = transpose.then(|| ctx.trace_slab_span("stage", s));
        s += 1;
        if two_phase {
            let mut payloads = vec![Vec::new(); ctx.nprocs()];
            if let Some(union) = stage.union {
                let data = env.read_section(src, union, charge)?;
                peak = peak.max(assembled.len() + data.len());
                for (j, piece) in stage.sends {
                    payloads[*j] = carve(&data, union, piece, transpose);
                }
            }
            let received = {
                let _x = ctx.trace_span(Category::Exchange, "exchange");
                ctx.try_alltoallv::<f32>(payloads)?
            };
            for (piece, sec) in received.iter().zip(stage.recv) {
                if piece.is_empty() {
                    continue;
                }
                let sec = sec.as_ref().expect("non-empty payload implies a piece");
                assert_eq!(piece.len(), sec.len(), "remap payload size");
                scatter(&mut assembled, &strides, sec, piece);
            }
        } else {
            let mut sends = stage.sends.iter();
            for (read, count) in stage.reads {
                let mut data = Vec::new();
                env.read_section_into(src, read, &mut data, charge, policy)?;
                peak = peak.max(data.len());
                for (j, piece) in sends.by_ref().take(*count) {
                    let payload = carve(&data, read, piece, transpose);
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
        Ok::<_, OocError>(())
    })?;
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
    use crate::section::{DimRange, Section};
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
