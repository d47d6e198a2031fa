//! The remap stage producers against their definition: on every rank, the
//! stages a [`Redistribution`] or a [`TransposePlan`] hands out move every
//! global element exactly once, to the rank that owns its image, and the
//! piece a rank sends in a stage is, element for element, the piece its
//! peer expects from it in that stage. Both the executor
//! (`ooc_array::remap`) and the compiler's tally run these streams, so a
//! fault here is a wrong result and a wrong price at once.

use std::collections::HashMap;
use std::convert::Infallible;

use ooc_array::{
    local_to_global, ArrayDesc, ArrayId, DimDist, DistKind, Distribution, FileLayout, ProcGrid,
    Redistribution, RemapStages, Section, Shape,
};
use ooc_core::plan::TransposePlan;
use pario::{ElemKind, IoMethod};
use proptest::bool::ANY as BOOL;
use proptest::collection::vec;
use proptest::prelude::*;

/// One stage, owned.
struct Stage {
    union: Option<Section>,
    reads: Vec<(Section, usize)>,
    sends: Vec<(usize, Section)>,
    recv: Vec<Option<Section>>,
}

fn stages_of(remap: &impl RemapStages, rank: usize) -> Vec<Stage> {
    let mut stages = Vec::new();
    let walked = remap.for_each_stage(rank, |s| {
        stages.push(Stage {
            union: s.union.cloned(),
            reads: s.reads.to_vec(),
            sends: s.sends.to_vec(),
            recv: s.recv.to_vec(),
        });
        Ok::<_, Infallible>(())
    });
    let Ok(()) = walked;
    stages
}

/// Marks each element of `part` in `cover`, a column-major buffer over
/// `whole`'s index space; false when an element falls outside `whole`.
fn mark(cover: &mut [u32], whole: &Section, part: &Section) -> bool {
    let strides = whole.shape().strides();
    for idx in part.indices() {
        if !whole.contains(&idx) {
            return false;
        }
        let off: usize = (idx.iter().zip(whole.ranges()).zip(&strides))
            .map(|((i, r), s)| (i - r.lo) / r.step * s)
            .sum();
        cover[off] += 1;
    }
    true
}

/// `parts` cover `whole` exactly once.
fn tiles<'a>(whole: &Section, parts: impl IntoIterator<Item = &'a Section>) -> bool {
    let mut cover = vec![0u32; whole.len()];
    let inside = parts.into_iter().all(|p| mark(&mut cover, whole, p));
    inside && cover.iter().all(|&c| c == 1)
}

/// The global indices of `sec`, a section of `rank`'s local array of
/// `desc`, in column-major order, or in row-major order when `rows_first`.
fn globals(desc: &ArrayDesc, rank: usize, sec: &Section, rows_first: bool) -> Vec<Vec<usize>> {
    let mut local: Vec<Vec<usize>> = sec.indices().collect();
    if rows_first {
        local.sort();
    }
    (local.iter())
        .map(|idx| local_to_global(&desc.dist, rank, idx))
        .collect()
}

/// Every check of one remap over all of its ranks; `Err` names the first
/// that fails.
fn check_stream(remap: &impl RemapStages) -> Result<(), String> {
    let (src, dst, transposes) = (remap.src(), remap.dst(), remap.transposes());
    let p = src.dist.nprocs();
    let streams: Vec<Vec<Stage>> = (0..p).map(|r| stages_of(remap, r)).collect();
    let count = streams[0].len();
    if let Some(r) = (0..p).find(|&r| streams[r].len() != count) {
        return Err(format!(
            "rank {r} runs {} stages, rank 0 {count}",
            streams[r].len()
        ));
    }
    let image = |g: Vec<usize>| {
        if transposes {
            g.into_iter().rev().collect()
        } else {
            g
        }
    };
    let mut sent: HashMap<Vec<usize>, u32> = HashMap::new();
    for (rank, stream) in streams.iter().enumerate() {
        let local = Section::full(&src.local_shape(rank));
        let mut received = vec![0u32; dst.local_shape(rank).len()];
        let dst_whole = Section::full(&dst.local_shape(rank));
        for (s, stage) in stream.iter().enumerate() {
            let at = format!("rank {rank} stage {s}");
            // The reads tile the union, which lies in the local source, and
            // the pieces cut from each read tile that read.
            if let Some(union) = &stage.union {
                if !tiles(union, stage.reads.iter().map(|(r, _)| r)) {
                    return Err(format!("{at}: the reads do not tile the union"));
                }
                if !mark(&mut vec![0; local.len()], &local, union) {
                    return Err(format!("{at}: the union leaves the local source"));
                }
            } else if !stage.reads.is_empty() {
                return Err(format!("{at}: reads without a union"));
            }
            if stage.reads.iter().map(|(_, n)| n).sum::<usize>() != stage.sends.len() {
                return Err(format!("{at}: the read counts miss the sends"));
            }
            let mut sends = stage.sends.iter();
            for (read, n) in &stage.reads {
                let pieces: Vec<&Section> = sends.by_ref().take(*n).map(|(_, s)| s).collect();
                if !tiles(read, pieces) {
                    return Err(format!("{at}: the pieces do not tile their read"));
                }
            }
            // Each piece moves its elements once, to their image's owner,
            // and is what the receiver expects from this rank in this
            // stage, element for element.
            for (j, piece) in &stage.sends {
                let moved = globals(src, rank, piece, transposes);
                for g in &moved {
                    *sent.entry(g.clone()).or_default() += 1;
                    if dst.dist.owner(&image(g.clone())) != *j {
                        return Err(format!("{at}: {g:?} sent to {j}, not its owner"));
                    }
                }
                let Some(expected) = &streams[*j][s].recv[rank] else {
                    return Err(format!("{at}: rank {j} expects nothing"));
                };
                let arrive = globals(dst, *j, expected, false);
                if moved.into_iter().map(image).ne(arrive) {
                    return Err(format!(
                        "{at}: the piece for rank {j} is not what it expects"
                    ));
                }
            }
            for (q, sec) in stage.recv.iter().enumerate() {
                let Some(sec) = sec else { continue };
                if !streams[q][s].sends.iter().any(|(j, _)| *j == rank) {
                    return Err(format!("{at}: expects a piece rank {q} does not send"));
                }
                if !mark(&mut received, &dst_whole, sec) {
                    return Err(format!("{at}: a receive leaves the local destination"));
                }
            }
        }
        if received.iter().any(|&c| c != 1) {
            return Err(format!(
                "rank {rank}: the receives do not tile the destination"
            ));
        }
    }
    let elems = src.dist.global().len();
    if sent.len() != elems || sent.values().any(|&c| c != 1) {
        return Err(format!(
            "{} of {elems} elements sent, not each once",
            sent.len()
        ));
    }
    Ok(())
}

/// A small deterministic draw from `seed`.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

/// A distribution of `shape` over `p` ranks: a grid of one axis per
/// distributed dimension whose extents multiply to `p`, each distributed
/// dimension block or cyclic (block only when `block_only`), the others
/// collapsed.
fn distribution(shape: &Shape, p: usize, block_only: bool, draw: &mut Draw) -> Distribution {
    let ndims = shape.ndims();
    // Split `p` into up to `ndims` factors.
    let naxes = 1 + draw.below(ndims);
    let mut extents = vec![1; naxes];
    let mut left = p;
    for e in extents.iter_mut().take(naxes - 1) {
        let divisors: Vec<usize> = (1..=left).filter(|&d| left.is_multiple_of(d)).collect();
        *e = divisors[draw.below(divisors.len())];
        left /= *e;
    }
    extents[naxes - 1] = left;
    // Map the axes to distinct dimensions.
    let mut order: Vec<usize> = (0..ndims).collect();
    for i in (1..ndims).rev() {
        order.swap(i, draw.below(i + 1));
    }
    let mut dims = vec![DimDist::Collapsed; ndims];
    for (axis, &d) in order.iter().take(naxes).enumerate() {
        let kind = if block_only || draw.below(2) == 0 {
            DistKind::Block
        } else {
            DistKind::Cyclic
        };
        dims[d] = DimDist::Distributed { kind, axis };
    }
    Distribution::new(shape.clone(), dims, ProcGrid::new(extents))
}

fn desc(id: u32, dist: Distribution, row_major: bool) -> ArrayDesc {
    let ndims = dist.global().ndims();
    let layout = if row_major {
        FileLayout::row_major(ndims)
    } else {
        FileLayout::column_major(ndims)
    };
    ArrayDesc::new(ArrayId(id), format!("a{id}"), ElemKind::F32, dist).with_layout(layout)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_redistribution_moves_each_element_once_to_its_owner(
        extents in vec(1usize..8, 1..4),
        p in 1usize..7,
        seed in 0u64..u64::MAX,
        src_row_major in BOOL,
        dst_row_major in BOOL,
    ) {
        let shape = Shape::new(&extents);
        let mut draw = Draw(seed);
        let src = desc(0, distribution(&shape, p, false, &mut draw), src_row_major);
        let dst = desc(1, distribution(&shape, p, false, &mut draw), dst_row_major);
        let checked = check_stream(&Redistribution::new(&src, &dst));
        prop_assert!(checked.is_ok(), "{:?} -> {:?}: {:?}", src.dist, dst.dist, checked);
    }

    #[test]
    fn every_transpose_stage_tiles_its_slab_and_the_receives_tile_the_destination(
        m in 1usize..10,
        n in 1usize..10,
        p in 1usize..7,
        seed in 0u64..u64::MAX,
        row_major in BOOL,
        thickness in 1usize..6,
    ) {
        let mut draw = Draw(seed);
        let src = distribution(&Shape::matrix(m, n), p, true, &mut draw);
        let dst = distribution(&Shape::matrix(n, m), p, true, &mut draw);
        let plan = TransposePlan {
            src: desc(0, src, row_major),
            dst: desc(1, dst, false),
            slab_thickness: thickness,
            method: IoMethod::Direct,
        };
        let checked = check_stream(&plan);
        prop_assert!(checked.is_ok(), "{:?} -> {:?}: {:?}", plan.src.dist, plan.dst.dist, checked);
    }
}

#[test]
fn ranks_that_own_nothing_send_and_receive_nothing() {
    // 64 over 48 ranks in blocks of 2: ranks 32..47 own nothing.
    let (n, p) = (64, 48);
    let shape = Shape::matrix(n, n);
    let (rows, cols) = (
        Distribution::row_block(shape.clone(), p),
        Distribution::column_block(shape, p),
    );
    let plan = TransposePlan {
        src: desc(0, rows.clone(), false),
        dst: desc(1, cols.clone(), false),
        slab_thickness: 8,
        method: IoMethod::Direct,
    };
    check_stream(&plan).unwrap();
    let (src, dst) = (desc(0, cols, false), desc(1, rows, true));
    let redistribution = Redistribution::new(&src, &dst);
    check_stream(&redistribution).unwrap();
    // Such a rank may still walk its empty slabs, but reads, sends and
    // receives nothing.
    let empty = |stages: Vec<Stage>| {
        stages.iter().all(|s| {
            s.union.as_ref().is_none_or(Section::is_empty)
                && s.sends.is_empty()
                && s.recv.iter().all(Option::is_none)
        })
    };
    for rank in 32..p {
        assert!(empty(stages_of(&plan, rank)), "transpose rank {rank}");
        assert!(
            empty(stages_of(&redistribution, rank)),
            "redistribution rank {rank}"
        );
    }
}
