//! I/O access methods and the file-conforming union planner behind the
//! two-phase collective path.
//!
//! The paper's reorganizations shrink each processor's *own* request count;
//! two-phase collective I/O (PASSION / del Rosario-Bordawekar-Choudhary)
//! shrinks the *cooperative* count: every rank services the file-conforming
//! union of all outgoing pieces with a few coalesced requests, then ships
//! each piece to its computation-conforming owner over the interconnect.
//! [`UnionPlan`] is the in-memory half of that: where each piece's bytes
//! live inside the union buffer, so carving is pure memory movement.

use serde::{Deserialize, Serialize};

use crate::request::{coalesce_runs, ByteRun};
use crate::sieve::SievePolicy;

/// How an array-section access is serviced against the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum IoMethod {
    /// One request per contiguous run of the section (the baseline).
    #[default]
    Direct,
    /// Data sieving: one spanning request per access, discarding the
    /// unwanted bytes in memory (trades bandwidth for request count).
    Sieved,
    /// Two-phase collective: coalesced file-conforming reads/writes plus an
    /// all-to-all exchange to the computation-conforming decomposition.
    TwoPhase,
}

impl IoMethod {
    /// Human-readable name used in reports, traces and bench tables.
    pub fn label(self) -> &'static str {
        match self {
            IoMethod::Direct => "direct",
            IoMethod::Sieved => "sieved",
            IoMethod::TwoPhase => "two-phase",
        }
    }

    /// All methods, in comparison-table order.
    pub const ALL: [IoMethod; 3] = [IoMethod::Direct, IoMethod::Sieved, IoMethod::TwoPhase];

    /// The sieve policy the method's piece accesses run under: only
    /// `Sieved` sieves (a two-phase union is already file-conforming).
    pub fn sieve_policy(self) -> SievePolicy {
        match self {
            IoMethod::Sieved => SievePolicy::Always,
            IoMethod::Direct | IoMethod::TwoPhase => SievePolicy::Direct,
        }
    }
}

/// The file-conforming service plan for a set of piece accesses: the
/// coalesced union of every piece's byte runs, plus each piece's location
/// inside the union buffer (union runs concatenated in offset order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnionPlan {
    /// Coalesced runs covering every piece — what the disk services.
    pub union: Vec<ByteRun>,
    /// Per input piece, `(buffer_position, len)` segments in the piece's
    /// own run order; concatenating the segments reproduces the piece.
    pub carves: Vec<Vec<(usize, usize)>>,
}

impl UnionPlan {
    /// Requests the union read/write issues.
    pub fn requests(&self) -> u64 {
        self.union.len() as u64
    }

    /// Bytes the union read/write moves.
    pub fn bytes(&self) -> u64 {
        self.union.iter().map(|r| r.len).sum()
    }

    /// Size of the union buffer in bytes (same as [`Self::bytes`], as usize).
    pub fn buffer_len(&self) -> usize {
        self.bytes() as usize
    }

    /// Copy piece `i` out of the union read as `f32`s (the
    /// [`crate::LogicalDisk::read`] of [`Self::union`]); the pieces' runs
    /// must hold whole elements.
    pub fn carve(&self, i: usize, union: &[f32]) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.carves[i].iter().map(|&(_, l)| l / 4).sum());
        for &(pos, len) in &self.carves[i] {
            out.extend_from_slice(&union[pos / 4..(pos + len) / 4]);
        }
        out
    }
}

/// Build the union plan for a set of pieces, each a list of byte runs.
///
/// Duplicate and overlapping runs — the natural shape of an irregular
/// gather's request stream, where the same index appears many times — are
/// coalesced into the union exactly once, so [`UnionPlan::bytes`] never
/// double-charges a file byte no matter how often the pieces repeat it.
/// Each piece's carve still replays its runs in their own order (duplicates
/// included), so carving a repeated-index stream reproduces every repeat.
/// Runs that would overflow `u64` are clamped to the addressable extent,
/// mirroring [`coalesce_runs`], so the carves always index inside the union.
pub fn plan_union(pieces: &[Vec<ByteRun>]) -> UnionPlan {
    let all: Vec<ByteRun> = pieces.iter().flatten().copied().collect();
    let union = coalesce_runs(&all);
    // Prefix positions of each union run inside the concatenated buffer.
    let mut prefix = Vec::with_capacity(union.len());
    let mut acc = 0usize;
    for r in &union {
        prefix.push(acc);
        acc += r.len as usize;
    }
    let position = |offset: u64| -> usize {
        // The union covers every input byte, so the containing run exists.
        let i = union.partition_point(|r| r.end() <= offset);
        debug_assert!(i < union.len() && union[i].offset <= offset);
        prefix[i] + (offset - union[i].offset) as usize
    };
    let carves = pieces
        .iter()
        .map(|runs| {
            let mut segs: Vec<(usize, usize)> = Vec::new();
            for r in runs {
                // Same clamp as coalesce_runs applied to the union, so a
                // clamped run cannot address past the union buffer.
                let len = r.len.min(u64::MAX - r.offset) as usize;
                if r.len == 0 || len == 0 {
                    continue;
                }
                let pos = position(r.offset);
                match segs.last_mut() {
                    // Runs that land back-to-back in the union buffer (e.g.
                    // a gather of consecutive indices split into unit runs)
                    // carve identically as one segment — merge them so the
                    // carve is one memcpy instead of thousands.
                    Some((p, l)) if *p + *l == pos => *l += len,
                    _ => segs.push((pos, len)),
                }
            }
            segs
        })
        .collect();
    UnionPlan { union, carves }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A union buffer whose every element is its own file byte offset.
    fn offsets(plan: &UnionPlan) -> Vec<f32> {
        plan.union
            .iter()
            .flat_map(|r| (r.offset..r.end()).step_by(4).map(|o| o as f32))
            .collect()
    }

    #[test]
    fn method_labels_are_stable() {
        assert_eq!(
            IoMethod::ALL.map(IoMethod::label),
            ["direct", "sieved", "two-phase"]
        );
        assert_eq!(IoMethod::default(), IoMethod::Direct);
    }

    #[test]
    fn union_of_strided_pieces_is_contiguous() {
        // Two interleaved strided pieces whose union is one extent — the
        // row-block/row-major redistribution picture.
        let a = vec![ByteRun::new(0, 8), ByteRun::new(16, 8)];
        let b = vec![ByteRun::new(8, 8), ByteRun::new(24, 8)];
        let plan = plan_union(&[a, b]);
        assert_eq!(plan.union, vec![ByteRun::new(0, 32)]);
        assert_eq!(plan.requests(), 1);
        assert_eq!(plan.bytes(), 32);
        let buf = offsets(&plan);
        assert_eq!(plan.carve(0, &buf), vec![0.0, 4.0, 16.0, 20.0]);
        assert_eq!(plan.carve(1, &buf), vec![8.0, 12.0, 24.0, 28.0]);
    }

    #[test]
    fn disjoint_pieces_keep_separate_requests() {
        let plan = plan_union(&[vec![ByteRun::new(0, 4)], vec![ByteRun::new(100, 4)]]);
        assert_eq!(plan.requests(), 2);
        assert_eq!(plan.carves[1], vec![(4, 4)]);
        assert_eq!(plan.carve(1, &offsets(&plan)), vec![100.0]);
    }

    #[test]
    fn repeated_indices_within_a_piece_are_not_double_charged() {
        // A gather of indices [0, 0, 2]: element 0 requested twice. The
        // union must charge its bytes once; the carve must replay it twice.
        let piece = vec![ByteRun::new(0, 4), ByteRun::new(0, 4), ByteRun::new(8, 4)];
        let plan = plan_union(&[piece]);
        assert_eq!(plan.union, vec![ByteRun::new(0, 4), ByteRun::new(8, 4)]);
        assert_eq!(plan.bytes(), 8, "duplicate offsets double-charged");
        assert_eq!(plan.carve(0, &[1.0, 2.0]), vec![1.0, 1.0, 2.0]);
    }

    #[test]
    fn repeated_indices_across_pieces_share_one_union_run() {
        // Two ranks both gather element 0 — one disk read serves both.
        let plan = plan_union(&[vec![ByteRun::new(0, 4)], vec![ByteRun::new(0, 4)]]);
        assert_eq!(plan.requests(), 1);
        assert_eq!(plan.bytes(), 4);
        let buf = [9.0];
        assert_eq!(plan.carve(0, &buf), plan.carve(1, &buf));
    }

    #[test]
    fn overlapping_runs_coalesce_and_carve_correctly() {
        let plan = plan_union(&[vec![ByteRun::new(0, 12), ByteRun::new(8, 16)]]);
        assert_eq!(plan.union, vec![ByteRun::new(0, 24)]);
        assert_eq!(plan.bytes(), 24);
        assert_eq!(
            plan.carve(0, &offsets(&plan)),
            vec![0.0, 4.0, 8.0, 8.0, 12.0, 16.0, 20.0]
        );
    }

    #[test]
    fn consecutive_index_runs_merge_into_one_carve_segment() {
        // A unit-run-per-element gather of consecutive indices: the carve
        // collapses to a single segment (one memcpy), value-identically.
        let piece: Vec<ByteRun> = (0..64).map(|i| ByteRun::new(i * 4, 4)).collect();
        let plan = plan_union(&[piece]);
        assert_eq!(plan.union, vec![ByteRun::new(0, 256)]);
        assert_eq!(plan.carves[0], vec![(0, 256)]);
        let buf = offsets(&plan);
        assert_eq!(plan.carve(0, &buf), buf);
    }

    #[test]
    fn overflowing_runs_are_clamped_like_coalesce_runs_not_panicked() {
        let piece = vec![ByteRun {
            offset: u64::MAX - 4,
            len: 100,
        }];
        let plan = plan_union(&[piece]);
        assert_eq!(plan.union, vec![ByteRun::new(u64::MAX - 4, 4)]);
        assert_eq!(plan.carves[0], vec![(0, 4)]);
        let plan = plan_union(&[vec![ByteRun {
            offset: u64::MAX,
            len: 7,
        }]]);
        assert!(plan.union.is_empty());
        assert!(plan.carves[0].is_empty());
    }
}
