//! Property tests: request coalescing invariants.
//!
//! `coalesce_runs` is the arithmetic every charged request count passes
//! through, so it must be total and canonical: never panic (even on
//! adversarial struct-literal runs whose `offset + len` exceeds `u64`),
//! produce the same answer regardless of input order, and be idempotent —
//! coalescing an already-coalesced list changes nothing.

use proptest::prelude::*;

use pario::{coalesce_runs, plan_union, total_bytes, ByteRun};

/// Arbitrary runs including adversarial near-`u64::MAX` extents that only
/// struct-literal construction can produce.
fn arb_run() -> impl Strategy<Value = ByteRun> {
    prop_oneof![
        // Ordinary small runs (dense, so merges actually happen).
        (0u64..256, 0u64..32).prop_map(|(offset, len)| ByteRun { offset, len }),
        // Runs hugging the top of the address space, lengths that overflow.
        (0u64..65, 0u64..200).prop_map(|(d, len)| ByteRun {
            offset: u64::MAX - d,
            len,
        }),
    ]
}

/// Deterministic order-shuffle driven by a seed (no RNG in the shim needed:
/// rotating and reversing reaches enough distinct permutations).
fn permute(runs: &[ByteRun], seed: u64) -> Vec<ByteRun> {
    let mut v = runs.to_vec();
    if v.is_empty() {
        return v;
    }
    let rot = (seed as usize) % v.len();
    v.rotate_left(rot);
    if seed % 2 == 1 {
        v.reverse();
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coalescing_is_total_canonical_and_idempotent(
        runs in proptest::collection::vec(arb_run(), 0..24),
        seed in 0u64..16,
    ) {
        // Never panics, whatever the input (including overflow literals).
        let once = coalesce_runs(&runs);

        // Output is canonical: sorted, non-empty runs, no two touching.
        for w in once.windows(2) {
            prop_assert!(w[0].end() < w[1].offset, "touching runs survived: {once:?}");
        }
        prop_assert!(once.iter().all(|r| r.len > 0));

        // Idempotent: coalescing a coalesced list is the identity.
        prop_assert_eq!(&coalesce_runs(&once), &once);

        // Order-insensitive: any permutation of the input coalesces the same.
        prop_assert_eq!(&coalesce_runs(&permute(&runs, seed)), &once);

        // Coverage never grows: merged extents are bounded by the input sum.
        prop_assert!(total_bytes(&once) <= total_bytes(&runs));
    }

    /// Repeated-index request streams (the shape irregular gathers emit):
    /// the union plan charges each file byte once however often pieces
    /// repeat it, and every carve replays its piece's elements exactly.
    #[test]
    fn union_plans_never_double_charge_repeated_index_streams(
        base in proptest::collection::vec((0u64..64, 1u64..8), 1..16),
        npieces in 1usize..4,
        seed in 0u64..16,
    ) {
        // Build pieces that heavily share and repeat runs.
        let runs: Vec<ByteRun> = base
            .iter()
            .map(|&(o, l)| ByteRun { offset: o * 4, len: l * 4 })
            .collect();
        let pieces: Vec<Vec<ByteRun>> = (0..npieces)
            .map(|i| {
                let mut p = permute(&runs, seed + i as u64);
                // Duplicate a run inside the piece: a repeated index.
                p.push(p[i % p.len()]);
                p
            })
            .collect();
        let plan = plan_union(&pieces);

        // Union bytes equal the coalesced coverage of everything requested —
        // duplicates across or within pieces charge nothing extra.
        let all: Vec<ByteRun> = pieces.iter().flatten().copied().collect();
        prop_assert_eq!(plan.bytes(), total_bytes(&coalesce_runs(&all)));
        prop_assert_eq!(plan.requests(), coalesce_runs(&all).len() as u64);

        // Each carve reproduces its piece element for element from a union
        // buffer whose contents encode absolute file offsets.
        let offsets = |r: &ByteRun| (r.offset..r.end()).step_by(4).map(|o| o as f32);
        let buf: Vec<f32> = coalesce_runs(&all).iter().flat_map(offsets).collect();
        for (i, piece) in pieces.iter().enumerate() {
            let want: Vec<f32> = piece.iter().flat_map(offsets).collect();
            prop_assert_eq!(&plan.carve(i, &buf), &want, "piece {} carve mismatch", i);
        }
    }
}
