//! The inspector against the inspector it replaced.
//!
//! [`reference_bins`] is `irreg::inspect`'s binning as first written: an
//! owner and a local-index division per entry, a comparison sort and a
//! dedup per owner, and a binary search per entry for its output slot.
//! Every schedule [`inspect`] builds must equal the reference bit for bit
//! (want and serve lists, serve runs, output slots, content hash and the
//! serialised bytes) on the adversarial index sets an inspector must
//! survive (Rolinger et al., PAPERS.md), and a bad entry must fail with
//! the same text.

use dmsim::{Machine, MachineConfig};
use ooc_array::{
    inspect, ArrayDesc, ArrayId, DimDist, DistKind, Distribution, IrregSchedule, OocEnv, OocError,
    ProcGrid, ScheduleStamp, Shape,
};
use ooc_trace::digest::{fnv1a, Fnv1a};
use pario::{coalesce_runs, ByteRun, ElemKind, NoCharge};

fn line(n: usize, kind: DistKind, p: usize) -> Distribution {
    Distribution::new(
        Shape::new(vec![n]),
        vec![DimDist::Distributed { kind, axis: 0 }],
        ProcGrid::line(p),
    )
}

/// Data array `x` of `n` elements distributed by `kind`, and a
/// block-distributed indirection array `idx` of `nidx` entries, both over
/// `p` ranks.
fn descs(n: usize, kind: DistKind, nidx: usize, p: usize) -> (ArrayDesc, ArrayDesc) {
    (
        ArrayDesc::new(ArrayId(0), "x", ElemKind::F32, line(n, kind, p)),
        ArrayDesc::new(
            ArrayId(1),
            "idx",
            ElemKind::F32,
            line(nidx, DistKind::Block, p),
        ),
    )
}

/// `rank`'s local indirection entries, in local order.
fn local_entries(index: &ArrayDesc, rank: usize, global: &[f32]) -> Vec<f32> {
    index.dist.global_index_tables(rank)[0]
        .iter()
        .map(|&g| global[g])
        .collect()
}

/// One rank's per-owner want lists and per-entry output slots.
type Bins = (Vec<Vec<u64>>, Vec<(u32, u32)>);

/// The first inspector's binning of one rank's entries.
fn reference_bins(
    data: &ArrayDesc,
    index: &ArrayDesc,
    me: usize,
    vals: &[f32],
) -> Result<Bins, OocError> {
    let p = data.dist.nprocs();
    let n = data.global_shape().extent(0);
    let mut want: Vec<Vec<u64>> = vec![Vec::new(); p];
    let mut targets = Vec::with_capacity(vals.len());
    for (i, &v) in vals.iter().enumerate() {
        if !(v >= 0.0 && v.fract() == 0.0 && (v as usize) < n) {
            return Err(OocError::Data {
                array: index.name.clone(),
                reason: format!(
                    "local entry {i} on rank {me} = {v} is not an index into `{}` (0..{n})",
                    data.name
                ),
            });
        }
        let g = v as usize;
        let owner = data.dist.owner(&[g]);
        let local = data.dist.local_index(0, g) as u64;
        targets.push((owner as u32, local));
        want[owner].push(local);
    }
    for w in &mut want {
        w.sort_unstable();
        w.dedup();
    }
    let out_slot = targets
        .iter()
        .map(|&(owner, off)| {
            let slot = want[owner as usize]
                .binary_search(&off)
                .expect("dedup kept every wanted offset");
            (owner, slot as u32)
        })
        .collect();
    Ok((want, out_slot))
}

/// Every rank's reference outcome: its schedule, the text of its own data
/// error, or `None` when only a peer failed (the rank then loses that peer
/// in the exchange).
fn reference_schedules(
    data: &ArrayDesc,
    index: &ArrayDesc,
    global: &[f32],
) -> Vec<Option<Result<IrregSchedule, String>>> {
    let p = data.dist.nprocs();
    let es = data.elem.size() as u64;
    let bins: Vec<Result<Bins, OocError>> = (0..p)
        .map(|r| reference_bins(data, index, r, &local_entries(index, r, global)))
        .collect();
    let any_failed = bins.iter().any(Result::is_err);
    (0..p)
        .map(|me| {
            let (want, out_slot) = match &bins[me] {
                Err(e) => return Some(Err(e.to_string())),
                Ok(_) if any_failed => return None,
                Ok(b) => b.clone(),
            };
            let vals = local_entries(index, me, global);
            // The want-list exchange: peer `j` asks `me` for its `want[me]`.
            let serve_elems: Vec<Vec<u64>> = bins
                .iter()
                .map(|b| b.as_ref().expect("no rank failed").0[me].clone())
                .collect();
            let serve_runs = serve_elems
                .iter()
                .map(|elems| {
                    let unit: Vec<ByteRun> = elems
                        .iter()
                        .map(|&off| ByteRun::new(off * es, es))
                        .collect();
                    coalesce_runs(&unit)
                })
                .collect();
            let index_hash = vals
                .iter()
                .fold(Fnv1a::new(), |h, v| h.bytes(&(*v as u64).to_le_bytes()))
                .finish();
            Some(Ok(IrregSchedule {
                stamp: ScheduleStamp {
                    data: data.clone(),
                    index: index.clone(),
                    rank: me,
                    nprocs: p,
                    index_hash,
                },
                nout: vals.len(),
                out_slot,
                want,
                serve_elems,
                serve_runs,
            }))
        })
        .collect()
}

/// Every rank's [`inspect`] of `global` loaded into `index`.
fn inspected(
    data: &ArrayDesc,
    index: &ArrayDesc,
    global: &[f32],
) -> Vec<Result<IrregSchedule, OocError>> {
    let p = data.dist.nprocs();
    Machine::new(MachineConfig::free(p))
        .run_with(|ctx| {
            let mut env = OocEnv::in_memory(ctx.rank());
            env.alloc(index).unwrap();
            env.load_global(index, &|g: &[usize]| global[g[0]]).unwrap();
            inspect(ctx, &mut env, data, index, &NoCharge)
        })
        .1
}

/// Inspect `global` and hold every rank to the reference; returns the
/// schedules of a run no rank refused.
fn check(case: &str, data: &ArrayDesc, index: &ArrayDesc, global: &[f32]) -> Vec<IrregSchedule> {
    let reference = reference_schedules(data, index, global);
    let got = inspected(data, index, global);
    let mut scheds = Vec::new();
    for (rank, (want, got)) in reference.into_iter().zip(got).enumerate() {
        match (want, got) {
            (Some(Ok(w)), Ok(g)) => {
                assert_eq!(g.want, w.want, "{case}: rank {rank} want");
                assert_eq!(
                    g.serve_elems, w.serve_elems,
                    "{case}: rank {rank} serve_elems"
                );
                assert_eq!(g.serve_runs, w.serve_runs, "{case}: rank {rank} serve_runs");
                assert_eq!(g.out_slot, w.out_slot, "{case}: rank {rank} out_slot");
                assert_eq!(
                    g.stamp.index_hash, w.stamp.index_hash,
                    "{case}: rank {rank} index_hash"
                );
                assert!(g.to_bytes() == w.to_bytes(), "{case}: rank {rank} to_bytes");
                assert_eq!(g, w, "{case}: rank {rank}");
                scheds.push(g);
            }
            (Some(Err(w)), Err(g)) => assert_eq!(g.to_string(), w, "{case}: rank {rank}"),
            (None, Err(OocError::Comm(_))) => {}
            (w, g) => panic!("{case}: rank {rank}: expected {w:?}, got {g:?}"),
        }
    }
    scheds
}

/// The splitmix64 step: scattered, deterministic values.
fn mix(k: usize) -> usize {
    let mut z = (k as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) as usize
}

/// The adversarial index sets, each a map from global entry to target.
const PATTERNS: [&str; 5] = [
    "one target",
    "one owner",
    "descending",
    "strided",
    "random with repeats",
];

fn target(pattern: &str, data: &ArrayDesc, k: usize) -> usize {
    let n = data.global_shape().extent(0);
    match pattern {
        "one target" => n - 1,
        "one owner" => data
            .dist
            .global_index(0, 0, (7 * k) % data.dist.local_extent(0, 0)),
        "descending" => n - 1 - k % n,
        "strided" => (3 * k + 1) % n,
        _ => mix(k) % (n / 3 + 1),
    }
}

const KINDS: [DistKind; 3] = [DistKind::Block, DistKind::Cyclic, DistKind::BlockCyclic(3)];

fn values(nidx: usize, target: impl Fn(usize) -> usize) -> Vec<f32> {
    (0..nidx).map(|k| target(k) as f32).collect()
}

#[test]
fn small_and_degenerate_sets_match_the_reference() {
    for (n, nidx, p, shape) in [
        (16, 40, 3, "general"),
        (37, 5, 4, "rank 3 has no entries"),
        (1, 7, 2, "n = 1"),
        (3, 12, 5, "n < p"),
        (200, 1, 2, "one entry"),
    ] {
        for kind in KINDS {
            let (x, idx) = descs(n, kind, nidx, p);
            for pattern in PATTERNS {
                let case = format!("{shape} {kind:?} {pattern}");
                let global = values(nidx, |k| target(pattern, &x, k));
                assert_eq!(check(&case, &x, &idx, &global).len(), p, "{case}");
            }
        }
    }
}

#[test]
fn one_and_two_digit_targets_match_the_reference() {
    // Targets below 2^16 sort in one counting pass, wider ones in two.
    for n in [65_535, 65_536, 65_537, 100_003] {
        for kind in KINDS {
            let (x, idx) = descs(n, kind, 30_000, 3);
            for pattern in ["descending", "strided", "random with repeats"] {
                let case = format!("n={n} {kind:?} {pattern}");
                let global = values(30_000, |k| target(pattern, &x, k));
                assert_eq!(check(&case, &x, &idx, &global).len(), 3, "{case}");
            }
        }
    }
}

#[test]
fn bad_entries_fail_with_the_reference_text() {
    // Rank 1 holds global entries 8..16.
    let (n, nidx, p) = (16, 24, 3);
    for kind in KINDS {
        let (x, idx) = descs(n, kind, nidx, p);
        for bad in [-1.0, f32::NAN, 2.5, n as f32, 1e30] {
            for (place, at) in [
                ("first", &[8][..]),
                ("middle", &[12]),
                ("last", &[15]),
                ("twice", &[10, 13]),
            ] {
                let mut global = values(nidx, |k| target("strided", &x, k));
                for &k in at {
                    global[k] = bad;
                }
                check(&format!("{kind:?} {bad} {place}"), &x, &idx, &global);
            }
        }
        // Negative zero is index 0.
        let mut global = values(nidx, |k| target("strided", &x, k));
        global[3] = -0.0;
        global[9] = -0.0;
        assert_eq!(check(&format!("{kind:?} -0.0"), &x, &idx, &global).len(), p);
    }
}

/// FNV-1a of every rank's serialised schedule.
fn schedule_digests(data: &ArrayDesc, index: &ArrayDesc, global: &[f32]) -> Vec<u64> {
    inspected(data, index, global)
        .into_iter()
        .map(|s| fnv1a(&s.expect("a valid index set").to_bytes()))
        .collect()
}

#[test]
fn serialised_schedules_are_pinned() {
    // The `remap-mix` SpMV set at seed 2026: 2^19 `colidx` entries into
    // an 8192-element `x`, both block-distributed over 8 ranks. The column
    // map's constants are the ledger's first three splitmix64 draws.
    const GAMMA: usize = 0x9e37_79b9_7f4a_7c15;
    let draw =
        |i: usize| mix((2026 ^ 0x5b_usize.wrapping_mul(GAMMA)).wrapping_add(i.wrapping_mul(GAMMA)));
    let (ns, nnz) = (8192, 1 << 19);
    let (ca, cb, cc) = (1 + 2 * (draw(0) % 64), 1 + 2 * (draw(1) % 16), draw(2) % ns);
    assert_eq!((ca, cb, cc), (89, 11, 785));
    let (x, colidx) = descs(ns, DistKind::Block, nnz, 8);
    let global = values(nnz, |k| (k * ca + (k / 3) * cb + cc) % ns);
    // Both digest lists were captured with the inspector this one replaced.
    assert_eq!(
        schedule_digests(&x, &colidx, &global),
        [
            13306938563427200251,
            335972070207380158,
            7713469618653002068,
            14513826303897903680,
            7554003529223183735,
            15627581468486101811,
            7066753984450326013,
            4769875198582436392,
        ]
    );

    let (x, idx) = descs(100_003, DistKind::Block, 30_000, 3);
    let global = values(30_000, |k| target("random with repeats", &x, k));
    assert_eq!(
        schedule_digests(&x, &idx, &global),
        [
            13142595468238276093,
            8674639000842478562,
            6087643092691195002
        ]
    );
}
