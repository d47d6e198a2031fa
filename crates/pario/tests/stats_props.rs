//! Property tests: `DiskStats` invariants under random workloads.
//!
//! Whatever sequence of section reads, buffered writes and flushes runs
//! against a logical disk — cached or not — the counters must stay
//! internally consistent: write-backs are a subset of writes, hit/miss
//! accounting matches the cache mode, and snapshots only ever grow.

use proptest::prelude::*;

use pario::{coalesce_runs, DiskStats, ElemKind, ElemRun, LocalArrayFile, LogicalDisk, NoCharge};

const FILE_ELEMS: u64 = 128;

/// One step of a random workload.
#[derive(Debug, Clone)]
enum Op {
    Read(Vec<ElemRun>),
    Write(Vec<ElemRun>),
    Flush,
}

fn arb_runs() -> impl Strategy<Value = Vec<ElemRun>> {
    proptest::collection::vec((0u64..FILE_ELEMS, 1u64..12), 1..6).prop_map(|raw| {
        let mut runs: Vec<ElemRun> = Vec::new();
        let mut cursor = 0u64;
        for (gap, len) in raw {
            let offset = cursor + gap % 24;
            if offset >= FILE_ELEMS {
                break;
            }
            runs.push(ElemRun::new(offset, len.min(FILE_ELEMS - offset)));
            cursor = offset + runs.last().unwrap().len + 1;
            if cursor >= FILE_ELEMS {
                break;
            }
        }
        if runs.is_empty() {
            runs.push(ElemRun::new(0, 1));
        }
        runs
    })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_runs().prop_map(Op::Read),
        arb_runs().prop_map(Op::Write),
        arb_runs().prop_map(Op::Read),
        arb_runs().prop_map(Op::Write),
        Just(Op::Flush),
    ]
}

/// Monotonicity: every counter of `after` is >= its `before` value.
fn assert_monotone(before: &DiskStats, after: &DiskStats) {
    let d = after.delta(before);
    // delta saturates; recomputing forward must reproduce `after` exactly,
    // which fails if any counter ever decreased.
    let recomposed = DiskStats {
        read_requests: before.read_requests + d.read_requests,
        bytes_read: before.bytes_read + d.bytes_read,
        write_requests: before.write_requests + d.write_requests,
        bytes_written: before.bytes_written + d.bytes_written,
        cache_hits: before.cache_hits + d.cache_hits,
        cache_hit_bytes: before.cache_hit_bytes + d.cache_hit_bytes,
        cache_misses: before.cache_misses + d.cache_misses,
        write_back_requests: before.write_back_requests + d.write_back_requests,
        write_back_bytes: before.write_back_bytes + d.write_back_bytes,
        evicted_bytes: before.evicted_bytes + d.evicted_bytes,
    };
    assert_eq!(&recomposed, after, "a DiskStats counter went backwards");
}

fn run_workload(ops: &[Op], cache_budget: Option<usize>) -> (DiskStats, u64) {
    let mut disk = LogicalDisk::in_memory();
    let laf = LocalArrayFile::create(&mut disk, ElemKind::F32, FILE_ELEMS).unwrap();
    let init: Vec<f32> = (0..FILE_ELEMS).map(|i| i as f32).collect();
    laf.write_f32(&mut disk, &[ElemRun::new(0, FILE_ELEMS)], &init, &NoCharge)
        .unwrap();
    if let Some(budget) = cache_budget {
        disk.enable_cache(budget);
    }
    let baseline = disk.stats();
    let mut prev = baseline;
    let mut read_runs_total = 0u64;
    for op in ops {
        match op {
            Op::Read(runs) => {
                let byte_runs: Vec<_> = runs
                    .iter()
                    .map(|r| pario::ByteRun::new(r.offset * 4, r.len * 4))
                    .collect();
                read_runs_total += coalesce_runs(&byte_runs).len() as u64;
                laf.read_f32(&mut disk, runs, &NoCharge).unwrap();
            }
            Op::Write(runs) => {
                let total: u64 = runs.iter().map(|r| r.len).sum();
                let payload: Vec<f32> = (0..total).map(|i| i as f32 * 0.5).collect();
                laf.write_f32(&mut disk, runs, &payload, &NoCharge).unwrap();
            }
            Op::Flush => disk.flush_cache(&NoCharge).unwrap(),
        }
        let now = disk.stats();
        assert_monotone(&prev, &now);
        prev = now;
    }
    disk.flush_cache(&NoCharge).unwrap();
    (disk.stats().delta(&baseline), read_runs_total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn disk_stats_invariants_hold(ops in proptest::collection::vec(arb_op(), 1..20)) {
        for cache_budget in [None, Some(64), Some(512), Some(1 << 20)] {
            let (s, read_runs) = run_workload(&ops, cache_budget);

            // Write-backs are a subset of the writes that reached the disk.
            prop_assert!(
                s.write_back_requests <= s.write_requests,
                "{:?}: {s:?}", cache_budget
            );
            prop_assert!(
                s.write_back_bytes <= s.bytes_written,
                "{:?}: {s:?}", cache_budget
            );

            match cache_budget {
                None => {
                    // No cache: no hit/miss/write-back accounting at all.
                    prop_assert_eq!(s.cache_hits, 0);
                    prop_assert_eq!(s.cache_hit_bytes, 0);
                    prop_assert_eq!(s.cache_misses, 0);
                    prop_assert_eq!(s.write_back_requests, 0);
                    prop_assert_eq!(s.write_back_bytes, 0);
                    prop_assert_eq!(s.evicted_bytes, 0);
                }
                Some(_) => {
                    // Every coalesced read run is classified exactly once.
                    prop_assert_eq!(
                        s.cache_hits + s.cache_misses, read_runs,
                        "hit/miss accounting inconsistent: {:?}", s
                    );
                    // All buffered writes were flushed by the end, so every
                    // write request the workload caused was a write-back.
                    prop_assert_eq!(s.write_back_requests, s.write_requests);
                    prop_assert_eq!(s.write_back_bytes, s.bytes_written);
                }
            }
        }
    }
}
