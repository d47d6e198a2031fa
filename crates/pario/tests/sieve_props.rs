//! Property tests: data sieving must be invisible in the data — any access
//! serviced by a spanning request returns/stores exactly the bytes the
//! direct path would, on both backends.

use proptest::prelude::*;

use pario::{ByteRun, ElemKind, ElemRun, LocalArrayFile, LogicalDisk, NoCharge, SievePolicy};

fn byte_runs(runs: &[ElemRun]) -> impl Iterator<Item = ByteRun> + '_ {
    runs.iter().map(|r| ByteRun::new(r.offset * 4, r.len * 4))
}

/// Read element `runs` of `laf` under `policy`.
fn read_with(
    disk: &mut LogicalDisk,
    laf: &LocalArrayFile,
    runs: &[ElemRun],
    policy: SievePolicy,
) -> Vec<f32> {
    let mut out = Vec::new();
    disk.read(laf.file_id(), byte_runs(runs), &mut out, &NoCharge, policy)
        .unwrap();
    out
}

/// The whole of `laf`.
fn all(laf: &LocalArrayFile) -> [ElemRun; 1] {
    [ElemRun::new(0, laf.len())]
}

fn arb_runs(file_elems: u64) -> impl Strategy<Value = Vec<ElemRun>> {
    // Sorted, disjoint element runs inside the file.
    proptest::collection::vec((0u64..file_elems, 1u64..8), 1..10).prop_map(move |raw| {
        let mut runs: Vec<ElemRun> = Vec::new();
        let mut cursor = 0u64;
        for (gap, len) in raw {
            let offset = cursor + gap % 16;
            if offset >= file_elems {
                break;
            }
            let len = len.min(file_elems - offset);
            runs.push(ElemRun::new(offset, len));
            cursor = offset + len + 1; // at least one element of gap
            if cursor >= file_elems {
                break;
            }
        }
        if runs.is_empty() {
            runs.push(ElemRun::new(0, 1));
        }
        runs
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sieved_reads_return_direct_data(runs in arb_runs(256)) {
        let elems = 256u64;
        let mut disk = LogicalDisk::in_memory();
        let laf = LocalArrayFile::create(&mut disk, ElemKind::F32, elems).unwrap();
        let data: Vec<f32> = (0..elems).map(|i| i as f32 * 1.5 - 7.0).collect();
        laf.write_f32(&mut disk, &all(&laf), &data, &NoCharge).unwrap();

        let direct = laf.read_f32(&mut disk, &runs, &NoCharge).unwrap();
        let sieved = read_with(&mut disk, &laf, &runs, SievePolicy::Always);
        prop_assert_eq!(&sieved, &direct);
    }

    #[test]
    fn sieved_writes_store_direct_bytes(runs in arb_runs(128), seed in 0u64..1000) {
        let elems = 128u64;
        let total: u64 = runs.iter().map(|r| r.len).sum();
        let payload: Vec<f32> = (0..total).map(|i| ((i * 31 + seed) % 97) as f32).collect();
        let background: Vec<f32> = (0..elems).map(|i| -(i as f32)).collect();

        let run_with = |policy: SievePolicy| -> Vec<f32> {
            let mut disk = LogicalDisk::in_memory();
            let laf = LocalArrayFile::create(&mut disk, ElemKind::F32, elems).unwrap();
            laf.write_f32(&mut disk, &all(&laf), &background, &NoCharge).unwrap();
            disk.write(laf.file_id(), byte_runs(&runs), &payload, &NoCharge, policy)
                .unwrap();
            laf.read_f32(&mut disk, &all(&laf), &NoCharge).unwrap()
        };

        let direct = run_with(SievePolicy::Direct);
        let sieved = run_with(SievePolicy::Always);
        prop_assert_eq!(direct, sieved);
    }

    #[test]
    fn sieving_never_issues_more_requests(runs in arb_runs(256)) {
        let elems = 256u64;
        let count_reqs = |policy: SievePolicy| -> u64 {
            let mut disk = LogicalDisk::in_memory();
            let laf = LocalArrayFile::create(&mut disk, ElemKind::F32, elems).unwrap();
            let _ = read_with(&mut disk, &laf, &runs, policy);
            disk.stats().read_requests
        };
        let direct = count_reqs(SievePolicy::Direct);
        let always = count_reqs(SievePolicy::Always);
        prop_assert!(always <= direct);
        prop_assert!(always <= 1 || always == direct);
    }
}
