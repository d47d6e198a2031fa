//! The compiler's count-only section tally agrees with the disk: for any
//! section of a local array under any file layout, the
//! [`ArrayDesc::section_access`] of the section tallied under a sieve policy
//! is exactly the `DiskStats` delta of a real [`LogicalDisk`] read or write
//! of that section's [`ArrayDesc::section_byte_runs`].

use proptest::prelude::*;

use ooc_array::{
    ArrayDesc, ArrayId, DimDist, DimRange, DistKind, Distribution, FileLayout, ProcGrid, Section,
    Shape,
};
use pario::{DiskStats, ElemKind, LogicalDisk, NoCharge, SievePolicy, Tally};

/// Every permutation of `0..n`, column-major (identity) first and
/// row-major (reversed) last.
fn orders(n: usize) -> Vec<Vec<usize>> {
    match n {
        1 => vec![vec![0]],
        2 => vec![vec![0, 1], vec![1, 0]],
        _ => vec![
            vec![0, 1, 2],
            vec![0, 2, 1],
            vec![1, 0, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![2, 1, 0],
        ],
    }
}

/// One dimension's range: full, empty, or `count` indices from `lo` at
/// `step`, clipped to the extent.
fn range(extent: usize, (kind, lo, step, count): (u8, usize, usize, usize)) -> DimRange {
    match kind {
        0 => DimRange::full(extent),
        1 => DimRange::new(0, 0),
        _ => {
            let lo = lo % extent;
            let count = 1 + count % ((extent - 1 - lo) / step + 1);
            DimRange::strided(lo, lo + (count - 1) * step + 1, step)
        }
    }
}

/// A descriptor whose one rank's local array is the whole of `shape`.
fn whole(shape: &Shape, layout: FileLayout) -> ArrayDesc {
    let mut dims = vec![DimDist::Collapsed; shape.ndims()];
    dims[0] = DimDist::Distributed {
        kind: DistKind::Block,
        axis: 0,
    };
    let dist = Distribution::new(shape.clone(), dims, ProcGrid::line(1));
    ArrayDesc::new(ArrayId(0), "a", ElemKind::F32, dist).with_layout(layout)
}

fn counts(after: DiskStats, before: DiskStats) -> Tally {
    let d = after.delta(&before);
    Tally {
        read_requests: d.read_requests,
        read_bytes: d.bytes_read,
        write_requests: d.write_requests,
        write_bytes: d.bytes_written,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn section_tally_equals_the_disk(
        extents in proptest::collection::vec(1usize..7, 1..4),
        layout in 0usize..6,
        dims in proptest::collection::vec((0u8..4, 0usize..7, 1usize..4, 0usize..7), 3..4),
        sieve in proptest::bool::ANY,
    ) {
        let shape = Shape::new(extents.clone());
        let n = shape.ndims();
        let all = orders(n);
        let order = all[layout % all.len()].clone();
        let desc = whole(&shape, FileLayout::new(order));
        let section = Section::new(
            (0..n).map(|d| range(extents[d], dims[d])).collect::<Vec<_>>(),
        );
        let policy = if sieve { SievePolicy::Always } else { SievePolicy::Direct };
        let access = desc.section_access(&shape, &section);
        let mut runs = Vec::new();
        desc.section_byte_runs(&shape, &section, &mut runs);

        let mut disk = LogicalDisk::in_memory();
        let file = disk.create_file(4 * shape.len() as u64).unwrap();

        let before = disk.stats();
        let mut out = Vec::new();
        disk.read(file, runs.iter().copied(), &mut out, &NoCharge, policy).unwrap();
        let mut read = Tally::default();
        read.read(access, policy);
        prop_assert_eq!(read, counts(disk.stats(), before), "read {:?} {:?}", section, policy);

        let before = disk.stats();
        let data = vec![0.5f32; section.len()];
        disk.write(file, runs.iter().copied(), &data, &NoCharge, policy).unwrap();
        let mut write = Tally::default();
        write.write(access, policy);
        prop_assert_eq!(write, counts(disk.stats(), before), "write {:?} {:?}", section, policy);
    }
}

#[test]
fn runs_that_touch_across_a_wrap_coalesce_in_the_tally_too() {
    // Rows {0, 3} of every column of a 4 x 3 column-major array: row 3 of
    // one column and row 0 of the next are neighbours in the file, so the
    // six element runs coalesce into four requests.
    let shape = Shape::matrix(4, 3);
    let desc = whole(&shape, FileLayout::column_major(2));
    let section = Section::new(vec![DimRange::strided(0, 4, 3), DimRange::full(3)]);
    assert_eq!(desc.layout.count_section_runs(&shape, &section), 6);
    let access = desc.section_access(&shape, &section);
    assert_eq!((access.runs, access.bytes, access.span), (4, 24, 48));
}
