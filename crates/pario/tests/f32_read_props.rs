//! Property tests: the `f32` read path is the byte read path decoded.
//!
//! `LogicalDisk::read_f32_runs_with` (and `LocalArrayFile::read_f32_into`
//! over it) decodes straight out of the backend on the direct, uncached
//! path and stages through bytes otherwise. Whatever path a request takes,
//! it must be indistinguishable from `read_runs_with` + `bytes_to_f32` on
//! an identical disk: the same values bit for bit, request count,
//! `DiskStats`, sequence of recorded charges, fault counters, and the same
//! error on the same request.

use std::cell::RefCell;

use dmsim::FaultConfig;
use proptest::prelude::*;

use pario::{
    bytes_to_f32, ByteRun, ElemKind, ElemRun, FileId, IoCharge, LocalArrayFile, LogicalDisk,
    NoCharge, SievePolicy,
};

const FILE_ELEMS: u64 = 96;

/// Every charge a disk operation makes, in order.
#[derive(Default)]
struct Recorder(RefCell<Vec<String>>);

impl Recorder {
    fn note(&self, what: String) {
        self.0.borrow_mut().push(what);
    }
    fn take(&self) -> Vec<String> {
        std::mem::take(&mut self.0.borrow_mut())
    }
}

impl IoCharge for Recorder {
    fn io_read(&self, requests: u64, bytes: u64) {
        self.note(format!("read {requests} {bytes}"));
    }
    fn io_write(&self, requests: u64, bytes: u64) {
        self.note(format!("write {requests} {bytes}"));
    }
    fn io_cache_hit(&self, runs: u64, bytes: u64) {
        self.note(format!("hit {runs} {bytes}"));
    }
    fn io_write_back(&self, requests: u64, bytes: u64) {
        self.note(format!("write_back {requests} {bytes}"));
    }
    fn io_faults(&self, charges: &dmsim::FaultCharges) {
        self.note(format!("faults {charges:?}"));
    }
    fn io_offset(&self, offset: u64) {
        self.note(format!("offset {offset}"));
    }
    fn io_cache_level(&self, used: u64, dirty: u64) {
        self.note(format!("cache_level {used} {dirty}"));
    }
    fn io_sieve(&self, span: u64, useful: u64) {
        self.note(format!("sieve {span} {useful}"));
    }
    fn io_wait(&self) {
        self.note("wait".into());
    }
}

/// How the pair of disks under comparison is configured.
#[derive(Debug, Clone, Copy)]
enum Mode {
    Direct,
    Sieved(SievePolicy),
    Cached(usize),
    OnDisk,
    /// Transient, delayed and permanent read faults.
    Faulty(u64),
    /// A disk that dies after a few faults.
    Dying(u64),
}

fn arb_mode() -> impl Strategy<Value = Mode> {
    prop_oneof![
        Just(Mode::Direct),
        Just(Mode::Sieved(SievePolicy::Always)),
        Just(Mode::Sieved(SievePolicy::WasteBound { max_waste: 2.0 })),
        (0usize..1024).prop_map(Mode::Cached),
        Just(Mode::OnDisk),
        (0u64..1000).prop_map(Mode::Faulty),
        (0u64..1000).prop_map(Mode::Dying),
    ]
}

/// One read request: byte runs (element-aligned or arbitrary), and whether
/// the file is removed first (so the read names a missing file).
#[derive(Debug, Clone)]
struct Read {
    runs: Vec<(u64, u64)>,
    aligned: bool,
    removed: bool,
}

fn arb_read() -> impl Strategy<Value = Read> {
    (
        // Offsets may run past the end of the file, runs may overlap, be
        // empty or come unsorted.
        proptest::collection::vec((0u64..FILE_ELEMS * 4 + 16, 0u64..48), 0..6),
        proptest::bool::ANY,
        0u32..20,
    )
        .prop_map(|(runs, aligned, remove)| Read {
            runs,
            aligned,
            removed: remove == 0,
        })
}

fn disk_for(mode: Mode, label: &str) -> (LogicalDisk, LocalArrayFile, SievePolicy) {
    let mut disk = match mode {
        Mode::OnDisk => LogicalDisk::on_disk(label).unwrap(),
        _ => LogicalDisk::in_memory(),
    };
    let laf = LocalArrayFile::create(&mut disk, ElemKind::F32, FILE_ELEMS).unwrap();
    // Bit patterns spread over the whole f32 space: NaN payloads, ±0,
    // subnormals and infinities all occur.
    let data: Vec<f32> = (0..FILE_ELEMS as u32)
        .map(|i| f32::from_bits(i.wrapping_mul(0x9e37_79b9) ^ (i << 29)))
        .collect();
    laf.write_all_f32(&mut disk, &data, &NoCharge).unwrap();
    let mut policy = SievePolicy::Direct;
    match mode {
        Mode::Direct | Mode::OnDisk => {}
        Mode::Sieved(p) => policy = p,
        Mode::Cached(budget) => disk.enable_cache(budget),
        Mode::Faulty(seed) => disk.enable_faults(
            &FaultConfig {
                hard_read: 0.05,
                ..FaultConfig::chaos(seed)
            },
            0,
        ),
        Mode::Dying(seed) => disk.enable_faults(
            &FaultConfig {
                read_error: 0.3,
                fail_after: 4,
                ..FaultConfig::chaos(seed)
            },
            0,
        ),
    }
    (disk, laf, policy)
}

fn byte_runs(read: &Read) -> Vec<ByteRun> {
    read.runs
        .iter()
        .map(|&(o, l)| {
            if read.aligned {
                ByteRun::new(o / 4 * 4, l / 4 * 4)
            } else {
                ByteRun::new(o, l)
            }
        })
        .collect()
}

/// Everything observable about one disk after a read.
fn observe(disk: &LogicalDisk, rec: &Recorder) -> (String, Vec<String>, Option<u64>, bool) {
    (
        format!("{:?}", disk.stats()),
        rec.take(),
        disk.fault_injector().map(|f| f.faults_seen()),
        disk.is_dead(),
    )
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn f32_read_is_the_byte_read_decoded(
        mode in arb_mode(),
        reads in proptest::collection::vec(arb_read(), 1..8),
    ) {
        let (mut bdisk, blaf, policy) = disk_for(mode, "f32-props-bytes");
        let (mut fdisk, flaf, _) = disk_for(mode, "f32-props-f32");
        let file = blaf.file_id();
        prop_assert_eq!(file, flaf.file_id());
        let (brec, frec) = (Recorder::default(), Recorder::default());
        // One output buffer reused across every read, as the executor does.
        let mut out = vec![f32::NAN; 7];
        let mut removed = false;
        for read in &reads {
            if read.removed && !removed {
                bdisk.remove_file(file).unwrap();
                fdisk.remove_file(file).unwrap();
                removed = true;
            }
            let runs = byte_runs(read);
            let mut bytes = Vec::new();
            let want = bdisk
                .read_runs_with(file, &runs, &mut bytes, &brec, policy)
                .and_then(|requests| Ok((requests, bytes_to_f32(&bytes)?)));
            let got = if read.aligned {
                let elem_runs: Vec<ElemRun> =
                    runs.iter().map(|r| ElemRun::new(r.offset / 4, r.len / 4)).collect();
                flaf.read_f32_into(&mut fdisk, &elem_runs, &mut out, &frec, policy)
                    .map(|()| None)
            } else {
                fdisk
                    .read_f32_runs_with(file, runs.iter().copied(), &mut out, &frec, policy)
                    .map(Some)
            };
            match (&want, &got) {
                (Ok((requests, values)), Ok(got_requests)) => {
                    if let Some(r) = got_requests {
                        prop_assert_eq!(r, requests);
                    }
                    prop_assert_eq!(bits(&out), bits(values), "{:?} {:?}", mode, read);
                }
                (Err(w), Err(g)) => {
                    prop_assert_eq!(format!("{w:?}"), format!("{g:?}"), "{:?}", mode)
                }
                _ => prop_assert!(false, "{:?} {:?}: {:?} vs {:?}", mode, read, want, got),
            }
            prop_assert_eq!(observe(&bdisk, &brec), observe(&fdisk, &frec), "{:?}", mode);
        }
    }
}

#[test]
fn every_typed_read_error_is_reproduced() {
    // Out of bounds and a missing file, on a plain disk.
    let (mut disk, _, _) = disk_for(Mode::Direct, "");
    let mut out = Vec::new();
    let past_end = [ByteRun::new(FILE_ELEMS * 4 - 4, 8)];
    let err = disk
        .read_f32_runs_with(
            FileId(0),
            past_end,
            &mut out,
            &NoCharge,
            SievePolicy::Direct,
        )
        .unwrap_err();
    assert!(matches!(err, pario::IoError::OutOfBounds { .. }), "{err:?}");
    let err = disk
        .read_f32_runs_with(
            FileId(9),
            [ByteRun::new(0, 4)],
            &mut out,
            &NoCharge,
            SievePolicy::Direct,
        )
        .unwrap_err();
    assert!(
        matches!(err, pario::IoError::NoSuchFile { file: 9 }),
        "{err:?}"
    );

    // A permanent fault and a dead disk, from the fault layer.
    for (cfg, dead) in [
        (
            FaultConfig {
                hard_read: 1.0,
                ..FaultConfig::quiet(1)
            },
            false,
        ),
        (
            FaultConfig {
                read_error: 1.0,
                fail_after: 1,
                ..FaultConfig::quiet(1)
            },
            true,
        ),
    ] {
        let (mut disk, _, _) = disk_for(Mode::Direct, "");
        disk.enable_faults(&cfg, 0);
        let mut last = None;
        for _ in 0..3 {
            last = disk
                .read_f32_runs_with(
                    FileId(0),
                    [ByteRun::new(0, 16)],
                    &mut out,
                    &NoCharge,
                    SievePolicy::Direct,
                )
                .err();
        }
        let err = last.expect("the read must fail");
        if dead {
            assert!(
                matches!(err, pario::IoError::DiskDown { file: 0 }),
                "{err:?}"
            );
        } else {
            assert!(
                matches!(
                    err,
                    pario::IoError::PermanentFault {
                        file: 0,
                        offset: 0,
                        ..
                    }
                ),
                "{err:?}"
            );
        }
    }
}
