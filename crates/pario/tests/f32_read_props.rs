//! Pinned digests of a seeded corpus of `LogicalDisk` read and write
//! sequences.
//!
//! Each case drives one disk through a seeded sequence of strided reads,
//! writes and cache flushes under one access configuration (a sieve policy,
//! or a slab cache budget) and one fault regime, on the memory and the file
//! backend. It digests everything observable: the values read, `DiskStats`,
//! every `IoCharge` call in order with its arguments, the fault counters and
//! each error's `Debug`. The digests were captured before the byte and
//! `f32` forms of the read and write were merged into one read and one
//! write, so a change to any value, charge, fault draw or error fails here —
//! for instance drawing a direct write's fault gate per coalesced run
//! instead of per original run, or dropping an `io_offset`.
//!
//! Every case also runs with its reads through the lending entry,
//! `LogicalDisk::read_ref`, and must digest the same: a lent read cannot be
//! told apart from a copied one. The lending runs also check that exactly
//! the reads that should lend do, and that every other read falls back to
//! the copy.

use std::cell::RefCell;

use dmsim::FaultConfig;
use pario::{coalesce_runs, ByteRun, FileId, IoCharge, LogicalDisk, NoCharge, SievePolicy};

fn disk_read(
    disk: &mut LogicalDisk,
    file: FileId,
    runs: &[ByteRun],
    out: &mut Vec<f32>,
    charge: &dyn IoCharge,
    policy: SievePolicy,
) -> Result<u64, pario::IoError> {
    disk.read(file, runs.iter().copied(), out, charge, policy)
}

fn disk_write(
    disk: &mut LogicalDisk,
    file: FileId,
    runs: &[ByteRun],
    data: &[f32],
    charge: &dyn IoCharge,
    policy: SievePolicy,
) -> Result<u64, pario::IoError> {
    disk.write(file, runs.iter().copied(), data, charge, policy)
}

/// Which read entry a case drives, and what the lending one may lend.
#[derive(Debug, Clone, Copy)]
enum Entry {
    /// `LogicalDisk::read`.
    Copy,
    /// `LogicalDisk::read_ref`, on a disk that lends when `lends` is true
    /// (uncached and in memory).
    Lend { lends: bool },
}

/// One read of the corpus through `entry`, its values left in `out`.
/// Returns the requests the read issued, as `LogicalDisk::read` does.
fn entry_read(
    entry: Entry,
    disk: &mut LogicalDisk,
    file: FileId,
    runs: &[ByteRun],
    out: &mut Vec<f32>,
    charge: &dyn IoCharge,
    policy: SievePolicy,
) -> Result<u64, pario::IoError> {
    let Entry::Lend { lends } = entry else {
        return disk_read(disk, file, runs, out, charge, policy);
    };
    let before = disk.stats().read_requests;
    let mut scratch = std::mem::take(out);
    let read = disk
        .read_ref(file, runs.iter().copied(), &mut scratch, charge, policy)
        .map(|vals| (vals.to_vec(), vals.as_ptr() as usize));
    let (vals, at) = match read {
        Ok(read) => read,
        Err(e) => {
            *out = scratch;
            return Err(e);
        }
    };
    if !vals.is_empty() {
        // Only a read of one coalesced run lends; it leaves the scratch
        // untouched, and every other read fills the scratch.
        let one_run = coalesce_runs(runs).len() == 1;
        let copied = scratch.as_ptr_range().contains(&(at as *const f32));
        assert_eq!(copied, !(lends && one_run), "read {runs:?} lent wrongly");
    }
    *out = vals;
    Ok(disk.stats().read_requests - before)
}

/// Elements in the corpus file.
const FILE_ELEMS: u64 = 64;
/// Operations per case, before the closing flush and full read.
const OPS: usize = 32;

/// Every charge a disk operation makes, and every outcome, in order.
#[derive(Default)]
struct Log(RefCell<String>);

impl Log {
    fn note(&self, what: std::fmt::Arguments) {
        use std::fmt::Write;
        let _ = writeln!(self.0.borrow_mut(), "{what}");
    }
}

impl IoCharge for Log {
    fn io_read(&self, requests: u64, bytes: u64) {
        self.note(format_args!("read {requests} {bytes}"));
    }
    fn io_write(&self, requests: u64, bytes: u64) {
        self.note(format_args!("write {requests} {bytes}"));
    }
    fn io_cache_hit(&self, runs: u64, bytes: u64) {
        self.note(format_args!("hit {runs} {bytes}"));
    }
    fn io_write_back(&self, requests: u64, bytes: u64) {
        self.note(format_args!("write_back {requests} {bytes}"));
    }
    fn io_faults(&self, charges: &dmsim::FaultCharges) {
        self.note(format_args!("faults {charges:?}"));
    }
    fn io_array(&self, name: &str, file: u64) {
        self.note(format_args!("array {name} {file}"));
    }
    fn io_offset(&self, offset: u64) {
        self.note(format_args!("offset {offset}"));
    }
    fn io_cache_level(&self, used: u64, dirty: u64) {
        self.note(format_args!("cache_level {used} {dirty}"));
    }
    fn io_sieve(&self, span: u64, useful: u64) {
        self.note(format_args!("sieve {span} {useful}"));
    }
    fn io_wait(&self) {
        self.note(format_args!("wait"));
    }
}

/// How a case services its accesses: a sieve policy on an uncached disk,
/// or a slab cache of the given byte budget (which bypasses the sieve).
#[derive(Debug, Clone, Copy)]
enum Access {
    Policy(&'static str, SievePolicy),
    Cache(&'static str, usize),
}

/// Every case with its seed slot. Slots 2 and 3 belonged to two sieve
/// policies that no longer exist; the remaining cases keep their slots, so
/// their seeds and pinned digests are unchanged.
const ACCESSES: [(u64, Access); 5] = [
    (0, Access::Policy("direct", SievePolicy::Direct)),
    (1, Access::Policy("always", SievePolicy::Always)),
    (4, Access::Cache("cache0", 0)),
    (5, Access::Cache("cache48", 48)),
    (6, Access::Cache("cache64k", 1 << 16)),
];

/// Seed slots per fault regime.
const SLOTS: u64 = 7;

/// The fault regime a case's disk runs under.
#[derive(Debug, Clone, Copy)]
enum Faults {
    Quiet,
    Chaos,
    Hard,
    Dying,
}

const FAULTS: [Faults; 4] = [Faults::Quiet, Faults::Chaos, Faults::Hard, Faults::Dying];

impl Faults {
    fn label(self) -> &'static str {
        match self {
            Faults::Quiet => "quiet",
            Faults::Chaos => "chaos",
            Faults::Hard => "hard",
            Faults::Dying => "dying",
        }
    }

    fn config(self, seed: u64) -> FaultConfig {
        match self {
            Faults::Quiet => FaultConfig::quiet(seed),
            Faults::Chaos => FaultConfig::chaos(seed),
            Faults::Hard => FaultConfig {
                hard_read: 0.03,
                hard_write: 0.03,
                ..FaultConfig::chaos(seed)
            },
            Faults::Dying => FaultConfig {
                read_error: 0.3,
                write_error: 0.3,
                fail_after: 12,
                ..FaultConfig::chaos(seed)
            },
        }
    }
}

/// splitmix64: the corpus generator, independent of any other crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Any bit pattern: NaN payloads, ±0, subnormals and infinities occur.
    fn value(&mut self) -> f32 {
        f32::from_bits(self.next() as u32)
    }
}

/// Element-aligned read runs inside the file: possibly empty, unsorted,
/// overlapping or repeated.
fn read_runs(rng: &mut Rng) -> Vec<ByteRun> {
    (0..rng.below(6))
        .map(|_| {
            let len = rng.below(9);
            let off = rng.below(FILE_ELEMS - len + 1);
            ByteRun::new(off * 4, len * 4)
        })
        .collect()
}

/// Disjoint element-aligned write runs in shuffled order; half the gaps are
/// zero, so original runs often coalesce, and some runs are empty.
fn write_runs(rng: &mut Rng) -> Vec<ByteRun> {
    let mut runs = Vec::new();
    let mut cursor = rng.below(8);
    for _ in 0..=rng.below(6) {
        let len = rng.below(6);
        if cursor + len > FILE_ELEMS {
            break;
        }
        runs.push(ByteRun::new(cursor * 4, len * 4));
        cursor += len + [0, 0, 1, 3][rng.below(4) as usize];
    }
    for i in (1..runs.len()).rev() {
        runs.swap(i, rng.below(i as u64 + 1) as usize);
    }
    runs
}

fn note_outcome(
    log: &Log,
    disk: &LogicalDisk,
    outcome: Result<u64, pario::IoError>,
    read: Option<&[f32]>,
) {
    match outcome {
        Ok(requests) => {
            log.note(format_args!("ok {requests}"));
            if let Some(vals) = read {
                let bits: Vec<u32> = vals.iter().map(|v| v.to_bits()).collect();
                log.note(format_args!("values {bits:?}"));
            }
        }
        Err(e) => log.note(format_args!("err {e:?}")),
    }
    log.note(format_args!(
        "stats {:?} faults {:?} dead {} degraded {}",
        disk.stats(),
        disk.fault_injector().map(|f| f.faults_seen()),
        disk.is_dead(),
        disk.is_degraded()
    ));
}

/// Drive one case, its reads through `lend`'s entry, and digest everything
/// it observed.
fn run_case(access: Access, faults: Faults, on_disk: bool, lend: bool, seed: u64) -> u64 {
    let mut disk = if on_disk {
        LogicalDisk::on_disk("io-corpus").unwrap()
    } else {
        LogicalDisk::in_memory()
    };
    let file = disk.create_file(FILE_ELEMS * 4).unwrap();
    let mut rng = Rng(seed);
    let init: Vec<f32> = (0..FILE_ELEMS).map(|_| rng.value()).collect();
    let whole = [ByteRun::new(0, FILE_ELEMS * 4)];
    disk_write(
        &mut disk,
        file,
        &whole,
        &init,
        &NoCharge,
        SievePolicy::Direct,
    )
    .unwrap();
    let policy = match access {
        Access::Policy(_, policy) => policy,
        Access::Cache(_, budget) => {
            disk.enable_cache(budget);
            SievePolicy::Direct
        }
    };
    disk.enable_faults(&faults.config(seed), 0);
    let entry = if lend {
        Entry::Lend {
            lends: !on_disk && !disk.cache_enabled(),
        }
    } else {
        Entry::Copy
    };

    let log = Log::default();
    // One output buffer reused across every read, as the executor does.
    let mut out = vec![f32::NAN; 3];
    for _ in 0..OPS {
        match rng.below(20) {
            0 => {
                log.note(format_args!("flush"));
                let outcome = disk.flush_cache(&log).map(|()| 0);
                note_outcome(&log, &disk, outcome, None);
            }
            1..=9 => {
                let mut runs = read_runs(&mut rng);
                if rng.below(8) == 0 {
                    runs.push(ByteRun::new((FILE_ELEMS - 1) * 4, 8));
                }
                log.note(format_args!("read {runs:?}"));
                let outcome = entry_read(entry, &mut disk, file, &runs, &mut out, &log, policy);
                let ok = outcome.is_ok();
                note_outcome(&log, &disk, outcome, ok.then_some(&out[..]));
            }
            _ => {
                let runs = write_runs(&mut rng);
                let n = runs.iter().map(|r| r.len / 4).sum::<u64>();
                let data: Vec<f32> = (0..n).map(|_| rng.value()).collect();
                log.note(format_args!("write {runs:?}"));
                let outcome = disk_write(&mut disk, file, &runs, &data, &log, policy);
                note_outcome(&log, &disk, outcome, None);
            }
        }
    }
    log.note(format_args!("final flush"));
    let outcome = disk.flush_cache(&log).map(|()| 0);
    note_outcome(&log, &disk, outcome, None);
    log.note(format_args!("final read"));
    let outcome = entry_read(entry, &mut disk, file, &whole, &mut out, &log, policy);
    let ok = outcome.is_ok();
    note_outcome(&log, &disk, outcome, ok.then_some(&out[..]));
    log.note(format_args!("missing file"));
    let outcome = entry_read(entry, &mut disk, FileId(99), &whole, &mut out, &log, policy);
    note_outcome(&log, &disk, outcome, None);
    ooc_trace::digest::fnv1a(log.0.into_inner().as_bytes())
}

/// Every case's name and digest, memory and file backends and the copying
/// and lending entries asserted equal.
fn corpus_digests() -> Vec<(String, u64)> {
    let mut digests = Vec::new();
    for (f, &faults) in FAULTS.iter().enumerate() {
        for &(slot, access) in &ACCESSES {
            let seed = 0x5eed_0000 + f as u64 * SLOTS + slot;
            let (Access::Policy(label, _) | Access::Cache(label, _)) = access;
            let name = format!("{}/{label}", faults.label());
            let mem = run_case(access, faults, false, false, seed);
            let file = run_case(access, faults, true, false, seed);
            assert_eq!(mem, file, "{name}: the file backend diverged from memory");
            for on_disk in [false, true] {
                let lent = run_case(access, faults, on_disk, true, seed);
                assert_eq!(
                    lent, mem,
                    "{name}: the lending read diverged (on disk: {on_disk})"
                );
            }
            digests.push((name, mem));
        }
    }
    digests
}

/// Each case's digest, captured on the pre-merge read and write paths.
const PINNED: [(&str, u64); 20] = [
    ("quiet/direct", 0xe3e910808e006a31),
    ("quiet/always", 0x5fbaf875760718b0),
    ("quiet/cache0", 0x1fe7ee8378eb2ba9),
    ("quiet/cache48", 0x319529721b633b9f),
    ("quiet/cache64k", 0x407080efcc50676b),
    ("chaos/direct", 0x95d6cbbc1937347b),
    ("chaos/always", 0x4eb756a55c8b8aa3),
    ("chaos/cache0", 0x2d32687ed5b7aba1),
    ("chaos/cache48", 0x29eda4d38142bf69),
    ("chaos/cache64k", 0xa49111d816900b49),
    ("hard/direct", 0x8eca9a18203ffaee),
    ("hard/always", 0x09da68757822f03d),
    ("hard/cache0", 0x80c0170a53f1e6de),
    ("hard/cache48", 0xb104476f4e388ed2),
    ("hard/cache64k", 0x41813fdafc5c8188),
    ("dying/direct", 0x1d172460c6f85f41),
    ("dying/always", 0x80b1b8bca770ecad),
    ("dying/cache0", 0xe163fd7ac140b29e),
    ("dying/cache48", 0xc42b05790e08cc52),
    ("dying/cache64k", 0xf885208aac98c3f8),
];

#[test]
fn the_io_corpus_matches_its_pinned_digests() {
    let got = corpus_digests();
    let diverged: Vec<String> = got
        .iter()
        .zip(PINNED)
        .filter(|((name, digest), (pin_name, pin))| name != pin_name || digest != pin)
        .map(|((name, digest), _)| format!("{name} {digest:016x}"))
        .collect();
    assert_eq!(got.len(), PINNED.len());
    assert!(
        diverged.is_empty(),
        "cases off their pinned digest: {diverged:#?}"
    );
}

#[test]
fn every_typed_read_error_is_reproduced() {
    let disk_with_file = || {
        let mut disk = LogicalDisk::in_memory();
        disk.create_file(FILE_ELEMS * 4).unwrap();
        disk
    };
    let read = |disk: &mut LogicalDisk, file: u64, run: ByteRun| {
        let mut out = Vec::new();
        disk.read(
            FileId(file),
            [run],
            &mut out,
            &NoCharge,
            SievePolicy::Direct,
        )
        .unwrap_err()
    };
    // Out of bounds, a missing file and a partial element, on a plain disk.
    let mut disk = disk_with_file();
    let err = read(&mut disk, 0, ByteRun::new(FILE_ELEMS * 4 - 4, 8));
    assert!(matches!(err, pario::IoError::OutOfBounds { .. }), "{err:?}");
    let err = read(&mut disk, 9, ByteRun::new(0, 4));
    assert!(
        matches!(err, pario::IoError::NoSuchFile { file: 9 }),
        "{err:?}"
    );
    let err = read(&mut disk, 0, ByteRun::new(0, 5));
    assert!(
        matches!(err, pario::IoError::BadElementSize { bytes: 5, elem: 4 }),
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
        let mut disk = disk_with_file();
        disk.enable_faults(&cfg, 0);
        let mut out = Vec::new();
        let mut last = None;
        for _ in 0..3 {
            last = disk
                .read(
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
