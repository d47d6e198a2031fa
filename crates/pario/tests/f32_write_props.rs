//! Pinned digests of a seeded corpus of `LogicalDisk` writes, seen from
//! the backend.
//!
//! Each case drives one disk through a seeded sequence of disjoint, shuffled
//! write runs (some past the end of the file), cache flushes and reads,
//! under one access configuration and one fault regime, on the memory and
//! the file backend. The disk sits on a recording backend that logs every
//! write the backend receives — byte or `f32`, torn prefix or full extent —
//! as its offset and bytes, so the digest pins what reaches the platter and
//! in what order, along with every `IoCharge` call, `DiskStats`, the fault
//! counters and each error's `Debug`. The digests were captured while every
//! write was encoded into one offset-ordered byte payload before any
//! request, so a direct write handed to the backend straight from the
//! caller's slice must reproduce the same fault draws, torn prefixes,
//! retries, stats and charges.

use std::sync::{Arc, Mutex};

use dmsim::FaultConfig;
use pario::{
    ByteRun, DiskBackend, FileId, IoCharge, LogicalDisk, MemBackend, NoCharge, SievePolicy,
    StorageBackend,
};

type Result<T> = std::result::Result<T, pario::IoError>;

/// Every event of a case, in order: backend writes and disk charges.
#[derive(Clone, Default)]
struct Log(Arc<Mutex<String>>);

impl Log {
    fn note(&self, what: std::fmt::Arguments) {
        use std::fmt::Write;
        let _ = writeln!(self.0.lock().unwrap(), "{what}");
    }
}

/// A backend that logs each write it receives as its bytes, whatever form
/// the disk hands them in, then passes it on.
struct Recording {
    inner: Box<dyn StorageBackend>,
    log: Log,
}

impl Recording {
    fn note_put(&self, id: u64, offset: u64, bytes: &[u8]) {
        let digest = ooc_trace::digest::fnv1a(bytes);
        let len = bytes.len();
        self.log
            .note(format_args!("put {id} {offset} {len} {digest:016x}"));
    }
}

impl StorageBackend for Recording {
    fn create(&mut self, id: u64, len: u64) -> Result<()> {
        self.inner.create(id, len)
    }
    fn len(&self, id: u64) -> Result<u64> {
        self.inner.len(id)
    }
    fn read_at(&mut self, id: u64, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.inner.read_at(id, offset, buf)
    }
    fn read_f32_at(&mut self, id: u64, offset: u64, out: &mut [f32]) -> Result<()> {
        self.inner.read_f32_at(id, offset, out)
    }
    fn write_at(&mut self, id: u64, offset: u64, data: &[u8]) -> Result<()> {
        self.note_put(id, offset, data);
        self.inner.write_at(id, offset, data)
    }
    fn write_f32_at(&mut self, id: u64, offset: u64, data: &[f32]) -> Result<()> {
        let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.note_put(id, offset, &bytes);
        self.inner.write_f32_at(id, offset, data)
    }
    fn remove(&mut self, id: u64) -> Result<()> {
        self.inner.remove(id)
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

/// Elements in the corpus file.
const FILE_ELEMS: u64 = 48;
/// Operations per case, before the closing flush and full read.
const OPS: usize = 40;

/// How a case services its writes.
#[derive(Debug, Clone, Copy)]
enum Access {
    Policy(&'static str, SievePolicy),
    Cache(&'static str, usize),
}

const ACCESSES: [Access; 3] = [
    Access::Policy("direct", SievePolicy::Direct),
    Access::Policy("always", SievePolicy::Always),
    Access::Cache("cache48", 48),
];

/// The fault regimes: none, the stock chaos mix, and one where most write
/// attempts tear or fail transiently, so torn prefixes reach the backend
/// on nearly every write.
const FAULTS: [&str; 3] = ["quiet", "chaos", "torn"];

fn fault_config(regime: &str, seed: u64) -> FaultConfig {
    match regime {
        "quiet" => FaultConfig::quiet(seed),
        "chaos" => FaultConfig::chaos(seed),
        _ => FaultConfig {
            write_error: 0.25,
            torn_write: 0.5,
            ..FaultConfig::quiet(seed)
        },
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

/// Disjoint element-aligned write runs in shuffled order; half the gaps are
/// zero, so runs often coalesce, some are empty, and one in eight writes
/// ends with a run that crosses the end of the file.
fn write_runs(rng: &mut Rng) -> Vec<ByteRun> {
    let mut runs = Vec::new();
    let mut cursor = rng.below(8);
    for _ in 0..=rng.below(6) {
        let len = rng.below(7);
        if cursor + len > FILE_ELEMS {
            break;
        }
        runs.push(ByteRun::new(cursor * 4, len * 4));
        cursor += len + [0, 0, 1, 3][rng.below(4) as usize];
    }
    if rng.below(8) == 0 && cursor < FILE_ELEMS {
        runs.push(ByteRun::new(FILE_ELEMS * 4 - 4, 12));
    }
    for i in (1..runs.len()).rev() {
        runs.swap(i, rng.below(i as u64 + 1) as usize);
    }
    runs
}

fn note_outcome(log: &Log, disk: &LogicalDisk, outcome: Result<u64>, read: Option<&[f32]>) {
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

/// Drive one case and digest everything it observed.
fn run_case(access: Access, regime: &str, on_disk: bool, seed: u64) -> u64 {
    let log = Log::default();
    let inner: Box<dyn StorageBackend> = if on_disk {
        Box::new(DiskBackend::new("write-corpus").unwrap())
    } else {
        Box::new(MemBackend::new())
    };
    let mut disk = LogicalDisk::with_backend(Box::new(Recording {
        inner,
        log: log.clone(),
    }));
    let file = disk.create_file(FILE_ELEMS * 4).unwrap();
    let policy = match access {
        Access::Policy(_, policy) => policy,
        Access::Cache(_, budget) => {
            disk.enable_cache(budget);
            SievePolicy::Direct
        }
    };
    disk.enable_faults(&fault_config(regime, seed), 0);
    let mut rng = Rng(seed);
    let whole = [ByteRun::new(0, FILE_ELEMS * 4)];
    let mut out = Vec::new();
    for _ in 0..OPS {
        match rng.below(10) {
            0 => {
                log.note(format_args!("flush"));
                let outcome = disk.flush_cache(&log).map(|()| 0);
                note_outcome(&log, &disk, outcome, None);
            }
            1 => {
                log.note(format_args!("read whole"));
                let outcome = disk.read(file, whole, &mut out, &log, policy);
                let ok = outcome.is_ok();
                note_outcome(&log, &disk, outcome, ok.then_some(&out[..]));
            }
            _ => {
                let runs = write_runs(&mut rng);
                let n = runs.iter().map(|r| r.len / 4).sum::<u64>();
                let data: Vec<f32> = (0..n).map(|_| rng.value()).collect();
                log.note(format_args!("write {runs:?}"));
                let outcome = disk.write(file, runs, &data, &log, policy);
                note_outcome(&log, &disk, outcome, None);
            }
        }
    }
    log.note(format_args!("final flush"));
    let outcome = disk.flush_cache(&log).map(|()| 0);
    note_outcome(&log, &disk, outcome, None);
    log.note(format_args!("missing file"));
    let outcome = disk.write(FileId(99), whole, &[0.0; FILE_ELEMS as usize], &log, policy);
    note_outcome(&log, &disk, outcome, None);
    // The contents, read back on a fault-free view of the same disk.
    disk.enable_faults(&FaultConfig::quiet(0), 0);
    let outcome = disk.read(file, whole, &mut out, &NoCharge, SievePolicy::Direct);
    let ok = outcome.is_ok();
    note_outcome(&log, &disk, outcome, ok.then_some(&out[..]));
    let text = log.0.lock().unwrap().clone();
    ooc_trace::digest::fnv1a(text.as_bytes())
}

/// Every case's name and digest, the memory and file backends asserted
/// equal.
fn corpus_digests() -> Vec<(String, u64)> {
    let mut digests = Vec::new();
    for (f, regime) in FAULTS.iter().enumerate() {
        for (a, &access) in ACCESSES.iter().enumerate() {
            let seed = 0x7717_0000 + (f * ACCESSES.len() + a) as u64;
            let (Access::Policy(label, _) | Access::Cache(label, _)) = access;
            let name = format!("{regime}/{label}");
            let mem = run_case(access, regime, false, seed);
            let file = run_case(access, regime, true, seed);
            assert_eq!(mem, file, "{name}: the file backend diverged from memory");
            digests.push((name, mem));
        }
    }
    digests
}

/// Each case's digest, captured while every write was encoded into one
/// offset-ordered payload first.
const PINNED: [(&str, u64); 9] = [
    ("quiet/direct", 0x87162087309579a0),
    ("quiet/always", 0x4008f70a28016fa9),
    ("quiet/cache48", 0xa786022a4ba0e9da),
    ("chaos/direct", 0x9b259670ed711640),
    ("chaos/always", 0xc750b957c517eb98),
    ("chaos/cache48", 0x27bab7353a4d12a8),
    ("torn/direct", 0xbc077643e41735ea),
    ("torn/always", 0xeb441f71707bce67),
    ("torn/cache48", 0x0674c3d5f6f3dea7),
];

#[test]
fn the_write_corpus_matches_its_pinned_digests() {
    let got = corpus_digests();
    let diverged: Vec<String> = got
        .iter()
        .zip(PINNED)
        .filter(|((name, digest), (pin_name, pin))| name != pin_name || digest != pin)
        .map(|((name, digest), _)| format!("(\"{name}\", {digest:#018x}),"))
        .collect();
    assert_eq!(got.len(), PINNED.len());
    assert!(
        diverged.is_empty(),
        "cases off their pinned digest: {diverged:#?}"
    );
}
