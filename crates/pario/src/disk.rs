//! Logical disks.
//!
//! Each simulated processor owns one [`LogicalDisk`] — the paper's
//! abstraction of "another level of memory which is much slower than the
//! main memory" (§2.3). The mapping from logical to physical disks is
//! declared system-dependent by the paper; here the *timing* effect of
//! sharing physical disks is carried by the cost model's
//! `shared_disks`/aggregate-bandwidth parameters, while each logical disk
//! stores its own bytes.

use dmsim::{FaultConfig, FaultDomain, FaultInjector, IoFate};

use crate::backend::{decode_f32, encode_f32, MemBackend, StorageBackend};
use crate::cache::{BufferPool, SlabCache};
use crate::error::{FaultOp, IoError, Result};
use crate::request::{coalesce_runs_into, total_bytes, ByteRun};
use crate::sieve::{sieve_extract, sieve_scatter, sieve_span, SievePolicy};
use crate::stats::DiskStats;
use crate::IoCharge;

/// Identifier of a file on a particular logical disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

/// A processor-private disk holding local array files.
pub struct LogicalDisk {
    backend: Box<dyn StorageBackend>,
    next_id: u64,
    stats: DiskStats,
    cache: Option<SlabCache>,
    pool: BufferPool,
    /// Coalesced-run scratch of every read and write, reused across calls.
    runs: Vec<ByteRun>,
    /// A write's runs in offset order with their payload positions.
    placed: Vec<(ByteRun, usize)>,
    faults: Option<FaultInjector>,
}

/// The fault layer's verdict on one backend read of `len` bytes at
/// `offset`: `Ok` means the read goes ahead.
///
/// Transient faults re-issue the read after an exponential backoff, bounded
/// by the retry policy; the final attempt always succeeds, so only *hard*
/// faults (drawn separately) surface — as [`IoError::PermanentFault`].
/// Recovery work accumulates in the injector and is drained into the clock
/// by [`LogicalDisk`] after each public operation. Every read request —
/// direct run, sieve span or cache miss — passes this one gate.
fn read_gate(faults: Option<&FaultInjector>, file: u64, offset: u64, len: u64) -> Result<()> {
    let Some(fi) = faults else {
        return Ok(());
    };
    if fi.dead() {
        return Err(IoError::DiskDown { file });
    }
    if fi.hard_read() {
        fi.note_fault();
        return Err(IoError::PermanentFault {
            file,
            offset,
            op: FaultOp::Read,
        });
    }
    let max = fi.retry().max_attempts.max(1);
    let mut attempt = 1u32;
    loop {
        match fi.read_attempt() {
            IoFate::Ok | IoFate::Torn => return Ok(()),
            IoFate::Delayed(secs) => {
                fi.note_fault();
                fi.note_wait(secs);
                return Ok(());
            }
            IoFate::Transient => {
                if attempt >= max {
                    return Ok(()); // bounded: the last attempt always succeeds
                }
                fi.note_fault();
                fi.note_read_retry(len, fi.retry().backoff(attempt));
                attempt += 1;
            }
        }
    }
}

/// One backend read, routed through the fault layer when present.
pub(crate) fn backend_read(
    backend: &mut dyn StorageBackend,
    faults: Option<&FaultInjector>,
    file: u64,
    offset: u64,
    buf: &mut [u8],
) -> Result<()> {
    read_gate(faults, file, offset, buf.len() as u64)?;
    backend.read_at(file, offset, buf)
}

/// Drain recovery charges accumulated by the fault layer into `charge`.
fn settle_faults(faults: Option<&FaultInjector>, charge: &dyn IoCharge) {
    if let Some(fi) = faults {
        let c = fi.take_charges();
        if !c.is_zero() {
            charge.io_faults(&c);
        }
    }
}

/// The direct branch of a read of `coalesced` runs: each run passes the
/// fault gate and is then handed to `fetch`, which moves (or lends) its
/// values; the read is then counted, charged and settled. The copying and
/// the lending read both run through here, so their fault draws, stats and
/// charges cannot drift apart. Returns the requests issued.
fn read_direct(
    stats: &mut DiskStats,
    faults: Option<&FaultInjector>,
    file: FileId,
    coalesced: &[ByteRun],
    charge: &dyn IoCharge,
    mut fetch: impl FnMut(&ByteRun) -> Result<()>,
) -> Result<u64> {
    for run in coalesced {
        read_gate(faults, file.0, run.offset, run.len)?;
        fetch(run)?;
    }
    let requests = coalesced.len() as u64;
    let bytes = total_bytes(coalesced);
    stats.add_read(requests, bytes);
    if let Some(first) = coalesced.first() {
        charge.io_offset(first.offset);
    }
    charge.io_read(requests, bytes);
    settle_faults(faults, charge);
    charge.io_wait();
    Ok(requests)
}

/// The fault layer's verdict on one backend write of `len` bytes at
/// `offset`: `Ok` means the write goes ahead.
///
/// The write twin of [`read_gate`]: transient and torn attempts re-issue
/// the write after an exponential backoff, bounded by the retry policy, so
/// only hard faults surface. A torn attempt first deposits the first
/// `len / 2` bytes of the payload through `torn`; the retry re-writes the
/// full extent, so the positional write stays idempotent and the final
/// contents are always the intended bytes. Every write request — direct
/// run, sieve span or cache write-back, byte or `f32` payload — passes
/// this one gate.
fn write_gate(
    faults: Option<&FaultInjector>,
    file: u64,
    offset: u64,
    len: u64,
    mut torn: impl FnMut(usize) -> Result<()>,
) -> Result<()> {
    let Some(fi) = faults else {
        return Ok(());
    };
    if fi.dead() {
        return Err(IoError::DiskDown { file });
    }
    if fi.hard_write() {
        fi.note_fault();
        return Err(IoError::PermanentFault {
            file,
            offset,
            op: FaultOp::Write,
        });
    }
    let max = fi.retry().max_attempts.max(1);
    let mut attempt = 1u32;
    loop {
        let fate = fi.write_attempt();
        match fate {
            IoFate::Ok => return Ok(()),
            IoFate::Delayed(secs) => {
                fi.note_fault();
                fi.note_wait(secs);
                return Ok(());
            }
            IoFate::Transient | IoFate::Torn => {
                if attempt >= max {
                    return Ok(()); // bounded: the last attempt always succeeds
                }
                if fate == IoFate::Torn && len > 0 {
                    // Half the payload reaches the platter before the fault.
                    torn(len as usize / 2)?;
                }
                fi.note_fault();
                fi.note_write_retry(len, fi.retry().backoff(attempt));
                attempt += 1;
            }
        }
    }
}

/// One backend write, routed through the fault layer when present.
pub(crate) fn backend_write(
    backend: &mut dyn StorageBackend,
    faults: Option<&FaultInjector>,
    file: u64,
    offset: u64,
    data: &[u8],
) -> Result<()> {
    write_gate(faults, file, offset, data.len() as u64, |prefix| {
        backend.write_at(file, offset, &data[..prefix])
    })?;
    backend.write_at(file, offset, data)
}

/// [`backend_write`] of `data` as little-endian `f32`s, handed to the
/// backend as values ([`StorageBackend::write_f32_at`]). A torn attempt
/// deposits the same byte prefix the byte write would.
fn backend_write_f32(
    backend: &mut dyn StorageBackend,
    faults: Option<&FaultInjector>,
    file: u64,
    offset: u64,
    data: &[f32],
) -> Result<()> {
    write_gate(faults, file, offset, 4 * data.len() as u64, |prefix| {
        let head = &data[..prefix.div_ceil(4)];
        let mut bytes = vec![0u8; 4 * head.len()];
        encode_f32(head, &mut bytes);
        backend.write_at(file, offset, &bytes[..prefix])
    })?;
    backend.write_f32_at(file, offset, data)
}

impl std::fmt::Debug for LogicalDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogicalDisk")
            .field("next_id", &self.next_id)
            .field("stats", &self.stats)
            .field("cache", &self.cache)
            .finish()
    }
}

impl LogicalDisk {
    /// A disk backed by memory.
    pub fn in_memory() -> Self {
        Self::with_backend(Box::new(MemBackend::new()))
    }

    /// A disk backed by real files in a scratch directory; `label`
    /// distinguishes directories (typically the processor rank).
    pub fn on_disk(label: &str) -> Result<Self> {
        Ok(Self::with_backend(Box::new(
            crate::backend::DiskBackend::new(label)?,
        )))
    }

    /// A disk over an explicit backend.
    pub fn with_backend(backend: Box<dyn StorageBackend>) -> Self {
        LogicalDisk {
            backend,
            next_id: 0,
            stats: DiskStats::default(),
            cache: None,
            pool: BufferPool::new(),
            runs: Vec::new(),
            placed: Vec::new(),
            faults: None,
        }
    }

    /// Enable deterministic fault injection on this disk: requests draw
    /// their fate from a per-`rank` stream derived from `cfg.seed`. With a
    /// quiet config (or no injector at all) the request path is bit-identical
    /// to the fault-free build.
    pub fn enable_faults(&mut self, cfg: &FaultConfig, rank: usize) {
        self.enable_faults_for_job(cfg, 0, rank);
    }

    /// Like [`LogicalDisk::enable_faults`] but for rank `rank` of workload
    /// job `job`: the fate stream is derived from the (job, rank) pair so
    /// concurrent jobs cannot perturb each other's chaos results. Job 0
    /// reproduces the legacy per-rank streams bit-for-bit.
    pub fn enable_faults_for_job(&mut self, cfg: &FaultConfig, job: u32, rank: usize) {
        self.faults = Some(FaultInjector::for_job(cfg, job, rank, FaultDomain::Disk));
    }

    /// The active fault injector, if any.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.faults.as_ref()
    }

    /// True when enough faults accumulated to mark this disk degraded;
    /// planners should re-plan slab sizes against reduced bandwidth.
    pub fn is_degraded(&self) -> bool {
        self.faults.as_ref().is_some_and(|f| f.degraded())
    }

    /// True when the disk's permanent-failure budget
    /// ([`FaultConfig::fail_after`]) is exhausted: every subsequent access
    /// returns [`IoError::DiskDown`] until the workload re-plans the job
    /// onto surviving disks.
    pub fn is_dead(&self) -> bool {
        self.faults.as_ref().is_some_and(|f| f.dead())
    }

    /// Put a slab cache with the given byte budget in front of the backend.
    /// Subsequent run reads/writes go through the cache: covered reads cost
    /// nothing, writes are buffered until eviction or
    /// [`LogicalDisk::flush_cache`]. Replaces any previous cache (flush
    /// first if it may hold dirty data).
    pub fn enable_cache(&mut self, budget: usize) {
        self.cache = Some(SlabCache::new(budget));
    }

    /// True when a slab cache is active.
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// Remember that `file` stores array `name`, so deferred cache
    /// write-backs keep array identity. No-op without a cache.
    pub fn note_array(&mut self, file: FileId, name: &str) {
        if let Some(c) = self.cache.as_mut() {
            c.note_array(file.0, name);
        }
    }

    /// Write back all dirty cached segments, charging each write-back to
    /// `charge`. No-op without a cache.
    pub fn flush_cache(&mut self, charge: &dyn IoCharge) -> Result<()> {
        let LogicalDisk {
            backend,
            cache,
            stats,
            faults,
            ..
        } = self;
        if let Some(c) = cache.as_mut() {
            c.flush(Some(&mut **backend), faults.as_ref(), charge, stats)?;
        }
        settle_faults(self.faults.as_ref(), charge);
        if let Some(c) = self.cache.as_ref() {
            charge.io_cache_level(c.used(), c.dirty_bytes());
        }
        Ok(())
    }

    /// Allocate a new zero-filled file of `len` bytes.
    pub fn create_file(&mut self, len: u64) -> Result<FileId> {
        let id = self.next_id;
        self.next_id += 1;
        self.backend.create(id, len)?;
        Ok(FileId(id))
    }

    /// Length of `file` in bytes.
    pub fn file_len(&self, file: FileId) -> Result<u64> {
        self.backend.len(file.0)
    }

    /// Delete `file`. Cached segments of the file are dropped without
    /// write-back.
    pub fn remove_file(&mut self, file: FileId) -> Result<()> {
        if let Some(c) = self.cache.as_mut() {
            c.invalidate_file(file.0);
        }
        self.backend.remove(file.0)
    }

    /// Cumulative I/O counters for this disk.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// Read the byte `runs` of `file` as little-endian `f32`s into `out`,
    /// replacing its contents in offset order after coalescing. Returns the
    /// number of read requests issued.
    ///
    /// The coalesced runs are serviced by the first branch that applies:
    ///
    /// * **cached** — the slab cache serves each coalesced run: a covered
    ///   run is a free hit, a miss fetches one spanning request over its
    ///   uncovered gap. That already subsumes data sieving, so `policy` is
    ///   not consulted.
    /// * **sieved** — `policy` ([`SievePolicy`]) replaces the runs by one
    ///   spanning request whose unwanted bytes are discarded in memory.
    /// * **direct** — one request per coalesced run, decoded straight out of
    ///   the backend into `out`, which is resized in place: a buffer reused
    ///   at one length is neither reallocated nor refilled.
    ///
    /// Each request (coalesced run or sieve span) passes one fault gate.
    /// Every coalesced run must hold whole elements; one that does not is
    /// [`IoError::BadElementSize`] before any request is issued.
    pub fn read(
        &mut self,
        file: FileId,
        runs: impl IntoIterator<Item = ByteRun>,
        out: &mut Vec<f32>,
        charge: &dyn IoCharge,
        policy: SievePolicy,
    ) -> Result<u64> {
        let mut coalesced = std::mem::take(&mut self.runs);
        coalesce_runs_into(runs, &mut coalesced);
        let read = self.read_coalesced(file, &coalesced, out, charge, policy);
        self.runs = coalesced;
        read
    }

    fn read_coalesced(
        &mut self,
        file: FileId,
        coalesced: &[ByteRun],
        out: &mut Vec<f32>,
        charge: &dyn IoCharge,
        policy: SievePolicy,
    ) -> Result<u64> {
        let bytes = whole_elements(coalesced)?;
        let elems = (bytes / 4) as usize;
        out.truncate(elems);
        out.resize(elems, 0.0);
        let LogicalDisk {
            backend,
            cache,
            stats,
            faults,
            pool,
            ..
        } = self;
        if let Some(cache) = cache.as_mut() {
            let before = stats.read_requests;
            let mut staged = pool.take();
            staged.resize(bytes as usize, 0);
            let mut cursor = 0usize;
            for run in coalesced {
                charge.io_offset(run.offset);
                let buf = &mut staged[cursor..cursor + run.len as usize];
                cache.read(
                    file.0,
                    *run,
                    Some(buf),
                    Some(&mut **backend),
                    faults.as_ref(),
                    charge,
                    stats,
                )?;
                cursor += run.len as usize;
            }
            decode_f32(&staged, out);
            pool.put(staged);
            let requests = stats.read_requests - before;
            self.settle_cache(charge);
            return Ok(requests);
        }
        if let Some(span) = sieve_span(coalesced, policy) {
            let mut staged = pool.take();
            staged.resize(span.len as usize, 0);
            backend_read(
                &mut **backend,
                faults.as_ref(),
                file.0,
                span.offset,
                &mut staged,
            )?;
            sieve_extract(&span, coalesced, &staged, out);
            pool.put(staged);
            stats.add_read(1, span.len);
            charge.io_offset(span.offset);
            charge.io_read(1, span.len);
            charge.io_sieve(span.len, bytes);
            settle_faults(self.faults.as_ref(), charge);
            charge.io_wait();
            return Ok(1);
        }
        let mut cursor = 0usize;
        read_direct(stats, faults.as_ref(), file, coalesced, charge, |run| {
            let n = (run.len / 4) as usize;
            backend.read_f32_at(file.0, run.offset, &mut out[cursor..cursor + n])?;
            cursor += n;
            Ok(())
        })
    }

    /// [`LogicalDisk::read`], lending the values instead of copying them
    /// where it can: a read that coalesces to one element-aligned run of an
    /// uncached in-memory disk returns a slice of the file's own storage
    /// ([`crate::MemBackend::lend_f32`]), and `scratch` is left untouched.
    /// Every other read — cached, sieved, several runs, an unaligned run or
    /// another backend — fills `scratch` through [`LogicalDisk::read`] and
    /// returns it.
    ///
    /// Either way the read is indistinguishable from [`LogicalDisk::read`]:
    /// a lent read runs the copying read's direct branch (one fault gate,
    /// then the same `DiskStats` update and `IoCharge` calls in the same
    /// order), moving no data. A single run is never sieved, so `policy`
    /// only matters for the copy.
    pub fn read_ref<'a>(
        &'a mut self,
        file: FileId,
        runs: impl IntoIterator<Item = ByteRun>,
        scratch: &'a mut Vec<f32>,
        charge: &dyn IoCharge,
        policy: SievePolicy,
    ) -> Result<&'a [f32]> {
        let mut coalesced = std::mem::take(&mut self.runs);
        coalesce_runs_into(runs, &mut coalesced);
        let lendable = match coalesced[..] {
            [run] if run.offset.is_multiple_of(4) && self.cache.is_none() => {
                self.backend.as_mem().map(|_| run)
            }
            _ => None,
        };
        let Some(run) = lendable else {
            let read = self.read_coalesced(file, &coalesced, scratch, charge, policy);
            self.runs = coalesced;
            return read.map(|_| &scratch[..]);
        };
        self.runs = coalesced;
        whole_elements(&[run])?;
        let LogicalDisk {
            backend,
            stats,
            faults,
            ..
        } = self;
        let mem = backend.as_mem().expect("checked lendable above");
        let mut lent: &[f32] = &[];
        read_direct(stats, faults.as_ref(), file, &[run], charge, |run| {
            lent = mem.lend_f32(file.0, run.offset, (run.len / 4) as usize)?;
            Ok(())
        })?;
        Ok(lent)
    }

    /// Write `data` to the byte `runs` of `file`: the payload is consumed in
    /// the caller's run order, each value as 4 little-endian bytes, and the
    /// runs must be disjoint and hold exactly `data.len()` whole elements.
    /// Returns the number of write requests issued.
    ///
    /// The branches mirror [`LogicalDisk::read`]:
    ///
    /// * **cached** — each coalesced run becomes a dirty cache segment,
    ///   charged when it is written back (eviction or
    ///   [`LogicalDisk::flush_cache`]).
    /// * **sieved** — one read-modify-write of the spanning extent: one read
    ///   and one write request instead of one write per run.
    /// * **direct** — one charged request per coalesced run, while each
    ///   *original* non-empty run passes its own fault gate, in offset
    ///   order, and is written straight from its slice of `data`.
    ///
    /// The cached and sieved branches consume the payload encoded in offset
    /// order; the direct branch encodes nothing, so on an in-memory disk
    /// each value crosses memory once.
    pub fn write(
        &mut self,
        file: FileId,
        runs: impl IntoIterator<Item = ByteRun>,
        data: &[f32],
        charge: &dyn IoCharge,
        policy: SievePolicy,
    ) -> Result<u64> {
        let mut placed = std::mem::take(&mut self.placed);
        let mut coalesced = std::mem::take(&mut self.runs);
        let written = place_runs(runs, &mut placed).and_then(|elems| {
            assert_eq!(
                elems,
                data.len(),
                "write data length {} does not match run total {elems}",
                data.len()
            );
            coalesce_runs_into(placed.iter().map(|&(run, _)| run), &mut coalesced);
            assert_eq!(
                total_bytes(&coalesced),
                4 * elems as u64,
                "overlapping write runs are not allowed"
            );
            self.write_placed(file, &placed, &coalesced, data, charge, policy)
        });
        self.runs = coalesced;
        self.placed = placed;
        written
    }

    /// [`LogicalDisk::write`] of validated `placed` runs. The cached and
    /// sieved branches first encode `data` in offset order into a pooled
    /// buffer.
    fn write_placed(
        &mut self,
        file: FileId,
        placed: &[(ByteRun, usize)],
        coalesced: &[ByteRun],
        data: &[f32],
        charge: &dyn IoCharge,
        policy: SievePolicy,
    ) -> Result<u64> {
        let LogicalDisk {
            backend,
            cache,
            stats,
            faults,
            pool,
            ..
        } = self;
        if let Some(cache) = cache.as_mut() {
            let mut payload = pool.take();
            sort_write_data(placed, data, &mut payload);
            let before = stats.write_requests;
            let mut cursor = 0usize;
            for run in coalesced {
                charge.io_offset(run.offset);
                let src = &payload[cursor..cursor + run.len as usize];
                cache.write(
                    file.0,
                    *run,
                    Some(src),
                    Some(&mut **backend),
                    faults.as_ref(),
                    charge,
                    stats,
                )?;
                cursor += run.len as usize;
            }
            pool.put(payload);
            let requests = stats.write_requests - before;
            self.settle_cache(charge);
            return Ok(requests);
        }
        if let Some(span) = sieve_span(coalesced, policy) {
            let mut payload = pool.take();
            sort_write_data(placed, data, &mut payload);
            let mut staged = pool.take();
            staged.resize(span.len as usize, 0);
            backend_read(
                &mut **backend,
                faults.as_ref(),
                file.0,
                span.offset,
                &mut staged,
            )?;
            sieve_scatter(&span, coalesced, &mut staged, &payload);
            pool.put(payload);
            backend_write(
                &mut **backend,
                faults.as_ref(),
                file.0,
                span.offset,
                &staged,
            )?;
            pool.put(staged);
            stats.add_read(1, span.len);
            stats.add_write(1, span.len);
            charge.io_offset(span.offset);
            charge.io_read(1, span.len);
            charge.io_offset(span.offset);
            charge.io_write(1, span.len);
            charge.io_sieve(span.len, 4 * data.len() as u64);
            settle_faults(self.faults.as_ref(), charge);
            charge.io_wait();
            return Ok(2);
        }
        for &(run, at) in placed {
            let src = &data[at..at + (run.len / 4) as usize];
            backend_write_f32(&mut **backend, faults.as_ref(), file.0, run.offset, src)?;
        }
        let (requests, bytes) = (coalesced.len() as u64, 4 * data.len() as u64);
        stats.add_write(requests, bytes);
        if let Some(first) = coalesced.first() {
            charge.io_offset(first.offset);
        }
        charge.io_write(requests, bytes);
        settle_faults(self.faults.as_ref(), charge);
        charge.io_wait();
        Ok(requests)
    }

    /// Close a cached access: drain fault charges, then report occupancy.
    fn settle_cache(&self, charge: &dyn IoCharge) {
        settle_faults(self.faults.as_ref(), charge);
        if let Some(c) = self.cache.as_ref() {
            charge.io_cache_level(c.used(), c.dirty_bytes());
        }
    }
}

/// Total bytes of `runs`, each of which must hold whole `f32`s.
fn whole_elements(runs: &[ByteRun]) -> Result<u64> {
    match runs.iter().find(|r| r.len % 4 != 0) {
        Some(run) => Err(IoError::BadElementSize {
            bytes: run.len as usize,
            elem: 4,
        }),
        None => Ok(total_bytes(runs)),
    }
}

/// Fill `placed` with the non-empty `runs` in offset order, each paired
/// with the index of its first element in the caller-ordered payload.
/// Returns the payload length the runs hold.
fn place_runs(
    runs: impl IntoIterator<Item = ByteRun>,
    placed: &mut Vec<(ByteRun, usize)>,
) -> Result<usize> {
    placed.clear();
    let mut elems = 0usize;
    for run in runs {
        whole_elements(&[run])?;
        if run.len > 0 {
            placed.push((run, elems));
            elems += (run.len / 4) as usize;
        }
    }
    // Payload positions break offset ties in caller order, so the
    // non-allocating unstable sort is stable here.
    placed.sort_unstable_by_key(|&(run, at)| (run.offset, at));
    Ok(elems)
}

/// Encode the payload of `placed` runs into `out` in offset order — what
/// the cached and sieved write branches consume.
fn sort_write_data(placed: &[(ByteRun, usize)], data: &[f32], out: &mut Vec<u8>) {
    out.resize(4 * data.len(), 0);
    let mut cursor = 0usize;
    for &(run, at) in placed {
        let n = (run.len / 4) as usize;
        encode_f32(&data[at..at + n], &mut out[cursor..cursor + 4 * n]);
        cursor += 4 * n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoCharge;

    /// Read one extent of `len` bytes at `offset`, unsieved.
    fn read_extent(
        d: &mut LogicalDisk,
        f: FileId,
        offset: u64,
        len: u64,
        charge: &dyn IoCharge,
    ) -> Result<Vec<f32>> {
        let mut out = Vec::new();
        d.read(
            f,
            [ByteRun::new(offset, len)],
            &mut out,
            charge,
            SievePolicy::Direct,
        )?;
        Ok(out)
    }

    /// Write `data` as one extent at `offset`, unsieved.
    fn write_extent(
        d: &mut LogicalDisk,
        f: FileId,
        offset: u64,
        data: &[f32],
        charge: &dyn IoCharge,
    ) -> Result<u64> {
        let run = ByteRun::new(offset, 4 * data.len() as u64);
        d.write(f, [run], data, charge, SievePolicy::Direct)
    }

    #[test]
    fn create_read_write_roundtrip() {
        let mut d = LogicalDisk::in_memory();
        let f = d.create_file(64).unwrap();
        write_extent(&mut d, f, 8, &[1.0, 2.0], &NoCharge).unwrap();
        let got = read_extent(&mut d, f, 4, 16, &NoCharge).unwrap();
        assert_eq!(got, vec![0.0, 1.0, 2.0, 0.0]);
        assert_eq!(d.file_len(f).unwrap(), 64);
    }

    #[test]
    fn request_counting_respects_coalescing() {
        let mut d = LogicalDisk::in_memory();
        let f = d.create_file(100).unwrap();
        let runs = [ByteRun::new(0, 8), ByteRun::new(8, 8), ByteRun::new(40, 8)];
        let mut out = Vec::new();
        let reqs = d
            .read(f, runs, &mut out, &NoCharge, SievePolicy::Direct)
            .unwrap();
        assert_eq!(reqs, 2, "adjacent runs coalesce into one request");
        assert_eq!(out.len(), 6);
        assert_eq!(d.stats().read_requests, 2);
        assert_eq!(d.stats().bytes_read, 24);
    }

    #[test]
    fn strided_write_lands_in_right_places() {
        let mut d = LogicalDisk::in_memory();
        let f = d.create_file(64).unwrap();
        // Write [1,2] at element 12 and [3,4] at element 2, in that run order.
        let runs = [ByteRun::new(48, 8), ByteRun::new(8, 8)];
        d.write(
            f,
            runs,
            &[1.0, 2.0, 3.0, 4.0],
            &NoCharge,
            SievePolicy::Direct,
        )
        .unwrap();
        let all = read_extent(&mut d, f, 0, 64, &NoCharge).unwrap();
        assert_eq!(all[12..14], [1.0, 2.0]);
        assert_eq!(all[2..4], [3.0, 4.0]);
        assert_eq!(d.stats().write_requests, 2);
    }

    #[test]
    fn a_run_of_partial_elements_is_a_typed_error_before_any_request() {
        let mut d = LogicalDisk::in_memory();
        let f = d.create_file(64).unwrap();
        let mut out = Vec::new();
        let err = d
            .read(
                f,
                [ByteRun::new(0, 6)],
                &mut out,
                &NoCharge,
                SievePolicy::Direct,
            )
            .unwrap_err();
        assert!(
            matches!(err, IoError::BadElementSize { bytes: 6, elem: 4 }),
            "{err:?}"
        );
        let err = d
            .write(f, [ByteRun::new(0, 2)], &[], &NoCharge, SievePolicy::Direct)
            .unwrap_err();
        assert!(
            matches!(err, IoError::BadElementSize { bytes: 2, .. }),
            "{err:?}"
        );
        assert_eq!(d.stats(), DiskStats::default());
    }

    /// A disk of one 64-element file holding `i as f32 * 0.5` at element
    /// `i`, built by `make`.
    fn filled(make: fn() -> LogicalDisk) -> (LogicalDisk, FileId) {
        let mut d = make();
        let f = d.create_file(256).unwrap();
        let data: Vec<f32> = (0..64).map(|i| i as f32 * 0.5).collect();
        write_extent(&mut d, f, 0, &data, &NoCharge).unwrap();
        (d, f)
    }

    #[test]
    fn a_direct_single_run_read_is_lent_from_the_files_storage() {
        let (mut d, f) = filled(LogicalDisk::in_memory);
        let storage = d.backend.as_mem().unwrap().lend_f32(f.0, 0, 64).unwrap();
        let storage = storage.as_ptr_range();
        let mut scratch = Vec::new();
        for policy in [SievePolicy::Direct, SievePolicy::Always] {
            // Two adjacent runs coalesce into one, which lends.
            let runs = [ByteRun::new(40, 8), ByteRun::new(48, 16)];
            let lent = d
                .read_ref(f, runs, &mut scratch, &NoCharge, policy)
                .unwrap();
            assert_eq!(lent, [5.0, 5.5, 6.0, 6.5, 7.0, 7.5]);
            assert!(storage.contains(&lent.as_ptr()), "{policy:?}: copied");
        }
        assert!(scratch.is_empty(), "a lent read leaves the scratch alone");
        assert_eq!(d.stats().read_requests, 2);
        assert_eq!(d.stats().bytes_read, 48);
    }

    #[test]
    fn every_other_read_falls_back_to_the_copy_with_the_same_result() {
        let on_disk = || LogicalDisk::on_disk("lend").unwrap();
        let cached = || {
            let mut d = LogicalDisk::in_memory();
            d.enable_cache(64);
            d
        };
        let strided = [ByteRun::new(0, 8), ByteRun::new(32, 8)];
        type Case<'a> = (&'a str, fn() -> LogicalDisk, &'a [ByteRun], SievePolicy);
        let cases: [Case; 6] = [
            (
                "cached",
                cached,
                &[ByteRun::new(8, 16)],
                SievePolicy::Direct,
            ),
            (
                "sieved",
                LogicalDisk::in_memory,
                &strided,
                SievePolicy::Always,
            ),
            (
                "multi-run",
                LogicalDisk::in_memory,
                &strided,
                SievePolicy::Direct,
            ),
            (
                "file backend",
                on_disk,
                &[ByteRun::new(8, 16)],
                SievePolicy::Direct,
            ),
            (
                "unaligned",
                LogicalDisk::in_memory,
                &[ByteRun::new(2, 8)],
                SievePolicy::Direct,
            ),
            (
                "out of bounds",
                LogicalDisk::in_memory,
                &[ByteRun::new(248, 16)],
                SievePolicy::Direct,
            ),
        ];
        for (name, make, runs, policy) in cases {
            let (mut copying, f) = filled(make);
            let (mut lending, _) = filled(make);
            let (sink, lent_sink) = (FaultSink::default(), FaultSink::default());
            let mut out = Vec::new();
            let copied = copying.read(f, runs.iter().copied(), &mut out, &sink, policy);
            let mut scratch = Vec::new();
            let lent = lending
                .read_ref(f, runs.iter().copied(), &mut scratch, &lent_sink, policy)
                .map(|v| (v.to_vec(), v.as_ptr()));
            match (copied, lent) {
                (Ok(_), Ok((values, at))) => {
                    assert_eq!(values, out, "{name}");
                    assert_eq!(at, scratch.as_ptr(), "{name}: not read into the scratch");
                }
                (Err(c), Err(l)) => assert_eq!(format!("{l:?}"), format!("{c:?}"), "{name}"),
                (c, l) => panic!("{name}: copied {c:?}, lent {l:?}"),
            }
            assert_eq!(lending.stats(), copying.stats(), "{name}");
            assert_eq!(lent_sink.logical.get(), sink.logical.get(), "{name}");
        }
    }

    #[test]
    fn file_ids_are_unique() {
        let mut d = LogicalDisk::in_memory();
        let a = d.create_file(8).unwrap();
        let b = d.create_file(8).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn remove_file_frees_id_space_use() {
        let mut d = LogicalDisk::in_memory();
        let a = d.create_file(8).unwrap();
        d.remove_file(a).unwrap();
        assert!(d.file_len(a).is_err());
    }

    #[test]
    fn charges_flow_to_sink() {
        use std::cell::Cell;
        #[derive(Default)]
        struct Counting {
            reads: Cell<(u64, u64)>,
            writes: Cell<(u64, u64)>,
        }
        impl IoCharge for Counting {
            fn io_read(&self, r: u64, b: u64) {
                let (cr, cb) = self.reads.get();
                self.reads.set((cr + r, cb + b));
            }
            fn io_write(&self, r: u64, b: u64) {
                let (cr, cb) = self.writes.get();
                self.writes.set((cr + r, cb + b));
            }
        }
        let sink = Counting::default();
        let mut d = LogicalDisk::in_memory();
        let f = d.create_file(100).unwrap();
        write_extent(&mut d, f, 0, &[9.0; 3], &sink).unwrap();
        let _ = read_extent(&mut d, f, 0, 20, &sink).unwrap();
        assert_eq!(sink.writes.get(), (1, 12));
        assert_eq!(sink.reads.get(), (1, 20));
    }

    /// Sink that records fault charges alongside logical charges.
    #[derive(Default)]
    struct FaultSink {
        logical: std::cell::Cell<(u64, u64)>,
        faults: std::cell::Cell<dmsim::FaultCharges>,
    }
    impl IoCharge for FaultSink {
        fn io_read(&self, r: u64, b: u64) {
            let (cr, cb) = self.logical.get();
            self.logical.set((cr + r, cb + b));
        }
        fn io_write(&self, r: u64, b: u64) {
            let (cr, cb) = self.logical.get();
            self.logical.set((cr + r, cb + b));
        }
        fn io_faults(&self, charges: &dmsim::FaultCharges) {
            let mut c = self.faults.get();
            c.faults += charges.faults;
            c.read_retries += charges.read_retries;
            c.read_retry_bytes += charges.read_retry_bytes;
            c.write_retries += charges.write_retries;
            c.write_retry_bytes += charges.write_retry_bytes;
            c.wait_secs += charges.wait_secs;
            self.faults.set(c);
        }
    }

    #[test]
    fn transient_faults_leave_data_and_logical_counts_intact() {
        let chaos = FaultConfig::chaos(7);
        let sink = FaultSink::default();
        let mut d = LogicalDisk::in_memory();
        d.enable_faults(&chaos, 0);
        let f = d.create_file(4096).unwrap();
        let pattern: Vec<f32> = (0..1024u32).map(|i| (i % 251) as f32).collect();
        for chunk in 0..16usize {
            let part = &pattern[chunk * 64..][..64];
            write_extent(&mut d, f, chunk as u64 * 256, part, &sink).unwrap();
        }
        let got = read_extent(&mut d, f, 0, 4096, &sink).unwrap();
        assert_eq!(got, pattern, "faults never change the stored bytes");
        // Logical counts match a fault-free disk doing the same accesses.
        let clean_sink = FaultSink::default();
        let mut clean = LogicalDisk::in_memory();
        let cf = clean.create_file(4096).unwrap();
        for chunk in 0..16usize {
            let part = &pattern[chunk * 64..][..64];
            write_extent(&mut clean, cf, chunk as u64 * 256, part, &clean_sink).unwrap();
        }
        let _ = read_extent(&mut clean, cf, 0, 4096, &clean_sink).unwrap();
        assert_eq!(
            d.stats(),
            clean.stats(),
            "logical I/O metrics are fault-blind"
        );
        assert_eq!(sink.logical.get(), clean_sink.logical.get());
        // With a 5% read / 4% write error rate over 17 accesses, this seed
        // injects at least one fault; the recovery cost lands in io_faults.
        let fc = sink.faults.get();
        assert!(
            fc.faults > 0,
            "chaos(7) should inject at least one fault here"
        );
        assert!(clean_sink.faults.get().is_zero());
    }

    #[test]
    fn quiet_faults_draw_nothing_and_charge_nothing() {
        let quiet = FaultConfig::quiet(99);
        let sink = FaultSink::default();
        let mut d = LogicalDisk::in_memory();
        d.enable_faults(&quiet, 3);
        let f = d.create_file(128).unwrap();
        write_extent(&mut d, f, 0, &[5.0; 32], &sink).unwrap();
        let _ = read_extent(&mut d, f, 0, 128, &sink).unwrap();
        assert!(sink.faults.get().is_zero());
        assert_eq!(d.fault_injector().unwrap().faults_seen(), 0);
    }

    #[test]
    fn hard_faults_surface_as_permanent_errors() {
        let cfg = FaultConfig {
            hard_read: 1.0,
            ..FaultConfig::quiet(1)
        };
        let mut d = LogicalDisk::in_memory();
        d.enable_faults(&cfg, 0);
        let f = d.create_file(64).unwrap();
        let err = read_extent(&mut d, f, 0, 8, &NoCharge).unwrap_err();
        assert!(
            matches!(
                err,
                IoError::PermanentFault {
                    op: FaultOp::Read,
                    ..
                }
            ),
            "{err}"
        );
        // Quiescing hard faults (checkpoint/restart recovery) lets the same
        // request succeed.
        d.fault_injector().unwrap().quiesce_hard();
        assert!(read_extent(&mut d, f, 0, 8, &NoCharge).is_ok());
    }

    #[test]
    fn disk_dies_permanently_after_its_fault_budget() {
        // Every attempt is transient-faulted, and the second injected fault
        // kills the disk for good.
        let cfg = FaultConfig {
            read_error: 1.0,
            fail_after: 2,
            ..FaultConfig::quiet(3)
        };
        let mut d = LogicalDisk::in_memory();
        d.enable_faults(&cfg, 0);
        let f = d.create_file(64).unwrap();
        assert!(!d.is_dead());
        // First access injects retries until the budget trips.
        let r = read_extent(&mut d, f, 0, 8, &NoCharge);
        let died_immediately = r.is_err();
        let mut hits = 0;
        while !d.is_dead() && hits < 16 {
            let _ = read_extent(&mut d, f, 0, 8, &NoCharge);
            hits += 1;
        }
        assert!(d.is_dead(), "fault budget of 2 must trip the death gate");
        let err = read_extent(&mut d, f, 0, 8, &NoCharge).unwrap_err();
        assert!(matches!(err, IoError::DiskDown { .. }), "{err}");
        let werr = write_extent(&mut d, f, 0, &[1.0], &NoCharge).unwrap_err();
        assert!(matches!(werr, IoError::DiskDown { .. }), "{werr}");
        // Unlike hard faults, quiescing does not resurrect a dead disk.
        d.fault_injector().unwrap().quiesce_hard();
        assert!(read_extent(&mut d, f, 0, 8, &NoCharge).is_err());
        let _ = died_immediately;
    }

    #[test]
    fn torn_writes_end_with_the_full_payload_on_disk() {
        let cfg = FaultConfig {
            seed: 11,
            torn_write: 1.0,
            ..FaultConfig::default()
        };
        let mut d = LogicalDisk::in_memory();
        d.enable_faults(&cfg, 0);
        let f = d.create_file(64).unwrap();
        let sink = FaultSink::default();
        write_extent(&mut d, f, 0, &[0.5; 8], &sink).unwrap();
        let got = read_extent(&mut d, f, 0, 32, &sink).unwrap();
        assert_eq!(got, vec![0.5; 8], "torn write is repaired by the retry");
        assert!(sink.faults.get().write_retries > 0);
    }
}
