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

use crate::backend::{MemBackend, StorageBackend};
use crate::cache::{BufferPool, SlabCache};
use crate::error::{FaultOp, IoError, Result};
use crate::laf::decode_f32_into;
use crate::request::{coalesce_runs, coalesce_runs_into, total_bytes, ByteRun};
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
    /// Coalesced-run scratch of the `f32` read path, reused across reads.
    runs: Vec<ByteRun>,
    faults: Option<FaultInjector>,
}

/// The fault layer's verdict on one backend read of `len` bytes at
/// `offset`: `Ok` means the read goes ahead.
///
/// Transient faults re-issue the read after an exponential backoff, bounded
/// by the retry policy; the final attempt always succeeds, so only *hard*
/// faults (drawn separately) surface — as [`IoError::PermanentFault`].
/// Recovery work accumulates in the injector and is drained into the clock
/// by [`LogicalDisk`] after each public operation. Byte and `f32` reads
/// share this one gate, so both draw the same fates per request.
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

/// One backend read decoded as `f32`s, routed through the fault layer when
/// present: the same fates as [`backend_read`] of `4 * out.len()` bytes.
fn backend_read_f32(
    backend: &mut dyn StorageBackend,
    faults: Option<&FaultInjector>,
    file: u64,
    offset: u64,
    out: &mut [f32],
) -> Result<()> {
    read_gate(faults, file, offset, out.len() as u64 * 4)?;
    backend.read_f32_at(file, offset, out)
}

/// One backend write, routed through the fault layer when present.
///
/// A torn write deposits a prefix of the payload before failing; the retry
/// re-writes the full extent, so the positional write stays idempotent and
/// the final contents are always the intended bytes.
pub(crate) fn backend_write(
    backend: &mut dyn StorageBackend,
    faults: Option<&FaultInjector>,
    file: u64,
    offset: u64,
    data: &[u8],
) -> Result<()> {
    let Some(fi) = faults else {
        return backend.write_at(file, offset, data);
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
            IoFate::Ok => break,
            IoFate::Delayed(secs) => {
                fi.note_fault();
                fi.note_wait(secs);
                break;
            }
            IoFate::Transient | IoFate::Torn => {
                if attempt >= max {
                    break;
                }
                if fate == IoFate::Torn && !data.is_empty() {
                    // Half the payload reaches the platter before the fault.
                    backend.write_at(file, offset, &data[..data.len() / 2])?;
                }
                fi.note_fault();
                fi.note_write_retry(data.len() as u64, fi.retry().backoff(attempt));
                attempt += 1;
            }
        }
    }
    backend.write_at(file, offset, data)
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

    /// Drain recovery charges accumulated by the fault layer into `charge`.
    fn settle_faults(&self, charge: &dyn IoCharge) {
        if let Some(fi) = &self.faults {
            let c = fi.take_charges();
            if !c.is_zero() {
                charge.io_faults(&c);
            }
        }
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
        self.settle_faults(charge);
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

    /// Read the byte `runs` of `file` into `out` (appended in run order,
    /// after coalescing). Charges one request per coalesced run.
    ///
    /// Returns the number of requests issued.
    pub fn read_runs(
        &mut self,
        file: FileId,
        runs: &[ByteRun],
        out: &mut Vec<u8>,
        charge: &dyn IoCharge,
    ) -> Result<u64> {
        self.read_runs_with(file, runs, out, charge, crate::sieve::SievePolicy::Direct)
    }

    /// Like [`LogicalDisk::read_runs`] but the access may be serviced by
    /// data sieving according to `policy`: one spanning request whose
    /// unwanted bytes are discarded in memory. The charged request/byte
    /// counts reflect what actually moved.
    pub fn read_runs_with(
        &mut self,
        file: FileId,
        runs: &[ByteRun],
        out: &mut Vec<u8>,
        charge: &dyn IoCharge,
        policy: crate::sieve::SievePolicy,
    ) -> Result<u64> {
        use crate::sieve::{plan_access, sieve_extract, AccessPlan};
        // With a slab cache the sieve is bypassed: the cache's miss handling
        // already issues one spanning request per uncovered gap, which
        // subsumes data sieving while also capturing reuse.
        if self.cache.is_some() {
            let coalesced = coalesce_runs(runs);
            let bytes = total_bytes(&coalesced);
            let start = out.len();
            out.resize(start + bytes as usize, 0);
            let LogicalDisk {
                backend,
                cache,
                stats,
                faults,
                ..
            } = self;
            let cache = cache.as_mut().expect("cache checked above");
            let before = stats.read_requests;
            let mut cursor = start;
            for run in &coalesced {
                charge.io_offset(run.offset);
                let buf = &mut out[cursor..cursor + run.len as usize];
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
            self.settle_faults(charge);
            let c = self.cache.as_ref().expect("cache checked above");
            charge.io_cache_level(c.used(), c.dirty_bytes());
            return Ok(self.stats.read_requests - before);
        }
        match plan_access(runs, policy) {
            AccessPlan::Direct(coalesced) => {
                let start = out.len();
                out.resize(start + total_bytes(&coalesced) as usize, 0);
                let mut cursor = start;
                for run in &coalesced {
                    let buf = &mut out[cursor..cursor + run.len as usize];
                    backend_read(
                        &mut *self.backend,
                        self.faults.as_ref(),
                        file.0,
                        run.offset,
                        buf,
                    )?;
                    cursor += run.len as usize;
                }
                Ok(self.charge_direct_read(&coalesced, charge))
            }
            AccessPlan::Sieved { span, useful } => {
                let mut span_buf = self.pool.take();
                span_buf.resize(span.len as usize, 0);
                backend_read(
                    &mut *self.backend,
                    self.faults.as_ref(),
                    file.0,
                    span.offset,
                    &mut span_buf,
                )?;
                out.extend(sieve_extract(&span, &useful, &span_buf));
                self.pool.put(span_buf);
                self.stats.add_read(1, span.len);
                charge.io_offset(span.offset);
                charge.io_read(1, span.len);
                charge.io_sieve(span.len, total_bytes(&useful));
                self.settle_faults(charge);
                charge.io_wait();
                Ok(1)
            }
        }
    }

    /// Count and charge a completed direct read of `coalesced` runs.
    fn charge_direct_read(&mut self, coalesced: &[ByteRun], charge: &dyn IoCharge) -> u64 {
        let (requests, bytes) = (coalesced.len() as u64, total_bytes(coalesced));
        self.stats.add_read(requests, bytes);
        if let Some(first) = coalesced.first() {
            charge.io_offset(first.offset);
        }
        charge.io_read(requests, bytes);
        self.settle_faults(charge);
        charge.io_wait();
        requests
    }

    /// Read the byte `runs` of `file` as little-endian `f32`s into `out`,
    /// replacing its contents: [`LogicalDisk::read_runs_with`] decoded,
    /// with the same requests, charges, fault draws and errors.
    ///
    /// On the direct, uncached path every element is decoded straight out
    /// of the backend into `out`, which is resized in place — a buffer
    /// reused at one length is neither reallocated nor refilled. Sieved and
    /// cached reads stage through a pooled byte buffer and decode.
    pub fn read_f32_runs_with(
        &mut self,
        file: FileId,
        runs: impl IntoIterator<Item = ByteRun>,
        out: &mut Vec<f32>,
        charge: &dyn IoCharge,
        policy: crate::sieve::SievePolicy,
    ) -> Result<u64> {
        let mut coalesced = std::mem::take(&mut self.runs);
        coalesce_runs_into(runs, &mut coalesced);
        let read = self.read_f32_coalesced(file, &coalesced, out, charge, policy);
        self.runs = coalesced;
        read
    }

    fn read_f32_coalesced(
        &mut self,
        file: FileId,
        coalesced: &[ByteRun],
        out: &mut Vec<f32>,
        charge: &dyn IoCharge,
        policy: crate::sieve::SievePolicy,
    ) -> Result<u64> {
        let direct = self.cache.is_none()
            && crate::sieve::sieve_span(coalesced, policy).is_none()
            && coalesced.iter().all(|r| r.len % 4 == 0);
        if !direct {
            let mut bytes = self.pool.take();
            let read = self
                .read_runs_with(file, coalesced, &mut bytes, charge, policy)
                .and_then(|requests| decode_f32_into(&bytes, out).map(|()| requests));
            self.pool.put(bytes);
            return read;
        }
        let elems = (total_bytes(coalesced) / 4) as usize;
        out.truncate(elems);
        out.resize(elems, 0.0);
        let mut cursor = 0usize;
        for run in coalesced {
            let n = (run.len / 4) as usize;
            backend_read_f32(
                &mut *self.backend,
                self.faults.as_ref(),
                file.0,
                run.offset,
                &mut out[cursor..cursor + n],
            )?;
            cursor += n;
        }
        Ok(self.charge_direct_read(coalesced, charge))
    }

    /// Like [`LogicalDisk::write_runs`] but a strided write may be serviced
    /// by sieving: read the spanning extent, scatter the new values into
    /// it, and write the span back (one read + one write request instead of
    /// one write per run).
    pub fn write_runs_with(
        &mut self,
        file: FileId,
        runs: &[ByteRun],
        data: &[u8],
        charge: &dyn IoCharge,
        policy: crate::sieve::SievePolicy,
    ) -> Result<u64> {
        use crate::sieve::{plan_access, sieve_scatter, AccessPlan};
        if self.cache.is_some() {
            return self.write_runs(file, runs, data, charge);
        }
        match plan_access(runs, policy) {
            AccessPlan::Direct(_) => self.write_runs(file, runs, data, charge),
            AccessPlan::Sieved { span, useful } => {
                // The useful runs are coalesced+sorted; reorder `data` from
                // the caller's run order into sorted order first.
                let sorted = sort_write_data(runs, data);
                let mut span_buf = self.pool.take();
                span_buf.resize(span.len as usize, 0);
                backend_read(
                    &mut *self.backend,
                    self.faults.as_ref(),
                    file.0,
                    span.offset,
                    &mut span_buf,
                )?;
                let updated = sieve_scatter(&span, &useful, span_buf, &sorted);
                backend_write(
                    &mut *self.backend,
                    self.faults.as_ref(),
                    file.0,
                    span.offset,
                    &updated,
                )?;
                self.pool.put(updated);
                self.stats.add_read(1, span.len);
                self.stats.add_write(1, span.len);
                charge.io_offset(span.offset);
                charge.io_read(1, span.len);
                charge.io_offset(span.offset);
                charge.io_write(1, span.len);
                charge.io_sieve(span.len, total_bytes(&useful));
                self.settle_faults(charge);
                charge.io_wait();
                Ok(2)
            }
        }
    }

    /// Write `data` to the byte `runs` of `file` (consumed in run order,
    /// after coalescing; total run length must equal `data.len()`).
    /// Charges one request per coalesced run.
    ///
    /// Write runs must be disjoint — merging overlapping writes would change
    /// the stored bytes.
    pub fn write_runs(
        &mut self,
        file: FileId,
        runs: &[ByteRun],
        data: &[u8],
        charge: &dyn IoCharge,
    ) -> Result<u64> {
        let coalesced = coalesce_runs(runs);
        let bytes = total_bytes(&coalesced);
        debug_assert_eq!(
            bytes,
            total_bytes(runs),
            "overlapping write runs are not allowed"
        );
        assert_eq!(
            bytes as usize,
            data.len(),
            "write data length {} does not match run total {}",
            data.len(),
            bytes
        );
        if self.cache.is_some() {
            // Buffer each coalesced run as a dirty cache segment; the
            // requests are charged at write-back time.
            let sorted = sort_write_data(runs, data);
            let LogicalDisk {
                backend,
                cache,
                stats,
                faults,
                ..
            } = self;
            let cache = cache.as_mut().expect("cache checked above");
            let before = stats.write_requests;
            let mut cursor = 0usize;
            for run in &coalesced {
                charge.io_offset(run.offset);
                let src = &sorted[cursor..cursor + run.len as usize];
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
            self.settle_faults(charge);
            let c = self.cache.as_ref().expect("cache checked above");
            charge.io_cache_level(c.used(), c.dirty_bytes());
            return Ok(self.stats.write_requests - before);
        }
        // The coalesced runs are sorted by offset, but `data` is laid out in
        // the *original* run order; build the mapping original -> data.
        let mut sorted_idx: Vec<usize> = (0..runs.len()).filter(|&i| runs[i].len > 0).collect();
        sorted_idx.sort_by_key(|&i| runs[i].offset);
        let mut data_offsets = vec![0usize; runs.len()];
        let mut acc = 0usize;
        for (i, run) in runs.iter().enumerate() {
            data_offsets[i] = acc;
            acc += run.len as usize;
        }
        for &i in &sorted_idx {
            let run = runs[i];
            let src = &data[data_offsets[i]..data_offsets[i] + run.len as usize];
            backend_write(
                &mut *self.backend,
                self.faults.as_ref(),
                file.0,
                run.offset,
                src,
            )?;
        }
        let requests = coalesced.len() as u64;
        self.stats.add_write(requests, bytes);
        if let Some(first) = coalesced.first() {
            charge.io_offset(first.offset);
        }
        charge.io_write(requests, bytes);
        self.settle_faults(charge);
        charge.io_wait();
        Ok(requests)
    }

    /// Convenience: read one contiguous extent.
    pub fn read_extent(
        &mut self,
        file: FileId,
        offset: u64,
        len: u64,
        charge: &dyn IoCharge,
    ) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.read_runs(file, &[ByteRun::new(offset, len)], &mut out, charge)?;
        Ok(out)
    }

    /// Convenience: write one contiguous extent.
    pub fn write_extent(
        &mut self,
        file: FileId,
        offset: u64,
        data: &[u8],
        charge: &dyn IoCharge,
    ) -> Result<()> {
        self.write_runs(
            file,
            &[ByteRun::new(offset, data.len() as u64)],
            data,
            charge,
        )?;
        Ok(())
    }
}

/// Reorder write payload bytes from the caller's run order into
/// offset-sorted run order (what the coalesced/sieved paths consume).
fn sort_write_data(runs: &[ByteRun], data: &[u8]) -> Vec<u8> {
    let mut data_offsets = Vec::with_capacity(runs.len());
    let mut acc = 0usize;
    for run in runs {
        data_offsets.push(acc);
        acc += run.len as usize;
    }
    debug_assert_eq!(acc, data.len());
    let mut idx: Vec<usize> = (0..runs.len()).filter(|&i| runs[i].len > 0).collect();
    idx.sort_by_key(|&i| runs[i].offset);
    let mut out = Vec::with_capacity(data.len());
    for i in idx {
        let s = data_offsets[i];
        out.extend_from_slice(&data[s..s + runs[i].len as usize]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoCharge;

    #[test]
    fn create_read_write_roundtrip() {
        let mut d = LogicalDisk::in_memory();
        let f = d.create_file(64).unwrap();
        d.write_extent(f, 8, &[1, 2, 3, 4], &NoCharge).unwrap();
        let got = d.read_extent(f, 6, 8, &NoCharge).unwrap();
        assert_eq!(got, vec![0, 0, 1, 2, 3, 4, 0, 0]);
        assert_eq!(d.file_len(f).unwrap(), 64);
    }

    #[test]
    fn request_counting_respects_coalescing() {
        let mut d = LogicalDisk::in_memory();
        let f = d.create_file(100).unwrap();
        let runs = [
            ByteRun::new(0, 10),
            ByteRun::new(10, 10),
            ByteRun::new(50, 10),
        ];
        let mut out = Vec::new();
        let reqs = d.read_runs(f, &runs, &mut out, &NoCharge).unwrap();
        assert_eq!(reqs, 2, "adjacent runs coalesce into one request");
        assert_eq!(out.len(), 30);
        assert_eq!(d.stats().read_requests, 2);
        assert_eq!(d.stats().bytes_read, 30);
    }

    #[test]
    fn strided_write_lands_in_right_places() {
        let mut d = LogicalDisk::in_memory();
        let f = d.create_file(16).unwrap();
        // Write [1,2] at offset 12 and [3,4] at offset 2, in that run order.
        let runs = [ByteRun::new(12, 2), ByteRun::new(2, 2)];
        d.write_runs(f, &runs, &[1, 2, 3, 4], &NoCharge).unwrap();
        let all = d.read_extent(f, 0, 16, &NoCharge).unwrap();
        assert_eq!(all[12..14], [1, 2]);
        assert_eq!(all[2..4], [3, 4]);
        assert_eq!(d.stats().write_requests, 2);
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
        d.write_extent(f, 0, &[9; 10], &sink).unwrap();
        let _ = d.read_extent(f, 0, 20, &sink).unwrap();
        assert_eq!(sink.writes.get(), (1, 10));
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
        let pattern: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        for chunk in 0..16u64 {
            d.write_extent(
                f,
                chunk * 256,
                &pattern[(chunk * 256) as usize..][..256],
                &sink,
            )
            .unwrap();
        }
        let got = d.read_extent(f, 0, 4096, &sink).unwrap();
        assert_eq!(got, pattern, "faults never change the stored bytes");
        // Logical counts match a fault-free disk doing the same accesses.
        let clean_sink = FaultSink::default();
        let mut clean = LogicalDisk::in_memory();
        let cf = clean.create_file(4096).unwrap();
        for chunk in 0..16u64 {
            clean
                .write_extent(
                    cf,
                    chunk * 256,
                    &pattern[(chunk * 256) as usize..][..256],
                    &clean_sink,
                )
                .unwrap();
        }
        let _ = clean.read_extent(cf, 0, 4096, &clean_sink).unwrap();
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
        d.write_extent(f, 0, &[5u8; 128], &sink).unwrap();
        let _ = d.read_extent(f, 0, 128, &sink).unwrap();
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
        let err = d.read_extent(f, 0, 8, &NoCharge).unwrap_err();
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
        assert!(d.read_extent(f, 0, 8, &NoCharge).is_ok());
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
        let r = d.read_extent(f, 0, 8, &NoCharge);
        let died_immediately = r.is_err();
        let mut hits = 0;
        while !d.is_dead() && hits < 16 {
            let _ = d.read_extent(f, 0, 8, &NoCharge);
            hits += 1;
        }
        assert!(d.is_dead(), "fault budget of 2 must trip the death gate");
        let err = d.read_extent(f, 0, 8, &NoCharge).unwrap_err();
        assert!(matches!(err, IoError::DiskDown { .. }), "{err}");
        let werr = d.write_extent(f, 0, &[1; 4], &NoCharge).unwrap_err();
        assert!(matches!(werr, IoError::DiskDown { .. }), "{werr}");
        // Unlike hard faults, quiescing does not resurrect a dead disk.
        d.fault_injector().unwrap().quiesce_hard();
        assert!(d.read_extent(f, 0, 8, &NoCharge).is_err());
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
        d.write_extent(f, 0, &[0xAB; 32], &sink).unwrap();
        let got = d.read_extent(f, 0, 32, &sink).unwrap();
        assert_eq!(got, vec![0xAB; 32], "torn write is repaired by the retry");
        assert!(sink.faults.get().write_retries > 0);
    }
}
