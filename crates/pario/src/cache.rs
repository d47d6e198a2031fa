//! Slab reuse cache and write-back buffering.
//!
//! The paper's translation schemes fetch each slab from the local array
//! file every time the loop structure touches it, even when the same slab
//! was read moments before (the column version re-reads all of A for every
//! column of B). [`SlabCache`] keeps recently accessed byte segments of a
//! logical disk in memory under a configurable byte budget, so repeated
//! section reads are served from memory and section writes are buffered
//! as *dirty* segments that reach the disk only on eviction or an explicit
//! [`SlabCache::flush`]. Adjacent dirty segments merge, which collapses
//! the many small column-fragment writes of the transpose executor into a
//! few large write-backs.
//!
//! Two properties make the cache safe to drop into the cost-accounting
//! pipeline:
//!
//! * **Never worse than uncached.** A missing read issues exactly one
//!   spanning request covering the uncovered gap, whose length is at most
//!   the run length; a buffered write is written back at most once. Under a
//!   zero budget every access degenerates to exactly the uncached request
//!   and byte counts.
//! * **Predictable.** The same type runs in *predictor* mode (no backing
//!   store, no payload bytes) inside the compiler's reuse-aware cost
//!   estimator, replaying the executor's access sequence through the
//!   identical replacement logic, so the estimate and the measurement agree
//!   exactly by construction (see `ooc_core::reuse`).
//!
//! [`BufferPool`] is the companion allocation-recycling helper: the disk's
//! read and write stage sieve spans, cached runs and write payloads in
//! pooled buffers instead of growing a fresh `Vec` per slab.

use std::collections::BTreeMap;

use dmsim::FaultInjector;

use crate::backend::StorageBackend;
use crate::disk::{backend_read, backend_write};
use crate::error::Result;
use crate::request::ByteRun;
use crate::stats::DiskStats;
use crate::IoCharge;

/// One cached byte segment of a file. Segments of a file never overlap.
#[derive(Debug, Clone)]
struct Seg {
    /// Length in bytes.
    len: u64,
    /// True when the segment holds bytes newer than the backing store.
    dirty: bool,
    /// Last-touch tick for LRU replacement.
    tick: u64,
    /// Payload; empty in predictor mode.
    data: Vec<u8>,
}

impl Seg {
    fn end(&self, offset: u64) -> u64 {
        offset + self.len
    }
}

/// Per-file I/O effects of running accesses through the cache. The
/// compiler's reuse-aware estimator reads these to attribute requests and
/// bytes back to individual arrays.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FileIoCounts {
    /// Disk read requests issued on misses.
    pub read_requests: u64,
    /// Bytes fetched from disk on misses.
    pub read_bytes: u64,
    /// Dirty-segment write-backs (eviction + flush).
    pub write_back_requests: u64,
    /// Bytes written back.
    pub write_back_bytes: u64,
    /// Read runs fully served from cache.
    pub cache_hits: u64,
    /// Bytes served from cache on hits.
    pub cache_hit_bytes: u64,
}

/// An LRU cache of byte segments keyed by `(file, byte range)`.
///
/// Reads that are fully covered by cached segments are *hits*: no disk
/// request, no cost-model charge beyond the (free) hit notification.
/// Partially covered reads fetch one spanning request over the uncovered
/// gap. Writes are buffered as dirty segments and charged only when
/// written back. Eviction picks the least-recently-touched segment
/// globally.
pub struct SlabCache {
    budget: u64,
    materialized: bool,
    tick: u64,
    used: u64,
    files: BTreeMap<u64, BTreeMap<u64, Seg>>,
    per_file: BTreeMap<u64, FileIoCounts>,
    /// file -> owning array name, so deferred write-backs (eviction/flush,
    /// possibly far from the dirtying access) keep array identity.
    array_names: BTreeMap<u64, String>,
}

impl std::fmt::Debug for SlabCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlabCache")
            .field("budget", &self.budget)
            .field("materialized", &self.materialized)
            .field("used", &self.used)
            .field("files", &self.files.len())
            .finish()
    }
}

impl SlabCache {
    /// A materialized cache holding real payload bytes, for the runtime.
    pub fn new(budget: usize) -> Self {
        SlabCache {
            budget: budget as u64,
            materialized: true,
            tick: 0,
            used: 0,
            files: BTreeMap::new(),
            per_file: BTreeMap::new(),
            array_names: BTreeMap::new(),
        }
    }

    /// A predictor-mode cache: identical replacement and accounting logic,
    /// but no payload bytes and no backing store. Used by the compiler's
    /// reuse-aware estimator.
    pub fn predictor(budget: usize) -> Self {
        SlabCache {
            materialized: false,
            ..SlabCache::new(budget)
        }
    }

    /// Configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget as usize
    }

    /// Bytes currently cached.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes currently cached that are dirty — buffered writes that have
    /// not yet reached the disk (the trace layer's "outstanding bytes"
    /// counter).
    pub fn dirty_bytes(&self) -> u64 {
        self.files
            .values()
            .flat_map(|segs| segs.values())
            .filter(|s| s.dirty)
            .map(|s| s.len)
            .sum()
    }

    /// Accumulated per-file I/O effects (misses, write-backs, hits).
    pub fn file_counts(&self, file: u64) -> FileIoCounts {
        self.per_file.get(&file).copied().unwrap_or_default()
    }

    /// Remember that `file` stores array `name`, so a later dirty-segment
    /// write-back can re-establish the array identity the charge sink lost
    /// between the dirtying access and the eviction/flush.
    pub fn note_array(&mut self, file: u64, name: &str) {
        match self.array_names.get_mut(&file) {
            Some(n) if n == name => {}
            Some(n) => *n = name.to_string(),
            None => {
                self.array_names.insert(file, name.to_string());
            }
        }
    }

    /// Offsets of segments overlapping `run` in ascending order.
    fn overlapping(&self, file: u64, run: ByteRun) -> Vec<u64> {
        let Some(segs) = self.files.get(&file) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        // The one segment starting at or before the run may spill into it.
        if let Some((&off, seg)) = segs.range(..=run.offset).next_back() {
            if seg.end(off) > run.offset {
                out.push(off);
            }
        }
        for (&off, _) in segs.range(run.offset + 1..run.end()) {
            out.push(off);
        }
        out
    }

    /// Read `run` of `file`. Fully covered runs are hits; otherwise one
    /// spanning request fetches the uncovered gap. `out` (length
    /// `run.len`) receives the assembled bytes in materialized mode.
    #[allow(clippy::too_many_arguments)] // mirrors the backend I/O plumbing
    pub fn read(
        &mut self,
        file: u64,
        run: ByteRun,
        mut out: Option<&mut [u8]>,
        mut backend: Option<&mut dyn StorageBackend>,
        faults: Option<&FaultInjector>,
        charge: &dyn IoCharge,
        stats: &mut DiskStats,
    ) -> Result<()> {
        if run.len == 0 {
            return Ok(());
        }
        if let Some(buf) = out.as_deref() {
            assert_eq!(buf.len() as u64, run.len, "output length must match run");
        }
        self.tick += 1;
        let tick = self.tick;
        let overlaps = self.overlapping(file, run);

        // Find the uncovered span: [first gap byte, last gap byte).
        let mut cursor = run.offset;
        let mut gap_lo: Option<u64> = None;
        let mut gap_hi = run.offset;
        if let Some(segs) = self.files.get(&file) {
            for &off in &overlaps {
                let seg = &segs[&off];
                let s = off.max(run.offset);
                if s > cursor {
                    gap_lo.get_or_insert(cursor);
                    gap_hi = s;
                }
                cursor = cursor.max(seg.end(off).min(run.end()));
            }
        }
        if cursor < run.end() {
            gap_lo.get_or_insert(cursor);
            gap_hi = run.end();
        }

        match gap_lo {
            None => {
                // Hit: every byte is cached.
                charge.io_cache_hit(1, run.len);
                stats.add_cache_hit(1, run.len);
                let counts = self.per_file.entry(file).or_default();
                counts.cache_hits += 1;
                counts.cache_hit_bytes += run.len;
                let segs = self.files.get_mut(&file).expect("covered file");
                for &off in &overlaps {
                    let seg = segs.get_mut(&off).expect("overlap");
                    seg.tick = tick;
                    if let Some(buf) = out.as_deref_mut() {
                        copy_intersection(buf, run, off, &seg.data);
                    }
                }
            }
            Some(lo) => {
                // Miss: one spanning request over the gap, then overlay the
                // cached segments (dirty data is newer than the disk).
                let span = ByteRun::new(lo, gap_hi - lo);
                if self.materialized {
                    let buf = out.as_deref_mut().expect("materialized read needs out");
                    let b = backend
                        .as_deref_mut()
                        .expect("materialized read needs backend");
                    let s = (span.offset - run.offset) as usize;
                    backend_read(
                        b,
                        faults,
                        file,
                        span.offset,
                        &mut buf[s..s + span.len as usize],
                    )?;
                }
                charge.io_read(1, span.len);
                stats.add_read(1, span.len);
                stats.add_cache_miss(1);
                let counts = self.per_file.entry(file).or_default();
                counts.read_requests += 1;
                counts.read_bytes += span.len;

                if let Some(segs) = self.files.get(&file) {
                    if let Some(buf) = out.as_deref_mut() {
                        for &off in &overlaps {
                            copy_intersection(buf, run, off, &segs[&off].data);
                        }
                    }
                }

                // Coverage update: dirty segments stay (they must not lose
                // their unwritten bytes); clean segments are trimmed to
                // their outside-run remainders; the rest of the run becomes
                // fresh clean coverage assembled from `out`.
                let mut dirty_in_run: Vec<(u64, u64)> = Vec::new();
                {
                    let segs = self.files.entry(file).or_default();
                    for &off in &overlaps {
                        let dirty = segs[&off].dirty;
                        if dirty {
                            let seg = segs.get_mut(&off).expect("overlap");
                            seg.tick = tick;
                            dirty_in_run.push((off.max(run.offset), seg.end(off).min(run.end())));
                        } else {
                            let seg = segs.remove(&off).expect("overlap");
                            self.used -= seg.len;
                            for (roff, rseg) in split_outside(off, seg, run, self.materialized) {
                                self.used += rseg.len;
                                segs.insert(roff, rseg);
                            }
                        }
                    }
                    // Insert clean segments for run minus the dirty islands.
                    let mut pos = run.offset;
                    dirty_in_run.sort_unstable();
                    for &(ds, de) in dirty_in_run.iter().chain([(run.end(), run.end())].iter()) {
                        if ds > pos {
                            let data = match out.as_deref() {
                                Some(buf) if self.materialized => {
                                    let a = (pos - run.offset) as usize;
                                    let b = (ds - run.offset) as usize;
                                    buf[a..b].to_vec()
                                }
                                _ => Vec::new(),
                            };
                            segs.insert(
                                pos,
                                Seg {
                                    len: ds - pos,
                                    dirty: false,
                                    tick,
                                    data,
                                },
                            );
                            self.used += ds - pos;
                        }
                        pos = pos.max(de);
                    }
                }
                self.evict_to_budget(&mut backend, faults, charge, stats)?;
            }
        }
        Ok(())
    }

    /// Buffer a write of `run` (payload `data` in materialized mode). No
    /// disk request and no cost-model charge happen now; the bytes reach
    /// the backing store on eviction or [`SlabCache::flush`]. Touching
    /// dirty segments merge, so streams of adjacent writes collapse into
    /// one write-back.
    #[allow(clippy::too_many_arguments)] // mirrors the backend I/O plumbing
    pub fn write(
        &mut self,
        file: u64,
        run: ByteRun,
        data: Option<&[u8]>,
        mut backend: Option<&mut dyn StorageBackend>,
        faults: Option<&FaultInjector>,
        charge: &dyn IoCharge,
        stats: &mut DiskStats,
    ) -> Result<()> {
        if run.len == 0 {
            return Ok(());
        }
        if let Some(d) = data {
            assert_eq!(d.len() as u64, run.len, "write data length must match run");
        }
        self.tick += 1;
        let tick = self.tick;
        {
            let overlaps = self.overlapping(file, run);
            let segs = self.files.entry(file).or_default();
            // Drop the overwritten portions of overlapping segments, keeping
            // the parts outside the run.
            for off in overlaps {
                let seg = segs.remove(&off).expect("overlap");
                self.used -= seg.len;
                for (roff, rseg) in split_outside(off, seg, run, self.materialized) {
                    self.used += rseg.len;
                    segs.insert(roff, rseg);
                }
            }
            let mut new_off = run.offset;
            let mut new_data = match data {
                Some(d) if self.materialized => d.to_vec(),
                _ => Vec::new(),
            };
            let mut new_len = run.len;
            // Merge with a touching dirty segment on the left...
            if let Some((&loff, lseg)) = segs.range(..run.offset).next_back() {
                if lseg.dirty && lseg.end(loff) == run.offset {
                    let lseg = segs.remove(&loff).expect("left");
                    if self.materialized {
                        let mut merged = lseg.data;
                        merged.extend_from_slice(&new_data);
                        new_data = merged;
                    }
                    new_len += lseg.len;
                    new_off = loff;
                }
            }
            // ...and on the right.
            if let Some(rseg) = segs.get(&run.end()) {
                if rseg.dirty {
                    let rseg = segs.remove(&run.end()).expect("right");
                    if self.materialized {
                        new_data.extend_from_slice(&rseg.data);
                    }
                    new_len += rseg.len;
                }
            }
            segs.insert(
                new_off,
                Seg {
                    len: new_len,
                    dirty: true,
                    tick,
                    data: new_data,
                },
            );
            self.used += run.len;
        }
        self.evict_to_budget(&mut backend, faults, charge, stats)
    }

    /// Write back every dirty segment (in `(file, offset)` order, one
    /// request per contiguous segment) and mark it clean. Cached coverage
    /// is kept, so post-flush reads still hit.
    pub fn flush(
        &mut self,
        mut backend: Option<&mut dyn StorageBackend>,
        faults: Option<&FaultInjector>,
        charge: &dyn IoCharge,
        stats: &mut DiskStats,
    ) -> Result<()> {
        let SlabCache {
            files,
            per_file,
            materialized,
            array_names,
            ..
        } = self;
        for (&file, segs) in files.iter_mut() {
            for (&off, seg) in segs.iter_mut() {
                if !seg.dirty {
                    continue;
                }
                if *materialized {
                    let b = backend
                        .as_deref_mut()
                        .expect("materialized flush needs backend");
                    // A failed write-back surfaces with the segment still
                    // dirty and cached, so nothing is lost.
                    backend_write(b, faults, file, off, &seg.data)?;
                }
                if let Some(name) = array_names.get(&file) {
                    charge.io_array(name, file);
                }
                charge.io_write_back(1, seg.len);
                stats.add_write(1, seg.len);
                stats.add_write_back(1, seg.len);
                let counts = per_file.entry(file).or_default();
                counts.write_back_requests += 1;
                counts.write_back_bytes += seg.len;
                seg.dirty = false;
            }
        }
        Ok(())
    }

    /// Drop every segment of `file` without writing anything back. Used
    /// when the file itself is removed.
    pub fn invalidate_file(&mut self, file: u64) {
        if let Some(segs) = self.files.remove(&file) {
            self.used -= segs.values().map(|s| s.len).sum::<u64>();
        }
    }

    fn evict_to_budget(
        &mut self,
        backend: &mut Option<&mut dyn StorageBackend>,
        faults: Option<&FaultInjector>,
        charge: &dyn IoCharge,
        stats: &mut DiskStats,
    ) -> Result<()> {
        while self.used > self.budget {
            let victim = self
                .files
                .iter()
                .flat_map(|(&f, segs)| segs.iter().map(move |(&o, s)| (s.tick, f, o)))
                .min();
            let Some((_, file, off)) = victim else { break };
            // Write a dirty victim back *before* dropping it from the cache:
            // if the write-back fails, the error surfaces and the segment —
            // with its unwritten bytes — stays cached and dirty, so a later
            // flush can still persist it. (Removing first would silently
            // lose the bytes on failure.)
            let dirty = self.files[&file][&off].dirty;
            if dirty {
                let seg = &self.files[&file][&off];
                let len = seg.len;
                if self.materialized {
                    let b = backend
                        .as_deref_mut()
                        .expect("materialized evict needs backend");
                    backend_write(b, faults, file, off, &seg.data)?;
                }
                if let Some(name) = self.array_names.get(&file) {
                    charge.io_array(name, file);
                }
                charge.io_write_back(1, len);
                stats.add_write(1, len);
                stats.add_write_back(1, len);
                let counts = self.per_file.entry(file).or_default();
                counts.write_back_requests += 1;
                counts.write_back_bytes += len;
            }
            let segs = self.files.get_mut(&file).expect("victim file");
            let seg = segs.remove(&off).expect("victim seg");
            if segs.is_empty() {
                self.files.remove(&file);
            }
            self.used -= seg.len;
            stats.add_evicted(seg.len);
        }
        Ok(())
    }
}

/// Copy the intersection of segment `[seg_off, seg_off + data.len())` with
/// `run` from `data` into the run-relative output buffer.
fn copy_intersection(out: &mut [u8], run: ByteRun, seg_off: u64, data: &[u8]) {
    let s = seg_off.max(run.offset);
    let e = (seg_off + data.len() as u64).min(run.end());
    if s >= e {
        return;
    }
    let src = &data[(s - seg_off) as usize..(e - seg_off) as usize];
    out[(s - run.offset) as usize..(e - run.offset) as usize].copy_from_slice(src);
}

/// Split a segment at `off` into the parts lying outside `run`, preserving
/// dirtiness, tick and (in materialized mode) the payload slices.
fn split_outside(off: u64, seg: Seg, run: ByteRun, materialized: bool) -> Vec<(u64, Seg)> {
    let mut out = Vec::new();
    let end = seg.end(off);
    if off < run.offset {
        let len = run.offset - off;
        out.push((
            off,
            Seg {
                len,
                dirty: seg.dirty,
                tick: seg.tick,
                data: if materialized {
                    seg.data[..len as usize].to_vec()
                } else {
                    Vec::new()
                },
            },
        ));
    }
    if end > run.end() {
        let len = end - run.end();
        out.push((
            run.end(),
            Seg {
                len,
                dirty: seg.dirty,
                tick: seg.tick,
                data: if materialized {
                    seg.data[(run.end() - off) as usize..].to_vec()
                } else {
                    Vec::new()
                },
            },
        ));
    }
    out
}

/// Recycles byte buffers so the hot read path does not allocate a fresh
/// `Vec` per slab. Buffers are handed out cleared (length 0) with their
/// capacity intact.
#[derive(Debug, Default)]
pub struct BufferPool {
    free: Vec<Vec<u8>>,
}

/// Buffers retained per pool; enough for the deepest staging nesting.
const POOL_DEPTH: usize = 8;

impl BufferPool {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a cleared buffer, reusing a returned one when available.
    pub fn take(&mut self) -> Vec<u8> {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Return a buffer to the pool for reuse.
    pub fn put(&mut self, buf: Vec<u8>) {
        if self.free.len() < POOL_DEPTH {
            self.free.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::NoCharge;

    fn filled_backend(len: u64) -> MemBackend {
        let mut b = MemBackend::new();
        b.create(0, len).unwrap();
        let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
        b.write_at(0, 0, &data).unwrap();
        b
    }

    fn read(
        cache: &mut SlabCache,
        backend: &mut MemBackend,
        stats: &mut DiskStats,
        run: ByteRun,
    ) -> Vec<u8> {
        let mut out = vec![0u8; run.len as usize];
        cache
            .read(
                0,
                run,
                Some(&mut out),
                Some(backend),
                None,
                &NoCharge,
                stats,
            )
            .unwrap();
        out
    }

    #[test]
    fn second_read_of_same_run_hits() {
        let mut backend = filled_backend(64);
        let mut cache = SlabCache::new(64);
        let mut stats = DiskStats::default();
        let a = read(&mut cache, &mut backend, &mut stats, ByteRun::new(8, 16));
        assert_eq!(a, (8..24).collect::<Vec<u8>>());
        assert_eq!(stats.read_requests, 1);
        assert_eq!(stats.cache_misses, 1);
        let b = read(&mut cache, &mut backend, &mut stats, ByteRun::new(8, 16));
        assert_eq!(b, a);
        assert_eq!(stats.read_requests, 1, "second read served from cache");
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_hit_bytes, 16);
    }

    #[test]
    fn partial_overlap_fetches_only_the_gap() {
        let mut backend = filled_backend(64);
        let mut cache = SlabCache::new(64);
        let mut stats = DiskStats::default();
        read(&mut cache, &mut backend, &mut stats, ByteRun::new(0, 8));
        let b = read(&mut cache, &mut backend, &mut stats, ByteRun::new(4, 8));
        assert_eq!(b, (4..12).collect::<Vec<u8>>());
        assert_eq!(stats.read_requests, 2);
        assert_eq!(stats.bytes_read, 8 + 4, "only bytes 8..12 re-fetched");
    }

    #[test]
    fn writes_buffer_until_flush_and_then_hit() {
        let mut backend = filled_backend(64);
        let mut cache = SlabCache::new(64);
        let mut stats = DiskStats::default();
        let data: Vec<u8> = (100..108).collect();
        cache
            .write(
                0,
                ByteRun::new(16, 8),
                Some(&data),
                Some(&mut backend),
                None,
                &NoCharge,
                &mut stats,
            )
            .unwrap();
        assert_eq!(stats.write_requests, 0, "write is buffered");
        // The backing store still has the old bytes.
        let mut probe = [0u8; 1];
        backend.read_at(0, 16, &mut probe).unwrap();
        assert_eq!(probe[0], 16);
        // A read sees the dirty bytes without any disk traffic.
        let got = read(&mut cache, &mut backend, &mut stats, ByteRun::new(16, 8));
        assert_eq!(got, data);
        assert_eq!(stats.read_requests, 0);

        cache
            .flush(Some(&mut backend), None, &NoCharge, &mut stats)
            .unwrap();
        assert_eq!(stats.write_requests, 1);
        assert_eq!(stats.write_back_requests, 1);
        assert_eq!(stats.write_back_bytes, 8);
        backend.read_at(0, 16, &mut probe).unwrap();
        assert_eq!(probe[0], 100);
        // Coverage survives the flush.
        read(&mut cache, &mut backend, &mut stats, ByteRun::new(16, 8));
        assert_eq!(stats.read_requests, 0);
    }

    #[test]
    fn adjacent_dirty_writes_merge_into_one_write_back() {
        let mut backend = filled_backend(64);
        let mut cache = SlabCache::new(64);
        let mut stats = DiskStats::default();
        for i in 0..4u64 {
            let data = [i as u8; 4];
            cache
                .write(
                    0,
                    ByteRun::new(i * 4, 4),
                    Some(&data),
                    Some(&mut backend),
                    None,
                    &NoCharge,
                    &mut stats,
                )
                .unwrap();
        }
        cache
            .flush(Some(&mut backend), None, &NoCharge, &mut stats)
            .unwrap();
        assert_eq!(
            stats.write_requests, 1,
            "four adjacent writes, one write-back"
        );
        assert_eq!(stats.bytes_written, 16);
        let mut all = [0u8; 16];
        backend.read_at(0, 0, &mut all).unwrap();
        assert_eq!(&all[..4], &[0; 4]);
        assert_eq!(&all[12..], &[3; 4]);
    }

    #[test]
    fn eviction_writes_back_dirty_lru_segment() {
        let mut backend = filled_backend(64);
        let mut cache = SlabCache::new(8);
        let mut stats = DiskStats::default();
        let data = [9u8; 8];
        cache
            .write(
                0,
                ByteRun::new(0, 8),
                Some(&data),
                Some(&mut backend),
                None,
                &NoCharge,
                &mut stats,
            )
            .unwrap();
        // Reading elsewhere overflows the budget and evicts the dirty seg.
        read(&mut cache, &mut backend, &mut stats, ByteRun::new(32, 8));
        assert_eq!(stats.write_back_requests, 1);
        assert_eq!(stats.evicted_bytes, 8);
        let mut probe = [0u8; 8];
        backend.read_at(0, 0, &mut probe).unwrap();
        assert_eq!(probe, data, "dirty bytes written back on eviction");
        // The evicted range now misses again.
        read(&mut cache, &mut backend, &mut stats, ByteRun::new(0, 8));
        assert_eq!(stats.cache_misses, 2);
    }

    #[test]
    fn read_overlays_dirty_bytes_over_span_fetch() {
        let mut backend = filled_backend(64);
        let mut cache = SlabCache::new(64);
        let mut stats = DiskStats::default();
        let data = [200u8; 4];
        cache
            .write(
                0,
                ByteRun::new(4, 4),
                Some(&data),
                Some(&mut backend),
                None,
                &NoCharge,
                &mut stats,
            )
            .unwrap();
        let got = read(&mut cache, &mut backend, &mut stats, ByteRun::new(0, 12));
        assert_eq!(&got[..4], &[0, 1, 2, 3]);
        assert_eq!(&got[4..8], &data);
        assert_eq!(&got[8..], &[8, 9, 10, 11]);
        // One spanning request; dirty bytes must not be lost afterwards.
        assert_eq!(stats.read_requests, 1);
        cache
            .flush(Some(&mut backend), None, &NoCharge, &mut stats)
            .unwrap();
        let mut probe = [0u8; 4];
        backend.read_at(0, 4, &mut probe).unwrap();
        assert_eq!(probe, data);
    }

    #[test]
    fn zero_budget_degenerates_to_uncached_counts() {
        let mut backend = filled_backend(64);
        let mut cache = SlabCache::new(0);
        let mut stats = DiskStats::default();
        for _ in 0..3 {
            read(&mut cache, &mut backend, &mut stats, ByteRun::new(0, 16));
        }
        assert_eq!(stats.read_requests, 3, "no reuse without budget");
        assert_eq!(stats.bytes_read, 48);
        let data = [1u8; 16];
        cache
            .write(
                0,
                ByteRun::new(0, 16),
                Some(&data),
                Some(&mut backend),
                None,
                &NoCharge,
                &mut stats,
            )
            .unwrap();
        assert_eq!(stats.write_requests, 1, "write evicts itself immediately");
        let mut probe = [0u8; 16];
        backend.read_at(0, 0, &mut probe).unwrap();
        assert_eq!(probe, data);
    }

    #[test]
    fn predictor_counts_match_materialized_run() {
        let ops: &[(bool, u64, u64)] = &[
            (false, 0, 16),
            (false, 8, 16),
            (true, 16, 8),
            (false, 12, 8),
            (true, 40, 8),
            (false, 0, 48),
        ];
        let mut backend = filled_backend(64);
        let mut mat = SlabCache::new(24);
        let mut mat_stats = DiskStats::default();
        let mut pred = SlabCache::predictor(24);
        let mut pred_stats = DiskStats::default();
        for &(is_write, off, len) in ops {
            let run = ByteRun::new(off, len);
            if is_write {
                let data = vec![7u8; len as usize];
                mat.write(
                    0,
                    run,
                    Some(&data),
                    Some(&mut backend),
                    None,
                    &NoCharge,
                    &mut mat_stats,
                )
                .unwrap();
                pred.write(0, run, None, None, None, &NoCharge, &mut pred_stats)
                    .unwrap();
            } else {
                let mut out = vec![0u8; len as usize];
                mat.read(
                    0,
                    run,
                    Some(&mut out),
                    Some(&mut backend),
                    None,
                    &NoCharge,
                    &mut mat_stats,
                )
                .unwrap();
                pred.read(0, run, None, None, None, &NoCharge, &mut pred_stats)
                    .unwrap();
            }
        }
        mat.flush(Some(&mut backend), None, &NoCharge, &mut mat_stats)
            .unwrap();
        pred.flush(None, None, &NoCharge, &mut pred_stats).unwrap();
        assert_eq!(mat_stats, pred_stats);
        assert_eq!(mat.file_counts(0), pred.file_counts(0));
    }

    #[test]
    fn invalidate_drops_coverage() {
        let mut backend = filled_backend(64);
        let mut cache = SlabCache::new(64);
        let mut stats = DiskStats::default();
        read(&mut cache, &mut backend, &mut stats, ByteRun::new(0, 16));
        cache.invalidate_file(0);
        assert_eq!(cache.used(), 0);
        read(&mut cache, &mut backend, &mut stats, ByteRun::new(0, 16));
        assert_eq!(stats.cache_misses, 2);
    }

    /// A backend whose writes can be switched off, for write-back failure
    /// injection.
    struct FlakyBackend {
        inner: MemBackend,
        writes_fail: bool,
    }

    impl StorageBackend for FlakyBackend {
        fn create(&mut self, id: u64, len: u64) -> Result<()> {
            self.inner.create(id, len)
        }
        fn len(&self, id: u64) -> Result<u64> {
            self.inner.len(id)
        }
        fn read_at(&mut self, id: u64, offset: u64, buf: &mut [u8]) -> Result<()> {
            self.inner.read_at(id, offset, buf)
        }
        fn write_at(&mut self, id: u64, offset: u64, data: &[u8]) -> Result<()> {
            if self.writes_fail {
                return Err(crate::error::IoError::Backend(std::io::Error::other(
                    "injected write failure",
                )));
            }
            self.inner.write_at(id, offset, data)
        }
        fn remove(&mut self, id: u64) -> Result<()> {
            self.inner.remove(id)
        }
    }

    #[test]
    fn failed_eviction_write_back_surfaces_and_keeps_dirty_bytes() {
        let mut backend = FlakyBackend {
            inner: filled_backend(64),
            writes_fail: false,
        };
        let mut cache = SlabCache::new(8);
        let mut stats = DiskStats::default();
        let data = [42u8; 8];
        cache
            .write(
                0,
                ByteRun::new(0, 8),
                Some(&data),
                Some(&mut backend),
                None,
                &NoCharge,
                &mut stats,
            )
            .unwrap();
        // Break the backend, then force an eviction by writing elsewhere.
        backend.writes_fail = true;
        let err = cache.write(
            0,
            ByteRun::new(32, 8),
            Some(&[7u8; 8]),
            Some(&mut backend),
            None,
            &NoCharge,
            &mut stats,
        );
        assert!(err.is_err(), "failed write-back must surface, not vanish");
        assert_eq!(
            stats.write_back_requests, 0,
            "a failed write-back is not counted as completed"
        );
        // The dirty bytes survived the failure: heal the backend, flush, and
        // they reach the store.
        backend.writes_fail = false;
        cache
            .flush(Some(&mut backend), None, &NoCharge, &mut stats)
            .unwrap();
        let mut probe = [0u8; 8];
        backend.read_at(0, 0, &mut probe).unwrap();
        assert_eq!(probe, data, "dirty bytes persisted after recovery");
    }

    #[test]
    fn failed_flush_write_back_keeps_segment_dirty() {
        let mut backend = FlakyBackend {
            inner: filled_backend(64),
            writes_fail: true,
        };
        let mut cache = SlabCache::new(64);
        let mut stats = DiskStats::default();
        let data = [9u8; 4];
        cache
            .write(
                0,
                ByteRun::new(4, 4),
                Some(&data),
                Some(&mut backend),
                None,
                &NoCharge,
                &mut stats,
            )
            .unwrap();
        assert!(cache
            .flush(Some(&mut backend), None, &NoCharge, &mut stats)
            .is_err());
        // Retry after the backend heals: the segment is still dirty.
        backend.writes_fail = false;
        cache
            .flush(Some(&mut backend), None, &NoCharge, &mut stats)
            .unwrap();
        let mut probe = [0u8; 4];
        backend.read_at(0, 4, &mut probe).unwrap();
        assert_eq!(probe, data);
    }

    #[test]
    fn buffer_pool_reuses_capacity() {
        let mut pool = BufferPool::new();
        let mut b = pool.take();
        b.resize(1024, 0);
        let cap = b.capacity();
        pool.put(b);
        let b2 = pool.take();
        assert!(b2.is_empty());
        assert_eq!(b2.capacity(), cap);
    }
}
