//! # pario — the parallel I/O substrate
//!
//! Implements the data storage model of §2.3 of the paper: every simulated
//! processor owns a **logical disk** holding its **Local Array Files**
//! (LAFs). A processor can only touch its own logical disk; data living on
//! another processor's disk must be read by the owner and communicated.
//!
//! The unit of cost is the **I/O request**: one contiguous byte run moved
//! between disk and memory. Strided accesses decompose into multiple runs;
//! adjacent runs are coalesced before being counted, mirroring what a
//! PASSION-style runtime does with data sieving. The two metrics the paper
//! uses to compare translation schemes — requests per processor and bytes per
//! processor — are charged to the machine's [`dmsim`] cost model through the
//! [`IoCharge`] trait at the moment the access happens, so the executor's
//! measured costs and the compiler's estimates can be compared exactly.
//!
//! Two interchangeable backends store the bytes: an in-memory store (fast,
//! used by most tests and benches) and a real-file store under a scratch
//! directory (used to demonstrate the system against a genuine filesystem).

pub mod backend;
pub mod cache;
pub mod disk;
pub mod error;
pub mod laf;
pub mod method;
pub mod request;
pub mod sieve;
pub mod stats;
pub mod tally;

pub use backend::{DiskBackend, MemBackend, StorageBackend};
pub use cache::{BufferPool, FileIoCounts, SlabCache};
pub use disk::{FileId, LogicalDisk};
pub use error::{FaultOp, IoError};
pub use laf::{bytes_to_f32, f32_to_bytes, ElemKind, ElemRun, LocalArrayFile};
pub use method::{plan_union, IoMethod, UnionPlan};
pub use request::{coalesce_runs, coalesce_runs_into, total_bytes, ByteRun};
pub use sieve::SievePolicy;
pub use stats::DiskStats;
pub use tally::{Access, Tally};

use dmsim::ProcCtx;

/// Sink for I/O cost charges.
///
/// The production implementation is [`dmsim::ProcCtx`], which advances the
/// virtual clock and the per-processor counters. [`NoCharge`] supports
/// standalone use of the I/O layer (tests, file preparation outside the
/// simulated region).
pub trait IoCharge {
    /// Charge a read of `requests` contiguous runs totalling `bytes`.
    fn io_read(&self, requests: u64, bytes: u64);
    /// Charge a write of `requests` contiguous runs totalling `bytes`.
    fn io_write(&self, requests: u64, bytes: u64);
    /// Record `runs` read accesses totalling `bytes` served entirely from
    /// the slab cache. Hits cost no simulated time; the default does
    /// nothing so plain sinks ignore them.
    fn io_cache_hit(&self, _runs: u64, _bytes: u64) {}
    /// Charge a dirty-slab write-back of `requests` contiguous runs
    /// totalling `bytes`. Timed like an ordinary write by default;
    /// implementations may additionally track it separately.
    fn io_write_back(&self, requests: u64, bytes: u64) {
        self.io_write(requests, bytes);
    }
    /// Charge recovery work accumulated by the fault-injection layer
    /// (re-issued requests, backoff waits, latency spikes). The default
    /// ignores it, so plain sinks and the logical request/byte metrics are
    /// untouched by injected faults.
    fn io_faults(&self, _charges: &dmsim::FaultCharges) {}
    /// Hint: subsequent charges serve array `name` stored in file `file`.
    /// Pure observability — the default ignores it; tracing sinks use it to
    /// tag disk events with array identity.
    fn io_array(&self, _name: &str, _file: u64) {}
    /// Hint: the next charge starts at file `offset`. Pure observability —
    /// the default ignores it; detail-tracing sinks stamp it on the disk
    /// span so the `ooc-sched` elevator policy can order seeks.
    fn io_offset(&self, _offset: u64) {}
    /// Observe the slab cache's occupancy after an operation: `used_bytes`
    /// resident, of which `dirty_bytes` not yet written back. Default
    /// ignores it.
    fn io_cache_level(&self, _used_bytes: u64, _dirty_bytes: u64) {}
    /// Observe one sieved read: a spanning read of `span_bytes` of which
    /// only `useful_bytes` were wanted. Default ignores it.
    fn io_sieve(&self, _span_bytes: u64, _useful_bytes: u64) {}
    /// The charged operation is a *disk wait*: a clock-advance point at
    /// which a cooperatively scheduled rank may hand the worker to whichever
    /// rank is furthest behind in virtual time. Purely a scheduling hint —
    /// it charges nothing and must not affect any simulated quantity. The
    /// default (and every plain sink) does nothing; `ProcCtx` forwards to
    /// [`dmsim::ProcCtx::io_yield`], which is a no-op on the threaded
    /// engine.
    fn io_wait(&self) {}
}

impl IoCharge for ProcCtx {
    fn io_read(&self, requests: u64, bytes: u64) {
        self.charge_io_read(requests, bytes);
    }
    fn io_write(&self, requests: u64, bytes: u64) {
        self.charge_io_write(requests, bytes);
    }
    fn io_cache_hit(&self, runs: u64, bytes: u64) {
        self.charge_io_cache_hit(runs, bytes);
    }
    fn io_write_back(&self, requests: u64, bytes: u64) {
        self.charge_io_write_back(requests, bytes);
    }
    fn io_faults(&self, charges: &dmsim::FaultCharges) {
        self.charge_io_faults(charges);
    }
    fn io_array(&self, name: &str, file: u64) {
        self.set_io_hint(name, file);
    }
    fn io_offset(&self, offset: u64) {
        self.set_io_offset(offset);
    }
    fn io_cache_level(&self, used_bytes: u64, dirty_bytes: u64) {
        self.trace_counter("cache_used", used_bytes as f64);
        self.trace_counter("cache_dirty", dirty_bytes as f64);
    }
    fn io_sieve(&self, span_bytes: u64, useful_bytes: u64) {
        if self.tracing() {
            self.trace_instant(
                ooc_trace::Category::Sieve,
                "sieve",
                ooc_trace::Args::io(1, span_bytes - useful_bytes),
            );
        }
    }
    fn io_wait(&self) {
        self.io_yield();
    }
}

/// An [`IoCharge`] that discards charges (setup work outside the measured
/// region, e.g. initial array distribution from "archival storage").
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCharge;

impl IoCharge for NoCharge {
    fn io_read(&self, _requests: u64, _bytes: u64) {}
    fn io_write(&self, _requests: u64, _bytes: u64) {}
}

/// An [`IoCharge`] that accumulates reads instead of charging them, so
/// callers can apply their cost later with different timing semantics (e.g.
/// overlapped with computation by
/// [`dmsim::ProcCtx::charge_prefetched_read`]). Every other charge a read
/// can cause — cache hits, the write-backs of the slabs it evicts, fault
/// recovery — passes through to `rest` as it happens, and so do the array
/// and offset hints, which the deferred read's charge then carries.
pub struct PendingIo<'a> {
    reads: std::cell::Cell<(u64, u64)>,
    rest: &'a dyn IoCharge,
}

impl<'a> PendingIo<'a> {
    /// Empty accumulator in front of `rest`.
    pub fn over(rest: &'a dyn IoCharge) -> Self {
        PendingIo {
            reads: std::cell::Cell::new((0, 0)),
            rest,
        }
    }

    /// Accumulated `(requests, bytes)` read so far.
    pub fn reads(&self) -> (u64, u64) {
        self.reads.get()
    }
}

impl IoCharge for PendingIo<'_> {
    fn io_read(&self, requests: u64, bytes: u64) {
        let (r, b) = self.reads.get();
        self.reads.set((r + requests, b + bytes));
    }
    fn io_write(&self, requests: u64, bytes: u64) {
        self.rest.io_write(requests, bytes);
    }
    fn io_cache_hit(&self, runs: u64, bytes: u64) {
        self.rest.io_cache_hit(runs, bytes);
    }
    fn io_write_back(&self, requests: u64, bytes: u64) {
        self.rest.io_write_back(requests, bytes);
    }
    fn io_faults(&self, charges: &dmsim::FaultCharges) {
        self.rest.io_faults(charges);
    }
    fn io_array(&self, name: &str, file: u64) {
        self.rest.io_array(name, file);
    }
    fn io_offset(&self, offset: u64) {
        self.rest.io_offset(offset);
    }
}
