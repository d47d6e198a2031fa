//! Count-only accesses: what an access costs the disk, without the data.
//! The compiler prices each candidate access method with these.

use crate::request::{total_bytes, ByteRun};
use crate::sieve::SievePolicy;

/// One access as the disk's decision rule sees it, after coalescing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Access {
    /// Coalesced runs: the requests of direct service.
    pub runs: u64,
    /// Bytes the runs hold.
    pub bytes: u64,
    /// Bytes from the first run's start to the last run's end: what one
    /// spanning (sieved) request moves.
    pub span: u64,
}

impl Access {
    /// One contiguous run of `bytes` (no run at all when `bytes` is 0).
    pub fn contiguous(bytes: u64) -> Access {
        Access {
            runs: u64::from(bytes > 0),
            bytes,
            span: bytes,
        }
    }

    /// The shape of already-coalesced, ascending, disjoint `runs`.
    pub fn of_coalesced(runs: &[ByteRun]) -> Access {
        match (runs.first(), runs.last()) {
            (Some(first), Some(last)) => Access {
                runs: runs.len() as u64,
                bytes: total_bytes(runs),
                span: last.end() - first.offset,
            },
            _ => Access::default(),
        }
    }
}

/// Requests and bytes a sequence of accesses issues on one disk, each added
/// exactly as [`crate::LogicalDisk::read`] and [`crate::LogicalDisk::write`]
/// charge it on their uncached branches, with the disk's own sieve rule
/// ([`SievePolicy::sieves`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tally {
    /// Read requests.
    pub read_requests: u64,
    /// Bytes read (sieved spans count whole).
    pub read_bytes: u64,
    /// Write requests.
    pub write_requests: u64,
    /// Bytes written (sieved spans count whole).
    pub write_bytes: u64,
}

impl Tally {
    /// Add a read: one request per coalesced run, or one spanning request
    /// when `policy` sieves it.
    pub fn read(&mut self, access: Access, policy: SievePolicy) {
        if policy.sieves(access) {
            self.read_requests += 1;
            self.read_bytes += access.span;
        } else {
            self.read_requests += access.runs;
            self.read_bytes += access.bytes;
        }
    }

    /// Add a write: one request per coalesced run, or — when `policy`
    /// sieves it — a read-modify-write of the span, one read request and
    /// one write request.
    pub fn write(&mut self, access: Access, policy: SievePolicy) {
        if policy.sieves(access) {
            self.read_requests += 1;
            self.read_bytes += access.span;
            self.write_requests += 1;
            self.write_bytes += access.span;
        } else {
            self.write_requests += access.runs;
            self.write_bytes += access.bytes;
        }
    }
}
