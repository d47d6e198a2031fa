//! Data sieving (PASSION runtime, Thakur et al. 1994).
//!
//! A strided section of `k` runs can be serviced either *directly* (`k`
//! requests, exact bytes) or by *sieving*: one request covering the whole
//! span, discarding the unwanted bytes in memory. Sieving trades bytes for
//! requests; whether it wins depends on the machine's request startup vs
//! bandwidth. The compiler weighs that trade when it picks an access's
//! [`crate::IoMethod`]; [`SievePolicy::sieves`] applies the method's policy
//! per access, for the disk and for the count-only [`crate::Tally`] alike.

use serde::{Deserialize, Serialize};

use crate::backend::decode_f32;
use crate::request::{total_bytes, ByteRun};
use crate::tally::Access;

/// When to replace a strided access by one spanning request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SievePolicy {
    /// Never sieve: one request per contiguous run.
    #[default]
    Direct,
    /// Always sieve multi-run accesses.
    Always,
}

impl SievePolicy {
    /// True when `access` is serviced by one spanning request instead of
    /// one request per run: the one decision rule behind
    /// [`crate::LogicalDisk::read`], [`crate::LogicalDisk::write`] and
    /// [`crate::Tally`]. A single run is never sieved.
    pub fn sieves(self, access: Access) -> bool {
        self == SievePolicy::Always && access.runs > 1
    }
}

/// The one spanning request that services already-`coalesced` runs under
/// `policy`, or `None` when they are issued directly.
pub(crate) fn sieve_span(coalesced: &[ByteRun], policy: SievePolicy) -> Option<ByteRun> {
    let access = Access::of_coalesced(coalesced);
    policy
        .sieves(access)
        .then(|| ByteRun::new(coalesced[0].offset, access.span))
}

/// Decode the useful runs (each a whole number of `f32`s) out of a buffer
/// holding the whole span into `out`, in run order.
pub fn sieve_extract(span: &ByteRun, useful: &[ByteRun], span_data: &[u8], out: &mut [f32]) {
    debug_assert_eq!(span_data.len() as u64, span.len);
    debug_assert_eq!(out.len() as u64 * 4, total_bytes(useful));
    let mut cursor = 0usize;
    for run in useful {
        let start = (run.offset - span.offset) as usize;
        let n = run.len as usize / 4;
        decode_f32(
            &span_data[start..start + run.len as usize],
            &mut out[cursor..cursor + n],
        );
        cursor += n;
    }
}

/// Scatter useful runs back into a span buffer in place (for sieved
/// writes: read-modify-write).
pub fn sieve_scatter(span: &ByteRun, useful: &[ByteRun], span_data: &mut [u8], new_data: &[u8]) {
    debug_assert_eq!(span_data.len() as u64, span.len);
    debug_assert_eq!(new_data.len() as u64, total_bytes(useful));
    let mut cursor = 0usize;
    for run in useful {
        let start = (run.offset - span.offset) as usize;
        span_data[start..start + run.len as usize]
            .copy_from_slice(&new_data[cursor..cursor + run.len as usize]);
        cursor += run.len as usize;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strided(k: usize, useful: u64, gap: u64) -> Vec<ByteRun> {
        (0..k as u64)
            .map(|i| ByteRun::new(i * (useful + gap), useful))
            .collect()
    }

    #[test]
    fn single_run_is_always_direct() {
        assert_eq!(
            sieve_span(&[ByteRun::new(0, 100)], SievePolicy::Always),
            None
        );
        assert!(!SievePolicy::Always.sieves(Access::contiguous(100)));
    }

    #[test]
    fn always_policy_spans_the_access() {
        let runs = strided(4, 10, 90);
        // 3 * 100 + 10 bytes from the first run's start to the last's end.
        assert_eq!(
            sieve_span(&runs, SievePolicy::Always),
            Some(ByteRun::new(0, 310))
        );
    }

    /// Little-endian bytes of `vals`.
    fn le(vals: &[f32]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn extract_pulls_the_right_bytes() {
        // A span of elements 10..15 at byte 40; the useful runs are
        // elements 11..13 and 14.
        let span = ByteRun::new(40, 20);
        let useful = vec![ByteRun::new(44, 8), ByteRun::new(56, 4)];
        let span_data = le(&[10.0, 11.0, 12.0, 13.0, 14.0]);
        let mut got = [0.0f32; 3];
        sieve_extract(&span, &useful, &span_data, &mut got);
        assert_eq!(got, [11.0, 12.0, 14.0]);
    }

    #[test]
    fn scatter_is_extract_inverse() {
        let span = ByteRun::new(0, 40);
        let useful = vec![ByteRun::new(8, 8), ByteRun::new(28, 4)];
        let mut span_data = le(&[9.0; 10]);
        sieve_scatter(&span, &useful, &mut span_data, &le(&[1.0, 2.0, 3.0]));
        assert_eq!(
            span_data,
            le(&[9.0, 9.0, 1.0, 2.0, 9.0, 9.0, 9.0, 3.0, 9.0, 9.0])
        );
        let mut back = [0.0f32; 3];
        sieve_extract(&span, &useful, &span_data, &mut back);
        assert_eq!(back, [1.0, 2.0, 3.0]);
    }

    #[test]
    fn plan_metrics() {
        let access = Access::of_coalesced(&strided(4, 10, 90));
        let mut direct = crate::Tally::default();
        direct.read(access, SievePolicy::Direct);
        assert_eq!((direct.read_requests, direct.read_bytes), (4, 40));
        let mut sieved = crate::Tally::default();
        sieved.read(access, SievePolicy::Always);
        assert_eq!((sieved.read_requests, sieved.read_bytes), (1, 310));
    }
}
