//! Data sieving (PASSION runtime, Thakur et al. 1994).
//!
//! A strided section of `k` runs can be serviced either *directly* (`k`
//! requests, exact bytes) or by *sieving*: one request covering the whole
//! span, discarding the unwanted bytes in memory. Sieving trades bytes for
//! requests; whether it wins depends on the machine's request startup vs
//! bandwidth. [`SievePolicy`] makes the choice per access.

use serde::{Deserialize, Serialize};

use crate::backend::decode_f32;
use crate::request::{coalesce_runs, total_bytes, ByteRun};

/// When to replace a strided access by one spanning request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum SievePolicy {
    /// Never sieve: one request per contiguous run.
    #[default]
    Direct,
    /// Always sieve multi-run accesses.
    Always,
    /// Sieve when the spanning read moves at most `max_waste` times the
    /// useful bytes (e.g. `2.0` allows reading twice the data to save the
    /// seeks).
    WasteBound {
        /// Maximum allowed span/useful byte ratio.
        max_waste: f64,
    },
    /// Sieve when it is cheaper under explicit machine rates.
    CostBased {
        /// Seconds per request.
        startup: f64,
        /// Bytes per second.
        bandwidth: f64,
    },
}

/// The access plan chosen by a policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessPlan {
    /// Issue the coalesced runs as-is.
    Direct(Vec<ByteRun>),
    /// Issue one spanning request; the payload must then be sieved with
    /// [`sieve_extract`].
    Sieved {
        /// The single spanning run.
        span: ByteRun,
        /// The useful runs within it (coalesced, sorted).
        useful: Vec<ByteRun>,
    },
}

impl AccessPlan {
    /// Requests this plan issues.
    pub fn requests(&self) -> u64 {
        match self {
            AccessPlan::Direct(runs) => runs.len() as u64,
            AccessPlan::Sieved { .. } => 1,
        }
    }

    /// Bytes this plan moves from disk.
    pub fn bytes(&self) -> u64 {
        match self {
            AccessPlan::Direct(runs) => total_bytes(runs),
            AccessPlan::Sieved { span, .. } => span.len,
        }
    }
}

/// Decide how to service `runs` under `policy`.
pub fn plan_access(runs: &[ByteRun], policy: SievePolicy) -> AccessPlan {
    let coalesced = coalesce_runs(runs);
    match sieve_span(&coalesced, policy) {
        Some(span) => AccessPlan::Sieved {
            span,
            useful: coalesced,
        },
        None => AccessPlan::Direct(coalesced),
    }
}

/// The one spanning request that services already-`coalesced` runs under
/// `policy`, or `None` when they are issued directly.
pub(crate) fn sieve_span(coalesced: &[ByteRun], policy: SievePolicy) -> Option<ByteRun> {
    if coalesced.len() <= 1 {
        return None;
    }
    let useful = total_bytes(coalesced);
    let lo = coalesced.first().expect("non-empty").offset;
    let hi = coalesced.last().expect("non-empty").end();
    let span = ByteRun::new(lo, hi - lo);
    let sieve = match policy {
        SievePolicy::Direct => false,
        SievePolicy::Always => true,
        SievePolicy::WasteBound { max_waste } => span.len as f64 <= useful as f64 * max_waste,
        SievePolicy::CostBased { startup, bandwidth } => {
            let direct = coalesced.len() as f64 * startup + useful as f64 / bandwidth;
            let sieved = startup + span.len as f64 / bandwidth;
            sieved < direct
        }
    };
    sieve.then_some(span)
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
        let plan = plan_access(&[ByteRun::new(0, 100)], SievePolicy::Always);
        assert_eq!(plan, AccessPlan::Direct(vec![ByteRun::new(0, 100)]));
    }

    #[test]
    fn always_policy_spans_the_access() {
        let runs = strided(4, 10, 90);
        let plan = plan_access(&runs, SievePolicy::Always);
        let AccessPlan::Sieved { span, useful } = plan else {
            panic!("expected sieved");
        };
        assert_eq!(span, ByteRun::new(0, 310)); // 3*(100) + 10
        assert_eq!(useful.len(), 4);
    }

    #[test]
    fn waste_bound_respects_the_ratio() {
        let runs = strided(4, 10, 90); // span 310, useful 40: waste 7.75x
        assert!(matches!(
            plan_access(&runs, SievePolicy::WasteBound { max_waste: 8.0 }),
            AccessPlan::Sieved { .. }
        ));
        assert!(matches!(
            plan_access(&runs, SievePolicy::WasteBound { max_waste: 7.0 }),
            AccessPlan::Direct(_)
        ));
    }

    #[test]
    fn cost_based_matches_arithmetic() {
        let runs = strided(10, 100, 100); // 10 reqs/1000B vs 1 req/1900B
                                          // Expensive seeks: sieve wins.
        let cheap_bw = SievePolicy::CostBased {
            startup: 1e-2,
            bandwidth: 1e6,
        };
        assert!(matches!(
            plan_access(&runs, cheap_bw),
            AccessPlan::Sieved { .. }
        ));
        // Nearly free seeks: direct wins.
        let costly_bytes = SievePolicy::CostBased {
            startup: 1e-9,
            bandwidth: 1e6,
        };
        assert!(matches!(
            plan_access(&runs, costly_bytes),
            AccessPlan::Direct(_)
        ));
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
        let runs = strided(4, 10, 90);
        let direct = plan_access(&runs, SievePolicy::Direct);
        assert_eq!(direct.requests(), 4);
        assert_eq!(direct.bytes(), 40);
        let sieved = plan_access(&runs, SievePolicy::Always);
        assert_eq!(sieved.requests(), 1);
        assert_eq!(sieved.bytes(), 310);
    }
}
