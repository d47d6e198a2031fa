//! Data sieving (PASSION runtime, Thakur et al. 1994).
//!
//! A strided section of `k` runs can be serviced either *directly* (`k`
//! requests, exact bytes) or by *sieving*: one request covering the whole
//! span, discarding the unwanted bytes in memory. Sieving trades bytes for
//! requests; whether it wins depends on the machine's request startup vs
//! bandwidth. [`SievePolicy`] makes the choice per access.

use serde::{Deserialize, Serialize};

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

/// Extract the useful runs from a buffer holding the whole span.
pub fn sieve_extract(span: &ByteRun, useful: &[ByteRun], span_data: &[u8]) -> Vec<u8> {
    debug_assert_eq!(span_data.len() as u64, span.len);
    let mut out = Vec::with_capacity(total_bytes(useful) as usize);
    for run in useful {
        let start = (run.offset - span.offset) as usize;
        out.extend_from_slice(&span_data[start..start + run.len as usize]);
    }
    out
}

/// Scatter useful runs back into a span buffer (for sieved writes:
/// read-modify-write). Returns the modified span buffer.
pub fn sieve_scatter(
    span: &ByteRun,
    useful: &[ByteRun],
    mut span_data: Vec<u8>,
    new_data: &[u8],
) -> Vec<u8> {
    debug_assert_eq!(span_data.len() as u64, span.len);
    debug_assert_eq!(new_data.len() as u64, total_bytes(useful));
    let mut cursor = 0usize;
    for run in useful {
        let start = (run.offset - span.offset) as usize;
        span_data[start..start + run.len as usize]
            .copy_from_slice(&new_data[cursor..cursor + run.len as usize]);
        cursor += run.len as usize;
    }
    span_data
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

    #[test]
    fn extract_pulls_the_right_bytes() {
        let span = ByteRun::new(10, 20);
        let useful = vec![ByteRun::new(12, 3), ByteRun::new(20, 2)];
        let span_data: Vec<u8> = (10..30).collect();
        let got = sieve_extract(&span, &useful, &span_data);
        assert_eq!(got, vec![12, 13, 14, 20, 21]);
    }

    #[test]
    fn scatter_is_extract_inverse() {
        let span = ByteRun::new(0, 10);
        let useful = vec![ByteRun::new(2, 2), ByteRun::new(7, 1)];
        let base = vec![9u8; 10];
        let updated = sieve_scatter(&span, &useful, base, &[1, 2, 3]);
        assert_eq!(updated, vec![9, 9, 1, 2, 9, 9, 9, 3, 9, 9]);
        let back = sieve_extract(&span, &useful, &updated);
        assert_eq!(back, vec![1, 2, 3]);
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
