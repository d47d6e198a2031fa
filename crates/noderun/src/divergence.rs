//! Estimate-vs-measured divergence reports.
//!
//! The compiler prices every statement symbolically
//! ([`ooc_core::CostEstimate`], reuse-aware when a cache budget is set);
//! the tracing layer measures what the executor actually did, phase by
//! phase, on the simulated clock. This module replays the estimates against
//! the measured per-phase counters of a captured [`Trace`] and reports the
//! gap per (phase, array, metric), largest relative divergence first.
//!
//! On configurations the estimators model exactly — uncached runs under
//! any compiled access method, sieved spans and read-modify-writes
//! included, prefetched or not, or GAXPY under a slab cache — every row is
//! zero-gap, which is the baseline the test suite pins. Anything nonzero is
//! a model/runtime discrepancy worth investigating: checkpoint traffic, or
//! an estimator that has not learned a runtime reorganization yet.

use std::collections::BTreeMap;

use dmsim::Trace;
use ooc_core::CompiledProgram;
use ooc_trace::{Category, EventKind};

/// One compared counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergenceRow {
    /// Phase (statement) label, e.g. `s0:gaxpy(c)`.
    pub phase: String,
    /// Array the counter belongs to. Cache write-backs carry the owning
    /// array too (the cache's file→array registry re-tags them), so write
    /// rows stay per-array in every configuration.
    pub array: String,
    /// Which counter: `read_requests`, `read_bytes`, `write_requests` or
    /// `write_bytes`.
    pub metric: &'static str,
    /// The compiler's prediction.
    pub estimated: u64,
    /// What rank 0's trace recorded.
    pub measured: u64,
}

impl DivergenceRow {
    /// Signed gap `measured - estimated`.
    pub fn gap(&self) -> i64 {
        self.measured as i64 - self.estimated as i64
    }

    /// Relative gap `|measured - estimated| / max(estimated, 1)`.
    pub fn rel_gap(&self) -> f64 {
        self.gap().unsigned_abs() as f64 / (self.estimated.max(1)) as f64
    }
}

/// All compared counters of one run.
#[derive(Debug, Clone, Default)]
pub struct DivergenceReport {
    /// Rows sorted by descending relative gap (ties: source order).
    pub rows: Vec<DivergenceRow>,
}

impl DivergenceReport {
    /// True when every measured counter equals its estimate.
    pub fn is_zero_gap(&self) -> bool {
        self.rows.iter().all(|r| r.estimated == r.measured)
    }

    /// Largest relative gap, 0.0 for an empty report.
    pub fn max_rel_gap(&self) -> f64 {
        self.rows.iter().map(|r| r.rel_gap()).fold(0.0, f64::max)
    }

    /// Fixed-width table, worst divergence first.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<22} {:<10} {:<14} {:>12} {:>12} {:>9}\n",
            "phase", "array", "metric", "estimated", "measured", "gap"
        ));
        for r in &self.rows {
            let gap = if r.estimated == r.measured {
                "=".to_string()
            } else {
                format!("{:+.1}%", 100.0 * r.rel_gap() * r.gap().signum() as f64)
            };
            out.push_str(&format!(
                "{:<22} {:<10} {:<14} {:>12} {:>12} {:>9}\n",
                r.phase, r.array, r.metric, r.estimated, r.measured, gap
            ));
        }
        out
    }
}

/// Measured disk traffic of one phase, rank 0.
#[derive(Default)]
struct Measured {
    /// array -> (requests, bytes) from tagged `DiskRead` spans.
    reads: BTreeMap<String, (u64, u64)>,
    /// array -> (requests, bytes) from tagged `DiskWrite` spans.
    writes: BTreeMap<String, (u64, u64)>,
    /// array -> (requests, bytes) from `WriteBack` spans; the cache's
    /// file→array registry restores the identity the deferred flush would
    /// otherwise have lost.
    write_backs: BTreeMap<String, (u64, u64)>,
}

/// Compare the compiled estimates with a measured trace.
///
/// Estimates come from [`CompiledProgram::estimates`] — reuse-aware if the
/// program was compiled with [`ooc_core::CompilerOptions::cache_budget`]
/// matching the run's cache — and are per-rank-0, so the measured side is
/// rank 0's timeline. Statements are matched to phases by the executor's
/// phase labels; a trace captured without tracing enabled yields an empty
/// report.
pub fn divergence_report(compiled: &CompiledProgram, trace: &Trace) -> DivergenceReport {
    let mut report = DivergenceReport::default();
    let Some(rt) = trace.ranks.first() else {
        return report;
    };

    // Bucket rank 0's disk spans by phase name.
    let mut by_phase: BTreeMap<&str, Measured> = BTreeMap::new();
    for ev in &rt.events {
        if ev.kind != EventKind::Span {
            continue;
        }
        let Some(phase) = rt.phase_name(ev) else {
            continue;
        };
        let m = by_phase.entry(phase).or_default();
        let key = ev.args.array.clone().unwrap_or_else(|| "?".to_string());
        match ev.cat {
            Category::DiskRead => {
                let e = m.reads.entry(key).or_default();
                e.0 += ev.args.requests;
                e.1 += ev.args.bytes;
            }
            Category::DiskWrite => {
                let e = m.writes.entry(key).or_default();
                e.0 += ev.args.requests;
                e.1 += ev.args.bytes;
            }
            Category::WriteBack => {
                let e = m.write_backs.entry(key).or_default();
                e.0 += ev.args.requests;
                e.1 += ev.args.bytes;
            }
            _ => {}
        }
    }

    let empty = Measured::default();
    for (i, (plan, est)) in compiled.plans.iter().zip(&compiled.estimates).enumerate() {
        let phase = crate::exec::phase_label(i, plan);
        let m = by_phase.get(phase.as_str()).unwrap_or(&empty);
        let es = est.elem_size as u64;

        // Reads keep per-array identity on both sides.
        let mut read_arrays: Vec<&str> = est
            .totals
            .per_array
            .iter()
            .filter(|(_, t)| t.read_requests > 0)
            .map(|(n, _)| n.as_str())
            .collect();
        for name in m.reads.keys() {
            if !read_arrays.contains(&name.as_str()) {
                read_arrays.push(name);
            }
        }
        for name in read_arrays {
            let t = est.totals.per_array.get(name);
            let (mr, mb) = m.reads.get(name).copied().unwrap_or((0, 0));
            push_pair(
                &mut report,
                &phase,
                name,
                "read_requests",
                t.map_or(0, |t| t.read_requests),
                mr,
                "read_bytes",
                t.map_or(0, |t| t.read_elems * es),
                mb,
            );
        }

        // Writes: direct writes and deferred cache write-backs both carry
        // array identity, so write traffic compares per-array in every
        // configuration (an untagged write-back would surface as a `?` row,
        // not vanish into an aggregate).
        let mut write_arrays: Vec<&str> = est
            .totals
            .per_array
            .iter()
            .filter(|(_, t)| t.write_requests > 0)
            .map(|(n, _)| n.as_str())
            .collect();
        for name in m.writes.keys().chain(m.write_backs.keys()) {
            if !write_arrays.contains(&name.as_str()) {
                write_arrays.push(name);
            }
        }
        for name in write_arrays {
            let t = est.totals.per_array.get(name);
            let (dr, db) = m.writes.get(name).copied().unwrap_or((0, 0));
            let (wr, wb) = m.write_backs.get(name).copied().unwrap_or((0, 0));
            push_pair(
                &mut report,
                &phase,
                name,
                "write_requests",
                t.map_or(0, |t| t.write_requests),
                dr + wr,
                "write_bytes",
                t.map_or(0, |t| t.write_elems * es),
                db + wb,
            );
        }
    }

    report
        .rows
        .sort_by(|a, b| b.rel_gap().partial_cmp(&a.rel_gap()).unwrap());
    report
}

#[allow(clippy::too_many_arguments)]
fn push_pair(
    report: &mut DivergenceReport,
    phase: &str,
    array: &str,
    req_metric: &'static str,
    est_req: u64,
    meas_req: u64,
    byte_metric: &'static str,
    est_bytes: u64,
    meas_bytes: u64,
) {
    report.rows.push(DivergenceRow {
        phase: phase.to_string(),
        array: array.to_string(),
        metric: req_metric,
        estimated: est_req,
        measured: meas_req,
    });
    report.rows.push(DivergenceRow {
        phase: phase.to_string(),
        array: array.to_string(),
        metric: byte_metric,
        estimated: est_bytes,
        measured: meas_bytes,
    });
}
