//! I/O cost estimation (§4.1).
//!
//! The estimator evaluates a symbolic node program ([`crate::ir::NestNode`])
//! into the paper's two I/O metrics — requests per processor and data per
//! processor — plus communication and compute totals, and converts them to
//! simulated seconds under a [`dmsim::CostModel`]. Because the executor
//! charges the very same quantities through the same model, unit tests can
//! assert estimator == measurement exactly.

use serde::{Deserialize, Serialize};

use dmsim::CostModel;

use crate::ir::{totals, ArrayIoTotals, NestNode, NestSink, NestTotals, OverlapTotals};

/// Per-array I/O estimate (re-export of the nest totals entry).
pub type IoEstimate = ArrayIoTotals;

/// A fully evaluated cost estimate for one candidate translation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostEstimate {
    /// Raw counters from the loop-nest walk.
    pub totals: NestTotals,
    /// Element size used to convert elements to bytes.
    pub elem_size: usize,
    /// Modeled seconds of disk I/O.
    pub io_time: f64,
    /// Modeled seconds of communication.
    pub comm_time: f64,
    /// Modeled seconds of computation.
    pub compute_time: f64,
    /// Modeled seconds of reads and computation that prefetching overlaps
    /// (counted in full in `io_time` and `compute_time`); 0 without
    /// prefetch.
    pub hidden_time: f64,
}

impl CostEstimate {
    /// Evaluate a nest under a cost model. Reads and writes are priced
    /// separately (writes are buffered by the I/O nodes).
    pub fn from_nest(nest: &[NestNode], model: &CostModel, elem_size: usize) -> Self {
        Self::from_totals(totals(nest), model, elem_size)
    }

    /// Price already-computed totals — the entry point for reuse-aware
    /// estimation, where the totals come from a cache replay
    /// ([`crate::reuse::gaxpy_cached_totals`]) rather than a nest walk.
    pub fn from_totals(t: NestTotals, model: &CostModel, elem_size: usize) -> Self {
        let mut counts = [0, 0, 0, 0, t.comm_messages, t.comm_bytes, t.flops];
        for a in t.per_array.values() {
            let io = [
                a.read_requests,
                a.read_elems,
                a.write_requests,
                a.write_elems,
            ];
            counts.iter_mut().zip(io).for_each(|(c, v)| *c += v);
        }
        let es = elem_size as u64;
        let [io_time, comm_time, compute_time] = seconds(model, es, counts);
        CostEstimate {
            io_time,
            comm_time,
            compute_time,
            hidden_time: t.overlaps.iter().map(|o| o.hidden_time(model, es)).sum(),
            totals: t,
            elem_size,
        }
    }

    /// Total modeled seconds (the selection criterion; I/O dominates on the
    /// Delta profile, so the ranking matches the paper's I/O-cost ranking).
    pub fn time(&self) -> f64 {
        self.io_time + self.comm_time + self.compute_time - self.hidden_time
    }

    /// Total I/O requests per processor — the paper's first metric.
    pub fn io_requests(&self) -> u64 {
        self.totals.io_requests()
    }

    /// Total I/O bytes per processor — the paper's second metric.
    pub fn io_bytes(&self) -> u64 {
        self.totals.io_elems() * self.elem_size as u64
    }

    /// `T_fetch` for one array (equations 3/5).
    pub fn fetches_of(&self, array: &str) -> u64 {
        self.totals
            .per_array
            .get(array)
            .map_or(0, |a| a.read_requests)
    }

    /// `T_data` in elements for one array (equations 4/6).
    pub fn data_of(&self, array: &str) -> u64 {
        self.totals.per_array.get(array).map_or(0, |a| a.read_elems)
    }
}

/// Modeled `[I/O, communication, compute]` seconds of the counts `[read
/// requests, read elements, write requests, write elements, messages,
/// bytes, flops]`, elements of `elem_size` bytes. Reads and writes are
/// priced separately (writes are buffered by the I/O nodes).
fn seconds(model: &CostModel, elem_size: u64, counts: [u64; 7]) -> [f64; 3] {
    let [r_req, r_el, w_req, w_el, messages, bytes, flops] = counts;
    [
        model.io_time(r_req, r_el * elem_size) + model.io_write_time(w_req, w_el * elem_size),
        messages as f64 * model.msg_latency + bytes as f64 / model.msg_bandwidth,
        model.compute_time(flops),
    ]
}

/// A node program priced as a [`NestSink`] emits it: [`NestPrice::time`]
/// is the [`CostEstimate::time`] of the nest the same calls build into a
/// `Vec<NestNode>`, bit for bit, reached without building the nest or
/// allocating. It is how the memory split search prices each candidate.
/// An overlap holds reads only: no loop or overlap inside one.
#[derive(Debug, Clone)]
pub struct NestPrice<'m> {
    model: &'m CostModel,
    elem_size: u64,
    /// Executions of the node being emitted: the product of the enclosing
    /// trip counts.
    mult: u64,
    /// The counts [`seconds`] prices, each execution counted.
    counts: [u64; 7],
    /// The open overlap, its reads counted once per execution.
    open: Option<OverlapTotals>,
    hidden: f64,
}

impl<'m> NestPrice<'m> {
    /// An empty program under `model`, elements of `elem_size` bytes.
    pub fn new(model: &'m CostModel, elem_size: usize) -> Self {
        NestPrice {
            model,
            elem_size: elem_size as u64,
            mult: 1,
            counts: [0; 7],
            open: None,
            hidden: 0.0,
        }
    }

    /// Total modeled seconds of what was emitted, as [`CostEstimate::time`].
    pub fn time(&self) -> f64 {
        let [io, comm, compute] = seconds(self.model, self.elem_size, self.counts);
        io + comm + compute - self.hidden
    }

    /// Count `values` into `counts[at..]`, once per execution.
    fn add(&mut self, at: usize, values: &[u64]) {
        for (c, v) in self.counts[at..].iter_mut().zip(values) {
            *c += v * self.mult;
        }
    }
}

impl NestSink for NestPrice<'_> {
    fn io(&mut self, _array: &str, read: bool, requests: u64, elems: u64) {
        self.add(2 * usize::from(!read), &[requests, elems]);
        if let Some(o) = self.open.as_mut().filter(|_| read) {
            o.requests += requests;
            o.elems += elems;
        }
    }

    fn comm(&mut self, _label: &str, messages: u64, bytes: u64) {
        self.add(4, &[messages, bytes]);
    }

    fn compute(&mut self, _label: &str, flops: u64) {
        self.add(6, &[flops]);
    }

    fn loop_(&mut self, _label: &str, trips: u64, body: impl FnOnce(&mut Self)) {
        assert!(self.open.is_none(), "a loop inside an overlap");
        let outer = self.mult;
        self.mult *= trips;
        body(self);
        self.mult = outer;
    }

    fn if_owner(&mut self, _label: &str, body: impl FnOnce(&mut Self)) {
        body(self);
    }

    fn overlap(&mut self, flops: u64, body: impl FnOnce(&mut Self)) {
        self.open = Some(OverlapTotals {
            requests: 0,
            elems: 0,
            flops,
            times: self.mult,
        });
        body(self);
        let o = self.open.take().expect("overlaps do not nest");
        self.hidden += o.hidden_time(self.model, self.elem_size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::NestNode;

    fn nest() -> Vec<NestNode> {
        vec![
            NestNode::loop_(
                "outer",
                10,
                vec![
                    NestNode::read("a", 1, 1000),
                    NestNode::Compute {
                        label: "k".into(),
                        flops: 2000,
                    },
                ],
            ),
            NestNode::Comm {
                label: "sum".into(),
                messages: 4,
                bytes: 4096,
            },
        ]
    }

    #[test]
    fn estimate_matches_hand_computation() {
        let model = CostModel::delta(4);
        let est = CostEstimate::from_nest(&nest(), &model, 4);
        assert_eq!(est.io_requests(), 10);
        assert_eq!(est.io_bytes(), 10 * 1000 * 4);
        assert_eq!(est.fetches_of("a"), 10);
        assert_eq!(est.data_of("a"), 10_000);
        let expect_io = model.io_time(10, 40_000);
        assert!((est.io_time - expect_io).abs() < 1e-12);
        let expect_comm = 4.0 * model.msg_latency + 4096.0 / model.msg_bandwidth;
        assert!((est.comm_time - expect_comm).abs() < 1e-12);
        let expect_comp = model.compute_time(20_000);
        assert!((est.compute_time - expect_comp).abs() < 1e-12);
        assert!((est.time() - (expect_io + expect_comm + expect_comp)).abs() < 1e-12);
    }

    #[test]
    fn free_model_zeroes_time_but_keeps_metrics() {
        let est = CostEstimate::from_nest(&nest(), &CostModel::free(4), 4);
        assert_eq!(est.time(), 0.0);
        assert_eq!(est.io_requests(), 10);
    }

    #[test]
    fn unknown_array_has_zero_cost() {
        let est = CostEstimate::from_nest(&nest(), &CostModel::delta(4), 4);
        assert_eq!(est.fetches_of("zzz"), 0);
    }

    #[test]
    fn contended_estimate_degrades_io_only() {
        let model = CostModel::delta(4);
        let base = CostEstimate::from_nest(&nest(), &model, 4);
        let under = |jobs| {
            CostEstimate::from_nest(
                &nest(),
                &model.contended(&dmsim::BackgroundLoad::jobs(jobs)),
                4,
            )
        };
        assert_eq!(under(0), base, "zero competitors is bit-identical");
        let busy = under(3);
        assert!(busy.io_time > base.io_time, "contention slows the farm");
        assert_eq!(busy.comm_time, base.comm_time);
        assert_eq!(busy.compute_time, base.compute_time);
        assert_eq!(
            busy.io_requests(),
            base.io_requests(),
            "metrics are load-blind"
        );
    }
}
