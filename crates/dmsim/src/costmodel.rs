//! The analytic cost model.
//!
//! The paper measures I/O cost with two metrics — the number of I/O requests
//! per processor and the total data fetched per processor (§4) — because the
//! cost of physically accessing the data "is dictated by the hardware and to
//! a certain extent by the parallel file system". This module is that
//! hardware: it converts the counted metrics into seconds.
//!
//! All parameters are public and serializable so experiments can report the
//! exact machine they simulated, and ablations can perturb one knob at a
//! time.

use serde::{Deserialize, Serialize};

/// Cost parameters of the simulated machine.
///
/// The [`CostModel::delta`] constructor calibrates the model to the Intel
/// Touchstone Delta as used in the paper (i860 nodes, NX message passing,
/// a shared Concurrent-File-System disk farm). See `DESIGN.md` §4 for the
/// calibration argument.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Seconds per floating-point operation (effective, not peak).
    pub flop_time: f64,
    /// Per-message network latency in seconds.
    pub msg_latency: f64,
    /// Network bandwidth per link, bytes/second.
    pub msg_bandwidth: f64,
    /// Fixed cost per read request (seek + file-system overhead), seconds.
    pub io_startup: f64,
    /// Aggregate disk bandwidth of the whole I/O subsystem, bytes/second.
    pub io_aggregate_bandwidth: f64,
    /// Fixed cost per *write* request, seconds. Writes are buffered by the
    /// I/O nodes (write-behind, as on the Delta's CFS), so a writer pays
    /// only the hand-off cost, not the seek.
    pub io_write_startup: f64,
    /// Bandwidth at which a processor hands written bytes to the I/O
    /// nodes, bytes/second (typically network-limited).
    pub io_write_bandwidth: f64,
    /// Number of compute processors sharing the I/O subsystem.
    pub nprocs: usize,
    /// If true the disk farm is shared: a processor's share of bandwidth is
    /// `io_aggregate_bandwidth / nprocs`. If false, each processor owns a
    /// local disk with the full `io_aggregate_bandwidth`.
    pub shared_disks: bool,
}

impl CostModel {
    /// Intel Touchstone Delta calibration for `nprocs` compute nodes.
    ///
    /// * 4 MFLOP/s effective per node — reproduces the paper's in-core
    ///   1K×1K matmul times (140.9 s on 4 procs ≈ 2·N³/P flops / 4 MFLOP/s).
    /// * 15 ms per I/O request startup — reproduces the gap between slab
    ///   ratio 1 and 1/8 in Table 1.
    /// * 5.5 MB/s aggregate disk bandwidth shared by all nodes — reproduces
    ///   the ≈ 1000 s column-slab times on 4 processors.
    /// * 75 µs / 30 MB/s network — typical published NX figures.
    pub fn delta(nprocs: usize) -> Self {
        CostModel {
            flop_time: 1.0 / 4.0e6,
            msg_latency: 75.0e-6,
            msg_bandwidth: 30.0e6,
            io_startup: 15.0e-3,
            io_aggregate_bandwidth: 5.5e6,
            io_write_startup: 1.0e-3,
            io_write_bandwidth: 30.0e6,
            nprocs,
            shared_disks: true,
        }
    }

    /// A machine with negligible costs — useful in unit tests that only care
    /// about functional behaviour.
    pub fn free(nprocs: usize) -> Self {
        CostModel {
            flop_time: 0.0,
            msg_latency: 0.0,
            msg_bandwidth: f64::INFINITY,
            io_startup: 0.0,
            io_aggregate_bandwidth: f64::INFINITY,
            io_write_startup: 0.0,
            io_write_bandwidth: f64::INFINITY,
            nprocs,
            shared_disks: false,
        }
    }

    /// A modern-ish cluster node profile, used by ablation benches to show
    /// the optimization is still directionally right when the
    /// compute/IO-cost ratio changes by orders of magnitude.
    pub fn cluster(nprocs: usize) -> Self {
        CostModel {
            flop_time: 1.0 / 2.0e9,
            msg_latency: 2.0e-6,
            msg_bandwidth: 10.0e9,
            io_startup: 100.0e-6,
            io_aggregate_bandwidth: 2.0e9,
            io_write_startup: 10.0e-6,
            io_write_bandwidth: 10.0e9,
            nprocs,
            shared_disks: true,
        }
    }

    /// Seconds to execute `flops` floating point operations on one node.
    #[inline]
    pub fn compute_time(&self, flops: u64) -> f64 {
        flops as f64 * self.flop_time
    }

    /// Seconds for one point-to-point message of `bytes` payload.
    #[inline]
    pub fn message_time(&self, bytes: u64) -> f64 {
        self.msg_latency + bytes as f64 / self.msg_bandwidth
    }

    /// Effective disk bandwidth *seen by one processor*.
    #[inline]
    pub fn io_bandwidth_per_proc(&self) -> f64 {
        if self.shared_disks {
            self.io_aggregate_bandwidth / self.nprocs.max(1) as f64
        } else {
            self.io_aggregate_bandwidth
        }
    }

    /// Seconds for one processor to perform `requests` read requests moving
    /// `bytes` bytes in total.
    #[inline]
    pub fn io_time(&self, requests: u64, bytes: u64) -> f64 {
        requests as f64 * self.io_startup + bytes as f64 / self.io_bandwidth_per_proc()
    }

    /// Seconds a prefetched read of `requests` requests moving `bytes`
    /// bytes takes when it overlaps `flops` of pending computation: the
    /// longer of the two (software pipelining of slab fetches). The one
    /// price of an overlap, charged by
    /// [`crate::ProcCtx::charge_prefetched_read`] and estimated by the
    /// compiler.
    #[inline]
    pub fn overlapped_read_time(&self, requests: u64, bytes: u64, flops: u64) -> f64 {
        self.io_time(requests, bytes).max(self.compute_time(flops))
    }

    /// Seconds for one processor to *write* `bytes` in `requests` requests.
    /// Writes go through the I/O nodes' buffers (write-behind), so the
    /// writer pays the hand-off, not the physical disk.
    #[inline]
    pub fn io_write_time(&self, requests: u64, bytes: u64) -> f64 {
        requests as f64 * self.io_write_startup + bytes as f64 / self.io_write_bandwidth
    }

    /// The same machine as seen by one job competing for the disk farm
    /// against `load`. The job's fair share of the farm is
    /// `weight / (weight + competitors * competitor_weight)`; read bandwidth
    /// scales down by that share and the per-request startup scales up by
    /// its inverse (a queued request waits, on average, for the competing
    /// jobs' share of service between its own turns). With no competitors
    /// the share is exactly 1 and the returned model is bit-identical to
    /// `self`, so an uncontended estimate never drifts from the legacy one.
    /// Write hand-off is buffered by the I/O nodes and stays uncontended.
    pub fn contended(&self, load: &BackgroundLoad) -> Self {
        let share = load.share();
        CostModel {
            io_aggregate_bandwidth: self.io_aggregate_bandwidth * share,
            io_startup: self.io_startup / share,
            ..self.clone()
        }
    }

    /// The same machine with its disk subsystem degraded by `factor`: read
    /// and write bandwidth are divided, request startup costs are unchanged
    /// (seeks do not get slower, transfers do). Planners use this to re-plan
    /// slab sizes after the fault layer marks a disk degraded mid-run.
    pub fn degrade_io(&self, factor: f64) -> Self {
        assert!(factor >= 1.0, "degradation factor must be >= 1");
        CostModel {
            io_aggregate_bandwidth: self.io_aggregate_bandwidth / factor,
            io_write_bandwidth: self.io_write_bandwidth / factor,
            ..self.clone()
        }
    }
}

/// Background load a job competes against on the shared disk farm: the
/// compile-time summary of a multi-job workload (`ooc-sched`), used by
/// [`CostModel::contended`] for contention-aware estimation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackgroundLoad {
    /// Number of competing jobs expected to share the farm.
    pub competitors: u32,
    /// This job's fair-share weight.
    pub weight: f64,
    /// Weight of each competing job.
    pub competitor_weight: f64,
}

impl BackgroundLoad {
    /// `competitors` equal-weight competing jobs.
    pub fn jobs(competitors: u32) -> Self {
        BackgroundLoad {
            competitors,
            weight: 1.0,
            competitor_weight: 1.0,
        }
    }

    /// The fraction of farm service this job can expect,
    /// `weight / (weight + competitors * competitor_weight)`, exactly 1.0
    /// when there are no competitors.
    pub fn share(&self) -> f64 {
        if self.competitors == 0 {
            return 1.0;
        }
        let w = self.weight.max(f64::MIN_POSITIVE);
        w / (w + self.competitors as f64 * self.competitor_weight.max(0.0))
    }
}

impl Default for BackgroundLoad {
    fn default() -> Self {
        BackgroundLoad::jobs(0)
    }
}

/// A pre-computed I/O cost: the two metrics of §4 plus the modeled time.
///
/// Produced both by the *compiler's estimator* (`ooc-core::cost`) and by the
/// *executor's measurement* (`noderun`), so tests can assert they agree.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct IoCost {
    /// Number of I/O requests issued per processor.
    pub requests: u64,
    /// Total bytes moved between disk and memory per processor.
    pub bytes: u64,
}

impl IoCost {
    /// The zero cost.
    pub const ZERO: IoCost = IoCost {
        requests: 0,
        bytes: 0,
    };

    /// Construct from element counts given an element size in bytes.
    pub fn from_elements(requests: u64, elements: u64, elem_size: usize) -> Self {
        IoCost {
            requests,
            bytes: elements * elem_size as u64,
        }
    }

    /// Sum of two costs.
    pub fn plus(self, other: IoCost) -> IoCost {
        IoCost {
            requests: self.requests + other.requests,
            bytes: self.bytes + other.bytes,
        }
    }

    /// Seconds under `model`.
    pub fn time(&self, model: &CostModel) -> f64 {
        model.io_time(self.requests, self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_incore_matmul_matches_paper_scale() {
        // 1K x 1K matmul on 4 procs: 2*N^3/P flops at 4 MFLOP/s ~ 134 s.
        // The paper's in-core measurement is 140.91 s.
        let m = CostModel::delta(4);
        let n: u64 = 1024;
        let flops = 2 * n * n * n / 4;
        let t = m.compute_time(flops);
        assert!((120.0..160.0).contains(&t), "t = {t}");
    }

    #[test]
    fn shared_disks_divide_bandwidth() {
        let m = CostModel::delta(8);
        assert!((m.io_bandwidth_per_proc() - 5.5e6 / 8.0).abs() < 1e-9);
        let mut local = m.clone();
        local.shared_disks = false;
        assert_eq!(local.io_bandwidth_per_proc(), 5.5e6);
    }

    #[test]
    fn io_time_is_affine_in_requests() {
        let m = CostModel::delta(4);
        let base = m.io_time(0, 1_000_000);
        let with_reqs = m.io_time(100, 1_000_000);
        assert!((with_reqs - base - 100.0 * m.io_startup).abs() < 1e-9);
    }

    #[test]
    fn free_machine_costs_nothing() {
        let m = CostModel::free(16);
        assert_eq!(m.compute_time(1_000_000), 0.0);
        assert_eq!(m.message_time(1 << 20), 0.0);
        assert_eq!(m.io_time(10, 1 << 20), 0.0);
    }

    #[test]
    fn iocost_algebra() {
        let a = IoCost {
            requests: 3,
            bytes: 100,
        };
        let b = IoCost::from_elements(2, 25, 4);
        let c = a.plus(b);
        assert_eq!(c.requests, 5);
        assert_eq!(c.bytes, 200);
        assert_eq!(IoCost::ZERO.plus(a), a);
    }

    #[test]
    fn degraded_model_slows_transfers_not_seeks() {
        let m = CostModel::delta(4);
        let d = m.degrade_io(4.0);
        assert_eq!(d.io_aggregate_bandwidth, m.io_aggregate_bandwidth / 4.0);
        assert_eq!(d.io_write_bandwidth, m.io_write_bandwidth / 4.0);
        assert_eq!(d.io_startup, m.io_startup);
        assert!(d.io_time(10, 1 << 20) > m.io_time(10, 1 << 20));
        // Pure request cost is unchanged.
        assert_eq!(d.io_time(10, 0), m.io_time(10, 0));
    }

    #[test]
    fn uncontended_model_is_bit_identical() {
        let m = CostModel::delta(4);
        let c = m.contended(&BackgroundLoad::default());
        assert_eq!(c, m);
        assert_eq!(
            c.io_time(17, 123_456).to_bits(),
            m.io_time(17, 123_456).to_bits()
        );
    }

    #[test]
    fn contention_slows_reads_not_write_handoff() {
        let m = CostModel::delta(4);
        let c = m.contended(&BackgroundLoad::jobs(3));
        // Equal weights, 3 competitors: a quarter share.
        assert!((c.io_aggregate_bandwidth - m.io_aggregate_bandwidth / 4.0).abs() < 1e-9);
        assert!((c.io_startup - m.io_startup * 4.0).abs() < 1e-9);
        assert!(c.io_time(10, 1 << 20) > m.io_time(10, 1 << 20));
        assert_eq!(c.io_write_time(10, 1 << 20), m.io_write_time(10, 1 << 20));
    }

    #[test]
    fn background_share_respects_weights() {
        let heavy = BackgroundLoad {
            competitors: 2,
            weight: 4.0,
            competitor_weight: 1.0,
        };
        assert!((heavy.share() - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(BackgroundLoad::jobs(0).share(), 1.0);
        assert!((BackgroundLoad::jobs(1).share() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn message_time_has_latency_floor() {
        let m = CostModel::delta(4);
        assert!(m.message_time(0) >= 75.0e-6);
        assert!(m.message_time(1 << 20) > m.message_time(0));
    }
}
