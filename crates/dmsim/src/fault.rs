//! Seeded, deterministic fault injection.
//!
//! The paper's machine model assumes every disk request and message succeeds;
//! this module perturbs that ideal machine without giving up determinism. One
//! master seed derives an independent splitmix64 stream per (rank, domain)
//! pair, so the fate of the k-th disk request on rank r is a pure function of
//! the seed and the program — independent of thread scheduling and of what
//! any other rank does. Two runs with the same seed therefore inject the same
//! faults at the same points and produce bit-identical results and stats.
//!
//! Fault kinds:
//! - transient read/write errors (the request fails, the retry policy
//!   re-issues it with exponential backoff),
//! - torn writes (a prefix of the payload hits the platter before the fault;
//!   the retry re-writes the full extent, so positional writes stay
//!   idempotent),
//! - latency spikes (the request succeeds but stalls for a configured delay),
//! - dropped and delayed point-to-point messages (the sender re-transmits
//!   after a timeout; delays only push the arrival instant out),
//! - permanent ("hard") faults that no retry can clear — these surface as
//!   typed errors and drive checkpoint/restart in the executors.
//!
//! Transient faults are bounded by [`RetryPolicy::max_attempts`] and the
//! final attempt always succeeds, so any schedule of transient faults
//! eventually permits success; only hard faults escape the retry loop.
//! All recovery work (re-issued requests, backoff waits, re-transmissions)
//! is charged to the simulated clock and the fault counters in
//! [`crate::stats`], never to the paper's logical request/byte metrics.

use std::cell::Cell;

use serde::{Deserialize, Serialize};

/// Bounded-retry policy with exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum attempts per operation (>= 1). The final attempt of a
    /// *transient* fault always succeeds, bounding recovery.
    pub max_attempts: u32,
    /// Backoff before the first retry, in simulated seconds.
    pub backoff_base: f64,
    /// Multiplier applied to the backoff after each failed attempt.
    pub backoff_mult: f64,
}

impl RetryPolicy {
    /// Backoff charged before retry number `attempt` (1-based).
    pub fn backoff(&self, attempt: u32) -> f64 {
        self.backoff_base * self.backoff_mult.powi(attempt.saturating_sub(1) as i32)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            backoff_base: 1e-3,
            backoff_mult: 2.0,
        }
    }
}

/// Per-operation fault rates and the master seed.
///
/// The default configuration is completely quiet: every rate is zero and the
/// injector draws nothing from its streams, so an all-zero config is
/// bit-identical to running without an injector at all.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Master seed; per-rank streams are derived from it.
    pub seed: u64,
    /// Probability a disk read attempt fails transiently.
    pub read_error: f64,
    /// Probability a disk write attempt fails transiently (complete fail).
    pub write_error: f64,
    /// Probability a disk write attempt tears: a prefix reaches the disk,
    /// then the attempt fails and is retried in full.
    pub torn_write: f64,
    /// Probability a disk request succeeds but suffers a latency spike.
    pub io_delay: f64,
    /// Length of one I/O latency spike, in simulated seconds.
    pub io_delay_secs: f64,
    /// Probability a point-to-point send attempt is dropped (re-sent after
    /// a backoff timeout).
    pub msg_drop: f64,
    /// Probability a delivered message is delayed in flight.
    pub msg_delay: f64,
    /// Extra in-flight latency of one delayed message, in simulated seconds.
    pub msg_delay_secs: f64,
    /// Probability a disk read hits a *permanent* fault no retry can clear.
    pub hard_read: f64,
    /// Probability a disk write hits a *permanent* fault.
    pub hard_write: f64,
    /// After this many injected disk faults the disk is marked degraded
    /// (0 = never) and planners may re-plan against reduced bandwidth.
    pub degrade_after: u64,
    /// Bandwidth divisor applied by a degraded disk when re-planning.
    pub degraded_bw_factor: f64,
    /// After this many injected disk faults the disk **dies permanently**
    /// (0 = never): every subsequent request fails with a typed
    /// disk-down error that no retry or checkpoint/restart on the same
    /// disk can clear. Workload-level layers (`ooc-sched`) react by
    /// re-planning the surviving jobs onto the remaining disks.
    pub fail_after: u64,
    /// Retry policy shared by disk and message recovery.
    pub retry: RetryPolicy,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            read_error: 0.0,
            write_error: 0.0,
            torn_write: 0.0,
            io_delay: 0.0,
            io_delay_secs: 0.0,
            msg_drop: 0.0,
            msg_delay: 0.0,
            msg_delay_secs: 0.0,
            hard_read: 0.0,
            hard_write: 0.0,
            degrade_after: 0,
            degraded_bw_factor: 4.0,
            fail_after: 0,
            retry: RetryPolicy::default(),
        }
    }
}

impl FaultConfig {
    /// A quiet config (all rates zero) with the given seed.
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            seed,
            ..FaultConfig::default()
        }
    }

    /// A lively chaos preset: frequent transient disk errors, torn writes,
    /// latency spikes, and message drops/delays — but no permanent faults,
    /// so every run completes without checkpoint support.
    pub fn chaos(seed: u64) -> Self {
        FaultConfig {
            seed,
            read_error: 0.05,
            write_error: 0.04,
            torn_write: 0.02,
            io_delay: 0.03,
            io_delay_secs: 0.02,
            msg_drop: 0.05,
            msg_delay: 0.05,
            msg_delay_secs: 0.005,
            ..FaultConfig::default()
        }
    }
}

/// Which substrate an injector perturbs. Each (rank, domain) pair gets its
/// own stream so disk fates never shift message fates and vice versa.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultDomain {
    /// The parallel-I/O substrate (`pario::disk` / `pario::cache`).
    Disk,
    /// The message fabric (`ProcCtx::send`).
    Msg,
}

/// splitmix64 — tiny, seedable, and statistically fine for fate draws.
/// Embedded here because `dmsim` has no runtime RNG dependency.
#[derive(Debug)]
struct Stream {
    state: Cell<u64>,
}

impl Stream {
    fn new(seed: u64) -> Self {
        Stream {
            state: Cell::new(seed),
        }
    }

    fn next_u64(&self) -> u64 {
        let mut z = self.state.get().wrapping_add(0x9e37_79b9_7f4a_7c15);
        self.state.set(z);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn next_f64(&self) -> f64 {
        // 53 uniform bits in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw. A zero (or negative) probability returns `false`
    /// *without advancing the stream*, so disabled fault kinds leave the
    /// stream — and therefore every enabled kind's fate sequence — intact.
    fn chance(&self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        self.next_f64() < p
    }
}

/// A public seeded splitmix64 stream for *workload-level* fault plans.
///
/// The per-(job, rank, domain) streams above belong to one machine run;
/// layers above the machine (the `ooc-sched` fault-domain executive) need
/// their own deterministic draws — which job hangs, where a disk dies —
/// that must not perturb, and must not be perturbed by, any machine-level
/// stream. `FaultStream` is the same generator with an independent salt
/// space: a pure function of `(seed, salt)`.
#[derive(Debug)]
pub struct FaultStream(Stream);

impl FaultStream {
    /// Derive the stream for `salt` (e.g. a workload job index) under
    /// `seed`. Distinct salts decorrelate; the derivation is disjoint from
    /// the machine-level (rank, domain) space by construction.
    pub fn derive(seed: u64, salt: u64) -> FaultStream {
        let s = Stream::new(seed ^ salt.wrapping_mul(0xa076_1d64_78bd_642f) ^ (0x3f << 56));
        FaultStream(Stream::new(s.next_u64()))
    }

    /// Next uniform 64-bit draw.
    pub fn next_u64(&self) -> u64 {
        self.0.next_u64()
    }

    /// Next uniform draw in `[0, 1)`.
    pub fn next_f64(&self) -> f64 {
        self.0.next_f64()
    }

    /// Bernoulli draw; `p <= 0` returns `false` without advancing the
    /// stream (disabled fault kinds leave every other fate sequence
    /// intact, exactly as the machine-level injector behaves).
    pub fn chance(&self, p: f64) -> bool {
        self.0.chance(p)
    }
}

fn mix_seed(seed: u64, rank: usize, domain: FaultDomain) -> u64 {
    let d = match domain {
        FaultDomain::Disk => 0x1d,
        FaultDomain::Msg => 0x2e,
    };
    // One splitmix64 step over a combined word decorrelates nearby ranks.
    let s = Stream::new(seed ^ (rank as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (d << 56));
    s.next_u64()
}

/// Derive the stream seed for a (job, rank, domain) triple. Job 0 — the
/// implicit job of every single-program run — folds to exactly the legacy
/// per-(rank, domain) derivation, so existing seeded runs keep their fate
/// sequences bit-for-bit; any other job id perturbs the master seed before
/// the rank/domain mix, so concurrent jobs draw from independent streams
/// and cannot shift each other's chaos results.
fn mix_seed_job(seed: u64, job: u32, rank: usize, domain: FaultDomain) -> u64 {
    let seed = if job == 0 {
        seed
    } else {
        seed ^ (job as u64).wrapping_mul(0xd6e8_feb8_6659_fd93)
    };
    mix_seed(seed, rank, domain)
}

/// Fate of one disk request attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IoFate {
    /// The attempt succeeds.
    Ok,
    /// The attempt succeeds after a latency spike of the given seconds.
    Delayed(f64),
    /// The attempt fails transiently; retry after backoff.
    Transient,
    /// The attempt tears: a prefix reaches the disk, then it fails.
    Torn,
}

/// Recovery work accumulated by an injector since the last drain.
///
/// The I/O substrate performs retries synchronously but cannot reach the
/// simulated clock directly, so it accumulates charges here; the disk layer
/// drains them through [`IoCharge::io_faults`] after each public operation.
///
/// [`IoCharge::io_faults`]: ../../pario/trait.IoCharge.html#method.io_faults
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultCharges {
    /// Faults injected (transient + torn + delays + hard).
    pub faults: u64,
    /// Re-issued read requests.
    pub read_retries: u64,
    /// Bytes moved by re-issued reads.
    pub read_retry_bytes: u64,
    /// Re-issued write requests (including torn-write re-writes).
    pub write_retries: u64,
    /// Bytes moved by re-issued writes.
    pub write_retry_bytes: u64,
    /// Backoff + latency-spike seconds to charge to the clock.
    pub wait_secs: f64,
}

impl FaultCharges {
    /// True when there is nothing to charge.
    pub fn is_zero(&self) -> bool {
        self.faults == 0
            && self.read_retries == 0
            && self.write_retries == 0
            && self.wait_secs == 0.0
    }
}

/// Message-send perturbation: how many attempts are dropped before one
/// gets through, and how much extra in-flight delay the survivor suffers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsgPlan {
    /// Dropped attempts before the successful one (< `max_attempts`).
    pub drops: u32,
    /// Extra arrival delay of the delivered message, in simulated seconds.
    pub delay_secs: f64,
}

/// Per-rank, per-domain deterministic fault source.
///
/// Interior-mutable (`Cell` state) so the I/O layers can draw fates through
/// shared references; owned by exactly one simulated processor's thread.
#[derive(Debug)]
pub struct FaultInjector {
    cfg: FaultConfig,
    stream: Stream,
    // Hard-fault rates live in Cells so recovery can quiesce them mid-run
    // (checkpoint/restart re-executes with permanent faults cleared).
    hard_read: Cell<f64>,
    hard_write: Cell<f64>,
    faults_seen: Cell<u64>,
    charges: Cell<FaultCharges>,
}

impl FaultInjector {
    /// Build the injector for `rank` in `domain` from a shared config
    /// (job 0, the single-program case).
    pub fn new(cfg: &FaultConfig, rank: usize, domain: FaultDomain) -> Self {
        Self::for_job(cfg, 0, rank, domain)
    }

    /// Build the injector for `rank` of `job` in `domain`. Streams are a
    /// pure function of (seed, job, rank, domain); job 0 reproduces the
    /// legacy single-job streams exactly.
    pub fn for_job(cfg: &FaultConfig, job: u32, rank: usize, domain: FaultDomain) -> Self {
        FaultInjector {
            stream: Stream::new(mix_seed_job(cfg.seed, job, rank, domain)),
            hard_read: Cell::new(cfg.hard_read),
            hard_write: Cell::new(cfg.hard_write),
            faults_seen: Cell::new(0),
            charges: Cell::new(FaultCharges::default()),
            cfg: cfg.clone(),
        }
    }

    /// The retry policy in force.
    pub fn retry(&self) -> RetryPolicy {
        self.cfg.retry
    }

    /// Draw whether the next read hits a permanent fault.
    pub fn hard_read(&self) -> bool {
        self.stream.chance(self.hard_read.get())
    }

    /// Draw whether the next write hits a permanent fault.
    pub fn hard_write(&self) -> bool {
        self.stream.chance(self.hard_write.get())
    }

    /// Clear the permanent-fault rates: after a checkpoint/restart recovery
    /// the re-execution must be able to finish.
    pub fn quiesce_hard(&self) {
        self.hard_read.set(0.0);
        self.hard_write.set(0.0);
    }

    /// Draw the fate of one read attempt.
    pub fn read_attempt(&self) -> IoFate {
        if self.stream.chance(self.cfg.read_error) {
            IoFate::Transient
        } else if self.stream.chance(self.cfg.io_delay) {
            IoFate::Delayed(self.cfg.io_delay_secs)
        } else {
            IoFate::Ok
        }
    }

    /// Draw the fate of one write attempt.
    pub fn write_attempt(&self) -> IoFate {
        if self.stream.chance(self.cfg.write_error) {
            IoFate::Transient
        } else if self.stream.chance(self.cfg.torn_write) {
            IoFate::Torn
        } else if self.stream.chance(self.cfg.io_delay) {
            IoFate::Delayed(self.cfg.io_delay_secs)
        } else {
            IoFate::Ok
        }
    }

    /// Draw the perturbation of one message send.
    pub fn msg_plan(&self) -> MsgPlan {
        let max = self.cfg.retry.max_attempts.max(1);
        let mut drops = 0;
        while drops + 1 < max && self.stream.chance(self.cfg.msg_drop) {
            drops += 1;
        }
        let delay_secs = if self.stream.chance(self.cfg.msg_delay) {
            self.cfg.msg_delay_secs
        } else {
            0.0
        };
        MsgPlan { drops, delay_secs }
    }

    /// Record one injected fault (any kind) toward degradation.
    pub fn note_fault(&self) {
        self.faults_seen.set(self.faults_seen.get() + 1);
        let mut c = self.charges.get();
        c.faults += 1;
        self.charges.set(c);
    }

    /// Record a re-issued read of `bytes` plus `backoff_secs` of waiting.
    pub fn note_read_retry(&self, bytes: u64, backoff_secs: f64) {
        let mut c = self.charges.get();
        c.read_retries += 1;
        c.read_retry_bytes += bytes;
        c.wait_secs += backoff_secs;
        self.charges.set(c);
    }

    /// Record a re-issued write of `bytes` plus `backoff_secs` of waiting.
    pub fn note_write_retry(&self, bytes: u64, backoff_secs: f64) {
        let mut c = self.charges.get();
        c.write_retries += 1;
        c.write_retry_bytes += bytes;
        c.wait_secs += backoff_secs;
        self.charges.set(c);
    }

    /// Record a latency spike of `secs`.
    pub fn note_wait(&self, secs: f64) {
        let mut c = self.charges.get();
        c.wait_secs += secs;
        self.charges.set(c);
    }

    /// Faults injected so far by this injector.
    pub fn faults_seen(&self) -> u64 {
        self.faults_seen.get()
    }

    /// True once enough faults accumulated to mark the disk degraded.
    pub fn degraded(&self) -> bool {
        self.cfg.degrade_after > 0 && self.faults_seen.get() >= self.cfg.degrade_after
    }

    /// True once enough faults accumulated to kill the disk permanently
    /// ([`FaultConfig::fail_after`]). Unlike degradation — which planners
    /// absorb by re-planning slab sizes — a dead disk fails every
    /// subsequent request with a typed disk-down error.
    pub fn dead(&self) -> bool {
        self.cfg.fail_after > 0 && self.faults_seen.get() >= self.cfg.fail_after
    }

    /// Bandwidth divisor for planning against a degraded disk.
    pub fn degrade_factor(&self) -> f64 {
        self.cfg.degraded_bw_factor
    }

    /// Drain accumulated recovery charges (resets the accumulator).
    pub fn take_charges(&self) -> FaultCharges {
        self.charges.replace(FaultCharges::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_config_never_draws() {
        let fi = FaultInjector::new(&FaultConfig::quiet(42), 0, FaultDomain::Disk);
        for _ in 0..100 {
            assert_eq!(fi.read_attempt(), IoFate::Ok);
            assert_eq!(fi.write_attempt(), IoFate::Ok);
            assert!(!fi.hard_read());
            assert!(!fi.hard_write());
            let p = fi.msg_plan();
            assert_eq!(p.drops, 0);
            assert_eq!(p.delay_secs, 0.0);
        }
        // The stream was never advanced: a fresh injector agrees even after
        // the null draws above.
        assert_eq!(fi.stream.state.get(), mix_seed(42, 0, FaultDomain::Disk));
        assert!(fi.take_charges().is_zero());
    }

    #[test]
    fn same_seed_same_fate_sequence() {
        let mk = || FaultInjector::new(&FaultConfig::chaos(7), 3, FaultDomain::Disk);
        let a = mk();
        let b = mk();
        for _ in 0..1000 {
            assert_eq!(a.read_attempt(), b.read_attempt());
            assert_eq!(a.write_attempt(), b.write_attempt());
        }
    }

    #[test]
    fn ranks_and_domains_get_distinct_streams() {
        let cfg = FaultConfig::chaos(1);
        let d0 = FaultInjector::new(&cfg, 0, FaultDomain::Disk);
        let d1 = FaultInjector::new(&cfg, 1, FaultDomain::Disk);
        let m0 = FaultInjector::new(&cfg, 0, FaultDomain::Msg);
        let seq = |fi: &FaultInjector| (0..64).map(|_| fi.stream.next_u64()).collect::<Vec<_>>();
        let (s_d0, s_d1, s_m0) = (seq(&d0), seq(&d1), seq(&m0));
        assert_ne!(s_d0, s_d1);
        assert_ne!(s_d0, s_m0);
    }

    #[test]
    fn job_zero_streams_are_bitwise_legacy() {
        let cfg = FaultConfig::chaos(7);
        for rank in 0..4 {
            for domain in [FaultDomain::Disk, FaultDomain::Msg] {
                assert_eq!(
                    mix_seed_job(cfg.seed, 0, rank, domain),
                    mix_seed(cfg.seed, rank, domain)
                );
                let legacy = FaultInjector::new(&cfg, rank, domain);
                let job0 = FaultInjector::for_job(&cfg, 0, rank, domain);
                for _ in 0..256 {
                    assert_eq!(legacy.stream.next_u64(), job0.stream.next_u64());
                }
            }
        }
    }

    #[test]
    fn jobs_get_independent_streams_per_rank() {
        let cfg = FaultConfig::chaos(5);
        let seq = |job: u32, rank: usize| {
            let fi = FaultInjector::for_job(&cfg, job, rank, FaultDomain::Disk);
            (0..64).map(|_| fi.stream.next_u64()).collect::<Vec<_>>()
        };
        // Distinct jobs diverge on every rank; the same (job, rank) pair is
        // reproducible.
        for rank in 0..3 {
            assert_ne!(seq(0, rank), seq(1, rank));
            assert_ne!(seq(1, rank), seq(2, rank));
            assert_eq!(seq(1, rank), seq(1, rank));
        }
        // A job's stream on one rank is not another job's stream on a
        // shifted rank (the job mix is not a plain rank offset).
        assert_ne!(seq(1, 0), seq(0, 1));
    }

    #[test]
    fn chaos_preset_actually_faults() {
        let fi = FaultInjector::new(&FaultConfig::chaos(9), 0, FaultDomain::Disk);
        let mut transients = 0;
        for _ in 0..1000 {
            if fi.read_attempt() == IoFate::Transient {
                transients += 1;
            }
        }
        assert!(transients > 0, "5% rate over 1000 draws must fire");
        // But never permanently: chaos has no hard faults.
        assert!(!fi.hard_read());
    }

    #[test]
    fn backoff_grows_exponentially() {
        let r = RetryPolicy {
            max_attempts: 5,
            backoff_base: 1.0,
            backoff_mult: 2.0,
        };
        assert_eq!(r.backoff(1), 1.0);
        assert_eq!(r.backoff(2), 2.0);
        assert_eq!(r.backoff(4), 8.0);
    }

    #[test]
    fn charges_accumulate_and_drain() {
        let fi = FaultInjector::new(&FaultConfig::chaos(3), 0, FaultDomain::Disk);
        fi.note_fault();
        fi.note_read_retry(100, 0.5);
        fi.note_write_retry(50, 0.25);
        fi.note_wait(0.25);
        let c = fi.take_charges();
        assert_eq!(c.faults, 1);
        assert_eq!(c.read_retries, 1);
        assert_eq!(c.read_retry_bytes, 100);
        assert_eq!(c.write_retries, 1);
        assert_eq!(c.write_retry_bytes, 50);
        assert_eq!(c.wait_secs, 1.0);
        assert!(fi.take_charges().is_zero());
        assert_eq!(fi.faults_seen(), 1);
    }

    #[test]
    fn degradation_trips_after_threshold() {
        let cfg = FaultConfig {
            degrade_after: 3,
            ..FaultConfig::quiet(0)
        };
        let fi = FaultInjector::new(&cfg, 0, FaultDomain::Disk);
        assert!(!fi.degraded());
        fi.note_fault();
        fi.note_fault();
        assert!(!fi.degraded());
        fi.note_fault();
        assert!(fi.degraded());
    }

    #[test]
    fn quiesce_clears_hard_rates() {
        let cfg = FaultConfig {
            hard_read: 1.0,
            hard_write: 1.0,
            ..FaultConfig::quiet(0)
        };
        let fi = FaultInjector::new(&cfg, 0, FaultDomain::Disk);
        assert!(fi.hard_read());
        fi.quiesce_hard();
        assert!(!fi.hard_read());
        assert!(!fi.hard_write());
    }

    #[test]
    fn msg_drops_bounded_below_max_attempts() {
        let cfg = FaultConfig {
            msg_drop: 1.0,
            retry: RetryPolicy {
                max_attempts: 4,
                ..RetryPolicy::default()
            },
            ..FaultConfig::quiet(0)
        };
        let fi = FaultInjector::new(&cfg, 0, FaultDomain::Msg);
        for _ in 0..32 {
            assert_eq!(fi.msg_plan().drops, 3);
        }
    }
}
