//! `rank-ladder`: one SPMD body on 64 to 4096 coroutine ranks of a
//! zero-cost machine, so `dmsim` alone does the work.

use std::collections::BTreeMap;

use dmsim::{Machine, MachineConfig, Payload, ProcCtx, Tag, WorkerPool};

use super::{start_pool, LapClock, OpRow, Rng, Sim, Size, Sweep, Workload};
use crate::spans::Tracer;
use crate::stats::Fnv;

/// The span each rung's host time is recorded under: the four rungs of the
/// SPMD body, then the all-to-all rung.
const SPANS: [&str; 5] = [
    "run_s.64",
    "run_s.256",
    "run_s.1024",
    "run_s.4096",
    "alltoall_s.256",
];
const FULL_RANKS: [usize; 5] = [64, 256, 1024, 4096, 256];
/// A smaller ladder under the same span names, so the smoke run exercises
/// every code path the full run does.
const SMOKE_RANKS: [usize; 5] = [16, 32, 64, 128, 32];

pub struct RankLadder {
    ranks: [usize; 5],
    /// Seeded perturbation of the flop charges and payloads.
    salt: u64,
    pool: WorkerPool,
}

/// The `scale` bench's SPMD body: every kind of clock-advance point, sized
/// so per-rank state is small and rank count dominates. Returns the
/// allreduced sum, or `None` if the ring delivered the wrong payload.
fn workout(ctx: &ProcCtx, salt: u64) -> Option<f64> {
    let p = ctx.nprocs();
    let me = ctx.rank();
    ctx.charge_flops((me as u64 * 7919 + salt) % 10_000 + 100);
    if p > 1 {
        let next = (me + 1) % p;
        let prev = (me + p - 1) % p;
        ctx.send(next, Tag(1), Payload::U64(vec![me as u64 ^ salt; 4]));
        let got = ctx.recv(prev, Tag(1)).ok()?.into_u64();
        if got != vec![prev as u64 ^ salt; 4] {
            return None;
        }
    }
    ctx.charge_io_read(2, 1 << 14);
    ctx.io_yield();
    ctx.charge_io_write(1, 1 << 12);
    ctx.io_yield();
    let sum = ctx.allreduce_sum_f64(&[me as f64 + 1.0]);
    ctx.barrier();
    Some(sum[0])
}

/// Every rank sends its rank id to every rank. Returns whether each peer's
/// piece arrived in its slot.
fn all_to_all(ctx: &ProcCtx, salt: u64) -> Option<f64> {
    let p = ctx.nprocs();
    let me = ctx.rank() as u64;
    let sends: Vec<Vec<u64>> = (0..p).map(|_| vec![me ^ salt]).collect();
    let got = ctx.alltoallv::<u64>(sends);
    got.iter()
        .enumerate()
        .all(|(j, v)| v == &[j as u64 ^ salt])
        .then_some(p as f64)
}

impl RankLadder {
    pub fn setup(seed: u64, size: Size, tr: &mut Tracer) -> RankLadder {
        RankLadder {
            ranks: match size {
                Size::Full => FULL_RANKS,
                Size::Smoke => SMOKE_RANKS,
            },
            salt: Rng::new(seed, 0x1adde4).below(1 << 20),
            pool: start_pool(tr),
        }
    }
}

impl Workload for RankLadder {
    fn sweep(&mut self, tr: &mut Tracer) -> Sweep {
        let mut sweep = Sweep::default();
        let mut digest = Fnv::default();
        let salt = self.salt;
        let mut clock = LapClock::start();
        for (i, (&ranks, span)) in self.ranks.iter().zip(SPANS).enumerate() {
            let exchange = span.starts_with("alltoall");
            tr.set_op(i as u32);
            let op = tr.begin("bench", "op");
            sweep.ops += 1;
            let machine = Machine::new(MachineConfig::free(ranks));
            let (report, values) = tr.span("dmsim", span, || {
                if exchange {
                    machine.run_on(&self.pool, |ctx| all_to_all(ctx, salt))
                } else {
                    machine.run_on(&self.pool, |ctx| workout(ctx, salt))
                }
            });
            // Serial reference: the allreduce of 1..=p, or p delivered pieces.
            let p = ranks as f64;
            let expect = if exchange { p } else { p * (p + 1.0) / 2.0 };
            let ok = values.iter().all(|v| *v == Some(expect));
            let mut sim = Sim::of_report(&report);
            // The collectives the body called: allreduce + barrier, or one
            // all-to-all.
            sim.events += if exchange { 1 } else { 2 };
            sim.digest(&mut digest);
            // On a zero-cost machine the seeded flop charges move no clock;
            // the flop counter is where the seed shows.
            let totals = report.totals();
            digest.u64(totals.flops);
            for v in values.iter().flatten() {
                digest.f64(*v);
            }
            sweep.sim.add(&sim);
            sweep.count_stats(&totals);
            sweep.failed += u64::from(!ok);
            sweep.rows.push(OpRow {
                label: format!(
                    "{} ranks{}",
                    ranks,
                    if exchange { " all-to-all" } else { "" }
                ),
                sim_s: sim.elapsed_s,
                est_gap: None,
                ok,
            });
            tr.end(op);
            sweep.laps.push(clock.lap());
        }
        sweep.digest = digest.0;
        sweep
    }

    fn probes(&mut self, _tr: &mut Tracer) -> BTreeMap<&'static str, f64> {
        // The sweep's spans already are `dmsim`'s public entry points.
        BTreeMap::new()
    }

    /// Host cost per simulated rank at each rung, and how it grows from the
    /// second rung to the fourth (1.0 = flat, the Robillard bound).
    fn derive(&self, m: &mut BTreeMap<&'static str, f64>) {
        let per_rank_us = |rung: usize| {
            m[format!("dmsim.{}", SPANS[rung]).as_str()] * 1e6 / self.ranks[rung] as f64
        };
        let (c256, c1024, c4096) = (per_rank_us(1), per_rank_us(2), per_rank_us(3));
        m.insert("dmsim.host_us_per_rank.256", c256);
        m.insert("dmsim.host_us_per_rank.1024", c1024);
        m.insert("dmsim.host_us_per_rank.4096", c4096);
        m.insert(
            "dmsim.rank_cost_ratio_4096_over_256",
            if c256 > 0.0 { c4096 / c256 } else { 0.0 },
        );
    }
}
