//! Multi-job workload bench: p50/p95 simulated job completion per disk
//! scheduling policy at 1, 4 and 8 concurrent jobs on the shared farm.
//!
//! The job population is 24 jobs per concurrency level: one "heavy" gaxpy
//! (large matrices, long disk services, fair-share weight 1) hidden among
//! 23 "small" gaxpys (weight 4). Jobs run in instances of exactly the
//! concurrency level, so the metrics isolate *disk scheduling* effects
//! from admission queueing; per-job turnarounds are pooled across
//! instances before taking percentiles. The tail (p95) lands on the small
//! jobs that share a farm with the heavy one — the jobs FIFO convoys
//! behind long heavy requests and weighted fair share rescues.
//!
//! Usage: `cargo run --release -p ooc-bench --bin workload [--out FILE]`
//! (default FILE = BENCH_workload.json). Exits nonzero if fair share does
//! not beat FIFO on p95 at >= 4 concurrent jobs, or if the single-job
//! ladder diverges across policies (farm-parity smoke).

use ooc_bench::TextTable;
use ooc_core::{compile_hir, CompilerOptions};
use ooc_sched::{profile, run_workload, JobProfile, JobSpec, Policy, WorkloadConfig};
use ooc_trace::metrics::percentile_sorted;

const NJOBS: usize = 24;
const SMALL_N: usize = 64;
const HEAVY_N: usize = 160;
const NPROCS: usize = 4;
const SMALL_WEIGHT: f64 = 4.0;
const HEAVY_WEIGHT: f64 = 1.0;

struct Line {
    policy: Policy,
    concurrency: usize,
    p50: f64,
    p95: f64,
    mean_wait: f64,
    max_wait: f64,
    makespan: f64,
}

/// Run the 24-job population at `concurrency` under `policy`; pool the
/// per-job turnarounds.
fn run_level(small: &JobProfile, heavy: &JobProfile, policy: Policy, concurrency: usize) -> Line {
    let mut turnarounds: Vec<f64> = Vec::with_capacity(NJOBS);
    let mut wait_sum = 0.0f64;
    let mut max_wait = 0.0f64;
    let mut requests = 0u64;
    let mut makespan = 0.0f64;
    let mut placed = 0usize;
    while placed < NJOBS {
        let take = concurrency.min(NJOBS - placed);
        let specs: Vec<JobSpec> = (0..take)
            .map(|k| {
                if placed + k == 0 {
                    JobSpec::new("heavy", heavy.clone()).with_weight(HEAVY_WEIGHT)
                } else {
                    JobSpec::new(format!("small-{}", placed + k), small.clone())
                        .with_weight(SMALL_WEIGHT)
                }
            })
            .collect();
        let rep = run_workload(
            &specs,
            &WorkloadConfig {
                policy,
                max_concurrent: concurrency,
                ..WorkloadConfig::default()
            },
        )
        .expect("workload batch is well-formed");
        for j in &rep.jobs {
            turnarounds.push(j.turnaround());
            wait_sum += j.total_wait;
            max_wait = max_wait.max(j.max_wait);
            requests += j.requests;
        }
        makespan = makespan.max(rep.makespan());
        placed += take;
    }
    turnarounds.sort_by(f64::total_cmp);
    let percentile = |q| percentile_sorted(&turnarounds, q).expect("NJOBS > 0");
    Line {
        policy,
        concurrency,
        p50: percentile(0.50),
        p95: percentile(0.95),
        mean_wait: if requests > 0 {
            wait_sum / requests as f64
        } else {
            0.0
        },
        max_wait,
        makespan,
    }
}

fn main() {
    let mut out_path = "BENCH_workload.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            other => panic!("unknown argument {other}"),
        }
    }

    let small = compile_hir(gaxpy(SMALL_N), &CompilerOptions::default()).unwrap();
    let heavy = compile_hir(gaxpy(HEAVY_N), &CompilerOptions::default()).unwrap();
    let ps = profile(&small, &noderun::RunConfig::default()).unwrap();
    let ph = profile(&heavy, &noderun::RunConfig::default()).unwrap();
    println!(
        "workload bench: {NJOBS} jobs (1 heavy gaxpy {HEAVY_N}x{HEAVY_N} w={HEAVY_WEIGHT}, \
         {} small gaxpy {SMALL_N}x{SMALL_N} w={SMALL_WEIGHT}) on {NPROCS} disks",
        NJOBS - 1
    );
    println!(
        "solo makespans: small {:.4}s ({} reqs), heavy {:.4}s ({} reqs)\n",
        ps.makespan(),
        ps.total_requests(),
        ph.makespan(),
        ph.total_requests()
    );

    let mut lines = Vec::new();
    for &concurrency in &[1usize, 4, 8] {
        for policy in Policy::ALL {
            lines.push(run_level(&ps, &ph, policy, concurrency));
        }
    }

    let mut table = TextTable::new(&[
        "Policy",
        "Conc",
        "p50 (s)",
        "p95 (s)",
        "mean wait (s)",
        "max wait (s)",
        "makespan (s)",
    ]);
    for l in &lines {
        table.row(vec![
            l.policy.name().to_string(),
            l.concurrency.to_string(),
            format!("{:.4}", l.p50),
            format!("{:.4}", l.p95),
            format!("{:.6}", l.mean_wait),
            format!("{:.4}", l.max_wait),
            format!("{:.4}", l.makespan),
        ]);
    }
    print!("{}", table.render());

    // JSON artifact (hand-rolled: the serde shim is marker-only).
    let mut json = String::from("{\n  \"bench\": \"workload\",\n");
    json.push_str(&format!(
        "  \"jobs\": {NJOBS},\n  \"disks\": {NPROCS},\n  \"small_n\": {SMALL_N},\n  \"heavy_n\": {HEAVY_N},\n"
    ));
    json.push_str("  \"results\": [\n");
    for (i, l) in lines.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"policy\": \"{}\", \"concurrency\": {}, \"p50\": {:.9}, \"p95\": {:.9}, \
             \"mean_wait\": {:.9}, \"max_wait\": {:.9}, \"makespan\": {:.9}}}{}\n",
            l.policy.name(),
            l.concurrency,
            l.p50,
            l.p95,
            l.mean_wait,
            l.max_wait,
            l.makespan,
            if i + 1 < lines.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    ooc_trace::json::parse(&json).expect("bench JSON is well-formed");
    std::fs::write(&out_path, &json).expect("write bench JSON");
    println!("\nwrote {out_path}");

    // Acceptance checks.
    let find = |policy: Policy, c: usize| {
        lines
            .iter()
            .find(|l| l.policy == policy && l.concurrency == c)
            .unwrap()
    };
    // Single-job ladder: with one job per instance there is no contention,
    // so every policy must agree bitwise (farm parity smoke).
    for policy in Policy::ALL {
        let a = find(policy, 1);
        let b = find(Policy::StaticShare, 1);
        assert_eq!(
            a.p95.to_bits(),
            b.p95.to_bits(),
            "policy {} diverged on the contention-free ladder",
            policy.name()
        );
        assert_eq!(a.mean_wait, 0.0);
    }
    // Weighted fair share must beat FIFO on the p95 tail once the heavy
    // job contends with >= 3 small ones.
    for c in [4usize, 8] {
        let fifo = find(Policy::Fifo, c);
        let fair = find(Policy::FairShare, c);
        assert!(
            fair.p95 < fifo.p95,
            "fair-share p95 {:.4} !< fifo p95 {:.4} at {c} concurrent jobs",
            fair.p95,
            fifo.p95
        );
        println!(
            "ok: fair-share p95 {:.4}s < fifo p95 {:.4}s at {c} concurrent jobs ({:.1}% better)",
            fair.p95,
            fifo.p95,
            (1.0 - fair.p95 / fifo.p95) * 100.0
        );
    }
}

fn gaxpy(n: usize) -> ooc_core::HirProgram {
    ooc_bench::gaxpy_hir(n, NPROCS)
}
