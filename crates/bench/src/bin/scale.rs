//! Capacity bench for the pooled execution engine: how many simulated
//! ranks and concurrent jobs one fixed worker pool hosts, and at what
//! wall-clock cost — with bitwise engine parity asserted at every rung
//! both engines can reach.
//!
//! Two ladders:
//!
//! * **Ranks** — one SPMD microbench (compute, ring traffic, disk charges
//!   with cooperative yields, allreduce, barrier) run solo at 16 → 4096
//!   ranks on a 4-worker pool. Rungs up to `--threaded-max` (default 256)
//!   are re-run on the threaded engine and on a 1-worker pool and must
//!   match bit for bit; beyond that, the 1-worker cross-check still runs.
//!   Host µs per rank is printed per rung, and the 4096 / 256 ratio of it
//!   after the table: 1.0 is a flat per-rank cost.
//! * **Jobs** — 4 → 100 concurrent gaxpy jobs captured live on the shared
//!   pool via `ooc_sched::capture_specs` and scheduled against the disk
//!   farm. The first job's profile must equal its solo threaded capture.
//!
//! Usage: `cargo run --release -p ooc-bench --bin scale [--smoke]
//! [--threaded-max N] [--out FILE]` (default FILE = BENCH_scale.json).
//! `--smoke` trims the ladders (≤256 ranks, ≤16 jobs) for CI. Exits
//! nonzero on any parity failure.

use std::sync::Arc;
use std::time::Instant;

use dmsim::{Engine, Machine, MachineConfig, Payload, ProcCtx, Tag, WorkerPool};
use ooc_bench::{peak_rss_bytes, TextTable};
use ooc_core::{compile_hir, CompilerOptions};
use ooc_sched::{capture_specs, profile, run_workload, Policy, ProgramJob, WorkloadConfig};

const WORKERS: usize = 4;
const JOB_N: usize = 32;
const JOB_P: usize = 4;

/// The solo-ladder SPMD body: every kind of clock-advance point, sized so
/// per-rank state is small and rank count dominates.
fn workout(ctx: &ProcCtx) -> f64 {
    let p = ctx.nprocs();
    let me = ctx.rank();
    ctx.charge_flops((me as u64 * 7919) % 10_000 + 100);
    if p > 1 {
        let next = (me + 1) % p;
        let prev = (me + p - 1) % p;
        ctx.send(next, Tag(1), Payload::U64(vec![me as u64; 4]));
        let got = ctx.recv(prev, Tag(1)).unwrap().into_u64();
        assert_eq!(got, vec![prev as u64; 4]);
    }
    ctx.charge_io_read(2, 1 << 14);
    ctx.io_yield();
    ctx.charge_io_write(1, 1 << 12);
    ctx.io_yield();
    let sum = ctx.allreduce_sum_f64(&[me as f64 + 1.0]);
    ctx.barrier();
    sum[0]
}

struct RankRung {
    ranks: usize,
    wall_s: f64,
    ranks_per_s: f64,
    /// Host wall time per simulated rank, in microseconds.
    us_per_rank: f64,
    peak_rss_bytes: Option<u64>,
    parity: &'static str,
}

struct Obs {
    per_proc: Vec<dmsim::proc::ProcReport>,
    elapsed_bits: u64,
    values: Vec<f64>,
}

fn observe(report: &dmsim::RunReport, values: Vec<f64>) -> Obs {
    Obs {
        per_proc: report.per_proc().to_vec(),
        elapsed_bits: report.elapsed().to_bits(),
        values,
    }
}

fn assert_obs_eq(a: &Obs, b: &Obs, what: &str, ranks: usize) {
    assert_eq!(
        a.per_proc, b.per_proc,
        "{what}: per-proc stats at p={ranks}"
    );
    assert_eq!(
        a.elapsed_bits, b.elapsed_bits,
        "{what}: elapsed bits at p={ranks}"
    );
    assert_eq!(a.values, b.values, "{what}: rank values at p={ranks}");
}

fn run_rank_rung(pool: &WorkerPool, ranks: usize, threaded_max: usize) -> RankRung {
    let machine = || Machine::new(MachineConfig::free(ranks));

    let t0 = Instant::now();
    let (mut report, values) = machine().run_on(pool, workout);
    let wall_s = t0.elapsed().as_secs_f64();
    report.set_peak_rss_bytes(peak_rss_bytes());
    let pooled = observe(&report, values);

    // Cross-check: a 1-worker pool serializes every rank on one OS thread
    // and must still produce the same bits.
    let solo_pool = WorkerPool::new(1);
    let (rep1, vals1) = machine().run_on(&solo_pool, workout);
    assert_obs_eq(&observe(&rep1, vals1), &pooled, "Pool(1) vs Pool(4)", ranks);
    let mut parity = "pool1";

    // Oracle: the threaded engine, where each rank is an OS thread. Only
    // viable up to the host's thread budget.
    if ranks <= threaded_max {
        let m = Machine::new(MachineConfig::free(ranks).with_engine(Engine::Threads));
        let (rep_t, vals_t) = m.run_with(workout);
        assert_obs_eq(
            &observe(&rep_t, vals_t),
            &pooled,
            "Threads vs Pool(4)",
            ranks,
        );
        parity = "threads+pool1";
    }

    RankRung {
        ranks,
        wall_s,
        ranks_per_s: ranks as f64 / wall_s.max(1e-9),
        us_per_rank: wall_s * 1e6 / ranks as f64,
        peak_rss_bytes: report.peak_rss_bytes(),
        parity,
    }
}

struct JobsRung {
    jobs: usize,
    wall_s: f64,
    jobs_per_s: f64,
    peak_rss_bytes: Option<u64>,
    farm_makespan: f64,
}

fn run_jobs_rung(pool: &WorkerPool, jobs: usize) -> JobsRung {
    let compiled = Arc::new(
        compile_hir(
            ooc_bench::gaxpy_hir(JOB_N, JOB_P),
            &CompilerOptions::default(),
        )
        .unwrap(),
    );
    let fleet: Vec<ProgramJob> = (0..jobs)
        .map(|i| ProgramJob::new(format!("j{i}"), Arc::clone(&compiled)).with_job_tag(i as u32 + 1))
        .collect();

    let t0 = Instant::now();
    let specs = capture_specs(&fleet, pool).expect("live capture");
    let wall_s = t0.elapsed().as_secs_f64();

    // Parity: concurrency must not perturb any job — check the first
    // against its solo threaded capture.
    let solo = profile(&fleet[0].compiled, &fleet[0].cfg).expect("solo capture");
    assert_eq!(
        specs[0].profile, solo,
        "live capture of job 0 diverged from its solo threaded capture at {jobs} jobs"
    );

    let rep = run_workload(
        &specs,
        &WorkloadConfig {
            policy: Policy::FairShare,
            max_concurrent: jobs,
            ..WorkloadConfig::default()
        },
    )
    .expect("workload batch is well-formed");
    assert_eq!(rep.jobs.len(), jobs);

    JobsRung {
        jobs,
        wall_s,
        jobs_per_s: jobs as f64 / wall_s.max(1e-9),
        peak_rss_bytes: peak_rss_bytes(),
        farm_makespan: rep.makespan(),
    }
}

fn fmt_rss(b: Option<u64>) -> String {
    match b {
        Some(b) => format!("{:.1}", b as f64 / (1024.0 * 1024.0)),
        None => "n/a".to_string(),
    }
}

fn json_rss(b: Option<u64>) -> String {
    match b {
        Some(b) => b.to_string(),
        None => "null".to_string(),
    }
}

fn main() {
    let mut out_path = "BENCH_scale.json".to_string();
    let mut smoke = false;
    let mut threaded_max = 256usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--smoke" => smoke = true,
            "--threaded-max" => {
                threaded_max = args
                    .next()
                    .expect("--threaded-max needs a count")
                    .parse()
                    .expect("--threaded-max needs a number")
            }
            other => panic!("unknown argument {other}"),
        }
    }
    assert!(
        dmsim::Engine::Pool(WORKERS) != dmsim::Engine::Threads,
        "unreachable"
    );

    let rank_ladder: &[usize] = if smoke {
        &[16, 64, 256]
    } else {
        &[16, 64, 256, 1024, 2048, 4096]
    };
    let jobs_ladder: &[usize] = if smoke { &[4, 16] } else { &[4, 16, 100] };

    println!(
        "scale bench: {WORKERS}-worker pool, ranks ladder {rank_ladder:?}, \
         jobs ladder {jobs_ladder:?} (threaded oracle up to {threaded_max} ranks)\n"
    );

    let pool = WorkerPool::new(WORKERS);

    let rank_rungs: Vec<RankRung> = rank_ladder
        .iter()
        .map(|&p| run_rank_rung(&pool, p, threaded_max))
        .collect();

    let mut table = TextTable::new(&[
        "Ranks",
        "Wall (s)",
        "Host us/rank",
        "Peak RSS (MiB)",
        "Parity",
    ]);
    for r in &rank_rungs {
        table.row(vec![
            r.ranks.to_string(),
            format!("{:.4}", r.wall_s),
            format!("{:.2}", r.us_per_rank),
            fmt_rss(r.peak_rss_bytes),
            r.parity.to_string(),
        ]);
    }
    print!("{}", table.render());
    let us_at = |ranks: usize| {
        rank_rungs
            .iter()
            .find(|r| r.ranks == ranks)
            .map(|r| r.us_per_rank)
    };
    let cost_ratio = us_at(4096).zip(us_at(256)).map(|(hi, lo)| hi / lo);
    if let Some(ratio) = cost_ratio {
        println!("host us/rank at 4096 over 256 ranks: {ratio:.2} (1.0 = flat per-rank cost)");
    }
    println!();

    let jobs_rungs: Vec<JobsRung> = jobs_ladder
        .iter()
        .map(|&j| run_jobs_rung(&pool, j))
        .collect();

    let mut table = TextTable::new(&[
        "Jobs",
        "Wall (s)",
        "Jobs/s",
        "Peak RSS (MiB)",
        "Farm makespan (s)",
    ]);
    for r in &jobs_rungs {
        table.row(vec![
            r.jobs.to_string(),
            format!("{:.4}", r.wall_s),
            format!("{:.1}", r.jobs_per_s),
            fmt_rss(r.peak_rss_bytes),
            format!("{:.4}", r.farm_makespan),
        ]);
    }
    print!("{}", table.render());

    // JSON artifact (hand-rolled: the serde shim is marker-only).
    let mut json = String::from("{\n  \"bench\": \"scale\",\n");
    json.push_str(&format!(
        "  \"workers\": {WORKERS},\n  \"smoke\": {smoke},\n  \"threaded_max\": {threaded_max},\n"
    ));
    json.push_str(&format!(
        "  \"rank_cost_ratio_4096_over_256\": {},\n",
        cost_ratio.map_or("null".to_string(), |r| format!("{r:.3}"))
    ));
    json.push_str("  \"ranks\": [\n");
    for (i, r) in rank_rungs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"ranks\": {}, \"wall_s\": {:.6}, \"ranks_per_s\": {:.3}, \
             \"host_us_per_rank\": {:.3}, \"peak_rss_bytes\": {}, \"parity\": \"{}\"}}{}\n",
            r.ranks,
            r.wall_s,
            r.ranks_per_s,
            r.us_per_rank,
            json_rss(r.peak_rss_bytes),
            r.parity,
            if i + 1 < rank_rungs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"jobs\": [\n");
    for (i, r) in jobs_rungs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"jobs\": {}, \"wall_s\": {:.6}, \"jobs_per_s\": {:.3}, \
             \"peak_rss_bytes\": {}, \"farm_makespan\": {:.9}}}{}\n",
            r.jobs,
            r.wall_s,
            r.jobs_per_s,
            json_rss(r.peak_rss_bytes),
            r.farm_makespan,
            if i + 1 < jobs_rungs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    ooc_trace::json::parse(&json).expect("bench JSON is well-formed");
    std::fs::write(&out_path, &json).expect("write bench JSON");
    println!("\nwrote {out_path}");
}
