//! The chaos fleet the `chaos_workload` and `service` benches run: a few
//! long gaxpy "tenants" that fill every concurrency slot at t=0, then a
//! stream of short jobs arriving behind them while the cap is full —
//! forcing EDF preemption — under hang injection, watchdog kills,
//! deadlines and one mid-workload permanent disk death.
//!
//! The two benches differ in a [`Shape`]; everything else is here once.

use std::sync::Arc;

use dmsim::{FaultConfig, WorkerPool};
use noderun::RunConfig;
use ooc_core::{compile_hir, CompilerOptions};
use ooc_sched::{capture_specs, profile, DomainConfig, JobSpec, Policy, ProgramJob};

/// What distinguishes one bench's fleet from the other's.
pub struct Shape {
    /// The tenants run gaxpy at `long_scale * ranks` (the short jobs at
    /// `16 * ranks`).
    pub long_scale: usize,
    /// Name prefix of the short jobs.
    pub short_prefix: &'static str,
    /// [`DomainConfig::hang_chance`] of the guarded run.
    pub hang_chance: f64,
}

/// Command line shared by the two benches:
/// `[--jobs N] [--ranks R] [--seed S] [--out FILE]`.
pub struct Opts {
    pub jobs: usize,
    pub ranks: usize,
    pub seed: u64,
    pub out: String,
}

impl Opts {
    /// Parse `std::env::args` over the bench's defaults (4 ranks and seed
    /// 2026 in both).
    pub fn parse(default_jobs: usize, default_out: &str) -> Opts {
        let mut o = Opts {
            jobs: default_jobs,
            ranks: 4,
            seed: 2026,
            out: default_out.to_string(),
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            let mut val = || args.next().unwrap_or_else(|| panic!("{a} needs a value"));
            match a.as_str() {
                "--jobs" => o.jobs = val().parse().expect("--jobs N"),
                "--ranks" => o.ranks = val().parse().expect("--ranks R"),
                "--seed" => o.seed = val().parse().expect("--seed S"),
                "--out" => o.out = val(),
                other => panic!("unknown argument {other}"),
            }
        }
        assert!(o.jobs >= 6, "need at least 6 jobs (tenants + short stream)");
        assert!(o.ranks >= 2, "need >= 2 disks to survive a disk death");
        o
    }

    /// How many of the jobs are long tenants (they are the first ones).
    pub fn nlong(&self) -> usize {
        4.min(self.jobs / 4).max(2)
    }
}

/// The fleet's programs. Every job carries its own machine-level chaos
/// stream (distinct tag).
fn programs(opts: &Opts, shape: &Shape) -> Vec<ProgramJob> {
    let compile = |scale: usize| {
        let hir = crate::gaxpy_hir(scale * opts.ranks, opts.ranks);
        Arc::new(compile_hir(hir, &CompilerOptions::default()).unwrap())
    };
    let (short, long) = (compile(16), compile(shape.long_scale));
    let nlong = opts.nlong();
    (0..opts.jobs)
        .map(|i| {
            let (compiled, name) = if i < nlong {
                (&long, format!("tenant-{i}"))
            } else {
                (&short, format!("{}{}", shape.short_prefix, i - nlong))
            };
            let cfg = RunConfig {
                fault: Some(FaultConfig::chaos(opts.seed)),
                ..RunConfig::default()
            };
            ProgramJob::new(name, Arc::clone(compiled))
                .with_cfg(cfg)
                .with_job_tag(i as u32 + 1)
        })
        .collect()
}

/// Capture the fleet on both engines and return `(threaded, pooled)` specs:
/// `Threads` runs each job solo with one OS thread per rank, `Pool(4)` runs
/// the whole fleet as cooperative tasks on four workers. The profiles must
/// match bitwise — every guarded run is a pure function of them.
///
/// Tenants are submitted at t=0, the short jobs staggered by a fraction of
/// the short solo makespan.
pub fn capture(opts: &Opts, shape: &Shape) -> (Vec<JobSpec>, Vec<JobSpec>) {
    let jobs = programs(opts, shape);
    let mut threaded: Vec<JobSpec> = jobs
        .iter()
        .map(|j| {
            let p = profile(&j.compiled, &j.cfg).expect("threaded capture");
            JobSpec::new(j.name.clone(), p)
        })
        .collect();
    let mut pooled = capture_specs(&jobs, &WorkerPool::new(4)).expect("pooled capture");
    assert!(
        threaded
            .iter()
            .zip(&pooled)
            .all(|(t, p)| t.profile == p.profile),
        "Threads / Pool(4) capture parity broke"
    );
    let nlong = opts.nlong();
    for specs in [&mut threaded, &mut pooled] {
        let short_ms = specs[nlong].profile.makespan();
        for (k, s) in specs[nlong..].iter_mut().enumerate() {
            s.submit = 0.4 * short_ms * k as f64;
        }
    }
    (threaded, pooled)
}

/// The guarded-runtime configuration the fleet runs under, scaled to the
/// captured makespans.
pub fn domain_cfg(opts: &Opts, shape: &Shape, specs: &[JobSpec], policy: Policy) -> DomainConfig {
    let nlong = opts.nlong();
    let short_ms = specs[nlong].profile.makespan();
    let long_ms = specs[0].profile.makespan();
    DomainConfig {
        policy,
        disks: opts.ranks,
        max_concurrent: nlong,
        seed: opts.seed,
        hang_chance: shape.hang_chance,
        watchdog_quantum: 0.5 * short_ms,
        deadline_factor: 8.0,
        max_retries: 2,
        backoff_base: 0.25 * short_ms,
        checkpoint_every: 4,
        epoch: short_ms / 8.0,
        // One permanent death mid-workload, on the highest disk; the
        // farm re-plans the survivors' streams onto the rest.
        disk_deaths: vec![(1.5 * long_ms.min(short_ms * 6.0), opts.ranks - 1)],
        ..DomainConfig::default()
    }
}
