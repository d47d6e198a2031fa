//! Engine parity under chaos: whole workloads — captured concurrently on
//! worker pools of various widths, with machine-level fault injection on —
//! must be bitwise-identical to the same workloads captured with one OS
//! thread per rank, and the kill/resume paths must preserve that parity.

use std::sync::Arc;

use dmsim::{FaultConfig, WorkerPool};
use noderun::{start, RunConfig};
use ooc_core::{compile_source, CompiledProgram, CompilerOptions};
use ooc_sched::{
    capture_specs, profile, run_workload, run_workload_guarded_observed, DomainConfig, JobSpec,
    Policy, ProgramJob, WorkloadConfig,
};
use proptest::prelude::*;

fn gaxpy() -> Arc<CompiledProgram> {
    Arc::new(compile_source(hpf::GAXPY_SOURCE, &CompilerOptions::default()).unwrap())
}

/// A fleet of chaos-injected jobs with distinct tags (distinct fault/RNG
/// streams) and staggered submits.
fn fleet(compiled: &Arc<CompiledProgram>, njobs: usize, seed: u64) -> Vec<ProgramJob> {
    (0..njobs)
        .map(|i| {
            let cfg = RunConfig {
                fault: Some(FaultConfig::chaos(seed)),
                ..RunConfig::default()
            };
            ProgramJob::new(format!("j{i}"), Arc::clone(compiled))
                .with_cfg(cfg)
                .with_job_tag(i as u32 + 1)
                .with_submit(i as f64 * 0.01)
                .with_weight(1.0 + i as f64 * 0.5)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn pooled_chaos_workloads_match_threaded_capture_bitwise(
        seed in 0u64..500,
        njobs in 2usize..4,
    ) {
        let compiled = gaxpy();
        let jobs = fleet(&compiled, njobs, seed);
        let wcfg = WorkloadConfig {
            policy: Policy::FairShare,
            max_concurrent: 2,
            ..WorkloadConfig::default()
        };
        // Threads baseline: sequential solo captures (one OS thread per
        // rank), then the same deterministic admission/replay.
        let specs: Vec<JobSpec> = jobs
            .iter()
            .map(|j| {
                JobSpec::new(j.name.clone(), profile(&j.compiled, &j.cfg).unwrap())
                    .with_submit(j.submit)
                    .with_weight(j.weight)
            })
            .collect();
        let threaded = run_workload(&specs, &wcfg).unwrap();
        // Observer streams are part of the parity contract: the guarded
        // observed run over the threaded capture is the baseline the pooled
        // engines must reproduce byte for byte.
        let dcfg = DomainConfig {
            policy: Policy::FairShare,
            max_concurrent: 2,
            ..DomainConfig::default()
        };
        let cadence = specs[0].profile.makespan() / 4.0;
        let stream = |specs: &[JobSpec]| {
            let mut log = ooc_sched::EventLog::default();
            run_workload_guarded_observed(specs, &dcfg, cadence, &mut log).unwrap();
            log.render()
        };
        let baseline_stream = stream(&specs);
        for workers in [1usize, 2, 8] {
            let pool = WorkerPool::new(workers);
            let pooled_specs = capture_specs(&jobs, &pool).unwrap();
            let pooled = run_workload(&pooled_specs, &wcfg).unwrap();
            prop_assert_eq!(
                &pooled, &threaded,
                "Pool({}) chaos workload diverged from Threads", workers
            );
            prop_assert_eq!(
                &stream(&pooled_specs), &baseline_stream,
                "Pool({}) event stream diverged from Threads", workers
            );
        }
    }

    #[test]
    fn kill_and_resume_paths_preserve_chaos_parity(
        seed in 0u64..500,
    ) {
        let compiled = gaxpy();
        let cfg = RunConfig {
            fault: Some(FaultConfig::chaos(seed)),
            job: 1,
            trace: Some(ooc_trace::TraceConfig::detailed()),
            ..RunConfig::default()
        };
        let solo = profile(&compiled, &cfg).unwrap();
        for workers in [1usize, 2, 8] {
            let pool = WorkerPool::new(workers);
            // Kill path: an aborted bystander must not perturb the victim's
            // capture on the same pool.
            let doomed = start(Arc::clone(&compiled), Arc::new(cfg.clone()), &pool).unwrap();
            let jobs = fleet(&compiled, 1, seed);
            let live = ooc_sched::profile_all_on(&jobs, &pool).unwrap();
            doomed.abort();
            prop_assert_eq!(&live[0], &solo, "Pool({}) capture next to an abort", workers);
            // Resume path: a preempted-then-resumed run still captures the
            // identical profile.
            let restarted = start(Arc::clone(&compiled), Arc::new(cfg.clone()), &pool)
                .unwrap()
                .preempt()
                .resume();
            let mut out = restarted.wait().unwrap();
            let trace = out.report.take_trace().expect("capture traces");
            let rank_finish = out
                .report
                .per_proc()
                .iter()
                .map(|p| p.finish_time)
                .collect();
            let resumed =
                ooc_sched::JobProfile::from_trace(&trace, rank_finish)
                    .with_counters(&out.report.totals());
            prop_assert_eq!(&resumed, &solo, "Pool({}) preempt+resume capture", workers);
        }
    }
}
