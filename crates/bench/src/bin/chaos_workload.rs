//! Chaos workload bench: the guarded runtime under compound failure.
//!
//! A fleet of chaos-captured gaxpy jobs — a few long "tenants" that fill
//! every slot plus a stream of short urgent jobs — runs through
//! `run_workload_guarded` with hang injection, watchdog kills, deadlines,
//! EDF checkpoint-preempt-resume and a mid-workload permanent disk death.
//! The bench asserts the fault-domain contract end to end:
//!
//! - every job reaches a terminal typed `JobOutcome` (the run returning at
//!   all is the liveness proof — no panics, no stuck executive);
//! - at least one disk death fired, at least one hang was injected, and
//!   overload forced at least one EDF preemption;
//! - every non-quarantined job completed;
//! - the JSON summary is byte-identical across two invocations of the
//!   guarded runtime, and across capture engines: profiles captured with
//!   one OS thread per rank (`Threads`) equal profiles captured as
//!   cooperative tasks on a 4-worker pool (`Pool(4)`), so the guarded run
//!   they feed is byte-identical too.
//!
//! Usage: `cargo run --release -p ooc-bench --bin chaos_workload
//! [--jobs N] [--ranks R] [--seed S] [--out FILE]` (defaults: 32 jobs,
//! 4 ranks, seed 2026, FILE = BENCH_chaos_workload.json). CI runs the
//! 16-job / 8-rank variant as the chaos-workload smoke.

use ooc_bench::fleet::{self, Opts, Shape};
use ooc_bench::TextTable;
use ooc_sched::{run_workload_guarded, GuardedReport, JobOutcome, Policy};

const SHAPE: Shape = Shape {
    long_scale: 40,
    short_prefix: "urgent-",
    hang_chance: 0.3,
};

/// Deterministic JSON summary of a guarded run. Byte-identity of this
/// string across runs and engines is the bench's reproducibility check.
fn summarize(rep: &GuardedReport, opts: &Opts) -> String {
    let mut json = String::from("{\n  \"bench\": \"chaos_workload\",\n");
    json.push_str(&format!(
        "  \"jobs\": {},\n  \"ranks\": {},\n  \"seed\": {},\n  \"policy\": \"{}\",\n",
        opts.jobs,
        opts.ranks,
        opts.seed,
        rep.policy.name()
    ));
    json.push_str(&format!(
        "  \"disk_deaths\": {},\n  \"makespan\": {:.9},\n  \"completed\": {},\n",
        rep.disk_deaths,
        rep.makespan(),
        rep.completed()
    ));
    json.push_str("  \"results\": [\n");
    for (i, j) in rep.jobs.iter().enumerate() {
        let terminal = match &j.outcome {
            JobOutcome::Done { completion } | JobOutcome::Recovered { completion, .. } => {
                *completion
            }
            JobOutcome::Killed { at } | JobOutcome::Quarantined { at, .. } => *at,
        };
        json.push_str(&format!(
            "    {{\"job\": \"{}\", \"outcome\": \"{}\", \"terminal\": {:.9}, \
             \"attempts\": {}, \"preemptions\": {}, \"kills\": {}, \"hangs\": {}, \
             \"faults_injected\": {}, \"io_retries\": {}, \"msg_retries\": {}}}{}\n",
            j.name,
            j.outcome.label(),
            terminal,
            j.attempts,
            j.preemptions,
            j.kills,
            j.hangs_injected,
            j.faults_injected,
            j.io_retries,
            j.msg_retries,
            if i + 1 < rep.jobs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

fn main() {
    let opts = Opts::parse(32, "BENCH_chaos_workload.json");
    let nlong = opts.nlong();
    let (specs, pooled_specs) = fleet::capture(&opts, &SHAPE);
    println!(
        "chaos workload: {} jobs ({} tenants gaxpy {}x{}, {} urgent gaxpy {}x{}) on {} disks, seed {}",
        opts.jobs,
        nlong,
        SHAPE.long_scale * opts.ranks,
        SHAPE.long_scale * opts.ranks,
        opts.jobs - nlong,
        16 * opts.ranks,
        16 * opts.ranks,
        opts.ranks,
        opts.seed
    );

    let cfg = fleet::domain_cfg(&opts, &SHAPE, &specs, Policy::FairShare);
    let rep = run_workload_guarded(&specs, &cfg).expect("admissible batch");
    let json = summarize(&rep, &opts);

    // Reproducibility: a second guarded run, and a run fed by the pooled
    // capture, must both summarize byte-identically.
    let again = summarize(&run_workload_guarded(&specs, &cfg).unwrap(), &opts);
    assert_eq!(json, again, "guarded run is not reproducible");
    let via_pool = summarize(&run_workload_guarded(&pooled_specs, &cfg).unwrap(), &opts);
    assert_eq!(json, via_pool, "Threads vs Pool(4) summaries diverged");

    let mut table = TextTable::new(&[
        "Job",
        "Outcome",
        "Attempts",
        "Preempts",
        "Kills",
        "Hangs",
        "Terminal (s)",
    ]);
    for j in &rep.jobs {
        let terminal = match &j.outcome {
            JobOutcome::Done { completion } | JobOutcome::Recovered { completion, .. } => {
                *completion
            }
            JobOutcome::Killed { at } | JobOutcome::Quarantined { at, .. } => *at,
        };
        table.row(vec![
            j.name.clone(),
            j.outcome.label().to_string(),
            j.attempts.to_string(),
            j.preemptions.to_string(),
            j.kills.to_string(),
            j.hangs_injected.to_string(),
            format!("{terminal:.4}"),
        ]);
    }
    print!("{}", table.render());

    ooc_trace::json::parse(&json).expect("bench JSON is well-formed");
    std::fs::write(&opts.out, &json).expect("write bench JSON");
    println!("\nwrote {}", opts.out);

    // Acceptance: the chaos actually happened, and every fault stayed in
    // its domain.
    let preemptions: u32 = rep.jobs.iter().map(|j| j.preemptions).sum();
    let hangs: u32 = rep.jobs.iter().map(|j| j.hangs_injected).sum();
    let quarantined = rep
        .jobs
        .iter()
        .filter(|j| matches!(j.outcome, JobOutcome::Quarantined { .. }))
        .count();
    assert!(rep.disk_deaths >= 1, "no disk death fired");
    assert!(hangs >= 1, "no hang was injected (seed too lucky)");
    assert!(preemptions >= 1, "overload forced no EDF preemption");
    for j in &rep.jobs {
        assert!(
            !matches!(j.outcome, JobOutcome::Killed { .. }),
            "{}: terminal kill despite a retry budget",
            j.name
        );
        assert!(
            j.outcome.completed() || matches!(j.outcome, JobOutcome::Quarantined { .. }),
            "{}: non-quarantined job did not complete: {:?}",
            j.name,
            j.outcome
        );
    }
    println!(
        "ok: {} completed ({} quarantined), {} disk death(s), {} hang(s), {} preemption(s); \
         summary reproducible across runs and engines",
        rep.completed(),
        quarantined,
        rep.disk_deaths,
        hangs,
        preemptions
    );
}
