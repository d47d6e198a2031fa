//! `perf` — the repository's two-clock performance ledger.
//!
//! Two clocks, never confused: the *simulated* clock is the paper's result
//! (I/O requests, bytes, messages, seconds on a Delta-class machine) and
//! repeats exactly; the *host* clock is what it costs this machine to
//! produce that result. One command runs one named workload from a seed and
//! prints every metric by name with its unit:
//!
//! ```text
//! perf --workload <name> --seed <n> [--seconds <s> | --sweeps <k>] [--trace <0|1>]
//! perf [--seed <n>] [--smoke] [--write-results <dir>]   # every workload, untraced + traced
//! perf --repeat-check [--smoke]                         # every workload twice, must agree
//! perf --benchmark-json                                 # regenerate ../BENCHMARK.json
//! ```
//!
//! See `README.md` beside this package for the metric definitions.

mod gen;
mod ledger;
mod probes;
mod run;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use run::{Header, RunSpec};
use suite::SuiteSpec;
use workloads::{Size, WORKLOADS};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    sweeps: Option<usize>,
    trace: bool,
    smoke: bool,
    repeat_check: bool,
    benchmark_json: bool,
    out_dir: PathBuf,
    write_results: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut a = Args {
        workload: None,
        seed: 2026,
        seconds: None,
        sweeps: None,
        trace: false,
        smoke: false,
        repeat_check: false,
        benchmark_json: false,
        out_dir: manifest.join("out"),
        write_results: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |what: &str| format!("{flag} needs {what}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("a number of seconds"));
                }
                a.seconds = Some(s);
            }
            "--sweeps" => {
                let k: usize = value()?.parse().map_err(|_| bad("a count"))?;
                if k == 0 {
                    return Err(bad("a count of at least 1"));
                }
                a.sweeps = Some(k);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--smoke" => a.smoke = true,
            "--repeat-check" => a.repeat_check = true,
            "--benchmark-json" => a.benchmark_json = true,
            "--out-dir" => a.out_dir = PathBuf::from(value()?),
            "--write-results" => a.write_results = Some(PathBuf::from(value()?)),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(a)
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    format!(
        "usage: perf --workload <{}> --seed <n> [--seconds <s> | --sweeps <k>] [--trace <0|1>] \
         [--smoke] [--out-dir <dir>]\n       perf [--seed <n>] [--smoke] [--write-results <dir>]\n       \
         perf --repeat-check [--seed <n>] [--smoke]",
        names.join("|")
    )
}

/// A host clock is only worth reading from an optimised build on a machine
/// with a core for the worker and one for the harness.
fn refuse_unfit_host(header: &Header) -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: run with --release".into());
    }
    if header.nproc < workloads::MIN_CORES {
        return Err(format!(
            "refusing to measure on {} core(s): the worker and the harness need {}",
            header.nproc,
            workloads::MIN_CORES
        ));
    }
    Ok(())
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if args.benchmark_json {
        print!("{}", ledger::benchmark_json());
        return Ok(ExitCode::SUCCESS);
    }
    let header = Header::gather();
    refuse_unfit_host(&header)?;
    // The setup clock starts here: after argument parsing and the header's
    // two subprocess calls, before anything of the workload exists.
    let process_start = Instant::now();
    let size = if args.smoke { Size::Smoke } else { Size::Full };

    if let Some(workload) = &args.workload {
        if !WORKLOADS.iter().any(|w| w.0 == workload) {
            return Err(format!("unknown workload {workload:?}\n{}", usage()));
        }
        let spec = RunSpec {
            workload: workload.clone(),
            seed: args.seed,
            seconds: args.seconds,
            sweeps: args.sweeps,
            trace: args.trace,
            size,
            out_dir: args.out_dir.clone(),
        };
        let result = run::run(&spec, process_start)?;
        result.print(&header);
        // A run may not fail a larger share of its ops than the committed
        // baseline did.
        let results_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
        let allowed = suite::baseline_failed_share(&results_dir, workload);
        let share = result.end_to_end["ops_failed"] / result.end_to_end["ops_attempted"];
        return Ok(if share > allowed {
            eprintln!("ops_failed share {share} exceeds the baseline's {allowed}");
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        });
    }

    let spec = SuiteSpec {
        seed: args.seed,
        smoke: args.smoke,
        seconds: args.seconds,
        sweeps: args.sweeps,
        out_dir: args.write_results.clone().unwrap_or(args.out_dir),
    };
    println!(
        "# ooc-perf suite  seed {}  size {}  commit {}  {}  nproc {}  engine Pool({})",
        args.seed,
        if args.smoke { "smoke" } else { "full" },
        header.commit,
        header.rustc,
        header.nproc,
        workloads::POOL_WORKERS
    );
    if args.repeat_check {
        let problems = suite::repeat_check(&spec)?;
        for p in &problems {
            println!("DISAGREE {p}");
        }
        println!(
            "repeat-check: {}",
            if problems.is_empty() { "ok" } else { "FAILED" }
        );
        return Ok(if problems.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        });
    }
    let results = suite::run_all(&spec)?;
    suite::print_summary(&results);
    if let Some(dir) = &args.write_results {
        suite::write_results(dir, args.seed, &results)?;
        println!("wrote {}", dir.display());
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
