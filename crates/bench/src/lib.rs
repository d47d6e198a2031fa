//! # ooc-bench — the experiment harness
//!
//! Reproduces the paper's evaluation. Each table/figure has a binary that
//! prints the same rows the paper reports, driven by the functions here:
//!
//! * `cargo run --release -p ooc-bench --bin table1` — column vs row slab
//!   vs in-core times (Table 1);
//! * `cargo run --release -p ooc-bench --bin table2` — memory allocation
//!   between competing arrays (Table 2);
//! * `cargo run --release -p ooc-bench --bin fig10` — slab-ratio sweep of
//!   the column version (Figure 10);
//! * `cargo run --release -p ooc-bench --bin ablation` — policy and
//!   reorganization ablations.
//!
//! Times are **simulated seconds** under the Touchstone-Delta cost model;
//! all I/O and message counts are measured from real execution.

pub mod fleet;
pub mod harness;
pub mod plot;
pub mod table;

pub use harness::{
    gaxpy_hir, peak_rss_bytes, run_incore_matmul, run_matmul, ExperimentRow, MatmulSetup,
};
pub use table::TextTable;

/// The guarded-runtime shape the `oocd` / `oocload` bench pair run under.
/// Both binaries build their [`ooc_sched::ServeConfig`] from this one
/// function so an `oocload`-embedded daemon and an externally launched
/// `oocd` fed the same trace produce byte-identical artifacts.
pub fn daemon_serve_config(seed: u64) -> ooc_sched::ServeConfig {
    ooc_sched::ServeConfig {
        domain: ooc_sched::DomainConfig {
            policy: ooc_sched::Policy::FairShare,
            seed,
            hang_chance: 0.1,
            watchdog_quantum: 4.0,
            deadline_factor: 6.0,
            max_retries: 2,
            backoff_base: 0.5,
            ..ooc_sched::DomainConfig::default()
        },
        sample_every: 5.0,
        read_timeout: Some(std::time::Duration::from_secs(5)),
        ..ooc_sched::ServeConfig::default()
    }
}
