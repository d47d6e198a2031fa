//! # noderun — executing compiled out-of-core programs
//!
//! Interprets the [`ooc_core::ExecPlan`]s of a compiled program as real SPMD
//! node programs on the simulated machine: every slab fetch goes through the
//! parallel I/O layer (and is charged to the cost model), every reduction
//! and ghost exchange moves real floats through the message fabric, and the
//! arithmetic is performed on the actual data, so results can be verified
//! against serial references while the run report reproduces the paper's
//! I/O metrics.
//!
//! ```
//! use ooc_core::{compile_source, CompilerOptions};
//! use noderun::{run, RunConfig};
//!
//! let compiled = compile_source(hpf::GAXPY_SOURCE, &CompilerOptions::default()).unwrap();
//! let mut cfg = RunConfig::default();
//! cfg.collect = vec!["c".to_string()];
//! cfg.init.insert("a".into(), noderun::init_fn(|g| (g[0] + 2 * g[1]) as f32 * 0.001));
//! cfg.init.insert("b".into(), noderun::init_fn(|g| (g[0] * 3 + g[1]) as f32 * 0.001));
//! let outcome = run(&compiled, &cfg).unwrap();
//! assert!(outcome.report.elapsed() > 0.0);
//! let (_, c) = &outcome.collected["c"];
//! assert_eq!(c.len(), 64 * 64);
//! ```

pub mod divergence;
pub mod elementwise;
pub mod exec;
pub mod gaxpy;
pub mod spmv;
pub mod trace;
pub mod transpose;
pub mod verify;

pub use divergence::{divergence_report, DivergenceReport, DivergenceRow};
pub use exec::{
    init_fn, run, start, Backend, InitFn, PreemptedRun, RunConfig, RunError, RunOutcome, StartedRun,
};
pub use gaxpy::RecoveryOpts;
pub use ooc_array::OocError;
pub use verify::{assemble_global, max_abs_diff, ref_gaxpy, ref_jacobi, ref_transpose};
