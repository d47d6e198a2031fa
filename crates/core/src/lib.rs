//! # ooc-core — the out-of-core HPF compiler
//!
//! The paper's primary contribution: translating out-of-core data-parallel
//! programs into node programs with explicit message passing and parallel
//! I/O, and optimizing the translation by
//!
//! 1. estimating the I/O cost of different array access patterns
//!    ([`cost`]),
//! 2. reorganizing data storage on disk and the corresponding computation
//!    ([`reorg`], choosing slab orientations and file layouts),
//! 3. selecting the access method with the least I/O cost, and
//! 4. allocating memory among competing out-of-core arrays ([`memory`]).
//!
//! Compilation follows the two-phase structure of the paper's Figure 7:
//! the *in-core phase* ([`comm`], and [`ooc_array::local_section_of_global`]
//! for the local iteration space) partitions computation by the
//! owner-computes rule and detects communication; the *out-of-core
//! phase* ([`stripmine`], [`nodegen`]) stripmines the local iteration space
//! by the memory budget and inserts I/O calls, producing an executable
//! [`plan::ExecPlan`] plus a symbolic [`ir::NestNode`] loop nest — the
//! "node + MP + I/O program" of Figures 9 and 12 — that the cost estimator
//! analyzes and the pretty printer renders.
//!
//! ```
//! use ooc_core::{CompilerOptions, compile_source};
//!
//! let compiled = compile_source(hpf::GAXPY_SOURCE, &CompilerOptions::default())
//!     .expect("compiles");
//! // The optimizer picks row slabs: an order of magnitude less I/O.
//! assert!(compiled.report().contains("row"));
//! ```

pub mod access;
pub mod comm;
pub mod cost;
pub mod hir;
pub mod ir;
pub mod irreg;
pub mod lower;
pub mod memory;
pub mod nodegen;
pub mod pipeline;
pub mod plan;
pub mod reorg;
pub mod reuse;
pub mod stripmine;

pub use cost::{CostEstimate, IoEstimate};
pub use hir::{ElwExpr, ElwStmt, HirProgram, HirStmt};
pub use ir::NestNode;
pub use memory::MemoryPolicy;
pub use pipeline::{compile_hir, compile_source, CompileError, CompiledProgram, CompilerOptions};
pub use plan::{ExecPlan, GaxpyPlan, SlabStrategy, SpmvPlan};
