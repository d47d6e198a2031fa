//! A lent read and a copied one give the same run.
//!
//! On the memory backend an uncached column-slab GAXPY multiplies each A
//! slab straight out of the local array file; on the file backend every
//! slab is copied. Every forced GAXPY — column and row slabs, prefetch off
//! and on, no cache and a 1 KiB cache, quiet and chaotic disks — must give
//! bit-identical per-rank counters and finish times, result and peak
//! in-core elements on both backends.

use dmsim::FaultConfig;
use noderun::{init_fn, run, Backend, RunConfig, RunOutcome};
use ooc_core::plan::SlabStrategy;
use ooc_core::stripmine::SlabSizing;
use ooc_core::{compile_source, CompiledProgram, CompilerOptions};

fn fa(g: &[usize]) -> f32 {
    ((g[0] * 7 + g[1] * 3) % 11) as f32 * 0.37 - 1.5
}

fn fb(g: &[usize]) -> f32 {
    ((g[0] * 5 + g[1]) % 13) as f32 * 0.21 - 0.75
}

fn run_on(compiled: &CompiledProgram, backend: Backend, fault: &FaultConfig) -> RunOutcome {
    let mut cfg = RunConfig {
        backend,
        fault: Some(fault.clone()),
        collect: vec!["c".into()],
        ..RunConfig::default()
    };
    cfg.init.insert("a".into(), init_fn(fa));
    cfg.init.insert("b".into(), init_fn(fb));
    run(compiled, &cfg).unwrap()
}

#[test]
fn every_forced_gaxpy_runs_bit_identically_on_both_backends() {
    let (n, p) = (30, 4);
    let params = format!("parameter (n={n}, nprocs={p})");
    let source = hpf::GAXPY_SOURCE.replace("parameter (n=64, nprocs=4)", &params);
    for strategy in [SlabStrategy::ColumnSlab, SlabStrategy::RowSlab] {
        for prefetch in [false, true] {
            for cache_budget in [None, Some(1024)] {
                let options = CompilerOptions {
                    force_strategy: Some(strategy),
                    sizing: SlabSizing::Ratio(0.25),
                    prefetch,
                    cache_budget,
                    ..CompilerOptions::default()
                };
                let compiled = compile_source(&source, &options).unwrap();
                for (regime, fault) in [
                    ("quiet", FaultConfig::quiet(17)),
                    ("chaos", FaultConfig::chaos(17)),
                ] {
                    let tag =
                        format!("{strategy:?} prefetch={prefetch} cache={cache_budget:?} {regime}");
                    let lent = run_on(&compiled, Backend::Memory, &fault);
                    let copied = run_on(&compiled, Backend::Disk, &fault);
                    for (l, c) in lent.report.per_proc().iter().zip(copied.report.per_proc()) {
                        assert_eq!(l.stats, c.stats, "{tag}: rank {} counters", l.rank);
                        assert_eq!(
                            l.finish_time.to_bits(),
                            c.finish_time.to_bits(),
                            "{tag}: rank {} finish time",
                            l.rank
                        );
                    }
                    let bits = |o: &RunOutcome| -> Vec<u32> {
                        o.collected["c"].1.iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(bits(&lent), bits(&copied), "{tag}: C");
                    assert_eq!(lent.peak_elems, copied.peak_elems, "{tag}: peak");
                    if regime == "chaos" {
                        assert!(lent.report.totals().faults_injected > 0, "{tag}: no faults");
                    }
                }
            }
        }
    }
}
