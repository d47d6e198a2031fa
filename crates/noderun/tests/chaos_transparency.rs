//! Chaos transparency of the irregular executor: fault injection (disk
//! retries, degraded reads) may change *timing*, never *data* — and the
//! three gather methods compute the same product bitwise, faults or not.
//! So an SpMV compiled with two-phase I/O forced must, under chaos, collect
//! exactly the y of a fault-free run compiled with direct I/O forced.

use dmsim::FaultConfig;
use noderun::{init_fn, run, RunConfig};
use ooc_core::{compile_source, CompiledProgram, CompilerOptions};
use pario::IoMethod;
use proptest::prelude::*;

const SN: usize = 64;
const SNNZ: usize = 512;
fn f_rowptr(g: &[usize]) -> f32 {
    (g[0] * (SNNZ / SN)) as f32
}
fn f_vals(g: &[usize]) -> f32 {
    ((g[0] % 89) as f32) * 0.25 + 1.0
}
fn f_x(g: &[usize]) -> f32 {
    (g[0] % 17) as f32 * 0.5 + 0.125
}

fn spmv_cfg(colidx_stride: usize) -> RunConfig {
    let mut cfg = RunConfig::default();
    cfg.init.insert("rowptr".into(), init_fn(f_rowptr));
    // A parameterized scatter: different strides exercise different
    // owner-binning and run-coalescing shapes in the inspector.
    cfg.init.insert(
        "colidx".into(),
        init_fn(move |g| ((g[0] * colidx_stride + g[0] / 5) % SN) as f32),
    );
    cfg.init.insert("vals".into(), init_fn(f_vals));
    cfg.init.insert("x".into(), init_fn(f_x));
    cfg.collect.push("y".into());
    cfg
}

/// The SpMV program with its gather method forced at compile time.
fn compiled(method: IoMethod) -> CompiledProgram {
    let options = CompilerOptions {
        io_method: Some(method),
        ..CompilerOptions::default()
    };
    compile_source(hpf::SPMV_SOURCE, &options).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn two_phase_under_chaos_equals_fault_free_direct(
        seed in 0u64..1000,
        stride in 1usize..64,
    ) {
        let baseline = run(&compiled(IoMethod::Direct), &spmv_cfg(stride)).unwrap();
        let mut chaos_cfg = spmv_cfg(stride);
        chaos_cfg.fault = Some(FaultConfig::chaos(seed));
        let chaotic = run(&compiled(IoMethod::TwoPhase), &chaos_cfg).unwrap();
        prop_assert_eq!(
            &chaotic.collected, &baseline.collected,
            "two-phase under chaos(seed={}) diverged from fault-free direct (stride={})",
            seed, stride
        );
    }

    #[test]
    fn every_method_agrees_bitwise_under_the_same_faults(
        seed in 0u64..1000,
        stride in 1usize..64,
    ) {
        let mut outcomes = Vec::new();
        for m in IoMethod::ALL {
            let mut cfg = spmv_cfg(stride);
            cfg.fault = Some(FaultConfig::chaos(seed));
            outcomes.push((m, run(&compiled(m), &cfg).unwrap()));
        }
        let (m0, first) = &outcomes[0];
        for (m, o) in &outcomes[1..] {
            prop_assert_eq!(
                &o.collected, &first.collected,
                "{:?} and {:?} disagree under chaos(seed={})", m, m0, seed
            );
        }
    }
}
