//! End-to-end integration: HPF source text → compiler → simulated machine →
//! verified results, across all three plan kinds and both storage backends.

use noderun::{init_fn, max_abs_diff, ref_gaxpy, ref_jacobi, ref_transpose, run, RunConfig};
use ooc_core::{compile_source, CompilerOptions, ExecPlan, MemoryPolicy, SlabStrategy};

fn gaxpy_source(n: usize, p: usize) -> String {
    format!(
        "
      parameter (n={n}, nprocs={p})
      real a(n,n), b(n,n), c(n,n), temp(n,n)
!hpf$ processors pr(nprocs)
!hpf$ template d(n)
!hpf$ distribute d(block) on pr
!hpf$ align (*,:) with d :: a, c, temp
!hpf$ align (:,*) with d :: b
      do j = 1, n
        forall (k = 1:n)
          temp(1:n, k) = b(k, j) * a(1:n, k)
        end forall
        c(1:n, j) = sum(temp, 2)
      end do
      end
"
    )
}

fn fa(g: &[usize]) -> f32 {
    ((g[0] * 7 + g[1] * 3) % 11) as f32 * 0.125 - 0.5
}
fn fb(g: &[usize]) -> f32 {
    ((g[0] * 5 + g[1]) % 13) as f32 * 0.125 - 0.75
}

#[test]
fn hpf_source_to_verified_product() {
    let n = 32;
    for p in [1, 2, 4] {
        let compiled = compile_source(&gaxpy_source(n, p), &CompilerOptions::default()).unwrap();
        let mut cfg = RunConfig::default();
        cfg.init.insert("a".into(), init_fn(fa));
        cfg.init.insert("b".into(), init_fn(fb));
        cfg.collect.push("c".into());
        let outcome = run(&compiled, &cfg).unwrap();
        let (_, c) = &outcome.collected["c"];
        let expect = ref_gaxpy(n, &fa, &fb);
        assert!(max_abs_diff(c, &expect) < 1e-3, "wrong product for p={p}");
        assert!(outcome.report.elapsed() > 0.0);
    }
}

#[test]
fn on_disk_backend_produces_identical_results() {
    let n = 16;
    let compiled = compile_source(&gaxpy_source(n, 2), &CompilerOptions::default()).unwrap();
    let mut results = Vec::new();
    for backend in [noderun::Backend::Memory, noderun::Backend::Disk] {
        let mut cfg = RunConfig {
            backend,
            ..RunConfig::default()
        };
        cfg.init.insert("a".into(), init_fn(fa));
        cfg.init.insert("b".into(), init_fn(fb));
        cfg.collect.push("c".into());
        let outcome = run(&compiled, &cfg).unwrap();
        results.push(outcome.collected["c"].1.clone());
    }
    assert_eq!(results[0], results[1], "backends must agree bit-for-bit");
}

#[test]
fn both_forced_strategies_agree_on_the_answer() {
    let n = 24;
    let mut answers = Vec::new();
    for strategy in [SlabStrategy::ColumnSlab, SlabStrategy::RowSlab] {
        let opts = CompilerOptions {
            force_strategy: Some(strategy),
            ..CompilerOptions::default()
        };
        let compiled = compile_source(&gaxpy_source(n, 4), &opts).unwrap();
        let mut cfg = RunConfig::default();
        cfg.init.insert("a".into(), init_fn(fa));
        cfg.init.insert("b".into(), init_fn(fb));
        cfg.collect.push("c".into());
        let outcome = run(&compiled, &cfg).unwrap();
        answers.push(outcome.collected["c"].1.clone());
    }
    assert!(max_abs_diff(&answers[0], &answers[1]) < 1e-4);
}

#[test]
fn jacobi_program_end_to_end() {
    let n = 24;
    let src = format!(
        "
      parameter (n={n})
      real u(n, n), v(n, n)
!hpf$ processors pr(4)
!hpf$ template t(n)
!hpf$ distribute t(block) on pr
!hpf$ align (:, *) with t :: u, v
      forall (i = 2:n-1, j = 2:n-1)
        v(i, j) = 0.25 * (u(i-1, j) + u(i+1, j) + u(i, j-1) + u(i, j+1))
      end forall
      end
"
    );
    let compiled = compile_source(&src, &CompilerOptions::default()).unwrap();
    assert!(matches!(compiled.plans[0], ExecPlan::Elementwise(_)));
    let init = |g: &[usize]| ((g[0] * 13 + g[1] * 7) % 17) as f32 * 0.0625;
    let mut cfg = RunConfig::default();
    cfg.init.insert("u".into(), init_fn(init));
    cfg.init.insert("v".into(), init_fn(init)); // boundary keeps init values
    cfg.collect.push("v".into());
    let outcome = run(&compiled, &cfg).unwrap();
    let (_, v) = &outcome.collected["v"];
    let expect = ref_jacobi(n, &init);
    assert!(max_abs_diff(v, &expect) < 1e-5);
    // Ghost exchange happened: messages were sent.
    assert!(outcome.report.totals().msgs_sent > 0);
}

#[test]
fn transpose_program_end_to_end() {
    let n = 20;
    let src = format!(
        "
      parameter (n={n})
      real a(n, n), b(n, n)
!hpf$ processors pr(4)
!hpf$ distribute a(*, block) on pr
!hpf$ distribute b(*, block) on pr
      forall (i = 1:n, j = 1:n)
        b(i, j) = a(j, i)
      end forall
      end
"
    );
    let compiled = compile_source(&src, &CompilerOptions::default()).unwrap();
    assert!(matches!(compiled.plans[0], ExecPlan::Transpose(_)));
    let init = |g: &[usize]| (g[0] * 100 + g[1]) as f32;
    let mut cfg = RunConfig::default();
    cfg.init.insert("a".into(), init_fn(init));
    cfg.collect.push("b".into());
    let outcome = run(&compiled, &cfg).unwrap();
    let (_, b) = &outcome.collected["b"];
    assert_eq!(b, &ref_transpose(n, &init));
}

#[test]
fn multi_statement_program_runs_in_order() {
    // Scale then transpose: b = 2u, c = b^T.
    let n = 12;
    let src = format!(
        "
      parameter (n={n})
      real u(n, n), b(n, n), c(n, n)
!hpf$ processors pr(2)
!hpf$ distribute u(*, block) on pr
!hpf$ distribute b(*, block) on pr
!hpf$ distribute c(*, block) on pr
      forall (i = 1:n, j = 1:n)
        b(i, j) = 2.0 * u(i, j)
      end forall
      forall (i = 1:n, j = 1:n)
        c(i, j) = b(j, i)
      end forall
      end
"
    );
    let compiled = compile_source(&src, &CompilerOptions::default()).unwrap();
    assert_eq!(compiled.plans.len(), 2);
    let init = |g: &[usize]| (g[0] * 10 + g[1]) as f32;
    let mut cfg = RunConfig::default();
    cfg.init.insert("u".into(), init_fn(init));
    cfg.collect.push("c".into());
    let outcome = run(&compiled, &cfg).unwrap();
    let (shape, c) = &outcome.collected["c"];
    for j in 0..n {
        for i in 0..n {
            assert_eq!(c[shape.linear(&[i, j])], 2.0 * init(&[j, i]));
        }
    }
}

#[test]
fn prefetch_and_sieving_preserve_results() {
    let n = 24;
    let expect = ref_gaxpy(n, &fa, &fb);
    for strategy in [SlabStrategy::ColumnSlab, SlabStrategy::RowSlab] {
        let mut base_time = None;
        for (prefetch, io_method) in [
            (false, None),
            (true, None),
            (false, Some(pario::IoMethod::Sieved)),
            (true, Some(pario::IoMethod::Sieved)),
        ] {
            let opts = CompilerOptions {
                force_strategy: Some(strategy),
                prefetch,
                io_method,
                ..CompilerOptions::default()
            };
            let compiled = compile_source(&gaxpy_source(n, 4), &opts).unwrap();
            let mut cfg = RunConfig::default();
            cfg.init.insert("a".into(), init_fn(fa));
            cfg.init.insert("b".into(), init_fn(fb));
            cfg.collect.push("c".into());
            let outcome = run(&compiled, &cfg).unwrap();
            let (_, c) = &outcome.collected["c"];
            let tag = format!("{strategy:?} prefetch={prefetch} method={io_method:?}");
            assert!(max_abs_diff(c, &expect) < 1e-3, "{tag}");
            match base_time {
                None => base_time = Some(outcome.report.elapsed()),
                Some(base) => {
                    if prefetch && io_method.is_none() {
                        assert!(outcome.report.elapsed() <= base, "{tag}: slower than base");
                    }
                }
            }
        }
    }
}

#[test]
fn sieving_rescues_the_unreorganized_row_version() {
    // Ablation: row slabs without storage reorganization are strided; the
    // sieved method turns each strided slab into one spanning request.
    let n = 32;
    let run_with = |io_method: Option<pario::IoMethod>| {
        let opts = CompilerOptions {
            force_strategy: Some(SlabStrategy::RowSlab),
            reorganize_storage: false,
            sizing: ooc_core::stripmine::SlabSizing::Ratio(0.25),
            io_method,
            ..CompilerOptions::default()
        };
        let compiled = compile_source(&gaxpy_source(n, 4), &opts).unwrap();
        let mut cfg = RunConfig::default();
        cfg.init.insert("a".into(), init_fn(fa));
        cfg.init.insert("b".into(), init_fn(fb));
        cfg.collect.push("c".into());
        (run(&compiled, &cfg).unwrap(), compiled.estimates[0].clone())
    };
    let (direct, direct_est) = run_with(None);
    let (sieved, sieved_est) = run_with(Some(pario::IoMethod::Sieved));
    assert!(
        sieved.report.io_requests_per_proc() < direct.report.io_requests_per_proc() / 2,
        "sieve {} !<< direct {}",
        sieved.report.io_requests_per_proc(),
        direct.report.io_requests_per_proc()
    );
    assert!(sieved.report.elapsed() < direct.report.elapsed());
    // The compiler priced the sieve: its estimate ranks the two the same way.
    assert!(sieved_est.time() < direct_est.time());
    // And the answers agree.
    assert_eq!(direct.collected["c"].1, sieved.collected["c"].1);
}

#[test]
fn compilation_report_documents_the_choice() {
    let compiled = compile_source(&gaxpy_source(64, 4), &CompilerOptions::default()).unwrap();
    let report = compiled.report();
    assert!(report.contains("row slab"), "{report}");
    assert!(report.contains("column slab"), "{report}");
    assert!(report.contains("requests"), "{report}");
    let text = compiled.node_program_text(0);
    assert!(text.contains("global_sum"), "{text}");
}

#[test]
fn a_prefetched_budget_run_holds_its_second_buffer_inside_the_budget() {
    // Column slabs overlap every fetch of A with the multiply before it, so
    // A's slab is held twice. The budget split reserves the second buffer:
    // the slabs fit in the budget, and the run's peak, which counts both
    // buffers, fits the plan's memory.
    use ooc_core::stripmine::SlabSizing;
    let n = 64;
    for elems in [4096, 8192, 16384] {
        for policy in [
            MemoryPolicy::EqualSplit,
            MemoryPolicy::AccessWeighted,
            MemoryPolicy::Search,
        ] {
            let opts = CompilerOptions {
                force_strategy: Some(SlabStrategy::ColumnSlab),
                sizing: SlabSizing::Budget { elems, policy },
                prefetch: true,
                ..CompilerOptions::default()
            };
            let compiled = compile_source(&gaxpy_source(n, 4), &opts).unwrap();
            let ExecPlan::Gaxpy(g) = &compiled.plans[0] else {
                panic!("expected a gaxpy plan");
            };
            let tag = format!("{policy:?} budget {elems}");
            let slabs = 2 * g.slab_a_elems() + g.slab_b_elems();
            assert!(slabs <= elems, "{tag}: slabs {slabs}");
            let mut cfg = RunConfig::default();
            cfg.init.insert("a".into(), init_fn(fa));
            cfg.init.insert("b".into(), init_fn(fb));
            let peak = run(&compiled, &cfg).unwrap().peak_elems;
            assert!(peak >= 2 * g.slab_a_elems(), "{tag}: peak {peak}");
            assert!(peak <= g.memory_elems(), "{tag}: peak {peak}");
        }
    }
}

#[test]
fn peak_memory_reported_and_bounded() {
    let opts = CompilerOptions {
        sizing: ooc_core::stripmine::SlabSizing::Ratio(0.25),
        ..CompilerOptions::default()
    };
    let compiled = compile_source(&gaxpy_source(32, 4), &opts).unwrap();
    let ExecPlan::Gaxpy(g) = &compiled.plans[0] else {
        panic!()
    };
    let mut cfg = RunConfig::default();
    cfg.init.insert("a".into(), init_fn(fa));
    cfg.init.insert("b".into(), init_fn(fb));
    let outcome = run(&compiled, &cfg).unwrap();
    assert!(outcome.peak_elems > 0);
    assert!(
        outcome.peak_elems <= g.memory_elems(),
        "peak {} exceeds plan budget {}",
        outcome.peak_elems,
        g.memory_elems()
    );
}
