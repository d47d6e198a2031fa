//! Coverage beyond the paper's 2-D block examples: cyclic distributions and
//! 3-D arrays through the full compile-and-run path.

use noderun::{init_fn, run, RunConfig};
use ooc_core::{compile_source, CompilerOptions, ExecPlan};

#[test]
fn cyclic_distribution_elementwise() {
    // A scaled copy over cyclically distributed matrices: localization uses
    // strided owned sections; no communication is needed (zero shifts).
    let n = 12;
    let src = format!(
        "
      parameter (n={n})
      real u(n, n), v(n, n)
!hpf$ processors pr(3)
!hpf$ distribute u(cyclic, *) on pr
!hpf$ distribute v(cyclic, *) on pr
      forall (i = 1:n, j = 1:n)
        v(i, j) = 3.0 * u(i, j) - 1.0
      end forall
      end
"
    );
    let compiled = compile_source(&src, &CompilerOptions::default()).unwrap();
    assert!(matches!(compiled.plans[0], ExecPlan::Elementwise(_)));
    let init = |g: &[usize]| (g[0] * 10 + g[1]) as f32;
    let mut cfg = RunConfig::default();
    cfg.init.insert("u".into(), init_fn(init));
    cfg.collect.push("v".into());
    let outcome = run(&compiled, &cfg).unwrap();
    let (shape, v) = &outcome.collected["v"];
    for j in 0..n {
        for i in 0..n {
            assert_eq!(
                v[shape.linear(&[i, j])],
                3.0 * init(&[i, j]) - 1.0,
                "({i},{j})"
            );
        }
    }
    assert_eq!(outcome.report.totals().msgs_sent, 0);
}

#[test]
fn cyclic_shift_is_rejected_with_explanation() {
    // Shifts along a cyclically distributed dimension would need non-
    // neighbor communication; the compiler must refuse, not miscompile.
    let src = "
      parameter (n=12)
      real u(n, n), v(n, n)
!hpf$ processors pr(3)
!hpf$ distribute u(cyclic, *) on pr
!hpf$ distribute v(cyclic, *) on pr
      forall (i = 2:n-1, j = 1:n)
        v(i, j) = u(i-1, j)
      end forall
      end
";
    // Either the planner rejects it or the run must still be correct;
    // we require rejection (ghost exchange assumes block neighbors).
    match compile_source(src, &CompilerOptions::default()) {
        Err(e) => {
            let msg = e.to_string();
            assert!(!msg.is_empty());
        }
        Ok(compiled) => {
            // If it compiled, it must compute the right answer.
            let n = 12;
            let init = |g: &[usize]| (g[0] * 7 + g[1]) as f32;
            let mut cfg = RunConfig::default();
            cfg.init.insert("u".into(), init_fn(init));
            cfg.init.insert("v".into(), init_fn(init));
            cfg.collect.push("v".into());
            let outcome = run(&compiled, &cfg).unwrap();
            let (shape, v) = &outcome.collected["v"];
            for j in 0..n {
                for i in 1..n - 1 {
                    assert_eq!(v[shape.linear(&[i, j])], init(&[i - 1, j]), "({i},{j})");
                }
            }
        }
    }
}

#[test]
fn mixed_distribution_elementwise_inserts_a_remap() {
    // v is column-block, u is row-block: the compiler must redistribute u
    // into a temporary before the statement (HPF's misaligned-operand
    // remap), and the result must still be exact.
    let n = 16;
    let src = format!(
        "
      parameter (n={n})
      real u(n, n), v(n, n)
!hpf$ processors pr(4)
!hpf$ distribute u(block, *) on pr
!hpf$ distribute v(*, block) on pr
      forall (i = 1:n, j = 1:n)
        v(i, j) = 2.0 * u(i, j) + 1.0
      end forall
      end
"
    );
    let compiled = compile_source(&src, &CompilerOptions::default()).unwrap();
    let ExecPlan::Elementwise(e) = &compiled.plans[0] else {
        panic!("expected elementwise plan");
    };
    assert_eq!(e.pre_remaps.len(), 1);
    assert_eq!(e.pre_remaps[0].src.name, "u");
    assert_eq!(e.pre_remaps[0].tmp.dist, e.lhs.dist);

    let init = |g: &[usize]| (g[0] * 10 + g[1]) as f32;
    let mut cfg = RunConfig::default();
    cfg.init.insert("u".into(), init_fn(init));
    cfg.collect.push("v".into());
    let outcome = run(&compiled, &cfg).unwrap();
    let (shape, v) = &outcome.collected["v"];
    for j in 0..n {
        for i in 0..n {
            assert_eq!(v[shape.linear(&[i, j])], 2.0 * init(&[i, j]) + 1.0);
        }
    }
    // The remap really communicated.
    assert!(outcome.report.totals().msgs_sent > 0);
}

#[test]
fn mixed_distribution_stencil_with_shifts() {
    // Shifts are resolved against the *post-remap* (lhs) distribution: u is
    // row-block but v is column-block, so after the remap the shifts along
    // dim 0 are local and the ghost exchange runs along dim 1... which has
    // no shifts, so no ghosts at all.
    let n = 16;
    let src = format!(
        "
      parameter (n={n})
      real u(n, n), v(n, n)
!hpf$ processors pr(2)
!hpf$ distribute u(block, *) on pr
!hpf$ distribute v(*, block) on pr
      forall (i = 2:n-1, j = 1:n)
        v(i, j) = u(i-1, j) + u(i+1, j)
      end forall
      end
"
    );
    let compiled = compile_source(&src, &CompilerOptions::default()).unwrap();
    let ExecPlan::Elementwise(e) = &compiled.plans[0] else {
        panic!()
    };
    assert_eq!(e.pre_remaps.len(), 1);
    assert!(
        e.ghosts.is_empty(),
        "shifts along a collapsed (post-remap) dim"
    );

    let init = |g: &[usize]| ((g[0] * 13 + g[1] * 7) % 23) as f32;
    let mut cfg = RunConfig::default();
    cfg.init.insert("u".into(), init_fn(init));
    cfg.init.insert("v".into(), init_fn(init));
    cfg.collect.push("v".into());
    let outcome = run(&compiled, &cfg).unwrap();
    let (shape, v) = &outcome.collected["v"];
    for j in 0..n {
        for i in 1..n - 1 {
            assert_eq!(
                v[shape.linear(&[i, j])],
                init(&[i - 1, j]) + init(&[i + 1, j]),
                "({i},{j})"
            );
        }
    }
}

#[test]
fn three_d_stencil_end_to_end() {
    // 3-D 6-point stencil over a block-distributed cube exercises the n-D
    // paths of sections, layouts, slabs and ghosts.
    let n = 10;
    let src = format!(
        "
      parameter (n={n})
      real u(n, n, n), v(n, n, n)
!hpf$ processors pr(2)
!hpf$ template t(n)
!hpf$ distribute t(block) on pr
!hpf$ align (:, *, *) with t :: u, v
      forall (i = 2:n-1, j = 2:n-1, k = 2:n-1)
        v(i, j, k) = u(i-1, j, k) + u(i+1, j, k) + u(i, j-1, k) + u(i, j+1, k) + u(i, j, k-1) + u(i, j, k+1)
      end forall
      end
"
    );
    let compiled = compile_source(&src, &CompilerOptions::default()).unwrap();
    let ExecPlan::Elementwise(e) = &compiled.plans[0] else {
        panic!("expected elementwise plan");
    };
    assert_eq!(e.ghosts.len(), 1);
    assert_eq!(e.ghosts[0].dim, 0);

    let init = |g: &[usize]| ((g[0] * 17 + g[1] * 5 + g[2]) % 23) as f32;
    let mut cfg = RunConfig::default();
    cfg.init.insert("u".into(), init_fn(init));
    cfg.collect.push("v".into());
    let outcome = run(&compiled, &cfg).unwrap();
    let (shape, v) = &outcome.collected["v"];
    for k in 1..n - 1 {
        for j in 1..n - 1 {
            for i in 1..n - 1 {
                let expect = init(&[i - 1, j, k])
                    + init(&[i + 1, j, k])
                    + init(&[i, j - 1, k])
                    + init(&[i, j + 1, k])
                    + init(&[i, j, k - 1])
                    + init(&[i, j, k + 1]);
                assert_eq!(v[shape.linear(&[i, j, k])], expect, "({i},{j},{k})");
            }
        }
    }
}

#[test]
fn stencils_on_multi_axis_grids_are_rejected_at_compile_time() {
    // The ghost exchange trades strips along one processor axis: a shifted
    // forall on a 2×2 grid is refused when it compiles, instead of failing
    // every run with a receive from a processor that never sends.
    let source = |grid: &str, dist: &str, rhs: &str| {
        format!(
            "
      parameter (n=8)
      real u(n, n), v(n, n)
!hpf$ processors pr({grid})
!hpf$ distribute u({dist}) on pr
!hpf$ distribute v({dist}) on pr
      forall (i = 2:n-1, j = 1:n-1)
        v(i, j) = {rhs}
      end forall
      end
"
        )
    };
    let stencil = "u(i-1, j) + u(i, j+1)";
    let err = compile_source(
        &source("2, 2", "block, block", stencil),
        &CompilerOptions::default(),
    )
    .unwrap_err();
    assert!(
        matches!(&err, ooc_core::CompileError::Plan(m)
            if m.contains("dimension 0 of `v`") && m.contains("one-dimensional")),
        "{err}"
    );
    assert!(compile_source(
        &source("4", "*, block", stencil),
        &CompilerOptions::default()
    )
    .is_ok());

    // An unshifted forall on the same grid needs no exchange and still runs.
    let compiled = compile_source(
        &source("2, 2", "block, block", "2.0 * u(i, j) + 1.0"),
        &CompilerOptions::default(),
    )
    .unwrap();
    let init = |g: &[usize]| (g[0] * 10 + g[1]) as f32;
    let mut cfg = RunConfig::default();
    cfg.init.insert("u".into(), init_fn(init));
    cfg.collect.push("v".into());
    let outcome = run(&compiled, &cfg).unwrap();
    let (shape, v) = &outcome.collected["v"];
    for j in 0..7 {
        for i in 1..7 {
            assert_eq!(
                v[shape.linear(&[i, j])],
                2.0 * init(&[i, j]) + 1.0,
                "({i},{j})"
            );
        }
    }
}

#[test]
fn block_cyclic_declaration_is_analyzable() {
    // cyclic(b) parses and analyzes; plans over block-cyclic locals are
    // rejected cleanly (irregular local sections), never miscompiled.
    let src = "
      parameter (n=16)
      real u(n), v(n)
!hpf$ processors pr(2)
!hpf$ distribute u(cyclic(4)) on pr
!hpf$ distribute v(cyclic(4)) on pr
      forall (i = 1:n)
        v(i) = u(i)
      end forall
      end
";
    let prog = hpf::parse_program(src).unwrap();
    let info = hpf::analyze(&prog).unwrap();
    assert_eq!(info.nprocs, 2);
    // Plan construction over block-cyclic is out of the regular-section
    // subset; accept either a clean error or a correct run.
    match compile_source(src, &CompilerOptions::default()) {
        Err(_) => {}
        Ok(compiled) => {
            let mut cfg = RunConfig::default();
            cfg.init.insert("u".into(), init_fn(|g| g[0] as f32));
            cfg.collect.push("v".into());
            // A clean runtime rejection is acceptable too.
            if let Ok(outcome) = run(&compiled, &cfg) {
                let (_, v) = &outcome.collected["v"];
                for (i, &val) in v.iter().enumerate() {
                    assert_eq!(val, i as f32);
                }
            }
        }
    }
}
