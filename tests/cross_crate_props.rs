//! Cross-crate property tests: randomized configurations must preserve the
//! system's core invariants (estimator == measurement, correctness under
//! any legal slab/processor configuration — for foralls, bitwise against a
//! source-order oracle — and redistribution round-trips).

use proptest::prelude::*;

use noderun::{init_fn, max_abs_diff, ref_gaxpy, run, RunConfig};
use ooc_bench::gaxpy_hir;
use ooc_core::stripmine::SlabSizing;
use ooc_core::{compile_hir, CompilerOptions, ElwExpr, SlabStrategy};

fn fa(g: &[usize]) -> f32 {
    ((g[0] * 7 + g[1] * 3) % 11) as f32 * 0.125 - 0.5
}
fn fb(g: &[usize]) -> f32 {
    ((g[0] * 5 + g[1]) % 13) as f32 * 0.125 - 0.75
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn gaxpy_correct_and_io_predicted_for_random_configs(
        np in 0usize..3,          // n in {8, 16, 24}
        p in 1usize..5,
        sa in 1usize..20,
        sb in 1usize..20,
        strategy_row in proptest::bool::ANY,
    ) {
        let n = [8usize, 16, 24][np];
        let strategy = if strategy_row {
            SlabStrategy::RowSlab
        } else {
            SlabStrategy::ColumnSlab
        };
        let compiled = compile_hir(
            gaxpy_hir(n, p),
            &CompilerOptions {
                sizing: SlabSizing::Explicit { a: sa, b: sb },
                force_strategy: Some(strategy),
                ..CompilerOptions::default()
            },
        )
        .unwrap();
        let mut cfg = RunConfig::default();
        cfg.init.insert("a".into(), init_fn(fa));
        cfg.init.insert("b".into(), init_fn(fb));
        cfg.collect.push("c".into());
        let outcome = run(&compiled, &cfg).unwrap();

        // Correctness.
        let (_, c) = &outcome.collected["c"];
        let expect = ref_gaxpy(n, &fa, &fb);
        prop_assert!(max_abs_diff(c, &expect) < 1e-3);

        // Estimator == measurement on the paper's two I/O metrics, for
        // evenly divisible configurations (the estimator's per-processor
        // view assumes symmetry).
        if n.is_multiple_of(p) {
            let s0 = outcome.report.per_proc()[0].stats;
            prop_assert_eq!(s0.io_requests(), compiled.estimates[0].io_requests());
            prop_assert_eq!(s0.io_bytes(), compiled.estimates[0].io_bytes());
        }
    }
}

/// How the forall's arrays are distributed over a line of processors.
#[derive(Debug, Clone, Copy)]
enum ForallDist {
    /// `distribute (*, block)`.
    Columns,
    /// `distribute (block, *)`.
    Rows,
    /// `align (*, :)` with a block-distributed template.
    AlignedColumns,
    /// `align (:, *)` with a block-distributed template.
    AlignedRows,
}

/// One forall run: `v = expr` over `3:n-2` in both dimensions, with `u`
/// and `w` read at shifts of at most 2.
#[derive(Debug, Clone)]
struct ForallCase {
    n: usize,
    p: usize,
    dist: ForallDist,
    /// `w` in the other orientation, so the compiler remaps it first.
    misaligned_w: bool,
    /// Stripmining override: (dimension, thickness).
    slab: Option<(usize, usize)>,
    prefetch: bool,
    pool: bool,
    seed: u64,
}

fn forall_source(c: &ForallCase) -> String {
    let n = c.n;
    let (uv, w) = match c.dist {
        ForallDist::Columns | ForallDist::AlignedColumns => ("*, block", "block, *"),
        ForallDist::Rows | ForallDist::AlignedRows => ("block, *", "*, block"),
    };
    let w = if c.misaligned_w { w } else { uv };
    let decl = match c.dist {
        ForallDist::Columns | ForallDist::Rows => {
            format!("!hpf$ distribute u({uv}) on pr\n!hpf$ distribute v({uv}) on pr\n")
        }
        ForallDist::AlignedColumns | ForallDist::AlignedRows => {
            let pattern = uv.replace("block", ":");
            format!(
                "!hpf$ template t(n)\n!hpf$ distribute t(block) on pr\n\
                 !hpf$ align ({pattern}) with t :: u, v\n"
            )
        }
    };
    format!(
        "
      parameter (n={n})
      real u(n, n), w(n, n), v(n, n)
!hpf$ processors pr({p})
{decl}!hpf$ distribute w({w}) on pr
      forall (i = 3:n-2, j = 3:n-2)
        v(i, j) = u(i, j) + w(i, j)
      end forall
      end
",
        p = c.p
    )
}

/// Input values: mostly non-dyadic numbers, one in sixteen a signed zero,
/// an infinity, a NaN or a subnormal.
fn forall_value(seed: u64, array: u64, g: &[usize]) -> f32 {
    let mut h = seed ^ array << 56 ^ (g[0] as u64) << 24 ^ g[1] as u64;
    h = (h ^ h >> 30).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ h >> 27).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    const SPECIAL: [f32; 8] = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        1.0e-40,
        -3.0e-39,
        f32::MIN_POSITIVE,
    ];
    if h.is_multiple_of(16) {
        SPECIAL[(h >> 8) as usize % SPECIAL.len()]
    } else {
        ((h >> 16) % 4001) as f32 * 0.013 - 26.0
    }
}

/// The serial oracle: `e` at global index `g`, evaluated as written.
fn eval_as_written(e: &ElwExpr, g: &[usize], value: &dyn Fn(&str, &[usize]) -> f32) -> f32 {
    let at = |l: &ElwExpr| eval_as_written(l, g, value);
    match e {
        ElwExpr::Const(c) => *c,
        ElwExpr::Ref { array, offsets } => {
            let shifted: Vec<usize> = g
                .iter()
                .zip(offsets)
                .map(|(&i, &o)| (i as isize + o) as usize)
                .collect();
            value(array, &shifted)
        }
        ElwExpr::Neg(i) => -at(i),
        ElwExpr::Add(l, r) => at(l) + at(r),
        ElwExpr::Sub(l, r) => at(l) - at(r),
        ElwExpr::Mul(l, r) => at(l) * at(r),
        ElwExpr::Div(l, r) => at(l) / at(r),
    }
}

/// Compile and run `v = e` for `c`, and hold every element of `v` to the
/// oracle bit for bit (a NaN only to a NaN); `v` keeps its initial values
/// outside the region.
fn assert_forall_as_written(c: &ForallCase, e: &ElwExpr) {
    use ooc_core::{ExecPlan, HirStmt};

    let mut hir = ooc_core::lower::lower(
        &hpf::analyze(&hpf::parse_program(&forall_source(c)).unwrap()).unwrap(),
    )
    .unwrap();
    let HirStmt::Elementwise(stmt) = &mut hir.stmts[0] else {
        panic!("expected an elementwise statement");
    };
    stmt.rhs = e.clone();
    let options = CompilerOptions {
        prefetch: c.prefetch,
        ..CompilerOptions::default()
    };
    let mut compiled = compile_hir(hir, &options).unwrap();
    let ExecPlan::Elementwise(plan) = &mut compiled.plans[0] else {
        panic!("expected an elementwise plan");
    };
    if let Some((dim, thickness)) = c.slab {
        plan.slab_dim = dim;
        plan.slab_thickness = thickness;
    }

    let seed = c.seed;
    let value = move |array: &str, g: &[usize]| {
        forall_value(
            seed,
            ["u", "w", "v"].iter().position(|a| *a == array).unwrap() as u64,
            g,
        )
    };
    compiled.engine = if c.pool {
        dmsim::Engine::Pool(2)
    } else {
        dmsim::Engine::Threads
    };
    let mut cfg = RunConfig::default();
    for name in ["u", "w", "v"] {
        cfg.init
            .insert(name.into(), init_fn(move |g| value(name, g)));
    }
    cfg.collect.push("v".into());
    let outcome = run(&compiled, &cfg).unwrap();
    let (shape, v) = &outcome.collected["v"];
    let inside = |i: usize| (2..c.n - 2).contains(&i);
    for j in 0..c.n {
        for i in 0..c.n {
            let g = [i, j];
            let want = if inside(i) && inside(j) {
                eval_as_written(e, &g, &value)
            } else {
                value("v", &g)
            };
            let got = v[shape.linear(&g)];
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "v({i},{j}) = {got:e}, written order gives {want:e}\n  expr {e:?}\n  case {c:?}"
            );
        }
    }
}

/// Random trees over `+ − × ÷` and unary minus, the non-dyadic constants
/// 0.1 and 3.0, and references to `u` and `w` shifted by up to 2 along
/// none, one or both dimensions.
fn forall_expr() -> BoxedStrategy<ElwExpr> {
    let reference =
        (0usize..2, -2isize..3, -2isize..3, 0usize..4).prop_map(|(a, s0, s1, along)| {
            let offsets = match along {
                0 => vec![0, 0],
                1 => vec![s0, 0],
                2 => vec![0, s1],
                _ => vec![s0, s1],
            };
            ElwExpr::shifted(["u", "w"][a], offsets)
        });
    let leaf = prop_oneof![
        Just(ElwExpr::Const(0.1)),
        Just(ElwExpr::Const(3.0)),
        reference.clone(),
        reference,
    ];
    leaf.prop_recursive(4, 16, 2, |inner| {
        let binary = (inner.clone(), inner.clone(), 0usize..4).prop_map(|(l, r, op)| {
            let (l, r) = (Box::new(l), Box::new(r));
            match op {
                0 => ElwExpr::Add(l, r),
                1 => ElwExpr::Sub(l, r),
                2 => ElwExpr::Mul(l, r),
                _ => ElwExpr::Div(l, r),
            }
        });
        prop_oneof![
            binary.clone(),
            binary,
            inner.prop_map(|e| ElwExpr::Neg(Box::new(e)))
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every forall evaluates its expression as written: bitwise equal to a
    /// serial source-order evaluation of the same tree, whatever the
    /// distribution, processor count (ranks that own nothing included),
    /// ghost widths, stripmining, prefetch or engine.
    #[test]
    fn elementwise_random_trees_match_a_source_order_oracle(
        e in forall_expr(),
        np in (1usize..6, 7usize..13),
        layout in (0usize..4, proptest::bool::ANY),
        slab in (0usize..3, 1usize..5),
        run_with in (proptest::bool::ANY, proptest::bool::ANY, 0u64..1 << 32),
    ) {
        let (p, n) = np;
        let dist = [
            ForallDist::Columns,
            ForallDist::Rows,
            ForallDist::AlignedColumns,
            ForallDist::AlignedRows,
        ][layout.0];
        let case = ForallCase {
            n,
            p,
            dist,
            misaligned_w: layout.1,
            slab: (slab.0 < 2).then_some(slab),
            prefetch: run_with.0,
            pool: run_with.1,
            seed: run_with.2,
        };
        assert_forall_as_written(&case, &e);
    }
}

/// The expressions a linear re-association changes most: a quotient of a
/// sum, a scaled sum, and a sum that cancels one of its terms.
#[test]
fn forall_values_are_the_expression_as_written() {
    let u = |di: isize| ElwExpr::shifted("u", vec![di, 0]);
    let neighbours = || ElwExpr::add(u(-1), u(1));
    let exprs = [
        ElwExpr::Div(Box::new(neighbours()), Box::new(ElwExpr::Const(3.0))),
        ElwExpr::mul(ElwExpr::Const(0.2), neighbours()),
        ElwExpr::Sub(
            Box::new(ElwExpr::add(u(0), ElwExpr::Const(1.0))),
            Box::new(u(0)),
        ),
    ];
    for dist in [
        ForallDist::Columns,
        ForallDist::Rows,
        ForallDist::AlignedColumns,
        ForallDist::AlignedRows,
    ] {
        for e in &exprs {
            let case = ForallCase {
                n: 32,
                p: 4,
                dist,
                misaligned_w: false,
                slab: None,
                prefetch: false,
                pool: false,
                seed: 2026,
            };
            assert_forall_as_written(&case, e);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The slab cache must be semantically invisible: any interleaving of
    /// section reads and writes, under any byte budget (including 0 and
    /// budgets far smaller than one section), returns the same values as an
    /// uncached environment, and after a flush the backing file holds the
    /// same bytes.
    #[test]
    fn slab_cache_is_transparent_for_any_budget(
        budget in 0usize..2048,
        ops in proptest::collection::vec(
            (proptest::bool::ANY, 0usize..65536, 0usize..65536, 0usize..251),
            1..24,
        ),
    ) {
        use ooc_array::{ArrayDesc, ArrayId, DimRange, Distribution, OocEnv, Section, Shape};
        use pario::{ElemKind, NoCharge, SievePolicy::Direct};

        let desc = ArrayDesc::new(
            ArrayId(0),
            "x",
            ElemKind::F32,
            Distribution::column_block(Shape::matrix(16, 12), 2),
        );
        let init = |g: &[usize]| (g[0] * 31 + g[1]) as f32 * 0.25;
        let mut cached = OocEnv::in_memory(0);
        let mut plain = OocEnv::in_memory(0);
        for env in [&mut cached, &mut plain] {
            env.alloc(&desc).unwrap();
            env.load_global(&desc, &init).unwrap();
        }
        cached.enable_cache(budget);

        let local = desc.local_shape(0);
        let (l0, l1) = (local.extent(0), local.extent(1));
        for (i, &(is_read, x, y, seed)) in ops.iter().enumerate() {
            let lo0 = x % l0;
            let hi0 = lo0 + 1 + y % (l0 - lo0);
            let lo1 = (x / l0) % l1;
            let hi1 = lo1 + 1 + (y / l0) % (l1 - lo1);
            let sec = Section::new(vec![DimRange::new(lo0, hi0), DimRange::new(lo1, hi1)]);
            if is_read {
                let a = cached.read_section(&desc, &sec, &NoCharge).unwrap();
                let b = plain.read_section(&desc, &sec, &NoCharge).unwrap();
                prop_assert_eq!(a, b, "read {} of section {:?}", i, sec);
            } else {
                let data: Vec<f32> = (0..sec.len())
                    .map(|k| ((seed + i) * 11 + k) as f32 * 0.5 - 7.0)
                    .collect();
                cached.write_section(&desc, &sec, &data, &NoCharge, Direct).unwrap();
                plain.write_section(&desc, &sec, &data, &NoCharge, Direct).unwrap();
            }
        }

        // After a flush, the cached environment's *backing file* must hold
        // the same bytes: re-reading through a fresh zero-budget cache
        // misses everything, so it observes the backend directly.
        cached.flush_cache(&NoCharge).unwrap();
        cached.enable_cache(0);
        prop_assert_eq!(
            cached.read_local_all(&desc).unwrap(),
            plain.read_local_all(&desc).unwrap()
        );
    }
}

#[test]
fn redistribute_then_back_is_identity() {
    use dmsim::{Machine, MachineConfig};
    use ooc_array::{redistribute, ArrayDesc, ArrayId, Distribution, OocEnv, Shape};
    use pario::{ElemKind, NoCharge};

    let n = 12;
    let p = 3;
    let shape = Shape::matrix(n, n);
    let col = ArrayDesc::new(
        ArrayId(0),
        "x",
        ElemKind::F32,
        Distribution::column_block(shape.clone(), p),
    );
    let row = ArrayDesc::new(
        ArrayId(1),
        "y",
        ElemKind::F32,
        Distribution::row_block(shape.clone(), p),
    );
    let back = ArrayDesc::new(
        ArrayId(2),
        "z",
        ElemKind::F32,
        Distribution::column_block(shape, p),
    );
    let init = |g: &[usize]| (g[0] * 31 + g[1]) as f32;

    let machine = Machine::new(MachineConfig::free(p));
    machine.run(|ctx| {
        let mut env = OocEnv::in_memory(ctx.rank());
        for d in [&col, &row, &back] {
            env.alloc(d).unwrap();
        }
        env.load_global(&col, &init).unwrap();
        redistribute(ctx, &mut env, &col, &row, &NoCharge).unwrap();
        redistribute(ctx, &mut env, &row, &back, &NoCharge).unwrap();
        let orig = env.read_local_all(&col).unwrap();
        let round = env.read_local_all(&back).unwrap();
        assert_eq!(orig, round, "rank {}", ctx.rank());
    });
}

#[test]
fn relayout_preserves_data_under_charged_io() {
    use ooc_array::{
        relayout_in_place, ArrayDesc, ArrayId, Distribution, FileLayout, OocEnv, Shape,
    };
    use pario::{ElemKind, NoCharge};

    let desc = ArrayDesc::new(
        ArrayId(0),
        "x",
        ElemKind::F32,
        Distribution::column_block(Shape::matrix(32, 16), 2),
    );
    let mut env = OocEnv::in_memory(0);
    env.alloc(&desc).unwrap();
    env.load_global(&desc, &|g| (g[0] * 100 + g[1]) as f32)
        .unwrap();
    let before = env.read_local_all(&desc).unwrap();
    let stats_before = env.disk().stats();

    let rm = relayout_in_place(&mut env, &desc, FileLayout::row_major(2), 64, &NoCharge).unwrap();
    let after = env.read_local_all(&rm).unwrap();
    assert_eq!(before, after);
    // The relayout really moved bytes through the I/O layer.
    assert!(env.disk().stats().bytes_read > stats_before.bytes_read);
}
