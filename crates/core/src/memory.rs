//! Out-of-core phase: memory allocation among competing arrays (§4.2.1).
//!
//! "Instead of dividing the available memory equally among all arrays, the
//! best performance is obtained when the most frequently accessed array is
//! allocated a larger slab size." Table 2 demonstrates this empirically;
//! this module implements three policies the ablation benches compare:
//!
//! * [`MemoryPolicy::EqualSplit`] — the naive half/half baseline;
//! * [`MemoryPolicy::AccessWeighted`] — closed-form √-weighted split: with
//!   request counts `R_X(m) = K_X / m_X` and `m_A + m_B = M`, total
//!   requests are minimized at `m_X ∝ √K_X`, which allocates more memory
//!   to the more frequently streamed array (the paper's heuristic made
//!   precise);
//! * [`MemoryPolicy::Search`] — exhaustive split search scored by the cost
//!   estimator (the reference optimum).

use serde::{Deserialize, Serialize};

use dmsim::CostModel;

use crate::plan::{GaxpyPlan, SlabStrategy};
use crate::stripmine::a_slab_extent;

/// Policy for splitting the node memory budget between A and B slabs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemoryPolicy {
    /// Equal halves.
    EqualSplit,
    /// √-weighted by streaming frequency.
    AccessWeighted,
    /// Grid search over split fractions, minimizing estimated requests.
    Search,
}

/// Elements one index of A's slab dimension occupies.
fn a_elems_per_index(strategy: SlabStrategy, n: usize, p: usize) -> usize {
    match strategy {
        SlabStrategy::ColumnSlab => n,          // a column of the OCLA
        SlabStrategy::RowSlab => n.div_ceil(p), // a row of the OCLA
    }
}

/// A slab buffers a GAXPY plan holds: two when prefetched fetches of A
/// overlap the multiply of the slab before them (the column version; see
/// [`GaxpyPlan::prefetches_a`]), one otherwise. The one rule behind the
/// plan's memory accounting, the executor's peak and the budget split's
/// reservation of the second buffer.
pub fn a_slab_buffers(strategy: SlabStrategy, prefetch: bool) -> usize {
    1 + usize::from(prefetch && strategy == SlabStrategy::ColumnSlab)
}

/// Memory-to-thickness clamp shared by the split policies: A's share `ma`
/// holds `a_buffers` slabs of A.
fn clamp_split(
    strategy: SlabStrategy,
    n: usize,
    p: usize,
    (ma, mb): (usize, usize),
    a_buffers: usize,
) -> (usize, usize) {
    let epi_a = a_elems_per_index(strategy, n, p) * a_buffers;
    let epi_b = n.div_ceil(p); // a column of B's OCLA
    let a_extent = a_slab_extent(strategy, n, p);
    ((ma / epi_a).clamp(1, a_extent), (mb / epi_b).clamp(1, n))
}

/// Split `elems` of memory into `(slab_a, slab_b)` thicknesses.
///
/// [`MemoryPolicy::Search`] scores a grid of split fractions. Without a
/// slab cache (`cache_budget` `None`) the objective is the closed-form
/// read time; when the target runs with a cache of `cache_budget` bytes,
/// each candidate split is walked through the reuse predictor
/// ([`crate::reuse::gaxpy_cached_totals`]) instead — cached executions
/// reward splits the uncached formulas undervalue (e.g. an A slab that fits
/// residently). The predictor walks the full access sequence per grid
/// point, so a cached search is meant for compile-time sizing over moderate
/// problem sizes, not inner loops. The other policies ignore the cache.
pub fn split_gaxpy_budget_with_cache(
    strategy: SlabStrategy,
    n: usize,
    p: usize,
    elems: usize,
    policy: MemoryPolicy,
    model: &CostModel,
    cache_budget: Option<usize>,
) -> (usize, usize) {
    split_gaxpy_budget_prefetched(strategy, n, p, elems, policy, model, cache_budget, false)
}

/// [`split_gaxpy_budget_with_cache`] for a plan that prefetches when
/// `prefetch`: A's share of `elems` then holds [`a_slab_buffers`] slabs of
/// A, so the second buffer is reserved inside the budget. Compile-time
/// sizing and the degraded-disk re-plan both split through here.
#[allow(clippy::too_many_arguments)]
pub fn split_gaxpy_budget_prefetched(
    strategy: SlabStrategy,
    n: usize,
    p: usize,
    elems: usize,
    policy: MemoryPolicy,
    model: &CostModel,
    cache_budget: Option<usize>,
    prefetch: bool,
) -> (usize, usize) {
    let a_buffers = a_slab_buffers(strategy, prefetch);
    let clamp = |ma: usize, mb: usize| clamp_split(strategy, n, p, (ma, mb), a_buffers);
    match policy {
        MemoryPolicy::EqualSplit => clamp(elems / 2, elems / 2),
        MemoryPolicy::AccessWeighted => {
            let (ka, kb) = stream_weights(strategy, n, p, elems);
            let wa = (ka as f64).sqrt();
            let wb = (kb as f64).sqrt();
            let fa = wa / (wa + wb);
            let ma = (elems as f64 * fa) as usize;
            clamp(ma, elems - ma)
        }
        MemoryPolicy::Search => {
            let objective = |sa, sb| match cache_budget {
                None => time_estimate(strategy, n, p, sa, sb, model),
                Some(budget) => cached_time_estimate(strategy, n, p, sa, sb, budget, model),
            };
            let mut best: Option<(f64, (usize, usize))> = None;
            for pct in (5..=95).step_by(5) {
                let ma = elems * pct / 100;
                let (sa, sb) = clamp(ma, elems - ma);
                let time = objective(sa, sb);
                if best.map(|(t, _)| time < t).unwrap_or(true) {
                    best = Some((time, (sa, sb)));
                }
            }
            best.expect("non-empty search").1
        }
    }
}

/// Modeled I/O time of a cached execution of the paper's plan
/// ([`GaxpyPlan::new`]) at this split — the cache-aware search objective.
fn cached_time_estimate(
    strategy: SlabStrategy,
    n: usize,
    p: usize,
    sa: usize,
    sb: usize,
    budget: usize,
    model: &CostModel,
) -> f64 {
    cached_io_time(&GaxpyPlan::new(strategy, n, p, sa, sb), budget, model)
}

/// Modeled I/O time of rank 0 executing `plan` behind a slab cache of
/// `budget` bytes: reads and write-backs both priced; hits are free.
fn cached_io_time(plan: &GaxpyPlan, budget: usize, model: &CostModel) -> f64 {
    let t = crate::reuse::gaxpy_cached_totals(plan, 0, budget);
    let (mut r_req, mut r_el, mut w_req, mut w_el) = (0u64, 0u64, 0u64, 0u64);
    for a in t.per_array.values() {
        r_req += a.read_requests;
        r_el += a.read_elems;
        w_req += a.write_requests;
        w_el += a.write_elems;
    }
    model.io_time(r_req, r_el * 4) + model.io_write_time(w_req, w_el * 4)
}

/// Streaming weights `K_X`: total elements of X moved from disk over the
/// whole computation, as a function of the loop structure. Requests are
/// `K_X / m_X` for slab memory `m_X`.
fn stream_weights(strategy: SlabStrategy, n: usize, p: usize, elems: usize) -> (u64, u64) {
    let lc = n.div_ceil(p) as u64;
    let n64 = n as u64;
    let ocla = n64 * lc;
    match strategy {
        // Column version: A streams once per column of C (N times); B once.
        SlabStrategy::ColumnSlab => (n64 * ocla, ocla),
        // Row version: A itself streams once, but *all of B's traffic* is
        // proportional to A's slab count n/s_a — so in the paper's terms A
        // is the most frequently "acting" array and its slab size carries
        // the weight of B's whole restreamed volume. B's own knob only
        // divides its per-stream request count (k_a streams, seeded from an
        // equal split).
        SlabStrategy::RowSlab => {
            let epi_a = a_elems_per_index(strategy, n, p).max(1) as u64;
            let sa = ((elems as u64 / 2) / epi_a).max(1);
            let ka = n64.div_ceil(sa);
            (n64 * ocla, ka * ocla)
        }
    }
}

/// Read request count as a function of the split. Writes are left out,
/// although they depend on the split too: the column version's owner writes
/// C once per `slab_a` columns it produces, so a thinner A slab means more
/// write requests.
fn request_estimate(strategy: SlabStrategy, n: usize, p: usize, sa: usize, sb: usize) -> u64 {
    let n64 = n as u64;
    match strategy {
        SlabStrategy::ColumnSlab => {
            let lc = n.div_ceil(p);
            let ka = (lc as u64).div_ceil(sa as u64);
            let kb = n64.div_ceil(sb as u64);
            // A streamed per column of B; B streamed once.
            n64 * ka + kb
        }
        SlabStrategy::RowSlab => {
            let ka = n64.div_ceil(sa as u64);
            let kb = n64.div_ceil(sb as u64);
            // A once; B once per A slab; B fully resident is read once.
            if sb >= n {
                ka + 1
            } else {
                ka + ka * kb
            }
        }
    }
}

/// Read *bytes* as a function of the split.
fn byte_estimate(strategy: SlabStrategy, n: usize, p: usize, sa: usize, sb: usize) -> u64 {
    let lc = n.div_ceil(p) as u64;
    let n64 = n as u64;
    let ocla = n64 * lc * 4;
    match strategy {
        // A streamed N times, B once — independent of the split.
        SlabStrategy::ColumnSlab => n64 * ocla + ocla,
        SlabStrategy::RowSlab => {
            let ka = n64.div_ceil(sa as u64);
            let _ = sb;
            let b_streams = if sb >= n { 1 } else { ka };
            ocla + b_streams * ocla
        }
    }
}

/// Modeled read time of the split — the search policy's objective.
fn time_estimate(
    strategy: SlabStrategy,
    n: usize,
    p: usize,
    sa: usize,
    sb: usize,
    model: &CostModel,
) -> f64 {
    model.io_time(
        request_estimate(strategy, n, p, sa, sb),
        byte_estimate(strategy, n, p, sa, sb),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 2048;
    const P: usize = 16;

    #[test]
    fn closed_forms_count_the_reads_of_the_nest() {
        // `request_estimate` and `byte_estimate` are a hand copy of GAXPY's
        // read counts: held to rank 0's nest, the compiled price, for both
        // strategies, ragged last slabs and more ranks than columns. Every
        // slab size up to 12, a sample of them above.
        let sizes = |max: usize| {
            let mut v: Vec<usize> = [1, 2, 3, 5, max / 3, max / 2 + 1, max - 1, max]
                .into_iter()
                .chain(1..=max.min(12))
                .filter(|s| (1..=max).contains(s))
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let mut cases = 0;
        for n in (1usize..=16).chain([31, 64, 100, 129]) {
            for p in [1, 2, 3, 4, 7, 16] {
                for strategy in [SlabStrategy::ColumnSlab, SlabStrategy::RowSlab] {
                    let a_extent = match strategy {
                        SlabStrategy::ColumnSlab => n.div_ceil(p),
                        SlabStrategy::RowSlab => n,
                    };
                    for sa in sizes(a_extent) {
                        for sb in sizes(n) {
                            let plan = GaxpyPlan::new(strategy, n, p, sa, sb);
                            let t = crate::ir::totals(&crate::nodegen::gaxpy_nest(&plan));
                            let (requests, elems) = (t.per_array.values())
                                .fold((0, 0), |(r, e), a| (r + a.read_requests, e + a.read_elems));
                            let at = format!("{strategy:?} n={n} p={p} sa={sa} sb={sb}");
                            assert_eq!(request_estimate(strategy, n, p, sa, sb), requests, "{at}");
                            assert_eq!(byte_estimate(strategy, n, p, sa, sb), 4 * elems, "{at}");
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert!(cases > 20_000, "{cases} cases");
    }

    #[test]
    fn equal_split_halves_memory() {
        let elems = 2 * 256 * 128; // Table 2's 512-column budget (x128 elems)
        let (sa, sb) = split_gaxpy_budget_with_cache(
            SlabStrategy::RowSlab,
            N,
            P,
            elems,
            MemoryPolicy::EqualSplit,
            &CostModel::delta(P),
            None,
        );
        // epi are both 128 for 2K/16: equal thicknesses.
        assert_eq!(sa, sb);
        assert_eq!(sa, 256);
    }

    #[test]
    fn access_weighted_gives_dominant_array_more() {
        // Column version: A streams N times, B once -> A gets more memory.
        let elems = 1 << 18;
        let (sa, sb) = split_gaxpy_budget_with_cache(
            SlabStrategy::ColumnSlab,
            N,
            P,
            elems,
            MemoryPolicy::AccessWeighted,
            &CostModel::delta(P),
            None,
        );
        let epi_a = N;
        let epi_b = N / P;
        assert!(
            sa * epi_a > sb * epi_b,
            "A should get more memory: {} vs {}",
            sa * epi_a,
            sb * epi_b
        );
    }

    #[test]
    fn search_beats_or_matches_equal_split() {
        for strategy in [SlabStrategy::ColumnSlab, SlabStrategy::RowSlab] {
            let elems = 1 << 17;
            let (ea, eb) = split_gaxpy_budget_with_cache(
                strategy,
                N,
                P,
                elems,
                MemoryPolicy::EqualSplit,
                &CostModel::delta(P),
                None,
            );
            let (oa, ob) = split_gaxpy_budget_with_cache(
                strategy,
                N,
                P,
                elems,
                MemoryPolicy::Search,
                &CostModel::delta(P),
                None,
            );
            let m = CostModel::delta(P);
            assert!(
                time_estimate(strategy, N, P, oa, ob, &m)
                    <= time_estimate(strategy, N, P, ea, eb, &m) + 1e-9,
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn thicknesses_stay_in_bounds() {
        for policy in [
            MemoryPolicy::EqualSplit,
            MemoryPolicy::AccessWeighted,
            MemoryPolicy::Search,
        ] {
            for strategy in [SlabStrategy::ColumnSlab, SlabStrategy::RowSlab] {
                for elems in [16usize, 1 << 10, 1 << 24] {
                    let m = CostModel::delta(4);
                    let (sa, sb) =
                        split_gaxpy_budget_with_cache(strategy, 64, 4, elems, policy, &m, None);
                    assert!(sa >= 1 && sa <= a_slab_extent(strategy, 64, 4));
                    assert!((1..=64).contains(&sb));
                }
            }
        }
    }

    #[test]
    fn uncached_split_is_the_closed_form_choice() {
        // Splits the closed-form policies chose before the cached and
        // uncached searches shared one grid loop.
        let pinned = [
            (
                MemoryPolicy::AccessWeighted,
                SlabStrategy::ColumnSlab,
                64,
                4,
                1 << 10,
                (14, 7),
            ),
            (
                MemoryPolicy::AccessWeighted,
                SlabStrategy::ColumnSlab,
                100,
                7,
                3000,
                (15, 18),
            ),
            (
                MemoryPolicy::AccessWeighted,
                SlabStrategy::RowSlab,
                64,
                4,
                1 << 10,
                (54, 9),
            ),
            (
                MemoryPolicy::AccessWeighted,
                SlabStrategy::RowSlab,
                2048,
                16,
                1 << 20,
                (2048, 177),
            ),
            (
                MemoryPolicy::EqualSplit,
                SlabStrategy::ColumnSlab,
                100,
                7,
                3000,
                (15, 100),
            ),
            (
                MemoryPolicy::Search,
                SlabStrategy::ColumnSlab,
                64,
                4,
                1 << 10,
                (8, 32),
            ),
            (
                MemoryPolicy::Search,
                SlabStrategy::RowSlab,
                2048,
                16,
                1 << 20,
                (2048, 2048),
            ),
        ];
        for (policy, strategy, n, p, elems, want) in pinned {
            let m = CostModel::delta(p);
            let got = split_gaxpy_budget_with_cache(strategy, n, p, elems, policy, &m, None);
            assert_eq!(
                got, want,
                "{policy:?} {strategy:?} n={n} p={p} elems={elems}"
            );
        }
        // Without a cache the search is the first grid point minimizing the
        // closed-form read time, and the cache changes only the search.
        let m = CostModel::delta(4);
        for strategy in [SlabStrategy::ColumnSlab, SlabStrategy::RowSlab] {
            for elems in [16usize, 300, 1 << 10, 1 << 14] {
                let split = |policy, cache| {
                    split_gaxpy_budget_with_cache(strategy, 64, 4, elems, policy, &m, cache)
                };
                let mut best: Option<(f64, (usize, usize))> = None;
                for pct in (5..=95).step_by(5) {
                    let ma = elems * pct / 100;
                    let (sa, sb) = clamp_split(strategy, 64, 4, (ma, elems - ma), 1);
                    let t = time_estimate(strategy, 64, 4, sa, sb, &m);
                    if best.is_none_or(|(b, _)| t < b) {
                        best = Some((t, (sa, sb)));
                    }
                }
                assert_eq!(split(MemoryPolicy::Search, None), best.unwrap().1);
                for policy in [MemoryPolicy::EqualSplit, MemoryPolicy::AccessWeighted] {
                    assert_eq!(
                        split(policy, None),
                        split(policy, Some(1 << 14)),
                        "{policy:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn cache_aware_search_is_no_worse_under_the_cached_objective() {
        // Small problem so the replay-based grid search stays fast.
        let (n, p) = (32, 4);
        let m = CostModel::delta(p);
        let budget = 1 << 14;
        for strategy in [SlabStrategy::ColumnSlab, SlabStrategy::RowSlab] {
            for elems in [256usize, 1 << 11] {
                let (ua, ub) = split_gaxpy_budget_with_cache(
                    strategy,
                    n,
                    p,
                    elems,
                    MemoryPolicy::Search,
                    &m,
                    None,
                );
                let (ca, cb) = split_gaxpy_budget_with_cache(
                    strategy,
                    n,
                    p,
                    elems,
                    MemoryPolicy::Search,
                    &m,
                    Some(budget),
                );
                assert!(
                    cached_time_estimate(strategy, n, p, ca, cb, budget, &m)
                        <= cached_time_estimate(strategy, n, p, ua, ub, budget, &m) + 1e-9,
                    "{strategy:?} elems={elems}: cache-aware split ({ca},{cb}) \
                     worse than uncached-scored split ({ua},{ub})"
                );
                assert!(ca >= 1 && cb >= 1);
            }
        }
    }

    #[test]
    fn the_searched_plan_is_the_compiled_plan_when_p_does_not_divide_n() {
        // 13 columns over 4 ranks: rank 0 owns 4. The search scores each
        // split on the plan `compile_hir` builds at that split, C buffer
        // cadence included, so the objective prices what will run. (A
        // cadence of ⌊13/4⌋ = 3 columns cost an extra write of C at 4/4
        // wherever the cache is too small to merge the two.)
        use crate::hir::{HirArray, HirProgram, HirStmt};
        use ooc_array::{Distribution, Shape};
        let (n, p) = (13, 4);
        let array = |name: &str, dist| HirArray {
            name: name.into(),
            shape: Shape::matrix(n, n),
            dist,
        };
        let hir = HirProgram {
            arrays: vec![
                array("a", Distribution::column_block(Shape::matrix(n, n), p)),
                array("b", Distribution::row_block(Shape::matrix(n, n), p)),
                array("c", Distribution::column_block(Shape::matrix(n, n), p)),
            ],
            stmts: vec![HirStmt::Gaxpy {
                a: "a".into(),
                b: "b".into(),
                c: "c".into(),
                temp: "temp".into(),
                n,
            }],
            nprocs: p,
        };
        for strategy in [SlabStrategy::ColumnSlab, SlabStrategy::RowSlab] {
            for (sa, sb, budget) in [
                (4, 4, 0),
                (4, 4, 1 << 10),
                (3, 5, 0),
                (1, 13, 0),
                (2, 1, 256),
            ] {
                let options = crate::CompilerOptions {
                    sizing: crate::stripmine::SlabSizing::Explicit { a: sa, b: sb },
                    force_strategy: Some(strategy),
                    cache_budget: Some(budget),
                    ..crate::CompilerOptions::default()
                };
                let compiled = crate::compile_hir(hir.clone(), &options).expect("compiles");
                let crate::ExecPlan::Gaxpy(plan) = &compiled.plans[0] else {
                    panic!("a GAXPY plan");
                };
                let m = &compiled.model;
                assert_eq!(
                    cached_time_estimate(strategy, n, p, sa, sb, budget, m),
                    cached_io_time(plan, budget, m),
                    "{strategy:?} split ({sa}, {sb})"
                );
            }
        }
    }

    #[test]
    fn row_version_weights_favor_a() {
        // The paper's heuristic: A's slab size controls B's restreaming,
        // so A carries the larger weight and gets the larger slab.
        let (ka, kb) = stream_weights(SlabStrategy::RowSlab, N, P, 2 * 256 * 128);
        assert!(ka >= kb, "A weight {ka} must not be below B weight {kb}");
        let (sa, sb) = split_gaxpy_budget_with_cache(
            SlabStrategy::RowSlab,
            N,
            P,
            1 << 18,
            MemoryPolicy::AccessWeighted,
            &CostModel::delta(P),
            None,
        );
        // epi is equal for both at 2K/16, so thickness compares memory.
        assert!(sa >= sb, "A slab {sa} must not be below B slab {sb}");
    }
}
