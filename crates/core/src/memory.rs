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
//! * [`MemoryPolicy::Search`] — every split of a 5% grid, and the equal and
//!   weighted splits, priced by the estimate the compiler gives the plan
//!   at that split (reads, writes, messages, compute and prefetch overlap,
//!   or the reuse predictor's replay behind a cache); the cheapest wins, so
//!   it is never priced above the two heuristics.

use serde::{Deserialize, Serialize};

use dmsim::CostModel;

use crate::cost::{CostEstimate, NestPrice};
use crate::plan::{GaxpyPlan, SlabStrategy};
use crate::stripmine::a_slab_extent;

/// Policy for splitting the node memory budget between A and B slabs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemoryPolicy {
    /// Equal halves.
    EqualSplit,
    /// √-weighted by streaming frequency.
    AccessWeighted,
    /// The cheapest of a grid of split fractions and the two splits above,
    /// by the compiler's estimate of the plan at each split.
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
/// [`MemoryPolicy::Search`] prices each candidate split by the estimate
/// `compile_hir` gives the paper's plan ([`GaxpyPlan::new`]) at that split:
/// without a slab cache (`cache_budget` `None`) the time of its node
/// program ([`CostEstimate::from_nest`], priced allocation-free through
/// [`NestPrice`]); when the target runs with a cache of `cache_budget`
/// bytes, the time of the reuse predictor's totals
/// ([`CostEstimate::from_totals`] over
/// [`crate::reuse::gaxpy_cached_totals`]), which rewards splits the
/// uncached price undervalues (e.g. an A slab that fits residently). The
/// predictor walks the full access sequence per candidate, so a cached
/// search is meant for compile-time sizing over moderate problem sizes,
/// not inner loops. The other policies ignore the cache.
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
/// A, so the second buffer is reserved inside the budget, and the search
/// prices each split with prefetch's overlap. Compile-time sizing and the
/// degraded-disk re-plan both split through here.
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
    let equal = || clamp(elems / 2, elems / 2);
    let weighted = || {
        let (ka, kb) = stream_weights(strategy, n, p, elems);
        let wa = (ka as f64).sqrt();
        let wb = (kb as f64).sqrt();
        let fa = wa / (wa + wb);
        let ma = (elems as f64 * fa) as usize;
        clamp(ma, elems - ma)
    };
    match policy {
        MemoryPolicy::EqualSplit => equal(),
        MemoryPolicy::AccessWeighted => weighted(),
        MemoryPolicy::Search => {
            let mut plan = GaxpyPlan {
                prefetch,
                ..GaxpyPlan::new(strategy, n, p, 1, 1)
            };
            let grid = (5..=95).step_by(5).map(|pct| elems * pct / 100);
            let candidates = [equal(), weighted()]
                .into_iter()
                .chain(grid.map(|ma| clamp(ma, elems - ma)));
            // Neighbouring grid points often clamp to one split: price it
            // once. The first of the cheapest wins.
            let mut last = None;
            let priced = candidates
                .filter(|&split| last.replace(split) != Some(split))
                .map(|split| {
                    (plan.slab_a, plan.slab_b) = split;
                    (split_price(&plan, model, cache_budget), split)
                });
            priced
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .expect("candidates")
                .1
        }
    }
}

/// The estimated time `compile_hir` gives `plan` run with `cache_budget`:
/// the search's price of one split.
fn split_price(plan: &GaxpyPlan, model: &CostModel, cache_budget: Option<usize>) -> f64 {
    match cache_budget {
        None => {
            let mut price = NestPrice::new(model, 4);
            crate::nodegen::gaxpy_emit(plan, 0, &mut price);
            price.time()
        }
        Some(budget) => {
            let totals = crate::reuse::gaxpy_cached_totals(plan, 0, budget);
            CostEstimate::from_totals(totals, model, 4).time()
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 2048;
    const P: usize = 16;

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
    fn search_beats_or_matches_equal_split() {
        // At Table 2's size the split Search picks is priced no higher than
        // the equal split, by the estimate the search itself minimizes.
        for strategy in [SlabStrategy::ColumnSlab, SlabStrategy::RowSlab] {
            let elems = 1 << 17;
            let m = CostModel::delta(P);
            let price = |policy| {
                let (sa, sb) =
                    split_gaxpy_budget_with_cache(strategy, N, P, elems, policy, &m, None);
                split_price(&GaxpyPlan::new(strategy, N, P, sa, sb), &m, None)
            };
            assert!(
                price(MemoryPolicy::Search) <= price(MemoryPolicy::EqualSplit),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn uncached_split_is_the_closed_form_choice() {
        // The heuristics are closed forms of n, p and the budget: their
        // splits are pinned, and a cache does not move them.
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
        ];
        for (policy, strategy, n, p, elems, want) in pinned {
            let m = CostModel::delta(p);
            for cache in [None, Some(1 << 14)] {
                let got = split_gaxpy_budget_with_cache(strategy, n, p, elems, policy, &m, cache);
                assert_eq!(
                    got, want,
                    "{policy:?} {strategy:?} n={n} p={p} elems={elems} cache={cache:?}"
                );
            }
        }
        // Without a cache the search is the first of the equal split, the
        // weighted split and the grid points that minimizes the uncached
        // price of the plan.
        let m = CostModel::delta(4);
        for strategy in [SlabStrategy::ColumnSlab, SlabStrategy::RowSlab] {
            for elems in [16usize, 300, 1 << 10, 1 << 14] {
                let split = |policy| {
                    split_gaxpy_budget_with_cache(strategy, 64, 4, elems, policy, &m, None)
                };
                let grid = (5..=95).step_by(5).map(|pct| {
                    let ma = elems * pct / 100;
                    clamp_split(strategy, 64, 4, (ma, elems - ma), 1)
                });
                let mut best: Option<(f64, (usize, usize))> = None;
                for (sa, sb) in [
                    split(MemoryPolicy::EqualSplit),
                    split(MemoryPolicy::AccessWeighted),
                ]
                .into_iter()
                .chain(grid)
                {
                    let t = split_price(&GaxpyPlan::new(strategy, 64, 4, sa, sb), &m, None);
                    if best.is_none_or(|(b, _)| t < b) {
                        best = Some((t, (sa, sb)));
                    }
                }
                assert_eq!(
                    split(MemoryPolicy::Search),
                    best.unwrap().1,
                    "{strategy:?} {elems}"
                );
            }
        }
    }

    /// The paper's GAXPY, `n × n` on `p` processors, as `compile_hir`
    /// takes it.
    fn gaxpy_hir(n: usize, p: usize) -> crate::hir::HirProgram {
        use crate::hir::{HirArray, HirProgram, HirStmt};
        use ooc_array::{Distribution, Shape};
        let array = |name: &str, dist| HirArray {
            name: name.into(),
            shape: Shape::matrix(n, n),
            dist,
        };
        HirProgram {
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
        }
    }

    /// The compiled estimate of the GAXPY plan of `strategy` at the split
    /// `(sa, sb)`, run with `cache` and `prefetch`.
    fn compiled_time(
        hir: &crate::hir::HirProgram,
        strategy: SlabStrategy,
        (sa, sb): (usize, usize),
        cache: Option<usize>,
        prefetch: bool,
    ) -> f64 {
        let options = crate::CompilerOptions {
            sizing: crate::stripmine::SlabSizing::Explicit { a: sa, b: sb },
            force_strategy: Some(strategy),
            cache_budget: cache,
            prefetch,
            ..crate::CompilerOptions::default()
        };
        let compiled = crate::compile_hir(hir.clone(), &options).expect("compiles");
        compiled.estimates[0].time()
    }

    #[test]
    fn search_is_the_argmin_of_the_compiled_estimate() {
        // Whatever n, p, budget, cache and prefetch, the split Search picks
        // compiles to an estimate no higher than the equal and the weighted
        // split's: both are among its candidates, and each candidate is
        // priced as the compiler prices the plan it compiles.
        let mut cases = 0;
        for (n, p) in [(13, 4), (48, 4), (64, 7), (100, 16)] {
            let hir = gaxpy_hir(n, p);
            let m = CostModel::delta(p);
            // Budgets where the weighted split beats every grid point among
            // them: (48, 4) at 225 and 675 elements, (13, 4) at 133.
            for elems in [3, 9, 14].map(|k| k * n * n.div_ceil(p) / 8 + 3 * k) {
                for cache in [None, Some(1 << 12), Some(64 << 10)] {
                    for prefetch in [false, true] {
                        for strategy in [SlabStrategy::ColumnSlab, SlabStrategy::RowSlab] {
                            let time = |policy| {
                                let split = split_gaxpy_budget_prefetched(
                                    strategy, n, p, elems, policy, &m, cache, prefetch,
                                );
                                compiled_time(&hir, strategy, split, cache, prefetch)
                            };
                            let search = time(MemoryPolicy::Search);
                            for policy in [MemoryPolicy::EqualSplit, MemoryPolicy::AccessWeighted] {
                                let other = time(policy);
                                assert!(
                                    search <= other,
                                    "{strategy:?} n={n} p={p} elems={elems} cache={cache:?} \
                                     prefetch={prefetch}: Search {search} > {policy:?} {other}"
                                );
                            }
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 144);
    }

    #[test]
    fn the_priced_nest_is_the_built_nest_priced() {
        // `NestPrice` over `gaxpy_emit` is `from_nest` over `gaxpy_nest`,
        // bit for bit: both strategies, prefetch on and off, ragged last
        // slabs, every access method and more ranks than columns.
        for n in [1usize, 5, 13, 64] {
            for p in [1, 3, 4, 16] {
                let m = CostModel::delta(p);
                for strategy in [SlabStrategy::ColumnSlab, SlabStrategy::RowSlab] {
                    let top = a_slab_extent(strategy, n, p);
                    for (sa, sb) in [(1, 1), (top, n), (2, 3), (top / 2 + 1, n / 2 + 1)] {
                        for prefetch in [false, true] {
                            for method in pario::IoMethod::ALL {
                                let (sa, sb) = (sa.clamp(1, top), sb.clamp(1, n));
                                let plan = GaxpyPlan {
                                    prefetch,
                                    method,
                                    ..GaxpyPlan::new(strategy, n, p, sa, sb)
                                };
                                let nest = crate::nodegen::gaxpy_nest(&plan);
                                let want = CostEstimate::from_nest(&nest, &m, 4).time();
                                let got = split_price(&plan, &m, None);
                                assert_eq!(got.to_bits(), want.to_bits(), "{plan:?}");
                            }
                        }
                    }
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
                let plan_of = |cache| {
                    let (sa, sb) = split_gaxpy_budget_with_cache(
                        strategy,
                        n,
                        p,
                        elems,
                        MemoryPolicy::Search,
                        &m,
                        cache,
                    );
                    GaxpyPlan::new(strategy, n, p, sa, sb)
                };
                let (uncached, cached) = (plan_of(None), plan_of(Some(budget)));
                assert!(
                    split_price(&cached, &m, Some(budget))
                        <= split_price(&uncached, &m, Some(budget)),
                    "{strategy:?} elems={elems}: cache-aware split {:?} worse than \
                     uncached-priced split {:?}",
                    (cached.slab_a, cached.slab_b),
                    (uncached.slab_a, uncached.slab_b),
                );
            }
        }
    }

    #[test]
    fn the_searched_plan_is_the_compiled_plan_when_p_does_not_divide_n() {
        // 13 columns over 4 ranks: rank 0 owns 4. The search prices each
        // split on the plan `compile_hir` builds at that split, C buffer
        // cadence included, so its price is the compiled estimate, cached
        // or not, prefetched or not. (A cadence of ⌊13/4⌋ = 3 columns cost
        // an extra write of C at 4/4 wherever the cache is too small to
        // merge the two.)
        let (n, p) = (13, 4);
        let hir = gaxpy_hir(n, p);
        let m = CostModel::delta(p);
        for strategy in [SlabStrategy::ColumnSlab, SlabStrategy::RowSlab] {
            for (sa, sb, cache) in [
                (4, 4, None),
                (4, 4, Some(0)),
                (4, 4, Some(1 << 10)),
                (3, 5, Some(0)),
                (1, 13, None),
                (2, 1, Some(256)),
            ] {
                for prefetch in [false, true] {
                    let plan = GaxpyPlan {
                        prefetch,
                        ..GaxpyPlan::new(strategy, n, p, sa, sb)
                    };
                    assert_eq!(
                        split_price(&plan, &m, cache).to_bits(),
                        compiled_time(&hir, strategy, (sa, sb), cache, prefetch).to_bits(),
                        "{strategy:?} split ({sa}, {sb}) cache {cache:?} prefetch {prefetch}"
                    );
                }
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
