//! Data access reorganization: candidate generation and selection (§4).
//!
//! For the GAXPY statement the compiler builds both translations — the
//! column-slab version (the straightforward extension of in-core
//! compilation, Figure 9) and the row-slab version (storage reorganized so
//! A streams once, Figure 12) — estimates each one's I/O cost from its
//! symbolic node program, and selects the cheaper (the algorithm of
//! Figure 14).
//!
//! Every choice the compiler makes is taken by one rule, [`decide`]: the
//! first of the cheapest candidates by the price of its node program, a
//! forced candidate winning whatever it costs. A [`Decision`] records one
//! such choice with every candidate's estimate: the GAXPY strategy and
//! each access method of a remap, transpose or gather. The elementwise
//! slab dimension, the memory split of [`crate::MemoryPolicy::Search`] and
//! SpMV's run-time method re-selection call [`decide`] on their prices.

use serde::{Deserialize, Serialize};

use dmsim::CostModel;
use ooc_array::{ArrayDesc, ArrayId, FileLayout};
use pario::ElemKind;

use crate::cost::CostEstimate;
use crate::hir::HirArray;
use crate::nodegen::gaxpy_nest;
use crate::plan::{GaxpyPlan, SlabStrategy};
use crate::stripmine::{size_gaxpy, SlabSizing};

/// The layouts a strategy wants for (A, B, C) when storage reorganization
/// is permitted.
pub fn desired_layouts(strategy: SlabStrategy) -> (FileLayout, FileLayout, FileLayout) {
    match strategy {
        SlabStrategy::ColumnSlab => (
            FileLayout::column_major(2),
            FileLayout::column_major(2),
            FileLayout::column_major(2),
        ),
        // Row slabs of A and row-slab writes of C are contiguous only when
        // those files are stored row-major — the reorganization.
        SlabStrategy::RowSlab => (
            FileLayout::row_major(2),
            FileLayout::column_major(2),
            FileLayout::row_major(2),
        ),
    }
}

/// Build the fully-sized GAXPY plan of `sel` for one strategy.
///
/// `layouts` are the actual file layouts to use (callers pass the desired
/// ones, or the already-locked ones when another statement fixed an array's
/// storage, or column-major when reorganization is disabled — the ablation).
pub fn build_gaxpy_plan(
    sel: &GaxpySelection<'_>,
    strategy: SlabStrategy,
    layouts: (FileLayout, FileLayout, FileLayout),
    model: &CostModel,
) -> GaxpyPlan {
    let (n, p) = (sel.n, sel.p);
    let slabs = size_gaxpy(strategy, n, p, sel.sizing, model, sel.prefetch);
    let ((a, b, c), ids) = (sel.arrays, sel.ids);
    let desc = |id: ArrayId, arr: &HirArray, layout: FileLayout| {
        ArrayDesc::new(id, arr.name.clone(), ElemKind::F32, arr.dist.clone()).with_layout(layout)
    };
    GaxpyPlan {
        a: desc(ids.0, a, layouts.0),
        b: desc(ids.1, b, layouts.1),
        c: desc(ids.2, c, layouts.2),
        method: sel.method,
        prefetch: sel.prefetch,
        ..GaxpyPlan::new(strategy, n, p, slabs.a, slabs.b)
    }
}

/// Outcome of strategy selection for one GAXPY statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaxpyChoice {
    /// The selected plan.
    pub plan: GaxpyPlan,
    /// The strategy decision behind it.
    pub decision: Decision<SlabStrategy>,
}

/// Selection parameters.
pub struct GaxpySelection<'a> {
    /// Array ids of (a, b, c).
    pub ids: (ArrayId, ArrayId, ArrayId),
    /// HIR arrays of (a, b, c).
    pub arrays: (&'a HirArray, &'a HirArray, &'a HirArray),
    /// Matrix order.
    pub n: usize,
    /// Processors.
    pub p: usize,
    /// Slab sizing policy.
    pub sizing: SlabSizing,
    /// When false, all layouts stay column-major (the ablation showing the
    /// reorganization is what makes row slabs cheap).
    pub reorganize: bool,
    /// Per-array layout already fixed by an earlier statement.
    pub locked: (Option<FileLayout>, Option<FileLayout>, Option<FileLayout>),
    /// Force a strategy instead of selecting by cost (used by the
    /// experiment harness to produce both columns of Table 1).
    pub force: Option<SlabStrategy>,
    /// Access method of every slab access (see [`GaxpyPlan::method`]).
    pub method: pario::IoMethod,
    /// Overlap A's fetches with the multiply (see
    /// [`GaxpyPlan::prefetch`]); every candidate is sized and priced with
    /// it.
    pub prefetch: bool,
}

/// Run the Figure 14 selection: build candidates, estimate, choose.
pub fn choose_gaxpy(sel: &GaxpySelection<'_>, model: &CostModel) -> GaxpyChoice {
    let candidates = [SlabStrategy::ColumnSlab, SlabStrategy::RowSlab];
    let mut plans = Vec::with_capacity(candidates.len());
    let access = format!("gaxpy {}", sel.arrays.2.name);
    let decision = Decision::new(access, candidates, sel.force, |strategy| {
        let desired = if sel.reorganize {
            desired_layouts(strategy)
        } else {
            (
                FileLayout::column_major(2),
                FileLayout::column_major(2),
                FileLayout::column_major(2),
            )
        };
        let layouts = (
            sel.locked.0.clone().unwrap_or(desired.0),
            sel.locked.1.clone().unwrap_or(desired.1),
            sel.locked.2.clone().unwrap_or(desired.2),
        );
        let plan = build_gaxpy_plan(sel, strategy, layouts, model);
        let est = CostEstimate::from_nest(&gaxpy_nest(&plan), model, 4);
        plans.push(plan);
        est
    });
    let pick = (decision.estimates.iter())
        .position(|(s, _)| *s == decision.chosen)
        .expect("the winner is a candidate");
    GaxpyChoice {
        plan: plans.swap_remove(pick),
        decision,
    }
}

/// One compile-time choice: what is decided, every candidate with the
/// estimate of its node program, the winner, and whether an option forced
/// it. The GAXPY strategy and every access method of a remap, transpose or
/// gather are recorded as one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Decision<T> {
    /// What is decided, e.g. `gaxpy c`, `remap b` or `transpose d`.
    pub access: String,
    /// The winner.
    pub chosen: T,
    /// Every candidate's estimate, in candidate order.
    pub estimates: Vec<(T, CostEstimate)>,
    /// True when [`crate::CompilerOptions::force_strategy`] or
    /// [`crate::CompilerOptions::io_method`] forced the choice.
    pub forced: bool,
}

impl<T: Copy + PartialEq> Decision<T> {
    /// Price every candidate with `price` and [`decide`] among them,
    /// `force` winning when it is one of them.
    pub fn new(
        access: impl Into<String>,
        candidates: impl IntoIterator<Item = T>,
        force: Option<T>,
        mut price: impl FnMut(T) -> CostEstimate,
    ) -> Self {
        let estimates: Vec<(T, CostEstimate)> =
            candidates.into_iter().map(|c| (c, price(c))).collect();
        let priced = estimates.iter().map(|(c, e)| (*c, e.time()));
        let (chosen, forced) = decide(priced, force).expect("at least one candidate");
        Decision {
            access: access.into(),
            chosen,
            estimates,
            forced,
        }
    }
}

/// The compiler's one decision rule: the first of the cheapest
/// `candidates`, their prices ordered by [`f64::total_cmp`], unless `force`
/// is one of them, which then wins whatever it costs. Returns the winner
/// and whether it was forced, or `None` for no candidate. The GAXPY
/// strategy, the elementwise slab dimension, every access method (at
/// compile time and SpMV's at run time) and Search's memory split are all
/// chosen by it.
pub fn decide<T: PartialEq>(
    candidates: impl IntoIterator<Item = (T, f64)>,
    force: Option<T>,
) -> Option<(T, bool)> {
    let mut best: Option<(T, f64)> = None;
    for (candidate, price) in candidates {
        if force.as_ref() == Some(&candidate) {
            return Some((candidate, true));
        }
        if best
            .as_ref()
            .is_none_or(|(_, b)| price.total_cmp(b).is_lt())
        {
            best = Some((candidate, price));
        }
    }
    best.map(|(c, _)| (c, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooc_array::{Distribution, Shape};

    fn arrays(n: usize, p: usize) -> (HirArray, HirArray, HirArray) {
        let col = Distribution::column_block(Shape::matrix(n, n), p);
        let row = Distribution::row_block(Shape::matrix(n, n), p);
        (
            HirArray {
                name: "a".into(),
                shape: Shape::matrix(n, n),
                dist: col.clone(),
            },
            HirArray {
                name: "b".into(),
                shape: Shape::matrix(n, n),
                dist: row,
            },
            HirArray {
                name: "c".into(),
                shape: Shape::matrix(n, n),
                dist: col,
            },
        )
    }

    fn selection<'a>(
        arrs: &'a (HirArray, HirArray, HirArray),
        n: usize,
        p: usize,
    ) -> GaxpySelection<'a> {
        GaxpySelection {
            ids: (ArrayId(0), ArrayId(1), ArrayId(2)),
            arrays: (&arrs.0, &arrs.1, &arrs.2),
            n,
            p,
            sizing: SlabSizing::Ratio(0.25),
            reorganize: true,
            locked: (None, None, None),
            force: None,
            method: pario::IoMethod::Direct,
            prefetch: false,
        }
    }

    #[test]
    fn selector_picks_row_slabs_on_delta() {
        let arrs = arrays(256, 4);
        let sel = selection(&arrs, 256, 4);
        let choice = choose_gaxpy(&sel, &CostModel::delta(4));
        assert_eq!(choice.plan.strategy, SlabStrategy::RowSlab);
        // And the estimate gap is roughly an order of magnitude in data.
        let col = &choice.decision.estimates[0].1;
        let row = &choice.decision.estimates[1].1;
        assert!(col.io_bytes() > 10 * row.io_bytes());
    }

    #[test]
    fn forced_strategy_is_respected() {
        let arrs = arrays(64, 4);
        let mut sel = selection(&arrs, 64, 4);
        sel.force = Some(SlabStrategy::ColumnSlab);
        let choice = choose_gaxpy(&sel, &CostModel::delta(4));
        assert_eq!(choice.plan.strategy, SlabStrategy::ColumnSlab);
        assert!(choice.decision.forced);
        // Both estimates still reported for the comparison table.
        assert_eq!(choice.decision.estimates.len(), 2);
    }

    #[test]
    fn row_plan_reorganizes_a_and_c() {
        let arrs = arrays(64, 4);
        let sel = selection(&arrs, 64, 4);
        let choice = choose_gaxpy(&sel, &CostModel::delta(4));
        assert_eq!(choice.plan.a.layout, FileLayout::row_major(2));
        assert_eq!(choice.plan.c.layout, FileLayout::row_major(2));
        assert_eq!(choice.plan.b.layout, FileLayout::column_major(2));
    }

    #[test]
    fn no_reorg_ablation_shrinks_the_gap() {
        let arrs = arrays(256, 4);
        let mut sel = selection(&arrs, 256, 4);
        let with = choose_gaxpy(&sel, &CostModel::delta(4));
        sel.reorganize = false;
        let without = choose_gaxpy(&sel, &CostModel::delta(4));
        // Without reorganization the row version's A reads are strided, so
        // whatever is selected costs more than the reorganized row version.
        let best_with = (with.decision.estimates)
            .iter()
            .map(|(_, e)| e.time())
            .fold(f64::INFINITY, f64::min);
        let best_without = (without.decision.estimates)
            .iter()
            .map(|(_, e)| e.time())
            .fold(f64::INFINITY, f64::min);
        assert!(best_without > best_with);
    }

    #[test]
    fn locked_layout_is_honored() {
        let arrs = arrays(64, 4);
        let mut sel = selection(&arrs, 64, 4);
        sel.locked.0 = Some(FileLayout::column_major(2));
        let choice = choose_gaxpy(&sel, &CostModel::delta(4));
        assert_eq!(choice.plan.a.layout, FileLayout::column_major(2));
    }

    #[test]
    fn a_dearer_forced_candidate_wins_and_is_marked_forced() {
        let priced = [('a', 1.0), ('b', 3.0), ('c', 2.0)];
        assert_eq!(decide(priced, Some('b')), Some(('b', true)));
        // Forcing the cheapest still marks it forced; forcing a stranger
        // falls back to the cheapest, unforced.
        assert_eq!(decide(priced, Some('a')), Some(('a', true)));
        assert_eq!(decide(priced, Some('z')), Some(('a', false)));
        assert_eq!(decide(priced, None), Some(('a', false)));
        assert_eq!(decide::<char>([], None), None);
    }

    #[test]
    fn equal_prices_go_to_the_first_candidate() {
        assert_eq!(
            decide([(2, 5.0), (1, 5.0), (0, 5.0)], None),
            Some((2, false))
        );
        assert_eq!(
            decide([(0, 7.0), (1, 5.0), (2, 5.0)], None),
            Some((1, false))
        );
        // `total_cmp` orders -0.0 below 0.0, and NaN above every price.
        assert_eq!(
            decide([(0, f64::NAN), (1, 0.0), (2, -0.0)], None),
            Some((2, false))
        );
    }
}
