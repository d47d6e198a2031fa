//! Allocation budget of a compile.
//!
//! The compiler prices candidates by building and tallying node programs,
//! so its host cost is mostly heap traffic: a `Vec` per index translation,
//! a `Section` per remap piece or a `String` per token multiplies into
//! hundreds of allocations per compile. A counting global allocator pins
//! the count of one program per statement class, so a reintroduced
//! per-piece or per-token allocation fails tier-1 instead of only showing
//! up as host time in the ledger's `compile-sweep`.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ooc_core::CompilerOptions;

thread_local! {
    // Per thread, so the test harness's parallel tests do not count each
    // other's allocations.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a counter bump
// on a const-initialised thread local, which itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations one `compile_source` of `source` makes on this thread,
/// dropping the result included.
fn compile_allocs(source: &str, options: &CompilerOptions) -> usize {
    let before = ALLOCS.with(Cell::get);
    let compiled = ooc_core::compile_source(source, options).expect("compiles");
    drop(compiled);
    ALLOCS.with(Cell::get) - before
}

/// Per program of [`common::programs`] and option set of
/// [`common::option_sets`]: the most allocations one compile may make. Each
/// bound sits a little above the count of the compiler that introduced it
/// (second comment column) and far below the count before the compiler
/// tallied each remap once, lexed without copies and kept shapes, sections
/// and distributions off the heap (first column), which it would fail.
const BUDGETS: [(&str, &str, usize); 6] = [
    ("gaxpy", "default", 250),              // 611 → 232
    ("gaxpy", "budget search +cache", 285), // 666 → 264
    ("jacobi aligned x3", "default", 350),  // 1060 → 324
    ("misaligned x3 p16", "default", 450),  // 2096 → 418
    ("transpose 1024 p16", "default", 130), // 415 → 120
    ("spmv", "default", 250),               // 573 → 232
];

#[test]
fn compiles_stay_within_their_allocation_budgets() {
    let (programs, option_sets) = (common::programs(), common::option_sets());
    let mut over = Vec::new();
    for (program, set, budget) in BUDGETS {
        let (_, source) = (programs.iter())
            .find(|(name, _)| *name == program)
            .expect("a shared program");
        let (_, options) = (option_sets.iter())
            .find(|(label, _)| *label == set)
            .expect("a shared option set");
        let allocs = compile_allocs(source, options);
        if allocs > budget {
            over.push(format!(
                "{program} / {set}: {allocs} allocations > {budget}"
            ));
        }
    }
    assert!(over.is_empty(), "over budget:\n{}", over.join("\n"));
}

#[test]
fn a_rejected_program_allocates_little_more_than_its_diagnostic() {
    // The front end stops at the first error and lexing borrows the
    // source, so a program broken on its second line costs a handful of
    // allocations, not one per line (115 → 5).
    let broken = hpf::GAXPY_SOURCE.replacen("parameter (n=", "parameter (n=,", 1);
    let before = ALLOCS.with(Cell::get);
    let err = ooc_core::compile_source(&broken, &CompilerOptions::default()).unwrap_err();
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(err.to_string().contains("line 2"), "{err}");
    assert!(allocs <= 20, "{allocs} allocations");
}
