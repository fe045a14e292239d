//! The sparse kernel's block update never touches the heap once its thread
//! is warm: `SparseLinearProblem::update_block_into` gathers into per-thread
//! scratch and solves into the caller's buffer, so after the first call on a
//! thread every further call must allocate nothing.
//!
//! This file holds exactly one test because it replaces the process's global
//! allocator with a counting one; the count is kept per thread, so whatever
//! the test harness allocates on its own threads is not attributed to the
//! kernel.

use aiac::core::kernel::DependencyView;
use aiac::prelude::*;
use aiac::solvers::sparse_linear::SparseLinearParams;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one() {
    // `try_with`: a thread that is tearing down may still free and allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell` without a destructor, so touching it never allocates or re-enters.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System`; the rest is the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn sparse_block_updates_allocate_nothing_after_the_first_call_on_a_thread() {
    let problem = SparseLinearProblem::new(SparseLinearParams::paper_scaled(1200, 12));
    let blocks = problem.num_blocks();
    let view = DependencyView::from_initial(&problem);
    let mut locals: Vec<Vec<f64>> = (0..blocks).map(|b| problem.initial_block(b)).collect();
    let mut outs: Vec<Vec<f64>> = locals.clone();

    // first call on this thread: the scratch is sized for the largest block
    problem.update_block_into(0, &locals[0], &view, &mut outs[0]);

    let before = ALLOCATIONS.with(Cell::get);
    for _sweep in 0..3 {
        for b in 0..blocks {
            let update = problem.update_block_into(b, &locals[b], &view, &mut outs[b]);
            assert!(update.residual.is_finite());
        }
        std::mem::swap(&mut locals, &mut outs);
    }
    let allocated = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(
        allocated,
        0,
        "{allocated} heap allocations in {} warm block updates",
        3 * blocks
    );
}
