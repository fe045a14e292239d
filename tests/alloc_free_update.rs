//! A solver kernel's block update never touches the heap once its thread is
//! warm: `SparseLinearProblem::update_block_into` gathers into per-thread
//! scratch and solves into the caller's buffer, and
//! `ChemicalStepKernel::update_block_into` writes its Newton system and runs
//! GMRES in per-thread scratch, so after the first call on a thread every
//! further call must allocate nothing.
//!
//! And a run's start-up allocates in proportion to the dependency edges, not
//! to blocks²: a one-sweep run of a ring four times larger allocates about
//! four times the bytes, and asks the kernel for each block's initial values
//! once.
//!
//! This file replaces the process's global allocator with a counting one.
//! The allocation count is kept per thread, so whatever the test harness
//! allocates on its own threads is not attributed to the kernel; the byte
//! count is process-wide (the threaded runtime allocates on its workers), so
//! the tests take turns on a lock.

use aiac::core::kernel::{BlockUpdate, DependencyView, InPlaceUpdate};
use aiac::prelude::*;
use aiac::service::job::ServiceRing;
use aiac::solvers::chemical::{ChemicalParams, ChemicalProblem};
use aiac::solvers::sparse_linear::SparseLinearParams;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Bytes requested by every thread of the process.
static BYTES: AtomicUsize = AtomicUsize::new(0);

/// Held by each test while it runs, so `BYTES` only sees one of them.
static ONE_TEST_AT_A_TIME: Mutex<()> = Mutex::new(());

struct CountingAllocator;

fn count(bytes: usize) {
    BYTES.fetch_add(bytes, Ordering::Relaxed);
    // `try_with`: a thread that is tearing down may still free and allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are a static atomic and a
// const-initialised thread-local `Cell` without a destructor, so touching
// them never allocates or re-enters.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System`; the rest is the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations this thread makes in three sweeps of updates of every
/// block of `kernel`, after one update of block `first` has warmed it.
fn warm_update_allocations(kernel: &dyn IterativeKernel, first: usize) -> usize {
    let blocks = kernel.num_blocks();
    let view = DependencyView::from_initial(kernel);
    let mut locals: Vec<Vec<f64>> = (0..blocks).map(|b| kernel.initial_block(b)).collect();
    let mut outs: Vec<Vec<f64>> = locals.clone();

    kernel.update_block_into(first, &locals[first], &view, &mut outs[first]);

    let before = ALLOCATIONS.with(Cell::get);
    for _sweep in 0..3 {
        for b in 0..blocks {
            let update = kernel.update_block_into(b, &locals[b], &view, &mut outs[b]);
            assert!(update.residual.is_finite());
        }
        std::mem::swap(&mut locals, &mut outs);
    }
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn sparse_block_updates_allocate_nothing_after_the_first_call_on_a_thread() {
    let _turn = ONE_TEST_AT_A_TIME.lock().unwrap();
    let problem = SparseLinearProblem::new(SparseLinearParams::paper_scaled(1200, 12));
    // the first call sizes the scratch for the largest block
    let allocated = warm_update_allocations(&problem, 0);
    assert_eq!(
        allocated,
        0,
        "{allocated} heap allocations in {} warm block updates",
        3 * problem.num_blocks()
    );
}

#[test]
fn chemical_block_updates_allocate_nothing_after_the_first_call_on_a_thread() {
    let _turn = ONE_TEST_AT_A_TIME.lock().unwrap();
    // 31 z-rows in 4 strips of 8, 8, 8 and 7 rows: two strip heights
    let problem = ChemicalProblem::new(ChemicalParams::paper_scaled(30, 31, 4));
    let kernel = problem.step_kernel(problem.initial_state(), 0);
    // Warm up on the short last strip: the first call must size the Newton
    // scratch for the tallest strip, not for the block it is updating.
    let allocated = warm_update_allocations(&kernel, 3);
    assert_eq!(
        allocated,
        0,
        "{allocated} heap allocations in {} warm block updates",
        3 * kernel.num_blocks()
    );
}

/// A ring that counts how often the runtime asks for initial values.
struct CountsInitialBlocks {
    ring: ServiceRing,
    initial_block_calls: AtomicUsize,
}

impl IterativeKernel for CountsInitialBlocks {
    fn num_blocks(&self) -> usize {
        self.ring.num_blocks()
    }
    fn block_len(&self, block: usize) -> usize {
        self.ring.block_len(block)
    }
    fn initial_block(&self, block: usize) -> Vec<f64> {
        self.initial_block_calls.fetch_add(1, Ordering::Relaxed);
        self.ring.initial_block(block)
    }
    fn dependencies(&self, block: usize) -> Vec<usize> {
        self.ring.dependencies(block)
    }
    fn update_block(&self, block: usize, local: &[f64], others: &DependencyView) -> BlockUpdate {
        self.ring.update_block(block, local, others)
    }
    fn update_block_into(
        &self,
        block: usize,
        local: &[f64],
        others: &DependencyView,
        out: &mut [f64],
    ) -> InPlaceUpdate {
        self.ring.update_block_into(block, local, others, out)
    }
}

#[test]
fn run_start_up_allocates_in_proportion_to_the_block_count() {
    type Run<'a> = &'a dyn Fn(&dyn IterativeKernel);
    let _turn = ONE_TEST_AT_A_TIME.lock().unwrap();
    // One sweep: the run is all start-up. (bytes allocated, initial_block calls)
    let one_sweep = |blocks: usize, run: Run| {
        let kernel = CountsInitialBlocks {
            ring: ServiceRing::new(blocks),
            initial_block_calls: AtomicUsize::new(0),
        };
        let before = BYTES.load(Ordering::Relaxed);
        run(&kernel);
        let bytes = BYTES.load(Ordering::Relaxed) - before;
        (bytes, kernel.initial_block_calls.into_inner())
    };
    let sync = RunConfig::synchronous(1e-9)
        .with_max_iterations(1)
        .with_num_workers(2);
    let asynchronous = RunConfig::asynchronous(1e-9)
        .with_max_iterations(1)
        .with_num_workers(2);
    let runs: [(&str, Run); 3] = [
        ("sequential", &|k| {
            SequentialRuntime::new().run(k, &sync);
        }),
        ("threaded sync", &|k| {
            ThreadedRuntime::new().run(k, &sync);
        }),
        ("threaded async", &|k| {
            ThreadedRuntime::new().run(k, &asynchronous);
        }),
    ];
    for (name, run) in runs {
        let (small_bytes, small_calls) = one_sweep(512, run);
        let (large_bytes, large_calls) = one_sweep(2048, run);
        assert_eq!(small_calls, 512, "{name}: one initial payload per block");
        assert_eq!(large_calls, 2048, "{name}: one initial payload per block");
        assert!(
            large_bytes <= 5 * small_bytes,
            "{name}: 4x the blocks allocated {large_bytes} B against {small_bytes} B \
             ({:.1}x): per-block state is growing with the block count",
            large_bytes as f64 / small_bytes as f64
        );
    }
}

#[test]
fn a_synchronous_superstep_allocates_nothing() {
    let _turn = ONE_TEST_AT_A_TIME.lock().unwrap();
    let ring = ServiceRing::new(64);
    // Bytes allocated by a 2-worker SISC run of exactly `supersteps`
    // supersteps (ε is out of reach). The smallest of three runs, so that an
    // allocation the test harness makes on its own thread meanwhile does
    // not count.
    let run_bytes = |supersteps: usize| {
        let config = RunConfig::synchronous(f64::MIN_POSITIVE)
            .with_max_iterations(supersteps)
            .with_num_workers(2);
        (0..3)
            .map(|_| {
                let before = BYTES.load(Ordering::Relaxed);
                let report = ThreadedRuntime::new().run(&ring, &config);
                let bytes = BYTES.load(Ordering::Relaxed) - before;
                assert_eq!(report.iterations, vec![supersteps as u64; 64]);
                bytes
            })
            .min()
            .unwrap()
    };
    let (short, long) = (run_bytes(8), run_bytes(16));
    assert_eq!(
        long,
        short,
        "8 more supersteps allocated {} B: a superstep must hand the fronts \
         over by reference",
        long as i64 - short as i64
    );
}

/// A ring in which every block reads its two nearest neighbours on each
/// side, so every publish reaches 4 dependants. A block also reads its own
/// value, so an iteration on stale inputs still moves it and no block ever
/// counts as converged.
struct WideRing {
    blocks: usize,
}

impl IterativeKernel for WideRing {
    fn num_blocks(&self) -> usize {
        self.blocks
    }
    fn block_len(&self, _block: usize) -> usize {
        1
    }
    fn initial_block(&self, _block: usize) -> Vec<f64> {
        vec![0.0]
    }
    fn dependencies(&self, block: usize) -> Vec<usize> {
        let mut deps: Vec<usize> = [self.blocks - 2, self.blocks - 1, 1, 2]
            .iter()
            .map(|offset| (block + offset) % self.blocks)
            .collect();
        deps.sort_unstable();
        deps
    }
    fn update_block(&self, block: usize, local: &[f64], others: &DependencyView) -> BlockUpdate {
        let mut values = vec![0.0];
        let residual = self
            .update_block_into(block, local, others, &mut values)
            .residual;
        BlockUpdate { values, residual }
    }
    fn update_block_into(
        &self,
        block: usize,
        local: &[f64],
        others: &DependencyView,
        out: &mut [f64],
    ) -> InPlaceUpdate {
        let neighbours: f64 = [self.blocks - 2, self.blocks - 1, 1, 2]
            .iter()
            .map(|offset| others.expect((block + offset) % self.blocks)[0])
            .sum();
        out[0] = 0.5 * local[0] + 0.1 * neighbours + 1.0;
        InPlaceUpdate {
            residual: (out[0] - local[0]).abs(),
            copied: false,
        }
    }
}

#[test]
fn a_warm_asynchronous_iteration_allocates_no_per_edge_envelope() {
    let _turn = ONE_TEST_AT_A_TIME.lock().unwrap();
    let blocks = 64;
    let ring = WideRing { blocks };
    // Bytes allocated by a 2-worker AIAC run in which every block iterates
    // exactly `iterations` times (ε is out of reach); the smallest of three
    // runs, as for the superstep test.
    let run_bytes = |iterations: usize| {
        let config = RunConfig::asynchronous(f64::MIN_POSITIVE)
            .with_max_iterations(iterations)
            .with_num_workers(2);
        (0..3)
            .map(|_| {
                let before = BYTES.load(Ordering::Relaxed);
                let report = ThreadedRuntime::new().run(&ring, &config);
                let bytes = BYTES.load(Ordering::Relaxed) - before;
                assert_eq!(report.iterations, vec![iterations as u64; blocks]);
                bytes
            })
            .min()
            .unwrap()
    };
    let (short, long) = (run_bytes(8), run_bytes(16));
    // A block iteration allocates at most one back buffer (an `Arc<[f64]>`
    // of one value), when a dependant still reads the one it would reuse.
    // One boxed envelope per out-edge would add 4 × 24 B to each.
    let back_buffer = 2 * std::mem::size_of::<usize>() + std::mem::size_of::<f64>();
    let allowed = blocks * 8 * back_buffer;
    let extra = long.saturating_sub(short);
    assert!(
        extra <= allowed,
        "8 more iterations of {blocks} blocks allocated {extra} B, more than \
         one back buffer each ({allowed} B): a publish must not box an \
         envelope per out-edge"
    );
}
