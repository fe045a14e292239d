//! Facade-neutrality regression: the `runtime::sync` atomics must behave
//! *identically* to `std::sync::atomic` whenever no model-checking context
//! is installed — even in a binary compiled with `--cfg aiac_check`.
//!
//! The probe is the real executor on its default configuration, compiled
//! in the `aiac_check` configuration with the instrumented facade linked
//! in: the synchronous pool must stay bit-identical to the sequential sweep
//! (the barrier protocol's atomics still order every publish before every
//! take) and the asynchronous pool must still detect convergence at the
//! fixed point (the mailbox, queue and park/wake atomics still work). Both
//! hold only if the fall-through path (no thread-local explorer context →
//! raw `std` atomics) does not perturb the runtime.
#![cfg(aiac_check)]

use aiac_core::config::RunConfig;
use aiac_core::kernel::{BlockUpdate, DependencyView, IterativeKernel};
use aiac_core::runtime::{SequentialRuntime, ThreadedRuntime};

/// A ring of blocks, each contracting toward the mean of its two neighbours
/// plus a constant — a textbook contraction (factor 1/2 < 1), defined here
/// against the public kernel API only.
struct RingMean {
    blocks: usize,
}

impl RingMean {
    /// Fixed point of `x = x/2 + 1`.
    const FIXED_POINT: f64 = 2.0;
}

impl IterativeKernel for RingMean {
    fn num_blocks(&self) -> usize {
        self.blocks
    }
    fn block_len(&self, _b: usize) -> usize {
        1
    }
    fn initial_block(&self, _b: usize) -> Vec<f64> {
        vec![0.0]
    }
    fn dependencies(&self, b: usize) -> Vec<usize> {
        let n = self.blocks;
        vec![(b + n - 1) % n, (b + 1) % n]
    }
    fn update_block(&self, b: usize, local: &[f64], others: &DependencyView) -> BlockUpdate {
        let n = self.blocks;
        let left = others.get((b + n - 1) % n).map_or(0.0, |v| v[0]);
        let right = others.get((b + 1) % n).map_or(0.0, |v| v[0]);
        let next = (left + right) / 4.0 + 1.0;
        BlockUpdate {
            residual: (next - local[0]).abs(),
            values: vec![next],
        }
    }
}

#[test]
fn the_synchronous_pool_stays_bit_identical_to_sequential_under_the_facade() {
    let kernel = RingMean { blocks: 8 };
    let config = RunConfig::synchronous(1e-10);
    let sequential = SequentialRuntime::new().run(&kernel, &config);
    let pooled = ThreadedRuntime::new().run(&kernel, &config.with_num_workers(3));
    assert!(sequential.converged && pooled.converged);
    assert_eq!(pooled.iterations, sequential.iterations);
    assert_eq!(
        pooled.solution, sequential.solution,
        "facade fall-through must not reorder a publish past the barrier"
    );
}

#[test]
fn the_asynchronous_pool_converges_under_the_facade() {
    let kernel = RingMean { blocks: 8 };
    let config = RunConfig::asynchronous(1e-10)
        .with_streak(4)
        .with_num_workers(3);
    let report = ThreadedRuntime::new().run(&kernel, &config);
    assert!(
        report.converged,
        "facade fall-through must not break convergence"
    );
    for v in &report.solution {
        assert!(
            (v - RingMean::FIXED_POINT).abs() < 1e-6,
            "value {v} vs fixed point {}",
            RingMean::FIXED_POINT
        );
    }
}
