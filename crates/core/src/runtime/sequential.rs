//! The sequential reference runtime.
//!
//! Runs the block iteration exactly as equation (2) of the paper describes it
//! for a single processor: every iteration updates every block from the
//! values of the *previous* iteration (Jacobi-style sweep), so the iterates
//! are identical to those of the synchronous parallel algorithm. The result
//! is used throughout the test-suite as the ground truth the parallel and
//! asynchronous back-ends must agree with.

use crate::block::BlockState;
use crate::cancel::CancelToken;
use crate::config::{ExecutionMode, RunConfig};
use crate::depgraph::DependencyGraph;
use crate::kernel::{IterativeKernel, Payload};
use crate::report::RunReport;
use std::time::Instant;

/// Single-threaded reference executor.
#[derive(Debug, Clone, Default)]
pub struct SequentialRuntime {
    _private: (),
}

impl SequentialRuntime {
    /// Creates the runtime.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs the kernel to convergence (or to the iteration limit).
    ///
    /// The `mode` field of the configuration is ignored — a sequential sweep
    /// is by construction synchronous — but the threshold and iteration limit
    /// are honoured.
    pub fn run(&self, kernel: &dyn IterativeKernel, config: &RunConfig) -> RunReport {
        self.run_with_cancel(kernel, config, None)
    }

    /// Runs the kernel like [`SequentialRuntime::run`], additionally polling
    /// `cancel` between sweeps.
    ///
    /// A raised token stops the loop at the next sweep boundary; the report
    /// then carries `converged = false` and `premature_stop = true`, with the
    /// partial iterate as its solution. Passing `None` is identical to
    /// [`SequentialRuntime::run`].
    pub fn run_with_cancel(
        &self,
        kernel: &dyn IterativeKernel,
        config: &RunConfig,
        cancel: Option<&CancelToken>,
    ) -> RunReport {
        config.validate();
        let started = Instant::now();
        let m = kernel.num_blocks();
        let mut blocks = BlockState::for_run(kernel, &DependencyGraph::from_kernel(kernel));

        let mut iterations = 0u64;
        let mut converged = false;
        let mut cancelled = false;
        let mut worst_residual = f64::INFINITY;

        while iterations < config.max_iterations as u64 {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                cancelled = true;
                break;
            }
            // Jacobi sweep: every block reads the previous iteration's values,
            // so updates within one sweep do not see each other. The snapshot
            // is a refcount bump per block, not a copy.
            let snapshot: Vec<Payload> = blocks.iter().map(|b| b.values.clone()).collect();
            for state in blocks.iter_mut() {
                // copy: refcount bump — the slot shares the producer's front buffer
                state.view.refresh_from(|b| snapshot[b].clone());
            }
            worst_residual = 0.0f64;
            for state in blocks.iter_mut() {
                let r = state.iterate(kernel);
                worst_residual = worst_residual.max(r);
            }
            iterations += 1;
            if worst_residual < config.epsilon {
                converged = true;
                break;
            }
        }

        let values: Vec<Vec<f64>> = blocks.iter().map(|b| b.values.to_vec()).collect();
        RunReport {
            mode: ExecutionMode::Synchronous,
            backend: "sequential".to_string(),
            elapsed_secs: started.elapsed().as_secs_f64(),
            iterations: vec![iterations; m],
            data_messages: 0,
            control_messages: 0,
            data_bytes: 0,
            coalesced_messages: 0,
            peak_mailbox_occupancy: 0,
            payload_clones: blocks.iter().map(|b| b.payload_clones).sum(),
            bytes_copied: blocks.iter().map(|b| b.bytes_copied).sum(),
            queue_wait_events: 0,
            cpu_queue_secs: 0.0,
            converged,
            premature_stop: cancelled,
            solution: kernel.assemble(&values),
            final_residual: worst_residual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::test_kernels::{Diverging, RingContraction};

    #[test]
    fn converges_to_the_known_fixed_point() {
        let kernel = RingContraction::new(6);
        let report = SequentialRuntime::new().run(&kernel, &RunConfig::synchronous(1e-12));
        assert!(report.converged);
        let fp = kernel.fixed_point();
        for v in &report.solution {
            assert!((v - fp).abs() < 1e-9, "value {v} vs fixed point {fp}");
        }
        assert_eq!(report.solution.len(), 6);
        assert!(report.final_residual < 1e-12);
    }

    #[test]
    fn iteration_limit_stops_diverging_problems() {
        let kernel = Diverging { blocks: 2 };
        let config = RunConfig::synchronous(1e-10).with_max_iterations(25);
        let report = SequentialRuntime::new().run(&kernel, &config);
        assert!(!report.converged);
        assert_eq!(report.iterations, vec![25, 25]);
    }

    #[test]
    fn report_counts_no_messages_for_sequential_runs() {
        let kernel = RingContraction::new(3);
        let report = SequentialRuntime::new().run(&kernel, &RunConfig::synchronous(1e-8));
        assert_eq!(report.data_messages, 0);
        assert_eq!(report.total_messages(), 0);
        assert_eq!(report.backend, "sequential");
    }

    #[test]
    fn single_block_problem_is_solved() {
        let kernel = RingContraction::new(1);
        let report = SequentialRuntime::new().run(&kernel, &RunConfig::synchronous(1e-12));
        assert!(report.converged);
        assert!((report.solution[0] - kernel.fixed_point()).abs() < 1e-9);
    }

    #[test]
    fn pre_raised_cancel_token_stops_before_the_first_sweep() {
        let kernel = RingContraction::new(4);
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let report = SequentialRuntime::new().run_with_cancel(
            &kernel,
            &RunConfig::synchronous(1e-12),
            Some(&token),
        );
        assert!(!report.converged);
        assert!(report.premature_stop);
        assert_eq!(report.iterations, vec![0, 0, 0, 0]);
    }

    #[test]
    fn absent_token_matches_plain_run() {
        let kernel = RingContraction::new(5);
        let config = RunConfig::synchronous(1e-10);
        let plain = SequentialRuntime::new().run(&kernel, &config);
        let with_none = SequentialRuntime::new().run_with_cancel(&kernel, &config, None);
        assert_eq!(plain.iterations, with_none.iterations);
        assert_eq!(plain.solution, with_none.solution);
        assert!(!with_none.premature_stop);
    }

    #[test]
    fn looser_tolerance_needs_fewer_iterations() {
        let kernel = RingContraction::new(4);
        let loose = SequentialRuntime::new().run(&kernel, &RunConfig::synchronous(1e-3));
        let tight = SequentialRuntime::new().run(&kernel, &RunConfig::synchronous(1e-12));
        assert!(loose.iterations[0] < tight.iterations[0]);
    }
}
