//! Execution back-ends.
//!
//! Three back-ends run the same [`crate::kernel::IterativeKernel`]:
//!
//! * [`sequential`] — a single-threaded fixed-point loop used as the
//!   correctness reference;
//! * [`threaded`] — a fixed-size worker pool multiplexing all blocks, each
//!   block publishing its newest front into one cell that its dependants
//!   read; the synchronous mode runs barrier-separated supersteps
//!   (SISC), the asynchronous mode lets every block run at its own pace
//!   (AIAC), scheduled through one shared FIFO queue. This back-end is what
//!   a downstream user runs on a multicore machine.
//! * [`simulated`] — a virtual-time execution over an `aiac-netsim` grid and
//!   an `aiac-envs` environment model; this is the back-end the benchmark
//!   harness uses to reproduce the paper's grid experiments, since 40
//!   heterogeneous machines behind 10 Mb Ethernet and ADSL links cannot be
//!   conjured on a development box.
//!
//! [`deque`] is not part of any back-end: it is the bounded work-stealing
//! deque `aiac-service` hands job tokens to its workers through, kept here
//! beside the [`sync`] facade its model-check harness instruments. Nor is
//! [`mailbox`]: the per-edge coalescing slots the asynchronous pool used to
//! ship iterates through. Only the benchmark package's `Mailboxes`
//! micro-benchmark still uses them.

pub mod deque;
pub mod mailbox;
pub mod sequential;
pub mod simulated;
pub mod sync;
pub mod threaded;

pub use deque::{PushError, Steal, StealDeque};
pub use mailbox::{CoalescingMailboxes, MailboxStats};
pub use sequential::SequentialRuntime;
pub use simulated::{SimulatedRuntime, SimulationOutcome};
pub use threaded::ThreadedRuntime;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;
    use crate::kernel::test_kernels::SkewRing;
    use aiac_envs::env::EnvKind;
    use aiac_envs::threads::ProblemKind;
    use aiac_netsim::topology::GridTopology;

    #[test]
    fn a_synchronous_run_that_overflows_into_nan_is_not_converged() {
        // The iterates overflow after about 3 700 sweeps. A residual fold
        // that drops the NaN read the run as converged, with residual 0.
        let kernel = SkewRing { blocks: 6, a: 0.7 };
        let config = RunConfig::synchronous(1e-8)
            .with_max_iterations(5_000)
            .with_num_workers(2);
        let grid = GridTopology::ethernet_3_sites(6);
        let simulated = SimulatedRuntime::new(grid, EnvKind::MpiSync, ProblemKind::SparseLinear);
        for report in [
            SequentialRuntime::new().run(&kernel, &config),
            ThreadedRuntime::new().run(&kernel, &config),
            simulated.run(&kernel, &config).report,
        ] {
            let backend = &report.backend;
            assert!(!report.converged, "{backend}: {}", report.final_residual);
            assert!(report.final_residual.is_nan(), "{backend}");
            assert_eq!(report.iterations, vec![5_000; 6], "{backend}");
        }
    }
}
