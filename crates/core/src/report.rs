//! Run reports.
//!
//! Every runtime returns a [`RunReport`]: the timing measure appropriate to
//! the back-end (wall-clock seconds for the threaded runtime, virtual seconds
//! for the simulated one), per-block iteration counts, message statistics,
//! the assembled solution and whether the run converged. The benchmark
//! harness turns collections of reports into the rows of Tables 2 and 3 and
//! the series of Figure 3, so the report also knows how to compute the
//! paper's "speed ratio" (synchronous time divided by asynchronous time).

use aiac_obs::{MetricDirection, MetricsRegistry};
use serde::{Deserialize, Serialize};

use crate::config::{ConfigError, ExecutionMode};

/// Why a run could not produce a [`RunReport`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunError {
    /// The run configuration failed validation before any work started.
    InvalidConfig(ConfigError),
    /// The executor's workers exited without delivering results for these
    /// blocks (sorted ascending) — a worker died or was torn down early.
    MissingResults {
        /// The block indices with no result.
        missing: Vec<usize>,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::InvalidConfig(err) => write!(f, "invalid run configuration: {err}"),
            RunError::MissingResults { missing } => write!(
                f,
                "workers exited without delivering results for {} of the blocks: {missing:?}",
                missing.len()
            ),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::InvalidConfig(err) => Some(err),
            RunError::MissingResults { .. } => None,
        }
    }
}

impl From<ConfigError> for RunError {
    fn from(err: ConfigError) -> Self {
        RunError::InvalidConfig(err)
    }
}

/// The outcome of one solver run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Execution mode of the run.
    pub mode: ExecutionMode,
    /// Label of the environment / back-end that produced the run
    /// (e.g. `"async PM2"`, `"threaded"`, `"sequential"`).
    pub backend: String,
    /// Execution time in seconds. Wall-clock for real back-ends, virtual time
    /// for the simulated one.
    pub elapsed_secs: f64,
    /// Number of local iterations performed by each block.
    pub iterations: Vec<u64>,
    /// Number of data messages sent.
    pub data_messages: u64,
    /// Number of control (state / stop) messages sent.
    pub control_messages: u64,
    /// Total application payload bytes carried by data messages.
    pub data_bytes: u64,
    /// Number of data payloads superseded in a per-edge mailbox before the
    /// destination consumed them. No back-end buffers data per edge: the
    /// threaded executor publishes one front per block in both modes, so
    /// this is a structural zero on every threaded run, as on the others.
    pub coalesced_messages: u64,
    /// Peak number of data payloads buffered in per-edge mailboxes at once.
    /// A structural zero on every threaded run (one published front per
    /// block, no per-edge queue) and on the other back-ends.
    pub peak_mailbox_occupancy: u64,
    /// Times an iteration fell back to the copying `update_block` path
    /// instead of the in-place `update_block_into`. A kernel with a native
    /// in-place update runs the whole data plane zero-copy, so this is
    /// structurally 0 regardless of scheduling — which makes it a
    /// *deterministic* gateable metric even on the threaded back-end.
    pub payload_clones: u64,
    /// Payload bytes copied by those fallback iterations (8 bytes per `f64`).
    pub bytes_copied: u64,
    /// Times a worker of the threaded executor's asynchronous pool found
    /// the run queue empty and parked on the pool's condition variable. The
    /// synchronous mode runs a static partition that never touches the
    /// queue and reports a *structural* 0, as do the other back-ends.
    pub queue_wait_events: u64,
    /// Total virtual seconds that compute phases and message receptions
    /// spent waiting for a free CPU core on their host. Non-zero only for
    /// the simulated back-end when blocks outnumber cores (oversubscribed
    /// placements); the real back-ends report 0.
    pub cpu_queue_secs: f64,
    /// Whether the run stopped because global convergence was detected *and*
    /// the final assembled state actually satisfied the threshold
    /// (`false` = iteration limit hit, or a premature stop — see
    /// [`RunReport::premature_stop`]).
    pub converged: bool,
    /// True when the centralized detector broadcast the stop order while a
    /// de-convergence report was still in flight: the run halted with a
    /// final residual at or above ε. Such a run is *not* reported as
    /// converged.
    pub premature_stop: bool,
    /// The assembled solution vector (concatenation of the blocks).
    pub solution: Vec<f64>,
    /// Residual of the worst block when the run stopped.
    pub final_residual: f64,
}

impl RunReport {
    /// Mean number of iterations per block.
    pub fn mean_iterations(&self) -> f64 {
        if self.iterations.is_empty() {
            return 0.0;
        }
        self.iterations.iter().sum::<u64>() as f64 / self.iterations.len() as f64
    }

    /// Largest number of iterations performed by any block.
    pub fn max_iterations(&self) -> u64 {
        self.iterations.iter().copied().max().unwrap_or(0)
    }

    /// Smallest number of iterations performed by any block.
    pub fn min_iterations(&self) -> u64 {
        self.iterations.iter().copied().min().unwrap_or(0)
    }

    /// Imbalance ratio between the most and least active blocks
    /// (1.0 = perfectly balanced; asynchronous runs on heterogeneous grids
    /// are expected to be well above 1).
    pub fn iteration_imbalance(&self) -> f64 {
        let min = self.min_iterations();
        if min == 0 {
            return f64::INFINITY;
        }
        self.max_iterations() as f64 / min as f64
    }

    /// The paper's "speed ratio": the reference (synchronous) time divided by
    /// this run's time.
    pub fn speed_ratio_vs(&self, reference: &RunReport) -> f64 {
        assert!(self.elapsed_secs > 0.0, "elapsed time must be positive");
        reference.elapsed_secs / self.elapsed_secs
    }

    /// Total number of messages (data + control).
    pub fn total_messages(&self) -> u64 {
        self.data_messages + self.control_messages
    }

    /// The report's counters as a [`MetricsRegistry`] — the one list the
    /// bench harness renders metric samples from, so a new counter becomes
    /// a bench metric by being registered here.
    ///
    /// `scheduler_deterministic` marks the scheduler counter
    /// (`queue_wait_events`, plus two retired steal counters that always
    /// read 0) gateable. On the synchronous static partition it is a
    /// structural zero on any machine, so the harness passes `true` there;
    /// an asynchronous count depends on the thread interleaving and stays
    /// informational. The traffic counters are always
    /// interleaving-dependent on the threaded back-end; the two zero-copy
    /// counters are structural (a kernel either overrides the in-place
    /// update or it does not) and therefore always gateable.
    pub fn metrics_registry(&self, scheduler_deterministic: bool) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new();
        for (name, value) in [
            ("total_iterations", self.iterations.iter().sum::<u64>()),
            ("data_messages", self.data_messages),
            ("coalesced_messages", self.coalesced_messages),
            ("peak_mailbox_occupancy", self.peak_mailbox_occupancy),
        ] {
            registry.counter(name, value, false, MetricDirection::Informational);
        }
        registry.counter(
            "payload_clones",
            self.payload_clones,
            true,
            MetricDirection::LowerIsBetter,
        );
        registry.counter(
            "bytes_copied",
            self.bytes_copied,
            true,
            MetricDirection::LowerIsBetter,
        );
        // `steals` and `failed_steal_attempts` outlive the stealing pool as
        // constant zeros: the frozen `benchmark/` package derives
        // `core.steals` and `core.steal_miss_frac` from them and its
        // catalogue test fails when a catalogue name is never printed. They
        // go with the next revision of that package.
        for (name, value) in [
            ("steals", 0),
            ("failed_steal_attempts", 0),
            ("queue_wait_events", self.queue_wait_events),
        ] {
            let direction = if scheduler_deterministic {
                MetricDirection::LowerIsBetter
            } else {
                MetricDirection::Informational
            };
            registry.counter(name, value, scheduler_deterministic, direction);
        }
        registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(mode: ExecutionMode, secs: f64, iters: Vec<u64>) -> RunReport {
        RunReport {
            mode,
            backend: "test".to_string(),
            elapsed_secs: secs,
            iterations: iters,
            data_messages: 10,
            control_messages: 4,
            data_bytes: 1_000,
            coalesced_messages: 0,
            peak_mailbox_occupancy: 0,
            payload_clones: 0,
            bytes_copied: 0,
            queue_wait_events: 0,
            cpu_queue_secs: 0.0,
            converged: true,
            premature_stop: false,
            solution: vec![0.0],
            final_residual: 1e-9,
        }
    }

    #[test]
    fn iteration_statistics() {
        let r = report(ExecutionMode::Asynchronous, 2.0, vec![10, 20, 30]);
        assert_eq!(r.mean_iterations(), 20.0);
        assert_eq!(r.max_iterations(), 30);
        assert_eq!(r.min_iterations(), 10);
        assert_eq!(r.iteration_imbalance(), 3.0);
        assert_eq!(r.total_messages(), 14);
    }

    #[test]
    fn empty_iteration_vector_is_handled() {
        let r = report(ExecutionMode::Synchronous, 1.0, vec![]);
        assert_eq!(r.mean_iterations(), 0.0);
        assert_eq!(r.max_iterations(), 0);
    }

    #[test]
    fn zero_iteration_block_gives_infinite_imbalance() {
        let r = report(ExecutionMode::Asynchronous, 1.0, vec![0, 5]);
        assert!(r.iteration_imbalance().is_infinite());
    }

    #[test]
    fn run_error_display_names_the_missing_blocks() {
        let err = RunError::MissingResults {
            missing: vec![2, 5],
        };
        let text = err.to_string();
        assert!(text.contains("2 of the blocks"), "{text}");
        assert!(text.contains("[2, 5]"), "{text}");

        let config = RunError::from(ConfigError::ZeroWorkers);
        assert!(config.to_string().contains("num_workers"));
        assert!(std::error::Error::source(&config).is_some());
    }

    #[test]
    fn the_metrics_registry_flags_the_scheduler_counter_by_mode() {
        let mut r = report(ExecutionMode::Asynchronous, 1.0, vec![3, 4]);
        r.queue_wait_events = 7;
        let by_interleaving = r.metrics_registry(false);
        assert_eq!(by_interleaving.get("total_iterations").unwrap().value, 7.0);
        assert!(
            !by_interleaving
                .get("queue_wait_events")
                .unwrap()
                .deterministic
        );
        assert!(by_interleaving.get("payload_clones").unwrap().deterministic);

        let structural = r.metrics_registry(true);
        assert!(structural.get("queue_wait_events").unwrap().deterministic);
        assert_eq!(structural.get("queue_wait_events").unwrap().value, 7.0);
        // Names are committed in bench baselines: the full list, in order.
        let names: Vec<&str> = structural.snapshot().iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            [
                "total_iterations",
                "data_messages",
                "coalesced_messages",
                "peak_mailbox_occupancy",
                "payload_clones",
                "bytes_copied",
                "steals",
                "failed_steal_attempts",
                "queue_wait_events",
            ]
        );
    }

    #[test]
    fn speed_ratio_matches_paper_definition() {
        let sync = report(ExecutionMode::Synchronous, 914.0, vec![100]);
        let async_run = report(ExecutionMode::Asynchronous, 507.0, vec![120]);
        let ratio = async_run.speed_ratio_vs(&sync);
        assert!((ratio - 914.0 / 507.0).abs() < 1e-12);
        // the synchronous run compared to itself has ratio 1
        assert!((sync.speed_ratio_vs(&sync) - 1.0).abs() < 1e-12);
    }
}
