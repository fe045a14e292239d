//! Run configuration.
//!
//! [`RunConfig`] gathers the knobs the paper's implementations expose: the
//! execution mode (synchronous SISC versus asynchronous AIAC), the residual
//! threshold of the stopping criterion, the number of consecutive
//! under-threshold iterations required before a processor believes its local
//! convergence (Section 4.3: "we count a specified number of iterations under
//! local convergence before assuming it has actually been reached"), and the
//! iteration limit guarding against non-convergent runs. The threaded
//! back-end additionally honours [`RunConfig::num_workers`], the size of the
//! worker pool blocks are multiplexed over.
//!
//! Validation comes in two flavours: [`RunConfig::try_validate`] returns a
//! [`ConfigError`] (what CLI front-ends want so a malformed configuration is
//! reported, not aborted on), and [`RunConfig::validate`] panics with the
//! same message (what the runtimes use on their internal invariants).

use crate::placement::PlacementPolicy;
use aiac_obs::TraceConfig;
use serde::{Deserialize, Serialize};

/// Synchronous (SISC) or asynchronous (AIAC) execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// Synchronous Iterations – Synchronous Communications: every processor
    /// runs the same iteration number and a global exchange/barrier separates
    /// iterations (Figure 1).
    Synchronous,
    /// Asynchronous Iterations – Asynchronous Communications: processors
    /// iterate at their own pace on whatever data is available (Figure 2).
    Asynchronous,
}

impl ExecutionMode {
    /// Short label used in reports and tables.
    pub fn label(self) -> &'static str {
        match self {
            ExecutionMode::Synchronous => "sync",
            ExecutionMode::Asynchronous => "async",
        }
    }
}

impl std::fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a [`RunConfig`] failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConfigError {
    /// ε is not a positive finite number.
    NonPositiveEpsilon,
    /// The local-convergence streak is zero.
    ZeroStreak,
    /// The iteration limit is zero.
    ZeroMaxIterations,
    /// An explicit worker-pool size of zero was requested.
    ZeroWorkers,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ConfigError::NonPositiveEpsilon => "epsilon must be positive and finite",
            ConfigError::ZeroStreak => "convergence_streak must be > 0",
            ConfigError::ZeroMaxIterations => "max_iterations must be > 0",
            ConfigError::ZeroWorkers => {
                "num_workers must be > 0 (leave it unset for the automatic default)"
            }
        })
    }
}

impl std::error::Error for ConfigError {}

/// Configuration of one solver run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Execution mode.
    pub mode: ExecutionMode,
    /// Residual threshold ε of the stopping criterion
    /// `||x_k − x_{k−1}||_∞ < ε`.
    pub epsilon: f64,
    /// Number of consecutive iterations a block must stay under `epsilon`
    /// before it declares local convergence (asynchronous mode only; the
    /// synchronous mode checks the global residual directly).
    pub convergence_streak: usize,
    /// Hard limit on the number of local iterations of any block, "in order
    /// to avoid infinite execution when the process does not converge".
    pub max_iterations: usize,
    /// Size of the threaded back-end's worker pool. `None` (the default)
    /// resolves to [`std::thread::available_parallelism`]; the pool is never
    /// larger than the number of blocks. The other back-ends ignore it.
    pub num_workers: Option<usize>,
    /// How the simulated runtime assigns blocks to hosts when blocks
    /// outnumber machines (the oversubscribed regime of Figure 3). The
    /// real-thread back-ends ignore it.
    pub placement: PlacementPolicy,
    /// Event-tracing knobs forwarded to the observability plane. Off by
    /// default, in which case every instrumentation site in the runtimes
    /// reduces to one relaxed atomic load and a branch.
    pub tracing: TraceConfig,
}

impl RunConfig {
    /// An asynchronous configuration with the given threshold.
    pub fn asynchronous(epsilon: f64) -> Self {
        Self {
            mode: ExecutionMode::Asynchronous,
            epsilon,
            convergence_streak: 3,
            max_iterations: 100_000,
            num_workers: None,
            placement: PlacementPolicy::RoundRobin,
            tracing: TraceConfig::off(),
        }
    }

    /// A synchronous configuration with the given threshold.
    pub fn synchronous(epsilon: f64) -> Self {
        Self {
            mode: ExecutionMode::Synchronous,
            epsilon,
            convergence_streak: 1,
            max_iterations: 100_000,
            num_workers: None,
            placement: PlacementPolicy::RoundRobin,
            tracing: TraceConfig::off(),
        }
    }

    /// Sets the iteration limit (builder style).
    pub fn with_max_iterations(mut self, max: usize) -> Self {
        self.max_iterations = max;
        self
    }

    /// Sets the convergence streak (builder style).
    pub fn with_streak(mut self, streak: usize) -> Self {
        self.convergence_streak = streak;
        self
    }

    /// Sets an explicit worker-pool size for the threaded back-end
    /// (builder style).
    pub fn with_num_workers(mut self, workers: usize) -> Self {
        self.num_workers = Some(workers);
        self
    }

    /// Sets the block-to-host placement policy used by the simulated
    /// back-end (builder style).
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// Sets the tracing knobs (builder style). `TraceConfig::on()` makes the
    /// back-ends record per-worker (threaded) or per-host (simulated) event
    /// timelines exportable as Chrome trace JSON.
    pub fn with_tracing(mut self, tracing: TraceConfig) -> Self {
        self.tracing = tracing;
        self
    }

    /// The worker-pool size the threaded back-end actually uses for a problem
    /// of `num_blocks` blocks: the configured size (or the machine's
    /// available parallelism when unset), clamped to the block count.
    ///
    /// This is the **only** place a worker count is ever clamped. An explicit
    /// `num_workers == 0` is *not* silently promoted here — it is rejected
    /// up front by [`RunConfig::try_validate`] with
    /// [`ConfigError::ZeroWorkers`] (the runtimes validate before resolving
    /// the pool size, so this method never observes one).
    pub fn effective_num_workers(&self, num_blocks: usize) -> usize {
        debug_assert!(
            self.num_workers != Some(0),
            "validate the config before resolving the pool size"
        );
        let requested = self
            .num_workers
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4)
            })
            .max(1);
        requested.min(num_blocks.max(1))
    }

    /// Checks the configuration is usable, reporting the first problem found
    /// instead of panicking (the entry point CLI front-ends should use).
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        if !(self.epsilon.is_finite() && self.epsilon > 0.0) {
            return Err(ConfigError::NonPositiveEpsilon);
        }
        if self.convergence_streak == 0 {
            return Err(ConfigError::ZeroStreak);
        }
        if self.max_iterations == 0 {
            return Err(ConfigError::ZeroMaxIterations);
        }
        if self.num_workers == Some(0) {
            return Err(ConfigError::ZeroWorkers);
        }
        Ok(())
    }

    /// Checks the configuration is usable.
    ///
    /// # Panics
    /// Panics if ε is not a positive finite number, the streak is zero, the
    /// iteration limit is zero or an explicit worker count of zero was set
    /// (see [`RunConfig::try_validate`] for the non-panicking variant).
    pub fn validate(&self) {
        if let Err(err) = self.try_validate() {
            panic!("{err}");
        }
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        Self::asynchronous(1e-8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_the_mode() {
        assert_eq!(
            RunConfig::asynchronous(1e-6).mode,
            ExecutionMode::Asynchronous
        );
        assert_eq!(
            RunConfig::synchronous(1e-6).mode,
            ExecutionMode::Synchronous
        );
    }

    #[test]
    fn builder_methods_override_fields() {
        let c = RunConfig::asynchronous(1e-6)
            .with_max_iterations(500)
            .with_streak(7)
            .with_placement(PlacementPolicy::SpeedWeighted);
        assert_eq!(c.max_iterations, 500);
        assert_eq!(c.convergence_streak, 7);
        assert_eq!(c.placement, PlacementPolicy::SpeedWeighted);
        c.validate();
    }

    #[test]
    fn default_placement_is_round_robin() {
        assert_eq!(
            RunConfig::asynchronous(1e-6).placement,
            PlacementPolicy::RoundRobin
        );
        assert_eq!(
            RunConfig::synchronous(1e-6).placement,
            PlacementPolicy::RoundRobin
        );
    }

    #[test]
    fn default_is_a_valid_async_config() {
        let c = RunConfig::default();
        assert_eq!(c.mode, ExecutionMode::Asynchronous);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn zero_epsilon_is_rejected() {
        RunConfig::asynchronous(0.0).validate();
    }

    #[test]
    #[should_panic(expected = "max_iterations must be > 0")]
    fn zero_iteration_limit_is_rejected() {
        RunConfig::asynchronous(1e-6)
            .with_max_iterations(0)
            .validate();
    }

    #[test]
    fn mode_labels_are_stable() {
        assert_eq!(ExecutionMode::Synchronous.label(), "sync");
        assert_eq!(format!("{}", ExecutionMode::Asynchronous), "async");
    }

    #[test]
    fn try_validate_reports_instead_of_panicking() {
        assert_eq!(
            RunConfig::asynchronous(0.0).try_validate(),
            Err(ConfigError::NonPositiveEpsilon)
        );
        assert_eq!(
            RunConfig::asynchronous(f64::NAN).try_validate(),
            Err(ConfigError::NonPositiveEpsilon)
        );
        assert_eq!(
            RunConfig::asynchronous(1e-6).with_streak(0).try_validate(),
            Err(ConfigError::ZeroStreak)
        );
        assert_eq!(
            RunConfig::asynchronous(1e-6)
                .with_max_iterations(0)
                .try_validate(),
            Err(ConfigError::ZeroMaxIterations)
        );
        assert!(RunConfig::asynchronous(1e-6).try_validate().is_ok());
    }

    #[test]
    fn zero_workers_is_rejected_but_unset_is_auto() {
        let explicit = RunConfig::asynchronous(1e-6).with_num_workers(0);
        assert_eq!(explicit.try_validate(), Err(ConfigError::ZeroWorkers));
        let auto = RunConfig::asynchronous(1e-6);
        assert_eq!(auto.num_workers, None);
        assert!(auto.try_validate().is_ok());
    }

    #[test]
    fn effective_workers_clamp_to_the_block_count() {
        // The clamp lives in effective_num_workers and nowhere else: an
        // oversized request passes validation (it is usable, just larger
        // than useful) and is resolved against the block count here.
        let c = RunConfig::asynchronous(1e-6).with_num_workers(8);
        assert!(c.try_validate().is_ok());
        assert_eq!(c.effective_num_workers(3), 3);
        assert_eq!(c.effective_num_workers(100), 8);
        let oversized = RunConfig::asynchronous(1e-6).with_num_workers(usize::MAX);
        assert!(oversized.try_validate().is_ok());
        assert_eq!(oversized.effective_num_workers(5), 5);
        // the automatic default is at least one worker, never more than the
        // number of blocks
        let auto = RunConfig::asynchronous(1e-6);
        assert_eq!(auto.effective_num_workers(1), 1);
        assert!(auto.effective_num_workers(1024) >= 1);
        assert!(auto.effective_num_workers(1024) <= 1024);
    }

    #[test]
    fn tracing_defaults_off_and_the_builder_enables_it() {
        let c = RunConfig::asynchronous(1e-6);
        assert!(!c.tracing.enabled);
        let traced = c.with_tracing(TraceConfig::on().with_ring_capacity(1024));
        assert!(traced.tracing.enabled);
        assert_eq!(traced.tracing.ring_capacity, 1024);
        traced.validate();
    }

    #[test]
    fn config_error_messages_name_the_field() {
        assert_eq!(
            ConfigError::NonPositiveEpsilon.to_string(),
            "epsilon must be positive and finite"
        );
        assert!(ConfigError::ZeroWorkers.to_string().contains("num_workers"));
    }
}
