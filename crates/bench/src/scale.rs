//! Experiment scaling.
//!
//! The paper's problem sizes (a 2 000 000 × 2 000 000 matrix, a 600 × 600 and
//! a 1000 × 1000 grid) are far beyond what a unit-test or CI budget allows,
//! and the comparison the paper makes — synchronous versus asynchronous, and
//! environment versus environment, at a *fixed* problem size — is preserved
//! at smaller sizes. [`ExperimentScale`] centralises the sizes used by every
//! binary so they stay consistent, and switches to the paper's original
//! values when the environment variable `AIAC_FULL` is set to `1`.

use aiac_core::kernel::{BlockUpdate, DependencyView, InPlaceUpdate, IterativeKernel};
use serde::{Deserialize, Serialize};

/// The problem sizes used by the experiment binaries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentScale {
    /// Whether the paper-scale sizes are in force.
    pub full_scale: bool,
    /// Sparse linear problem: matrix dimension (paper: 2 000 000).
    pub sparse_n: usize,
    /// Sparse linear problem: number of processors on the distant grid.
    pub sparse_blocks: usize,
    /// Chemical problem: grid points per axis for Tables 1 and 3 (paper: 600).
    pub chem_grid: usize,
    /// Chemical problem: number of processors for Table 3.
    pub chem_blocks: usize,
    /// Chemical problem: simulated time interval in seconds (paper: 2160).
    pub chem_t_end: f64,
    /// Figure 3: grid points per axis (paper: 1000).
    pub fig3_grid: usize,
    /// Figure 3: simulated time interval in seconds.
    pub fig3_t_end: f64,
    /// Figure 3: processor counts swept on the local cluster (paper: 10–40).
    pub fig3_processors: Vec<usize>,
    /// Stopping threshold used by both problems.
    pub epsilon: f64,
    /// Local-convergence streak used by the asynchronous runs.
    pub streak: usize,
}

impl ExperimentScale {
    /// The scaled-down configuration used by default.
    pub fn scaled() -> Self {
        Self {
            full_scale: false,
            sparse_n: 6_000,
            sparse_blocks: 12,
            chem_grid: 60,
            chem_blocks: 12,
            chem_t_end: 720.0,
            fig3_grid: 60,
            fig3_t_end: 360.0,
            fig3_processors: vec![10, 15, 20, 25, 30, 35, 40],
            epsilon: 1e-7,
            streak: 3,
        }
    }

    /// The paper's original sizes (Table 1 and Figure 3).
    pub fn full() -> Self {
        Self {
            full_scale: true,
            sparse_n: 2_000_000,
            sparse_blocks: 12,
            chem_grid: 600,
            chem_blocks: 12,
            chem_t_end: 2_160.0,
            fig3_grid: 1_000,
            fig3_t_end: 2_160.0,
            fig3_processors: vec![10, 15, 20, 25, 30, 35, 40],
            epsilon: 1e-7,
            streak: 3,
        }
    }

    /// Reads `AIAC_FULL` from the environment and returns the matching scale.
    pub fn from_env() -> Self {
        match std::env::var("AIAC_FULL") {
            Ok(v) if v == "1" || v.eq_ignore_ascii_case("true") => Self::full(),
            _ => Self::scaled(),
        }
    }

    /// A one-line description printed at the top of every experiment.
    pub fn describe(&self) -> String {
        format!(
            "{} scale: sparse n = {}, chemical grid = {}x{}, figure-3 grid = {}x{} ({} procs swept)",
            if self.full_scale { "paper" } else { "scaled" },
            self.sparse_n,
            self.chem_grid,
            self.chem_grid,
            self.fig3_grid,
            self.fig3_grid,
            self.fig3_processors.len()
        )
    }
}

impl Default for ExperimentScale {
    fn default() -> Self {
        Self::scaled()
    }
}

/// A lightweight ring-coupled contraction used by the worker-pool scale
/// experiment (`scale_pool`): `x_i ← a·x_{i−1} + b·x_i + c·x_{i+1} + d` with
/// `|a| + |b| + |c| < 1`, one scalar unknown per block.
///
/// Unlike the paper's benchmark problems this kernel costs almost nothing per
/// iteration, which is the point: at 1024+ blocks the experiment measures the
/// *executor* — thread-pool scheduling and data-plane traffic — rather than the
/// numerics, and the known fixed point `d / (1 − a − b − c)` makes the result
/// checkable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleRing {
    /// Number of blocks (= processors being emulated).
    pub blocks: usize,
    /// Virtual cost of one local iteration on the reference machine, in
    /// seconds. The default (one microsecond, matching the trait default for
    /// a one-unknown block) measures the executor; the simulated
    /// oversubscription experiments raise it so compute — not network
    /// latency — dominates, as in the paper's workloads.
    pub cost_secs: f64,
}

impl ScaleRing {
    const A: f64 = 0.2;
    const B: f64 = 0.3;
    const C: f64 = 0.2;
    const D: f64 = 1.0;

    /// Creates a ring of `blocks` scalar blocks.
    pub fn new(blocks: usize) -> Self {
        assert!(blocks > 0, "the ring needs at least one block");
        Self {
            blocks,
            cost_secs: 1e-6,
        }
    }

    /// Sets the virtual per-iteration cost (builder style).
    pub fn with_cost(mut self, cost_secs: f64) -> Self {
        assert!(cost_secs > 0.0, "iteration cost must be positive");
        self.cost_secs = cost_secs;
        self
    }

    /// The exact fixed point every component converges to.
    pub fn fixed_point(&self) -> f64 {
        Self::D / (1.0 - Self::A - Self::B - Self::C)
    }
}

impl IterativeKernel for ScaleRing {
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
        if self.blocks == 1 {
            return Vec::new();
        }
        let left = (block + self.blocks - 1) % self.blocks;
        let right = (block + 1) % self.blocks;
        if left == right {
            vec![left]
        } else {
            vec![left, right]
        }
    }

    fn update_block(&self, block: usize, local: &[f64], others: &DependencyView) -> BlockUpdate {
        let mut values = vec![0.0];
        let update = self.update_block_into(block, local, others, &mut values);
        BlockUpdate {
            values,
            residual: update.residual,
        }
    }

    fn update_block_into(
        &self,
        block: usize,
        local: &[f64],
        others: &DependencyView,
        out: &mut [f64],
    ) -> InPlaceUpdate {
        let left = (block + self.blocks - 1) % self.blocks;
        let right = (block + 1) % self.blocks;
        let xl = others.get(left).map_or(0.0, |v| v[0]);
        let xr = others.get(right).map_or(0.0, |v| v[0]);
        let new = Self::A * xl + Self::B * local[0] + Self::C * xr + Self::D;
        out[0] = new;
        InPlaceUpdate {
            residual: (new - local[0]).abs(),
            copied: false,
        }
    }

    fn iteration_cost(&self, _block: usize) -> f64 {
        self.cost_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_configuration_is_small_enough_for_tests() {
        let s = ExperimentScale::scaled();
        assert!(!s.full_scale);
        assert!(s.sparse_n <= 20_000);
        assert!(s.chem_grid <= 100);
        assert!(s.chem_t_end <= 2_160.0);
        assert_eq!(s.fig3_processors.first(), Some(&10));
        assert_eq!(s.fig3_processors.last(), Some(&40));
    }

    #[test]
    fn full_configuration_matches_table1() {
        let f = ExperimentScale::full();
        assert!(f.full_scale);
        assert_eq!(f.sparse_n, 2_000_000);
        assert_eq!(f.chem_grid, 600);
        assert_eq!(f.fig3_grid, 1_000);
        assert_eq!(f.chem_t_end, 2_160.0);
    }

    #[test]
    fn describe_mentions_the_scale() {
        assert!(ExperimentScale::scaled().describe().contains("scaled"));
        assert!(ExperimentScale::full().describe().contains("paper"));
    }

    #[test]
    fn scale_ring_is_a_ring_with_a_known_fixed_point() {
        let ring = ScaleRing::new(5);
        assert_eq!(ring.dependencies(0), vec![4, 1]);
        assert_eq!(ring.total_len(), 5);
        assert!((ring.fixed_point() - 1.0 / 0.3).abs() < 1e-12);
        assert_eq!(ring.iteration_cost(0), 1e-6);
        assert_eq!(ring.with_cost(2e-3).iteration_cost(0), 2e-3);
        // two blocks collapse to a single shared neighbour, one block to none
        assert_eq!(ScaleRing::new(2).dependencies(0), vec![1]);
        assert!(ScaleRing::new(1).dependencies(0).is_empty());
    }

    #[test]
    fn scale_ring_converges_sequentially() {
        use aiac_core::config::RunConfig;
        use aiac_core::runtime::sequential::SequentialRuntime;
        let ring = ScaleRing::new(16);
        let report = SequentialRuntime::new().run(&ring, &RunConfig::synchronous(1e-10));
        assert!(report.converged);
        for v in &report.solution {
            assert!((v - ring.fixed_point()).abs() < 1e-8);
        }
    }
}
