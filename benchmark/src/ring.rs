//! The benchmark's own ring contraction kernel.
//!
//! One scalar per block, each depending on its two ring neighbours:
//! `x_i ← A·x_{i−1} + B·x_i + C·x_{i+1} + D`, the recurrence of the repo's
//! `ScaleRing` / `ServiceRing`, implemented here so that the scheduler
//! workload does not depend on a program kernel. An update costs a few
//! nanoseconds, so a run's wall time and memory are the runtime's own.

use crate::adapter::{BlockUpdate, DependencyView, InPlaceUpdate, IterativeKernel};

#[derive(Debug, Clone, Copy)]
pub struct Ring {
    blocks: usize,
}

const A: f64 = 0.25;
const B: f64 = 0.35;
const C: f64 = 0.15;
const D: f64 = 1.0;

impl Ring {
    pub fn new(blocks: usize) -> Self {
        assert!(blocks >= 3, "the ring needs at least three blocks");
        Ring { blocks }
    }

    /// The value every component converges to.
    pub fn fixed_point(&self) -> f64 {
        D / (1.0 - A - B - C)
    }
}

impl IterativeKernel for Ring {
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
        vec![
            (block + self.blocks - 1) % self.blocks,
            (block + 1) % self.blocks,
        ]
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
        let new = A * xl + B * local[0] + C * xr + D;
        out[0] = new;
        InPlaceUpdate {
            residual: (new - local[0]).abs(),
            copied: false,
        }
    }
}

/// A kernel that is at its fixed point from the start, so any run of it is
/// one sweep: what a run costs before it does any work.
#[derive(Debug, Clone, Copy)]
pub struct OneSweep {
    pub blocks: usize,
}

impl IterativeKernel for OneSweep {
    fn num_blocks(&self) -> usize {
        self.blocks
    }

    fn block_len(&self, _block: usize) -> usize {
        1
    }

    fn initial_block(&self, _block: usize) -> Vec<f64> {
        vec![1.0]
    }

    fn dependencies(&self, block: usize) -> Vec<usize> {
        if self.blocks < 3 {
            return Vec::new();
        }
        vec![
            (block + self.blocks - 1) % self.blocks,
            (block + 1) % self.blocks,
        ]
    }

    fn update_block(&self, _block: usize, local: &[f64], _others: &DependencyView) -> BlockUpdate {
        BlockUpdate {
            values: local.to_vec(),
            residual: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{self, Mode, Route, Solve};

    #[test]
    fn the_ring_reaches_its_fixed_point_on_every_route() {
        let ring = Ring::new(16);
        assert!((ring.fixed_point() - 4.0).abs() < 1e-12);
        for route in [
            Route::Sequential,
            Route::Threaded(Mode::Sync, 2),
            Route::Threaded(Mode::Async, 2),
        ] {
            let run = adapter::run(
                &ring,
                Solve {
                    route,
                    epsilon: 1e-9,
                    streak: 3,
                },
            );
            assert!(run.ok(), "{route:?}");
            for x in &run.solution {
                assert!((x - 4.0).abs() < 1e-6, "{route:?}: {x}");
            }
        }
    }

    #[test]
    fn the_one_sweep_kernel_stops_after_one_sweep() {
        let run = adapter::run(
            &OneSweep { blocks: 8 },
            Solve {
                route: Route::Threaded(Mode::Sync, 2),
                epsilon: 1e-9,
                streak: 1,
            },
        );
        assert!(run.ok());
        assert_eq!(run.iterations, vec![1; 8]);
    }
}
