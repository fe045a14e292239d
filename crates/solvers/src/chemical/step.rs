//! One implicit-Euler time step of the chemical problem as an AIAC kernel.
//!
//! The paper solves every time step with the **multi-splitting Newton**
//! approach: the (x, z) grid is cut into horizontal strips, each processor
//! repeatedly performs Newton iterations restricted to its strip — using the
//! latest received boundary rows of its two neighbours as frozen data — and
//! the inner linear system of each Newton iteration is solved by a sequential
//! GMRES (Section 4.2/4.3). Those per-strip Newton iterations are exactly the
//! block updates of an [`IterativeKernel`], so the whole time step can be run
//! synchronously or asynchronously by any back-end of `aiac-core`, with a
//! barrier between time steps provided by the outer loop in
//! [`crate::chemical::ChemicalProblem`].

use super::model;
use aiac_core::kernel::{BlockUpdate, DependencyView, InPlaceUpdate, IterativeKernel};
use aiac_linalg::csr::CsrMatrix;
use aiac_linalg::decomp::Partition;
use aiac_linalg::gmres::{Gmres, GmresParams};

/// Geometry of the discretised domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridGeometry {
    /// Number of grid points along x.
    pub nx: usize,
    /// Number of grid points along z.
    pub nz: usize,
    /// Domain extent along x.
    pub x_max: f64,
    /// Domain extent along z.
    pub z_max: f64,
}

impl GridGeometry {
    /// Creates the geometry used by the paper's problem: a square domain
    /// discretised on `nx × nz` points.
    pub fn new(nx: usize, nz: usize) -> Self {
        assert!(
            nx >= 3 && nz >= 3,
            "the grid needs at least 3 points per axis"
        );
        Self {
            nx,
            nz,
            x_max: 20.0,
            z_max: 20.0,
        }
    }

    /// Grid spacing along x.
    pub fn dx(&self) -> f64 {
        self.x_max / (self.nx - 1) as f64
    }

    /// Grid spacing along z.
    pub fn dz(&self) -> f64 {
        self.z_max / (self.nz - 1) as f64
    }

    /// Physical x coordinate of column `ix`.
    pub fn x(&self, ix: usize) -> f64 {
        ix as f64 * self.dx()
    }

    /// Physical z coordinate of row `iz`.
    pub fn z(&self, iz: usize) -> f64 {
        iz as f64 * self.dz()
    }

    /// Total number of unknowns (two species per grid point).
    pub fn num_unknowns(&self) -> usize {
        2 * self.nx * self.nz
    }

    /// Flat index of species `s` at grid point `(ix, iz)` in a z-major layout
    /// (whole z-rows are contiguous, so a horizontal strip is a contiguous
    /// slice).
    pub fn index(&self, s: usize, ix: usize, iz: usize) -> usize {
        debug_assert!(s < 2 && ix < self.nx && iz < self.nz);
        (iz * self.nx + ix) * 2 + s
    }

    /// The initial concentration field of equation (9), in the same z-major
    /// layout.
    pub fn initial_state(&self) -> Vec<f64> {
        let mut y = vec![0.0; self.num_unknowns()];
        for iz in 0..self.nz {
            for ix in 0..self.nx {
                let (c1, c2) = model::initial_concentrations(self.x(ix), self.z(iz));
                y[self.index(0, ix, iz)] = c1;
                y[self.index(1, ix, iz)] = c2;
            }
        }
        y
    }
}

/// Virtual cost model of one time-step kernel: how expensive a Newton
/// iteration and a boundary exchange look to the simulated runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepCostModel {
    /// Flops charged per grid point per Newton iteration.
    pub flops_per_point: f64,
    /// Reference machine throughput in flop/s.
    pub reference_flops: f64,
    /// Multiplier applied to the compute cost (used to present a reduced grid
    /// as a paper-size one).
    pub cost_scale: f64,
    /// Multiplier applied to the boundary-row message size.
    pub comm_scale: f64,
    /// Synchronisations per outer iteration charged to the synchronous
    /// baseline (the paper's global Newton/GMRES synchronises at every inner
    /// iteration).
    pub sync_inner_collectives: usize,
}

impl Default for StepCostModel {
    fn default() -> Self {
        Self {
            flops_per_point: 800.0,
            reference_flops: 1.5e8,
            cost_scale: 1.0,
            comm_scale: 1.0,
            sync_inner_collectives: 1,
        }
    }
}

/// One implicit-Euler step `G(y) = y − y_prev − h·f(y, t) = 0` presented as a
/// block-iterative kernel (one block per horizontal strip of z-rows).
pub struct ChemicalStepKernel {
    geometry: GridGeometry,
    /// Partition of the z-rows over the blocks.
    strip: Partition,
    /// Full previous-step state (z-major).
    y_prev: Vec<f64>,
    /// Time at the end of the step (the implicit Euler evaluation time).
    t_next: f64,
    /// Time-step length h.
    dt: f64,
    gmres: Gmres,
    /// Virtual cost model for the simulated runtime.
    cost: StepCostModel,
}

impl ChemicalStepKernel {
    /// Builds the kernel for one time step.
    ///
    /// # Panics
    /// Panics if `y_prev` does not match the grid size or if there are more
    /// blocks than z-rows.
    pub fn new(
        geometry: GridGeometry,
        blocks: usize,
        y_prev: Vec<f64>,
        t_next: f64,
        dt: f64,
        gmres: GmresParams,
        cost: StepCostModel,
    ) -> Self {
        assert_eq!(y_prev.len(), geometry.num_unknowns(), "state size mismatch");
        assert!(
            blocks >= 1 && blocks <= geometry.nz,
            "blocks must be in 1..=nz"
        );
        assert!(dt > 0.0, "the time step must be positive");
        Self {
            geometry,
            strip: Partition::balanced(geometry.nz, blocks),
            y_prev,
            t_next,
            dt,
            gmres: Gmres::new(gmres),
            cost,
        }
    }

    /// The z-row partition over the blocks.
    pub fn strip_partition(&self) -> &Partition {
        &self.strip
    }

    /// The grid geometry.
    pub fn geometry(&self) -> &GridGeometry {
        &self.geometry
    }

    /// Concentration of species `s` at `(ix, iz)` seen from block `block`:
    /// either a local unknown, or a frozen value from a neighbouring strip's
    /// latest received data, falling back to the previous time step when no
    /// message has arrived yet.
    fn conc(
        &self,
        block: usize,
        local: &[f64],
        others: &DependencyView,
        s: usize,
        ix: usize,
        iz: usize,
    ) -> f64 {
        let rows = self.strip.range(block);
        let nx = self.geometry.nx;
        if rows.contains(&iz) {
            let local_row = iz - rows.start;
            return local[(local_row * nx + ix) * 2 + s];
        }
        // The stencil only reaches one row outside the strip, so `iz` belongs
        // to a neighbouring block.
        let owner = self.strip.owner(iz);
        if let Some(values) = others.get(owner) {
            let owner_rows = self.strip.range(owner);
            let local_row = iz - owner_rows.start;
            values[(local_row * nx + ix) * 2 + s]
        } else {
            self.y_prev[self.geometry.index(s, ix, iz)]
        }
    }

    /// Right-hand side `f` of the semi-discretised ODE (equation 11) at one
    /// grid point, for both species.
    fn f_point(
        &self,
        block: usize,
        local: &[f64],
        others: &DependencyView,
        ix: usize,
        iz: usize,
    ) -> (f64, f64) {
        let g = &self.geometry;
        let dx = g.dx();
        let dz = g.dz();
        let z = g.z(iz);
        let kv_up = if iz + 1 < g.nz {
            model::kv(z + dz / 2.0) / (dz * dz)
        } else {
            0.0
        };
        let kv_down = if iz > 0 {
            model::kv(z - dz / 2.0) / (dz * dz)
        } else {
            0.0
        };
        let c1 = self.conc(block, local, others, 0, ix, iz);
        let c2 = self.conc(block, local, others, 1, ix, iz);
        let reaction = model::reaction(c1, c2, self.t_next);
        let mut out = [0.0f64; 2];
        for (s, out_s) in out.iter_mut().enumerate() {
            let c = if s == 0 { c1 } else { c2 };
            let ixl = ix.saturating_sub(1);
            let ixr = (ix + 1).min(g.nx - 1);
            let cl = self.conc(block, local, others, s, ixl, iz);
            let cr = self.conc(block, local, others, s, ixr, iz);
            let horizontal =
                model::KH * (cr - 2.0 * c + cl) / (dx * dx) + model::V * (cr - cl) / (2.0 * dx);
            let cu = if iz + 1 < g.nz {
                self.conc(block, local, others, s, ix, iz + 1)
            } else {
                c
            };
            let cd = if iz > 0 {
                self.conc(block, local, others, s, ix, iz - 1)
            } else {
                c
            };
            let vertical = kv_up * (cu - c) - kv_down * (c - cd);
            let r = if s == 0 { reaction.r1 } else { reaction.r2 };
            *out_s = horizontal + vertical + r;
        }
        (out[0], out[1])
    }

    /// Evaluates the local nonlinear residual `G(y)_p = y_p − y_prev_p − h·f_p`
    /// for every unknown of the strip.
    fn local_g(&self, block: usize, local: &[f64], others: &DependencyView) -> Vec<f64> {
        let rows = self.strip.range(block);
        let nx = self.geometry.nx;
        let mut g = vec![0.0; local.len()];
        for (local_row, iz) in rows.clone().enumerate() {
            for ix in 0..nx {
                let (f1, f2) = self.f_point(block, local, others, ix, iz);
                for (s, f) in [f1, f2].into_iter().enumerate() {
                    let p = (local_row * nx + ix) * 2 + s;
                    let prev = self.y_prev[self.geometry.index(s, ix, iz)];
                    g[p] = local[p] - prev - self.dt * f;
                }
            }
        }
        g
    }

    /// Assembles the local Newton Jacobian `I − h·∂f/∂y_local` of the strip,
    /// treating the neighbour strips' values as constants (the multi-splitting
    /// approximation).
    fn local_jacobian(&self, block: usize, local: &[f64], others: &DependencyView) -> CsrMatrix {
        let rows = self.strip.range(block);
        let g = &self.geometry;
        let nx = g.nx;
        let dx = g.dx();
        let dz = g.dz();
        let n_local = local.len();
        let h = self.dt;
        let mut triplets: Vec<(usize, usize, f64)> = Vec::with_capacity(n_local * 8);
        let idx_local = |local_row: usize, ix: usize, s: usize| (local_row * nx + ix) * 2 + s;

        for (local_row, iz) in rows.clone().enumerate() {
            let z = g.z(iz);
            let kv_up = if iz + 1 < g.nz {
                model::kv(z + dz / 2.0) / (dz * dz)
            } else {
                0.0
            };
            let kv_down = if iz > 0 {
                model::kv(z - dz / 2.0) / (dz * dz)
            } else {
                0.0
            };
            for ix in 0..nx {
                let c1 = self.conc(block, local, others, 0, ix, iz);
                let c2 = self.conc(block, local, others, 1, ix, iz);
                let rj = model::reaction_jacobian(c1, c2, self.t_next);
                for s in 0..2 {
                    let p = idx_local(local_row, ix, s);
                    // Transport part: ∂f/∂c coefficients accumulated per column.
                    let mut diag_transport = -2.0 * model::KH / (dx * dx);
                    // horizontal neighbours (clamped at the x boundaries)
                    let a_left = model::KH / (dx * dx) - model::V / (2.0 * dx);
                    let a_right = model::KH / (dx * dx) + model::V / (2.0 * dx);
                    if ix > 0 {
                        triplets.push((p, idx_local(local_row, ix - 1, s), -h * a_left));
                    } else {
                        diag_transport += a_left;
                    }
                    if ix + 1 < nx {
                        triplets.push((p, idx_local(local_row, ix + 1, s), -h * a_right));
                    } else {
                        diag_transport += a_right;
                    }
                    // vertical neighbours: only rows inside the strip are unknowns
                    diag_transport -= kv_up + kv_down;
                    if iz + 1 < g.nz && rows.contains(&(iz + 1)) {
                        triplets.push((p, idx_local(local_row + 1, ix, s), -h * kv_up));
                    }
                    if iz > 0 && rows.contains(&(iz - 1)) {
                        triplets.push((p, idx_local(local_row - 1, ix, s), -h * kv_down));
                    }
                    // reaction part (couples the two species at the same point)
                    let (drs_dc1, drs_dc2) = if s == 0 {
                        (rj.dr1_dc1, rj.dr1_dc2)
                    } else {
                        (rj.dr2_dc1, rj.dr2_dc2)
                    };
                    let same = if s == 0 { drs_dc1 } else { drs_dc2 };
                    let cross = if s == 0 { drs_dc2 } else { drs_dc1 };
                    let cross_col = idx_local(local_row, ix, 1 - s);
                    triplets.push((p, p, 1.0 - h * (diag_transport + same)));
                    triplets.push((p, cross_col, -h * cross));
                }
            }
        }
        CsrMatrix::from_triplets(n_local, n_local, triplets)
    }
}

impl IterativeKernel for ChemicalStepKernel {
    fn num_blocks(&self) -> usize {
        self.strip.parts()
    }

    fn block_len(&self, block: usize) -> usize {
        self.strip.size(block) * self.geometry.nx * 2
    }

    fn initial_block(&self, block: usize) -> Vec<f64> {
        // Each time step starts from the previous step's concentrations.
        let rows = self.strip.range(block);
        let nx = self.geometry.nx;
        let start = rows.start * nx * 2;
        let end = rows.end * nx * 2;
        self.y_prev[start..end].to_vec()
    }

    fn dependencies(&self, block: usize) -> Vec<usize> {
        let mut deps = Vec::new();
        if block > 0 {
            deps.push(block - 1);
        }
        if block + 1 < self.strip.parts() {
            deps.push(block + 1);
        }
        deps
    }

    fn update_block(&self, block: usize, local: &[f64], others: &DependencyView) -> BlockUpdate {
        let mut values = vec![0.0; local.len()];
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
        // One Newton iteration on the strip: solve (I − h·J_f)·Δ = −G.
        let g = self.local_g(block, local, others);
        let jac = self.local_jacobian(block, local, others);
        // alloc: the Newton right-hand side; `local_g`, `local_jacobian` and the
        // GMRES solve around it build fresh vectors every update anyway
        let rhs: Vec<f64> = g.iter().map(|v| -v).collect();
        let (delta, _outcome) = self.gmres.solve_from_zero(&jac, &rhs);
        for ((oi, y), d) in out.iter_mut().zip(local).zip(&delta) {
            *oi = y + d;
        }
        // Residual: largest Newton correction relative to the species scale,
        // so the two species (1e6 vs 1e12) are weighted comparably.
        let mut residual = 0.0f64;
        for (p, d) in delta.iter().enumerate() {
            let scale = if p % 2 == 0 {
                model::C1_SCALE
            } else {
                model::C2_SCALE
            };
            residual = residual.max(d.abs() / scale);
        }
        InPlaceUpdate {
            residual,
            copied: false,
        }
    }

    fn iteration_cost(&self, block: usize) -> f64 {
        let points = (self.strip.size(block) * self.geometry.nx) as f64;
        points * self.cost.flops_per_point * self.cost.cost_scale / self.cost.reference_flops
    }

    fn message_bytes(&self, from: usize, to: usize) -> u64 {
        // Neighbouring strips exchange one boundary row (both species),
        // scaled to the paper-size row length.
        let adjacent = from.abs_diff(to) == 1;
        if adjacent {
            ((self.geometry.nx * 2 * std::mem::size_of::<f64>()) as f64 * self.cost.comm_scale)
                as u64
        } else {
            0
        }
    }

    fn residual_between(&self, _block: usize, a: &[f64], b: &[f64]) -> f64 {
        // Same species weighting as the residual of `update_block`, so the
        // runtimes' drift-based convergence window uses consistent units.
        let mut worst = 0.0f64;
        for (p, (x, y)) in a.iter().zip(b).enumerate() {
            let scale = if p % 2 == 0 {
                model::C1_SCALE
            } else {
                model::C2_SCALE
            };
            worst = worst.max((x - y).abs() / scale);
        }
        worst
    }

    fn sync_collectives_per_iteration(&self) -> usize {
        self.cost.sync_inner_collectives.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiac_core::config::RunConfig;
    use aiac_core::runtime::sequential::SequentialRuntime;

    fn geometry() -> GridGeometry {
        GridGeometry::new(12, 12)
    }

    fn kernel(blocks: usize) -> ChemicalStepKernel {
        let g = geometry();
        ChemicalStepKernel::new(
            g,
            blocks,
            g.initial_state(),
            180.0,
            180.0,
            GmresParams::default(),
            StepCostModel::default(),
        )
    }

    #[test]
    fn geometry_indexing_is_z_major_and_bijective() {
        let g = geometry();
        assert_eq!(g.num_unknowns(), 288);
        let mut seen = vec![false; g.num_unknowns()];
        for iz in 0..g.nz {
            for ix in 0..g.nx {
                for s in 0..2 {
                    let idx = g.index(s, ix, iz);
                    assert!(!seen[idx]);
                    seen[idx] = true;
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn initial_state_matches_the_analytic_profile() {
        let g = geometry();
        let y = g.initial_state();
        let (c1, c2) = model::initial_concentrations(g.x(3), g.z(7));
        assert_eq!(y[g.index(0, 3, 7)], c1);
        assert_eq!(y[g.index(1, 3, 7)], c2);
    }

    #[test]
    fn blocks_partition_the_unknowns() {
        let k = kernel(3);
        let total: usize = (0..3).map(|b| k.block_len(b)).sum();
        assert_eq!(total, geometry().num_unknowns());
        assert_eq!(k.dependencies(0), vec![1]);
        assert_eq!(k.dependencies(1), vec![0, 2]);
        assert_eq!(k.dependencies(2), vec![1]);
    }

    #[test]
    fn initial_blocks_are_slices_of_the_previous_state() {
        let k = kernel(4);
        let full = geometry().initial_state();
        let mut reassembled = Vec::new();
        for b in 0..4 {
            reassembled.extend(k.initial_block(b));
        }
        assert_eq!(reassembled, full);
    }

    #[test]
    fn newton_iterations_converge_within_a_time_step() {
        // With a single block the kernel is plain Newton on the full domain;
        // the sequential runtime drives it to a fixed point of G(y) = 0.
        let k = kernel(1);
        let report = SequentialRuntime::new().run(&k, &RunConfig::synchronous(1e-10));
        assert!(
            report.converged,
            "Newton did not converge: {}",
            report.final_residual
        );
        assert!(report.iterations[0] < 50, "Newton should converge quickly");
        // The implicit Euler solution must satisfy G(y) ≈ 0.
        let view = DependencyView::from_initial(&k);
        let g = k.local_g(0, &report.solution, &view);
        let scaled_norm = g
            .iter()
            .enumerate()
            .map(|(p, v)| {
                v.abs()
                    / if p % 2 == 0 {
                        model::C1_SCALE
                    } else {
                        model::C2_SCALE
                    }
            })
            .fold(0.0f64, f64::max);
        assert!(scaled_norm < 1e-6, "nonlinear residual {scaled_norm}");
    }

    #[test]
    fn decomposed_solution_matches_single_block_solution() {
        let single = kernel(1);
        let split = kernel(3);
        let cfg = RunConfig::synchronous(1e-10);
        let reference = SequentialRuntime::new().run(&single, &cfg);
        let decomposed = SequentialRuntime::new().run(&split, &cfg);
        assert!(reference.converged && decomposed.converged);
        for (a, b) in reference.solution.iter().zip(&decomposed.solution) {
            let scale = a.abs().max(1.0);
            assert!(
                ((a - b) / scale).abs() < 1e-6,
                "multisplitting and plain Newton disagree: {a} vs {b}"
            );
        }
    }

    #[test]
    fn concentrations_stay_positive_over_one_step() {
        let k = kernel(2);
        let report = SequentialRuntime::new().run(&k, &RunConfig::synchronous(1e-9));
        assert!(report.converged);
        assert!(report.solution.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn message_bytes_cover_one_boundary_row() {
        let k = kernel(3);
        assert_eq!(k.message_bytes(0, 1), (12 * 2 * 8) as u64);
        assert_eq!(k.message_bytes(0, 2), 0);
    }

    #[test]
    fn iteration_cost_scales_with_strip_height() {
        let k = kernel(3);
        // balanced partition of 12 rows over 3 blocks: equal strips
        assert!((k.iteration_cost(0) - k.iteration_cost(1)).abs() < 1e-12);
        let k2 = kernel(2);
        assert!(k2.iteration_cost(0) > k.iteration_cost(0));
    }
}
