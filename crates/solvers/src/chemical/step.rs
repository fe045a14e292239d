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
//!
//! A block update does O(non-zeros) work and allocates nothing once its
//! thread is warm. Everything that does not change within a time step is
//! built by [`ChemicalStepKernel::new`]: the diurnal coefficients at the
//! step's end time and the vertical diffusion coefficients of every z-row.
//! A strip's Jacobian row for one unknown lists its columns in a fixed
//! order (down, left, the other species when it comes first, the diagonal,
//! the other species when it comes second, right, up), so an update writes
//! the Newton right-hand side and the Jacobian values in one pass over the
//! strip's rows, straight into per-thread scratch, and GMRES solves in a
//! reused [`GmresWorkspace`] over a matvec that reads each row's columns
//! from its position in the strip (`StripJacobian`) rather than from a CSR
//! index array. Its rows sum in the CSR row loop's grouping, so the result
//! is bit-identical to a CSR product of the same values.

use super::model;
use aiac_core::kernel::{BlockUpdate, DependencyView, InPlaceUpdate, IterativeKernel};
use aiac_linalg::decomp::Partition;
use aiac_linalg::gmres::{Gmres, GmresParams, GmresWorkspace};
use aiac_linalg::operator::LinearOperator;
use std::cell::RefCell;

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
    /// The diurnal coefficients at the end of the step (the implicit Euler
    /// evaluation time).
    rates: model::DiurnalRates,
    /// `(Kv(z + dz/2), Kv(z − dz/2)) / dz²` of every z-row, zero where the
    /// row is the domain's top or bottom edge.
    kv: Vec<(f64, f64)>,
    /// Time-step length h.
    dt: f64,
    gmres: Gmres,
    /// Virtual cost model for the simulated runtime.
    cost: StepCostModel,
}

/// The buffers of one Newton iteration, sized for the largest strip.
struct NewtonScratch {
    /// The right-hand side −G.
    rhs: Vec<f64>,
    /// The Newton correction Δ.
    delta: Vec<f64>,
    /// The Jacobian values, in the order [`StripJacobian`] reads them.
    jacobian: Vec<f64>,
    gmres: GmresWorkspace,
}

impl NewtonScratch {
    const fn new() -> Self {
        Self {
            rhs: Vec::new(),
            delta: Vec::new(),
            jacobian: Vec::new(),
            gmres: GmresWorkspace::new(),
        }
    }

    /// Grows every buffer to serve a strip of `n` unknowns whose Jacobian
    /// has `nnz` entries.
    fn reserve(&mut self, n: usize, nnz: usize, restart: usize) {
        for (buf, len) in [
            (&mut self.rhs, n),
            (&mut self.delta, n),
            (&mut self.jacobian, nnz),
        ] {
            if buf.len() < len {
                buf.resize(len, 0.0);
            }
        }
        self.gmres.reserve(n, restart);
    }
}

thread_local! {
    /// Per-thread Newton buffers: sized by the first update a thread runs,
    /// reused by every later one.
    static SCRATCH: RefCell<NewtonScratch> = const { RefCell::new(NewtonScratch::new()) };
}

/// Non-zeros of the Jacobian of a strip of `height` z-rows of `nx` points:
/// each unknown couples to both species at its own point, to the same
/// species one column left and right except at the x edges, and one row
/// down and up except at the strip's end rows.
fn jacobian_nnz(nx: usize, height: usize) -> usize {
    4 * nx * height + 4 * height * (nx - 1) + 4 * nx * (height - 1)
}

/// The Jacobian of one strip as GMRES's operator: `y = J·x` over the values
/// [`ChemicalStepKernel::newton_system`] writes, with every row's columns
/// read from its position in the strip rather than from an index array.
///
/// A row lists its entries as down, left, the point's two species in column
/// order, right, up, leaving out the neighbours it lacks: the x edges have
/// no left or right, the strip's end rows no down or up. For both species
/// the two middle entries multiply `x[q]` and `x[q + 1]`, where `q` is the
/// point's first unknown. Each row sums its products exactly as
/// [`CsrMatrix::spmv`](aiac_linalg::csr::CsrMatrix::spmv) does, so the
/// product is `to_bits`-identical to that of a CSR matrix holding the same
/// values.
struct StripJacobian<'a> {
    nx: usize,
    values: &'a [f64],
    dim: usize,
}

impl LinearOperator for StripJacobian<'_> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.dim, "strip Jacobian: x length mismatch");
        assert_eq!(y.len(), self.dim, "strip Jacobian: y length mismatch");
        let row_len = 2 * self.nx;
        let height = self.dim / row_len;
        let mut values = self.values;
        for (r, y) in y.chunks_exact_mut(row_len).enumerate() {
            let base = r * row_len;
            values = match (r > 0, r + 1 < height) {
                (false, false) => z_row::<false, false>(values, x, base, y),
                (false, true) => z_row::<false, true>(values, x, base, y),
                (true, true) => z_row::<true, true>(values, x, base, y),
                (true, false) => z_row::<true, false>(values, x, base, y),
            };
        }
        debug_assert!(values.is_empty(), "the values must match the strip");
    }
}

/// `y = J·x` over the z-row whose first unknown is `x[base]`, `DOWN` and
/// `UP` saying whether the strip has a row below and above it. Returns the
/// values of the rows that follow.
fn z_row<'v, const DOWN: bool, const UP: bool>(
    values: &'v [f64],
    x: &[f64],
    base: usize,
    y: &mut [f64],
) -> &'v [f64] {
    let row_len = y.len();
    // the entries of a row at an x edge; an interior row has one more
    let edge = 3 + usize::from(DOWN) + usize::from(UP);
    let (first, values) = values.split_at(2 * edge);
    let (interior, values) = values.split_at((edge + 1) * (row_len - 4));
    let (last, rest) = values.split_at(2 * edge);
    let end = row_len - 2;
    rows::<DOWN, false, true, UP>(first, x, base, row_len, &mut y[..2]);
    rows::<DOWN, true, true, UP>(interior, x, base + 2, row_len, &mut y[2..end]);
    rows::<DOWN, true, false, UP>(last, x, base + end, row_len, &mut y[end..]);
    rest
}

/// `y = J·x` over consecutive rows of one class, the first of which is
/// unknown `first`, a point's first species. The rows couple to the
/// neighbours `D`own, `L`eft, `R`ight and `U`p that are set, `row_len`
/// unknowns apart vertically.
#[inline(always)]
fn rows<const D: bool, const L: bool, const R: bool, const U: bool>(
    values: &[f64],
    x: &[f64],
    first: usize,
    row_len: usize,
    y: &mut [f64],
) {
    let len = 2 + usize::from(D) + usize::from(L) + usize::from(R) + usize::from(U);
    let n = y.len();
    let own = &x[first..first + n];
    // a neighbour the rows lack is never read; their own unknowns stand in
    let down = if D { &x[first - row_len..][..n] } else { own };
    let left = if L { &x[first - 2..][..n] } else { own };
    let right = if R { &x[first + 2..][..n] } else { own };
    let up = if U { &x[first + row_len..][..n] } else { own };
    let (points, _) = own.as_chunks::<2>();
    for (i, (((((y, e), &d), &l), &r), &u)) in y
        .iter_mut()
        .zip(values.chunks_exact(len))
        .zip(down)
        .zip(left)
        .zip(right)
        .zip(up)
        .enumerate()
    {
        let [c0, c1] = points[i / 2];
        let mut terms = [0.0; 6];
        let mut k = 0;
        for (couples, xc) in [(D, d), (L, l), (true, c0), (true, c1), (R, r), (U, u)] {
            if couples {
                terms[k] = e[k] * xc;
                k += 1;
            }
        }
        *y = row_sum(&terms[..k]);
    }
}

/// The sum of one row's products in the grouping of the CSR row loop: four
/// entries in two pairs, then the tail left to right. That loop's
/// accumulators start at `+0.0`, so it never returns `−0.0`; the final
/// `+ 0.0` turns the only other result this grouping can give, `−0.0`, into
/// `+0.0`, which makes the sum bit-identical without adding to zero per
/// term.
#[inline(always)]
fn row_sum(terms: &[f64]) -> f64 {
    let sum = match *terms {
        [a, b, c] => (a + b) + c,
        [a, b, c, d] => (a + b) + (c + d),
        [a, b, c, d, e] => ((a + b) + (c + d)) + e,
        [a, b, c, d, e, f] => ((a + b) + (c + d)) + (e + f),
        _ => unreachable!("a strip Jacobian row has 3 to 6 entries"),
    };
    sum + 0.0
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
        let strip = Partition::balanced(geometry.nz, blocks);
        let dz = geometry.dz();
        let kv = (0..geometry.nz)
            .map(|iz| {
                let z = geometry.z(iz);
                let up = if iz + 1 < geometry.nz {
                    model::kv(z + dz / 2.0) / (dz * dz)
                } else {
                    0.0
                };
                let down = if iz > 0 {
                    model::kv(z - dz / 2.0) / (dz * dz)
                } else {
                    0.0
                };
                (up, down)
            })
            .collect();
        Self {
            geometry,
            strip,
            y_prev,
            rates: model::DiurnalRates::at(t_next),
            kv,
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

    /// Writes the Newton system of one strip: the right-hand side
    /// `−G(y)_p = −(y_p − y_prev_p − h·f_p)` into `rhs`, and the local
    /// Jacobian `I − h·∂f/∂y_local` into `jacobian` in the order
    /// [`StripJacobian`] reads it. The neighbour strips' values are
    /// constants (the multi-splitting approximation): the latest received
    /// boundary row, or the previous time step's when no message has
    /// arrived yet.
    fn newton_system(
        &self,
        block: usize,
        local: &[f64],
        others: &DependencyView,
        rhs: &mut [f64],
        jacobian: &mut [f64],
    ) {
        let g = &self.geometry;
        let nx = g.nx;
        let row_len = 2 * nx;
        let rows = self.strip.range(block);
        let height = rows.len();
        let h = self.dt;
        let dx = g.dx();
        let a_left = model::KH / (dx * dx) - model::V / (2.0 * dx);
        let a_right = model::KH / (dx * dx) + model::V / (2.0 * dx);
        // The transport part of the diagonal, per column: the x boundaries
        // clamp the stencil, which folds a neighbour onto the point itself.
        let centre = -2.0 * model::KH / (dx * dx);
        let (edge_left, edge_right) = (centre + a_left, centre + a_right);
        // The rows just outside the strip. At the domain's top and bottom
        // there is none, and the strip's own edge row stands in: the stencil
        // then reads the point itself, as the boundary condition does.
        let prev_row = |iz: usize| &self.y_prev[iz * row_len..(iz + 1) * row_len];
        let below = (rows.start > 0).then(|| {
            others
                .get(block - 1)
                .map_or(prev_row(rows.start - 1), |v| &v[v.len() - row_len..])
        });
        let above = (rows.end < g.nz).then(|| {
            others
                .get(block + 1)
                .map_or(prev_row(rows.end), |v| &v[..row_len])
        });

        let mut k = 0;
        for (r, iz) in rows.enumerate() {
            let cur = &local[r * row_len..(r + 1) * row_len];
            let down = if r > 0 {
                &local[(r - 1) * row_len..r * row_len]
            } else {
                below.unwrap_or(cur)
            };
            let up = if r + 1 < height {
                &local[(r + 1) * row_len..(r + 2) * row_len]
            } else {
                above.unwrap_or(cur)
            };
            let prev = prev_row(iz);
            let (kv_up, kv_down) = self.kv[iz];
            let rhs = &mut rhs[r * row_len..(r + 1) * row_len];
            for ix in 0..nx {
                let (c1, c2) = (cur[2 * ix], cur[2 * ix + 1]);
                let reaction = model::reaction_with(c1, c2, self.rates);
                let rj = model::reaction_jacobian_with(c1, c2, self.rates);
                let left = 2 * ix.saturating_sub(1);
                let right = 2 * (ix + 1).min(nx - 1);
                let diag_transport = if ix == 0 {
                    edge_left
                } else if ix + 1 == nx {
                    edge_right
                } else {
                    centre
                } - (kv_up + kv_down);
                for s in 0..2 {
                    let p = 2 * ix + s;
                    let (c, cl, cr) = (cur[p], cur[left + s], cur[right + s]);
                    let horizontal = model::KH * (cr - 2.0 * c + cl) / (dx * dx)
                        + model::V * (cr - cl) / (2.0 * dx);
                    let vertical = kv_up * (up[p] - c) - kv_down * (c - down[p]);
                    let (reaction_s, same, cross) = if s == 0 {
                        (reaction.r1, rj.dr1_dc1, rj.dr1_dc2)
                    } else {
                        (reaction.r2, rj.dr2_dc2, rj.dr2_dc1)
                    };
                    let f = horizontal + vertical + reaction_s;
                    rhs[p] = -(c - prev[p] - h * f);

                    let mut push = |v: f64| {
                        jacobian[k] = v;
                        k += 1;
                    };
                    if r > 0 {
                        push(-h * kv_down);
                    }
                    if ix > 0 {
                        push(-h * a_left);
                    }
                    if s == 1 {
                        push(-h * cross);
                    }
                    push(1.0 - h * (diag_transport + same));
                    if s == 0 {
                        push(-h * cross);
                    }
                    if ix + 1 < nx {
                        push(-h * a_right);
                    }
                    if r + 1 < height {
                        push(-h * kv_up);
                    }
                }
            }
        }
        debug_assert_eq!(k, jacobian.len(), "the fill must match the strip");
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
        let n = local.len();
        let nx = self.geometry.nx;
        let residual = SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            // sized for the tallest strip, which the balanced partition puts
            // first, so no later block grows it
            scratch.reserve(
                self.block_len(0),
                jacobian_nnz(nx, self.strip.size(0)),
                self.gmres.params().restart,
            );
            let NewtonScratch {
                rhs,
                delta,
                jacobian,
                gmres,
            } = &mut *scratch;
            let (rhs, delta) = (&mut rhs[..n], &mut delta[..n]);
            let jacobian = &mut jacobian[..jacobian_nnz(nx, self.strip.size(block))];
            self.newton_system(block, local, others, rhs, jacobian);
            let op = StripJacobian {
                nx,
                values: jacobian,
                dim: n,
            };
            delta.fill(0.0);
            self.gmres.solve_into(&op, rhs, delta, gmres);
            for ((oi, y), d) in out.iter_mut().zip(local).zip(&*delta) {
                *oi = y + d;
            }
            // Residual: largest Newton correction relative to the species
            // scale, so the two species (1e6 vs 1e12) are weighted comparably.
            let mut residual = 0.0f64;
            for (p, d) in delta.iter().enumerate() {
                let scale = if p % 2 == 0 {
                    model::C1_SCALE
                } else {
                    model::C2_SCALE
                };
                residual = residual.max(d.abs() / scale);
            }
            residual
        });
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
    use aiac_linalg::csr::CsrMatrix;

    /// The step's end time in the kernels built by [`kernel`].
    const T_NEXT: f64 = 180.0;

    fn geometry() -> GridGeometry {
        GridGeometry::new(12, 12)
    }

    fn kernel(blocks: usize) -> ChemicalStepKernel {
        let g = geometry();
        ChemicalStepKernel::new(
            g,
            blocks,
            g.initial_state(),
            T_NEXT,
            180.0,
            GmresParams::default(),
            StepCostModel::default(),
        )
    }

    /// The update as it was written before the kernel kept a pattern: a
    /// stencil read resolves its owner per point, the residual and the
    /// Jacobian are separate passes that evaluate the diurnal and vertical
    /// coefficients at every point, the Jacobian is assembled from triplets
    /// and sorted by `from_triplets`, and GMRES runs on a fresh workspace
    /// (`Gmres::solve_into` equals the pre-workspace GMRES loop bit for bit,
    /// which `aiac-linalg`'s gmres tests pin).
    impl ChemicalStepKernel {
        /// Concentration of species `s` at `(ix, iz)` seen from block `block`:
        /// either a local unknown, or a frozen value from a neighbouring
        /// strip's latest received data, falling back to the previous time
        /// step when no message has arrived yet.
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
            let owner = self.strip.owner(iz);
            if let Some(values) = others.get(owner) {
                let owner_rows = self.strip.range(owner);
                let local_row = iz - owner_rows.start;
                values[(local_row * nx + ix) * 2 + s]
            } else {
                self.y_prev[self.geometry.index(s, ix, iz)]
            }
        }

        /// Right-hand side `f` of the semi-discretised ODE (equation 11) at
        /// one grid point at time `t`, for both species.
        fn f_point(
            &self,
            block: usize,
            local: &[f64],
            others: &DependencyView,
            ix: usize,
            iz: usize,
            t: f64,
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
            let reaction = model::reaction(c1, c2, t);
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

        /// The local nonlinear residual `G(y)_p = y_p − y_prev_p − h·f_p` of
        /// every unknown of the strip, at time `t`.
        fn local_g(
            &self,
            block: usize,
            local: &[f64],
            others: &DependencyView,
            t: f64,
        ) -> Vec<f64> {
            let rows = self.strip.range(block);
            let nx = self.geometry.nx;
            let mut g = vec![0.0; local.len()];
            for (local_row, iz) in rows.clone().enumerate() {
                for ix in 0..nx {
                    let (f1, f2) = self.f_point(block, local, others, ix, iz, t);
                    for (s, f) in [f1, f2].into_iter().enumerate() {
                        let p = (local_row * nx + ix) * 2 + s;
                        let prev = self.y_prev[self.geometry.index(s, ix, iz)];
                        g[p] = local[p] - prev - self.dt * f;
                    }
                }
            }
            g
        }

        /// The local Newton Jacobian `I − h·∂f/∂y_local` of the strip at
        /// time `t`, assembled from triplets.
        fn local_jacobian(
            &self,
            block: usize,
            local: &[f64],
            others: &DependencyView,
            t: f64,
        ) -> CsrMatrix {
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
                    let rj = model::reaction_jacobian(c1, c2, t);
                    for s in 0..2 {
                        let p = idx_local(local_row, ix, s);
                        let mut diag_transport = -2.0 * model::KH / (dx * dx);
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
                        diag_transport -= kv_up + kv_down;
                        if iz + 1 < g.nz && rows.contains(&(iz + 1)) {
                            triplets.push((p, idx_local(local_row + 1, ix, s), -h * kv_up));
                        }
                        if iz > 0 && rows.contains(&(iz - 1)) {
                            triplets.push((p, idx_local(local_row - 1, ix, s), -h * kv_down));
                        }
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

        /// One Newton iteration of the strip at time `t`, the reference way:
        /// the new values and the update residual.
        fn reference_update(
            &self,
            block: usize,
            local: &[f64],
            others: &DependencyView,
            t: f64,
        ) -> (Vec<f64>, f64) {
            let g = self.local_g(block, local, others, t);
            let jac = self.local_jacobian(block, local, others, t);
            let rhs: Vec<f64> = g.iter().map(|v| -v).collect();
            let (delta, _outcome) = self.gmres.solve_from_zero(&jac, &rhs);
            let values = local.iter().zip(&delta).map(|(y, d)| y + d).collect();
            let mut residual = 0.0f64;
            for (p, d) in delta.iter().enumerate() {
                let scale = if p % 2 == 0 {
                    model::C1_SCALE
                } else {
                    model::C2_SCALE
                };
                residual = residual.max(d.abs() / scale);
            }
            (values, residual)
        }
    }

    /// The strip Jacobian as a CSR matrix, each value drawn from `value`
    /// in the order [`StripJacobian`] reads them: each unknown couples to
    /// the same species one row down, one column left, one column right
    /// and one row up (where that neighbour is inside the strip), and to
    /// the other species at its own point.
    fn jacobian_pattern(nx: usize, height: usize, mut value: impl FnMut() -> f64) -> CsrMatrix {
        let n = height * nx * 2;
        let mut row_ptr = vec![0];
        let mut col_idx = Vec::new();
        for row in 0..height {
            for ix in 0..nx {
                for s in 0..2 {
                    let p = (row * nx + ix) * 2 + s;
                    if row > 0 {
                        col_idx.push(p - 2 * nx);
                    }
                    if ix > 0 {
                        col_idx.push(p - 2);
                    }
                    if s == 1 {
                        col_idx.push(p - 1);
                    }
                    col_idx.push(p);
                    if s == 0 {
                        col_idx.push(p + 1);
                    }
                    if ix + 1 < nx {
                        col_idx.push(p + 2);
                    }
                    if row + 1 < height {
                        col_idx.push(p + 2 * nx);
                    }
                    row_ptr.push(col_idx.len());
                }
            }
        }
        let values = col_idx.iter().map(|_| value()).collect();
        CsrMatrix::from_raw(n, n, row_ptr, col_idx, values)
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// The stencil product equals the CSR product of the same values bit
    /// for bit on every row class — both x edges, interior columns, the
    /// strip's end rows and height-1 strips, so rows of 3 to 6 entries —
    /// with values and x drawn from zeros of both signs, one, and random
    /// numbers of both signs.
    #[test]
    fn the_stencil_matvec_is_bit_identical_to_the_csr_spmv() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = move || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let r = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
            match r % 4 {
                0 => 0.0,
                1 => -0.0,
                2 => 1.0,
                _ => (r >> 11) as f64 / (1u64 << 52) as f64 - 1.0,
            }
        };
        for nx in 3..=8 {
            for height in 1..=5 {
                for trial in 0..20 {
                    let csr = jacobian_pattern(nx, height, &mut draw);
                    assert_eq!(csr.nnz(), jacobian_nnz(nx, height));
                    let values: Vec<f64> = csr.triplets().map(|(_, _, v)| v).collect();
                    let x: Vec<f64> = (0..csr.nrows()).map(|_| draw()).collect();
                    let op = StripJacobian {
                        nx,
                        values: &values,
                        dim: x.len(),
                    };
                    let got = op.apply_alloc(&x);
                    let want = csr.spmv_alloc(&x);
                    assert_eq!(bits(&got), bits(&want), "{nx}x{height} trial {trial}");
                }
            }
        }
    }

    /// Every block's update equals the reference bit for bit, over three
    /// consecutive time steps, with a full view and with one neighbour
    /// absent (so the stencil falls back to the previous step's row). The
    /// local values and the neighbours' rows are perturbed away from the
    /// previous state, so each of the three row sources is told apart.
    #[test]
    fn updates_are_bit_identical_to_the_reference() {
        let inexact = GmresParams {
            restart: 6,
            tol: 1e-2,
            abs_tol: 1e-14,
            max_restarts: 1,
        };
        let cases = [
            (12, 12, 1, GmresParams::default()),
            (12, 12, 3, GmresParams::default()),
            (12, 12, 3, inexact),
            // height-1 strips: rows of 3 and 4 entries
            (12, 12, 12, inexact),
            // height 2: every row is a strip end row
            (12, 12, 6, inexact),
            // one interior column
            (3, 10, 3, GmresParams::default()),
            (30, 31, 4, inexact),
            (100, 100, 10, inexact),
        ];
        let dt = 180.0;
        for (nx, nz, blocks, params) in cases {
            let g = GridGeometry::new(nx, nz);
            let mut y = g.initial_state();
            for step in 0..3 {
                let t = dt * (step + 1) as f64;
                let k = ChemicalStepKernel::new(
                    g,
                    blocks,
                    y.clone(),
                    t,
                    dt,
                    params,
                    StepCostModel::default(),
                );
                let locals: Vec<Vec<f64>> = (0..blocks)
                    .map(|b| {
                        let mut v = k.initial_block(b);
                        for (p, vp) in v.iter_mut().enumerate() {
                            *vp *= 1.0 + 1e-3 * ((p + 3 * b) % 7) as f64;
                        }
                        v
                    })
                    .collect();
                let mut full = DependencyView::new(blocks);
                for (b, v) in locals.iter().enumerate() {
                    full.set(b, v.clone());
                }
                let mut next = Vec::with_capacity(y.len());
                for (b, local) in locals.iter().enumerate() {
                    let mut partial = full.clone();
                    let absent = if b > 0 { b - 1 } else { b + 1 };
                    if absent < blocks {
                        partial = DependencyView::new(blocks);
                        for (other, v) in locals.iter().enumerate() {
                            if other != absent {
                                partial.set(other, v.clone());
                            }
                        }
                    }
                    for (name, view) in [("full", &full), ("one absent", &partial)] {
                        let (want, want_residual) = k.reference_update(b, local, view, t);
                        let mut got = vec![0.0; local.len()];
                        let update = k.update_block_into(b, local, view, &mut got);
                        let case = format!("{nx}x{nz}/{blocks} step {step} block {b} {name}");
                        assert_eq!(bits(&got), bits(&want), "{case}: values");
                        assert_eq!(
                            update.residual.to_bits(),
                            want_residual.to_bits(),
                            "{case}: residual"
                        );
                        if name == "full" {
                            next.extend_from_slice(&got);
                        }
                    }
                }
                y = next;
            }
        }
    }

    #[test]
    fn the_non_zero_count_leaves_out_the_missing_neighbours() {
        // 6 entries per unknown, less one per unknown at each x edge and
        // one per unknown of the strip's end rows
        assert_eq!(jacobian_nnz(30, 8), 480 * 6 - 2 * 2 * 8 - 2 * 60);
        // a 1 000-point strip
        assert_eq!(jacobian_nnz(100, 10), 11_560);
        // height 1: neither down nor up
        assert_eq!(jacobian_nnz(3, 1), 6 * 6 - 2 * 2 - 6 * 2);
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
        let g = k.local_g(0, &report.solution, &view, T_NEXT);
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
