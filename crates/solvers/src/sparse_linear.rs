//! The sparse linear benchmark problem (Section 4.1 of the paper).
//!
//! The problem is `A·x = b` with `A` a large sparse matrix whose non-zeros
//! sit on 30 sub-diagonals, solved by the **fixed-step gradient descent**
//!
//! ```text
//! x_{k+1} = x_k + γ · M⁻¹ · (b − A·x_k)
//! ```
//!
//! where `M` is the block-diagonal part of `A` induced by the processor
//! decomposition and γ ≈ 1 (γ = 1 is the block-Jacobi method). The matrix and
//! vectors are decomposed vertically and distributed over the processors;
//! each processor first computes its data-dependency list from the sparsity
//! pattern and then iterates on its own block, asynchronously exchanging the
//! values other processors need (Section 4.3).
//!
//! [`SparseLinearProblem`] implements [`IterativeKernel`], so the same object
//! runs on the sequential, threaded and simulated runtimes.

use aiac_core::kernel::{BlockUpdate, DependencyView, InPlaceUpdate, IterativeKernel};
use aiac_linalg::banded::{BandedSpec, ScatteredDiagonalsSpec};
use aiac_linalg::csr::CsrMatrix;
use aiac_linalg::decomp::Partition;
use aiac_linalg::jacobi::BlockJacobi;
use aiac_linalg::norms::max_norm_diff;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Shape of the generated test matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatrixShape {
    /// A contiguous band of sub-diagonals (neighbour-only dependencies).
    ContiguousBand,
    /// Sub-diagonals scattered over the whole dimension (all-to-all
    /// dependencies — the communication scheme described in Section 5.1).
    ScatteredDiagonals,
}

/// Parameters of the sparse linear benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseLinearParams {
    /// Matrix dimension (the paper uses 2 000 000).
    pub n: usize,
    /// Number of sub-diagonals (the paper uses 30).
    pub sub_diagonals: usize,
    /// Shape of the sparsity pattern.
    pub shape: MatrixShape,
    /// Bound on the Jacobi contraction factor (spectral radius < 1 required
    /// for asynchronous convergence).
    pub contraction: f64,
    /// Fixed step γ of the gradient descent (1.0 = block Jacobi).
    pub gamma: f64,
    /// Number of blocks / processors.
    pub blocks: usize,
    /// Seed of the matrix generator.
    pub seed: u64,
    /// Reference-machine throughput, in floating-point operations per second,
    /// used to convert per-iteration flop counts into virtual compute time
    /// for the simulated runtime (2004-era sparse-kernel throughput).
    pub reference_flops: f64,
    /// Scale factor applied to both the virtual compute cost and the message
    /// sizes reported to the simulated runtime.
    ///
    /// The paper's matrix has two million unknowns; running the numerics at a
    /// smaller dimension `n` keeps the *convergence behaviour* (iteration
    /// counts are governed by the contraction factor, not by the size) while
    /// the simulator should still see the full-size per-iteration compute
    /// time and data volumes. `paper_scaled` therefore sets this factor to
    /// `2 000 000 / n`, so the simulated execution models the paper-scale run
    /// even though the arithmetic is done at the reduced size. Set it to 1.0
    /// to simulate the reduced size literally.
    pub cost_scale: f64,
}

impl SparseLinearParams {
    /// A scaled-down version of the paper's configuration (Table 1): the
    /// sparsity pattern and contraction match the paper, the dimension is a
    /// parameter because two million unknowns do not fit a unit-test budget.
    pub fn paper_scaled(n: usize, blocks: usize) -> Self {
        Self {
            n,
            sub_diagonals: 30,
            shape: MatrixShape::ScatteredDiagonals,
            contraction: 0.9,
            gamma: 1.0,
            blocks,
            seed: 42,
            reference_flops: 1.5e8,
            cost_scale: 2_000_000.0 / n as f64,
        }
    }

    /// The full-size configuration of Table 1 (2 000 000 unknowns). Only used
    /// when the benchmark harness is explicitly asked to run at paper scale.
    pub fn paper_full(blocks: usize) -> Self {
        Self::paper_scaled(2_000_000, blocks)
    }
}

/// The sparse linear problem, ready to be executed by any runtime.
pub struct SparseLinearProblem {
    params: SparseLinearParams,
    a: CsrMatrix,
    b: Vec<f64>,
    x_exact: Vec<f64>,
    partition: Partition,
    /// How each block gathers the unknowns its rows reference.
    plans: Vec<GatherPlan>,
    /// Scratch one update needs, for the block that needs most: its compact
    /// `x` plus its residual.
    scratch_len: usize,
    /// Block-diagonal preconditioner `M⁻¹`.
    jacobi: BlockJacobi,
    /// Block dependency graph (which blocks own columns referenced by mine).
    dependencies: Vec<Vec<usize>>,
    /// `needed[from][to]` = number of values of block `from` that block `to`
    /// actually references (payload of a data message).
    needed: Vec<Vec<usize>>,
    /// Estimated flops of one local iteration per block.
    iteration_flops: Vec<f64>,
}

impl SparseLinearProblem {
    /// Generates the matrix, right-hand side and decomposition for the given
    /// parameters.
    ///
    /// # Panics
    /// Panics if a diagonal block is singular (cannot happen with the
    /// provided generators, which are strictly diagonally dominant).
    pub fn new(params: SparseLinearParams) -> Self {
        assert!(params.blocks > 0, "need at least one block");
        assert!(params.n >= params.blocks, "need at least one row per block");
        assert!(params.gamma > 0.0, "gamma must be positive");
        assert!(params.cost_scale > 0.0, "cost_scale must be positive");
        let (a, x_exact, b) = match params.shape {
            MatrixShape::ContiguousBand => {
                let spec = BandedSpec {
                    n: params.n,
                    bandwidth: params.sub_diagonals,
                    contraction: params.contraction,
                    seed: params.seed,
                };
                let a = spec.generate();
                let (x, b) = spec.generate_rhs(&a);
                (a, x, b)
            }
            MatrixShape::ScatteredDiagonals => {
                let spec = ScatteredDiagonalsSpec {
                    n: params.n,
                    num_diagonals: params.sub_diagonals,
                    contraction: params.contraction,
                    seed: params.seed,
                };
                let a = spec.generate();
                let (x, b) = spec.generate_rhs(&a);
                (a, x, b)
            }
        };
        let partition = Partition::balanced(params.n, params.blocks);
        let jacobi = BlockJacobi::new(&a, &partition)
            .expect("diagonally dominant matrices have invertible diagonal blocks");

        // One pass per block over its rows' external columns gives the
        // gather plan, the block dependency graph (which blocks own those
        // columns) and, for every ordered pair (from, to), how many of
        // `from`'s values `to` references — the payload of a data message.
        let mut plans = Vec::with_capacity(params.blocks);
        let mut dependencies = Vec::with_capacity(params.blocks);
        let mut needed = vec![vec![0usize; params.blocks]; params.blocks];
        let mut iteration_flops = Vec::with_capacity(params.blocks);
        let mut compact = vec![0usize; params.n];
        for (to, range) in partition.iter() {
            let external = a.external_dependencies(range.clone());
            let mut deps: Vec<usize> = Vec::new();
            for from in partition.owners_ascending(external.iter().copied()) {
                needed[from][to] += 1;
                if deps.last() != Some(&from) {
                    deps.push(from);
                }
            }
            dependencies.push(deps);
            let plan = GatherPlan::new(&a, &partition, to, &external, &mut compact);

            // SpMV on the local rows + residual + preconditioner solve. The
            // solve walks the non-zeros of the block's sparse factors, which
            // on these matrices are exactly the non-zeros of the diagonal
            // block (no fill, see `paper_scaled_diagonal_blocks_factor_without_fill`),
            // plus a subtract and a divide per row and the γ-update.
            let spmv = 2.0 * plan.rows.nnz() as f64;
            let block_nnz = range
                .clone()
                .flat_map(|i| a.row(i))
                .filter(|(j, _)| range.contains(j))
                .count() as f64;
            let jacobi_cost = 2.0 * block_nnz + 4.0 * range.len() as f64;
            iteration_flops.push(spmv + jacobi_cost);
            plans.push(plan);
        }

        Self {
            params,
            a,
            b,
            x_exact,
            partition,
            scratch_len: plans
                .iter()
                .map(|plan| plan.rows.ncols() + plan.rows.nrows())
                .max()
                .expect("at least one block"),
            plans,
            jacobi,
            dependencies,
            needed,
            iteration_flops,
        }
    }

    /// The parameters the problem was generated from.
    pub fn params(&self) -> &SparseLinearParams {
        &self.params
    }

    /// The generated matrix.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.a
    }

    /// The right-hand side.
    pub fn rhs(&self) -> &[f64] {
        &self.b
    }

    /// The exact solution the right-hand side was generated from.
    pub fn exact_solution(&self) -> &[f64] {
        &self.x_exact
    }

    /// The row partition across blocks.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Max-norm error of a candidate solution against the exact one.
    pub fn error_of(&self, x: &[f64]) -> f64 {
        max_norm_diff(x, &self.x_exact)
    }

    /// Max-norm of the linear residual `b − A·x` of a candidate solution,
    /// NaN when an entry is.
    pub fn linear_residual(&self, x: &[f64]) -> f64 {
        max_norm_diff(&self.b, &self.a.spmv_alloc(x))
    }
}

/// `len` consecutive values of block `dep`, from its local index `src` on,
/// land at compact index `dst` on.
#[derive(Debug, Clone, Copy)]
struct CopyRun {
    dep: usize,
    src: usize,
    len: usize,
    dst: usize,
}

/// What one block needs to compute `b_i − (A·x)_i` without a full-length `x`.
///
/// The columns the block's rows reference, together with its own range, are
/// numbered in ascending order — the *compact* index space. The mapping is
/// monotone, so every row keeps its in-row column order and the residual
/// rounds exactly as it does over global columns.
struct GatherPlan {
    /// The block's rows with compact column indices.
    rows: CsrMatrix,
    /// Fills the compact `x`, run-length encoded; the block's own range is
    /// one of the runs (`dep` is then the block itself).
    runs: Vec<CopyRun>,
}

impl GatherPlan {
    /// `external` is `a.external_dependencies(range of block)`; `compact` is
    /// caller-owned scratch of length `n` (global column → compact index),
    /// valid only for the columns of the block being planned.
    fn new(
        a: &CsrMatrix,
        partition: &Partition,
        block: usize,
        external: &[usize],
        compact: &mut [usize],
    ) -> Self {
        let own = partition.range(block);
        let split = external.partition_point(|&c| c < own.start);
        let cols: Vec<usize> = external[..split]
            .iter()
            .copied()
            .chain(own.clone())
            .chain(external[split..].iter().copied())
            .collect();
        for (k, &c) in cols.iter().enumerate() {
            compact[c] = k;
        }

        let mut row_ptr = Vec::with_capacity(own.len() + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for i in own.clone() {
            for (j, v) in a.row(i) {
                col_idx.push(compact[j]);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        let rows = CsrMatrix::from_raw(own.len(), cols.len(), row_ptr, col_idx, values);

        // a run grows while the columns are consecutive in one block
        let mut runs: Vec<CopyRun> = Vec::new();
        let owners = partition.owners_ascending(cols.iter().copied());
        for (dst, (&col, dep)) in cols.iter().zip(owners).enumerate() {
            let src = col - partition.start(dep);
            match runs.last_mut() {
                Some(run) if run.dep == dep && run.src + run.len == src => run.len += 1,
                _ => runs.push(CopyRun {
                    dep,
                    src,
                    len: 1,
                    dst,
                }),
            }
        }
        Self { rows, runs }
    }

    /// Fills the compact `x` from the block's own values and the latest
    /// available values of its dependencies (zeros for a dependency no
    /// version of which has arrived).
    fn gather(&self, block: usize, local: &[f64], others: &DependencyView, x: &mut [f64]) {
        for run in &self.runs {
            let dst = &mut x[run.dst..run.dst + run.len];
            let values = if run.dep == block {
                Some(local)
            } else {
                others.get(run.dep)
            };
            match values {
                Some(values) => dst.copy_from_slice(&values[run.src..run.src + run.len]),
                None => dst.fill(0.0),
            }
        }
    }
}

thread_local! {
    /// Per-thread scratch of `update_block_into`: the compact `x` followed by
    /// the block residual. A problem's first update on a thread sizes it for
    /// that problem's largest block; every later one reuses it, so updates
    /// never touch the heap again.
    static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

impl IterativeKernel for SparseLinearProblem {
    fn num_blocks(&self) -> usize {
        self.params.blocks
    }

    fn block_len(&self, block: usize) -> usize {
        self.partition.size(block)
    }

    fn initial_block(&self, block: usize) -> Vec<f64> {
        // x0 = 0 (an arbitrary starting vector, as in the paper).
        vec![0.0; self.partition.size(block)]
    }

    fn dependencies(&self, block: usize) -> Vec<usize> {
        self.dependencies[block].clone()
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
        let plan = &self.plans[block];
        let range = self.partition.range(block);
        let residual = SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            if scratch.len() < self.scratch_len {
                scratch.resize(self.scratch_len, 0.0);
            }
            let (x, r) = scratch.split_at_mut(plan.rows.ncols());
            let r = &mut r[..local.len()];
            plan.gather(block, local, others, x);
            // local residual r = b_i − (A·x)_i restricted to the block's rows,
            // fused into one pass (same accumulation order as spmv + subtract)
            plan.rows.residual(&self.b[range], x, r);
            // correction M_i⁻¹ · r, straight into the caller's back buffer
            self.jacobi.apply_block_into(block, r, out);
            // new iterate x + γ · correction in place, then the update
            // residual ‖new − x‖_∞ (NaN if an entry is) over the same buffer
            for (oi, xi) in out.iter_mut().zip(local) {
                *oi = xi + self.params.gamma * *oi;
            }
            max_norm_diff(out, local)
        });
        InPlaceUpdate {
            residual,
            copied: false,
        }
    }

    fn iteration_cost(&self, block: usize) -> f64 {
        self.iteration_flops[block] * self.params.cost_scale / self.params.reference_flops
    }

    fn message_bytes(&self, from: usize, to: usize) -> u64 {
        // Only the values the destination actually references are sent; the
        // volume is scaled up to the paper-size equivalent (see `cost_scale`).
        ((self.needed[from][to] * std::mem::size_of::<f64>()) as f64 * self.params.cost_scale)
            as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiac_core::config::RunConfig;
    use aiac_core::runtime::sequential::SequentialRuntime;
    use aiac_core::runtime::threaded::ThreadedRuntime;
    use aiac_linalg::norms::nan_max;

    fn small(shape: MatrixShape) -> SparseLinearProblem {
        let mut params = SparseLinearParams::paper_scaled(240, 4);
        params.shape = shape;
        params.sub_diagonals = 8;
        params.cost_scale = 1.0;
        SparseLinearProblem::new(params)
    }

    #[test]
    fn scattered_problem_has_all_to_all_dependencies() {
        let p = small(MatrixShape::ScatteredDiagonals);
        for b in 0..4 {
            assert_eq!(p.dependencies(b).len(), 3, "block {b}");
        }
    }

    #[test]
    fn banded_problem_only_couples_neighbouring_blocks() {
        let p = small(MatrixShape::ContiguousBand);
        assert_eq!(p.dependencies(0), vec![1]);
        assert_eq!(p.dependencies(1), vec![0, 2]);
        assert_eq!(p.dependencies(3), vec![2]);
    }

    #[test]
    fn message_bytes_match_dependency_counts() {
        let p = small(MatrixShape::ContiguousBand);
        // neighbouring blocks exchange up to `sub_diagonals` boundary values
        let bytes = p.message_bytes(0, 1);
        assert!(bytes > 0 && bytes <= 8 * 8);
        // non-dependent blocks would exchange nothing
        assert_eq!(p.message_bytes(0, 3), 0);
    }

    #[test]
    fn sequential_run_recovers_the_exact_solution() {
        let p = small(MatrixShape::ScatteredDiagonals);
        let report = SequentialRuntime::new().run(&p, &RunConfig::synchronous(1e-12));
        assert!(report.converged);
        assert!(
            p.error_of(&report.solution) < 1e-8,
            "error {}",
            p.error_of(&report.solution)
        );
        assert!(p.linear_residual(&report.solution) < 1e-6);
    }

    #[test]
    fn gamma_one_is_block_jacobi_and_converges() {
        let mut params = SparseLinearParams::paper_scaled(120, 3);
        params.gamma = 1.0;
        let p = SparseLinearProblem::new(params);
        let report = SequentialRuntime::new().run(&p, &RunConfig::synchronous(1e-11));
        assert!(report.converged);
        assert!(p.error_of(&report.solution) < 1e-7);
    }

    #[test]
    fn under_relaxed_gamma_still_converges_but_more_slowly() {
        let mut slow_params = SparseLinearParams::paper_scaled(120, 3);
        slow_params.gamma = 0.6;
        let slow = SparseLinearProblem::new(slow_params);
        let fast = SparseLinearProblem::new(SparseLinearParams::paper_scaled(120, 3));
        let cfg = RunConfig::synchronous(1e-10);
        let slow_report = SequentialRuntime::new().run(&slow, &cfg);
        let fast_report = SequentialRuntime::new().run(&fast, &cfg);
        assert!(slow_report.converged && fast_report.converged);
        assert!(slow_report.iterations[0] > fast_report.iterations[0]);
    }

    #[test]
    fn threaded_async_run_matches_exact_solution() {
        let p = small(MatrixShape::ScatteredDiagonals);
        let config = RunConfig::asynchronous(1e-11).with_streak(5);
        let report = ThreadedRuntime::new().run(&p, &config);
        assert!(report.converged);
        assert!(
            p.error_of(&report.solution) < 1e-6,
            "error {}",
            p.error_of(&report.solution)
        );
    }

    #[test]
    fn pooled_sync_runs_are_bit_identical_to_the_sequential_sweep() {
        // The double-buffered block state and the fused in-place update must
        // not perturb a single bit of the synchronous iteration: a pooled
        // threaded run only reorders *which worker* computes a block, never
        // the arithmetic, so every worker count must reproduce the
        // sequential sweep exactly.
        let p = small(MatrixShape::ScatteredDiagonals);
        let seq = SequentialRuntime::new().run(&p, &RunConfig::synchronous(1e-10));
        for workers in 1..=4 {
            let config = RunConfig::synchronous(1e-10).with_num_workers(workers);
            let par = ThreadedRuntime::new().run(&p, &config);
            assert_eq!(par.iterations, seq.iterations, "{workers} workers");
            assert_eq!(par.solution.len(), seq.solution.len(), "{workers} workers");
            for (i, (a, b)) in par.solution.iter().zip(&seq.solution).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{workers} workers: component {i} diverged from sequential"
                );
            }
        }
    }

    #[test]
    fn threaded_runs_of_the_sparse_solver_never_copy_payloads() {
        // The solver overrides `update_block_into`, so the data plane should
        // be structurally zero-copy in both modes.
        let p = small(MatrixShape::ScatteredDiagonals);
        for config in [
            RunConfig::synchronous(1e-10).with_num_workers(3),
            RunConfig::asynchronous(1e-11).with_streak(5),
        ] {
            let report = ThreadedRuntime::new().run(&p, &config);
            assert!(report.converged);
            assert_eq!(report.payload_clones, 0, "mode {:?}", config.mode);
            assert_eq!(report.bytes_copied, 0, "mode {:?}", config.mode);
        }
    }

    /// The update as it was computed before the gather plan: a full-length
    /// `x` (own values, the available dependencies, zeros elsewhere) against
    /// the block's rows over global columns.
    fn reference_update(
        p: &SparseLinearProblem,
        block: usize,
        local: &[f64],
        others: &DependencyView,
    ) -> (Vec<f64>, f64) {
        let own = p.partition.range(block);
        let mut x = vec![0.0; p.params.n];
        x[own.clone()].copy_from_slice(local);
        for &dep in &p.dependencies[block] {
            if let Some(values) = others.get(dep) {
                x[p.partition.range(dep)].copy_from_slice(values);
            }
        }
        let mut r = vec![0.0; local.len()];
        p.a.row_block(own.clone()).residual(&p.b[own], &x, &mut r);
        let correction = p.jacobi.apply_block(block, &r);
        let mut residual = 0.0f64;
        let values = local
            .iter()
            .zip(&correction)
            .map(|(xi, ci)| {
                let new = xi + p.params.gamma * ci;
                residual = nan_max(residual, (new - xi).abs());
                new
            })
            .collect();
        (values, residual)
    }

    #[test]
    fn gathered_update_is_bit_identical_to_the_global_assemble_reference() {
        let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        for shape in [MatrixShape::ContiguousBand, MatrixShape::ScatteredDiagonals] {
            for blocks in [1, 3, 12] {
                let mut params = SparseLinearParams::paper_scaled(240, blocks);
                params.shape = shape;
                params.sub_diagonals = 8;
                params.gamma = 0.9;
                let p = SparseLinearProblem::new(params);
                let iterate = |b: usize| -> Vec<f64> {
                    p.partition
                        .range(b)
                        .map(|i| (i as f64 * 0.37).sin() + 0.01 * b as f64)
                        .collect()
                };
                let mut full = DependencyView::new(blocks);
                for b in 0..blocks {
                    full.set(b, iterate(b));
                }
                for block in 0..blocks {
                    // every dependency present, then the first one absent
                    let mut views = vec![full.clone()];
                    if let Some(&absent) = p.dependencies[block].first() {
                        let mut partial = DependencyView::new(blocks);
                        for b in (0..blocks).filter(|&b| b != absent) {
                            partial.set(b, iterate(b));
                        }
                        views.push(partial);
                    }
                    let local = iterate(block);
                    for (v, view) in views.iter().enumerate() {
                        let (want, want_residual) = reference_update(&p, block, &local, view);
                        let mut out = vec![f64::NAN; local.len()];
                        let got = p.update_block_into(block, &local, view, &mut out);
                        let case = format!("{shape:?}, {blocks} blocks, block {block}, view {v}");
                        assert_eq!(bits(&out), bits(&want), "{case}");
                        assert_eq!(got.residual.to_bits(), want_residual.to_bits(), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_nan_makes_the_residuals_nan() {
        let p = small(MatrixShape::ScatteredDiagonals);
        assert!(p.linear_residual(&vec![f64::NAN; 240]).is_nan());
        let mut x = p.exact_solution().to_vec();
        assert!(p.linear_residual(&x) < 1e-9);
        x[100] = f64::NAN;
        assert!(p.linear_residual(&x).is_nan());

        let view = DependencyView::from_initial(&p);
        for at in [0, 30, 59] {
            let mut local = p.initial_block(1);
            local[at] = f64::NAN;
            let mut out = vec![0.0; local.len()];
            let update = p.update_block_into(1, &local, &view, &mut out);
            assert!(update.residual.is_nan(), "NaN at {at}");
            let (_, reference) = reference_update(&p, 1, &local, &view);
            assert!(reference.is_nan(), "NaN at {at}");
        }
    }

    #[test]
    fn paper_scaled_diagonal_blocks_factor_without_fill() {
        // `iteration_flops` charges the preconditioner solve 2 flops per
        // non-zero of the diagonal block; that describes the sparse
        // triangular solves only if factoring the block creates no fill.
        //
        // The 60 000-row blocks of n = 120 001 would need a 28.8 GB dense
        // copy. Their in-block offsets are the multiples of 8 000, so each
        // residue class mod 8 000 is a band and stays one. At n = 120 000
        // the offsets are 7 999, 15 999, ...: row i holds column i − 15 999,
        // so eliminating it subtracts a multiple of row i − 15 999, whose
        // entry at column i − 8 000 lies on no offset of row i. That fill
        // spreads: n = 12 000 in 2 blocks stores 11 million factor non-zeros
        // against 90 428 in its blocks.
        for (n, blocks) in [(6000, 12), (24_000, 256), (1200, 12), (120_001, 2)] {
            let p = SparseLinearProblem::new(SparseLinearParams::paper_scaled(n, blocks));
            for (b, range) in p.partition.iter() {
                assert_eq!(
                    p.jacobi.factor_nnz(b),
                    p.a.diagonal_block(range).nnz(),
                    "n {n}, {blocks} blocks, block {b}"
                );
            }
        }
    }

    #[test]
    fn iteration_cost_scales_with_matrix_size() {
        let mut small_params = SparseLinearParams::paper_scaled(200, 4);
        small_params.cost_scale = 1.0;
        let mut large_params = SparseLinearParams::paper_scaled(800, 4);
        large_params.cost_scale = 1.0;
        let small_p = SparseLinearProblem::new(small_params);
        let large_p = SparseLinearProblem::new(large_params);
        assert!(large_p.iteration_cost(0) > small_p.iteration_cost(0));
    }

    #[test]
    fn paper_scaled_cost_model_targets_the_full_problem_size() {
        // Two generated problems of different reduced sizes must present the
        // simulator with (approximately) the same full-scale per-iteration
        // cost and per-message volume.
        let a = SparseLinearProblem::new(SparseLinearParams::paper_scaled(1_200, 6));
        let b = SparseLinearProblem::new(SparseLinearParams::paper_scaled(2_400, 6));
        let ratio_cost = a.iteration_cost(0) / b.iteration_cost(0);
        assert!((0.5..2.0).contains(&ratio_cost), "cost ratio {ratio_cost}");
        let bytes_a: u64 = (1..6).map(|d| a.message_bytes(0, d)).sum();
        let bytes_b: u64 = (1..6).map(|d| b.message_bytes(0, d)).sum();
        let ratio_bytes = bytes_a as f64 / bytes_b as f64;
        assert!(
            (0.4..2.5).contains(&ratio_bytes),
            "byte ratio {ratio_bytes}"
        );
    }

    #[test]
    fn initial_guess_is_the_zero_vector() {
        let p = small(MatrixShape::ContiguousBand);
        assert!(p.initial_block(2).iter().all(|v| *v == 0.0));
        assert_eq!(p.initial_block(0).len(), 60);
    }

    #[test]
    #[should_panic(expected = "at least one row per block")]
    fn more_blocks_than_rows_is_rejected() {
        SparseLinearProblem::new(SparseLinearParams::paper_scaled(2, 4));
    }
}
