//! Generator of banded sparse matrices with a controlled Jacobi spectral
//! radius.
//!
//! The sparse linear benchmark of the paper uses a matrix of size
//! 2 000 000 × 2 000 000 whose non-zeros are spread over 30 sub-diagonals and
//! which is "designed to have a spectral radius less than one" so that the
//! asynchronous iteration converges (Section 5.1, Table 1). [`BandedSpec`]
//! reproduces that construction at any size: off-diagonal entries are drawn
//! uniformly at random and the diagonal is set so that the Jacobi iteration
//! matrix `M⁻¹N` has max-norm (hence spectral radius) bounded by the requested
//! `contraction` factor. [`ScatteredDiagonalsSpec`] spreads the same
//! construction over scattered sub-diagonals. Both generators write their
//! CSR rows directly, already column-sorted, in O(nnz).

use crate::csr::CsrMatrix;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Specification of a random banded matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BandedSpec {
    /// Matrix dimension `n` (the matrix is `n × n`).
    pub n: usize,
    /// Number of sub-diagonals on each side of the main diagonal
    /// (the paper uses 30).
    pub bandwidth: usize,
    /// Target bound on the max-norm of the Jacobi iteration matrix
    /// `M⁻¹N`; must lie in `(0, 1)` for guaranteed asynchronous convergence.
    pub contraction: f64,
    /// Seed of the deterministic random stream.
    pub seed: u64,
}

impl BandedSpec {
    /// The configuration used by the paper (scaled down by default: the
    /// original `n` is two million).
    pub fn paper(n: usize, seed: u64) -> Self {
        Self {
            n,
            bandwidth: 30,
            contraction: 0.9,
            seed,
        }
    }

    /// Generates the matrix `A` described by the spec.
    ///
    /// Construction: for every row `i`, the off-diagonal entries on the band
    /// are drawn from `U(0.1, 1.0)` with alternating signs, and the diagonal
    /// entry is `Σ_j |a_ij| / contraction`, making the matrix strictly
    /// diagonally dominant and giving the point-Jacobi iteration matrix a row
    /// sum (∞-norm) of exactly `contraction` in every non-boundary row.
    ///
    /// # Panics
    /// Panics if `n == 0`, `bandwidth == 0` or `contraction` is outside
    /// `(0, 1)`.
    pub fn generate(&self) -> CsrMatrix {
        assert!(self.n > 0, "BandedSpec: n must be positive");
        assert!(self.bandwidth > 0, "BandedSpec: bandwidth must be positive");
        assert!(
            self.contraction > 0.0 && self.contraction < 1.0,
            "BandedSpec: contraction must be in (0, 1)"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut row_ptr = Vec::with_capacity(self.n + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0usize);
        for i in 0..self.n {
            let lo = i.saturating_sub(self.bandwidth);
            let hi = (i + self.bandwidth).min(self.n - 1);
            let mut off_sum = 0.0;
            let mut row_cols = Vec::with_capacity(hi - lo + 1);
            let mut row_vals = Vec::with_capacity(hi - lo + 1);
            for j in lo..=hi {
                if j == i {
                    // placeholder, fixed after the off-diagonal sum is known
                    row_cols.push(j);
                    row_vals.push(0.0);
                } else {
                    let magnitude: f64 = rng.gen_range(0.1..1.0);
                    let sign = if (i + j) % 2 == 0 { 1.0 } else { -1.0 };
                    let v: f64 = sign * magnitude;
                    off_sum += v.abs();
                    row_cols.push(j);
                    row_vals.push(v);
                }
            }
            // set the diagonal so that off_sum / diag == contraction
            let diag = if off_sum > 0.0 {
                off_sum / self.contraction
            } else {
                1.0
            };
            let diag_pos = i - lo;
            row_vals[diag_pos] = diag;
            col_idx.extend_from_slice(&row_cols);
            values.extend_from_slice(&row_vals);
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_raw(self.n, self.n, row_ptr, col_idx, values)
    }

    /// Generates a right-hand side `b = A·x_exact` for a known smooth exact
    /// solution, so tests and benches can verify the computed solution
    /// directly against the ground truth.
    ///
    /// The exact solution is `x_exact[i] = sin(i / n * 2π) + 1.5`, returned
    /// together with `b`.
    pub fn generate_rhs(&self, a: &CsrMatrix) -> (Vec<f64>, Vec<f64>) {
        let n = self.n;
        let x_exact: Vec<f64> = (0..n)
            .map(|i| (i as f64 / n as f64 * std::f64::consts::TAU).sin() + 1.5)
            .collect();
        let b = a.spmv_alloc(&x_exact);
        (x_exact, b)
    }

    /// Number of non-zeros the generated matrix will contain.
    pub fn expected_nnz(&self) -> usize {
        (0..self.n)
            .map(|i| {
                let lo = i.saturating_sub(self.bandwidth);
                let hi = (i + self.bandwidth).min(self.n - 1);
                hi - lo + 1
            })
            .sum()
    }
}

/// Specification of a random matrix whose non-zeros sit on a set of
/// *scattered* sub-diagonals spread over the whole bandwidth of the matrix.
///
/// The paper's sparse matrix has its non-zeros distributed over 30
/// sub-diagonals and produces an **all-to-all** communication scheme ("the
/// communication scheme is all to all according to data dependencies",
/// Section 5.1), which a contiguous band cannot produce — a contiguous band
/// only couples neighbouring blocks. Spreading the sub-diagonal offsets over
/// the full dimension reproduces the intended dependency structure: every
/// row block references columns owned by (almost) every other block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScatteredDiagonalsSpec {
    /// Matrix dimension `n` (the matrix is `n × n`).
    pub n: usize,
    /// Number of sub-diagonals (the paper uses 30).
    pub num_diagonals: usize,
    /// Target bound on the max-norm of the Jacobi iteration matrix; must lie
    /// in `(0, 1)`.
    pub contraction: f64,
    /// Seed of the deterministic random stream.
    pub seed: u64,
}

impl ScatteredDiagonalsSpec {
    /// The paper's configuration (30 sub-diagonals, contractive) at a given
    /// size.
    pub fn paper(n: usize, seed: u64) -> Self {
        Self {
            n,
            num_diagonals: 30,
            contraction: 0.9,
            seed,
        }
    }

    /// The sub-diagonal offsets used for the given spec: `num_diagonals`
    /// distinct non-zero offsets spread symmetrically over `±(n−1)`.
    pub fn offsets(&self) -> Vec<i64> {
        assert!(self.n > 1, "ScatteredDiagonalsSpec: n must be at least 2");
        let mut offsets = Vec::with_capacity(self.num_diagonals);
        let half = self.num_diagonals.div_ceil(2);
        for k in 0..self.num_diagonals {
            let side = if k % 2 == 0 { 1i64 } else { -1i64 };
            let rank = (k / 2 + 1) as i64;
            // spread the ranks between 1 and n-1
            let offset = (rank * (self.n as i64 - 1) / half as i64).max(1);
            offsets.push(side * offset);
        }
        offsets.sort_unstable();
        offsets.dedup();
        offsets
    }

    /// Generates the matrix: every row has an entry on each sub-diagonal
    /// offset that stays inside the matrix, with the diagonal chosen to bound
    /// the Jacobi iteration matrix by `contraction` (same construction as
    /// [`BandedSpec::generate`]).
    ///
    /// The rows are written straight into exactly sized CSR arrays: the
    /// offsets ascend and never include 0, so each row's columns come out
    /// sorted once the diagonal's slot is put between the negative and the
    /// positive offsets.
    pub fn generate(&self) -> CsrMatrix {
        assert!(self.n > 1, "ScatteredDiagonalsSpec: n must be at least 2");
        assert!(self.num_diagonals > 0, "need at least one sub-diagonal");
        assert!(
            self.contraction > 0.0 && self.contraction < 1.0,
            "contraction must be in (0, 1)"
        );
        let n = self.n;
        let mut slots = self.offsets();
        let nnz = n + slots
            .iter()
            .map(|off| n - off.unsigned_abs() as usize)
            .sum::<usize>();
        slots.insert(slots.partition_point(|&off| off < 0), 0);
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        row_ptr.push(0);
        for i in 0..n {
            let mut off_sum = 0.0;
            let mut diag_at = 0;
            for &off in &slots {
                let j = i as i64 + off;
                if j < 0 || j >= n as i64 {
                    continue;
                }
                col_idx.push(j as usize);
                if off == 0 {
                    // fixed once the off-diagonal sum is known
                    diag_at = values.len();
                    values.push(0.0);
                    continue;
                }
                let magnitude: f64 = rng.gen_range(0.1..1.0);
                let sign = if (i + j as usize).is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                };
                let v = sign * magnitude;
                off_sum += v.abs();
                values.push(v);
            }
            values[diag_at] = if off_sum > 0.0 {
                off_sum / self.contraction
            } else {
                1.0
            };
            row_ptr.push(col_idx.len());
        }
        debug_assert_eq!(col_idx.len(), nnz);
        CsrMatrix::from_raw(n, n, row_ptr, col_idx, values)
    }

    /// Generates a right-hand side with a known exact solution, like
    /// [`BandedSpec::generate_rhs`].
    pub fn generate_rhs(&self, a: &CsrMatrix) -> (Vec<f64>, Vec<f64>) {
        let n = self.n;
        let x_exact: Vec<f64> = (0..n)
            .map(|i| (i as f64 / n as f64 * std::f64::consts::TAU).cos() + 2.0)
            .collect();
        let b = a.spmv_alloc(&x_exact);
        (x_exact, b)
    }
}

/// A square sparse matrix in diagonal (DIA) storage: one densely packed
/// value vector per structurally non-empty diagonal.
///
/// The paper's matrices put every non-zero on a small set of sub-diagonals,
/// which CSR cannot exploit: its matvec gathers `x[col_idx[k]]` through an
/// index vector, defeating SIMD codegen. DIA stores each diagonal
/// contiguously, so the matvec is a handful of `y[a..b] += d[..] * x[c..d]`
/// slice loops — unit stride on every operand, exactly what the
/// autovectoriser wants, with no index traffic at all. The trade-off is that
/// ragged sparsity would pad diagonals with zeros; use it for matrices that
/// are genuinely diagonal-structured (the [`BandedSpec`] /
/// [`ScatteredDiagonalsSpec`] families).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiaMatrix {
    /// Matrix dimension.
    n: usize,
    /// Sorted distinct diagonal offsets `k = col − row`.
    offsets: Vec<i64>,
    /// `diagonals[d][t]` is the `t`-th entry of diagonal `offsets[d]`,
    /// packed densely: offset `k ≥ 0` holds `A[t, t+k]` for `t < n−k`,
    /// offset `k < 0` holds `A[t+|k|, t]` for `t < n−|k|`.
    diagonals: Vec<Vec<f64>>,
}

impl DiaMatrix {
    /// Converts a square CSR matrix to diagonal storage. Every structural
    /// non-zero is preserved; absent positions on a stored diagonal are
    /// explicit zeros.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn from_csr(a: &CsrMatrix) -> Self {
        assert_eq!(a.nrows(), a.ncols(), "DiaMatrix requires a square matrix");
        let n = a.nrows();
        let mut offsets: Vec<i64> = a
            .triplets()
            .map(|(i, j, _)| j as i64 - i as i64)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        offsets.sort_unstable();
        let mut diagonals: Vec<Vec<f64>> = offsets
            .iter()
            .map(|&k| vec![0.0; n - k.unsigned_abs() as usize])
            .collect();
        for (i, j, v) in a.triplets() {
            let k = j as i64 - i as i64;
            let d = offsets.binary_search(&k).expect("offset was collected");
            let t = i.min(j);
            diagonals[d][t] = v;
        }
        Self {
            n,
            offsets,
            diagonals,
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored diagonals.
    pub fn num_diagonals(&self) -> usize {
        self.offsets.len()
    }

    /// The stored diagonal offsets, sorted ascending.
    pub fn offsets(&self) -> &[i64] {
        &self.offsets
    }

    /// Matrix-vector product `y = A·x` over the stored diagonals: one
    /// unit-stride fused multiply-add loop per diagonal.
    ///
    /// # Panics
    /// Panics if `x` or `y` does not have length [`DiaMatrix::dim`].
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n, "matvec: x length mismatch");
        assert_eq!(y.len(), self.n, "matvec: y length mismatch");
        y.fill(0.0);
        for (&k, vals) in self.offsets.iter().zip(&self.diagonals) {
            let len = vals.len();
            if k >= 0 {
                // y[t] += vals[t] * x[t + k]
                let shift = k as usize;
                for ((yi, v), xj) in y[..len].iter_mut().zip(vals).zip(&x[shift..]) {
                    *yi += v * xj;
                }
            } else {
                // y[t + |k|] += vals[t] * x[t]
                let shift = (-k) as usize;
                for ((yi, v), xj) in y[shift..].iter_mut().zip(vals).zip(&x[..len]) {
                    *yi += v * xj;
                }
            }
        }
    }

    /// Allocating variant of [`DiaMatrix::matvec`].
    pub fn matvec_alloc(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.matvec(x, &mut y);
        y
    }
}

impl crate::operator::LinearOperator for DiaMatrix {
    fn dim(&self) -> usize {
        self.n
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.matvec(x, y);
    }
}

/// Upper bound on the max-norm of the point-Jacobi iteration matrix
/// `M⁻¹N` of `a` (with `M = diag(a)`, `N = M − A`): the maximum over rows of
/// `Σ_{j≠i} |a_ij| / |a_ii|`.
///
/// The spectral radius is bounded by any induced norm, so a value `< 1`
/// certifies convergence of both the synchronous and the asynchronous Jacobi
/// iterations (El Tarazi / Bertsekas-Tsitsiklis conditions).
pub fn jacobi_contraction_bound(a: &CsrMatrix) -> f64 {
    let mut worst: f64 = 0.0;
    for i in 0..a.nrows() {
        let mut diag = 0.0;
        let mut off = 0.0;
        for (j, v) in a.row(i) {
            if j == i {
                diag = v.abs();
            } else {
                off += v.abs();
            }
        }
        if diag == 0.0 {
            return f64::INFINITY;
        }
        worst = worst.max(off / diag);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn generated_matrix_has_expected_shape_and_band() {
        let spec = BandedSpec {
            n: 50,
            bandwidth: 3,
            contraction: 0.8,
            seed: 7,
        };
        let a = spec.generate();
        assert_eq!(a.nrows(), 50);
        assert_eq!(a.ncols(), 50);
        assert_eq!(a.nnz(), spec.expected_nnz());
        // entries outside the band are structurally zero
        assert_eq!(a.get(0, 10), 0.0);
        assert_eq!(a.get(40, 10), 0.0);
    }

    #[test]
    fn contraction_bound_is_respected() {
        let spec = BandedSpec {
            n: 200,
            bandwidth: 5,
            contraction: 0.7,
            seed: 42,
        };
        let a = spec.generate();
        let rho = jacobi_contraction_bound(&a);
        assert!(rho <= 0.7 + 1e-12, "bound {rho} exceeds target");
        assert!(rho > 0.5, "bound {rho} suspiciously small");
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let spec = BandedSpec::paper(100, 3);
        assert_eq!(spec.generate(), spec.generate());
    }

    #[test]
    fn different_seeds_give_different_matrices() {
        let a = BandedSpec::paper(100, 1).generate();
        let b = BandedSpec::paper(100, 2).generate();
        assert_ne!(a, b);
    }

    #[test]
    fn paper_spec_uses_thirty_subdiagonals() {
        let spec = BandedSpec::paper(1000, 0);
        assert_eq!(spec.bandwidth, 30);
        assert!(spec.contraction < 1.0);
    }

    #[test]
    fn rhs_corresponds_to_exact_solution() {
        let spec = BandedSpec::paper(64, 5);
        let a = spec.generate();
        let (x_exact, b) = spec.generate_rhs(&a);
        let back = a.spmv_alloc(&x_exact);
        for i in 0..64 {
            assert!((back[i] - b[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn contraction_bound_detects_non_dominant_matrix() {
        let a = CsrMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 1, 5.0), (1, 1, 1.0)]);
        assert!(jacobi_contraction_bound(&a) > 1.0);
    }

    #[test]
    fn contraction_bound_is_infinite_for_zero_diagonal() {
        let a = CsrMatrix::from_triplets(2, 2, vec![(0, 1, 1.0), (1, 0, 1.0)]);
        assert!(jacobi_contraction_bound(&a).is_infinite());
    }

    #[test]
    fn scattered_spec_produces_spread_offsets() {
        let spec = ScatteredDiagonalsSpec::paper(1000, 0);
        let offsets = spec.offsets();
        assert!(
            offsets.len() >= 25,
            "expected ~30 distinct offsets, got {}",
            offsets.len()
        );
        assert!(
            offsets.iter().any(|&o| o > 500),
            "offsets must span the dimension"
        );
        assert!(offsets.iter().any(|&o| o < -500));
        assert!(!offsets.contains(&0));
    }

    #[test]
    fn scattered_matrix_contracts_and_couples_distant_blocks() {
        let spec = ScatteredDiagonalsSpec {
            n: 200,
            num_diagonals: 12,
            contraction: 0.8,
            seed: 5,
        };
        let a = spec.generate();
        assert_eq!(a.nrows(), 200);
        assert!(jacobi_contraction_bound(&a) <= 0.8 + 1e-9);
        // rows in the first block reference columns owned by the last block
        let deps = a.external_dependencies(0..50);
        assert!(
            deps.iter().any(|&c| c >= 150),
            "expected long-range coupling"
        );
    }

    #[test]
    fn scattered_matrix_gives_all_to_all_block_dependencies() {
        use crate::decomp::Partition;
        let spec = ScatteredDiagonalsSpec::paper(400, 3);
        let a = spec.generate();
        let p = Partition::balanced(400, 8);
        let deps = a.block_dependencies(&p);
        for (b, d) in deps.iter().enumerate() {
            assert_eq!(d.len(), 7, "block {b} should depend on all 7 other blocks");
        }
    }

    #[test]
    fn scattered_rhs_is_consistent_with_exact_solution() {
        let spec = ScatteredDiagonalsSpec::paper(128, 9);
        let a = spec.generate();
        let (x, b) = spec.generate_rhs(&a);
        let back = a.spmv_alloc(&x);
        for i in 0..128 {
            assert!((back[i] - b[i]).abs() < 1e-10);
        }
    }

    /// The generator as it was before it wrote CSR rows directly: every
    /// entry staged as a triplet, then sorted by `from_triplets`.
    fn generate_by_triplets(spec: &ScatteredDiagonalsSpec) -> CsrMatrix {
        let offsets = spec.offsets();
        let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
        let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
        for i in 0..spec.n {
            let mut off_sum = 0.0;
            let mut row: Vec<(usize, usize, f64)> = Vec::with_capacity(offsets.len() + 1);
            for &off in &offsets {
                let j = i as i64 + off;
                if j < 0 || j >= spec.n as i64 {
                    continue;
                }
                let magnitude: f64 = rng.gen_range(0.1..1.0);
                let sign = if (i + j as usize).is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                };
                let v = sign * magnitude;
                off_sum += v.abs();
                row.push((i, j as usize, v));
            }
            let diag = if off_sum > 0.0 {
                off_sum / spec.contraction
            } else {
                1.0
            };
            row.push((i, i, diag));
            triplets.extend(row);
        }
        CsrMatrix::from_triplets(spec.n, spec.n, triplets)
    }

    fn entry_bits(a: &CsrMatrix) -> Vec<(usize, usize, u64)> {
        a.triplets().map(|(i, j, v)| (i, j, v.to_bits())).collect()
    }

    #[test]
    fn offsets_collapse_on_small_matrices() {
        // more ranks than distinct offsets: `max(1)` and `dedup` merge them
        let spec = ScatteredDiagonalsSpec {
            n: 5,
            num_diagonals: 30,
            contraction: 0.9,
            seed: 0,
        };
        assert_eq!(spec.offsets(), vec![-4, -3, -2, -1, 1, 2, 3, 4]);
        assert_eq!(
            entry_bits(&spec.generate()),
            entry_bits(&generate_by_triplets(&spec))
        );
    }

    #[test]
    fn scattered_generation_is_deterministic() {
        let spec = ScatteredDiagonalsSpec::paper(150, 77);
        assert_eq!(spec.generate(), spec.generate());
    }

    #[test]
    fn dia_conversion_keeps_shape_and_diagonal_count() {
        let spec = BandedSpec {
            n: 40,
            bandwidth: 3,
            contraction: 0.8,
            seed: 11,
        };
        let dia = DiaMatrix::from_csr(&spec.generate());
        assert_eq!(dia.dim(), 40);
        // a full band of width 3 stores 2·3 + 1 diagonals
        assert_eq!(dia.num_diagonals(), 7);
        assert_eq!(dia.offsets(), &[-3, -2, -1, 0, 1, 2, 3]);
    }

    #[test]
    fn dia_matvec_of_the_identity_is_exact() {
        let dia = DiaMatrix::from_csr(&CsrMatrix::identity(5));
        let x = vec![1.0, -2.0, 3.5, 0.0, 7.0];
        assert_eq!(dia.matvec_alloc(&x), x);
    }

    #[test]
    fn dia_matvec_matches_hand_computed_band_product() {
        // [ 2 1 0 ]        x = [1, 2, 3]
        // [-1 2 1 ]   =>   y = [4, 6, 4]
        // [ 0 -1 2 ]
        let a = CsrMatrix::from_triplets(
            3,
            3,
            vec![
                (0, 0, 2.0),
                (0, 1, 1.0),
                (1, 0, -1.0),
                (1, 1, 2.0),
                (1, 2, 1.0),
                (2, 1, -1.0),
                (2, 2, 2.0),
            ],
        );
        let dia = DiaMatrix::from_csr(&a);
        assert_eq!(dia.matvec_alloc(&[1.0, 2.0, 3.0]), vec![4.0, 6.0, 4.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The direct CSR generator reproduces the triplet generator bit for
        /// bit: same draws in the same order, the diagonal in its sorted slot.
        #[test]
        fn prop_direct_generator_matches_the_triplet_reference(
            n in 2usize..400,
            num_diagonals in 1usize..40,
            contraction in 0.1f64..0.95,
            seed in 0u64..1_000_000,
        ) {
            let spec = ScatteredDiagonalsSpec { n, num_diagonals, contraction, seed };
            let direct = spec.generate();
            let reference = generate_by_triplets(&spec);
            prop_assert_eq!(direct.nnz(), reference.nnz());
            prop_assert_eq!(entry_bits(&direct), entry_bits(&reference));
        }
    }

    proptest! {
        /// DIA and CSR agree on the generated banded and scattered-diagonal
        /// families. Tolerance-based, not exact: the unrolled CSR row dot
        /// reorders within-row sums, while DIA accumulates per diagonal.
        #[test]
        fn prop_dia_matvec_matches_csr_spmv(
            n in 2usize..120,
            bw in 1usize..12,
            seed in 0u64..200,
        ) {
            use rand::{Rng, SeedableRng};
            let spec = BandedSpec { n, bandwidth: bw, contraction: 0.85, seed };
            let a = spec.generate();
            let dia = DiaMatrix::from_csr(&a);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD1A);
            let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let csr_y = a.spmv_alloc(&x);
            let dia_y = dia.matvec_alloc(&x);
            for i in 0..n {
                prop_assert!(
                    (csr_y[i] - dia_y[i]).abs() <= 1e-12 * (1.0 + csr_y[i].abs()),
                    "row {}: csr {} vs dia {}", i, csr_y[i], dia_y[i]
                );
            }
        }

        /// Every generated matrix honours its contraction bound, for any
        /// size / bandwidth / target combination.
        #[test]
        fn prop_generator_always_contracts(
            n in 1usize..150,
            bw in 1usize..20,
            contraction in 0.1f64..0.95,
            seed in 0u64..100,
        ) {
            let spec = BandedSpec { n, bandwidth: bw, contraction, seed };
            let a = spec.generate();
            prop_assert!(jacobi_contraction_bound(&a) <= contraction + 1e-9);
        }
    }
}
