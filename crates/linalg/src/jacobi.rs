//! Block-Jacobi preconditioning.
//!
//! The paper's sparse-linear solver iterates
//! `x_{k+1} = x_k + γ·M⁻¹·(b − A·x_k)` where `M` is the block-diagonal matrix
//! extracted from `A` according to the processor decomposition (Section 4.1).
//! [`BlockJacobi`] pre-factorises every diagonal block with LU on the
//! block's compressed rows, sliced out of `A` without a dense copy, and
//! keeps only the non-zeros of the factors: building it costs O(nnz + fill)
//! and the application of `M⁻¹` inside the iteration is a pair of sparse
//! triangular solves per block.

use crate::csr::CsrMatrix;
use crate::decomp::Partition;
use crate::dense::LuFactors;

/// The block-diagonal preconditioner `M⁻¹` induced by a partition of the rows.
pub struct BlockJacobi {
    partition: Partition,
    factors: Vec<LuFactors>,
}

impl BlockJacobi {
    /// Extracts and factorises every diagonal block of `a` according to
    /// `partition`.
    ///
    /// Returns `None` when one of the diagonal blocks is singular.
    ///
    /// # Panics
    /// Panics if `a` is not square or the partition does not cover it.
    pub fn new(a: &CsrMatrix, partition: &Partition) -> Option<Self> {
        assert_eq!(a.nrows(), a.ncols(), "BlockJacobi: matrix must be square");
        assert_eq!(
            a.nrows(),
            partition.len(),
            "BlockJacobi: partition mismatch"
        );
        let factors = partition
            .iter()
            .map(|(_, range)| LuFactors::factor(a.diagonal_block(range)))
            .collect::<Option<Vec<_>>>()?;
        Some(Self {
            partition: partition.clone(),
            factors,
        })
    }

    /// Point-Jacobi special case: one block per unknown (`M = diag(A)`).
    pub fn point(a: &CsrMatrix) -> Option<Self> {
        Self::new(a, &Partition::balanced(a.nrows(), a.nrows()))
    }

    /// Applies `y = M⁻¹·x` on the full vector.
    pub fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.partition.len(), "apply: x length mismatch");
        assert_eq!(y.len(), self.partition.len(), "apply: y length mismatch");
        for (b, range) in self.partition.iter() {
            self.factors[b].solve_into(&x[range.clone()], &mut y[range]);
        }
    }

    /// Applies the inverse of block `b` alone: `y_b = M_b⁻¹·x_b` where `x_b`
    /// is a block-local slice. This is what each processor of the AIAC solver
    /// calls on its own residual block.
    pub fn apply_block(&self, block: usize, x_local: &[f64]) -> Vec<f64> {
        let mut y_local = vec![0.0; x_local.len()];
        self.apply_block_into(block, x_local, &mut y_local);
        y_local
    }

    /// [`BlockJacobi::apply_block`] into the caller's `y_local`, without
    /// allocating.
    pub fn apply_block_into(&self, block: usize, x_local: &[f64], y_local: &mut [f64]) {
        assert!(
            block < self.factors.len(),
            "apply_block: block out of range"
        );
        assert_eq!(
            x_local.len(),
            self.partition.size(block),
            "apply_block: local length mismatch"
        );
        self.factors[block].solve_into(x_local, y_local);
    }

    /// Stored non-zeros of block `block`'s factors (see [`LuFactors::nnz`]).
    pub fn factor_nnz(&self, block: usize) -> usize {
        self.factors[block].nnz()
    }

    /// The partition this preconditioner was built for.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Number of diagonal blocks.
    pub fn blocks(&self) -> usize {
        self.factors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::banded::BandedSpec;
    use crate::norms::max_norm_diff;

    fn tridiag(n: usize) -> CsrMatrix {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 4.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        CsrMatrix::from_triplets(n, n, t)
    }

    #[test]
    fn point_jacobi_divides_by_diagonal() {
        let a = tridiag(4);
        let m = BlockJacobi::point(&a).unwrap();
        let mut y = vec![0.0; 4];
        m.apply(&[4.0, 8.0, -4.0, 2.0], &mut y);
        assert_eq!(y, vec![1.0, 2.0, -1.0, 0.5]);
    }

    #[test]
    fn single_block_jacobi_is_a_direct_solve() {
        let a = tridiag(5);
        let p = Partition::balanced(5, 1);
        let m = BlockJacobi::new(&a, &p).unwrap();
        let b = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let mut x = vec![0.0; 5];
        m.apply(&b, &mut x);
        // With one block, M = A, so A·x must equal b.
        let back = a.spmv_alloc(&x);
        assert!(max_norm_diff(&back, &b) < 1e-10);
    }

    #[test]
    fn apply_block_matches_full_apply() {
        let a = BandedSpec::paper(40, 11).generate();
        let p = Partition::balanced(40, 4);
        let m = BlockJacobi::new(&a, &p).unwrap();
        let x: Vec<f64> = (0..40).map(|i| (i as f64).sin()).collect();
        let mut full = vec![0.0; 40];
        m.apply(&x, &mut full);
        for (b, range) in p.iter() {
            let local = m.apply_block(b, &x[range.clone()]);
            assert_eq!(local, &full[range.clone()]);
            let mut into = vec![f64::NAN; range.len()];
            m.apply_block_into(b, &x[range.clone()], &mut into);
            assert_eq!(into, local);
        }
    }

    #[test]
    fn singular_block_is_reported() {
        // 2x2 zero block on the diagonal
        let a = CsrMatrix::from_triplets(2, 2, vec![(0, 1, 1.0), (1, 0, 1.0)]);
        let p = Partition::balanced(2, 2);
        assert!(BlockJacobi::new(&a, &p).is_none());
    }

    #[test]
    fn block_jacobi_iteration_converges_on_dominant_matrix() {
        // x_{k+1} = x_k + M^{-1} (b - A x_k) must converge when A is
        // strictly diagonally dominant.
        let spec = BandedSpec {
            n: 60,
            bandwidth: 4,
            contraction: 0.6,
            seed: 3,
        };
        let a = spec.generate();
        let (x_exact, b) = spec.generate_rhs(&a);
        let p = Partition::balanced(60, 3);
        let m = BlockJacobi::new(&a, &p).unwrap();
        let mut x = vec![0.0; 60];
        for _ in 0..200 {
            let ax = a.spmv_alloc(&x);
            let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
            let mut corr = vec![0.0; 60];
            m.apply(&r, &mut corr);
            for i in 0..60 {
                x[i] += corr[i];
            }
        }
        assert!(max_norm_diff(&x, &x_exact) < 1e-8);
    }
}
