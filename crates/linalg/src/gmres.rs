//! Restarted GMRES.
//!
//! The non-linear chemical benchmark solves the linear system produced by
//! every Newton step with "the iterative method of GMRES" used as a
//! *sequential* solver inside each processor's sub-domain (Section 4.2, the
//! multi-splitting Newton approach). This module implements GMRES(m) with
//! modified Gram–Schmidt Arnoldi and Givens rotations, written against the
//! [`LinearOperator`] trait so it works on CSR blocks, dense Jacobians and
//! matrix-free operators alike.
//!
//! A solve takes its buffers from a [`GmresWorkspace`]: the Arnoldi basis is
//! one flat `(m+1)·n` array in which `A·v_j` is written straight into slot
//! `j+1` and orthogonalised there, the Hessenberg matrix is one flat
//! column-major array, and the Givens rotations, the rotated right-hand side
//! and the least-squares solution are reused vectors. A caller that solves
//! once per Newton iteration keeps one workspace ([`Gmres::solve_into`]) and
//! allocates nothing after the first solve; [`Gmres::solve`] is the same
//! loop over a fresh workspace.

use crate::norms::l2_norm;
use crate::operator::LinearOperator;
use crate::vector::{axpy, dot};
use serde::{Deserialize, Serialize};

/// Parameters of the restarted GMRES solver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GmresParams {
    /// Restart length `m` (dimension of the Krylov subspace built before a
    /// restart).
    pub restart: usize,
    /// Relative residual tolerance: convergence is declared when
    /// `||b − A·x||₂ ≤ tol · ||b||₂` (or the absolute residual drops below
    /// `abs_tol` for zero right-hand sides).
    pub tol: f64,
    /// Absolute residual floor used when `||b||₂` is (numerically) zero.
    pub abs_tol: f64,
    /// Maximum number of outer restarts.
    pub max_restarts: usize,
}

impl Default for GmresParams {
    fn default() -> Self {
        Self {
            restart: 30,
            tol: 1e-10,
            abs_tol: 1e-14,
            max_restarts: 200,
        }
    }
}

/// Result of a GMRES solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GmresOutcome {
    /// Whether the residual tolerance was reached.
    pub converged: bool,
    /// Number of matrix-vector products performed.
    pub matvecs: usize,
    /// Final (estimated) residual norm `||b − A·x||₂`.
    pub residual: f64,
    /// Number of outer restart cycles used.
    pub restarts: usize,
}

/// Restarted GMRES solver.
#[derive(Debug, Clone)]
pub struct Gmres {
    params: GmresParams,
}

impl Gmres {
    /// Creates a solver with the given parameters.
    pub fn new(params: GmresParams) -> Self {
        assert!(params.restart > 0, "GmresParams: restart must be positive");
        assert!(params.tol > 0.0, "GmresParams: tol must be positive");
        Self { params }
    }

    /// Creates a solver with default parameters.
    pub fn with_defaults() -> Self {
        Self::new(GmresParams::default())
    }

    /// The parameters in use.
    pub fn params(&self) -> &GmresParams {
        &self.params
    }

    /// Solves `A·x = b`, starting from the initial guess already stored in
    /// `x`, updating `x` in place. Allocates a fresh workspace; a caller that
    /// solves repeatedly keeps one and calls [`Gmres::solve_into`].
    pub fn solve<A: LinearOperator + ?Sized>(
        &self,
        a: &A,
        b: &[f64],
        x: &mut [f64],
    ) -> GmresOutcome {
        self.solve_into(a, b, x, &mut GmresWorkspace::new())
    }

    /// Solves `A·x = b` like [`Gmres::solve`], with every buffer taken from
    /// `ws`. Once `ws` has been sized for a system at least this large (by an
    /// earlier solve or by [`GmresWorkspace::reserve`]) the solve allocates
    /// nothing. Whatever an earlier solve left in `ws` is overwritten before
    /// it is read.
    pub fn solve_into<A: LinearOperator + ?Sized>(
        &self,
        a: &A,
        b: &[f64],
        x: &mut [f64],
        ws: &mut GmresWorkspace,
    ) -> GmresOutcome {
        let n = a.dim();
        assert_eq!(b.len(), n, "gmres: rhs length mismatch");
        assert_eq!(x.len(), n, "gmres: solution length mismatch");
        let m = self.params.restart.min(n.max(1));
        ws.reserve(n, m);
        let b_norm = l2_norm(b);
        let target = if b_norm > 0.0 {
            self.params.tol * b_norm
        } else {
            self.params.abs_tol
        };

        let mut matvecs = 0usize;
        let mut residual = f64::INFINITY;
        // Arnoldi basis: vector j is `basis[j·n..(j+1)·n]`. Hessenberg
        // column j is `hess[j·(m+1)..]`, of which j+2 entries are used.
        let basis = &mut ws.basis[..(m + 1) * n];
        let hess = &mut ws.hess[..m * (m + 1)];
        let (cs, sn) = (&mut ws.cs[..m], &mut ws.sn[..m]);
        let g = &mut ws.g[..m + 1];

        for restart in 0..self.params.max_restarts {
            // r = b - A x, built in basis slot 0
            let r = &mut basis[..n];
            a.apply(x, r);
            matvecs += 1;
            for (ri, bi) in r.iter_mut().zip(b) {
                *ri = bi - *ri;
            }
            let beta = l2_norm(r);
            residual = beta;
            if beta <= target {
                return GmresOutcome {
                    converged: true,
                    matvecs,
                    residual,
                    restarts: restart,
                };
            }
            for ri in r.iter_mut() {
                *ri /= beta;
            }
            g[0] = beta;

            let mut k_used = 0usize;
            for j in 0..m {
                // w = A v_j, straight into slot j+1
                let (done, rest) = basis.split_at_mut((j + 1) * n);
                let w = &mut rest[..n];
                a.apply(&done[j * n..], w);
                matvecs += 1;
                // modified Gram-Schmidt
                let h = &mut hess[j * (m + 1)..j * (m + 1) + j + 2];
                for i in 0..=j {
                    let v = &done[i * n..(i + 1) * n];
                    let hij = dot(w, v);
                    h[i] = hij;
                    axpy(-hij, v, w);
                }
                let w_norm = l2_norm(w);
                h[j + 1] = w_norm;

                // apply existing rotations to the new column
                for i in 0..j {
                    let temp = cs[i] * h[i] + sn[i] * h[i + 1];
                    h[i + 1] = -sn[i] * h[i] + cs[i] * h[i + 1];
                    h[i] = temp;
                }
                // new rotation annihilating h[j+1]
                let (c, s) = givens(h[j], h[j + 1]);
                cs[j] = c;
                sn[j] = s;
                h[j] = c * h[j] + s * h[j + 1];
                h[j + 1] = 0.0;
                g[j + 1] = -s * g[j];
                g[j] *= c;
                k_used = j + 1;

                residual = g[j + 1].abs();
                let breakdown = w_norm < 1e-300;
                if !breakdown {
                    for wi in w.iter_mut() {
                        *wi /= w_norm;
                    }
                }
                if residual <= target || breakdown {
                    break;
                }
            }

            // back-substitution for y in the k_used x k_used triangular system
            let y = &mut ws.y[..k_used];
            for i in (0..k_used).rev() {
                let mut acc = g[i];
                for (jj, yj) in y.iter().enumerate().skip(i + 1) {
                    acc -= hess[jj * (m + 1) + i] * yj;
                }
                y[i] = acc / hess[i * (m + 1) + i];
            }
            // x += V y
            for (i, yi) in y.iter().enumerate() {
                axpy(*yi, &basis[i * n..(i + 1) * n], x);
            }

            if residual <= target {
                return GmresOutcome {
                    converged: true,
                    matvecs,
                    residual,
                    restarts: restart + 1,
                };
            }
        }

        GmresOutcome {
            converged: residual <= target,
            matvecs,
            residual,
            restarts: self.params.max_restarts,
        }
    }

    /// Convenience wrapper starting from the zero vector.
    pub fn solve_from_zero<A: LinearOperator + ?Sized>(
        &self,
        a: &A,
        b: &[f64],
    ) -> (Vec<f64>, GmresOutcome) {
        let mut x = vec![0.0; a.dim()];
        let outcome = self.solve(a, b, &mut x);
        (x, outcome)
    }
}

/// The buffers of one GMRES(m) solve, kept between solves so a caller that
/// solves many systems (one per Newton iteration, say) allocates them once.
///
/// The buffers only grow: a workspace sized for `n` unknowns serves every
/// smaller system without allocating.
#[derive(Debug, Clone, Default)]
pub struct GmresWorkspace {
    /// `m+1` Arnoldi vectors of length `n`, one after another.
    basis: Vec<f64>,
    /// The `(m+1) × m` Hessenberg matrix, column-major.
    hess: Vec<f64>,
    /// Givens rotation cosines.
    cs: Vec<f64>,
    /// Givens rotation sines.
    sn: Vec<f64>,
    /// The rotated right-hand side `β·e₁`.
    g: Vec<f64>,
    /// The least-squares solution of the Hessenberg system.
    y: Vec<f64>,
}

impl GmresWorkspace {
    /// An empty workspace; the first solve sizes it.
    pub const fn new() -> Self {
        Self {
            basis: Vec::new(),
            hess: Vec::new(),
            cs: Vec::new(),
            sn: Vec::new(),
            g: Vec::new(),
            y: Vec::new(),
        }
    }

    /// Grows the buffers so that solving a system of up to `n` unknowns with
    /// restart length `restart` allocates nothing.
    pub fn reserve(&mut self, n: usize, restart: usize) {
        let m = restart.min(n.max(1));
        grow(&mut self.basis, (m + 1) * n);
        grow(&mut self.hess, m * (m + 1));
        grow(&mut self.cs, m);
        grow(&mut self.sn, m);
        grow(&mut self.g, m + 1);
        grow(&mut self.y, m);
    }
}

/// Lengthens `buf` to at least `len` entries; never shrinks it.
fn grow(buf: &mut Vec<f64>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// Computes a Givens rotation `(c, s)` such that
/// `[c s; -s c]·[a; b] = [r; 0]`.
fn givens(a: f64, b: f64) -> (f64, f64) {
    if b == 0.0 {
        (1.0, 0.0)
    } else if a == 0.0 {
        (0.0, 1.0)
    } else {
        let r = a.hypot(b);
        (a / r, b / r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::banded::BandedSpec;
    use crate::csr::CsrMatrix;
    use crate::dense::DenseMatrix;
    use crate::norms::max_norm_diff;
    use crate::vector::{axpy, dot};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The GMRES(m) loop as it was before [`GmresWorkspace`]: a `Vec` per
    /// Arnoldi vector and per Hessenberg column. [`Gmres::solve_into`] must
    /// reproduce it bit for bit.
    fn reference_solve<A: LinearOperator + ?Sized>(
        params: &GmresParams,
        a: &A,
        b: &[f64],
        x: &mut [f64],
    ) -> GmresOutcome {
        let n = a.dim();
        let m = params.restart.min(n.max(1));
        let b_norm = l2_norm(b);
        let target = if b_norm > 0.0 {
            params.tol * b_norm
        } else {
            params.abs_tol
        };
        let mut matvecs = 0usize;
        let mut residual = f64::INFINITY;
        let mut work = vec![0.0; n];
        for restart in 0..params.max_restarts {
            a.apply(x, &mut work);
            matvecs += 1;
            let mut r: Vec<f64> = b.iter().zip(&work).map(|(bi, wi)| bi - wi).collect();
            let beta = l2_norm(&r);
            residual = beta;
            if beta <= target {
                return GmresOutcome {
                    converged: true,
                    matvecs,
                    residual,
                    restarts: restart,
                };
            }
            for ri in r.iter_mut() {
                *ri /= beta;
            }
            let mut basis: Vec<Vec<f64>> = vec![r];
            let mut h_cols: Vec<Vec<f64>> = Vec::new();
            let mut cs = vec![0.0f64; m];
            let mut sn = vec![0.0f64; m];
            let mut g = vec![0.0f64; m + 1];
            g[0] = beta;
            let mut k_used = 0usize;
            for j in 0..m {
                a.apply(&basis[j], &mut work);
                matvecs += 1;
                let mut w = work.clone();
                let mut h = vec![0.0; j + 2];
                for (i, v) in basis.iter().enumerate().take(j + 1) {
                    let hij = dot(&w, v);
                    h[i] = hij;
                    axpy(-hij, v, &mut w);
                }
                let w_norm = l2_norm(&w);
                h[j + 1] = w_norm;
                for i in 0..j {
                    let temp = cs[i] * h[i] + sn[i] * h[i + 1];
                    h[i + 1] = -sn[i] * h[i] + cs[i] * h[i + 1];
                    h[i] = temp;
                }
                let (c, s) = givens(h[j], h[j + 1]);
                cs[j] = c;
                sn[j] = s;
                h[j] = c * h[j] + s * h[j + 1];
                h[j + 1] = 0.0;
                g[j + 1] = -s * g[j];
                g[j] *= c;
                h_cols.push(h);
                k_used = j + 1;
                residual = g[j + 1].abs();
                let breakdown = w_norm < 1e-300;
                if !breakdown {
                    for wi in w.iter_mut() {
                        *wi /= w_norm;
                    }
                    basis.push(w);
                }
                if residual <= target || breakdown {
                    break;
                }
            }
            let mut y = vec![0.0; k_used];
            for i in (0..k_used).rev() {
                let mut acc = g[i];
                for (jj, yj) in y.iter().enumerate().skip(i + 1) {
                    acc -= h_cols[jj][i] * yj;
                }
                y[i] = acc / h_cols[i][i];
            }
            for (i, yi) in y.iter().enumerate() {
                axpy(*yi, &basis[i], x);
            }
            if residual <= target {
                return GmresOutcome {
                    converged: true,
                    matvecs,
                    residual,
                    restarts: restart + 1,
                };
            }
        }
        GmresOutcome {
            converged: residual <= target,
            matvecs,
            residual,
            restarts: params.max_restarts,
        }
    }

    /// A random strictly diagonally-dominant `n × n` matrix.
    fn dominant_matrix(n: usize, rng: &mut impl Rng) -> CsrMatrix {
        let mut triplets = Vec::new();
        for i in 0..n {
            let mut off = 0.0;
            for j in 0..n {
                if i != j && rng.gen_bool(0.3) {
                    let v: f64 = rng.gen_range(-1.0..1.0);
                    off += v.abs();
                    triplets.push((i, j, v));
                }
            }
            triplets.push((i, i, off + 1.0));
        }
        CsrMatrix::from_triplets(n, n, triplets)
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn givens_rotation_annihilates_second_component() {
        let (c, s) = givens(3.0, 4.0);
        assert!((c * 3.0 + s * 4.0 - 5.0).abs() < 1e-12);
        assert!((-s * 3.0 + c * 4.0).abs() < 1e-12);
    }

    #[test]
    fn solves_identity_system_in_one_iteration() {
        let a = CsrMatrix::identity(10);
        let b: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let (x, out) = Gmres::with_defaults().solve_from_zero(&a, &b);
        assert!(out.converged);
        assert!(max_norm_diff(&x, &b) < 1e-10);
    }

    #[test]
    fn solves_small_dense_system() {
        let a = DenseMatrix::from_rows(3, 3, vec![4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0]);
        let b = vec![1.0, 2.0, 3.0];
        let (x, out) = Gmres::with_defaults().solve_from_zero(&a, &b);
        assert!(out.converged);
        let exact = a.solve(&b).unwrap();
        assert!(max_norm_diff(&x, &exact) < 1e-8);
    }

    #[test]
    fn solves_banded_system_to_tolerance() {
        let spec = BandedSpec::paper(200, 17);
        let a = spec.generate();
        let (x_exact, b) = spec.generate_rhs(&a);
        let (x, out) = Gmres::with_defaults().solve_from_zero(&a, &b);
        assert!(out.converged, "residual {}", out.residual);
        assert!(max_norm_diff(&x, &x_exact) < 1e-6);
    }

    #[test]
    fn restart_path_is_exercised() {
        // restart shorter than the problem size forces outer cycles
        let spec = BandedSpec::paper(120, 23);
        let a = spec.generate();
        let (x_exact, b) = spec.generate_rhs(&a);
        let gmres = Gmres::new(GmresParams {
            restart: 5,
            tol: 1e-10,
            abs_tol: 1e-14,
            max_restarts: 500,
        });
        let (x, out) = gmres.solve_from_zero(&a, &b);
        assert!(out.converged);
        assert!(out.restarts >= 1);
        assert!(max_norm_diff(&x, &x_exact) < 1e-6);
    }

    #[test]
    fn zero_rhs_returns_zero_solution() {
        let a = CsrMatrix::identity(5);
        let (x, out) = Gmres::with_defaults().solve_from_zero(&a, &[0.0; 5]);
        assert!(out.converged);
        assert!(max_norm_diff(&x, &[0.0; 5]) < 1e-14);
    }

    #[test]
    fn warm_start_is_respected() {
        let spec = BandedSpec::paper(80, 2);
        let a = spec.generate();
        let (x_exact, b) = spec.generate_rhs(&a);
        let gmres = Gmres::with_defaults();
        // starting from the exact solution requires no work beyond the
        // residual check
        let mut x = x_exact.clone();
        let out = gmres.solve(&a, &b, &mut x);
        assert!(out.converged);
        assert_eq!(out.matvecs, 1);
    }

    #[test]
    fn iteration_limit_is_honoured() {
        let spec = BandedSpec::paper(100, 9);
        let a = spec.generate();
        let (_, b) = spec.generate_rhs(&a);
        let gmres = Gmres::new(GmresParams {
            restart: 2,
            tol: 1e-14,
            abs_tol: 1e-16,
            max_restarts: 1,
        });
        let (_, out) = gmres.solve_from_zero(&a, &b);
        assert_eq!(out.restarts, 1);
        // cannot have performed more than restart+1 matvecs per cycle + final
        assert!(out.matvecs <= 2 * (2 + 1));
    }

    proptest! {
        /// GMRES reduces the residual on random diagonally-dominant systems
        /// and reaches the requested tolerance.
        #[test]
        fn prop_gmres_converges_on_dominant_systems(n in 2usize..40, seed in 0u64..200) {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let a = dominant_matrix(n, &mut rng);
            let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let b = a.spmv_alloc(&x_true);
            let (x, out) = Gmres::with_defaults().solve_from_zero(&a, &b);
            prop_assert!(out.converged);
            prop_assert!(max_norm_diff(&x, &x_true) < 1e-5);
        }

        /// `solve_into` is the reference loop, bit for bit, with one
        /// workspace carried from an n = 40 solve into an n = 10 solve whose
        /// restart exceeds n, so every buffer it reads holds stale data from
        /// the larger solve.
        #[test]
        fn prop_solve_into_matches_the_reference_loop_bit_for_bit(
            seed in 0u64..200,
            restart in 1usize..12,
            tol_exp in 2i32..12,
        ) {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut ws = GmresWorkspace::new();
            for (n, restart) in [(40, restart), (10, restart + 20)] {
                let a = dominant_matrix(n, &mut rng);
                let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let x0: Vec<f64> = (0..n).map(|_| rng.gen_range(-0.1..0.1)).collect();
                let params = GmresParams {
                    restart,
                    tol: 10f64.powi(-tol_exp),
                    abs_tol: 1e-14,
                    max_restarts: 4,
                };
                let mut x = x0.clone();
                let out = Gmres::new(params).solve_into(&a, &b, &mut x, &mut ws);
                let mut x_ref = x0;
                let out_ref = reference_solve(&params, &a, &b, &mut x_ref);
                prop_assert_eq!(bits(&x), bits(&x_ref), "n = {}", n);
                prop_assert_eq!(out.residual.to_bits(), out_ref.residual.to_bits());
                prop_assert_eq!(
                    (out.converged, out.matvecs, out.restarts),
                    (out_ref.converged, out_ref.matvecs, out_ref.restarts)
                );
            }
        }
    }
}
