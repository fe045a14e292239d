//! Vector norms and residual measures.
//!
//! The AIAC convergence detection of the paper uses the max norm of the
//! difference between two consecutive local iterates
//! (`residual_i^t = ||X_i^t − X_i^{t−1}||_∞`, Section 1.2); [`max_norm_diff`]
//! computes exactly that quantity without materialising the difference vector.

/// Max norm (infinity norm) `||x||_∞ = max_i |x_i|`.
///
/// Returns `0.0` for the empty vector.
pub fn max_norm(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |acc, v| acc.max(v.abs()))
}

/// The larger of `a` and `b`, or NaN when either is NaN.
///
/// `f64::max` returns the other argument when one is NaN, so a residual fold
/// over it reads a block that overflowed into NaN as residual 0, which is
/// below any ε. This fold keeps the NaN, and `NaN < ε` is false. On every
/// other input it returns `f64::max`'s bits.
pub fn nan_max(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else {
        a.max(b)
    }
}

/// Euclidean norm `||x||_2`.
pub fn l2_norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// One norm `||x||_1 = Σ_i |x_i|`.
pub fn l1_norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).sum()
}

/// Max norm of the difference of two vectors, `||x − y||_∞`, computed without
/// allocating the difference.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn max_norm_diff(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "max_norm_diff: length mismatch");
    x.iter()
        .zip(y.iter())
        .fold(0.0_f64, |acc, (a, b)| acc.max((a - b).abs()))
}

/// Euclidean norm of the difference of two vectors, `||x − y||_2`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn l2_norm_diff(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "l2_norm_diff: length mismatch");
    x.iter()
        .zip(y.iter())
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt()
}

/// Relative max-norm difference `||x − y||_∞ / max(||y||_∞, floor)`.
///
/// The `floor` guards against division by zero when the reference vector is
/// (numerically) zero; `1e-300` keeps the measure meaningful for tiny but
/// non-zero references.
pub fn relative_max_norm_diff(x: &[f64], y: &[f64], floor: f64) -> f64 {
    max_norm_diff(x, y) / max_norm(y).max(floor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_norm_picks_largest_magnitude() {
        assert_eq!(max_norm(&[1.0, -7.5, 3.0]), 7.5);
    }

    #[test]
    fn max_norm_of_empty_vector_is_zero() {
        assert_eq!(max_norm(&[]), 0.0);
    }

    #[test]
    fn l2_norm_of_345_triangle() {
        assert!((l2_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn l1_norm_sums_magnitudes() {
        assert_eq!(l1_norm(&[1.0, -2.0, 3.0]), 6.0);
    }

    #[test]
    fn max_norm_diff_matches_explicit_subtraction() {
        let x = [1.0, 2.0, 3.0];
        let y = [1.5, 0.0, 3.25];
        assert_eq!(max_norm_diff(&x, &y), 2.0);
    }

    #[test]
    fn l2_norm_diff_matches_explicit_subtraction() {
        let x = [3.0, 0.0];
        let y = [0.0, 4.0];
        assert!((l2_norm_diff(&x, &y) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn relative_diff_uses_reference_scale() {
        let x = [2.0];
        let y = [1.0];
        assert!((relative_max_norm_diff(&x, &y, 1e-300) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn relative_diff_floor_prevents_division_by_zero() {
        let v = relative_max_norm_diff(&[1.0], &[0.0], 1.0);
        assert_eq!(v, 1.0);
    }

    #[test]
    fn nan_max_keeps_nan_and_is_f64_max_elsewhere() {
        assert!(nan_max(f64::NAN, 1.0).is_nan());
        assert!(nan_max(1.0, f64::NAN).is_nan());
        assert_eq!(0.0f64.max(f64::NAN), 0.0, "the fold this replaces");
        let samples = [0.0, 1e-300, 2.5, f64::MAX, f64::INFINITY, -3.0];
        for a in samples {
            for b in samples {
                assert_eq!(nan_max(a, b).to_bits(), a.max(b).to_bits(), "{a} {b}");
            }
        }
    }

    #[test]
    fn norm_ordering_l_inf_le_l2_le_l1() {
        let x = [1.0, -2.0, 0.5, 3.0];
        assert!(max_norm(&x) <= l2_norm(&x) + 1e-15);
        assert!(l2_norm(&x) <= l1_norm(&x) + 1e-15);
    }
}
