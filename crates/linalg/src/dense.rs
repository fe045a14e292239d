//! Small dense matrices, and the LU factorisation with partial pivoting that
//! both they and the block-Jacobi preconditioner use.
//!
//! [`LuFactors`] eliminates on compressed rows and stores only non-zeros, so
//! a diagonal block of the paper's matrices (10⁴–10⁵ rows in the paper, a
//! few non-zeros each) factors in time and memory proportional to its
//! non-zeros plus the fill, never to m². [`DenseMatrix::lu`] hands it a
//! dense matrix's non-zeros. The dense elimination survives only as the
//! test reference the compressed one must match bit for bit. Dense matrices
//! themselves are small: test systems and the like, not large problems.

use crate::csr::CsrMatrix;
use crate::operator::LinearOperator;
use serde::{Deserialize, Serialize};

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// A zero matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// The identity matrix of dimension `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != nrows * ncols`.
    pub fn from_rows(nrows: usize, ncols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), nrows * ncols, "from_rows: data length mismatch");
        Self { nrows, ncols, data }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Matrix-vector product `y = A·x`.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "matvec: x length mismatch");
        assert_eq!(y.len(), self.nrows, "matvec: y length mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &self.data[i * self.ncols..(i + 1) * self.ncols];
            *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
    }

    /// Allocating variant of [`DenseMatrix::matvec`].
    pub fn matvec_alloc(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.matvec(x, &mut y);
        y
    }

    /// Matrix-matrix product `A·B`.
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.ncols, other.nrows, "matmul: inner dimension mismatch");
        let mut out = DenseMatrix::zeros(self.nrows, other.ncols);
        for i in 0..self.nrows {
            for k in 0..self.ncols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.ncols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Computes an LU factorisation with partial pivoting, on the matrix's
    /// non-zeros (see [`LuFactors`]).
    ///
    /// Returns `None` when the matrix is (numerically) singular.
    pub fn lu(&self) -> Option<LuFactors> {
        assert_eq!(self.nrows, self.ncols, "lu: matrix must be square");
        let n = self.nrows;
        let (mut row_ptr, mut cols, mut vals) = (vec![0], Vec::new(), Vec::new());
        // `max(1)`: a 0 × 0 matrix has no rows, and a zero chunk length panics
        for row in self.data.chunks_exact(n.max(1)) {
            for (j, &v) in row.iter().enumerate().filter(|(_, v)| **v != 0.0) {
                cols.push(j);
                vals.push(v);
            }
            row_ptr.push(cols.len());
        }
        LuFactors::factor(CsrMatrix::from_raw(n, n, row_ptr, cols, vals))
    }

    /// Solves `A·x = b` via LU with partial pivoting.
    ///
    /// Returns `None` when the matrix is singular.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        self.lu().map(|f| f.solve(b))
    }

    /// The inverse matrix, if it exists.
    pub fn inverse(&self) -> Option<DenseMatrix> {
        let f = self.lu()?;
        let n = self.nrows;
        let mut inv = DenseMatrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e.iter_mut().for_each(|v| *v = 0.0);
            e[j] = 1.0;
            let col = f.solve(&e);
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
        }
        Some(inv)
    }

    /// Transposes the matrix.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.ncols, self.nrows);
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Maximum absolute entry of the matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |acc, v| acc.max(v.abs()))
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.ncols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.ncols + j]
    }
}

impl LinearOperator for DenseMatrix {
    fn dim(&self) -> usize {
        assert_eq!(
            self.nrows, self.ncols,
            "LinearOperator requires a square matrix"
        );
        self.nrows
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.matvec(x, y);
    }
}

/// The non-zeros of a strictly triangular factor, compressed by row with
/// ascending column indices inside each row.
#[derive(Debug, Clone)]
struct TriangleRows {
    /// Row `i` owns `cols[ptr[i]..ptr[i + 1]]` / `vals[ptr[i]..ptr[i + 1]]`.
    ptr: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl TriangleRows {
    /// The non-zeros of `rows`, row by row, in exactly sized arrays.
    fn compress<'a>(rows: impl Iterator<Item = (&'a [usize], &'a [f64])> + Clone) -> Self {
        let non_zero = |v: &&f64| **v != 0.0;
        let nnz = rows
            .clone()
            .map(|(_, v)| v.iter().filter(non_zero).count())
            .sum();
        let mut ptr = Vec::with_capacity(rows.size_hint().0 + 1);
        let mut cols = Vec::with_capacity(nnz);
        let mut vals = Vec::with_capacity(nnz);
        ptr.push(0);
        for (row_cols, row_vals) in rows {
            for (&j, v) in row_cols.iter().zip(row_vals).filter(|(_, v)| non_zero(v)) {
                cols.push(j);
                vals.push(*v);
            }
            ptr.push(cols.len());
        }
        Self { ptr, cols, vals }
    }

    /// `Σ_j row_i[j] · x[j]` over the stored non-zeros, accumulated strictly
    /// left to right (no unrolling): a walk over the dense row adds the same
    /// products in the same order plus `0 · x[j]` terms that change nothing,
    /// so compressing the factors moves no bit of a non-zero result.
    #[inline]
    fn dot(&self, i: usize, x: &[f64]) -> f64 {
        let (lo, hi) = (self.ptr[i], self.ptr[i + 1]);
        self.vals[lo..hi]
            .iter()
            .zip(&self.cols[lo..hi])
            .map(|(v, &j)| v * x[j])
            .sum()
    }
}

/// Ends a column's list of rows.
const END: usize = usize::MAX;

/// A matrix under elimination, compressed by row with ascending columns,
/// and for every column the list of rows with an entry in it.
///
/// Columns are eliminated in ascending order, so an active row's first
/// entry is always in the column being eliminated: eliminating it writes
/// the multiplier in its place and steps `lo` past it. A row's slot thus
/// holds its row of L, then its entries still to eliminate (the pivot and
/// its row of U once it is chosen), then room for fill. A row that
/// outgrows its slot moves to the end of the arrays, into one twice its new
/// length.
struct ActiveRows {
    /// Row `r`'s multipliers are `cols[start[r]..lo[r]]` /
    /// `vals[start[r]..lo[r]]`, its other entries `lo[r]..hi[r]`; its slot
    /// runs on to `end[r]`.
    start: Vec<usize>,
    lo: Vec<usize>,
    hi: Vec<usize>,
    end: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
    /// Column `j`'s rows: `row_of[e]` for `e = head[j]`, `next[e]`, ... up
    /// to [`END`]. Rows already pivoted stay listed; the walks skip them.
    head: Vec<usize>,
    next: Vec<usize>,
    row_of: Vec<usize>,
}

impl ActiveRows {
    fn new(a: CsrMatrix) -> Self {
        let n = a.nrows();
        let (row_ptr, cols, vals) = a.into_raw();
        let mut rows = Self {
            start: row_ptr[..n].to_vec(),
            lo: row_ptr[..n].to_vec(),
            hi: row_ptr[1..].to_vec(),
            end: row_ptr[1..].to_vec(),
            head: vec![END; n],
            next: Vec::with_capacity(cols.len()),
            row_of: Vec::with_capacity(cols.len()),
            cols,
            vals,
        };
        for r in 0..n {
            for e in row_ptr[r]..row_ptr[r + 1] {
                rows.list(rows.cols[e], r);
            }
        }
        rows
    }

    /// Adds row `r` to column `j`'s list.
    fn list(&mut self, j: usize, r: usize) {
        self.next.push(self.head[j]);
        self.row_of.push(r);
        self.head[j] = self.row_of.len() - 1;
    }

    /// The value of row `r`'s first entry if it lies in column `k`, else 0.
    fn leading(&self, r: usize, k: usize) -> f64 {
        let lo = self.lo[r];
        if lo < self.hi[r] && self.cols[lo] == k {
            self.vals[lo]
        } else {
            0.0
        }
    }

    /// `row_r[j] -= f · u_j` for every `(j, u_j)` of the compressed row `u`,
    /// where a column `row_r` lacks counts as a zero entry (fill).
    fn subtract(&mut self, r: usize, f: f64, u_cols: &[usize], u_vals: &[f64]) {
        let (lo, hi) = (self.lo[r], self.hi[r]);
        let mut fill = 0;
        let mut p = lo;
        for (&j, &u) in u_cols.iter().zip(u_vals) {
            while p < hi && self.cols[p] < j {
                p += 1;
            }
            if p < hi && self.cols[p] == j {
                self.vals[p] -= f * u;
            } else {
                fill += 1;
            }
        }
        if fill == 0 {
            return;
        }
        let len = hi - lo + fill;
        if lo + len > self.end[r] {
            let (from, to) = (self.start[r], self.cols.len());
            let size = 2 * (lo - from + len);
            self.cols.extend_from_within(from..hi);
            self.vals.extend_from_within(from..hi);
            self.cols.resize(to + size, 0);
            self.vals.resize(to + size, 0.0);
            self.start[r] = to;
            self.lo[r] = to + lo - from;
            self.hi[r] = to + hi - from;
            self.end[r] = to + size;
        }
        // Merge the fill in from the back, so nothing is overwritten before
        // it has been moved.
        let lo = self.lo[r];
        let (mut read, mut write) = (self.hi[r], lo + len);
        for (&j, &u) in u_cols.iter().zip(u_vals).rev() {
            while read > lo && self.cols[read - 1] > j {
                read -= 1;
                write -= 1;
                self.cols[write] = self.cols[read];
                self.vals[write] = self.vals[read];
            }
            write -= 1;
            if read > lo && self.cols[read - 1] == j {
                read -= 1;
                self.cols[write] = j;
                self.vals[write] = self.vals[read];
            } else {
                self.cols[write] = j;
                self.vals[write] = 0.0 - f * u;
                self.list(j, r);
            }
        }
        self.hi[r] = lo + len;
    }
}

/// The result of an LU factorisation with partial pivoting: `P·A = L·U`.
///
/// Only the non-zeros of the factors are stored, so a solve costs
/// O(nnz(L) + nnz(U) + n). The diagonal blocks of the paper's matrices
/// factor without fill, which makes that O(nnz(A_ii)), not O(n²).
#[derive(Debug, Clone)]
pub struct LuFactors {
    n: usize,
    /// Strictly lower part of L (its unit diagonal is implied).
    lower: TriangleRows,
    /// Strictly upper part of U.
    upper: TriangleRows,
    /// The diagonal of U.
    pivots: Vec<f64>,
    /// Row permutation: row `i` of the factorised matrix is row `perm[i]` of A.
    perm: Vec<usize>,
}

impl LuFactors {
    /// Factorises the square matrix `a` by Gaussian elimination with partial
    /// pivoting on its compressed rows, in time and memory proportional to
    /// its non-zeros plus the fill, never to n².
    ///
    /// The arithmetic is that of the dense elimination on finite input, so
    /// every stored factor is bit-identical to its dense counterpart:
    /// - the pivot of column `k` is the first row, in current order, with
    ///   the strictly largest `|a_ik|`, and a pivot below `1e-300` makes the
    ///   matrix singular;
    /// - a row whose multiplier is exactly zero is skipped;
    /// - each `a_ij -= f · u_kj` is applied in ascending `k`. The dense
    ///   elimination also subtracts `f · 0` where `u_kj` is zero, which can
    ///   only change the sign of a zero entry;
    /// - exact zeros are dropped from the stored factors.
    ///
    /// Returns `None` when the matrix is (numerically) singular.
    pub(crate) fn factor(a: CsrMatrix) -> Option<Self> {
        assert_eq!(a.nrows(), a.ncols(), "factor: matrix must be square");
        let n = a.nrows();
        let mut rows = ActiveRows::new(a);
        // `perm[i]` is the row at position `i`, `position[r]` where row `r` is
        let mut perm: Vec<usize> = (0..n).collect();
        let mut position: Vec<usize> = (0..n).collect();
        // the pivot row's non-zeros after its pivot, for the rows below
        let (mut u_cols, mut u_vals) = (Vec::new(), Vec::new());
        for k in 0..n {
            // The row at position k, unless a later one is strictly larger
            // (or as large and earlier); a NaN never wins and is never beaten.
            let (mut pivot_row, mut pivot_val) = (perm[k], rows.leading(perm[k], k).abs());
            let mut e = rows.head[k];
            while e != END {
                let r = rows.row_of[e];
                e = rows.next[e];
                let v = rows.leading(r, k).abs();
                if position[r] > k
                    && (v > pivot_val || (v == pivot_val && position[r] < position[pivot_row]))
                {
                    (pivot_row, pivot_val) = (r, v);
                }
            }
            if pivot_val < 1e-300 {
                return None;
            }
            let moved = perm[k];
            perm.swap(k, position[pivot_row]);
            position.swap(moved, pivot_row);

            let (lo, hi) = (rows.lo[pivot_row], rows.hi[pivot_row]);
            let pivot = rows.vals[lo];
            u_cols.clear();
            u_vals.clear();
            for p in (lo + 1..hi).filter(|&p| rows.vals[p] != 0.0) {
                u_cols.push(rows.cols[p]);
                u_vals.push(rows.vals[p]);
            }
            // `subtract` lists fill under columns after k only, so column
            // k's list does not change under the walk
            let mut e = rows.head[k];
            while e != END {
                let r = rows.row_of[e];
                e = rows.next[e];
                if position[r] <= k {
                    continue;
                }
                let lo = rows.lo[r];
                let f = rows.vals[lo] / pivot;
                rows.vals[lo] = f;
                rows.lo[r] = lo + 1;
                // A zero multiplier would subtract `0 · U[k][j]` from every
                // entry of the row: nothing to do.
                if f != 0.0 {
                    rows.subtract(r, f, &u_cols, &u_vals);
                }
            }
        }
        let slice = |from: usize, to: usize| (&rows.cols[from..to], &rows.vals[from..to]);
        let rows_in_order = perm
            .iter()
            .map(|&r| (rows.start[r], rows.lo[r], rows.hi[r]));
        Some(LuFactors {
            n,
            lower: TriangleRows::compress(rows_in_order.clone().map(|(s, lo, _)| slice(s, lo))),
            upper: TriangleRows::compress(
                rows_in_order.clone().map(|(_, lo, hi)| slice(lo + 1, hi)),
            ),
            pivots: rows_in_order.map(|(_, lo, _)| rows.vals[lo]).collect(),
            perm,
        })
    }

    /// Solves `A·x = b` using the stored factors.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x);
        x
    }

    /// Solves `A·x = b` into the caller's `x` without allocating.
    ///
    /// # Panics
    /// Panics if `b` or `x` does not have length [`LuFactors::dim`].
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        assert_eq!(b.len(), self.n, "LuFactors::solve: rhs length mismatch");
        assert_eq!(x.len(), self.n, "LuFactors::solve: x length mismatch");
        // apply permutation
        for (xi, &p) in x.iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
        // forward substitution (L has unit diagonal)
        for i in 1..self.n {
            x[i] -= self.lower.dot(i, x);
        }
        // backward substitution
        for i in (0..self.n).rev() {
            x[i] = (x[i] - self.upper.dot(i, x)) / self.pivots[i];
        }
    }

    /// Dimension of the factorised matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored non-zeros: `nnz(L) + nnz(U)` plus the `n` pivots.
    pub fn nnz(&self) -> usize {
        self.lower.vals.len() + self.upper.vals.len() + self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matvec_matches_hand_computed_value() {
        let a = DenseMatrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.matvec_alloc(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
    }

    #[test]
    fn identity_solve_returns_rhs() {
        let a = DenseMatrix::identity(3);
        assert_eq!(a.solve(&[1.0, 2.0, 3.0]).unwrap(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solve_small_system() {
        // [2 1; 1 3] x = [3; 5]  =>  x = [0.8, 1.4]
        let a = DenseMatrix::from_rows(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let x = a.solve(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // leading zero pivot forces a row swap
        let a = DenseMatrix::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = DenseMatrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!(a.solve(&[1.0, 1.0]).is_none());
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = DenseMatrix::from_rows(3, 3, vec![4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0]);
        let inv = a.inverse().unwrap();
        let prod = a.matmul(&inv);
        for i in 0..3 {
            for j in 0..3 {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expected).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn transpose_swaps_indices() {
        let a = DenseMatrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
    }

    #[test]
    fn matmul_with_identity_is_identity_operation() {
        let a = DenseMatrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = DenseMatrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn max_abs_finds_largest_entry() {
        let a = DenseMatrix::from_rows(2, 2, vec![1.0, -7.0, 3.0, 4.0]);
        assert_eq!(a.max_abs(), 7.0);
    }

    /// The dense `n × n` LU with partial pivoting that [`LuFactors`] stored
    /// before its factors were compressed: every multiplier applied, the
    /// whole triangle walked. It is the arithmetic the compressed factors
    /// must reproduce.
    struct DenseLu {
        n: usize,
        lu: Vec<f64>,
        perm: Vec<usize>,
    }

    impl DenseLu {
        fn factor(a: &DenseMatrix) -> Option<Self> {
            let n = a.nrows;
            let mut lu = a.data.clone();
            let mut perm: Vec<usize> = (0..n).collect();
            for k in 0..n {
                let mut pivot_row = k;
                let mut pivot_val = lu[k * n + k].abs();
                for i in (k + 1)..n {
                    let v = lu[i * n + k].abs();
                    if v > pivot_val {
                        pivot_val = v;
                        pivot_row = i;
                    }
                }
                if pivot_val < 1e-300 {
                    return None;
                }
                if pivot_row != k {
                    for j in 0..n {
                        lu.swap(k * n + j, pivot_row * n + j);
                    }
                    perm.swap(k, pivot_row);
                }
                let pivot = lu[k * n + k];
                for i in (k + 1)..n {
                    let factor = lu[i * n + k] / pivot;
                    lu[i * n + k] = factor;
                    for j in (k + 1)..n {
                        lu[i * n + j] -= factor * lu[k * n + j];
                    }
                }
            }
            Some(Self { n, lu, perm })
        }

        fn solve(&self, b: &[f64]) -> Vec<f64> {
            let n = self.n;
            let mut x: Vec<f64> = (0..n).map(|i| b[self.perm[i]]).collect();
            for i in 1..n {
                let row = &self.lu[i * n..i * n + i];
                let dot: f64 = row.iter().zip(&x[..i]).map(|(l, xj)| l * xj).sum();
                x[i] -= dot;
            }
            for i in (0..n).rev() {
                let row = &self.lu[i * n + i + 1..(i + 1) * n];
                let dot: f64 = row.iter().zip(&x[i + 1..]).map(|(u, xj)| u * xj).sum();
                x[i] = (x[i] - dot) / self.lu[i * n + i];
            }
            x
        }
    }

    impl DenseLu {
        /// Non-zeros of the factors, counted as [`LuFactors::nnz`] does.
        fn nnz(&self) -> usize {
            let n = self.n;
            let off_diagonal = (0..n * n)
                .filter(|&e| e / n != e % n && self.lu[e] != 0.0)
                .count();
            off_diagonal + n
        }
    }

    /// The compressed factors hold exactly the dense reference's non-zeros,
    /// bit for bit, with the same pivots and row order.
    fn assert_factors_match_the_dense_reference(factors: &LuFactors, reference: &DenseLu) {
        let n = reference.n;
        assert_eq!(factors.perm, reference.perm, "row order");
        assert_eq!(factors.nnz(), reference.nnz(), "stored non-zeros");
        for i in 0..n {
            let dense = |j: usize| reference.lu[i * n + j].to_bits();
            assert_eq!(factors.pivots[i].to_bits(), dense(i), "pivot {i}");
            for triangle in [&factors.lower, &factors.upper] {
                let stored = triangle.ptr[i]..triangle.ptr[i + 1];
                for (&j, v) in triangle.cols[stored.clone()]
                    .iter()
                    .zip(&triangle.vals[stored])
                {
                    assert_eq!(v.to_bits(), dense(j), "entry ({i}, {j})");
                }
            }
        }
    }

    /// A random sparse block without diagonal dominance: each entry is
    /// stored with probability `density`, with either sign, so elimination
    /// swaps rows and fills in. Entries from `{±1, ±2}` (`integers`) make
    /// pivot candidates tie and updates cancel to exact zeros.
    fn non_dominant_block(n: usize, density: f64, integers: bool, seed: u64) -> DenseMatrix {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut a = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if rng.gen_bool(density) {
                    a[(i, j)] = if integers {
                        [-2.0, -1.0, 1.0, 2.0][rng.gen_range(0..4usize)]
                    } else {
                        rng.gen_range(-1.0..1.0)
                    };
                }
            }
        }
        a
    }

    #[test]
    fn non_dominant_blocks_swap_rows_and_fill_in() {
        let a = non_dominant_block(12, 0.2, false, 7);
        let factors = a.lu().expect("non-singular");
        let stored = a.data.iter().filter(|v| **v != 0.0).count();
        assert!(
            factors.perm.iter().enumerate().any(|(i, &r)| i != r),
            "no row swap"
        );
        assert!(factors.nnz() > stored, "no fill: {} stored", factors.nnz());
        assert_factors_match_the_dense_reference(&factors, &DenseLu::factor(&a).unwrap());
    }

    #[test]
    fn tied_pivot_candidates_go_to_the_earliest_row() {
        // |−2| = |2| in column 0, then |1| = |−1| in column 1
        let a = DenseMatrix::from_rows(
            4,
            4,
            vec![
                1.0, 0.0, 0.0, 3.0, //
                -2.0, 0.0, 1.0, 0.0, //
                2.0, 1.0, 0.0, 0.0, //
                0.0, -1.0, 0.0, 2.0,
            ],
        );
        let factors = a.lu().expect("non-singular");
        assert_eq!(factors.perm, vec![1, 2, 3, 0]);
        assert_factors_match_the_dense_reference(&factors, &DenseLu::factor(&a).unwrap());
    }

    /// A random row-dominant sparse block: diagonal only (`kind` 0), the
    /// diagonal plus the `±k` sub-diagonals (1), or a band of half-width `k`
    /// (2).
    fn sparse_block(n: usize, kind: usize, k: usize, seed: u64) -> DenseMatrix {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut a = DenseMatrix::zeros(n, n);
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                let d = i.abs_diff(j);
                let stored = match kind {
                    0 => false,
                    1 => d == k,
                    _ => d <= k,
                };
                if stored && d > 0 {
                    let v: f64 = rng.gen_range(-1.0..1.0);
                    a[(i, j)] = v;
                    row_sum += v.abs();
                }
            }
            // above 1, so the diagonal is also the largest entry of its column
            a[(i, i)] = row_sum + rng.gen_range(1.0..2.0);
        }
        a
    }

    /// `solve` and `solve_into` of the compressed factors against the dense
    /// reference: bit-equal wherever the reference is non-zero (the only
    /// thing dropping the `0 · x` terms can change is the sign of a zero).
    fn assert_solves_like_the_dense_reference(a: &DenseMatrix, b: &[f64]) {
        let reference = DenseLu::factor(a).expect("reference factors").solve(b);
        let factors = a.lu().expect("compressed factors");
        let x = factors.solve(b);
        for (i, (got, want)) in x.iter().zip(&reference).enumerate() {
            if *want == 0.0 {
                assert_eq!(*got, 0.0, "component {i}");
            } else {
                assert_eq!(got.to_bits(), want.to_bits(), "component {i}");
            }
        }
        let mut into = vec![f64::NAN; b.len()];
        factors.solve_into(b, &mut into);
        let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&into), bits(&x), "solve_into differs from solve");
    }

    fn random_rhs(n: usize, seed: u64) -> Vec<f64> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        // a few exact zeros, so the zero-sign cases are exercised too
        (0..n)
            .map(|i| {
                if i % 5 == 3 {
                    0.0
                } else {
                    rng.gen_range(-1.0..1.0)
                }
            })
            .collect()
    }

    #[test]
    fn sparse_blocks_store_only_their_non_zeros() {
        // diagonal + the ±7 sub-diagonals of a 10 × 10 block: no fill
        let a = sparse_block(10, 1, 7, 1);
        assert_eq!(a.lu().unwrap().nnz(), 10 + 2 * 3);
        assert_eq!(DenseMatrix::identity(6).lu().unwrap().nnz(), 6);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Blocks that swap rows and fill in: the same non-zeros, pivots and
        /// solve bits as the dense reference, and the same singular ones.
        #[test]
        fn prop_fill_and_row_swaps_match_the_dense_reference(
            n in 1usize..30,
            density in 0.05f64..0.6,
            integers in proptest::bool::ANY,
            seed in 0u64..1_000_000,
        ) {
            let a = non_dominant_block(n, density, integers, seed);
            match DenseLu::factor(&a) {
                None => prop_assert!(a.lu().is_none()),
                Some(reference) => {
                    let factors = a.lu().expect("the dense reference factored it");
                    assert_factors_match_the_dense_reference(&factors, &reference);
                    assert_solves_like_the_dense_reference(&a, &random_rhs(n, seed));
                }
            }
        }
    }

    proptest! {
        /// Row-dominant sparse blocks: no row swap, factors stay sparse.
        #[test]
        fn prop_compressed_factors_match_dense_reference(
            n in 1usize..40,
            kind in 0usize..3,
            k in 1usize..12,
            seed in 0u64..500,
        ) {
            let a = sparse_block(n, kind, k, seed);
            assert_solves_like_the_dense_reference(&a, &random_rhs(n, seed));
        }

        /// Small matrices whose rows were rotated, so the column maximum is
        /// off the diagonal and elimination has to swap rows.
        #[test]
        fn prop_compressed_factors_match_dense_reference_under_row_swaps(
            n in 2usize..9,
            kind in 1usize..3,
            k in 1usize..4,
            shift in 0usize..8,
            seed in 0u64..500,
        ) {
            let dominant = sparse_block(n, kind, k, seed);
            let shift = 1 + shift % (n - 1);
            let mut a = DenseMatrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    a[((i + shift) % n, j)] = dominant[(i, j)];
                }
            }
            prop_assert!(a.lu().unwrap().perm[0] != 0);
            assert_solves_like_the_dense_reference(&a, &random_rhs(n, seed));
        }

        /// A zeroed row makes the block singular: still reported, not solved.
        #[test]
        fn prop_singular_blocks_are_still_detected(
            n in 1usize..12,
            kind in 0usize..3,
            row in 0usize..12,
            seed in 0u64..200,
        ) {
            let mut a = sparse_block(n, kind, 2, seed);
            let row = row % n;
            for j in 0..n {
                a[(row, j)] = 0.0;
            }
            prop_assert!(DenseLu::factor(&a).is_none());
            prop_assert!(a.lu().is_none());
        }

        /// Solving a random diagonally-dominant system reproduces the rhs
        /// under multiplication.
        #[test]
        fn prop_solve_then_multiply_roundtrip(n in 1usize..8, seed in 0u64..500) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut a = DenseMatrix::zeros(n, n);
            for i in 0..n {
                let mut row_sum = 0.0;
                for j in 0..n {
                    if i != j {
                        let v = rng.gen_range(-1.0..1.0);
                        a[(i, j)] = v;
                        row_sum += v.abs();
                    }
                }
                a[(i, i)] = row_sum + 1.0;
            }
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let x = a.solve(&b).unwrap();
            let back = a.matvec_alloc(&x);
            for i in 0..n {
                prop_assert!((back[i] - b[i]).abs() < 1e-9);
            }
        }
    }
}
