//! Compressed sparse row (CSR) matrices.
//!
//! The sparse linear benchmark of the paper works on a banded matrix of
//! dimension two million with thirty sub-diagonals; a CSR layout keeps the
//! memory footprint proportional to the number of non-zeros and makes the
//! row-block extraction and column-dependency analysis needed by the
//! block-decomposed AIAC solver cheap.

use crate::decomp::Partition;
use crate::operator::LinearOperator;
use serde::{Deserialize, Serialize};

/// A sparse matrix in compressed sparse row format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from coordinate triplets `(row, col, value)`.
    ///
    /// Duplicate entries are summed; explicit zeros are kept (they still count
    /// as structural non-zeros), entries are sorted by `(row, col)`.
    ///
    /// # Panics
    /// Panics if a triplet lies outside the `nrows × ncols` shape.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Self {
        let mut entries: Vec<(usize, usize, f64)> = triplets.into_iter().collect();
        for &(r, c, _) in &entries {
            assert!(r < nrows && c < ncols, "triplet ({r},{c}) out of shape");
        }
        entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
        // merge duplicates
        let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(entries.len());
        for (r, c, v) in entries {
            match merged.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => merged.push((r, c, v)),
            }
        }
        let mut row_ptr = vec![0usize; nrows + 1];
        for &(r, _, _) in &merged {
            row_ptr[r + 1] += 1;
        }
        for i in 0..nrows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col_idx = merged.iter().map(|&(_, c, _)| c).collect();
        let values = merged.iter().map(|&(_, _, v)| v).collect();
        Self {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Builds a CSR matrix directly from raw CSR arrays.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent (wrong lengths, unsorted or
    /// out-of-range column indices, non-monotone row pointers).
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), nrows + 1, "row_ptr length mismatch");
        assert_eq!(
            col_idx.len(),
            values.len(),
            "col_idx/values length mismatch"
        );
        assert_eq!(
            *row_ptr.last().unwrap(),
            col_idx.len(),
            "row_ptr end mismatch"
        );
        for r in 0..nrows {
            assert!(row_ptr[r] <= row_ptr[r + 1], "row_ptr must be monotone");
            let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for w in row.windows(2) {
                assert!(
                    w[0] < w[1],
                    "column indices must be strictly increasing per row"
                );
            }
            for &c in row {
                assert!(c < ncols, "column index out of range");
            }
        }
        Self {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// The identity matrix of dimension `n`.
    pub fn identity(n: usize) -> Self {
        Self::from_triplets(n, n, (0..n).map(|i| (i, i, 1.0)))
    }

    /// The raw CSR arrays `(row_ptr, col_idx, values)`, given up.
    pub(crate) fn into_raw(self) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
        (self.row_ptr, self.col_idx, self.values)
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored (structural) non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Returns the value at `(i, j)`, or `0.0` when the entry is not stored.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.nrows && j < self.ncols, "get: index out of range");
        let row = &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]];
        match row.binary_search(&j) {
            Ok(pos) => self.values[self.row_ptr[i] + pos],
            Err(_) => 0.0,
        }
    }

    /// Iterator over the stored entries of row `i` as `(col, value)` pairs.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Iterator over all stored entries as `(row, col, value)` triplets.
    pub fn triplets(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |i| self.row(i).map(move |(j, v)| (i, j, v)))
    }

    /// Gathered dot product of one CSR row against `x`, unrolled four wide
    /// with independent accumulators so the compiler can keep four
    /// multiply-add chains in flight (the gather through `col_idx` defeats
    /// full SIMD codegen, but breaking the serial dependence on one
    /// accumulator is most of the win). Rows of at most four entries go
    /// wholly through the remainder loop, which accumulates in the same
    /// left-to-right order as the pre-unroll scalar code — small matrices in
    /// tests stay bit-identical.
    #[inline]
    fn dot_row(values: &[f64], col_idx: &[usize], x: &[f64]) -> f64 {
        let mut acc = [0.0f64; 4];
        let v4s = values.chunks_exact(4);
        let c4s = col_idx.chunks_exact(4);
        let v_tail = v4s.remainder();
        let c_tail = c4s.remainder();
        for (v4, c4) in v4s.zip(c4s) {
            acc[0] += v4[0] * x[c4[0]];
            acc[1] += v4[1] * x[c4[1]];
            acc[2] += v4[2] * x[c4[2]];
            acc[3] += v4[3] * x[c4[3]];
        }
        let mut tail = 0.0;
        for (v, &c) in v_tail.iter().zip(c_tail) {
            tail += v * x[c];
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
    }

    /// Sparse matrix-vector product `y = A·x`.
    ///
    /// # Panics
    /// Panics if `x.len() != ncols` or `y.len() != nrows`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "spmv: x length mismatch");
        assert_eq!(y.len(), self.nrows, "spmv: y length mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            let lo = self.row_ptr[i];
            let hi = self.row_ptr[i + 1];
            *yi = Self::dot_row(&self.values[lo..hi], &self.col_idx[lo..hi], x);
        }
    }

    /// Fused residual `r = b − A·x`, saving one pass over `r` (and the
    /// intermediate `A·x` vector) compared to `spmv` + subtract. Each row
    /// uses exactly the accumulation order of [`CsrMatrix::spmv`], so
    /// `residual(b, x, r)` is bit-identical to computing `spmv(x, y)` and
    /// then `r[i] = b[i] - y[i]`.
    ///
    /// # Panics
    /// Panics on any length mismatch.
    pub fn residual(&self, b: &[f64], x: &[f64], r: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "residual: x length mismatch");
        assert_eq!(b.len(), self.nrows, "residual: b length mismatch");
        assert_eq!(r.len(), self.nrows, "residual: r length mismatch");
        for (i, ri) in r.iter_mut().enumerate() {
            let lo = self.row_ptr[i];
            let hi = self.row_ptr[i + 1];
            *ri = b[i] - Self::dot_row(&self.values[lo..hi], &self.col_idx[lo..hi], x);
        }
    }

    /// Allocating variant of [`CsrMatrix::spmv`].
    pub fn spmv_alloc(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.spmv(x, &mut y);
        y
    }

    /// Extracts the horizontal slab of rows `rows` as a new CSR matrix with
    /// the same column space (global column indices are preserved).
    pub fn row_block(&self, rows: std::ops::Range<usize>) -> CsrMatrix {
        assert!(rows.end <= self.nrows, "row_block: range out of bounds");
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        row_ptr.push(0);
        let lo = self.row_ptr[rows.start];
        let hi = self.row_ptr[rows.end];
        for r in rows.clone() {
            row_ptr.push(self.row_ptr[r + 1] - lo);
        }
        CsrMatrix {
            nrows: rows.len(),
            ncols: self.ncols,
            row_ptr,
            col_idx: self.col_idx[lo..hi].to_vec(),
            values: self.values[lo..hi].to_vec(),
        }
    }

    /// Extracts the square diagonal block `rows × rows` (local column indices).
    ///
    /// A row's columns are sorted, so its entries inside the block are one
    /// contiguous run: each row is a slice copy, O(nnz) over the block.
    pub fn diagonal_block(&self, rows: std::ops::Range<usize>) -> CsrMatrix {
        assert!(rows.end <= self.nrows && rows.end <= self.ncols);
        let inside = |i: usize| {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            let cols = &self.col_idx[lo..hi];
            lo + cols.partition_point(|&j| j < rows.start)
                ..lo + cols.partition_point(|&j| j < rows.end)
        };
        let nnz = rows.clone().map(|i| inside(i).len()).sum();
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        let (mut col_idx, mut values) = (Vec::with_capacity(nnz), Vec::with_capacity(nnz));
        row_ptr.push(0);
        for i in rows.clone() {
            let run = inside(i);
            col_idx.extend(self.col_idx[run.clone()].iter().map(|&j| j - rows.start));
            values.extend_from_slice(&self.values[run]);
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            nrows: rows.len(),
            ncols: rows.len(),
            row_ptr,
            col_idx,
            values,
        }
    }

    /// The main diagonal as a dense vector (missing entries are zero).
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.nrows.min(self.ncols);
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// Transposes the matrix.
    pub fn transpose(&self) -> CsrMatrix {
        CsrMatrix::from_triplets(
            self.ncols,
            self.nrows,
            self.triplets().map(|(i, j, v)| (j, i, v)),
        )
    }

    /// For the row block `rows`, the set of *external* columns referenced by
    /// those rows, i.e. the data this block depends on but does not own.
    ///
    /// This is exactly the dependency list each processor of the paper's
    /// sparse-linear algorithm computes and exchanges in its first step
    /// (Section 4.3).
    pub fn external_dependencies(&self, rows: std::ops::Range<usize>) -> Vec<usize> {
        let (lo, hi) = (self.row_ptr[rows.start], self.row_ptr[rows.end]);
        let mut deps: Vec<usize> = self.col_idx[lo..hi]
            .iter()
            .copied()
            .filter(|j| !rows.contains(j))
            .collect();
        deps.sort_unstable();
        deps.dedup();
        deps
    }

    /// Builds the block dependency graph induced by a partition of the rows
    /// and columns: entry `g[i]` lists the distinct blocks `j != i` whose data
    /// block `i` needs (i.e. blocks owning at least one external column of
    /// block `i`'s rows).
    pub fn block_dependencies(&self, partition: &Partition) -> Vec<Vec<usize>> {
        assert_eq!(
            partition.len(),
            self.ncols,
            "partition must cover the columns"
        );
        partition
            .iter()
            .map(|(_, range)| {
                let external = self.external_dependencies(range);
                let mut deps: Vec<usize> = partition.owners_ascending(external).collect();
                deps.dedup();
                deps
            })
            .collect()
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Scales every stored entry in place.
    pub fn scale(&mut self, alpha: f64) {
        for v in self.values.iter_mut() {
            *v *= alpha;
        }
    }

    /// Converts the matrix to a dense row-major `Vec<Vec<f64>>`; only sensible
    /// for small matrices in tests.
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut out = vec![vec![0.0; self.ncols]; self.nrows];
        for (i, j, v) in self.triplets() {
            out[i][j] += v;
        }
        out
    }
}

impl LinearOperator for CsrMatrix {
    fn dim(&self) -> usize {
        assert_eq!(
            self.nrows, self.ncols,
            "LinearOperator requires a square matrix"
        );
        self.nrows
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.spmv(x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> CsrMatrix {
        // [ 4 1 0 ]
        // [ 0 3 2 ]
        // [ 5 0 6 ]
        CsrMatrix::from_triplets(
            3,
            3,
            vec![
                (0, 0, 4.0),
                (0, 1, 1.0),
                (1, 1, 3.0),
                (1, 2, 2.0),
                (2, 0, 5.0),
                (2, 2, 6.0),
            ],
        )
    }

    #[test]
    fn from_triplets_sums_duplicates() {
        let m = CsrMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 0, 2.0), (1, 1, 3.0)]);
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn get_returns_zero_for_missing_entries() {
        let m = small();
        assert_eq!(m.get(0, 2), 0.0);
        assert_eq!(m.get(2, 1), 0.0);
        assert_eq!(m.get(1, 2), 2.0);
    }

    #[test]
    fn spmv_matches_hand_computed_product() {
        let m = small();
        let y = m.spmv_alloc(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![6.0, 12.0, 23.0]);
    }

    #[test]
    fn identity_spmv_is_identity() {
        let m = CsrMatrix::identity(4);
        let x = vec![1.0, -2.0, 3.5, 0.0];
        assert_eq!(m.spmv_alloc(&x), x);
    }

    #[test]
    fn row_block_preserves_global_columns() {
        let m = small();
        let b = m.row_block(1..3);
        assert_eq!(b.nrows(), 2);
        assert_eq!(b.ncols(), 3);
        assert_eq!(b.get(0, 1), 3.0);
        assert_eq!(b.get(1, 0), 5.0);
    }

    #[test]
    fn diagonal_block_uses_local_indices() {
        let m = small();
        let d = m.diagonal_block(1..3);
        assert_eq!(d.nrows(), 2);
        assert_eq!(d.get(0, 0), 3.0);
        assert_eq!(d.get(0, 1), 2.0);
        assert_eq!(d.get(1, 1), 6.0);
        assert_eq!(d.get(1, 0), 0.0);
    }

    #[test]
    fn diagonal_extraction() {
        assert_eq!(small().diagonal(), vec![4.0, 3.0, 6.0]);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let m = small();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn external_dependencies_lists_only_foreign_columns() {
        let m = small();
        // rows 0..2 reference columns {0,1,2}; external to 0..2 is {2}
        assert_eq!(m.external_dependencies(0..2), vec![2]);
        // row 2 references columns {0,2}; external to 2..3 is {0}
        assert_eq!(m.external_dependencies(2..3), vec![0]);
    }

    #[test]
    fn block_dependencies_follow_partition_ownership() {
        let m = small();
        let p = Partition::balanced(3, 3);
        let g = m.block_dependencies(&p);
        assert_eq!(g[0], vec![1]); // row 0 needs col 1
        assert_eq!(g[1], vec![2]); // row 1 needs col 2
        assert_eq!(g[2], vec![0]); // row 2 needs col 0
    }

    #[test]
    fn to_dense_round_trip() {
        let m = small();
        let d = m.to_dense();
        assert_eq!(d[0], vec![4.0, 1.0, 0.0]);
        assert_eq!(d[2], vec![5.0, 0.0, 6.0]);
    }

    #[test]
    fn frobenius_norm_matches_manual_value() {
        let m = CsrMatrix::from_triplets(2, 2, vec![(0, 0, 3.0), (1, 1, 4.0)]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-15);
    }

    #[test]
    fn scale_multiplies_all_entries() {
        let mut m = small();
        m.scale(2.0);
        assert_eq!(m.get(0, 0), 8.0);
        assert_eq!(m.get(2, 2), 12.0);
    }

    #[test]
    #[should_panic(expected = "out of shape")]
    fn from_triplets_rejects_out_of_shape_entries() {
        CsrMatrix::from_triplets(2, 2, vec![(2, 0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_raw_rejects_unsorted_columns() {
        CsrMatrix::from_raw(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 1.0]);
    }

    proptest! {
        /// SpMV is linear: A(αx + y) = αAx + Ay.
        #[test]
        fn prop_spmv_linearity(
            n in 1usize..20,
            alpha in -5.0f64..5.0,
            seed in 0u64..1000,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut triplets = Vec::new();
            for i in 0..n {
                for j in 0..n {
                    if rng.gen_bool(0.3) {
                        triplets.push((i, j, rng.gen_range(-1.0..1.0)));
                    }
                }
            }
            let a = CsrMatrix::from_triplets(n, n, triplets);
            let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let y: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let combo: Vec<f64> = x.iter().zip(&y).map(|(a, b)| alpha * a + b).collect();
            let lhs = a.spmv_alloc(&combo);
            let ax = a.spmv_alloc(&x);
            let ay = a.spmv_alloc(&y);
            for i in 0..n {
                let rhs = alpha * ax[i] + ay[i];
                prop_assert!((lhs[i] - rhs).abs() < 1e-9);
            }
        }

        /// The fused residual is bit-identical to spmv followed by the
        /// subtraction, for rows both shorter and longer than the 4-wide
        /// unroll.
        #[test]
        fn prop_fused_residual_matches_spmv_then_subtract(
            n in 1usize..40,
            seed in 0u64..500,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut triplets = Vec::new();
            for i in 0..n {
                for j in 0..n {
                    if rng.gen_bool(0.4) {
                        triplets.push((i, j, rng.gen_range(-2.0..2.0)));
                    }
                }
            }
            let a = CsrMatrix::from_triplets(n, n, triplets);
            let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let y = a.spmv_alloc(&x);
            let mut r = vec![0.0; n];
            a.residual(&b, &x, &mut r);
            for i in 0..n {
                let expected = b[i] - y[i];
                prop_assert!(
                    r[i] == expected || (r[i].is_nan() && expected.is_nan()),
                    "row {}: fused {} vs two-pass {}", i, r[i], expected
                );
            }
        }

        /// Row blocks tile the full SpMV result.
        #[test]
        fn prop_row_blocks_tile_spmv(n in 2usize..30, parts in 1usize..6, seed in 0u64..500) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut triplets = Vec::new();
            for i in 0..n {
                for j in 0..n {
                    if rng.gen_bool(0.25) {
                        triplets.push((i, j, rng.gen_range(-2.0..2.0)));
                    }
                }
            }
            let a = CsrMatrix::from_triplets(n, n, triplets);
            let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let full = a.spmv_alloc(&x);
            let p = Partition::balanced(n, parts);
            for (b, range) in p.iter() {
                let _ = b;
                if range.is_empty() { continue; }
                let blk = a.row_block(range.clone());
                let local = blk.spmv_alloc(&x);
                for (k, i) in range.enumerate() {
                    prop_assert!((local[k] - full[i]).abs() < 1e-12);
                }
            }
        }
    }
}
