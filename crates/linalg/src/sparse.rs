//! Sparse matrices: a COO builder and a CSR matrix with the kernels the
//! Krylov solvers and PDE applications need.

use crate::dense::DenseMatrix;

/// Coordinate-format builder for sparse matrices. Duplicate entries are
/// summed when converting to CSR (the standard finite-element assembly
/// convention).
#[derive(Debug, Clone, Default)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooMatrix {
    /// Empty builder of the given shape.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Add `v` at (i, j).
    pub fn push(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.nrows && j < self.ncols, "COO entry out of bounds");
        if v != 0.0 {
            self.entries.push((i, j, v));
        }
    }

    /// Number of (possibly duplicated) stored entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Convert to CSR, summing duplicates.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut entries = self.entries.clone();
        entries.sort_unstable_by_key(|&(i, j, _)| (i, j));
        // Merge consecutive duplicates (same row and column).
        let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(entries.len());
        for (i, j, v) in entries {
            match merged.last_mut() {
                Some(last) if last.0 == i && last.1 == j => last.2 += v,
                _ => merged.push((i, j, v)),
            }
        }
        let mut row_ptr = vec![0usize; self.nrows + 1];
        for &(i, _, _) in &merged {
            row_ptr[i + 1] += 1;
        }
        for i in 0..self.nrows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col_idx = merged.iter().map(|e| e.1).collect();
        let values = merged.iter().map(|e| e.2).collect();
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// Compressed sparse row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Build directly from CSR arrays.
    ///
    /// # Panics
    /// Panics if the arrays are structurally inconsistent.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(
            row_ptr.len(),
            nrows + 1,
            "row_ptr must have nrows+1 entries"
        );
        assert_eq!(
            col_idx.len(),
            values.len(),
            "col_idx/values length mismatch"
        );
        assert_eq!(
            *row_ptr.last().unwrap(),
            col_idx.len(),
            "row_ptr must end at nnz"
        );
        assert!(
            row_ptr.windows(2).all(|w| w[0] <= w[1]),
            "row_ptr must be non-decreasing"
        );
        assert!(
            col_idx.iter().all(|&j| j < ncols),
            "column index out of bounds"
        );
        Self {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        Self {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The `(column_indices, values)` of row `i`.
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let range = self.row_ptr[i]..self.row_ptr[i + 1];
        (&self.col_idx[range.clone()], &self.values[range])
    }

    /// All stored values (immutable view).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// All stored values (mutable view).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// y = A·x.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "spmv: dimension mismatch");
        let mut y = vec![0.0; self.nrows];
        self.spmv_into(x, &mut y);
        y
    }

    /// y = A·x, writing into a caller-provided buffer.
    ///
    /// Rows are walked through one pair of slices per row (derived from
    /// consecutive `row_ptr` entries) so the inner gather-multiply loop
    /// carries no per-element indirection through `row_ptr` and the
    /// compiler can unroll it. Per-row accumulation stays sequential, so
    /// results are bit-identical to the naive formulation.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "spmv: dimension mismatch");
        assert_eq!(y.len(), self.nrows, "spmv: output dimension mismatch");
        let mut start = self.row_ptr[0];
        for (yi, &end) in y.iter_mut().zip(&self.row_ptr[1..]) {
            let cols = &self.col_idx[start..end];
            let vals = &self.values[start..end];
            let mut sum = 0.0;
            for (&j, &v) in cols.iter().zip(vals) {
                sum += v * x[j];
            }
            *yi = sum;
            start = end;
        }
    }

    /// Number of floating-point operations in one SpMV (2·nnz), used for
    /// virtual-time accounting.
    pub fn spmv_flops(&self) -> usize {
        2 * self.nnz()
    }

    /// The main diagonal (zero where no entry is stored).
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.nrows)
            .map(|i| {
                let (cols, vals) = self.row(i);
                cols.iter()
                    .zip(vals)
                    .find(|(&j, _)| j == i)
                    .map(|(_, &v)| v)
                    .unwrap_or(0.0)
            })
            .collect()
    }

    /// Transpose (also in CSR format).
    pub fn transpose(&self) -> CsrMatrix {
        let mut coo = CooMatrix::new(self.ncols, self.nrows);
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                coo.push(j, i, v);
            }
        }
        coo.to_csr()
    }

    /// Densify (tests and small problems only).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.nrows, self.ncols);
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                d.add_to(i, j, v);
            }
        }
        d
    }

    /// Row sums (used by ABFT checksum encodings).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.nrows)
            .map(|i| self.row(i).1.iter().sum())
            .collect()
    }

    /// Frobenius norm of the stored values.
    pub fn norm_fro(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [ 2 -1  0 ]
        // [-1  2 -1 ]
        // [ 0 -1  2 ]
        let mut coo = CooMatrix::new(3, 3);
        for i in 0..3usize {
            coo.push(i, i, 2.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if i < 2 {
                coo.push(i, i + 1, -1.0);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn coo_to_csr_structure() {
        let a = small();
        assert_eq!(a.nrows(), 3);
        assert_eq!(a.ncols(), 3);
        assert_eq!(a.nnz(), 7);
        assert_eq!(a.diagonal(), vec![2.0, 2.0, 2.0]);
        let (cols, vals) = a.row(1);
        assert_eq!(cols, &[0, 1, 2]);
        assert_eq!(vals, &[-1.0, 2.0, -1.0]);
    }

    #[test]
    fn coo_duplicates_are_summed() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 0, 2.5);
        coo.push(1, 1, 1.0);
        let a = coo.to_csr();
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.diagonal(), vec![3.5, 1.0]);
    }

    #[test]
    fn coo_ignores_explicit_zeros() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 0.0);
        assert_eq!(coo.nnz(), 0);
    }

    #[test]
    fn spmv_matches_dense() {
        let a = small();
        let x = [1.0, 2.0, 3.0];
        let y = a.spmv(&x);
        assert_eq!(y, vec![0.0, 0.0, 4.0]);
        let dense_y = a.to_dense().gemv(&x);
        assert_eq!(y, dense_y);
        assert_eq!(a.spmv_flops(), 14);
    }

    #[test]
    fn spmv_into_reuses_buffer() {
        let a = small();
        let mut y = vec![9.0; 3];
        a.spmv_into(&[1.0, 0.0, 0.0], &mut y);
        assert_eq!(y, vec![2.0, -1.0, 0.0]);
    }

    #[test]
    fn identity_and_transpose() {
        let i = CsrMatrix::identity(4);
        assert_eq!(i.spmv(&[1.0, 2.0, 3.0, 4.0]), vec![1.0, 2.0, 3.0, 4.0]);
        let a = small();
        let at = a.transpose();
        // Symmetric matrix: transpose equals original.
        assert_eq!(a.to_dense(), at.to_dense());
    }

    #[test]
    fn row_sums_and_norm() {
        let a = small();
        assert_eq!(a.row_sums(), vec![1.0, 0.0, 1.0]);
        assert!((a.norm_fro() - (4.0f64 * 3.0 + 4.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn values_mut_allows_corruption() {
        let mut a = small();
        a.values_mut()[1] = -7.0;
        assert_eq!(a.row(0).1[1], -7.0);
        assert_eq!(a.values().len(), 7);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn coo_out_of_bounds_panics() {
        CooMatrix::new(1, 1).push(1, 0, 1.0);
    }

    #[test]
    #[should_panic]
    fn from_raw_validates() {
        CsrMatrix::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]);
    }
}
