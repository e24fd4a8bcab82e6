//! SELL-C-σ sparse layout: the cache/SIMD-friendly sibling of CSR.
//!
//! Rows are sorted by descending length inside windows of `σ` rows
//! (bounding how far a row can move from its CSR position), then packed in
//! chunks of `C = 4` rows stored column-major inside the chunk: slot
//! `(step, lane)` of a chunk holds entry `step` of the chunk's `lane`-th
//! row. Short rows are padded to the chunk width with explicit zero fill.
//! The layout is the one Kreutzer et al. proposed for wide-SIMD SpMV: a
//! 4-lane kernel walks the chunk front to back, processing one entry of
//! four rows per step with contiguous value loads and a gathered input.
//!
//! Two properties matter for this crate:
//!
//! * **Losslessness** — [`SellMatrix::from_csr`] keeps every stored entry
//!   (including explicit zeros) in its original within-row order, and
//!   [`SellMatrix::to_csr`] reconstructs the source matrix exactly.
//! * **Bit-compatibility** — each row's products are accumulated
//!   sequentially in CSR entry order (padding never touches the
//!   accumulator), so [`SellMatrix::spmv_into`] returns `f64`s
//!   bit-identical to [`CsrMatrix::spmv_into`], whichever backend runs it.
//!
//! A matrix can also hold a subset of its source's rows, each writing its
//! own slot of the full-length output, with the columns renumbered into a
//! compact input ([`SellMatrix::from_csr_rows`]): the distributed operator
//! stores its interior and boundary rows as two such parts.
//!
//! `C` is fixed at 4 to match the crate-wide 4-lane reassociation spec
//! (see [`crate::ops`]); `σ` is a per-matrix construction parameter.

use crate::sparse::CsrMatrix;

#[cfg(test)]
use crate::sparse::CooMatrix;

/// The chunk height of the layout: fixed at 4 rows, the same width as the
/// crate's level-1 lane spec, so one AVX register covers one chunk.
pub(crate) const SELL_C: usize = 4;

/// Default sorting-window size: large enough to group similar row lengths
/// in the model problems, small enough to keep the output permutation
/// local (row *i* lands within `σ` of its CSR position).
pub const SELL_DEFAULT_SIGMA: usize = 256;

/// A sparse matrix in SELL-C-σ format (`C = 4`). See the module docs.
///
/// A matrix may store only some rows of its source ([`SellMatrix::from_csr_rows`]):
/// each stored row still writes its own slot of an output vector of
/// [`SellMatrix::out_rows`] entries, and the slots of rows it does not store
/// are left untouched. Several such parts over disjoint row sets together
/// overwrite the whole output, each reading its own input.
#[derive(Debug, Clone, PartialEq)]
pub struct SellMatrix {
    /// Stored rows.
    nrows: usize,
    /// Length of the output vector the stored rows are written into.
    out_rows: usize,
    ncols: usize,
    sigma: usize,
    nnz: usize,
    /// Slot offset of each chunk; `chunk_ptr[k+1] - chunk_ptr[k]` is
    /// `width_k · C` where `width_k` is the chunk's longest row.
    chunk_ptr: Vec<usize>,
    /// Column index per slot (`i32` so a SIMD gather can consume it
    /// directly); padding slots hold 0, a valid always-in-bounds column.
    cols: Vec<i32>,
    /// Value per slot; padding slots hold 0.0 and are never accumulated.
    vals: Vec<f64>,
    /// `perm[p]` = output row of the row stored at sorted position `p`
    /// (`p < nrows`).
    perm: Vec<u32>,
    /// Row length at each sorted position, padded with zero-length virtual
    /// rows to a multiple of `C`.
    lens: Vec<u32>,
}

impl SellMatrix {
    /// Convert from CSR, sorting rows by descending length inside windows
    /// of `sigma` rows (stable, so equal-length rows keep their order —
    /// the conversion is deterministic). `sigma = 1` disables sorting.
    ///
    /// # Panics
    /// Panics if `sigma` is zero or the matrix has more than `i32::MAX`
    /// columns (the layout stores gather-ready `i32` column indices).
    pub fn from_csr(a: &CsrMatrix, sigma: usize) -> Self {
        let rows: Vec<usize> = (0..a.nrows()).collect();
        Self::from_csr_rows(a, &rows, a.ncols(), |j| j, sigma)
    }

    /// Store only the rows `rows` of `a`, row `i` writing output slot `i`
    /// of an `a.nrows()`-long output, and read column `j` of `a` as input
    /// entry `col(j)` of an `ncols`-long input. Sorting windows of `sigma`
    /// run over the list in its order. Each row keeps its entries in CSR
    /// order, so its sum is bit-identical to row `i` of
    /// [`CsrMatrix::spmv_into`] over the renumbered input.
    ///
    /// # Panics
    /// Panics if `sigma` is zero, `ncols` exceeds `i32::MAX`, `a` has more
    /// than `u32::MAX` rows, a listed row is out of range, or `col` maps a
    /// stored column outside `0..ncols`.
    pub fn from_csr_rows(
        a: &CsrMatrix,
        rows: &[usize],
        ncols: usize,
        col: impl Fn(usize) -> usize,
        sigma: usize,
    ) -> Self {
        assert!(sigma > 0, "SELL-C-σ requires σ ≥ 1");
        assert!(
            ncols <= i32::MAX as usize,
            "SELL-C-σ stores i32 column indices"
        );
        assert!(
            a.nrows() <= u32::MAX as usize,
            "SELL-C-σ stores u32 row indices"
        );
        let nrows = rows.len();
        let row_len = |i: usize| a.row(i).0.len();

        let mut perm: Vec<u32> = rows.iter().map(|&i| i as u32).collect();
        for window in perm.chunks_mut(sigma) {
            window.sort_by_key(|&p| std::cmp::Reverse(row_len(p as usize)));
        }

        let n_chunks = nrows.div_ceil(SELL_C);
        let padded = n_chunks * SELL_C;
        let mut lens = vec![0u32; padded];
        for (p, &orig) in perm.iter().enumerate() {
            lens[p] = row_len(orig as usize) as u32;
        }

        let mut chunk_ptr = Vec::with_capacity(n_chunks + 1);
        chunk_ptr.push(0usize);
        let mut offset = 0usize;
        for lens_chunk in lens.chunks(SELL_C) {
            let width = lens_chunk.iter().copied().max().unwrap_or(0) as usize;
            offset += width * SELL_C;
            chunk_ptr.push(offset);
        }

        let slots = *chunk_ptr.last().unwrap();
        let mut cols = vec![0i32; slots];
        let mut vals = vec![0.0f64; slots];
        let mut nnz = 0;
        for (p, &orig) in perm.iter().enumerate() {
            let base = chunk_ptr[p / SELL_C] + p % SELL_C;
            let (rc, rv) = a.row(orig as usize);
            for (step, (&j, &v)) in rc.iter().zip(rv).enumerate() {
                let jc = col(j);
                assert!(
                    jc < ncols,
                    "SELL-C-σ: column {j} maps to {jc}, not below {ncols}"
                );
                cols[base + step * SELL_C] = jc as i32;
                vals[base + step * SELL_C] = v;
            }
            nnz += rc.len();
        }

        Self {
            nrows,
            out_rows: a.nrows(),
            ncols,
            sigma,
            nnz,
            chunk_ptr,
            cols,
            vals,
            perm,
            lens,
        }
    }

    /// Reconstruct the source CSR matrix exactly (inverse of
    /// [`SellMatrix::from_csr`], including within-row entry order and any
    /// explicitly stored zeros). A matrix of some rows comes back
    /// [`SellMatrix::out_rows`] tall, its unstored rows empty.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut row_ptr = vec![0usize; self.out_rows + 1];
        for (p, &orig) in self.perm.iter().enumerate() {
            row_ptr[orig as usize + 1] = self.lens[p] as usize;
        }
        for i in 0..self.out_rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = vec![0usize; self.nnz];
        let mut values = vec![0.0f64; self.nnz];
        for (p, &orig) in self.perm.iter().enumerate() {
            let base = self.chunk_ptr[p / SELL_C];
            let lane = p % SELL_C;
            let start = row_ptr[orig as usize];
            for step in 0..self.lens[p] as usize {
                let slot = base + step * SELL_C + lane;
                col_idx[start + step] = self.cols[slot] as usize;
                values[start + step] = self.vals[slot];
            }
        }
        CsrMatrix::from_raw(self.out_rows, self.ncols, row_ptr, col_idx, values)
    }

    /// Number of stored rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Length of the output vector: the source matrix's row count, of
    /// which [`SellMatrix::nrows`] are stored and written.
    pub fn out_rows(&self) -> usize {
        self.out_rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored (non-padding) entries.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The sorting-window parameter σ this matrix was built with.
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    /// FLOPs of one SpMV: `2·nnz`, identical to the CSR accounting —
    /// padding slots are masked out, not computed.
    pub fn spmv_flops(&self) -> usize {
        2 * self.nnz
    }

    /// Slot offsets per chunk (layout accessor for SIMD/offload kernels).
    pub fn chunk_ptr(&self) -> &[usize] {
        &self.chunk_ptr
    }

    /// Column index per slot (layout accessor for SIMD/offload kernels).
    pub fn cols(&self) -> &[i32] {
        &self.cols
    }

    /// Value per slot (layout accessor for SIMD/offload kernels).
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Sorted-position → output-row map (layout accessor).
    pub fn perm(&self) -> &[u32] {
        &self.perm
    }

    /// Row length per sorted position, zero-padded to a multiple of `C`
    /// (layout accessor).
    pub fn lens(&self) -> &[u32] {
        &self.lens
    }

    /// y = A·x (allocating convenience wrapper; unstored rows read 0).
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.out_rows];
        self.spmv_into(x, &mut y);
        y
    }

    /// y = A·x through the portable scalar kernel. Walks each chunk lane by
    /// lane, accumulating each row's products sequentially in CSR entry
    /// order — bit-identical to [`CsrMatrix::spmv_into`]. Only the stored
    /// rows' slots of `y` are written.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "spmv: dimension mismatch");
        assert_eq!(y.len(), self.out_rows, "spmv: output dimension mismatch");
        for k in 0..self.chunk_ptr.len() - 1 {
            let base = self.chunk_ptr[k];
            for lane in 0..SELL_C {
                let p = k * SELL_C + lane;
                if p >= self.nrows {
                    break;
                }
                let mut sum = 0.0;
                for step in 0..self.lens[p] as usize {
                    let slot = base + step * SELL_C + lane;
                    sum += self.vals[slot] * x[self.cols[slot] as usize];
                }
                y[self.perm[p] as usize] = sum;
            }
        }
    }
}

/// Build a small deterministic CSR matrix with ragged rows for tests.
#[cfg(test)]
fn ragged(nrows: usize, ncols: usize, seed: u64) -> CsrMatrix {
    let mut coo = CooMatrix::new(nrows, ncols);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 0..nrows {
        let len = (next() as usize) % (ncols.min(9) + 1);
        for _ in 0..len {
            let j = (next() as usize) % ncols;
            let v = ((next() % 2000) as f64 - 1000.0) / 64.0;
            coo.push(i, j, v);
        }
    }
    coo.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_is_exact() {
        for seed in 0..8u64 {
            let a = ragged(23, 17, seed);
            for sigma in [1, 4, 8, 256] {
                let s = SellMatrix::from_csr(&a, sigma);
                assert_eq!(s.nnz(), a.nnz());
                assert_eq!(s.to_csr(), a, "sigma={sigma} seed={seed}");
            }
        }
    }

    #[test]
    fn spmv_bit_matches_csr() {
        for seed in 0..8u64 {
            let a = ragged(29, 29, seed);
            let x: Vec<f64> = (0..29).map(|i| (i as f64 * 0.7).sin() + 0.1).collect();
            let want = a.spmv(&x);
            for sigma in [1, 4, 64] {
                let s = SellMatrix::from_csr(&a, sigma);
                let got = s.spmv(&x);
                assert_eq!(
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "sigma={sigma} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn rectangular_and_empty_shapes() {
        // Rectangular (the distributed local matrices are n_local × (n_local
        // + ghosts)), empty rows, and the empty matrix itself.
        let a = ragged(10, 31, 3);
        let s = SellMatrix::from_csr(&a, SELL_DEFAULT_SIGMA);
        assert_eq!(s.to_csr(), a);
        let x = vec![1.0; 31];
        assert_eq!(s.spmv(&x), a.spmv(&x));

        let empty = CooMatrix::new(0, 0).to_csr();
        let s = SellMatrix::from_csr(&empty, 1);
        assert_eq!(s.nrows(), 0);
        assert!(s.spmv(&[]).is_empty());
        assert_eq!(s.to_csr(), empty);
    }

    #[test]
    fn padding_is_masked_not_computed() {
        // Padding slots store column 0. If a kernel naively computed them
        // (0.0 · x[0]) with x[0] = ∞, the padded rows of the chunk would
        // turn into NaN (0·∞ = NaN). The spec keeps padding out of the
        // accumulation entirely.
        let mut coo = CooMatrix::new(4, 4);
        coo.push(0, 0, 2.0);
        coo.push(0, 1, 1.0);
        coo.push(0, 2, 1.0);
        coo.push(1, 1, 3.0); // shorter row in the same chunk => padded
        let a = coo.to_csr();
        let s = SellMatrix::from_csr(&a, 4);
        let mut x = vec![1.0; 4];
        x[0] = f64::INFINITY;
        let y = s.spmv(&x);
        assert_eq!(y[0], f64::INFINITY, "row 0 really references x[0]");
        assert_eq!(y[1], 3.0, "padded row must not see x[0]");
        assert_eq!(y[2].to_bits(), 0.0f64.to_bits(), "empty row is +0.0");
    }

    #[test]
    fn sigma_windows_bound_row_movement() {
        let a = ragged(40, 40, 1);
        let s = SellMatrix::from_csr(&a, 8);
        for (p, &orig) in s.perm().iter().enumerate() {
            assert_eq!(p / 8, orig as usize / 8, "row {orig} left its σ-window");
        }
    }

    #[test]
    fn row_mapped_parts_write_only_their_rows() {
        // Rows 1, 4, 5 and 8 of a ragged 10 × 12 matrix, columns shifted
        // down by 2 into a 10-long input: every stored row lands at its own
        // output slot, bit-identical to the CSR row over the shifted input,
        // and the other six slots keep what the caller left there.
        let a = ragged(10, 12, 7);
        let rows = [1usize, 4, 5, 8];
        let shift = |j: usize| j.saturating_sub(2);
        let xs: Vec<f64> = (0..10).map(|j| (j as f64 * 0.3).cos() - 0.2).collect();
        let x_full: Vec<f64> = (0..12).map(|j| xs[shift(j)]).collect();
        let want = a.spmv(&x_full);
        for sigma in [1, 2, 4, 256] {
            let s = SellMatrix::from_csr_rows(&a, &rows, 10, shift, sigma);
            assert_eq!((s.nrows(), s.out_rows(), s.ncols()), (4, 10, 10));
            let stored: usize = rows.iter().map(|&i| a.row(i).0.len()).sum();
            assert_eq!(s.nnz(), stored);
            let mut y = vec![-7.5; 10];
            s.spmv_into(&xs, &mut y);
            for (i, v) in y.iter().enumerate() {
                let expect = if rows.contains(&i) { want[i] } else { -7.5 };
                assert_eq!(v.to_bits(), expect.to_bits(), "row {i} sigma={sigma}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "maps to")]
    fn row_mapped_column_out_of_range_panics() {
        SellMatrix::from_csr_rows(&CsrMatrix::identity(3), &[2], 2, |j| j, 4);
    }

    #[test]
    #[should_panic(expected = "σ ≥ 1")]
    fn zero_sigma_panics() {
        SellMatrix::from_csr(&CsrMatrix::identity(2), 0);
    }
}
