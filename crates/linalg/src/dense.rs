//! Dense matrices (column-major) with the level-2/3 kernels the resilient
//! algorithms need: GEMV, GEMM, small QR-style helpers — and [`LuFactors`],
//! the partial-pivot LU clipped to its input's band that block-Jacobi
//! factors once and applies every iteration.

use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::ops::{auto_ops, LocalOps};
use crate::sparse::CsrMatrix;

/// A dense column-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    /// Column-major storage: element (i, j) lives at `data[j * nrows + i]`.
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Zero matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Build from a row-major nested slice (convenient in tests).
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map(Vec::len).unwrap_or(0);
        let mut m = Self::zeros(nrows, ncols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), ncols, "ragged rows");
            for (j, &v) in row.iter().enumerate() {
                m.set(i, j, v);
            }
        }
        m
    }

    /// Matrix with entries drawn uniformly from `[-1, 1]`.
    pub fn random(nrows: usize, ncols: usize, rng: &mut ChaCha8Rng) -> Self {
        let data = (0..nrows * ncols)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
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

    /// Element (i, j).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[j * self.nrows + i]
    }

    /// Set element (i, j).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[j * self.nrows + i] = v;
    }

    /// Add `v` to element (i, j).
    #[inline]
    pub fn add_to(&mut self, i: usize, j: usize, v: f64) {
        self.data[j * self.nrows + i] += v;
    }

    /// Borrow column `j` as a slice.
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Borrow column `j` mutably.
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Copy of row `i`.
    pub fn row(&self, i: usize) -> Vec<f64> {
        (0..self.ncols).map(|j| self.get(i, j)).collect()
    }

    /// Raw column-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// y = A·x.
    pub fn gemv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "gemv: dimension mismatch");
        let mut y = vec![0.0; self.nrows];
        for (j, &xj) in x.iter().enumerate() {
            if xj == 0.0 {
                continue;
            }
            let col = self.col(j);
            for i in 0..self.nrows {
                y[i] += col[i] * xj;
            }
        }
        y
    }

    /// y = Aᵀ·x.
    pub fn gemv_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.nrows, "gemv_t: dimension mismatch");
        (0..self.ncols)
            .map(|j| self.col(j).iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// C = A·B.
    pub fn gemm(&self, b: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.ncols, b.nrows, "gemm: inner dimension mismatch");
        let mut c = DenseMatrix::zeros(self.nrows, b.ncols);
        for j in 0..b.ncols {
            for k in 0..self.ncols {
                let bkj = b.get(k, j);
                if bkj == 0.0 {
                    continue;
                }
                let a_col = self.col(k);
                let c_col = c.col_mut(j);
                for i in 0..self.nrows {
                    c_col[i] += a_col[i] * bkj;
                }
            }
        }
        c
    }

    /// Transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.ncols, self.nrows);
        for j in 0..self.ncols {
            for i in 0..self.nrows {
                t.set(j, i, self.get(i, j));
            }
        }
        t
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0, |m: f64, v| m.max(v.abs()))
    }

    /// Element-wise difference `self - other`.
    pub fn sub(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Self {
            nrows: self.nrows,
            ncols: self.ncols,
            data,
        }
    }

    /// Solve the upper-triangular system `R·x = b` for `x` by back
    /// substitution, using the leading `n × n` block of `self`.
    ///
    /// # Panics
    /// Panics if a diagonal entry is exactly zero.
    pub fn solve_upper_triangular(&self, b: &[f64], n: usize) -> Vec<f64> {
        assert!(n <= self.nrows && n <= self.ncols && n <= b.len());
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = b[i];
            for (j, &xj) in x.iter().enumerate().skip(i + 1) {
                sum -= self.get(i, j) * xj;
            }
            let d = self.get(i, i);
            assert!(d != 0.0, "singular triangular factor at row {i}");
            x[i] = sum / d;
        }
        x
    }
}

/// The rows a band LU reads, one at a time: what [`LuFactors::factor`],
/// [`LuFactors::factor_csr`] and [`LuFactors::factor_csr_leading`] hand the
/// elimination, which loads each row only when a step first needs it.
trait LuRows {
    /// Order of the square matrix factored.
    fn order(&self) -> usize;

    /// Calls `f(i, j)` for every entry that can hold a nonzero, in any
    /// order: what the band `(kl, ku)` and each row's first reach come from.
    fn for_each_entry(&self, f: impl FnMut(usize, usize));

    /// Writes row `i` into `slot`, which is zeroed and holds the row's
    /// columns `base..` (every entry of the row lies inside it).
    fn load(&self, i: usize, base: usize, slot: &mut [f64]);
}

impl LuRows for DenseMatrix {
    fn order(&self) -> usize {
        self.nrows
    }

    fn for_each_entry(&self, mut f: impl FnMut(usize, usize)) {
        for j in 0..self.ncols {
            for (i, v) in self.col(j).iter().enumerate() {
                // Anything but `+0.0` is in the band, so the clipped region
                // holds only what the skipped updates leave unchanged.
                if v.to_bits() != 0 {
                    f(i, j);
                }
            }
        }
    }

    fn load(&self, i: usize, base: usize, slot: &mut [f64]) {
        // Outside the band every entry is `+0.0`, which the slot holds
        // already; inside it the entry is copied as is, `−0.0` included.
        for (x, j) in slot.iter_mut().zip(base..self.ncols) {
            *x = self.get(i, j);
        }
    }
}

/// The leading `n × n` block of a CSR matrix: rows `0..n`, entries in
/// columns `n..` dropped.
struct CsrLeading<'a> {
    a: &'a CsrMatrix,
    n: usize,
}

impl LuRows for CsrLeading<'_> {
    fn order(&self) -> usize {
        self.n
    }

    fn for_each_entry(&self, mut f: impl FnMut(usize, usize)) {
        for i in 0..self.n {
            for &j in self.a.row(i).0.iter().filter(|&&j| j < self.n) {
                f(i, j);
            }
        }
    }

    fn load(&self, i: usize, base: usize, slot: &mut [f64]) {
        let (cols, vals) = self.a.row(i);
        for (&j, &v) in cols.iter().zip(vals).filter(|(&j, _)| j < self.n) {
            // Accumulate like `CsrMatrix::to_dense`: duplicates sum. Every
            // entry is `+=` onto `+0.0`, so no `−0.0` enters the band.
            slot[j - base] += v;
        }
    }
}

/// Working rows of the band elimination: `min(kl+1, n)` slots, each
/// `min(2·kl+ku+1, n)` columns wide — the input band plus the `kl`
/// super-diagonals of fill a row swap can create. Row `i` lives in slot
/// `i mod (kl+1)` and holds its columns from `i − kl` (clipped to 0). A full
/// matrix (`kl = ku = n−1`) is the degenerate window of `n` slots of `n`.
struct BandWindow {
    kl: usize,
    slots: usize,
    stride: usize,
    data: Vec<f64>,
}

impl BandWindow {
    fn zeros(n: usize, kl: usize, ku: usize) -> Self {
        let slots = (kl + 1).min(n);
        let stride = (2 * kl + ku + 1).min(n);
        Self {
            kl,
            slots,
            stride,
            data: vec![0.0; slots * stride],
        }
    }

    /// The slot after `s`: the elimination steps through the slots in
    /// order instead of taking a remainder per row.
    fn next(&self, s: usize) -> usize {
        if s + 1 == self.slots {
            0
        } else {
            s + 1
        }
    }

    /// Position of column `j` of row `i`, held in slot `s`, in `data`.
    fn at(&self, s: usize, i: usize, j: usize) -> usize {
        s * self.stride + j - i.saturating_sub(self.kl)
    }

    /// Zero slot `s` and load row `i` of `rows` into it.
    fn load(&mut self, rows: &impl LuRows, s: usize, i: usize) {
        let slot = &mut self.data[s * self.stride..(s + 1) * self.stride];
        slot.fill(0.0);
        rows.load(i, i.saturating_sub(self.kl), slot);
    }
}

/// `len` entries of `data` at `a` and at `b`, two ranges that do not
/// overlap, in that order whichever lies first.
fn pair_mut(data: &mut [f64], a: usize, b: usize, len: usize) -> (&mut [f64], &mut [f64]) {
    if a < b {
        let (head, tail) = data.split_at_mut(b);
        (&mut head[a..a + len], &mut tail[..len])
    } else {
        let (head, tail) = data.split_at_mut(a);
        (&mut tail[..len], &mut head[b..b + len])
    }
}

/// An LU factorization with partial pivoting, `P·A = L·U`, clipped to the
/// band of `A` and trimmed to each row's reach.
///
/// The constructors detect the lower and upper bandwidths `(kl, ku)` of
/// their input and eliminate only inside them: step `k` touches rows
/// `k+1..=k+kl`, and a row swap can push `U` out by at most `kl`
/// super-diagonals. Inside that band the elimination tracks each row's
/// *reach*, one past the last column that can hold a nonzero: it starts at
/// the row's last stored entry, moves with the row on a swap, and becomes
/// `max(reach_i, reach_k)` when step `k` updates row `i` with a nonzero
/// multiplier. Step `k` updates row `i` only over columns `k+1..reach_k`,
/// and `U` is packed to the reach. When no row swaps — a diagonally
/// dominant block — every reach stays at the `ku` band edge, so the
/// executed work is `≈ 2·n·kl·ku` FLOPs to factor and a `ku`-long chain per
/// row to back-substitute, not the `kl + ku` the pivot fill might need.
///
/// The charges do not follow the reach: [`LuFactors::factor_flops`] and
/// [`LuFactors::flops_per_solve`] count the whole `(kl, ku)` band model
/// (`≈ 2·n·kl·(kl+ku)` and `≈ 2·n·(2kl+ku)`), which is what the virtual
/// clock has always charged for a band LU. A full matrix is the degenerate
/// band `kl = ku = n−1` — `≈ 2n³⁄3` and exactly `2n²`.
///
/// Every entry the trim and the band clip skip is an exact `+0.0` in the
/// pivot row, so the skipped terms are `x += −m·(+0.0)` and the entries that
/// are updated see the arithmetic of the textbook dense algorithm in the
/// same order: solutions are bit-identical to it on finite inputs (a `−0.0`
/// in the right-hand side aside — a skipped `−m·(+0.0)` can only flip the
/// sign of a zero, and only a `−0.0` from `b` lets such a sign reach `x`).
///
/// `L` keeps each step's multipliers where the step computed them — row
/// swaps are not applied to earlier columns, which is what bounds a column
/// of `L` to `kl` entries — so the solves apply swap `k` just before
/// eliminating with column `k`.
///
/// Memory: the elimination works in a window of the `kl + 1` rows one step
/// touches, each `2·kl + ku + 1` wide, instead of the whole band — row
/// `k + kl` is loaded from the input when step `k` needs it, row `k` packed
/// into `U` when step `k` ends. On a 2312-row block with `kl = ku = 68`
/// that is 69 × 205 values (113 KB) where the band was 3.8 MB; a full
/// matrix still needs `n²`. The factors keep `L` (≤ `kl` per column) and
/// `U` to each row's reach, in a buffer reserved once at the band model's
/// count.
///
/// Built once, then applied repeatedly through the allocation-free
/// [`LuFactors::solve_into`] — the shape a block-Jacobi preconditioner
/// needs: factor the local diagonal block at setup, back-substitute every
/// iteration.
#[derive(Debug, Clone)]
pub struct LuFactors {
    n: usize,
    /// Row swapped with row `k` at elimination step `k`.
    pivots: Vec<usize>,
    /// Unit-diagonal `L` packed by column (column `j` =
    /// `l_cols[l_off[j]..l_off[j+1]]`, rows `j+1..=j+kl` clipped): forward
    /// substitution is one contiguous `axpy` per column.
    l_cols: Vec<f64>,
    l_off: Vec<usize>,
    /// `U` packed by row (row `i` = `u_rows[u_off[i]..u_off[i+1]]`, diagonal
    /// first, columns `i..reach_i`): back substitution reads each row
    /// contiguously and stops at its reach.
    u_rows: Vec<f64>,
    u_off: Vec<usize>,
    factor_flops: usize,
    /// The band model's solve count: `L` as stored, `U` out to `kl + ku`.
    solve_flops: usize,
}

impl LuFactors {
    /// Factor a square matrix. A pivot column whose remaining entries are
    /// all exactly zero is replaced by a unit pivot (the corresponding
    /// solution component passes through unscaled), so the factorization is
    /// always defined — the same always-defined convention the Jacobi
    /// preconditioner uses for zero diagonal entries.
    ///
    /// # Panics
    /// Panics if `a` is not square.
    pub fn factor(a: &DenseMatrix) -> Self {
        assert_eq!(a.nrows(), a.ncols(), "LU requires a square matrix");
        Self::eliminate(a)
    }

    /// Factor a square sparse matrix straight from its rows, taking the
    /// band from the stored structure: the factors of
    /// `factor(&a.to_dense())` without the `n²` copy.
    ///
    /// # Panics
    /// Panics if `a` is not square.
    pub fn factor_csr(a: &CsrMatrix) -> Self {
        assert_eq!(a.nrows(), a.ncols(), "LU requires a square matrix");
        Self::factor_csr_leading(a, a.nrows())
    }

    /// Factor the leading `n × n` block of `a` — rows `0..n`, every entry
    /// in a column `≥ n` dropped — straight from `a`'s rows: a distributed
    /// matrix's diagonal block without copying it out of the owned rows.
    ///
    /// # Panics
    /// Panics if `a` has fewer than `n` rows.
    pub fn factor_csr_leading(a: &CsrMatrix, n: usize) -> Self {
        assert!(n <= a.nrows(), "LU block larger than the matrix");
        Self::eliminate(&CsrLeading { a, n })
    }

    /// Partial-pivot Gaussian elimination inside the band, each row updated
    /// only up to the pivot row's reach (`reach[i]`: one past the last
    /// column of row `i` that can hold a nonzero, and at least `i + 1`;
    /// everything beyond it is `+0.0`).
    ///
    /// Step `k` touches only rows `k..=k+kl`, so the working rows are a
    /// [`BandWindow`] of `kl + 1` slots: step `k` loads row `k + kl` into
    /// the slot row `k − 1` left, and packs row `k` into `U` when it ends —
    /// no later step touches that row, so its reach is final.
    fn eliminate(rows: &impl LuRows) -> Self {
        let n = rows.order();
        let (mut kl, mut ku) = (0, 0);
        // Row `i` reaches at least its diagonal (a unit pivot may land
        // there) and past its last entry.
        let mut reach: Vec<usize> = (1..=n).collect();
        rows.for_each_entry(|i, j| {
            kl = kl.max(i.saturating_sub(j));
            ku = ku.max(j.saturating_sub(i));
            reach[i] = reach[i].max(j + 1);
        });
        let mut w = BandWindow::zeros(n, kl, ku);
        // Rows 0..kl; step k loads row k + kl itself.
        for i in 0..kl.min(n) {
            w.load(rows, i, i);
        }
        // The row update is `solve_with`'s forward-sweep `axpy`: unfused
        // multiply then add on every backend, and `(−m)·u ≡ −(m·u)`.
        let ops = auto_ops();
        let mut pivots = vec![0usize; n];
        let mut l_cols = Vec::with_capacity((0..n).map(|j| kl.min(n - 1 - j)).sum());
        let mut l_off = Vec::with_capacity(n + 1);
        l_off.push(0);
        // The band model's `U`: no reach passes `i + kl + ku + 1`, so `U`
        // fills this without regrowing.
        let band_u: usize = (0..n).map(|i| (kl + ku).min(n - 1 - i) + 1).sum();
        let mut u_rows = Vec::with_capacity(band_u);
        let mut u_off = Vec::with_capacity(n + 1);
        u_off.push(0);
        let mut factor_flops = 0;
        // Slots of row k and of row k + kl (the slot row k − 1 left).
        let (mut slot_k, mut slot_in) = (0, w.slots.saturating_sub(1));
        for (k, pivot_slot) in pivots.iter_mut().enumerate() {
            if k + kl < n {
                w.load(rows, slot_in, k + kl);
            }
            let last_row = (k + kl).min(n - 1);
            // Rows k..=last_row, each from column k to the last one any of
            // them reaches: `width` entries starting at column k.
            let width = (k + kl + ku).min(n - 1) - k + 1;
            // Partial pivoting: largest |entry| in column k; below
            // `last_row` the column is structurally zero.
            let start_k = w.at(slot_k, k, k);
            let (mut piv, mut slot_piv) = (k, slot_k);
            let mut best = w.data[start_k].abs();
            let mut s = slot_k;
            for i in k + 1..=last_row {
                s = w.next(s);
                let v = w.data[w.at(s, i, k)].abs();
                if v > best {
                    best = v;
                    (piv, slot_piv) = (i, s);
                }
            }
            *pivot_slot = piv;
            if piv != k {
                // Row `piv`'s slot lies after row k's, or before it once
                // the window has wrapped.
                let start_piv = w.at(slot_piv, piv, k);
                let (row_k, row_piv) = pair_mut(&mut w.data, start_k, start_piv, width);
                row_k.swap_with_slice(row_piv);
                // The reach moves with its row; the row moving down still
                // reaches its new diagonal (a unit pivot may land there).
                reach.swap(k, piv);
                reach[piv] = reach[piv].max(piv + 1);
            }
            if w.data[start_k] == 0.0 {
                // Structurally singular column: unit pivot, zero multipliers.
                w.data[start_k] = 1.0;
            }
            // Columns k..reach_k of the pivot row; past them it is `+0.0`.
            let span = reach[k] - k;
            let mut s = slot_k;
            for i in k + 1..=last_row {
                s = w.next(s);
                let start_i = w.at(s, i, k);
                let (row_k, row_i) = pair_mut(&mut w.data, start_k, start_i, span);
                let m = row_i[0] / row_k[0];
                l_cols.push(m);
                if m != 0.0 {
                    ops.axpy(-m, &row_k[1..], &mut row_i[1..]);
                    reach[i] = reach[i].max(reach[k]);
                    // Charged at the band model, not the span (see the
                    // type's docs).
                    factor_flops += 2 * (width - 1);
                }
            }
            l_off.push(l_cols.len());
            u_rows.extend_from_slice(&w.data[start_k..start_k + span]);
            u_off.push(u_rows.len());
            slot_in = slot_k;
            slot_k = w.next(slot_k);
        }
        Self {
            n,
            pivots,
            solve_flops: 2 * (l_cols.len() + band_u),
            l_cols,
            l_off,
            u_rows,
            u_off,
            factor_flops,
        }
    }

    /// Order of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// FLOPs the band model charges for the factorization: one
    /// multiply–add per in-band entry right of the pivot column in every
    /// row a nonzero multiplier updated (`≈ 2n³⁄3` for a full matrix). The
    /// reach trim executes fewer; see the type's docs.
    pub fn factor_flops(&self) -> usize {
        self.factor_flops
    }

    /// FLOPs the band model charges for one [`LuFactors::solve_into`]: a
    /// multiply–add per entry of `L` and of `U` out to `kl + ku`
    /// super-diagonals (`2n²` for a full matrix). The reach trim executes
    /// fewer; see the type's docs.
    pub fn flops_per_solve(&self) -> usize {
        self.solve_flops
    }

    fn l_col(&self, j: usize) -> &[f64] {
        &self.l_cols[self.l_off[j]..self.l_off[j + 1]]
    }

    fn u_row(&self, i: usize) -> &[f64] {
        &self.u_rows[self.u_off[i]..self.u_off[i + 1]]
    }

    /// Solve `A·x = b` in place of `x` (allocation-free): forward-substitute
    /// `L` column by column, applying each step's row swap first, then
    /// back-substitute `U`.
    ///
    /// # Panics
    /// Panics if `b` or `x` is shorter than the factored dimension.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        let n = self.n;
        assert!(b.len() >= n && x.len() >= n, "LU solve: length mismatch");
        x[..n].copy_from_slice(&b[..n]);
        for (j, &piv) in self.pivots.iter().enumerate() {
            x.swap(j, piv);
            let xj = x[j];
            for (l, xi) in self.l_col(j).iter().zip(&mut x[j + 1..]) {
                *xi -= l * xj;
            }
        }
        for i in (0..n).rev() {
            let row = self.u_row(i);
            let mut s = x[i];
            for (u, xj) in row[1..].iter().zip(&x[i + 1..]) {
                s -= u * xj;
            }
            x[i] = s / row[0];
        }
    }

    /// Allocating convenience wrapper around [`LuFactors::solve_into`].
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x);
        x
    }

    /// [`LuFactors::solve_into`] routed through a [`LocalOps`] backend —
    /// the form the block-Jacobi preconditioner applies every iteration.
    ///
    /// Bit-identical to [`LuFactors::solve_into`] (pinned by the parity
    /// proptests): each finalized `x[j]` is eliminated from the rows below
    /// it via `ops.axpy` over the contiguous `L` column, and the back
    /// substitution keeps its order-sensitive sequential recurrence
    /// ([`LocalOps::msub_seq`]) over the packed `U` row.
    ///
    /// # Panics
    /// Panics if `b` or `x` is shorter than the factored dimension.
    pub fn solve_with(&self, ops: &dyn LocalOps, b: &[f64], x: &mut [f64]) {
        let n = self.n;
        assert!(b.len() >= n && x.len() >= n, "LU solve: length mismatch");
        x[..n].copy_from_slice(&b[..n]);
        for (j, &piv) in self.pivots.iter().enumerate() {
            x.swap(j, piv);
            let (head, tail) = x.split_at_mut(j + 1);
            let col = self.l_col(j);
            // y += (-x_j)·l; (-x_j)·l ≡ -(l·x_j) bitwise, so this is
            // `solve_into`'s `x_i -= l·x_j` for every row of the column.
            ops.axpy(-head[j], col, &mut tail[..col.len()]);
        }
        for i in (0..n).rev() {
            let row = self.u_row(i);
            let (head, tail) = x.split_at_mut(i + 1);
            head[i] = ops.msub_seq(head[i], &row[1..], &tail[..row.len() - 1]) / row[0];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn construction_and_access() {
        let mut m = DenseMatrix::zeros(2, 3);
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        m.add_to(1, 2, 1.0);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(1), vec![0.0, 0.0, 6.0]);
        assert_eq!(m.col(2), &[0.0, 6.0]);
    }

    #[test]
    fn identity_gemv_is_identity() {
        let i3 = DenseMatrix::identity(3);
        let x = [1.0, -2.0, 3.0];
        assert_eq!(i3.gemv(&x), vec![1.0, -2.0, 3.0]);
    }

    #[test]
    fn from_rows_and_gemv() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert_eq!(a.gemv(&[1.0, 1.0]), vec![3.0, 7.0, 11.0]);
        assert_eq!(a.gemv_t(&[1.0, 0.0, 1.0]), vec![6.0, 8.0]);
    }

    #[test]
    fn gemm_matches_manual() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = DenseMatrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.gemm(&b);
        assert_eq!(c.get(0, 0), 19.0);
        assert_eq!(c.get(0, 1), 22.0);
        assert_eq!(c.get(1, 0), 43.0);
        assert_eq!(c.get(1, 1), 50.0);
    }

    #[test]
    fn gemm_identity_is_noop() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = DenseMatrix::random(4, 4, &mut rng);
        let c = a.gemm(&DenseMatrix::identity(4));
        assert!(a.sub(&c).norm_max() < 1e-15);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let a = DenseMatrix::random(3, 5, &mut rng);
        let att = a.transpose().transpose();
        assert!(a.sub(&att).norm_max() == 0.0);
        assert_eq!(a.transpose().nrows(), 5);
    }

    #[test]
    fn norms() {
        let a = DenseMatrix::from_rows(&[vec![3.0, 0.0], vec![0.0, -4.0]]);
        assert_eq!(a.norm_fro(), 5.0);
        assert_eq!(a.norm_max(), 4.0);
    }

    #[test]
    fn upper_triangular_solve() {
        let r = DenseMatrix::from_rows(&[vec![2.0, 1.0], vec![0.0, 4.0]]);
        let x = r.solve_upper_triangular(&[4.0, 8.0], 2);
        assert_eq!(x, vec![1.0, 2.0]);
    }

    #[test]
    fn lu_solves_random_systems() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for n in [1usize, 2, 5, 17] {
            // Diagonal boost keeps the random matrix comfortably nonsingular.
            let mut a = DenseMatrix::random(n, n, &mut rng);
            for i in 0..n {
                a.add_to(i, i, n as f64);
            }
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() + 1.0).collect();
            let b = a.gemv(&x_true);
            let lu = LuFactors::factor(&a);
            assert_eq!(lu.dim(), n);
            assert_eq!(lu.flops_per_solve(), 2 * n * n);
            let x = lu.solve(&b);
            for (got, want) in x.iter().zip(&x_true) {
                assert!((got - want).abs() < 1e-10, "n={n}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn lu_work_follows_the_band() {
        // A full matrix is the degenerate band: 2n² per solve, 2·Σm² to factor.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let n = 17;
        let full = LuFactors::factor(&DenseMatrix::random(n, n, &mut rng));
        assert_eq!(full.flops_per_solve(), 2 * n * n);
        assert_eq!(full.factor_flops(), (n - 1) * n * (2 * n - 1) / 3);

        // poisson2d(8, 8): n = 64, kl = ku = 8 — L keeps 8 sub-diagonals, U
        // the diagonal plus 16 super-diagonals, both clipped at the corner.
        let a = crate::poisson2d(8, 8);
        let n = a.nrows();
        let band = LuFactors::factor_csr(&a);
        let stored: usize = (0..n)
            .map(|i| 8.min(n - 1 - i) + 16.min(n - 1 - i) + 1)
            .sum();
        assert_eq!(band.flops_per_solve(), 2 * stored);
        assert!(band.flops_per_solve() < 2 * n * n);
        assert!(band.factor_flops() < 2 * n * 8 * 16);

        // The CSR route and the dense route are the same factorization.
        let dense = LuFactors::factor(&a.to_dense());
        assert_eq!(dense.flops_per_solve(), band.flops_per_solve());
        assert_eq!(dense.factor_flops(), band.factor_flops());
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos()).collect();
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(dense.solve(&b)), bits(band.solve(&b)));
    }

    #[test]
    fn lu_stores_u_to_each_rows_reach() {
        // poisson2d(8, 8) is diagonally dominant, so no row swaps and every
        // reach stays at the ku = 8 band edge: U keeps the diagonal plus 8
        // per row, while the charge is still the (kl, ku) = (8, 8) band
        // model's diagonal plus 16.
        let a = crate::poisson2d(8, 8);
        let n = a.nrows();
        let lu = LuFactors::factor_csr(&a);
        assert!(lu.pivots.iter().enumerate().all(|(k, &p)| p == k));
        for i in 0..n {
            assert_eq!(lu.u_row(i).len(), 8.min(n - 1 - i) + 1, "row {i}");
        }
        let l: usize = (0..n).map(|i| 8.min(n - 1 - i)).sum();
        assert_eq!(lu.l_cols.len(), l);
        let charged: usize = (0..n)
            .map(|i| 8.min(n - 1 - i) + 16.min(n - 1 - i) + 1)
            .sum();
        assert_eq!(lu.flops_per_solve(), 2 * charged);
        // The dense route finds the same reaches.
        let dense = LuFactors::factor(&a.to_dense());
        assert_eq!(dense.u_off, lu.u_off);
    }

    /// The band model's `U` count, out of the stored solve charge.
    fn band_u(lu: &LuFactors) -> usize {
        lu.flops_per_solve() / 2 - lu.l_cols.len()
    }

    #[test]
    fn lu_works_in_a_window_of_kl_plus_one_rows() {
        // min(kl+1, n) slots of min(2kl+ku+1, n): lflr_kill's 2312-row
        // blocks (kl = ku = 68) take 69 × 205 values, not 2312 rows; a full
        // matrix is n².
        for (n, kl, ku) in [
            (2312, 68, 68),
            (2592, 72, 72),
            (64, 8, 8),
            (64, 3, 0),
            (5, 0, 4),
        ] {
            let w = BandWindow::zeros(n, kl, ku);
            assert_eq!(w.data.len(), (kl + 1).min(n) * (2 * kl + ku + 1).min(n));
        }
        assert_eq!(BandWindow::zeros(2312, 68, 68).data.len() * 8, 113_160);
        for n in [0usize, 1, 2, 17] {
            let full = n.saturating_sub(1);
            assert_eq!(BandWindow::zeros(n, full, full).data.len(), n * n);
        }

        // U is reserved once at the band model's count, with or without
        // row swaps growing the reaches: no doubling slack. With kl = 1
        // and ku = 6 a swap widens a reach by one, and a `U` grown from
        // the stored reaches would double past the band model's count.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut swapping = crate::CooMatrix::new(40, 40);
        for i in 0..40usize {
            for j in i.saturating_sub(1)..(i + 7).min(40) {
                swapping.push(i, j, rng.gen_range(-1.0..1.0));
            }
        }
        let swapping = LuFactors::factor_csr(&swapping.to_csr());
        assert!(swapping.pivots.iter().enumerate().any(|(k, &p)| p != k));
        for lu in [
            swapping,
            LuFactors::factor_csr(&crate::poisson2d(8, 8)),
            LuFactors::factor(&DenseMatrix::random(17, 17, &mut rng)),
        ] {
            assert!(lu.u_rows.len() <= lu.u_rows.capacity());
            assert!(
                lu.u_rows.capacity() <= band_u(&lu),
                "{} > {}",
                lu.u_rows.capacity(),
                band_u(&lu)
            );
        }
    }

    #[test]
    fn lu_window_swaps_rows_across_the_wrap() {
        // kl = 2: three slots. A dominant sub-diagonal makes every step
        // take its pivot from the row below, so at k = 2 (slot 2) the pivot
        // row 3 sits in slot 0, and at k = 5 row 6 again sits in slot 0.
        let n = 9;
        let mut a = DenseMatrix::zeros(n, n);
        for i in 0..n {
            a.set(i, i, 1.0 + 0.1 * i as f64);
            if i >= 1 {
                a.set(i, i - 1, 10.0 + i as f64);
            }
            if i >= 2 {
                a.set(i, i - 2, 0.5);
            }
            if i + 1 < n {
                a.set(i, i + 1, -0.25);
            }
        }
        let lu = LuFactors::factor(&a);
        for k in [2, 5] {
            assert_eq!(lu.pivots[k], k + 1, "step {k}");
            assert!(
                (k + 1) % 3 < k % 3,
                "the pivot row's slot lies before row {k}'s"
            );
        }
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 - 0.3 * i as f64).collect();
        let x = lu.solve(&a.gemv(&x_true));
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn lu_factor_csr_leading_drops_the_columns_past_the_block() {
        // A distributed matrix's owned rows: the block's own columns
        // first, then couplings to other ranks' rows in columns `n..`.
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let owned_rows = |block: &DenseMatrix, ghosts: usize, rng: &mut ChaCha8Rng| {
            let n = block.nrows();
            let mut coo = crate::CooMatrix::new(n, n + ghosts);
            for i in 0..n {
                for j in 0..n {
                    if block.get(i, j) != 0.0 {
                        coo.push(i, j, block.get(i, j));
                    }
                }
                for g in 0..ghosts {
                    coo.push(i, n + g, rng.gen_range(-1.0..1.0));
                }
            }
            coo.to_csr()
        };
        let diagonal = DenseMatrix::from_rows(&[
            vec![2.0, 0.0, 0.0],
            vec![0.0, -4.0, 0.0],
            vec![0.0, 0.0, 0.5],
        ]);
        let mut full = DenseMatrix::random(6, 6, &mut rng);
        full.set(0, 5, 3.0);
        full.set(5, 0, -3.0);
        for block in [
            DenseMatrix::zeros(0, 0),
            DenseMatrix::from_rows(&[vec![-3.0]]),
            diagonal,
            full,
        ] {
            let n = block.nrows();
            let rows = owned_rows(&block, 3, &mut rng);
            let lu = LuFactors::factor_csr_leading(&rows, n);
            let want = LuFactors::factor(&block);
            assert_eq!(lu.dim(), n);
            assert_eq!(lu.pivots, want.pivots);
            assert_eq!(lu.u_off, want.u_off);
            assert_eq!(lu.factor_flops(), want.factor_flops());
            assert_eq!(lu.flops_per_solve(), want.flops_per_solve());
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).sin() + 2.0).collect();
            assert_eq!(bits(lu.solve(&b)), bits(want.solve(&b)), "n = {n}");
        }
        // The single row and the diagonal factor without any elimination.
        let one = LuFactors::factor_csr_leading(
            &owned_rows(&DenseMatrix::from_rows(&[vec![-3.0]]), 2, &mut rng),
            1,
        );
        assert_eq!(one.solve(&[6.0]), vec![-2.0]);
        assert_eq!(one.factor_flops(), 0);
        let diag =
            LuFactors::factor_csr_leading(&owned_rows(&DenseMatrix::identity(4), 1, &mut rng), 4);
        assert!(diag.l_cols.is_empty() && diag.u_off == [0, 1, 2, 3, 4]);
    }

    #[test]
    fn lu_solve_into_is_allocation_shaped() {
        // solve_into writes into a caller buffer longer than n and leaves
        // the tail untouched.
        let a = DenseMatrix::from_rows(&[vec![4.0, 1.0], vec![2.0, 3.0]]);
        let lu = LuFactors::factor(&a);
        let mut x = vec![7.0; 4];
        lu.solve_into(&[6.0, 8.0], &mut x);
        assert!(
            (a.gemv(&x[..2]).iter().zip([6.0, 8.0])).all(|(got, want)| (got - want).abs() < 1e-12)
        );
        assert_eq!(&x[2..], &[7.0, 7.0]);
    }

    #[test]
    fn lu_zero_pivot_column_degrades_to_identity_row() {
        // A zero matrix factors to unit pivots: solve returns b unchanged.
        let a = DenseMatrix::zeros(3, 3);
        let lu = LuFactors::factor(&a);
        assert_eq!(lu.solve(&[1.0, -2.0, 3.0]), vec![1.0, -2.0, 3.0]);
        // Empty blocks (a rank owning zero rows) are fine too.
        let empty = LuFactors::factor(&DenseMatrix::zeros(0, 0));
        assert_eq!(empty.dim(), 0);
        empty.solve_into(&[], &mut []);
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn singular_triangular_panics() {
        let r = DenseMatrix::from_rows(&[vec![0.0]]);
        r.solve_upper_triangular(&[1.0], 1);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn gemv_dimension_mismatch_panics() {
        DenseMatrix::zeros(2, 2).gemv(&[1.0]);
    }
}
