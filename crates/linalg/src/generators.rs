//! Model-problem generators.
//!
//! The resilient-solver experiments all run on the standard model problems
//! of the papers the position paper cites: finite-difference Laplacians in
//! one and two dimensions, plus random diagonally dominant and SPD
//! matrices for stress tests.

use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::sparse::{CooMatrix, CsrMatrix};

/// Row-by-row CSR writer for the generators whose rows come out in order
/// with ascending columns: it builds what pushing the same entries into a
/// [`CooMatrix`] and calling `to_csr` would (exact zeros dropped), without
/// sorting all the triplets.
struct CsrRows {
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrRows {
    fn with_capacity(nrows: usize, ncols: usize, nnz: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        row_ptr.push(0);
        Self {
            ncols,
            row_ptr,
            col_idx: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
        }
    }

    /// Append `v` at column `j` of the row being written.
    fn push(&mut self, j: usize, v: f64) {
        let row_start = *self.row_ptr.last().expect("row_ptr starts at 0");
        debug_assert!(
            self.col_idx[row_start..].last().map_or(true, |&l| l < j),
            "columns of a row must ascend"
        );
        if v != 0.0 {
            self.col_idx.push(j);
            self.values.push(v);
        }
    }

    fn end_row(&mut self) {
        self.row_ptr.push(self.col_idx.len());
    }

    fn finish(self) -> CsrMatrix {
        let nrows = self.row_ptr.len() - 1;
        CsrMatrix::from_raw(nrows, self.ncols, self.row_ptr, self.col_idx, self.values)
    }
}

/// 1-D Poisson (tridiagonal) matrix of order `n`: 2 on the diagonal, −1 on
/// the off-diagonals. Symmetric positive definite.
pub fn poisson1d(n: usize) -> CsrMatrix {
    let mut rows = CsrRows::with_capacity(n, n, 3 * n);
    for i in 0..n {
        if i > 0 {
            rows.push(i - 1, -1.0);
        }
        rows.push(i, 2.0);
        if i + 1 < n {
            rows.push(i + 1, -1.0);
        }
        rows.end_row();
    }
    rows.finish()
}

/// 2-D Poisson matrix for an `nx × ny` grid with the 5-point stencil
/// (Dirichlet boundary): order `nx·ny`, 4 on the diagonal, −1 couplings.
/// Symmetric positive definite.
pub fn poisson2d(nx: usize, ny: usize) -> CsrMatrix {
    let n = nx * ny;
    let mut rows = CsrRows::with_capacity(n, n, 5 * n);
    for i in 0..nx {
        for j in 0..ny {
            let row = i * ny + j;
            if i > 0 {
                rows.push(row - ny, -1.0);
            }
            if j > 0 {
                rows.push(row - 1, -1.0);
            }
            rows.push(row, 4.0);
            if j + 1 < ny {
                rows.push(row + 1, -1.0);
            }
            if i + 1 < nx {
                rows.push(row + ny, -1.0);
            }
            rows.end_row();
        }
    }
    rows.finish()
}

/// Anisotropic, jumpy-coefficient 2-D diffusion matrix on an `nx × ny` grid
/// (5-point stencil, Dirichlet boundary): the discretization of
/// `−∇·(κ(x)·diag(eps_x, 1)·∇u)` with strong coupling along grid lines
/// (the `j` direction, contiguous under block-row distribution), weak
/// coupling `eps_x` across lines, and the scalar coefficient `κ` jumping
/// by `jump` between alternating horizontal bands of `band` lines.
///
/// Symmetric positive definite, but — unlike [`poisson2d`] — genuinely
/// ill-conditioned for small `eps_x` / large `jump`: the model problem the
/// preconditioning experiments use, where unpreconditioned Krylov iteration
/// counts explode while the strong couplings and the coefficient jumps both
/// live *inside* each rank's diagonal block, so block-Jacobi recovers them.
///
/// Edge coefficients use the geometric mean of the two adjacent cell
/// coefficients (symmetric by construction); each row's diagonal is the sum
/// of all four incident edge coefficients, boundary edges included, which
/// keeps the matrix SPD.
pub fn anisotropic2d(nx: usize, ny: usize, eps_x: f64, jump: f64, band: usize) -> CsrMatrix {
    assert!(eps_x > 0.0 && jump > 0.0 && band > 0);
    let n = nx * ny;
    // Cell coefficient: bands of `band` grid lines alternate κ = 1 / κ = jump.
    let kappa = |i: usize| if (i / band) % 2 == 0 { 1.0 } else { jump };
    let edge = |ka: f64, kb: f64| (ka * kb).sqrt();
    let mut rows = CsrRows::with_capacity(n, n, 5 * n);
    for i in 0..nx {
        for j in 0..ny {
            let row = i * ny + j;
            let k = kappa(i);
            // i-direction (across lines): weak coupling eps_x; j-direction
            // (along a line): full-strength coupling.
            let up = if i > 0 { edge(k, kappa(i - 1)) } else { k };
            let down = if i + 1 < nx { edge(k, kappa(i + 1)) } else { k };
            let diag = eps_x * up + eps_x * down + 2.0 * k;
            if i > 0 {
                rows.push(row - ny, -eps_x * up);
            }
            if j > 0 {
                rows.push(row - 1, -k);
            }
            rows.push(row, diag);
            if j + 1 < ny {
                rows.push(row + 1, -k);
            }
            if i + 1 < nx {
                rows.push(row + ny, -eps_x * down);
            }
            rows.end_row();
        }
    }
    rows.finish()
}

/// Random sparse, strictly diagonally dominant (hence non-singular) matrix
/// of order `n` with roughly `nnz_per_row` off-diagonal entries per row.
/// Not symmetric — used to exercise GMRES on a non-SPD problem.
pub fn diag_dominant_random(n: usize, nnz_per_row: usize, rng: &mut ChaCha8Rng) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        let mut off_sum = 0.0;
        for _ in 0..nnz_per_row {
            let j = rng.gen_range(0..n);
            if j == i {
                continue;
            }
            let v: f64 = rng.gen_range(-1.0..1.0);
            off_sum += v.abs();
            coo.push(i, j, v);
        }
        coo.push(i, i, off_sum + 1.0 + rng.gen_range(0.0..1.0));
    }
    coo.to_csr()
}

/// Random symmetric positive-definite matrix `AᵀA + n·I` of order `n`
/// (dense pattern, small orders only). Used by property tests for CG.
pub fn spd_random(n: usize, rng: &mut ChaCha8Rng) -> CsrMatrix {
    let a: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let mut rows = CsrRows::with_capacity(n, n, n * n);
    for i in 0..n {
        for j in 0..n {
            let mut v = 0.0;
            for (k, row) in a.iter().enumerate() {
                v += row[i] * a[k][j];
            }
            if i == j {
                v += n as f64;
            }
            rows.push(j, v);
        }
        rows.end_row();
    }
    rows.finish()
}

/// A right-hand side vector with entries all equal to one (the canonical
/// model-problem forcing term).
pub fn ones(n: usize) -> Vec<f64> {
    vec![1.0; n]
}

/// A random vector with entries in `[-1, 1]`.
pub fn random_vector(n: usize, rng: &mut ChaCha8Rng) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::{dot, nrm2};
    use rand::SeedableRng;

    /// The stencil generators as they were first written: every entry pushed
    /// into a [`CooMatrix`] in stencil order and sorted by `to_csr` — the
    /// reference the direct CSR writers must equal.
    fn coo_stencil(
        dims: [usize; 3],
        diag: impl Fn(usize) -> f64,
        off: impl Fn(usize, usize) -> f64,
    ) -> CsrMatrix {
        let [nx, ny, nz] = dims;
        let idx = |i: usize, j: usize, k: usize| (i * ny + j) * nz + k;
        let mut coo = CooMatrix::new(nx * ny * nz, nx * ny * nz);
        for i in 0..nx {
            for j in 0..ny {
                for k in 0..nz {
                    let row = idx(i, j, k);
                    coo.push(row, row, diag(i));
                    if i > 0 {
                        coo.push(row, idx(i - 1, j, k), off(i, 0));
                    }
                    if i + 1 < nx {
                        coo.push(row, idx(i + 1, j, k), off(i, 1));
                    }
                    if j > 0 {
                        coo.push(row, idx(i, j - 1, k), off(i, 2));
                    }
                    if j + 1 < ny {
                        coo.push(row, idx(i, j + 1, k), off(i, 2));
                    }
                    if k > 0 {
                        coo.push(row, idx(i, j, k - 1), off(i, 3));
                    }
                    if k + 1 < nz {
                        coo.push(row, idx(i, j, k + 1), off(i, 3));
                    }
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn direct_csr_generators_equal_the_coo_built_matrices() {
        let minus_one = |_: usize, _: usize| -1.0;
        for n in [0, 1, 2, 9] {
            assert_eq!(
                poisson1d(n),
                coo_stencil([n, 1, 1], |_| 2.0, minus_one),
                "1d {n}"
            );
        }
        for (nx, ny) in [(1, 1), (1, 9), (9, 1), (7, 5), (68, 68)] {
            assert_eq!(
                poisson2d(nx, ny),
                coo_stencil([nx, ny, 1], |_| 4.0, minus_one),
                "2d {nx}x{ny}"
            );
        }
        // The anisotropic stencil, coefficient by coefficient as its doc
        // states them (`dir` 0/1 = the edge to line i−1 / i+1, 2 = along
        // the line).
        let (eps, jump, band) = (0.05, 1000.0, 2);
        let kappa = |i: usize| if (i / band) % 2 == 0 { 1.0 } else { jump };
        for (nx, ny) in [(1, 1), (1, 6), (6, 1), (8, 6)] {
            let edge = |i: usize, dir: usize| -> f64 {
                let k: f64 = kappa(i);
                match dir {
                    0 if i > 0 => (k * kappa(i - 1)).sqrt(),
                    1 if i + 1 < nx => (k * kappa(i + 1)).sqrt(),
                    _ => k,
                }
            };
            let want = coo_stencil(
                [nx, ny, 1],
                |i| eps * edge(i, 0) + eps * edge(i, 1) + 2.0 * kappa(i),
                |i, dir| {
                    if dir == 2 {
                        -kappa(i)
                    } else {
                        -eps * edge(i, dir)
                    }
                },
            );
            assert_eq!(
                anisotropic2d(nx, ny, eps, jump, band),
                want,
                "aniso {nx}x{ny}"
            );
        }
        // Dense pattern: every (i, j) pushed in order is what COO sorts to.
        let a = spd_random(6, &mut ChaCha8Rng::seed_from_u64(11));
        let mut coo = CooMatrix::new(6, 6);
        for i in 0..6 {
            let (cols, vals) = a.row(i);
            assert_eq!(cols, [0, 1, 2, 3, 4, 5]);
            for (&j, &v) in cols.iter().zip(vals) {
                coo.push(i, j, v);
            }
        }
        assert_eq!(a, coo.to_csr());
    }

    #[test]
    fn poisson1d_structure() {
        let a = poisson1d(5);
        assert_eq!(a.nrows(), 5);
        assert_eq!(a.nnz(), 13);
        assert_eq!(a.diagonal(), vec![2.0; 5]);
        // Row sums are zero in the interior, one at the boundary rows.
        assert_eq!(a.row_sums(), vec![1.0, 0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn poisson2d_structure() {
        let a = poisson2d(3, 4);
        assert_eq!(a.nrows(), 12);
        assert_eq!(a.diagonal(), vec![4.0; 12]);
        // 5-point stencil nnz: 5*interior + boundary adjustments = 12*5 - 2*(3+4)
        assert_eq!(a.nnz(), 12 * 5 - 2 * (3 + 4));
        // Symmetry.
        assert_eq!(a.to_dense(), a.transpose().to_dense());
    }

    #[test]
    fn poisson_matrices_are_positive_definite_on_samples() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for a in [poisson1d(10), poisson2d(4, 4)] {
            for _ in 0..5 {
                let x = random_vector(a.nrows(), &mut rng);
                if nrm2(&x) < 1e-12 {
                    continue;
                }
                let quad = dot(&x, &a.spmv(&x));
                assert!(quad > 0.0, "xᵀAx must be positive for SPD A");
            }
        }
    }

    #[test]
    fn anisotropic2d_is_symmetric_positive_definite() {
        let a = anisotropic2d(8, 6, 0.05, 1000.0, 2);
        assert_eq!(a.nrows(), 48);
        assert_eq!(a.to_dense(), a.transpose().to_dense());
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for _ in 0..5 {
            let x = random_vector(a.nrows(), &mut rng);
            if nrm2(&x) < 1e-12 {
                continue;
            }
            assert!(dot(&x, &a.spmv(&x)) > 0.0, "xᵀAx must be positive");
        }
        // The coefficient jump must actually show up in the diagonal.
        let d = a.diagonal();
        let dmax = d.iter().fold(0.0f64, |m, v| m.max(*v));
        let dmin = d.iter().fold(f64::INFINITY, |m, v| m.min(*v));
        assert!(dmax / dmin > 100.0, "jump missing: {dmax} / {dmin}");
    }

    #[test]
    fn diag_dominant_is_dominant() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let a = diag_dominant_random(50, 6, &mut rng);
        for i in 0..50 {
            let (cols, vals) = a.row(i);
            let mut diag = 0.0;
            let mut off = 0.0;
            for (&j, &v) in cols.iter().zip(vals) {
                if j == i {
                    diag = v.abs();
                } else {
                    off += v.abs();
                }
            }
            assert!(diag > off, "row {i} not diagonally dominant");
        }
    }

    #[test]
    fn spd_random_is_symmetric_positive_definite() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let a = spd_random(8, &mut rng);
        assert_eq!(a.to_dense(), a.transpose().to_dense());
        for _ in 0..5 {
            let x = random_vector(8, &mut rng);
            assert!(dot(&x, &a.spmv(&x)) > 0.0);
        }
    }

    #[test]
    fn vector_helpers() {
        assert_eq!(ones(3), vec![1.0, 1.0, 1.0]);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let v = random_vector(10, &mut rng);
        assert_eq!(v.len(), 10);
        assert!(v.iter().all(|x| (-1.0..1.0).contains(x)));
    }
}
