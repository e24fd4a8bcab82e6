//! Givens rotations and the progressive Hessenberg least-squares solve used
//! by GMRES.

use crate::dense::DenseMatrix;

/// A 2×2 Givens rotation `[c s; -s c]` that zeroes the second component of
/// the vector it was computed from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Givens {
    /// Cosine component.
    pub c: f64,
    /// Sine component.
    pub s: f64,
}

impl Givens {
    /// Compute the rotation that maps `(a, b)` to `(r, 0)` with `r ≥ 0`-ish
    /// (the standard numerically stable formulation).
    pub fn compute(a: f64, b: f64) -> Self {
        if b == 0.0 {
            Self { c: 1.0, s: 0.0 }
        } else if a == 0.0 {
            Self { c: 0.0, s: 1.0 }
        } else {
            let r = a.hypot(b);
            Self { c: a / r, s: b / r }
        }
    }

    /// Apply the rotation to the pair `(x, y)`, returning the rotated pair.
    #[inline]
    pub fn apply(&self, x: f64, y: f64) -> (f64, f64) {
        (self.c * x + self.s * y, -self.s * x + self.c * y)
    }

    /// Apply the rotation in place to two entries of a column.
    fn apply_to(&self, column: &mut [f64], i: usize, k: usize) {
        let (x, y) = (column[i], column[k]);
        let (nx, ny) = self.apply(x, y);
        column[i] = nx;
        column[k] = ny;
    }
}

/// Progressive least-squares solver for the Hessenberg systems produced by
/// the Arnoldi process: maintains the QR factorisation of H via Givens
/// rotations and the rotated right-hand side, so the residual norm of the
/// GMRES iterate is available at every step without solving a system.
#[derive(Debug, Clone)]
pub struct HessenbergLsq {
    /// Upper-triangular factor (column k holds R's column k in rows 0..=k).
    r: DenseMatrix,
    /// Accumulated rotations.
    rotations: Vec<Givens>,
    /// Rotated right-hand side (starts as β·e₁).
    g: Vec<f64>,
    /// Number of processed columns.
    k: usize,
    max_dim: usize,
}

impl HessenbergLsq {
    /// Start a factorisation for at most `max_dim` Arnoldi steps with initial
    /// residual norm `beta`.
    pub fn new(max_dim: usize, beta: f64) -> Self {
        let mut g = vec![0.0; max_dim + 1];
        g[0] = beta;
        Self {
            r: DenseMatrix::zeros(max_dim + 1, max_dim),
            rotations: Vec::with_capacity(max_dim),
            g,
            k: 0,
            max_dim,
        }
    }

    /// Absorb column `k` of the Hessenberg matrix (entries `h[0..=k+1]`,
    /// i.e. length `k + 2`). Returns the new least-squares residual norm,
    /// which equals the GMRES residual norm of iterate `k + 1`.
    pub fn push_column(&mut self, h: &[f64]) -> f64 {
        let k = self.k;
        assert!(k < self.max_dim, "Hessenberg factorisation is full");
        assert_eq!(h.len(), k + 2, "column {k} must have {} entries", k + 2);
        let mut col = vec![0.0; self.max_dim + 1];
        col[..k + 2].copy_from_slice(h);
        // Apply previous rotations to the new column.
        for (i, rot) in self.rotations.iter().enumerate() {
            rot.apply_to(&mut col, i, i + 1);
        }
        // Compute and apply the new rotation eliminating the sub-diagonal.
        let rot = Givens::compute(col[k], col[k + 1]);
        rot.apply_to(&mut col, k, k + 1);
        let (gk, gk1) = rot.apply(self.g[k], self.g[k + 1]);
        self.g[k] = gk;
        self.g[k + 1] = gk1;
        self.rotations.push(rot);
        for (i, &c) in col.iter().enumerate().take(k + 1) {
            self.r.set(i, k, c);
        }
        self.k += 1;
        self.residual_norm()
    }

    /// Current least-squares residual norm `|g[k]|`.
    fn residual_norm(&self) -> f64 {
        self.g[self.k].abs()
    }

    /// Number of absorbed columns.
    pub fn len(&self) -> usize {
        self.k
    }

    /// True if no columns have been absorbed yet.
    pub fn is_empty(&self) -> bool {
        self.k == 0
    }

    /// Solve for the coefficient vector `y` of length [`len`](Self::len)
    /// minimising ‖β·e₁ − H·y‖.
    pub fn solve(&self) -> Vec<f64> {
        self.r.solve_upper_triangular(&self.g, self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::nrm2;

    #[test]
    fn rotation_zeroes_second_component() {
        for (a, b) in [(3.0, 4.0), (1.0, 0.0), (0.0, 2.0), (-5.0, 12.0)] {
            let g = Givens::compute(a, b);
            let (r, zero) = g.apply(a, b);
            assert!(zero.abs() < 1e-12, "second component must vanish");
            assert!(
                (r.abs() - (a.hypot(b))).abs() < 1e-12,
                "first component must be ±hypot"
            );
            // Rotation preserves the 2-norm.
            let (x, y) = g.apply(0.7, -0.3);
            assert!((x.hypot(y) - 0.7f64.hypot(-0.3)).abs() < 1e-12);
        }
    }

    #[test]
    fn apply_to_slice() {
        let g = Givens::compute(1.0, 1.0);
        let mut col = vec![1.0, 1.0, 5.0];
        g.apply_to(&mut col, 0, 1);
        assert!((col[0] - 2.0f64.sqrt()).abs() < 1e-12);
        assert!(col[1].abs() < 1e-12);
        assert_eq!(col[2], 5.0);
    }

    #[test]
    fn hessenberg_lsq_solves_small_system() {
        // Minimise ‖β e₁ − H y‖ for a 3×2 Hessenberg H.
        let h_cols = [vec![2.0, 1.0], vec![1.0, 3.0, 0.5]];
        let beta = 4.0;
        let mut lsq = HessenbergLsq::new(2, beta);
        assert!(lsq.is_empty());
        let r1 = lsq.push_column(&h_cols[0]);
        let r2 = lsq.push_column(&h_cols[1]);
        assert!(r2 <= r1 + 1e-12, "residual must be non-increasing");
        assert_eq!(lsq.len(), 2);
        let y = lsq.solve();
        // Verify against the normal equations residual computed directly.
        let h = DenseMatrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0], vec![0.0, 0.5]]);
        let hy = h.gemv(&y);
        let residual = [beta - hy[0], -hy[1], -hy[2]];
        assert!((nrm2(&residual) - lsq.residual_norm()).abs() < 1e-10);
        // The gradient Hᵀ r must vanish at the least-squares solution.
        let grad = h.gemv_t(&residual);
        assert!(
            nrm2(&grad) < 1e-10,
            "normal equations not satisfied: {grad:?}"
        );
    }

    #[test]
    fn residual_norm_reaches_zero_for_square_consistent_system() {
        // H is 3x2 but the data is consistent only in the 2D subspace; use a
        // consistent construction: pick y, build rhs = H y with zero last row.
        let mut lsq = HessenbergLsq::new(2, 5.0);
        // First column (2 entries), second column (3 entries, last = 0).
        lsq.push_column(&[5.0, 0.0]);
        let r = lsq.push_column(&[1.0, 2.0, 0.0]);
        assert!(r < 1e-12, "consistent system must reach zero residual");
        let y = lsq.solve();
        assert!((y[0] - 1.0).abs() < 1e-12);
        assert!(y[1].abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "full")]
    fn overflow_panics() {
        let mut lsq = HessenbergLsq::new(1, 1.0);
        lsq.push_column(&[1.0, 0.0]);
        lsq.push_column(&[1.0, 1.0, 0.0]);
    }
}
