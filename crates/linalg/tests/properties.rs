//! Property-based tests for the linear-algebra substrate.

use proptest::prelude::*;
use resilient_linalg::vector::{dot, nrm2};
use resilient_linalg::{ChecksumVerdict, ChecksummedCsr, ChecksummedMatrix};
use resilient_linalg::{CooMatrix, DenseMatrix, Givens};

fn small_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, len..=len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 64 }))]

    /// Givens rotations preserve the Euclidean norm of the pair they act on.
    #[test]
    fn givens_preserves_norm(a in -1e6f64..1e6, b in -1e6f64..1e6, x in -1e3f64..1e3, y in -1e3f64..1e3) {
        let g = Givens::compute(a, b);
        let (ra, rb) = g.apply(a, b);
        prop_assert!(rb.abs() <= 1e-9 * a.hypot(b).max(1.0));
        prop_assert!((ra.abs() - a.hypot(b)).abs() <= 1e-9 * a.hypot(b).max(1.0));
        let (rx, ry) = g.apply(x, y);
        prop_assert!((rx.hypot(ry) - x.hypot(y)).abs() <= 1e-9 * x.hypot(y).max(1.0));
    }

    /// Sparse SpMV agrees with the densified GEMV for random sparse matrices.
    #[test]
    fn csr_spmv_matches_dense_gemv(
        n in 2usize..12,
        entries in prop::collection::vec((0usize..12, 0usize..12, -10.0f64..10.0), 0..60),
        seed_x in 0u64..1000,
    ) {
        let mut coo = CooMatrix::new(n, n);
        for (i, j, v) in entries {
            coo.push(i % n, j % n, v);
        }
        let a = coo.to_csr();
        let x: Vec<f64> = (0..n).map(|i| ((i as u64 + seed_x) % 7) as f64 - 3.0).collect();
        let sparse = a.spmv(&x);
        let dense = a.to_dense().gemv(&x);
        for (s, d) in sparse.iter().zip(&dense) {
            prop_assert!((s - d).abs() < 1e-9);
        }
        // Transposing twice is the identity (structurally and numerically).
        let att = a.transpose().transpose();
        prop_assert_eq!(att.to_dense(), a.to_dense());
    }

    /// The dot product is symmetric and the norm is absolutely homogeneous.
    #[test]
    fn dot_and_norm_axioms(x in small_vec(8), y in small_vec(8), alpha in -10.0f64..10.0) {
        prop_assert!((dot(&x, &y) - dot(&y, &x)).abs() < 1e-9);
        let scaled: Vec<f64> = x.iter().map(|v| alpha * v).collect();
        prop_assert!((nrm2(&scaled) - alpha.abs() * nrm2(&x)).abs() < 1e-7 * nrm2(&x).max(1.0));
        // Cauchy–Schwarz.
        prop_assert!(dot(&x, &y).abs() <= nrm2(&x) * nrm2(&y) + 1e-9);
    }

    /// A clean checksummed matrix always verifies; a single large corruption
    /// is always localised to the right element and corrected.
    #[test]
    fn checksum_encode_verify_correct_roundtrip(
        rows in 2usize..8,
        cols in 2usize..8,
        fill in prop::collection::vec(-50.0f64..50.0, 64),
        corrupt_row in 0usize..8,
        corrupt_col in 0usize..8,
        delta in prop::sample::select(vec![1.0e3f64, -7.5e2, 4.2e4]),
    ) {
        let mut m = DenseMatrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, fill[(i * cols + j) % fill.len()]);
            }
        }
        let cm = ChecksummedMatrix::encode(&m);
        prop_assert_eq!(cm.verify(1e-10), ChecksumVerdict::Clean);

        let (ci, cj) = (corrupt_row % rows, corrupt_col % cols);
        let mut corrupted = cm.clone();
        corrupted.data.add_to(ci, cj, delta);
        match corrupted.verify(1e-10) {
            ChecksumVerdict::SingleError { row, col, magnitude } => {
                prop_assert_eq!((row, col), (ci, cj));
                prop_assert!((magnitude - delta).abs() < 1e-6 * delta.abs());
            }
            other => prop_assert!(false, "expected SingleError, got {:?}", other),
        }
        prop_assert!(corrupted.correct(1e-10));
        prop_assert!((corrupted.data.get(ci, cj) - m.get(ci, cj)).abs() < 1e-6 * delta.abs());
    }

    /// The aggregate SpMV checksum accepts every clean product and rejects
    /// any product with one large corrupted entry.
    #[test]
    fn spmv_checksum_accepts_clean_rejects_corrupt(
        n in 2usize..10,
        entries in prop::collection::vec((0usize..10, 0usize..10, -5.0f64..5.0), 1..40),
        idx in 0usize..10,
    ) {
        let mut coo = CooMatrix::new(n, n);
        for (i, j, v) in entries {
            coo.push(i % n, j % n, v);
        }
        for i in 0..n {
            coo.push(i, i, 10.0); // keep the matrix nontrivial
        }
        let enc = ChecksummedCsr::encode(coo.to_csr());
        let x: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.5).collect();
        let (y, ok) = enc.spmv_checked(&x, 1e-10);
        prop_assert!(ok);
        let mut bad = y.clone();
        bad[idx % n] += 1.0e4;
        prop_assert!(!enc.verify_product(&x, &bad, 1e-10));
    }
}
