//! Instrumented ABFT kernels (E2): checksummed GEMM and SpMV with injection
//! hooks and detection/correction bookkeeping, layered on the Huang–Abraham
//! encodings in `resilient-linalg`.

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use resilient_faults::flip_bit_f64;
use resilient_linalg::{checksummed_gemm, ChecksumVerdict, ChecksummedCsr};
use resilient_linalg::{CsrMatrix, DenseMatrix};

/// Outcome of one ABFT-protected kernel execution under injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbftOutcome {
    /// No fault was injected and none was reported.
    CleanPass,
    /// A fault was injected, detected and corrected; the result matches the
    /// clean result.
    Corrected,
    /// A fault was injected and detected but could not be corrected.
    DetectedOnly,
    /// A fault was injected and the checksums did not notice.
    Missed,
    /// No fault was injected but the checksums fired (false positive).
    FalsePositive,
}

/// Aggregate ABFT campaign counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AbftStats {
    /// Trials executed.
    pub trials: usize,
    /// Per-outcome counts.
    pub clean_pass: usize,
    /// Corrected faults.
    pub corrected: usize,
    /// Detected-but-uncorrected faults.
    pub detected_only: usize,
    /// Missed faults.
    pub missed: usize,
    /// False positives.
    pub false_positives: usize,
}

impl AbftStats {
    /// Record one outcome.
    pub fn record(&mut self, outcome: AbftOutcome) {
        self.trials += 1;
        match outcome {
            AbftOutcome::CleanPass => self.clean_pass += 1,
            AbftOutcome::Corrected => self.corrected += 1,
            AbftOutcome::DetectedOnly => self.detected_only += 1,
            AbftOutcome::Missed => self.missed += 1,
            AbftOutcome::FalsePositive => self.false_positives += 1,
        }
    }
}

/// Run one ABFT GEMM trial: compute the checksummed product `A·B`, then (if
/// `inject` is true) flip the given bit of a random product element, verify,
/// and attempt correction.
pub fn abft_gemm_trial(
    a: &DenseMatrix,
    b: &DenseMatrix,
    inject: bool,
    bit: u32,
    tol: f64,
    seed: u64,
) -> AbftOutcome {
    let clean = a.gemm(b);
    let mut protected = checksummed_gemm(a, b);
    if inject {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let i = rng.gen_range(0..protected.data.nrows());
        let j = rng.gen_range(0..protected.data.ncols());
        let old = protected.data.get(i, j);
        protected.data.set(i, j, flip_bit_f64(old, bit));
        let changed = protected.data.get(i, j).to_bits() != old.to_bits();
        match protected.verify(tol) {
            ChecksumVerdict::Clean => {
                // Either the flip did not change the value, or it is below
                // the detection threshold; both count as a miss only if the
                // result is actually wrong beyond tolerance.
                if !changed
                    || protected.data.sub(&clean).norm_max() <= tol * clean.norm_max().max(1.0)
                {
                    AbftOutcome::CleanPass
                } else {
                    AbftOutcome::Missed
                }
            }
            ChecksumVerdict::SingleError { .. } => {
                if protected.correct(tol)
                    && protected.data.sub(&clean).norm_max() <= 1e-6 * clean.norm_max().max(1.0)
                {
                    AbftOutcome::Corrected
                } else {
                    AbftOutcome::DetectedOnly
                }
            }
            ChecksumVerdict::MultipleErrors { .. } => AbftOutcome::DetectedOnly,
        }
    } else {
        match protected.verify(tol) {
            ChecksumVerdict::Clean => AbftOutcome::CleanPass,
            _ => AbftOutcome::FalsePositive,
        }
    }
}

/// Run one ABFT SpMV trial: compute `y = A·x` through the checksummed CSR,
/// optionally flip one bit of a random element of `y`, and verify.
pub fn abft_spmv_trial(
    encoded: &ChecksummedCsr,
    x: &[f64],
    inject: bool,
    bit: u32,
    tol: f64,
    seed: u64,
) -> AbftOutcome {
    let clean = encoded.matrix.spmv(x);
    let mut y = clean.clone();
    if inject {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let i = rng.gen_range(0..y.len());
        y[i] = flip_bit_f64(y[i], bit);
        let harmful =
            (y[i] - clean[i]).abs() > tol * clean.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        let detected = !encoded.verify_product(x, &y, tol);
        match (detected, harmful) {
            (true, _) => AbftOutcome::DetectedOnly,
            (false, false) => AbftOutcome::CleanPass,
            (false, true) => AbftOutcome::Missed,
        }
    } else if encoded.verify_product(x, &y, tol) {
        AbftOutcome::CleanPass
    } else {
        AbftOutcome::FalsePositive
    }
}

/// Convenience: encode a CSR matrix for ABFT SpMV.
pub fn encode_spmv(a: &CsrMatrix) -> ChecksummedCsr {
    ChecksummedCsr::encode(a.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilient_linalg::poisson2d;

    #[test]
    fn clean_gemm_has_no_false_positives() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = DenseMatrix::random(12, 12, &mut rng);
        let b = DenseMatrix::random(12, 12, &mut rng);
        let mut stats = AbftStats::default();
        for s in 0..20 {
            stats.record(abft_gemm_trial(&a, &b, false, 0, 1e-10, s));
        }
        assert_eq!(stats.false_positives, 0);
        assert_eq!(stats.clean_pass, 20);
    }

    #[test]
    fn high_bit_gemm_corruption_is_corrected() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let a = DenseMatrix::random(10, 10, &mut rng);
        let b = DenseMatrix::random(10, 10, &mut rng);
        let mut stats = AbftStats::default();
        for s in 0..30 {
            stats.record(abft_gemm_trial(&a, &b, true, 55, 1e-10, s));
        }
        assert_eq!(
            stats.missed, 0,
            "a 2^3-scale relative error must never be missed"
        );
        assert!(
            stats.corrected >= 25,
            "most single errors must be corrected: {stats:?}"
        );
    }

    #[test]
    fn low_bit_gemm_corruption_is_benign() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let a = DenseMatrix::random(8, 8, &mut rng);
        let b = DenseMatrix::random(8, 8, &mut rng);
        let mut stats = AbftStats::default();
        for s in 0..20 {
            stats.record(abft_gemm_trial(&a, &b, true, 1, 1e-10, s));
        }
        // Bit 1 of the mantissa moves the value by ~1e-16 relative: either it
        // is (harmlessly) below the threshold or it is detected; it must never
        // be a harmful miss.
        assert_eq!(stats.missed, 0);
    }

    #[test]
    fn spmv_detects_severe_flips() {
        let a = poisson2d(8, 8);
        let encoded = encode_spmv(&a);
        let x: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + (i % 5) as f64).collect();
        let mut stats = AbftStats::default();
        for s in 0..30 {
            stats.record(abft_spmv_trial(&encoded, &x, true, 60, 1e-9, s));
        }
        assert_eq!(
            stats.missed, 0,
            "exponent-bit flips must be detected: {stats:?}"
        );
        let mut clean_stats = AbftStats::default();
        for s in 0..10 {
            clean_stats.record(abft_spmv_trial(&encoded, &x, false, 0, 1e-9, s));
        }
        assert_eq!(clean_stats.false_positives, 0);
    }
}
