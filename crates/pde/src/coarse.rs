//! Redundant coarse-model storage for implicit-method recovery (§III-C:
//! "storing a coarse model representation … that could be used to boot-strap
//! state recovery upon failure").
//!
//! Instead of persisting the full local field every interval, a rank can
//! persist a restricted (coarsened) copy at a fraction of the storage and
//! bandwidth cost; after a failure the replacement prolongates the coarse
//! copy back to the fine grid, recovering the state up to interpolation
//! (truncation-level) error, and the implicit solver re-converges from
//! there.

/// Restrict a fine field to a coarse one by averaging groups of `factor`
/// adjacent values (the last group may be shorter).
pub fn restrict(fine: &[f64], factor: usize) -> Vec<f64> {
    assert!(factor >= 1, "coarsening factor must be at least 1");
    fine.chunks(factor)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect()
}

/// Prolongate a coarse field back to `fine_len` values by piecewise-linear
/// interpolation of the coarse cell centres.
pub fn prolongate(coarse: &[f64], factor: usize, fine_len: usize) -> Vec<f64> {
    assert!(factor >= 1);
    if coarse.is_empty() {
        return vec![0.0; fine_len];
    }
    let mut fine = Vec::with_capacity(fine_len);
    for i in 0..fine_len {
        // Position of fine point i in coarse-cell coordinates.
        let pos = i as f64 / factor as f64 - 0.5 + 0.5 / factor as f64;
        let lo = pos.floor();
        let frac = pos - lo;
        let lo_idx = lo.max(0.0) as usize;
        let hi_idx = (lo_idx + 1).min(coarse.len() - 1);
        let lo_idx = lo_idx.min(coarse.len() - 1);
        let v = if pos < 0.0 {
            coarse[0]
        } else {
            coarse[lo_idx] * (1.0 - frac) + coarse[hi_idx] * frac
        };
        fine.push(v);
    }
    fine
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Relative L2 error introduced by a restrict-then-prolongate round trip —
    /// the "recovery error" of the coarse-model strategy for a given field.
    fn round_trip_error(fine: &[f64], factor: usize) -> f64 {
        let coarse = restrict(fine, factor);
        let back = prolongate(&coarse, factor, fine.len());
        let num: f64 = fine.iter().zip(&back).map(|(a, b)| (a - b) * (a - b)).sum();
        let den: f64 = fine.iter().map(|a| a * a).sum();
        if den == 0.0 {
            num.sqrt()
        } else {
            (num / den).sqrt()
        }
    }

    #[test]
    fn restrict_averages_groups() {
        let fine = [1.0, 3.0, 5.0, 7.0, 9.0];
        assert_eq!(restrict(&fine, 2), vec![2.0, 6.0, 9.0]);
        assert_eq!(restrict(&fine, 1), fine.to_vec());
        assert_eq!(restrict(&fine, 10), vec![5.0]);
    }

    #[test]
    fn factor_one_round_trip_is_exact() {
        let fine: Vec<f64> = (0..20).map(|i| (i as f64 * 0.3).sin()).collect();
        assert!(round_trip_error(&fine, 1) < 1e-15);
    }

    #[test]
    fn prolongate_preserves_constants() {
        let coarse = vec![4.0; 5];
        let fine = prolongate(&coarse, 3, 15);
        assert_eq!(fine.len(), 15);
        for v in fine {
            assert!((v - 4.0).abs() < 1e-12);
        }
    }

    #[test]
    fn round_trip_error_grows_with_coarsening() {
        let fine: Vec<f64> = (0..256)
            .map(|i| (std::f64::consts::PI * (i as f64 + 0.5) / 256.0).sin())
            .collect();
        let e2 = round_trip_error(&fine, 2);
        let e4 = round_trip_error(&fine, 4);
        let e8 = round_trip_error(&fine, 8);
        assert!(
            e2 < e4 && e4 < e8,
            "coarser models recover less accurately: {e2} {e4} {e8}"
        );
        assert!(e8 < 0.05, "even 8x coarsening recovers a smooth field well");
    }

    #[test]
    fn empty_coarse_gives_zeros() {
        assert_eq!(prolongate(&[], 2, 4), vec![0.0; 4]);
    }

    #[test]
    #[should_panic]
    fn zero_factor_panics() {
        restrict(&[1.0], 0);
    }
}
