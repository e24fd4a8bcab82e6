//! Property-based tests for the fault models.

use proptest::prelude::*;
use resilient_faults::bitflip::flip_bit_f64;
use resilient_faults::tmr::tmr_vote_vectors;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flipping the same bit twice restores the original bit pattern, and
    /// flipping any bit of a finite value never yields the same bits.
    #[test]
    fn bitflip_is_an_involution(v in prop::num::f64::NORMAL, bit in 0u32..64) {
        let once = flip_bit_f64(v, bit);
        let twice = flip_bit_f64(once, bit);
        prop_assert_eq!(twice.to_bits(), v.to_bits());
        prop_assert_ne!(once.to_bits(), v.to_bits());
    }

    /// A TMR vote with at most one corrupted replica always returns the
    /// majority value.
    #[test]
    fn tmr_masks_any_single_corruption(
        clean in prop::collection::vec(-1e3f64..1e3, 1..12),
        corrupt_idx in 0usize..12,
        which_replica in 0usize..3,
        delta in 1.0f64..1e6,
    ) {
        let mut corrupted = clean.clone();
        let idx = corrupt_idx % clean.len();
        corrupted[idx] += delta;
        let replicas = [
            if which_replica == 0 { corrupted.clone() } else { clean.clone() },
            if which_replica == 1 { corrupted.clone() } else { clean.clone() },
            if which_replica == 2 { corrupted.clone() } else { clean.clone() },
        ];
        let voted = tmr_vote_vectors(&replicas[0], &replicas[1], &replicas[2], 1e-9).unwrap();
        for (v, c) in voted.iter().zip(&clean) {
            prop_assert!((v - c).abs() <= 1e-9 * c.abs().max(1.0));
        }
    }
}
