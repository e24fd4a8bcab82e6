//! Bit-flip injection into floating-point values — the canonical model of a
//! silent data corruption (SDC) event.
//!
//! A single-event upset flips one bit of a stored word. Depending on which
//! bit is hit, the numerical effect ranges from a relative perturbation of
//! 2⁻⁵² (harmless, damped by the algorithm) to a sign flip, a huge exponent
//! change, or a NaN/Inf — exactly the spectrum the skeptical-programming
//! experiments (E1) sweep.

/// Flip bit `bit` (0 = least-significant mantissa bit, 63 = sign bit) of an
/// `f64` value.
pub fn flip_bit_f64(value: f64, bit: u32) -> f64 {
    assert!(bit < 64, "f64 has 64 bits");
    f64::from_bits(value.to_bits() ^ (1u64 << bit))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_is_an_involution() {
        for &v in &[0.0, 1.0, -3.25, 1e300, 1e-300, std::f64::consts::PI] {
            for bit in [0, 17, 31, 52, 62, 63] {
                let flipped = flip_bit_f64(v, bit);
                assert_eq!(flip_bit_f64(flipped, bit).to_bits(), v.to_bits());
                if v != 0.0 || bit != 63 {
                    // (sign flip of +0.0 gives -0.0 which compares equal)
                    assert_ne!(
                        flipped.to_bits(),
                        v.to_bits(),
                        "bit {bit} must change the bits"
                    );
                }
            }
        }
    }

    #[test]
    fn sign_bit_flips_sign() {
        assert_eq!(flip_bit_f64(2.5, 63), -2.5);
    }

    #[test]
    #[should_panic(expected = "64 bits")]
    fn bit_out_of_range_panics() {
        flip_bit_f64(1.0, 64);
    }
}
