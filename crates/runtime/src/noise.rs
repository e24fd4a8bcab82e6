//! Performance-variability ("noise") injection.
//!
//! Section II-B of the paper argues that the first visible impact of reduced
//! hardware reliability is *performance variability*: error detection and
//! correction in hardware and system software preserve the reliable digital
//! machine model, but make equal work no longer take equal time. The
//! [`NoiseModel`] reproduces that effect: as a rank charges compute time to
//! its virtual clock, noise events arrive as a Poisson process and each event
//! adds a random detour.

use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::config::{NoiseConfig, NoiseDistribution};

/// Stateful per-rank noise generator.
#[derive(Debug, Clone)]
pub struct NoiseModel {
    config: NoiseConfig,
    /// Number of events injected so far.
    events: u64,
}

impl NoiseModel {
    /// Create a noise model from a configuration.
    pub fn new(config: NoiseConfig) -> Self {
        Self { config, events: 0 }
    }

    /// Amount of noise (virtual seconds) to add to a compute interval of
    /// `dt` seconds, sampled from the configured event process.
    ///
    /// The number of events in the interval is Poisson with mean
    /// `rate_hz * dt`; each event's duration follows the configured
    /// distribution. Returns `0.0` when noise is disabled.
    pub fn sample(&mut self, dt: f64, rng: &mut ChaCha8Rng) -> f64 {
        if !self.config.enabled || dt <= 0.0 || self.config.rate_hz <= 0.0 {
            return 0.0;
        }
        let lambda = self.config.rate_hz * dt;
        let n = sample_poisson(lambda, rng);
        if n == 0 {
            return 0.0;
        }
        let mut extra = 0.0;
        for _ in 0..n {
            extra += match self.config.duration {
                NoiseDistribution::Fixed(d) => d.max(0.0),
                NoiseDistribution::Exponential(mean) => {
                    if mean <= 0.0 {
                        0.0
                    } else {
                        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                        -mean * u.ln()
                    }
                }
                NoiseDistribution::Uniform(lo, hi) => {
                    let (lo, hi) = (lo.min(hi), lo.max(hi));
                    if hi <= lo {
                        lo.max(0.0)
                    } else {
                        rng.gen_range(lo..hi).max(0.0)
                    }
                }
            };
        }
        self.events += n;
        extra
    }

    /// Total number of noise events injected so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The underlying configuration.
    pub fn config(&self) -> &NoiseConfig {
        &self.config
    }
}

/// Sample a Poisson random variate with mean `lambda`.
///
/// Uses Knuth's product method for small `lambda` and a normal approximation
/// for large `lambda` (where the distinction is invisible at our precision).
fn sample_poisson(lambda: f64, rng: &mut ChaCha8Rng) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k: u64 = 0;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
            if k > 10_000 {
                return k; // numerical safety net
            }
        }
    } else {
        // Normal approximation with continuity correction.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = lambda + lambda.sqrt() * z + 0.5;
        if v < 0.0 {
            0
        } else {
            v as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn disabled_noise_is_zero() {
        let mut m = NoiseModel::new(NoiseConfig::off());
        let mut r = rng(1);
        assert_eq!(m.sample(10.0, &mut r), 0.0);
        assert_eq!(m.events(), 0);
    }

    #[test]
    fn zero_interval_is_zero() {
        let mut m = NoiseModel::new(NoiseConfig::fixed(100.0, 0.01));
        let mut r = rng(1);
        assert_eq!(m.sample(0.0, &mut r), 0.0);
        assert_eq!(m.sample(-1.0, &mut r), 0.0);
    }

    #[test]
    fn fixed_duration_noise_matches_event_count() {
        let mut m = NoiseModel::new(NoiseConfig::fixed(1000.0, 0.5));
        let mut r = rng(7);
        let extra = m.sample(1.0, &mut r);
        assert!(m.events() > 0);
        assert!((extra - 0.5 * m.events() as f64).abs() < 1e-9);
    }

    #[test]
    fn poisson_mean_is_approximately_lambda() {
        let mut r = rng(3);
        let lambda = 4.0;
        let n = 4000;
        let total: u64 = (0..n).map(|_| sample_poisson(lambda, &mut r)).sum();
        let mean = total as f64 / n as f64;
        assert!(
            (mean - lambda).abs() < 0.2,
            "mean {mean} too far from {lambda}"
        );
    }

    #[test]
    fn poisson_large_lambda_uses_normal_path() {
        let mut r = rng(5);
        let lambda = 200.0;
        let n = 2000;
        let total: u64 = (0..n).map(|_| sample_poisson(lambda, &mut r)).sum();
        let mean = total as f64 / n as f64;
        assert!(
            (mean - lambda).abs() < 5.0,
            "mean {mean} too far from {lambda}"
        );
    }

    #[test]
    fn exponential_noise_mean_scales() {
        let mut m = NoiseModel::new(NoiseConfig::exponential(100.0, 0.01));
        let mut r = rng(11);
        let mut total = 0.0;
        for _ in 0..200 {
            total += m.sample(1.0, &mut r);
        }
        // Expected total ≈ 200 s of compute * 100 events/s * 0.01 s/event = 200 s.
        assert!(
            total > 100.0 && total < 350.0,
            "total {total} outside plausible range"
        );
    }

    #[test]
    fn uniform_noise_within_bounds() {
        let cfg = NoiseConfig {
            enabled: true,
            rate_hz: 50.0,
            duration: NoiseDistribution::Uniform(0.001, 0.002),
        };
        let mut m = NoiseModel::new(cfg);
        let mut r = rng(13);
        let extra = m.sample(5.0, &mut r);
        let events = m.events() as f64;
        assert!(extra >= 0.001 * events - 1e-12);
        assert!(extra <= 0.002 * events + 1e-12);
    }

    #[test]
    fn determinism_with_same_seed() {
        let mut m1 = NoiseModel::new(NoiseConfig::exponential(10.0, 0.1));
        let mut m2 = NoiseModel::new(NoiseConfig::exponential(10.0, 0.1));
        let mut r1 = rng(99);
        let mut r2 = rng(99);
        for _ in 0..50 {
            assert_eq!(m1.sample(0.3, &mut r1), m2.sample(0.3, &mut r2));
        }
    }
}
