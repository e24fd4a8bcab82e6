//! Per-rank failure schedules.
//!
//! A [`FailureSchedule`] decides *when* (in virtual time) the owning rank
//! should fail. It combines the deterministic schedule from
//! [`FailureConfig::scheduled`](crate::config::FailureConfig) with random
//! exponential failures governed by `mtbf_per_rank`. The runtime consults it
//! at failure points; the shared cap `max_failures` is enforced by the
//! caller against the [`HealthBoard`](crate::health::HealthBoard).

use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::config::FailureConfig;

/// The failure plan for one rank incarnation.
#[derive(Debug, Clone)]
pub struct FailureSchedule {
    enabled: bool,
    /// Deterministic failure times for this rank, sorted ascending, not yet
    /// consumed.
    scheduled: Vec<f64>,
    /// Next randomly drawn failure time (virtual seconds), if random
    /// failures are enabled.
    next_random: Option<f64>,
    mtbf: f64,
}

impl FailureSchedule {
    /// Build the schedule for `rank` starting at virtual time `start`, using
    /// the job-wide failure configuration. Random failure times are drawn
    /// from the provided RNG so they are reproducible per rank and
    /// incarnation.
    pub fn for_rank(config: &FailureConfig, rank: usize, start: f64, rng: &mut ChaCha8Rng) -> Self {
        if !config.enabled {
            return Self {
                enabled: false,
                scheduled: Vec::new(),
                next_random: None,
                mtbf: f64::INFINITY,
            };
        }
        let mut scheduled: Vec<f64> = config
            .scheduled
            .iter()
            .filter(|(r, t)| *r == rank && *t >= start)
            .map(|(_, t)| *t)
            .collect();
        scheduled.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let next_random = draw_exponential_after(config.mtbf_per_rank, start, rng);
        Self {
            enabled: true,
            scheduled,
            next_random,
            mtbf: config.mtbf_per_rank,
        }
    }

    /// Should the rank fail now, given its current virtual time? If so,
    /// returns the virtual time of the triggering event and consumes it.
    pub fn due(&mut self, now: f64, rng: &mut ChaCha8Rng) -> Option<f64> {
        if !self.enabled {
            return None;
        }
        if let Some(&t) = self.scheduled.first() {
            if t <= now {
                self.scheduled.remove(0);
                return Some(t);
            }
        }
        if let Some(t) = self.next_random {
            if t <= now {
                // Re-arm for the (unlikely) case of a replacement reusing the
                // same schedule object.
                self.next_random = draw_exponential_after(self.mtbf, now, rng);
                return Some(t);
            }
        }
        None
    }

    /// Whether failure injection is active for this rank.
    pub fn enabled(&self) -> bool {
        self.enabled
    }
}

fn draw_exponential_after(mtbf: f64, start: f64, rng: &mut ChaCha8Rng) -> Option<f64> {
    if !mtbf.is_finite() || mtbf <= 0.0 {
        return None;
    }
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    Some(start - mtbf * u.ln())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FailurePolicy;
    use rand::SeedableRng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn disabled_never_fails() {
        let cfg = FailureConfig::none();
        let mut s = FailureSchedule::for_rank(&cfg, 0, 0.0, &mut rng(1));
        assert!(!s.enabled());
        assert!(s.due(1e9, &mut rng(1)).is_none());
    }

    #[test]
    fn scheduled_failure_fires_once() {
        let cfg = FailureConfig::scheduled(FailurePolicy::ReplaceRank, vec![(2, 5.0), (1, 3.0)]);
        let mut r = rng(1);
        let mut s = FailureSchedule::for_rank(&cfg, 2, 0.0, &mut r);
        assert!(s.due(4.9, &mut r).is_none());
        assert_eq!(s.due(5.1, &mut r), Some(5.0));
        assert!(
            s.due(100.0, &mut r).is_none(),
            "a scheduled failure fires only once"
        );
    }

    #[test]
    fn schedule_filters_by_rank_and_start() {
        let cfg = FailureConfig::scheduled(
            FailurePolicy::ReplaceRank,
            vec![(0, 1.0), (0, 4.0), (1, 2.0)],
        );
        let mut r = rng(1);
        // Replacement incarnation starting at t = 2.0 must not inherit the
        // t = 1.0 failure.
        let mut s = FailureSchedule::for_rank(&cfg, 0, 2.0, &mut r);
        assert!(s.due(3.0, &mut r).is_none());
        assert_eq!(s.due(4.5, &mut r), Some(4.0));
    }

    #[test]
    fn multiple_scheduled_failures_fire_in_order() {
        let cfg = FailureConfig::scheduled(
            FailurePolicy::ReplaceRank,
            vec![(0, 2.0), (0, 1.0), (0, 3.0)],
        );
        let mut r = rng(1);
        let mut s = FailureSchedule::for_rank(&cfg, 0, 0.0, &mut r);
        assert_eq!(s.due(10.0, &mut r), Some(1.0));
        assert_eq!(s.due(10.0, &mut r), Some(2.0));
        assert_eq!(s.due(10.0, &mut r), Some(3.0));
        assert_eq!(s.due(10.0, &mut r), None);
    }

    #[test]
    fn random_failures_cluster_around_mtbf() {
        let cfg = FailureConfig::random(FailurePolicy::AbortJob, 100.0, usize::MAX);
        let n = 3000;
        let mut total = 0.0;
        for i in 0..n {
            let mut seed_rng = rng(1000 + i);
            let mut s = FailureSchedule::for_rank(&cfg, 0, 0.0, &mut seed_rng);
            total += s
                .due(f64::MAX, &mut seed_rng)
                .expect("random failure must be armed");
        }
        let mean = total / n as f64;
        assert!(
            (mean - 100.0).abs() < 10.0,
            "mean inter-failure time {mean} not near MTBF 100"
        );
    }

    #[test]
    fn infinite_mtbf_disables_random_failures() {
        let cfg = FailureConfig {
            enabled: true,
            mtbf_per_rank: f64::INFINITY,
            ..FailureConfig::none()
        };
        let mut r = rng(2);
        let mut s = FailureSchedule::for_rank(&cfg, 0, 0.0, &mut r);
        assert!(s.due(f64::MAX, &mut r).is_none());
    }
}
