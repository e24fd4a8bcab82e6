//! Runtime configuration: machine model, noise model and failure policy.

use serde::{Deserialize, Serialize};

/// The α–β (latency–bandwidth) communication cost model used to charge
/// virtual time for messages and collectives.
///
/// * A point-to-point message of `b` bytes costs `alpha + beta * b` seconds.
/// * A tree-based collective over `p` ranks costs
///   `ceil(log2(p)) * (alpha + beta * b)` seconds plus the reduction
///   arithmetic charged at `gamma` seconds per element.
///
/// Defaults loosely follow published interconnect numbers for a capability
/// machine of the paper's era (a few microseconds of latency, a few GB/s of
/// per-link bandwidth); the experiments sweep `alpha` so the absolute values
/// only set the scale.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// Per-message latency in seconds.
    pub alpha: f64,
    /// Per-byte transfer time in seconds.
    pub beta: f64,
    /// Per-element reduction arithmetic time in seconds.
    pub gamma: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self {
            alpha: 2.0e-6,
            beta: 1.0e-9,
            gamma: 1.0e-9,
        }
    }
}

impl LatencyModel {
    /// A model with zero communication cost (useful in unit tests where only
    /// message ordering matters).
    pub fn zero() -> Self {
        Self {
            alpha: 0.0,
            beta: 0.0,
            gamma: 0.0,
        }
    }

    /// Cost of a point-to-point message of `bytes` bytes.
    pub fn p2p_cost(&self, bytes: usize) -> f64 {
        self.alpha + self.beta * bytes as f64
    }

    /// Number of tree stages for a collective over `p` ranks.
    fn tree_depth(p: usize) -> u32 {
        if p <= 1 {
            0
        } else {
            usize::BITS - (p - 1).leading_zeros()
        }
    }

    /// Cost of a tree-based collective moving `bytes` bytes per stage over
    /// `p` ranks, with `elems` elements of reduction arithmetic.
    pub fn collective_cost(&self, p: usize, bytes: usize, elems: usize) -> f64 {
        let depth = Self::tree_depth(p) as f64;
        depth * (self.alpha + self.beta * bytes as f64) + self.gamma * elems as f64 * depth
    }
}

/// Distribution of the duration of a single noise (performance-variability)
/// event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NoiseDistribution {
    /// Every event lasts exactly the given number of seconds.
    Fixed(f64),
    /// Exponentially distributed durations with the given mean (seconds).
    Exponential(f64),
    /// Uniformly distributed durations in `[lo, hi]` seconds.
    Uniform(f64, f64),
}

/// Configuration of per-rank performance-variability ("OS/ECC noise")
/// injection, the phenomenon §II-B of the paper identifies as the first
/// visible impact of declining hardware reliability.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseConfig {
    /// Whether noise is injected at all.
    pub enabled: bool,
    /// Mean number of noise events per second of virtual compute time.
    pub rate_hz: f64,
    /// Duration distribution of each event.
    pub duration: NoiseDistribution,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            rate_hz: 0.0,
            duration: NoiseDistribution::Fixed(0.0),
        }
    }
}

impl NoiseConfig {
    /// Disabled noise.
    pub fn off() -> Self {
        Self::default()
    }

    /// Exponentially distributed events: `rate_hz` events per virtual second,
    /// each with the given mean duration in seconds.
    pub fn exponential(rate_hz: f64, mean_duration: f64) -> Self {
        Self {
            enabled: true,
            rate_hz,
            duration: NoiseDistribution::Exponential(mean_duration),
        }
    }

    /// Fixed-duration events.
    pub fn fixed(rate_hz: f64, duration: f64) -> Self {
        Self {
            enabled: true,
            rate_hz,
            duration: NoiseDistribution::Fixed(duration),
        }
    }
}

/// What the runtime should do when a rank fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailurePolicy {
    /// Classic MPI semantics: the whole job is torn down. The launcher
    /// reports the abort so a checkpoint/restart driver can restart it.
    AbortJob,
    /// ULFM/LFLR semantics: surviving ranks receive
    /// [`ProcFailed`](crate::error::RuntimeError::ProcFailed) notices, and a
    /// replacement rank is spawned to take over the failed rank's position.
    ReplaceRank,
    /// ULFM shrink semantics: surviving ranks receive failure notices and are
    /// expected to rebuild a smaller communicator via `shrink`; no
    /// replacement is spawned.
    Shrink,
}

/// Per-rank failure injection configuration.
///
/// Failure *times* are expressed in virtual seconds; the runtime checks them
/// at failure points (communication calls and explicit
/// [`failure_point`](crate::comm::Comm::failure_point) calls), which models
/// the fail-stop behaviour the LFLR model assumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureConfig {
    /// Whether process-failure injection is enabled.
    pub enabled: bool,
    /// Policy applied when a rank fails.
    pub policy: FailurePolicy,
    /// Mean time between failures for a *single rank*, in virtual seconds
    /// (exponentially distributed). `f64::INFINITY` disables random failures.
    pub mtbf_per_rank: f64,
    /// Explicit failure schedule: `(rank, virtual_time)` pairs. Deterministic
    /// failures fire in addition to random ones and are what the integration
    /// tests use.
    pub scheduled: Vec<(usize, f64)>,
    /// Maximum number of failures to inject over the whole job
    /// (`usize::MAX` = unlimited).
    pub max_failures: usize,
}

impl Default for FailureConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            policy: FailurePolicy::AbortJob,
            mtbf_per_rank: f64::INFINITY,
            scheduled: Vec::new(),
            max_failures: usize::MAX,
        }
    }
}

impl FailureConfig {
    /// No failures.
    pub fn none() -> Self {
        Self::default()
    }

    /// Deterministic schedule of `(rank, virtual_time)` failures with the
    /// given policy.
    pub fn scheduled(policy: FailurePolicy, schedule: Vec<(usize, f64)>) -> Self {
        Self {
            enabled: true,
            policy,
            scheduled: schedule,
            ..Self::default()
        }
    }

    /// Random failures with exponential inter-arrival per rank.
    pub fn random(policy: FailurePolicy, mtbf_per_rank: f64, max_failures: usize) -> Self {
        Self {
            enabled: true,
            policy,
            mtbf_per_rank,
            max_failures,
            ..Self::default()
        }
    }
}

/// Top-level runtime configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// Communication cost model.
    pub latency: LatencyModel,
    /// Performance-variability injection.
    pub noise: NoiseConfig,
    /// Process-failure injection.
    pub failures: FailureConfig,
    /// Seconds of virtual compute time charged per floating-point operation
    /// by [`charge_flops`](crate::comm::Comm::charge_flops). The default
    /// corresponds to a 1 GFLOP/s per-core rate, deliberately modest so that
    /// communication and computation costs are comparable at the problem
    /// sizes the experiments use.
    pub seconds_per_flop: f64,
    /// Base RNG seed; each rank derives its stream from this and its rank id
    /// so runs are reproducible and rank-decorrelated.
    pub seed: u64,
    /// Virtual seconds charged for writing one byte to the stable store used
    /// by checkpoint/restart (models parallel-filesystem bandwidth).
    pub checkpoint_seconds_per_byte: f64,
    /// Fixed virtual seconds charged for a job restart under the
    /// checkpoint/restart policy (job relaunch + requeue cost).
    pub restart_cost: f64,
    /// Fixed virtual seconds charged for spawning a replacement rank under
    /// the LFLR policy.
    pub replacement_cost: f64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            latency: LatencyModel::default(),
            noise: NoiseConfig::off(),
            failures: FailureConfig::none(),
            seconds_per_flop: 1.0e-9,
            seed: 0x5EED_5EED,
            checkpoint_seconds_per_byte: 1.0e-9,
            restart_cost: 1.0,
            replacement_cost: 0.05,
        }
    }
}

impl RuntimeConfig {
    /// Configuration with zero communication cost, no noise and no failures:
    /// the runtime then behaves as a deterministic message-passing library,
    /// which is what most unit tests want.
    pub fn fast() -> Self {
        Self {
            latency: LatencyModel::zero(),
            ..Self::default()
        }
    }

    /// Builder-style: set the latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Builder-style: set the noise model.
    pub fn with_noise(mut self, noise: NoiseConfig) -> Self {
        self.noise = noise;
        self
    }

    /// Builder-style: set the failure model.
    pub fn with_failures(mut self, failures: FailureConfig) -> Self {
        self.failures = failures;
        self
    }

    /// Builder-style: set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The machine model the shared communicator charges against: the six values
/// [`RuntimeConfig`] and [`ThreadConfig`](crate::threads::ThreadConfig) both
/// carry (documented there). Each launcher extracts it from its own
/// configuration; the rank's clock decides how a charged second is paid.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CostModel {
    pub policy: FailurePolicy,
    pub latency: LatencyModel,
    pub seconds_per_flop: f64,
    pub checkpoint_seconds_per_byte: f64,
    pub replacement_cost: f64,
    pub max_failures: usize,
}

impl From<&RuntimeConfig> for CostModel {
    fn from(config: &RuntimeConfig) -> Self {
        Self {
            policy: config.failures.policy,
            latency: config.latency,
            seconds_per_flop: config.seconds_per_flop,
            checkpoint_seconds_per_byte: config.checkpoint_seconds_per_byte,
            replacement_cost: config.replacement_cost,
            max_failures: config.failures.max_failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_depth_values() {
        assert_eq!(LatencyModel::tree_depth(1), 0);
        assert_eq!(LatencyModel::tree_depth(2), 1);
        assert_eq!(LatencyModel::tree_depth(3), 2);
        assert_eq!(LatencyModel::tree_depth(4), 2);
        assert_eq!(LatencyModel::tree_depth(5), 3);
        assert_eq!(LatencyModel::tree_depth(8), 3);
        assert_eq!(LatencyModel::tree_depth(9), 4);
        assert_eq!(LatencyModel::tree_depth(1024), 10);
    }

    #[test]
    fn p2p_cost_is_affine_in_bytes() {
        let m = LatencyModel {
            alpha: 1.0,
            beta: 0.5,
            gamma: 0.0,
        };
        assert!((m.p2p_cost(0) - 1.0).abs() < 1e-15);
        assert!((m.p2p_cost(10) - 6.0).abs() < 1e-15);
    }

    #[test]
    fn collective_cost_grows_logarithmically() {
        let m = LatencyModel {
            alpha: 1.0,
            beta: 0.0,
            gamma: 0.0,
        };
        let c4 = m.collective_cost(4, 8, 1);
        let c16 = m.collective_cost(16, 8, 1);
        let c256 = m.collective_cost(256, 8, 1);
        assert!((c4 - 2.0).abs() < 1e-12);
        assert!((c16 - 4.0).abs() < 1e-12);
        assert!((c256 - 8.0).abs() < 1e-12);
    }

    #[test]
    fn zero_model_costs_nothing() {
        let m = LatencyModel::zero();
        assert_eq!(m.p2p_cost(1_000_000), 0.0);
        assert_eq!(m.collective_cost(1024, 1_000_000, 1_000), 0.0);
    }

    #[test]
    fn default_configs_are_benign() {
        let c = RuntimeConfig::default();
        assert!(!c.noise.enabled);
        assert!(!c.failures.enabled);
        let f = FailureConfig::none();
        assert_eq!(f.policy, FailurePolicy::AbortJob);
    }

    #[test]
    fn builders_apply() {
        let c = RuntimeConfig::fast()
            .with_seed(42)
            .with_noise(NoiseConfig::fixed(10.0, 0.001))
            .with_failures(FailureConfig::scheduled(
                FailurePolicy::ReplaceRank,
                vec![(1, 0.5)],
            ));
        assert_eq!(c.seed, 42);
        assert!(c.noise.enabled);
        assert!(c.failures.enabled);
        assert_eq!(c.failures.policy, FailurePolicy::ReplaceRank);
        assert_eq!(c.latency, LatencyModel::zero());
    }

    #[test]
    fn noise_constructors() {
        let n = NoiseConfig::exponential(100.0, 0.002);
        assert!(n.enabled);
        assert!(matches!(n.duration, NoiseDistribution::Exponential(d) if d == 0.002));
        let n = NoiseConfig::off();
        assert!(!n.enabled);
    }
}
