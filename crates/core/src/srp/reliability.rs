//! The two-tier cost accounting used to compare SRP algorithms against
//! fully reliable and fully unreliable baselines (§II-D). The unreliable
//! tier itself is a space whose products a
//! [`StrikePlan::random_flips`](resilient_faults::StrikePlan::random_flips)
//! plan corrupts.

use resilient_faults::memory::{Reliability, ReliabilityModel};

/// Tracks how much work was executed in each reliability class and converts
/// it to a cost-weighted total.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SrpCostLedger {
    /// FLOPs executed in unreliable (cheap) mode.
    pub unreliable_flops: usize,
    /// FLOPs executed in reliable (expensive) mode.
    pub reliable_flops: usize,
}

impl SrpCostLedger {
    /// Charge `flops` to the given reliability class.
    pub fn charge(&mut self, class: Reliability, flops: usize) {
        match class {
            Reliability::Unreliable => self.unreliable_flops += flops,
            Reliability::Reliable => self.reliable_flops += flops,
        }
    }

    /// Total cost in unreliable-FLOP equivalents under the given model.
    pub fn weighted_cost(&self, model: &ReliabilityModel) -> f64 {
        self.unreliable_flops as f64 + self.reliable_flops as f64 * model.reliable_cost_factor
    }

    /// Fraction of raw FLOPs executed in reliable mode.
    pub fn reliable_fraction(&self) -> f64 {
        let total = self.unreliable_flops + self.reliable_flops;
        if total == 0 {
            0.0
        } else {
            self.reliable_flops as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accounting() {
        let mut ledger = SrpCostLedger::default();
        ledger.charge(Reliability::Unreliable, 100);
        ledger.charge(Reliability::Reliable, 10);
        let model = ReliabilityModel {
            reliable_cost_factor: 3.0,
        };
        assert_eq!(ledger.weighted_cost(&model), 130.0);
        assert!((ledger.reliable_fraction() - 10.0 / 110.0).abs() < 1e-12);
        assert_eq!(SrpCostLedger::default().reliable_fraction(), 0.0);
    }
}
