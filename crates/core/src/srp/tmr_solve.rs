//! TMR-protected kernels: the "even TMR can win" ablation of §II-D (E7).
//!
//! Executes an unreliable kernel three times and majority-votes the result.
//! Compared against (a) executing once reliably at the reliable cost factor
//! and (b) executing once unreliably and hoping — the experiment sweeps the
//! fault rate to find where each strategy is cheapest *per correct answer*.
//! The unreliable kernel is a space's operator apply, its products struck
//! by a [`StrikePlan::random_flips`] plan.

use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use resilient_faults::memory::{Reliability, ReliabilityModel};
use resilient_faults::tmr::{tmr_vote_vectors, TmrStats};
use resilient_faults::StrikePlan;
use resilient_linalg::CsrMatrix;
use resilient_runtime::Result;

use super::reliability::SrpCostLedger;
use crate::distributed::DistVector;
use crate::kernel::{DistSpace, KrylovSpace};
use crate::solvers::common::{one_rank, ONE_RANK};

/// Result of one TMR-protected operator application.
#[derive(Debug, Clone)]
pub struct TmrApplyResult {
    /// The voted output — this rank's entries — (None if all three replicas
    /// disagreed).
    pub value: Option<Vec<f64>>,
    /// Cost ledger for the three unreliable applications.
    pub ledger: SrpCostLedger,
}

/// Apply `space`'s (unreliable) operator to `x` three times and vote.
///
/// # Errors
/// Whatever the operator apply reports.
pub fn tmr_apply(
    space: &mut DistSpace<'_, '_>,
    x: &DistVector,
    rel_tol: f64,
    stats: &mut TmrStats,
) -> Result<TmrApplyResult> {
    let a = space.apply(x)?.local;
    let b = space.apply(x)?.local;
    let c = space.apply(x)?.local;
    let mut ledger = SrpCostLedger::default();
    ledger.charge(Reliability::Unreliable, 3 * space.flops_per_apply());
    let voted = tmr_vote_vectors(&a, &b, &c, rel_tol);
    // Record the outcome in TMR statistics terms.
    let outcome = match &voted {
        Some(v) => {
            let close = |p: &[f64], q: &[f64]| {
                p.iter().zip(q).all(|(x, y)| {
                    let scale = x.abs().max(y.abs()).max(1.0);
                    (x - y).abs() <= rel_tol * scale
                })
            };
            let unanimous = close(&a, &b) && close(&a, &c);
            resilient_faults::tmr::TmrOutcome::Agreed {
                value: v.clone(),
                masked_error: !unanimous,
            }
        }
        None => resilient_faults::tmr::TmrOutcome::NoMajority {
            replicas: [a.clone(), b.clone(), c.clone()],
        },
    };
    stats.record(&outcome);
    Ok(TmrApplyResult {
        value: voted,
        ledger,
    })
}

/// Cost (in unreliable-FLOP equivalents) per *correct* SpMV under three
/// strategies, at the given per-element fault rate. Used by experiment E7.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TmrCostComparison {
    /// Single unreliable execution, re-done until a reference check passes.
    pub unreliable_retry_cost: f64,
    /// TMR execution (with retries when the vote fails).
    pub tmr_cost: f64,
    /// Single reliable execution.
    pub reliable_cost: f64,
    /// Fraction of single unreliable executions that were correct.
    pub unreliable_success_rate: f64,
    /// Fraction of TMR votes that succeeded.
    pub tmr_success_rate: f64,
}

/// Run the three strategies `trials` times against a clean reference and
/// report cost per correct answer. The single and the TMR executions each
/// run on their own unreliable tier, struck at `fault_rate` per element
/// from the streams seeded by `seed` and `seed ^ 0x5555`.
pub fn compare_tmr_strategies(
    a: &CsrMatrix,
    x: &[f64],
    fault_rate: f64,
    model: &ReliabilityModel,
    trials: usize,
    seed: u64,
) -> TmrCostComparison {
    let (mut comm, a) = one_rank(a);
    let x = DistVector::from_global(&comm, x);
    let reference = DistSpace::new(&mut comm, &a)
        .apply(&x)
        .expect(ONE_RANK)
        .local;
    let flops = a.flops_per_apply() as f64;
    let close = |p: &[f64]| {
        p.iter().zip(&reference).all(|(u, v)| {
            let scale = u.abs().max(v.abs()).max(1.0);
            (u - v).abs() <= 1e-9 * scale
        })
    };
    let plan = |seed, applications| {
        let rng = &mut ChaCha8Rng::seed_from_u64(seed);
        StrikePlan::random_flips(0, fault_rate, applications, a.local_rows(), rng)
    };

    let mut unreliable = DistSpace::new(&mut comm, &a).with_spmv_plan(plan(seed, trials as u64));
    let mut single_successes = 0usize;
    for _ in 0..trials {
        if close(&unreliable.apply(&x).expect(ONE_RANK).local) {
            single_successes += 1;
        }
    }
    let single_rate = single_successes as f64 / trials.max(1) as f64;
    // Expected executions until success = 1 / p (geometric); infinite cost if
    // the success rate is zero.
    let unreliable_retry_cost = if single_rate > 0.0 {
        flops / single_rate
    } else {
        f64::INFINITY
    };

    let tmr_plan = plan(seed ^ 0x5555, 3 * trials as u64);
    let mut tmr_space = DistSpace::new(&mut comm, &a).with_spmv_plan(tmr_plan);
    let mut tmr_stats = TmrStats::default();
    let mut tmr_correct = 0usize;
    for _ in 0..trials {
        let r = tmr_apply(&mut tmr_space, &x, 1e-12, &mut tmr_stats).expect(ONE_RANK);
        if let Some(v) = r.value {
            if close(&v) {
                tmr_correct += 1;
            }
        }
    }
    let tmr_rate = tmr_correct as f64 / trials.max(1) as f64;
    let tmr_cost = if tmr_rate > 0.0 {
        3.0 * flops / tmr_rate
    } else {
        f64::INFINITY
    };

    TmrCostComparison {
        unreliable_retry_cost,
        tmr_cost,
        reliable_cost: flops * model.reliable_cost_factor,
        unreliable_success_rate: single_rate,
        tmr_success_rate: tmr_rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilient_linalg::poisson2d;
    use resilient_runtime::Comm;

    /// `poisson2d(nx, nx)` applied to ones, on an unreliable tier at `rate`.
    fn tmr_runs(nx: usize, rate: f64, seed: u64, runs: usize) -> (Vec<TmrApplyResult>, TmrStats) {
        let (mut comm, a): (Comm, _) = one_rank(&poisson2d(nx, nx));
        let x = DistVector::from_fn(&comm, a.global_dim(), |_| 1.0);
        let rng = &mut ChaCha8Rng::seed_from_u64(seed);
        let plan = StrikePlan::random_flips(0, rate, 3 * runs as u64, a.local_rows(), rng);
        let mut space = DistSpace::new(&mut comm, &a).with_spmv_plan(plan);
        let mut stats = TmrStats::default();
        let results = (0..runs)
            .map(|_| tmr_apply(&mut space, &x, 1e-12, &mut stats).unwrap())
            .collect();
        (results, stats)
    }

    #[test]
    fn tmr_apply_masks_single_replica_errors() {
        // Moderate rate: most triples have at most one corrupted replica.
        let a = poisson2d(6, 6);
        let clean = a.spmv(&vec![1.0; a.nrows()]);
        let (results, stats) = tmr_runs(6, 0.002, 1, 50);
        let correct = results
            .iter()
            .filter_map(|r| r.value.as_ref())
            .filter(|v| v.iter().zip(&clean).all(|(a, b)| (a - b).abs() < 1e-9))
            .count();
        assert_eq!(stats.executions, 50);
        assert!(
            correct >= 45,
            "TMR should produce the correct answer almost always: {correct}"
        );
    }

    #[test]
    fn zero_fault_rate_is_always_unanimous() {
        let a = poisson2d(4, 4);
        let (results, stats) = tmr_runs(4, 0.0, 2, 1);
        assert_eq!(
            results[0].value.as_ref().unwrap(),
            &a.spmv(&vec![1.0; a.nrows()])
        );
        assert_eq!(stats.unanimous, 1);
        assert_eq!(results[0].ledger.unreliable_flops, 3 * a.spmv_flops());
    }

    #[test]
    fn strategy_comparison_orders_sensibly() {
        let a = poisson2d(6, 6);
        let x = vec![1.0; a.nrows()];
        let model = ReliabilityModel {
            reliable_cost_factor: 3.0,
        };
        // At zero fault rate, a single unreliable execution is the cheapest.
        let at_zero = compare_tmr_strategies(&a, &x, 0.0, &model, 20, 1);
        assert_eq!(at_zero.unreliable_success_rate, 1.0);
        assert!(at_zero.unreliable_retry_cost < at_zero.tmr_cost);
        assert!(at_zero.unreliable_retry_cost < at_zero.reliable_cost);
        // At a high fault rate, the single unreliable execution almost never
        // succeeds, so its retry cost blows past TMR's.
        let at_high = compare_tmr_strategies(&a, &x, 0.15, &model, 40, 2);
        assert!(at_high.unreliable_success_rate < 0.5);
        assert!(
            at_high.unreliable_retry_cost > at_high.reliable_cost,
            "retrying unprotected work must become more expensive than reliable execution"
        );
    }
}
