//! FT-GMRES: fault-tolerant GMRES via selective reliability (§III-D),
//! following Bridges, Ferreira, Heroux & Hoemmen, "Fault-tolerant linear
//! solvers via selective reliability" (2012).
//!
//! Structure:
//!
//! * the **outer** iteration is a flexible GMRES run entirely in *reliable*
//!   mode (its SpMVs, orthogonalisation and bookkeeping are never corrupted,
//!   and are charged the reliable cost factor);
//! * the **inner** "preconditioner" is a whole GMRES solve executed in
//!   *unreliable* mode — most of the arithmetic, and therefore most of the
//!   cost, is spent here at the cheap rate. Each inner solve runs on its own
//!   space over the outer space's communicator, its products struck by a
//!   fresh [`StrikePlan::random_flips`] plan; the plans are drawn from one
//!   stream seeded by [`FtGmresConfig::seed`];
//! * whatever the inner solve returns is validated and, if finite, used as a
//!   flexible subspace vector. A corrupted inner result costs outer
//!   iterations, never correctness.

use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use resilient_faults::memory::{Reliability, ReliabilityModel};
use resilient_faults::StrikePlan;
use resilient_linalg::CsrMatrix;
use resilient_runtime::{Comm, Result};

use super::reliability::SrpCostLedger;
use crate::distributed::{DistCsr, DistVector};
use crate::kernel::{
    run_gmres, DistSpace, FlexibleRight, GmresFlavor, KernelReport, MgsOrtho, PolicyStack,
    SolveOptions, SpmvFault,
};
use crate::solvers::common::{measured, one_rank, SolveOutcome, ONE_RANK};
use crate::solvers::gmres::{gmres, gmres_on};

/// Configuration of the FT-GMRES inner/outer split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FtGmresConfig {
    /// Outer (reliable) solve options: tolerance is the solve tolerance.
    pub outer: SolveOptions,
    /// Inner (unreliable) iterations per outer step.
    pub inner_iters: usize,
    /// Inner relative-residual tolerance (usually loose, e.g. 1e-2).
    pub inner_tol: f64,
    /// Per-element corruption probability while executing in unreliable mode.
    pub fault_rate: f64,
    /// Cost model for the reliable tier.
    pub reliability: ReliabilityModel,
    /// RNG seed for the unreliable-mode corruption stream.
    pub seed: u64,
}

impl Default for FtGmresConfig {
    fn default() -> Self {
        Self {
            outer: SolveOptions::default().with_max_iters(60),
            inner_iters: 20,
            inner_tol: 1e-2,
            fault_rate: 0.0,
            reliability: ReliabilityModel::default(),
            seed: 0xF7,
        }
    }
}

/// Report of an FT-GMRES run.
#[derive(Debug, Clone, Default)]
pub struct FtGmresReport {
    /// The outer flexible-GMRES solve's report: inner applications,
    /// rejected inner results, policy restarts and per-policy overhead.
    pub outer: KernelReport,
    /// Cost ledger split by reliability tier.
    pub ledger: SrpCostLedger,
    /// Corrupted elements produced by the unreliable tier.
    pub corruptions: usize,
    /// Total inner iterations across all inner solves.
    pub inner_iterations: usize,
}

/// How far ahead an unreliable tier draws its strikes: a loose upper bound
/// on the operator applications of a [`gmres`](crate::solvers::gmres)
/// solve under `opts`, which makes one per iteration, one residual per
/// cycle start and one check on a convergence claim. The formula is kept
/// as it is because the strike streams draw from it: changing it moves
/// every seeded fault.
fn applications_bound(opts: &SolveOptions) -> u64 {
    let cycles = opts.max_iters / opts.restart.max(1) + 2;
    (opts.max_iters + 2 * cycles) as u64
}

/// The unreliable tier: every inner solve is [`gmres`](crate::solvers::gmres)'s
/// body on a space over the outer space's communicator and operator.
struct UnreliableInner {
    opts: SolveOptions,
    rate: f64,
    /// The one stream every inner solve's strike plan is drawn from.
    rng: ChaCha8Rng,
    flops: usize,
    corruptions: usize,
    inner_iterations: usize,
}

impl<'a, 'b> FlexibleRight<DistSpace<'a, 'b>> for UnreliableInner {
    fn apply(&mut self, space: &mut DistSpace<'a, 'b>, v: &DistVector) -> Result<DistVector> {
        let a = space.operator();
        let rank = space.comm().world_rank();
        let bound = applications_bound(&self.opts);
        let plan = StrikePlan::random_flips(rank, self.rate, bound, a.local_rows(), &mut self.rng);
        let mut inner = DistSpace::new(space.comm(), a).with_spmv_plan(plan);
        let before = inner.comm().snapshot_stats().flops;
        let (out, _report) = gmres_on(&mut inner, v, None, &self.opts)?;
        self.flops += (inner.comm().snapshot_stats().flops - before) as usize;
        self.corruptions += inner.injections();
        self.inner_iterations += out.iterations;
        Ok(out.x)
    }

    fn name(&self) -> &'static str {
        "unreliable-inner-gmres"
    }
}

/// Solve `A·x = b` with FT-GMRES on one rank: the outer iteration applies
/// `a` reliably; the inner solves run in the unreliable tier at the
/// configured fault rate.
pub fn ft_gmres(a: &CsrMatrix, b: &[f64], cfg: &FtGmresConfig) -> (SolveOutcome, FtGmresReport) {
    let (mut comm, a) = one_rank(a);
    let b = DistVector::from_global(&comm, b);
    let stack = &mut PolicyStack::empty();
    ft_gmres_with_policies(&mut comm, &a, &b, cfg, None, stack).expect(ONE_RANK)
}

/// FT-GMRES over `a` on `comm`, with an explicit resilience-policy stack
/// guarding the *outer* (reliable-tier) iteration — the composable form
/// behind [`crate::kernel::compose::ft_gmres_abft`]. `fault` optionally
/// strikes one outer product (the reliable tier's blind spot). Returns the
/// outcome — its `flops` are the whole solve's, inner solves included, and
/// its `injections` the outer strikes — and the FT-GMRES report, whose
/// `outer` carries the policy-triggered outer-cycle restarts and the
/// stack's overhead.
///
/// # Errors
/// Whatever the communicator reports; never on one rank.
pub fn ft_gmres_with_policies<'a, 'b>(
    comm: &'a mut Comm,
    a: &'b DistCsr,
    b: &DistVector,
    cfg: &FtGmresConfig,
    fault: Option<SpmvFault>,
    policies: &mut PolicyStack<'_, DistSpace<'a, 'b>>,
) -> Result<(SolveOutcome, FtGmresReport)> {
    let mut inner = UnreliableInner {
        opts: SolveOptions::default()
            .with_tol(cfg.inner_tol)
            .with_max_iters(cfg.inner_iters)
            .with_restart(cfg.inner_iters.max(1)),
        rate: cfg.fault_rate,
        rng: ChaCha8Rng::seed_from_u64(cfg.seed),
        flops: 0,
        corruptions: 0,
        inner_iterations: 0,
    };
    let mut space = DistSpace::new(comm, a);
    if let Some(f) = fault {
        space = space.with_fault(f);
    }
    let (out, report) = measured(&mut space, |space| {
        let m = Some(&mut inner as &mut dyn FlexibleRight<_>);
        run_gmres(
            space,
            b,
            None,
            &cfg.outer,
            &mut MgsOrtho::new(),
            policies,
            m,
            &GmresFlavor,
        )
    })?;
    let mut ledger = SrpCostLedger::default();
    ledger.charge(Reliability::Unreliable, inner.flops);
    // Everything else — the outer iteration's own arithmetic — ran in
    // reliable mode.
    ledger.charge(Reliability::Reliable, out.flops - inner.flops);
    let ft = FtGmresReport {
        outer: report,
        ledger,
        corruptions: inner.corruptions,
        inner_iterations: inner.inner_iterations,
    };
    Ok((out, ft))
}

/// The all-unreliable baseline: plain GMRES whose every product is struck
/// at `fault_rate` per element (what an application does today if the
/// machine stops guaranteeing reliable execution). Returns the outcome —
/// `injections` counts the corrupted elements — and the cost ledger.
pub fn unreliable_gmres(
    a: &CsrMatrix,
    b: &[f64],
    opts: &SolveOptions,
    fault_rate: f64,
    seed: u64,
) -> (SolveOutcome, SrpCostLedger) {
    let (mut comm, a) = one_rank(a);
    let b = DistVector::from_global(&comm, b);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let bound = applications_bound(opts);
    let plan = StrikePlan::random_flips(0, fault_rate, bound, a.local_rows(), &mut rng);
    let mut space = DistSpace::new(&mut comm, &a).with_spmv_plan(plan);
    let (out, _report) =
        measured(&mut space, |space| gmres_on(space, &b, None, opts)).expect(ONE_RANK);
    let mut ledger = SrpCostLedger::default();
    ledger.charge(Reliability::Unreliable, out.flops);
    (out, ledger)
}

/// The all-reliable baseline: plain GMRES on the clean operator, every FLOP
/// charged at the reliable rate.
pub fn reliable_gmres(
    a: &CsrMatrix,
    b: &[f64],
    opts: &SolveOptions,
) -> (SolveOutcome, SrpCostLedger) {
    let out = gmres(a, b, None, opts);
    let mut ledger = SrpCostLedger::default();
    ledger.charge(Reliability::Reliable, out.flops);
    (out, ledger)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::common::true_relative_residual;
    use resilient_linalg::poisson2d;

    #[test]
    fn fault_free_ft_gmres_converges() {
        let a = poisson2d(8, 8);
        let b = vec![1.0; a.nrows()];
        let cfg = FtGmresConfig {
            outer: SolveOptions::default()
                .with_tol(1e-8)
                .with_max_iters(40)
                .with_restart(50),
            ..FtGmresConfig::default()
        };
        let (out, report) = ft_gmres(&a, &b, &cfg);
        assert!(out.converged());
        assert_eq!(report.corruptions, 0);
        assert!(report.inner_iterations > 0);
        // Most raw FLOPs must be in the cheap tier — that is the whole point.
        assert!(
            report.ledger.reliable_fraction() < 0.5,
            "reliable fraction {}",
            report.ledger.reliable_fraction()
        );
    }

    #[test]
    fn ft_gmres_survives_high_fault_rate() {
        let a = poisson2d(8, 8);
        let b = vec![1.0; a.nrows()];
        let cfg = FtGmresConfig {
            outer: SolveOptions::default()
                .with_tol(1e-8)
                .with_max_iters(80)
                .with_restart(40),
            fault_rate: 2e-3,
            ..FtGmresConfig::default()
        };
        let (out, report) = ft_gmres(&a, &b, &cfg);
        assert!(
            report.corruptions > 0,
            "faults must actually have been injected"
        );
        assert!(
            out.converged(),
            "FT-GMRES must converge despite inner corruption"
        );
        assert!(true_relative_residual(&a, &b, &out.x) < 1e-7);
    }

    #[test]
    fn unreliable_baseline_struggles_at_the_same_rate() {
        let a = poisson2d(8, 8);
        let b = vec![1.0; a.nrows()];
        let opts = SolveOptions::default()
            .with_tol(1e-8)
            .with_max_iters(600)
            .with_restart(40);
        let (out, _ledger) = unreliable_gmres(&a, &b, &opts, 2e-3, 0xF7);
        // At this corruption rate an unprotected GMRES usually fails to reach
        // the tolerance or returns a wrong answer; either way the *verified*
        // residual must be worse than what FT-GMRES achieves.
        let cfg = FtGmresConfig {
            outer: SolveOptions::default()
                .with_tol(1e-8)
                .with_max_iters(80)
                .with_restart(40),
            fault_rate: 2e-3,
            ..FtGmresConfig::default()
        };
        let (ft_out, _) = ft_gmres(&a, &b, &cfg);
        let unreliable_err = true_relative_residual(&a, &b, &out.x);
        let ft_err = true_relative_residual(&a, &b, &ft_out.x);
        assert!(out.injections > 0);
        assert!(
            !unreliable_err.is_finite()
                || unreliable_err > ft_err
                || out.iterations > ft_out.iterations,
            "unreliable: err={unreliable_err} iters={}; ft: err={ft_err} iters={}",
            out.iterations,
            ft_out.iterations
        );
    }

    #[test]
    fn reliable_baseline_costs_more_per_flop() {
        let a = poisson2d(6, 6);
        let b = vec![1.0; a.nrows()];
        let opts = SolveOptions::default()
            .with_tol(1e-8)
            .with_max_iters(200)
            .with_restart(50);
        let (out, ledger) = reliable_gmres(&a, &b, &opts);
        assert!(out.converged());
        assert_eq!(ledger.unreliable_flops, 0);
        let model = ReliabilityModel {
            reliable_cost_factor: 2.0,
        };
        assert!(ledger.weighted_cost(&model) > out.flops as f64 * 1.99);
    }
}
