//! The skeptical checks of §III-A as a composable [`ResiliencePolicy`].
//!
//! [`SkepticalPolicy`] implements the invariant tests — finiteness/norm-bound
//! on every product, orthogonality of the newest basis pair, periodic
//! residual-consistency — generically over any [`KrylovSpace`], so the same
//! checks guard the serial `skeptical_gmres` preset and the
//! pipelined/distributed solves (every decision quantity is a *global* norm
//! or dot, keeping rank control flow symmetric).
//!
//! ## Wants-dots fusion
//!
//! Detection that adds synchronization negates the latency-hiding it guards
//! (Agullo et al.), so on strategies with a fused reduction the policy does
//! not post its own collectives: it requests its check pairs through
//! [`check_dots`](ResiliencePolicy::check_dots), receives the globally
//! reduced scalars through
//! [`consume_check_dots`](ResiliencePolicy::consume_check_dots) before the
//! detection hooks run, and decides from those. On pipelined schedules the
//! fused scalars refer to the most recent *completed* product/basis pair,
//! so detection lags one step — still recovered by a corrective restart,
//! since the iterate is only committed at cycle boundaries (GMRES) or can
//! be re-seeded (CG). The immediate-dot strategy (`MgsOrtho`) never
//! negotiates; there the policy keeps the direct reductions,
//! charging exactly the reductions that actually run.

use super::policy::{
    CheckDot, DetectionResponse, IterCtx, PolicyAction, PolicyOverhead, ResiliencePolicy,
    SolutionProbe,
};
use super::space::KrylovSpace;
use super::sqrt_nonneg;
use resilient_runtime::Result;

/// Allowed overshoot of the true residual relative to the recurrence
/// estimate: a detection fires when
/// `true > estimate * (1 + MISMATCH_TOL) + 10·tol`.
const MISMATCH_TOL: f64 = 10.0;

/// Safety factor on the norm bound ‖A·v‖ ≤ factor·‖A‖∞·‖v‖.
const NORM_SAFETY_FACTOR: f64 = 4.0;

/// Configuration of the skeptical checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkepticalConfig {
    /// Enable the per-iteration finiteness / norm-bound / orthogonality
    /// checks.
    pub local_checks: bool,
    /// Recompute the true residual every this many iterations and compare
    /// with the recurrence estimate (0 disables the check).
    pub residual_check_interval: usize,
    /// Orthogonality tolerance for the newest basis pair.
    pub orthogonality_tol: f64,
    /// Response on detection: restart the cycle from the current iterate
    /// (local rollback — the recommended response) or stop the solve.
    pub response: DetectionResponse,
    /// Fuse the check reductions into the dot strategy's own fused
    /// reduction via the wants-dots negotiation (the policy requests check
    /// pairs, the strategy appends them to the reduction it already posts),
    /// instead of posting up to three extra blocking allreduces per
    /// iteration. Only strategies with a fused reduction negotiate;
    /// immediate-dot (serial) schedules always use the direct checks.
    /// Disable to force the legacy unfused schedule (comparison runs).
    pub fuse_checks: bool,
}

impl Default for SkepticalConfig {
    fn default() -> Self {
        Self {
            local_checks: true,
            residual_check_interval: 10,
            orthogonality_tol: 1e-8,
            response: DetectionResponse::Restart,
            fuse_checks: true,
        }
    }
}

impl SkepticalConfig {
    /// A configuration with every check disabled (the "trusting" baseline).
    pub fn trusting() -> Self {
        Self {
            local_checks: false,
            residual_check_interval: 0,
            ..Self::default()
        }
    }

    /// The same checks on the legacy unfused schedule: every distributed
    /// check posts its own blocking allreduce instead of riding the
    /// strategy's fused reduction (comparison experiments).
    pub fn unfused(mut self) -> Self {
        self.fuse_checks = false;
        self
    }
}

/// Globally reduced check scalars delivered by the current wants-dots round
/// (cleared at each negotiation; `take`n by the detection hooks).
#[derive(Debug, Clone, Default)]
struct FusedCheckState {
    /// True once a fusing strategy has negotiated with this policy; the
    /// detection hooks then consume fused globals and never post their own
    /// reductions.
    active: bool,
    product_norm_sq: Option<f64>,
    input_norm_sq: Option<f64>,
    basis_pair_dot: Option<f64>,
    new_basis_norm_sq: Option<f64>,
    prev_basis_norm_sq: Option<f64>,
}

/// Skeptical invariant checks as a policy, built from a
/// [`SkepticalConfig`]. Its checks, detections, restarts and check FLOPs
/// are counted in one [`PolicyOverhead`].
#[derive(Debug, Clone)]
pub struct SkepticalPolicy {
    cfg: SkepticalConfig,
    overhead: PolicyOverhead,
    /// Operator ∞-norm estimate, captured at solve start from the space.
    norm_a: f64,
    fused: FusedCheckState,
}

impl SkepticalPolicy {
    /// Build the policy from a skeptical configuration.
    pub fn new(cfg: SkepticalConfig) -> Self {
        Self {
            cfg,
            overhead: PolicyOverhead {
                name: "skeptical",
                ..PolicyOverhead::default()
            },
            norm_a: f64::INFINITY,
            fused: FusedCheckState::default(),
        }
    }

    /// The accumulated overhead, as [`overhead`](ResiliencePolicy::overhead)
    /// returns it. Kept for the frozen `perf_ledger`, which calls it.
    pub fn report(&self) -> PolicyOverhead {
        self.overhead.clone()
    }
}

impl<S: KrylovSpace> ResiliencePolicy<S> for SkepticalPolicy {
    fn name(&self) -> &'static str {
        "skeptical"
    }

    fn response(&self) -> DetectionResponse {
        self.cfg.response
    }

    fn on_solve_start(&mut self, space: &mut S, _b: &S::Vector) -> Result<()> {
        self.norm_a = space.operator_norm_estimate();
        Ok(())
    }

    fn check_dots(&mut self, _ctx: &IterCtx) -> Vec<CheckDot> {
        if !self.cfg.fuse_checks {
            return Vec::new();
        }
        self.fused = FusedCheckState {
            active: true,
            ..FusedCheckState::default()
        };
        if !self.cfg.local_checks {
            return Vec::new();
        }
        let mut reqs = vec![CheckDot::ProductNormSq];
        if self.norm_a.is_finite() {
            // The norm-bound test needs ‖v‖; without a finite ‖A‖ estimate
            // only the finiteness test can fire, so don't reduce it.
            reqs.push(CheckDot::InputNormSq);
        }
        reqs.push(CheckDot::BasisPairDot);
        if self.cfg.orthogonality_tol.is_finite() {
            reqs.push(CheckDot::NewBasisNormSq);
            reqs.push(CheckDot::PrevBasisNormSq);
        }
        reqs
    }

    fn consume_check_dots(&mut self, _ctx: &IterCtx, local_n: usize, values: &[(CheckDot, f64)]) {
        // The tagged reduction already attributed these FLOPs in the space's
        // check ledger; mirror them into this policy's.
        self.overhead.check_flops += 2 * local_n * values.len();
        for (which, v) in values {
            let slot = match which {
                CheckDot::ProductNormSq => &mut self.fused.product_norm_sq,
                CheckDot::InputNormSq => &mut self.fused.input_norm_sq,
                CheckDot::BasisPairDot => &mut self.fused.basis_pair_dot,
                CheckDot::NewBasisNormSq => &mut self.fused.new_basis_norm_sq,
                CheckDot::PrevBasisNormSq => &mut self.fused.prev_basis_norm_sq,
                // This policy never supplies its own pairs.
                CheckDot::PolicyPair(_) => continue,
            };
            *slot = Some(*v);
        }
    }

    /// Finiteness / norm bound on the raw product: for `w = A·v`,
    /// `‖w‖ ≤ factor·‖A‖∞·max(‖v‖, 1)`; a high-exponent-bit flip violates
    /// this by many orders of magnitude.
    fn after_spmv(
        &mut self,
        space: &mut S,
        _ctx: &IterCtx,
        v: &S::Vector,
        w: &S::Vector,
    ) -> Result<PolicyAction> {
        if !self.cfg.local_checks {
            return Ok(PolicyAction::Continue);
        }
        let suspicious = if self.fused.active {
            // Fused path: decide from the scalars that rode the strategy's
            // reduction — zero collectives posted here. (`(w,w)` is a sum of
            // squares, so a global NaN/Inf is the symmetric finiteness test.)
            let wn2 = match self.fused.product_norm_sq.take() {
                Some(wn2) => wn2,
                None => return Ok(PolicyAction::Continue),
            };
            self.overhead.checks_run += 1;
            let mut bad = !wn2.is_finite();
            if !bad && self.norm_a.is_finite() {
                let vn = self
                    .fused
                    .input_norm_sq
                    .take()
                    .map(sqrt_nonneg)
                    .unwrap_or(1.0);
                let wn = sqrt_nonneg(wn2);
                bad = wn > NORM_SAFETY_FACTOR * self.norm_a * vn.max(1.0);
            }
            bad
        } else {
            // Direct path (immediate-dot strategies): post the reductions
            // here, charging exactly the ones that run.
            self.overhead.checks_run += 1;
            let n = space.local_len(w);
            self.overhead.check_flops += 2 * n;
            space.record_check_flops(2 * n);
            let wn = space.norm(w)?;
            let mut bad = space.local_has_non_finite(w) || !wn.is_finite();
            if !bad && self.norm_a.is_finite() {
                // ‖v‖ is only reduced when the norm-bound test can fire.
                // (When any rank holds a non-finite local value the *global*
                // ‖w‖ is non-finite on every rank, so this branch stays
                // rank-symmetric.)
                self.overhead.check_flops += 2 * n;
                space.record_check_flops(2 * n);
                let vn = space.norm(v)?;
                bad = wn > NORM_SAFETY_FACTOR * self.norm_a * vn.max(1.0);
            }
            bad
        };
        if suspicious {
            self.overhead.detections += 1;
            return Ok(PolicyAction::Detected);
        }
        Ok(PolicyAction::Continue)
    }

    /// Orthogonality of the newest basis pair (Gram–Schmidt should make
    /// them orthogonal to machine precision).
    fn after_orthogonalization(
        &mut self,
        space: &mut S,
        _ctx: &IterCtx,
        new_v: &S::Vector,
        prev_v: Option<&S::Vector>,
    ) -> Result<PolicyAction> {
        if !self.cfg.local_checks {
            return Ok(PolicyAction::Continue);
        }
        let suspicious = if self.fused.active {
            // Fused path: the pair dot (and scale norms, when the tolerance
            // is finite) rode the strategy's reduction; on pipelined
            // schedules they refer to the pair formed by the previous step.
            let inner = match self.fused.basis_pair_dot.take() {
                Some(d) => d.abs(),
                None => return Ok(PolicyAction::Continue),
            };
            self.overhead.checks_run += 1;
            match (
                self.cfg.orthogonality_tol.is_finite(),
                self.fused.new_basis_norm_sq.take(),
                self.fused.prev_basis_norm_sq.take(),
            ) {
                (true, Some(nn2), Some(pn2)) => {
                    let scale = sqrt_nonneg(nn2) * sqrt_nonneg(pn2);
                    !inner.is_finite()
                        || inner > self.cfg.orthogonality_tol * scale.max(f64::MIN_POSITIVE)
                }
                _ => !inner.is_finite(),
            }
        } else {
            let prev = match prev_v {
                Some(p) => p,
                None => return Ok(PolicyAction::Continue),
            };
            self.overhead.checks_run += 1;
            let n = space.local_len(new_v);
            self.overhead.check_flops += 2 * n;
            space.record_check_flops(2 * n);
            let inner = space.dot(new_v, prev)?.abs();
            // With an infinite tolerance (how presets disable the test for
            // bases that are legitimately non-orthogonal, e.g. the
            // p(1)-pipelined one) only the NaN test below can fire, so skip
            // the two norm reductions — and their cost.
            if self.cfg.orthogonality_tol.is_finite() {
                self.overhead.check_flops += 4 * n;
                space.record_check_flops(4 * n);
                let scale = space.norm(new_v)? * space.norm(prev)?;
                !inner.is_finite()
                    || inner > self.cfg.orthogonality_tol * scale.max(f64::MIN_POSITIVE)
            } else {
                !inner.is_finite()
            }
        };
        if suspicious {
            self.overhead.detections += 1;
            return Ok(PolicyAction::Detected);
        }
        Ok(PolicyAction::Continue)
    }

    /// Periodic residual-consistency check: the recurrence estimate is
    /// compared against the explicitly computed true residual of the trial
    /// solution. Corruption that slipped past the local checks makes the
    /// recurrence lie *low*, so only a large one-sided discrepancy fires.
    fn on_iteration(
        &mut self,
        space: &mut S,
        ctx: &IterCtx,
        probe: &mut dyn SolutionProbe<S>,
    ) -> Result<PolicyAction> {
        if self.cfg.residual_check_interval == 0
            || ctx.iteration % self.cfg.residual_check_interval != 0
        {
            return Ok(PolicyAction::Continue);
        }
        self.overhead.checks_run += 1;
        // Cost against the *live* local length: a shrink recovery rebuilds
        // the communicator and changes local vector lengths mid-solve.
        let check_cost = space.flops_per_apply() + 4 * probe.local_len(space);
        self.overhead.check_flops += check_cost;
        space.record_check_flops(check_cost);
        let true_rr = probe.trial_true_relres(space)?;
        let allowed = ctx.relres * (1.0 + MISMATCH_TOL) + 10.0 * ctx.tol;
        if !true_rr.is_finite() || true_rr > allowed {
            self.overhead.detections += 1;
            return Ok(PolicyAction::Detected);
        }
        Ok(PolicyAction::Continue)
    }

    fn overhead(&self) -> PolicyOverhead {
        self.overhead.clone()
    }

    fn note_restart(&mut self) {
        self.overhead.restarts += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::{DistCsr, DistVector};
    use crate::kernel::space::DistSpace;
    use resilient_linalg::poisson2d;
    use resilient_runtime::{Comm, RuntimeConfig};

    type Space<'a, 'b> = DistSpace<'a, 'b>;

    /// `poisson2d(6, 6)` on a launcher-free rank.
    fn one_rank() -> (Comm, DistCsr) {
        let mut comm = Comm::solo(&RuntimeConfig::fast());
        let a = DistCsr::from_global(&mut comm, &poisson2d(6, 6)).unwrap();
        (comm, a)
    }

    fn ctx() -> IterCtx {
        IterCtx {
            iteration: 1,
            cycle_step: 1,
            cycle: 0,
            relres: 1.0,
            tol: 1e-9,
        }
    }

    /// Satellite regression: the direct (unfused) after-SpMV check must
    /// charge exactly the reductions that ran — `2n` when only ‖w‖ is
    /// reduced (no finite ‖A‖ estimate), `4n` when ‖v‖ is reduced too.
    #[test]
    fn after_spmv_charges_exactly_what_ran() {
        let (mut comm, a) = one_rank();
        let n = a.global_dim();
        let v = DistVector::from_fn(&comm, n, |_| 1.0);
        let mut space = DistSpace::new(&mut comm, &a);
        let w = space.apply(&v).unwrap();

        // Without a finite operator-norm estimate only ‖w‖ runs.
        let mut p = SkepticalPolicy::new(SkepticalConfig::default());
        assert!(!p.norm_a.is_finite());
        let out = <SkepticalPolicy as ResiliencePolicy<Space<'_, '_>>>::after_spmv(
            &mut p,
            &mut space,
            &ctx(),
            &v,
            &w,
        )
        .unwrap();
        assert_eq!(out, PolicyAction::Continue);
        assert_eq!(p.overhead.check_flops, 2 * n);

        // With a finite estimate the bound test reduces ‖v‖ as well.
        let mut p = SkepticalPolicy::new(SkepticalConfig::default());
        p.norm_a = 8.0;
        <SkepticalPolicy as ResiliencePolicy<Space<'_, '_>>>::after_spmv(
            &mut p,
            &mut space,
            &ctx(),
            &v,
            &w,
        )
        .unwrap();
        assert_eq!(p.overhead.check_flops, 4 * n);
    }

    /// Satellite regression: the finite-tolerance orthogonality path runs
    /// one dot plus two norms (`6n`); the infinite-tolerance path only the
    /// dot (`2n`).
    #[test]
    fn orthogonality_check_charges_by_tolerance() {
        let (mut comm, a) = one_rank();
        let n = a.global_dim();
        let new_v = DistVector::from_fn(&comm, n, |i| (i as f64 * 0.3).sin());
        let prev_v = DistVector::from_fn(&comm, n, |i| (i as f64 * 0.3).cos());
        let mut space = DistSpace::new(&mut comm, &a);

        let mut finite = SkepticalPolicy::new(SkepticalConfig {
            orthogonality_tol: 1e30, // finite but never fires on this pair
            ..SkepticalConfig::default()
        });
        <SkepticalPolicy as ResiliencePolicy<Space<'_, '_>>>::after_orthogonalization(
            &mut finite,
            &mut space,
            &ctx(),
            &new_v,
            Some(&prev_v),
        )
        .unwrap();
        assert_eq!(finite.overhead.check_flops, 6 * n);

        let mut infinite = SkepticalPolicy::new(SkepticalConfig {
            orthogonality_tol: f64::INFINITY,
            ..SkepticalConfig::default()
        });
        <SkepticalPolicy as ResiliencePolicy<Space<'_, '_>>>::after_orthogonalization(
            &mut infinite,
            &mut space,
            &ctx(),
            &new_v,
            Some(&prev_v),
        )
        .unwrap();
        assert_eq!(infinite.overhead.check_flops, 2 * n);
    }

    /// The fused after-SpMV decision consumes already-global scalars and
    /// detects a norm-bound violation without touching the space.
    #[test]
    fn fused_norm_bound_detects_from_consumed_scalars() {
        let (mut comm, a) = one_rank();
        let n = a.global_dim();
        let v = DistVector::from_fn(&comm, n, |_| 1.0);
        let mut space = DistSpace::new(&mut comm, &a);
        let mut p = SkepticalPolicy::new(SkepticalConfig::default());
        p.norm_a = 8.0;

        let reqs = <SkepticalPolicy as ResiliencePolicy<Space<'_, '_>>>::check_dots(&mut p, &ctx());
        assert!(reqs.contains(&CheckDot::ProductNormSq));
        assert!(reqs.contains(&CheckDot::InputNormSq));
        // A product norm far beyond factor·‖A‖·max(‖v‖,1) must trip it.
        <SkepticalPolicy as ResiliencePolicy<Space<'_, '_>>>::consume_check_dots(
            &mut p,
            &ctx(),
            n,
            &[
                (CheckDot::ProductNormSq, 1.0e40),
                (CheckDot::InputNormSq, 1.0),
            ],
        );
        let out = <SkepticalPolicy as ResiliencePolicy<Space<'_, '_>>>::after_spmv(
            &mut p,
            &mut space,
            &ctx(),
            &v,
            &v,
        )
        .unwrap();
        assert_eq!(out, PolicyAction::Detected);
        // The fused pairs' cost was mirrored into the overhead (2n each).
        assert_eq!(p.overhead.check_flops, 4 * n);

        // Once consumed, a second hook invocation has nothing to check.
        let out = <SkepticalPolicy as ResiliencePolicy<Space<'_, '_>>>::after_spmv(
            &mut p,
            &mut space,
            &ctx(),
            &v,
            &v,
        )
        .unwrap();
        assert_eq!(out, PolicyAction::Continue);
    }

    /// `fuse_checks: false` keeps the policy on the direct path even when a
    /// fusing strategy negotiates (the comparison-experiment escape hatch).
    #[test]
    fn unfused_config_declines_negotiation() {
        let mut p = SkepticalPolicy::new(SkepticalConfig {
            fuse_checks: false,
            ..SkepticalConfig::default()
        });
        let reqs = <SkepticalPolicy as ResiliencePolicy<Space<'_, '_>>>::check_dots(&mut p, &ctx());
        assert!(reqs.is_empty());
        assert!(!p.fused.active);
    }
}
