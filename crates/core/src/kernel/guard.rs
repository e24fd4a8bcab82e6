//! Cheap consistency guard over preconditioner applies.
//!
//! Until the fault-campaign work, `BlockJacobi::apply_into` was the one
//! data path no [`ResiliencePolicy`] ever observed: a bit flip in the
//! preconditioned vector `z = M⁻¹·r` entered the recurrence unchecked, and
//! for CG the only downstream signals are the *preconditioned* dots the
//! corrupted vector itself feeds — the classic silent-wrong-answer threat.
//! [`PrecondGuardPolicy`] closes that hole through the
//! [`after_precond`](ResiliencePolicy::after_precond) hook: one fused
//! global reduction of `(‖z‖², ‖r‖²)` per guarded apply, detecting
//! non-finite output and amplification of `‖z‖²/‖r‖²` beyond a fixed
//! bound of `1e12` (for a fixed preconditioner `‖M⁻¹‖` bounds that ratio;
//! an exponent-bit upset blows past any reasonable bound).
//!
//! The decision is derived from globally reduced scalars, so every rank
//! takes the same branch — the guard is rank-symmetric by construction and
//! composes with shrink recovery and replacement ranks.

use super::policy::{IterCtx, PolicyAction, PolicyOverhead, ResiliencePolicy};
use super::space::KrylovSpace;
use resilient_runtime::Result;

/// Guards every in-iteration preconditioner apply with a fused
/// finiteness/amplification check; see the module docs.
#[derive(Debug, Clone)]
pub(crate) struct PrecondGuardPolicy {
    overhead: PolicyOverhead,
}

impl Default for PrecondGuardPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl PrecondGuardPolicy {
    /// Squared-amplification bound of the guard: generous enough
    /// that no legitimate block-Jacobi apply in the suite approaches it
    /// (the factored blocks are diagonally dominant), tight enough that an
    /// exponent-bit flip overshoots it by hundreds of orders of magnitude.
    const DEFAULT_RATIO_BOUND: f64 = 1e12;

    /// A guard; a detection restarts the cycle.
    pub(crate) fn new() -> Self {
        Self {
            overhead: PolicyOverhead {
                name: "precond-guard",
                ..PolicyOverhead::default()
            },
        }
    }
}

impl<S: KrylovSpace> ResiliencePolicy<S> for PrecondGuardPolicy {
    fn name(&self) -> &'static str {
        "precond-guard"
    }

    fn after_precond(
        &mut self,
        space: &mut S,
        _ctx: &IterCtx,
        r: &S::Vector,
        z: &S::Vector,
    ) -> Result<PolicyAction> {
        self.overhead.checks_run += 1;
        self.overhead.check_flops += 4 * space.local_len(r);
        // One blocking collective for both squared norms; the hook contract
        // guarantees no strategy reduction is in flight here, and every
        // rank receives the same reduced values (symmetric decision).
        let vals = space.fused_pairs(&[(z, z), (r, r)], 2)?;
        let (zz, rr) = (vals[0], vals[1]);
        // Non-finite squared norms catch NaN/Inf anywhere in z or r; the
        // amplification test catches large-but-finite corruption, including
        // nonzero output from zero input (0 · bound = 0 < zz).
        let corrupt = !zz.is_finite() || !rr.is_finite() || zz > Self::DEFAULT_RATIO_BOUND * rr;
        if corrupt {
            self.overhead.detections += 1;
            return Ok(PolicyAction::Detected);
        }
        Ok(PolicyAction::Continue)
    }

    fn overhead(&self) -> PolicyOverhead {
        self.overhead.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::{DistCsr, DistVector};
    use crate::kernel::DistSpace;
    use resilient_linalg::poisson2d;
    use resilient_runtime::{Comm, RuntimeConfig};

    fn ctx() -> IterCtx {
        IterCtx {
            iteration: 1,
            cycle_step: 1,
            cycle: 0,
            relres: 1.0,
            tol: 1e-8,
        }
    }

    #[test]
    fn guard_passes_healthy_applies_and_flags_corruption() {
        let mut comm = Comm::solo(&RuntimeConfig::fast());
        let a = DistCsr::from_global(&mut comm, &poisson2d(4, 4)).unwrap();
        let r = DistVector::from_fn(&comm, 16, |i| 1.0 + (i as f64 * 0.7).cos());
        // A NaN output, an amplification past the bound (an exponent-bit
        // flip lands ~1e150 above any input of order one), and nonzero
        // output from zero input.
        let mut z_nan = r.clone();
        z_nan.local[3] = f64::NAN;
        let mut z_big = r.clone();
        z_big.local[0] = 1e200;
        let zero = DistVector::zeros(&comm, 16);
        let tiny = DistVector::from_fn(&comm, 16, |i| if i == 5 { 1e-30 } else { 0.0 });
        let mut space = DistSpace::new(&mut comm, &a);
        let mut guard = PrecondGuardPolicy::new();

        // A healthy apply (identity-sized output) passes.
        let act = guard.after_precond(&mut space, &ctx(), &r, &r).unwrap();
        assert_eq!(act, PolicyAction::Continue);
        for (input, output) in [(&r, &z_nan), (&r, &z_big), (&zero, &tiny)] {
            let act = guard
                .after_precond(&mut space, &ctx(), input, output)
                .unwrap();
            assert_eq!(act, PolicyAction::Detected);
        }

        assert_eq!(guard.overhead.detections, 3);
        let oh = ResiliencePolicy::<DistSpace<'_, '_>>::overhead(&guard);
        assert_eq!(oh.checks_run, 4);
        assert_eq!(oh.name, "precond-guard");
    }
}
