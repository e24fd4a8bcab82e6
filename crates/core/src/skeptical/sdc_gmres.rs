//! Skeptical GMRES: GMRES with cheap invariant checks that detect (and
//! optionally recover from) silent data corruption — the algorithm family of
//! §III-A, in the style of Elliott & Hoemmen's bit-flip-resilient GMRES.
//!
//! The checks used, all O(n) or cheaper per iteration:
//!
//! 1. **Finiteness** of every new Krylov vector (catches NaN/Inf-producing
//!    exponent flips immediately).
//! 2. **Norm bound**: for a unit Arnoldi vector `v`, `‖A·v‖ ≤ ‖A‖∞·√n`
//!    (with a safety factor); a high-exponent-bit flip violates this by many
//!    orders of magnitude.
//! 3. **Orthogonality** of the newest basis vector against the previous one
//!    (Gram–Schmidt should make them orthogonal to machine precision).
//! 4. **Residual-consistency** check every `check_interval` iterations: the
//!    recurrence residual estimate is compared against the explicitly
//!    computed true residual; corruption that slipped past the local checks
//!    shows up as a mismatch.
//!
//! On detection the solver either restarts the Arnoldi cycle from the
//! current (still valid) iterate — cheap local recovery — or aborts,
//! according to [`SkepticalResponse`].

use resilient_linalg::CsrMatrix;

use crate::kernel::{run_gmres, GmresFlavor, MgsOrtho, PolicyStack, SkepticalPolicy, SpmvFault};
use crate::solvers::common::{solve_on_one_rank, SolveOptions, SolveOutcome};

/// What to do when a skeptical check fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkepticalResponse {
    /// Record the detection and keep iterating (useful to measure pure
    /// detection coverage).
    RecordOnly,
    /// Discard the current Arnoldi cycle and restart from the current
    /// iterate (local rollback — the recommended response).
    Restart,
    /// Stop the solve with
    /// [`StopReason::CorruptionDetected`](crate::solvers::StopReason::CorruptionDetected).
    Abort,
}

/// Configuration of the skeptical checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkepticalConfig {
    /// Enable the per-iteration finiteness / norm-bound / orthogonality
    /// checks.
    pub local_checks: bool,
    /// Recompute the true residual every this many iterations and compare
    /// with the recurrence estimate (0 disables the check).
    pub residual_check_interval: usize,
    /// Allowed overshoot of the true residual relative to the recurrence
    /// estimate: a detection fires when
    /// `true > estimate * (1 + residual_mismatch_tol) + 10·tol`.
    pub residual_mismatch_tol: f64,
    /// Safety factor on the norm bound ‖A·v‖ ≤ factor·‖A‖∞·‖v‖.
    pub norm_bound_factor: f64,
    /// Orthogonality tolerance for the newest basis pair.
    pub orthogonality_tol: f64,
    /// Response on detection.
    pub response: SkepticalResponse,
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
            residual_mismatch_tol: 10.0,
            norm_bound_factor: 4.0,
            orthogonality_tol: 1e-8,
            response: SkepticalResponse::Restart,
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

/// What the skeptical machinery observed during a solve.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SkepticalReport {
    /// Number of per-iteration local checks executed.
    pub local_checks_run: usize,
    /// Number of residual-consistency checks executed.
    pub residual_checks_run: usize,
    /// Number of detections (any check).
    pub detections: usize,
    /// Number of Arnoldi-cycle restarts triggered by detections.
    pub corrective_restarts: usize,
    /// Extra floating-point work spent on checks (FLOPs).
    pub check_flops: usize,
}

/// GMRES with skeptical checks. Returns the solver outcome (whose
/// `injections` count the flips `fault` landed) plus the skeptical report.
///
/// Preset: unified kernel × [`MgsOrtho`] × a single [`SkepticalPolicy`]
/// over a 1-rank [`DistSpace`](crate::kernel::DistSpace), its products
/// struck by `fault` when one is planned (see
/// [`random_spmv_fault`](super::random_spmv_fault)). The same policy
/// composes with any other dot strategy — see
/// [`crate::kernel::compose::pipelined_skeptical_gmres`] for the
/// pipelined/distributed combination.
pub fn skeptical_gmres(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolveOptions,
    skeptic: &SkepticalConfig,
    fault: Option<SpmvFault>,
) -> (SolveOutcome, SkepticalReport) {
    let mut policy = SkepticalPolicy::new(*skeptic);
    let (out, _report) = solve_on_one_rank(a, b, x0, fault, |space, b, x0| {
        let policies = &mut PolicyStack::new(vec![&mut policy]);
        run_gmres(
            space,
            b,
            x0,
            opts,
            &mut MgsOrtho::new(),
            policies,
            None,
            &GmresFlavor,
        )
    });
    (out, policy.report())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::common::{true_relative_residual, StopReason};
    use resilient_linalg::poisson2d;

    /// A flip of `bit` in element `element` of product `at` on the one rank.
    fn flip(at: usize, element: usize, bit: u32) -> SpmvFault {
        SpmvFault {
            rank: 0,
            at_application: at,
            local_element: element,
            bit,
        }
    }

    fn opts() -> SolveOptions {
        SolveOptions::default()
            .with_tol(1e-9)
            .with_max_iters(600)
            .with_restart(30)
    }

    #[test]
    fn clean_run_matches_plain_gmres_and_costs_little_extra() {
        let a = poisson2d(10, 10);
        let b = vec![1.0; a.nrows()];
        let (out, report) =
            skeptical_gmres(&a, &b, None, &opts(), &SkepticalConfig::default(), None);
        assert!(out.converged());
        assert_eq!(report.detections, 0, "no false positives on a clean run");
        assert!(report.local_checks_run > 0);
        // Check overhead is a small fraction of the solver's arithmetic.
        assert!(
            (report.check_flops as f64) < 0.35 * out.flops as f64,
            "check flops {} vs solver flops {}",
            report.check_flops,
            out.flops
        );
    }

    #[test]
    fn severe_bit_flip_is_detected_and_survived() {
        let a = poisson2d(10, 10);
        let n = a.nrows();
        let b = vec![1.0; n];
        // Flip a high exponent bit in the SpMV output of the 7th application.
        let fault = flip(7, n / 2, 62);
        let (out, report) = skeptical_gmres(
            &a,
            &b,
            None,
            &opts(),
            &SkepticalConfig::default(),
            Some(fault),
        );
        assert_eq!(
            out.injections, 1,
            "the fault must actually have been injected"
        );
        assert!(report.detections >= 1, "the severe flip must be detected");
        assert!(
            out.converged(),
            "the solver must still converge after recovery"
        );
        assert!(
            true_relative_residual(&a, &b, &out.x) < 1e-8,
            "the returned solution must be correct w.r.t. the clean operator"
        );
    }

    #[test]
    fn trusting_solver_is_hurt_by_the_same_flip() {
        let a = poisson2d(10, 10);
        let n = a.nrows();
        let b = vec![1.0; n];
        let fault = Some(flip(7, n / 2, 62));
        let (skeptical_out, _) =
            skeptical_gmres(&a, &b, None, &opts(), &SkepticalConfig::default(), fault);
        let (trusting_out, trusting_report) =
            skeptical_gmres(&a, &b, None, &opts(), &SkepticalConfig::trusting(), fault);
        assert_eq!(trusting_report.detections, 0);
        // The trusting run either needs (strictly) more iterations or ends
        // further from the truth; the skeptical run converges cleanly.
        let skeptical_err = true_relative_residual(&a, &b, &skeptical_out.x);
        let trusting_err = true_relative_residual(&a, &b, &trusting_out.x);
        assert!(skeptical_out.converged());
        assert!(
            trusting_out.iterations > skeptical_out.iterations
                || !trusting_err.is_finite()
                || trusting_err > skeptical_err,
            "trusting: iters={} err={trusting_err}, skeptical: iters={} err={skeptical_err}",
            trusting_out.iterations,
            skeptical_out.iterations,
        );
    }

    #[test]
    fn abort_response_stops_early() {
        let a = poisson2d(8, 8);
        let n = a.nrows();
        let b = vec![1.0; n];
        let cfg = SkepticalConfig {
            response: SkepticalResponse::Abort,
            ..SkepticalConfig::default()
        };
        let (out, report) = skeptical_gmres(&a, &b, None, &opts(), &cfg, Some(flip(3, 0, 63)));
        if report.detections > 0 {
            assert_eq!(out.reason, StopReason::CorruptionDetected);
        }
    }

    #[test]
    fn low_mantissa_flip_is_harmless_even_if_undetected() {
        let a = poisson2d(8, 8);
        let n = a.nrows();
        let b = vec![1.0; n];
        let fault = Some(flip(5, 1, 0));
        let (out, _report) =
            skeptical_gmres(&a, &b, None, &opts(), &SkepticalConfig::default(), fault);
        assert!(
            out.converged(),
            "a last-mantissa-bit flip must not prevent convergence"
        );
        assert!(true_relative_residual(&a, &b, &out.x) < 1e-8);
    }
}
