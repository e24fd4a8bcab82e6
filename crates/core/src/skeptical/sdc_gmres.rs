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
//! 4. **Residual-consistency** check every `residual_check_interval`
//!    iterations: the recurrence residual estimate is compared against the
//!    explicitly computed true residual; corruption that slipped past the
//!    local checks shows up as a mismatch.
//!
//! On detection the solver either restarts the Arnoldi cycle from the
//! current (still valid) iterate — cheap local recovery — or aborts,
//! according to the configured
//! [`DetectionResponse`](crate::kernel::DetectionResponse).

use resilient_linalg::CsrMatrix;

use crate::kernel::{
    run_gmres, GmresFlavor, MgsOrtho, PolicyOverhead, PolicyStack, SkepticalConfig,
    SkepticalPolicy, SolveOptions, SpmvFault,
};
use crate::solvers::{solve_on_one_rank, SolveOutcome};

/// GMRES with skeptical checks. Returns the solver outcome (whose
/// `injections` count the flips `fault` landed) plus the policy's checks,
/// detections, restarts and check FLOPs.
///
/// Preset: unified kernel × [`MgsOrtho`] × a single [`SkepticalPolicy`]
/// over a 1-rank [`DistSpace`](crate::kernel::DistSpace), its products
/// struck by `fault` when one is planned (see
/// [`random_spmv_fault`](super::random_spmv_fault)). The same policy
/// composes with any other dot strategy — see
/// [`crate::kernel::pipelined_skeptical`] for the
/// pipelined/distributed combination.
pub fn skeptical_gmres(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolveOptions,
    skeptic: &SkepticalConfig,
    fault: Option<SpmvFault>,
) -> (SolveOutcome, PolicyOverhead) {
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
    use crate::kernel::{DetectionResponse, StopReason};
    use crate::solvers::true_relative_residual;
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
        // More checks than the residual-consistency checks alone can make.
        let interval = SkepticalConfig::default().residual_check_interval;
        assert!(report.checks_run > out.iterations / interval + 1);
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
        // The strike is detected by the residual check at iteration 10,
        // where a clean run has just converged; under `Restart` the same
        // strike costs a second cycle.
        let a = poisson2d(8, 8);
        let n = a.nrows();
        let b = vec![1.0; n];
        let fault = Some(flip(3, 0, 63));
        let cfg = SkepticalConfig {
            response: DetectionResponse::Abort,
            ..SkepticalConfig::default()
        };
        let (out, report) = skeptical_gmres(&a, &b, None, &opts(), &cfg, fault);
        let (recovered, _) =
            skeptical_gmres(&a, &b, None, &opts(), &SkepticalConfig::default(), fault);
        assert_eq!(
            out.injections, 1,
            "the fault must actually have been injected"
        );
        assert!(report.detections >= 1, "the strike must be detected");
        assert_eq!(out.reason, StopReason::CorruptionDetected);
        assert!(!out.converged(), "an aborted solve claims no convergence");
        assert!(recovered.converged());
        assert!(
            out.iterations < recovered.iterations,
            "aborted at {} iterations, the restarting solve needed {}",
            out.iterations,
            recovered.iterations
        );
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
