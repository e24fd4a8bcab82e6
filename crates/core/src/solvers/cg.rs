//! The conjugate gradient method for SPD systems.
//!
//! The solver entry point is a preset of the unified kernel
//! ([`crate::kernel`]): 1-rank space, the fused CG spec (the one-column
//! case of the CG kernel), no preconditioner, empty policy stack.

use resilient_linalg::CsrMatrix;

use crate::kernel::{solve, PolicyStack, SolveOptions, SolveSpec};

use super::common::{solve_on_one_rank, SolveOutcome};

/// Solve `A·x = b` with CG starting from `x0` (zero vector if `None`).
///
/// Preset: [`SolveSpec::FUSED_CG`] × empty policy stack over a 1-rank
/// [`DistSpace`](crate::kernel::DistSpace). A breakdown (`p·Ap ≤ 0`, NaN
/// included) stops with [`StopReason::Breakdown`](crate::kernel::StopReason::Breakdown).
pub fn cg(a: &CsrMatrix, b: &[f64], x0: Option<&[f64]>, opts: &SolveOptions) -> SolveOutcome {
    let (out, _report) = solve_on_one_rank(a, b, x0, None, |space, b, x0| {
        let policies = &mut PolicyStack::empty();
        solve(space, b, x0, opts, SolveSpec::FUSED_CG, None, policies)
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::StopReason;
    use crate::solvers::common::true_relative_residual;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use resilient_linalg::{poisson1d, poisson2d, random_vector, spd_random};

    #[test]
    fn solves_poisson1d_exactly_in_n_iterations() {
        let a = poisson1d(10);
        let x_true = vec![1.0; 10];
        let b = a.spmv(&x_true);
        let out = cg(&a, &b, None, &SolveOptions::default().with_tol(1e-12));
        assert!(out.converged());
        assert!(
            out.iterations <= 10,
            "CG must converge within n steps, took {}",
            out.iterations
        );
        assert!(true_relative_residual(&a, &b, &out.x) < 1e-10);
    }

    #[test]
    fn solves_poisson2d() {
        let a = poisson2d(12, 12);
        let n = a.nrows();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let x_true = random_vector(n, &mut rng);
        let b = a.spmv(&x_true);
        let out = cg(
            &a,
            &b,
            None,
            &SolveOptions::default().with_tol(1e-10).with_max_iters(500),
        );
        assert!(out.converged(), "reason {:?}", out.reason);
        let err: f64 = out
            .x
            .iter()
            .zip(&x_true)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(err < 1e-6, "solution error {err}");
        assert!(out.flops > 0);
    }

    #[test]
    fn respects_initial_guess() {
        let a = poisson1d(8);
        let x_true = vec![2.0; 8];
        let b = a.spmv(&x_true);
        let out = cg(&a, &b, Some(&x_true), &SolveOptions::default());
        assert_eq!(
            out.iterations, 0,
            "exact initial guess converges immediately"
        );
        assert!(out.converged());
    }

    #[test]
    fn random_spd_system() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let a = spd_random(20, &mut rng);
        let b = random_vector(20, &mut rng);
        let out = cg(
            &a,
            &b,
            None,
            &SolveOptions::default().with_tol(1e-10).with_max_iters(200),
        );
        assert!(out.converged());
        assert!(true_relative_residual(&a, &b, &out.x) < 1e-8);
    }

    #[test]
    fn iteration_cap_is_respected() {
        let a = poisson2d(16, 16);
        let b = vec![1.0; a.nrows()];
        let out = cg(
            &a,
            &b,
            None,
            &SolveOptions::default().with_tol(1e-14).with_max_iters(3),
        );
        assert_eq!(out.reason, StopReason::MaxIterations);
        assert_eq!(out.iterations, 3);
        assert_eq!(out.history.len(), 4);
    }

    #[test]
    fn residual_history_is_monotone_enough() {
        let a = poisson2d(8, 8);
        let b = vec![1.0; a.nrows()];
        let out = cg(
            &a,
            &b,
            None,
            &SolveOptions::default().with_tol(1e-10).with_max_iters(300),
        );
        // CG residuals are not strictly monotone, but the last is far below the first.
        assert!(out.history.last().unwrap() < &(out.history[0] * 1e-8));
    }
}
