//! Restarted GMRES.
//!
//! The solver entry point is a preset of the unified kernel
//! ([`crate::kernel`]): 1-rank space, modified-Gram–Schmidt dot strategy,
//! empty policy stack.

use resilient_linalg::CsrMatrix;
use resilient_runtime::Result;

use crate::distributed::DistVector;
use crate::kernel::{
    run_gmres, DistSpace, GmresFlavor, KernelOutcome, KernelReport, MgsOrtho, PolicyStack,
};

use super::common::{solve_on_one_rank, SolveOptions, SolveOutcome};

/// Restarted GMRES(m): solve `A·x = b` with restart length `opts.restart`.
///
/// Preset: unified kernel × [`MgsOrtho`] × empty policy stack over a
/// 1-rank [`DistSpace`].
pub fn gmres(a: &CsrMatrix, b: &[f64], x0: Option<&[f64]>, opts: &SolveOptions) -> SolveOutcome {
    solve_on_one_rank(a, b, x0, None, |space, b, x0| gmres_on(space, b, x0, opts)).0
}

/// The body of [`gmres`] on a caller-built space — what FT-GMRES runs as
/// its inner (unreliable-tier) solve.
pub(crate) fn gmres_on(
    space: &mut DistSpace<'_, '_>,
    b: &DistVector,
    x0: Option<DistVector>,
    opts: &SolveOptions,
) -> Result<(KernelOutcome<DistVector>, KernelReport)> {
    let policies = &mut PolicyStack::empty();
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::common::{true_relative_residual, StopReason};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use resilient_linalg::{diag_dominant_random, poisson1d, poisson2d, random_vector};

    #[test]
    fn solves_spd_poisson() {
        let a = poisson2d(10, 10);
        let b = vec![1.0; a.nrows()];
        let out = gmres(
            &a,
            &b,
            None,
            &SolveOptions::default().with_tol(1e-10).with_max_iters(500),
        );
        assert!(out.converged(), "{:?}", out.reason);
        assert!(true_relative_residual(&a, &b, &out.x) < 1e-9);
    }

    #[test]
    fn solves_nonsymmetric_system() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let a = diag_dominant_random(60, 5, &mut rng);
        let x_true = random_vector(60, &mut rng);
        let b = a.spmv(&x_true);
        let out = gmres(
            &a,
            &b,
            None,
            &SolveOptions::default().with_tol(1e-10).with_max_iters(300),
        );
        assert!(out.converged());
        let err: f64 = out
            .x
            .iter()
            .zip(&x_true)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        assert!(err < 1e-7, "error {err}");
    }

    #[test]
    fn restart_still_converges() {
        let a = poisson2d(8, 8);
        let b = vec![1.0; a.nrows()];
        let short = SolveOptions::default()
            .with_tol(1e-8)
            .with_restart(5)
            .with_max_iters(2000);
        let long = SolveOptions::default()
            .with_tol(1e-8)
            .with_restart(100)
            .with_max_iters(2000);
        let out_short = gmres(&a, &b, None, &short);
        let out_long = gmres(&a, &b, None, &long);
        assert!(out_short.converged());
        assert!(out_long.converged());
        assert!(
            out_short.iterations >= out_long.iterations,
            "restarting cannot accelerate convergence"
        );
    }

    #[test]
    fn exact_initial_guess_converges_immediately() {
        let a = poisson1d(12);
        let x_true = vec![3.0; 12];
        let b = a.spmv(&x_true);
        let out = gmres(&a, &b, Some(&x_true), &SolveOptions::default());
        assert_eq!(out.iterations, 0);
        assert!(out.converged());
    }

    #[test]
    fn identity_system_one_step() {
        use resilient_linalg::CsrMatrix;
        let a = CsrMatrix::identity(20);
        let b: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let out = gmres(&a, &b, None, &SolveOptions::default().with_tol(1e-12));
        assert!(out.converged());
        assert!(out.iterations <= 1);
        assert!(true_relative_residual(&a, &b, &out.x) < 1e-12);
    }

    #[test]
    fn iteration_cap() {
        let a = poisson2d(12, 12);
        let b = vec![1.0; a.nrows()];
        let out = gmres(
            &a,
            &b,
            None,
            &SolveOptions::default().with_tol(1e-14).with_max_iters(5),
        );
        assert_eq!(out.reason, StopReason::MaxIterations);
        assert_eq!(out.iterations, 5);
    }

    #[test]
    fn arnoldi_residual_matches_true_residual() {
        let a = poisson2d(5, 5);
        let n = a.nrows();
        let b = vec![1.0; n];
        let out = gmres(
            &a,
            &b,
            None,
            &SolveOptions::default().with_tol(1e-9).with_restart(100),
        );
        // The recurrence-estimated final residual should match the true one.
        let true_res = true_relative_residual(&a, &b, &out.x);
        assert!((true_res - out.relative_residual).abs() < 1e-7);
    }
}
