//! Flexible GMRES (FGMRES): the reliable *outer* iteration of the paper's
//! §III-D "reliable outer iterations" pattern.
//!
//! FGMRES allows the preconditioner to change from iteration to iteration —
//! which is exactly what is needed when the "preconditioner" is an entire
//! inner solve executed in unreliable (cheap) mode: whatever the inner solve
//! returns, correct or corrupted, is treated as just another subspace vector
//! by the outer iteration, which is what makes the combination robust. The
//! preconditioner is any [`FlexibleRight`] over the 1-rank space the preset
//! runs in.

use resilient_linalg::CsrMatrix;

use crate::kernel::{
    run_gmres, DistSpace, FlexibleRight, GmresFlavor, KernelReport, MgsOrtho, PolicyStack,
};

use super::common::{solve_on_one_rank, SolveOptions, SolveOutcome};

/// Statistics of one FGMRES run beyond the generic outcome.
#[derive(Debug, Clone, Default)]
pub struct FgmresReport {
    /// Number of inner (preconditioner) applications.
    pub inner_applications: usize,
    /// Number of inner applications whose result was rejected by the outer
    /// skeptical check (non-finite values) and replaced by the unpreconditioned
    /// residual direction.
    pub rejected_inner_results: usize,
}

impl From<&KernelReport> for FgmresReport {
    fn from(report: &KernelReport) -> Self {
        Self {
            inner_applications: report.inner_applications,
            rejected_inner_results: report.rejected_inner_results,
        }
    }
}

/// Flexible GMRES with restart, applying `m` as a (possibly varying,
/// possibly unreliable) right preconditioner.
///
/// Preset: unified kernel × [`MgsOrtho`] × empty policy stack over
/// a 1-rank [`DistSpace`]. The outer iteration skeptically validates every
/// inner result and falls back to the unpreconditioned direction on
/// garbage, so convergence degrades gracefully instead of being destroyed.
pub fn fgmres<M>(
    a: &CsrMatrix,
    m: &mut M,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolveOptions,
) -> (SolveOutcome, FgmresReport)
where
    M: for<'x, 'y> FlexibleRight<DistSpace<'x, 'y>>,
{
    let (out, report) = solve_on_one_rank(a, b, x0, None, |space, b, x0| {
        let m = Some(m as &mut dyn FlexibleRight<_>);
        let policies = &mut PolicyStack::empty();
        run_gmres(
            space,
            b,
            x0,
            opts,
            &mut MgsOrtho::new(),
            policies,
            m,
            &GmresFlavor,
        )
    });
    (out, FgmresReport::from(&report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::DistVector;
    use crate::solvers::cg::cg;
    use crate::solvers::common::true_relative_residual;
    use resilient_linalg::poisson2d;
    use resilient_runtime::Result;

    /// The identity: FGMRES reduces to GMRES.
    struct Identity;
    impl<'a, 'b> FlexibleRight<DistSpace<'a, 'b>> for Identity {
        fn apply(&mut self, _space: &mut DistSpace<'a, 'b>, v: &DistVector) -> Result<DistVector> {
            Ok(v.clone())
        }
    }

    #[test]
    fn identity_preconditioner_reduces_to_gmres() {
        let a = poisson2d(8, 8);
        let b = vec![1.0; a.nrows()];
        let (out, report) = fgmres(
            &a,
            &mut Identity,
            &b,
            None,
            &SolveOptions::default().with_tol(1e-9).with_max_iters(400),
        );
        assert!(out.converged());
        assert!(report.inner_applications >= out.iterations);
        assert_eq!(report.rejected_inner_results, 0);
        assert!(true_relative_residual(&a, &b, &out.x) < 1e-8);
    }

    /// An inner preconditioner that runs a few CG iterations — a realistic
    /// inner-outer configuration.
    struct InnerCg {
        a: CsrMatrix,
        iters: usize,
    }
    impl<'a, 'b> FlexibleRight<DistSpace<'a, 'b>> for InnerCg {
        fn apply(&mut self, _space: &mut DistSpace<'a, 'b>, v: &DistVector) -> Result<DistVector> {
            let opts = SolveOptions::default()
                .with_tol(1e-2)
                .with_max_iters(self.iters);
            let mut z = v.clone();
            z.local = cg(&self.a, &v.local, None, &opts).x;
            Ok(z)
        }
    }

    #[test]
    fn inner_solver_accelerates_outer() {
        let a = poisson2d(10, 10);
        let b = vec![1.0; a.nrows()];
        let opts = SolveOptions::default()
            .with_tol(1e-9)
            .with_max_iters(300)
            .with_restart(30);
        let (plain, _) = fgmres(&a, &mut Identity, &b, None, &opts);
        let mut inner = InnerCg {
            a: a.clone(),
            iters: 8,
        };
        let (accel, report) = fgmres(&a, &mut inner, &b, None, &opts);
        assert!(plain.converged() && accel.converged());
        assert!(
            accel.iterations < plain.iterations,
            "inner CG must reduce outer iterations: {} vs {}",
            accel.iterations,
            plain.iterations
        );
        assert_eq!(report.rejected_inner_results, 0);
    }

    /// An inner "solver" that sometimes returns garbage (NaNs) — the outer
    /// iteration must survive it.
    struct FlakyInner {
        calls: usize,
    }
    impl<'a, 'b> FlexibleRight<DistSpace<'a, 'b>> for FlakyInner {
        fn apply(&mut self, _space: &mut DistSpace<'a, 'b>, v: &DistVector) -> Result<DistVector> {
            self.calls += 1;
            let mut z = v.clone();
            if self.calls % 3 == 0 {
                z.local.fill(f64::NAN);
            }
            Ok(z)
        }
    }

    #[test]
    fn garbage_inner_results_are_rejected_not_fatal() {
        let a = poisson2d(7, 7);
        let b = vec![1.0; a.nrows()];
        let (out, report) = fgmres(
            &a,
            &mut FlakyInner { calls: 0 },
            &b,
            None,
            &SolveOptions::default().with_tol(1e-8).with_max_iters(400),
        );
        assert!(
            out.converged(),
            "outer iteration must absorb garbage inner results"
        );
        assert!(report.rejected_inner_results > 0);
        assert!(true_relative_residual(&a, &b, &out.x) < 1e-7);
    }

    #[test]
    fn exact_guess_short_circuits() {
        let a = poisson2d(5, 5);
        let x_true = vec![1.5; a.nrows()];
        let b = a.spmv(&x_true);
        let (out, _) = fgmres(
            &a,
            &mut Identity,
            &b,
            Some(&x_true),
            &SolveOptions::default(),
        );
        assert_eq!(out.iterations, 0);
        assert!(out.converged());
    }
}
