//! What one GMRES cycle costs under the one control flow.
//!
//! Every restart cycle opens with one true residual (one operator
//! application), and the solve pays one more only when the recurrence
//! claims convergence. The orthogonalization strategies charge the same
//! arithmetic for the same Arnoldi step: each dot and norm `2n` where it is
//! reduced, each of the `k` projection updates `2n`.

use resilience::kernel::{
    run_gmres, CgsOrtho, FlexibleRight, GmresFlavor, KernelOutcome, MgsOrtho, OrthoStrategy,
};
use resilience::prelude::*;
use resilient_linalg::{poisson2d, CsrMatrix};
use resilient_runtime::{Comm, Result, RuntimeConfig};

/// Run `strategy` on one rank; returns (outcome, operator applications,
/// charged FLOPs).
fn one_rank_gmres<T>(
    a: &CsrMatrix,
    opts: &SolveOptions,
    strategy: &mut T,
) -> (KernelOutcome<DistVector>, usize, u64)
where
    T: for<'x, 'y> OrthoStrategy<DistSpace<'x, 'y>>,
{
    let mut comm = Comm::solo(&RuntimeConfig::fast());
    let da = DistCsr::from_global(&mut comm, a).unwrap();
    let b = DistVector::from_fn(&comm, a.nrows(), |_| 1.0);
    let before = comm.snapshot_stats().flops;
    let mut space = DistSpace::new(&mut comm, &da);
    let mut policies = PolicyStack::empty();
    let (out, _) = run_gmres(
        &mut space,
        &b,
        None,
        opts,
        strategy,
        &mut policies,
        None,
        &GmresFlavor,
    )
    .unwrap();
    let applications = space.applications();
    drop(space);
    (out, applications, comm.snapshot_stats().flops - before)
}

#[test]
fn a_cycle_checks_its_end_residual_only_on_a_convergence_claim() {
    let a = poisson2d(12, 12);
    let restart = 10;
    let opts = SolveOptions::default()
        .with_tol(1e-8)
        .with_max_iters(500)
        .with_restart(restart);
    let (out, applications, _) = one_rank_gmres(&a, &opts, &mut MgsOrtho::new());
    assert_eq!(out.reason, StopReason::Converged);
    assert!(
        out.iterations > 2 * restart,
        "the solve spans several cycles"
    );
    let cycles = out.iterations.div_ceil(restart);
    // One residual per cycle start, one per iteration, one verifying the
    // final claim. A check at every cycle end would cost
    // `iterations + 2·cycles`.
    assert_eq!(applications, out.iterations + cycles + 1);
}

#[test]
fn mgs_and_cgs_charge_the_same_arithmetic() {
    let a = poisson2d(8, 8);
    // An unreachable tolerance: both strategies run exactly `max_iters`.
    let opts = SolveOptions::default()
        .with_tol(1e-300)
        .with_max_iters(12)
        .with_restart(5);
    let (mgs, _, mgs_flops) = one_rank_gmres(&a, &opts, &mut MgsOrtho::new());
    let (cgs, _, cgs_flops) = one_rank_gmres(&a, &opts, &mut CgsOrtho::new());
    assert_eq!(mgs.reason, StopReason::MaxIterations);
    assert_eq!((mgs.iterations, cgs.iterations), (12, 12));
    assert_eq!(mgs_flops, cgs_flops);
}

/// `z = v`: flexible GMRES under the identity.
struct Identity;

impl<'a, 'b> FlexibleRight<DistSpace<'a, 'b>> for Identity {
    fn apply(&mut self, _space: &mut DistSpace<'a, 'b>, v: &DistVector) -> Result<DistVector> {
        Ok(v.clone())
    }
}

#[test]
fn fgmres_under_the_identity_charges_what_gmres_does() {
    let a = poisson2d(8, 8);
    let b = vec![1.0; a.nrows()];
    let opts = SolveOptions::default()
        .with_tol(1e-300)
        .with_max_iters(12)
        .with_restart(5);
    let plain = gmres(&a, &b, None, &opts);
    let (flexible, report) = fgmres(&a, &mut Identity, &b, None, &opts);
    assert_eq!(report.inner_applications, 12);
    assert_eq!(
        (flexible.iterations, flexible.reason),
        (plain.iterations, plain.reason)
    );
    assert_eq!(flexible.flops, plain.flops);
}

/// A non-finite `x0` makes the first residual non-finite (every column of
/// the operator stores an entry), so both serial presets stop at the first
/// cycle start.
#[test]
fn a_nan_initial_guess_diverges_before_any_iteration() {
    let a = poisson2d(6, 6);
    let b = vec![1.0; a.nrows()];
    let mut x0 = vec![0.0; a.nrows()];
    x0[a.nrows() / 2] = f64::NAN;
    let opts = SolveOptions::default().with_tol(1e-9).with_max_iters(100);
    let plain = gmres(&a, &b, Some(&x0), &opts);
    assert_eq!((plain.reason, plain.iterations), (StopReason::Diverged, 0));
    let (skeptical, report) =
        skeptical_gmres(&a, &b, Some(&x0), &opts, &SkepticalConfig::default(), None);
    assert_eq!(
        (skeptical.reason, skeptical.iterations),
        (StopReason::Diverged, 0)
    );
    assert_eq!(report.detections, 0);
}
