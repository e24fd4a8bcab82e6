//! The serial presets' outcome type and the 1-rank execution space every
//! serial preset runs in.

use resilient_linalg::CsrMatrix;
use resilient_runtime::{Comm, Result, RuntimeConfig};

use crate::distributed::{DistCsr, DistVector};
use crate::kernel::{DistSpace, KernelOutcome, KernelReport, SpmvFault, StopReason};

/// Why a 1-rank solve cannot fail: it has no peer to lose and no
/// collective partner to wait for.
pub(crate) const ONE_RANK: &str = "a 1-rank solve has no peer to fail";

/// Result of a linear solve.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// Final iterate.
    pub x: Vec<f64>,
    /// Iterations performed (total, across restarts).
    pub iterations: usize,
    /// Final (true or estimated) relative residual norm ‖b − A·x‖ / ‖b‖.
    pub relative_residual: f64,
    /// Why the solver stopped.
    pub reason: StopReason,
    /// Relative residual after each iteration.
    pub history: Vec<f64>,
    /// Floating-point operations charged during the solve (the change in
    /// the rank's [`RankStats::flops`](resilient_runtime::RankStats::flops)):
    /// operator applies, dots at `2n` each, updates.
    pub flops: usize,
    /// Bit flips the space's fault injectors (an [`SpmvFault`], a
    /// [`StrikePlan`](resilient_faults::StrikePlan)) landed during the solve.
    pub injections: usize,
}

impl SolveOutcome {
    /// Did the solve converge to tolerance?
    pub fn converged(&self) -> bool {
        self.reason == StopReason::Converged
    }
}

/// `a` on a launcher-free 1-rank communicator ([`Comm::solo`]).
pub(crate) fn one_rank(a: &CsrMatrix) -> (Comm, DistCsr) {
    let mut comm = Comm::solo(&RuntimeConfig::fast());
    let a = DistCsr::from_global(&mut comm, a).expect(ONE_RANK);
    (comm, a)
}

/// Run a serial preset: `solve` gets a 1-rank [`DistSpace`] over `a` —
/// carrying `a`'s ∞-norm for norm-bound policies, and `fault` if one is
/// planned — and `b`, `x0` on it. Every reduction folds one value, so the
/// kernel sees the bits of the local sums.
pub(crate) fn solve_on_one_rank(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    fault: Option<SpmvFault>,
    solve: impl FnOnce(
        &mut DistSpace<'_, '_>,
        &DistVector,
        Option<DistVector>,
    ) -> Result<(KernelOutcome<DistVector>, KernelReport)>,
) -> (SolveOutcome, KernelReport) {
    assert_eq!(b.len(), a.nrows(), "rhs dimension mismatch");
    let (mut comm, a) = one_rank(a);
    let b = DistVector::from_global(&comm, b);
    let x0 = x0.map(|x| DistVector::from_global(&comm, x));
    let mut space = DistSpace::new(&mut comm, &a).with_operator_norm(a.local_norm_inf());
    if let Some(f) = fault {
        space = space.with_fault(f);
    }
    measured(&mut space, |space| solve(space, &b, x0)).expect(ONE_RANK)
}

/// `solve` on `space`, as a [`SolveOutcome`]: the iterate's locally owned
/// entries (all of them on one rank), and the FLOPs charged and flips
/// injected while it ran.
pub(crate) fn measured<'a, 'b, T>(
    space: &mut DistSpace<'a, 'b>,
    solve: impl FnOnce(&mut DistSpace<'a, 'b>) -> Result<(KernelOutcome<DistVector>, T)>,
) -> Result<(SolveOutcome, T)> {
    let flops = space.comm().snapshot_stats().flops;
    let injections = space.injections();
    let (out, report) = solve(space)?;
    let outcome = SolveOutcome {
        x: out.x.local,
        iterations: out.iterations,
        relative_residual: out.relative_residual,
        reason: out.reason,
        history: out.history,
        flops: (space.comm().snapshot_stats().flops - flops) as usize,
        injections: space.injections() - injections,
    };
    Ok((outcome, report))
}

/// Compute the true relative residual ‖b − A·x‖₂ / ‖b‖₂.
pub fn true_relative_residual(a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    let ax = a.spmv(x);
    let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
    // lint:allow(charged-arithmetic): offline acceptance check run once after
    // the solve, outside any space/ledger — deliberately uncharged.
    let rn = resilient_linalg::vector::nrm2(&r);
    // lint:allow(charged-arithmetic): same offline acceptance check.
    let bn = resilient_linalg::vector::nrm2(b);
    if bn == 0.0 {
        rn
    } else {
        rn / bn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SolveOptions;
    use resilient_linalg::poisson1d;

    #[test]
    fn options_builders() {
        let o = SolveOptions::default()
            .with_tol(1e-6)
            .with_max_iters(10)
            .with_restart(5);
        assert_eq!(o.tol, 1e-6);
        assert_eq!(o.max_iters, 10);
        assert_eq!(o.restart, 5);
    }

    #[test]
    fn true_residual_of_exact_solution_is_zero() {
        let a = poisson1d(5);
        let x = vec![1.0, 2.0, 3.0, 2.0, 1.0];
        let b = a.spmv(&x);
        assert!(true_relative_residual(&a, &b, &x) < 1e-15);
        assert!(true_relative_residual(&a, &b, &[0.0; 5]) > 0.9);
    }
}
