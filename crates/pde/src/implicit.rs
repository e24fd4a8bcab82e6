//! Implicit (backward-Euler) heat stepping via distributed CG, with
//! coarse-model recovery of lost state (§III-C "Implicit methods" /
//! "Redundant storage of coarse model", experiment E5).

use resilience::distributed::{DistCsr, DistVector};
use resilience::kernel::SolveOptions;
use resilience::rbsp::cg::dist_cg;
use resilient_linalg::{CooMatrix, CsrMatrix};
use resilient_runtime::{Comm, Result};

use crate::coarse::{prolongate, restrict};
use crate::heat1d::HeatProblem;

/// Build the backward-Euler system matrix `I + κ·dt/dx²·L` for the 1-D heat
/// equation, where `L` is the (positive-definite) discrete Laplacian.
pub fn backward_euler_matrix(problem: &HeatProblem) -> CsrMatrix {
    let n = problem.n;
    let r = problem.kappa * problem.dt / (problem.dx() * problem.dx());
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 1.0 + 2.0 * r);
        if i > 0 {
            coo.push(i, i - 1, -r);
        }
        if i + 1 < n {
            coo.push(i, i + 1, -r);
        }
    }
    coo.to_csr()
}

/// How a rank's state is reconstructed after it is lost mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImplicitRecovery {
    /// Prolongate a persisted coarse copy (factor given) back to the fine grid.
    CoarseModel {
        /// Coarsening factor of the redundant copy.
        factor: usize,
    },
    /// Re-initialise the lost part to zero (the "do nothing" strawman).
    ZeroReset,
    /// Keep the full fine copy persisted (maximum storage, exact recovery).
    FullCopy,
}

/// Distributed implicit heat solver with pluggable lost-state recovery.
#[derive(Debug, Clone)]
pub struct ImplicitHeat {
    /// Problem description (uses a larger `dt` than explicit stepping —
    /// implicit stepping is unconditionally stable).
    pub problem: HeatProblem,
    /// Recovery strategy for lost ranks.
    pub recovery: ImplicitRecovery,
    /// CG tolerance per step.
    pub cg_tol: f64,
}

impl ImplicitHeat {
    /// Advance `u` (distributed) by one backward-Euler step: solve
    /// `(I + r·L)·u_{k+1} = u_k` with distributed CG. Returns the CG
    /// iteration count.
    pub fn step(&self, comm: &mut Comm, a: &DistCsr, u: &mut DistVector) -> Result<usize> {
        let opts = SolveOptions::default()
            .with_tol(self.cg_tol)
            .with_max_iters(400);
        let out = dist_cg(comm, a, u, &opts)?;
        *u = out.x;
        Ok(out.iterations)
    }

    /// Persist this rank's redundant copy according to the recovery strategy.
    fn persist_redundant(&self, comm: &mut Comm, u_local: &[f64]) -> Result<()> {
        match self.recovery {
            ImplicitRecovery::CoarseModel { factor } => {
                comm.persist("implicit/coarse", restrict(u_local, factor))?;
            }
            ImplicitRecovery::FullCopy => {
                comm.persist("implicit/full", u_local.to_vec())?;
            }
            ImplicitRecovery::ZeroReset => {}
        }
        Ok(())
    }

    /// Reconstruct this rank's local field after its state was lost.
    fn recover_local(&self, comm: &mut Comm, n_local: usize) -> Result<Vec<f64>> {
        match self.recovery {
            ImplicitRecovery::CoarseModel { factor } => {
                let me = comm.rank();
                if comm.persisted(me, "implicit/coarse") {
                    let coarse = comm.restore(me, "implicit/coarse")?.into_f64()?;
                    Ok(prolongate(&coarse, factor, n_local))
                } else {
                    Ok(vec![0.0; n_local])
                }
            }
            ImplicitRecovery::FullCopy => {
                let me = comm.rank();
                if comm.persisted(me, "implicit/full") {
                    comm.restore(me, "implicit/full")?.into_f64()
                } else {
                    Ok(vec![0.0; n_local])
                }
            }
            ImplicitRecovery::ZeroReset => Ok(vec![0.0; n_local]),
        }
    }

    /// Bytes persisted per redundant copy (storage-cost accounting for E5).
    pub fn redundant_bytes(&self, n_local: usize) -> usize {
        match self.recovery {
            ImplicitRecovery::CoarseModel { factor } => n_local.div_ceil(factor) * 8,
            ImplicitRecovery::FullCopy => n_local * 8,
            ImplicitRecovery::ZeroReset => 0,
        }
    }
}

/// One simulated "lose a rank's field and recover it" round, run inside an
/// SPMD closure: steps the implicit solver, drops rank `victim`'s field,
/// recovers it with the configured strategy, and reports the relative L2
/// error of the recovered global field against the never-lost one.
pub fn lost_state_recovery_error(
    comm: &mut Comm,
    solver: &ImplicitHeat,
    steps_before_loss: usize,
    victim: usize,
) -> Result<f64> {
    let a_global = backward_euler_matrix(&solver.problem);
    let a = DistCsr::from_global(comm, &a_global)?;
    let n = solver.problem.n;
    let init = solver.problem.initial();
    let mut u = DistVector::from_fn(comm, n, |i| init[i]);
    for _ in 0..steps_before_loss {
        solver.step(comm, &a, &mut u)?;
        solver.persist_redundant(comm, &u.local)?;
    }
    let reference = u.gather_global(comm)?;
    // Simulate the loss of the victim rank's field and its recovery.
    if comm.rank() == victim {
        u.local = solver.recover_local(comm, u.local.len())?;
    }
    let recovered = u.gather_global(comm)?;
    let num: f64 = reference
        .iter()
        .zip(&recovered)
        .map(|(a, b)| (a - b) * (a - b))
        .sum();
    let den: f64 = reference.iter().map(|a| a * a).sum();
    Ok((num / den.max(f64::MIN_POSITIVE)).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilient_runtime::{Runtime, RuntimeConfig};

    fn problem() -> HeatProblem {
        // Implicit stepping: use a dt 20x beyond the explicit limit.
        let mut p = HeatProblem::stable(96, 1.0);
        p.dt *= 20.0;
        p
    }

    #[test]
    fn backward_euler_matrix_is_spd_and_diagonally_dominant() {
        let a = backward_euler_matrix(&problem());
        assert_eq!(a.nrows(), 96);
        let d = a.diagonal();
        for (i, &di) in d.iter().enumerate() {
            let (cols, vals) = a.row(i);
            let off: f64 = cols
                .iter()
                .zip(vals)
                .filter(|(&j, _)| j != i)
                .map(|(_, v)| v.abs())
                .sum();
            assert!(di > off, "row {i} must be diagonally dominant");
        }
    }

    #[test]
    fn implicit_stepping_tracks_exact_solution() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let errs = rt
            .run(3, move |comm| {
                let p = problem();
                let solver = ImplicitHeat {
                    problem: p,
                    recovery: ImplicitRecovery::FullCopy,
                    cg_tol: 1e-10,
                };
                let a_global = backward_euler_matrix(&p);
                let a = DistCsr::from_global(comm, &a_global)?;
                let init = p.initial();
                let mut u = DistVector::from_fn(comm, p.n, |i| init[i]);
                let steps = 30;
                for _ in 0..steps {
                    solver.step(comm, &a, &mut u)?;
                }
                let global = u.gather_global(comm)?;
                Ok(p.l2_error(&global, steps as f64 * p.dt))
            })
            .unwrap_all();
        for e in errs {
            assert!(e < 5e-3, "implicit solution error {e}");
        }
    }

    #[test]
    fn coarse_recovery_beats_zero_reset_and_loses_to_full_copy() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let results = rt
            .run(4, move |comm| {
                let p = problem();
                let run = |comm: &mut Comm, recovery| {
                    let solver = ImplicitHeat {
                        problem: p,
                        recovery,
                        cg_tol: 1e-10,
                    };
                    lost_state_recovery_error(comm, &solver, 10, 2)
                };
                let full = run(comm, ImplicitRecovery::FullCopy)?;
                let coarse = run(comm, ImplicitRecovery::CoarseModel { factor: 4 })?;
                let zero = run(comm, ImplicitRecovery::ZeroReset)?;
                Ok((full, coarse, zero))
            })
            .unwrap_all();
        for (full, coarse, zero) in results {
            assert!(full < 1e-12, "full copy recovers exactly: {full}");
            assert!(
                coarse < zero,
                "coarse model must beat zero reset: {coarse} vs {zero}"
            );
            assert!(
                coarse < 0.05,
                "coarse recovery error should be at truncation level: {coarse}"
            );
            assert!(
                zero > 0.1,
                "losing a quarter of the field is a big error: {zero}"
            );
        }
    }

    #[test]
    fn redundant_storage_cost_ordering() {
        let p = problem();
        let full = ImplicitHeat {
            problem: p,
            recovery: ImplicitRecovery::FullCopy,
            cg_tol: 1e-8,
        };
        let coarse = ImplicitHeat {
            problem: p,
            recovery: ImplicitRecovery::CoarseModel { factor: 4 },
            cg_tol: 1e-8,
        };
        let zero = ImplicitHeat {
            problem: p,
            recovery: ImplicitRecovery::ZeroReset,
            cg_tol: 1e-8,
        };
        assert!(coarse.redundant_bytes(100) < full.redundant_bytes(100));
        assert_eq!(zero.redundant_bytes(100), 0);
        assert_eq!(coarse.redundant_bytes(100), 25 * 8);
    }
}
