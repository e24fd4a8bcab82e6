//! Distributed GMRES: bulk-synchronous vs. p(1)-pipelined.
//!
//! Every GMRES solve names one composition of the unified kernel
//! ([`crate::kernel`]) and runs it through [`solve_dist`]: the
//! bulk-synchronous one is [`SolveSpec::FUSED_GMRES`] (the
//! [`CgsOrtho`](crate::kernel::CgsOrtho) dot strategy — classical
//! Gram–Schmidt, two blocking all-reduces per iteration), the pipelined one
//! [`SolveSpec::PIPELINED_GMRES`] (the
//! [`PipelinedOrtho`](crate::kernel::PipelinedOrtho) strategy after
//! Ghysels, Ashby, Meerbergen & Vanroose — one nonblocking fused all-reduce
//! overlapped with the speculative next product, the orthogonalised basis
//! vector and its product recovered by linearity). A preconditioner runs
//! through the flexible right-preconditioning slot
//! ([`RightPrecond`](crate::kernel::RightPrecond)) over `A·M⁻¹`.

use resilient_runtime::{CommBackend, Result};

use super::{solve_dist, DistSolveOutcome};
use crate::distributed::{DistCsr, DistVector};
use crate::kernel::{DistSpace, SolveOptions, SolveSpec, SpacePreconditioner};

/// Right-preconditioned p(1)-pipelined GMRES: [`solve_dist`] with
/// [`SolveSpec::PIPELINED_GMRES`] and `m` — the preconditioner apply joins
/// the speculative product in the overlap region, still **one nonblocking
/// all-reduce per iteration**. Kept for the frozen `perf_ledger`.
pub fn pipelined_pgmres<'a, 'b, C: CommBackend>(
    comm: &'a mut C,
    a: &'b DistCsr,
    b: &DistVector,
    m: &mut dyn SpacePreconditioner<DistSpace<'a, 'b, C>>,
    opts: &SolveOptions,
) -> Result<DistSolveOutcome> {
    solve_dist(comm, a, b, SolveSpec::PIPELINED_GMRES, Some(m), opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::true_relative_residual;
    use resilient_linalg::poisson2d;
    use resilient_runtime::{LatencyModel, Runtime, RuntimeConfig};

    #[test]
    fn both_variants_solve_poisson() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let results = rt
            .run(4, move |comm| {
                let a = poisson2d(9, 9);
                let n = a.nrows();
                let da = DistCsr::from_global(comm, &a)?;
                let b = DistVector::from_fn(comm, n, |i| 1.0 + (i % 2) as f64);
                let opts = SolveOptions::default()
                    .with_tol(1e-8)
                    .with_max_iters(300)
                    .with_restart(40);
                let classic = solve_dist(comm, &da, &b, SolveSpec::FUSED_GMRES, None, &opts)?;
                let pipelined = solve_dist(comm, &da, &b, SolveSpec::PIPELINED_GMRES, None, &opts)?;
                Ok((
                    classic.x.gather_global(comm)?,
                    pipelined.x.gather_global(comm)?,
                    classic.converged,
                    pipelined.converged,
                    classic.iterations,
                    pipelined.iterations,
                ))
            })
            .unwrap_all();
        let a = poisson2d(9, 9);
        let b: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + (i % 2) as f64).collect();
        for (cx, px, c_conv, p_conv, c_iters, p_iters) in results {
            assert!(c_conv && p_conv);
            assert!(true_relative_residual(&a, &b, &cx) < 1e-7);
            assert!(true_relative_residual(&a, &b, &px) < 1e-7);
            assert!(
                (c_iters as i64 - p_iters as i64).abs() <= 5,
                "same mathematics, similar iteration counts: {c_iters} vs {p_iters}"
            );
        }
    }

    #[test]
    fn pipelined_gmres_hides_collective_latency() {
        let mut cfg = RuntimeConfig::fast();
        cfg.latency = LatencyModel {
            alpha: 5.0e-4,
            beta: 0.0,
            gamma: 0.0,
        };
        let rt = Runtime::new(cfg);
        let times = rt
            .run(8, move |comm| {
                let a = poisson2d(12, 12);
                let n = a.nrows();
                let da = DistCsr::from_global(comm, &a)?;
                let b = DistVector::from_fn(comm, n, |i| (i as f64 * 0.05).sin() + 1.0);
                let opts = SolveOptions::default()
                    .with_tol(1e-7)
                    .with_max_iters(120)
                    .with_restart(40);
                let t0 = comm.now();
                let classic = solve_dist(comm, &da, &b, SolveSpec::FUSED_GMRES, None, &opts)?;
                let t1 = comm.now();
                let pipelined = solve_dist(comm, &da, &b, SolveSpec::PIPELINED_GMRES, None, &opts)?;
                let t2 = comm.now();
                assert!(classic.converged && pipelined.converged);
                Ok((t1 - t0, t2 - t1))
            })
            .unwrap_all();
        for (classic_time, pipelined_time) in times {
            assert!(
                pipelined_time < classic_time,
                "p(1)-GMRES must finish sooner under collective latency: \
                 classic={classic_time}, pipelined={pipelined_time}"
            );
        }
    }
}
