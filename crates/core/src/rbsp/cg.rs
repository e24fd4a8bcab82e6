//! Distributed conjugate gradients: bulk-synchronous vs. pipelined.
//!
//! Every CG solve runs the one CG kernel,
//! [`run_block_cg`](crate::kernel::run_block_cg): a single right-hand side
//! as its one-column case through [`solve_dist`] with
//! [`SolveSpec::FUSED_CG`] (two blocking all-reduces per iteration) or
//! [`SolveSpec::PIPELINED_CG`] (one nonblocking fused all-reduce overlapped
//! with the SpMV), a block of right-hand sides through [`solve_dist_block`]
//! under the matching [`Schedule`]. Without a preconditioner — or with
//! [`IdentityPrecond`](crate::kernel::IdentityPrecond), bit for bit and
//! charge for charge — a solve is unpreconditioned.
//!
//! The four functions here are those compositions under the names the
//! frozen `perf_ledger` imports.

use resilient_runtime::{CommBackend, Result};

use super::{solve_dist, solve_dist_block, DistSolveOutcome};
use crate::distributed::{DistCsr, DistMultiVector, DistVector};
use crate::kernel::{
    BlockOutcome, DistSpace, Schedule, SolveOptions, SolveSpec, SpacePreconditioner,
};

/// Classical distributed CG: [`solve_dist`] with [`SolveSpec::FUSED_CG`]
/// and no preconditioner — one SpMV and **two blocking all-reduces** per
/// iteration, the structure whose latency sensitivity §II-B describes. Kept
/// for the frozen `perf_ledger`.
pub fn dist_cg<C: CommBackend>(
    comm: &mut C,
    a: &DistCsr,
    b: &DistVector,
    opts: &SolveOptions,
) -> Result<DistSolveOutcome> {
    solve_dist(comm, a, b, SolveSpec::FUSED_CG, None, opts)
}

/// Pipelined CG (Ghysels & Vanroose): [`solve_dist`] with
/// [`SolveSpec::PIPELINED_CG`] and no preconditioner — a **single
/// nonblocking fused all-reduce** per iteration, posted before the SpMV and
/// completed after it. Kept for the frozen `perf_ledger`.
pub fn pipelined_cg<C: CommBackend>(
    comm: &mut C,
    a: &DistCsr,
    b: &DistVector,
    opts: &SolveOptions,
) -> Result<DistSolveOutcome> {
    solve_dist(comm, a, b, SolveSpec::PIPELINED_CG, None, opts)
}

/// Preconditioned pipelined CG: [`solve_dist`] with
/// [`SolveSpec::PIPELINED_CG`] and `m` — the preconditioner apply joins the
/// SpMV in the overlap region of the single nonblocking reduction (which
/// additionally carries ‖r‖²). Kept for the frozen `perf_ledger`.
pub fn pipelined_pcg<'a, 'b, C: CommBackend>(
    comm: &'a mut C,
    a: &'b DistCsr,
    b: &DistVector,
    m: &mut dyn SpacePreconditioner<DistSpace<'a, 'b, C>>,
    opts: &SolveOptions,
) -> Result<DistSolveOutcome> {
    solve_dist(comm, a, b, SolveSpec::PIPELINED_CG, Some(m), opts)
}

/// Block preconditioned pipelined CG: [`solve_dist_block`] under
/// [`Schedule::Pipelined`] — one nonblocking all-reduce per iteration
/// carries every column's recurrence scalars. Kept for the frozen
/// `perf_ledger`.
pub fn pipelined_block_pcg<'a, 'b, C: CommBackend>(
    comm: &'a mut C,
    a: &'b DistCsr,
    b: &DistMultiVector,
    m: &mut dyn SpacePreconditioner<DistSpace<'a, 'b, C>>,
    opts: &SolveOptions,
) -> Result<BlockOutcome> {
    solve_dist_block(comm, a, b, Schedule::Pipelined, m, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilient_linalg::poisson2d;
    use resilient_runtime::{LatencyModel, Runtime, RuntimeConfig};

    fn solve_both(ranks: usize, nx: usize) -> Vec<(Vec<f64>, Vec<f64>, usize, usize)> {
        let rt = Runtime::new(RuntimeConfig::fast());
        rt.run(ranks, move |comm| {
            let a = poisson2d(nx, nx);
            let n = a.nrows();
            let da = DistCsr::from_global(comm, &a)?;
            let b = DistVector::from_fn(comm, n, |i| 1.0 + (i % 3) as f64);
            let opts = SolveOptions::default().with_tol(1e-9).with_max_iters(400);
            let classic = dist_cg(comm, &da, &b, &opts)?;
            let pipelined = pipelined_cg(comm, &da, &b, &opts)?;
            assert!(classic.converged, "classic CG must converge");
            assert!(pipelined.converged, "pipelined CG must converge");
            Ok((
                classic.x.gather_global(comm)?,
                pipelined.x.gather_global(comm)?,
                classic.iterations,
                pipelined.iterations,
            ))
        })
        .unwrap_all()
    }

    #[test]
    fn both_variants_solve_the_system_identically() {
        let results = solve_both(4, 10);
        let a = poisson2d(10, 10);
        for (classic_x, pipelined_x, classic_iters, pipelined_iters) in results {
            // Verify against the serial solution via the residual.
            let b: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + (i % 3) as f64).collect();
            let res_c = crate::solvers::true_relative_residual(&a, &b, &classic_x);
            let res_p = crate::solvers::true_relative_residual(&a, &b, &pipelined_x);
            assert!(res_c < 1e-7, "classic residual {res_c}");
            assert!(res_p < 1e-7, "pipelined residual {res_p}");
            // Same mathematics: iteration counts agree to within a couple.
            assert!(
                (classic_iters as i64 - pipelined_iters as i64).abs() <= 3,
                "iteration counts diverged: {classic_iters} vs {pipelined_iters}"
            );
        }
    }

    #[test]
    fn pipelined_cg_is_faster_under_latency() {
        // With substantial collective latency and overlap-able work, the
        // pipelined variant must finish in less virtual time.
        let mut cfg = RuntimeConfig::fast();
        cfg.latency = LatencyModel {
            alpha: 5.0e-4,
            beta: 0.0,
            gamma: 0.0,
        };
        cfg.seconds_per_flop = 1.0e-9;
        let rt = Runtime::new(cfg);
        let times = rt
            .run(8, move |comm| {
                let a = poisson2d(16, 16);
                let n = a.nrows();
                let da = DistCsr::from_global(comm, &a)?;
                let b = DistVector::from_fn(comm, n, |i| (i as f64 * 0.1).cos());
                let opts = SolveOptions::default().with_tol(1e-8).with_max_iters(200);
                let t0 = comm.now();
                let classic = dist_cg(comm, &da, &b, &opts)?;
                let t1 = comm.now();
                let pipelined = pipelined_cg(comm, &da, &b, &opts)?;
                let t2 = comm.now();
                assert!(classic.converged && pipelined.converged);
                Ok((t1 - t0, t2 - t1))
            })
            .unwrap_all();
        for (classic_time, pipelined_time) in times {
            assert!(
                pipelined_time < classic_time,
                "pipelined CG should hide collective latency: classic={classic_time}, pipelined={pipelined_time}"
            );
        }
    }

    #[test]
    fn single_rank_degenerates_gracefully() {
        let results = solve_both(1, 6);
        assert_eq!(results.len(), 1);
    }
}
