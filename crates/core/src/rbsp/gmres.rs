//! Distributed GMRES: bulk-synchronous vs. p(1)-pipelined.
//!
//! Every entry point names one composition of the unified kernel
//! ([`crate::kernel`]) and runs it through [`solve_dist`]: the
//! bulk-synchronous variants are [`SolveSpec::FUSED_GMRES`] (the
//! [`CgsOrtho`](crate::kernel::CgsOrtho) dot strategy — classical
//! Gram–Schmidt, two blocking all-reduces per iteration), the pipelined
//! variants [`SolveSpec::PIPELINED_GMRES`] (the
//! [`PipelinedOrtho`](crate::kernel::PipelinedOrtho) strategy — one
//! nonblocking fused all-reduce overlapped with the speculative next
//! product).

use resilient_runtime::{CommBackend, Result};

use super::{solve_dist, DistSolveOptions, DistSolveOutcome};
use crate::distributed::{DistCsr, DistVector};
use crate::kernel::{DistSpace, SolveSpec, SpacePreconditioner};

/// Classical distributed GMRES with classical Gram–Schmidt orthogonalisation:
/// per iteration one SpMV, one **blocking** all-reduce for the projection
/// coefficients and one **blocking** all-reduce for the normalisation — the
/// two global synchronisation points per iteration that limit strong
/// scaling.
/// Preset: [`SolveSpec::FUSED_GMRES`] × empty policy stack over a
/// [`DistSpace`].
pub fn dist_gmres<C: CommBackend>(
    comm: &mut C,
    a: &DistCsr,
    b: &DistVector,
    opts: &DistSolveOptions,
) -> Result<DistSolveOutcome> {
    solve_dist(comm, a, b, SolveSpec::FUSED_GMRES, None, opts)
}

/// p(1)-pipelined GMRES (after Ghysels, Ashby, Meerbergen & Vanroose): the
/// reduction for the Gram–Schmidt coefficients and the norm is posted as a
/// **single nonblocking all-reduce** and overlapped with the *next*
/// matrix-vector product, which is applied to the still-unorthogonalised
/// vector; the orthogonalised basis vector and its product are then
/// recovered by linearity. One global synchronisation per iteration, fully
/// overlapped.
/// Preset: [`SolveSpec::PIPELINED_GMRES`] × empty policy stack over a
/// [`DistSpace`]. Composing the same strategy with an SDC-detection stack
/// is [`crate::kernel::compose::pipelined_skeptical_gmres`].
pub fn pipelined_gmres<C: CommBackend>(
    comm: &mut C,
    a: &DistCsr,
    b: &DistVector,
    opts: &DistSolveOptions,
) -> Result<DistSolveOutcome> {
    solve_dist(comm, a, b, SolveSpec::PIPELINED_GMRES, None, opts)
}

/// Right-preconditioned distributed GMRES: classical Gram–Schmidt over the
/// composite operator `A·M⁻¹`, with the solution corrected through the
/// preconditioned basis. The schedule keeps the two blocking all-reduces of
/// [`dist_gmres`] — a collective-free preconditioner such as
/// [`BlockJacobi`](crate::kernel::BlockJacobi) adds zero synchronization.
/// Under [`IdentityPrecond`](crate::kernel::IdentityPrecond) the solve is
/// bit-identical to [`dist_gmres`].
///
/// Preset: [`SolveSpec::FUSED_GMRES`] ×
/// [`RightPrecond`](crate::kernel::RightPrecond) × empty policy stack over
/// a [`DistSpace`].
pub fn dist_pgmres<'a, 'b, C: CommBackend>(
    comm: &'a mut C,
    a: &'b DistCsr,
    b: &DistVector,
    m: &mut dyn SpacePreconditioner<DistSpace<'a, 'b, C>>,
    opts: &DistSolveOptions,
) -> Result<DistSolveOutcome> {
    solve_dist(comm, a, b, SolveSpec::FUSED_GMRES, Some(m), opts)
}

/// Right-preconditioned p(1)-pipelined GMRES: the pipelined Arnoldi runs on
/// `A·M⁻¹`, the preconditioner apply joins the speculative product in the
/// overlap region, and the preconditioned correction basis is maintained by
/// linearity — still **one nonblocking all-reduce per iteration**, fully
/// overlapped. Under [`IdentityPrecond`](crate::kernel::IdentityPrecond)
/// the solve is bit-identical to [`pipelined_gmres`].
///
/// Preset: [`SolveSpec::PIPELINED_GMRES`] ×
/// [`RightPrecond`](crate::kernel::RightPrecond) × empty policy stack over
/// a [`DistSpace`].
pub fn pipelined_pgmres<'a, 'b, C: CommBackend>(
    comm: &'a mut C,
    a: &'b DistCsr,
    b: &DistVector,
    m: &mut dyn SpacePreconditioner<DistSpace<'a, 'b, C>>,
    opts: &DistSolveOptions,
) -> Result<DistSolveOutcome> {
    solve_dist(comm, a, b, SolveSpec::PIPELINED_GMRES, Some(m), opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::common::true_relative_residual;
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
                let opts = DistSolveOptions::default()
                    .with_tol(1e-8)
                    .with_max_iters(300)
                    .with_restart(40);
                let classic = dist_gmres(comm, &da, &b, &opts)?;
                let pipelined = pipelined_gmres(comm, &da, &b, &opts)?;
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
                let opts = DistSolveOptions::default()
                    .with_tol(1e-7)
                    .with_max_iters(120)
                    .with_restart(40);
                let t0 = comm.now();
                let classic = dist_gmres(comm, &da, &b, &opts)?;
                let t1 = comm.now();
                let pipelined = pipelined_gmres(comm, &da, &b, &opts)?;
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
