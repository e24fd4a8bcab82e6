//! A NaN in the right-hand side must never come back as `Converged`.
//!
//! Every residual norm is `√` of a reduced sum of squares. Flooring that sum
//! at zero with `f64::max` turns a NaN into 0 (the method returns the
//! operand that is not NaN), which reads as an exactly solved system at
//! iteration 0. These cases pin the honest failure for every composition,
//! preconditioned or not, on one and on three ranks, for both block
//! presets, and for the serial presets.

use resilience::distributed::DistVector;
use resilience::kernel::{DistSpace, FlexibleRight};
use resilience::prelude::*;
use resilient_linalg::poisson2d;
use resilient_runtime::{Result, Runtime, RuntimeConfig};

/// The poisoned entry of every right-hand side below.
const POISONED: usize = 5;

fn rhs(i: usize) -> f64 {
    if i == POISONED {
        f64::NAN
    } else {
        1.0 + (i % 3) as f64
    }
}

#[test]
fn no_composition_converges_on_a_nan_rhs() {
    for ranks in [1, 3] {
        let rt = Runtime::new(RuntimeConfig::fast());
        let results = rt
            .run(ranks, |comm| {
                let a = poisson2d(8, 8);
                let da = DistCsr::from_global(comm, &a)?;
                let b = DistVector::from_fn(comm, a.nrows(), rhs);
                let opts = DistSolveOptions::default().with_max_iters(60);
                let mut outcomes = Vec::new();
                for spec in SolveSpec::ALL {
                    for preconditioned in [false, true] {
                        let mut bj = preconditioned.then(|| BlockJacobi::new(&da));
                        let m = bj.as_mut().map(|m| m as &mut dyn SpacePreconditioner<_>);
                        let out = solve_dist(comm, &da, &b, spec, m, &opts)?;
                        outcomes.push((spec.name(preconditioned), out.converged, out.reason));
                    }
                }
                Ok(outcomes)
            })
            .unwrap_all();
        for (name, converged, reason) in results.into_iter().flatten() {
            assert!(
                !converged && reason != StopReason::Converged,
                "{name} on {ranks} ranks claimed {reason:?}"
            );
        }
    }
}

#[test]
fn block_presets_never_converge_the_nan_column() {
    for ranks in [1, 3] {
        let rt = Runtime::new(RuntimeConfig::fast());
        let results = rt
            .run(ranks, |comm| {
                let a = poisson2d(8, 8);
                let da = DistCsr::from_global(comm, &a)?;
                let b = DistMultiVector::from_fn(comm, a.nrows(), 3, |c, i| {
                    if c == 1 {
                        rhs(i)
                    } else {
                        1.0 + (i % 3) as f64
                    }
                });
                let opts = DistSolveOptions::default().with_max_iters(200);
                let mut outcomes = Vec::new();
                for preconditioned in [false, true] {
                    let mut identity = IdentityPrecond;
                    let mut bj = BlockJacobi::new(&da);
                    let m: &mut dyn SpacePreconditioner<_> = if preconditioned {
                        &mut bj
                    } else {
                        &mut identity
                    };
                    outcomes.push(solve_dist_block(comm, &da, &b, Schedule::Fused, m, &opts)?);
                    let m: &mut dyn SpacePreconditioner<_> = if preconditioned {
                        &mut bj
                    } else {
                        &mut identity
                    };
                    outcomes.push(pipelined_block_pcg(comm, &da, &b, m, &opts)?);
                }
                Ok(outcomes)
            })
            .unwrap_all();
        for out in results.into_iter().flatten() {
            assert!(
                !out.converged[1] && out.reason != StopReason::Converged,
                "the NaN column claimed convergence on {ranks} ranks: {:?}",
                out.reason
            );
        }
    }
}

/// The identity as a flexible preconditioner.
struct Identity;

impl<'a, 'b> FlexibleRight<DistSpace<'a, 'b>> for Identity {
    fn apply(&mut self, _space: &mut DistSpace<'a, 'b>, v: &DistVector) -> Result<DistVector> {
        Ok(v.clone())
    }
}

#[test]
fn serial_presets_never_converge_on_a_nan_rhs() {
    let a = poisson2d(8, 8);
    let b: Vec<f64> = (0..a.nrows()).map(rhs).collect();
    let opts = SolveOptions::default().with_max_iters(60);
    let skeptic = SkepticalConfig::default();
    let reasons = [
        ("cg", cg(&a, &b, None, &opts).reason),
        ("gmres", gmres(&a, &b, None, &opts).reason),
        (
            "fgmres",
            fgmres(&a, &mut Identity, &b, None, &opts).0.reason,
        ),
        (
            "skeptical_gmres",
            skeptical_gmres(&a, &b, None, &opts, &skeptic, None)
                .0
                .reason,
        ),
    ];
    for (name, reason) in reasons {
        assert_ne!(reason, StopReason::Converged, "{name}");
    }
}
