//! The single-RHS CG entry point under its strategy names: [`run_cg`] with
//! a [`FusedCgStep`] or [`PipelinedCgStep`] is
//! [`kernel::solve`](super::solve) with the matching CG spec, and so the
//! one-column case of the CG kernel, [`run_block_cg`](super::run_block_cg).
//! No recurrence lives here; a strategy only names a [`Schedule`] and holds
//! the optional preconditioner (none, or
//! [`IdentityPrecond`](super::IdentityPrecond), is the unpreconditioned
//! route, bit for bit and charge for charge).

use resilient_runtime::{CommBackend, Result};

use super::policy::PolicyStack;
use super::precond::SpacePreconditioner;
use super::space::{DistSpace, KrylovSpace};
use super::spec::{solve, Method, Schedule, SolveOptions, SolveSpec};
use super::{KernelOutcome, KernelReport};
use crate::distributed::DistVector;

/// A CG reduction schedule — pipelined if `PIPELINED`, fused otherwise —
/// with its optional preconditioner.
pub struct CgStep<'m, S: KrylovSpace, const PIPELINED: bool> {
    m: Option<&'m mut dyn SpacePreconditioner<S>>,
}

/// CG with two blocking global reductions per iteration
/// ([`Schedule::Fused`]) — the structure whose latency sensitivity §II-B of
/// the paper describes; preconditioned, `r·z` and `r·r` share the second
/// reduction.
pub type FusedCgStep<'m, S> = CgStep<'m, S, false>;

/// Pipelined CG (Ghysels & Vanroose, [`Schedule::Pipelined`]): one
/// nonblocking fused reduction per iteration, posted before the SpMV (and
/// the preconditioner apply) and completed after it.
pub type PipelinedCgStep<'m, S> = CgStep<'m, S, true>;

impl<'m, S: KrylovSpace, const PIPELINED: bool> CgStep<'m, S, PIPELINED> {
    /// The unpreconditioned recurrence.
    pub fn new() -> Self {
        Self { m: None }
    }

    /// The z-shifted (preconditioned) recurrence.
    pub fn preconditioned(m: &'m mut dyn SpacePreconditioner<S>) -> Self {
        Self::with(Some(m))
    }

    /// [`Self::preconditioned`] when a preconditioner is given,
    /// [`Self::new`] otherwise.
    pub fn with(m: Option<&'m mut dyn SpacePreconditioner<S>>) -> Self {
        Self { m }
    }
}

impl<'m, S: KrylovSpace, const PIPELINED: bool> Default for CgStep<'m, S, PIPELINED> {
    fn default() -> Self {
        Self::new()
    }
}

/// Run one CG solve under `strategy`: [`solve`] with the CG spec of its
/// schedule and its preconditioner.
///
/// # Errors
/// As [`solve`].
pub fn run_cg<'a, 'b, C: CommBackend, const PIPELINED: bool>(
    space: &mut DistSpace<'a, 'b, C>,
    b: &DistVector,
    x0: Option<DistVector>,
    opts: &SolveOptions,
    strategy: &mut CgStep<'_, DistSpace<'a, 'b, C>, PIPELINED>,
    policies: &mut PolicyStack<'_, DistSpace<'a, 'b, C>>,
) -> Result<(KernelOutcome<DistVector>, KernelReport)> {
    let schedule = if PIPELINED {
        Schedule::Pipelined
    } else {
        Schedule::Fused
    };
    let spec = SolveSpec::new(Method::Cg, schedule);
    let m = strategy
        .m
        .as_mut()
        .map(|m| &mut **m as &mut dyn SpacePreconditioner<_>);
    solve(space, b, x0, opts, spec, m, policies)
}
