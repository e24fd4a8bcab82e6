//! The composition as a value: which Krylov method runs under which
//! reduction schedule.
//!
//! Every distributed solve in the suite is *method × schedule (× optional
//! preconditioner)*. [`SolveSpec`] names the first two as data — `Copy`, so
//! it can be stored, iterated over ([`SolveSpec::ALL`]) and captured by an
//! `Fn` rank closure — and [`solve`] is the one place it becomes a strategy
//! type. "Preconditioned" is not a field: it is whether a preconditioner
//! was passed.

use resilient_runtime::{CommBackend, Result};

use super::block::run_block_cg;
use super::gmres::{run_gmres, CgsOrtho, FlexibleRight, GmresFlavor, PipelinedOrtho};
use super::policy::PolicyStack;
use super::precond::{IdentityPrecond, RightPrecond, SpacePreconditioner};
use super::space::DistSpace;
use super::{KernelOutcome, KernelReport};
use crate::distributed::{DistMultiVector, DistVector};
use crate::solvers::common::SolveOptions;

/// The Krylov method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Conjugate gradients (symmetric positive definite operators).
    Cg,
    /// Restarted GMRES.
    Gmres,
}

/// The reduction schedule of one iteration — the axis along which the
/// bulk-synchronous and the latency-hiding solvers differ. Also the mode
/// argument of [`run_block_cg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Schedule {
    /// Two blocking fused reductions per iteration: the bulk-synchronous
    /// recurrence for CG, [`CgsOrtho`] (classical Gram–Schmidt) for GMRES.
    Fused,
    /// One nonblocking fused reduction per iteration, overlapped with the
    /// operator (and preconditioner) application: Ghysels & Vanroose for
    /// CG, [`PipelinedOrtho`] (p(1)) for GMRES.
    Pipelined,
}

/// One distributed solver composition: method × reduction schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SolveSpec {
    /// The Krylov method.
    pub method: Method,
    /// Its reduction schedule.
    pub schedule: Schedule,
}

impl SolveSpec {
    /// Bulk-synchronous CG.
    pub const FUSED_CG: Self = Self::new(Method::Cg, Schedule::Fused);
    /// Pipelined CG.
    pub const PIPELINED_CG: Self = Self::new(Method::Cg, Schedule::Pipelined);
    /// Bulk-synchronous (classical Gram–Schmidt) GMRES.
    pub const FUSED_GMRES: Self = Self::new(Method::Gmres, Schedule::Fused);
    /// p(1)-pipelined GMRES.
    pub const PIPELINED_GMRES: Self = Self::new(Method::Gmres, Schedule::Pipelined);

    /// Every composition, in sweep order.
    pub const ALL: [Self; 4] = [
        Self::FUSED_CG,
        Self::PIPELINED_CG,
        Self::FUSED_GMRES,
        Self::PIPELINED_GMRES,
    ];

    /// The composition running `method` under `schedule`.
    pub const fn new(method: Method, schedule: Schedule) -> Self {
        Self { method, schedule }
    }

    /// Stable short name for reports and campaign repro lines.
    pub fn name(&self, preconditioned: bool) -> &'static str {
        match (self.method, self.schedule, preconditioned) {
            (Method::Cg, Schedule::Fused, false) => "fused-cg",
            (Method::Cg, Schedule::Fused, true) => "fused-pcg",
            (Method::Cg, Schedule::Pipelined, false) => "pipelined-cg",
            (Method::Cg, Schedule::Pipelined, true) => "pipelined-pcg",
            (Method::Gmres, Schedule::Fused, false) => "cgs-gmres",
            (Method::Gmres, Schedule::Fused, true) => "cgs-pgmres",
            (Method::Gmres, Schedule::Pipelined, false) => "pipelined-gmres",
            (Method::Gmres, Schedule::Pipelined, true) => "pipelined-pgmres",
        }
    }
}

/// Run `spec` on a caller-built [`DistSpace`]: CG is the one-column case of
/// [`run_block_cg`] (`b` and `x0` go in as one-column blocks, the iterate
/// comes back out without a copy), GMRES takes the preconditioner through
/// the right-preconditioning slot ([`RightPrecond`]) under the
/// [`GmresFlavor::distributed`] control flow. With `m = None` (or
/// [`IdentityPrecond`], bit for bit — and for CG charge for charge) the
/// solve is unpreconditioned.
///
/// # Errors
/// [`RuntimeError::InvalidArgument`](resilient_runtime::RuntimeError),
/// before any policy hook runs and before anything is posted, if `b` or
/// `x0` is not distributed like the operator's rows.
pub fn solve<'a, 'b, C: CommBackend>(
    space: &mut DistSpace<'a, 'b, C>,
    b: &DistVector,
    x0: Option<DistVector>,
    opts: &SolveOptions,
    spec: SolveSpec,
    m: Option<&mut dyn SpacePreconditioner<DistSpace<'a, 'b, C>>>,
    policies: &mut PolicyStack<'_, DistSpace<'a, 'b, C>>,
) -> Result<(KernelOutcome<DistVector>, KernelReport)> {
    space.operator().check_operand("`b`", b)?;
    if let Some(x0) = &x0 {
        space.operator().check_operand("`x0`", x0)?;
    }
    match spec.method {
        Method::Cg => {
            let mut identity = IdentityPrecond;
            let m = m.unwrap_or(&mut identity);
            let b = DistMultiVector::from_columns(std::slice::from_ref(b));
            let x0 = x0.map(DistMultiVector::from_vector);
            let (out, report) = run_block_cg(space, &b, x0, opts, spec.schedule, m, policies)?;
            Ok((out.into_single(), report))
        }
        Method::Gmres => {
            let mut right = m.map(RightPrecond);
            let right = right.as_mut().map(|r| r as &mut dyn FlexibleRight<_>);
            match spec.schedule {
                Schedule::Fused => {
                    let ortho = &mut CgsOrtho::new();
                    run_gmres(space, b, x0, opts, ortho, policies, right, &GmresFlavor)
                }
                Schedule::Pipelined => {
                    let ortho = &mut PipelinedOrtho::new();
                    run_gmres(space, b, x0, opts, ortho, policies, right, &GmresFlavor)
                }
            }
        }
    }
}
