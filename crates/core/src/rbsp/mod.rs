//! Relaxed bulk-synchronous programming (RBSP): latency-tolerant Krylov
//! solvers built on the runtime's asynchronous collectives (§II-B, §III-B).
//!
//! Two families are provided, each in a classical (blocking-collective) and
//! a pipelined (latency-hiding) variant:
//!
//! * conjugate gradients — [`dist_cg`](cg::dist_cg) vs.
//!   [`pipelined_cg`](cg::pipelined_cg) (Ghysels–Vanroose single-reduction
//!   formulation);
//! * GMRES — [`dist_gmres`](gmres::dist_gmres) vs.
//!   [`pipelined_gmres`](gmres::pipelined_gmres) (the p(1) pipelining of
//!   Ghysels, Ashby, Meerbergen & Vanroose cited by the paper).
//!
//! The pipelined variants do *the same arithmetic* (up to roundoff and the
//! usual stability caveats) but post their global reductions as nonblocking
//! collectives and overlap them with the next sparse matrix-vector product,
//! so per-rank noise and collective latency are hidden rather than
//! amplified.

pub mod cg;
pub mod gmres;

use resilient_runtime::{CommBackend, Result};

use crate::distributed::{DistCsr, DistVector};
use crate::kernel::{solve, DistSpace, KernelOutcome, PolicyStack, SolveSpec, SpacePreconditioner};

/// Outcome of a distributed single-RHS solve (per rank; the solution is
/// distributed). Kept for the frozen `perf_ledger`, which names it.
pub type DistSolveOutcome = KernelOutcome<DistVector>;

/// Options shared by the distributed solvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistSolveOptions {
    /// Relative residual tolerance.
    pub tol: f64,
    /// Maximum iterations.
    pub max_iters: usize,
    /// Restart length (GMRES only).
    pub restart: usize,
    /// Virtual seconds of local work charged per iteration *in addition to*
    /// the solver's own arithmetic; models the application work (e.g. a
    /// nonlinear residual evaluation) that latency hiding can overlap.
    pub extra_work_per_iter: f64,
    /// Run node-local arithmetic on the portable scalar backend instead of
    /// the default [`resilient_linalg::auto_ops`] selection. Results are
    /// bit-identical either way; this is a speed/debugging knob (the
    /// scalar-fallback CI job forces it process-wide via
    /// `RESILIENT_FORCE_SCALAR`).
    pub force_scalar_ops: bool,
}

impl Default for DistSolveOptions {
    fn default() -> Self {
        Self {
            tol: 1e-8,
            max_iters: 500,
            restart: 30,
            extra_work_per_iter: 0.0,
            force_scalar_ops: false,
        }
    }
}

impl DistSolveOptions {
    /// Builder-style tolerance.
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }
    /// Builder-style iteration cap.
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }
    /// Builder-style restart length.
    pub fn with_restart(mut self, restart: usize) -> Self {
        self.restart = restart;
        self
    }

    /// Builder-style scalar-backend selection (see
    /// [`DistSolveOptions::force_scalar_ops`]).
    pub fn with_scalar_ops(mut self) -> Self {
        self.force_scalar_ops = true;
        self
    }

    /// The node-local compute backend the presets hand their spaces.
    pub fn local_ops(&self) -> &'static dyn resilient_linalg::LocalOps {
        if self.force_scalar_ops {
            resilient_linalg::scalar_ops()
        } else {
            resilient_linalg::auto_ops()
        }
    }

    /// The space every distributed solve over `a` runs in: this backend
    /// choice and `extra_work_per_iter` bound to the communicator.
    pub fn space<'a, 'b, C: CommBackend>(
        &self,
        comm: &'a mut C,
        a: &'b DistCsr,
    ) -> DistSpace<'a, 'b, C> {
        DistSpace::new(comm, a)
            .with_ops(self.local_ops())
            .with_extra_work(self.extra_work_per_iter)
    }

    /// The kernel-level options this carries (`extra_work_per_iter` travels
    /// separately, in [`DistSolveOptions::space`]).
    pub fn solve_options(&self) -> crate::solvers::SolveOptions {
        crate::solvers::SolveOptions::default()
            .with_tol(self.tol)
            .with_max_iters(self.max_iters)
            .with_restart(self.restart)
    }
}

/// Solve `A·x = b` with the composition `spec` — the entry point behind
/// every named single-RHS preset in [`cg`] and [`gmres`]: `spec` under an
/// empty policy stack over [`DistSolveOptions::space`], preconditioned by
/// `m` when one is given.
///
/// # Errors
/// [`RuntimeError::InvalidArgument`](resilient_runtime::RuntimeError),
/// before any collective, if `b` is not distributed like `a`'s rows.
pub fn solve_dist<'a, 'b, C: CommBackend>(
    comm: &'a mut C,
    a: &'b DistCsr,
    b: &DistVector,
    spec: SolveSpec,
    m: Option<&mut dyn SpacePreconditioner<DistSpace<'a, 'b, C>>>,
    opts: &DistSolveOptions,
) -> Result<DistSolveOutcome> {
    let mut space = opts.space(comm, a);
    let (outcome, _report) = solve(
        &mut space,
        b,
        None,
        &opts.solve_options(),
        spec,
        m,
        &mut PolicyStack::empty(),
    )?;
    Ok(outcome)
}
