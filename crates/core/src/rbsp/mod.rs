//! Relaxed bulk-synchronous programming (RBSP): latency-tolerant Krylov
//! solvers built on the runtime's asynchronous collectives (§II-B, §III-B).
//!
//! A distributed solve names its composition as data: [`solve_dist`] runs a
//! [`SolveSpec`] (CG or GMRES × fused or pipelined schedule) with an
//! optional preconditioner, [`solve_dist_block`] runs the block CG kernel
//! under a [`Schedule`]. The bulk-synchronous schedule blocks on its global
//! reductions; the pipelined one — Ghysels–Vanroose single-reduction CG,
//! the p(1)-pipelined GMRES of Ghysels, Ashby, Meerbergen & Vanroose cited
//! by the paper — does *the same arithmetic* (up to roundoff and the usual
//! stability caveats) but posts its reductions as nonblocking collectives
//! and overlaps them with the next sparse matrix-vector product, so per-rank
//! noise and collective latency are hidden rather than amplified.
//!
//! The named functions left in [`cg`] and [`gmres`] are one-line calls of
//! these two entry points, kept for the frozen `perf_ledger`.

pub mod cg;
pub mod gmres;

use resilient_runtime::{CommBackend, Result};

use crate::distributed::{DistCsr, DistMultiVector, DistVector};
use crate::kernel::{
    run_block_cg, solve, BlockOutcome, DistSpace, KernelOutcome, PolicyStack, Schedule, SolveSpec,
    SpacePreconditioner,
};

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

/// Solve `A·x = b` with the composition `spec`: `spec` under an empty
/// policy stack over [`DistSolveOptions::space`], preconditioned by `m`
/// when one is given. [`SolveSpec::FUSED_CG`] is classical CG (two blocking
/// all-reduces per iteration), [`SolveSpec::FUSED_GMRES`] classical
/// Gram–Schmidt GMRES (two blocking all-reduces), the `PIPELINED_*` specs
/// their single-nonblocking-reduction twins; a collective-free
/// preconditioner such as [`BlockJacobi`](crate::kernel::BlockJacobi) adds
/// zero collectives, and [`IdentityPrecond`](crate::kernel::IdentityPrecond)
/// is bit-identical to `None`.
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

/// Solve the `k = b.k()` systems `A·X = B` with the block CG kernel
/// ([`run_block_cg`]) under `schedule` × empty policy stack over
/// [`DistSolveOptions::space`]. All columns advance in lockstep with
/// **one** SpMM sweep per iteration and the collective count of the
/// single-RHS schedule — two blocking all-reduces under
/// [`Schedule::Fused`], one nonblocking one under [`Schedule::Pipelined`] —
/// independent of `k`. Converged columns freeze (no further arithmetic
/// charges) but keep their payload slots, so the schedule stays
/// rank-symmetric. At `k = 1` it is [`solve_dist`] with the matching CG
/// spec.
///
/// # Errors
/// [`RuntimeError::InvalidArgument`](resilient_runtime::RuntimeError),
/// before any collective, if `b` is malformed or not distributed like
/// `a`'s rows.
pub fn solve_dist_block<'a, 'b, C: CommBackend>(
    comm: &'a mut C,
    a: &'b DistCsr,
    b: &DistMultiVector,
    schedule: Schedule,
    m: &mut dyn SpacePreconditioner<DistSpace<'a, 'b, C>>,
    opts: &DistSolveOptions,
) -> Result<BlockOutcome> {
    let mut space = opts.space(comm, a);
    let (outcome, _report) = run_block_cg(
        &mut space,
        b,
        None,
        &opts.solve_options(),
        schedule,
        m,
        &mut PolicyStack::empty(),
    )?;
    Ok(outcome)
}
