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
    run_block_cg, solve, BlockOutcome, DistSpace, KernelOutcome, PolicyStack, Schedule,
    SolveOptions, SolveSpec, SpacePreconditioner,
};

/// Outcome of a distributed single-RHS solve (per rank; the solution is
/// distributed). Kept for the frozen `perf_ledger`, which names it.
pub type DistSolveOutcome = KernelOutcome<DistVector>;

/// The options of a distributed solve: [`SolveOptions`], under the name
/// this module introduced. Kept for the frozen `perf_ledger`, which
/// imports it.
pub type DistSolveOptions = SolveOptions;

/// Solve `A·x = b` with the composition `spec`: `spec` under an empty
/// policy stack over [`SolveOptions::space`], preconditioned by `m`
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
    opts: &SolveOptions,
) -> Result<DistSolveOutcome> {
    let mut space = opts.space(comm, a);
    let (outcome, _report) = solve(
        &mut space,
        b,
        None,
        opts,
        spec,
        m,
        &mut PolicyStack::empty(),
    )?;
    Ok(outcome)
}

/// Solve the `k = b.k()` systems `A·X = B` with the block CG kernel
/// ([`run_block_cg`]) under `schedule` × empty policy stack over
/// [`SolveOptions::space`]. All columns advance in lockstep with
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
    opts: &SolveOptions,
) -> Result<BlockOutcome> {
    let mut space = opts.space(comm, a);
    let policies = &mut PolicyStack::empty();
    let (outcome, _report) = run_block_cg(&mut space, b, None, opts, schedule, m, policies)?;
    Ok(outcome)
}
