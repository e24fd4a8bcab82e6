//! The unified Krylov kernel: one iteration core, composable execution
//! spaces, dot strategies and resilience policies.
//!
//! The paper's central claim is that resilient programming models are
//! *orthogonal strategies* an application composes. This module is the
//! architecture that makes that true in code. It decomposes every Krylov
//! solver in the suite into four independent axes:
//!
//! 1. **Space** ([`KrylovSpace`]) — where vectors live, what reductions
//!    cost and where faults are injected: block-distributed vectors over a
//!    communicator ([`DistSpace`]; a serial solve is its 1-rank case).
//! 2. **Dot strategy** — how inner products are scheduled:
//!    modified Gram–Schmidt with immediate dots ([`MgsOrtho`]), classical
//!    Gram–Schmidt with one fused blocking reduction ([`CgsOrtho`]), or the
//!    p(1)-pipelined formulation that overlaps a single nonblocking
//!    reduction with the next SpMV ([`PipelinedOrtho`]). All three run under
//!    one control flow in [`run_gmres`] and charge the same arithmetic for
//!    the same Arnoldi step; they differ only in when the reductions
//!    happen. CG has one kernel,
//!    [`run_block_cg`], whose [`Schedule`] is the same choice — two blocking
//!    reductions or one nonblocking one — for `k ≥ 1` right-hand sides; a
//!    single-RHS CG solve is its `k = 1` case ([`run_cg`] with
//!    [`FusedCgStep`] / [`PipelinedCgStep`] names it under the old strategy
//!    names).
//! 3. **Resilience policies** ([`ResiliencePolicy`], [`PolicyStack`]) —
//!    skeptical invariant checks, ABFT checksum verification, iterate
//!    rollback — attached through hooks (`before_spmv`, `after_spmv`,
//!    `after_precond`, `after_orthogonalization`, `on_iteration`,
//!    `on_failure`) that every iteration engine honours. A detection is
//!    answered with its policy's [`DetectionResponse`], a restart or a
//!    stop.
//! 4. **Preconditioner** ([`SpacePreconditioner`]) — applied through the
//!    space so its cost is charged like any other kernel arithmetic:
//!    [`IdentityPrecond`] (bit-identical to no preconditioning) and the
//!    collective-free distributed [`BlockJacobi`]. The CG kernel applies it
//!    column by column and treats the identity as no preconditioner at all
//!    (no images stored, reduced or charged); GMRES strategies take it
//!    through the flexible right-preconditioning slot ([`RightPrecond`]).
//!
//! Over a [`DistSpace`] the composition is a value: [`solve`] runs a
//! [`SolveSpec`] (method × reduction schedule) with an optional
//! preconditioner and a policy stack, and is the one place a spec becomes a
//! strategy type. Every distributed solve names its composition as data at
//! an entry point that dispatches through it:
//! [`rbsp::solve_dist`](crate::rbsp::solve_dist), the [`compose`] scenarios
//! ([`pipelined_skeptical`]: pipelined solvers *with* SDC detection;
//! FT-GMRES *with* ABFT-checked products — impossible before the kernel)
//! and the [`lflr`] protocol ([`IterateRollbackPolicy`] snapshots through
//! `Comm::persist`, [`lflr_solve`] resumes mid-stream after a rank is
//! killed and replaced). A block solve,
//! [`rbsp::solve_dist_block`](crate::rbsp::solve_dist_block), names a
//! [`Schedule`] for `solve`'s CG arm, [`run_block_cg`]. The serial entry
//! points run over a 1-rank [`DistSpace`]: `solvers::cg` is the fused CG
//! spec there, and `solvers::{gmres,fgmres}`, `srp::ft_gmres` and
//! `skeptical::sdc_gmres` call [`run_gmres`] with the immediate-dot
//! [`MgsOrtho`], under the same stop decisions as every distributed GMRES
//! solve.
//!
//! Every solve is configured by one [`SolveOptions`] and says what happened
//! in one vocabulary: a single-RHS solve returns a [`KernelOutcome`] (over
//! a [`DistSpace`], the outcome of every distributed solve), a block solve
//! a [`BlockOutcome`], both with a [`KernelReport`]
//! whose [`PolicyOverhead`] entries are each policy's only record. When a
//! solve aborts on a detected corruption, the final verification residual
//! is charged to the solver.

pub mod block;
pub mod cache;
pub mod cg;
pub mod compose;
pub mod gmres;
pub mod guard;
pub mod lflr;
pub mod policy;
pub mod precond;
pub mod skeptic;
pub mod space;
pub mod spec;

pub use block::{run_block_cg, BlockOutcome};
pub use cache::SetupCache;
pub use cg::{run_cg, CgStep, FusedCgStep, PipelinedCgStep};
pub use compose::{
    ft_gmres_abft, pipelined_skeptical, pipelined_skeptical_cg, AbftSpmvPolicy, ComposedDistReport,
};
pub use gmres::{
    run_gmres, CgsOrtho, FlexibleRight, GmresCycle, GmresFlavor, MgsOrtho, OrthoStrategy,
    PipelinedOrtho, StepOutcome,
};
pub use guard::PrecondGuardPolicy;
pub use lflr::{lflr_pipelined_pcg, lflr_solve, KrylovLflrConfig, KrylovLflrReport};
pub use policy::{
    snapshot_key, snapshot_ring, CheckDot, CheckDotBatch, CheckOperand, CheckVectors,
    DetectionResponse, FailureEvent, IterCtx, IterateRollbackPolicy, NoopPolicy, PolicyAction,
    PolicyOverhead, PolicyStack, RecoveryAction, ResiliencePolicy, SolutionProbe, StackOutcome,
};
pub use precond::{BlockJacobi, IdentityPrecond, RightPrecond, SpacePreconditioner};
pub use skeptic::{SkepticalConfig, SkepticalPolicy};
pub use space::{DistSpace, KrylovSpace, PipelinedSweep, SpmvFault, ThreadSpace};
/// [`Schedule`] under the name the block kernel introduced it by; kept for
/// the frozen `perf_ledger` benchmark, which imports it.
pub use spec::Schedule as BlockCgMode;
pub use spec::{solve, Method, Schedule, SolveOptions, SolveSpec, StopReason};

use policy::IterCtx as Ctx;

/// `√v` of a reduced sum of squares, with roundoff below zero read as zero
/// — but a NaN stays NaN, so a poisoned reduction can never pass for a zero
/// residual (`f64::max` would return the operand that is not NaN).
pub(crate) fn sqrt_nonneg(v: f64) -> f64 {
    if v.is_nan() {
        v
    } else {
        v.max(0.0).sqrt()
    }
}

/// Result of a single-RHS kernel solve, generic over the vector type of
/// the space it ran in; over a [`DistSpace`] it is what every distributed
/// solve returns.
#[derive(Debug, Clone)]
pub struct KernelOutcome<V> {
    /// Final iterate (per rank: this rank's part).
    pub x: V,
    /// Iterations performed (total, across restarts).
    pub iterations: usize,
    /// Final relative residual: the true one or the recurrence estimate,
    /// whichever the method's last stop decision read.
    pub relative_residual: f64,
    /// Whether `relative_residual` met the solve's tolerance.
    pub converged: bool,
    /// Why the solve stopped.
    pub reason: StopReason,
    /// Relative residual after each iteration.
    pub history: Vec<f64>,
}

impl<V> KernelOutcome<V> {
    /// The outcome with `converged` judged against `tol` instead of the
    /// solve's own tolerance. Kept for the frozen `perf_ledger`, which
    /// calls it.
    pub fn into_dist_outcome(mut self, tol: f64) -> Self {
        self.converged = self.relative_residual <= tol;
        self
    }
}

/// Mutable solve-progress state shared between the kernel and its iteration
/// strategies.
#[derive(Debug, Clone)]
pub struct SolveProgress {
    /// Iterations performed so far.
    pub iterations: usize,
    /// Steps completed in the current restart cycle.
    pub cycle_step: usize,
    /// Restart-cycle index.
    pub cycle: usize,
    /// Current relative residual.
    pub relres: f64,
    /// Solve tolerance.
    pub tol: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// ‖b‖ (floored at `f64::MIN_POSITIVE`).
    pub bn: f64,
    /// Relative residual history.
    pub history: Vec<f64>,
}

impl SolveProgress {
    fn new(tol: f64, max_iters: usize, bn: f64) -> Self {
        Self {
            iterations: 0,
            cycle_step: 0,
            cycle: 0,
            relres: f64::INFINITY,
            tol,
            max_iters,
            bn,
            history: Vec::new(),
        }
    }

    /// The read-only hook context for the current state.
    pub fn ctx(&self) -> Ctx {
        Ctx {
            iteration: self.iterations,
            cycle_step: self.cycle_step,
            cycle: self.cycle,
            relres: self.relres,
            tol: self.tol,
        }
    }
}

/// Aggregate report of one kernel solve beyond the outcome: flexible
/// preconditioning statistics and per-policy overhead.
#[derive(Debug, Clone, Default)]
pub struct KernelReport {
    /// Flexible (inner) preconditioner applications.
    pub inner_applications: usize,
    /// Inner results rejected by the outer skeptical validity check.
    pub rejected_inner_results: usize,
    /// Cycle restarts caused by policy detections.
    pub policy_restarts: usize,
    /// Rollbacks performed by `on_failure` recovery policies.
    pub failure_recoveries: usize,
    /// Per-policy overhead, in stack order (filled when the solve returns).
    pub policy_overhead: Vec<PolicyOverhead>,
}
