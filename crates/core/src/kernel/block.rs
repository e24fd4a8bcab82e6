//! The conjugate-gradient kernel: preconditioned CG on `k ≥ 1` right-hand
//! sides at once, with one operator sweep and **one** collective per
//! reduction point serving every column, so the per-iteration collective
//! count is independent of the batch width `k`.
//!
//! This is the suite's only CG recurrence. A single-RHS solve —
//! [`kernel::solve`](super::solve) with a CG spec, the `rbsp::cg` presets,
//! the serial `solvers::cg`, the LFLR and composed scenarios — is the
//! `k = 1` case: `b` and `x0` become one-column multi-vectors and the
//! iterate is moved back out. [`run_cg`](super::run_cg) is an adapter onto
//! the same call.
//!
//! The paper's cost model makes allreduce latency the scaling wall of the
//! recurrence (§II-B); the "millions of users" workload it motivates solves
//! *many* right-hand sides against few operators. [`Schedule::Fused`] is the
//! bulk-synchronous recurrence with **two blocking batched reductions** per
//! iteration (`p·Ap`, then `r·z` with `r·r`); [`Schedule::Pipelined`] is
//! the Ghysels–Vanroose recurrence with **one nonblocking batched
//! reduction** (`γ = r·u`, `δ = w·u`, `‖r‖²`) posted before the overlapped
//! preconditioner applies and SpMM. Preconditioned, both run the z-shifted
//! recurrences, so preconditioning changes neither schedule's collective
//! count.
//!
//! **Lane width is part of the spec.** Every column runs exactly the
//! single-RHS recurrence — backends only amortize memory traffic and
//! collective latency, never reassociate across columns — so each column is
//! bit-identical (iterates, residual history, collective schedule) to
//! solving its right-hand side alone.
//!
//! **Convergence masking.** Columns converge (or break down)
//! independently. A finished column *freezes*: its iterate, recurrence
//! vectors and preconditioner applies stop — it no longer charges
//! arithmetic — but its slots stay in every reduction payload, so every
//! rank posts identical collectives in identical order (the repo's
//! collective-symmetry rule). Frozen slots carry stale-but-deterministic
//! partials: the freeze decision is made from globally reduced scalars,
//! hence rank-symmetric.
//!
//! **One pass per pipelined iteration.** The recurrence updates of a column
//! run as one backend sweep that also leaves the column's next dot partials
//! behind; the following step posts those carried partials instead of
//! re-reading `r`, `u`, `w`. Every `build_state` drops them (the first step
//! after it recomputes); frozen columns keep theirs.
//!
//! **The identity is the unpreconditioned route.** Under a preconditioner
//! whose [`is_identity`](SpacePreconditioner::is_identity) holds — and with
//! none, which `kernel::solve` passes as [`IdentityPrecond`] — the `M⁻¹`
//! images would be bitwise copies (`z = r`; `u = r`, `mw = w`, `q = s`), so
//! the kernel stores none of them and reads `r`/`w`/`s` in their place. It
//! also reduces no duplicate of them: the fused second reduction carries
//! `r·r` alone, the pipelined reduction `[r·r | w·r]` per column (no third
//! `‖r‖²` slot, which would equal `γ` bit for bit), and the six-vector
//! sweep ([`LocalOps::pipelined_cg_sweep`]) charges twelve flops per row
//! instead of sixteen. A preconditioner that copies without saying so takes
//! the general route to the same bits, at the general route's charges.
//!
//! [`IdentityPrecond`]: super::IdentityPrecond
//! [`LocalOps::pipelined_cg_sweep`]: resilient_linalg::LocalOps::pipelined_cg_sweep
//!
//! **Policy integration.** The [`PolicyStack`] hooks run at fixed points of
//! each step (`before_spmv`, `after_spmv`, `after_precond` for every
//! in-iteration preconditioner apply but the identity's, `on_iteration`),
//! and every recurrence (re)build is a cycle start (`on_cycle_start` with
//! the consistent iterate — the persistence point of rollback policies).
//! Hooks take single vectors, so they see *views* of column 0. At `k = 1` a
//! view is the column itself: its buffer is swapped into the view for the
//! hook and swapped back after — O(1), no copy — so a policy reads, and
//! `on_failure` restores, the kernel's own vector. At `k > 1` a view is a
//! copy of column 0, refreshed only when a policy is stacked; columns
//! `c > 0` are not guarded. Check dots ride the batched reductions
//! (wants-dots fusion), so detection adds zero collectives per iteration.
//! The fused schedule always fuses its first reduction, so its `after_spmv`
//! hook runs after that reduction even when no policy requests a check dot:
//! a policy that acts there pays the reduction first, and nothing else
//! changes.
//!
//! CG has no Arnoldi cycle to discard: on a detection whose response is
//! `Restart` the kernel rebuilds the recurrence from the current iterate
//! (the residual recompute plus the schedule's set-up applications; a
//! corrupted-but-finite iterate is just a worse initial guess), capped at
//! `max_iters` rebuilds; `Abort` stops the solve with `CorruptionDetected`.
//! A `Diverged` step
//! consults the stack's `on_failure` hook before terminating — a rollback
//! policy that restores a consistent iterate turns divergence into a
//! rebuild, capped the same way.
//!
//! **Faults fire in the SpMM.** Every [`DistSpace::apply_block_into`] counts
//! one application ordinal and fires a planned [`SpmvFault`](super::SpmvFault)
//! and the campaign's SpMV strike plan through the same strike point as the
//! single-vector apply — at `k = 1` the ordinals and struck elements are
//! those of a single-RHS solve. At `k > 1` a strike lands in column 0.

use std::mem;

use resilient_runtime::{CommBackend, Result, RuntimeError};

use super::policy::{
    CheckDotBatch, CheckVectors, DetectionResponse, FailureEvent, IterCtx, PolicyStack,
    RecoveryAction, SolutionProbe, StackOutcome,
};
use super::precond::SpacePreconditioner;
use super::space::{DistSpace, KrylovSpace, PipelinedSweep};
use super::spec::{Schedule, SolveOptions, StopReason};
use super::{sqrt_nonneg, KernelOutcome, KernelReport, SolveProgress};
use crate::distributed::{DistMultiVector, DistVector};

/// Result of one block solve ([`run_block_cg`],
/// [`rbsp::solve_dist_block`](crate::rbsp::solve_dist_block)): the
/// final block iterate plus per-column convergence data. Columns converge
/// independently (masking), so each has its own iteration count, residual
/// and history.
#[derive(Debug, Clone)]
pub struct BlockOutcome {
    /// Final block iterate (all `k` columns).
    pub x: DistMultiVector,
    /// Iterations the solve performed (the batch advances in lockstep).
    pub iterations: usize,
    /// Iteration at which each column froze (converged or broke down);
    /// columns still active at the end report the total iteration count.
    pub column_iterations: Vec<usize>,
    /// Final relative residual of each column (recurrence estimate).
    pub relative_residuals: Vec<f64>,
    /// Did each column meet the tolerance?
    pub converged: Vec<bool>,
    /// Why the solve as a whole stopped.
    pub reason: StopReason,
    /// Per-column relative-residual history (entries stop at the freeze).
    pub histories: Vec<Vec<f64>>,
}

impl BlockOutcome {
    /// The outcome itself. Kept for the frozen `perf_ledger`, which calls it.
    pub fn into_block_solve_outcome(self) -> Self {
        self
    }

    /// Did every column meet the tolerance?
    pub fn all_converged(&self) -> bool {
        self.converged.iter().all(|&c| c)
    }

    /// Split into `k` single-RHS outcomes (consuming the block).
    pub fn into_columns(self) -> Vec<KernelOutcome<DistVector>> {
        let (x, reason) = (self.x, self.reason);
        self.column_iterations
            .into_iter()
            .zip(self.relative_residuals)
            .zip(self.converged)
            .zip(self.histories)
            .enumerate()
            .map(
                |(c, (((iterations, relative_residual), converged), history))| KernelOutcome {
                    x: x.column(c),
                    iterations,
                    relative_residual,
                    converged,
                    // Columns short of the tolerance share the batch's.
                    reason: if converged {
                        StopReason::Converged
                    } else {
                        reason
                    },
                    history,
                },
            )
            .collect()
    }

    /// A one-column outcome as a single-RHS kernel outcome, the iterate and
    /// the history moved out without a copy.
    pub(crate) fn into_single(mut self) -> KernelOutcome<DistVector> {
        KernelOutcome {
            iterations: self.iterations,
            relative_residual: self.relative_residuals[0],
            converged: self.converged[0],
            reason: self.reason,
            history: self.histories.swap_remove(0),
            x: self.x.into_vector(),
        }
    }
}

/// What one block iteration decided.
enum BlockStep {
    Continue,
    /// Every column is frozen: Converged if all met the tolerance,
    /// Breakdown otherwise.
    AllFrozen,
    /// A still-active column produced a non-finite residual (pipelined
    /// mode).
    Diverged,
    Detected(DetectionResponse),
}

impl From<StackOutcome> for BlockStep {
    fn from(out: StackOutcome) -> Self {
        match out {
            StackOutcome::Act(resp) => BlockStep::Detected(resp),
            StackOutcome::Continue => BlockStep::Continue,
        }
    }
}

/// Per-column solve status. Columns never unfreeze.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    Active,
    Converged,
    /// The column's recurrence broke down (`p·Ap ≤ 0`, non-finite α);
    /// frozen with `converged = false`.
    Broken,
}

/// The recurrence vectors and scalars of one block solve. Fused mode uses
/// `r`, `z = M⁻¹r`, `p` and the per-column `rz`/`rr`; pipelined mode adds
/// [`PipelinedState`].
struct BlockState {
    r: DistMultiVector,
    /// `z = M⁻¹r` (fused mode); `None` under the identity, where `r` is
    /// read in its place, and in pipelined mode.
    z: Option<DistMultiVector>,
    p: DistMultiVector,
    /// The SpMM product of the current step — `A·p` (fused) or `A·mw`
    /// (pipelined; `A·w` under the identity) — written in place every
    /// iteration.
    ap: DistMultiVector,
    pipe: Option<PipelinedState>,
    /// `r·z` per column (fused mode) — drives α and β.
    rz: Vec<f64>,
    /// `r·r` per column (fused mode) — drives the convergence test.
    rr: Vec<f64>,
    gamma_old: Vec<f64>,
    alpha_old: Vec<f64>,
    /// True until the first completed step after a (re-)initialization:
    /// every column takes the β = 0 branch again after a rebuild, and a
    /// pipelined step has no carried dot partials yet.
    fresh: bool,
}

/// What the pipelined recurrence maintains on top of `r`, `p`: `w = A·u`,
/// `s` (tracking `A·p`), `z` (tracking `A·q`) and, unless the
/// preconditioner is the identity, the images `u`, `mw`, `q`.
struct PipelinedState {
    w: DistMultiVector,
    z: DistMultiVector,
    s: DistMultiVector,
    /// `None` under the identity: `u = r`, `mw = w`, `q = s` are read
    /// there.
    images: Option<PrecondImages>,
    /// Local partials `[r·u | w·u | r·r]` (identity: `[r·r | w·r]`), `k`
    /// each, of the *current* `r`, `u`, `w`: the sweep that last updated a
    /// column left that column's slots behind, so the next step posts them
    /// without re-reading the vectors. Recomputed from the vectors on the
    /// first step after every `build_state` (`fresh`); a frozen column's
    /// vectors stop changing, so its slots stay valid as they are.
    dots: Vec<f64>,
}

/// The pipelined recurrence's `M⁻¹` images under a preconditioner that is
/// not the identity.
struct PrecondImages {
    /// `u = M⁻¹r`.
    u: DistMultiVector,
    /// `mw = M⁻¹w`, this iteration's preconditioner applies.
    mw: DistMultiVector,
    /// `q = M⁻¹s`.
    q: DistMultiVector,
}

/// Evaluates the true residual of the iterate's column-0 view (CG updates
/// `x` every iteration, so no trial correction is needed) against column 0
/// of `b`, in a scratch vector the solve keeps.
struct BlockProbe<'g> {
    b: &'g [f64],
    x: &'g DistVector,
    bn: f64,
    iteration: usize,
    r: &'g mut DistVector,
}

impl<'g, 'a, 'b, C: CommBackend> SolutionProbe<DistSpace<'a, 'b, C>> for BlockProbe<'g> {
    fn local_len(&self, space: &DistSpace<'a, 'b, C>) -> usize {
        space.local_len(self.x)
    }

    fn iterate(&self) -> &DistVector {
        self.x
    }

    fn iterate_step(&self) -> usize {
        self.iteration
    }

    fn trial_true_relres(&mut self, space: &mut DistSpace<'a, 'b, C>) -> Result<f64> {
        space.apply_into(self.x, self.r)?;
        space.ops().xpby(self.b, -1.0, &mut self.r.local);
        let rn = space.norm(self.r)?;
        Ok(rn / self.bn)
    }
}

/// How the hooks' column-0 views are filled: not at all (empty stack), by
/// swapping the column's buffer in (`k = 1`), or by copying it (`k > 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lend {
    Off,
    Swap,
    Copy,
}

impl Lend {
    /// Make `view` show column 0 of `v`. Under `Swap` `v` is left holding
    /// the view's old (empty) buffer until [`Lend::give_back`].
    fn lend(self, view: &mut DistVector, v: &mut DistMultiVector) {
        match self {
            Lend::Off => {}
            Lend::Swap => mem::swap(&mut view.local, &mut v.local),
            Lend::Copy => view.local.copy_from_slice(v.col(0)),
        }
    }

    /// Undo [`Lend::lend`]: under `Swap` the column gets its buffer back —
    /// with whatever a policy wrote into it.
    fn give_back(self, view: &mut DistVector, v: &mut DistMultiVector) {
        if self == Lend::Swap {
            mem::swap(&mut view.local, &mut v.local);
        }
    }
}

/// Negotiate the policy check tail of a batched reduction against the
/// column-0 views: the bookkeeping for `consume_check_dots` and the pairs
/// to reduce. The stack stays borrowed until the pairs are dropped.
fn check_tail<'v, S: KrylovSpace<Vector = DistVector>>(
    policies: &'v mut PolicyStack<'_, S>,
    space: &S,
    ctx: &IterCtx,
    in_g: &'v DistVector,
    out_g: &'v DistVector,
) -> (CheckDotBatch, Vec<(&'v DistVector, &'v DistVector)>) {
    let avail = CheckVectors {
        spmv_input: Some(in_g),
        spmv_product: Some(out_g),
        basis_pair: None,
    };
    // lint:allow(hot-loop-alloc): O(#check pairs) list of references into the
    // views and the policies, so it cannot outlive the step; it stays empty
    // (no heap) under an empty stack.
    let mut pairs = Vec::new();
    let batch = policies.collect_check_dots(space, ctx, &avail, &mut pairs);
    (batch, pairs)
}

/// One solve's working set: the space, the preconditioner, per-column
/// bookkeeping and every reusable buffer (views, staging vectors, reduction
/// partials, per-column coefficient arrays). The recurrence vectors live in
/// [`BlockState`] so the borrow checker can split them from it.
struct BlockCg<'s, 'a, 'b, 'm, C: CommBackend> {
    space: &'s mut DistSpace<'a, 'b, C>,
    /// The right-hand sides.
    b: &'s DistMultiVector,
    m: &'m mut dyn SpacePreconditioner<DistSpace<'a, 'b, C>>,
    /// `m.is_identity()`, read once: no `M⁻¹` image is stored, applied,
    /// reduced or hooked.
    identity: bool,
    k: usize,
    /// ‖b_c‖ per column, floored at `f64::MIN_POSITIVE`.
    bn: Vec<f64>,
    lanes: Vec<Lane>,
    relres: Vec<f64>,
    col_iters: Vec<usize>,
    histories: Vec<Vec<f64>>,
    /// Local-partials buffer handed to the batched reductions.
    partials: Vec<f64>,
    /// The solver partials of the fused `p·Ap` reduction, `k` of them.
    pap: Vec<f64>,
    alphas: Vec<f64>,
    betas: Vec<f64>,
    /// Staging views `(in, out)` for preconditioners without a slice-level
    /// apply, made on first use.
    staging: Option<(DistVector, DistVector)>,
    lend: Lend,
    /// Column-0 views for the policy hooks — an SpMV (or preconditioner)
    /// input and output, the iterate — and the probe's residual buffer.
    in_g: DistVector,
    out_g: DistVector,
    xg: DistVector,
    rg: DistVector,
}

impl<'s, 'a, 'b, 'm, C: CommBackend> BlockCg<'s, 'a, 'b, 'm, C> {
    fn active_count(&self) -> usize {
        self.lanes.iter().filter(|&&l| l == Lane::Active).count()
    }

    fn freeze(&mut self, c: usize, to: Lane, at_iter: usize) {
        self.lanes[c] = to;
        self.col_iters[c] = at_iter;
    }

    /// Worst relative residual over the active columns (over all columns
    /// once everything froze) — the scalar the hook context reports. At
    /// `k = 1` this is exactly the single column's residual, NaN included.
    fn worst_relres(&self) -> f64 {
        let mut worst = f64::NEG_INFINITY;
        let mut any = false;
        for c in 0..self.k {
            if self.lanes[c] == Lane::Active {
                any = true;
                if self.relres[c].is_nan() {
                    return f64::NAN;
                }
                worst = worst.max(self.relres[c]);
            }
        }
        if !any {
            worst = self.relres.iter().fold(f64::NEG_INFINITY, |a, &v| a.max(v));
        }
        worst
    }

    /// The stop reason once every column is frozen.
    fn frozen_reason(&self) -> StopReason {
        if self.lanes.iter().all(|&l| l == Lane::Converged) {
            StopReason::Converged
        } else {
            StopReason::Breakdown
        }
    }

    /// `z[c] ← M⁻¹·r[c]` for every **active** column, column slice to
    /// column slice where the preconditioner can, through the
    /// single-vector staging views where it cannot (each apply charges
    /// exactly like a single-vector apply; frozen columns skip theirs).
    fn precond_active_into(&mut self, r: &DistMultiVector, z: &mut DistMultiVector) -> Result<()> {
        for c in 0..self.k {
            if self.lanes[c] != Lane::Active {
                continue;
            }
            if !self
                .m
                .apply_local_into(self.space, r.col(c), z.col_mut(c))?
            {
                let (rc, zc) = self
                    .staging
                    .get_or_insert_with(|| (r.column(c), r.column(c)));
                rc.local.copy_from_slice(r.col(c));
                self.m.apply_into(self.space, rc, zc)?;
                z.col_mut(c).copy_from_slice(&zc.local);
            }
        }
        Ok(())
    }

    /// `M⁻¹·r` on the active columns into a new multi-vector, or `None`
    /// under the identity, whose image is `r` itself.
    fn precond_image(&mut self, r: &DistMultiVector) -> Result<Option<DistMultiVector>> {
        if self.identity {
            return Ok(None);
        }
        let mut z = DistMultiVector::zeros_like(r);
        self.precond_active_into(r, &mut z)?;
        Ok(Some(z))
    }

    /// Batched reduction of `r·z` and `r·r` per column — of `r·r` alone
    /// under the identity, where `z = r` — and the offset of the `r·r`
    /// slots in it (the `r·z` slots start at 0).
    fn reduce_rz_rr(
        &mut self,
        r: &DistMultiVector,
        z: Option<&DistMultiVector>,
        active: usize,
    ) -> Result<(Vec<f64>, usize)> {
        let (k, partials) = (self.k, &mut self.partials);
        Ok(match z {
            None => (
                self.space.block_dots(k, &[(r, r)], &[], active, partials)?,
                0,
            ),
            Some(z) => (
                self.space
                    .block_dots(k, &[(r, z), (r, r)], &[], active, partials)?,
                k,
            ),
        })
    }

    /// Run the after-preconditioner hook on the views of column 0 of `r`
    /// and its image `z`.
    fn after_precond(
        &mut self,
        st: &SolveProgress,
        r: &mut DistMultiVector,
        z: &mut DistMultiVector,
        policies: &mut PolicyStack<'_, DistSpace<'a, 'b, C>>,
    ) -> Result<BlockStep> {
        self.lend.lend(&mut self.in_g, r);
        self.lend.lend(&mut self.out_g, z);
        let out = policies.after_precond(self.space, &st.ctx(), &self.in_g, &self.out_g);
        self.lend.give_back(&mut self.out_g, z);
        self.lend.give_back(&mut self.in_g, r);
        Ok(out?.into())
    }

    /// (Re)build the recurrence from the current iterate. Frozen columns
    /// get consistent residuals recomputed (they sit in reduction payloads)
    /// but skip preconditioner applies and stay frozen.
    fn build_state(
        &mut self,
        mode: Schedule,
        st: &mut SolveProgress,
        x: &DistMultiVector,
    ) -> Result<BlockState> {
        let (k, b) = (self.k, self.b);
        let active = self.active_count();
        let zeros = || DistMultiVector::zeros_like(b);
        let mut ap = zeros();
        self.space.apply_block_into(x, active, &mut ap)?;
        let mut r = b.clone();
        for c in 0..k {
            self.space.axpy_col(-1.0, &ap, &mut r, c);
        }
        let mut state = BlockState {
            r,
            z: None,
            p: zeros(),
            ap,
            pipe: None,
            rz: Vec::new(),
            rr: Vec::new(),
            gamma_old: vec![0.0; k],
            alpha_old: vec![0.0; k],
            fresh: true,
        };
        match mode {
            Schedule::Fused => {
                state.z = self.precond_image(&state.r)?;
                // One batched reduction for every column's r·z and r·r.
                let (vals, rr) = self.reduce_rz_rr(&state.r, state.z.as_ref(), active)?;
                state.rz = vals[..k].to_vec();
                state.rr = vals[rr..rr + k].to_vec();
                let z = state.z.as_ref().unwrap_or(&state.r);
                state.p.local.copy_from_slice(&z.local);
                for c in 0..k {
                    if self.lanes[c] == Lane::Active {
                        self.relres[c] = state.rr[c].sqrt() / self.bn[c];
                        self.histories[c].push(self.relres[c]);
                    }
                }
            }
            Schedule::Pipelined => {
                let u = self.precond_image(&state.r)?;
                let mut w = zeros();
                self.space
                    .apply_block_into(u.as_ref().unwrap_or(&state.r), active, &mut w)?;
                for c in 0..k {
                    if self.lanes[c] == Lane::Active {
                        self.relres[c] = f64::INFINITY;
                    }
                }
                let slots = if u.is_some() { 3 } else { 2 };
                state.pipe = Some(PipelinedState {
                    w,
                    z: zeros(),
                    s: zeros(),
                    images: u.map(|u| PrecondImages {
                        u,
                        mw: zeros(),
                        q: zeros(),
                    }),
                    dots: vec![0.0; slots * k],
                });
            }
        }
        st.relres = self.worst_relres();
        Ok(state)
    }

    /// [`build_state`](Self::build_state) plus what follows every (re)start
    /// of the recurrence: the `on_cycle_start` hook on the iterate's view
    /// and the pre-loop convergence check, per column. Returns the state
    /// and whether any column is still active.
    fn start_cycle(
        &mut self,
        mode: Schedule,
        st: &mut SolveProgress,
        x: &mut DistMultiVector,
        policies: &mut PolicyStack<'_, DistSpace<'a, 'b, C>>,
    ) -> Result<(BlockState, bool)> {
        let state = self.build_state(mode, st, x)?;
        self.lend.lend(&mut self.xg, x);
        let hooked = policies.on_cycle_start(self.space, &st.ctx(), &self.xg);
        self.lend.give_back(&mut self.xg, x);
        hooked?;
        for c in 0..self.k {
            if self.lanes[c] == Lane::Active && self.relres[c] <= st.tol {
                self.freeze(c, Lane::Converged, st.iterations);
            }
        }
        Ok((state, self.active_count() > 0))
    }

    /// The `on_iteration` hook at the end of a completed step, on the
    /// iterate's view.
    fn end_of_iteration(
        &mut self,
        st: &SolveProgress,
        x: &mut DistMultiVector,
        policies: &mut PolicyStack<'_, DistSpace<'a, 'b, C>>,
    ) -> Result<BlockStep> {
        self.lend.lend(&mut self.xg, x);
        let mut probe = BlockProbe {
            b: self.b.col(0),
            x: &self.xg,
            bn: self.bn[0],
            iteration: st.iterations,
            r: &mut self.rg,
        };
        let out = policies.on_iteration(self.space, &st.ctx(), &mut probe);
        self.lend.give_back(&mut self.xg, x);
        Ok(out?.into())
    }

    /// Consult the stack about a divergence, on the iterate's view; `true`
    /// if a policy restored `x` and asks for a rebuild.
    fn on_failure(
        &mut self,
        st: &SolveProgress,
        x: &mut DistMultiVector,
        policies: &mut PolicyStack<'_, DistSpace<'a, 'b, C>>,
    ) -> bool {
        self.lend.lend(&mut self.xg, x);
        let restart = policies.on_failure(&st.ctx(), FailureEvent::Divergence, &mut self.xg)
            == RecoveryAction::Restart;
        self.lend.give_back(&mut self.xg, x);
        if restart && self.lend == Lend::Copy {
            x.col_mut(0).copy_from_slice(&self.xg.local);
        }
        restart
    }

    /// One fused-mode iteration: batched reduction #1 carries every
    /// column's `p·Ap` plus the policy check tail, batched reduction #2
    /// every column's `r·z` and `r·r` — two collectives regardless of `k`.
    fn step_fused(
        &mut self,
        st: &mut SolveProgress,
        state: &mut BlockState,
        x: &mut DistMultiVector,
        policies: &mut PolicyStack<'_, DistSpace<'a, 'b, C>>,
    ) -> Result<BlockStep> {
        let k = self.k;
        let n = state.r.local_rows();
        // Convergence is evaluated at the top of the loop from the
        // previous iteration's reduction, per column.
        for c in 0..k {
            if self.lanes[c] == Lane::Active {
                self.relres[c] = state.rr[c].sqrt() / self.bn[c];
                if self.relres[c] <= st.tol {
                    self.freeze(c, Lane::Converged, st.iterations);
                }
            }
        }
        st.relres = self.worst_relres();
        let active = self.active_count();
        if active == 0 {
            return Ok(BlockStep::AllFrozen);
        }
        self.space.advance_extra_work()?;
        self.lend.lend(&mut self.in_g, &mut state.p);
        let before = policies.before_spmv(self.space, &st.ctx(), &self.in_g);
        self.lend.give_back(&mut self.in_g, &mut state.p);
        if let StackOutcome::Act(resp) = before? {
            return Ok(BlockStep::Detected(resp));
        }
        self.space
            .apply_block_into(&state.p, active, &mut state.ap)?;
        // Batched reduction #1, always fused: [p·Ap per column] + the
        // policy check tail in one collective. The solver partials are
        // taken before the views borrow `p` and `Ap`.
        self.pap.resize(k, 0.0);
        self.space
            .block_dot_partials(k, &[(&state.p, &state.ap)], &mut self.pap);
        self.lend.lend(&mut self.in_g, &mut state.p);
        self.lend.lend(&mut self.out_g, &mut state.ap);
        let reduced = {
            let (batch, check_pairs) =
                check_tail(policies, &*self.space, &st.ctx(), &self.in_g, &self.out_g);
            let vals = self.space.reduce_carried_block_dots(
                k,
                &self.pap,
                n,
                &check_pairs,
                active,
                &mut self.partials,
            );
            drop(check_pairs);
            vals.map(|vals| (batch, vals))
        };
        let after = reduced.and_then(|(batch, vals)| {
            policies.consume_check_dots(&st.ctx(), &batch, &vals[k..]);
            let after = policies.after_spmv(self.space, &st.ctx(), &self.in_g, &self.out_g)?;
            Ok((vals, after))
        });
        self.lend.give_back(&mut self.out_g, &mut state.ap);
        self.lend.give_back(&mut self.in_g, &mut state.p);
        let (vals, after) = after?;
        if let StackOutcome::Act(resp) = after {
            return Ok(BlockStep::Detected(resp));
        }
        // α per column; a non-positive or non-finite p·Ap freezes the
        // column (the masked form of a whole-solve Breakdown).
        for (c, &pap) in vals.iter().enumerate().take(k) {
            if self.lanes[c] != Lane::Active {
                continue;
            }
            if pap <= 0.0 || !pap.is_finite() {
                self.freeze(c, Lane::Broken, st.iterations);
            } else {
                self.alphas[c] = state.rz[c] / pap;
            }
        }
        let active = self.active_count();
        if active == 0 {
            // Every remaining column broke before the update: stop without
            // touching x or the counters.
            return Ok(BlockStep::AllFrozen);
        }
        for c in (0..k).filter(|&c| self.lanes[c] == Lane::Active) {
            self.space.axpy_col(self.alphas[c], &state.p, x, c);
            self.space
                .axpy_col(-self.alphas[c], &state.ap, &mut state.r, c);
        }
        self.space.charge_flops(4 * n * active);
        // Batched reduction #2: z ← M⁻¹r on the active columns (z = r
        // under the identity) — guarded between the two reductions, where
        // nothing is in flight, and before β or p move, so a Restart
        // rebuilds from the committed iterate — then every column's r·z
        // and r·r in one collective.
        if let Some(z) = state.z.as_mut() {
            self.precond_active_into(&state.r, z)?;
            if let BlockStep::Detected(resp) = self.after_precond(st, &mut state.r, z, policies)? {
                return Ok(BlockStep::Detected(resp));
            }
        }
        let (vals, rr) = self.reduce_rz_rr(&state.r, state.z.as_ref(), active)?;
        let z = state.z.as_ref().unwrap_or(&state.r);
        for c in (0..k).filter(|&c| self.lanes[c] == Lane::Active) {
            self.betas[c] = vals[c] / state.rz[c];
            state.rz[c] = vals[c];
            state.rr[c] = vals[rr + c];
            self.space.xpby_col(z, self.betas[c], &mut state.p, c);
        }
        self.space.charge_flops(2 * n * active);
        st.iterations += 1;
        for c in (0..k).filter(|&c| self.lanes[c] == Lane::Active) {
            self.relres[c] = state.rr[c].sqrt() / self.bn[c];
            self.histories[c].push(self.relres[c]);
        }
        st.relres = self.worst_relres();
        self.end_of_iteration(st, x, policies)
    }

    /// One pipelined-mode iteration: a single nonblocking batched
    /// reduction — [γ per column, δ per column, ‖r‖² per column (not under
    /// the identity, where it is γ)] + the check tail — posted before the
    /// preconditioner applies and the SpMM it overlaps. The partials it
    /// posts were left behind by the previous iteration's sweep; each state
    /// vector is streamed once per iteration.
    fn step_pipelined(
        &mut self,
        st: &mut SolveProgress,
        state: &mut BlockState,
        x: &mut DistMultiVector,
        policies: &mut PolicyStack<'_, DistSpace<'a, 'b, C>>,
    ) -> Result<BlockStep> {
        let k = self.k;
        let n = state.r.local_rows();
        let active = self.active_count();
        let PipelinedState {
            w,
            z,
            s,
            images,
            dots,
        } = state.pipe.as_mut().expect("pipelined state");
        let slots = dots.len() / k;
        if state.fresh {
            match images.as_ref() {
                Some(m) => {
                    let (r, u) = (&state.r, &m.u);
                    self.space
                        .block_dot_partials(k, &[(r, u), (w, u), (r, r)], dots)
                }
                None => {
                    let r = &state.r;
                    self.space.block_dot_partials(k, &[(r, r), (w, r)], dots)
                }
            }
        }
        // The check pair (u, w = A·u) lags the overlapped SpMV by one step.
        // Under the identity `u = r`, `mw = w` and `q = s`: read those.
        let u = images.as_mut().map_or(&mut state.r, |m| &mut m.u);
        self.lend.lend(&mut self.in_g, u);
        self.lend.lend(&mut self.out_g, w);
        let posted = {
            let (batch, check_pairs) =
                check_tail(policies, &*self.space, &st.ctx(), &self.in_g, &self.out_g);
            self.space
                .start_carried_block_dots(k, dots, n, &check_pairs, active, &mut self.partials)
                .map(|pending| (pending, batch))
        };
        self.lend.give_back(&mut self.out_g, w);
        self.lend.give_back(&mut self.in_g, u);
        let (pending, batch) = posted?;
        // ... overlapped with the extra work, the per-active-column
        // preconditioner applies mw = M⁻¹w and the blocked SpMM of mw.
        self.space.advance_extra_work()?;
        if let Some(m) = images.as_mut() {
            self.precond_active_into(w, &mut m.mw)?;
        }
        let input = images.as_mut().map_or(&mut *w, |m| &mut m.mw);
        self.lend.lend(&mut self.in_g, input);
        let before = policies.before_spmv(self.space, &st.ctx(), &self.in_g);
        self.lend.give_back(&mut self.in_g, input);
        if let StackOutcome::Act(resp) = before? {
            // Complete the posted reduction before abandoning the step:
            // every rank drains the in-flight collective.
            self.space.finish_dots(pending)?;
            return Ok(BlockStep::Detected(resp));
        }
        self.space.apply_block_into(input, active, &mut state.ap)?;
        let reduced = self.space.finish_dots(pending)?;
        policies.consume_check_dots(&st.ctx(), &batch, &reduced[slots * k..]);
        self.lend.lend(&mut self.in_g, input);
        self.lend.lend(&mut self.out_g, &mut state.ap);
        let after = policies.after_spmv(self.space, &st.ctx(), &self.in_g, &self.out_g);
        self.lend.give_back(&mut self.out_g, &mut state.ap);
        self.lend.give_back(&mut self.in_g, input);
        if let StackOutcome::Act(resp) = after? {
            return Ok(BlockStep::Detected(resp));
        }
        // Guard the overlap-region applies mw = M⁻¹w *after* the reduction
        // completed (a guard may post its own collective) and *before* mw
        // enters the recurrence: a Restart returns with x and r untouched.
        if let Some(m) = images.as_mut() {
            if let BlockStep::Detected(resp) = self.after_precond(st, w, &mut m.mw, policies)? {
                return Ok(BlockStep::Detected(resp));
            }
        }
        // Convergence per column from the one reduction (history gets its
        // first entry here); under the identity ‖r‖² is γ.
        let rr_slot = if images.is_some() { 2 } else { 0 };
        for c in 0..k {
            if self.lanes[c] != Lane::Active {
                continue;
            }
            let rr = reduced[rr_slot * k + c];
            self.relres[c] = sqrt_nonneg(rr) / self.bn[c];
            if self.histories[c].is_empty() {
                self.histories[c].push(self.relres[c]);
            }
            if self.relres[c] <= st.tol {
                self.freeze(c, Lane::Converged, st.iterations);
            }
        }
        st.relres = self.worst_relres();
        for c in 0..k {
            if self.lanes[c] == Lane::Active && !self.relres[c].is_finite() {
                // A non-finite residual on a live column is whole-solve
                // divergence, consulted by the shell's recovery arm.
                return Ok(BlockStep::Diverged);
            }
        }
        if self.active_count() == 0 {
            return Ok(BlockStep::AllFrozen);
        }
        // β, α per column; a non-finite or zero α freezes the column.
        for c in 0..k {
            if self.lanes[c] != Lane::Active {
                continue;
            }
            let gamma = reduced[c];
            let delta = reduced[k + c];
            let (alpha, beta);
            if !state.fresh {
                beta = gamma / state.gamma_old[c];
                alpha = gamma / (delta - beta * gamma / state.alpha_old[c]);
            } else {
                beta = 0.0;
                alpha = gamma / delta;
            }
            if !alpha.is_finite() || alpha == 0.0 {
                self.freeze(c, Lane::Broken, st.iterations);
            } else {
                self.alphas[c] = alpha;
                self.betas[c] = beta;
                state.gamma_old[c] = gamma;
                state.alpha_old[c] = alpha;
            }
        }
        if self.active_count() == 0 {
            return Ok(BlockStep::AllFrozen);
        }
        // The recurrence updates of every still-active column — z ← aw + βz,
        // q ← mw + βq, s ← w + βs, p ← u + βp, x += αp, r −= αs, u −= αq,
        // w −= αz, without the `q` and `u` updates under the identity — one
        // pass per column, which also leaves the next step's dot partials
        // behind.
        let lanes = &self.lanes;
        self.space.pipelined_sweep_block(
            |c| lanes[c] == Lane::Active,
            &self.alphas,
            &self.betas,
            PipelinedSweep {
                aw: &state.ap,
                precond: images.as_mut().map(|m| (&m.mw, &mut m.q, &mut m.u)),
                z,
                s,
                p: &mut state.p,
                x,
                r: &mut state.r,
                w,
            },
            dots,
        );
        state.fresh = false;
        st.iterations += 1;
        for c in 0..k {
            if self.lanes[c] == Lane::Active {
                self.histories[c].push(self.relres[c]);
            }
        }
        self.end_of_iteration(st, x, policies)
    }
}

/// Run the CG kernel on `k = b.k()` right-hand sides at once, under the
/// reduction schedule `mode` and the preconditioner `m` (pass
/// [`IdentityPrecond`](super::IdentityPrecond) for none). At any `k` the
/// collective count per iteration is that of a single-RHS solve, and each
/// column is its own single-RHS solve, bit for bit. See the
/// module docs of `kernel/block.rs` for the masking, symmetry, identity and
/// policy-view contracts.
///
/// # Errors
/// [`RuntimeError::InvalidArgument`], before any collective is posted, if
/// `b` has no columns or its columns are not distributed like the
/// operator's rows, or if `x0` differs from `b` in column count or layout.
pub fn run_block_cg<'a, 'b, C: CommBackend>(
    space: &mut DistSpace<'a, 'b, C>,
    b: &DistMultiVector,
    x0: Option<DistMultiVector>,
    opts: &SolveOptions,
    mode: Schedule,
    m: &mut dyn SpacePreconditioner<DistSpace<'a, 'b, C>>,
    policies: &mut PolicyStack<'_, DistSpace<'a, 'b, C>>,
) -> Result<(BlockOutcome, KernelReport)> {
    let k = b.k();
    let invalid = |what: String| Err(RuntimeError::InvalidArgument(what));
    if k == 0 {
        return invalid("run_block_cg: `b` has no columns".into());
    }
    space
        .operator()
        .check_block_operand("run_block_cg: `b`", b)?;
    let mut x = x0.unwrap_or_else(|| DistMultiVector::zeros_like(b));
    if x.k() != k {
        return invalid(format!(
            "run_block_cg: `x0` has {} columns but `b` has {k}",
            x.k()
        ));
    }
    if x.distribution() != b.distribution() || x.local.len() != b.local.len() {
        return invalid(format!(
            "run_block_cg: `x0` (global length {}, {} local entries) is not distributed like \
             `b` ({}, {})",
            x.global_len(),
            x.local.len(),
            b.global_len(),
            b.local.len()
        ));
    }
    let lend = match (policies.is_empty(), k) {
        (true, _) => Lend::Off,
        (false, 1) => Lend::Swap,
        (false, _) => Lend::Copy,
    };
    let view = || match lend {
        Lend::Copy => b.column(0),
        Lend::Off | Lend::Swap => b.empty_column(),
    };
    let mut drv = BlockCg {
        space,
        b,
        identity: m.is_identity(),
        m,
        k,
        bn: Vec::new(),
        lanes: vec![Lane::Active; k],
        relres: vec![f64::INFINITY; k],
        col_iters: vec![0; k],
        histories: vec![Vec::new(); k],
        partials: Vec::new(),
        pap: Vec::new(),
        alphas: vec![0.0; k],
        betas: vec![0.0; k],
        staging: None,
        lend,
        in_g: view(),
        out_g: view(),
        xg: view(),
        rg: match lend {
            Lend::Off => b.empty_column(),
            Lend::Swap | Lend::Copy => b.column(0),
        },
    };
    // ‖b_c‖ for every column in one collective, floored at the smallest
    // positive normal.
    let bnv = drv
        .space
        .block_dots(k, &[(b, b)], &[], k, &mut drv.partials)?;
    drv.bn = bnv
        .iter()
        .map(|&v| sqrt_nonneg(v).max(f64::MIN_POSITIVE))
        .collect();
    let mut st = SolveProgress::new(opts.tol, opts.max_iters, drv.bn[0]);
    let mut report = KernelReport::default();
    if lend != Lend::Off {
        // A transient copy: the probe reads column 0 of `b` in place.
        policies.on_solve_start(drv.space, &b.column(0))?;
    }

    let (mut state, mut live) = drv.start_cycle(mode, &mut st, &mut x, policies)?;
    let mut reason = StopReason::MaxIterations;
    while live && st.iterations < opts.max_iters {
        let out = match mode {
            Schedule::Fused => drv.step_fused(&mut st, &mut state, &mut x, policies)?,
            Schedule::Pipelined => drv.step_pipelined(&mut st, &mut state, &mut x, policies)?,
        };
        match out {
            BlockStep::Continue => {}
            BlockStep::AllFrozen => live = false,
            BlockStep::Diverged => {
                // Consult the stack before terminating; a restore rebuilds
                // the whole recurrence, capped so a policy that restores
                // forever cannot livelock the kernel.
                let recover = report.failure_recoveries < opts.max_iters.max(1)
                    && drv.on_failure(&st, &mut x, policies);
                if !recover {
                    reason = StopReason::Diverged;
                    break;
                }
                report.failure_recoveries += 1;
                (state, live) = drv.start_cycle(mode, &mut st, &mut x, policies)?;
            }
            BlockStep::Detected(DetectionResponse::Restart) => {
                report.policy_restarts += 1;
                if report.policy_restarts > opts.max_iters.max(1) {
                    // A detection firing on every retry would rebuild
                    // forever without consuming iterations: persistent
                    // corruption is terminal.
                    reason = StopReason::CorruptionDetected;
                    break;
                }
                // These rebuild applications run outside the SpMV hooks
                // (and advance the space's application count), so only the
                // next iteration's checks guard them.
                (state, live) = drv.start_cycle(mode, &mut st, &mut x, policies)?;
            }
            BlockStep::Detected(_) => {
                reason = StopReason::CorruptionDetected;
                break;
            }
        }
    }
    if !live {
        reason = drv.frozen_reason();
    }

    report.policy_overhead = policies.overhead_report();
    for c in 0..k {
        if drv.lanes[c] == Lane::Active {
            drv.col_iters[c] = st.iterations;
        }
    }
    // Per-column convergence: the final residual against the tolerance,
    // whatever the stop reason.
    let converged: Vec<bool> = (0..k).map(|c| drv.relres[c] <= opts.tol).collect();
    Ok((
        BlockOutcome {
            x,
            iterations: st.iterations,
            column_iterations: drv.col_iters,
            relative_residuals: drv.relres,
            converged,
            reason,
            histories: drv.histories,
        },
        report,
    ))
}
