//! Block (multi-RHS) preconditioned conjugate gradients: one operator
//! sweep and **one** collective per reduction point serve every right-hand
//! side in the batch, so the per-iteration collective count is independent
//! of the batch width `k`.
//!
//! The paper's cost model makes allreduce latency the scaling wall of the
//! recurrence (§II-B); the "millions of users" workload it motivates solves
//! *many* right-hand sides against few operators. This kernel amortizes
//! the wall over the batch: [`run_block_cg`] is the batched twin of
//! [`run_cg`](super::run_cg), with [`Schedule::Fused`] mirroring
//! [`FusedCgStep::preconditioned`](super::FusedCgStep) (two blocking
//! batched reductions per iteration) and [`Schedule::Pipelined`]
//! mirroring [`PipelinedCgStep::preconditioned`](super::PipelinedCgStep)
//! (one nonblocking batched reduction posted before the overlapped
//! preconditioner + SpMM).
//!
//! **Lane width is part of the spec.** Every column runs exactly the
//! single-RHS recurrence — backends only amortize memory traffic and
//! collective latency, never reassociate across columns — so at `k = 1`
//! the solve is bit-identical (iterates, residual history, collective
//! schedule, virtual-time charges) to the corresponding single-RHS preset.
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
//! **One pass per pipelined iteration.** The eight recurrence updates of a
//! column run as one backend sweep that also leaves the column's next dot
//! partials behind; the following step posts those carried partials instead
//! of re-reading `r`, `u`, `w`. Every `build_state` drops them (the first
//! step after it recomputes); frozen columns keep theirs.
//!
//! **Nothing stored for the identity.** Under a preconditioner whose
//! [`is_identity`](SpacePreconditioner::is_identity) holds, the `M⁻¹`
//! images would be bitwise copies — `z = r` (fused), `u = r`, `mw = w`,
//! `q = s` (pipelined) — so the kernel stores none of them, skips the
//! copies and reads `r`/`w`/`s` in their place; each live column then
//! takes the six-vector sweep ([`LocalOps::pipelined_cg_sweep`]). The
//! bits, the payloads and the charges (sixteen flops per row per swept
//! column, zero per identity apply) are those of the general route, which
//! is what a copying preconditioner that does not say so still takes.
//!
//! [`LocalOps::pipelined_cg_sweep`]: resilient_linalg::ops::LocalOps::pipelined_cg_sweep
//!
//! **Policy integration.** The same [`PolicyStack`] hooks run at the same
//! points as in the single-RHS kernel. Hooks operate on single vectors, so
//! the block kernel presents *guard* views of column 0 (bitwise the whole
//! story at `k = 1`); `on_failure` recovery likewise restores through the
//! column-0 guard. Check dots ride the batched reductions (wants-dots
//! fusion), so detection still adds zero collectives per iteration. One
//! deviation from the single-RHS fused step: the block kernel *always*
//! fuses its first reduction, so with no check requests the `after_spmv`
//! hook runs after the reduction instead of before it (indistinguishable
//! unless a policy both requests no dots and acts in `after_spmv`).
//!
//! Single-event-upset injection ([`SpmvFault`](super::SpmvFault)) targets
//! the single-vector apply path and does not fire inside blocked applies.

use resilient_runtime::{CommBackend, Result, RuntimeError};

use super::policy::{
    CheckDotBatch, CheckVectors, DetectionResponse, FailureEvent, IterCtx, PolicyStack,
    RecoveryAction, SolutionProbe, StackOutcome,
};
use super::precond::SpacePreconditioner;
use super::space::{DistSpace, KrylovSpace, PipelinedSweep};
use super::spec::Schedule;
use super::{sqrt_nonneg, KernelReport, SolveProgress};
use crate::distributed::{DistMultiVector, DistVector};
use crate::solvers::common::{SolveOptions, StopReason};

/// Result of one block solve: the final block iterate plus per-column
/// convergence data.
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
    /// Convert into the distributed solvers' public block outcome type.
    pub fn into_block_solve_outcome(self) -> crate::rbsp::BlockSolveOutcome {
        crate::rbsp::BlockSolveOutcome {
            x: self.x,
            iterations: self.iterations,
            column_iterations: self.column_iterations,
            relative_residuals: self.relative_residuals,
            converged: self.converged,
            reason: self.reason,
            histories: self.histories,
        }
    }
}

/// What one block iteration decided (internal; the shell maps it to the
/// same arms as the single-RHS kernel).
enum BlockStep {
    Continue,
    /// Every column is frozen: Converged if all met the tolerance,
    /// Breakdown otherwise.
    AllFrozen,
    /// A still-active column produced a non-finite residual (pipelined
    /// mode, mirroring the single-RHS `Diverged` return).
    Diverged,
    Detected(DetectionResponse),
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
    /// there, as the single-RHS `PipelinedCgStep` holds them.
    images: Option<PrecondImages>,
    /// Local partials `[r·u | w·u | r·r]`, `k` each, of the *current*
    /// `r`, `u`, `w`: the sweep that last updated a column left that
    /// column's three slots behind, so the next step posts them without
    /// re-reading the vectors. Recomputed from the vectors on the first
    /// step after every `build_state` (`fresh`); a frozen column's vectors
    /// stop changing, so its slots stay valid as they are.
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

/// The block analogue of the kernel's `CgProbe`: evaluates the true
/// residual of the guard column (column 0) of the current block iterate.
struct BlockProbe<'g> {
    b: &'g DistVector,
    x: &'g DistVector,
    bn: f64,
    iteration: usize,
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
        let ax = space.apply(self.x)?;
        let r = space.residual(self.b, &ax);
        let rn = space.norm(&r)?;
        Ok(rn / self.bn)
    }
}

/// Negotiate the policy check tail of a batched reduction against the
/// column-0 guard views: the bookkeeping for `consume_check_dots` and the
/// pairs to reduce. The stack stays borrowed until the pairs are dropped.
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
    // guards and the policies, so it cannot outlive the step; it stays empty
    // (no heap) under an empty stack.
    let mut pairs = Vec::new();
    let batch = policies.collect_check_dots(space, ctx, &avail, &mut pairs);
    (batch, pairs)
}

/// The driver: the space, the preconditioner, per-column bookkeeping and
/// every reusable scratch buffer of the solve (guards, preconditioner
/// single-vector views, reduction partials, per-column coefficient
/// arrays). The recurrence vectors live in [`BlockState`] so the borrow
/// checker can split them from the driver.
struct BlockCg<'s, 'a, 'b, 'm, C: CommBackend> {
    space: &'s mut DistSpace<'a, 'b, C>,
    m: &'m mut dyn SpacePreconditioner<DistSpace<'a, 'b, C>>,
    /// `m.is_identity()`, read once: no `M⁻¹` image is stored or applied.
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
    alphas: Vec<f64>,
    betas: Vec<f64>,
    /// Staging views for preconditioners without a slice-level apply:
    /// `rc` in, `zc` out.
    rc: DistVector,
    zc: DistVector,
    /// Is anybody looking at the guards? With an empty policy stack the
    /// hooks are no-ops and the per-iteration guard copies are skipped.
    guarded: bool,
    /// Guard views of column 0 for the policy hooks (SpMV input/product).
    in_g: DistVector,
    out_g: DistVector,
    /// Guard views of column 0 of `x` and `b` for probes and recovery.
    xg: DistVector,
    bg: DistVector,
}

/// Refresh a column-0 guard view (skipped when no policy will read it).
fn guard(on: bool, view: &mut DistVector, col: &[f64]) {
    if on {
        view.local.copy_from_slice(col);
    }
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
    /// exactly like the single-RHS preconditioner path; frozen columns skip
    /// theirs).
    fn precond_active_into(&mut self, r: &DistMultiVector, z: &mut DistMultiVector) -> Result<()> {
        for c in 0..self.k {
            if self.lanes[c] != Lane::Active {
                continue;
            }
            if !self
                .m
                .apply_local_into(self.space, r.col(c), z.col_mut(c))?
            {
                self.rc.local.copy_from_slice(r.col(c));
                self.m.apply_into(self.space, &self.rc, &mut self.zc)?;
                z.col_mut(c).copy_from_slice(&self.zc.local);
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

    /// (Re)build the recurrence from the current iterate — the block twin
    /// of the shell's `apply + residual + strategy.init` sequence. Frozen
    /// columns get consistent residuals recomputed (they sit in reduction
    /// payloads) but skip preconditioner applies and stay frozen.
    fn build_state(
        &mut self,
        mode: Schedule,
        st: &mut SolveProgress,
        x: &DistMultiVector,
        b: &DistMultiVector,
    ) -> Result<BlockState> {
        let k = self.k;
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
                let z = state.z.as_ref().unwrap_or(&state.r);
                // One batched reduction for every column's r·z and r·r —
                // the same single collective as the single-RHS init.
                let vals = self.space.block_dots(
                    k,
                    &[(&state.r, z), (&state.r, &state.r)],
                    &[],
                    active,
                    &mut self.partials,
                )?;
                state.rz = vals[..k].to_vec();
                state.rr = vals[k..2 * k].to_vec();
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
                state.pipe = Some(PipelinedState {
                    w,
                    z: zeros(),
                    s: zeros(),
                    images: u.map(|u| PrecondImages {
                        u,
                        mw: zeros(),
                        q: zeros(),
                    }),
                    dots: vec![0.0; 3 * k],
                });
            }
        }
        st.relres = self.worst_relres();
        Ok(state)
    }

    /// [`build_state`](Self::build_state) plus what follows every (re)start
    /// of the recurrence: the `on_cycle_start` hook on the column-0 guard
    /// and the shell's pre-loop convergence check, per column. Returns the
    /// state and whether any column is still active.
    fn start_cycle(
        &mut self,
        mode: Schedule,
        st: &mut SolveProgress,
        x: &DistMultiVector,
        b: &DistMultiVector,
        policies: &mut PolicyStack<'_, DistSpace<'a, 'b, C>>,
    ) -> Result<(BlockState, bool)> {
        let state = self.build_state(mode, st, x, b)?;
        guard(self.guarded, &mut self.xg, x.col(0));
        policies.on_cycle_start(self.space, &st.ctx(), &self.xg)?;
        for c in 0..self.k {
            if self.lanes[c] == Lane::Active && self.relres[c] <= st.tol {
                self.freeze(c, Lane::Converged, st.iterations);
            }
        }
        Ok((state, self.active_count() > 0))
    }

    /// The `on_iteration` hook at the end of a completed step, on the
    /// column-0 guard of the iterate.
    fn end_of_iteration(
        &mut self,
        st: &SolveProgress,
        x: &DistMultiVector,
        policies: &mut PolicyStack<'_, DistSpace<'a, 'b, C>>,
    ) -> Result<BlockStep> {
        guard(self.guarded, &mut self.xg, x.col(0));
        let mut probe = BlockProbe {
            b: &self.bg,
            x: &self.xg,
            bn: self.bn[0],
            iteration: st.iterations,
        };
        Ok(
            match policies.on_iteration(self.space, &st.ctx(), &mut probe)? {
                StackOutcome::Act(resp) => BlockStep::Detected(resp),
                StackOutcome::Recorded | StackOutcome::Continue => BlockStep::Continue,
            },
        )
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
        guard(self.guarded, &mut self.in_g, state.p.col(0));
        match policies.before_spmv(self.space, &st.ctx(), &self.in_g)? {
            StackOutcome::Act(resp) => return Ok(BlockStep::Detected(resp)),
            StackOutcome::Recorded | StackOutcome::Continue => {}
        }
        self.space
            .apply_block_into(&state.p, active, &mut state.ap)?;
        guard(self.guarded, &mut self.out_g, state.ap.col(0));
        // Batched reduction #1, always fused: [p·Ap per column] + the
        // policy check tail in one collective.
        let vals = {
            let (batch, check_pairs) =
                check_tail(policies, &*self.space, &st.ctx(), &self.in_g, &self.out_g);
            let vals = self.space.block_dots(
                k,
                &[(&state.p, &state.ap)],
                &check_pairs,
                active,
                &mut self.partials,
            )?;
            drop(check_pairs);
            policies.consume_check_dots(&st.ctx(), &batch, &vals[k..]);
            vals
        };
        match policies.after_spmv(self.space, &st.ctx(), &self.in_g, &self.out_g)? {
            StackOutcome::Act(resp) => return Ok(BlockStep::Detected(resp)),
            StackOutcome::Recorded | StackOutcome::Continue => {}
        }
        // α per column; a non-positive or non-finite p·Ap freezes the
        // column (the masked form of the k = 1 whole-solve Breakdown).
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
            // touching x or the counters, like the single-RHS step.
            return Ok(BlockStep::AllFrozen);
        }
        let n = state.r.local_rows();
        for c in (0..k).filter(|&c| self.lanes[c] == Lane::Active) {
            self.space.axpy_col(self.alphas[c], &state.p, x, c);
            self.space
                .axpy_col(-self.alphas[c], &state.ap, &mut state.r, c);
        }
        self.space.charge_flops(4 * n * active);
        // Batched reduction #2: z ← M⁻¹r on the active columns (z = r
        // under the identity), then every column's r·z and r·r in one
        // collective.
        if let Some(z) = state.z.as_mut() {
            self.precond_active_into(&state.r, z)?;
        }
        let z = state.z.as_ref().unwrap_or(&state.r);
        let vals2 = self.space.block_dots(
            k,
            &[(&state.r, z), (&state.r, &state.r)],
            &[],
            active,
            &mut self.partials,
        )?;
        for c in (0..k).filter(|&c| self.lanes[c] == Lane::Active) {
            let rz_new = vals2[c];
            self.betas[c] = rz_new / state.rz[c];
            state.rz[c] = rz_new;
            state.rr[c] = vals2[k + c];
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
    /// reduction — [γ per column, δ per column, ‖r‖² per column] + the
    /// check tail — posted before the preconditioner applies and the SpMM
    /// it overlaps. The partials it posts were left behind by the previous
    /// iteration's sweep; each state vector is streamed once per iteration.
    fn step_pipelined(
        &mut self,
        st: &mut SolveProgress,
        state: &mut BlockState,
        x: &mut DistMultiVector,
        policies: &mut PolicyStack<'_, DistSpace<'a, 'b, C>>,
    ) -> Result<BlockStep> {
        let k = self.k;
        let active = self.active_count();
        let PipelinedState {
            w,
            z,
            s,
            images,
            dots,
        } = state.pipe.as_mut().expect("pipelined state");
        // Under the identity `u = r`, `mw = w` and `q = s`: read those.
        let u = images.as_ref().map_or(&state.r, |m| &m.u);
        if state.fresh {
            self.space
                .block_dot_partials(k, &[(&state.r, u), (w, u), (&state.r, &state.r)], dots);
        }
        // The resolved input/product pair lags the overlapped SpMV by one
        // step, exactly like the single-RHS pipelined strategy.
        guard(self.guarded, &mut self.in_g, u.col(0));
        guard(self.guarded, &mut self.out_g, w.col(0));
        let (pending, batch) = {
            let (batch, check_pairs) =
                check_tail(policies, &*self.space, &st.ctx(), &self.in_g, &self.out_g);
            let pending = self.space.start_carried_block_dots(
                k,
                dots,
                state.r.local_rows(),
                &check_pairs,
                active,
                &mut self.partials,
            )?;
            (pending, batch)
        };
        // ... overlapped with the extra work, the per-active-column
        // preconditioner applies mw = M⁻¹w and the blocked SpMM of mw.
        self.space.advance_extra_work()?;
        if let Some(m) = images.as_mut() {
            self.precond_active_into(w, &mut m.mw)?;
        }
        let input = images.as_ref().map_or(&*w, |m| &m.mw);
        guard(self.guarded, &mut self.in_g, input.col(0));
        match policies.before_spmv(self.space, &st.ctx(), &self.in_g)? {
            StackOutcome::Act(resp) => {
                // Complete the posted reduction before abandoning the
                // step: every rank drains the in-flight collective.
                self.space.finish_dots(pending)?;
                return Ok(BlockStep::Detected(resp));
            }
            StackOutcome::Recorded | StackOutcome::Continue => {}
        }
        self.space.apply_block_into(input, active, &mut state.ap)?;
        let reduced = self.space.finish_dots(pending)?;
        policies.consume_check_dots(&st.ctx(), &batch, &reduced[3 * k..]);
        guard(self.guarded, &mut self.out_g, state.ap.col(0));
        match policies.after_spmv(self.space, &st.ctx(), &self.in_g, &self.out_g)? {
            StackOutcome::Act(resp) => return Ok(BlockStep::Detected(resp)),
            StackOutcome::Recorded | StackOutcome::Continue => {}
        }
        // Convergence per column from the one reduction (history gets its
        // first entry here, like the single-RHS pipelined step).
        for c in 0..k {
            if self.lanes[c] != Lane::Active {
                continue;
            }
            let rr = reduced[2 * k + c];
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
        // The recurrence updates of every still-active column in the
        // single-RHS order — z ← aw + βz, q ← mw + βq, s ← w + βs,
        // p ← u + βp, x += αp, r −= αs, u −= αq, w −= αz, without the `q`
        // and `u` updates under the identity — one pass per column, which
        // also leaves the next step's dot partials behind.
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

/// Run the block preconditioned-CG kernel on `k = b.k()` right-hand sides
/// at once. At `k = 1` the solve is bit-identical to
/// [`run_cg`](super::run_cg) with the corresponding preconditioned
/// strategy; at any `k` the collective count per iteration is that of the
/// single-RHS solve. See the [module docs](self) for the masking,
/// symmetry and policy-guard contracts.
///
/// # Errors
/// [`RuntimeError::InvalidArgument`], before any collective is posted, if
/// `b` has no columns or is not distributed like the operator, or if `x0`
/// differs from `b` in column count or distribution.
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
    if b.global_len() != space.global_dim() {
        return invalid(format!(
            "run_block_cg: `b` has global length {} but the operator has dimension {}",
            b.global_len(),
            space.global_dim()
        ));
    }
    let mut x = x0.unwrap_or_else(|| DistMultiVector::zeros_like(b));
    if x.k() != k {
        return invalid(format!(
            "run_block_cg: `x0` has {} columns but `b` has {k}",
            x.k()
        ));
    }
    if x.distribution() != b.distribution() || x.local_rows() != b.local_rows() {
        return invalid(format!(
            "run_block_cg: `x0` (global length {}, {} local rows) is not distributed like `b` \
             ({}, {})",
            x.global_len(),
            x.local_rows(),
            b.global_len(),
            b.local_rows()
        ));
    }
    let mut drv = BlockCg {
        space,
        identity: m.is_identity(),
        m,
        k,
        bn: Vec::new(),
        lanes: vec![Lane::Active; k],
        relres: vec![f64::INFINITY; k],
        col_iters: vec![0; k],
        histories: vec![Vec::new(); k],
        partials: Vec::new(),
        alphas: vec![0.0; k],
        betas: vec![0.0; k],
        rc: b.column(0),
        zc: b.column(0),
        guarded: !policies.is_empty(),
        in_g: b.column(0),
        out_g: b.column(0),
        xg: b.column(0),
        bg: b.column(0),
    };
    // ‖b_c‖ for every column in one collective (k = 1: bitwise the
    // single-RHS `space.norm(b)`), floored exactly like the shell's bn.
    let bnv = drv
        .space
        .block_dots(k, &[(b, b)], &[], k, &mut drv.partials)?;
    drv.bn = bnv
        .iter()
        .map(|&v| sqrt_nonneg(v).max(f64::MIN_POSITIVE))
        .collect();
    let mut st = SolveProgress::new(opts.tol, opts.max_iters, drv.bn[0]);
    let mut report = KernelReport::default();
    policies.on_solve_start(drv.space, &drv.bg)?;

    let (mut state, mut live) = drv.start_cycle(mode, &mut st, &x, b, policies)?;
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
                // Consult the stack before terminating; recovery
                // restores through the column-0 guard and rebuilds the
                // whole recurrence, capped like the single-RHS shell.
                let recover = report.failure_recoveries < opts.max_iters.max(1) && {
                    guard(drv.guarded, &mut drv.xg, x.col(0));
                    let restart =
                        policies.on_failure(&st.ctx(), FailureEvent::Divergence, &mut drv.xg)
                            == RecoveryAction::Restart;
                    if restart {
                        x.col_mut(0).copy_from_slice(&drv.xg.local);
                    }
                    restart
                };
                if !recover {
                    reason = StopReason::Diverged;
                    break;
                }
                report.failure_recoveries += 1;
                (state, live) = drv.start_cycle(mode, &mut st, &x, b, policies)?;
            }
            BlockStep::Detected(DetectionResponse::Restart) => {
                report.policy_restarts += 1;
                if report.policy_restarts > opts.max_iters.max(1) {
                    // Persistent corruption rebuilding forever without
                    // consuming iterations is terminal (the backstop).
                    reason = StopReason::CorruptionDetected;
                    break;
                }
                (state, live) = drv.start_cycle(mode, &mut st, &x, b, policies)?;
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
    // Per-column convergence mirrors `into_dist_outcome`: the final
    // residual against the tolerance, whatever the stop reason.
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
