//! The unified conjugate-gradient kernel: one solve shell (setup, policy
//! lifecycle, stop handling, outcome assembly) parameterized by a
//! [`CgStrategy`] that owns the recurrence and its reduction schedule.
//!
//! Three strategies reproduce the legacy silos:
//!
//! * [`PcgStep`] — the preconditioned recurrence with immediate dots,
//!   tracking `r·z`, generic over any space (the serial preset's engine);
//! * [`FusedCgStep`] — the bulk-synchronous recurrence with **two blocking
//!   reductions** per iteration (the distributed classic);
//! * [`PipelinedCgStep`] — the Ghysels–Vanroose recurrence with a **single
//!   nonblocking fused reduction** posted before the SpMV and completed
//!   after it.
//!
//! Each strategy optionally holds a [`SpacePreconditioner`] (the kernel's
//! fourth axis). [`FusedCgStep`] and [`PipelinedCgStep`] then run the
//! z-shifted recurrences — the fused variant reduces `r·z` and `r·r`
//! together in its second reduction, the pipelined variant is the
//! preconditioned pipelined CG of Ghysels & Vanroose with `‖r‖²` riding the
//! same single reduction — so preconditioning changes **neither** variant's
//! reductions-per-iteration count, and under [`IdentityPrecond`] both are
//! bit-identical to the unpreconditioned recurrences.
//!
//! [`SpacePreconditioner`]: super::precond::SpacePreconditioner
//! [`IdentityPrecond`]: super::precond::IdentityPrecond
//!
//! Policies hook each SpMV and iteration end, and every recurrence
//! (re)build is reported as a cycle start (`on_cycle_start` with the
//! consistent iterate — the persistence point of rollback policies). CG
//! has no Arnoldi cycle to discard, so on a detection whose response is
//! `Restart` the kernel rebuilds the recurrence from the current iterate
//! (the residual recompute plus whatever the strategy's `init` applies —
//! one extra operator application for the blocking recurrences, two for
//! the pipelined one; a corrupted-but-finite iterate is just a worse
//! initial guess), capped like the GMRES policy-restart backstop; `Abort`
//! stops the solve with `CorruptionDetected`; `RecordOnly` detections are
//! counted and ignored. A `Diverged` outcome consults the stack's
//! `on_failure` hook before terminating — a rollback policy that restores
//! a consistent iterate turns divergence into a recurrence rebuild, capped
//! the same way as in GMRES.
//!
//! The distributed strategies carry policy check dots in the reductions
//! they already post (wants-dots negotiation): [`FusedCgStep`] appends them
//! to its `p·Ap` reduction, [`PipelinedCgStep`] to its single nonblocking
//! fused reduction — so skeptical SDC detection adds **zero** collectives
//! per iteration.

use resilient_runtime::Result;

use super::policy::{
    CheckVectors, DetectionResponse, FailureEvent, PolicyStack, RecoveryAction, SolutionProbe,
    StackOutcome,
};
use super::precond::SpacePreconditioner;
use super::space::{KrylovSpace, PipelinedSweep};
use super::{sqrt_nonneg, KernelOutcome, KernelReport, SolveProgress};
use crate::solvers::common::{SolveOptions, StopReason};

/// What one CG iteration decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CgOutcome {
    /// Iteration completed; keep going.
    Continue,
    /// Tolerance met (the strategy's own convergence point).
    Converged,
    /// `p·Ap ≤ 0` or a non-finite denominator: the recurrence broke down.
    Breakdown,
    /// The iteration produced NaN/Inf values.
    Diverged,
    /// A policy detected corruption and demands the given response
    /// (`Restart` or `Abort`; `RecordOnly` never surfaces here).
    Detected(DetectionResponse),
}

/// A CG iteration engine: owns the recurrence vectors and the reduction
/// schedule of one CG variant.
pub trait CgStrategy<S: KrylovSpace> {
    /// Set up the recurrence from the initial residual `r0 = b − A·x0`.
    fn init(
        &mut self,
        space: &mut S,
        b: &S::Vector,
        r0: S::Vector,
        st: &mut SolveProgress,
    ) -> Result<()>;

    /// Perform one iteration (including its convergence test, iteration
    /// count and history updates, in the variant's legacy order).
    fn step(
        &mut self,
        space: &mut S,
        x: &mut S::Vector,
        policies: &mut PolicyStack<'_, S>,
        st: &mut SolveProgress,
        b: &S::Vector,
    ) -> Result<CgOutcome>;
}

/// A probe evaluating the true residual of the *current* iterate (CG
/// updates `x` every iteration, so no trial correction is needed).
struct CgProbe<'a, S: KrylovSpace> {
    b: &'a S::Vector,
    x: &'a S::Vector,
    /// ‖b‖ computed once at solve start (floored at `f64::MIN_POSITIVE`).
    bn: f64,
    /// Iteration `x` corresponds to (CG commits every iteration).
    iteration: usize,
}

impl<'a, S: KrylovSpace> SolutionProbe<S> for CgProbe<'a, S> {
    fn local_len(&self, space: &S) -> usize {
        space.local_len(self.x)
    }

    fn iterate(&self) -> &S::Vector {
        self.x
    }

    fn iterate_step(&self) -> usize {
        self.iteration
    }

    fn trial_true_relres(&mut self, space: &mut S) -> Result<f64> {
        let ax = space.apply(self.x)?;
        let r = space.residual(self.b, &ax);
        let rn = space.norm(&r)?;
        Ok(rn / self.bn)
    }
}

/// Run the unified CG kernel.
pub fn run_cg<S: KrylovSpace, T: CgStrategy<S>>(
    space: &mut S,
    b: &S::Vector,
    x0: Option<S::Vector>,
    opts: &SolveOptions,
    strategy: &mut T,
    policies: &mut PolicyStack<'_, S>,
) -> Result<(KernelOutcome<S::Vector>, KernelReport)> {
    let mut x = x0.unwrap_or_else(|| space.zeros_like(b));
    let bn = space.norm(b)?.max(f64::MIN_POSITIVE);
    let mut st = SolveProgress::new(opts.tol, opts.max_iters, bn);
    let mut report = KernelReport::default();
    policies.on_solve_start(space, b)?;

    let ax = space.apply(&x)?;
    let r0 = space.residual(b, &ax);
    strategy.init(space, b, r0, &mut st)?;
    // CG has no Arnoldi cycles; every recurrence (re)build is its cycle
    // boundary, and the iterate is consistent here — the natural
    // persistence point for rollback-style policies.
    policies.on_cycle_start(space, &st.ctx(), &x)?;

    let mut reason = StopReason::MaxIterations;
    if st.relres <= opts.tol {
        reason = StopReason::Converged;
    } else {
        while st.iterations < opts.max_iters {
            match strategy.step(space, &mut x, policies, &mut st, b)? {
                CgOutcome::Continue => {}
                CgOutcome::Converged => {
                    reason = StopReason::Converged;
                    break;
                }
                CgOutcome::Breakdown => {
                    reason = StopReason::Breakdown;
                    break;
                }
                CgOutcome::Diverged => {
                    // Consult the stack before terminating: a rollback
                    // policy may restore a consistent iterate, in which
                    // case the recurrence is rebuilt from it (the GMRES
                    // `recover` path, capped the same way so a policy that
                    // restores forever cannot livelock the kernel).
                    if report.failure_recoveries < opts.max_iters.max(1)
                        && policies.on_failure(&st.ctx(), FailureEvent::Divergence, &mut x)
                            == RecoveryAction::Restart
                    {
                        report.failure_recoveries += 1;
                        let ax = space.apply(&x)?;
                        let r0 = space.residual(b, &ax);
                        strategy.init(space, b, r0, &mut st)?;
                        policies.on_cycle_start(space, &st.ctx(), &x)?;
                        if st.relres <= opts.tol {
                            reason = StopReason::Converged;
                            break;
                        }
                        continue;
                    }
                    reason = StopReason::Diverged;
                    break;
                }
                CgOutcome::Detected(DetectionResponse::Restart) => {
                    report.policy_restarts += 1;
                    if report.policy_restarts > opts.max_iters.max(1) {
                        // A detection firing on every retry would rebuild the
                        // recurrence forever without consuming iterations;
                        // treat persistent corruption as terminal (the GMRES
                        // backstop).
                        reason = StopReason::CorruptionDetected;
                        break;
                    }
                    // CG has no Arnoldi cycle to discard: rebuild the
                    // recurrence from the current iterate instead. A
                    // corrupted-but-finite x is just a worse initial guess;
                    // a non-finite one surfaces as Diverged/Breakdown on the
                    // next step. Like the GMRES cycle-boundary residual,
                    // these rebuild applications run outside the SpMV hooks
                    // (and advance the space's application count), so only
                    // the next iteration's checks guard them.
                    let ax = space.apply(&x)?;
                    let r0 = space.residual(b, &ax);
                    strategy.init(space, b, r0, &mut st)?;
                    policies.on_cycle_start(space, &st.ctx(), &x)?;
                    if st.relres <= opts.tol {
                        reason = StopReason::Converged;
                        break;
                    }
                }
                CgOutcome::Detected(_) => {
                    reason = StopReason::CorruptionDetected;
                    break;
                }
            }
        }
    }

    report.policy_overhead = policies.overhead_report();
    Ok((
        KernelOutcome {
            x,
            iterations: st.iterations,
            relative_residual: st.relres,
            reason,
            history: st.history,
        },
        report,
    ))
}

// ---------------------------------------------------------------------------
// Preconditioned CG with immediate dots
// ---------------------------------------------------------------------------

/// The preconditioned CG recurrence with immediate (blocking) dots, tracking
/// `r·z` — the MGS analogue of the CG family: the serial `solvers::cg`
/// preset's engine, whose summation order its parity pins hold (`A` +
/// `10n` FLOPs per iteration, charged before the breakdown test). Each of
/// its three dots is a blocking collective; the fused/pipelined variants
/// below are the latency-tolerant alternatives.
pub struct PcgStep<'m, S: KrylovSpace> {
    m: &'m mut dyn SpacePreconditioner<S>,
    r: Option<S::Vector>,
    z: Option<S::Vector>,
    p: Option<S::Vector>,
    /// `A·p`, written in place every iteration.
    ap: Option<S::Vector>,
    rz: f64,
}

impl<'m, S: KrylovSpace> PcgStep<'m, S> {
    /// Bind the preconditioner.
    pub fn new(m: &'m mut dyn SpacePreconditioner<S>) -> Self {
        Self {
            m,
            r: None,
            z: None,
            p: None,
            ap: None,
            rz: 0.0,
        }
    }
}

impl<'m, S: KrylovSpace> CgStrategy<S> for PcgStep<'m, S> {
    fn init(
        &mut self,
        space: &mut S,
        _b: &S::Vector,
        r0: S::Vector,
        st: &mut SolveProgress,
    ) -> Result<()> {
        let mut z = space.zeros_like(&r0);
        self.m.apply_into(space, &r0, &mut z)?;
        self.p = Some(z.clone());
        self.rz = space.dot(&r0, &z)?;
        st.relres = space.norm(&r0)? / st.bn;
        st.history.push(st.relres);
        self.ap = Some(space.zeros_like(&z));
        self.z = Some(z);
        self.r = Some(r0);
        Ok(())
    }

    fn step(
        &mut self,
        space: &mut S,
        x: &mut S::Vector,
        policies: &mut PolicyStack<'_, S>,
        st: &mut SolveProgress,
        b: &S::Vector,
    ) -> Result<CgOutcome> {
        let p = self.p.as_mut().expect("initialized");
        let r = self.r.as_mut().expect("initialized");
        let n = space.local_len(p);
        match policies.before_spmv(space, &st.ctx(), p)? {
            StackOutcome::Act(resp) => return Ok(CgOutcome::Detected(resp)),
            StackOutcome::Recorded | StackOutcome::Continue => {}
        }
        let ap = self.ap.as_mut().expect("initialized");
        space.apply_into(p, ap)?;
        let ap = &*ap;
        space.charge_flops(10 * n);
        match policies.after_spmv(space, &st.ctx(), p, ap)? {
            StackOutcome::Act(resp) => return Ok(CgOutcome::Detected(resp)),
            StackOutcome::Recorded | StackOutcome::Continue => {}
        }
        let pap = space.dot(p, ap)?;
        if pap <= 0.0 || !pap.is_finite() {
            return Ok(if pap.is_finite() {
                CgOutcome::Breakdown
            } else {
                CgOutcome::Diverged
            });
        }
        let alpha = self.rz / pap;
        space.axpy(alpha, p, x);
        space.axpy(-alpha, ap, r);
        st.relres = space.norm(r)? / st.bn;
        st.iterations += 1;
        st.history.push(st.relres);
        // The global norm is non-finite on every rank whenever any rank's
        // local part is, so this divergence decision stays rank-symmetric.
        if !st.relres.is_finite() || space.local_has_non_finite(r) {
            return Ok(CgOutcome::Diverged);
        }
        if st.relres <= st.tol {
            return Ok(CgOutcome::Converged);
        }
        let z = self.z.as_mut().expect("initialized");
        self.m.apply_into(space, r, z)?;
        // No reduction is in flight here (immediate-dot schedule), so a
        // guard policy may post its own blocking collective.
        match policies.after_precond(space, &st.ctx(), r, z)? {
            StackOutcome::Act(resp) => return Ok(CgOutcome::Detected(resp)),
            StackOutcome::Recorded | StackOutcome::Continue => {}
        }
        let rz_new = space.dot(r, z)?;
        let beta = rz_new / self.rz;
        self.rz = rz_new;
        space.xpby(z, beta, p);
        let mut probe = CgProbe::<S> {
            b,
            x,
            bn: st.bn,
            iteration: st.iterations,
        };
        match policies.on_iteration(space, &st.ctx(), &mut probe)? {
            StackOutcome::Act(resp) => return Ok(CgOutcome::Detected(resp)),
            StackOutcome::Recorded | StackOutcome::Continue => {}
        }
        Ok(CgOutcome::Continue)
    }
}

// ---------------------------------------------------------------------------
// Bulk-synchronous CG (two blocking reductions per iteration)
// ---------------------------------------------------------------------------

/// The CG recurrence with two blocking global reductions per iteration —
/// the structure whose latency sensitivity §II-B of the paper describes.
/// Unpreconditioned ([`FusedCgStep::new`]) it tracks `r·r` and matches the
/// legacy `rbsp::cg::dist_cg` operation for operation; with a
/// preconditioner ([`FusedCgStep::preconditioned`]) it runs the z-shifted
/// recurrence, fusing `r·z` and `r·r` into the *same* second reduction so
/// preconditioning leaves the two-allreduce-per-iteration schedule intact.
pub struct FusedCgStep<'m, S: KrylovSpace> {
    m: Option<&'m mut dyn SpacePreconditioner<S>>,
    r: Option<S::Vector>,
    z: Option<S::Vector>,
    p: Option<S::Vector>,
    /// `A·p`, written in place every iteration.
    ap: Option<S::Vector>,
    /// `r·z` (identical to `r·r` unpreconditioned) — drives α and β.
    rz: f64,
    /// `r·r` — drives the convergence test.
    rr: f64,
}

impl<'m, S: KrylovSpace> FusedCgStep<'m, S> {
    /// The unpreconditioned recurrence.
    pub fn new() -> Self {
        Self {
            m: None,
            r: None,
            z: None,
            p: None,
            ap: None,
            rz: 0.0,
            rr: 0.0,
        }
    }

    /// The z-shifted (preconditioned) recurrence.
    pub fn preconditioned(m: &'m mut dyn SpacePreconditioner<S>) -> Self {
        Self::with(Some(m))
    }

    /// [`Self::preconditioned`] when a preconditioner is given, [`Self::new`]
    /// otherwise.
    pub fn with(m: Option<&'m mut dyn SpacePreconditioner<S>>) -> Self {
        Self { m, ..Self::new() }
    }
}

impl<'m, S: KrylovSpace> Default for FusedCgStep<'m, S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'m, S: KrylovSpace> CgStrategy<S> for FusedCgStep<'m, S> {
    fn init(
        &mut self,
        space: &mut S,
        _b: &S::Vector,
        r0: S::Vector,
        st: &mut SolveProgress,
    ) -> Result<()> {
        match self.m.as_mut() {
            None => {
                self.rr = space.dot(&r0, &r0)?;
                self.rz = self.rr;
                self.p = Some(r0.clone());
            }
            Some(m) => {
                let mut z = space.zeros_like(&r0);
                m.apply_into(space, &r0, &mut z)?;
                // One fused reduction for r·z and r·r: preconditioned init
                // posts the same single collective as the legacy init.
                let vals = space.fused_pairs(&[(&r0, &z), (&r0, &r0)], 0)?;
                self.rz = vals[0];
                self.rr = vals[1];
                self.p = Some(z.clone());
                self.z = Some(z);
            }
        }
        self.ap = Some(space.zeros_like(&r0));
        self.r = Some(r0);
        st.relres = self.rr.sqrt() / st.bn;
        st.history.push(st.relres);
        Ok(())
    }

    fn step(
        &mut self,
        space: &mut S,
        x: &mut S::Vector,
        policies: &mut PolicyStack<'_, S>,
        st: &mut SolveProgress,
        b: &S::Vector,
    ) -> Result<CgOutcome> {
        // Convergence is evaluated at the top of the loop (from the previous
        // iteration's reduction), as in the legacy distributed solver.
        st.relres = self.rr.sqrt() / st.bn;
        if st.relres <= st.tol {
            return Ok(CgOutcome::Converged);
        }
        space.advance_extra_work()?;
        let p = self.p.as_mut().expect("initialized");
        let r = self.r.as_mut().expect("initialized");
        match policies.before_spmv(space, &st.ctx(), p)? {
            StackOutcome::Act(resp) => return Ok(CgOutcome::Detected(resp)),
            StackOutcome::Recorded | StackOutcome::Continue => {}
        }
        let ap = self.ap.as_mut().expect("initialized");
        space.apply_into(p, ap)?;
        let ap = &*ap;
        // Blocking reduction #1, carrying any policy check dots (wants-dots
        // negotiation). When checks are fused the after-SpMV hook runs
        // after it so the policies decide from already-global scalars; with
        // no requests the legacy hook-first order is kept, so a detection
        // still skips the reduction.
        let pap = {
            let avail = CheckVectors {
                spmv_input: Some(&*p),
                spmv_product: Some(ap),
                basis_pair: None,
            };
            let mut check_pairs: Vec<(&S::Vector, &S::Vector)> = Vec::new();
            let batch = policies.collect_check_dots(space, &st.ctx(), &avail, &mut check_pairs);
            if batch.is_empty() {
                // Legacy path, order and cost model untouched.
                match policies.after_spmv(space, &st.ctx(), p, ap)? {
                    StackOutcome::Act(resp) => return Ok(CgOutcome::Detected(resp)),
                    StackOutcome::Recorded | StackOutcome::Continue => {}
                }
                space.dot(p, ap)?
            } else {
                let mut pairs: Vec<(&S::Vector, &S::Vector)> = vec![(&*p, ap)];
                pairs.append(&mut check_pairs);
                let all = space.fused_pairs(&pairs, batch.len())?;
                drop(pairs);
                policies.consume_check_dots(&st.ctx(), &batch, &all[1..]);
                match policies.after_spmv(space, &st.ctx(), p, ap)? {
                    StackOutcome::Act(resp) => return Ok(CgOutcome::Detected(resp)),
                    StackOutcome::Recorded | StackOutcome::Continue => {}
                }
                all[0]
            }
        };
        if pap <= 0.0 || !pap.is_finite() {
            return Ok(CgOutcome::Breakdown);
        }
        let alpha = self.rz / pap;
        space.axpy(alpha, p, x);
        space.axpy(-alpha, ap, r);
        space.charge_flops(4 * space.local_len(r));
        // Blocking reduction #2: `r·r` alone unpreconditioned; `r·z` fused
        // with `r·r` in the same collective when a preconditioner is bound.
        let (rz_new, rr_new) = match self.m.as_mut() {
            None => {
                let rr = space.dot(r, r)?;
                (rr, rr)
            }
            Some(m) => {
                let z = self.z.as_mut().expect("preconditioned state");
                m.apply_into(space, r, z)?;
                // Between the two blocking reductions: nothing in flight,
                // so a guard policy may post its own collective. A Restart
                // detection returns before β/p are updated — the rebuilt
                // recurrence recomputes z from the committed iterate.
                match policies.after_precond(space, &st.ctx(), r, z)? {
                    StackOutcome::Act(resp) => return Ok(CgOutcome::Detected(resp)),
                    StackOutcome::Recorded | StackOutcome::Continue => {}
                }
                let vals = space.fused_pairs(&[(&*r, &*z), (&*r, &*r)], 0)?;
                (vals[0], vals[1])
            }
        };
        let beta = rz_new / self.rz;
        self.rz = rz_new;
        self.rr = rr_new;
        if self.m.is_some() {
            let z = self.z.as_ref().expect("preconditioned state");
            space.xpby(z, beta, p);
        } else {
            space.xpby(r, beta, p);
        }
        space.charge_flops(2 * space.local_len(p));
        st.iterations += 1;
        st.relres = self.rr.sqrt() / st.bn;
        st.history.push(st.relres);
        let mut probe = CgProbe::<S> {
            b,
            x,
            bn: st.bn,
            iteration: st.iterations,
        };
        match policies.on_iteration(space, &st.ctx(), &mut probe)? {
            StackOutcome::Act(resp) => return Ok(CgOutcome::Detected(resp)),
            StackOutcome::Recorded | StackOutcome::Continue => {}
        }
        Ok(CgOutcome::Continue)
    }
}

// ---------------------------------------------------------------------------
// Pipelined CG (one nonblocking fused reduction per iteration)
// ---------------------------------------------------------------------------

/// Pipelined CG (Ghysels & Vanroose): algebraically equivalent to CG but
/// with a single nonblocking fused reduction per iteration, posted before
/// the SpMV and completed after it, so the reduction's latency hides behind
/// the matrix-vector product. Unpreconditioned it matches the legacy
/// `rbsp::cg::pipelined_cg`; with a preconditioner it is the preconditioned
/// pipelined CG of the same paper — the recurrence additionally maintains
/// `u = M⁻¹r` and `q = M⁻¹s`, the preconditioner apply joins the SpMV in
/// the overlap region, and `‖r‖²` rides the same single reduction (as a
/// third pair) so the one-allreduce-per-iteration schedule is unchanged.
///
/// **One pass per iteration.** All recurrence updates run as one backend
/// sweep ([`KrylovSpace::pipelined_sweep`]) that also leaves the next
/// reduction's local partials behind; the following step posts those
/// carried partials — plus the policy check tail, which is still reduced
/// from its vectors — without re-reading `r`, `u`, `w`. Every `init` (solve
/// start, policy restart, divergence recovery, LFLR resume) drops them: the
/// first step after it recomputes. The SpMV product lands in a buffer the
/// step keeps, so an iteration allocates no vector.
pub struct PipelinedCgStep<'m, S: KrylovSpace> {
    m: Option<&'m mut dyn SpacePreconditioner<S>>,
    r: Option<S::Vector>,
    /// `u = M⁻¹·r` (preconditioned only).
    u: Option<S::Vector>,
    /// `w = A·u` (unpreconditioned: `A·r`).
    w: Option<S::Vector>,
    /// Buffer for `M⁻¹·w`, the overlap-region preconditioner apply.
    mw: Option<S::Vector>,
    /// This step's SpMV product `A·w` (`A·mw`), written in place.
    aw: Option<S::Vector>,
    /// Tracks the operator image of the search-direction chain (`A·q` /
    /// `A·s`-shifted quantity of the recurrence).
    z: Option<S::Vector>,
    /// `q = M⁻¹·s` (preconditioned only).
    q: Option<S::Vector>,
    /// Tracks `A·p`.
    s: Option<S::Vector>,
    p: Option<S::Vector>,
    gamma_old: f64,
    alpha_old: f64,
    /// Local partials of the solver pairs — `[r·r, w·r]`, preconditioned
    /// `[r·u, w·u, r·r]` — of the *current* `r`, `u`, `w`, left behind by
    /// the last sweep; invalid while `fresh`.
    dots: [f64; 3],
    /// True until the first step after (re-)initialization: the recurrence
    /// must take the iteration-0 branch (β = 0) again after a policy
    /// restart rebuilt it from the current iterate, and no sweep has
    /// carried dot partials over yet.
    fresh: bool,
}

impl<'m, S: KrylovSpace> PipelinedCgStep<'m, S> {
    /// The unpreconditioned recurrence.
    pub fn new() -> Self {
        Self {
            m: None,
            r: None,
            u: None,
            w: None,
            mw: None,
            aw: None,
            z: None,
            q: None,
            s: None,
            p: None,
            gamma_old: 0.0,
            alpha_old: 0.0,
            dots: [0.0; 3],
            fresh: true,
        }
    }

    /// The preconditioned pipelined recurrence.
    pub fn preconditioned(m: &'m mut dyn SpacePreconditioner<S>) -> Self {
        Self::with(Some(m))
    }

    /// [`Self::preconditioned`] when a preconditioner is given, [`Self::new`]
    /// otherwise.
    pub fn with(m: Option<&'m mut dyn SpacePreconditioner<S>>) -> Self {
        Self { m, ..Self::new() }
    }
}

impl<'m, S: KrylovSpace> Default for PipelinedCgStep<'m, S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'m, S: KrylovSpace> CgStrategy<S> for PipelinedCgStep<'m, S> {
    fn init(
        &mut self,
        space: &mut S,
        b: &S::Vector,
        r0: S::Vector,
        st: &mut SolveProgress,
    ) -> Result<()> {
        match self.m.as_mut() {
            None => {
                self.w = Some(space.apply(&r0)?);
            }
            Some(m) => {
                let mut u = space.zeros_like(&r0);
                m.apply_into(space, &r0, &mut u)?;
                self.w = Some(space.apply(&u)?);
                self.u = Some(u);
                self.mw = Some(space.zeros_like(b));
                self.q = Some(space.zeros_like(b)); // tracks M⁻¹ s
            }
        }
        self.aw = Some(space.zeros_like(b));
        self.z = Some(space.zeros_like(b)); // tracks the A·(M⁻¹)s chain
        self.s = Some(space.zeros_like(b)); // tracks A p
        self.p = Some(space.zeros_like(b));
        self.r = Some(r0);
        self.gamma_old = 0.0;
        self.alpha_old = 0.0;
        self.fresh = true;
        st.relres = f64::INFINITY;
        Ok(())
    }

    fn step(
        &mut self,
        space: &mut S,
        x: &mut S::Vector,
        policies: &mut PolicyStack<'_, S>,
        st: &mut SolveProgress,
        b: &S::Vector,
    ) -> Result<CgOutcome> {
        let preconditioned = self.m.is_some();
        // Number of solver pairs in the fused reduction: γ and δ, plus ‖r‖²
        // when preconditioned (γ = (r, M⁻¹r) is the M-norm, not the
        // convergence residual).
        let solver_len = if preconditioned { 3 } else { 2 };
        // The single nonblocking reduction of γ = (r, u), δ = (w, u) (with
        // u = r unpreconditioned), posted from the local partials the last
        // sweep left behind — recomputed from the vectors on the first step
        // after an `init` — plus any policy check dots (wants-dots
        // negotiation; the recurrence maintains w = A·u, so (u, w) is the
        // resolved input/product pair — fused check decisions lag the
        // overlapped SpMV by one step) ...
        let (pending, batch) = {
            let r = self.r.as_ref().expect("initialized");
            let w = self.w.as_ref().expect("initialized");
            let dual = self.u.as_ref().unwrap_or(r);
            if self.fresh {
                let pairs = [(r, dual), (w, dual), (r, r)];
                space.dot_partials(&pairs[..solver_len], &mut self.dots[..solver_len]);
            }
            let avail = CheckVectors {
                spmv_input: Some(dual),
                spmv_product: Some(w),
                basis_pair: None,
            };
            // O(#check pairs) references into the state and the policies, so
            // the list cannot outlive the step; it stays empty (no heap)
            // under an empty stack.
            let mut checks = Vec::new();
            let batch = policies.collect_check_dots(space, &st.ctx(), &avail, &mut checks);
            let n = space.local_len(r);
            let pending = space.start_carried_dots(&self.dots[..solver_len], n, &checks)?;
            (pending, batch)
        };
        // ... and overlapped with the preconditioner apply `mw = M⁻¹·w`,
        // the SpMV `aw = A·(M⁻¹)w` and any extra work.
        space.advance_extra_work()?;
        if let Some(m) = self.m.as_mut() {
            let w = self.w.as_ref().expect("initialized");
            let mw = self.mw.as_mut().expect("preconditioned state");
            m.apply_into(space, w, mw)?;
        }
        // The vector actually fed to A this step (mw is not mutated again
        // until the recurrence updates): hooks and the SpMV must see the
        // same input, so there is exactly one binding.
        let input = match self.mw.as_ref() {
            Some(mw) => mw,
            None => self.w.as_ref().expect("initialized"),
        };
        match policies.before_spmv(space, &st.ctx(), input)? {
            StackOutcome::Act(resp) => {
                // Complete the posted reduction before abandoning the step
                // (detections are rank-symmetric, so every rank drains it):
                // an in-flight collective must be waited on, and the solve
                // may continue after a Restart-response detection.
                space.finish_dots(pending)?;
                return Ok(CgOutcome::Detected(resp));
            }
            StackOutcome::Recorded | StackOutcome::Continue => {}
        }
        let aw = self.aw.as_mut().expect("initialized");
        space.apply_into(input, aw)?;
        let aw = &*aw;
        let reduced = space.finish_dots(pending)?;
        policies.consume_check_dots(&st.ctx(), &batch, &reduced[solver_len..]);
        match policies.after_spmv(space, &st.ctx(), input, aw)? {
            StackOutcome::Act(resp) => return Ok(CgOutcome::Detected(resp)),
            StackOutcome::Recorded | StackOutcome::Continue => {}
        }
        // Guard the overlap-region preconditioner apply `mw = M⁻¹·w` *after*
        // the fused reduction completed (the hook contract lets a guard
        // policy post its own blocking collective) and *before* mw enters
        // the recurrence: a Restart detection returns with x and r
        // untouched this step.
        if preconditioned {
            let w = self.w.as_ref().expect("initialized");
            let mw = self.mw.as_ref().expect("preconditioned state");
            match policies.after_precond(space, &st.ctx(), w, mw)? {
                StackOutcome::Act(resp) => return Ok(CgOutcome::Detected(resp)),
                StackOutcome::Recorded | StackOutcome::Continue => {}
            }
        }
        let (gamma, delta) = (reduced[0], reduced[1]);
        let rr = if preconditioned { reduced[2] } else { gamma };

        st.relres = sqrt_nonneg(rr) / st.bn;
        if st.history.is_empty() {
            st.history.push(st.relres);
        }
        if st.relres <= st.tol || !st.relres.is_finite() {
            return Ok(if st.relres <= st.tol {
                CgOutcome::Converged
            } else {
                CgOutcome::Diverged
            });
        }

        let (alpha, beta);
        if !self.fresh {
            beta = gamma / self.gamma_old;
            alpha = gamma / (delta - beta * gamma / self.alpha_old);
        } else {
            beta = 0.0;
            alpha = gamma / delta;
        }
        if !alpha.is_finite() || alpha == 0.0 {
            return Ok(CgOutcome::Breakdown);
        }

        // Recurrence updates (all local): z ← aw + βz, s ← w + βs,
        // p ← u + βp, x ← x + αp, r ← r − αs, u ← u − αq, w ← w − αz —
        // plus q ← mw + βq maintaining q = M⁻¹s when preconditioned — in
        // one pass, which also leaves the next step's dot partials behind.
        let precond = match (self.mw.as_ref(), self.q.as_mut(), self.u.as_mut()) {
            (Some(mw), Some(q), Some(u)) => Some((mw, q, u)),
            _ => None,
        };
        space.pipelined_sweep(
            alpha,
            beta,
            PipelinedSweep {
                aw,
                precond,
                z: self.z.as_mut().expect("initialized"),
                s: self.s.as_mut().expect("initialized"),
                p: self.p.as_mut().expect("initialized"),
                x,
                r: self.r.as_mut().expect("initialized"),
                w: self.w.as_mut().expect("initialized"),
            },
            &mut self.dots[..solver_len],
        );

        self.gamma_old = gamma;
        self.alpha_old = alpha;
        self.fresh = false;
        st.iterations += 1;
        st.history.push(st.relres);
        let mut probe = CgProbe::<S> {
            b,
            x,
            bn: st.bn,
            iteration: st.iterations,
        };
        match policies.on_iteration(space, &st.ctx(), &mut probe)? {
            StackOutcome::Act(resp) => return Ok(CgOutcome::Detected(resp)),
            StackOutcome::Recorded | StackOutcome::Continue => {}
        }
        Ok(CgOutcome::Continue)
    }
}
