//! The unified GMRES-family kernel: one restarted Arnoldi/Givens iteration
//! core parameterized by an orthogonalization (dot) strategy, an optional
//! flexible right preconditioner and a resilience-policy stack.
//!
//! The three [`OrthoStrategy`] implementations differ only in when their
//! reductions happen, and each charges `2n` per dot, norm and projection
//! update of an Arnoldi step:
//!
//! * [`MgsOrtho`] — modified Gram–Schmidt with immediate (blocking) dots:
//!   the serial `gmres`/`fgmres`/`skeptical_gmres` inner loop;
//! * [`CgsOrtho`] — classical Gram–Schmidt with one fused blocking
//!   reduction for the projection coefficients and one for the norm: the
//!   bulk-synchronous distributed GMRES;
//! * [`PipelinedOrtho`] — the p(1) pipelining of Ghysels, Ashby, Meerbergen
//!   & Vanroose: a single nonblocking fused reduction overlapped with the
//!   *speculative* next product, basis and products recovered by linearity.
//!
//! Every preset runs one control flow ([`run_gmres`]): one stop decision at
//! each cycle start and one at each cycle end.

use resilient_linalg::HessenbergLsq;
use resilient_runtime::Result;

use super::policy::{
    CheckVectors, DetectionResponse, FailureEvent, PolicyStack, RecoveryAction, SolutionProbe,
    StackOutcome,
};
use super::space::KrylovSpace;
use super::{sqrt_nonneg, KernelOutcome, KernelReport, SolveProgress};
use crate::solvers::common::{SolveOptions, StopReason};

/// A possibly nonlinear, possibly unreliable right preconditioner
/// `z ≈ A⁻¹·v` applied through a space (the flexible-GMRES inner solve).
pub trait FlexibleRight<S: KrylovSpace> {
    /// Apply the inner solver to `v`.
    fn apply(&mut self, space: &mut S, v: &S::Vector) -> Result<S::Vector>;
    /// Name for reporting.
    fn name(&self) -> &'static str {
        "flexible"
    }
}

/// One restart cycle's worth of Krylov state.
pub struct GmresCycle<V> {
    /// Orthonormal basis v₀ … v_k.
    pub basis: Vec<V>,
    /// Flexibly preconditioned vectors z₀ … z_{k−1} (flexible mode only).
    pub z_basis: Vec<V>,
    /// Operator products A·v₀ … A·v_k (pipelined mode only).
    pub products: Vec<V>,
    /// The running Hessenberg least-squares factorization.
    pub lsq: HessenbergLsq,
    /// Cycle-initial residual norm β.
    pub beta: f64,
}

impl<V> GmresCycle<V> {
    /// Completed Arnoldi steps in this cycle.
    pub fn steps(&self) -> usize {
        self.lsq.len()
    }
}

/// What one orthogonalization step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The cycle was extended by one column.
    Extended,
    /// Happy breakdown: the column was consumed but the subspace is
    /// invariant; the cycle is over.
    Breakdown,
    /// A record-only policy detection consumed the step without extending
    /// (the legacy skeptical "observe but keep going" semantics).
    Skipped,
    /// A policy detected corruption and demands the given response
    /// (`Restart` or `Abort`; `RecordOnly` never surfaces here).
    Detected(DetectionResponse),
}

/// Orthogonalization/dot scheduling strategy for the GMRES kernel.
pub trait OrthoStrategy<S: KrylovSpace> {
    /// Called once per restart cycle after the basis is seeded with v₀
    /// (pipelined strategies compute the product of v₀ here, applying the
    /// flexible right preconditioner first when one is bound).
    fn begin_cycle(
        &mut self,
        _space: &mut S,
        _cycle: &mut GmresCycle<S::Vector>,
        _flexible: &mut Option<&mut dyn FlexibleRight<S>>,
    ) -> Result<()> {
        Ok(())
    }

    /// Perform one Arnoldi step: operator application, orthogonalization,
    /// least-squares update, policy hooks.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &mut self,
        space: &mut S,
        cycle: &mut GmresCycle<S::Vector>,
        policies: &mut PolicyStack<'_, S>,
        st: &mut SolveProgress,
        flexible: &mut Option<&mut dyn FlexibleRight<S>>,
        b: &S::Vector,
        x: &S::Vector,
        report: &mut KernelReport,
    ) -> Result<StepOutcome>;
}

/// A field-less shim: every GMRES solve runs one control flow, and
/// [`run_gmres`] does not read its `_flavor` argument. It exists only
/// because the frozen `perf_ledger` benchmark calls
/// `run_gmres(…, &GmresFlavor::distributed())`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GmresFlavor;

impl GmresFlavor {
    /// The one GMRES control flow.
    pub fn distributed() -> Self {
        Self
    }
}

// ---------------------------------------------------------------------------
// Probe
// ---------------------------------------------------------------------------

struct GmresProbe<'a, S: KrylovSpace> {
    b: &'a S::Vector,
    x: &'a S::Vector,
    lsq: &'a HessenbergLsq,
    correction_basis: &'a [S::Vector],
    /// ‖b‖ computed once at solve start (floored at `f64::MIN_POSITIVE`);
    /// reusing it saves an allreduce per probe in distributed spaces.
    bn: f64,
    /// Iteration `x` corresponds to: the cycle base — GMRES only commits
    /// the iterate at cycle boundaries.
    base_iteration: usize,
}

impl<'a, S: KrylovSpace> SolutionProbe<S> for GmresProbe<'a, S> {
    fn local_len(&self, space: &S) -> usize {
        space.local_len(self.x)
    }

    fn iterate(&self) -> &S::Vector {
        self.x
    }

    fn iterate_step(&self) -> usize {
        self.base_iteration
    }

    fn trial_true_relres(&mut self, space: &mut S) -> Result<f64> {
        let mut xt = self.x.clone();
        let y = self.lsq.solve();
        for (j, yj) in y.iter().enumerate() {
            space.axpy(*yj, &self.correction_basis[j], &mut xt);
        }
        let ax = space.apply(&xt)?;
        let r = space.residual(self.b, &ax);
        let rn = space.norm(&r)?;
        Ok(rn / self.bn)
    }
}

/// Post-extension policy hooks shared by every orthogonalization strategy:
/// skipped entirely once the recurrence reports convergence (at rounding
/// level the newest basis vector is noise and orthogonality tests would
/// false-positive); a record-only orthogonality detection skips the
/// residual check, as the legacy skeptical solver did.
fn finish_extended_step<S: KrylovSpace>(
    space: &mut S,
    cycle: &GmresCycle<S::Vector>,
    policies: &mut PolicyStack<'_, S>,
    st: &SolveProgress,
    b: &S::Vector,
    x: &S::Vector,
    use_z_basis: bool,
) -> Result<StepOutcome> {
    if st.relres <= st.tol {
        return Ok(StepOutcome::Extended);
    }
    let len = cycle.basis.len();
    let (new_v, prev_v) = (&cycle.basis[len - 1], cycle.basis.get(len.wrapping_sub(2)));
    match policies.after_orthogonalization(space, &st.ctx(), new_v, prev_v)? {
        StackOutcome::Act(r) => return Ok(StepOutcome::Detected(r)),
        StackOutcome::Recorded => return Ok(StepOutcome::Extended),
        StackOutcome::Continue => {}
    }
    let correction_basis: &[S::Vector] = if use_z_basis {
        &cycle.z_basis
    } else {
        &cycle.basis
    };
    let mut probe = GmresProbe::<S> {
        b,
        x,
        lsq: &cycle.lsq,
        correction_basis,
        bn: st.bn,
        base_iteration: st.iterations - st.cycle_step,
    };
    match policies.on_iteration(space, &st.ctx(), &mut probe)? {
        StackOutcome::Act(r) => return Ok(StepOutcome::Detected(r)),
        StackOutcome::Recorded | StackOutcome::Continue => {}
    }
    Ok(StepOutcome::Extended)
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// Modified Gram–Schmidt with immediate dots (the serial strategy).
#[derive(Debug, Default)]
pub struct MgsOrtho;

impl MgsOrtho {
    /// New strategy.
    pub fn new() -> Self {
        Self
    }
}

impl<S: KrylovSpace> OrthoStrategy<S> for MgsOrtho {
    fn step(
        &mut self,
        space: &mut S,
        cycle: &mut GmresCycle<S::Vector>,
        policies: &mut PolicyStack<'_, S>,
        st: &mut SolveProgress,
        flexible: &mut Option<&mut dyn FlexibleRight<S>>,
        b: &S::Vector,
        x: &S::Vector,
        report: &mut KernelReport,
    ) -> Result<StepOutcome> {
        let vj = cycle.basis.last().expect("basis is never empty").clone();
        let n = space.local_len(&vj);

        // Flexible (inner, possibly unreliable) preconditioning with the
        // outer skeptical validity check.
        let input = if let Some(f) = flexible.as_mut() {
            report.inner_applications += 1;
            let z = f.apply(space, &vj)?;
            if space.local_len(&z) != n || space.local_has_non_finite(&z) {
                report.rejected_inner_results += 1;
                vj.clone()
            } else {
                z
            }
        } else {
            vj
        };
        // Guard the inner/preconditioner apply (immediate-dot schedule:
        // nothing in flight, a guard policy may post its own collective).
        // A rejected inner result already fell back to v_j, which passes
        // any consistency check trivially.
        if flexible.is_some() {
            let vj_ref = cycle.basis.last().expect("basis is never empty");
            match policies.after_precond(space, &st.ctx(), vj_ref, &input)? {
                StackOutcome::Act(r) => return Ok(StepOutcome::Detected(r)),
                StackOutcome::Recorded | StackOutcome::Continue => {}
            }
        }

        match policies.before_spmv(space, &st.ctx(), &input)? {
            StackOutcome::Act(r) => return Ok(StepOutcome::Detected(r)),
            StackOutcome::Recorded | StackOutcome::Continue => {}
        }
        let mut w = space.apply(&input)?;
        match policies.after_spmv(space, &st.ctx(), &input, &w)? {
            StackOutcome::Act(r) => return Ok(StepOutcome::Detected(r)),
            StackOutcome::Recorded => return Ok(StepOutcome::Skipped),
            StackOutcome::Continue => {}
        }

        // Modified Gram–Schmidt against the existing basis: each coefficient
        // is computed against the already partially orthogonalized w.
        let mut h = Vec::with_capacity(cycle.basis.len() + 1);
        for i in 0..cycle.basis.len() {
            let hij = space.dot(&cycle.basis[i], &w)?;
            space.axpy(-hij, &cycle.basis[i], &mut w);
            h.push(hij);
        }
        space.charge_flops(2 * n * cycle.basis.len());
        let h_next = space.norm(&w)?;
        h.push(h_next);
        let res_norm = cycle.lsq.push_column(&h);
        st.iterations += 1;
        st.cycle_step += 1;
        st.relres = res_norm / st.bn;
        st.history.push(st.relres);
        if flexible.is_some() {
            cycle.z_basis.push(input);
        }
        if h_next <= f64::EPSILON * cycle.beta.max(1.0) {
            return Ok(StepOutcome::Breakdown);
        }
        space.scale(1.0 / h_next, &mut w);
        cycle.basis.push(w);
        finish_extended_step(space, cycle, policies, st, b, x, flexible.is_some())
    }
}

/// Classical Gram–Schmidt with fused blocking reductions (the
/// bulk-synchronous distributed strategy): one allreduce for all projection
/// coefficients, one for the normalization.
///
/// With a flexible right preconditioner bound, the strategy iterates on
/// `A·M⁻¹` and stores the preconditioned vectors in the cycle's `z_basis`
/// for the solution correction — right-preconditioned distributed GMRES.
/// Unlike [`MgsOrtho`] there is no validity-rejection of the
/// preconditioned vector: a rejection decision from rank-local data would
/// desynchronize rank control flow, so the distributed slot is reserved for
/// deterministic total operators (see
/// [`RightPrecond`](super::precond::RightPrecond)).
#[derive(Debug, Default)]
pub struct CgsOrtho;

impl CgsOrtho {
    /// New strategy.
    pub fn new() -> Self {
        Self
    }
}

impl<S: KrylovSpace> OrthoStrategy<S> for CgsOrtho {
    fn step(
        &mut self,
        space: &mut S,
        cycle: &mut GmresCycle<S::Vector>,
        policies: &mut PolicyStack<'_, S>,
        st: &mut SolveProgress,
        flexible: &mut Option<&mut dyn FlexibleRight<S>>,
        b: &S::Vector,
        x: &S::Vector,
        report: &mut KernelReport,
    ) -> Result<StepOutcome> {
        space.advance_extra_work()?;
        let vj = cycle.basis.last().expect("basis is never empty").clone();
        let n = space.local_len(&vj);

        // Right preconditioning: the operator input is M⁻¹·v_j.
        let input = if let Some(f) = flexible.as_mut() {
            report.inner_applications += 1;
            f.apply(space, &vj)?
        } else {
            vj
        };
        // Guard the right-preconditioner apply before its output enters the
        // Arnoldi step. No reduction is in flight yet, so a guard policy may
        // post its own blocking collective; the preconditioned-or-not branch
        // is a solve-wide constant, so rank control flow stays symmetric.
        if flexible.is_some() {
            let vj_ref = cycle.basis.last().expect("basis is never empty");
            match policies.after_precond(space, &st.ctx(), vj_ref, &input)? {
                StackOutcome::Act(r) => return Ok(StepOutcome::Detected(r)),
                StackOutcome::Recorded | StackOutcome::Continue => {}
            }
        }

        match policies.before_spmv(space, &st.ctx(), &input)? {
            StackOutcome::Act(r) => return Ok(StepOutcome::Detected(r)),
            StackOutcome::Recorded | StackOutcome::Continue => {}
        }
        let mut w = space.apply(&input)?;

        // Projection coefficients: one fused blocking reduction, carrying
        // any policy check dots (wants-dots negotiation). The after-SpMV
        // hook runs after the reduction, so the policies decide from the
        // already-global scalars.
        let len = cycle.basis.len();
        let mut h = {
            let avail = CheckVectors {
                spmv_input: Some(&input),
                spmv_product: Some(&w),
                basis_pair: (len >= 2).then(|| (&cycle.basis[len - 1], &cycle.basis[len - 2])),
            };
            let mut pairs: Vec<(&S::Vector, &S::Vector)> =
                cycle.basis.iter().map(|v| (v, &w)).collect();
            let batch = policies.collect_check_dots(space, &st.ctx(), &avail, &mut pairs);
            let mut all = space.fused_pairs(&pairs, batch.len())?;
            drop(pairs);
            policies.consume_check_dots(&st.ctx(), &batch, &all[len..]);
            all.truncate(len);
            all
        };
        match policies.after_spmv(space, &st.ctx(), &input, &w)? {
            StackOutcome::Act(r) => return Ok(StepOutcome::Detected(r)),
            StackOutcome::Recorded => return Ok(StepOutcome::Skipped),
            StackOutcome::Continue => {}
        }
        for (hij, v) in h.iter().zip(&cycle.basis) {
            space.axpy(-hij, v, &mut w);
        }
        space.charge_flops(2 * n * cycle.basis.len());
        // Normalization: second blocking reduction.
        let h_next = space.norm(&w)?;
        h.push(h_next);
        st.relres = cycle.lsq.push_column(&h) / st.bn;
        st.iterations += 1;
        st.cycle_step += 1;
        st.history.push(st.relres);
        if flexible.is_some() {
            cycle.z_basis.push(input);
        }
        if h_next <= f64::EPSILON * cycle.beta.max(1.0) {
            return Ok(StepOutcome::Breakdown);
        }
        space.scale(1.0 / h_next, &mut w);
        cycle.basis.push(w);
        finish_extended_step(space, cycle, policies, st, b, x, flexible.is_some())
    }
}

/// p(1)-pipelined orthogonalization: one nonblocking fused reduction per
/// step, overlapped with the speculative product of the still-unnormalized
/// vector; the orthonormal basis vector and its product are recovered by
/// linearity.
///
/// With a flexible right preconditioner bound, the strategy pipelines the
/// composite operator `A·M⁻¹` and additionally maintains the preconditioned
/// basis `u_j = M⁻¹·v_j` in the cycle's `z_basis` **by the same linearity
/// recovery** — the `M⁻¹` apply needed for the next speculative product also
/// extends the correction basis, so right preconditioning costs exactly one
/// preconditioner apply per iteration and still posts a single reduction.
/// This relies on `M⁻¹` being a *fixed linear operator* (true for
/// [`RightPrecond`](super::precond::RightPrecond) over any
/// [`SpacePreconditioner`](super::precond::SpacePreconditioner)); genuinely
/// nonlinear inner solves belong to [`MgsOrtho`].
#[derive(Debug, Default)]
pub struct PipelinedOrtho;

impl PipelinedOrtho {
    /// New strategy.
    pub fn new() -> Self {
        Self
    }
}

impl<S: KrylovSpace> OrthoStrategy<S> for PipelinedOrtho {
    fn begin_cycle(
        &mut self,
        space: &mut S,
        cycle: &mut GmresCycle<S::Vector>,
        flexible: &mut Option<&mut dyn FlexibleRight<S>>,
    ) -> Result<()> {
        let v0 = cycle.basis[0].clone();
        let z0 = match flexible.as_mut() {
            Some(f) => {
                let u0 = f.apply(space, &v0)?;
                let z0 = space.apply(&u0)?;
                cycle.z_basis.clear();
                cycle.z_basis.push(u0);
                z0
            }
            None => space.apply(&v0)?,
        };
        cycle.products.clear();
        cycle.products.push(z0);
        Ok(())
    }

    fn step(
        &mut self,
        space: &mut S,
        cycle: &mut GmresCycle<S::Vector>,
        policies: &mut PolicyStack<'_, S>,
        st: &mut SolveProgress,
        flexible: &mut Option<&mut dyn FlexibleRight<S>>,
        b: &S::Vector,
        x: &S::Vector,
        report: &mut KernelReport,
    ) -> Result<StepOutcome> {
        let j = cycle.basis.len() - 1;
        let zj = cycle.products[j].clone();
        let n = space.local_len(&zj);
        let is_flexible = flexible.is_some();

        // Fused dots (v_i, z_j) for i = 0..=j plus (z_j, z_j), posted as a
        // single nonblocking reduction that also carries any policy check
        // dots (wants-dots negotiation). At post time the resolved SpMV is
        // z_j = A·v_j (right-preconditioned: A·u_j with u_j = M⁻¹·v_j, the
        // z_basis entry) and the newest formed basis pair is (v_j, v_{j−1}),
        // so fused check decisions lag the hooks by one step — the cost of
        // keeping detection off the p(1) critical path.
        let solver_len = cycle.basis.len() + 1;
        let (pending, batch) = {
            let mut pairs: Vec<(&S::Vector, &S::Vector)> =
                cycle.basis.iter().map(|v| (v, &zj)).collect();
            pairs.push((&zj, &zj));
            let avail = CheckVectors {
                spmv_input: Some(if is_flexible {
                    &cycle.z_basis[j]
                } else {
                    &cycle.basis[j]
                }),
                spmv_product: Some(&zj),
                basis_pair: (j >= 1).then(|| (&cycle.basis[j], &cycle.basis[j - 1])),
            };
            let batch = policies.collect_check_dots(space, &st.ctx(), &avail, &mut pairs);
            (space.start_dots_tagged(&pairs, batch.len())?, batch)
        };
        // ... and overlapped with the preconditioner apply m_j = M⁻¹·z_j
        // (right-preconditioned mode), the speculative next product
        // A·(M⁻¹)z_j and any extra application work.
        space.advance_extra_work()?;
        let mj = match flexible.as_mut() {
            Some(f) => {
                report.inner_applications += 1;
                Some(f.apply(space, &zj)?)
            }
            None => None,
        };
        let spec_input: &S::Vector = mj.as_ref().unwrap_or(&zj);
        match policies.before_spmv(space, &st.ctx(), spec_input)? {
            StackOutcome::Act(r) => {
                // Complete the posted reduction before abandoning the step
                // (detections are rank-symmetric, so every rank drains it):
                // an in-flight collective must be waited on, and the solve
                // continues after a Restart-response detection.
                space.finish_dots(pending)?;
                return Ok(StepOutcome::Detected(r));
            }
            StackOutcome::Recorded | StackOutcome::Continue => {}
        }
        let azj = space.apply(spec_input)?;
        let reduced = space.finish_dots(pending)?;
        policies.consume_check_dots(&st.ctx(), &batch, &reduced[solver_len..]);
        match policies.after_spmv(space, &st.ctx(), spec_input, &azj)? {
            StackOutcome::Act(r) => return Ok(StepOutcome::Detected(r)),
            StackOutcome::Recorded => return Ok(StepOutcome::Skipped),
            StackOutcome::Continue => {}
        }
        // Guard the overlap-region preconditioner apply m_j = M⁻¹·z_j
        // *after* the fused reduction completed (a guard policy may post
        // its own blocking collective here) and *before* m_j extends the
        // preconditioned basis by linearity: a Restart detection discards
        // the cycle with x — which only changes at cycle boundaries —
        // untouched.
        if let Some(mj) = mj.as_ref() {
            match policies.after_precond(space, &st.ctx(), &zj, mj)? {
                StackOutcome::Act(r) => return Ok(StepOutcome::Detected(r)),
                StackOutcome::Recorded | StackOutcome::Continue => {}
            }
        }
        let (h_proj, zz) = reduced[..solver_len].split_at(cycle.basis.len());
        let zz = zz[0];
        // ‖z_j − Σ h_i v_i‖² = (z_j,z_j) − Σ h_i² by orthonormality of V.
        let h_next_sq = zz - h_proj.iter().map(|h| h * h).sum::<f64>();
        // NaN must take this branch too, hence no plain `<=` comparison.
        if h_next_sq.is_nan() || h_next_sq <= f64::EPSILON * zz.max(1.0) {
            // Breakdown (or roundoff made the pipelined norm unusable):
            // close the cycle here; the outer loop recomputes the true
            // residual and restarts if needed.
            let mut h = h_proj.to_vec();
            h.push(sqrt_nonneg(h_next_sq));
            st.relres = cycle.lsq.push_column(&h) / st.bn;
            st.iterations += 1;
            st.cycle_step += 1;
            st.history.push(st.relres);
            return Ok(StepOutcome::Breakdown);
        }
        let h_next = h_next_sq.sqrt();
        // v_{j+1} = (z_j − Σ h_i v_i) / h_next, and by linearity
        // A v_{j+1} = (A z_j − Σ h_i A v_i) / h_next — and, preconditioned,
        // M⁻¹ v_{j+1} = (M⁻¹ z_j − Σ h_i u_i) / h_next with the already
        // computed m_j = M⁻¹ z_j.
        let mut v_next = zj.clone();
        let mut z_next = azj;
        for (hij, (v, z)) in h_proj.iter().zip(cycle.basis.iter().zip(&cycle.products)) {
            space.axpy(-hij, v, &mut v_next);
            space.axpy(-hij, z, &mut z_next);
        }
        space.scale(1.0 / h_next, &mut v_next);
        space.scale(1.0 / h_next, &mut z_next);
        if let Some(mut u_next) = mj {
            for (hij, u) in h_proj.iter().zip(&cycle.z_basis) {
                space.axpy(-hij, u, &mut u_next);
            }
            space.scale(1.0 / h_next, &mut u_next);
            cycle.z_basis.push(u_next);
            space.charge_flops(8 * n * cycle.basis.len());
        } else {
            space.charge_flops(6 * n * cycle.basis.len());
        }

        let mut h = h_proj.to_vec();
        h.push(h_next);
        st.relres = cycle.lsq.push_column(&h) / st.bn;
        st.iterations += 1;
        st.cycle_step += 1;
        st.history.push(st.relres);
        cycle.basis.push(v_next);
        cycle.products.push(z_next);
        finish_extended_step(space, cycle, policies, st, b, x, is_flexible)
    }
}

// ---------------------------------------------------------------------------
// Kernel
// ---------------------------------------------------------------------------

/// Commit the cycle's correction to `x`, charged `2n` per basis vector.
fn update_solution<S: KrylovSpace>(
    space: &mut S,
    x: &mut S::Vector,
    cycle: &GmresCycle<S::Vector>,
    flexible: bool,
) {
    if cycle.steps() == 0 && !flexible {
        return;
    }
    let basis: &[S::Vector] = if flexible {
        &cycle.z_basis
    } else {
        &cycle.basis
    };
    if flexible && basis.is_empty() {
        return;
    }
    let y = cycle.lsq.solve();
    for (j, yj) in y.iter().enumerate() {
        space.axpy(*yj, &basis[j], x);
    }
    let n = space.local_len(x);
    space.charge_flops(2 * n * y.len());
}

/// `‖b − A·x‖ / ‖b‖`: one operator application and one reduction.
fn true_relres<S: KrylovSpace>(
    space: &mut S,
    b: &S::Vector,
    x: &S::Vector,
    bn: f64,
) -> Result<f64> {
    let ax = space.apply(x)?;
    let r = space.residual(b, &ax);
    Ok(space.norm(&r)? / bn)
}

/// Run the unified restarted-GMRES kernel.
///
/// Returns the solve outcome plus the kernel report (flexible and policy
/// statistics). `flexible` switches the kernel into FGMRES mode: the inner
/// solver is applied to every basis vector and the solution correction uses
/// the preconditioned basis. `_flavor` is not read (see [`GmresFlavor`]).
///
/// Every solve takes the same two decisions. At a cycle start, from the
/// true residual: converged, then non-finite (a policy's recovery, or
/// `Diverged`), then the iteration cap. At a cycle end, after committing
/// the correction: a recurrence that claims convergence is checked against
/// a charged true residual, then the iteration cap. A happy breakdown
/// closes the cycle, not the solve.
#[allow(clippy::too_many_arguments)]
pub fn run_gmres<S: KrylovSpace, T: OrthoStrategy<S>>(
    space: &mut S,
    b: &S::Vector,
    x0: Option<S::Vector>,
    opts: &SolveOptions,
    strategy: &mut T,
    policies: &mut PolicyStack<'_, S>,
    mut flexible: Option<&mut dyn FlexibleRight<S>>,
    _flavor: &GmresFlavor,
) -> Result<(KernelOutcome<S::Vector>, KernelReport)> {
    let mut x = x0.unwrap_or_else(|| space.zeros_like(b));
    let bn = space.norm(b)?.max(f64::MIN_POSITIVE);
    let restart = opts.restart.max(1);
    let mut st = SolveProgress::new(opts.tol, opts.max_iters, bn);
    let mut report = KernelReport::default();
    let is_flexible = flexible.is_some();
    policies.on_solve_start(space, b)?;

    let reason;
    // Backstop against a record-only detection that fires on every product:
    // skipped steps make no progress, so cap them like policy restarts.
    let mut skipped_steps = 0usize;
    'outer: loop {
        // --- Cycle start: true residual and stop decision -----------------
        let ax = space.apply(&x)?;
        let r0 = space.residual(b, &ax);
        let rnorm = space.norm(&r0)?;
        st.relres = rnorm / bn;
        if st.history.is_empty() {
            st.history.push(st.relres);
        }
        if st.relres <= opts.tol {
            reason = StopReason::Converged;
            break 'outer;
        }
        if !st.relres.is_finite() {
            if recover(policies, &mut st, &mut x, &mut report) {
                st.cycle += 1;
                continue 'outer;
            }
            reason = StopReason::Diverged;
            break 'outer;
        }
        if st.iterations >= opts.max_iters {
            reason = StopReason::MaxIterations;
            break 'outer;
        }
        policies.on_cycle_start(space, &st.ctx(), &x)?;

        // --- Seed the cycle ----------------------------------------------
        let mut v0 = r0;
        if rnorm > 0.0 {
            space.scale(1.0 / rnorm, &mut v0);
        }
        let mut cycle = GmresCycle {
            basis: vec![v0],
            z_basis: Vec::new(),
            products: Vec::new(),
            lsq: HessenbergLsq::new(restart, rnorm),
            beta: rnorm,
        };
        strategy.begin_cycle(space, &mut cycle, &mut flexible)?;
        st.cycle_step = 0;

        // --- Inner (Arnoldi) loop ----------------------------------------
        let mut corrupted = false;
        for _ in 0..restart {
            if st.iterations >= opts.max_iters {
                break;
            }
            match strategy.step(
                space,
                &mut cycle,
                policies,
                &mut st,
                &mut flexible,
                b,
                &x,
                &mut report,
            )? {
                StepOutcome::Extended => {
                    if st.relres <= opts.tol {
                        break;
                    }
                }
                StepOutcome::Breakdown => break,
                StepOutcome::Skipped => {
                    skipped_steps += 1;
                    if skipped_steps > opts.max_iters.max(restart) {
                        corrupted = true;
                        break;
                    }
                }
                StepOutcome::Detected(DetectionResponse::Restart) => {
                    report.policy_restarts += 1;
                    // A detection that fires on every retry would restart
                    // forever without consuming iterations; treat the
                    // persistent corruption as terminal instead.
                    if report.policy_restarts > opts.max_iters.max(1) {
                        corrupted = true;
                        break;
                    }
                    // Keep whatever progress preceded the corrupted step:
                    // the cycle is discarded and the outer loop recomputes
                    // the residual from x, which only changes at cycle
                    // boundaries and is therefore uncorrupted.
                    st.cycle += 1;
                    continue 'outer;
                }
                StepOutcome::Detected(_) => {
                    corrupted = true;
                    break;
                }
            }
        }

        // --- Cycle end: solution update and stop decision ----------------
        update_solution(space, &mut x, &cycle, is_flexible);
        if corrupted {
            st.relres = true_relres(space, b, &x, bn)?;
            reason = StopReason::CorruptionDetected;
            break 'outer;
        }
        if st.relres <= opts.tol {
            // The recurrence estimate can collapse to zero through roundoff
            // while the iterate is nowhere near convergence (the pipelined
            // zz-recurrence, found fault-free by the campaign oracle), so
            // the claim is checked with a charged true residual. A refuted
            // claim falls through: to an honest MaxIterations, or to a
            // restart whose cycle-start residual governs as usual.
            st.relres = true_relres(space, b, &x, bn)?;
            if st.relres <= opts.tol {
                reason = StopReason::Converged;
                break 'outer;
            }
        }
        if st.iterations >= opts.max_iters {
            reason = StopReason::MaxIterations;
            break 'outer;
        }
        st.cycle += 1;
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

fn recover<S: KrylovSpace>(
    policies: &mut PolicyStack<'_, S>,
    st: &mut SolveProgress,
    x: &mut S::Vector,
    report: &mut KernelReport,
) -> bool {
    // Backstop against a recovery policy that restores forever without the
    // solve making progress (well-behaved policies bound themselves).
    if report.failure_recoveries >= st.max_iters.max(1) {
        return false;
    }
    if policies.on_failure(&st.ctx(), FailureEvent::Divergence, x) == RecoveryAction::Restart {
        report.failure_recoveries += 1;
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::{DistCsr, DistVector};
    use crate::kernel::policy::{IterCtx, PolicyAction, PolicyOverhead, ResiliencePolicy};
    use crate::kernel::space::DistSpace;
    use resilient_linalg::poisson2d;
    use resilient_runtime::{Comm, RuntimeConfig};

    /// A policy that detects on every product — the pathological case a
    /// stuck-at fault model or mismatched ABFT encoding produces.
    struct AlwaysDetect {
        response: DetectionResponse,
        overhead: PolicyOverhead,
    }

    impl AlwaysDetect {
        fn new(response: DetectionResponse) -> Self {
            Self {
                response,
                overhead: PolicyOverhead {
                    name: "always-detect",
                    ..PolicyOverhead::default()
                },
            }
        }
    }

    impl<S: KrylovSpace> ResiliencePolicy<S> for AlwaysDetect {
        fn name(&self) -> &'static str {
            "always-detect"
        }
        fn response(&self) -> DetectionResponse {
            self.response
        }
        fn after_spmv(
            &mut self,
            _space: &mut S,
            _ctx: &IterCtx,
            _v: &S::Vector,
            _w: &S::Vector,
        ) -> Result<PolicyAction> {
            self.overhead.detections += 1;
            Ok(PolicyAction::Detected)
        }
        fn overhead(&self) -> PolicyOverhead {
            self.overhead.clone()
        }
    }

    #[test]
    fn persistent_restart_detection_terminates() {
        // Regression: a detection that fires on every retry must not restart
        // the cycle forever — the kernel caps policy restarts at max_iters
        // and stops with CorruptionDetected.
        let mut comm = Comm::solo(&RuntimeConfig::fast());
        let a = DistCsr::from_global(&mut comm, &poisson2d(6, 6)).unwrap();
        let b = DistVector::from_fn(&comm, a.global_dim(), |_| 1.0);
        let mut space = DistSpace::new(&mut comm, &a);
        let mut policy = AlwaysDetect::new(DetectionResponse::Restart);
        let mut stack = PolicyStack::new(vec![&mut policy]);
        let opts = SolveOptions::default().with_tol(1e-9).with_max_iters(25);
        let (out, report) = run_gmres(
            &mut space,
            &b,
            None,
            &opts,
            &mut MgsOrtho::new(),
            &mut stack,
            None,
            &GmresFlavor::distributed(),
        )
        .unwrap();
        assert_eq!(out.reason, StopReason::CorruptionDetected);
        assert_eq!(out.iterations, 0, "no step ever extended the basis");
        assert!(report.policy_restarts > opts.max_iters);
    }

    #[test]
    fn persistent_record_only_detection_terminates() {
        // Same pathology through the record-only path: skipped steps make no
        // progress, so the kernel must cap them rather than spin forever.
        let mut comm = Comm::solo(&RuntimeConfig::fast());
        let a = DistCsr::from_global(&mut comm, &poisson2d(6, 6)).unwrap();
        let b = DistVector::from_fn(&comm, a.global_dim(), |_| 1.0);
        let mut space = DistSpace::new(&mut comm, &a);
        let mut policy = AlwaysDetect::new(DetectionResponse::RecordOnly);
        let mut stack = PolicyStack::new(vec![&mut policy]);
        let opts = SolveOptions::default().with_tol(1e-9).with_max_iters(25);
        let (out, _report) = run_gmres(
            &mut space,
            &b,
            None,
            &opts,
            &mut MgsOrtho::new(),
            &mut stack,
            None,
            &GmresFlavor::distributed(),
        )
        .unwrap();
        assert_eq!(out.reason, StopReason::CorruptionDetected);
        assert_eq!(out.iterations, 0);
    }
}
