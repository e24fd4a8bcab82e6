//! Composed resilience scenarios — combinations the pre-kernel silos could
//! not express.
//!
//! * [`pipelined_skeptical`] — **RBSP × SkP**, optionally × preconditioning:
//!   a pipelined [`Method`] (p(1) GMRES or Ghysels–Vanroose CG) with an
//!   optional preconditioner under the full skeptical SDC-detection stack,
//!   over the distributed runtime. With the wants-dots negotiation the
//!   checks ride the strategy's own reduction: one allreduce per iteration,
//!   detection included.
//! * [`ft_gmres_abft`] — **SRP × ABFT**: FT-GMRES (reliable outer /
//!   unreliable inner iterations) whose *outer* products are additionally
//!   verified against Huang–Abraham checksums, so corruption of the
//!   supposedly reliable tier is caught and rolled back instead of silently
//!   absorbed as slower convergence.
//!
//! Every scenario reports each policy's overhead in one [`PolicyOverhead`]
//! and attributes the check arithmetic in the runtime's per-rank ledger
//! (`RankStats::check_flops`), while the time cost of the checks is charged
//! by the reductions that perform them.

use resilient_linalg::ChecksummedCsr;
use resilient_linalg::CsrMatrix;
use resilient_runtime::{CommBackend, ReduceOp, Result, RuntimeError};

use super::policy::{
    CheckDot, CheckOperand, IterCtx, PolicyAction, PolicyOverhead, PolicyStack, ResiliencePolicy,
};
use super::precond::SpacePreconditioner;
use super::skeptic::{SkepticalConfig, SkepticalPolicy};
use super::space::{DistSpace, KrylovSpace, SpmvFault};
use super::spec::{solve, Method, Schedule, SolveOptions, SolveSpec};
use super::KernelOutcome;
use crate::distributed::{DistCsr, DistVector};
use crate::solvers::{one_rank, SolveOutcome, ONE_RANK};
use crate::srp::{ft_gmres_with_policies, FtGmresConfig, FtGmresReport};

// ---------------------------------------------------------------------------
// ABFT SpMV policy
// ---------------------------------------------------------------------------

/// Verifies every operator product against the Huang–Abraham column-sum
/// checksum of the clean matrix: for `w = A·v`, `Σ_i w_i` must equal
/// `(eᵀA)·v`. An O(n) end-to-end check per SpMV that catches single-event
/// upsets in the product regardless of where they struck.
///
/// Both sides of the identity are inner products — `Σ_i w_i = (e, w)` and
/// `(eᵀA)·v = (c, v)` with policy-owned vectors `e` (all ones) and `c` (the
/// column sums) — so on strategies with a fused reduction the policy rides
/// the wants-dots negotiation: it supplies the two pairs through
/// [`ResiliencePolicy::check_pairs`], receives the reduced scalars before
/// its hook runs, and `after_spmv` only computes the O(n) tolerance scale.
/// Immediate-dot strategies (`MgsOrtho`) never negotiate and
/// keep the direct verification. On pipelined schedules the fused
/// scalars refer to the most recent *completed* product (the usual one-step
/// wants-dots lag), and the tolerance scale uses the hook's current input —
/// adjacent Krylov vectors of comparable magnitude.
///
/// The encoding is of the whole matrix, so the policy verifies whole
/// products: it runs on a 1-rank space and refuses a larger communicator
/// with [`RuntimeError::InvalidArgument`] at solve start.
pub struct AbftSpmvPolicy {
    encoded: ChecksummedCsr,
    /// `(e, c)` on the solve's space — the all-ones vector and the column
    /// sums, the policy-owned left operands of `(e, w)` and `(c, v)` — laid
    /// out at solve start.
    operands: Option<(DistVector, DistVector)>,
    tol: f64,
    overhead: PolicyOverhead,
    /// Participate in wants-dots fusion (default); disable for comparison
    /// runs pinning the direct schedule.
    fuse_checks: bool,
    /// True once a fusing strategy negotiated this round.
    fused_round: bool,
    /// Reduced `(Σw, (eᵀA)·v)` of the current round, consumed by the hook.
    pending: Option<(f64, f64)>,
    fused_decisions: usize,
}

impl AbftSpmvPolicy {
    /// Encode `a` (the *clean* matrix) for verification with relative
    /// tolerance `tol`.
    pub fn for_matrix(a: &CsrMatrix, tol: f64) -> Self {
        Self {
            encoded: ChecksummedCsr::encode(a.clone()),
            operands: None,
            tol,
            overhead: PolicyOverhead {
                name: "abft-spmv",
                ..PolicyOverhead::default()
            },
            fuse_checks: true,
            fused_round: false,
            pending: None,
            fused_decisions: 0,
        }
    }

    /// Decline the wants-dots negotiation and verify directly in the hook
    /// even on fusing strategies (comparison experiments).
    pub fn unfused(mut self) -> Self {
        self.fuse_checks = false;
        self
    }

    /// Detections so far.
    pub fn detections(&self) -> usize {
        self.overhead.detections
    }

    /// Checks decided from scalars that rode a strategy's fused reduction.
    pub fn fused_decisions(&self) -> usize {
        self.fused_decisions
    }

    /// Total hook invocations that performed a check (fused or direct).
    pub fn checks_run(&self) -> usize {
        self.overhead.checks_run
    }
}

impl<'a, 'b, C: CommBackend> ResiliencePolicy<DistSpace<'a, 'b, C>> for AbftSpmvPolicy {
    fn name(&self) -> &'static str {
        "abft-spmv"
    }

    fn on_solve_start(&mut self, space: &mut DistSpace<'a, 'b, C>, b: &DistVector) -> Result<()> {
        let (ranks, n) = (space.comm().size(), self.encoded.col_sums.len());
        if ranks > 1 || b.local.len() != n {
            return Err(RuntimeError::InvalidArgument(format!(
                "ABFT SpMV verification checks whole products against the {n} column sums \
                 of the whole matrix, so it runs on one rank; got {} local entries on a \
                 {ranks}-rank communicator",
                b.local.len()
            )));
        }
        let mut ones = b.clone();
        ones.local.fill(1.0);
        let mut col_sums = b.clone();
        col_sums.local.copy_from_slice(&self.encoded.col_sums);
        self.operands = Some((ones, col_sums));
        Ok(())
    }

    fn check_pairs<'v>(&'v mut self, _ctx: &IterCtx) -> Vec<(&'v DistVector, CheckOperand)> {
        let Some((ones, col_sums)) = self.operands.as_ref().filter(|_| self.fuse_checks) else {
            return Vec::new();
        };
        self.fused_round = true;
        self.pending = None;
        vec![
            (ones, CheckOperand::SpmvProduct),
            (col_sums, CheckOperand::SpmvInput),
        ]
    }

    fn consume_check_dots(&mut self, _ctx: &IterCtx, local_n: usize, values: &[(CheckDot, f64)]) {
        // The tagged reduction already attributed the pairs' 2n FLOPs each
        // in the space's check ledger; mirror them into this policy's.
        self.overhead.check_flops += 2 * local_n * values.len();
        let mut sum_w = None;
        let mut expected = None;
        for (which, value) in values {
            match which {
                CheckDot::PolicyPair(0) => sum_w = Some(*value),
                CheckDot::PolicyPair(1) => expected = Some(*value),
                _ => {}
            }
        }
        if let (Some(s), Some(e)) = (sum_w, expected) {
            self.pending = Some((s, e));
        }
    }

    fn after_spmv(
        &mut self,
        space: &mut DistSpace<'a, 'b, C>,
        _ctx: &IterCtx,
        v: &DistVector,
        w: &DistVector,
    ) -> Result<PolicyAction> {
        let (v, w) = (&v.local, &w.local);
        let clean = if self.fused_round {
            match self.pending.take() {
                Some((sum_w, expected)) => {
                    // Fused path: both reductions rode the strategy's own;
                    // only the O(n) tolerance scale is computed here —
                    // the same threshold `verify_product` applies, via the
                    // shared helper.
                    self.overhead.checks_run += 1;
                    self.fused_decisions += 1;
                    let cost = w.len();
                    self.overhead.check_flops += cost;
                    space.record_check_flops(cost);
                    (sum_w - expected).abs() <= self.tol * self.encoded.product_tolerance_scale(v)
                }
                // The strategy could not resolve the pairs this round
                // (defensive; every fusing strategy offers input and
                // product) — fall back to the direct verification.
                None => self.verify_direct(space, v, w),
            }
        } else {
            self.verify_direct(space, v, w)
        };
        if clean {
            Ok(PolicyAction::Continue)
        } else {
            self.overhead.detections += 1;
            Ok(PolicyAction::Detected)
        }
    }

    fn overhead(&self) -> PolicyOverhead {
        self.overhead.clone()
    }

    fn note_restart(&mut self) {
        self.overhead.restarts += 1;
    }
}

impl AbftSpmvPolicy {
    /// The direct verification: recompute both checksum sides in the
    /// hook, charging Σw (n adds) + `(eᵀA)·v` (2n) + the scale estimate (n).
    fn verify_direct<S: KrylovSpace>(&mut self, space: &mut S, v: &[f64], w: &[f64]) -> bool {
        self.overhead.checks_run += 1;
        let cost = 4 * w.len();
        self.overhead.check_flops += cost;
        space.record_check_flops(cost);
        self.encoded.verify_product(v, w, self.tol)
    }
}

// ---------------------------------------------------------------------------
// Pipelined solvers × skeptical SDC detection (RBSP × SkP)
// ---------------------------------------------------------------------------

/// Report of one composed pipelined-skeptical solve.
#[derive(Debug, Clone, Default)]
pub struct ComposedDistReport {
    /// The skeptical policy's overhead, equal to `policies[0]`. Kept for
    /// the frozen `perf_ledger`, which reads it.
    pub skeptical: PolicyOverhead,
    /// Per-policy overhead in stack order.
    pub policies: Vec<PolicyOverhead>,
    /// Bit flips actually injected by the space-level fault plan.
    pub injections: usize,
    /// Cycle restarts triggered by policy detections.
    pub policy_restarts: usize,
}

/// One pipelined method under the skeptical SDC-detection stack — latency
/// hiding *and* corruption detection in one solve, which the rbsp/skeptical
/// silos could not combine. `fault` optionally injects a single-event upset
/// into a chosen SpMV product (see [`SpmvFault`]).
///
/// The skeptical check dots ride the strategy's single nonblocking
/// reduction (wants-dots negotiation), so detection adds zero collectives
/// per iteration:
///
/// * [`Method::Gmres`]: p(1)-pipelined GMRES. The pairwise-orthogonality
///   test is disabled — the p(1) basis is recovered by linearity and drifts
///   legitimately.
/// * [`Method::Cg`]: pipelined CG, whose fused reduction carries the check
///   dots (the recurrence maintains `w = A·r`, so the fused norm-bound /
///   finiteness decision lags the overlapped product by one step). On a
///   `Restart`-response detection the kernel rebuilds the recurrence from
///   the current iterate — CG's analogue of discarding a corrupted Arnoldi
///   cycle.
/// * With `m` (block-Jacobi or any other [`SpacePreconditioner`]) the same
///   stacks run over the *preconditioned* recurrences: the apply joins the
///   overlap region (GMRES on `A·M⁻¹` with the correction basis maintained
///   by linearity), so fault scenarios run at production-like iteration
///   counts with detection still off the critical path.
///
/// # Errors
/// [`RuntimeError::InvalidArgument`](resilient_runtime::RuntimeError),
/// before any collective, if `b` is not distributed like `a`'s rows.
#[allow(clippy::too_many_arguments)]
pub fn pipelined_skeptical<'a, 'b, C: CommBackend>(
    comm: &'a mut C,
    a: &'b DistCsr,
    b: &DistVector,
    method: Method,
    m: Option<&mut dyn SpacePreconditioner<DistSpace<'a, 'b, C>>>,
    opts: &SolveOptions,
    skeptic: &SkepticalConfig,
    fault: Option<SpmvFault>,
) -> Result<(KernelOutcome<DistVector>, ComposedDistReport)> {
    // `solve` validates too, but only after the ‖A‖∞ allreduce below.
    a.check_operand("`b`", b)?;
    let mut skeptic = *skeptic;
    if method == Method::Gmres {
        // Pairwise orthogonality is an invariant of *explicitly
        // orthogonalized* bases. The p(1) basis is recovered by linearity
        // and legitimately drifts to ~1e-2 orthogonality on clean runs as
        // the residual approaches the tolerance, so the orthogonality test
        // carries no signal here and is disabled (a NaN inner product still
        // trips it). The finiteness, norm-bound and residual-consistency
        // checks — which remain valid invariants of the pipelined
        // recurrence — keep their configured strictness and carry the SDC
        // detection.
        skeptic.orthogonality_tol = f64::INFINITY;
    }
    // Globally agreed ∞-norm bound for the norm-bound check; the check pair
    // the policy sees is the true (A-input, A-product) pair — the
    // preconditioned recurrences resolve `spmv_input` to `u = M⁻¹r` — so
    // the invariant ‖A·u‖ ≤ c·‖A‖·‖u‖ is unchanged by preconditioning.
    let norm_a = comm.allreduce_scalar(ReduceOp::Max, a.local_norm_inf())?;
    let mut space = opts.space(comm, a).with_operator_norm(norm_a);
    if let Some(f) = fault {
        space = space.with_fault(f);
    }
    let mut skeptical = SkepticalPolicy::new(skeptic);
    let mut policies = PolicyStack::new(vec![&mut skeptical]);
    let spec = SolveSpec::new(method, Schedule::Pipelined);
    let (outcome, report) = solve(&mut space, b, None, opts, spec, m, &mut policies)?;
    let injections = space.injections();
    Ok((
        outcome,
        ComposedDistReport {
            skeptical: skeptical.report(),
            policies: report.policy_overhead,
            injections,
            policy_restarts: report.policy_restarts,
        },
    ))
}

/// Pipelined CG under the skeptical SDC stack: [`pipelined_skeptical`]
/// with [`Method::Cg`] and no preconditioner. Kept for the frozen
/// `perf_ledger`.
pub fn pipelined_skeptical_cg<C: CommBackend>(
    comm: &mut C,
    a: &DistCsr,
    b: &DistVector,
    opts: &SolveOptions,
    skeptic: &SkepticalConfig,
    fault: Option<SpmvFault>,
) -> Result<(KernelOutcome<DistVector>, ComposedDistReport)> {
    pipelined_skeptical(comm, a, b, Method::Cg, None, opts, skeptic, fault)
}

// ---------------------------------------------------------------------------
// FT-GMRES × ABFT-checked outer products (SRP × ABFT)
// ---------------------------------------------------------------------------

/// FT-GMRES on one rank whose outer (reliable-tier) products are verified
/// against `a`'s Huang–Abraham checksums. `fault` optionally strikes one
/// outer product (experiments); the unreliable inner solves corrupt at
/// `cfg.fault_rate` exactly as plain FT-GMRES. The ABFT policy's overhead
/// is the report's `outer.policy_overhead[0]`.
pub fn ft_gmres_abft(
    a: &CsrMatrix,
    b: &[f64],
    cfg: &FtGmresConfig,
    abft_tol: f64,
    fault: Option<SpmvFault>,
) -> (SolveOutcome, FtGmresReport) {
    let mut abft = AbftSpmvPolicy::for_matrix(a, abft_tol);
    let (mut comm, a) = one_rank(a);
    let b = DistVector::from_global(&comm, b);
    let mut stack = PolicyStack::new(vec![&mut abft]);
    ft_gmres_with_policies(&mut comm, &a, &b, cfg, fault, &mut stack).expect(ONE_RANK)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeptical::skeptical_gmres;
    use crate::solvers::true_relative_residual;
    use resilient_linalg::poisson2d;
    use resilient_runtime::{Runtime, RuntimeConfig};

    fn dist_opts() -> SolveOptions {
        SolveOptions::default().with_tol(1e-9).with_max_iters(400)
    }

    #[test]
    fn pipelined_sdc_clean_run_has_no_false_positives() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let results = rt
            .run(4, move |comm| {
                let a = poisson2d(9, 9);
                let n = a.nrows();
                let da = DistCsr::from_global(comm, &a)?;
                let b = DistVector::from_fn(comm, n, |i| 1.0 + (i % 2) as f64);
                let (out, report) = pipelined_skeptical(
                    comm,
                    &da,
                    &b,
                    Method::Gmres,
                    None,
                    &dist_opts(),
                    &SkepticalConfig::default(),
                    None,
                )?;
                Ok((
                    out.converged,
                    out.x.gather_global(comm)?,
                    report.skeptical.detections,
                    (report.skeptical.checks_run, out.iterations),
                    report.policies.len(),
                ))
            })
            .unwrap_all();
        let a = poisson2d(9, 9);
        let b: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + (i % 2) as f64).collect();
        let interval = SkepticalConfig::default().residual_check_interval;
        for (converged, x, detections, (checks, iterations), n_policies) in results {
            assert!(converged);
            assert_eq!(detections, 0, "clean pipelined run must not false-positive");
            assert!(
                checks > iterations / interval + 1,
                "the per-product checks must actually run"
            );
            assert_eq!(n_policies, 1);
            assert!(true_relative_residual(&a, &b, &x) < 1e-7);
        }
    }

    #[test]
    fn pipelined_sdc_detects_and_survives_injected_flip() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let results = rt
            .run(4, move |comm| {
                let a = poisson2d(9, 9);
                let n = a.nrows();
                let da = DistCsr::from_global(comm, &a)?;
                let b = DistVector::from_fn(comm, n, |i| 1.0 + (i % 2) as f64);
                let fault = SpmvFault {
                    rank: 1,
                    at_application: 6,
                    local_element: 3,
                    bit: 62,
                };
                let (out, report) = pipelined_skeptical(
                    comm,
                    &da,
                    &b,
                    Method::Gmres,
                    None,
                    &dist_opts(),
                    &SkepticalConfig::default(),
                    Some(fault),
                )?;
                // Injection counts are per-rank; sum them so every rank can
                // assert the flip actually happened somewhere.
                let injections =
                    comm.allreduce_scalar(ReduceOp::Sum, report.injections as f64)? as usize;
                let detections = comm
                    .allreduce_scalar(ReduceOp::Max, report.skeptical.detections as f64)?
                    as usize;
                Ok((
                    out.converged,
                    out.x.gather_global(comm)?,
                    injections,
                    detections,
                    report.policy_restarts,
                ))
            })
            .unwrap_all();
        let a = poisson2d(9, 9);
        let b: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + (i % 2) as f64).collect();
        for (converged, x, injections, detections, _restarts) in results {
            assert_eq!(injections, 1, "the flip must have been injected");
            assert!(detections >= 1, "the severe flip must be detected");
            assert!(converged, "pipelined GMRES must survive the flip");
            assert!(true_relative_residual(&a, &b, &x) < 1e-7);
        }
    }

    #[test]
    fn pipelined_cg_sdc_clean_run_has_no_false_positives() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let results = rt
            .run(4, move |comm| {
                let a = poisson2d(9, 9);
                let n = a.nrows();
                let da = DistCsr::from_global(comm, &a)?;
                let b = DistVector::from_fn(comm, n, |i| 1.0 + (i % 2) as f64);
                let (out, report) = pipelined_skeptical_cg(
                    comm,
                    &da,
                    &b,
                    &dist_opts(),
                    &SkepticalConfig::default(),
                    None,
                )?;
                Ok((
                    out.converged,
                    out.x.gather_global(comm)?,
                    report.skeptical.detections,
                    (report.skeptical.checks_run, out.iterations),
                    report.policies.len(),
                ))
            })
            .unwrap_all();
        let a = poisson2d(9, 9);
        let b: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + (i % 2) as f64).collect();
        let interval = SkepticalConfig::default().residual_check_interval;
        for (converged, x, detections, (checks, iterations), n_policies) in results {
            assert!(converged, "pipelined skeptical CG must converge");
            assert_eq!(detections, 0, "clean pipelined CG must not false-positive");
            assert!(
                checks > iterations / interval + 1,
                "the per-product checks must actually run"
            );
            assert_eq!(n_policies, 1, "per-policy overhead must be reported");
            assert!(true_relative_residual(&a, &b, &x) < 1e-7);
        }
    }

    #[test]
    fn pipelined_cg_sdc_detects_and_survives_injected_flip() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let results = rt
            .run(4, move |comm| {
                let a = poisson2d(9, 9);
                let n = a.nrows();
                let da = DistCsr::from_global(comm, &a)?;
                let b = DistVector::from_fn(comm, n, |i| 1.0 + (i % 2) as f64);
                // This element's top exponent bit is clear at this
                // application, so the flip amplifies it by ~2^512 (a flip
                // striking a set exponent bit shrinks the value instead —
                // an SDC below the norm-bound's detection floor).
                let fault = SpmvFault {
                    rank: 1,
                    at_application: 4,
                    local_element: 3,
                    bit: 62,
                };
                let (out, report) = pipelined_skeptical_cg(
                    comm,
                    &da,
                    &b,
                    &dist_opts(),
                    &SkepticalConfig::default(),
                    Some(fault),
                )?;
                let injections =
                    comm.allreduce_scalar(ReduceOp::Sum, report.injections as f64)? as usize;
                let detections = comm
                    .allreduce_scalar(ReduceOp::Max, report.skeptical.detections as f64)?
                    as usize;
                Ok((
                    out.converged,
                    out.x.gather_global(comm)?,
                    injections,
                    detections,
                    report.policy_restarts,
                ))
            })
            .unwrap_all();
        let a = poisson2d(9, 9);
        let b: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + (i % 2) as f64).collect();
        for (converged, x, injections, detections, restarts) in results {
            assert_eq!(injections, 1, "the flip must have been injected");
            assert!(detections >= 1, "the severe flip must be detected");
            assert!(restarts >= 1, "detection must rebuild the recurrence");
            assert!(converged, "pipelined CG must survive the flip");
            assert!(true_relative_residual(&a, &b, &x) < 1e-7);
        }
    }

    #[test]
    fn preconditioned_pipelined_skeptics_survive_flips_at_real_iteration_counts() {
        // The composed RBSP × preconditioning × SkP scenarios: block-Jacobi
        // collapses the iteration count on an ill-conditioned problem, the
        // skeptical stack still rides the single fused reduction, and an
        // injected exponent flip is detected and survived.
        use super::super::precond::BlockJacobi;
        use resilient_linalg::anisotropic2d;
        let rt = Runtime::new(RuntimeConfig::fast());
        let results = rt
            .run(4, move |comm| {
                let a = anisotropic2d(12, 12, 0.1, 100.0, 3);
                let da = DistCsr::from_global(comm, &a)?;
                let b = DistVector::from_fn(comm, a.nrows(), |i| 1.0 + (i % 4) as f64);
                let opts = SolveOptions::default()
                    .with_tol(1e-8)
                    .with_max_iters(2000)
                    .with_restart(40);
                let fault = SpmvFault {
                    rank: 1,
                    at_application: 3,
                    local_element: 2,
                    bit: 62,
                };
                // Clean baselines: no false positives at block-Jacobi
                // iteration counts.
                let mut bj = BlockJacobi::new(&da);
                let (cg_clean, cg_clean_rep) = pipelined_skeptical(
                    comm,
                    &da,
                    &b,
                    Method::Cg,
                    Some(&mut bj),
                    &opts,
                    &SkepticalConfig::default(),
                    None,
                )?;
                let mut bj = BlockJacobi::new(&da);
                let (gm_clean, gm_clean_rep) = pipelined_skeptical(
                    comm,
                    &da,
                    &b,
                    Method::Gmres,
                    Some(&mut bj),
                    &opts,
                    &SkepticalConfig::default(),
                    None,
                )?;
                // Unpreconditioned iteration count for comparison.
                let plain = crate::rbsp::cg::pipelined_cg(comm, &da, &b, &opts)?;
                // Faulted runs.
                let mut bj = BlockJacobi::new(&da);
                let (cg_hit, cg_hit_rep) = pipelined_skeptical(
                    comm,
                    &da,
                    &b,
                    Method::Cg,
                    Some(&mut bj),
                    &opts,
                    &SkepticalConfig::default(),
                    Some(fault),
                )?;
                let injections =
                    comm.allreduce_scalar(ReduceOp::Sum, cg_hit_rep.injections as f64)? as usize;
                let detections = comm
                    .allreduce_scalar(ReduceOp::Max, cg_hit_rep.skeptical.detections as f64)?
                    as usize;
                Ok((
                    (cg_clean.converged, cg_clean.iterations, cg_clean_rep),
                    (gm_clean.converged, gm_clean.iterations, gm_clean_rep),
                    plain.iterations,
                    (cg_hit.converged, injections, detections),
                    cg_hit.x.gather_global(comm)?,
                ))
            })
            .unwrap_all();
        let a = anisotropic2d(12, 12, 0.1, 100.0, 3);
        let b: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + (i % 4) as f64).collect();
        for (cg_clean, gm_clean, plain_iters, cg_hit, x) in results {
            assert!(cg_clean.0, "clean preconditioned skeptical CG converges");
            assert!(gm_clean.0, "clean preconditioned skeptical GMRES converges");
            assert_eq!(cg_clean.2.skeptical.detections, 0, "no false positives");
            assert_eq!(gm_clean.2.skeptical.detections, 0, "no false positives");
            assert!(
                cg_clean.1 * 5 < plain_iters,
                "block-Jacobi must collapse iterations ({} vs {plain_iters})",
                cg_clean.1
            );
            let (converged, injections, detections) = cg_hit;
            assert_eq!(injections, 1, "the flip must have been injected");
            assert!(detections >= 1, "the flip must be detected");
            assert!(converged, "the solve must survive the flip");
            assert!(true_relative_residual(&a, &b, &x) < 1e-6);
        }
    }

    #[test]
    fn serial_and_pipelined_skeptics_agree_on_clean_checks() {
        // The same SkepticalConfig drives both the serial preset and the
        // composed pipelined scenario; a clean run must fire zero detections
        // in both (policy reuse across dot strategies is the point).
        let a = poisson2d(8, 8);
        let b = vec![1.0; a.nrows()];
        let (out, report) = skeptical_gmres(
            &a,
            &b,
            None,
            &SolveOptions::default()
                .with_tol(1e-9)
                .with_max_iters(400)
                .with_restart(50),
            &SkepticalConfig::default(),
            None,
        );
        assert!(out.converged());
        assert_eq!(report.detections, 0);
    }

    #[test]
    fn ft_gmres_abft_detects_outer_corruption_and_converges() {
        let a = poisson2d(8, 8);
        let n = a.nrows();
        let b = vec![1.0; n];
        // Corrupt the *outer* (reliable-tier) SpMV — the blind spot plain
        // FT-GMRES has, since only inner results are validated.
        let fault = SpmvFault {
            rank: 0,
            at_application: 2,
            local_element: n / 3,
            bit: 61,
        };
        let cfg = FtGmresConfig {
            outer: SolveOptions::default()
                .with_tol(1e-8)
                .with_max_iters(80)
                .with_restart(20),
            ..FtGmresConfig::default()
        };
        let (out, report) = ft_gmres_abft(&a, &b, &cfg, 1e-9, Some(fault));
        assert_eq!(out.injections, 1, "fault must have been injected");
        let abft = &report.outer.policy_overhead[0];
        assert!(abft.detections >= 1, "ABFT must catch the outer flip");
        assert!(
            out.converged(),
            "solve must still converge: {:?}",
            out.reason
        );
        assert!(true_relative_residual(&a, &b, &out.x) < 1e-7);
        assert!(report.inner_iterations > 0);
    }

    #[test]
    fn abft_refuses_a_multi_rank_communicator() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let errors = rt
            .run(2, move |comm| {
                let a = poisson2d(6, 6);
                let da = DistCsr::from_global(comm, &a)?;
                let b = DistVector::from_fn(comm, a.nrows(), |_| 1.0);
                let mut abft = AbftSpmvPolicy::for_matrix(&a, 1e-9);
                let mut stack = PolicyStack::new(vec![&mut abft]);
                let mut space = DistSpace::new(comm, &da);
                let opts = SolveOptions::default();
                let spec = SolveSpec::FUSED_GMRES;
                Ok(solve(&mut space, &b, None, &opts, spec, None, &mut stack).err())
            })
            .unwrap_all();
        for err in errors {
            assert!(
                matches!(&err, Some(RuntimeError::InvalidArgument(msg)) if msg.contains("one rank")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn ft_gmres_abft_clean_run_is_detection_free() {
        let a = poisson2d(7, 7);
        let b = vec![1.0; a.nrows()];
        let cfg = FtGmresConfig {
            outer: SolveOptions::default()
                .with_tol(1e-8)
                .with_max_iters(60)
                .with_restart(50),
            ..FtGmresConfig::default()
        };
        let (out, report) = ft_gmres_abft(&a, &b, &cfg, 1e-9, None);
        assert!(out.converged());
        let abft = &report.outer.policy_overhead[0];
        assert_eq!(abft.name, "abft-spmv");
        assert_eq!(abft.detections, 0, "no ABFT false positives");
        assert!(abft.checks_run > 0);
        assert!(abft.check_flops > 0);
    }
}
