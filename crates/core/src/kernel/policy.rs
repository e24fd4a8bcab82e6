//! Composable resilience policies.
//!
//! A [`ResiliencePolicy`] observes a Krylov solve through a fixed set of
//! hooks — [`before_spmv`](ResiliencePolicy::before_spmv),
//! [`after_spmv`](ResiliencePolicy::after_spmv),
//! [`after_precond`](ResiliencePolicy::after_precond),
//! [`after_orthogonalization`](ResiliencePolicy::after_orthogonalization),
//! [`on_iteration`](ResiliencePolicy::on_iteration) and
//! [`on_failure`](ResiliencePolicy::on_failure) — and reports detections.
//! Policies are stacked in a [`PolicyStack`]; the kernel consults the stack
//! at each hook point and answers the *first* detection with the detecting
//! policy's [`DetectionResponse`] — a restart from the last consistent
//! iterate or a stop; a detection is never only recorded. Because every
//! policy sees the same hooks regardless of which iteration engine (CG or
//! GMRES, blocking or pipelined dots, serial or distributed) is running,
//! resilience strategies that used to live in separate solver silos now
//! compose freely: a pipelined GMRES can run skeptical SDC checks, an
//! FT-GMRES outer iteration can verify its SpMVs with ABFT checksums, and
//! each policy counts its checks, detections and check cost in one
//! [`PolicyOverhead`].
//!
//! # Example
//!
//! A policy is one `impl` with only the hooks it cares about — here a
//! minimal product-norm monitor stacked onto a serial (1-rank) GMRES solve:
//!
//! ```
//! use resilience::distributed::{DistCsr, DistVector};
//! use resilience::kernel::{
//!     run_gmres, DistSpace, GmresFlavor, IterCtx, KrylovSpace, MgsOrtho, PolicyAction,
//!     PolicyOverhead, PolicyStack, ResiliencePolicy, SolveOptions,
//! };
//! use resilient_linalg::poisson2d;
//! use resilient_runtime::{Comm, Result, RuntimeConfig};
//!
//! #[derive(Default)]
//! struct NormMonitor {
//!     overhead: PolicyOverhead,
//! }
//!
//! impl<S: KrylovSpace> ResiliencePolicy<S> for NormMonitor {
//!     fn name(&self) -> &'static str {
//!         "norm-monitor"
//!     }
//!     fn after_spmv(
//!         &mut self,
//!         space: &mut S,
//!         _ctx: &IterCtx,
//!         _v: &S::Vector,
//!         w: &S::Vector,
//!     ) -> Result<PolicyAction> {
//!         self.overhead.checks_run += 1;
//!         // A real policy would test an invariant of `w` here (through
//!         // *global* quantities, so every rank takes the same branch).
//!         let _ = space.local_len(w);
//!         Ok(PolicyAction::Continue)
//!     }
//!     fn overhead(&self) -> PolicyOverhead {
//!         PolicyOverhead {
//!             name: "norm-monitor",
//!             ..self.overhead.clone()
//!         }
//!     }
//! }
//!
//! let mut comm = Comm::solo(&RuntimeConfig::fast());
//! let a = DistCsr::from_global(&mut comm, &poisson2d(6, 6))?;
//! let b = DistVector::from_fn(&comm, a.global_dim(), |_| 1.0);
//! let mut monitor = NormMonitor::default();
//! let mut stack = PolicyStack::new(vec![&mut monitor]);
//! let mut space = DistSpace::new(&mut comm, &a);
//! let (out, report) = run_gmres(
//!     &mut space,
//!     &b,
//!     None,
//!     &SolveOptions::default().with_tol(1e-9),
//!     &mut MgsOrtho::new(),
//!     &mut stack,
//!     None,
//!     &GmresFlavor::distributed(),
//! )?;
//! assert!(out.relative_residual <= 1e-9);
//! let overhead = &report.policy_overhead[0];
//! assert_eq!(overhead.name, "norm-monitor");
//! assert!(overhead.checks_run > 0, "the hook observed every product");
//! # Ok::<(), resilient_runtime::RuntimeError>(())
//! ```
//!
//! The building blocks below ([`NoopPolicy`], [`IterateRollbackPolicy`])
//! follow the same shape; [`IterateRollbackPolicy::with_persistence`]
//! additionally writes its snapshots through the space's persistent store,
//! which is what the process-failure recovery presets in
//! [`kernel::lflr`](crate::kernel::lflr) build on.

use super::space::KrylovSpace;
use crate::lflr::SnapshotRing;
use resilient_runtime::Result;

/// What a hook observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyAction {
    /// Nothing suspicious.
    Continue,
    /// The policy detected corruption in the quantity it inspected.
    Detected,
}

/// What the kernel should do when a policy detects corruption: every
/// detection is answered with a recovery or a stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectionResponse {
    /// Discard the current Arnoldi cycle / iteration and restart from the
    /// last consistent iterate (cheap local rollback).
    Restart,
    /// Stop the solve with
    /// [`StopReason::CorruptionDetected`](super::StopReason::CorruptionDetected).
    Abort,
}

/// What a policy decided to do about a kernel-level failure event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Let the kernel terminate as it would have without the policy.
    Accept,
    /// The policy repaired the iterate (e.g. restored a checkpoint into
    /// `x`); the kernel should restart the current cycle from it.
    Restart,
}

/// A kernel-level failure the policy stack is consulted about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureEvent {
    /// The iteration produced NaN/Inf residuals.
    Divergence,
}

/// Read-only per-iteration context passed to every hook.
#[derive(Debug, Clone, Copy)]
pub struct IterCtx {
    /// Total iterations performed so far (across restarts).
    pub iteration: usize,
    /// Steps completed within the current restart cycle.
    pub cycle_step: usize,
    /// Restart-cycle index.
    pub cycle: usize,
    /// Current relative residual (recurrence estimate).
    pub relres: f64,
    /// Solve tolerance.
    pub tol: f64,
}

/// Kernel state a policy may interrogate on demand (priced work it should
/// not trigger every iteration).
pub trait SolutionProbe<S: KrylovSpace> {
    /// True relative residual ‖b − A·x_trial‖/‖b‖ of the *trial* solution
    /// (current iterate plus the pending cycle correction). Charges one
    /// operator application to the solver.
    fn trial_true_relres(&mut self, space: &mut S) -> Result<f64>;

    /// *Live* local length of the iterate. Policies must cost their checks
    /// against this, not a length captured at solve start: a rank failure
    /// that shrinks and rebuilds the communicator changes local vector
    /// lengths mid-solve.
    fn local_len(&self, space: &S) -> usize;

    /// The current *committed* iterate (GMRES: the cycle-base iterate, which
    /// only changes at cycle boundaries; CG: the per-iteration iterate).
    /// Free to read — this is what persisting policies snapshot on their
    /// cadence.
    fn iterate(&self) -> &S::Vector;

    /// The kernel iteration [`iterate`](SolutionProbe::iterate) actually
    /// corresponds to: the current iteration for CG, the cycle-base
    /// iteration for GMRES (whose committed iterate embodies no mid-cycle
    /// progress). Persisting policies must label snapshots with *this* step
    /// — labelling a cycle-base iterate with the current step would make a
    /// resumed solve claim progress it does not hold.
    fn iterate_step(&self) -> usize;
}

// ---------------------------------------------------------------------------
// Wants-dots negotiation
// ---------------------------------------------------------------------------

/// A check inner product a policy asks the dot strategy to fuse into the
/// reduction it already posts, identified by the *role* of its operands
/// rather than by reference. The strategy resolves roles against the
/// vectors it holds at its reduction point (see [`CheckVectors`]); requests
/// it cannot resolve are dropped, and the policy learns what resolved from
/// the `(CheckDot, value)` pairs handed back through
/// [`ResiliencePolicy::consume_check_dots`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckDot {
    /// `(v, v)` — squared norm of the SpMV input.
    InputNormSq,
    /// `(w, w)` — squared norm of the SpMV product.
    ProductNormSq,
    /// `(v_new, v_prev)` — inner product of the newest resolved basis pair.
    BasisPairDot,
    /// `(v_new, v_new)` — squared norm of the newer basis-pair vector.
    NewBasisNormSq,
    /// `(v_prev, v_prev)` — squared norm of the older basis-pair vector.
    PrevBasisNormSq,
    /// The `k`-th pair the policy supplied through
    /// [`ResiliencePolicy::check_pairs`] this round (a policy-owned left
    /// vector dotted against a strategy operand) — never requested through
    /// [`ResiliencePolicy::check_dots`], only handed back through
    /// [`ResiliencePolicy::consume_check_dots`].
    PolicyPair(u8),
}

/// The strategy-side operand a policy-supplied check pair
/// ([`ResiliencePolicy::check_pairs`]) is dotted against, resolved from the
/// [`CheckVectors`] the strategy offers at its reduction point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckOperand {
    /// The input of the most recent resolved SpMV.
    SpmvInput,
    /// The product of the most recent resolved SpMV.
    SpmvProduct,
}

/// The iteration vectors a dot strategy offers for check-dot fusion at its
/// reduction point.
///
/// Pipelined schedules post their reduction *before* the overlapped
/// operator application, so the roles they can offer refer to the most
/// recent **completed** SpMV and basis extension — one step behind the
/// detection hooks. Decisions made from fused scalars therefore lag one
/// iteration on pipelined strategies, which a corrective cycle restart
/// still recovers (the iterate only changes at cycle boundaries in GMRES,
/// and CG restarts rebuild the recurrence from the current iterate).
pub struct CheckVectors<'v, V> {
    /// Input of the most recent resolved SpMV.
    pub spmv_input: Option<&'v V>,
    /// Product of the most recent resolved SpMV.
    pub spmv_product: Option<&'v V>,
    /// Newest resolved basis pair, `(newer, older)`.
    pub basis_pair: Option<(&'v V, &'v V)>,
}

fn resolve_check_dot<'v, V>(req: CheckDot, avail: &CheckVectors<'v, V>) -> Option<(&'v V, &'v V)> {
    match req {
        CheckDot::InputNormSq => avail.spmv_input.map(|v| (v, v)),
        CheckDot::ProductNormSq => avail.spmv_product.map(|w| (w, w)),
        CheckDot::BasisPairDot => avail.basis_pair,
        CheckDot::NewBasisNormSq => avail.basis_pair.map(|(a, _)| (a, a)),
        CheckDot::PrevBasisNormSq => avail.basis_pair.map(|(_, b)| (b, b)),
        // Policy-supplied pairs carry their own left vector; they are
        // resolved in `collect_check_dots`, never through a role request.
        CheckDot::PolicyPair(_) => None,
    }
}

/// Bookkeeping for one negotiation round: which policy asked for which
/// resolved pair, in the order the pairs were appended to the reduction.
#[derive(Debug, Default)]
pub struct CheckDotBatch {
    /// `(policy index, request)` per appended pair.
    entries: Vec<(usize, CheckDot)>,
    /// Local vector length at the reduction point (live, for check costing).
    local_n: usize,
}

impl CheckDotBatch {
    /// Number of check pairs appended to the reduction.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Did no policy request a resolvable pair?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Per-policy overhead and detection accounting: each policy's one record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PolicyOverhead {
    /// Policy name.
    pub name: &'static str,
    /// Hook invocations that performed a check.
    pub checks_run: usize,
    /// Detections reported.
    pub detections: usize,
    /// Corrective cycle restarts this policy triggered.
    pub restarts: usize,
    /// FLOPs spent on this policy's checks.
    pub check_flops: usize,
    /// Bytes this policy wrote to the persistent store (LFLR snapshots);
    /// the writes' virtual time is charged at the runtime's checkpoint
    /// bandwidth by the store itself.
    pub persist_bytes: usize,
}

/// One composable resilience building block.
///
/// All hooks default to no-ops so a policy only implements the stages it
/// cares about. Detection hooks return [`PolicyAction`]; the kernel pairs a
/// `Detected` with the policy's [`response`](ResiliencePolicy::response).
///
/// Policies running over distributed spaces must derive their decisions from
/// *global* quantities (`space.dot` / `space.norm`) so that every rank takes
/// the same branch.
#[allow(unused_variables)]
pub trait ResiliencePolicy<S: KrylovSpace> {
    /// Short identifier used in overhead reports.
    fn name(&self) -> &'static str;

    /// How the kernel should react when *this* policy detects.
    fn response(&self) -> DetectionResponse {
        DetectionResponse::Restart
    }

    /// Called once, before the first residual computation.
    fn on_solve_start(&mut self, space: &mut S, b: &S::Vector) -> Result<()> {
        Ok(())
    }

    /// Called at the start of every restart cycle with the current
    /// (consistent) iterate — the natural persistence point for
    /// rollback-style policies.
    fn on_cycle_start(&mut self, space: &mut S, ctx: &IterCtx, x: &S::Vector) -> Result<()> {
        Ok(())
    }

    /// Wants-dots negotiation: the check pairs this policy would like
    /// reduced together with the strategy's next fused reduction. Called by
    /// fusing dot strategies once per step, right before they post their
    /// reduction; the reduced scalars for every request the strategy could
    /// resolve arrive through
    /// [`consume_check_dots`](ResiliencePolicy::consume_check_dots) *before*
    /// the detection hooks run, so the hooks can decide from already-global
    /// quantities instead of posting their own collectives.
    ///
    /// Immediate-dot strategies (`MgsOrtho`) have no fused
    /// reduction and never call this; policies must keep a direct
    /// (self-reducing) fallback path in their hooks for those schedules.
    fn check_dots(&mut self, ctx: &IterCtx) -> Vec<CheckDot> {
        Vec::new()
    }

    /// Wants-dots negotiation, policy-vector form: check pairs whose *left*
    /// vector the policy owns (an ABFT checksum vector, an all-ones vector)
    /// and whose right operand is resolved from the strategy's
    /// [`CheckVectors`]. Resolved pairs ride the strategy's reduction like
    /// role-based requests; the reduced scalars come back through
    /// [`consume_check_dots`](ResiliencePolicy::consume_check_dots) tagged
    /// [`CheckDot::PolicyPair`] with the index into the returned list.
    /// Called in the same round as
    /// [`check_dots`](ResiliencePolicy::check_dots), with the same
    /// immediate-dot caveat: strategies without a fused reduction never
    /// negotiate, so a direct fallback path must remain.
    fn check_pairs<'v>(&'v mut self, ctx: &IterCtx) -> Vec<(&'v S::Vector, CheckOperand)> {
        Vec::new()
    }

    /// Receive the globally reduced scalars for the resolved requests of the
    /// matching [`check_dots`](ResiliencePolicy::check_dots) call, in request
    /// order. `local_n` is the live local vector length at the reduction
    /// point (each fused pair cost `2·local_n` FLOPs, already attributed to
    /// the space's check ledger by the tagged reduction).
    fn consume_check_dots(&mut self, ctx: &IterCtx, local_n: usize, values: &[(CheckDot, f64)]) {}

    /// Called with the operator input right before each SpMV.
    fn before_spmv(&mut self, space: &mut S, ctx: &IterCtx, v: &S::Vector) -> Result<PolicyAction> {
        Ok(PolicyAction::Continue)
    }

    /// Called with the raw operator output `w = A·v` right after each SpMV
    /// (norm-bound, finiteness and checksum tests live here).
    fn after_spmv(
        &mut self,
        space: &mut S,
        ctx: &IterCtx,
        v: &S::Vector,
        w: &S::Vector,
    ) -> Result<PolicyAction> {
        Ok(PolicyAction::Continue)
    }

    /// Called with the preconditioner input `r` and its freshly computed
    /// output `z = M⁻¹·r` after each in-iteration preconditioner apply
    /// (finiteness/consistency guards over the historically unguarded
    /// block-Jacobi path live here). Strategies call it at a point where
    /// **no** fused reduction is in flight, so a policy may post its own
    /// blocking collective; on pipelined schedules that point is after the
    /// overlapped reduction completes, before the preconditioned vector is
    /// consumed by the recurrence. Setup-phase applies (CG init, GMRES
    /// cycle start) are not hooked — corruption there lands in the first
    /// iteration's guarded quantities.
    fn after_precond(
        &mut self,
        space: &mut S,
        ctx: &IterCtx,
        r: &S::Vector,
        z: &S::Vector,
    ) -> Result<PolicyAction> {
        Ok(PolicyAction::Continue)
    }

    /// Called after Gram–Schmidt with the newest basis vector and its
    /// predecessor (orthogonality tests live here). CG-style iterations
    /// without a stored basis never call it.
    fn after_orthogonalization(
        &mut self,
        space: &mut S,
        ctx: &IterCtx,
        new_v: &S::Vector,
        prev_v: Option<&S::Vector>,
    ) -> Result<PolicyAction> {
        Ok(PolicyAction::Continue)
    }

    /// Called at the end of every completed iteration; `probe` gives priced
    /// access to the trial solution's true residual for consistency checks.
    fn on_iteration(
        &mut self,
        space: &mut S,
        ctx: &IterCtx,
        probe: &mut dyn SolutionProbe<S>,
    ) -> Result<PolicyAction> {
        Ok(PolicyAction::Continue)
    }

    /// Consulted when the kernel is about to terminate on a failure event.
    /// A policy that can repair `x` (e.g. from a persisted copy) returns
    /// [`RecoveryAction::Restart`] to resume from it instead.
    fn on_failure(
        &mut self,
        ctx: &IterCtx,
        event: FailureEvent,
        x: &mut S::Vector,
    ) -> RecoveryAction {
        RecoveryAction::Accept
    }

    /// This policy's accumulated overhead.
    fn overhead(&self) -> PolicyOverhead;

    /// Internal: bump the restart counter (called by the stack when this
    /// policy's detection triggered a corrective restart).
    fn note_restart(&mut self) {}
}

/// Outcome of running one hook across the whole stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackOutcome {
    /// No policy objected.
    Continue,
    /// A policy detected and demands its response.
    Act(DetectionResponse),
}

/// An ordered stack of resilience policies consulted by the kernel.
///
/// The stack borrows its policies mutably so presets can read their reports
/// (detection counts, overhead) after the solve returns.
pub struct PolicyStack<'p, S: KrylovSpace> {
    policies: Vec<&'p mut dyn ResiliencePolicy<S>>,
}

impl<'p, S: KrylovSpace> Default for PolicyStack<'p, S> {
    fn default() -> Self {
        Self::empty()
    }
}

impl<'p, S: KrylovSpace> PolicyStack<'p, S> {
    /// A stack with no policies (hooks become zero-cost no-ops).
    pub fn empty() -> Self {
        Self {
            policies: Vec::new(),
        }
    }

    /// Build a stack from the given policies (consulted in order).
    pub fn new(policies: Vec<&'p mut dyn ResiliencePolicy<S>>) -> Self {
        Self { policies }
    }

    /// Push another policy onto the stack.
    pub fn push(&mut self, policy: &'p mut dyn ResiliencePolicy<S>) {
        self.policies.push(policy);
    }

    /// Number of stacked policies.
    pub fn len(&self) -> usize {
        self.policies.len()
    }

    /// Is the stack empty?
    pub fn is_empty(&self) -> bool {
        self.policies.is_empty()
    }

    /// Per-policy overhead report, in stack order.
    pub fn overhead_report(&self) -> Vec<PolicyOverhead> {
        self.policies.iter().map(|p| p.overhead()).collect()
    }

    /// Run the solve-start hook on every policy.
    pub fn on_solve_start(&mut self, space: &mut S, b: &S::Vector) -> Result<()> {
        for p in &mut self.policies {
            p.on_solve_start(space, b)?;
        }
        Ok(())
    }

    /// Run the cycle-start hook on every policy.
    pub fn on_cycle_start(&mut self, space: &mut S, ctx: &IterCtx, x: &S::Vector) -> Result<()> {
        for p in &mut self.policies {
            p.on_cycle_start(space, ctx, x)?;
        }
        Ok(())
    }

    /// Wants-dots negotiation, stack side: collect every policy's check-dot
    /// requests (role-based `check_dots` and policy-vector `check_pairs`),
    /// resolve them against the vectors the strategy offers, and append the
    /// resolved pairs to `pairs` (the reduction the strategy is about to
    /// post). The returned batch maps the appended tail back to the
    /// requesting policies for [`PolicyStack::consume_check_dots`].
    ///
    /// The `'v` bound ties the borrow of the stack to the pairs vector:
    /// policy-supplied left vectors are borrowed from the policies
    /// themselves, so the stack stays borrowed until the strategy has
    /// consumed `pairs` (posting its reduction) — which every fusing
    /// strategy does before calling
    /// [`PolicyStack::consume_check_dots`].
    pub fn collect_check_dots<'v>(
        &'v mut self,
        space: &S,
        ctx: &IterCtx,
        avail: &CheckVectors<'v, S::Vector>,
        pairs: &mut Vec<(&'v S::Vector, &'v S::Vector)>,
    ) -> CheckDotBatch {
        let mut entries = Vec::new();
        for (i, p) in self.policies.iter_mut().enumerate() {
            for req in p.check_dots(ctx) {
                if let Some(pair) = resolve_check_dot(req, avail) {
                    pairs.push(pair);
                    entries.push((i, req));
                }
            }
            for (k, (left, operand)) in p.check_pairs(ctx).into_iter().enumerate() {
                let right = match operand {
                    CheckOperand::SpmvInput => avail.spmv_input,
                    CheckOperand::SpmvProduct => avail.spmv_product,
                };
                if let Some(right) = right {
                    pairs.push((left, right));
                    entries.push((i, CheckDot::PolicyPair(k as u8)));
                }
            }
        }
        let local_n = avail
            .spmv_input
            .or(avail.spmv_product)
            .or_else(|| avail.basis_pair.map(|(a, _)| a))
            .map(|v| space.local_len(v))
            .unwrap_or(0);
        CheckDotBatch { entries, local_n }
    }

    /// Hand the reduced scalars of a negotiation round back to the
    /// requesting policies: `values` is the check tail of the strategy's
    /// reduction, in the order [`PolicyStack::collect_check_dots`] appended
    /// the pairs. Must run before the detection hooks of the same step.
    pub fn consume_check_dots(&mut self, ctx: &IterCtx, batch: &CheckDotBatch, values: &[f64]) {
        debug_assert_eq!(batch.entries.len(), values.len());
        let mut start = 0;
        while start < batch.entries.len() {
            let policy = batch.entries[start].0;
            let mut end = start + 1;
            while end < batch.entries.len() && batch.entries[end].0 == policy {
                end += 1;
            }
            let slice: Vec<(CheckDot, f64)> = batch.entries[start..end]
                .iter()
                .zip(&values[start..end])
                .map(|((_, req), v)| (*req, *v))
                .collect();
            self.policies[policy].consume_check_dots(ctx, batch.local_n, &slice);
            start = end;
        }
    }

    /// Shared fold for the five detection hooks: run `hook` on every policy
    /// in stack order and stop at the first detection, noting a restart on
    /// the detecting policy when that is its response.
    fn run_detection_hook(
        &mut self,
        space: &mut S,
        mut hook: impl FnMut(&mut dyn ResiliencePolicy<S>, &mut S) -> Result<PolicyAction>,
    ) -> Result<StackOutcome> {
        for p in &mut self.policies {
            if hook(&mut **p, space)? == PolicyAction::Detected {
                let response = p.response();
                if response == DetectionResponse::Restart {
                    p.note_restart();
                }
                return Ok(StackOutcome::Act(response));
            }
        }
        Ok(StackOutcome::Continue)
    }

    /// Run the before-SpMV hook; stops at the first detection.
    pub fn before_spmv(
        &mut self,
        space: &mut S,
        ctx: &IterCtx,
        v: &S::Vector,
    ) -> Result<StackOutcome> {
        self.run_detection_hook(space, |p, space| p.before_spmv(space, ctx, v))
    }

    /// Run the after-SpMV hook; stops at the first detection.
    pub fn after_spmv(
        &mut self,
        space: &mut S,
        ctx: &IterCtx,
        v: &S::Vector,
        w: &S::Vector,
    ) -> Result<StackOutcome> {
        self.run_detection_hook(space, |p, space| p.after_spmv(space, ctx, v, w))
    }

    /// Run the after-preconditioner-apply hook; stops at the first
    /// detection.
    pub fn after_precond(
        &mut self,
        space: &mut S,
        ctx: &IterCtx,
        r: &S::Vector,
        z: &S::Vector,
    ) -> Result<StackOutcome> {
        self.run_detection_hook(space, |p, space| p.after_precond(space, ctx, r, z))
    }

    /// Run the after-orthogonalization hook.
    pub fn after_orthogonalization(
        &mut self,
        space: &mut S,
        ctx: &IterCtx,
        new_v: &S::Vector,
        prev_v: Option<&S::Vector>,
    ) -> Result<StackOutcome> {
        self.run_detection_hook(space, |p, space| {
            p.after_orthogonalization(space, ctx, new_v, prev_v)
        })
    }

    /// Run the end-of-iteration hook.
    pub fn on_iteration(
        &mut self,
        space: &mut S,
        ctx: &IterCtx,
        probe: &mut dyn SolutionProbe<S>,
    ) -> Result<StackOutcome> {
        self.run_detection_hook(space, |p, space| p.on_iteration(space, ctx, probe))
    }

    /// Consult the stack about a failure; the first policy that repairs the
    /// iterate wins.
    pub fn on_failure(
        &mut self,
        ctx: &IterCtx,
        event: FailureEvent,
        x: &mut S::Vector,
    ) -> RecoveryAction {
        for p in &mut self.policies {
            if p.on_failure(ctx, event, x) == RecoveryAction::Restart {
                return RecoveryAction::Restart;
            }
        }
        RecoveryAction::Accept
    }
}

// ---------------------------------------------------------------------------
// Building-block policies
// ---------------------------------------------------------------------------

/// A policy that observes every hook but never detects anything. Used by the
/// property tests to prove the hook plumbing is semantically zero-cost: a
/// solve with a [`NoopPolicy`] stack must be bit-identical to one with an
/// empty stack.
#[derive(Debug, Default)]
pub struct NoopPolicy {
    overhead: PolicyOverhead,
}

impl NoopPolicy {
    /// A fresh no-op policy.
    pub fn new() -> Self {
        Self {
            overhead: PolicyOverhead {
                name: "noop",
                ..PolicyOverhead::default()
            },
        }
    }
}

impl<S: KrylovSpace> ResiliencePolicy<S> for NoopPolicy {
    fn name(&self) -> &'static str {
        "noop"
    }
    fn after_spmv(
        &mut self,
        _space: &mut S,
        _ctx: &IterCtx,
        _v: &S::Vector,
        _w: &S::Vector,
    ) -> Result<PolicyAction> {
        self.overhead.checks_run += 1;
        Ok(PolicyAction::Continue)
    }
    fn overhead(&self) -> PolicyOverhead {
        self.overhead.clone()
    }
}

/// The [`SnapshotRing`] a persisting [`IterateRollbackPolicy`] writes its
/// iterate snapshots through — `klflr/x@{step}` keys, the step of the newest
/// under `klflr/last` (read back by replacement ranks when agreeing on a
/// resume point): one at most every `every` iterations, the newest
/// `keep_last` retained per rank.
pub fn snapshot_ring(every: usize, keep_last: usize) -> SnapshotRing {
    SnapshotRing::new("klflr/x", "klflr/last", every, keep_last)
}

/// Persistent-store key of the iterate snapshot taken at global step `step`.
pub fn snapshot_key(step: usize) -> String {
    snapshot_ring(1, 1).key(step)
}

/// An LFLR-flavoured rollback policy: keeps a copy of the iterate from the
/// last cycle boundary and, when the kernel is about to terminate with a
/// divergence, restores it and asks for a restart instead (bounded by
/// `max_restores` so an unrecoverable solve still terminates).
///
/// With [`with_persistence`](IterateRollbackPolicy::with_persistence) the
/// policy additionally writes its snapshots through the space's persistent
/// store ([`KrylovSpace::persist_vector`], backed by `Comm::persist` in
/// distributed spaces) on a configurable iteration cadence — the substrate
/// of mid-solve process-failure recovery: a replacement rank inherits the
/// dead incarnation's partition, proposes the newest step recoverable from
/// it at the recovery rendezvous, and every rank restores the agreed
/// snapshot as the warm start of the resumed solve (see
/// [`kernel::lflr`](crate::kernel::lflr)).
#[derive(Debug)]
pub struct IterateRollbackPolicy<V> {
    saved: Option<V>,
    /// Kernel iteration `saved` corresponds to. The kernel's iteration
    /// counter keeps running across rollbacks, so after a restore the next
    /// cycle start carries an iterate older than `ctx.iteration` claims —
    /// this is the honest label for it.
    saved_step: usize,
    /// Set by a rollback: the next cycle start's iterate is the restored
    /// one, not a freshly committed one.
    rolled_back: bool,
    restores_left: usize,
    overhead: PolicyOverhead,
    /// Set when the snapshots also go through the space's persistent store
    /// (process-failure recovery) instead of staying in rank memory only.
    persist: Option<SnapshotRing>,
    /// Global step offset: a resumed solve counts kernel iterations from 0,
    /// but snapshot keys are global so survivors and replacements agree.
    base_step: usize,
    /// Total snapshots written by this instance (monotone; the ring
    /// shrinks and cannot count).
    writes: usize,
}

impl<V> IterateRollbackPolicy<V> {
    /// Roll back at most `max_restores` times.
    pub fn new(max_restores: usize) -> Self {
        Self {
            saved: None,
            saved_step: 0,
            rolled_back: false,
            restores_left: max_restores,
            overhead: PolicyOverhead {
                name: "iterate-rollback",
                ..PolicyOverhead::default()
            },
            persist: None,
            base_step: 0,
            writes: 0,
        }
    }

    /// Also persist snapshots through the space's persistent store, at most
    /// every `every` iterations, retaining the newest `keep_last` per rank.
    ///
    /// `keep_last` must cover the worst-case distance between the agreed
    /// rollback step and a survivor's newest snapshot. Persist points are
    /// deterministic in the iteration count, so all ranks write the *same*
    /// step sequence; the collectives every strategy posts each iteration
    /// bound the iteration skew between ranks to one, and a rank can die
    /// after its peers persisted a boundary it never reached — together at
    /// most **two** persist points of lag, so `keep_last = 3` is the proven
    /// floor. The default presets use 4, keeping one extra point of slack
    /// for schedules that interleave cycle-boundary and cadence snapshots
    /// (pinned by `crates/core/tests/krylov_lflr.rs`).
    pub fn with_persistence(mut self, every: usize, keep_last: usize) -> Self {
        self.persist = Some(snapshot_ring(every, keep_last));
        self
    }

    /// Mark this instance as driving a solve resumed at global step `step`:
    /// snapshot keys continue the pre-failure numbering, and the cadence
    /// counts from the resume point.
    pub fn resuming_from(mut self, step: usize) -> Self {
        self.persist = self.persist.map(|ring| ring.resuming_from(step));
        self.base_step = step;
        self
    }

    /// Snapshots written to the persistent store by this instance (total
    /// writes — pruning does not shrink this count).
    pub fn snapshots_persisted(&self) -> usize {
        self.writes
    }
}

impl<V> IterateRollbackPolicy<V> {
    /// Persist `x` as the snapshot of global step `base + iteration` if the
    /// cadence says one is due, pruning the oldest beyond the window.
    /// `iteration` must be the iteration `x` actually corresponds to (see
    /// [`SolutionProbe::iterate_step`]); `refresh` additionally re-writes a
    /// snapshot whose step equals the newest (the resume-point rewrite at a
    /// recurrence rebuild — never used on the per-iteration path, where the
    /// committed step can legitimately sit still mid-cycle).
    fn persist_if_due<S>(
        &mut self,
        space: &mut S,
        iteration: usize,
        x: &S::Vector,
        refresh: bool,
    ) -> Result<()>
    where
        S: KrylovSpace<Vector = V>,
    {
        let Some(ring) = self.persist.as_mut() else {
            return Ok(());
        };
        let step = self.base_step + iteration;
        if !ring.due(step, refresh) {
            return Ok(());
        }
        self.overhead.persist_bytes += space.persist_vector(&ring.key(step), x)?;
        space.persist_scalar(ring.meta_key(), step as f64)?;
        self.writes += 1;
        if let Some(old) = ring.record(step) {
            space.unpersist(&ring.key(old));
        }
        Ok(())
    }
}

impl<S: KrylovSpace> ResiliencePolicy<S> for IterateRollbackPolicy<S::Vector> {
    fn name(&self) -> &'static str {
        "iterate-rollback"
    }
    fn on_cycle_start(&mut self, space: &mut S, ctx: &IterCtx, x: &S::Vector) -> Result<()> {
        // A cycle start right after a rollback carries the *restored*
        // iterate: the kernel's iteration counter kept running, so
        // `ctx.iteration` would over-label it — keep the step the saved
        // copy was captured at. Otherwise the iterate corresponds exactly
        // to the current iteration.
        let step = if self.rolled_back {
            self.rolled_back = false;
            self.saved_step
        } else {
            ctx.iteration
        };
        self.saved = Some(x.clone());
        self.saved_step = step;
        // Refresh so a resumed solve re-writes the snapshot it was
        // warm-started from.
        self.persist_if_due(space, step, x, true)
    }
    fn on_iteration(
        &mut self,
        space: &mut S,
        _ctx: &IterCtx,
        probe: &mut dyn SolutionProbe<S>,
    ) -> Result<PolicyAction> {
        // Label the snapshot with the step the committed iterate embodies —
        // for GMRES that is the cycle base (mid-cycle progress is not
        // snapshotable), for CG the current iteration — and only when it
        // advanced a full cadence past the newest snapshot.
        self.persist_if_due(space, probe.iterate_step(), probe.iterate(), false)?;
        Ok(PolicyAction::Continue)
    }
    fn on_failure(
        &mut self,
        _ctx: &IterCtx,
        _event: FailureEvent,
        x: &mut S::Vector,
    ) -> RecoveryAction {
        match (&self.saved, self.restores_left) {
            (Some(saved), n) if n > 0 => {
                *x = saved.clone();
                self.restores_left -= 1;
                self.overhead.restarts += 1;
                self.rolled_back = true;
                RecoveryAction::Restart
            }
            _ => RecoveryAction::Accept,
        }
    }
    fn overhead(&self) -> PolicyOverhead {
        self.overhead.clone()
    }
}
