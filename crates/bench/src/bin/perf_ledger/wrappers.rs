//! The four tracing wrappers: each implements one public trait of the suite
//! by pure delegation and records a span around every call, so the
//! benchmark measures the layers strictly from outside.
//!
//! Byte counts are *computed* from operand sizes (they ignore cache misses
//! and reuse) and are labelled so wherever they are printed.

use std::sync::OnceLock;

use resilience::kernel::{
    CheckDot, CheckOperand, DetectionResponse, FailureEvent, IterCtx, KrylovSpace, PolicyAction,
    PolicyOverhead, RecoveryAction, ResiliencePolicy, SolutionProbe, SpacePreconditioner,
};
use resilient_linalg::{auto_ops, CsrMatrix, LocalOps, SellMatrix};
use resilient_runtime::{CommBackend, RecoveryInfo, ReduceOp, Result, ShrinkInfo, Stored};

use crate::trace::{mute_ops, span, Layer};

const F64: u64 = std::mem::size_of::<f64>() as u64;

/// Matrix sweep traffic per right-hand side: 12 bytes per stored entry
/// (value + 32-bit column) and 16 per row (one read of `x`, one write of
/// `y`).
fn sweep_bytes(nnz: usize, rows: usize, k: usize) -> u64 {
    (nnz as u64 * 12 + rows as u64 * 16) * k as u64
}

// ---------------------------------------------------------------------------
// LocalOps
// ---------------------------------------------------------------------------

/// [`LocalOps`] delegating to another backend. `msub_seq` (one call per row
/// of every triangular solve) is forwarded without a span.
pub struct TracedOps {
    inner: &'static dyn LocalOps,
}

/// The traced view of [`auto_ops`], as the `&'static` handle
/// `DistSpace::with_ops` takes.
pub fn traced_ops() -> &'static dyn LocalOps {
    static OPS: OnceLock<TracedOps> = OnceLock::new();
    OPS.get_or_init(|| TracedOps { inner: auto_ops() })
}

impl LocalOps for TracedOps {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn dot(&self, x: &[f64], y: &[f64]) -> f64 {
        let _s = span(Layer::Dot, 2 * F64 * x.len() as u64);
        self.inner.dot(x, y)
    }
    fn dot_pairs(&self, pairs: &[(&[f64], &[f64])], out: &mut [f64]) {
        let n: usize = pairs.iter().map(|(x, _)| x.len()).sum();
        let _s = span(Layer::Dot, 2 * F64 * n as u64);
        self.inner.dot_pairs(pairs, out)
    }
    fn nrm2(&self, x: &[f64]) -> f64 {
        let _s = span(Layer::Dot, F64 * x.len() as u64);
        self.inner.nrm2(x)
    }
    fn dot_blocks(&self, k: usize, pairs: &[(&[f64], &[f64])], out: &mut [f64]) {
        let n: usize = pairs.iter().map(|(x, _)| x.len()).sum();
        let _s = span(Layer::Dot, 2 * F64 * n as u64);
        self.inner.dot_blocks(k, pairs, out)
    }

    fn axpy(&self, a: f64, x: &[f64], y: &mut [f64]) {
        let _s = span(Layer::Update, 3 * F64 * x.len() as u64);
        self.inner.axpy(a, x, y)
    }
    fn scale(&self, a: f64, x: &mut [f64]) {
        let _s = span(Layer::Update, 2 * F64 * x.len() as u64);
        self.inner.scale(a, x)
    }
    fn xpby(&self, x: &[f64], b: f64, y: &mut [f64]) {
        let _s = span(Layer::Update, 3 * F64 * x.len() as u64);
        self.inner.xpby(x, b, y)
    }
    fn waxpby_into(&self, a: f64, x: &[f64], b: f64, y: &[f64], w: &mut [f64]) {
        let _s = span(Layer::Update, 3 * F64 * x.len() as u64);
        self.inner.waxpby_into(a, x, b, y, w)
    }
    fn axpy_blocks(&self, alphas: &[f64], x: &[f64], y: &mut [f64]) {
        let _s = span(Layer::Update, 3 * F64 * x.len() as u64);
        self.inner.axpy_blocks(alphas, x, y)
    }
    fn xpby_blocks(&self, x: &[f64], betas: &[f64], y: &mut [f64]) {
        let _s = span(Layer::Update, 3 * F64 * x.len() as u64);
        self.inner.xpby_blocks(x, betas, y)
    }
    fn waxpby_blocks(&self, a: &[f64], x: &[f64], b: &[f64], y: &[f64], w: &mut [f64]) {
        let _s = span(Layer::Update, 3 * F64 * x.len() as u64);
        self.inner.waxpby_blocks(a, x, b, y, w)
    }

    fn msub_seq(&self, s: f64, u: &[f64], x: &[f64]) -> f64 {
        self.inner.msub_seq(s, u, x)
    }

    fn spmv_csr(&self, a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
        let _s = span(Layer::Spmv, sweep_bytes(a.nnz(), a.nrows(), 1));
        self.inner.spmv_csr(a, x, y)
    }
    fn spmv_sell(&self, a: &SellMatrix, x: &[f64], y: &mut [f64]) {
        let _s = span(Layer::Spmv, sweep_bytes(a.nnz(), a.nrows(), 1));
        self.inner.spmv_sell(a, x, y)
    }
    fn spmm_csr(&self, a: &CsrMatrix, k: usize, x: &[f64], y: &mut [f64]) {
        let _s = span(Layer::Spmm, sweep_bytes(a.nnz(), a.nrows(), k));
        self.inner.spmm_csr(a, k, x, y)
    }
    fn spmm_sell(&self, a: &SellMatrix, k: usize, x: &[f64], y: &mut [f64]) {
        let _s = span(Layer::Spmm, sweep_bytes(a.nnz(), a.nrows(), k));
        self.inner.spmm_sell(a, k, x, y)
    }
}

// ---------------------------------------------------------------------------
// CommBackend
// ---------------------------------------------------------------------------

/// [`CommBackend`] delegating to the communicator a rank received. The
/// presets are generic over the backend, so they run unmodified on it.
pub struct TracedComm<'c, C: CommBackend> {
    inner: &'c mut C,
}

impl<'c, C: CommBackend> TracedComm<'c, C> {
    pub fn new(inner: &'c mut C) -> Self {
        Self { inner }
    }
}

impl<C: CommBackend> CommBackend for TracedComm<'_, C> {
    type Pending = C::Pending;

    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn world_rank(&self) -> usize {
        self.inner.world_rank()
    }
    fn world_size(&self) -> usize {
        self.inner.world_size()
    }
    fn incarnation(&self) -> u64 {
        self.inner.incarnation()
    }
    fn is_replacement(&self) -> bool {
        self.inner.is_replacement()
    }
    fn recoveries(&self) -> u64 {
        self.inner.recoveries()
    }

    fn now(&self) -> f64 {
        self.inner.now()
    }
    fn advance(&mut self, seconds: f64) {
        self.inner.advance(seconds)
    }
    fn charge_flops(&mut self, flops: usize) {
        self.inner.charge_flops(flops)
    }
    fn record_check_flops(&mut self, flops: usize) {
        self.inner.record_check_flops(flops)
    }
    fn failure_point(&mut self) -> Result<()> {
        self.inner.failure_point()
    }
    fn check_health(&self) -> Result<()> {
        self.inner.check_health()
    }

    fn send_f64(&mut self, dest: usize, tag: i32, data: &[f64]) -> Result<()> {
        let _s = span(Layer::HaloSend, F64 * data.len() as u64);
        self.inner.send_f64(dest, tag, data)
    }
    fn recv_f64(&mut self, source: usize, tag: i32) -> Result<(usize, Vec<f64>)> {
        let _s = span(Layer::HaloRecv, 0);
        self.inner.recv_f64(source, tag)
    }

    fn barrier(&mut self) -> Result<()> {
        let _s = span(Layer::Barrier, 0);
        self.inner.barrier()
    }
    fn allreduce(&mut self, op: ReduceOp, data: &[f64]) -> Result<Vec<f64>> {
        let _s = span(Layer::Allreduce, F64 * data.len() as u64);
        self.inner.allreduce(op, data)
    }
    fn allreduce_scalar(&mut self, op: ReduceOp, value: f64) -> Result<f64> {
        let _s = span(Layer::Allreduce, F64);
        self.inner.allreduce_scalar(op, value)
    }
    fn global_dot(&mut self, local_partial: f64) -> Result<f64> {
        let _s = span(Layer::Allreduce, F64);
        self.inner.global_dot(local_partial)
    }
    fn allgather(&mut self, data: &[f64]) -> Result<Vec<Vec<f64>>> {
        let _s = span(Layer::Allreduce, F64 * data.len() as u64);
        self.inner.allgather(data)
    }
    fn iallreduce(&mut self, op: ReduceOp, data: &[f64]) -> Result<Self::Pending> {
        let _s = span(Layer::IallreducePost, F64 * data.len() as u64);
        self.inner.iallreduce(op, data)
    }
    fn wait_vector(&mut self, pending: Self::Pending) -> Result<Vec<f64>> {
        let _s = span(Layer::Wait, 0);
        self.inner.wait_vector(pending)
    }

    fn persist(&mut self, key: &str, value: Stored) -> Result<()> {
        let _s = span(Layer::Persist, value.byte_len() as u64);
        self.inner.persist(key, value)
    }
    fn restore(&mut self, rank: usize, key: &str) -> Result<Stored> {
        let _s = span(Layer::Restore, 0);
        self.inner.restore(rank, key)
    }
    fn unpersist(&mut self, key: &str) {
        self.inner.unpersist(key)
    }
    fn persisted(&self, rank: usize, key: &str) -> bool {
        self.inner.persisted(rank, key)
    }

    fn recovery_rendezvous(&mut self, proposal: f64) -> Result<RecoveryInfo> {
        let _s = span(Layer::Rendezvous, 0);
        self.inner.recovery_rendezvous(proposal)
    }
    fn shrink(&mut self) -> Result<ShrinkInfo> {
        self.inner.shrink()
    }
}

// ---------------------------------------------------------------------------
// SpacePreconditioner
// ---------------------------------------------------------------------------

/// [`SpacePreconditioner`] delegating to `M`. Node-local op spans are muted
/// for the duration of the apply (see [`mute_ops`]), so the apply's self
/// time includes its triangular solves and `linalg.ops.*` excludes them.
pub struct TracedPrecond<M> {
    pub inner: M,
    /// Computed bytes one apply moves (the factors plus the two vectors).
    pub bytes_per_apply: u64,
}

impl<S: KrylovSpace, M: SpacePreconditioner<S>> SpacePreconditioner<S> for TracedPrecond<M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn apply_into(&mut self, space: &mut S, r: &S::Vector, z: &mut S::Vector) -> Result<()> {
        let _s = span(Layer::PrecondApply, self.bytes_per_apply);
        let _m = mute_ops();
        self.inner.apply_into(space, r, z)
    }
    fn flops_per_apply(&self) -> usize {
        self.inner.flops_per_apply()
    }
}

// ---------------------------------------------------------------------------
// ResiliencePolicy
// ---------------------------------------------------------------------------

/// [`ResiliencePolicy`] delegating to `P`, one span per hook that does work.
/// The check dots a policy negotiates ride the strategy's own reduction, so
/// their time shows under `linalg.ops.dot`, not here.
pub struct TracedPolicy<P> {
    pub inner: P,
}

impl<S: KrylovSpace, P: ResiliencePolicy<S>> ResiliencePolicy<S> for TracedPolicy<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn response(&self) -> DetectionResponse {
        self.inner.response()
    }
    fn on_solve_start(&mut self, space: &mut S, b: &S::Vector) -> Result<()> {
        let _s = span(Layer::PolicyHook, 0);
        self.inner.on_solve_start(space, b)
    }
    fn on_cycle_start(&mut self, space: &mut S, ctx: &IterCtx, x: &S::Vector) -> Result<()> {
        let _s = span(Layer::PolicyHook, 0);
        self.inner.on_cycle_start(space, ctx, x)
    }
    fn check_dots(&mut self, ctx: &IterCtx) -> Vec<CheckDot> {
        let _s = span(Layer::PolicyHook, 0);
        self.inner.check_dots(ctx)
    }
    fn check_pairs<'v>(&'v mut self, ctx: &IterCtx) -> Vec<(&'v S::Vector, CheckOperand)> {
        let _s = span(Layer::PolicyHook, 0);
        self.inner.check_pairs(ctx)
    }
    fn consume_check_dots(&mut self, ctx: &IterCtx, local_n: usize, values: &[(CheckDot, f64)]) {
        let _s = span(Layer::PolicyHook, 0);
        self.inner.consume_check_dots(ctx, local_n, values)
    }
    fn before_spmv(&mut self, space: &mut S, ctx: &IterCtx, v: &S::Vector) -> Result<PolicyAction> {
        let _s = span(Layer::PolicyHook, 0);
        self.inner.before_spmv(space, ctx, v)
    }
    fn after_spmv(
        &mut self,
        space: &mut S,
        ctx: &IterCtx,
        v: &S::Vector,
        w: &S::Vector,
    ) -> Result<PolicyAction> {
        let _s = span(Layer::PolicyHook, 0);
        self.inner.after_spmv(space, ctx, v, w)
    }
    fn after_precond(
        &mut self,
        space: &mut S,
        ctx: &IterCtx,
        r: &S::Vector,
        z: &S::Vector,
    ) -> Result<PolicyAction> {
        let _s = span(Layer::PolicyHook, 0);
        self.inner.after_precond(space, ctx, r, z)
    }
    fn after_orthogonalization(
        &mut self,
        space: &mut S,
        ctx: &IterCtx,
        new_v: &S::Vector,
        prev_v: Option<&S::Vector>,
    ) -> Result<PolicyAction> {
        let _s = span(Layer::PolicyHook, 0);
        self.inner
            .after_orthogonalization(space, ctx, new_v, prev_v)
    }
    fn on_iteration(
        &mut self,
        space: &mut S,
        ctx: &IterCtx,
        probe: &mut dyn SolutionProbe<S>,
    ) -> Result<PolicyAction> {
        let _s = span(Layer::PolicyHook, 0);
        self.inner.on_iteration(space, ctx, probe)
    }
    fn on_failure(
        &mut self,
        ctx: &IterCtx,
        event: FailureEvent,
        x: &mut S::Vector,
    ) -> RecoveryAction {
        let _s = span(Layer::PolicyHook, 0);
        self.inner.on_failure(ctx, event, x)
    }
    fn overhead(&self) -> PolicyOverhead {
        self.inner.overhead()
    }
    fn note_restart(&mut self) {
        self.inner.note_restart()
    }
}
