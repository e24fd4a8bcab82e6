//! The execution space the unified Krylov kernel runs over.
//!
//! A [`KrylovSpace`] bundles everything an iteration needs from its
//! environment: the bound linear operator, vector arithmetic, inner products
//! (blocking *and* split/nonblocking, so pipelined dot strategies can overlap
//! reductions with operator applications) and cost accounting. There is one
//! implementation, [`DistSpace`]: [`DistVector`] arithmetic over a
//! [`DistCsr`] and any [`CommBackend`] communicator (the virtual-time
//! simulator's [`Comm`] by default, or the real-threads
//! [`ThreadComm`](resilient_runtime::ThreadComm)). Reductions are real
//! collectives, costs are charged to the backend's clock, and the space is
//! the one fault injector:
//! [`StrikePlan`]s corrupt chosen SpMV and preconditioner products (an
//! [`SpmvFault`] is a one-strike SpMV plan). A serial solve is a 1-rank
//! `DistSpace` over [`Comm::solo`](resilient_runtime::Comm::solo), where
//! every reduction folds one value and so returns its local partial's bits.

use resilient_linalg::{auto_ops, CgSweep, LocalOps, PcgSweep};
use resilient_runtime::{Comm, CommBackend, ReduceOp, Result, Stored};

use super::sqrt_nonneg;
use crate::distributed::{DistCsr, DistMultiVector, DistVector, HaloScratch};

use resilient_faults::{Strike, StrikePlan};

/// The operands of one [`DistSpace::pipelined_sweep_block`], swept column
/// by column: this iteration's SpMM product, the six state vectors every
/// pipelined-CG recurrence updates in place, and the preconditioned
/// recurrence's extra chain (see [`CgSweep`] / [`PcgSweep`] for the roles).
pub struct PipelinedSweep<'v> {
    /// `A·w` (preconditioned: `A·mw`), this iteration's SpMM product.
    pub aw: &'v DistMultiVector,
    /// `(mw, q, u)` — this iteration's `M⁻¹w`, `q = M⁻¹s` and `u = M⁻¹r` —
    /// when a preconditioner is bound.
    pub precond: Option<(
        &'v DistMultiVector,
        &'v mut DistMultiVector,
        &'v mut DistMultiVector,
    )>,
    /// Tracks `A·q` (unpreconditioned: `A·s`).
    pub z: &'v mut DistMultiVector,
    /// Tracks `A·p`.
    pub s: &'v mut DistMultiVector,
    /// Search direction.
    pub p: &'v mut DistMultiVector,
    /// Iterate.
    pub x: &'v mut DistMultiVector,
    /// Residual.
    pub r: &'v mut DistMultiVector,
    /// `w = A·u` (unpreconditioned: `A·r`).
    pub w: &'v mut DistMultiVector,
}

/// The execution environment of one Krylov solve: bound operator, vector
/// arithmetic, reductions and cost accounting.
///
/// Implementations must make every *global* quantity (dots, norms) return
/// bit-identical values on every rank so that policy decisions derived from
/// them keep the ranks' control flow symmetric.
pub trait KrylovSpace {
    /// The vector type iterated on.
    type Vector: Clone;
    /// The backend's in-flight collective handle: what a nonblocking
    /// reduction returns until [`KrylovSpace::finish_dots`] completes it.
    type Pending;

    /// The node-local compute backend this space performs its arithmetic
    /// with (see [`LocalOps`]): preconditioners and other
    /// kernel-side code that does local arithmetic *outside* the space's
    /// own methods must route it through this handle so one backend choice
    /// governs the whole solve.
    fn ops(&self) -> &'static dyn LocalOps;

    /// The locally stored entries of `v`.
    fn local(v: &Self::Vector) -> &[f64];
    /// The locally stored entries of `v`, mutably.
    fn local_mut(v: &mut Self::Vector) -> &mut [f64];

    /// Apply the bound operator: `y = A·x`, charging its cost.
    fn apply(&mut self, x: &Self::Vector) -> Result<Self::Vector>;
    /// [`KrylovSpace::apply`] into a caller-owned vector shaped like `x`
    /// (every entry overwritten), so an iteration that keeps its product
    /// buffer allocates nothing per application.
    fn apply_into(&mut self, x: &Self::Vector, y: &mut Self::Vector) -> Result<()>;
    /// Cost of one operator application in FLOPs.
    fn flops_per_apply(&self) -> usize;
    /// Upper-bound estimate of the operator ∞-norm (infinity when unknown);
    /// used by norm-bound policies.
    fn operator_norm_estimate(&self) -> f64;

    /// Global inner product (charges 2n).
    fn dot(&mut self, x: &Self::Vector, y: &Self::Vector) -> Result<f64>;
    /// Global 2-norm.
    fn norm(&mut self, x: &Self::Vector) -> Result<f64>;
    /// Post a fused reduction of arbitrary pairs that may complete later;
    /// operator applications issued before [`KrylovSpace::finish_dots`] are
    /// overlapped with it (the pipelined dot strategies' primitive).
    fn start_dots(&mut self, pairs: &[(&Self::Vector, &Self::Vector)]) -> Result<Self::Pending>;
    /// Complete a reduction started with [`KrylovSpace::start_dots`].
    fn finish_dots(&mut self, pending: Self::Pending) -> Result<Vec<f64>>;

    /// Fused *blocking* reduction of arbitrary pairs whose trailing
    /// `check_tail` pairs are policy check dots (wants-dots fusion): the
    /// reduction performs and time-charges the arithmetic of every pair,
    /// and additionally attributes the check tail's `2n` FLOPs per pair to
    /// the check ledger.
    fn fused_pairs(
        &mut self,
        pairs: &[(&Self::Vector, &Self::Vector)],
        check_tail: usize,
    ) -> Result<Vec<f64>>;

    /// [`KrylovSpace::start_dots`] with the trailing `check_tail` pairs
    /// attributed to the check ledger (the reduction itself still charges
    /// the arithmetic of every pair exactly as `start_dots` does).
    fn start_dots_tagged(
        &mut self,
        pairs: &[(&Self::Vector, &Self::Vector)],
        check_tail: usize,
    ) -> Result<Self::Pending> {
        debug_assert!(check_tail <= pairs.len());
        if check_tail > 0 {
            if let Some((x, _)) = pairs.first() {
                let n = self.local_len(x);
                self.record_check_flops(2 * n * check_tail);
            }
        }
        self.start_dots(pairs)
    }

    /// Local halves of a fused reduction, uncharged (the reduction that
    /// posts them charges): `out[i] = pairs[i].0 · pairs[i].1` over the
    /// locally stored entries.
    fn dot_partials(&self, pairs: &[(&Self::Vector, &Self::Vector)], out: &mut [f64]) {
        // Slice views of up to eight pairs at a time on the stack: one
        // backend call per group, so operands shared within it are read
        // once — and none at all for an empty check tail.
        let mut views: [(&[f64], &[f64]); 8] = [(&[], &[]); 8];
        for (group, out) in pairs.chunks(views.len()).zip(out.chunks_mut(views.len())) {
            for (view, (x, y)) in views.iter_mut().zip(group) {
                *view = (Self::local(x), Self::local(y));
            }
            self.ops().dot_pairs(&views[..group.len()], out);
        }
    }

    /// `y ← y + alpha·x` (local, not charged — call sites charge explicitly
    /// to preserve each preset's legacy cost model).
    fn axpy(&mut self, alpha: f64, x: &Self::Vector, y: &mut Self::Vector) {
        self.ops().axpy(alpha, Self::local(x), Self::local_mut(y));
    }
    /// `x ← alpha·x` (local, not charged).
    fn scale(&mut self, alpha: f64, x: &mut Self::Vector) {
        self.ops().scale(alpha, Self::local_mut(x));
    }
    /// `y ← x + beta·y` (local, not charged) — the CG direction update.
    fn xpby(&mut self, x: &Self::Vector, beta: f64, y: &mut Self::Vector) {
        self.ops().xpby(Self::local(x), beta, Self::local_mut(y));
    }
    /// Residual helper `b − ax` (local, not charged).
    fn residual(&self, b: &Self::Vector, ax: &Self::Vector) -> Self::Vector;
    /// A zero vector with the shape of `v`.
    fn zeros_like(&self, v: &Self::Vector) -> Self::Vector;
    /// Locally stored length of `v` (the `n` of per-iteration flop formulas).
    fn local_len(&self, v: &Self::Vector) -> usize {
        Self::local(v).len()
    }
    /// Does the *locally stored* part of `v` contain NaN/Inf? Policies that
    /// must stay rank-symmetric should prefer global norms.
    fn local_has_non_finite(&self, v: &Self::Vector) -> bool {
        resilient_linalg::vector::has_non_finite(Self::local(v))
    }

    // -- persistent state (LFLR substrate) ---------------------------------

    /// Persist the locally stored part of `v` in this rank's persistent
    /// partition (the LFLR substrate — survives the rank's failure and is
    /// inherited by its replacement) through
    /// [`Comm::persist`](resilient_runtime::Comm::persist), which charges
    /// time at the configured checkpoint bandwidth. Returns the bytes
    /// written so the caller can report checkpoint traffic.
    fn persist_vector(&mut self, key: &str, v: &Self::Vector) -> Result<usize>;

    /// Persist one scalar (step counters, epoch metadata) in this rank's
    /// persistent partition. Restoring is a recovery-driver concern, done
    /// directly on the communicator (see `kernel::lflr`), so the space only
    /// writes.
    fn persist_scalar(&mut self, key: &str, value: f64) -> Result<()>;

    /// Remove `key` from this rank's persistent partition (no-op if absent)
    /// — how persisting policies prune their snapshot history to a bounded
    /// window.
    fn unpersist(&mut self, key: &str);

    /// Charge solver arithmetic: advances the clock and counts the FLOPs in
    /// the rank's [`resilient_runtime::RankStats::flops`].
    fn charge_flops(&mut self, flops: usize);
    /// Attribute resilience-check arithmetic to the check ledger. This never
    /// advances time or the FLOP count: the space operations that perform a
    /// check (dots, norms, applications) charge their own cost. The
    /// attribution lands in the rank's
    /// [`resilient_runtime::RankStats::check_flops`].
    fn record_check_flops(&mut self, flops: usize);
    /// Advance any configured per-iteration extra application work
    /// (latency-hiding experiments).
    fn advance_extra_work(&mut self) -> Result<()>;
}

/// One column of a pipelined-CG sweep on local slices, uncharged (the
/// caller charges): the six-vector [`LocalOps::pipelined_cg_sweep`], or
/// the eight-vector [`LocalOps::pipelined_pcg_sweep`] when `precond` gives
/// `(mw, q, u)`. Returns the partials `[r·u, w·u, r·r]` — `[r·r, w·r, r·r]`
/// without a preconditioner, the same bits with `u = r`.
fn sweep_column(
    ops: &dyn LocalOps,
    alpha: f64,
    beta: f64,
    aw: &[f64],
    precond: Option<(&[f64], &mut [f64], &mut [f64])>,
    v: CgSweep<'_>,
) -> [f64; 3] {
    match precond {
        None => {
            let [rr, wr] = ops.pipelined_cg_sweep(alpha, beta, aw, v);
            [rr, wr, rr]
        }
        Some((mw, q, u)) => {
            let CgSweep { z, s, p, x, r, w } = v;
            let v = PcgSweep {
                z,
                q,
                s,
                p,
                x,
                r,
                u,
                w,
            };
            ops.pipelined_pcg_sweep(alpha, beta, aw, mw, v)
        }
    }
}

// ---------------------------------------------------------------------------
// Distributed space
// ---------------------------------------------------------------------------

/// A planned single-event upset in a distributed SpMV: on `rank`, flip `bit`
/// of local element `local_element` of the product of application number
/// `at_application` (0-based, counted per space).
/// [`DistSpace::with_fault`] installs it as one [`Strike`] pinned to
/// incarnation 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpmvFault {
    /// *World* (launch-time) rank whose product is corrupted. Injection is
    /// pinned to the pre-failure epoch: it matches the stable world rank —
    /// not the current communicator rank, which shrink recovery renumbers —
    /// and only the original incarnation of that rank ever strikes, so a
    /// planned strike can never silently move to a different physical
    /// process (or replay on a replacement) mid-experiment.
    pub rank: usize,
    /// 0-based operator-application index at which to strike.
    pub at_application: usize,
    /// Local element of the output vector to corrupt (clamped to length).
    pub local_element: usize,
    /// Bit (0–63) of the IEEE-754 representation to flip.
    pub bit: u32,
}

/// A [`KrylovSpace`] over block-distributed vectors, a [`DistCsr`] operator
/// and any [`CommBackend`] communicator. The default backend is the
/// virtual-time simulator's [`Comm`], so existing concrete uses keep
/// compiling (and behaving) exactly as before; instantiate with
/// [`ThreadComm`](resilient_runtime::ThreadComm) for real-threads wall-clock runs.
pub struct DistSpace<'a, 'b, C: CommBackend = Comm> {
    comm: &'a mut C,
    a: &'b DistCsr,
    extra_work_per_iter: f64,
    operator_norm: f64,
    applications: usize,
    injections: usize,
    /// Strike plan against the SpMV output ([`DistSpace::with_fault`] and
    /// [`DistSpace::with_spmv_plan`] both add to it).
    spmv_plan: Option<StrikePlan>,
    /// Campaign multi-strike plan against the preconditioner-apply output
    /// (fired by [`DistSpace::strike_precond_output`]).
    precond_plan: Option<StrikePlan>,
    /// Preconditioner applications observed so far (the `at` ordinal of
    /// `precond_plan` strikes).
    precond_applications: u64,
    ops: &'static dyn LocalOps,
    /// Reused ghost-exchange buffers: the SpMV/SpMM input (owned + ghost
    /// entries) is assembled here instead of allocating per application.
    halo: HaloScratch,
}

impl<'a, 'b, C: CommBackend> DistSpace<'a, 'b, C> {
    /// Bind the communicator and operator (local arithmetic through the
    /// [`auto_ops`] backend).
    pub fn new(comm: &'a mut C, a: &'b DistCsr) -> Self {
        Self {
            comm,
            a,
            extra_work_per_iter: 0.0,
            operator_norm: f64::INFINITY,
            applications: 0,
            injections: 0,
            spmv_plan: None,
            precond_plan: None,
            precond_applications: 0,
            ops: auto_ops(),
            halo: HaloScratch::default(),
        }
    }

    /// Select the node-local compute backend (scalar reference, SIMD, …);
    /// every backend is bit-compatible, so this changes speed, never
    /// results — rank symmetry is unaffected even if ranks chose
    /// different backends.
    pub fn with_ops(mut self, ops: &'static dyn LocalOps) -> Self {
        self.ops = ops;
        self
    }

    /// Charge `seconds` of overlappable application work per iteration
    /// (forwarded from [`SolveOptions::extra_work_per_iter`]).
    ///
    /// [`SolveOptions::extra_work_per_iter`]: super::SolveOptions::extra_work_per_iter
    pub fn with_extra_work(mut self, seconds_per_iter: f64) -> Self {
        self.extra_work_per_iter = seconds_per_iter;
        self
    }

    /// Provide a (globally agreed) operator ∞-norm bound for norm-bound
    /// policies; see [`DistCsr::local_norm_inf`].
    pub fn with_operator_norm(mut self, norm: f64) -> Self {
        self.operator_norm = norm;
        self
    }

    /// Inject a single-event upset into one SpMV product: its [`Strike`]
    /// goes *ahead of* any strikes already in the SpMV plan.
    pub fn with_fault(mut self, fault: SpmvFault) -> Self {
        let strike = StrikePlan::new(vec![Strike {
            rank: fault.rank,
            incarnation: 0,
            at: fault.at_application as u64,
            element: fault.local_element,
            bit: fault.bit,
        }]);
        self.spmv_plan = Some(strike.chain(self.spmv_plan.take().unwrap_or_default()));
        self
    }

    /// Add a campaign multi-strike plan against SpMV products, *after* any
    /// strikes already installed. Strikes are matched on the stable *world*
    /// rank, the pinned incarnation, and the per-space application ordinal
    /// — so a plan composes with shrink renumbering and replacement ranks.
    pub fn with_spmv_plan(mut self, plan: StrikePlan) -> Self {
        self.spmv_plan = Some(self.spmv_plan.take().unwrap_or_default().chain(plan));
        self
    }

    /// Install a campaign multi-strike plan against preconditioner-apply
    /// outputs; preconditioners report their outputs through
    /// [`DistSpace::strike_precond_output`].
    pub fn with_precond_plan(mut self, plan: StrikePlan) -> Self {
        self.precond_plan = Some(plan);
        self
    }

    /// Preconditioner strike point: every faultable preconditioner (see
    /// `BlockJacobi::apply_into`) routes its freshly computed local output
    /// through here, which counts the application and fires any due
    /// campaign strikes into it. Without a plan this only counts.
    pub fn strike_precond_output(&mut self, z: &mut [f64]) {
        let at = self.precond_applications;
        self.precond_applications += 1;
        if let Some(plan) = self.precond_plan.as_mut() {
            self.injections +=
                plan.strike_slice(self.comm.world_rank(), self.comm.incarnation(), at, z);
        }
    }

    /// Number of bit flips actually injected so far.
    pub fn injections(&self) -> usize {
        self.injections
    }

    /// Remove any installed strike plans (fired-strike counts are kept).
    /// The campaign driver disarms the space before its final charged
    /// verification so a strike that never came due cannot corrupt the
    /// verdict on the solve itself.
    pub fn disarm_plans(&mut self) {
        self.spmv_plan = None;
        self.precond_plan = None;
    }

    /// SpMV applications observed so far (the campaign driver reads this
    /// off a clean run to scale its strike windows).
    pub fn applications(&self) -> usize {
        self.applications
    }

    /// Preconditioner applications observed so far.
    pub fn precond_applications(&self) -> u64 {
        self.precond_applications
    }

    /// SpMV strike point: counts the application and fires any due
    /// strikes into its product (column 0 of an SpMM's).
    fn strike_product(&mut self, y: &mut [f64]) {
        let app = self.applications;
        self.applications += 1;
        if let Some(plan) = self.spmv_plan.as_mut() {
            self.injections += plan.strike_slice(
                self.comm.world_rank(),
                self.comm.incarnation(),
                app as u64,
                y,
            );
        }
    }

    /// The communicator (for preset code that needs collectives around the
    /// solve itself).
    pub fn comm(&mut self) -> &mut C {
        self.comm
    }

    /// The bound operator.
    pub fn operator(&self) -> &'b DistCsr {
        self.a
    }

    // -- batched multi-RHS entry points ------------------------------------
    //
    // The block-CG kernel's surface: one operator sweep and one collective
    // serve every column of a `DistMultiVector`, so the per-iteration
    // collective count is independent of the batch width k. `active` is the
    // number of not-yet-converged columns still paying for arithmetic —
    // converged columns keep their slots in every payload (collective
    // symmetry) but stop being charged.

    /// Global dimension of the bound operator.
    pub fn global_dim(&self) -> usize {
        self.a.global_dim()
    }

    /// Batched operator application `y = A·x`: one ghost exchange per
    /// neighbour and one matrix sweep feed all `k` columns; charges
    /// `flops_per_apply × active`. `y` is the caller's (reused) output —
    /// nothing is allocated per application. Counts one application and
    /// fires its strikes into column 0 of the product, like
    /// [`KrylovSpace::apply_into`] into its one.
    pub fn apply_block_into(
        &mut self,
        x: &DistMultiVector,
        active: usize,
        y: &mut DistMultiVector,
    ) -> Result<()> {
        self.a
            .apply_block_into(self.comm, x, self.ops, &mut self.halo, active, y)?;
        self.strike_product(y.col_mut(0));
        Ok(())
    }

    /// Batched blocking reduction: per multivector pair, all `k` per-column
    /// dot partials, then the `checks` tail (policy check dots riding the
    /// same collective), in **one** allreduce. Charges `2n·active` per
    /// multivector pair and attributes `2n` per check pair to the check
    /// ledger. `partials` is the caller's reusable local-partials buffer.
    pub fn block_dots<const N: usize>(
        &mut self,
        k: usize,
        blocks: &[(&DistMultiVector, &DistMultiVector); N],
        checks: &[(&DistVector, &DistVector)],
        active: usize,
        partials: &mut Vec<f64>,
    ) -> Result<Vec<f64>> {
        partials.clear();
        partials.resize(k * N, 0.0);
        self.block_dot_partials(k, blocks, partials);
        let n = blocks.first().map_or(0, |(x, _)| x.local_rows());
        self.append_check_partials(n, active * N, checks, partials);
        self.comm.allreduce(ReduceOp::Sum, partials)
    }

    /// [`DistSpace::block_dots`] from **carried** solver partials: the
    /// `carried.len() / k` per-column groups already computed over columns
    /// of `n` local rows (by [`DistSpace::block_dot_partials`]), plus the
    /// `checks` tail reduced from its vectors, in one blocking allreduce
    /// charged exactly like `block_dots` over the same pairs.
    pub(crate) fn reduce_carried_block_dots(
        &mut self,
        k: usize,
        carried: &[f64],
        n: usize,
        checks: &[(&DistVector, &DistVector)],
        active: usize,
        partials: &mut Vec<f64>,
    ) -> Result<Vec<f64>> {
        self.carried_partials(k, carried, n, checks, active, partials);
        self.comm.allreduce(ReduceOp::Sum, partials)
    }

    /// The nonblocking batched reduction of the pipelined kernel, posted
    /// from **carried** local partials: `carried` holds the
    /// `carried.len() / k` per-column partial groups a previous
    /// [`DistSpace::pipelined_sweep_block`] (or
    /// [`DistSpace::block_dot_partials`]) already computed over columns of
    /// `n` local rows, so posting re-reads no state vector. Charged exactly
    /// like [`DistSpace::block_dots`] over the same pairs — `2n·active` per
    /// group, checks at full width — so virtual time does not depend on
    /// where the partials were computed. A subsequent
    /// [`DistSpace::apply_block_into`] overlaps the reduction; complete it
    /// with [`KrylovSpace::finish_dots`].
    pub fn start_carried_block_dots(
        &mut self,
        k: usize,
        carried: &[f64],
        n: usize,
        checks: &[(&DistVector, &DistVector)],
        active: usize,
        partials: &mut Vec<f64>,
    ) -> Result<C::Pending> {
        self.carried_partials(k, carried, n, checks, active, partials);
        self.comm.iallreduce(ReduceOp::Sum, partials)
    }

    /// `partials` ← `carried` followed by the check tail, charged.
    fn carried_partials(
        &mut self,
        k: usize,
        carried: &[f64],
        n: usize,
        checks: &[(&DistVector, &DistVector)],
        active: usize,
        partials: &mut Vec<f64>,
    ) {
        partials.clear();
        partials.extend_from_slice(carried);
        self.append_check_partials(n, active * (carried.len() / k), checks, partials);
    }

    /// Local halves of a batched reduction, uncharged (the reduction that
    /// posts them charges): `out[t·k + c] = blocks[t].0[c] · blocks[t].1[c]`.
    /// All pairs go to the backend in one `dot_blocks` call, so an operand
    /// shared between pairs is read once per column.
    pub fn block_dot_partials<const N: usize>(
        &self,
        k: usize,
        blocks: &[(&DistMultiVector, &DistMultiVector); N],
        out: &mut [f64],
    ) {
        let pairs = blocks.map(|(x, y)| (x.local.as_slice(), y.local.as_slice()));
        self.ops.dot_blocks(k, &pairs, out);
    }

    /// Append the policy check dots to `partials` and account for the whole
    /// reduction, mirroring `fused_pairs`: every reduced pair's arithmetic
    /// is charged (`solver_pairs` counts the solver pairs at the masked
    /// `active` width, checks at full width), and the check tail is
    /// *additionally* attributed to the check ledger.
    fn append_check_partials(
        &mut self,
        mut n: usize,
        solver_pairs: usize,
        checks: &[(&DistVector, &DistVector)],
        partials: &mut Vec<f64>,
    ) {
        let solver_len = partials.len();
        partials.resize(solver_len + checks.len(), 0.0);
        self.dot_partials(checks, &mut partials[solver_len..]);
        if let Some((x, _)) = checks.last() {
            n = x.local_len();
        }
        self.comm
            .charge_flops(2 * n * (solver_pairs + checks.len()));
        self.comm.record_check_flops(2 * n * checks.len());
    }

    /// One pipelined-CG sweep: for every column `c` with `live(c)`, the
    /// recurrence updates of one iteration with that column's
    /// `alphas[c]`/`betas[c]`, in one backend pass. With `v.precond` that
    /// is the eight-vector [`LocalOps::pipelined_pcg_sweep`], whose dot
    /// partials `[r·u, w·u, r·r]` land in `dots[c]`, `dots[k + c]`,
    /// `dots[2k + c]` — the layout [`DistSpace::start_carried_block_dots`]
    /// posts — charged sixteen flops per row. Without it (the identity:
    /// `u = r`, `mw = w`, `q = s`) it is the six-vector
    /// [`LocalOps::pipelined_cg_sweep`], whose `[r·r, w·r]` land in
    /// `dots[c]`, `dots[k + c]`, charged twelve. Columns that are not live
    /// are untouched, vectors and slots alike; the charge is one piece.
    pub fn pipelined_sweep_block(
        &mut self,
        live: impl Fn(usize) -> bool,
        alphas: &[f64],
        betas: &[f64],
        v: PipelinedSweep<'_>,
        dots: &mut [f64],
    ) {
        let k = alphas.len();
        let PipelinedSweep {
            aw,
            mut precond,
            z,
            s,
            p,
            x,
            r,
            w,
        } = v;
        let flops_per_row = if precond.is_some() { 16 } else { 12 };
        let mut swept = 0;
        for c in (0..k).filter(|&c| live(c)) {
            let images = precond
                .as_mut()
                .map(|(mw, q, u)| (mw.col(c), q.col_mut(c), u.col_mut(c)));
            let col = CgSweep {
                z: z.col_mut(c),
                s: s.col_mut(c),
                p: p.col_mut(c),
                x: x.col_mut(c),
                r: r.col_mut(c),
                w: w.col_mut(c),
            };
            let d = sweep_column(self.ops, alphas[c], betas[c], aw.col(c), images, col);
            (dots[c], dots[k + c]) = (d[0], d[1]);
            if flops_per_row == 16 {
                dots[2 * k + c] = d[2];
            }
            swept += 1;
        }
        self.comm
            .charge_flops(flops_per_row * aw.local_rows() * swept);
    }

    /// Single-column `y[c] ← y[c] + alpha·x[c]` (local, not charged — the
    /// kernel charges per active column, like the single-RHS presets).
    pub fn axpy_col(&mut self, alpha: f64, x: &DistMultiVector, y: &mut DistMultiVector, c: usize) {
        self.ops.axpy(alpha, x.col(c), y.col_mut(c));
    }

    /// Single-column `y[c] ← x[c] + beta·y[c]` (local, not charged).
    pub fn xpby_col(&mut self, x: &DistMultiVector, beta: f64, y: &mut DistMultiVector, c: usize) {
        self.ops.xpby(x.col(c), beta, y.col_mut(c));
    }
}

impl<'a, 'b, C: CommBackend> KrylovSpace for DistSpace<'a, 'b, C> {
    type Vector = DistVector;
    type Pending = C::Pending;

    fn ops(&self) -> &'static dyn LocalOps {
        self.ops
    }

    fn local(v: &Self::Vector) -> &[f64] {
        &v.local
    }

    fn local_mut(v: &mut Self::Vector) -> &mut [f64] {
        &mut v.local
    }

    fn apply(&mut self, x: &Self::Vector) -> Result<Self::Vector> {
        let mut y = self.a.apply_with(self.comm, x, self.ops, &mut self.halo)?;
        self.strike_product(&mut y.local);
        Ok(y)
    }

    fn apply_into(&mut self, x: &Self::Vector, y: &mut Self::Vector) -> Result<()> {
        self.a
            .apply_into(self.comm, x, self.ops, &mut self.halo, y)?;
        self.strike_product(&mut y.local);
        Ok(())
    }

    fn flops_per_apply(&self) -> usize {
        self.a.flops_per_apply()
    }

    fn operator_norm_estimate(&self) -> f64 {
        self.operator_norm
    }

    fn dot(&mut self, x: &Self::Vector, y: &Self::Vector) -> Result<f64> {
        // Same charge-then-reduce shape as `DistVector::dot`, with the
        // local partial product under the selected backend.
        self.comm.charge_flops(2 * x.local_len());
        self.comm.global_dot(self.ops.dot(&x.local, &y.local))
    }

    fn norm(&mut self, x: &Self::Vector) -> Result<f64> {
        Ok(sqrt_nonneg(self.dot(x, x)?))
    }

    fn start_dots(&mut self, pairs: &[(&Self::Vector, &Self::Vector)]) -> Result<Self::Pending> {
        let slices: Vec<(&[f64], &[f64])> = pairs
            .iter()
            .map(|(x, y)| (x.local.as_slice(), y.local.as_slice()))
            .collect();
        // lint:allow(hot-loop-alloc): O(#pairs) partials buffer handed to the
        // iallreduce — not an O(n) vector buffer (those live in scratch).
        let mut local = vec![0.0; slices.len()];
        self.ops.dot_pairs(&slices, &mut local);
        if let Some((x, _)) = pairs.first() {
            self.comm.charge_flops(2 * x.local_len() * pairs.len());
        }
        self.comm.iallreduce(ReduceOp::Sum, &local)
    }

    fn finish_dots(&mut self, pending: Self::Pending) -> Result<Vec<f64>> {
        self.comm.wait_vector(pending)
    }

    fn fused_pairs(
        &mut self,
        pairs: &[(&Self::Vector, &Self::Vector)],
        check_tail: usize,
    ) -> Result<Vec<f64>> {
        debug_assert!(check_tail <= pairs.len());
        let slices: Vec<(&[f64], &[f64])> = pairs
            .iter()
            .map(|(x, y)| (x.local.as_slice(), y.local.as_slice()))
            .collect();
        // lint:allow(hot-loop-alloc): O(#pairs) partials buffer handed to the
        // allreduce — not an O(n) vector buffer (those live in scratch).
        let mut local = vec![0.0; slices.len()];
        self.ops.dot_pairs(&slices, &mut local);
        if let Some((x, _)) = pairs.first() {
            let n = x.local_len();
            self.comm.charge_flops(2 * n * pairs.len());
            self.comm.record_check_flops(2 * n * check_tail);
        }
        self.comm.allreduce(ReduceOp::Sum, &local)
    }

    fn residual(&self, b: &Self::Vector, ax: &Self::Vector) -> Self::Vector {
        let mut r = b.clone();
        self.ops.axpy(-1.0, &ax.local, &mut r.local);
        r
    }

    fn zeros_like(&self, v: &Self::Vector) -> Self::Vector {
        let mut z = v.clone();
        z.local.iter_mut().for_each(|x| *x = 0.0);
        z
    }

    fn persist_vector(&mut self, key: &str, v: &Self::Vector) -> Result<usize> {
        let bytes = v.local_len() * std::mem::size_of::<f64>();
        // `Comm::persist` charges the write at the configured checkpoint
        // bandwidth; the store traffic (one pass over the local part) is
        // additionally *attributed* to the check ledger, like every other
        // resilience overhead, without advancing time a second time.
        self.comm.persist(key, Stored::F64(v.local.clone()))?;
        self.comm.record_check_flops(v.local_len());
        Ok(bytes)
    }

    fn persist_scalar(&mut self, key: &str, value: f64) -> Result<()> {
        self.comm.persist(key, Stored::Scalar(value))
    }

    fn unpersist(&mut self, key: &str) {
        self.comm.unpersist(key);
    }

    fn charge_flops(&mut self, flops: usize) {
        self.comm.charge_flops(flops);
    }

    fn record_check_flops(&mut self, flops: usize) {
        self.comm.record_check_flops(flops);
    }

    fn advance_extra_work(&mut self) -> Result<()> {
        if self.extra_work_per_iter > 0.0 {
            self.comm.advance(self.extra_work_per_iter);
        }
        Ok(())
    }
}
