//! Process-failure recovery for distributed Krylov solves (LFLR × kernel).
//!
//! The step-loop driver in [`crate::lflr`] reproduces the paper's
//! local-failure-local-recovery model for *time-stepping* applications; this
//! module closes the same pillar for the unified Krylov kernel: a rank can
//! die in the middle of a distributed preconditioned solve and the job
//! resumes **mid-solve** from persisted per-rank state instead of restarting
//! from iteration zero.
//!
//! The protocol, mirroring [`run_lflr`](crate::lflr::run_lflr):
//!
//! 1. **Persist.** An [`IterateRollbackPolicy`] with
//!    [`with_persistence`](IterateRollbackPolicy::with_persistence) rides in
//!    the solve's policy stack and writes the minimal per-rank Krylov state
//!    — the committed iterate plus the global step counter — through
//!    [`Comm::persist`] on a configurable iteration cadence, pruning old
//!    snapshots to a skew-safe window. Everything else is rebuilt, not
//!    restored: the CG recurrence vectors from one operator application
//!    (`r = b − A·x`, the same rebuild hook policy restarts use), the GMRES
//!    cycle from the restart iterate, and the [`BlockJacobi`]
//!    preconditioner locally from [`DistCsr::local_diagonal_block`] — zero
//!    extra collectives, and a band factorization (`≈ 2·n·kl·(kl+ku)`
//!    FLOPs; `2n³⁄3` only for a block with no band) that is cheap next to
//!    the iterations a resume saves.
//! 2. **Detect.** When a rank dies, the survivors' next collective returns a
//!    failure error that unwinds out of `run_cg`/`run_gmres`; under the
//!    `ReplaceRank` policy the launcher spawns a replacement incarnation.
//! 3. **Agree.** Every world rank joins the recovery rendezvous proposing
//!    the newest step it holds a snapshot for — the replacement proposes
//!    what it can recover from the dead incarnation's *inherited* partition
//!    (the kernel-level analogue of
//!    [`LflrApp::last_recoverable`](crate::lflr::LflrApp::last_recoverable))
//!    — and the minimum wins, so the agreed step is never newer than what
//!    the dead rank actually persisted.
//! 4. **Resume.** Each rank restores its local part of the agreed snapshot
//!    as the warm start of a re-entered solve: survivors roll back in
//!    lockstep, the replacement adopts its predecessor's state, and the
//!    solve continues with `max_iters` reduced by the steps already in the
//!    bank.
//!
//! [`Comm::persist`]: resilient_runtime::Comm::persist
//!
//! [`lflr_solve`] runs any block-Jacobi preconditioned [`SolveSpec`] under
//! this protocol (the named presets [`lflr_dist_pcg`],
//! [`lflr_pipelined_pcg`], [`lflr_dist_pgmres`], [`lflr_pipelined_pgmres`]
//! are its four values) and opens the failure × latency × preconditioning
//! scenario grid measured by `exp_krylov_lflr`, which compares mid-solve
//! resume against the restart-from-zero baseline
//! ([`KrylovLflrConfig::restart_from_zero`]).

use resilient_linalg::CsrMatrix;
use resilient_runtime::{CommBackend, ReduceOp, Result};

use super::policy::{
    snapshot_key, IterateRollbackPolicy, PolicyOverhead, PolicyStack, SNAPSHOT_META_KEY,
};
use super::precond::BlockJacobi;
use super::spec::{solve, SolveSpec};
use crate::distributed::{DistCsr, DistVector};
use crate::rbsp::{DistSolveOptions, DistSolveOutcome};

/// Configuration of a process-failure-recovering Krylov solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KrylovLflrConfig {
    /// Snapshot cadence in kernel iterations (the persist interval of the
    /// rollback policy).
    pub persist_every: usize,
    /// Snapshots retained per rank before the oldest is pruned with
    /// [`Comm::unpersist`](resilient_runtime::Comm::unpersist). Three is the
    /// proven floor (one point of collective-bounded iteration skew plus one
    /// point of die-before-persist lag — see
    /// [`IterateRollbackPolicy::with_persistence`]); the default keeps one
    /// extra point of slack.
    pub keep_last: usize,
    /// Recovery rendezvous this rank will join before giving up and
    /// returning the failure error (a backstop against pathological failure
    /// schedules; the runtime's `max_failures` usually binds first).
    pub max_recoveries: usize,
    /// `true` (default): resume from the agreed persisted snapshot.
    /// `false`: the restart-from-zero baseline — no snapshots are written
    /// (no checkpoint-bandwidth cost) and every recovery restarts the solve
    /// from iteration 0, which is what `exp_krylov_lflr` compares against.
    pub resume: bool,
}

impl Default for KrylovLflrConfig {
    fn default() -> Self {
        Self {
            persist_every: 10,
            keep_last: 4,
            max_recoveries: 8,
            resume: true,
        }
    }
}

impl KrylovLflrConfig {
    /// Builder-style persist cadence.
    pub fn with_persist_every(mut self, every: usize) -> Self {
        self.persist_every = every.max(1);
        self
    }

    /// Builder-style pruning window.
    pub fn with_keep_last(mut self, keep_last: usize) -> Self {
        self.keep_last = keep_last.max(1);
        self
    }

    /// The restart-from-zero baseline configuration (no persistence; every
    /// recovery starts over).
    pub fn restart_from_zero(mut self) -> Self {
        self.resume = false;
        self
    }
}

/// What happened during one process-failure-recovering solve (per rank).
#[derive(Debug, Clone, Default)]
pub struct KrylovLflrReport {
    /// Recovery rendezvous this rank participated in.
    pub recoveries: usize,
    /// Agreed resume step of the most recent recovery (0 when no recovery
    /// happened, or when resuming from scratch).
    pub resumed_from: usize,
    /// Global iterations to convergence: the resume step already in the bank
    /// plus the final attempt's kernel iterations.
    pub iterations: usize,
    /// Snapshots written to the persistent store, across all attempts.
    pub snapshots_persisted: usize,
    /// Recoveries in which this rank's snapshot at the agreed step was
    /// missing and the local part fell back to zeros (still a valid warm
    /// start — any iterate is an initial guess — but costs iterations;
    /// a correctly sized pruning window keeps this at 0).
    pub fallback_restores: usize,
    /// Per-policy overhead of the final attempt, in stack order.
    pub policy: Vec<PolicyOverhead>,
}

/// The newest step this rank holds a restorable snapshot for in its
/// (possibly inherited) persistent partition — what it proposes at the
/// recovery rendezvous.
fn newest_snapshot_step<C: CommBackend>(comm: &mut C) -> Option<usize> {
    let me = comm.rank();
    if !comm.persisted(me, SNAPSHOT_META_KEY) {
        return None;
    }
    let step = comm
        .restore(me, SNAPSHOT_META_KEY)
        .ok()?
        .into_scalar()
        .ok()? as usize;
    // The meta key always points at the newest snapshot, which pruning
    // never removes; verify anyway so a proposal is always honourable.
    comm.persisted(me, &snapshot_key(step)).then_some(step)
}

/// Restore this rank's local part of the snapshot at `step`, shaped like
/// `like`; `None` when absent or from a different distribution.
fn restore_local_snapshot<C: CommBackend>(
    comm: &mut C,
    step: usize,
    like: &DistVector,
) -> Result<Option<DistVector>> {
    let me = comm.rank();
    let key = snapshot_key(step);
    if !comm.persisted(me, &key) {
        return Ok(None);
    }
    let local = comm.restore(me, &key)?.into_f64()?;
    if local.len() != like.local_len() {
        return Ok(None);
    }
    let mut x = like.clone();
    x.local = local;
    Ok(Some(x))
}

/// Join the post-failure rendezvous, proposing this rank's newest snapshot
/// (or 0 — "I can only start over" — in restart-from-zero mode or with an
/// empty store), and return the agreed resume step.
///
/// The rendezvous itself can be interrupted by a *further* failure — a
/// rank dying while the agreement for the previous death is still in
/// flight (the fault campaign's rendezvous-death family). The interrupted
/// survivors and the replacement must then simply rendezvous again for
/// the newer failure generation; letting the error escape instead makes
/// this rank abandon the job while its peers block in a collective that
/// can never complete — a deadlock, the one outcome the protocol exists
/// to prevent. Retries are bounded by the same `max_recoveries` give-up
/// knob as completed recoveries.
fn rejoin<C: CommBackend>(
    comm: &mut C,
    cfg: &KrylovLflrConfig,
    report: &mut KrylovLflrReport,
) -> Result<usize> {
    let mut interrupted = 0usize;
    loop {
        let proposal = if cfg.resume {
            newest_snapshot_step(comm).unwrap_or(0)
        } else {
            0
        };
        let info = match comm.recovery_rendezvous(proposal as f64) {
            Ok(info) => info,
            Err(e) if e.is_failure() && report.recoveries + interrupted < cfg.max_recoveries => {
                interrupted += 1;
                continue;
            }
            Err(e) => return Err(e),
        };
        report.recoveries += 1;
        let agreed = if info.agreed.is_finite() {
            info.agreed.max(0.0) as usize
        } else {
            0
        };
        report.resumed_from = agreed;
        return Ok(agreed);
    }
}

/// One solve attempt in the current communication epoch: (re)build the
/// distributed operator, the local block-Jacobi factorization and the
/// persisting rollback policy, warm-start from the agreed snapshot, and run
/// the kernel.
#[allow(clippy::too_many_arguments)]
fn attempt<C: CommBackend>(
    comm: &mut C,
    a_global: &CsrMatrix,
    b_global: &[f64],
    opts: &DistSolveOptions,
    cfg: &KrylovLflrConfig,
    spec: SolveSpec,
    resume: Option<usize>,
    report: &mut KrylovLflrReport,
) -> Result<DistSolveOutcome> {
    let da = DistCsr::from_global(comm, a_global)?;
    let b = DistVector::from_global(comm, b_global);
    // The preconditioner is *rebuilt*, never restored: each rank re-factors
    // its own diagonal block locally — zero extra collectives.
    let mut bj = BlockJacobi::new(&da);

    let resume_step = if cfg.resume { resume.unwrap_or(0) } else { 0 };
    let x0 = if cfg.resume && resume.is_some() {
        match restore_local_snapshot(comm, resume_step, &b)? {
            Some(x) => Some(x),
            None => {
                report.fallback_restores += 1;
                None
            }
        }
    } else {
        None
    };

    let mut rollback: IterateRollbackPolicy<DistVector> = IterateRollbackPolicy::new(1);
    if cfg.resume {
        rollback = rollback.with_persistence(cfg.persist_every, cfg.keep_last);
        if resume.is_some() {
            rollback = rollback.resuming_from(resume_step);
        }
    }

    // Steps already in the bank shrink the remaining iteration budget so a
    // resumed solve honours the caller's original cap.
    let sopts = opts
        .solve_options()
        .with_max_iters(opts.max_iters.saturating_sub(resume_step).max(1));
    let mut space = opts.space(comm, &da);
    let mut policies = PolicyStack::new(vec![&mut rollback]);
    let result = solve(
        &mut space,
        &b,
        x0,
        &sopts,
        spec,
        Some(&mut bj),
        &mut policies,
    );
    drop(policies);
    // Count snapshots even when the attempt died mid-solve: the store
    // traffic happened either way.
    report.snapshots_persisted += rollback.snapshots_persisted();
    let (outcome, kernel_report) = result?;
    report.policy = kernel_report.policy_overhead;
    report.iterations = resume_step + outcome.iterations;
    Ok(outcome.into_dist_outcome(opts.tol))
}

/// Drive the block-Jacobi preconditioned composition `spec` to completion
/// under the LFLR protocol: per-rank snapshots through `Comm::persist`,
/// agreed rollback, replacement-rank resume. Call from inside an SPMD
/// closure launched with the
/// [`ReplaceRank`](resilient_runtime::FailurePolicy::ReplaceRank) policy.
pub fn lflr_solve<C: CommBackend>(
    comm: &mut C,
    a_global: &CsrMatrix,
    b_global: &[f64],
    spec: SolveSpec,
    opts: &DistSolveOptions,
    cfg: &KrylovLflrConfig,
) -> Result<(DistSolveOutcome, KrylovLflrReport)> {
    let mut report = KrylovLflrReport::default();
    let mut resume: Option<usize> = None;

    // A freshly spawned replacement has no solve state at all: before any
    // collective it joins the rendezvous its peers are waiting in, proposing
    // the newest step recoverable from the inherited partition. (The
    // recoveries guard keeps a replacement that already recovered — e.g. a
    // second solve on the same communicator — from posting a rendezvous
    // nobody else will join.)
    if comm.is_replacement() && comm.recoveries() == 0 {
        resume = Some(rejoin(comm, cfg, &mut report)?);
    }

    let mut outcome: Option<DistSolveOutcome> = None;
    loop {
        if outcome.is_none() {
            match attempt(
                comm,
                a_global,
                b_global,
                opts,
                cfg,
                spec,
                resume,
                &mut report,
            ) {
                Ok(o) => outcome = Some(o),
                Err(e) if e.is_failure() && report.recoveries < cfg.max_recoveries => {
                    resume = Some(rejoin(comm, cfg, &mut report)?);
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        // Completion agreement (the run_lflr pattern): a failure arriving
        // after this rank converged — a replacement spawning late — still
        // finds every rank willing to re-enter recovery and re-run the tail
        // of the solve together with it.
        match comm.allreduce_scalar(ReduceOp::Min, 1.0) {
            Ok(_) => break,
            Err(e) if e.is_failure() && report.recoveries < cfg.max_recoveries => {
                resume = Some(rejoin(comm, cfg, &mut report)?);
                outcome = None;
            }
            Err(e) => return Err(e),
        }
    }

    // Retire the resume metadata so a later solve on this communicator
    // starts fresh; the (at most `keep_last`) snapshots themselves bound the
    // store footprint and are overwritten by the next persisting solve.
    comm.unpersist(SNAPSHOT_META_KEY);
    Ok((outcome.expect("loop only exits with an outcome"), report))
}

/// Block-Jacobi preconditioned bulk-synchronous CG
/// ([`rbsp::dist_pcg`](crate::rbsp::cg::dist_pcg)) that survives process
/// failure mid-solve: per-rank snapshots through `Comm::persist`, agreed
/// rollback, replacement-rank resume.
pub fn lflr_dist_pcg<C: CommBackend>(
    comm: &mut C,
    a_global: &CsrMatrix,
    b_global: &[f64],
    opts: &DistSolveOptions,
    cfg: &KrylovLflrConfig,
) -> Result<(DistSolveOutcome, KrylovLflrReport)> {
    lflr_solve(comm, a_global, b_global, SolveSpec::FUSED_CG, opts, cfg)
}

/// Block-Jacobi preconditioned pipelined CG
/// ([`rbsp::pipelined_pcg`](crate::rbsp::cg::pipelined_pcg)) under the
/// process-failure recovery protocol — latency hiding, preconditioning and
/// mid-solve failure survival composed.
pub fn lflr_pipelined_pcg<C: CommBackend>(
    comm: &mut C,
    a_global: &CsrMatrix,
    b_global: &[f64],
    opts: &DistSolveOptions,
    cfg: &KrylovLflrConfig,
) -> Result<(DistSolveOutcome, KrylovLflrReport)> {
    lflr_solve(comm, a_global, b_global, SolveSpec::PIPELINED_CG, opts, cfg)
}

/// Right-preconditioned bulk-synchronous GMRES
/// ([`rbsp::dist_pgmres`](crate::rbsp::gmres::dist_pgmres)) under the
/// process-failure recovery protocol: the restart iterate is the persisted
/// unit of progress, so a resumed solve re-enters at the last snapshotted
/// cycle boundary.
pub fn lflr_dist_pgmres<C: CommBackend>(
    comm: &mut C,
    a_global: &CsrMatrix,
    b_global: &[f64],
    opts: &DistSolveOptions,
    cfg: &KrylovLflrConfig,
) -> Result<(DistSolveOutcome, KrylovLflrReport)> {
    lflr_solve(comm, a_global, b_global, SolveSpec::FUSED_GMRES, opts, cfg)
}

/// Right-preconditioned p(1)-pipelined GMRES
/// ([`rbsp::pipelined_pgmres`](crate::rbsp::gmres::pipelined_pgmres)) under
/// the process-failure recovery protocol.
pub fn lflr_pipelined_pgmres<C: CommBackend>(
    comm: &mut C,
    a_global: &CsrMatrix,
    b_global: &[f64],
    opts: &DistSolveOptions,
    cfg: &KrylovLflrConfig,
) -> Result<(DistSolveOutcome, KrylovLflrReport)> {
    lflr_solve(
        comm,
        a_global,
        b_global,
        SolveSpec::PIPELINED_GMRES,
        opts,
        cfg,
    )
}
