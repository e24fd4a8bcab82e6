//! Process-failure recovery for distributed Krylov solves (LFLR × kernel).
//!
//! The step-loop driver in [`crate::lflr`] reproduces the paper's
//! local-failure-local-recovery model for *time-stepping* applications; this
//! module closes the same pillar for the unified Krylov kernel: a rank can
//! die in the middle of a distributed preconditioned solve and the job
//! resumes **mid-solve** from persisted per-rank state instead of restarting
//! from iteration zero.
//!
//! The protocol is not written here: this module uses the one under
//! [`run_lflr`](crate::lflr::run_lflr) — [`recovery_epochs`] owns detection,
//! the rendezvous and its retry, the replacement's entry and the completion
//! agreement, and the snapshot history is a
//! [`SnapshotRing`](crate::lflr::SnapshotRing). What this client supplies:
//!
//! * **Snapshots.** An [`IterateRollbackPolicy`] with
//!   [`with_persistence`](IterateRollbackPolicy::with_persistence) rides in
//!   the solve's policy stack and writes the minimal per-rank Krylov state
//!   — the committed iterate plus the global step counter — through
//!   [`Comm::persist`] on a configurable iteration cadence, pruning old
//!   snapshots to a skew-safe window. Everything else is rebuilt, not
//!   restored: the CG recurrence vectors from one operator application
//!   (`r = b − A·x`, the same rebuild hook policy restarts use), the GMRES
//!   cycle from the restart iterate, and the [`BlockJacobi`]
//!   preconditioner locally from the rank's owned rows of the [`DistCsr`]
//!   (ghost columns dropped) — zero extra collectives, and a band
//!   factorization (charged `≈ 2·n·kl·(kl+ku)` FLOPs, `2n³⁄3` only for a
//!   block with no band; executing `≈ 2·n·kl·ku` when no row swaps, as
//!   each row is updated only to its reach) that is cheap next to the
//!   iterations a resume saves. Its working memory is a window of the
//!   `kl + 1` rows one elimination step touches (113 KB on a 2312-row
//!   block with `kl = ku = 68`, `n²` only for a block with no band), plus
//!   the factors it keeps. A replacement rank's factorization is on the
//!   critical path of its recovery, so that executed work and that memory
//!   are what the wall clock and the peak RSS see.
//! * **Proposal.** The newest step that ring holds in this rank's partition
//!   — for a replacement, the dead incarnation's *inherited* one (the
//!   kernel-level analogue of
//!   [`LflrApp::last_recoverable`](crate::lflr::LflrApp::last_recoverable)),
//!   so the agreed minimum is never newer than what the dead rank actually
//!   persisted.
//! * **Attempt.** Each rank restores its local part of the agreed snapshot
//!   as the warm start of a re-entered solve: survivors roll back in
//!   lockstep, the replacement adopts its predecessor's state, and the
//!   solve continues with `max_iters` reduced by the steps already in the
//!   bank.
//!
//! [`Comm::persist`]: resilient_runtime::Comm::persist
//!
//! [`lflr_solve`] runs any block-Jacobi preconditioned [`SolveSpec`] under
//! this protocol — the caller names the composition, e.g.
//! [`SolveSpec::PIPELINED_GMRES`] — and opens the failure × latency ×
//! preconditioning scenario grid measured by `exp_krylov_lflr`, which
//! compares mid-solve resume against the restart-from-zero baseline
//! ([`KrylovLflrConfig::restart_from_zero`]).

use resilient_linalg::CsrMatrix;
use resilient_runtime::{CommBackend, Result};

use super::policy::{snapshot_ring, IterateRollbackPolicy, PolicyOverhead, PolicyStack};
use super::precond::BlockJacobi;
use super::spec::{solve, SolveOptions, SolveSpec};
use super::KernelOutcome;
use crate::distributed::{DistCsr, DistVector};
use crate::lflr::recovery_epochs;

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
    /// `IterateRollbackPolicy::with_persistence`); the default keeps one
    /// extra point of slack.
    pub keep_last: usize,
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
    /// Counts the part of a dead epoch this rank ran before it noticed the
    /// death, which follows real thread timing.
    pub snapshots_persisted: usize,
    /// Snapshots written by the attempt that completed the solve: with the
    /// agreed resume step, a count that does not depend on thread timing.
    pub final_attempt_snapshots: usize,
    /// Recoveries in which this rank's snapshot at the agreed step was
    /// missing and the local part fell back to zeros (still a valid warm
    /// start — any iterate is an initial guess — but costs iterations;
    /// a correctly sized pruning window keeps this at 0).
    pub fallback_restores: usize,
    /// Per-policy overhead of the final attempt, in stack order.
    pub policy: Vec<PolicyOverhead>,
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
    opts: &SolveOptions,
    cfg: &KrylovLflrConfig,
) -> Result<(KernelOutcome<DistVector>, KrylovLflrReport)> {
    let mut report = KrylovLflrReport::default();
    let ring = snapshot_ring(cfg.persist_every, cfg.keep_last);
    // This rank's newest snapshot, or 0 — "I can only start over" — in
    // restart-from-zero mode or with an empty store.
    let proposal = |comm: &mut C| {
        let newest = if cfg.resume {
            ring.newest_stored(comm)
        } else {
            None
        };
        Some(newest.unwrap_or(0))
    };
    // One solve attempt in the current communication epoch: (re)build the
    // distributed operator, the local block-Jacobi factorization and the
    // persisting rollback policy, warm-start from the agreed snapshot, and
    // run the kernel.
    let attempt = |comm: &mut C, resume: Option<usize>| {
        let da = DistCsr::from_global(comm, a_global)?;
        let b = DistVector::from_global(comm, b_global);
        // The preconditioner is *rebuilt*, never restored: each rank
        // re-factors its own diagonal block locally — zero extra collectives.
        let mut bj = BlockJacobi::new(&da);

        let mut rollback: IterateRollbackPolicy<DistVector> = IterateRollbackPolicy::new(1);
        let mut x0 = None;
        let resume = resume.filter(|_| cfg.resume);
        if cfg.resume {
            rollback = rollback.with_persistence(cfg.persist_every, cfg.keep_last);
        }
        if let Some(step) = resume {
            rollback = rollback.resuming_from(step);
            // A snapshot that is absent, or from a different distribution,
            // degrades to a zero local part.
            if ring.stored(comm, step) {
                let mut x = b.clone();
                x.local = ring.restore(comm, step)?;
                x0 = (x.local.len() == b.local_len()).then_some(x);
            }
            report.fallback_restores += usize::from(x0.is_none());
        }
        let resume_step = resume.unwrap_or(0);

        // Steps already in the bank shrink the remaining iteration budget so
        // a resumed solve honours the caller's original cap.
        let sopts = opts.with_max_iters(opts.max_iters.saturating_sub(resume_step).max(1));
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
        report.final_attempt_snapshots = rollback.snapshots_persisted();
        let (outcome, kernel_report) = result?;
        report.policy = kernel_report.policy_overhead;
        report.iterations = resume_step + outcome.iterations;
        Ok(outcome)
    };
    let (outcome, epochs) = recovery_epochs(comm, proposal, attempt)?;
    report.recoveries = epochs.recoveries;
    report.resumed_from = epochs.resumed_from.unwrap_or(0);

    // Retire the resume metadata so a later solve on this communicator
    // starts fresh; the (at most `keep_last`) snapshots themselves bound the
    // store footprint and are overwritten by the next persisting solve.
    comm.unpersist(ring.meta_key());
    Ok((outcome, report))
}

/// Block-Jacobi preconditioned pipelined CG under the process-failure
/// recovery protocol: [`lflr_solve`] with [`SolveSpec::PIPELINED_CG`]. Kept
/// for the frozen `perf_ledger`.
pub fn lflr_pipelined_pcg<C: CommBackend>(
    comm: &mut C,
    a_global: &CsrMatrix,
    b_global: &[f64],
    opts: &SolveOptions,
    cfg: &KrylovLflrConfig,
) -> Result<(KernelOutcome<DistVector>, KrylovLflrReport)> {
    lflr_solve(comm, a_global, b_global, SolveSpec::PIPELINED_CG, opts, cfg)
}
