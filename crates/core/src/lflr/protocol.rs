//! The LFLR protocol, written once: the recovery-epoch driver and the
//! snapshot ring under both [`run_lflr`](super::run_lflr) (time-stepping
//! applications) and [`lflr_solve`](crate::kernel::lflr::lflr_solve)
//! (distributed Krylov solves).
//!
//! *Detect → every rank joins the rendezvous proposing its newest snapshot →
//! the minimum wins → restore → resume → agree on completion.* The driver
//! owns every step of that sentence that involves another rank; a client
//! supplies what only it can know — which step it could resume from
//! (`proposal`) and how to run from a resume point to the end (`attempt`).

use resilient_runtime::{CommBackend, ReduceOp, Result};

/// Recovery rendezvous — completed or interrupted — one rank joins in one
/// [`recovery_epochs`] call before it gives up and returns the failure error
/// (a backstop against pathological failure schedules; the runtime's
/// `max_failures` usually binds first).
const MAX_RECOVERIES: usize = 8;

/// What the recovery protocol did on this rank during one
/// [`recovery_epochs`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Epochs {
    /// Recovery rendezvous completed.
    pub recoveries: usize,
    /// Agreed resume step of the most recent one (`None`: no recovery).
    pub resumed_from: Option<usize>,
}

/// Drive `attempt` to completion under the LFLR protocol. Call from inside
/// an SPMD closure launched with the
/// [`ReplaceRank`](resilient_runtime::FailurePolicy::ReplaceRank) policy.
///
/// `attempt(comm, resume)` runs the client's work in the current
/// communication epoch: from the start when `resume` is `None`, otherwise
/// from the state it restores for the agreed step. Whenever it — or the
/// completion agreement after it — returns a failure error
/// ([`RuntimeError::is_failure`](resilient_runtime::RuntimeError::is_failure):
/// a peer died), every rank meets in the recovery rendezvous proposing
/// `proposal(comm)` — the newest step it could resume from, `None` for
/// "anything the others can" — the minimum wins, and `attempt` runs again
/// from there. That includes failures inside recovery itself (a restore or
/// a re-executed step interrupted by the next death). Any other error, or
/// a failure past `MAX_RECOVERIES`, is returned.
///
/// The rendezvous itself can be interrupted by a *further* failure — a
/// rank dying while the agreement for the previous death is still in
/// flight (the fault campaign's rendezvous-death family). The interrupted
/// survivors and the replacement must then simply rendezvous again for
/// the newer failure generation; letting the error escape instead makes
/// this rank abandon the job while its peers block in a collective that
/// can never complete — a deadlock, the one outcome the protocol exists
/// to prevent. Retries are bounded by the same `MAX_RECOVERIES`.
pub fn recovery_epochs<C: CommBackend, T>(
    comm: &mut C,
    mut proposal: impl FnMut(&mut C) -> Option<usize>,
    mut attempt: impl FnMut(&mut C, Option<usize>) -> Result<T>,
) -> Result<(T, Epochs)> {
    let mut epochs = Epochs::default();
    // A freshly spawned replacement has no state at all: before any
    // collective it joins the rendezvous its peers are waiting in. (The
    // recoveries guard keeps a replacement that already recovered — a
    // second run on the same communicator — from posting a rendezvous
    // nobody else will join.)
    let mut failed = comm.is_replacement() && comm.recoveries() == 0;
    let mut interrupted = 0usize;
    loop {
        if failed {
            let proposed = proposal(comm).map_or(f64::INFINITY, |step| step as f64);
            match comm.recovery_rendezvous(proposed) {
                Ok(info) => {
                    // An infinite minimum: every proposal was "anything",
                    // nobody holds a snapshot — start over.
                    let agreed = info.agreed;
                    epochs.resumed_from = Some(if agreed.is_finite() {
                        agreed as usize
                    } else {
                        0
                    });
                    epochs.recoveries += 1;
                    interrupted = 0;
                }
                Err(e) if e.is_failure() && epochs.recoveries + interrupted < MAX_RECOVERIES => {
                    interrupted += 1;
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        // Completion agreement: every rank (late replacements included)
        // leaves together, so a failure arriving after this rank finished
        // still finds it willing to re-enter recovery and re-run the tail.
        let done = attempt(comm, epochs.resumed_from)
            .and_then(|done| comm.allreduce_scalar(ReduceOp::Min, 1.0).map(|_| done));
        match done {
            Ok(done) => return Ok((done, epochs)),
            Err(e) if e.is_failure() && epochs.recoveries < MAX_RECOVERIES => failed = true,
            Err(e) => return Err(e),
        }
    }
}

/// Bookkeeping of a step-keyed snapshot history in a rank's persistent
/// partition: the key format (`{prefix}@{step}`), the meta key naming the
/// newest step, the cadence test and keep-last pruning. The ring decides
/// *what* to write and drop; the holder does the writing, in the order
/// vector → meta → prune, through whatever store interface it has
/// (`Comm::persist`, `KrylovSpace::persist_vector`).
///
/// `keep_last` must cover the worst-case distance, in snapshots, between
/// the agreed (minimum) rollback step and a survivor's newest snapshot —
/// each holder derives its own bound where it builds its ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotRing {
    prefix: &'static str,
    meta_key: &'static str,
    every: usize,
    keep_last: usize,
    /// Steps currently retained, oldest first.
    retained: Vec<usize>,
}

impl SnapshotRing {
    /// A ring of `{prefix}@{step}` keys with the newest step under
    /// `meta_key`, one snapshot at most every `every` steps, the newest
    /// `keep_last` retained.
    pub fn new(
        prefix: &'static str,
        meta_key: &'static str,
        every: usize,
        keep_last: usize,
    ) -> Self {
        Self {
            prefix,
            meta_key,
            every: every.max(1),
            keep_last: keep_last.max(1),
            retained: Vec::new(),
        }
    }

    /// The ring of a run resumed at `step`: that snapshot is the newest one
    /// held and the cadence counts from it.
    pub fn resuming_from(mut self, step: usize) -> Self {
        self.retained = vec![step];
        self
    }

    /// Persistent-store key of the snapshot taken at `step`.
    pub fn key(&self, step: usize) -> String {
        format!("{}@{step}", self.prefix)
    }

    /// Key under which the step of the newest snapshot is recorded.
    pub fn meta_key(&self) -> &'static str {
        self.meta_key
    }

    /// Newest step recorded (or resumed from), if any.
    fn newest(&self) -> Option<usize> {
        self.retained.last().copied()
    }

    /// Is a snapshot of `step` due? `refresh` also re-writes the newest
    /// snapshot itself (the resume-point rewrite that keeps the store
    /// consistent with the restored state).
    pub fn due(&self, step: usize, refresh: bool) -> bool {
        match self.newest() {
            None => true,
            Some(last) => (refresh && step == last) || step >= last + self.every,
        }
    }

    /// Record that `step` was written; returns the step that thereby fell
    /// out of the window, whose key the holder removes. A write off the
    /// cadence — a refresh, or a final state the driver persists whatever
    /// the interval — joins the store without turning the ring: the window
    /// is derived for cadence points only.
    pub fn record(&mut self, step: usize) -> Option<usize> {
        if !self.due(step, false) {
            return None;
        }
        self.retained.push(step);
        (self.retained.len() > self.keep_last).then(|| self.retained.remove(0))
    }

    /// The newest step this rank's (possibly inherited) partition holds a
    /// restorable snapshot for — what it proposes at the rendezvous.
    pub fn newest_stored<C: CommBackend>(&self, comm: &mut C) -> Option<usize> {
        let me = comm.rank();
        if !comm.persisted(me, self.meta_key) {
            return None;
        }
        let step = comm.restore(me, self.meta_key).ok()?.into_scalar().ok()? as usize;
        // The meta key always points at the newest snapshot, which pruning
        // never removes; verify anyway so a proposal is always honourable.
        self.stored(comm, step).then_some(step)
    }

    /// Does this rank's partition hold the snapshot of `step`?
    pub fn stored<C: CommBackend>(&self, comm: &C, step: usize) -> bool {
        comm.persisted(comm.rank(), &self.key(step))
    }

    /// Read this rank's snapshot of `step` back.
    pub fn restore<C: CommBackend>(&self, comm: &mut C, step: usize) -> Result<Vec<f64>> {
        let me = comm.rank();
        comm.restore(me, &self.key(step))?.into_f64()
    }
}
