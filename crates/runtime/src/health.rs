//! The shared health board: which ranks are alive, failure generations and
//! communication epochs.
//!
//! This is the runtime's analogue of the failure-detection service that ULFM
//! layers over MPI. Every communication operation consults it; failure
//! injection updates it; the recovery rendezvous advances the epoch stored
//! here.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::config::FailurePolicy;
use crate::error::{Result, RuntimeError};

/// A recorded process-failure event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureEvent {
    /// Rank that failed.
    pub rank: usize,
    /// Incarnation of the rank that failed (0 = original process).
    pub incarnation: u64,
    /// Time on the failed rank's clock at which the failure occurred.
    pub time: f64,
    /// Failure generation assigned to this event (1-based).
    pub generation: u64,
}

#[derive(Debug)]
struct HealthState {
    incarnation: Vec<u64>,
    /// Current communication epoch; bumped by recovery rendezvous / shrink.
    epoch: u64,
    /// Whether the communicator is currently revoked (a failure happened and
    /// recovery has not completed yet).
    revoked: bool,
    events: Vec<FailureEvent>,
}

/// Shared, thread-safe health board for one job.
///
/// The three facts a blocked rank re-reads on every poll round —
/// the failure generation, the abort flag and per-rank liveness — are
/// atomics, so [`check`](Self::check) and [`is_alive`](Self::is_alive) never
/// take the lock. They are *written* only while `state` is locked, in the
/// order liveness, generation, abort, each with `Release`: a reader that
/// `Acquire`-loads a new generation (or the abort flag) therefore also sees
/// the dead rank marked dead, and every method that reads them under the
/// lock sees one consistent failure.
#[derive(Debug)]
pub struct HealthBoard {
    state: Mutex<HealthState>,
    alive: Vec<AtomicBool>,
    /// Number of failures observed so far; doubles as the current generation.
    generation: AtomicU64,
    /// Whether the whole job has been aborted (AbortJob policy).
    aborted: AtomicBool,
    policy: FailurePolicy,
    size: usize,
}

impl HealthBoard {
    /// Create a health board for `size` ranks under the given failure policy.
    pub fn new(size: usize, policy: FailurePolicy) -> Self {
        Self {
            state: Mutex::new(HealthState {
                incarnation: vec![0; size],
                epoch: 0,
                revoked: false,
                events: Vec::new(),
            }),
            alive: (0..size).map(|_| AtomicBool::new(true)).collect(),
            generation: AtomicU64::new(0),
            aborted: AtomicBool::new(false),
            policy,
            size,
        }
    }

    /// Number of ranks in the job.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The configured failure policy.
    pub fn policy(&self) -> FailurePolicy {
        self.policy
    }

    /// Record the failure of `rank` (incarnation `incarnation`) at time
    /// `time` on that rank's clock. Returns the generation assigned to the
    /// event.
    ///
    /// Under [`FailurePolicy::AbortJob`] this also marks the job aborted;
    /// under the resilient policies it revokes the communicator so pending
    /// operations are interrupted and survivors learn about the failure.
    pub fn record_failure(&self, rank: usize, incarnation: u64, time: f64) -> u64 {
        let mut s = self.state.lock();
        let generation = self.generation.load(Ordering::Relaxed) + 1;
        if let Some(alive) = self.alive.get(rank) {
            alive.store(false, Ordering::Release);
        }
        s.events.push(FailureEvent {
            rank,
            incarnation,
            time,
            generation,
        });
        self.generation.store(generation, Ordering::Release);
        match self.policy {
            FailurePolicy::AbortJob => self.aborted.store(true, Ordering::Release),
            FailurePolicy::ReplaceRank | FailurePolicy::Shrink => s.revoked = true,
        }
        generation
    }

    /// Mark `rank` alive again with a new incarnation number (replacement
    /// spawned). Returns the new incarnation.
    pub fn record_replacement(&self, rank: usize) -> u64 {
        let mut s = self.state.lock();
        match self.alive.get(rank) {
            Some(alive) => {
                alive.store(true, Ordering::Release);
                s.incarnation[rank] += 1;
                s.incarnation[rank]
            }
            None => 0,
        }
    }

    /// Complete a recovery: bump the communication epoch and clear the
    /// revoked flag. Returns the new epoch. Idempotent per generation: the
    /// caller passes the generation it recovered from, and the epoch is only
    /// bumped if it has not already been bumped for that generation.
    pub fn complete_recovery(&self, generation: u64) -> u64 {
        let mut s = self.state.lock();
        if s.epoch < generation {
            s.epoch = generation;
        }
        s.revoked = false;
        s.epoch
    }

    /// Current communication epoch.
    pub fn epoch(&self) -> u64 {
        self.state.lock().epoch
    }

    /// Current failure generation (number of failures so far).
    pub fn generation(&self) -> u64 {
        // Under the lock, so a caller that just saw a rank dead through the
        // lock-free `is_alive` gets the generation that death was assigned.
        let _s = self.state.lock();
        self.generation.load(Ordering::Relaxed)
    }

    /// Is the given rank currently alive? Lock-free.
    pub fn is_alive(&self, rank: usize) -> bool {
        self.alive
            .get(rank)
            .is_some_and(|alive| alive.load(Ordering::Acquire))
    }

    /// Ranks currently alive, in ascending order.
    pub fn alive_ranks(&self) -> Vec<usize> {
        let _s = self.state.lock();
        (0..self.size)
            .filter(|&r| self.alive[r].load(Ordering::Relaxed))
            .collect()
    }

    /// Ranks that have ever failed (deduplicated, ascending).
    pub fn failed_ranks(&self) -> Vec<usize> {
        let s = self.state.lock();
        let mut out: Vec<usize> = s.events.iter().map(|e| e.rank).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Has the job been aborted?
    pub fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// Abort the job explicitly (used by drivers that decide to give up).
    pub fn abort(&self) {
        let _s = self.state.lock();
        self.aborted.store(true, Ordering::Release);
    }

    /// Total number of failure events recorded.
    pub fn failure_count(&self) -> usize {
        self.state.lock().events.len()
    }

    /// Copy of the failure-event log.
    pub fn events(&self) -> Vec<FailureEvent> {
        self.state.lock().events.clone()
    }

    /// Current incarnation number of `rank`.
    pub fn incarnation(&self, rank: usize) -> u64 {
        let s = self.state.lock();
        s.incarnation.get(rank).copied().unwrap_or(0)
    }

    /// Health check used by communication operations of the rank that has
    /// acknowledged failures up to `acked_generation`.
    ///
    /// * If the job is aborted: [`RuntimeError::JobAborted`].
    /// * If a failure newer than `acked_generation` exists (resilient
    ///   policies): [`RuntimeError::Revoked`] so the caller drops into its
    ///   recovery path.
    /// * Otherwise `Ok(())`.
    ///
    /// Lock-free: a rank blocked in a collective or a receive calls this on
    /// every poll round.
    pub fn check(&self, acked_generation: u64) -> Result<()> {
        if self.aborted.load(Ordering::Acquire) {
            return Err(RuntimeError::JobAborted {
                generation: self.generation.load(Ordering::Acquire),
            });
        }
        match self.policy {
            FailurePolicy::AbortJob => Ok(()),
            FailurePolicy::ReplaceRank | FailurePolicy::Shrink => {
                let generation = self.generation.load(Ordering::Acquire);
                if generation > acked_generation {
                    Err(RuntimeError::Revoked { generation })
                } else {
                    Ok(())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_all_alive() {
        let h = HealthBoard::new(4, FailurePolicy::ReplaceRank);
        assert_eq!(h.alive_ranks(), vec![0, 1, 2, 3]);
        assert_eq!(h.generation(), 0);
        assert_eq!(h.epoch(), 0);
        assert!(!h.is_aborted());
        assert!(h.check(0).is_ok());
    }

    #[test]
    fn abort_policy_aborts_job() {
        let h = HealthBoard::new(4, FailurePolicy::AbortJob);
        let generation = h.record_failure(2, 0, 1.5);
        assert_eq!(generation, 1);
        assert!(h.is_aborted());
        assert!(matches!(
            h.check(0),
            Err(RuntimeError::JobAborted { generation: 1 })
        ));
        assert_eq!(h.failed_ranks(), vec![2]);
        assert!(!h.is_alive(2));
        assert!(h.is_alive(1));
    }

    #[test]
    fn replace_policy_revokes_until_recovery() {
        let h = HealthBoard::new(4, FailurePolicy::ReplaceRank);
        let generation = h.record_failure(1, 0, 2.0);
        assert!(matches!(
            h.check(0),
            Err(RuntimeError::Revoked { generation: 1 })
        ));
        // A rank that has acknowledged the failure proceeds.
        assert!(h.check(generation).is_ok());
        let inc = h.record_replacement(1);
        assert_eq!(inc, 1);
        assert!(h.is_alive(1));
        let epoch = h.complete_recovery(generation);
        assert_eq!(epoch, 1);
        assert!(h.check(1).is_ok());
    }

    #[test]
    fn recovery_epoch_is_idempotent() {
        let h = HealthBoard::new(2, FailurePolicy::ReplaceRank);
        let g = h.record_failure(0, 0, 1.0);
        assert_eq!(h.complete_recovery(g), 1);
        assert_eq!(
            h.complete_recovery(g),
            1,
            "second completion must not bump epoch again"
        );
    }

    #[test]
    fn multiple_failures_increase_generation() {
        let h = HealthBoard::new(8, FailurePolicy::Shrink);
        assert_eq!(h.record_failure(3, 0, 1.0), 1);
        assert_eq!(h.record_failure(5, 0, 2.0), 2);
        assert_eq!(h.failure_count(), 2);
        assert_eq!(h.failed_ranks(), vec![3, 5]);
        assert_eq!(h.alive_ranks(), vec![0, 1, 2, 4, 6, 7]);
    }

    #[test]
    fn events_carry_incarnation() {
        let h = HealthBoard::new(2, FailurePolicy::ReplaceRank);
        h.record_failure(1, 0, 1.0);
        h.record_replacement(1);
        h.record_failure(1, 1, 3.0);
        let ev = h.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[1].incarnation, 1);
        assert_eq!(h.incarnation(1), 1);
    }

    #[test]
    fn explicit_abort() {
        let h = HealthBoard::new(2, FailurePolicy::ReplaceRank);
        h.abort();
        assert!(h.check(0).is_err());
    }
}
