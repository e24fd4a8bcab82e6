//! ULFM-style recovery operations: the runtime support the LFLR model needs.
//!
//! The paper (§II-C, §IV) points at the ULFM proposal as "one approach to
//! supporting LFLR": after a process failure, surviving processes get an
//! error class instead of hanging, can *revoke* the communicator so everyone
//! learns of the failure, *agree* on how to proceed, and either *shrink* the
//! communicator or (with a process-management layer) spawn a replacement.
//!
//! There is no application-called `MPI_Comm_revoke` here: under the
//! resilient failure policies the health board marks the communicator
//! revoked itself when it records a failure, so every survivor's next
//! operation returns [`Revoked`](crate::error::RuntimeError::Revoked). This module
//! provides the agreement and the two ways forward, on top of the health
//! board and the collective engine:
//!
//! * [`Comm::recovery_rendezvous`] — used with
//!   [`FailurePolicy::ReplaceRank`](crate::config::FailurePolicy): all world
//!   ranks (survivors plus the freshly spawned replacement) meet, agree on a
//!   restart point, advance to a fresh communication epoch and resume.
//! * [`Comm::shrink`] — used with
//!   [`FailurePolicy::Shrink`](crate::config::FailurePolicy): the survivors
//!   rebuild a smaller communicator excluding the dead ranks.

use serde::{Deserialize, Serialize};

use crate::clock::{park_deadline, RankClock};
use crate::comm::Comm;
use crate::engine::{SlotKey, SlotKind};
use crate::error::Result;

/// Information returned by a completed recovery rendezvous.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryInfo {
    /// Failure generation that was recovered from.
    pub generation: u64,
    /// New communication epoch.
    pub epoch: u64,
    /// Ranks that have failed at least once so far in the job.
    pub failed_ranks: Vec<usize>,
    /// The minimum of the values proposed by the participants (typically the
    /// last globally completed step, so the application knows where to
    /// resume).
    pub agreed: f64,
    /// Time on the rank's clock at which recovery completed.
    pub completed_at: f64,
}

/// Information returned by a completed shrink.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShrinkInfo {
    /// This rank's rank in the shrunk communicator.
    pub new_rank: usize,
    /// Size of the shrunk communicator.
    pub new_size: usize,
    /// World ranks that are excluded (dead).
    pub failed_ranks: Vec<usize>,
    /// New communication epoch.
    pub epoch: u64,
}

impl<K: RankClock> Comm<K> {
    /// Participate in the post-failure recovery rendezvous (ReplaceRank
    /// policy).
    ///
    /// Every world rank — survivors that observed a
    /// [`Revoked`](crate::error::RuntimeError::Revoked) /
    /// [`ProcFailed`](crate::error::RuntimeError::ProcFailed) error, and the
    /// replacement rank whose [`incarnation`](Comm::incarnation) is greater
    /// than zero — must call this. It:
    ///
    /// 1. acknowledges the latest failure generation,
    /// 2. agrees (min-reduction) on `proposal` across all ranks,
    /// 3. advances to a fresh communication epoch, discarding stale messages
    ///    and collectives,
    /// 4. resets the collective sequence counter.
    ///
    /// The typical `proposal` is the index of the last step this rank has
    /// durable state for, so the minimum is the step everyone can restart
    /// from.
    pub fn recovery_rendezvous(&mut self, proposal: f64) -> Result<RecoveryInfo> {
        let generation = self.world.health.generation();
        let expected = self.world.size;
        let cost = self.world.model.latency.collective_cost(expected, 16, 2)
            + self.world.model.replacement_cost;
        let key = SlotKey {
            epoch: 0,
            comm_id: 0,
            kind: SlotKind::Recovery,
            seq: generation,
        };
        let contributions =
            self.agree_and_reset(key, (self.world_rank, expected), vec![proposal], cost)?;
        let agreed = contributions
            .iter()
            .filter_map(|c| c.first().copied())
            .fold(f64::INFINITY, f64::min);
        self.comm_id = 0;
        self.group = None;
        Ok(RecoveryInfo {
            generation,
            epoch: self.epoch,
            failed_ranks: self.world.health.failed_ranks(),
            agreed: if agreed.is_finite() { agreed } else { proposal },
            completed_at: self.clock.now(),
        })
    }

    /// Rebuild the communicator without the failed ranks (Shrink policy).
    ///
    /// Only surviving ranks call this; the result renumbers them densely
    /// `0..new_size`. The caller's [`rank`](Comm::rank) and
    /// [`size`](Comm::size) reflect the shrunk communicator afterwards.
    pub fn shrink(&mut self) -> Result<ShrinkInfo> {
        let generation = self.world.health.generation();
        let alive = self.world.health.alive_ranks();
        let expected = alive.len();
        let my_index = alive
            .iter()
            .position(|&r| r == self.world_rank)
            .expect("a dead rank cannot call shrink");
        let cost = self
            .world
            .model
            .latency
            .collective_cost(expected.max(1), 16, 1);
        let key = SlotKey {
            epoch: 0,
            comm_id: self.comm_id,
            kind: SlotKind::Shrink,
            seq: generation,
        };
        self.agree_and_reset(key, (my_index, expected), Vec::new(), cost)?;
        // Derive a communicator id that every survivor computes identically.
        self.comm_id = 1_000 + generation;
        self.group = Some(alive);
        Ok(ShrinkInfo {
            new_rank: my_index,
            new_size: expected,
            failed_ranks: self.world.health.failed_ranks(),
            epoch: self.epoch,
        })
    }

    /// What both recovery operations are: acknowledge the failure
    /// generation `key` is numbered by, meet the other `expected`
    /// participants in that slot (`index` is the caller's place among them)
    /// at recovery `cost`, then advance to a fresh communication epoch —
    /// discarding stale messages and collectives — and restart collective
    /// sequencing. Returns what the participants contributed.
    fn agree_and_reset(
        &mut self,
        key: SlotKey,
        (index, expected): (usize, usize),
        contribution: Vec<f64>,
        cost: f64,
    ) -> Result<Vec<Vec<f64>>> {
        let generation = key.seq;
        self.acked_generation = generation;
        self.world.engine.post(
            key,
            index,
            expected,
            contribution,
            self.clock.window_opens(cost),
            cost,
        )?;
        let result = self.world.engine.wait_until(
            key,
            &self.world.health,
            generation,
            &mut park_deadline(&self.clock),
        )?;
        self.clock
            .spend_recovery(result.completion_time - self.clock.now());
        self.epoch = self.world.health.complete_recovery(generation);
        self.world.engine.purge_older_than(self.epoch);
        self.world.mailboxes[self.world_rank].purge_older_than(self.epoch);
        self.seq = 0;
        self.recoveries += 1;
        Ok(result.contributions)
    }

    /// Number of failures observed so far in this job.
    pub fn failure_count(&self) -> usize {
        self.world.health.failure_count()
    }

    /// Ranks (world numbering) that have failed so far.
    pub fn failed_ranks(&self) -> Vec<usize> {
        self.world.health.failed_ranks()
    }

    /// Is `rank` (current-communicator numbering) alive?
    pub fn is_alive(&self, rank: usize) -> bool {
        match self.to_world(rank) {
            Ok(world_rank) => self.world.health.is_alive(world_rank),
            Err(_) => false,
        }
    }
}
