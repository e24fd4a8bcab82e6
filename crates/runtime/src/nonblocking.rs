//! Nonblocking (asynchronous) collectives — the MPI-3 capability that makes
//! the paper's Relaxed Bulk-Synchronous Programming model possible.
//!
//! A nonblocking collective is *posted* immediately (contributing the
//! caller's data and entry time to the rendezvous slot) and completed later
//! with [`wait`](PendingCollective::wait). The completion time is the
//! maximum of the participants' *post* times plus the collective cost — so
//! any local work the caller performs between post and wait overlaps the
//! collective's latency. If the caller arrives at `wait` later than the
//! completion time, the collective costs it nothing: the latency has been
//! hidden. This is exactly the mechanism pipelined Krylov methods (§III-B)
//! exploit.

use crate::clock::RankClock;
use crate::collective::ReduceOp;
use crate::comm::Comm;
use crate::engine::SlotKey;
use crate::error::Result;

/// What kind of collective a pending request represents, and what its result
/// should look like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendingKind {
    AllReduce(ReduceOp),
    Barrier,
}

/// A posted, not-yet-completed nonblocking collective.
///
/// Must be completed with [`wait`](Self::wait) (or one of its typed forms)
/// even when the result is not needed: matching MPI semantics, a posted
/// collective must complete on all ranks, or its peers are left hanging.
#[must_use = "a posted nonblocking collective must be completed with wait()"]
#[derive(Debug)]
pub struct PendingCollective {
    key: SlotKey,
    kind: PendingKind,
}

/// Result of a completed nonblocking collective.
#[derive(Debug, Clone, PartialEq)]
pub enum CollectiveOutcome {
    /// Result of an all-reduce or broadcast: one vector.
    Vector(Vec<f64>),
    /// Result of an allgather: one vector per rank.
    PerRank(Vec<Vec<f64>>),
    /// Barrier: no data.
    Done,
}

impl CollectiveOutcome {
    /// Extract the single-vector result (allreduce / broadcast).
    pub fn into_vector(self) -> Vec<f64> {
        match self {
            CollectiveOutcome::Vector(v) => v,
            CollectiveOutcome::PerRank(mut v) => v.pop().unwrap_or_default(),
            CollectiveOutcome::Done => Vec::new(),
        }
    }
}

impl<K: RankClock> Comm<K> {
    fn post_nonblocking(
        &mut self,
        contribution: &[f64],
        reduce_elems: usize,
        kind: PendingKind,
    ) -> Result<PendingCollective> {
        let op = match kind {
            PendingKind::AllReduce(op) => Some(op),
            _ => None,
        };
        let key = self.post_collective(op, contribution, reduce_elems)?;
        Ok(PendingCollective { key, kind })
    }

    /// Post a nonblocking all-reduce.
    pub fn iallreduce(&mut self, op: ReduceOp, data: &[f64]) -> Result<PendingCollective> {
        self.post_nonblocking(data, data.len(), PendingKind::AllReduce(op))
    }

    /// Post a nonblocking all-reduce of a single scalar.
    pub fn iallreduce_scalar(&mut self, op: ReduceOp, value: f64) -> Result<PendingCollective> {
        self.iallreduce(op, &[value])
    }

    /// Post a nonblocking barrier.
    pub fn ibarrier(&mut self) -> Result<PendingCollective> {
        self.post_nonblocking(&[], 0, PendingKind::Barrier)
    }

    /// Complete a nonblocking reduction: see
    /// [`PendingCollective::wait_vector`].
    pub fn wait_vector(&mut self, pending: PendingCollective) -> Result<Vec<f64>> {
        pending.wait_vector(self)
    }
}

impl PendingCollective {
    /// Has the collective completed (all ranks posted)? Never blocks and
    /// never advances the clock; equivalent to `MPI_Test` without freeing
    /// the request.
    pub fn test<K: RankClock>(&self, comm: &Comm<K>) -> bool {
        comm.world.engine.is_complete(&self.key)
    }

    /// Complete the collective: blocks until every rank has posted, brings
    /// the caller's clock to the completion time (if it is not already past
    /// it — the latency-hiding case) and returns the result.
    pub fn wait<K: RankClock>(self, comm: &mut Comm<K>) -> Result<CollectiveOutcome> {
        Ok(match self.kind {
            PendingKind::AllReduce(_) => {
                let mut reduced = Vec::new();
                comm.complete_reduction(self.key, &mut reduced)?;
                CollectiveOutcome::Vector(reduced)
            }
            PendingKind::Barrier => {
                comm.complete_gather(self.key)?;
                CollectiveOutcome::Done
            }
        })
    }

    /// Complete an allreduce request and return its vector result.
    pub fn wait_vector<K: RankClock>(self, comm: &mut Comm<K>) -> Result<Vec<f64>> {
        Ok(self.wait(comm)?.into_vector())
    }

    /// Complete an allreduce-scalar request and return its scalar result.
    pub fn wait_scalar<K: RankClock>(self, comm: &mut Comm<K>) -> Result<f64> {
        let v = self.wait_vector(comm)?;
        Ok(v.first().copied().unwrap_or(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_conversions() {
        assert_eq!(
            CollectiveOutcome::Vector(vec![1.0]).into_vector(),
            vec![1.0]
        );
        assert_eq!(CollectiveOutcome::Done.into_vector(), Vec::<f64>::new());
        assert_eq!(
            CollectiveOutcome::PerRank(vec![vec![9.0]]).into_vector(),
            vec![9.0]
        );
    }
}
