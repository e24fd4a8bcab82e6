//! Blocking collective operations.
//!
//! These are the "classic" bulk-synchronous collectives whose poor scaling
//! under performance variability motivates the paper's RBSP model (§II-B).
//! Every blocking collective synchronises the participants: all ranks leave
//! at the same completion time, which is how noise on one rank delays
//! everyone.

use crate::clock::{park_deadline, RankClock};
use crate::comm::Comm;
use crate::engine::{CollectiveResult, SlotKey, SlotKind};
use crate::error::Result;

/// Element-wise reduction operators for reduce/allreduce/scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise minimum.
    Min,
    /// Element-wise maximum.
    Max,
    /// Element-wise product.
    Prod,
}

impl ReduceOp {
    /// Combine `b` into `a` element-wise.
    fn fold_into(self, a: &mut [f64], b: &[f64]) {
        debug_assert_eq!(a.len(), b.len());
        match self {
            ReduceOp::Sum => a.iter_mut().zip(b).for_each(|(x, y)| *x += *y),
            ReduceOp::Min => a.iter_mut().zip(b).for_each(|(x, y)| *x = x.min(*y)),
            ReduceOp::Max => a.iter_mut().zip(b).for_each(|(x, y)| *x = x.max(*y)),
            ReduceOp::Prod => a.iter_mut().zip(b).for_each(|(x, y)| *x *= *y),
        }
    }

    /// Reduce a list of equally sized contributions into a single vector.
    pub fn reduce_all(self, contributions: &[Vec<f64>]) -> Vec<f64> {
        let mut out = Vec::new();
        self.reduce_all_into(contributions, &mut out);
        out
    }

    /// [`reduce_all`](Self::reduce_all) into a caller-owned buffer: `out`
    /// becomes the first non-empty contribution with every later non-empty
    /// one folded in, in slice order. This is the one definition of the
    /// fold both backends and the rendezvous engine share, which is what
    /// keeps reductions bit-identical across them.
    pub fn reduce_all_into(self, contributions: &[Vec<f64>], out: &mut Vec<f64>) {
        out.clear();
        let mut iter = contributions.iter().filter(|c| !c.is_empty());
        if let Some(first) = iter.next() {
            out.extend_from_slice(first);
            for c in iter {
                self.fold_into(out, c);
            }
        }
    }
}

impl<K: RankClock> Comm<K> {
    /// Post this rank's contribution to the communicator's next collective
    /// (a failure point): the shared first half of every blocking and
    /// nonblocking collective. With an operator the engine folds the
    /// contributions itself, once, in ascending rank order. The engine gets
    /// (entry, cost) and fixes the completion time for everyone; how that
    /// time is reached is the clock's business.
    pub(crate) fn post_collective(
        &mut self,
        op: Option<ReduceOp>,
        contribution: &[f64],
        reduce_elems: usize,
    ) -> Result<SlotKey> {
        self.failure_point()?;
        let key = SlotKey {
            epoch: self.epoch,
            comm_id: self.comm_id,
            kind: SlotKind::Collective,
            seq: self.seq,
        };
        self.seq += 1;
        let expected = self.size();
        let bytes = std::mem::size_of_val(contribution);
        let cost = self
            .world
            .model
            .latency
            .collective_cost(expected, bytes, reduce_elems);
        self.world.engine.post_slice(
            key,
            self.rank(),
            expected,
            op,
            contribution,
            self.clock.window_opens(cost),
            cost,
        )?;
        Ok(key)
    }

    /// Wait for a posted collective and return every rank's contribution.
    pub(crate) fn complete_gather(&mut self, key: SlotKey) -> Result<CollectiveResult> {
        let result = self.world.engine.wait_until(
            key,
            &self.world.health,
            self.acked_generation,
            &mut park_deadline(&self.clock),
        )?;
        self.clock.wait_until(result.completion_time);
        self.collectives += 1;
        Ok(result)
    }

    /// Wait for a posted reduction; the engine's ascending-rank fold lands
    /// in `out`. Allocates nothing when `out` has the capacity.
    pub(crate) fn complete_reduction(&mut self, key: SlotKey, out: &mut Vec<f64>) -> Result<()> {
        let completion_time = self.world.engine.wait_reduced(
            key,
            &self.world.health,
            self.acked_generation,
            &mut park_deadline(&self.clock),
            out,
        )?;
        self.clock.wait_until(completion_time);
        self.collectives += 1;
        Ok(())
    }

    /// Post a contribution and wait for everyone's: the shared primitive
    /// behind the blocking collectives that need each rank's data.
    pub(crate) fn collective_exchange(
        &mut self,
        contribution: &[f64],
        reduce_elems: usize,
    ) -> Result<CollectiveResult> {
        let key = self.post_collective(None, contribution, reduce_elems)?;
        self.complete_gather(key)
    }

    /// A blocking reduction into the communicator's own landing buffer, for
    /// results returned by value (scalars, barriers): returns the first
    /// reduced value, if any, and touches the heap only while the buffer
    /// still grows.
    fn reduce_in_place(&mut self, op: ReduceOp, data: &[f64]) -> Result<Option<f64>> {
        let key = self.post_collective(Some(op), data, data.len())?;
        let mut reduced = std::mem::take(&mut self.reduced);
        let outcome = self.complete_reduction(key, &mut reduced);
        let first = reduced.first().copied();
        self.reduced = reduced;
        outcome.map(|()| first)
    }

    /// Synchronise all ranks of the communicator (no data exchanged).
    pub fn barrier(&mut self) -> Result<()> {
        self.reduce_in_place(ReduceOp::Sum, &[]).map(|_| ())
    }

    /// All-reduce: combine `data` element-wise across all ranks with `op`,
    /// folded in ascending rank order whatever the arrival order; every rank
    /// receives the combined vector.
    pub fn allreduce(&mut self, op: ReduceOp, data: &[f64]) -> Result<Vec<f64>> {
        let key = self.post_collective(Some(op), data, data.len())?;
        let mut out = Vec::with_capacity(data.len());
        self.complete_reduction(key, &mut out)?;
        Ok(out)
    }

    /// All-reduce of a single scalar.
    pub fn allreduce_scalar(&mut self, op: ReduceOp, value: f64) -> Result<f64> {
        let reduced = self.reduce_in_place(op, &[value])?;
        Ok(reduced.expect("a scalar reduction folds at least this rank's value"))
    }

    /// Broadcast `data` from `root` to all ranks. Non-root ranks pass their
    /// (ignored) local buffer, typically empty.
    pub fn broadcast(&mut self, root: usize, data: &[f64]) -> Result<Vec<f64>> {
        let contribution = if self.rank() == root { data } else { &[] };
        let r = self.collective_exchange(contribution, 0)?;
        Ok(r.contributions.get(root).cloned().unwrap_or_default())
    }

    /// Gather every rank's `data` to all ranks, ordered by rank.
    pub fn allgather(&mut self, data: &[f64]) -> Result<Vec<Vec<f64>>> {
        let r = self.collective_exchange(data, 0)?;
        Ok(r.contributions)
    }

    /// Gather every rank's `data` to `root` only.
    pub fn gather(&mut self, root: usize, data: &[f64]) -> Result<Option<Vec<Vec<f64>>>> {
        let r = self.collective_exchange(data, 0)?;
        Ok((self.rank() == root).then_some(r.contributions))
    }

    /// Inclusive prefix scan: rank `i` receives the combination of the
    /// contributions of ranks `0..=i`.
    pub fn scan(&mut self, op: ReduceOp, data: &[f64]) -> Result<Vec<f64>> {
        let r = self.collective_exchange(data, data.len())?;
        let me = self.rank();
        Ok(op.reduce_all(&r.contributions[..=me]))
    }

    /// Distributed dot product helper: contributes the local partial dot
    /// product and returns the global sum. This is the collective at the
    /// heart of every Krylov iteration and the one the RBSP experiments
    /// target.
    pub fn global_dot(&mut self, local_partial: f64) -> Result<f64> {
        self.allreduce_scalar(ReduceOp::Sum, local_partial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_op_sum_min_max_prod() {
        let mut a = vec![1.0, 5.0, 2.0];
        ReduceOp::Sum.fold_into(&mut a, &[1.0, 1.0, 1.0]);
        assert_eq!(a, vec![2.0, 6.0, 3.0]);
        let mut a = vec![1.0, 5.0];
        ReduceOp::Min.fold_into(&mut a, &[0.5, 9.0]);
        assert_eq!(a, vec![0.5, 5.0]);
        let mut a = vec![1.0, 5.0];
        ReduceOp::Max.fold_into(&mut a, &[0.5, 9.0]);
        assert_eq!(a, vec![1.0, 9.0]);
        let mut a = vec![2.0, 3.0];
        ReduceOp::Prod.fold_into(&mut a, &[4.0, 0.5]);
        assert_eq!(a, vec![8.0, 1.5]);
    }

    #[test]
    fn reduce_all_skips_empty_contributions() {
        let out = ReduceOp::Sum.reduce_all(&[vec![], vec![1.0, 2.0], vec![3.0, 4.0], vec![]]);
        assert_eq!(out, vec![4.0, 6.0]);
        assert!(ReduceOp::Sum.reduce_all(&[vec![], vec![]]).is_empty());
    }
}
