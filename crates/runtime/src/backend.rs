//! The backend boundary: the runtime surface the solver kernels consume.
//!
//! The kernels in `resilience::kernel` (and the distributed vectors/matrices
//! underneath them) need a narrow slice of what a communicator offers:
//! identity, time charging, point-to-point halo exchange, blocking and
//! nonblocking reductions, the persistent per-rank store, and the ULFM-style
//! recovery operations the LFLR protocol drives. This trait names exactly
//! that slice, so a kernel written against it runs under either clock — and
//! under wrappers such as the benchmark's tracing communicator.
//!
//! The runtime itself implements it once, for [`Comm<K>`](Comm) under any
//! [`RankClock`]: [`Comm`] (virtual time, deterministic) and
//! [`ThreadComm`](crate::threads::ThreadComm) (wall clock, real threads,
//! panic-based fault injection) are the same code. The impl forwards to the
//! inherent methods, which concrete call sites reach without importing the
//! trait.
//!
//! The contract that makes comparison across clocks meaningful: reductions
//! fold contributions in ascending rank order regardless of arrival order
//! ([`ReduceOp::reduce_all`] inside the one rendezvous
//! [`CollectiveEngine`](crate::engine::CollectiveEngine)), so failure-free
//! iterates are bit-identical across clocks and across runs.

use crate::clock::RankClock;
use crate::collective::ReduceOp;
use crate::comm::Comm;
use crate::error::Result;
use crate::nonblocking::PendingCollective;
use crate::persistent::Stored;
use crate::ulfm::{RecoveryInfo, ShrinkInfo};

/// The execution-backend surface consumed by the distributed kernels.
///
/// Implementations must fold reductions deterministically in ascending rank
/// order (use [`ReduceOp::reduce_all`]) so that solver iterates are
/// bit-reproducible and comparable across backends.
pub trait CommBackend {
    /// Handle to an in-flight nonblocking reduction, redeemed by
    /// [`wait_vector`](Self::wait_vector).
    type Pending;

    // -- identity ------------------------------------------------------

    /// Rank within the current communicator (group rank after a shrink).
    fn rank(&self) -> usize;
    /// Size of the current communicator.
    fn size(&self) -> usize;
    /// Rank within the original (world) job, regardless of shrinks.
    fn world_rank(&self) -> usize;
    /// Size of the original (world) job.
    fn world_size(&self) -> usize;
    /// Incarnation number: 0 for the original process, >0 for replacements.
    fn incarnation(&self) -> u64;
    /// Is this rank a replacement spawned after a failure?
    fn is_replacement(&self) -> bool {
        self.incarnation() > 0
    }
    /// Number of recovery rendezvous / shrinks this rank has completed.
    fn recoveries(&self) -> u64;

    // -- time and failure points --------------------------------------

    /// Current time of this rank in seconds, on the backend's clock.
    fn now(&self) -> f64;
    /// Charge `seconds` of local computation.
    fn advance(&mut self, seconds: f64);
    /// Charge the cost of `flops` floating-point operations.
    fn charge_flops(&mut self, flops: usize);
    /// Attribute `flops` to resilience checks (ledger only; no time).
    fn record_check_flops(&mut self, flops: usize);
    /// Explicit failure point: die here if scheduled, then check health.
    fn failure_point(&mut self) -> Result<()>;
    /// Check the health board without being a failure-injection point.
    fn check_health(&self) -> Result<()>;

    // -- point-to-point ------------------------------------------------

    /// Send a slice of `f64` values to `dest` with the given tag.
    fn send_f64(&mut self, dest: usize, tag: i32, data: &[f64]) -> Result<()>;
    /// Receive an `f64` vector; returns `(source_rank, data)`.
    fn recv_f64(&mut self, source: usize, tag: i32) -> Result<(usize, Vec<f64>)>;

    // -- collectives ---------------------------------------------------

    /// Block until every rank of the communicator arrives.
    fn barrier(&mut self) -> Result<()>;
    /// Element-wise reduction of `data` across all ranks.
    fn allreduce(&mut self, op: ReduceOp, data: &[f64]) -> Result<Vec<f64>>;
    /// Scalar reduction across all ranks.
    fn allreduce_scalar(&mut self, op: ReduceOp, value: f64) -> Result<f64> {
        Ok(self.allreduce(op, &[value])?[0])
    }
    /// Sum a local partial across all ranks (the inner-product collective).
    fn global_dot(&mut self, local_partial: f64) -> Result<f64> {
        self.allreduce_scalar(ReduceOp::Sum, local_partial)
    }
    /// Gather every rank's contribution, indexed by rank.
    fn allgather(&mut self, data: &[f64]) -> Result<Vec<Vec<f64>>>;
    /// Start a nonblocking element-wise reduction.
    fn iallreduce(&mut self, op: ReduceOp, data: &[f64]) -> Result<Self::Pending>;
    /// Complete a nonblocking reduction started by
    /// [`iallreduce`](Self::iallreduce).
    fn wait_vector(&mut self, pending: Self::Pending) -> Result<Vec<f64>>;

    // -- persistent store (LFLR) --------------------------------------

    /// Store a value in this rank's persistent partition (survives this
    /// rank's death).
    fn persist(&mut self, key: &str, value: Stored) -> Result<()>;
    /// Read a value from `rank`'s persistent partition.
    fn restore(&mut self, rank: usize, key: &str) -> Result<Stored>;
    /// Remove a key from this rank's persistent partition (no-op if absent).
    fn unpersist(&mut self, key: &str);
    /// Does `rank`'s persistent partition contain `key`?
    fn persisted(&self, rank: usize, key: &str) -> bool;

    // -- recovery ------------------------------------------------------

    /// Participate in the post-failure recovery rendezvous (ReplaceRank
    /// policy); agrees (min) on `proposal` across all world ranks.
    fn recovery_rendezvous(&mut self, proposal: f64) -> Result<RecoveryInfo>;
    /// Rebuild the communicator without the failed ranks (Shrink policy).
    fn shrink(&mut self) -> Result<ShrinkInfo>;
}

/// The one communicator as a backend, under either clock: pure delegation
/// to the inherent methods.
impl<K: RankClock> CommBackend for Comm<K> {
    type Pending = PendingCollective;

    fn rank(&self) -> usize {
        Comm::rank(self)
    }
    fn size(&self) -> usize {
        Comm::size(self)
    }
    fn world_rank(&self) -> usize {
        Comm::world_rank(self)
    }
    fn world_size(&self) -> usize {
        Comm::world_size(self)
    }
    fn incarnation(&self) -> u64 {
        Comm::incarnation(self)
    }
    fn recoveries(&self) -> u64 {
        Comm::recoveries(self)
    }

    fn now(&self) -> f64 {
        Comm::now(self)
    }
    fn advance(&mut self, seconds: f64) {
        Comm::advance(self, seconds)
    }
    fn charge_flops(&mut self, flops: usize) {
        Comm::charge_flops(self, flops)
    }
    fn record_check_flops(&mut self, flops: usize) {
        Comm::record_check_flops(self, flops)
    }
    fn failure_point(&mut self) -> Result<()> {
        Comm::failure_point(self)
    }
    fn check_health(&self) -> Result<()> {
        Comm::check_health(self)
    }

    fn send_f64(&mut self, dest: usize, tag: i32, data: &[f64]) -> Result<()> {
        Comm::send_f64(self, dest, tag, data)
    }
    fn recv_f64(&mut self, source: usize, tag: i32) -> Result<(usize, Vec<f64>)> {
        Comm::recv_f64(self, source, tag)
    }

    fn barrier(&mut self) -> Result<()> {
        Comm::barrier(self)
    }
    fn allreduce(&mut self, op: ReduceOp, data: &[f64]) -> Result<Vec<f64>> {
        Comm::allreduce(self, op, data)
    }
    fn allreduce_scalar(&mut self, op: ReduceOp, value: f64) -> Result<f64> {
        Comm::allreduce_scalar(self, op, value)
    }
    fn allgather(&mut self, data: &[f64]) -> Result<Vec<Vec<f64>>> {
        Comm::allgather(self, data)
    }
    fn iallreduce(&mut self, op: ReduceOp, data: &[f64]) -> Result<PendingCollective> {
        Comm::iallreduce(self, op, data)
    }
    fn wait_vector(&mut self, pending: PendingCollective) -> Result<Vec<f64>> {
        Comm::wait_vector(self, pending)
    }

    fn persist(&mut self, key: &str, value: Stored) -> Result<()> {
        Comm::persist(self, key, value)
    }
    fn restore(&mut self, rank: usize, key: &str) -> Result<Stored> {
        Comm::restore(self, rank, key)
    }
    fn unpersist(&mut self, key: &str) {
        Comm::unpersist(self, key)
    }
    fn persisted(&self, rank: usize, key: &str) -> bool {
        Comm::persisted(self, rank, key)
    }

    fn recovery_rendezvous(&mut self, proposal: f64) -> Result<RecoveryInfo> {
        Comm::recovery_rendezvous(self, proposal)
    }
    fn shrink(&mut self) -> Result<ShrinkInfo> {
        Comm::shrink(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use crate::launcher::Runtime;
    use crate::threads::{ThreadConfig, ThreadRuntime};
    use crate::topology::CartTopology;

    /// A generic SPMD body: everything it does goes through the trait.
    fn generic_body<C: CommBackend>(comm: &mut C) -> Result<(f64, f64, u64)> {
        let sum = comm.allreduce_scalar(ReduceOp::Sum, (comm.rank() + 1) as f64)?;
        let pending = comm.iallreduce(ReduceOp::Max, &[comm.rank() as f64])?;
        comm.charge_flops(100);
        let max = comm.wait_vector(pending)?[0];
        comm.persist("k", Stored::Scalar(sum))?;
        let back = comm.restore(comm.rank(), "k")?.into_scalar()?;
        assert_eq!(back, sum);
        comm.unpersist("k");
        assert!(!comm.persisted(comm.rank(), "k"));
        comm.barrier()?;
        Ok((sum, max, comm.recoveries()))
    }

    /// [`generic_body`], then the operations the wall clock inherited from
    /// the one communicator without a line written for them; every value as
    /// bits, in call order.
    fn inherited_body<K: RankClock>(comm: &mut Comm<K>) -> Result<Vec<u64>> {
        let (sum, max, _) = generic_body(comm)?;
        let me = comm.rank() as f64 + 0.1;
        let next = (comm.rank() + 1) % comm.size();
        let prev = (comm.rank() + comm.size() - 1) % comm.size();
        let mut values = vec![sum, max];
        values.extend(comm.broadcast(1, &[me, 2.0 * me])?);
        values.extend(comm.scan(ReduceOp::Sum, &[me, 1.0 / me])?);
        values.extend(comm.gather(0, &[me])?.into_iter().flatten().flatten());
        comm.ibarrier()?.wait(comm)?;
        values.extend(comm.sendrecv_f64(next, prev, 7, &[me * me])?);
        let topology = CartTopology::line(comm.size(), true);
        for halo in comm.halo_exchange(&topology, &[vec![me], vec![-me]])? {
            values.extend(halo);
        }
        comm.checkpoint("c", vec![me, sum])?;
        let stored = comm.restore_checkpoint("c").expect("just written");
        values.extend(stored.into_f64()?);
        Ok(values.into_iter().map(f64::to_bits).collect())
    }

    #[test]
    fn simulator_backend_through_the_trait() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let r = rt.run(4, generic_body);
        for (sum, max, recoveries) in r.unwrap_all() {
            assert_eq!(sum, 10.0);
            assert_eq!(max, 3.0);
            assert_eq!(recoveries, 0);
        }
    }

    #[test]
    fn inherited_collectives_are_bit_identical_under_the_wall_clock() {
        let simulated = Runtime::new(RuntimeConfig::fast())
            .run(3, inherited_body)
            .unwrap_all();
        let threaded = ThreadRuntime::new(ThreadConfig::fast())
            .run(3, inherited_body)
            .unwrap_all();
        assert_eq!(simulated, threaded);
        // Rank 0 also holds the three gathered values.
        let lengths: Vec<usize> = simulated.iter().map(Vec::len).collect();
        assert_eq!(lengths, [14, 11, 11]);
    }

    #[test]
    fn trait_and_inherent_calls_agree() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let r = rt.run(3, |comm| {
            let inherent = comm.allreduce(ReduceOp::Sum, &[1.0, 2.0])?;
            let via_trait = CommBackend::allreduce(comm, ReduceOp::Sum, &[1.0, 2.0])?;
            Ok(inherent == via_trait)
        });
        assert!(r.unwrap_all().into_iter().all(|same| same));
    }
}
