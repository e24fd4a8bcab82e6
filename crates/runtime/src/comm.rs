//! The per-rank communicator handle.
//!
//! A [`Comm`] is the single object an SPMD "rank function" receives. It
//! bundles:
//!
//! * the rank's identity (rank, size, incarnation),
//! * its [`RankClock`] — virtual or wall time, and with it noise and failure
//!   injection,
//! * point-to-point messaging ([`send_f64`](Comm::send_f64) etc.),
//! * blocking and nonblocking collectives (see the [`collective`](crate::collective)
//!   and [`nonblocking`](crate::nonblocking) modules),
//! * ULFM-style recovery ([`recovery_rendezvous`](Comm::recovery_rendezvous),
//!   [`shrink`](Comm::shrink) in the [`ulfm`](crate::ulfm) module),
//! * access to the persistent per-rank store (LFLR) and the stable store
//!   (checkpoint/restart).
//!
//! There is one communicator for both backends. Everything here is written
//! against the clock's answers, never against which clock it is.

use std::panic;
use std::sync::Arc;
use std::time::Duration;

use rand_chacha::ChaCha8Rng;

use crate::clock::{park_deadline, RankClock, VirtualClock};
use crate::config::{CostModel, RuntimeConfig};
use crate::error::{Result, RuntimeError};
use crate::mailbox::PollOutcome;
use crate::message::{Message, ANY_SOURCE};
use crate::persistent::{StableStore, Stored};
use crate::stats::RankStats;
use crate::world::World;

/// Panic payload used to terminate a rank thread when failure injection
/// kills it. The launcher recognises this payload, treats the thread as a
/// failed process, and (under the `ReplaceRank` policy) spawns a
/// replacement.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RankKilled {
    /// Rank that was killed.
    pub rank: usize,
    /// Time of death on the rank's clock.
    pub time: f64,
    /// Failure generation assigned to the event.
    pub generation: u64,
}

/// How long a parked receive sleeps before it re-checks health and its
/// deadline on its own. Purely a real-time implementation detail; virtual
/// time is unaffected.
const WAIT_SLICE: Duration = Duration::from_millis(10);

/// The communicator handle owned by one rank incarnation.
pub struct Comm<K: RankClock = VirtualClock> {
    pub(crate) world: Arc<World<K>>,
    /// World rank (position in the original job).
    pub(crate) world_rank: usize,
    pub(crate) incarnation: u64,
    pub(crate) clock: K,
    /// Collective sequence counter (reset at each recovery).
    pub(crate) seq: u64,
    /// Communication epoch this rank has acknowledged.
    pub(crate) epoch: u64,
    /// Failure generation this rank has acknowledged (recovered from).
    pub(crate) acked_generation: u64,
    /// Communicator id (0 = the world communicator; shrunk communicators get
    /// fresh ids derived from the failure generation).
    pub(crate) comm_id: u64,
    /// For shrunk communicators: mapping from group rank to world rank.
    /// `None` means the identity mapping over all world ranks.
    pub(crate) group: Option<Vec<usize>>,
    /// Landing buffer for reductions whose result is returned by value
    /// (scalars, barriers), kept for its capacity.
    pub(crate) reduced: Vec<f64>,
    // -- statistics --
    pub(crate) messages_sent: u64,
    pub(crate) bytes_sent: u64,
    pub(crate) collectives: u64,
    pub(crate) recoveries: u64,
    pub(crate) checkpoint_bytes: u64,
    pub(crate) check_flops: u64,
    pub(crate) flops: u64,
}

impl<K: RankClock> Comm<K> {
    /// Create the communicator for `rank` (incarnation `incarnation`), whose
    /// clock starts at `start_time`.
    pub(crate) fn new(
        world: Arc<World<K>>,
        rank: usize,
        incarnation: u64,
        start_time: f64,
    ) -> Self {
        let epoch = world.health.epoch();
        // An *original* rank has seen no failure, whatever the board says by
        // the time its thread gets to run: a peer may die before this thread
        // starts, and starting from the board's generation would silently
        // acknowledge that death — the survivor would then sit in a
        // collective the replacement never joins. A *replacement* exists
        // because of the failures up to now and acknowledges them; its
        // first act is the recovery rendezvous.
        let acked_generation = if incarnation == 0 {
            0
        } else {
            world.health.generation()
        };
        Self {
            clock: K::start(&world.time, rank, incarnation, start_time),
            seq: 0,
            epoch,
            acked_generation,
            comm_id: 0,
            group: None,
            reduced: Vec::new(),
            messages_sent: 0,
            bytes_sent: 0,
            collectives: 0,
            recoveries: 0,
            checkpoint_bytes: 0,
            check_flops: 0,
            flops: 0,
            world,
            world_rank: rank,
            incarnation,
        }
    }

    // ------------------------------------------------------------------
    // Identity
    // ------------------------------------------------------------------

    /// Rank within the current communicator (group rank after a shrink).
    pub fn rank(&self) -> usize {
        self.to_group(self.world_rank)
    }

    /// Size of the current communicator (group size after a shrink).
    pub fn size(&self) -> usize {
        match &self.group {
            None => self.world.size,
            Some(g) => g.len(),
        }
    }

    /// Rank within the original (world) job, regardless of shrinks.
    pub fn world_rank(&self) -> usize {
        self.world_rank
    }

    /// Size of the original (world) job.
    pub fn world_size(&self) -> usize {
        self.world.size
    }

    /// Incarnation number: 0 for the original process, >0 for replacements
    /// spawned after failures. LFLR applications branch on this to decide
    /// whether to initialise fresh state or run their recovery function.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Is this rank a replacement spawned after a failure?
    pub fn is_replacement(&self) -> bool {
        self.incarnation > 0
    }

    /// Number of recovery rendezvous / shrinks this rank has completed.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Map a group rank to a world rank.
    pub(crate) fn to_world(&self, rank: usize) -> Result<usize> {
        if rank == ANY_SOURCE {
            return Ok(ANY_SOURCE);
        }
        let size = self.size();
        let world_rank = match &self.group {
            None => (rank < size).then_some(rank),
            Some(g) => g.get(rank).copied(),
        };
        world_rank.ok_or(RuntimeError::InvalidRank { rank, size })
    }

    /// Map a world rank back to a group rank (world rank itself for the
    /// world communicator).
    pub(crate) fn to_group(&self, world_rank: usize) -> usize {
        match &self.group {
            None => world_rank,
            Some(g) => g
                .iter()
                .position(|&r| r == world_rank)
                .unwrap_or(usize::MAX),
        }
    }

    // ------------------------------------------------------------------
    // Time, noise and failure points
    // ------------------------------------------------------------------

    /// Current time of this rank on its clock, in seconds.
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Charge `seconds` of local computation to the clock (the virtual
    /// clock also samples noise over the interval; the wall clock really
    /// spends the time). Failure injection is checked afterwards; this is
    /// therefore also a failure point.
    pub fn advance(&mut self, seconds: f64) {
        self.clock.spend_compute(seconds);
        self.maybe_die();
    }

    /// Charge the cost of `flops` floating-point operations (using the
    /// configured `seconds_per_flop`) and count them in
    /// [`RankStats::flops`].
    pub fn charge_flops(&mut self, flops: usize) {
        self.flops += flops as u64;
        let dt = self.world.model.seconds_per_flop * flops as f64;
        self.advance(dt);
    }

    /// Attribute `flops` floating-point operations to resilience checks
    /// (invariant tests, checksums, redundant residual evaluations) in
    /// [`RankStats::check_flops`]. This is an attribution ledger only — it
    /// does **not** advance the clock, because the operations that
    /// perform the check (dots, norms, operator applications) charge their
    /// own time through [`Comm::charge_flops`]; charging here too would
    /// double-bill the check work.
    pub fn record_check_flops(&mut self, flops: usize) {
        self.check_flops += flops as u64;
    }

    /// An explicit failure point: checks whether this rank is scheduled to
    /// die now and whether the job has been interrupted. Resilient drivers
    /// call this at step boundaries.
    pub fn failure_point(&mut self) -> Result<()> {
        self.maybe_die();
        self.check_health()
    }

    /// Check the health board: returns an error if the job aborted or if a
    /// failure this rank has not yet recovered from has been detected.
    pub fn check_health(&self) -> Result<()> {
        self.world.health.check(self.acked_generation)
    }

    /// If failure injection says this rank should die now, terminate the
    /// rank thread (never returns in that case).
    fn maybe_die(&mut self) {
        if self.clock.deaths_armed()
            && self.world.health.failure_count() < self.world.model.max_failures
            && self
                .clock
                .due_to_die(self.world_rank, self.incarnation, self.collectives)
        {
            self.die();
        }
    }

    /// Kill this rank: record the failure, stash partial statistics, wake all
    /// waiters and unwind the thread with a [`RankKilled`] payload.
    fn die(&mut self) -> ! {
        let time = self.clock.now();
        let generation = self
            .world
            .health
            .record_failure(self.world_rank, self.incarnation, time);
        self.world.lost_stats.lock().push(self.snapshot_stats());
        self.world.interrupt_all();
        panic::panic_any(RankKilled {
            rank: self.world_rank,
            time,
            generation,
        });
    }

    // ------------------------------------------------------------------
    // Point-to-point messaging
    // ------------------------------------------------------------------

    /// Send a slice of `f64` values to `dest` with the given tag.
    pub fn send_f64(&mut self, dest: usize, tag: i32, data: &[f64]) -> Result<()> {
        self.maybe_die();
        self.check_health()?;
        let dest_world = self.to_world(dest)?;
        if !self.world.health.is_alive(dest_world) {
            return Err(RuntimeError::ProcFailed {
                rank: dest_world,
                generation: self.world.health.generation(),
            });
        }
        let bytes = std::mem::size_of_val(data);
        let cost = self.world.model.latency.p2p_cost(bytes);
        let msg = Message {
            source: self.world_rank,
            tag,
            epoch: self.epoch,
            sent_at: self.clock.window_opens(cost),
            payload: data.to_vec(),
        };
        self.world.mailboxes[dest_world].deposit(msg);
        self.messages_sent += 1;
        self.bytes_sent += bytes as u64;
        Ok(())
    }

    /// Receive an `f64` vector from `source` (or any source, `usize::MAX`)
    /// with the given tag (or any tag, `-1`). Returns `(source_rank, data)`.
    pub fn recv_f64(&mut self, source: usize, tag: i32) -> Result<(usize, Vec<f64>)> {
        self.maybe_die();
        let source_world = self.to_world(source)?;
        let mailbox = &self.world.mailboxes[self.world_rank];
        let msg = {
            let mut expired = park_deadline(&self.clock);
            loop {
                // Read before polling: a deposit or interrupt after this point
                // makes `wait_since` return at once.
                let ticket = mailbox.ticket();
                self.check_health()?;
                match mailbox.poll(source_world, tag, self.epoch) {
                    PollOutcome::Found(msg) => break msg,
                    PollOutcome::Empty => {
                        if source_world != ANY_SOURCE && !self.world.health.is_alive(source_world) {
                            return Err(RuntimeError::ProcFailed {
                                rank: source_world,
                                generation: self.world.health.generation(),
                            });
                        }
                        if !mailbox.wait_since(ticket, WAIT_SLICE) && expired() {
                            return Err(RuntimeError::Timeout {
                                waiting_for: format!("a message with tag {tag}"),
                                missing: if source == ANY_SOURCE {
                                    Vec::new()
                                } else {
                                    vec![source]
                                },
                            });
                        }
                    }
                }
            }
        };
        // Only the part of the message latency that the delivery delay and
        // the receiver's own work have not already covered is waited for.
        let arrival = msg.sent_at + self.world.model.latency.p2p_cost(msg.byte_len());
        self.clock.wait_until(arrival);
        Ok((self.to_group(msg.source), msg.payload))
    }

    /// Combined send to `dest` and receive from `source` of `f64` data,
    /// ordered to avoid deadlock regardless of rank ordering.
    pub fn sendrecv_f64(
        &mut self,
        dest: usize,
        source: usize,
        tag: i32,
        data: &[f64],
    ) -> Result<Vec<f64>> {
        self.send_f64(dest, tag, data)?;
        let (_, received) = self.recv_f64(source, tag)?;
        Ok(received)
    }

    // ------------------------------------------------------------------
    // Persistent store (LFLR) and stable store (checkpoint/restart)
    // ------------------------------------------------------------------

    /// Charge the transfer of `bytes` bytes to or from a store at the
    /// configured checkpoint bandwidth.
    fn charge_store_bytes(&mut self, bytes: usize) {
        self.clock
            .spend_checkpoint(self.world.model.checkpoint_seconds_per_byte * bytes as f64);
    }

    /// Store a value in this rank's persistent partition. The data survives
    /// the failure of this rank and can be read by its replacement and by
    /// neighbouring ranks assisting in recovery. The write is charged at
    /// the configured checkpoint bandwidth.
    pub fn persist(&mut self, key: &str, value: impl Into<Stored>) -> Result<()> {
        let value = value.into();
        let bytes = value.byte_len();
        self.world.persistent.put(self.world_rank, key, value)?;
        self.charge_store_bytes(bytes);
        Ok(())
    }

    /// Read a value from `rank`'s persistent partition (a rank may read its
    /// own entries or a neighbour's during recovery). `rank` is a rank of
    /// the current communicator.
    pub fn restore(&mut self, rank: usize, key: &str) -> Result<Stored> {
        let world_rank = self.to_world(rank)?;
        let value = self.world.persistent.get(world_rank, key)?;
        self.charge_store_bytes(value.byte_len());
        Ok(value)
    }

    /// Remove a key from this rank's persistent partition (no-op if absent).
    /// Lets applications that keep a history of persisted states (e.g.
    /// step-keyed LFLR snapshots) bound the store's footprint. Deletion is a
    /// metadata operation and is charged no time.
    pub fn unpersist(&mut self, key: &str) {
        self.world.persistent.remove(self.world_rank, key);
    }

    /// Does `rank`'s persistent partition contain `key`?
    pub fn persisted(&self, rank: usize, key: &str) -> bool {
        match self.to_world(rank) {
            Ok(world_rank) => self.world.persistent.contains(world_rank, key),
            Err(_) => false,
        }
    }

    /// Write a checkpoint record for this rank to the job-global stable
    /// store (the simulated parallel file system). Charged at the configured
    /// checkpoint bandwidth; the bytes are also counted in the rank's
    /// statistics.
    pub fn checkpoint(&mut self, key: &str, value: impl Into<Stored>) -> Result<()> {
        self.check_health()?;
        let value = value.into();
        let bytes = self
            .world
            .stable
            .put(&format!("r{}/{}", self.world_rank, key), value);
        self.charge_store_bytes(bytes);
        self.checkpoint_bytes += bytes as u64;
        Ok(())
    }

    /// Read this rank's checkpoint record from the stable store, if present.
    pub fn restore_checkpoint(&mut self, key: &str) -> Option<Stored> {
        let value = self
            .world
            .stable
            .get(&format!("r{}/{}", self.world_rank, key));
        if let Some(v) = &value {
            self.charge_store_bytes(v.byte_len());
        }
        value
    }

    /// Direct access to the stable store (drivers use this for job-level
    /// metadata such as the last completed checkpoint index).
    pub fn stable_store(&self) -> &StableStore {
        &self.world.stable
    }

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    /// Snapshot of this rank's statistics. The time fields are the clock's:
    /// virtual seconds and their split under the virtual clock; wall seconds
    /// since job start and the *emulated* components (the rest is real
    /// execution) under the wall clock.
    pub fn snapshot_stats(&self) -> RankStats {
        let mut stats = RankStats {
            rank: self.world_rank,
            incarnation: self.incarnation,
            messages_sent: self.messages_sent,
            bytes_sent: self.bytes_sent,
            collectives: self.collectives,
            recoveries: self.recoveries,
            checkpoint_bytes: self.checkpoint_bytes,
            check_flops: self.check_flops,
            flops: self.flops,
            ..RankStats::default()
        };
        self.clock.fill_times(&mut stats);
        stats
    }
}

impl Comm<VirtualClock> {
    /// The only rank of a 1-rank job under `config`, on the caller's thread:
    /// no launcher, so a solve over it can borrow its matrix and
    /// preconditioner instead of moving them into a rank closure.
    pub fn solo(config: &RuntimeConfig) -> Self {
        let model = CostModel::from(config);
        Self::new(
            World::new(model, config.clone(), 1, StableStore::new()),
            0,
            0,
            0.0,
        )
    }

    /// Access this rank's deterministic random-number generator (useful for
    /// applications that want reproducible rank-decorrelated randomness).
    pub fn rng(&mut self) -> &mut ChaCha8Rng {
        self.clock.rng()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NoiseConfig;

    fn world(config: RuntimeConfig, size: usize) -> Arc<World<VirtualClock>> {
        World::new(CostModel::from(&config), config, size, StableStore::new())
    }

    #[test]
    fn identity_accessors() {
        let c = Comm::solo(&RuntimeConfig::fast());
        assert_eq!(c.rank(), 0);
        assert_eq!(c.size(), 1);
        assert_eq!(c.world_rank(), 0);
        assert_eq!(c.world_size(), 1);
        assert_eq!(c.incarnation(), 0);
        assert!(!c.is_replacement());
    }

    #[test]
    fn advance_and_charge_flops() {
        let mut cfg = RuntimeConfig::fast();
        cfg.seconds_per_flop = 1e-6;
        let mut c = Comm::solo(&cfg);
        c.advance(1.0);
        c.charge_flops(1000);
        assert!((c.now() - 1.001).abs() < 1e-12);
    }

    #[test]
    fn noise_adds_time() {
        let cfg = RuntimeConfig::fast().with_noise(NoiseConfig::fixed(1000.0, 0.01));
        let mut c = Comm::solo(&cfg);
        c.advance(1.0);
        assert!(c.now() > 1.0, "noise should add to the clock");
        let stats = c.snapshot_stats();
        assert!(stats.noise_time > 0.0);
        assert!((stats.compute_time - 1.0).abs() < 1e-12);
    }

    #[test]
    fn self_send_recv_roundtrip() {
        let mut c = Comm::solo(&RuntimeConfig::fast());
        c.send_f64(0, 7, &[1.0, 2.0, 3.0]).unwrap();
        let (src, data) = c.recv_f64(0, 7).unwrap();
        assert_eq!(src, 0);
        assert_eq!(data, vec![1.0, 2.0, 3.0]);
        let s = c.snapshot_stats();
        assert_eq!(s.messages_sent, 1);
        assert_eq!(s.bytes_sent, 24);
    }

    #[test]
    fn recv_charges_latency() {
        let mut cfg = RuntimeConfig::default();
        cfg.latency.alpha = 1.0;
        cfg.latency.beta = 0.0;
        let mut c = Comm::solo(&cfg);
        c.send_f64(0, 0, &[5.0]).unwrap();
        let _ = c.recv_f64(0, 0).unwrap();
        assert!((c.now() - 1.0).abs() < 1e-12, "receiver should pay alpha");
        assert!(c.snapshot_stats().comm_wait_time > 0.0);
    }

    #[test]
    fn invalid_rank_errors() {
        let mut c = Comm::solo(&RuntimeConfig::fast());
        assert!(matches!(
            c.send_f64(3, 0, &[1.0]),
            Err(RuntimeError::InvalidRank { rank: 3, size: 1 })
        ));
        assert!(c.recv_f64(9, 0).is_err());
    }

    #[test]
    fn persist_and_restore() {
        let mut c = Comm::solo(&RuntimeConfig::fast());
        c.persist("state", vec![1.0, 2.0]).unwrap();
        assert!(c.persisted(0, "state"));
        assert!(!c.persisted(0, "other"));
        let v = c.restore(0, "state").unwrap().into_f64().unwrap();
        assert_eq!(v, vec![1.0, 2.0]);
        assert!(matches!(
            c.restore(0, "missing"),
            Err(RuntimeError::MissingPersistentKey { .. })
        ));
    }

    #[test]
    fn checkpoint_restore_roundtrip_and_cost() {
        let mut cfg = RuntimeConfig::fast();
        cfg.checkpoint_seconds_per_byte = 0.5;
        let mut c = Comm::solo(&cfg);
        c.checkpoint("u", vec![1.0, 2.0]).unwrap(); // 16 bytes -> 8 s
        assert!((c.now() - 8.0).abs() < 1e-12);
        let v = c.restore_checkpoint("u").unwrap().into_f64().unwrap();
        assert_eq!(v, vec![1.0, 2.0]);
        assert!(c.restore_checkpoint("missing").is_none());
        assert_eq!(c.snapshot_stats().checkpoint_bytes, 16);
    }

    #[test]
    fn rng_is_reproducible_per_rank() {
        use rand::Rng;
        let w1 = world(RuntimeConfig::fast().with_seed(7), 2);
        let w2 = world(RuntimeConfig::fast().with_seed(7), 2);
        let mut a = Comm::new(w1.clone(), 0, 0, 0.0);
        let mut b = Comm::new(w2.clone(), 0, 0, 0.0);
        let mut c = Comm::new(w1, 1, 0, 0.0);
        let x: f64 = a.rng().gen();
        let y: f64 = b.rng().gen();
        let z: f64 = c.rng().gen();
        assert_eq!(x, y, "same rank + seed must reproduce");
        assert_ne!(x, z, "different ranks should be decorrelated");
    }

    #[test]
    fn sendrecv_self() {
        let mut c = Comm::solo(&RuntimeConfig::fast());
        let got = c.sendrecv_f64(0, 0, 4, &[2.5]).unwrap();
        assert_eq!(got, vec![2.5]);
    }

    crate::conformance::instantiate! { crate::conformance::Simulated:
        original_rank_started_after_a_death_still_sees_it =>
            original_rank_started_after_a_death_still_sees_it();
    }
}
