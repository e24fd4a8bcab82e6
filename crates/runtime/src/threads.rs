//! The real-threads backend: ranks are worker threads under wall-clock time.
//!
//! Where [`Comm`](crate::comm::Comm) *simulates* an SPMD machine in virtual
//! time, [`ThreadComm`] *is* one, scaled down to a single process: every rank
//! is an OS thread, collectives are real rendezvous on the shared
//! [`CollectiveEngine`], time is the wall
//! clock, and "a rank dies" means its thread really unwinds through a
//! [`catch_unwind`](std::panic::catch_unwind) boundary mid-solve. This is
//! the measurement substrate that turns the simulator's predicted speedups
//! into *measured* ones (`exp_backend_parity`).
//!
//! Design choices that keep the two backends comparable:
//!
//! * **Deterministic reductions.** Collectives go through the same engine
//!   and the same ascending-rank [`ReduceOp::reduce_all`] fold as the
//!   simulator, so failure-free iterates are bit-identical to the
//!   simulator's — arrival order never changes the floating-point result.
//! * **Poll, then park.** When every rank thread can own a core
//!   (`size ≤ available_parallelism`), a rank waiting in a collective or a
//!   receive polls for a bounded number of rounds before it parks, so a
//!   rendezvous between running ranks costs no system call; an
//!   oversubscribed job parks at once, as the simulator does. Every wait is
//!   bounded: after [`WAIT_DEADLINE`] parked it returns
//!   [`RuntimeError::Timeout`] naming who never arrived.
//! * **Emulated communication latency.** A collective or message costs
//!   `emulate` ([`LatencyModel`]) seconds of real time, charged by sleeping
//!   (or spinning, below 100 µs) *after* the real rendezvous. A nonblocking
//!   reduction only charges what its latency window did not overlap with
//!   local work — real latency hiding, measurable even on an oversubscribed
//!   host because sleeping ranks release their core.
//! * **Real fault injection.** A [`DeathInjector`] decides at failure points
//!   whether the rank dies; death is a genuine `panic_any(RankKilled)`
//!   unwind, caught by the [`ThreadRuntime`] launcher, which (under
//!   [`FailurePolicy::ReplaceRank`]) spawns a replacement thread. Survivors
//!   detect the failure through the shared health board exactly as they do
//!   in the simulator, and the existing shrink + LFLR rendezvous run
//!   unchanged.

use parking_lot::Mutex;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crate::collective::ReduceOp;
use crate::comm::{initial_acked_generation, RankKilled};
use crate::config::{FailurePolicy, LatencyModel};
use crate::engine::{CollectiveEngine, SlotKey, SlotKind, POLL_ROUNDS};
use crate::error::{Result, RuntimeError};
use crate::health::HealthBoard;
use crate::launcher::{install_panic_hook, JobResult, MAX_INCARNATIONS};
use crate::mailbox::{Mailbox, PollOutcome};
use crate::message::{Message, Payload, ANY_SOURCE};
use crate::persistent::{PersistentStore, Stored};
use crate::stats::{JobStats, RankStats};
use crate::ulfm::{RecoveryInfo, ShrinkInfo};

/// How long a parked receive sleeps before re-checking health and the
/// deadline on its own (real time).
const WAIT_SLICE: Duration = Duration::from_millis(10);

/// The one bound on every blocking wait of this backend — collective,
/// recovery rendezvous, shrink agreement, receive. A rank that has been
/// parked this long is waiting for a participant that is not coming (a
/// collective skipped on one rank, a replacement that never joined the
/// rendezvous); it gets [`RuntimeError::Timeout`] instead of a hang. Far
/// above any legitimate wait: emulated costs are milliseconds, and a peer's
/// death interrupts a wait at once.
pub const WAIT_DEADLINE: Duration = Duration::from_secs(60);

/// The deadline as the `expired` callback the engine and the receive loop
/// consult when they are about to park (again): the clock starts at the
/// first call, so a wait that completes while polling never reads it.
fn deadline_clock(deadline: Duration) -> impl FnMut() -> bool {
    let mut parked_since: Option<Instant> = None;
    move || parked_since.get_or_insert_with(Instant::now).elapsed() >= deadline
}

/// Poll budget for a job of `size` rank threads on `cores` cores. Waiters
/// poll before parking only when every rank thread can own a core: a
/// polling rank on an oversubscribed host burns the time slice its partner
/// needs to arrive, so such jobs park at once, as the simulator does.
fn poll_rounds_for(size: usize, cores: usize) -> u32 {
    if size <= cores {
        POLL_ROUNDS
    } else {
        0
    }
}

/// Below this emulated duration, spin instead of sleeping: OS sleep
/// granularity would otherwise round every microsecond-scale latency up to
/// a scheduler quantum.
const SPIN_BELOW: f64 = 100e-6;

/// Configuration of the real-threads backend.
///
/// The emulated-cost knobs mirror [`RuntimeConfig`](crate::config::RuntimeConfig)
/// so an experiment can run the same machine model under both backends and
/// compare predicted (virtual) against measured (wall) time.
#[derive(Debug, Clone)]
pub struct ThreadConfig {
    /// Policy applied when a rank dies.
    pub policy: FailurePolicy,
    /// Communication latency emulated in real time (sleep/spin after the
    /// real rendezvous). `LatencyModel::zero()` gives raw thread speed.
    pub emulate: LatencyModel,
    /// Real seconds charged per floating-point operation by
    /// [`ThreadComm::charge_flops`]. Zero means arithmetic costs only what
    /// it really costs.
    pub seconds_per_flop: f64,
    /// Real seconds charged per byte written to / read from the persistent
    /// store.
    pub checkpoint_seconds_per_byte: f64,
    /// Real seconds a replacement rank sleeps before starting work
    /// (process-spawn cost).
    pub replacement_cost: f64,
    /// Maximum number of deaths the injector may cause over the whole job.
    pub max_failures: usize,
}

impl Default for ThreadConfig {
    fn default() -> Self {
        Self {
            policy: FailurePolicy::ReplaceRank,
            emulate: LatencyModel::default(),
            seconds_per_flop: 1.0e-9,
            checkpoint_seconds_per_byte: 1.0e-9,
            replacement_cost: 0.05,
            max_failures: usize::MAX,
        }
    }
}

impl ThreadConfig {
    /// Zero emulated costs: the backend runs at raw thread speed, which is
    /// what bit-parity tests want.
    pub fn fast() -> Self {
        Self {
            emulate: LatencyModel::zero(),
            seconds_per_flop: 0.0,
            checkpoint_seconds_per_byte: 0.0,
            replacement_cost: 0.0,
            ..Self::default()
        }
    }

    /// Builder-style: set the failure policy.
    pub fn with_policy(mut self, policy: FailurePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Builder-style: set the emulated latency model.
    pub fn with_latency(mut self, emulate: LatencyModel) -> Self {
        self.emulate = emulate;
        self
    }

    /// Builder-style: set the per-FLOP cost.
    pub fn with_seconds_per_flop(mut self, seconds: f64) -> Self {
        self.seconds_per_flop = seconds;
        self
    }

    /// Builder-style: set the checkpoint bandwidth cost.
    pub fn with_checkpoint_seconds_per_byte(mut self, seconds: f64) -> Self {
        self.checkpoint_seconds_per_byte = seconds;
        self
    }

    /// Builder-style: set the replacement-spawn cost.
    pub fn with_replacement_cost(mut self, seconds: f64) -> Self {
        self.replacement_cost = seconds;
        self
    }

    /// Builder-style: cap the number of injected deaths.
    pub fn with_max_failures(mut self, max: usize) -> Self {
        self.max_failures = max;
        self
    }
}

/// What a [`DeathInjector`] sees when deciding whether a rank dies at a
/// failure point.
#[derive(Debug, Clone, Copy)]
pub struct DeathContext {
    /// World rank of the calling thread.
    pub world_rank: usize,
    /// Incarnation of the calling thread (0 = original).
    pub incarnation: u64,
    /// Collectives this incarnation has completed so far — a deterministic
    /// per-rank progress counter, unlike wall time.
    pub collectives: u64,
    /// Real seconds since the job started.
    pub elapsed: f64,
}

/// Decides, at each failure point of the threaded backend, whether the
/// calling rank dies (a real panic unwind). Implementations live in
/// `resilient-faults`; the runtime only defines the boundary.
pub trait DeathInjector: Send + Sync {
    /// Should the rank described by `ctx` die here?
    fn should_die(&self, ctx: &DeathContext) -> bool;
}

/// Shared state of one threaded job (the real-threads analogue of
/// [`World`](crate::world::World)).
pub struct ThreadWorld {
    /// Job configuration.
    pub config: ThreadConfig,
    /// Number of world ranks.
    pub size: usize,
    /// One mailbox per world rank.
    pub mailboxes: Vec<Mailbox>,
    /// The collective rendezvous engine (same one the simulator uses).
    pub engine: CollectiveEngine,
    /// Liveness, failure generations and epochs.
    pub health: HealthBoard,
    /// Per-rank persistent storage surviving rank death (LFLR substrate).
    pub persistent: PersistentStore,
    /// Wall-clock origin of the job; `ThreadComm::now` is seconds since.
    pub start: Instant,
    /// Fault injector consulted at failure points, if any.
    pub injector: Option<Arc<dyn DeathInjector>>,
    /// Statistics of incarnations that died.
    pub lost_stats: Mutex<Vec<RankStats>>,
    /// Bound on every blocking wait ([`WAIT_DEADLINE`]).
    deadline: Duration,
}

impl ThreadWorld {
    fn new(
        config: ThreadConfig,
        size: usize,
        injector: Option<Arc<dyn DeathInjector>>,
        deadline: Duration,
    ) -> Arc<Self> {
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        let poll_rounds = poll_rounds_for(size, cores);
        Arc::new(Self {
            mailboxes: (0..size)
                .map(|_| Mailbox::with_poll_rounds(poll_rounds))
                .collect(),
            engine: CollectiveEngine::with_poll_rounds(poll_rounds),
            deadline,
            health: HealthBoard::new(size, config.policy),
            persistent: PersistentStore::new(size),
            start: Instant::now(),
            injector,
            lost_stats: Mutex::new(Vec::new()),
            config,
            size,
        })
    }

    /// Wake every blocked receive and collective wait (called on failure).
    pub fn interrupt_all(&self) {
        for mb in &self.mailboxes {
            mb.interrupt();
        }
        self.engine.interrupt();
    }
}

/// Handle to an in-flight nonblocking reduction on the threaded backend.
///
/// Carries the real post time so that [`ThreadComm::wait_vector`] only
/// charges the part of the emulated latency window that local work did not
/// already overlap — the wall-clock realisation of latency hiding.
#[must_use = "a pending collective must be completed with wait_vector"]
pub struct ThreadPending {
    key: SlotKey,
    posted_at: Instant,
    cost: f64,
}

/// The communicator handle owned by one rank thread.
pub struct ThreadComm {
    world: Arc<ThreadWorld>,
    world_rank: usize,
    incarnation: u64,
    /// Collective sequence counter (reset at each recovery).
    seq: u64,
    /// Communication epoch this rank has acknowledged.
    epoch: u64,
    /// Failure generation this rank has acknowledged (recovered from).
    acked_generation: u64,
    comm_id: u64,
    /// For shrunk communicators: group rank -> world rank mapping.
    group: Option<Vec<usize>>,
    /// Landing buffer for reductions whose result is returned by value
    /// (scalars, barriers), kept for its capacity.
    reduced: Vec<f64>,
    // -- statistics --
    emulated_compute: f64,
    emulated_wait: f64,
    emulated_recovery: f64,
    messages_sent: u64,
    bytes_sent: u64,
    collectives: u64,
    recoveries: u64,
    check_flops: u64,
}

impl ThreadComm {
    fn new(world: Arc<ThreadWorld>, rank: usize, incarnation: u64) -> Self {
        let epoch = world.health.epoch();
        let acked_generation = initial_acked_generation(&world.health, incarnation);
        Self {
            world,
            world_rank: rank,
            incarnation,
            seq: 0,
            epoch,
            acked_generation,
            comm_id: 0,
            group: None,
            reduced: Vec::new(),
            emulated_compute: 0.0,
            emulated_wait: 0.0,
            emulated_recovery: 0.0,
            messages_sent: 0,
            bytes_sent: 0,
            collectives: 0,
            recoveries: 0,
            check_flops: 0,
        }
    }

    // ------------------------------------------------------------------
    // Identity
    // ------------------------------------------------------------------

    /// Rank within the current communicator (group rank after a shrink).
    pub fn rank(&self) -> usize {
        match &self.group {
            None => self.world_rank,
            Some(g) => g
                .iter()
                .position(|&r| r == self.world_rank)
                .unwrap_or(usize::MAX),
        }
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

    /// Incarnation number: 0 for the original thread, >0 for replacements.
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

    /// The configuration this job runs under.
    pub fn config(&self) -> &ThreadConfig {
        &self.world.config
    }

    fn to_world(&self, rank: usize) -> Result<usize> {
        if rank == ANY_SOURCE {
            return Ok(ANY_SOURCE);
        }
        match &self.group {
            None => {
                if rank < self.world.size {
                    Ok(rank)
                } else {
                    Err(RuntimeError::InvalidRank {
                        rank,
                        size: self.world.size,
                    })
                }
            }
            Some(g) => g.get(rank).copied().ok_or(RuntimeError::InvalidRank {
                rank,
                size: g.len(),
            }),
        }
    }

    fn to_group(&self, world_rank: usize) -> usize {
        match &self.group {
            None => world_rank,
            Some(g) => g
                .iter()
                .position(|&r| r == world_rank)
                .unwrap_or(usize::MAX),
        }
    }

    // ------------------------------------------------------------------
    // Wall-clock time and emulated cost
    // ------------------------------------------------------------------

    /// Real seconds since the job started.
    pub fn now(&self) -> f64 {
        self.world.start.elapsed().as_secs_f64()
    }

    /// Burn `seconds` of real time: sleep for sleep-granularity durations,
    /// spin below. Sleeping (rather than spinning) is what lets more rank
    /// threads than cores overlap their latency windows honestly.
    fn burn(seconds: f64) {
        if !seconds.is_finite() || seconds <= 0.0 {
            return;
        }
        if seconds >= SPIN_BELOW {
            thread::sleep(Duration::from_secs_f64(seconds));
        } else {
            let deadline = Instant::now() + Duration::from_secs_f64(seconds);
            while Instant::now() < deadline {
                std::hint::spin_loop();
            }
        }
    }

    /// Charge `seconds` of emulated computation (burned in real time).
    pub fn advance(&mut self, seconds: f64) {
        if seconds.is_finite() && seconds > 0.0 {
            Self::burn(seconds);
            self.emulated_compute += seconds;
        }
        self.maybe_die();
    }

    /// Charge the cost of `flops` floating-point operations at the
    /// configured rate.
    pub fn charge_flops(&mut self, flops: usize) {
        let dt = self.world.config.seconds_per_flop * flops as f64;
        self.advance(dt);
    }

    /// Attribute `flops` to resilience checks (ledger only; no time).
    pub fn record_check_flops(&mut self, flops: usize) {
        self.check_flops += flops as u64;
    }

    fn emulate_wait(&mut self, seconds: f64) {
        if seconds.is_finite() && seconds > 0.0 {
            Self::burn(seconds);
            self.emulated_wait += seconds;
        }
    }

    fn emulate_recovery(&mut self, seconds: f64) {
        if seconds.is_finite() && seconds > 0.0 {
            Self::burn(seconds);
            self.emulated_recovery += seconds;
        }
    }

    // ------------------------------------------------------------------
    // Failure points
    // ------------------------------------------------------------------

    /// Explicit failure point: consult the injector, then check health.
    pub fn failure_point(&mut self) -> Result<()> {
        self.maybe_die();
        self.check_health()
    }

    /// Check the health board: error if the job aborted or an unacknowledged
    /// failure exists.
    pub fn check_health(&self) -> Result<()> {
        self.world.health.check(self.acked_generation)
    }

    fn maybe_die(&mut self) {
        let Some(injector) = self.world.injector.clone() else {
            return;
        };
        if self.world.health.failure_count() >= self.world.config.max_failures {
            return;
        }
        let ctx = DeathContext {
            world_rank: self.world_rank,
            incarnation: self.incarnation,
            collectives: self.collectives,
            elapsed: self.now(),
        };
        if injector.should_die(&ctx) {
            self.die();
        }
    }

    /// Kill this rank for real: record the failure, stash partial
    /// statistics, wake all waiters and unwind the thread.
    fn die(&mut self) -> ! {
        let time = self.now();
        let generation = self
            .world
            .health
            .record_failure(self.world_rank, self.incarnation, time);
        self.world.lost_stats.lock().push(self.snapshot_stats());
        self.world.interrupt_all();
        panic::panic_any(RankKilled {
            rank: self.world_rank,
            incarnation: self.incarnation,
            time,
            generation,
        });
    }

    // ------------------------------------------------------------------
    // Point-to-point messaging
    // ------------------------------------------------------------------

    fn send_payload(&mut self, dest: usize, tag: i32, payload: Payload) -> Result<()> {
        self.maybe_die();
        self.check_health()?;
        let dest_world = self.to_world(dest)?;
        if !self.world.health.is_alive(dest_world) {
            return Err(RuntimeError::ProcFailed {
                rank: dest_world,
                generation: self.world.health.generation(),
            });
        }
        let bytes = payload.byte_len();
        let msg = Message {
            source: self.world_rank,
            dest: dest_world,
            tag,
            epoch: self.epoch,
            sent_at: self.now(),
            payload,
        };
        self.world.mailboxes[dest_world].deposit(msg);
        self.messages_sent += 1;
        self.bytes_sent += bytes as u64;
        Ok(())
    }

    fn recv_payload(&mut self, source: usize, tag: i32) -> Result<(usize, Payload)> {
        self.maybe_die();
        let source_world = self.to_world(source)?;
        let mut expired = deadline_clock(self.world.deadline);
        loop {
            let mailbox = &self.world.mailboxes[self.world_rank];
            // Read before polling: a deposit or interrupt after this point
            // makes `wait_since` return at once.
            let ticket = mailbox.ticket();
            self.check_health()?;
            match mailbox.poll(source_world, tag, self.epoch) {
                PollOutcome::Found(msg) => {
                    // Emulate only the part of the message latency that the
                    // real delivery delay has not already covered.
                    let arrival = msg.sent_at + self.world.config.emulate.p2p_cost(msg.byte_len());
                    self.emulate_wait(arrival - self.now());
                    return Ok((self.to_group(msg.source), msg.payload));
                }
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
    }

    /// Send a slice of `f64` values to `dest` with the given tag.
    pub fn send_f64(&mut self, dest: usize, tag: i32, data: &[f64]) -> Result<()> {
        self.send_payload(dest, tag, Payload::F64(data.to_vec()))
    }

    /// Receive an `f64` vector; returns `(source_rank, data)`.
    pub fn recv_f64(&mut self, source: usize, tag: i32) -> Result<(usize, Vec<f64>)> {
        let (src, payload) = self.recv_payload(source, tag)?;
        Ok((src, payload.into_f64()?))
    }

    // ------------------------------------------------------------------
    // Collectives
    // ------------------------------------------------------------------

    /// The opening of every collective: failure point, then the slot key,
    /// participant count and emulated cost of the communicator's next one.
    fn begin_collective(
        &mut self,
        data: &[f64],
        reduce_elems: usize,
    ) -> Result<(SlotKey, usize, f64)> {
        self.failure_point()?;
        let key = SlotKey {
            epoch: self.epoch,
            comm_id: self.comm_id,
            kind: SlotKind::Collective,
            seq: self.seq,
        };
        self.seq += 1;
        let expected = self.size();
        let cost = self.world.config.emulate.collective_cost(
            expected,
            std::mem::size_of_val(data),
            reduce_elems,
        );
        Ok((key, expected, cost))
    }

    /// The blocking reduction every scalar/vector allreduce and the barrier
    /// go through: post, wait for the engine's ascending-rank fold to land
    /// in `out`, then emulate the modelled latency. Allocates nothing when
    /// `out` has the capacity.
    fn reduce_exchange(&mut self, op: ReduceOp, data: &[f64], out: &mut Vec<f64>) -> Result<()> {
        let (key, expected, cost) = self.begin_collective(data, data.len())?;
        self.world
            .engine
            .post_slice(key, self.rank(), expected, Some(op), data, 0.0, 0.0)?;
        self.world.engine.wait_reduced(
            key,
            &self.world.health,
            self.acked_generation,
            &mut deadline_clock(self.world.deadline),
            out,
        )?;
        self.collectives += 1;
        self.emulate_wait(cost);
        Ok(())
    }

    /// [`reduce_exchange`](Self::reduce_exchange) into the communicator's
    /// own landing buffer; returns the first reduced value, if any.
    fn reduce_in_place(&mut self, op: ReduceOp, data: &[f64]) -> Result<Option<f64>> {
        let mut reduced = std::mem::take(&mut self.reduced);
        let outcome = self.reduce_exchange(op, data, &mut reduced);
        let first = reduced.first().copied();
        self.reduced = reduced;
        outcome.map(|()| first)
    }

    /// Block until every rank of the communicator arrives.
    pub fn barrier(&mut self) -> Result<()> {
        self.reduce_in_place(ReduceOp::Sum, &[]).map(|_| ())
    }

    /// Element-wise reduction of `data` across all ranks, folded in
    /// ascending rank order (bit-identical to the simulator backend).
    pub fn allreduce(&mut self, op: ReduceOp, data: &[f64]) -> Result<Vec<f64>> {
        let mut out = Vec::with_capacity(data.len());
        self.reduce_exchange(op, data, &mut out)?;
        Ok(out)
    }

    /// Scalar reduction across all ranks.
    pub fn allreduce_scalar(&mut self, op: ReduceOp, value: f64) -> Result<f64> {
        let reduced = self.reduce_in_place(op, &[value])?;
        Ok(reduced.expect("a scalar reduction folds at least this rank's value"))
    }

    /// Sum a local partial across all ranks.
    pub fn global_dot(&mut self, local_partial: f64) -> Result<f64> {
        self.allreduce_scalar(ReduceOp::Sum, local_partial)
    }

    /// Gather every rank's contribution, indexed by rank.
    pub fn allgather(&mut self, data: &[f64]) -> Result<Vec<Vec<f64>>> {
        let (key, expected, cost) = self.begin_collective(data, 0)?;
        self.world
            .engine
            .post_slice(key, self.rank(), expected, None, data, 0.0, 0.0)?;
        let result = self.world.engine.wait_until(
            key,
            &self.world.health,
            self.acked_generation,
            &mut deadline_clock(self.world.deadline),
        )?;
        self.collectives += 1;
        self.emulate_wait(cost);
        Ok(result.contributions)
    }

    /// Start a nonblocking element-wise reduction. The emulated latency
    /// window opens now; [`wait_vector`](Self::wait_vector) charges only
    /// whatever local work has not overlapped.
    pub fn iallreduce(&mut self, op: ReduceOp, data: &[f64]) -> Result<ThreadPending> {
        let (key, expected, cost) = self.begin_collective(data, data.len())?;
        self.world
            .engine
            .post_slice(key, self.rank(), expected, Some(op), data, 0.0, 0.0)?;
        Ok(ThreadPending {
            key,
            posted_at: Instant::now(),
            cost,
        })
    }

    /// Complete a nonblocking reduction: wait for the real rendezvous, then
    /// charge the unhidden remainder of the emulated latency window.
    pub fn wait_vector(&mut self, pending: ThreadPending) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.world.engine.wait_reduced(
            pending.key,
            &self.world.health,
            self.acked_generation,
            &mut deadline_clock(self.world.deadline),
            &mut out,
        )?;
        self.collectives += 1;
        let remaining = pending.cost - pending.posted_at.elapsed().as_secs_f64();
        self.emulate_wait(remaining);
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Persistent store (LFLR)
    // ------------------------------------------------------------------

    /// Store a value in this rank's persistent partition (survives this
    /// rank's death; charged at the checkpoint bandwidth).
    pub fn persist(&mut self, key: &str, value: impl Into<Stored>) -> Result<()> {
        let value = value.into();
        let bytes = value.byte_len();
        self.world.persistent.put(self.world_rank, key, value)?;
        let dt = self.world.config.checkpoint_seconds_per_byte * bytes as f64;
        if dt > 0.0 {
            Self::burn(dt);
            self.emulated_compute += dt;
        }
        Ok(())
    }

    /// Read a value from `rank`'s persistent partition.
    pub fn restore(&mut self, rank: usize, key: &str) -> Result<Stored> {
        let world_rank = self.to_world(rank)?;
        let value = self.world.persistent.get(world_rank, key)?;
        let dt = self.world.config.checkpoint_seconds_per_byte * value.byte_len() as f64;
        if dt > 0.0 {
            Self::burn(dt);
            self.emulated_compute += dt;
        }
        Ok(value)
    }

    /// Remove a key from this rank's persistent partition (no-op if absent).
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

    // ------------------------------------------------------------------
    // Recovery
    // ------------------------------------------------------------------

    /// Participate in the post-failure recovery rendezvous (ReplaceRank
    /// policy). Same protocol as the simulator's
    /// [`Comm::recovery_rendezvous`](crate::comm::Comm::recovery_rendezvous):
    /// all world ranks meet, agree (min) on `proposal`, advance to a fresh
    /// epoch, reset collective sequencing.
    pub fn recovery_rendezvous(&mut self, proposal: f64) -> Result<RecoveryInfo> {
        let generation = self.world.health.generation();
        self.acked_generation = generation;
        let expected = self.world.size;
        let key = SlotKey {
            epoch: 0,
            comm_id: 0,
            kind: SlotKind::Recovery,
            seq: generation,
        };
        self.world
            .engine
            .post(key, self.world_rank, expected, vec![proposal], 0.0, 0.0)?;
        let result = self.world.engine.wait_until(
            key,
            &self.world.health,
            generation,
            &mut deadline_clock(self.world.deadline),
        )?;
        let agreed = result
            .contributions
            .iter()
            .filter_map(|c| c.first().copied())
            .fold(f64::INFINITY, f64::min);
        self.epoch = self.world.health.complete_recovery(generation);
        self.world.engine.purge_older_than(self.epoch);
        self.world.mailboxes[self.world_rank].purge_older_than(self.epoch);
        self.seq = 0;
        self.comm_id = 0;
        self.group = None;
        self.recoveries += 1;
        let cost = self.world.config.emulate.collective_cost(expected, 16, 2);
        self.emulate_recovery(cost);
        Ok(RecoveryInfo {
            generation,
            epoch: self.epoch,
            failed_ranks: self.world.health.failed_ranks(),
            agreed: if agreed.is_finite() { agreed } else { proposal },
            completed_at: self.now(),
        })
    }

    /// Rebuild the communicator without the failed ranks (Shrink policy).
    pub fn shrink(&mut self) -> Result<ShrinkInfo> {
        let generation = self.world.health.generation();
        self.acked_generation = generation;
        let alive = self.world.health.alive_ranks();
        let expected = alive.len();
        let my_index = alive
            .iter()
            .position(|&r| r == self.world_rank)
            .expect("a dead rank cannot call shrink");
        let key = SlotKey {
            epoch: 0,
            comm_id: self.comm_id,
            kind: SlotKind::Shrink,
            seq: generation,
        };
        self.world
            .engine
            .post(key, my_index, expected, Vec::new(), 0.0, 0.0)?;
        self.world.engine.wait_until(
            key,
            &self.world.health,
            generation,
            &mut deadline_clock(self.world.deadline),
        )?;
        self.epoch = self.world.health.complete_recovery(generation);
        self.world.engine.purge_older_than(self.epoch);
        self.world.mailboxes[self.world_rank].purge_older_than(self.epoch);
        self.seq = 0;
        self.comm_id = 1_000 + generation;
        self.group = Some(alive.clone());
        self.recoveries += 1;
        let cost = self
            .world
            .config
            .emulate
            .collective_cost(expected.max(1), 16, 1);
        self.emulate_recovery(cost);
        Ok(ShrinkInfo {
            new_rank: my_index,
            new_size: expected,
            failed_ranks: self.world.health.failed_ranks(),
            epoch: self.epoch,
        })
    }

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    /// Snapshot of this rank's statistics. `virtual_time` holds the wall
    /// seconds since job start; the time categories hold the *emulated*
    /// components (the rest is real execution).
    pub fn snapshot_stats(&self) -> RankStats {
        RankStats {
            rank: self.world_rank,
            incarnation: self.incarnation,
            virtual_time: self.now(),
            compute_time: self.emulated_compute,
            comm_wait_time: self.emulated_wait,
            noise_time: 0.0,
            recovery_time: self.emulated_recovery,
            messages_sent: self.messages_sent,
            bytes_sent: self.bytes_sent,
            collectives: self.collectives,
            recoveries: self.recoveries,
            checkpoint_bytes: 0,
            check_flops: self.check_flops,
        }
    }
}

impl crate::backend::CommBackend for ThreadComm {
    type Pending = ThreadPending;

    fn rank(&self) -> usize {
        ThreadComm::rank(self)
    }
    fn size(&self) -> usize {
        ThreadComm::size(self)
    }
    fn world_rank(&self) -> usize {
        ThreadComm::world_rank(self)
    }
    fn world_size(&self) -> usize {
        ThreadComm::world_size(self)
    }
    fn incarnation(&self) -> u64 {
        ThreadComm::incarnation(self)
    }
    fn recoveries(&self) -> u64 {
        ThreadComm::recoveries(self)
    }

    fn now(&self) -> f64 {
        ThreadComm::now(self)
    }
    fn advance(&mut self, seconds: f64) {
        ThreadComm::advance(self, seconds)
    }
    fn charge_flops(&mut self, flops: usize) {
        ThreadComm::charge_flops(self, flops)
    }
    fn record_check_flops(&mut self, flops: usize) {
        ThreadComm::record_check_flops(self, flops)
    }
    fn failure_point(&mut self) -> Result<()> {
        ThreadComm::failure_point(self)
    }
    fn check_health(&self) -> Result<()> {
        ThreadComm::check_health(self)
    }

    fn send_f64(&mut self, dest: usize, tag: i32, data: &[f64]) -> Result<()> {
        ThreadComm::send_f64(self, dest, tag, data)
    }
    fn recv_f64(&mut self, source: usize, tag: i32) -> Result<(usize, Vec<f64>)> {
        ThreadComm::recv_f64(self, source, tag)
    }

    fn barrier(&mut self) -> Result<()> {
        ThreadComm::barrier(self)
    }
    fn allreduce(&mut self, op: ReduceOp, data: &[f64]) -> Result<Vec<f64>> {
        ThreadComm::allreduce(self, op, data)
    }
    fn allreduce_scalar(&mut self, op: ReduceOp, value: f64) -> Result<f64> {
        ThreadComm::allreduce_scalar(self, op, value)
    }
    fn global_dot(&mut self, local_partial: f64) -> Result<f64> {
        ThreadComm::global_dot(self, local_partial)
    }
    fn allgather(&mut self, data: &[f64]) -> Result<Vec<Vec<f64>>> {
        ThreadComm::allgather(self, data)
    }
    fn iallreduce(&mut self, op: ReduceOp, data: &[f64]) -> Result<ThreadPending> {
        ThreadComm::iallreduce(self, op, data)
    }
    fn wait_vector(&mut self, pending: ThreadPending) -> Result<Vec<f64>> {
        ThreadComm::wait_vector(self, pending)
    }

    fn persist(&mut self, key: &str, value: Stored) -> Result<()> {
        ThreadComm::persist(self, key, value)
    }
    fn restore(&mut self, rank: usize, key: &str) -> Result<Stored> {
        ThreadComm::restore(self, rank, key)
    }
    fn unpersist(&mut self, key: &str) {
        ThreadComm::unpersist(self, key)
    }
    fn persisted(&self, rank: usize, key: &str) -> bool {
        ThreadComm::persisted(self, rank, key)
    }

    fn recovery_rendezvous(&mut self, proposal: f64) -> Result<RecoveryInfo> {
        ThreadComm::recovery_rendezvous(self, proposal)
    }
    fn shrink(&mut self) -> Result<ShrinkInfo> {
        ThreadComm::shrink(self)
    }
}

enum RankExit<R> {
    Done {
        rank: usize,
        result: Result<R>,
        stats: RankStats,
    },
    Killed(RankKilled),
    Panicked {
        rank: usize,
        message: String,
    },
}

/// The real-threads job launcher: the wall-clock counterpart of
/// [`Runtime`](crate::launcher::Runtime).
///
/// ```
/// use resilient_runtime::{ReduceOp, ThreadConfig, ThreadRuntime};
///
/// let runtime = ThreadRuntime::new(ThreadConfig::fast());
/// let job = runtime.run(4, |comm| {
///     comm.allreduce_scalar(ReduceOp::Sum, (comm.rank() + 1) as f64)
/// });
/// assert_eq!(job.unwrap_all(), vec![10.0; 4]);
/// ```
pub struct ThreadRuntime {
    config: ThreadConfig,
    injector: Option<Arc<dyn DeathInjector>>,
    deadline: Duration,
}

impl ThreadRuntime {
    /// Create a launcher with the given configuration and no fault injector.
    pub fn new(config: ThreadConfig) -> Self {
        install_panic_hook();
        Self {
            config,
            injector: None,
            deadline: WAIT_DEADLINE,
        }
    }

    /// Builder-style: attach a fault injector consulted at failure points.
    pub fn with_injector(mut self, injector: Arc<dyn DeathInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// The configuration this launcher uses.
    pub fn config(&self) -> &ThreadConfig {
        &self.config
    }

    /// Shorten the bound on blocking waits so a test of the timeout path
    /// does not take [`WAIT_DEADLINE`].
    #[cfg(test)]
    fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Run `f` on `size` rank threads and collect results, statistics and
    /// failure events. Ranks killed by the injector are respawned under
    /// [`FailurePolicy::ReplaceRank`], exactly like the simulator launcher.
    pub fn run<R, F>(&self, size: usize, f: F) -> JobResult<R>
    where
        R: Send + 'static,
        F: Fn(&mut ThreadComm) -> Result<R> + Send + Sync + 'static,
    {
        assert!(size > 0, "cannot run a job with zero ranks");
        let world = ThreadWorld::new(
            self.config.clone(),
            size,
            self.injector.clone(),
            self.deadline,
        );
        let f = Arc::new(f);
        let (tx, rx) = mpsc::channel::<RankExit<R>>();

        // The thread of each rank's current incarnation.
        let mut handles: Vec<_> = (0..size)
            .map(|rank| {
                Some(spawn_rank(
                    Arc::clone(&world),
                    Arc::clone(&f),
                    tx.clone(),
                    rank,
                    0,
                ))
            })
            .collect();

        let mut results: Vec<Option<R>> = (0..size).map(|_| None).collect();
        let mut errors: Vec<Option<RuntimeError>> = (0..size).map(|_| None).collect();
        let mut final_stats: Vec<RankStats> = (0..size)
            .map(|rank| RankStats {
                rank,
                ..RankStats::default()
            })
            .collect();
        let mut incarnations = vec![0u64; size];
        let mut remaining = size;

        while remaining > 0 {
            match rx.recv().expect("rank threads cannot all disappear") {
                RankExit::Done {
                    rank,
                    result,
                    stats,
                } => {
                    final_stats[rank] = stats;
                    match result {
                        Ok(v) => results[rank] = Some(v),
                        Err(e) => errors[rank] = Some(e),
                    }
                    remaining -= 1;
                }
                RankExit::Killed(info) => {
                    let respawn = self.config.policy == FailurePolicy::ReplaceRank
                        && incarnations[info.rank] + 1 < MAX_INCARNATIONS;
                    if respawn {
                        incarnations[info.rank] += 1;
                        let incarnation = world.health.record_replacement(info.rank);
                        // The dead incarnation reported from inside its
                        // thread; let that thread finish exiting before the
                        // replacement starts. Spawned while it is still
                        // winding down, the replacement may or may not
                        // inherit its malloc arena — a race that made the
                        // job's peak RSS bimodal.
                        if let Some(dead) = handles[info.rank].take() {
                            let _ = dead.join();
                        }
                        handles[info.rank] = Some(spawn_rank(
                            Arc::clone(&world),
                            Arc::clone(&f),
                            tx.clone(),
                            info.rank,
                            incarnation,
                        ));
                    } else {
                        errors[info.rank] = Some(RuntimeError::ProcFailed {
                            rank: info.rank,
                            generation: info.generation,
                        });
                        remaining -= 1;
                    }
                }
                RankExit::Panicked { rank, message } => {
                    errors[rank] = Some(RuntimeError::InvalidArgument(format!(
                        "rank {rank} panicked: {message}"
                    )));
                    remaining -= 1;
                }
            }
        }
        drop(tx);
        for h in handles.into_iter().flatten() {
            let _ = h.join();
        }

        let failures = world.health.events();
        let aborted = world.health.is_aborted();
        let mut all_stats = world.lost_stats.lock().clone();
        all_stats.extend(final_stats.iter().cloned());
        let job = JobStats::aggregate(&final_stats, failures.len());
        JobResult {
            results,
            errors,
            stats: final_stats,
            all_stats,
            failures,
            aborted,
            job,
        }
    }
}

fn spawn_rank<R, F>(
    world: Arc<ThreadWorld>,
    f: Arc<F>,
    tx: mpsc::Sender<RankExit<R>>,
    rank: usize,
    incarnation: u64,
) -> thread::JoinHandle<()>
where
    R: Send + 'static,
    F: Fn(&mut ThreadComm) -> Result<R> + Send + Sync + 'static,
{
    thread::Builder::new()
        .name(format!("trank-{rank}.{incarnation}"))
        .spawn(move || {
            let replacement_cost = world.config.replacement_cost;
            let mut comm = ThreadComm::new(world, rank, incarnation);
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                if incarnation > 0 {
                    // A real replacement process would spend this long being
                    // spawned; survivors waiting for the rendezvous pay it
                    // implicitly by really waiting.
                    comm.emulate_recovery(replacement_cost);
                }
                f(&mut comm)
            }));
            let exit = match outcome {
                Ok(result) => RankExit::Done {
                    rank,
                    result,
                    stats: comm.snapshot_stats(),
                },
                Err(payload) => match payload.downcast_ref::<RankKilled>() {
                    Some(info) => RankExit::Killed(*info),
                    None => {
                        let message = payload
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "unknown panic".to_string());
                        RankExit::Panicked { rank, message }
                    }
                },
            };
            let _ = tx.send(exit);
        })
        .expect("failed to spawn rank thread")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allreduce_matches_simulator_fold_order() {
        let rt = ThreadRuntime::new(ThreadConfig::fast());
        let r = rt.run(5, |comm| {
            comm.allreduce(ReduceOp::Sum, &[comm.rank() as f64, 1.0])
        });
        for v in r.unwrap_all() {
            assert_eq!(v, vec![10.0, 5.0]);
        }
    }

    #[test]
    fn collectives_and_gather() {
        let rt = ThreadRuntime::new(ThreadConfig::fast());
        let r = rt.run(3, |comm| {
            comm.barrier()?;
            let all = comm.allgather(&[comm.rank() as f64 * 2.0])?;
            let min = comm.allreduce_scalar(ReduceOp::Min, comm.rank() as f64)?;
            Ok((all, min))
        });
        for (all, min) in r.unwrap_all() {
            assert_eq!(all, vec![vec![0.0], vec![2.0], vec![4.0]]);
            assert_eq!(min, 0.0);
        }
    }

    #[test]
    fn ring_pass_point_to_point() {
        let rt = ThreadRuntime::new(ThreadConfig::fast());
        let n = 4;
        let r = rt.run(n, move |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send_f64(next, 0, &[comm.rank() as f64])?;
            let (_, v) = comm.recv_f64(prev, 0)?;
            Ok(v[0])
        });
        let vals = r.unwrap_all();
        for (rank, v) in vals.iter().enumerate() {
            assert_eq!(*v, ((rank + n - 1) % n) as f64);
        }
    }

    #[test]
    fn nonblocking_overlap_charges_less_than_blocking() {
        // With an emulated 20 ms collective and 20 ms of overlapping local
        // work, the nonblocking wait should charge (almost) nothing.
        let cfg = ThreadConfig::fast().with_latency(LatencyModel {
            alpha: 20.0e-3,
            beta: 0.0,
            gamma: 0.0,
        });
        let rt = ThreadRuntime::new(cfg);
        let r = rt.run(2, |comm| {
            let pending = comm.iallreduce(ReduceOp::Sum, &[1.0])?;
            comm.advance(25.0e-3);
            let v = pending;
            let out = comm.wait_vector(v)?;
            assert_eq!(out, vec![2.0]);
            Ok(comm.snapshot_stats().comm_wait_time)
        });
        for wait in r.unwrap_all() {
            assert!(
                wait < 10.0e-3,
                "overlapped wait should be mostly hidden, got {wait}"
            );
        }
    }

    #[test]
    fn persist_survives_and_restores() {
        let rt = ThreadRuntime::new(ThreadConfig::fast());
        let r = rt.run(2, |comm| {
            comm.persist("x", vec![comm.rank() as f64])?;
            comm.barrier()?;
            let peer = 1 - comm.rank();
            let v = comm.restore(peer, "x")?.into_f64()?;
            Ok(v[0])
        });
        assert_eq!(r.unwrap_all(), vec![1.0, 0.0]);
    }

    struct KillOnceAtCollective {
        rank: usize,
        at: u64,
    }
    impl DeathInjector for KillOnceAtCollective {
        fn should_die(&self, ctx: &DeathContext) -> bool {
            ctx.world_rank == self.rank && ctx.incarnation == 0 && ctx.collectives >= self.at
        }
    }

    #[test]
    fn injected_death_is_replaced_and_recovered() {
        let rt = ThreadRuntime::new(ThreadConfig::fast())
            .with_injector(Arc::new(KillOnceAtCollective { rank: 1, at: 3 }));
        let r = rt.run(3, |comm| {
            let mut step = if comm.is_replacement() {
                let info = comm.recovery_rendezvous(f64::INFINITY)?;
                info.agreed as usize
            } else {
                0
            };
            while step < 10 {
                match comm.barrier() {
                    Ok(()) => step += 1,
                    Err(e) if e.is_failure() => {
                        let info = comm.recovery_rendezvous(step as f64)?;
                        step = info.agreed as usize;
                    }
                    Err(e) => return Err(e),
                }
            }
            Ok((comm.rank(), step, comm.incarnation()))
        });
        assert!(!r.aborted);
        assert_eq!(r.failures.len(), 1);
        assert_eq!(r.failures[0].rank, 1);
        assert!(r.all_ok(), "errors: {:?}", r.errors);
        for (rank, step, incarnation) in r.unwrap_all() {
            assert_eq!(step, 10);
            if rank == 1 {
                assert_eq!(incarnation, 1, "rank 1 must be the replacement");
            }
        }
    }

    #[test]
    fn shrink_policy_rebuilds_smaller_comm() {
        let rt = ThreadRuntime::new(ThreadConfig::fast().with_policy(FailurePolicy::Shrink))
            .with_injector(Arc::new(KillOnceAtCollective { rank: 0, at: 2 }));
        let r = rt.run(3, |comm| {
            let mut sum = 0.0;
            let mut step = 0;
            while step < 6 {
                match comm.allreduce_scalar(ReduceOp::Sum, 1.0) {
                    Ok(s) => {
                        sum = s;
                        step += 1;
                    }
                    Err(e) if e.is_failure() => {
                        let info = comm.shrink()?;
                        assert_eq!(info.new_size, 2);
                        assert_eq!(info.failed_ranks, vec![0]);
                    }
                    Err(e) => return Err(e),
                }
            }
            Ok((comm.rank(), comm.size(), sum))
        });
        assert!(r.results[0].is_none(), "rank 0 died and is not replaced");
        for rank in 1..3 {
            let (new_rank, new_size, sum) = r.results[rank].expect("survivor finishes");
            assert_eq!(new_size, 2);
            assert!(new_rank < 2);
            assert_eq!(sum, 2.0, "post-shrink allreduce spans 2 ranks");
        }
    }

    #[test]
    fn persistent_store_survives_injected_death() {
        let rt = ThreadRuntime::new(ThreadConfig::fast())
            .with_injector(Arc::new(KillOnceAtCollective { rank: 1, at: 2 }));
        let r = rt.run(2, |comm| {
            if comm.is_replacement() {
                comm.recovery_rendezvous(0.0)?;
                let v = comm.restore(comm.rank(), "state")?.into_f64()?;
                assert_eq!(v, vec![101.0]);
            } else {
                comm.persist("state", vec![comm.rank() as f64 + 100.0])?;
            }
            let mut step = 0;
            while step < 8 {
                match comm.barrier() {
                    Ok(()) => step += 1,
                    Err(e) if e.is_failure() => {
                        let info = comm.recovery_rendezvous(0.0)?;
                        step = info.agreed as usize;
                    }
                    Err(e) => return Err(e),
                }
            }
            Ok(comm.incarnation())
        });
        assert!(r.all_ok(), "errors: {:?}", r.errors);
        assert_eq!(r.failures.len(), 1);
    }

    #[test]
    fn stats_count_messages_and_collectives() {
        let rt = ThreadRuntime::new(ThreadConfig::fast());
        let r = rt.run(2, |comm| {
            comm.send_f64(1 - comm.rank(), 0, &[1.0, 2.0])?;
            let _ = comm.recv_f64(1 - comm.rank(), 0)?;
            comm.barrier()?;
            Ok(())
        });
        assert!(r.all_ok());
        assert_eq!(r.job.total_messages, 2);
        assert_eq!(r.job.total_bytes, 32);
        assert_eq!(r.job.total_collectives, 2);
    }

    #[test]
    fn original_rank_started_after_a_death_still_sees_it() {
        // Rank 1 dies before rank 0's thread gets to construct its
        // communicator. Rank 0 never saw that failure, so its first
        // operation must report it; only a replacement starts out having
        // acknowledged the failures that caused it.
        let world = ThreadWorld::new(ThreadConfig::fast(), 2, None, WAIT_DEADLINE);
        world.health.record_failure(1, 0, 0.0);
        let original = ThreadComm::new(Arc::clone(&world), 0, 0);
        assert!(matches!(
            original.check_health(),
            Err(RuntimeError::Revoked { generation: 1 })
        ));
        let incarnation = world.health.record_replacement(1);
        let replacement = ThreadComm::new(world, 1, incarnation);
        assert!(replacement.check_health().is_ok());
    }

    #[test]
    fn only_jobs_that_fit_the_cores_poll() {
        assert_eq!(poll_rounds_for(2, 2), POLL_ROUNDS);
        assert_eq!(poll_rounds_for(1, 2), POLL_ROUNDS);
        assert_eq!(poll_rounds_for(3, 2), 0);
        assert_eq!(poll_rounds_for(8, 2), 0, "8 rank threads on 2 vCPUs park");
        // The world applies that rule to the host it runs on, to the engine
        // and to every mailbox alike.
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        for size in [1, 2, 8, 4 * cores + 1] {
            let world = ThreadWorld::new(ThreadConfig::fast(), size, None, WAIT_DEADLINE);
            assert_eq!(world.engine.poll_rounds(), poll_rounds_for(size, cores));
        }
        let oversubscribed =
            ThreadWorld::new(ThreadConfig::fast(), 4 * cores + 1, None, WAIT_DEADLINE);
        assert_eq!(oversubscribed.engine.poll_rounds(), 0);
    }

    #[test]
    fn skipped_collective_times_out_naming_the_missing_rank() {
        let rt = ThreadRuntime::new(ThreadConfig::fast()).with_deadline(Duration::from_millis(50));
        let r = rt.run(3, |comm| {
            if comm.rank() == 1 {
                return Ok(());
            }
            comm.barrier()
        });
        assert!(r.results[1].is_some());
        for rank in [0, 2] {
            match &r.errors[rank] {
                Some(RuntimeError::Timeout {
                    waiting_for,
                    missing,
                }) => {
                    assert!(waiting_for.contains("Collective"), "{waiting_for}");
                    assert_eq!(missing, &[1]);
                }
                other => panic!("rank {rank}: expected Timeout, got {other:?}"),
            }
        }
    }

    #[test]
    fn receive_nobody_sends_times_out_naming_the_source() {
        let rt = ThreadRuntime::new(ThreadConfig::fast()).with_deadline(Duration::from_millis(50));
        let r = rt.run(2, |comm| {
            if comm.rank() == 0 {
                comm.recv_f64(1, 3).map(|_| ())
            } else {
                Ok(())
            }
        });
        match &r.errors[0] {
            Some(RuntimeError::Timeout { missing, .. }) => assert_eq!(missing, &[1]),
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn skipped_recovery_rendezvous_times_out() {
        // The shape of the old thread-death flake: the survivor waits in the
        // recovery rendezvous, the replacement never joins it. A hang then;
        // an error naming the absent rank now.
        let rt = ThreadRuntime::new(ThreadConfig::fast())
            .with_deadline(Duration::from_millis(50))
            .with_injector(Arc::new(KillOnceAtCollective { rank: 1, at: 1 }));
        let r = rt.run(2, |comm| {
            if comm.is_replacement() {
                return Ok(());
            }
            loop {
                match comm.barrier() {
                    Ok(()) => {}
                    Err(e) if e.is_failure() => {
                        return comm.recovery_rendezvous(0.0).map(|_| ());
                    }
                    Err(e) => return Err(e),
                }
            }
        });
        match &r.errors[0] {
            Some(RuntimeError::Timeout {
                waiting_for,
                missing,
            }) => {
                assert!(waiting_for.contains("Recovery"), "{waiting_for}");
                assert_eq!(missing, &[1]);
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    #[ignore = "stress loop: run by the CI `threads` job under its timeout"]
    fn stress_death_and_shrink_200_times() {
        for _ in 0..200 {
            injected_death_is_replaced_and_recovered();
            shrink_policy_rebuilds_smaller_comm();
            persistent_store_survives_injected_death();
        }
    }
}
