//! The wall clock: ranks as worker threads under real time.
//!
//! There is one communicator ([`Comm`]); [`ThreadComm`] is that communicator
//! with a [`WallClock`] in it, where the simulator puts a
//! [`VirtualClock`](crate::clock::VirtualClock) (the crate doc tabulates
//! what each decides). Under this clock the same SPMD job *is* a small
//! machine rather than a model of one: collectives are real rendezvous,
//! a modelled cost is really slept or spun away, a wait that nobody ends is
//! a [`Timeout`](crate::error::RuntimeError::Timeout) after
//! `WAIT_DEADLINE`, and "a rank dies" means a [`DeathInjector`] had its
//! thread unwind with `panic_any(RankKilled)` through the launcher's
//! [`catch_unwind`](std::panic::catch_unwind) mid-solve. This is the
//! measurement substrate that turns the simulator's predicted speedups into
//! *measured* ones (`exp_backend_parity`), and the only runtime file that
//! reads `Instant`.
//!
//! A collective or message completes `cost` seconds after its last
//! participant posted — the engine's completion time, exactly as in the
//! simulator — and a rank waits out only what is left of that when it asks,
//! so work done since the post hides latency for real, measurably even on
//! an oversubscribed host because sleeping ranks release their core. An
//! operation that costs nothing reads no clock at all.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crate::clock::RankClock;
use crate::comm::Comm;
use crate::config::{CostModel, FailurePolicy, LatencyModel};
use crate::engine::POLL_ROUNDS;
use crate::error::Result;
use crate::launcher::{run_job, JobResult};
use crate::nonblocking::PendingCollective;
use crate::persistent::StableStore;
use crate::stats::RankStats;
use crate::world::World;

/// The one bound on every blocking wait under this clock — collective,
/// recovery rendezvous, shrink agreement, receive. A rank that has been
/// parked this long is waiting for a participant that is not coming (a
/// collective skipped on one rank, a replacement that never joined the
/// rendezvous); it gets [`RuntimeError::Timeout`](crate::error::RuntimeError::Timeout)
/// instead of a hang. Far above any legitimate wait: emulated costs are
/// milliseconds, and a peer's death interrupts a wait at once.
const WAIT_DEADLINE: Duration = Duration::from_secs(60);

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

/// Burn `seconds` of real time: sleep for sleep-granularity durations, spin
/// below. Sleeping (rather than spinning) is what lets more rank threads
/// than cores overlap their latency windows honestly. Returns what was
/// burned: `seconds`, or 0 if that is not a positive finite duration.
fn burn(seconds: f64) -> f64 {
    if !seconds.is_finite() || seconds <= 0.0 {
        return 0.0;
    }
    if seconds >= SPIN_BELOW {
        thread::sleep(Duration::from_secs_f64(seconds));
    } else {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        while Instant::now() < deadline {
            std::hint::spin_loop();
        }
    }
    seconds
}

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
    /// [`Comm::charge_flops`]. Zero means arithmetic costs only what it
    /// really costs.
    pub seconds_per_flop: f64,
    /// Real seconds charged per byte written to / read from the persistent
    /// store.
    pub checkpoint_seconds_per_byte: f64,
    /// Real seconds between a rank's death and its replacement starting
    /// work (process-spawn cost).
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
}

impl From<&ThreadConfig> for CostModel {
    fn from(config: &ThreadConfig) -> Self {
        Self {
            policy: config.policy,
            latency: config.emulate,
            seconds_per_flop: config.seconds_per_flop,
            checkpoint_seconds_per_byte: config.checkpoint_seconds_per_byte,
            replacement_cost: config.replacement_cost,
            max_failures: config.max_failures,
        }
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
}

/// Decides, at each failure point of a rank under the wall clock, whether
/// the calling rank dies (a real panic unwind). Implementations live in
/// `resilient-faults`; the runtime only defines the boundary.
pub trait DeathInjector: Send + Sync {
    /// Should the rank described by `ctx` die here?
    fn should_die(&self, ctx: &DeathContext) -> bool;
}

/// What the wall clocks of one job share: when it started, who decides
/// about deaths, and how long a parked wait may last.
#[derive(Clone)]
pub struct WallJob {
    start: Instant,
    injector: Option<Arc<dyn DeathInjector>>,
    deadline: Duration,
}

/// A rank's wall clock: real seconds since the job started, and a ledger of
/// the *emulated* seconds this rank spent on top of real execution.
pub struct WallClock {
    job: WallJob,
    emulated_compute: f64,
    emulated_wait: f64,
    emulated_recovery: f64,
}

impl RankClock for WallClock {
    type Job = WallJob;

    /// A replacement is a real thread that exists already; it becomes
    /// *available* at `at`, as a real replacement process would after being
    /// spawned. Survivors waiting for it in the rendezvous pay that time by
    /// really waiting.
    fn start(job: &WallJob, _rank: usize, _incarnation: u64, at: f64) -> Self {
        let mut clock = Self {
            job: job.clone(),
            emulated_compute: 0.0,
            emulated_wait: 0.0,
            emulated_recovery: 0.0,
        };
        if at > 0.0 {
            clock.spend_recovery(at - clock.now());
        }
        clock
    }

    fn poll_rounds(size: usize) -> u32 {
        poll_rounds_for(size, thread::available_parallelism().map_or(1, |n| n.get()))
    }

    fn now(&self) -> f64 {
        self.job.start.elapsed().as_secs_f64()
    }

    /// A window of no length is stamped with the job's start: time 0 is
    /// never in the future, so [`wait_until`](Self::wait_until) settles it
    /// without reading the clock either.
    fn window_opens(&self, cost: f64) -> f64 {
        if cost > 0.0 {
            self.now()
        } else {
            0.0
        }
    }

    fn spend_compute(&mut self, seconds: f64) {
        self.emulated_compute += burn(seconds);
    }

    fn spend_checkpoint(&mut self, seconds: f64) {
        self.emulated_compute += burn(seconds);
    }

    fn spend_recovery(&mut self, seconds: f64) {
        self.emulated_recovery += burn(seconds);
    }

    fn wait_until(&mut self, t: f64) {
        if t > 0.0 {
            self.emulated_wait += burn(t - self.now());
        }
    }

    fn deaths_armed(&self) -> bool {
        self.job.injector.is_some()
    }

    fn due_to_die(&mut self, world_rank: usize, incarnation: u64, collectives: u64) -> bool {
        self.job.injector.as_ref().is_some_and(|injector| {
            injector.should_die(&DeathContext {
                world_rank,
                incarnation,
                collectives,
            })
        })
    }

    /// The deadline's clock starts at the first call, so a wait that
    /// completes while polling never reads it.
    fn park_expired(&self, parked_since: &mut Option<f64>) -> bool {
        let now = self.now();
        now - *parked_since.get_or_insert(now) >= self.job.deadline.as_secs_f64()
    }

    /// `virtual_time` holds the wall seconds since job start; the time
    /// categories hold the *emulated* components (the rest is real
    /// execution).
    fn fill_times(&self, stats: &mut RankStats) {
        stats.virtual_time = self.now();
        stats.compute_time = self.emulated_compute;
        stats.comm_wait_time = self.emulated_wait;
        stats.recovery_time = self.emulated_recovery;
    }
}

/// The communicator of a rank thread under wall-clock time.
pub type ThreadComm = Comm<WallClock>;

/// Handle to an in-flight nonblocking reduction (the same one under either
/// clock).
pub type ThreadPending = PendingCollective;

/// Shared state of one job under wall-clock time.
pub type ThreadWorld = World<WallClock>;

/// The real-threads job launcher: ranks run under [`WallClock`]s.
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

    fn job(&self) -> WallJob {
        WallJob {
            start: Instant::now(),
            injector: self.injector.clone(),
            deadline: self.deadline,
        }
    }

    /// Run `f` on `size` rank threads and collect results, statistics and
    /// failure events. Ranks killed by the injector are respawned under
    /// [`FailurePolicy::ReplaceRank`], exactly as under the simulator: it
    /// is the same launcher.
    pub fn run<R, F>(&self, size: usize, f: F) -> JobResult<R>
    where
        R: Send + 'static,
        F: Fn(&mut ThreadComm) -> Result<R> + Send + Sync + 'static,
    {
        let model = CostModel::from(&self.config);
        run_job::<WallClock, R, F>(model, self.job(), size, StableStore::new(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::ReduceOp;
    use crate::conformance::{instantiate, KillOnceAtCollective, Threaded};
    use crate::error::RuntimeError;

    impl ThreadRuntime {
        /// Shorten the bound on blocking waits so a test of the timeout path
        /// does not take [`WAIT_DEADLINE`].
        fn with_deadline(mut self, deadline: Duration) -> Self {
            self.deadline = deadline;
            self
        }

        /// The shared state of a `size`-rank job, for tests that build
        /// communicators by hand.
        pub(crate) fn world(&self, size: usize) -> Arc<ThreadWorld> {
            let model = CostModel::from(&self.config);
            World::new(model, self.job(), size, StableStore::new())
        }
    }

    instantiate! { Threaded:
        ring_pass_point_to_point => ring_pass(4);
        collectives_and_gather => collectives_and_gather();
        nonblocking_overlap_charges_less_than_blocking => nonblocking_overlap();
        persist_survives_and_restores => persist_and_restore();
        injected_death_is_replaced_and_recovered => replace_and_recover(3, 1, 3);
        shrink_policy_rebuilds_smaller_comm => shrink_rebuilds_smaller_comm();
        persistent_store_survives_injected_death => persistent_store_survives_death();
        stats_count_messages_and_collectives => stats_count_messages_and_collectives();
        stats_count_flops => stats_count_flops();
        panicking_rank_aborts_the_job => panicking_rank_aborts_the_job();
        original_rank_started_after_a_death_still_sees_it =>
            original_rank_started_after_a_death_still_sees_it();
    }

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
    fn only_jobs_that_fit_the_cores_poll() {
        assert_eq!(poll_rounds_for(2, 2), POLL_ROUNDS);
        assert_eq!(poll_rounds_for(1, 2), POLL_ROUNDS);
        assert_eq!(poll_rounds_for(3, 2), 0);
        assert_eq!(poll_rounds_for(8, 2), 0, "8 rank threads on 2 vCPUs park");
        // The world applies that rule to the host it runs on, to the engine
        // and to every mailbox alike.
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        let rt = ThreadRuntime::new(ThreadConfig::fast());
        for size in [1, 2, 8, 4 * cores + 1] {
            let world = rt.world(size);
            assert_eq!(world.engine.poll_rounds(), poll_rounds_for(size, cores));
        }
        assert_eq!(rt.world(4 * cores + 1).engine.poll_rounds(), 0);
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
