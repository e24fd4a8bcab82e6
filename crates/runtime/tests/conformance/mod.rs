//! One conformance suite for both clocks.
//!
//! The communicator, the world and the launcher are written once; what is
//! left to go wrong per backend is the clock. Each case below is a function
//! generic over a [`Fixture`] — the clock plus its way of launching a job
//! and of killing a rank at a chosen point — and is instantiated twice with
//! [`instantiate!`]: under `launcher::tests` (and `comm::tests`) for the
//! virtual clock and under `threads::tests` for the wall clock, each case
//! under the name it has always had there. Clock-specific behaviour
//! (virtual-time synchronisation, noise, timeouts naming the missing rank,
//! poll-versus-park, the stress loops) is tested next to the clock it
//! belongs to.
//!
//! This is not a test target of its own (Cargo only discovers `tests/*.rs`):
//! `src/lib.rs` includes it into the crate's unit tests, because some cases
//! build communicators by hand through crate-private constructors.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crate::clock::{RankClock, VirtualClock};
use crate::collective::ReduceOp;
use crate::comm::Comm;
use crate::config::{CostModel, FailureConfig, FailurePolicy, LatencyModel, RuntimeConfig};
use crate::error::{Result, RuntimeError};
use crate::launcher::{JobResult, Runtime};
use crate::persistent::StableStore;
use crate::threads::{
    DeathContext, DeathInjector, ThreadComm, ThreadConfig, ThreadRuntime, WallClock,
};
use crate::world::World;

/// What a case charges before each collective so that a fixture can aim a
/// death at "the n-th collective": 0.1 s at the simulator's default rate,
/// nothing at the wall clock's zero rate.
const STEP_FLOPS: usize = 100_000_000;

/// The virtual seconds [`STEP_FLOPS`] cost under `RuntimeConfig::fast()`.
const STEP_SECONDS: f64 = 0.1;

/// The job a case asks its fixture to launch: zero emulated cost unless
/// `latency` says otherwise.
pub(crate) struct Job {
    pub size: usize,
    pub policy: FailurePolicy,
    pub latency: LatencyModel,
    /// `(rank, n)`: the original incarnation of `rank` dies at its first
    /// failure point after it has completed `n` collectives, each preceded
    /// by `charge_flops(STEP_FLOPS)`.
    pub kill: Option<(usize, u64)>,
}

impl Job {
    pub(crate) fn of(size: usize) -> Self {
        Self {
            size,
            policy: FailurePolicy::ReplaceRank,
            latency: LatencyModel::zero(),
            kill: None,
        }
    }

    fn killing(mut self, rank: usize, after_collectives: u64) -> Self {
        self.kill = Some((rank, after_collectives));
        self
    }
}

/// A clock, and how to run a job under it.
pub(crate) trait Fixture {
    type Clock: RankClock + 'static;

    fn run<R, F>(job: Job, f: F) -> JobResult<R>
    where
        R: Send + 'static,
        F: Fn(&mut Comm<Self::Clock>) -> Result<R> + Send + Sync + 'static;

    /// The bare shared state of a `size`-rank `ReplaceRank` job, for cases
    /// that build communicators by hand.
    fn world(size: usize) -> Arc<World<Self::Clock>>;
}

/// The virtual clock's fixture: a death "after n collectives" is a scheduled
/// failure halfway through the step that follows them.
pub(crate) struct Simulated;

impl Fixture for Simulated {
    type Clock = VirtualClock;

    fn run<R, F>(job: Job, f: F) -> JobResult<R>
    where
        R: Send + 'static,
        F: Fn(&mut Comm) -> Result<R> + Send + Sync + 'static,
    {
        let schedule = job
            .kill
            .map(|(rank, after)| (rank, (after as f64 + 0.5) * STEP_SECONDS));
        let failures = FailureConfig {
            enabled: schedule.is_some(),
            policy: job.policy,
            scheduled: schedule.into_iter().collect(),
            ..FailureConfig::none()
        };
        let config = RuntimeConfig::fast()
            .with_latency(job.latency)
            .with_failures(failures);
        Runtime::new(config).run(job.size, f)
    }

    fn world(size: usize) -> Arc<World<VirtualClock>> {
        let config = RuntimeConfig::fast()
            .with_failures(FailureConfig::scheduled(FailurePolicy::ReplaceRank, vec![]));
        World::new(CostModel::from(&config), config, size, StableStore::new())
    }
}

/// Kills the original incarnation of `rank` at its first failure point
/// after `at` completed collectives.
pub(crate) struct KillOnceAtCollective {
    pub rank: usize,
    pub at: u64,
}

impl DeathInjector for KillOnceAtCollective {
    fn should_die(&self, ctx: &DeathContext) -> bool {
        ctx.world_rank == self.rank && ctx.incarnation == 0 && ctx.collectives >= self.at
    }
}

/// The wall clock's fixture: a death "after n collectives" is exactly what
/// a [`DeathInjector`] is asked about.
pub(crate) struct Threaded;

impl Fixture for Threaded {
    type Clock = WallClock;

    fn run<R, F>(job: Job, f: F) -> JobResult<R>
    where
        R: Send + 'static,
        F: Fn(&mut ThreadComm) -> Result<R> + Send + Sync + 'static,
    {
        let config = ThreadConfig::fast()
            .with_policy(job.policy)
            .with_latency(job.latency);
        let mut runtime = ThreadRuntime::new(config);
        if let Some((rank, at)) = job.kill {
            runtime = runtime.with_injector(Arc::new(KillOnceAtCollective { rank, at }));
        }
        runtime.run(job.size, f)
    }

    fn world(size: usize) -> Arc<World<WallClock>> {
        ThreadRuntime::new(ThreadConfig::fast()).world(size)
    }
}

/// `instantiate! { Fixture: test_name => case(args); … }` — one `#[test]`
/// per line, running `case::<Fixture>(args)`.
macro_rules! instantiate {
    ($fixture:ty: $($name:ident => $case:ident($($arg:expr),*);)*) => {
        $(
            #[test]
            fn $name() {
                $crate::conformance::$case::<$fixture>($($arg),*)
            }
        )*
    };
}
pub(crate) use instantiate;

/// Run `f` on a helper thread and fail, rather than hang, if it has not
/// returned within `limit`.
fn bounded<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(limit)
        .expect("the job did not finish within its bound")
}

pub(crate) fn ring_pass<Fx: Fixture>(n: usize) {
    let r = Fx::run(Job::of(n), |comm| {
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

pub(crate) fn collectives_and_gather<Fx: Fixture>() {
    let r = Fx::run(Job::of(3), |comm| {
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

pub(crate) fn nonblocking_overlap<Fx: Fixture>() {
    // With a 20 ms collective and 25 ms of overlapping local work, the
    // nonblocking wait should charge (almost) nothing.
    let mut job = Job::of(2);
    job.latency = LatencyModel {
        alpha: 20.0e-3,
        beta: 0.0,
        gamma: 0.0,
    };
    let r = Fx::run(job, |comm| {
        let pending = comm.iallreduce(ReduceOp::Sum, &[1.0])?;
        comm.advance(25.0e-3);
        let out = comm.wait_vector(pending)?;
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

pub(crate) fn persist_and_restore<Fx: Fixture>() {
    let r = Fx::run(Job::of(2), |comm| {
        comm.persist("x", vec![comm.rank() as f64])?;
        comm.barrier()?;
        let peer = 1 - comm.rank();
        let v = comm.restore(peer, "x")?.into_f64()?;
        Ok(v[0])
    });
    assert_eq!(r.unwrap_all(), vec![1.0, 0.0]);
}

pub(crate) fn replace_and_recover<Fx: Fixture>(size: usize, victim: usize, after: u64) {
    let r = Fx::run(Job::of(size).killing(victim, after), |comm| {
        let mut step = if comm.is_replacement() {
            // Recovery path: rejoin the others and resume from the agreed step.
            let info = comm.recovery_rendezvous(f64::INFINITY)?;
            info.agreed as usize
        } else {
            0
        };
        let mut recoveries = 0;
        while step < 10 {
            comm.charge_flops(STEP_FLOPS);
            match comm.barrier() {
                Ok(()) => step += 1,
                Err(e) if e.is_failure() => {
                    let info = comm.recovery_rendezvous(step as f64)?;
                    step = info.agreed as usize;
                    recoveries += 1;
                }
                Err(e) => return Err(e),
            }
        }
        Ok((comm.rank(), step, recoveries, comm.incarnation()))
    });
    assert!(!r.aborted);
    assert_eq!(r.failures.len(), 1);
    assert_eq!(r.failures[0].rank, victim);
    assert!(
        r.all_ok(),
        "all ranks (incl. replacement) must finish: {:?}",
        r.errors
    );
    let results = r.unwrap_all();
    assert_eq!(results.len(), size);
    for (rank, step, _recoveries, incarnation) in &results {
        assert_eq!(*step, 10);
        if *rank == victim {
            assert_eq!(*incarnation, 1, "the victim must be the replacement");
        }
    }
    // Survivors saw exactly one recovery.
    assert!(results
        .iter()
        .any(|(rank, _, rec, _)| *rank != victim && *rec == 1));
}

pub(crate) fn shrink_rebuilds_smaller_comm<Fx: Fixture>() {
    let mut job = Job::of(3).killing(0, 2);
    job.policy = FailurePolicy::Shrink;
    let r = Fx::run(job, |comm| {
        let mut sum = 0.0;
        let mut step = 0;
        while step < 6 {
            comm.charge_flops(STEP_FLOPS);
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
    // Rank 0 died and is never replaced under Shrink.
    assert!(r.results[0].is_none());
    for rank in 1..3 {
        let (new_rank, new_size, sum) = r.results[rank].expect("survivor finishes");
        assert_eq!(new_size, 2);
        assert!(new_rank < 2);
        assert_eq!(sum, 2.0, "post-shrink allreduce spans 2 ranks");
    }
}

pub(crate) fn persistent_store_survives_death<Fx: Fixture>() {
    let r = Fx::run(Job::of(2).killing(1, 2), |comm| {
        if comm.is_replacement() {
            // LFLR protocol: a replacement first joins the recovery
            // rendezvous, then recovers the dead incarnation's persistent
            // data.
            comm.recovery_rendezvous(0.0)?;
            let v = comm.restore(comm.rank(), "state")?.into_f64()?;
            assert_eq!(v, vec![101.0]);
        } else {
            comm.persist("state", vec![comm.rank() as f64 + 100.0])?;
        }
        let mut step = 0;
        while step < 8 {
            comm.charge_flops(STEP_FLOPS);
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

pub(crate) fn stats_count_messages_and_collectives<Fx: Fixture>() {
    let r = Fx::run(Job::of(2), |comm| {
        comm.send_f64(1 - comm.rank(), 0, &[1.0, 2.0])?;
        let _ = comm.recv_f64(1 - comm.rank(), 0)?;
        comm.barrier()?;
        Ok(())
    });
    assert!(r.all_ok());
    assert_eq!(r.stats.iter().map(|s| s.messages_sent).sum::<u64>(), 2);
    assert_eq!(r.stats.iter().map(|s| s.bytes_sent).sum::<u64>(), 32);
    assert_eq!(r.stats.iter().map(|s| s.collectives).sum::<u64>(), 2);
}

/// Every `charge_flops` is counted in `RankStats::flops`, whatever the clock
/// makes of its cost; check attribution is a separate ledger.
pub(crate) fn stats_count_flops<Fx: Fixture>() {
    let r = Fx::run(Job::of(2), |comm| {
        comm.charge_flops(1000 * (comm.rank() + 1));
        comm.record_check_flops(50);
        comm.charge_flops(7);
        comm.barrier()?;
        let stats = comm.snapshot_stats();
        Ok((stats.flops, stats.check_flops))
    });
    assert_eq!(r.unwrap_all(), vec![(1007, 50), (2007, 50)]);
}

/// A rank that panics while its peers are in, or about to enter, a
/// collective and a receive ends the job at once: `RankPanicked` for it,
/// `JobAborted` for them. Bounded to a second, so that a launcher that loses
/// the panic (a hang) or leaves the peers to a deadline fails this test.
pub(crate) fn panicking_rank_aborts_the_job<Fx: Fixture>() {
    let r = bounded(Duration::from_secs(1), || {
        Fx::run(Job::of(3), |comm| match comm.rank() {
            0 => comm.allreduce_scalar(ReduceOp::Sum, 1.0),
            1 => panic!("bug"),
            _ => comm.recv_f64(1, 0).map(|(_, v)| v[0]),
        })
    });
    assert!(r.aborted);
    match &r.errors[1] {
        Some(RuntimeError::RankPanicked { rank: 1, message }) => assert!(message.contains("bug")),
        other => panic!("rank 1: expected RankPanicked, got {other:?}"),
    }
    for rank in [0, 2] {
        assert!(
            matches!(r.errors[rank], Some(RuntimeError::JobAborted { .. })),
            "rank {rank}: expected JobAborted, got {:?}",
            r.errors[rank]
        );
    }
}

pub(crate) fn original_rank_started_after_a_death_still_sees_it<Fx: Fixture>() {
    // Rank 1 dies before rank 0's thread gets to construct its
    // communicator. Rank 0 never saw that failure, so its first operation
    // must report it; only a replacement starts out having acknowledged the
    // failures that caused it.
    let world = Fx::world(2);
    world.health.record_failure(1, 0, 0.0);
    let original = Comm::new(Arc::clone(&world), 0, 0, 0.0);
    assert!(matches!(
        original.check_health(),
        Err(RuntimeError::Revoked { generation: 1 })
    ));
    let incarnation = world.health.record_replacement(1);
    let replacement = Comm::new(world, 1, incarnation, 0.0);
    assert!(replacement.check_health().is_ok());
}
