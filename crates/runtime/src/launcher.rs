//! Job launcher: spawns the SPMD rank threads, monitors them, and spawns
//! replacement ranks after failures.
//!
//! `run_job` is the one launcher loop; [`Runtime`] (virtual time) and
//! [`ThreadRuntime`](crate::threads::ThreadRuntime) (wall clock) are
//! constructors that hand it their clock's job state.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

use crate::clock::{RankClock, VirtualClock};
use crate::comm::{Comm, RankKilled};
use crate::config::{CostModel, FailurePolicy, RuntimeConfig};
use crate::error::{Result, RuntimeError};
use crate::health::FailureEvent;
use crate::persistent::StableStore;
use crate::stats::RankStats;
use crate::world::World;

/// Upper bound on replacement incarnations per rank, as a safety net against
/// pathological failure configurations.
const MAX_INCARNATIONS: u64 = 256;

/// Result of running one SPMD job.
#[derive(Debug)]
pub struct JobResult<R> {
    /// Per world rank: the value returned by the final incarnation that
    /// completed normally, if any.
    pub results: Vec<Option<R>>,
    /// Per world rank: the error returned by the final incarnation, if it
    /// returned one.
    pub errors: Vec<Option<RuntimeError>>,
    /// Per world rank: statistics of the final incarnation (ranks whose
    /// every incarnation was killed have default stats).
    pub stats: Vec<RankStats>,
    /// Statistics of every incarnation, including those killed by failures.
    pub all_stats: Vec<RankStats>,
    /// Failure events observed during the job.
    pub failures: Vec<FailureEvent>,
    /// True if the job was aborted (AbortJob policy and a failure occurred,
    /// or a rank called abort).
    pub aborted: bool,
}

impl<R> JobResult<R> {
    /// Maximum final time over all final incarnations (the job makespan).
    pub fn makespan(&self) -> f64 {
        self.stats
            .iter()
            .map(|s| s.virtual_time)
            .fold(0.0, f64::max)
    }

    /// True if every rank completed with an `Ok` result.
    pub fn all_ok(&self) -> bool {
        self.results.iter().all(Option::is_some)
    }

    /// Unwrap all per-rank results, panicking if any rank failed.
    pub fn unwrap_all(self) -> Vec<R> {
        self.results
            .into_iter()
            .enumerate()
            .map(|(rank, r)| match r {
                Some(v) => v,
                None => panic!("rank {rank} did not produce a result"),
            })
            .collect()
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

/// The simulated-job launcher: ranks run under [`VirtualClock`]s.
///
/// ```
/// use resilient_runtime::{Runtime, RuntimeConfig, ReduceOp};
///
/// let runtime = Runtime::new(RuntimeConfig::fast());
/// let result = runtime.run(4, |comm| {
///     let sum = comm.allreduce_scalar(ReduceOp::Sum, comm.rank() as f64)?;
///     Ok(sum)
/// });
/// assert_eq!(result.unwrap_all(), vec![6.0; 4]);
/// ```
pub struct Runtime {
    config: RuntimeConfig,
}

impl Runtime {
    /// Create a launcher with the given configuration.
    pub fn new(config: RuntimeConfig) -> Self {
        Self { config }
    }

    /// The configuration this launcher uses.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Run `f` on `size` ranks with a fresh stable store.
    pub fn run<R, F>(&self, size: usize, f: F) -> JobResult<R>
    where
        R: Send + 'static,
        F: Fn(&mut Comm) -> Result<R> + Send + Sync + 'static,
    {
        self.run_with_stable(size, StableStore::new(), f)
    }

    /// Run `f` on `size` ranks, sharing the provided stable store (so a
    /// checkpoint/restart driver can run the job repeatedly against the same
    /// simulated file system).
    pub fn run_with_stable<R, F>(&self, size: usize, stable: StableStore, f: F) -> JobResult<R>
    where
        R: Send + 'static,
        F: Fn(&mut Comm) -> Result<R> + Send + Sync + 'static,
    {
        let model = CostModel::from(&self.config);
        run_job::<VirtualClock, R, F>(model, self.config.clone(), size, stable, f)
    }
}

/// Run `f` on `size` rank threads whose clocks are started from `time`, and
/// collect results, statistics and failure events. A rank killed by failure
/// injection is respawned under [`FailurePolicy::ReplaceRank`]; a rank that
/// panics, or that cannot be respawned any more, aborts the job so that its
/// peers return [`RuntimeError::JobAborted`] instead of waiting for it.
pub(crate) fn run_job<K, R, F>(
    model: CostModel,
    time: K::Job,
    size: usize,
    stable: StableStore,
    f: F,
) -> JobResult<R>
where
    K: RankClock + 'static,
    R: Send + 'static,
    F: Fn(&mut Comm<K>) -> Result<R> + Send + Sync + 'static,
{
    assert!(size > 0, "cannot run a job with zero ranks");
    install_panic_hook();
    let world = World::<K>::new(model, time, size, stable);
    let f = Arc::new(f);
    let (tx, rx) = mpsc::channel::<RankExit<R>>();

    // The thread of each rank's current incarnation.
    let mut handles: Vec<_> = (0..size)
        .map(|rank| Some(spawn_rank(&world, &f, &tx, rank, 0, 0.0)))
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
    // A rank is gone for good and nobody will take its place: abort, and
    // wake its peers so their pending or next operation says so.
    let abort = || {
        world.health.abort();
        world.interrupt_all();
    };

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
                let replace = model.policy == FailurePolicy::ReplaceRank;
                if replace && incarnations[info.rank] + 1 < MAX_INCARNATIONS {
                    incarnations[info.rank] += 1;
                    let incarnation = world.health.record_replacement(info.rank);
                    // The dead incarnation reported from inside its thread;
                    // let that thread finish exiting before the replacement
                    // starts. Spawned while it is still winding down, the
                    // replacement may or may not inherit its malloc arena —
                    // a race that made the job's peak RSS bimodal.
                    if let Some(dead) = handles[info.rank].take() {
                        let _ = dead.join();
                    }
                    let start = info.time + model.replacement_cost;
                    handles[info.rank] =
                        Some(spawn_rank(&world, &f, &tx, info.rank, incarnation, start));
                } else {
                    if replace {
                        // Survivors expect a replacement in their rendezvous.
                        abort();
                    }
                    errors[info.rank] = Some(RuntimeError::ProcFailed {
                        rank: info.rank,
                        generation: info.generation,
                    });
                    remaining -= 1;
                }
            }
            RankExit::Panicked { rank, message } => {
                abort();
                errors[rank] = Some(RuntimeError::RankPanicked { rank, message });
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
    JobResult {
        results,
        errors,
        stats: final_stats,
        all_stats,
        failures,
        aborted,
    }
}

fn spawn_rank<K, R, F>(
    world: &Arc<World<K>>,
    f: &Arc<F>,
    tx: &mpsc::Sender<RankExit<R>>,
    rank: usize,
    incarnation: u64,
    start_time: f64,
) -> thread::JoinHandle<()>
where
    K: RankClock + 'static,
    R: Send + 'static,
    F: Fn(&mut Comm<K>) -> Result<R> + Send + Sync + 'static,
{
    let (world, f, tx) = (Arc::clone(world), Arc::clone(f), tx.clone());
    thread::Builder::new()
        .name(format!("rank-{rank}.{incarnation}"))
        .spawn(move || {
            let mut comm = Comm::new(world, rank, incarnation, start_time);
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| f(&mut comm)));
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
            // The receiver can only be gone if the launcher itself panicked.
            let _ = tx.send(exit);
        })
        .expect("failed to spawn rank thread")
}

/// Install a process-wide panic hook (once) that silences the expected
/// [`RankKilled`] unwinds so injected failures do not spam stderr, while
/// delegating every other panic to the previous hook.
fn install_panic_hook() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<RankKilled>().is_none() {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::ReduceOp;
    use crate::config::{FailureConfig, LatencyModel, NoiseConfig};
    use crate::conformance::{instantiate, Simulated};

    instantiate! { Simulated:
        ring_pass_point_to_point => ring_pass(5);
        collectives_and_gather => collectives_and_gather();
        nonblocking_overlap_charges_less_than_blocking => nonblocking_overlap();
        persist_survives_and_restores => persist_and_restore();
        replace_policy_spawns_replacement_and_recovers => replace_and_recover(4, 2, 4);
        shrink_policy_rebuilds_smaller_comm => shrink_rebuilds_smaller_comm();
        persistent_store_survives_failure => persistent_store_survives_death();
        stats_count_messages_and_collectives => stats_count_messages_and_collectives();
        stats_count_flops => stats_count_flops();
        panicking_rank_aborts_the_job => panicking_rank_aborts_the_job();
    }

    #[test]
    fn single_rank_job() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let r = rt.run(1, |comm| Ok(comm.rank()));
        assert_eq!(r.unwrap_all(), vec![0]);
    }

    #[test]
    fn allreduce_across_ranks() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let r = rt.run(6, |comm| {
            comm.allreduce_scalar(ReduceOp::Sum, (comm.rank() + 1) as f64)
        });
        assert_eq!(r.unwrap_all(), vec![21.0; 6]);
    }

    #[test]
    fn broadcast_gather_scan() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let r = rt.run(4, |comm| {
            let bcast = comm.broadcast(2, &[comm.rank() as f64 * 10.0])?;
            let gathered = comm.gather(0, &[comm.rank() as f64])?;
            let scanned = comm.scan(ReduceOp::Sum, &[1.0])?;
            let all = comm.allgather(&[comm.rank() as f64])?;
            Ok((bcast, gathered, scanned, all))
        });
        let results = r.unwrap_all();
        for (rank, (bcast, gathered, scanned, all)) in results.into_iter().enumerate() {
            assert_eq!(bcast, vec![20.0], "broadcast from root 2");
            if rank == 0 {
                assert_eq!(
                    gathered.unwrap(),
                    vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]]
                );
            } else {
                assert!(gathered.is_none());
            }
            assert_eq!(scanned, vec![(rank + 1) as f64]);
            assert_eq!(all.len(), 4);
        }
    }

    #[test]
    fn collective_synchronises_virtual_time() {
        let mut cfg = RuntimeConfig::fast();
        cfg.latency = LatencyModel {
            alpha: 0.5,
            beta: 0.0,
            gamma: 0.0,
        };
        let rt = Runtime::new(cfg);
        let r = rt.run(4, |comm| {
            // Unequal local work before the barrier.
            comm.advance(comm.rank() as f64);
            comm.barrier()?;
            Ok(comm.now())
        });
        let times = r.unwrap_all();
        let expected = 3.0 + 0.5 * 2.0; // slowest rank + 2 tree stages * alpha
        for t in times {
            assert!(
                (t - expected).abs() < 1e-9,
                "all ranks leave the barrier together: {t}"
            );
        }
    }

    #[test]
    fn nonblocking_allreduce_hides_latency() {
        let mut cfg = RuntimeConfig::fast();
        cfg.latency = LatencyModel {
            alpha: 1.0,
            beta: 0.0,
            gamma: 0.0,
        };
        let rt = Runtime::new(cfg);
        let r = rt.run(4, |comm| {
            // Blocking version: dot + dependent work.
            let t0 = comm.now();
            let _ = comm.allreduce_scalar(ReduceOp::Sum, 1.0)?;
            comm.advance(5.0); // work that does NOT depend on the reduction
            let blocking_elapsed = comm.now() - t0;

            // Nonblocking version: overlap the same work with the reduction.
            let t1 = comm.now();
            let pending = comm.iallreduce_scalar(ReduceOp::Sum, 1.0)?;
            comm.advance(5.0);
            let _ = pending.wait_scalar(comm)?;
            let overlapped_elapsed = comm.now() - t1;
            Ok((blocking_elapsed, overlapped_elapsed))
        });
        for (blocking, overlapped) in r.unwrap_all() {
            assert!(
                overlapped < blocking - 1.0,
                "overlap should hide the 2-stage collective latency: blocking={blocking}, overlapped={overlapped}"
            );
            assert!(
                (overlapped - 5.0).abs() < 1e-9,
                "latency fully hidden by 5 s of work"
            );
        }
    }

    #[test]
    fn noise_slows_down_bulk_synchronous_steps() {
        let quiet = Runtime::new(
            RuntimeConfig::default()
                .with_seed(3)
                .with_noise(NoiseConfig::off()),
        );
        let noisy = Runtime::new(
            RuntimeConfig::default()
                .with_seed(3)
                .with_noise(NoiseConfig::exponential(50.0, 0.01)),
        );
        let run = |rt: &Runtime| -> f64 {
            let r = rt.run(8, |comm| {
                for _ in 0..20 {
                    comm.advance(0.01);
                    comm.allreduce_scalar(ReduceOp::Sum, 1.0)?;
                }
                Ok(comm.now())
            });
            r.makespan()
        };
        let t_quiet = run(&quiet);
        let t_noisy = run(&noisy);
        assert!(
            t_noisy > t_quiet * 1.2,
            "noise amplification expected: quiet={t_quiet}, noisy={t_noisy}"
        );
    }

    #[test]
    fn halo_exchange_on_a_line() {
        use crate::topology::CartTopology;
        let rt = Runtime::new(RuntimeConfig::fast());
        let r = rt.run(4, |comm| {
            let topo = CartTopology::line(comm.size(), false);
            let me = comm.rank() as f64;
            let (left, right) = comm.exchange_boundaries_1d(&topo, &[me], &[me])?;
            Ok((left.map(|v| v[0]), right.map(|v| v[0])))
        });
        let vals = r.unwrap_all();
        assert_eq!(vals[0], (None, Some(1.0)));
        assert_eq!(vals[1], (Some(0.0), Some(2.0)));
        assert_eq!(vals[3], (Some(2.0), None));
    }

    #[test]
    fn abort_policy_tears_down_job() {
        let cfg = RuntimeConfig::fast().with_failures(FailureConfig::scheduled(
            FailurePolicy::AbortJob,
            vec![(1, 0.5)],
        ));
        let rt = Runtime::new(cfg);
        let r = rt.run(4, |comm| {
            for _ in 0..100 {
                comm.advance(0.1);
                comm.barrier()?;
            }
            Ok(())
        });
        assert!(r.aborted, "job must be marked aborted");
        assert_eq!(r.failures.len(), 1);
        assert_eq!(r.failures[0].rank, 1);
        assert!(!r.all_ok());
        // Survivors observed the abort as an error.
        assert!(r.errors.iter().filter(|e| e.is_some()).count() >= 3);
    }

    #[test]
    fn job_stats_are_collected() {
        let rt = Runtime::new(RuntimeConfig::default());
        let r = rt.run(3, |comm| {
            comm.advance(1.0);
            comm.send_f64((comm.rank() + 1) % comm.size(), 0, &[1.0, 2.0])?;
            let _ = comm.recv_f64(crate::message::ANY_SOURCE, 0)?;
            comm.barrier()?;
            Ok(())
        });
        assert!(r.all_ok());
        assert_eq!(r.stats.iter().map(|s| s.messages_sent).sum::<u64>(), 3);
        assert_eq!(r.stats.iter().map(|s| s.bytes_sent).sum::<u64>(), 48);
        assert_eq!(r.stats.iter().map(|s| s.collectives).sum::<u64>(), 3);
        assert!(r.makespan() >= 1.0);
        assert!(r.stats.iter().map(|s| s.virtual_time).sum::<f64>() > 0.0);
    }

    /// A finished job whose final incarnations ended at `times`.
    fn job_ending_at(times: &[f64]) -> JobResult<()> {
        let stats = times
            .iter()
            .enumerate()
            .map(|(rank, &virtual_time)| RankStats {
                rank,
                virtual_time,
                ..RankStats::default()
            });
        JobResult {
            results: Vec::new(),
            errors: Vec::new(),
            stats: stats.collect(),
            all_stats: Vec::new(),
            failures: Vec::new(),
            aborted: false,
        }
    }

    #[test]
    fn makespan_is_the_slowest_rank() {
        assert_eq!(job_ending_at(&[10.0, 12.0, 8.0]).makespan(), 12.0);
    }

    #[test]
    fn makespan_of_no_ranks_is_zero() {
        assert_eq!(job_ending_at(&[]).makespan(), 0.0);
    }

    #[test]
    #[should_panic(expected = "zero ranks")]
    fn zero_ranks_is_rejected() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let _ = rt.run(0, |_comm| Ok(()));
    }

    #[test]
    fn application_panic_is_reported_not_propagated() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let r = rt.run(2, |comm| {
            if comm.rank() == 1 {
                panic!("application bug");
            }
            Ok(comm.rank())
        });
        assert_eq!(r.results[0], Some(0));
        assert!(r.results[1].is_none());
        let err = r.errors[1].clone().unwrap();
        assert!(err.to_string().contains("application bug"));
    }
}
