//! Process-death injection for the real-threads backend.
//!
//! The virtual-time simulator injects fail-stop process failures from a
//! schedule carried in its own configuration
//! (`FailureConfig::scheduled`). The real-threads backend instead asks an
//! externally supplied [`DeathInjector`] at every failure point; this module
//! provides the standard implementation: a deterministic per-rank plan of
//! kills, each pinned to a world rank's incarnation so a planned death can
//! never replay on the replacement thread.
//!
//! A kill fires when the rank has completed the given number of
//! collectives. This is the deterministic progress axis (the threaded
//! analogue of "die at virtual time *t*"): it hits the same algorithmic
//! location on every run regardless of host scheduling, which is what
//! kill-mid-solve tests and the backend-parity experiments need.

use std::sync::Mutex;

use resilient_runtime::{DeathContext, DeathInjector};

/// A deterministic plan of rank deaths for a [`ThreadRuntime`] job. Each
/// entry is pinned to a world rank *and an incarnation*; the public
/// builder pins incarnation 0, so a planned death never replays on the
/// replacement thread.
///
/// [`ThreadRuntime`]: resilient_runtime::ThreadRuntime
///
/// ```
/// use resilient_faults::thread_death::ThreadDeathPlan;
/// use resilient_runtime::{ThreadConfig, ThreadRuntime};
/// use std::sync::Arc;
///
/// // Rank 1 dies (for real — a panic unwind) at its 5th collective.
/// let plan = Arc::new(ThreadDeathPlan::new().kill_at_collective(1, 5));
/// let runtime = ThreadRuntime::new(ThreadConfig::fast()).with_injector(plan);
/// ```
#[derive(Debug, Default)]
pub struct ThreadDeathPlan {
    /// `(world_rank, incarnation, nth_collective, fired)` entries; each
    /// fires at most once, only on the pinned incarnation.
    kills: Mutex<Vec<(usize, u64, u64, bool)>>,
}

impl ThreadDeathPlan {
    /// An empty plan (no rank ever dies).
    pub fn new() -> Self {
        Self::default()
    }

    /// Plan `rank`'s death at its `nth` completed collective (original
    /// incarnation only).
    pub fn kill_at_collective(self, rank: usize, nth: u64) -> Self {
        self.kill_incarnation_at_collective(rank, 0, nth)
    }

    /// Plan the death of `rank`'s `incarnation`-th process at its `nth`
    /// completed collective. Incarnation 0 is the original thread;
    /// incarnation 1 the first replacement — pinning 1 kills the
    /// replacement *during* its recovery re-execution, the compound
    /// failure single-kill plans cannot express. Collective counts are
    /// per-lifetime (a replacement starts again from zero).
    fn kill_incarnation_at_collective(self, rank: usize, incarnation: u64, nth: u64) -> Self {
        self.kills
            .lock()
            .expect("death plan lock poisoned")
            .push((rank, incarnation, nth, false));
        self
    }

    /// Number of kills that have fired so far.
    pub fn fired(&self) -> usize {
        self.kills
            .lock()
            .expect("death plan lock poisoned")
            .iter()
            .filter(|(_, _, _, fired)| *fired)
            .count()
    }
}

impl DeathInjector for ThreadDeathPlan {
    fn should_die(&self, ctx: &DeathContext) -> bool {
        let mut kills = self.kills.lock().expect("death plan lock poisoned");
        for (rank, incarnation, nth, fired) in kills.iter_mut() {
            // Each entry is pinned to one incarnation: an entry for the
            // original thread can never replay on its replacement, and an
            // entry that `kill_incarnation_at_collective` pins to
            // incarnation 1 waits for the replacement.
            if *fired || *rank != ctx.world_rank || *incarnation != ctx.incarnation {
                continue;
            }
            if ctx.collectives >= *nth {
                *fired = true;
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilient_runtime::{ReduceOp, ThreadConfig, ThreadRuntime};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn kill_fires_once_and_only_on_incarnation_zero() {
        let plan = Arc::new(ThreadDeathPlan::new().kill_at_collective(1, 2));
        let rt = ThreadRuntime::new(ThreadConfig::fast()).with_injector(plan.clone() as _);
        let r = rt.run(2, |comm| {
            let mut step = if comm.is_replacement() {
                comm.recovery_rendezvous(f64::INFINITY)?.agreed as usize
            } else {
                0
            };
            while step < 6 {
                match comm.allreduce_scalar(ReduceOp::Sum, 1.0) {
                    Ok(_) => step += 1,
                    Err(e) if e.is_failure() => {
                        step = comm.recovery_rendezvous(step as f64)?.agreed as usize;
                    }
                    Err(e) => return Err(e),
                }
            }
            Ok(comm.incarnation())
        });
        assert!(r.all_ok(), "errors: {:?}", r.errors);
        assert_eq!(r.failures.len(), 1, "the plan fires exactly once");
        assert_eq!(plan.fired(), 1);
        let incs = r.unwrap_all();
        assert_eq!(incs[1], 1, "rank 1 finishes as its replacement");
    }

    #[test]
    fn incarnation_pinned_kill_waits_for_the_replacement() {
        // Rank 1's original dies at its 2nd collective; its *replacement*
        // (incarnation 1) dies again at its own 2nd collective. The second
        // replacement (incarnation 2) finishes the job.
        let plan = Arc::new(
            ThreadDeathPlan::new()
                .kill_at_collective(1, 2)
                .kill_incarnation_at_collective(1, 1, 2),
        );
        let rt = ThreadRuntime::new(ThreadConfig::fast()).with_injector(plan.clone() as _);
        let r = rt.run(2, |comm| {
            let mut step = if comm.is_replacement() {
                comm.recovery_rendezvous(f64::INFINITY)?.agreed as usize
            } else {
                0
            };
            while step < 8 {
                match comm.allreduce_scalar(ReduceOp::Sum, 1.0) {
                    Ok(_) => step += 1,
                    Err(e) if e.is_failure() => {
                        step = comm.recovery_rendezvous(step as f64)?.agreed as usize;
                    }
                    Err(e) => return Err(e),
                }
            }
            Ok(comm.incarnation())
        });
        assert!(r.all_ok(), "errors: {:?}", r.errors);
        assert_eq!(r.failures.len(), 2, "both pinned kills fire");
        assert_eq!(plan.fired(), 2);
        let incs = r.unwrap_all();
        assert_eq!(incs[1], 2, "rank 1 finishes as its second replacement");
    }

    #[test]
    fn empty_plan_never_kills() {
        let plan = Arc::new(ThreadDeathPlan::new());
        let rt = ThreadRuntime::new(ThreadConfig::fast()).with_injector(plan);
        let r = rt.run(3, |comm| comm.allreduce_scalar(ReduceOp::Sum, 1.0));
        assert!(r.all_ok());
        assert!(r.failures.is_empty());
    }

    /// Rank 0 dies at its first failure point (its 0th collective);
    /// everyone re-runs four barriers after the recovery rendezvous — the
    /// replacement's first act, as the protocol requires. With `hold_rank0`,
    /// rank 0's original waits until rank 1 is inside the closure, i.e.
    /// certainly running when the death happens.
    fn first_point_kill_job(hold_rank0: bool) {
        let plan = Arc::new(ThreadDeathPlan::new().kill_at_collective(0, 0));
        let rt = ThreadRuntime::new(ThreadConfig::fast()).with_injector(plan.clone() as _);
        let rank1_running = Arc::new(AtomicBool::new(!hold_rank0));
        let r = rt.run(2, move |comm| {
            if comm.is_replacement() {
                comm.recovery_rendezvous(0.0)?;
            } else if comm.rank() == 1 {
                rank1_running.store(true, Ordering::Release);
            } else {
                while !rank1_running.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }
            let mut done = 0;
            while done < 4 {
                match comm.barrier() {
                    Ok(()) => done += 1,
                    Err(e) if e.is_failure() => {
                        comm.recovery_rendezvous(0.0)?;
                        done = 0;
                    }
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        });
        assert!(r.all_ok(), "errors: {:?}", r.errors);
        assert_eq!(r.failures.len(), 1);
        assert_eq!(r.failures[0].rank, 0);
    }

    #[test]
    fn death_at_the_first_failure_point_is_recovered() {
        first_point_kill_job(false);
    }

    #[test]
    fn death_while_the_survivor_is_already_running_is_recovered() {
        // Regression: with rank 1 forced to be running when rank 0 dies, a
        // replacement that went straight into `barrier()` deadlocked against
        // the survivor's recovery rendezvous every time; unforced it passed
        // only when rank 1's thread started late enough to acknowledge, at
        // start-up, a death it never saw.
        first_point_kill_job(true);
    }

    #[test]
    #[ignore = "stress loop: run by the CI `threads` job under its timeout"]
    fn stress_death_tests_200_times() {
        for _ in 0..200 {
            kill_fires_once_and_only_on_incarnation_zero();
            incarnation_pinned_kill_waits_for_the_replacement();
            first_point_kill_job(false);
            first_point_kill_job(true);
        }
    }
}
