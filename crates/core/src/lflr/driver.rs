//! The LFLR step-loop driver: the time-stepping client of
//! [`recovery_epochs`].

use std::cell::Cell;

use resilient_runtime::{Comm, RankClock, Result, VirtualClock};

use super::protocol::recovery_epochs;

/// A step-structured SPMD application that can persist and recover its
/// per-rank state — the contract the LFLR programming model asks the
/// application developer to meet. Generic over the communicator's clock
/// `K`, so one implementation runs on the simulator and on real threads.
pub trait LflrApp<K: RankClock = VirtualClock> {
    /// Per-rank application state.
    type State;

    /// Build the initial state (step 0).
    fn init(&self, comm: &mut Comm<K>) -> Result<Self::State>;

    /// Advance the state from `step` to `step + 1`.
    fn step(&self, comm: &mut Comm<K>, state: &mut Self::State, step: usize) -> Result<()>;

    /// Persist whatever is needed to recover `state` as of (completed) step
    /// `step`. Called every [`persist_interval`](Self::persist_interval)
    /// steps on every rank, and once more for the final step. The state is
    /// mutable so it can carry the persistence bookkeeping (e.g. a
    /// [`SnapshotRing`](super::SnapshotRing)).
    fn persist(&self, comm: &mut Comm<K>, state: &mut Self::State, step: usize) -> Result<()>;

    /// Rebuild the state as of step `step` from persistent data. On a
    /// replacement rank this reconstructs the dead incarnation's state
    /// (possibly with neighbour help); on survivors it rolls their state
    /// back to the agreed step.
    fn recover(&self, comm: &mut Comm<K>, step: usize) -> Result<Self::State>;

    /// The newest step this rank could recover from its (possibly inherited)
    /// persistent store, or `None` if the application cannot tell. A
    /// replacement rank proposes this at the recovery rendezvous so the
    /// agreed rollback step is never newer than what the dead incarnation
    /// actually persisted; the default (`None`) proposes "anything", letting
    /// the survivors' persist state decide.
    fn last_recoverable(&self, _comm: &mut Comm<K>) -> Option<usize> {
        None
    }

    /// Total number of steps to run.
    fn n_steps(&self) -> usize;

    /// Persist every this many steps (default: every step).
    fn persist_interval(&self) -> usize {
        1
    }
}

/// What happened during an LFLR-driven run (per rank).
#[derive(Debug, Clone, PartialEq)]
pub struct LflrReport {
    /// Steps completed (always `n_steps` on success).
    pub steps_completed: usize,
    /// Number of recovery rendezvous this rank participated in.
    pub recoveries: usize,
    /// Number of steps that had to be re-executed due to rollbacks.
    pub steps_reexecuted: usize,
    /// The communicator's clock when the run finished: virtual seconds on
    /// the simulator, wall-clock seconds since job start on real threads.
    pub finished_at: f64,
}

/// Run `app` to completion under the LFLR protocol. Call from inside an SPMD
/// closure launched with the
/// [`ReplaceRank`](resilient_runtime::FailurePolicy::ReplaceRank) policy.
/// Returns the report and the final state.
pub fn run_lflr<K: RankClock, A: LflrApp<K>>(
    comm: &mut Comm<K>,
    app: &A,
) -> Result<(LflrReport, A::State)> {
    let n_steps = app.n_steps();
    let persist_interval = app.persist_interval().max(1);
    // The newest step this incarnation persisted or resumed from. A fresh
    // replacement has none and proposes what its inherited store holds.
    let last_persisted = Cell::new(None);
    // The step the current epoch has reached; a rollback re-executes from
    // the agreed step up to it.
    let mut step = 0usize;
    let mut steps_reexecuted = 0usize;

    let (state, epochs) = recovery_epochs(
        comm,
        |comm| last_persisted.get().or_else(|| app.last_recoverable(comm)),
        |comm, resume| {
            steps_reexecuted += step.saturating_sub(resume.unwrap_or(0));
            step = resume.unwrap_or(0);
            let mut state = match resume {
                Some(step) => app.recover(comm, step)?,
                None => {
                    let mut state = app.init(comm)?;
                    app.persist(comm, &mut state, 0)?;
                    state
                }
            };
            last_persisted.set(Some(step));
            while step < n_steps {
                app.step(comm, &mut state, step)?;
                step += 1;
                if step % persist_interval == 0 || step == n_steps {
                    app.persist(comm, &mut state, step)?;
                    last_persisted.set(Some(step));
                }
            }
            Ok(state)
        },
    )?;

    Ok((
        LflrReport {
            steps_completed: step,
            recoveries: epochs.recoveries,
            steps_reexecuted,
            finished_at: comm.now(),
        },
        state,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilient_runtime::{FailureConfig, FailurePolicy, Runtime, RuntimeConfig, Stored};

    /// A toy LFLR application: each rank accumulates `step_value` once per
    /// step and persists its accumulator. Communication per step: a barrier,
    /// so failures are observed by everyone.
    struct Accumulator {
        steps: usize,
        work_per_step: f64,
    }

    impl LflrApp for Accumulator {
        type State = f64;

        fn init(&self, _comm: &mut Comm) -> Result<f64> {
            Ok(0.0)
        }

        fn step(&self, comm: &mut Comm, state: &mut f64, _step: usize) -> Result<()> {
            comm.advance(self.work_per_step);
            comm.barrier()?;
            *state += 1.0;
            Ok(())
        }

        fn persist(&self, comm: &mut Comm, state: &mut f64, step: usize) -> Result<()> {
            comm.persist("acc", *state)?;
            comm.persist("step", step as f64)?;
            Ok(())
        }

        fn recover(&self, comm: &mut Comm, step: usize) -> Result<f64> {
            // The accumulator value is recoverable from the step index alone
            // if persistent data is missing (a fresh replacement whose
            // predecessor never persisted), otherwise read it back.
            let me = comm.rank();
            if comm.persisted(me, "acc") {
                let acc = comm.restore(me, "acc")?.into_scalar()?;
                let persisted_step = comm.restore(me, "step")?.into_scalar()? as usize;
                if persisted_step == step {
                    return Ok(acc);
                }
            }
            Ok(step as f64)
        }

        fn n_steps(&self) -> usize {
            self.steps
        }
    }

    #[test]
    fn failure_free_run_completes_all_steps() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let results = rt
            .run(4, |comm| {
                let app = Accumulator {
                    steps: 12,
                    work_per_step: 0.01,
                };
                let (report, state) = run_lflr(comm, &app)?;
                Ok((report, state))
            })
            .unwrap_all();
        for (report, state) in results {
            assert_eq!(report.steps_completed, 12);
            assert_eq!(report.recoveries, 0);
            assert_eq!(report.steps_reexecuted, 0);
            assert_eq!(state, 12.0);
        }
    }

    #[test]
    fn single_failure_is_recovered_locally() {
        let cfg = RuntimeConfig::fast().with_failures(FailureConfig::scheduled(
            FailurePolicy::ReplaceRank,
            vec![(2, 0.55)],
        ));
        let rt = Runtime::new(cfg);
        let r = rt.run(4, |comm| {
            let app = Accumulator {
                steps: 15,
                work_per_step: 0.1,
            };
            let (report, state) = run_lflr(comm, &app)?;
            Ok((comm.rank(), comm.incarnation(), report, state))
        });
        assert!(r.all_ok(), "errors: {:?}", r.errors);
        assert_eq!(r.failures.len(), 1);
        let results = r.unwrap_all();
        for (rank, incarnation, report, state) in results {
            assert_eq!(report.steps_completed, 15);
            assert_eq!(state, 15.0, "rank {rank} final state");
            if rank == 2 {
                assert_eq!(incarnation, 1, "rank 2 must have been replaced");
            } else {
                assert!(report.recoveries >= 1, "survivors participate in recovery");
            }
        }
    }

    #[test]
    fn two_failures_on_different_ranks_are_both_recovered() {
        let cfg = RuntimeConfig::fast().with_failures(FailureConfig::scheduled(
            FailurePolicy::ReplaceRank,
            vec![(1, 0.35), (3, 0.95)],
        ));
        let rt = Runtime::new(cfg);
        let r = rt.run(4, |comm| {
            let app = Accumulator {
                steps: 14,
                work_per_step: 0.1,
            };
            let (report, state) = run_lflr(comm, &app)?;
            Ok((report.steps_completed, state, comm.incarnation()))
        });
        assert!(r.all_ok(), "errors: {:?}", r.errors);
        assert_eq!(r.failures.len(), 2);
        for (steps, state, _inc) in r.unwrap_all() {
            assert_eq!(steps, 14);
            assert_eq!(state, 14.0);
        }
    }

    #[test]
    fn persistent_data_is_actually_used_by_the_replacement() {
        // Persist a sentinel under a distinct key before the failure and make
        // sure the replacement can read the dead incarnation's data.
        let cfg = RuntimeConfig::fast().with_failures(FailureConfig::scheduled(
            FailurePolicy::ReplaceRank,
            vec![(0, 0.45)],
        ));
        let rt = Runtime::new(cfg);
        let r = rt.run(2, |comm| {
            if !comm.is_replacement() {
                comm.persist("sentinel", vec![comm.rank() as f64 + 7.0])?;
            }
            let app = Accumulator {
                steps: 10,
                work_per_step: 0.1,
            };
            let (_report, _state) = run_lflr(comm, &app)?;
            // After the run, every incarnation can see the original sentinel.
            let v = comm.restore(comm.rank(), "sentinel")?.into_f64()?;
            Ok(Stored::F64(v))
        });
        assert!(r.all_ok(), "errors: {:?}", r.errors);
        let vals = r.unwrap_all();
        assert_eq!(vals[0], Stored::F64(vec![7.0]));
        assert_eq!(vals[1], Stored::F64(vec![8.0]));
    }

    /// Run `job` on a helper thread and fail — instead of hanging the suite
    /// — when it has not returned within 20 s: a protocol deadlock must
    /// read as a test failure.
    fn within_watchdog<T: Send + 'static>(
        what: &str,
        job: impl FnOnce() -> T + Send + 'static,
    ) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(job());
        });
        rx.recv_timeout(std::time::Duration::from_secs(20))
            .unwrap_or_else(|_| panic!("deadlock: {what} did not return within 20 s"))
    }

    /// Gaps between the two deaths: from "same instant" to "after the first
    /// recovery completed", through every overlap with the rendezvous.
    const DEATH_GAPS: [f64; 6] = [0.0, 1e-6, 1e-4, 1e-3, 1e-2, 0.05];

    /// Ranks 1 and 2 die `gap` virtual seconds apart, the second possibly
    /// while the first death's rendezvous is still in flight.
    fn two_deaths_run(gap: f64) {
        let (failures, results) =
            within_watchdog(&format!("two deaths {gap} s apart"), move || {
                let cfg = RuntimeConfig::fast().with_failures(FailureConfig::scheduled(
                    FailurePolicy::ReplaceRank,
                    vec![(1, 0.55), (2, 0.55 + gap)],
                ));
                let r = Runtime::new(cfg).run(4, |comm| {
                    let app = Accumulator {
                        steps: 15,
                        work_per_step: 0.1,
                    };
                    let (report, state) = run_lflr(comm, &app)?;
                    Ok((report.steps_completed, state))
                });
                assert!(r.all_ok(), "gap {gap}: errors: {:?}", r.errors);
                (r.failures.len(), r.unwrap_all())
            });
        assert_eq!(failures, 2, "gap {gap}: both deaths must land");
        for (steps, state) in results {
            assert_eq!(steps, 15, "gap {gap}");
            assert_eq!(state, 15.0, "gap {gap}");
        }
    }

    /// Reproduced at the parent (27 of 36 runs never returned): a second
    /// rank dying while the first death's rendezvous was in flight made the
    /// interrupted ranks abandon the job (`recovery_rendezvous(..)?`) while
    /// their peers waited for them for ever.
    #[test]
    fn two_deaths_within_one_rendezvous_are_both_recovered() {
        for _round in 0..3 {
            for gap in DEATH_GAPS {
                two_deaths_run(gap);
            }
        }
    }

    #[test]
    #[ignore = "stress loop: run explicitly (CI `threads` and TSan jobs)"]
    fn stress_two_deaths_in_one_rendezvous_200_times() {
        for round in 0..200 {
            two_deaths_run(DEATH_GAPS[round % DEATH_GAPS.len()]);
        }
    }

    /// Reproduced at the parent (4 of 4 runs hung): the replacement entered
    /// the second run through the "I am a replacement" rendezvous, which
    /// nobody else joined.
    #[test]
    fn second_run_on_the_same_communicator_does_not_rendezvous_again() {
        let results = within_watchdog("two runs, one death", || {
            let cfg = RuntimeConfig::fast().with_failures(FailureConfig::scheduled(
                FailurePolicy::ReplaceRank,
                vec![(2, 0.55)],
            ));
            let r = Runtime::new(cfg).run(4, |comm| {
                let app = Accumulator {
                    steps: 15,
                    work_per_step: 0.1,
                };
                let (_first, _state) = run_lflr(comm, &app)?;
                let (second, state) = run_lflr(comm, &app)?;
                Ok((second, state))
            });
            assert!(r.all_ok(), "errors: {:?}", r.errors);
            assert_eq!(r.failures.len(), 1);
            r.unwrap_all()
        });
        for (second, state) in results {
            assert_eq!(second.steps_completed, 15);
            assert_eq!(second.recoveries, 0, "the death belongs to the first run");
            assert_eq!(state, 15.0);
        }
    }
}
