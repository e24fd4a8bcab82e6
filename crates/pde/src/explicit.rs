//! Distributed explicit heat equation with LFLR and CPR recovery drivers
//! (§III-C "Explicit methods: … can be easily implemented to recover
//! locally, given the LFLR features").

use resilience::lflr::{CprApp, LflrApp, SnapshotRing};
use resilient_runtime::{BlockDistribution, CartTopology, Comm, RankClock, Result, Stored};

use crate::heat1d::HeatProblem;

/// The distributed explicit heat application: implements both the LFLR and
/// the CPR application contracts so the two recovery models run *exactly the
/// same numerics* and differ only in how they survive failures.
#[derive(Debug, Clone)]
pub struct ExplicitHeat {
    /// The global problem.
    pub problem: HeatProblem,
    /// Number of time steps to run.
    pub steps: usize,
    /// Persist / checkpoint every this many steps.
    pub persist_interval: usize,
    /// Extra virtual seconds of application work charged per step per rank
    /// (models the rest of a real multi-physics step; lets experiments scale
    /// the cost of lost work independently of the grid size).
    pub work_per_step: f64,
}

/// Per-rank state: the locally owned slice of the temperature field.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalField {
    /// Locally owned interior values.
    pub u: Vec<f64>,
    /// Global step this state corresponds to.
    pub step: usize,
    /// The `heat/u@{step}` snapshots this rank retains under LFLR.
    history: SnapshotRing,
}

impl ExplicitHeat {
    /// The step-keyed snapshot history (`heat/u@{step}`, newest step under
    /// `heat/last`). A history rather than a single overwritten slot: ranks
    /// progress asynchronously (halo exchange only loosely couples
    /// neighbours), so the agreed rollback step can be older than a rank's
    /// newest persist; keeping a *window* of persist points lets any rank
    /// roll back to any globally agreed step exactly without the store
    /// growing for the whole run.
    ///
    /// Halo exchange keeps adjacent ranks within one step of each other, so
    /// global progress skew is at most `size - 1` steps; with the laggard's
    /// last persist floor-rounded to the interval, the agreed (minimum)
    /// rollback step can trail a rank's newest persist by up to
    /// `ceil((size-1)/interval)` intervals. The window below is exactly
    /// minimal — the worst case lands on the *oldest retained* key with
    /// zero slack — so do not shrink it, and widen it if any extra step of
    /// skew is ever introduced (e.g. persisting before the halo exchange,
    /// or a periodic topology).
    fn history<K: RankClock>(&self, comm: &Comm<K>) -> SnapshotRing {
        let interval = self.persist_interval.max(1);
        let keep_last = (comm.size() - 1).div_ceil(interval) + 1;
        SnapshotRing::new("heat/u", "heat/last", interval, keep_last)
    }

    /// Build the local initial condition.
    fn local_initial<K: RankClock>(&self, comm: &Comm<K>) -> LocalField {
        let dist = BlockDistribution::new(self.problem.n, comm.size());
        let u = dist
            .range(comm.rank())
            .map(|i| (std::f64::consts::PI * self.problem.x(i)).sin())
            .collect();
        LocalField {
            u,
            step: 0,
            history: self.history(comm),
        }
    }

    /// One distributed explicit step: halo exchange with the left/right
    /// neighbours, then the local stencil update. Charged `work_per_step` of
    /// extra virtual time plus the stencil FLOPs.
    fn local_step<K: RankClock>(&self, comm: &mut Comm<K>, field: &mut LocalField) -> Result<()> {
        let topo = CartTopology::line(comm.size(), false);
        let n_local = field.u.len();
        let left_value = field.u.first().copied().unwrap_or(0.0);
        let right_value = field.u.last().copied().unwrap_or(0.0);
        if self.work_per_step > 0.0 {
            comm.advance(self.work_per_step);
        }
        let (from_left, from_right) =
            comm.exchange_boundaries_1d(&topo, &[left_value], &[right_value])?;
        let left_ghost = from_left.and_then(|v| v.first().copied()).unwrap_or(0.0);
        let right_ghost = from_right.and_then(|v| v.first().copied()).unwrap_or(0.0);
        let r = self.problem.courant();
        let mut next = vec![0.0; n_local];
        for (i, nx) in next.iter_mut().enumerate() {
            let left = if i > 0 { field.u[i - 1] } else { left_ghost };
            let right = if i + 1 < n_local {
                field.u[i + 1]
            } else {
                right_ghost
            };
            *nx = field.u[i] + r * (left - 2.0 * field.u[i] + right);
        }
        comm.charge_flops(5 * n_local);
        field.u = next;
        field.step += 1;
        Ok(())
    }

    /// Gather the global field on every rank (verification only).
    pub fn gather<K: RankClock>(&self, comm: &mut Comm<K>, field: &LocalField) -> Result<Vec<f64>> {
        let parts = comm.allgather(&field.u)?;
        Ok(parts.into_iter().flatten().collect())
    }
}

impl<K: RankClock> LflrApp<K> for ExplicitHeat {
    type State = LocalField;

    fn init(&self, comm: &mut Comm<K>) -> Result<LocalField> {
        Ok(self.local_initial(comm))
    }

    fn step(&self, comm: &mut Comm<K>, state: &mut LocalField, _step: usize) -> Result<()> {
        self.local_step(comm, state)
    }

    fn persist(&self, comm: &mut Comm<K>, state: &mut LocalField, step: usize) -> Result<()> {
        comm.persist(&state.history.key(step), state.u.clone())?;
        comm.persist(state.history.meta_key(), step as f64)?;
        if let Some(old) = state.history.record(step) {
            comm.unpersist(&state.history.key(old));
        }
        Ok(())
    }

    fn recover(&self, comm: &mut Comm<K>, step: usize) -> Result<LocalField> {
        let history = self.history(comm).resuming_from(step);
        // The recovery protocol agrees on the *minimum* recoverable step
        // across every rank (replacements propose from the inherited store
        // via `last_recoverable`), so missing data can only mean the failure
        // predates the very first persist; silently re-initialising at any
        // later step would corrupt the solution, so propagate the miss.
        match history.restore(comm, step) {
            Ok(u) => Ok(LocalField { u, step, history }),
            Err(_) if step == 0 => Ok(LocalField {
                history,
                ..self.local_initial(comm)
            }),
            Err(e) => Err(e),
        }
    }

    fn last_recoverable(&self, comm: &mut Comm<K>) -> Option<usize> {
        self.history(comm).newest_stored(comm)
    }

    fn n_steps(&self) -> usize {
        self.steps
    }

    fn persist_interval(&self) -> usize {
        self.persist_interval
    }
}

impl CprApp for ExplicitHeat {
    type State = LocalField;

    fn init(&self, comm: &mut Comm) -> Result<LocalField> {
        Ok(self.local_initial(comm))
    }

    fn step(&self, comm: &mut Comm, state: &mut LocalField, _step: usize) -> Result<()> {
        self.local_step(comm, state)
    }

    fn checkpoint(&self, comm: &mut Comm, state: &LocalField, step: usize) -> Result<()> {
        comm.checkpoint(&state.history.key(step), Stored::F64(state.u.clone()))?;
        Ok(())
    }

    fn restore(&self, comm: &mut Comm, step: usize) -> Result<LocalField> {
        let history = self.history(comm);
        let u = match comm.restore_checkpoint(&history.key(step)) {
            Some(v) => v.into_f64()?,
            None => self.local_initial(comm).u,
        };
        Ok(LocalField { u, step, history })
    }

    fn n_steps(&self) -> usize {
        self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilience::lflr::{run_cpr, run_lflr, CprConfig};
    use resilient_faults::thread_death::ThreadDeathPlan;
    use resilient_runtime::{
        FailureConfig, FailurePolicy, Runtime, RuntimeConfig, ThreadConfig, ThreadRuntime,
    };
    use std::sync::Arc;

    fn app(steps: usize) -> ExplicitHeat {
        ExplicitHeat {
            problem: HeatProblem::stable(48, 1.0),
            steps,
            persist_interval: 5,
            work_per_step: 0.01,
        }
    }

    #[test]
    fn distributed_explicit_matches_serial() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let steps = 60;
        let fields = rt
            .run(4, move |comm| {
                let app = app(steps);
                let mut field = app.local_initial(comm);
                for _ in 0..steps {
                    app.local_step(comm, &mut field)?;
                }
                app.gather(comm, &field)
            })
            .unwrap_all();
        let serial = HeatProblem::stable(48, 1.0).run_explicit(steps);
        for f in fields {
            for (a, b) in f.iter().zip(&serial) {
                assert!(
                    (a - b).abs() < 1e-12,
                    "distributed and serial stepping must agree"
                );
            }
        }
    }

    #[test]
    fn lflr_run_with_failure_matches_failure_free_solution() {
        let steps = 40;
        // Failure-free reference.
        let serial = HeatProblem::stable(48, 1.0).run_explicit(steps);

        let cfg = RuntimeConfig::fast().with_failures(FailureConfig::scheduled(
            FailurePolicy::ReplaceRank,
            vec![(1, 0.22)],
        ));
        let rt = Runtime::new(cfg);
        let r = rt.run(4, move |comm| {
            let app = app(steps);
            let (report, field) = run_lflr(comm, &app)?;
            Ok((report, app.gather(comm, &field)?))
        });
        assert!(r.all_ok(), "errors: {:?}", r.errors);
        assert_eq!(r.failures.len(), 1);
        for (report, field) in r.unwrap_all() {
            assert_eq!(report.steps_completed, steps);
            for (a, b) in field.iter().zip(&serial) {
                assert!(
                    (a - b).abs() < 1e-12,
                    "LFLR-recovered solution must equal the failure-free one"
                );
            }
        }
    }

    /// [`ExplicitHeat`] plus a barrier per step: the heat stepping itself is
    /// point-to-point only, and the threaded death plan counts collectives.
    struct Synced(ExplicitHeat);

    impl<K: RankClock> LflrApp<K> for Synced {
        type State = LocalField;

        fn init(&self, comm: &mut Comm<K>) -> Result<LocalField> {
            LflrApp::init(&self.0, comm)
        }
        fn step(&self, comm: &mut Comm<K>, state: &mut LocalField, step: usize) -> Result<()> {
            LflrApp::step(&self.0, comm, state, step)?;
            comm.barrier()
        }
        fn persist(&self, comm: &mut Comm<K>, state: &mut LocalField, step: usize) -> Result<()> {
            self.0.persist(comm, state, step)
        }
        fn recover(&self, comm: &mut Comm<K>, step: usize) -> Result<LocalField> {
            self.0.recover(comm, step)
        }
        fn last_recoverable(&self, comm: &mut Comm<K>) -> Option<usize> {
            self.0.last_recoverable(comm)
        }
        fn n_steps(&self) -> usize {
            self.0.steps
        }
        fn persist_interval(&self) -> usize {
            self.0.persist_interval
        }
    }

    /// The same application on the real-threads backend: rank 1 really
    /// dies (a panic unwind) in step 17, a replacement thread adopts its
    /// partition, and the recovered field still equals the serial one.
    #[test]
    fn wall_clock_lflr_run_with_thread_death_matches_serial() {
        let steps = 40;
        let serial = HeatProblem::stable(48, 1.0).run_explicit(steps);
        let plan = Arc::new(ThreadDeathPlan::new().kill_at_collective(1, 17));
        let rt = ThreadRuntime::new(ThreadConfig::fast()).with_injector(plan as _);
        let r = rt.run(4, move |comm| {
            let app = Synced(ExplicitHeat {
                work_per_step: 0.0,
                ..app(steps)
            });
            let (report, field) = run_lflr(comm, &app)?;
            Ok((report, app.0.gather(comm, &field)?))
        });
        assert!(r.all_ok(), "errors: {:?}", r.errors);
        assert_eq!(r.failures.len(), 1);
        for (report, field) in r.unwrap_all() {
            assert_eq!(report.steps_completed, steps);
            assert_eq!(report.recoveries, 1);
            for (a, b) in field.iter().zip(&serial) {
                assert!(
                    (a - b).abs() < 1e-12,
                    "LFLR-recovered solution must equal the failure-free one"
                );
            }
        }
    }

    #[test]
    fn persist_history_stays_bounded() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let steps = 60;
        let r = rt.run(4, move |comm| {
            let app = app(steps); // persist_interval = 5
            let (_report, _field) = run_lflr(comm, &app)?;
            // 4 ranks, interval 5 -> window = (ceil(3/5) + 1) * 5 = 10 steps:
            // only the newest two persist points survive pruning.
            let me = comm.rank();
            Ok((
                comm.persisted(me, "heat/u@60"),
                comm.persisted(me, "heat/u@55"),
                comm.persisted(me, "heat/u@50"),
                comm.persisted(me, "heat/u@5"),
            ))
        });
        for (newest, prev, pruned, ancient) in r.unwrap_all() {
            assert!(newest && prev, "the recovery window must be retained");
            assert!(
                !pruned && !ancient,
                "history outside the window must be pruned"
            );
        }
    }

    #[test]
    fn cpr_run_with_failure_completes_and_costs_more() {
        let steps = 40;
        let base = RuntimeConfig::fast();
        // Failure-free cost.
        let clean = run_cpr(
            &base,
            4,
            Arc::new(app(steps)),
            &CprConfig {
                checkpoint_interval: 5,
                max_restarts: 4,
            },
        );
        assert!(clean.completed);
        assert_eq!(clean.attempts, 1);

        let faulty_cfg = base.with_failures(FailureConfig {
            enabled: true,
            policy: FailurePolicy::AbortJob,
            mtbf_per_rank: f64::INFINITY,
            scheduled: vec![(2, 0.31)],
            max_failures: 1,
        });
        let faulty = run_cpr(
            &faulty_cfg,
            4,
            Arc::new(app(steps)),
            &CprConfig {
                checkpoint_interval: 5,
                max_restarts: 4,
            },
        );
        assert!(faulty.completed, "{faulty:?}");
        assert_eq!(faulty.attempts, 2);
        assert!(
            faulty.total_virtual_time > clean.total_virtual_time,
            "a failure must cost time under CPR: {} vs {}",
            faulty.total_virtual_time,
            clean.total_virtual_time
        );
    }
}
