//! The global checkpoint/restart (CPR) baseline driver.
//!
//! This is the recovery model the paper's introduction describes as the
//! status quo: "occasionally storing a snapshot of application state and
//! restarting from that saved state" — with the whole job torn down and
//! relaunched on every failure.

use std::sync::Arc;

use resilient_runtime::{
    Comm, FailurePolicy, ReduceOp, Result, Runtime, RuntimeConfig, StableStore, Stored,
};

/// A step-structured SPMD application that can checkpoint to and restore
/// from the stable store (the simulated parallel file system).
pub trait CprApp: Send + Sync + 'static {
    /// Per-rank application state.
    type State: Send + 'static;
    /// Build the initial state.
    fn init(&self, comm: &mut Comm) -> Result<Self::State>;
    /// Advance from `step` to `step + 1`.
    fn step(&self, comm: &mut Comm, state: &mut Self::State, step: usize) -> Result<()>;
    /// Write this rank's checkpoint for (completed) step `step`.
    fn checkpoint(&self, comm: &mut Comm, state: &Self::State, step: usize) -> Result<()>;
    /// Restore this rank's state from the checkpoint taken at `step`.
    fn restore(&self, comm: &mut Comm, step: usize) -> Result<Self::State>;
    /// Total number of steps.
    fn n_steps(&self) -> usize;
}

/// CPR driver configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CprConfig {
    /// Take a global checkpoint every this many steps.
    pub checkpoint_interval: usize,
    /// Give up after this many job restarts.
    pub max_restarts: usize,
}

impl Default for CprConfig {
    fn default() -> Self {
        Self {
            checkpoint_interval: 10,
            max_restarts: 64,
        }
    }
}

/// Outcome of a CPR-driven campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CprReport {
    /// Job launches (1 = no restart was needed).
    pub attempts: usize,
    /// Failures observed across all attempts.
    pub failures: usize,
    /// Did the application finish all steps?
    pub completed: bool,
    /// Total virtual time: the sum over attempts of each attempt's makespan,
    /// plus the configured restart cost for every aborted attempt.
    pub total_virtual_time: f64,
    /// Steps re-executed because they post-dated the last checkpoint.
    pub steps_reexecuted: usize,
    /// Total bytes written to the stable store.
    pub checkpoint_bytes: u64,
}

/// Key under which the driver records the last globally completed checkpoint.
const LAST_CHECKPOINT_KEY: &str = "cpr/last_checkpoint_step";

/// Run `app` to completion under global checkpoint/restart.
///
/// `config` supplies the machine model and the failure injection; its
/// failure policy is forced to [`FailurePolicy::AbortJob`]. Returns the
/// campaign report.
pub fn run_cpr<A: CprApp>(
    config: &RuntimeConfig,
    size: usize,
    app: Arc<A>,
    cpr: &CprConfig,
) -> CprReport {
    let mut config = config.clone();
    config.failures.policy = FailurePolicy::AbortJob;
    let base_max_failures = config.failures.max_failures;
    let base_seed = config.seed;

    let stable = StableStore::new();
    let checkpoint_interval = cpr.checkpoint_interval.max(1);
    let n_steps = app.n_steps();

    let mut report = CprReport {
        attempts: 0,
        failures: 0,
        completed: false,
        total_virtual_time: 0.0,
        steps_reexecuted: 0,
        checkpoint_bytes: 0,
    };

    while report.attempts <= cpr.max_restarts {
        report.attempts += 1;
        // Failures already consumed in earlier attempts are not re-injected:
        // cap the remaining budget and decorrelate the random stream.
        config.failures.max_failures = base_max_failures.saturating_sub(report.failures);
        config.seed = base_seed.wrapping_add(report.attempts as u64 * 0x9E37);
        let runtime = Runtime::new(config.clone());
        let app_ref = Arc::clone(&app);

        let result = runtime.run_with_stable(size, stable.clone(), move |comm| {
            // Resume from the last globally completed checkpoint, if any.
            let resume_step = comm
                .stable_store()
                .get(LAST_CHECKPOINT_KEY)
                .and_then(|v| v.into_scalar().ok())
                .map(|s| s as usize)
                .unwrap_or(0);
            let mut state = if resume_step > 0 {
                app_ref.restore(comm, resume_step)?
            } else {
                app_ref.init(comm)?
            };
            let mut step = resume_step;
            while step < app_ref.n_steps() {
                app_ref.step(comm, &mut state, step)?;
                step += 1;
                if step % checkpoint_interval == 0 || step == app_ref.n_steps() {
                    app_ref.checkpoint(comm, &state, step)?;
                    // The checkpoint only counts once every rank has written
                    // it; the barrier models the coordinated checkpoint.
                    comm.barrier()?;
                    if comm.rank() == 0 {
                        comm.stable_store()
                            .put(LAST_CHECKPOINT_KEY, Stored::Scalar(step as f64));
                    }
                }
            }
            // Completed-step agreement, so the driver can account rework.
            let done = comm.allreduce_scalar(ReduceOp::Min, step as f64)?;
            Ok((done as usize, resume_step))
        });

        let makespan = result
            .stats
            .iter()
            .map(|s| s.virtual_time)
            .fold(0.0, f64::max)
            .max(result.makespan());
        report.total_virtual_time += makespan;
        report.failures += result.failures.len();
        report.checkpoint_bytes += result.stats.iter().map(|s| s.checkpoint_bytes).sum::<u64>();

        if result.all_ok() {
            report.completed = true;
            break;
        }
        // The attempt aborted: charge the restart cost and account the steps
        // that will have to be redone (everything past the last checkpoint).
        report.total_virtual_time += config.restart_cost;
        let last_ckpt = stable
            .get(LAST_CHECKPOINT_KEY)
            .and_then(|v| v.into_scalar().ok())
            .map(|s| s as usize)
            .unwrap_or(0);
        // We do not know exactly how far each rank got; conservatively count
        // the distance from the last checkpoint to the next one (or the end).
        let next_target = ((last_ckpt / checkpoint_interval) + 1) * checkpoint_interval;
        report.steps_reexecuted += next_target.min(n_steps).saturating_sub(last_ckpt);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilient_runtime::FailureConfig;

    /// The CPR flavour of the accumulator application used by the LFLR tests.
    struct Accumulator {
        steps: usize,
        work_per_step: f64,
    }

    impl CprApp for Accumulator {
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
        fn checkpoint(&self, comm: &mut Comm, state: &f64, step: usize) -> Result<()> {
            comm.checkpoint(&format!("acc@{step}"), *state)?;
            Ok(())
        }
        fn restore(&self, comm: &mut Comm, step: usize) -> Result<f64> {
            Ok(comm
                .restore_checkpoint(&format!("acc@{step}"))
                .map(|v| v.into_scalar().unwrap_or(step as f64))
                .unwrap_or(step as f64))
        }
        fn n_steps(&self) -> usize {
            self.steps
        }
    }

    #[test]
    fn failure_free_cpr_completes_in_one_attempt() {
        let config = RuntimeConfig::fast();
        let report = run_cpr(
            &config,
            4,
            Arc::new(Accumulator {
                steps: 12,
                work_per_step: 0.01,
            }),
            &CprConfig {
                checkpoint_interval: 4,
                max_restarts: 3,
            },
        );
        assert!(report.completed);
        assert_eq!(report.attempts, 1);
        assert_eq!(report.failures, 0);
        assert_eq!(report.steps_reexecuted, 0);
        assert!(report.checkpoint_bytes > 0);
        assert!(report.total_virtual_time > 0.0);
    }

    #[test]
    fn single_failure_forces_one_restart_and_rework() {
        let config = RuntimeConfig::fast().with_failures(FailureConfig {
            enabled: true,
            policy: FailurePolicy::AbortJob,
            mtbf_per_rank: f64::INFINITY,
            scheduled: vec![(1, 0.65)],
            max_failures: 1,
        });
        let report = run_cpr(
            &config,
            4,
            Arc::new(Accumulator {
                steps: 20,
                work_per_step: 0.1,
            }),
            &CprConfig {
                checkpoint_interval: 5,
                max_restarts: 5,
            },
        );
        assert!(report.completed, "{report:?}");
        assert_eq!(report.attempts, 2, "exactly one restart");
        assert_eq!(report.failures, 1);
        assert!(
            report.steps_reexecuted > 0,
            "work past the last checkpoint is redone"
        );
        // Total time exceeds the failure-free time of 20 * 0.1.
        assert!(report.total_virtual_time > 2.0);
    }

    #[test]
    fn gives_up_after_max_restarts() {
        // A failure is injected at the very beginning of every attempt, so the
        // job can never pass the first checkpoint.
        let config = RuntimeConfig::fast().with_failures(FailureConfig {
            enabled: true,
            policy: FailurePolicy::AbortJob,
            mtbf_per_rank: f64::INFINITY,
            scheduled: vec![(0, 0.05)],
            max_failures: usize::MAX,
        });
        let report = run_cpr(
            &config,
            2,
            Arc::new(Accumulator {
                steps: 50,
                work_per_step: 0.1,
            }),
            &CprConfig {
                checkpoint_interval: 10,
                max_restarts: 3,
            },
        );
        assert!(!report.completed);
        assert_eq!(report.attempts, 4, "initial attempt + 3 restarts");
        assert_eq!(report.failures, 4);
    }
}
