//! Local-failure local-recovery for an explicit heat equation: a rank is
//! killed mid-run, a replacement is spawned, and the simulation finishes
//! with exactly the failure-free answer — compared against the global
//! checkpoint/restart baseline.
//!
//! Run with: `cargo run --example heat_lflr`

use resilience::prelude::{run_cpr, run_lflr, CprConfig};
use resilient_pde::{ExplicitHeat, HeatProblem};
use resilient_runtime::{FailureConfig, FailurePolicy, Runtime, RuntimeConfig};
use std::sync::Arc;

fn heat(steps: usize) -> ExplicitHeat {
    ExplicitHeat {
        problem: HeatProblem::stable(128, 1.0),
        steps,
        persist_interval: 5,
        work_per_step: 5e-3,
    }
}

fn main() {
    let ranks = 4;
    let steps = 50;
    let serial = HeatProblem::stable(128, 1.0).run_explicit(steps);

    // --- LFLR: kill rank 2 at t = 0.12 and recover locally ------------------
    let cfg = RuntimeConfig::fast().with_failures(FailureConfig::scheduled(
        FailurePolicy::ReplaceRank,
        vec![(2, 0.12)],
    ));
    let rt = Runtime::new(cfg);
    let app = heat(steps);
    let job = rt.run(ranks, move |comm| {
        let (report, field) = run_lflr(comm, &app)?;
        let global = app.gather(comm, &field)?;
        Ok((report, global))
    });
    println!("LFLR run: {} failure(s) injected", job.failures.len());
    let (report, field) = job
        .results
        .into_iter()
        .next()
        .flatten()
        .expect("rank 0 result");
    let max_diff = field
        .iter()
        .zip(&serial)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!(
        "  steps completed          : {}\n  recoveries (rank 0 view) : {}\n  steps re-executed        : {}\n  max |u_lflr - u_serial|  : {max_diff:.3e}",
        report.steps_completed, report.recoveries, report.steps_reexecuted
    );

    // --- CPR baseline: same failure, whole job restarts ---------------------
    let cpr_cfg = RuntimeConfig::fast().with_failures(FailureConfig {
        enabled: true,
        policy: FailurePolicy::AbortJob,
        mtbf_per_rank: f64::INFINITY,
        scheduled: vec![(2, 0.12)],
        max_failures: 1,
    });
    let cpr = run_cpr(
        &cpr_cfg,
        ranks,
        Arc::new(heat(steps)),
        &CprConfig {
            checkpoint_interval: 5,
            max_restarts: 4,
        },
    );
    println!(
        "\nCPR baseline: completed={}, job launches={}, total virtual time={:.3} s (vs LFLR {:.3} s)",
        cpr.completed,
        cpr.attempts,
        cpr.total_virtual_time,
        report.finished_at
    );
}
