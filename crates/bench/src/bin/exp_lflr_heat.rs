//! Experiment E4 — LFLR vs. global checkpoint/restart for the explicit heat
//! equation (LFLR, §II-C / §III-C): total time to solution under injected
//! rank failures, as the rank count grows (weak scaling of the recovery
//! cost).

use resilience::prelude::{run_cpr, run_lflr, CprConfig};
use resilient_bench::{fmt_g, fmt_ratio, Table};
use resilient_pde::{ExplicitHeat, HeatProblem};
use resilient_runtime::{FailureConfig, FailurePolicy, LatencyModel, Runtime, RuntimeConfig};
use std::sync::Arc;

fn app(n: usize, steps: usize) -> ExplicitHeat {
    ExplicitHeat {
        problem: HeatProblem::stable(n, 1.0),
        steps,
        persist_interval: 5,
        work_per_step: 5.0e-3,
    }
}

fn base_config(checkpoint_cost: f64) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::fast().with_seed(21);
    cfg.latency = LatencyModel {
        alpha: 5.0e-6,
        beta: 1e-9,
        gamma: 1e-9,
    };
    cfg.checkpoint_seconds_per_byte = checkpoint_cost;
    cfg.restart_cost = 2.0;
    cfg.replacement_cost = 0.05;
    cfg
}

fn lflr_time(ranks: usize, n: usize, steps: usize, failures: Vec<(usize, f64)>) -> (f64, usize) {
    let cfg = base_config(2.0e-8).with_failures(FailureConfig::scheduled(
        FailurePolicy::ReplaceRank,
        failures,
    ));
    let rt = Runtime::new(cfg);
    let heat = app(n, steps);
    let r = rt.run(ranks, move |comm| {
        let (report, _state) = run_lflr(comm, &heat)?;
        Ok(report)
    });
    assert!(r.all_ok(), "LFLR run failed: {:?}", r.errors);
    (r.makespan(), r.failures.len())
}

fn cpr_time(ranks: usize, n: usize, steps: usize, failures: Vec<(usize, f64)>) -> (f64, usize) {
    let mut cfg = base_config(2.0e-8);
    cfg.failures = FailureConfig {
        enabled: !failures.is_empty(),
        policy: FailurePolicy::AbortJob,
        mtbf_per_rank: f64::INFINITY,
        scheduled: failures,
        max_failures: 1,
    };
    let report = run_cpr(
        &cfg,
        ranks,
        Arc::new(app(n, steps)),
        &CprConfig {
            checkpoint_interval: 5,
            max_restarts: 8,
        },
    );
    assert!(report.completed, "CPR run did not complete: {report:?}");
    (report.total_virtual_time, report.failures)
}

fn main() {
    let steps = 60;
    let per_rank_points = 64; // weak scaling: grid grows with the rank count
    let mut table = Table::new(
        "E4: explicit heat, one rank failure mid-run — LFLR vs global CPR (virtual s)",
        &[
            "ranks",
            "grid n",
            "failure-free",
            "LFLR w/ failure",
            "CPR w/ failure",
            "LFLR overhead",
            "CPR overhead",
        ],
    );
    for &ranks in &[4usize, 8, 16, 32] {
        let n = per_rank_points * ranks;
        let fail = vec![(ranks / 2, 0.17)];
        let (clean, _) = lflr_time(ranks, n, steps, vec![]);
        let (lflr, lflr_failures) = lflr_time(ranks, n, steps, fail.clone());
        let (cpr, cpr_failures) = cpr_time(ranks, n, steps, fail);
        assert_eq!(lflr_failures, 1);
        assert_eq!(cpr_failures, 1);
        table.row(vec![
            ranks.to_string(),
            n.to_string(),
            fmt_g(clean),
            fmt_g(lflr),
            fmt_g(cpr),
            fmt_ratio(lflr / clean),
            fmt_ratio(cpr / clean),
        ]);
    }
    table.emit("e4_lflr_vs_cpr");
}
