//! Experiment E9 — the paper's closing argument (§IV): resilient algorithms
//! let applications run effectively on *less reliable, cheaper* systems.
//! Sweeps the per-rank failure rate and compares total time to solution for
//! a CPR-only application versus an LFLR application on the same machine.

use resilience::prelude::{run_cpr, run_lflr, CprConfig};
use resilient_bench::{fmt_g, fmt_ratio, Table};
use resilient_pde::{ExplicitHeat, HeatProblem};
use resilient_runtime::{FailureConfig, FailurePolicy, LatencyModel, Runtime, RuntimeConfig};
use std::sync::Arc;

fn app(steps: usize) -> ExplicitHeat {
    ExplicitHeat {
        problem: HeatProblem::stable(256, 1.0),
        steps,
        persist_interval: 5,
        work_per_step: 5.0e-3,
    }
}

fn machine(mtbf_per_rank: f64, policy: FailurePolicy) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::fast().with_seed(31);
    cfg.latency = LatencyModel {
        alpha: 5.0e-6,
        beta: 1e-9,
        gamma: 1e-9,
    };
    cfg.checkpoint_seconds_per_byte = 2.0e-8;
    cfg.restart_cost = 1.0;
    cfg.replacement_cost = 0.05;
    cfg.failures = if mtbf_per_rank.is_finite() {
        FailureConfig::random(policy, mtbf_per_rank, 6)
    } else {
        FailureConfig::none()
    };
    cfg
}

fn main() {
    let ranks = 8;
    let steps = 80;
    let mut table = Table::new(
        "E9: total time to solution on machines of decreasing reliability (8 ranks, 80 steps)",
        &[
            "per-rank MTBF (s)",
            "CPR time",
            "CPR restarts",
            "LFLR time",
            "LFLR recoveries",
            "LFLR advantage",
        ],
    );
    for &mtbf in &[f64::INFINITY, 8.0, 4.0, 2.0, 1.0] {
        // CPR-only application.
        let cpr_report = run_cpr(
            &machine(mtbf, FailurePolicy::AbortJob),
            ranks,
            Arc::new(app(steps)),
            &CprConfig {
                checkpoint_interval: 5,
                max_restarts: 20,
            },
        );
        // LFLR application.
        let heat = app(steps);
        let rt = Runtime::new(machine(mtbf, FailurePolicy::ReplaceRank));
        let lflr = rt.run(ranks, move |comm| {
            let (report, _state) = run_lflr(comm, &heat)?;
            Ok(report.recoveries)
        });
        let lflr_ok = lflr.all_ok();
        let lflr_time = lflr.makespan();
        let recoveries = lflr.failures.len();
        let cpr_time = if cpr_report.completed {
            cpr_report.total_virtual_time
        } else {
            f64::INFINITY
        };
        table.row(vec![
            if mtbf.is_finite() {
                format!("{mtbf}")
            } else {
                "∞".into()
            },
            fmt_g(cpr_time),
            (cpr_report.attempts - 1).to_string(),
            if lflr_ok {
                fmt_g(lflr_time)
            } else {
                "failed".into()
            },
            recoveries.to_string(),
            fmt_ratio(cpr_time / lflr_time.max(1e-12)),
        ]);
    }
    table.emit("e9_system_cost");
}
