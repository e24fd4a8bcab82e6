//! Experiment E7 — TMR cost ablation (SRP, §II-D): cost per *correct* SpMV
//! for single-unreliable-with-retry vs. TMR vs. single-reliable execution,
//! across fault rates ("even TMR can be much faster than a fully unreliable
//! approach").

use resilience::prelude::compare_tmr_strategies;
use resilient_bench::{fmt_g, Table};
use resilient_faults::ReliabilityModel;
use resilient_linalg::poisson2d;

fn main() {
    let a = poisson2d(16, 16);
    let x: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + (i % 5) as f64 * 0.2).collect();
    let model = ReliabilityModel {
        reliable_cost_factor: 3.0,
    };
    let mut table = Table::new(
        "E7: cost per correct SpMV (unreliable-FLOP equivalents), n=256, reliable cost factor 3x",
        &[
            "fault rate/elem",
            "unreliable+retry",
            "TMR",
            "reliable",
            "single success%",
            "TMR success%",
        ],
    );
    for &rate in &[0.0, 1e-4, 1e-3, 1e-2, 5e-2, 1e-1] {
        let cmp = compare_tmr_strategies(&a, &x, rate, &model, 60, 7);
        table.row(vec![
            format!("{rate:.0e}"),
            fmt_g(cmp.unreliable_retry_cost),
            fmt_g(cmp.tmr_cost),
            fmt_g(cmp.reliable_cost),
            format!("{:.0}%", cmp.unreliable_success_rate * 100.0),
            format!("{:.0}%", cmp.tmr_success_rate * 100.0),
        ]);
    }
    table.emit("e7_tmr");
}
