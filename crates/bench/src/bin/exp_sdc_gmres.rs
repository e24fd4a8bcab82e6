//! Experiment E1 — silent-data-corruption detection in GMRES (SkP, §III-A).
//!
//! Sweeps the flipped bit position of a single bit flip injected into one
//! SpMV output during a GMRES solve, and reports detection and outcome rates
//! for the skeptical solver versus the trusting baseline.

use resilience::prelude::*;
use resilient_bench::{fmt_g, Table};
use resilient_linalg::poisson2d;

fn outcome_of(err: f64, converged: bool, tol: f64) -> &'static str {
    if !err.is_finite() {
        "diverged"
    } else if err <= tol * 100.0 {
        "correct"
    } else if converged {
        "silent-wrong"
    } else {
        "not-converged"
    }
}

fn main() {
    let a = poisson2d(20, 20);
    let n = a.nrows();
    let b = vec![1.0; n];
    let opts = SolveOptions::default()
        .with_tol(1e-8)
        .with_max_iters(800)
        .with_restart(40);
    let trials_per_bit = 6;
    let bit_groups: Vec<(&str, Vec<u32>)> = vec![
        ("mantissa-low (0..26)", (0..27).step_by(9).collect()),
        ("mantissa-high (27..51)", (27..52).step_by(8).collect()),
        ("exponent (52..62)", (52..63).step_by(3).collect()),
        ("sign (63)", vec![63]),
    ];

    let mut table = Table::new(
        "E1: single bit flip in one SpMV of GMRES(40), 2-D Poisson n=400",
        &[
            "bit class",
            "trials",
            "skeptical detect%",
            "skeptical correct%",
            "trusting correct%",
            "check overhead",
        ],
    );

    for (label, bits) in &bit_groups {
        let mut injected = 0usize;
        let mut detected = 0usize;
        let mut skeptical_correct = 0usize;
        let mut trusting_correct = 0usize;
        let mut overhead = 0.0;
        let mut overhead_samples = 0usize;
        for &bit in bits {
            for trial in 0..trials_per_bit {
                let seed = 1000 + bit as u64 * 31 + trial as u64;
                let fault = Some(random_spmv_fault(n, 3 + trial * 5, Some(bit), seed));
                // Skeptical run.
                let (out, report) =
                    skeptical_gmres(&a, &b, None, &opts, &SkepticalConfig::default(), fault);
                if out.injections == 0 {
                    continue;
                }
                injected += 1;
                if report.detections > 0 {
                    detected += 1;
                }
                let err = true_relative_residual(&a, &b, &out.x);
                if outcome_of(err, out.converged(), opts.tol) == "correct" {
                    skeptical_correct += 1;
                }
                overhead += report.check_flops as f64 / out.flops.max(1) as f64;
                overhead_samples += 1;
                // Trusting run on the same fault.
                let (out_t, _) =
                    skeptical_gmres(&a, &b, None, &opts, &SkepticalConfig::trusting(), fault);
                let err_t = true_relative_residual(&a, &b, &out_t.x);
                if outcome_of(err_t, out_t.converged(), opts.tol) == "correct" {
                    trusting_correct += 1;
                }
            }
        }
        let pct = |x: usize| format!("{:.0}%", 100.0 * x as f64 / injected.max(1) as f64);
        table.row(vec![
            label.to_string(),
            injected.to_string(),
            pct(detected),
            pct(skeptical_correct),
            pct(trusting_correct),
            fmt_g(overhead / overhead_samples.max(1) as f64),
        ]);
    }
    table.emit("e1_sdc_gmres");
}
