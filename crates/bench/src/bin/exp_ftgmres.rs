//! Experiment E6 — FT-GMRES via selective reliability (SRP, §III-D):
//! convergence probability and cost-weighted work versus the fault rate of
//! the unreliable tier, against all-unreliable and all-reliable baselines.

use resilience::prelude::*;
use resilient_bench::{fmt_g, Table};
use resilient_faults::memory::ReliabilityModel;
use resilient_linalg::poisson2d;

fn main() {
    let a = poisson2d(16, 16);
    let n = a.nrows();
    let b = vec![1.0; n];
    let tol = 1e-8;
    let trials = 5u64;
    let model = ReliabilityModel {
        reliable_cost_factor: 2.0,
    };

    let mut table = Table::new(
        "E6: FT-GMRES vs baselines, 2-D Poisson n=256 (5 trials/rate, cost in unreliable-FLOP equivalents)",
        &["fault rate/elem", "FT-GMRES conv%", "FT cost", "unreliable GMRES conv%", "unreliable cost", "reliable GMRES cost", "FT reliable-flop frac"],
    );
    let (rel_out, rel_ledger) = reliable_gmres(
        &a,
        &b,
        &SolveOptions::default()
            .with_tol(tol)
            .with_max_iters(600)
            .with_restart(40),
    );
    assert!(rel_out.converged());
    let reliable_cost = rel_ledger.weighted_cost(&model);

    for &rate in &[0.0, 1e-6, 1e-5, 1e-4, 1e-3] {
        let mut ft_conv = 0u64;
        let mut ft_cost = 0.0;
        let mut ft_rel_frac = 0.0;
        let mut un_conv = 0u64;
        let mut un_cost = 0.0;
        for t in 0..trials {
            let cfg = FtGmresConfig {
                outer: SolveOptions::default()
                    .with_tol(tol)
                    .with_max_iters(60)
                    .with_restart(30),
                inner_iters: 20,
                inner_tol: 1e-2,
                fault_rate: rate,
                reliability: model,
                seed: 100 + t,
            };
            let (out, report) = ft_gmres(&a, &b, &cfg);
            let err = true_relative_residual(&a, &b, &out.x);
            if out.converged() && err < tol * 100.0 {
                ft_conv += 1;
            }
            ft_cost += report.ledger.weighted_cost(&model);
            ft_rel_frac += report.ledger.reliable_fraction();

            let (uout, uledger) = unreliable_gmres(
                &a,
                &b,
                &SolveOptions::default()
                    .with_tol(tol)
                    .with_max_iters(600)
                    .with_restart(40),
                rate,
                200 + t,
            );
            let uerr = true_relative_residual(&a, &b, &uout.x);
            if uout.converged() && uerr < tol * 100.0 {
                un_conv += 1;
            }
            un_cost += uledger.weighted_cost(&model);
        }
        let pct = |x: u64| format!("{:.0}%", 100.0 * x as f64 / trials as f64);
        table.row(vec![
            format!("{rate:.0e}"),
            pct(ft_conv),
            fmt_g(ft_cost / trials as f64),
            pct(un_conv),
            fmt_g(un_cost / trials as f64),
            fmt_g(reliable_cost),
            format!("{:.2}", ft_rel_frac / trials as f64),
        ]);
    }
    table.emit("e6_ftgmres");
}
