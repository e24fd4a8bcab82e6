//! Solve a 2-D Poisson problem three ways under silent data corruption:
//! trusting GMRES, skeptical GMRES, and FT-GMRES (selective reliability).
//!
//! Run with: `cargo run --example resilient_poisson`

use resilience::prelude::*;
use resilient_linalg::poisson2d;

fn main() {
    let a = poisson2d(24, 24);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64 * 0.1).collect();
    let opts = SolveOptions::default()
        .with_tol(1e-8)
        .with_max_iters(800)
        .with_restart(40);
    println!("2-D Poisson, n = {n}: GMRES under a single injected bit flip\n");
    println!(
        "{:<28} {:>10} {:>8} {:>14}",
        "solver", "converged", "iters", "true rel. res."
    );

    for bit in [1u32, 40, 58, 63] {
        let fault = Some(random_spmv_fault(n, 6, Some(bit), 11));
        let (t_out, _) = skeptical_gmres(&a, &b, None, &opts, &SkepticalConfig::trusting(), fault);
        let (s_out, s_rep) =
            skeptical_gmres(&a, &b, None, &opts, &SkepticalConfig::default(), fault);

        println!(
            "{:<28} {:>10} {:>8} {:>14.2e}",
            format!("trusting GMRES (bit {bit})"),
            t_out.converged(),
            t_out.iterations,
            true_relative_residual(&a, &b, &t_out.x)
        );
        println!(
            "{:<28} {:>10} {:>8} {:>14.2e}  ({} detection(s))",
            format!("skeptical GMRES (bit {bit})"),
            s_out.converged(),
            s_out.iterations,
            true_relative_residual(&a, &b, &s_out.x),
            s_rep.detections
        );
    }

    println!("\nFT-GMRES with an unreliable inner solver (fault-rate sweep):");
    for rate in [0.0, 1e-5, 1e-4, 1e-3] {
        let cfg = FtGmresConfig {
            outer: SolveOptions::default()
                .with_tol(1e-8)
                .with_max_iters(60)
                .with_restart(30),
            fault_rate: rate,
            ..FtGmresConfig::default()
        };
        let (out, report) = ft_gmres(&a, &b, &cfg);
        println!(
            "  rate {rate:>7.0e}: converged={}, outer iters={}, corruptions={}, true res={:.2e}",
            out.converged(),
            out.iterations,
            report.corruptions,
            true_relative_residual(&a, &b, &out.x)
        );
    }
}
