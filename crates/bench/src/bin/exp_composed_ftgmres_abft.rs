//! Composed scenario C2 — FT-GMRES × ABFT-checked outer products
//! (SRP × ABFT).
//!
//! Plain FT-GMRES validates *inner* (unreliable-tier) results but trusts
//! its outer iteration blindly: a bit flip in an outer SpMV silently
//! corrupts the Krylov basis. The composed preset verifies every outer
//! product against Huang–Abraham column-sum checksums and rolls the cycle
//! back on detection. This experiment injects one exponent-bit flip into a
//! chosen outer product and compares plain vs. ABFT-checked FT-GMRES,
//! reporting the ABFT policy's detections and overhead.
//!
//! Pass `--smoke` for a CI-sized run.

use resilience::kernel::compose::ft_gmres_abft;
use resilience::prelude::*;
use resilience::srp::ft_gmres_with_policies;
use resilient_bench::{fmt_g, Table};
use resilient_linalg::poisson2d;
use resilient_runtime::{Comm, RuntimeConfig};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let nx = if smoke { 8 } else { 16 };
    let a = poisson2d(nx, nx);
    let n = a.nrows();
    let b = vec![1.0; n];
    let cfg = FtGmresConfig {
        outer: SolveOptions::default()
            .with_tol(1e-8)
            .with_max_iters(if smoke { 40 } else { 80 })
            .with_restart(20),
        fault_rate: 1e-3,
        ..FtGmresConfig::default()
    };
    let abft_tol = 1e-9;

    let mut table = Table::new(
        &format!(
            "C2: FT-GMRES x ABFT-checked outer SpMV, 2-D Poisson {nx}x{nx}, inner fault rate {:.0e}",
            cfg.fault_rate
        ),
        &[
            "scenario",
            "converged",
            "true relres",
            "outer iters",
            "abft detects",
            "restarts",
            "check kflops",
            "overhead %",
        ],
    );

    let flip = |at_application, local_element, bit| SpmvFault {
        rank: 0,
        at_application,
        local_element,
        bit,
    };
    let faults = [
        ("clean outer", None),
        ("bit-61 flip in outer SpMV #2", Some(flip(2, n / 3, 61))),
        ("bit-62 flip in outer SpMV #4", Some(flip(4, n / 2, 62))),
    ];

    for (label, fault) in faults {
        for abft in [false, true] {
            let (out, ft_report, detections, restarts, check_flops) = if abft {
                let (out, ft) = ft_gmres_abft(&a, &b, &cfg, abft_tol, fault);
                let abft = &ft.outer.policy_overhead[0];
                let (detections, check_flops) = (abft.detections, abft.check_flops);
                let restarts = ft.outer.policy_restarts;
                (out, ft, detections, restarts, check_flops)
            } else {
                // Same outer/inner split as the ABFT run (the outer products
                // struck by `fault`, inner solves corrupting at the
                // configured rate), just without the checks.
                let mut comm = Comm::solo(&RuntimeConfig::fast());
                let da = DistCsr::from_global(&mut comm, &a).expect("one rank");
                let bv = DistVector::from_global(&comm, &b);
                let stack = &mut PolicyStack::empty();
                let (out, ft) = ft_gmres_with_policies(&mut comm, &da, &bv, &cfg, fault, stack)
                    .expect("one rank");
                (out, ft, 0, 0, 0)
            };
            let err = true_relative_residual(&a, &b, &out.x);
            table.row(vec![
                format!("{label}{}", if abft { " + ABFT" } else { "" }),
                out.converged().to_string(),
                fmt_g(err),
                out.iterations.to_string(),
                detections.to_string(),
                restarts.to_string(),
                fmt_g(check_flops as f64 / 1e3),
                // Against the reliable tier's work: the outer products the
                // checks guard (the inner solves are unreliable by design).
                fmt_g(100.0 * check_flops as f64 / ft_report.ledger.reliable_flops.max(1) as f64),
            ]);
        }
    }
    table.emit("composed_ftgmres_abft");
}
