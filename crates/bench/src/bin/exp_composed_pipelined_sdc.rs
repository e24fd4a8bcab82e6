//! Composed scenario C1 — pipelined GMRES × skeptical SDC detection
//! (RBSP × SkP).
//!
//! Before the unified kernel, latency hiding (rbsp silo) and corruption
//! detection (skeptical silo) could not run in the same solve. This
//! experiment runs the p(1)-pipelined GMRES under the skeptical policy
//! stack on the simulated distributed runtime and reports, per scenario,
//! convergence, detections, corrective restarts, the per-policy overhead
//! (check FLOPs, also visible as `RankStats::check_flops` virtual time),
//! the allreduce count and the wall-clock (virtual) time.
//!
//! The *fused* rows use the wants-dots negotiation: the skeptical check
//! dots ride the strategy's single nonblocking reduction, so detection
//! costs one allreduce per iteration. The *unfused* row forces the legacy
//! schedule (three extra blocking allreduces per iteration) — the
//! re-serialization the fusion exists to remove; compare its `allred/iter`
//! and `time` columns against the fused clean run.
//!
//! Pass `--smoke` for a CI-sized run.

use resilience::prelude::*;
use resilient_bench::{fmt_g, Table};
use resilient_linalg::poisson2d;
use resilient_runtime::{LatencyModel, Runtime, RuntimeConfig};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (nx, ranks) = if smoke { (8, 2) } else { (16, 8) };
    let mut cfg = RuntimeConfig::fast();
    cfg.latency = LatencyModel {
        alpha: 2.0e-4,
        beta: 0.0,
        gamma: 0.0,
    };
    cfg.seconds_per_flop = 1.0e-9;

    let opts = SolveOptions::default()
        .with_tol(1e-7)
        .with_max_iters(if smoke { 120 } else { 400 })
        .with_restart(30);

    let mut table = Table::new(
        &format!("C1: pipelined GMRES x SDC detection, 2-D Poisson {nx}x{nx}, {ranks} ranks"),
        &[
            "scenario",
            "converged",
            "iters",
            "relres",
            "detections",
            "restarts",
            "check kflops",
            "allred/iter",
            "time (ms)",
        ],
    );

    // Scenario rows: unchecked baseline, checked clean run (fused and legacy
    // unfused check schedules), checked run with one injected exponent-bit
    // flip in a mid-solve SpMV product.
    let fault = SpmvFault {
        rank: ranks - 1,
        at_application: 5,
        local_element: 2,
        bit: 62,
    };
    for (label, skeptic, fault) in [
        ("pipelined, no checks", None, None),
        (
            "pipelined + SDC, fused",
            Some(SkepticalConfig::default()),
            None,
        ),
        (
            "pipelined + SDC, unfused (legacy)",
            Some(SkepticalConfig::default().unfused()),
            None,
        ),
        (
            "pipelined + SDC, fused, bit-62 flip",
            Some(SkepticalConfig::default()),
            Some(fault),
        ),
    ] {
        let rt = Runtime::new(cfg.clone());
        let opts2 = opts;
        let rows = rt
            .run(ranks, move |comm| {
                let a = poisson2d(nx, nx);
                let n = a.nrows();
                let da = DistCsr::from_global(comm, &a)?;
                let b = DistVector::from_fn(comm, n, |i| 1.0 + (i % 3) as f64);
                let t0 = comm.now();
                let c0 = comm.snapshot_stats().collectives;
                let (out, detections, restarts, check_flops) = if let Some(skeptic) = skeptic {
                    let (out, report) = pipelined_skeptical(
                        comm,
                        &da,
                        &b,
                        Method::Gmres,
                        None,
                        &opts2,
                        &skeptic,
                        fault,
                    )?;
                    let per_policy: usize = report.policies.iter().map(|p| p.check_flops).sum();
                    (
                        out,
                        report.skeptical.detections,
                        report.skeptical.restarts,
                        per_policy,
                    )
                } else {
                    let out = solve_dist(comm, &da, &b, SolveSpec::PIPELINED_GMRES, None, &opts2)?;
                    (out, 0, 0, 0)
                };
                let elapsed = comm.now() - t0;
                let collectives = comm.snapshot_stats().collectives - c0;
                Ok((
                    out.converged,
                    out.iterations,
                    out.relative_residual,
                    detections,
                    restarts,
                    check_flops,
                    collectives,
                    elapsed,
                ))
            })
            .unwrap_all();
        // Rank 0's view; detections/restarts are identical on every rank by
        // construction (all decisions derive from global reductions).
        let (conv, iters, relres, detections, restarts, check_flops, collectives, elapsed) =
            rows[0];
        table.row(vec![
            label.to_string(),
            conv.to_string(),
            iters.to_string(),
            fmt_g(relres),
            detections.to_string(),
            restarts.to_string(),
            fmt_g(check_flops as f64 / 1e3),
            fmt_g(collectives as f64 / iters.max(1) as f64),
            fmt_g(elapsed * 1e3),
        ]);
    }
    table.emit("composed_pipelined_sdc");
}
