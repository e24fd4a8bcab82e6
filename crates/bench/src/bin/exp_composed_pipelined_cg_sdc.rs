//! Composed scenario C3 — pipelined CG × skeptical SDC detection
//! (RBSP × SkP over the CG recurrence), the first ROADMAP follow-on
//! composition over the unified kernel.
//!
//! Pipelined CG's whole point is its single nonblocking fused reduction per
//! iteration; with the wants-dots negotiation the skeptical check dots ride
//! that same reduction, so SDC detection adds **zero** collectives — the
//! `allred/iter` column stays at one for the fused rows and jumps to three
//! for the legacy unfused schedule. On detection the kernel rebuilds the CG
//! recurrence from the current iterate (CG's analogue of discarding a
//! corrupted Arnoldi cycle), so an injected exponent flip is survived, not
//! silently absorbed as stagnation.
//!
//! Per scenario the table reports convergence, detections, recurrence
//! rebuilds, per-policy check overhead, allreduce counts and virtual time.
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
        .with_max_iters(if smoke { 200 } else { 500 });

    let mut table = Table::new(
        &format!("C3: pipelined CG x SDC detection, 2-D Poisson {nx}x{nx}, {ranks} ranks"),
        &[
            "scenario",
            "converged",
            "iters",
            "relres",
            "detections",
            "rebuilds",
            "check kflops",
            "allred/iter",
            "time (ms)",
        ],
    );

    // An exponent flip in a mid-solve SpMV product. (Element 0's top
    // exponent bit is clear at this application, so the flip amplifies the
    // value by ~2^512 — the detectable direction.)
    let fault = SpmvFault {
        rank: ranks - 1,
        at_application: 4,
        local_element: 0,
        bit: 62,
    };
    for (label, skeptic, fault) in [
        ("pipelined CG, no checks", None, None),
        (
            "pipelined CG + SDC, fused",
            Some(SkepticalConfig::default()),
            None,
        ),
        (
            "pipelined CG + SDC, unfused (legacy)",
            Some(SkepticalConfig::default().unfused()),
            None,
        ),
        (
            "pipelined CG + SDC, fused, bit-62 flip",
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
                let (out, detections, rebuilds, check_flops) = if let Some(skeptic) = skeptic {
                    let (out, report) =
                        pipelined_skeptical_cg(comm, &da, &b, &opts2, &skeptic, fault)?;
                    let per_policy: usize = report.policies.iter().map(|p| p.check_flops).sum();
                    (
                        out,
                        report.skeptical.detections,
                        report.policy_restarts,
                        per_policy,
                    )
                } else {
                    (pipelined_cg(comm, &da, &b, &opts2)?, 0, 0, 0)
                };
                let elapsed = comm.now() - t0;
                let collectives = comm.snapshot_stats().collectives - c0;
                Ok((
                    out.converged,
                    out.iterations,
                    out.relative_residual,
                    detections,
                    rebuilds,
                    check_flops,
                    collectives,
                    elapsed,
                ))
            })
            .unwrap_all();
        // Rank 0's view; decisions are identical on every rank by
        // construction (they derive from global reductions).
        let (conv, iters, relres, detections, rebuilds, check_flops, collectives, elapsed) =
            rows[0];
        table.row(vec![
            label.to_string(),
            conv.to_string(),
            iters.to_string(),
            fmt_g(relres),
            detections.to_string(),
            rebuilds.to_string(),
            fmt_g(check_flops as f64 / 1e3),
            fmt_g(collectives as f64 / iters.max(1) as f64),
            fmt_g(elapsed * 1e3),
        ]);
    }
    table.emit("composed_pipelined_cg_sdc");
}
