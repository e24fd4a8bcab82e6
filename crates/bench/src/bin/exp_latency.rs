//! Experiment E3 — latency-tolerant Krylov solvers (RBSP, §III-B): classic
//! vs. pipelined CG and GMRES under sweeps of rank count and collective
//! latency, with and without per-rank noise — and, since preconditioning
//! became a kernel axis, the same blocking-vs-pipelined comparison for the
//! block-Jacobi preconditioned CG specs (`FUSED_CG` vs `PIPELINED_CG`):
//! the preconditioner's local work is overlap-friendly, so latency hiding
//! keeps paying off at production-like iteration counts.

use resilience::prelude::*;
use resilient_bench::{fmt_g, fmt_ratio, Table};
use resilient_linalg::poisson2d;
use resilient_runtime::{LatencyModel, NoiseConfig, Runtime, RuntimeConfig};

/// The block-Jacobi preconditioned columns: the two CG schedules.
const PCG: [SolveSpec; 2] = [SolveSpec::FUSED_CG, SolveSpec::PIPELINED_CG];

/// Virtual solve times: every [`SolveSpec::ALL`] composition
/// unpreconditioned (CG, pipelined CG, GMRES, pipelined GMRES), then the
/// [`PCG`] pair under block-Jacobi.
type SolveTimes = [f64; 6];

fn solve_times(ranks: usize, alpha: f64, noise: bool) -> SolveTimes {
    let mut cfg = RuntimeConfig::fast().with_seed(11);
    cfg.latency = LatencyModel {
        alpha,
        beta: 1e-9,
        gamma: 1e-9,
    };
    cfg.seconds_per_flop = 1e-9;
    if noise {
        cfg.noise = NoiseConfig::exponential(2000.0, 2.0e-4);
    }
    let rt = Runtime::new(cfg);
    let result = rt.run(ranks, move |comm| {
        let a = poisson2d(24, 24);
        let n = a.nrows();
        let da = DistCsr::from_global(comm, &a)?;
        let b = DistVector::from_fn(comm, n, |i| 1.0 + (i % 3) as f64);
        let mut opts = SolveOptions::default().with_tol(1e-7).with_max_iters(250);
        opts.restart = 40;
        opts.extra_work_per_iter = 5.0e-5;
        let plain = SolveSpec::ALL.map(|spec| (spec, false));
        let runs = plain.into_iter().chain(PCG.map(|spec| (spec, true)));
        let mut times = [0.0; 6];
        for (t, (spec, bj)) in times.iter_mut().zip(runs) {
            let t0 = comm.now();
            let mut bj = bj.then(|| BlockJacobi::new(&da));
            let m = bj.as_mut().map(|m| m as &mut dyn SpacePreconditioner<_>);
            let out = solve_dist(comm, &da, &b, spec, m, &opts)?;
            assert!(out.converged);
            *t = comm.now() - t0;
        }
        Ok(times)
    });
    let per_rank = result.unwrap_all();
    std::array::from_fn(|i| per_rank.iter().map(|r| r[i]).fold(0.0f64, f64::max))
}

fn main() {
    let mut table = Table::new(
        "E3: time-to-solution (virtual s), classic vs pipelined, 2-D Poisson n=576",
        &[
            "ranks",
            "alpha",
            "noise",
            "CG",
            "pipelined CG",
            "CG speedup",
            "GMRES",
            "p(1)-GMRES",
            "GMRES speedup",
            "PCG(bj)",
            "p-PCG(bj)",
            "PCG(bj) speedup",
        ],
    );
    for &ranks in &[4usize, 8, 16, 32] {
        for &alpha in &[2.0e-6, 1.0e-4, 5.0e-4] {
            for &noise in &[false, true] {
                let [cg_t, pcg_t, g_t, pg_t, bj_t, bjp_t] = solve_times(ranks, alpha, noise);
                table.row(vec![
                    ranks.to_string(),
                    format!("{alpha:.0e}"),
                    if noise { "yes".into() } else { "no".into() },
                    fmt_g(cg_t),
                    fmt_g(pcg_t),
                    fmt_ratio(cg_t / pcg_t.max(1e-12)),
                    fmt_g(g_t),
                    fmt_g(pg_t),
                    fmt_ratio(g_t / pg_t.max(1e-12)),
                    fmt_g(bj_t),
                    fmt_g(bjp_t),
                    fmt_ratio(bj_t / bjp_t.max(1e-12)),
                ]);
            }
        }
    }
    table.emit("e3_latency");
}
