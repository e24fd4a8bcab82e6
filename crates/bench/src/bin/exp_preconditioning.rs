//! Experiment P1 — preconditioning as a kernel axis: unpreconditioned vs.
//! distributed block-Jacobi Krylov solvers on an ill-conditioned
//! anisotropic, jumpy-coefficient diffusion problem, across rank counts.
//!
//! The paper's resilience argument is framed around *preconditioned* Krylov
//! methods: the preconditioner is the knob trading local work against
//! global synchronization, and fault/latency experiments run at
//! unrealistic iteration counts without one. This experiment shows the
//! trade directly: block-Jacobi (per-rank LU of the local diagonal block —
//! zero extra collectives, `allred/iter` column unchanged) collapses
//! iterations-to-tolerance by one to three orders of magnitude on a
//! problem where unpreconditioned CG needs hundreds of iterations and
//! unpreconditioned GMRES thousands, at every rank count. The virtual
//! wall-clock column includes the honest local-work bill — the band LU's
//! `≈ 2·n_local·(2kl+ku)` FLOPs per apply plus the one-time
//! `≈ 2·n_local·kl·(kl+ku)` factorization charged at first apply — so the
//! trade is priced, not assumed: on a single rank block-Jacobi is a direct
//! band solve in disguise (one iteration), and at every rank count the
//! collapsed iteration counts pay for the local work many times over under
//! a realistic latency model. Those are the `(kl, ku)` band model's
//! counts: the LU executes only each row's reach (`≈ 2·n_local·kl·ku` to
//! factor and a `ku`-long chain per row when no row swaps), and charging
//! the model instead keeps this table's seconds independent of that trim.
//!
//! Pass `--smoke` for a CI-sized run.

use resilience::prelude::*;
use resilient_bench::{fmt_g, fmt_ratio, Table};
use resilient_linalg::anisotropic2d;
use resilient_runtime::{Comm, LatencyModel, Result, Runtime, RuntimeConfig};

/// One solver family's comparison row: iterations, virtual seconds and
/// allreduces-per-iteration, unpreconditioned vs block-Jacobi.
struct Row {
    solver: &'static str,
    iters: usize,
    iters_bj: usize,
    time: f64,
    time_bj: f64,
    allred_per_iter: f64,
    allred_per_iter_bj: f64,
}

/// Row labels of the [`SolveSpec::ALL`] compositions.
const SOLVERS: [&str; 4] = ["fused CG", "pipelined CG", "CGS GMRES", "p(1) GMRES"];

fn measure(
    comm: &mut Comm,
    iters_of: impl FnOnce(&mut Comm) -> Result<DistSolveOutcome>,
) -> Result<(usize, f64, f64)> {
    let c0 = comm.snapshot_stats().collectives;
    let t0 = comm.now();
    let out = iters_of(comm)?;
    let t1 = comm.now();
    let c1 = comm.snapshot_stats().collectives;
    assert!(
        out.converged,
        "solver must reach tolerance (relres {:.2e} after {} iterations)",
        out.relative_residual, out.iterations
    );
    let allred = (c1 - c0) as f64 / out.iterations.max(1) as f64;
    Ok((out.iterations, t1 - t0, allred))
}

#[allow(clippy::type_complexity)]
fn sweep(ranks: usize, nx: usize, eps: f64, jump: f64, band: usize, smoke: bool) -> Vec<Row> {
    let mut cfg = RuntimeConfig::fast().with_seed(23);
    cfg.latency = LatencyModel {
        alpha: 1.0e-4,
        beta: 1e-9,
        gamma: 1e-9,
    };
    cfg.seconds_per_flop = 1e-9;
    let rt = Runtime::new(cfg);
    let result = rt.run(ranks, move |comm| {
        let a = anisotropic2d(nx, nx, eps, jump, band);
        let n = a.nrows();
        let da = DistCsr::from_global(comm, &a)?;
        let b = DistVector::from_fn(comm, n, |i| 1.0 + (i % 5) as f64);
        let opts = SolveOptions::default()
            .with_tol(1e-7)
            .with_max_iters(if smoke { 3000 } else { 20000 })
            .with_restart(60);

        let mut rows = Vec::new();
        for (spec, solver) in SolveSpec::ALL.into_iter().zip(SOLVERS) {
            let plain = measure(comm, |c| solve_dist(c, &da, &b, spec, None, &opts))?;
            let mut bj = BlockJacobi::new(&da);
            let with_bj = measure(comm, |c| solve_dist(c, &da, &b, spec, Some(&mut bj), &opts))?;
            rows.push((solver, plain, with_bj));
        }
        Ok(rows)
    });
    let per_rank = result.unwrap_all();
    // Iterations and collective counts are rank-symmetric; take rank 0's
    // view and the maximum time across ranks.
    per_rank[0]
        .iter()
        .enumerate()
        .map(|(i, (solver, plain, bj))| Row {
            solver,
            iters: plain.0,
            iters_bj: bj.0,
            time: per_rank.iter().map(|r| r[i].1 .1).fold(0.0, f64::max),
            time_bj: per_rank.iter().map(|r| r[i].2 .1).fold(0.0, f64::max),
            allred_per_iter: plain.2,
            allred_per_iter_bj: bj.2,
        })
        .collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (nx, eps, jump, band) = if smoke {
        (10, 0.1, 100.0, 2)
    } else {
        (24, 0.05, 1000.0, 4)
    };
    let rank_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };

    let mut table = Table::new(
        &format!(
            "P1: unpreconditioned vs block-Jacobi, anisotropic/jumpy diffusion \
             {nx}x{nx} (eps={eps}, jump={jump}, band={band}), tol 1e-7"
        ),
        &[
            "ranks",
            "solver",
            "iters",
            "iters(bj)",
            "iter ratio",
            "time (ms)",
            "time(bj) (ms)",
            "speedup",
            "allred/iter",
            "allred/iter(bj)",
        ],
    );
    for &ranks in rank_counts {
        for row in sweep(ranks, nx, eps, jump, band, smoke) {
            assert!(
                row.iters_bj < row.iters,
                "{} on {ranks} ranks: block-Jacobi must reduce iterations \
                 ({} vs {})",
                row.solver,
                row.iters_bj,
                row.iters
            );
            // The marginal allreduce-per-iteration parity is pinned exactly
            // by `crates/core/tests/preconditioning.rs`; here the average
            // includes each solve's fixed setup collectives, which dominate
            // only when block-Jacobi converges in a handful of iterations.
            if row.iters_bj >= 10 {
                assert!(
                    (row.allred_per_iter_bj - row.allred_per_iter).abs() < 0.5,
                    "{} on {ranks} ranks: block-Jacobi must not add collectives \
                     per iteration ({} vs {})",
                    row.solver,
                    row.allred_per_iter_bj,
                    row.allred_per_iter
                );
            }
            table.row(vec![
                ranks.to_string(),
                row.solver.to_string(),
                row.iters.to_string(),
                row.iters_bj.to_string(),
                fmt_ratio(row.iters as f64 / row.iters_bj.max(1) as f64),
                fmt_g(row.time * 1e3),
                fmt_g(row.time_bj * 1e3),
                fmt_ratio(row.time / row.time_bj.max(1e-12)),
                fmt_g(row.allred_per_iter),
                fmt_g(row.allred_per_iter_bj),
            ]);
        }
    }
    table.emit("p1_preconditioning");
}
