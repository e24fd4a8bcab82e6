//! Latency hiding with pipelined Krylov methods (RBSP): classic vs pipelined
//! CG and GMRES on a simulated machine with slow collectives and OS noise.
//!
//! Run with: `cargo run --example latency_hiding`

use resilience::prelude::*;
use resilient_linalg::poisson2d;
use resilient_runtime::{LatencyModel, NoiseConfig, Runtime, RuntimeConfig};

/// Per-rank result row: the four solve times then the four iteration counts.
type SolveRow = (f64, f64, f64, f64, usize, usize, usize, usize);

fn main() {
    let ranks = 16;
    let mut cfg = RuntimeConfig::fast().with_seed(3);
    cfg.latency = LatencyModel {
        alpha: 2.0e-4,
        beta: 1e-9,
        gamma: 1e-9,
    };
    cfg.seconds_per_flop = 1e-9;
    cfg.noise = NoiseConfig::exponential(1000.0, 1.0e-4);
    let rt = Runtime::new(cfg);

    let times = rt
        .run(ranks, move |comm| {
            let a = poisson2d(24, 24);
            let da = DistCsr::from_global(comm, &a)?;
            let b = DistVector::from_fn(comm, a.nrows(), |i| 1.0 + (i % 3) as f64);
            let mut opts = SolveOptions::default().with_tol(1e-7).with_max_iters(300);
            opts.extra_work_per_iter = 1.0e-4;
            let t0 = comm.now();
            let c = dist_cg(comm, &da, &b, &opts)?;
            let t1 = comm.now();
            let p = pipelined_cg(comm, &da, &b, &opts)?;
            let t2 = comm.now();
            let g = solve_dist(comm, &da, &b, SolveSpec::FUSED_GMRES, None, &opts)?;
            let t3 = comm.now();
            let pg = solve_dist(comm, &da, &b, SolveSpec::PIPELINED_GMRES, None, &opts)?;
            let t4 = comm.now();
            Ok((
                t1 - t0,
                t2 - t1,
                t3 - t2,
                t4 - t3,
                c.iterations,
                p.iterations,
                g.iterations,
                pg.iterations,
            ))
        })
        .unwrap_all();

    let agg = |f: &dyn Fn(&SolveRow) -> f64| times.iter().map(f).fold(0.0f64, f64::max);
    let (cg_t, pcg_t, g_t, pg_t) = (agg(&|r| r.0), agg(&|r| r.1), agg(&|r| r.2), agg(&|r| r.3));
    println!("16 simulated ranks, alpha = 200 us, exponential noise, 2-D Poisson n = 576\n");
    println!("{:<22} {:>14} {:>10}", "solver", "virtual time", "speedup");
    println!("{:<22} {:>12.4} s {:>10}", "CG (blocking)", cg_t, "1.00x");
    println!(
        "{:<22} {:>12.4} s {:>9.2}x",
        "pipelined CG",
        pcg_t,
        cg_t / pcg_t
    );
    println!("{:<22} {:>12.4} s {:>10}", "GMRES (blocking)", g_t, "1.00x");
    println!("{:<22} {:>12.4} s {:>9.2}x", "p(1)-GMRES", pg_t, g_t / pg_t);
    println!(
        "\nIterations (rank 0): CG {} / {}, GMRES {} / {}",
        times[0].4, times[0].5, times[0].6, times[0].7
    );
}
