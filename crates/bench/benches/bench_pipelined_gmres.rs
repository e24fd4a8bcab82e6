//! E3 bench: classic vs. pipelined distributed solvers (simulation wall time;
//! virtual-time comparisons are produced by exp_latency).

use criterion::{criterion_group, criterion_main, Criterion};
use resilience::prelude::*;
use resilient_linalg::poisson2d;
use resilient_runtime::{LatencyModel, Runtime, RuntimeConfig};
use std::time::Duration;

fn solve(pipelined: bool, use_gmres: bool) -> f64 {
    let mut cfg = RuntimeConfig::fast();
    cfg.latency = LatencyModel {
        alpha: 1e-4,
        beta: 0.0,
        gamma: 0.0,
    };
    let rt = Runtime::new(cfg);
    let r = rt.run(4, move |comm| {
        let a = poisson2d(12, 12);
        let da = DistCsr::from_global(comm, &a)?;
        let b = DistVector::from_fn(comm, a.nrows(), |i| 1.0 + (i % 3) as f64);
        let opts = SolveOptions::default()
            .with_tol(1e-7)
            .with_max_iters(150)
            .with_restart(40);
        let out = match (pipelined, use_gmres) {
            (false, false) => dist_cg(comm, &da, &b, &opts)?,
            (true, false) => pipelined_cg(comm, &da, &b, &opts)?,
            (false, true) => solve_dist(comm, &da, &b, SolveSpec::FUSED_GMRES, None, &opts)?,
            (true, true) => solve_dist(comm, &da, &b, SolveSpec::PIPELINED_GMRES, None, &opts)?,
        };
        Ok(out.iterations as f64)
    });
    r.makespan()
}

fn bench_pipelined(c: &mut Criterion) {
    let mut group = c.benchmark_group("distributed_krylov_sim");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .sample_size(10);
    group.bench_function("cg_classic", |b| {
        b.iter(|| std::hint::black_box(solve(false, false)))
    });
    group.bench_function("cg_pipelined", |b| {
        b.iter(|| std::hint::black_box(solve(true, false)))
    });
    group.bench_function("gmres_classic", |b| {
        b.iter(|| std::hint::black_box(solve(false, true)))
    });
    group.bench_function("gmres_pipelined", |b| {
        b.iter(|| std::hint::black_box(solve(true, true)))
    });
    group.finish();
}

criterion_group!(benches, bench_pipelined);
criterion_main!(benches);
