//! E8 bench: blocking vs. nonblocking collectives under noise (wall time of
//! the simulation itself; the virtual-time results are in exp_noise_amplification).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use resilient_runtime::{NoiseConfig, ReduceOp, Runtime, RuntimeConfig};
use std::time::Duration;

fn run_steps(ranks: usize, blocking: bool) -> f64 {
    let cfg = RuntimeConfig::fast().with_noise(NoiseConfig::exponential(100.0, 1e-4));
    let rt = Runtime::new(cfg);
    let result = rt.run(ranks, move |comm| {
        for _ in 0..20 {
            comm.advance(1e-3);
            if blocking {
                comm.allreduce_scalar(ReduceOp::Sum, 1.0)?;
            } else {
                let p = comm.iallreduce_scalar(ReduceOp::Sum, 1.0)?;
                comm.advance(1e-3);
                p.wait_scalar(comm)?;
            }
        }
        Ok(comm.now())
    });
    result.makespan()
}

fn bench_collectives(c: &mut Criterion) {
    let mut group = c.benchmark_group("collectives_sim");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .sample_size(10);
    for &ranks in &[4usize, 8] {
        group.bench_with_input(BenchmarkId::new("blocking", ranks), &ranks, |b, &r| {
            b.iter(|| std::hint::black_box(run_steps(r, true)))
        });
        group.bench_with_input(BenchmarkId::new("nonblocking", ranks), &ranks, |b, &r| {
            b.iter(|| std::hint::black_box(run_steps(r, false)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_collectives);
criterion_main!(benches);
