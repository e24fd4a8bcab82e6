//! Baseline SpMV / GEMM throughput of the linear-algebra substrate, and
//! the one-rank distributed operator application (`dist_apply`): the SpMV
//! and the k = 8 SpMM at the rows per rank of the `latency_cg` (2 048) and
//! `sdc_cg` (73 728) ledger workloads, without thread or halo noise.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use resilience::distributed::{DistCsr, DistMultiVector, DistVector, HaloScratch};
use resilient_linalg::{auto_ops, poisson2d, DenseMatrix};
use resilient_runtime::{Comm, RuntimeConfig};
use std::time::Duration;

fn bench_spmv(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmv");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800))
        .sample_size(10);
    for &n in &[32usize, 64] {
        let a = poisson2d(n, n);
        let x = vec![1.0; a.nrows()];
        group.bench_with_input(BenchmarkId::new("poisson2d", n * n), &n, |b, _| {
            b.iter(|| std::hint::black_box(a.spmv(&x)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("gemm");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800))
        .sample_size(10);
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
    for &n in &[64usize, 96] {
        let a = DenseMatrix::random(n, n, &mut rng);
        let b_m = DenseMatrix::random(n, n, &mut rng);
        group.bench_with_input(BenchmarkId::new("dense", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(a.gemm(&b_m)))
        });
    }
    group.finish();
}

fn bench_dist_apply(c: &mut Criterion) {
    let mut group = c.benchmark_group("dist_apply");
    // One sample is one application (microseconds at 2 048 rows), so take
    // many: the mean of ten is mostly the first, cold call.
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800))
        .sample_size(200);
    let mut comm = Comm::solo(&RuntimeConfig::fast());
    let ops = auto_ops();
    let mut halo = HaloScratch::default();
    for (nx, ny) in [(64usize, 32usize), (384, 192)] {
        let a = poisson2d(nx, ny);
        let n = a.nrows();
        let da = DistCsr::from_global(&mut comm, &a).expect("square");
        let x = DistVector::from_fn(&comm, n, |i| (i as f64 * 0.37).sin());
        let mut y = DistVector::zeros(&comm, n);
        group.bench_with_input(BenchmarkId::new("apply_into", n), &n, |b, _| {
            b.iter(|| {
                da.apply_into(&mut comm, &x, ops, &mut halo, &mut y)
                    .expect("one rank")
            })
        });
        let k = 8;
        let xb = DistMultiVector::from_fn(&comm, n, k, |c, i| ((i + c) as f64 * 0.37).sin());
        let mut yb = DistMultiVector::zeros(&comm, n, k);
        group.bench_with_input(BenchmarkId::new("apply_block_into_k8", n), &n, |b, _| {
            b.iter(|| {
                da.apply_block_into(&mut comm, &xb, ops, &mut halo, k, &mut yb)
                    .expect("one rank")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_spmv, bench_dist_apply);
criterion_main!(benches);
