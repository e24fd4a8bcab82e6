//! E1 bench: runtime overhead of the skeptical checks in a fault-free GMRES.

use criterion::{criterion_group, criterion_main, Criterion};
use resilience::prelude::*;
use resilient_linalg::poisson2d;
use std::time::Duration;

fn bench_skeptical(c: &mut Criterion) {
    let a = poisson2d(16, 16);
    let b = vec![1.0; a.nrows()];
    let opts = SolveOptions::default()
        .with_tol(1e-8)
        .with_max_iters(400)
        .with_restart(30);
    let mut group = c.benchmark_group("gmres_fault_free");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .sample_size(10);
    group.bench_function("plain", |bch| {
        bch.iter(|| std::hint::black_box(gmres(&a, &b, None, &opts)))
    });
    group.bench_function("skeptical", |bch| {
        bch.iter(|| {
            std::hint::black_box(skeptical_gmres(
                &a,
                &b,
                None,
                &opts,
                &SkepticalConfig::default(),
                None,
            ))
        })
    });
    group.bench_function("trusting_config", |bch| {
        bch.iter(|| {
            std::hint::black_box(skeptical_gmres(
                &a,
                &b,
                None,
                &opts,
                &SkepticalConfig::trusting(),
                None,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_skeptical);
criterion_main!(benches);
