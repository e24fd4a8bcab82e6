//! E7 bench: raw cost of TMR-protected SpMV vs a single application.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use resilience::prelude::*;
use resilience::tmr_apply;
use resilient_faults::StrikePlan;
use resilient_faults::TmrStats;
use resilient_linalg::poisson2d;
use resilient_runtime::{Comm, RuntimeConfig};
use std::time::Duration;

fn bench_tmr(c: &mut Criterion) {
    let a = poisson2d(24, 24);
    let x = vec![1.0; a.nrows()];
    let mut group = c.benchmark_group("tmr_spmv");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800))
        .sample_size(10);
    group.bench_function("single", |b| b.iter(|| std::hint::black_box(a.spmv(&x))));
    group.bench_function("tmr_vote", |b| {
        let mut comm = Comm::solo(&RuntimeConfig::fast());
        let da = DistCsr::from_global(&mut comm, &a).expect("one rank");
        let xd = DistVector::from_global(&comm, &x);
        // Strikes at 1e-4 per element over the first 30 000 products; the
        // products after them run clean.
        let rng = &mut ChaCha8Rng::seed_from_u64(9);
        let plan = StrikePlan::random_flips(0, 1e-4, 30_000, da.local_rows(), rng);
        let mut space = DistSpace::new(&mut comm, &da).with_spmv_plan(plan);
        let mut stats = TmrStats::default();
        b.iter(|| std::hint::black_box(tmr_apply(&mut space, &xd, 1e-12, &mut stats)))
    });
    group.finish();
}

criterion_group!(benches, bench_tmr);
criterion_main!(benches);
