//! E4 bench: simulation cost of an LFLR run with one failure vs a
//! failure-free run and vs a CPR run (wall time of the simulator; the
//! virtual-time results are in exp_lflr_heat).

use criterion::{criterion_group, criterion_main, Criterion};
use resilience::prelude::{run_cpr, run_lflr, CprConfig};
use resilient_pde::{ExplicitHeat, HeatProblem};
use resilient_runtime::{FailureConfig, FailurePolicy, Runtime, RuntimeConfig};
use std::sync::Arc;
use std::time::Duration;

fn heat() -> ExplicitHeat {
    ExplicitHeat {
        problem: HeatProblem::stable(64, 1.0),
        steps: 20,
        persist_interval: 5,
        work_per_step: 0.01,
    }
}

fn lflr(with_failure: bool) -> f64 {
    let failures = if with_failure {
        FailureConfig::scheduled(FailurePolicy::ReplaceRank, vec![(1, 0.12)])
    } else {
        FailureConfig::none()
    };
    let rt = Runtime::new(RuntimeConfig::fast().with_failures(failures));
    let app = heat();
    let r = rt.run(4, move |comm| {
        run_lflr(comm, &app).map(|(rep, _)| rep.finished_at)
    });
    r.makespan()
}

fn cpr(with_failure: bool) -> f64 {
    let mut cfg = RuntimeConfig::fast();
    if with_failure {
        cfg.failures = FailureConfig {
            enabled: true,
            policy: FailurePolicy::AbortJob,
            mtbf_per_rank: f64::INFINITY,
            scheduled: vec![(1, 0.12)],
            max_failures: 1,
        };
    }
    run_cpr(
        &cfg,
        4,
        Arc::new(heat()),
        &CprConfig {
            checkpoint_interval: 5,
            max_restarts: 4,
        },
    )
    .total_virtual_time
}

fn bench_lflr(c: &mut Criterion) {
    let mut group = c.benchmark_group("recovery_drivers_sim");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .sample_size(10);
    group.bench_function("lflr_clean", |b| {
        b.iter(|| std::hint::black_box(lflr(false)))
    });
    group.bench_function("lflr_one_failure", |b| {
        b.iter(|| std::hint::black_box(lflr(true)))
    });
    group.bench_function("cpr_clean", |b| b.iter(|| std::hint::black_box(cpr(false))));
    group.bench_function("cpr_one_failure", |b| {
        b.iter(|| std::hint::black_box(cpr(true)))
    });
    group.finish();
}

criterion_group!(benches, bench_lflr);
criterion_main!(benches);
