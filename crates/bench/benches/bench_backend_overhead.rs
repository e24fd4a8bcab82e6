//! Backend-boundary bench: wall-clock cost of the collective path on the
//! two `CommBackend` implementations.
//!
//! Pins the per-iteration overhead a solver pays for each backend: the
//! virtual-time simulator's scheduler hop vs. the real-threads backend's
//! rendezvous (barrier + fixed-order fold) with zero emulated latency. Both
//! jobs run the identical 100-allreduce loop, so the measured time is pure
//! backend overhead, comparable across the two columns.
//!
//! The `threads_rendezvous` group isolates the threaded backend's three
//! blocking shapes on two ranks — blocking allreduce, `iallreduce` +
//! `wait_vector`, and a halo ping-pong — at the two payload widths the
//! solvers use (one value; 24 = three dots of an 8-column block). Each
//! sample is one job of 1000 round trips, so divide by 1000 for the
//! per-rendezvous cost (the job's two thread spawns are ~100 µs of it).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use resilient_runtime::{
    ReduceOp, Result, Runtime, RuntimeConfig, ThreadComm, ThreadConfig, ThreadRuntime,
};
use std::time::Duration;

const ALLREDUCES: usize = 100;

fn simulator_allreduces(ranks: usize) -> f64 {
    let rt = Runtime::new(RuntimeConfig::fast());
    let r = rt.run(ranks, move |comm| {
        let mut acc = 0.0;
        for _ in 0..ALLREDUCES {
            acc += comm.allreduce_scalar(ReduceOp::Sum, 1.0)?;
        }
        Ok(acc)
    });
    r.makespan()
}

fn threaded_allreduces(ranks: usize) -> f64 {
    let rt = ThreadRuntime::new(ThreadConfig::fast());
    let r = rt.run(ranks, move |comm| {
        let mut acc = 0.0;
        for _ in 0..ALLREDUCES {
            acc += comm.allreduce_scalar(ReduceOp::Sum, 1.0)?;
        }
        Ok(acc)
    });
    r.makespan()
}

fn bench_backend_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend_overhead");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .sample_size(10);
    for &ranks in &[2usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("simulator_allreduce_x100", ranks),
            &ranks,
            |b, &r| b.iter(|| std::hint::black_box(simulator_allreduces(r))),
        );
        group.bench_with_input(
            BenchmarkId::new("threaded_allreduce_x100", ranks),
            &ranks,
            |b, &r| b.iter(|| std::hint::black_box(threaded_allreduces(r))),
        );
    }
    group.finish();
}

const ROUND_TRIPS: usize = 1000;

fn rendezvous_job(
    body: impl Fn(&mut ThreadComm, &[f64]) -> Result<f64> + Send + Sync + 'static,
    width: usize,
) -> f64 {
    let rt = ThreadRuntime::new(ThreadConfig::fast());
    let r = rt.run(2, move |comm| {
        let payload = vec![1.0; width];
        let mut acc = 0.0;
        for _ in 0..ROUND_TRIPS {
            acc += body(comm, &payload)?;
        }
        Ok(acc)
    });
    assert!(r.all_ok(), "errors: {:?}", r.errors);
    r.makespan()
}

fn bench_threads_rendezvous(c: &mut Criterion) {
    let mut group = c.benchmark_group("threads_rendezvous");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .sample_size(10);
    for &width in &[1usize, 24] {
        group.bench_with_input(
            BenchmarkId::new("allreduce_x1000", width),
            &width,
            |b, &w| {
                b.iter(|| {
                    std::hint::black_box(rendezvous_job(
                        |comm, data| Ok(comm.allreduce(ReduceOp::Sum, data)?[0]),
                        w,
                    ))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("iallreduce_wait_x1000", width),
            &width,
            |b, &w| {
                b.iter(|| {
                    std::hint::black_box(rendezvous_job(
                        |comm, data| {
                            let pending = comm.iallreduce(ReduceOp::Sum, data)?;
                            Ok(comm.wait_vector(pending)?[0])
                        },
                        w,
                    ))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("halo_ping_pong_x1000", width),
            &width,
            |b, &w| {
                b.iter(|| {
                    std::hint::black_box(rendezvous_job(
                        |comm, data| {
                            let peer = 1 - comm.rank();
                            comm.send_f64(peer, 7, data)?;
                            Ok(comm.recv_f64(peer, 7)?.1[0])
                        },
                        w,
                    ))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_backend_overhead, bench_threads_rendezvous);
criterion_main!(benches);
