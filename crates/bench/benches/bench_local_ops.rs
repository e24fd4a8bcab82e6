//! Device-op layer throughput: scalar vs SIMD backends on the level-1
//! kernels and CSR vs SELL-C-σ on SpMV, across cache-resident and
//! memory-bound sizes.
//!
//! The interesting comparisons: `dot` (SIMD wins while data fits in
//! cache, converges to the memory wall at 1M), `dot_pairs` (the fused
//! multi-dot reads shared vectors once, so it beats separate dots even
//! when bandwidth-bound), SELL vs CSR SpMV (gather-vectorisable layout on
//! ragged rows), and `pcg_sweep` (one fused pass over the ten vectors of a
//! pipelined-PCG iteration against the eight updates and three dots it
//! replaces — level with them in cache, ahead once the vectors stream from
//! memory) and `cg_sweep` (the same for the seven vectors of the
//! unpreconditioned recurrence: 13 streams per row instead of 20), and
//! `block_sweep_identity` (the block kernel's sweep under the identity at
//! the `block_rhs8` per-rank shape: a `w → mw` copy plus the eight-vector
//! sweep per column against the six-vector one), and `band_lu` (block-
//! Jacobi's band LU on the per-rank diagonal blocks of the `lflr_kill` and
//! `bj_pcg` ledger workloads: the factorization, whose working rows are a
//! `kl + 1`-row window, and one `solve_with` per backend).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use resilient_linalg::{
    poisson2d, scalar_ops, simd_ops, CgSweep, CooMatrix, CsrMatrix, LocalOps, LuFactors, PcgSweep,
    SellMatrix,
};
use std::time::Duration;

const SIZES: [usize; 3] = [1_000, 100_000, 1_000_000];

fn vectors(n: usize) -> (Vec<f64>, Vec<f64>) {
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 17) as f64 * 0.25).collect();
    let y: Vec<f64> = (0..n).map(|i| 0.5 - (i % 13) as f64 * 0.125).collect();
    (x, y)
}

fn backends() -> [(&'static str, &'static dyn LocalOps); 2] {
    [("scalar", scalar_ops()), ("simd", simd_ops())]
}

fn bench_level1(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_ops/dot");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800))
        .sample_size(10);
    for &n in &SIZES {
        let (x, y) = vectors(n);
        for (name, ops) in backends() {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| std::hint::black_box(ops.dot(&x, &y)))
            });
        }
    }
    group.finish();

    let mut group = c.benchmark_group("local_ops/dot_pairs3");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800))
        .sample_size(10);
    for &n in &SIZES {
        // The pipelined-CG shape: three dots over two shared vectors.
        let (r, u) = vectors(n);
        let w = r.clone();
        for (name, ops) in backends() {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                let pairs: [(&[f64], &[f64]); 3] = [(&r, &u), (&w, &u), (&r, &r)];
                let mut out = [0.0; 3];
                b.iter(|| {
                    ops.dot_pairs(&pairs, &mut out);
                    std::hint::black_box(out[2])
                })
            });
        }
    }
    group.finish();

    let mut group = c.benchmark_group("local_ops/dot_blocks");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800))
        .sample_size(10);
    for &k in &[1usize, 4, 8] {
        // The block fused-CG shape: the (r·z, r·r) pair batch over k
        // columns of 100k rows each — one call per batched reduction.
        let n = 100_000;
        let (r, z) = vectors(k * n);
        for (name, ops) in backends() {
            group.bench_with_input(BenchmarkId::new(name, k), &k, |b, _| {
                let pairs: [(&[f64], &[f64]); 2] = [(&r, &z), (&r, &r)];
                let mut out = vec![0.0; 2 * k];
                b.iter(|| {
                    ops.dot_blocks(k, &pairs, &mut out);
                    std::hint::black_box(out[k - 1])
                })
            });
        }
    }
    group.finish();

    let mut group = c.benchmark_group("local_ops/axpy");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800))
        .sample_size(10);
    for &n in &SIZES {
        let (x, y) = vectors(n);
        for (name, ops) in backends() {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                let mut yb = y.clone();
                b.iter(|| {
                    ops.axpy(1.0000001, &x, &mut yb);
                    std::hint::black_box(yb[n / 2])
                })
            });
        }
    }
    group.finish();

    let mut group = c.benchmark_group("local_ops/nrm2");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800))
        .sample_size(10);
    for &n in &SIZES {
        let (x, _) = vectors(n);
        for (name, ops) in backends() {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| std::hint::black_box(ops.nrm2(&x)))
            });
        }
    }
    group.finish();
}

fn bench_pcg_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_ops/pcg_sweep");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800))
        .sample_size(10);
    // Ten vectors of 4 096 doubles sit in L2; ten of 1 Mi doubles (80 MB)
    // stream from memory.
    for &n in &[4_096usize, 1 << 20] {
        let (aw, mw) = vectors(n);
        for (name, ops) in backends() {
            // α and β small enough that repeated sweeps stay finite.
            let (alpha, beta) = (1.0e-3, 0.5);
            let mut st: Vec<Vec<f64>> = (0..8).map(|_| vectors(n).1).collect();
            let fused_id = format!("fused/{name}");
            group.bench_with_input(BenchmarkId::new(&fused_id, n), &n, |b, _| {
                b.iter(|| {
                    let [z, q, s, p, x, r, u, w] = &mut st[..] else {
                        unreachable!("eight state vectors")
                    };
                    let v = PcgSweep {
                        z,
                        q,
                        s,
                        p,
                        x,
                        r,
                        u,
                        w,
                    };
                    std::hint::black_box(ops.pipelined_pcg_sweep(alpha, beta, &aw, &mw, v))
                })
            });
            let mut st: Vec<Vec<f64>> = (0..8).map(|_| vectors(n).1).collect();
            let split_id = format!("8ops+3dots/{name}");
            group.bench_with_input(BenchmarkId::new(&split_id, n), &n, |b, _| {
                b.iter(|| {
                    let [z, q, s, p, x, r, u, w] = &mut st[..] else {
                        unreachable!("eight state vectors")
                    };
                    ops.xpby(&aw, beta, z);
                    ops.xpby(&mw, beta, q);
                    ops.xpby(w, beta, s);
                    ops.xpby(u, beta, p);
                    ops.axpy(alpha, p, x);
                    ops.axpy(-alpha, s, r);
                    ops.axpy(-alpha, q, u);
                    ops.axpy(-alpha, z, w);
                    let mut dots = [0.0; 3];
                    ops.dot_pairs(&[(&*r, &*u), (&*w, &*u), (&*r, &*r)], &mut dots);
                    std::hint::black_box(dots)
                })
            });
        }
    }
    group.finish();
}

fn bench_cg_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_ops/cg_sweep");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800))
        .sample_size(10);
    // Seven vectors of 4 096 doubles sit in L2; seven of 128 Ki doubles
    // (7 MB — a rank's share of the ledger's 384² problem is 74 Ki rows)
    // sit in a large last-level cache or stream from memory.
    for &n in &[1usize << 12, 1 << 17] {
        let (aw, _) = vectors(n);
        for (name, ops) in backends() {
            // α and β small enough that repeated sweeps stay finite.
            let (alpha, beta) = (1.0e-3, 0.5);
            let mut st: Vec<Vec<f64>> = (0..6).map(|_| vectors(n).1).collect();
            let fused_id = format!("fused/{name}");
            group.bench_with_input(BenchmarkId::new(&fused_id, n), &n, |b, _| {
                b.iter(|| {
                    let [z, s, p, x, r, w] = &mut st[..] else {
                        unreachable!("six state vectors")
                    };
                    let v = CgSweep { z, s, p, x, r, w };
                    std::hint::black_box(ops.pipelined_cg_sweep(alpha, beta, &aw, v))
                })
            });
            let mut st: Vec<Vec<f64>> = (0..6).map(|_| vectors(n).1).collect();
            let split_id = format!("6ops+2dots/{name}");
            group.bench_with_input(BenchmarkId::new(&split_id, n), &n, |b, _| {
                b.iter(|| {
                    let [z, s, p, x, r, w] = &mut st[..] else {
                        unreachable!("six state vectors")
                    };
                    ops.xpby(&aw, beta, z);
                    ops.xpby(w, beta, s);
                    ops.xpby(r, beta, p);
                    ops.axpy(alpha, p, x);
                    ops.axpy(-alpha, s, r);
                    ops.axpy(-alpha, z, w);
                    let mut dots = [0.0; 2];
                    ops.dot_pairs(&[(&*r, &*r), (&*w, &*r)], &mut dots);
                    std::hint::black_box(dots)
                })
            });
        }
    }
    group.finish();
}

fn bench_block_sweep_identity(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_ops/block_sweep_identity");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800))
        .sample_size(10);
    // The `block_rhs8` per-rank shape: 8 columns of 2^15 rows (poisson2d
    // 256² on two ranks), one pipelined block-CG sweep under the identity.
    const K: usize = 8;
    let n = 1 << 15;
    let shape = format!("{K}x{n}");
    let (aw, _) = vectors(K * n);
    let (alpha, beta) = (1.0e-3, 0.5);
    let cols = move |c: usize| c * n..(c + 1) * n;
    for (name, ops) in backends() {
        // Eight-vector route: `u`, `mw`, `q` stored beside `r`, `w`, `s`;
        // per column a `w → mw` copy, then the ten-vector sweep.
        let mut st: Vec<Vec<f64>> = (0..9).map(|_| vectors(K * n).1).collect();
        let eight_id = format!("8vec+copy/{name}");
        group.bench_with_input(BenchmarkId::new(&eight_id, &shape), &n, |b, _| {
            b.iter(|| {
                let [mw, z, q, s, p, x, r, u, w] = &mut st[..] else {
                    unreachable!("nine state multi-vectors")
                };
                let mut dots = [0.0; 3 * K];
                for c in 0..K {
                    mw[cols(c)].copy_from_slice(&w[cols(c)]);
                    let v = PcgSweep {
                        z: &mut z[cols(c)],
                        q: &mut q[cols(c)],
                        s: &mut s[cols(c)],
                        p: &mut p[cols(c)],
                        x: &mut x[cols(c)],
                        r: &mut r[cols(c)],
                        u: &mut u[cols(c)],
                        w: &mut w[cols(c)],
                    };
                    let d = ops.pipelined_pcg_sweep(alpha, beta, &aw[cols(c)], &mw[cols(c)], v);
                    (dots[c], dots[K + c], dots[2 * K + c]) = (d[0], d[1], d[2]);
                }
                std::hint::black_box(dots)
            })
        });
        // Six-vector route: what the block kernel runs under the identity.
        let mut st: Vec<Vec<f64>> = (0..6).map(|_| vectors(K * n).1).collect();
        let six_id = format!("6vec/{name}");
        group.bench_with_input(BenchmarkId::new(&six_id, &shape), &n, |b, _| {
            b.iter(|| {
                let [z, s, p, x, r, w] = &mut st[..] else {
                    unreachable!("six state multi-vectors")
                };
                let mut dots = [0.0; 3 * K];
                for c in 0..K {
                    let v = CgSweep {
                        z: &mut z[cols(c)],
                        s: &mut s[cols(c)],
                        p: &mut p[cols(c)],
                        x: &mut x[cols(c)],
                        r: &mut r[cols(c)],
                        w: &mut w[cols(c)],
                    };
                    let [rr, wr] = ops.pipelined_cg_sweep(alpha, beta, &aw[cols(c)], v);
                    (dots[c], dots[K + c], dots[2 * K + c]) = (rr, wr, rr);
                }
                std::hint::black_box(dots)
            })
        });
    }
    group.finish();
}

fn bench_spmv_layouts(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_ops/spmv");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800))
        .sample_size(10);
    for &side in &[32usize, 180, 512] {
        let a = poisson2d(side, side);
        let sell = SellMatrix::from_csr(&a, resilient_linalg::SELL_DEFAULT_SIGMA);
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        let mut y = vec![0.0; n];
        for (name, ops) in backends() {
            let csr_id = format!("csr/{name}");
            group.bench_with_input(BenchmarkId::new(&csr_id, n), &n, |b, _| {
                b.iter(|| {
                    ops.spmv_csr(&a, &x, &mut y);
                    std::hint::black_box(y[n / 2])
                })
            });
            let sell_id = format!("sell/{name}");
            group.bench_with_input(BenchmarkId::new(&sell_id, n), &n, |b, _| {
                b.iter(|| {
                    ops.spmv_sell(&sell, &x, &mut y);
                    std::hint::black_box(y[n / 2])
                })
            });
        }
    }
    group.finish();
}

/// Rows `0..m` of `a` restricted to columns `0..m`: rank 0's diagonal
/// block when `a` is split into equal row blocks of `m`.
fn leading_block(a: &CsrMatrix, m: usize) -> CsrMatrix {
    let mut coo = CooMatrix::new(m, m);
    for i in 0..m {
        let (cols, vals) = a.row(i);
        for (&j, &v) in cols.iter().zip(vals).filter(|(&j, _)| j < m) {
            coo.push(i, j, v);
        }
    }
    coo.to_csr()
}

fn bench_band_lu(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_ops/band_lu");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800))
        .sample_size(10);
    // lflr_kill: poisson2d(68, 68) on 2 ranks, band 68; bj_pcg:
    // poisson2d(72, 72) on 2 ranks, band 72.
    for (name, side) in [("lflr_kill", 68usize), ("bj_pcg", 72)] {
        let m = side * side / 2;
        let block = leading_block(&poisson2d(side, side), m);
        let id = format!("factor_csr/{name}");
        group.bench_with_input(BenchmarkId::new(&id, m), &m, |b, _| {
            b.iter(|| std::hint::black_box(LuFactors::factor_csr(&block)))
        });
        let lu = LuFactors::factor_csr(&block);
        let rhs: Vec<f64> = (0..m).map(|i| 1.0 + (i % 7) as f64).collect();
        let mut x = vec![0.0; m];
        for (backend, ops) in backends() {
            let id = format!("solve_with/{name}/{backend}");
            group.bench_with_input(BenchmarkId::new(&id, m), &m, |b, _| {
                b.iter(|| {
                    lu.solve_with(ops, &rhs, &mut x);
                    std::hint::black_box(x[m / 2])
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_level1,
    bench_pcg_sweep,
    bench_cg_sweep,
    bench_block_sweep_identity,
    bench_spmv_layouts,
    bench_band_lu
);
criterion_main!(benches);
