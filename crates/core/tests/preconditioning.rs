//! Tests for the preconditioner axis (space-generic preconditioning with
//! distributed block-Jacobi).
//!
//! Four pins:
//!
//! 1. **Identity is free** — every preconditioned preset run with
//!    [`IdentityPrecond`] produces bit-identical iterates, iteration counts
//!    and convergence decisions to its unpreconditioned counterpart, at
//!    every rank count.
//! 2. **Correctness** — the block-Jacobi preconditioned presets agree with
//!    a dense partial-pivot reference across 1–8 ranks on random SPD /
//!    nonsymmetric systems (property tests).
//! 3. **Zero added collectives** — block-Jacobi preconditioning leaves each
//!    preset's exact allreduce-per-iteration count unchanged (fused CG: 2,
//!    pipelined CG: 1, CGS GMRES: 2, p(1) GMRES: 1).
//! 4. **It actually preconditions** — on the ill-conditioned
//!    anisotropic/jumpy-coefficient problem, block-Jacobi reduces
//!    iterations-to-tolerance at every tested rank count.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use resilience::prelude::*;
use resilient_linalg::{anisotropic2d, diag_dominant_random, random_vector, spd_random, CsrMatrix};
use resilient_runtime::{Runtime, RuntimeConfig};

/// Dense reference solve: Gaussian elimination with partial pivoting.
fn dense_solve(a: &CsrMatrix, b: &[f64]) -> Vec<f64> {
    let n = a.nrows();
    let d = a.to_dense();
    let mut m = vec![vec![0.0f64; n + 1]; n];
    for (i, row) in m.iter_mut().enumerate() {
        for (j, mij) in row.iter_mut().take(n).enumerate() {
            *mij = d.get(i, j);
        }
        row[n] = b[i];
    }
    for k in 0..n {
        let piv = (k..n)
            .max_by(|&i, &j| m[i][k].abs().partial_cmp(&m[j][k].abs()).unwrap())
            .unwrap();
        m.swap(k, piv);
        let pivot = m[k][k];
        assert!(pivot.abs() > 0.0, "reference solve: singular matrix");
        let pivot_row = m[k].clone();
        for row in m.iter_mut().skip(k + 1) {
            let f = row[k] / pivot;
            for (rj, pj) in row[k..].iter_mut().zip(&pivot_row[k..]) {
                *rj -= f * pj;
            }
        }
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = m[i][n];
        for j in i + 1..n {
            s -= m[i][j] * x[j];
        }
        x[i] = s / m[i][i];
    }
    x
}

fn rel_err(x: &[f64], reference: &[f64]) -> f64 {
    let num: f64 = x
        .iter()
        .zip(reference)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt();
    let den: f64 = reference.iter().map(|v| v * v).sum::<f64>().sqrt();
    num / den.max(f64::EPSILON)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

// ---------------------------------------------------------------------------
// 1. Identity-preconditioned presets are bit-identical to the existing ones
// ---------------------------------------------------------------------------

#[test]
fn identity_preconditioned_presets_are_bit_identical() {
    for ranks in [1usize, 2, 3, 5, 8] {
        let rt = Runtime::new(RuntimeConfig::fast());
        let rows = rt
            .run(ranks, move |comm| {
                let a = resilient_linalg::poisson2d(9, 9);
                let da = DistCsr::from_global(comm, &a)?;
                let b = DistVector::from_fn(comm, a.nrows(), |i| 1.0 + (i % 3) as f64);
                let opts = SolveOptions::default()
                    .with_tol(1e-8)
                    .with_max_iters(400)
                    .with_restart(30);
                let gmres_opts = opts;
                let pgm_opts = opts.with_tol(1e-7);

                let plain_cg = dist_cg(comm, &da, &b, &opts)?;
                let mut id = IdentityPrecond;
                let pre_cg = solve_dist(comm, &da, &b, SolveSpec::FUSED_CG, Some(&mut id), &opts)?;

                let plain_pcg = pipelined_cg(comm, &da, &b, &opts)?;
                let mut id = IdentityPrecond;
                let pre_pcg = pipelined_pcg(comm, &da, &b, &mut id, &opts)?;

                let plain_gm =
                    solve_dist(comm, &da, &b, SolveSpec::FUSED_GMRES, None, &gmres_opts)?;
                let mut id = IdentityPrecond;
                let pre_gm = solve_dist(
                    comm,
                    &da,
                    &b,
                    SolveSpec::FUSED_GMRES,
                    Some(&mut id),
                    &gmres_opts,
                )?;

                let plain_pg =
                    solve_dist(comm, &da, &b, SolveSpec::PIPELINED_GMRES, None, &pgm_opts)?;
                let mut id = IdentityPrecond;
                let pre_pg = pipelined_pgmres(comm, &da, &b, &mut id, &pgm_opts)?;

                Ok(vec![
                    (
                        "fused CG",
                        plain_cg.iterations,
                        pre_cg.iterations,
                        plain_cg.converged,
                        pre_cg.converged,
                        plain_cg.x.gather_global(comm)?,
                        pre_cg.x.gather_global(comm)?,
                    ),
                    (
                        "pipelined CG",
                        plain_pcg.iterations,
                        pre_pcg.iterations,
                        plain_pcg.converged,
                        pre_pcg.converged,
                        plain_pcg.x.gather_global(comm)?,
                        pre_pcg.x.gather_global(comm)?,
                    ),
                    (
                        "CGS GMRES",
                        plain_gm.iterations,
                        pre_gm.iterations,
                        plain_gm.converged,
                        pre_gm.converged,
                        plain_gm.x.gather_global(comm)?,
                        pre_gm.x.gather_global(comm)?,
                    ),
                    (
                        "p(1) GMRES",
                        plain_pg.iterations,
                        pre_pg.iterations,
                        plain_pg.converged,
                        pre_pg.converged,
                        plain_pg.x.gather_global(comm)?,
                        pre_pg.x.gather_global(comm)?,
                    ),
                ])
            })
            .unwrap_all();
        for row in rows {
            for (name, it_plain, it_pre, conv_plain, conv_pre, x_plain, x_pre) in row {
                assert_eq!(
                    it_plain, it_pre,
                    "{name} on {ranks} ranks: identity must not change iterations"
                );
                assert_eq!(conv_plain, conv_pre, "{name} on {ranks} ranks: convergence");
                assert_eq!(
                    bits(&x_plain),
                    bits(&x_pre),
                    "{name} on {ranks} ranks: identity-preconditioned iterate must be bit-identical"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Block-Jacobi presets vs the dense reference (property tests)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The four block-Jacobi preconditioned presets agree with the dense
    /// reference on every rank count from 1 to 8. Pipelined GMRES is
    /// checked in its stable regime (tol 1e-7 / error 1e-5), matching the
    /// unpreconditioned property test: the p(1) residual estimate is
    /// unreliable below √ε regardless of preconditioning.
    #[test]
    fn block_jacobi_presets_match_dense_reference(seed in 0u64..500, ranks in 1usize..=8) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = 30;
        let spd = spd_random(n, &mut rng);
        let spd_b = random_vector(n, &mut rng);
        let gen = diag_dominant_random(n, 4, &mut rng);
        let gen_b = random_vector(n, &mut rng);
        let spd_ref = dense_solve(&spd, &spd_b);
        let gen_ref = dense_solve(&gen, &gen_b);
        let (spd2, spd_b2) = (spd.clone(), spd_b.clone());
        let (gen2, gen_b2) = (gen.clone(), gen_b.clone());
        let rt = Runtime::new(RuntimeConfig::fast());
        let results = rt
            .run(ranks, move |comm| {
                let opts = SolveOptions::default()
                    .with_tol(1e-11)
                    .with_max_iters(60 * n)
                    .with_restart(30);
                let da = DistCsr::from_global(comm, &spd2)?;
                let db = DistVector::from_global(comm, &spd_b2);
                let mut bj = BlockJacobi::new(&da);
                let fused = solve_dist(comm, &da, &db, SolveSpec::FUSED_CG, Some(&mut bj), &opts)?;
                let mut bj = BlockJacobi::new(&da);
                let piped = pipelined_pcg(comm, &da, &db, &mut bj, &opts)?;
                let dg = DistCsr::from_global(comm, &gen2)?;
                let dgb = DistVector::from_global(comm, &gen_b2);
                let mut bj = BlockJacobi::new(&dg);
                let gm = solve_dist(comm, &dg, &dgb, SolveSpec::FUSED_GMRES, Some(&mut bj), &opts)?;
                let mut bj = BlockJacobi::new(&dg);
                let pgm = pipelined_pgmres(comm, &dg, &dgb, &mut bj, &opts.with_tol(1e-7))?;
                Ok((
                    (fused.converged, fused.x.gather_global(comm)?),
                    (piped.converged, piped.x.gather_global(comm)?),
                    (gm.converged, gm.x.gather_global(comm)?),
                    (pgm.converged, pgm.x.gather_global(comm)?),
                ))
            })
            .unwrap_all();
        for (fused, piped, gm, pgm) in results {
            for (name, reference, bound, (conv, x)) in [
                ("bj-pcg", &spd_ref, 1e-8, fused),
                ("bj-pipelined-pcg", &spd_ref, 1e-8, piped),
                ("bj-pgmres", &gen_ref, 1e-8, gm),
                ("bj-pipelined-pgmres", &gen_ref, 1e-5, pgm),
            ] {
                prop_assert!(conv, "{} did not converge on {} ranks", name, ranks);
                let err = rel_err(&x, reference);
                prop_assert!(err < bound, "{} error {} on {} ranks", name, err, ranks);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 3. Block-Jacobi adds zero allreduces per iteration
// ---------------------------------------------------------------------------

/// Options that never converge (iteration counts exactly `max_iters`).
fn pinned_opts(max_iters: usize) -> SolveOptions {
    SolveOptions::default()
        .with_tol(1e-30)
        .with_max_iters(max_iters)
        .with_restart(30)
}

/// Collectives and iterations of one solver run on 4 ranks (rank 0's view;
/// counts are symmetric). `which`: 0 = fused CG, 1 = pipelined CG,
/// 2 = CGS GMRES, 3 = p(1) GMRES; `bj` switches block-Jacobi on.
fn collectives(which: usize, bj: bool, max_iters: usize) -> (u64, usize) {
    let rt = Runtime::new(RuntimeConfig::fast());
    let rows = rt
        .run(4, move |comm| {
            let a = anisotropic2d(8, 8, 0.05, 1000.0, 2);
            let da = DistCsr::from_global(comm, &a)?;
            let b = DistVector::from_fn(comm, a.nrows(), |i| 1.0 + (i % 3) as f64);
            let opts = pinned_opts(max_iters);
            let before = comm.snapshot_stats().collectives;
            let out = match (which, bj) {
                (0, false) => dist_cg(comm, &da, &b, &opts)?,
                (0, true) => {
                    let mut m = BlockJacobi::new(&da);
                    solve_dist(comm, &da, &b, SolveSpec::FUSED_CG, Some(&mut m), &opts)?
                }
                (1, false) => pipelined_cg(comm, &da, &b, &opts)?,
                (1, true) => {
                    let mut m = BlockJacobi::new(&da);
                    pipelined_pcg(comm, &da, &b, &mut m, &opts)?
                }
                (2, false) => solve_dist(comm, &da, &b, SolveSpec::FUSED_GMRES, None, &opts)?,
                (2, true) => {
                    let mut m = BlockJacobi::new(&da);
                    solve_dist(comm, &da, &b, SolveSpec::FUSED_GMRES, Some(&mut m), &opts)?
                }
                (3, false) => solve_dist(comm, &da, &b, SolveSpec::PIPELINED_GMRES, None, &opts)?,
                (3, true) => {
                    let mut m = BlockJacobi::new(&da);
                    pipelined_pgmres(comm, &da, &b, &mut m, &opts)?
                }
                _ => unreachable!(),
            };
            let after = comm.snapshot_stats().collectives;
            Ok((after - before, out.iterations))
        })
        .unwrap_all();
    rows[0]
}

/// The acceptance pin: block-Jacobi preconditioning leaves every preset's
/// exact allreduce-per-iteration count unchanged — 2 for the blocking
/// schedules, 1 for the pipelined ones.
#[test]
fn block_jacobi_adds_zero_allreduces_per_iteration() {
    for (which, name, per_iter) in [
        (0usize, "fused CG", 2u64),
        (1, "pipelined CG", 1),
        (2, "CGS GMRES", 2),
        (3, "p(1) GMRES", 1),
    ] {
        let (plain_short, i1) = collectives(which, false, 5);
        let (plain_long, i2) = collectives(which, false, 12);
        assert_eq!((i1, i2), (5, 12), "{name}: plain runs must hit the cap");
        let (bj_short, i1) = collectives(which, true, 5);
        let (bj_long, i2) = collectives(which, true, 12);
        assert_eq!((i1, i2), (5, 12), "{name}: bj runs must hit the cap");
        let plain_delta = plain_long - plain_short;
        let bj_delta = bj_long - bj_short;
        assert_eq!(
            plain_delta,
            7 * per_iter,
            "{name}: expected {per_iter} allreduces per unpreconditioned iteration"
        );
        assert_eq!(
            bj_delta, plain_delta,
            "{name}: block-Jacobi must add zero allreduces per iteration"
        );
    }
}

// ---------------------------------------------------------------------------
// 4. Block-Jacobi reduces iterations on the ill-conditioned problem
// ---------------------------------------------------------------------------

#[test]
fn block_jacobi_reduces_iterations_at_every_rank_count() {
    for ranks in [1usize, 2, 4, 8] {
        let rt = Runtime::new(RuntimeConfig::fast());
        let rows = rt
            .run(ranks, move |comm| {
                let a = anisotropic2d(16, 16, 0.1, 100.0, 4);
                let da = DistCsr::from_global(comm, &a)?;
                let b = DistVector::from_fn(comm, a.nrows(), |i| 1.0 + (i % 5) as f64);
                let opts = SolveOptions::default()
                    .with_tol(1e-8)
                    .with_max_iters(2000)
                    .with_restart(60);
                let plain_cg = dist_cg(comm, &da, &b, &opts)?;
                let mut bj = BlockJacobi::new(&da);
                let pre_cg = solve_dist(comm, &da, &b, SolveSpec::FUSED_CG, Some(&mut bj), &opts)?;
                let plain_gm = solve_dist(comm, &da, &b, SolveSpec::FUSED_GMRES, None, &opts)?;
                let mut bj = BlockJacobi::new(&da);
                let pre_gm =
                    solve_dist(comm, &da, &b, SolveSpec::FUSED_GMRES, Some(&mut bj), &opts)?;
                assert!(plain_cg.converged && pre_cg.converged);
                assert!(plain_gm.converged && pre_gm.converged);
                Ok((
                    plain_cg.iterations,
                    pre_cg.iterations,
                    plain_gm.iterations,
                    pre_gm.iterations,
                ))
            })
            .unwrap_all();
        for (cg_plain, cg_bj, gm_plain, gm_bj) in rows {
            assert!(
                cg_bj < cg_plain,
                "{ranks} ranks: block-Jacobi CG must reduce iterations ({cg_bj} vs {cg_plain})"
            );
            assert!(
                gm_bj < gm_plain,
                "{ranks} ranks: block-Jacobi GMRES must reduce iterations ({gm_bj} vs {gm_plain})"
            );
        }
        if ranks == 1 {
            // One rank owns the whole matrix: block-Jacobi is a direct solve.
            let rt = Runtime::new(RuntimeConfig::fast());
            let iters = rt
                .run(1, move |comm| {
                    let a = anisotropic2d(16, 16, 0.1, 100.0, 4);
                    let da = DistCsr::from_global(comm, &a)?;
                    let b = DistVector::from_fn(comm, a.nrows(), |i| 1.0 + (i % 5) as f64);
                    let mut bj = BlockJacobi::new(&da);
                    let opts = SolveOptions::default().with_tol(1e-8).with_max_iters(50);
                    let out = solve_dist(comm, &da, &b, SolveSpec::FUSED_CG, Some(&mut bj), &opts)?;
                    assert!(out.converged);
                    Ok(out.iterations)
                })
                .unwrap_all();
            assert!(
                iters[0] <= 2,
                "single-rank block-Jacobi is an exact solve, took {}",
                iters[0]
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 5. Block-Jacobi iteration counts are pinned
// ---------------------------------------------------------------------------

/// The band-clipped LU is specified bit-identical to the dense elimination
/// it replaced, so the block-Jacobi presets must take exactly the
/// iterations they took with dense factors: the constants were read from
/// the last dense-LU commit (fused CG, pipelined CG, CGS GMRES, p(1) GMRES).
#[test]
fn block_jacobi_iteration_counts_on_poisson2d_are_pinned() {
    for (ranks, pinned) in [
        (2usize, [14usize, 14, 14, 13]),
        (3, [20, 20, 19, 60]),
        (8, [30, 30, 30, 27]),
    ] {
        let rt = Runtime::new(RuntimeConfig::fast());
        let rows = rt
            .run(ranks, move |comm| {
                let a = resilient_linalg::poisson2d(24, 24);
                let da = DistCsr::from_global(comm, &a)?;
                let b = DistVector::from_fn(comm, a.nrows(), |i| 1.0 + (i % 3) as f64);
                let opts = SolveOptions::default()
                    .with_tol(1e-8)
                    .with_max_iters(400)
                    .with_restart(30);
                let fused = solve_dist(
                    comm,
                    &da,
                    &b,
                    SolveSpec::FUSED_CG,
                    Some(&mut BlockJacobi::new(&da)),
                    &opts,
                )?;
                let piped = pipelined_pcg(comm, &da, &b, &mut BlockJacobi::new(&da), &opts)?;
                let gm = solve_dist(
                    comm,
                    &da,
                    &b,
                    SolveSpec::FUSED_GMRES,
                    Some(&mut BlockJacobi::new(&da)),
                    &opts,
                )?;
                let pgm = pipelined_pgmres(
                    comm,
                    &da,
                    &b,
                    &mut BlockJacobi::new(&da),
                    &opts.with_tol(1e-7),
                )?;
                assert!(fused.converged && piped.converged && gm.converged && pgm.converged);
                Ok([
                    fused.iterations,
                    piped.iterations,
                    gm.iterations,
                    pgm.iterations,
                ])
            })
            .unwrap_all();
        for row in rows {
            assert_eq!(row, pinned, "{ranks} ranks");
        }
    }
}
