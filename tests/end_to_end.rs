//! Cross-crate integration tests: each exercises one of the paper's
//! programming models end-to-end through the public API of the suite.

use resilience::prelude::*;
use resilience::prelude::{run_cpr, run_lflr, CprConfig};
use resilient_linalg::{poisson2d, CsrMatrix};
use resilient_pde::{ExplicitHeat, HeatProblem};
use resilient_runtime::{
    FailureConfig, FailurePolicy, LatencyModel, NoiseConfig, ReduceOp, Runtime, RuntimeConfig,
};
use std::sync::Arc;

/// SkP end-to-end: sweep every bit class through the skeptical GMRES and
/// check that no harmful corruption survives undetected *and uncorrected*.
#[test]
fn skeptical_gmres_never_returns_a_silently_wrong_answer() {
    let a = poisson2d(12, 12);
    let b = vec![1.0; a.nrows()];
    let opts = SolveOptions::default()
        .with_tol(1e-8)
        .with_max_iters(600)
        .with_restart(30);
    for bit in [0u32, 20, 45, 55, 60, 63] {
        for trial in 0..3u64 {
            let seed = 90 + bit as u64 * 10 + trial;
            let fault = random_spmv_fault(a.nrows(), 2 + trial as usize * 7, Some(bit), seed);
            let cfg = SkepticalConfig::default();
            let (out, _report) = skeptical_gmres(&a, &b, None, &opts, &cfg, Some(fault));
            let err = true_relative_residual(&a, &b, &out.x);
            // The contract: if the solver *claims* convergence, the answer is
            // actually right (verified against the clean operator).
            if out.converged() {
                assert!(
                    err < 1e-6,
                    "bit {bit}, trial {trial}: claimed convergence but err={err}"
                );
            }
        }
    }
}

/// SRP end-to-end: FT-GMRES keeps converging at fault rates where the
/// all-unreliable baseline degrades, while doing most raw work unreliably.
#[test]
fn ft_gmres_beats_unreliable_baseline_at_high_fault_rate() {
    let a = poisson2d(10, 10);
    let b = vec![1.0; a.nrows()];
    let rate = 5e-3;
    let cfg = FtGmresConfig {
        outer: SolveOptions::default()
            .with_tol(1e-8)
            .with_max_iters(80)
            .with_restart(40),
        fault_rate: rate,
        ..FtGmresConfig::default()
    };
    let (ft_out, ft_report) = ft_gmres(&a, &b, &cfg);
    assert!(ft_report.corruptions > 0);
    assert!(ft_out.converged());
    assert!(true_relative_residual(&a, &b, &ft_out.x) < 1e-6);
    assert!(ft_report.ledger.reliable_fraction() < 0.6);

    let (un_out, _) = unreliable_gmres(
        &a,
        &b,
        &SolveOptions::default()
            .with_tol(1e-8)
            .with_max_iters(400)
            .with_restart(40),
        rate,
        1,
    );
    let un_err = true_relative_residual(&a, &b, &un_out.x);
    assert!(
        !un_err.is_finite() || un_err > 1e-8 || un_out.iterations > ft_out.iterations,
        "the unprotected solver should not beat FT-GMRES here"
    );
}

/// RBSP end-to-end: on a machine with slow collectives and noise, the
/// pipelined solvers win in virtual time and produce the same solution.
#[test]
fn pipelined_solvers_hide_latency_and_match_solutions() {
    let mut cfg = RuntimeConfig::fast().with_seed(17);
    cfg.latency = LatencyModel {
        alpha: 3.0e-4,
        beta: 0.0,
        gamma: 0.0,
    };
    cfg.noise = NoiseConfig::exponential(500.0, 5.0e-5);
    let rt = Runtime::new(cfg);
    let rows = rt
        .run(8, move |comm| {
            let a = poisson2d(14, 14);
            let da = DistCsr::from_global(comm, &a)?;
            let b = DistVector::from_fn(comm, a.nrows(), |i| (i % 4) as f64 + 1.0);
            let opts = SolveOptions::default().with_tol(1e-7).with_max_iters(250);
            let t0 = comm.now();
            let classic = dist_cg(comm, &da, &b, &opts)?;
            let t1 = comm.now();
            let pipelined = pipelined_cg(comm, &da, &b, &opts)?;
            let t2 = comm.now();
            Ok((
                t1 - t0,
                t2 - t1,
                classic.x.gather_global(comm)?,
                pipelined.x.gather_global(comm)?,
                classic.converged && pipelined.converged,
            ))
        })
        .unwrap_all();
    let a = poisson2d(14, 14);
    let b: Vec<f64> = (0..a.nrows()).map(|i| (i % 4) as f64 + 1.0).collect();
    for (classic_t, pipelined_t, cx, px, converged) in rows {
        assert!(converged);
        assert!(
            pipelined_t < classic_t,
            "pipelined {pipelined_t} vs classic {classic_t}"
        );
        assert!(true_relative_residual(&a, &b, &cx) < 1e-6);
        assert!(true_relative_residual(&a, &b, &px) < 1e-6);
    }
}

/// LFLR end-to-end: the heat equation survives two injected rank failures
/// and still reproduces the failure-free solution bit-for-bit (the stencil
/// arithmetic is deterministic), while CPR needs a full restart.
#[test]
fn heat_equation_survives_failures_under_lflr_and_cpr() {
    let steps = 30;
    let app = ExplicitHeat {
        problem: HeatProblem::stable(64, 1.0),
        steps,
        persist_interval: 3,
        work_per_step: 0.02,
    };
    let serial = HeatProblem::stable(64, 1.0).run_explicit(steps);

    let cfg = RuntimeConfig::fast().with_failures(FailureConfig::scheduled(
        FailurePolicy::ReplaceRank,
        vec![(0, 0.15), (3, 0.41)],
    ));
    let rt = Runtime::new(cfg);
    let app_clone = app.clone();
    let job = rt.run(4, move |comm| {
        let (report, field) = run_lflr(comm, &app_clone)?;
        Ok((report, app_clone.gather(comm, &field)?))
    });
    assert!(job.all_ok(), "{:?}", job.errors);
    assert_eq!(job.failures.len(), 2);
    for (report, field) in job.unwrap_all() {
        assert_eq!(report.steps_completed, steps);
        for (a, b) in field.iter().zip(&serial) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    let cpr_cfg = RuntimeConfig::fast().with_failures(FailureConfig {
        enabled: true,
        policy: FailurePolicy::AbortJob,
        mtbf_per_rank: f64::INFINITY,
        scheduled: vec![(1, 0.2)],
        max_failures: 1,
    });
    let report = run_cpr(
        &cpr_cfg,
        4,
        Arc::new(app),
        &CprConfig {
            checkpoint_interval: 3,
            max_restarts: 5,
        },
    );
    assert!(report.completed);
    assert_eq!(report.attempts, 2);
    assert!(report.steps_reexecuted > 0);
}

/// The runtime's collectives agree with serial reductions for assorted
/// sizes and operators (a cross-crate sanity net under the solvers).
#[test]
fn collectives_match_serial_reductions() {
    let rt = Runtime::new(RuntimeConfig::fast());
    for ranks in [1usize, 2, 5, 9] {
        let sums = rt
            .run(ranks, move |comm| {
                let mine = vec![comm.rank() as f64 + 1.0, (comm.rank() * comm.rank()) as f64];
                let sum = comm.allreduce(ReduceOp::Sum, &mine)?;
                let max = comm.allreduce(ReduceOp::Max, &mine)?;
                Ok((sum, max))
            })
            .unwrap_all();
        let expected_sum: f64 = (1..=ranks).map(|r| r as f64).sum();
        let expected_sq: f64 = (0..ranks).map(|r| (r * r) as f64).sum();
        for (sum, max) in sums {
            assert_eq!(sum, vec![expected_sum, expected_sq]);
            assert_eq!(max[0], ranks as f64);
        }
    }
}

/// Distributed SpMV equals serial SpMV for a non-symmetric matrix and an
/// uneven rank count (cross-crate: linalg + runtime + core).
#[test]
fn distributed_spmv_matches_serial_for_nonsymmetric_matrix() {
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
    let a: CsrMatrix = resilient_linalg::diag_dominant_random(53, 4, &mut rng);
    let x: Vec<f64> = (0..53).map(|i| (i as f64 * 0.21).sin()).collect();
    let expected = a.spmv(&x);
    let rt = Runtime::new(RuntimeConfig::fast());
    let a2 = a.clone();
    let x2 = x.clone();
    let rows = rt
        .run(3, move |comm| {
            let da = DistCsr::from_global(comm, &a2)?;
            let dx = DistVector::from_global(comm, &x2);
            let y = da.apply(comm, &dx)?;
            y.gather_global(comm)
        })
        .unwrap_all();
    for got in rows {
        for (g, e) in got.iter().zip(&expected) {
            assert!((g - e).abs() < 1e-12);
        }
    }
}
