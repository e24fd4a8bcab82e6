//! Process-failure recovery for distributed Krylov solves (LFLR × kernel).
//!
//! Pins for `kernel::lflr` (persisted `IterateRollbackPolicy` over
//! `Comm::persist`):
//!
//! 1. **Persistence is free arithmetic** — for every `SolveSpec`, a
//!    failure-free LFLR solve runs the same iterations to the same bitwise
//!    solution as the plain preconditioned solve of that spec (snapshots
//!    cost checkpoint bandwidth, never numerics).
//! 2. **Mid-solve survival** — with a rank killed mid-solve, the CG and
//!    GMRES presets converge to the same tolerance as the failure-free run
//!    across 2–8 ranks, resuming from a persisted step > 0 rather than
//!    iteration 0.
//! 3. **Resume beats restart** — mid-solve resume finishes in less virtual
//!    time than the restart-from-zero baseline under the same failure.
//! 4. **Skew-safe pruning** — even at the minimal window (`keep_last = 3`,
//!    cadence 2) no rank ever needs a snapshot a skew-ahead survivor
//!    pruned: every recovery restores the agreed step (`fallback_restores
//!    == 0`), and the store footprint stays bounded by the window.

use resilience::prelude::*;
use resilient_linalg::{poisson2d, CsrMatrix};
use resilient_runtime::{FailureConfig, FailurePolicy, Runtime, RuntimeConfig};

fn problem() -> (CsrMatrix, Vec<f64>) {
    let a = poisson2d(24, 24);
    let b: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + (i % 5) as f64).collect();
    (a, b)
}

fn opts() -> SolveOptions {
    // Short restart cycles: GMRES snapshots are labelled with the cycle-base
    // step (the only iterate it commits), so the restart length is the
    // effective persistence granularity for the GMRES presets.
    let mut o = SolveOptions::default()
        .with_tol(1e-8)
        .with_max_iters(600)
        .with_restart(6);
    // Per-iteration application work so the solve's virtual time is spread
    // across iterations (rather than dominated by the one-time block-Jacobi
    // factorization charge) — failure times at makespan fractions then land
    // genuinely mid-iteration-stream.
    o.extra_work_per_iter = 2e-3;
    o
}

/// Per-rank scenario observation: `(converged, x_global, report)`.
type RankResult = (bool, Vec<f64>, KrylovLflrReport);

/// Run a preset on `ranks` ranks under `failures`, returning the makespan,
/// failures seen, and the per-rank results.
fn run_scenario(
    ranks: usize,
    preset: SolveSpec,
    cfg: KrylovLflrConfig,
    failures: Vec<(usize, f64)>,
) -> (f64, usize, Vec<RankResult>) {
    let mut rc = RuntimeConfig::fast().with_seed(11);
    if !failures.is_empty() {
        rc = rc.with_failures(FailureConfig::scheduled(
            FailurePolicy::ReplaceRank,
            failures,
        ));
    }
    let rt = Runtime::new(rc);
    let r = rt.run(ranks, move |comm| {
        let (a, b) = problem();
        let (out, report) = lflr_solve(comm, &a, &b, preset, &opts(), &cfg)?;
        Ok((out.converged, out.x.gather_global(comm)?, report))
    });
    assert!(r.all_ok(), "{preset:?} on {ranks} ranks: {:?}", r.errors);
    let failures_seen = r.failures.len();
    (r.job.makespan, failures_seen, r.unwrap_all())
}

#[test]
fn failure_free_lflr_solve_matches_plain_preset() {
    // Persistence must be arithmetically invisible for every composition:
    // same iterations, same bitwise solution as the plain preconditioned
    // solve of the same spec.
    for spec in SolveSpec::ALL {
        let rt = Runtime::new(RuntimeConfig::fast().with_seed(11));
        let plain = rt
            .run(4, move |comm| {
                let (a, b) = problem();
                let da = DistCsr::from_global(comm, &a)?;
                let bv = DistVector::from_global(comm, &b);
                let mut bj = BlockJacobi::new(&da);
                let out = solve_dist(comm, &da, &bv, spec, Some(&mut bj), &opts())?;
                Ok((out.iterations, out.x.gather_global(comm)?))
            })
            .unwrap_all();

        let (_, failures, lflr) = run_scenario(4, spec, KrylovLflrConfig::default(), vec![]);
        assert_eq!(failures, 0, "{spec:?}");
        let (a, b) = problem();
        for ((plain_iters, plain_x), (converged, x, report)) in plain.iter().zip(&lflr) {
            assert!(converged, "{spec:?}: failure-free LFLR solve must converge");
            assert_eq!(report.recoveries, 0, "{spec:?}");
            assert!(
                report.snapshots_persisted > 0,
                "{spec:?}: snapshots must be written"
            );
            assert_eq!(report.fallback_restores, 0, "{spec:?}");
            assert_eq!(
                report.iterations, *plain_iters,
                "{spec:?}: persistence must not change the iteration count"
            );
            assert_eq!(
                x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                plain_x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{spec:?}: persistence must not change the arithmetic"
            );
            assert!(true_relative_residual(&a, &b, x) < 1e-7, "{spec:?}");
        }
    }
}

#[test]
fn rank_killed_mid_solve_resumes_cg_across_rank_counts() {
    let (a, b) = problem();
    for ranks in [2usize, 4, 8] {
        let (clean_time, _, _) = run_scenario(
            ranks,
            SolveSpec::PIPELINED_CG,
            KrylovLflrConfig::default(),
            vec![],
        );
        let cfg = KrylovLflrConfig::default().with_persist_every(3);
        let (_, failures, results) = run_scenario(
            ranks,
            SolveSpec::PIPELINED_CG,
            cfg,
            vec![(ranks / 2, 0.5 * clean_time)],
        );
        assert_eq!(failures, 1, "{ranks} ranks: the failure must be injected");
        let mut max_resumed = 0usize;
        for (converged, x, report) in &results {
            assert!(converged, "{ranks} ranks: solve must survive the failure");
            assert!(
                true_relative_residual(&a, &b, x) < 1e-7,
                "{ranks} ranks: resumed solve must hit the failure-free tolerance"
            );
            assert!(report.recoveries >= 1, "{ranks} ranks: recovery must run");
            assert_eq!(
                report.fallback_restores, 0,
                "{ranks} ranks: agreed snapshot present"
            );
            max_resumed = max_resumed.max(report.resumed_from);
        }
        assert!(
            max_resumed > 0,
            "{ranks} ranks: the solve must resume mid-stream, not from iteration 0"
        );
    }
}

#[test]
fn rank_killed_mid_solve_resumes_gmres_across_rank_counts() {
    let (a, b) = problem();
    for ranks in [2usize, 4, 8] {
        let (clean_time, _, _) = run_scenario(
            ranks,
            SolveSpec::PIPELINED_GMRES,
            KrylovLflrConfig::default(),
            vec![],
        );
        let cfg = KrylovLflrConfig::default().with_persist_every(3);
        let (_, failures, results) = run_scenario(
            ranks,
            SolveSpec::PIPELINED_GMRES,
            cfg,
            vec![(ranks / 2, 0.5 * clean_time)],
        );
        assert_eq!(failures, 1, "{ranks} ranks: the failure must be injected");
        let mut max_resumed = 0usize;
        for (converged, x, report) in &results {
            assert!(converged, "{ranks} ranks: GMRES must survive the failure");
            assert!(true_relative_residual(&a, &b, x) < 1e-7);
            assert!(report.recoveries >= 1);
            assert_eq!(report.fallback_restores, 0);
            max_resumed = max_resumed.max(report.resumed_from);
        }
        assert!(
            max_resumed > 0,
            "{ranks} ranks: GMRES must resume mid-stream"
        );
    }
}

#[test]
fn bulk_synchronous_presets_survive_failures_too() {
    // The fused-CG and CGS-GMRES variants share the driver; one mid-solve
    // failure each at 4 ranks.
    let (a, b) = problem();
    for preset in [SolveSpec::FUSED_CG, SolveSpec::FUSED_GMRES] {
        let (clean_time, _, _) = run_scenario(4, preset, KrylovLflrConfig::default(), vec![]);
        let cfg = KrylovLflrConfig::default().with_persist_every(3);
        let (_, failures, results) = run_scenario(4, preset, cfg, vec![(1, 0.5 * clean_time)]);
        assert_eq!(failures, 1);
        for (converged, x, report) in &results {
            assert!(converged, "{preset:?} must survive the failure");
            assert!(true_relative_residual(&a, &b, x) < 1e-7);
            assert!(report.recoveries >= 1);
            assert_eq!(report.fallback_restores, 0);
        }
    }
}

#[test]
fn mid_solve_resume_beats_restart_from_zero() {
    // Same failure, two recovery modes: warm-starting from the persisted
    // snapshot must cost less virtual time than redoing the whole solve.
    let ranks = 4;
    let (clean_time, _, _) = run_scenario(
        ranks,
        SolveSpec::PIPELINED_CG,
        KrylovLflrConfig::default(),
        vec![],
    );
    let fail = vec![(1usize, 0.7 * clean_time)];
    let cfg = KrylovLflrConfig::default().with_persist_every(3);
    let (resume_time, f1, resumed) =
        run_scenario(ranks, SolveSpec::PIPELINED_CG, cfg, fail.clone());
    let (restart_time, f2, restarted) = run_scenario(
        ranks,
        SolveSpec::PIPELINED_CG,
        cfg.restart_from_zero(),
        fail,
    );
    assert_eq!(f1, 1);
    assert_eq!(f2, 1);
    for (converged, _, report) in &resumed {
        assert!(converged);
        assert!(report.resumed_from > 0, "resume mode must warm-start");
    }
    for (converged, _, report) in &restarted {
        assert!(converged);
        assert_eq!(report.resumed_from, 0, "baseline must restart from zero");
        assert_eq!(
            report.snapshots_persisted, 0,
            "baseline writes no snapshots"
        );
    }
    assert!(
        resume_time < restart_time,
        "mid-solve resume ({resume_time:.4}s) must beat restart-from-zero ({restart_time:.4}s)"
    );
}

#[test]
fn minimal_pruning_window_never_loses_the_agreed_snapshot() {
    // Regression for persist-window pruning × replacement fetch: at the
    // proven-floor window (keep_last = 3) and an aggressive cadence, a
    // skew-ahead survivor must never have pruned the snapshot the
    // just-spawned replacement proposes — every rank restores the agreed
    // step (fallback_restores == 0) — and the per-rank store footprint
    // stays bounded by the window.
    let ranks = 4;
    let cfg = KrylovLflrConfig::default()
        .with_persist_every(2)
        .with_keep_last(3);
    let (clean_time, _, _) = run_scenario(ranks, SolveSpec::PIPELINED_CG, cfg, vec![]);
    let mut rc = RuntimeConfig::fast().with_seed(11);
    rc = rc.with_failures(FailureConfig::scheduled(
        FailurePolicy::ReplaceRank,
        vec![(2, 0.6 * clean_time)],
    ));
    let rt = Runtime::new(rc);
    let r = rt.run(ranks, move |comm| {
        let (a, b) = problem();
        let (out, report) = lflr_pipelined_pcg(comm, &a, &b, &opts(), &cfg)?;
        // Count the snapshots still in this rank's partition after the
        // solve: pruning must have kept the footprint at the window.
        let me = comm.rank();
        let retained = (0..=opts().max_iters)
            .filter(|&s| comm.persisted(me, &resilience::kernel::snapshot_key(s)))
            .count();
        Ok((out.converged, report, retained))
    });
    assert!(r.all_ok(), "errors: {:?}", r.errors);
    assert_eq!(r.failures.len(), 1);
    let mut max_resumed = 0usize;
    for (converged, report, retained) in r.unwrap_all() {
        assert!(converged);
        assert_eq!(
            report.fallback_restores, 0,
            "the agreed snapshot must never have been pruned"
        );
        assert!(report.recoveries >= 1);
        // The resumed attempt prunes its own window (3); each recovery can
        // additionally strand at most one pre-failure window behind, so the
        // footprint stays bounded by 2 windows per failure event.
        assert!(
            retained <= 6,
            "store footprint must stay bounded by the window (retained {retained})"
        );
        // The write counter is total writes, not the pruned ring: at
        // cadence 2 over dozens of iterations it must exceed what pruning
        // retains.
        assert!(
            report.snapshots_persisted > retained,
            "snapshots_persisted must count all writes ({} vs retained {retained})",
            report.snapshots_persisted
        );
        max_resumed = max_resumed.max(report.resumed_from);
    }
    assert!(
        max_resumed > 0,
        "the recovery must actually resume mid-stream"
    );
}
