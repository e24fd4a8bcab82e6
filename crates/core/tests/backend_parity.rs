//! Backend parity: the real-threads backend and the virtual-time simulator
//! must be two views of the *same* algorithms.
//!
//! Pins for the `CommBackend` boundary under `kernel::space`:
//!
//! 1. **Bit-parity** — failure-free `FUSED_CG` and `pipelined_pgmres`
//!    produce bit-identical solutions and identical iteration counts on the
//!    threaded backend and the simulator across 1–8 ranks. Both backends
//!    share the rendezvous engine's ascending-rank reduction fold, so this
//!    holds exactly, not approximately.
//! 2. **Kill-mid-solve** — the LFLR presets survive a *real* rank death on
//!    the threaded backend (a `catch_unwind`-isolated panic injected by
//!    `resilient_faults::ThreadDeathPlan`), converge to the failure-free
//!    tolerance, and resume from a persisted step > 0 — the same recovery
//!    path (`kernel::lflr` + shrink/rendezvous) the simulator exercises,
//!    with zero simulator-specific code in the kernels.

use std::sync::Arc;

use resilience::prelude::*;
use resilient_faults::ThreadDeathPlan;
use resilient_linalg::{poisson2d, CsrMatrix};
use resilient_runtime::{Result, Runtime, RuntimeConfig, ThreadConfig, ThreadRuntime};

fn problem() -> (CsrMatrix, Vec<f64>) {
    let a = poisson2d(16, 16);
    let b: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + (i % 5) as f64).collect();
    (a, b)
}

fn opts() -> SolveOptions {
    SolveOptions::default()
        .with_tol(1e-8)
        .with_max_iters(600)
        .with_restart(8)
}

/// `(iterations, bitwise solution)` — the full observable outcome of a
/// failure-free distributed solve.
type Observation = (usize, Vec<u64>);

/// One rank's body, generic over the backend: assemble, solve, gather.
fn solve_on<C: resilient_runtime::CommBackend>(
    comm: &mut C,
    preset: SolveSpec,
) -> Result<Observation> {
    let (a, b) = problem();
    let da = DistCsr::from_global(comm, &a)?;
    let bv = DistVector::from_global(comm, &b);
    let mut bj = BlockJacobi::new(&da);
    let out = solve_dist(comm, &da, &bv, preset, Some(&mut bj), &opts())?;
    assert!(out.converged, "{preset:?} must converge");
    let bits = out
        .x
        .gather_global(comm)?
        .iter()
        .map(|v| v.to_bits())
        .collect();
    Ok((out.iterations, bits))
}

fn simulator_observations(ranks: usize, preset: SolveSpec) -> Vec<Observation> {
    let rt = Runtime::new(RuntimeConfig::fast().with_seed(7));
    let r = rt.run(ranks, move |comm| solve_on(comm, preset));
    assert!(r.all_ok(), "simulator {preset:?}@{ranks}: {:?}", r.errors);
    r.unwrap_all()
}

fn threaded_observations(ranks: usize, preset: SolveSpec) -> Vec<Observation> {
    let rt = ThreadRuntime::new(ThreadConfig::fast());
    let r = rt.run(ranks, move |comm| solve_on(comm, preset));
    assert!(r.all_ok(), "threads {preset:?}@{ranks}: {:?}", r.errors);
    r.unwrap_all()
}

#[test]
fn failure_free_solves_are_bit_identical_across_backends() {
    for preset in [SolveSpec::FUSED_CG, SolveSpec::PIPELINED_GMRES] {
        for ranks in [1usize, 2, 3, 4, 8] {
            let sim = simulator_observations(ranks, preset);
            let thr = threaded_observations(ranks, preset);
            // Every rank of each backend observes the same outcome...
            for obs in sim.iter().chain(&thr) {
                assert_eq!(
                    obs.0, sim[0].0,
                    "{preset:?}@{ranks}: iteration counts must agree on every rank"
                );
            }
            // ...and the two backends' outcomes are bitwise equal.
            assert_eq!(
                sim, thr,
                "{preset:?}@{ranks}: threaded solve must be bit-identical to the simulator"
            );
        }
    }
}

/// Per-rank observation of an LFLR scenario: `(converged, x, report)`.
type LflrResult = (bool, Vec<f64>, KrylovLflrReport);

/// Run a threaded LFLR scenario, optionally killing `kill_rank` at roughly
/// the middle of the clean run's collective stream.
fn run_threaded_lflr(
    ranks: usize,
    pipelined: bool,
    cfg: KrylovLflrConfig,
    kill: Option<(usize, u64)>,
) -> (usize, Vec<LflrResult>, u64) {
    let mut rt = ThreadRuntime::new(ThreadConfig::fast());
    if let Some((rank, at)) = kill {
        let plan = Arc::new(ThreadDeathPlan::new().kill_at_collective(rank, at));
        rt = rt.with_injector(plan as _);
    }
    let r = rt.run(ranks, move |comm| {
        let (a, b) = problem();
        let (out, report) = if pipelined {
            lflr_pipelined_pcg(comm, &a, &b, &opts(), &cfg)?
        } else {
            lflr_solve(comm, &a, &b, SolveSpec::FUSED_GMRES, &opts(), &cfg)?
        };
        let collectives = comm.snapshot_stats().collectives;
        Ok((
            out.converged,
            out.x.gather_global(comm)?,
            report,
            collectives,
        ))
    });
    assert!(r.all_ok(), "threaded lflr@{ranks}: {:?}", r.errors);
    let failures = r.failures.len();
    let mut max_collectives = 0;
    let results = r
        .unwrap_all()
        .into_iter()
        .map(|(converged, x, report, c)| {
            max_collectives = max_collectives.max(c);
            (converged, x, report)
        })
        .collect();
    (failures, results, max_collectives)
}

#[test]
fn threaded_rank_death_is_survived_by_lflr_cg_across_rank_counts() {
    let (a, b) = problem();
    for ranks in [2usize, 4, 8] {
        // Clean run: learn how many collectives a full solve takes, then
        // panic a mid-index rank halfway through that stream.
        let (f0, _, clean_collectives) =
            run_threaded_lflr(ranks, true, KrylovLflrConfig::default(), None);
        assert_eq!(f0, 0);
        let cfg = KrylovLflrConfig::default().with_persist_every(3);
        let (failures, results, _) =
            run_threaded_lflr(ranks, true, cfg, Some((ranks / 2, clean_collectives / 2)));
        assert_eq!(
            failures, 1,
            "{ranks} ranks: exactly one real panic injected"
        );
        let mut max_resumed = 0usize;
        for (converged, x, report) in &results {
            assert!(converged, "{ranks} ranks: solve must survive the panic");
            assert!(
                true_relative_residual(&a, &b, x) < 1e-7,
                "{ranks} ranks: must reach the failure-free tolerance"
            );
            assert!(report.recoveries >= 1, "{ranks} ranks: recovery must run");
            assert_eq!(report.fallback_restores, 0);
            max_resumed = max_resumed.max(report.resumed_from);
        }
        assert!(
            max_resumed > 0,
            "{ranks} ranks: the threaded solve must resume mid-stream"
        );
    }
}

#[test]
fn threaded_rank_death_is_survived_by_lflr_gmres() {
    let (a, b) = problem();
    let ranks = 4;
    let (_, _, clean_collectives) =
        run_threaded_lflr(ranks, false, KrylovLflrConfig::default(), None);
    let cfg = KrylovLflrConfig::default().with_persist_every(3);
    let (failures, results, _) =
        run_threaded_lflr(ranks, false, cfg, Some((1, clean_collectives / 2)));
    assert_eq!(failures, 1);
    let mut max_resumed = 0usize;
    for (converged, x, report) in &results {
        assert!(converged, "GMRES must survive the real panic");
        assert!(true_relative_residual(&a, &b, x) < 1e-7);
        assert!(report.recoveries >= 1);
        max_resumed = max_resumed.max(report.resumed_from);
    }
    assert!(max_resumed > 0, "GMRES must resume mid-stream");
}
