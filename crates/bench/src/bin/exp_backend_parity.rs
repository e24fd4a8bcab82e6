//! Experiment B1 — backend parity: does the virtual-time simulator predict
//! what the real-threads backend *measures*?
//!
//! Every headline in this suite so far is a virtual-time number. The
//! `CommBackend` boundary makes the same kernels run on real worker
//! threads with emulated latency (actual sleeps) and real panics for rank
//! death, so the predictions become checkable. Three scenarios, each run
//! on both backends with the same latency/compute/checkpoint cost model:
//!
//! * **latency** (E3 analogue) — blocking vs p(1)-pipelined block-Jacobi
//!   PCG. The simulator predicts the pipelined speedup in virtual seconds;
//!   the threaded backend measures it in wall-clock seconds.
//! * **LFLR** (K1 analogue) — rank death mid-solve, resume-from-snapshot
//!   vs restart-from-zero. On the threaded backend the death is a real
//!   `catch_unwind`-isolated panic injected by `ThreadDeathPlan` and the
//!   re-execution cost is real elapsed time.
//! * **SDC** (C1 analogue) — pipelined skeptical GMRES with one injected
//!   exponent-bit flip. No timing claim: the two backends must agree
//!   *exactly* (same detections, same corrective restarts, same iteration
//!   count) because they share the reduction fold.
//!
//! The headline, asserted in code: each measured threaded speedup is
//! within 2x of its virtual-time prediction, and the SDC outcomes are
//! identical.
//!
//! Pass `--smoke` for a CI-sized run.

use std::sync::Arc;

use resilience::kernel::{lflr_pipelined_pcg, KrylovLflrConfig};
use resilience::prelude::*;
use resilient_bench::{fmt_g, fmt_ratio, Table};
use resilient_faults::ThreadDeathPlan;
use resilient_linalg::poisson2d;
use resilient_runtime::{
    CommBackend, FailureConfig, FailurePolicy, LatencyModel, Result, Runtime, RuntimeConfig,
    ThreadConfig, ThreadRuntime,
};

/// The shared cost model: chosen so emulated latencies are large enough for
/// the threaded backend to sleep honestly (>= 100us) yet the whole
/// experiment stays CI-sized.
fn latency_model() -> LatencyModel {
    LatencyModel {
        alpha: 4.0e-4,
        beta: 1e-9,
        gamma: 1e-9,
    }
}

const SECONDS_PER_FLOP: f64 = 1.0e-9;

fn sim_config() -> RuntimeConfig {
    let mut cfg = RuntimeConfig::fast().with_seed(29);
    cfg.latency = latency_model();
    cfg.seconds_per_flop = SECONDS_PER_FLOP;
    cfg
}

fn thread_config() -> ThreadConfig {
    ThreadConfig::default()
        .with_latency(latency_model())
        .with_seconds_per_flop(SECONDS_PER_FLOP)
}

// ---------------------------------------------------------------- latency

/// Per-rank body: time blocking then pipelined block-Jacobi PCG, returning
/// `(t_blocking, t_pipelined)` in the backend's own clock.
fn latency_body<C: CommBackend>(comm: &mut C, nx: usize, opts: SolveOptions) -> Result<(f64, f64)> {
    let a = poisson2d(nx, nx);
    let n = a.nrows();
    let da = DistCsr::from_global(comm, &a)?;
    let b = DistVector::from_fn(comm, n, |i| 1.0 + (i % 3) as f64);
    let t0 = comm.now();
    let mut bj = BlockJacobi::new(&da);
    let blocking = solve_dist(comm, &da, &b, SolveSpec::FUSED_CG, Some(&mut bj), &opts)?;
    let t1 = comm.now();
    let mut bj = BlockJacobi::new(&da);
    let pipelined = pipelined_pcg(comm, &da, &b, &mut bj, &opts)?;
    let t2 = comm.now();
    assert!(blocking.converged && pipelined.converged);
    Ok((t1 - t0, t2 - t1))
}

/// `(blocking, pipelined, speedup)` on one backend.
fn latency_scenario(ranks: usize, nx: usize, threaded: bool) -> (f64, f64, f64) {
    let mut opts = SolveOptions::default()
        .with_tol(1e-7)
        .with_max_iters(300)
        .with_restart(30);
    // Overlappable application work each iteration: what the pipelined
    // reduction hides behind.
    opts.extra_work_per_iter = 1.0e-3;
    let times: Vec<(f64, f64)> = if threaded {
        let rt = ThreadRuntime::new(thread_config());
        rt.run(ranks, move |comm| latency_body(comm, nx, opts))
            .unwrap_all()
    } else {
        let rt = Runtime::new(sim_config());
        rt.run(ranks, move |comm| latency_body(comm, nx, opts))
            .unwrap_all()
    };
    let blocking = times.iter().map(|t| t.0).fold(0.0f64, f64::max);
    let pipelined = times.iter().map(|t| t.1).fold(0.0f64, f64::max);
    (blocking, pipelined, blocking / pipelined.max(1e-12))
}

// ------------------------------------------------------------------- lflr

/// One threaded LFLR job. Returns `(makespan, max resumed_from, max
/// per-rank collectives, failures seen)`.
fn lflr_threaded(
    ranks: usize,
    nx: usize,
    lflr: KrylovLflrConfig,
    kill_at: Option<u64>,
) -> (f64, usize, u64, usize) {
    let mut rt = ThreadRuntime::new(thread_config());
    if let Some(at) = kill_at {
        rt = rt
            .with_injector(Arc::new(ThreadDeathPlan::new().kill_at_collective(ranks / 2, at)) as _);
    }
    let r = rt.run(ranks, move |comm| {
        let (out, report) =
            lflr_pipelined_pcg(comm, &poisson2d(nx, nx), &lflr_rhs(nx), &lflr_opts(), &lflr)?;
        assert!(out.converged, "threaded LFLR solve must converge");
        Ok((report.resumed_from, comm.snapshot_stats().collectives))
    });
    assert!(r.all_ok(), "threaded LFLR: {:?}", r.errors);
    let failures = r.failures.len();
    let makespan = r.job.makespan;
    let per_rank = r.unwrap_all();
    let resumed = per_rank.iter().map(|x| x.0).max().unwrap_or(0);
    let collectives = per_rank.iter().map(|x| x.1).max().unwrap_or(0);
    (makespan, resumed, collectives, failures)
}

/// One simulator LFLR job with a scheduled failure. Returns `(makespan,
/// max resumed_from, failures seen)`.
fn lflr_simulated(
    ranks: usize,
    nx: usize,
    lflr: KrylovLflrConfig,
    fail_at: Option<f64>,
) -> (f64, usize, usize) {
    let mut cfg = sim_config();
    cfg.checkpoint_seconds_per_byte = CHECKPOINT_SECONDS_PER_BYTE;
    cfg.replacement_cost = REPLACEMENT_COST;
    if let Some(t) = fail_at {
        cfg = cfg.with_failures(FailureConfig::scheduled(
            FailurePolicy::ReplaceRank,
            vec![(ranks / 2, t)],
        ));
    }
    let rt = Runtime::new(cfg);
    let r = rt.run(ranks, move |comm| {
        let (out, report) =
            lflr_pipelined_pcg(comm, &poisson2d(nx, nx), &lflr_rhs(nx), &lflr_opts(), &lflr)?;
        assert!(out.converged, "simulated LFLR solve must converge");
        Ok(report.resumed_from)
    });
    assert!(r.all_ok(), "simulated LFLR: {:?}", r.errors);
    let failures = r.failures.len();
    let makespan = r.job.makespan;
    let resumed = r.unwrap_all().into_iter().max().unwrap_or(0);
    (makespan, resumed, failures)
}

const CHECKPOINT_SECONDS_PER_BYTE: f64 = 2.0e-8;
const REPLACEMENT_COST: f64 = 0.05;

fn lflr_rhs(nx: usize) -> Vec<f64> {
    (0..nx * nx).map(|i| 1.0 + (i % 5) as f64).collect()
}

fn lflr_opts() -> SolveOptions {
    let mut o = SolveOptions::default()
        .with_tol(1e-8)
        .with_max_iters(1000)
        .with_restart(10);
    o.extra_work_per_iter = 2.0e-3;
    o
}

// -------------------------------------------------------------------- sdc

/// `(converged, iterations, detections, restarts)` for the
/// pipelined skeptical GMRES under one injected bit flip.
fn sdc_body<C: CommBackend>(
    comm: &mut C,
    nx: usize,
    opts: SolveOptions,
    fault: SpmvFault,
) -> Result<(bool, usize, usize, usize)> {
    let a = poisson2d(nx, nx);
    let n = a.nrows();
    let da = DistCsr::from_global(comm, &a)?;
    let b = DistVector::from_fn(comm, n, |i| 1.0 + (i % 3) as f64);
    let (out, report) = pipelined_skeptical(
        comm,
        &da,
        &b,
        Method::Gmres,
        None,
        &opts,
        &SkepticalConfig::default(),
        Some(fault),
    )?;
    Ok((
        out.converged,
        out.iterations,
        report.skeptical.detections,
        report.skeptical.restarts,
    ))
}

fn sdc_scenario(ranks: usize, nx: usize, threaded: bool) -> (bool, usize, usize, usize) {
    let opts = SolveOptions::default()
        .with_tol(1e-7)
        .with_max_iters(300)
        .with_restart(30);
    let fault = SpmvFault {
        rank: ranks - 1,
        at_application: 5,
        local_element: 2,
        bit: 62,
    };
    let per_rank = if threaded {
        let rt = ThreadRuntime::new(ThreadConfig::fast());
        rt.run(ranks, move |comm| sdc_body(comm, nx, opts, fault))
            .unwrap_all()
    } else {
        let rt = Runtime::new(RuntimeConfig::fast().with_seed(29));
        rt.run(ranks, move |comm| sdc_body(comm, nx, opts, fault))
            .unwrap_all()
    };
    for obs in &per_rank {
        assert_eq!(
            obs, &per_rank[0],
            "every rank must observe the same SDC outcome"
        );
    }
    per_rank[0]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let ranks = 4usize;
    let (lat_nx, lflr_nx, sdc_nx) = if smoke { (12, 12, 10) } else { (20, 20, 16) };

    let mut table = Table::new(
        "B1: virtual-time predictions vs wall-clock measurements (threaded backend), 4 ranks",
        &["scenario", "quantity", "simulator", "threads", "thr/sim"],
    );

    // --- latency: pipelined speedup, predicted vs measured. -------------
    let (sim_block, sim_pipe, predicted) = latency_scenario(ranks, lat_nx, false);
    let (thr_block, thr_pipe, measured) = latency_scenario(ranks, lat_nx, true);
    table.row(vec![
        "latency".into(),
        "blocking BJ-PCG (s)".into(),
        fmt_g(sim_block),
        fmt_g(thr_block),
        fmt_ratio(thr_block / sim_block.max(1e-12)),
    ]);
    table.row(vec![
        "latency".into(),
        "pipelined BJ-PCG (s)".into(),
        fmt_g(sim_pipe),
        fmt_g(thr_pipe),
        fmt_ratio(thr_pipe / sim_pipe.max(1e-12)),
    ]);
    table.row(vec![
        "latency".into(),
        "pipelined speedup".into(),
        fmt_ratio(predicted),
        fmt_ratio(measured),
        fmt_ratio(measured / predicted),
    ]);
    assert!(
        predicted > 1.0 && measured > 1.0,
        "latency hiding must pay on both backends (predicted {predicted:.2}, measured {measured:.2})"
    );
    assert!(
        (0.5..=2.0).contains(&(measured / predicted)),
        "measured pipelined speedup ({measured:.2}x) must be within 2x of the virtual-time \
         prediction ({predicted:.2}x)"
    );

    // --- LFLR: resume-vs-restart speedup, predicted vs measured. --------
    let lflr = KrylovLflrConfig::default().with_persist_every(3);
    let (sim_clean, _, f0) = lflr_simulated(ranks, lflr_nx, lflr, None);
    assert_eq!(f0, 0);
    let fail_at = 0.6 * sim_clean;
    let (sim_resume, sim_resumed, f1) = lflr_simulated(ranks, lflr_nx, lflr, Some(fail_at));
    let (sim_restart, _, f2) =
        lflr_simulated(ranks, lflr_nx, lflr.restart_from_zero(), Some(fail_at));
    assert_eq!((f1, f2), (1, 1), "the simulated failure must be injected");
    assert!(
        sim_resumed > 0,
        "the simulated recovery must resume mid-stream"
    );
    let lflr_predicted = sim_restart / sim_resume.max(1e-12);

    let (thr_clean, _, clean_collectives, t0) = lflr_threaded(ranks, lflr_nx, lflr, None);
    assert_eq!(t0, 0);
    let kill_at = (6 * clean_collectives) / 10;
    let (thr_resume, thr_resumed, _, t1) = lflr_threaded(ranks, lflr_nx, lflr, Some(kill_at));
    let (thr_restart, _, _, t2) =
        lflr_threaded(ranks, lflr_nx, lflr.restart_from_zero(), Some(kill_at));
    assert_eq!((t1, t2), (1, 1), "the threaded panic must be injected");
    assert!(
        thr_resumed > 0,
        "the threaded recovery must resume mid-stream"
    );
    let lflr_measured = thr_restart / thr_resume.max(1e-12);

    table.row(vec![
        "lflr".into(),
        "clean solve (s)".into(),
        fmt_g(sim_clean),
        fmt_g(thr_clean),
        fmt_ratio(thr_clean / sim_clean.max(1e-12)),
    ]);
    table.row(vec![
        "lflr".into(),
        "resume after death (s)".into(),
        fmt_g(sim_resume),
        fmt_g(thr_resume),
        fmt_ratio(thr_resume / sim_resume.max(1e-12)),
    ]);
    table.row(vec![
        "lflr".into(),
        "restart-from-zero (s)".into(),
        fmt_g(sim_restart),
        fmt_g(thr_restart),
        fmt_ratio(thr_restart / sim_restart.max(1e-12)),
    ]);
    table.row(vec![
        "lflr".into(),
        "resume speedup".into(),
        fmt_ratio(lflr_predicted),
        fmt_ratio(lflr_measured),
        fmt_ratio(lflr_measured / lflr_predicted),
    ]);
    assert!(
        lflr_predicted > 1.0 && lflr_measured > 1.0,
        "mid-solve resume must beat restart-from-zero on both backends \
         (predicted {lflr_predicted:.2}, measured {lflr_measured:.2})"
    );
    assert!(
        (0.5..=2.0).contains(&(lflr_measured / lflr_predicted)),
        "measured resume speedup ({lflr_measured:.2}x) must be within 2x of the virtual-time \
         prediction ({lflr_predicted:.2}x)"
    );

    // --- SDC: detection outcome must agree exactly. ----------------------
    let sim_sdc = sdc_scenario(ranks, sdc_nx, false);
    let thr_sdc = sdc_scenario(ranks, sdc_nx, true);
    for (label, sim, thr) in [
        ("iterations", sim_sdc.1, thr_sdc.1),
        ("detections", sim_sdc.2, thr_sdc.2),
        ("corrective restarts", sim_sdc.3, thr_sdc.3),
    ] {
        table.row(vec![
            "sdc".into(),
            label.into(),
            sim.to_string(),
            thr.to_string(),
            "=".into(),
        ]);
    }
    assert_eq!(
        sim_sdc, thr_sdc,
        "the two backends share the reduction fold, so the bit-flip detection story must be \
         identical: {sim_sdc:?} vs {thr_sdc:?}"
    );
    assert!(sim_sdc.2 >= 1, "the injected flip must be detected");

    table.emit("b1_backend_parity");
    println!(
        "\nwall-clock measurements on the real-threads backend confirm the virtual-time \
         predictions: pipelined speedup {measured:.2}x (predicted {predicted:.2}x), \
         LFLR resume speedup {lflr_measured:.2}x (predicted {lflr_predicted:.2}x), \
         SDC outcome identical."
    );
}
