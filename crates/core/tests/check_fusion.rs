//! Regression and property tests for the wants-dots check fusion.
//!
//! The point of the negotiation is Heroux's (and Agullo et al.'s) rule that
//! detection must stay off the critical path: skeptical SDC checks may not
//! add collectives to a pipelined solver. These tests pin that down three
//! ways:
//!
//! 1. **Collective counts** — pipelined skeptical GMRES posts exactly *one*
//!    reduction per iteration with fusion (down from four: the strategy's
//!    own plus ‖w‖, ‖v‖ and the basis-pair dot), and pipelined skeptical CG
//!    exactly one (down from three).
//! 2. **Decision/iterate parity** — on fault-free solves, fused and legacy
//!    unfused checking produce bit-identical iterates and identical
//!    (zero-detection) decisions across 1–8 ranks.
//! 3. **Latency** — under a latency-dominated cost model the fused solve is
//!    strictly faster in virtual time than the unfused one.
//!
//! Plus the fault-targeting satellite: a planned [`SpmvFault`] is pinned to
//! its launch-time world rank, so shrink-recovery renumbering cannot move
//! the strike to a different physical process.

use resilience::kernel::{
    run_cg, run_gmres, CgsOrtho, FusedCgStep, GmresFlavor, KernelOutcome, MgsOrtho,
};
use resilience::prelude::*;
use resilient_linalg::poisson2d;
use resilient_runtime::{
    Comm, FailureConfig, FailurePolicy, LatencyModel, ReduceOp, Runtime, RuntimeConfig,
};

/// Options that never converge (so iteration counts are exactly
/// `max_iters`) and never trigger the priced residual probe.
fn pinned_opts(max_iters: usize) -> DistSolveOptions {
    DistSolveOptions::default()
        .with_tol(1e-30)
        .with_max_iters(max_iters)
        .with_restart(30)
}

fn no_probe(cfg: SkepticalConfig) -> SkepticalConfig {
    SkepticalConfig {
        residual_check_interval: 0,
        ..cfg
    }
}

/// Allreduces and iterations of one pipelined skeptical GMRES run on
/// 4 ranks (rank 0's view; collective counts are symmetric).
fn gmres_collectives(cfg: SkepticalConfig, max_iters: usize) -> (u64, usize) {
    let rt = Runtime::new(RuntimeConfig::fast());
    let rows = rt
        .run(4, move |comm| {
            let a = poisson2d(8, 8);
            let da = DistCsr::from_global(comm, &a)?;
            let b = DistVector::from_fn(comm, a.nrows(), |i| 1.0 + (i % 3) as f64);
            let before = comm.snapshot_stats().collectives;
            let (out, _report) =
                pipelined_skeptical_gmres(comm, &da, &b, &pinned_opts(max_iters), &cfg, None)?;
            let after = comm.snapshot_stats().collectives;
            Ok((after - before, out.iterations))
        })
        .unwrap_all();
    rows[0]
}

/// Allreduces and iterations of one pipelined skeptical CG run on 4 ranks.
fn cg_collectives(cfg: SkepticalConfig, max_iters: usize) -> (u64, usize) {
    let rt = Runtime::new(RuntimeConfig::fast());
    let rows = rt
        .run(4, move |comm| {
            let a = poisson2d(8, 8);
            let da = DistCsr::from_global(comm, &a)?;
            let b = DistVector::from_fn(comm, a.nrows(), |i| 1.0 + (i % 3) as f64);
            let before = comm.snapshot_stats().collectives;
            let (out, _report) =
                pipelined_skeptical_cg(comm, &da, &b, &pinned_opts(max_iters), &cfg, None)?;
            let after = comm.snapshot_stats().collectives;
            Ok((after - before, out.iterations))
        })
        .unwrap_all();
    rows[0]
}

/// The headline regression: with fusion, each additional pipelined
/// skeptical GMRES iteration costs exactly **one** allreduce (the
/// strategy's own, now carrying the check dots); unfused, each costs four.
#[test]
fn pipelined_skeptical_gmres_posts_one_reduction_per_iteration() {
    let fused = no_probe(SkepticalConfig::default());
    let (c_short, i_short) = gmres_collectives(fused, 5);
    let (c_long, i_long) = gmres_collectives(fused, 12);
    assert_eq!(
        (i_short, i_long),
        (5, 12),
        "runs must hit the iteration cap"
    );
    assert_eq!(
        c_long - c_short,
        (i_long - i_short) as u64,
        "fused: one allreduce per additional iteration"
    );

    let unfused = no_probe(SkepticalConfig::default().unfused());
    let (c_short, i_short) = gmres_collectives(unfused, 5);
    let (c_long, i_long) = gmres_collectives(unfused, 12);
    assert_eq!((i_short, i_long), (5, 12));
    assert_eq!(
        c_long - c_short,
        4 * (i_long - i_short) as u64,
        "unfused legacy schedule: strategy + ‖w‖ + ‖v‖ + basis-pair dot"
    );
}

/// Same pin for the new composition: pipelined skeptical CG's single fused
/// reduction carries the checks (unfused it posts two extra norms).
#[test]
fn pipelined_skeptical_cg_posts_one_reduction_per_iteration() {
    let fused = no_probe(SkepticalConfig::default());
    let (c_short, i_short) = cg_collectives(fused, 5);
    let (c_long, i_long) = cg_collectives(fused, 12);
    assert_eq!(
        (i_short, i_long),
        (5, 12),
        "runs must hit the iteration cap"
    );
    assert_eq!(
        c_long - c_short,
        (i_long - i_short) as u64,
        "fused: one allreduce per additional iteration"
    );

    let unfused = no_probe(SkepticalConfig::default().unfused());
    let (c_short, i_short) = cg_collectives(unfused, 5);
    let (c_long, i_long) = cg_collectives(unfused, 12);
    assert_eq!((i_short, i_long), (5, 12));
    assert_eq!(
        c_long - c_short,
        3 * (i_long - i_short) as u64,
        "unfused legacy schedule: strategy + ‖w‖ + ‖v‖"
    );
}

/// Fused and legacy unfused checking must reach bit-identical iterates and
/// identical detection decisions on fault-free solves, at every rank count:
/// the check tail of a fused reduction may not perturb the solver's own
/// scalars, and the derived check quantities may not false-positive.
#[test]
fn fused_and_unfused_agree_bitwise_on_clean_solves() {
    for ranks in [1usize, 2, 3, 5, 8] {
        let rt = Runtime::new(RuntimeConfig::fast());
        let rows = rt
            .run(ranks, move |comm| {
                let a = poisson2d(9, 9);
                let da = DistCsr::from_global(comm, &a)?;
                let b = DistVector::from_fn(comm, a.nrows(), |i| 1.0 + (i % 2) as f64);
                let opts = DistSolveOptions::default()
                    .with_tol(1e-8)
                    .with_max_iters(400)
                    .with_restart(30);
                let (g_f, rg_f) = pipelined_skeptical_gmres(
                    comm,
                    &da,
                    &b,
                    &opts,
                    &SkepticalConfig::default(),
                    None,
                )?;
                let (g_u, rg_u) = pipelined_skeptical_gmres(
                    comm,
                    &da,
                    &b,
                    &opts,
                    &SkepticalConfig::default().unfused(),
                    None,
                )?;
                let (c_f, rc_f) = pipelined_skeptical_cg(
                    comm,
                    &da,
                    &b,
                    &opts,
                    &SkepticalConfig::default(),
                    None,
                )?;
                let (c_u, rc_u) = pipelined_skeptical_cg(
                    comm,
                    &da,
                    &b,
                    &opts,
                    &SkepticalConfig::default().unfused(),
                    None,
                )?;
                Ok((
                    g_f.x.gather_global(comm)?,
                    g_u.x.gather_global(comm)?,
                    (g_f.iterations, g_u.iterations),
                    (rg_f.skeptical.detections, rg_u.skeptical.detections),
                    c_f.x.gather_global(comm)?,
                    c_u.x.gather_global(comm)?,
                    (c_f.iterations, c_u.iterations),
                    (rc_f.skeptical.detections, rc_u.skeptical.detections),
                ))
            })
            .unwrap_all();
        for (gx_f, gx_u, g_iters, g_det, cx_f, cx_u, c_iters, c_det) in rows {
            assert_eq!(g_det, (0, 0), "{ranks} ranks: clean GMRES must not detect");
            assert_eq!(c_det, (0, 0), "{ranks} ranks: clean CG must not detect");
            assert_eq!(g_iters.0, g_iters.1, "{ranks} ranks: GMRES iterations");
            assert_eq!(c_iters.0, c_iters.1, "{ranks} ranks: CG iterations");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&gx_f), bits(&gx_u), "{ranks} ranks: GMRES iterate");
            assert_eq!(bits(&cx_f), bits(&cx_u), "{ranks} ranks: CG iterate");
        }
    }
}

/// Under a latency-dominated cost model the fused schedule must be strictly
/// faster: the unfused checks re-serialize the pipelined recurrence with
/// blocking allreduces, which is the trade-off the negotiation removes.
#[test]
fn fusion_hides_check_latency() {
    let mut cfg = RuntimeConfig::fast();
    cfg.latency = LatencyModel {
        alpha: 2.0e-4,
        beta: 0.0,
        gamma: 0.0,
    };
    cfg.seconds_per_flop = 1.0e-9;
    let rt = Runtime::new(cfg);
    let rows = rt
        .run(8, move |comm| {
            let a = poisson2d(16, 16);
            let da = DistCsr::from_global(comm, &a)?;
            let b = DistVector::from_fn(comm, a.nrows(), |i| (i as f64 * 0.1).cos());
            let opts = DistSolveOptions::default()
                .with_tol(1e-7)
                .with_max_iters(400)
                .with_restart(30);
            let t0 = comm.now();
            let (out_f, _) =
                pipelined_skeptical_gmres(comm, &da, &b, &opts, &SkepticalConfig::default(), None)?;
            let t1 = comm.now();
            let (out_u, _) = pipelined_skeptical_gmres(
                comm,
                &da,
                &b,
                &opts,
                &SkepticalConfig::default().unfused(),
                None,
            )?;
            let t2 = comm.now();
            assert!(out_f.converged && out_u.converged);
            let tc0 = comm.now();
            let (cg_f, _) =
                pipelined_skeptical_cg(comm, &da, &b, &opts, &SkepticalConfig::default(), None)?;
            let tc1 = comm.now();
            let (cg_u, _) = pipelined_skeptical_cg(
                comm,
                &da,
                &b,
                &opts,
                &SkepticalConfig::default().unfused(),
                None,
            )?;
            let tc2 = comm.now();
            assert!(cg_f.converged && cg_u.converged);
            Ok((t1 - t0, t2 - t1, tc1 - tc0, tc2 - tc1))
        })
        .unwrap_all();
    for (gmres_fused, gmres_unfused, cg_fused, cg_unfused) in rows {
        assert!(
            gmres_fused < gmres_unfused,
            "fused skeptical GMRES must hide check latency: fused={gmres_fused}, unfused={gmres_unfused}"
        );
        assert!(
            cg_fused < cg_unfused,
            "fused skeptical CG must hide check latency: fused={cg_fused}, unfused={cg_unfused}"
        );
    }
}

// ---------------------------------------------------------------------------
// ABFT Σw fusion (policy-supplied check pairs)
// ---------------------------------------------------------------------------

/// A flip of bit 61 in element `element` of product `at` on the one rank.
fn flip(at: usize, element: usize) -> SpmvFault {
    SpmvFault {
        rank: 0,
        at_application: at,
        local_element: element,
        bit: 61,
    }
}

/// Run 1-rank CGS-GMRES (a fused-reduction strategy) over `a`, its products
/// struck by `fault`, with an ABFT policy encoding `a`; returns (outcome,
/// flips injected, detections, fused decisions, direct checks = checks −
/// fused).
fn abft_cgs_gmres(
    a: &resilient_linalg::CsrMatrix,
    fault: Option<SpmvFault>,
    fused: bool,
) -> (KernelOutcome<DistVector>, usize, usize, usize, usize) {
    let mut abft = AbftSpmvPolicy::for_matrix(a, 1e-9);
    if !fused {
        abft = abft.unfused();
    }
    let mut comm = Comm::solo(&RuntimeConfig::fast());
    let da = DistCsr::from_global(&mut comm, a).unwrap();
    let b = DistVector::from_fn(&comm, a.nrows(), |_| 1.0);
    let mut space = DistSpace::new(&mut comm, &da);
    if let Some(f) = fault {
        space = space.with_fault(f);
    }
    let mut stack = PolicyStack::new(vec![&mut abft]);
    let (out, _report) = run_gmres(
        &mut space,
        &b,
        None,
        &SolveOptions::default().with_tol(1e-8).with_max_iters(300),
        &mut CgsOrtho::new(),
        &mut stack,
        None,
        &GmresFlavor::distributed(),
    )
    .unwrap();
    drop(stack);
    let checks = abft.checks_run();
    (
        out,
        space.injections(),
        abft.detections(),
        abft.fused_decisions(),
        checks - abft.fused_decisions(),
    )
}

/// On a fused-reduction strategy the ABFT Σw check rides the strategy's own
/// reduction (both checksum sides are policy-supplied pairs); the fused
/// decision must catch an injected flip exactly like the direct path, and
/// clean runs must agree decision-for-decision.
#[test]
fn abft_check_rides_the_fused_reduction_on_cgs_gmres() {
    let a = poisson2d(8, 8);
    // Clean run: every check decided from fused scalars, zero detections.
    let (out, _, detections, fused_decisions, direct) = abft_cgs_gmres(&a, None, true);
    assert_eq!(out.reason, StopReason::Converged);
    assert_eq!(detections, 0, "clean run must not false-positive");
    assert!(fused_decisions > 0, "checks must ride the fused reduction");
    assert_eq!(direct, 0, "no direct reductions on a fusing strategy");

    // Direct (unfused) comparison run: same convergence, zero detections,
    // all checks on the legacy path.
    let (out_u, _, det_u, fused_u, direct_u) = abft_cgs_gmres(&a, None, false);
    assert_eq!(out_u.reason, StopReason::Converged);
    assert_eq!(det_u, 0);
    assert_eq!(fused_u, 0, "unfused() must decline the negotiation");
    assert!(direct_u > 0);
    assert_eq!(out.iterations, out_u.iterations);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&out.x.local),
        bits(&out_u.x.local),
        "fused/unfused iterate parity"
    );

    // Faulty run: a high-exponent flip in one product must be detected
    // through the fused scalars and survived.
    let (out_f, injected, det_f, fused_f, _) = abft_cgs_gmres(&a, Some(flip(3, 10)), true);
    assert_eq!(injected, 1, "fault must have been injected");
    assert!(det_f >= 1, "fused ABFT must catch the flip");
    assert!(fused_f > 0);
    assert_eq!(
        out_f.reason,
        StopReason::Converged,
        "solve must survive: {:?}",
        out_f.reason
    );
}

/// The same fusion over the CG family: 1-rank `FusedCgStep` carries the
/// ABFT pairs in its `p·Ap` reduction, detection triggers the kernel's
/// recurrence rebuild, and the solve survives.
#[test]
fn abft_check_rides_the_fused_cg_reduction() {
    let a = poisson2d(8, 8);
    let mut abft = AbftSpmvPolicy::for_matrix(&a, 1e-9);
    let mut comm = Comm::solo(&RuntimeConfig::fast());
    let da = DistCsr::from_global(&mut comm, &a).unwrap();
    let b = DistVector::from_fn(&comm, a.nrows(), |_| 1.0);
    let mut space = DistSpace::new(&mut comm, &da).with_fault(flip(4, 5));
    let mut stack = PolicyStack::new(vec![&mut abft]);
    let (out, report) = run_cg(
        &mut space,
        &b,
        None,
        &SolveOptions::default().with_tol(1e-9).with_max_iters(400),
        &mut FusedCgStep::new(),
        &mut stack,
    )
    .unwrap();
    drop(stack);
    assert_eq!(space.injections(), 1);
    assert!(abft.detections() >= 1, "fused ABFT must catch the flip");
    assert!(abft.fused_decisions() > 0);
    assert!(report.policy_restarts >= 1, "detection must rebuild");
    assert_eq!(out.reason, StopReason::Converged);
}

/// Immediate-dot strategies never negotiate: with MGS the policy must stay
/// on the direct path even though fusion is enabled.
#[test]
fn abft_keeps_direct_path_on_immediate_dot_strategies() {
    let a = poisson2d(7, 7);
    let mut abft = AbftSpmvPolicy::for_matrix(&a, 1e-9);
    let mut comm = Comm::solo(&RuntimeConfig::fast());
    let da = DistCsr::from_global(&mut comm, &a).unwrap();
    let b = DistVector::from_fn(&comm, a.nrows(), |_| 1.0);
    let mut space = DistSpace::new(&mut comm, &da);
    let mut stack = PolicyStack::new(vec![&mut abft]);
    let (out, _report) = run_gmres(
        &mut space,
        &b,
        None,
        &SolveOptions::default().with_tol(1e-8).with_max_iters(300),
        &mut MgsOrtho::new(),
        &mut stack,
        None,
        &GmresFlavor::distributed(),
    )
    .unwrap();
    drop(stack);
    assert_eq!(out.reason, StopReason::Converged);
    assert_eq!(abft.detections(), 0);
    assert_eq!(
        abft.fused_decisions(),
        0,
        "MGS has no fused reduction to ride"
    );
    assert!(abft.checks_run() > 0, "direct checks must run");
}

/// Satellite regression: a planned SpMV fault targets the launch-time
/// *world* rank. After a shrink recovery renumbers the communicator, the
/// strike must stay on the planned physical process — not drift to
/// whichever survivor inherited the communicator rank number.
#[test]
fn spmv_fault_stays_pinned_after_shrink() {
    let cfg = RuntimeConfig::fast().with_failures(FailureConfig::scheduled(
        FailurePolicy::Shrink,
        vec![(1, 0.25)],
    ));
    let rt = Runtime::new(cfg);
    let r = rt.run(4, |comm| {
        // Ride collectives until the failure of world rank 1 surfaces, then
        // shrink: survivors are world ranks {0, 2, 3} renumbered to {0, 1, 2}.
        let mut shrunk = false;
        for _ in 0..6 {
            comm.advance(0.1);
            match comm.allreduce_scalar(ReduceOp::Sum, 1.0) {
                Ok(_) => {}
                Err(e) if e.is_failure() => {
                    comm.shrink()?;
                    shrunk = true;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        assert!(shrunk, "survivors must observe the failure");
        assert_eq!(comm.size(), 3);

        // A fault planned pre-failure for (world) rank 2. Under communicator
        // -rank matching it would now strike world rank 3 (renumbered to 2).
        let a = poisson2d(6, 6);
        let da = DistCsr::from_global(comm, &a)?;
        let v = DistVector::from_fn(comm, a.nrows(), |i| 1.0 + i as f64 * 0.01);
        let injections = {
            let mut space = DistSpace::new(comm, &da).with_fault(SpmvFault {
                rank: 2,
                at_application: 0,
                local_element: 0,
                bit: 62,
            });
            let _ = space.apply(&v)?;
            space.injections()
        };
        Ok((comm.world_rank(), comm.rank(), injections))
    });
    assert!(r.results[1].is_none(), "world rank 1 died");
    let survivors: Vec<_> = r.results.iter().flatten().collect();
    assert_eq!(survivors.len(), 3);
    let total: usize = survivors.iter().map(|(_, _, inj)| inj).sum();
    assert_eq!(total, 1, "the strike must land exactly once");
    for (world, comm_rank, injections) in survivors {
        if *injections > 0 {
            assert_eq!(*world, 2, "the strike must stay on world rank 2");
            assert_eq!(*comm_rank, 1, "world rank 2 was renumbered to 1");
        }
        if *comm_rank == 2 {
            assert_eq!(
                *injections, 0,
                "the renumbered rank 2 (world rank 3) must not inherit the strike"
            );
        }
    }
}
