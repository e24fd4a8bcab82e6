//! Minimized, deterministic regression corpus for the fault campaign.
//!
//! Every test here pins one contract violation (or near-violation
//! boundary) found while developing the campaign, shrunk to a
//! single-event schedule via [`FaultSchedule::minimize`]'s greedy
//! drop-one-event loop or isolated by hand, with a comment naming the bug
//! it guards. The vendored proptest has no shrinking, so this file *is*
//! the regression store the upstream `proptest-regressions` directory
//! would otherwise hold.

use resilience::prelude::*;
use resilient_faults::campaign::{FaultFamily, FaultSchedule, Strike};
use resilient_linalg::poisson2d;
use resilient_runtime::{Runtime, RuntimeConfig};

/// A hand-pinned single-event schedule.
fn pinned(family: FaultFamily, spmv: Vec<Strike>, precond: Vec<Strike>) -> FaultSchedule {
    FaultSchedule {
        family,
        seed: 0,
        spmv,
        precond,
        deaths: Vec::new(),
    }
}

/// Bug: distributed pipelined GMRES claimed convergence at cycle end on
/// the zz-recurrence estimate, which can collapse to zero through
/// roundoff while the iterate is nowhere near convergence. Found
/// *fault-free* by the campaign's clean-baseline oracle at exactly this
/// geometry (3 ranks, poisson2d(8,8), b = 1 + i mod 3, tol 1e-8, restart
/// 30): the pre-fix solver reported convergence after 16 iterations with
/// recurrence residual 0.0 and true relative residual 1.27. The fix makes
/// the cycle-end claim pay for a charged true-residual verification
/// before reporting success.
#[test]
fn pipelined_gmres_cycle_end_claim_is_verified() {
    let cfg = CampaignConfig::default();
    let a = poisson2d(cfg.nx, cfg.nx);
    let b = cfg.rhs();
    let opts = cfg.solve_opts();
    let rt = Runtime::new(RuntimeConfig::fast().with_seed(3));
    let job = rt.run(cfg.ranks, move |comm| {
        let da = DistCsr::from_global(comm, &a)?;
        let db = DistVector::from_global(comm, &b);
        let out = solve_dist(comm, &da, &db, SolveSpec::PIPELINED_GMRES, None, &opts)?;
        let x = out.x.gather_global(comm)?;
        Ok((out.converged, out.iterations, x))
    });
    assert!(job.all_ok(), "run errored: {:?}", job.errors);
    let (converged, iterations, x) = &job.unwrap_all()[0];
    let a = poisson2d(cfg.nx, cfg.nx);
    let b = cfg.rhs();
    let relres = true_relative_residual(&a, &b, x);
    assert!(converged, "pipelined GMRES must actually converge here");
    assert!(
        relres <= cfg.accept_tol(),
        "claimed convergence must survive independent verification \
         (true relres {relres:.3e} after {iterations} iterations)"
    );
    // The pre-fix false claim fired at iteration 16; the honest solve
    // needs more work than that.
    assert!(
        *iterations > 16,
        "suspiciously early convergence ({iterations} iterations) — \
         the cycle-end recurrence claim may have gone unverified again"
    );
}

/// Threat model pinned: CG's residual recurrence silently detaches from
/// the true residual after a single mid-solve SpMV bit flip (the classic
/// Krylov silent-data-corruption mode). The solver confidently claims
/// convergence; the campaign's charged verification refutes the claim and
/// classifies it as detected-by-verification — never as success. This is
/// the exact schedule the diversity voter's outvoting demo poisons a
/// member with.
#[test]
fn fused_cg_silent_wrong_answer_is_refuted_by_verification() {
    let cfg = CampaignConfig::default();
    let schedule = pinned(
        FaultFamily::CorrelatedSpmvFlips,
        vec![Strike {
            rank: 0,
            incarnation: 0,
            at: 8,
            element: 2,
            bit: 50,
        }],
        vec![],
    );
    let preset = CampaignPreset::new(SolveSpec::FUSED_CG, false);
    let base = clean_baseline(schedule.family, 0, preset, &cfg).unwrap();
    let report = run_schedule(&schedule, preset, &cfg, &base).unwrap();
    assert_eq!(report.outcome, CaseOutcome::DetectedByVerification);
    assert_eq!(report.injections, 1, "the strike must land exactly once");
    assert!(
        report.true_relres > cfg.accept_tol(),
        "the claim must actually be wrong (true relres {:.3e})",
        report.true_relres
    );
}

/// Satellite fix pinned: `BlockJacobi::apply_into` was previously
/// unguarded — a high-exponent flip in its output slice (bit 62 turns an
/// O(1) entry into an O(1e300) one) reached the Krylov recurrences
/// unchecked. Unguarded, the energy inner products degenerate and the
/// solve dies with an honest breakdown after wasting the run. With the
/// `PrecondGuardPolicy` stacked on the `after_precond` hook, the
/// amplification is caught by the zz-vs-rr consistency collective and the
/// restart response recovers the solve to verified convergence.
#[test]
fn precond_amplification_unguarded_breaks_down_guarded_recovers() {
    let schedule = pinned(
        FaultFamily::PrecondFlips,
        vec![],
        vec![Strike {
            rank: 1,
            incarnation: 0,
            at: 6,
            element: 1,
            bit: 62,
        }],
    );

    let preset = CampaignPreset::new(SolveSpec::FUSED_CG, true);
    let unguarded = CampaignConfig::default();
    let base = clean_baseline(schedule.family, 0, preset, &unguarded).unwrap();
    let report = run_schedule(&schedule, preset, &unguarded, &base).unwrap();
    assert_eq!(report.injections, 1);
    assert_eq!(
        report.outcome,
        CaseOutcome::HonestFailure(StopReason::Breakdown),
        "unguarded amplification must at least fail honestly"
    );

    let guarded = CampaignConfig::default().with_guard(true);
    let base = clean_baseline(schedule.family, 0, preset, &guarded).unwrap();
    let report = run_schedule(&schedule, preset, &guarded, &base).unwrap();
    assert_eq!(report.injections, 1);
    assert_eq!(
        report.outcome,
        CaseOutcome::ConvergedVerified,
        "the guard must recover the solve (got {:?}, true relres {:.3e})",
        report.outcome,
        report.true_relres
    );
    assert!(
        report.detections >= 1,
        "the guard must report the detection it acted on"
    );
}

/// Detector boundary pinned: a flip that *clears* a set exponent bit
/// (bit 55 on an O(1) entry) shrinks the preconditioned residual toward
/// zero instead of amplifying it. The zz-vs-rr amplification guard cannot
/// see a shrink, so both guarded and unguarded runs stall to the honest
/// iteration cap at a residual just outside the acceptance band — the
/// oracle holds, and this test documents where the guard's coverage ends.
#[test]
fn precond_shrink_flip_stalls_honestly_past_the_guard() {
    let schedule = pinned(
        FaultFamily::PrecondFlips,
        vec![],
        vec![Strike {
            rank: 1,
            incarnation: 0,
            at: 6,
            element: 1,
            bit: 55,
        }],
    );
    let preset = CampaignPreset::new(SolveSpec::FUSED_CG, true);
    for guard in [false, true] {
        let cfg = CampaignConfig::default().with_guard(guard);
        let base = clean_baseline(schedule.family, 0, preset, &cfg).unwrap();
        let report = run_schedule(&schedule, preset, &cfg, &base).unwrap();
        assert_eq!(report.injections, 1);
        assert_eq!(
            report.outcome,
            CaseOutcome::HonestFailure(StopReason::MaxIterations),
            "guard={guard}: shrink flips stall honestly (got {:?})",
            report.outcome
        );
    }
}

/// Bug: a rank dying *while the LFLR recovery rendezvous for an earlier
/// death was still in flight* (found by the campaign's rendezvous-death
/// family at `family=rendezvous-death seed=6 preset=fused-pcg`: two
/// deaths 0.3% of the clean makespan apart) made `rejoin` propagate the
/// rendezvous' own `Revoked` interruption as a terminal error. The
/// interrupted rank abandoned the job while its peers blocked forever in
/// a three-party collective — an intermittent real-time deadlock in
/// roughly half of all runs pre-fix. The fix retries the rendezvous for
/// the newer failure generation. Because the deadlock depends on thread
/// interleaving, the pin replays the found schedule several times under a
/// wall-clock watchdog and fails loudly instead of hanging the suite.
#[test]
fn overlapping_death_during_rendezvous_must_not_deadlock() {
    for round in 0..5 {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let cfg = CampaignConfig::default();
            let family = FaultFamily::RendezvousDeath;
            let preset = CampaignPreset::new(SolveSpec::FUSED_CG, true);
            let base = clean_baseline(family, 6, preset, &cfg).unwrap();
            let schedule = FaultSchedule::generate(family, 6, &base.params);
            let _ = tx.send(run_schedule(&schedule, preset, &cfg, &base));
        });
        match rx.recv_timeout(std::time::Duration::from_secs(120)) {
            Ok(Ok(report)) => {
                assert!(report.recoveries >= 1, "the deaths must actually land");
            }
            Ok(Err(violation)) => panic!("{violation}"),
            Err(_) => panic!(
                "deadlock (round {round}): a death during the recovery \
                 rendezvous left the job stuck — the rejoin retry loop is \
                 broken again"
            ),
        }
    }
}

/// Satellite compatibility pinned: a strike dropped by the greedy
/// minimizer must leave the remaining schedule's behaviour unchanged —
/// minimizing the refuted-claim schedule above down to zero events yields
/// the empty schedule, and the empty schedule converges verified on every
/// preset (i.e. the harness itself injects nothing).
#[test]
fn minimized_empty_schedule_is_fault_free() {
    let cfg = CampaignConfig::default();
    let schedule = pinned(FaultFamily::CorrelatedSpmvFlips, vec![], vec![]);
    assert!(schedule.is_empty());
    for preset in CampaignPreset::ALL {
        let base = clean_baseline(schedule.family, 0, preset, &cfg).unwrap();
        let report = run_schedule(&schedule, preset, &cfg, &base).unwrap();
        assert_eq!(
            report.outcome,
            CaseOutcome::ConvergedVerified,
            "{}: empty schedule must be a clean run",
            preset.name()
        );
        assert_eq!(report.injections, 0);
    }
}
