//! The adversarial fault campaign: proptest-driven multi-event schedules
//! swept across the solver preset matrix, with the converge-or-honestly-
//! fail oracle asserted on every single run.
//!
//! Case volume scales with the `RESILIENT_CAMPAIGN_CASES` environment
//! variable (default 2, kept small so plain `cargo test` stays friendly;
//! the nightly deep-campaign job raises it). On a violation the failing
//! schedule is greedily minimized before the panic, so the red output
//! carries a shrunk, deterministic repro ready to pin in
//! `fault_campaign_regressions.rs`.

use proptest::prelude::*;
use resilience::prelude::*;
use resilient_faults::{FaultFamily, Strike, StrikePlan};
use resilient_linalg::poisson2d;
use resilient_runtime::{Runtime, RuntimeConfig, ThreadConfig, ThreadRuntime};

/// Proptest case count: small by default, cranked up by the nightly job.
fn campaign_cases() -> u32 {
    std::env::var("RESILIENT_CAMPAIGN_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
}

/// The preconditioned half of the preset matrix, in sweep order.
fn preconditioned() -> impl Iterator<Item = CampaignPreset> {
    CampaignPreset::ALL.into_iter().filter(|p| p.preconditioned)
}

/// Run one campaign case and assert the oracle. On a contract violation,
/// greedily minimize the schedule (re-running the case after each
/// candidate drop) and panic with both the full repro line and the shrunk
/// schedule.
fn assert_case(
    family: FaultFamily,
    seed: u64,
    preset: CampaignPreset,
    cfg: &CampaignConfig,
) -> CaseReport {
    match campaign_case(family, seed, preset, cfg) {
        Ok(report) => report,
        Err(violation) => {
            let minimized = match clean_baseline(family, seed, preset, cfg) {
                Ok(base) => violation
                    .schedule
                    .clone()
                    .minimize(|s| run_schedule(s, preset, cfg, &base).is_err()),
                Err(_) => violation.schedule.clone(),
            };
            panic!("{violation}\nminimized schedule: {minimized:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(campaign_cases()))]

    /// Bit-flip families across the full eight-preset kernel matrix:
    /// correlated SpMV flips and the mixed storm on every preset, the
    /// preconditioner-targeted family on the preconditioned four.
    #[test]
    fn flip_families_uphold_the_oracle(seed in 0u64..(1u64 << 32)) {
        let cfg = CampaignConfig::default();
        for family in [FaultFamily::CorrelatedSpmvFlips, FaultFamily::MixedFlipStorm] {
            for preset in CampaignPreset::ALL {
                assert_case(family, seed, preset, &cfg);
            }
        }
        for preset in preconditioned() {
            assert_case(FaultFamily::PrecondFlips, seed, preset, &cfg);
        }
    }

    /// The same preconditioner-path families with a [`PrecondGuardPolicy`]
    /// stacked: the guard may turn silent slowdowns into explicit
    /// detections, but must never break the oracle itself.
    #[test]
    fn guarded_precond_flips_uphold_the_oracle(seed in 0u64..(1u64 << 32)) {
        let cfg = CampaignConfig::default().with_guard(true);
        for preset in preconditioned() {
            assert_case(FaultFamily::PrecondFlips, seed, preset, &cfg);
            assert_case(FaultFamily::MixedFlipStorm, seed, preset, &cfg);
        }
    }

    /// Process-death families — multi-rank deaths, a death timed into the
    /// LFLR recovery rendezvous, deaths straddling the persist cadence —
    /// against the four LFLR solver classes.
    #[test]
    fn death_families_uphold_the_oracle(seed in 0u64..(1u64 << 32)) {
        let cfg = CampaignConfig::default();
        for family in [
            FaultFamily::MultiRankDeath,
            FaultFamily::RendezvousDeath,
            FaultFamily::PersistBoundaryDeath,
        ] {
            for preset in preconditioned() {
                assert_case(family, seed, preset, &cfg);
            }
        }
    }
}

/// The full acceptance matrix, once, at a fixed seed: all six fault
/// families crossed with all eight presets, oracle asserted on every run.
/// This keeps the matrix covered even if `RESILIENT_CAMPAIGN_CASES=0`.
#[test]
fn full_matrix_upholds_the_oracle_at_a_fixed_seed() {
    let cfg = CampaignConfig::default();
    let mut outcomes = std::collections::BTreeMap::new();
    for family in FaultFamily::ALL {
        for preset in CampaignPreset::ALL {
            let report = assert_case(family, 42, preset, &cfg);
            *outcomes.entry(report.outcome.name()).or_insert(0usize) += 1;
        }
    }
    let total: usize = outcomes.values().sum();
    assert_eq!(total, FaultFamily::ALL.len() * CampaignPreset::ALL.len());
}

/// The campaign engine is backend-generic: the same strike plans and
/// oracle classification run over the real-threads backend. One
/// correlated flip on each of two ranks; classification must be
/// rank-symmetric and honest, exactly as on the simulated backend.
#[test]
fn threaded_backend_flip_case_upholds_the_oracle() {
    let cfg = CampaignConfig::default().with_ranks(2);
    let a = poisson2d(cfg.nx, cfg.nx);
    let b_global = cfg.rhs();
    let opts = cfg.solve_opts();
    let accept = cfg.accept_tol();
    let strikes = vec![
        Strike {
            rank: 0,
            incarnation: 0,
            at: 6,
            element: 2,
            bit: 48,
        },
        Strike {
            rank: 1,
            incarnation: 0,
            at: 9,
            element: 5,
            bit: 44,
        },
    ];
    for preset in [
        CampaignPreset::new(SolveSpec::FUSED_CG, false),
        CampaignPreset::new(SolveSpec::FUSED_GMRES, false),
    ] {
        let a = a.clone();
        let b_global = b_global.clone();
        let strikes = strikes.clone();
        let rt = ThreadRuntime::new(ThreadConfig::fast());
        let job = rt.run(cfg.ranks, move |comm| {
            let da = DistCsr::from_global(comm, &a)?;
            let b = DistVector::from_global(comm, &b_global);
            let (outcome, _report, probe) = run_kernel_preset(
                comm,
                &da,
                &b,
                preset,
                &opts,
                false,
                Some(StrikePlan::new(strikes.clone())),
                None,
            )?;
            Ok((
                outcome.reason == StopReason::Converged,
                probe.true_relres,
                probe.injections,
            ))
        });
        assert!(
            job.all_ok(),
            "threaded campaign run errored: {:?}",
            job.errors
        );
        let verdicts = job.unwrap_all();
        assert!(
            verdicts.windows(2).all(|w| w[0].0 == w[1].0),
            "rank-asymmetric claims on the threaded backend: {verdicts:?}"
        );
        let landed: usize = verdicts.iter().map(|v| v.2).sum();
        assert_eq!(landed, 2, "both strikes must land ({preset:?})");
        for (claimed, relres, _) in &verdicts {
            // The oracle: a claim must be verified or refuted explicitly,
            // and nothing may be NaN.
            assert!(
                relres.is_finite(),
                "non-finite verified residual on threaded backend ({preset:?})"
            );
            if *claimed && *relres > accept {
                // Silent corruption made visible by verification — allowed,
                // the claim just must not pass as verified success.
                continue;
            }
        }
    }
}

/// Three diverse healthy members agree: the vote certifies the majority
/// solution and flags nothing.
#[test]
fn diversity_vote_certifies_clean_agreement() {
    let cfg = CampaignConfig::default();
    let a = poisson2d(cfg.nx, cfg.nx);
    let b = cfg.rhs();
    let opts = cfg.solve_opts();
    let rt = Runtime::new(RuntimeConfig::fast().with_seed(11));
    let job = rt.run(cfg.ranks, move |comm| {
        let members = vec![
            DiversityMember::clean(CampaignPreset::new(SolveSpec::FUSED_CG, false)),
            DiversityMember::clean(CampaignPreset::new(SolveSpec::FUSED_GMRES, false)),
            DiversityMember::clean(CampaignPreset::new(SolveSpec::PIPELINED_CG, true)),
        ];
        diversity_vote(comm, &a, &b, members, &opts, 1e-5)
    });
    assert!(job.all_ok(), "vote run errored: {:?}", job.errors);
    let report = &job.unwrap_all()[0];
    assert_eq!(report.claimed, vec![true, true, true]);
    assert_eq!(report.majority, Some(0), "all claimants form one cluster");
    assert!(report.outvoted.is_empty());
    assert!(!report.detected);
    assert!(report.solution.is_some());
}

/// The flagship diversity demonstration: a member silently corrupted by a
/// mid-solve SpMV flip claims convergence with a wrong solution (CG's
/// residual recurrence detaches from the true residual — the classic
/// silent-data-corruption mode); two diverse healthy members agree with
/// each other, outvote it, and the vote reports a detection while still
/// certifying the correct majority solution.
#[test]
fn diversity_vote_outvotes_a_silently_corrupted_member() {
    let cfg = CampaignConfig::default();
    let a = poisson2d(cfg.nx, cfg.nx);
    let b = cfg.rhs();
    let opts = cfg.solve_opts();
    let accept = cfg.accept_tol();
    let rt = Runtime::new(RuntimeConfig::fast().with_seed(7));
    let job = rt.run(cfg.ranks, move |comm| {
        let plan = StrikePlan::new(vec![Strike {
            rank: 0,
            incarnation: 0,
            at: 8,
            element: 2,
            bit: 50,
        }]);
        let members = vec![
            DiversityMember::poisoned(CampaignPreset::new(SolveSpec::FUSED_CG, false), plan),
            DiversityMember::clean(CampaignPreset::new(SolveSpec::FUSED_GMRES, false)),
            DiversityMember::clean(CampaignPreset::new(SolveSpec::PIPELINED_CG, true)),
        ];
        diversity_vote(comm, &a, &b, members, &opts, 1e-5)
    });
    assert!(job.all_ok(), "vote run errored: {:?}", job.errors);
    let report = &job.unwrap_all()[0];
    assert_eq!(
        report.claimed,
        vec![true, true, true],
        "the poisoned member must still *claim* convergence for the demo"
    );
    assert!(
        report.true_relres[0] > accept,
        "member 0's claim must actually be wrong (true relres {:.3e})",
        report.true_relres[0]
    );
    assert_eq!(report.outvoted, vec![0], "the poisoned member is outvoted");
    assert!(report.detected);
    let majority = report.majority.expect("healthy members form a majority");
    assert_eq!(report.clusters[majority], vec![1, 2]);
    assert!(
        report.solution.is_some(),
        "detection does not forfeit the certified majority solution"
    );
}
