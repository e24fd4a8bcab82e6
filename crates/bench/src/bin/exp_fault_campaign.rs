//! Experiment F1 — the adversarial fault campaign (test-harness-as-
//! experiment): proptest-style multi-event fault schedules swept across
//! the solver preset matrix, every run held to the converge-or-honestly-
//! fail oracle, plus the algorithm-diversity vote.
//!
//! Each campaign case measures a clean baseline (scaling the schedule's
//! strike windows and virtual-time budget to the actual solve geometry),
//! replays the generated schedule — correlated SpMV flips, preconditioner-
//! output flips, mixed flip storms, multi-rank deaths, a death during the
//! LFLR recovery rendezvous, deaths straddling the persist cadence — and
//! classifies the outcome: verified convergence, explicit policy
//! detection, a claim refuted by independent verification, or an honest
//! failure. The first table tallies those classes per fault family ×
//! preset; a contract violation (NaN presented as success, rank-
//! asymmetric verdicts, budget blow-out) aborts the experiment with the
//! repro line. The second table demonstrates diversity voting: three
//! diverse solver compositions on the same system, one silently corrupted
//! by a mid-solve SpMV flip, the vote outvoting the confident wrong
//! claimant while certifying the healthy majority's solution.
//!
//! Pass `--smoke` for a CI-sized run.

use resilience::prelude::*;
use resilient_bench::{fmt_g, Table};
use resilient_faults::{FaultFamily, Strike, StrikePlan};
use resilient_linalg::poisson2d;
use resilient_runtime::{Runtime, RuntimeConfig};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let seeds: Vec<u64> = if smoke {
        vec![42, 43]
    } else {
        (40..48).collect()
    };
    let presets: Vec<CampaignPreset> = if smoke {
        vec![
            CampaignPreset::new(SolveSpec::FUSED_CG, false),
            CampaignPreset::new(SolveSpec::PIPELINED_CG, false),
            CampaignPreset::new(SolveSpec::FUSED_CG, true),
            CampaignPreset::new(SolveSpec::PIPELINED_CG, true),
            CampaignPreset::new(SolveSpec::FUSED_GMRES, false),
            CampaignPreset::new(SolveSpec::PIPELINED_GMRES, true),
        ]
    } else {
        CampaignPreset::ALL.to_vec()
    };
    let cfg = CampaignConfig::default();

    let mut table = Table::new(
        "F1: fault-campaign outcome matrix (oracle asserted on every run)",
        &[
            "family",
            "preset",
            "cases",
            "verified",
            "det-policy",
            "det-verif",
            "honest-fail",
            "flips",
            "recoveries",
        ],
    );
    let mut totals = [0usize; 4];
    for family in FaultFamily::ALL {
        for &preset in &presets {
            let mut counts = [0usize; 4];
            let mut flips = 0usize;
            let mut recoveries = 0usize;
            for &seed in &seeds {
                let report = campaign_case(family, seed, preset, &cfg)
                    .unwrap_or_else(|violation| panic!("{violation}"));
                let slot = match report.outcome {
                    CaseOutcome::ConvergedVerified => 0,
                    CaseOutcome::DetectedByPolicy => 1,
                    CaseOutcome::DetectedByVerification => 2,
                    CaseOutcome::HonestFailure(_) | CaseOutcome::Errored => 3,
                };
                counts[slot] += 1;
                flips += report.injections;
                recoveries += report.recoveries;
            }
            for (t, c) in totals.iter_mut().zip(counts) {
                *t += c;
            }
            table.row(vec![
                family.name().to_string(),
                preset.name().to_string(),
                seeds.len().to_string(),
                counts[0].to_string(),
                counts[1].to_string(),
                counts[2].to_string(),
                counts[3].to_string(),
                flips.to_string(),
                recoveries.to_string(),
            ]);
        }
    }
    table.emit("f1_fault_campaign");
    let total_cases: usize = totals.iter().sum();
    println!(
        "\n{total_cases} campaign cases, all honest: {} verified, {} detected by policy, \
         {} refuted by verification, {} failed explicitly — zero silent wrong answers.",
        totals[0], totals[1], totals[2], totals[3]
    );

    // ------------------------------------------------------------------
    // Diversity voting: the algorithm-agnostic detector.
    // ------------------------------------------------------------------
    let mut vote_table = Table::new(
        "F1b: algorithm-diversity vote (3 members, member 0 poisoned by one SpMV flip)",
        &["member", "preset", "claims", "true relres", "verdict"],
    );
    let a = poisson2d(cfg.nx, cfg.nx);
    let b = cfg.rhs();
    let opts = cfg.solve_opts();
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
    assert!(job.all_ok(), "diversity vote errored: {:?}", job.errors);
    let report = &job.unwrap_all()[0];
    let names = ["fused-cg (poisoned)", "cgs-gmres", "pipelined-pcg"];
    for (idx, name) in names.iter().enumerate() {
        let verdict = if report.outvoted.contains(&idx) {
            "OUTVOTED"
        } else if report
            .majority
            .map(|m| report.clusters[m].contains(&idx))
            .unwrap_or(false)
        {
            "majority"
        } else {
            "no claim"
        };
        vote_table.row(vec![
            idx.to_string(),
            name.to_string(),
            report.claimed[idx].to_string(),
            fmt_g(report.true_relres[idx]),
            verdict.to_string(),
        ]);
    }
    vote_table.emit("f1b_diversity_vote");
    assert!(
        report.detected && report.outvoted == vec![0],
        "the poisoned member must be outvoted"
    );
    assert!(
        report.solution.is_some(),
        "the vote must still certify the healthy majority's solution"
    );
    println!(
        "\nmember 0 claims convergence with true relres {:.2e} — refuted by the \
         diverse majority, which certifies its own agreed solution.",
        report.true_relres[0]
    );
}
