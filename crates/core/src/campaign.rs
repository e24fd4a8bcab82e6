//! Adversarial fault-campaign driver: sweep generated multi-event fault
//! schedules across the solver preset matrix and hold every run to the
//! **converge-or-honestly-fail oracle**.
//!
//! The oracle is the resilience contract the paper's reliable-computing
//! argument rests on: under *any* fault load a solve must either
//!
//! 1. return a solution that passes an independent, charged true-residual
//!    verification ([`CaseOutcome::ConvergedVerified`]),
//! 2. detect the corruption itself ([`CaseOutcome::DetectedByPolicy`]) or
//!    have its false convergence claim caught by the harness verification
//!    ([`CaseOutcome::DetectedByVerification`] — the silent-data-corruption
//!    threat made visible),
//! 3. fail *honestly*: an explicit non-converged stop reason
//!    ([`CaseOutcome::HonestFailure`]) or an explicit error
//!    ([`CaseOutcome::Errored`]),
//!
//! and it must never hang (a virtual-time budget cap stands in for a
//! wall-clock watchdog), never return NaN/garbage as success, and never
//! leave ranks disagreeing about what happened (outcome classification is
//! derived from globally reduced scalars, so it must be rank-symmetric).
//!
//! A campaign case is one `(family, seed, preset)` triple:
//!
//! - a **clean run** of the preset measures the failure-free geometry
//!   (SpMV/preconditioner application counts, iterations, makespan),
//! - [`FaultSchedule::generate`] draws an adversarial schedule scaled to
//!   that geometry from the taxonomy in [`FaultFamily`],
//! - the **faulty run** replays the preset with strike plans installed in
//!   the space (flip families) or rank deaths scheduled in the runtime and
//!   the LFLR protocol driving recovery (death families),
//! - the result is classified into a [`CaseOutcome`] and checked against
//!   the oracle; any breach surfaces as a [`ContractViolation`] whose
//!   `Display` carries the full `(family, seed, preset)` repro line.
//!
//! Death families run the preset's [`SolveSpec`] under
//! [`lflr_solve`]: the recovery protocol is what the campaign is
//! attacking, and it always runs block-Jacobi preconditioned.
//! Incarnation-pinned flip strikes ride along only where a plan-carrying
//! space exists (kernel presets and the threaded backend); `lflr_solve`
//! builds its spaces internally, so for death families the delivered
//! payload is the death events themselves.

use resilient_faults::{FaultFamily, FaultSchedule, ScheduleParams, StrikePlan};
use resilient_linalg::poisson2d;
use resilient_runtime::{
    CommBackend, FailureConfig, FailurePolicy, Result, Runtime, RuntimeConfig,
};

use crate::distributed::{DistCsr, DistVector};
use crate::kernel::{
    lflr_solve, solve, BlockJacobi, KernelOutcome, KernelReport, KrylovLflrConfig, KrylovSpace,
    PolicyStack, PrecondGuardPolicy, SolveOptions, SolveSpec, SpacePreconditioner, StopReason,
};
use crate::solvers::true_relative_residual;

/// The kernel composition a campaign case runs — a [`SolveSpec`], plain or
/// block-Jacobi preconditioned: one cell of the sweep's preset matrix.
/// Death-family cases run `spec` under [`lflr_solve`], which always
/// preconditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CampaignPreset {
    /// Method × reduction schedule.
    pub spec: SolveSpec,
    /// Block-Jacobi preconditioned — the half of the matrix whose
    /// preconditioner-apply path the `precond-flips` family can strike.
    pub preconditioned: bool,
}

impl CampaignPreset {
    /// The full preset matrix, [`SolveSpec::ALL`] × {plain,
    /// preconditioned}, in sweep order.
    pub const ALL: [Self; 8] = [
        Self::new(SolveSpec::FUSED_CG, false),
        Self::new(SolveSpec::PIPELINED_CG, false),
        Self::new(SolveSpec::FUSED_CG, true),
        Self::new(SolveSpec::PIPELINED_CG, true),
        Self::new(SolveSpec::FUSED_GMRES, false),
        Self::new(SolveSpec::PIPELINED_GMRES, false),
        Self::new(SolveSpec::FUSED_GMRES, true),
        Self::new(SolveSpec::PIPELINED_GMRES, true),
    ];

    /// `spec`, block-Jacobi preconditioned or not.
    pub const fn new(spec: SolveSpec, preconditioned: bool) -> Self {
        Self {
            spec,
            preconditioned,
        }
    }

    /// Stable short name for reports and repro lines.
    pub fn name(&self) -> &'static str {
        self.spec.name(self.preconditioned)
    }
}

/// Geometry and budget of one campaign sweep; `Copy` so SPMD closures can
/// capture it per incarnation.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// World size of every run.
    pub ranks: usize,
    /// Poisson grid edge (`n = nx²` unknowns).
    pub nx: usize,
    /// Solve tolerance.
    pub tol: f64,
    /// Iteration cap (also what an honest `MaxIterations` failure hits).
    pub max_iters: usize,
    /// GMRES restart length.
    pub restart: usize,
    /// Stack a `PrecondGuardPolicy` on kernel-preset runs.
    pub guard: bool,
    /// LFLR snapshot cadence (death families).
    pub persist_every: usize,
    /// LFLR snapshot pruning window.
    pub keep_last: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            ranks: 3,
            nx: 8,
            tol: 1e-8,
            max_iters: 400,
            restart: 30,
            guard: false,
            persist_every: 8,
            keep_last: 4,
        }
    }
}

impl CampaignConfig {
    /// Builder: world size.
    pub fn with_ranks(mut self, ranks: usize) -> Self {
        self.ranks = ranks.max(1);
        self
    }

    /// Builder: stack the preconditioner guard on kernel-preset runs.
    pub fn with_guard(mut self, guard: bool) -> Self {
        self.guard = guard;
        self
    }

    /// The solver options every run uses.
    pub fn solve_opts(&self) -> SolveOptions {
        SolveOptions::default()
            .with_tol(self.tol)
            .with_max_iters(self.max_iters)
            .with_restart(self.restart)
    }

    /// Acceptance bound on the independently verified true relative
    /// residual of a convergence claim (two orders of slack over the
    /// recurrence-based stopping tolerance).
    pub fn accept_tol(&self) -> f64 {
        self.tol * 100.0
    }

    /// The virtual-time budget of a faulty run given the clean makespan —
    /// generous enough for max-iteration stalls and repeated LFLR
    /// recoveries, finite so a runaway schedule is a contract breach
    /// rather than a silent slowdown.
    fn budget(&self, clean_makespan: f64) -> f64 {
        5.0 + 50.0 * clean_makespan
    }

    /// The campaign's deterministic right-hand side (`b[i] = 1 + i mod 3`)
    /// for the configured grid — shared by the driver, the diversity
    /// voter's callers and the experiment binary.
    pub fn rhs(&self) -> Vec<f64> {
        let n = self.nx * self.nx;
        let mut b = vec![0.0; n];
        for (i, v) in b.iter_mut().enumerate() {
            *v = 1.0 + (i % 3) as f64;
        }
        b
    }
}

/// How one campaign case ended, as the oracle classifies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseOutcome {
    /// The solve claimed convergence and the claim survived the charged
    /// independent true-residual verification.
    ConvergedVerified,
    /// A resilience policy (or the LFLR protocol's own detection path)
    /// stopped the solve with an explicit corruption verdict.
    DetectedByPolicy,
    /// The solve claimed convergence but the independent verification
    /// refuted the claim — silent data corruption made visible by the
    /// harness. Allowed by the oracle, pinned by the regression corpus.
    DetectedByVerification,
    /// The solve stopped without claiming success (iteration cap,
    /// breakdown, divergence): honest, explicit failure.
    HonestFailure(StopReason),
    /// The run returned an explicit error on every rank.
    Errored,
}

impl CaseOutcome {
    /// Stable short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            CaseOutcome::ConvergedVerified => "converged-verified",
            CaseOutcome::DetectedByPolicy => "detected-by-policy",
            CaseOutcome::DetectedByVerification => "detected-by-verification",
            CaseOutcome::HonestFailure(_) => "honest-failure",
            CaseOutcome::Errored => "errored",
        }
    }
}

/// Everything one campaign case reports back.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// Schedule the case ran.
    pub schedule: FaultSchedule,
    /// Preset the case ran.
    pub preset: CampaignPreset,
    /// Oracle classification (identical on every rank, asserted).
    pub outcome: CaseOutcome,
    /// Independently verified true relative residual of the final iterate.
    pub true_relres: f64,
    /// Iterations of the faulty run (rank 0).
    pub iterations: usize,
    /// LFLR recoveries (death families; 0 otherwise).
    pub recoveries: usize,
    /// Policy detections summed over the stack.
    pub detections: usize,
    /// Bit flips that actually landed.
    pub injections: usize,
    /// Virtual makespan of the faulty run.
    pub makespan: f64,
    /// Virtual makespan of the clean baseline run.
    pub clean_makespan: f64,
}

/// A breach of the campaign oracle, carrying the full repro coordinates.
#[derive(Debug, Clone)]
pub struct ContractViolation {
    /// Preset of the breached case.
    pub preset: CampaignPreset,
    /// Schedule of the breached case (family + seed + events).
    pub schedule: FaultSchedule,
    /// What was breached.
    pub detail: String,
}

impl std::fmt::Display for ContractViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "campaign contract violation [family={} seed={} preset={}]: {} (schedule: {:?})",
            self.schedule.family.name(),
            self.schedule.seed,
            self.preset.name(),
            self.detail,
            self.schedule,
        )
    }
}

impl std::error::Error for ContractViolation {}

/// Failure-free geometry a schedule is scaled to and a faulty run is
/// budgeted against.
#[derive(Debug, Clone, Copy)]
pub struct CleanBaseline {
    /// Clean-run virtual makespan.
    pub makespan: f64,
    /// Clean-run iterations.
    pub iterations: usize,
    /// Schedule-generator geometry measured off the clean run.
    pub params: ScheduleParams,
}

/// Per-rank result of one faulty (or clean) solve, produced inside the
/// SPMD closure so classification uses only charged, rank-symmetric data.
#[derive(Debug, Clone, Copy)]
struct RankVerdict {
    outcome: CaseOutcome,
    true_relres: f64,
    iterations: usize,
    recoveries: usize,
    detections: usize,
    injections: usize,
    applications: u64,
    precond_applications: u64,
    local_len: usize,
}

/// Charged post-solve probe of one kernel-preset run.
#[derive(Debug, Clone, Copy)]
pub struct PresetProbe {
    /// Independently verified true relative residual (charged: one extra
    /// operator apply plus two norms, all through the space).
    pub true_relres: f64,
    /// Bit flips that landed in this space.
    pub injections: usize,
    /// SpMV applications the run performed (verification excluded).
    pub applications: u64,
    /// Preconditioner applications the run performed.
    pub precond_applications: u64,
    /// Local vector length on this rank.
    pub local_len: usize,
}

/// Run one kernel preset on an already-distributed system, with optional
/// campaign strike plans and optional `PrecondGuardPolicy`, and verify
/// the result with a charged true-residual probe. This is the shared
/// engine of the campaign driver, the diversity voter and the
/// threaded-backend campaign tests; it is generic over the communication
/// backend.
#[allow(clippy::too_many_arguments)]
pub fn run_kernel_preset<C: CommBackend>(
    comm: &mut C,
    a: &DistCsr,
    b: &DistVector,
    preset: CampaignPreset,
    opts: &SolveOptions,
    guard: bool,
    spmv_plan: Option<StrikePlan>,
    precond_plan: Option<StrikePlan>,
) -> Result<(KernelOutcome<DistVector>, KernelReport, PresetProbe)> {
    let mut space = opts.space(comm, a);
    if let Some(plan) = spmv_plan {
        space = space.with_spmv_plan(plan);
    }
    if let Some(plan) = precond_plan {
        space = space.with_precond_plan(plan);
    }
    let mut guard_policy = PrecondGuardPolicy::new();
    let mut policies = PolicyStack::empty();
    if guard {
        policies.push(&mut guard_policy);
    }
    let mut bj = preset.preconditioned.then(|| BlockJacobi::new(a));
    let m = bj.as_mut().map(|m| m as &mut dyn SpacePreconditioner<_>);
    let result = solve(&mut space, b, None, opts, preset.spec, m, &mut policies);
    drop(policies);
    let (outcome, report) = result?;
    // Geometry is read before the verification apply so the probe reports
    // what the *solve* did.
    let applications = space.applications() as u64;
    let precond_applications = space.precond_applications();
    let injections = space.injections();
    let local_len = space.local_len(&outcome.x);
    // Independent charged verification of the final iterate; the space is
    // disarmed first so a strike that never came due cannot corrupt the
    // verdict on the solve.
    space.disarm_plans();
    let ax = space.apply(&outcome.x)?;
    let r = space.residual(b, &ax);
    let rn = space.norm(&r)?;
    let bn = space.norm(b)?;
    let probe = PresetProbe {
        true_relres: rn / bn.max(f64::MIN_POSITIVE),
        injections,
        applications,
        precond_applications,
        local_len,
    };
    Ok((outcome, report, probe))
}

fn classify_kernel(
    outcome: &KernelOutcome<DistVector>,
    report: &KernelReport,
    probe: &PresetProbe,
    accept_tol: f64,
) -> RankVerdict {
    let detections: usize = report.policy_overhead.iter().map(|o| o.detections).sum();
    let case = match outcome.reason {
        StopReason::CorruptionDetected => CaseOutcome::DetectedByPolicy,
        StopReason::Converged => {
            if probe.true_relres.is_finite() && probe.true_relres <= accept_tol {
                CaseOutcome::ConvergedVerified
            } else {
                CaseOutcome::DetectedByVerification
            }
        }
        reason => CaseOutcome::HonestFailure(reason),
    };
    RankVerdict {
        outcome: case,
        true_relres: probe.true_relres,
        iterations: outcome.iterations,
        recoveries: 0,
        detections,
        injections: probe.injections,
        applications: probe.applications,
        precond_applications: probe.precond_applications,
        local_len: probe.local_len,
    }
}

/// Measure the failure-free baseline of `(preset, seed)` under `cfg`:
/// the geometry the schedule generator scales to and the makespan the
/// faulty run is budgeted against. Death-family cases baseline the LFLR
/// solve (its snapshot-persist traffic is part of the clean makespan).
pub fn clean_baseline(
    family: FaultFamily,
    seed: u64,
    preset: CampaignPreset,
    cfg: &CampaignConfig,
) -> std::result::Result<CleanBaseline, ContractViolation> {
    let cfgc = *cfg;
    let a = poisson2d(cfg.nx, cfg.nx);
    let b_global = cfg.rhs();
    let violation = |detail: String| ContractViolation {
        preset,
        schedule: FaultSchedule {
            family,
            seed,
            spmv: Vec::new(),
            precond: Vec::new(),
            deaths: Vec::new(),
        },
        detail,
    };

    let rt = Runtime::new(RuntimeConfig::fast().with_seed(seed));
    let job = if family.is_death_family() {
        rt.run(cfg.ranks, move |comm| {
            run_death_rank(comm, &a, &b_global, preset.spec, &cfgc)
        })
    } else {
        rt.run(cfg.ranks, move |comm| {
            run_flip_rank(comm, &a, &b_global, preset, &cfgc, None, None)
        })
    };
    if !job.all_ok() {
        return Err(violation(format!(
            "clean baseline run errored: {:?}",
            job.errors
        )));
    }
    let makespan = job.makespan();
    let verdicts = job.unwrap_all();
    let v0 = verdicts[0];
    if v0.outcome != CaseOutcome::ConvergedVerified {
        return Err(violation(format!(
            "clean baseline did not converge: {:?} (true relres {:.3e})",
            v0.outcome, v0.true_relres
        )));
    }
    let local_len = verdicts.iter().map(|v| v.local_len).min().unwrap_or(1);
    Ok(CleanBaseline {
        makespan,
        iterations: v0.iterations,
        params: ScheduleParams {
            ranks: cfg.ranks,
            max_applications: v0.applications.max(1),
            max_precond_applications: v0.precond_applications,
            local_len: local_len.max(1),
            persist_every: cfg.persist_every,
            clean_iterations: v0.iterations.max(1),
        },
    })
}

fn run_flip_rank(
    comm: &mut resilient_runtime::Comm,
    a: &resilient_linalg::CsrMatrix,
    b_global: &[f64],
    preset: CampaignPreset,
    cfg: &CampaignConfig,
    spmv_plan: Option<&StrikePlan>,
    precond_plan: Option<&StrikePlan>,
) -> Result<RankVerdict> {
    let da = DistCsr::from_global(comm, a)?;
    let b = DistVector::from_global(comm, b_global);
    let opts = cfg.solve_opts();
    let (outcome, report, probe) = run_kernel_preset(
        comm,
        &da,
        &b,
        preset,
        &opts,
        cfg.guard,
        spmv_plan.cloned(),
        precond_plan.cloned(),
    )?;
    Ok(classify_kernel(&outcome, &report, &probe, cfg.accept_tol()))
}

fn run_death_rank(
    comm: &mut resilient_runtime::Comm,
    a: &resilient_linalg::CsrMatrix,
    b_global: &[f64],
    spec: SolveSpec,
    cfg: &CampaignConfig,
) -> Result<RankVerdict> {
    let opts = cfg.solve_opts();
    let lcfg = KrylovLflrConfig::default()
        .with_persist_every(cfg.persist_every)
        .with_keep_last(cfg.keep_last);
    let (out, rep) = lflr_solve(comm, a, b_global, spec, &opts, &lcfg)?;
    // Verification: gather the agreed global iterate (deterministic and
    // identical on every rank) and measure its true residual.
    let xg = out.x.gather_global(comm)?;
    let finite = xg.iter().all(|v| v.is_finite());
    let tr = true_relative_residual(a, b_global, &xg);
    let detections: usize = rep.policy.iter().map(|o| o.detections).sum();
    let outcome = if out.converged {
        if finite && tr.is_finite() && tr <= cfg.accept_tol() {
            CaseOutcome::ConvergedVerified
        } else {
            CaseOutcome::DetectedByVerification
        }
    } else {
        CaseOutcome::HonestFailure(out.reason)
    };
    let n_local = out.x.local_len();
    Ok(RankVerdict {
        outcome,
        true_relres: tr,
        iterations: rep.iterations,
        recoveries: rep.recoveries,
        detections,
        injections: 0,
        applications: (rep.iterations as u64).max(1),
        precond_applications: (rep.iterations as u64).max(1),
        local_len: n_local,
    })
}

/// Run one explicit schedule against `preset` and hold it to the oracle.
/// This is the entry point the greedy minimizer re-invokes while
/// shrinking a failing schedule; [`campaign_case`] composes it with
/// [`clean_baseline`] and [`FaultSchedule::generate`].
pub fn run_schedule(
    schedule: &FaultSchedule,
    preset: CampaignPreset,
    cfg: &CampaignConfig,
    baseline: &CleanBaseline,
) -> std::result::Result<CaseReport, ContractViolation> {
    let cfgc = *cfg;
    let a = poisson2d(cfg.nx, cfg.nx);
    let b_global = cfg.rhs();
    let violation = |detail: String| ContractViolation {
        preset,
        schedule: schedule.clone(),
        detail,
    };

    let job = if schedule.family.is_death_family() {
        let deaths: Vec<(usize, f64)> = schedule
            .deaths
            .iter()
            .map(|d| (d.rank, d.at_frac * baseline.makespan))
            .collect();
        let rt = Runtime::new(
            RuntimeConfig::fast()
                .with_seed(schedule.seed)
                .with_failures(FailureConfig::scheduled(FailurePolicy::ReplaceRank, deaths)),
        );
        rt.run(cfg.ranks, move |comm| {
            run_death_rank(comm, &a, &b_global, preset.spec, &cfgc)
        })
    } else {
        let rt = Runtime::new(RuntimeConfig::fast().with_seed(schedule.seed));
        let spmv = schedule.spmv_plan();
        let precond = schedule.precond_plan();
        rt.run(cfg.ranks, move |comm| {
            run_flip_rank(
                comm,
                &a,
                &b_global,
                preset,
                &cfgc,
                Some(&spmv),
                Some(&precond),
            )
        })
    };

    // Oracle clause: bounded virtual time (the stand-in for "never hangs").
    let budget = cfg.budget(baseline.makespan);
    if job.makespan() > budget {
        return Err(violation(format!(
            "virtual-time budget exceeded: makespan {:.3} > budget {:.3} (clean {:.3})",
            job.makespan(),
            budget,
            baseline.makespan
        )));
    }

    // Oracle clause: every rank classifies, and classifies identically.
    let outcomes: Vec<CaseOutcome> = (0..cfg.ranks)
        .map(|rank| match &job.results[rank] {
            Some(v) => v.outcome,
            None => CaseOutcome::Errored,
        })
        .collect();
    if outcomes.windows(2).any(|w| w[0] != w[1]) {
        return Err(violation(format!("rank-asymmetric outcomes: {outcomes:?}")));
    }

    // Oracle clause: a verified success must actually be one (classification
    // enforces this per rank; re-assert on rank 0's verdict for defence in
    // depth against classification drift).
    let v0 = job.results[0];
    if let Some(v) = &v0 {
        if v.outcome == CaseOutcome::ConvergedVerified
            && !(v.true_relres.is_finite() && v.true_relres <= cfg.accept_tol())
        {
            return Err(violation(format!(
                "verified-success invariant breached: true relres {:.3e}",
                v.true_relres
            )));
        }
    }

    let (outcome, true_relres, iterations, recoveries) = match &v0 {
        Some(v) => (v.outcome, v.true_relres, v.iterations, v.recoveries),
        None => (CaseOutcome::Errored, f64::NAN, 0, 0),
    };
    // Strikes land on whatever rank the schedule names, so the landed-flip
    // and detection tallies must be summed over every rank's verdict — a
    // rank-0-only read would hide most of the campaign's injections.
    let injections: usize = job.results.iter().flatten().map(|v| v.injections).sum();
    let detections: usize = job.results.iter().flatten().map(|v| v.detections).sum();
    Ok(CaseReport {
        schedule: schedule.clone(),
        preset,
        outcome,
        true_relres,
        iterations,
        recoveries,
        detections,
        injections,
        makespan: job.makespan(),
        clean_makespan: baseline.makespan,
    })
}

/// Run one full campaign case: clean baseline, schedule generation from
/// `(family, seed)`, faulty run, oracle assertion. Returns the classified
/// report, or the `ContractViolation` whose `Display` is the repro line.
pub fn campaign_case(
    family: FaultFamily,
    seed: u64,
    preset: CampaignPreset,
    cfg: &CampaignConfig,
) -> std::result::Result<CaseReport, ContractViolation> {
    let baseline = clean_baseline(family, seed, preset, cfg)?;
    let schedule = FaultSchedule::generate(family, seed, &baseline.params);
    run_schedule(&schedule, preset, cfg, &baseline)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_matrix_is_complete_and_named() {
        assert_eq!(CampaignPreset::ALL.len(), 8);
        let mut names: Vec<_> = CampaignPreset::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8, "preset names must be distinct");
        for spec in SolveSpec::ALL {
            for preconditioned in [false, true] {
                let p = CampaignPreset::new(spec, preconditioned);
                assert!(CampaignPreset::ALL.contains(&p), "{}", p.name());
            }
        }
    }

    #[test]
    fn clean_baseline_measures_geometry() {
        let cfg = CampaignConfig::default();
        let base = clean_baseline(
            FaultFamily::CorrelatedSpmvFlips,
            7,
            CampaignPreset::new(SolveSpec::FUSED_CG, false),
            &cfg,
        )
        .expect("clean baseline");
        assert!(base.iterations > 0);
        assert!(base.makespan > 0.0);
        assert!(base.params.max_applications as usize >= base.iterations);
        assert_eq!(base.params.max_precond_applications, 0, "unpreconditioned");
        let pre = clean_baseline(
            FaultFamily::PrecondFlips,
            7,
            CampaignPreset::new(SolveSpec::FUSED_CG, true),
            &cfg,
        )
        .expect("clean baseline");
        assert!(pre.params.max_precond_applications > 0);
    }

    #[test]
    fn fault_free_schedule_yields_verified_convergence_on_every_preset() {
        let cfg = CampaignConfig::default();
        for preset in CampaignPreset::ALL {
            let base = clean_baseline(FaultFamily::MixedFlipStorm, 3, preset, &cfg)
                .unwrap_or_else(|v| panic!("{v}"));
            let empty = FaultSchedule {
                family: FaultFamily::MixedFlipStorm,
                seed: 3,
                spmv: Vec::new(),
                precond: Vec::new(),
                deaths: Vec::new(),
            };
            let report =
                run_schedule(&empty, preset, &cfg, &base).unwrap_or_else(|v| panic!("{v}"));
            assert_eq!(
                report.outcome,
                CaseOutcome::ConvergedVerified,
                "{} must converge fault-free",
                preset.name()
            );
            assert_eq!(report.injections, 0);
        }
    }
}
