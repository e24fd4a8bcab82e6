//! Algorithm-diversity voting: run several *different* solver
//! compositions on the same system and let them check each other.
//!
//! Every detection policy in the suite watches one algorithm from the
//! inside. Diversity voting is the complementary, algorithm-agnostic
//! detector the fault-tolerance literature calls N-version computation:
//! run N diverse members (different dot schedules, methods and
//! preconditioning — so a fault that silently biases one recurrence is
//! unlikely to bias the others the same way), cluster the solutions they
//! claim, and certify the majority cluster. A member whose claimed
//! solution sits outside the majority is *outvoted* — flagged as a
//! detection without any knowledge of what went wrong inside it.
//!
//! The voter runs inside one SPMD closure on one communicator: members
//! execute sequentially (identical ranks run identical member sequences,
//! so collective symmetry holds), solutions are gathered globally, and
//! clustering happens on the gathered — deterministic, rank-identical —
//! vectors, so every rank reaches the same verdict without an extra
//! collective.

use resilient_faults::StrikePlan;
use resilient_linalg::CsrMatrix;
use resilient_runtime::{CommBackend, Result};

use crate::campaign::{run_kernel_preset, CampaignPreset};
use crate::distributed::{DistCsr, DistVector};
use crate::kernel::{SolveOptions, StopReason};

/// One voting member: a kernel preset plus (for campaign experiments) the
/// strike plans poisoning exactly this member's run.
#[derive(Debug, Clone)]
pub struct DiversityMember {
    /// The composition this member runs.
    pub preset: CampaignPreset,
    /// Strikes against this member's SpMV path.
    pub spmv_plan: Option<StrikePlan>,
    /// Strikes against this member's preconditioner path.
    pub precond_plan: Option<StrikePlan>,
    /// Stack a `PrecondGuardPolicy` on this member.
    pub guard: bool,
}

impl DiversityMember {
    /// A healthy member running `preset`.
    pub fn clean(preset: CampaignPreset) -> Self {
        Self {
            preset,
            spmv_plan: None,
            precond_plan: None,
            guard: false,
        }
    }

    /// A member whose SpMV path is poisoned by `plan` — the adversarial
    /// minority the vote must outvote.
    pub fn poisoned(preset: CampaignPreset, plan: StrikePlan) -> Self {
        Self {
            preset,
            spmv_plan: Some(plan),
            precond_plan: None,
            guard: false,
        }
    }
}

/// What the vote concluded.
#[derive(Debug, Clone)]
pub struct DiversityReport {
    /// Members that ran.
    pub members: usize,
    /// Per member: did it *claim* convergence? (Only claimants vote —
    /// an honest failure is not a disagreement.)
    pub claimed: Vec<bool>,
    /// Per member: its independently verified true relative residual.
    pub true_relres: Vec<f64>,
    /// Clusters of claimant indices whose solutions pairwise agree with
    /// the cluster representative within the agreement tolerance.
    pub clusters: Vec<Vec<usize>>,
    /// Index into `clusters` of the strict-majority cluster (more than
    /// half of *all* members), if one exists.
    pub majority: Option<usize>,
    /// Claimant members outside the majority cluster — each one is a
    /// detection: a solution confidently presented and collectively
    /// refuted.
    pub outvoted: Vec<usize>,
    /// True when the vote could not certify (no strict majority) or a
    /// claimed solution was outvoted.
    pub detected: bool,
    /// The certified global solution (the majority representative), if a
    /// majority exists.
    pub solution: Option<Vec<f64>>,
}

/// Run every member on `(a_global, b_global)` over `comm`, gather and
/// cluster their claimed solutions, and certify the majority.
///
/// `agree_tol` bounds the relative ℓ² distance within a cluster; with
/// solver tolerances around `1e-8` on well-conditioned systems, `1e-5`
/// comfortably groups genuinely converged members while splitting off
/// silently corrupted ones (whose true residuals are orders larger).
pub fn diversity_vote<C: CommBackend>(
    comm: &mut C,
    a_global: &CsrMatrix,
    b_global: &[f64],
    members: Vec<DiversityMember>,
    opts: &SolveOptions,
    agree_tol: f64,
) -> Result<DiversityReport> {
    let total = members.len();
    let da = DistCsr::from_global(comm, a_global)?;
    let b = DistVector::from_global(comm, b_global);

    let mut claimed = Vec::with_capacity(total);
    let mut true_relres = Vec::with_capacity(total);
    let mut solutions: Vec<Option<Vec<f64>>> = Vec::with_capacity(total);
    for member in members {
        let (outcome, _report, probe) = run_kernel_preset(
            comm,
            &da,
            &b,
            member.preset,
            opts,
            member.guard,
            member.spmv_plan,
            member.precond_plan,
        )?;
        // Pool membership is the member's own *claim*, not the harness
        // verification: the vote must catch a confident wrong answer on
        // its own.
        let claims = outcome.reason == StopReason::Converged;
        claimed.push(claims);
        true_relres.push(probe.true_relres);
        solutions.push(if claims {
            Some(outcome.x.gather_global(comm)?)
        } else {
            None
        });
    }

    // Greedy representative clustering over the claimants, on the
    // gathered (rank-identical) global vectors.
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    for (idx, sol) in solutions.iter().enumerate() {
        let Some(x) = sol else { continue };
        let mut joined = false;
        for cluster in clusters.iter_mut() {
            let rep = solutions[cluster[0]]
                .as_ref()
                .expect("cluster members are claimants");
            if relative_l2(x, rep) <= agree_tol {
                cluster.push(idx);
                joined = true;
                break;
            }
        }
        if !joined {
            clusters.push(vec![idx]);
        }
    }

    let majority = clusters.iter().position(|c| 2 * c.len() > total);
    let outvoted: Vec<usize> = match majority {
        Some(m) => (0..total)
            .filter(|i| claimed[*i] && !clusters[m].contains(i))
            .collect(),
        None => (0..total).filter(|i| claimed[*i]).collect(),
    };
    let detected = majority.is_none() || !outvoted.is_empty();
    let solution = majority.map(|m| {
        solutions[clusters[m][0]]
            .clone()
            .expect("majority representative is a claimant")
    });
    Ok(DiversityReport {
        members: total,
        claimed,
        true_relres,
        clusters,
        majority,
        outvoted,
        detected,
        solution,
    })
}

/// Relative ℓ² distance `‖x − y‖ / max(‖y‖, 1)` between two gathered
/// global vectors.
fn relative_l2(x: &[f64], y: &[f64]) -> f64 {
    let mut diff = 0.0;
    let mut base = 0.0;
    for (a, b) in x.iter().zip(y.iter()) {
        let d = a - b;
        diff += d * d;
        base += b * b;
    }
    if !diff.is_finite() || !base.is_finite() {
        return f64::INFINITY;
    }
    diff.sqrt() / base.sqrt().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SolveSpec;

    #[test]
    fn relative_l2_is_zero_on_identical_and_infinite_on_nan() {
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(relative_l2(&x, &x), 0.0);
        let y = vec![1.0, f64::NAN, 3.0];
        assert!(relative_l2(&x, &y).is_infinite());
    }

    #[test]
    fn member_builders_shape_the_run() {
        let clean = DiversityMember::clean(CampaignPreset::new(SolveSpec::FUSED_CG, false));
        assert!(clean.spmv_plan.is_none() && !clean.guard);
        let plan = StrikePlan::new(vec![]);
        let poisoned =
            DiversityMember::poisoned(CampaignPreset::new(SolveSpec::PIPELINED_CG, false), plan);
        assert!(poisoned.spmv_plan.is_some());
    }
}
