//! # resilience
//!
//! Resilient algorithms and the four resilience-enabling programming models
//! of Heroux, *"Toward Resilient Algorithms and Applications"* (HPDC 2013):
//!
//! * [`skeptical`] — **SkP**, Skeptical Programming: invariant checks,
//!   Huang–Abraham ABFT kernels, and a bit-flip-resilient GMRES.
//! * [`rbsp`] — **RBSP**, Relaxed Bulk-Synchronous Programming:
//!   latency-tolerant pipelined CG and p(1)-GMRES built on nonblocking
//!   collectives, with their bulk-synchronous counterparts for comparison.
//! * [`lflr`] — **LFLR**, Local-Failure Local-Recovery: a step-loop driver
//!   over the runtime's ULFM-style recovery and persistent store, plus the
//!   global checkpoint/restart baseline.
//! * [`srp`] — **SRP**, Selective Reliability Programming: reliable /
//!   unreliable execution tiers, FT-GMRES and TMR ablations.
//!
//! All four run on one Krylov kernel, [`kernel`]: a solve is a
//! [`SolveSpec`](kernel::SolveSpec) composition configured by one
//! [`SolveOptions`](kernel::SolveOptions), and ends with a
//! [`StopReason`](kernel::StopReason).
//!
//! Supporting modules: [`solvers`] (serial CG/GMRES/FGMRES — 1-rank solves
//! of the same kernel), [`distributed`] (block-distributed vectors and
//! sparse matrices over the simulated runtime), [`campaign`] and
//! [`diversity`] (the fault campaign and N-version voting over
//! [`CampaignPreset`](campaign::CampaignPreset) values), and [`models`]
//! (the programming-model taxonomy).
//!
//! ## Quick start
//!
//! ```
//! use resilience::prelude::*;
//! use resilient_linalg::poisson2d;
//!
//! // Solve a 2-D Poisson problem with GMRES while injecting a bit flip into
//! // one matrix-vector product, and let the skeptical checks recover.
//! let a = poisson2d(10, 10);
//! let b = vec![1.0; a.nrows()];
//! let fault = random_spmv_fault(a.nrows(), 5, Some(61), 42);
//! let (outcome, report) = skeptical_gmres(
//!     &a, &b, None,
//!     &SolveOptions::default()
//!         .with_tol(1e-8)
//!         .with_max_iters(500)
//!         .with_restart(50),
//!     &SkepticalConfig::default(),
//!     Some(fault),
//! );
//! assert!(outcome.converged());
//! assert_eq!(outcome.injections, 1);
//! assert!(report.detections >= 1);
//! ```

#![warn(missing_docs)]

pub mod campaign;
pub mod distributed;
pub mod diversity;
pub mod kernel;
pub mod lflr;
pub mod models;
pub mod rbsp;
pub mod skeptical;
pub mod solvers;
pub mod srp;

/// Convenient glob import of the most frequently used types.
pub mod prelude {
    pub use crate::campaign::{
        campaign_case, clean_baseline, run_kernel_preset, run_schedule, CampaignConfig,
        CampaignPreset, CaseOutcome, CaseReport, CleanBaseline, ContractViolation,
    };
    pub use crate::distributed::{DistCsr, DistMultiVector, DistVector};
    pub use crate::diversity::{diversity_vote, DiversityMember, DiversityReport};
    pub use crate::kernel::{
        ft_gmres_abft, lflr_pipelined_pcg, lflr_solve, pipelined_skeptical, pipelined_skeptical_cg,
        run_block_cg, AbftSpmvPolicy, BlockJacobi, BlockOutcome, DetectionResponse, DistSpace,
        IdentityPrecond, IterateRollbackPolicy, KrylovLflrConfig, KrylovLflrReport, KrylovSpace,
        Method, NoopPolicy, PolicyOverhead, PolicyStack, PrecondGuardPolicy, ResiliencePolicy,
        RightPrecond, Schedule, SetupCache, SkepticalConfig, SkepticalPolicy, SolveOptions,
        SolveSpec, SpacePreconditioner, SpmvFault, StopReason,
    };
    pub use crate::lflr::{run_cpr, run_lflr, CprApp, CprConfig, CprReport, LflrApp, LflrReport};
    pub use crate::models::ProgrammingModel;
    pub use crate::rbsp::{
        cg::{dist_cg, pipelined_block_pcg, pipelined_cg, pipelined_pcg},
        gmres::pipelined_pgmres,
        solve_dist, solve_dist_block, DistSolveOptions, DistSolveOutcome,
    };
    pub use crate::skeptical::{random_spmv_fault, skeptical_gmres};
    pub use crate::solvers::{cg, fgmres, gmres, true_relative_residual, SolveOutcome};
    pub use crate::srp::{
        compare_tmr_strategies, ft_gmres, reliable_gmres, unreliable_gmres, FtGmresConfig,
        FtGmresReport, SrpCostLedger,
    };
}
