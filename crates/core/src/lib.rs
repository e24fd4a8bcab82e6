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
//! * **LFLR**, Local-Failure Local-Recovery: a step-loop driver
//!   ([`run_lflr`](prelude::run_lflr)) over the runtime's ULFM-style
//!   recovery and persistent store, plus the global checkpoint/restart
//!   baseline ([`run_cpr`](prelude::run_cpr)).
//! * **SRP**, Selective Reliability Programming: reliable / unreliable
//!   execution tiers, FT-GMRES ([`ft_gmres`](prelude::ft_gmres)) and TMR
//!   ablations ([`tmr_apply`]).
//!
//! All four run on one Krylov kernel, [`kernel`]: a solve is a
//! [`SolveSpec`](kernel::SolveSpec) composition configured by one
//! [`SolveOptions`](kernel::SolveOptions), and ends with a
//! [`StopReason`](kernel::StopReason).
//!
//! [`distributed`] holds the block-distributed vectors and sparse matrices
//! the distributed solves run over. The [`prelude`] names the rest of the
//! surface: the serial CG/GMRES/FGMRES entry points (1-rank solves of the
//! same kernel), the fault campaign and N-version voting over
//! [`CampaignPreset`](prelude::CampaignPreset) values, and the
//! programming-model taxonomy
//! ([`ProgrammingModel`](prelude::ProgrammingModel)).
//!
//! The API is the re-export lists: the [`prelude`], the names re-exported
//! here and by [`kernel`], and the four modules public by path —
//! `distributed`, `kernel`, `rbsp` (with `rbsp::cg`, `rbsp::gmres`) and
//! `skeptical` — which the frozen `perf_ledger` benchmark imports by those
//! paths. Every other module is private.
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

mod campaign;
// Public by path, like the three below: the frozen `perf_ledger` imports
// `distributed::{DistCsr, DistMultiVector, DistVector}` so.
pub mod distributed;
mod diversity;
// Public by path: the ledger imports from `kernel`, whose re-export list is
// the kernel's API.
pub mod kernel;
mod lflr;
mod models;
// Public by path, with `rbsp::cg` and `rbsp::gmres`: the ledger imports
// the presets from them.
pub mod rbsp;
// Public by path: the ledger imports `skeptical::SkepticalConfig`.
pub mod skeptical;
mod solvers;
mod srp;

pub use lflr::SnapshotRing;
pub use srp::{ft_gmres_with_policies, tmr_apply};

/// Convenient glob import of the most frequently used types.
pub mod prelude {
    pub use crate::campaign::{
        campaign_case, clean_baseline, run_kernel_preset, run_schedule, CampaignConfig,
        CampaignPreset, CaseOutcome, CaseReport,
    };
    pub use crate::distributed::{DistCsr, DistMultiVector, DistVector};
    pub use crate::diversity::{diversity_vote, DiversityMember};
    pub use crate::kernel::{
        ft_gmres_abft, lflr_pipelined_pcg, lflr_solve, pipelined_skeptical, pipelined_skeptical_cg,
        run_block_cg, AbftSpmvPolicy, BlockJacobi, DetectionResponse, DistSpace, IdentityPrecond,
        KrylovLflrConfig, KrylovLflrReport, KrylovSpace, Method, NoopPolicy, PolicyOverhead,
        PolicyStack, ResiliencePolicy, RightPrecond, Schedule, SetupCache, SkepticalConfig,
        SkepticalPolicy, SolveOptions, SolveSpec, SpacePreconditioner, SpmvFault, StopReason,
    };
    pub use crate::lflr::{run_cpr, run_lflr, CprApp, CprConfig, LflrApp};
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
    };
}
