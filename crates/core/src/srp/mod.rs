//! Selective Reliability Programming (SRP, §II-D / §III-D): reliable and
//! unreliable execution tiers, FT-GMRES (reliable outer, unreliable inner)
//! and the TMR cost ablation.

pub mod ft_gmres;
pub mod reliability;
pub mod tmr_solve;

pub use ft_gmres::{
    ft_gmres, ft_gmres_with_policies, reliable_gmres, unreliable_gmres, FtGmresConfig,
    FtGmresReport,
};
pub use reliability::SrpCostLedger;
pub use tmr_solve::{compare_tmr_strategies, tmr_apply, TmrApplyResult, TmrCostComparison};
