//! Selective Reliability Programming (SRP, §II-D / §III-D): reliable and
//! unreliable execution tiers, FT-GMRES (reliable outer, unreliable inner)
//! and the TMR cost ablation.

mod ft_gmres;
mod reliability;
mod tmr_solve;

pub(crate) use ft_gmres::FtGmresReport;
pub use ft_gmres::{
    ft_gmres, ft_gmres_with_policies, reliable_gmres, unreliable_gmres, FtGmresConfig,
};
pub use tmr_solve::{compare_tmr_strategies, tmr_apply};
