//! Serial Krylov solvers: CG, GMRES, flexible GMRES and the shared operator
//! and preconditioner abstractions.

pub mod cg;
pub mod common;
pub mod fgmres;
pub mod gmres;

pub use cg::{cg, pcg};
pub use common::{
    true_relative_residual, IdentityPreconditioner, JacobiPreconditioner, Operator, Preconditioner,
    SolveOptions, SolveOutcome, StopReason,
};
pub use fgmres::{fgmres, FgmresReport, FlexiblePreconditioner, IdentityFlexible};
pub use gmres::gmres;
