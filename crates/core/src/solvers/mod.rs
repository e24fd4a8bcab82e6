//! Serial Krylov solvers — CG, GMRES, flexible GMRES — each a preset of the
//! unified kernel over a 1-rank space, and their outcome type.

pub mod cg;
pub mod common;
pub mod fgmres;
pub mod gmres;

pub use cg::cg;
pub use common::{true_relative_residual, SolveOutcome};
pub use fgmres::fgmres;
pub use gmres::gmres;
