//! Serial Krylov solvers — CG, GMRES, flexible GMRES — each a preset of the
//! unified kernel over a 1-rank space, and their outcome type.

mod cg;
mod common;
mod fgmres;
mod gmres;

pub use cg::cg;
pub(crate) use common::{measured, one_rank, solve_on_one_rank, ONE_RANK};
pub use common::{true_relative_residual, SolveOutcome};
pub use fgmres::fgmres;
pub use gmres::gmres;
pub(crate) use gmres::gmres_on;
