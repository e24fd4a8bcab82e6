//! # resilient-pde
//!
//! Domain-decomposed PDE applications exercising the paper's §III-C
//! "locally restarted PDE computations":
//!
//! * [`HeatProblem`] — the serial 1-D heat-equation reference with an
//!   analytic solution for verification;
//! * [`ExplicitHeat`] — distributed explicit stepping implementing both the
//!   LFLR and the checkpoint/restart application contracts;
//! * [`ImplicitHeat`] — backward-Euler stepping via distributed CG with
//!   pluggable lost-state recovery ([`ImplicitRecovery`]), one option of
//!   which is the redundant coarse-model restriction/prolongation that
//!   bootstraps implicit-state recovery.

#![warn(missing_docs)]

mod coarse;
mod explicit;
mod heat1d;
mod implicit;

pub use explicit::ExplicitHeat;
pub use heat1d::HeatProblem;
pub use implicit::{
    backward_euler_matrix, lost_state_recovery_error, ImplicitHeat, ImplicitRecovery,
};
