//! # resilient-pde
//!
//! Domain-decomposed PDE applications exercising the paper's §III-C
//! "locally restarted PDE computations":
//!
//! * [`heat1d`] — the serial 1-D heat-equation reference with an analytic
//!   solution for verification;
//! * [`explicit`] — distributed explicit stepping implementing both the
//!   LFLR and the checkpoint/restart application contracts;
//! * [`implicit`] — backward-Euler stepping via distributed CG with
//!   pluggable lost-state recovery;
//! * [`coarse`] — the redundant coarse-model restriction/prolongation used
//!   to bootstrap implicit-state recovery.

#![warn(missing_docs)]

pub mod coarse;
pub mod explicit;
pub mod heat1d;
pub mod implicit;

pub use coarse::{prolongate, restrict};
pub use explicit::{ExplicitHeat, LocalField};
pub use heat1d::HeatProblem;
pub use implicit::{
    backward_euler_matrix, lost_state_recovery_error, ImplicitHeat, ImplicitRecovery,
};
