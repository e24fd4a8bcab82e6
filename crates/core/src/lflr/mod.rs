//! Local-Failure Local-Recovery (LFLR) and the global checkpoint/restart
//! baseline (§II-C, §III-C).
//!
//! * [`run_lflr`] drives a step-structured application under the
//!   `ReplaceRank` failure policy: when a rank dies, a replacement is
//!   spawned, all ranks meet in a recovery rendezvous, agree on the last
//!   globally persisted step, locally restore their state (the replacement
//!   restores the dead rank's state from the persistent store / its
//!   neighbours) and resume. Only the failed rank's state is rebuilt; the
//!   survivors keep working data they already have.
//! * [`run_cpr`] drives the same kind of application under the classic
//!   `AbortJob` policy: every failure kills the whole job, which the driver
//!   restarts from the last global checkpoint on the stable store, paying
//!   the full restart and re-execution cost. This is the baseline the paper
//!   argues stops scaling.
//! * [`protocol`] holds the LFLR protocol itself — [`recovery_epochs`] and
//!   the [`SnapshotRing`] — under both [`run_lflr`] and the Krylov client
//!   [`kernel::lflr_solve`](crate::kernel::lflr::lflr_solve).

pub mod cpr;
pub mod driver;
pub mod protocol;

pub use cpr::{run_cpr, CprApp, CprConfig, CprReport};
pub use driver::{run_lflr, LflrApp, LflrReport};
pub use protocol::{recovery_epochs, Epochs, SnapshotRing};
