//! Skeptical Programming (SkP, §II-A / §III-A): cheap mathematical checks
//! that detect silent data corruption, plus ABFT checksum kernels and a
//! bit-flip-resilient GMRES.

pub mod abft;
pub mod faulty;
pub mod sdc_gmres;

/// The configuration of [`SkepticalPolicy`](crate::kernel::SkepticalPolicy),
/// defined beside it; re-exported here because the frozen `perf_ledger`
/// imports it by this path.
pub use crate::kernel::SkepticalConfig;
pub use abft::{abft_gemm_trial, abft_spmv_trial, encode_spmv, AbftOutcome, AbftStats};
pub use faulty::random_spmv_fault;
pub use sdc_gmres::skeptical_gmres;
