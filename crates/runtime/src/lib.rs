//! # resilient-runtime
//!
//! An SPMD message-passing runtime — simulated in virtual time, or run for
//! real on threads under the wall clock — providing the system support the
//! four resilience-enabling programming models of Heroux, *"Toward Resilient
//! Algorithms and Applications"* (HPDC 2013), require:
//!
//! * **Relaxed bulk-synchronous programming (RBSP)** — blocking *and*
//!   nonblocking (MPI-3 style) collectives, neighborhood collectives, and a
//!   per-rank performance-variability (noise) model, all accounted in
//!   *virtual time* with an α–β latency model so that latency-hiding
//!   algorithms can be evaluated deterministically on a laptop.
//! * **Local-failure local-recovery (LFLR)** — fail-stop process-failure
//!   injection, ULFM-style failure notification (`ProcFailed` / `Revoked`
//!   errors instead of hangs), replacement-rank spawning, a recovery
//!   rendezvous, communicator shrinking, and a persistent per-rank store
//!   that survives rank death.
//! * **Checkpoint/restart (the baseline)** — a job-global stable store with
//!   a bandwidth cost model and an abort-the-whole-job failure policy, so
//!   CPR can be compared quantitatively against LFLR.
//!
//! Ranks are OS threads; messages travel over in-process mailboxes. There is
//! **one communicator, [`Comm<K>`](Comm), under two clocks**: the
//! communicator, the job's shared `World`, the launcher
//! loop, the collectives, the recovery protocol and the [`CommBackend`] impl
//! the kernels consume are written once, generic over a [`RankClock`] that
//! answers the only questions on which the backends differ:
//!
//! | the clock decides | [`VirtualClock`] ([`Comm`] under [`Runtime`]) | [`WallClock`] ([`ThreadComm`] under [`ThreadRuntime`]) |
//! |---|---|---|
//! | what time is | a number, advanced by charging work to it | wall seconds since the job started |
//! | how a cost is paid | added to the number (plus sampled noise on compute) | slept, or spun below 100 µs |
//! | when a rank dies | a [`FailureConfig`] schedule in virtual seconds | a [`DeathInjector`] asked at failure points |
//! | how long a parked wait may last | for ever — only completion or a failure ends it | `WAIT_DEADLINE` (60 s), then `Timeout` |
//! | whether to poll before parking | never (ranks outnumber cores) | iff `size ≤ available_parallelism` |
//!
//! Under the virtual clock results do not depend on the host's core count
//! and runs are deterministic; under the wall clock the same SPMD code is
//! *measured*, with real rendezvous and panic-based fault injection, turning
//! the simulator's predicted speedups into observed ones. Reductions fold in
//! a deterministic ascending-rank order under both, so failure-free solver
//! iterates are bit-identical across clocks.
//!
//! ## Quick start
//!
//! ```
//! use resilient_runtime::{ReduceOp, Runtime, RuntimeConfig};
//!
//! let runtime = Runtime::new(RuntimeConfig::fast());
//! let job = runtime.run(8, |comm| {
//!     // SPMD code: every rank executes this closure.
//!     let local = (comm.rank() + 1) as f64;
//!     let total = comm.allreduce_scalar(ReduceOp::Sum, local)?;
//!     Ok(total)
//! });
//! assert_eq!(job.unwrap_all(), vec![36.0; 8]);
//! ```

#![warn(missing_docs)]

mod backend;
mod clock;
mod collective;
mod comm;
mod config;
mod engine;
mod error;
mod failure;
mod health;
mod launcher;
mod mailbox;
mod message;
mod neighborhood;
mod noise;
mod nonblocking;
mod persistent;
mod stats;
mod threads;
mod topology;
mod ulfm;
mod world;

pub use backend::CommBackend;
pub use clock::{RankClock, VirtualClock};
pub use collective::ReduceOp;
pub use comm::Comm;
pub use config::{FailureConfig, FailurePolicy, LatencyModel, NoiseConfig, RuntimeConfig};
pub use error::{Result, RuntimeError};
pub use health::FailureEvent;
pub use launcher::{JobResult, Runtime};
pub use persistent::{StableStore, Stored};
pub use stats::RankStats;
pub use threads::{
    DeathContext, DeathInjector, ThreadComm, ThreadConfig, ThreadRuntime, WallClock,
};
pub use topology::{BlockDistribution, CartTopology};
pub use ulfm::{RecoveryInfo, ShrinkInfo};

/// The conformance suite both clocks are held to (see its module doc); it
/// lives with the other tests and is instantiated from this crate's unit
/// tests because some cases build communicators by hand.
#[cfg(test)]
#[path = "../tests/conformance/mod.rs"]
mod conformance;
