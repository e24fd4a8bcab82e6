//! # resilient-faults
//!
//! The fault vocabulary of the resilience suite. A silent corruption is a
//! [`Strike`]: one bit of one element of one application of an operation,
//! on one world rank and incarnation. A fail-stop death is a
//! [`ThreadDeathPlan`] entry (real threads) or an entry of a
//! [`FaultSchedule`]'s death list (campaign).
//!
//! * [`flip_bit_f64`] — the single-event upset itself: flip one bit of an
//!   `f64`;
//! * [`StrikePlan`] and [`FaultSchedule`] — strike plans (fired by the
//!   kernel's space into SpMV and preconditioner outputs), rank-death event
//!   lists, a seeded adversarial family taxonomy ([`FaultFamily`]), and a
//!   greedy schedule minimizer;
//! * [`ThreadDeathPlan`] — deterministic rank-death plans for the
//!   real-threads backend, delivered as `catch_unwind`-isolated panics;
//! * [`ReliabilityModel`] — the two-tier reliability cost model used by
//!   Selective Reliability Programming;
//! * [`tmr_vote_vectors`] and [`TmrStats`] — triple-modular-redundancy
//!   voting and its tallies.

#![warn(missing_docs)]

mod bitflip;
mod campaign;
mod memory;
mod thread_death;
mod tmr;

pub use bitflip::flip_bit_f64;
pub use campaign::{FaultFamily, FaultSchedule, ScheduleParams, Strike, StrikePlan};
pub use memory::{Reliability, ReliabilityModel};
pub use thread_death::ThreadDeathPlan;
pub use tmr::{tmr_vote_vectors, TmrOutcome, TmrStats};
