//! # resilient-faults
//!
//! The fault vocabulary of the resilience suite. A silent corruption is a
//! [`Strike`]: one bit of one element of one application of an operation,
//! on one world rank and incarnation. A fail-stop death is a
//! [`ThreadDeathPlan`] entry (real threads) or a [`DeathEvent`] (campaign).
//!
//! * [`bitflip`] — the single-event upset itself: flip one bit of an `f64`;
//! * [`campaign`] — strike plans ([`StrikePlan`], fired by the kernel's
//!   space into SpMV and preconditioner outputs), rank-death event lists, a
//!   seeded adversarial family taxonomy, and a greedy schedule minimizer;
//! * [`thread_death`] — deterministic rank-death plans for the real-threads
//!   backend, delivered as `catch_unwind`-isolated panics;
//! * [`memory`] — the two-tier reliability cost model used by Selective
//!   Reliability Programming;
//! * [`tmr`] — triple-modular-redundancy voting and its tallies.

#![warn(missing_docs)]

pub mod bitflip;
pub mod campaign;
pub mod memory;
pub mod thread_death;
pub mod tmr;

pub use bitflip::flip_bit_f64;
pub use campaign::{DeathEvent, FaultFamily, FaultSchedule, ScheduleParams, Strike, StrikePlan};
pub use memory::{Reliability, ReliabilityModel};
pub use thread_death::ThreadDeathPlan;
pub use tmr::{tmr_vote_vectors, TmrOutcome, TmrStats};
