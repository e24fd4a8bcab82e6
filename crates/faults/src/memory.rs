//! The two-tier reliability cost model of Selective Reliability Programming
//! (§II-D).
//!
//! SRP lets the programmer "declare specific data and compute regions to be
//! more reliable than the bulk reliability of the underlying system". Work
//! is placed in a [`Reliability`] class and priced by a
//! [`ReliabilityModel`]; the corruption of the unreliable tier itself is a
//! [`StrikePlan`](crate::StrikePlan) struck into a solver's products.

use serde::{Deserialize, Serialize};

/// Reliability classes data and compute can be placed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Reliability {
    /// Never corrupted; costs `reliable_cost_factor` × the unreliable cost.
    Reliable,
    /// May be corrupted; unit cost.
    Unreliable,
}

/// Cost model of a two-tier (reliable / unreliable) memory system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReliabilityModel {
    /// Relative cost of reliable storage/compute versus unreliable
    /// (≥ 1; e.g. 2.0 for dual modular redundancy, 3.0 for TMR-backed
    /// reliability).
    pub reliable_cost_factor: f64,
}

impl Default for ReliabilityModel {
    fn default() -> Self {
        Self {
            reliable_cost_factor: 2.0,
        }
    }
}
