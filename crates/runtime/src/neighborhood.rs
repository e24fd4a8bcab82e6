//! Neighborhood (sparse) collectives: halo exchange.
//!
//! MPI-3 added neighborhood collectives precisely so that stencil-type
//! applications do not have to express nearest-neighbour communication as a
//! global operation. The PDE applications (§III-C) and the distributed
//! sparse matrix-vector product use these.

use std::collections::HashMap;

use crate::clock::RankClock;
use crate::comm::Comm;
use crate::error::Result;
use crate::topology::CartTopology;

/// Tag space reserved for halo exchange so it never collides with
/// application point-to-point tags.
const HALO_TAG_BASE: i32 = 1 << 20;

// The halo tag must not collide with small application tags, and
// `HALO_TAG_BASE + rank` must not overflow, for any plausible rank count.
const _: () = assert!(HALO_TAG_BASE > 1_000_000 / 2);
const _: () = assert!(HALO_TAG_BASE.checked_add(1_000_000).is_some());

/// `(from_left, from_right)` halo values returned by
/// [`Comm::exchange_boundaries_1d`]; `None` at a non-periodic boundary.
pub type BoundaryPair = (Option<Vec<f64>>, Option<Vec<f64>>);

impl<K: RankClock> Comm<K> {
    /// Exchange one `f64` vector with each neighbour: sends `sends[i]` to
    /// `neighbors[i]` and returns the vector received from each neighbour,
    /// in the same order.
    ///
    /// Every rank must call this with consistent neighbour lists (if `a`
    /// lists `b`, then `b` lists `a`); that is the same contract MPI's
    /// neighborhood collectives impose via the process topology.
    pub fn neighbor_exchange(
        &mut self,
        neighbors: &[usize],
        sends: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>> {
        assert_eq!(
            neighbors.len(),
            sends.len(),
            "one send buffer per neighbour is required"
        );
        self.failure_point()?;
        // Post all sends first (eager), then receive from each neighbour.
        // Tag with the *sender's* rank so receives can be matched per source.
        let my_rank = self.rank();
        for (&nbr, data) in neighbors.iter().zip(sends) {
            self.send_f64(nbr, HALO_TAG_BASE + my_rank as i32, data)?;
        }
        let mut received: HashMap<usize, Vec<f64>> = HashMap::with_capacity(neighbors.len());
        for &nbr in neighbors {
            let (_, data) = self.recv_f64(nbr, HALO_TAG_BASE + nbr as i32)?;
            received.insert(nbr, data);
        }
        Ok(neighbors
            .iter()
            .map(|n| received.remove(n).unwrap_or_default())
            .collect())
    }

    /// Halo exchange on a Cartesian topology: sends `sends[i]` to the `i`-th
    /// neighbour returned by [`CartTopology::neighbors`] for this rank, and
    /// returns the received vectors in the same order.
    pub fn halo_exchange(
        &mut self,
        topology: &CartTopology,
        sends: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>> {
        let neighbors = topology.neighbors(self.rank());
        self.neighbor_exchange(&neighbors, sends)
    }

    /// Convenience wrapper for 1-D domain decompositions: exchange the left
    /// and right boundary values with the left and right neighbours (if
    /// they exist). Returns `(from_left, from_right)`.
    pub fn exchange_boundaries_1d(
        &mut self,
        topology: &CartTopology,
        left_value: &[f64],
        right_value: &[f64],
    ) -> Result<BoundaryPair> {
        let rank = self.rank();
        let left = topology.shift(rank, 0, -1);
        let right = topology.shift(rank, 0, 1);
        let mut neighbors = Vec::new();
        let mut sends = Vec::new();
        if let Some(l) = left {
            neighbors.push(l);
            sends.push(left_value.to_vec());
        }
        if let Some(r) = right {
            neighbors.push(r);
            sends.push(right_value.to_vec());
        }
        let received = self.neighbor_exchange(&neighbors, &sends)?;
        let mut from_left = None;
        let mut from_right = None;
        for (&nbr, data) in neighbors.iter().zip(received) {
            if Some(nbr) == left {
                from_left = Some(data);
            } else if Some(nbr) == right {
                from_right = Some(data);
            }
        }
        Ok((from_left, from_right))
    }
}
