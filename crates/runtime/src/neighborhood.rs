//! Neighborhood (sparse) collectives: halo exchange.
//!
//! MPI-3 added neighborhood collectives precisely so that stencil-type
//! applications do not have to express nearest-neighbour communication as a
//! global operation. The PDE applications (§III-C) and the distributed
//! sparse matrix-vector product use these.

use crate::clock::RankClock;
use crate::comm::Comm;
use crate::error::{Result, RuntimeError};
use crate::topology::CartTopology;

/// Tag space reserved for halo exchange so it never collides with
/// application point-to-point tags.
const HALO_TAG_BASE: i32 = 1 << 20;

/// Tags of the 1-D boundary exchange, named by the direction a message
/// travels: on a ring of one or two ranks the left and the right neighbour
/// are the same rank, so the sender alone cannot tell the two halves apart.
const LEFTWARD_TAG: i32 = HALO_TAG_BASE - 1;
const RIGHTWARD_TAG: i32 = HALO_TAG_BASE - 2;

// The halo tags must not collide with small application tags, and
// `HALO_TAG_BASE + rank` must not overflow, for any plausible rank count.
const _: () = assert!(RIGHTWARD_TAG > 1_000_000 / 2);
const _: () = assert!(HALO_TAG_BASE.checked_add(1_000_000).is_some());

/// `(from_left, from_right)` halo values returned by
/// [`Comm::exchange_boundaries_1d`]; `None` at a non-periodic boundary.
pub type BoundaryPair = (Option<Vec<f64>>, Option<Vec<f64>>);

impl<K: RankClock> Comm<K> {
    /// Halo exchange on a Cartesian topology: sends `sends[i]` to the `i`-th
    /// neighbour returned by [`CartTopology::neighbors`] for this rank, and
    /// returns the received vectors in the same order.
    ///
    /// Every rank of the topology must call this; that is the same contract
    /// MPI's neighborhood collectives impose via the process topology. A
    /// `sends` that does not hold one buffer per neighbour is an
    /// [`RuntimeError::InvalidArgument`], returned before anything is sent.
    pub fn halo_exchange(
        &mut self,
        topology: &CartTopology,
        sends: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>> {
        let my_rank = self.rank();
        let neighbors = topology.neighbors(my_rank);
        if neighbors.len() != sends.len() {
            return Err(RuntimeError::InvalidArgument(format!(
                "halo_exchange: {} send buffers for {} neighbours",
                sends.len(),
                neighbors.len()
            )));
        }
        self.failure_point()?;
        // Post all sends first (eager), then receive from each neighbour.
        // `neighbors` lists each rank once, so the sender's rank is a tag
        // that matches every receive to its source.
        for (&nbr, data) in neighbors.iter().zip(sends) {
            self.send_f64(nbr, HALO_TAG_BASE + my_rank as i32, data)?;
        }
        neighbors
            .iter()
            .map(|&nbr| Ok(self.recv_f64(nbr, HALO_TAG_BASE + nbr as i32)?.1))
            .collect()
    }

    /// Convenience wrapper for 1-D domain decompositions: exchange the left
    /// and right boundary values with the left and right neighbours (if
    /// they exist). Returns `(from_left, from_right)`: what the left
    /// neighbour sent rightwards and what the right neighbour sent
    /// leftwards.
    pub fn exchange_boundaries_1d(
        &mut self,
        topology: &CartTopology,
        left_value: &[f64],
        right_value: &[f64],
    ) -> Result<BoundaryPair> {
        let rank = self.rank();
        let left = topology.shift(rank, 0, -1);
        let right = topology.shift(rank, 0, 1);
        self.failure_point()?;
        if let Some(l) = left {
            self.send_f64(l, LEFTWARD_TAG, left_value)?;
        }
        if let Some(r) = right {
            self.send_f64(r, RIGHTWARD_TAG, right_value)?;
        }
        let from_left = match left {
            Some(l) => Some(self.recv_f64(l, RIGHTWARD_TAG)?.1),
            None => None,
        };
        let from_right = match right {
            Some(r) => Some(self.recv_f64(r, LEFTWARD_TAG)?.1),
            None => None,
        };
        Ok((from_left, from_right))
    }
}

#[cfg(test)]
mod tests {
    use crate::config::RuntimeConfig;
    use crate::error::RuntimeError;
    use crate::launcher::Runtime;
    use crate::topology::CartTopology;

    /// Each rank sends `10 + rank` leftwards and `20 + rank` rightwards.
    fn boundaries(size: usize, periodic: bool) -> Vec<(Option<f64>, Option<f64>)> {
        let rt = Runtime::new(RuntimeConfig::fast());
        rt.run(size, move |comm| {
            let topo = CartTopology::line(comm.size(), periodic);
            let me = comm.rank() as f64;
            let (l, r) = comm.exchange_boundaries_1d(&topo, &[10.0 + me], &[20.0 + me])?;
            let single = |v: Vec<f64>| {
                assert_eq!(v.len(), 1);
                v[0]
            };
            Ok((l.map(single), r.map(single)))
        })
        .unwrap_all()
    }

    #[test]
    fn boundary_exchange_keeps_directions_apart_when_both_neighbours_coincide() {
        assert_eq!(boundaries(1, true), vec![(Some(20.0), Some(10.0))]);
        assert_eq!(
            boundaries(2, true),
            vec![(Some(21.0), Some(11.0)), (Some(20.0), Some(10.0))]
        );
        assert_eq!(
            boundaries(3, true),
            vec![
                (Some(22.0), Some(11.0)),
                (Some(20.0), Some(12.0)),
                (Some(21.0), Some(10.0)),
            ]
        );
        assert_eq!(
            boundaries(4, false),
            vec![
                (None, Some(11.0)),
                (Some(20.0), Some(12.0)),
                (Some(21.0), Some(13.0)),
                (Some(22.0), None),
            ]
        );
    }

    #[test]
    fn halo_exchange_with_the_wrong_buffer_count_is_an_invalid_argument() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let r = rt.run(3, |comm| {
            let topo = CartTopology::line(comm.size(), true);
            let err = comm.halo_exchange(&topo, &[vec![1.0]]).unwrap_err();
            Ok((err, comm.snapshot_stats().messages_sent))
        });
        for (err, sent) in r.unwrap_all() {
            assert!(matches!(err, RuntimeError::InvalidArgument(_)), "{err}");
            assert_eq!(sent, 0);
        }
    }
}
