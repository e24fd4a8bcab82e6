//! Cartesian process topologies and block decompositions.
//!
//! Neighborhood collectives (§II-B) and domain-decomposed PDE solvers
//! (§III-C) both need a notion of "my neighbours". This module provides 1-D
//! and 2-D Cartesian topologies with optional periodicity, plus the
//! block-distribution arithmetic used by the distributed vectors and the PDE
//! domains.

use serde::{Deserialize, Serialize};

/// A 1-D or 2-D Cartesian arrangement of ranks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CartTopology {
    /// Extent in each dimension (1 or 2 entries).
    pub dims: Vec<usize>,
    /// Periodicity per dimension.
    pub periodic: Vec<bool>,
}

impl CartTopology {
    /// A 1-D line (or ring, if `periodic`) of `p` ranks.
    pub fn line(p: usize, periodic: bool) -> Self {
        Self {
            dims: vec![p],
            periodic: vec![periodic],
        }
    }

    /// A 2-D grid of `px` × `py` ranks.
    pub fn grid2d(px: usize, py: usize, periodic: bool) -> Self {
        Self {
            dims: vec![px, py],
            periodic: vec![periodic, periodic],
        }
    }

    /// Total number of ranks in the topology.
    pub fn size(&self) -> usize {
        self.dims.iter().product()
    }

    /// Coordinates of `rank` (row-major: the last dimension varies fastest).
    pub fn coords(&self, rank: usize) -> Vec<usize> {
        let mut c = vec![0; self.dims.len()];
        let mut rem = rank;
        for d in (0..self.dims.len()).rev() {
            c[d] = rem % self.dims[d];
            rem /= self.dims[d];
        }
        c
    }

    /// Rank at the given coordinates.
    pub fn rank_of(&self, coords: &[usize]) -> usize {
        self.dims
            .iter()
            .zip(coords)
            .fold(0, |r, (&dim, &c)| r * dim + c)
    }

    /// Neighbour of `rank` at displacement `disp` (±1) along dimension `dim`,
    /// or `None` at a non-periodic boundary.
    pub fn shift(&self, rank: usize, dim: usize, disp: isize) -> Option<usize> {
        if dim >= self.dims.len() {
            return None;
        }
        let mut c = self.coords(rank);
        let extent = self.dims[dim] as isize;
        let pos = c[dim] as isize + disp;
        let pos = if self.periodic[dim] {
            ((pos % extent) + extent) % extent
        } else if pos < 0 || pos >= extent {
            return None;
        } else {
            pos
        };
        c[dim] = pos as usize;
        Some(self.rank_of(&c))
    }

    /// All existing nearest neighbours of `rank` (left/right, and up/down in
    /// 2-D), deduplicated and sorted.
    pub fn neighbors(&self, rank: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for dim in 0..self.dims.len() {
            for disp in [-1isize, 1] {
                if let Some(n) = self.shift(rank, dim, disp) {
                    if n != rank {
                        out.push(n);
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// A contiguous block distribution of `n` items over `p` parts, with the
/// remainder spread over the first `n % p` parts (the standard MPI block
/// distribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockDistribution {
    /// Total number of items.
    pub n: usize,
    /// Number of parts.
    pub p: usize,
}

impl BlockDistribution {
    /// Create a distribution of `n` items over `p` parts.
    pub fn new(n: usize, p: usize) -> Self {
        assert!(p > 0, "cannot distribute over zero parts");
        Self { n, p }
    }

    /// Number of items owned by `part`.
    pub fn count(&self, part: usize) -> usize {
        let base = self.n / self.p;
        let rem = self.n % self.p;
        base + usize::from(part < rem)
    }

    /// Global index of the first item owned by `part`.
    pub fn start(&self, part: usize) -> usize {
        let base = self.n / self.p;
        let rem = self.n % self.p;
        part * base + part.min(rem)
    }

    /// Half-open global index range owned by `part`.
    pub fn range(&self, part: usize) -> std::ops::Range<usize> {
        self.start(part)..self.start(part) + self.count(part)
    }

    /// Which part owns global index `i`?
    pub fn owner(&self, i: usize) -> usize {
        debug_assert!(i < self.n);
        // Binary search over the monotone `start` function.
        let (mut lo, mut hi) = (0usize, self.p - 1);
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if self.start(mid) <= i {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }

    /// Convert a global index to a `(part, local_index)` pair.
    pub fn to_local(&self, i: usize) -> (usize, usize) {
        let part = self.owner(i);
        (part, i - self.start(part))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_neighbors_non_periodic() {
        let t = CartTopology::line(4, false);
        assert_eq!(t.size(), 4);
        assert_eq!(t.neighbors(0), vec![1]);
        assert_eq!(t.neighbors(1), vec![0, 2]);
        assert_eq!(t.neighbors(3), vec![2]);
    }

    #[test]
    fn line_neighbors_periodic() {
        let t = CartTopology::line(4, true);
        assert_eq!(t.neighbors(0), vec![1, 3]);
        assert_eq!(t.neighbors(3), vec![0, 2]);
    }

    #[test]
    fn ring_of_two_has_single_neighbor() {
        let t = CartTopology::line(2, true);
        assert_eq!(t.neighbors(0), vec![1]);
    }

    #[test]
    fn grid_coords_roundtrip() {
        let t = CartTopology::grid2d(3, 4, false);
        assert_eq!(t.size(), 12);
        for r in 0..12 {
            assert_eq!(t.rank_of(&t.coords(r)), r);
        }
        assert_eq!(t.coords(0), vec![0, 0]);
        assert_eq!(t.coords(5), vec![1, 1]);
        assert_eq!(t.coords(11), vec![2, 3]);
    }

    #[test]
    fn grid_neighbors_interior_and_corner() {
        let t = CartTopology::grid2d(3, 3, false);
        // centre rank 4 at (1,1)
        assert_eq!(t.neighbors(4), vec![1, 3, 5, 7]);
        // corner rank 0 at (0,0)
        assert_eq!(t.neighbors(0), vec![1, 3]);
    }

    #[test]
    fn shift_periodic_wraps() {
        let t = CartTopology::grid2d(3, 3, true);
        assert_eq!(t.shift(0, 0, -1), Some(6));
        assert_eq!(t.shift(0, 1, -1), Some(2));
        let t = CartTopology::grid2d(3, 3, false);
        assert_eq!(t.shift(0, 0, -1), None);
        assert_eq!(t.shift(0, 5, 1), None, "bad dimension returns None");
    }

    #[test]
    fn block_distribution_counts_sum_to_n() {
        for &(n, p) in &[(10usize, 3usize), (7, 7), (5, 8), (100, 13), (0, 4)] {
            let d = BlockDistribution::new(n, p);
            let total: usize = (0..p).map(|i| d.count(i)).sum();
            assert_eq!(total, n, "n={n} p={p}");
            // Ranges are contiguous and non-overlapping.
            let mut next = 0;
            for i in 0..p {
                assert_eq!(d.start(i), next);
                next += d.count(i);
            }
        }
    }

    #[test]
    fn block_distribution_owner_is_consistent() {
        let d = BlockDistribution::new(23, 5);
        for i in 0..23 {
            let o = d.owner(i);
            assert!(d.range(o).contains(&i));
            let (part, local) = d.to_local(i);
            assert_eq!(part, o);
            assert_eq!(d.start(part) + local, i);
        }
    }

    #[test]
    fn block_distribution_remainder_goes_first() {
        let d = BlockDistribution::new(10, 3);
        assert_eq!(d.count(0), 4);
        assert_eq!(d.count(1), 3);
        assert_eq!(d.count(2), 3);
        assert_eq!(d.range(1), 4..7);
    }

    #[test]
    #[should_panic]
    fn zero_parts_panics() {
        BlockDistribution::new(4, 0);
    }
}
