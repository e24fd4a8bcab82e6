//! Keyed preconditioner-setup cache.
//!
//! The "millions of users" workload solves many right-hand sides against a
//! small set of operators, so the dominant repeated cost after the SpMVs is
//! [`BlockJacobi`] setup: a band LU factorization per rank per solve,
//! charged `≈ 2·n·kl·(kl+ku)` FLOPs (`2n³⁄3` when the block has no band to
//! exploit) and executing `≈ 2·n·kl·ku` when no row swaps, since each
//! row is updated only to its reach. [`SetupCache`] memoizes those local factors keyed by the
//! operator's per-rank [`DistCsr::fingerprint`] — a checksum over structure
//! *and* values, so any drift in the matrix (new nonzeros, updated
//! coefficients, a different row partition after shrink recovery) misses
//! the cache instead of silently reusing a stale factorization.
//!
//! Entries live as long as the cache: the key already changes whenever
//! the operator does, so nothing needs to expire or be invalidated.
//!
//! The cache is purely rank-local state — it holds no communicator and
//! performs no collectives — so each rank of a distributed solve owns its
//! own instance, exactly like the [`BlockJacobi`] instances it feeds.

use std::collections::HashMap;
use std::sync::Arc;

use resilient_linalg::LuFactors;

use super::precond::BlockJacobi;
use crate::distributed::DistCsr;

/// A keyed cache of [`BlockJacobi`] local LU factors. See the
/// module docs of `kernel/cache.rs` for the keying.
#[derive(Debug, Default)]
pub struct SetupCache {
    entries: HashMap<u64, Arc<LuFactors>>,
    hits: u64,
    misses: u64,
}

impl SetupCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// A [`BlockJacobi`] for `a`'s diagonal block: cache hit shares the
    /// memoized factors (a reference-count bump — zero factorization work,
    /// **zero setup FLOPs charged** at first apply); a miss factors fresh,
    /// stores the result, and returns a preconditioner that charges full
    /// setup like [`BlockJacobi::new`].
    pub fn block_jacobi(&mut self, a: &DistCsr) -> BlockJacobi {
        let key = a.fingerprint();
        if let Some(lu) = self.entries.get(&key) {
            self.hits += 1;
            return BlockJacobi::from_factors(Arc::clone(lu));
        }
        self.misses += 1;
        let bj = BlockJacobi::new(a);
        self.entries.insert(key, Arc::clone(bj.factors()));
        bj
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to factor.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilient_linalg::poisson2d;
    use resilient_runtime::{Runtime, RuntimeConfig};

    #[test]
    fn hit_skips_setup_flops_and_miss_pays_them() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let result = rt.run(2, move |comm| {
            let a = poisson2d(6, 6);
            let da = DistCsr::from_global(comm, &a)?;
            let mut cache = SetupCache::new();
            let cold = cache.block_jacobi(&da);
            let warm = cache.block_jacobi(&da);
            Ok((
                cold.pending_setup_flops(),
                warm.pending_setup_flops(),
                cache.hits(),
                cache.misses(),
            ))
        });
        for (cold_setup, warm_setup, hits, misses) in result.unwrap_all() {
            assert!(cold_setup > 0, "cold lookup must owe full setup");
            assert_eq!(warm_setup, 0, "warm lookup must owe nothing");
            assert_eq!((hits, misses), (1, 1));
        }
    }

    #[test]
    fn different_operators_do_not_collide() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let result = rt.run(2, move |comm| {
            let da1 = DistCsr::from_global(comm, &poisson2d(5, 5))?;
            let da2 = DistCsr::from_global(comm, &poisson2d(5, 6))?;
            let mut cache = SetupCache::new();
            let _ = cache.block_jacobi(&da1);
            let second = cache.block_jacobi(&da2).pending_setup_flops();
            Ok((second, cache.len(), cache.misses()))
        });
        for (second, len, misses) in result.unwrap_all() {
            assert!(second > 0, "a different operator is a miss");
            assert_eq!(len, 2);
            assert_eq!(misses, 2);
        }
    }
}
