//! Keyed preconditioner-setup cache.
//!
//! The "millions of users" workload solves many right-hand sides against a
//! small set of operators, so the dominant repeated cost after the SpMVs is
//! [`BlockJacobi`] setup: a band LU factorization (`≈ 2·n·kl·(kl+ku)`
//! FLOPs; `2n³⁄3` when the block has no band to exploit) per rank per
//! solve. [`SetupCache`] memoizes those local factors keyed by the
//! operator's per-rank [`DistCsr::fingerprint`] — a checksum over structure
//! *and* values, so any drift in the matrix (new nonzeros, updated
//! coefficients, a different row partition after shrink recovery) misses
//! the cache instead of silently reusing a stale factorization.
//!
//! Entries age on a **logical clock** the owner advances with
//! [`SetupCache::tick`] (one tick per solve, per batch, per epoch — the
//! unit is the caller's): wall-clock time is banned outside the runtime by
//! the repo's virtual-time rule, and logical ticks keep eviction
//! deterministic and testable. A TTL of `u64::MAX` (the default) never
//! expires; [`SetupCache::invalidate`] and [`SetupCache::clear`] are the
//! explicit paths for operators known to have changed.
//!
//! The cache is purely rank-local state — it holds no communicator and
//! performs no collectives — so each rank of a distributed solve owns its
//! own instance, exactly like the [`BlockJacobi`] instances it feeds.

use std::collections::HashMap;
use std::sync::Arc;

use resilient_linalg::LuFactors;

use super::precond::BlockJacobi;
use crate::distributed::DistCsr;

/// One memoized factorization with the tick it was stored (or refreshed) at.
#[derive(Debug, Clone)]
struct CacheEntry {
    lu: Arc<LuFactors>,
    stamp: u64,
}

/// A keyed cache of [`BlockJacobi`] local LU factors with TTL and explicit
/// invalidation. See the [module docs](self) for the keying and clock
/// discipline.
#[derive(Debug, Default)]
pub struct SetupCache {
    entries: HashMap<u64, CacheEntry>,
    /// Entries older than this many ticks are refactored on next lookup.
    ttl: u64,
    /// Logical clock; advanced only by [`SetupCache::tick`].
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl SetupCache {
    /// An empty cache whose entries never expire (explicit invalidation
    /// only).
    pub fn new() -> Self {
        Self {
            entries: HashMap::new(),
            ttl: u64::MAX,
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// An empty cache whose entries expire `ttl` ticks after being stored.
    /// `ttl = 0` disables caching entirely (every lookup refactors).
    pub fn with_ttl(ttl: u64) -> Self {
        Self { ttl, ..Self::new() }
    }

    /// Advance the logical clock by one tick. The caller defines the tick's
    /// meaning (one solve, one batch, one outer epoch); expiry compares
    /// store-tick against the current tick.
    pub fn tick(&mut self) {
        self.clock += 1;
    }

    /// A [`BlockJacobi`] for `a`'s diagonal block: cache hit shares the
    /// memoized factors (a reference-count bump — zero factorization work,
    /// **zero setup FLOPs charged** at first apply); miss or an expired entry factors fresh,
    /// stores the result stamped with the current tick, and returns a
    /// preconditioner that charges full setup like [`BlockJacobi::new`].
    pub fn block_jacobi(&mut self, a: &DistCsr) -> BlockJacobi {
        let key = a.fingerprint();
        if let Some(entry) = self.entries.get(&key) {
            if self.clock.saturating_sub(entry.stamp) < self.ttl {
                self.hits += 1;
                return BlockJacobi::from_factors(Arc::clone(&entry.lu));
            }
            // Expired: drop the stale factors and fall through to refactor.
            self.entries.remove(&key);
            self.evictions += 1;
        }
        self.misses += 1;
        let bj = BlockJacobi::new(a);
        self.entries.insert(
            key,
            CacheEntry {
                lu: Arc::clone(bj.factors()),
                stamp: self.clock,
            },
        );
        bj
    }

    /// Drop the entry for `fingerprint` if present (the explicit path for
    /// an operator known to have changed). Returns whether one was dropped.
    pub fn invalidate(&mut self, fingerprint: u64) -> bool {
        let dropped = self.entries.remove(&fingerprint).is_some();
        if dropped {
            self.evictions += 1;
        }
        dropped
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.evictions += self.entries.len() as u64;
        self.entries.clear();
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

    /// Lookups that had to factor (cold or expired).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries dropped by expiry, invalidation or clear.
    pub fn evictions(&self) -> u64 {
        self.evictions
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
    fn ttl_expiry_refactors_instead_of_reusing() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let result = rt.run(1, move |comm| {
            let a = poisson2d(5, 5);
            let da = DistCsr::from_global(comm, &a)?;
            let mut cache = SetupCache::with_ttl(2);
            let _ = cache.block_jacobi(&da);
            cache.tick();
            let inside = cache.block_jacobi(&da).pending_setup_flops();
            cache.tick();
            let expired = cache.block_jacobi(&da).pending_setup_flops();
            Ok((inside, expired, cache.evictions()))
        });
        for (inside, expired, evictions) in result.unwrap_all() {
            assert_eq!(inside, 0, "within TTL: hit");
            assert!(expired > 0, "past TTL: refactor");
            assert_eq!(evictions, 1);
        }
    }

    #[test]
    fn invalidate_and_clear_drop_entries() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let result = rt.run(1, move |comm| {
            let a = poisson2d(4, 4);
            let da = DistCsr::from_global(comm, &a)?;
            let mut cache = SetupCache::new();
            let _ = cache.block_jacobi(&da);
            assert_eq!(cache.len(), 1);
            assert!(cache.invalidate(da.fingerprint()));
            assert!(!cache.invalidate(da.fingerprint()), "already gone");
            let refactored = cache.block_jacobi(&da).pending_setup_flops();
            cache.clear();
            Ok((refactored, cache.is_empty()))
        });
        for (refactored, empty) in result.unwrap_all() {
            assert!(refactored > 0, "invalidation must force a refactor");
            assert!(empty);
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
