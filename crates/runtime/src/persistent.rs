//! Persistent per-rank storage and the stable store.
//!
//! The LFLR model of §II-C requires that an application can "store specific
//! data persistently for each MPI process" so that a replacement process can
//! recover the failed process's state, possibly with help from neighbours.
//!
//! Two stores are provided:
//!
//! * [`PersistentStore`] — per-rank key/value storage that survives the death
//!   of the owning rank's thread but *not* a whole-job abort. This models
//!   node-local NVRAM / buddy-memory schemes and is the substrate for LFLR.
//!   Any rank may read any other rank's entries (neighbours assisting in
//!   recovery); writes are only allowed to the caller's own partition through
//!   [`Comm`](crate::comm::Comm) wrappers.
//! * [`StableStore`] — job-global storage that survives job aborts, modelling
//!   the parallel file system used by checkpoint/restart. Writes are charged
//!   a configurable virtual-time cost by the caller.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{Result, RuntimeError};

/// Typed values storable in the persistent / stable stores.
///
/// A closed enum keeps the store simple and `Clone`-able; the suite's
/// applications persist numeric state (solution vectors, time-step counters)
/// and occasionally opaque bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum Stored {
    /// A vector of f64 values.
    F64(Vec<f64>),
    /// A vector of u64 values.
    U64(Vec<u64>),
    /// A single scalar.
    Scalar(f64),
    /// Raw bytes.
    Bytes(Vec<u8>),
}

impl Stored {
    /// Approximate size in bytes, used to charge checkpoint cost.
    pub fn byte_len(&self) -> usize {
        match self {
            Stored::F64(v) => v.len() * 8,
            Stored::U64(v) => v.len() * 8,
            Stored::Scalar(_) => 8,
            Stored::Bytes(v) => v.len(),
        }
    }

    /// Extract an f64 vector.
    pub fn into_f64(self) -> Result<Vec<f64>> {
        match self {
            Stored::F64(v) => Ok(v),
            other => Err(RuntimeError::TypeMismatch {
                expected: "f64",
                found: other.type_name(),
            }),
        }
    }

    /// Extract a u64 vector.
    pub fn into_u64(self) -> Result<Vec<u64>> {
        match self {
            Stored::U64(v) => Ok(v),
            other => Err(RuntimeError::TypeMismatch {
                expected: "u64",
                found: other.type_name(),
            }),
        }
    }

    /// Extract a scalar.
    pub fn into_scalar(self) -> Result<f64> {
        match self {
            Stored::Scalar(v) => Ok(v),
            other => Err(RuntimeError::TypeMismatch {
                expected: "scalar",
                found: other.type_name(),
            }),
        }
    }

    /// Extract raw bytes.
    pub fn into_bytes(self) -> Result<Vec<u8>> {
        match self {
            Stored::Bytes(v) => Ok(v),
            other => Err(RuntimeError::TypeMismatch {
                expected: "bytes",
                found: other.type_name(),
            }),
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            Stored::F64(_) => "f64",
            Stored::U64(_) => "u64",
            Stored::Scalar(_) => "scalar",
            Stored::Bytes(_) => "bytes",
        }
    }
}

impl From<Vec<f64>> for Stored {
    fn from(v: Vec<f64>) -> Self {
        Stored::F64(v)
    }
}
impl From<Vec<u64>> for Stored {
    fn from(v: Vec<u64>) -> Self {
        Stored::U64(v)
    }
}
impl From<f64> for Stored {
    fn from(v: f64) -> Self {
        Stored::Scalar(v)
    }
}
impl From<Vec<u8>> for Stored {
    fn from(v: Vec<u8>) -> Self {
        Stored::Bytes(v)
    }
}

/// Per-rank persistent storage surviving rank failure.
#[derive(Debug)]
pub(crate) struct PersistentStore {
    partitions: Vec<RwLock<HashMap<String, Stored>>>,
}

impl PersistentStore {
    /// Create a store with one partition per rank.
    pub(crate) fn new(size: usize) -> Self {
        Self {
            partitions: (0..size).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    /// Store `value` under `key` in `rank`'s partition.
    pub(crate) fn put(&self, rank: usize, key: &str, value: Stored) -> Result<()> {
        let part = self.partition(rank)?;
        part.write().insert(key.to_string(), value);
        Ok(())
    }

    /// Fetch a copy of the value stored under `key` in `rank`'s partition.
    pub(crate) fn get(&self, rank: usize, key: &str) -> Result<Stored> {
        let part = self.partition(rank)?;
        part.read()
            .get(key)
            .cloned()
            .ok_or_else(|| RuntimeError::MissingPersistentKey {
                rank,
                key: key.to_string(),
            })
    }

    /// Does `rank`'s partition contain `key`?
    pub(crate) fn contains(&self, rank: usize, key: &str) -> bool {
        self.partition(rank)
            .map(|p| p.read().contains_key(key))
            .unwrap_or(false)
    }

    /// Remove `key` from `rank`'s partition, returning the previous value.
    pub(crate) fn remove(&self, rank: usize, key: &str) -> Option<Stored> {
        self.partition(rank)
            .ok()
            .and_then(|p| p.write().remove(key))
    }

    fn partition(&self, rank: usize) -> Result<&RwLock<HashMap<String, Stored>>> {
        self.partitions.get(rank).ok_or(RuntimeError::InvalidRank {
            rank,
            size: self.partitions.len(),
        })
    }
}

/// What only the unit tests use.
#[cfg(test)]
impl PersistentStore {
    /// Number of rank partitions.
    pub(crate) fn size(&self) -> usize {
        self.partitions.len()
    }

    /// Clear every partition.
    pub(crate) fn clear(&self) {
        for p in &self.partitions {
            p.write().clear();
        }
    }
}

/// Job-global stable storage (models the parallel file system used by
/// checkpoint/restart). Cheap to clone: clones share the same backing map,
/// so a store created by a CPR driver is visible to every job attempt.
#[derive(Debug, Clone, Default)]
pub struct StableStore {
    inner: Arc<RwLock<HashMap<String, Stored>>>,
}

impl StableStore {
    /// Create an empty stable store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write `value` under `key`. Returns the number of bytes written so the
    /// caller can charge checkpoint-bandwidth cost.
    pub fn put(&self, key: &str, value: Stored) -> usize {
        let bytes = value.byte_len();
        self.inner.write().insert(key.to_string(), value);
        bytes
    }

    /// Read a copy of the value under `key`.
    pub fn get(&self, key: &str) -> Option<Stored> {
        self.inner.read().get(key).cloned()
    }

    /// Does the store contain `key`?
    pub fn contains(&self, key: &str) -> bool {
        self.inner.read().contains_key(key)
    }

    /// Remove `key`.
    pub fn remove(&self, key: &str) -> Option<Stored> {
        self.inner.write().remove(key)
    }

    /// All keys, sorted.
    pub fn keys(&self) -> Vec<String> {
        let mut k: Vec<String> = self.inner.read().keys().cloned().collect();
        k.sort();
        k
    }

    /// Total bytes currently stored.
    pub fn total_bytes(&self) -> usize {
        self.inner.read().values().map(Stored::byte_len).sum()
    }

    /// Remove everything.
    pub fn clear(&self) {
        self.inner.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stored_byte_lengths() {
        assert_eq!(Stored::F64(vec![0.0; 4]).byte_len(), 32);
        assert_eq!(Stored::U64(vec![0; 2]).byte_len(), 16);
        assert_eq!(Stored::Scalar(1.0).byte_len(), 8);
        assert_eq!(Stored::Bytes(vec![0; 5]).byte_len(), 5);
    }

    #[test]
    fn stored_type_extraction() {
        assert_eq!(Stored::Scalar(2.5).into_scalar().unwrap(), 2.5);
        assert!(Stored::Scalar(2.5).into_f64().is_err());
        assert_eq!(Stored::F64(vec![1.0]).into_f64().unwrap(), vec![1.0]);
        assert_eq!(Stored::U64(vec![3]).into_u64().unwrap(), vec![3]);
        assert_eq!(Stored::Bytes(vec![9]).into_bytes().unwrap(), vec![9]);
        assert!(Stored::Bytes(vec![]).into_scalar().is_err());
    }

    #[test]
    fn persistent_put_get_roundtrip() {
        let store = PersistentStore::new(4);
        store.put(2, "state", vec![1.0, 2.0].into()).unwrap();
        assert_eq!(store.get(2, "state").unwrap(), Stored::F64(vec![1.0, 2.0]));
        assert!(store.contains(2, "state"));
        assert!(!store.contains(1, "state"));
        let keys: Vec<String> = store.partitions[2].read().keys().cloned().collect();
        assert_eq!(keys, vec!["state".to_string()]);
    }

    #[test]
    fn persistent_missing_key_is_error() {
        let store = PersistentStore::new(2);
        let err = store.get(0, "nope").unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::MissingPersistentKey { rank: 0, .. }
        ));
    }

    #[test]
    fn persistent_invalid_rank_is_error() {
        let store = PersistentStore::new(2);
        assert!(store.put(5, "x", 1.0.into()).is_err());
        assert!(store.get(5, "x").is_err());
        assert!(store.partitions.get(5).is_none());
    }

    #[test]
    fn persistent_neighbor_reads_allowed() {
        // Rank 1 stores; rank 0 (a neighbour assisting in recovery) reads.
        let store = PersistentStore::new(2);
        store.put(1, "halo", vec![7.0].into()).unwrap();
        assert_eq!(store.get(1, "halo").unwrap().into_f64().unwrap(), vec![7.0]);
    }

    #[test]
    fn persistent_overwrite_and_remove() {
        let store = PersistentStore::new(1);
        store.put(0, "k", 1.0.into()).unwrap();
        store.put(0, "k", 2.0.into()).unwrap();
        assert_eq!(store.get(0, "k").unwrap().into_scalar().unwrap(), 2.0);
        assert_eq!(store.remove(0, "k"), Some(Stored::Scalar(2.0)));
        assert!(!store.contains(0, "k"));
    }

    #[test]
    fn persistent_clear() {
        let store = PersistentStore::new(2);
        store.put(0, "a", 1.0.into()).unwrap();
        store.put(1, "b", 2.0.into()).unwrap();
        store.clear();
        assert!(!store.contains(0, "a"));
        assert!(!store.contains(1, "b"));
    }

    #[test]
    fn stable_store_shared_between_clones() {
        let s1 = StableStore::new();
        let s2 = s1.clone();
        let bytes = s1.put("ckpt/step", Stored::U64(vec![10]));
        assert_eq!(bytes, 8);
        assert_eq!(s2.get("ckpt/step").unwrap().into_u64().unwrap(), vec![10]);
        assert_eq!(s2.keys(), vec!["ckpt/step".to_string()]);
        assert_eq!(s2.total_bytes(), 8);
        s2.clear();
        assert!(s1.get("ckpt/step").is_none());
    }

    #[test]
    fn stable_store_remove() {
        let s = StableStore::new();
        s.put("a", Stored::Scalar(1.0));
        assert_eq!(s.remove("a"), Some(Stored::Scalar(1.0)));
        assert_eq!(s.remove("a"), None);
        assert!(!s.contains("a"));
    }
}
