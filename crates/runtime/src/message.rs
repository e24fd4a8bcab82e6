//! Message envelopes exchanged between ranks.
//!
//! Payloads are a small closed set of dense types because the algorithms in
//! this suite exchange numeric vectors and occasionally control words; a
//! closed enum keeps serialization trivial and lets the runtime charge
//! communication cost from the payload size without a serialization pass.

use crate::error::{Result, RuntimeError};

/// Wildcard tag: matches any tag on receive.
pub const ANY_TAG: i32 = -1;
/// Wildcard source: matches any sender on receive.
pub const ANY_SOURCE: usize = usize::MAX;

/// Typed message payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Empty payload (synchronization-only message).
    Empty,
    /// Vector of 64-bit floats.
    F64(Vec<f64>),
    /// Vector of 64-bit unsigned integers.
    U64(Vec<u64>),
    /// Raw bytes.
    Bytes(Vec<u8>),
}

impl Payload {
    /// Size of the payload in bytes, used for communication cost accounting.
    pub fn byte_len(&self) -> usize {
        match self {
            Payload::Empty => 0,
            Payload::F64(v) => v.len() * std::mem::size_of::<f64>(),
            Payload::U64(v) => v.len() * std::mem::size_of::<u64>(),
            Payload::Bytes(v) => v.len(),
        }
    }

    /// Human-readable type name, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Payload::Empty => "empty",
            Payload::F64(_) => "f64",
            Payload::U64(_) => "u64",
            Payload::Bytes(_) => "bytes",
        }
    }

    /// Extract an `f64` vector or report a type mismatch.
    pub fn into_f64(self) -> Result<Vec<f64>> {
        match self {
            Payload::F64(v) => Ok(v),
            other => Err(RuntimeError::TypeMismatch {
                expected: "f64",
                found: other.type_name(),
            }),
        }
    }

    /// Extract a `u64` vector or report a type mismatch.
    pub fn into_u64(self) -> Result<Vec<u64>> {
        match self {
            Payload::U64(v) => Ok(v),
            other => Err(RuntimeError::TypeMismatch {
                expected: "u64",
                found: other.type_name(),
            }),
        }
    }

    /// Extract raw bytes or report a type mismatch.
    pub fn into_bytes(self) -> Result<Vec<u8>> {
        match self {
            Payload::Bytes(v) => Ok(v),
            other => Err(RuntimeError::TypeMismatch {
                expected: "bytes",
                found: other.type_name(),
            }),
        }
    }
}

impl From<Vec<f64>> for Payload {
    fn from(v: Vec<f64>) -> Self {
        Payload::F64(v)
    }
}

impl From<Vec<u64>> for Payload {
    fn from(v: Vec<u64>) -> Self {
        Payload::U64(v)
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload::Bytes(v)
    }
}

impl From<&[f64]> for Payload {
    fn from(v: &[f64]) -> Self {
        Payload::F64(v.to_vec())
    }
}

/// A message in flight between two ranks.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sending rank.
    pub source: usize,
    /// Destination rank.
    pub dest: usize,
    /// User tag (non-negative; [`ANY_TAG`] is reserved for receives).
    pub tag: i32,
    /// Communication epoch in which the message was sent; receives filter on
    /// the current epoch so that messages from before a recovery rendezvous
    /// cannot be mistaken for fresh data.
    pub epoch: u64,
    /// When the message's latency window opened on the sender's clock
    /// ([`RankClock::window_opens`](crate::clock::RankClock::window_opens)).
    pub sent_at: f64,
    /// Payload.
    pub payload: Payload,
}

impl Message {
    /// Does this message match a receive posted for `(source, tag, epoch)`?
    pub fn matches(&self, source: usize, tag: i32, epoch: u64) -> bool {
        (source == ANY_SOURCE || self.source == source)
            && (tag == ANY_TAG || self.tag == tag)
            && self.epoch == epoch
    }

    /// Payload size in bytes.
    pub fn byte_len(&self) -> usize {
        self.payload.byte_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(source: usize, tag: i32, epoch: u64) -> Message {
        Message {
            source,
            dest: 0,
            tag,
            epoch,
            sent_at: 0.0,
            payload: Payload::Empty,
        }
    }

    #[test]
    fn byte_len_per_type() {
        assert_eq!(Payload::Empty.byte_len(), 0);
        assert_eq!(Payload::F64(vec![0.0; 3]).byte_len(), 24);
        assert_eq!(Payload::U64(vec![0; 2]).byte_len(), 16);
        assert_eq!(Payload::Bytes(vec![0; 7]).byte_len(), 7);
    }

    #[test]
    fn into_f64_type_checks() {
        assert_eq!(
            Payload::F64(vec![1.0, 2.0]).into_f64().unwrap(),
            vec![1.0, 2.0]
        );
        let err = Payload::U64(vec![1]).into_f64().unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::TypeMismatch {
                expected: "f64",
                ..
            }
        ));
    }

    #[test]
    fn into_u64_and_bytes() {
        assert_eq!(Payload::U64(vec![5]).into_u64().unwrap(), vec![5]);
        assert_eq!(Payload::Bytes(vec![1, 2]).into_bytes().unwrap(), vec![1, 2]);
        assert!(Payload::Empty.into_u64().is_err());
        assert!(Payload::F64(vec![]).into_bytes().is_err());
    }

    #[test]
    fn matching_rules() {
        let m = msg(3, 7, 1);
        assert!(m.matches(3, 7, 1));
        assert!(m.matches(ANY_SOURCE, 7, 1));
        assert!(m.matches(3, ANY_TAG, 1));
        assert!(m.matches(ANY_SOURCE, ANY_TAG, 1));
        assert!(!m.matches(2, 7, 1));
        assert!(!m.matches(3, 8, 1));
        assert!(!m.matches(3, 7, 2), "stale-epoch messages must not match");
    }

    #[test]
    fn from_impls() {
        let p: Payload = vec![1.0f64, 2.0].into();
        assert_eq!(p.byte_len(), 16);
        let p: Payload = vec![1u64].into();
        assert_eq!(p.byte_len(), 8);
        let p: Payload = vec![1u8, 2, 3].into();
        assert_eq!(p.byte_len(), 3);
        let slice: &[f64] = &[1.0, 2.0, 3.0];
        let p: Payload = slice.into();
        assert_eq!(p.byte_len(), 24);
    }
}
