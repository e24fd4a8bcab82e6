//! Message envelopes exchanged between ranks.
//!
//! Every message carries a vector of `f64`: the algorithms in this suite
//! exchange numeric vectors only, and the runtime charges communication
//! cost from the vector's length (8 bytes per value) without a
//! serialization pass.

/// Wildcard tag: matches any tag on receive.
pub(crate) const ANY_TAG: i32 = -1;
/// Wildcard source: matches any sender on receive.
pub(crate) const ANY_SOURCE: usize = usize::MAX;

/// A message in flight between two ranks.
#[derive(Debug, Clone)]
pub(crate) struct Message {
    /// Sending rank.
    pub source: usize,
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
    pub payload: Vec<f64>,
}

impl Message {
    /// Does this message match a receive posted for `(source, tag, epoch)`?
    pub(crate) fn matches(&self, source: usize, tag: i32, epoch: u64) -> bool {
        (source == ANY_SOURCE || self.source == source)
            && (tag == ANY_TAG || self.tag == tag)
            && self.epoch == epoch
    }

    /// Payload size in bytes.
    pub(crate) fn byte_len(&self) -> usize {
        self.payload.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(source: usize, tag: i32, epoch: u64) -> Message {
        Message {
            source,
            tag,
            epoch,
            sent_at: 0.0,
            payload: Vec::new(),
        }
    }

    #[test]
    fn byte_len_per_type() {
        assert_eq!(msg(0, 0, 0).byte_len(), 0);
        let m = Message {
            payload: vec![0.0; 3],
            ..msg(0, 0, 0)
        };
        assert_eq!(m.byte_len(), 24);
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
}
