//! Error types for the simulated runtime.
//!
//! The error vocabulary deliberately mirrors the failure classes the ULFM
//! proposal exposes to applications: a *process failure* notice
//! ([`RuntimeError::ProcFailed`]), a *revoked communicator*
//! ([`RuntimeError::Revoked`]), and ordinary usage errors.

use std::fmt;

/// Result alias used across the runtime.
pub type Result<T> = std::result::Result<T, RuntimeError>;

/// Errors surfaced by communication and recovery operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// A peer process (rank) has failed. Communication involving it cannot
    /// complete. Carries the rank that was observed to have failed and the
    /// failure generation in which it was detected.
    ProcFailed {
        /// Rank observed to have failed.
        rank: usize,
        /// Failure generation (monotonically increasing per job).
        generation: u64,
    },
    /// The communicator has been revoked (ULFM `MPI_Comm_revoke` semantics):
    /// all pending and future operations on it fail until the application
    /// rebuilds a communicator via [`shrink`](crate::comm::Comm::shrink) or a
    /// recovery rendezvous.
    Revoked {
        /// Failure generation that triggered the revocation.
        generation: u64,
    },
    /// The calling rank itself has been scheduled to fail at this point.
    /// Application drivers usually never observe this variant: the rank
    /// thread is terminated by the runtime. It exists so that unit tests can
    /// exercise the failure path without killing threads.
    SelfFailed {
        /// Rank of the calling process.
        rank: usize,
    },
    /// A message with an unexpected payload type was received.
    TypeMismatch {
        /// What the receiver asked for.
        expected: &'static str,
        /// What was actually in the envelope.
        found: &'static str,
    },
    /// Rank index out of range for the communicator.
    InvalidRank {
        /// The offending rank.
        rank: usize,
        /// Size of the communicator.
        size: usize,
    },
    /// Mismatched collective payload lengths across ranks.
    CollectiveMismatch {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
    /// The requested persistent-store key does not exist.
    MissingPersistentKey {
        /// Owning rank.
        rank: usize,
        /// Key that was requested.
        key: String,
    },
    /// The job was aborted (checkpoint/restart policy) and must be restarted
    /// from the last checkpoint by the launcher.
    JobAborted {
        /// Failure generation that caused the abort.
        generation: u64,
    },
    /// Too many restarts / replacements were attempted.
    RetryLimitExceeded {
        /// Number of attempts made.
        attempts: usize,
    },
    /// A blocking wait under the wall clock (collective, recovery
    /// rendezvous or receive) outlived the clock's deadline: some
    /// participant never arrived. Reported instead of hanging; not a
    /// [failure](RuntimeError::is_failure) a recovery protocol can handle,
    /// because nobody is known to have died.
    Timeout {
        /// What was being waited for (the collective slot or the receive).
        waiting_for: String,
        /// Ranks (participant indices of that communicator) that had not
        /// arrived when the deadline passed.
        missing: Vec<usize>,
    },
    /// The rank's own function panicked (an `assert!`, an index out of
    /// bounds — a bug, not an injected failure). Reported for that rank;
    /// the job is aborted, so its peers get
    /// [`JobAborted`](RuntimeError::JobAborted) rather than wait for it.
    RankPanicked {
        /// World rank whose thread panicked.
        rank: usize,
        /// The panic message.
        message: String,
    },
    /// Generic invalid-argument error.
    InvalidArgument(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::ProcFailed { rank, generation } => {
                write!(f, "process failure: rank {rank} (generation {generation})")
            }
            RuntimeError::Revoked { generation } => {
                write!(f, "communicator revoked (generation {generation})")
            }
            RuntimeError::SelfFailed { rank } => write!(f, "rank {rank} scheduled to fail here"),
            RuntimeError::TypeMismatch { expected, found } => {
                write!(
                    f,
                    "payload type mismatch: expected {expected}, found {found}"
                )
            }
            RuntimeError::InvalidRank { rank, size } => {
                write!(f, "invalid rank {rank} for communicator of size {size}")
            }
            RuntimeError::CollectiveMismatch { detail } => {
                write!(f, "collective call mismatch: {detail}")
            }
            RuntimeError::MissingPersistentKey { rank, key } => {
                write!(f, "persistent store: rank {rank} has no key '{key}'")
            }
            RuntimeError::JobAborted { generation } => {
                write!(f, "job aborted by failure (generation {generation})")
            }
            RuntimeError::RetryLimitExceeded { attempts } => {
                write!(f, "retry limit exceeded after {attempts} attempts")
            }
            RuntimeError::Timeout {
                waiting_for,
                missing,
            } => write!(
                f,
                "timed out waiting for {waiting_for}: ranks {missing:?} never arrived"
            ),
            RuntimeError::RankPanicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            RuntimeError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl RuntimeError {
    /// True if the error indicates a peer (or self) process failure or a
    /// revoked communicator, i.e. the class of errors a resilient
    /// application is expected to *handle* rather than propagate.
    pub fn is_failure(&self) -> bool {
        matches!(
            self,
            RuntimeError::ProcFailed { .. }
                | RuntimeError::Revoked { .. }
                | RuntimeError::SelfFailed { .. }
                | RuntimeError::JobAborted { .. }
        )
    }

    /// The failure generation attached to the error, if any.
    pub fn generation(&self) -> Option<u64> {
        match self {
            RuntimeError::ProcFailed { generation, .. }
            | RuntimeError::Revoked { generation }
            | RuntimeError::JobAborted { generation } => Some(*generation),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_rank() {
        let e = RuntimeError::ProcFailed {
            rank: 3,
            generation: 2,
        };
        assert!(e.to_string().contains("rank 3"));
        assert!(e.to_string().contains("generation 2"));
    }

    #[test]
    fn failure_classification() {
        assert!(RuntimeError::ProcFailed {
            rank: 0,
            generation: 1
        }
        .is_failure());
        assert!(RuntimeError::Revoked { generation: 1 }.is_failure());
        assert!(RuntimeError::JobAborted { generation: 1 }.is_failure());
        assert!(!RuntimeError::InvalidArgument("x".into()).is_failure());
        assert!(!RuntimeError::Timeout {
            waiting_for: "barrier".into(),
            missing: vec![1]
        }
        .is_failure());
        assert!(!RuntimeError::TypeMismatch {
            expected: "f64",
            found: "u64"
        }
        .is_failure());
    }

    #[test]
    fn generation_extraction() {
        assert_eq!(
            RuntimeError::Revoked { generation: 7 }.generation(),
            Some(7)
        );
        assert_eq!(RuntimeError::InvalidArgument("x".into()).generation(), None);
    }
}
