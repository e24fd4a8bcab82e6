//! Triple modular redundancy (TMR).
//!
//! §II-D notes that "even very expensive approaches such as triple modular
//! redundancy can still be much faster than a fully unreliable approach".
//! [`tmr_vote_vectors`] majority-votes three replicas of a vector element by
//! element; [`TmrStats`] tallies the [`TmrOutcome`]s the E7 ablation
//! reports.

/// Outcome of one TMR-protected execution.
#[derive(Debug, Clone, PartialEq)]
pub enum TmrOutcome<T> {
    /// At least two replicas agreed.
    Agreed {
        /// The agreed value.
        value: T,
        /// True if one replica disagreed (an error was masked).
        masked_error: bool,
    },
    /// All three replicas disagreed: the error is detected but cannot be
    /// masked.
    NoMajority {
        /// The three replica outputs, for diagnostics.
        replicas: [T; 3],
    },
}

/// Vote over three `f64` vectors element-wise with a relative tolerance.
/// Returns the element-wise majority (or `None` where all three disagree,
/// in which case the whole vote fails).
pub fn tmr_vote_vectors(a: &[f64], b: &[f64], c: &[f64], rel_tol: f64) -> Option<Vec<f64>> {
    if a.len() != b.len() || a.len() != c.len() {
        return None;
    }
    let close = |x: f64, y: f64| {
        let scale = x.abs().max(y.abs()).max(1.0);
        (x - y).abs() <= rel_tol * scale
    };
    let mut out = Vec::with_capacity(a.len());
    for i in 0..a.len() {
        let v = if close(a[i], b[i]) || close(a[i], c[i]) {
            a[i]
        } else if close(b[i], c[i]) {
            b[i]
        } else {
            return None;
        };
        out.push(v);
    }
    Some(out)
}

/// Aggregate statistics of a TMR campaign.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TmrStats {
    /// Total protected executions.
    pub executions: u64,
    /// Executions where all replicas agreed (no error present or all
    /// corrupted identically, which is vanishingly unlikely).
    pub unanimous: u64,
    /// Executions where one replica was out-voted (error masked).
    pub masked: u64,
    /// Executions with no majority (error detected, not masked).
    pub failed: u64,
}

impl TmrStats {
    /// Record one outcome.
    pub fn record<T>(&mut self, outcome: &TmrOutcome<T>) {
        self.executions += 1;
        match outcome {
            TmrOutcome::Agreed {
                masked_error: false,
                ..
            } => self.unanimous += 1,
            TmrOutcome::Agreed {
                masked_error: true, ..
            } => self.masked += 1,
            TmrOutcome::NoMajority { .. } => self.failed += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_vote_masks_elementwise() {
        let clean = vec![1.0, 2.0, 3.0];
        let mut corrupted = clean.clone();
        corrupted[1] = 100.0;
        let voted = tmr_vote_vectors(&clean, &corrupted, &clean, 1e-12).unwrap();
        assert_eq!(voted, clean);
        let voted = tmr_vote_vectors(&corrupted, &clean, &clean, 1e-12).unwrap();
        assert_eq!(voted, clean);
    }

    #[test]
    fn vector_vote_fails_on_three_way_disagreement() {
        assert!(tmr_vote_vectors(&[1.0], &[2.0], &[3.0], 1e-12).is_none());
        assert!(tmr_vote_vectors(&[1.0], &[1.0, 2.0], &[1.0], 1e-12).is_none());
    }

    #[test]
    fn vector_vote_respects_tolerance() {
        let a = [1.0, 2.0];
        let b = [1.0 + 1e-14, 2.0];
        let c = [5.0, 2.0 - 1e-14];
        let voted = tmr_vote_vectors(&a, &b, &c, 1e-12).unwrap();
        assert_eq!(voted, vec![1.0, 2.0]);
    }

    #[test]
    fn stats_accumulate() {
        let mut stats = TmrStats::default();
        stats.record(&TmrOutcome::Agreed {
            value: 1,
            masked_error: false,
        });
        stats.record(&TmrOutcome::Agreed {
            value: 1,
            masked_error: true,
        });
        stats.record(&TmrOutcome::NoMajority {
            replicas: [0, 1, 2],
        });
        assert_eq!(stats.executions, 3);
        assert_eq!(stats.unanimous, 1);
        assert_eq!(stats.masked, 1);
        assert_eq!(stats.failed, 1);
    }
}
