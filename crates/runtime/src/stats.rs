//! Per-rank and job-level statistics.

use serde::{Deserialize, Serialize};

/// Statistics accumulated by one rank (one incarnation).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RankStats {
    /// Rank id.
    pub rank: usize,
    /// Incarnation number (0 = original process).
    pub incarnation: u64,
    /// Final time of the rank on its clock: virtual seconds under the
    /// virtual clock, wall seconds since job start under the wall clock
    /// (the name predates the second clock).
    pub virtual_time: f64,
    /// Time attributed to computation (under the wall clock: the *emulated*
    /// part, charged on top of real execution; likewise below).
    pub compute_time: f64,
    /// Time attributed to waiting on communication.
    pub comm_wait_time: f64,
    /// Time attributed to injected noise (virtual clock only).
    pub noise_time: f64,
    /// Time attributed to recovery.
    pub recovery_time: f64,
    /// Point-to-point messages sent.
    pub messages_sent: u64,
    /// Bytes sent point-to-point.
    pub bytes_sent: u64,
    /// Collective operations completed (blocking and nonblocking).
    pub collectives: u64,
    /// Number of recovery rendezvous this rank participated in.
    pub recoveries: u64,
    /// Bytes written to the stable store (checkpoints).
    pub checkpoint_bytes: u64,
    /// FLOPs attributed to resilience checks (skeptical invariants, ABFT
    /// verification, redundant residual evaluations). An attribution ledger:
    /// the operations performing the checks charge their own virtual time;
    /// this tracks how much of that arithmetic was resilience overhead.
    pub check_flops: u64,
    /// FLOPs charged through `Comm::charge_flops` — the solver arithmetic
    /// (operator and preconditioner applies, dots, updates) whose cost the
    /// clock was told about.
    pub flops: u64,
}

impl RankStats {
    /// Fraction of virtual time spent waiting on communication.
    fn comm_fraction(&self) -> f64 {
        if self.virtual_time > 0.0 {
            self.comm_wait_time / self.virtual_time
        } else {
            0.0
        }
    }
}

/// Aggregated statistics for a whole job.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct JobStats {
    /// Maximum (critical-path) virtual time over all ranks.
    pub makespan: f64,
    /// Mean per-rank virtual time.
    pub mean_virtual_time: f64,
    /// Total messages sent.
    pub total_messages: u64,
    /// Total bytes sent point-to-point.
    pub total_bytes: u64,
    /// Total collective completions across ranks.
    pub total_collectives: u64,
    /// Mean fraction of time spent waiting on communication.
    pub mean_comm_fraction: f64,
    /// Total failures observed.
    pub failures: usize,
    /// Total recovery participations (sum over ranks).
    pub recoveries: u64,
    /// Total FLOPs spent on resilience checks across ranks.
    pub total_check_flops: u64,
}

impl JobStats {
    /// Aggregate per-rank statistics (one entry per surviving incarnation).
    pub fn aggregate(per_rank: &[RankStats], failures: usize) -> Self {
        if per_rank.is_empty() {
            return Self {
                failures,
                ..Self::default()
            };
        }
        let n = per_rank.len() as f64;
        let makespan = per_rank.iter().map(|s| s.virtual_time).fold(0.0, f64::max);
        let mean_virtual_time = per_rank.iter().map(|s| s.virtual_time).sum::<f64>() / n;
        let mean_comm_fraction = per_rank.iter().map(|s| s.comm_fraction()).sum::<f64>() / n;
        Self {
            makespan,
            mean_virtual_time,
            total_messages: per_rank.iter().map(|s| s.messages_sent).sum(),
            total_bytes: per_rank.iter().map(|s| s.bytes_sent).sum(),
            total_collectives: per_rank.iter().map(|s| s.collectives).sum(),
            mean_comm_fraction,
            failures,
            recoveries: per_rank.iter().map(|s| s.recoveries).sum(),
            total_check_flops: per_rank.iter().map(|s| s.check_flops).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(rank: usize, vt: f64, wait: f64) -> RankStats {
        RankStats {
            rank,
            virtual_time: vt,
            comm_wait_time: wait,
            messages_sent: 2,
            bytes_sent: 100,
            collectives: 3,
            recoveries: 1,
            ..RankStats::default()
        }
    }

    #[test]
    fn comm_fraction_handles_zero_time() {
        let s = RankStats::default();
        assert_eq!(s.comm_fraction(), 0.0);
        let s = stats(0, 10.0, 2.5);
        assert!((s.comm_fraction() - 0.25).abs() < 1e-15);
    }

    #[test]
    fn aggregate_empty() {
        let j = JobStats::aggregate(&[], 3);
        assert_eq!(j.failures, 3);
        assert_eq!(j.makespan, 0.0);
    }

    #[test]
    fn aggregate_computes_makespan_and_totals() {
        let per = vec![stats(0, 10.0, 1.0), stats(1, 12.0, 6.0), stats(2, 8.0, 0.0)];
        let j = JobStats::aggregate(&per, 1);
        assert!((j.makespan - 12.0).abs() < 1e-15);
        assert!((j.mean_virtual_time - 10.0).abs() < 1e-15);
        assert_eq!(j.total_messages, 6);
        assert_eq!(j.total_bytes, 300);
        assert_eq!(j.total_collectives, 9);
        assert_eq!(j.recoveries, 3);
        assert_eq!(j.failures, 1);
        let expected_frac = (0.1 + 0.5 + 0.0) / 3.0;
        assert!((j.mean_comm_fraction - expected_frac).abs() < 1e-12);
    }
}
