//! Per-rank statistics.

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
