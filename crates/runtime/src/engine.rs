//! The collective rendezvous engine.
//!
//! All collective operations — blocking, nonblocking, and the recovery
//! rendezvous — are built on a single primitive: a keyed *slot* that every
//! participating rank posts a contribution into. When the last participant
//! arrives the slot computes a completion time on the ranks' clock (the maximum
//! of the participants' entry times plus the collective's communication
//! cost) and, for a reduction, folds the contributions once in ascending
//! participant order; each participant then retrieves the completion time
//! and either the folded vector ([`wait_reduced`](CollectiveEngine::wait_reduced))
//! or the full contribution list ([`wait_until`](CollectiveEngine::wait_until)).
//!
//! One engine serves both clocks. What differs is how a waiter blocks: an
//! engine built with [`CollectiveEngine::new`] parks on a condition variable
//! at once (the virtual clock's choice, and the wall clock's for any job
//! with more rank threads than cores), one built with
//! [`CollectiveEngine::with_poll_rounds`] first polls the slot's completion
//! flag for a bounded number of rounds. The budget is a *count*, not a
//! duration: this module is on the virtual-time side of the analyzer's
//! `virtual-time` rule and never reads a wall clock. The wall clock's
//! deadline comes in through the `expired` callback of the waits.
//!
//! Slots live in a small table that only grows: a slot is claimed for a key
//! by the first post, released by the last retrieval, and its contribution
//! buffers keep their capacity, so a steady stream of collectives touches
//! the heap only while the table or a buffer is still growing.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::collective::ReduceOp;
use crate::error::{Result, RuntimeError};
use crate::health::HealthBoard;

/// Poll budget of a polling engine or mailbox: how many times a waiter
/// re-reads the completion flag (one `spin_loop` hint per round, some tens
/// of microseconds in all) before it parks. A rendezvous between two ranks
/// that each own a core completes well inside it; a rank whose partner is
/// busy for longer gives its core back.
pub const POLL_ROUNDS: u32 = 2_000;

/// How long a parked waiter sleeps before re-checking health and the
/// caller's deadline on its own (it is woken earlier by completion or
/// [`CollectiveEngine::interrupt`]).
const PARK_SLICE: Duration = Duration::from_millis(20);

/// Capacity each contribution buffer starts with, in values: payloads up to
/// this width never grow a buffer.
const SLOT_WIDTH: usize = 32;

/// Largest buffer capacity, in values, a slot keeps when it is released.
/// Reductions are a few dozen values wide; a gather of whole vectors is
/// rare and megabytes wide, and a table that kept those buffers would pin
/// them for the life of the job.
const MAX_RETAINED_WIDTH: usize = 1024;

/// Kind discriminator for slot keys, separating the ordinary collective
/// sequence space from recovery rendezvous and shrink agreements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotKind {
    /// Ordinary collective posted by application code.
    Collective,
    /// Recovery rendezvous after a failure (keyed by generation).
    Recovery,
    /// Shrink agreement (keyed by generation).
    Shrink,
}

/// Unique identifier of one collective instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotKey {
    /// Communication epoch the collective belongs to.
    pub epoch: u64,
    /// Communicator id (0 = world; shrunk/split communicators get fresh ids).
    pub comm_id: u64,
    /// Kind of slot.
    pub kind: SlotKind,
    /// Sequence number within (epoch, comm_id, kind).
    pub seq: u64,
}

/// One reusable rendezvous slot. Everything but `done` is read and written
/// under the table lock.
struct Slot {
    /// The collective this slot currently serves; `None` while free.
    key: Option<SlotKey>,
    /// Completion flag, the only part of a slot read outside the lock: the
    /// completing post stores `true` with `Release` after the completion
    /// time and the fold are written, a polling waiter loads it with
    /// `Acquire` and then takes the lock to read them.
    done: Arc<AtomicBool>,
    expected: usize,
    /// Which participants have posted.
    posted: Vec<bool>,
    /// One buffer per participant, reused across the collectives this slot
    /// serves (only the first `expected` are meaningful).
    contributions: Vec<Vec<f64>>,
    arrived: usize,
    max_entry: f64,
    /// Completion time, valid once `done`.
    completion: f64,
    /// The ascending-participant fold, valid once `done` if `reduced`.
    folded: Vec<f64>,
    /// Whether the completing post named an operator.
    reduced: bool,
    /// Number of participants that have retrieved the result.
    retrieved: usize,
}

impl Slot {
    fn new() -> Self {
        Self {
            key: None,
            done: Arc::new(AtomicBool::new(false)),
            expected: 0,
            posted: Vec::new(),
            contributions: Vec::new(),
            arrived: 0,
            max_entry: 0.0,
            completion: 0.0,
            folded: Vec::with_capacity(SLOT_WIDTH),
            reduced: false,
            retrieved: 0,
        }
    }

    /// Start serving `key`. The flag is reset here, under the lock and
    /// before any participant of `key` can look the slot up, so nobody can
    /// observe the previous collective's `true`.
    fn claim(&mut self, key: SlotKey, expected: usize) {
        self.key = Some(key);
        self.done.store(false, Ordering::Relaxed);
        self.expected = expected;
        self.posted.clear();
        self.posted.resize(expected, false);
        if self.contributions.len() < expected {
            self.contributions
                .resize_with(expected, || Vec::with_capacity(SLOT_WIDTH));
        }
        self.arrived = 0;
        self.max_entry = 0.0;
        self.retrieved = 0;
        self.reduced = false;
    }

    /// Stop serving the current key, keeping the buffers that are worth
    /// keeping.
    fn release(&mut self) {
        self.key = None;
        for buffer in self.contributions.iter_mut().chain([&mut self.folded]) {
            if buffer.capacity() > MAX_RETAINED_WIDTH {
                *buffer = Vec::new();
            }
        }
    }

    fn missing(&self) -> Vec<usize> {
        (0..self.expected).filter(|&i| !self.posted[i]).collect()
    }
}

/// The slot table: grows to the largest number of collectives ever in
/// flight at once and is searched linearly (that number is a handful).
#[derive(Default)]
struct Table {
    slots: Vec<Slot>,
}

impl Table {
    fn find(&mut self, key: &SlotKey) -> Option<&mut Slot> {
        self.slots.iter_mut().find(|s| s.key.as_ref() == Some(key))
    }

    fn find_or_claim(&mut self, key: SlotKey, expected: usize) -> &mut Slot {
        let index = match self.slots.iter().position(|s| s.key == Some(key)) {
            Some(index) => index,
            None => {
                let index = match self.slots.iter().position(|s| s.key.is_none()) {
                    Some(free) => free,
                    None => {
                        self.slots.push(Slot::new());
                        self.slots.len() - 1
                    }
                };
                self.slots[index].claim(key, expected);
                index
            }
        };
        &mut self.slots[index]
    }
}

/// Result of a completed collective, as seen by one participant.
#[derive(Debug, Clone)]
pub struct CollectiveResult {
    /// Contributions of every participant, indexed by participant index
    /// (rank index within the participating group).
    pub contributions: Vec<Vec<f64>>,
    /// Time, on the participants' clock, at which the collective completes.
    pub completion_time: f64,
}

/// The shared engine holding in-flight collective slots for a job.
pub struct CollectiveEngine {
    table: Mutex<Table>,
    signal: Condvar,
    /// Waiters currently parked on `signal` (changed only under the table
    /// lock): the completing post notifies only when this is nonzero.
    parked: AtomicUsize,
    poll_rounds: u32,
}

impl Default for CollectiveEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl CollectiveEngine {
    /// Create an empty engine whose waiters park at once: the right choice
    /// whenever rank threads may outnumber cores (the simulator always).
    pub fn new() -> Self {
        Self::with_poll_rounds(0)
    }

    /// Create an empty engine whose waiters poll the completion flag up to
    /// `rounds` times before parking. Only for worlds in which every rank
    /// thread owns a core; pass [`POLL_ROUNDS`].
    pub fn with_poll_rounds(rounds: u32) -> Self {
        Self {
            table: Mutex::new(Table::default()),
            signal: Condvar::new(),
            parked: AtomicUsize::new(0),
            poll_rounds: rounds,
        }
    }

    /// Poll rounds a waiter spends before parking (0 = parks at once).
    pub fn poll_rounds(&self) -> u32 {
        self.poll_rounds
    }

    /// Post a contribution to the slot identified by `key`.
    ///
    /// * `index` — the caller's participant index (0-based within the group).
    /// * `expected` — total number of participants.
    /// * `op` — `Some` for an element-wise reduction: the post that completes
    ///   the slot folds all contributions in ascending participant order —
    ///   the fold of [`ReduceOp::reduce_all`], so the result does not depend
    ///   on arrival order — and participants fetch it with
    ///   [`wait_reduced`](Self::wait_reduced). `None` keeps the contributions
    ///   for [`wait_until`](Self::wait_until).
    /// * `entry_time` — when the caller's latency window opened
    ///   ([`RankClock::window_opens`](crate::clock::RankClock::window_opens)).
    /// * `cost` — communication cost to fold into the completion time.
    ///
    /// The `op` and `cost` of the *last* arriving participant win, which is
    /// fine because all participants compute them from the same program and
    /// model. Posting is nonblocking and copies `contribution` into the
    /// slot's own buffer.
    #[allow(clippy::too_many_arguments)]
    pub fn post_slice(
        &self,
        key: SlotKey,
        index: usize,
        expected: usize,
        op: Option<ReduceOp>,
        contribution: &[f64],
        entry_time: f64,
        cost: f64,
    ) -> Result<()> {
        let mut table = self.table.lock();
        let slot = table.find_or_claim(key, expected);
        if slot.expected != expected {
            return Err(RuntimeError::CollectiveMismatch {
                detail: format!(
                    "slot {key:?}: expected {} participants, caller believes {}",
                    slot.expected, expected
                ),
            });
        }
        if index >= slot.expected {
            return Err(RuntimeError::InvalidRank {
                rank: index,
                size: slot.expected,
            });
        }
        if slot.posted[index] {
            return Err(RuntimeError::CollectiveMismatch {
                detail: format!("slot {key:?}: participant {index} posted twice"),
            });
        }
        slot.posted[index] = true;
        let buffer = &mut slot.contributions[index];
        buffer.clear();
        buffer.extend_from_slice(contribution);
        slot.arrived += 1;
        slot.max_entry = slot.max_entry.max(entry_time);
        if slot.arrived == slot.expected {
            slot.completion = slot.max_entry + cost;
            if let Some(op) = op {
                op.reduce_all_into(&slot.contributions[..slot.expected], &mut slot.folded);
                slot.reduced = true;
            }
            slot.done.store(true, Ordering::Release);
            drop(table);
            // `parked` only changes under the table lock, which this post
            // held while it set the flag: a waiter that parked before sees
            // the notification, one that parks later sees the flag.
            if self.parked.load(Ordering::Relaxed) > 0 {
                self.signal.notify_all();
            }
        }
        Ok(())
    }

    /// [`post_slice`](Self::post_slice) of an owned contribution that is
    /// gathered, not reduced.
    pub fn post(
        &self,
        key: SlotKey,
        index: usize,
        expected: usize,
        contribution: Vec<f64>,
        entry_time: f64,
        cost: f64,
    ) -> Result<()> {
        self.post_slice(key, index, expected, None, &contribution, entry_time, cost)
    }

    /// Has the slot completed (all participants posted)?
    pub fn is_complete(&self, key: &SlotKey) -> bool {
        self.table
            .lock()
            .find(key)
            .is_some_and(|s| s.done.load(Ordering::Relaxed))
    }

    /// Block until the slot completes, a failure interrupts the wait, the
    /// health check fails, or the caller's deadline passes. On success
    /// returns the full contribution list and the completion time. Each
    /// participant must call this (or [`wait_reduced`](Self::wait_reduced))
    /// exactly once; the slot is freed when the last participant has
    /// retrieved it.
    ///
    /// `acked_generation` is the failure generation the caller has already
    /// recovered from; newer failures interrupt the wait with
    /// [`RuntimeError::Revoked`]. `expired` is asked each time the waiter is
    /// about to park (never during the poll phase), and a `true` turns the
    /// wait into [`RuntimeError::Timeout`] naming the slot and the
    /// participants that have not posted.
    pub fn wait_until(
        &self,
        key: SlotKey,
        health: &HealthBoard,
        acked_generation: u64,
        expired: &mut dyn FnMut() -> bool,
    ) -> Result<CollectiveResult> {
        self.complete(key, health, acked_generation, expired, |slot| {
            Ok(CollectiveResult {
                contributions: slot.contributions[..slot.expected].to_vec(),
                completion_time: slot.completion,
            })
        })
    }

    /// Complete a reduction (a slot posted with an operator):
    /// blocks like [`wait_until`](Self::wait_until), then copies the folded
    /// vector into `out` (cleared first) and returns the completion time.
    /// Nothing is allocated when `out` has the capacity.
    pub fn wait_reduced(
        &self,
        key: SlotKey,
        health: &HealthBoard,
        acked_generation: u64,
        expired: &mut dyn FnMut() -> bool,
        out: &mut Vec<f64>,
    ) -> Result<f64> {
        self.complete(key, health, acked_generation, expired, |slot| {
            if !slot.reduced {
                return Err(RuntimeError::CollectiveMismatch {
                    detail: format!("slot {key:?} was not completed as a reduction"),
                });
            }
            out.clear();
            out.extend_from_slice(&slot.folded);
            Ok(slot.completion)
        })
    }

    /// The one blocking path: poll the completion flag for the engine's
    /// budget, then park; once complete, run `retrieve` on the slot under
    /// the lock and release the slot after the last retrieval.
    fn complete<T>(
        &self,
        key: SlotKey,
        health: &HealthBoard,
        acked_generation: u64,
        expired: &mut dyn FnMut() -> bool,
        retrieve: impl FnOnce(&Slot) -> Result<T>,
    ) -> Result<T> {
        let mut done = self.table.lock().find(&key).map(|s| Arc::clone(&s.done));
        let mut rounds = self.poll_rounds;
        loop {
            // Completion wins over failure notification: if every participant
            // posted, the collective logically completed and its result is
            // delivered even when a failure was recorded concurrently — the
            // *next* operation reports the failure instead. Checking health
            // first would let real-time interleaving decide whether a rank
            // sees the result or `Revoked`, so survivors of the same failure
            // could disagree on which operation failed and deadlock in
            // mismatched recovery collectives.
            if done.as_ref().is_some_and(|d| d.load(Ordering::Acquire)) {
                let mut table = self.table.lock();
                if let Some(slot) = table.find(&key) {
                    let result = retrieve(slot);
                    slot.retrieved += 1;
                    if slot.retrieved >= slot.expected {
                        slot.release();
                    }
                    return result;
                }
                // Purged while we waited: the flag now belongs to another
                // collective. Keep waiting as for a slot nobody posted to.
                done = None;
            }
            health.check(acked_generation)?;
            if rounds > 0 {
                rounds -= 1;
                std::hint::spin_loop();
                continue;
            }
            if expired() {
                let mut table = self.table.lock();
                return Err(RuntimeError::Timeout {
                    waiting_for: format!("collective slot {key:?}"),
                    missing: table.find(&key).map(|s| s.missing()).unwrap_or_default(),
                });
            }
            let mut table = self.table.lock();
            if done.is_none() {
                done = table.find(&key).map(|s| Arc::clone(&s.done));
            }
            // Re-checked under the lock that `post_slice` completes under
            // and `interrupt` passes through, so neither wake-up can fall
            // between this check and the wait.
            let complete = done.as_ref().is_some_and(|d| d.load(Ordering::Acquire));
            if !complete && health.check(acked_generation).is_ok() {
                self.parked.fetch_add(1, Ordering::Relaxed);
                self.signal.wait_for(&mut table, PARK_SLICE);
                self.parked.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Wake every waiter so they can re-check health (called on failure,
    /// after the failure is on the health board).
    pub fn interrupt(&self) {
        drop(self.table.lock());
        self.signal.notify_all();
    }

    /// Drop every slot belonging to an epoch older than `epoch` (called at
    /// the end of a recovery rendezvous so stale collectives cannot leak).
    pub fn purge_older_than(&self, epoch: u64) {
        for slot in &mut self.table.lock().slots {
            if slot
                .key
                .is_some_and(|k| k.epoch < epoch && k.kind == SlotKind::Collective)
            {
                slot.release();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FailurePolicy;
    use std::sync::Arc;
    use std::thread;

    impl CollectiveEngine {
        /// Number of in-flight slots.
        fn in_flight(&self) -> usize {
            let table = self.table.lock();
            table.slots.iter().filter(|s| s.key.is_some()).count()
        }

        /// [`wait_until`](Self::wait_until) without a deadline.
        fn wait(
            &self,
            key: SlotKey,
            health: &HealthBoard,
            acked_generation: u64,
        ) -> Result<CollectiveResult> {
            self.wait_until(key, health, acked_generation, &mut || false)
        }
    }

    fn key(seq: u64) -> SlotKey {
        SlotKey {
            epoch: 0,
            comm_id: 0,
            kind: SlotKind::Collective,
            seq,
        }
    }

    #[test]
    fn single_participant_completes_immediately() {
        let engine = CollectiveEngine::new();
        let health = HealthBoard::new(1, FailurePolicy::AbortJob);
        engine.post(key(0), 0, 1, vec![3.0], 1.0, 0.5).unwrap();
        let r = engine.wait(key(0), &health, 0).unwrap();
        assert_eq!(r.contributions, vec![vec![3.0]]);
        assert!((r.completion_time - 1.5).abs() < 1e-15);
        assert_eq!(engine.in_flight(), 0, "slot must be freed after retrieval");
    }

    #[test]
    fn completion_time_is_max_entry_plus_cost() {
        let engine = Arc::new(CollectiveEngine::new());
        let health = Arc::new(HealthBoard::new(3, FailurePolicy::AbortJob));
        let mut handles = Vec::new();
        for rank in 0..3usize {
            let engine = Arc::clone(&engine);
            let health = Arc::clone(&health);
            handles.push(thread::spawn(move || {
                let entry = 1.0 + rank as f64; // entries 1.0, 2.0, 3.0
                engine
                    .post(key(7), rank, 3, vec![rank as f64], entry, 0.25)
                    .unwrap();
                engine.wait(key(7), &health, 0).unwrap()
            }));
        }
        for h in handles {
            let r = h.join().unwrap();
            assert!((r.completion_time - 3.25).abs() < 1e-12);
            assert_eq!(r.contributions.len(), 3);
            assert_eq!(r.contributions[2], vec![2.0]);
        }
        assert_eq!(engine.in_flight(), 0);
    }

    #[test]
    fn mismatched_expected_count_is_error() {
        let engine = CollectiveEngine::new();
        engine.post(key(1), 0, 2, vec![], 0.0, 0.0).unwrap();
        let err = engine.post(key(1), 1, 3, vec![], 0.0, 0.0).unwrap_err();
        assert!(matches!(err, RuntimeError::CollectiveMismatch { .. }));
    }

    #[test]
    fn double_post_is_error() {
        let engine = CollectiveEngine::new();
        engine.post(key(2), 0, 2, vec![], 0.0, 0.0).unwrap();
        let err = engine.post(key(2), 0, 2, vec![], 0.0, 0.0).unwrap_err();
        assert!(matches!(err, RuntimeError::CollectiveMismatch { .. }));
    }

    #[test]
    fn out_of_range_index_is_error() {
        let engine = CollectiveEngine::new();
        let err = engine.post(key(3), 5, 2, vec![], 0.0, 0.0).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::InvalidRank { rank: 5, size: 2 }
        ));
    }

    #[test]
    fn wait_interrupted_by_failure() {
        let engine = Arc::new(CollectiveEngine::new());
        let health = Arc::new(HealthBoard::new(2, FailurePolicy::ReplaceRank));
        engine.post(key(4), 0, 2, vec![], 0.0, 0.0).unwrap();
        let e2 = Arc::clone(&engine);
        let h2 = Arc::clone(&health);
        let waiter = thread::spawn(move || e2.wait(key(4), &h2, 0));
        thread::sleep(Duration::from_millis(30));
        // Rank 1 fails instead of posting; the waiter must be released with a
        // Revoked error.
        health.record_failure(1, 0, 5.0);
        engine.interrupt();
        let res = waiter.join().unwrap();
        assert!(matches!(res, Err(RuntimeError::Revoked { .. })));
    }

    #[test]
    fn completed_slot_wins_over_concurrent_failure() {
        // Regression for a deadlock: if every participant posted before a
        // failure was recorded, wait() must deliver the completed result —
        // not Revoked — on every rank, so survivors stay in lockstep about
        // *which* operation failed.
        let engine = CollectiveEngine::new();
        let health = HealthBoard::new(3, FailurePolicy::Shrink);
        engine.post(key(5), 0, 2, vec![1.0], 0.0, 0.0).unwrap();
        engine.post(key(5), 1, 2, vec![2.0], 0.0, 0.0).unwrap();
        // A third rank (not part of this collective) dies after completion.
        health.record_failure(2, 0, 1.0);
        let r = engine.wait(key(5), &health, 0).unwrap();
        assert_eq!(r.contributions, vec![vec![1.0], vec![2.0]]);
        let r2 = engine.wait(key(5), &health, 0).unwrap();
        assert_eq!(r2.contributions.len(), 2);
        assert_eq!(engine.in_flight(), 0);
    }

    #[test]
    fn purge_keeps_recovery_slots() {
        let engine = CollectiveEngine::new();
        engine.post(key(0), 0, 2, vec![], 0.0, 0.0).unwrap();
        let rkey = SlotKey {
            epoch: 0,
            comm_id: 0,
            kind: SlotKind::Recovery,
            seq: 1,
        };
        engine.post(rkey, 0, 2, vec![], 0.0, 0.0).unwrap();
        engine.purge_older_than(1);
        assert_eq!(
            engine.in_flight(),
            1,
            "collective slot purged, recovery slot kept"
        );
    }

    #[test]
    fn is_complete_tracks_state() {
        let engine = CollectiveEngine::new();
        assert!(!engine.is_complete(&key(9)));
        engine.post(key(9), 0, 2, vec![], 0.0, 0.0).unwrap();
        assert!(!engine.is_complete(&key(9)));
        engine.post(key(9), 1, 2, vec![], 0.0, 0.0).unwrap();
        assert!(engine.is_complete(&key(9)));
    }

    /// Every ordering of `0..n` (Heap's algorithm).
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        fn heap(k: usize, items: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if k <= 1 {
                out.push(items.clone());
                return;
            }
            for i in 0..k {
                heap(k - 1, items, out);
                items.swap(if k % 2 == 0 { i } else { 0 }, k - 1);
            }
        }
        let mut out = Vec::new();
        heap(n, &mut (0..n).collect(), &mut out);
        out
    }

    #[test]
    fn fold_is_reduce_all_bitwise_whatever_the_arrival_order() {
        // Values whose sum depends on the order of additions, so a fold in
        // arrival order would show.
        let value = |rank: usize, j: usize| match (rank + j) % 4 {
            0 => 0.1 * (rank as f64 + 1.0),
            1 => 1.0e16,
            2 => -1.0e16 + j as f64,
            _ => -(rank as f64) / 3.0,
        };
        let health = HealthBoard::new(5, FailurePolicy::AbortJob);
        let engine = CollectiveEngine::new();
        let mut seq = 0;
        for n in 2..=5usize {
            let contributions: Vec<Vec<f64>> = (0..n)
                .map(|rank| (0..3).map(|j| value(rank, j)).collect())
                .collect();
            for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
                let reference = op.reduce_all(&contributions);
                for order in permutations(n) {
                    for &rank in &order {
                        engine
                            .post_slice(key(seq), rank, n, Some(op), &contributions[rank], 0.0, 0.0)
                            .unwrap();
                    }
                    for _ in 0..n {
                        let mut out = Vec::new();
                        engine
                            .wait_reduced(key(seq), &health, 0, &mut || false, &mut out)
                            .unwrap();
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&out), bits(&reference), "{op:?}, arrival {order:?}");
                    }
                    seq += 1;
                }
            }
        }
        assert_eq!(engine.in_flight(), 0);
    }

    #[test]
    fn slots_are_reused_across_a_long_stream_and_a_purge() {
        let health = HealthBoard::new(2, FailurePolicy::AbortJob);
        let engine = CollectiveEngine::new();
        let at = |epoch: u64, seq: u64| SlotKey {
            epoch,
            comm_id: 0,
            kind: SlotKind::Collective,
            seq,
        };
        let mut out = Vec::new();
        let mut stream = |epoch: u64, count: u64| {
            for seq in 0..count {
                // Two collectives in flight at once, like a pipelined solve.
                for k in [at(epoch, 2 * seq), at(epoch, 2 * seq + 1)] {
                    engine
                        .post_slice(k, 0, 2, Some(ReduceOp::Sum), &[1.0], 0.0, 0.0)
                        .unwrap();
                    engine
                        .post_slice(k, 1, 2, Some(ReduceOp::Sum), &[seq as f64], 0.0, 0.0)
                        .unwrap();
                }
                for k in [at(epoch, 2 * seq), at(epoch, 2 * seq + 1)] {
                    for _ in 0..2 {
                        engine
                            .wait_reduced(k, &health, 0, &mut || false, &mut out)
                            .unwrap();
                        assert_eq!(out, [1.0 + seq as f64]);
                    }
                }
            }
        };
        stream(0, 30_000);
        // A collective of epoch 0 that never completes (its partner died),
        // then the recovery's purge.
        engine
            .post(at(0, 60_000), 0, 2, vec![1.0], 0.0, 0.0)
            .unwrap();
        assert_eq!(engine.in_flight(), 1);
        engine.purge_older_than(1);
        assert_eq!(engine.in_flight(), 0);
        stream(1, 30_000);
        assert_eq!(engine.in_flight(), 0);
        assert_eq!(
            engine.table.lock().slots.len(),
            2,
            "120 000 collectives, never more than two in flight"
        );
    }

    #[test]
    fn failure_recorded_during_the_poll_phase_revokes_the_wait() {
        // A poll budget that never runs out: this waiter cannot park, so it
        // can only learn of the failure from the poll phase's health check
        // (nobody calls `interrupt`).
        let engine = Arc::new(CollectiveEngine::with_poll_rounds(u32::MAX));
        let health = Arc::new(HealthBoard::new(2, FailurePolicy::ReplaceRank));
        engine.post(key(4), 0, 2, vec![], 0.0, 0.0).unwrap();
        let (e2, h2) = (Arc::clone(&engine), Arc::clone(&health));
        let waiter = thread::spawn(move || e2.wait(key(4), &h2, 0));
        health.record_failure(1, 0, 5.0);
        let res = waiter.join().unwrap();
        assert!(matches!(res, Err(RuntimeError::Revoked { generation: 1 })));
    }

    #[test]
    fn polling_waiter_sees_a_completion_from_another_thread() {
        let engine = Arc::new(CollectiveEngine::with_poll_rounds(POLL_ROUNDS));
        let health = Arc::new(HealthBoard::new(2, FailurePolicy::AbortJob));
        let handles: Vec<_> = (0..2usize)
            .map(|rank| {
                let (engine, health) = (Arc::clone(&engine), Arc::clone(&health));
                thread::spawn(move || {
                    let mut out = Vec::new();
                    for seq in 0..2_000 {
                        let mine = [rank as f64 + seq as f64];
                        engine
                            .post_slice(key(seq), rank, 2, Some(ReduceOp::Sum), &mine, 0.0, 0.0)
                            .unwrap();
                        engine
                            .wait_reduced(key(seq), &health, 0, &mut || false, &mut out)
                            .unwrap();
                        assert_eq!(out, [1.0 + 2.0 * seq as f64]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(engine.in_flight(), 0);
    }

    #[test]
    fn expired_wait_names_the_slot_and_the_missing_participants() {
        let engine = CollectiveEngine::new();
        let health = HealthBoard::new(3, FailurePolicy::ReplaceRank);
        engine.post(key(6), 1, 3, vec![], 0.0, 0.0).unwrap();
        let err = engine
            .wait_until(key(6), &health, 0, &mut || true)
            .unwrap_err();
        match err {
            RuntimeError::Timeout {
                waiting_for,
                missing,
            } => {
                assert!(waiting_for.contains("seq: 6"), "{waiting_for}");
                assert_eq!(missing, vec![0, 2]);
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn gathered_slot_cannot_be_fetched_as_a_reduction() {
        let engine = CollectiveEngine::new();
        let health = HealthBoard::new(1, FailurePolicy::AbortJob);
        engine.post(key(8), 0, 1, vec![1.0], 0.0, 0.0).unwrap();
        let err = engine
            .wait_reduced(key(8), &health, 0, &mut || false, &mut Vec::new())
            .unwrap_err();
        assert!(matches!(err, RuntimeError::CollectiveMismatch { .. }));
        assert_eq!(engine.in_flight(), 0, "a failed retrieval still counts");
    }

    #[test]
    fn released_slot_does_not_pin_a_wide_gather() {
        let engine = CollectiveEngine::new();
        let health = HealthBoard::new(2, FailurePolicy::AbortJob);
        let wide = vec![1.0; 100 * MAX_RETAINED_WIDTH];
        engine.post(key(0), 0, 2, wide.clone(), 0.0, 0.0).unwrap();
        engine.post(key(0), 1, 2, vec![2.0], 0.0, 0.0).unwrap();
        for _ in 0..2 {
            let r = engine.wait(key(0), &health, 0).unwrap();
            assert_eq!(r.contributions[0].len(), wide.len());
        }
        let table = engine.table.lock();
        let capacities: Vec<_> = table.slots[0]
            .contributions
            .iter()
            .map(Vec::capacity)
            .collect();
        assert_eq!(capacities, [0, SLOT_WIDTH]);
    }
}
