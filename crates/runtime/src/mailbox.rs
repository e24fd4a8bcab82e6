//! Per-rank mailboxes with tag matching.
//!
//! Each rank owns one [`Mailbox`]. Sends append to the destination mailbox;
//! receives scan the mailbox for the first message matching `(source, tag,
//! epoch)` and block until one arrives, a peer failure interrupts the wait,
//! or the job aborts.
//!
//! Blocking is *ticketed*: the receiver reads the mailbox's event counter
//! ([`ticket`](Mailbox::ticket)) before it polls, and
//! [`wait_since`](Mailbox::wait_since) returns at once if anything was
//! deposited (or interrupted) since, so a message that lands between the
//! poll and the park is never slept through. Like the collective engine, a
//! mailbox built [`with_poll_rounds`](Mailbox::with_poll_rounds) watches the
//! counter for a bounded number of rounds before it parks — a count, never
//! a wall-clock duration.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use crate::message::Message;

/// Outcome of a single poll of the mailbox.
pub(crate) enum PollOutcome {
    /// A matching message was found and removed.
    Found(Message),
    /// No matching message is currently queued.
    Empty,
}

#[derive(Default)]
struct Queue {
    messages: Vec<Message>,
    /// Messages of epochs below this one have been discarded; a poll only
    /// scans for stale messages when its epoch is newer.
    purged_below: u64,
}

impl Queue {
    fn purge_older_than(&mut self, epoch: u64) {
        self.messages.retain(|m| m.epoch >= epoch);
        self.purged_below = self.purged_below.max(epoch);
    }
}

/// A mailbox holding undelivered messages for one rank.
#[derive(Default)]
pub(crate) struct Mailbox {
    queue: Mutex<Queue>,
    signal: Condvar,
    /// Deposits plus interrupts so far. Bumped under the queue lock.
    events: AtomicU64,
    /// Receivers currently parked on `signal` (changed only under the queue
    /// lock): a deposit notifies only when this is nonzero.
    parked: AtomicUsize,
    poll_rounds: u32,
}

impl Mailbox {
    /// Create an empty mailbox whose receiver watches the event counter for
    /// up to `rounds` rounds before parking (see
    /// [`POLL_ROUNDS`](crate::engine::POLL_ROUNDS)).
    pub(crate) fn with_poll_rounds(rounds: u32) -> Self {
        Self {
            poll_rounds: rounds,
            ..Self::default()
        }
    }

    /// Deposit a message and wake the receiver if it is parked.
    pub(crate) fn deposit(&self, msg: Message) {
        let mut q = self.queue.lock();
        q.messages.push(msg);
        self.events.fetch_add(1, Ordering::Release);
        drop(q);
        // `parked` only changes under the queue lock, which this deposit
        // held while it bumped the counter: a receiver that parked before
        // sees the notification, one that parks later sees the counter.
        if self.parked.load(Ordering::Relaxed) > 0 {
            self.signal.notify_all();
        }
    }

    /// Remove and return the first message matching `(source, tag, epoch)`,
    /// if any. The first poll at a newer `epoch` discards every message of
    /// an older one: they belong to a communication epoch that ended with a
    /// recovery rendezvous and must not satisfy post-recovery receives (nor
    /// pile up across many recoveries).
    pub(crate) fn poll(&self, source: usize, tag: i32, epoch: u64) -> PollOutcome {
        let mut q = self.queue.lock();
        if epoch > q.purged_below {
            q.purge_older_than(epoch);
        }
        match q
            .messages
            .iter()
            .position(|m| m.matches(source, tag, epoch))
        {
            Some(pos) => PollOutcome::Found(q.messages.remove(pos)),
            None => PollOutcome::Empty,
        }
    }

    /// The event counter: read it *before* polling and hand it to
    /// [`wait_since`](Self::wait_since).
    pub(crate) fn ticket(&self) -> u64 {
        self.events.load(Ordering::Acquire)
    }

    /// Block until something has been deposited or interrupted since
    /// `ticket` was read (returns `true`), or `timeout` elapses once parked
    /// (`false`). The caller re-polls afterwards; this is a pure wakeup
    /// mechanism and makes no promise about which message arrived.
    pub(crate) fn wait_since(&self, ticket: u64, timeout: Duration) -> bool {
        for _ in 0..self.poll_rounds {
            if self.ticket() != ticket {
                return true;
            }
            std::hint::spin_loop();
        }
        let mut q = self.queue.lock();
        if self.ticket() == ticket {
            self.parked.fetch_add(1, Ordering::Relaxed);
            self.signal.wait_for(&mut q, timeout);
            self.parked.fetch_sub(1, Ordering::Relaxed);
        }
        self.ticket() != ticket
    }

    /// Wake the receiver without depositing a message (used when a failure
    /// or revocation must interrupt a blocked receive).
    pub(crate) fn interrupt(&self) {
        let q = self.queue.lock();
        self.events.fetch_add(1, Ordering::Release);
        drop(q);
        self.signal.notify_all();
    }

    /// Discard every queued message from an epoch earlier than `epoch`.
    pub(crate) fn purge_older_than(&self, epoch: u64) {
        self.queue.lock().purge_older_than(epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{ANY_SOURCE, ANY_TAG};
    use std::sync::Arc;
    use std::thread;

    fn msg(source: usize, tag: i32, epoch: u64, val: f64) -> Message {
        Message {
            source,
            tag,
            epoch,
            sent_at: 0.0,
            payload: vec![val],
        }
    }

    #[test]
    fn deposit_then_poll() {
        let mb = Mailbox::default();
        mb.deposit(msg(1, 5, 0, 1.0));
        match mb.poll(1, 5, 0) {
            PollOutcome::Found(m) => assert_eq!(m.payload, vec![1.0]),
            PollOutcome::Empty => panic!("expected a message"),
        }
        assert!(mb.queue.lock().messages.is_empty());
    }

    #[test]
    fn poll_respects_source_and_tag() {
        let mb = Mailbox::default();
        mb.deposit(msg(1, 5, 0, 1.0));
        assert!(matches!(mb.poll(2, 5, 0), PollOutcome::Empty));
        assert!(matches!(mb.poll(1, 6, 0), PollOutcome::Empty));
        assert!(matches!(
            mb.poll(ANY_SOURCE, ANY_TAG, 0),
            PollOutcome::Found(_)
        ));
    }

    #[test]
    fn fifo_within_matches() {
        let mb = Mailbox::default();
        mb.deposit(msg(1, 5, 0, 1.0));
        mb.deposit(msg(1, 5, 0, 2.0));
        if let PollOutcome::Found(m) = mb.poll(1, 5, 0) {
            assert_eq!(m.payload, vec![1.0]);
        } else {
            panic!();
        }
        if let PollOutcome::Found(m) = mb.poll(1, 5, 0) {
            assert_eq!(m.payload, vec![2.0]);
        } else {
            panic!();
        }
    }

    #[test]
    fn stale_epochs_are_dropped() {
        let mb = Mailbox::default();
        mb.deposit(msg(1, 5, 0, 1.0));
        mb.deposit(msg(1, 5, 1, 2.0));
        // Polling at epoch 1 must not return the epoch-0 message, and must
        // discard it.
        if let PollOutcome::Found(m) = mb.poll(1, 5, 1) {
            assert_eq!(m.payload, vec![2.0]);
        } else {
            panic!();
        }
        assert!(mb.queue.lock().messages.is_empty());
    }

    #[test]
    fn purge_removes_old_epochs_only() {
        let mb = Mailbox::default();
        mb.deposit(msg(0, 0, 0, 1.0));
        mb.deposit(msg(0, 0, 3, 2.0));
        mb.purge_older_than(2);
        assert_eq!(mb.queue.lock().messages.len(), 1);
    }

    #[test]
    fn waiters_are_woken_by_deposit() {
        let mb = Arc::new(Mailbox::default());
        let mb2 = Arc::clone(&mb);
        let handle = thread::spawn(move || {
            for _ in 0..200 {
                if let PollOutcome::Found(m) = mb2.poll(ANY_SOURCE, ANY_TAG, 0) {
                    return m.payload[0];
                }
                mb2.wait_since(mb2.ticket(), Duration::from_millis(10));
            }
            panic!("never received");
        });
        thread::sleep(Duration::from_millis(20));
        mb.deposit(msg(3, 9, 0, 42.0));
        assert_eq!(handle.join().unwrap(), 42.0);
    }

    #[test]
    fn interrupt_wakes_without_message() {
        let mb = Arc::new(Mailbox::default());
        let mb2 = Arc::clone(&mb);
        let handle = thread::spawn(move || {
            mb2.wait_since(mb2.ticket(), Duration::from_secs(5));
            true
        });
        thread::sleep(Duration::from_millis(20));
        mb.interrupt();
        assert!(handle.join().unwrap());
        assert!(mb.queue.lock().messages.is_empty());
    }

    #[test]
    fn message_deposited_between_poll_and_park_is_not_slept_through() {
        for mb in [Mailbox::default(), Mailbox::with_poll_rounds(100)] {
            let ticket = mb.ticket();
            assert!(matches!(mb.poll(1, 5, 0), PollOutcome::Empty));
            mb.deposit(msg(1, 5, 0, 7.0));
            // Would sleep the full minute if the deposit were missed.
            assert!(mb.wait_since(ticket, Duration::from_secs(60)));
            assert!(matches!(mb.poll(1, 5, 0), PollOutcome::Found(_)));
        }
    }

    #[test]
    fn interrupt_between_poll_and_park_is_not_slept_through() {
        let mb = Mailbox::default();
        let ticket = mb.ticket();
        mb.interrupt();
        assert!(mb.wait_since(ticket, Duration::from_secs(60)));
    }

    #[test]
    fn wait_since_reports_a_quiet_timeout() {
        let mb = Mailbox::with_poll_rounds(10);
        assert!(!mb.wait_since(mb.ticket(), Duration::from_millis(5)));
    }

    #[test]
    fn first_poll_of_a_new_epoch_drops_every_stale_message() {
        let mb = Mailbox::default();
        mb.deposit(msg(1, 5, 0, 1.0));
        mb.deposit(msg(2, 6, 0, 2.0));
        // Same epoch: an unmatched poll leaves the queue alone.
        assert!(matches!(mb.poll(3, 7, 0), PollOutcome::Empty));
        assert_eq!(mb.queue.lock().messages.len(), 2);
        // New epoch: nothing matches, and the stale messages are gone.
        assert!(matches!(
            mb.poll(ANY_SOURCE, ANY_TAG, 1),
            PollOutcome::Empty
        ));
        assert!(mb.queue.lock().messages.is_empty());
        // A straggler from the old epoch can never satisfy a receive.
        mb.deposit(msg(1, 5, 0, 3.0));
        assert!(matches!(mb.poll(1, 5, 1), PollOutcome::Empty));
        mb.purge_older_than(1);
        assert!(mb.queue.lock().messages.is_empty());
    }

    #[test]
    fn polling_receiver_is_woken_by_deposit() {
        let mb = Arc::new(Mailbox::with_poll_rounds(crate::engine::POLL_ROUNDS));
        let mb2 = Arc::clone(&mb);
        let receiver = thread::spawn(move || loop {
            let ticket = mb2.ticket();
            if let PollOutcome::Found(m) = mb2.poll(3, 9, 0) {
                return m.payload[0];
            }
            mb2.wait_since(ticket, Duration::from_secs(60));
        });
        mb.deposit(msg(3, 9, 0, 42.0));
        assert_eq!(receiver.join().unwrap(), 42.0);
    }
}
