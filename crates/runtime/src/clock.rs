//! Rank clocks: the one thing the two execution backends do differently.
//!
//! A rank's communicator ([`Comm`](crate::comm::Comm)), the job's shared
//! state ([`World`](crate::world::World)) and the launcher are written once,
//! generic over a [`RankClock`]. The clock answers every question on which
//! the simulator and the real-threads backend disagree — what time it is,
//! how a modelled cost is paid, whether this rank is due to die, how long a
//! parked wait may last, whether to poll before parking (the crate doc
//! tabulates the answers) — and nothing else about a backend is written
//! twice.
//!
//! This module holds the trait and [`VirtualClock`], the simulator's: time
//! is a number that advances when the application *charges* work to it.
//! Wall time on an oversubscribed test machine says nothing about a
//! million-rank machine; virtual time is what the latency-tolerance and
//! recovery experiments report, deterministically. The other clock,
//! [`WallClock`](crate::threads::WallClock), lives in
//! [`threads`](crate::threads), the only runtime file that reads real time;
//! `exp_backend_parity` checks this clock's predictions against that
//! clock's measurements.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::config::RuntimeConfig;
use crate::failure::FailureSchedule;
use crate::noise::NoiseModel;
use crate::stats::RankStats;

/// What a backend decides about time. One value per rank incarnation, owned
/// by its [`Comm`](crate::comm::Comm); everything else in the runtime is
/// shared between the backends.
pub trait RankClock: Sized {
    /// What the clocks of one job are started from (shared, read-only).
    type Job: Send + Sync + 'static;

    /// The clock of `rank`'s incarnation `incarnation`, which becomes
    /// available at time `at`: 0 for an original, the predecessor's time of
    /// death plus the replacement cost for a replacement.
    fn start(job: &Self::Job, rank: usize, incarnation: u64, at: f64) -> Self;

    /// How many rounds a waiter of a `size`-rank job polls before it parks
    /// (see `engine::POLL_ROUNDS`); 0 parks at once.
    fn poll_rounds(size: usize) -> u32;

    /// Current time of this rank, in seconds.
    fn now(&self) -> f64;

    /// The time at which an operation posted now opens its latency window
    /// of `cost` seconds: a collective's entry time, a message's send time.
    /// The operation completes, for everyone, `cost` after the last window
    /// opened, and is paid for with [`wait_until`](Self::wait_until).
    fn window_opens(&self, cost: f64) -> f64;

    /// Spend `seconds` of local computation.
    fn spend_compute(&mut self, seconds: f64);

    /// Spend `seconds` moving data to or from the persistent or stable
    /// store.
    fn spend_checkpoint(&mut self, seconds: f64);

    /// Spend `seconds` on recovery from a failure.
    fn spend_recovery(&mut self, seconds: f64);

    /// Be at time `t` or later, booking whatever is left of the way there
    /// as communication wait. Work done since the window opened has already
    /// covered its share: that is latency hiding.
    fn wait_until(&mut self, t: f64);

    /// Can this rank be killed by failure injection at all? Asked before
    /// anything that costs (the job-wide failure cap takes a lock).
    fn deaths_armed(&self) -> bool;

    /// Is this rank due to die at this failure point? Consumes the event
    /// that says so. `collectives` is the number this incarnation has
    /// completed — its deterministic progress counter.
    fn due_to_die(&mut self, rank: usize, incarnation: u64, collectives: u64) -> bool;

    /// Asked each time a blocked wait is about to park (never while it
    /// polls): has it been parked for too long? `parked_since` is the
    /// wait's own scratch, `None` until the first call. A `true` turns the
    /// wait into [`RuntimeError::Timeout`](crate::error::RuntimeError::Timeout).
    fn park_expired(&self, parked_since: &mut Option<f64>) -> bool;

    /// Fill in the time fields of `stats`: the current time and its split
    /// into compute, communication wait, noise and recovery.
    fn fill_times(&self, stats: &mut RankStats);
}

/// A blocked wait's deadline, as the `expired` callback the engine and the
/// receive loop consult when they are about to park.
pub(crate) fn park_deadline<K: RankClock>(clock: &K) -> impl FnMut() -> bool + '_ {
    let mut parked_since = None;
    move || clock.park_expired(&mut parked_since)
}

/// The simulator's clock: a monotonically non-decreasing virtual time in
/// seconds, split by what it was spent on, together with everything that
/// moves it other than the application — the rank's noise model, its
/// failure schedule and the deterministic random stream both draw from.
#[derive(Debug, Clone)]
pub struct VirtualClock {
    now: f64,
    /// Total time attributed to local computation.
    compute: f64,
    /// Total time attributed to waiting on communication (latency that was
    /// *not* hidden by local work).
    comm_wait: f64,
    /// Total time attributed to injected noise events.
    noise: f64,
    /// Total time attributed to recovery work after failures.
    recovery: f64,
    rng: ChaCha8Rng,
    noise_model: NoiseModel,
    failures: FailureSchedule,
}

impl Default for VirtualClock {
    fn default() -> Self {
        Self::new()
    }
}

impl VirtualClock {
    /// A clock starting at time zero, without noise or failures.
    pub fn new() -> Self {
        Self::start(&RuntimeConfig::default(), 0, 0, 0.0)
    }

    /// The rank's deterministic random-number generator.
    pub fn rng(&mut self) -> &mut ChaCha8Rng {
        &mut self.rng
    }

    /// Advance the clock by `dt` seconds of computation. Negative or
    /// non-finite increments are ignored.
    #[inline]
    pub fn advance(&mut self, dt: f64) {
        if dt.is_finite() && dt > 0.0 {
            self.now += dt;
            self.compute += dt;
        }
    }

    /// Advance the clock by `dt` seconds of injected noise.
    #[inline]
    fn advance_noise(&mut self, dt: f64) {
        if dt.is_finite() && dt > 0.0 {
            self.now += dt;
            self.noise += dt;
        }
    }

    /// Advance the clock by `dt` seconds of recovery work.
    #[inline]
    fn advance_recovery(&mut self, dt: f64) {
        if dt.is_finite() && dt > 0.0 {
            self.now += dt;
            self.recovery += dt;
        }
    }
}

impl RankClock for VirtualClock {
    type Job = RuntimeConfig;

    fn start(job: &RuntimeConfig, rank: usize, incarnation: u64, at: f64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(
            job.seed
                ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ incarnation.wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        let failures = FailureSchedule::for_rank(&job.failures, rank, at, &mut rng);
        Self {
            now: at.max(0.0),
            compute: 0.0,
            comm_wait: 0.0,
            noise: 0.0,
            recovery: 0.0,
            rng,
            noise_model: NoiseModel::new(job.noise),
            failures,
        }
    }

    /// Simulated ranks may outnumber cores by any factor: park at once.
    fn poll_rounds(_size: usize) -> u32 {
        0
    }

    fn now(&self) -> f64 {
        self.now
    }

    fn window_opens(&self, _cost: f64) -> f64 {
        self.now
    }

    /// Noise events are sampled over the interval and added on top.
    fn spend_compute(&mut self, seconds: f64) {
        self.advance(seconds);
        let extra = self.noise_model.sample(seconds, &mut self.rng);
        if extra > 0.0 {
            self.advance_noise(extra);
        }
    }

    fn spend_checkpoint(&mut self, seconds: f64) {
        self.advance(seconds);
    }

    fn spend_recovery(&mut self, seconds: f64) {
        self.advance_recovery(seconds);
    }

    fn wait_until(&mut self, t: f64) {
        if t > self.now {
            self.comm_wait += t - self.now;
            self.now = t;
        }
    }

    fn deaths_armed(&self) -> bool {
        self.failures.enabled()
    }

    fn due_to_die(&mut self, _rank: usize, _incarnation: u64, _collectives: u64) -> bool {
        self.failures.due(self.now, &mut self.rng).is_some()
    }

    /// Virtual time does not pass while a rank thread is parked: a wait
    /// ends by completion or by a failure, never by the clock.
    fn park_expired(&self, _parked_since: &mut Option<f64>) -> bool {
        false
    }

    fn fill_times(&self, stats: &mut RankStats) {
        stats.virtual_time = self.now;
        stats.compute_time = self.compute;
        stats.comm_wait_time = self.comm_wait;
        stats.noise_time = self.noise;
        stats.recovery_time = self.recovery;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The clock's time fields, as the communicator reports them.
    fn times(c: &VirtualClock) -> RankStats {
        let mut stats = RankStats::default();
        c.fill_times(&mut stats);
        stats
    }

    #[test]
    fn starts_at_zero() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), 0.0);
        assert_eq!(times(&c).compute_time, 0.0);
    }

    #[test]
    fn advance_accumulates_compute() {
        let mut c = VirtualClock::new();
        c.advance(1.5);
        c.advance(0.5);
        assert!((c.now() - 2.0).abs() < 1e-15);
        assert!((times(&c).compute_time - 2.0).abs() < 1e-15);
    }

    #[test]
    fn ignores_negative_and_nan() {
        let mut c = VirtualClock::new();
        c.advance(-1.0);
        c.advance(f64::NAN);
        c.advance(f64::INFINITY);
        assert_eq!(c.now(), 0.0);
    }

    #[test]
    fn wait_until_only_moves_forward() {
        let mut c = VirtualClock::new();
        c.advance(5.0);
        c.wait_until(3.0);
        assert_eq!(times(&c).comm_wait_time, 0.0);
        assert_eq!(c.now(), 5.0);
        c.wait_until(8.0);
        assert!((times(&c).comm_wait_time - 3.0).abs() < 1e-15);
        assert_eq!(c.now(), 8.0);
    }

    #[test]
    fn categories_are_separate() {
        let mut c = VirtualClock::new();
        c.advance(1.0);
        c.advance_noise(2.0);
        c.advance_recovery(3.0);
        c.wait_until(7.0);
        let t = times(&c);
        assert!((t.compute_time - 1.0).abs() < 1e-15);
        assert!((t.noise_time - 2.0).abs() < 1e-15);
        assert!((t.recovery_time - 3.0).abs() < 1e-15);
        assert!((t.comm_wait_time - 1.0).abs() < 1e-15);
        assert!((c.now() - 7.0).abs() < 1e-15);
    }

    #[test]
    fn fast_forward_does_not_attribute() {
        // A replacement's clock starts at its predecessor's time of death
        // plus the replacement cost; nobody is billed for the gap.
        let c = VirtualClock::start(&RuntimeConfig::default(), 0, 1, 10.0);
        assert_eq!(c.now(), 10.0);
        assert_eq!(times(&c).comm_wait_time, 0.0);
        assert_eq!(times(&c).compute_time, 0.0);
        assert_eq!(
            VirtualClock::start(&RuntimeConfig::default(), 0, 1, -5.0).now(),
            0.0
        );
    }
}
