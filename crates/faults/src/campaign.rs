//! Adversarial multi-event fault schedules for campaign testing.
//!
//! Every experiment elsewhere in the suite injects exactly one planned
//! fault. This module provides the *campaign* vocabulary: composable
//! multi-strike plans ([`Strike`]/[`StrikePlan`]) with per-event
//! incarnation pinning, rank-death event lists ([`DeathEvent`]), and a
//! seeded generator ([`FaultSchedule::generate`]) that draws adversarial
//! schedules from a taxonomy of fault families ([`FaultFamily`]) —
//! correlated cross-rank flips, flips inside the preconditioner apply,
//! multiple rank deaths, a death timed to land *during* the LFLR recovery
//! rendezvous, and deaths straddling the snapshot-persist cadence.
//!
//! Schedules are plain data: the driver in the core crate turns them into
//! space-level strike plans and runtime failure schedules, runs the solver,
//! and asserts the converge-or-honestly-fail oracle. Because the vendored
//! `proptest` has no shrinking, the module also ships a greedy event-drop
//! minimizer ([`FaultSchedule::minimize`]) so any contract violation can be
//! checked in as a minimal deterministic regression.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::bitflip::flip_bit_f64;

/// One planned bit flip, pinned to a world rank, an incarnation, and an
/// application ordinal of the instrumented operation (SpMV or
/// preconditioner apply).
///
/// The incarnation pin is what makes multi-event schedules composable with
/// recovery: a strike with `incarnation: 0` can never replay on a
/// replacement rank, while a strike pinned to `incarnation: 1` targets
/// exactly the replacement's re-execution — the adversarial case single
/// `SpmvFault`-style plans cannot express.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Strike {
    /// World rank whose local data is struck.
    pub rank: usize,
    /// Incarnation the strike is pinned to (0 = original process,
    /// n = n-th replacement).
    pub incarnation: u64,
    /// Which application of the instrumented operation to strike
    /// (0-based ordinal, counted per rank-lifetime by the observer).
    pub at: u64,
    /// Local element index; clamped to the slice length at strike time.
    pub element: usize,
    /// Bit position to flip (0–63).
    pub bit: u32,
}

/// An ordered list of [`Strike`]s with fire-once bookkeeping.
///
/// The observing code (e.g. a distributed space's SpMV) calls
/// [`strike_slice`](StrikePlan::strike_slice) once per application with its
/// rank, incarnation and application ordinal; every matching strike that
/// has not yet fired flips its bit in the local slice. Each entry fires at
/// most once, so a plan is also a record: [`fired`](StrikePlan::fired)
/// reports how many strikes actually landed.
#[derive(Debug, Clone, Default)]
pub struct StrikePlan {
    strikes: Vec<Strike>,
    fired: Vec<bool>,
}

impl StrikePlan {
    /// Build a plan from an ordered strike list.
    pub fn new(strikes: Vec<Strike>) -> Self {
        let fired = vec![false; strikes.len()];
        Self { strikes, fired }
    }

    /// Independent per-element upsets on `rank`: each of `elements` output
    /// entries of each of the first `applications` applications is struck
    /// with probability `rate`, at a uniformly random bit — an unreliable
    /// tier whose corruption rate is per element per application, i.e. per
    /// FLOP. The draws are taken from `rng` application by application,
    /// element by element (a uniform `f64`, then the bit when it strikes),
    /// and not at all when `rate` is not positive.
    pub fn random_flips(
        rank: usize,
        rate: f64,
        applications: u64,
        elements: usize,
        rng: &mut ChaCha8Rng,
    ) -> Self {
        let mut strikes = Vec::new();
        if rate > 0.0 {
            for at in 0..applications {
                for element in 0..elements {
                    if rng.gen::<f64>() < rate {
                        strikes.push(Strike {
                            rank,
                            incarnation: 0,
                            at,
                            element,
                            bit: rng.gen_range(0..64),
                        });
                    }
                }
            }
        }
        Self::new(strikes)
    }

    /// This plan's strikes followed by `later`'s, each keeping whether it
    /// has fired.
    pub fn chain(mut self, later: StrikePlan) -> Self {
        self.strikes.extend(later.strikes);
        self.fired.extend(later.fired);
        self
    }

    /// The planned strikes, in order.
    pub fn strikes(&self) -> &[Strike] {
        &self.strikes
    }

    /// True when the plan contains no strikes.
    pub fn is_empty(&self) -> bool {
        self.strikes.is_empty()
    }

    /// Number of strikes that have fired so far.
    pub fn fired(&self) -> usize {
        self.fired.iter().filter(|f| **f).count()
    }

    /// Apply every due, unfired strike to `data`, given the observer's
    /// world rank, incarnation and application ordinal. Returns the number
    /// of bits flipped. Empty slices are never struck (a dead or dataless
    /// rank has nothing to corrupt).
    pub fn strike_slice(
        &mut self,
        rank: usize,
        incarnation: u64,
        at: u64,
        data: &mut [f64],
    ) -> usize {
        if data.is_empty() {
            return 0;
        }
        let mut hits = 0;
        for (strike, fired) in self.strikes.iter().zip(self.fired.iter_mut()) {
            if *fired || strike.rank != rank || strike.incarnation != incarnation || strike.at != at
            {
                continue;
            }
            let i = strike.element.min(data.len() - 1);
            data[i] = flip_bit_f64(data[i], strike.bit);
            *fired = true;
            hits += 1;
        }
        hits
    }
}

/// One planned fail-stop rank death, timed as a fraction of the clean-run
/// makespan (the campaign driver converts fractions to virtual seconds or
/// collective counts per backend).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeathEvent {
    /// World rank that dies.
    pub rank: usize,
    /// Death time as a fraction of the failure-free makespan.
    pub at_frac: f64,
}

/// The campaign's schedule taxonomy: each family is a qualitatively
/// distinct way compound faults can attack a resilient solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultFamily {
    /// The same SpMV application struck on several ranks at once — the
    /// correlated upset a per-rank single-fault model never produces.
    CorrelatedSpmvFlips,
    /// Flips inside the preconditioner apply (historically unguarded by
    /// any policy check).
    PrecondFlips,
    /// SpMV and preconditioner strikes interleaved at independent times.
    MixedFlipStorm,
    /// Two or more distinct ranks die at separated times.
    MultiRankDeath,
    /// A second rank dies immediately after the first — timed so the
    /// second death lands during the first death's recovery rendezvous.
    /// May carry a strike pinned to the replacement's incarnation.
    RendezvousDeath,
    /// A single death timed to straddle the snapshot-persist cadence
    /// (just before, at, or just after a persist boundary).
    PersistBoundaryDeath,
}

impl FaultFamily {
    /// Every family, in a fixed sweep order.
    pub const ALL: [FaultFamily; 6] = [
        FaultFamily::CorrelatedSpmvFlips,
        FaultFamily::PrecondFlips,
        FaultFamily::MixedFlipStorm,
        FaultFamily::MultiRankDeath,
        FaultFamily::RendezvousDeath,
        FaultFamily::PersistBoundaryDeath,
    ];

    /// Stable short name for reports and repro lines.
    pub fn name(&self) -> &'static str {
        match self {
            FaultFamily::CorrelatedSpmvFlips => "correlated-spmv-flips",
            FaultFamily::PrecondFlips => "precond-flips",
            FaultFamily::MixedFlipStorm => "mixed-flip-storm",
            FaultFamily::MultiRankDeath => "multi-rank-death",
            FaultFamily::RendezvousDeath => "rendezvous-death",
            FaultFamily::PersistBoundaryDeath => "persist-boundary-death",
        }
    }

    /// True for families whose events are rank deaths (they need a
    /// recovery-capable preset); false for pure data-corruption families.
    pub fn is_death_family(&self) -> bool {
        matches!(
            self,
            FaultFamily::MultiRankDeath
                | FaultFamily::RendezvousDeath
                | FaultFamily::PersistBoundaryDeath
        )
    }
}

/// Clean-run geometry the generator scales its draws to: schedules are
/// adversarial only if their events land inside the window where the solve
/// is actually doing work.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleParams {
    /// World size of the target run.
    pub ranks: usize,
    /// SpMV applications per rank observed in the failure-free run.
    pub max_applications: u64,
    /// Preconditioner applications per rank in the failure-free run
    /// (0 for unpreconditioned presets — precond strikes are then skipped).
    pub max_precond_applications: u64,
    /// Local vector length per rank (element indices are drawn below it).
    pub local_len: usize,
    /// Snapshot-persist cadence in iterations (for the persist-boundary
    /// family).
    pub persist_every: usize,
    /// Iterations of the failure-free solve (for converting iteration
    /// positions into makespan fractions).
    pub clean_iterations: usize,
}

/// A generated multi-event schedule: strike lists for the two instrumented
/// data paths plus a rank-death event list, tagged with its provenance so
/// every violation is reproducible from the panic message alone.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    /// Family the schedule was drawn from.
    pub family: FaultFamily,
    /// Seed it was drawn with ([`FaultSchedule::generate`] is a pure
    /// function of family, seed and params).
    pub seed: u64,
    /// Strikes against the SpMV output path.
    pub spmv: Vec<Strike>,
    /// Strikes against the preconditioner-apply output path.
    pub precond: Vec<Strike>,
    /// Fail-stop rank deaths, ordered by time.
    pub deaths: Vec<DeathEvent>,
}

fn window(rng: &mut ChaCha8Rng, max: u64) -> u64 {
    // Strike inside the middle of the clean run: early enough to matter,
    // late enough that the recurrence has state worth corrupting.
    let lo = max / 5;
    let hi = (max * 4 / 5).max(lo + 1);
    rng.gen_range(lo..hi)
}

fn draw_strike(
    rng: &mut ChaCha8Rng,
    p: &ScheduleParams,
    max_apps: u64,
    incarnation: u64,
) -> Strike {
    Strike {
        rank: rng.gen_range(0..p.ranks),
        incarnation,
        at: window(rng, max_apps.max(1)),
        element: rng.gen_range(0..p.local_len.max(1)),
        bit: rng.gen_range(0..64),
    }
}

impl FaultSchedule {
    /// Draw a schedule from `family`, deterministically from `seed` and the
    /// clean-run geometry in `params`.
    pub fn generate(family: FaultFamily, seed: u64, params: &ScheduleParams) -> Self {
        // Mix the family into the stream so family sweeps at a shared seed
        // do not replay the same draws.
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (family as u64).wrapping_mul(0x9e37_79b9));
        let mut spmv = Vec::new();
        let mut precond = Vec::new();
        let mut deaths = Vec::new();
        match family {
            FaultFamily::CorrelatedSpmvFlips => {
                let at = window(&mut rng, params.max_applications.max(1));
                let hit = rng.gen_range(2..=params.ranks.max(2)).min(params.ranks);
                let start = rng.gen_range(0..params.ranks);
                for k in 0..hit {
                    spmv.push(Strike {
                        rank: (start + k) % params.ranks,
                        incarnation: 0,
                        at,
                        element: rng.gen_range(0..params.local_len.max(1)),
                        bit: rng.gen_range(0..64),
                    });
                }
            }
            FaultFamily::PrecondFlips => {
                let n = rng.gen_range(1..=3);
                for _ in 0..n {
                    precond.push(draw_strike(
                        &mut rng,
                        params,
                        params.max_precond_applications,
                        0,
                    ));
                }
            }
            FaultFamily::MixedFlipStorm => {
                let ns = rng.gen_range(1..=3);
                let np = rng.gen_range(1..=3);
                for _ in 0..ns {
                    spmv.push(draw_strike(&mut rng, params, params.max_applications, 0));
                }
                for _ in 0..np {
                    precond.push(draw_strike(
                        &mut rng,
                        params,
                        params.max_precond_applications,
                        0,
                    ));
                }
            }
            FaultFamily::MultiRankDeath => {
                let n = 2.min(params.ranks.saturating_sub(1)).max(1);
                let start = rng.gen_range(0..params.ranks);
                let mut fracs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.15..0.85)).collect();
                fracs.sort_by(|a, b| a.partial_cmp(b).expect("finite fractions"));
                for (k, at_frac) in fracs.into_iter().enumerate() {
                    deaths.push(DeathEvent {
                        rank: (start + k) % params.ranks,
                        at_frac,
                    });
                }
            }
            FaultFamily::RendezvousDeath => {
                let first = rng.gen_range(0..params.ranks);
                let second = (first + 1 + rng.gen_range(0..params.ranks.saturating_sub(1).max(1)))
                    % params.ranks;
                let f = rng.gen_range(0.2..0.7);
                let delta = rng.gen_range(0.001..0.04);
                deaths.push(DeathEvent {
                    rank: first,
                    at_frac: f,
                });
                deaths.push(DeathEvent {
                    rank: second,
                    at_frac: f + delta,
                });
                // Half the draws also strike the replacement's re-execution:
                // the incarnation-pinned case a single-strike plan cannot hit.
                if rng.gen_range(0..2) == 1 {
                    spmv.push(draw_strike(&mut rng, params, params.max_applications, 1));
                }
            }
            FaultFamily::PersistBoundaryDeath => {
                let every = params.persist_every.max(1);
                let boundaries = (params.clean_iterations / every).max(1);
                let k = rng.gen_range(1..=boundaries);
                let jitter: i64 = rng.gen_range(-1..=1);
                let iter = ((k * every) as i64 + jitter).max(1) as f64;
                let frac = (iter / params.clean_iterations.max(1) as f64).clamp(0.05, 0.95);
                deaths.push(DeathEvent {
                    rank: rng.gen_range(0..params.ranks),
                    at_frac: frac,
                });
            }
        }
        Self {
            family,
            seed,
            spmv,
            precond,
            deaths,
        }
    }

    /// Total event count across all three lists.
    fn event_count(&self) -> usize {
        self.spmv.len() + self.precond.len() + self.deaths.len()
    }

    /// True when no fault of any kind is scheduled.
    pub fn is_empty(&self) -> bool {
        self.event_count() == 0
    }

    /// A fresh fire-once plan over the SpMV strikes.
    pub fn spmv_plan(&self) -> StrikePlan {
        StrikePlan::new(self.spmv.clone())
    }

    /// A fresh fire-once plan over the preconditioner strikes.
    pub fn precond_plan(&self) -> StrikePlan {
        StrikePlan::new(self.precond.clone())
    }

    /// Every schedule obtainable by dropping exactly one event — the
    /// shrink neighbourhood of the greedy minimizer.
    fn shrink_candidates(&self) -> Vec<FaultSchedule> {
        let mut out = Vec::with_capacity(self.event_count());
        for i in 0..self.spmv.len() {
            let mut s = self.clone();
            s.spmv.remove(i);
            out.push(s);
        }
        for i in 0..self.precond.len() {
            let mut s = self.clone();
            s.precond.remove(i);
            out.push(s);
        }
        for i in 0..self.deaths.len() {
            let mut s = self.clone();
            s.deaths.remove(i);
            out.push(s);
        }
        out
    }

    /// Greedily minimize a failing schedule: repeatedly drop any single
    /// event whose removal keeps `still_fails` true, until no single-event
    /// drop preserves the failure. The vendored proptest has no shrinking,
    /// so this is how a campaign violation becomes a checked-in regression
    /// small enough to name the bug it pins.
    pub fn minimize(
        mut self,
        mut still_fails: impl FnMut(&FaultSchedule) -> bool,
    ) -> FaultSchedule {
        'outer: loop {
            for candidate in self.shrink_candidates() {
                if still_fails(&candidate) {
                    self = candidate;
                    continue 'outer;
                }
            }
            return self;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ScheduleParams {
        ScheduleParams {
            ranks: 4,
            max_applications: 40,
            max_precond_applications: 40,
            local_len: 8,
            persist_every: 10,
            clean_iterations: 38,
        }
    }

    #[test]
    fn generation_is_deterministic_in_family_and_seed() {
        let p = params();
        for family in FaultFamily::ALL {
            let a = FaultSchedule::generate(family, 7, &p);
            let b = FaultSchedule::generate(family, 7, &p);
            assert_eq!(
                a,
                b,
                "{} must be a pure function of the seed",
                family.name()
            );
            assert!(!a.is_empty(), "{} drew an empty schedule", family.name());
        }
    }

    #[test]
    fn families_at_shared_seed_draw_distinct_streams() {
        let p = params();
        let a = FaultSchedule::generate(FaultFamily::CorrelatedSpmvFlips, 3, &p);
        let b = FaultSchedule::generate(FaultFamily::MixedFlipStorm, 3, &p);
        assert_ne!((a.spmv, a.precond), (b.spmv, b.precond));
    }

    #[test]
    fn correlated_family_strikes_one_application_on_multiple_ranks() {
        let p = params();
        for seed in 0..20 {
            let s = FaultSchedule::generate(FaultFamily::CorrelatedSpmvFlips, seed, &p);
            assert!(s.spmv.len() >= 2);
            let at = s.spmv[0].at;
            assert!(s.spmv.iter().all(|k| k.at == at), "same application");
            let mut ranks: Vec<_> = s.spmv.iter().map(|k| k.rank).collect();
            ranks.sort_unstable();
            ranks.dedup();
            assert_eq!(ranks.len(), s.spmv.len(), "distinct ranks");
        }
    }

    #[test]
    fn rendezvous_family_schedules_back_to_back_deaths_on_distinct_ranks() {
        let p = params();
        for seed in 0..20 {
            let s = FaultSchedule::generate(FaultFamily::RendezvousDeath, seed, &p);
            assert_eq!(s.deaths.len(), 2);
            assert_ne!(s.deaths[0].rank, s.deaths[1].rank);
            let gap = s.deaths[1].at_frac - s.deaths[0].at_frac;
            assert!(gap > 0.0 && gap < 0.05, "second death rides the recovery");
            for k in &s.spmv {
                assert_eq!(k.incarnation, 1, "extra strike targets the replacement");
            }
        }
    }

    #[test]
    fn persist_boundary_family_lands_next_to_a_persist_point() {
        let p = params();
        for seed in 0..20 {
            let s = FaultSchedule::generate(FaultFamily::PersistBoundaryDeath, seed, &p);
            assert_eq!(s.deaths.len(), 1);
            let f = s.deaths[0].at_frac;
            assert!((0.05..=0.95).contains(&f));
            let iter = f * p.clean_iterations as f64;
            let nearest = (iter / p.persist_every as f64).round() * p.persist_every as f64;
            assert!(
                (iter - nearest).abs() <= 1.5 || f == 0.05 || f == 0.95,
                "death at iteration {iter} should straddle a persist boundary"
            );
        }
    }

    #[test]
    fn strike_plan_fires_each_entry_once_and_respects_pins() {
        let strike = Strike {
            rank: 1,
            incarnation: 0,
            at: 3,
            element: 2,
            bit: 52,
        };
        let mut plan = StrikePlan::new(vec![strike]);
        let mut data = [1.0; 4];
        // Wrong rank, wrong incarnation, wrong application: no fire.
        assert_eq!(plan.strike_slice(0, 0, 3, &mut data), 0);
        assert_eq!(plan.strike_slice(1, 1, 3, &mut data), 0);
        assert_eq!(plan.strike_slice(1, 0, 2, &mut data), 0);
        assert_eq!(data, [1.0; 4]);
        // Exact match fires once.
        assert_eq!(plan.strike_slice(1, 0, 3, &mut data), 1);
        assert_ne!(data[2], 1.0);
        assert_eq!(plan.fired(), 1);
        // Replay of the same coordinates does not re-fire.
        let before = data;
        assert_eq!(plan.strike_slice(1, 0, 3, &mut data), 0);
        assert_eq!(data, before);
    }

    #[test]
    fn strike_plan_clamps_element_and_skips_empty_slices() {
        let strike = Strike {
            rank: 0,
            incarnation: 0,
            at: 0,
            element: 100,
            bit: 1,
        };
        let mut plan = StrikePlan::new(vec![strike]);
        let mut empty: [f64; 0] = [];
        assert_eq!(plan.strike_slice(0, 0, 0, &mut empty), 0);
        assert_eq!(
            plan.fired(),
            0,
            "an empty slice must not consume the strike"
        );
        let mut data = [4.0, 5.0];
        assert_eq!(plan.strike_slice(0, 0, 0, &mut data), 1);
        assert_eq!(data[0], 4.0);
        assert_ne!(data[1], 5.0, "clamped to the last element");
    }

    #[test]
    fn random_flips_at_rate_zero_are_clean() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut plan = StrikePlan::random_flips(0, 0.0, 10, 10, &mut rng);
        assert!(plan.is_empty());
        let mut data = [1.0; 10];
        assert_eq!(plan.strike_slice(0, 0, 0, &mut data), 0);
        assert_eq!(data, [1.0; 10]);
    }

    #[test]
    fn random_flips_land_near_the_rate() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut plan = StrikePlan::random_flips(0, 0.05, 200, 100, &mut rng);
        // Expected ≈ 200 applications × 100 elements × 0.05 = 1000.
        let planned = plan.strikes().len();
        assert!((600..1500).contains(&planned), "strikes = {planned}");
        let mut hits = 0;
        for at in 0..200 {
            hits += plan.strike_slice(0, 0, at, &mut [1.0; 100]);
        }
        assert_eq!(hits, planned, "every strike lands inside the window");
    }

    #[test]
    fn random_flips_are_a_function_of_the_seed() {
        let plan = |seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            StrikePlan::random_flips(0, 0.5, 1, 20, &mut rng)
                .strikes()
                .to_vec()
        };
        assert_eq!(plan(3), plan(3));
        assert_ne!(plan(3), plan(4));
    }

    #[test]
    fn minimize_drops_irrelevant_events() {
        let p = params();
        let mut s = FaultSchedule::generate(FaultFamily::MixedFlipStorm, 11, &p);
        // Force a known shape: several strikes, but pretend only precond
        // strikes on rank 2 reproduce the failure.
        s.spmv.push(Strike {
            rank: 0,
            incarnation: 0,
            at: 5,
            element: 0,
            bit: 3,
        });
        s.precond.push(Strike {
            rank: 2,
            incarnation: 0,
            at: 9,
            element: 1,
            bit: 60,
        });
        let minimized = s.minimize(|c| c.precond.iter().any(|k| k.rank == 2 && k.bit == 60));
        assert_eq!(minimized.event_count(), 1, "{minimized:?}");
        assert_eq!(minimized.precond[0].rank, 2);
        assert_eq!(minimized.precond[0].bit, 60);
    }
}
