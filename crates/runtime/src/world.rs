//! The shared state of one job ("world").

use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock::RankClock;
use crate::config::CostModel;
use crate::engine::CollectiveEngine;
use crate::health::HealthBoard;
use crate::mailbox::Mailbox;
use crate::persistent::{PersistentStore, StableStore};
use crate::stats::RankStats;

/// Shared, reference-counted state of a running job. One `World` is created
/// per launch and shared by every rank thread (original and replacement
/// incarnations).
pub(crate) struct World<K: RankClock> {
    /// The machine model costs are charged against.
    pub(crate) model: CostModel,
    /// What the ranks' clocks are started from.
    pub(crate) time: K::Job,
    /// Number of ranks.
    pub size: usize,
    /// One mailbox per rank.
    pub mailboxes: Vec<Mailbox>,
    /// Collective rendezvous engine.
    pub engine: CollectiveEngine,
    /// Failure/health board.
    pub health: HealthBoard,
    /// Per-rank persistent store (survives rank failure, not job abort).
    pub persistent: PersistentStore,
    /// Job-global stable store (survives job aborts; shared across restarts
    /// by the checkpoint/restart driver).
    pub stable: StableStore,
    /// Statistics of incarnations that terminated by failure (their threads
    /// cannot return stats through the normal path).
    pub lost_stats: Mutex<Vec<RankStats>>,
}

impl<K: RankClock> World<K> {
    /// Create the shared state for a job of `size` ranks. Whether blocked
    /// ranks poll before they park is the clock's decision, applied to the
    /// engine and to every mailbox alike.
    pub(crate) fn new(
        model: CostModel,
        time: K::Job,
        size: usize,
        stable: StableStore,
    ) -> Arc<Self> {
        let poll_rounds = K::poll_rounds(size);
        Arc::new(Self {
            size,
            mailboxes: (0..size)
                .map(|_| Mailbox::with_poll_rounds(poll_rounds))
                .collect(),
            engine: CollectiveEngine::with_poll_rounds(poll_rounds),
            health: HealthBoard::new(size, model.policy),
            persistent: PersistentStore::new(size),
            stable,
            lost_stats: Mutex::new(Vec::new()),
            model,
            time,
        })
    }

    /// Wake every blocked receiver and collective waiter so they observe a
    /// failure or abort promptly.
    pub(crate) fn interrupt_all(&self) {
        for mb in &self.mailboxes {
            mb.interrupt();
        }
        self.engine.interrupt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::config::{FailureConfig, FailurePolicy, RuntimeConfig};

    fn world(cfg: RuntimeConfig, size: usize) -> Arc<World<VirtualClock>> {
        World::new(CostModel::from(&cfg), cfg, size, StableStore::new())
    }

    #[test]
    fn world_construction() {
        let cfg = RuntimeConfig::fast()
            .with_failures(FailureConfig::scheduled(FailurePolicy::ReplaceRank, vec![]));
        let w = world(cfg, 4);
        assert_eq!(w.size, 4);
        assert_eq!(w.mailboxes.len(), 4);
        assert_eq!(w.persistent.size(), 4);
        assert_eq!(w.health.policy(), FailurePolicy::ReplaceRank);
        assert_eq!(w.health.alive_ranks().len(), 4);
    }

    #[test]
    fn interrupt_all_is_safe_when_idle() {
        let w = world(RuntimeConfig::fast(), 2);
        w.interrupt_all();
    }
}
