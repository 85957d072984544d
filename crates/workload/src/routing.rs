//! Routing-aware arrival splitting for sharded fleets.
//!
//! A fleet run shards a large board population across K independent
//! simulator spines.  The front-end admission layer lives here: a
//! [`ShardRouter`] maps each [`AppArrival`] to a shard with a seeded,
//! deterministic [`Placement`] policy, using **only information exchanged at
//! epoch barriers** (per-shard assignment and completion counters) — never a
//! shard's internal state.  That restriction is what keeps shards free of
//! shared mutable state: within an epoch the router works from the snapshot
//! taken at the previous barrier, exactly like a real load balancer working
//! from slightly stale health metrics.
//!
//! Spillover admission is the one cross-shard effect modeled at admission
//! time: when the primary shard's backlog snapshot is at or above a
//! threshold, the arrival is forwarded to the least-loaded shard instead.
//! The fleet engine charges every forwarded arrival a configurable
//! forwarding latency, making spillover an explicit latency-bearing message
//! rather than an instantaneous teleport.

use serde::{Deserialize, Serialize};
use versaslot_sim::rng::splitmix64;

use crate::application::{AppArrival, AppId};

/// How the admission layer picks a primary shard for an arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Placement {
    /// Seeded hash of the application id — stateless, perfectly deterministic
    /// and oblivious to load (the classic consistent-placement baseline).
    #[default]
    Hash,
    /// The shard with the smallest backlog in the last barrier snapshot
    /// (ties broken by lowest shard index).
    LeastLoaded,
}

impl Placement {
    /// Human-readable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Placement::Hash => "hash",
            Placement::LeastLoaded => "least-loaded",
        }
    }
}

/// The seeded hash placement: mixes the seed and application id into a shard
/// index.  Exposed so tests and tools can predict placements.
pub fn hash_shard(seed: u64, id: AppId, shards: usize) -> usize {
    debug_assert!(shards > 0);
    (splitmix64(seed ^ u64::from(id.0)) % shards as u64) as usize
}

/// Where an arrival was routed, and whether it was spilled over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// Destination shard index.
    pub shard: usize,
    /// `true` when spillover redirected the arrival away from its primary
    /// shard (the fleet engine charges the forwarding latency).
    pub forwarded: bool,
}

/// Deterministic admission-layer router over K shards.
///
/// Tracks, per shard, how many arrivals it has assigned and the completion
/// count reported at the last epoch barrier
/// ([`ShardRouter::record_completions`]); the difference is the backlog
/// *snapshot* that [`Placement::LeastLoaded`] and spillover decisions use.
/// Routing is a pure function of the seed, the arrival ids and the barrier
/// snapshots, so a fleet run routes identically no matter how shards are
/// scheduled onto threads.
#[derive(Debug, Clone)]
pub struct ShardRouter {
    placement: Placement,
    seed: u64,
    /// Spill an arrival away from its primary shard when the primary's
    /// backlog snapshot is at or above this bound.
    spillover_threshold: Option<u64>,
    /// Arrivals assigned per shard (updated at admission time).
    assigned: Vec<u64>,
    /// Completions per shard as of the last barrier snapshot.
    completed: Vec<u64>,
    /// Total arrivals redirected by spillover.
    forwarded: u64,
}

impl ShardRouter {
    /// Creates a router over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or the spillover threshold is zero (a zero
    /// threshold would forward every arrival, including onto itself).
    pub fn new(
        placement: Placement,
        shards: usize,
        seed: u64,
        spillover_threshold: Option<u64>,
    ) -> Self {
        assert!(shards > 0, "a fleet needs at least one shard");
        if let Some(threshold) = spillover_threshold {
            assert!(threshold > 0, "spillover threshold must be positive");
        }
        ShardRouter {
            placement,
            seed,
            spillover_threshold,
            assigned: vec![0; shards],
            completed: vec![0; shards],
            forwarded: 0,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.assigned.len()
    }

    /// The placement policy.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Arrivals assigned to `shard` so far.
    pub fn assigned(&self, shard: usize) -> u64 {
        self.assigned[shard]
    }

    /// Backlog snapshot of `shard`: arrivals assigned minus completions
    /// reported at the last barrier.
    pub fn backlog(&self, shard: usize) -> u64 {
        self.assigned[shard].saturating_sub(self.completed[shard])
    }

    /// Total arrivals redirected by spillover so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// The shard with the smallest backlog snapshot, lowest index on ties.
    pub fn least_loaded(&self) -> usize {
        (0..self.shard_count())
            .min_by_key(|&shard| (self.backlog(shard), shard))
            .expect("at least one shard")
    }

    /// Routes one arrival: primary placement, then the spillover check.
    pub fn route(&mut self, arrival: &AppArrival) -> RouteDecision {
        let primary = match self.placement {
            Placement::Hash => hash_shard(self.seed, arrival.id, self.shard_count()),
            Placement::LeastLoaded => self.least_loaded(),
        };
        let mut shard = primary;
        let mut forwarded = false;
        if let Some(threshold) = self.spillover_threshold {
            if self.backlog(primary) >= threshold {
                let alternative = self.least_loaded();
                if alternative != primary && self.backlog(alternative) < self.backlog(primary) {
                    shard = alternative;
                    forwarded = true;
                    self.forwarded += 1;
                }
            }
        }
        self.assigned[shard] += 1;
        RouteDecision { shard, forwarded }
    }

    /// Barrier snapshot exchange: records that `shard` has completed
    /// `completed_total` applications in total.
    ///
    /// # Panics
    ///
    /// Panics if the counter moves backwards (completions are cumulative).
    pub fn record_completions(&mut self, shard: usize, completed_total: u64) {
        assert!(
            completed_total >= self.completed[shard],
            "completion counters are cumulative"
        );
        self.completed[shard] = completed_total;
    }
}

/// Splits a batch of arrivals into per-shard delivery lists, preserving the
/// input (time) order within each shard.  Convenience wrapper over
/// [`ShardRouter::route`] for tests and offline tooling; the fleet engine
/// routes arrival-by-arrival so it can apply forwarding latency.
pub fn split_arrivals(router: &mut ShardRouter, arrivals: &[AppArrival]) -> Vec<Vec<AppArrival>> {
    let mut per_shard = vec![Vec::new(); router.shard_count()];
    for arrival in arrivals {
        let decision = router.route(arrival);
        per_shard[decision.shard].push(*arrival);
    }
    per_shard
}

#[cfg(test)]
mod tests {
    use super::*;
    use versaslot_sim::SimTime;

    fn arrival(id: u32) -> AppArrival {
        AppArrival::new(
            AppId(id),
            id as usize % 3,
            10,
            SimTime::from_millis(u64::from(id)),
        )
    }

    #[test]
    fn hash_placement_is_deterministic_and_spread() {
        let mut router = ShardRouter::new(Placement::Hash, 8, 42, None);
        let shards: Vec<usize> = (0..1_000)
            .map(|i| router.route(&arrival(i)).shard)
            .collect();
        let mut replay = ShardRouter::new(Placement::Hash, 8, 42, None);
        let again: Vec<usize> = (0..1_000)
            .map(|i| replay.route(&arrival(i)).shard)
            .collect();
        assert_eq!(shards, again, "same seed, same placement");
        // Every shard gets a reasonable share of 1000 hashed arrivals.
        for shard in 0..8 {
            let share = shards.iter().filter(|&&s| s == shard).count();
            assert!((50..=250).contains(&share), "shard {shard} got {share}");
        }
        // A different seed shuffles the placement.
        let mut other = ShardRouter::new(Placement::Hash, 8, 43, None);
        let moved: Vec<usize> = (0..1_000).map(|i| other.route(&arrival(i)).shard).collect();
        assert_ne!(shards, moved, "seed is ignored");
    }

    #[test]
    fn hash_shard_golden_values() {
        // Pinned placements: the fleet's shard assignment (and so every
        // fleet report) depends on these exact hashes.
        let cases = [
            (0u64, 0u32, 1usize, 0usize),
            (0, 0, 8, 7),
            (42, 1, 8, 0),
            (42, 999, 8, 3),
            (7, 12_345, 5, 1),
            (0x5EED_F1EE, 3, 4, 3),
            (u64::MAX, u32::MAX, 7, 5),
            (1, 2, 1_000, 53),
        ];
        for (seed, id, shards, expected) in cases {
            assert_eq!(
                hash_shard(seed, AppId(id), shards),
                expected,
                "hash_shard({seed}, {id}, {shards})"
            );
        }
    }

    #[test]
    fn least_loaded_balances_on_snapshots() {
        let mut router = ShardRouter::new(Placement::LeastLoaded, 4, 0, None);
        for i in 0..12 {
            router.route(&arrival(i));
        }
        // With no completions reported, round-robin-like perfect balance.
        for shard in 0..4 {
            assert_eq!(router.backlog(shard), 3);
        }
        // A barrier snapshot saying shard 2 finished everything pulls the
        // next arrivals there until the backlogs level out again.
        router.record_completions(2, 3);
        assert_eq!(router.route(&arrival(100)).shard, 2);
        assert_eq!(router.route(&arrival(101)).shard, 2);
        assert_eq!(router.route(&arrival(102)).shard, 2);
        assert_eq!(router.backlog(2), 3);
    }

    #[test]
    fn spillover_forwards_past_hot_shards() {
        // Threshold 2: once a primary has 2 outstanding, spill to the
        // least-loaded shard.
        let mut router = ShardRouter::new(Placement::Hash, 2, 7, Some(2));
        let mut forwarded = 0;
        for i in 0..40 {
            if router.route(&arrival(i)).forwarded {
                forwarded += 1;
            }
        }
        assert_eq!(router.forwarded(), forwarded);
        assert!(forwarded > 0, "a threshold of 2 must trigger spillover");
        // Spillover keeps the backlogs within threshold of each other.
        let gap = router.backlog(0).abs_diff(router.backlog(1));
        assert!(gap <= 2, "backlog gap {gap} exceeds the threshold");
    }

    #[test]
    fn split_preserves_per_shard_order_and_covers_everything() {
        let arrivals: Vec<AppArrival> = (0..200).map(arrival).collect();
        let mut router = ShardRouter::new(Placement::Hash, 5, 11, None);
        let per_shard = split_arrivals(&mut router, &arrivals);
        assert_eq!(per_shard.len(), 5);
        let total: usize = per_shard.iter().map(Vec::len).sum();
        assert_eq!(total, arrivals.len());
        for list in &per_shard {
            for pair in list.windows(2) {
                assert!(
                    pair[0].arrival <= pair[1].arrival,
                    "shard list out of order"
                );
                assert!(pair[0].id < pair[1].id, "input order not preserved");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_are_rejected() {
        ShardRouter::new(Placement::Hash, 0, 0, None);
    }

    #[test]
    #[should_panic(expected = "cumulative")]
    fn completion_counters_cannot_move_backwards() {
        let mut router = ShardRouter::new(Placement::Hash, 2, 0, None);
        router.record_completions(0, 5);
        router.record_completions(0, 4);
    }
}
