//! Shard-balance health: the per-shard occupancy and timing. Its balance
//! gauges are what `GET /v1/debug/health` and the `dod_shard_balance_*`
//! metric family report.
//!
//! The derived gauges are the early-warning signals a future
//! re-pivoting policy would act on: a drifting stream concentrates mass
//! in a few Voronoi cells, which shows up here as *owned-point skew*
//! (one shard holds far more of the window than the mean), *slide-time
//! skew* (one pump does far more than its share of the work), and a
//! rising *ghost rate* (the partition keeps splitting neighborhoods, so
//! exactness is being bought with replication).

use crate::router::GhostRouteStats;
use dod_stream::StreamStats;

/// One shard's health snapshot: who lives there and what the work cost.
#[derive(Debug, Clone)]
pub struct ShardHealth {
    /// Residents this shard owns (reports them).
    pub owned: usize,
    /// Ghost replicas resident here (discovered against, never
    /// reported).
    pub ghosts: usize,
    /// The shard detector's lifetime counters.
    pub stats: StreamStats,
}

impl ShardHealth {
    /// Ghost fraction of this shard's residents; `0.0` when empty.
    pub fn ghost_rate(&self) -> f64 {
        let total = self.owned + self.ghosts;
        if total == 0 {
            0.0
        } else {
            self.ghosts as f64 / total as f64
        }
    }

    /// Wall time this shard has spent sliding (inserts + expiries), in
    /// nanoseconds — the load measure behind [`HealthReport::slide_skew`].
    pub fn slide_nanos(&self) -> u64 {
        self.stats.insert_nanos + self.stats.expiry_nanos
    }
}

/// The whole topology's health at one slide boundary: every shard's
/// [`ShardHealth`] plus the router's ghost-routing record, collected
/// under the same barrier so the numbers describe one consistent cut.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Per-shard snapshots, indexed by shard.
    pub shards: Vec<ShardHealth>,
    /// Lifetime owned counts and the `(owner, target)` ghost matrix.
    pub routes: GhostRouteStats,
}

/// `max / mean` of a load distribution: `1.0` is perfect balance, `S`
/// (the shard count) is total collapse onto one shard. Defined as `1.0`
/// for an empty or all-zero distribution — nothing is imbalanced about
/// no load.
fn skew(values: impl Iterator<Item = f64>) -> f64 {
    let (mut max, mut sum, mut n) = (0.0f64, 0.0f64, 0u32);
    for v in values {
        max = max.max(v);
        sum += v;
        n += 1;
    }
    if n == 0 || sum <= 0.0 {
        1.0
    } else {
        max / (sum / f64::from(n))
    }
}

impl HealthReport {
    /// Summed lifetime counters across shards (the same aggregation as
    /// [`crate::ShardedStreamDetector::stats`]).
    pub fn stats(&self) -> StreamStats {
        let mut total = StreamStats::default();
        for s in &self.shards {
            total.absorb(&s.stats);
        }
        total
    }

    /// Owned-resident skew (`max/mean`; `1.0` = balanced). Rises when
    /// stream drift concentrates the window onto few pivot cells.
    pub fn owned_skew(&self) -> f64 {
        skew(self.shards.iter().map(|s| s.owned as f64))
    }

    /// Slide-time skew over per-shard `insert_nanos + expiry_nanos` —
    /// the *work* imbalance, which can diverge from occupancy when one
    /// shard's residents are expensive (dense neighborhoods with many
    /// tracked residents).
    pub fn slide_skew(&self) -> f64 {
        skew(self.shards.iter().map(|s| s.slide_nanos() as f64))
    }

    /// Per-shard ghost fraction of residents, indexed by shard.
    pub fn ghost_rates(&self) -> Vec<f64> {
        self.shards.iter().map(ShardHealth::ghost_rate).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(owned: usize, ghosts: usize, slide_nanos: u64) -> ShardHealth {
        ShardHealth {
            owned,
            ghosts,
            stats: StreamStats {
                insert_nanos: slide_nanos / 2,
                expiry_nanos: slide_nanos - slide_nanos / 2,
                ..StreamStats::default()
            },
        }
    }

    #[test]
    fn skew_is_max_over_mean_and_one_when_unloaded() {
        let report = HealthReport {
            shards: vec![shard(30, 0, 300), shard(10, 0, 100), shard(20, 0, 200)],
            routes: GhostRouteStats::default(),
        };
        // mean owned = 20, max = 30.
        assert!((report.owned_skew() - 1.5).abs() < 1e-12);
        assert!((report.slide_skew() - 1.5).abs() < 1e-12);

        let empty = HealthReport {
            shards: vec![shard(0, 0, 0); 4],
            routes: GhostRouteStats::default(),
        };
        assert_eq!(empty.owned_skew(), 1.0);
        assert_eq!(empty.slide_skew(), 1.0);
        let none = HealthReport {
            shards: Vec::new(),
            routes: GhostRouteStats::default(),
        };
        assert_eq!(none.owned_skew(), 1.0);
    }

    #[test]
    fn ghost_rates_are_per_shard_fractions() {
        let report = HealthReport {
            shards: vec![shard(8, 2, 0), shard(0, 0, 0), shard(5, 5, 0)],
            routes: GhostRouteStats::default(),
        };
        assert_eq!(report.ghost_rates(), vec![0.2, 0.0, 0.5]);
    }

    #[test]
    fn aggregates_absorb_across_shards() {
        let mut a = shard(4, 1, 100);
        a.stats.inserts = 7;
        let mut b = shard(6, 0, 50);
        b.stats.inserts = 3;
        let report = HealthReport {
            shards: vec![a, b],
            routes: GhostRouteStats::default(),
        };
        assert_eq!(report.stats().inserts, 10);
    }
}
