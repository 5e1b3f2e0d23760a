//! [`ShardSpec`] — how the window is split across shards.

use dod_core::DodError;

/// Configuration of a [`ShardedStreamDetector`](crate::ShardedStreamDetector).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Number of per-shard windows (`S ≥ 1`). `1` degenerates to a plain
    /// `StreamDetector` behind the sharded API.
    pub shards: usize,
    /// Length of the warm-up prefix pivots are sampled from. Arrivals are
    /// buffered until this many points have been seen, then replayed
    /// through the chosen partition; queries during warm-up are answered
    /// by brute force over the buffer. Exactness never depends on this —
    /// only load balance.
    pub warmup: usize,
    /// Pivots sampled per shard (≥ 1). Routing is per *pivot cell*;
    /// several cells map onto each shard. More pivots than shards keeps
    /// the ghost band tight — a point's distance to its own pivot stays
    /// at cluster scale even when the data has many more clusters than
    /// there are shards — at the cost of a few more routing distances
    /// per insert.
    pub pivots_per_shard: usize,
}

impl ShardSpec {
    /// A spec for `shards` shards: warm-up of `max(64, 16·shards)`
    /// points and 8 pivots per shard.
    pub fn new(shards: usize) -> Self {
        ShardSpec {
            shards,
            warmup: (16 * shards).max(64),
            pivots_per_shard: 8,
        }
    }

    /// Overrides the warm-up prefix length (builder style).
    pub fn with_warmup(mut self, warmup: usize) -> Self {
        self.warmup = warmup;
        self
    }

    /// Overrides the pivot oversampling factor (builder style).
    pub fn with_pivots_per_shard(mut self, pivots: usize) -> Self {
        self.pivots_per_shard = pivots;
        self
    }

    /// Total pivot cells the partition will carve.
    pub fn pivot_count(&self) -> usize {
        self.shards * self.pivots_per_shard
    }

    /// Validates the spec, surfacing nonsense as
    /// [`DodError::InvalidShardSpec`].
    pub fn validate(&self) -> Result<(), DodError> {
        if self.shards == 0 {
            return Err(DodError::InvalidShardSpec {
                reason: "need at least one shard".into(),
            });
        }
        if self.shards > 4096 {
            return Err(DodError::InvalidShardSpec {
                reason: format!("{} shards is beyond any plausible core count", self.shards),
            });
        }
        if self.warmup == 0 {
            return Err(DodError::InvalidShardSpec {
                reason: "warm-up prefix must hold at least one point".into(),
            });
        }
        if self.pivots_per_shard == 0 {
            return Err(DodError::InvalidShardSpec {
                reason: "need at least one pivot per shard".into(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_scale_with_shards() {
        let s = ShardSpec::new(8);
        assert_eq!(s.shards, 8);
        assert_eq!(s.warmup, 128);
        assert_eq!(s.pivots_per_shard, 8);
        assert_eq!(s.pivot_count(), 64);
        assert!(s.validate().is_ok());
        assert_eq!(ShardSpec::new(1).warmup, 64);
    }

    #[test]
    fn builders_override() {
        let s = ShardSpec::new(2).with_warmup(10).with_pivots_per_shard(2);
        assert_eq!((s.warmup, s.pivot_count()), (10, 4));
        assert!(s.validate().is_ok());
    }

    #[test]
    fn invalid_specs_are_typed_errors() {
        for bad in [
            ShardSpec::new(0),
            ShardSpec::new(5000),
            ShardSpec::new(2).with_warmup(0),
            ShardSpec::new(2).with_pivots_per_shard(0),
        ] {
            assert!(
                matches!(bad.validate(), Err(DodError::InvalidShardSpec { .. })),
                "{bad:?} accepted"
            );
        }
    }
}
