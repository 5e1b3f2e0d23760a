//! The slow-query log: a bounded, sorted ring of the N slowest
//! engine-query requests since startup, each carrying its cost plan —
//! served by `GET /v1/debug/slow` and cross-linkable to
//! `GET /v1/debug/traces` through the shared request id.

use dod_core::CostReport;
use dod_wire::JsonValue;
use std::sync::{Arc, Mutex};

/// One recorded query request: identity, duration, and the aggregated
/// cost plan of every query in the batch.
pub(crate) struct SlowQuery {
    /// The request id the response echoed — look the same id up in
    /// `/v1/debug/traces` for the span breakdown.
    pub(crate) request_id: String,
    /// The engine that answered.
    pub(crate) engine: String,
    /// Wall time of the `query_many` call, socket time excluded.
    pub(crate) duration_nanos: u64,
    /// Queries in the batch.
    pub(crate) queries: u64,
    /// Objects the engine served at answer time — the pruning-power
    /// baseline is per query, `n·(n−1)` each.
    pub(crate) dataset_size: u64,
    /// Summed cost over the batch.
    pub(crate) cost: CostReport,
}

impl SlowQuery {
    /// Pruning power of the whole batch against its nested-loop
    /// baseline, `queries · n·(n−1)`.
    pub(crate) fn pruning_power(&self) -> f64 {
        let n = self.dataset_size as f64;
        let baseline = self.queries as f64 * n * (n - 1.0);
        if baseline <= 0.0 {
            return 0.0;
        }
        (1.0 - self.cost.total_dist_evals() as f64 / baseline).max(0.0)
    }
}

/// Keep-N-slowest storage. Unlike the trace ring (last N in arrival
/// order), the slow ring is sorted by duration and keeps the slowest
/// requests *ever*: the pathological query from an hour ago is exactly
/// the one the operator wants to still be able to see.
pub(crate) struct SlowRing {
    entries: Mutex<Vec<Arc<SlowQuery>>>,
    capacity: usize,
}

impl SlowRing {
    pub(crate) fn new(capacity: usize) -> Self {
        SlowRing {
            entries: Mutex::new(Vec::with_capacity(capacity.min(1024))),
            capacity,
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts the entry if it ranks among the N slowest seen so far
    /// (ties keep the earlier arrival first).
    pub(crate) fn record(&self, entry: SlowQuery) {
        let mut entries = match self.entries.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let pos = entries.partition_point(|e| e.duration_nanos >= entry.duration_nanos);
        if pos >= self.capacity {
            return;
        }
        entries.insert(pos, Arc::new(entry));
        entries.truncate(self.capacity);
    }

    /// The current entries, slowest first.
    pub(crate) fn snapshot(&self) -> Vec<Arc<SlowQuery>> {
        match self.entries.lock() {
            Ok(g) => g.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }
}

/// One slow entry as its wire object — `duration_ns` and `request_id`
/// spelled exactly as in the traces ring, so the two endpoints join on
/// both fields. The cost plan is the batch aggregate, so its pruning
/// power is measured against the batch baseline `queries · n·(n−1)`
/// (unlike a per-result EXPLAIN plan, whose baseline is one query's).
pub(crate) fn slow_json(e: &SlowQuery) -> JsonValue {
    let cost = dod_wire::shapes::QueryCostShape {
        filter_dist_evals: e.cost.filter_dist_evals,
        verify_dist_evals: e.cost.verify_dist_evals,
        total_dist_evals: e.cost.total_dist_evals(),
        hops: e.cost.hops,
        pruning_power: e.pruning_power(),
    };
    JsonValue::obj([
        ("request_id", JsonValue::from(e.request_id.as_str())),
        ("engine", JsonValue::from(e.engine.as_str())),
        ("duration_ns", JsonValue::from(e.duration_nanos)),
        ("queries", JsonValue::from(e.queries)),
        ("cost", cost.to_json()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: &str, nanos: u64) -> SlowQuery {
        SlowQuery {
            request_id: id.to_string(),
            engine: "prod".to_string(),
            duration_nanos: nanos,
            queries: 1,
            dataset_size: 100,
            cost: CostReport {
                filter_dist_evals: 10,
                verify_dist_evals: 5,
                hops: 3,
            },
        }
    }

    #[test]
    fn ring_keeps_the_slowest_n_sorted() {
        let ring = SlowRing::new(3);
        for (id, nanos) in [("a", 5), ("b", 9), ("c", 1), ("d", 7), ("e", 2)] {
            ring.record(entry(id, nanos));
        }
        let ids: Vec<String> = ring
            .snapshot()
            .iter()
            .map(|e| e.request_id.clone())
            .collect();
        assert_eq!(ids, vec!["b", "d", "a"], "slowest three, slowest first");
        // A new slowest entry displaces the current tail.
        ring.record(entry("f", 100));
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].request_id, "f");
        assert_eq!(snap[2].request_id, "d");
    }

    #[test]
    fn pruning_power_uses_the_per_query_baseline() {
        let mut e = entry("x", 1);
        // 2 queries over n = 100: baseline 2 · 100·99 = 19800.
        e.queries = 2;
        e.cost.filter_dist_evals = 1800;
        e.cost.verify_dist_evals = 180;
        let power = e.pruning_power();
        assert!((power - 0.9).abs() < 1e-12, "{power}");
        // No baseline (empty engine) degrades to zero, not NaN.
        e.dataset_size = 0;
        assert_eq!(e.pruning_power(), 0.0);
    }
}
