//! The [`StreamIndex`] abstraction: how a backend discovers the new
//! point's range neighbors, plus the exhaustive (always-exact) backend.
//!
//! The engine's invariant is deliberately weak so backends can trade
//! discovery cost against later repair work: `on_insert` must return a
//! *certified subset* of the new point's true in-window `r`-neighbors.
//! Complete backends ([`ExhaustiveIndex`]) make every maintained count
//! exact; incomplete ones (the graph backend) leave lower bounds that the
//! engine's lazy repair tops up before any outlier verdict is trusted.

use crate::space::Space;
use crate::window::WindowView;
use dod_metrics::Dataset;

/// Number of degree-distribution buckets in [`IndexHealth::degree_hist`]:
/// the eight finite bounds of [`DEGREE_BUCKET_BOUNDS`] plus overflow.
pub const DEGREE_BUCKETS: usize = 9;

/// Upper bounds (inclusive) of the finite degree buckets. Vertices with
/// more links than the last bound land in the overflow bucket.
pub const DEGREE_BUCKET_BOUNDS: [usize; DEGREE_BUCKETS - 1] = [0, 2, 4, 8, 16, 32, 64, 128];

/// A backend's structural health document: how much of the index is
/// dead weight, how hard maintenance has worked, and how link degrees
/// are distributed. Exact backends report an all-zero document with
/// `exact = true` — they have no structure to degrade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexHealth {
    /// Whether discovery is complete ([`StreamIndex::is_exact`]).
    pub exact: bool,
    /// Live (reportable) vertices currently indexed.
    pub live: u64,
    /// Tombstoned vertices awaiting compaction.
    pub tombstones: u64,
    /// Lifetime compaction passes.
    pub compactions: u64,
    /// Lifetime bridge edges added while compacting tombstones out.
    pub bridge_edges: u64,
    /// Lifetime adjacency prunes (over-full vertices trimmed back).
    pub prunes: u64,
    /// Vertex count per degree bucket (bounds in
    /// [`DEGREE_BUCKET_BOUNDS`], last slot = overflow), over live and
    /// tombstoned vertices alike — tombstones still route traffic.
    pub degree_hist: [u64; DEGREE_BUCKETS],
}

impl Default for IndexHealth {
    fn default() -> Self {
        IndexHealth {
            exact: true,
            live: 0,
            tombstones: 0,
            compactions: 0,
            bridge_edges: 0,
            prunes: 0,
            degree_hist: [0; DEGREE_BUCKETS],
        }
    }
}

impl IndexHealth {
    /// Fraction of indexed vertices that are tombstones (`0.0` for an
    /// empty or structureless index).
    pub fn tombstone_ratio(&self) -> f64 {
        let total = self.live + self.tombstones;
        if total == 0 {
            0.0
        } else {
            self.tombstones as f64 / total as f64
        }
    }

    /// Folds another backend's document into this one (the sharded
    /// engine sums per-shard documents). Exactness survives only if
    /// every merged backend is exact.
    pub fn absorb(&mut self, other: &IndexHealth) {
        let IndexHealth {
            exact,
            live,
            tombstones,
            compactions,
            bridge_edges,
            prunes,
            degree_hist,
        } = other;
        self.exact &= exact;
        self.live += live;
        self.tombstones += tombstones;
        self.compactions += compactions;
        self.bridge_edges += bridge_edges;
        self.prunes += prunes;
        for (mine, theirs) in self.degree_hist.iter_mut().zip(degree_hist) {
            *mine += theirs;
        }
    }
}

/// A neighbor-discovery backend for the streaming engine.
pub trait StreamIndex<S: Space> {
    /// Called right after the point with sequence number `seq` entered the
    /// window. Returns the seqs of discovered live neighbors within `r`
    /// (excluding `seq` itself). The result must be a subset of the true
    /// neighbor set — and the complete set when [`is_exact`](Self::is_exact)
    /// returns `true`.
    fn on_insert(&mut self, view: &WindowView<'_, S>, seq: u64, r: f64) -> Vec<u64>;

    /// Called right after the entry with `seq` left the window (`view`
    /// already excludes it).
    fn on_expire(&mut self, view: &WindowView<'_, S>, seq: u64);

    /// Whether `on_insert` discovery is complete (counts need no
    /// verification).
    fn is_exact(&self) -> bool;

    /// Display name for reports.
    fn name(&self) -> &'static str;

    /// Approximate heap bytes held by the backend.
    fn size_bytes(&self) -> usize;

    /// The backend's structural health document. The default (an exact,
    /// structureless index) suits backends with nothing to degrade.
    fn health(&self) -> IndexHealth {
        IndexHealth {
            exact: self.is_exact(),
            ..IndexHealth::default()
        }
    }

    /// Re-runs neighbor discovery for an *existing* resident, read-only
    /// (no linking, no structural change): what would this backend find
    /// for `seq` right now? The recall auditor compares the result
    /// against a brute-force count. Only the graph backend is audited —
    /// an exact backend's discovery *is* that brute-force count — so the
    /// default, which finds nothing, never runs.
    fn audit_discover(&mut self, _view: &WindowView<'_, S>, _seq: u64, _r: f64) -> Vec<u64> {
        Vec::new()
    }

    /// Fault injection for degradation tests: throw away all but the
    /// first `keep` links of every vertex (no-op on structureless
    /// backends). Discovery recall should fall; exactness must not.
    fn inject_edge_loss(&mut self, _keep: usize) {}

    /// Drains the backend's `(distance evaluations, graph hops)` tally
    /// accumulated since the last drain. The engine drains once per
    /// phase (insert, expiry, audit) to attribute backend work to cost
    /// counters; backends that do not tally return `(0, 0)`.
    fn take_cost(&mut self) -> (u64, u64) {
        (0, 0)
    }
}

/// Exact incremental counter: discovers neighbors by scanning the whole
/// window once per insertion (`O(W)` distances per slide, zero per
/// expiry). The streaming analogue of DOLPHIN's candidate index with
/// retention probability 1 — counts are exact at all times, so outlier
/// queries never verify anything.
#[derive(Debug, Default)]
pub struct ExhaustiveIndex {
    /// Distance evaluations since the last [`StreamIndex::take_cost`]
    /// drain (one full window scan per insertion).
    dist_evals: u64,
}

impl<S: Space> StreamIndex<S> for ExhaustiveIndex {
    fn on_insert(&mut self, view: &WindowView<'_, S>, seq: u64, r: f64) -> Vec<u64> {
        let mut found = Vec::new();
        if view.len() == 0 {
            return found;
        }
        let own = (seq - view.seq_at(0)) as usize;
        self.dist_evals += view.len().saturating_sub(1) as u64;
        for pos in 0..view.len() {
            if pos != own && view.dist(own, pos) <= r {
                found.push(view.seq_at(pos));
            }
        }
        found
    }

    fn on_expire(&mut self, _view: &WindowView<'_, S>, _seq: u64) {}

    fn is_exact(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn size_bytes(&self) -> usize {
        0
    }

    fn take_cost(&mut self) -> (u64, u64) {
        (std::mem::take(&mut self.dist_evals), 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::VectorSpace;
    use crate::window::WindowStore;
    use dod_metrics::L2;

    #[test]
    fn exhaustive_discovery_is_complete() {
        let space = VectorSpace::new(L2, 1);
        let mut win = WindowStore::new();
        for (i, x) in [0.0f32, 0.5, 3.0, 0.6].into_iter().enumerate() {
            win.push(vec![x], i as f64);
        }
        let view = WindowView::new(&win, &space);
        let mut idx = ExhaustiveIndex::default();
        // Point 3 (x = 0.6) has in-range neighbors 0 and 1 at r = 1.
        let found = StreamIndex::<VectorSpace<L2>>::on_insert(&mut idx, &view, 3, 1.0);
        assert_eq!(found, vec![0, 1]);
        assert!(StreamIndex::<VectorSpace<L2>>::is_exact(&idx));
        // One insertion over a 4-point window scans the 3 other residents.
        assert_eq!(StreamIndex::<VectorSpace<L2>>::take_cost(&mut idx), (3, 0));
        assert_eq!(StreamIndex::<VectorSpace<L2>>::take_cost(&mut idx), (0, 0));
    }
}
