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

    /// Fault injection for degradation tests: throw away all but the
    /// first `keep` links of every vertex (no-op on structureless
    /// backends). Discovery finds fewer neighbors, so query-time repairs
    /// do more work; exactness must not change.
    fn inject_edge_loss(&mut self, _keep: usize) {}

    /// Drains the backend's `(distance evaluations, graph hops)` tally
    /// accumulated since the last drain. The engine drains once per
    /// phase (insert, expiry) to attribute backend work to cost
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
