//! Per-object neighbor bookkeeping: the state that makes slides cheap.
//!
//! For each tracked (non-safe) window resident we keep its neighbors,
//! split by arrival order:
//!
//! * `succ` — how many neighbors arrived later. In a FIFO window they
//!   expire later too, so this count only grows while the object lives;
//!   once it reaches `k` the object is a **safe inlier** (DOLPHIN's
//!   observation) and all tracking stops forever.
//! * `pred` — the seqs of neighbors that arrived earlier, ascending. They
//!   expire in exactly this order, so expiry is a pointer bump, never a
//!   scan.
//!
//! The live count is `succ + |live preds|`. The detector's window scan
//! finds every neighbor of each new point, so the count is exact at all
//! times.

/// Neighbor knowledge for one tracked object.
#[derive(Debug, Clone)]
pub(crate) struct NeighborState {
    /// Succeeding neighbors so far (all of them are live).
    succ: usize,
    /// Preceding neighbors, ascending seq; `[pred_from..]` are live.
    pred: Vec<u64>,
    pred_from: usize,
}

impl NeighborState {
    /// State for a fresh object: `pred` holds its neighbors already in the
    /// window.
    pub fn new(seq: u64, mut pred: Vec<u64>) -> Self {
        pred.sort_unstable();
        pred.dedup();
        debug_assert!(pred.last().is_none_or(|&p| p < seq));
        NeighborState {
            succ: 0,
            pred,
            pred_from: 0,
        }
    }

    /// Records one succeeding neighbor (a later arrival within `r`).
    pub fn add_succ(&mut self) {
        self.succ += 1;
    }

    /// Number of succeeding neighbors (all of them are live).
    pub fn succ_count(&self) -> usize {
        self.succ
    }

    /// Drops expired preds and returns the current neighbor count.
    pub fn live_count(&mut self, front_seq: u64) -> usize {
        while self.pred_from < self.pred.len() && self.pred[self.pred_from] < front_seq {
            self.pred_from += 1;
        }
        self.succ + (self.pred.len() - self.pred_from)
    }

    /// Approximate heap bytes held by this state.
    pub fn size_bytes(&self) -> usize {
        self.pred.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_split_pred_and_succ() {
        let mut st = NeighborState::new(10, vec![3, 7, 9]);
        st.add_succ();
        st.add_succ();
        assert_eq!(st.succ_count(), 2);
        assert_eq!(st.live_count(0), 5);
    }

    #[test]
    fn preds_expire_in_order() {
        let mut st = NeighborState::new(10, vec![3, 7, 9]);
        assert_eq!(st.live_count(4), 2); // 3 expired
        assert_eq!(st.live_count(8), 1); // 7 expired
        assert_eq!(st.live_count(100), 0);
        // Expiry is monotone: re-asking with an older front changes nothing.
        assert_eq!(st.live_count(4), 0);
    }

    #[test]
    fn new_sorts_and_dedups_discovered_preds() {
        let mut st = NeighborState::new(9, vec![7, 3, 7, 5]);
        assert_eq!(st.live_count(0), 3);
        assert_eq!(st.live_count(4), 2);
    }
}
