//! Epoch-stamped visit marks: the workspace's one "visited" set for
//! repeated walks over the same ids.
//!
//! A walk that clears an `n`-entry visited array before it starts pays
//! `O(n)` however little it visits. [`VisitMarks`] instead stamps each
//! visited id with the current epoch, and [`begin`](VisitMarks::begin)
//! starts a new walk by moving to the next epoch, so every id becomes
//! unvisited in `O(1)`. Only when the `u32` epoch wraps, once every
//! 2³² − 1 walks, are the stamps cleared for real.
//!
//! One set serves one walk at a time: NNDescent+'s candidate pass, the
//! Remove-Detours BFSs, NSW's and HNSW's insertion searches, and, through
//! `dod_core`'s traversal buffer, Greedy-Counting and the stream graph
//! backend's beam search. A parallel phase gives each worker its own.

/// Visit marks over the ids `0..len()`; see the [module docs](self).
#[derive(Debug)]
pub struct VisitMarks {
    stamps: Vec<u32>,
    epoch: u32,
}

impl VisitMarks {
    /// Marks over `n` ids. Call [`begin`](Self::begin) before the first
    /// walk.
    pub fn new(n: usize) -> Self {
        VisitMarks {
            stamps: vec![0; n],
            epoch: 0,
        }
    }

    /// Number of ids covered.
    pub fn len(&self) -> usize {
        self.stamps.len()
    }

    /// Whether the marks cover no id.
    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }

    /// Starts a new walk: every id becomes unmarked.
    #[inline]
    pub fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrap-around: clear the marks once every 2^32 - 1 walks.
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks `v` visited; `true` iff it was unmarked in this walk.
    #[inline]
    pub fn mark(&mut self, v: u32) -> bool {
        let slot = &mut self.stamps[v as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_each_id_once_per_walk() {
        let mut m = VisitMarks::new(4);
        m.begin();
        assert!(m.mark(2));
        assert!(!m.mark(2));
        assert!(m.mark(0));
        m.begin();
        assert!(m.mark(2), "a new walk starts unmarked");
        assert!(m.mark(0));
        assert!(!m.mark(0));
        assert_eq!(m.len(), 4);
        assert!(VisitMarks::new(0).is_empty());
    }

    #[test]
    fn epoch_wraparound_resets_marks() {
        let mut m = VisitMarks::new(3);
        m.begin();
        assert!(m.mark(1), "stamped with epoch 1");
        // 2^32 - 2 walks later, the next walk wraps back to epoch 1.
        m.epoch = u32::MAX;
        assert!(m.mark(0));
        m.begin();
        assert_eq!(m.epoch, 1);
        for v in 0..3 {
            assert!(m.mark(v), "id {v} stale after the wrap");
            assert!(!m.mark(v));
        }
    }
}
