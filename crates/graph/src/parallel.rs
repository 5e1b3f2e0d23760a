//! The workspace's one data-parallel map, built on scoped threads.
//!
//! The paper's builders and detectors are "parallel-friendly" (§4): every
//! unit of work reads shared immutable state and writes only its own output
//! slot. [`par_map_with`] encodes exactly that pattern, so results are
//! *identical* for any thread count — the tests rely on it. It serves the
//! graph builds, Algorithm 1's filter and verify phases and the baselines.
//!
//! Work is assigned round-robin: the paper's "random partitioning" load
//! balancing. Outliers cost far more to evaluate than inliers (their early
//! termination never fires), and real outliers cluster in id ranges (our
//! generators plant them at the tail, real datasets have hot regions).
//! Chunked partitioning would hand one thread all the expensive objects;
//! strided assignment spreads them evenly, which is the deterministic
//! equivalent of the random partitioning §4 describes.

/// Computes `f(&mut state, i)` for every `i in 0..n` and returns the
/// results in index order, plus the final state of every worker.
///
/// Worker `t` of `threads` takes indices `t, t + threads, …`. Each worker
/// owns one state from `init` (a reusable buffer, say), created on the
/// calling thread before any worker starts. `threads` is clamped to
/// `1..=n`; one thread runs the map inline without spawning.
pub fn par_map_with<S, T, I, F>(n: usize, threads: usize, mut init: I, f: F) -> (Vec<T>, Vec<S>)
where
    S: Send,
    T: Send,
    I: FnMut() -> S,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        let mut state = init();
        let out = (0..n).map(|i| f(&mut state, i)).collect();
        return (out, vec![state]);
    }
    let states: Vec<S> = (0..threads).map(|_| init()).collect();
    let workers: Vec<(S, Vec<T>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .into_iter()
            .enumerate()
            .map(|(t, mut state)| {
                let f = &f;
                scope.spawn(move || {
                    let bucket: Vec<T> =
                        (t..n).step_by(threads).map(|i| f(&mut state, i)).collect();
                    (state, bucket)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    // Interleave the strided buckets back into index order.
    let (states, buckets): (Vec<S>, Vec<Vec<T>>) = workers.into_iter().unzip();
    let mut buckets: Vec<_> = buckets.into_iter().map(Vec::into_iter).collect();
    let out = (0..n)
        .map(|i| buckets[i % threads].next().expect("one result per index"))
        .collect();
    (out, states)
}

/// Maps `f` over `0..n` in parallel and collects the results in index
/// order: [`par_map_with`] without per-worker state.
pub fn par_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_with(n, threads, || (), |_, i| f(i)).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_results() {
        let seq = par_map(1000, 1, |i| i * i);
        for threads in [2, 3, 4] {
            assert_eq!(par_map(1000, threads, |i| i * i), seq, "threads={threads}");
        }
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        assert_eq!(par_map(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(1, 4, |i| i + 7), vec![7]);
    }

    #[test]
    fn thread_count_larger_than_items() {
        assert_eq!(par_map(3, 64, |i| i), vec![0, 1, 2]);
        // Clamped to the work available: one state per index, no more.
        let (_, states) = par_map_with(3, 64, || 0usize, |_, i| i);
        assert_eq!(states.len(), 3);
    }

    #[test]
    fn preserves_index_order() {
        for threads in 1..=6 {
            let out = par_map(37, threads, |i| i as u64);
            assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64));
        }
    }

    #[test]
    fn workers_keep_their_state_and_take_strided_indices() {
        let (out, states) = par_map_with(10, 3, Vec::new, |seen: &mut Vec<usize>, i| {
            seen.push(i);
            i * 2
        });
        assert_eq!(out, (0..10).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(states, vec![vec![0, 3, 6, 9], vec![1, 4, 7], vec![2, 5, 8]]);
        // One thread runs inline with a single state.
        let (_, states) = par_map_with(4, 1, Vec::new, |seen: &mut Vec<usize>, i| seen.push(i));
        assert_eq!(states, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn results_need_no_default_or_clone() {
        struct Opaque(usize);
        let out = par_map(5, 2, Opaque);
        assert!(out.iter().enumerate().all(|(i, o)| o.0 == i));
    }
}
