//! The [`Dataset`] abstraction: id-addressed objects in a metric space.

use crate::Rounding;
use std::sync::atomic::{AtomicU64, Ordering};

/// Incremental [FNV-1a] hasher over raw bytes.
///
/// Used for [`Dataset::content_digest`]: persisted engines embed the
/// digest of the dataset they were built over, so loading against the
/// wrong dataset file fails fast with a typed error instead of serving
/// silently wrong answers.
///
/// [FNV-1a]: http://www.isthe.com/chongo/tech/comp/fnv/
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET_BASIS)
    }

    /// Folds `bytes` into the running hash.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Folds a `u64` (little-endian) into the running hash.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// A finite set of objects in a metric space, addressed by dense ids
/// `0..len()`.
///
/// `dist` must be an exact metric: non-negative, zero on identical ids,
/// symmetric, and satisfying the triangle inequality. Implementations must be
/// `Sync` because the DOD algorithms evaluate objects from multiple threads.
pub trait Dataset: Sync {
    /// Number of objects in the set.
    fn len(&self) -> usize;

    /// Exact metric distance between objects `i` and `j`.
    ///
    /// # Panics
    /// May panic if `i` or `j` is out of bounds.
    fn dist(&self, i: usize, j: usize) -> f64;

    /// `true` when the set holds no objects.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How far `dist` may stray from the metric it rounds: the slack every
    /// triangle-inequality rule over this set widens its bounds by (see
    /// [`crate::rounding`]).
    ///
    /// The default, [`Rounding::RELATIVE`], is the vector norms' model.
    /// Object stores with another model override it, and every wrapper
    /// must forward its inner set's: a wrapper that keeps the default
    /// would let an angular set be pruned by too small a slack.
    fn rounding(&self) -> Rounding {
        Rounding::RELATIVE
    }

    /// A deterministic FNV-1a digest of the dataset contents, embedded by
    /// persistence layers so a saved index can reject a mismatched
    /// dataset before anything else goes wrong.
    ///
    /// Concrete object stores ([`VectorSet`](crate::VectorSet),
    /// [`StringSet`](crate::StringSet)) hash the raw point bytes. The
    /// default hashes the cardinality plus a bounded, deterministic
    /// sample of distance bit patterns — cheap, and still catching any
    /// dataset swap that changes the geometry it can observe.
    fn content_digest(&self) -> u64 {
        let n = self.len();
        let mut h = Fnv1a::new();
        h.write_u64(n as u64);
        if n > 1 {
            let samples = n.min(64);
            for t in 0..samples {
                let i = t * n / samples;
                // A fixed multiplicative stride decorrelates the probe
                // pairs from the sample grid. The stride math runs in
                // u64 so the digest is identical on 32- and 64-bit
                // targets (usize would wrap differently).
                let stride = ((t as u64).wrapping_mul(2_654_435_761) % (n as u64 - 1)) as usize;
                let j = (i + 1 + stride) % n;
                let j = if j == i { (i + 1) % n } else { j };
                h.write_u64(self.dist(i, j).to_bits());
            }
        }
        h.finish()
    }
}

impl<D: Dataset + ?Sized> Dataset for &D {
    fn len(&self) -> usize {
        (**self).len()
    }
    fn dist(&self, i: usize, j: usize) -> f64 {
        (**self).dist(i, j)
    }
    fn content_digest(&self) -> u64 {
        (**self).content_digest()
    }
    fn rounding(&self) -> Rounding {
        (**self).rounding()
    }
}

impl<D: Dataset + ?Sized> Dataset for Box<D> {
    fn len(&self) -> usize {
        (**self).len()
    }
    fn dist(&self, i: usize, j: usize) -> f64 {
        (**self).dist(i, j)
    }
    fn content_digest(&self) -> u64 {
        (**self).content_digest()
    }
    fn rounding(&self) -> Rounding {
        (**self).rounding()
    }
}

/// Wraps a dataset and counts every distance evaluation.
///
/// The experiment harness uses this to report pruning power (distance
/// computations are the dominant cost of every algorithm in the paper).
/// Counting uses a relaxed atomic, so the overhead is a few nanoseconds per
/// call and the wrapper stays `Sync`.
pub struct DistanceCounter<D> {
    inner: D,
    calls: AtomicU64,
}

impl<D: Dataset> DistanceCounter<D> {
    /// Wraps `inner`, starting the counter at zero.
    pub fn new(inner: D) -> Self {
        Self {
            inner,
            calls: AtomicU64::new(0),
        }
    }

    /// Number of `dist` evaluations since construction or the last [`reset`].
    ///
    /// [`reset`]: DistanceCounter::reset
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero.
    pub fn reset(&self) {
        self.calls.store(0, Ordering::Relaxed);
    }

    /// Returns the wrapped dataset.
    pub fn into_inner(self) -> D {
        self.inner
    }

    /// Borrows the wrapped dataset.
    pub fn inner(&self) -> &D {
        &self.inner
    }
}

impl<D: Dataset> Dataset for DistanceCounter<D> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn dist(&self, i: usize, j: usize) -> f64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.dist(i, j)
    }

    /// Delegates to the wrapped dataset: digesting is not a measured
    /// detection cost, so it leaves the counter untouched.
    fn content_digest(&self) -> u64 {
        self.inner.content_digest()
    }

    fn rounding(&self) -> Rounding {
        self.inner.rounding()
    }
}

/// A view of a subset of a dataset's ids, itself a [`Dataset`].
///
/// Used by the sampling-rate experiments (Figures 6 and 7 of the paper):
/// the same base objects are evaluated at increasing cardinality without
/// regenerating data.
pub struct Subset<D> {
    base: D,
    ids: Vec<u32>,
}

impl<D: Dataset> Subset<D> {
    /// A view exposing only `ids` of `base` (in the given order).
    ///
    /// # Panics
    /// Panics if any id is out of bounds for `base`.
    pub fn new(base: D, ids: Vec<u32>) -> Self {
        let n = base.len();
        assert!(
            ids.iter().all(|&i| (i as usize) < n),
            "subset id out of bounds"
        );
        Self { base, ids }
    }

    /// The id in the base dataset backing subset position `i`.
    pub fn base_id(&self, i: usize) -> u32 {
        self.ids[i]
    }

    /// The ids of the base dataset exposed by this view.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }
}

impl<D: Dataset> Dataset for Subset<D> {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn dist(&self, i: usize, j: usize) -> f64 {
        self.base.dist(self.ids[i] as usize, self.ids[j] as usize)
    }

    fn rounding(&self) -> Rounding {
        self.base.rounding()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1-d points on a line; distance is absolute difference.
    struct Line(Vec<f64>);

    impl Dataset for Line {
        fn len(&self) -> usize {
            self.0.len()
        }
        fn dist(&self, i: usize, j: usize) -> f64 {
            (self.0[i] - self.0[j]).abs()
        }
    }

    #[test]
    fn counter_counts_every_call() {
        let d = DistanceCounter::new(Line(vec![0.0, 1.0, 3.0]));
        assert_eq!(d.calls(), 0);
        let _ = d.dist(0, 1);
        let _ = d.dist(1, 2);
        assert_eq!(d.calls(), 2);
        d.reset();
        assert_eq!(d.calls(), 0);
    }

    #[test]
    fn counter_preserves_distances() {
        let d = DistanceCounter::new(Line(vec![0.0, 1.0, 3.0]));
        assert_eq!(d.dist(0, 2), 3.0);
        assert_eq!(d.dist(2, 1), 2.0);
    }

    #[test]
    fn subset_remaps_ids() {
        let s = Subset::new(Line(vec![0.0, 10.0, 20.0, 30.0]), vec![3, 1]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.dist(0, 1), 20.0);
        assert_eq!(s.base_id(0), 3);
    }

    #[test]
    #[should_panic(expected = "subset id out of bounds")]
    fn subset_rejects_bad_ids() {
        let _ = Subset::new(Line(vec![0.0]), vec![1]);
    }

    #[test]
    fn empty_dataset_reports_empty() {
        let d = Line(vec![]);
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
    }

    #[test]
    fn dataset_by_reference_delegates() {
        let d = Line(vec![0.0, 2.0]);
        let r: &dyn Dataset = &d;
        assert_eq!(r.len(), 2);
        assert_eq!(d.dist(0, 1), 2.0);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a test vectors (64-bit).
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::new().write(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::new().write(b"foobar").finish(), 0x85944171f73967e8,);
    }

    #[test]
    fn default_digest_is_stable_and_discriminates() {
        let a = Line(vec![0.0, 1.0, 3.0, 7.0]);
        let b = Line(vec![0.0, 1.0, 3.0, 7.5]);
        assert_eq!(a.content_digest(), a.content_digest());
        assert_ne!(a.content_digest(), b.content_digest());
        // References and boxes see the same digest as the owned value.
        assert_eq!(<&Line as Dataset>::content_digest(&&a), a.content_digest());
        let boxed: Box<dyn Dataset> = Box::new(Line(vec![0.0, 1.0, 3.0, 7.0]));
        assert_eq!(boxed.content_digest(), a.content_digest());
    }

    #[test]
    fn wrappers_forward_the_rounding_model() {
        /// A set whose model is not the default.
        struct Exact;
        impl Dataset for Exact {
            fn len(&self) -> usize {
                2
            }
            fn dist(&self, i: usize, j: usize) -> f64 {
                f64::from(u8::from(i != j))
            }
            fn rounding(&self) -> Rounding {
                Rounding::EXACT
            }
        }
        assert_eq!(Line(vec![0.0]).rounding(), Rounding::RELATIVE);
        assert_eq!(<&Exact as Dataset>::rounding(&&Exact), Rounding::EXACT);
        let boxed: Box<dyn Dataset> = Box::new(Exact);
        assert_eq!(boxed.rounding(), Rounding::EXACT);
        assert_eq!(DistanceCounter::new(Exact).rounding(), Rounding::EXACT);
        assert_eq!(Subset::new(Exact, vec![1]).rounding(), Rounding::EXACT);
        assert_eq!(
            DistanceCounter::new(Subset::new(&Exact, vec![0, 1])).rounding(),
            Rounding::EXACT
        );
    }

    #[test]
    fn digest_ignores_the_distance_counter() {
        let d = DistanceCounter::new(Line(vec![0.0, 1.0, 3.0]));
        let inner_digest = d.inner().content_digest();
        assert_eq!(d.content_digest(), inner_digest);
        assert_eq!(d.calls(), 0, "digesting must not count as detection");
    }
}
