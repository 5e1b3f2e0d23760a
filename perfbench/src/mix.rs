//! Seeded inputs: a small deterministic generator and the batch query mix.

use dod_core::Query;
use dod_datasets::sample_knn_distances;
use dod_metrics::Dataset;

/// SplitMix64: a tiny, seedable generator, so that every input a run makes
/// follows from `--seed` alone.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u = 1.0 - self.unit(); // (0, 1]: ln stays finite
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }
}

/// A sampled object whose k-NN distance exceeds this multiple of the
/// median belongs to the generator's planted far tail: it is an outlier at
/// every radius in the target regime.
const FAR_TAIL: f64 = 5.0;

/// Sampled k-NN distances at a few anchor `k`, split into the planted far
/// tail and the inlier mode.
struct Anchor {
    k: usize,
    /// Ascending k-NN distances of the sampled inlier-mode objects.
    inliers: Vec<f64>,
    /// Share of the sample in the far tail.
    tail: f64,
}

/// Where a radius lands for a given `(k, outlier ratio)`, estimated from
/// [`sample_knn_distances`] at anchor values of `k`.
pub struct KnnProfile {
    anchors: Vec<Anchor>,
}

impl KnnProfile {
    /// Samples `samples` objects' k-NN distances at each of `ks` (the same
    /// objects for every anchor: the seed picks them).
    pub fn sample<D: Dataset + ?Sized>(data: &D, ks: &[usize], samples: usize, seed: u64) -> Self {
        let mut ks = ks.to_vec();
        ks.sort_unstable();
        let anchors = ks
            .into_iter()
            .map(|k| {
                let all = sample_knn_distances(data, k, samples, seed);
                let cut = FAR_TAIL * all[all.len() / 2];
                let inliers: Vec<f64> = all.iter().copied().filter(|&d| d <= cut).collect();
                let tail = 1.0 - inliers.len() as f64 / all.len() as f64;
                Anchor { k, inliers, tail }
            })
            .collect();
        KnnProfile { anchors }
    }

    /// The radius at which about `ratio` of the objects have fewer than `k`
    /// neighbors. The planted tail supplies its share; the rest comes from
    /// the upper slope of the inlier mode, so every radius lies in the
    /// regime where borderline objects exist on both sides of it. Between
    /// anchors the radius is interpolated log-linearly in `k`.
    pub fn radius(&self, k: usize, ratio: f64) -> f64 {
        let at = |a: &Anchor| {
            // Below the tail's own share, keep a small continuous slice of
            // the inlier mode so that radii stay distinct.
            let f = (ratio - a.tail).max(ratio / 10.0) / (1.0 - a.tail);
            quantile(&a.inliers, 1.0 - f)
        };
        let first = &self.anchors[0];
        let last = &self.anchors[self.anchors.len() - 1];
        if k <= first.k {
            return at(first);
        }
        if k >= last.k {
            return at(last);
        }
        let hi = self
            .anchors
            .iter()
            .position(|a| a.k >= k)
            .expect("k < last.k");
        let (a, b) = (&self.anchors[hi - 1], &self.anchors[hi]);
        let w = ((k as f64).ln() - (a.k as f64).ln()) / ((b.k as f64).ln() - (a.k as f64).ln());
        (at(a).ln() * (1.0 - w) + at(b).ln() * w).exp()
    }
}

/// Linearly interpolated `q`-quantile of the ascending `sorted`.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let i = pos.floor() as usize;
    let j = (i + 1).min(sorted.len() - 1);
    sorted[i] + (pos - i as f64) * (sorted[j] - sorted[i])
}

/// The batch workloads' op stream: each op is a fresh `(r, k)` with `k` in
/// `[k/2, 2k]` around the family default and a target outlier ratio in
/// `[ratio/2, 2·ratio]` (log scale), turned into `r` through the sampled
/// k-NN profile. A continuous spread puts percentiles inside the cost
/// distribution rather than on the edge between a few query classes, and
/// no op repeats, so a result cache could not pose as a speed-up.
///
/// The draws are stratified, so that every run covers the spread evenly
/// and seeds differ in order and jitter rather than in coverage: each
/// round of ops takes every `k` once, in a seeded order, and the ratios
/// follow a golden-ratio sequence from a seeded start.
pub struct QueryMix {
    profile: KnnProfile,
    k: usize,
    ratio: f64,
    rng: SplitMix64,
    /// The rest of the current round of `k` values.
    round: Vec<usize>,
    /// Position in `[0, 1)` of the last ratio on its log scale.
    u: f64,
}

impl QueryMix {
    pub fn new(profile: KnnProfile, k: usize, ratio: f64, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let u = rng.unit();
        QueryMix {
            profile,
            k,
            ratio,
            rng,
            round: Vec::new(),
            u,
        }
    }

    /// The anchors the profile is sampled at for a family default `k`:
    /// nine steps of 2^(1/4) from `k/2` to `2k`. Dense anchors keep the
    /// interpolated radius true where small clusters make the k-NN
    /// distance jump with `k`.
    pub fn anchors(k: usize) -> Vec<usize> {
        let mut ks: Vec<usize> = (0..=8)
            .map(|i| (k as f64 / 2.0 * 2f64.powf(i as f64 / 4.0)).round() as usize)
            .collect();
        ks.dedup();
        ks
    }

    /// The family-default query: the warm-up op of set-up.
    pub fn default_query(&self) -> Query {
        Query::new(self.profile.radius(self.k, self.ratio), self.k)
            .expect("a sampled distance is a valid radius")
    }
}

impl Iterator for QueryMix {
    type Item = Query;

    fn next(&mut self) -> Option<Query> {
        if self.round.is_empty() {
            self.round = (self.k / 2..=2 * self.k).collect();
            // Fisher–Yates.
            for i in (1..self.round.len()).rev() {
                self.round.swap(i, self.rng.between(0, i));
            }
        }
        let k = self.round.pop().expect("a round is never empty");
        self.u = (self.u + GOLDEN).fract();
        let ratio = self.ratio / 2.0 * 4f64.powf(self.u);
        let r = self.profile.radius(k, ratio);
        Some(Query::new(r, k).expect("a sampled distance is a valid radius"))
    }
}

/// The golden-ratio step, whose multiples fill `[0, 1)` most evenly.
const GOLDEN: f64 = 0.618_033_988_749_894_9;

#[cfg(test)]
mod tests {
    use super::*;
    use dod_datasets::Family;

    fn deep_mix(seed: u64) -> QueryMix {
        let fam = Family::Deep;
        let data = fam.generate(400, 1).data;
        let profile = KnnProfile::sample(&data, &QueryMix::anchors(fam.default_k()), 80, 2);
        QueryMix::new(profile, fam.default_k(), fam.target_outlier_ratio(), seed)
    }

    #[test]
    fn the_same_seed_gives_the_same_ops() {
        let a: Vec<Query> = deep_mix(5).take(100).collect();
        let b: Vec<Query> = deep_mix(5).take(100).collect();
        let c: Vec<Query> = deep_mix(6).take(100).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn deep_ops_never_repeat_and_stay_in_range() {
        let ops: Vec<Query> = deep_mix(9).take(500).collect();
        let mut pairs: Vec<(u64, usize)> = ops.iter().map(|q| (q.r().to_bits(), q.k())).collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), ops.len(), "duplicate (r, k) in the Deep mix");
        assert!(ops.iter().all(|q| (25..=100).contains(&q.k())));
        // Each round of 76 ops takes every k once.
        let mut first_round: Vec<usize> = ops[..76].iter().map(|q| q.k()).collect();
        first_round.sort_unstable();
        assert_eq!(first_round, (25..=100).collect::<Vec<_>>());
        assert!(ops.iter().all(|q| q.r() > 0.0 && q.r().is_finite()));
    }

    #[test]
    fn radius_grows_with_k_and_shrinks_with_ratio() {
        let mix = deep_mix(1);
        let p = &mix.profile;
        assert!(p.radius(25, 0.006) < p.radius(100, 0.006));
        assert!(p.radius(50, 0.012) <= p.radius(50, 0.003));
    }

    #[test]
    fn generator_is_deterministic_and_uniform_enough() {
        let mut a = SplitMix64::new(3);
        let mut b = SplitMix64::new(3);
        let xs: Vec<f64> = (0..10_000).map(|_| a.unit()).collect();
        assert!(xs.iter().all(|&x| (0.0..1.0).contains(&x)));
        assert_eq!(xs[17], {
            (0..17).for_each(|_| {
                b.unit();
            });
            b.unit()
        });
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((m - 0.5).abs() < 0.02, "mean {m}");
        let mut c = SplitMix64::new(4);
        assert!((0..1000).all(|_| (3..=7).contains(&c.between(3, 7))));
    }
}
