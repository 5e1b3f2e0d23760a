//! The seven dataset families of the paper's evaluation (Table 1) and their
//! synthetic equivalents.

use crate::gaussian::{ClusterGeometry, GaussianMixture, MixtureShape};
use crate::words::WordGenerator;
use dod_metrics::{Angular, Dataset, MetricKind, StringSet, VectorSet, L1, L2, L4};
use serde::{Deserialize, Serialize};

/// A dataset family, named after the real dataset it emulates.
///
/// Dimensionality and distance function match the paper's Table 1; the
/// default `k`, graph degree `K` and target outlier ratio match Table 2 and
/// §6 "Algorithms".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Family {
    /// Deep1B descriptors: 96-d, L2 (paper: 10M objects).
    Deep,
    /// GloVe word embeddings: 25-d, angular distance (paper: 1.19M).
    Glove,
    /// HEPMASS physics events: 27-d, L1 (paper: 7M).
    Hepmass,
    /// MNIST images: 784-d, L4 (paper: 3M sampled).
    Mnist,
    /// PAMAP2 activity monitoring: 51-d, L2, domain `[0, 1e5]` (paper: 2.8M).
    Pamap2,
    /// SIFT descriptors: 128-d, L2 (paper: 1M).
    Sift,
    /// English words: strings of length 1–45, edit distance (paper: 466k).
    Words,
}

impl Family {
    /// All families, in the paper's table order.
    pub const ALL: [Family; 7] = [
        Family::Deep,
        Family::Glove,
        Family::Hepmass,
        Family::Mnist,
        Family::Pamap2,
        Family::Sift,
        Family::Words,
    ];

    /// Lower-case name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Family::Deep => "deep",
            Family::Glove => "glove",
            Family::Hepmass => "hepmass",
            Family::Mnist => "mnist",
            Family::Pamap2 => "pamap2",
            Family::Sift => "sift",
            Family::Words => "words",
        }
    }

    /// Parses a family from its lower-case [`name`](Family::name).
    pub fn parse(s: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.name() == s)
    }

    /// Distance function of this family (paper Table 1).
    pub fn metric(self) -> MetricKind {
        match self {
            Family::Deep | Family::Pamap2 | Family::Sift => MetricKind::L2,
            Family::Glove => MetricKind::Angular,
            Family::Hepmass => MetricKind::L1,
            Family::Mnist => MetricKind::L4,
            Family::Words => MetricKind::Edit,
        }
    }

    /// Vector dimensionality (paper Table 1); 0 for the string family.
    pub fn dim(self) -> usize {
        match self {
            Family::Deep => 96,
            Family::Glove => 25,
            Family::Hepmass => 27,
            Family::Mnist => 784,
            Family::Pamap2 => 51,
            Family::Sift => 128,
            Family::Words => 0,
        }
    }

    /// Default count threshold `k` (paper Table 2).
    pub fn default_k(self) -> usize {
        match self {
            Family::Deep | Family::Hepmass | Family::Mnist => 50,
            Family::Glove => 20,
            Family::Pamap2 => 100,
            Family::Sift => 40,
            Family::Words => 15,
        }
    }

    /// Outlier ratio the default parameters target (paper Table 2).
    pub fn target_outlier_ratio(self) -> f64 {
        match self {
            Family::Deep => 0.0062,
            Family::Glove => 0.0055,
            Family::Hepmass => 0.0065,
            Family::Mnist => 0.0034,
            Family::Pamap2 => 0.0061,
            Family::Sift => 0.0104,
            Family::Words => 0.0416,
        }
    }

    /// Proximity-graph degree `K` (paper §6: 40 for PAMAP2, 25 otherwise).
    pub fn graph_degree(self) -> usize {
        match self {
            Family::Pamap2 => 40,
            _ => 25,
        }
    }

    /// Default cardinality used by the experiment harness at scale 1.0.
    ///
    /// The paper runs 0.47M–10M objects on a 48-thread Xeon; these defaults
    /// keep each full-table experiment in minutes on a 2-core laptop while
    /// preserving every relative comparison. Heavier metrics (784-d L4,
    /// quadratic edit distance) get smaller defaults, mirroring how the
    /// paper's per-dataset wall-clock budget was balanced.
    pub fn default_n(self) -> usize {
        match self {
            Family::Deep => 12_000,
            Family::Glove => 12_000,
            Family::Hepmass => 12_000,
            Family::Mnist => 2_500,
            Family::Pamap2 => 10_000,
            Family::Sift => 8_000,
            Family::Words => 6_000,
        }
    }

    /// Generates the synthetic equivalent with `n` objects.
    pub fn generate(self, n: usize, seed: u64) -> Generated {
        let ratio = self.target_outlier_ratio();
        let data = match self {
            Family::Deep => {
                // Sparser than the rest (the paper observes Deep's usable r
                // sits far from its distance-distribution mean): more, more
                // lightly-populated clusters.
                let g = GaussianMixture {
                    clusters: 6,
                    weight_exponent: 0.5,
                    geometry: ClusterGeometry::Curve {
                        extent: 20.0,
                        harmonics: 3,
                    },
                    tail_distance: 60.0,
                    tail_fraction: ratio * 0.8,
                    ..GaussianMixture::new(n, self.dim())
                };
                AnyDataset::L2(VectorSet::from_flat(g.generate(seed), self.dim(), L2))
            }
            Family::Glove => {
                // Directional clusters; normalization happens in the metric.
                let g = GaussianMixture {
                    clusters: 4,
                    weight_exponent: 0.4,
                    geometry: ClusterGeometry::Curve {
                        extent: 20.0,
                        harmonics: 3,
                    },
                    tail_distance: 60.0,
                    spread: 10.0,
                    cluster_std: 1.0,
                    tail_fraction: ratio * 0.8,
                    ..GaussianMixture::new(n, self.dim())
                };
                AnyDataset::Angular(VectorSet::from_flat(g.generate(seed), self.dim(), Angular))
            }
            Family::Hepmass => {
                let g = GaussianMixture {
                    clusters: 6,
                    weight_exponent: 0.5,
                    geometry: ClusterGeometry::Curve {
                        extent: 20.0,
                        harmonics: 3,
                    },
                    tail_distance: 60.0,
                    tail_fraction: ratio * 0.8,
                    ..GaussianMixture::new(n, self.dim())
                };
                AnyDataset::L1(VectorSet::from_flat(g.generate(seed), self.dim(), L1))
            }
            Family::Mnist => {
                let g = GaussianMixture {
                    clusters: 8,
                    weight_exponent: 0.5,
                    geometry: ClusterGeometry::Curve {
                        extent: 20.0,
                        harmonics: 3,
                    },
                    tail_distance: 60.0,
                    spread: 60.0,
                    center_offset: 128.0,
                    cluster_std: 20.0,
                    tail_fraction: ratio * 0.8,
                    shape: MixtureShape::SparseNonNegative {
                        hi: 255.0,
                        density: 0.25,
                    },
                    ..GaussianMixture::new(n, self.dim())
                };
                AnyDataset::L4(VectorSet::from_flat(g.generate(seed), self.dim(), L4))
            }
            Family::Pamap2 => {
                let g = GaussianMixture {
                    clusters: 5,
                    weight_exponent: 0.4,
                    geometry: ClusterGeometry::Curve {
                        extent: 20.0,
                        harmonics: 3,
                    },
                    tail_distance: 60.0,
                    spread: 25_000.0,
                    center_offset: 50_000.0,
                    cluster_std: 1_500.0,
                    tail_fraction: ratio * 0.8,
                    shape: MixtureShape::NonNegative { hi: 100_000.0 },
                    ..GaussianMixture::new(n, self.dim())
                };
                AnyDataset::L2(VectorSet::from_flat(g.generate(seed), self.dim(), L2))
            }
            Family::Sift => {
                let g = GaussianMixture {
                    clusters: 6,
                    weight_exponent: 0.5,
                    geometry: ClusterGeometry::Curve {
                        extent: 20.0,
                        harmonics: 3,
                    },
                    tail_distance: 60.0,
                    spread: 40.0,
                    center_offset: 60.0,
                    cluster_std: 12.0,
                    tail_fraction: ratio * 0.8,
                    shape: MixtureShape::SparseNonNegative {
                        hi: 218.0,
                        density: 0.9,
                    },
                    ..GaussianMixture::new(n, self.dim())
                };
                AnyDataset::L2(VectorSet::from_flat(g.generate(seed), self.dim(), L2))
            }
            Family::Words => {
                let g = WordGenerator {
                    tail_fraction: ratio * 0.8,
                    ..WordGenerator::new(n)
                };
                AnyDataset::Strings(StringSet::new(g.generate(seed)))
            }
        };
        Generated {
            family: self,
            data,
            seed,
        }
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A concrete dataset of any supported space, dispatching [`Dataset`] calls
/// to the underlying typed set.
pub enum AnyDataset {
    /// Vectors under the L1 norm.
    L1(VectorSet<L1>),
    /// Vectors under the L2 norm.
    L2(VectorSet<L2>),
    /// Vectors under the L4 norm.
    L4(VectorSet<L4>),
    /// Unit vectors under angular distance.
    Angular(VectorSet<Angular>),
    /// Strings under edit distance.
    Strings(StringSet),
}

/// A typed-access request hit a dataset of a different space — e.g. asking
/// for the L2 vectors of the angular `glove` family.
///
/// Returned instead of panicking so library consumers can surface the
/// mismatch at their own boundary (`?` it up, or `expect` it where a
/// family's space is an invariant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FamilyMismatch {
    /// The space the caller asked for.
    pub expected: &'static str,
    /// The space the dataset actually is.
    pub found: &'static str,
}

impl std::fmt::Display for FamilyMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "expected a {} dataset, found a {} dataset",
            self.expected, self.found
        )
    }
}

impl std::error::Error for FamilyMismatch {}

/// A mismatch is absorbed into the workspace-wide error enum, so service
/// code handling a typed-dataset request can `?` it straight into the same
/// `Result<_, DodError>` its engine calls return.
impl From<FamilyMismatch> for dod_core::DodError {
    fn from(m: FamilyMismatch) -> Self {
        dod_core::DodError::FamilyMismatch {
            expected: m.expected,
            found: m.found,
        }
    }
}

/// An [`Engine`](dod_core::Engine) serving a dataset-erased
/// [`AnyDataset`] — the type a service holds when the metric family is
/// decided by configuration (or by the request) rather than at compile
/// time.
///
/// This is the *typed* replacement for the ad-hoc
/// `Engine<Box<dyn Dataset>>` pattern: `AnyDataset` is itself a
/// [`Dataset`] (a 5-way enum dispatch, no allocation, no vtable), so the
/// erased engine keeps the concrete engine's whole API — including
/// [`save`](dod_core::Engine::save)/[`load`](dod_core::Engine::load),
/// whose dataset checksum sees straight through the erasure.
///
/// ```
/// use dod_core::{IndexSpec, Query};
/// use dod_datasets::{AnyEngine, Family};
///
/// let gen = Family::Sift.generate(400, 7);
/// let r = gen.calibrate_default_r(100); // ~1% outliers at the family's k
/// let engine: AnyEngine = gen.data.into_engine().index(IndexSpec::VpTree).build()?;
/// let report = engine.query(Query::new(r, 40)?)?;
/// assert!(!report.outliers.is_empty() && report.outliers.len() < 40);
/// # Ok::<(), dod_core::DodError>(())
/// ```
pub type AnyEngine = dod_core::Engine<AnyDataset>;

impl AnyDataset {
    /// Starts configuring an [`AnyEngine`] over this dataset — the typed
    /// constructor for a dataset-erased engine
    /// (`Engine::builder(any_dataset)` spelled at the place that owns the
    /// erasure).
    pub fn into_engine(self) -> dod_core::EngineBuilder<AnyDataset> {
        dod_core::Engine::builder(self)
    }

    /// The space this dataset lives in, as a short name.
    pub fn kind_name(&self) -> &'static str {
        match self {
            AnyDataset::L1(_) => "L1",
            AnyDataset::L2(_) => "L2",
            AnyDataset::L4(_) => "L4",
            AnyDataset::Angular(_) => "angular",
            AnyDataset::Strings(_) => "string",
        }
    }

    /// The L2 vector set, or a typed error describing the mismatch.
    pub fn as_l2(&self) -> Result<&VectorSet<L2>, FamilyMismatch> {
        match self {
            AnyDataset::L2(s) => Ok(s),
            other => Err(FamilyMismatch {
                expected: "L2",
                found: other.kind_name(),
            }),
        }
    }

    /// The L1 vector set, or a typed error describing the mismatch.
    pub fn as_l1(&self) -> Result<&VectorSet<L1>, FamilyMismatch> {
        match self {
            AnyDataset::L1(s) => Ok(s),
            other => Err(FamilyMismatch {
                expected: "L1",
                found: other.kind_name(),
            }),
        }
    }

    /// The L4 vector set, or a typed error describing the mismatch.
    pub fn as_l4(&self) -> Result<&VectorSet<L4>, FamilyMismatch> {
        match self {
            AnyDataset::L4(s) => Ok(s),
            other => Err(FamilyMismatch {
                expected: "L4",
                found: other.kind_name(),
            }),
        }
    }

    /// The angular vector set, or a typed error describing the mismatch.
    pub fn as_angular(&self) -> Result<&VectorSet<Angular>, FamilyMismatch> {
        match self {
            AnyDataset::Angular(s) => Ok(s),
            other => Err(FamilyMismatch {
                expected: "angular",
                found: other.kind_name(),
            }),
        }
    }

    /// The string set, or a typed error describing the mismatch.
    pub fn as_strings(&self) -> Result<&StringSet, FamilyMismatch> {
        match self {
            AnyDataset::Strings(s) => Ok(s),
            other => Err(FamilyMismatch {
                expected: "string",
                found: other.kind_name(),
            }),
        }
    }

    /// Bytes of raw object storage (for the index-size experiment).
    pub fn data_bytes(&self) -> usize {
        match self {
            AnyDataset::L1(s) => s.data_bytes(),
            AnyDataset::L2(s) => s.data_bytes(),
            AnyDataset::L4(s) => s.data_bytes(),
            AnyDataset::Angular(s) => s.data_bytes(),
            AnyDataset::Strings(s) => s.data_bytes(),
        }
    }
}

impl Dataset for AnyDataset {
    fn len(&self) -> usize {
        match self {
            AnyDataset::L1(s) => s.len(),
            AnyDataset::L2(s) => s.len(),
            AnyDataset::L4(s) => s.len(),
            AnyDataset::Angular(s) => s.len(),
            AnyDataset::Strings(s) => s.len(),
        }
    }

    #[inline]
    fn dist(&self, i: usize, j: usize) -> f64 {
        match self {
            AnyDataset::L1(s) => s.dist(i, j),
            AnyDataset::L2(s) => s.dist(i, j),
            AnyDataset::L4(s) => s.dist(i, j),
            AnyDataset::Angular(s) => s.dist(i, j),
            AnyDataset::Strings(s) => s.dist(i, j),
        }
    }

    /// The inner set's digest, so an erased engine's saves and loads
    /// check the same point bytes as the concrete engine's (and the two
    /// payloads are interchangeable).
    fn content_digest(&self) -> u64 {
        match self {
            AnyDataset::L1(s) => s.content_digest(),
            AnyDataset::L2(s) => s.content_digest(),
            AnyDataset::L4(s) => s.content_digest(),
            AnyDataset::Angular(s) => s.content_digest(),
            AnyDataset::Strings(s) => s.content_digest(),
        }
    }
}

/// A generated dataset together with its provenance.
pub struct Generated {
    /// The family this dataset was generated from.
    pub family: Family,
    /// The objects.
    pub data: AnyDataset,
    /// Seed used for generation (datasets are deterministic per seed).
    pub seed: u64,
}

impl Generated {
    /// Calibrates the default radius for this dataset: the `r` that makes
    /// about [`Family::target_outlier_ratio`] of objects outliers at the
    /// family's default `k`. Deterministic given the dataset.
    pub fn calibrate_default_r(&self, samples: usize) -> f64 {
        crate::calibrate::calibrate_r(
            &self.data,
            self.family.default_k(),
            self.family.target_outlier_ratio(),
            samples,
            self.seed ^ 0x5eed_ca1b,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for f in Family::ALL {
            assert_eq!(Family::parse(f.name()), Some(f));
        }
        assert_eq!(Family::parse("nope"), None);
    }

    #[test]
    fn dimensions_match_table1() {
        assert_eq!(Family::Deep.dim(), 96);
        assert_eq!(Family::Glove.dim(), 25);
        assert_eq!(Family::Hepmass.dim(), 27);
        assert_eq!(Family::Mnist.dim(), 784);
        assert_eq!(Family::Pamap2.dim(), 51);
        assert_eq!(Family::Sift.dim(), 128);
    }

    #[test]
    fn metrics_match_table1() {
        assert_eq!(Family::Deep.metric(), MetricKind::L2);
        assert_eq!(Family::Glove.metric(), MetricKind::Angular);
        assert_eq!(Family::Hepmass.metric(), MetricKind::L1);
        assert_eq!(Family::Mnist.metric(), MetricKind::L4);
        assert_eq!(Family::Words.metric(), MetricKind::Edit);
    }

    #[test]
    fn k_defaults_match_table2() {
        assert_eq!(Family::Deep.default_k(), 50);
        assert_eq!(Family::Glove.default_k(), 20);
        assert_eq!(Family::Pamap2.default_k(), 100);
        assert_eq!(Family::Words.default_k(), 15);
    }

    #[test]
    fn graph_degree_matches_paper() {
        assert_eq!(Family::Pamap2.graph_degree(), 40);
        assert_eq!(Family::Sift.graph_degree(), 25);
    }

    #[test]
    fn every_family_generates() {
        for f in Family::ALL {
            let g = f.generate(200, 3);
            assert_eq!(g.data.len(), 200, "{f}");
            // Distances must be finite, non-negative and symmetric.
            let d01 = g.data.dist(0, 1);
            assert!(d01.is_finite() && d01 >= 0.0, "{f}");
            assert_eq!(d01, g.data.dist(1, 0), "{f}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for f in [Family::Glove, Family::Words] {
            let a = f.generate(100, 9);
            let b = f.generate(100, 9);
            for i in 0..10 {
                assert_eq!(a.data.dist(i, 99 - i), b.data.dist(i, 99 - i));
            }
        }
    }

    #[test]
    fn glove_is_normalized_angular() {
        let g = Family::Glove.generate(50, 4);
        // Angular distances live in [0, π].
        for i in 0..50 {
            let d = g.data.dist(0, i);
            assert!((0.0..=std::f64::consts::PI + 1e-9).contains(&d));
        }
    }

    #[test]
    fn pamap2_is_clamped_to_domain() {
        let g = Family::Pamap2.generate(100, 6);
        let s = g.data.as_l2().expect("pamap2 should be an L2 vector set");
        for i in 0..100 {
            assert!(s.row(i).iter().all(|&v| (0.0..=100_000.0).contains(&v)));
        }
    }

    #[test]
    fn typed_access_reports_mismatches_without_panicking() {
        let glove = Family::Glove.generate(10, 1);
        let err = glove.data.as_l2().err().expect("glove is not L2");
        assert_eq!(
            err,
            FamilyMismatch {
                expected: "L2",
                found: "angular"
            }
        );
        assert_eq!(
            err.to_string(),
            "expected a L2 dataset, found a angular dataset"
        );
        assert!(glove.data.as_angular().is_ok());
        assert!(glove.data.as_strings().is_err());
        let words = Family::Words.generate(10, 1);
        assert!(words.data.as_strings().is_ok());
        assert!(words.data.as_l1().is_err());
        assert!(words.data.as_l4().is_err());
        assert_eq!(words.data.kind_name(), "string");
    }

    #[test]
    fn mismatches_absorb_into_the_workspace_error() {
        let glove = Family::Glove.generate(10, 1);
        let err: dod_core::DodError = glove.data.as_l2().err().expect("glove is not L2").into();
        assert!(matches!(
            err,
            dod_core::DodError::FamilyMismatch {
                expected: "L2",
                found: "angular"
            }
        ));
        // `?` works against a DodError-returning service boundary.
        fn typed(d: &AnyDataset) -> Result<usize, dod_core::DodError> {
            Ok(d.as_strings()?.len())
        }
        assert!(typed(&glove.data).is_err());
        let words = Family::Words.generate(10, 1);
        assert_eq!(typed(&words.data).unwrap(), 10);
    }

    #[test]
    fn any_engine_serves_and_round_trips_any_family() {
        use dod_core::{IndexSpec, Query};
        for f in [Family::Sift, Family::Words] {
            let gen = f.generate(250, 3);
            let r = gen.calibrate_default_r(100);
            let truth = dod_core::nested_loop::detect(
                &gen.data,
                &dod_core::DodParams::new(r, f.default_k()),
                0,
            )
            .outliers;
            let engine: AnyEngine = f
                .generate(250, 3)
                .data
                .into_engine()
                .index(IndexSpec::VpTree)
                .build()
                .expect("build");
            let query = Query::new(r, f.default_k()).expect("query");
            assert_eq!(engine.query(query).expect("query").outliers, truth, "{f}");
            // Persistence sees through the erasure: the digest check
            // rejects a different family, the round trip answers the same.
            let mut bytes = Vec::new();
            engine.save(&mut bytes).expect("save");
            let reloaded = AnyEngine::load(f.generate(250, 3).data, &bytes[..]).expect("load");
            assert_eq!(reloaded.query(query).expect("query").outliers, truth);
            let other = Family::Glove.generate(250, 3).data;
            assert!(AnyEngine::load(other, &bytes[..]).is_err());
        }
    }

    #[test]
    fn erased_digest_sees_through_to_the_inner_set() {
        use dod_core::{Engine, Query};
        let erased = Family::Sift.generate(300, 1).data;
        let AnyDataset::L2(concrete) = Family::Sift.generate(300, 1).data else {
            panic!("sift is an L2 family");
        };
        assert_eq!(erased.content_digest(), concrete.content_digest());

        // So a concrete engine's save loads as an erased one.
        let engine = Engine::builder(concrete)
            .index("mrpg:6".parse().expect("spec"))
            .build()
            .expect("build");
        let query = Query::new(80.0, 10).expect("query");
        let want = engine.query(query).expect("query").outliers;
        let mut bytes = Vec::new();
        engine.save(&mut bytes).expect("save");
        let reloaded = AnyEngine::load(erased, &bytes[..]).expect("load as AnyEngine");
        assert_eq!(reloaded.query(query).expect("query").outliers, want);
    }

    #[test]
    fn calibration_separates_planted_tail() {
        let g = Family::Sift.generate(800, 5);
        let r = g.calibrate_default_r(200);
        assert!(r.is_finite() && r > 0.0);
    }
}
