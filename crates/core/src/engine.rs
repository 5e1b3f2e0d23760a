//! [`Engine`] — the owned, fallible, session-oriented front door.
//!
//! The paper's operational model is *build once offline, answer any
//! `(r, k)` query online* (§1). An [`Engine`] is that session as one
//! value: it owns the dataset and the index, is `Send + Sync` (put it
//! behind an `Arc` and a request handler), keeps per-engine reusable
//! traversal buffers and a cached verification engine so repeated queries
//! stop re-allocating, and returns [`DodError`] instead of panicking on
//! bad input. [`Engine::save`]/[`Engine::load`] persist the index and
//! parameters so a service restarts warm.
//!
//! ```
//! use dod_core::{Engine, IndexSpec, Query};
//! use dod_graph::MrpgParams;
//! use dod_metrics::{VectorSet, L2};
//!
//! // Three dense blobs plus an isolated point.
//! let mut rows: Vec<Vec<f32>> = (0..300)
//!     .map(|i| {
//!         let c = (i % 3) as f32 * 10.0;
//!         vec![c + (i as f32 * 0.618).fract() - 0.5, (i as f32 * 0.382).fract() - 0.5]
//!     })
//!     .collect();
//! rows.push(vec![500.0, 500.0]);
//! let data = VectorSet::from_rows(&rows, L2);
//!
//! // Offline: one engine, owning data + index.
//! let engine = Engine::builder(data)
//!     .index(IndexSpec::Mrpg(MrpgParams::new(8)))
//!     .build()?;
//!
//! // Online: any (r, k) query, as many times as you like.
//! let report = engine.query(Query::new(2.0, 5)?)?;
//! assert_eq!(report.outliers, vec![300]);
//! # Ok::<(), dod_core::DodError>(())
//! ```

use crate::error::DodError;
use crate::graph_dod::detect_on_graph;
use crate::greedy::BufferPool;
use crate::nested_loop;
use crate::params::{DodParams, OutlierReport, Query};
use crate::telemetry::EngineMetrics;
use crate::verify::{ExactCounter, VerifyStrategy};
use crate::vptree_dod::detect_on_tree;
use dod_graph::{mrpg, serialize, MrpgParams, ProximityGraph};
use dod_metrics::Dataset;
use dod_vptree::VpTree;
use std::io::{Read, Write};
use std::sync::OnceLock;
use std::time::Instant;

/// Which index an [`Engine`] builds offline and serves queries from.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum IndexSpec {
    /// The paper's MRPG (§5) — the strongest filter, plus the exact-`K'`
    /// verification shortcut when `params.full`.
    Mrpg(MrpgParams),
    /// A navigable small-world graph \[Malkov et al., 2014\].
    Nsw {
        /// Graph degree `K` (NSW is sized to match a KGraph of this
        /// degree, as in the paper's §6).
        degree: usize,
    },
    /// An approximate K-NN graph built by NNDescent \[Dong et al.,
    /// WWW'11\].
    KGraph {
        /// Graph degree `K`.
        degree: usize,
    },
    /// A VP-tree \[Yianilos, SODA'93\]: no filtering phase, one
    /// early-terminated range count per object.
    VpTree,
    /// No index: the randomized nested loop. The zero-preprocessing
    /// baseline, and the ground truth the parity tests pin everything to.
    None,
}

impl IndexSpec {
    /// Default graph degree [`FromStr`](std::str::FromStr) uses when the
    /// wire spelling carries no `:degree` suffix — `mrpg` parses as
    /// `mrpg:8` (the [`Engine::builder`] default), `nsw`/`kgraph` as
    /// degree 25 (the paper's §6 default for the comparison graphs).
    pub fn default_degree(kind: &str) -> usize {
        if kind == "mrpg" {
            8
        } else {
            25
        }
    }

    /// Checks the spec can produce a working index (non-zero graph
    /// degree). [`EngineBuilder::build`] runs this; callers that stage
    /// expensive work before the build (dataset generation, registry
    /// slots) can run it first and fail cheaply.
    pub fn validate(&self) -> Result<(), DodError> {
        let degree = match self {
            IndexSpec::Mrpg(p) => p.k,
            IndexSpec::Nsw { degree } | IndexSpec::KGraph { degree } => *degree,
            IndexSpec::VpTree | IndexSpec::None => return Ok(()),
        };
        if degree == 0 {
            return Err(DodError::InvalidSpec {
                reason: "graph degree must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// The canonical wire spelling: `mrpg:8`, `nsw:25`, `kgraph:25`,
/// `vptree`, `none`. This is the one spelling shared by engine-creation
/// request bodies and the `GET /v1/engines` listing in `dod_server`, and
/// it round-trips through [`FromStr`](std::str::FromStr): for every spec
/// `s` produced by parsing, `s.to_string().parse()` yields `s` again.
///
/// Only the variant and the graph degree are wire-expressible; the
/// remaining [`MrpgParams`] tuning fields keep their
/// [`MrpgParams::new`] defaults, which is what `Display` of a
/// hand-tuned spec reports too.
impl std::fmt::Display for IndexSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexSpec::Mrpg(p) => write!(f, "mrpg:{}", p.k),
            IndexSpec::Nsw { degree } => write!(f, "nsw:{degree}"),
            IndexSpec::KGraph { degree } => write!(f, "kgraph:{degree}"),
            IndexSpec::VpTree => f.write_str("vptree"),
            IndexSpec::None => f.write_str("none"),
        }
    }
}

/// Parses the canonical wire spelling (see the [`Display`](std::fmt::Display) impl):
/// `mrpg`, `nsw` and `kgraph` take an optional `:degree` suffix
/// ([`IndexSpec::default_degree`] when absent), `vptree` and `none` take
/// none. Anything else — unknown kinds, a degree on an index that has
/// none, a zero or non-numeric degree — is [`DodError::InvalidSpec`].
impl std::str::FromStr for IndexSpec {
    type Err = DodError;

    fn from_str(s: &str) -> Result<Self, DodError> {
        let s = s.trim();
        let (kind, degree) = match s.split_once(':') {
            None => (s, None),
            Some((kind, d)) => {
                let degree = d.parse::<usize>().ok().filter(|&d| d > 0).ok_or_else(|| {
                    DodError::InvalidSpec {
                        reason: format!("index degree must be a positive integer, got {d:?}"),
                    }
                })?;
                (kind, Some(degree))
            }
        };
        let spec = match kind {
            "mrpg" => IndexSpec::Mrpg(MrpgParams::new(
                degree.unwrap_or_else(|| IndexSpec::default_degree("mrpg")),
            )),
            "nsw" => IndexSpec::Nsw {
                degree: degree.unwrap_or_else(|| IndexSpec::default_degree("nsw")),
            },
            "kgraph" => IndexSpec::KGraph {
                degree: degree.unwrap_or_else(|| IndexSpec::default_degree("kgraph")),
            },
            "vptree" | "none" => {
                if degree.is_some() {
                    return Err(DodError::InvalidSpec {
                        reason: format!("index {kind:?} takes no degree"),
                    });
                }
                if kind == "vptree" {
                    IndexSpec::VpTree
                } else {
                    IndexSpec::None
                }
            }
            other => {
                return Err(DodError::InvalidSpec {
                    reason: format!(
                        "unknown index {other:?} (expected mrpg, nsw, kgraph, vptree or none)"
                    ),
                })
            }
        };
        Ok(spec)
    }
}

/// The built index an engine serves from.
enum Index {
    Graph(ProximityGraph),
    Tree(VpTree),
    None,
}

/// Configures and builds an [`Engine`]. Created by [`Engine::builder`].
pub struct EngineBuilder<D> {
    data: D,
    spec: IndexSpec,
    prebuilt: Option<ProximityGraph>,
    threads: usize,
    verify: VerifyStrategy,
    seed: u64,
}

impl<D: Dataset> EngineBuilder<D> {
    /// Selects the index to build (default: full MRPG of degree 8).
    pub fn index(mut self, spec: IndexSpec) -> Self {
        self.spec = spec;
        self.prebuilt = None;
        self
    }

    /// Serves from an already-built proximity graph instead of building
    /// one — the bench-harness path, where graphs are constructed
    /// separately to time each build phase.
    pub fn prebuilt_graph(mut self, graph: ProximityGraph) -> Self {
        self.prebuilt = Some(graph);
        self
    }

    /// Default worker threads per query (overridable per query with
    /// [`Query::with_threads`]; clamped to at least 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Verification strategy for filter survivors (default
    /// [`VerifyStrategy::Auto`]).
    pub fn verify(mut self, verify: VerifyStrategy) -> Self {
        self.verify = verify;
        self
    }

    /// Seed for index construction and the verification engine's
    /// internals. Detection results never depend on it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the index and returns the ready engine.
    ///
    /// Fails with [`DodError::InvalidSpec`] on an unusable spec and
    /// [`DodError::SizeMismatch`] when a prebuilt graph does not cover the
    /// dataset.
    pub fn build(self) -> Result<Engine<D>, DodError> {
        let t = Instant::now();
        let index = match self.prebuilt {
            Some(graph) => {
                if graph.node_count() != self.data.len() {
                    return Err(DodError::SizeMismatch {
                        index: graph.node_count(),
                        data: self.data.len(),
                    });
                }
                Index::Graph(graph)
            }
            None => {
                self.spec.validate()?;
                match &self.spec {
                    IndexSpec::Mrpg(p) => Index::Graph(mrpg::build(&self.data, p).0),
                    IndexSpec::Nsw { degree } => {
                        Index::Graph(mrpg::build_nsw(&self.data, *degree, self.seed))
                    }
                    IndexSpec::KGraph { degree } => Index::Graph(mrpg::build_kgraph(
                        &self.data,
                        *degree,
                        self.threads,
                        self.seed,
                    )),
                    IndexSpec::VpTree => Index::Tree(VpTree::build(&self.data, self.seed)),
                    IndexSpec::None => Index::None,
                }
            }
        };
        Ok(Engine {
            data: self.data,
            index,
            verify: self.verify,
            threads: self.threads,
            seed: self.seed,
            build_secs: t.elapsed().as_secs_f64(),
            pool: BufferPool::new(),
            counter: OnceLock::new(),
            metrics: EngineMetrics::new(),
        })
    }
}

/// An owned, thread-safe detection session: dataset + index + query
/// defaults, serving any number of [`Query`]s.
///
/// See the [module docs](self) for the build-once/query-many example and
/// the crate root for serving from `Arc<Engine>`.
pub struct Engine<D> {
    data: D,
    index: Index,
    verify: VerifyStrategy,
    threads: usize,
    seed: u64,
    build_secs: f64,
    /// Reusable traversal buffers (one per concurrent worker).
    pool: BufferPool,
    /// The verification engine, built lazily on the first query that
    /// leaves candidates and reused by every later query.
    counter: OnceLock<ExactCounter>,
    /// Query counters and latency histogram (lock-free; scraped live by
    /// serving layers through [`Engine::metrics`]).
    metrics: EngineMetrics,
}

impl<D: Dataset> Engine<D> {
    /// Starts configuring an engine over an owned (or borrowed — `&D` is
    /// itself a [`Dataset`]) dataset.
    pub fn builder(data: D) -> EngineBuilder<D> {
        EngineBuilder {
            data,
            spec: IndexSpec::Mrpg(MrpgParams::new(8)),
            prebuilt: None,
            threads: 1,
            verify: VerifyStrategy::Auto,
            seed: 0,
        }
    }

    /// Answers one `(r, k)` query. Exact for every index spec: the parity
    /// suite pins all of them to the nested-loop ground truth.
    ///
    /// Never panics on caller input — a [`Query`] is validated at
    /// construction and the engine's index always matches its dataset.
    pub fn query(&self, query: Query) -> Result<OutlierReport, DodError> {
        let t = Instant::now();
        let result = self.query_uninstrumented(query);
        match &result {
            Ok(report) => {
                self.metrics.queries.inc();
                self.metrics
                    .outliers_reported
                    .add(report.outliers.len() as u64);
                self.metrics.latency.observe_secs(t.elapsed().as_secs_f64());
                self.metrics.record_report(report);
            }
            Err(_) => self.metrics.query_errors.inc(),
        }
        result
    }

    /// Answers a batch of queries, one [`OutlierReport`] per query in
    /// input order.
    ///
    /// The batch amortizes everything per-engine the single-query path
    /// already pools — the traversal buffers and, decisively, the lazily
    /// built verification engine (a VP-tree over the whole dataset, paid
    /// once for the batch instead of per cold engine) — and answers
    /// *identical* queries once, cloning the report into every duplicate
    /// slot. Batches from a serving layer are exactly where duplicates
    /// concentrate (many clients asking the default `(r, k)`), so the
    /// duplicate scan is quadratic in the batch length but trivially so.
    ///
    /// Fails on the first failing query; no partial batches (all queries
    /// are validated [`Query`]s, so in practice this means an I/O-less
    /// `Ok`).
    pub fn query_many(&self, queries: &[Query]) -> Result<Vec<OutlierReport>, DodError> {
        self.metrics.batches.inc();
        let mut answers: Vec<Option<OutlierReport>> = vec![None; queries.len()];
        for i in 0..queries.len() {
            if answers[i].is_some() {
                continue;
            }
            let report = self.query(queries[i])?;
            for j in (i + 1)..queries.len() {
                if answers[j].is_none() && queries[j] == queries[i] {
                    // Count the duplicate as an answered query — it is one,
                    // served at clone cost. Its `cost` counters are NOT
                    // re-recorded: the clone evaluated zero distances.
                    self.metrics.queries.inc();
                    self.metrics
                        .outliers_reported
                        .add(report.outliers.len() as u64);
                    answers[j] = Some(report.clone());
                }
            }
            answers[i] = Some(report);
        }
        Ok(answers.into_iter().map(|a| a.expect("filled")).collect())
    }

    /// Live query telemetry: counters and the latency histogram. Scraped
    /// by serving layers (`dod_server`'s `/metrics`); recording costs a
    /// few relaxed atomics per query.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    fn query_uninstrumented(&self, query: Query) -> Result<OutlierReport, DodError> {
        let threads = query.threads().unwrap_or(self.threads).max(1);
        let (r, k) = (query.r(), query.k());
        match &self.index {
            Index::Graph(g) => detect_on_graph(
                g,
                &self.data,
                r,
                k,
                threads,
                self.verify,
                self.seed,
                &self.pool,
                &self.counter,
            ),
            Index::Tree(t) => Ok(detect_on_tree(t, &self.data, r, k, threads)),
            Index::None => Ok(nested_loop::detect(
                &self.data,
                &DodParams::new(r, k).with_threads(threads),
                self.seed,
            )),
        }
    }

    /// The dataset the engine serves.
    pub fn data(&self) -> &D {
        &self.data
    }

    /// Number of objects served.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the engine serves an empty dataset.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The proximity graph the engine serves from, if it is graph-backed.
    pub fn graph(&self) -> Option<&ProximityGraph> {
        match &self.index {
            Index::Graph(g) => Some(g),
            _ => None,
        }
    }

    /// Display name of the backing index, matching the paper's tables.
    pub fn index_name(&self) -> &'static str {
        match &self.index {
            Index::Graph(g) => g.kind.name(),
            Index::Tree(_) => "VP-tree",
            Index::None => "Nested-loop",
        }
    }

    /// Index footprint in bytes (paper Table 6; 0 for
    /// [`IndexSpec::None`]).
    pub fn index_bytes(&self) -> usize {
        match &self.index {
            Index::Graph(g) => g.size_bytes(),
            Index::Tree(t) => t.size_bytes(),
            Index::None => 0,
        }
    }

    /// Wall-clock seconds [`EngineBuilder::build`] (or [`Engine::load`])
    /// spent standing the engine up.
    pub fn build_secs(&self) -> f64 {
        self.build_secs
    }

    /// The configured verification strategy.
    pub fn verify(&self) -> VerifyStrategy {
        self.verify
    }

    /// The default per-query thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The construction seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Persists the index and query defaults (not the dataset) to `w`.
    ///
    /// Graph indexes are stored via the binary graph codec
    /// ([`dod_graph::serialize`]); a VP-tree engine stores only its seed
    /// and deterministically rebuilds the tree on [`Engine::load`].
    pub fn save<W: Write>(&self, mut w: W) -> Result<(), DodError> {
        let (tag, payload): (u8, Option<&ProximityGraph>) = match &self.index {
            Index::None => (TAG_NONE, None),
            Index::Tree(_) => (TAG_VPTREE, None),
            Index::Graph(g) => (TAG_GRAPH, Some(g)),
        };
        let mut head = Vec::with_capacity(HEADER_LEN);
        head.extend_from_slice(ENGINE_MAGIC);
        head.push(ENGINE_VERSION);
        head.push(tag);
        head.push(verify_to_u8(self.verify));
        head.extend_from_slice(&(self.threads as u32).to_le_bytes());
        head.extend_from_slice(&self.seed.to_le_bytes());
        // Dataset fingerprint (FNV-1a over the point bytes for the
        // concrete object stores): `load` refuses to marry this index to
        // any other dataset, before even comparing cardinalities.
        head.extend_from_slice(&self.data.content_digest().to_le_bytes());
        head.extend_from_slice(&(self.data.len() as u64).to_le_bytes());
        w.write_all(&head)?;
        if let Some(g) = payload {
            let bytes = serialize::to_bytes(g);
            w.write_all(&(bytes.len() as u64).to_le_bytes())?;
            w.write_all(&bytes)?;
        }
        Ok(())
    }

    /// Restores an engine persisted by [`Engine::save`] over the same
    /// dataset.
    ///
    /// Fails with [`DodError::Corrupt`] (with the byte offset) on a
    /// damaged payload **or** when `data`'s
    /// [`content_digest`](Dataset::content_digest) differs from the one
    /// the engine was saved with — the checksum is compared before the
    /// cardinality, so the wrong dataset file is rejected even when its
    /// size happens to match. A right-digest/wrong-cardinality payload
    /// (hand-edited) still surfaces as [`DodError::SizeMismatch`].
    pub fn load<R: Read>(data: D, mut r: R) -> Result<Self, DodError> {
        let t = Instant::now();
        let mut buf = Vec::new();
        r.read_to_end(&mut buf)?;
        let corrupt = |offset: usize, reason: &'static str| DodError::Corrupt { offset, reason };
        if buf.len() < HEADER_LEN {
            return Err(corrupt(buf.len(), "truncated engine header"));
        }
        if &buf[..4] != ENGINE_MAGIC {
            return Err(corrupt(0, "bad engine magic"));
        }
        if buf[4] != ENGINE_VERSION {
            return Err(corrupt(4, "unsupported engine version"));
        }
        let tag = buf[5];
        let verify = verify_from_u8(buf[6]).ok_or(corrupt(6, "bad verify strategy"))?;
        let threads = u32::from_le_bytes(buf[7..11].try_into().expect("4 bytes")) as usize;
        let seed = u64::from_le_bytes(buf[11..19].try_into().expect("8 bytes"));
        let digest = u64::from_le_bytes(buf[19..27].try_into().expect("8 bytes"));
        // Checked before the size comparison: a wrong dataset of the right
        // cardinality would pass a size check and silently serve garbage.
        if digest != data.content_digest() {
            return Err(corrupt(
                19,
                "dataset checksum mismatch: engine was saved over different points",
            ));
        }
        let n = u64::from_le_bytes(buf[27..35].try_into().expect("8 bytes")) as usize;
        if n != data.len() {
            return Err(DodError::SizeMismatch {
                index: n,
                data: data.len(),
            });
        }
        let index = match tag {
            TAG_NONE => Index::None,
            TAG_VPTREE => Index::Tree(VpTree::build(&data, seed)),
            TAG_GRAPH => {
                if buf.len() < HEADER_LEN + 8 {
                    return Err(corrupt(buf.len(), "truncated graph payload length"));
                }
                let len = u64::from_le_bytes(buf[35..43].try_into().expect("8 bytes")) as usize;
                let start = HEADER_LEN + 8;
                // `len` is attacker-controlled: compare against the bytes
                // actually present (start <= buf.len() was checked above)
                // rather than computing `start + len`, which can overflow.
                if buf.len() - start < len {
                    return Err(corrupt(buf.len(), "truncated graph payload"));
                }
                let g = serialize::from_bytes(&buf[start..start + len]).map_err(|e| {
                    // Re-anchor the codec's offset to the engine payload.
                    match DodError::from(e) {
                        DodError::Corrupt { offset, reason } => DodError::Corrupt {
                            offset: start + offset,
                            reason,
                        },
                        other => other,
                    }
                })?;
                if g.node_count() != n {
                    return Err(DodError::SizeMismatch {
                        index: g.node_count(),
                        data: n,
                    });
                }
                Index::Graph(g)
            }
            _ => return Err(corrupt(5, "bad index tag")),
        };
        Ok(Engine {
            data,
            index,
            verify,
            threads: threads.max(1),
            seed,
            build_secs: t.elapsed().as_secs_f64(),
            pool: BufferPool::new(),
            counter: OnceLock::new(),
            metrics: EngineMetrics::new(),
        })
    }

    /// Consumes the engine, returning its dataset.
    pub fn into_data(self) -> D {
        self.data
    }
}

const ENGINE_MAGIC: &[u8; 4] = b"DODE";
/// Version 2 added the dataset digest (version-1 payloads are refused —
/// they carry no checksum, which is the guarantee this format exists for).
/// Version 3 marks the multi-lane vector kernels: a saved graph carries
/// exact-K′ neighbor distances computed in the old sequential summation
/// order, and the §5.5 shortcut compares those against `r`, so a
/// `dist == r` tie could disagree with a nested loop run on the current
/// kernel. Version-2 payloads are refused; rebuild the index instead.
const ENGINE_VERSION: u8 = 3;
/// magic + version + index tag + verify + threads u32 + seed u64 +
/// dataset digest u64 + n u64.
const HEADER_LEN: usize = 4 + 1 + 1 + 1 + 4 + 8 + 8 + 8;
const TAG_NONE: u8 = 0;
const TAG_VPTREE: u8 = 1;
const TAG_GRAPH: u8 = 2;

fn verify_to_u8(v: VerifyStrategy) -> u8 {
    match v {
        VerifyStrategy::Auto => 0,
        VerifyStrategy::Linear => 1,
        VerifyStrategy::VpTree => 2,
    }
}

fn verify_from_u8(v: u8) -> Option<VerifyStrategy> {
    Some(match v {
        0 => VerifyStrategy::Auto,
        1 => VerifyStrategy::Linear,
        2 => VerifyStrategy::VpTree,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dod_metrics::{VectorSet, L2};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn blobs(n: usize, seed: u64) -> VectorSet<L2> {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                if i % 29 == 28 {
                    vec![rng.gen_range(60.0f32..90.0), rng.gen_range(60.0f32..90.0)]
                } else {
                    let c = (i % 3) as f32 * 8.0;
                    vec![c + rng.gen_range(-1.0f32..1.0), rng.gen_range(-1.0f32..1.0)]
                }
            })
            .collect();
        VectorSet::from_rows(&rows, L2)
    }

    fn all_specs() -> Vec<IndexSpec> {
        vec![
            IndexSpec::Mrpg(MrpgParams::new(6)),
            IndexSpec::Nsw { degree: 6 },
            IndexSpec::KGraph { degree: 6 },
            IndexSpec::VpTree,
            IndexSpec::None,
        ]
    }

    #[test]
    fn index_spec_wire_spelling_round_trips() {
        // Canonical spellings are fixed points of parse → display.
        for s in ["mrpg:8", "nsw:25", "kgraph:12", "vptree", "none"] {
            let spec: IndexSpec = s.parse().expect(s);
            assert_eq!(spec.to_string(), s);
        }
        // Bare graph kinds pick up their documented default degree.
        assert_eq!(
            "mrpg".parse::<IndexSpec>().unwrap().to_string(),
            format!("mrpg:{}", IndexSpec::default_degree("mrpg"))
        );
        assert_eq!("nsw".parse::<IndexSpec>().unwrap().to_string(), "nsw:25");
        assert_eq!(
            "kgraph".parse::<IndexSpec>().unwrap().to_string(),
            "kgraph:25"
        );
        // Whitespace is tolerated; structure is preserved.
        assert!(matches!(
            "  mrpg:6 ".parse::<IndexSpec>().unwrap(),
            IndexSpec::Mrpg(p) if p.k == 6 && p.k_prime == 24
        ));
        // Rejections are typed, not panics.
        for bad in [
            "hnsw", "mrpg:0", "mrpg:-1", "mrpg:x", "vptree:4", "none:1", "", "mrpg:",
        ] {
            assert!(
                matches!(bad.parse::<IndexSpec>(), Err(DodError::InvalidSpec { .. })),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn every_spec_matches_the_ground_truth() {
        let data = blobs(400, 1);
        let q = Query::new(2.0, 5).unwrap();
        let truth = nested_loop::detect(&data, &DodParams::new(2.0, 5), 0).outliers;
        assert!(!truth.is_empty());
        for spec in all_specs() {
            let name = format!("{spec:?}");
            let engine = Engine::builder(&data).index(spec).build().expect("build");
            assert_eq!(engine.query(q).expect("query").outliers, truth, "{name}");
        }
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine<VectorSet<L2>>>();
        assert_send_sync::<Engine<&VectorSet<L2>>>();
    }

    #[test]
    fn concurrent_queries_through_an_arc() {
        let engine = std::sync::Arc::new(
            Engine::builder(blobs(300, 2))
                .index(IndexSpec::Mrpg(MrpgParams::new(6)))
                .build()
                .expect("build"),
        );
        let q = Query::new(2.0, 4).unwrap();
        let baseline = engine.query(q).expect("query").outliers;
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let e = std::sync::Arc::clone(&engine);
                std::thread::spawn(move || e.query(q).expect("query").outliers)
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("join"), baseline);
        }
    }

    #[test]
    fn repeated_queries_reuse_buffers_and_counter() {
        let engine = Engine::builder(blobs(300, 3))
            .index(IndexSpec::Mrpg(MrpgParams::new(6)))
            .build()
            .expect("build");
        let a = engine.query(Query::new(2.0, 4).unwrap()).expect("query");
        assert!(
            engine.counter.get().is_some() || a.candidates == 0,
            "a query with candidates must cache the verification engine"
        );
        let b = engine.query(Query::new(2.0, 4).unwrap()).expect("query");
        assert_eq!(a.outliers, b.outliers);
        // The same engine answers a different query without rebuilding.
        let c = engine.query(Query::new(4.0, 4).unwrap()).expect("query");
        assert!(c.outliers.len() <= a.outliers.len());
    }

    #[test]
    fn query_many_matches_query_and_dedupes() {
        let engine = Engine::builder(blobs(300, 11))
            .index(IndexSpec::Mrpg(MrpgParams::new(6)))
            .build()
            .expect("build");
        let a = Query::new(2.0, 4).unwrap();
        let b = Query::new(4.0, 6).unwrap();
        let batch = engine.query_many(&[a, b, a, a]).expect("batch");
        assert_eq!(batch.len(), 4);
        let single_a = engine.query(a).expect("query");
        let single_b = engine.query(b).expect("query");
        assert_eq!(batch[0].outliers, single_a.outliers);
        assert_eq!(batch[1].outliers, single_b.outliers);
        // Duplicate slots are byte-for-byte the first answer (clones of
        // one report, including its timing fields).
        assert_eq!(batch[2], batch[0]);
        assert_eq!(batch[3], batch[0]);
        assert!(engine.query_many(&[]).expect("empty").is_empty());
    }

    #[test]
    fn metrics_count_queries_batches_and_latency() {
        let engine = Engine::builder(blobs(300, 12))
            .index(IndexSpec::Mrpg(MrpgParams::new(6)))
            .build()
            .expect("build");
        assert_eq!(engine.metrics().queries.get(), 0);
        let q = Query::new(2.0, 4).unwrap();
        let rep = engine.query(q).expect("query");
        let batch = engine.query_many(&[q, q]).expect("batch");
        let m = engine.metrics();
        assert_eq!(m.queries.get(), 3, "1 single + 2 batch members");
        assert_eq!(m.batches.get(), 1);
        assert_eq!(m.query_errors.get(), 0);
        assert_eq!(
            m.outliers_reported.get(),
            (rep.outliers.len() + 2 * batch[0].outliers.len()) as u64
        );
        let lat = m.latency.snapshot();
        // Duplicate batch members are served by clone, not re-timed.
        assert_eq!(lat.count, 2);
        assert!(lat.sum_secs > 0.0);
        // Cost counters accumulate the two *distinct* executions only —
        // the cloned duplicate evaluated zero distances.
        assert_eq!(
            m.filter_dist_evals.get() + m.verify_dist_evals.get(),
            2 * rep.cost.total_dist_evals(),
            "clone must not re-book cost"
        );
        assert_eq!(m.hops.get(), 2 * rep.cost.hops);
        assert_eq!(m.candidates.get(), 2 * rep.candidates as u64);
    }

    #[test]
    fn concurrent_query_many_cost_counters_sum_exactly() {
        // Satellite: the relaxed-atomic cost counters must be exact under
        // parallel batches (mirrors the telemetry "concurrent observations
        // sum exactly" unit, but through the real query path).
        let engine = Engine::builder(blobs(300, 13))
            .index(IndexSpec::Mrpg(MrpgParams::new(6)))
            .build()
            .expect("build");
        // Distinct (r, k) per slot so the dedup path cannot collapse work.
        let queries: Vec<Query> = (0..4)
            .map(|i| Query::new(1.5 + 0.1 * i as f64, 4 + i).unwrap())
            .collect();
        let baseline: Vec<OutlierReport> = queries
            .iter()
            .map(|&q| engine.query(q).expect("query"))
            .collect();
        let before = (
            engine.metrics().filter_dist_evals.get(),
            engine.metrics().verify_dist_evals.get(),
            engine.metrics().hops.get(),
        );
        const ROUNDS: usize = 8;
        std::thread::scope(|s| {
            for _ in 0..ROUNDS {
                let engine = &engine;
                let queries = &queries;
                s.spawn(move || {
                    engine.query_many(queries).expect("batch");
                });
            }
        });
        let expected: u64 = baseline.iter().map(|r| r.cost.filter_dist_evals).sum();
        let m = engine.metrics();
        assert_eq!(
            m.filter_dist_evals.get() - before.0,
            ROUNDS as u64 * expected,
            "filter evals must sum exactly across concurrent batches"
        );
        let expected_verify: u64 = baseline.iter().map(|r| r.cost.verify_dist_evals).sum();
        assert_eq!(
            m.verify_dist_evals.get() - before.1,
            ROUNDS as u64 * expected_verify
        );
        let expected_hops: u64 = baseline.iter().map(|r| r.cost.hops).sum();
        assert_eq!(m.hops.get() - before.2, ROUNDS as u64 * expected_hops);
    }

    #[test]
    fn per_query_thread_override() {
        let engine = Engine::builder(blobs(300, 4))
            .index(IndexSpec::Mrpg(MrpgParams::new(6)))
            .threads(1)
            .build()
            .expect("build");
        let q = Query::new(2.0, 4).unwrap();
        let seq = engine.query(q).expect("seq");
        let par = engine.query(q.with_threads(4)).expect("par");
        assert_eq!(seq.outliers, par.outliers);
        assert_eq!(seq.candidates, par.candidates);
    }

    #[test]
    fn prebuilt_graph_engines_serve_and_reject_mismatches() {
        let data = blobs(200, 5);
        let (g, _) = mrpg::build(&data, &MrpgParams::new(5));
        let engine = Engine::builder(&data)
            .prebuilt_graph(g)
            .build()
            .expect("build");
        assert_eq!(engine.index_name(), "MRPG");
        let truth = nested_loop::detect(&data, &DodParams::new(2.0, 4), 0).outliers;
        assert_eq!(
            engine.query(Query::new(2.0, 4).unwrap()).unwrap().outliers,
            truth
        );

        let small = blobs(50, 5);
        let (g2, _) = mrpg::build(&small, &MrpgParams::new(5));
        let err = Engine::builder(&data).prebuilt_graph(g2).build();
        assert!(matches!(err, Err(DodError::SizeMismatch { .. })));
    }

    #[test]
    fn zero_degree_specs_are_rejected() {
        let data = blobs(50, 6);
        for spec in [
            IndexSpec::Nsw { degree: 0 },
            IndexSpec::KGraph { degree: 0 },
            IndexSpec::Mrpg(MrpgParams::new(0)),
        ] {
            let err = Engine::builder(&data).index(spec).build();
            assert!(matches!(err, Err(DodError::InvalidSpec { .. })));
        }
    }

    #[test]
    fn save_load_round_trips_every_spec() {
        let data = blobs(250, 7);
        let q = Query::new(2.0, 4).unwrap();
        for spec in all_specs() {
            let name = format!("{spec:?}");
            let engine = Engine::builder(&data)
                .index(spec)
                .verify(VerifyStrategy::Linear)
                .threads(2)
                .seed(9)
                .build()
                .expect("build");
            let want = engine.query(q).expect("query");
            let mut bytes = Vec::new();
            engine.save(&mut bytes).expect("save");
            let loaded = Engine::load(&data, &bytes[..]).expect("load");
            assert_eq!(loaded.index_name(), engine.index_name(), "{name}");
            assert_eq!(loaded.threads(), 2);
            assert_eq!(loaded.seed(), 9);
            assert_eq!(loaded.verify(), VerifyStrategy::Linear);
            let got = loaded.query(q).expect("query");
            assert_eq!(got.outliers, want.outliers, "{name}");
            assert_eq!(got.candidates, want.candidates, "{name}");
            assert_eq!(got.decided_in_filter, want.decided_in_filter, "{name}");
        }
    }

    #[test]
    fn load_rejects_wrong_dataset_and_corruption() {
        let data = blobs(120, 8);
        let engine = Engine::builder(&data)
            .index(IndexSpec::Mrpg(MrpgParams::new(5)))
            .build()
            .expect("build");
        let mut bytes = Vec::new();
        engine.save(&mut bytes).expect("save");

        // Wrong dataset: the checksum rejects it before any size check —
        // both at a different cardinality and at the *same* cardinality
        // with different points, where a size check alone would pass.
        let other = blobs(60, 8);
        assert!(matches!(
            Engine::load(&other, &bytes[..]),
            Err(DodError::Corrupt { offset: 19, .. })
        ));
        let same_n = blobs(120, 99);
        assert!(matches!(
            Engine::load(&same_n, &bytes[..]),
            Err(DodError::Corrupt { offset: 19, .. })
        ));

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            Engine::load(&data, &bad[..]),
            Err(DodError::Corrupt { offset: 0, .. })
        ));

        // A version-2 payload holds exact-K' distances from the
        // sequential kernel: refused even though every other byte is
        // well-formed.
        let mut old = bytes.clone();
        old[4] = 2;
        assert!(matches!(
            Engine::load(&data, &old[..]),
            Err(DodError::Corrupt {
                offset: 4,
                reason: "unsupported engine version"
            })
        ));

        // Truncation anywhere must error with an in-bounds offset.
        for cut in [0, 10, HEADER_LEN, HEADER_LEN + 8, bytes.len() - 1] {
            match Engine::load(&data, &bytes[..cut]) {
                Err(DodError::Corrupt { offset, .. }) => assert!(offset <= cut),
                Err(e) => panic!("cut {cut}: unexpected error {e}"),
                Ok(_) => panic!("cut {cut} accepted"),
            }
        }

        // A corrupted graph-payload length (huge u64) must be a typed
        // error, never an overflow panic.
        let mut bad = bytes.clone();
        bad[HEADER_LEN..HEADER_LEN + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            Engine::load(&data, &bad[..]),
            Err(DodError::Corrupt { .. })
        ));
    }

    #[test]
    fn empty_dataset_and_degenerate_queries_never_panic() {
        let empty = VectorSet::from_rows(&[], L2);
        let engine = Engine::builder(empty)
            .index(IndexSpec::VpTree)
            .build()
            .expect("build");
        assert!(engine.is_empty());
        let report = engine.query(Query::new(1.0, 3).unwrap()).expect("query");
        assert!(report.outliers.is_empty());

        let data = blobs(40, 9);
        for spec in all_specs() {
            let engine = Engine::builder(&data).index(spec).build().expect("build");
            for (r, k) in [(0.0, 1), (1e18, 40), (1.0, 0)] {
                let report = engine.query(Query::new(r, k).unwrap()).expect("query");
                assert!(report.outliers.len() <= 40);
            }
        }
    }

    #[test]
    fn accessors_expose_the_session_state() {
        let data = blobs(100, 10);
        let engine = Engine::builder(data)
            .index(IndexSpec::KGraph { degree: 5 })
            .threads(3)
            .seed(4)
            .build()
            .expect("build");
        assert_eq!(engine.len(), 100);
        assert_eq!(engine.index_name(), "KGraph");
        assert!(engine.index_bytes() > 0);
        assert!(engine.build_secs() >= 0.0);
        assert!(engine.graph().is_some());
        assert_eq!(engine.threads(), 3);
        assert_eq!(engine.seed(), 4);
        assert_eq!(engine.verify(), VerifyStrategy::Auto);
        let data = engine.into_data();
        assert_eq!(data.len(), 100);
    }
}
