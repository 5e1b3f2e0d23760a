//! The experiment implementations: one function per paper table/figure.

use crate::graphs::{build_all_graphs, mrpg_params};
use crate::paper;
use crate::report::{paper_secs, secs, JsonReport, JsonVal, Table};
use crate::slide_baseline::BatchSlideBaseline;
use crate::workload::{Config, Workload};
use dod_core::{dolphin, nested_loop, snif, DodParams, Engine, IndexSpec, OutlierReport, Query};
use dod_datasets::{calibrate_r, Family, StreamScenario};
use dod_graph::ProximityGraph;
use dod_metrics::{Dataset, DistanceCounter, Subset, VectorSet, L2};
use dod_shard::{DurabilityPolicy, DurableSession, ShardSpec, ShardedStreamDetector, SyncPolicy};
use dod_stream::{Backend, StreamDetector, VectorSpace, WindowSpec};
use std::io::{self, Write};

/// Which experiment(s) to run; parsed from the CLI subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Which {
    /// Tables 3–8 (optionally a single one).
    Tables(Option<u8>),
    /// Figures 6 and 7 (scalability in n).
    Fig6and7,
    /// Figures 8 and 9 (sensitivity to k and r).
    Fig8and9,
    /// Figure 10 (thread scalability).
    Fig10,
    /// §6.2 ablation of Connect-SubGraphs / Remove-Detours.
    Ablation,
    /// Extension: test the paper's §3 claim that HNSW's hierarchy cannot
    /// help the DOD problem.
    Hnsw,
    /// Extension: sliding-window streaming engine vs per-slide batch
    /// re-detection.
    Stream,
    /// Everything.
    All,
}

impl Which {
    /// Parses the CLI subcommand.
    pub fn parse(s: &str) -> Option<Which> {
        Some(match s {
            "tables" => Which::Tables(None),
            "table3" => Which::Tables(Some(3)),
            "table4" => Which::Tables(Some(4)),
            "table5" => Which::Tables(Some(5)),
            "table6" => Which::Tables(Some(6)),
            "table7" => Which::Tables(Some(7)),
            "table8" => Which::Tables(Some(8)),
            "fig6_7" | "fig6" | "fig7" => Which::Fig6and7,
            "fig8_9" | "fig8" | "fig9" => Which::Fig8and9,
            "fig10" => Which::Fig10,
            "ablation" => Which::Ablation,
            "hnsw" => Which::Hnsw,
            "stream" => Which::Stream,
            "all" => Which::All,
            _ => return None,
        })
    }
}

/// Stands an [`Engine`] up over a prebuilt graph, configured the way the
/// workload's paper settings dictate (verification strategy, threads,
/// seed). The engine owns the graph; kind/size stay reachable through
/// [`Engine::graph`]/[`Engine::index_bytes`].
fn graph_engine<'a, D: Dataset>(
    data: &'a D,
    graph: ProximityGraph,
    w: &Workload,
    threads: usize,
    seed: u64,
) -> Engine<&'a D> {
    Engine::builder(data)
        .prebuilt_graph(graph)
        .verify(w.verify_strategy())
        .threads(threads)
        .seed(seed)
        .build()
        .expect("prebuilt graph covers the workload dataset")
}

/// The workload's calibrated `(r, k)` as a validated engine query.
fn workload_query(w: &Workload, threads: usize) -> Query {
    Query::new(w.r, w.k)
        .expect("calibrated workload parameters are valid")
        .with_threads(threads)
}

/// Runs the selected experiment(s), writing Markdown to `out`. With
/// `--json <path>` the `tables` and `stream` experiments additionally
/// collect machine-readable rows written to that path at the end.
pub fn run(cfg: &Config, which: Which, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "# DOD experiments (scale={}, seed={}, detect-threads={}, build-threads={})\n",
        cfg.scale, cfg.seed, cfg.threads, cfg.build_threads
    )?;
    let mut json = cfg.json.as_ref().map(|_| {
        let mut j = JsonReport::new();
        j.meta("scale", cfg.scale)
            .meta("seed", cfg.seed as usize)
            .meta("threads", cfg.threads);
        j
    });
    match which {
        Which::Tables(filter) => tables(cfg, filter, out, &mut json)?,
        Which::Fig6and7 => fig6_7(cfg, out)?,
        Which::Fig8and9 => fig8_9(cfg, out)?,
        Which::Fig10 => fig10(cfg, out)?,
        Which::Ablation => ablation(cfg, out)?,
        Which::Hnsw => hnsw_claim(cfg, out)?,
        Which::Stream => stream_experiment(cfg, out, &mut json)?,
        Which::All => {
            tables(cfg, None, out, &mut json)?;
            fig6_7(cfg, out)?;
            fig8_9(cfg, out)?;
            fig10(cfg, out)?;
            ablation(cfg, out)?;
            hnsw_claim(cfg, out)?;
            stream_experiment(cfg, out, &mut json)?;
        }
    }
    if let (Some(json), Some(path)) = (&json, &cfg.json) {
        if json.is_empty() {
            writeln!(
                out,
                "\n(--json: this subcommand collects no machine-readable rows; \
                 {path} not written — use tables, stream or all)"
            )?;
        } else {
            json.write(path)?;
            writeln!(out, "\n(machine-readable results written to {path})")?;
        }
    }
    Ok(())
}

/// One family's full measurement set for the table experiments.
struct FamilyMeasurement {
    family: Family,
    n: usize,
    /// Build seconds: NSW, KGraph, MRPG-basic, MRPG.
    build_secs: [f64; 4],
    /// Index MB: SNIF, DOLPHIN, VP-tree, NSW, KGraph, MRPG-basic, MRPG.
    index_mb: [f64; 7],
    /// Detection secs: NL, SNIF, DOLPHIN, VP-tree, NSW, KGraph, basic, MRPG.
    detect_secs: [f64; 8],
    /// False positives: NSW, KGraph, MRPG-basic, MRPG.
    false_positives: [usize; 4],
    /// Outliers found (sanity: identical across algorithms).
    outliers: usize,
    /// MRPG build decomposition (basic, full).
    breakdowns: [dod_graph::BuildBreakdown; 2],
    /// Filter/verify decomposition per graph.
    phase_secs: [(f64, f64); 4],
}

fn measure_family(
    cfg: &Config,
    family: Family,
    out: &mut dyn Write,
) -> io::Result<FamilyMeasurement> {
    let w = Workload::prepare(family, cfg);
    writeln!(out, "* workload {w}")?;
    out.flush()?;
    let params = DodParams::new(w.r, w.k).with_threads(cfg.threads);
    let query = workload_query(&w, cfg.threads);

    // Offline builds.
    let built = build_all_graphs(&w.data, &w, cfg.build_threads, cfg.seed);
    let build_secs = [
        built.graphs[0].build_secs,
        built.graphs[1].build_secs,
        built.graphs[2].build_secs,
        built.graphs[3].build_secs,
    ];
    let breakdowns = [
        built.graphs[2].breakdown.expect("basic has breakdown"),
        built.graphs[3].breakdown.expect("mrpg has breakdown"),
    ];
    let vp = Engine::builder(&w.data)
        .index(IndexSpec::VpTree)
        .seed(cfg.seed)
        .threads(cfg.threads)
        .build()
        .expect("VP-tree engines build for any dataset");

    // Online detection: baselines.
    let nl = nested_loop::detect(&w.data, &params, cfg.seed);
    let (snif_res, snif_bytes) = snif::detect_with_stats(&w.data, &params, cfg.seed);
    let (dolphin_res, dolphin_bytes) = dolphin::detect_with_stats(&w.data, &params, cfg.seed);
    let vp_res = vp.query(query).expect("VP-tree query");
    assert_eq!(nl.outliers, snif_res.outliers, "{family}: SNIF mismatch");
    assert_eq!(
        nl.outliers, dolphin_res.outliers,
        "{family}: DOLPHIN mismatch"
    );
    assert_eq!(nl.outliers, vp_res.outliers, "{family}: VP-tree mismatch");

    // Online detection: the four graphs, each behind an Engine session.
    let engines: Vec<Engine<&_>> = built
        .graphs
        .into_iter()
        .map(|b| graph_engine(&w.data, b.graph, &w, cfg.threads, cfg.seed))
        .collect();
    let mut graph_reports: Vec<OutlierReport> = Vec::with_capacity(4);
    for engine in &engines {
        let report = engine.query(query).expect("graph query");
        assert_eq!(
            nl.outliers,
            report.outliers,
            "{family}: {} mismatch",
            engine.index_name()
        );
        graph_reports.push(report);
    }

    Ok(FamilyMeasurement {
        family,
        n: w.n,
        build_secs,
        index_mb: [
            snif_bytes as f64 / 1048576.0,
            dolphin_bytes as f64 / 1048576.0,
            vp.index_bytes() as f64 / 1048576.0,
            engines[0].index_bytes() as f64 / 1048576.0,
            engines[1].index_bytes() as f64 / 1048576.0,
            engines[2].index_bytes() as f64 / 1048576.0,
            engines[3].index_bytes() as f64 / 1048576.0,
        ],
        detect_secs: [
            nl.total_secs(),
            snif_res.total_secs(),
            dolphin_res.total_secs(),
            vp_res.total_secs(),
            graph_reports[0].total_secs(),
            graph_reports[1].total_secs(),
            graph_reports[2].total_secs(),
            graph_reports[3].total_secs(),
        ],
        false_positives: [
            graph_reports[0].false_positives,
            graph_reports[1].false_positives,
            graph_reports[2].false_positives,
            graph_reports[3].false_positives,
        ],
        outliers: nl.outliers.len(),
        breakdowns,
        phase_secs: [
            (graph_reports[0].filter_secs, graph_reports[0].verify_secs),
            (graph_reports[1].filter_secs, graph_reports[1].verify_secs),
            (graph_reports[2].filter_secs, graph_reports[2].verify_secs),
            (graph_reports[3].filter_secs, graph_reports[3].verify_secs),
        ],
    })
}

const ALGO_NAMES: [&str; 8] = [
    "Nested-loop",
    "SNIF",
    "DOLPHIN",
    "VP-tree",
    "NSW",
    "KGraph",
    "MRPG-basic",
    "MRPG",
];

fn tables(
    cfg: &Config,
    filter: Option<u8>,
    out: &mut dyn Write,
    json: &mut Option<JsonReport>,
) -> io::Result<()> {
    writeln!(out, "## Tables 3–8 (paper §6.1–6.2)\n")?;
    let mut measurements = Vec::new();
    for &family in &cfg.families {
        measurements.push(measure_family(cfg, family, out)?);
    }
    writeln!(out)?;

    if let Some(json) = json {
        for m in &measurements {
            for (i, name) in ALGO_NAMES.iter().enumerate() {
                json.row([
                    ("experiment", JsonVal::from("tables")),
                    ("dataset", JsonVal::from(m.family.to_string())),
                    ("n", JsonVal::from(m.n)),
                    ("algorithm", JsonVal::from(*name)),
                    ("detect_secs", JsonVal::from(m.detect_secs[i])),
                ]);
            }
            for (i, graph) in ["NSW", "KGraph", "MRPG-basic", "MRPG"].iter().enumerate() {
                json.row([
                    ("experiment", JsonVal::from("tables_build")),
                    ("dataset", JsonVal::from(m.family.to_string())),
                    ("n", JsonVal::from(m.n)),
                    ("graph", JsonVal::from(*graph)),
                    ("build_secs", JsonVal::from(m.build_secs[i])),
                    ("false_positives", JsonVal::from(m.false_positives[i])),
                ]);
            }
        }
    }

    let want = |t: u8| filter.is_none() || filter == Some(t);

    if want(3) {
        writeln!(out, "### Table 3 — pre-processing time\n")?;
        let mut t = Table::new([
            "dataset",
            "n",
            "NSW",
            "KGraph",
            "MRPG-basic",
            "MRPG",
            "paper (NSW/KG/basic/MRPG)",
        ]);
        for m in &measurements {
            let p = paper::TABLE3_PREPROCESS_SECS[paper::family_index(m.family)];
            t.row([
                m.family.to_string(),
                m.n.to_string(),
                secs(m.build_secs[0]),
                secs(m.build_secs[1]),
                secs(m.build_secs[2]),
                secs(m.build_secs[3]),
                format!(
                    "{}/{}/{}/{}",
                    paper_secs(p[0]),
                    paper_secs(p[1]),
                    paper_secs(p[2]),
                    paper_secs(p[3])
                ),
            ]);
        }
        writeln!(out, "{}", t.render())?;
    }

    if want(4) {
        writeln!(out, "### Table 4 — decomposed MRPG build time (glove)\n")?;
        if let Some(m) = measurements.iter().find(|m| m.family == Family::Glove) {
            let mut t = Table::new(["phase", "MRPG-basic", "MRPG", "paper basic", "paper MRPG"]);
            let phases = [
                ("NNDescent(+)", 0usize),
                ("Connect-SubGraphs", 1),
                ("Remove-Detours", 2),
                ("Remove-Links", 3),
            ];
            for (name, idx) in phases {
                let pick = |b: &dod_graph::BuildBreakdown| match idx {
                    0 => b.nndescent_secs,
                    1 => b.connect_secs,
                    2 => b.detours_secs,
                    _ => b.remove_links_secs,
                };
                let paper_row = paper::TABLE4_GLOVE_DECOMPOSED[idx];
                t.row([
                    name.to_string(),
                    secs(pick(&m.breakdowns[0])),
                    secs(pick(&m.breakdowns[1])),
                    format!("{:.0}s", paper_row.2),
                    format!("{:.0}s", paper_row.3),
                ]);
            }
            writeln!(out, "{}", t.render())?;
        } else {
            writeln!(out, "(glove not in --families; skipped)\n")?;
        }
    }

    if want(5) {
        writeln!(out, "### Table 5 — detection running time\n")?;
        let mut t = Table::new([
            "dataset",
            "outliers",
            "Nested-loop",
            "SNIF",
            "DOLPHIN",
            "VP-tree",
            "NSW",
            "KGraph",
            "MRPG-basic",
            "MRPG",
        ]);
        for m in &measurements {
            let mut cells = vec![m.family.to_string(), m.outliers.to_string()];
            cells.extend(m.detect_secs.iter().map(|&s| secs(s)));
            t.row(cells);
        }
        writeln!(out, "{}", t.render())?;
        writeln!(out, "paper row order {ALGO_NAMES:?}; reference seconds:\n")?;
        let mut t = Table::new([
            "dataset", "paper NL", "SNIF", "DOLPHIN", "VP-tree", "NSW", "KGraph", "basic", "MRPG",
        ]);
        for m in &measurements {
            let p = paper::TABLE5_RUNNING_SECS[paper::family_index(m.family)];
            let mut cells = vec![m.family.to_string()];
            cells.extend(p.iter().map(|v| paper_secs(*v)));
            t.row(cells);
        }
        writeln!(out, "{}", t.render())?;
    }

    if want(6) {
        writeln!(out, "### Table 6 — index size [MB]\n")?;
        let mut t = Table::new([
            "dataset",
            "SNIF",
            "DOLPHIN",
            "VP-tree",
            "NSW",
            "KGraph",
            "MRPG-basic",
            "MRPG",
        ]);
        for m in &measurements {
            let mut cells = vec![m.family.to_string()];
            cells.extend(m.index_mb.iter().map(|&v| format!("{v:.2}")));
            t.row(cells);
        }
        writeln!(out, "{}", t.render())?;
        writeln!(
            out,
            "(paper, same columns, at full cardinality: e.g. glove {:?})\n",
            paper::TABLE6_INDEX_MB[1]
        )?;
    }

    if want(7) {
        writeln!(out, "### Table 7 — false positives after filtering\n")?;
        let mut t = Table::new([
            "dataset",
            "NSW",
            "KGraph",
            "MRPG-basic",
            "MRPG",
            "paper (NSW/KG/basic/MRPG)",
        ]);
        for m in &measurements {
            let p = paper::TABLE7_FALSE_POSITIVES[paper::family_index(m.family)];
            let fmt = |v: Option<u64>| v.map_or("NA".into(), |x| x.to_string());
            t.row([
                m.family.to_string(),
                m.false_positives[0].to_string(),
                m.false_positives[1].to_string(),
                m.false_positives[2].to_string(),
                m.false_positives[3].to_string(),
                format!("{}/{}/{}/{}", fmt(p[0]), fmt(p[1]), fmt(p[2]), fmt(p[3])),
            ]);
        }
        writeln!(out, "{}", t.render())?;
    }

    if want(8) {
        writeln!(out, "### Table 8 — decomposed detection time (glove)\n")?;
        if let Some(m) = measurements.iter().find(|m| m.family == Family::Glove) {
            let mut t = Table::new(["phase", "NSW", "KGraph", "MRPG-basic", "MRPG"]);
            t.row([
                "Filtering".to_string(),
                secs(m.phase_secs[0].0),
                secs(m.phase_secs[1].0),
                secs(m.phase_secs[2].0),
                secs(m.phase_secs[3].0),
            ]);
            t.row([
                "Verification".to_string(),
                secs(m.phase_secs[0].1),
                secs(m.phase_secs[1].1),
                secs(m.phase_secs[2].1),
                secs(m.phase_secs[3].1),
            ]);
            writeln!(out, "{}", t.render())?;
            writeln!(
                out,
                "(paper: filtering {:?}, verification {:?})\n",
                paper::TABLE8_GLOVE_DECOMPOSED[0],
                paper::TABLE8_GLOVE_DECOMPOSED[1]
            )?;
        } else {
            writeln!(out, "(glove not in --families; skipped)\n")?;
        }
    }

    if cfg.trace_summary {
        writeln!(
            out,
            "### Trace summary — filter/verify phase breakdown (`--trace-summary`)\n"
        )?;
        let mut t = Table::new(["dataset", "graph", "filter", "verify", "filter share"]);
        for m in &measurements {
            for (i, graph) in ["NSW", "KGraph", "MRPG-basic", "MRPG"].iter().enumerate() {
                let (filter, verify) = m.phase_secs[i];
                t.row([
                    m.family.to_string(),
                    (*graph).to_string(),
                    secs(filter),
                    secs(verify),
                    format!("{:.0}%", 100.0 * filter / (filter + verify).max(1e-12)),
                ]);
            }
        }
        writeln!(out, "{}", t.render())?;
    }

    if cfg.cost {
        cost_grid(cfg, out, json)?;
    }
    Ok(())
}

/// The `--cost` grid: Algorithm 1's work accounting per index spec. For
/// every family and every wire-spelled index (`mrpg:{K}`, `nsw:{K}`,
/// `kgraph:{K}`, `vptree`, `none`, where `K` is the family's graph
/// degree, so the three graphs compare like with like), one
/// calibrated query reports its distance evaluations by phase, graph
/// hops and pruning power `1 − evals ⁄ n·(n−1)` — the paper's headline
/// quantity, now measured instead of inferred from wall time. The
/// engine build is counted too (`build_dist_evals`: the index build plus
/// the graph's edge lengths), so a costlier build is gated like a
/// costlier query. A micro-benchmark of the counting hook itself rides
/// along, since the accounting cannot be compiled out: the documented
/// budget is <2% (the phase-span hooks, the precedent, measured ~1.7%).
fn cost_grid(cfg: &Config, out: &mut dyn Write, json: &mut Option<JsonReport>) -> io::Result<()> {
    writeln!(out, "### Query-cost accounting (`--cost`)\n")?;
    for &family in &cfg.families {
        let w = Workload::prepare(family, cfg);
        let k = w.degree;
        let specs = [
            format!("mrpg:{k}"),
            format!("nsw:{k}"),
            format!("kgraph:{k}"),
            "vptree".to_string(),
            "none".to_string(),
        ];
        writeln!(out, "* workload {w}")?;
        out.flush()?;
        let query = workload_query(&w, cfg.threads);
        let mut t = Table::new([
            "index",
            "build evals",
            "filter evals",
            "verify evals",
            "total",
            "hops",
            "pruning power",
        ]);
        let mut reference: Option<Vec<u32>> = None;
        for spec in &specs {
            let index: IndexSpec = spec.parse().expect("cost-grid specs are valid");
            let counted = DistanceCounter::new(&w.data);
            let engine = Engine::builder(&counted)
                .index(index)
                .verify(w.verify_strategy())
                .threads(cfg.threads)
                .seed(cfg.seed)
                .build()
                .expect("cost-grid engines build for any workload");
            let build_evals = counted.calls();
            let report = engine.query(query).expect("cost-grid query");
            match &reference {
                None => reference = Some(report.outliers.clone()),
                Some(r0) => assert_eq!(r0, &report.outliers, "{family}: {spec} mismatch"),
            }
            let cost = report.cost;
            let power = cost.pruning_power(w.n);
            t.row([
                spec.clone(),
                build_evals.to_string(),
                cost.filter_dist_evals.to_string(),
                cost.verify_dist_evals.to_string(),
                cost.total_dist_evals().to_string(),
                cost.hops.to_string(),
                format!("{power:.4}"),
            ]);
            if let Some(json) = json {
                json.row([
                    ("experiment", JsonVal::from("tables_cost")),
                    ("dataset", JsonVal::from(family.to_string())),
                    ("n", JsonVal::from(w.n)),
                    ("index", JsonVal::from(spec.as_str())),
                    (
                        "dist_evals",
                        JsonVal::from(cost.total_dist_evals() as usize),
                    ),
                    (
                        "filter_dist_evals",
                        JsonVal::from(cost.filter_dist_evals as usize),
                    ),
                    (
                        "verify_dist_evals",
                        JsonVal::from(cost.verify_dist_evals as usize),
                    ),
                    ("hops", JsonVal::from(cost.hops as usize)),
                    ("pruning_power", JsonVal::from(power)),
                    ("build_dist_evals", JsonVal::from(build_evals as usize)),
                ]);
            }
        }
        writeln!(out, "{}", t.render())?;
        out.flush()?;
    }
    counting_overhead(cfg, out, json)
}

/// Prices the counting hook itself: the same distance evaluations with
/// and without the [`DistanceCounter`] wrapper (one relaxed `fetch_add`
/// per call). The accounting is always on in the engines, so this
/// micro-benchmark is the only way to see its cost; the reading is
/// informational, never gated (CI timer noise), and documented against
/// the <2% budget.
fn counting_overhead(
    cfg: &Config,
    out: &mut dyn Write,
    json: &mut Option<JsonReport>,
) -> io::Result<()> {
    let family = *cfg.families.first().unwrap_or(&Family::Glove);
    let w = Workload::prepare(family, cfg);
    let pairs: u64 = 2_000_000;
    let time = |data: &dyn Dataset| {
        let n = data.len() as u64;
        let started = std::time::Instant::now();
        let mut acc = 0.0f64;
        for p in 0..pairs {
            let i = (p.wrapping_mul(0x9e3779b9)) % n;
            let j = (p.wrapping_mul(0x85ebca6b).wrapping_add(1)) % n;
            if i != j {
                acc += data.dist(i as usize, j as usize);
            }
        }
        // The sum leaves through a volatile-style sink so the loop cannot
        // be optimized away.
        assert!(acc.is_finite());
        started.elapsed().as_secs_f64()
    };
    // Warm both paths once, then measure.
    let counted = DistanceCounter::new(&w.data);
    time(&w.data);
    time(&counted);
    let raw_secs = time(&w.data);
    let counted_secs = time(&counted);
    let overhead = counted_secs / raw_secs.max(1e-12) - 1.0;
    writeln!(
        out,
        "Counting-hook overhead ({family}, {pairs} distance evaluations): raw {:.3}s, \
         counted {:.3}s — {:+.2}% (budget <2%; informational, CI timers are noisy)\n",
        raw_secs,
        counted_secs,
        overhead * 100.0
    )?;
    if let Some(json) = json {
        json.row([
            ("experiment", JsonVal::from("tables_cost_overhead")),
            ("dataset", JsonVal::from(family.to_string())),
            ("pairs", JsonVal::from(pairs as usize)),
            ("raw_secs", JsonVal::from(raw_secs)),
            ("counted_secs", JsonVal::from(counted_secs)),
            ("counting_overhead", JsonVal::from(overhead)),
        ]);
    }
    Ok(())
}

fn fig6_7(cfg: &Config, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "## Figures 6 & 7 — scalability in n (sampling rate)\n")?;
    for &family in &cfg.families {
        let w = Workload::prepare(family, cfg);
        writeln!(out, "### {w}\n")?;
        let mut build_t = Table::new(["rate", "n", "NSW", "KGraph", "MRPG-basic", "MRPG"]);
        let mut run_t = Table::new(["rate", "n", "NSW", "KGraph", "MRPG-basic", "MRPG"]);
        for rate in paper::SAMPLING_RATES {
            let ids = w.sample_ids(rate, cfg.seed ^ 0x5a);
            let data = Subset::new(&w.data, ids);
            let built = build_all_graphs(&data, &w, cfg.build_threads, cfg.seed);
            let query = workload_query(&w, cfg.threads);
            let mut build_cells = vec![format!("{rate:.1}"), data.len().to_string()];
            let mut run_cells = vec![format!("{rate:.1}"), data.len().to_string()];
            let mut reference: Option<Vec<u32>> = None;
            for b in built.graphs {
                build_cells.push(secs(b.build_secs));
                let engine = graph_engine(&data, b.graph, &w, cfg.threads, cfg.seed);
                let report = engine.query(query).expect("graph query");
                run_cells.push(secs(report.total_secs()));
                match &reference {
                    None => reference = Some(report.outliers),
                    Some(r0) => assert_eq!(r0, &report.outliers, "{family} rate {rate}"),
                }
            }
            build_t.row(build_cells);
            run_t.row(run_cells);
        }
        writeln!(
            out,
            "Figure 6 (pre-processing time):\n\n{}",
            build_t.render()
        )?;
        writeln!(out, "Figure 7 (running time):\n\n{}", run_t.render())?;
        out.flush()?;
    }
    Ok(())
}

fn fig8_9(cfg: &Config, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "## Figures 8 & 9 — sensitivity to k and r\n")?;
    for &family in &cfg.families {
        let w = Workload::prepare(family, cfg);
        writeln!(out, "### {w}\n")?;
        let built = build_all_graphs(&w.data, &w, cfg.build_threads, cfg.seed);
        // Build-once/query-many: one engine per graph serves both grids.
        let engines: Vec<Engine<&_>> = built
            .graphs
            .into_iter()
            .map(|b| graph_engine(&w.data, b.graph, &w, cfg.threads, cfg.seed))
            .collect();
        // One untimed warm-up query per engine: the verification engine is
        // built lazily on first use and cached, so without this the first
        // grid row alone would pay it and the rows would not compare.
        for engine in &engines {
            let _ = engine
                .query(workload_query(&w, cfg.threads))
                .expect("warm-up query");
        }

        let mut k_t = Table::new(["k", "NSW", "KGraph", "MRPG-basic", "MRPG"]);
        for k in paper::k_grid(family) {
            let k = k.min(w.n - 1);
            let query = Query::new(w.r, k).expect("valid").with_threads(cfg.threads);
            let mut cells = vec![k.to_string()];
            let mut reference: Option<Vec<u32>> = None;
            for engine in &engines {
                let report = engine.query(query).expect("graph query");
                cells.push(secs(report.total_secs()));
                match &reference {
                    None => reference = Some(report.outliers),
                    Some(r0) => assert_eq!(r0, &report.outliers, "{family} k={k}"),
                }
            }
            k_t.row(cells);
        }
        writeln!(out, "Figure 8 (vary k, r={:.4}):\n\n{}", w.r, k_t.render())?;

        let mut r_t = Table::new(["r", "NSW", "KGraph", "MRPG-basic", "MRPG"]);
        for mult in paper::R_GRID_MULTIPLIERS {
            let r = w.r * mult;
            let query = Query::new(r, w.k).expect("valid").with_threads(cfg.threads);
            let mut cells = vec![format!("{r:.4}")];
            let mut reference: Option<Vec<u32>> = None;
            for engine in &engines {
                let report = engine.query(query).expect("graph query");
                cells.push(secs(report.total_secs()));
                match &reference {
                    None => reference = Some(report.outliers),
                    Some(r0) => assert_eq!(r0, &report.outliers, "{family} r={r}"),
                }
            }
            r_t.row(cells);
        }
        writeln!(out, "Figure 9 (vary r, k={}):\n\n{}", w.k, r_t.render())?;
        out.flush()?;
    }
    Ok(())
}

fn fig10(cfg: &Config, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "## Figure 10 — thread scalability\n")?;
    let hw = std::thread::available_parallelism().map_or(2, |p| p.get());
    writeln!(
        out,
        "(machine has {hw} hardware threads; counts beyond that are oversubscribed)\n"
    )?;
    for family in paper::FIG10_FAMILIES {
        if !cfg.families.contains(&family) {
            continue;
        }
        let w = Workload::prepare(family, cfg);
        writeln!(out, "### {w}\n")?;
        let built = build_all_graphs(&w.data, &w, cfg.build_threads, cfg.seed);
        let engines: Vec<Engine<&_>> = built
            .graphs
            .into_iter()
            .map(|b| graph_engine(&w.data, b.graph, &w, cfg.threads, cfg.seed))
            .collect();
        // Untimed warm-up so the cached verification engine is built
        // before the grid — otherwise only the first thread count pays it.
        for engine in &engines {
            let _ = engine
                .query(workload_query(&w, cfg.threads))
                .expect("warm-up query");
        }
        let mut t = Table::new(["threads", "NSW", "KGraph", "MRPG-basic", "MRPG"]);
        for threads in paper::THREAD_GRID {
            // The per-query override scales one engine across the grid.
            let query = workload_query(&w, threads);
            let mut cells = vec![threads.to_string()];
            for engine in &engines {
                let report = engine.query(query).expect("graph query");
                cells.push(secs(report.total_secs()));
            }
            t.row(cells);
        }
        writeln!(out, "{}", t.render())?;
        out.flush()?;
    }
    Ok(())
}

fn ablation(cfg: &Config, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "## §6.2 ablation — Connect-SubGraphs / Remove-Detours (pamap2)\n"
    )?;
    let family = Family::Pamap2;
    let w = Workload::prepare(family, cfg);
    writeln!(out, "workload {w}\n")?;
    let params = DodParams::new(w.r, w.k).with_threads(cfg.threads);
    let truth = nested_loop::detect(&w.data, &params, cfg.seed).outliers;

    let mut t = Table::new(["variant", "false positives", "run time", "paper f (pamap2)"]);
    let variants: [(&str, bool, bool, usize); 4] = [
        ("MRPG (full)", true, true, 0),
        ("without Connect-SubGraphs", false, true, 1),
        ("without Remove-Detours", true, false, 2),
        ("without both", false, false, 3),
    ];
    for (name, connect, detours, paper_idx) in variants {
        let mut p = mrpg_params(&w, w.n, cfg.build_threads, cfg.seed, true);
        p.enable_connect = connect;
        p.enable_detours = detours;
        let (g, _) = dod_graph::mrpg::build(&w.data, &p);
        let engine = graph_engine(&w.data, g, &w, cfg.threads, cfg.seed);
        let report = engine
            .query(workload_query(&w, cfg.threads))
            .expect("graph query");
        assert_eq!(report.outliers, truth, "{name} lost exactness");
        t.row([
            name.to_string(),
            report.false_positives.to_string(),
            secs(report.total_secs()),
            paper::ABLATION_PAMAP2_FALSE_POSITIVES[paper_idx]
                .1
                .to_string(),
        ]);
    }
    writeln!(out, "{}", t.render())?;
    Ok(())
}

fn hnsw_claim(cfg: &Config, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "## Extension — §3's HNSW claim\n\n\
         The paper excludes HNSW because DOD queries start at the query\n\
         object itself, so the hierarchy's entry-point routing is dead\n\
         weight. We verify: Algorithm 1 on HNSW's bottom layer should match\n\
         plain NSW detection while paying extra build time and memory for\n\
         the upper layers.\n"
    )?;
    let mut t = Table::new([
        "dataset",
        "NSW build",
        "HNSW build",
        "NSW MB",
        "HNSW MB",
        "NSW detect",
        "HNSW detect",
    ]);
    for &family in &cfg.families {
        let w = Workload::prepare(family, cfg);
        let query = workload_query(&w, cfg.threads);

        let t0 = std::time::Instant::now();
        let nsw = dod_graph::mrpg::build_nsw(&w.data, w.degree, cfg.seed);
        let nsw_build = t0.elapsed().as_secs_f64();
        let t0 = std::time::Instant::now();
        let hnsw = dod_graph::hnsw::build(
            &w.data,
            &dod_graph::hnsw::HnswParams::matching_kgraph(w.degree),
        );
        let hnsw_build = t0.elapsed().as_secs_f64();
        let hnsw_bytes = hnsw.size_bytes();
        let hnsw_flat = hnsw.bottom_layer_graph();

        let nsw_engine = graph_engine(&w.data, nsw, &w, cfg.threads, cfg.seed);
        let hnsw_engine = graph_engine(&w.data, hnsw_flat, &w, cfg.threads, cfg.seed);
        let nsw_report = nsw_engine.query(query).expect("graph query");
        let hnsw_report = hnsw_engine.query(query).expect("graph query");
        assert_eq!(
            nsw_report.outliers, hnsw_report.outliers,
            "{family}: exactness must hold on both graphs"
        );
        t.row([
            family.to_string(),
            secs(nsw_build),
            secs(hnsw_build),
            format!("{:.2}", nsw_engine.index_bytes() as f64 / 1048576.0),
            format!("{:.2}", hnsw_bytes as f64 / 1048576.0),
            secs(nsw_report.total_secs()),
            secs(hnsw_report.total_secs()),
        ]);
    }
    writeln!(out, "{}", t.render())?;
    writeln!(
        out,
        "Reading: HNSW detection should sit in NSW's ballpark (both are\n\
         flat small-world graphs at layer 0) while its index is strictly\n\
         larger — the hierarchy buys nothing for DOD, as §3 argues.\n"
    )?;
    Ok(())
}

fn stream_experiment(
    cfg: &Config,
    out: &mut dyn Write,
    json: &mut Option<JsonReport>,
) -> io::Result<()> {
    writeln!(
        out,
        "## Extension — sliding-window streaming engine\n\n\
         A drift/burst/churn stream is fed point-by-point; after every\n\
         slide the engine answers \"current outliers\". Incremental\n\
         maintenance is compared against re-running the batch nested\n\
         loop over the window contents per slide. Both agree exactly on\n\
         every slide (asserted).\n"
    )?;
    let dim = 8;
    let n = ((4000.0 * cfg.scale) as usize).max(256);
    let w = (n / 4).clamp(64, 1024);
    let k = 8;
    let scenario = StreamScenario::new(dim);
    let points = scenario.generate(n, cfg.seed);

    // Calibrate r on a window-sized prefix so ~1% of a full window is
    // outlying.
    let prefix = VectorSet::from_rows(&points[..w], L2);
    let r = calibrate_r(&prefix, k, 0.01, 400.min(w), cfg.seed ^ 0x57ea);
    writeln!(out, "workload: n={n}, W={w}, dim={dim}, r={r:.4}, k={k}\n")?;

    // Per-slide batch baseline: re-detect over the window with the
    // randomized nested loop (positions mapped back to seqs).
    let t0 = std::time::Instant::now();
    let mut baseline = BatchSlideBaseline::new(w, DodParams::new(r, k), cfg.seed);
    let batch_outliers: Vec<Vec<u64>> = points.iter().map(|p| baseline.slide(p)).collect();
    let batch_secs = t0.elapsed().as_secs_f64();

    let mut t = Table::new([
        "engine",
        "total",
        "per slide",
        "speedup vs batch",
        "safe promotions",
    ]);
    t.row([
        "batch nested-loop".to_string(),
        secs(batch_secs),
        secs(batch_secs / n as f64),
        "1.0x".to_string(),
        "-".to_string(),
    ]);

    // One emitter for every engine's JSON row, the batch baseline included,
    // so the schema cannot drift between them. A detector that counts its
    // distance evaluations adds them per slide.
    let emit_row = |json: &mut Option<JsonReport>, engine: &str, total: f64, evals: Option<u64>| {
        if let Some(json) = json {
            let mut row = vec![
                ("experiment", JsonVal::from("stream")),
                ("engine", JsonVal::from(engine)),
                ("n", JsonVal::from(n)),
                ("window", JsonVal::from(w)),
                ("r", JsonVal::from(r)),
                ("k", JsonVal::from(k)),
                ("total_secs", JsonVal::from(total)),
                ("slide_us", JsonVal::from(total / n as f64 * 1e6)),
                ("speedup_vs_batch", JsonVal::from(batch_secs / total)),
            ];
            row.extend(evals.map(|e| ("dist_evals", JsonVal::from(e as f64 / n as f64))));
            json.row(row);
        }
    };
    emit_row(json, "batch nested-loop", batch_secs, None);

    let name = "stream exhaustive";
    let space = VectorSpace::new(L2, dim);
    let query = Query::new(r, k).expect("calibrated stream query is valid");
    let mut det =
        StreamDetector::open(space, query, WindowSpec::Count(w)).expect("valid stream parameters");
    let t0 = std::time::Instant::now();
    let mut disagreements = 0usize;
    for (i, p) in points.iter().enumerate() {
        det.insert(p.clone());
        let got = det.outliers();
        if got != batch_outliers[i] {
            disagreements += 1;
        }
    }
    let total = t0.elapsed().as_secs_f64();
    assert_eq!(disagreements, 0, "{name} disagreed with batch re-detection");
    let stats = det.stats();
    t.row([
        name.to_string(),
        secs(total),
        secs(total / n as f64),
        format!("{:.1}x", batch_secs / total),
        stats.safe_promotions.to_string(),
    ]);
    emit_row(json, name, total, Some(stats.insert_dist_evals));
    writeln!(out, "{}", t.render())?;
    writeln!(
        out,
        "{name}: {:.1}x cheaper per slide than batch re-detection\n",
        batch_secs / total
    )?;

    if cfg.trace_summary {
        writeln!(
            out,
            "### Trace summary — per-slide phase breakdown (`--trace-summary`)\n"
        )?;
        let mut t = Table::new(["engine", "insert", "expiry", "insert/slide", "insert share"]);
        let insert = stats.insert_nanos as f64 / 1e9;
        let expiry = stats.expiry_nanos as f64 / 1e9;
        t.row([
            name.to_string(),
            secs(insert),
            secs(expiry),
            secs(insert / n as f64),
            format!("{:.0}%", 100.0 * insert / total.max(1e-12)),
        ]);
        writeln!(out, "{}", t.render())?;
    }

    if !cfg.shards.is_empty() {
        shard_grid(cfg, out, json, &scenario)?;
    }
    if !cfg.durability.is_empty() {
        durability_grid(cfg, out, json, &scenario)?;
    }
    if cfg.health {
        health_grid(cfg, out, json, &scenario)?;
    }
    Ok(())
}

/// The reference answer of the sharded grids: one synchronous L2 detector
/// with a count window of `w` over the whole stream.
fn single_window_outliers(points: &[Vec<f32>], query: Query, w: usize) -> Vec<u64> {
    let space = VectorSpace::new(L2, points[0].len());
    let mut single =
        StreamDetector::open(space, query, WindowSpec::Count(w)).expect("valid stream parameters");
    for p in points {
        single.insert(p.clone());
    }
    single.outliers()
}

/// The `--health` grid: how balanced a sharded window stays (owned-point
/// skew, slide-time skew, ghost rates) — the gauges the server exports.
/// Its answer is asserted against a single `StreamDetector` consuming the
/// same stream, as the `--shards` grid's is.
fn health_grid(
    cfg: &Config,
    out: &mut dyn Write,
    json: &mut Option<JsonReport>,
    scenario: &StreamScenario,
) -> io::Result<()> {
    let dim = scenario.dim;
    let n = ((12000.0 * cfg.scale) as usize).max(1024);
    let w = (n / 8).clamp(128, 1024);
    let k = 8;
    // The shard grid's cluster geometry: many clusters, r tied to the
    // cluster scale. A churny scenario with a calibrated r would be
    // degenerate here — r would dwarf the pivot spacing, so every point
    // would route to one shard and skew would pin at S, measuring
    // nothing.
    let shards = 4;
    let balance_scenario = StreamScenario {
        dim,
        clusters: 16,
        spread: 14.0,
        churn_every: 0,
        ..scenario.clone()
    };
    let balance_points = balance_scenario.generate(n, cfg.seed ^ 0xba1a);
    let balance_r = 1.1 * balance_scenario.cluster_std * (2.0 * dim as f64).sqrt();
    let balance_query = Query::new(balance_r, k).expect("geometry-fixed query is valid");
    let want = single_window_outliers(&balance_points, balance_query, w);
    let spec = ShardSpec::new(shards).with_warmup((w / 4).max(64));
    let mut det = ShardedStreamDetector::open(
        VectorSpace::new(L2, dim),
        balance_query,
        WindowSpec::Count(w),
        Backend::Exhaustive,
        spec,
    )
    .expect("valid shard spec");
    let t0 = std::time::Instant::now();
    for p in &balance_points {
        det.insert(p.clone());
    }
    let total = t0.elapsed().as_secs_f64();
    assert_eq!(det.outliers(), want, "sharded --health window diverged");
    let report = det.health();
    let evals_per_slide = report.stats().insert_dist_evals as f64 / n as f64;
    let ghost_rate_max = report.ghost_rates().into_iter().fold(0.0f64, f64::max);
    writeln!(
        out,
        "### Shard balance (`--health`): n={n}, W={w}, dim={dim}, S={shards}, r={balance_r:.4}, k={k}\n"
    )?;
    let mut t = Table::new([
        "total",
        "per slide",
        "outliers",
        "owned skew",
        "slide skew",
        "max ghost rate",
    ]);
    t.row([
        secs(total),
        secs(total / n as f64),
        want.len().to_string(),
        format!("{:.2}", report.owned_skew()),
        format!("{:.2}", report.slide_skew()),
        format!("{:.3}", ghost_rate_max),
    ]);
    writeln!(out, "{}", t.render())?;
    writeln!(
        out,
        "(outliers asserted equal to the single-window detector; skew = \
         max/mean across shards, 1.0 = perfectly balanced; these are the \
         `dod_shard_balance_*` gauges `/metrics` exports)\n"
    )?;
    if let Some(json) = json {
        json.row([
            ("experiment", JsonVal::from("stream_health_balance")),
            ("shards", JsonVal::from(shards)),
            ("n", JsonVal::from(n)),
            ("window", JsonVal::from(w)),
            ("r", JsonVal::from(balance_r)),
            ("k", JsonVal::from(k)),
            ("total_secs", JsonVal::from(total)),
            ("slide_us", JsonVal::from(total / n as f64 * 1e6)),
            ("dist_evals", JsonVal::from(evals_per_slide)),
            ("owned_skew", JsonVal::from(report.owned_skew())),
            ("slide_skew", JsonVal::from(report.slide_skew())),
            ("ghost_rate_max", JsonVal::from(ghost_rate_max)),
            (
                "ghosts",
                JsonVal::from(report.stats().ghost_inserts as usize),
            ),
        ]);
    }
    Ok(())
}

/// The `--shards` grid: the same scenario fed through the sharded async
/// pipeline at each shard count, reporting slide throughput. Exactness is
/// asserted against a single `StreamDetector` consuming the same stream;
/// scaling comes from pivot partitioning (each shard's window is ~`W/S`,
/// so discovery work shrinks) plus the per-shard pump threads.
fn shard_grid(
    cfg: &Config,
    out: &mut dyn Write,
    json: &mut Option<JsonReport>,
    scenario: &StreamScenario,
) -> io::Result<()> {
    // Heavier per-slide work than the single-window rows (window of
    // n/2): sharding is the tool for windows one core cannot slide fast
    // enough, so that is the regime the grid measures. Dimensionality
    // stays moderate on purpose — metric partitioning (like the metric
    // DBSCAN it borrows from) pays off at low intrinsic dimension;
    // concentration of measure in high dimension puts every point within
    // the ±2r ghost band of every pivot.
    let dim = 8;
    // 4× the single-window rows' stream and a window of n/2: sharding is
    // the tool for windows one core cannot slide fast enough, so the
    // grid measures a window heavy enough that per-slide distance work
    // dominates per-point constants.
    let n = ((16000.0 * cfg.scale) as usize).max(512);
    let w = (n / 2).clamp(64, 4096);
    let k = 8;
    // More clusters than shards: each shard owns several, so per-shard
    // windows shrink ~S× in *both* costs — scan length and neighbor
    // density (per-insert state updates scale with cluster occupancy,
    // which sharding only dilutes when clusters outnumber shards).
    // Churn is disabled here (it stays on in the exactness proptests):
    // a teleported cluster lands far from every warm-up pivot and
    // multi-ghosts for the rest of the stream — the known re-pivoting
    // limitation (see ROADMAP) — which would measure partition staleness,
    // not steady-state sharding throughput.
    let scenario = StreamScenario {
        dim,
        clusters: 16,
        spread: 14.0,
        churn_every: 0,
        ..scenario.clone()
    };
    let points = scenario.generate(n, cfg.seed ^ 0x5aad);
    // r is fixed from the scenario's geometry rather than calibrated:
    // same-cluster pairs sit at ≈ cluster_std·√(2·dim), so 1.1× that
    // covers a point's cluster-mates while staying far below the
    // inter-cluster gaps — quantile calibration is cliff-prone here (one
    // tail point in the sample and r jumps to the tail scale, ghosting
    // every point into every shard).
    let r = 1.1 * scenario.cluster_std * (2.0 * dim as f64).sqrt();
    writeln!(
        out,
        "### Sharded pipeline (`--shards`): n={n}, W={w}, dim={dim}, r={r:.4}, k={k}\n"
    )?;

    let query = Query::new(r, k).expect("calibrated query is valid");
    let want = single_window_outliers(&points, query, w);

    // Two rows per shard count: the synchronous sharded detector
    // isolates the partitioning win (each shard's discovery scans ~W/S
    // residents, so total work drops ~S× even on one core); the async
    // pipeline adds the per-shard pump threads and bounded-queue
    // decoupling, which additionally overlaps slides when cores exist.
    let mut t = Table::new([
        "shards",
        "mode",
        "total",
        "per slide",
        "slides/sec",
        "speedup vs S=1",
        "ghosts",
    ]);
    let mut baselines: [Option<f64>; 2] = [None, None];
    for &shards in &cfg.shards {
        let open = || {
            ShardedStreamDetector::open(
                VectorSpace::new(L2, dim),
                query,
                WindowSpec::Count(w),
                Backend::Exhaustive,
                ShardSpec::new(shards).with_warmup((w / 4).max(64)),
            )
            .expect("valid shard spec")
        };
        for (mode_idx, mode) in ["sync", "pipeline"].into_iter().enumerate() {
            let (total, got, stats) = if mode == "sync" {
                let mut det = open();
                let t0 = std::time::Instant::now();
                for p in &points {
                    det.insert(p.clone());
                }
                let got = det.outliers();
                (t0.elapsed().as_secs_f64(), got, det.stats())
            } else {
                let pipeline = open().into_pipeline(1024);
                let t0 = std::time::Instant::now();
                // Chunked feeding: one queue handoff per 128 points, the
                // high-throughput producer pattern `insert_many` is for.
                for chunk in points.chunks(128) {
                    pipeline
                        .insert_many(chunk.to_vec())
                        .expect("pipeline alive");
                }
                // The report is the drain barrier: it reflects every insert.
                let got = pipeline.outliers().expect("report");
                let total = t0.elapsed().as_secs_f64();
                let stats = pipeline.health().expect("health").stats();
                drop(pipeline.finish().expect("finish"));
                (total, got, stats)
            };
            assert_eq!(got, want, "sharded {mode} diverged at S={shards}");
            let slides_per_sec = n as f64 / total;
            let evals_per_slide = stats.insert_dist_evals as f64 / n as f64;
            if shards == 1 {
                baselines[mode_idx] = Some(total);
            }
            let speedup = baselines[mode_idx]
                .map_or_else(|| "-".to_string(), |b| format!("{:.1}x", b / total));
            t.row([
                shards.to_string(),
                mode.to_string(),
                secs(total),
                secs(total / n as f64),
                format!("{slides_per_sec:.0}"),
                speedup,
                stats.ghost_inserts.to_string(),
            ]);
            if let Some(json) = json {
                json.row([
                    ("experiment", JsonVal::from("stream_sharded")),
                    ("engine", JsonVal::from(format!("sharded {mode}"))),
                    ("shards", JsonVal::from(shards)),
                    ("n", JsonVal::from(n)),
                    ("window", JsonVal::from(w)),
                    ("r", JsonVal::from(r)),
                    ("k", JsonVal::from(k)),
                    ("ghosts", JsonVal::from(stats.ghost_inserts as usize)),
                    ("total_secs", JsonVal::from(total)),
                    ("slide_us", JsonVal::from(total / n as f64 * 1e6)),
                    ("slides_per_sec", JsonVal::from(slides_per_sec)),
                    ("dist_evals", JsonVal::from(evals_per_slide)),
                ]);
            }
        }
    }
    writeln!(out, "{}", t.render())?;
    writeln!(
        out,
        "(answers asserted equal to the single-window detector at every shard \
         count; \"sync\" isolates the ~W/S work reduction, \"pipeline\" adds \
         the per-shard pump threads)\n"
    )?;
    Ok(())
}

/// The `--durability` grid: the same stream fed through a WAL-backed
/// session at each sync policy, against a no-WAL baseline (`none`). What
/// the grid prices is the write amplification of durability — framing +
/// fsync per policy — not the detection itself, which is identical (and
/// asserted identical) in every row.
fn durability_grid(
    cfg: &Config,
    out: &mut dyn Write,
    json: &mut Option<JsonReport>,
    scenario: &StreamScenario,
) -> io::Result<()> {
    // Same cluster geometry as the shard grid, sized down: fsync cost per
    // op is flat, so durability overhead shows at any n — no need for a
    // window heavy enough to make distance work dominate.
    let dim = 8;
    let n = ((8000.0 * cfg.scale) as usize).max(512);
    let w = (n / 4).clamp(64, 2048);
    let k = 8;
    let scenario = StreamScenario {
        dim,
        clusters: 16,
        spread: 14.0,
        churn_every: 0,
        ..scenario.clone()
    };
    let points = scenario.generate(n, cfg.seed ^ 0xd07a);
    let r = 1.1 * scenario.cluster_std * (2.0 * dim as f64).sqrt();
    let query = Query::new(r, k).expect("calibrated query is valid");
    let spec = ShardSpec::new(2).with_warmup((w / 4).max(64));
    writeln!(
        out,
        "### Durability overhead (`--durability`): n={n}, W={w}, dim={dim}, \
         r={r:.4}, k={k}, S=2\n"
    )?;

    // Reference: the no-WAL sharded detector over the same stream. Its
    // answer doubles as the exactness oracle for every durable row.
    let mut plain = ShardedStreamDetector::open(
        VectorSpace::new(L2, dim),
        query,
        WindowSpec::Count(w),
        Backend::Exhaustive,
        spec,
    )
    .expect("valid shard spec");
    let t0 = std::time::Instant::now();
    for p in &points {
        plain.insert(p.clone());
    }
    let want = plain.outliers();
    let none_secs = t0.elapsed().as_secs_f64();

    let mut t = Table::new([
        "durability",
        "total",
        "per slide",
        "overhead vs none",
        "fsyncs",
        "wal bytes",
    ]);
    let scratch = std::env::temp_dir().join(format!("dod_bench_wal_{}", std::process::id()));
    for policy_name in &cfg.durability {
        let (total, fsyncs, wal_bytes) = if policy_name == "none" {
            (none_secs, None, None)
        } else {
            let sync = match policy_name.as_str() {
                "always" => SyncPolicy::Always,
                "never" => SyncPolicy::Never,
                // Config::from_args admits nothing else.
                _ => SyncPolicy::EveryN(32),
            };
            let dir = scratch.join(policy_name);
            let _ = std::fs::remove_dir_all(&dir);
            let (mut sess, stats) = DurableSession::open(
                VectorSpace::new(L2, dim),
                query,
                WindowSpec::Count(w),
                spec,
                &dir,
                DurabilityPolicy::with_sync(sync),
            )
            .expect("fresh durable session");
            assert!(stats.is_fresh(), "scratch dir held a stale WAL");
            let telemetry = sess.telemetry();
            let t0 = std::time::Instant::now();
            for p in &points {
                sess.insert(p.clone());
            }
            let got = sess.outliers();
            let total = t0.elapsed().as_secs_f64();
            assert_eq!(got, want, "durable session ({policy_name}) diverged");
            sess.close();
            let (fsyncs, bytes) = (telemetry.fsyncs.get(), telemetry.appended_bytes.get());
            let _ = std::fs::remove_dir_all(&dir);
            (total, Some(fsyncs), Some(bytes))
        };
        let overhead = total / none_secs;
        t.row([
            policy_name.clone(),
            secs(total),
            secs(total / n as f64),
            format!("{overhead:.2}x"),
            fsyncs.map_or_else(|| "-".to_string(), |f| f.to_string()),
            wal_bytes.map_or_else(|| "-".to_string(), |b| b.to_string()),
        ]);
        if let Some(json) = json {
            let mut row = vec![
                ("experiment", JsonVal::from("stream_wal")),
                ("engine", JsonVal::from(policy_name.as_str())),
                ("n", JsonVal::from(n)),
                ("window", JsonVal::from(w)),
                ("r", JsonVal::from(r)),
                ("k", JsonVal::from(k)),
                ("total_secs", JsonVal::from(total)),
                ("slide_us", JsonVal::from(total / n as f64 * 1e6)),
                ("overhead_vs_none", JsonVal::from(overhead)),
            ];
            if let Some(fsyncs) = fsyncs {
                row.push(("fsyncs", JsonVal::from(fsyncs as usize)));
            }
            if let Some(bytes) = wal_bytes {
                row.push(("wal_bytes", JsonVal::from(bytes as usize)));
            }
            json.row(row);
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    writeln!(out, "{}", t.render())?;
    writeln!(
        out,
        "(every durable row's outliers asserted equal to the no-WAL detector; \
         `always` fsyncs per batch — here per point, the worst case — \
         `everyN` amortizes over 32 ops, `never` leaves flushing to the OS)\n"
    )?;
    Ok(())
}
