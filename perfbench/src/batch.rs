//! The batch workloads: `Engine::query` over a generated family dataset,
//! one distinct `(r, k)` per op, single-threaded.

use crate::mix::{KnnProfile, QueryMix, SplitMix64};
use crate::spans::{kernel_ns, Tracer, KERNEL_OP};
use crate::stats::{self, mean, percentile, sorted};
use crate::{end_to_end, keep_measuring, Args, Outcome, Phases};
use dod_core::verify::ExactCounter;
use dod_core::{nested_loop, DodParams, Engine, IndexSpec, OutlierReport, Query, VerifyStrategy};
use dod_datasets::{AnyDataset, Family};
use dod_graph::{mrpg, MrpgParams};
use dod_metrics::{Dataset, DistanceCounter};
use dod_wire::JsonValue;
use std::time::Instant;

pub struct BatchWorkload {
    pub family: Family,
    pub n: usize,
    pub verify: VerifyStrategy,
}

/// `batch-deep`: the Deep family (96-d L2), MRPG with the paper's K = 25,
/// VP-tree verification. Filter and verify are both bound by the L2
/// kernel and no server or stream code runs, so this isolates `dod_core`'s
/// filter/verify over `dod_graph`'s index, the `dod_vptree` verifier and
/// the `dod_metrics` vector kernel. K = 25 gives K' = 100 ≥ every k in the
/// mix, so the §5.5 exact-K' shortcut is exercised. The verifier is the
/// VP-tree rather than the paper's linear scan for high-dimensional data
/// so that the tree stays measured; verification is a small share of an
/// op either way. n = 2400 (not the paper's millions) so that a run holds
/// ≥ 200 ops within its time.
pub const DEEP: BatchWorkload = BatchWorkload {
    family: Family::Deep,
    n: 2400,
    verify: VerifyStrategy::VpTree,
};

/// The dataset (and its k-NN profile) is the workload's fixed input, as
/// the paper's datasets are; `--seed` draws the op stream over it.
/// Per-seed datasets moved the op-cost distribution itself: a dataset's
/// cluster shapes decide at which k its k-NN distances jump, and with
/// them the cost of every op with a larger k.
const DATASET_SEED: u64 = 0;
/// The paper's graph degree K (§6).
const DEGREE: usize = 25;
/// Objects sampled per anchor of the k-NN profile.
const PROFILE_SAMPLES: usize = 400;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Ops per run re-answered by the nested loop, drawn from the first
/// [`stats::MIN_OPS`] so that every run has them.
const CHECKS: usize = 4;
/// Distance pairs timed for `metrics.dist_ns`.
const DIST_PAIRS: usize = 100_000;
/// Op id of set-up spans, which belong to no op.
const SETUP_OP: u64 = u64::MAX;

pub fn run(w: &BatchWorkload, args: &Args) -> Result<Outcome, String> {
    let mut phases = Phases::start();
    // The generator's work — data and radius calibration — stays out of
    // `setup_s`.
    let data = w.family.generate(w.n, DATASET_SEED).data;
    let k = w.family.default_k();
    let profile = KnnProfile::sample(&data, &QueryMix::anchors(k), PROFILE_SAMPLES, DATASET_SEED);
    let mix = QueryMix::new(profile, k, w.family.target_outlier_ratio(), args.seed);
    let checked = check_sample(args.seed);
    phases.mark("generate");
    if args.trace {
        traced(w, &data, mix, &checked, args, phases)
    } else {
        untraced(w, &data, mix, &checked, args, phases)
    }
}

/// Seeded op indices whose answers the nested loop re-derives.
fn check_sample(seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ 0x6368_6b73);
    let mut picked = Vec::with_capacity(CHECKS);
    while picked.len() < CHECKS {
        let i = rng.between(0, stats::MIN_OPS - 1);
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked
}

fn build_engine<'a>(
    w: &BatchWorkload,
    data: &'a AnyDataset,
) -> Result<Engine<&'a AnyDataset>, String> {
    Engine::builder(data)
        .index(IndexSpec::Mrpg(MrpgParams::new(DEGREE)))
        .verify(w.verify)
        .build()
        .map_err(|e| format!("engine build: {e}"))
}

/// Re-answers each sampled op with the nested loop, the ground truth every
/// index is pinned to, and counts the ops whose answer differs.
pub fn count_wrong<D: Dataset + ?Sized>(data: &D, answered: &[(Query, Vec<u32>)]) -> u64 {
    answered
        .iter()
        .filter(|(q, got)| {
            nested_loop::detect(data, &DodParams::new(q.r(), q.k()), 0).outliers != *got
        })
        .count() as u64
}

/// What a timed phase saw.
struct Measured {
    latencies_ms: Vec<f64>,
    wall_s: f64,
    failed: u64,
    /// The sampled ops and their answers, for the nested loop.
    to_check: Vec<(Query, Vec<u32>)>,
    /// Realized outlier ratio of each op.
    ratios: Vec<f64>,
}

/// The timed op loop shared by both modes. `op` answers op `i` and returns
/// its latency in ms plus the report, if any.
fn measure(
    mix: QueryMix,
    checked: &[usize],
    n: usize,
    seconds: f64,
    mut op: impl FnMut(usize, Query) -> (f64, Option<OutlierReport>),
) -> Measured {
    let mut m = Measured {
        latencies_ms: Vec::new(),
        wall_s: 0.0,
        failed: 0,
        to_check: Vec::new(),
        ratios: Vec::new(),
    };
    let start = Instant::now();
    for (i, q) in mix.enumerate() {
        if !keep_measuring(start.elapsed().as_secs_f64(), i, seconds) {
            break;
        }
        let (ms, report) = op(i, q);
        m.latencies_ms.push(ms);
        match report {
            Some(rep) => {
                m.ratios.push(rep.outliers.len() as f64 / n as f64);
                if checked.contains(&i) {
                    m.to_check.push((q, rep.outliers));
                }
            }
            None => m.failed += 1,
        }
    }
    m.wall_s = start.elapsed().as_secs_f64();
    m
}

fn untraced(
    w: &BatchWorkload,
    data: &AnyDataset,
    mix: QueryMix,
    checked: &[usize],
    args: &Args,
    mut phases: Phases,
) -> Result<Outcome, String> {
    let warmup = mix.default_query();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut engine = None;
    for _ in 0..SETUPS {
        drop(engine.take());
        let t = Instant::now();
        let e = build_engine(w, data)?;
        // The engine builds its verifier lazily on the first query with
        // candidates; set-up ends once the engine answers at full speed.
        e.query(warmup).map_err(|e| format!("warm-up query: {e}"))?;
        setups.push(t.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let engine = engine.expect("SETUPS > 0");
    phases.mark("setup");

    let m = measure(mix, checked, w.n, args.seconds, |_, q| {
        let t = Instant::now();
        let rep = engine.query(q).ok();
        (t.elapsed().as_secs_f64() * 1e3, rep)
    });
    phases.mark("measure");
    let wrong = count_wrong(data, &m.to_check);
    phases.mark("check");

    let mut out = Outcome {
        attempted: m.latencies_ms.len() as u64,
        failed: m.failed + wrong,
        ..Outcome::default()
    };
    end_to_end(&mut out, &setups, &m.latencies_ms, m.wall_s)?;
    out.diag = common_diag(w, &m, phases);
    out.diag.push(("setups_s", JsonValue::arr(setups)));
    Ok(out)
}

fn common_diag(w: &BatchWorkload, m: &Measured, phases: Phases) -> Vec<(&'static str, JsonValue)> {
    let ratios = sorted(&m.ratios);
    vec![
        ("n", JsonValue::from(w.n)),
        ("ops", JsonValue::from(m.latencies_ms.len())),
        ("checked_ops", JsonValue::from(m.to_check.len())),
        ("measure_wall_s", JsonValue::from(m.wall_s)),
        (
            "outlier_ratio_min_med_max",
            JsonValue::arr([
                ratios.first().copied().unwrap_or(0.0),
                percentile(&ratios, 50).unwrap_or(0.0),
                ratios.last().copied().unwrap_or(0.0),
            ]),
        ),
        ("phases_s", phases.to_json()),
    ]
}

/// Per-op report counters, summed over traced ops.
#[derive(Default)]
struct Costs {
    ops: u64,
    filter_evals: u64,
    verify_evals: u64,
    hops: u64,
    candidates: u64,
    false_positives: u64,
    decided: u64,
    pruning_power: f64,
}

fn traced(
    w: &BatchWorkload,
    data: &AnyDataset,
    mix: QueryMix,
    checked: &[usize],
    args: &Args,
    mut phases: Phases,
) -> Result<Outcome, String> {
    let warmup = mix.default_query();
    let mut tr = Tracer::new();
    let mut out = Outcome::default();

    // Set-up once, with the index build split into its crate-level calls.
    tr.enter("setup", SETUP_OP);
    tr.enter("graph.build", SETUP_OP);
    let counted = DistanceCounter::new(data);
    let (graph, breakdown) = mrpg::build(&counted, &MrpgParams::new(DEGREE));
    let build_ns = tr.exit();
    let index_bytes = graph.size_bytes();
    tr.enter("core.verifier_build", SETUP_OP);
    drop(ExactCounter::build(w.verify, data, 0));
    let verifier_ns = tr.exit();
    tr.enter("core.engine_build", SETUP_OP);
    let engine = Engine::builder(data)
        .prebuilt_graph(graph)
        .verify(w.verify)
        .build()
        .map_err(|e| format!("engine build: {e}"))?;
    tr.exit();
    tr.enter("core.query", SETUP_OP);
    engine
        .query(warmup)
        .map_err(|e| format!("warm-up query: {e}"))?;
    tr.exit();
    tr.exit();
    phases.mark("setup");

    // Every op is traced, and answered once more untraced — before the
    // traced call on odd ops, after it on even ones, so that cache warmth
    // favours neither — which gives the tracing overhead on equal work.
    let mut costs = Costs::default();
    let mut untraced_ms = Vec::new();
    let m = {
        let tr = &mut tr;
        let costs = &mut costs;
        let untraced_ms = &mut untraced_ms;
        measure(mix, checked, w.n, args.seconds, move |i, q| {
            let op = i as u64;
            let mut untraced = || {
                let t = Instant::now();
                std::hint::black_box(engine.query(q).ok());
                untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
            };
            if i % 2 == 1 {
                untraced();
            }
            tr.enter("op", op);
            tr.enter("core.query", op);
            let rep = engine.query(q).ok();
            if let Some(rep) = &rep {
                // The program times its own filter/verify phases; they
                // nest inside the query call.
                let s = tr.open_start();
                let f = (rep.filter_secs * 1e9) as u64;
                let v = (rep.verify_secs * 1e9) as u64;
                tr.record("core.filter", op, s, s + f);
                tr.record("core.verify", op, s + f, s + f + v);
                costs.ops += 1;
                costs.filter_evals += rep.cost.filter_dist_evals;
                costs.verify_evals += rep.cost.verify_dist_evals;
                costs.hops += rep.cost.hops;
                costs.candidates += rep.candidates as u64;
                costs.false_positives += rep.false_positives as u64;
                costs.decided += rep.decided_in_filter as u64;
                costs.pruning_power += rep.cost.pruning_power(data.len());
            }
            tr.exit();
            let ns = tr.exit();
            if i % 2 == 0 {
                untraced();
            }
            (ns as f64 / 1e6, rep)
        })
    };
    phases.mark("measure");

    // The kernel, timed on a seeded sample of the workload's own pairs.
    let dist_ns = kernel_ns(&mut tr, data, DIST_PAIRS, args.seed);
    let wrong = count_wrong(data, &m.to_check);
    phases.mark("check");

    let traced_ms: Vec<f64> = tr
        .durations("op")
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    let op_ms = mean(&traced_ms);
    let per_op = |x: u64| x as f64 / costs.ops.max(1) as f64;
    let own = tr.self_by_name(|op| op < KERNEL_OP);
    let self_ms = |name: &str| {
        own.get(name).copied().unwrap_or(0) as f64 / 1e6 / traced_ms.len().max(1) as f64
    };
    let evals = per_op(costs.filter_evals + costs.verify_evals);

    let mx = &mut out.metrics;
    mx.insert("metrics.dist_ns", dist_ns);
    mx.insert("metrics.dist_evals_per_op", evals);
    mx.insert("metrics.kernel_share", evals * dist_ns / (op_ms * 1e6));
    mx.insert("graph.build_s", build_ns as f64 / 1e9);
    mx.insert("graph.nndescent_s", breakdown.nndescent_secs);
    mx.insert("graph.connect_s", breakdown.connect_secs);
    mx.insert("graph.detours_s", breakdown.detours_secs);
    mx.insert("graph.remove_links_s", breakdown.remove_links_secs);
    mx.insert("graph.build_dist_evals", counted.calls() as f64);
    mx.insert("graph.index_mb", index_bytes as f64 / (1 << 20) as f64);
    mx.insert("core.self_ms", self_ms("core.query"));
    mx.insert("core.filter_ms", self_ms("core.filter"));
    mx.insert("core.verify_ms", self_ms("core.verify"));
    mx.insert("core.filter_dist_evals", per_op(costs.filter_evals));
    mx.insert("core.verify_dist_evals", per_op(costs.verify_evals));
    mx.insert("core.hops", per_op(costs.hops));
    mx.insert("core.candidates", per_op(costs.candidates));
    mx.insert("core.false_positives", per_op(costs.false_positives));
    mx.insert("core.decided_in_filter", per_op(costs.decided));
    mx.insert(
        "core.fp_ratio",
        costs.false_positives as f64 / costs.candidates.max(1) as f64,
    );
    mx.insert(
        "core.pruning_power",
        costs.pruning_power / costs.ops.max(1) as f64,
    );
    mx.insert("core.verifier_build_s", verifier_ns as f64 / 1e9);
    mx.insert("bench.self_ms", self_ms("op"));
    mx.insert("bench.trace_overhead", mean(&untraced_ms) / op_ms);
    let layers = ["op", "core.query", "core.filter", "core.verify"];
    mx.insert(
        "trace.closure",
        layers.iter().map(|l| self_ms(l)).sum::<f64>() / op_ms,
    );

    out.attempted = m.latencies_ms.len() as u64;
    out.failed = m.failed + wrong;
    let spans_file = format!(".bench_out/spans-{}-{}.tsv", args.workload, args.seed);
    tr.write_tsv(std::path::Path::new(&spans_file))
        .map_err(|e| format!("writing {spans_file}: {e}"))?;
    out.diag = common_diag(w, &m, phases);
    out.diag
        .push(("traced_ops", JsonValue::from(traced_ms.len())));
    out.diag.push(("spans_file", JsonValue::from(spans_file)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_injected_wrong_answer_counts_as_a_failed_op() {
        let fam = Family::Deep;
        let data = fam.generate(300, 4).data;
        let engine = build_engine(&DEEP, &data).unwrap();
        let q = Query::new(fam.generate(300, 4).calibrate_default_r(100), 10).unwrap();
        let right = engine.query(q).unwrap().outliers;
        assert!(!right.is_empty());
        let mut wrong = right.clone();
        wrong.pop();
        assert_eq!(count_wrong(&data, &[(q, right.clone())]), 0);
        assert_eq!(count_wrong(&data, &[(q, right), (q, wrong)]), 1);
    }

    #[test]
    fn check_sample_is_seeded_distinct_and_inside_every_run() {
        let a = check_sample(3);
        assert_eq!(a, check_sample(3));
        assert_eq!(a.len(), CHECKS);
        assert!(a.iter().all(|&i| i < stats::MIN_OPS));
        let mut d = a.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), CHECKS);
    }
}
