//! `experiments compare a.json b.json` — the perf-trajectory ritual.
//!
//! Diffs two machine-readable `BENCH_*.json` artifacts (as written by
//! `--json`), matching rows by their identity fields and reporting the
//! per-row change of every tracked metric: the signed relative change
//! `candidate / baseline − 1`, so a rise prints positive whichever way is
//! better. With `--threshold t`, any metric that regressed by more than
//! `t` (fractional, e.g. `0.25` = 25 %, measured in the metric's own
//! direction) makes the run fail, so CI can diff the current PR's
//! artifact against the previous one and flag slowdowns automatically.
//!
//! JSON parsing is delegated to [`dod_wire`], the workspace's shared
//! wire format (the parser started its life in this module and was
//! promoted when the HTTP serving layer needed the same dialect); this
//! module keeps the artifact-diffing logic on top of it.

use crate::report::Table;
use std::collections::BTreeMap;
use std::fmt::Write as _;

pub use dod_wire::{parse_json, JsonValue as JVal};

/// The timing metrics a row can carry, with their improvement direction.
/// Everything else in a row is identity, except [`INFORMATIONAL`].
const METRICS: &[(&str, Direction)] = &[
    ("detect_secs", Direction::LowerIsBetter),
    ("build_secs", Direction::LowerIsBetter),
    ("total_secs", Direction::LowerIsBetter),
    ("slide_us", Direction::LowerIsBetter),
    ("speedup_vs_batch", Direction::HigherIsBetter),
    ("slides_per_sec", Direction::HigherIsBetter),
    // --cost rows: distance evaluations and graph hops are deterministic
    // per seed, so a jump means the filter really got worse, not that CI
    // was slow. Hops move only when the walk itself changes.
    ("dist_evals", Direction::LowerIsBetter),
    ("pruning_power", Direction::HigherIsBetter),
    ("hops", Direction::LowerIsBetter),
    // Distance evaluations of the engine build (index and edge lengths),
    // as deterministic as the query's.
    ("build_dist_evals", Direction::LowerIsBetter),
];

/// Fields that are neither identity nor gated metrics: run-dependent
/// observations (ghost replica counts, false-positive tallies). Folding
/// them into the identity key would make rows unmatchable across runs —
/// the exact failure mode a regression gate must not have.
const INFORMATIONAL: &[&str] = &[
    "ghosts",
    "false_positives",
    "overhead_vs_none",
    "fsyncs",
    "wal_bytes",
    // --health observations: shard-balance skews drift run to run like
    // ghost counts do.
    "owned_skew",
    "slide_skew",
    "ghost_rate_max",
    // --cost observations: the phase split rides along with the gated
    // total, and the counting-hook micro-benchmark is pure timer noise.
    "filter_dist_evals",
    "verify_dist_evals",
    "raw_secs",
    "counted_secs",
    "counting_overhead",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    LowerIsBetter,
    HigherIsBetter,
}

/// One artifact's rows, keyed by their identity fields.
fn rows_by_key(doc: &JVal) -> Result<BTreeMap<String, BTreeMap<String, f64>>, String> {
    let JVal::Obj(fields) = doc else {
        return Err("artifact root must be an object".into());
    };
    let rows = fields
        .iter()
        .find(|(k, _)| k == "rows")
        .map(|(_, v)| v)
        .ok_or("artifact has no \"rows\" array")?;
    let JVal::Arr(rows) = rows else {
        return Err("\"rows\" must be an array".into());
    };
    let is_metric = |k: &str| METRICS.iter().any(|&(m, _)| m == k);
    let mut out = BTreeMap::new();
    for row in rows {
        let JVal::Obj(fields) = row else {
            return Err("row must be an object".into());
        };
        let mut key = String::new();
        let mut metrics = BTreeMap::new();
        for (k, v) in fields {
            if INFORMATIONAL.contains(&k.as_str()) {
                continue;
            }
            match v {
                JVal::Num(x) if is_metric(k) => {
                    metrics.insert(k.clone(), *x);
                }
                JVal::Null if is_metric(k) => {}
                JVal::Num(x) => {
                    let _ = write!(key, "{k}={x} ");
                }
                JVal::Str(s) => {
                    let _ = write!(key, "{k}={s} ");
                }
                _ => {}
            }
        }
        out.insert(key.trim_end().to_string(), metrics);
    }
    Ok(out)
}

/// Outcome of a comparison: the rendered report plus the regressions
/// found above the threshold.
pub struct Comparison {
    /// The Markdown report.
    pub rendered: String,
    /// `(row key, metric)` pairs that regressed beyond the threshold.
    pub regressions: Vec<(String, String)>,
}

/// Diffs two artifacts (`a` = baseline, `b` = candidate). `threshold` is
/// the tolerated fractional regression per metric.
pub fn compare(a_src: &str, b_src: &str, threshold: f64) -> Result<Comparison, String> {
    let a = rows_by_key(&parse_json(a_src).map_err(|e| format!("baseline: {e}"))?)?;
    let b = rows_by_key(&parse_json(b_src).map_err(|e| format!("candidate: {e}"))?)?;

    let mut rendered = String::new();
    let mut regressions = Vec::new();
    let mut t = Table::new([
        "row",
        "metric",
        "baseline",
        "candidate",
        "change",
        "verdict",
    ]);
    let mut compared = 0usize;
    for (key, am) in &a {
        let Some(bm) = b.get(key) else {
            let _ = writeln!(rendered, "- row dropped from candidate: `{key}`");
            continue;
        };
        for &(metric, dir) in METRICS {
            let (Some(&av), Some(&bv)) = (am.get(metric), bm.get(metric)) else {
                continue;
            };
            if !(av.is_finite() && bv.is_finite()) || av <= 0.0 {
                continue;
            }
            compared += 1;
            // Fractional regression: positive = got worse. The verdict
            // reads this; the table prints the plain change.
            let regression = match dir {
                Direction::LowerIsBetter => bv / av - 1.0,
                Direction::HigherIsBetter => av / bv - 1.0,
            };
            let verdict = if regression > threshold {
                regressions.push((key.clone(), metric.to_string()));
                "REGRESSED"
            } else if regression < -threshold {
                "improved"
            } else {
                "~"
            };
            t.row([
                key.clone(),
                metric.to_string(),
                format!("{av:.6}"),
                format!("{bv:.6}"),
                format!("{:+.1}%", (bv / av - 1.0) * 100.0),
                verdict.to_string(),
            ]);
        }
    }
    for key in b.keys() {
        if !a.contains_key(key) {
            let _ = writeln!(rendered, "- new row in candidate: `{key}`");
        }
    }
    let _ = writeln!(
        rendered,
        "\ncompared {compared} metrics across {} matched rows \
         (threshold {:.0}%):\n\n{}",
        a.iter().filter(|(k, _)| b.contains_key(*k)).count(),
        threshold * 100.0,
        t.render()
    );
    if regressions.is_empty() {
        let _ = writeln!(rendered, "no regressions beyond the threshold.");
    } else {
        let _ = writeln!(
            rendered,
            "{} metric(s) REGRESSED beyond the threshold.",
            regressions.len()
        );
    }
    Ok(Comparison {
        rendered,
        regressions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{JsonReport, JsonVal};

    fn artifact(slide_us: f64, speedup: f64) -> String {
        let mut j = JsonReport::new();
        j.meta("scale", 0.25);
        j.row([
            ("experiment", JsonVal::from("stream")),
            ("engine", JsonVal::from("stream graph")),
            ("n", JsonVal::from(1000usize)),
            ("slide_us", JsonVal::from(slide_us)),
            ("speedup_vs_batch", JsonVal::from(speedup)),
        ]);
        j.render()
    }

    #[test]
    fn round_trips_our_own_artifacts() {
        let doc = parse_json(&artifact(12.5, 8.0)).expect("parse");
        let rows = rows_by_key(&doc).expect("rows");
        assert_eq!(rows.len(), 1);
        let (key, metrics) = rows.iter().next().unwrap();
        assert!(
            key.contains("engine=stream graph") && key.contains("n=1000"),
            "{key}"
        );
        assert_eq!(metrics["slide_us"], 12.5);
        assert_eq!(metrics["speedup_vs_batch"], 8.0);
    }

    #[test]
    fn parser_handles_escapes_null_and_nesting() {
        let v =
            parse_json(r#"{"a": "q\"\\\nA", "b": [1, null, -2.5e-1], "c": true}"#).expect("parse");
        let JVal::Obj(fields) = v else { panic!() };
        assert_eq!(fields[0].1, JVal::Str("q\"\\\nA".into()));
        assert_eq!(
            fields[1].1,
            JVal::Arr(vec![JVal::Num(1.0), JVal::Null, JVal::Num(-0.25)])
        );
        assert_eq!(fields[2].1, JVal::Bool(true));
        assert!(parse_json("{\"a\": 1} trailing").is_err());
        assert!(parse_json("{").is_err());
    }

    #[test]
    fn identical_artifacts_have_no_regressions() {
        let a = artifact(10.0, 8.0);
        let cmp = compare(&a, &a, 0.2).expect("compare");
        assert!(cmp.regressions.is_empty(), "{}", cmp.rendered);
    }

    #[test]
    fn slowdowns_and_speedup_drops_both_regress() {
        // 50% slower slides and a halved speedup: two regressions.
        let cmp = compare(&artifact(10.0, 8.0), &artifact(15.0, 4.0), 0.2).expect("compare");
        assert_eq!(cmp.regressions.len(), 2, "{}", cmp.rendered);
        assert!(cmp.rendered.contains("REGRESSED"));
        // Improvements never trip the threshold.
        let cmp = compare(&artifact(10.0, 8.0), &artifact(5.0, 16.0), 0.2).expect("compare");
        assert!(cmp.regressions.is_empty());
        assert!(cmp.rendered.contains("improved"));
    }

    #[test]
    fn informational_fields_never_enter_the_identity_key() {
        // Two runs of the same config with different ghost counts must
        // still match rows — otherwise the gate compares nothing and
        // silently passes on a real regression.
        let with_ghosts = |ghosts: usize, slide_us: f64| {
            let mut j = JsonReport::new();
            j.row([
                ("experiment", JsonVal::from("stream_sharded")),
                ("shards", JsonVal::from(4usize)),
                ("ghosts", JsonVal::from(ghosts)),
                ("slide_us", JsonVal::from(slide_us)),
            ]);
            j.render()
        };
        let cmp = compare(&with_ghosts(100, 10.0), &with_ghosts(9000, 30.0), 0.2).expect("compare");
        assert_eq!(
            cmp.regressions.len(),
            1,
            "rows must match despite ghost drift:\n{}",
            cmp.rendered
        );
    }

    #[test]
    fn health_observations_never_enter_the_identity_key() {
        // Same --health config, different skew and ghost-rate readings:
        // the rows must still match so the slide_us gate actually gates.
        let health_row = |skew: f64, ghost_rate: f64, slide_us: f64| {
            let mut j = JsonReport::new();
            j.row([
                ("experiment", JsonVal::from("stream_health_balance")),
                ("shards", JsonVal::from(4usize)),
                ("n", JsonVal::from(12000usize)),
                ("owned_skew", JsonVal::from(skew)),
                ("slide_skew", JsonVal::from(1.2 * skew)),
                ("ghost_rate_max", JsonVal::from(ghost_rate)),
                ("slide_us", JsonVal::from(slide_us)),
            ]);
            j.render()
        };
        let cmp = compare(
            &health_row(1.1, 0.05, 10.0),
            &health_row(1.8, 0.31, 30.0),
            0.2,
        )
        .expect("compare");
        assert_eq!(
            cmp.regressions.len(),
            1,
            "rows must match despite health drift:\n{}",
            cmp.rendered
        );
    }

    #[test]
    fn cost_rows_gate_hops_like_dist_evals() {
        let cost_row = |dist_evals: f64, hops: f64| {
            let mut j = JsonReport::new();
            j.row([
                ("experiment", JsonVal::from("tables_cost")),
                ("dataset", JsonVal::from("Deep")),
                ("n", JsonVal::from(2400usize)),
                ("index", JsonVal::from("mrpg:25")),
                ("dist_evals", JsonVal::from(dist_evals)),
                ("hops", JsonVal::from(hops)),
            ]);
            j.render()
        };
        // A walk that expands 50% more vertices regresses on hops alone,
        // and the hop count is never part of the row's identity.
        let cmp =
            compare(&cost_row(1000.0, 200.0), &cost_row(1000.0, 300.0), 0.25).expect("compare");
        assert_eq!(
            cmp.regressions,
            vec![(
                "experiment=tables_cost dataset=Deep n=2400 index=mrpg:25".to_string(),
                "hops".to_string()
            )],
            "{}",
            cmp.rendered
        );
        // Fewer hops is an improvement, not a regression.
        let cmp =
            compare(&cost_row(1000.0, 200.0), &cost_row(1000.0, 100.0), 0.25).expect("compare");
        assert!(cmp.regressions.is_empty(), "{}", cmp.rendered);
        assert!(cmp.rendered.contains("improved"));
    }

    /// The cells of the rendered table row for `metric`.
    fn cells<'a>(rendered: &'a str, metric: &str) -> Vec<&'a str> {
        rendered
            .lines()
            .map(|l| l.split('|').map(str::trim).collect::<Vec<_>>())
            .find(|cells| cells.contains(&metric))
            .unwrap_or_else(|| panic!("no {metric} row in:\n{rendered}"))
    }

    #[test]
    fn change_is_signed_like_the_metric_moved() {
        // A rising higher-is-better metric prints a rise and improves; a
        // rising lower-is-better one prints a rise and regresses.
        let cmp = compare(&artifact(10.0, 8.0), &artifact(15.0, 12.0), 0.2).expect("compare");
        let speedup = cells(&cmp.rendered, "speedup_vs_batch");
        assert!(speedup.contains(&"+50.0%"), "{speedup:?}");
        assert!(speedup.contains(&"improved"), "{speedup:?}");
        let slide = cells(&cmp.rendered, "slide_us");
        assert!(slide.contains(&"+50.0%"), "{slide:?}");
        assert!(slide.contains(&"REGRESSED"), "{slide:?}");
        // A falling higher-is-better metric prints a fall.
        let cmp = compare(&artifact(10.0, 8.0), &artifact(10.0, 4.0), 0.2).expect("compare");
        let speedup = cells(&cmp.rendered, "speedup_vs_batch");
        assert!(speedup.contains(&"-50.0%"), "{speedup:?}");
        assert!(speedup.contains(&"REGRESSED"), "{speedup:?}");
    }

    #[test]
    fn cost_rows_gate_build_dist_evals() {
        let cost_row = |build: Option<f64>| {
            let mut j = JsonReport::new();
            let mut fields = vec![
                ("experiment", JsonVal::from("tables_cost")),
                ("dataset", JsonVal::from("Deep")),
                ("index", JsonVal::from("mrpg:25")),
                ("dist_evals", JsonVal::from(1000.0)),
            ];
            if let Some(build) = build {
                fields.push(("build_dist_evals", JsonVal::from(build)));
            }
            j.row(fields);
            j.render()
        };
        // An index build that evaluates 50% more distances regresses.
        let cmp = compare(&cost_row(Some(2.0e5)), &cost_row(Some(3.0e5)), 0.25).expect("compare");
        assert_eq!(
            cmp.regressions,
            vec![(
                "experiment=tables_cost dataset=Deep index=mrpg:25".to_string(),
                "build_dist_evals".to_string()
            )],
            "{}",
            cmp.rendered
        );
        // A baseline written before the field existed matches the row and
        // skips the metric.
        let cmp = compare(&cost_row(None), &cost_row(Some(3.0e5)), 0.25).expect("compare");
        assert!(cmp.regressions.is_empty(), "{}", cmp.rendered);
        assert!(!cmp.rendered.contains("new row"), "{}", cmp.rendered);
        assert!(!cmp.rendered.contains("build_dist_evals"));
    }

    #[test]
    fn unmatched_rows_are_noted_not_fatal() {
        let mut j = JsonReport::new();
        j.row([
            ("experiment", JsonVal::from("stream")),
            ("engine", JsonVal::from("other")),
            ("slide_us", JsonVal::from(1.0)),
        ]);
        let cmp = compare(&artifact(10.0, 8.0), &j.render(), 0.2).expect("compare");
        assert!(cmp.rendered.contains("row dropped from candidate"));
        assert!(cmp.rendered.contains("new row in candidate"));
        assert!(cmp.regressions.is_empty());
    }
}
