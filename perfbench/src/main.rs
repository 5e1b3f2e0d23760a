//! The dod benchmark: one command runs a seeded workload against the
//! system, checks every answer, and prints its metrics by name and unit.
//!
//! ```text
//! dod_perfbench --workload <batch-deep|serve-stream> --seed <n> \
//!               --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics, taken from spans the
//! benchmark records around its calls into each crate. The line before it
//! records the run's CPU set, seed, sample counts and the wall time of each
//! phase, so that a noisy run can be diagnosed from its output alone. See
//! `README.md` beside this crate for the workloads and what each isolates.

mod batch;
mod client;
mod mix;
mod serve;
mod spans;
mod stats;
mod sys;

use dod_wire::JsonValue;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics: every workload reports all of them, untraced.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p95", "ms"),
    ("ops_per_s", "1/s"),
    ("rss_peak_mb", "MiB"),
];

/// Per-layer metrics of the traced run. A layer a workload does not
/// exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("metrics.dist_ns", "ns"),
    ("metrics.dist_evals_per_op", "count"),
    ("metrics.kernel_share", "ratio"),
    ("graph.build_s", "s"),
    ("graph.nndescent_s", "s"),
    ("graph.connect_s", "s"),
    ("graph.detours_s", "s"),
    ("graph.remove_links_s", "s"),
    ("graph.build_dist_evals", "count"),
    ("graph.index_mb", "MiB"),
    ("core.self_ms", "ms"),
    ("core.filter_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("core.filter_dist_evals", "count"),
    ("core.verify_dist_evals", "count"),
    ("core.hops", "count"),
    ("core.candidates", "count"),
    ("core.false_positives", "count"),
    ("core.decided_in_filter", "count"),
    ("core.fp_ratio", "ratio"),
    ("core.pruning_power", "ratio"),
    ("core.verifier_build_s", "s"),
    ("stream.insert_us", "us"),
    ("stream.report_ms", "ms"),
    ("stream.dist_evals_per_insert", "count"),
    ("stream.self_ms", "ms"),
    ("shard.pipeline_op_ms", "ms"),
    ("shard.self_ms", "ms"),
    ("wire.parse_us", "us"),
    ("wire.encode_us", "us"),
    ("server.ingest_ms_p50", "ms"),
    ("server.report_ms_p50", "ms"),
    ("server.residual_ms", "ms"),
    ("server.reconnects", "count"),
    ("bench.self_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("trace.closure", "ratio"),
];

/// The longest a timed phase may run, whatever `--seconds` asks: a run must
/// end within its time limit even on a slow host.
const MAX_MEASURE_SECONDS: f64 = 60.0;

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Printed beside the result: phase wall times, sample counts.
    pub diag: Vec<(&'static str, JsonValue)>,
}

/// Wall time of each phase of a run, in order.
pub struct Phases {
    last: Instant,
    done: Vec<(&'static str, f64)>,
}

impl Phases {
    pub fn start() -> Self {
        Phases {
            last: Instant::now(),
            done: Vec::new(),
        }
    }

    /// Ends the current phase under `name`.
    pub fn mark(&mut self, name: &'static str) {
        let now = Instant::now();
        self.done
            .push((name, now.duration_since(self.last).as_secs_f64()));
        self.last = now;
    }

    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(self.done.iter().map(|&(n, s)| (n, JsonValue::from(s))))
    }
}

/// Whether a timed phase that has run `elapsed` seconds and finished `ops`
/// ops goes on: it runs for `seconds` and until it holds enough ops for
/// p95.
pub fn keep_measuring(elapsed: f64, ops: usize, seconds: f64) -> bool {
    elapsed < MAX_MEASURE_SECONDS && (elapsed < seconds || ops < stats::MIN_OPS)
}

/// Sets every end-to-end metric from a run's set-up times, its op
/// latencies and the wall time of its timed phase.
pub fn end_to_end(
    out: &mut Outcome,
    setups_s: &[f64],
    latencies_ms: &[f64],
    timed_s: f64,
) -> Result<(), String> {
    let lat = stats::sorted(latencies_ms);
    let m = &mut out.metrics;
    m.insert("setup_s", stats::median(setups_s));
    m.insert(
        "op_ms_p50",
        stats::percentile(&lat, 50).ok_or("too few ops")?,
    );
    m.insert(
        "op_ms_p95",
        stats::percentile(&lat, 95).ok_or("too few ops for p95")?,
    );
    m.insert("ops_per_s", lat.len() as f64 / timed_s);
    m.insert("rss_peak_mb", sys::peak_rss_mb()?);
    Ok(())
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad(&"must be positive"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// The result line: exactly the metrics the mode's table names, each with
/// its unit. A metric the workload set but the table lacks is an error.
fn result_line(args: &Args, out: &Outcome) -> Result<String, String> {
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    if let Some(stray) = out
        .metrics
        .keys()
        .find(|k| !table.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {stray} is not in the benchmark's table"));
    }
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        metrics.push((
            name,
            JsonValue::obj([
                ("value", JsonValue::from(value)),
                ("unit", JsonValue::from(unit)),
            ]),
        ));
    }
    Ok(JsonValue::obj([
        ("correct", JsonValue::from(out.failed == 0)),
        ("attempted", JsonValue::from(out.attempted)),
        ("failed", JsonValue::from(out.failed)),
        ("metrics", JsonValue::obj(metrics)),
    ])
    .render())
}

fn run(args: &Args) -> Result<(), String> {
    // Pin before any thread exists, so every thread inherits the pin.
    let cpu = sys::pin_to_one_cpu()?;
    let outcome = match args.workload.as_str() {
        "batch-deep" => batch::run(&batch::DEEP, args),
        "serve-stream" => serve::run(args),
        other => Err(format!(
            "unknown workload {other:?}; one of: batch-deep, serve-stream"
        )),
    }?;
    let line = result_line(args, &outcome)?;
    let mut diag = vec![
        ("workload", JsonValue::from(args.workload.as_str())),
        ("seed", JsonValue::from(args.seed)),
        ("trace", JsonValue::from(args.trace)),
        ("pinned_cpu", JsonValue::from(cpu)),
        ("cpus_allowed", JsonValue::from(sys::cpus_allowed())),
        (
            "op_fail_ratio",
            JsonValue::from(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        ),
    ];
    diag.extend(outcome.diag);
    println!(
        "{}",
        JsonValue::obj([("diag", JsonValue::obj(diag))]).render()
    );
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: dod_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload batch-deep --seed 42 --seconds 7 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: "batch-deep".into(),
                seed: 42,
                seconds: 7.0,
                trace: true
            }
        );
        assert!(args("--seed 1").is_err());
        assert!(args("--workload x --trace 2").is_err());
        assert!(args("--workload x --seconds 0").is_err());
        assert!(args("--workload x --bogus 1").is_err());
    }

    /// The tables above and `BENCHMARK.json` describe the same metrics.
    #[test]
    fn tables_match_benchmark_json() {
        let doc = dod_wire::parse_json(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(JsonValue::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(JsonValue::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn result_line_fills_unexercised_layers_and_rejects_strays() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.metrics.insert("core.hops", 12.5);
        let traced = Args {
            workload: "w".into(),
            seed: 1,
            seconds: 1.0,
            trace: true,
        };
        let line = result_line(&traced, &out).unwrap();
        let doc = dod_wire::parse_json(&line).unwrap();
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("core.hops")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(12.5)
        );
        assert_eq!(
            metrics
                .get("wire.parse_us")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        let untraced = Args {
            trace: false,
            ..traced.clone()
        };
        assert!(
            result_line(&untraced, &out).is_err(),
            "stray per-layer metric"
        );
        out.metrics.insert("no.such", 1.0);
        assert!(result_line(&traced, &out).is_err());
    }
}
