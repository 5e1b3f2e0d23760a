//! CLI driver regenerating the paper's tables and figures, plus the
//! perf-trajectory comparison ritual.
//!
//! ```text
//! experiments <subcommand> [flags]
//!
//! subcommands:
//!   tables | table3..table8 | fig6_7 | fig8_9 | fig10 | ablation |
//!   hnsw | stream | all
//!   compare <baseline.json> <candidate.json> [--threshold F]
//! flags:
//!   --scale <f64>       dataset size multiplier (default 1.0)
//!   --seed <u64>        master seed (default 42)
//!   --threads <usize>   detection threads (default: hardware)
//!   --build-threads <usize>
//!   --families <list>   comma-separated subset of
//!                       deep,glove,hepmass,mnist,pamap2,sift,words
//!   --json <path>       also write machine-readable results (tables,
//!                       stream and stream_sharded rows), e.g.
//!                       BENCH_dod.json / BENCH_stream.json
//!   --shards <list>     stream experiment only: run the sharded async
//!                       pipeline at these shard counts (e.g. 1,2,4)
//!   --trace-summary     tables/stream: print a per-phase time breakdown
//!                       (filter/verify, insert/expiry) after the tables
//!   --health            stream experiment only: run the shard-balance
//!                       grid (owned and slide-time skew, ghost rates),
//!                       e.g. for BENCH_health.json
//!   --cost              table experiments only: run the query-cost grid
//!                       (distance evaluations of the engine build and by
//!                       query phase, hops, pruning power per index spec,
//!                       counting-hook overhead), e.g. for BENCH_cost.json
//!
//! compare diffs two --json artifacts row by row and exits nonzero when
//! any timing metric regressed by more than --threshold (default 0.25,
//! i.e. 25%).
//! ```

use dod_bench::experiments::{self, Which};
use dod_bench::Config;

fn usage() -> ! {
    eprintln!(
        "usage: experiments <tables|table3|table4|table5|table6|table7|table8|\
         fig6_7|fig8_9|fig10|ablation|hnsw|stream|all> [--scale F] [--seed N] \
         [--threads N] [--build-threads N] [--families a,b,c] [--json PATH] \
         [--shards 1,2,4] [--trace-summary] [--health] [--cost]\n       \
         experiments compare <baseline.json> <candidate.json> [--threshold F]"
    );
    std::process::exit(2);
}

fn run_compare(args: &[String]) -> ! {
    let mut paths = Vec::new();
    let mut threshold = 0.25f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => {
                let Some(v) = it.next() else {
                    eprintln!("--threshold expects a value");
                    usage()
                };
                match v.parse::<f64>() {
                    Ok(t) if t >= 0.0 && t.is_finite() => threshold = t,
                    _ => {
                        eprintln!("--threshold must be a non-negative fraction, got {v:?}");
                        usage()
                    }
                }
            }
            p if !p.starts_with("--") => paths.push(p.to_string()),
            other => {
                eprintln!("unknown compare flag {other:?}");
                usage()
            }
        }
    }
    let [a, b] = paths.as_slice() else {
        eprintln!("compare expects exactly two artifact paths");
        usage()
    };
    let read = |p: &str| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("cannot read {p}: {e}");
            std::process::exit(2);
        })
    };
    match dod_bench::compare::compare(&read(a), &read(b), threshold) {
        Ok(cmp) => {
            println!("# compare {a} -> {b}\n\n{}", cmp.rendered);
            std::process::exit(if cmp.regressions.is_empty() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("compare failed: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(sub) = args.first() else { usage() };
    if sub == "compare" {
        run_compare(&args[1..]);
    }
    let Some(which) = Which::parse(sub) else {
        eprintln!("unknown subcommand {sub:?}");
        usage()
    };
    let cfg = match Config::from_args(&args[1..]) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            usage()
        }
    };
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    if let Err(e) = experiments::run(&cfg, which, &mut out) {
        eprintln!("experiment failed: {e}");
        std::process::exit(1);
    }
}
