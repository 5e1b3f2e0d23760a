//! Experiment configuration and per-family workload preparation.

use dod_core::VerifyStrategy;
use dod_datasets::{calibrate_r, AnyDataset, Family};
use dod_metrics::Dataset;

/// Harness-wide configuration, parsed from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    /// Multiplier on every family's default cardinality.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Threads for detection (the paper's default is 12; ours should match
    /// the machine).
    pub threads: usize,
    /// Threads for graph construction (the paper uses 48).
    pub build_threads: usize,
    /// Families to evaluate.
    pub families: Vec<Family>,
    /// Sample size of the radius calibration.
    pub calib_samples: usize,
    /// Write machine-readable results to this path (`--json`).
    pub json: Option<String>,
    /// Shard counts for the stream experiment's sharded-pipeline grid
    /// (`--shards 1,2,4`); empty = skip the grid.
    pub shards: Vec<usize>,
    /// Durability policies for the stream experiment's WAL-overhead grid
    /// (`--durability none,everyN,always`); empty = skip the grid.
    /// `none` is the no-WAL baseline; the rest are WAL sync policies.
    pub durability: Vec<String>,
    /// Print a per-phase time breakdown (filter/verify for the table
    /// experiments, insert/expiry per slide for the stream experiment)
    /// after the result tables (`--trace-summary`).
    pub trace_summary: bool,
    /// Run the stream experiment's shard-balance grid (`--health`):
    /// owned-point skew, slide-time skew and ghost rates of a sharded
    /// window over a clustered stream.
    pub health: bool,
    /// Run the table experiments' query-cost grid (`--cost`): distance
    /// evaluations by phase, graph hops and pruning power per index
    /// spec, plus the counting-hook overhead micro-benchmark.
    pub cost: bool,
}

impl Default for Config {
    fn default() -> Self {
        let hw = std::thread::available_parallelism().map_or(2, |p| p.get());
        Config {
            scale: 1.0,
            seed: 42,
            threads: hw,
            build_threads: hw,
            families: Family::ALL.to_vec(),
            calib_samples: 800,
            json: None,
            shards: Vec::new(),
            durability: Vec::new(),
            trace_summary: false,
            health: false,
            cost: false,
        }
    }
}

impl Config {
    /// Parses `--scale`, `--seed`, `--threads`, `--families` style flags.
    /// Unknown flags abort with a usage message.
    pub fn from_args(args: &[String]) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut next = |flag: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} expects a value"))
            };
            match arg.as_str() {
                "--scale" => {
                    cfg.scale = next("--scale")?
                        .parse()
                        .map_err(|e| format!("--scale: {e}"))?
                }
                "--seed" => {
                    cfg.seed = next("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--threads" => {
                    cfg.threads = next("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?
                }
                "--build-threads" => {
                    cfg.build_threads = next("--build-threads")?
                        .parse()
                        .map_err(|e| format!("--build-threads: {e}"))?
                }
                "--json" => cfg.json = Some(next("--json")?),
                "--trace-summary" => cfg.trace_summary = true,
                "--health" => cfg.health = true,
                "--cost" => cfg.cost = true,
                "--shards" => {
                    let list = next("--shards")?;
                    cfg.shards = list
                        .split(',')
                        .map(|s| {
                            s.trim()
                                .parse::<usize>()
                                .map_err(|e| format!("--shards {s:?}: {e}"))
                        })
                        .collect::<Result<_, _>>()?;
                    if cfg.shards.contains(&0) {
                        return Err("--shards entries must be >= 1".into());
                    }
                }
                "--durability" => {
                    let list = next("--durability")?;
                    cfg.durability = list
                        .split(',')
                        .map(|s| {
                            let s = s.trim();
                            match s {
                                "none" | "everyN" | "always" | "never" => Ok(s.to_string()),
                                _ => Err(format!(
                                    "--durability {s:?}: expected none, everyN, always or never"
                                )),
                            }
                        })
                        .collect::<Result<_, _>>()?;
                }
                "--families" => {
                    let list = next("--families")?;
                    cfg.families = list
                        .split(',')
                        .map(|s| {
                            Family::parse(s.trim()).ok_or_else(|| format!("unknown family {s:?}"))
                        })
                        .collect::<Result<_, _>>()?;
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if cfg.scale <= 0.0 {
            return Err("--scale must be positive".into());
        }
        Ok(cfg)
    }

    /// The cardinality a family runs at under this config.
    pub fn n_for(&self, family: Family) -> usize {
        ((family.default_n() as f64 * self.scale) as usize).max(64)
    }
}

/// A prepared evaluation workload: dataset plus the calibrated default
/// query, mirroring one row of the paper's Tables 1 + 2.
pub struct Workload {
    /// The emulated dataset family.
    pub family: Family,
    /// Objects.
    pub data: AnyDataset,
    /// Cardinality.
    pub n: usize,
    /// Calibrated default radius (paper Table 2's per-dataset `r`).
    pub r: f64,
    /// Default count threshold (paper Table 2's `k`).
    pub k: usize,
    /// Graph degree `K` (paper §6).
    pub degree: usize,
}

impl Workload {
    /// Generates and calibrates the workload for one family.
    pub fn prepare(family: Family, cfg: &Config) -> Workload {
        let n = cfg.n_for(family);
        let gen = family.generate(n, cfg.seed);
        let k = family.default_k().min((n / 10).max(1));
        let r = calibrate_r(
            &gen.data,
            k,
            family.target_outlier_ratio(),
            cfg.calib_samples.min(n),
            cfg.seed ^ 0xca11b,
        );
        Workload {
            family,
            data: gen.data,
            n,
            r,
            k,
            degree: family.graph_degree(),
        }
    }

    /// The verification strategy the paper fixes for this dataset
    /// (§6 "Algorithms": VP-tree on HEPMASS, PAMAP2 and Words; linear
    /// scan elsewhere).
    pub fn verify_strategy(&self) -> VerifyStrategy {
        match self.family {
            Family::Hepmass | Family::Pamap2 | Family::Words => VerifyStrategy::VpTree,
            _ => VerifyStrategy::Linear,
        }
    }

    /// The `m` suspected outliers receiving exact `K'` lists: sized to
    /// comfortably cover the expected outlier population (the paper keeps
    /// `m` a constant ≪ n chosen per dataset).
    pub fn exact_m(&self) -> usize {
        exact_m(self.family, self.n)
    }

    /// Bytes of raw object data (reported alongside index sizes).
    pub fn data_bytes(&self) -> usize {
        self.data.data_bytes()
    }

    /// Sub-sampled view for the scalability experiments (first
    /// `rate · n` objects of a deterministic shuffle).
    pub fn sample_ids(&self, rate: f64, seed: u64) -> Vec<u32> {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut ids: Vec<u32> = (0..self.n as u32).collect();
        ids.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        ids.truncate(((self.n as f64 * rate) as usize).max(32));
        ids
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (n={}, {}, r={:.4}, k={})",
            self.family,
            self.n,
            self.family.metric(),
            self.r,
            self.k
        )
    }
}

/// The exact-list budget `m` for a family at cardinality `n`.
pub fn exact_m(family: Family, n: usize) -> usize {
    ((n as f64 * family.target_outlier_ratio() * 2.0) as usize).clamp(32, n.max(1))
}

/// Outlier ratio check used by tests: counts true outliers via the
/// brute-force definition on a sample.
pub fn sampled_outlier_ratio(w: &Workload, sample: usize) -> f64 {
    let step = (w.n / sample.max(1)).max(1);
    let mut outliers = 0usize;
    let mut total = 0usize;
    let mut p = 0;
    while p < w.n {
        let mut count = 0;
        for j in 0..w.n {
            if j != p && w.data.dist(p, j) <= w.r {
                count += 1;
                if count >= w.k {
                    break;
                }
            }
        }
        if count < w.k {
            outliers += 1;
        }
        total += 1;
        p += step;
    }
    outliers as f64 / total.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_round_trip() {
        let args: Vec<String> = ["--scale", "0.5", "--seed", "9", "--families", "glove,words"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let cfg = Config::from_args(&args).unwrap();
        assert_eq!(cfg.scale, 0.5);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.families, vec![Family::Glove, Family::Words]);
    }

    #[test]
    fn trace_summary_flag_round_trips() {
        assert!(!Config::from_args(&[]).unwrap().trace_summary);
        let cfg = Config::from_args(&["--trace-summary".to_string()]).unwrap();
        assert!(cfg.trace_summary);
    }

    #[test]
    fn health_flag_round_trips() {
        assert!(!Config::from_args(&[]).unwrap().health);
        let cfg = Config::from_args(&["--health".to_string()]).unwrap();
        assert!(cfg.health);
    }

    #[test]
    fn cost_flag_round_trips() {
        assert!(!Config::from_args(&[]).unwrap().cost);
        let cfg = Config::from_args(&["--cost".to_string()]).unwrap();
        assert!(cfg.cost);
    }

    #[test]
    fn json_flag_round_trips() {
        let args: Vec<String> = ["--json", "BENCH_dod.json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let cfg = Config::from_args(&args).unwrap();
        assert_eq!(cfg.json.as_deref(), Some("BENCH_dod.json"));
        assert!(Config::from_args(&["--json".to_string()]).is_err());
    }

    #[test]
    fn bad_args_are_rejected() {
        for bad in [
            vec!["--scale".to_string()],
            vec!["--scale".to_string(), "-1".to_string()],
            vec!["--families".to_string(), "nope".to_string()],
            vec!["--durability".to_string(), "fsync".to_string()],
            vec!["--wat".to_string()],
        ] {
            assert!(Config::from_args(&bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn durability_flag_round_trips() {
        assert!(Config::from_args(&[]).unwrap().durability.is_empty());
        let args: Vec<String> = ["--durability", "none, everyN,always"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let cfg = Config::from_args(&args).unwrap();
        assert_eq!(cfg.durability, vec!["none", "everyN", "always"]);
    }

    #[test]
    fn workload_calibration_hits_target_ratio_ballpark() {
        let cfg = Config {
            scale: 0.1, // small but calibratable
            ..Config::default()
        };
        let w = Workload::prepare(Family::Sift, &cfg);
        let ratio = sampled_outlier_ratio(&w, 200);
        let target = Family::Sift.target_outlier_ratio();
        assert!(
            ratio < target * 8.0 + 0.02,
            "ratio {ratio} far above target {target}"
        );
    }

    #[test]
    fn verify_strategy_matches_paper_assignments() {
        let cfg = Config {
            scale: 0.05,
            ..Config::default()
        };
        for f in [Family::Hepmass, Family::Pamap2, Family::Words] {
            let w = Workload::prepare(f, &cfg);
            assert_eq!(w.verify_strategy(), VerifyStrategy::VpTree);
        }
        let w = Workload::prepare(Family::Sift, &cfg);
        assert_eq!(w.verify_strategy(), VerifyStrategy::Linear);
    }

    #[test]
    fn sample_ids_are_deterministic_prefix_nested() {
        let cfg = Config {
            scale: 0.05,
            ..Config::default()
        };
        let w = Workload::prepare(Family::Glove, &cfg);
        let small = w.sample_ids(0.4, 3);
        let large = w.sample_ids(0.8, 3);
        // Same shuffle, so the smaller sample is a prefix of the larger.
        assert_eq!(&large[..small.len()], &small[..]);
    }
}
