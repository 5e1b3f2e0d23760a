//! Pins what each graph build produces, bit for bit, and the distance
//! evaluations it spends.
//!
//! A build is reduced to an FNV-1a digest over its adjacency lists in
//! order, its pivot flags and its exact-`K'` distances (by id, as `f64`
//! bits), plus the evaluations a [`DistanceCounter`] saw. Every build is
//! deterministic for any thread count, so each constant holds for 1 and 2
//! threads alike. The constants change only when a build's output does:
//! a faster bookkeeping that keeps them keeps every graph, and with it
//! every query's work.
//!
//! Words (edit distance) and the integer grid have many candidates at
//! equal distance, and the duplicate-heavy set many at distance zero.
//! There the order in which NNDescent evaluates its candidates decides
//! which of them a capped list keeps, so those rows pin that order too.

use dod_datasets::Family;
use dod_graph::hnsw::{self, HnswParams};
use dod_graph::mrpg::{self, MrpgParams};
use dod_graph::ProximityGraph;
use dod_metrics::{Dataset, DistanceCounter, Fnv1a, VectorSet, L1, L2};

/// Digest of everything a query reads from a graph.
fn digest(g: &ProximityGraph) -> u64 {
    let mut h = Fnv1a::new();
    for list in &g.adj {
        h.write_u64(list.len() as u64);
        for &w in list {
            h.write(&w.to_le_bytes());
        }
    }
    for &p in &g.pivot {
        h.write(&[u8::from(p)]);
    }
    let mut exact: Vec<_> = g.exact.iter().collect();
    exact.sort_by_key(|&(&v, _)| v);
    for (&v, e) in exact {
        h.write(&v.to_le_bytes());
        h.write_u64(e.dists.len() as u64);
        for d in &e.dists {
            h.write_u64(d.to_bits());
        }
    }
    h.finish()
}

/// The builds pinned per dataset, in the order of each expected row. NSW
/// and HNSW insert sequentially and ignore the thread count.
const BUILDS: [&str; 6] = [
    "mrpg:8",
    "mrpg:25",
    "mrpg-basic:8",
    "kgraph:10",
    "nsw:10",
    "hnsw:10",
];

/// `(digest, distance evaluations)` of each of [`BUILDS`] over `data`.
fn builds<D: Dataset>(data: &D, seed: u64, threads: usize) -> Vec<(u64, u64)> {
    let counted = DistanceCounter::new(data);
    let mut out = Vec::new();
    for build in BUILDS {
        counted.reset();
        let g = match build {
            "kgraph:10" => mrpg::build_kgraph(&counted, 10, threads, seed),
            "nsw:10" => mrpg::build_nsw(&counted, 10, seed),
            "hnsw:10" => {
                let p = HnswParams {
                    seed,
                    ..HnswParams::matching_kgraph(10)
                };
                hnsw::build(&counted, &p).bottom_layer_graph()
            }
            _ => {
                let mut p = match build {
                    "mrpg:8" => MrpgParams::new(8),
                    "mrpg:25" => MrpgParams::new(25),
                    _ => MrpgParams::basic(8),
                };
                p.threads = threads;
                p.seed = seed;
                mrpg::build(&counted, &p).0
            }
        };
        g.assert_invariants();
        out.push((digest(&g), counted.calls()));
    }
    out
}

/// Checks every build over `data` against `want`, at 1 and 2 threads.
fn check<D: Dataset>(name: &str, data: &D, seed: u64, want: [(u64, u64); 6]) {
    for threads in [1, 2] {
        let got = builds(data, seed, threads);
        let table: String = BUILDS
            .iter()
            .zip(&got)
            .map(|(b, (d, e))| format!("\n  {b}: ({d:#018x}, {e}),"))
            .collect();
        assert_eq!(got, want, "{name}, {threads} thread(s):{table}");
    }
}

fn family(f: Family, n: usize) -> dod_datasets::AnyDataset {
    f.generate(n, 5).data
}

#[test]
fn deep_builds_are_pinned() {
    check(
        "deep",
        &family(Family::Deep, 500),
        1,
        [
            (0x6bbe_d505_2e99_b6af, 89181),
            (0x1d97_76ab_f25f_fb15, 284539),
            (0x913b_b31a_b343_8199, 72301),
            (0x6c28_24c9_2dde_5fa1, 158704),
            (0x8e8b_974c_d252_d6f1, 449729),
            (0xdf0c_4f2d_05f6_9405, 40815),
        ],
    );
}

#[test]
fn sift_builds_are_pinned() {
    check(
        "sift",
        &family(Family::Sift, 500),
        2,
        [
            (0x57b2_4aeb_9fe3_ff37, 86583),
            (0x2e38_1426_95c6_1fbb, 279435),
            (0x8d6e_6c1e_a9c5_677f, 64775),
            (0x5369_13a9_7716_bf6e, 158374),
            (0x41a5_65f9_f6fd_f3c9, 428052),
            (0xf83b_4206_f96a_13c8, 44581),
        ],
    );
}

#[test]
fn words_builds_are_pinned() {
    check(
        "words",
        &family(Family::Words, 500),
        3,
        [
            (0xaada_89e0_62f5_3f3b, 106363),
            (0x471f_cd89_84c0_e4be, 226063),
            (0x9598_5f49_97a3_11e5, 93010),
            (0x5243_b811_4f38_efe3, 171184),
            (0xd98c_0416_4226_0656, 529868),
            (0xfc4c_c1ab_db9a_c0a5, 38291),
        ],
    );
}

#[test]
fn integer_grid_builds_are_pinned() {
    // A 25 × 20 lattice: every point has 4 neighbours at 1, 4 at √2, …
    let rows: Vec<Vec<f32>> = (0..500)
        .map(|i| vec![(i % 25) as f32, (i / 25) as f32])
        .collect();
    check(
        "grid",
        &VectorSet::from_rows(&rows, L2),
        4,
        [
            (0x0559_22c4_c877_eac3, 98496),
            (0x4f2c_ab67_3829_95bf, 228788),
            (0x47e2_93e4_96d0_8fc0, 93197),
            (0x8ee5_5831_df0e_0938, 172737),
            (0x85a3_fa3b_76f6_e14d, 400211),
            (0x7d22_4d7f_9cb3_db2d, 33434),
        ],
    );
}

#[test]
fn duplicate_heavy_builds_are_pinned() {
    // 500 rows over at most 6 · 4 · 3 = 72 distinct points, so most
    // candidates of a list lie at distance 0 or tie with another.
    let rows: Vec<Vec<f32>> = (0..500usize)
        .map(|i| {
            let j = i.wrapping_mul(7919);
            vec![(j % 6) as f32, (j / 6 % 4) as f32, (j / 24 % 3) as f32]
        })
        .collect();
    check(
        "duplicates",
        &VectorSet::from_rows(&rows, L1),
        5,
        [
            (0x77e7_a395_dc1d_ee4d, 77404),
            (0xde2a_5a28_47f0_a2a4, 276028),
            (0xe8b9_d291_ebc2_a0ff, 68961),
            (0xe413_afe1_b67e_38d2, 205085),
            (0x4c58_9bb4_775f_9487, 570214),
            (0x3f25_1b8c_64b3_a39e, 47115),
        ],
    );
}
