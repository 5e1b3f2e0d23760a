//! HNSW — hierarchical navigable small world \[Malkov & Yashunin, TPAMI'20\].
//!
//! The paper deliberately *excludes* HNSW from its evaluation (§3): the
//! hierarchy exists to route a query from a random entry point toward its
//! neighborhood, but in the DOD problem the query *is* a dataset object, so
//! every traversal already starts inside its own neighborhood and the upper
//! layers are dead weight. We implement HNSW anyway as an extension, so the
//! claim can be verified empirically (`experiments hnsw` and the tests
//! below): Algorithm 1 on HNSW's bottom layer performs like NSW while the
//! hierarchy adds build time and memory.

use crate::graph::{GraphKind, ProximityGraph};
use crate::nsw::beam_search;
use crate::visit::VisitMarks;
use dod_metrics::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for [`build`].
#[derive(Debug, Clone)]
pub struct HnswParams {
    /// Links per node on upper layers (`M`); the bottom layer allows `2M`.
    pub m: usize,
    /// Beam width during construction (`efConstruction`).
    pub ef_construction: usize,
    /// RNG seed.
    pub seed: u64,
}

impl HnswParams {
    /// Memory-matched (at layer 0) to a KGraph of degree `k`.
    pub fn matching_kgraph(k: usize) -> Self {
        HnswParams {
            m: (k / 2).max(3),
            ef_construction: k.max(16),
            seed: 0,
        }
    }
}

/// The hierarchical index: per layer, adjacency lists over the node subset
/// present at that layer (index by global node id; absent nodes are empty).
pub struct Hnsw {
    /// `layers[l][node]` = neighbors of `node` at layer `l`.
    pub layers: Vec<Vec<Vec<u32>>>,
    /// Highest layer of each node.
    pub levels: Vec<u8>,
    /// Entry point (a node on the top layer).
    pub entry: u32,
}

impl Hnsw {
    /// Bytes held by all layers (for the memory comparison).
    pub fn size_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|layer| {
                layer
                    .iter()
                    .map(|l| l.len() * 4 + std::mem::size_of::<Vec<u32>>())
                    .sum::<usize>()
            })
            .sum()
    }

    /// Extracts the bottom layer as a flat proximity graph usable by the
    /// DOD algorithm (kind `Nsw`: no pivots, no exact lists).
    pub fn bottom_layer_graph(&self) -> ProximityGraph {
        let n = self.levels.len();
        let mut g = ProximityGraph::new(n, GraphKind::Nsw);
        g.adj = self.layers[0].clone();
        g
    }
}

/// [`beam_search`] over one layer from `entry`, as a new walk of `marks`.
/// Returns up to `ef` `(dist, id)` ascending.
fn search_layer<D: Dataset + ?Sized>(
    layer: &[Vec<u32>],
    data: &D,
    query: usize,
    entry: u32,
    ef: usize,
    marks: &mut VisitMarks,
) -> Vec<(f64, u32)> {
    marks.begin();
    beam_search(
        layer,
        &[entry],
        ef,
        |v| marks.mark(v),
        |v| Some(data.dist(query, v as usize)),
    )
    .0
}

/// Builds the hierarchical index by incremental insertion.
pub fn build<D: Dataset + ?Sized>(data: &D, params: &HnswParams) -> Hnsw {
    let n = data.len();
    let mut hnsw = Hnsw {
        layers: vec![vec![Vec::new(); n]],
        levels: vec![0; n],
        entry: 0,
    };
    if n == 0 {
        return hnsw;
    }
    let mut rng = StdRng::seed_from_u64(params.seed);
    let ml = 1.0 / (params.m.max(2) as f64).ln();
    let mut marks = VisitMarks::new(n);

    for i in 1..n {
        let level = ((-rng.gen_range(f64::EPSILON..1.0f64).ln()) * ml).floor() as usize;
        hnsw.levels[i] = level.min(31) as u8;
        while hnsw.layers.len() <= level {
            hnsw.layers.push(vec![Vec::new(); n]);
        }
        let top = hnsw.layers.len() - 1;
        let entry_level = hnsw.levels[hnsw.entry as usize] as usize;
        let mut cur = hnsw.entry;
        // Greedy descent through layers above the insertion level.
        for l in ((level + 1)..=entry_level.min(top)).rev() {
            let best = search_layer(&hnsw.layers[l], data, i, cur, 1, &mut marks);
            if let Some(&(_, v)) = best.first() {
                cur = v;
            }
        }
        // Insert with beam search on each layer from min(level, entry) down.
        for l in (0..=level.min(entry_level)).rev() {
            let found = search_layer(
                &hnsw.layers[l],
                data,
                i,
                cur,
                params.ef_construction,
                &mut marks,
            );
            let max_links = if l == 0 { params.m * 2 } else { params.m };
            for &(_, v) in found.iter().take(max_links) {
                let layer = &mut hnsw.layers[l];
                if !layer[i].contains(&v) {
                    layer[i].push(v);
                }
                if !layer[v as usize].contains(&(i as u32)) {
                    layer[v as usize].push(i as u32);
                    // Shrink over-full neighbor lists, keeping the closest.
                    if layer[v as usize].len() > max_links * 2 {
                        let mut with_d: Vec<(f64, u32)> = layer[v as usize]
                            .iter()
                            .map(|&w| (data.dist(v as usize, w as usize), w))
                            .collect();
                        with_d.sort_by(|a, b| a.0.total_cmp(&b.0));
                        layer[v as usize] =
                            with_d.into_iter().take(max_links).map(|(_, w)| w).collect();
                    }
                }
            }
            if let Some(&(_, v)) = found.first() {
                cur = v;
            }
        }
        if level > entry_level {
            hnsw.entry = i as u32;
        }
    }
    hnsw
}

#[cfg(test)]
mod tests {
    use super::*;
    use dod_metrics::{VectorSet, L2};

    fn random_points(n: usize, seed: u64) -> VectorSet<L2> {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|_| vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)])
            .collect();
        VectorSet::from_rows(&rows, L2)
    }

    #[test]
    fn builds_a_connected_bottom_layer() {
        let data = random_points(300, 1);
        let h = build(&data, &HnswParams::matching_kgraph(8));
        let g = h.bottom_layer_graph();
        g.assert_invariants();
        assert_eq!(g.connected_components(), 1);
    }

    #[test]
    fn upper_layers_are_sparser() {
        let data = random_points(800, 2);
        let h = build(&data, &HnswParams::matching_kgraph(8));
        assert!(h.layers.len() > 1, "no hierarchy emerged at n=800");
        let occupancy = |l: usize| h.layers[l].iter().filter(|adj| !adj.is_empty()).count();
        for l in 1..h.layers.len() {
            assert!(
                occupancy(l) < occupancy(l - 1).max(1),
                "layer {l} not sparser"
            );
        }
    }

    #[test]
    fn hierarchy_costs_memory_over_flat_bottom_layer() {
        let data = random_points(600, 3);
        let h = build(&data, &HnswParams::matching_kgraph(8));
        let flat = h.bottom_layer_graph();
        assert!(h.size_bytes() > flat.size_bytes());
    }

    #[test]
    fn links_are_local() {
        let data = random_points(400, 4);
        let h = build(&data, &HnswParams::matching_kgraph(6));
        let g = h.bottom_layer_graph();
        let mut link = (0.0, 0usize);
        for u in 0..400 {
            for &v in &g.adj[u] {
                link = (link.0 + data.dist(u, v as usize), link.1 + 1);
            }
        }
        let link_mean = link.0 / link.1 as f64;
        // Mean pairwise distance of uniform points in [-1,1]^2 is ~1.03.
        assert!(link_mean < 0.5, "links not local: {link_mean}");
    }

    #[test]
    fn deterministic_per_seed() {
        let data = random_points(200, 5);
        let p = HnswParams::matching_kgraph(6);
        let a = build(&data, &p);
        let b = build(&data, &p);
        assert_eq!(a.layers[0], b.layers[0]);
        assert_eq!(a.levels, b.levels);
    }

    #[test]
    fn tiny_inputs() {
        let data = random_points(0, 0);
        let h = build(&data, &HnswParams::matching_kgraph(4));
        assert_eq!(h.levels.len(), 0);
        let data = random_points(2, 0);
        let h = build(&data, &HnswParams::matching_kgraph(4));
        assert!(h.layers[0][0].contains(&1));
    }
}
