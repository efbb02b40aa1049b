//! BRITE-style hybrid generator (Medina–Lakhina–Matta–Byers, MASCOTS'01 —
//! reference \[23\] in the paper).
//!
//! BRITE combines incremental growth, preferential connectivity, and
//! geometric locality: nodes are placed in the plane (optionally with
//! skewed density), arrive one at a time, and attach `m` edges to
//! existing nodes with probability proportional to
//! `degree(j) · w(d(i, j))`, where `w` is a Waxman distance-decay factor.
//! It *interpolates* between BA (locality off) and Waxman-like growth
//! (preference off) — still descriptive: the knobs are fit to data, not
//! derived from costs. This generator runs with both on, at the
//! locality α = 0.2 every scenario uses.

use hot_geo::bbox::BoundingBox;
use hot_geo::point::Point;
use hot_graph::graph::{Graph, NodeId};
use rand::Rng;

/// BRITE-style parameters.
#[derive(Clone, Copy, Debug)]
pub struct BriteConfig {
    /// Final node count.
    pub n: usize,
}

impl Default for BriteConfig {
    fn default() -> Self {
        BriteConfig { n: 1000 }
    }
}

/// Edges per arriving node.
const M: usize = 2;
/// Waxman locality α of the distance-decay weight.
const LOCALITY_ALPHA: f64 = 0.2;
/// Placement region.
const REGION: BoundingBox = BoundingBox::unit();

/// Generates a BRITE-style graph; node annotations are placements.
///
/// # Panics
///
/// Panics if `n < 3` (the seed clique).
pub fn generate(config: &BriteConfig, rng: &mut impl Rng) -> Graph<Point, f64> {
    assert!(config.n > M, "need at least m + 1 nodes");
    let l = REGION.diagonal();
    let mut g: Graph<Point, f64> = Graph::with_capacity(config.n, config.n * M);
    // Seed clique of m + 1 placed nodes.
    let seed: Vec<NodeId> = (0..M + 1)
        .map(|_| g.add_node(REGION.sample_uniform(rng)))
        .collect();
    for a in 0..seed.len() {
        for b in a + 1..seed.len() {
            let d = g.node_weight(seed[a]).dist(g.node_weight(seed[b]));
            g.add_edge(seed[a], seed[b], d);
        }
    }
    for _ in M + 1..config.n {
        let p = REGION.sample_uniform(rng);
        // Attachment weights over existing nodes: degree preference
        // times Waxman locality.
        let existing = g.node_count();
        let mut weights: Vec<f64> = Vec::with_capacity(existing);
        for v in g.node_ids() {
            let pref = g.degree(v) as f64;
            let loc = (-g.node_weight(v).dist(&p) / (LOCALITY_ALPHA * l)).exp();
            weights.push(pref * loc);
        }
        let node = g.add_node(p);
        let mut chosen: Vec<usize> = Vec::with_capacity(M);
        for _ in 0..M {
            let total: f64 = weights
                .iter()
                .enumerate()
                .filter(|(i, _)| !chosen.contains(i))
                .map(|(_, w)| *w)
                .sum();
            let mut pick = rng.random_range(0.0..total.max(f64::MIN_POSITIVE));
            let mut target = None;
            for (i, w) in weights.iter().enumerate() {
                if chosen.contains(&i) {
                    continue;
                }
                pick -= w;
                if pick <= 0.0 {
                    target = Some(i);
                    break;
                }
            }
            let t = target.unwrap_or_else(|| {
                (0..existing)
                    .find(|i| !chosen.contains(i))
                    .expect("m <= existing")
            });
            chosen.push(t);
            let tv = NodeId(t as u32);
            let d = g.node_weight(tv).dist(&p);
            g.add_edge(node, tv, d);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_graph::traversal::is_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn counts_and_connectivity() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generate(&BriteConfig { n: 300 }, &mut rng);
        assert_eq!(g.node_count(), 300);
        // Seed clique on m+1=3 nodes has 3 edges; 297 arrivals add 2 each.
        assert_eq!(g.edge_count(), 3 + 297 * 2);
        assert!(is_connected(&g));
    }

    #[test]
    fn locality_shortens_edges() {
        let g = generate(&BriteConfig { n: 400 }, &mut StdRng::seed_from_u64(2));
        let mean = g.total_edge_weight(|w| *w) / g.edge_count() as f64;
        // Without locality, links join uniform points of the unit square,
        // whose mean distance is about 0.52.
        assert!(mean < 0.8 * 0.52, "mean edge length {}", mean);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = BriteConfig { n: 200 };
        let a = generate(&cfg, &mut StdRng::seed_from_u64(5));
        let b = generate(&cfg, &mut StdRng::seed_from_u64(5));
        assert_eq!(a.degree_sequence(), b.degree_sequence());
    }
}
