//! The Waxman random topology generator (1988).
//!
//! Nodes are placed uniformly in a region; an edge between `u` and `v`
//! appears with probability
//!
//! ```text
//!     P(u, v) = β · exp(−d(u, v) / (α · L))
//! ```
//!
//! where `L` is the maximum distance in the region. The classic
//! "structural but flat" generator: geography without hierarchy or
//! economics — one of the strawmen the paper's framework replaces.

use hot_geo::bbox::BoundingBox;
use hot_geo::point::Point;
use hot_graph::graph::{Graph, NodeId};
use rand::Rng;

/// Waxman parameters.
#[derive(Clone, Copy, Debug)]
pub struct WaxmanConfig {
    /// Number of nodes.
    pub n: usize,
    /// Distance-decay scale `α ∈ (0, 1]`: larger = longer edges likelier.
    pub alpha: f64,
    /// Overall edge density `β ∈ (0, 1]`.
    pub beta: f64,
}

impl Default for WaxmanConfig {
    fn default() -> Self {
        WaxmanConfig {
            n: 100,
            alpha: 0.15,
            beta: 0.4,
        }
    }
}

/// Placement region.
const REGION: BoundingBox = BoundingBox::unit();

/// Generates a Waxman graph; node annotations are the placements.
pub fn generate(config: &WaxmanConfig, rng: &mut impl Rng) -> Graph<Point, f64> {
    assert!(config.alpha > 0.0 && config.alpha <= 1.0, "alpha in (0,1]");
    assert!(config.beta > 0.0 && config.beta <= 1.0, "beta in (0,1]");
    let l = REGION.diagonal();
    let points: Vec<Point> = (0..config.n).map(|_| REGION.sample_uniform(rng)).collect();
    let mut g = Graph::with_capacity(config.n, config.n * 4);
    for p in &points {
        g.add_node(*p);
    }
    for a in 0..config.n {
        for b in a + 1..config.n {
            let d = points[a].dist(&points[b]);
            let p = config.beta * (-d / (config.alpha * l)).exp();
            if rng.random_range(0.0..1.0) < p {
                g.add_edge(NodeId(a as u32), NodeId(b as u32), d);
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn nodes_in_region_edges_weighted_by_distance() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generate(&WaxmanConfig::default(), &mut rng);
        assert_eq!(g.node_count(), 100);
        for (e, a, b, w) in g.edges() {
            let d = g.node_weight(a).dist(g.node_weight(b));
            assert!((d - w).abs() < 1e-12, "edge {:?} weight mismatch", e);
        }
    }

    #[test]
    fn short_edges_dominate() {
        let mut rng = StdRng::seed_from_u64(2);
        let config = WaxmanConfig {
            n: 300,
            ..WaxmanConfig::default()
        };
        let g = generate(&config, &mut rng);
        assert!(g.edge_count() > 100);
        let mean_edge_len = g.total_edge_weight(|w| *w) / g.edge_count() as f64;
        // Mean distance between uniform points in the unit square ≈ 0.52;
        // Waxman with alpha = 0.15 must connect far shorter pairs.
        assert!(mean_edge_len < 0.35, "mean edge length {}", mean_edge_len);
    }

    #[test]
    fn beta_scales_density() {
        let sparse = generate(
            &WaxmanConfig {
                beta: 0.1,
                n: 200,
                ..WaxmanConfig::default()
            },
            &mut StdRng::seed_from_u64(3),
        );
        let dense = generate(
            &WaxmanConfig {
                beta: 0.9,
                n: 200,
                ..WaxmanConfig::default()
            },
            &mut StdRng::seed_from_u64(3),
        );
        assert!(dense.edge_count() > 3 * sparse.edge_count());
    }

    #[test]
    #[should_panic(expected = "alpha in (0,1]")]
    fn bad_alpha_rejected() {
        generate(
            &WaxmanConfig {
                alpha: 0.0,
                ..WaxmanConfig::default()
            },
            &mut StdRng::seed_from_u64(0),
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate(&WaxmanConfig::default(), &mut StdRng::seed_from_u64(7));
        let b = generate(&WaxmanConfig::default(), &mut StdRng::seed_from_u64(7));
        assert_eq!(a.degree_sequence(), b.degree_sequence());
    }
}
