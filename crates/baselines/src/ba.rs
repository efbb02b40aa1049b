//! Barabási–Albert preferential attachment (reference \[7\] in the paper).
//!
//! The flagship *degree-based* generator: each arriving node attaches `m`
//! edges to existing nodes with probability proportional to their current
//! degree, yielding a power-law degree distribution with exponent ≈ 3.
//! The paper's critique: matching that one statistic says nothing about
//! geography, cost, or capacity — which experiment E6 makes measurable.

use hot_graph::graph::{Graph, NodeId};
use rand::Rng;

/// Generates a BA graph with `n` nodes and `m` edges per arrival.
///
/// Starts from a seed clique of `m + 1` nodes. Attachment is implemented
/// with the standard repeated-endpoint list, which realizes exact
/// degree-proportional sampling. Parallel edges from one arrival are
/// avoided by resampling.
///
/// # Panics
///
/// Panics if `m == 0` or `n < m + 1`.
pub fn generate(n: usize, m: usize, rng: &mut impl Rng) -> Graph<(), ()> {
    assert!(m >= 1, "m must be at least 1");
    assert!(n > m, "need at least m + 1 = {} nodes", m + 1);
    let mut g = Graph::with_capacity(n, n * m);
    // `endpoints` holds each node id once per unit of degree.
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * m);
    for _ in 0..m + 1 {
        g.add_node(());
    }
    for a in 0..m + 1 {
        for b in a + 1..m + 1 {
            g.add_edge(NodeId(a as u32), NodeId(b as u32), ());
            endpoints.push(a as u32);
            endpoints.push(b as u32);
        }
    }
    for _ in m + 1..n {
        let node = g.add_node(());
        let mut targets: Vec<u32> = Vec::with_capacity(m);
        while targets.len() < m {
            let t = endpoints[rng.random_range(0..endpoints.len())];
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        for t in targets {
            g.add_edge(node, NodeId(t), ());
            endpoints.push(node.0);
            endpoints.push(t);
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
    fn node_and_edge_counts() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generate(200, 2, &mut rng);
        assert_eq!(g.node_count(), 200);
        // Seed clique C(3,2) = 3 edges + 197 arrivals * 2.
        assert_eq!(g.edge_count(), 3 + 197 * 2);
        assert!(is_connected(&g));
    }

    #[test]
    fn m1_grows_tree() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generate(100, 1, &mut rng);
        assert_eq!(g.edge_count(), 1 + 98); // seed pair + 98 arrivals
        assert!(hot_graph::tree::is_tree(&g));
    }

    #[test]
    fn grows_hubs() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generate(2000, 2, &mut rng);
        let max_deg = g.degree_sequence().into_iter().max().unwrap();
        // A BA hub should be far above the mean degree (≈ 4).
        assert!(max_deg > 40, "max degree {}", max_deg);
    }

    #[test]
    fn no_parallel_edges_per_arrival() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generate(300, 3, &mut rng);
        let mut seen = std::collections::HashSet::new();
        for (_, a, b, _) in g.edges() {
            let key = (a.index().min(b.index()), a.index().max(b.index()));
            assert!(seen.insert(key), "duplicate edge {:?}", key);
        }
    }

    #[test]
    #[should_panic(expected = "m must be at least 1")]
    fn zero_m_rejected() {
        generate(10, 0, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate(150, 2, &mut StdRng::seed_from_u64(5));
        let b = generate(150, 2, &mut StdRng::seed_from_u64(5));
        assert_eq!(a.degree_sequence(), b.degree_sequence());
    }
}
