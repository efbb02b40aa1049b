//! Degree-preserving surrogates: degree-based generation in its purest
//! form, from the paper's research agenda (§5).
//!
//! [`degree_surrogate`] rewires a graph with double-edge swaps, preserving
//! the degree sequence **exactly** while destroying all other structure.
//! Comparing a designed topology against its own surrogate isolates
//! precisely what the degree distribution does *not* capture — the
//! sharpest version of the paper's critique (§1), used by experiment E6.

use hot_graph::graph::{Graph, NodeId};
use rand::Rng;

/// Rewires `g` by attempted double-edge swaps: pick two edges `(a,b)` and
/// `(c,d)`, replace with `(a,d)` and `(c,b)` when that creates no
/// self-loop or duplicate edge. Every node keeps its exact degree.
///
/// `swaps_per_edge` controls mixing; ≥ 10 is conventionally "well mixed".
/// Node annotations are preserved; edge annotations are dropped (swapped
/// edges have no meaningful annotation).
pub fn degree_surrogate<N: Clone, E>(
    g: &Graph<N, E>,
    swaps_per_edge: usize,
    rng: &mut impl Rng,
) -> Graph<N, ()> {
    let m = g.edge_count();
    let mut edges: Vec<(u32, u32)> = g.edges().map(|(_, a, b, _)| (a.0, b.0)).collect();
    if m >= 2 {
        let mut present: std::collections::HashSet<(u32, u32)> =
            edges.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
        let attempts = m * swaps_per_edge;
        for _ in 0..attempts {
            let i = rng.random_range(0..m);
            let j = rng.random_range(0..m);
            if i == j {
                continue;
            }
            let (a, b) = edges[i];
            let (c, d) = edges[j];
            // Candidate: (a,d) and (c,b).
            if a == d || c == b {
                continue;
            }
            let k1 = (a.min(d), a.max(d));
            let k2 = (c.min(b), c.max(b));
            if present.contains(&k1) || present.contains(&k2) || k1 == k2 {
                continue;
            }
            present.remove(&(a.min(b), a.max(b)));
            present.remove(&(c.min(d), c.max(d)));
            present.insert(k1);
            present.insert(k2);
            edges[i] = (a, d);
            edges[j] = (c, b);
        }
    }
    let mut out: Graph<N, ()> = Graph::with_capacity(g.node_count(), m);
    for v in g.node_ids() {
        out.add_node(g.node_weight(v).clone());
    }
    for (a, b) in edges {
        out.add_edge(NodeId(a), NodeId(b), ());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_baselines::ba;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn surrogate_preserves_degree_sequence() {
        let g = ba::generate(300, 2, &mut StdRng::seed_from_u64(1));
        let s = degree_surrogate(&g, 10, &mut StdRng::seed_from_u64(2));
        assert_eq!(g.degree_sequence(), s.degree_sequence());
        assert_eq!(g.edge_count(), s.edge_count());
    }

    #[test]
    fn surrogate_actually_rewires() {
        let g = ba::generate(300, 2, &mut StdRng::seed_from_u64(3));
        let s = degree_surrogate(&g, 10, &mut StdRng::seed_from_u64(4));
        // Count common edges; a well-mixed surrogate shares few.
        let original: std::collections::HashSet<(usize, usize)> = g
            .edges()
            .map(|(_, a, b, _)| (a.index().min(b.index()), a.index().max(b.index())))
            .collect();
        let common = s
            .edges()
            .filter(|(_, a, b, _)| {
                original.contains(&(a.index().min(b.index()), a.index().max(b.index())))
            })
            .count();
        assert!(
            (common as f64) < 0.5 * g.edge_count() as f64,
            "only {}/{} edges rewired",
            g.edge_count() - common,
            g.edge_count()
        );
    }

    #[test]
    fn surrogate_keeps_simple_graph() {
        let g = ba::generate(200, 3, &mut StdRng::seed_from_u64(5));
        let s = degree_surrogate(&g, 10, &mut StdRng::seed_from_u64(6));
        let mut seen = std::collections::HashSet::new();
        for (_, a, b, _) in s.edges() {
            assert_ne!(a, b, "self-loop created");
            assert!(
                seen.insert((a.index().min(b.index()), a.index().max(b.index()))),
                "duplicate edge created"
            );
        }
    }

    #[test]
    fn tiny_graphs_pass_through() {
        let mut g: Graph<(), f64> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1.0);
        let s = degree_surrogate(&g, 10, &mut StdRng::seed_from_u64(7));
        assert_eq!(s.edge_count(), 1);
        let empty: Graph<(), ()> = Graph::new();
        let se = degree_surrogate(&empty, 10, &mut StdRng::seed_from_u64(8));
        assert_eq!(se.node_count(), 0);
    }

    #[test]
    fn surrogate_deterministic_given_seed() {
        let g = ba::generate(150, 2, &mut StdRng::seed_from_u64(10));
        let a = degree_surrogate(&g, 5, &mut StdRng::seed_from_u64(11));
        let b = degree_surrogate(&g, 5, &mut StdRng::seed_from_u64(11));
        let edges = |x: &Graph<(), ()>| -> Vec<(u32, u32)> {
            x.edges().map(|(_, a, b, _)| (a.0, b.0)).collect()
        };
        assert_eq!(edges(&a), edges(&b));
    }
}
