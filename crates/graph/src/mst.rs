//! Minimum spanning trees and forests (Kruskal).
//!
//! The classic access-design formulations the paper cites (Gavish 1991;
//! Balakrishnan et al. 1991) reduce to constrained MST variants; the
//! unconstrained MST here is both a building block for those and a baseline
//! in the buy-at-bulk cost comparison (experiment E4).

use crate::graph::{EdgeId, Graph, NodeId};
use crate::unionfind::UnionFind;

/// A spanning tree or forest expressed as a set of edges of the host graph.
#[derive(Clone, Debug)]
pub struct SpanningForest {
    /// Selected edge ids, in the order the algorithm accepted them.
    pub edges: Vec<EdgeId>,
    /// Sum of the selected edges' weights.
    pub total_weight: f64,
    /// Number of connected components of the forest (1 for a spanning tree
    /// of a connected graph).
    pub components: usize,
}

impl SpanningForest {
    /// Whether the forest spans a connected graph as a single tree.
    pub fn is_spanning_tree(&self, node_count: usize) -> bool {
        self.components == 1 && self.edges.len() + 1 == node_count
    }
}

/// Kruskal's algorithm. Works on disconnected graphs (returns a minimum
/// spanning forest). Ties are broken by edge id, so results are
/// deterministic.
pub fn kruskal<N, E>(g: &Graph<N, E>, mut weight: impl FnMut(&E) -> f64) -> SpanningForest {
    let mut order: Vec<(f64, EdgeId, NodeId, NodeId)> =
        g.edges().map(|(e, a, b, w)| (weight(w), e, a, b)).collect();
    order.sort_by(|x, y| {
        x.0.partial_cmp(&y.0)
            .expect("NaN weight in kruskal")
            .then(x.1.cmp(&y.1))
    });
    let mut uf = UnionFind::new(g.node_count());
    let mut edges = Vec::new();
    let mut total = 0.0;
    for (w, e, a, b) in order {
        if uf.union(a.index(), b.index()) {
            edges.push(e);
            total += w;
            if uf.set_count() == 1 {
                break;
            }
        }
    }
    SpanningForest {
        edges,
        total_weight: total,
        components: uf.set_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use proptest::prelude::*;

    fn sample() -> Graph<(), f64> {
        Graph::from_edges(
            5,
            vec![
                (0, 1, 1.0),
                (0, 2, 4.0),
                (1, 2, 2.0),
                (1, 3, 6.0),
                (2, 3, 3.0),
                (3, 4, 5.0),
                (2, 4, 7.0),
            ],
        )
    }

    #[test]
    fn kruskal_known_instance() {
        let g = sample();
        let f = kruskal(&g, |w| *w);
        assert!(f.is_spanning_tree(5));
        assert!((f.total_weight - 11.0).abs() < 1e-12); // 1+2+3+5
    }

    #[test]
    fn kruskal_forest_on_disconnected() {
        let g: Graph<(), f64> = Graph::from_edges(4, vec![(0, 1, 1.0), (2, 3, 2.0)]);
        let f = kruskal(&g, |w| *w);
        assert_eq!(f.components, 2);
        assert_eq!(f.edges.len(), 2);
        assert!(!f.is_spanning_tree(4));
    }

    #[test]
    fn empty_and_singleton() {
        let g: Graph<(), f64> = Graph::new();
        let f = kruskal(&g, |w| *w);
        assert!(f.edges.is_empty());
        assert_eq!(f.components, 0);

        let mut g1: Graph<(), f64> = Graph::new();
        g1.add_node(());
        let f1 = kruskal(&g1, |w| *w);
        assert!(f1.is_spanning_tree(1));
    }

    /// Exhaustive minimum over all spanning trees of a small graph, for use
    /// as an oracle. Enumerates edge subsets of size n-1.
    fn brute_force_mst_weight(g: &Graph<(), f64>) -> Option<f64> {
        use crate::traversal::is_connected;
        let m = g.edge_count();
        let n = g.node_count();
        if n == 0 {
            return Some(0.0);
        }
        let need = n - 1;
        if m < need {
            return None;
        }
        let mut best: Option<f64> = None;
        // Iterate over all bitmasks with exactly `need` bits set.
        for mask in 0u32..(1u32 << m) {
            if mask.count_ones() as usize != need {
                continue;
            }
            let keep: Vec<bool> = (0..m).map(|i| mask & (1 << i) != 0).collect();
            let sub = g.edge_subgraph(&keep);
            if is_connected(&sub) {
                let w = sub.total_edge_weight(|x| *x);
                best = Some(match best {
                    Some(b) if b <= w => b,
                    _ => w,
                });
            }
        }
        best
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Kruskal equals the exhaustive optimum on small connected graphs.
        #[test]
        fn kruskal_is_minimum(
            n in 2usize..6,
            extra in proptest::collection::vec((0usize..6, 0usize..6, 0.1f64..10.0), 0..8),
        ) {
            let mut g: Graph<(), f64> = Graph::new();
            for _ in 0..n {
                g.add_node(());
            }
            // Spanning path guarantees connectivity.
            for i in 0..n - 1 {
                g.add_edge(NodeId(i as u32), NodeId(i as u32 + 1), 1.0 + i as f64);
            }
            for (a, b, w) in extra {
                let (a, b) = (a % n, b % n);
                if a != b && g.edge_count() < 12 {
                    g.add_edge(NodeId(a as u32), NodeId(b as u32), w);
                }
            }
            let f = kruskal(&g, |w| *w);
            prop_assert!(f.is_spanning_tree(n));
            let oracle = brute_force_mst_weight(&g).unwrap();
            prop_assert!((f.total_weight - oracle).abs() < 1e-9,
                "kruskal {} vs brute force {}", f.total_weight, oracle);
        }
    }
}
