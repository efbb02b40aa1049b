//! Degree–degree correlation: Newman's assortativity coefficient.
//!
//! Two graphs with identical degree sequences can wire high-degree nodes
//! to each other (assortative) or to leaves (disassortative) — a
//! structural dimension the degree distribution cannot see, and one on
//! which measured router-level maps (disassortative: backbone routers
//! fan out to access gear) famously disagree with preferential-attachment
//! models. Standard reference: Newman (2002).

use hot_graph::graph::Graph;

/// Newman's degree assortativity coefficient `r ∈ [−1, 1]`.
///
/// Pearson correlation of the degrees at either end of each edge
/// (each undirected edge contributes both orientations). Returns `None`
/// for graphs with no edges or zero degree variance at edge ends
/// (e.g. regular graphs, stars with a single edge).
pub fn assortativity<N, E>(g: &Graph<N, E>) -> Option<f64> {
    let m = g.edge_count();
    if m == 0 {
        return None;
    }
    let deg = g.degree_sequence();
    // Accumulate over both orientations.
    let mut sum_xy = 0.0;
    let mut sum_x = 0.0;
    let mut sum_x2 = 0.0;
    let count = (2 * m) as f64;
    for (_, a, b, _) in g.edges() {
        let (da, db) = (deg[a.index()] as f64, deg[b.index()] as f64);
        sum_xy += 2.0 * da * db;
        sum_x += da + db;
        sum_x2 += da * da + db * db;
    }
    let mean = sum_x / count;
    let var = sum_x2 / count - mean * mean;
    if var <= 1e-12 {
        return None;
    }
    let cov = sum_xy / count - mean * mean;
    Some(cov / var)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_graph::graph::Graph;

    fn star(n: usize) -> Graph<(), ()> {
        Graph::from_edges(n, (1..n).map(|i| (0, i, ())).collect::<Vec<_>>())
    }

    #[test]
    fn star_is_maximally_disassortative() {
        // Every edge joins the hub (degree n-1) to a leaf (degree 1):
        // r = -1.
        let r = assortativity(&star(10)).unwrap();
        assert!((r + 1.0).abs() < 1e-9, "star assortativity {}", r);
    }

    #[test]
    fn regular_graph_undefined() {
        // Cycle: all degrees equal, zero variance.
        let g: Graph<(), ()> =
            Graph::from_edges(6, (0..6).map(|i| (i, (i + 1) % 6, ())).collect::<Vec<_>>());
        assert!(assortativity(&g).is_none());
        let empty: Graph<(), ()> = Graph::new();
        assert!(assortativity(&empty).is_none());
    }

    #[test]
    fn two_hub_barbell_is_assortative_leaning() {
        // Two hubs joined to each other, each with pendant leaves; the
        // hub-hub edge pushes r above the pure-star value.
        let mut g: Graph<(), ()> = Graph::new();
        let h1 = g.add_node(());
        let h2 = g.add_node(());
        g.add_edge(h1, h2, ());
        for _ in 0..3 {
            let l = g.add_node(());
            g.add_edge(h1, l, ());
            let l = g.add_node(());
            g.add_edge(h2, l, ());
        }
        let r = assortativity(&g).unwrap();
        assert!(r > -1.0 && r < 0.0, "barbell r = {}", r);
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use hot_graph::graph::{Graph, NodeId};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Assortativity, when defined, is a correlation: r ∈ [−1, 1].
        #[test]
        fn ranges_hold(
            n in 3usize..14,
            extra in proptest::collection::vec((0usize..14, 0usize..14), 0..20),
        ) {
            let mut g: Graph<(), ()> = Graph::new();
            for _ in 0..n {
                g.add_node(());
            }
            for i in 0..n - 1 {
                g.add_edge(NodeId(i as u32), NodeId(i as u32 + 1), ());
            }
            for (a, b) in extra {
                let (a, b) = (a % n, b % n);
                if a != b && g.find_edge(NodeId(a as u32), NodeId(b as u32)).is_none() {
                    g.add_edge(NodeId(a as u32), NodeId(b as u32), ());
                }
            }
            if let Some(r) = assortativity(&g) {
                prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "r = {}", r);
            }
        }
    }
}
