//! Clustering coefficients (Bu & Towsley use them to distinguish
//! power-law generators — reference \[8\] in the paper).

use hot_graph::graph::Graph;
use std::collections::HashSet;

/// Local clustering coefficient of each node: the fraction of its
/// neighbor pairs that are themselves adjacent. Nodes of degree < 2 score
/// 0 by convention. Parallel edges are collapsed for this computation.
pub fn local_clustering<N, E>(g: &Graph<N, E>) -> Vec<f64> {
    let n = g.node_count();
    let neighbor_sets: Vec<HashSet<u32>> = (0..n)
        .map(|v| {
            g.neighbors(hot_graph::graph::NodeId(v as u32))
                .map(|(u, _)| u.0)
                .collect()
        })
        .collect();
    (0..n)
        .map(|v| {
            let nbrs: Vec<u32> = neighbor_sets[v].iter().copied().collect();
            let k = nbrs.len();
            if k < 2 {
                return 0.0;
            }
            let mut closed = 0usize;
            for i in 0..k {
                for j in i + 1..k {
                    if neighbor_sets[nbrs[i] as usize].contains(&nbrs[j]) {
                        closed += 1;
                    }
                }
            }
            closed as f64 / (k * (k - 1) / 2) as f64
        })
        .collect()
}

/// Mean local clustering coefficient (Watts–Strogatz average).
pub fn mean_clustering<N, E>(g: &Graph<N, E>) -> f64 {
    let local = local_clustering(g);
    if local.is_empty() {
        0.0
    } else {
        local.iter().sum::<f64>() / local.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_graph::graph::Graph;

    #[test]
    fn triangle_is_fully_clustered() {
        let g: Graph<(), ()> = Graph::from_edges(3, vec![(0, 1, ()), (1, 2, ()), (0, 2, ())]);
        assert!(local_clustering(&g)
            .iter()
            .all(|&c| (c - 1.0).abs() < 1e-12));
        assert!((mean_clustering(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tree_has_zero_clustering() {
        let g: Graph<(), ()> =
            Graph::from_edges(5, vec![(0, 1, ()), (0, 2, ()), (1, 3, ()), (1, 4, ())]);
        assert_eq!(mean_clustering(&g), 0.0);
    }

    #[test]
    fn paw_graph_values() {
        // Triangle {0,1,2} with pendant 3 attached to 0.
        let g: Graph<(), ()> =
            Graph::from_edges(4, vec![(0, 1, ()), (1, 2, ()), (0, 2, ()), (0, 3, ())]);
        let local = local_clustering(&g);
        // Node 0 has 3 neighbors {1,2,3}; pairs: (1,2) closed of 3 -> 1/3.
        assert!((local[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((local[1] - 1.0).abs() < 1e-12);
        assert_eq!(local[3], 0.0);
    }

    #[test]
    fn parallel_edges_do_not_inflate() {
        let mut g: Graph<(), ()> = Graph::from_edges(3, vec![(0, 1, ()), (1, 2, ()), (0, 2, ())]);
        g.add_edge(hot_graph::graph::NodeId(0), hot_graph::graph::NodeId(1), ());
        assert!((mean_clustering(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph() {
        let g: Graph<(), ()> = Graph::new();
        assert_eq!(mean_clustering(&g), 0.0);
    }
}
