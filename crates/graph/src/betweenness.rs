//! Brandes' algorithm for betweenness centrality (unweighted).
//!
//! Betweenness feeds the hierarchy metrics: in optimization-designed
//! topologies load concentrates on a thin backbone, which shows up as an
//! extremely skewed betweenness distribution.
//!
//! The kernel itself lives in [`crate::csr`] (flat-array Brandes over a
//! [`CsrGraph`]) with the deterministic chunked accumulation of
//! [`crate::parallel`]; this entry point is the serial (1-thread) run of
//! that kernel, so [`crate::parallel::par_betweenness`] matches it
//! bit-for-bit at any thread count. Callers holding many graphs or
//! wanting parallelism should build the [`CsrGraph`] themselves.

use crate::csr::CsrGraph;
use crate::graph::Graph;
use crate::parallel::par_betweenness;

/// Betweenness centrality of every node, using unweighted (hop-count)
/// shortest paths.
///
/// Each unordered pair is counted once (the undirected convention: raw
/// dependencies are halved). Endpoints are excluded, so leaves score 0.
pub fn betweenness<N, E>(g: &Graph<N, E>) -> Vec<f64> {
    par_betweenness(&CsrGraph::from_graph(g), 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    #[test]
    fn path_center_dominates() {
        // 0-1-2-3-4: center node 2 lies on 1*3 + 2*2 = ... let's check exact:
        // pairs through 2: (0,3),(0,4),(1,3),(1,4) = 4
        let g: Graph<(), ()> =
            Graph::from_edges(5, vec![(0, 1, ()), (1, 2, ()), (2, 3, ()), (3, 4, ())]);
        let b = betweenness(&g);
        assert!((b[2] - 4.0).abs() < 1e-9);
        // node 1 lies on (0,2),(0,3),(0,4) = 3 pairs
        assert!((b[1] - 3.0).abs() < 1e-9);
        assert_eq!(b[0], 0.0);
        assert_eq!(b[4], 0.0);
    }

    #[test]
    fn star_center_covers_all_pairs() {
        let g: Graph<(), ()> = Graph::from_edges(5, (1..5).map(|i| (0, i, ())).collect::<Vec<_>>());
        let b = betweenness(&g);
        // 4 leaves -> C(4,2) = 6 pairs all through the hub.
        assert!((b[0] - 6.0).abs() < 1e-9);
        for leaf in 1..5 {
            assert_eq!(b[leaf], 0.0);
        }
    }

    #[test]
    fn cycle_symmetric() {
        let g: Graph<(), ()> =
            Graph::from_edges(4, vec![(0, 1, ()), (1, 2, ()), (2, 3, ()), (3, 0, ())]);
        let b = betweenness(&g);
        for v in 0..4 {
            assert!(
                (b[v] - b[0]).abs() < 1e-9,
                "cycle betweenness should be uniform"
            );
        }
        // Each opposite pair has 2 shortest paths, contributing 1/2 to each
        // intermediate: node 0 is interior to exactly the pair (1,3) with
        // multiplicity 1/2.
        assert!((b[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn split_paths_share_credit() {
        // Two parallel 2-hop routes 0-1-3 and 0-2-3.
        let g: Graph<(), ()> =
            Graph::from_edges(4, vec![(0, 1, ()), (0, 2, ()), (1, 3, ()), (2, 3, ())]);
        let b = betweenness(&g);
        assert!((b[1] - 0.5).abs() < 1e-9);
        assert!((b[2] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn disconnected_ok() {
        let g: Graph<(), ()> = Graph::from_edges(4, vec![(0, 1, ()), (2, 3, ())]);
        let b = betweenness(&g);
        assert!(b.iter().all(|&x| x == 0.0));
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use crate::graph::{Graph, NodeId};
    use crate::traversal::{bfs_distances, is_connected};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Identity: on any connected graph, the total betweenness equals
        /// the total interior length of shortest paths,
        /// Σ_v B(v) = Σ_{u<w} (d(u, w) − 1).
        #[test]
        fn betweenness_sums_to_path_interiors(
            n in 2usize..10,
            extra in proptest::collection::vec((0usize..10, 0usize..10), 0..16),
        ) {
            let mut g: Graph<(), f64> = Graph::new();
            for _ in 0..n {
                g.add_node(());
            }
            // Spanning path for connectivity, then extra simple edges.
            for i in 0..n - 1 {
                g.add_edge(NodeId(i as u32), NodeId(i as u32 + 1), 1.0);
            }
            for (a, b) in extra {
                let (a, b) = (a % n, b % n);
                if a != b && g.find_edge(NodeId(a as u32), NodeId(b as u32)).is_none() {
                    g.add_edge(NodeId(a as u32), NodeId(b as u32), 1.0);
                }
            }
            prop_assert!(is_connected(&g));
            let total_b: f64 = betweenness(&g).iter().sum();
            let mut interior = 0.0;
            for u in 0..n {
                let dist = bfs_distances(&g, NodeId(u as u32));
                for d in &dist[u + 1..] {
                    interior += d.expect("connected") as f64 - 1.0;
                }
            }
            prop_assert!((total_b - interior).abs() < 1e-6,
                "sum B = {} vs interior length {}", total_b, interior);
        }
    }
}
