//! Hop-count path metrics: average path length, diameter, and the hop
//! histogram (the "hop plot" of Faloutsos et al.).
//!
//! For graphs beyond `EXACT_LIMIT` nodes the metrics are estimated from a
//! deterministic stride sample of BFS sources, keeping reports
//! reproducible without an RNG. The BFS sweep runs on the CSR view
//! across all available cores; every aggregate is integer-valued, so the
//! parallel result is identical to the serial one.

use hot_graph::csr::CsrGraph;
use hot_graph::graph::{Graph, NodeId};
use hot_graph::parallel::{default_threads, par_path_summary};

/// Below this node count, all-sources BFS is exact.
const EXACT_LIMIT: usize = 2000;
/// Number of BFS sources sampled above `EXACT_LIMIT`.
const SAMPLE_SOURCES: usize = 200;

/// Path metrics over the reachable pairs of a graph.
#[derive(Clone, Debug)]
pub struct PathMetrics {
    /// Mean hop distance over sampled reachable ordered pairs.
    pub mean_distance: f64,
    /// Largest observed hop distance (exact diameter when exhaustive).
    pub diameter: u32,
    /// `hist[h]` = number of sampled ordered pairs at distance `h` (h ≥ 1).
    pub hop_histogram: Vec<usize>,
    /// Whether every pair was examined (vs. a sampled estimate).
    pub exact: bool,
}

/// Deterministic BFS source set: all nodes when small, else an evenly
/// strided sample.
fn sources<N, E>(g: &Graph<N, E>) -> (Vec<NodeId>, bool) {
    let n = g.node_count();
    if n <= EXACT_LIMIT {
        (g.node_ids().collect(), true)
    } else {
        let stride = n / SAMPLE_SOURCES;
        (
            (0..n)
                .step_by(stride.max(1))
                .map(|i| NodeId(i as u32))
                .collect(),
            false,
        )
    }
}

/// Computes path metrics. Unreachable pairs are skipped (metrics are
/// per-component); the empty graph yields zeros.
pub fn path_metrics<N, E>(g: &Graph<N, E>) -> PathMetrics {
    let (srcs, exact) = sources(g);
    let summary = par_path_summary(&CsrGraph::from_graph(g), &srcs, default_threads());
    PathMetrics {
        mean_distance: summary.mean_distance(),
        diameter: summary.diameter,
        hop_histogram: summary.hop_histogram,
        exact,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_graph::graph::Graph;

    #[test]
    fn path_graph_metrics() {
        // 0-1-2-3: distances 1,2,3,1,2,1 per unordered pair; ordered
        // doubles the counts but not the mean.
        let g: Graph<(), ()> = Graph::from_edges(4, vec![(0, 1, ()), (1, 2, ()), (2, 3, ())]);
        let m = path_metrics(&g);
        assert!(m.exact);
        assert_eq!(m.diameter, 3);
        assert!((m.mean_distance - 10.0 / 6.0).abs() < 1e-12);
        assert_eq!(m.hop_histogram[1], 6); // ordered pairs at distance 1
        assert_eq!(m.hop_histogram[3], 2);
    }

    #[test]
    fn star_diameter_two() {
        let g: Graph<(), ()> = Graph::from_edges(6, (1..6).map(|i| (0, i, ())).collect::<Vec<_>>());
        let m = path_metrics(&g);
        assert_eq!(m.diameter, 2);
    }

    #[test]
    fn disconnected_pairs_skipped() {
        let g: Graph<(), ()> = Graph::from_edges(4, vec![(0, 1, ()), (2, 3, ())]);
        let m = path_metrics(&g);
        assert_eq!(m.diameter, 1);
        assert!((m.mean_distance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_zeros() {
        let g: Graph<(), ()> = Graph::new();
        let m = path_metrics(&g);
        assert_eq!(m.mean_distance, 0.0);
        assert_eq!(m.diameter, 0);
    }

    #[test]
    fn large_graph_sampled() {
        // A 3000-node path triggers sampling and still measures a large
        // diameter.
        let edges: Vec<(usize, usize, ())> = (0..2999).map(|i| (i, i + 1, ())).collect();
        let g: Graph<(), ()> = Graph::from_edges(3000, edges);
        let m = path_metrics(&g);
        assert!(!m.exact);
        assert!(m.diameter >= 2900, "sampled diameter {}", m.diameter);
    }
}
