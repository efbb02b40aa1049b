//! Traceroute-style map inference and its sampling bias.
//!
//! §1 of the paper: "the available data are known to provide incomplete
//! router-level maps"; §3.2 leans on Rocketfuel-class measurement studies.
//! The measurement process: from `k` vantage routers, trace the
//! (shortest) forwarding path to every destination, and call the union
//! of observed links "the map". Comparing the inferred map against the
//! ground-truth topology quantifies both **coverage** (how much is
//! missed) and **bias** (how the degree distribution of the observed
//! subgraph differs from the truth — path unions over-sample
//! high-betweenness routers).
//!
//! This module holds the map type and the vantage choice; the campaign
//! engine that fills the map is [`crate::probe`].

use hot_graph::graph::{Graph, NodeId};

/// The result of a measurement campaign.
#[derive(Clone, Debug)]
pub struct InferredMap {
    /// Mask of observed nodes (ground-truth indexing).
    pub node_seen: Vec<bool>,
    /// Mask of observed links (ground-truth edge indexing).
    pub edge_seen: Vec<bool>,
    /// Fraction of true nodes observed.
    pub node_coverage: f64,
    /// Fraction of true links observed.
    pub edge_coverage: f64,
}

impl InferredMap {
    /// Materializes the inferred topology. Only *observed* links are
    /// included — an induced subgraph would over-report by keeping true
    /// links between observed routers that no traceroute ever crossed.
    pub fn to_graph<N: Clone, E: Clone>(&self, truth: &Graph<N, E>) -> Graph<N, E> {
        let mut out: Graph<N, E> = Graph::new();
        let mut mapping = vec![None; truth.node_count()];
        for v in truth.node_ids() {
            if self.node_seen[v.index()] {
                mapping[v.index()] = Some(out.add_node(truth.node_weight(v).clone()));
            }
        }
        for (e, a, b, w) in truth.edges() {
            if self.edge_seen[e.index()] {
                let (Some(na), Some(nb)) = (mapping[a.index()], mapping[b.index()]) else {
                    unreachable!("observed edges have observed endpoints");
                };
                out.add_edge(na, nb, w.clone());
            }
        }
        out
    }

    /// Degree sequence of the inferred topology: one entry per observed
    /// node in ascending ground-truth id order (the node order
    /// [`Self::to_graph`] emits), counting only observed links.
    /// Computed straight off the masks in O(n + m) — materializing the
    /// inferred graph first, as this used to do, made every call pay a
    /// full graph rebuild.
    pub fn degree_sequence<N, E>(&self, truth: &Graph<N, E>) -> Vec<u32> {
        let mut deg = vec![0u32; truth.node_count()];
        for (e, a, b, _) in truth.edges() {
            if self.edge_seen[e.index()] {
                deg[a.index()] += 1;
                deg[b.index()] += 1;
            }
        }
        (0..truth.node_count())
            .filter(|&v| self.node_seen[v])
            .map(|v| deg[v])
            .collect()
    }
}

/// Deterministic vantage choice: `k` nodes spread evenly over the id
/// space (the reproducibility convention used across the workspace).
pub fn strided_vantages<N, E>(g: &Graph<N, E>, k: usize) -> Vec<NodeId> {
    let n = g.node_count();
    if n == 0 || k == 0 {
        return Vec::new();
    }
    let k = k.min(n);
    (0..k).map(|i| NodeId((i * n / k) as u32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A latency-forwarding campaign on one worker.
    fn probe_map(
        g: &Graph<(), f64>,
        vantages: &[NodeId],
        destinations: Option<&[NodeId]>,
    ) -> InferredMap {
        crate::probe::infer_map_batched(g, vantages, destinations, |w| *w, 1).map
    }

    /// Square with a diagonal: shortest paths never use some edges.
    fn square_diag() -> Graph<(), f64> {
        Graph::from_edges(
            4,
            vec![
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 0, 1.0),
                (0, 2, 0.5),
            ],
        )
    }

    #[test]
    fn single_vantage_tree_coverage() {
        let g = square_diag();
        let map = probe_map(&g, &[NodeId(0)], None);
        // From node 0 with the cheap diagonal: paths 0-1, 0-2(diag), 0-3.
        assert_eq!(map.node_coverage, 1.0);
        let edges = map.edge_seen.iter().filter(|&&s| s).count();
        assert_eq!(edges, 3, "one vantage sees only its routing tree");
        assert!((map.edge_coverage - 0.6).abs() < 1e-12);
    }

    #[test]
    fn more_vantages_see_more() {
        let g = square_diag();
        let one = probe_map(&g, &[NodeId(0)], None);
        let three = probe_map(&g, &[NodeId(0), NodeId(1), NodeId(3)], None);
        assert!(three.edge_coverage >= one.edge_coverage);
    }

    #[test]
    fn inferred_graph_is_subgraph() {
        let g = square_diag();
        let map = probe_map(&g, &[NodeId(1)], None);
        let inferred = map.to_graph(&g);
        assert!(inferred.edge_count() <= g.edge_count());
        assert!(inferred.node_count() <= g.node_count());
        // Degree in the inferred map never exceeds the true degree.
        // (Computed once before the loop — recomputing the sequence per
        // node made this quadratic.)
        let true_degs = g.degree_sequence();
        let inferred_degs = inferred.degree_sequence();
        let mut observed_idx = 0usize;
        for v in 0..g.node_count() {
            if map.node_seen[v] {
                assert!(inferred_degs[observed_idx] <= true_degs[v]);
                observed_idx += 1;
            }
        }
    }

    /// The mask-based degree sequence equals the one obtained by
    /// materializing the inferred graph (the old implementation).
    #[test]
    fn degree_sequence_matches_materialized_graph() {
        let g = square_diag();
        for k in 1..=4 {
            let map = probe_map(&g, &strided_vantages(&g, k), None);
            assert_eq!(
                map.degree_sequence(&g),
                map.to_graph(&g).degree_sequence(),
                "k = {}",
                k
            );
        }
    }

    /// Out-of-range vantage and destination ids are skipped, not
    /// panicked on.
    #[test]
    fn out_of_range_ids_are_skipped() {
        let g = square_diag();
        let map = probe_map(&g, &[NodeId(99), NodeId(0)], None);
        let clean = probe_map(&g, &[NodeId(0)], None);
        assert_eq!(map.node_seen, clean.node_seen);
        assert_eq!(map.edge_seen, clean.edge_seen);
        let map = probe_map(&g, &[NodeId(0)], Some(&[NodeId(1), NodeId(42)]));
        let clean = probe_map(&g, &[NodeId(0)], Some(&[NodeId(1)]));
        assert_eq!(map.node_seen, clean.node_seen);
        assert_eq!(map.edge_seen, clean.edge_seen);
        // All-out-of-range campaign observes nothing.
        let map = probe_map(&g, &[NodeId(99)], None);
        assert_eq!(map.node_coverage, 0.0);
        assert!(map.edge_seen.iter().all(|&s| !s));
    }

    #[test]
    fn restricted_destinations() {
        let g = square_diag();
        let map = probe_map(&g, &[NodeId(0)], Some(&[NodeId(1)]));
        assert_eq!(map.edge_seen.iter().filter(|&&s| s).count(), 1);
        assert!(map.node_seen[0] && map.node_seen[1]);
        assert!(!map.node_seen[3]);
    }

    #[test]
    fn unreachable_destinations_skipped() {
        let g: Graph<(), f64> = Graph::from_edges(4, vec![(0, 1, 1.0), (2, 3, 1.0)]);
        let map = probe_map(&g, &[NodeId(0)], None);
        assert!(!map.node_seen[2]);
        assert!((map.node_coverage - 0.5).abs() < 1e-12);
    }

    #[test]
    fn strided_vantages_spread() {
        let g = square_diag();
        assert_eq!(strided_vantages(&g, 2), vec![NodeId(0), NodeId(2)]);
        assert_eq!(strided_vantages(&g, 10).len(), 4);
        let empty: Graph<(), f64> = Graph::new();
        assert!(strided_vantages(&empty, 3).is_empty());
    }
}
