//! Maximum flow / minimum cut (Edmonds–Karp) on undirected graphs.
//!
//! Used by the resilience metric of Tangmunarunkit et al. (cited as \[30\])
//! and by the redundancy ablation (E9): a 2-connectivity requirement is
//! checked via min-cut ≥ 2 between node pairs.

use crate::graph::{Graph, NodeId};
use std::collections::VecDeque;

/// Maximum flow between `s` and `t`, treating each undirected edge as a
/// pair of directed arcs with capacity `cap(edge)` each direction.
///
/// Returns 0 for `s == t`.
pub fn max_flow<N, E>(
    g: &Graph<N, E>,
    s: NodeId,
    t: NodeId,
    mut cap: impl FnMut(&E) -> f64,
) -> f64 {
    if s == t {
        return 0.0;
    }
    let n = g.node_count();
    // Build a directed residual network: for undirected edge (a, b) with
    // capacity c we add arcs a->b and b->a each of capacity c, paired for
    // residual updates.
    let mut heads: Vec<NodeId> = Vec::new();
    let mut caps: Vec<f64> = Vec::new();
    let mut first_out: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (_, a, b, w) in g.edges() {
        let c = cap(w);
        debug_assert!(c >= 0.0, "negative capacity");
        let i = heads.len();
        heads.push(b);
        caps.push(c);
        heads.push(a);
        caps.push(c);
        first_out[a.index()].push(i);
        first_out[b.index()].push(i + 1);
    }
    let mut flow = 0.0;
    loop {
        // BFS for an augmenting path in the residual network.
        let mut pred_arc: Vec<Option<usize>> = vec![None; n];
        let mut seen = vec![false; n];
        seen[s.index()] = true;
        let mut queue = VecDeque::new();
        queue.push_back(s);
        'bfs: while let Some(v) = queue.pop_front() {
            for &arc in &first_out[v.index()] {
                if caps[arc] > 1e-12 {
                    let u = heads[arc];
                    if !seen[u.index()] {
                        seen[u.index()] = true;
                        pred_arc[u.index()] = Some(arc);
                        if u == t {
                            break 'bfs;
                        }
                        queue.push_back(u);
                    }
                }
            }
        }
        if !seen[t.index()] {
            break;
        }
        // Find bottleneck.
        let mut bottleneck = f64::INFINITY;
        let mut cur = t;
        while cur != s {
            let arc = pred_arc[cur.index()].expect("path exists");
            bottleneck = bottleneck.min(caps[arc]);
            cur = heads[arc ^ 1];
        }
        // Augment.
        let mut cur = t;
        while cur != s {
            let arc = pred_arc[cur.index()].expect("path exists");
            caps[arc] -= bottleneck;
            caps[arc ^ 1] += bottleneck;
            cur = heads[arc ^ 1];
        }
        flow += bottleneck;
    }
    flow
}

/// Minimum number of edges whose removal disconnects `s` from `t`
/// (edge connectivity between the pair). Computed as unit-capacity max
/// flow; returns `usize::MAX` semantics capped via `u32` range is avoided —
/// disconnected pairs yield 0.
pub fn edge_connectivity_pair<N, E>(g: &Graph<N, E>, s: NodeId, t: NodeId) -> usize {
    max_flow(g, s, t, |_| 1.0).round() as usize
}

/// Global edge connectivity: minimum over `t != v0` of the pairwise edge
/// connectivity from a fixed node `v0`. For a connected graph this equals
/// the global min cut (standard reduction). Returns 0 for graphs with
/// fewer than 2 nodes or disconnected graphs.
pub fn global_edge_connectivity<N, E>(g: &Graph<N, E>) -> usize {
    let n = g.node_count();
    if n < 2 {
        return 0;
    }
    let v0 = NodeId(0);
    let mut best = usize::MAX;
    for t in g.node_ids().skip(1) {
        best = best.min(edge_connectivity_pair(g, v0, t));
        if best == 0 {
            return 0;
        }
    }
    best
}

/// Whether every pair of nodes is joined by at least `k` edge-disjoint
/// paths (k-edge-connectivity).
pub fn is_k_edge_connected<N, E>(g: &Graph<N, E>, k: usize) -> bool {
    global_edge_connectivity(g) >= k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    #[test]
    fn classic_flow_instance() {
        // Diamond with capacities: 0-1 (3), 0-2 (2), 1-3 (2), 2-3 (3), 1-2 (1).
        let g: Graph<(), f64> = Graph::from_edges(
            4,
            vec![
                (0, 1, 3.0),
                (0, 2, 2.0),
                (1, 3, 2.0),
                (2, 3, 3.0),
                (1, 2, 1.0),
            ],
        );
        let f = max_flow(&g, NodeId(0), NodeId(3), |c| *c);
        assert!((f - 5.0).abs() < 1e-9);
    }

    #[test]
    fn flow_limited_by_cut() {
        // Path 0-1-2 with middle capacity 1.5.
        let g: Graph<(), f64> = Graph::from_edges(3, vec![(0, 1, 10.0), (1, 2, 1.5)]);
        let f = max_flow(&g, NodeId(0), NodeId(2), |c| *c);
        assert!((f - 1.5).abs() < 1e-9);
    }

    #[test]
    fn disconnected_zero_flow() {
        let g: Graph<(), f64> = Graph::from_edges(4, vec![(0, 1, 1.0), (2, 3, 1.0)]);
        assert_eq!(max_flow(&g, NodeId(0), NodeId(3), |c| *c), 0.0);
        assert_eq!(edge_connectivity_pair(&g, NodeId(0), NodeId(3)), 0);
    }

    #[test]
    fn same_node_zero() {
        let g: Graph<(), f64> = Graph::from_edges(2, vec![(0, 1, 1.0)]);
        assert_eq!(max_flow(&g, NodeId(0), NodeId(0), |c| *c), 0.0);
    }

    #[test]
    fn tree_is_one_edge_connected() {
        let g: Graph<(), f64> = Graph::from_edges(4, vec![(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0)]);
        assert_eq!(global_edge_connectivity(&g), 1);
        assert!(is_k_edge_connected(&g, 1));
        assert!(!is_k_edge_connected(&g, 2));
    }

    #[test]
    fn cycle_is_two_edge_connected() {
        let g: Graph<(), f64> =
            Graph::from_edges(4, vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]);
        assert_eq!(global_edge_connectivity(&g), 2);
        assert!(is_k_edge_connected(&g, 2));
        assert!(!is_k_edge_connected(&g, 3));
    }

    #[test]
    fn complete_graph_connectivity() {
        // K_5 is 4-edge-connected.
        let mut edges = Vec::new();
        for i in 0..5 {
            for j in i + 1..5 {
                edges.push((i, j, 1.0));
            }
        }
        let g: Graph<(), f64> = Graph::from_edges(5, edges);
        assert_eq!(global_edge_connectivity(&g), 4);
    }

    #[test]
    fn parallel_edges_add_capacity() {
        let mut g: Graph<(), f64> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1.0);
        g.add_edge(a, b, 2.5);
        let f = max_flow(&g, a, b, |c| *c);
        assert!((f - 3.5).abs() < 1e-9);
        assert_eq!(edge_connectivity_pair(&g, a, b), 2);
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use crate::graph::{Graph, NodeId};
    use crate::traversal::is_connected;
    use proptest::prelude::*;

    /// Brute-force min cut between s and t: enumerate all edge subsets,
    /// find the cheapest whose removal disconnects s from t.
    fn brute_force_min_cut(g: &Graph<(), f64>, s: NodeId, t: NodeId) -> f64 {
        let m = g.edge_count();
        let mut best = f64::INFINITY;
        for mask in 0u32..(1 << m) {
            let keep: Vec<bool> = (0..m).map(|i| mask & (1 << i) == 0).collect();
            let sub = crate::csr::CsrGraph::from_graph(&g.edge_subgraph(&keep));
            if sub.bfs_tree(s).dist[t.index()] == crate::csr::UNREACHABLE {
                let cut_cost: f64 = (0..m)
                    .filter(|&i| !keep[i])
                    .map(|i| *g.edge_weight(crate::graph::EdgeId(i as u32)))
                    .sum();
                best = best.min(cut_cost);
            }
        }
        best
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Max-flow equals the brute-force min cut (max-flow/min-cut
        /// theorem) on small random graphs.
        #[test]
        fn max_flow_equals_min_cut(
            n in 2usize..6,
            extra in proptest::collection::vec((0usize..6, 0usize..6, 0.5f64..4.0), 0..6),
        ) {
            let mut g: Graph<(), f64> = Graph::new();
            for _ in 0..n {
                g.add_node(());
            }
            for i in 0..n - 1 {
                g.add_edge(NodeId(i as u32), NodeId(i as u32 + 1), 1.0 + i as f64 * 0.5);
            }
            for (a, b, w) in extra {
                let (a, b) = (a % n, b % n);
                if a != b && g.edge_count() < 10 {
                    g.add_edge(NodeId(a as u32), NodeId(b as u32), w);
                }
            }
            prop_assert!(is_connected(&g));
            let s = NodeId(0);
            let t = NodeId(n as u32 - 1);
            let flow = max_flow(&g, s, t, |c| *c);
            let cut = brute_force_min_cut(&g, s, t);
            prop_assert!((flow - cut).abs() < 1e-6, "flow {} vs cut {}", flow, cut);
        }
    }
}
