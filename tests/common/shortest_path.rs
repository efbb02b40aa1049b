//! Weighted shortest paths on the adjacency-list [`Graph`]: a Dijkstra
//! with a binary heap and a Bellman–Ford. They are the reference for
//! `CsrGraph::dijkstra_tree_into`, which must match this Dijkstra
//! operation for operation: the same relaxation test, push order,
//! `d + w` arithmetic and heap tie order.

use hotgen::graph::{EdgeId, Graph, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Result of a single-source shortest-path computation.
#[derive(Clone, Debug)]
pub struct ShortestPaths {
    /// `dist[v]` is the weighted distance from the source (`f64::INFINITY`
    /// when unreachable).
    pub dist: Vec<f64>,
    /// `parent[v]` is the predecessor node and edge on one shortest path
    /// from the source (`None` for the source and unreachable nodes).
    pub parent: Vec<Option<(NodeId, EdgeId)>>,
    /// Settle order: every reachable node once, the source first.
    pub order: Vec<NodeId>,
}

impl ShortestPaths {
    /// Reconstructs the edge sequence of a shortest path to `target`.
    pub fn edge_path_to(&self, target: NodeId) -> Option<Vec<EdgeId>> {
        if self.dist[target.index()].is_infinite() {
            return None;
        }
        let mut edges = Vec::new();
        let mut cur = target;
        while let Some((p, e)) = self.parent[cur.index()] {
            edges.push(e);
            cur = p;
        }
        edges.reverse();
        Some(edges)
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; distances are finite non-NaN by
        // construction (asserted in `dijkstra`).
        other
            .dist
            .partial_cmp(&self.dist)
            .expect("NaN distance in Dijkstra heap")
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Single-source shortest paths with non-negative weights.
///
/// # Panics
///
/// Panics (debug assertion) if `weight` yields a negative or NaN value.
pub fn dijkstra<N, E>(
    g: &Graph<N, E>,
    source: NodeId,
    mut weight: impl FnMut(EdgeId, &E) -> f64,
) -> ShortestPaths {
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![None; n];
    let mut done = vec![false; n];
    let mut order = Vec::new();
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: source,
    });
    while let Some(HeapEntry { dist: d, node: v }) = heap.pop() {
        if done[v.index()] {
            continue;
        }
        done[v.index()] = true;
        order.push(v);
        for (u, e) in g.neighbors(v) {
            let w = weight(e, g.edge_weight(e));
            debug_assert!(
                w >= 0.0 && !w.is_nan(),
                "Dijkstra requires non-negative weights"
            );
            let nd = d + w;
            if nd < dist[u.index()] {
                dist[u.index()] = nd;
                parent[u.index()] = Some((v, e));
                heap.push(HeapEntry { dist: nd, node: u });
            }
        }
    }
    ShortestPaths {
        dist,
        parent,
        order,
    }
}

/// Bellman–Ford single-source distances. O(V·E); the slow oracle for
/// graphs where weights may be zero on many edges.
pub fn bellman_ford<N, E>(
    g: &Graph<N, E>,
    source: NodeId,
    mut weight: impl FnMut(EdgeId, &E) -> f64,
) -> Vec<f64> {
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    dist[source.index()] = 0.0;
    let edges: Vec<(NodeId, NodeId, f64)> =
        g.edges().map(|(e, a, b, w)| (a, b, weight(e, w))).collect();
    for _ in 0..n.saturating_sub(1) {
        let mut changed = false;
        for &(a, b, w) in &edges {
            if dist[a.index()] + w < dist[b.index()] {
                dist[b.index()] = dist[a.index()] + w;
                changed = true;
            }
            if dist[b.index()] + w < dist[a.index()] {
                dist[a.index()] = dist[b.index()] + w;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    dist
}
