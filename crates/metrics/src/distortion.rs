//! Distortion — how badly a spanning tree stretches graph distances
//! (Tangmunarunkit et al. \[30\]).
//!
//! \[30\]'s distortion is the minimum over spanning trees of the average
//! factor by which tree distance exceeds graph distance. Minimizing over
//! all trees is NP-hard, so (like the original paper's own evaluation) we
//! approximate: take BFS trees rooted at a few deterministic sources,
//! compute the average stretch `d_T(u,v) / d_G(u,v)` over sampled pairs,
//! and report the best (smallest) value. Trees have distortion exactly 1;
//! meshy graphs pay more.

use hot_graph::csr::{CsrBfsTree, CsrGraph};
use hot_graph::graph::{Graph, NodeId};

/// Number of BFS-tree roots tried.
const ROOTS: usize = 3;
/// Number of node pairs sampled per root.
const SAMPLE_PAIRS: usize = 128;

/// Approximate distortion of the largest component. Returns 0 for graphs
/// with fewer than 2 connected nodes (and exactly 1.0 for trees).
pub fn distortion<N, E>(g: &Graph<N, E>) -> f64 {
    let csr = CsrGraph::from_graph(g);
    let mask = csr.largest_component_mask();
    let members: Vec<NodeId> = g.node_ids().filter(|v| mask[v.index()]).collect();
    let m = members.len();
    if m < 2 {
        return 0.0;
    }
    // Graph distances from the sampled `a` node, by the FIFO kernel for
    // the same reason as in `expansion`.
    let mut from = CsrBfsTree::sized(g.node_count());
    let mut best = f64::INFINITY;
    for r in 0..ROOTS.min(m) {
        let root = members[r * m / ROOTS.min(m)];
        // Build the BFS tree as parent pointers, then compute tree
        // distances via depths and LCA-free pair sampling: d_T(u,v) =
        // depth(u) + depth(v) − 2·depth(lca). We find the LCA by walking
        // up (depths are small for the graphs of interest).
        let tree = csr.bfs_tree(root);
        let parent = |v: NodeId| tree.parent(v).expect("non-root has parent").0;
        let lca_dist = |mut u: NodeId, mut v: NodeId| -> u32 {
            let (mut du, mut dv) = (tree.dist[u.index()], tree.dist[v.index()]);
            let total = du + dv;
            while du > dv {
                u = parent(u);
                du -= 1;
            }
            while dv > du {
                v = parent(v);
                dv -= 1;
            }
            while u != v {
                u = parent(u);
                v = parent(v);
                du -= 1;
            }
            total - 2 * du
        };
        // Deterministic pair sample with golden-ratio stride.
        let stride = ((m as f64 * 0.618_033_9) as usize).max(1);
        let mut a = 0usize;
        let mut b = stride % m;
        let mut total_stretch = 0.0;
        let mut count = 0usize;
        // The member `from` holds distances for.
        let mut cached_from: Option<usize> = None;
        for _ in 0..SAMPLE_PAIRS.min(m * (m - 1) / 2) {
            if a == b {
                b = (b + 1) % m;
            }
            let (u, v) = (members[a], members[b]);
            if cached_from != Some(a) {
                csr.bfs_tree_into(u, &mut from);
                cached_from = Some(a);
            }
            let dg = from.dist[v.index()];
            if dg > 0 {
                total_stretch += lca_dist(u, v) as f64 / dg as f64;
                count += 1;
            }
            a = (a + 1) % m;
            b = (b + stride) % m;
        }
        if count > 0 {
            best = best.min(total_stretch / count as f64);
        }
    }
    if best.is_finite() {
        best
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_graph::graph::Graph;

    #[test]
    fn tree_distortion_is_one() {
        let g: Graph<(), ()> =
            Graph::from_edges(10, (1..10).map(|i| (i / 2, i, ())).collect::<Vec<_>>());
        assert!((distortion(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cycle_distortion_above_one() {
        let g: Graph<(), ()> = Graph::from_edges(
            10,
            (0..10).map(|i| (i, (i + 1) % 10, ())).collect::<Vec<_>>(),
        );
        let d = distortion(&g);
        // BFS trees on C10 stretch cross-break pairs; the sampled mean
        // lands a bit above 1 (1.11 with the deterministic sample).
        assert!(d > 1.05, "cycle distortion {}", d);
    }

    #[test]
    fn complete_graph_pays_distortion() {
        let mut edges = Vec::new();
        for i in 0..8 {
            for j in i + 1..8 {
                edges.push((i, j, ()));
            }
        }
        let g: Graph<(), ()> = Graph::from_edges(8, edges);
        // All graph distances are 1; a BFS star tree makes most of them 2.
        let d = distortion(&g);
        assert!(d > 1.4, "K8 distortion {}", d);
    }

    #[test]
    fn degenerate_sizes() {
        let g: Graph<(), ()> = Graph::new();
        assert_eq!(distortion(&g), 0.0);
        let mut one: Graph<(), ()> = Graph::new();
        one.add_node(());
        assert_eq!(distortion(&one), 0.0);
    }

    #[test]
    fn works_on_disconnected() {
        let g: Graph<(), ()> = Graph::from_edges(6, vec![(0, 1, ()), (1, 2, ()), (3, 4, ())]);
        // Largest component is the 3-path, a tree.
        assert!((distortion(&g) - 1.0).abs() < 1e-12);
    }
}
