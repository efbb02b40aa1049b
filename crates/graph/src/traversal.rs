//! Breadth-first traversal, hop distances, and connected components.

use crate::graph::{Graph, NodeId};
use std::collections::VecDeque;

/// Nodes reachable from `start` in BFS order (including `start`).
pub fn bfs_order<N, E>(g: &Graph<N, E>, start: NodeId) -> Vec<NodeId> {
    let mut seen = vec![false; g.node_count()];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    seen[start.index()] = true;
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for (u, _) in g.neighbors(v) {
            if !seen[u.index()] {
                seen[u.index()] = true;
                queue.push_back(u);
            }
        }
    }
    order
}

/// Hop distance from `start` to every node (`None` when unreachable).
pub fn bfs_distances<N, E>(g: &Graph<N, E>, start: NodeId) -> Vec<Option<u32>> {
    let mut dist = vec![None; g.node_count()];
    let mut queue = VecDeque::new();
    dist[start.index()] = Some(0);
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()].expect("queued nodes have distances");
        for (u, _) in g.neighbors(v) {
            if dist[u.index()].is_none() {
                dist[u.index()] = Some(d + 1);
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Hop distance and BFS parent from `start` to every reachable node.
///
/// Parents allow extracting shortest hop paths; the start node has parent
/// `None`, as do unreachable nodes (distinguish via the distance).
pub fn bfs_tree<N, E>(g: &Graph<N, E>, start: NodeId) -> (Vec<Option<u32>>, Vec<Option<NodeId>>) {
    let mut dist = vec![None; g.node_count()];
    let mut parent = vec![None; g.node_count()];
    let mut queue = VecDeque::new();
    dist[start.index()] = Some(0);
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()].expect("queued nodes have distances");
        for (u, _) in g.neighbors(v) {
            if dist[u.index()].is_none() {
                dist[u.index()] = Some(d + 1);
                parent[u.index()] = Some(v);
                queue.push_back(u);
            }
        }
    }
    (dist, parent)
}

/// Connected-component label (0-based, in order of discovery) per node.
/// u32 labels: there are at most as many components as nodes, and node
/// ids are u32.
pub fn connected_components<N, E>(g: &Graph<N, E>) -> Vec<u32> {
    let mut label = vec![u32::MAX; g.node_count()];
    let mut next = 0u32;
    for start in g.node_ids() {
        if label[start.index()] != u32::MAX {
            continue;
        }
        for v in bfs_order(g, start) {
            label[v.index()] = next;
        }
        next += 1;
    }
    label
}

/// Number of connected components (0 for the empty graph).
pub fn component_count<N, E>(g: &Graph<N, E>) -> usize {
    connected_components(g)
        .iter()
        .copied()
        .max()
        .map_or(0, |m| m as usize + 1)
}

/// Whether the graph is connected. The empty graph counts as connected.
pub fn is_connected<N, E>(g: &Graph<N, E>) -> bool {
    component_count(g) <= 1
}

/// Size of the largest connected component (0 for the empty graph).
pub fn largest_component_size<N, E>(g: &Graph<N, E>) -> usize {
    let labels = connected_components(g);
    let k = labels.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut sizes = vec![0usize; k];
    for l in labels {
        sizes[l as usize] += 1;
    }
    sizes.into_iter().max().unwrap_or(0)
}

/// Membership mask of the largest connected component.
///
/// Ties are broken toward the component discovered first. Returns an empty
/// vector for the empty graph.
pub fn largest_component_mask<N, E>(g: &Graph<N, E>) -> Vec<bool> {
    let labels = connected_components(g);
    let k = labels.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut sizes = vec![0usize; k];
    for &l in &labels {
        sizes[l as usize] += 1;
    }
    let best = (0..k).max_by_key(|&i| (sizes[i], std::cmp::Reverse(i)));
    match best {
        Some(b) => labels.into_iter().map(|l| l as usize == b).collect(),
        None => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn two_triangles() -> Graph<(), ()> {
        // {0,1,2} triangle and {3,4,5} triangle, disconnected.
        Graph::from_edges(
            6,
            vec![
                (0, 1, ()),
                (1, 2, ()),
                (0, 2, ()),
                (3, 4, ()),
                (4, 5, ()),
                (3, 5, ()),
            ],
        )
    }

    #[test]
    fn bfs_visits_component_only() {
        let g = two_triangles();
        let order = bfs_order(&g, NodeId(0));
        assert_eq!(order.len(), 3);
        assert!(order.contains(&NodeId(2)));
        assert!(!order.contains(&NodeId(3)));
    }

    #[test]
    fn bfs_distances_on_path() {
        let g: Graph<(), ()> = Graph::from_edges(4, vec![(0, 1, ()), (1, 2, ()), (2, 3, ())]);
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn bfs_unreachable_is_none() {
        let g = two_triangles();
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d[4], None);
        assert_eq!(d[1], Some(1));
    }

    #[test]
    fn bfs_tree_parents_form_shortest_paths() {
        let g: Graph<(), ()> = Graph::from_edges(
            5,
            vec![(0, 1, ()), (0, 2, ()), (1, 3, ()), (2, 3, ()), (3, 4, ())],
        );
        let (dist, parent) = bfs_tree(&g, NodeId(0));
        assert_eq!(dist[4], Some(3));
        // Walk parents from 4 back to 0 and count hops.
        let mut hops = 0;
        let mut cur = NodeId(4);
        while let Some(p) = parent[cur.index()] {
            cur = p;
            hops += 1;
        }
        assert_eq!(cur, NodeId(0));
        assert_eq!(hops, 3);
    }

    #[test]
    fn components_labeling() {
        let g = two_triangles();
        let labels = connected_components(&g);
        assert_eq!(labels, vec![0, 0, 0, 1, 1, 1]);
        assert_eq!(component_count(&g), 2);
        assert!(!is_connected(&g));
        assert_eq!(largest_component_size(&g), 3);
    }

    #[test]
    fn empty_graph_is_connected() {
        let g: Graph<(), ()> = Graph::new();
        assert!(is_connected(&g));
        assert_eq!(component_count(&g), 0);
        assert_eq!(largest_component_size(&g), 0);
        assert!(largest_component_mask(&g).is_empty());
    }

    #[test]
    fn largest_component_mask_picks_bigger() {
        let mut g: Graph<(), ()> = Graph::from_edges(5, vec![(0, 1, ())]);
        let a = NodeId(2);
        let b = NodeId(3);
        let c = NodeId(4);
        g.add_edge(a, b, ());
        g.add_edge(b, c, ());
        let mask = largest_component_mask(&g);
        assert_eq!(mask, vec![false, false, true, true, true]);
    }

    #[test]
    fn single_node_component() {
        let mut g: Graph<(), ()> = Graph::new();
        g.add_node(());
        assert!(is_connected(&g));
        assert_eq!(largest_component_size(&g), 1);
    }
}
