//! The reference hop traversals the CSR engine is checked against: the
//! `Graph` BFS family (orders, distances, trees, component labels and
//! the largest-component mask) and the classic allocating queue BFS on a
//! `CsrGraph`. Each is a plain FIFO BFS over adjacency order, so it
//! yields exactly what the CSR kernels must reproduce.

use hotgen::graph::csr::{CsrGraph, UNREACHABLE};
use hotgen::graph::{Graph, NodeId};
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

/// Hop distance from `start` to every node of a CSR view
/// ([`UNREACHABLE`] when unreachable): the classic allocating queue BFS
/// the direction-optimizing kernel is timed and checked against.
pub fn csr_bfs_distances(csr: &CsrGraph, start: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; csr.node_count()];
    let mut queue = Vec::with_capacity(csr.node_count());
    dist[start.index()] = 0;
    queue.push(start);
    let mut head = 0;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        let d = dist[v.index()] + 1;
        for &u in csr.neighbors(v) {
            if dist[u.index()] == UNREACHABLE {
                dist[u.index()] = d;
                queue.push(u);
            }
        }
    }
    dist
}
