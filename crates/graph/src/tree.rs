//! Rooted-tree views over graphs.
//!
//! Most of the paper's optimization formulations (FKP growth, buy-at-bulk
//! access design, Esau–Williams) produce trees rooted at a core node, so a
//! first-class rooted-tree representation — parents, children, depths —
//! is used throughout the workspace.

use crate::csr::{CsrGraph, UNREACHABLE};
use crate::graph::{Graph, NodeId};

/// A rooted tree over the node set of some host graph.
///
/// Construct with [`RootedTree::from_graph`] (checks tree-ness) or
/// incrementally with [`RootedTree::new_incremental`]/[`RootedTree::attach`]
/// (used by the growth models, which build trees a node at a time).
#[derive(Clone, Debug)]
pub struct RootedTree {
    root: NodeId,
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
    depth: Vec<u32>,
}

/// Errors from [`RootedTree::from_graph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeError {
    /// The graph has a cycle or a multi-edge (edge count ≠ node count − 1).
    WrongEdgeCount,
    /// The graph is not connected.
    Disconnected,
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::WrongEdgeCount => write!(f, "graph is not a tree: |E| != |V| - 1"),
            TreeError::Disconnected => write!(f, "graph is not a tree: disconnected"),
        }
    }
}

impl std::error::Error for TreeError {}

impl RootedTree {
    /// Views a connected acyclic graph as a tree rooted at `root`.
    pub fn from_graph<N, E>(g: &Graph<N, E>, root: NodeId) -> Result<Self, TreeError> {
        let n = g.node_count();
        if n == 0 || g.edge_count() != n - 1 {
            return Err(TreeError::WrongEdgeCount);
        }
        let bfs = CsrGraph::from_graph(g).bfs_tree(root);
        if bfs.dist.contains(&UNREACHABLE) {
            return Err(TreeError::Disconnected);
        }
        let parent: Vec<Option<NodeId>> = g
            .node_ids()
            .map(|v| bfs.parent(v).map(|(p, _)| p))
            .collect();
        let mut children = vec![Vec::new(); n];
        for v in g.node_ids() {
            if let Some(p) = parent[v.index()] {
                children[p.index()].push(v);
            }
        }
        Ok(RootedTree {
            root,
            parent,
            children,
            depth: bfs.dist,
        })
    }

    /// Starts an incremental tree containing only `root`.
    ///
    /// `capacity` pre-allocates for the expected final node count. Node ids
    /// handed to [`attach`](Self::attach) must be allocated densely in
    /// arrival order: the first attached node must be id 1, then 2, etc.,
    /// with the root being id 0 — this matches how the growth models number
    /// arrivals.
    pub fn new_incremental(root: NodeId, capacity: usize) -> Self {
        assert_eq!(
            root.index(),
            0,
            "incremental trees must be rooted at node 0"
        );
        let mut t = RootedTree {
            root,
            parent: Vec::with_capacity(capacity),
            children: Vec::with_capacity(capacity),
            depth: Vec::with_capacity(capacity),
        };
        t.parent.push(None);
        t.children.push(Vec::new());
        t.depth.push(0);
        t
    }

    /// Attaches a new node (which must be the next dense id) under `parent`.
    pub fn attach(&mut self, node: NodeId, parent: NodeId) {
        assert_eq!(
            node.index(),
            self.parent.len(),
            "nodes must be attached in id order"
        );
        assert!(
            parent.index() < self.parent.len(),
            "parent {:?} not in tree",
            parent
        );
        self.parent.push(Some(parent));
        self.children.push(Vec::new());
        self.depth.push(self.depth[parent.index()] + 1);
        self.children[parent.index()].push(node);
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes in the tree.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the tree is empty (never true: a tree always has its root).
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Parent of `v` (`None` for the root).
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v.index()]
    }

    /// Children of `v` in attachment order.
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.children[v.index()]
    }

    /// Depth of `v` (root has depth 0).
    pub fn depth(&self, v: NodeId) -> u32 {
        self.depth[v.index()]
    }

    /// Maximum depth over all nodes (tree height).
    pub fn height(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Degree of `v` in the underlying undirected tree
    /// (children + 1 for the parent edge, except at the root).
    pub fn undirected_degree(&self, v: NodeId) -> usize {
        self.children[v.index()].len() + usize::from(self.parent[v.index()].is_some())
    }

    /// The undirected degree of every node.
    pub fn degree_sequence(&self) -> Vec<u32> {
        (0..self.len() as u32)
            .map(|i| self.undirected_degree(NodeId(i)) as u32)
            .collect()
    }

    /// Leaves (nodes with no children). The root is a leaf only in the
    /// singleton tree.
    pub fn leaves(&self) -> Vec<NodeId> {
        (0..self.len() as u32)
            .map(NodeId)
            .filter(|v| self.children[v.index()].is_empty())
            .collect()
    }

    /// Nodes in BFS order from the root.
    pub fn bfs_order(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.len());
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(self.root);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &c in &self.children[v.index()] {
                queue.push_back(c);
            }
        }
        order
    }

    /// Materializes the tree as an undirected [`Graph`], with edge weights
    /// produced by `edge_weight(child, parent)`.
    pub fn to_graph<E>(&self, mut edge_weight: impl FnMut(NodeId, NodeId) -> E) -> Graph<(), E> {
        let mut g = Graph::with_capacity(self.len(), self.len().saturating_sub(1));
        for _ in 0..self.len() {
            g.add_node(());
        }
        for v in 0..self.len() as u32 {
            let v = NodeId(v);
            if let Some(p) = self.parent[v.index()] {
                let w = edge_weight(v, p);
                g.add_edge(v, p, w);
            }
        }
        g
    }
}

/// Whether `g` is a tree (connected, |E| = |V| − 1). The empty graph is not
/// a tree; a single node is.
pub fn is_tree<N, E>(g: &Graph<N, E>) -> bool {
    let n = g.node_count();
    n > 0 && g.edge_count() == n - 1 && crate::traversal::is_connected(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// A small caterpillar: 0-1, 1-2, 1-3, 3-4.
    fn caterpillar() -> Graph<(), ()> {
        Graph::from_edges(5, vec![(0, 1, ()), (1, 2, ()), (1, 3, ()), (3, 4, ())])
    }

    #[test]
    fn from_graph_accepts_tree() {
        let g = caterpillar();
        let t = RootedTree::from_graph(&g, NodeId(0)).unwrap();
        assert_eq!(t.root(), NodeId(0));
        assert_eq!(t.len(), 5);
        assert_eq!(t.parent(NodeId(4)), Some(NodeId(3)));
        assert_eq!(t.depth(NodeId(4)), 3);
        assert_eq!(t.height(), 3);
    }

    #[test]
    fn from_graph_rejects_cycle() {
        let g: Graph<(), ()> = Graph::from_edges(3, vec![(0, 1, ()), (1, 2, ()), (0, 2, ())]);
        let err = RootedTree::from_graph(&g, NodeId(0)).unwrap_err();
        assert_eq!(err, TreeError::WrongEdgeCount);
    }

    #[test]
    fn from_graph_rejects_disconnected() {
        // 4 nodes, 3 edges, but with a parallel edge -> 0-1 doubled, 2-3.
        let mut g: Graph<(), ()> = Graph::from_edges(4, vec![(0, 1, ()), (2, 3, ())]);
        g.add_edge(NodeId(0), NodeId(1), ());
        let err = RootedTree::from_graph(&g, NodeId(0)).unwrap_err();
        assert_eq!(err, TreeError::Disconnected);
    }

    #[test]
    fn incremental_matches_from_graph() {
        let mut t = RootedTree::new_incremental(NodeId(0), 5);
        t.attach(NodeId(1), NodeId(0));
        t.attach(NodeId(2), NodeId(1));
        t.attach(NodeId(3), NodeId(1));
        t.attach(NodeId(4), NodeId(3));
        let g = caterpillar();
        let t2 = RootedTree::from_graph(&g, NodeId(0)).unwrap();
        assert_eq!(t.degree_sequence(), t2.degree_sequence());
        assert_eq!(t.height(), t2.height());
    }

    #[test]
    fn leaves_and_degrees() {
        let g = caterpillar();
        let t = RootedTree::from_graph(&g, NodeId(0)).unwrap();
        let mut leaves = t.leaves();
        leaves.sort();
        assert_eq!(leaves, vec![NodeId(2), NodeId(4)]);
        assert_eq!(t.undirected_degree(NodeId(1)), 3);
        assert_eq!(t.undirected_degree(NodeId(0)), 1);
        // Degree sum = 2(n-1) for a tree.
        assert_eq!(
            t.degree_sequence().iter().sum::<u32>() as usize,
            2 * (t.len() - 1)
        );
    }

    #[test]
    fn to_graph_roundtrip() {
        let g = caterpillar();
        let t = RootedTree::from_graph(&g, NodeId(0)).unwrap();
        let h = t.to_graph(|_, _| 1.0f64);
        assert!(is_tree(&h));
        assert_eq!(h.node_count(), 5);
        assert_eq!(h.degree_sequence(), t.degree_sequence());
    }

    #[test]
    fn is_tree_checks() {
        assert!(is_tree(&caterpillar()));
        let empty: Graph<(), ()> = Graph::new();
        assert!(!is_tree(&empty));
        let mut singleton: Graph<(), ()> = Graph::new();
        singleton.add_node(());
        assert!(is_tree(&singleton));
        let cycle: Graph<(), ()> = Graph::from_edges(3, vec![(0, 1, ()), (1, 2, ()), (0, 2, ())]);
        assert!(!is_tree(&cycle));
    }

    #[test]
    fn bfs_order_starts_at_root_and_covers_all() {
        let g = caterpillar();
        let t = RootedTree::from_graph(&g, NodeId(1)).unwrap();
        let order = t.bfs_order();
        assert_eq!(order[0], NodeId(1));
        assert_eq!(order.len(), 5);
    }
}
