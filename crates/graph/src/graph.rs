//! The core annotated, undirected multigraph.
//!
//! Node and edge identifiers are dense indices wrapped in newtypes so they
//! cannot be confused with each other or with ordinary integers. The graph
//! is append-only (nodes and edges are never re-indexed); destructive
//! operations used by the robustness experiments are expressed as filtered
//! copies via [`Graph::induced_subgraph`], which keeps every stored `NodeId`
//! stable for the lifetime of the graph that issued it.

use std::fmt;

/// Dense index of a node inside one [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Dense index of an edge inside one [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The index as a `usize`, for indexing parallel vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The index as a `usize`, for indexing parallel vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[derive(Clone, Debug)]
struct EdgeRecord<E> {
    a: NodeId,
    b: NodeId,
    weight: E,
}

/// An undirected multigraph with node annotations `N` and edge annotations
/// `E`.
///
/// Parallel edges are permitted (the buy-at-bulk designs occasionally
/// install several cables between the same pair of sites); self-loops are
/// rejected because no topology in the reproduction uses them and they
/// complicate degree semantics.
#[derive(Clone, Debug)]
pub struct Graph<N, E> {
    nodes: Vec<N>,
    edges: Vec<EdgeRecord<E>>,
    /// `adj[v]` lists `(neighbor, edge)` pairs incident to `v`.
    adj: Vec<Vec<(NodeId, EdgeId)>>,
}

impl<N, E> Default for Graph<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N, E> Graph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph {
            nodes: Vec::new(),
            edges: Vec::new(),
            adj: Vec::new(),
        }
    }

    /// Creates an empty graph with pre-allocated capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Graph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            adj: Vec::with_capacity(nodes),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges (each undirected edge counted once).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a node carrying `weight` and returns its id.
    pub fn add_node(&mut self, weight: N) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("node count exceeds u32"));
        self.nodes.push(weight);
        self.adj.push(Vec::new());
        id
    }

    /// Adds an undirected edge between `a` and `b` carrying `weight`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (self-loop) or either endpoint is out of range.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, weight: E) -> EdgeId {
        assert!(a != b, "self-loops are not supported (node {:?})", a);
        assert!(a.index() < self.nodes.len(), "node {:?} out of range", a);
        assert!(b.index() < self.nodes.len(), "node {:?} out of range", b);
        let id = EdgeId(u32::try_from(self.edges.len()).expect("edge count exceeds u32"));
        self.edges.push(EdgeRecord { a, b, weight });
        self.adj[a.index()].push((b, id));
        self.adj[b.index()].push((a, id));
        id
    }

    /// Iterator over all node ids in index order.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterator over all edge ids in index order.
    pub fn edge_ids(&self) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Iterator over `(edge id, endpoint a, endpoint b, &weight)` tuples.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = (EdgeId, NodeId, NodeId, &E)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, r)| (EdgeId(i as u32), r.a, r.b, &r.weight))
    }

    /// Borrow of a node's annotation.
    #[inline]
    pub fn node_weight(&self, n: NodeId) -> &N {
        &self.nodes[n.index()]
    }

    /// Borrow of an edge's annotation.
    #[inline]
    pub fn edge_weight(&self, e: EdgeId) -> &E {
        &self.edges[e.index()].weight
    }

    /// Mutable borrow of an edge's annotation.
    #[inline]
    pub fn edge_weight_mut(&mut self, e: EdgeId) -> &mut E {
        &mut self.edges[e.index()].weight
    }

    /// The two endpoints of an edge, in insertion order.
    #[inline]
    pub fn edge_endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let r = &self.edges[e.index()];
        (r.a, r.b)
    }

    /// Given one endpoint of `e`, returns the other.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not an endpoint of `e`.
    pub fn opposite(&self, e: EdgeId, n: NodeId) -> NodeId {
        let (a, b) = self.edge_endpoints(e);
        if n == a {
            b
        } else if n == b {
            a
        } else {
            panic!("{:?} is not an endpoint of {:?}", n, e)
        }
    }

    /// Iterator over `(neighbor, edge)` pairs incident to `n`.
    ///
    /// Parallel edges yield the same neighbor multiple times, once per edge.
    pub fn neighbors(&self, n: NodeId) -> impl ExactSizeIterator<Item = (NodeId, EdgeId)> + '_ {
        self.adj[n.index()].iter().copied()
    }

    /// Degree of `n` (number of incident edges; parallel edges all count).
    #[inline]
    pub fn degree(&self, n: NodeId) -> usize {
        self.adj[n.index()].len()
    }

    /// The degree of every node, indexed by node id. u32 entries: node
    /// ids are u32, so no degree can exceed that — and the sequence for
    /// a 1M-router graph is 4 MB instead of 8.
    pub fn degree_sequence(&self) -> Vec<u32> {
        self.adj.iter().map(|a| a.len() as u32).collect()
    }

    /// First edge found between `a` and `b`, if any.
    pub fn find_edge(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        // Scan the smaller adjacency list.
        let (from, to) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.adj[from.index()]
            .iter()
            .find(|(nbr, _)| *nbr == to)
            .map(|&(_, e)| e)
    }

    /// Maps node and edge annotations to produce a structurally identical
    /// graph with new weights.
    pub fn map<N2, E2>(
        &self,
        mut node_map: impl FnMut(NodeId, &N) -> N2,
        mut edge_map: impl FnMut(EdgeId, &E) -> E2,
    ) -> Graph<N2, E2> {
        Graph {
            nodes: self
                .nodes
                .iter()
                .enumerate()
                .map(|(i, w)| node_map(NodeId(i as u32), w))
                .collect(),
            edges: self
                .edges
                .iter()
                .enumerate()
                .map(|(i, r)| EdgeRecord {
                    a: r.a,
                    b: r.b,
                    weight: edge_map(EdgeId(i as u32), &r.weight),
                })
                .collect(),
            adj: self.adj.clone(),
        }
    }

    /// Builds the subgraph induced by the nodes for which `keep` is `true`.
    ///
    /// Returns the new graph together with the mapping `old -> Option<new>`
    /// (`None` for dropped nodes). Edges survive iff both endpoints do.
    pub fn induced_subgraph(&self, keep: &[bool]) -> (Graph<N, E>, Vec<Option<NodeId>>)
    where
        N: Clone,
        E: Clone,
    {
        assert_eq!(keep.len(), self.node_count(), "keep mask length mismatch");
        let mut mapping = vec![None; self.node_count()];
        let mut out = Graph::new();
        for n in self.node_ids() {
            if keep[n.index()] {
                mapping[n.index()] = Some(out.add_node(self.nodes[n.index()].clone()));
            }
        }
        for (_, a, b, w) in self.edges() {
            if let (Some(na), Some(nb)) = (mapping[a.index()], mapping[b.index()]) {
                out.add_edge(na, nb, w.clone());
            }
        }
        (out, mapping)
    }

    /// Builds the subgraph containing all nodes but only the edges for which
    /// `keep_edge` is `true`. Node ids are preserved.
    pub fn edge_subgraph(&self, keep_edge: &[bool]) -> Graph<N, E>
    where
        N: Clone,
        E: Clone,
    {
        assert_eq!(
            keep_edge.len(),
            self.edge_count(),
            "edge mask length mismatch"
        );
        let mut out = Graph::with_capacity(self.node_count(), self.edge_count());
        for n in self.node_ids() {
            out.add_node(self.nodes[n.index()].clone());
        }
        for (e, a, b, w) in self.edges() {
            if keep_edge[e.index()] {
                out.add_edge(a, b, w.clone());
            }
        }
        out
    }

    /// Convenience constructor: `n` nodes with `Default` annotations plus
    /// the given `(a, b, weight)` edges.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize, E)>) -> Self
    where
        N: Default,
    {
        let mut g = Graph::with_capacity(n, 0);
        for _ in 0..n {
            g.add_node(N::default());
        }
        for (a, b, w) in edges {
            g.add_edge(NodeId(a as u32), NodeId(b as u32), w);
        }
        g
    }

    /// Sum of `f` over all edge annotations.
    pub fn total_edge_weight(&self, mut f: impl FnMut(&E) -> f64) -> f64 {
        self.edges.iter().map(|r| f(&r.weight)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph<&'static str, u32> {
        // a-b, a-c, b-c, b-d, c-d
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, 1);
        g.add_edge(a, c, 2);
        g.add_edge(b, c, 3);
        g.add_edge(b, d, 4);
        g.add_edge(c, d, 5);
        g
    }

    #[test]
    fn counts_and_ids() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.node_ids().count(), 4);
        assert_eq!(g.edge_ids().count(), 5);
    }

    #[test]
    fn weights_roundtrip() {
        let mut g = diamond();
        assert_eq!(*g.node_weight(NodeId(2)), "c");
        assert_eq!(*g.edge_weight(EdgeId(3)), 4);
        *g.edge_weight_mut(EdgeId(3)) = 40;
        assert_eq!(*g.edge_weight(EdgeId(3)), 40);
    }

    #[test]
    fn degrees() {
        let g = diamond();
        assert_eq!(g.degree(NodeId(0)), 2);
        assert_eq!(g.degree(NodeId(1)), 3);
        assert_eq!(g.degree_sequence(), vec![2, 3, 3, 2]);
    }

    #[test]
    fn neighbors_and_opposite() {
        let g = diamond();
        let nbrs: Vec<_> = g.neighbors(NodeId(1)).map(|(n, _)| n.index()).collect();
        assert_eq!(nbrs, vec![0, 2, 3]);
        let (e, a, b, _) = g.edges().next().unwrap();
        assert_eq!(g.opposite(e, a), b);
        assert_eq!(g.opposite(e, b), a);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn opposite_panics_for_non_endpoint() {
        let g = diamond();
        g.opposite(EdgeId(0), NodeId(3));
    }

    #[test]
    fn find_edge_both_directions() {
        let g = diamond();
        assert!(g.find_edge(NodeId(0), NodeId(1)).is_some());
        assert!(g.find_edge(NodeId(1), NodeId(0)).is_some());
        assert!(g.find_edge(NodeId(0), NodeId(3)).is_none());
        assert!(g.find_edge(NodeId(2), NodeId(3)).is_some());
    }

    #[test]
    fn parallel_edges_allowed_and_counted() {
        let mut g: Graph<(), u32> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(a, b, 2);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(a), 2);
        assert_eq!(g.neighbors(a).count(), 2);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        g.add_edge(a, a, ());
    }

    #[test]
    fn map_preserves_structure() {
        let g = diamond();
        let h = g.map(|_, s| s.len(), |_, w| *w as f64 * 2.0);
        assert_eq!(h.node_count(), g.node_count());
        assert_eq!(h.edge_count(), g.edge_count());
        assert_eq!(*h.edge_weight(EdgeId(4)), 10.0);
        assert_eq!(h.degree_sequence(), g.degree_sequence());
    }

    #[test]
    fn induced_subgraph_drops_edges() {
        let g = diamond();
        // Drop node d (index 3).
        let (h, map) = g.induced_subgraph(&[true, true, true, false]);
        assert_eq!(h.node_count(), 3);
        assert_eq!(h.edge_count(), 3); // a-b, a-c, b-c survive
        assert!(map[3].is_none());
        assert_eq!(map[0], Some(NodeId(0)));
    }

    #[test]
    fn edge_subgraph_preserves_nodes() {
        let g = diamond();
        let keep = vec![true, false, false, false, true];
        let h = g.edge_subgraph(&keep);
        assert_eq!(h.node_count(), 4);
        assert_eq!(h.edge_count(), 2);
        assert!(h.find_edge(NodeId(0), NodeId(1)).is_some());
        assert!(h.find_edge(NodeId(2), NodeId(3)).is_some());
        assert!(h.find_edge(NodeId(0), NodeId(2)).is_none());
    }

    #[test]
    fn from_edges_builds() {
        let g: Graph<(), f64> = Graph::from_edges(3, vec![(0, 1, 1.0), (1, 2, 2.0)]);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!((g.total_edge_weight(|w| *w) - 3.0).abs() < 1e-12);
    }
}
