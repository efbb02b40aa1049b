//! Compressed-sparse-row (CSR) view of a [`Graph`] for the hot analytics
//! kernels.
//!
//! [`Graph`]'s `Vec<Vec<(NodeId, EdgeId)>>` adjacency is convenient to
//! build incrementally but scatters every node's neighbor list across the
//! heap, which is what caps the whole-graph traversals (betweenness,
//! path-length sampling, robustness sweeps) at toy sizes. [`CsrGraph`]
//! packs the same adjacency into three flat arrays — `offsets`,
//! `targets`, `edge_ids` — built once from a finished graph, so every
//! kernel walks contiguous memory. Neighbor *order* is preserved exactly,
//! which keeps CSR traversals arithmetically identical to the adjacency-
//! list versions they replace.
//!
//! The structure is a pure view: it carries no annotations and never
//! mutates. Rebuild it after changing the underlying graph (construction
//! is a single O(n + m) pass, which is noise next to any kernel).
//!
//! Every hop BFS in the library runs here: the FIFO tree
//! ([`CsrGraph::bfs_tree_into`]), the shortest-path DAG sweep
//! ([`CsrGraph::path_dag_into`]), the direction-optimizing distance
//! sweep ([`CsrGraph::bfs_distances_into`]) and the component pass
//! ([`CsrGraph::components`]). The DAG sweep is the one pass that
//! records path counts σ and predecessors: ECMP routing and TE walk it
//! back to spread link loads, and Brandes betweenness
//! ([`crate::parallel`]) walks it back to accumulate dependencies.
//!
//! The path DAG replaces per-source `Vec<Vec<NodeId>>` predecessor lists
//! with a flat array laid out by the CSR offsets: on shortest paths a
//! node's predecessors are a subset of its incident edges, so slot
//! capacity `degree(v)` suffices and the scratch footprint is a fixed
//! O(n + m) for the whole run — no per-source reallocation, no quadratic
//! retained capacity. Each slot is a `(parent, edge)` pair, because link
//! loads land on edges; betweenness reads only the parent.
//!
//! All three arrays are u32-indexed structure-of-arrays: `offsets` holds
//! u32 adjacency positions (4 bytes per node instead of the 8 a
//! `Vec<usize>` would spend), which is what keeps a 1M-router graph's
//! CSR view at ~28 MB and the BFS working set inside cache. The format
//! therefore caps a graph at [`MAX_CSR_ENTRIES`] adjacency entries
//! (~2.1 billion edges) — far beyond the scales this workspace targets.

use crate::graph::{EdgeId, Graph, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Maximum adjacency entries (2 × edges) a [`CsrGraph`] can hold with
/// u32 offsets.
pub const MAX_CSR_ENTRIES: usize = u32::MAX as usize;

/// Sentinel for "unreachable" in CSR BFS distance arrays.
pub const UNREACHABLE: u32 = u32::MAX;

/// Direction-optimizing BFS: switch top-down → bottom-up when the
/// frontier's adjacency entries exceed `unexplored / ALPHA` (Beamer's
/// heuristic with the conventional constant).
const BFS_ALPHA: u64 = 14;

/// Direction-optimizing BFS: switch bottom-up → top-down when the
/// frontier shrinks below `n / BETA`.
const BFS_BETA: u64 = 24;

/// Reusable scratch for the distance-only direction-optimizing BFS
/// ([`CsrGraph::bfs_distances_into`]): a distance array, the reached
/// list (doubling as the level-partitioned frontier queue), and two
/// bitsets (visited + previous-level frontier). Sized once per
/// (thread, graph); every per-source reset is O(reached), not O(n).
pub struct BfsScratch {
    dist: Vec<u32>,
    /// All reached nodes, grouped by level (order within a bottom-up
    /// level is index order, not discovery order).
    reached: Vec<u32>,
    /// Visited bitset; bits at positions >= n in the last word are
    /// permanently set so the bottom-up scan never probes phantom nodes.
    visited: Vec<u64>,
    /// Previous-level bitset, populated and cleared per bottom-up level.
    frontier: Vec<u64>,
}

impl BfsScratch {
    /// Scratch sized for an `n`-node graph, all nodes unreached.
    pub fn sized(n: usize) -> BfsScratch {
        let words = n.div_ceil(64).max(1);
        let mut visited = vec![0u64; words];
        if !n.is_multiple_of(64) {
            // Phantom tail bits count as visited forever.
            visited[words - 1] = !0u64 << (n % 64);
        } else if n == 0 {
            visited[0] = !0u64;
        }
        BfsScratch {
            dist: vec![UNREACHABLE; n],
            reached: Vec::with_capacity(n),
            visited,
            frontier: vec![0u64; words],
        }
    }

    /// Hop distances from the last source ([`UNREACHABLE`] when
    /// unreachable).
    #[inline]
    pub fn dist(&self) -> &[u32] {
        &self.dist
    }

    /// The nodes reached by the last source, grouped by level (the
    /// source first). Exactly the indices whose `dist` is set.
    #[inline]
    pub fn reached(&self) -> &[u32] {
        &self.reached
    }
}

/// Compressed-sparse-row adjacency view of a [`Graph`].
///
/// `targets[offsets[v]..offsets[v + 1]]` are `v`'s neighbors in the same
/// order [`Graph::neighbors`] yields them (parallel edges repeat the
/// neighbor, once per edge); `edge_ids` is the parallel array of incident
/// edge ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
    edge_ids: Vec<EdgeId>,
}

impl CsrGraph {
    /// Builds the CSR view of `g` in one pass. Annotations are dropped;
    /// node and edge ids are preserved verbatim.
    pub fn from_graph<N, E>(g: &Graph<N, E>) -> Self {
        let n = g.node_count();
        let entries = 2 * g.edge_count();
        assert!(
            entries <= MAX_CSR_ENTRIES,
            "graph exceeds u32 CSR capacity ({} adjacency entries)",
            entries
        );
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(entries);
        let mut edge_ids = Vec::with_capacity(entries);
        offsets.push(0);
        for v in g.node_ids() {
            for (u, e) in g.neighbors(v) {
                targets.push(u);
                edge_ids.push(e);
            }
            offsets.push(targets.len() as u32);
        }
        CsrGraph {
            offsets,
            targets,
            edge_ids,
        }
    }

    /// Reassembles a CSR view from its raw arrays (the snapshot-load
    /// path). Validates the structural invariants — monotone offsets
    /// bracketing the adjacency arrays, equal-length parallel arrays, an
    /// even entry count (undirected edges appear once per endpoint),
    /// in-range targets, edge ids below the edge count (every CSR the
    /// workspace builds numbers its edges densely, and the edge-indexed
    /// kernels rely on it), and each edge id at exactly two entries that
    /// name each other's node — so a corrupt or truncated snapshot fails
    /// loudly instead of producing out-of-bounds kernels or landing two
    /// links' loads on one id.
    pub fn from_raw_parts(
        offsets: Vec<u32>,
        targets: Vec<NodeId>,
        edge_ids: Vec<EdgeId>,
    ) -> Result<Self, String> {
        if offsets.is_empty() {
            return Err("offsets must contain at least the leading 0".into());
        }
        if offsets[0] != 0 {
            return Err(format!("offsets[0] must be 0, got {}", offsets[0]));
        }
        if let Some(w) = offsets.windows(2).position(|w| w[0] > w[1]) {
            return Err(format!("offsets not monotone at index {}", w));
        }
        let entries = *offsets.last().expect("non-empty") as usize;
        if entries != targets.len() || entries != edge_ids.len() {
            return Err(format!(
                "offsets end at {} but targets/edge_ids have {}/{} entries",
                entries,
                targets.len(),
                edge_ids.len()
            ));
        }
        if !entries.is_multiple_of(2) {
            return Err(format!("odd adjacency entry count {}", entries));
        }
        let n = offsets.len() - 1;
        if let Some(t) = targets.iter().find(|t| t.index() >= n) {
            return Err(format!("target {} out of range (n = {})", t.0, n));
        }
        if let Some(e) = edge_ids.iter().find(|e| e.index() >= entries / 2) {
            return Err(format!(
                "edge id {} out of range ({} edges)",
                e.0,
                entries / 2
            ));
        }
        // Pair each id's second entry with its first: `(owner, target)`
        // must mirror. No id may take a third entry, so the 2m entries
        // fill the m ids exactly twice each.
        #[derive(Clone, Copy)]
        enum Seen {
            Never,
            Once(NodeId, NodeId),
            Paired,
        }
        let mut seen = vec![Seen::Never; entries / 2];
        for v in 0..n {
            let owner = NodeId(v as u32);
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            for (&t, e) in targets[lo..hi].iter().zip(&edge_ids[lo..hi]) {
                let slot = &mut seen[e.index()];
                *slot = match *slot {
                    Seen::Never => Seen::Once(owner, t),
                    Seen::Once(a, b) if (a, b) == (t, owner) => Seen::Paired,
                    _ => {
                        return Err(format!(
                            "edge id {} is not one mirrored pair of entries (at node {})",
                            e.0, v
                        ))
                    }
                };
            }
        }
        Ok(CsrGraph {
            offsets,
            targets,
            edge_ids,
        })
    }

    /// The raw offset array: node `v`'s adjacency entries live at
    /// `offsets[v] as usize .. offsets[v + 1] as usize`. Length is
    /// `node_count() + 1`.
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The raw neighbor array, parallel to [`Self::edge_ids_raw`].
    #[inline]
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// The raw incident-edge-id array, parallel to [`Self::targets`].
    #[inline]
    pub fn edge_ids_raw(&self) -> &[EdgeId] {
        &self.edge_ids
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges (each counted once).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// Degree of `v` (parallel edges all count).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// `v`'s neighbors as a contiguous slice, in adjacency order.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.targets[self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize]
    }

    /// Ids of the edges incident to `v`, parallel to [`Self::neighbors`].
    #[inline]
    pub fn incident_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.edge_ids[self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize]
    }

    /// The degree of every node, indexed by node id. u32 entries: the
    /// per-node degree is bounded by the u32 adjacency size.
    pub fn degree_sequence(&self) -> Vec<u32> {
        (0..self.node_count())
            .map(|v| self.offsets[v + 1] - self.offsets[v])
            .collect()
    }

    /// Hop distances from `start` via direction-optimizing BFS, reusing
    /// `scratch` across sources with zero per-source allocation.
    ///
    /// Classic top-down BFS touches every adjacency entry of the
    /// frontier; on low-diameter graphs the middle levels hold most of
    /// the graph and almost every probe lands on an already-visited
    /// node. Following Beamer's direction-optimizing scheme, those fat
    /// levels instead scan the *unvisited* nodes bottom-up, testing each
    /// against a bitset of the previous level and stopping at the first
    /// hit. The mode switch (top-down → bottom-up when the frontier's
    /// edge count passes `unexplored / ALPHA`; back when the frontier
    /// shrinks below `n / BETA`) depends only on the graph and the
    /// source, so the distances — which are unique regardless of
    /// traversal order — stay bit-identical to a classic queue BFS
    /// ([`Self::bfs_tree`]'s `dist`) at any thread count.
    ///
    /// Distances land in `scratch.dist()`; reached nodes (unordered
    /// beyond level grouping) in `scratch.reached()`. Note bottom-up
    /// levels discover nodes in index order, not queue order, so unlike
    /// [`CsrBfsTree`] this scratch exposes no parents and no canonical
    /// visit order — it is the distance-only kernel.
    pub fn bfs_distances_into(&self, start: NodeId, scratch: &mut BfsScratch) {
        let n = self.node_count();
        assert_eq!(scratch.dist.len(), n, "scratch sized for a different graph");
        // Reset only what the previous source touched.
        for &v in &scratch.reached {
            scratch.dist[v as usize] = UNREACHABLE;
            scratch.visited[(v >> 6) as usize] &= !(1u64 << (v & 63));
        }
        scratch.reached.clear();
        scratch.dist[start.index()] = 0;
        scratch.visited[start.index() >> 6] |= 1u64 << (start.index() & 63);
        scratch.reached.push(start.0);
        let mut unexplored = self.targets.len() as u64 - self.degree(start) as u64;
        let mut bottom_up = false;
        let mut lo = 0usize;
        let mut level = 0u32;
        while lo < scratch.reached.len() {
            let hi = scratch.reached.len();
            if !bottom_up {
                let frontier_edges: u64 = scratch.reached[lo..hi]
                    .iter()
                    .map(|&v| self.degree(NodeId(v)) as u64)
                    .sum();
                if frontier_edges > unexplored / BFS_ALPHA {
                    bottom_up = true;
                }
            } else if ((hi - lo) as u64) < (n as u64 / BFS_BETA).max(1) {
                bottom_up = false;
            }
            level += 1;
            if bottom_up {
                for &v in &scratch.reached[lo..hi] {
                    scratch.frontier[(v >> 6) as usize] |= 1u64 << (v & 63);
                }
                for w in 0..scratch.visited.len() {
                    let mut unvisited = !scratch.visited[w];
                    while unvisited != 0 {
                        let v = (w << 6) + unvisited.trailing_zeros() as usize;
                        unvisited &= unvisited - 1;
                        let hit = self.neighbors(NodeId(v as u32)).iter().any(|u| {
                            scratch.frontier[u.index() >> 6] & (1u64 << (u.index() & 63)) != 0
                        });
                        if hit {
                            scratch.dist[v] = level;
                            scratch.visited[w] |= 1u64 << (v & 63);
                            scratch.reached.push(v as u32);
                        }
                    }
                }
                for &v in &scratch.reached[lo..hi] {
                    scratch.frontier[(v >> 6) as usize] = 0;
                }
            } else {
                let mut i = lo;
                while i < hi {
                    let v = scratch.reached[i] as usize;
                    i += 1;
                    for &u in self.neighbors(NodeId(v as u32)) {
                        let u = u.index();
                        if scratch.dist[u] == UNREACHABLE {
                            scratch.dist[u] = level;
                            scratch.visited[u >> 6] |= 1u64 << (u & 63);
                            scratch.reached.push(u as u32);
                        }
                    }
                }
            }
            unexplored -= scratch.reached[hi..]
                .iter()
                .map(|&v| self.degree(NodeId(v)) as u64)
                .sum::<u64>();
            lo = hi;
        }
    }

    /// BFS shortest-path tree from `start`: hop distances plus, for every
    /// reached non-source node, the parent node and the edge it was first
    /// discovered through (deterministic: neighbors are scanned in
    /// adjacency order).
    pub fn bfs_tree(&self, start: NodeId) -> CsrBfsTree {
        let mut tree = CsrBfsTree::sized(self.node_count());
        self.bfs_tree_into(start, &mut tree);
        tree
    }

    /// Recomputes the BFS tree from `start` into `tree`, reusing its
    /// buffers. Resets only the entries the previous run touched (via its
    /// visit order), so sweeping many sources through one tree costs no
    /// allocation and O(reached) reset per source — the reuse path the
    /// traffic engine's per-source loop runs on. `tree` must have been
    /// created by [`CsrBfsTree::sized`] (or a previous `bfs_tree`) with
    /// this graph's node count.
    pub fn bfs_tree_into(&self, start: NodeId, tree: &mut CsrBfsTree) {
        assert_eq!(
            tree.dist.len(),
            self.node_count(),
            "tree sized for a different graph"
        );
        for &v in &tree.order {
            tree.dist[v.index()] = UNREACHABLE;
        }
        tree.order.clear();
        tree.latency.clear();
        tree.source = start;
        tree.dist[start.index()] = 0;
        tree.order.push(start);
        let mut head = 0;
        while head < tree.order.len() {
            let v = tree.order[head];
            head += 1;
            let d = tree.dist[v.index()] + 1;
            let lo = self.offsets[v.index()] as usize;
            let hi = self.offsets[v.index() + 1] as usize;
            for i in lo..hi {
                let u = self.targets[i];
                if tree.dist[u.index()] == UNREACHABLE {
                    tree.dist[u.index()] = d;
                    tree.parent_node[u.index()] = v;
                    tree.parent_edge[u.index()] = self.edge_ids[i];
                    tree.order.push(u);
                }
            }
        }
    }

    /// Shortest-path DAG from `start` into `dag`, in one FIFO pass that
    /// reuses `dag`'s buffers with the same O(reached) reset as
    /// [`Self::bfs_tree_into`]. The pass records hop distances and the
    /// visit order (both identical to [`Self::bfs_tree_into`]'s), every
    /// node's path count σ, and every DAG edge as a `(parent, edge)`
    /// slot of its child.
    ///
    /// With `weights` (indexed by edge id), σ counts each path with the
    /// product of its edge weights: `σ[u] += σ[v]·w[e]` on each DAG edge.
    /// Without, every weight is 1.0, which multiplies by exactly 1.0, so
    /// the unweighted counts are the same bits as unit weights. Either
    /// way each σ sums its parents in visit order and each parent's
    /// entries in adjacency order, and a node's slots follow that same
    /// order. This is the ECMP kernel of the traffic engine and the
    /// forward sweep of Brandes betweenness.
    pub fn path_dag_into(&self, start: NodeId, weights: Option<&[f64]>, dag: &mut CsrPathDag) {
        assert_eq!(
            (dag.dist.len(), dag.preds.len()),
            (self.node_count(), self.targets.len()),
            "DAG sized for a different graph"
        );
        match weights {
            None => self.path_dag_sweep(start, dag, |_| 1.0),
            Some(w) => {
                assert_eq!(w.len(), self.edge_count(), "one weight per edge");
                self.path_dag_sweep(start, dag, |e| w[e.index()])
            }
        }
    }

    fn path_dag_sweep(&self, start: NodeId, dag: &mut CsrPathDag, weight: impl Fn(EdgeId) -> f64) {
        for &v in &dag.order {
            dag.dist[v.index()] = UNREACHABLE;
            dag.sigma[v.index()] = 0.0;
            dag.pred_len[v.index()] = 0;
        }
        dag.order.clear();
        dag.source = start;
        dag.dist[start.index()] = 0;
        dag.sigma[start.index()] = 1.0;
        dag.order.push(start);
        let mut head = 0;
        while head < dag.order.len() {
            let v = dag.order[head];
            head += 1;
            let next = dag.dist[v.index()] + 1;
            let sigma_v = dag.sigma[v.index()];
            let lo = self.offsets[v.index()] as usize;
            let hi = self.offsets[v.index() + 1] as usize;
            for i in lo..hi {
                let u = self.targets[i].index();
                if dag.dist[u] == UNREACHABLE {
                    dag.dist[u] = next;
                    dag.order.push(NodeId(u as u32));
                }
                if dag.dist[u] == next {
                    let e = self.edge_ids[i];
                    dag.sigma[u] += sigma_v * weight(e);
                    dag.preds[self.offsets[u] as usize + dag.pred_len[u] as usize] = (v, e);
                    dag.pred_len[u] += 1;
                }
            }
        }
    }

    /// Dijkstra shortest-path tree from `start` under per-edge `latency`
    /// (indexed by edge id, finite and non-negative), into `tree`,
    /// reusing its buffers with the same O(reached) reset as
    /// [`Self::bfs_tree_into`]. This is the workspace's one weighted
    /// shortest-path kernel (probe campaigns, backbone design).
    ///
    /// The visit order is the settle order, `dist` holds each settled
    /// node's hop depth in the tree, and [`CsrBfsTree::latency`] its
    /// distance. Ties are deterministic: a node is relaxed only on a
    /// strict improvement, neighbors are pushed in adjacency order, and
    /// heap entries compare on distance alone, so equal distances pop in
    /// the binary heap's own fixed order. Each `d + w` is one rounding,
    /// so every distance is reproducible to the bit.
    pub fn dijkstra_tree_into(&self, start: NodeId, latency: &[f64], tree: &mut CsrBfsTree) {
        let n = self.node_count();
        assert_eq!(tree.dist.len(), n, "tree sized for a different graph");
        assert_eq!(latency.len(), self.edge_count(), "one latency per edge");
        for &v in &tree.order {
            tree.dist[v.index()] = UNREACHABLE;
            // Empty after a BFS run, which needs no latency reset.
            if let Some(l) = tree.latency.get_mut(v.index()) {
                *l = f64::INFINITY;
            }
        }
        tree.order.clear();
        tree.latency.resize(n, f64::INFINITY);
        tree.source = start;
        debug_assert!(tree.heap.is_empty());
        tree.latency[start.index()] = 0.0;
        tree.heap.push(HeapEntry {
            dist: 0.0,
            node: start,
        });
        while let Some(HeapEntry { dist: d, node: v }) = tree.heap.pop() {
            if tree.dist[v.index()] != UNREACHABLE {
                continue;
            }
            // A node's parent is final once it settles, and was settled
            // before it, so its depth is already in place.
            tree.dist[v.index()] = if v == start {
                0
            } else {
                tree.dist[tree.parent_node[v.index()].index()] + 1
            };
            tree.order.push(v);
            let lo = self.offsets[v.index()] as usize;
            let hi = self.offsets[v.index() + 1] as usize;
            for i in lo..hi {
                let u = self.targets[i];
                let nd = d + latency[self.edge_ids[i].index()];
                if nd < tree.latency[u.index()] {
                    tree.latency[u.index()] = nd;
                    tree.parent_node[u.index()] = v;
                    tree.parent_edge[u.index()] = self.edge_ids[i];
                    tree.heap.push(HeapEntry { dist: nd, node: u });
                }
            }
        }
    }

    /// Connected components among the nodes `alive` keeps (every node
    /// when `None`; an edge survives when both ends do). One FIFO BFS
    /// runs from each unlabelled kept node in id order, so labels count
    /// up from 0 in order of discovery. This is the one component pass
    /// behind every connectivity query in the workspace.
    pub fn components(&self, alive: Option<&[bool]>) -> Components {
        let n = self.node_count();
        if let Some(alive) = alive {
            assert_eq!(alive.len(), n, "alive mask length mismatch");
        }
        let kept = |v: usize| alive.is_none_or(|alive| alive[v]);
        let mut labels = vec![UNREACHABLE; n];
        let mut sizes = Vec::new();
        let mut queue: Vec<u32> = Vec::new();
        for s in 0..n {
            if labels[s] != UNREACHABLE || !kept(s) {
                continue;
            }
            let id = sizes.len() as u32;
            labels[s] = id;
            queue.clear();
            queue.push(s as u32);
            let mut head = 0;
            while head < queue.len() {
                let v = queue[head];
                head += 1;
                for &u in self.neighbors(NodeId(v)) {
                    let u = u.index();
                    if labels[u] == UNREACHABLE && kept(u) {
                        labels[u] = id;
                        queue.push(u as u32);
                    }
                }
            }
            sizes.push(queue.len());
        }
        Components { labels, sizes }
    }

    /// Number of connected components (0 for the empty graph).
    pub fn component_count(&self) -> usize {
        self.components(None).sizes.len()
    }

    /// Size of the largest connected component (0 for the empty graph).
    pub fn largest_component_size(&self) -> usize {
        self.components(None).largest_size()
    }

    /// Size of the largest connected component among the nodes for which
    /// `alive` is `true` (edges between two alive nodes survive): the
    /// copy-free equivalent of `induced_subgraph` +
    /// `largest_component_size`, which the robustness sweeps call
    /// thousands of times.
    pub fn largest_component_size_masked(&self, alive: &[bool]) -> usize {
        self.components(Some(alive)).largest_size()
    }

    /// Edge-masked copy of this view: every node survives (ids are
    /// unchanged), and exactly the edges whose slot in `alive` is `true`
    /// survive, preserving relative adjacency order. Surviving edges are
    /// renumbered densely in ascending old-id order; the returned map
    /// gives each new edge's old id (`map[new.index()] == old`), so
    /// per-edge columns (capacities, weights) carry across with one
    /// gather. The allocation-light equivalent of
    /// [`Graph::edge_subgraph`] + [`Self::from_graph`] — and exactly
    /// equal to it, edge ids included (validated by tests), because both
    /// preserve relative adjacency order. That makes BFS trees on the
    /// masked view identical to trees on a rebuilt subgraph, which is
    /// what the cascade simulator's re-route rounds rely on.
    ///
    /// Requires dense edge ids (every id in `edge_ids_raw()` below
    /// `edge_count()`), which holds for any CSR built by
    /// [`Self::from_graph`].
    pub fn edge_masked(&self, alive: &[bool]) -> (CsrGraph, Vec<EdgeId>) {
        assert_eq!(alive.len(), self.edge_count(), "alive mask length mismatch");
        let mut renumber = vec![u32::MAX; self.edge_count()];
        let mut new_to_old = Vec::new();
        for (old, &keep) in alive.iter().enumerate() {
            if keep {
                renumber[old] = new_to_old.len() as u32;
                new_to_old.push(EdgeId(old as u32));
            }
        }
        let n = self.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(2 * new_to_old.len());
        let mut edge_ids = Vec::with_capacity(2 * new_to_old.len());
        offsets.push(0);
        for v in 0..n {
            let lo = self.offsets[v] as usize;
            let hi = self.offsets[v + 1] as usize;
            for i in lo..hi {
                let old = self.edge_ids[i].index();
                assert!(old < alive.len(), "edge ids must be dense");
                if alive[old] {
                    targets.push(self.targets[i]);
                    edge_ids.push(EdgeId(renumber[old]));
                }
            }
            offsets.push(targets.len() as u32);
        }
        (
            CsrGraph {
                offsets,
                targets,
                edge_ids,
            },
            new_to_old,
        )
    }

    /// Membership mask of the largest connected component (ties broken
    /// toward the component discovered first). Empty for the empty
    /// graph.
    pub fn largest_component_mask(&self) -> Vec<bool> {
        let components = self.components(None);
        match components.largest() {
            Some(best) => components.labels.iter().map(|&l| l == best).collect(),
            None => Vec::new(),
        }
    }
}

/// Connected components from [`CsrGraph::components`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Components {
    /// Component label of every node, counting up from 0 in order of
    /// discovery (so component `c`'s smallest node precedes component
    /// `c + 1`'s); [`UNREACHABLE`] for nodes outside the mask.
    pub labels: Vec<u32>,
    /// Node count of each component, indexed by label.
    pub sizes: Vec<usize>,
}

impl Components {
    /// Label of the largest component, ties broken toward the one
    /// discovered first; `None` when there is no component.
    pub(crate) fn largest(&self) -> Option<u32> {
        (0..self.sizes.len())
            .max_by_key(|&i| (self.sizes[i], std::cmp::Reverse(i)))
            .map(|i| i as u32)
    }

    /// Size of the largest component (0 when there is none).
    pub(crate) fn largest_size(&self) -> usize {
        self.sizes.iter().copied().max().unwrap_or(0)
    }
}

/// Min-heap entry of [`CsrGraph::dijkstra_tree_into`]: ordered on `dist`
/// alone, reversed, so the tie order among equal distances is the
/// heap's.
#[derive(Clone, Debug, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
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

/// Shortest-path tree over a [`CsrGraph`] — a BFS tree
/// ([`CsrGraph::bfs_tree_into`]) or a Dijkstra tree
/// ([`CsrGraph::dijkstra_tree_into`]) — with edge-path extraction.
///
/// Beyond distances and paths, the tree exposes its **visit order**
/// (source first, then every reached node after its parent): replaying
/// it in reverse visits every node after all of its subtree, which is
/// what lets the traffic engine turn per-flow path walks into one O(n)
/// subtree accumulation per source.
#[derive(Clone, Debug)]
pub struct CsrBfsTree {
    /// The tree's source.
    pub source: NodeId,
    /// Hop depth in the tree ([`UNREACHABLE`] when unreachable). For a
    /// BFS tree this is the hop distance.
    pub dist: Vec<u32>,
    parent_node: Vec<NodeId>,
    parent_edge: Vec<EdgeId>,
    /// Visit (BFS) or settle (Dijkstra) order; exactly the reachable
    /// nodes.
    order: Vec<NodeId>,
    /// Dijkstra distances (`f64::INFINITY` when unreachable); empty
    /// after a BFS run.
    latency: Vec<f64>,
    /// Dijkstra's heap, kept only for its capacity (empty between runs).
    heap: BinaryHeap<HeapEntry>,
}

impl CsrBfsTree {
    /// An empty tree sized for `n` nodes (nothing reached, source
    /// unset), ready for [`CsrGraph::bfs_tree_into`] or
    /// [`CsrGraph::dijkstra_tree_into`].
    pub fn sized(n: usize) -> CsrBfsTree {
        CsrBfsTree {
            source: NodeId(u32::MAX),
            dist: vec![UNREACHABLE; n],
            parent_node: vec![NodeId(u32::MAX); n],
            parent_edge: vec![EdgeId(u32::MAX); n],
            order: Vec::with_capacity(n),
            latency: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// The reached nodes in visit order: the source first, and every
    /// other node after its parent. A BFS tree visits in non-decreasing
    /// hop distance, a Dijkstra tree in non-decreasing latency.
    /// Unreachable nodes do not appear.
    pub fn visit_order(&self) -> &[NodeId] {
        &self.order
    }

    /// Per-node distance of a Dijkstra tree (`f64::INFINITY` when
    /// unreachable), indexed by node id; `None` for a BFS tree.
    #[inline]
    pub fn latency(&self) -> Option<&[f64]> {
        if self.latency.is_empty() {
            None
        } else {
            Some(&self.latency)
        }
    }

    /// The parent of `v` in the tree — the node and the edge `v` was
    /// reached through (BFS: first discovered; Dijkstra: last relaxed)
    /// — or `None` for the source and for unreachable nodes.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<(NodeId, EdgeId)> {
        if v == self.source || self.dist[v.index()] == UNREACHABLE {
            None
        } else {
            Some((self.parent_node[v.index()], self.parent_edge[v.index()]))
        }
    }

    /// Raw parent-node array, indexed by node id. Entries are
    /// meaningful only for *reached non-source* nodes (check `dist`
    /// first); everything else holds stale or sentinel values. The
    /// checked accessor is [`Self::parent`] — this is the
    /// allocation-free variant the probe engine's chain walks use.
    #[inline]
    pub fn parent_nodes(&self) -> &[NodeId] {
        &self.parent_node
    }

    /// Raw parent-edge array, parallel to [`Self::parent_nodes`], with
    /// the same validity caveat.
    #[inline]
    pub fn parent_edges(&self) -> &[EdgeId] {
        &self.parent_edge
    }

    /// The edge sequence of the tree path from the source to `target`, or
    /// `None` when unreachable. The empty path is returned for
    /// `target == source`.
    pub fn edge_path_to(&self, target: NodeId) -> Option<Vec<EdgeId>> {
        if self.dist[target.index()] == UNREACHABLE {
            return None;
        }
        let mut edges = Vec::with_capacity(self.dist[target.index()] as usize);
        let mut cur = target;
        while cur != self.source {
            edges.push(self.parent_edge[cur.index()]);
            cur = self.parent_node[cur.index()];
        }
        edges.reverse();
        Some(edges)
    }
}

/// Shortest-path DAG from one source over a [`CsrGraph`], filled by
/// [`CsrGraph::path_dag_into`]: hop distances, the FIFO visit order,
/// (optionally weighted) path counts σ, and each node's DAG in-edges.
///
/// The in-edges sit in one flat array as long as the adjacency arrays:
/// node `u`'s `(parent, edge)` slots are `offsets[u] .. offsets[u] +
/// pred_len[u]`, one slot per DAG edge, so a parallel edge fills two. A
/// node's DAG in-edges are a subset of its incident edges, so the
/// buffers are sized once per (thread, graph) and never reallocate.
#[derive(Clone, Debug)]
pub struct CsrPathDag {
    source: NodeId,
    dist: Vec<u32>,
    sigma: Vec<f64>,
    order: Vec<NodeId>,
    preds: Vec<(NodeId, EdgeId)>,
    pred_len: Vec<u32>,
}

impl CsrPathDag {
    /// An empty DAG sized for `csr` (nothing reached, source unset),
    /// ready for [`CsrGraph::path_dag_into`].
    pub fn sized(csr: &CsrGraph) -> CsrPathDag {
        let n = csr.node_count();
        CsrPathDag {
            source: NodeId(u32::MAX),
            dist: vec![UNREACHABLE; n],
            sigma: vec![0.0; n],
            order: Vec::with_capacity(n),
            preds: vec![(NodeId(u32::MAX), EdgeId(u32::MAX)); csr.targets.len()],
            pred_len: vec![0; n],
        }
    }

    /// The DAG's source.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Hop distance from the source ([`UNREACHABLE`] when unreachable),
    /// indexed by node id.
    #[inline]
    pub fn dist(&self) -> &[u32] {
        &self.dist
    }

    /// Path count σ from the source, indexed by node id; meaningful only
    /// for reached nodes.
    #[inline]
    pub fn sigma(&self) -> &[f64] {
        &self.sigma
    }

    /// The reached nodes in FIFO visit order: the source first, then by
    /// non-decreasing hop distance. Unreachable nodes do not appear.
    #[inline]
    pub fn visit_order(&self) -> &[NodeId] {
        &self.order
    }

    /// `u`'s DAG in-edges as `(parent, edge)`, parents in visit order and
    /// each parent's edges in its adjacency order. `csr` must be the
    /// graph the DAG was computed on. Empty for the source and for
    /// unreachable nodes.
    #[inline]
    pub fn preds(&self, csr: &CsrGraph, u: NodeId) -> &[(NodeId, EdgeId)] {
        let lo = csr.offsets[u.index()] as usize;
        &self.preds[lo..lo + self.pred_len[u.index()] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn diamond() -> Graph<&'static str, u32> {
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
    fn csr_matches_adjacency() {
        let g = diamond();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.node_count(), g.node_count());
        assert_eq!(csr.edge_count(), g.edge_count());
        assert_eq!(csr.degree_sequence(), g.degree_sequence());
        for v in g.node_ids() {
            let adj: Vec<(NodeId, EdgeId)> = g.neighbors(v).collect();
            let via_csr: Vec<(NodeId, EdgeId)> = csr
                .neighbors(v)
                .iter()
                .copied()
                .zip(csr.incident_edges(v).iter().copied())
                .collect();
            assert_eq!(adj, via_csr, "adjacency order preserved at {:?}", v);
        }
    }

    #[test]
    fn csr_parallel_edges_repeat() {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(a, b, ());
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.degree(a), 2);
        assert_eq!(csr.neighbors(a), &[b, b]);
        assert_eq!(csr.edge_count(), 2);
    }

    #[test]
    fn csr_empty_graph() {
        let g: Graph<(), ()> = Graph::new();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.edge_count(), 0);
        assert_eq!(csr.component_count(), 0);
        assert_eq!(csr.largest_component_size(), 0);
        assert!(csr.largest_component_mask().is_empty());
    }

    #[test]
    fn csr_bfs_matches_traversal() {
        let csr = CsrGraph::from_graph(&diamond());
        assert_eq!(csr.bfs_tree(NodeId(0)).dist, vec![0, 1, 1, 2]);
        assert_eq!(csr.bfs_tree(NodeId(3)).dist, vec![2, 1, 1, 0]);
    }

    /// The star graph drives the direction-optimizing kernel straight
    /// into bottom-up mode (the hub's frontier carries every edge), so
    /// this checks the mode switch, the bitset scan, and the phantom
    /// tail bits (10_001 is not a multiple of 64) in one go.
    #[test]
    fn dirop_bfs_star_matches_classic() {
        let n = 10_001usize;
        let g: Graph<(), ()> = Graph::from_edges(n, (1..n).map(|i| (0, i, ())).collect::<Vec<_>>());
        let csr = CsrGraph::from_graph(&g);
        let mut scratch = BfsScratch::sized(n);
        for s in [0usize, 1, 5000] {
            csr.bfs_distances_into(NodeId(s as u32), &mut scratch);
            // Hub at 1 hop from a leaf, every other leaf at 2.
            let expected: Vec<u32> = (0..n)
                .map(|v| match (v == s, v == 0 || s == 0) {
                    (true, _) => 0,
                    (false, true) => 1,
                    (false, false) => 2,
                })
                .collect();
            assert_eq!(scratch.dist(), &expected[..], "{}", s);
            assert_eq!(scratch.reached().len(), n, "{}", s);
        }
    }

    #[test]
    fn dirop_bfs_disconnected_reset() {
        let g: Graph<(), ()> = Graph::from_edges(6, vec![(0, 1, ()), (1, 2, ()), (3, 4, ())]);
        let csr = CsrGraph::from_graph(&g);
        let mut scratch = BfsScratch::sized(6);
        const U: u32 = UNREACHABLE;
        // Big component, then small, then isolated: stale distances and
        // visited bits from the earlier (larger) run must not leak.
        for (s, expected) in [
            (0u32, [0, 1, 2, U, U, U]),
            (3, [U, U, U, 0, 1, U]),
            (5, [U, U, U, U, U, 0]),
            (0, [0, 1, 2, U, U, U]),
        ] {
            csr.bfs_distances_into(NodeId(s), &mut scratch);
            assert_eq!(scratch.dist(), &expected[..], "{}", s);
            let finite = scratch.dist().iter().filter(|&&d| d != UNREACHABLE).count();
            assert_eq!(scratch.reached().len(), finite, "{}", s);
        }
    }

    #[test]
    fn from_raw_parts_validates() {
        let g = diamond();
        let csr = CsrGraph::from_graph(&g);
        let rebuilt = CsrGraph::from_raw_parts(
            csr.offsets().to_vec(),
            csr.targets().to_vec(),
            csr.edge_ids_raw().to_vec(),
        )
        .expect("valid arrays round-trip");
        assert_eq!(rebuilt, csr);
        assert!(CsrGraph::from_raw_parts(vec![], vec![], vec![]).is_err());
        assert!(
            CsrGraph::from_raw_parts(vec![1, 2], vec![NodeId(0); 2], vec![EdgeId(0); 2]).is_err()
        );
        assert!(
            CsrGraph::from_raw_parts(vec![0, 2, 1], vec![NodeId(0); 2], vec![EdgeId(0); 2])
                .is_err()
        );
        assert!(
            CsrGraph::from_raw_parts(vec![0, 2], vec![NodeId(0)], vec![EdgeId(0)]).is_err(),
            "length mismatch"
        );
        assert!(
            CsrGraph::from_raw_parts(vec![0, 1], vec![NodeId(0)], vec![EdgeId(0)]).is_err(),
            "odd entry count"
        );
        assert!(
            CsrGraph::from_raw_parts(vec![0, 2], vec![NodeId(7), NodeId(0)], vec![EdgeId(0); 2])
                .is_err(),
            "target out of range"
        );
        // Edge ids index per-edge columns, so they must stay below the
        // edge count (entries / 2).
        let mut edge_ids = csr.edge_ids_raw().to_vec();
        edge_ids[3] = EdgeId(csr.edge_count() as u32);
        assert!(
            CsrGraph::from_raw_parts(csr.offsets().to_vec(), csr.targets().to_vec(), edge_ids)
                .is_err(),
            "edge id out of range"
        );
        // Each id names one link: exactly two entries, mirroring each
        // other. A copied in-range id (three entries for one id, one for
        // another) and two swapped ids (each twice, but not mirrored)
        // are both rejected.
        let mut edge_ids = csr.edge_ids_raw().to_vec();
        assert_ne!(edge_ids[3], edge_ids[0]);
        edge_ids[3] = edge_ids[0];
        assert!(
            CsrGraph::from_raw_parts(csr.offsets().to_vec(), csr.targets().to_vec(), edge_ids)
                .is_err(),
            "duplicated edge id"
        );
        let mut edge_ids = csr.edge_ids_raw().to_vec();
        edge_ids.swap(0, 1);
        assert!(
            CsrGraph::from_raw_parts(csr.offsets().to_vec(), csr.targets().to_vec(), edge_ids)
                .is_err(),
            "swapped edge ids"
        );
    }

    #[test]
    fn bfs_tree_paths_are_shortest() {
        let g = diamond();
        let csr = CsrGraph::from_graph(&g);
        let tree = csr.bfs_tree(NodeId(0));
        assert_eq!(tree.edge_path_to(NodeId(0)).unwrap(), Vec::<EdgeId>::new());
        let path = tree.edge_path_to(NodeId(3)).unwrap();
        assert_eq!(path.len() as u32, tree.dist[3]);
        // Walk the path from the source and confirm it ends at the target.
        let mut at = NodeId(0);
        for e in path {
            at = g.opposite(e, at);
        }
        assert_eq!(at, NodeId(3));
    }

    #[test]
    fn bfs_tree_unreachable_is_none() {
        let g: Graph<(), ()> = Graph::from_edges(4, vec![(0, 1, ()), (2, 3, ())]);
        let csr = CsrGraph::from_graph(&g);
        let tree = csr.bfs_tree(NodeId(0));
        assert!(tree.edge_path_to(NodeId(2)).is_none());
        assert!(tree.edge_path_to(NodeId(1)).is_some());
        // The visit order covers exactly the reachable component and
        // parents are defined exactly off-source within it.
        assert_eq!(tree.visit_order(), &[NodeId(0), NodeId(1)]);
        assert!(tree.parent(NodeId(0)).is_none());
        assert!(tree.parent(NodeId(2)).is_none());
        assert_eq!(tree.parent(NodeId(1)), Some((NodeId(0), EdgeId(0))));
    }

    /// Re-running `bfs_tree_into` across sources through one scratch tree
    /// matches a fresh `bfs_tree` per source exactly — including after a
    /// source whose component was larger (stale entries must be reset).
    #[test]
    fn bfs_tree_into_reuse_matches_fresh() {
        let g: Graph<(), ()> = Graph::from_edges(6, vec![(0, 1, ()), (1, 2, ()), (3, 4, ())]);
        let csr = CsrGraph::from_graph(&g);
        let mut scratch = CsrBfsTree::sized(csr.node_count());
        for s in [0u32, 3, 5, 1] {
            csr.bfs_tree_into(NodeId(s), &mut scratch);
            let fresh = csr.bfs_tree(NodeId(s));
            assert_eq!(scratch.dist, fresh.dist, "source {}", s);
            assert_eq!(scratch.visit_order(), fresh.visit_order(), "source {}", s);
            for v in 0..csr.node_count() {
                assert_eq!(
                    scratch.parent(NodeId(v as u32)),
                    fresh.parent(NodeId(v as u32)),
                    "source {}, node {}",
                    s,
                    v
                );
            }
        }
    }

    /// The diamond plus a second a–b link (edge 5): from a, b collects
    /// both parallel links (σ = 2) and d three paths over its two DAG
    /// edges b–d and c–d; a reused DAG resets cleanly for a smaller
    /// component.
    #[test]
    fn path_dag_counts_weighted_paths_and_keeps_slot_order() {
        let mut g = diamond();
        g.add_edge(NodeId(0), NodeId(1), 6);
        g.add_node("e");
        let csr = CsrGraph::from_graph(&g);
        let mut dag = CsrPathDag::sized(&csr);
        csr.path_dag_into(NodeId(0), None, &mut dag);
        let tree = csr.bfs_tree(NodeId(0));
        assert_eq!(dag.dist(), &tree.dist[..]);
        assert_eq!(dag.visit_order(), tree.visit_order());
        assert_eq!(&dag.sigma()[..4], &[1.0, 2.0, 1.0, 3.0]);
        assert_eq!(
            dag.preds(&csr, NodeId(1)),
            &[(NodeId(0), EdgeId(0)), (NodeId(0), EdgeId(5))]
        );
        assert_eq!(
            dag.preds(&csr, NodeId(3)),
            &[(NodeId(1), EdgeId(3)), (NodeId(2), EdgeId(4))]
        );
        assert!(dag.preds(&csr, NodeId(0)).is_empty());
        assert_eq!(dag.dist()[4], UNREACHABLE);
        // σ[d] = w0·w3 + w5·w3 + w1·w4 = 2·1 + 0.5·1 + 1·3.
        let w = [2.0, 1.0, 1.0, 1.0, 3.0, 0.5];
        csr.path_dag_into(NodeId(0), Some(&w), &mut dag);
        assert_eq!(&dag.sigma()[..4], &[1.0, 2.5, 1.0, 5.5]);
        csr.path_dag_into(NodeId(4), None, &mut dag);
        assert_eq!(dag.source(), NodeId(4));
        assert_eq!(dag.visit_order(), &[NodeId(4)]);
        assert_eq!(dag.dist()[..4], [UNREACHABLE; 4]);
        assert!(dag.preds(&csr, NodeId(3)).is_empty());
    }

    #[test]
    fn masked_component_matches_induced_subgraph() {
        let csr = CsrGraph::from_graph(&diamond());
        // a and d are not adjacent, so {a, d} splits into two singletons.
        for (mask, largest) in [
            ([true, true, true, true], 4),
            ([false, true, true, true], 3),
            ([true, false, false, true], 1),
            ([false, false, false, false], 0),
        ] {
            assert_eq!(
                csr.largest_component_size_masked(&mask),
                largest,
                "mask {:?}",
                mask
            );
        }
    }

    #[test]
    fn components_label_in_discovery_order() {
        // {0, 3} and {1, 4} are edges; 2 and 5 are isolated.
        let g: Graph<(), ()> = Graph::from_edges(6, vec![(3, 0, ()), (4, 1, ())]);
        let csr = CsrGraph::from_graph(&g);
        let all = csr.components(None);
        assert_eq!(all.labels, vec![0, 1, 2, 0, 1, 3]);
        assert_eq!(all.sizes, vec![2, 2, 1, 1]);
        assert_eq!(all.largest(), Some(0), "ties go to the first found");
        // Masking out node 0 leaves 3 alone and shifts the labels.
        let masked = csr.components(Some(&[false, true, true, true, true, true]));
        assert_eq!(masked.labels, vec![UNREACHABLE, 0, 1, 2, 0, 3]);
        assert_eq!(masked.sizes, vec![2, 1, 1, 1]);
        assert_eq!(csr.component_count(), 4);
    }

    #[test]
    fn edge_masked_diamond() {
        let g = diamond();
        let csr = CsrGraph::from_graph(&g);
        // Drop edges 1 (a-c) and 3 (b-d): path a-b-c-d survives.
        let alive = vec![true, false, true, false, true];
        let (masked, map) = csr.edge_masked(&alive);
        assert_eq!(masked.node_count(), 4);
        assert_eq!(masked.edge_count(), 3);
        assert_eq!(map, vec![EdgeId(0), EdgeId(2), EdgeId(4)]);
        // Adjacency order is the filtered original order.
        assert_eq!(masked.neighbors(NodeId(0)), &[NodeId(1)]);
        assert_eq!(masked.neighbors(NodeId(1)), &[NodeId(0), NodeId(2)]);
        assert_eq!(masked.incident_edges(NodeId(1)), &[EdgeId(0), EdgeId(1)]);
        assert_eq!(masked.bfs_tree(NodeId(0)).dist, vec![0, 1, 2, 3]);
    }

    #[test]
    fn edge_masked_all_alive_is_identity() {
        let g = diamond();
        let csr = CsrGraph::from_graph(&g);
        let (masked, map) = csr.edge_masked(&vec![true; csr.edge_count()]);
        assert_eq!(masked, csr);
        assert_eq!(map, (0..5).map(EdgeId).collect::<Vec<_>>());
    }

    #[test]
    fn edge_masked_all_dead_keeps_nodes() {
        let g = diamond();
        let csr = CsrGraph::from_graph(&g);
        let (masked, map) = csr.edge_masked(&vec![false; csr.edge_count()]);
        assert_eq!(masked.node_count(), 4);
        assert_eq!(masked.edge_count(), 0);
        assert!(map.is_empty());
        assert_eq!(masked.largest_component_size(), 1);
    }

    #[test]
    fn edge_masked_parallel_edges() {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(a, b, ());
        let csr = CsrGraph::from_graph(&g);
        let (masked, map) = csr.edge_masked(&[false, true]);
        assert_eq!(masked.edge_count(), 1);
        assert_eq!(map, vec![EdgeId(1)]);
        assert_eq!(masked.neighbors(a), &[b]);
        assert_eq!(masked.incident_edges(a), &[EdgeId(0)]);
    }

    #[test]
    fn component_mask_matches_traversal() {
        let g: Graph<(), ()> = Graph::from_edges(5, vec![(0, 1, ()), (2, 3, ()), (3, 4, ())]);
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(
            csr.largest_component_mask(),
            vec![false, false, true, true, true]
        );
        assert_eq!(csr.largest_component_size(), 3);
    }

    /// Regression for the old `Vec<Vec<NodeId>>` predecessor scratch: on
    /// a hub-dominated graph the path DAG's flat slot array stays at its
    /// construction size (exactly one slot per adjacency entry) through
    /// sweeps from the hub and from a leaf, so Brandes on a 10k-node
    /// star completes quickly and exactly. The hub sits on all C(9999, 2)
    /// leaf pairs, and every quantity is integer-valued, so the f64
    /// result is exact.
    #[test]
    fn star_10k_betweenness_linear_memory() {
        let n = 10_000usize;
        let g: Graph<(), ()> = Graph::from_edges(n, (1..n).map(|i| (0, i, ())).collect::<Vec<_>>());
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.targets.len(), 2 * (n - 1));
        let mut dag = CsrPathDag::sized(&csr);
        for s in [NodeId(0), NodeId(1)] {
            csr.path_dag_into(s, None, &mut dag);
            assert_eq!(dag.preds.len(), 2 * (n - 1));
        }
        let b = crate::parallel::par_betweenness(&csr, crate::parallel::default_threads());
        let leaves = (n - 1) as f64;
        assert_eq!(b[0], leaves * (leaves - 1.0) / 2.0);
        assert!(b[1..].iter().all(|&x| x == 0.0));
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use crate::graph::Graph;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Builds a random multigraph: `n` nodes, every pair in `pairs` with
    /// distinct endpoints (mod n) becomes an edge — duplicates are kept,
    /// so parallel edges occur.
    fn multigraph(n: usize, pairs: &[(usize, usize)]) -> Graph<(), ()> {
        let mut g: Graph<(), ()> = Graph::new();
        for _ in 0..n {
            g.add_node(());
        }
        for &(a, b) in pairs {
            let (a, b) = (a % n, b % n);
            if a != b {
                g.add_edge(NodeId(a as u32), NodeId(b as u32), ());
            }
        }
        g
    }

    /// Edge multiset keyed by unordered endpoints.
    fn multiplicity(g: &Graph<(), ()>) -> BTreeMap<(u32, u32), usize> {
        let mut m = BTreeMap::new();
        for (_, a, b, _) in g.edges() {
            let key = (a.0.min(b.0), a.0.max(b.0));
            *m.entry(key).or_insert(0) += 1;
        }
        m
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// `CsrGraph::from_graph` preserves the degree sequence, each
        /// node's neighbor multiset, and per-pair edge multiplicity.
        #[test]
        fn csr_preserves_multigraph_structure(
            n in 1usize..24,
            pairs in proptest::collection::vec((0usize..24, 0usize..24), 0..60),
        ) {
            let g = multigraph(n, &pairs);
            let csr = CsrGraph::from_graph(&g);
            prop_assert_eq!(csr.node_count(), g.node_count());
            prop_assert_eq!(csr.edge_count(), g.edge_count());
            prop_assert_eq!(csr.degree_sequence(), g.degree_sequence());
            // Neighbor multisets and edge-id consistency per node.
            for v in g.node_ids() {
                let mut from_graph: Vec<u32> = g.neighbors(v).map(|(u, _)| u.0).collect();
                let mut from_csr: Vec<u32> = csr.neighbors(v).iter().map(|u| u.0).collect();
                from_graph.sort_unstable();
                from_csr.sort_unstable();
                prop_assert_eq!(from_graph, from_csr);
                for (&u, &e) in csr.neighbors(v).iter().zip(csr.incident_edges(v)) {
                    prop_assert_eq!(g.opposite(e, v), u);
                }
            }
            // Edge multiplicity per unordered pair, recovered from the
            // CSR entries with v < target (each edge appears exactly once
            // on that side since self-loops are banned).
            let mut csr_mult: BTreeMap<(u32, u32), usize> = BTreeMap::new();
            for v in g.node_ids() {
                for &u in csr.neighbors(v) {
                    if v.0 < u.0 {
                        *csr_mult.entry((v.0, u.0)).or_insert(0) += 1;
                    }
                }
            }
            prop_assert_eq!(csr_mult, multiplicity(&g));
        }

        /// `edge_masked` is exactly `edge_subgraph` + `from_graph`:
        /// same arrays, same (renumbered) edge ids, and the new→old map
        /// inverts the renumbering.
        #[test]
        fn edge_masked_matches_edge_subgraph(
            n in 1usize..24,
            pairs in proptest::collection::vec((0usize..24, 0usize..24), 0..60),
            mask_bits in proptest::collection::vec(0usize..2, 60..61),
        ) {
            let g = multigraph(n, &pairs);
            let csr = CsrGraph::from_graph(&g);
            let alive: Vec<bool> =
                (0..g.edge_count()).map(|e| mask_bits[e] == 1).collect();
            let (masked, map) = csr.edge_masked(&alive);
            let rebuilt = CsrGraph::from_graph(&g.edge_subgraph(&alive));
            prop_assert_eq!(&masked, &rebuilt);
            prop_assert_eq!(map.len(), masked.edge_count());
            let mut expect = map.clone();
            expect.sort_unstable_by_key(|e| e.0);
            prop_assert_eq!(&expect, &map, "map ascends by old id");
            for (new, old) in map.iter().enumerate() {
                prop_assert!(alive[old.index()], "new edge {} maps to alive", new);
            }
        }

        /// Round-trip through `induced_subgraph`: a keep-everything mask
        /// leaves NodeIds (and the CSR arrays) bit-identical, and any
        /// mask keeps surviving ids stable in ascending order.
        #[test]
        fn induced_subgraph_roundtrip_keeps_ids_stable(
            n in 1usize..24,
            pairs in proptest::collection::vec((0usize..24, 0usize..24), 0..60),
            mask_bits in proptest::collection::vec(0usize..2, 24..25),
        ) {
            let g = multigraph(n, &pairs);
            let csr = CsrGraph::from_graph(&g);
            // Full mask: identity mapping, identical CSR arrays.
            let (full, full_map) = g.induced_subgraph(&vec![true; n]);
            let full_csr = CsrGraph::from_graph(&full);
            for (v, &new) in full_map.iter().enumerate() {
                prop_assert_eq!(new, Some(NodeId(v as u32)));
            }
            prop_assert_eq!(&full_csr.offsets, &csr.offsets);
            prop_assert_eq!(&full_csr.targets, &csr.targets);
            prop_assert_eq!(&full_csr.edge_ids, &csr.edge_ids);
            // Partial mask: kept nodes are renumbered densely in
            // ascending old-id order, and each kept node's surviving
            // neighbor multiset maps through exactly.
            let keep: Vec<bool> = (0..n).map(|v| mask_bits[v] == 1).collect();
            let (sub, map) = g.induced_subgraph(&keep);
            let sub_csr = CsrGraph::from_graph(&sub);
            let mut expect_next = 0u32;
            for v in 0..n {
                match map[v] {
                    Some(new) => {
                        prop_assert_eq!(new, NodeId(expect_next));
                        expect_next += 1;
                    }
                    None => prop_assert!(!keep[v]),
                }
            }
            for v in 0..n {
                let Some(new) = map[v] else { continue };
                let mut expected: Vec<u32> = csr
                    .neighbors(NodeId(v as u32))
                    .iter()
                    .filter_map(|u| map[u.index()].map(|m| m.0))
                    .collect();
                let mut actual: Vec<u32> =
                    sub_csr.neighbors(new).iter().map(|u| u.0).collect();
                expected.sort_unstable();
                actual.sort_unstable();
                prop_assert_eq!(expected, actual, "neighbors of old node {}", v);
            }
        }
    }
}
