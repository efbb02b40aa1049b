//! # hot-graph — annotated graph substrate for topology generation
//!
//! This crate provides the graph machinery every other crate in the
//! `hotgen` workspace builds on. The Alderson et al. (HotNets'03) paper
//! stresses (footnote 1) that "topology" means *connectivity plus resource
//! capacity*, so the central [`Graph`] type carries arbitrary node and edge
//! annotations rather than being a bare adjacency structure.
//!
//! The crate is deliberately self-contained (no `petgraph`): the topology
//! utilities the reproduction needs — rooted-tree views, degree
//! distributions, Brandes betweenness, spectral estimates, max-flow for
//! resilience metrics — are implemented here directly, in simple, heavily
//! tested safe Rust.
//!
//! ## Module map
//!
//! | module | contents |
//! |---|---|
//! | [`graph`] | [`Graph`], [`NodeId`], [`EdgeId`] — undirected annotated multigraph |
//! | [`csr`] | [`CsrGraph`] — flat compressed-sparse-row view for the analytics kernels; the workspace's one hop-BFS engine (distances, trees, connected components, and the shortest-path DAG with path counts that ECMP routing and Brandes betweenness both walk back) and Dijkstra trees |
//! | [`parallel`] | deterministic multi-threaded kernels: `par_betweenness_sampled` (exact `par_betweenness` is its all-pivots run, or a closed form on forests), `par_path_summary`; the chunk scheduler `run_chunks` and its ordered map `par_map` |
//! | [`unionfind`] | disjoint-set forest used by Kruskal and Esau–Williams |
//! | [`traversal`] | three connectivity queries on a [`Graph`]: component count, largest component, connectedness |
//! | [`mst`] | Kruskal minimum spanning trees/forests |
//! | [`tree`] | rooted-tree views: parents, depths, leaves |
//! | [`degree`] | degree sequences, histograms, CCDFs |
//! | [`spectral`] | adjacency/Laplacian spectra via power iteration |
//! | [`flow`] | Edmonds–Karp max-flow / min-cut |
//! | [`io`] | Graphviz DOT export |
//!
//! ## Example
//!
//! ```
//! use hot_graph::{Graph, mst::kruskal, traversal::is_connected};
//!
//! let mut g: Graph<(), f64> = Graph::new();
//! let a = g.add_node(());
//! let b = g.add_node(());
//! let c = g.add_node(());
//! g.add_edge(a, b, 1.0);
//! g.add_edge(b, c, 2.0);
//! g.add_edge(a, c, 10.0);
//! assert!(is_connected(&g));
//! let tree = kruskal(&g, |w| *w);
//! assert_eq!(tree.edges.len(), 2);
//! assert!((tree.total_weight - 3.0).abs() < 1e-12);
//! ```

pub mod csr;
pub mod degree;
pub mod flow;
pub mod graph;
pub mod io;
pub mod mst;
pub mod parallel;
pub mod spectral;
pub mod traversal;
pub mod tree;
pub mod unionfind;

pub use csr::CsrGraph;
pub use graph::{EdgeId, Graph, NodeId};
pub use tree::RootedTree;
pub use unionfind::UnionFind;
