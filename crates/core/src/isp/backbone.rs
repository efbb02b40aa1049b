//! Backbone (WAN) design across POP cities.
//!
//! The backbone formulation is cost-based with two engineering
//! constraints the paper highlights:
//!
//! - **redundancy**: a single fiber cut must not partition the backbone
//!   (footnote 7: "adding a path redundancy requirement breaks the tree
//!   structure of the optimal solution") — implemented as 2-edge-
//!   connectivity augmentation of the cost-minimal tree;
//! - **performance shortcuts**: for the heaviest traffic pairs, if the
//!   network detour relative to the direct line exceeds a threshold, a
//!   direct long-haul link is added — the cost/performance trade-off.
//!
//! Traffic is then routed on shortest (Euclidean-length) paths to size
//! each link, mirroring how capacity follows demand between big cities
//! (§2.1).

use hot_geo::point::Point;
use hot_graph::csr::{CsrBfsTree, CsrGraph};
use hot_graph::graph::{Graph, NodeId};
use hot_graph::mst::kruskal;
use hot_graph::traversal::is_connected;

/// Backbone design parameters.
#[derive(Clone, Debug)]
pub struct BackboneConfig {
    /// Require 2-edge-connectivity (survive any single fiber cut).
    pub redundancy: bool,
    /// Number of heaviest traffic pairs considered for shortcuts.
    pub shortcut_pairs: usize,
    /// Add a shortcut when (network path length) / (direct distance)
    /// exceeds this ratio.
    pub detour_threshold: f64,
}

impl Default for BackboneConfig {
    fn default() -> Self {
        BackboneConfig {
            redundancy: true,
            shortcut_pairs: 5,
            detour_threshold: 1.6,
        }
    }
}

/// A designed backbone over POP indices.
#[derive(Clone, Debug)]
pub struct BackboneDesign {
    /// Links as POP index pairs (a < b), in installation order.
    pub edges: Vec<(usize, usize)>,
    /// Traffic routed over each link (aligned with `edges`).
    pub flows: Vec<f64>,
    /// Euclidean length of each link.
    pub lengths: Vec<f64>,
}

impl BackboneDesign {
    /// Total installed length.
    pub fn total_length(&self) -> f64 {
        self.lengths.iter().sum()
    }
}

/// Designs a backbone over `pops` given a symmetric demand lookup
/// (`demand(i, j)` for POP indices).
///
/// # Panics
///
/// Panics if `pops` is empty.
pub fn design(
    pops: &[Point],
    demand: impl Fn(usize, usize) -> f64,
    config: &BackboneConfig,
) -> BackboneDesign {
    let n = pops.len();
    assert!(n > 0, "backbone needs at least one POP");
    if n == 1 {
        return BackboneDesign {
            edges: vec![],
            flows: vec![],
            lengths: vec![],
        };
    }
    // Start from the Euclidean MST (the pure cost-based core).
    let mut edges = mst_edges(pops);
    // Redundancy: augment until no bridges remain (needs n >= 3 to be
    // possible — with 2 POPs the single link is unavoidable).
    if config.redundancy && n >= 3 {
        augment_to_two_edge_connected(pops, &mut edges);
    }
    let mut tree = CsrBfsTree::sized(n);
    // Shortcuts for the heaviest pairs with excessive detour.
    if config.shortcut_pairs > 0 {
        let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                let d = demand(i, j);
                if d > 0.0 {
                    pairs.push((i, j, d));
                }
            }
        }
        pairs.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("no NaN demand"));
        for &(i, j, _) in pairs.iter().take(config.shortcut_pairs) {
            if edges.contains(&(i, j)) {
                continue;
            }
            let csr = CsrGraph::from_graph(&graph_from(pops, &edges));
            csr.dijkstra_tree_into(NodeId(i as u32), &link_lengths(pops, &edges), &mut tree);
            let network = tree.latency().expect("Dijkstra tree")[j];
            let direct = pops[i].dist(&pops[j]);
            if direct > 0.0 && network / direct > config.detour_threshold {
                edges.push((i, j));
            }
        }
    }
    // Route every demand pair on shortest paths to size the links.
    let csr = CsrGraph::from_graph(&graph_from(pops, &edges));
    let lengths = link_lengths(pops, &edges);
    let mut flows = vec![0.0; edges.len()];
    for i in 0..n {
        csr.dijkstra_tree_into(NodeId(i as u32), &lengths, &mut tree);
        for j in i + 1..n {
            let d = demand(i, j);
            if d <= 0.0 {
                continue;
            }
            // Each link of the path gets `d` once, so the direction of
            // the walk changes no sum.
            let mut cur = NodeId(j as u32);
            while let Some((p, e)) = tree.parent(cur) {
                flows[e.index()] += d;
                cur = p;
            }
        }
    }
    BackboneDesign {
        edges,
        flows,
        lengths,
    }
}

/// Euclidean MST as POP index pairs.
fn mst_edges(pops: &[Point]) -> Vec<(usize, usize)> {
    let n = pops.len();
    let mut g: Graph<(), f64> = Graph::with_capacity(n, n * (n - 1) / 2);
    for _ in 0..n {
        g.add_node(());
    }
    for a in 0..n {
        for b in a + 1..n {
            g.add_edge(NodeId(a as u32), NodeId(b as u32), pops[a].dist(&pops[b]));
        }
    }
    let forest = kruskal(&g, |w| *w);
    forest
        .edges
        .iter()
        .map(|&e| {
            let (a, b) = g.edge_endpoints(e);
            (a.index().min(b.index()), a.index().max(b.index()))
        })
        .collect()
}

fn graph_from(pops: &[Point], edges: &[(usize, usize)]) -> Graph<(), f64> {
    let mut g: Graph<(), f64> = Graph::with_capacity(pops.len(), edges.len());
    for _ in 0..pops.len() {
        g.add_node(());
    }
    for &(a, b) in edges {
        g.add_edge(NodeId(a as u32), NodeId(b as u32), pops[a].dist(&pops[b]));
    }
    g
}

/// Euclidean length of each link, indexed like `edges` (and so by the
/// edge ids of [`graph_from`]).
fn link_lengths(pops: &[Point], edges: &[(usize, usize)]) -> Vec<f64> {
    edges.iter().map(|&(a, b)| pops[a].dist(&pops[b])).collect()
}

/// Edges of `edges` that are bridges (removal disconnects the graph).
fn bridges(pops: &[Point], edges: &[(usize, usize)]) -> Vec<usize> {
    let g = graph_from(pops, edges);
    (0..edges.len())
        .filter(|&i| {
            let mut keep = vec![true; edges.len()];
            keep[i] = false;
            !is_connected(&g.edge_subgraph(&keep))
        })
        .collect()
}

/// Adds shortest non-edges until the graph is 2-edge-connected.
///
/// Greedy: take the first remaining bridge, split the graph on it, add
/// the geometrically shortest candidate edge that reconnects the two
/// sides without using the bridge. Terminates because each added edge
/// removes at least the chosen bridge.
fn augment_to_two_edge_connected(pops: &[Point], edges: &mut Vec<(usize, usize)>) {
    loop {
        let bridge_list = bridges(pops, edges);
        let Some(&bridge) = bridge_list.first() else {
            break;
        };
        // Partition without the bridge.
        let g = graph_from(pops, edges);
        let mut keep = vec![true; edges.len()];
        keep[bridge] = false;
        let sub = g.edge_subgraph(&keep);
        let labels = hot_graph::traversal::connected_components(&sub);
        let (ba, _) = (edges[bridge].0, edges[bridge].1);
        let side_a = labels[ba];
        // Cheapest non-edge crossing the cut, other than the bridge itself.
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..pops.len() {
            for j in i + 1..pops.len() {
                if (i, j) == edges[bridge] || edges.contains(&(i, j)) {
                    continue;
                }
                if (labels[i] == side_a) == (labels[j] == side_a) {
                    continue; // not crossing
                }
                let d = pops[i].dist(&pops[j]);
                if best.map_or(true, |(_, _, bd)| d < bd) {
                    best = Some((i, j, d));
                }
            }
        }
        match best {
            Some((i, j, _)) => edges.push((i, j)),
            // No candidate (e.g. duplicate points exhausted the pairs):
            // give up rather than loop forever.
            None => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_graph::flow::is_k_edge_connected;

    fn square_pops() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ]
    }

    fn no_demand(_: usize, _: usize) -> f64 {
        0.0
    }

    #[test]
    fn tree_without_redundancy() {
        let cfg = BackboneConfig {
            redundancy: false,
            shortcut_pairs: 0,
            ..Default::default()
        };
        let d = design(&square_pops(), no_demand, &cfg);
        assert_eq!(d.edges.len(), 3); // spanning tree on 4 POPs
    }

    #[test]
    fn redundancy_eliminates_bridges() {
        let cfg = BackboneConfig {
            redundancy: true,
            shortcut_pairs: 0,
            ..Default::default()
        };
        let d = design(&square_pops(), no_demand, &cfg);
        let g = graph_from(&square_pops(), &d.edges);
        assert!(is_k_edge_connected(&g, 2), "backbone still has a bridge");
        assert!(d.edges.len() >= 4);
    }

    #[test]
    fn shortcut_added_for_heavy_detour_pair() {
        // A line of POPs: 0-1-2-3; heavy demand between the endpoints has
        // detour 1.0 (collinear!) so use an L-shape instead.
        let pops = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 1.0),
        ];
        let demand = |i: usize, j: usize| {
            if (i, j) == (0, 3) || (i, j) == (3, 0) {
                100.0
            } else {
                0.0
            }
        };
        let cfg = BackboneConfig {
            redundancy: false,
            shortcut_pairs: 3,
            detour_threshold: 1.2,
        };
        let d = design(&pops, demand, &cfg);
        assert!(
            d.edges.contains(&(0, 3)),
            "expected shortcut 0-3 in {:?}",
            d.edges
        );
        // And the demand flows over it.
        let idx = d.edges.iter().position(|&e| e == (0, 3)).unwrap();
        assert!((d.flows[idx] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn flows_conserve_demand_on_tree() {
        // Path topology: all demand between 0 and 2 crosses both edges.
        let pops = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
        ];
        let demand = |i: usize, j: usize| if i + j == 2 && i != j { 42.0 } else { 0.0 };
        let cfg = BackboneConfig {
            redundancy: false,
            shortcut_pairs: 0,
            ..Default::default()
        };
        let d = design(&pops, demand, &cfg);
        assert_eq!(d.edges.len(), 2);
        for f in &d.flows {
            assert!((f - 42.0).abs() < 1e-9);
        }
    }

    #[test]
    fn single_and_two_pop_degenerate() {
        let one = design(
            &[Point::new(0.0, 0.0)],
            no_demand,
            &BackboneConfig::default(),
        );
        assert!(one.edges.is_empty());
        let two = design(
            &[Point::new(0.0, 0.0), Point::new(1.0, 0.0)],
            |_, _| 5.0,
            &BackboneConfig::default(),
        );
        assert_eq!(two.edges.len(), 1);
        assert!((two.flows[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn lengths_match_geometry() {
        let cfg = BackboneConfig {
            redundancy: false,
            shortcut_pairs: 0,
            ..Default::default()
        };
        let d = design(&square_pops(), no_demand, &cfg);
        for (k, &(a, b)) in d.edges.iter().enumerate() {
            assert!((d.lengths[k] - square_pops()[a].dist(&square_pops()[b])).abs() < 1e-12);
        }
        assert!((d.total_length() - 3.0).abs() < 1e-9);
    }
}
