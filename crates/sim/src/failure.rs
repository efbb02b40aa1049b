//! Per-flow hop routing of demand lists, and single-link failure
//! response.
//!
//! [`route_demands`] routes a demand list on deterministic hop-count
//! shortest paths and reports per-link loads. [`single_link_failures`]
//! then fails each loaded link in turn, re-routes the demands that used
//! it, and measures what the network pays — extra hops (stretch) and
//! traffic that cannot be re-routed at all. This quantifies what the
//! paper's footnote 7 redundancy requirement buys: on a tree every
//! failure strands traffic; on the 2-edge-connected backbone everything
//! re-routes at modest stretch.

use crate::demand::Demand;
use crate::traffic::TrafficLoads;
use hot_graph::csr::{CsrBfsTree, CsrGraph};
use hot_graph::graph::{EdgeId, Graph, NodeId};
use std::collections::BTreeMap;

/// Impact of one link's failure.
#[derive(Clone, Debug)]
pub struct FailureImpact {
    /// The failed link.
    pub link: EdgeId,
    /// Traffic that used the link before the failure.
    pub affected_traffic: f64,
    /// Traffic stranded (no alternative path).
    pub stranded_traffic: f64,
    /// Demand-weighted mean hops of re-routed traffic, after / before.
    pub stretch: f64,
    /// Peak link load after re-routing (where the displaced traffic
    /// lands — the redistribution measurement E16 reports).
    pub max_load_after: f64,
}

/// Summary over all simulated failures.
#[derive(Clone, Debug)]
pub struct FailureSummary {
    /// Per-link impacts, ordered by edge id (only links that carried
    /// traffic are simulated; idle links have trivially no impact).
    pub impacts: Vec<FailureImpact>,
    /// Fraction of simulated failures that stranded any traffic.
    pub stranding_fraction: f64,
    /// Worst single-failure stranded traffic, as a fraction of total.
    pub worst_stranded_fraction: f64,
    /// Mean stretch over failures that re-routed everything.
    pub mean_stretch: f64,
    /// Worst post-failure peak link load relative to the baseline peak
    /// (1.0 when nothing was simulated or the baseline was idle).
    pub max_load_amplification: f64,
}

impl FailureSummary {
    /// The summary of a study with nothing to simulate (no links, no
    /// demands, or nothing loaded).
    fn trivial() -> FailureSummary {
        FailureSummary {
            impacts: Vec::new(),
            stranding_fraction: 0.0,
            worst_stranded_fraction: 0.0,
            mean_stretch: 1.0,
            max_load_amplification: 1.0,
        }
    }
}

/// Shared state for hop-count routing of one demand list: the demand
/// gather (out-of-range demands plus per-source groups) and every
/// source's intact-graph BFS tree are computed once. The intact replay
/// walks those trees; a cut only invalidates the trees that used the
/// failed edge — `edge_users` records which — so each simulated failure
/// re-runs BFS for those sources alone, on an edge-masked view, and
/// replays the cached trees for everyone else. Because
/// [`CsrGraph::edge_masked`] equals `edge_subgraph` + `from_graph` edge
/// ids included, and removing a non-tree edge cannot change a BFS
/// first-discovery tree, every path — and therefore every load, hop,
/// and stranded sum, accumulated in the same order — is bit-identical
/// to a full re-route of the cut graph.
struct HopCutCache<'a> {
    csr: CsrGraph,
    /// Count and summed amount of the demands with endpoints outside
    /// the graph, which every replay reports as unrouted.
    out_of_range: (u64, f64),
    /// In-range demands grouped by source, ascending — the order every
    /// replay accumulates in.
    by_src: Vec<(u32, Vec<&'a Demand>)>,
    /// Intact-graph BFS tree per `by_src` entry.
    trees: Vec<CsrBfsTree>,
    /// For each edge, the sources (ascending) whose baseline tree uses
    /// it as a parent edge.
    edge_users: Vec<Vec<u32>>,
    scratch: CsrBfsTree,
    alive: Vec<bool>,
}

impl<'a> HopCutCache<'a> {
    fn new<N, E>(g: &Graph<N, E>, demands: &'a [Demand]) -> HopCutCache<'a> {
        let csr = CsrGraph::from_graph(g);
        let n = csr.node_count();
        let mut out_of_range = (0u64, 0.0f64);
        let mut groups: BTreeMap<u32, Vec<&Demand>> = BTreeMap::new();
        for d in demands {
            if d.src.index() >= n || d.dst.index() >= n {
                out_of_range.0 += 1;
                out_of_range.1 += d.amount;
            } else {
                groups.entry(d.src.0).or_default().push(d);
            }
        }
        let by_src: Vec<(u32, Vec<&Demand>)> = groups.into_iter().collect();
        let mut edge_users = vec![Vec::new(); csr.edge_count()];
        let mut trees = Vec::with_capacity(by_src.len());
        for (src, _) in &by_src {
            let tree = csr.bfs_tree(NodeId(*src));
            for &v in tree.visit_order() {
                if let Some((_, e)) = tree.parent(v) {
                    edge_users[e.index()].push(*src);
                }
            }
            trees.push(tree);
        }
        HopCutCache {
            out_of_range,
            scratch: CsrBfsTree::sized(n),
            alive: vec![true; csr.edge_count()],
            csr,
            by_src,
            trees,
            edge_users,
        }
    }

    /// Routes every demand with `cut` (if any) failed: source by source,
    /// each flow's tree path walked edge by edge.
    fn replay(&mut self, cut: Option<EdgeId>) -> TrafficLoads {
        let masked = cut.map(|link| {
            self.alive[link.index()] = false;
            let view = self.csr.edge_masked(&self.alive);
            self.alive[link.index()] = true;
            view
        });
        let users: &[u32] = cut.map_or(&[], |link| &self.edge_users[link.index()]);
        let mut out = TrafficLoads::zero(self.csr.edge_count());
        (out.unrouted_flows, out.unrouted_traffic) = self.out_of_range;
        for (i, (src, group)) in self.by_src.iter().enumerate() {
            // The cached trees carry original edge ids; a masked re-BFS
            // carries masked ids, which `new_to_old` maps back.
            let new_to_old = match &masked {
                Some((view, new_to_old)) if users.binary_search(src).is_ok() => {
                    view.bfs_tree_into(NodeId(*src), &mut self.scratch);
                    Some(new_to_old)
                }
                _ => None,
            };
            let tree = if new_to_old.is_some() {
                &self.scratch
            } else {
                &self.trees[i]
            };
            for d in group {
                match tree.edge_path_to(d.dst) {
                    Some(path) => {
                        for e in &path {
                            let orig = new_to_old.map_or(e.index(), |m| m[e.index()].index());
                            out.link_load[orig] += d.amount;
                        }
                        out.routed_flows += 1;
                        out.traffic_hops += d.amount * path.len() as f64;
                        out.routed_traffic += d.amount;
                    }
                    None => {
                        out.unrouted_flows += 1;
                        out.unrouted_traffic += d.amount;
                    }
                }
            }
        }
        out
    }
}

/// Routes `demands` over `g` on hop-count shortest paths and returns
/// the per-link loads with their flow accounting.
///
/// Each distinct source gets one BFS tree on the CSR view (first
/// discovery in adjacency order, so ties break deterministically), and
/// flows are walked edge by edge — sources ascending, input order
/// within a source — so every load is reproducible to the bit. This is
/// the baseline [`single_link_failures`] measures against. Degenerate
/// demands never panic: endpoints outside the graph count as unrouted,
/// like disconnected pairs.
pub fn route_demands<N, E>(g: &Graph<N, E>, demands: &[Demand]) -> TrafficLoads {
    HopCutCache::new(g, demands).replay(None)
}

/// Simulates every loaded link's failure independently, under the
/// hop-count routing of [`route_demands`].
///
/// All cuts share one demand gather and a BFS-forest cache, re-running
/// BFS only for the sources whose intact-graph tree used the failed
/// edge (see [`HopCutCache`]). Degenerate inputs (no links, no demands,
/// endpoints outside the graph) produce a trivial summary instead of
/// panicking.
pub fn single_link_failures<N, E>(g: &Graph<N, E>, demands: &[Demand]) -> FailureSummary {
    if g.edge_count() == 0 || demands.is_empty() {
        return FailureSummary::trivial();
    }
    let mut cache = HopCutCache::new(g, demands);
    let baseline = cache.replay(None);
    let baseline_max = baseline.max_load();
    let total_traffic: f64 = demands.iter().map(|d| d.amount).sum();
    let mut impacts = Vec::new();
    let mut stranded_failures = 0usize;
    let mut worst_stranded = 0.0f64;
    let mut worst_max_after = 0.0f64;
    let mut stretch_sum = 0.0;
    let mut stretch_count = 0usize;
    for link in g.edge_ids() {
        if baseline.link_load[link.index()] <= 0.0 {
            continue;
        }
        let outcome = cache.replay(Some(link));
        let affected = baseline.link_load[link.index()];
        let stranded = outcome.unrouted_traffic;
        let stretch = if outcome.routed_traffic > 0.0 && baseline.routed_traffic > 0.0 {
            outcome.mean_hops() / baseline.mean_hops()
        } else {
            1.0
        };
        let max_load_after = outcome.max_load();
        worst_max_after = worst_max_after.max(max_load_after);
        if stranded > 0.0 {
            stranded_failures += 1;
            if total_traffic > 0.0 {
                worst_stranded = worst_stranded.max(stranded / total_traffic);
            }
        } else {
            stretch_sum += stretch;
            stretch_count += 1;
        }
        impacts.push(FailureImpact {
            link,
            affected_traffic: affected,
            stranded_traffic: stranded,
            stretch,
            max_load_after,
        });
    }
    let simulated = impacts.len().max(1);
    FailureSummary {
        stranding_fraction: stranded_failures as f64 / simulated as f64,
        worst_stranded_fraction: worst_stranded,
        mean_stretch: if stretch_count > 0 {
            stretch_sum / stretch_count as f64
        } else {
            1.0
        },
        max_load_amplification: if !impacts.is_empty() && baseline_max > 0.0 {
            worst_max_after / baseline_max
        } else {
            1.0
        },
        impacts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_graph::graph::{Graph, NodeId};

    fn d(src: usize, dst: usize, amount: f64) -> Demand {
        Demand {
            src: NodeId(src as u32),
            dst: NodeId(dst as u32),
            amount,
        }
    }

    #[test]
    fn tree_strands_every_failure() {
        // Path 0-1-2 with end-to-end demand: both links are cuts.
        let g: Graph<(), f64> = Graph::from_edges(3, vec![(0, 1, 1.0), (1, 2, 1.0)]);
        let summary = single_link_failures(&g, &[d(0, 2, 3.0)]);
        assert_eq!(summary.impacts.len(), 2);
        assert!((summary.stranding_fraction - 1.0).abs() < 1e-12);
        assert!((summary.worst_stranded_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cycle_reroutes_everything() {
        let g: Graph<(), f64> =
            Graph::from_edges(4, vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]);
        let summary = single_link_failures(&g, &[d(0, 1, 1.0), d(1, 3, 1.0)]);
        assert_eq!(summary.stranding_fraction, 0.0);
        // Re-routing around a 4-cycle costs extra hops.
        assert!(summary.mean_stretch > 1.0);
        assert!(summary.worst_stranded_fraction == 0.0);
    }

    #[test]
    fn idle_links_not_simulated() {
        // Triangle but demand only between 0 and 1: edge (1,2)/(0,2)
        // carry nothing under shortest path.
        let g: Graph<(), f64> = Graph::from_edges(3, vec![(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]);
        let summary = single_link_failures(&g, &[d(0, 1, 1.0)]);
        assert_eq!(summary.impacts.len(), 1);
        assert_eq!(summary.impacts[0].link, hot_graph::graph::EdgeId(0));
        // The failure re-routes via node 2 at stretch 2.
        assert_eq!(summary.stranding_fraction, 0.0);
        assert!((summary.impacts[0].stretch - 2.0).abs() < 1e-12);
    }

    /// Regression: the degenerate inputs — empty graph, no demands, a
    /// demand whose endpoints are outside the graph, and a disconnected
    /// OD pair already stranded at baseline — all produce a clean
    /// summary instead of a panic.
    #[test]
    fn degenerate_inputs_are_trivial_not_panics() {
        let empty: Graph<(), f64> = Graph::new();
        let s = single_link_failures(&empty, &[d(0, 1, 1.0)]);
        assert!(s.impacts.is_empty());
        assert_eq!(s.max_load_amplification, 1.0);
        let g: Graph<(), f64> = Graph::from_edges(4, vec![(0, 1, 1.0), (2, 3, 1.0)]);
        let s = single_link_failures(&g, &[]);
        assert!(s.impacts.is_empty());
        assert_eq!(s.mean_stretch, 1.0);
        // Out-of-range endpoints and a disconnected baseline pair ride
        // along with one routable demand.
        let s = single_link_failures(&g, &[d(0, 9, 1.0), d(0, 3, 2.0), d(0, 1, 1.0)]);
        assert_eq!(s.impacts.len(), 1); // only link (0,1) carries traffic
        assert!((s.stranding_fraction - 1.0).abs() < 1e-12); // it is a cut
    }

    /// Redistribution accounting: on a 4-cycle with one demand, failing
    /// the direct link pushes the same traffic onto the 3-hop detour, so
    /// the post-failure peak equals the baseline peak (amplification 1)
    /// and every impact records where the load landed.
    #[test]
    fn load_redistribution_recorded() {
        let g: Graph<(), f64> =
            Graph::from_edges(4, vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]);
        let s = single_link_failures(&g, &[d(0, 1, 2.0)]);
        assert_eq!(s.impacts.len(), 1);
        assert!((s.impacts[0].max_load_after - 2.0).abs() < 1e-12);
        assert!((s.max_load_amplification - 1.0).abs() < 1e-12);
        // Two demands sharing a link: failing it doubles up the detour.
        let s = single_link_failures(&g, &[d(0, 1, 2.0), d(3, 1, 1.0)]);
        assert!(s.max_load_amplification > 1.0);
    }

    /// Regression for the BFS-forest cache: every replay must reproduce
    /// the algorithm it replaced — one full per-flow re-route, on the
    /// intact graph and on an `edge_subgraph` per loaded link — bit for
    /// bit, on a meshy multigraph with cuts, detours, out-of-range
    /// endpoints, and a disconnected pair. Each load vector and flow
    /// total is compared on exact bits.
    #[test]
    fn cached_cuts_match_full_reroute_bitwise() {
        // Ladder + chords + a stub island (node 29 attached by a cut
        // edge, node 30 isolated): mixes re-routable and stranding cuts.
        let n = 31usize;
        let mut edges: Vec<(usize, usize, f64)> = Vec::new();
        for i in 0..28 {
            edges.push((i, i + 1, 1.0 + (i % 3) as f64));
        }
        for i in (0..24).step_by(4) {
            edges.push((i, i + 5, 2.0));
        }
        for i in (1..20).step_by(7) {
            edges.push((i, i + 9, 1.5));
        }
        edges.push((3, 29, 1.0)); // cut edge to a leaf
        let g: Graph<(), f64> = Graph::from_edges(n, edges);
        let mut demands = vec![d(0, 40, 1.0)]; // out-of-range endpoint
        demands.push(d(5, 30, 2.0)); // disconnected at baseline
        for s in 0..12 {
            for t in [14, 22, 28, 29] {
                demands.push(d(s, t, 1.0 + ((s * 5 + t) % 4) as f64));
            }
        }
        let bits = |t: &TrafficLoads| {
            let mut v: Vec<u64> = t.link_load.iter().map(|x| x.to_bits()).collect();
            v.extend([t.routed_flows, t.unrouted_flows]);
            v.extend([t.routed_traffic, t.unrouted_traffic, t.traffic_hops].map(f64::to_bits));
            v
        };
        let mut cache = HopCutCache::new(&g, &demands);
        let baseline = cache.replay(None);
        assert_eq!(bits(&baseline), bits(&reference_route(&g, &demands)));
        let mut cuts = 0;
        for link in g.edge_ids() {
            if baseline.link_load[link.index()] <= 0.0 {
                continue;
            }
            let mut keep = vec![true; g.edge_count()];
            keep[link.index()] = false;
            let slow = reference_route(&g.edge_subgraph(&keep), &demands);
            // `edge_subgraph` renumbers the surviving edges in order; the
            // cut link itself must carry nothing.
            let mut fast = cache.replay(Some(link));
            assert_eq!(fast.link_load.remove(link.index()), 0.0);
            assert_eq!(bits(&fast), bits(&slow), "link {:?}", link);
            cuts += 1;
        }
        assert!(cuts > 10);
    }

    /// The per-flow hop router the cache replaced: demands grouped by
    /// source in a `BTreeMap`, one BFS tree per source on a fresh CSR
    /// view, each flow's path walked edge by edge.
    fn reference_route<N, E>(g: &Graph<N, E>, demands: &[Demand]) -> TrafficLoads {
        let n = g.node_count();
        let mut out = TrafficLoads::zero(g.edge_count());
        let mut by_src: BTreeMap<u32, Vec<&Demand>> = BTreeMap::new();
        for d in demands {
            if d.src.index() >= n || d.dst.index() >= n {
                out.unrouted_flows += 1;
                out.unrouted_traffic += d.amount;
            } else {
                by_src.entry(d.src.0).or_default().push(d);
            }
        }
        let csr = CsrGraph::from_graph(g);
        for (src, group) in by_src {
            let tree = csr.bfs_tree(NodeId(src));
            for d in group {
                match tree.edge_path_to(d.dst) {
                    Some(path) => {
                        for e in &path {
                            out.link_load[e.index()] += d.amount;
                        }
                        out.routed_flows += 1;
                        out.traffic_hops += d.amount * path.len() as f64;
                        out.routed_traffic += d.amount;
                    }
                    None => {
                        out.unrouted_flows += 1;
                        out.unrouted_traffic += d.amount;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn affected_traffic_recorded() {
        let g: Graph<(), f64> = Graph::from_edges(3, vec![(0, 1, 1.0), (1, 2, 1.0)]);
        let summary = single_link_failures(&g, &[d(0, 2, 2.0), d(1, 2, 1.5)]);
        let link1 = summary
            .impacts
            .iter()
            .find(|i| i.link.index() == 1)
            .unwrap();
        assert!((link1.affected_traffic - 3.5).abs() < 1e-12);
    }

    fn path4() -> Graph<(), f64> {
        Graph::from_edges(4, vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    }

    #[test]
    fn loads_accumulate_along_paths() {
        let out = route_demands(&path4(), &[d(0, 3, 5.0), d(1, 2, 2.0)]);
        assert_eq!(out.link_load, vec![5.0, 7.0, 5.0]);
        assert_eq!((out.routed_flows, out.unrouted_flows), (2, 0));
        assert!((out.routed_traffic - 7.0).abs() < 1e-12);
        // hops: 5*3 + 2*1 = 17; mean = 17/7.
        assert!((out.mean_hops() - 17.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn disconnected_demand_reported() {
        let g: Graph<(), f64> = Graph::from_edges(4, vec![(0, 1, 1.0), (2, 3, 1.0)]);
        let out = route_demands(&g, &[d(0, 3, 4.0), d(0, 1, 1.0)]);
        assert_eq!(out.unrouted_flows, 1);
        assert_eq!(out.unrouted_traffic, 4.0);
        assert!((out.routed_traffic - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stats_on_star_vs_path() {
        // All-pairs unit demand on a path: the middle link carries more
        // than the end links, and no link idles.
        let demands: Vec<Demand> = (0..4)
            .flat_map(|a| (0..4).filter(move |&b| b != a).map(move |b| d(a, b, 1.0)))
            .collect();
        let out = route_demands(&path4(), &demands);
        assert!(out.link_load[1] > out.link_load[0]);
        assert!(out.link_load.iter().all(|&l| l > 0.0));
    }

    /// Regression: endpoints outside the graph used to panic on the BFS
    /// distance arrays; now they count as unrouted like disconnected
    /// pairs — including on the empty graph.
    #[test]
    fn out_of_range_endpoints_are_unrouted_not_panics() {
        let out = route_demands(&path4(), &[d(0, 9, 2.0), d(9, 0, 1.0), d(0, 3, 1.0)]);
        assert_eq!(out.unrouted_flows, 2);
        assert!((out.routed_traffic - 1.0).abs() < 1e-12);
        let empty: Graph<(), f64> = Graph::new();
        let out = route_demands(&empty, &[d(0, 1, 5.0)]);
        assert_eq!(out.unrouted_flows, 1);
        assert_eq!(out.routed_traffic, 0.0);
        assert!(out.link_load.is_empty());
    }

    #[test]
    fn empty_demands() {
        let out = route_demands(&path4(), &[]);
        assert_eq!(out.max_load(), 0.0);
        assert_eq!(out.mean_hops(), 0.0);
        assert_eq!(out.link_load, vec![0.0; 3]);
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use hot_graph::graph::{Graph, NodeId};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Conservation identity: total load summed over links equals
        /// traffic × hops summed over routed demands, and nothing is
        /// unrouted on a connected graph.
        #[test]
        fn load_equals_traffic_hops(
            n in 2usize..12,
            extra in proptest::collection::vec((0usize..12, 0usize..12), 0..14),
            pairs in proptest::collection::vec((0usize..12, 0usize..12, 0.1f64..5.0), 1..10),
        ) {
            let mut g: Graph<(), f64> = Graph::new();
            for _ in 0..n {
                g.add_node(());
            }
            for i in 0..n - 1 {
                g.add_edge(NodeId(i as u32), NodeId(i as u32 + 1), 1.0);
            }
            for (a, b) in extra {
                let (a, b) = (a % n, b % n);
                if a != b {
                    g.add_edge(NodeId(a as u32), NodeId(b as u32), 1.0);
                }
            }
            let demands: Vec<Demand> = pairs
                .into_iter()
                .filter(|(a, b, _)| a % n != b % n)
                .map(|(a, b, amt)| Demand {
                    src: NodeId((a % n) as u32),
                    dst: NodeId((b % n) as u32),
                    amount: amt,
                })
                .collect();
            let outcome = route_demands(&g, &demands);
            prop_assert_eq!(outcome.unrouted_flows, 0);
            prop_assert!((outcome.total_load() - outcome.traffic_hops).abs() < 1e-9,
                "sum load {} vs traffic-hops {}", outcome.total_load(), outcome.traffic_hops);
            // Routed traffic equals offered traffic.
            let offered: f64 = demands.iter().map(|d| d.amount).sum();
            prop_assert!((outcome.routed_traffic - offered).abs() < 1e-9);
        }
    }
}
