//! Hop routing of demand lists, and single-link failure response.
//!
//! [`route_demands`] routes a demand list on the batched traffic
//! engine's deterministic hop-count shortest paths
//! ([`RoutePolicy::TreePath`]) and reports per-link loads.
//! [`single_link_failures`] then fails each loaded link in turn,
//! re-routes the whole list on the surviving links, and measures what
//! the network pays — extra hops (stretch) and traffic that cannot be
//! re-routed at all. This quantifies what the paper's footnote 7
//! redundancy requirement buys: on a tree every failure strands
//! traffic; on the 2-edge-connected backbone everything re-routes at
//! modest stretch.

use crate::demand::{Demand, OdDemand};
use crate::traffic::{link_loads, RoutePolicy, TrafficLoads};
use hot_graph::csr::CsrGraph;
use hot_graph::graph::{EdgeId, Graph};

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

/// A demand list as an [`OdDemand`] over an `n`-node graph: each
/// source's in-range demands in ascending destination order. The sort
/// is stable, so a repeated pair stays two entries, and two flows.
struct DemandList {
    n: usize,
    /// Source `s`'s entries are `rows[offsets[s]..offsets[s + 1]]`.
    offsets: Vec<usize>,
    rows: Vec<(u32, f64)>,
    /// Count and summed amount of the demands with an endpoint outside
    /// the graph, which every routing reports as unrouted.
    out_of_range: (u64, f64),
}

impl DemandList {
    fn new(n: usize, demands: &[Demand]) -> DemandList {
        let mut out_of_range = (0u64, 0.0f64);
        let mut flows: Vec<(u32, u32, f64)> = Vec::with_capacity(demands.len());
        for d in demands {
            if d.src.index() < n && d.dst.index() < n {
                flows.push((d.src.0, d.dst.0, d.amount));
            } else {
                out_of_range.0 += 1;
                out_of_range.1 += d.amount;
            }
        }
        flows.sort_by_key(|&(src, dst, _)| (src, dst));
        let mut offsets = vec![0usize; n + 1];
        for &(src, _, _) in &flows {
            offsets[src as usize + 1] += 1;
        }
        for s in 0..n {
            offsets[s + 1] += offsets[s];
        }
        DemandList {
            n,
            offsets,
            rows: flows.into_iter().map(|(_, dst, a)| (dst, a)).collect(),
            out_of_range,
        }
    }

    fn row(&self, src: usize) -> &[(u32, f64)] {
        &self.rows[self.offsets[src]..self.offsets[src + 1]]
    }

    /// Routes the list over `csr`, the list's graph or an edge-masked
    /// view of it (node ids are the same).
    fn route(&self, csr: &CsrGraph, threads: usize) -> TrafficLoads {
        let mut loads = link_loads(csr, self, RoutePolicy::TreePath, threads);
        loads.unrouted_flows += self.out_of_range.0;
        loads.unrouted_traffic += self.out_of_range.1;
        loads
    }
}

impl OdDemand for DemandList {
    fn node_count(&self) -> usize {
        self.n
    }

    fn demand(&self, src: usize, dst: usize) -> f64 {
        self.row(src)
            .iter()
            .filter(|&&(t, _)| t as usize == dst)
            .map(|&(_, amount)| amount)
            .sum()
    }

    fn gather_row(&self, src: usize, out: &mut Vec<(u32, f64)>) {
        out.extend_from_slice(self.row(src));
    }
}

/// Routes `demands` over `g` on hop-count shortest paths and returns
/// the per-link loads with their flow accounting.
///
/// This is the batched engine's [`RoutePolicy::TreePath`] run
/// ([`link_loads`]) over the list: one BFS tree per distinct source
/// (first discovery in adjacency order, so ties break
/// deterministically), and every load is bit-identical at any
/// `threads`. Each entry of the list is one flow, a repeated pair
/// included. Degenerate demands never panic: endpoints outside the
/// graph count as unrouted, like disconnected pairs, and a self-demand
/// is no flow at all (the engine never routes the diagonal).
pub fn route_demands<N, E>(g: &Graph<N, E>, demands: &[Demand], threads: usize) -> TrafficLoads {
    let csr = CsrGraph::from_graph(g);
    DemandList::new(csr.node_count(), demands).route(&csr, threads)
}

/// Simulates every loaded link's failure independently, under the
/// hop-count routing of [`route_demands`].
///
/// Each cut re-routes the whole list on an edge-masked view of the
/// graph ([`CsrGraph::edge_masked`] keeps every node id), as
/// [`crate::cascade::cascade`] does each round. Degenerate inputs (no
/// links, no demands, endpoints outside the graph) produce a trivial
/// summary instead of panicking.
pub fn single_link_failures<N, E>(
    g: &Graph<N, E>,
    demands: &[Demand],
    threads: usize,
) -> FailureSummary {
    if g.edge_count() == 0 || demands.is_empty() {
        return FailureSummary::trivial();
    }
    let csr = CsrGraph::from_graph(g);
    let list = DemandList::new(csr.node_count(), demands);
    let baseline = list.route(&csr, threads);
    let baseline_max = baseline.max_load();
    let total_traffic: f64 = demands.iter().map(|d| d.amount).sum();
    let mut impacts = Vec::new();
    let mut stranded_failures = 0usize;
    let mut worst_stranded = 0.0f64;
    let mut worst_max_after = 0.0f64;
    let mut stretch_sum = 0.0;
    let mut stretch_count = 0usize;
    let mut alive = vec![true; csr.edge_count()];
    for link in g.edge_ids() {
        let affected = baseline.link_load[link.index()];
        if affected <= 0.0 {
            continue;
        }
        alive[link.index()] = false;
        let (cut, _) = csr.edge_masked(&alive);
        alive[link.index()] = true;
        let outcome = list.route(&cut, threads);
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
        let summary = single_link_failures(&g, &[d(0, 2, 3.0)], 1);
        assert_eq!(summary.impacts.len(), 2);
        assert!((summary.stranding_fraction - 1.0).abs() < 1e-12);
        assert!((summary.worst_stranded_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cycle_reroutes_everything() {
        let g: Graph<(), f64> =
            Graph::from_edges(4, vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]);
        let summary = single_link_failures(&g, &[d(0, 1, 1.0), d(1, 3, 1.0)], 1);
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
        let summary = single_link_failures(&g, &[d(0, 1, 1.0)], 1);
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
        let s = single_link_failures(&empty, &[d(0, 1, 1.0)], 1);
        assert!(s.impacts.is_empty());
        assert_eq!(s.max_load_amplification, 1.0);
        let g: Graph<(), f64> = Graph::from_edges(4, vec![(0, 1, 1.0), (2, 3, 1.0)]);
        let s = single_link_failures(&g, &[], 1);
        assert!(s.impacts.is_empty());
        assert_eq!(s.mean_stretch, 1.0);
        // Out-of-range endpoints and a disconnected baseline pair ride
        // along with one routable demand.
        let s = single_link_failures(&g, &[d(0, 9, 1.0), d(0, 3, 2.0), d(0, 1, 1.0)], 1);
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
        let s = single_link_failures(&g, &[d(0, 1, 2.0)], 1);
        assert_eq!(s.impacts.len(), 1);
        assert!((s.impacts[0].max_load_after - 2.0).abs() < 1e-12);
        assert!((s.max_load_amplification - 1.0).abs() < 1e-12);
        // Two demands sharing a link: failing it doubles up the detour.
        let s = single_link_failures(&g, &[d(0, 1, 2.0), d(3, 1, 1.0)], 1);
        assert!(s.max_load_amplification > 1.0);
    }

    #[test]
    fn affected_traffic_recorded() {
        let g: Graph<(), f64> = Graph::from_edges(3, vec![(0, 1, 1.0), (1, 2, 1.0)]);
        let summary = single_link_failures(&g, &[d(0, 2, 2.0), d(1, 2, 1.5)], 1);
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
        let out = route_demands(&path4(), &[d(0, 3, 5.0), d(1, 2, 2.0)], 1);
        assert_eq!(out.link_load, vec![5.0, 7.0, 5.0]);
        assert_eq!((out.routed_flows, out.unrouted_flows), (2, 0));
        assert!((out.routed_traffic - 7.0).abs() < 1e-12);
        // hops: 5*3 + 2*1 = 17; mean = 17/7.
        assert!((out.mean_hops() - 17.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn disconnected_demand_reported() {
        let g: Graph<(), f64> = Graph::from_edges(4, vec![(0, 1, 1.0), (2, 3, 1.0)]);
        let out = route_demands(&g, &[d(0, 3, 4.0), d(0, 1, 1.0)], 1);
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
        let out = route_demands(&path4(), &demands, 1);
        assert!(out.link_load[1] > out.link_load[0]);
        assert!(out.link_load.iter().all(|&l| l > 0.0));
    }

    /// Regression: endpoints outside the graph used to panic on the BFS
    /// distance arrays; now they count as unrouted like disconnected
    /// pairs — including on the empty graph.
    #[test]
    fn out_of_range_endpoints_are_unrouted_not_panics() {
        let out = route_demands(&path4(), &[d(0, 9, 2.0), d(9, 0, 1.0), d(0, 3, 1.0)], 1);
        assert_eq!(out.unrouted_flows, 2);
        assert!((out.routed_traffic - 1.0).abs() < 1e-12);
        let empty: Graph<(), f64> = Graph::new();
        let out = route_demands(&empty, &[d(0, 1, 5.0)], 1);
        assert_eq!(out.unrouted_flows, 1);
        assert_eq!(out.routed_traffic, 0.0);
        assert!(out.link_load.is_empty());
    }

    /// Each entry of a list is one flow: a repeated pair routes twice,
    /// and a self-demand is no flow at all.
    #[test]
    fn repeated_pairs_are_separate_flows() {
        let out = route_demands(&path4(), &[d(0, 3, 1.0), d(2, 2, 4.0), d(0, 3, 2.0)], 2);
        assert_eq!(out.link_load, vec![3.0; 3]);
        assert_eq!((out.routed_flows, out.unrouted_flows), (2, 0));
        assert_eq!((out.routed_traffic, out.traffic_hops), (3.0, 9.0));
    }

    #[test]
    fn empty_demands() {
        let out = route_demands(&path4(), &[], 1);
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
            let outcome = route_demands(&g, &demands, 1);
            prop_assert_eq!(outcome.unrouted_flows, 0);
            prop_assert!((outcome.total_load() - outcome.traffic_hops).abs() < 1e-9,
                "sum load {} vs traffic-hops {}", outcome.total_load(), outcome.traffic_hops);
            // Routed traffic equals offered traffic.
            let offered: f64 = demands.iter().map(|d| d.amount).sum();
            prop_assert!((outcome.routed_traffic - offered).abs() < 1e-9);
        }
    }
}
