//! Batched, deterministic link-load simulation.
//!
//! The engine routes the all-pairs workloads the demand models in
//! [`crate::demand`] describe (millions of OD flows), and the explicit
//! demand lists of [`crate::failure`], in O(n + m) per *source* instead
//! of O(path) per *flow*:
//!
//! 1. one CSR BFS tree per source, computed once into reused scratch
//!    ([`hot_graph::csr::CsrGraph::bfs_tree_into`]) and shared by every
//!    demand model in the batch;
//! 2. per model, a reverse-visit-order **subtree accumulation**: seed
//!    each destination with its demand, then push accumulated demand up
//!    the tree — every tree edge receives exactly the sum of the demands
//!    below it, which is what per-flow path walking would have added one
//!    flow at a time;
//! 3. sources fan out over the fixed 64-chunk scheduler
//!    ([`hot_graph::parallel::run_chunks`]): chunk boundaries ignore the
//!    thread count and partial load vectors merge in chunk order, so
//!    **link loads are bit-identical at every thread count**, and — for
//!    integer-valued demands — bit-identical to walking every flow's
//!    path (the per-flow reference lives with the differential tests, in
//!    `tests/common/per_flow.rs`).
//!
//! [`RoutePolicy::Ecmp`] additionally splits each flow equally over *all*
//! shortest paths (per-path, so parallel equal-length paths through a
//! high-σ neighbor carry proportionally more). It replaces the tree with
//! one forward sweep per source
//! ([`hot_graph::csr::CsrGraph::path_dag_into`]) that records distances,
//! Brandes-style path counts σ and each node's shortest-path-DAG
//! in-edges; the reverse pass then splits each node's accumulated demand
//! over those in-edges only, never rescanning an adjacency list. Every
//! σ and every split adds in the order the older two-pass engine used
//! (a BFS tree, a path-count pass, and a reverse scan of each node's
//! neighbors), so the loads are the same bits; that engine is kept as
//! the oracle in `tests/common/ecmp.rs`.
//!
//! [`link_loads_weighted`] generalizes ECMP with per-link multiplicative
//! weights (a path's weight is the product of its edge weights; flows
//! split proportionally to weighted path counts). It is the mechanism
//! under the TE loop in [`crate::te`]: de-weighting a hot link shifts
//! traffic onto parallel shortest paths without changing any path
//! length. With all weights 1.0 it is **bit-identical** to
//! [`RoutePolicy::Ecmp`] (every weighted product multiplies by exactly
//! 1.0), and dyadic weights (the TE loop halves) keep the splits exact
//! in floating point.

use crate::demand::OdDemand;
use hot_graph::csr::{CsrBfsTree, CsrGraph, CsrPathDag, UNREACHABLE};
use hot_graph::graph::{EdgeId, NodeId};
use hot_graph::parallel::run_chunks;

/// How a flow is mapped onto shortest paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutePolicy {
    /// The deterministic BFS-tree path (first discovery in adjacency
    /// order) — the hop routing of every traffic table, demand lists
    /// ([`crate::failure::route_demands`]) included.
    TreePath,
    /// Equal-cost multipath: the flow splits over all shortest paths,
    /// proportionally to path counts (Brandes σ).
    Ecmp,
}

/// Link loads and flow accounting from one batched run.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficLoads {
    /// Traffic carried by each link (indexed by `EdgeId`).
    pub link_load: Vec<f64>,
    /// OD flows routed (positive-demand ordered pairs with a path).
    pub routed_flows: u64,
    /// OD flows between disconnected endpoints.
    pub unrouted_flows: u64,
    /// Total routed traffic.
    pub routed_traffic: f64,
    /// Total traffic between disconnected endpoints.
    pub unrouted_traffic: f64,
    /// Total routed traffic × hops.
    pub traffic_hops: f64,
}

impl TrafficLoads {
    pub(crate) fn zero(links: usize) -> TrafficLoads {
        TrafficLoads {
            link_load: vec![0.0; links],
            routed_flows: 0,
            unrouted_flows: 0,
            routed_traffic: 0.0,
            unrouted_traffic: 0.0,
            traffic_hops: 0.0,
        }
    }

    fn absorb(&mut self, other: &TrafficLoads) {
        for (a, b) in self.link_load.iter_mut().zip(&other.link_load) {
            *a += b;
        }
        self.routed_flows += other.routed_flows;
        self.unrouted_flows += other.unrouted_flows;
        self.routed_traffic += other.routed_traffic;
        self.unrouted_traffic += other.unrouted_traffic;
        self.traffic_hops += other.traffic_hops;
    }

    /// Demand-weighted mean path length in hops.
    pub fn mean_hops(&self) -> f64 {
        if self.routed_traffic > 0.0 {
            self.traffic_hops / self.routed_traffic
        } else {
            0.0
        }
    }

    /// Maximum link load.
    pub fn max_load(&self) -> f64 {
        self.link_load.iter().copied().fold(0.0, f64::max)
    }

    /// Sum of all link loads (equals `traffic_hops` up to float
    /// reassociation).
    pub fn total_load(&self) -> f64 {
        self.link_load.iter().sum()
    }
}

/// The per-source routing structure of one worker: a BFS tree for
/// [`RoutePolicy::TreePath`], a shortest-path DAG for
/// [`RoutePolicy::Ecmp`]. Allocated once per worker thread.
enum Routes {
    Tree(CsrBfsTree),
    Dag(CsrPathDag),
}

/// Per-worker scratch: the routing structure, the subtree accumulator,
/// and one positive-demand list per model. O(n + m) in all.
struct EngineScratch {
    routes: Routes,
    acc: Vec<f64>,
    /// `entries[m]` = the current source's positive demands under model
    /// `m`, as `(dst, amount)`.
    entries: Vec<Vec<(u32, f64)>>,
}

/// Routes every demand model in `demands` over `csr` in one batched
/// sweep — each source's BFS tree (or ECMP DAG) is computed once and
/// fanned out over all models — and returns one [`TrafficLoads`] per
/// model, in input order. Output is bit-identical at every thread
/// count.
///
/// Self-demand (the matrix diagonal) is never routed; every other entry
/// a model's [`OdDemand::gather_row`] emits is one flow. All models must
/// cover exactly `csr.node_count()` nodes.
pub fn link_loads_multi(
    csr: &CsrGraph,
    demands: &[&dyn OdDemand],
    policy: RoutePolicy,
    threads: usize,
) -> Vec<TrafficLoads> {
    link_loads_inner(csr, demands, policy, None, threads)
}

/// [`link_loads`] under weighted ECMP: each flow splits over all
/// shortest paths proportionally to *weighted* path counts, where a
/// path's weight is the product of its links' entries in
/// `link_weights` (indexed by `EdgeId`, all positive and finite).
/// Unit weights reproduce [`RoutePolicy::Ecmp`] bit for bit; see the
/// module docs. Output is bit-identical at every thread count.
pub fn link_loads_weighted(
    csr: &CsrGraph,
    demand: &dyn OdDemand,
    link_weights: &[f64],
    threads: usize,
) -> TrafficLoads {
    assert_eq!(
        link_weights.len(),
        csr.edge_count(),
        "one weight per link required"
    );
    assert!(
        link_weights.iter().all(|&w| w.is_finite() && w > 0.0),
        "link weights must be positive and finite"
    );
    link_loads_inner(
        csr,
        &[demand],
        RoutePolicy::Ecmp,
        Some(link_weights),
        threads,
    )
    .pop()
    .expect("one model in, one result out")
}

fn link_loads_inner(
    csr: &CsrGraph,
    demands: &[&dyn OdDemand],
    policy: RoutePolicy,
    weights: Option<&[f64]>,
    threads: usize,
) -> Vec<TrafficLoads> {
    let n = csr.node_count();
    let links = csr.edge_count();
    for dem in demands {
        assert_eq!(dem.node_count(), n, "demand sized for a different graph");
    }
    let mut totals: Vec<TrafficLoads> = demands.iter().map(|_| TrafficLoads::zero(links)).collect();
    if n == 0 || demands.is_empty() {
        return totals;
    }
    let partials = run_chunks(
        n,
        threads,
        || EngineScratch {
            routes: match policy {
                RoutePolicy::TreePath => Routes::Tree(CsrBfsTree::sized(n)),
                RoutePolicy::Ecmp => Routes::Dag(CsrPathDag::sized(csr)),
            },
            acc: vec![0.0; n],
            entries: demands.iter().map(|_| Vec::new()).collect(),
        },
        |scratch, range| {
            let mut partial: Vec<TrafficLoads> =
                demands.iter().map(|_| TrafficLoads::zero(links)).collect();
            let EngineScratch {
                routes,
                acc,
                entries,
            } = scratch;
            for s in range {
                // Gather each model's positive demands first: a source
                // nobody sends from (masked masses, restricted bands)
                // skips its BFS entirely.
                let mut any = false;
                for (dem, entries) in demands.iter().zip(entries.iter_mut()) {
                    entries.clear();
                    dem.gather_row(s, entries);
                    any |= !entries.is_empty();
                }
                if !any {
                    continue;
                }
                let source = NodeId(s as u32);
                match routes {
                    Routes::Tree(tree) => {
                        csr.bfs_tree_into(source, tree);
                        for (entries, out) in entries.iter().zip(&mut partial) {
                            seed_demands(entries, source, &tree.dist, acc, out);
                            push_up_tree(tree, acc, out);
                        }
                    }
                    Routes::Dag(dag) => {
                        csr.path_dag_into(source, weights, dag);
                        for (entries, out) in entries.iter().zip(&mut partial) {
                            seed_demands(entries, source, dag.dist(), acc, out);
                            match weights {
                                None => push_up_dag(csr, dag, |_| 1.0, acc, out),
                                Some(w) => push_up_dag(csr, dag, |e| w[e.index()], acc, out),
                            }
                        }
                    }
                }
            }
            partial
        },
    );
    for (_, partial) in partials {
        for (total, part) in totals.iter_mut().zip(&partial) {
            total.absorb(part);
        }
    }
    totals
}

/// [`link_loads_multi`] for a single demand model.
pub fn link_loads(
    csr: &CsrGraph,
    demand: &dyn OdDemand,
    policy: RoutePolicy,
    threads: usize,
) -> TrafficLoads {
    link_loads_multi(csr, &[demand], policy, threads)
        .pop()
        .expect("one model in, one result out")
}

/// Books one model's gathered demands from `source` into `out` and
/// seeds each reachable destination's accumulator with its amount.
fn seed_demands(
    entries: &[(u32, f64)],
    source: NodeId,
    dist: &[u32],
    acc: &mut [f64],
    out: &mut TrafficLoads,
) {
    for &(v, amount) in entries {
        let v = v as usize;
        // Self-demand is never routed, whatever a gather_row emits.
        if v == source.index() {
            continue;
        }
        if dist[v] == UNREACHABLE {
            out.unrouted_flows += 1;
            out.unrouted_traffic += amount;
        } else {
            // The accumulator is zero on entry, so adding gives a single
            // entry's exact bits and a repeated destination its sum.
            acc[v] += amount;
            out.routed_flows += 1;
            out.routed_traffic += amount;
            out.traffic_hops += amount * dist[v] as f64;
        }
    }
}

/// Pushes the seeded demand up the BFS tree onto its edges. Children
/// precede parents in reverse visit order, so by the time a node is
/// popped its accumulator holds the whole subtree's demand. Leaves the
/// accumulator all-zero.
fn push_up_tree(tree: &CsrBfsTree, acc: &mut [f64], out: &mut TrafficLoads) {
    for &v in tree.visit_order()[1..].iter().rev() {
        let a = acc[v.index()];
        if a == 0.0 {
            continue;
        }
        let (p, e) = tree
            .parent(v)
            .expect("reached non-source node has a parent");
        out.link_load[e.index()] += a;
        acc[p.index()] += a;
        acc[v.index()] = 0.0;
    }
    acc[tree.source.index()] = 0.0;
}

/// Splits the seeded demand over the shortest-path DAG: in reverse visit
/// order each node hands its accumulated demand to its DAG in-edges in
/// proportion to the (weighted) path counts entering through them. Only
/// DAG edges are read. Leaves the accumulator all-zero.
fn push_up_dag(
    csr: &CsrGraph,
    dag: &CsrPathDag,
    weight: impl Fn(EdgeId) -> f64,
    acc: &mut [f64],
    out: &mut TrafficLoads,
) {
    let sigma = dag.sigma();
    for &v in dag.visit_order()[1..].iter().rev() {
        let a = acc[v.index()];
        if a == 0.0 {
            continue;
        }
        let share = a / sigma[v.index()];
        for &(u, e) in dag.preds(csr, v) {
            // The σ entering v through edge e is σ[u]·w(e), so that is
            // e's share of the split. Unweighted multiplies by exactly
            // 1.0, so unit weights give the same bits.
            let c = share * (sigma[u.index()] * weight(e));
            out.link_load[e.index()] += c;
            acc[u.index()] += c;
        }
        acc[v.index()] = 0.0;
    }
    acc[dag.source().index()] = 0.0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::{Demand, DemandConfig, DemandMatrix, DemandModel};
    use crate::failure::route_demands;
    use hot_graph::graph::{Graph, NodeId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Gravity demand on irregular non-integer masses: each node's
    /// degree scaled by `1 + amp · u`, `u ~ U(-1, 1)` drawn from `seed`
    /// in node order.
    fn jittered_gravity(csr: &CsrGraph, amp: f64, seed: u64) -> DemandMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mass = (0..csr.node_count())
            .map(|v| {
                csr.degree(NodeId(v as u32)) as f64 * (1.0 + amp * rng.random_range(-1.0..1.0))
            })
            .collect();
        DemandMatrix::from_masses(mass, None, 0.0, 1.0, 1_000_000.0)
    }

    /// A demand given by an explicit dense matrix (tests only).
    struct Dense {
        n: usize,
        d: Vec<f64>,
    }

    impl OdDemand for Dense {
        fn node_count(&self) -> usize {
            self.n
        }
        fn demand(&self, src: usize, dst: usize) -> f64 {
            self.d[src * self.n + dst]
        }
    }

    fn path4() -> (Graph<(), ()>, CsrGraph) {
        let g: Graph<(), ()> = Graph::from_edges(4, vec![(0, 1, ()), (1, 2, ()), (2, 3, ())]);
        let csr = CsrGraph::from_graph(&g);
        (g, csr)
    }

    #[test]
    fn batched_matches_route_on_path() {
        let (g, csr) = path4();
        let mut d = vec![0.0; 16];
        d[3] = 5.0; // 0 -> 3
        d[4 + 2] = 2.0; // 1 -> 2
        let dense = Dense { n: 4, d };
        let loads = link_loads(&csr, &dense, RoutePolicy::TreePath, 2);
        let flows = vec![
            Demand {
                src: NodeId(0),
                dst: NodeId(3),
                amount: 5.0,
            },
            Demand {
                src: NodeId(1),
                dst: NodeId(2),
                amount: 2.0,
            },
        ];
        let reference = route_demands(&g, &flows, 2);
        assert_eq!(loads.link_load, reference.link_load);
        assert_eq!(loads.routed_flows, 2);
        assert_eq!(loads.unrouted_flows, 0);
        assert!((loads.mean_hops() - reference.mean_hops()).abs() < 1e-12);
    }

    #[test]
    fn ecmp_splits_across_equal_paths() {
        // Square: two 2-hop paths from 0 to 3.
        let g: Graph<(), ()> =
            Graph::from_edges(4, vec![(0, 1, ()), (0, 2, ()), (1, 3, ()), (2, 3, ())]);
        let csr = CsrGraph::from_graph(&g);
        let mut d = vec![0.0; 16];
        d[3] = 2.0;
        let dense = Dense { n: 4, d };
        let tree = link_loads(&csr, &dense, RoutePolicy::TreePath, 1);
        let ecmp = link_loads(&csr, &dense, RoutePolicy::Ecmp, 1);
        // Tree path uses one side only; ECMP puts exactly 1.0 on all
        // four edges (2 paths, amount 2, splits are powers of two).
        assert_eq!(tree.link_load.iter().filter(|&&l| l > 0.0).count(), 2);
        assert_eq!(ecmp.link_load, vec![1.0; 4]);
        assert_eq!(ecmp.traffic_hops, 4.0);
        assert_eq!(ecmp.mean_hops(), 2.0);
    }

    #[test]
    fn disconnected_demand_counted_unrouted() {
        let g: Graph<(), ()> = Graph::from_edges(4, vec![(0, 1, ()), (2, 3, ())]);
        let csr = CsrGraph::from_graph(&g);
        let mut d = vec![0.0; 16];
        d[2] = 3.0; // 0 -> 2 impossible
        d[1] = 1.0; // 0 -> 1 fine
        let dense = Dense { n: 4, d };
        for policy in [RoutePolicy::TreePath, RoutePolicy::Ecmp] {
            let loads = link_loads(&csr, &dense, policy, 3);
            assert_eq!(loads.unrouted_flows, 1);
            assert_eq!(loads.unrouted_traffic, 3.0);
            assert_eq!(loads.routed_traffic, 1.0);
        }
    }

    #[test]
    fn multi_model_matches_single_runs_bitwise() {
        let g: Graph<(), ()> = Graph::from_edges(
            7,
            vec![
                (0, 1, ()),
                (1, 2, ()),
                (2, 3, ()),
                (3, 0, ()),
                (2, 4, ()),
                (4, 5, ()),
                (5, 6, ()),
                (6, 2, ()),
            ],
        );
        let csr = CsrGraph::from_graph(&g);
        let models: Vec<DemandMatrix> = [
            DemandModel::Uniform,
            DemandModel::Gravity {
                distance_exponent: 0.0,
            },
            DemandModel::RankBiased { exponent: 1.0 },
        ]
        .into_iter()
        .map(|model| {
            DemandMatrix::build(
                &csr,
                None,
                &DemandConfig {
                    model,
                    ..DemandConfig::default()
                },
            )
        })
        .collect();
        let refs: Vec<&dyn OdDemand> = models.iter().map(|m| m as &dyn OdDemand).collect();
        for policy in [RoutePolicy::TreePath, RoutePolicy::Ecmp] {
            let multi = link_loads_multi(&csr, &refs, policy, 4);
            for (dem, got) in models.iter().zip(&multi) {
                let single = link_loads(&csr, dem, policy, 1);
                assert_eq!(&single, got, "{:?}", policy);
                // Conservation: total load equals traffic x hops.
                assert!((got.total_load() - got.traffic_hops).abs() < 1e-9 * got.traffic_hops);
            }
        }
    }

    #[test]
    fn thread_counts_are_bit_identical() {
        let g: Graph<(), ()> = Graph::from_edges(
            9,
            (0..8)
                .map(|i| (i, i + 1, ()))
                .chain([(0, 4, ()), (2, 7, ())])
                .collect::<Vec<_>>(),
        );
        let csr = CsrGraph::from_graph(&g);
        let dem = jittered_gravity(&csr, 0.4, 5);
        for policy in [RoutePolicy::TreePath, RoutePolicy::Ecmp] {
            let reference = link_loads(&csr, &dem, policy, 1);
            for threads in 2..=8 {
                let got = link_loads(&csr, &dem, policy, threads);
                let same = reference
                    .link_load
                    .iter()
                    .zip(&got.link_load)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "{:?} diverged at {} threads", policy, threads);
                assert_eq!(reference.traffic_hops.to_bits(), got.traffic_hops.to_bits());
            }
        }
    }

    #[test]
    fn unit_weights_reproduce_ecmp_bitwise() {
        let g: Graph<(), ()> = Graph::from_edges(
            9,
            (0..8)
                .map(|i| (i, i + 1, ()))
                .chain([(0, 4, ()), (2, 7, ()), (1, 6, ())])
                .collect::<Vec<_>>(),
        );
        let csr = CsrGraph::from_graph(&g);
        let dem = jittered_gravity(&csr, 0.3, 11);
        let plain = link_loads(&csr, &dem, RoutePolicy::Ecmp, 3);
        for threads in [1, 3, 8] {
            let unit = link_loads_weighted(&csr, &dem, &vec![1.0; csr.edge_count()], threads);
            assert_eq!(plain, unit, "unit weights at {} threads", threads);
        }
        // A uniform dyadic rescale (all 0.5) changes no split either:
        // every σ scales by an exact power of two that cancels.
        let halved = link_loads_weighted(&csr, &dem, &vec![0.5; csr.edge_count()], 2);
        assert_eq!(plain, halved);
    }

    #[test]
    fn weighted_split_follows_weights() {
        // Square: paths 0-1-3 (edges 0, 2) and 0-2-3 (edges 1, 3).
        let g: Graph<(), ()> =
            Graph::from_edges(4, vec![(0, 1, ()), (0, 2, ()), (1, 3, ()), (2, 3, ())]);
        let csr = CsrGraph::from_graph(&g);
        let mut d = vec![0.0; 16];
        d[3] = 4.0;
        let dense = Dense { n: 4, d };
        // Weight 3 on edge 0 makes the left path carry 3 of every 4.
        let loads = link_loads_weighted(&csr, &dense, &[3.0, 1.0, 1.0, 1.0], 1);
        assert_eq!(loads.link_load, vec![3.0, 1.0, 3.0, 1.0]);
        assert_eq!(loads.routed_traffic, 4.0);
        assert_eq!(loads.mean_hops(), 2.0);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn weighted_rejects_zero_weight() {
        let (_, csr) = path4();
        let dense = Dense {
            n: 4,
            d: vec![0.0; 16],
        };
        link_loads_weighted(&csr, &dense, &[1.0, 0.0, 1.0], 1);
    }

    #[test]
    fn empty_graph_yields_empty_loads() {
        let g: Graph<(), ()> = Graph::new();
        let csr = CsrGraph::from_graph(&g);
        let dense = Dense { n: 0, d: vec![] };
        let loads = link_loads(&csr, &dense, RoutePolicy::TreePath, 4);
        assert!(loads.link_load.is_empty());
        assert_eq!(loads.routed_flows, 0);
        assert_eq!(loads.max_load(), 0.0);
        assert_eq!(loads.mean_hops(), 0.0);
    }
}
