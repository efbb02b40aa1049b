//! Differential suite for the batched traffic engine: on a 5k-node GLP
//! graph, the batched tree-reuse engine must agree with per-flow naive
//! routing **exactly** (integer-valued demands make every sum exact in
//! f64, so reassociating the additions cannot change a bit), and its
//! link-load vectors must be byte-identical at 1 vs 8 worker threads —
//! the same contract `csr_equivalence.rs` pins for the analytics
//! kernels.
//!
//! Demands are restricted to source bands (every destination, a prefix
//! of sources): the engine skips sources that originate nothing, which
//! keeps the debug-build suite fast without shrinking the 5k-node
//! topology the paths actually traverse.

use hotgen::baselines::glp;
use hotgen::graph::csr::CsrGraph;
use hotgen::graph::{Graph, NodeId};
use hotgen::sim::demand::{Demand, DemandConfig, DemandMatrix, DemandModel, OdDemand};
use hotgen::sim::failure::route_demands;
use hotgen::sim::traffic::{link_loads, RoutePolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

mod common;
use common::per_flow::{bfs_forest, naive_link_load};
use common::Banded;

/// The shared 5k-node GLP fixture (generated once per test binary).
fn glp5k() -> &'static (Graph<(), ()>, CsrGraph) {
    static FIXTURE: OnceLock<(Graph<(), ()>, CsrGraph)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let g = glp::generate(
            &glp::GlpConfig {
                n: 5000,
                ..glp::GlpConfig::default()
            },
            &mut StdRng::seed_from_u64(20030617),
        );
        let csr = CsrGraph::from_graph(&g);
        (g, csr)
    })
}

/// Integer-valued OD demand: small integers varying per pair, so f64
/// sums are exact regardless of association order.
struct IntegerDemand {
    n: usize,
}

impl OdDemand for IntegerDemand {
    fn node_count(&self) -> usize {
        self.n
    }
    fn demand(&self, src: usize, dst: usize) -> f64 {
        if src == dst {
            0.0
        } else {
            ((src * 7 + dst * 13) % 5) as f64 // 0..=4, zeros included
        }
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The differential heart: batched subtree accumulation == per-flow path
/// walking over the tree cache == the per-flow demand-list router, bit
/// for bit, on integer demands from a band of sources.
#[test]
fn batched_matches_naive_per_flow_exactly() {
    let (g, csr) = glp5k();
    let sources: Vec<NodeId> = (0..300).map(NodeId).collect();
    let dem = IntegerDemand { n: 5000 };
    let banded = Banded {
        inner: IntegerDemand { n: 5000 },
        max_src: sources.len(),
    };
    let batched = link_loads(csr, &banded, RoutePolicy::TreePath, 4);

    // Naive 1: per-flow walks over the multi-source tree cache.
    let mut flows = Vec::new();
    for &s in &sources {
        for dst in 0..5000 {
            let amount = dem.demand(s.index(), dst);
            if amount > 0.0 {
                flows.push(Demand {
                    src: s,
                    dst: NodeId(dst as u32),
                    amount,
                });
            }
        }
    }
    let forest = bfs_forest(csr, &sources, 4);
    let naive = naive_link_load(csr, &forest, &flows);
    assert_eq!(bits(&batched.link_load), bits(&naive.link_load));
    assert_eq!(batched.routed_flows, naive.routed_flows);
    assert_eq!(batched.unrouted_flows, naive.unrouted_flows);
    assert_eq!(
        batched.routed_traffic.to_bits(),
        naive.routed_traffic.to_bits()
    );
    assert_eq!(batched.traffic_hops, naive.traffic_hops);

    // Naive 2: the demand-list router agrees too (same CSR, same
    // first-discovery trees).
    let per_flow = route_demands(g, &flows);
    assert_eq!(bits(&batched.link_load), bits(&per_flow.link_load));
    assert_eq!(per_flow.unrouted_flows, 0);
}

/// Thread-count identity on *non-integer* demand (gravity with jittered
/// masses), for both route policies: 1 worker vs 8 workers, link loads
/// byte-identical, over a ≥ 1M-flow band.
#[test]
fn one_vs_eight_threads_byte_identical_on_glp5k() {
    let (_, csr) = glp5k();
    let dem = Banded {
        inner: DemandMatrix::build(
            csr,
            None,
            &DemandConfig {
                model: DemandModel::Gravity {
                    distance_exponent: 1.0,
                },
                mass_jitter: 0.5,
                seed: 7,
                ..DemandConfig::default()
            },
        ),
        max_src: 1000,
    };
    for policy in [RoutePolicy::TreePath, RoutePolicy::Ecmp] {
        let reference = link_loads(csr, &dem, policy, 1);
        assert!(
            reference.routed_flows >= 1_000_000,
            "band routes {} flows",
            reference.routed_flows
        );
        let par = link_loads(csr, &dem, policy, 8);
        assert_eq!(
            bits(&reference.link_load),
            bits(&par.link_load),
            "{:?} diverged at 8 threads",
            policy
        );
        assert_eq!(reference.routed_flows, par.routed_flows);
        assert_eq!(reference.traffic_hops.to_bits(), par.traffic_hops.to_bits());
        // Conservation: every routed unit crosses exactly `hops` links
        // no matter how ECMP splits it.
        let total = reference.total_load();
        assert!(
            (total - reference.traffic_hops).abs() <= 1e-9 * reference.traffic_hops,
            "{:?} conservation: load {} vs traffic-hops {}",
            policy,
            total,
            reference.traffic_hops
        );
    }
}

/// TreePath and ECMP agree on all flow accounting (they differ only in
/// where the load lands), over a rank-biased band.
#[test]
fn ecmp_and_tree_agree_on_accounting() {
    let (_, csr) = glp5k();
    let dem = Banded {
        inner: DemandMatrix::build(
            csr,
            None,
            &DemandConfig {
                model: DemandModel::RankBiased { exponent: 1.0 },
                ..DemandConfig::default()
            },
        ),
        max_src: 500,
    };
    let tree = link_loads(csr, &dem, RoutePolicy::TreePath, 8);
    let ecmp = link_loads(csr, &dem, RoutePolicy::Ecmp, 8);
    assert_eq!(tree.routed_flows, ecmp.routed_flows);
    assert_eq!(tree.unrouted_flows, ecmp.unrouted_flows);
    // Same shortest-path lengths → identical traffic-hops.
    assert_eq!(tree.traffic_hops.to_bits(), ecmp.traffic_hops.to_bits());
    assert!(tree.max_load() > 0.0 && ecmp.max_load() > 0.0);
}

/// The reference's forest holds one tree per requested source, in
/// order, identical at every thread count; a repeated source resolves
/// to its first tree.
#[test]
fn bfs_forest_matches_individual_trees() {
    let (w, h) = (6u32, 4u32);
    let mut edges = Vec::new();
    for y in 0..h {
        for x in 0..w {
            let v = (y * w + x) as usize;
            if x + 1 < w {
                edges.push((v, v + 1, ()));
            }
            if y + 1 < h {
                edges.push((v, v + w as usize, ()));
            }
        }
    }
    let g: Graph<(), ()> = Graph::from_edges((w * h) as usize, edges);
    let csr = CsrGraph::from_graph(&g);
    let sources: Vec<NodeId> = [0u32, 7, 23, 7].iter().map(|&v| NodeId(v)).collect();
    let reference = bfs_forest(&csr, &sources, 1);
    for threads in [1, 2, 4, 8] {
        let forest = bfs_forest(&csr, &sources, threads);
        assert_eq!(forest.len(), sources.len());
        for (i, &s) in sources.iter().enumerate() {
            let tree = forest.tree(i);
            assert_eq!(tree.source, s);
            assert_eq!(tree.dist, csr.bfs_tree(s).dist, "threads {}", threads);
            assert_eq!(tree.dist, reference.tree(i).dist);
        }
        // Duplicate source 7 resolves to the first tree.
        assert_eq!(forest.tree_from(NodeId(7)).unwrap().source, NodeId(7));
        assert!(forest.tree_from(NodeId(1)).is_none());
    }
    let empty = bfs_forest(&csr, &[], 4);
    assert!(empty.is_empty());
    assert!(empty.tree_from(NodeId(0)).is_none());
}

/// A flow whose source has no tree, or whose destination lies outside
/// the graph, is unrouted rather than an index panic.
#[test]
fn naive_missing_source_tree_is_unrouted() {
    let g: Graph<(), ()> = Graph::from_edges(4, vec![(0, 1, ()), (1, 2, ()), (2, 3, ())]);
    let csr = CsrGraph::from_graph(&g);
    let forest = bfs_forest(&csr, &[NodeId(0)], 1);
    let flows = vec![
        Demand {
            src: NodeId(2),
            dst: NodeId(3),
            amount: 4.0,
        },
        Demand {
            src: NodeId(0),
            dst: NodeId(99),
            amount: 1.5,
        },
    ];
    let out = naive_link_load(&csr, &forest, &flows);
    assert_eq!(out.unrouted_flows, 2);
    assert_eq!(out.unrouted_traffic, 5.5);
}
