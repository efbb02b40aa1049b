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
use hotgen::graph::parallel::bfs_forest;
use hotgen::graph::NodeId;
use hotgen::sim::demand::{Demand, DemandConfig, DemandMatrix, DemandModel, OdDemand};
use hotgen::sim::failure::route_demands;
use hotgen::sim::traffic::{link_loads, naive_link_load, RoutePolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

mod common;
use common::Banded;

/// The shared 5k-node GLP fixture (generated once per test binary).
fn glp5k() -> &'static (hotgen::graph::Graph<(), ()>, CsrGraph) {
    static FIXTURE: OnceLock<(hotgen::graph::Graph<(), ()>, CsrGraph)> = OnceLock::new();
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
