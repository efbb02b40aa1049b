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
//!
//! The ECMP engine (one shortest-path DAG sweep per source) is checked
//! against the two-pass engine it replaced (`tests/common/ecmp.rs`) on
//! random weighted multigraphs, bit for bit, and the demand-list router
//! with its link-cut study against the per-flow oracle on random
//! multigraphs and lists.

use hotgen::baselines::glp;
use hotgen::graph::csr::CsrGraph;
use hotgen::graph::{EdgeId, Graph, NodeId};
use hotgen::sim::demand::{Demand, DemandConfig, DemandMatrix, DemandModel, OdDemand};
use hotgen::sim::failure::{route_demands, single_link_failures};
use hotgen::sim::traffic::{
    link_loads, link_loads_multi, link_loads_weighted, RoutePolicy, TrafficLoads,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

mod common;
use common::ecmp::ecmp_two_pass;
use common::per_flow::{bfs_forest, naive_link_load};
use common::Banded;

/// The shared 5k-node GLP fixture (generated once per test binary).
fn glp5k() -> &'static (Graph<(), ()>, CsrGraph) {
    static FIXTURE: OnceLock<(Graph<(), ()>, CsrGraph)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let g = glp::generate(
            &glp::GlpConfig { n: 5000 },
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
    let per_flow = route_demands(g, &flows, 4);
    assert_eq!(bits(&batched.link_load), bits(&per_flow.link_load));
    assert_eq!(per_flow.unrouted_flows, 0);
}

/// Thread-count identity on *non-integer* demand (gravity on degree
/// masses jittered by `1 + 0.5 · u`, `u ~ U(-1, 1)`), for both route
/// policies: 1 worker vs 8 workers, link loads byte-identical, over a
/// ≥ 1M-flow band.
#[test]
fn one_vs_eight_threads_byte_identical_on_glp5k() {
    let (_, csr) = glp5k();
    let degrees = csr.degree_sequence().into_iter().map(f64::from);
    let mass = common::jittered(degrees, 0.5, 7);
    let dem = Banded {
        inner: DemandMatrix::from_masses(mass, None, 1.0, 1.0, 1_000_000.0),
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

/// An explicit, sparse OD matrix with non-integer amounts.
struct SparseDemand {
    n: usize,
    d: Vec<f64>,
}

impl OdDemand for SparseDemand {
    fn node_count(&self) -> usize {
        self.n
    }
    fn demand(&self, src: usize, dst: usize) -> f64 {
        self.d[src * self.n + dst]
    }
}

/// A random multigraph of up to 4 components plus isolated nodes, with
/// parallel links in either orientation.
fn random_multigraph(rng: &mut StdRng) -> Graph<(), ()> {
    let n = rng.random_range(1usize..=28);
    let groups = rng.random_range(1usize..=4);
    let members: Vec<Vec<usize>> = {
        let mut members = vec![Vec::new(); groups];
        for v in 0..n {
            // About one node in six stays isolated.
            if rng.random_range(0..6) != 0 {
                members[rng.random_range(0..groups)].push(v);
            }
        }
        members
    };
    let mut edges = Vec::new();
    for _ in 0..rng.random_range(0..=3 * n) {
        let group = &members[rng.random_range(0..groups)];
        if group.is_empty() {
            continue;
        }
        let a = group[rng.random_range(0..group.len())];
        let b = group[rng.random_range(0..group.len())];
        if a == b {
            continue;
        }
        edges.push((a, b, ()));
        match rng.random_range(0..6) {
            0 => edges.push((a, b, ())),
            1 => edges.push((b, a, ())),
            _ => {}
        }
    }
    Graph::from_edges(n, edges)
}

/// One link weight: 1, a power of two below 1, or a non-dyadic value.
fn random_weight(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..3) {
        0 => 1.0,
        1 => 0.5f64.powi(rng.random_range(1i32..=6)),
        _ => rng.random_range(0.01..3.0),
    }
}

/// Sparse non-integer demand: some sources send nothing, the rest to
/// about a fifth of the nodes, unreachable ones included.
fn random_demand(n: usize, rng: &mut StdRng) -> SparseDemand {
    let mut d = vec![0.0; n * n];
    for src in 0..n {
        if rng.random_range(0..4) == 0 {
            continue;
        }
        for dst in 0..n {
            if dst != src && rng.random_range(0..5) == 0 {
                d[src * n + dst] = rng.random_range(0.01..10.0);
            }
        }
    }
    SparseDemand { n, d }
}

fn assert_same_loads(got: &TrafficLoads, want: &TrafficLoads, label: &str) {
    assert_eq!(bits(&got.link_load), bits(&want.link_load), "{}", label);
    assert_eq!(got.routed_flows, want.routed_flows, "{}", label);
    assert_eq!(got.unrouted_flows, want.unrouted_flows, "{}", label);
    assert_eq!(
        got.routed_traffic.to_bits(),
        want.routed_traffic.to_bits(),
        "{}",
        label
    );
    assert_eq!(
        got.unrouted_traffic.to_bits(),
        want.unrouted_traffic.to_bits(),
        "{}",
        label
    );
    assert_eq!(
        got.traffic_hops.to_bits(),
        want.traffic_hops.to_bits(),
        "{}",
        label
    );
}

/// The one-sweep ECMP engine against the two-pass reference, on random
/// weighted multigraphs with sparse non-integer demand at 1–4 threads:
/// weighted, unweighted and two-model runs all agree bit for bit.
#[test]
fn ecmp_sweep_matches_two_pass_oracle() {
    let mut rng = StdRng::seed_from_u64(20031120);
    for case in 0..3000 {
        let g = random_multigraph(&mut rng);
        let csr = CsrGraph::from_graph(&g);
        let n = csr.node_count();
        let weights: Vec<f64> = (0..csr.edge_count())
            .map(|_| random_weight(&mut rng))
            .collect();
        let dem = random_demand(n, &mut rng);
        let other = random_demand(n, &mut rng);
        let threads = rng.random_range(1usize..=4);
        let label = format!(
            "case {} (n {}, m {}, threads {})",
            case,
            n,
            csr.edge_count(),
            threads
        );

        let weighted = link_loads_weighted(&csr, &dem, &weights, threads);
        let oracle = ecmp_two_pass(&csr, &[&dem], Some(&weights), threads);
        assert_same_loads(&weighted, &oracle[0], &format!("weighted {}", label));

        let models: [&dyn OdDemand; 2] = [&dem, &other];
        let plain = link_loads_multi(&csr, &models, RoutePolicy::Ecmp, threads);
        let oracle = ecmp_two_pass(&csr, &models, None, threads);
        for (m, (got, want)) in plain.iter().zip(&oracle).enumerate() {
            assert_same_loads(got, want, &format!("model {} {}", m, label));
        }
        let single = link_loads(&csr, &dem, RoutePolicy::Ecmp, threads);
        assert_same_loads(&single, &oracle[0], &format!("single {}", label));
    }
}

/// A random demand list over `n` nodes, in small integer or non-integer
/// amounts: about one entry in five repeats an earlier pair, about one
/// endpoint in twelve lies outside the graph, pairs across components or
/// on isolated nodes are disconnected, and some entries are self-pairs
/// (`src == dst`, inside or outside the graph).
fn random_demand_list(n: usize, integer: bool, rng: &mut StdRng) -> Vec<Demand> {
    let mut list: Vec<Demand> = Vec::new();
    for _ in 0..rng.random_range(0..=3 * n) {
        let amount = if integer {
            rng.random_range(1u32..=5) as f64
        } else {
            rng.random_range(0.01..10.0)
        };
        if !list.is_empty() && rng.random_range(0..5) == 0 {
            let repeat = list[rng.random_range(0..list.len())];
            list.push(Demand { amount, ..repeat });
            continue;
        }
        let mut endpoint = || {
            if rng.random_range(0..12) == 0 {
                n + rng.random_range(0usize..3)
            } else {
                rng.random_range(0..n)
            }
        };
        let (src, dst) = (endpoint(), endpoint());
        list.push(Demand {
            src: NodeId(src as u32),
            dst: NodeId(dst as u32),
            amount,
        });
    }
    list
}

/// The per-flow oracle of a demand list: one BFS tree per in-range
/// source, each flow's tree path walked edge by edge.
fn per_flow(g: &Graph<(), ()>, demands: &[Demand]) -> TrafficLoads {
    let csr = CsrGraph::from_graph(g);
    let mut sources: Vec<NodeId> = demands
        .iter()
        .map(|d| d.src)
        .filter(|s| s.index() < csr.node_count())
        .collect();
    sources.sort_unstable();
    sources.dedup();
    naive_link_load(&csr, &bfs_forest(&csr, &sources, 1), demands)
}

/// `got == want`: the same bits on integer amounts, within a relative
/// 1e-12 on non-integer ones.
fn assert_agrees(got: f64, want: f64, exact: bool, label: &str) {
    if exact {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{}: {} vs {}",
            label,
            got,
            want
        );
    } else {
        assert!(
            (got - want).abs() <= 1e-12 * got.abs().max(want.abs()),
            "{}: {} vs {}",
            label,
            got,
            want
        );
    }
}

/// The demand-list router and its link-cut study against the per-flow
/// oracle, on random multigraphs (parallel links, isolated nodes,
/// several components) with lists that repeat pairs, reach outside the
/// graph, join disconnected pairs and hold self-pairs, at 1–4 threads:
/// `route_demands` matches `naive_link_load`, and every `FailureImpact`
/// matches the oracle re-run on `edge_subgraph` without that link.
#[test]
fn demand_lists_and_link_cuts_match_per_flow_oracle() {
    let mut rng = StdRng::seed_from_u64(20030617);
    let mut cuts = 0;
    let mut self_pairs = 0;
    for case in 0..1200 {
        let g = random_multigraph(&mut rng);
        let integer = rng.random_range(0..2) == 0;
        let demands = random_demand_list(g.node_count(), integer, &mut rng);
        self_pairs += demands
            .iter()
            .filter(|d| d.src == d.dst && d.src.index() < g.node_count())
            .count();
        let threads = rng.random_range(1usize..=4);
        let label = format!(
            "case {} (n {}, m {}, {} demands, threads {})",
            case,
            g.node_count(),
            g.edge_count(),
            demands.len(),
            threads
        );

        let want = per_flow(&g, &demands);
        let got = route_demands(&g, &demands, threads);
        assert_eq!(got.routed_flows, want.routed_flows, "{}", label);
        assert_eq!(got.unrouted_flows, want.unrouted_flows, "{}", label);
        for (e, (&a, &b)) in got.link_load.iter().zip(&want.link_load).enumerate() {
            assert_agrees(a, b, integer, &format!("load {} {}", e, label));
        }
        assert_agrees(got.routed_traffic, want.routed_traffic, integer, &label);
        assert_agrees(got.unrouted_traffic, want.unrouted_traffic, integer, &label);
        assert_agrees(got.traffic_hops, want.traffic_hops, integer, &label);

        let summary = single_link_failures(&g, &demands, threads);
        let loaded: Vec<EdgeId> = g
            .edge_ids()
            .filter(|e| want.link_load[e.index()] > 0.0)
            .collect();
        let cut_links: Vec<EdgeId> = summary.impacts.iter().map(|i| i.link).collect();
        assert_eq!(cut_links, loaded, "{}", label);
        for impact in &summary.impacts {
            let mut keep = vec![true; g.edge_count()];
            keep[impact.link.index()] = false;
            let after = per_flow(&g.edge_subgraph(&keep), &demands);
            let stretch = if after.routed_traffic > 0.0 && want.routed_traffic > 0.0 {
                after.mean_hops() / want.mean_hops()
            } else {
                1.0
            };
            let label = format!("cut {} {}", impact.link.index(), label);
            let affected = want.link_load[impact.link.index()];
            assert_agrees(impact.affected_traffic, affected, integer, &label);
            assert_agrees(
                impact.stranded_traffic,
                after.unrouted_traffic,
                integer,
                &label,
            );
            assert_agrees(impact.stretch, stretch, integer, &label);
            assert_agrees(impact.max_load_after, after.max_load(), integer, &label);
            cuts += 1;
        }
    }
    assert!(cuts > 4000, "only {} cuts simulated", cuts);
    assert!(self_pairs > 1000, "only {} self-pairs drawn", self_pairs);
}
