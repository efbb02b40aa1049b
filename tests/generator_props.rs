//! Property tests (vendored proptest) for generator invariants.
//!
//! The scenario engine leans on structural guarantees the generators
//! are supposed to keep across *all* parameters and seeds, not just the
//! golden ones: FKP grows spanning trees, the degree-based / structural
//! baselines emit simple graphs (no self-loops, no parallel edges), and
//! the demand-matrix generators behind the traffic engine conserve
//! traffic and stay symmetric with a zero diagonal. These lock those
//! invariants down.
//!
//! The graph kernels are checked against the slow references in
//! `tests/common`: FKP growth's bucket-grid index against the quadratic
//! scan, the CSR BFS kernels and the component pass against
//! the `Graph` BFS family (and a union-find), the CSR Dijkstra against
//! the `Graph` Dijkstra and Bellman–Ford, and the probe engine against
//! the per-vantage traceroute reference.

mod common;

use common::fkp_scan;
use common::shortest_path::{bellman_ford, dijkstra};
use common::traceroute::infer_map;
use common::traversal as oracle;
use hotgen::baselines::{ba, glp, waxman};
use hotgen::core::fkp::{self, Centrality, FkpConfig};
use hotgen::geo::point::Point;
use hotgen::graph::csr::{BfsScratch, CsrBfsTree, CsrGraph, UNREACHABLE};
use hotgen::graph::traversal::{self, is_connected};
use hotgen::graph::tree::{is_tree, RootedTree, TreeError};
use hotgen::graph::{EdgeId, Graph, NodeId, UnionFind};
use hotgen::metrics::bias::observed_degrees;
use hotgen::sim::demand::{DemandConfig, DemandMatrix, DemandModel, OdDemand};
use hotgen::sim::probe::{run_campaign, ProbeCampaign};
use hotgen::sim::traceroute::{strided_vantages, InferredMap};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(self_loops, duplicate_edges)` of a graph.
fn simplicity<N, E>(g: &Graph<N, E>) -> (usize, usize) {
    let mut seen = std::collections::HashSet::new();
    let mut self_loops = 0;
    let mut duplicates = 0;
    for (_, a, b, _) in g.edges() {
        if a == b {
            self_loops += 1;
        }
        let key = (a.min(b), a.max(b));
        if !seen.insert(key) {
            duplicates += 1;
        }
    }
    (self_loops, duplicates)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn fkp_grows_connected_spanning_trees(
        n in 2usize..120,
        alpha in 0.1f64..50.0,
        seed in 0u64..1_000_000,
    ) {
        let topo = fkp::grow(
            &FkpConfig { n, alpha, ..FkpConfig::default() },
            &mut StdRng::seed_from_u64(seed),
        );
        let g = topo.to_graph();
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(g.edge_count(), n - 1, "a tree has n-1 edges");
        prop_assert!(is_tree(&g), "n = {}, alpha = {}, seed = {}", n, alpha, seed);
        prop_assert!(is_connected(&g));
    }

    #[test]
    fn ba_outputs_are_simple_graphs(
        n in 5usize..150,
        m in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let g = ba::generate(n, m, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(g.node_count(), n);
        let (self_loops, duplicates) = simplicity(&g);
        prop_assert_eq!(self_loops, 0, "n = {}, m = {}, seed = {}", n, m, seed);
        prop_assert_eq!(duplicates, 0, "n = {}, m = {}, seed = {}", n, m, seed);
    }

    #[test]
    fn glp_outputs_are_simple_graphs(
        n in 10usize..150,
        seed in 0u64..1_000_000,
    ) {
        let g = glp::generate(&glp::GlpConfig { n }, &mut StdRng::seed_from_u64(seed));
        let (self_loops, duplicates) = simplicity(&g);
        prop_assert_eq!(self_loops, 0, "n = {}, seed = {}", n, seed);
        prop_assert_eq!(duplicates, 0, "n = {}, seed = {}", n, seed);
    }

    #[test]
    fn waxman_outputs_are_simple_graphs(
        n in 5usize..150,
        alpha in 0.05f64..1.0,
        beta in 0.05f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        let g = waxman::generate(
            &waxman::WaxmanConfig { n, alpha, beta },
            &mut StdRng::seed_from_u64(seed),
        );
        prop_assert_eq!(g.node_count(), n);
        let (self_loops, duplicates) = simplicity(&g);
        prop_assert_eq!(self_loops, 0, "n = {}, seed = {}", n, seed);
        prop_assert_eq!(duplicates, 0, "n = {}, seed = {}", n, seed);
    }
}

/// Trade-off weights every FKP oracle check runs: 0 (every candidate
/// ties on distance, so only the lowest-id rule picks), the star, hub
/// and distance regimes, and a weight far past pure distance.
const FKP_ALPHAS: [f64; 7] = [0.0, 0.5, 1.0, 3.0, 8.0, 50.0, 1e4];

const CENTRALITIES: [Centrality; 3] = [
    Centrality::HopsToRoot,
    Centrality::TreeDistToRoot,
    Centrality::None,
];

/// `fkp::grow` and the quadratic scan, each from `seed`, draw the same
/// positions and attach every arrival to the same parent, bit for bit.
fn check_fkp_against_scan(config: &FkpConfig, seed: u64) -> Result<(), String> {
    let topo = fkp::grow(config, &mut StdRng::seed_from_u64(seed));
    let (points, parents) = fkp_scan::grow(config, &mut StdRng::seed_from_u64(seed));
    let bits = |ps: &[Point]| -> Vec<(u64, u64)> {
        ps.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect()
    };
    prop_assert_eq!(
        bits(&topo.points),
        bits(&points),
        "positions: {:?}, seed = {}",
        config,
        seed
    );
    let grown: Vec<u32> = (0..config.n as u32)
        .map(|v| topo.tree.parent(NodeId(v)).map_or(0, |p| p.0))
        .collect();
    prop_assert_eq!(grown, parents, "parents: {:?}, seed = {}", config, seed);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// FKP's bucket-grid index picks the scan's parent for every arrival:
    /// n up to 600 (one grid cell below 128, four per side from 512),
    /// all three centralities, the fixed weights and a random α in
    /// [0, 100).
    #[test]
    fn fkp_index_matches_scan_oracle(
        n in 1usize..601,
        random_alpha in 0.0f64..100.0,
        seed in 0u64..1_000_000,
    ) {
        for centrality in CENTRALITIES {
            for alpha in FKP_ALPHAS.into_iter().chain([random_alpha]) {
                check_fkp_against_scan(&FkpConfig { n, alpha, centrality }, seed)?;
            }
        }
    }
}

/// The oracle check at the sizes where the grid changes shape, and at
/// the smallest trees.
#[test]
fn fkp_index_matches_scan_oracle_at_grid_edges() {
    for n in [1, 2, 3, 127, 128, 129, 287, 288, 511, 512, 600] {
        for centrality in CENTRALITIES {
            for alpha in FKP_ALPHAS {
                let config = FkpConfig {
                    n,
                    alpha,
                    centrality,
                };
                check_fkp_against_scan(&config, 20030617 + n as u64).unwrap();
            }
        }
    }
}

/// A small random multigraph for the demand-matrix properties.
fn demand_fixture(n: usize, pairs: &[(usize, usize)]) -> CsrGraph {
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
    CsrGraph::from_graph(&g)
}

fn demand_models() -> [DemandModel; 3] {
    [
        DemandModel::Uniform,
        DemandModel::Gravity {
            distance_exponent: 1.0,
        },
        DemandModel::RankBiased { exponent: 1.0 },
    ]
}

/// The matrix `model` builds over `csr`, scaled to `total`. With
/// `jitter`, its masses are also scaled per node by `1 + 0.4 · u`,
/// `u ~ U(-1, 1)` drawn from `seed` in node order: irregular
/// non-integer masses for the conservation and symmetry properties.
fn demand_matrix(
    csr: &CsrGraph,
    model: DemandModel,
    total: f64,
    jitter: bool,
    seed: u64,
) -> DemandMatrix {
    let cfg = DemandConfig {
        model,
        total_traffic: total,
    };
    let dm = DemandMatrix::build(csr, None, &cfg);
    if !jitter {
        return dm;
    }
    let mass = common::jittered((0..dm.len()).map(|v| dm.mass(v)), 0.4, seed);
    DemandMatrix::from_masses(mass, None, 0.0, 1.0, total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Conservation: the flows a matrix emits carry exactly its row
    /// sums — per source and in total (twice the unordered-pair total,
    /// which itself matches the configured traffic whenever any demand
    /// is positive).
    #[test]
    fn demand_flows_conserve_row_and_total_sums(
        n in 2usize..20,
        pairs in proptest::collection::vec((0usize..20, 0usize..20), 1..40),
        total in 1.0f64..10_000.0,
        jitter in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let csr = demand_fixture(n, &pairs);
        for model in demand_models() {
            let dm = demand_matrix(&csr, model, total, jitter == 1, seed);
            let flows = dm.flows();
            for i in 0..n {
                let emitted: f64 = flows
                    .iter()
                    .filter(|f| f.src.index() == i)
                    .map(|f| f.amount)
                    .sum();
                let row = dm.row_sum(i);
                prop_assert!(
                    (emitted - row).abs() <= 1e-9 * row.max(1.0),
                    "row {} emitted {} vs sum {} ({:?})", i, emitted, row, model
                );
            }
            let offered: f64 = flows.iter().map(|f| f.amount).sum();
            let matrix_total = dm.total();
            prop_assert!((offered - 2.0 * matrix_total).abs() <= 1e-9 * matrix_total.max(1.0));
            if matrix_total > 0.0 {
                prop_assert!(
                    (matrix_total - total).abs() <= 1e-9 * total,
                    "total {} vs configured {} ({:?})", matrix_total, total, model
                );
            }
        }
    }

    /// Symmetry and zero self-demand: `demand(i, j)` and `demand(j, i)`
    /// are bit-identical (the undirected gravity model) and the diagonal
    /// is exactly zero.
    #[test]
    fn demand_matrices_are_symmetric_with_zero_diagonal(
        n in 2usize..20,
        pairs in proptest::collection::vec((0usize..20, 0usize..20), 1..40),
        jitter in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let csr = demand_fixture(n, &pairs);
        for model in demand_models() {
            let total = DemandConfig::default().total_traffic;
            let dm = demand_matrix(&csr, model, total, jitter == 1, seed);
            for i in 0..n {
                prop_assert_eq!(dm.demand(i, i), 0.0);
                for j in 0..n {
                    prop_assert_eq!(
                        dm.demand(i, j).to_bits(),
                        dm.demand(j, i).to_bits(),
                        "asymmetric at ({}, {}) under {:?}", i, j, model
                    );
                }
            }
        }
    }
}

/// Integer-valued dense demand for the capacitated properties: exact
/// f64 sums in any association order, zeros included.
struct CascadeDemand {
    n: usize,
}

impl OdDemand for CascadeDemand {
    fn node_count(&self) -> usize {
        self.n
    }
    fn demand(&self, src: usize, dst: usize) -> f64 {
        if src == dst {
            0.0
        } else {
            ((src * 7 + dst * 13) % 5) as f64
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// The cascade's structural guarantees hold for *all* parameters:
    /// it reaches a fixed point in at most |E| failing rounds plus the
    /// fixed point itself, surviving capacity never increases, every
    /// round conserves the offered demand exactly (routed + stranded ==
    /// offered, bit for bit on integer demands), and the final alive
    /// mask matches the recorded capacity and failure counts.
    #[test]
    fn cascade_terminates_conserves_and_sheds_monotonically(
        n in 2usize..16,
        pairs in proptest::collection::vec((0usize..16, 0usize..16), 1..40),
        cap_scale in 0.5f64..40.0,
        threads in 1usize..5,
    ) {
        use hotgen::sim::cascade::{cascade, CascadeConfig};
        let csr = demand_fixture(n, &pairs);
        let dem = CascadeDemand { n };
        let caps: Vec<f64> = (0..csr.edge_count())
            .map(|e| cap_scale * ((e % 5) + 1) as f64)
            .collect();
        let out = cascade(&csr, &dem, &caps, &CascadeConfig::default(), threads);
        prop_assert!(out.converged, "default max_rounds never binds");
        prop_assert!(
            out.rounds.len() <= csr.edge_count() + 1,
            "terminates in <= |E| failing rounds + the fixed point"
        );
        let offered: f64 = (0..n)
            .map(|s| (0..n).map(|d| dem.demand(s, d)).sum::<f64>())
            .sum();
        let mut prev_cap = f64::INFINITY;
        let mut failed_sum = 0;
        for r in &out.rounds {
            prop_assert_eq!(
                (r.routed_traffic + r.stranded_traffic).to_bits(),
                offered.to_bits(),
                "round {} conserves the offered demand", r.round
            );
            prop_assert!(r.surviving_capacity <= prev_cap, "capacity never recovers");
            prev_cap = r.surviving_capacity;
            failed_sum += r.failed;
            prop_assert_eq!(failed_sum, r.failed_total);
        }
        let last = out.final_round();
        prop_assert_eq!(last.failed, 0, "the fixed point fails nothing");
        let alive_cap: f64 = out
            .alive
            .iter()
            .zip(&caps)
            .filter(|&(&a, _)| a)
            .map(|(_, &c)| c)
            .sum();
        prop_assert_eq!(alive_cap.to_bits(), last.surviving_capacity.to_bits());
        prop_assert_eq!(
            out.alive.iter().filter(|&&a| !a).count(),
            last.failed_total
        );
    }

    /// The TE loop's accept-only-if-strictly-better rule makes its
    /// max-utilization trajectory strictly decreasing after the
    /// baseline entry, for all graphs, capacities, and thread counts —
    /// and it never tries more candidates than its round budget.
    #[test]
    fn te_trajectory_is_strictly_monotone(
        n in 2usize..14,
        pairs in proptest::collection::vec((0usize..14, 0usize..14), 1..30),
        cap_scale in 0.5f64..40.0,
        threads in 1usize..5,
    ) {
        use hotgen::sim::te::{tune_weights, TeConfig};
        let csr = demand_fixture(n, &pairs);
        let dem = CascadeDemand { n };
        let caps: Vec<f64> = (0..csr.edge_count())
            .map(|e| cap_scale * ((e % 4) + 1) as f64)
            .collect();
        let cfg = TeConfig { max_rounds: 5 };
        let out = tune_weights(&csr, &dem, &caps, &cfg, threads);
        prop_assert!(!out.trajectory.is_empty());
        prop_assert!(out.trajectory.len() <= cfg.max_rounds + 1);
        for w in out.trajectory.windows(2) {
            prop_assert!(w[1] < w[0], "strictly decreasing: {:?}", out.trajectory);
        }
        prop_assert!(out.final_max_util() <= out.initial_max_util());
        prop_assert!(out.rounds_tried <= cfg.max_rounds);
        prop_assert!(out.weights.iter().all(|&w| w > 0.0 && w <= 1.0));
    }
}

/// A tie-heavy weighted multigraph from proptest edge pairs: integer
/// weights in {0..3} manufacture many equal-cost paths (the hard case
/// for bit-for-bit agreement between shortest-path engines) and keep
/// zero-weight links in play, which Dijkstra accepts.
fn weighted_fixture(n: usize, pairs: &[(usize, usize)]) -> Graph<(), f64> {
    let edges: Vec<(usize, usize, f64)> = pairs
        .iter()
        .enumerate()
        .map(|(i, &(a, b))| (a % n, b % n, ((a * 7 + b * 11 + i) % 4) as f64))
        .filter(|&(a, b, _)| a != b)
        .collect();
    Graph::from_edges(n, edges)
}

/// The batched probe engine's map of `g` under latency forwarding, with
/// the edge weights as per-link latency.
fn batched_map(
    g: &Graph<(), f64>,
    vantages: &[NodeId],
    destinations: Option<&[NodeId]>,
    threads: usize,
) -> InferredMap {
    let latency: Vec<f64> = g.edge_ids().map(|e| *g.edge_weight(e)).collect();
    let campaign = ProbeCampaign {
        vantages,
        destinations,
        link_latency: Some(&latency),
    };
    run_campaign(&CsrGraph::from_graph(g), &campaign, threads).map
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The batched CSR probe engine is a drop-in for the per-vantage
    /// reference: identical masks and coverage bits on arbitrary
    /// weighted graphs, destination subsets (including out-of-range
    /// ids, which both sides skip), and at every thread count.
    #[test]
    fn probe_engine_matches_infer_map_reference(
        n in 2usize..40,
        pairs in proptest::collection::vec((0usize..40, 0usize..40), 1..120),
        k in 1usize..8,
        dest_mode in 0usize..3,
        threads in 1usize..5,
    ) {
        let g = weighted_fixture(n, &pairs);
        let vantages = strided_vantages(&g, k);
        let subset: Vec<NodeId>;
        let destinations: Option<&[NodeId]> = match dest_mode {
            0 => None,
            1 => {
                subset = (0..n).step_by(3).map(|v| NodeId(v as u32)).collect();
                Some(&subset)
            }
            _ => {
                // Out-of-range destinations must be skipped, not panic.
                subset = (0..n + 4).step_by(2).map(|v| NodeId(v as u32)).collect();
                Some(&subset)
            }
        };
        let reference = infer_map(&g, &vantages, destinations, |&w| w);
        let batched = batched_map(&g, &vantages, destinations, threads);
        prop_assert_eq!(&batched.node_seen, &reference.node_seen);
        prop_assert_eq!(&batched.edge_seen, &reference.edge_seen);
        prop_assert_eq!(
            batched.node_coverage.to_bits(),
            reference.node_coverage.to_bits()
        );
        prop_assert_eq!(
            batched.edge_coverage.to_bits(),
            reference.edge_coverage.to_bits()
        );
    }

    /// Regression (promoted from a one-off review scratch test): probe
    /// inference on *sparse* graphs — where most nodes are isolated, so
    /// the strided vantage set lands on degree-0 routers — with
    /// destination lists that run past the node range. The batched
    /// engine must agree with the per-vantage reference on the full
    /// map, and neither side may panic on the out-of-range ids.
    #[test]
    fn probe_inference_handles_isolated_vantages_and_oob_destinations(
        n in 4usize..48,
        pairs in proptest::collection::vec((0usize..48, 0usize..48), 1..5),
        k in 2usize..9,
        overrun in 1usize..6,
        threads in 1usize..5,
    ) {
        // 1..4 edges on up to 48 nodes: almost every vantage is isolated.
        let g = weighted_fixture(n, &pairs);
        let vantages = strided_vantages(&g, k);
        let dests: Vec<NodeId> = (0..n + overrun).step_by(3).map(|v| NodeId(v as u32)).collect();
        let reference = infer_map(&g, &vantages, Some(&dests), |&w| w);
        let batched = batched_map(&g, &vantages, Some(&dests), threads);
        prop_assert_eq!(&batched.node_seen, &reference.node_seen, "node masks diverge");
        prop_assert_eq!(&batched.edge_seen, &reference.edge_seen, "edge masks diverge");
        prop_assert_eq!(
            batched.node_coverage.to_bits(),
            reference.node_coverage.to_bits()
        );
        prop_assert_eq!(
            batched.edge_coverage.to_bits(),
            reference.edge_coverage.to_bits()
        );
    }

    /// E14's observed degrees: counting each node's observed links
    /// (`observed_degrees`) gives the degree sequence of the
    /// observed-link subgraph (`edge_masked`) at every node. Masks come
    /// from campaigns on weighted multigraphs with parallel links in
    /// both orientations, isolated nodes and several components, toward
    /// every node or a destination subset.
    #[test]
    fn observed_degrees_match_masked_subgraph(
        n in 2usize..40,
        pairs in proptest::collection::vec((0usize..40, 0usize..40), 1..80),
        isolated in 0usize..4,
        k in 1usize..8,
        dest_mode in 0usize..2,
        threads in 1usize..5,
    ) {
        // Every third pair also runs the other way, so links come in
        // parallel pairs of both orientations.
        let mut both_ways = pairs.clone();
        both_ways.extend(pairs.iter().step_by(3).map(|&(a, b)| (b, a)));
        let mut g = weighted_fixture(n, &both_ways);
        for _ in 0..isolated {
            g.add_node(());
        }
        let csr = CsrGraph::from_graph(&g);
        let vantages = strided_vantages(&g, k);
        let dests: Vec<NodeId> = (0..g.node_count()).step_by(2).map(|v| NodeId(v as u32)).collect();
        let map = batched_map(&g, &vantages, (dest_mode == 1).then_some(&dests[..]), threads);
        let counted = observed_degrees(&csr, &map.edge_seen);
        let masked = csr.edge_masked(&map.edge_seen).0.degree_sequence();
        prop_assert_eq!(counted.len(), g.node_count());
        prop_assert_eq!(counted, masked);
    }

    /// Campaign maps are subgraphs of the truth (every observed link
    /// has both endpoints observed, every in-range vantage observes
    /// itself) and growing the vantage set only ever grows the map.
    #[test]
    fn probe_maps_are_monotone_subgraphs(
        n in 5usize..60,
        m in 1usize..4,
        seed in 0u64..1_000_000,
        k in 1usize..10,
        threads in 1usize..5,
    ) {
        let g = ba::generate(n, m, &mut StdRng::seed_from_u64(seed));
        let csr = CsrGraph::from_graph(&g);
        let vantages = strided_vantages(&g, k);
        let mut prev_edges: Option<Vec<bool>> = None;
        for j in 1..=vantages.len() {
            let out = run_campaign(
                &csr,
                &ProbeCampaign {
                    vantages: &vantages[..j],
                    destinations: None,
                    link_latency: None,
                },
                threads,
            );
            for (e, a, b, _) in g.edges() {
                if out.map.edge_seen[e.index()] {
                    prop_assert!(out.map.node_seen[a.index()]);
                    prop_assert!(out.map.node_seen[b.index()]);
                }
            }
            for v in &vantages[..j] {
                prop_assert!(out.map.node_seen[v.index()]);
            }
            prop_assert_eq!(out.stats.probes_sent, (j * n) as u64);
            prop_assert!(out.stats.probes_completed <= out.stats.probes_sent);
            if let Some(prev) = &prev_edges {
                for (e, (was, is)) in prev.iter().zip(&out.map.edge_seen).enumerate() {
                    prop_assert!(
                        !was || *is,
                        "edge {} seen with {} vantages but not {}", e, j - 1, j
                    );
                }
            }
            prev_edges = Some(out.map.edge_seen);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The CSR Dijkstra is the `Graph` reference operation for
    /// operation: from every source of a tie-heavy multigraph with
    /// zero-weight links, each node's distance (to the bit), parent
    /// edge and hop depth, and the settle order agree. The integer
    /// weights make every path sum exact, so the distances equal
    /// Bellman–Ford's exactly. One tree is reused throughout, with a
    /// BFS run after every other source, so both resets (after a
    /// Dijkstra run and after a BFS run) are checked.
    #[test]
    fn csr_dijkstra_matches_graph_oracle(
        n in 2usize..40,
        pairs in proptest::collection::vec((0usize..40, 0usize..40), 1..120),
    ) {
        let g = weighted_fixture(n, &pairs);
        let csr = CsrGraph::from_graph(&g);
        let latency: Vec<f64> = g.edge_ids().map(|e| *g.edge_weight(e)).collect();
        let mut tree = CsrBfsTree::sized(n);
        for s in g.node_ids() {
            csr.dijkstra_tree_into(s, &latency, &mut tree);
            let oracle = dijkstra(&g, s, |_, w| *w);
            let bf = bellman_ford(&g, s, |_, w| *w);
            prop_assert_eq!(tree.visit_order(), &oracle.order[..], "settle order from {:?}", s);
            let dist = latencies(&tree);
            for v in g.node_ids() {
                let i = v.index();
                prop_assert_eq!(dist[i].to_bits(), oracle.dist[i].to_bits(), "{:?} -> {:?}", s, v);
                prop_assert_eq!(dist[i].to_bits(), bf[i].to_bits(), "{:?} -> {:?}", s, v);
                prop_assert_eq!(tree.parent(v), oracle.parent[i], "{:?} -> {:?}", s, v);
                let depth = oracle.edge_path_to(v).map_or(UNREACHABLE, |p| p.len() as u32);
                prop_assert_eq!(tree.dist[i], depth, "{:?} -> {:?}", s, v);
            }
            if s.index() % 2 == 1 {
                csr.bfs_tree_into(s, &mut tree);
                prop_assert!(tree.latency().is_none(), "a BFS tree has no latencies");
            }
        }
    }
}

/// A random multigraph: `n` nodes, and every pair in `pairs` with
/// distinct endpoints (mod n) becomes an edge. Duplicates are kept, so
/// parallel edges, isolated nodes and several components all occur.
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

/// Component labels and sizes of the nodes `alive` keeps, by union-find
/// over the links with both ends kept. Labels follow each component's
/// smallest node, which is the discovery order of a BFS sweep in id
/// order; dropped nodes get [`UNREACHABLE`].
fn union_find_components(g: &Graph<(), ()>, alive: &[bool]) -> (Vec<u32>, Vec<usize>) {
    let mut uf = UnionFind::new(g.node_count());
    for (_, a, b, _) in g.edges() {
        if alive[a.index()] && alive[b.index()] {
            uf.union(a.index(), b.index());
        }
    }
    let mut label_of_root = vec![UNREACHABLE; g.node_count()];
    let mut labels = vec![UNREACHABLE; g.node_count()];
    let mut sizes: Vec<usize> = Vec::new();
    for v in (0..g.node_count()).filter(|&v| alive[v]) {
        let root = uf.find(v);
        if label_of_root[root] == UNREACHABLE {
            label_of_root[root] = sizes.len() as u32;
            sizes.push(0);
        }
        labels[v] = label_of_root[root];
        sizes[labels[v] as usize] += 1;
    }
    (labels, sizes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The CSR BFS kernels are the `Graph` oracle, node for node: from
    /// every source of a random multigraph, `bfs_tree`'s visit order,
    /// distances and parents, and the direction-optimizing
    /// `bfs_distances_into` through one reused scratch.
    #[test]
    fn csr_bfs_matches_graph_oracle(
        n in 1usize..30,
        pairs in proptest::collection::vec((0usize..30, 0usize..30), 0..60),
    ) {
        let g = multigraph(n, &pairs);
        let csr = CsrGraph::from_graph(&g);
        let mut scratch = BfsScratch::sized(n);
        for s in g.node_ids() {
            let (dist, parent) = oracle::bfs_tree(&g, s);
            let expect: Vec<u32> = dist.iter().map(|d| d.unwrap_or(UNREACHABLE)).collect();
            let tree = csr.bfs_tree(s);
            prop_assert_eq!(tree.visit_order(), &oracle::bfs_order(&g, s)[..], "order from {:?}", s);
            prop_assert_eq!(&tree.dist, &expect, "distances from {:?}", s);
            for v in g.node_ids() {
                prop_assert_eq!(
                    tree.parent(v).map(|(p, _)| p),
                    parent[v.index()],
                    "parent of {:?} from {:?}",
                    v,
                    s
                );
            }
            csr.bfs_distances_into(s, &mut scratch);
            prop_assert_eq!(scratch.dist(), &expect[..], "direction-optimizing from {:?}", s);
        }
    }

    /// Direction-optimizing BFS distances match classic BFS
    /// bit-for-bit across scratch reuse. Small graphs make the
    /// alpha threshold (`unexplored / 14`, integer division) hit 0
    /// fast, so bottom-up levels are exercised constantly here.
    #[test]
    fn dirop_bfs_matches_classic(
        n in 1usize..24,
        pairs in proptest::collection::vec((0usize..24, 0usize..24), 0..60),
        sources in proptest::collection::vec(0usize..24, 1..6),
    ) {
        let g = multigraph(n, &pairs);
        let csr = CsrGraph::from_graph(&g);
        let mut scratch = BfsScratch::sized(n);
        for &s in &sources {
            let s = NodeId((s % n) as u32);
            csr.bfs_distances_into(s, &mut scratch);
            prop_assert_eq!(scratch.dist(), &oracle::csr_bfs_distances(&csr, s)[..]);
            let finite = scratch
                .dist()
                .iter()
                .filter(|&&d| d != UNREACHABLE)
                .count();
            prop_assert_eq!(scratch.reached().len(), finite);
        }
    }

    /// The one component pass answers every connectivity query the way
    /// the `Graph` oracle and a union-find do, with and without a node
    /// mask: labels in discovery order, sizes, count, largest size, and
    /// the largest-component mask with ties going to the component
    /// found first (isolated nodes make ties common).
    #[test]
    fn csr_components_match_oracle_and_union_find(
        n in 1usize..30,
        pairs in proptest::collection::vec((0usize..30, 0usize..30), 0..50),
        mask_bits in proptest::collection::vec(0usize..4, 30..31),
    ) {
        let g = multigraph(n, &pairs);
        let csr = CsrGraph::from_graph(&g);
        let all = csr.components(None);
        let (uf_labels, uf_sizes) = union_find_components(&g, &vec![true; n]);
        prop_assert_eq!(&all.labels, &oracle::connected_components(&g));
        prop_assert_eq!(&all.labels, &uf_labels);
        prop_assert_eq!(&all.sizes, &uf_sizes);
        prop_assert_eq!(csr.component_count(), uf_sizes.len());
        prop_assert_eq!(traversal::component_count(&g), uf_sizes.len());
        let largest = uf_sizes.iter().copied().max().unwrap_or(0);
        prop_assert_eq!(csr.largest_component_size(), largest);
        prop_assert_eq!(traversal::largest_component_size(&g), largest);
        let first_largest = uf_sizes.iter().position(|&c| c == largest);
        let uf_mask: Vec<bool> = if first_largest.is_some() {
            uf_labels.iter().map(|&l| Some(l as usize) == first_largest).collect()
        } else {
            Vec::new()
        };
        prop_assert_eq!(csr.largest_component_mask(), oracle::largest_component_mask(&g));
        prop_assert_eq!(csr.largest_component_mask(), uf_mask);

        // About a quarter of the nodes dropped.
        let alive: Vec<bool> = (0..n).map(|v| mask_bits[v] != 0).collect();
        let masked = csr.components(Some(&alive));
        let (sub, map) = g.induced_subgraph(&alive);
        let sub_labels = oracle::connected_components(&sub);
        let oracle_labels: Vec<u32> = map
            .iter()
            .map(|m| m.map_or(UNREACHABLE, |s| sub_labels[s.index()]))
            .collect();
        let (uf_labels, uf_sizes) = union_find_components(&g, &alive);
        prop_assert_eq!(&masked.labels, &oracle_labels);
        prop_assert_eq!(&masked.labels, &uf_labels);
        prop_assert_eq!(&masked.sizes, &uf_sizes);
        prop_assert_eq!(
            csr.largest_component_size_masked(&alive),
            uf_sizes.iter().copied().max().unwrap_or(0)
        );
        prop_assert_eq!(
            csr.largest_component_size_masked(&alive),
            traversal::largest_component_size(&sub)
        );
    }

    /// `RootedTree::from_graph` reproduces a random tree — node v > 0
    /// hangs under a drawn earlier node, links inserted in reverse id
    /// order — with its parents, children and depths; one extra link
    /// is `WrongEdgeCount`, and trading a node's uplink for a copy of
    /// another link (still n − 1 links) is `Disconnected`.
    #[test]
    fn rooted_tree_reproduces_random_parent_arrays(
        n in 1usize..40,
        draws in proptest::collection::vec((0usize..1000, 0usize..1000), 40..41),
    ) {
        let parent: Vec<Option<usize>> =
            (0..n).map(|v| (v > 0).then(|| draws[v].0 % v)).collect();
        let link = |v: usize| (v, parent[v].expect("non-root"), ());
        let g: Graph<(), ()> = Graph::from_edges(n, (1..n).rev().map(link).collect::<Vec<_>>());
        let t = RootedTree::from_graph(&g, NodeId(0)).expect("a tree");
        for v in 0..n {
            let id = NodeId(v as u32);
            prop_assert_eq!(t.parent(id), parent[v].map(|p| NodeId(p as u32)));
            let depth = std::iter::successors(parent[v], |&p| parent[p]).count() as u32;
            prop_assert_eq!(t.depth(id), depth, "depth of {}", v);
            let children: Vec<NodeId> = (0..n)
                .filter(|&c| parent[c] == Some(v))
                .map(|c| NodeId(c as u32))
                .collect();
            prop_assert_eq!(t.children(id), &children[..]);
        }
        if n >= 2 {
            let (a, b) = (draws[0].0 % n, draws[0].1 % n);
            let b = if a == b { (b + 1) % n } else { b };
            let mut extra = g.clone();
            extra.add_edge(NodeId(a as u32), NodeId(b as u32), ());
            prop_assert_eq!(
                RootedTree::from_graph(&extra, NodeId(0)).unwrap_err(),
                TreeError::WrongEdgeCount
            );
        }
        if n >= 3 {
            let k = 1 + draws[1].0 % (n - 1);
            let j = 1 + (k + draws[1].1 % (n - 2)) % (n - 1);
            let links = (1..n).filter(|&v| v != k).chain([j]).map(link);
            let cut: Graph<(), ()> = Graph::from_edges(n, links.collect::<Vec<_>>());
            prop_assert_eq!(cut.edge_count(), n - 1);
            prop_assert_eq!(
                RootedTree::from_graph(&cut, NodeId(0)).unwrap_err(),
                TreeError::Disconnected
            );
        }
    }
}

fn two_triangles() -> Graph<(), ()> {
    // {0,1,2} triangle and {3,4,5} triangle, disconnected.
    Graph::from_edges(
        6,
        vec![
            (0, 1, ()),
            (1, 2, ()),
            (0, 2, ()),
            (3, 4, ()),
            (4, 5, ()),
            (3, 5, ()),
        ],
    )
}

#[test]
fn bfs_visits_component_only() {
    let g = two_triangles();
    let order = oracle::bfs_order(&g, NodeId(0));
    assert_eq!(order.len(), 3);
    assert!(order.contains(&NodeId(2)));
    assert!(!order.contains(&NodeId(3)));
}

#[test]
fn bfs_distances_on_path() {
    let g: Graph<(), ()> = Graph::from_edges(4, vec![(0, 1, ()), (1, 2, ()), (2, 3, ())]);
    let d = oracle::bfs_distances(&g, NodeId(0));
    assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3)]);
}

#[test]
fn bfs_unreachable_is_none() {
    let g = two_triangles();
    let d = oracle::bfs_distances(&g, NodeId(0));
    assert_eq!(d[4], None);
    assert_eq!(d[1], Some(1));
}

#[test]
fn bfs_tree_parents_form_shortest_paths() {
    let g: Graph<(), ()> = Graph::from_edges(
        5,
        vec![(0, 1, ()), (0, 2, ()), (1, 3, ()), (2, 3, ()), (3, 4, ())],
    );
    let (dist, parent) = oracle::bfs_tree(&g, NodeId(0));
    assert_eq!(dist[4], Some(3));
    // Walk parents from 4 back to 0 and count hops.
    let mut hops = 0;
    let mut cur = NodeId(4);
    while let Some(p) = parent[cur.index()] {
        cur = p;
        hops += 1;
    }
    assert_eq!(cur, NodeId(0));
    assert_eq!(hops, 3);
}

/// Square with a cheap diagonal.
fn square_diag() -> Graph<(), f64> {
    Graph::from_edges(
        4,
        vec![
            (0, 1, 1.0),
            (1, 2, 1.0),
            (2, 3, 1.0),
            (3, 0, 1.0),
            (0, 2, 0.5),
        ],
    )
}

#[test]
fn matches_infer_map_on_square() {
    let g = square_diag();
    for k in 1..=4 {
        let vantages = strided_vantages(&g, k);
        let classic = infer_map(&g, &vantages, None, |w| *w);
        let batched = batched_map(&g, &vantages, None, 2);
        assert_eq!(classic.node_seen, batched.node_seen, "k = {}", k);
        assert_eq!(classic.edge_seen, batched.edge_seen, "k = {}", k);
        assert_eq!(classic.node_coverage, batched.node_coverage);
        assert_eq!(classic.edge_coverage, batched.edge_coverage);
    }
}

#[test]
fn destination_subsets_restrict_the_map() {
    let g = square_diag();
    let csr = CsrGraph::from_graph(&g);
    let latency: Vec<f64> = g.edge_ids().map(|e| *g.edge_weight(e)).collect();
    let dests = [NodeId(1), NodeId(1), NodeId(0)];
    let result = run_campaign(
        &csr,
        &ProbeCampaign {
            vantages: &[NodeId(0)],
            destinations: Some(&dests),
            link_latency: Some(&latency),
        },
        1,
    );
    let classic = infer_map(&g, &[NodeId(0)], Some(&dests), |w| *w);
    assert_eq!(result.map.node_seen, classic.node_seen);
    assert_eq!(result.map.edge_seen, classic.edge_seen);
    assert_eq!(result.stats.probes_sent, 3);
    assert_eq!(result.stats.probes_completed, 3);
    assert_eq!(result.stats.total_hops, 2); // 1 + 1 + 0
}

/// The CSR Dijkstra tree of `g` from `source`, edge weights as latency.
fn dijkstra_tree(g: &Graph<(), f64>, source: NodeId) -> CsrBfsTree {
    let csr = CsrGraph::from_graph(g);
    let latency: Vec<f64> = g.edge_ids().map(|e| *g.edge_weight(e)).collect();
    let mut tree = CsrBfsTree::sized(g.node_count());
    csr.dijkstra_tree_into(source, &latency, &mut tree);
    tree
}

/// Distances of a Dijkstra tree.
fn latencies(tree: &CsrBfsTree) -> &[f64] {
    tree.latency().expect("a Dijkstra tree has latencies")
}

/// The node sequence of the tree path from the source to `target`, or
/// `None` when unreachable.
fn node_path(tree: &CsrBfsTree, target: NodeId) -> Option<Vec<NodeId>> {
    if tree.dist[target.index()] == UNREACHABLE {
        return None;
    }
    let mut path = vec![target];
    let mut cur = target;
    while let Some((p, _)) = tree.parent(cur) {
        path.push(p);
        cur = p;
    }
    path.reverse();
    Some(path)
}

/// A weighted multigraph on `n` nodes from proptest edge triples
/// (endpoints taken mod `n`, self-loops dropped).
fn random_weighted(n: usize, edges: Vec<(usize, usize, f64)>) -> Graph<(), f64> {
    let mut g: Graph<(), f64> = Graph::new();
    for _ in 0..n {
        g.add_node(());
    }
    for (a, b, w) in edges {
        let (a, b) = (a % n, b % n);
        if a != b {
            g.add_edge(NodeId(a as u32), NodeId(b as u32), w);
        }
    }
    g
}

fn weighted_square() -> Graph<(), f64> {
    // 0-1 (1), 1-2 (1), 0-2 (3), 2-3 (1)
    Graph::from_edges(4, vec![(0, 1, 1.0), (1, 2, 1.0), (0, 2, 3.0), (2, 3, 1.0)])
}

#[test]
fn dijkstra_prefers_two_hop_path() {
    let g = weighted_square();
    let tree = dijkstra_tree(&g, NodeId(0));
    assert_eq!(latencies(&tree), &[0.0, 1.0, 2.0, 3.0]);
    assert_eq!(
        node_path(&tree, NodeId(2)),
        Some(vec![NodeId(0), NodeId(1), NodeId(2)])
    );
}

#[test]
fn dijkstra_unreachable() {
    let g: Graph<(), f64> = Graph::from_edges(3, vec![(0, 1, 1.0)]);
    let tree = dijkstra_tree(&g, NodeId(0));
    assert!(latencies(&tree)[2].is_infinite());
    assert_eq!(node_path(&tree, NodeId(2)), None);
    assert_eq!(tree.edge_path_to(NodeId(2)), None);
}

#[test]
fn edge_path_matches_node_path() {
    let g = weighted_square();
    let tree = dijkstra_tree(&g, NodeId(0));
    let nodes = node_path(&tree, NodeId(3)).unwrap();
    let edges: Vec<EdgeId> = tree.edge_path_to(NodeId(3)).unwrap();
    assert_eq!(edges.len(), nodes.len() - 1);
    // Each edge must connect consecutive path nodes.
    for (i, e) in edges.iter().enumerate() {
        let (a, b) = g.edge_endpoints(*e);
        assert!((a == nodes[i] && b == nodes[i + 1]) || (b == nodes[i] && a == nodes[i + 1]));
    }
}

#[test]
fn path_to_source_is_singleton() {
    let g = weighted_square();
    let tree = dijkstra_tree(&g, NodeId(1));
    assert_eq!(node_path(&tree, NodeId(1)), Some(vec![NodeId(1)]));
    assert_eq!(tree.edge_path_to(NodeId(1)), Some(vec![]));
}

#[test]
fn all_pairs_symmetric() {
    let g = weighted_square();
    let m: Vec<Vec<f64>> = g
        .node_ids()
        .map(|s| latencies(&dijkstra_tree(&g, s)).to_vec())
        .collect();
    assert_eq!(m.len(), 4);
    for (i, row) in m.iter().enumerate() {
        for (j, &latency) in row.iter().enumerate() {
            assert!((latency - m[j][i]).abs() < 1e-12);
        }
    }
}

#[test]
fn zero_weight_edges_ok() {
    let g: Graph<(), f64> = Graph::from_edges(3, vec![(0, 1, 0.0), (1, 2, 0.0)]);
    let tree = dijkstra_tree(&g, NodeId(0));
    assert_eq!(latencies(&tree), &[0.0, 0.0, 0.0]);
}

proptest! {
    /// The CSR Dijkstra agrees with Bellman–Ford on random weighted graphs.
    #[test]
    fn dijkstra_matches_bellman_ford(
        n in 2usize..12,
        edges in proptest::collection::vec((0usize..12, 0usize..12, 0.0f64..10.0), 1..40),
    ) {
        let g = random_weighted(n, edges);
        let tree = dijkstra_tree(&g, NodeId(0));
        let dist = latencies(&tree);
        let bf = bellman_ford(&g, NodeId(0), |_, w| *w);
        for v in 0..n {
            if dist[v].is_infinite() {
                prop_assert!(bf[v].is_infinite());
            } else {
                prop_assert!((dist[v] - bf[v]).abs() < 1e-9,
                    "node {}: dijkstra {} vs bf {}", v, dist[v], bf[v]);
            }
        }
    }

    /// Extracted paths have total weight equal to the reported distance.
    #[test]
    fn path_weight_equals_distance(
        n in 2usize..10,
        edges in proptest::collection::vec((0usize..10, 0usize..10, 0.1f64..5.0), 1..30),
    ) {
        let g = random_weighted(n, edges);
        let tree = dijkstra_tree(&g, NodeId(0));
        for v in 0..n {
            if let Some(es) = tree.edge_path_to(NodeId(v as u32)) {
                let total: f64 = es.iter().map(|e| *g.edge_weight(*e)).sum();
                prop_assert!((total - latencies(&tree)[v]).abs() < 1e-9);
            }
        }
    }
}
