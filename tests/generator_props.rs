//! Property tests (vendored proptest) for generator invariants.
//!
//! The scenario engine leans on structural guarantees the generators
//! are supposed to keep across *all* parameters and seeds, not just the
//! golden ones: FKP grows spanning trees, the degree-based / structural
//! baselines emit simple graphs (no self-loops, no parallel edges), and
//! the demand-matrix generators behind the traffic engine conserve
//! traffic, stay symmetric with a zero diagonal, and regenerate
//! byte-identically from a fixed seed. These lock those invariants down.
//!
//! The path-sampling kernels are checked against the slow references in
//! `tests/common`: the CSR Dijkstra against the `Graph` Dijkstra and
//! Bellman–Ford, and the probe engine against the per-vantage
//! traceroute reference.

mod common;

use common::shortest_path::{bellman_ford, dijkstra};
use common::traceroute::infer_map;
use hotgen::baselines::{ba, glp, waxman};
use hotgen::core::fkp::{self, FkpConfig};
use hotgen::graph::csr::{CsrBfsTree, CsrGraph, UNREACHABLE};
use hotgen::graph::traversal::is_connected;
use hotgen::graph::tree::is_tree;
use hotgen::graph::{EdgeId, Graph, NodeId};
use hotgen::sim::demand::{DemandConfig, DemandMatrix, DemandModel, OdDemand};
use hotgen::sim::probe::{infer_map_batched, run_campaign, ProbeCampaign};
use hotgen::sim::traceroute::strided_vantages;
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
        p in 0.05f64..0.95,
        beta in -1.0f64..0.9,
        seed in 0u64..1_000_000,
    ) {
        let g = glp::generate(
            &glp::GlpConfig { n, m: 2, p, beta },
            &mut StdRng::seed_from_u64(seed),
        );
        let (self_loops, duplicates) = simplicity(&g);
        prop_assert_eq!(self_loops, 0, "n = {}, p = {}, beta = {}, seed = {}", n, p, beta, seed);
        prop_assert_eq!(duplicates, 0, "n = {}, p = {}, beta = {}, seed = {}", n, p, beta, seed);
    }

    #[test]
    fn waxman_outputs_are_simple_graphs(
        n in 5usize..150,
        alpha in 0.05f64..1.0,
        beta in 0.05f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        let g = waxman::generate(
            &waxman::WaxmanConfig { n, alpha, beta, ..waxman::WaxmanConfig::default() },
            &mut StdRng::seed_from_u64(seed),
        );
        prop_assert_eq!(g.node_count(), n);
        let (self_loops, duplicates) = simplicity(&g);
        prop_assert_eq!(self_loops, 0, "n = {}, seed = {}", n, seed);
        prop_assert_eq!(duplicates, 0, "n = {}, seed = {}", n, seed);
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
            let dm = DemandMatrix::build(&csr, None, &DemandConfig {
                model,
                total_traffic: total,
                mass_jitter: jitter as f64 * 0.4,
                seed,
                ..DemandConfig::default()
            });
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
            let dm = DemandMatrix::build(&csr, None, &DemandConfig {
                model,
                mass_jitter: jitter as f64 * 0.4,
                seed,
                ..DemandConfig::default()
            });
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

    /// Determinism: a fixed seed regenerates the matrix byte-for-byte;
    /// with jitter enabled, a different seed produces different masses.
    #[test]
    fn demand_matrices_are_seed_deterministic(
        n in 2usize..20,
        pairs in proptest::collection::vec((0usize..20, 0usize..20), 1..40),
        seed in 0u64..1_000_000,
    ) {
        let csr = demand_fixture(n, &pairs);
        for model in demand_models() {
            let cfg = DemandConfig {
                model,
                mass_jitter: 0.4,
                seed,
                ..DemandConfig::default()
            };
            let a = DemandMatrix::build(&csr, None, &cfg);
            let b = DemandMatrix::build(&csr, None, &cfg);
            for i in 0..n {
                for j in 0..n {
                    prop_assert_eq!(a.demand(i, j).to_bits(), b.demand(i, j).to_bits());
                }
            }
            let c = DemandMatrix::build(&csr, None, &DemandConfig {
                seed: seed.wrapping_add(1),
                ..cfg
            });
            // Masses differ somewhere whenever any node has positive mass
            // (jitter redraws per node).
            if (0..n).any(|v| a.mass(v) > 0.0) {
                prop_assert!(
                    (0..n).any(|v| a.mass(v).to_bits() != c.mass(v).to_bits()),
                    "seed change left every mass identical ({:?})", model
                );
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
        let cfg = TeConfig { max_rounds: 5, ..TeConfig::default() };
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
        let batched = infer_map_batched(&g, &vantages, destinations, |&w| w, threads).map;
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
        let batched = infer_map_batched(&g, &vantages, Some(&dests), |&w| w, threads).map;
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
        let batched = infer_map_batched(&g, &vantages, None, |w| *w, 2);
        assert_eq!(classic.node_seen, batched.map.node_seen, "k = {}", k);
        assert_eq!(classic.edge_seen, batched.map.edge_seen, "k = {}", k);
        assert_eq!(classic.node_coverage, batched.map.node_coverage);
        assert_eq!(classic.edge_coverage, batched.map.edge_coverage);
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
    for i in 0..4 {
        for j in 0..4 {
            assert!((m[i][j] - m[j][i]).abs() < 1e-12);
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

/// A growth-only mutation schedule for the epoch-API properties: per
/// epoch, a few arrivals (each wired to an existing node) plus a few
/// reinforcement edges between existing nodes, all derived from the
/// proptest-drawn pair list.
fn run_epoch_schedule(
    seed_nodes: usize,
    epochs: &[Vec<(usize, usize)>],
    mut per_epoch: impl FnMut(&mut hotgen::graph::epoch::EpochGraph<(), ()>),
) {
    use hotgen::graph::epoch::EpochGraph;
    let mut seed: Graph<(), ()> = Graph::new();
    for _ in 0..seed_nodes {
        seed.add_node(());
    }
    for i in 1..seed_nodes {
        seed.add_edge(NodeId((i - 1) as u32), NodeId(i as u32), ());
    }
    let mut g = EpochGraph::new(seed);
    for ops in epochs {
        for &(a, b) in ops {
            if a % 3 == 0 {
                // An arrival: new node wired to an existing one.
                let t = NodeId((b % g.node_count()) as u32);
                let v = g.add_node(());
                g.add_edge(t, v, ());
            } else {
                // Reinforcement between existing nodes.
                let x = NodeId((a % g.node_count()) as u32);
                let y = NodeId((b % g.node_count()) as u32);
                if x != y {
                    g.add_edge(x, y, ());
                }
            }
        }
        g.commit();
        per_epoch(&mut g);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Growth-only schedules only grow: committed node/edge counts are
    /// monotone non-decreasing, the epoch counter ticks once per
    /// commit, and the committed view always matches a from-scratch
    /// rebuild of the live graph.
    #[test]
    fn epoch_counts_are_monotone_under_growth(
        seed_nodes in 2usize..12,
        epochs in proptest::collection::vec(
            proptest::collection::vec((0usize..64, 0usize..64), 0..12),
            1..8,
        ),
    ) {
        let mut prev = (0usize, 0usize, 0u64);
        let mut first = true;
        run_epoch_schedule(seed_nodes, &epochs, |g| {
            assert!(!g.is_dirty(), "commit clears the dirty set");
            let now = (g.committed_node_count(), g.committed_edge_count(), g.epoch());
            assert_eq!(now.0, g.node_count());
            assert_eq!(now.1, g.edge_count());
            if !first {
                assert!(now.0 >= prev.0, "node count shrank");
                assert!(now.1 >= prev.1, "edge count shrank");
                assert_eq!(now.2, prev.2 + 1, "epoch must tick once per commit");
            }
            assert_eq!(g.csr(), &CsrGraph::from_graph(g.graph()));
            first = false;
            prev = now;
        });
    }

    /// The live union-find agrees with BFS reachability after every
    /// epoch: same component count, and `connected(a, b)` answers
    /// exactly like component labels from a BFS sweep.
    #[test]
    fn epoch_connectivity_matches_bfs_reachability(
        seed_nodes in 2usize..12,
        epochs in proptest::collection::vec(
            proptest::collection::vec((0usize..64, 0usize..64), 0..12),
            1..8,
        ),
    ) {
        use hotgen::graph::traversal::connected_components;
        run_epoch_schedule(seed_nodes, &epochs, |g| {
            let labels = connected_components(g.graph());
            let bfs_comps = labels.iter().collect::<std::collections::HashSet<_>>().len();
            assert_eq!(g.components(), bfs_comps, "union-find vs BFS component count");
            let n = g.node_count();
            for a in (0..n).step_by(3) {
                for b in (0..n).step_by(5) {
                    assert_eq!(
                        g.connected(NodeId(a as u32), NodeId(b as u32)),
                        labels[a] == labels[b],
                        "connected({}, {}) disagrees with BFS", a, b
                    );
                }
            }
        });
    }

    /// Mid-evolution state survives a binary snapshot round-trip: at
    /// every epoch, the committed CSR serialized through
    /// `Snapshot::to_bytes`/`from_bytes` (with a node column carrying
    /// the epoch stamp) comes back bit-identical — so an evolution can
    /// be checkpointed and resumed from disk at any epoch boundary.
    #[test]
    fn epoch_state_roundtrips_through_snapshots(
        seed_nodes in 2usize..10,
        epochs in proptest::collection::vec(
            proptest::collection::vec((0usize..64, 0usize..64), 0..10),
            1..6,
        ),
    ) {
        use hotgen::graph::io::Snapshot;
        run_epoch_schedule(seed_nodes, &epochs, |g| {
            let mut snap = Snapshot::new(g.csr().clone());
            snap.node_u32.push((
                "epoch".to_string(),
                vec![g.epoch() as u32; g.node_count()],
            ));
            let restored = Snapshot::from_bytes(&snap.to_bytes())
                .expect("round-trip of a freshly written snapshot");
            assert_eq!(&restored, &snap, "snapshot round-trip must be lossless");
            assert_eq!(&restored.csr, g.csr());
        });
    }
}
