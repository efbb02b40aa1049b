//! Equivalence suite for the CSR analytics kernels: every kernel must
//! match its own 1-thread run **bit-for-bit** at every thread count from
//! 1 to 8, on structured graphs (path, star, grid), seeded generated
//! topologies (FKP, Waxman, GLP), and the degenerate empty /
//! single-node graphs.
//!
//! The kernels guarantee this by construction — sources are split into
//! chunks whose boundaries ignore the thread count, and partials are
//! reduced in chunk order — so a failure here means that invariant
//! broke, not that floating point drifted.
//!
//! Betweenness is also checked against the `brandes` oracle below, the
//! node-only forward sweep Brandes ran on before it moved onto the
//! shared shortest-path DAG of `CsrGraph::path_dag_into`.

use hotgen::baselines::{glp, waxman};
use hotgen::graph::csr::CsrGraph;
use hotgen::graph::parallel::{par_betweenness, par_betweenness_sampled, par_path_summary};
use hotgen::graph::{Graph, NodeId};
use hotgen::metrics::robustness::{degradation_curve, RemovalPolicy};
use hotgen::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The reference Brandes kernel: its own FIFO forward sweep with flat
/// node-only predecessor slots, a dependency pass that resets its
/// scratch before each source, and a pivot loop chunked through
/// `run_chunks` like the library's.
mod brandes {
    use hotgen::graph::csr::{CsrGraph, UNREACHABLE};
    use hotgen::graph::parallel::run_chunks;
    use hotgen::graph::NodeId;

    /// Reusable scratch state for the flat-array Brandes kernel: sized
    /// once per (thread, graph), O(n + m) total, never grown afterwards.
    struct BrandesScratch {
        /// Number of shortest paths from the current source.
        sigma: Vec<f64>,
        /// Hop distance from the current source ([`UNREACHABLE`] sentinel).
        dist: Vec<u32>,
        /// Brandes dependency accumulator.
        delta: Vec<f64>,
        /// Flat predecessor storage: node `v`'s predecessors live at
        /// `offsets[v] .. offsets[v] + pred_len[v]`. Capacity is exactly
        /// the adjacency size — predecessors are a subset of incident
        /// edges — so this never reallocates.
        preds: Vec<u32>,
        pred_len: Vec<u32>,
        /// BFS queue; after the BFS it *is* the visit order, replayed in
        /// reverse for the dependency pass.
        order: Vec<u32>,
    }

    impl BrandesScratch {
        fn new(csr: &CsrGraph) -> Self {
            let n = csr.node_count();
            BrandesScratch {
                sigma: vec![0.0; n],
                dist: vec![UNREACHABLE; n],
                delta: vec![0.0; n],
                preds: vec![0; csr.targets().len()],
                pred_len: vec![0; n],
                order: Vec::with_capacity(n),
            }
        }

        /// Runs one Brandes source and adds every node's dependency into
        /// `acc` (endpoints excluded).
        fn accumulate_source(&mut self, csr: &CsrGraph, s: NodeId, acc: &mut [f64]) {
            let offsets = csr.offsets();
            // Reset only what the previous source touched.
            for &v in &self.order {
                let v = v as usize;
                self.sigma[v] = 0.0;
                self.dist[v] = UNREACHABLE;
                self.delta[v] = 0.0;
                self.pred_len[v] = 0;
            }
            self.order.clear();
            self.sigma[s.index()] = 1.0;
            self.dist[s.index()] = 0;
            self.order.push(s.0);
            let mut head = 0;
            while head < self.order.len() {
                let v = self.order[head] as usize;
                head += 1;
                let next = self.dist[v] + 1;
                for &u in csr.neighbors(NodeId(v as u32)) {
                    let u = u.index();
                    if self.dist[u] == UNREACHABLE {
                        self.dist[u] = next;
                        self.order.push(u as u32);
                    }
                    if self.dist[u] == next {
                        self.sigma[u] += self.sigma[v];
                        self.preds[offsets[u] as usize + self.pred_len[u] as usize] = v as u32;
                        self.pred_len[u] += 1;
                    }
                }
            }
            for i in (0..self.order.len()).rev() {
                let w = self.order[i] as usize;
                let coeff = (1.0 + self.delta[w]) / self.sigma[w];
                for j in 0..self.pred_len[w] as usize {
                    let v = self.preds[offsets[w] as usize + j] as usize;
                    self.delta[v] += self.sigma[v] * coeff;
                }
                if w != s.index() {
                    acc[w] += self.delta[w];
                }
            }
        }
    }

    /// Betweenness from `pivots`, scaled by `n / (2k)`: chunk partials
    /// reduced in chunk order, as in `par_betweenness_sampled`.
    pub fn betweenness(csr: &CsrGraph, pivots: &[NodeId], threads: usize) -> Vec<f64> {
        let n = csr.node_count();
        if n == 0 || pivots.is_empty() {
            return vec![0.0; n];
        }
        let partials = run_chunks(
            pivots.len(),
            threads,
            || BrandesScratch::new(csr),
            |scratch, range| {
                let mut partial = vec![0.0f64; n];
                for &p in &pivots[range] {
                    scratch.accumulate_source(csr, p, &mut partial);
                }
                partial
            },
        );
        let mut centrality = vec![0.0f64; n];
        for (_, partial) in partials {
            for (c, p) in centrality.iter_mut().zip(partial) {
                *c += p;
            }
        }
        let scale = n as f64 / (2.0 * pivots.len() as f64);
        for c in &mut centrality {
            *c *= scale;
        }
        centrality
    }
}

/// The fixture set: name plus an unannotated copy of each topology.
fn fixtures() -> Vec<(&'static str, Graph<(), ()>)> {
    let path: Graph<(), ()> =
        Graph::from_edges(64, (0..63).map(|i| (i, i + 1, ())).collect::<Vec<_>>());
    let star: Graph<(), ()> =
        Graph::from_edges(64, (1..64).map(|i| (0, i, ())).collect::<Vec<_>>());
    let mut grid: Graph<(), ()> = Graph::new();
    let (w, h) = (12, 12);
    for _ in 0..w * h {
        grid.add_node(());
    }
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                grid.add_edge(
                    NodeId((y * w + x) as u32),
                    NodeId((y * w + x + 1) as u32),
                    (),
                );
            }
            if y + 1 < h {
                grid.add_edge(
                    NodeId((y * w + x) as u32),
                    NodeId(((y + 1) * w + x) as u32),
                    (),
                );
            }
        }
    }
    let fkp = fkp::grow(
        &FkpConfig {
            n: 400,
            alpha: 10.0,
            ..FkpConfig::default()
        },
        &mut StdRng::seed_from_u64(1),
    )
    .to_graph()
    .map(|_, _| (), |_, _| ());
    let wax = waxman::generate(
        &waxman::WaxmanConfig {
            n: 300,
            ..waxman::WaxmanConfig::default()
        },
        &mut StdRng::seed_from_u64(2),
    )
    .map(|_, _| (), |_, _| ());
    let glp_graph = glp::generate(&glp::GlpConfig { n: 400 }, &mut StdRng::seed_from_u64(3));
    let empty: Graph<(), ()> = Graph::new();
    let mut single: Graph<(), ()> = Graph::new();
    single.add_node(());
    vec![
        ("path64", path),
        ("star64", star),
        ("grid12x12", grid),
        ("fkp400", fkp),
        ("waxman300", wax),
        ("glp400", glp_graph),
        ("empty", empty),
        ("single", single),
    ]
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn par_betweenness_matches_serial_bit_for_bit() {
    for (name, g) in fixtures() {
        let csr = CsrGraph::from_graph(&g);
        let serial = par_betweenness(&csr, 1);
        for threads in 2..=8 {
            let par = par_betweenness(&csr, threads);
            assert_eq!(
                bits(&serial),
                bits(&par),
                "betweenness diverged on {} at {} threads",
                name,
                threads
            );
        }
    }
}

/// A test multigraph on `n` nodes. `shape` picks the skeleton: 0 random
/// edges in one class, 1 a star and 2 a path over the first `span`
/// nodes, 3 random edges kept only inside `2 + span % 3` residue-class
/// components. Each pick `(a, b, k)` adds `k` parallel copies of its
/// edge, alternating the orientation `(a, b)`, `(b, a)`; nodes no edge
/// reaches stay isolated.
fn multigraph(
    n: usize,
    shape: usize,
    span: usize,
    picks: &[(usize, usize, usize)],
) -> Graph<(), ()> {
    let mut edges = Vec::new();
    let mut push = |a: usize, b: usize, times: usize| {
        for copy in 0..times {
            edges.push(if copy % 2 == 0 {
                (a, b, ())
            } else {
                (b, a, ())
            });
        }
    };
    let times = |i: usize| picks.get(i).map_or(1, |p| p.2);
    let span = span.min(n);
    match shape {
        1 => (1..span).for_each(|i| push(0, i, times(i))),
        2 => (1..span).for_each(|i| push(i - 1, i, times(i))),
        _ if n > 0 => {
            let comps = if shape == 3 { 2 + span % 3 } else { 1 };
            for &(a, b, k) in picks {
                let (a, b) = (a % n, b % n);
                if a != b && a % comps == b % comps {
                    push(a, b, k);
                }
            }
        }
        _ => {}
    }
    Graph::from_edges(n, edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Exact and sampled betweenness on the shared path-DAG sweep equal
    /// the node-only oracle by `to_bits()`: pivots all nodes in id
    /// order, a random list in random order with repeats (long enough
    /// to put several pivots in one chunk), or none; 1 to 4 threads.
    #[test]
    fn betweenness_matches_node_only_oracle_bit_for_bit(
        n in 0usize..41,
        shape in 0usize..4,
        span in 0usize..41,
        picks in proptest::collection::vec((0usize..40, 0usize..40, 1usize..4), 0..72),
        pivot_picks in proptest::collection::vec(0usize..40, 0..160),
        threads in 1usize..5,
    ) {
        let csr = CsrGraph::from_graph(&multigraph(n, shape, span, &picks));
        let all: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        prop_assert_eq!(
            bits(&par_betweenness(&csr, threads)),
            bits(&brandes::betweenness(&csr, &all, threads)),
            "exact: n = {}, shape = {}, threads = {}", n, shape, threads
        );
        let pivots: Vec<NodeId> = if n == 0 {
            Vec::new()
        } else {
            pivot_picks.iter().map(|&p| NodeId((p % n) as u32)).collect()
        };
        for list in [&all[..], &pivots[..], &[]] {
            prop_assert_eq!(
                bits(&par_betweenness_sampled(&csr, list, threads)),
                bits(&brandes::betweenness(&csr, list, threads)),
                "sampled: n = {}, shape = {}, {} pivots, threads = {}",
                n, shape, list.len(), threads
            );
        }
    }
}

#[test]
fn par_path_summary_matches_serial_at_all_thread_counts() {
    for (name, g) in fixtures() {
        let csr = CsrGraph::from_graph(&g);
        let sources: Vec<NodeId> = g.node_ids().collect();
        let serial = par_path_summary(&csr, &sources, 1);
        for threads in 2..=8 {
            let par = par_path_summary(&csr, &sources, threads);
            assert_eq!(
                serial, par,
                "path summary diverged on {} at {} threads",
                name, threads
            );
        }
    }
}

#[test]
fn parallel_degradation_curve_matches_serial() {
    let fractions = [0.0, 0.02, 0.05, 0.1, 0.25, 0.5];
    for (name, g) in fixtures() {
        for policy in [RemovalPolicy::RandomFailure, RemovalPolicy::DegreeAttack] {
            let serial =
                degradation_curve(&g, policy, &fractions, &mut StdRng::seed_from_u64(9), 1);
            for threads in 2..=8 {
                let par = degradation_curve(
                    &g,
                    policy,
                    &fractions,
                    &mut StdRng::seed_from_u64(9),
                    threads,
                );
                assert_eq!(serial.len(), par.len());
                for (a, b) in serial.iter().zip(&par) {
                    assert_eq!(
                        (a.removed_fraction.to_bits(), a.giant_fraction.to_bits()),
                        (b.removed_fraction.to_bits(), b.giant_fraction.to_bits()),
                        "degradation diverged on {} ({:?}) at {} threads",
                        name,
                        policy,
                        threads
                    );
                }
            }
        }
    }
}
