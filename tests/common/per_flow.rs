//! The per-flow references of the batched traffic engine and the
//! cascade: a multi-source BFS tree cache, per-flow path walks over it,
//! and a cascade whose every round re-routes flow by flow. Slow on
//! purpose; the differential suites and the speedup gates compare the
//! library engines against them.

use hotgen::graph::csr::{CsrBfsTree, CsrGraph};
use hotgen::graph::parallel::run_chunks;
use hotgen::graph::NodeId;
use hotgen::sim::cascade::{CascadeConfig, CascadeOutcome, CascadeRound};
use hotgen::sim::demand::{Demand, OdDemand};
use hotgen::sim::traffic::TrafficLoads;

/// A multi-source BFS tree cache: one [`CsrBfsTree`] per requested
/// source, computed once (in parallel, deterministically) and then
/// shared by every per-flow walk from those sources.
///
/// Memory is O(sources × nodes); build forests over the *distinct
/// sources you will actually query*, not over every node of a large
/// graph.
#[derive(Clone, Debug)]
pub struct BfsForest {
    /// `index[v]` = position of `v`'s tree in `trees`, `u32::MAX` when
    /// `v` is not a source.
    index: Vec<u32>,
    trees: Vec<CsrBfsTree>,
}

/// Builds the BFS tree of every source in `sources` on `threads` workers
/// through the fixed-chunk scheduler. Trees are pure functions of
/// `(csr, source)`, so the forest is identical at every thread count.
/// Duplicate sources keep the first tree.
pub fn bfs_forest(csr: &CsrGraph, sources: &[NodeId], threads: usize) -> BfsForest {
    let trees = run_chunks(
        sources.len(),
        threads,
        || (),
        |_, range| range.map(|i| csr.bfs_tree(sources[i])).collect::<Vec<_>>(),
    )
    .into_iter()
    .flat_map(|(_, part)| part)
    .collect();
    let mut index = vec![u32::MAX; csr.node_count()];
    for (i, &s) in sources.iter().enumerate() {
        if index[s.index()] == u32::MAX {
            index[s.index()] = i as u32;
        }
    }
    BfsForest { index, trees }
}

impl BfsForest {
    /// Number of cached trees (one per requested source, duplicates
    /// included).
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the forest holds no trees.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// The `i`-th tree, in the source order the forest was built with.
    pub fn tree(&self, i: usize) -> &CsrBfsTree {
        &self.trees[i]
    }

    /// The tree rooted at `s`, or `None` when `s` was not a source.
    pub fn tree_from(&self, s: NodeId) -> Option<&CsrBfsTree> {
        match self.index.get(s.index()) {
            Some(&i) if i != u32::MAX => Some(&self.trees[i as usize]),
            _ => None,
        }
    }
}

/// The per-flow reference engine: walks every flow's tree path edge by
/// edge over a prebuilt [`BfsForest`]. Semantically
/// `hotgen::sim::failure::route_demands` over a prebuilt tree cache.
/// Flows whose source has no tree in the forest — or whose endpoints
/// lie outside the graph — count as unrouted.
pub fn naive_link_load(csr: &CsrGraph, forest: &BfsForest, flows: &[Demand]) -> TrafficLoads {
    let n = csr.node_count();
    let mut out = TrafficLoads {
        link_load: vec![0.0; csr.edge_count()],
        routed_flows: 0,
        unrouted_flows: 0,
        routed_traffic: 0.0,
        unrouted_traffic: 0.0,
        traffic_hops: 0.0,
    };
    for f in flows {
        let path = if f.dst.index() < n {
            forest
                .tree_from(f.src)
                .and_then(|tree| tree.edge_path_to(f.dst))
        } else {
            None
        };
        match path {
            Some(path) => {
                for e in &path {
                    out.link_load[e.index()] += f.amount;
                }
                out.routed_flows += 1;
                out.routed_traffic += f.amount;
                out.traffic_hops += f.amount * path.len() as f64;
            }
            None => {
                out.unrouted_flows += 1;
                out.unrouted_traffic += f.amount;
            }
        }
    }
    out
}

/// The per-flow, per-round reference of `hotgen::sim::cascade::cascade`:
/// every round materializes the same flows, rebuilds a BFS forest on
/// the masked view, and walks each flow's tree path edge by edge
/// ([`naive_link_load`]). The round loop is its own copy of the
/// library's, so the two share no code beyond the CSR kernels. With
/// integer demands the two agree exactly, round by round.
pub fn cascade_naive(
    csr: &CsrGraph,
    demand: &dyn OdDemand,
    capacities: &[f64],
    cfg: &CascadeConfig,
) -> CascadeOutcome {
    assert_eq!(capacities.len(), csr.edge_count(), "one capacity per link");
    assert_eq!(demand.node_count(), csr.node_count(), "demand size");
    // Gather the offered flows once; the demand does not change between
    // rounds, only the surviving topology does.
    let n = csr.node_count();
    let mut flows: Vec<Demand> = Vec::new();
    let mut sources: Vec<NodeId> = Vec::new();
    let mut row: Vec<(u32, f64)> = Vec::new();
    for s in 0..n {
        row.clear();
        demand.gather_row(s, &mut row);
        let before = flows.len();
        for &(dst, amount) in &row {
            // The batched engine never routes self-demand.
            if dst as usize != s {
                flows.push(Demand {
                    src: NodeId(s as u32),
                    dst: NodeId(dst),
                    amount,
                });
            }
        }
        if flows.len() > before {
            sources.push(NodeId(s as u32));
        }
    }
    let m = csr.edge_count();
    let mut alive = vec![true; m];
    let mut rounds: Vec<CascadeRound> = Vec::new();
    let mut failed_total = 0usize;
    let mut converged = false;
    loop {
        let (mcsr, map) = csr.edge_masked(&alive);
        let forest = bfs_forest(&mcsr, &sources, 1);
        let loads = naive_link_load(&mcsr, &forest, &flows);
        let mut max_util = 0.0f64;
        let mut failed = 0usize;
        for (new, old) in map.iter().enumerate() {
            let util = loads.link_load[new] / capacities[old.index()];
            max_util = max_util.max(util);
            if util > cfg.threshold {
                alive[old.index()] = false;
                failed += 1;
            }
        }
        failed_total += failed;
        let surviving_capacity: f64 = alive
            .iter()
            .zip(capacities)
            .filter(|&(&a, _)| a)
            .map(|(_, &c)| c)
            .sum();
        rounds.push(CascadeRound {
            round: rounds.len(),
            failed,
            failed_total,
            max_util,
            routed_traffic: loads.routed_traffic,
            stranded_traffic: loads.unrouted_traffic,
            surviving_capacity,
        });
        if failed == 0 {
            converged = true;
            break;
        }
        if rounds.len() >= cfg.max_rounds {
            break;
        }
    }
    CascadeOutcome {
        rounds,
        alive,
        converged,
    }
}
