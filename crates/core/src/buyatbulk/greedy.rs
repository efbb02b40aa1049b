//! Local-search improvement and classic baselines for buy-at-bulk.
//!
//! - [`improve`]: best-improvement reparenting local search. A move
//!   detaches a customer's subtree and re-hangs it under a different node;
//!   the cost delta is evaluated exactly (flows change only on the two
//!   root paths below the LCA). Each link cost a scan needs is priced
//!   once, so a candidate costs one new link plus O(depth) additions of
//!   cached terms.
//! - [`star`]: the direct-connection baseline (every customer straight to
//!   the sink) — what an ISP with no aggregation would build.
//! - [`mst_route`]: build the Euclidean MST over sink + customers, then
//!   route and provision on it — the classic "minimize fiber, ignore
//!   flow-dependent cost" baseline from the MCST access-design family.
//!
//! Experiment E4 compares all of these (plus MMP and the exact optimum)
//! on matched instances.

use super::problem::{AccessNetwork, Instance};
use hot_graph::graph::{Graph, NodeId};
use hot_graph::mst::kruskal;
use hot_graph::tree::RootedTree;

/// The direct star baseline.
pub fn star(instance: &Instance) -> AccessNetwork {
    AccessNetwork::star(instance.n_customers())
}

/// MST-then-route baseline: Euclidean minimum spanning tree over
/// sink ∪ customers, rooted at the sink, provisioned by aggregate flow.
pub fn mst_route(instance: &Instance) -> AccessNetwork {
    let m = instance.n_customers() + 1;
    let mut g: Graph<(), f64> = Graph::with_capacity(m, m * (m - 1) / 2);
    for _ in 0..m {
        g.add_node(());
    }
    for a in 0..m {
        for b in a + 1..m {
            let d = instance.node_point(a).dist(&instance.node_point(b));
            g.add_edge(NodeId(a as u32), NodeId(b as u32), d);
        }
    }
    let forest = kruskal(&g, |w| *w);
    let tree_graph = {
        let mut keep = vec![false; g.edge_count()];
        for e in &forest.edges {
            keep[e.index()] = true;
        }
        g.edge_subgraph(&keep)
    };
    let tree = RootedTree::from_graph(&tree_graph, NodeId(0)).expect("MST spans the nodes");
    let mut parents = vec![0usize; m];
    for (v, p) in parents.iter_mut().enumerate().skip(1) {
        *p = tree.parent(NodeId(v as u32)).expect("non-root").index();
    }
    AccessNetwork::from_parents(&parents)
}

/// Result of a local-search run.
#[derive(Clone, Debug)]
pub struct ImproveOutcome {
    /// The improved solution.
    pub solution: AccessNetwork,
    /// Cost before the search.
    pub initial_cost: f64,
    /// Cost after the search.
    pub final_cost: f64,
    /// Number of applied moves.
    pub moves: usize,
}

/// Best-improvement reparenting local search from `start`.
///
/// Stops at a local optimum or after `max_moves` applied moves. Each scan
/// (one per applied move, plus the last that finds none) tries all
/// (n+1)² (v, u) pairs: it prices O(n²) link costs, tests subtree
/// membership in O(1), and adds cached cost terms along both paths to the
/// LCA, O(n² · depth) additions in all.
pub fn improve(instance: &Instance, start: &AccessNetwork, max_moves: usize) -> ImproveOutcome {
    let n = instance.n_customers();
    let m = n + 1;
    let initial_cost = start.total_cost(instance);
    // Mutable tree state as a parent array.
    let mut parent = vec![0usize; m];
    for (v, p) in parent.iter_mut().enumerate().skip(1) {
        *p = start
            .tree
            .parent(NodeId(v as u32))
            .expect("non-root")
            .index();
    }
    // Uplink flows per node (index 0 = total demand, unused).
    let mut flow = {
        let f = start.uplink_flows(instance);
        debug_assert_eq!(f.len(), m);
        f
    };
    let mut scan = Scan::new(m);
    let mut moves = 0;
    while moves < max_moves {
        scan.refresh(instance, &parent, &flow);
        let Some((v, u)) = scan.best_move(instance, &parent, &flow) else {
            break;
        };
        // Apply: update flows along the two root paths below the LCA.
        let moved = flow[v];
        apply_flow_update(&mut flow, &parent, parent[v], moved, -1.0);
        apply_flow_update(&mut flow, &parent, u, moved, 1.0);
        parent[v] = u;
        moves += 1;
    }
    // The final cost is re-summed from the tree rather than accumulated
    // from the deltas: an incrementally updated flow can sit one ulp away
    // from its re-summed value, and at a cable-capacity breakpoint that
    // moves the link's cost by a whole fixed charge.
    let solution = AccessNetwork::from_parents(&parent);
    ImproveOutcome {
        final_cost: solution.total_cost(instance),
        solution,
        initial_cost,
        moves,
    }
}

/// Convenience: MMP then local search.
pub fn mmp_plus_improve(
    instance: &Instance,
    rng: &mut impl rand::Rng,
    max_moves: usize,
) -> ImproveOutcome {
    let start = super::mmp::solve(instance, rng);
    improve(instance, &start, max_moves)
}

/// End of a child or sibling list in [`Scan`].
const NONE: usize = usize::MAX;

/// The buffers of one candidate scan, sized to the solution's node count
/// once per [`improve`] call and refreshed after every applied move.
///
/// Reparenting `v` (carrying flow `x`) from `old_p` to `u` replaces the
/// link `(v, old_p)` by `(v, u)`, lowers the flow by `x` on the path
/// `old_p → LCA` and raises it by `x` on `u → LCA`, where LCA is the
/// lowest common ancestor of `old_p` and `u`; above the LCA the net
/// change is zero. Every uplink's cost change under either shift is
/// cached per `v`, so the climb to the LCA only adds.
struct Scan {
    /// The tree as first-child / next-sibling lists ([`NONE`]-terminated).
    first_child: Vec<usize>,
    next_sibling: Vec<usize>,
    depth: Vec<u32>,
    /// Preorder index and subtree size: `u` lies in `v`'s subtree iff
    /// `pre[v] <= pre[u] < pre[v] + size[v]`.
    pre: Vec<u32>,
    size: Vec<u32>,
    /// Uplink length `(b, parent[b])` and its cost at the current flow.
    len: Vec<f64>,
    cur: Vec<f64>,
    /// For the `v` being moved: the cost change of `b`'s uplink when it
    /// sheds `v`'s flow (set on `old_p`'s root path) or takes it on (set
    /// outside `v`'s subtree).
    loss: Vec<f64>,
    gain: Vec<f64>,
}

impl Scan {
    fn new(m: usize) -> Self {
        Scan {
            first_child: vec![NONE; m],
            next_sibling: vec![NONE; m],
            depth: vec![0; m],
            pre: vec![0; m],
            size: vec![0; m],
            len: vec![0.0; m],
            cur: vec![0.0; m],
            loss: vec![0.0; m],
            gain: vec![0.0; m],
        }
    }

    /// Recomputes the tree indexes and uplink costs for `parent` and
    /// `flow` in one O(m) pass.
    fn refresh(&mut self, instance: &Instance, parent: &[usize], flow: &[f64]) {
        self.first_child.fill(NONE);
        for v in (1..parent.len()).rev() {
            let p = parent[v];
            self.next_sibling[v] = self.first_child[p];
            self.first_child[p] = v;
            self.len[v] = instance.node_point(v).dist(&instance.node_point(p));
            self.cur[v] = instance.cost.cost(self.len[v], flow[v]);
        }
        // Preorder walk without a stack: descend to the first child, or
        // close finished subtrees upward until a next sibling remains.
        let mut t = 0u32;
        let mut v = 0;
        self.depth[0] = 0;
        loop {
            self.pre[v] = t;
            t += 1;
            let c = self.first_child[v];
            if c != NONE {
                self.depth[c] = self.depth[v] + 1;
                v = c;
                continue;
            }
            loop {
                self.size[v] = t - self.pre[v];
                if v == 0 {
                    return;
                }
                let s = self.next_sibling[v];
                if s != NONE {
                    self.depth[s] = self.depth[v];
                    v = s;
                    break;
                }
                v = parent[v];
            }
        }
    }

    /// The first strictly best improving move in (v, u) order, as
    /// `(v, new parent)`.
    fn best_move(
        &mut self,
        instance: &Instance,
        parent: &[usize],
        flow: &[f64],
    ) -> Option<(usize, usize)> {
        let m = parent.len();
        let cost = &instance.cost;
        let mut best: Option<(usize, usize, f64)> = None;
        for v in 1..m {
            let old_p = parent[v];
            let moved = flow[v];
            let priced = cost.price(moved);
            let base_old = priced.at(self.len[v]);
            let mut a = old_p;
            while a != 0 {
                self.loss[a] = cost.cost(self.len[a], flow[a] - moved) - self.cur[a];
                a = parent[a];
            }
            let subtree = self.pre[v]..self.pre[v] + self.size[v];
            for (b, &f) in flow.iter().enumerate().skip(1) {
                if !subtree.contains(&self.pre[b]) {
                    self.gain[b] = cost.cost(self.len[b], f + moved) - self.cur[b];
                }
            }
            let (depth, loss, gain) = (&self.depth, &self.loss, &self.gain);
            let point = instance.node_point(v);
            for u in 0..m {
                if u == v || u == old_p || subtree.contains(&self.pre[u]) {
                    continue;
                }
                let mut delta = priced.at(point.dist(&instance.node_point(u))) - base_old;
                // Climb both paths to their LCA.
                let (mut a, mut b) = (old_p, u);
                while depth[a] > depth[b] {
                    delta += loss[a];
                    a = parent[a];
                }
                while depth[b] > depth[a] {
                    delta += gain[b];
                    b = parent[b];
                }
                while a != b {
                    delta += loss[a];
                    a = parent[a];
                    delta += gain[b];
                    b = parent[b];
                }
                if delta < -1e-9 && best.is_none_or(|(_, _, d)| delta < d) {
                    best = Some((v, u, delta));
                }
            }
        }
        best.map(|(v, u, _)| (v, u))
    }
}

/// Adds `sign × amount` to the uplink flows on the path `from → root`.
fn apply_flow_update(flow: &mut [f64], parent: &[usize], from: usize, amount: f64, sign: f64) {
    let mut cur = from;
    while cur != 0 {
        flow[cur] += sign * amount;
        cur = parent[cur];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buyatbulk::problem::Customer;
    use hot_econ::cable::CableCatalog;
    use hot_econ::cost::LinkCost;
    use hot_geo::point::Point;
    use hot_graph::tree::is_tree;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cost() -> LinkCost {
        LinkCost::cables_only(CableCatalog::realistic_2003())
    }

    fn random_instance(n: usize, seed: u64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        Instance::random_uniform(n, 20.0, cost(), &mut rng)
    }

    #[test]
    fn star_and_mst_are_trees() {
        let inst = random_instance(25, 1);
        assert!(is_tree(&star(&inst).to_graph(&inst)));
        assert!(is_tree(&mst_route(&inst).to_graph(&inst)));
    }

    #[test]
    fn mst_route_minimizes_length_not_cost() {
        let inst = random_instance(25, 2);
        let mst = mst_route(&inst);
        let st = star(&inst);
        let total_len = |s: &AccessNetwork| {
            (1..s.len())
                .map(|v| {
                    let p = s.tree.parent(NodeId(v as u32)).unwrap().index();
                    inst.node_point(v).dist(&inst.node_point(p))
                })
                .sum::<f64>()
        };
        assert!(total_len(&mst) < total_len(&st));
    }

    #[test]
    fn improve_never_worsens() {
        for seed in 0..5u64 {
            let inst = random_instance(20, seed);
            let start = star(&inst);
            let out = improve(&inst, &start, 200);
            assert!(out.final_cost <= out.initial_cost + 1e-9);
            assert!(is_tree(&out.solution.to_graph(&inst)));
        }
    }

    #[test]
    fn improve_reaches_chain_on_collinear_instance() {
        // Sink at 0, customers at 1, 2, 3 on a line with strong economies
        // of scale: the optimal tree is the chain; local search must find
        // it from the star.
        let inst = Instance::new(
            Point::new(0.0, 0.0),
            vec![
                Customer {
                    location: Point::new(1.0, 0.0),
                    demand: 10.0,
                },
                Customer {
                    location: Point::new(2.0, 0.0),
                    demand: 10.0,
                },
                Customer {
                    location: Point::new(3.0, 0.0),
                    demand: 10.0,
                },
            ],
            LinkCost::cables_only(CableCatalog::single(1000.0, 100.0, 0.01)),
        );
        let out = improve(&inst, &star(&inst), 100);
        // Chain: node 3 under 2 under 1 under sink.
        let p = |v: usize| out.solution.tree.parent(NodeId(v as u32)).unwrap().index();
        assert_eq!(p(1), 0);
        assert_eq!(p(2), 1);
        assert_eq!(p(3), 2);
        assert!(out.moves >= 2);
    }

    #[test]
    fn improve_respects_move_budget() {
        let inst = random_instance(20, 3);
        let out = improve(&inst, &star(&inst), 1);
        assert!(out.moves <= 1);
    }

    #[test]
    fn delta_evaluation_matches_full_recompute() {
        // Apply improve with a budget of 1 and compare against recomputed
        // totals.
        let inst = random_instance(15, 4);
        let start = star(&inst);
        let c0 = start.total_cost(&inst);
        let out = improve(&inst, &start, 1);
        if out.moves == 1 {
            assert!(out.final_cost < c0);
            assert!((out.solution.total_cost(&inst) - out.final_cost).abs() < 1e-9);
        }
    }

    #[test]
    fn mmp_plus_improve_beats_plain_mmp() {
        let inst = random_instance(40, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let plain = super::super::mmp::solve(&inst, &mut rng);
        let plain_cost = plain.total_cost(&inst);
        let mut rng = StdRng::seed_from_u64(6);
        let improved = mmp_plus_improve(&inst, &mut rng, 500);
        assert!(improved.final_cost <= plain_cost + 1e-9);
    }

    #[test]
    fn scan_refresh_indexes_depths_and_subtrees() {
        // 0 <- 1 <- 2 <- {3, 4}, 0 <- 5 <- 6.
        let parent = vec![0, 0, 1, 2, 2, 0, 5];
        let flow = vec![7.0, 4.0, 3.0, 1.0, 1.0, 2.0, 1.0];
        let inst = random_instance(parent.len() - 1, 7);
        let mut scan = Scan::new(parent.len());
        scan.refresh(&inst, &parent, &flow);
        assert_eq!(scan.depth, vec![0, 1, 2, 3, 3, 1, 2]);
        let ancestor = |mut u: usize, v: usize| loop {
            if u == v {
                return true;
            }
            if u == 0 {
                return false;
            }
            u = parent[u];
        };
        for v in 0..parent.len() {
            let subtree = scan.pre[v]..scan.pre[v] + scan.size[v];
            for u in 0..parent.len() {
                assert_eq!(subtree.contains(&scan.pre[u]), ancestor(u, v), "{u} in {v}");
            }
        }
        for v in 1..parent.len() {
            let len = inst.node_point(v).dist(&inst.node_point(parent[v]));
            assert_eq!(scan.cur[v], inst.cost.cost(len, flow[v]));
        }
    }
}
