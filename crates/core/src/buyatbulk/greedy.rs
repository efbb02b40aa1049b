//! Local-search improvement and classic baselines for buy-at-bulk.
//!
//! - [`improve`]: best-improvement reparenting local search. A move
//!   detaches a customer's subtree and re-hangs it under a different node;
//!   the cost delta is evaluated exactly (flows change only on the two
//!   root paths below the LCA). Every uplink's cost change under every
//!   node's flow sits in one table that lives across scans, and a scan
//!   re-prices only the entries whose flows or lengths the last move
//!   changed, so a candidate costs one new link plus O(depth) additions
//!   of cached terms.
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
/// (n+1)² (v, u) pairs: it tests subtree membership in O(1) and adds
/// cached cost terms along both paths to the LCA, O(n² · depth) additions
/// in all. The terms live in an (n+1)² table of `f64` (0.7 MB at
/// n = 300) that the first scan prices in full; after that a scan
/// re-prices only the rows and columns of the O(depth) nodes whose flow
/// or uplink the last move changed, O(n · depth) link costs.
pub fn improve(instance: &Instance, start: &AccessNetwork, max_moves: usize) -> ImproveOutcome {
    improve_counted(instance, start, max_moves).0
}

/// [`improve`], also returning the number of gain-table evaluations.
fn improve_counted(
    instance: &Instance,
    start: &AccessNetwork,
    max_moves: usize,
) -> (ImproveOutcome, u64) {
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
        scan.apply(&mut parent, &mut flow, v, u);
        moves += 1;
    }
    // The final cost is re-summed from the tree rather than accumulated
    // from the deltas: an incrementally updated flow can sit one ulp away
    // from its re-summed value, and at a cable-capacity breakpoint that
    // moves the link's cost by a whole fixed charge.
    let solution = AccessNetwork::from_parents(&parent);
    let outcome = ImproveOutcome {
        final_cost: solution.total_cost(instance),
        solution,
        initial_cost,
        moves,
    };
    (outcome, scan.evaluations)
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

/// The buffers of the candidate scans, sized to the solution's node count
/// once per [`improve`] call. The tree indexes and uplink costs are
/// refreshed after every applied move; the gain table carries over.
///
/// Reparenting `v` (carrying flow `x`) from `old_p` to `u` replaces the
/// link `(v, old_p)` by `(v, u)`, lowers the flow by `x` on the path
/// `old_p → LCA` and raises it by `x` on `u → LCA`, where LCA is the
/// lowest common ancestor of `old_p` and `u`; above the LCA the net
/// change is zero. Every uplink's cost change under either shift is
/// cached, so the climb to the LCA only adds.
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
    /// sheds `v`'s flow, set on `old_p`'s root path.
    loss: Vec<f64>,
    /// The m × m gain table, kept across scans: `gain_table[v·m + b]` is
    /// the cost change of `b`'s uplink when it takes on `v`'s flow,
    /// `cost(len[b], flow[b] + flow[v]) − cur[b]`, for every `v, b ≥ 1`
    /// (row and column 0 stay unused). A scan reads row `v` only outside
    /// `v`'s subtree but keeps the whole row current, so no entry goes
    /// stale when a move changes the subtrees.
    gain_table: Vec<f64>,
    /// Whether `b`'s flow or uplink length changed since the last scan;
    /// `changed_nodes` lists the flagged nodes once each. A flagged `v`
    /// re-prices row `v`, and every flagged `b` column `b`.
    changed: Vec<bool>,
    changed_nodes: Vec<usize>,
    /// Gain-table entries priced so far.
    evaluations: u64,
}

impl Scan {
    /// Buffers for `m` nodes, with every node flagged so that the first
    /// scan prices the whole gain table.
    fn new(m: usize) -> Self {
        let mut scan = Scan {
            first_child: vec![NONE; m],
            next_sibling: vec![NONE; m],
            depth: vec![0; m],
            pre: vec![0; m],
            size: vec![0; m],
            len: vec![0.0; m],
            cur: vec![0.0; m],
            loss: vec![0.0; m],
            gain_table: vec![0.0; m * m],
            changed: vec![false; m],
            changed_nodes: Vec::with_capacity(m),
            evaluations: 0,
        };
        for b in 1..m {
            scan.flag(b);
        }
        scan
    }

    fn flag(&mut self, b: usize) {
        if !self.changed[b] {
            self.changed[b] = true;
            self.changed_nodes.push(b);
        }
    }

    /// Re-hangs `v` under `u`: moves `v`'s flow off the path
    /// `parent[v] → root` and onto `u → root`, and flags `v` (its uplink
    /// length changes) and every node on both paths. The paths are
    /// flagged whole, not just below the LCA: above it the flow goes
    /// through `(f − x) + x`, which can differ from `f` in the last bit.
    fn apply(&mut self, parent: &mut [usize], flow: &mut [f64], v: usize, u: usize) {
        let moved = flow[v];
        self.flag(v);
        for (from, sign) in [(parent[v], -1.0), (u, 1.0)] {
            let mut a = from;
            while a != 0 {
                flow[a] += sign * moved;
                self.flag(a);
                a = parent[a];
            }
        }
        parent[v] = u;
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
    /// `(v, new parent)`. Brings the gain table up to date on the way and
    /// clears every flag.
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
            let row = &mut self.gain_table[v * m..(v + 1) * m];
            if self.changed[v] {
                for (b, g) in row.iter_mut().enumerate().skip(1) {
                    *g = cost.cost(self.len[b], flow[b] + moved) - self.cur[b];
                }
                self.evaluations += m as u64 - 1;
            } else {
                for &b in &self.changed_nodes {
                    row[b] = cost.cost(self.len[b], flow[b] + moved) - self.cur[b];
                }
                self.evaluations += self.changed_nodes.len() as u64;
            }
            let subtree = self.pre[v]..self.pre[v] + self.size[v];
            let (depth, loss, gain) = (&self.depth, &self.loss, &*row);
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
        for b in self.changed_nodes.drain(..) {
            self.changed[b] = false;
        }
        best.map(|(v, u, _)| (v, u))
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
    use rand::{Rng, SeedableRng};

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

    /// After every scan, every gain-table entry equals a fresh price by
    /// `to_bits()`. Non-dyadic demands make `(f − x) + x` differ from `f`
    /// in the last bit, so a move can change flows at and above the LCA,
    /// where the net shift is zero; the test requires that at least one
    /// move does, so that a table flagging only the nodes below the LCA
    /// fails it.
    #[test]
    fn gain_table_matches_fresh_prices_after_every_move() {
        let mut moves = 0;
        let mut round_trips = 0;
        for seed in 0..96u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = [10, 30, 60][seed as usize % 3];
            let catalog = if seed % 2 == 0 {
                CableCatalog::realistic_2003()
            } else {
                CableCatalog::single(45.0, 10.0, 1.0)
            };
            let customers = (0..n)
                .map(|_| Customer {
                    location: Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)),
                    demand: rng.random_range(0.1..40.0),
                })
                .collect();
            let inst = Instance::new(
                Point::new(0.5, 0.5),
                customers,
                LinkCost::cables_only(catalog),
            );
            let start = if seed % 4 < 2 {
                star(&inst)
            } else {
                super::super::mmp::solve(&inst, &mut rng)
            };
            let m = n + 1;
            let mut parent: Vec<usize> = (0..m)
                .map(|v| start.tree.parent(NodeId(v as u32)).map_or(0, |p| p.index()))
                .collect();
            let mut flow = start.uplink_flows(&inst);
            let mut scan = Scan::new(m);
            loop {
                scan.refresh(&inst, &parent, &flow);
                let best = scan.best_move(&inst, &parent, &flow);
                for v in 1..m {
                    for b in 1..m {
                        let len = inst.node_point(b).dist(&inst.node_point(parent[b]));
                        let fresh =
                            inst.cost.cost(len, flow[b] + flow[v]) - inst.cost.cost(len, flow[b]);
                        assert_eq!(
                            scan.gain_table[v * m + b].to_bits(),
                            fresh.to_bits(),
                            "seed {seed}, move {moves}: gain[{v}][{b}]"
                        );
                    }
                }
                let Some((v, u)) = best else { break };
                // The LCA of the old and new parent, and the flows on its
                // root path before the move.
                let mut above_old = vec![false; m];
                let mut a = parent[v];
                loop {
                    above_old[a] = true;
                    if a == 0 {
                        break;
                    }
                    a = parent[a];
                }
                let mut lca = u;
                while !above_old[lca] {
                    lca = parent[lca];
                }
                let mut top = Vec::new();
                let mut a = lca;
                while a != 0 {
                    top.push((a, flow[a].to_bits()));
                    a = parent[a];
                }
                scan.apply(&mut parent, &mut flow, v, u);
                moves += 1;
                if top.iter().any(|&(a, bits)| flow[a].to_bits() != bits) {
                    round_trips += 1;
                }
            }
        }
        assert!(moves > 100, "only {moves} moves");
        assert!(
            round_trips > 0,
            "no move changed a flow at or above its LCA"
        );
    }

    /// The gain table's work on E9's ablation (a) at the benchmark's
    /// scale: both catalogs, n = 60, five seeds from 20030617, MMP starts
    /// and 2,000 moves. Re-pricing every entry outside the moved subtree
    /// each scan, as a table rebuilt per scan would, costs close to m²
    /// per scan; the kept table must stay under a quarter of that. The
    /// count is deterministic, so this holds on any machine.
    #[test]
    fn gain_table_work_stays_far_below_full_rescans() {
        let (n, max_moves) = (60, 2000);
        let (mut scans, mut evaluations) = (0, 0);
        for catalog in [
            CableCatalog::realistic_2003(),
            CableCatalog::single(45.0, 10.0, 1.0),
        ] {
            for s in 0..5 {
                let mut rng = StdRng::seed_from_u64(20030617 + s);
                let cost = LinkCost::cables_only(catalog.clone());
                let inst = Instance::random_uniform(n, 15.0, cost, &mut rng);
                let start = super::super::mmp::solve(&inst, &mut rng);
                let (out, work) = improve_counted(&inst, &start, max_moves);
                scans += out.moves as u64 + u64::from(out.moves < max_moves);
                evaluations += work;
            }
        }
        let m = n as u64 + 1;
        assert!(
            evaluations < scans * m * m / 4,
            "{} evaluations over {} scans of m = {}",
            evaluations,
            scans,
            m
        );
    }
}
