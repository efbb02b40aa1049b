//! Exact buy-at-bulk solver for tiny instances, by exhaustive enumeration
//! of all labeled spanning trees via Prüfer sequences.
//!
//! For `m = n_customers + 1` solution nodes there are `m^(m−2)` labeled
//! trees; the solver enumerates them all, so it is practical only up to
//! ~9 nodes (8 customers). It exists to measure empirical approximation
//! ratios of MMP and the local search (experiment E4) — the paper cites
//! the constant-factor guarantee of Meyerson et al., and this is how the
//! reproduction checks the constant is small in practice.

use super::problem::{AccessNetwork, Instance};

/// Hard cap on solution nodes (`customers + 1`) to keep enumeration sane.
pub const MAX_NODES: usize = 10;

/// Exhaustively finds a minimum-cost access tree.
///
/// Returns the optimal solution and its cost.
///
/// # Panics
///
/// Panics if the instance has more than `MAX_NODES - 1` customers.
pub fn solve(instance: &Instance) -> (AccessNetwork, f64) {
    let m = instance.n_customers() + 1;
    assert!(
        m <= MAX_NODES,
        "exact solver limited to {} customers (got {})",
        MAX_NODES - 1,
        instance.n_customers()
    );
    if m == 1 {
        return (AccessNetwork::star(0), 0.0);
    }
    if m == 2 {
        let sol = AccessNetwork::star(1);
        let cost = sol.total_cost(instance);
        return (sol, cost);
    }
    // Precompute pairwise lengths and per-node demands.
    let lengths: Vec<Vec<f64>> = (0..m)
        .map(|a| {
            (0..m)
                .map(|b| instance.node_point(a).dist(&instance.node_point(b)))
                .collect()
        })
        .collect();
    let demands: Vec<f64> = (0..m).map(|v| instance.node_demand(v)).collect();
    let seq_len = m - 2;
    let mut prufer = vec![0usize; seq_len];
    let mut best_cost = f64::INFINITY;
    let mut best_parents: Option<Vec<usize>> = None;
    // Scratch buffers reused across iterations.
    let mut degree = vec![0usize; m];
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(m - 1);
    loop {
        decode_prufer(&prufer, &mut degree, &mut edges);
        if let Some(cost) = tree_cost(&edges, &lengths, &demands, instance, best_cost) {
            if cost < best_cost {
                best_cost = cost;
                best_parents = Some(parents_from_edges(&edges, m));
            }
        }
        // Next Prüfer sequence (odometer over base m).
        let mut i = 0;
        loop {
            if i == seq_len {
                let parents = best_parents.expect("at least one tree evaluated");
                let sol = AccessNetwork::from_parents(&parents);
                return (sol, best_cost);
            }
            prufer[i] += 1;
            if prufer[i] < m {
                break;
            }
            prufer[i] = 0;
            i += 1;
        }
    }
}

/// Decodes a Prüfer sequence over `m` labels into tree edges.
fn decode_prufer(prufer: &[usize], degree: &mut [usize], edges: &mut Vec<(usize, usize)>) {
    let m = degree.len();
    edges.clear();
    for d in degree.iter_mut() {
        *d = 1;
    }
    for &p in prufer {
        degree[p] += 1;
    }
    // Standard O(m log m)-ish decode with a linear pointer (classic
    // two-pointer trick keeps it O(m + seq)).
    let mut ptr = 0;
    while degree[ptr] != 1 {
        ptr += 1;
    }
    let mut leaf = ptr;
    for &p in prufer {
        edges.push((leaf, p));
        degree[p] -= 1;
        if degree[p] == 1 && p < ptr {
            leaf = p;
        } else {
            ptr += 1;
            while degree[ptr] != 1 {
                ptr += 1;
            }
            leaf = ptr;
        }
    }
    edges.push((leaf, m - 1));
}

/// Cost of the tree given by `edges`, rooted at node 0; `None` if the cost
/// provably exceeds `bound` (early exit).
fn tree_cost(
    edges: &[(usize, usize)],
    lengths: &[Vec<f64>],
    demands: &[f64],
    instance: &Instance,
    bound: f64,
) -> Option<f64> {
    let m = demands.len();
    // Adjacency from edges.
    let mut adj: Vec<Vec<usize>> = vec![Vec::with_capacity(3); m];
    for &(a, b) in edges {
        adj[a].push(b);
        adj[b].push(a);
    }
    // BFS order from the root (node 0) to get parents.
    let mut parent = vec![usize::MAX; m];
    let mut order = Vec::with_capacity(m);
    parent[0] = 0;
    order.push(0);
    let mut head = 0;
    while head < order.len() {
        let v = order[head];
        head += 1;
        for &u in &adj[v] {
            if parent[u] == usize::MAX {
                parent[u] = v;
                order.push(u);
            }
        }
    }
    debug_assert_eq!(order.len(), m, "Prüfer decode must yield a spanning tree");
    // Subtree flows in reverse BFS order.
    let mut flow = demands.to_vec();
    for &v in order.iter().rev() {
        if v != 0 {
            flow[parent[v]] += flow[v];
        }
    }
    let mut cost = 0.0;
    for &v in order.iter().skip(1) {
        cost += instance.cost.cost(lengths[v][parent[v]], flow[v]);
        if cost >= bound {
            return None;
        }
    }
    Some(cost)
}

/// Parent array (rooted at 0) from tree edges.
fn parents_from_edges(edges: &[(usize, usize)], m: usize) -> Vec<usize> {
    let mut adj: Vec<Vec<usize>> = vec![Vec::with_capacity(3); m];
    for &(a, b) in edges {
        adj[a].push(b);
        adj[b].push(a);
    }
    let mut parent = vec![usize::MAX; m];
    parent[0] = 0;
    let mut stack = vec![0usize];
    while let Some(v) = stack.pop() {
        for &u in &adj[v] {
            if parent[u] == usize::MAX {
                parent[u] = v;
                stack.push(u);
            }
        }
    }
    parent[0] = 0;
    parent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buyatbulk::greedy;
    use crate::buyatbulk::mmp;
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

    #[test]
    fn exact_on_collinear_instance_is_chain() {
        // Strong economies of scale force the chain.
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
        let (sol, c) = solve(&inst);
        let p = |v: usize| {
            sol.tree
                .parent(hot_graph::graph::NodeId(v as u32))
                .unwrap()
                .index()
        };
        assert_eq!((p(1), p(2), p(3)), (0, 1, 2));
        // Chain cost: 3 edges of length 1, flows 30, 20, 10:
        // 100.3 + 100.2 + 100.1 = 300.6.
        assert!((c - 300.6).abs() < 1e-9);
    }

    #[test]
    fn exact_lower_bounds_heuristics() {
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let inst = Instance::random_uniform(5, 30.0, cost(), &mut rng);
            let (opt, opt_cost) = solve(&inst);
            assert!(is_tree(&opt.to_graph(&inst)));
            let mmp_cost = mmp::solve(&inst, &mut rng).total_cost(&inst);
            let star_cost = greedy::star(&inst).total_cost(&inst);
            let mst_cost = greedy::mst_route(&inst).total_cost(&inst);
            for (name, c) in [("mmp", mmp_cost), ("star", star_cost), ("mst", mst_cost)] {
                assert!(
                    opt_cost <= c + 1e-9,
                    "seed {}: exact {} beat by {} {}",
                    seed,
                    opt_cost,
                    name,
                    c
                );
            }
        }
    }

    #[test]
    fn local_search_often_reaches_optimum_on_tiny_instances() {
        let mut hits = 0;
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let inst = Instance::random_uniform(4, 30.0, cost(), &mut rng);
            let (_, opt_cost) = solve(&inst);
            let out = greedy::improve(&inst, &greedy::star(&inst), 200);
            if (out.final_cost - opt_cost).abs() < 1e-6 * (1.0 + opt_cost) {
                hits += 1;
            }
            assert!(out.final_cost >= opt_cost - 1e-9);
        }
        assert!(
            hits >= 5,
            "local search matched the optimum only {}/8 times",
            hits
        );
    }

    #[test]
    fn degenerate_sizes() {
        let inst0 = Instance::new(Point::new(0.0, 0.0), vec![], cost());
        let (s0, c0) = solve(&inst0);
        assert!(s0.is_empty());
        assert_eq!(c0, 0.0);

        let inst1 = Instance::new(
            Point::new(0.0, 0.0),
            vec![Customer {
                location: Point::new(1.0, 0.0),
                demand: 5.0,
            }],
            cost(),
        );
        let (s1, c1) = solve(&inst1);
        assert_eq!(s1.len(), 2);
        assert!((c1 - s1.total_cost(&inst1)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "exact solver limited")]
    fn too_large_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let inst = Instance::random_uniform(MAX_NODES, 1.0, cost(), &mut rng);
        solve(&inst);
    }

    #[test]
    fn prufer_decode_known_sequence() {
        // Classic example: sequence [3,3,3,4] over 6 nodes gives a tree
        // where 3 has degree 4.
        let mut degree = vec![0usize; 6];
        let mut edges = Vec::new();
        decode_prufer(&[3, 3, 3, 4], &mut degree, &mut edges);
        assert_eq!(edges.len(), 5);
        let mut deg = [0usize; 6];
        for &(a, b) in &edges {
            deg[a] += 1;
            deg[b] += 1;
        }
        assert_eq!(deg[3], 4);
        assert_eq!(deg[4], 2);
        assert_eq!(deg.iter().sum::<usize>(), 10);
    }

    #[test]
    fn enumeration_counts_all_trees() {
        // Count distinct parent arrays for m=4: should be 4^2 = 16 trees.
        // We verify indirectly: exact solve on a symmetric instance must
        // terminate and return a valid tree (smoke test of the odometer).
        let inst = Instance::new(
            Point::new(0.0, 0.0),
            vec![
                Customer {
                    location: Point::new(1.0, 0.0),
                    demand: 1.0,
                },
                Customer {
                    location: Point::new(0.0, 1.0),
                    demand: 1.0,
                },
                Customer {
                    location: Point::new(-1.0, 0.0),
                    demand: 1.0,
                },
            ],
            cost(),
        );
        let (sol, c) = solve(&inst);
        assert!(is_tree(&sol.to_graph(&inst)));
        assert!(c.is_finite() && c > 0.0);
    }
}
