//! The randomized incremental approximation (Meyerson–Munagala–Plotkin).
//!
//! "Designing networks incrementally" (FOCS 2000) gives a constant-factor
//! randomized approximation for single-sink buy-at-bulk: terminals are
//! processed in **uniformly random order**, and each arriving terminal
//! attaches to the closest point of the structure built so far. Random
//! order is what makes the expected cost O(1)·OPT — an adversarial order
//! can force Ω(log n).
//!
//! This is the algorithm behind the paper's §4.2 preliminary result: with
//! realistic (economies-of-scale) cable parameters it "yields tree
//! topologies with exponential node degree distributions". Experiment E3
//! reproduces exactly that claim; experiment E4 measures the empirical
//! approximation ratio against the exact solver on tiny instances.
//!
//! Faithfulness note: full MMP maintains per-cable
//! "cost class" hubs; the attachment rule here is the pure nearest-point
//! version, which preserves the incremental random-order structure that
//! drives the degree-distribution result while keeping the implementation
//! transparent. The optional local-search pass in
//! [`crate::buyatbulk::greedy`] recovers most of the cost gap.

use super::problem::{AccessNetwork, Instance};
use rand::seq::SliceRandom;
use rand::Rng;

/// Runs the randomized incremental algorithm.
///
/// Each customer (in random order) attaches to the nearest already-
/// connected node (sink included). Returns the resulting access tree.
pub fn solve(instance: &Instance, rng: &mut impl Rng) -> AccessNetwork {
    let n = instance.n_customers();
    let mut order: Vec<usize> = (1..=n).collect();
    order.shuffle(rng);
    solve_in_order(instance, &order)
}

/// Deterministic core: processes solution nodes (1-based customer ids) in
/// the given order, attaching each to the nearest connected node.
///
/// Exposed separately so tests and the adversarial-order ablation (E4) can
/// control the permutation.
pub fn solve_in_order(instance: &Instance, order: &[usize]) -> AccessNetwork {
    let n = instance.n_customers();
    assert_eq!(
        order.len(),
        n,
        "order must mention every customer exactly once"
    );
    let mut parents = vec![0usize; n + 1];
    let mut connected: Vec<usize> = Vec::with_capacity(n + 1);
    connected.push(0); // the sink
    for &v in order {
        debug_assert!((1..=n).contains(&v));
        let p = instance.node_point(v);
        let best = connected
            .iter()
            .copied()
            .min_by(|&a, &b| {
                instance
                    .node_point(a)
                    .dist_sq(&p)
                    .partial_cmp(&instance.node_point(b).dist_sq(&p))
                    .expect("no NaN coordinates")
            })
            .expect("sink is always connected");
        parents[v] = best;
        connected.push(v);
    }
    AccessNetwork::from_parents(&parents)
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

    #[test]
    fn produces_spanning_tree() {
        let mut rng = StdRng::seed_from_u64(1);
        let inst = Instance::random_uniform(50, 10.0, cost(), &mut rng);
        let sol = solve(&inst, &mut rng);
        assert_eq!(sol.len(), 51);
        assert!(is_tree(&sol.to_graph(&inst)));
    }

    #[test]
    fn attaches_to_nearest() {
        // Three collinear customers processed left to right must chain.
        let inst = Instance::new(
            Point::new(0.0, 0.0),
            vec![
                Customer {
                    location: Point::new(1.0, 0.0),
                    demand: 1.0,
                },
                Customer {
                    location: Point::new(2.0, 0.0),
                    demand: 1.0,
                },
                Customer {
                    location: Point::new(3.0, 0.0),
                    demand: 1.0,
                },
            ],
            cost(),
        );
        let sol = solve_in_order(&inst, &[1, 2, 3]);
        assert_eq!(
            sol.tree
                .parent(hot_graph::graph::NodeId(1))
                .unwrap()
                .index(),
            0
        );
        assert_eq!(
            sol.tree
                .parent(hot_graph::graph::NodeId(2))
                .unwrap()
                .index(),
            1
        );
        assert_eq!(
            sol.tree
                .parent(hot_graph::graph::NodeId(3))
                .unwrap()
                .index(),
            2
        );
    }

    #[test]
    fn order_changes_topology() {
        let inst = Instance::new(
            Point::new(0.0, 0.0),
            vec![
                Customer {
                    location: Point::new(1.0, 0.0),
                    demand: 1.0,
                },
                Customer {
                    location: Point::new(2.0, 0.0),
                    demand: 1.0,
                },
            ],
            cost(),
        );
        // Far customer first: both attach to what's nearest at the time.
        let far_first = solve_in_order(&inst, &[2, 1]);
        // Node 2 had only the sink available.
        assert_eq!(
            far_first
                .tree
                .parent(hot_graph::graph::NodeId(2))
                .unwrap()
                .index(),
            0
        );
        // Node 1 then picks node 2? dist(1,2)=1 = dist(1,sink)=1; min_by
        // keeps the first minimum which is the sink (index order).
        let near_first = solve_in_order(&inst, &[1, 2]);
        assert_eq!(
            near_first
                .tree
                .parent(hot_graph::graph::NodeId(2))
                .unwrap()
                .index(),
            1
        );
    }

    #[test]
    fn cost_no_worse_than_star_by_much_and_often_better() {
        // With economies of scale, sharing routes should beat the star on
        // clustered instances.
        let mut rng = StdRng::seed_from_u64(7);
        let mut mmp_wins = 0;
        for seed in 0..10u64 {
            let mut irng = StdRng::seed_from_u64(seed);
            let inst = Instance::random_uniform(60, 20.0, cost(), &mut irng);
            let sol = solve(&inst, &mut rng);
            let star = AccessNetwork::star(60);
            if sol.total_cost(&inst) < star.total_cost(&inst) {
                mmp_wins += 1;
            }
        }
        assert!(
            mmp_wins >= 8,
            "MMP beat the star only {}/10 times",
            mmp_wins
        );
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(Point::new(0.0, 0.0), vec![], cost());
        let mut rng = StdRng::seed_from_u64(0);
        let sol = solve(&inst, &mut rng);
        assert!(sol.is_empty());
        assert_eq!(sol.total_cost(&inst), 0.0);
    }

    #[test]
    #[should_panic(expected = "every customer")]
    fn bad_order_rejected() {
        let inst = Instance::new(
            Point::new(0.0, 0.0),
            vec![Customer {
                location: Point::new(1.0, 0.0),
                demand: 1.0,
            }],
            cost(),
        );
        solve_in_order(&inst, &[]);
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = {
            let mut rng = StdRng::seed_from_u64(2);
            Instance::random_uniform(30, 5.0, cost(), &mut rng)
        };
        let a = solve(&inst, &mut StdRng::seed_from_u64(3));
        let b = solve(&inst, &mut StdRng::seed_from_u64(3));
        assert_eq!(a.degree_sequence(), b.degree_sequence());
    }
}
