//! Buy-at-bulk instance and solution types.

use hot_econ::cost::LinkCost;
use hot_geo::point::Point;
use hot_graph::graph::{Graph, NodeId};
use hot_graph::tree::RootedTree;
use rand::Rng;

/// One customer: a location and a traffic demand destined for the sink.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Customer {
    pub location: Point,
    pub demand: f64,
}

/// A single-sink buy-at-bulk instance.
#[derive(Clone, Debug)]
pub struct Instance {
    /// The core node everything must reach.
    pub sink: Point,
    /// The customers to be connected.
    pub customers: Vec<Customer>,
    /// Link cost model (cable catalog + port charges).
    pub cost: LinkCost,
}

impl Instance {
    /// Creates an instance, validating demands.
    ///
    /// # Panics
    ///
    /// Panics if any demand is non-positive or non-finite.
    pub fn new(sink: Point, customers: Vec<Customer>, cost: LinkCost) -> Self {
        for (i, c) in customers.iter().enumerate() {
            assert!(
                c.demand.is_finite() && c.demand > 0.0,
                "customer {} has invalid demand {}",
                i,
                c.demand
            );
        }
        Instance {
            sink,
            customers,
            cost,
        }
    }

    /// Random instance: customers uniform in the unit square around a
    /// central sink, unit demands scaled by `demand`.
    pub fn random_uniform(n: usize, demand: f64, cost: LinkCost, rng: &mut impl Rng) -> Self {
        let region = hot_geo::bbox::BoundingBox::unit();
        let customers = (0..n)
            .map(|_| Customer {
                location: region.sample_uniform(rng),
                demand,
            })
            .collect();
        Instance::new(region.center(), customers, cost)
    }

    /// Number of customers.
    pub fn n_customers(&self) -> usize {
        self.customers.len()
    }

    /// Total demand.
    pub fn total_demand(&self) -> f64 {
        self.customers.iter().map(|c| c.demand).sum()
    }

    /// Position of solution node `v` (0 = sink, `i+1` = customer `i`).
    pub fn node_point(&self, v: usize) -> Point {
        if v == 0 {
            self.sink
        } else {
            self.customers[v - 1].location
        }
    }

    /// Demand of solution node `v` (0 for the sink).
    pub fn node_demand(&self, v: usize) -> f64 {
        if v == 0 {
            0.0
        } else {
            self.customers[v - 1].demand
        }
    }
}

/// A solution: a tree rooted at the sink spanning sink + customers.
///
/// Node ids: `0` = sink, `i+1` = customer `i`.
#[derive(Clone, Debug)]
pub struct AccessNetwork {
    /// The routing tree (root = node 0 = sink).
    pub tree: RootedTree,
}

impl AccessNetwork {
    /// Builds a solution from a parent array over solution nodes
    /// (`parent[0]` ignored; `parent[v]` must index a solution node).
    ///
    /// # Panics
    ///
    /// Panics if the parent array does not describe a tree rooted at 0.
    pub fn from_parents(parents: &[usize]) -> Self {
        let n = parents.len();
        assert!(n >= 1, "need at least the sink");
        // Build the graph and validate tree-ness via RootedTree.
        let mut g: Graph<(), ()> = Graph::with_capacity(n, n.saturating_sub(1));
        for _ in 0..n {
            g.add_node(());
        }
        for (v, &p) in parents.iter().enumerate().skip(1) {
            assert!(p < n, "parent {} out of range", p);
            g.add_edge(NodeId(v as u32), NodeId(p as u32), ());
        }
        let tree = RootedTree::from_graph(&g, NodeId(0)).expect("parent array must form a tree");
        AccessNetwork { tree }
    }

    /// The direct star: every customer straight to the sink.
    pub fn star(n_customers: usize) -> Self {
        AccessNetwork::from_parents(&vec![0; n_customers + 1])
    }

    /// Number of solution nodes (customers + 1).
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether the solution has no customers.
    pub fn is_empty(&self) -> bool {
        self.tree.len() <= 1
    }

    /// Flow on each node's uplink edge `(v, parent(v))`: the sum of
    /// demands in v's subtree. Entry 0 (the sink, which has no uplink)
    /// is the total demand, as a convenient by-product.
    pub fn uplink_flows(&self, instance: &Instance) -> Vec<f64> {
        let order = self.tree.bfs_order();
        let mut flow: Vec<f64> = (0..self.tree.len())
            .map(|v| instance.node_demand(v))
            .collect();
        for &v in order.iter().rev() {
            if let Some(p) = self.tree.parent(v) {
                flow[p.index()] += flow[v.index()];
            }
        }
        flow
    }

    /// Total cost under the instance's cost model.
    pub fn total_cost(&self, instance: &Instance) -> f64 {
        let flows = self.uplink_flows(instance);
        let mut total = 0.0;
        // `flows` has one entry per tree node.
        for (v, &flow) in flows.iter().enumerate().skip(1) {
            let p = self
                .tree
                .parent(NodeId(v as u32))
                .expect("non-root")
                .index();
            let length = instance.node_point(v).dist(&instance.node_point(p));
            total += instance.cost.cost(length, flow);
        }
        total
    }

    /// Cable assignment per non-root node's uplink:
    /// `(cable type index, parallel instances)`.
    pub fn cable_assignments(&self, instance: &Instance) -> Vec<(usize, usize)> {
        let flows = self.uplink_flows(instance);
        (0..self.tree.len())
            .map(|v| {
                if v == 0 {
                    (0, 0)
                } else {
                    instance.cost.cable_choice(flows[v])
                }
            })
            .collect()
    }

    /// Undirected degree sequence over solution nodes.
    pub fn degree_sequence(&self) -> Vec<u32> {
        self.tree.degree_sequence()
    }

    /// Materializes as a graph with edge weights = Euclidean length.
    pub fn to_graph(&self, instance: &Instance) -> Graph<(), f64> {
        self.tree.to_graph(|child, parent| {
            instance
                .node_point(child.index())
                .dist(&instance.node_point(parent.index()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_econ::cable::CableCatalog;
    use hot_econ::cost::LinkCost;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cost() -> LinkCost {
        LinkCost::cables_only(CableCatalog::single(100.0, 10.0, 1.0))
    }

    /// Sink at origin, two customers on the x axis.
    fn line_instance() -> Instance {
        Instance::new(
            Point::new(0.0, 0.0),
            vec![
                Customer {
                    location: Point::new(1.0, 0.0),
                    demand: 5.0,
                },
                Customer {
                    location: Point::new(2.0, 0.0),
                    demand: 7.0,
                },
            ],
            cost(),
        )
    }

    #[test]
    fn star_solution_cost() {
        let inst = line_instance();
        let sol = AccessNetwork::star(2);
        // Edge 1: len 1, flow 5 -> 1*(10 + 5) = 15.
        // Edge 2: len 2, flow 7 -> 2*(10 + 7) = 34.
        assert!((sol.total_cost(&inst) - 49.0).abs() < 1e-9);
    }

    #[test]
    fn chain_solution_cost_and_flows() {
        let inst = line_instance();
        // Customer 2 routes through customer 1: parents = [_, 0, 1].
        let sol = AccessNetwork::from_parents(&[0, 0, 1]);
        let flows = sol.uplink_flows(&inst);
        assert!((flows[2] - 7.0).abs() < 1e-12);
        assert!((flows[1] - 12.0).abs() < 1e-12);
        assert!((flows[0] - 12.0).abs() < 1e-12); // total demand
                                                  // Edge 2->1: len 1, flow 7 -> 17. Edge 1->0: len 1, flow 12 -> 22.
        assert!((sol.total_cost(&inst) - 39.0).abs() < 1e-9);
    }

    #[test]
    fn cable_assignments_match_flows() {
        let inst = line_instance();
        let sol = AccessNetwork::from_parents(&[0, 0, 1]);
        let cables = sol.cable_assignments(&inst);
        assert_eq!(cables[0], (0, 0)); // sink has no uplink
        assert_eq!(cables[1], (0, 1)); // 12 units on one 100-cap cable
        assert_eq!(cables[2], (0, 1));
    }

    #[test]
    fn degree_sum_invariant() {
        let sol = AccessNetwork::from_parents(&[0, 0, 1, 1, 0]);
        let degs = sol.degree_sequence();
        assert_eq!(degs.iter().sum::<u32>() as usize, 2 * (sol.len() - 1));
    }

    #[test]
    #[should_panic(expected = "must form a tree")]
    fn cyclic_parents_rejected() {
        // 1 -> 2 -> 1 cycle disconnected from the sink.
        AccessNetwork::from_parents(&[0, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "invalid demand")]
    fn bad_demand_rejected() {
        Instance::new(
            Point::new(0.0, 0.0),
            vec![Customer {
                location: Point::new(1.0, 0.0),
                demand: 0.0,
            }],
            cost(),
        );
    }

    #[test]
    fn random_instance_well_formed() {
        let mut rng = StdRng::seed_from_u64(1);
        let inst = Instance::random_uniform(20, 2.0, cost(), &mut rng);
        assert_eq!(inst.n_customers(), 20);
        assert!((inst.total_demand() - 40.0).abs() < 1e-9);
        assert_eq!(inst.node_point(0), Point::new(0.5, 0.5));
        assert_eq!(inst.node_demand(0), 0.0);
        assert!(inst.node_demand(3) > 0.0);
    }

    #[test]
    fn empty_instance_star() {
        let sol = AccessNetwork::star(0);
        assert!(sol.is_empty());
        assert_eq!(sol.len(), 1);
    }
}
