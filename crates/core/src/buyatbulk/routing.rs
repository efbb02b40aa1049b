//! Routing analysis helpers: utilization, cable bill of materials, and
//! length statistics for access-network solutions.
//!
//! The experiments report not just total cost but *what got built* — how
//! much of each cable type, how utilized links are — because the paper's
//! notion of topology includes resource provisioning (footnote 1).

use super::problem::{AccessNetwork, Instance};
use hot_graph::graph::NodeId;

/// Per-link record in a build report.
#[derive(Clone, Debug)]
pub struct LinkReport {
    /// Child node of the uplink (1-based solution node).
    pub node: usize,
    /// Euclidean length.
    pub length: f64,
    /// Flow carried.
    pub flow: f64,
    /// Chosen cable type index in the catalog.
    pub cable_type: usize,
    /// Parallel instances installed.
    pub instances: usize,
    /// Fraction of installed capacity used (0..=1).
    pub utilization: f64,
}

/// Aggregate build report for a solution.
#[derive(Clone, Debug)]
pub struct BuildReport {
    /// One record per installed uplink.
    pub links: Vec<LinkReport>,
    /// Installed cable-kilometers per catalog type
    /// (`instances × length`, indexed by type).
    pub cable_km: Vec<f64>,
    /// Total cost.
    pub total_cost: f64,
    /// Total Euclidean length of installed links.
    pub total_length: f64,
    /// Demand-weighted mean hop count to the sink.
    pub mean_hops: f64,
}

/// Computes the build report for `solution` on `instance`.
pub fn build_report(instance: &Instance, solution: &AccessNetwork) -> BuildReport {
    let flows = solution.uplink_flows(instance);
    let n_types = instance.cost.catalog.len();
    let mut links = Vec::with_capacity(solution.len().saturating_sub(1));
    let mut cable_km = vec![0.0; n_types];
    let mut total_length = 0.0;
    // `flows` has one entry per tree node.
    for (v, &flow) in flows.iter().enumerate().skip(1) {
        let p = solution
            .tree
            .parent(NodeId(v as u32))
            .expect("non-root")
            .index();
        let length = instance.node_point(v).dist(&instance.node_point(p));
        let (cable_type, instances) = instance.cost.cable_choice(flow);
        let capacity = instance.cost.catalog.types()[cable_type].capacity * instances as f64;
        links.push(LinkReport {
            node: v,
            length,
            flow,
            cable_type,
            instances,
            utilization: if capacity > 0.0 { flow / capacity } else { 0.0 },
        });
        cable_km[cable_type] += instances as f64 * length;
        total_length += length;
    }
    let total_demand: f64 = instance.total_demand();
    let mean_hops = if total_demand > 0.0 {
        (1..solution.len())
            .map(|v| instance.node_demand(v) * solution.tree.depth(NodeId(v as u32)) as f64)
            .sum::<f64>()
            / total_demand
    } else {
        0.0
    };
    BuildReport {
        links,
        cable_km,
        total_cost: solution.total_cost(instance),
        total_length,
        mean_hops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buyatbulk::problem::Customer;
    use hot_econ::cable::CableCatalog;
    use hot_econ::cost::LinkCost;
    use hot_geo::point::Point;

    fn instance() -> Instance {
        Instance::new(
            Point::new(0.0, 0.0),
            vec![
                Customer {
                    location: Point::new(1.0, 0.0),
                    demand: 30.0,
                },
                Customer {
                    location: Point::new(2.0, 0.0),
                    demand: 40.0,
                },
            ],
            LinkCost::cables_only(CableCatalog::single(100.0, 10.0, 1.0)),
        )
    }

    #[test]
    fn report_chain() {
        let inst = instance();
        let sol = AccessNetwork::from_parents(&[0, 0, 1]);
        let rep = build_report(&inst, &sol);
        assert_eq!(rep.links.len(), 2);
        // Link of node 1 carries 70 (its own 30 + child's 40).
        let l1 = rep.links.iter().find(|l| l.node == 1).unwrap();
        assert!((l1.flow - 70.0).abs() < 1e-9);
        assert!((l1.utilization - 0.7).abs() < 1e-9);
        assert!((rep.total_length - 2.0).abs() < 1e-9);
        // cable_km: both links single instance of type 0: 1 + 1 = 2.
        assert!((rep.cable_km[0] - 2.0).abs() < 1e-9);
        assert!((rep.total_cost - sol.total_cost(&inst)).abs() < 1e-12);
        // hops: node1 at depth 1 (demand 30), node2 at depth 2 (demand 40):
        // mean = (30*1 + 40*2)/70.
        assert!((rep.mean_hops - 110.0 / 70.0).abs() < 1e-9);
    }

    #[test]
    fn report_star() {
        let inst = instance();
        let sol = AccessNetwork::star(2);
        let rep = build_report(&inst, &sol);
        assert!((rep.mean_hops - 1.0).abs() < 1e-12);
        assert_eq!(rep.links.len(), 2);
        assert!((rep.total_length - 3.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_with_multiple_instances() {
        let inst = Instance::new(
            Point::new(0.0, 0.0),
            vec![Customer {
                location: Point::new(1.0, 0.0),
                demand: 150.0,
            }],
            LinkCost::cables_only(CableCatalog::single(100.0, 10.0, 1.0)),
        );
        let sol = AccessNetwork::star(1);
        let rep = build_report(&inst, &sol);
        assert_eq!(rep.links[0].instances, 2);
        assert!((rep.links[0].utilization - 0.75).abs() < 1e-9);
        assert!((rep.cable_km[0] - 2.0).abs() < 1e-9);
    }
}
