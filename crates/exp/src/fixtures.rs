//! Shared fixtures: the canonical seed, the standard geography every
//! ISP-level scenario builds on (moved here from `hot-bench` so the
//! scenario engine does not depend on the bench crate), the
//! customer-demand workload the traffic scenarios route, and the
//! backbone link-cut study E12 and E16 share.

use hot_core::isp::backbone::BackboneConfig;
use hot_core::isp::generator::{generate, IspConfig};
use hot_core::isp::{IspTopology, LinkKind, RouterRole};
use hot_geo::gravity::TrafficMatrix;
use hot_geo::point::Point;
use hot_geo::population::Census;
use hot_sim::demand::{Demand, DemandMatrix};
use hot_sim::failure::{single_link_failures, FailureSummary};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fixed seed base: every experiment derives its RNGs from this, so all
/// published tables regenerate byte-identically.
pub const SEED: u64 = 20030617; // HotNets-II camera-ready era

/// The standard synthetic geography used by the ISP-level experiments:
/// `n_cities` Zipf cities clustered into metros, plus the gravity traffic
/// matrix.
pub fn standard_geography(n_cities: usize, seed: u64) -> (Census, TrafficMatrix) {
    let census = Census::synthesize(n_cities, &mut StdRng::seed_from_u64(seed));
    let traffic = TrafficMatrix::gravity(&census);
    (census, traffic)
}

/// Demand masses of an ISP's *customers*: 1 on customer routers, 0 on
/// infrastructure, plus every router's location — the inputs of the
/// customer-level demand matrices.
pub fn customer_masses(isp: &IspTopology) -> (Vec<f64>, Vec<Point>) {
    let mass = isp
        .graph
        .node_ids()
        .map(|v| {
            if isp.graph.node_weight(v).role == RouterRole::Customer {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    let positions = isp
        .graph
        .node_ids()
        .map(|v| isp.graph.node_weight(v).location)
        .collect();
    (mass, positions)
}

/// The canonical customer workload of the traffic scenarios (E15/E16):
/// gravity demand between the ISP's customers over router geography
/// (γ = 1, unit distance floor), scaled to `total_traffic`.
pub fn customer_gravity_demand(isp: &IspTopology, total_traffic: f64) -> DemandMatrix {
    let (mass, positions) = customer_masses(isp);
    DemandMatrix::from_masses(mass, Some(positions), 1.0, 1.0, total_traffic)
}

/// The backbone link-cut study of E12 and E16, which prices the
/// paper's redundancy requirement (§4, footnote 7): an ISP of `pops`
/// POPs built from `seed`, whose backbone is a tree (`redundancy` off)
/// or a mesh; gravity demand between every pair of its POP routers;
/// and every loaded trunk of the backbone-only subgraph failed in turn.
pub fn backbone_failures(
    census: &Census,
    traffic: &TrafficMatrix,
    pops: usize,
    redundancy: bool,
    seed: u64,
    threads: usize,
) -> FailureSummary {
    let cfg = IspConfig {
        backbone: BackboneConfig {
            redundancy,
            shortcut_pairs: 0,
        },
        n_pops: pops,
        // Backbone-only study: POPs exchange traffic; per-metro
        // customer minimums force a small positive count.
        total_customers: 10,
        ..IspConfig::default()
    };
    let isp = generate(census, traffic, &cfg, &mut StdRng::seed_from_u64(seed));
    let mut demands = Vec::new();
    for (i, &ra) in isp.pop_routers.iter().enumerate() {
        for (j, &rb) in isp.pop_routers.iter().enumerate().skip(i + 1) {
            let amount = traffic.demand(isp.pop_cities[i], isp.pop_cities[j]);
            if amount > 0.0 {
                demands.push(Demand {
                    src: ra,
                    dst: rb,
                    amount,
                });
            }
        }
    }
    // Restrict to the backbone subgraph so failures hit trunks only.
    let keep: Vec<bool> = isp
        .graph
        .edge_ids()
        .map(|e| isp.graph.edge_weight(e).kind == LinkKind::Backbone)
        .collect();
    single_link_failures(&isp.graph.edge_subgraph(&keep), &demands, threads)
}

/// Whether `total_traffic` can scale a traffic scenario's demand:
/// positive and finite. Zero, a negative total or NaN routes no flow
/// at all, and an infinite one turns the loads into infinities and NaN.
/// E15, E16 and E18 skip, with the field named, when it fails.
pub fn total_traffic_is_valid(total_traffic: f64) -> bool {
    total_traffic.is_finite() && total_traffic > 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geography_is_deterministic() {
        let (c1, t1) = standard_geography(20, 1);
        let (c2, t2) = standard_geography(20, 1);
        assert_eq!(c1.cities, c2.cities);
        assert_eq!(t1.demand(0, 1), t2.demand(0, 1));
    }
}
