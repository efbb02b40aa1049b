//! The end-to-end ISP generator: census in, annotated router-level
//! topology out.
//!
//! Pipeline (one optimization problem per hierarchy level, per §2.2):
//!
//! 1. POPs at the `n_pops` largest cities; backbone designed by
//!    [`crate::isp::backbone`] and provisioned from the backbone catalog;
//! 2. per metro: customers synthesized around the city center, customer
//!    set filtered by the configured [`Formulation`] (profit-based ISPs
//!    refuse unprofitable customers), concentrators placed by facility
//!    location, access trees built by Esau–Williams, and the
//!    concentrator→POP distribution network designed by buy-at-bulk
//!    (MMP + local search);
//! 3. a router degree cap models the line-card limit (§2.1): routers
//!    exceeding it are split into co-located chassis joined by
//!    zero-length chassis links.

use crate::access::concentrator::{self, FacilityInstance};
use crate::access::esau_williams::{self, CmstInstance};
use crate::buyatbulk::{greedy, problem::Customer as BabCustomer, problem::Instance};
use crate::formulation::Formulation;
use crate::isp::backbone::{self, BackboneConfig};
use crate::isp::{IspTopology, Link, LinkKind, Router, RouterRole};
use hot_econ::cable::CableCatalog;
use hot_econ::cost::LinkCost;
use hot_econ::demand::BoundedPareto;
use hot_econ::pricing::PricedCustomer;
use hot_geo::gravity::TrafficMatrix;
use hot_geo::point::Point;
use hot_geo::population::Census;
use hot_graph::graph::{Graph, NodeId};
use rand::Rng;

/// Configuration of the ISP generator.
#[derive(Clone, Debug)]
pub struct IspConfig {
    /// Number of POPs (the largest cities get them).
    pub n_pops: usize,
    /// Total customers across all metros (split ∝ city population).
    pub total_customers: usize,
    /// Router degree cap (0 = unlimited).
    pub max_router_degree: usize,
    /// Backbone design knobs.
    pub backbone: BackboneConfig,
    /// Cost-based or profit-based design.
    pub formulation: Formulation,
}

impl Default for IspConfig {
    fn default() -> Self {
        IspConfig {
            n_pops: 8,
            total_customers: 400,
            max_router_degree: 16,
            backbone: BackboneConfig::default(),
            formulation: Formulation::CostBased,
        }
    }
}

/// Std-dev of customer scatter around a city center (region units).
const METRO_RADIUS: f64 = 25.0;
/// Esau–Williams per-subtree demand capacity for access trees.
const ACCESS_CAPACITY: f64 = 60.0;
/// Facility-location opening cost per concentrator.
const CONCENTRATOR_OPENING_COST: f64 = 40.0;
/// Customer demand distribution.
const CUSTOMER_DEMAND: BoundedPareto = BoundedPareto {
    min: 1.0,
    max: 40.0,
    alpha: 1.2,
};
/// Local-search move budget for the metro buy-at-bulk stage.
const LOCAL_SEARCH_MOVES: usize = 200;

/// Generates one ISP topology from a census and its traffic matrix.
///
/// # Panics
///
/// Panics if the census has fewer cities than `config.n_pops`, or the
/// traffic matrix size disagrees with the census.
pub fn generate(
    census: &Census,
    traffic: &TrafficMatrix,
    config: &IspConfig,
    rng: &mut impl Rng,
) -> IspTopology {
    assert!(config.n_pops >= 1, "need at least one POP");
    assert!(
        census.cities.len() >= config.n_pops,
        "census has {} cities, need {}",
        census.cities.len(),
        config.n_pops
    );
    assert_eq!(
        traffic.len(),
        census.cities.len(),
        "traffic matrix / census mismatch"
    );
    let pops: Vec<usize> = (0..config.n_pops).collect(); // rank order = index
    let pop_points: Vec<Point> = pops.iter().map(|&c| census.cities[c].location).collect();
    // ---- Level 1: backbone ----
    let bb = backbone::design(
        &pop_points,
        |i, j| traffic.demand(pops[i], pops[j]),
        &config.backbone,
    );
    // ---- Levels 2+3 per metro ----
    // Backbone, metro and access links are all provisioned from the
    // 2003 cable catalog.
    let catalog = CableCatalog::realistic_2003();
    let metro_cost = LinkCost::cables_only(catalog.clone());
    let pop_population: f64 = pops.iter().map(|&c| census.cities[c].population).sum();
    let mut rejected_customers = 0usize;
    // Assemble everything as (nodes, edges) lists first, then build the
    // graph (simpler than mutating while iterating).
    let mut routers: Vec<Router> = pop_points
        .iter()
        .zip(&pops)
        .map(|(&location, &city)| Router {
            role: RouterRole::Backbone,
            city,
            location,
        })
        .collect();
    let mut links: Vec<(usize, usize, Link)> = Vec::new();
    for (k, &(a, b)) in bb.edges.iter().enumerate() {
        let (cable_idx, instances, _) = catalog.best_single_type(bb.flows[k]);
        let cable = catalog.types()[cable_idx];
        links.push((
            a,
            b,
            Link {
                kind: LinkKind::Backbone,
                length: bb.lengths[k],
                flow: bb.flows[k],
                capacity: cable.capacity * instances.max(1) as f64,
                cable: cable.name,
            },
        ));
    }
    for (p, &city) in pops.iter().enumerate() {
        let city_info = &census.cities[city];
        let share = city_info.population / pop_population;
        let n_cust = ((config.total_customers as f64 * share).round() as usize).max(1);
        // Scatter customers around the city center.
        let locations: Vec<Point> = (0..n_cust)
            .map(|_| {
                let (g1, g2) = gaussian_pair(rng);
                census.region.clamp(Point::new(
                    city_info.location.x + g1 * METRO_RADIUS,
                    city_info.location.y + g2 * METRO_RADIUS,
                ))
            })
            .collect();
        let demands: Vec<f64> = (0..n_cust)
            .map(|_| CUSTOMER_DEMAND.sample(rng).value())
            .collect();
        // Formulation: which customers does this ISP serve?
        let priced: Vec<PricedCustomer> = (0..n_cust)
            .map(|i| PricedCustomer {
                customer: i,
                revenue: config.formulation.revenue(demands[i]),
                incremental_cost: metro_cost
                    .cost(locations[i].dist(&city_info.location), demands[i]),
            })
            .collect();
        let mut served = config.formulation.select_customers(priced);
        served.sort_unstable();
        rejected_customers += n_cust - served.len();
        if served.is_empty() {
            continue; // this metro attracts no profitable customers
        }
        let cust_points: Vec<Point> = served.iter().map(|&i| locations[i]).collect();
        let cust_demands: Vec<f64> = served.iter().map(|&i| demands[i]).collect();
        // Concentrator placement: candidate sites are a subsample of the
        // served customer locations plus the city center.
        let mut sites: Vec<Point> = vec![city_info.location];
        let stride = (cust_points.len() / 8).max(1);
        sites.extend(cust_points.iter().step_by(stride).copied());
        let fac = concentrator::solve(
            &FacilityInstance {
                sites,
                customers: cust_points.clone(),
                demands: cust_demands.clone(),
                opening_cost: CONCENTRATOR_OPENING_COST,
            },
            2,
        );
        // Register concentrator routers.
        let conc_nodes: Vec<usize> = fac
            .open
            .iter()
            .map(|&s| {
                let location = if s == 0 {
                    city_info.location
                } else {
                    // site index maps back into the subsampled customers
                    cust_points[(s - 1) * stride]
                };
                routers.push(Router {
                    role: RouterRole::Distribution,
                    city,
                    location,
                });
                routers.len() - 1
            })
            .collect();
        // Access trees per concentrator (Esau–Williams).
        let mut conc_demand = vec![0.0f64; fac.open.len()];
        for (ci, &site) in fac.open.iter().enumerate() {
            let members: Vec<usize> = (0..cust_points.len())
                .filter(|&i| fac.assignment[i] == site)
                .collect();
            if members.is_empty() {
                continue;
            }
            let max_d = members.iter().map(|&i| cust_demands[i]).fold(0.0, f64::max);
            let inst = CmstInstance {
                center: routers[conc_nodes[ci]].location,
                terminals: members.iter().map(|&i| cust_points[i]).collect(),
                demands: members.iter().map(|&i| cust_demands[i]).collect(),
                capacity: ACCESS_CAPACITY.max(max_d),
            };
            let sol = esau_williams::solve(&inst);
            // Register customer nodes.
            let cust_nodes: Vec<usize> = members
                .iter()
                .map(|&i| {
                    routers.push(Router {
                        role: RouterRole::Customer,
                        city,
                        location: cust_points[i],
                    });
                    routers.len() - 1
                })
                .collect();
            // Uplink flow per terminal = demand of its subtree.
            let up_flows = access_uplink_flows(&sol.parent, &inst.demands);
            for (t, parent) in sol.parent.iter().enumerate() {
                let (to, length) = match parent {
                    None => (conc_nodes[ci], inst.terminals[t].dist(&inst.center)),
                    Some(u) => (cust_nodes[*u], inst.terminals[t].dist(&inst.terminals[*u])),
                };
                let flow = up_flows[t];
                let (cable_idx, instances, _) = catalog.best_single_type(flow);
                let cable = catalog.types()[cable_idx];
                links.push((
                    cust_nodes[t],
                    to,
                    Link {
                        kind: LinkKind::Access,
                        length,
                        flow,
                        capacity: cable.capacity * instances.max(1) as f64,
                        cable: cable.name,
                    },
                ));
            }
            conc_demand[ci] = inst.demands.iter().sum();
        }
        // Metro distribution: buy-at-bulk from concentrators to the POP.
        let bab_customers: Vec<BabCustomer> = conc_nodes
            .iter()
            .zip(&conc_demand)
            .filter(|(_, &d)| d > 0.0)
            .map(|(&node, &d)| BabCustomer {
                location: routers[node].location,
                demand: d,
            })
            .collect();
        let bab_node_map: Vec<usize> = conc_nodes
            .iter()
            .zip(&conc_demand)
            .filter(|(_, &d)| d > 0.0)
            .map(|(&node, _)| node)
            .collect();
        if !bab_customers.is_empty() {
            let inst = Instance::new(city_info.location, bab_customers, metro_cost.clone());
            let out = greedy::mmp_plus_improve(&inst, rng, LOCAL_SEARCH_MOVES);
            let flows = out.solution.uplink_flows(&inst);
            for v in 1..out.solution.len() {
                let parent = out
                    .solution
                    .tree
                    .parent(NodeId(v as u32))
                    .expect("non-root")
                    .index();
                let from = bab_node_map[v - 1];
                let to = if parent == 0 {
                    p
                } else {
                    bab_node_map[parent - 1]
                };
                let length = inst.node_point(v).dist(&inst.node_point(parent));
                // Skip degenerate self-links (a concentrator located at
                // the POP center would map to the POP node).
                if from == to {
                    continue;
                }
                let (cable_idx, instances, _) = catalog.best_single_type(flows[v]);
                let cable = catalog.types()[cable_idx];
                links.push((
                    from,
                    to,
                    Link {
                        kind: LinkKind::Metro,
                        length,
                        flow: flows[v],
                        capacity: cable.capacity * instances.max(1) as f64,
                        cable: cable.name,
                    },
                ));
            }
        }
    }
    // ---- Technology constraint: degree cap ----
    let (graph, pop_routers) =
        build_graph_with_degree_cap(&routers, &links, config.max_router_degree, config.n_pops);
    IspTopology {
        graph,
        pop_cities: pops,
        pop_routers,
        rejected_customers,
    }
}

/// Subtree demand carried on each terminal's uplink in an Esau–Williams
/// forest.
fn access_uplink_flows(parent: &[Option<usize>], demands: &[f64]) -> Vec<f64> {
    let n = parent.len();
    let mut flow = demands.to_vec();
    // Process nodes deepest-first: repeatedly push leaves upward.
    let mut children_left = vec![0usize; n];
    for p in parent.iter().flatten() {
        children_left[*p] += 1;
    }
    let mut stack: Vec<usize> = (0..n).filter(|&v| children_left[v] == 0).collect();
    while let Some(v) = stack.pop() {
        if let Some(p) = parent[v] {
            flow[p] += flow[v];
            children_left[p] -= 1;
            if children_left[p] == 0 {
                stack.push(p);
            }
        }
    }
    flow
}

/// Re-enforces a router degree cap on an existing annotated graph by
/// splitting overloaded routers into chassis chains (the same line-card
/// model used during generation). Pre-existing chassis links count toward
/// degree like any other link. Used by the peering module, whose
/// inter-ISP links are added after per-ISP generation.
pub fn enforce_degree_cap(graph: &Graph<Router, Link>, max_degree: usize) -> Graph<Router, Link> {
    let routers: Vec<Router> = graph.node_ids().map(|v| *graph.node_weight(v)).collect();
    let links: Vec<(usize, usize, Link)> = graph
        .edges()
        .map(|(_, a, b, l)| (a.index(), b.index(), *l))
        .collect();
    build_graph_with_degree_cap(&routers, &links, max_degree, 0).0
}

/// Builds the final graph, splitting any router whose degree exceeds
/// `max_degree` into a chain of co-located chassis.
///
/// Returns the graph and the node ids of the primary chassis of the first
/// `n_pops` routers (the POP backbone routers).
fn build_graph_with_degree_cap(
    routers: &[Router],
    links: &[(usize, usize, Link)],
    max_degree: usize,
    n_pops: usize,
) -> (Graph<Router, Link>, Vec<NodeId>) {
    let n = routers.len();
    let mut degree = vec![0usize; n];
    for &(a, b, _) in links {
        degree[a] += 1;
        degree[b] += 1;
    }
    let mut graph: Graph<Router, Link> = Graph::with_capacity(n, links.len());
    // chassis[v] = list of graph nodes implementing router v.
    let mut chassis: Vec<Vec<NodeId>> = Vec::with_capacity(n);
    // remaining external port budget per graph node.
    let mut ports: Vec<usize> = Vec::new();
    for (v, r) in routers.iter().enumerate() {
        let k = required_chassis(degree[v], max_degree);
        let mut ids = Vec::with_capacity(k);
        for i in 0..k {
            let id = graph.add_node(*r);
            // Chain ports: inner chassis use 2, ends use 1 (k == 1 uses 0).
            let chain_ports = if k == 1 {
                0
            } else if i == 0 || i == k - 1 {
                1
            } else {
                2
            };
            ports.push(if max_degree == 0 {
                usize::MAX
            } else {
                max_degree - chain_ports
            });
            ids.push(id);
        }
        for w in ids.windows(2) {
            graph.add_edge(
                w[0],
                w[1],
                Link {
                    kind: LinkKind::Chassis,
                    length: 0.0,
                    flow: 0.0,
                    capacity: f64::INFINITY,
                    cable: "chassis",
                },
            );
        }
        chassis.push(ids);
    }
    let pick = |v: usize, ports: &mut Vec<usize>| -> NodeId {
        let id = chassis[v]
            .iter()
            .copied()
            .find(|id| ports[id.index()] > 0)
            .expect("chassis sizing guarantees a free port");
        ports[id.index()] -= 1;
        id
    };
    for &(a, b, link) in links {
        let na = pick(a, &mut ports);
        let nb = pick(b, &mut ports);
        graph.add_edge(na, nb, link);
    }
    let pop_routers = (0..n_pops).map(|p| chassis[p][0]).collect();
    (graph, pop_routers)
}

/// Minimum number of chassis so that `k·max − 2(k−1) ≥ degree`.
fn required_chassis(degree: usize, max_degree: usize) -> usize {
    if max_degree == 0 || degree <= max_degree {
        return 1;
    }
    assert!(
        max_degree >= 3,
        "degree cap below 3 cannot host chassis chains"
    );
    let mut k = 2;
    while k * max_degree - 2 * (k - 1) < degree {
        k += 1;
    }
    k
}

/// One pair of independent standard Gaussians via Box–Muller.
fn gaussian_pair(rng: &mut impl Rng) -> (f64, f64) {
    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_econ::pricing::RevenueModel;
    use hot_graph::traversal::is_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_setup(seed: u64) -> (Census, TrafficMatrix) {
        let census = Census::synthesize(12, &mut StdRng::seed_from_u64(seed));
        let traffic = TrafficMatrix::gravity(&census);
        (census, traffic)
    }

    fn small_config() -> IspConfig {
        IspConfig {
            n_pops: 4,
            total_customers: 60,
            ..IspConfig::default()
        }
    }

    #[test]
    fn pipeline_produces_connected_topology() {
        let (census, traffic) = small_setup(1);
        let mut rng = StdRng::seed_from_u64(2);
        let isp = generate(&census, &traffic, &small_config(), &mut rng);
        assert!(is_connected(&isp.graph), "ISP graph must be connected");
        assert_eq!(isp.pop_cities.len(), 4);
        assert!(isp.count_role(RouterRole::Backbone) >= 4);
        assert!(isp.count_role(RouterRole::Distribution) >= 4);
        assert!(isp.count_role(RouterRole::Customer) > 30);
        assert!(isp.count_kind(LinkKind::Backbone) >= 3);
        assert!(isp.count_kind(LinkKind::Access) > 0);
        assert_eq!(isp.rejected_customers, 0); // cost-based serves everyone
    }

    #[test]
    fn degree_cap_enforced() {
        let (census, traffic) = small_setup(3);
        let mut rng = StdRng::seed_from_u64(4);
        let mut config = small_config();
        config.max_router_degree = 6;
        let isp = generate(&census, &traffic, &config, &mut rng);
        for v in isp.graph.node_ids() {
            assert!(
                isp.graph.degree(v) <= 6,
                "node {:?} has degree {}",
                v,
                isp.graph.degree(v)
            );
        }
        assert!(is_connected(&isp.graph));
    }

    #[test]
    fn unlimited_degree_no_chassis_links() {
        let (census, traffic) = small_setup(5);
        let mut rng = StdRng::seed_from_u64(6);
        let mut config = small_config();
        config.max_router_degree = 0;
        let isp = generate(&census, &traffic, &config, &mut rng);
        assert_eq!(isp.count_kind(LinkKind::Chassis), 0);
    }

    #[test]
    fn profit_based_rejects_customers() {
        let (census, traffic) = small_setup(7);
        let mut config = small_config();
        // Revenue so low that distant customers are unprofitable.
        config.formulation = Formulation::ProfitBased {
            revenue: RevenueModel::FlatPerCustomer { revenue: 30.0 },
        };
        let mut rng = StdRng::seed_from_u64(8);
        let isp = generate(&census, &traffic, &config, &mut rng);
        assert!(
            isp.rejected_customers > 0,
            "expected some unprofitable customers"
        );
        // Cost-based on the same census serves everyone.
        let mut rng = StdRng::seed_from_u64(8);
        let cost_isp = generate(&census, &traffic, &small_config(), &mut rng);
        assert!(cost_isp.count_role(RouterRole::Customer) > isp.count_role(RouterRole::Customer));
    }

    #[test]
    fn deterministic_given_seed() {
        let (census, traffic) = small_setup(9);
        let a = generate(
            &census,
            &traffic,
            &small_config(),
            &mut StdRng::seed_from_u64(10),
        );
        let b = generate(
            &census,
            &traffic,
            &small_config(),
            &mut StdRng::seed_from_u64(10),
        );
        assert_eq!(a.graph.node_count(), b.graph.node_count());
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
        assert_eq!(a.graph.degree_sequence(), b.graph.degree_sequence());
    }

    #[test]
    fn links_have_positive_capacity_and_flow_fits() {
        let (census, traffic) = small_setup(11);
        let mut rng = StdRng::seed_from_u64(12);
        let isp = generate(&census, &traffic, &small_config(), &mut rng);
        for (_, _, _, l) in isp.graph.edges() {
            if l.kind != LinkKind::Chassis {
                assert!(l.capacity > 0.0);
                assert!(
                    l.flow <= l.capacity + 1e-9,
                    "flow {} > capacity {}",
                    l.flow,
                    l.capacity
                );
            }
        }
    }

    #[test]
    fn required_chassis_sizing() {
        assert_eq!(required_chassis(5, 0), 1);
        assert_eq!(required_chassis(5, 8), 1);
        assert_eq!(required_chassis(8, 8), 1);
        // 9 links, cap 8: 2 chassis give 2*8-2 = 14 >= 9.
        assert_eq!(required_chassis(9, 8), 2);
        // 15 links, cap 8: 2 chassis give 14 < 15 -> 3 chassis (20).
        assert_eq!(required_chassis(15, 8), 3);
        assert_eq!(required_chassis(3, 3), 1);
        // cap 3: k chassis host 3k - 2(k-1) = k + 2 links.
        assert_eq!(required_chassis(6, 3), 4);
    }

    #[test]
    fn access_uplink_flow_computation() {
        // Forest: 0 -> None (root), 1 -> 0, 2 -> 1, 3 -> None.
        let parent = vec![None, Some(0), Some(1), None];
        let demands = vec![1.0, 2.0, 3.0, 4.0];
        let flows = access_uplink_flows(&parent, &demands);
        assert_eq!(flows, vec![6.0, 5.0, 3.0, 4.0]);
    }

    #[test]
    fn backbone_flows_respect_gravity_ranking() {
        // The heaviest backbone link flow should be positive on a
        // gravity-driven instance.
        let (census, traffic) = small_setup(13);
        let mut rng = StdRng::seed_from_u64(14);
        let isp = generate(&census, &traffic, &small_config(), &mut rng);
        let max_bb_flow = isp
            .graph
            .edges()
            .filter(|(_, _, _, l)| l.kind == LinkKind::Backbone)
            .map(|(_, _, _, l)| l.flow)
            .fold(0.0, f64::max);
        assert!(max_bb_flow > 0.0);
    }
}
