//! Cross-crate integration tests: full pipelines from geography through
//! design to metrics, exercised through the public facade API only.

use hotgen::core::buyatbulk::{exact, greedy, mmp, routing::build_report};
use hotgen::graph::traversal::is_connected;
use hotgen::graph::tree::is_tree;
use hotgen::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn geography(seed: u64) -> (Census, TrafficMatrix) {
    let census = Census::synthesize(20, &mut StdRng::seed_from_u64(seed));
    let traffic = TrafficMatrix::gravity(&census);
    (census, traffic)
}

#[test]
fn census_to_isp_to_metrics() {
    let (census, traffic) = geography(1);
    let config = IspConfig {
        n_pops: 5,
        total_customers: 120,
        ..IspConfig::default()
    };
    let isp = generate_isp(&census, &traffic, &config, &mut StdRng::seed_from_u64(2));
    assert!(is_connected(&isp.graph));
    // Hierarchy levels all present.
    assert!(isp.count_role(RouterRole::Backbone) >= config.n_pops);
    assert!(isp.count_role(RouterRole::Distribution) > 0);
    assert!(isp.count_role(RouterRole::Customer) > 80);
    // The metric battery runs end-to-end on the result.
    let report = MetricReport::compute("isp", &isp.graph);
    assert_eq!(report.nodes, isp.graph.node_count());
    assert_eq!(report.components, 1);
    assert!(report.resilience >= 1.0);
    // ISP access plant is tree-dominated: distortion near 1.
    assert!(report.distortion < 1.4, "distortion {}", report.distortion);
}

#[test]
fn buyatbulk_full_stack_consistency() {
    // MMP -> local search -> build report, with invariant checks between
    // every pair of representations.
    let mut rng = StdRng::seed_from_u64(3);
    let cost = LinkCost::cables_only(CableCatalog::realistic_2003());
    let instance = Instance::random_uniform(60, 12.0, cost, &mut rng);
    let out = greedy::mmp_plus_improve(&instance, &mut rng, 1000);
    let solution = &out.solution;
    assert!(is_tree(&solution.to_graph(&instance)));
    // Flow conservation: sink inflow equals total demand.
    let flows = solution.uplink_flows(&instance);
    assert!((flows[0] - instance.total_demand()).abs() < 1e-6);
    // Build report totals agree with direct computation.
    let report = build_report(&instance, solution);
    assert!((report.total_cost - solution.total_cost(&instance)).abs() < 1e-6);
    let km_sum: f64 = report.cable_km.iter().sum();
    assert!(km_sum >= report.total_length - 1e-9); // instances >= 1 per link
                                                   // Every link's installed capacity covers its flow.
    for link in &report.links {
        assert!(link.utilization <= 1.0 + 1e-9);
        assert!(link.flow > 0.0);
    }
}

#[test]
fn heuristics_bounded_by_exact_on_tiny_instances() {
    let cost = LinkCost::cables_only(CableCatalog::realistic_2003());
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let instance = Instance::random_uniform(6, 25.0, cost.clone(), &mut rng);
        let (_, opt) = exact::solve(&instance);
        let mmp_cost = mmp::solve(&instance, &mut rng).total_cost(&instance);
        let ls = greedy::mmp_plus_improve(&instance, &mut rng, 500).final_cost;
        assert!(mmp_cost >= opt - 1e-9);
        assert!(ls >= opt - 1e-9);
        // Empirical constant factor stays modest (MMP's guarantee).
        assert!(
            mmp_cost / opt < 2.0,
            "seed {}: ratio {}",
            seed,
            mmp_cost / opt
        );
    }
}

#[test]
fn internet_assembly_end_to_end() {
    let (census, traffic) = geography(5);
    let config = InternetConfig {
        n_isps: 12,
        max_pops: 6,
        customers_per_pop: 8,
        ..InternetConfig::default()
    };
    let net = generate_internet(&census, &traffic, &config, &mut StdRng::seed_from_u64(6));
    // AS graph connected; router graph connected and degree-capped.
    assert!(is_connected(&net.as_graph()));
    let router = net.combined_router_graph();
    assert!(is_connected(&router));
    let cap = net.router_degree_cap;
    assert!(router
        .degree_sequence()
        .into_iter()
        .all(|d| d as usize <= cap));
    // Hub ASes reach a large fraction of all ASes (business links are
    // unbounded); no router reaches more than a sliver of all routers
    // (ports are bounded). Compare normalized max degrees.
    let as_degrees = net.as_degrees();
    let as_reach = *as_degrees.iter().max().unwrap() as f64 / as_degrees.len() as f64;
    let router_degrees = router.degree_sequence();
    let router_reach = *router_degrees.iter().max().unwrap() as f64 / router_degrees.len() as f64;
    assert!(
        as_reach > 10.0 * router_reach,
        "AS reach {} vs router reach {}",
        as_reach,
        router_reach
    );
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let (census, traffic) = geography(7);
        let config = IspConfig {
            n_pops: 4,
            total_customers: 80,
            ..IspConfig::default()
        };
        let isp = generate_isp(&census, &traffic, &config, &mut StdRng::seed_from_u64(8));
        let report = MetricReport::compute("det", &isp.graph);
        (isp.graph.node_count(), isp.graph.edge_count(), report.row())
    };
    assert_eq!(run(), run());
}

#[test]
fn formulations_nest() {
    // Profit-based ISP serves a subset of the cost-based customer set,
    // never more.
    let (census, traffic) = geography(9);
    let base = IspConfig {
        n_pops: 4,
        total_customers: 100,
        ..IspConfig::default()
    };
    let cost_isp = generate_isp(&census, &traffic, &base, &mut StdRng::seed_from_u64(10));
    let profit_config = IspConfig {
        formulation: Formulation::ProfitBased {
            revenue: RevenueModel::FlatPerCustomer { revenue: 120.0 },
        },
        ..base
    };
    let profit_isp = generate_isp(
        &census,
        &traffic,
        &profit_config,
        &mut StdRng::seed_from_u64(10),
    );
    assert!(
        profit_isp.count_role(RouterRole::Customer) <= cost_isp.count_role(RouterRole::Customer)
    );
    assert_eq!(
        profit_isp.count_role(RouterRole::Customer) + profit_isp.rejected_customers,
        cost_isp.count_role(RouterRole::Customer)
    );
}
