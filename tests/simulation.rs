//! Integration tests for the simulation layer: protocols running on
//! topologies the generators produced, via the facade API.

use hotgen::bgp::{policy_summary_all, AsTopology, UNREACHED};
use hotgen::graph::csr::CsrGraph;
use hotgen::prelude::*;
use hotgen::sim::demand::Demand;
use hotgen::sim::failure::{route_demands, single_link_failures};
use hotgen::sim::probe::{run_campaign, ProbeCampaign};
use hotgen::sim::traceroute::strided_vantages;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup(seed: u64) -> (Census, TrafficMatrix) {
    let census = Census::synthesize(20, &mut StdRng::seed_from_u64(seed));
    let traffic = TrafficMatrix::gravity(&census);
    (census, traffic)
}

#[test]
fn routing_conserves_demand_on_generated_isp() {
    let (census, traffic) = setup(1);
    let config = IspConfig {
        n_pops: 5,
        total_customers: 100,
        ..IspConfig::default()
    };
    let isp = generate_isp(&census, &traffic, &config, &mut StdRng::seed_from_u64(2));
    let customers: Vec<NodeId> = isp
        .graph
        .node_ids()
        .filter(|&v| isp.graph.node_weight(v).role == RouterRole::Customer)
        .collect();
    let demands: Vec<Demand> = customers
        .windows(2)
        .map(|w| Demand {
            src: w[0],
            dst: w[1],
            amount: 2.0,
        })
        .collect();
    let outcome = route_demands(&isp.graph, &demands, 2);
    // The ISP graph is connected: everything routes.
    assert_eq!(outcome.unrouted_flows, 0);
    let total: f64 = demands.iter().map(|d| d.amount).sum();
    assert!((outcome.routed_traffic - total).abs() < 1e-9);
    // Load on any link never exceeds total traffic.
    assert!(outcome.max_load() <= total + 1e-9);
    // Each demand's path has >= 1 hop.
    assert!(outcome.mean_hops() >= 1.0);
}

#[test]
fn failure_sim_agrees_with_cut_structure() {
    // On the ISP's access tree, every loaded link is a cut for someone.
    let (census, traffic) = setup(3);
    let config = IspConfig {
        n_pops: 4,
        total_customers: 60,
        ..IspConfig::default()
    };
    let isp = generate_isp(&census, &traffic, &config, &mut StdRng::seed_from_u64(4));
    let customers: Vec<NodeId> = isp
        .graph
        .node_ids()
        .filter(|&v| isp.graph.node_weight(v).role == RouterRole::Customer)
        .collect();
    let demands: Vec<Demand> = customers
        .windows(2)
        .step_by(2)
        .map(|w| Demand {
            src: w[0],
            dst: w[1],
            amount: 1.0,
        })
        .collect();
    let summary = single_link_failures(&isp.graph, &demands, 2);
    // Customer uplinks are bridges: most failures strand something.
    assert!(summary.stranding_fraction > 0.5);
    // Stretch is a ratio >= 1 whenever defined.
    assert!(summary.mean_stretch >= 1.0);
}

#[test]
fn bgp_policy_never_shorter_and_internet_stays_reachable() {
    let (census, traffic) = setup(5);
    let config = InternetConfig {
        n_isps: 15,
        max_pops: 6,
        customers_per_pop: 5,
        ..InternetConfig::default()
    };
    let net = generate_internet(&census, &traffic, &config, &mut StdRng::seed_from_u64(6));
    let topo = AsTopology::from_internet(&net);
    // Valley-free >= shortest for all pairs; tier-1 spine keeps policy
    // reachability at 1.
    for src in 0..topo.len() {
        let vf = topo.propagate(src);
        let sp = topo.shortest(src);
        for (dst, &s) in sp.iter().enumerate() {
            if vf.reaches(dst) {
                assert!(s != UNREACHED, "policy route without graph route");
                assert!(vf.dist[dst] >= s);
            }
        }
    }
    let summary = policy_summary_all(&topo, 2);
    assert!((summary.policy_reachability() - 1.0).abs() < 1e-9);
    assert!(summary.mean_inflation_ratio() >= 1.0);
}

#[test]
fn traceroute_inference_is_conservative() {
    let (census, traffic) = setup(7);
    let config = IspConfig {
        n_pops: 5,
        total_customers: 80,
        ..IspConfig::default()
    };
    let isp = generate_isp(&census, &traffic, &config, &mut StdRng::seed_from_u64(8));
    let csr = CsrGraph::from_graph(&isp.graph);
    let latency: Vec<f64> = isp
        .graph
        .edge_ids()
        .map(|e| isp.graph.edge_weight(e).length.max(1e-9))
        .collect();
    let probe = |k: usize| {
        let vantages = strided_vantages(&isp.graph, k);
        let campaign = ProbeCampaign {
            vantages: &vantages,
            destinations: None,
            link_latency: Some(&latency),
        };
        run_campaign(&csr, &campaign, 2).map
    };
    let few = probe(2);
    let many = probe(16);
    // Coverage is monotone in vantage count and bounded by the truth.
    assert!(many.edge_coverage >= few.edge_coverage - 1e-12);
    assert!(many.edge_coverage <= 1.0 + 1e-12);
    // The inferred map never invents links.
    let (inferred, _) = csr.edge_masked(&many.edge_seen);
    assert!(inferred.edge_count() <= isp.graph.edge_count());
}

#[test]
fn surrogate_and_report_roundtrip() {
    // The assortativity metric + surrogate work through the facade on a
    // generated topology.
    use hotgen::metrics::assortativity::assortativity;
    use hotgen::metrics::surrogate::degree_surrogate;
    let (census, traffic) = setup(9);
    let config = IspConfig {
        n_pops: 4,
        total_customers: 80,
        ..IspConfig::default()
    };
    let isp = generate_isp(&census, &traffic, &config, &mut StdRng::seed_from_u64(10));
    // Assortativity is defined (degree variance exists) and in range.
    // Note: unlike AS graphs, this access-chain-heavy router graph can be
    // mildly assortative — Esau–Williams chains contribute many 2–2 edges.
    let r = assortativity(&isp.graph).expect("ISP has degree variance");
    assert!(
        (-1.0..=1.0).contains(&r),
        "assortativity {} out of range",
        r
    );
    let surrogate = degree_surrogate(&isp.graph, 10, &mut StdRng::seed_from_u64(11));
    assert_eq!(surrogate.degree_sequence(), isp.graph.degree_sequence());
    // Identical degree sequences give identical assortativity *support*
    // (both defined), though rewiring may change the value.
    assert!(assortativity(&surrogate).is_some());
    let report = MetricReport::compute("isp", &isp.graph);
    assert!((report.assortativity.unwrap() - r).abs() < 1e-12);
}
