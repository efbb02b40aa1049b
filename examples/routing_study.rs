//! Routing study: run an IGP over a generated ISP, inspect where the
//! load lands, and stress it with single-link failures — the "dynamics
//! of routing protocols" application the paper's abstract promises.
//!
//! ```text
//! cargo run --release --example routing_study
//! ```

use hotgen::graph::parallel::default_threads;
use hotgen::metrics::hierarchy::gini;
use hotgen::prelude::*;
use hotgen::sim::demand::Demand;
use hotgen::sim::failure::{route_demands, single_link_failures};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let census = Census::synthesize(30, &mut StdRng::seed_from_u64(21));
    let traffic = TrafficMatrix::gravity(&census);
    let config = IspConfig {
        n_pops: 8,
        total_customers: 300,
        ..IspConfig::default()
    };
    let isp = generate_isp(&census, &traffic, &config, &mut StdRng::seed_from_u64(22));
    println!(
        "ISP: {} routers, {} links",
        isp.graph.node_count(),
        isp.graph.edge_count()
    );
    // Customer-pair demands (deterministic golden-stride sample).
    let customers: Vec<NodeId> = isp
        .graph
        .node_ids()
        .filter(|&v| isp.graph.node_weight(v).role == RouterRole::Customer)
        .collect();
    let m = customers.len();
    let stride = ((m as f64 * 0.618) as usize).max(1);
    let demands: Vec<Demand> = (0..800)
        .map(|i| Demand {
            src: customers[i % m],
            dst: customers[(i * stride + 1) % m],
            amount: 1.0,
        })
        .filter(|d| d.src != d.dst)
        .collect();
    let threads = default_threads();
    let outcome = route_demands(&isp.graph, &demands, threads);
    let positive: Vec<f64> = outcome
        .link_load
        .iter()
        .copied()
        .filter(|&l| l > 0.0)
        .collect();
    println!(
        "routed {} demands at mean {:.1} hops; load gini {:.2}; max link load {:.0}",
        outcome.routed_flows,
        outcome.mean_hops(),
        gini(&positive),
        outcome.max_load()
    );
    // Which links carry the most? (Spoiler: the trunks the design sized.)
    let mut loaded: Vec<(usize, f64)> = outcome
        .link_load
        .iter()
        .enumerate()
        .filter(|(_, &l)| l > 0.0)
        .map(|(e, &l)| (e, l))
        .collect();
    loaded.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("\ntop-5 loaded links:");
    for (e, load) in loaded.iter().take(5) {
        let link = isp.graph.edge_weight(hotgen::graph::EdgeId(*e as u32));
        println!(
            "  {:?} link, {:.1} km, cable {:<7} load {:.0} (designed flow {:.0})",
            link.kind, link.length, link.cable, load, link.flow
        );
    }
    // Failure stress on the loaded links.
    let summary = single_link_failures(&isp.graph, &demands, threads);
    println!(
        "\nsingle-link failures over {} loaded links: {:.0}% strand traffic \
         (worst case {:.1}% of all traffic), survivors re-route at {:.3}x hops",
        summary.impacts.len(),
        summary.stranding_fraction * 100.0,
        summary.worst_stranded_fraction * 100.0,
        summary.mean_stretch
    );
    println!(
        "\naccess trees make most failures stranding events — exactly the \
         cost/survivability trade-off the backbone's redundancy requirement \
         (and E9b/E12) prices out."
    );
}
