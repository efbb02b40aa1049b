//! Internet assembly: generate a population of ISPs over one shared
//! geography, interconnect them, and compare the AS-level and
//! router-level views (paper §2.3 + §3.2).
//!
//! ```text
//! cargo run --release --example internet_assembly
//! ```

use hotgen::core::isp::generator::IspConfig;
use hotgen::metrics::degree_dist::ascii_ccdf;
use hotgen::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let census = Census::synthesize(25, &mut StdRng::seed_from_u64(11));
    let traffic = TrafficMatrix::gravity(&census);
    let config = InternetConfig {
        n_isps: 30,
        max_pops: 10,
        tier1_count: 3,
        transit_per_isp: 2,
        customers_per_pop: 10,
        isp_template: IspConfig {
            max_router_degree: 12,
            ..IspConfig::default()
        },
        ..InternetConfig::default()
    };
    let net = generate_internet(&census, &traffic, &config, &mut StdRng::seed_from_u64(12));
    println!(
        "{} ISPs (largest: {} POPs; smallest: {} POP), {} peering links",
        net.isps.len(),
        net.isps[0].pop_cities.len(),
        net.isps.last().unwrap().pop_cities.len(),
        net.peering.len()
    );
    let as_degrees = net.as_degrees();
    println!("\nAS-level degree CCDF (business relationships, unbounded):");
    println!("{}", ascii_ccdf(&as_degrees, 48, 10));
    let router = net.combined_router_graph();
    let router_degrees = router.degree_sequence();
    println!(
        "router-level: {} routers, max degree {} (line-card cap {})",
        router.node_count(),
        router_degrees.iter().max().unwrap(),
        net.router_degree_cap
    );
    println!("router-level degree CCDF (technology-bounded):");
    println!("{}", ascii_ccdf(&router_degrees, 48, 10));
    println!(
        "same economy, two graphs, two laws — the paper's argument that \
         AS-level and router-level topologies have different generative \
         mechanisms."
    );
}
