//! Large scale: generate and analyze a 1,000,000-router Internet end
//! to end.
//!
//! The seed experiments run at ~1k–3k nodes; this example is the
//! production-scale path the u32/SoA CSR kernels exist for. It runs the
//! paper's full pipeline — census, gravity traffic, an
//! economics-designed ISP population with Zipf footprints, peering — into one
//! combined router graph (1M routers by default), and runs the
//! whole-graph analytics on that graph and its flat CSR view: component
//! structure, sampled path metrics, the E10 robust-yet-fragile sweep,
//! trunk betweenness, and a million-flow batched link-load run. Each
//! stage prints wall-clock; the topology stage also prints routers/second.
//!
//! ```text
//! cargo run --release --example large_scale           # 1M routers
//! cargo run --release --example large_scale 250000    # smaller
//! ```
//!
//! The one optional argument is the target router count. Any other
//! argument list prints a usage line on stderr and exits with code 2.

use hotgen::core::isp::{Link, Router};
use hotgen::graph::csr::CsrGraph;
use hotgen::graph::parallel::default_threads;
use hotgen::metrics::hierarchy::{betweenness_estimate, gini};
use hotgen::metrics::paths::path_metrics;
use hotgen::metrics::robustness::{degradation_curve, robustness_score, RemovalPolicy};
use hotgen::prelude::*;
use hotgen::sim::demand::DemandMatrix;
use hotgen::sim::traffic::{link_loads, RoutePolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    println!("{:<44} {:>9.2} s", label, t0.elapsed().as_secs_f64());
    out
}

/// Generates the full economy at roughly `target_nodes` routers as one
/// combined router graph.
fn generate(target_nodes: usize, seed: u64) -> Graph<Router, Link> {
    let census = Census::synthesize(120, &mut StdRng::seed_from_u64(seed));
    let traffic = TrafficMatrix::gravity(&census);
    // Scale by growing the ISP population (Zipf footprints, largest ISP
    // 24 POPs) at a fixed 490 customers per POP: per-POP access design
    // (Esau-Williams trees, facility location) is superlinear in
    // customers-per-POP, so adding POPs keeps generation linear in the
    // target. Each POP contributes ~500 routers all told — customers
    // that survive the profitability screen plus concentrator,
    // distribution, and backbone infrastructure — so size the ISP
    // population by POP count.
    const MAX_POPS: usize = 24;
    const SIZE_EXPONENT: f64 = 0.8;
    const ROUTERS_PER_POP: f64 = 490.0;
    let mut n_isps = 0usize;
    let mut pops = 0usize;
    while (pops as f64) * ROUTERS_PER_POP < target_nodes as f64 || n_isps < 4 {
        n_isps += 1;
        let s = MAX_POPS as f64 / (n_isps as f64).powf(SIZE_EXPONENT);
        pops += (s.round() as usize).clamp(1, MAX_POPS);
    }
    let config = InternetConfig {
        n_isps,
        max_pops: MAX_POPS,
        size_exponent: SIZE_EXPONENT,
        customers_per_pop: 490,
        ..InternetConfig::default()
    };
    let net = generate_internet(
        &census,
        &traffic,
        &config,
        &mut StdRng::seed_from_u64(seed + 1),
    );
    net.combined_router_graph()
}

fn usage() -> ! {
    eprintln!("usage: large_scale [target-router-count]");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let target_nodes: usize = match args.as_slice() {
        [] => 1_000_000,
        [count] => count.parse().unwrap_or_else(|_| usage()),
        _ => usage(),
    };
    let threads = default_threads();
    println!(
        "worker threads: {}, target {} routers",
        threads, target_nodes
    );

    let t0 = Instant::now();
    let g = timed("generate internet (Zipf ISP economy + peering)", || {
        generate(target_nodes, 42)
    });
    let csr = CsrGraph::from_graph(&g);
    let n = csr.node_count();
    println!(
        "topology (generated): {} routers, {} links, max degree {} — {:.0} routers/s",
        n,
        g.edge_count(),
        csr.degree_sequence().into_iter().max().unwrap_or(0),
        n as f64 / t0.elapsed().as_secs_f64()
    );
    println!(
        "  giant component: {:.1}% of routers",
        100.0 * csr.largest_component_size() as f64 / n.max(1) as f64
    );

    let paths = timed("path metrics (sampled BFS sweep, one thread)", || {
        path_metrics(&g)
    });
    println!(
        "  mean distance {:.2} hops, diameter >= {}, exact={}",
        paths.mean_distance, paths.diameter, paths.exact
    );

    // E10 at scale: the masked-BFS sweep never copies the graph.
    let fractions = [0.01, 0.02, 0.05, 0.1];
    let random = timed("degradation curve (random failure)", || {
        degradation_curve(
            &csr,
            RemovalPolicy::RandomFailure,
            &fractions,
            &mut StdRng::seed_from_u64(44),
            threads,
        )
    });
    let attack = timed("degradation curve (degree attack)", || {
        degradation_curve(
            &csr,
            RemovalPolicy::DegreeAttack,
            &fractions,
            &mut StdRng::seed_from_u64(44),
            threads,
        )
    });
    println!(
        "  robustness score: random {:.3} vs attack {:.3} (robust-yet-fragile)",
        robustness_score(&random),
        robustness_score(&attack)
    );

    // Trunk betweenness: backbone + metro + peering, the transit core.
    let trunk: Vec<bool> = g
        .edge_ids()
        .map(|e| {
            matches!(
                g.edge_weight(e).kind,
                LinkKind::Backbone | LinkKind::Metro | LinkKind::Peering
            )
        })
        .collect();
    let core = g.edge_subgraph(&trunk);
    let core_mask = CsrGraph::from_graph(&core).largest_component_mask();
    let (core, _) = core.induced_subgraph(&core_mask);
    let core_csr = CsrGraph::from_graph(&core);
    let (b, sampled) = timed(
        &format!("trunk betweenness ({} nodes)", core.node_count()),
        || betweenness_estimate(&core_csr, threads),
    );
    let mut sorted = b.clone();
    sorted.sort_by(|x, y| y.partial_cmp(x).unwrap());
    let total: f64 = sorted.iter().sum();
    let top = sorted.iter().take(core.node_count() / 10).sum::<f64>();
    println!(
        "  top decile of trunk routers carries {:.0}% of trunk betweenness (sampled={})",
        100.0 * top / total.max(1e-12),
        sampled
    );

    // Million-flow link loads on the batched tree-reuse engine: uniform
    // demand among ~1024 strided customers is > 1M ordered OD flows,
    // routed from one BFS tree per distinct source.
    let customers: Vec<u32> = g
        .node_ids()
        .filter(|&v| g.node_weight(v).role == RouterRole::Customer)
        .map(|v| v.0)
        .collect();
    let n_sources = customers.len().min(1_024);
    let stride = (customers.len() / n_sources.max(1)).max(1);
    let mut mass = vec![0.0; n];
    for &v in customers.iter().step_by(stride).take(n_sources) {
        mass[v as usize] = 1.0;
    }
    // Explicit unit scale: the normalizing constructor sums demand over
    // all node pairs (O(n²)) and the load statistics below are
    // scale-invariant, so every routed flow just carries amount 1.
    let demand = DemandMatrix::from_masses_scaled(mass, None, 0.0, 1.0, 1.0);
    let out = timed(
        &format!("batched link loads ({} sources)", n_sources),
        || link_loads(&csr, &demand, RoutePolicy::TreePath, threads),
    );
    println!(
        "  {} flows routed ({} unrouted), mean {:.2} hops, load gini {:.3}",
        out.routed_flows,
        out.unrouted_flows,
        out.mean_hops(),
        gini(&out.link_load)
    );
}
