//! Large scale: generate, snapshot, and analyze a 1,000,000-router
//! Internet end to end.
//!
//! The seed experiments run at ~1k–3k nodes; this example is the
//! production-scale path the u32/SoA CSR kernels exist for. It runs the
//! paper's full pipeline — census, gravity traffic, an
//! economics-designed ISP population with Zipf footprints, peering — into one
//! combined router graph (1M routers by default), saves the topology as
//! a binary [`Snapshot`], and runs the whole-graph analytics on the
//! flat CSR view: component structure, sampled path metrics, the E10
//! robust-yet-fragile sweep, trunk betweenness, and a million-flow
//! batched link-load run. Each stage prints wall-clock; the topology
//! stage also prints routers/second.
//!
//! ```text
//! cargo run --release --example large_scale                 # 1M routers
//! cargo run --release --example large_scale 250000          # smaller
//! cargo run --release --example large_scale 1000000 net.snap
//! ```
//!
//! With a snapshot path, the first run writes `net.snap` after
//! generating and later runs reload it instead of regenerating — the
//! analytics consume identical bytes either way. Set `FULL_BETWEENNESS=1`
//! to also run whole-graph betweenness: above 100k nodes the
//! pivot-sampled estimator stands in for exact Brandes automatically.

use hotgen::graph::csr::CsrGraph;
use hotgen::graph::io::Snapshot;
use hotgen::graph::parallel::default_threads;
use hotgen::metrics::hierarchy::{betweenness_estimate, gini};
use hotgen::metrics::paths::path_metrics;
use hotgen::metrics::robustness::{degradation_curve, robustness_score, RemovalPolicy};
use hotgen::prelude::*;
use hotgen::sim::demand::DemandMatrix;
use hotgen::sim::traffic::{link_loads, RoutePolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;

fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    println!("{:<44} {:>9.2} s", label, t0.elapsed().as_secs_f64());
    out
}

/// Everything the analytics below consume, identical whether the
/// topology was generated cold or reloaded from a snapshot.
struct Topology {
    csr: CsrGraph,
    /// Per-node: is this a customer router?
    customer: Vec<bool>,
    /// Per-edge: is this a trunk (backbone/metro/peering) link?
    trunk: Vec<bool>,
    /// Edge endpoints by edge id.
    endpoints: Vec<(u32, u32)>,
}

/// Generates the full economy at roughly `target_nodes` routers and
/// packs the analytics inputs into a [`Snapshot`].
fn generate_snapshot(target_nodes: usize, seed: u64) -> Snapshot {
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
    let g = net.combined_router_graph();
    let mut snap = Snapshot::new(CsrGraph::from_graph(&g));
    snap.node_u32.push((
        "customer".into(),
        g.node_ids()
            .map(|v| (g.node_weight(v).role == RouterRole::Customer) as u32)
            .collect(),
    ));
    snap.edge_u32.push((
        "trunk".into(),
        g.edge_ids()
            .map(|e| {
                matches!(
                    g.edge_weight(e).kind,
                    LinkKind::Backbone | LinkKind::Metro | LinkKind::Peering
                ) as u32
            })
            .collect(),
    ));
    let (mut ep_a, mut ep_b) = (Vec::new(), Vec::new());
    for (_, a, b, _) in g.edges() {
        ep_a.push(a.0);
        ep_b.push(b.0);
    }
    snap.edge_u32.push(("ep_a".into(), ep_a));
    snap.edge_u32.push(("ep_b".into(), ep_b));
    snap
}

fn unpack(snap: Snapshot) -> Topology {
    let col = |name: &str| -> Vec<u32> {
        snap.edge_u32
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("snapshot missing edge column {:?}", name))
            .1
            .clone()
    };
    let customer: Vec<bool> = snap
        .node_u32
        .iter()
        .find(|(n, _)| n == "customer")
        .expect("snapshot missing node column \"customer\"")
        .1
        .iter()
        .map(|&c| c != 0)
        .collect();
    let trunk: Vec<bool> = col("trunk").iter().map(|&t| t != 0).collect();
    let endpoints: Vec<(u32, u32)> = col("ep_a").into_iter().zip(col("ep_b")).collect();
    Topology {
        csr: snap.csr,
        customer,
        trunk,
        endpoints,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let target_nodes: usize = args
        .get(1)
        .map(|a| a.parse().expect("node count must be an integer"))
        .unwrap_or(1_000_000);
    let snap_path = args.get(2).map(Path::new);
    let threads = default_threads();
    println!(
        "worker threads: {}, target {} routers{}",
        threads,
        target_nodes,
        snap_path.map_or(String::new(), |p| format!(", snapshot {}", p.display()))
    );

    // Topology: reload the snapshot when it exists, generate (and
    // cache) otherwise. Analytics below never see the difference.
    let t0 = Instant::now();
    let (topo, how) = match snap_path {
        Some(path) if path.exists() => {
            let snap = timed("load binary snapshot", || {
                Snapshot::load(path).expect("snapshot loads")
            });
            (unpack(snap), "loaded")
        }
        _ => {
            let snap = timed("generate internet (Zipf ISP economy + peering)", || {
                generate_snapshot(target_nodes, 42)
            });
            if let Some(path) = snap_path {
                timed("write binary snapshot", || {
                    snap.save(path).expect("snapshot saves")
                });
            }
            (unpack(snap), "generated")
        }
    };
    let n = topo.csr.node_count();
    let m = topo.endpoints.len();
    println!(
        "topology ({}): {} routers, {} links, max degree {} — {:.0} routers/s",
        how,
        n,
        m,
        topo.csr.degree_sequence().into_iter().max().unwrap_or(0),
        n as f64 / t0.elapsed().as_secs_f64()
    );
    println!(
        "  giant component: {:.1}% of routers",
        100.0 * topo.csr.largest_component_size() as f64 / n.max(1) as f64
    );

    // The adjacency-list view, rebuilt from the endpoint columns — edge
    // ids and adjacency order match the generated graph exactly.
    let g: hotgen::graph::Graph<(), ()> = hotgen::graph::Graph::from_edges(
        n,
        topo.endpoints
            .iter()
            .map(|&(a, b)| (a as usize, b as usize, ())),
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
            &g,
            RemovalPolicy::RandomFailure,
            &fractions,
            &mut StdRng::seed_from_u64(44),
            threads,
        )
    });
    let attack = timed("degradation curve (degree attack)", || {
        degradation_curve(
            &g,
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
    let core = g.edge_subgraph(&topo.trunk);
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

    // Whole-graph betweenness on request: above 100k nodes the seeded
    // pivot estimator kicks in automatically.
    if std::env::var("FULL_BETWEENNESS").as_deref() == Ok("1") {
        let (b, sampled) = timed("whole-graph betweenness", || {
            betweenness_estimate(&topo.csr, threads)
        });
        println!(
            "  whole-graph betweenness gini {:.3} (sampled={})",
            gini(&b),
            sampled
        );
    }

    // Million-flow link loads on the batched tree-reuse engine: uniform
    // demand among ~1024 strided customers is > 1M ordered OD flows,
    // routed from one BFS tree per distinct source.
    let customers: Vec<u32> = (0..n as u32)
        .filter(|&v| topo.customer[v as usize])
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
        || link_loads(&topo.csr, &demand, RoutePolicy::TreePath, threads),
    );
    println!(
        "  {} flows routed ({} unrouted), mean {:.2} hops, load gini {:.3}",
        out.routed_flows,
        out.unrouted_flows,
        out.mean_hops(),
        gini(&out.link_load)
    );
}
