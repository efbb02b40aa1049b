//! Traced replay of `generator-matrix`: the computation of
//! `hot_exp::scenarios::e6::generator_reports`, with
//! `MetricReport::compute` split into its spectral, hierarchy and
//! remaining metric calls.

use crate::layers::{BASELINES, GENERATORS, HIERARCHY, REPORT_REST, SPECTRAL};
use crate::trace::Tracer;
use hot_baselines::{ba, brite, glp, plrg, random, transit_stub, waxman};
use hot_core::buyatbulk::{mmp, problem::Instance};
use hot_core::fkp::{grow, FkpConfig};
use hot_core::isp::generator::{generate, IspConfig};
use hot_econ::cable::CableCatalog;
use hot_econ::cost::LinkCost;
use hot_exp::fixtures::standard_geography;
use hot_exp::scenarios::e6::Params;
use hot_graph::graph::Graph;
use hot_graph::traversal::{component_count, largest_component_size};
use hot_metrics::assortativity::assortativity;
use hot_metrics::clustering::mean_clustering;
use hot_metrics::degree_dist::summarize;
use hot_metrics::distortion::distortion;
use hot_metrics::expansion::expansion_at;
use hot_metrics::expfit::classify;
use hot_metrics::hierarchy::hierarchy;
use hot_metrics::paths::path_metrics;
use hot_metrics::resilience::mean_pairwise_connectivity;
use hot_metrics::spectral::spectral_summary;
use hot_metrics::surrogate::degree_surrogate;
use hot_metrics::MetricReport;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `MetricReport::compute` skips the dense spectral pass above this
/// node count (its private `SPECTRAL_LIMIT`; the equivalence test
/// catches drift).
const SPECTRAL_LIMIT: usize = 3000;

/// A generated topology, stripped to its structure (every metric in
/// the battery reads structure only; `Graph::map` keeps adjacency
/// order).
pub type Plain = Graph<(), ()>;

fn plain<N, E>(g: &Graph<N, E>) -> Plain {
    g.map(|_, _| (), |_, _| ())
}

/// The ten-row generator battery plus the ISP's degree surrogate, in
/// the scenario's row order and RNG streams.
pub fn build(p: &Params, seed: u64, tr: &mut Tracer) -> Vec<(&'static str, Plain)> {
    let n = p.n;
    let mut rows = Vec::new();
    tr.span(GENERATORS, || {
        let mut rng = StdRng::seed_from_u64(seed);
        let low = grow(
            &FkpConfig {
                n,
                alpha: 10.0,
                ..FkpConfig::default()
            },
            &mut rng,
        );
        let high = grow(
            &FkpConfig {
                n,
                alpha: 4.0 * n as f64,
                ..FkpConfig::default()
            },
            &mut rng,
        );
        rows.push(("fkp(a=10)", plain(&low.to_graph())));
        rows.push(("fkp(a=4n)", plain(&high.to_graph())));
        let mut rng = StdRng::seed_from_u64(seed + 1);
        let cost = LinkCost::cables_only(CableCatalog::realistic_2003());
        let inst = Instance::random_uniform(n - 1, 15.0, cost, &mut rng);
        let sol = mmp::solve(&inst, &mut rng);
        rows.push(("buy-at-bulk", plain(&sol.to_graph(&inst))));
    });
    let isp = tr.span(GENERATORS, || {
        let (census, traffic) = standard_geography(p.cities, seed + 2);
        let config = IspConfig {
            n_pops: p.isp_pops,
            total_customers: p.isp_customers,
            ..IspConfig::default()
        };
        generate(
            &census,
            &traffic,
            &config,
            &mut StdRng::seed_from_u64(seed + 2),
        )
    });
    rows.push(("isp(full)", plain(&isp.graph)));
    tr.span(BASELINES, || {
        let mut rng = StdRng::seed_from_u64(seed + 3);
        rows.push(("ba(m=2)", ba::generate(n, 2, &mut rng)));
        let g = glp::generate(
            &glp::GlpConfig {
                n,
                ..glp::GlpConfig::default()
            },
            &mut rng,
        );
        rows.push(("glp", g));
        rows.push(("plrg(g=2.2)", plrg::generate(n, 2.2, 1, &mut rng)));
        let mut rng = StdRng::seed_from_u64(seed + 4);
        let g = waxman::generate(
            &waxman::WaxmanConfig {
                n,
                alpha: 0.1,
                beta: 0.25,
                ..waxman::WaxmanConfig::default()
            },
            &mut rng,
        );
        rows.push(("waxman", plain(&g)));
        let (td, ts, spt, ss) = p.transit_stub;
        let g = transit_stub::generate(
            &transit_stub::TransitStubConfig {
                transit_domains: td,
                transit_size: ts,
                stubs_per_transit_node: spt,
                stub_size: ss,
                ..transit_stub::TransitStubConfig::default()
            },
            &mut rng,
        );
        rows.push(("transit-stub", plain(&g)));
        let g = brite::generate(
            &brite::BriteConfig {
                n,
                ..brite::BriteConfig::default()
            },
            &mut rng,
        );
        rows.push(("brite", plain(&g)));
        let mut rng = StdRng::seed_from_u64(seed + 5);
        rows.push(("gnm(matched)", random::gnm(n, 2 * n - 3, &mut rng)));
        // The degree-preserving null model of the ISP row.
        let mut rng = StdRng::seed_from_u64(seed + 6);
        let surrogate = degree_surrogate(&isp.graph, p.surrogate_swaps, &mut rng);
        rows.push(("isp-surrogate", plain(&surrogate)));
    });
    rows
}

/// `MetricReport::compute` per graph, field by field.
pub fn analyze(graphs: &[(&'static str, Plain)], tr: &mut Tracer) -> Vec<MetricReport> {
    graphs
        .iter()
        .map(|(name, g)| {
            let n = g.node_count();
            let spectral = (n <= SPECTRAL_LIMIT && n > 0).then(|| {
                tr.count(SPECTRAL, "nodes", n as u64);
                // Adjacency, Laplacian and shifted Laplacian: three
                // dense n×n f64 matrices per call.
                tr.count(SPECTRAL, "dense_bytes", 3 * 8 * (n as u64) * (n as u64));
                tr.span(SPECTRAL, || spectral_summary(g))
            });
            tr.count(HIERARCHY, "brandes_sources", n as u64);
            let hierarchy = tr.span(HIERARCHY, || hierarchy(g));
            tr.span(REPORT_REST, || {
                let verdict = classify(&g.degree_sequence());
                let paths = path_metrics(g);
                MetricReport {
                    name: name.to_string(),
                    nodes: n,
                    edges: g.edge_count(),
                    components: component_count(g),
                    giant_fraction: if n > 0 {
                        largest_component_size(g) as f64 / n as f64
                    } else {
                        0.0
                    },
                    degree: summarize(g),
                    powerlaw_exponent: verdict.power.map(|f| f.exponent),
                    tail: verdict.class,
                    mean_clustering: mean_clustering(g),
                    assortativity: assortativity(g),
                    mean_distance: paths.mean_distance,
                    diameter: paths.diameter,
                    expansion3: expansion_at(g, 3),
                    resilience: mean_pairwise_connectivity(g),
                    distortion: distortion(g),
                    hierarchy,
                    spectral_radius: spectral.map(|s| s.radius),
                    algebraic_connectivity: spectral.map(|s| s.algebraic_connectivity),
                }
            })
        })
        .collect()
}
