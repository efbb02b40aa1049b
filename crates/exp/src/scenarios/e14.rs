//! E14 (extension) — measured maps are incomplete and biased.
//!
//! §1: "the available data are known to provide incomplete router-level
//! maps"; §3.2 cites Rocketfuel-class measurement as the validation
//! substrate. We simulate the measurement itself on ground truth we
//! control: traceroute-style shortest-path campaigns from k vantages,
//! on three truths of increasing meshiness — a mostly-tree single ISP
//! (almost fully observable), the multi-ISP Internet router graph
//! (redundant links hide), and a BA mesh control (heavy hiding).

use crate::fixtures::standard_geography;
use crate::jsonout::Json;
use crate::registry::RunCtx;
use crate::report::{ExpReport, Section, Table};
use hot_baselines::ba;
use hot_core::isp::generator::{generate, IspConfig};
use hot_core::peering::{generate_internet, InternetConfig};
use hot_graph::csr::CsrGraph;
use hot_graph::graph::Graph;
use hot_metrics::bias::observed_degrees;
use hot_metrics::degree_dist::summarize_sample;
use hot_sim::probe::{run_campaign, ProbeCampaign};
use hot_sim::traceroute::strided_vantages;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Clone, Debug)]
pub struct Params {
    pub cities: usize,
    pub isp_pops: usize,
    pub isp_customers: usize,
    pub net_isps: usize,
    pub net_max_pops: usize,
    pub net_customers_per_pop: usize,
    pub ba_n: usize,
    pub ba_m: usize,
    /// Vantage counts swept per campaign.
    pub vantages: Vec<usize>,
}

impl Params {
    pub fn golden() -> Params {
        Params {
            cities: 12,
            isp_pops: 4,
            isp_customers: 100,
            net_isps: 8,
            net_max_pops: 4,
            net_customers_per_pop: 4,
            ba_n: 200,
            ba_m: 3,
            vantages: vec![1, 4, 16],
        }
    }

    pub fn full() -> Params {
        Params {
            cities: 30,
            isp_pops: 8,
            isp_customers: 400,
            net_isps: 20,
            net_max_pops: 8,
            net_customers_per_pop: 8,
            ba_n: 1000,
            ba_m: 3,
            vantages: vec![1, 4, 16, 64],
        }
    }
}

fn campaign<N, E>(
    name: &str,
    truth: &Graph<N, E>,
    vantage_counts: &[usize],
    threads: usize,
    weight: impl Fn(&E) -> f64,
) -> Section {
    let true_summary = summarize_sample(&truth.degree_sequence());
    // One CSR view and one latency slice serve every vantage count.
    let csr = CsrGraph::from_graph(truth);
    let latency: Vec<f64> = truth
        .edge_ids()
        .map(|e| weight(truth.edge_weight(e)))
        .collect();
    let mut t = Table::new(&["vantages", "node-cov", "edge-cov", "meandeg", "maxdeg"]);
    for &k in vantage_counts {
        if k == 0 {
            continue;
        }
        let vantages = strided_vantages(truth, k);
        // E19's batched campaign engine under latency forwarding, and
        // E19's observed degrees: one entry per observed node, in id
        // order, counting only observed links.
        let campaign = ProbeCampaign {
            vantages: &vantages,
            destinations: None,
            link_latency: Some(&latency),
        };
        let map = run_campaign(&csr, &campaign, threads).map;
        let observed: Vec<u32> = observed_degrees(&csr, &map.edge_seen)
            .into_iter()
            .zip(&map.node_seen)
            .filter_map(|(d, &seen)| seen.then_some(d))
            .collect();
        let s = summarize_sample(&observed);
        t.push(vec![
            k.into(),
            Json::Float(map.node_coverage),
            Json::Float(map.edge_coverage),
            Json::Float(s.mean),
            s.max.into(),
        ]);
    }
    t.push(vec![
        Json::str("truth"),
        Json::Float(1.0),
        Json::Float(1.0),
        Json::Float(true_summary.mean),
        true_summary.max.into(),
    ]);
    Section::new(format!(
        "{}: {} routers, {} links",
        name,
        truth.node_count(),
        truth.edge_count()
    ))
    .fact("true_mean_degree", true_summary.mean)
    .fact("true_max_degree", true_summary.max)
    .table(t)
}

pub fn run(p: &Params, ctx: RunCtx) -> ExpReport {
    let mut report = ExpReport::new(
        "e14",
        "traceroute-bias",
        "E14 (extension): traceroute sampling of known topologies",
        "path-union measurement misses exactly the redundant links that \
         never sit on a shortest path; the more meshy the truth, the \
         bigger the blind spot",
        &ctx,
    );
    report.param("cities", p.cities);
    report.param("isp_customers", p.isp_customers);
    report.param("net_isps", p.net_isps);
    report.param("ba_n", p.ba_n);
    report.param(
        "vantages",
        Json::Arr(p.vantages.iter().map(|&k| k.into()).collect()),
    );
    if p.cities < 2 || p.vantages.iter().all(|&k| k == 0) || p.ba_n <= p.ba_m {
        return report.into_skipped(format!(
            "degenerate parameters: cities = {}, vantages = {:?}, ba = ({}, {})",
            p.cities, p.vantages, p.ba_n, p.ba_m
        ));
    }
    let (census, traffic) = standard_geography(p.cities, ctx.seed);
    // (a) A single ISP: access trees dominate, so the map is nearly
    //     complete — the case where measurement happens to work.
    let isp = generate(
        &census,
        &traffic,
        &IspConfig {
            n_pops: p.isp_pops,
            total_customers: p.isp_customers,
            ..IspConfig::default()
        },
        &mut StdRng::seed_from_u64(ctx.seed + 14),
    );
    report.section(campaign(
        "single ISP (tree-dominated)",
        &isp.graph,
        &p.vantages,
        ctx.threads,
        |l| l.length.max(1e-9),
    ));
    // (b) The multi-ISP Internet: redundant backbones + peering diversity.
    let net = generate_internet(
        &census,
        &traffic,
        &InternetConfig {
            n_isps: p.net_isps,
            max_pops: p.net_max_pops,
            customers_per_pop: p.net_customers_per_pop,
            ..InternetConfig::default()
        },
        &mut StdRng::seed_from_u64(ctx.seed + 15),
    );
    let router_graph = net.combined_router_graph();
    report.section(campaign(
        "Internet router graph",
        &router_graph,
        &p.vantages,
        ctx.threads,
        |l| l.length.max(1e-9),
    ));
    // (c) A BA mesh control with unit link weights.
    let mesh = ba::generate(p.ba_n, p.ba_m, &mut StdRng::seed_from_u64(ctx.seed + 16));
    report.section(campaign(
        &format!("ba(m={}) mesh control", p.ba_m),
        &mesh,
        &p.vantages,
        ctx.threads,
        |_| 1.0,
    ));
    report.section(Section::new("interpretation").note(
        "the tree-dominated ISP is essentially fully observable — but the \
         meshes are not: backup backbone links, alternate peering paths, \
         and redundant mesh edges never appear on any shortest path, so \
         edge coverage plateaus well below 1 and the inferred mean degree \
         undershoots the truth no matter how many vantages are added. \
         Maps built this way systematically understate redundancy — §1's \
         warning, quantified.",
    ));
    report
}
