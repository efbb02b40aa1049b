//! E19 (extension) — probe campaigns at production scale: what a
//! million traceroutes *can* and *cannot* see.
//!
//! E14 demonstrates the sampling-bias effect at toy scale with the
//! per-vantage reference engine; this scenario runs the real
//! measurement workload on the batched CSR probe pipeline
//! (`hot_sim::probe`): million-probe vantage-point campaigns against
//! the designed HOT internet (latency forwarding over the `hot-geo`
//! link lengths) and against GLP/BA degree-driven controls (hop
//! forwarding), then quantifies the observed-vs-true distortion with
//! `hot_metrics::bias` — degree CCDF, betweenness concentration
//! (Gini / top-decile share), coverage.
//!
//! The paper's §1/§3.2 point, at scale: the tree-like HOT design is
//! nearly fully observable from a handful of vantages, while the meshy
//! controls hide redundant links no matter how many probes are fired —
//! and the maps they yield overstate hierarchy and flatten the degree
//! tail.

use crate::fixtures::standard_geography;
use crate::jsonout::Json;
use crate::registry::RunCtx;
use crate::report::{ExpReport, Section, Table};
use hot_baselines::{ba, glp};
use hot_core::peering::{generate_internet, InternetConfig};
use hot_graph::csr::CsrGraph;
use hot_graph::graph::Graph;
use hot_metrics::bias::{bias_summary, BiasSummary};
use hot_metrics::hierarchy::betweenness_estimate;
use hot_sim::probe::{run_campaign, CampaignResult, ProbeCampaign, ProbeStats};
use hot_sim::traceroute::strided_vantages;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Clone, Debug)]
pub struct Params {
    /// Population centers behind the designed internet.
    pub cities: usize,
    pub net_isps: usize,
    pub net_max_pops: usize,
    pub net_customers_per_pop: usize,
    /// GLP control size (Bu–Towsley defaults otherwise).
    pub glp_n: usize,
    /// BA control size and edges-per-arrival.
    pub ba_n: usize,
    pub ba_m: usize,
    /// Vantage counts swept per topology.
    pub vantages: Vec<usize>,
}

impl Params {
    pub fn golden() -> Params {
        Params {
            cities: 12,
            net_isps: 8,
            net_max_pops: 4,
            net_customers_per_pop: 4,
            glp_n: 2048,
            ba_n: 2048,
            ba_m: 3,
            vantages: vec![1, 16, 64, 256],
        }
    }

    pub fn full() -> Params {
        Params {
            cities: 30,
            net_isps: 24,
            net_max_pops: 8,
            net_customers_per_pop: 24,
            glp_n: 20_000,
            ba_n: 20_000,
            ba_m: 3,
            vantages: vec![1, 16, 64, 256],
        }
    }
}

/// One campaign row: a (topology, vantage count) pair with its probe
/// statistics and bias summary. Exposed for the paper-claims tests.
#[derive(Clone, Debug)]
pub struct ProbeRow {
    pub topology: &'static str,
    pub nodes: usize,
    pub links: usize,
    pub vantage_count: usize,
    pub stats: ProbeStats,
    pub bias: BiasSummary,
}

/// Sweeps the vantage counts over one truth. `link_latency` selects
/// latency forwarding (`Some`, the designed internet) or hop
/// forwarding (`None`, the controls); the truth's betweenness is
/// computed once and shared across the sweep.
fn sweep<N, E>(
    topology: &'static str,
    truth: &Graph<N, E>,
    link_latency: Option<Vec<f64>>,
    vantage_counts: &[usize],
    threads: usize,
) -> Vec<ProbeRow> {
    let csr = CsrGraph::from_graph(truth);
    let (true_b, _) = betweenness_estimate(&csr, threads);
    let mut rows = Vec::new();
    for &k in vantage_counts {
        if k == 0 {
            continue;
        }
        let vantages = strided_vantages(truth, k);
        let CampaignResult { map, stats } = run_campaign(
            &csr,
            &ProbeCampaign {
                vantages: &vantages,
                destinations: None,
                link_latency: link_latency.as_deref(),
            },
            threads,
        );
        let bias = bias_summary(&csr, &map.node_seen, &map.edge_seen, &true_b, threads);
        rows.push(ProbeRow {
            topology,
            nodes: csr.node_count(),
            links: csr.edge_count(),
            vantage_count: k,
            stats,
            bias,
        });
    }
    rows
}

/// Builds the three truths and runs every campaign. The rows the
/// report renders and the paper-claims tests assert on.
pub fn probe_rows(p: &Params, ctx: &RunCtx) -> Vec<ProbeRow> {
    let threads = ctx.threads;
    let mut rows = Vec::new();
    // (a) The designed HOT internet, probed under latency forwarding:
    //     per-hop latency is the geographic link length.
    let (census, traffic) = standard_geography(p.cities, ctx.seed);
    let net = generate_internet(
        &census,
        &traffic,
        &InternetConfig {
            n_isps: p.net_isps,
            max_pops: p.net_max_pops,
            customers_per_pop: p.net_customers_per_pop,
            ..InternetConfig::default()
        },
        &mut StdRng::seed_from_u64(ctx.seed + 19),
    );
    let router_graph = net.combined_router_graph();
    let latency: Vec<f64> = router_graph
        .edge_ids()
        .map(|e| router_graph.edge_weight(e).length.max(1e-9))
        .collect();
    rows.extend(sweep(
        "hot(internet)",
        &router_graph,
        Some(latency),
        &p.vantages,
        threads,
    ));
    // (b) GLP control under hop forwarding.
    let glp_graph = glp::generate(
        &glp::GlpConfig {
            n: p.glp_n,
            ..glp::GlpConfig::default()
        },
        &mut StdRng::seed_from_u64(ctx.seed + 20),
    );
    rows.extend(sweep("glp", &glp_graph, None, &p.vantages, threads));
    // (c) BA control under hop forwarding.
    let ba_graph = ba::generate(p.ba_n, p.ba_m, &mut StdRng::seed_from_u64(ctx.seed + 21));
    rows.extend(sweep("ba", &ba_graph, None, &p.vantages, threads));
    rows
}

fn topology_section(topology: &str, rows: &[ProbeRow]) -> Section {
    let first = &rows[0];
    let truth = &first.bias;
    let mut t = Table::new(&[
        "vantages",
        "probes",
        "node-cov",
        "edge-cov",
        "mean-hops",
        "mean-lat",
        "obs-meandeg",
        "obs-maxdeg",
        "obs-bw-gini",
        "obs-top10",
    ]);
    for r in rows {
        t.push(vec![
            r.vantage_count.into(),
            r.stats.probes_sent.into(),
            Json::Float(r.bias.node_coverage),
            Json::Float(r.bias.edge_coverage),
            Json::Float(r.stats.mean_hops()),
            Json::Float(r.stats.mean_latency()),
            Json::Float(r.bias.observed_degree.mean),
            r.bias.observed_degree.max.into(),
            Json::Float(r.bias.observed_betweenness.gini),
            Json::Float(r.bias.observed_betweenness.top_decile_share),
        ]);
    }
    // The truth row the observed rows are converging toward (or not).
    let last = &rows[rows.len() - 1];
    let mut ccdf = Table::new(&["degree", "true-ccdf", "observed-ccdf"]);
    for pt in &last.bias.degree_ccdf {
        ccdf.push(vec![
            pt.degree.into(),
            Json::Float(pt.true_ccdf),
            Json::Float(pt.observed_ccdf),
        ]);
    }
    Section::new(format!(
        "{}: {} routers, {} links",
        topology, first.nodes, first.links
    ))
    .fact("true_mean_degree", truth.true_degree.mean)
    .fact("true_max_degree", truth.true_degree.max)
    .fact("true_bw_gini", truth.true_betweenness.gini)
    .fact("true_bw_top10", truth.true_betweenness.top_decile_share)
    .fact("betweenness_sampled", truth.betweenness_sampled)
    .table(t)
    .table(ccdf)
    .note(
        "ccdf table compares the truth against the largest campaign's \
         observed map at power-of-two degree thresholds",
    )
}

pub fn run(p: &Params, ctx: RunCtx) -> ExpReport {
    let mut report = ExpReport::new(
        "e19",
        "probe-bias",
        "E19 (extension): million-probe campaigns against known truths",
        "the batched probe pipeline fires vantage-point campaigns at the \
         HOT internet and degree-driven controls: the tree-like design is \
         nearly fully observable, the meshes hide redundancy and the \
         inferred maps overstate hierarchy",
        &ctx,
    );
    report.param("cities", p.cities);
    report.param("net_isps", p.net_isps);
    report.param("glp_n", p.glp_n);
    report.param("ba_n", p.ba_n);
    report.param("ba_m", p.ba_m);
    report.param(
        "vantages",
        Json::Arr(p.vantages.iter().map(|&k| k.into()).collect()),
    );
    if p.cities < 2
        || p.vantages.iter().all(|&k| k == 0)
        || p.glp_n < 8
        || p.ba_n <= p.ba_m
        || p.net_isps < 2
    {
        return report.into_skipped(format!(
            "degenerate parameters: cities = {}, vantages = {:?}, glp_n = {}, \
             ba = ({}, {}), net_isps = {}",
            p.cities, p.vantages, p.glp_n, p.ba_n, p.ba_m, p.net_isps
        ));
    }
    let rows = probe_rows(p, &ctx);
    let total_probes: u64 = rows.iter().map(|r| r.stats.probes_sent).sum();
    let total_completed: u64 = rows.iter().map(|r| r.stats.probes_completed).sum();
    report.section(
        Section::new("campaign volume")
            .fact("total_probes", total_probes)
            .fact("total_completed", total_completed)
            .fact(
                "max_hops",
                rows.iter().map(|r| r.stats.max_hops).max().unwrap_or(0),
            ),
    );
    for topology in ["hot(internet)", "glp", "ba"] {
        let topo_rows: Vec<ProbeRow> = rows
            .iter()
            .filter(|r| r.topology == topology)
            .cloned()
            .collect();
        if !topo_rows.is_empty() {
            report.section(topology_section(topology, &topo_rows));
        }
    }
    report.section(Section::new("interpretation").note(
        "the HOT internet's access trees and thin backbone sit almost \
         entirely on shortest paths, so a few hundred vantages recover \
         nearly the whole map; the GLP/BA meshes keep redundant edges off \
         every forwarding tree, so edge coverage plateaus, the observed \
         degree tail sits below the true CCDF at every threshold, and \
         observed betweenness concentrates harder than the truth — \
         measured maps make the internet look more hierarchical and less \
         redundant than it is, which is §1's warning at campaign scale.",
    ));
    report
}
