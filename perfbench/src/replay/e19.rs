//! Traced replay of `probe-bias`: the computation of
//! `hot_exp::scenarios::e19::probe_rows`, one layer call per span.

use crate::layers::{BASELINES, BIAS, CSR, GENERATORS, HIERARCHY, PROBE};
use crate::trace::Tracer;
use hot_baselines::{ba, glp};
use hot_core::peering::{generate_internet, InternetConfig};
use hot_exp::fixtures::standard_geography;
use hot_exp::scenarios::e19::{Params, ProbeRow};
use hot_graph::csr::CsrGraph;
use hot_graph::graph::{Graph, NodeId};
use hot_metrics::bias::bias_summary;
use hot_metrics::hierarchy::{betweenness_estimate, SAMPLED_PIVOTS};
use hot_sim::probe::{run_campaign, CampaignResult, ProbeCampaign};
use hot_sim::traceroute::strided_vantages;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One ground truth with its forwarding metric and vantage sets.
pub struct Truth {
    name: &'static str,
    csr: CsrGraph,
    /// Per-link latency for latency forwarding; `None` = hop forwarding.
    latency: Option<Vec<f64>>,
    /// `(k, vantages)` per swept vantage count.
    vantages: Vec<(usize, Vec<NodeId>)>,
}

fn truth<N, E>(
    name: &'static str,
    g: &Graph<N, E>,
    latency: Option<Vec<f64>>,
    p: &Params,
    tr: &mut Tracer,
) -> Truth {
    let csr = tr.span(CSR, || CsrGraph::from_graph(g));
    let vantages = p
        .vantages
        .iter()
        .filter(|&&k| k > 0)
        .map(|&k| (k, strided_vantages(g, k)))
        .collect();
    Truth {
        name,
        csr,
        latency,
        vantages,
    }
}

/// The three truths (designed internet, GLP, BA) with CSR views.
pub fn build(p: &Params, seed: u64, tr: &mut Tracer) -> Vec<Truth> {
    let router_graph = tr.span(GENERATORS, || {
        let (census, traffic) = standard_geography(p.cities, seed);
        generate_internet(
            &census,
            &traffic,
            &InternetConfig {
                n_isps: p.net_isps,
                max_pops: p.net_max_pops,
                customers_per_pop: p.net_customers_per_pop,
                ..InternetConfig::default()
            },
            &mut StdRng::seed_from_u64(seed + 19),
        )
        .combined_router_graph()
    });
    let latency: Vec<f64> = router_graph
        .edge_ids()
        .map(|e| router_graph.edge_weight(e).length.max(1e-9))
        .collect();
    let (glp_graph, ba_graph) = tr.span(BASELINES, || {
        let glp_graph = glp::generate(
            &glp::GlpConfig {
                n: p.glp_n,
                ..glp::GlpConfig::default()
            },
            &mut StdRng::seed_from_u64(seed + 20),
        );
        let ba_graph = ba::generate(p.ba_n, p.ba_m, &mut StdRng::seed_from_u64(seed + 21));
        (glp_graph, ba_graph)
    });
    vec![
        truth("hot(internet)", &router_graph, Some(latency), p, tr),
        truth("glp", &glp_graph, None, p, tr),
        truth("ba", &ba_graph, None, p, tr),
    ]
}

fn brandes_sources(n: usize, sampled: bool) -> u64 {
    if sampled {
        SAMPLED_PIVOTS.min(n) as u64
    } else {
        n as u64
    }
}

/// Truth betweenness, then per vantage count: campaign and bias summary.
pub fn analyze(truths: &[Truth], threads: usize, tr: &mut Tracer) -> Vec<ProbeRow> {
    let mut rows = Vec::new();
    for t in truths {
        let n = t.csr.node_count();
        let (true_b, sampled) = tr.span(HIERARCHY, || betweenness_estimate(&t.csr, threads));
        tr.count(HIERARCHY, "brandes_sources", brandes_sources(n, sampled));
        for (k, vantages) in &t.vantages {
            let CampaignResult { map, stats } = tr.span(PROBE, || {
                run_campaign(
                    &t.csr,
                    &ProbeCampaign {
                        vantages,
                        destinations: None,
                        link_latency: t.latency.as_deref(),
                    },
                    threads,
                )
            });
            tr.count(PROBE, "probes", stats.probes_sent);
            tr.count(PROBE, "hops", stats.total_hops);
            let bias = tr.span(BIAS, || {
                bias_summary(&t.csr, &map.node_seen, &map.edge_seen, &true_b, threads)
            });
            tr.count(
                BIAS,
                "brandes_sources",
                brandes_sources(n, bias.betweenness_sampled),
            );
            if map.edge_seen.iter().all(|&seen| seen) {
                tr.count(BIAS, "full_mask_calls", 1);
            }
            rows.push(ProbeRow {
                topology: t.name,
                nodes: n,
                links: t.csr.edge_count(),
                vantage_count: *k,
                stats,
                bias,
            });
        }
    }
    rows
}
