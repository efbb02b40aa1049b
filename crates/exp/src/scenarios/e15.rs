//! E15 (extension) — traffic load: gravity demand over HOT vs degree-based
//! topologies.
//!
//! The batched engine in `hot-sim::traffic` routes millions of
//! origin–destination flows — gravity, uniform, and rank-biased demand
//! — over the designed ISP and over the degree-based generators the
//! paper critiques, and compares where the load lands: on the designed
//! topology, peak load rides the provisioned core (backbone/metro
//! trunks) even though the router degree cap keeps core degrees modest;
//! on BA/GLP the same demand classes pile onto the links around the few
//! highest-degree hubs. This turns the E12 routing-load claim
//! quantitative: load share of the core vs load share of the hub
//! neighborhood, per demand model.

use crate::fixtures::{customer_masses, standard_geography, total_traffic_is_valid};
use crate::jsonout::Json;
use crate::registry::RunCtx;
use crate::report::{ExpReport, Section, Table};
use hot_baselines::{ba, glp};
use hot_core::isp::generator::{generate, IspConfig};
use hot_core::isp::LinkKind;
use hot_graph::csr::CsrGraph;
use hot_graph::graph::NodeId;
use hot_metrics::utilization::{load_ccdf, load_share_on, load_summary, LoadSummary};
use hot_sim::demand::{DemandConfig, DemandMatrix, DemandModel, OdDemand};
use hot_sim::traffic::{link_loads_multi, RoutePolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Clone, Debug)]
pub struct Params {
    /// Nodes of the GLP control topology.
    pub glp_n: usize,
    /// Nodes of the BA control topology.
    pub ba_n: usize,
    pub cities: usize,
    pub n_pops: usize,
    pub total_customers: usize,
    /// Total demand over unordered pairs, per model.
    pub total_traffic: f64,
    /// Thresholds of the load CCDF table.
    pub ccdf_steps: usize,
}

impl Params {
    pub fn golden() -> Params {
        Params {
            // 1024 nodes route 1024·1023 > 1M ordered OD flows per
            // demand model — the "millions of users" scale the golden
            // preset pins.
            glp_n: 1024,
            ba_n: 1024,
            cities: 15,
            n_pops: 4,
            total_customers: 300,
            total_traffic: 1_000_000.0,
            ccdf_steps: 8,
        }
    }

    pub fn full() -> Params {
        Params {
            glp_n: 5000,
            ba_n: 5000,
            cities: 40,
            n_pops: 10,
            total_customers: 1000,
            total_traffic: 1_000_000.0,
            ccdf_steps: 12,
        }
    }
}

/// One (topology, demand model) measurement, in typed form for the
/// claims tests.
#[derive(Clone, Debug)]
pub struct TrafficRow {
    pub topology: &'static str,
    pub model: &'static str,
    pub nodes: usize,
    pub links: usize,
    pub routed_flows: u64,
    pub unrouted_flows: u64,
    pub mean_hops: f64,
    pub summary: LoadSummary,
    /// Share of total load on links incident to the top-1%-degree nodes.
    pub hub_load_share: f64,
    /// Fraction of links incident to those hubs.
    pub hub_link_fraction: f64,
    /// Share of total load on core (backbone + metro) links; `None` for
    /// topologies without a designed hierarchy.
    pub core_load_share: Option<f64>,
    /// Fraction of links that are core links.
    pub core_link_fraction: Option<f64>,
    /// Whether the single most-loaded link is a core link.
    pub peak_on_core: Option<bool>,
    /// Load CCDF at the configured thresholds.
    pub ccdf: Vec<(f64, f64)>,
}

/// Measures every demand model over one topology. `core_links` marks
/// the designed trunk links when the topology has a hierarchy.
fn case_rows(
    topology: &'static str,
    csr: &CsrGraph,
    core_links: Option<&[bool]>,
    demands: &[(&'static str, &DemandMatrix)],
    ccdf_steps: usize,
    threads: usize,
) -> Vec<TrafficRow> {
    let n = csr.node_count();
    let degrees = csr.degree_sequence();
    // Hub neighborhood: the top 1% of nodes by degree (at least one),
    // ties broken by node id, and every link touching one of them.
    let mut by_degree: Vec<usize> = (0..n).collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(degrees[v]), v));
    let links = csr.edge_count();
    let mut hub_links = vec![false; links];
    for &v in by_degree.iter().take(n.div_ceil(100).max(1)) {
        for e in csr.incident_edges(NodeId(v as u32)) {
            hub_links[e.index()] = true;
        }
    }
    let hub_link_fraction = if links == 0 {
        0.0
    } else {
        hub_links.iter().filter(|&&h| h).count() as f64 / links as f64
    };
    let refs: Vec<&dyn OdDemand> = demands.iter().map(|&(_, m)| m as &dyn OdDemand).collect();
    let loads = link_loads_multi(csr, &refs, RoutePolicy::TreePath, threads);
    demands
        .iter()
        .zip(&loads)
        .map(|(&(model, _), out)| {
            let peak = out
                .link_load
                .iter()
                .enumerate()
                .max_by(|(i, a), (j, b)| a.total_cmp(b).then(j.cmp(i)))
                .map(|(i, _)| i);
            TrafficRow {
                topology,
                model,
                nodes: n,
                links,
                routed_flows: out.routed_flows,
                unrouted_flows: out.unrouted_flows,
                mean_hops: out.mean_hops(),
                summary: load_summary(&out.link_load),
                hub_load_share: load_share_on(&out.link_load, |i| hub_links[i]),
                hub_link_fraction,
                core_load_share: core_links.map(|core| load_share_on(&out.link_load, |i| core[i])),
                core_link_fraction: core_links.map(|core| {
                    core.iter().filter(|&&c| c).count() as f64 / core.len().max(1) as f64
                }),
                peak_on_core: core_links.map(|core| peak.map(|i| core[i]).unwrap_or(false)),
                ccdf: load_ccdf(&out.link_load, ccdf_steps),
            }
        })
        .collect()
}

/// The full measurement sweep: ISP (designed), GLP and BA (degree-based
/// controls), each under its demand models.
pub fn traffic_rows(p: &Params, ctx: &RunCtx) -> Vec<TrafficRow> {
    let (seed, threads) = (ctx.seed, ctx.threads);
    let mut rows = Vec::new();
    // Designed ISP: demand lives on customers (mass 1 on customer
    // routers, 0 on infrastructure), gravity over router geography; its
    // core is the backbone and metro trunks.
    {
        let (census, traffic) = standard_geography(p.cities, seed);
        let config = IspConfig {
            n_pops: p.n_pops,
            total_customers: p.total_customers,
            ..IspConfig::default()
        };
        let isp = generate(&census, &traffic, &config, &mut StdRng::seed_from_u64(seed));
        let csr = CsrGraph::from_graph(&isp.graph);
        let (mass, positions) = customer_masses(&isp);
        let core: Vec<bool> = isp
            .graph
            .edge_ids()
            .map(|e| {
                matches!(
                    isp.graph.edge_weight(e).kind,
                    LinkKind::Backbone | LinkKind::Metro
                )
            })
            .collect();
        let gravity =
            DemandMatrix::from_masses(mass.clone(), Some(positions), 1.0, 1.0, p.total_traffic);
        let uniform = DemandMatrix::from_masses(mass, None, 0.0, 1.0, p.total_traffic);
        rows.extend(case_rows(
            "isp(designed)",
            &csr,
            Some(&core),
            &[("gravity", &gravity), ("uniform", &uniform)],
            p.ccdf_steps,
            threads,
        ));
    }
    // Degree-based controls: demand keyed off node degree.
    let glp_graph = glp::generate(
        &glp::GlpConfig { n: p.glp_n },
        &mut StdRng::seed_from_u64(seed + 1),
    );
    let ba_graph = ba::generate(p.ba_n, 2, &mut StdRng::seed_from_u64(seed + 2));
    for (name, g) in [("glp", &glp_graph), ("ba(m=2)", &ba_graph)] {
        let csr = CsrGraph::from_graph(g);
        let build = |model| {
            DemandMatrix::build(
                &csr,
                None,
                &DemandConfig {
                    model,
                    total_traffic: p.total_traffic,
                },
            )
        };
        let gravity = build(DemandModel::Gravity {
            distance_exponent: 1.0,
        });
        let uniform = build(DemandModel::Uniform);
        let ranked = build(DemandModel::RankBiased { exponent: 1.0 });
        rows.extend(case_rows(
            name,
            &csr,
            None,
            &[
                ("gravity", &gravity),
                ("uniform", &uniform),
                ("rank-biased", &ranked),
            ],
            p.ccdf_steps,
            threads,
        ));
    }
    rows
}

pub fn run(p: &Params, ctx: RunCtx) -> ExpReport {
    let mut report = ExpReport::new(
        "e15",
        "traffic-load",
        "E15 (extension): gravity traffic over HOT vs degree-based topologies",
        "routing millions of OD flows, the designed ISP carries peak link \
         load on its provisioned core despite capped router degrees, while \
         degree-based generators concentrate the same demand classes on \
         the links around their few big hubs",
        &ctx,
    );
    report.param("glp_n", p.glp_n);
    report.param("ba_n", p.ba_n);
    report.param("cities", p.cities);
    report.param("n_pops", p.n_pops);
    report.param("total_customers", p.total_customers);
    report.param("total_traffic", Json::Float(p.total_traffic));
    report.param("ccdf_steps", p.ccdf_steps);
    if p.glp_n < 10
        || p.ba_n < 10
        || p.cities < 2
        || p.n_pops == 0
        || p.cities < p.n_pops
        || p.total_customers < 2
        || p.ccdf_steps == 0
    {
        return report.into_skipped(format!(
            "degenerate parameters: glp_n = {}, ba_n = {}, cities = {}, n_pops = {}, \
             customers = {}, ccdf_steps = {}",
            p.glp_n, p.ba_n, p.cities, p.n_pops, p.total_customers, p.ccdf_steps
        ));
    }
    if !total_traffic_is_valid(p.total_traffic) {
        return report.into_skipped(format!(
            "total_traffic = {} is not a positive finite demand",
            p.total_traffic
        ));
    }
    let rows = traffic_rows(p, &ctx);
    let total_flows: u64 = rows.iter().map(|r| r.routed_flows).sum();
    let mut table = Table::new(&[
        "topology",
        "model",
        "flows",
        "meanhops",
        "maxload",
        "gini",
        "p99",
        "idle",
        "top10share",
        "hubshare",
        "coreshare",
        "peakoncore",
    ]);
    for r in &rows {
        table.push(vec![
            Json::str(r.topology),
            Json::str(r.model),
            Json::UInt(r.routed_flows),
            Json::Float(r.mean_hops),
            Json::Float(r.summary.max),
            Json::Float(r.summary.gini),
            Json::Float(r.summary.p99),
            Json::Float(r.summary.idle_fraction),
            Json::Float(r.summary.top_decile_share),
            Json::Float(r.hub_load_share),
            Json::opt_float(r.core_load_share),
            r.peak_on_core.map(Json::Bool).unwrap_or(Json::Null),
        ]);
    }
    report.section(
        Section::new("link load per topology x demand model (batched tree-reuse engine)")
            .fact("total_routed_flows", Json::UInt(total_flows))
            .table(table)
            .note(
                "the designed ISP routes its demand onto the provisioned \
                 backbone/metro trunks (coreshare high, peak on a core \
                 link) even though the router degree cap keeps its hubs \
                 modest; glp/ba concentrate the same demand on the links \
                 around their top-degree hubs (hubshare far above the hub \
                 link fraction).",
            ),
    );
    let mut concentration =
        Table::new(&["topology", "hubshare", "hublinks", "coreshare", "corelinks"]);
    for r in rows.iter().filter(|r| r.model == "gravity") {
        concentration.push(vec![
            Json::str(r.topology),
            Json::Float(r.hub_load_share),
            Json::Float(r.hub_link_fraction),
            Json::opt_float(r.core_load_share),
            Json::opt_float(r.core_link_fraction),
        ]);
    }
    let mut ccdf_table = Table::new(&["topology", "threshold", "fraction_ge"]);
    for r in rows.iter().filter(|r| r.model == "gravity") {
        for &(t, frac) in &r.ccdf {
            ccdf_table.push(vec![
                Json::str(r.topology),
                Json::Float(t),
                Json::Float(frac),
            ]);
        }
    }
    report.section(
        Section::new("gravity-demand load concentration and CCDF")
            .table(concentration)
            .table(ccdf_table)
            .note(
                "load share vs link share is the E12 claim made \
                 quantitative: a small fraction of designed trunk links \
                 carries most of the traffic by design; in the degree \
                 generators a small hub neighborhood carries it by \
                 accident of the degree sequence.",
            ),
    );
    report
}
