//! E8 — AS-level vs router-level degree laws (paper §2.3 + §3.2).
//!
//! Claim: "the optimization formulations … for generating the router-level
//! graph and AS graph are very different" — router degrees are bounded by
//! line-card technology, AS degrees are unbounded business relationships.
//! Generating both from one economy should produce a heavy-tailed AS
//! degree distribution over bounded router degrees.

use crate::fixtures::standard_geography;
use crate::jsonout::Json;
use crate::registry::RunCtx;
use crate::report::{ExpReport, Section, Table};
use hot_core::isp::generator::IspConfig;
use hot_core::peering::{generate_internet, InternetConfig};
use hot_graph::degree::ccdf_of;
use hot_metrics::expfit::classify;
use hot_metrics::powerlaw::{fit_ccdf, fit_rank};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Clone, Debug)]
pub struct Params {
    pub cities: usize,
    pub n_isps: usize,
    pub max_pops: usize,
    pub tier1_count: usize,
    pub transit_per_isp: usize,
    pub customers_per_pop: usize,
    pub max_router_degree: usize,
    /// Router CCDF rows kept in the report.
    pub router_ccdf_rows: usize,
}

impl Params {
    pub fn golden() -> Params {
        Params {
            cities: 12,
            n_isps: 14,
            max_pops: 5,
            tier1_count: 2,
            transit_per_isp: 1,
            customers_per_pop: 4,
            max_router_degree: 12,
            router_ccdf_rows: 20,
        }
    }

    pub fn full() -> Params {
        Params {
            cities: 30,
            n_isps: 60,
            max_pops: 12,
            tier1_count: 3,
            transit_per_isp: 2,
            customers_per_pop: 8,
            max_router_degree: 12,
            router_ccdf_rows: 20,
        }
    }
}

fn ccdf_table(degrees: &[u32], max_rows: usize) -> Table {
    let mut t = Table::new(&["k", "P[D>=k]"]);
    for (k, prob) in ccdf_of(degrees).into_iter().take(max_rows) {
        t.push(vec![k.into(), Json::Float(prob)]);
    }
    t
}

pub fn run(p: &Params, ctx: RunCtx) -> ExpReport {
    let mut report = ExpReport::new(
        "e8",
        "as-vs-router",
        "E8: AS graph vs router graph from one generated economy",
        "AS degrees: heavy-tailed (unconstrained business relationships); \
         router degrees: bounded/light-tailed (line-card technology)",
        &ctx,
    );
    report.param("cities", p.cities);
    report.param("n_isps", p.n_isps);
    report.param("max_pops", p.max_pops);
    report.param("tier1_count", p.tier1_count);
    report.param("transit_per_isp", p.transit_per_isp);
    report.param("customers_per_pop", p.customers_per_pop);
    report.param("max_router_degree", p.max_router_degree);
    if p.cities < 2 || p.n_isps < 2 || p.n_isps < p.tier1_count || p.max_pops == 0 {
        return report.into_skipped(format!(
            "degenerate parameters: cities = {}, n_isps = {} (tier1 {}), max_pops = {}",
            p.cities, p.n_isps, p.tier1_count, p.max_pops
        ));
    }
    let (census, traffic) = standard_geography(p.cities, ctx.seed);
    let config = InternetConfig {
        n_isps: p.n_isps,
        max_pops: p.max_pops,
        size_exponent: 0.9,
        tier1_count: p.tier1_count,
        transit_per_isp: p.transit_per_isp,
        customers_per_pop: p.customers_per_pop,
        isp_template: IspConfig {
            max_router_degree: p.max_router_degree,
            ..IspConfig::default()
        },
    };
    let net = generate_internet(
        &census,
        &traffic,
        &config,
        &mut StdRng::seed_from_u64(ctx.seed + 8),
    );
    let as_degrees = net.as_degrees();
    if as_degrees.is_empty() {
        return report.into_skipped("the generated economy produced an empty AS graph");
    }
    let mut as_section = Section::new(format!(
        "{} ISPs generated over one shared census",
        config.n_isps
    ))
    .fact("as_nodes", as_degrees.len())
    .fact("as_adjacencies", net.as_graph().edge_count())
    .table(ccdf_table(&as_degrees, usize::MAX));
    if let Some(f) = fit_ccdf(&as_degrees) {
        as_section = as_section
            .fact("as_powerlaw_exponent", f.exponent)
            .fact("as_powerlaw_r2", f.r_squared);
    }
    if let Some(f) = fit_rank(&as_degrees) {
        as_section = as_section
            .fact("as_rank_exponent", f.exponent)
            .fact("as_rank_r2", f.r_squared);
    }
    let as_max = as_degrees.iter().copied().max().unwrap_or(0);
    as_section = as_section.fact("as_tail_verdict", classify(&as_degrees).class.to_string());
    report.section(as_section);

    let uncapped = net.combined_router_graph_uncapped();
    let max_uncapped = uncapped.degree_sequence().into_iter().max().unwrap_or(0);
    let router_graph = net.combined_router_graph();
    let router_degrees = router_graph.degree_sequence();
    let max_router = router_degrees.iter().copied().max().unwrap_or(0);
    report.section(
        Section::new("router-level (union of all ISPs + peering links, degree cap enforced)")
            .fact("router_nodes", router_graph.node_count())
            .fact("router_links", router_graph.edge_count())
            .fact("max_router_degree", max_router)
            .fact("degree_cap", p.max_router_degree)
            .fact("max_uncapped_degree", max_uncapped)
            .table(ccdf_table(&router_degrees, p.router_ccdf_rows))
            .fact(
                "router_tail_verdict",
                classify(&router_degrees).class.to_string(),
            )
            .note(format!(
                "the same economy yields a max AS degree of {} across only \
                 {} ASes (heavy tail: an AS can have any number of business \
                 relationships) while line cards cap every router at degree \
                 {} — different mechanisms, different laws, as §3.2 argues.",
                as_max,
                as_degrees.len(),
                max_router
            )),
    );
    report
}
