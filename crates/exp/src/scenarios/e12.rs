//! E12 (extension) — routing load on designed vs descriptive topologies.
//!
//! Paper §1: "although topology should not affect the correctness of
//! networking protocols, it can have a dramatic impact on their
//! performance", and the abstract promises the framework as a foundation
//! for studying routing dynamics. We route the same gravity demand over
//! the generated ISP and over degree-matched controls, and compare load
//! concentration and provisioning fit — plus what a single link failure
//! costs on a redundant vs tree backbone.

use crate::fixtures::{backbone_failures, standard_geography};
use crate::jsonout::Json;
use crate::registry::RunCtx;
use crate::report::{ExpReport, Section, Table};
use hot_core::isp::generator::{generate, IspConfig};
use hot_core::isp::{LinkKind, RouterRole};
use hot_graph::graph::NodeId;
use hot_metrics::hierarchy::gini;
use hot_metrics::surrogate::degree_surrogate;
use hot_sim::demand::Demand;
use hot_sim::failure::route_demands;
use hot_sim::traffic::TrafficLoads;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Clone, Debug)]
pub struct Params {
    pub cities: usize,
    pub n_pops: usize,
    pub total_customers: usize,
    /// Customer-to-customer demand pairs probed.
    pub demand_pairs: usize,
    /// POPs in the backbone-failure study.
    pub fail_pops: usize,
}

impl Params {
    pub fn golden() -> Params {
        Params {
            cities: 15,
            n_pops: 4,
            total_customers: 150,
            demand_pairs: 300,
            fail_pops: 6,
        }
    }

    pub fn full() -> Params {
        Params {
            cities: 40,
            n_pops: 10,
            total_customers: 600,
            demand_pairs: 2000,
            fail_pops: 10,
        }
    }
}

/// Customer-to-customer demands: a deterministic sample of pairs with
/// unit traffic (the gravity structure is already inside the topology via
/// its design; here we probe serving performance).
fn customer_demands(isp: &hot_core::isp::IspTopology, pairs: usize) -> Vec<Demand> {
    let customers: Vec<NodeId> = isp
        .graph
        .node_ids()
        .filter(|&v| isp.graph.node_weight(v).role == RouterRole::Customer)
        .collect();
    let m = customers.len();
    if m < 2 {
        return Vec::new();
    }
    let stride = ((m as f64 * 0.618_033_9) as usize).max(1);
    let mut out = Vec::with_capacity(pairs);
    let (mut a, mut b) = (0usize, stride % m);
    for _ in 0..pairs {
        if a == b {
            b = (b + 1) % m;
        }
        out.push(Demand {
            src: customers[a],
            dst: customers[b],
            amount: 1.0,
        });
        a = (a + 1) % m;
        b = (b + stride) % m;
    }
    out
}

/// One load-table row: unrouted demands, mean hops, peak load, the Gini
/// coefficient of the positive link loads (0 = spread evenly, → 1 = all
/// transit on a few trunks) and the share of idle links.
fn outcome_row(name: &str, loads: &TrafficLoads) -> Vec<Json> {
    let positive: Vec<f64> = loads
        .link_load
        .iter()
        .copied()
        .filter(|&l| l > 0.0)
        .collect();
    let idle = loads.link_load.iter().filter(|&&l| l == 0.0).count();
    vec![
        Json::str(name),
        (loads.unrouted_flows as usize).into(),
        Json::Float(loads.mean_hops()),
        Json::Float(loads.max_load()),
        Json::Float(gini(&positive)),
        Json::Float(idle as f64 / loads.link_load.len().max(1) as f64),
    ]
}

pub fn run(p: &Params, ctx: RunCtx) -> ExpReport {
    let mut report = ExpReport::new(
        "e12",
        "routing-load",
        "E12 (extension): routing load and failure response",
        "designed topologies concentrate transit on provisioned trunks; \
         their degree-matched rewirings put the same load on links never \
         sized for it; redundancy converts stranded traffic into stretch",
        &ctx,
    );
    report.param("cities", p.cities);
    report.param("n_pops", p.n_pops);
    report.param("total_customers", p.total_customers);
    report.param("demand_pairs", p.demand_pairs);
    report.param("fail_pops", p.fail_pops);
    if p.cities < 2
        || p.n_pops == 0
        || p.fail_pops == 0
        || p.cities < p.n_pops
        || p.cities < p.fail_pops
        || p.total_customers < 2
        || p.demand_pairs == 0
    {
        return report.into_skipped(format!(
            "degenerate parameters: cities = {}, pops = {}, fail_pops = {}, customers = {}, \
             pairs = {}",
            p.cities, p.n_pops, p.fail_pops, p.total_customers, p.demand_pairs
        ));
    }
    let (census, traffic) = standard_geography(p.cities, ctx.seed);
    let config = IspConfig {
        n_pops: p.n_pops,
        total_customers: p.total_customers,
        ..IspConfig::default()
    };
    let isp = generate(
        &census,
        &traffic,
        &config,
        &mut StdRng::seed_from_u64(ctx.seed),
    );
    let demands = customer_demands(&isp, p.demand_pairs);
    if demands.is_empty() {
        return report
            .into_skipped("the generated ISP has fewer than 2 customer routers to route between");
    }
    // Hop routing on the batched engine. The stride sample repeats
    // pairs; each entry is its own flow, so `unrouted` counts demands.
    let outcome = route_demands(&isp.graph, &demands, ctx.threads);
    let mut load_table = Table::new(&[
        "topology", "unrouted", "meanhops", "maxload", "gini", "idle",
    ]);
    load_table.push(outcome_row("isp(designed)", &outcome));
    // Load-vs-capacity fit on the designed ISP: how much of the traffic
    // lands on links provisioned above the smallest tier?
    let mut trunk_load = 0.0;
    let mut total_load = 0.0;
    for (e, _, _, l) in isp.graph.edges() {
        let load = outcome.link_load[e.index()];
        total_load += load;
        if l.kind == LinkKind::Backbone || l.kind == LinkKind::Metro {
            trunk_load += load;
        }
    }
    let surrogate = degree_surrogate(&isp.graph, 10, &mut StdRng::seed_from_u64(ctx.seed + 1));
    let s_outcome = route_demands(&surrogate, &demands, ctx.threads);
    load_table.push(outcome_row("isp-surrogate", &s_outcome));
    report.section(
        Section::new("load on the designed ISP vs its degree-preserving surrogate")
            .fact("routed_demands", demands.len())
            .fact("nodes", isp.graph.node_count())
            .fact("links", isp.graph.edge_count())
            .table(load_table)
            .fact("trunk_traffic_fraction", trunk_load / total_load.max(1e-12)),
    );

    let mut fail_table = Table::new(&["backbone", "stranding", "worststranded", "meanstretch"]);
    for (name, redundancy) in [("tree (off)", false), ("mesh (on)", true)] {
        let summary = backbone_failures(
            &census,
            &traffic,
            p.fail_pops,
            redundancy,
            ctx.seed + 2,
            ctx.threads,
        );
        fail_table.push(vec![
            Json::str(name),
            Json::Float(summary.stranding_fraction),
            Json::Float(summary.worst_stranded_fraction),
            Json::Float(summary.mean_stretch),
        ]);
    }
    report.section(
        Section::new("single-link failures on the backbone: redundancy on vs off")
            .table(fail_table)
            .note(
                "on the designed ISP, transit rides the provisioned trunks; \
                 the degree-matched surrogate spreads the same demand over \
                 arbitrary links (higher mean hops, different \
                 concentration) with no provisioning story. On the \
                 backbone, the redundancy premium of E9(b) buys zero \
                 stranded traffic at a small stretch.",
            ),
    );
    report
}
