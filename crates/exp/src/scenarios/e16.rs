//! E16 (extension) — traffic under failure: load redistribution on link
//! cuts.
//!
//! E12 showed what redundancy buys in *reachability* (stranded traffic
//! vs stretch); this scenario asks where the displaced traffic *lands*.
//! Two studies share the `hot-sim::failure` link-cut model:
//!
//! 1. **Backbone redundancy on/off** — every loaded trunk fails once;
//!    besides stranding and stretch we now track the post-failure peak
//!    link load relative to the baseline peak (`max_load_amplification`):
//!    the mesh converts failures into bounded load shifts, the tree
//!    converts them into outages.
//! 2. **Top-trunk cuts on the full ISP** — the most-loaded links under
//!    gravity customer demand are cut one at a time and the full demand
//!    re-routed with the batched traffic engine, measuring how much
//!    traffic strands and how far the peak load climbs.

use crate::fixtures::{customer_gravity_demand, standard_geography};
use crate::jsonout::Json;
use crate::registry::RunCtx;
use crate::report::{ExpReport, Section, Table};
use hot_core::isp::backbone::BackboneConfig;
use hot_core::isp::generator::{generate, IspConfig};
use hot_core::isp::LinkKind;
use hot_graph::csr::CsrGraph;
use hot_sim::demand::Demand;
use hot_sim::failure::single_link_failures;
use hot_sim::traffic::{link_loads, RoutePolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Clone, Debug)]
pub struct Params {
    pub cities: usize,
    /// POPs in the backbone redundancy study.
    pub fail_pops: usize,
    /// POPs of the full ISP in the trunk-cut study.
    pub n_pops: usize,
    pub total_customers: usize,
    pub total_traffic: f64,
    /// How many of the most-loaded links are cut (one at a time).
    pub top_cuts: usize,
}

impl Params {
    pub fn golden() -> Params {
        Params {
            cities: 15,
            fail_pops: 6,
            n_pops: 4,
            total_customers: 200,
            total_traffic: 1_000_000.0,
            top_cuts: 3,
        }
    }

    pub fn full() -> Params {
        Params {
            cities: 40,
            fail_pops: 10,
            n_pops: 10,
            total_customers: 600,
            total_traffic: 1_000_000.0,
            top_cuts: 5,
        }
    }
}

pub fn run(p: &Params, ctx: RunCtx) -> ExpReport {
    let mut report = ExpReport::new(
        "e16",
        "traffic-failure",
        "E16 (extension): load redistribution under link cuts",
        "a redundant backbone turns single-link failures into bounded \
         load shifts (modest peak amplification, nothing stranded) where \
         the tree strands traffic outright; cutting the most-loaded \
         trunks of the full ISP re-routes the gravity demand at small \
         stretch and quantifiable peak growth",
        &ctx,
    );
    report.param("cities", p.cities);
    report.param("fail_pops", p.fail_pops);
    report.param("n_pops", p.n_pops);
    report.param("total_customers", p.total_customers);
    report.param("total_traffic", Json::Float(p.total_traffic));
    report.param("top_cuts", p.top_cuts);
    if p.cities < 2
        || p.fail_pops == 0
        || p.n_pops == 0
        || p.cities < p.fail_pops
        || p.cities < p.n_pops
        || p.total_customers < 2
    {
        return report.into_skipped(format!(
            "degenerate parameters: cities = {}, fail_pops = {}, n_pops = {}, customers = {}",
            p.cities, p.fail_pops, p.n_pops, p.total_customers
        ));
    }
    let (census, traffic) = standard_geography(p.cities, ctx.seed);

    // Study 1: backbone redundancy on/off under the link-cut model,
    // now with load-redistribution accounting.
    let mut fail_table = Table::new(&[
        "backbone",
        "stranding",
        "worststranded",
        "meanstretch",
        "maxampl",
    ]);
    for (name, redundancy) in [("tree (off)", false), ("mesh (on)", true)] {
        let cfg = IspConfig {
            backbone: BackboneConfig {
                redundancy,
                shortcut_pairs: 0,
                ..Default::default()
            },
            n_pops: p.fail_pops,
            total_customers: 10,
            ..IspConfig::default()
        };
        let bb_isp = generate(
            &census,
            &traffic,
            &cfg,
            &mut StdRng::seed_from_u64(ctx.seed + 1),
        );
        let mut demands = Vec::new();
        for (i, &ra) in bb_isp.pop_routers.iter().enumerate() {
            for (j, &rb) in bb_isp.pop_routers.iter().enumerate().skip(i + 1) {
                let amount = traffic.demand(bb_isp.pop_cities[i], bb_isp.pop_cities[j]);
                if amount > 0.0 {
                    demands.push(Demand {
                        src: ra,
                        dst: rb,
                        amount,
                    });
                }
            }
        }
        let keep: Vec<bool> = bb_isp
            .graph
            .edge_ids()
            .map(|e| bb_isp.graph.edge_weight(e).kind == LinkKind::Backbone)
            .collect();
        let backbone_graph = bb_isp.graph.edge_subgraph(&keep);
        let summary = single_link_failures(&backbone_graph, &demands);
        fail_table.push(vec![
            Json::str(name),
            Json::Float(summary.stranding_fraction),
            Json::Float(summary.worst_stranded_fraction),
            Json::Float(summary.mean_stretch),
            Json::Float(summary.max_load_amplification),
        ]);
    }
    report.section(
        Section::new("single-trunk failures on the backbone: where the load goes")
            .table(fail_table)
            .note(
                "maxampl is the worst post-failure peak load relative to \
                 the baseline peak: the mesh absorbs every cut by \
                 re-routing at bounded amplification, while the tree \
                 strands traffic (amplification says nothing about the \
                 flows that simply disappear).",
            ),
    );

    // Study 2: cut the most-loaded trunks of the full ISP one at a time
    // and re-route the entire gravity customer demand with the batched
    // engine.
    let isp = generate(
        &census,
        &traffic,
        &IspConfig {
            n_pops: p.n_pops,
            total_customers: p.total_customers,
            ..IspConfig::default()
        },
        &mut StdRng::seed_from_u64(ctx.seed + 2),
    );
    let csr = CsrGraph::from_graph(&isp.graph);
    let demand = customer_gravity_demand(&isp, p.total_traffic);
    let baseline = link_loads(&csr, &demand, RoutePolicy::TreePath, ctx.threads);
    let baseline_max = baseline.max_load();
    let mut ranked: Vec<usize> = (0..baseline.link_load.len()).collect();
    ranked.sort_by(|&a, &b| {
        baseline.link_load[b]
            .total_cmp(&baseline.link_load[a])
            .then(a.cmp(&b))
    });
    let mut cut_table = Table::new(&[
        "cutlink",
        "kind",
        "cutload",
        "loadshare",
        "postmax",
        "ampl",
        "strandedfrac",
    ]);
    let offered = baseline.routed_traffic + baseline.unrouted_traffic;
    for &e in ranked.iter().take(p.top_cuts) {
        if baseline.link_load[e] <= 0.0 {
            break;
        }
        let mut keep = vec![true; isp.graph.edge_count()];
        keep[e] = false;
        let cut_graph = isp.graph.edge_subgraph(&keep);
        // Node ids survive edge_subgraph, so the demand matrix applies
        // unchanged; only the edge indexing of the load vector is new.
        let cut_csr = CsrGraph::from_graph(&cut_graph);
        let outcome = link_loads(&cut_csr, &demand, RoutePolicy::TreePath, ctx.threads);
        let kind = isp
            .graph
            .edge_weight(hot_graph::graph::EdgeId(e as u32))
            .kind;
        cut_table.push(vec![
            Json::from(e),
            Json::str(format!("{:?}", kind)),
            Json::Float(baseline.link_load[e]),
            Json::Float(baseline.link_load[e] / baseline.total_load().max(1e-12)),
            Json::Float(outcome.max_load()),
            Json::Float(outcome.max_load() / baseline_max.max(1e-12)),
            Json::Float(outcome.unrouted_traffic / offered.max(1e-12)),
        ]);
    }
    report.section(
        Section::new(format!(
            "top-{} loaded-link cuts on the full ISP, gravity customer demand",
            p.top_cuts
        ))
        .fact("nodes", isp.graph.node_count())
        .fact("links", isp.graph.edge_count())
        .fact("baseline_routed_flows", Json::UInt(baseline.routed_flows))
        .fact("baseline_max_load", Json::Float(baseline_max))
        .fact("baseline_mean_hops", Json::Float(baseline.mean_hops()))
        .table(cut_table)
        .note(
            "each row cuts one of the heaviest trunks and re-routes all \
             flows: ampl is the new peak over the old, strandedfrac the \
             offered traffic that no longer has a path. The heaviest \
             links sit in the buy-at-bulk metro tree, so cutting one \
             strands its concentrator subtree (ampl < 1 because the \
             stranded flows vanish) — the tree-vs-mesh trade-off the \
             backbone study above prices in stranding vs amplification.",
        ),
    );
    report
}
