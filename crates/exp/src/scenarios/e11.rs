//! E11 (extension) — the Level-2 technology question (paper §2.4).
//!
//! "We expect this approach to shed light on the question of how
//! important the careful incorporation of Level-2 technologies and
//! economics is. Note that current router-level measurements are all
//! IP-based and say little about the underlying link-layer technologies."
//!
//! Same metro, two Level-2 worlds: buy-at-bulk trees (cheapest feasible
//! fiber, 1-connected) vs SONET rings (survivable by construction). The
//! table quantifies the survivability premium and how different the two
//! IP-visible topologies look — from identical demand and geography.

use crate::jsonout::Json;
use crate::registry::RunCtx;
use crate::report::{ExpReport, Section, Table};
use crate::scenarios::e6::metric_matrix;
use hot_core::access::ring::design_ring;
use hot_core::buyatbulk::{greedy, problem::Instance};
use hot_econ::cable::CableCatalog;
use hot_econ::cost::LinkCost;
use hot_geo::point::Point;
use hot_graph::flow::global_edge_connectivity;
use hot_metrics::MetricReport;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Clone, Debug)]
pub struct Params {
    /// Terminals per metro instance.
    pub terminals: usize,
    pub seeds: u64,
    pub ls_iters: usize,
    /// Max terminals per SONET ring.
    pub ring_size: usize,
}

impl Params {
    pub fn golden() -> Params {
        Params {
            terminals: 24,
            seeds: 2,
            ls_iters: 200,
            ring_size: 30,
        }
    }

    pub fn full() -> Params {
        Params {
            terminals: 60,
            seeds: 5,
            ls_iters: 1000,
            ring_size: 30,
        }
    }
}

pub fn run(p: &Params, ctx: RunCtx) -> ExpReport {
    let mut report = ExpReport::new(
        "e11",
        "level2-ring",
        "E11 (extension): Level-2 ablation — buy-at-bulk tree vs SONET ring",
        "the same metro demand yields structurally different IP-visible \
         topologies depending on the link-layer technology; survivability \
         is bought with a fiber premium",
        &ctx,
    );
    report.param("terminals", p.terminals);
    report.param("seeds", p.seeds);
    report.param("ring_size", p.ring_size);
    if p.terminals < 3 || p.seeds == 0 || p.ring_size < 3 {
        return report.into_skipped(format!(
            "degenerate parameters: terminals = {}, seeds = {}, ring_size = {}",
            p.terminals, p.seeds, p.ring_size
        ));
    }
    let cost = LinkCost::cables_only(CableCatalog::realistic_2003());
    let mut per_seed = Table::new(&[
        "seed", "tree-km", "ring-km", "premium", "tree-cut", "ring-cut",
    ]);
    let mut reports = Vec::new();
    for s in 0..p.seeds {
        let mut rng = StdRng::seed_from_u64(ctx.seed + s);
        let inst = Instance::random_uniform(p.terminals, 15.0, cost.clone(), &mut rng);
        // Tree world: buy-at-bulk MMP + local search.
        let tree = greedy::mmp_plus_improve(&inst, &mut rng, p.ls_iters).solution;
        let tree_graph = tree.to_graph(&inst);
        let tree_km = tree_graph.total_edge_weight(|w| *w);
        // Ring world: SONET cycle through the same terminals.
        let terminals: Vec<Point> = inst.customers.iter().map(|c| c.location).collect();
        let ring = design_ring(inst.sink, &terminals, p.ring_size);
        let ring_graph = ring.to_graph(inst.sink, &terminals);
        per_seed.push(vec![
            s.into(),
            Json::Float(tree_km),
            Json::Float(ring.total_length),
            Json::Float(if tree_km > 0.0 {
                ring.total_length / tree_km
            } else {
                f64::NAN
            }),
            global_edge_connectivity(&tree_graph).into(),
            global_edge_connectivity(&ring_graph).into(),
        ]);
        if s == 0 {
            reports.push(MetricReport::compute("tree(l2=p2p)", &tree_graph));
            reports.push(MetricReport::compute("ring(l2=sonet)", &ring_graph));
        }
    }
    report.section(
        Section::new(format!(
            "per-metro comparison ({} seeds, {} terminals each)",
            p.seeds, p.terminals
        ))
        .table(per_seed),
    );
    report.section(
        Section::new("IP-visible metric comparison (seed 0)")
            .table(metric_matrix(&reports))
            .note(
                "identical customers, identical demand — yet the SONET \
                 metro shows degree-2 routers, huge diameter, and min-cut \
                 2, while the point-to-point metro shows a hub-and-spur \
                 tree with min-cut 1. An IP-level map cannot tell you \
                 *why* without the Level-2 economics, which is the paper's \
                 §2.4 warning.",
            ),
    );
    report
}
