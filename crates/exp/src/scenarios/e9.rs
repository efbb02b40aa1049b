//! E9 — ablations of the design drivers (paper §4 fn.7, §2.4).
//!
//! Three knobs the paper calls out, each toggled with everything else
//! fixed:
//!
//! (a) economies of scale on/off in the cable catalog — does buy-at-bulk
//!     aggregation (trunking) depend on them?
//! (b) the redundancy requirement — "adding a path redundancy requirement
//!     breaks the tree structure of the optimal solution" (footnote 7);
//! (c) the FKP centrality measure — how sensitive is the trade-off
//!     regime to the exact "operation cost" proxy?

use crate::jsonout::Json;
use crate::registry::RunCtx;
use crate::report::{ExpReport, Section, Table};
use hot_core::buyatbulk::{problem::Instance, routing::build_report};
use hot_core::fkp::{alpha_is_valid, classify, grow, Centrality, FkpConfig};
use hot_core::isp::backbone::{design, BackboneConfig};
use hot_econ::cable::CableCatalog;
use hot_econ::cost::LinkCost;
use hot_geo::bbox::BoundingBox;
use hot_geo::point::Point;
use hot_graph::flow::global_edge_connectivity;
use hot_graph::graph::{Graph, NodeId};
use hot_metrics::degree_dist::summarize_sample;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Clone, Debug)]
pub struct Params {
    /// Buy-at-bulk instance size and seed count for ablation (a).
    pub bab_n: usize,
    pub bab_seeds: u64,
    pub ls_iters: usize,
    /// POPs in the redundancy ablation (b).
    pub backbone_pops: usize,
    /// FKP size and alphas for the centrality ablation (c).
    pub fkp_n: usize,
    pub fkp_alphas: Vec<f64>,
}

impl Params {
    pub fn golden() -> Params {
        Params {
            bab_n: 60,
            bab_seeds: 2,
            ls_iters: 300,
            backbone_pops: 8,
            fkp_n: 400,
            fkp_alphas: vec![1.0, 1.2, 3.0, 8.0],
        }
    }

    pub fn full() -> Params {
        Params {
            bab_n: 300,
            bab_seeds: 5,
            ls_iters: 2000,
            backbone_pops: 16,
            fkp_n: 4000,
            fkp_alphas: vec![1.0, 1.2, 3.0, 8.0],
        }
    }
}

pub fn run(p: &Params, ctx: RunCtx) -> ExpReport {
    let mut report = ExpReport::new(
        "e9",
        "ablations",
        "E9: ablations",
        "(a) economies of scale drive trunking; (b) redundancy breaks the \
         tree; (c) FKP regimes survive centrality-measure changes",
        &ctx,
    );
    report.param("bab_n", p.bab_n);
    report.param("bab_seeds", p.bab_seeds);
    report.param("backbone_pops", p.backbone_pops);
    report.param("fkp_n", p.fkp_n);
    report.param("fkp_alphas", Json::floats(p.fkp_alphas.iter().copied()));
    if p.bab_n < 2 || p.bab_seeds == 0 || p.backbone_pops < 3 || p.fkp_n < 3 {
        return report.into_skipped(format!(
            "degenerate parameters: bab_n = {}, seeds = {}, pops = {}, fkp_n = {}",
            p.bab_n, p.bab_seeds, p.backbone_pops, p.fkp_n
        ));
    }
    if let Some(alpha) = p.fkp_alphas.iter().find(|&&a| !alpha_is_valid(a)) {
        return report.into_skipped(format!(
            "fkp alpha must be a non-negative finite number, got {}",
            alpha
        ));
    }

    // ---- (a) economies of scale ----
    // The designs run serially on purpose: on two threads they once
    // raised the ablations benchmark's peak RSS past its 10% bound. The
    // time that saved was measured before `greedy::improve` cut its
    // candidate rows; measure both again before retrying.
    let realistic = LinkCost::cables_only(CableCatalog::realistic_2003());
    // Single cable type: same smallest tier, no upgrade path.
    let flat = LinkCost::cables_only(CableCatalog::single(45.0, 10.0, 1.0));
    let mut scale_table = Table::new(&["catalog", "meanhops", "maxdeg", "degcv", "trunkshare"]);
    for (name, cost) in [("scale(5-tier)", &realistic), ("flat(1-tier)", &flat)] {
        let seeds = p.bab_seeds as f64;
        let mut hops = 0.0;
        let mut maxdeg = 0u32;
        let mut cv = 0.0;
        let mut big_share = 0.0;
        for s in 0..p.bab_seeds {
            let mut rng = StdRng::seed_from_u64(ctx.seed + s);
            let inst = Instance::random_uniform(p.bab_n, 15.0, cost.clone(), &mut rng);
            let out = hot_core::buyatbulk::greedy::mmp_plus_improve(&inst, &mut rng, p.ls_iters);
            let rep = build_report(&inst, &out.solution);
            hops += rep.mean_hops / seeds;
            let degs = out.solution.degree_sequence();
            let sum = summarize_sample(&degs);
            maxdeg = maxdeg.max(sum.max);
            cv += sum.cv / seeds;
            // Share of fiber-km on upgraded (non-smallest) cable tiers —
            // the footprint of trunking. A 1-tier catalog scores 0 by
            // definition: there is nothing to upgrade to.
            let total_km: f64 = rep.cable_km.iter().sum();
            let trunk_km: f64 = rep.cable_km.iter().skip(1).sum();
            if total_km > 0.0 {
                big_share += trunk_km / total_km / seeds;
            }
        }
        scale_table.push(vec![
            Json::str(name),
            Json::Float(hops),
            maxdeg.into(),
            Json::Float(cv),
            Json::Float(big_share),
        ]);
    }
    report.section(
        Section::new(format!(
            "(a) buy-at-bulk with vs without economies of scale (n={}, {} seeds)",
            p.bab_n, p.bab_seeds
        ))
        .table(scale_table)
        .note(
            "with economies of scale the design aggregates (deeper trees, \
             more hops, trunk share on the big cable); flat pricing \
             removes the incentive and the design flattens toward the star.",
        ),
    );

    // ---- (b) redundancy ----
    let mut rng = StdRng::seed_from_u64(ctx.seed + 50);
    let pops: Vec<Point> = (0..p.backbone_pops)
        .map(|_| BoundingBox::square(1000.0).sample_uniform(&mut rng))
        .collect();
    let demand = |_: usize, _: usize| 1.0;
    let tree_cfg = BackboneConfig {
        redundancy: false,
        shortcut_pairs: 0,
    };
    let ring_cfg = BackboneConfig {
        redundancy: true,
        shortcut_pairs: 0,
    };
    let tree = design(&pops, demand, &tree_cfg);
    let ring = design(&pops, demand, &ring_cfg);
    let graph_of = |edges: &[(usize, usize)]| {
        let mut g: Graph<(), f64> = Graph::new();
        for _ in 0..pops.len() {
            g.add_node(());
        }
        for &(a, b) in edges {
            g.add_edge(NodeId(a as u32), NodeId(b as u32), pops[a].dist(&pops[b]));
        }
        g
    };
    let mut red_table = Table::new(&["redundancy", "links", "km", "2-edge-conn", "km-premium"]);
    for (name, d) in [("off (tree)", &tree), ("on (mesh)", &ring)] {
        let g = graph_of(&d.edges);
        red_table.push(vec![
            Json::str(name),
            d.edges.len().into(),
            Json::Float(d.total_length()),
            Json::Bool(global_edge_connectivity(&g) >= 2),
            Json::Float(d.total_length() / tree.total_length()),
        ]);
    }
    report.section(
        Section::new(format!(
            "(b) backbone redundancy requirement ({} POPs)",
            p.backbone_pops
        ))
        .table(red_table)
        .note(
            "survivability costs a constant-factor fiber premium and the \
             result is no longer a tree — exactly footnote 7.",
        ),
    );

    // ---- (c) FKP centrality variants ----
    let mut cent_table = Table::new(&["centrality", "alpha", "class", "maxdeg", "height"]);
    for centrality in [
        Centrality::HopsToRoot,
        Centrality::TreeDistToRoot,
        Centrality::None,
    ] {
        // The trade-off window's location depends on the centrality's
        // units: hop counts grow ~1 per level while tree distance grows
        // ~0.3–0.7 region units, so the same alpha weighs distance much
        // more heavily under TreeDistToRoot. Sweep several alphas per
        // centrality to locate the window rather than fixing one.
        for &alpha in &p.fkp_alphas {
            let config = FkpConfig {
                n: p.fkp_n,
                alpha,
                centrality,
            };
            let topo = grow(&config, &mut StdRng::seed_from_u64(ctx.seed + 90));
            let degs = topo.degree_sequence();
            cent_table.push(vec![
                Json::str(format!("{:?}", centrality)),
                Json::Float(alpha),
                Json::str(format!("{:?}", classify(&topo))),
                degs.iter().copied().max().unwrap_or(0).into(),
                Json::Int(topo.tree.height() as i64),
            ]);
        }
    }
    report.section(
        Section::new(format!(
            "(c) FKP centrality measure ablation (n={})",
            p.fkp_n
        ))
        .table(cent_table)
        .note(
            "the star/hub/distance progression survives changing the \
                 centrality proxy, but the hub window narrows sharply when \
                 centrality is measured in the same units as distance \
                 (TreeDistToRoot: star below alpha~1, moderate hubs at 1.2, \
                 gone by 3). With no centrality at all (pure \
                 nearest-neighbor) hubs never form at any alpha: the \
                 trade-off itself is the causal force.",
        ),
    );
    report
}
