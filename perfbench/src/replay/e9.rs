//! Traced replay of `ablations`: the computation behind the three
//! tables of `hot_exp::scenarios::e9::run`, one layer call per span.
//! E9 exposes no typed rows, so the output is the tables' cells.

use crate::layers::{GENERATORS, GREEDY};
use crate::trace::Tracer;
use hot_core::buyatbulk::greedy::improve;
use hot_core::buyatbulk::problem::{AccessNetwork, Instance};
use hot_core::buyatbulk::{mmp, routing::build_report};
use hot_core::fkp::{classify, grow, Centrality, FkpConfig, FkpTopology};
use hot_core::isp::backbone::{design, BackboneConfig, BackboneDesign};
use hot_econ::cable::CableCatalog;
use hot_econ::cost::LinkCost;
use hot_exp::scenarios::e9::Params;
use hot_exp::Json;
use hot_geo::bbox::BoundingBox;
use hot_geo::point::Point;
use hot_graph::flow::global_edge_connectivity;
use hot_graph::graph::{Graph, NodeId};
use hot_metrics::degree_dist::summarize_sample;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Generated designs of all three ablations, before any local search.
pub struct Inputs {
    /// (a): per catalog, per seed, the instance and its MMP start.
    catalogs: Vec<(&'static str, Vec<(Instance, AccessNetwork)>)>,
    /// (b): POP locations with the tree and the redundant design.
    pops: Vec<Point>,
    backbones: [(&'static str, BackboneDesign); 2],
    /// (c): `(centrality, alpha, topology)` per grown FKP tree.
    fkp: Vec<(Centrality, f64, FkpTopology)>,
}

/// The three tables' rows, in report order.
pub type Tables = [Vec<Vec<Json>>; 3];

pub fn build(p: &Params, seed: u64, tr: &mut Tracer) -> Inputs {
    let realistic = LinkCost::cables_only(CableCatalog::realistic_2003());
    let flat = LinkCost::cables_only(CableCatalog::single(45.0, 10.0, 1.0));
    let catalogs = [("scale(5-tier)", realistic), ("flat(1-tier)", flat)]
        .into_iter()
        .map(|(name, cost)| {
            let starts = (0..p.bab_seeds)
                .map(|s| {
                    tr.span(GENERATORS, || {
                        let mut rng = StdRng::seed_from_u64(seed + s);
                        let inst = Instance::random_uniform(p.bab_n, 15.0, cost.clone(), &mut rng);
                        let start = mmp::solve(&inst, &mut rng);
                        (inst, start)
                    })
                })
                .collect();
            (name, starts)
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed + 50);
    let pops: Vec<Point> = (0..p.backbone_pops)
        .map(|_| BoundingBox::square(1000.0).sample_uniform(&mut rng))
        .collect();
    let backbones = [("off (tree)", false), ("on (mesh)", true)].map(|(name, redundancy)| {
        let cfg = BackboneConfig {
            redundancy,
            shortcut_pairs: 0,
            ..Default::default()
        };
        (
            name,
            tr.span(GENERATORS, || design(&pops, |_, _| 1.0, &cfg)),
        )
    });
    let mut fkp = Vec::new();
    for centrality in [
        Centrality::HopsToRoot,
        Centrality::TreeDistToRoot,
        Centrality::None,
    ] {
        for &alpha in &p.fkp_alphas {
            let config = FkpConfig {
                n: p.fkp_n,
                alpha,
                centrality,
                ..FkpConfig::default()
            };
            let topo = tr.span(GENERATORS, || {
                grow(&config, &mut StdRng::seed_from_u64(seed + 90))
            });
            fkp.push((centrality, alpha, topo));
        }
    }
    Inputs {
        catalogs,
        pops,
        backbones,
        fkp,
    }
}

/// Local search on every (a) start, then the three tables.
pub fn analyze(p: &Params, inputs: &Inputs, tr: &mut Tracer) -> Tables {
    let mut scale_rows = Vec::new();
    for (name, starts) in &inputs.catalogs {
        let seeds = p.bab_seeds as f64;
        let (mut hops, mut maxdeg, mut cv, mut big_share) = (0.0, 0u32, 0.0, 0.0);
        for (inst, start) in starts {
            let out = tr.span(GREEDY, || improve(inst, start, p.ls_iters));
            // Every scan tries all (v, u) pairs of the n + 1 nodes; the
            // last one finds no improving move unless the cap stopped it.
            let scans = out.moves + usize::from(out.moves < p.ls_iters);
            let pairs = (inst.n_customers() as u64 + 1).pow(2);
            tr.count(GREEDY, "moves", out.moves as u64);
            tr.count(GREEDY, "candidate_pairs", scans as u64 * pairs);
            let rep = build_report(inst, &out.solution);
            hops += rep.mean_hops / seeds;
            let sum = summarize_sample(&out.solution.degree_sequence());
            maxdeg = maxdeg.max(sum.max);
            cv += sum.cv / seeds;
            let total_km: f64 = rep.cable_km.iter().sum();
            let trunk_km: f64 = rep.cable_km.iter().skip(1).sum();
            if total_km > 0.0 {
                big_share += trunk_km / total_km / seeds;
            }
        }
        scale_rows.push(vec![
            Json::str(*name),
            Json::Float(hops),
            maxdeg.into(),
            Json::Float(cv),
            Json::Float(big_share),
        ]);
    }
    let pops = &inputs.pops;
    let tree_km = inputs.backbones[0].1.total_length();
    let red_rows = inputs
        .backbones
        .iter()
        .map(|(name, d)| {
            let mut g: Graph<(), f64> = Graph::new();
            for _ in 0..pops.len() {
                g.add_node(());
            }
            for &(a, b) in &d.edges {
                g.add_edge(NodeId(a as u32), NodeId(b as u32), pops[a].dist(&pops[b]));
            }
            vec![
                Json::str(*name),
                d.edges.len().into(),
                Json::Float(d.total_length()),
                Json::Bool(global_edge_connectivity(&g) >= 2),
                Json::Float(d.total_length() / tree_km),
            ]
        })
        .collect();
    let cent_rows = inputs
        .fkp
        .iter()
        .map(|(centrality, alpha, topo)| {
            vec![
                Json::str(format!("{:?}", centrality)),
                Json::Float(*alpha),
                Json::str(format!("{:?}", classify(topo))),
                topo.degree_sequence()
                    .iter()
                    .copied()
                    .max()
                    .unwrap_or(0)
                    .into(),
                Json::Int(topo.tree.height() as i64),
            ]
        })
        .collect();
    [scale_rows, red_rows, cent_rows]
}
