//! E10 — robust yet fragile (paper §3.1).
//!
//! Claim: HOT systems show "apparently simple and robust external
//! behavior, with the risk of … catastrophic cascading failures": robust
//! to the designed-for perturbation (random component failure), fragile
//! to targeted ones (attacks on the hubs the optimization created).

use crate::fixtures::standard_geography;
use crate::jsonout::Json;
use crate::registry::RunCtx;
use crate::report::{ExpReport, Section, Table};
use hot_baselines::{ba, random};
use hot_core::buyatbulk::{mmp, problem::Instance};
use hot_core::fkp::{grow, FkpConfig};
use hot_core::isp::generator::{generate, IspConfig};
use hot_econ::cable::CableCatalog;
use hot_econ::cost::LinkCost;
use hot_graph::csr::CsrGraph;
use hot_metrics::robustness::{degradation_curve, robustness_score, RemovalPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Clone, Debug)]
pub struct Params {
    /// Node count of the synthetic topologies.
    pub n: usize,
    /// Removal fractions swept.
    pub fractions: Vec<f64>,
    pub cities: usize,
    pub isp_pops: usize,
    pub isp_customers: usize,
}

impl Params {
    pub fn golden() -> Params {
        Params {
            n: 200,
            fractions: vec![0.05, 0.1, 0.2],
            cities: 15,
            isp_pops: 4,
            isp_customers: 120,
        }
    }

    pub fn full() -> Params {
        Params {
            n: 1000,
            fractions: vec![0.01, 0.02, 0.05, 0.1, 0.2],
            cities: 40,
            isp_pops: 10,
            isp_customers: 800,
        }
    }
}

pub fn run(p: &Params, ctx: RunCtx) -> ExpReport {
    let mut report = ExpReport::new(
        "e10",
        "robustness",
        "E10: random failure vs targeted attack",
        "optimized (hub-bearing) topologies survive random failure but \
         shatter under degree-targeted attack; the flat random graph \
         degrades gracefully under both",
        &ctx,
    );
    report.param("n", p.n);
    report.param("fractions", Json::floats(p.fractions.iter().copied()));
    report.param("cities", p.cities);
    if p.n < 10 || p.fractions.is_empty() || p.cities < 2 {
        return report.into_skipped(format!(
            "degenerate parameters: n = {}, {} fractions, cities = {}",
            p.n,
            p.fractions.len(),
            p.cities
        ));
    }
    // Build the test topologies.
    let fkp_graph = {
        let topo = grow(
            &FkpConfig {
                n: p.n,
                alpha: 10.0,
                ..FkpConfig::default()
            },
            &mut StdRng::seed_from_u64(ctx.seed),
        );
        topo.to_graph().map(|_, _| (), |_, _| ())
    };
    let bab_graph = {
        let mut rng = StdRng::seed_from_u64(ctx.seed + 1);
        let cost = LinkCost::cables_only(CableCatalog::realistic_2003());
        let inst = Instance::random_uniform(p.n - 1, 15.0, cost, &mut rng);
        mmp::solve(&inst, &mut rng)
            .to_graph(&inst)
            .map(|_, _| (), |_, _| ())
    };
    let isp_graph = {
        let (census, traffic) = standard_geography(p.cities, ctx.seed + 2);
        let config = IspConfig {
            n_pops: p.isp_pops,
            total_customers: p.isp_customers,
            ..IspConfig::default()
        };
        let isp = generate(
            &census,
            &traffic,
            &config,
            &mut StdRng::seed_from_u64(ctx.seed + 2),
        );
        isp.graph.map(|_, _| (), |_, _| ())
    };
    let ba_graph = ba::generate(p.n, 2, &mut StdRng::seed_from_u64(ctx.seed + 3));
    let gnm_graph = random::gnm(p.n, 2 * p.n, &mut StdRng::seed_from_u64(ctx.seed + 4));

    let mut columns: Vec<String> = vec!["topology".into(), "policy".into()];
    columns.extend(p.fractions.iter().map(|f| format!("f={}", f)));
    columns.push("score".into());
    let column_refs: Vec<&str> = columns.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&column_refs);
    let mut curve_row = |name: &str, csr: &CsrGraph, policy: RemovalPolicy| {
        let mut rng = StdRng::seed_from_u64(ctx.seed + 10);
        // The parallel sweep is bit-identical to the serial one at any
        // thread count, so the table stays reproducible.
        let pts = degradation_curve(csr, policy, &p.fractions, &mut rng, ctx.threads.max(1));
        let mut row: Vec<Json> = vec![
            Json::str(name),
            Json::str(match policy {
                RemovalPolicy::RandomFailure => "random",
                RemovalPolicy::DegreeAttack => "attack",
            }),
        ];
        row.extend(pts.iter().map(|pt| Json::Float(pt.giant_fraction)));
        row.push(Json::Float(robustness_score(&pts)));
        table.push(row);
    };
    for (name, g) in [
        ("fkp-hubtree", &fkp_graph),
        ("buy-at-bulk", &bab_graph),
        ("isp(full)", &isp_graph),
        ("ba(m=2)", &ba_graph),
        ("gnm(2n)", &gnm_graph),
    ] {
        let csr = CsrGraph::from_graph(g);
        curve_row(name, &csr, RemovalPolicy::RandomFailure);
        curve_row(name, &csr, RemovalPolicy::DegreeAttack);
    }
    report.section(
        Section::new(format!(
            "giant-component fraction after removing f of nodes, f = {:?}",
            p.fractions
        ))
        .table(table)
        .note(
            "compare each topology's two rows — the attack score collapses \
             for the hub-bearing optimized designs (robust-yet-fragile), \
             while gnm barely distinguishes the policies. Note the \
             redundant ISP backbone softens the tree's fragility.",
        ),
    );
    report
}
