//! E3 — the paper's §4.2 headline result.
//!
//! Claim: "the approximation method in \[24\] yields tree topologies with
//! exponential node degree distributions" when run with fictitious-but-
//! realistic cable capacities and costs.

use crate::jsonout::Json;
use crate::registry::RunCtx;
use crate::report::{ExpReport, Section, Table};
use hot_core::buyatbulk::{mmp, problem::Instance};
use hot_econ::cable::CableCatalog;
use hot_econ::cost::LinkCost;
use hot_graph::degree::ccdf_of;
use hot_graph::tree::is_tree;
use hot_metrics::expfit::{classify, fit_exponential};
use hot_metrics::powerlaw::fit_ccdf;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Clone, Debug)]
pub struct Params {
    /// Customers per instance.
    pub n: usize,
    /// Instances pooled (one seed each).
    pub seeds: u64,
}

impl Params {
    pub fn golden() -> Params {
        Params { n: 120, seeds: 3 }
    }

    pub fn full() -> Params {
        Params { n: 600, seeds: 10 }
    }
}

pub fn run(p: &Params, ctx: RunCtx) -> ExpReport {
    let mut report = ExpReport::new(
        "e3",
        "buyatbulk-degree",
        "E3: MMP buy-at-bulk topology (paper's preliminary result)",
        "randomized incremental buy-at-bulk design with realistic cable \
         types yields TREES with EXPONENTIAL degree distributions",
        &ctx,
    );
    report.param("n", p.n);
    report.param("seeds", p.seeds);
    if p.n < 2 || p.seeds == 0 {
        return report.into_skipped(format!(
            "degenerate parameters: n = {}, {} seeds",
            p.n, p.seeds
        ));
    }
    let catalog = CableCatalog::realistic_2003();
    let cost = LinkCost::cables_only(catalog);
    // Pool degrees across seeds for a stable distribution estimate.
    let mut all_degrees: Vec<u32> = Vec::new();
    let mut trees_ok = true;
    for s in 0..p.seeds {
        let mut rng = StdRng::seed_from_u64(ctx.seed + s);
        let instance = Instance::random_uniform(p.n, 15.0, cost.clone(), &mut rng);
        let solution = mmp::solve(&instance, &mut rng);
        trees_ok &= is_tree(&solution.to_graph(&instance));
        all_degrees.extend(solution.degree_sequence());
    }
    let mut ccdf = Table::new(&["k", "P[D>=k]"]);
    for (k, prob) in ccdf_of(&all_degrees) {
        ccdf.push(vec![k.into(), Json::Float(prob)]);
    }
    let mut section = Section::new(format!(
        "{} customers per instance, {} seeds pooled",
        p.n, p.seeds
    ))
    .fact("all_solutions_are_trees", trees_ok)
    .table(ccdf);
    if let Some(f) = fit_exponential(&all_degrees) {
        section = section
            .fact("exponential_rate", f.exponent)
            .fact("exponential_r2", f.r_squared);
    }
    if let Some(f) = fit_ccdf(&all_degrees) {
        section = section
            .fact("powerlaw_exponent", f.exponent)
            .fact("powerlaw_r2", f.r_squared);
    }
    let verdict = classify(&all_degrees);
    report.section(
        section
            .fact("verdict", verdict.class.to_string())
            .note("the paper predicts: exponential"),
    );
    report
}
