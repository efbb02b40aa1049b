//! E2 — FKP degree CCDFs (paper §3.1; figure analog of FKP's
//! degree-distribution plots).
//!
//! Claim: by tuning the trade-off weight, "the resulting node degree
//! distributions can be either exponential or of the power-law type".

use crate::jsonout::Json;
use crate::registry::RunCtx;
use crate::report::{ExpReport, Section, Table};
use hot_core::fkp::{alpha_is_valid, grow, Centrality, FkpConfig};
use hot_graph::degree::ccdf_of;
use hot_metrics::expfit::{classify, fit_exponential};
use hot_metrics::powerlaw::fit_ccdf;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Clone, Debug)]
pub struct Params {
    /// Nodes per grown tree.
    pub n: usize,
    /// `(alpha, label)` series to plot.
    pub series: Vec<(f64, String)>,
}

impl Params {
    pub fn golden() -> Params {
        Params {
            n: 600,
            series: vec![
                (6.0, "trade-off regime".into()),
                (20.0, "near the crossover: hubs shrinking".into()),
                (600.0, "distance regime".into()),
            ],
        }
    }

    pub fn full() -> Params {
        Params {
            n: 8000,
            series: vec![
                (6.0, "trade-off regime".into()),
                (20.0, "near the crossover: hubs shrinking".into()),
                (5000.0, "distance regime".into()),
            ],
        }
    }
}

pub fn run(p: &Params, ctx: RunCtx) -> ExpReport {
    let mut report = ExpReport::new(
        "e2",
        "fkp-ccdf",
        "E2: FKP degree CCDF series",
        "intermediate alpha -> power-law degree CCDF; large alpha -> \
         exponential degree CCDF",
        &ctx,
    );
    report.param("n", p.n);
    report.param(
        "alphas",
        Json::floats(p.series.iter().map(|(alpha, _)| *alpha)),
    );
    if p.n < 3 || p.series.is_empty() {
        return report.into_skipped(format!(
            "degenerate parameters: n = {}, {} series",
            p.n,
            p.series.len()
        ));
    }
    if let Some((alpha, _)) = p.series.iter().find(|(a, _)| !alpha_is_valid(*a)) {
        return report.into_skipped(format!(
            "alpha must be a non-negative finite number, got {}",
            alpha
        ));
    }
    for (alpha, label) in &p.series {
        let config = FkpConfig {
            n: p.n,
            alpha: *alpha,
            centrality: Centrality::HopsToRoot,
        };
        let topo = grow(&config, &mut StdRng::seed_from_u64(ctx.seed));
        let degs = topo.degree_sequence();
        let verdict = classify(&degs);
        let mut ccdf = Table::new(&["k", "P[D>=k]"]);
        for (k, prob) in ccdf_of(&degs) {
            ccdf.push(vec![k.into(), Json::Float(prob)]);
        }
        let mut section = Section::new(format!("alpha = {} ({})", alpha, label)).table(ccdf);
        if let Some(f) = fit_ccdf(&degs) {
            section = section
                .fact("powerlaw_exponent", f.exponent)
                .fact("powerlaw_r2", f.r_squared);
        }
        if let Some(f) = fit_exponential(&degs) {
            section = section
                .fact("exponential_rate", f.exponent)
                .fact("exponential_r2", f.r_squared);
        }
        report.section(section.fact("verdict", verdict.class.to_string()));
    }
    report
}
