//! E1 — FKP regime table (paper §3.1).
//!
//! Claim: the FKP trade-off model transitions star → power-law hub trees
//! → exponential distance trees as α grows (thresholds at O(1) and
//! Ω(√n)).

use crate::jsonout::Json;
use crate::registry::RunCtx;
use crate::report::{ExpReport, Section, Table};
use hot_core::fkp::{alpha_is_valid, classify, grow, Centrality, FkpConfig, TopologyClass};
use hot_metrics::expfit::{classify as tail_classify, TailClass};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Clone, Debug)]
pub struct Params {
    /// Nodes per grown tree, including the root.
    pub n: usize,
    /// Trade-off weights to sweep.
    pub alphas: Vec<f64>,
    /// Seeds per alpha; the regime class is the majority vote, the
    /// degree stats come from the first seed.
    pub seeds_per_alpha: u64,
}

impl Params {
    pub fn golden() -> Params {
        let n = 300usize;
        let sqrt_n = (n as f64).sqrt();
        Params {
            n,
            alphas: vec![0.3, 0.7, 2.0, 8.0, sqrt_n, 4.0 * sqrt_n, n as f64],
            seeds_per_alpha: 2,
        }
    }

    pub fn full() -> Params {
        let n = 4000usize;
        let sqrt_n = (n as f64).sqrt();
        Params {
            n,
            alphas: vec![
                0.3,
                0.7,
                2.0,
                4.0,
                8.0,
                16.0,
                sqrt_n / 2.0,
                sqrt_n,
                4.0 * sqrt_n,
                n as f64,
            ],
            seeds_per_alpha: 3,
        }
    }
}

/// One row of the regime table, in typed form for the claims tests.
#[derive(Clone, Debug)]
pub struct RegimeRow {
    pub alpha: f64,
    pub class: TopologyClass,
    pub max_deg: u32,
    pub root_share: f64,
    pub height: u64,
    pub tail: TailClass,
}

/// The regime sweep itself: one [`RegimeRow`] per alpha.
pub fn regime_rows(p: &Params, seed: u64) -> Vec<RegimeRow> {
    let mut rows = Vec::with_capacity(p.alphas.len());
    for &alpha in &p.alphas {
        let mut classes = Vec::new();
        let mut first = None;
        for s in 0..p.seeds_per_alpha {
            let config = FkpConfig {
                n: p.n,
                alpha,
                centrality: Centrality::HopsToRoot,
            };
            let topo = grow(&config, &mut StdRng::seed_from_u64(seed + s));
            classes.push(classify(&topo));
            if first.is_none() {
                first = Some(topo);
            }
        }
        let topo = first.expect("at least one seed ran");
        // Majority class across seeds; the earliest seed's class wins
        // ties (only a strictly greater count displaces it).
        let mut class = classes[0];
        let mut votes = 0;
        for &c in &classes {
            let count = classes.iter().filter(|&&d| d == c).count();
            if count > votes {
                votes = count;
                class = c;
            }
        }
        let degs = topo.degree_sequence();
        let max_deg = degs.iter().copied().max().unwrap_or(0);
        let root_share = if p.n > 1 {
            topo.tree.children(topo.tree.root()).len() as f64 / (p.n - 1) as f64
        } else {
            0.0
        };
        rows.push(RegimeRow {
            alpha,
            class,
            max_deg,
            root_share,
            height: topo.tree.height() as u64,
            tail: tail_classify(&degs).class,
        });
    }
    rows
}

pub fn run(p: &Params, ctx: RunCtx) -> ExpReport {
    let mut report = ExpReport::new(
        "e1",
        "fkp-regimes",
        "E1: FKP trade-off regimes",
        "alpha < 1/sqrt(2) -> star; intermediate alpha -> heavy-tailed hub \
         trees; alpha = Omega(sqrt(n)) -> exponential-degree trees",
        &ctx,
    );
    report.param("n", p.n);
    report.param("alphas", Json::floats(p.alphas.iter().copied()));
    report.param("seeds_per_alpha", p.seeds_per_alpha);
    if p.n < 3 || p.alphas.is_empty() || p.seeds_per_alpha == 0 {
        return report.into_skipped(format!(
            "degenerate parameters: n = {}, {} alphas, {} seeds",
            p.n,
            p.alphas.len(),
            p.seeds_per_alpha
        ));
    }
    if let Some(alpha) = p.alphas.iter().find(|&&a| !alpha_is_valid(a)) {
        return report.into_skipped(format!(
            "alpha must be a non-negative finite number, got {}",
            alpha
        ));
    }
    let sqrt_n = (p.n as f64).sqrt();
    let mut table = Table::new(&["alpha", "class", "maxdeg", "rootshare", "height", "tail"]);
    for row in regime_rows(p, ctx.seed) {
        table.push(vec![
            Json::Float(row.alpha),
            Json::str(format!("{:?}", row.class)),
            row.max_deg.into(),
            Json::Float(row.root_share),
            row.height.into(),
            Json::str(row.tail.to_string()),
        ]);
    }
    report.section(
        Section::new(format!(
            "n = {} nodes, root at region center, {} seeds each",
            p.n, p.seeds_per_alpha
        ))
        .table(table)
        .note(format!(
            "Star rows have rootshare ~1; HubTree rows have maxdeg >> \
             sqrt(n) = {:.0} and power-law-ish tails; DistanceTree rows \
             have small maxdeg and exponential tails.",
            sqrt_n
        )),
    );
    report
}
