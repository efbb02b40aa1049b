//! E4 — buy-at-bulk solution quality (paper §4.1).
//!
//! Claim: the problem is NP-hard but the Meyerson et al. randomized
//! algorithm achieves a constant-factor approximation; the table measures
//! the empirical constants for MMP, MMP + local search, and the classic
//! baselines, against the exact optimum where enumeration is feasible.

use crate::jsonout::Json;
use crate::registry::RunCtx;
use crate::report::{ExpReport, Section, Table};
use hot_core::buyatbulk::{exact, greedy, mmp, problem::Instance};
use hot_econ::cable::CableCatalog;
use hot_econ::cost::LinkCost;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Clone, Debug)]
pub struct Params {
    /// Instance sizes compared against the exact optimum.
    pub exact_ns: Vec<usize>,
    pub exact_seeds: u64,
    /// Larger sizes compared against the best heuristic.
    pub heuristic_ns: Vec<usize>,
    pub heuristic_seeds: u64,
    /// Local-search iterations for the tiny / large instances.
    pub ls_iters_exact: usize,
    pub ls_iters_large: usize,
    /// Size of the order-sensitivity probe.
    pub order_n: usize,
}

impl Params {
    pub fn golden() -> Params {
        Params {
            exact_ns: vec![4, 5],
            exact_seeds: 2,
            heuristic_ns: vec![12, 20],
            heuristic_seeds: 2,
            ls_iters_exact: 200,
            ls_iters_large: 200,
            order_n: 16,
        }
    }

    pub fn full() -> Params {
        Params {
            exact_ns: vec![4, 6, 7],
            exact_seeds: 5,
            heuristic_ns: vec![25, 50, 100, 200],
            heuristic_seeds: 3,
            ls_iters_exact: 500,
            ls_iters_large: 2000,
            order_n: 50,
        }
    }
}

fn average<const K: usize>(mut f: impl FnMut(u64) -> [f64; K], seeds: u64) -> [f64; K] {
    let mut acc = [0.0; K];
    for s in 0..seeds {
        let v = f(s);
        for i in 0..K {
            acc[i] += v[i];
        }
    }
    for a in &mut acc {
        *a /= seeds as f64;
    }
    acc
}

pub fn run(p: &Params, ctx: RunCtx) -> ExpReport {
    let mut report = ExpReport::new(
        "e4",
        "buyatbulk-cost",
        "E4: buy-at-bulk cost comparison",
        "MMP is a constant factor from optimal; aggregation (MMP/local \
         search) beats both the direct star and pure-MST designs",
        &ctx,
    );
    report.param(
        "exact_ns",
        Json::Arr(p.exact_ns.iter().map(|&n| n.into()).collect()),
    );
    report.param(
        "heuristic_ns",
        Json::Arr(p.heuristic_ns.iter().map(|&n| n.into()).collect()),
    );
    report.param("exact_seeds", p.exact_seeds);
    report.param("heuristic_seeds", p.heuristic_seeds);
    report.param("order_n", p.order_n);
    if (p.exact_ns.is_empty() && p.heuristic_ns.is_empty())
        || p.exact_seeds == 0
        || p.heuristic_seeds == 0
        || p.order_n < 3
    {
        return report
            .into_skipped("degenerate parameters: no instance sizes, zero seeds, or order_n < 3");
    }
    let cost = LinkCost::cables_only(CableCatalog::realistic_2003());

    let mut exact_table = Table::new(&["n", "star", "mst", "mmp", "mmp+ls"]);
    for &n in &p.exact_ns {
        let ratios = average::<4>(
            |s| {
                let mut rng = StdRng::seed_from_u64(ctx.seed + s);
                let inst = Instance::random_uniform(n, 25.0, cost.clone(), &mut rng);
                let (_, opt) = exact::solve(&inst);
                let star = greedy::star(&inst).total_cost(&inst);
                let mst = greedy::mst_route(&inst).total_cost(&inst);
                let m = mmp::solve(&inst, &mut rng).total_cost(&inst);
                let ls = greedy::mmp_plus_improve(&inst, &mut rng, p.ls_iters_exact).final_cost;
                [star / opt, mst / opt, m / opt, ls / opt]
            },
            p.exact_seeds,
        );
        exact_table.push(vec![
            n.into(),
            Json::Float(ratios[0]),
            Json::Float(ratios[1]),
            Json::Float(ratios[2]),
            Json::Float(ratios[3]),
        ]);
    }
    report.section(
        Section::new(format!(
            "tiny instances vs the exact optimum (ratios to OPT, {} seeds)",
            p.exact_seeds
        ))
        .table(exact_table),
    );

    let mut large_table = Table::new(&["n", "star", "mst", "mmp", "mmp+ls"]);
    for &n in &p.heuristic_ns {
        let costs = average::<4>(
            |s| {
                let mut rng = StdRng::seed_from_u64(ctx.seed + 100 + s);
                let inst = Instance::random_uniform(n, 25.0, cost.clone(), &mut rng);
                let star = greedy::star(&inst).total_cost(&inst);
                let mst = greedy::mst_route(&inst).total_cost(&inst);
                let m = mmp::solve(&inst, &mut rng).total_cost(&inst);
                let ls = greedy::mmp_plus_improve(&inst, &mut rng, p.ls_iters_large).final_cost;
                [star, mst, m, ls]
            },
            p.heuristic_seeds,
        );
        let best = costs.iter().copied().fold(f64::INFINITY, f64::min);
        large_table.push(vec![
            n.into(),
            Json::Float(costs[0] / best),
            Json::Float(costs[1] / best),
            Json::Float(costs[2] / best),
            Json::Float(costs[3] / best),
        ]);
    }
    report.section(
        Section::new(format!(
            "larger instances (ratios to the best heuristic, {} seeds)",
            p.heuristic_seeds
        ))
        .table(large_table),
    );

    // Order sensitivity: adversarial far-first insertion vs random.
    let mut rng = StdRng::seed_from_u64(ctx.seed + 999);
    let inst = Instance::random_uniform(p.order_n, 25.0, cost.clone(), &mut rng);
    let mut order: Vec<usize> = (1..=p.order_n).collect();
    order.sort_by(|&a, &b| {
        inst.node_point(b)
            .dist(&inst.sink)
            .partial_cmp(&inst.node_point(a).dist(&inst.sink))
            .expect("no NaN")
    });
    let adversarial = mmp::solve_in_order(&inst, &order).total_cost(&inst);
    let random = mmp::solve(&inst, &mut rng).total_cost(&inst);
    report.section(
        Section::new(format!(
            "order sensitivity (n = {}, adversarial far-first vs random)",
            p.order_n
        ))
        .fact("far_first_order_cost", adversarial)
        .fact("random_order_cost", random)
        .note("random order is the MMP guarantee"),
    );
    report
}
