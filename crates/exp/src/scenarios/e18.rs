//! E18 (extension) — capacitated traffic engineering and cascading
//! overload: HOT vs degree-based topologies under a flash-crowd surge.
//!
//! E15 established *where* load lands; this scenario adds the capacity
//! dimension the paper's economic argument turns on. Every link gets a
//! provisioned capacity — cable-catalog tiers sized for the baseline
//! demand on the designed ISP, degree-proportional trunking on GLP/BA,
//! both with the same headroom — and three capacitated questions are
//! asked of each topology: how hot does the baseline run
//! (utilization), how much can TE weight tuning shave off the peak,
//! and what happens when a rank-biased flash crowd aims extra demand
//! at the most popular nodes. The cascade simulator
//! (`hot-sim::cascade`) fails every over-threshold link in
//! deterministic batches and re-routes to a fixed point; the designed
//! topology's provisioned trunks absorb the surge at low amplification
//! while the hub topologies trip their hub links and cascade.

use crate::fixtures::{customer_gravity_demand, standard_geography, total_traffic_is_valid};
use crate::jsonout::Json;
use crate::registry::RunCtx;
use crate::report::{ExpReport, Section, Table};
use hot_baselines::{ba, glp};
use hot_core::isp::generator::{generate, IspConfig};
use hot_econ::cable::CableCatalog;
use hot_econ::{headroom_is_valid, proportional_capacities, provision_capacities};
use hot_graph::csr::CsrGraph;
use hot_metrics::utilization::{utilization_summary, UtilizationSummary};
use hot_sim::cascade::{cascade, threshold_is_valid, CascadeConfig, CascadeRound};
use hot_sim::demand::{DemandConfig, DemandMatrix, DemandModel, SumDemand};
use hot_sim::te::{tune_weights, TeConfig};
use hot_sim::traffic::{link_loads, RoutePolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Clone, Debug)]
pub struct Params {
    /// Nodes of the GLP control topology.
    pub glp_n: usize,
    /// Nodes of the BA control topology.
    pub ba_n: usize,
    pub cities: usize,
    pub n_pops: usize,
    pub total_customers: usize,
    /// Baseline demand total over unordered pairs (the demand the
    /// capacities are provisioned for).
    pub total_traffic: f64,
    /// Flash-crowd overlay total: rank-biased Zipf demand aimed at the
    /// highest-degree nodes, added on top of the baseline.
    pub surge_traffic: f64,
    /// Zipf exponent of the surge overlay.
    pub surge_exponent: f64,
    /// Capacity headroom over baseline loads (≥ 1): links are sized so
    /// baseline utilization is at most `1 / headroom`.
    pub headroom: f64,
    /// Utilization past which a link fails during the cascade.
    pub cascade_threshold: f64,
    /// Accepted-round cap of the TE weight-tuning loop.
    pub max_te_rounds: usize,
    /// Safety cap on cascade rounds.
    pub max_cascade_rounds: usize,
}

impl Params {
    pub fn golden() -> Params {
        Params {
            glp_n: 512,
            ba_n: 512,
            cities: 15,
            n_pops: 4,
            total_customers: 300,
            total_traffic: 1_000_000.0,
            surge_traffic: 1_000_000.0,
            surge_exponent: 1.0,
            headroom: 1.25,
            cascade_threshold: 1.0,
            max_te_rounds: 6,
            max_cascade_rounds: 64,
        }
    }

    pub fn full() -> Params {
        Params {
            glp_n: 5000,
            ba_n: 5000,
            cities: 40,
            n_pops: 10,
            total_customers: 1000,
            total_traffic: 1_000_000.0,
            surge_traffic: 1_000_000.0,
            surge_exponent: 1.0,
            headroom: 1.25,
            cascade_threshold: 1.0,
            max_te_rounds: 6,
            max_cascade_rounds: 256,
        }
    }
}

/// One topology's capacitated measurement, in typed form for the
/// claims tests.
#[derive(Clone, Debug)]
pub struct CascadeRow {
    pub topology: &'static str,
    pub nodes: usize,
    pub links: usize,
    /// Sum of provisioned link capacities.
    pub total_capacity: f64,
    /// Utilization of the baseline demand against the provisioned
    /// capacities (max is ≤ 1/headroom by construction).
    pub baseline: UtilizationSummary,
    /// TE trajectory endpoints: unit-weight baseline and tuned peak.
    pub te_initial_max_util: f64,
    pub te_final_max_util: f64,
    pub te_accepted_rounds: usize,
    pub te_rounds_tried: usize,
    pub te_converged: bool,
    /// Peak utilization when the surge lands on the intact topology
    /// (round 0 of the cascade).
    pub surge_max_util: f64,
    /// `surge_max_util / baseline max utilization` — how much the
    /// flash crowd amplifies the peak relative to the provisioned
    /// operating point.
    pub amplification: f64,
    /// Cascade outcome at the fixed point.
    pub failed_links: usize,
    pub failed_link_share: f64,
    pub stranded_fraction: f64,
    pub cascade_rounds: usize,
    pub cascade_converged: bool,
    /// Fraction of provisioned capacity still alive at the fixed point.
    pub surviving_capacity_share: f64,
    /// Full per-round trajectory.
    pub rounds: Vec<CascadeRound>,
}

/// Runs the whole capacitated pipeline — baseline utilization, TE
/// tuning, surge, cascade — for one topology with its capacities.
/// `baseline_loads` are `base`'s tree-path link loads on `csr`.
fn case_row(
    topology: &'static str,
    csr: &CsrGraph,
    base: &DemandMatrix,
    baseline_loads: &[f64],
    capacities: &[f64],
    p: &Params,
    threads: usize,
) -> CascadeRow {
    let baseline = utilization_summary(baseline_loads, capacities);
    let te = tune_weights(
        csr,
        base,
        capacities,
        &TeConfig {
            max_rounds: p.max_te_rounds,
        },
        threads,
    );
    let surge_overlay = DemandMatrix::build(
        csr,
        None,
        &DemandConfig {
            model: DemandModel::RankBiased {
                exponent: p.surge_exponent,
            },
            total_traffic: p.surge_traffic,
        },
    );
    let surged = SumDemand::new(base, &surge_overlay);
    let out = cascade(
        csr,
        &surged,
        capacities,
        &CascadeConfig {
            threshold: p.cascade_threshold,
            max_rounds: p.max_cascade_rounds,
        },
        threads,
    );
    let total_capacity: f64 = capacities.iter().sum();
    let surge_max_util = out.rounds[0].max_util;
    let m = capacities.len();
    CascadeRow {
        topology,
        nodes: csr.node_count(),
        links: m,
        total_capacity,
        baseline,
        te_initial_max_util: te.initial_max_util(),
        te_final_max_util: te.final_max_util(),
        te_accepted_rounds: te.trajectory.len() - 1,
        te_rounds_tried: te.rounds_tried,
        te_converged: te.converged,
        surge_max_util,
        amplification: if baseline.max > 0.0 {
            surge_max_util / baseline.max
        } else {
            0.0
        },
        failed_links: out.failed_links(),
        failed_link_share: if m > 0 {
            out.failed_links() as f64 / m as f64
        } else {
            0.0
        },
        stranded_fraction: out.stranded_fraction(),
        cascade_rounds: out.rounds.len(),
        cascade_converged: out.converged,
        surviving_capacity_share: if total_capacity > 0.0 {
            out.final_round().surviving_capacity / total_capacity
        } else {
            0.0
        },
        rounds: out.rounds,
    }
}

/// The full sweep: designed ISP (cable-tier capacities), GLP and BA
/// (degree-proportional capacities at the same headroom), each under
/// baseline gravity demand plus the rank-biased flash crowd.
pub fn cascade_rows(p: &Params, ctx: &RunCtx) -> Vec<CascadeRow> {
    let (seed, threads) = (ctx.seed, ctx.threads);
    let mut rows = Vec::new();
    // Designed ISP: demand between customers. Capacities are the
    // *design* output the paper argues for: each link is provisioned
    // (in discrete cable tiers, with headroom) for the ISP's anticipated
    // busy-hour envelope — the baseline customer-gravity demand plus the
    // planned flash-crowd allowance — because anticipating the demand
    // class is exactly what a designed network does and what the
    // emergent degree-based controls cannot do.
    {
        let (census, traffic) = standard_geography(p.cities, seed);
        let config = IspConfig {
            n_pops: p.n_pops,
            total_customers: p.total_customers,
            ..IspConfig::default()
        };
        let isp = generate(&census, &traffic, &config, &mut StdRng::seed_from_u64(seed));
        let csr = CsrGraph::from_graph(&isp.graph);
        let base = customer_gravity_demand(&isp, p.total_traffic);
        let allowance = DemandMatrix::build(
            &csr,
            None,
            &DemandConfig {
                model: DemandModel::RankBiased {
                    exponent: p.surge_exponent,
                },
                total_traffic: p.surge_traffic,
            },
        );
        let envelope = SumDemand::new(&base, &allowance);
        let envelope_loads = link_loads(&csr, &envelope, RoutePolicy::TreePath, threads);
        let capacities = provision_capacities(
            &CableCatalog::realistic_2003(),
            &envelope_loads.link_load,
            p.headroom,
        );
        // The ISP was provisioned for its envelope, not for `base`, so
        // its baseline needs a route of its own.
        let loads = link_loads(&csr, &base, RoutePolicy::TreePath, threads);
        rows.push(case_row(
            "isp(designed)",
            &csr,
            &base,
            &loads.link_load,
            &capacities,
            p,
            threads,
        ));
    }
    // Degree-based controls: gravity demand keyed off degree,
    // capacities proportional to endpoint degrees, rescaled to the
    // same baseline headroom as the ISP.
    let glp_graph = glp::generate(
        &glp::GlpConfig { n: p.glp_n },
        &mut StdRng::seed_from_u64(seed + 1),
    );
    let ba_graph = ba::generate(p.ba_n, 2, &mut StdRng::seed_from_u64(seed + 2));
    for (name, g) in [("glp", &glp_graph), ("ba(m=2)", &ba_graph)] {
        let csr = CsrGraph::from_graph(g);
        let base = DemandMatrix::build(
            &csr,
            None,
            &DemandConfig {
                model: DemandModel::Gravity {
                    distance_exponent: 1.0,
                },
                total_traffic: p.total_traffic,
            },
        );
        let degrees = csr.degree_sequence();
        let weights: Vec<f64> = g
            .edges()
            .map(|(_, a, b, _)| (degrees[a.index()] + degrees[b.index()]) as f64)
            .collect();
        // One route serves both the capacity sizing and the row's
        // baseline utilization.
        let loads = link_loads(&csr, &base, RoutePolicy::TreePath, threads);
        let capacities = proportional_capacities(&weights, &loads.link_load, p.headroom);
        rows.push(case_row(
            name,
            &csr,
            &base,
            &loads.link_load,
            &capacities,
            p,
            threads,
        ));
    }
    rows
}

/// Why `p`'s traffic, provisioning or cascade parameters cannot give a
/// meaningful report, if they cannot: a baseline total that is not
/// positive and finite routes nothing (or infinities), a surge total or
/// exponent that is not finite drops the surge or poisons every load,
/// and headroom and threshold must pass the library's own checks.
fn invalid_capacity_params(p: &Params) -> Option<String> {
    if !total_traffic_is_valid(p.total_traffic) {
        Some(format!(
            "total_traffic = {} is not a positive finite demand",
            p.total_traffic
        ))
    } else if !(p.surge_traffic.is_finite() && p.surge_traffic >= 0.0) {
        Some(format!(
            "surge_traffic = {} is not a finite non-negative demand",
            p.surge_traffic
        ))
    } else if !p.surge_exponent.is_finite() {
        Some(format!(
            "surge_exponent = {} is not finite",
            p.surge_exponent
        ))
    } else if !headroom_is_valid(p.headroom) {
        Some(format!(
            "headroom = {} is not a finite factor >= 1",
            p.headroom
        ))
    } else if !threshold_is_valid(p.cascade_threshold) {
        Some(format!(
            "cascade_threshold = {} is not positive",
            p.cascade_threshold
        ))
    } else {
        None
    }
}

pub fn run(p: &Params, ctx: RunCtx) -> ExpReport {
    let mut report = ExpReport::new(
        "e18",
        "te-cascade",
        "E18 (extension): capacitated TE and overload cascades, HOT vs degree-based",
        "with every topology provisioned for its baseline demand at the \
         same headroom, a hub-seeking flash crowd amplifies peak \
         utilization far more on the degree-based generators than on the \
         designed ISP: the provisioned trunks absorb the surge while hub \
         links trip past capacity and cascade, stranding demand; TE \
         weight tuning lowers the peak monotonically on every topology",
        &ctx,
    );
    report.param("glp_n", p.glp_n);
    report.param("ba_n", p.ba_n);
    report.param("cities", p.cities);
    report.param("n_pops", p.n_pops);
    report.param("total_customers", p.total_customers);
    report.param("total_traffic", Json::Float(p.total_traffic));
    report.param("surge_traffic", Json::Float(p.surge_traffic));
    report.param("surge_exponent", Json::Float(p.surge_exponent));
    report.param("headroom", Json::Float(p.headroom));
    report.param("cascade_threshold", Json::Float(p.cascade_threshold));
    report.param("max_te_rounds", p.max_te_rounds);
    report.param("max_cascade_rounds", p.max_cascade_rounds);
    if p.glp_n < 10
        || p.ba_n < 10
        || p.cities < 2
        || p.n_pops == 0
        || p.cities < p.n_pops
        || p.total_customers < 2
        || p.max_cascade_rounds == 0
    {
        return report.into_skipped(format!(
            "degenerate parameters: glp_n = {}, ba_n = {}, cities = {}, n_pops = {}, \
             customers = {}, rounds = {}",
            p.glp_n, p.ba_n, p.cities, p.n_pops, p.total_customers, p.max_cascade_rounds
        ));
    }
    if let Some(reason) = invalid_capacity_params(p) {
        return report.into_skipped(reason);
    }
    let rows = cascade_rows(p, &ctx);
    let mut provisioning = Table::new(&[
        "topology", "nodes", "links", "capacity", "basemax", "basemean", "basep99", "overcap",
    ]);
    for r in &rows {
        provisioning.push(vec![
            Json::str(r.topology),
            Json::UInt(r.nodes as u64),
            Json::UInt(r.links as u64),
            Json::Float(r.total_capacity),
            Json::Float(r.baseline.max),
            Json::Float(r.baseline.mean),
            Json::Float(r.baseline.p99),
            Json::UInt(r.baseline.overloaded_links as u64),
        ]);
    }
    report.section(
        Section::new("capacity provisioning and baseline utilization")
            .table(provisioning)
            .note(
                "the designed ISP provisions cable-catalog tiers for its \
                 anticipated busy-hour envelope (baseline demand plus the \
                 planned flash-crowd allowance) — design against the \
                 expected demand class is the HOT mechanism; glp/ba have \
                 no design stage, so their trunks follow the only signal \
                 they have, degree, rescaled so their baseline also peaks \
                 at 1/headroom. every baseline runs under capacity \
                 (overcap 0).",
            ),
    );
    let mut te_table = Table::new(&[
        "topology",
        "initial",
        "final",
        "accepted",
        "tried",
        "converged",
    ]);
    for r in &rows {
        te_table.push(vec![
            Json::str(r.topology),
            Json::Float(r.te_initial_max_util),
            Json::Float(r.te_final_max_util),
            Json::UInt(r.te_accepted_rounds as u64),
            Json::UInt(r.te_rounds_tried as u64),
            Json::Bool(r.te_converged),
        ]);
    }
    report.section(
        Section::new("TE weight tuning (penalized ECMP, accept only strict improvements)")
            .table(te_table)
            .note(
                "the tuner penalizes near-peak links and keeps a candidate \
                 only when the maximum utilization strictly drops, so \
                 final <= initial on every topology and the trajectory is \
                 monotone by construction.",
            ),
    );
    let mut surge = Table::new(&[
        "topology",
        "surgemax",
        "amplification",
        "failed",
        "failedshare",
        "stranded",
        "rounds",
        "survcap",
        "converged",
    ]);
    for r in &rows {
        surge.push(vec![
            Json::str(r.topology),
            Json::Float(r.surge_max_util),
            Json::Float(r.amplification),
            Json::UInt(r.failed_links as u64),
            Json::Float(r.failed_link_share),
            Json::Float(r.stranded_fraction),
            Json::UInt(r.cascade_rounds as u64),
            Json::Float(r.surviving_capacity_share),
            Json::Bool(r.cascade_converged),
        ]);
    }
    report.section(
        Section::new("flash-crowd surge and overload cascade")
            .table(surge)
            .note(
                "the rank-biased surge aims extra demand at the most \
                 popular nodes; the designed ISP provisioned for exactly \
                 this class, so the surge rides its trunks at low \
                 amplification, while on the hub topologies it lands on \
                 the links the degree rule already runs hottest, trips \
                 them past the threshold, and cascades — even though \
                 their total provisioned capacity exceeds the ISP's.",
            ),
    );
    let mut trajectory = Table::new(&[
        "topology", "round", "failed", "maxutil", "routed", "stranded", "survcap",
    ]);
    for r in &rows {
        for round in &r.rounds {
            trajectory.push(vec![
                Json::str(r.topology),
                Json::UInt(round.round as u64),
                Json::UInt(round.failed as u64),
                Json::Float(round.max_util),
                Json::Float(round.routed_traffic),
                Json::Float(round.stranded_traffic),
                Json::Float(round.surviving_capacity),
            ]);
        }
    }
    report.section(
        Section::new("cascade trajectory per round")
            .table(trajectory)
            .note(
                "round 0 routes the surged demand on the intact topology; \
                 each later round re-routes on the survivors after the \
                 previous round's batch of failures. surviving capacity \
                 never increases and the loop ends the first round that \
                 fails nothing.",
            ),
    );
    report
}
