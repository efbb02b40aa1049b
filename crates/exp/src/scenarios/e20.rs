//! E20 (extension) — the temporal internet: does HOT *stay* HOT?
//!
//! Every scenario so far builds a one-shot topology; the paper's §5
//! argument is about the process that produced it. This scenario runs
//! the `hot_sim::evolve` engine for decades of simulated epochs under
//! the dot-com trend (demand compounding ~35%/epoch, transport cost
//! falling ~10%/epoch): the HOT mechanism — capped, geography-aware
//! attachment plus economically gated backbone reinforcement — against
//! BA and GLP controls grown incrementally with the same arrival
//! schedule. Rolling analytics (`hot_metrics::rolling`) track the
//! degree CCDF and the load-concentration trajectory per epoch off the
//! epoch graph's deltas.
//!
//! The claim under test: the HOT design's signatures are *stable
//! under growth* — load Gini stays flat and the max degree stays
//! pinned at the line-card cap, while the preferential controls'
//! hubs deepen monotonically (Gini climbs, max degree compounds).
//! Measured degree sequences are an effect of constraints, not a
//! growth law — and the constraints keep holding as the network ages.

use crate::jsonout::Json;
use crate::registry::RunCtx;
use crate::report::{ExpReport, Section, Table};
use hot_econ::trend::TechTrend;
use hot_graph::graph::EdgeId;
use hot_metrics::rolling::{pow2_thresholds, DeltaBetweenness, RollingDegrees, Trajectory};
use hot_sim::evolve::{
    DegreeGrowth, Evolution, EvolveConfig, GrowthModel, HotGrowth, HotGrowthConfig,
};

#[derive(Clone, Debug)]
pub struct Params {
    /// Simulated epochs (the golden preset runs 24 ≥ the 20 the
    /// acceptance gate requires).
    pub epochs: u64,
    /// Customer arrivals per epoch, shared by all three models.
    pub arrivals_per_epoch: usize,
    /// HOT: metro areas.
    pub hot_cities: usize,
    /// HOT: α in the `α·dist + depth` attachment objective.
    pub hot_alpha: f64,
    /// HOT: per-router access degree cap.
    pub hot_degree_cap: u32,
    /// Re-optimization cadence (epochs) for the HOT model.
    pub reopt_interval: u64,
    /// Controls: links per arriving node.
    pub control_m: usize,
    /// Betweenness pivot stream rate (~1 pivot per `stride` nodes).
    pub pivot_stride: u64,
    /// Degree-CCDF threshold grid cap (power-of-two grid `1..=cap`).
    pub ccdf_cap: u32,
    /// Per-epoch cost decline of the technology trend.
    pub cost_decline: f64,
    /// Per-epoch demand growth of the technology trend.
    pub demand_growth: f64,
}

impl Params {
    pub fn golden() -> Params {
        Params {
            epochs: 24,
            arrivals_per_epoch: 36,
            hot_cities: 9,
            hot_alpha: 6.0,
            hot_degree_cap: 12,
            reopt_interval: 4,
            control_m: 2,
            pivot_stride: 4,
            ccdf_cap: 64,
            cost_decline: 0.90,
            demand_growth: 1.35,
        }
    }

    pub fn full() -> Params {
        Params {
            epochs: 40,
            arrivals_per_epoch: 400,
            hot_cities: 20,
            hot_alpha: 6.0,
            hot_degree_cap: 16,
            reopt_interval: 4,
            control_m: 2,
            pivot_stride: 32,
            ccdf_cap: 512,
            cost_decline: 0.90,
            demand_growth: 1.35,
        }
    }

    fn trend(&self) -> TechTrend {
        TechTrend::new(self.cost_decline, self.demand_growth)
    }
}

/// One model's full evolution: its per-epoch trajectory plus run
/// totals. Exposed for the paper-claims tests.
#[derive(Clone, Debug)]
pub struct TemporalRow {
    pub model: &'static str,
    pub trajectory: Trajectory,
    pub final_nodes: usize,
    pub final_edges: usize,
    pub final_components: usize,
    pub reopt_links: usize,
}

/// Runs one model through the schedule, tracking the rolling metrics
/// off the epoch deltas (never a from-scratch recompute — the
/// differential suite proves that equivalence separately).
fn evolve_trajectory<M: GrowthModel>(model: M, p: &Params, ctx: &RunCtx) -> TemporalRow {
    let cfg = EvolveConfig {
        epochs: p.epochs,
        arrivals_per_epoch: p.arrivals_per_epoch,
        trend: p.trend(),
        reopt_interval: p.reopt_interval,
        seed: ctx.seed + 20,
    };
    let mut evo = Evolution::new(model, cfg);
    let name = evo.model_name();
    let mut degs = RollingDegrees::from_degrees(&evo.graph().csr().degree_sequence());
    let mut bw = DeltaBetweenness::new(ctx.seed ^ 0xE20_B7EE, p.pivot_stride);
    bw.update(evo.graph().csr(), ctx.threads);
    let mut traj = Trajectory::new(pow2_thresholds(p.ccdf_cap));
    traj.record(0, evo.graph().components(), &degs, &bw);
    let mut reopt_links = 0usize;
    for _ in 0..p.epochs {
        let delta = evo.step();
        reopt_links += delta.reopt_links;
        degs.grow_to(evo.graph().node_count());
        for e in delta.new_edges.clone() {
            let (a, b) = evo.graph().graph().edge_endpoints(EdgeId(e as u32));
            degs.add_edge(a.index(), b.index());
        }
        bw.update(evo.graph().csr(), ctx.threads);
        traj.record(delta.epoch, evo.graph().components(), &degs, &bw);
    }
    TemporalRow {
        model: name,
        trajectory: traj,
        final_nodes: evo.graph().node_count(),
        final_edges: evo.graph().edge_count(),
        final_components: evo.graph().components(),
        reopt_links,
    }
}

/// All three evolutions, in report order. The typed result the
/// paper-claims tests assert on.
pub fn temporal_rows(p: &Params, ctx: &RunCtx) -> Vec<TemporalRow> {
    vec![
        evolve_trajectory(
            HotGrowth::new(HotGrowthConfig {
                cities: p.hot_cities,
                alpha: p.hot_alpha,
                degree_cap: p.hot_degree_cap,
                ..HotGrowthConfig::default()
            }),
            p,
            ctx,
        ),
        evolve_trajectory(DegreeGrowth::glp(p.control_m), p, ctx),
        evolve_trajectory(DegreeGrowth::ba(p.control_m), p, ctx),
    ]
}

fn model_section(row: &TemporalRow) -> Section {
    let traj = &row.trajectory;
    let mut t = Table::new(&[
        "epoch",
        "nodes",
        "edges",
        "components",
        "mean-deg",
        "max-deg",
        "leaf-frac",
        "bw-gini",
        "bw-top10",
    ]);
    for r in &traj.rows {
        t.push(vec![
            r.epoch.into(),
            r.nodes.into(),
            r.edges.into(),
            r.components.into(),
            Json::Float(r.mean_degree),
            r.max_degree.into(),
            Json::Float(r.leaf_fraction),
            Json::Float(r.load.gini),
            Json::Float(r.load.top_decile_share),
        ]);
    }
    let last = traj.rows.last().expect("at least the seed row");
    let mut ccdf = Table::new(&["degree", "final-ccdf"]);
    for (k, v) in traj.thresholds.iter().zip(&last.ccdf) {
        ccdf.push(vec![(*k).into(), Json::Float(*v)]);
    }
    Section::new(format!(
        "{}: {} epochs to {} routers, {} links",
        row.model, last.epoch, row.final_nodes, row.final_edges
    ))
    .fact("final_components", row.final_components)
    .fact("reopt_links", row.reopt_links)
    .fact("gini_drift", traj.gini_drift())
    .fact("max_degree_ratio", traj.max_degree_ratio())
    .fact("final_pivots", last.pivots)
    .table(t)
    .table(ccdf)
    .note("per-epoch rows come off the rolling trackers (incremental CSR commits)")
}

pub fn run(p: &Params, ctx: RunCtx) -> ExpReport {
    let mut report = ExpReport::new(
        "e20",
        "temporal-growth",
        "E20 (extension): incremental growth — does HOT stay HOT?",
        "evolving the HOT design for decades of epochs under compounding \
         demand and falling transport costs leaves its signatures flat \
         (bounded degrees, stable load Gini), while the preferential \
         controls' hubs and load concentration only deepen",
        &ctx,
    );
    report.param("epochs", p.epochs);
    report.param("arrivals_per_epoch", p.arrivals_per_epoch);
    report.param("hot_cities", p.hot_cities);
    report.param("hot_alpha", p.hot_alpha);
    report.param("hot_degree_cap", p.hot_degree_cap);
    report.param("reopt_interval", p.reopt_interval);
    report.param("control_m", p.control_m);
    report.param("pivot_stride", p.pivot_stride);
    report.param("cost_decline", p.cost_decline);
    report.param("demand_growth", p.demand_growth);
    if p.epochs == 0 || p.arrivals_per_epoch == 0 || p.hot_cities == 0 || p.control_m == 0 {
        return report.into_skipped(format!(
            "degenerate schedule: epochs = {}, arrivals = {}, cities = {}, m = {}",
            p.epochs, p.arrivals_per_epoch, p.hot_cities, p.control_m
        ));
    }
    let rows = temporal_rows(p, &ctx);
    let mut summary = Table::new(&[
        "model",
        "nodes",
        "links",
        "gini-first",
        "gini-last",
        "gini-drift",
        "maxdeg-first",
        "maxdeg-last",
    ]);
    for row in &rows {
        let first = row.trajectory.rows.first().expect("seed row");
        let last = row.trajectory.rows.last().expect("final row");
        summary.push(vec![
            Json::str(row.model),
            row.final_nodes.into(),
            row.final_edges.into(),
            Json::Float(first.load.gini),
            Json::Float(last.load.gini),
            Json::Float(row.trajectory.gini_drift()),
            first.max_degree.into(),
            last.max_degree.into(),
        ]);
    }
    report.section(
        Section::new("trajectory summary")
            .fact("models", rows.len())
            .fact(
                "epochs_simulated",
                rows[0].trajectory.rows.last().expect("final row").epoch,
            )
            .table(summary),
    );
    for row in &rows {
        report.section(model_section(row));
    }
    report.section(Section::new("interpretation").note(
        "the HOT evolution keeps absorbing growth inside its constraints: \
         arrivals fill spare access ports, entrants and trunks extend the \
         core only where epoch-priced economics justify it, so the load \
         Gini trajectory stays flat and the maximum degree stays pinned \
         near the line-card cap; the BA/GLP controls funnel every epoch's \
         arrivals to the same early hubs, so their max degree compounds \
         and load concentration ratchets upward — a growth process, not a \
         snapshot, is what separates the mechanisms (§5).",
    ));
    report
}
