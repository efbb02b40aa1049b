//! Temporal growth walkthrough: evolve a HOT internet and a BA control
//! through 20 epochs of the dot-com trend and watch the signatures
//! diverge — the HOT maximum degree stays pinned near the line-card
//! cap while the preferential hub compounds, and the load Gini
//! trajectories separate the mechanisms.
//!
//! ```text
//! cargo run --release --example temporal_growth
//! ```

use hotgen::econ::trend::TechTrend;
use hotgen::metrics::rolling::Trajectory;
use hotgen::sim::evolve::{
    DegreeGrowth, Evolution, EvolveConfig, GrowthModel, HotGrowth, HotGrowthConfig,
};

const EPOCHS: u64 = 20;
const ARRIVALS: usize = 60;

fn evolve_and_report<M: GrowthModel>(model: M) {
    let mut evo = Evolution::new(
        model,
        EvolveConfig {
            arrivals_per_epoch: ARRIVALS,
            trend: TechTrend::dotcom(),
            reopt_interval: 4,
            seed: 20030617,
        },
    );
    println!(
        "--- {} ({} epochs x {} arrivals, dot-com trend) ---",
        evo.model_name(),
        EPOCHS,
        ARRIVALS
    );
    println!(
        "{:>5} {:>7} {:>7} {:>8} {:>8} {:>9} {:>8}",
        "epoch", "nodes", "links", "mean-deg", "max-deg", "bw-gini", "new-bb"
    );
    // Each epoch's row is recomputed from the grown graph: degree
    // statistics plus a betweenness estimate over about one node in 8.
    let mut traj = Trajectory::new(Vec::new());
    for _ in 0..EPOCHS {
        let delta = evo.step();
        traj.record(delta.epoch, evo.graph(), 0xE20, 8, 0);
        let row = traj.rows.last().expect("just recorded");
        println!(
            "{:>5} {:>7} {:>7} {:>8.3} {:>8} {:>9.4} {:>8}",
            delta.epoch,
            row.nodes,
            row.edges,
            row.mean_degree,
            row.max_degree,
            row.load.gini,
            delta.reopt_links,
        );
    }
    println!();
}

fn main() {
    evolve_and_report(HotGrowth::new(HotGrowthConfig {
        cities: 10,
        ..HotGrowthConfig::default()
    }));
    evolve_and_report(DegreeGrowth::ba(2));
    println!(
        "note: the HOT column pins its max degree near the access cap while\n\
         the BA hub compounds; run `expctl --run e20` for the full study."
    );
}
