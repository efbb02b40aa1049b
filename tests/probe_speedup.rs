//! The acceptance bar for the batched probe pipeline: a vantage-point
//! campaign on a seeded GLP graph must beat the per-vantage
//! `infer_map` reference (`tests/common/traceroute.rs`) by ≥ 2× — with
//! the inferred map bit-identical.
//!
//! Like `traffic_speedup.rs` / `te_speedup.rs`, this is a *timing*
//! test and lives alone in its own test binary so the measurement does
//! not contend with the multi-thread equivalence suites. In debug
//! builds the size drops and only equivalence is asserted; the timing
//! gate arms in release on ≥ 4 cores (the release CI job).

mod common;

use common::traceroute::infer_map;
use hotgen::baselines::glp;
use hotgen::graph::csr::CsrGraph;
use hotgen::graph::parallel::default_threads;
use hotgen::sim::probe::{run_campaign, ProbeCampaign};
use hotgen::sim::traceroute::strided_vantages;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

#[test]
fn batched_campaign_speedup_glp() {
    let (n, k) = if cfg!(debug_assertions) {
        (2_000, 16)
    } else {
        (30_000, 64)
    };
    let glp_graph = glp::generate(
        &glp::GlpConfig {
            n,
            ..glp::GlpConfig::default()
        },
        &mut StdRng::seed_from_u64(20030617),
    );
    // Re-key the GLP topology with per-link latencies derived from the
    // edge index: tie-heavy small integers, so equal-cost choices must
    // agree between the engines too.
    let g: hotgen::graph::Graph<(), f64> = hotgen::graph::Graph::from_edges(
        n,
        glp_graph
            .edges()
            .map(|(e, a, b, _)| (a.index(), b.index(), ((e.index() % 5) + 1) as f64))
            .collect::<Vec<_>>(),
    );
    let threads = default_threads();
    let vantages = strided_vantages(&g, k);
    let csr = CsrGraph::from_graph(&g);
    let latency: Vec<f64> = g.edge_ids().map(|e| *g.edge_weight(e)).collect();

    let t0 = Instant::now();
    let reference = infer_map(&g, &vantages, None, |&w| w);
    let naive_time = t0.elapsed();

    let t1 = Instant::now();
    let fast = run_campaign(
        &csr,
        &ProbeCampaign {
            vantages: &vantages,
            destinations: None,
            link_latency: Some(&latency),
        },
        threads,
    );
    let batched_time = t1.elapsed();

    // Exact agreement, always.
    assert_eq!(fast.map.node_seen, reference.node_seen);
    assert_eq!(fast.map.edge_seen, reference.edge_seen);
    assert_eq!(
        fast.map.edge_coverage.to_bits(),
        reference.edge_coverage.to_bits()
    );
    assert_eq!(fast.stats.probes_sent, (vantages.len() * n) as u64);
    assert_eq!(fast.stats.probes_sent, fast.stats.probes_completed);

    let speedup = naive_time.as_secs_f64() / batched_time.as_secs_f64().max(1e-9);
    println!(
        "glp{}: {} vantages, {} probes; naive {:.3}s, batched({} threads) {:.3}s, speedup {:.2}x",
        n,
        vantages.len(),
        fast.stats.probes_sent,
        naive_time.as_secs_f64(),
        threads,
        batched_time.as_secs_f64(),
        speedup
    );
    if !cfg!(debug_assertions) && threads >= 4 {
        assert!(
            speedup >= 2.0,
            "expected >= 2x over the per-vantage reference on {} threads, measured {:.2}x",
            threads,
            speedup
        );
    }
}
