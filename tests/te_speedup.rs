//! The acceptance bar for the capacitated cascade: on a seeded GLP
//! graph under stressed capacities, the batched cascade (parallel BFS
//! forests + chunked load accumulation per round) beats the naive
//! per-flow, per-round reference by ≥ 2× — with the round-by-round
//! outcome bit-identical.
//!
//! Like `traffic_speedup.rs`, this is a *timing* test and lives alone
//! in its own test binary so the measurement does not contend with the
//! multi-thread equivalence suites. In debug builds the size drops and
//! only equivalence is asserted; the timing gate arms in release on
//! ≥ 4 cores (the release CI job).

use hotgen::baselines::glp;
use hotgen::graph::csr::CsrGraph;
use hotgen::graph::parallel::default_threads;
use hotgen::sim::cascade::{cascade, CascadeConfig};
use hotgen::sim::demand::OdDemand;
use hotgen::sim::traffic::{link_loads, RoutePolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

mod common;
use common::per_flow::cascade_naive;
use common::Banded;

/// Integer-valued OD demand (same family as `te_cascade_equivalence`):
/// exact in f64 under any summation order, so batched and naive rounds
/// agree bit for bit.
struct IntegerDemand {
    n: usize,
}

impl OdDemand for IntegerDemand {
    fn node_count(&self) -> usize {
        self.n
    }
    fn demand(&self, src: usize, dst: usize) -> f64 {
        if src == dst {
            0.0
        } else {
            ((src * 7 + dst * 13) % 5) as f64
        }
    }
}

#[test]
fn batched_cascade_speedup_glp() {
    let (n, max_src) = if cfg!(debug_assertions) {
        (800, 60)
    } else {
        (5_000, 400)
    };
    let g = glp::generate(&glp::GlpConfig { n }, &mut StdRng::seed_from_u64(20030617));
    let csr = CsrGraph::from_graph(&g);
    let threads = default_threads();
    let dem = Banded {
        inner: IntegerDemand { n },
        max_src,
    };
    // Capacities that force a real multi-round cascade: comfortable
    // headroom on most links, every 7th provisioned below its
    // intact-graph load.
    let loads = link_loads(&csr, &dem, RoutePolicy::TreePath, threads);
    let caps: Vec<f64> = loads
        .link_load
        .iter()
        .enumerate()
        .map(|(e, &l)| (l + 1.0) * if e % 7 == 0 { 0.8 } else { 1.5 })
        .collect();
    let cfg = CascadeConfig::default();

    let t0 = Instant::now();
    let slow = cascade_naive(&csr, &dem, &caps, &cfg);
    let naive_time = t0.elapsed();

    let t1 = Instant::now();
    let fast = cascade(&csr, &dem, &caps, &cfg, threads);
    let batched_time = t1.elapsed();

    // Exact agreement, always: structural equality covers every
    // per-round float bit for bit.
    assert_eq!(fast, slow, "batched vs naive cascade diverged");
    assert!(fast.converged && fast.failed_links() > 0);
    assert!(fast.rounds.len() >= 2, "capacities must actually cascade");

    let speedup = naive_time.as_secs_f64() / batched_time.as_secs_f64().max(1e-9);
    println!(
        "glp{}: {} rounds, {} failed links; naive {:.3}s, batched({} threads) {:.3}s, speedup {:.2}x",
        n,
        fast.rounds.len(),
        fast.failed_links(),
        naive_time.as_secs_f64(),
        threads,
        batched_time.as_secs_f64(),
        speedup
    );
    if !cfg!(debug_assertions) && threads >= 4 {
        assert!(
            speedup >= 2.0,
            "expected >= 2x over the per-round naive reference on {} threads, measured {:.2}x",
            threads,
            speedup
        );
    }
}
