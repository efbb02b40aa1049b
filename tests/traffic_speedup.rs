//! The acceptance bar for the traffic engine: on a seeded 5k-node GLP
//! graph, the batched tree-reuse engine beats the naive per-flow
//! baseline (tree cache + per-flow path walks) by ≥ 4× — with link
//! loads bit-identical at 1 vs 8 worker threads.
//!
//! Like `csr_speedup.rs`, this is a *timing* test and lives alone in
//! its own test binary: cargo runs test binaries sequentially and a
//! single `#[test]` gets the whole process, so the measurement does not
//! contend with the 8-thread equivalence suites. In debug builds the
//! size drops and only equivalence is asserted; the timing gate arms in
//! release on ≥ 4 cores (the release CI job).

use hotgen::baselines::glp;
use hotgen::graph::csr::CsrGraph;
use hotgen::graph::parallel::default_threads;
use hotgen::graph::NodeId;
use hotgen::sim::demand::{DemandConfig, DemandMatrix, DemandModel};
use hotgen::sim::traffic::{link_loads, RoutePolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

mod common;
use common::per_flow::{bfs_forest, naive_link_load};
use common::Banded;

#[test]
fn batched_engine_speedup_glp5k() {
    let (n, n_sources) = if cfg!(debug_assertions) {
        (800, 200)
    } else {
        (5_000, 1_200)
    };
    let g = glp::generate(&glp::GlpConfig { n }, &mut StdRng::seed_from_u64(20030617));
    let csr = CsrGraph::from_graph(&g);
    let threads = default_threads();
    let dem = DemandMatrix::build(
        &csr,
        None,
        &DemandConfig {
            model: DemandModel::Gravity {
                distance_exponent: 1.0,
            },
            ..DemandConfig::default()
        },
    );
    // Both engines route the same flow set: every (src < n_sources, dst)
    // ordered pair with positive demand.
    let sources: Vec<NodeId> = (0..n_sources as u32).map(NodeId).collect();
    let flows = dem.flows_from(&sources);
    let banded = Banded {
        inner: dem,
        max_src: n_sources,
    };

    // Naive per-flow baseline: build the tree cache serially, then walk
    // every flow's path edge by edge.
    let t0 = Instant::now();
    let forest = bfs_forest(&csr, &sources, 1);
    let naive = naive_link_load(&csr, &forest, &flows);
    let naive_time = t0.elapsed();

    // Batched engine at full parallelism.
    let t1 = Instant::now();
    let batched = link_loads(&csr, &banded, RoutePolicy::TreePath, threads);
    let batched_time = t1.elapsed();

    // Agreement (to float tolerance: gravity amounts are not integers,
    // so the two summation orders may differ in the last bits).
    assert_eq!(naive.routed_flows, batched.routed_flows);
    assert_eq!(naive.unrouted_flows, batched.unrouted_flows);
    for (a, b) in naive.link_load.iter().zip(&batched.link_load) {
        assert!(
            (a - b).abs() <= 1e-9 * a.abs().max(1.0),
            "load mismatch: naive {} vs batched {}",
            a,
            b
        );
    }

    // Bit-identical at 1 vs 8 worker threads, always.
    let serial = link_loads(&csr, &banded, RoutePolicy::TreePath, 1);
    let eight = link_loads(&csr, &banded, RoutePolicy::TreePath, 8);
    let serial_bits: Vec<u64> = serial.link_load.iter().map(|x| x.to_bits()).collect();
    let eight_bits: Vec<u64> = eight.link_load.iter().map(|x| x.to_bits()).collect();
    assert_eq!(serial_bits, eight_bits, "1 vs 8 threads diverged");

    let speedup = naive_time.as_secs_f64() / batched_time.as_secs_f64().max(1e-9);
    println!(
        "glp{}: {} flows; naive {:.3}s, batched({} threads) {:.3}s, speedup {:.2}x",
        n,
        flows.len(),
        naive_time.as_secs_f64(),
        threads,
        batched_time.as_secs_f64(),
        speedup
    );
    if !cfg!(debug_assertions) && threads >= 4 {
        assert!(
            speedup >= 4.0,
            "expected >= 4x over the per-flow baseline on {} threads, measured {:.2}x",
            threads,
            speedup
        );
    }
}
