//! The acceptance bar for the scale kernels: on a seeded power-law
//! graph, (a) the direction-optimizing scratch BFS beats the classic
//! allocating queue sweep by ≥ 2×, with bit-identical distances; and
//! (b) pivot-sampled betweenness beats exact Brandes by ≥ 4× at 1/16
//! of the pivots, with the concentration statistics it feeds (Gini,
//! top-decile share) tracking the exact values.
//!
//! Like `csr_speedup.rs` and `traffic_speedup.rs`, this is a *timing*
//! test and lives alone in its own test binary: cargo runs test
//! binaries sequentially and a single `#[test]` gets the whole process,
//! so the measurement does not contend with the 8-thread equivalence
//! suites. In debug builds the sizes drop and only equivalence is
//! asserted; the timing gates arm in release (the BFS gate on any core
//! count — the kernel is single-threaded — and the betweenness gate on
//! ≥ 4 cores like the other suites).

use hotgen::baselines::glp;
use hotgen::graph::csr::{BfsScratch, CsrGraph};
use hotgen::graph::parallel::{default_threads, par_betweenness, par_betweenness_sampled};
use hotgen::graph::NodeId;
use hotgen::metrics::hierarchy::{betweenness_pivots, gini};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

mod common;
use common::traversal::csr_bfs_distances;

#[test]
fn scale_kernels_speedup_glp() {
    let (n, n_sources, bw_n, pivots_k) = if cfg!(debug_assertions) {
        (5_000, 64, 600, 64)
    } else {
        (200_000, 256, 6_000, 384)
    };
    let threads = default_threads();
    let csr = CsrGraph::from_graph(&glp::generate(
        &glp::GlpConfig { n },
        &mut StdRng::seed_from_u64(20030617),
    ));
    // Knuth-stride sample of sources, spread across the id space.
    let sources: Vec<NodeId> = (0..n_sources as u64)
        .map(|i| NodeId(((i * 2_654_435_761) % n as u64) as u32))
        .collect();

    // Classic allocating top-down BFS.
    let t0 = Instant::now();
    let classic: Vec<Vec<u32>> = sources
        .iter()
        .map(|&s| csr_bfs_distances(&csr, s))
        .collect();
    let classic_time = t0.elapsed();

    // Direction-optimizing BFS into reusable scratch.
    let mut scratch = BfsScratch::sized(csr.node_count());
    let t1 = Instant::now();
    let mut dirop_ok = true;
    for (i, &s) in sources.iter().enumerate() {
        csr.bfs_distances_into(s, &mut scratch);
        dirop_ok &= scratch.dist() == classic[i].as_slice();
    }
    let dirop_time = t1.elapsed();
    assert!(dirop_ok, "direction-optimizing BFS diverged from classic");

    let bfs_speedup = classic_time.as_secs_f64() / dirop_time.as_secs_f64().max(1e-9);
    println!(
        "glp{}: {} sources; classic {:.3}s, dirop {:.3}s, speedup {:.2}x",
        n,
        sources.len(),
        classic_time.as_secs_f64(),
        dirop_time.as_secs_f64(),
        bfs_speedup
    );
    if !cfg!(debug_assertions) {
        assert!(
            bfs_speedup >= 2.0,
            "expected >= 2x over the classic BFS, measured {:.2}x",
            bfs_speedup
        );
    }

    // Sampled betweenness on a smaller graph (exact Brandes is the
    // baseline and is O(n·m)).
    let bw_csr = CsrGraph::from_graph(&glp::generate(
        &glp::GlpConfig { n: bw_n },
        &mut StdRng::seed_from_u64(20030618),
    ));
    let t2 = Instant::now();
    let exact = par_betweenness(&bw_csr, threads);
    let exact_time = t2.elapsed();
    let pivots = betweenness_pivots(bw_n, pivots_k, 7);
    let t3 = Instant::now();
    let sampled = par_betweenness_sampled(&bw_csr, &pivots, threads);
    let sampled_time = t3.elapsed();

    let gini_err = (gini(&sampled) - gini(&exact)).abs();
    assert!(gini_err < 0.05, "sampled gini off by {:.4}", gini_err);
    let bw_speedup = exact_time.as_secs_f64() / sampled_time.as_secs_f64().max(1e-9);
    println!(
        "glp{}: exact {:.3}s, sampled({} pivots) {:.3}s, speedup {:.2}x, gini err {:.4}",
        bw_n,
        exact_time.as_secs_f64(),
        pivots.len(),
        sampled_time.as_secs_f64(),
        bw_speedup,
        gini_err
    );
    if !cfg!(debug_assertions) && threads >= 4 {
        assert!(
            bw_speedup >= 4.0,
            "expected >= 4x over exact Brandes at {}/{} pivots, measured {:.2}x",
            pivots.len(),
            bw_n,
            bw_speedup
        );
    }
}
