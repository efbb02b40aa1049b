//! Equivalence suite for the CSR analytics kernels: every kernel must
//! match its own 1-thread run **bit-for-bit** at every thread count from
//! 1 to 8, on structured graphs (path, star, grid), seeded generated
//! topologies (FKP, Waxman, GLP), and the degenerate empty /
//! single-node graphs.
//!
//! The kernels guarantee this by construction — sources are split into
//! chunks whose boundaries ignore the thread count, and partials are
//! reduced in chunk order — so a failure here means that invariant
//! broke, not that floating point drifted.

use hotgen::baselines::{glp, waxman};
use hotgen::graph::csr::CsrGraph;
use hotgen::graph::parallel::{par_betweenness, par_path_summary};
use hotgen::graph::{Graph, NodeId};
use hotgen::metrics::robustness::{degradation_curve, RemovalPolicy};
use hotgen::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The fixture set: name plus an unannotated copy of each topology.
fn fixtures() -> Vec<(&'static str, Graph<(), ()>)> {
    let path: Graph<(), ()> =
        Graph::from_edges(64, (0..63).map(|i| (i, i + 1, ())).collect::<Vec<_>>());
    let star: Graph<(), ()> =
        Graph::from_edges(64, (1..64).map(|i| (0, i, ())).collect::<Vec<_>>());
    let mut grid: Graph<(), ()> = Graph::new();
    let (w, h) = (12, 12);
    for _ in 0..w * h {
        grid.add_node(());
    }
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                grid.add_edge(
                    NodeId((y * w + x) as u32),
                    NodeId((y * w + x + 1) as u32),
                    (),
                );
            }
            if y + 1 < h {
                grid.add_edge(
                    NodeId((y * w + x) as u32),
                    NodeId(((y + 1) * w + x) as u32),
                    (),
                );
            }
        }
    }
    let fkp = fkp::grow(
        &FkpConfig {
            n: 400,
            alpha: 10.0,
            ..FkpConfig::default()
        },
        &mut StdRng::seed_from_u64(1),
    )
    .to_graph()
    .map(|_, _| (), |_, _| ());
    let wax = waxman::generate(
        &waxman::WaxmanConfig {
            n: 300,
            ..waxman::WaxmanConfig::default()
        },
        &mut StdRng::seed_from_u64(2),
    )
    .map(|_, _| (), |_, _| ());
    let glp_graph = glp::generate(
        &glp::GlpConfig {
            n: 400,
            ..glp::GlpConfig::default()
        },
        &mut StdRng::seed_from_u64(3),
    );
    let empty: Graph<(), ()> = Graph::new();
    let mut single: Graph<(), ()> = Graph::new();
    single.add_node(());
    vec![
        ("path64", path),
        ("star64", star),
        ("grid12x12", grid),
        ("fkp400", fkp),
        ("waxman300", wax),
        ("glp400", glp_graph),
        ("empty", empty),
        ("single", single),
    ]
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn par_betweenness_matches_serial_bit_for_bit() {
    for (name, g) in fixtures() {
        let csr = CsrGraph::from_graph(&g);
        let serial = par_betweenness(&csr, 1);
        for threads in 2..=8 {
            let par = par_betweenness(&csr, threads);
            assert_eq!(
                bits(&serial),
                bits(&par),
                "betweenness diverged on {} at {} threads",
                name,
                threads
            );
        }
    }
}

#[test]
fn par_path_summary_matches_serial_at_all_thread_counts() {
    for (name, g) in fixtures() {
        let csr = CsrGraph::from_graph(&g);
        let sources: Vec<NodeId> = g.node_ids().collect();
        let serial = par_path_summary(&csr, &sources, 1);
        for threads in 2..=8 {
            let par = par_path_summary(&csr, &sources, threads);
            assert_eq!(
                serial, par,
                "path summary diverged on {} at {} threads",
                name, threads
            );
        }
    }
}

#[test]
fn parallel_degradation_curve_matches_serial() {
    let fractions = [0.0, 0.02, 0.05, 0.1, 0.25, 0.5];
    for (name, g) in fixtures() {
        for policy in [RemovalPolicy::RandomFailure, RemovalPolicy::DegreeAttack] {
            let serial =
                degradation_curve(&g, policy, &fractions, &mut StdRng::seed_from_u64(9), 1);
            for threads in 2..=8 {
                let par = degradation_curve(
                    &g,
                    policy,
                    &fractions,
                    &mut StdRng::seed_from_u64(9),
                    threads,
                );
                assert_eq!(serial.len(), par.len());
                for (a, b) in serial.iter().zip(&par) {
                    assert_eq!(
                        (a.removed_fraction.to_bits(), a.giant_fraction.to_bits()),
                        (b.removed_fraction.to_bits(), b.giant_fraction.to_bits()),
                        "degradation diverged on {} ({:?}) at {} threads",
                        name,
                        policy,
                        threads
                    );
                }
            }
        }
    }
}
