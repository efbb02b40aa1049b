//! Robust-yet-fragile: degradation under random failure vs targeted
//! attack.
//!
//! HOT's signature (paper §3.1): highly optimized systems are robust to
//! the perturbations they were designed for and fragile to others. For
//! topologies, the classic probe (Albert–Jeong–Barabási style) removes a
//! fraction of nodes either uniformly at random or in decreasing-degree
//! order, and tracks the largest connected component. Experiment E10
//! runs this on HOT-designed trees, full ISP topologies, and the
//! descriptive baselines.

use hot_graph::csr::CsrGraph;
use hot_graph::parallel::run_chunks;
use rand::seq::SliceRandom;
use rand::Rng;

/// Node-removal policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RemovalPolicy {
    /// Uniformly random node failures.
    RandomFailure,
    /// Remove highest-degree nodes first (degrees recomputed on the
    /// original graph, the standard one-shot attack model).
    DegreeAttack,
}

/// One point of a degradation curve.
#[derive(Clone, Copy, Debug)]
pub struct DegradationPoint {
    /// Fraction of nodes removed.
    pub removed_fraction: f64,
    /// Largest component size as a fraction of the original node count.
    pub giant_fraction: f64,
}

/// Computes the degradation curve of the graph `csr` views at the given
/// removal fractions, with the fractions evaluated in parallel on
/// `threads` worker threads.
///
/// For `RandomFailure` the node order is drawn once from `rng`; for
/// `DegreeAttack` it is the descending-degree order (ties by node id, so
/// deterministic). Each fraction's giant component is measured by a
/// masked component pass over the intact graph's CSR view — no
/// per-fraction subgraph copies — and written back by fraction index, so
/// the curve is identical at every thread count (giant fractions are
/// ratios of integers).
pub fn degradation_curve(
    csr: &CsrGraph,
    policy: RemovalPolicy,
    fractions: &[f64],
    rng: &mut impl Rng,
    threads: usize,
) -> Vec<DegradationPoint> {
    for &f in fractions {
        assert!((0.0..=1.0).contains(&f), "fraction {} out of range", f);
    }
    let n = csr.node_count();
    if n == 0 {
        return fractions
            .iter()
            .map(|&f| DegradationPoint {
                removed_fraction: f,
                giant_fraction: 0.0,
            })
            .collect();
    }
    // u32 order: same Fisher–Yates draw sequence (shuffling is
    // index-based, element width irrelevant), half the memory.
    let mut order: Vec<u32> = (0..n as u32).collect();
    match policy {
        RemovalPolicy::RandomFailure => order.shuffle(rng),
        RemovalPolicy::DegreeAttack => {
            let degs = csr.degree_sequence();
            order.sort_by_key(|&v| (std::cmp::Reverse(degs[v as usize]), v));
        }
    }
    // Fractions are independent; the shared deterministic chunk scheduler
    // hands out contiguous index ranges and returns them in order, so
    // flattening restores the fraction order. The keep mask is per-worker
    // scratch, rebuilt for each fraction.
    let computed = run_chunks(
        fractions.len(),
        threads,
        || vec![true; n],
        |keep, range| {
            range
                .map(|i| {
                    let f = fractions[i];
                    let k = ((n as f64) * f).round() as usize;
                    keep.iter_mut().for_each(|b| *b = true);
                    for &v in order.iter().take(k) {
                        keep[v as usize] = false;
                    }
                    DegradationPoint {
                        removed_fraction: f,
                        giant_fraction: csr.largest_component_size_masked(keep) as f64 / n as f64,
                    }
                })
                .collect::<Vec<_>>()
        },
    );
    computed.into_iter().flat_map(|(_, pts)| pts).collect()
}

/// Area under the degradation curve (mean giant fraction across the given
/// removal fractions) — a scalar robustness score; higher is more robust.
pub fn robustness_score(points: &[DegradationPoint]) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    points.iter().map(|p| p.giant_fraction).sum::<f64>() / points.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_graph::graph::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn star(n: usize) -> CsrGraph {
        let g: Graph<(), ()> = Graph::from_edges(n, (1..n).map(|i| (0, i, ())).collect::<Vec<_>>());
        CsrGraph::from_graph(&g)
    }

    fn cycle(n: usize) -> CsrGraph {
        let g: Graph<(), ()> =
            Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n, ())).collect::<Vec<_>>());
        CsrGraph::from_graph(&g)
    }

    #[test]
    fn attack_shatters_star_instantly() {
        let g = star(100);
        let mut rng = StdRng::seed_from_u64(1);
        let pts = degradation_curve(&g, RemovalPolicy::DegreeAttack, &[0.01], &mut rng, 1);
        // Removing the hub leaves isolated leaves.
        assert!(
            pts[0].giant_fraction <= 0.02,
            "giant {}",
            pts[0].giant_fraction
        );
    }

    #[test]
    fn star_survives_random_failure_better_than_attack() {
        let g = star(200);
        let fractions = [0.05, 0.1];
        let random = degradation_curve(
            &g,
            RemovalPolicy::RandomFailure,
            &fractions,
            &mut StdRng::seed_from_u64(2),
            1,
        );
        let attack = degradation_curve(
            &g,
            RemovalPolicy::DegreeAttack,
            &fractions,
            &mut StdRng::seed_from_u64(2),
            1,
        );
        assert!(robustness_score(&random) > 5.0 * robustness_score(&attack));
    }

    #[test]
    fn cycle_is_attack_insensitive() {
        let g = cycle(100);
        let fractions = [0.05];
        let attack = degradation_curve(
            &g,
            RemovalPolicy::DegreeAttack,
            &fractions,
            &mut StdRng::seed_from_u64(3),
            1,
        );
        // All degrees equal: attacking is no worse than failure order.
        assert!(attack[0].giant_fraction > 0.5);
    }

    #[test]
    fn zero_fraction_is_identity() {
        let g = star(50);
        let pts = degradation_curve(
            &g,
            RemovalPolicy::RandomFailure,
            &[0.0],
            &mut StdRng::seed_from_u64(4),
            1,
        );
        assert!((pts[0].giant_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn full_removal_empties_graph() {
        let g = cycle(10);
        let pts = degradation_curve(
            &g,
            RemovalPolicy::DegreeAttack,
            &[1.0],
            &mut StdRng::seed_from_u64(5),
            1,
        );
        assert_eq!(pts[0].giant_fraction, 0.0);
    }

    #[test]
    fn empty_graph_degenerate() {
        let g = CsrGraph::from_graph(&Graph::<(), ()>::new());
        let pts = degradation_curve(
            &g,
            RemovalPolicy::RandomFailure,
            &[0.5],
            &mut StdRng::seed_from_u64(6),
            1,
        );
        assert_eq!(pts[0].giant_fraction, 0.0);
        assert_eq!(robustness_score(&[]), 0.0);
    }

    #[test]
    fn parallel_curve_matches_serial_at_any_thread_count() {
        let g = star(120);
        let fractions = [0.0, 0.02, 0.05, 0.1, 0.5, 1.0];
        for policy in [RemovalPolicy::RandomFailure, RemovalPolicy::DegreeAttack] {
            let serial =
                degradation_curve(&g, policy, &fractions, &mut StdRng::seed_from_u64(8), 1);
            for threads in 2..=6 {
                let par = degradation_curve(
                    &g,
                    policy,
                    &fractions,
                    &mut StdRng::seed_from_u64(8),
                    threads,
                );
                for (a, b) in serial.iter().zip(&par) {
                    assert_eq!(a.removed_fraction.to_bits(), b.removed_fraction.to_bits());
                    assert_eq!(a.giant_fraction.to_bits(), b.giant_fraction.to_bits());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_fraction_rejected() {
        let g = star(10);
        degradation_curve(
            &g,
            RemovalPolicy::DegreeAttack,
            &[1.5],
            &mut StdRng::seed_from_u64(7),
            1,
        );
    }
}
