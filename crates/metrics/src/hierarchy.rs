//! Hierarchy via load concentration.
//!
//! Designed networks concentrate transit load on a thin backbone; flat
//! random graphs spread it evenly. We quantify that with the distribution
//! of node betweenness: its **Gini coefficient** (0 = perfectly even,
//! → 1 = all load on a few nodes) and the share carried by the top 10%
//! of nodes. This is the load-based view of the "hierarchy" property that
//! structural generators impose explicitly and optimization-driven design
//! produces as a by-product.

//! Above [`SAMPLED_NODE_THRESHOLD`] nodes, exact Brandes (O(n·m)) is
//! out of reach, so [`betweenness_estimate`] switches to the seeded
//! Brandes–Pich pivot estimator: the dependency sweep runs from
//! [`SAMPLED_PIVOTS`] deterministic uniform pivots and extrapolates by
//! `n / k`. Concentration statistics (Gini, top-decile share) are
//! ratios of betweenness sums, so the extrapolation factor cancels and
//! the pivot noise averages out across the distribution.

use hot_graph::csr::CsrGraph;
use hot_graph::graph::{Graph, NodeId};
use hot_graph::parallel::{par_betweenness, par_betweenness_sampled};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Node count above which [`betweenness_estimate`] (and therefore
/// [`hierarchy`]) switches from exact Brandes to pivot sampling.
pub const SAMPLED_NODE_THRESHOLD: usize = 100_000;

/// Pivot count used above the threshold.
pub const SAMPLED_PIVOTS: usize = 1024;

/// Canonical pivot-selection seed, fixed so large-graph hierarchy
/// numbers are reproducible across runs and machines.
const PIVOT_SEED: u64 = 0x5EED_B7EE;

/// `k` distinct pivot nodes drawn uniformly (seeded partial
/// Fisher–Yates), returned in ascending id order. Deterministic in
/// `(n, k, seed)`; `k >= n` returns all nodes.
pub fn betweenness_pivots(n: usize, k: usize, seed: u64) -> Vec<NodeId> {
    let k = k.min(n);
    let mut idx: Vec<u32> = (0..n as u32).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..k {
        let j = rng.random_range(i..n);
        idx.swap(i, j);
    }
    let mut pivots: Vec<NodeId> = idx[..k].iter().map(|&v| NodeId(v)).collect();
    pivots.sort_unstable_by_key(|p| p.0);
    pivots
}

/// Betweenness of every node — exact below [`SAMPLED_NODE_THRESHOLD`],
/// seeded [`SAMPLED_PIVOTS`]-pivot estimate above it. The flag reports
/// which path ran. Deterministic at every thread count either way.
pub fn betweenness_estimate(csr: &CsrGraph, threads: usize) -> (Vec<f64>, bool) {
    let n = csr.node_count();
    if n <= SAMPLED_NODE_THRESHOLD {
        (par_betweenness(csr, threads), false)
    } else {
        let pivots = betweenness_pivots(n, SAMPLED_PIVOTS, PIVOT_SEED);
        (par_betweenness_sampled(csr, &pivots, threads), true)
    }
}

/// Gini coefficient of a non-negative sample (0 for empty/all-zero).
pub fn gini(sample: &[f64]) -> f64 {
    let n = sample.len();
    if n == 0 {
        return 0.0;
    }
    let mut sorted: Vec<f64> = sample.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let total: f64 = sorted.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    // Gini = (2·Σ i·x_i) / (n·Σ x) − (n+1)/n with 1-based i on sorted x.
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x)
        .sum();
    (2.0 * weighted) / (n as f64 * total) - (n as f64 + 1.0) / n as f64
}

/// Hierarchy summary of a graph.
#[derive(Clone, Copy, Debug)]
pub struct HierarchySummary {
    /// Gini coefficient of node betweenness.
    pub betweenness_gini: f64,
    /// Fraction of total betweenness carried by the top 10% of nodes.
    pub top_decile_share: f64,
}

/// Computes the hierarchy summary (zeros for graphs with < 3 nodes, where
/// betweenness is trivially 0).
///
/// Betweenness runs on the CSR kernel on the calling thread, so a
/// caller that runs several reports at once sets the thread count
/// alone ([`betweenness_estimate`] takes one). Above
/// [`SAMPLED_NODE_THRESHOLD`] nodes the seeded pivot estimator stands
/// in for exact Brandes (see the module docs).
pub fn hierarchy<N, E>(g: &Graph<N, E>) -> HierarchySummary {
    let (b, _sampled) = betweenness_estimate(&CsrGraph::from_graph(g), 1);
    let total: f64 = b.iter().sum();
    if b.len() < 3 || total <= 0.0 {
        return HierarchySummary {
            betweenness_gini: 0.0,
            top_decile_share: 0.0,
        };
    }
    let mut sorted = b.clone();
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("no NaN"));
    let k = (b.len() / 10).max(1);
    let top: f64 = sorted.iter().take(k).sum();
    HierarchySummary {
        betweenness_gini: gini(&b),
        top_decile_share: top / total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_graph::graph::Graph;

    #[test]
    fn gini_extremes() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0.0, 0.0]), 0.0);
        // Perfect equality.
        assert!(gini(&[5.0; 10]).abs() < 1e-12);
        // Extreme concentration: approaches (n-1)/n.
        let mut concentrated = vec![0.0; 100];
        concentrated[0] = 1.0;
        assert!((gini(&concentrated) - 0.99).abs() < 1e-12);
    }

    #[test]
    fn gini_known_value() {
        // {1, 3}: Gini = (2*(1*1 + 2*3))/(2*4) - 3/2 = 14/8 - 1.5 = 0.25.
        assert!((gini(&[1.0, 3.0]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn star_is_maximally_hierarchical() {
        let star: Graph<(), ()> =
            Graph::from_edges(20, (1..20).map(|i| (0, i, ())).collect::<Vec<_>>());
        let h = hierarchy(&star);
        assert!(h.betweenness_gini > 0.9);
        assert!((h.top_decile_share - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cycle_is_flat() {
        let cycle: Graph<(), ()> = Graph::from_edges(
            20,
            (0..20).map(|i| (i, (i + 1) % 20, ())).collect::<Vec<_>>(),
        );
        let h = hierarchy(&cycle);
        assert!(
            h.betweenness_gini.abs() < 1e-9,
            "cycle gini {}",
            h.betweenness_gini
        );
        // Top 10% of a uniform distribution carries ~10%.
        assert!((h.top_decile_share - 0.1).abs() < 0.01);
    }

    #[test]
    fn star_more_hierarchical_than_path() {
        let star: Graph<(), ()> =
            Graph::from_edges(20, (1..20).map(|i| (0, i, ())).collect::<Vec<_>>());
        let path: Graph<(), ()> =
            Graph::from_edges(20, (0..19).map(|i| (i, i + 1, ())).collect::<Vec<_>>());
        assert!(hierarchy(&star).betweenness_gini > hierarchy(&path).betweenness_gini);
    }

    #[test]
    fn tiny_graphs_zero() {
        let g: Graph<(), ()> = Graph::from_edges(2, vec![(0, 1, ())]);
        let h = hierarchy(&g);
        assert_eq!(h.betweenness_gini, 0.0);
        assert_eq!(h.top_decile_share, 0.0);
    }

    #[test]
    fn pivots_deterministic_sorted_distinct() {
        let a = betweenness_pivots(1000, 64, 7);
        let b = betweenness_pivots(1000, 64, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0), "sorted + distinct");
        // Different seed draws a different set.
        assert_ne!(a, betweenness_pivots(1000, 64, 8));
        // k >= n returns every node.
        let all = betweenness_pivots(5, 99, 1);
        assert_eq!(all, (0..5).map(NodeId).collect::<Vec<_>>());
        assert!(betweenness_pivots(0, 10, 1).is_empty());
    }

    fn grid(w: usize, h: usize) -> Graph<(), ()> {
        let mut edges = Vec::new();
        for r in 0..h {
            for c in 0..w {
                let v = r * w + c;
                if c + 1 < w {
                    edges.push((v, v + 1, ()));
                }
                if r + 1 < h {
                    edges.push((v, v + w, ()));
                }
            }
        }
        Graph::from_edges(w * h, edges)
    }

    #[test]
    fn sampled_betweenness_error_bounded() {
        // 30x30 grid, 300 of 900 pivots: the Brandes–Pich estimate must
        // track exact Brandes both pointwise (on the well-travelled
        // interior) and in the summary statistics hierarchy() consumes.
        let g = grid(30, 30);
        let csr = CsrGraph::from_graph(&g);
        let exact = par_betweenness(&csr, 2);
        let pivots = betweenness_pivots(900, 300, PIVOT_SEED);
        let sampled = par_betweenness_sampled(&csr, &pivots, 2);

        let exact_total: f64 = exact.iter().sum();
        let sampled_total: f64 = sampled.iter().sum();
        let total_err = (sampled_total - exact_total).abs() / exact_total;
        assert!(total_err < 0.05, "total mass off by {:.3}", total_err);

        let max_exact = exact.iter().cloned().fold(0.0, f64::max);
        for (v, (&e, &s)) in exact.iter().zip(&sampled).enumerate() {
            // Normalized pointwise error: a third of pivots keeps every
            // per-node deviation within 15% of the peak load.
            let err = (s - e).abs() / max_exact;
            assert!(err < 0.15, "node {} exact {} sampled {}", v, e, s);
        }

        let gini_err = (gini(&sampled) - gini(&exact)).abs();
        assert!(gini_err < 0.02, "gini off by {:.4}", gini_err);
    }

    #[test]
    fn estimate_uses_exact_below_threshold() {
        let g = grid(10, 10);
        let csr = CsrGraph::from_graph(&g);
        let (b, sampled) = betweenness_estimate(&csr, 2);
        assert!(!sampled);
        let exact = par_betweenness(&csr, 2);
        for (a, e) in b.iter().zip(&exact) {
            assert_eq!(a.to_bits(), e.to_bits());
        }
    }
}
