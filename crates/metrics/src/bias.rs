//! Observed-vs-true bias analytics for sampled (probe-inferred) maps.
//!
//! §1/§3.2 of the paper: measured router-level maps are incomplete, and
//! the *way* they are incomplete is systematic — path unions keep the
//! links shortest paths use and drop the redundant ones, so the observed
//! graph looks more tree-like and more hierarchical than the truth.
//! Given a ground-truth [`CsrGraph`] and the `node_seen`/`edge_seen`
//! masks a campaign produced (`hot_sim::probe` / `hot_sim::traceroute`),
//! this module quantifies the distortion on the three axes the scenario
//! suite reports:
//!
//! - **degree**: observed-node degree summary (counting only observed
//!   links) against the true summary, plus a paired CCDF at power-of-two
//!   thresholds — the tail an analyst would fit a power law to;
//! - **betweenness concentration**: Gini and top-decile load share of
//!   the truth vs the observed subgraph (exact Brandes below
//!   [`crate::hierarchy::SAMPLED_NODE_THRESHOLD`] nodes, the seeded
//!   pivot estimate above it);
//! - **coverage**: the node/edge fractions the masks already encode.
//!
//! Everything is deterministic at any thread count (the betweenness
//! kernels run on the fixed-chunk scheduler, the rest is exact
//! arithmetic), so scenario reports built from these numbers stay
//! byte-stable.

use crate::degree_dist::{ccdf_at, summarize_sample, DegreeSummary};
use crate::hierarchy::{betweenness_estimate, gini};
use hot_graph::csr::CsrGraph;

/// Concentration summary of a non-negative sample.
#[derive(Clone, Copy, Debug)]
pub struct Concentration {
    /// Gini coefficient (0 for empty or all-zero samples).
    pub gini: f64,
    /// Share of the total held by the top 10% (by value) of entries.
    pub top_decile_share: f64,
}

/// Computes Gini + top-decile share of `values`.
pub fn concentration(values: &[f64]) -> Concentration {
    let g = gini(values);
    let total: f64 = values.iter().sum();
    if values.is_empty() || total <= 0.0 {
        return Concentration {
            gini: g,
            top_decile_share: 0.0,
        };
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("no NaN"));
    let top = sorted.len().div_ceil(10);
    Concentration {
        gini: g,
        top_decile_share: sorted[..top].iter().sum::<f64>() / total,
    }
}

/// Per-node observed degree: incident edges whose `edge_seen` slot is
/// set, indexed by ground-truth node id (zero for unobserved nodes —
/// an observed edge implies both endpoints observed, never the
/// converse). O(n + m) off the CSR adjacency.
pub fn observed_degrees(csr: &CsrGraph, edge_seen: &[bool]) -> Vec<u32> {
    assert_eq!(edge_seen.len(), csr.edge_count(), "edge mask length");
    (0..csr.node_count())
        .map(|v| {
            csr.incident_edges(hot_graph::graph::NodeId(v as u32))
                .iter()
                .filter(|e| edge_seen[e.index()])
                .count() as u32
        })
        .collect()
}

/// One threshold of the paired degree CCDF.
#[derive(Clone, Copy, Debug)]
pub struct DegreeCcdfPoint {
    /// The degree threshold `k`.
    pub degree: u32,
    /// Fraction of true nodes with true degree ≥ `k`.
    pub true_ccdf: f64,
    /// Fraction of *observed* nodes with *observed* degree ≥ `k`.
    pub observed_ccdf: f64,
}

/// The full observed-vs-true comparison for one campaign.
#[derive(Clone, Debug)]
pub struct BiasSummary {
    /// Fraction of true nodes observed.
    pub node_coverage: f64,
    /// Fraction of true links observed.
    pub edge_coverage: f64,
    /// Degree summary of the truth (all nodes, all links).
    pub true_degree: DegreeSummary,
    /// Degree summary of the observed map (observed nodes, observed
    /// links) — what the measurement analyst would report.
    pub observed_degree: DegreeSummary,
    /// Betweenness concentration of the truth.
    pub true_betweenness: Concentration,
    /// Betweenness concentration of the observed subgraph, over the
    /// observed nodes.
    pub observed_betweenness: Concentration,
    /// Whether the observed-side betweenness used the pivot estimator.
    pub betweenness_sampled: bool,
    /// Paired CCDF at power-of-two thresholds up to the true maximum.
    pub degree_ccdf: Vec<DegreeCcdfPoint>,
}

/// Quantifies a campaign's sampling bias. `true_betweenness` is the
/// truth's betweenness vector (compute it once per topology with
/// [`betweenness_estimate`] and reuse it across vantage sweeps — it does
/// not depend on the masks).
pub fn bias_summary(
    csr: &CsrGraph,
    node_seen: &[bool],
    edge_seen: &[bool],
    true_betweenness: &[f64],
    threads: usize,
) -> BiasSummary {
    let n = csr.node_count();
    assert_eq!(node_seen.len(), n, "node mask length");
    assert_eq!(true_betweenness.len(), n, "betweenness length");
    let true_degs = csr.degree_sequence();
    let obs_degs_all = observed_degrees(csr, edge_seen);
    let obs_degs: Vec<u32> = (0..n)
        .filter(|&v| node_seen[v])
        .map(|v| obs_degs_all[v])
        .collect();
    // Observed subgraph: same node set (ids preserved), observed links
    // only; concentration over the observed nodes — the population the
    // analyst knows exists.
    let (observed_csr, _) = csr.edge_masked(edge_seen);
    let (obs_b, sampled) = betweenness_estimate(&observed_csr, threads);
    let obs_b_seen: Vec<f64> = (0..n).filter(|&v| node_seen[v]).map(|v| obs_b[v]).collect();
    let max_true = true_degs.iter().copied().max().unwrap_or(0);
    let mut degree_ccdf = Vec::new();
    let mut k = 1u32;
    while k <= max_true {
        degree_ccdf.push(DegreeCcdfPoint {
            degree: k,
            true_ccdf: ccdf_at(&true_degs, k),
            observed_ccdf: ccdf_at(&obs_degs, k),
        });
        k = k.saturating_mul(2);
        if k == 0 {
            break;
        }
    }
    let nodes_obs = obs_degs.len();
    let edges_obs = edge_seen.iter().filter(|&&s| s).count();
    BiasSummary {
        node_coverage: if n > 0 {
            nodes_obs as f64 / n as f64
        } else {
            0.0
        },
        edge_coverage: if csr.edge_count() > 0 {
            edges_obs as f64 / csr.edge_count() as f64
        } else {
            0.0
        },
        true_degree: summarize_sample(&true_degs),
        observed_degree: summarize_sample(&obs_degs),
        true_betweenness: concentration(true_betweenness),
        observed_betweenness: concentration(&obs_b_seen),
        betweenness_sampled: sampled,
        degree_ccdf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_graph::graph::Graph;
    use hot_graph::parallel::default_threads;

    /// Path 0-1-2-3 plus a chord 1-3: the chord is never on a shortest
    /// path tree from node 0.
    fn chorded_path() -> CsrGraph {
        let g: Graph<(), ()> =
            Graph::from_edges(4, vec![(0, 1, ()), (1, 2, ()), (2, 3, ()), (1, 3, ())]);
        CsrGraph::from_graph(&g)
    }

    #[test]
    fn observed_degrees_count_only_seen_edges() {
        let csr = chorded_path();
        // Observe the path edges, hide the chord.
        let edge_seen = vec![true, true, true, false];
        assert_eq!(observed_degrees(&csr, &edge_seen), vec![1, 2, 2, 1]);
        assert_eq!(observed_degrees(&csr, &[false; 4]), vec![0, 0, 0, 0]);
    }

    #[test]
    fn full_observation_has_zero_bias() {
        let csr = chorded_path();
        let node_seen = vec![true; 4];
        let edge_seen = vec![true; 4];
        let (b, _) = betweenness_estimate(&csr, 1);
        let s = bias_summary(&csr, &node_seen, &edge_seen, &b, 1);
        assert_eq!(s.node_coverage, 1.0);
        assert_eq!(s.edge_coverage, 1.0);
        assert_eq!(s.true_degree.mean, s.observed_degree.mean);
        assert_eq!(s.true_degree.max, s.observed_degree.max);
        assert_eq!(s.true_betweenness.gini, s.observed_betweenness.gini);
        for p in &s.degree_ccdf {
            assert_eq!(p.true_ccdf, p.observed_ccdf, "k = {}", p.degree);
        }
    }

    #[test]
    fn hiding_the_chord_flattens_the_observed_tail() {
        let csr = chorded_path();
        let node_seen = vec![true; 4];
        let edge_seen = vec![true, true, true, false];
        let (b, _) = betweenness_estimate(&csr, 1);
        let s = bias_summary(&csr, &node_seen, &edge_seen, &b, 1);
        assert_eq!(s.edge_coverage, 0.75);
        assert!(s.observed_degree.mean < s.true_degree.mean);
        assert_eq!(s.true_degree.max, 3, "node 1 has the chord");
        assert_eq!(s.observed_degree.max, 2, "the chord is hidden");
        // The observed map is a pure path: load concentrates on the
        // middle more than in the chorded truth.
        assert!(!s.betweenness_sampled);
    }

    #[test]
    fn concentration_of_uniform_and_peaked_samples() {
        let uniform = concentration(&[1.0; 10]);
        assert!(uniform.gini.abs() < 1e-12);
        assert!((uniform.top_decile_share - 0.1).abs() < 1e-12);
        let peaked = concentration(&[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 10.0]);
        assert!(peaked.gini > 0.8);
        assert_eq!(peaked.top_decile_share, 1.0);
        let empty = concentration(&[]);
        assert_eq!(empty.gini, 0.0);
        assert_eq!(empty.top_decile_share, 0.0);
    }

    #[test]
    fn ccdf_thresholds_are_powers_of_two() {
        let g: Graph<(), ()> = Graph::from_edges(6, (1..6).map(|i| (0, i, ())).collect::<Vec<_>>());
        let csr = CsrGraph::from_graph(&g);
        let (b, _) = betweenness_estimate(&csr, default_threads());
        let s = bias_summary(&csr, &[true; 6], &[true; 5], &b, 1);
        let ks: Vec<u32> = s.degree_ccdf.iter().map(|p| p.degree).collect();
        assert_eq!(ks, vec![1, 2, 4], "max true degree is 5");
        assert_eq!(s.degree_ccdf[0].true_ccdf, 1.0);
    }
}
