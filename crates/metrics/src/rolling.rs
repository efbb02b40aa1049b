//! Per-epoch analytics for the temporal engine.
//!
//! The paper's question for the temporal internet (§5) is not what one
//! snapshot looks like but how the *distributional* signatures move as
//! the network grows: does the degree CCDF sprout a heavier tail, does
//! load (betweenness) concentrate onto emerging hubs, or does the
//! design's flat core hold? [`Trajectory::record`] recomputes one
//! epoch's row from the grown graph through a single CSR view:
//!
//! - the component count comes from the CSR component pass
//!   ([`CsrGraph::components`]), the workspace's one connectivity engine;
//! - the degree statistics come from the metric battery's own helpers
//!   ([`summarize_sample`] and [`ccdf_at`]), so an epoch row and a
//!   one-shot report read a degree sequence the same way;
//! - load is a Brandes–Pich pivot *stream* ([`pivots_for`]) whose
//!   membership is a pure per-node hash, so growth only ever appends
//!   pivots and the estimate is deterministic at every thread count;
//! - [`Trajectory`] records one [`EpochMetrics`] row per epoch at a
//!   fixed threshold grid so rows are comparable across the run.

use crate::bias::{concentration, Concentration};
use crate::degree_dist::{ccdf_at, summarize_sample};
use hot_graph::csr::CsrGraph;
use hot_graph::graph::{Graph, NodeId};
use hot_graph::parallel::par_betweenness_sampled;

/// Power-of-two degree thresholds `1, 2, 4, … ≤ max(1, cap)` — the grid
/// an analyst fits a power law on, fixed per run so trajectory rows
/// stay comparable across epochs.
pub fn pow2_thresholds(cap: u32) -> Vec<u32> {
    let mut out = Vec::new();
    let mut k = 1u32;
    while k <= cap.max(1) {
        out.push(k);
        match k.checked_mul(2) {
            Some(next) => k = next,
            None => break,
        }
    }
    out
}

/// Whether `stride` is a pivot rate [`pivots_for`] accepts: at least 1
/// (one pivot per `stride` nodes).
pub fn stride_is_valid(stride: u64) -> bool {
    stride >= 1
}

/// Whether `v` is in the pivot stream for `(seed, stride)`.
fn is_pivot(seed: u64, stride: u64, v: u32) -> bool {
    if stride <= 1 || v == 0 {
        return true;
    }
    let mut z = seed ^ (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z.is_multiple_of(stride)
}

/// The Brandes–Pich pivot *stream* among the first `n` nodes,
/// ascending.
///
/// Pivot membership is a pure function of `(seed, node id)` (a
/// splitmix64 hash threshold at rate `1 / stride`, with node 0 always
/// a pivot so the set is never empty). Growth only ever *appends*
/// pivots: the set at `n` nodes extends the set at any smaller count,
/// so the sampled sources stay put as the network grows. Fed to
/// [`par_betweenness_sampled`] on the fixed-chunk scheduler, the
/// estimate is deterministic at every thread count, and with
/// `stride == 1` it is the exact parallel Brandes. Panics unless
/// `stride` passes [`stride_is_valid`].
pub fn pivots_for(seed: u64, stride: u64, n: usize) -> Vec<NodeId> {
    assert!(stride_is_valid(stride), "stride must be at least 1");
    (0..n as u32)
        .filter(|&v| is_pivot(seed, stride, v))
        .map(NodeId)
        .collect()
}

/// One epoch's analytics row.
#[derive(Clone, Debug)]
pub struct EpochMetrics {
    /// Epoch number (0 = the seeded initial network).
    pub epoch: u64,
    pub nodes: usize,
    pub edges: u64,
    /// Connected components (isolated nodes count).
    pub components: usize,
    pub mean_degree: f64,
    pub max_degree: u32,
    pub leaf_fraction: f64,
    /// Degree CCDF at the trajectory's fixed thresholds.
    pub ccdf: Vec<f64>,
    /// Betweenness (load) concentration.
    pub load: Concentration,
    /// Pivots behind the load estimate.
    pub pivots: usize,
}

/// A per-epoch metrics series over a fixed degree-threshold grid.
#[derive(Clone, Debug)]
pub struct Trajectory {
    /// Degree thresholds every row's `ccdf` is evaluated at.
    pub thresholds: Vec<u32>,
    pub rows: Vec<EpochMetrics>,
}

impl Trajectory {
    /// Empty trajectory on the given threshold grid.
    pub fn new(thresholds: Vec<u32>) -> Self {
        Trajectory {
            thresholds,
            rows: Vec::new(),
        }
    }

    /// Appends the row for `g` at `epoch`, recomputed from one CSR view:
    /// its component count, the degree statistics, and the load
    /// concentration of the sampled betweenness over the pivot stream
    /// `(pivot_seed, pivot_stride)` on `threads` workers.
    pub fn record<N, E>(
        &mut self,
        epoch: u64,
        g: &Graph<N, E>,
        pivot_seed: u64,
        pivot_stride: u64,
        threads: usize,
    ) {
        let csr = CsrGraph::from_graph(g);
        let degrees = csr.degree_sequence();
        let summary = summarize_sample(&degrees);
        let pivots = pivots_for(pivot_seed, pivot_stride, g.node_count());
        let betweenness = par_betweenness_sampled(&csr, &pivots, threads);
        self.rows.push(EpochMetrics {
            epoch,
            nodes: csr.node_count(),
            edges: csr.edge_count() as u64,
            components: csr.component_count(),
            mean_degree: summary.mean,
            max_degree: summary.max,
            leaf_fraction: summary.leaf_fraction,
            ccdf: self
                .thresholds
                .iter()
                .map(|&k| ccdf_at(&degrees, k))
                .collect(),
            load: concentration(&betweenness),
            pivots: pivots.len(),
        });
    }

    /// Load-Gini drift over the run: `last - first` (0 with < 2 rows).
    pub fn gini_drift(&self) -> f64 {
        match (self.rows.first(), self.rows.last()) {
            (Some(a), Some(b)) if self.rows.len() > 1 => b.load.gini - a.load.gini,
            _ => 0.0,
        }
    }

    /// Max-degree growth ratio `last / first` (1 with < 2 rows).
    pub fn max_degree_ratio(&self) -> f64 {
        match (self.rows.first(), self.rows.last()) {
            (Some(a), Some(b)) if self.rows.len() > 1 && a.max_degree > 0 => {
                b.max_degree as f64 / a.max_degree as f64
            }
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_graph::parallel::par_betweenness;

    /// A row's degree statistics match a count made from scratch off
    /// the edge list.
    #[test]
    fn rolling_degrees_match_from_scratch() {
        let edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 1), (4, 0)];
        let mut deg = [0u32; 6];
        for &(a, b) in &edges {
            deg[a] += 1;
            deg[b] += 1;
        }
        let g: Graph<(), ()> = Graph::from_edges(6, edges.iter().map(|&(a, b)| (a, b, ())));
        let mut t = Trajectory::new(vec![1, 2, 100]);
        t.record(0, &g, 3, 1, 1);
        let row = &t.rows[0];
        assert_eq!((row.nodes, row.edges), (6, edges.len() as u64));
        assert_eq!(row.max_degree, *deg.iter().max().unwrap());
        assert_eq!(row.mean_degree.to_bits(), 2.0f64.to_bits());
        // Node 5 is isolated, node 4 is the only leaf.
        assert_eq!(row.ccdf, vec![5.0 / 6.0, 4.0 / 6.0, 0.0]);
        assert_eq!(row.leaf_fraction, 1.0 / 6.0);
        assert_eq!(row.components, 2);
    }

    #[test]
    fn empty_tracker_is_all_zeros() {
        let mut t = Trajectory::new(vec![1]);
        t.record(0, &Graph::<(), ()>::new(), 3, 1, 1);
        let row = &t.rows[0];
        assert_eq!((row.nodes, row.edges, row.max_degree), (0, 0, 0));
        assert_eq!(row.mean_degree, 0.0);
        assert_eq!(row.ccdf, vec![0.0]);
        assert_eq!(row.pivots, 0);
    }

    #[test]
    fn pow2_grid_is_capped() {
        assert_eq!(pow2_thresholds(0), vec![1]);
        assert_eq!(pow2_thresholds(1), vec![1]);
        assert_eq!(pow2_thresholds(9), vec![1, 2, 4, 8]);
        assert_eq!(pow2_thresholds(16), vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn pivot_stream_has_a_stable_prefix() {
        let small = pivots_for(7, 4, 50);
        let large = pivots_for(7, 4, 200);
        assert!(large.len() > small.len());
        assert_eq!(&large[..small.len()], &small[..]);
        let tiny = pivots_for(7, 4, 13);
        assert_eq!(&small[..tiny.len()], &tiny[..]);
        // Node 0 is always a pivot, so the stream is never empty.
        assert_eq!(pivots_for(99, 1_000_000, 5).len(), 1);
        assert!(!stride_is_valid(0));
    }

    #[test]
    fn stride_one_is_exact_brandes() {
        let g: Graph<(), ()> = Graph::from_edges(
            6,
            vec![
                (0, 1, ()),
                (1, 2, ()),
                (2, 3, ()),
                (3, 4, ()),
                (4, 5, ()),
                (5, 0, ()),
                (0, 3, ()),
            ],
        );
        let csr = CsrGraph::from_graph(&g);
        let pivots = pivots_for(1, 1, csr.node_count());
        assert_eq!(pivots.len(), 6);
        let est = par_betweenness_sampled(&csr, &pivots, 2);
        let exact = par_betweenness(&csr, 2);
        for (a, b) in est.iter().zip(&exact) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(concentration(&est).gini >= 0.0);
    }

    #[test]
    fn trajectory_records_and_summarizes() {
        let mut t = Trajectory::new(pow2_thresholds(4));
        let g: Graph<(), ()> = Graph::from_edges(3, vec![(0, 1, ()), (1, 2, ())]);
        t.record(0, &g, 3, 1, 1);
        assert_eq!(t.gini_drift(), 0.0, "single row has no drift");
        assert_eq!(t.max_degree_ratio(), 1.0);
        let mut g2 = g.clone();
        for _ in 0..4 {
            let v = g2.add_node(());
            g2.add_edge(NodeId(1), v, ());
        }
        t.record(1, &g2, 3, 1, 1);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[1].nodes, 7);
        assert_eq!(t.rows[1].edges, 6);
        assert_eq!(t.rows[1].components, 1);
        assert_eq!(t.rows[1].pivots, 7);
        assert_eq!(t.rows[1].max_degree, 6);
        assert_eq!(t.max_degree_ratio(), 3.0);
        assert!(t.gini_drift() > 0.0, "star-ification concentrates load");
        assert_eq!(t.rows[1].ccdf.len(), t.thresholds.len());
    }
}
