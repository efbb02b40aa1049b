//! Demand-matrix generators for the traffic engine.
//!
//! The paper's HOT argument is that traffic and economics shape topology;
//! running that argument forward needs a *workload*: who sends how much
//! to whom. This module generates origin–destination demand over the
//! nodes of a finished topology, in three standard flavors keyed off
//! node degree and (when available) geography:
//!
//! - **gravity** — `demand(i, j) ∝ mass_i · mass_j / dist(i, j)^γ`, the
//!   first-order model of aggregate traffic (mass defaults to node
//!   degree; with node positions the classic distance decay applies,
//!   without them the model is distance-blind);
//! - **uniform** — every ordered pair exchanges the same amount;
//! - **rank-biased** — Zipf mass over the degree ranking, concentrating
//!   demand on the hubs the way per-host popularity distributions do.
//!
//! All three are *product-form* (`mass_i · mass_j · kernel(i, j)`), so a
//! matrix over n nodes stores O(n), answers point queries in O(1), and is
//! **symmetric with a zero diagonal by construction** — `a · b` and
//! `b · a` are the same IEEE product, so `demand(i, j)` and
//! `demand(j, i)` are bit-identical. Matrices are deterministic
//! functions of `(topology, config)`; callers that want other masses
//! pass them to [`DemandMatrix::from_masses`].

use hot_geo::point::Point;
use hot_graph::csr::CsrGraph;
use hot_graph::graph::NodeId;

/// One demand: `amount` of traffic from `src` to `dst`.
#[derive(Clone, Copy, Debug)]
pub struct Demand {
    pub src: NodeId,
    pub dst: NodeId,
    pub amount: f64,
}

/// Which demand structure to generate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DemandModel {
    /// Every ordered pair exchanges the same amount.
    Uniform,
    /// `mass_i · mass_j / dist^γ` with mass = node degree. Distance decay
    /// applies only when node positions are supplied; without them the
    /// model is distance-blind (γ is ignored).
    Gravity {
        /// Distance-decay exponent γ (0 = distance-blind, 2 = classic).
        distance_exponent: f64,
    },
    /// Zipf mass over the degree ranking: the node with the k-th highest
    /// degree gets mass `1 / k^exponent` (ties broken by node id).
    RankBiased {
        /// Zipf exponent (≈1 for classic popularity curves).
        exponent: f64,
    },
}

/// Parameters of a demand build.
#[derive(Clone, Copy, Debug)]
pub struct DemandConfig {
    pub model: DemandModel,
    /// Total demand over unordered pairs; each direction of a pair
    /// carries the full symmetric amount, so the ordered-pair total is
    /// twice this.
    pub total_traffic: f64,
}

impl Default for DemandConfig {
    fn default() -> Self {
        DemandConfig {
            model: DemandModel::Gravity {
                distance_exponent: 1.0,
            },
            total_traffic: 1_000_000.0,
        }
    }
}

/// Floor on pairwise distance in [`DemandMatrix::build`] (gravity with
/// positions only).
const MIN_DISTANCE: f64 = 1.0;

/// An origin–destination demand source the traffic engine can route.
///
/// Implementations must be symmetric in intent; only `node_count` and
/// point queries are required. Self-demand is never routed: `demand`
/// should report 0 on the diagonal and `gather_row` must not emit it
/// (the engine drops any diagonal entry it receives anyway).
pub trait OdDemand: Sync {
    /// Number of nodes the demand is defined over.
    fn node_count(&self) -> usize;
    /// Demand from `src` to `dst` (0 expected on the diagonal).
    fn demand(&self, src: usize, dst: usize) -> f64;

    /// Appends `src`'s positive demands to `out` as `(dst, amount)`
    /// pairs in ascending `dst` order. This is the traffic engine's
    /// inner loop; the default delegates to [`Self::demand`] per pair,
    /// and implementations may specialize for speed — but must emit
    /// exactly the amounts `demand` reports (bit for bit), or the
    /// batched engine and the per-flow references drift apart. A
    /// destination may repeat (a demand list with a repeated pair):
    /// each entry is one flow, and the entries add up to `demand`.
    fn gather_row(&self, src: usize, out: &mut Vec<(u32, f64)>) {
        for dst in 0..self.node_count() {
            if dst == src {
                continue;
            }
            let amount = self.demand(src, dst);
            if amount > 0.0 {
                out.push((dst as u32, amount));
            }
        }
    }
}

/// A product-form origin–destination demand matrix: O(n) storage, O(1)
/// point queries, symmetric with zero diagonal. Build one with
/// [`DemandMatrix::build`] (standard models over a topology) or
/// [`DemandMatrix::from_masses`] (caller-supplied masses, e.g. "customers
/// only").
#[derive(Clone, Debug)]
pub struct DemandMatrix {
    mass: Vec<f64>,
    positions: Option<Vec<Point>>,
    gamma: f64,
    min_distance: f64,
    scale: f64,
}

impl DemandMatrix {
    /// Builds a demand matrix for the nodes of `csr` under `cfg`.
    /// `positions`, when given, must have one entry per node and enables
    /// gravity distance decay.
    ///
    /// # Panics
    ///
    /// Panics if `positions` is present with the wrong length.
    pub fn build(csr: &CsrGraph, positions: Option<&[Point]>, cfg: &DemandConfig) -> DemandMatrix {
        let n = csr.node_count();
        let mass: Vec<f64> = match cfg.model {
            DemandModel::Uniform => vec![1.0; n],
            DemandModel::Gravity { .. } => (0..n)
                .map(|v| csr.degree(NodeId(v as u32)) as f64)
                .collect(),
            DemandModel::RankBiased { exponent } => {
                let mut by_degree: Vec<usize> = (0..n).collect();
                by_degree.sort_by_key(|&v| (std::cmp::Reverse(csr.degree(NodeId(v as u32))), v));
                let mut m = vec![0.0; n];
                for (rank, &v) in by_degree.iter().enumerate() {
                    m[v] = 1.0 / ((rank + 1) as f64).powf(exponent);
                }
                m
            }
        };
        let gamma = match cfg.model {
            DemandModel::Gravity { distance_exponent } => distance_exponent,
            _ => 0.0,
        };
        DemandMatrix::from_masses(
            mass,
            positions.map(|p| p.to_vec()),
            gamma,
            MIN_DISTANCE,
            cfg.total_traffic,
        )
    }

    /// Builds a matrix from explicit per-node masses — e.g. mass 1 on
    /// customer routers and 0 on infrastructure. Scaled so the total
    /// over unordered pairs equals `total_traffic` (all-zero masses stay
    /// all-zero).
    ///
    /// # Panics
    ///
    /// Panics if `positions` is present with a length other than
    /// `mass.len()`.
    pub fn from_masses(
        mass: Vec<f64>,
        positions: Option<Vec<Point>>,
        distance_exponent: f64,
        min_distance: f64,
        total_traffic: f64,
    ) -> DemandMatrix {
        if let Some(p) = &positions {
            assert_eq!(p.len(), mass.len(), "one position per node");
        }
        let mut matrix = DemandMatrix {
            mass,
            positions,
            gamma: distance_exponent,
            min_distance,
            scale: 1.0,
        };
        let raw = matrix.total();
        matrix.scale = if raw > 0.0 { total_traffic / raw } else { 0.0 };
        matrix
    }

    /// Like [`DemandMatrix::from_masses`], but with an explicit `scale`
    /// factor instead of normalizing the total: `demand(i, j) =
    /// scale * mass_i * mass_j * kernel(i, j)`. Skips the O(n²)
    /// normalization sweep of [`DemandMatrix::total`], which would
    /// dominate the whole run on million-node graphs. Load-shape
    /// statistics (flow counts, hop distributions, Gini) are invariant
    /// under the scale, so pass `1.0` unless absolute volumes matter.
    ///
    /// # Panics
    ///
    /// Panics if `positions` is present with a length other than
    /// `mass.len()`.
    pub fn from_masses_scaled(
        mass: Vec<f64>,
        positions: Option<Vec<Point>>,
        distance_exponent: f64,
        min_distance: f64,
        scale: f64,
    ) -> DemandMatrix {
        if let Some(p) = &positions {
            assert_eq!(p.len(), mass.len(), "one position per node");
        }
        DemandMatrix {
            mass,
            positions,
            gamma: distance_exponent,
            min_distance,
            scale,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.mass.len()
    }

    /// Whether the matrix covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.mass.is_empty()
    }

    /// The mass of node `i`.
    pub fn mass(&self, i: usize) -> f64 {
        self.mass[i]
    }

    #[inline]
    fn kernel(&self, i: usize, j: usize) -> f64 {
        match &self.positions {
            Some(pos) => {
                let d = pos[i].dist(&pos[j]).max(self.min_distance);
                if self.gamma == 0.0 {
                    1.0
                } else {
                    d.powf(-self.gamma)
                }
            }
            None => 1.0,
        }
    }

    /// Total demand node `i` originates: its row sum, O(n).
    pub fn row_sum(&self, i: usize) -> f64 {
        (0..self.len()).map(|j| self.demand(i, j)).sum()
    }

    /// Total demand over unordered pairs, O(n²) (O(n) would be possible
    /// without distance decay, but this is the testable definition).
    pub fn total(&self) -> f64 {
        let n = self.len();
        let mut t = 0.0;
        for i in 0..n {
            for j in i + 1..n {
                t += self.demand(i, j);
            }
        }
        t
    }

    /// Materializes directed flows `s → dst` for every `s` in `sources`
    /// and every `dst ≠ s` with positive demand, in `(source-order,
    /// ascending dst)` order. Each direction of a pair carries the full
    /// symmetric amount.
    pub fn flows_from(&self, sources: &[NodeId]) -> Vec<Demand> {
        let n = self.len();
        let mut out = Vec::new();
        for &s in sources {
            for dst in 0..n {
                let amount = self.demand(s.index(), dst);
                if amount > 0.0 {
                    out.push(Demand {
                        src: s,
                        dst: NodeId(dst as u32),
                        amount,
                    });
                }
            }
        }
        out
    }

    /// All directed flows: [`Self::flows_from`] over every node. O(n²)
    /// entries — materialize only at sizes you can afford; the batched
    /// engine routes straight off the matrix without this.
    pub fn flows(&self) -> Vec<Demand> {
        let sources: Vec<NodeId> = (0..self.len() as u32).map(NodeId).collect();
        self.flows_from(&sources)
    }
}

impl OdDemand for DemandMatrix {
    fn node_count(&self) -> usize {
        self.len()
    }

    #[inline]
    fn demand(&self, src: usize, dst: usize) -> f64 {
        if src == dst {
            return 0.0;
        }
        self.scale * (self.mass[src] * self.mass[dst]) * self.kernel(src, dst)
    }

    /// Statically dispatched row sweep: one virtual call per source
    /// instead of one per pair, with an early-out for sources that
    /// originate nothing. Delegates to the `#[inline]` [`Self::demand`]
    /// per pair, so the emitted amounts are the point queries, bit for
    /// bit.
    fn gather_row(&self, src: usize, out: &mut Vec<(u32, f64)>) {
        if self.scale == 0.0 || self.mass[src] == 0.0 {
            return;
        }
        for dst in 0..self.len() {
            let amount = self.demand(src, dst);
            if amount > 0.0 {
                out.push((dst as u32, amount));
            }
        }
    }
}

/// Pointwise sum of two demand sources over the same node set:
/// `demand(i, j) = base(i, j) + overlay(i, j)`. The flash-crowd
/// building block — a baseline gravity matrix plus a rank-biased surge
/// aimed at the hubs — without materializing either component.
///
/// `gather_row` merges the two components' ascending-`dst` rows,
/// performing exactly one addition for each destination present in
/// both, so gathered amounts equal the point queries bit for bit.
pub struct SumDemand<'a> {
    base: &'a dyn OdDemand,
    overlay: &'a dyn OdDemand,
}

impl<'a> SumDemand<'a> {
    /// Overlays `overlay` on `base`.
    ///
    /// # Panics
    ///
    /// Panics if the two components cover different node counts.
    pub fn new(base: &'a dyn OdDemand, overlay: &'a dyn OdDemand) -> SumDemand<'a> {
        assert_eq!(
            base.node_count(),
            overlay.node_count(),
            "summed demands must cover the same nodes"
        );
        SumDemand { base, overlay }
    }
}

impl OdDemand for SumDemand<'_> {
    fn node_count(&self) -> usize {
        self.base.node_count()
    }

    #[inline]
    fn demand(&self, src: usize, dst: usize) -> f64 {
        self.base.demand(src, dst) + self.overlay.demand(src, dst)
    }

    fn gather_row(&self, src: usize, out: &mut Vec<(u32, f64)>) {
        let mut a = Vec::new();
        let mut b = Vec::new();
        self.base.gather_row(src, &mut a);
        self.overlay.gather_row(src, &mut b);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push((a[i].0, a[i].1 + b[j].1));
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_graph::graph::Graph;

    /// Star with 4 leaves: hub 0 has degree 4, leaves degree 1.
    fn star() -> CsrGraph {
        let g: Graph<(), ()> = Graph::from_edges(5, (1..5).map(|i| (0, i, ())).collect::<Vec<_>>());
        CsrGraph::from_graph(&g)
    }

    fn cfg(model: DemandModel) -> DemandConfig {
        DemandConfig {
            model,
            total_traffic: 100.0,
        }
    }

    #[test]
    fn uniform_spreads_evenly() {
        let dm = DemandMatrix::build(&star(), None, &cfg(DemandModel::Uniform));
        assert!((dm.total() - 100.0).abs() < 1e-9);
        // 10 unordered pairs → 10 each.
        assert!((dm.demand(1, 2) - 10.0).abs() < 1e-9);
        assert_eq!(dm.demand(3, 3), 0.0);
    }

    #[test]
    fn gravity_mass_follows_degree() {
        let dm = DemandMatrix::build(
            &star(),
            None,
            &cfg(DemandModel::Gravity {
                distance_exponent: 1.0,
            }),
        );
        // Hub-leaf demand is 4x leaf-leaf demand (mass 4·1 vs 1·1).
        assert!((dm.demand(0, 1) / dm.demand(1, 2) - 4.0).abs() < 1e-9);
        assert!((dm.total() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn gravity_distance_decay_with_positions() {
        let pos = vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(8.0, 0.0),
            Point::new(16.0, 0.0),
            Point::new(32.0, 0.0),
        ];
        let dm = DemandMatrix::build(
            &star(),
            Some(&pos),
            &cfg(DemandModel::Gravity {
                distance_exponent: 1.0,
            }),
        );
        // Same masses (leaf-leaf), 4x the distance → a quarter of the
        // demand: pairs (1,2) at distance 6 and (2,3) at 8 vs (1,4) at 30.
        assert!(dm.demand(1, 2) > dm.demand(1, 4));
        let ratio = dm.demand(1, 2) / dm.demand(1, 4);
        assert!((ratio - 5.0).abs() < 1e-9, "30/6 = {}", ratio);
    }

    #[test]
    fn rank_bias_concentrates_on_hubs() {
        let dm = DemandMatrix::build(
            &star(),
            None,
            &cfg(DemandModel::RankBiased { exponent: 1.0 }),
        );
        // Hub is rank 1 (mass 1), leaves ranks 2..=5 by id.
        assert!((dm.mass(0) - 1.0).abs() < 1e-12);
        assert!((dm.mass(1) - 0.5).abs() < 1e-12);
        assert!(dm.demand(0, 1) > dm.demand(3, 4));
    }

    #[test]
    fn flows_match_row_sums() {
        let dm = DemandMatrix::build(
            &star(),
            None,
            &cfg(DemandModel::Gravity {
                distance_exponent: 0.0,
            }),
        );
        let flows = dm.flows();
        // 5 sources x 4 destinations, all masses positive.
        assert_eq!(flows.len(), 20);
        for i in 0..5 {
            let emitted: f64 = flows
                .iter()
                .filter(|f| f.src.index() == i)
                .map(|f| f.amount)
                .sum();
            assert!((emitted - dm.row_sum(i)).abs() < 1e-9);
        }
        let offered: f64 = flows.iter().map(|f| f.amount).sum();
        assert!((offered - 2.0 * dm.total()).abs() < 1e-9);
    }

    #[test]
    fn masked_masses_zero_out_infrastructure() {
        let dm = DemandMatrix::from_masses(vec![0.0, 1.0, 1.0, 1.0, 1.0], None, 0.0, 1.0, 60.0);
        assert_eq!(dm.demand(0, 1), 0.0);
        assert!((dm.demand(1, 2) - 10.0).abs() < 1e-9);
        assert!((dm.total() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_sizes_stay_zero() {
        let dm = DemandMatrix::from_masses(Vec::new(), None, 0.0, 1.0, 10.0);
        assert!(dm.is_empty());
        assert_eq!(dm.total(), 0.0);
        assert!(dm.flows().is_empty());
        let one = DemandMatrix::from_masses(vec![3.0], None, 0.0, 1.0, 10.0);
        assert_eq!(one.total(), 0.0);
        assert_eq!(one.demand(0, 0), 0.0);
        let zeros = DemandMatrix::from_masses(vec![0.0; 4], None, 0.0, 1.0, 10.0);
        assert_eq!(zeros.total(), 0.0);
    }

    #[test]
    fn sum_demand_matches_pointwise_sum() {
        let csr = star();
        let base = DemandMatrix::build(
            &csr,
            None,
            &cfg(DemandModel::Gravity {
                distance_exponent: 0.0,
            }),
        );
        let surge =
            DemandMatrix::build(&csr, None, &cfg(DemandModel::RankBiased { exponent: 1.0 }));
        let sum = SumDemand::new(&base, &surge);
        assert_eq!(sum.node_count(), 5);
        for i in 0..5 {
            for j in 0..5 {
                let want = base.demand(i, j) + surge.demand(i, j);
                assert_eq!(sum.demand(i, j).to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn sum_demand_gather_merges_rows_bitwise() {
        // Disjoint + overlapping rows: base lives on nodes {1, 2},
        // surge on {2, 3}; node 2 is in both, 1 and 3 in exactly one.
        let base = DemandMatrix::from_masses(vec![0.0, 1.0, 2.0, 0.0, 1.0], None, 0.0, 1.0, 30.0);
        let surge = DemandMatrix::from_masses(vec![0.0, 0.0, 1.0, 3.0, 1.0], None, 0.0, 1.0, 50.0);
        let sum = SumDemand::new(&base, &surge);
        for src in 0..5 {
            let mut merged = Vec::new();
            sum.gather_row(src, &mut merged);
            // The default per-pair sweep over `demand` is the reference.
            let mut reference = Vec::new();
            for dst in 0..5 {
                if dst == src {
                    continue;
                }
                let amount = sum.demand(src, dst);
                if amount > 0.0 {
                    reference.push((dst as u32, amount));
                }
            }
            assert_eq!(merged.len(), reference.len(), "src {}", src);
            for (got, want) in merged.iter().zip(&reference) {
                assert_eq!(got.0, want.0, "src {}", src);
                assert_eq!(got.1.to_bits(), want.1.to_bits(), "src {}", src);
            }
        }
    }

    #[test]
    #[should_panic(expected = "same nodes")]
    fn sum_demand_rejects_mismatched_sizes() {
        let a = DemandMatrix::from_masses(vec![1.0; 4], None, 0.0, 1.0, 10.0);
        let b = DemandMatrix::from_masses(vec![1.0; 5], None, 0.0, 1.0, 10.0);
        SumDemand::new(&a, &b);
    }

    #[test]
    fn from_masses_scaled_matches_normalized_up_to_scale() {
        let mass = vec![0.0, 2.0, 1.0, 3.0, 1.0];
        let pos: Vec<Point> = (0..5)
            .map(|i| Point::new(i as f64, 0.5 * i as f64))
            .collect();
        let normalized = DemandMatrix::from_masses(mass.clone(), Some(pos.clone()), 1.2, 0.5, 90.0);
        let raw = DemandMatrix::from_masses_scaled(mass, Some(pos), 1.2, 0.5, 1.0);
        let ratio = normalized.demand(1, 3) / raw.demand(1, 3);
        for i in 0..5 {
            for j in 0..5 {
                if raw.demand(i, j) > 0.0 {
                    assert!((normalized.demand(i, j) / raw.demand(i, j) - ratio).abs() < 1e-9);
                }
            }
        }
        assert!((normalized.total() - 90.0).abs() < 1e-9);
    }
}
