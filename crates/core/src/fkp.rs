//! The FKP incremental trade-off growth model.
//!
//! Fabrikant, Koutsoupias & Papadimitriou ("Heuristically Optimized
//! Trade-offs", ICALP 2002) — the paper's §3.1 poster child for HOT-style
//! topology generation. Nodes arrive one at a time at uniformly random
//! positions; arrival *i* attaches to the existing node *j* minimizing
//!
//! ```text
//!     α · dist(i, j)  +  centrality(j)
//! ```
//!
//! a trade-off between *last-mile cost* (the distance term — laying fiber
//! to the attachment point) and *operation cost* (the centrality term —
//! how far traffic must then travel to the heart of the network).
//!
//! FKP prove the resulting tree's degree distribution undergoes phase
//! transitions in α (for n nodes):
//!
//! - **α < 1/√2**: every node attaches to the root — a star;
//! - **α = Ω(√n)**: distance dominates — degrees have exponential tails
//!   (dense random-tree regime);
//! - **4 ≤ α = o(√n)**: genuine trade-off — power-law degree
//!   distribution.
//!
//! Experiments E1/E2 regenerate exactly this regime table.

use hot_geo::bbox::BoundingBox;
use hot_geo::point::Point;
use hot_graph::graph::{Graph, NodeId};
use hot_graph::tree::RootedTree;
use rand::Rng;

/// Centrality measure `h(j)` in the FKP objective.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Centrality {
    /// Hop count from `j` to the root — FKP's primary choice.
    #[default]
    HopsToRoot,
    /// Euclidean length of the tree path from `j` to the root, a more
    /// physical "operation cost" (total fiber distance to the core).
    TreeDistToRoot,
    /// No centrality term: pure nearest-neighbor attachment. Degenerate
    /// baseline (equivalent to α → ∞); useful in ablations.
    None,
}

/// Configuration for one FKP growth run.
#[derive(Clone, Debug)]
pub struct FkpConfig {
    /// Number of nodes, including the root.
    pub n: usize,
    /// Trade-off weight α on the distance term.
    pub alpha: f64,
    /// Centrality measure for the second term.
    pub centrality: Centrality,
}

impl Default for FkpConfig {
    fn default() -> Self {
        FkpConfig {
            n: 1000,
            alpha: 10.0,
            centrality: Centrality::HopsToRoot,
        }
    }
}

/// Region in which node positions are drawn uniformly.
const REGION: BoundingBox = BoundingBox::unit();

/// The result of an FKP growth run: a tree over points.
#[derive(Clone, Debug)]
pub struct FkpTopology {
    /// The grown tree; node ids are arrival order (0 = root).
    pub tree: RootedTree,
    /// Position of each node, indexed by node id.
    pub points: Vec<Point>,
    /// The configuration that produced it.
    pub alpha: f64,
}

impl FkpTopology {
    /// The tree as an undirected graph with edge weights = Euclidean
    /// lengths.
    pub fn to_graph(&self) -> Graph<(), f64> {
        let pts = &self.points;
        self.tree
            .to_graph(|child, parent| pts[child.index()].dist(&pts[parent.index()]))
    }

    /// Undirected degree sequence.
    pub fn degree_sequence(&self) -> Vec<u32> {
        self.tree.degree_sequence()
    }

    /// Total Euclidean edge length of the tree.
    pub fn total_length(&self) -> f64 {
        (1..self.points.len() as u32)
            .map(|i| {
                let v = NodeId(i);
                let p = self.tree.parent(v).expect("non-root nodes have parents");
                self.points[v.index()].dist(&self.points[p.index()])
            })
            .sum()
    }
}

/// Whether `alpha` is a trade-off weight [`grow`] accepts: non-negative
/// and finite.
pub fn alpha_is_valid(alpha: f64) -> bool {
    alpha >= 0.0 && alpha.is_finite()
}

/// Grows an FKP tree.
///
/// Runtime is O(n²): each arrival scans all previous nodes. This is the
/// honest algorithm from the paper; at the experiment scales (n ≤ ~30k in
/// release builds) it is entirely practical.
///
/// # Panics
///
/// Panics if `config.n == 0` or `config.alpha` fails [`alpha_is_valid`].
pub fn grow(config: &FkpConfig, rng: &mut impl Rng) -> FkpTopology {
    assert!(config.n > 0, "FKP needs at least the root node");
    assert!(
        alpha_is_valid(config.alpha),
        "alpha must be a non-negative finite number"
    );
    let n = config.n;
    let mut points = Vec::with_capacity(n);
    points.push(REGION.center()); // root at the center
    let mut tree = RootedTree::new_incremental(NodeId(0), n);
    // centrality[j] under the configured measure, maintained incrementally.
    let mut centrality = vec![0.0f64; 1];
    for i in 1..n {
        let p = REGION.sample_uniform(rng);
        // argmin over existing nodes of alpha*dist + h(j).
        let mut best_j = 0usize;
        let mut best_val = f64::INFINITY;
        for (j, q) in points.iter().enumerate() {
            let val = config.alpha * p.dist(q)
                + if config.centrality == Centrality::None {
                    0.0
                } else {
                    centrality[j]
                };
            if val < best_val {
                best_val = val;
                best_j = j;
            }
        }
        let node = NodeId(i as u32);
        let parent = NodeId(best_j as u32);
        tree.attach(node, parent);
        let h = match config.centrality {
            Centrality::HopsToRoot => centrality[best_j] + 1.0,
            Centrality::TreeDistToRoot => centrality[best_j] + p.dist(&points[best_j]),
            Centrality::None => 0.0,
        };
        centrality.push(h);
        points.push(p);
    }
    FkpTopology {
        tree,
        points,
        alpha: config.alpha,
    }
}

/// Coarse classification of an FKP outcome, used by experiment E1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyClass {
    /// ≥ 95% of non-root nodes attach directly to the root.
    Star,
    /// Intermediate: heavy-tailed degrees (hubs at many scales).
    HubTree,
    /// Distance-dominated: bounded, light-tailed degrees.
    DistanceTree,
}

/// Classifies a grown topology by its degree structure.
///
/// Heuristic thresholds (documented, deterministic): a star if the root
/// has ≥ 95% of nodes as direct children; otherwise hub-tree if the
/// maximum degree exceeds `3·√n` (hubs far beyond the exponential-tail
/// scale); otherwise distance-tree.
pub fn classify(topology: &FkpTopology) -> TopologyClass {
    let n = topology.points.len();
    if n <= 2 {
        return TopologyClass::Star;
    }
    let root_children = topology.tree.children(topology.tree.root()).len();
    if root_children as f64 >= 0.95 * (n - 1) as f64 {
        return TopologyClass::Star;
    }
    let max_deg = topology.degree_sequence().into_iter().max().unwrap_or(0);
    if (max_deg as f64) > 3.0 * (n as f64).sqrt() {
        TopologyClass::HubTree
    } else {
        TopologyClass::DistanceTree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_graph::tree::is_tree;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(n: usize, alpha: f64, seed: u64) -> FkpTopology {
        let config = FkpConfig {
            n,
            alpha,
            ..FkpConfig::default()
        };
        grow(&config, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn output_is_tree() {
        let t = run(200, 5.0, 1);
        assert!(is_tree(&t.to_graph()));
        assert_eq!(t.points.len(), 200);
        assert_eq!(t.tree.len(), 200);
    }

    #[test]
    fn tiny_alpha_gives_star() {
        // alpha < 1/sqrt(2): every node prefers the root (h=0) because the
        // distance penalty can never exceed the +1 hop of a non-root parent
        // (max distance in the unit square from center ~ 0.707).
        let t = run(300, 0.5, 2);
        assert_eq!(classify(&t), TopologyClass::Star);
        assert_eq!(t.tree.children(NodeId(0)).len(), 299);
    }

    #[test]
    fn huge_alpha_gives_distance_tree() {
        // alpha >> sqrt(n): pure nearest-neighbor; no giant hubs.
        let t = run(400, 10_000.0, 3);
        assert_eq!(classify(&t), TopologyClass::DistanceTree);
        let max_deg = t.degree_sequence().into_iter().max().unwrap();
        assert!(
            max_deg < 20,
            "distance regime grew a hub of degree {}",
            max_deg
        );
    }

    #[test]
    fn intermediate_alpha_grows_hubs() {
        // alpha in the trade-off window: expect hubs well beyond the
        // distance-regime scale.
        let t = run(2000, 8.0, 4);
        let max_deg = t.degree_sequence().into_iter().max().unwrap();
        assert!(max_deg > 50, "expected hubs, max degree was {}", max_deg);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(100, 4.0, 9);
        let b = run(100, 4.0, 9);
        assert_eq!(a.degree_sequence(), b.degree_sequence());
        assert_eq!(a.points, b.points);
    }

    #[test]
    fn centrality_variants_all_grow_trees() {
        for centrality in [
            Centrality::HopsToRoot,
            Centrality::TreeDistToRoot,
            Centrality::None,
        ] {
            let config = FkpConfig {
                n: 150,
                alpha: 3.0,
                centrality,
            };
            let t = grow(&config, &mut StdRng::seed_from_u64(5));
            assert!(
                is_tree(&t.to_graph()),
                "{:?} did not grow a tree",
                centrality
            );
        }
    }

    #[test]
    fn none_centrality_is_nearest_neighbor() {
        // With no centrality term, each node attaches to its Euclidean
        // nearest predecessor regardless of alpha.
        let c1 = FkpConfig {
            n: 80,
            alpha: 1.0,
            centrality: Centrality::None,
        };
        let c2 = FkpConfig {
            n: 80,
            alpha: 77.0,
            centrality: Centrality::None,
        };
        let t1 = grow(&c1, &mut StdRng::seed_from_u64(6));
        let t2 = grow(&c2, &mut StdRng::seed_from_u64(6));
        assert_eq!(t1.degree_sequence(), t2.degree_sequence());
    }

    #[test]
    fn total_length_positive_and_bounded() {
        let t = run(100, 5.0, 7);
        let len = t.total_length();
        assert!(len > 0.0);
        // 99 edges each at most the unit-square diagonal.
        assert!(len <= 99.0 * 2f64.sqrt());
    }

    #[test]
    #[should_panic(expected = "at least the root")]
    fn zero_nodes_rejected() {
        let config = FkpConfig {
            n: 0,
            ..FkpConfig::default()
        };
        grow(&config, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    fn singleton_classifies_as_star() {
        let t = run(1, 1.0, 0);
        assert_eq!(classify(&t), TopologyClass::Star);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Growth invariants hold across the parameter space.
        #[test]
        fn growth_invariants(n in 2usize..200, alpha in 0.0f64..100.0, seed in 0u64..100) {
            let t = run(n, alpha, seed);
            // Tree has n nodes, n-1 edges, degree sum 2(n-1).
            prop_assert_eq!(t.tree.len(), n);
            let degs = t.degree_sequence();
            prop_assert_eq!(degs.iter().sum::<u32>() as usize, 2 * (n - 1));
            // All points in region.
            for p in &t.points {
                prop_assert!(BoundingBox::unit().contains(p));
            }
            // Depths consistent: every child one deeper than its parent.
            for i in 1..n as u32 {
                let v = NodeId(i);
                let p = t.tree.parent(v).unwrap();
                prop_assert_eq!(t.tree.depth(v), t.tree.depth(p) + 1);
            }
        }
    }
}
