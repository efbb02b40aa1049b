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
//!
//! # The parent index
//!
//! [`grow`] finds each argmin on a bucket grid of `G × G` cells over the
//! region, `G = max(1, ⌊√(n / 32)⌋)`, so a cell ends up with about 32
//! nodes. Each cell keeps its members in arrival order, the exact
//! bounding box of their positions and their smallest centrality. An
//! arrival `p` scans its own cell, then visits every other non-empty
//! cell and skips it when the cell's bound
//! `α · dist(p, clamp(p, box)) + min h` already loses to the best
//! candidate so far.
//!
//! The index is exact, not approximate. The bound is the candidate
//! expression itself, evaluated at the point of the box nearest `p`,
//! which is at least as close to `p` as every member on each axis. Each
//! IEEE step of the expression is monotone (subtract, square, add, square
//! root, multiply by α ≥ 0, add `h`), so the bound never exceeds a
//! member's computed value. Candidates compare by (value, id), and a cell
//! is skipped only when (bound, its first id) already compares greater
//! than the best pair, so a tie goes to the lowest id, exactly as in an
//! ascending scan of every earlier node with a strict `<`. That scan is
//! the test oracle (`tests/common/fkp_scan.rs`). On E9's twelve trees at
//! n = 2,000 the index makes about a tenth of the scan's n(n − 1)/2
//! evaluations, cell bounds included.

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

/// Points per cell the parent index aims for: its grid has
/// `⌊√(n / POINTS_PER_CELL)⌋` cells on a side (at least one).
const POINTS_PER_CELL: usize = 32;

/// Grows an FKP tree.
///
/// Positions come first: the root sits at the region's center, and one
/// [`BoundingBox::sample_uniform`] draw per arrival, in arrival order,
/// places the rest, so the generator consumes the same random stream as
/// drawing each position on arrival. Each arrival then attaches to the
/// existing node minimizing `α · dist + h`, found through a bucket grid
/// over the region instead of a scan of every earlier node (see the
/// module docs). The grid returns the scan's parent for every arrival,
/// bit for bit: the lowest-id node among those at the minimum value.
///
/// # Panics
///
/// Panics if `config.n == 0` or `config.alpha` fails [`alpha_is_valid`].
pub fn grow(config: &FkpConfig, rng: &mut impl Rng) -> FkpTopology {
    grow_counted(config, rng).0
}

/// [`grow`], also returning the index's work: candidate evaluations plus
/// cell bounds.
fn grow_counted(config: &FkpConfig, rng: &mut impl Rng) -> (FkpTopology, u64) {
    assert!(config.n > 0, "FKP needs at least the root node");
    assert!(
        alpha_is_valid(config.alpha),
        "alpha must be a non-negative finite number"
    );
    let n = config.n;
    let mut points = Vec::with_capacity(n);
    points.push(REGION.center()); // root at the center
    points.extend((1..n).map(|_| REGION.sample_uniform(rng)));
    let mut index = ParentIndex::new(&points);
    let mut tree = RootedTree::new_incremental(NodeId(0), n);
    index.insert(0.0);
    let mut work = 0;
    for (i, p) in points.iter().enumerate().skip(1) {
        let j = index.argmin(p, config.alpha, &mut work);
        tree.attach(NodeId(i as u32), NodeId(j as u32));
        let h = match config.centrality {
            Centrality::HopsToRoot => index.h[j] + 1.0,
            Centrality::TreeDistToRoot => index.h[j] + p.dist(&points[j]),
            Centrality::None => 0.0,
        };
        index.insert(h);
    }
    let topology = FkpTopology {
        tree,
        points,
        alpha: config.alpha,
    };
    (topology, work)
}

/// One grid cell of the parent index.
#[derive(Clone, Copy)]
struct Cell {
    /// Exact bounding box of the points inserted so far; meaningful once
    /// `len > 0`.
    bbox: BoundingBox,
    /// Smallest centrality among the members (`+∞` while empty).
    min_h: f64,
    /// Id of the first member, the smallest; meaningful once `len > 0`.
    first: u32,
    /// The cell's slots in `ParentIndex::members` start here; the first
    /// `len` are filled, in arrival order.
    start: u32,
    len: u32,
}

/// The bucket grid behind [`grow`]: FKP's argmin over the nodes inserted
/// so far, with whole cells skipped by a bound that can never exceed a
/// member's value. Every buffer is flat and sized once from the final
/// positions.
struct ParentIndex<'a> {
    /// Every node's position, inserted or not.
    points: &'a [Point],
    /// Centrality `h` of each inserted node, by id; every entry is 0.0
    /// under [`Centrality::None`].
    h: Vec<f64>,
    side: usize,
    cells: Vec<Cell>,
    /// One node-id slot per point, grouped by cell (a counting sort of
    /// the positions), each group in arrival order.
    members: Vec<u32>,
}

impl<'a> ParentIndex<'a> {
    /// An empty index over `points`, with a slot reserved for each.
    fn new(points: &'a [Point]) -> Self {
        let side = (points.len() / POINTS_PER_CELL).isqrt().max(1);
        let empty = Cell {
            bbox: REGION,
            min_h: f64::INFINITY,
            first: 0,
            start: 0,
            len: 0,
        };
        let mut index = ParentIndex {
            points,
            h: Vec::with_capacity(points.len()),
            side,
            cells: vec![empty; side * side],
            members: vec![0; points.len()],
        };
        for p in points {
            let c = index.cell_of(p);
            index.cells[c].len += 1;
        }
        let mut start = 0;
        for cell in &mut index.cells {
            cell.start = start;
            start += cell.len;
            cell.len = 0;
        }
        index
    }

    /// The cell `p` falls in. Where rounding puts a point on an edge does
    /// not matter: bounds read each cell's exact bounding box, never its
    /// nominal edges.
    fn cell_of(&self, p: &Point) -> usize {
        let side = self.side as f64;
        let axis =
            |v: f64, lo: f64, extent: f64| (((v - lo) / extent * side) as usize).min(self.side - 1);
        axis(p.x, REGION.min_x, REGION.width())
            + self.side * axis(p.y, REGION.min_y, REGION.height())
    }

    /// Inserts the next node in arrival order, with centrality `h`.
    fn insert(&mut self, h: f64) {
        let id = self.h.len();
        let p = self.points[id];
        let c = self.cell_of(&p);
        let cell = &mut self.cells[c];
        let b = &mut cell.bbox;
        if cell.len == 0 {
            *b = BoundingBox::new(p.x, p.y, p.x, p.y);
            cell.first = id as u32;
        } else {
            b.min_x = b.min_x.min(p.x);
            b.min_y = b.min_y.min(p.y);
            b.max_x = b.max_x.max(p.x);
            b.max_y = b.max_y.max(p.y);
        }
        cell.min_h = cell.min_h.min(h);
        self.members[(cell.start + cell.len) as usize] = id as u32;
        cell.len += 1;
        self.h.push(h);
    }

    /// The inserted node minimizing `alpha · dist(p, j) + h(j)`, the lowest
    /// id among ties. Adds the candidate evaluations and cell bounds it
    /// made to `work`.
    fn argmin(&self, p: &Point, alpha: f64, work: &mut u64) -> usize {
        let home = self.cell_of(p);
        let mut best = (f64::INFINITY, u32::MAX);
        self.scan(&self.cells[home], p, alpha, &mut best, work);
        for (c, cell) in self.cells.iter().enumerate() {
            if c == home || cell.len == 0 {
                continue;
            }
            *work += 1;
            // Every member's (value, id) is at least (bound, first id), and
            // the bound is at least `min_h`; skip the cell when that key
            // already loses to the best, trying `min_h` before paying for
            // the square root.
            if (cell.min_h, cell.first) > best {
                continue;
            }
            let bound = alpha * p.dist(&cell.bbox.clamp(*p)) + cell.min_h;
            if (bound, cell.first) > best {
                continue;
            }
            self.scan(cell, p, alpha, &mut best, work);
        }
        best.1 as usize
    }

    /// Folds `cell`'s members into `best`, ordered by (value, id).
    fn scan(&self, cell: &Cell, p: &Point, alpha: f64, best: &mut (f64, u32), work: &mut u64) {
        let members = &self.members[cell.start as usize..][..cell.len as usize];
        for &j in members {
            let key = (
                alpha * p.dist(&self.points[j as usize]) + self.h[j as usize],
                j,
            );
            if key < *best {
                *best = key;
            }
        }
        *work += members.len() as u64;
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

    /// The index's work on E9's centrality ablation (c) at the
    /// benchmark's scale: the twelve (centrality, α) trees at n = 2,000
    /// from seed 20030617 + 90. A scan of every earlier node makes
    /// 12 · n(n − 1)/2 evaluations; the index must stay under a quarter
    /// of that. The count is deterministic, so this holds on any machine.
    #[test]
    fn index_work_stays_far_below_the_scan() {
        let n = 2000;
        let mut work = 0;
        for centrality in [
            Centrality::HopsToRoot,
            Centrality::TreeDistToRoot,
            Centrality::None,
        ] {
            for alpha in [1.0, 1.2, 3.0, 8.0] {
                let config = FkpConfig {
                    n,
                    alpha,
                    centrality,
                };
                work += grow_counted(&config, &mut StdRng::seed_from_u64(20030617 + 90)).1;
            }
        }
        let scan = 12 * (n * (n - 1) / 2) as u64;
        assert_eq!(scan, 23_988_000);
        assert!(
            work < scan / 4,
            "index made {} of the scan's {}",
            work,
            scan
        );
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
