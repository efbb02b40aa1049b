//! Deterministic parallel kernels over [`CsrGraph`].
//!
//! The per-source loops of the hot analytics (Brandes betweenness,
//! multi-source BFS path sampling) are embarrassingly parallel, but naive
//! per-thread accumulation makes the floating-point reduction order — and
//! therefore the low bits of the result — depend on the thread count and
//! the scheduler. These kernels avoid that with a fixed decomposition:
//!
//! 1. Sources are split into [`NUM_CHUNKS`] contiguous chunks whose
//!    boundaries depend only on the input size — never on the thread
//!    count.
//! 2. Worker threads *steal whole chunks* from an atomic counter; each
//!    chunk's partial result is a pure function of the chunk (sources
//!    accumulated in ascending order), no matter which thread runs it.
//! 3. The main thread reduces the partials in chunk-index order.
//!
//! Consequently `par_betweenness(csr, t)` returns bit-identical output
//! for every `t`. There are no separate serial entry points: a serial
//! run is the kernel at `threads = 1`, so "serial vs parallel" can never
//! drift apart.
//!
//! All betweenness runs through [`par_betweenness_sampled`]; exact
//! betweenness is that function with every node as a pivot. Each source's
//! forward sweep is the shortest-path DAG of
//! [`CsrGraph::path_dag_into`], the same pass ECMP routing uses, and
//! Brandes' dependency pass walks its parent slots back in reverse visit
//! order.
//!
//! Everything uses `std::thread::scope`; there are no dependencies.

use crate::csr::{BfsScratch, CsrGraph, CsrPathDag};
use crate::graph::NodeId;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of work chunks a source set is split into. Fixed (not derived
/// from the thread count) so the reduction tree — and the floating-point
/// result — is identical no matter how many workers run. 64 chunks keep
/// up to ~16 threads well fed through the work-stealing counter.
pub const NUM_CHUNKS: usize = 64;

/// Worker threads to use by default: everything the machine offers.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The half-open source range of chunk `c` over `len` items.
#[inline]
fn chunk_bounds(len: usize, c: usize) -> std::ops::Range<usize> {
    (c * len / NUM_CHUNKS)..((c + 1) * len / NUM_CHUNKS)
}

/// Runs `work` over all [`NUM_CHUNKS`] chunks of `0..len` on `threads`
/// scoped worker threads and returns the per-chunk results sorted by
/// chunk index.
///
/// Chunks are handed out through an atomic counter (work stealing);
/// `init` builds one reusable per-worker scratch state, so expensive
/// buffers are allocated once per thread, not once per chunk. For the
/// pipeline to stay deterministic, `work` must be a pure function of
/// the chunk range — the scratch must carry no information between
/// chunks.
///
/// This is the one scheduler behind every deterministic parallel sweep
/// in the workspace (betweenness, path sampling, and the robustness
/// curves in `hot-metrics`); empty chunks are skipped, so callers with
/// fewer than [`NUM_CHUNKS`] items get exactly one singleton chunk per
/// item, in order.
pub fn run_chunks<S, T, I, F>(len: usize, threads: usize, init: I, work: F) -> Vec<(usize, T)>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, std::ops::Range<usize>) -> T + Sync,
{
    let threads = threads.clamp(1, NUM_CHUNKS);
    let next = AtomicUsize::new(0);
    let mut collected: Vec<(usize, T)> = Vec::with_capacity(NUM_CHUNKS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    // Lazy: threads that never win a chunk skip `init`.
                    let mut state: Option<S> = None;
                    let mut out = Vec::new();
                    loop {
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        if c >= NUM_CHUNKS {
                            break;
                        }
                        let range = chunk_bounds(len, c);
                        if range.is_empty() {
                            continue;
                        }
                        let state = state.get_or_insert_with(&init);
                        out.push((c, work(state, range)));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            collected.extend(h.join().expect("analytics worker panicked"));
        }
    });
    collected.sort_by_key(|&(c, _)| c);
    collected
}

/// Betweenness centrality of every node (unweighted shortest paths, each
/// unordered pair counted once, endpoints excluded) computed on `threads`
/// worker threads: [`par_betweenness_sampled`] with every node as a
/// pivot, in id order, where its `n / (2n)` scale is exactly one half.
///
/// Betweenness feeds the hierarchy metrics: in optimization-designed
/// topologies load concentrates on a thin backbone, which shows up as an
/// extremely skewed betweenness distribution. Output is bit-identical
/// for every thread count — see the module docs.
pub fn par_betweenness(csr: &CsrGraph, threads: usize) -> Vec<f64> {
    let all: Vec<NodeId> = (0..csr.node_count() as u32).map(NodeId).collect();
    par_betweenness_sampled(csr, &all, threads)
}

/// Betweenness centrality *estimated* from a pivot subset (Brandes–Pich
/// source sampling): the Brandes dependency sweep runs only from
/// `pivots`, and each node's summed dependency is scaled by
/// `n / (2k)` so the estimate is unbiased when pivots are drawn
/// uniformly. With `pivots` = all nodes in ascending order this is
/// exact betweenness, which is how [`par_betweenness`] runs.
///
/// Pivot *selection* (seeded, deterministic) lives with the callers;
/// `hot-metrics` picks seeded uniform pivots above its node threshold.
/// Output is bit-identical at every thread count, as always.
pub fn par_betweenness_sampled(csr: &CsrGraph, pivots: &[NodeId], threads: usize) -> Vec<f64> {
    let n = csr.node_count();
    if n == 0 || pivots.is_empty() {
        return vec![0.0; n];
    }
    let partials = run_chunks(
        pivots.len(),
        threads,
        || (CsrPathDag::sized(csr), vec![0.0f64; n]),
        |(dag, delta), range| {
            // The per-chunk partial must be fresh (it is the reduction
            // unit); only the O(n + m) scratch is reused across chunks.
            let mut partial = vec![0.0f64; n];
            for &s in &pivots[range] {
                csr.path_dag_into(s, None, dag);
                accumulate_dependencies(csr, dag, delta, &mut partial);
            }
            partial
        },
    );
    let mut centrality = vec![0.0f64; n];
    for (_, partial) in partials {
        for (c, p) in centrality.iter_mut().zip(partial) {
            *c += p;
        }
    }
    // Each unordered pair is seen twice per covering pivot; the n/k
    // factor extrapolates the pivot subset to all sources.
    let scale = n as f64 / (2.0 * pivots.len() as f64);
    for c in &mut centrality {
        *c *= scale;
    }
    centrality
}

/// Brandes' dependency pass over one source's path DAG: in reverse visit
/// order, every node `w` hands `σ[v]·(1 + δ[w]) / σ[w]` to each parent
/// slot `v` (a parallel edge is two slots), then adds `δ[w]` into `acc`
/// unless it is the source. `delta` must be all zero on entry and is
/// left all zero: each `δ[w]` is cleared once it is used, since every
/// node that adds into it comes earlier in the reverse order.
fn accumulate_dependencies(csr: &CsrGraph, dag: &CsrPathDag, delta: &mut [f64], acc: &mut [f64]) {
    let sigma = dag.sigma();
    for &w in dag.visit_order().iter().rev() {
        let coeff = (1.0 + delta[w.index()]) / sigma[w.index()];
        for &(v, _) in dag.preds(csr, w) {
            delta[v.index()] += sigma[v.index()] * coeff;
        }
        if w != dag.source() {
            acc[w.index()] += delta[w.index()];
        }
        delta[w.index()] = 0.0;
    }
}

/// Aggregate of a multi-source BFS sweep: the ingredients of mean path
/// length, diameter, and the hop plot. All fields are integer-valued, so
/// parallel merging is exact by construction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PathSummary {
    /// Sum of hop distances over sampled reachable ordered pairs.
    pub total_hops: u64,
    /// Number of sampled reachable ordered pairs (distance ≥ 1).
    pub pairs: u64,
    /// Largest observed hop distance.
    pub diameter: u32,
    /// `hop_histogram[h]` = sampled ordered pairs at distance `h`.
    pub hop_histogram: Vec<usize>,
}

impl PathSummary {
    /// Mean hop distance over the sampled pairs (0 when none).
    pub fn mean_distance(&self) -> f64 {
        if self.pairs > 0 {
            self.total_hops as f64 / self.pairs as f64
        } else {
            0.0
        }
    }

    fn absorb(&mut self, other: &PathSummary) {
        self.total_hops += other.total_hops;
        self.pairs += other.pairs;
        self.diameter = self.diameter.max(other.diameter);
        if self.hop_histogram.len() < other.hop_histogram.len() {
            self.hop_histogram.resize(other.hop_histogram.len(), 0);
        }
        for (h, &c) in other.hop_histogram.iter().enumerate() {
            self.hop_histogram[h] += c;
        }
    }
}

/// BFS from every source in `sources`, aggregated into a [`PathSummary`],
/// on `threads` worker threads. Unreachable pairs are skipped.
///
/// Runs on the direction-optimizing distance kernel
/// ([`CsrGraph::bfs_distances_into`]): the summary only consumes the
/// distance multiset, which is identical between classic and
/// direction-optimizing traversals, so swapping the kernel changed no
/// output bit while cutting the per-source edge traffic on the fat
/// middle levels of low-diameter internet graphs.
pub fn par_path_summary(csr: &CsrGraph, sources: &[NodeId], threads: usize) -> PathSummary {
    let n = csr.node_count();
    let partials = run_chunks(
        sources.len(),
        threads,
        || BfsScratch::sized(n),
        |scratch, range| {
            let mut summary = PathSummary::default();
            for &s in &sources[range] {
                csr.bfs_distances_into(s, scratch);
                for &v in scratch.reached() {
                    let d = scratch.dist()[v as usize];
                    if d == 0 {
                        continue;
                    }
                    summary.total_hops += d as u64;
                    summary.pairs += 1;
                    summary.diameter = summary.diameter.max(d);
                    if summary.hop_histogram.len() <= d as usize {
                        summary.hop_histogram.resize(d as usize + 1, 0);
                    }
                    summary.hop_histogram[d as usize] += 1;
                }
            }
            summary
        },
    );
    let mut total = PathSummary::default();
    for (_, partial) in partials {
        total.absorb(&partial);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn grid(w: usize, h: usize) -> Graph<(), ()> {
        let mut g: Graph<(), ()> = Graph::new();
        for _ in 0..w * h {
            g.add_node(());
        }
        let id = |x: usize, y: usize| NodeId((y * w + x) as u32);
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    g.add_edge(id(x, y), id(x + 1, y), ());
                }
                if y + 1 < h {
                    g.add_edge(id(x, y), id(x, y + 1), ());
                }
            }
        }
        g
    }

    #[test]
    fn chunk_bounds_cover_everything_once() {
        for len in [0usize, 1, 5, 63, 64, 65, 1000] {
            let mut covered = Vec::new();
            for c in 0..NUM_CHUNKS {
                covered.extend(chunk_bounds(len, c));
            }
            assert_eq!(covered, (0..len).collect::<Vec<_>>(), "len {}", len);
        }
    }

    #[test]
    fn par_betweenness_thread_counts_agree() {
        let g = grid(7, 5);
        let csr = CsrGraph::from_graph(&g);
        let reference = par_betweenness(&csr, 1);
        for threads in 2..=8 {
            let b = par_betweenness(&csr, threads);
            let same = reference
                .iter()
                .zip(&b)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "bit mismatch at {} threads", threads);
        }
    }

    #[test]
    fn par_betweenness_empty_and_single() {
        let empty: Graph<(), ()> = Graph::new();
        assert!(par_betweenness(&CsrGraph::from_graph(&empty), 4).is_empty());
        let mut one: Graph<(), ()> = Graph::new();
        one.add_node(());
        assert_eq!(par_betweenness(&CsrGraph::from_graph(&one), 4), vec![0.0]);
    }

    /// With pivots = all nodes in id order the sampled estimator is the
    /// exact kernel, bit for bit.
    #[test]
    fn sampled_betweenness_all_pivots_is_exact() {
        let g = grid(7, 5);
        let csr = CsrGraph::from_graph(&g);
        let exact = par_betweenness(&csr, default_threads());
        let pivots: Vec<NodeId> = (0..csr.node_count() as u32).map(NodeId).collect();
        let sampled = par_betweenness_sampled(&csr, &pivots, default_threads());
        let same = exact
            .iter()
            .zip(&sampled)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "all-pivot estimate must equal the exact kernel");
    }

    #[test]
    fn sampled_betweenness_thread_counts_agree() {
        let g = grid(7, 5);
        let csr = CsrGraph::from_graph(&g);
        let pivots: Vec<NodeId> = [0u32, 3, 11, 17, 29, 34]
            .iter()
            .map(|&v| NodeId(v))
            .collect();
        let reference = par_betweenness_sampled(&csr, &pivots, 1);
        for threads in 2..=8 {
            let b = par_betweenness_sampled(&csr, &pivots, threads);
            let same = reference
                .iter()
                .zip(&b)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "bit mismatch at {} threads", threads);
        }
        // Degenerate inputs stay well-defined.
        assert_eq!(
            par_betweenness_sampled(&csr, &[], 4),
            vec![0.0; csr.node_count()]
        );
        let empty: Graph<(), ()> = Graph::new();
        assert!(par_betweenness_sampled(&CsrGraph::from_graph(&empty), &[], 4).is_empty());
    }

    #[test]
    fn path_summary_matches_known_path_graph() {
        // 0-1-2-3: ordered pairs at distances 1 (6 pairs), 2 (4), 3 (2).
        let g: Graph<(), ()> = Graph::from_edges(4, vec![(0, 1, ()), (1, 2, ()), (2, 3, ())]);
        let csr = CsrGraph::from_graph(&g);
        let sources: Vec<NodeId> = (0..4).map(NodeId).collect();
        let s = par_path_summary(&csr, &sources, 1);
        assert_eq!(s.pairs, 12);
        assert_eq!(s.total_hops, 6 + 8 + 6);
        assert_eq!(s.diameter, 3);
        assert_eq!(s.hop_histogram, vec![0, 6, 4, 2]);
        assert!((s.mean_distance() - 20.0 / 12.0).abs() < 1e-12);
        for threads in 2..=8 {
            assert_eq!(par_path_summary(&csr, &sources, threads), s);
        }
    }

    #[test]
    fn avg_path_length_on_disconnected_graph() {
        let g: Graph<(), ()> = Graph::from_edges(4, vec![(0, 1, ()), (2, 3, ())]);
        let csr = CsrGraph::from_graph(&g);
        let sources: Vec<NodeId> = (0..4).map(NodeId).collect();
        // Only the 4 adjacent ordered pairs are reachable.
        let s = par_path_summary(&csr, &sources, 3);
        assert_eq!((s.pairs, s.total_hops), (4, 4));
        assert!((s.mean_distance() - 1.0).abs() < 1e-12);
        let empty: Graph<(), ()> = Graph::new();
        let none = par_path_summary(&CsrGraph::from_graph(&empty), &[], 2);
        assert_eq!(none.mean_distance(), 0.0);
    }

    /// Betweenness of `g` on one thread.
    fn betweenness(g: &Graph<(), ()>) -> Vec<f64> {
        par_betweenness(&CsrGraph::from_graph(g), 1)
    }

    #[test]
    fn path_center_dominates() {
        // 0-1-2-3-4: pairs through 2 are (0,3),(0,4),(1,3),(1,4) = 4.
        let g: Graph<(), ()> =
            Graph::from_edges(5, vec![(0, 1, ()), (1, 2, ()), (2, 3, ()), (3, 4, ())]);
        let b = betweenness(&g);
        assert!((b[2] - 4.0).abs() < 1e-9);
        // node 1 lies on (0,2),(0,3),(0,4) = 3 pairs
        assert!((b[1] - 3.0).abs() < 1e-9);
        assert_eq!(b[0], 0.0);
        assert_eq!(b[4], 0.0);
    }

    #[test]
    fn star_center_covers_all_pairs() {
        let g: Graph<(), ()> = Graph::from_edges(5, (1..5).map(|i| (0, i, ())).collect::<Vec<_>>());
        let b = betweenness(&g);
        // 4 leaves -> C(4,2) = 6 pairs all through the hub.
        assert!((b[0] - 6.0).abs() < 1e-9);
        assert_eq!(&b[1..], &[0.0; 4]);
    }

    #[test]
    fn cycle_symmetric() {
        let g: Graph<(), ()> =
            Graph::from_edges(4, vec![(0, 1, ()), (1, 2, ()), (2, 3, ()), (3, 0, ())]);
        let b = betweenness(&g);
        for v in 0..4 {
            assert!(
                (b[v] - b[0]).abs() < 1e-9,
                "cycle betweenness should be uniform"
            );
        }
        // Each opposite pair has 2 shortest paths, contributing 1/2 to each
        // intermediate: node 0 is interior to exactly the pair (1,3) with
        // multiplicity 1/2.
        assert!((b[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn split_paths_share_credit() {
        // Two parallel 2-hop routes 0-1-3 and 0-2-3.
        let g: Graph<(), ()> =
            Graph::from_edges(4, vec![(0, 1, ()), (0, 2, ()), (1, 3, ()), (2, 3, ())]);
        let b = betweenness(&g);
        assert!((b[1] - 0.5).abs() < 1e-9);
        assert!((b[2] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn disconnected_ok() {
        let g: Graph<(), ()> = Graph::from_edges(4, vec![(0, 1, ()), (2, 3, ())]);
        let b = betweenness(&g);
        assert!(b.iter().all(|&x| x == 0.0));
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use crate::csr::UNREACHABLE;
    use crate::graph::{Graph, NodeId};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Identity: on any connected graph, the total betweenness equals
        /// the total interior length of shortest paths,
        /// Σ_v B(v) = Σ_{u<w} (d(u, w) − 1).
        #[test]
        fn betweenness_sums_to_path_interiors(
            n in 2usize..10,
            extra in proptest::collection::vec((0usize..10, 0usize..10), 0..16),
        ) {
            let mut g: Graph<(), f64> = Graph::new();
            for _ in 0..n {
                g.add_node(());
            }
            // Spanning path for connectivity, then extra simple edges.
            for i in 0..n - 1 {
                g.add_edge(NodeId(i as u32), NodeId(i as u32 + 1), 1.0);
            }
            for (a, b) in extra {
                let (a, b) = (a % n, b % n);
                if a != b && g.find_edge(NodeId(a as u32), NodeId(b as u32)).is_none() {
                    g.add_edge(NodeId(a as u32), NodeId(b as u32), 1.0);
                }
            }
            let csr = CsrGraph::from_graph(&g);
            let total_b: f64 = par_betweenness(&csr, 1).iter().sum();
            let mut interior = 0.0;
            for u in 0..n {
                let dist = csr.bfs_tree(NodeId(u as u32)).dist;
                for &d in &dist[u + 1..] {
                    prop_assert!(d != UNREACHABLE, "connected");
                    interior += d as f64 - 1.0;
                }
            }
            prop_assert!((total_b - interior).abs() < 1e-6,
                "sum B = {} vs interior length {}", total_b, interior);
        }
    }
}
