//! Deterministic parallel kernels over [`CsrGraph`], and the chunk
//! scheduler behind every parallel sweep in the workspace.
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
//! 2. Workers *steal whole chunks* from an atomic counter; each chunk's
//!    partial result is a pure function of the chunk (sources
//!    accumulated in ascending order), no matter which thread runs it.
//!    The calling thread is one of the workers, so a one-thread run
//!    spawns nothing.
//! 3. The calling thread reduces the partials in chunk-index order.
//!
//! Consequently `par_betweenness(csr, t)` returns bit-identical output
//! for every `t`. There are no separate serial entry points: a serial
//! run is the kernel at `threads = 1`, so "serial vs parallel" can never
//! drift apart.
//!
//! [`run_chunks`] is that scheduler, and [`par_map`] is its ordered map
//! over `0..len` for callers whose items are independent jobs (E6's
//! metric battery, one report per generator). Besides the kernels here,
//! it fans out the robustness curves in `hot-metrics`, the batched
//! traffic engine and the probe campaigns in `hot-sim`, and `hot-bgp`'s
//! policy summary.
//!
//! All betweenness runs through [`par_betweenness_sampled`]; exact
//! betweenness is that function with every node as a pivot. Each source's
//! forward sweep is the shortest-path DAG of
//! [`CsrGraph::path_dag_into`], the same pass ECMP routing uses, and
//! Brandes' dependency pass walks its parent slots back in reverse visit
//! order. The one exception is exact betweenness on a forest (a
//! one-vantage traceroute map, an FKP tree): there every shortest path
//! is unique, and [`par_betweenness`] counts the pairs each node
//! separates in one O(n) pass instead, with the same bits.
//!
//! Everything uses `std::thread::scope`; there are no dependencies.

use crate::csr::{BfsScratch, CsrGraph, CsrPathDag, UNREACHABLE};
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
/// workers and returns the per-chunk results sorted by chunk index.
///
/// The calling thread is a worker: it spawns `min(threads, non-empty
/// chunks) − 1` scoped threads and runs the last worker loop itself, so
/// `threads = 1` runs every chunk on the caller and spawns nothing.
/// Chunks are handed out through an atomic counter (work stealing);
/// `init` builds one reusable per-worker scratch state, so expensive
/// buffers are allocated once per thread, not once per chunk. For the
/// pipeline to stay deterministic, `work` must be a pure function of
/// the chunk range — the scratch must carry no information between
/// chunks.
///
/// Empty chunks are skipped, so callers with fewer than [`NUM_CHUNKS`]
/// items get exactly one singleton chunk per item, in order. A panic in
/// any chunk reaches the caller with its own payload, once every worker
/// has stopped.
pub fn run_chunks<S, T, I, F>(len: usize, threads: usize, init: I, work: F) -> Vec<(usize, T)>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, std::ops::Range<usize>) -> T + Sync,
{
    // Chunk `c` is empty exactly when `c >= len`, so `min(len, NUM_CHUNKS)`
    // chunks hold work; more workers than that would only spin.
    let threads = threads.clamp(1, len.clamp(1, NUM_CHUNKS));
    let next = AtomicUsize::new(0);
    let worker = || {
        // Lazy: workers that never win a chunk skip `init`.
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
    };
    let mut collected = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads).map(|_| scope.spawn(worker)).collect();
        let mut collected = worker();
        for h in handles {
            match h.join() {
                Ok(part) => collected.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        collected
    });
    collected.sort_by_key(|&(c, _)| c);
    collected
}

/// `f(0), f(1), …, f(len − 1)` computed on `threads` workers through
/// [`run_chunks`] and returned in index order, so the result is the same
/// at every thread count. For independent jobs that each return one
/// value, such as one metric report per graph; `f` must be a pure
/// function of its index.
pub fn par_map<T, F>(len: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out = Vec::with_capacity(len);
    for (_, part) in run_chunks(
        len,
        threads,
        || (),
        |_, range| range.map(&f).collect::<Vec<_>>(),
    ) {
        out.extend(part);
    }
    out
}

/// Betweenness centrality of every node (unweighted shortest paths, each
/// unordered pair counted once, endpoints excluded) computed on `threads`
/// worker threads: [`par_betweenness_sampled`] with every node as a
/// pivot, in id order, where its `n / (2n)` scale is exactly one half.
///
/// A forest (`edge_count + component_count == node_count`, which also
/// rules out parallel links and self-loops) skips Brandes: each node's
/// value is the number of pairs its removal separates, in closed form
/// from one O(n) subtree-size pass on the calling thread. Those are
/// Brandes' bits too, because on a forest every σ is 1 and Brandes only
/// adds integers (exactly, while a component stays under 94 million
/// nodes, so that its pair counts stay below 2⁵³).
///
/// Betweenness feeds the hierarchy metrics: in optimization-designed
/// topologies load concentrates on a thin backbone, which shows up as an
/// extremely skewed betweenness distribution. Output is bit-identical
/// for every thread count — see the module docs.
pub fn par_betweenness(csr: &CsrGraph, threads: usize) -> Vec<f64> {
    if let Some(b) = forest_betweenness(csr) {
        return b;
    }
    let all: Vec<NodeId> = (0..csr.node_count() as u32).map(NodeId).collect();
    par_betweenness_sampled(csr, &all, threads)
}

/// Exact betweenness of a forest, or `None` when `csr` is not one.
///
/// Removing `v` from its N-node tree leaves parts of sizes `sᵢ` (its
/// child subtrees under a BFS root, and the rest of the tree above it),
/// and `v` lies on the one path between any two nodes in different
/// parts: `((N − 1)² − Σ sᵢ²) / 2` unordered pairs. The count is formed
/// in `u64` and converted once, as Brandes' all-integer sums would give.
fn forest_betweenness(csr: &CsrGraph) -> Option<Vec<f64>> {
    let n = csr.node_count();
    // A forest has n − c links for c ≥ 1 components (none when n = 0).
    if csr.edge_count() >= n {
        return None;
    }
    // BFS from each unvisited node in id order: `order` lists every
    // component contiguously, each node after its parent.
    let mut parent = vec![UNREACHABLE; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut starts = Vec::new();
    for root in 0..n as u32 {
        if parent[root as usize] != UNREACHABLE {
            continue;
        }
        parent[root as usize] = root;
        starts.push(order.len());
        let mut head = order.len();
        order.push(root);
        while let Some(&v) = order.get(head) {
            head += 1;
            for &u in csr.neighbors(NodeId(v)) {
                if parent[u.index()] == UNREACHABLE {
                    parent[u.index()] = v;
                    order.push(u.0);
                }
            }
        }
    }
    if csr.edge_count() + starts.len() != n {
        return None;
    }
    // Subtree sizes and the sums of their squares per parent, leaves up.
    let mut size = vec![1u64; n];
    let mut below_sq = vec![0u64; n];
    for &v in order.iter().rev() {
        let p = parent[v as usize];
        if p != v {
            let s = size[v as usize];
            size[p as usize] += s;
            below_sq[p as usize] += s * s;
        }
    }
    let mut b = vec![0.0f64; n];
    starts.push(n);
    for bounds in starts.windows(2) {
        let component = &order[bounds[0]..bounds[1]];
        let total = component.len() as u64;
        for &v in component {
            let above = total - size[v as usize];
            let pairs = (total - 1).pow(2) - below_sq[v as usize] - above * above;
            b[v as usize] = pairs as f64 * 0.5;
        }
    }
    Some(b)
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
    fn par_map_equals_the_serial_map() {
        let f = |i: usize| format!("item {}", i * i + 7);
        for len in [0usize, 1, 63, 64, 65, 200] {
            let want: Vec<String> = (0..len).map(f).collect();
            for threads in 1..=8 {
                assert_eq!(
                    par_map(len, threads, f),
                    want,
                    "len {} threads {}",
                    len,
                    threads
                );
            }
        }
        // Past NUM_CHUNKS items a chunk holds several of them.
        let sizes = run_chunks(200, 4, || (), |_, range| range.len());
        assert!(sizes.iter().any(|&(_, k)| k > 1));
    }

    #[test]
    fn one_thread_runs_every_chunk_on_the_caller() {
        let caller = std::thread::current().id();
        for len in [1usize, 5, 64, 200] {
            let ran_on = run_chunks(len, 1, || (), |_, _| std::thread::current().id());
            assert_eq!(ran_on.len(), len.min(NUM_CHUNKS), "len {}", len);
            assert!(ran_on.iter().all(|&(_, id)| id == caller), "len {}", len);
        }
    }

    /// A panic in a chunk reaches the caller with its own payload,
    /// whether the calling thread or a spawned worker ran the chunk.
    #[test]
    fn a_panicking_chunk_reaches_the_caller() {
        let caller = std::thread::current().id();
        for (threads, on_caller) in [(1, true), (4, true), (4, false)] {
            // Every worker waits here with its first chunk in hand, so
            // the caller and each spawned worker run at least one chunk.
            let barrier = std::sync::Barrier::new(threads);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_chunks(
                    NUM_CHUNKS,
                    threads,
                    || barrier.wait(),
                    |_, range| {
                        if (std::thread::current().id() == caller) == on_caller {
                            panic!("chunk failed");
                        }
                        range.len()
                    },
                )
            }));
            let payload = caught.expect_err("the panic reaches the caller");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"chunk failed"),
                "threads {}, on the caller: {}",
                threads,
                on_caller
            );
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
    use crate::graph::{Graph, NodeId};
    use proptest::prelude::*;

    /// Undirected links as node-index pairs.
    type Links = Vec<(usize, usize)>;

    /// A forest drawn from the strategy values: one component per entry
    /// of `sizes` (size 1 is an isolated node) shaped by `shapes` as a
    /// star, a path or a random tree whose node `i` hangs below node
    /// `picks[i] % i`, on node ids shuffled by `picks` and with links in
    /// either orientation. Also returns one chord per component of three
    /// or more nodes: two non-adjacent nodes of the same tree.
    fn forest(sizes: &[usize], shapes: &[usize], picks: &[usize]) -> (usize, Links, Links) {
        let n: usize = sizes.iter().sum();
        let pick = |i: usize| picks[i % picks.len()];
        let mut ids: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            ids.swap(i, pick(i) % (i + 1));
        }
        let (mut links, mut chords) = (Vec::new(), Vec::new());
        let mut base = 0;
        for (c, &size) in sizes.iter().enumerate() {
            let parent = |i: usize| match shapes[c % shapes.len()] {
                0 => 0,
                1 => i - 1,
                _ => pick(base + i) % i,
            };
            for i in 1..size {
                let (a, b) = (ids[base + i], ids[base + parent(i)]);
                links.push(if pick(n + base + i) % 2 == 0 {
                    (a, b)
                } else {
                    (b, a)
                });
            }
            if size >= 3 {
                // 1 and 2 are siblings below 0, or 0-1-2 is a path.
                let (a, b) = if parent(2) == 1 { (0, 2) } else { (1, 2) };
                chords.push((ids[base + a], ids[base + b]));
            }
            base += size;
        }
        (n, links, chords)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// On random forests of up to 200 nodes, exact betweenness takes
        /// the closed form and matches Brandes (the all-pivot sampled
        /// run) by `to_bits()` at 1 and 4 threads. One chord (a cycle) or
        /// one doubled link makes the graph no forest, and it must then
        /// take the Brandes path.
        #[test]
        fn forest_betweenness_matches_brandes_bit_for_bit(
            sizes in proptest::collection::vec(1usize..41, 1..6),
            shapes in proptest::collection::vec(0usize..3, 5..6),
            picks in proptest::collection::vec(0usize..1000, 1..64),
            which in 0usize..1000,
        ) {
            let (n, links, chords) = forest(&sizes, &shapes, &picks);
            let all: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
            let mut variants = vec![(links.clone(), true)];
            if let Some(&chord) = chords.get(which % chords.len().max(1)) {
                variants.push(([&links[..], &[chord]].concat(), false));
            }
            if let Some(&link) = links.get(which % links.len().max(1)) {
                variants.push(([&links[..], &[link]].concat(), false));
            }
            for (edges, is_forest) in variants {
                let g: Graph<(), ()> =
                    Graph::from_edges(n, edges.iter().map(|&(a, b)| (a, b, ())));
                let csr = CsrGraph::from_graph(&g);
                prop_assert_eq!(forest_betweenness(&csr).is_some(), is_forest,
                    "sizes {:?}, {} links", sizes, edges.len());
                for threads in [1, 4] {
                    prop_assert_eq!(
                        bits(&par_betweenness(&csr, threads)),
                        bits(&par_betweenness_sampled(&csr, &all, threads)),
                        "sizes {:?}, shapes {:?}, forest {}, threads {}",
                        sizes, shapes, is_forest, threads
                    );
                }
            }
        }
    }
}
