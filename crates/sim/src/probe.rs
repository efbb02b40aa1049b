//! Streaming probe-campaign engine: traceroute inference at scale.
//!
//! The measurement model (see [`crate::traceroute`]): from each vantage,
//! the forwarding path to each destination is observed, and the
//! inferred map is the union of observed links. This module is the
//! batch engine behind scenarios E14 and E19, over a [`CsrGraph`], with
//!
//! - **per-worker scratch**: one reused [`CsrBfsTree`] with O(reached)
//!   reset, so a vantage costs one tree build and zero per-probe
//!   allocation;
//! - **O(reached) marking**: with all-destinations campaigns the
//!   observed links from a vantage are exactly the tree's parent edges,
//!   so masks are stamped straight off the visit order without ever
//!   materializing a path; destination subsets walk parent chains with
//!   an epoch-stamped early stop, so shared path prefixes are walked
//!   once per vantage;
//! - the fixed 64-chunk deterministic scheduler
//!   ([`hot_graph::parallel::run_chunks`]) fanning vantages out, with
//!   bitset partials OR-merged in chunk order — inferred maps and probe
//!   statistics are **bit-identical at any thread count**;
//! - two forwarding modes on the same tree: hop-count trees
//!   ([`CsrGraph::bfs_tree_into`], the mesh controls) and **latency
//!   forwarding** over a per-link latency slice
//!   ([`CsrGraph::dijkstra_tree_into`]; for generated topologies, the
//!   `hot-geo` link lengths).
//!
//! Out-of-range vantage or destination ids are skipped, the convention
//! the routing and BGP queries follow for unrouted addresses.

use crate::traceroute::InferredMap;
use hot_graph::csr::{CsrBfsTree, CsrGraph, UNREACHABLE};
use hot_graph::graph::NodeId;
use hot_graph::parallel::run_chunks;

/// A probe campaign: who probes, toward what, under which forwarding
/// metric.
#[derive(Clone, Copy, Debug)]
pub struct ProbeCampaign<'a> {
    /// Vantage (source) routers. Out-of-range ids are skipped; repeats
    /// are allowed (idempotent on the masks).
    pub vantages: &'a [NodeId],
    /// Probe targets: every node when `None`, else the given subset
    /// (out-of-range ids skipped, like a probe to an unrouted prefix).
    pub destinations: Option<&'a [NodeId]>,
    /// Per-link latency (typically the `hot-geo` link length), indexed
    /// by edge id. `Some` selects weighted (latency) forwarding;
    /// `None` selects hop-count forwarding. Entries must be finite and
    /// non-negative.
    pub link_latency: Option<&'a [f64]>,
}

/// Aggregate statistics of a campaign. All fields are exact integers or
/// chunk-ordered f64 sums, so they are bit-identical at any thread
/// count.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProbeStats {
    /// Probes fired: one per (in-range vantage, in-range destination)
    /// pair, self-probes included.
    pub probes_sent: u64,
    /// Probes whose destination was reachable (the self-probe always
    /// completes).
    pub probes_completed: u64,
    /// Total forwarding hops over completed probes.
    pub total_hops: u64,
    /// Longest completed probe, in hops.
    pub max_hops: u32,
    /// Total accumulated latency over completed probes (zero under
    /// hop-count forwarding).
    pub total_latency: f64,
    /// Largest completed-probe latency.
    pub max_latency: f64,
}

impl ProbeStats {
    /// Mean hop count of completed probes (0 when none completed).
    pub fn mean_hops(&self) -> f64 {
        if self.probes_completed == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.probes_completed as f64
        }
    }

    /// Mean latency of completed probes (0 when none completed).
    pub fn mean_latency(&self) -> f64 {
        if self.probes_completed == 0 {
            0.0
        } else {
            self.total_latency / self.probes_completed as f64
        }
    }

    fn absorb(&mut self, o: &ProbeStats) {
        self.probes_sent += o.probes_sent;
        self.probes_completed += o.probes_completed;
        self.total_hops += o.total_hops;
        self.max_hops = self.max_hops.max(o.max_hops);
        self.total_latency += o.total_latency;
        self.max_latency = self.max_latency.max(o.max_latency);
    }

    /// Adds the hops and, under latency forwarding, the latency of the
    /// completed probe to `dst`.
    fn add_path(&mut self, tree: &CsrBfsTree, dst: NodeId) {
        let hops = tree.dist[dst.index()];
        self.total_hops += hops as u64;
        self.max_hops = self.max_hops.max(hops);
        if let Some(latency) = tree.latency() {
            self.total_latency += latency[dst.index()];
            self.max_latency = self.max_latency.max(latency[dst.index()]);
        }
    }
}

/// The outcome of a campaign: the inferred map plus probe statistics.
#[derive(Clone, Debug)]
pub struct CampaignResult {
    /// The inferred (sampled) map, in ground-truth indexing.
    pub map: InferredMap,
    /// Aggregate probe statistics.
    pub stats: ProbeStats,
}

/// Per-worker state, reused across every vantage the worker processes.
struct WorkerScratch {
    /// The forwarding tree of the current vantage.
    tree: CsrBfsTree,
    /// Epoch stamps for destination-subset chain walks: `stamp[v] ==
    /// epoch` means `v`'s chain suffix is already marked for the
    /// current vantage.
    stamp: Vec<u32>,
    epoch: u32,
}

/// One chunk's partial result: observed-node/edge bitsets plus stats.
/// Bitsets keep the 64 in-flight partials small (n/8 bytes each) and
/// make the chunk-ordered merge a word-wise OR.
struct Partial {
    node_words: Vec<u64>,
    edge_words: Vec<u64>,
    stats: ProbeStats,
}

#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i >> 6] |= 1u64 << (i & 63);
}

#[inline]
fn get_bit(words: &[u64], i: usize) -> bool {
    words[i >> 6] & (1u64 << (i & 63)) != 0
}

/// Runs `campaign` over `csr` on `threads` workers and returns the
/// inferred map plus probe statistics. Deterministic: the result is a
/// pure function of `(csr, campaign)` — the thread count only shapes
/// wall-clock.
///
/// # Panics
///
/// Panics if `campaign.link_latency` is present with the wrong length
/// or with a non-finite / negative entry.
pub fn run_campaign(csr: &CsrGraph, campaign: &ProbeCampaign, threads: usize) -> CampaignResult {
    let n = csr.node_count();
    let m = csr.edge_count();
    if let Some(lat) = campaign.link_latency {
        assert_eq!(lat.len(), m, "one latency per link");
        assert!(
            lat.iter().all(|l| l.is_finite() && *l >= 0.0),
            "link latencies must be finite and non-negative"
        );
    }
    let node_words_len = n.div_ceil(64).max(1);
    let edge_words_len = m.div_ceil(64).max(1);
    let parts = run_chunks(
        campaign.vantages.len(),
        threads,
        || WorkerScratch {
            tree: CsrBfsTree::sized(n),
            stamp: vec![0; n],
            epoch: 0,
        },
        |scratch, range| {
            let mut part = Partial {
                node_words: vec![0; node_words_len],
                edge_words: vec![0; edge_words_len],
                stats: ProbeStats::default(),
            };
            for i in range {
                let v = campaign.vantages[i];
                if v.index() >= n {
                    continue; // unrouted vantage
                }
                match campaign.link_latency {
                    Some(latency) => csr.dijkstra_tree_into(v, latency, &mut scratch.tree),
                    None => csr.bfs_tree_into(v, &mut scratch.tree),
                }
                match campaign.destinations {
                    None => mark_full_tree(&scratch.tree, &mut part),
                    Some(ds) => {
                        advance_epoch(scratch);
                        let WorkerScratch { tree, stamp, epoch } = scratch;
                        mark_subset(tree, ds, stamp, *epoch, &mut part);
                    }
                }
            }
            part
        },
    );
    let mut node_words = vec![0u64; node_words_len];
    let mut edge_words = vec![0u64; edge_words_len];
    let mut stats = ProbeStats::default();
    for (_, part) in &parts {
        for (acc, w) in node_words.iter_mut().zip(&part.node_words) {
            *acc |= w;
        }
        for (acc, w) in edge_words.iter_mut().zip(&part.edge_words) {
            *acc |= w;
        }
        stats.absorb(&part.stats);
    }
    let node_seen: Vec<bool> = (0..n).map(|i| get_bit(&node_words, i)).collect();
    let edge_seen: Vec<bool> = (0..m).map(|i| get_bit(&edge_words, i)).collect();
    let nodes_obs = node_seen.iter().filter(|&&s| s).count();
    let edges_obs = edge_seen.iter().filter(|&&s| s).count();
    CampaignResult {
        map: InferredMap {
            node_coverage: if n > 0 {
                nodes_obs as f64 / n as f64
            } else {
                0.0
            },
            edge_coverage: if m > 0 {
                edges_obs as f64 / m as f64
            } else {
                0.0
            },
            node_seen,
            edge_seen,
        },
        stats,
    }
}

fn advance_epoch(scratch: &mut WorkerScratch) {
    if scratch.epoch == u32::MAX {
        scratch.stamp.fill(0);
        scratch.epoch = 1;
    } else {
        scratch.epoch += 1;
    }
}

/// All-destinations campaign: every reached non-source node contributes
/// itself and its parent edge; one probe per node of the graph was sent.
fn mark_full_tree(tree: &CsrBfsTree, part: &mut Partial) {
    let order = tree.visit_order();
    let parents = tree.parent_edges();
    part.stats.probes_sent += tree.dist.len() as u64;
    part.stats.probes_completed += order.len() as u64;
    set_bit(&mut part.node_words, tree.source.index());
    for &u in &order[1..] {
        set_bit(&mut part.node_words, u.index());
        set_bit(&mut part.edge_words, parents[u.index()].index());
        part.stats.add_path(tree, u);
    }
}

/// Destination-subset campaign: walk each destination's parent chain
/// toward the source, stopping at the first node already stamped for
/// this vantage (its suffix is marked).
fn mark_subset(
    tree: &CsrBfsTree,
    dests: &[NodeId],
    stamp: &mut [u32],
    epoch: u32,
    part: &mut Partial,
) {
    let n = tree.dist.len();
    let parents_n = tree.parent_nodes();
    let parents_e = tree.parent_edges();
    // The vantage observes itself even when every probe times out.
    set_bit(&mut part.node_words, tree.source.index());
    for &dst in dests {
        if dst.index() >= n {
            continue; // unrouted prefix
        }
        part.stats.probes_sent += 1;
        if tree.dist[dst.index()] == UNREACHABLE {
            continue; // probe timed out
        }
        part.stats.probes_completed += 1;
        part.stats.add_path(tree, dst);
        let mut cur = dst;
        while cur != tree.source && stamp[cur.index()] != epoch {
            stamp[cur.index()] = epoch;
            set_bit(&mut part.node_words, cur.index());
            set_bit(&mut part.edge_words, parents_e[cur.index()].index());
            cur = parents_n[cur.index()];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traceroute::strided_vantages;
    use hot_graph::graph::Graph;

    /// Square with a cheap diagonal.
    fn square_diag() -> Graph<(), f64> {
        Graph::from_edges(
            4,
            vec![
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 0, 1.0),
                (0, 2, 0.5),
            ],
        )
    }

    #[test]
    fn hop_mode_counts_probes() {
        let g: Graph<(), f64> = Graph::from_edges(4, vec![(0, 1, 1.0), (1, 2, 1.0)]);
        let csr = CsrGraph::from_graph(&g);
        let result = run_campaign(
            &csr,
            &ProbeCampaign {
                vantages: &[NodeId(0)],
                destinations: None,
                link_latency: None,
            },
            1,
        );
        // 4 probes sent (one per node), node 3 unreachable.
        assert_eq!(result.stats.probes_sent, 4);
        assert_eq!(result.stats.probes_completed, 3);
        assert_eq!(result.stats.total_hops, 3); // 0 + 1 + 2
        assert_eq!(result.stats.max_hops, 2);
        assert_eq!(result.stats.total_latency, 0.0);
        assert!((result.map.node_coverage - 0.75).abs() < 1e-12);
    }

    #[test]
    fn latency_mode_accumulates_distance() {
        let g = square_diag();
        let csr = CsrGraph::from_graph(&g);
        let latency: Vec<f64> = g.edge_ids().map(|e| *g.edge_weight(e)).collect();
        let result = run_campaign(
            &csr,
            &ProbeCampaign {
                vantages: &[NodeId(0)],
                destinations: None,
                link_latency: Some(&latency),
            },
            1,
        );
        // Distances from 0: 0, 1.0, 0.5 (diagonal), 1.0.
        assert_eq!(result.stats.probes_completed, 4);
        assert!((result.stats.total_latency - 2.5).abs() < 1e-12);
        assert!((result.stats.max_latency - 1.0).abs() < 1e-12);
        assert_eq!(result.stats.max_hops, 1);
    }

    #[test]
    fn out_of_range_ids_are_skipped() {
        let g = square_diag();
        let csr = CsrGraph::from_graph(&g);
        let result = run_campaign(
            &csr,
            &ProbeCampaign {
                vantages: &[NodeId(99), NodeId(0)],
                destinations: Some(&[NodeId(1), NodeId(77)]),
                link_latency: None,
            },
            1,
        );
        assert_eq!(result.stats.probes_sent, 1, "only the routable pair");
        assert!(result.map.node_seen[0] && result.map.node_seen[1]);
        assert_eq!(result.map.edge_seen.iter().filter(|&&s| s).count(), 1);
    }

    #[test]
    fn empty_graph_and_empty_vantages() {
        let empty: Graph<(), f64> = Graph::new();
        let csr = CsrGraph::from_graph(&empty);
        let result = run_campaign(
            &csr,
            &ProbeCampaign {
                vantages: &[],
                destinations: None,
                link_latency: None,
            },
            4,
        );
        assert_eq!(result.stats, ProbeStats::default());
        assert_eq!(result.map.node_coverage, 0.0);
        let g = square_diag();
        let csr = CsrGraph::from_graph(&g);
        let none = run_campaign(
            &csr,
            &ProbeCampaign {
                vantages: &[],
                destinations: None,
                link_latency: None,
            },
            4,
        );
        assert!(none.map.node_seen.iter().all(|&s| !s));
    }

    /// The contract of the whole module: thread count never changes a
    /// bit of the output.
    #[test]
    fn thread_count_is_invisible() {
        let g = square_diag();
        let csr = CsrGraph::from_graph(&g);
        let latency: Vec<f64> = g.edge_ids().map(|e| *g.edge_weight(e)).collect();
        let vantages = strided_vantages(&g, 3);
        for link_latency in [None, Some(&latency[..])] {
            let campaign = ProbeCampaign {
                vantages: &vantages,
                destinations: None,
                link_latency,
            };
            let serial = run_campaign(&csr, &campaign, 1);
            for threads in [2, 4, 8] {
                let parallel = run_campaign(&csr, &campaign, threads);
                assert_eq!(serial.map.node_seen, parallel.map.node_seen);
                assert_eq!(serial.map.edge_seen, parallel.map.edge_seen);
                assert_eq!(serial.stats, parallel.stats);
            }
        }
    }
}
