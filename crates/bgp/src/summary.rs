//! Batched policy analytics: one valley-free propagation per source AS,
//! fanned over the deterministic chunk scheduler, reduced into
//! all-integer counters.
//!
//! Everything a [`PolicySummary`] stores is an exact integer — pair
//! counts, hop sums, histograms, per-shortest-length totals and maxima —
//! so per-chunk partials merge with `+` (and `max`) and the result is
//! bit-identical at any thread count *and* across debug/release builds;
//! the floating-point views (means, ratios, CCDFs, shares) are derived at
//! read time from those integers in a fixed order, and therefore equally
//! stable.

use crate::propagate::{PropagationScratch, RouteTable, UNREACHED};
use crate::topology::{AsClass, AsTopology};
use hot_graph::csr::BfsScratch;
use hot_graph::graph::NodeId;
use hot_graph::parallel::run_chunks;

/// Path counts attributed to sources of one [`AsClass`], in the style of
/// `hierarchy-free-study`: of the policy-reachable paths leaving this
/// class, how many avoid the source's direct providers, all tier-1 ASes,
/// or the whole transit hierarchy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassPathCounts {
    /// Sources of this class that were propagated.
    pub sources: u64,
    /// Policy-reachable (source, destination) pairs from this class.
    pub paths: u64,
    /// Paths avoiding every direct provider of their source.
    pub provider_free: u64,
    /// Paths avoiding every tier-1 AS.
    pub tier1_free: u64,
    /// Paths avoiding tier-1 and tier-2 ASes entirely.
    pub hierarchy_free: u64,
}

impl ClassPathCounts {
    fn merge(&mut self, other: &ClassPathCounts) {
        self.sources += other.sources;
        self.paths += other.paths;
        self.provider_free += other.provider_free;
        self.tier1_free += other.tier1_free;
        self.hierarchy_free += other.hierarchy_free;
    }

    /// Fraction of this class's paths that avoid the source's providers.
    pub fn provider_free_share(&self) -> f64 {
        share(self.provider_free, self.paths)
    }

    /// Fraction of this class's paths that avoid every tier-1.
    pub fn tier1_free_share(&self) -> f64 {
        share(self.tier1_free, self.paths)
    }

    /// Fraction of this class's paths that avoid the hierarchy.
    pub fn hierarchy_free_share(&self) -> f64 {
        share(self.hierarchy_free, self.paths)
    }
}

fn share(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Exact integer summary of a batched valley-free sweep. Merging two
/// summaries is pure integer addition, which is what makes the parallel
/// reduction (and the golden snapshots downstream) deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PolicySummary {
    /// ASes in the topology.
    pub ases: u64,
    /// Sources propagated.
    pub sources: u64,
    /// Ordered (source, destination ≠ source) pairs examined.
    pub pairs: u64,
    /// Pairs connected by the unrestricted BFS.
    pub bfs_reachable: u64,
    /// Pairs connected by a valley-free path.
    pub policy_reachable: u64,
    /// Total valley-free hops over policy-reachable pairs.
    pub sum_policy_hops: u64,
    /// Total unrestricted shortest hops over the same pairs.
    pub sum_shortest_hops: u64,
    /// Histogram of policy inflation `vf − sp` (hops) over
    /// policy-reachable pairs; index 0 counts uninflated pairs.
    pub inflation_hist: Vec<u64>,
    /// Histogram of valley-free path lengths (hops).
    pub vf_hist: Vec<u64>,
    /// Indexed by unrestricted shortest length `s` (hops): the total and
    /// the longest valley-free hops over the policy-reachable pairs at
    /// that length. Slot 0 stays `(0, 0)`: only a source is 0 hops from
    /// itself.
    pub by_shortest: Vec<(u64, u32)>,
    /// Per-source-class path counts, indexed by [`AsClass::index`].
    pub by_class: [ClassPathCounts; 4],
}

fn merge_hist(into: &mut Vec<u64>, from: &[u64]) {
    if into.len() < from.len() {
        into.resize(from.len(), 0);
    }
    for (i, &v) in from.iter().enumerate() {
        into[i] += v;
    }
}

fn bump(hist: &mut Vec<u64>, value: usize) {
    if hist.len() <= value {
        hist.resize(value + 1, 0);
    }
    hist[value] += 1;
}

impl PolicySummary {
    fn merge(&mut self, other: &PolicySummary) {
        self.sources += other.sources;
        self.pairs += other.pairs;
        self.bfs_reachable += other.bfs_reachable;
        self.policy_reachable += other.policy_reachable;
        self.sum_policy_hops += other.sum_policy_hops;
        self.sum_shortest_hops += other.sum_shortest_hops;
        merge_hist(&mut self.inflation_hist, &other.inflation_hist);
        merge_hist(&mut self.vf_hist, &other.vf_hist);
        if self.by_shortest.len() < other.by_shortest.len() {
            self.by_shortest.resize(other.by_shortest.len(), (0, 0));
        }
        for (mine, &(total, longest)) in self.by_shortest.iter_mut().zip(&other.by_shortest) {
            mine.0 += total;
            mine.1 = mine.1.max(longest);
        }
        for (mine, theirs) in self.by_class.iter_mut().zip(&other.by_class) {
            mine.merge(theirs);
        }
    }

    /// Accumulates one source's route table (plus the matching
    /// unrestricted distances) into the counters.
    fn absorb(&mut self, src: usize, class: AsClass, table: &RouteTable, sp: &[u32]) {
        self.sources += 1;
        self.by_class[class.index()].sources += 1;
        for (d, (&vf, &sp)) in table.dist.iter().zip(sp).enumerate() {
            if d == src {
                continue;
            }
            self.pairs += 1;
            if sp != UNREACHED {
                self.bfs_reachable += 1;
            }
            if vf == UNREACHED {
                continue;
            }
            debug_assert!(sp != UNREACHED && sp <= vf);
            self.policy_reachable += 1;
            self.sum_policy_hops += vf as u64;
            self.sum_shortest_hops += sp as u64;
            bump(&mut self.inflation_hist, (vf - sp) as usize);
            bump(&mut self.vf_hist, vf as usize);
            if self.by_shortest.len() <= sp as usize {
                self.by_shortest.resize(sp as usize + 1, (0, 0));
            }
            let slot = &mut self.by_shortest[sp as usize];
            slot.0 += vf as u64;
            slot.1 = slot.1.max(vf);
            let c = &mut self.by_class[class.index()];
            c.paths += 1;
            if table.provider_free(d) {
                c.provider_free += 1;
            }
            if table.tier1_free(d) {
                c.tier1_free += 1;
            }
            if table.hierarchy_free(d) {
                c.hierarchy_free += 1;
            }
        }
    }

    /// Fraction of BFS-connected pairs that policy still connects.
    pub fn policy_reachability(&self) -> f64 {
        share(self.policy_reachable, self.bfs_reachable)
    }

    /// Mean valley-free hops over policy-reachable pairs.
    pub fn mean_policy_hops(&self) -> f64 {
        share(self.sum_policy_hops, self.policy_reachable)
    }

    /// Mean unrestricted shortest hops over the same pairs.
    pub fn mean_shortest_hops(&self) -> f64 {
        share(self.sum_shortest_hops, self.policy_reachable)
    }

    /// Mean policy inflation (extra hops vs the unrestricted shortest
    /// path) over policy-reachable pairs.
    pub fn mean_inflation_hops(&self) -> f64 {
        share(
            self.sum_policy_hops - self.sum_shortest_hops,
            self.policy_reachable,
        )
    }

    /// Fraction of policy-reachable pairs whose valley-free path is
    /// strictly longer than the unrestricted shortest path.
    pub fn inflated_fraction(&self) -> f64 {
        let inflated: u64 = self.inflation_hist.iter().skip(1).sum();
        share(inflated, self.policy_reachable)
    }

    /// Mean of `valley-free / shortest` hops over policy-reachable pairs,
    /// read from the per-length slots as
    /// `(Σₛ totalₛ / s) / policy_reachable`, lengths ascending; 1 when no
    /// pair is policy-reachable.
    pub fn mean_inflation_ratio(&self) -> f64 {
        if self.policy_reachable == 0 {
            return 1.0;
        }
        let sum: f64 = self
            .by_shortest
            .iter()
            .enumerate()
            .skip(1)
            .map(|(s, &(total, _))| total as f64 / s as f64)
            .sum();
        sum / self.policy_reachable as f64
    }

    /// Largest `valley-free / shortest` hop ratio over policy-reachable
    /// pairs, `maxₛ longestₛ / s`; 1 when no pair is policy-reachable.
    /// Division by a fixed `s` is monotone, so this is exactly the
    /// largest per-pair ratio.
    pub fn max_inflation_ratio(&self) -> f64 {
        self.by_shortest
            .iter()
            .enumerate()
            .skip(1)
            .map(|(s, &(_, longest))| longest as f64 / s as f64)
            .fold(1.0, f64::max)
    }

    /// Largest observed inflation, in hops.
    pub fn max_inflation_hops(&self) -> u32 {
        (self.inflation_hist.len().saturating_sub(1)) as u32
    }

    /// Inflation CCDF: for each `k` in `0..=max`, the fraction of
    /// policy-reachable pairs inflated by **at least** `k` hops
    /// (`k = 0` is 1 by construction when any pair is reachable).
    pub fn inflation_ccdf(&self) -> Vec<(u32, f64)> {
        let total: u64 = self.inflation_hist.iter().sum();
        let mut at_least = total;
        self.inflation_hist
            .iter()
            .enumerate()
            .map(|(k, &count)| {
                let point = (k as u32, share(at_least, total));
                at_least -= count;
                point
            })
            .collect()
    }

    /// The per-class counters for `class`.
    pub fn class(&self, class: AsClass) -> &ClassPathCounts {
        &self.by_class[class.index()]
    }
}

/// Runs one valley-free propagation per AS in `sources` on `threads`
/// workers and reduces the route tables into a [`PolicySummary`].
///
/// Sources are split into the scheduler's fixed 64 chunks; each chunk's
/// partial is a pure integer function of its sources, and partials merge
/// in chunk order — so the summary is bit-identical at every thread
/// count. Out-of-range sources count toward `sources`/`pairs` but reach
/// nothing, matching the propagation's hardening.
pub fn policy_summary(topo: &AsTopology, sources: &[u32], threads: usize) -> PolicySummary {
    let n = topo.len();
    let parts = run_chunks(
        sources.len(),
        threads,
        || {
            (
                PropagationScratch::for_topology(topo),
                RouteTable::sized(n),
                BfsScratch::sized(n),
            )
        },
        |(scratch, table, bfs), range| {
            let mut part = PolicySummary::default();
            for &src in &sources[range] {
                let src = src as usize;
                topo.propagate_into(src, scratch, table);
                if src < n {
                    topo.csr().bfs_distances_into(NodeId(src as u32), bfs);
                    part.absorb(src, topo.class(src), table, bfs.dist());
                } else {
                    // An out-of-range source reaches nothing, under policy
                    // or not: its all-unreached table is its distances too.
                    part.absorb(src, AsClass::Stub, table, &table.dist);
                }
            }
            part
        },
    );
    let mut total = PolicySummary {
        ases: n as u64,
        ..PolicySummary::default()
    };
    for (_, part) in &parts {
        total.merge(part);
    }
    total
}

/// [`policy_summary`] over every AS as a source.
pub fn policy_summary_all(topo: &AsTopology, threads: usize) -> PolicySummary {
    let sources: Vec<u32> = (0..topo.len() as u32).collect();
    policy_summary(topo, &sources, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::AsClass;

    fn toy() -> AsTopology {
        AsTopology::from_relationships(
            5,
            &[(0, 2), (1, 3), (2, 4)],
            &[(0, 1)],
            vec![
                AsClass::Tier1,
                AsClass::Tier1,
                AsClass::Tier2,
                AsClass::Stub,
                AsClass::Stub,
            ],
        )
    }

    #[test]
    fn toy_summary_counts_by_hand() {
        let s = policy_summary_all(&toy(), 1);
        assert_eq!(s.ases, 5);
        assert_eq!(s.sources, 5);
        assert_eq!(s.pairs, 20);
        // The toy internet is connected and fully valley-free routable.
        assert_eq!(s.bfs_reachable, 20);
        assert_eq!(s.policy_reachable, 20);
        // All pairs here are uninflated except 3<->4 (vf 4 vs sp 4? no:
        // 4→2→0→1→3 is also the shortest route — check via totals).
        assert_eq!(s.sum_policy_hops, s.sum_shortest_hops);
        assert_eq!(s.inflated_fraction(), 0.0);
        assert_eq!(s.max_inflation_hops(), 0);
        assert_eq!(s.mean_inflation_ratio(), 1.0);
        assert_eq!(s.max_inflation_ratio(), 1.0);
        // Tier-1 sources: 0 and 1, four destinations each.
        let t1 = s.class(AsClass::Tier1);
        assert_eq!(t1.sources, 2);
        assert_eq!(t1.paths, 8);
        // Tier-1s never climb, so never cross their (nonexistent)
        // providers.
        assert_eq!(t1.provider_free, 8);
        // CCDF starts at 1 and is monotone.
        let ccdf = s.inflation_ccdf();
        assert_eq!(ccdf[0], (0, 1.0));
    }

    #[test]
    fn inflation_shows_up_when_policy_detours() {
        // Square: tier1s 0,1 peer; 0→2, 1→3 transit; 2-3 peer. The
        // direct 2-3 peer route (1 hop) is valley-free; removing it
        // (separate topology) forces 2→0→1→3 (3 hops) while BFS would
        // still take... also 3. Instead: make 2 and 3 peers of a stub 4:
        // simplest inflated case is a peer chain bridged by transit.
        // 0,1 tier1 peers; 0→2, 1→3; 2-4 peer, 3-4 peer (4 stub).
        // From 2 to 3: BFS shortest is 2-4-3 (2 hops) but that crosses
        // two peer links — policy must go 2→0→1→3 (3 hops). Inflation 1.
        let t = AsTopology::from_relationships(
            5,
            &[(0, 2), (1, 3)],
            &[(0, 1), (2, 4), (3, 4)],
            vec![
                AsClass::Tier1,
                AsClass::Tier1,
                AsClass::Tier2,
                AsClass::Tier2,
                AsClass::Stub,
            ],
        );
        let from2 = t.propagate(2);
        assert_eq!(from2.dist[3], 3);
        assert_eq!(t.shortest(2)[3], 2);
        let s = policy_summary_all(&t, 1);
        assert!(s.inflated_fraction() > 0.0);
        assert_eq!(s.max_inflation_hops(), 1);
        assert!(s.mean_inflation_hops() > 0.0);
        assert!(s.mean_policy_hops() > s.mean_shortest_hops());
        // The graph is the 5-cycle 0-1-3-4-2. Policy reaches 16 of the 20
        // pairs: 10 at 1 hop, and 6 at a shortest 2 hops, of which 2→3
        // and 3→2 take 3.
        assert_eq!(s.policy_reachable, 16);
        assert_eq!(s.by_shortest, vec![(0, 0), (10, 1), (14, 3)]);
        assert_eq!(s.mean_inflation_ratio(), 17.0 / 16.0);
        assert_eq!(s.max_inflation_ratio(), 1.5);
        // CCDF: some pairs inflated by >= 1 hop.
        let ccdf = s.inflation_ccdf();
        assert_eq!(ccdf.len(), 2);
        assert!(ccdf[1].1 > 0.0 && ccdf[1].1 < 1.0);
    }

    #[test]
    fn policy_can_disconnect_what_bfs_connects() {
        // Peer chain 0-1-2: BFS connects everything, policy cannot cross
        // two peer links.
        let t = AsTopology::from_relationships(3, &[], &[(0, 1), (1, 2)], vec![AsClass::Tier1; 3]);
        let s = policy_summary_all(&t, 1);
        assert_eq!(s.bfs_reachable, 6);
        assert_eq!(s.policy_reachable, 4);
        assert!(s.policy_reachability() < 1.0);
    }

    #[test]
    fn summary_is_identical_at_every_thread_count() {
        let t = toy();
        let serial = policy_summary_all(&t, 1);
        for threads in [2, 4, 8] {
            assert_eq!(policy_summary_all(&t, threads), serial);
        }
        // Subset of sources, including an out-of-range one (hardening).
        let sources = [4u32, 0, 99];
        let one = policy_summary(&t, &sources, 1);
        assert_eq!(policy_summary(&t, &sources, 8), one);
        assert_eq!(one.sources, 3);
        assert_eq!(one.pairs, 4 + 4 + 5);
        assert_eq!(one.policy_reachable, 8);
    }

    #[test]
    fn empty_inputs_are_harmless() {
        let t = toy();
        let s = policy_summary(&t, &[], 4);
        assert_eq!(s.sources, 0);
        assert_eq!(s.policy_reachability(), 0.0);
        assert!(s.inflation_ccdf().is_empty());
        assert_eq!(s.mean_inflation_ratio(), 1.0);
        assert_eq!(s.max_inflation_ratio(), 1.0);
        let empty = AsTopology::from_relationships(0, &[], &[], vec![]);
        let s = policy_summary_all(&empty, 4);
        assert_eq!(s.pairs, 0);
        assert_eq!(s.mean_inflation_ratio(), 1.0);
        assert_eq!(s.max_inflation_ratio(), 1.0);
    }
}
