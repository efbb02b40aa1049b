//! The labeled AS-level topology: flat relationship adjacency plus an
//! economic class per AS.
//!
//! §2.3 of the paper treats peering as economics; this module gives that
//! economics a routable shape. An [`AsTopology`] stores the three
//! relationship adjacencies (providers, customers, peers) in compressed
//! sparse rows — one offsets array and one flat neighbor array each, no
//! per-AS `Vec` — so a 100k-AS internet is three pairs of flat arrays,
//! and the propagation kernel in [`crate::propagate`] can walk them with
//! zero allocation.
//!
//! Every AS also carries an [`AsClass`], derived from the economics that
//! built it rather than hand-curated ASN lists (the
//! `hierarchy-free-study` classification, regenerated from first
//! principles):
//!
//! - **tier-1** — sells transit and buys from no one (the clique the
//!   generator wires at the top);
//! - **tier-2** — sells transit below, buys transit above;
//! - **cloud/content** — buys transit, sells to no one, yet runs a
//!   footprint at least a quarter of the largest ISP's (≥ 2 POPs): the
//!   big content networks whose size is demand, not transit;
//! - **stub** — everyone else (edge networks that only buy).

use hot_core::peering::{Internet, Relationship};
use hot_graph::csr::CsrGraph;
use hot_graph::graph::Graph;

/// Economic class of an AS, in the style of the tier-1 / tier-2 /
/// cloud-provider / other split of `hierarchy-free-study`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AsClass {
    /// Top of the hierarchy: sells transit, buys from no one.
    Tier1,
    /// Mid-hierarchy transit: both buys and sells.
    Tier2,
    /// Content/cloud: large footprint, buys transit, sells to no one.
    Cloud,
    /// Edge network: small, only buys.
    Stub,
}

impl AsClass {
    /// All classes, in the order used by per-class tables.
    pub const ALL: [AsClass; 4] = [
        AsClass::Tier1,
        AsClass::Tier2,
        AsClass::Cloud,
        AsClass::Stub,
    ];

    /// Stable index of the class in per-class arrays.
    pub fn index(self) -> usize {
        match self {
            AsClass::Tier1 => 0,
            AsClass::Tier2 => 1,
            AsClass::Cloud => 2,
            AsClass::Stub => 3,
        }
    }

    /// The label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            AsClass::Tier1 => "tier1",
            AsClass::Tier2 => "tier2",
            AsClass::Cloud => "cloud",
            AsClass::Stub => "stub",
        }
    }
}

/// Path-membership bits, precomputed per AS so the propagation kernel
/// can accumulate "what does this path traverse" with a single OR per
/// hop. [`crate::propagate`] adds the per-source provider bit on top.
pub(crate) const BIT_PROVIDER_OF_SRC: u8 = 1;
pub(crate) const BIT_TIER1: u8 = 2;
pub(crate) const BIT_HIERARCHY: u8 = 4;

/// The AS relationship network in flat form: three CSR adjacencies
/// (providers / customers / peers), the undirected [`CsrGraph`] of all
/// relationships, and a class label per AS.
///
/// Pair-level relationships are deduplicated: however many physical
/// peering links two ASes maintain, they appear once per relationship
/// direction here (the AS graph is about business, not ports).
#[derive(Clone, Debug, PartialEq)]
pub struct AsTopology {
    n: usize,
    prov_off: Vec<u32>,
    prov_adj: Vec<u32>,
    cust_off: Vec<u32>,
    cust_adj: Vec<u32>,
    peer_off: Vec<u32>,
    peer_adj: Vec<u32>,
    /// One link per relationship, policy ignored: what the unrestricted
    /// hop distances run on.
    csr: CsrGraph,
    class: Vec<AsClass>,
    /// `BIT_TIER1 | BIT_HIERARCHY` membership per AS (provider-of-source
    /// is per-source and added by the propagation scratch).
    class_bits: Vec<u8>,
}

/// Builds one CSR adjacency from directed `(from, to)` edges.
/// Sorts + dedups, so duplicate relationships collapse in O(E log E)
/// total — not the O(degree²) a per-insert membership scan would cost.
fn csr_from_edges(n: usize, mut edges: Vec<(u32, u32)>) -> (Vec<u32>, Vec<u32>) {
    edges.sort_unstable();
    edges.dedup();
    let mut off = vec![0u32; n + 1];
    for &(a, _) in &edges {
        off[a as usize + 1] += 1;
    }
    for i in 0..n {
        off[i + 1] += off[i];
    }
    let adj = edges.into_iter().map(|(_, b)| b).collect();
    (off, adj)
}

impl AsTopology {
    fn from_parts(
        n: usize,
        providers: Vec<(u32, u32)>,
        customers: Vec<(u32, u32)>,
        peers: Vec<(u32, u32)>,
        class: Vec<AsClass>,
    ) -> AsTopology {
        debug_assert_eq!(class.len(), n);
        let (prov_off, prov_adj) = csr_from_edges(n, providers);
        let (cust_off, cust_adj) = csr_from_edges(n, customers);
        let (peer_off, peer_adj) = csr_from_edges(n, peers);
        // Each provider→customer pair once, each peer pair once; a
        // self-relation carries no hop.
        let mut links = Vec::with_capacity(cust_adj.len() + peer_adj.len() / 2);
        for a in 0..n {
            let customers = &cust_adj[cust_off[a] as usize..cust_off[a + 1] as usize];
            let peers = &peer_adj[peer_off[a] as usize..peer_off[a + 1] as usize];
            for &b in customers
                .iter()
                .chain(peers.iter().filter(|&&q| a < q as usize))
            {
                if b as usize != a {
                    links.push((a, b as usize, ()));
                }
            }
        }
        let csr = CsrGraph::from_graph(&Graph::<(), ()>::from_edges(n, links));
        let class_bits = class
            .iter()
            .map(|c| match c {
                AsClass::Tier1 => BIT_TIER1 | BIT_HIERARCHY,
                AsClass::Tier2 => BIT_HIERARCHY,
                _ => 0,
            })
            .collect();
        AsTopology {
            n,
            prov_off,
            prov_adj,
            cust_off,
            cust_adj,
            peer_off,
            peer_adj,
            csr,
            class,
            class_bits,
        }
    }

    /// Extracts the labeled AS topology from a generated [`Internet`].
    ///
    /// Relationships come straight from the peering links; classes come
    /// from the economics those links encode: no upstream → tier-1,
    /// sells transit → tier-2, and a transit-buying AS that sells to no
    /// one is **cloud/content** when its POP footprint is at least a
    /// quarter of the largest ISP's (and ≥ 2 POPs), **stub** otherwise.
    pub fn from_internet(net: &Internet) -> AsTopology {
        let n = net.isps.len();
        let mut providers = Vec::with_capacity(net.peering.len());
        let mut customers = Vec::with_capacity(net.peering.len());
        let mut peers = Vec::with_capacity(2 * net.peering.len());
        for link in &net.peering {
            let (a, b) = (link.isp_a as u32, link.isp_b as u32);
            match link.relationship {
                Relationship::PeerPeer => {
                    peers.push((a, b));
                    peers.push((b, a));
                }
                // `isp_a` provides transit to `isp_b`.
                Relationship::ProviderCustomer => {
                    customers.push((a, b));
                    providers.push((b, a));
                }
            }
        }
        // Classes from footprints + relationship roles.
        let footprints: Vec<usize> = net.isps.iter().map(|isp| isp.pop_cities.len()).collect();
        let max_footprint = footprints.iter().copied().max().unwrap_or(0);
        let cloud_min_pops = (max_footprint.div_ceil(4)).max(2);
        let mut has_provider = vec![false; n];
        let mut has_customer = vec![false; n];
        for &(c, p) in &providers {
            has_provider[c as usize] = true;
            has_customer[p as usize] = true;
        }
        let class = (0..n)
            .map(|a| {
                if !has_provider[a] {
                    AsClass::Tier1
                } else if has_customer[a] {
                    AsClass::Tier2
                } else if footprints[a] >= cloud_min_pops {
                    AsClass::Cloud
                } else {
                    AsClass::Stub
                }
            })
            .collect();
        AsTopology::from_parts(n, providers, customers, peers, class)
    }

    /// Labels a plain graph (a degree-based generator's output) with
    /// inferred relationships, Gao-style: the `tier1_count`
    /// highest-degree nodes form a peering clique (their mutual edges
    /// are peer–peer), and every other edge points provider → customer
    /// from the higher-degree endpoint (ties broken toward the lower
    /// node id; an edge touching the clique always sells downward).
    /// Classes are tier-1 (the clique), tier-2 (sells transit), stub —
    /// degree-based graphs carry no footprint, so no AS is labeled
    /// cloud. Self-loops are ignored; parallel edges collapse.
    pub fn from_graph_by_degree<N, E>(g: &Graph<N, E>, tier1_count: usize) -> AsTopology {
        let n = g.node_count();
        let degrees = g.degree_sequence();
        let mut by_degree: Vec<usize> = (0..n).collect();
        by_degree.sort_by_key(|&v| (std::cmp::Reverse(degrees[v]), v));
        let mut tier1 = vec![false; n];
        for &v in by_degree.iter().take(tier1_count.min(n)) {
            tier1[v] = true;
        }
        let mut providers = Vec::with_capacity(g.edge_count());
        let mut customers = Vec::with_capacity(g.edge_count());
        let mut peers = Vec::new();
        for (_, a, b, _) in g.edges() {
            let (a, b) = (a.index(), b.index());
            if a == b {
                continue;
            }
            if tier1[a] && tier1[b] {
                peers.push((a as u32, b as u32));
                peers.push((b as u32, a as u32));
                continue;
            }
            // Provider = the "bigger" endpoint: tier-1 beats non-tier-1,
            // then higher degree, then lower node id.
            let a_wins = match (tier1[a], tier1[b]) {
                (true, false) => true,
                (false, true) => false,
                _ => (degrees[a], b) > (degrees[b], a),
            };
            let (p, c) = if a_wins { (a, b) } else { (b, a) };
            customers.push((p as u32, c as u32));
            providers.push((c as u32, p as u32));
        }
        let mut has_customer = vec![false; n];
        for &(p, _) in &customers {
            has_customer[p as usize] = true;
        }
        let class = (0..n)
            .map(|a| {
                if tier1[a] {
                    AsClass::Tier1
                } else if has_customer[a] {
                    AsClass::Tier2
                } else {
                    AsClass::Stub
                }
            })
            .collect();
        AsTopology::from_parts(n, providers, customers, peers, class)
    }

    /// A topology from explicit relationship lists (tests, synthetic
    /// cases). `provider_customer` holds `(provider, customer)` pairs,
    /// `peer_pairs` unordered peer pairs; both may contain duplicates.
    pub fn from_relationships(
        n: usize,
        provider_customer: &[(u32, u32)],
        peer_pairs: &[(u32, u32)],
        class: Vec<AsClass>,
    ) -> AsTopology {
        let providers = provider_customer.iter().map(|&(p, c)| (c, p)).collect();
        let customers = provider_customer.to_vec();
        let peers = peer_pairs
            .iter()
            .flat_map(|&(a, b)| [(a, b), (b, a)])
            .collect();
        AsTopology::from_parts(n, providers, customers, peers, class)
    }

    /// Number of ASes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the topology has no ASes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The ASes selling transit to `a`.
    pub fn providers(&self, a: usize) -> &[u32] {
        &self.prov_adj[self.prov_off[a] as usize..self.prov_off[a + 1] as usize]
    }

    /// The ASes buying transit from `a`.
    pub fn customers(&self, a: usize) -> &[u32] {
        &self.cust_adj[self.cust_off[a] as usize..self.cust_off[a + 1] as usize]
    }

    /// The settlement-free peers of `a`.
    pub fn peers(&self, a: usize) -> &[u32] {
        &self.peer_adj[self.peer_off[a] as usize..self.peer_off[a + 1] as usize]
    }

    /// The undirected relationship graph (one link per relationship,
    /// policy ignored), on which the unrestricted hop distances run
    /// ([`CsrGraph::bfs_distances_into`]).
    pub fn csr(&self) -> &CsrGraph {
        &self.csr
    }

    /// Class of AS `a`.
    pub fn class(&self, a: usize) -> AsClass {
        self.class[a]
    }

    /// `BIT_TIER1 | BIT_HIERARCHY` membership bits of AS `a`.
    pub(crate) fn class_bits(&self, a: usize) -> u8 {
        self.class_bits[a]
    }

    /// Number of ASes per class, indexed by [`AsClass::index`].
    pub fn class_counts(&self) -> [usize; 4] {
        let mut counts = [0usize; 4];
        for c in &self.class {
            counts[c.index()] += 1;
        }
        counts
    }

    /// Distinct provider→customer relationships.
    pub fn p2c_count(&self) -> usize {
        self.cust_adj.len()
    }

    /// Distinct peer–peer relationships (unordered pairs).
    pub fn p2p_count(&self) -> usize {
        self.peer_adj.len() / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_graph::graph::Graph;

    /// 0,1 tier-1 peers; 0→2, 1→3, 2→4 transit (provider, customer).
    pub(crate) fn toy() -> AsTopology {
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
    fn toy_adjacency_and_counts() {
        let t = toy();
        assert_eq!(t.len(), 5);
        assert_eq!(t.providers(4), &[2]);
        assert_eq!(t.customers(0), &[2]);
        assert_eq!(t.peers(0), &[1]);
        assert_eq!(t.peers(1), &[0]);
        assert_eq!(t.p2c_count(), 3);
        assert_eq!(t.p2p_count(), 1);
        assert_eq!(t.class_counts(), [2, 1, 0, 2]);
        assert_eq!(t.class_bits(0), BIT_TIER1 | BIT_HIERARCHY);
        assert_eq!(t.class_bits(2), BIT_HIERARCHY);
        assert_eq!(t.class_bits(4), 0);
        // Three transit links and one peering, each once.
        assert_eq!((t.csr().node_count(), t.csr().edge_count()), (5, 4));
    }

    #[test]
    fn duplicate_relationships_collapse() {
        let t = AsTopology::from_relationships(
            3,
            &[(0, 1), (0, 1), (0, 2)],
            &[(1, 2), (2, 1), (1, 2)],
            vec![AsClass::Tier1, AsClass::Stub, AsClass::Stub],
        );
        assert_eq!(t.customers(0), &[1, 2]);
        assert_eq!(t.providers(1), &[0]);
        assert_eq!(t.peers(1), &[2]);
        assert_eq!(t.peers(2), &[1]);
        assert_eq!(t.p2c_count(), 2);
        assert_eq!(t.p2p_count(), 1);
        assert_eq!(t.csr().edge_count(), 3);
    }

    #[test]
    fn degree_labeling_orients_edges_downhill() {
        // Star with center 0 (degree 3) plus an edge between leaves 1-2.
        let g: Graph<(), ()> =
            Graph::from_edges(4, vec![(0, 1, ()), (0, 2, ()), (0, 3, ()), (1, 2, ())]);
        let t = AsTopology::from_graph_by_degree(&g, 1);
        assert_eq!(t.class(0), AsClass::Tier1);
        // Center provides everyone it touches.
        assert_eq!(t.customers(0), &[1, 2, 3]);
        // 1 and 2 both have degree 2: the lower id wins the tie.
        assert_eq!(t.customers(1), &[2]);
        assert_eq!(t.class(1), AsClass::Tier2);
        assert_eq!(t.class(3), AsClass::Stub);
        assert_eq!(t.p2p_count(), 0);
        // Two tier-1s: their mutual edge becomes a peering.
        let t2 = AsTopology::from_graph_by_degree(&g, 2);
        assert_eq!(t2.p2p_count(), 1);
        assert_eq!(t2.peers(0), &[1]);
    }

    #[test]
    fn empty_topology() {
        let t = AsTopology::from_relationships(0, &[], &[], vec![]);
        assert!(t.is_empty());
        assert_eq!(t.class_counts(), [0; 4]);
        let g: Graph<(), ()> = Graph::new();
        let t = AsTopology::from_graph_by_degree(&g, 3);
        assert!(t.is_empty());
    }
}
