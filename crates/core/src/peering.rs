//! Multi-ISP assembly: peering and the AS graph (§2.3, §3.2).
//!
//! "At an appropriate level of abstraction, the Internet as a whole is
//! simply a conglomeration of interconnected ISPs." This module generates
//! that conglomeration: a population of ISPs of Zipf-distributed size over
//! a *shared* geography (so the big cities are where footprints overlap,
//! matching "most national or global ISPs peer for interconnection in the
//! big cities", §2.1), connected by two peering mechanisms:
//!
//! - **tier-1 clique**: the largest ISPs peer with each other at their
//!   shared top cities (settlement-free peering);
//! - **transit**: every other ISP buys transit from `transit_per_isp`
//!   providers, chosen preferentially by provider footprint size — the
//!   economics of transit make large providers disproportionately
//!   attractive.
//!
//! The paper's §3.2 point — router-level and AS-level graphs arise from
//! *different mechanisms* — falls out directly: router degrees are bounded
//! by line cards (technology), while AS degrees are unbounded business
//! relationships; experiment E8 measures both distributions on the same
//! generated Internet.

use crate::isp::generator::{generate, IspConfig};
use crate::isp::{IspTopology, Link, LinkKind, Router};
use hot_geo::gravity::TrafficMatrix;
use hot_geo::population::Census;
use hot_graph::graph::{Graph, NodeId};
use rand::Rng;

/// Configuration of the Internet assembly.
#[derive(Clone, Debug)]
pub struct InternetConfig {
    /// Number of ISPs.
    pub n_isps: usize,
    /// POP count of the largest ISP.
    pub max_pops: usize,
    /// Zipf exponent of ISP footprint sizes (ISP k has
    /// `max_pops / (k+1)^s` POPs, floored at 1).
    pub size_exponent: f64,
    /// Number of largest ISPs forming the tier-1 clique.
    pub tier1_count: usize,
    /// Transit providers per non-tier-1 ISP.
    pub transit_per_isp: usize,
    /// Template ISP configuration (`n_pops` and `total_customers` are
    /// overridden per ISP by footprint size).
    pub isp_template: IspConfig,
    /// Customers per POP, used to scale each ISP's customer count.
    pub customers_per_pop: usize,
}

impl Default for InternetConfig {
    fn default() -> Self {
        InternetConfig {
            n_isps: 20,
            max_pops: 10,
            size_exponent: 0.8,
            tier1_count: 3,
            transit_per_isp: 2,
            isp_template: IspConfig {
                total_customers: 0,
                ..IspConfig::default()
            },
            customers_per_pop: 30,
        }
    }
}

/// The business relationship realized by a peering link (Gao's
/// classification: the economics behind the AS graph's edges).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Relationship {
    /// Settlement-free peer-to-peer (tier-1 clique links).
    PeerPeer,
    /// `isp_a` sells transit to `isp_b` (provider → customer).
    ProviderCustomer,
}

/// One inter-ISP link.
#[derive(Clone, Copy, Debug)]
pub struct PeeringLink {
    /// Index of the first ISP and its gateway router.
    pub isp_a: usize,
    pub router_a: NodeId,
    /// Index of the second ISP and its gateway router.
    pub isp_b: usize,
    pub router_b: NodeId,
    /// Census city where the interconnection happens.
    pub city: usize,
    /// Business relationship (`isp_a` is the provider when
    /// `ProviderCustomer`).
    pub relationship: Relationship,
}

/// A generated multi-ISP Internet.
#[derive(Debug)]
pub struct Internet {
    /// The member ISPs, largest first.
    pub isps: Vec<IspTopology>,
    /// All inter-ISP links.
    pub peering: Vec<PeeringLink>,
    /// Router degree cap inherited from the ISP template (0 = unlimited),
    /// re-enforced on the combined router graph because peering links are
    /// added after per-ISP generation.
    pub router_degree_cap: usize,
}

impl Internet {
    /// The AS graph: one node per ISP, one edge per interconnected pair
    /// (edge weight = number of distinct peering links between the pair).
    pub fn as_graph(&self) -> Graph<(), usize> {
        let mut g: Graph<(), usize> = Graph::with_capacity(self.isps.len(), self.peering.len());
        for _ in 0..self.isps.len() {
            g.add_node(());
        }
        for p in &self.peering {
            let a = NodeId(p.isp_a as u32);
            let b = NodeId(p.isp_b as u32);
            if let Some(e) = g.find_edge(a, b) {
                *g.edge_weight_mut(e) += 1;
            } else {
                g.add_edge(a, b, 1);
            }
        }
        g
    }

    /// The union router-level graph: every ISP's routers (node ids offset
    /// per ISP) plus the peering links, with the router degree cap
    /// re-enforced (peering demand at big-city POPs is handled the way
    /// real exchanges handle it: more co-located chassis).
    pub fn combined_router_graph(&self) -> Graph<Router, Link> {
        let g = self.combined_router_graph_uncapped();
        if self.router_degree_cap == 0 {
            g
        } else {
            crate::isp::generator::enforce_degree_cap(&g, self.router_degree_cap)
        }
    }

    /// The union router-level graph without re-enforcing the degree cap —
    /// exposes how much peering load concentrates on big-city POPs before
    /// the technology constraint is applied.
    pub fn combined_router_graph_uncapped(&self) -> Graph<Router, Link> {
        let mut g: Graph<Router, Link> = Graph::new();
        let mut offsets = Vec::with_capacity(self.isps.len());
        for isp in &self.isps {
            let off = g.node_count() as u32;
            offsets.push(off);
            for v in isp.graph.node_ids() {
                g.add_node(*isp.graph.node_weight(v));
            }
            for (_, a, b, l) in isp.graph.edges() {
                g.add_edge(NodeId(a.0 + off), NodeId(b.0 + off), *l);
            }
        }
        for p in &self.peering {
            let a = NodeId(p.router_a.0 + offsets[p.isp_a]);
            let b = NodeId(p.router_b.0 + offsets[p.isp_b]);
            let ra = *g.node_weight(a);
            let rb = *g.node_weight(b);
            g.add_edge(
                a,
                b,
                Link {
                    kind: LinkKind::Peering,
                    length: ra.location.dist(&rb.location),
                    flow: 0.0,
                    capacity: f64::INFINITY,
                    cable: "peering",
                },
            );
        }
        g
    }

    /// AS degree of each ISP (number of distinct AS neighbors).
    pub fn as_degrees(&self) -> Vec<u32> {
        self.as_graph().degree_sequence()
    }
}

/// Generates an Internet: ISPs over a shared census plus peering links.
///
/// # Panics
///
/// Panics if the census has fewer cities than `config.max_pops`, or if
/// `config.n_isps == 0`.
pub fn generate_internet(
    census: &Census,
    traffic: &TrafficMatrix,
    config: &InternetConfig,
    rng: &mut impl Rng,
) -> Internet {
    assert!(config.n_isps > 0, "need at least one ISP");
    assert!(config.max_pops >= 1, "largest ISP needs a POP");
    // ISP footprint sizes: Zipf in rank.
    let sizes: Vec<usize> = (0..config.n_isps)
        .map(|k| {
            let s = config.max_pops as f64 / ((k + 1) as f64).powf(config.size_exponent);
            (s.round() as usize).clamp(1, config.max_pops)
        })
        .collect();
    let isps: Vec<IspTopology> = sizes
        .iter()
        .map(|&n_pops| {
            let isp_config = IspConfig {
                n_pops,
                total_customers: config.customers_per_pop * n_pops,
                ..config.isp_template.clone()
            };
            generate(census, traffic, &isp_config, rng)
        })
        .collect();
    let mut peering = Vec::new();
    // Per-(ISP, city) interconnection usage, used to spread peering across
    // an ISP's POPs instead of piling everything onto the rank-1 city.
    let mut usage: std::collections::HashMap<(usize, usize), usize> =
        std::collections::HashMap::new();
    let tier1 = config.tier1_count.min(config.n_isps);
    // Tier-1 clique.
    for a in 0..tier1 {
        for b in a + 1..tier1 {
            connect_pair(
                &isps,
                a,
                b,
                Relationship::PeerPeer,
                &mut usage,
                &mut peering,
            );
        }
    }
    // Transit: each non-tier-1 ISP picks providers among strictly larger
    // (earlier-ranked) ISPs, preferentially by footprint size.
    for k in tier1..config.n_isps {
        let mut chosen: Vec<usize> = Vec::new();
        let candidates: Vec<usize> = (0..k).collect();
        if candidates.is_empty() {
            continue;
        }
        let want = config.transit_per_isp.min(candidates.len());
        while chosen.len() < want {
            let total: f64 = candidates
                .iter()
                .filter(|c| !chosen.contains(c))
                .map(|&c| sizes[c] as f64)
                .sum();
            let mut pick = rng.random_range(0.0..total);
            let mut selected = None;
            for &c in &candidates {
                if chosen.contains(&c) {
                    continue;
                }
                pick -= sizes[c] as f64;
                if pick <= 0.0 {
                    selected = Some(c);
                    break;
                }
            }
            let provider = selected.unwrap_or_else(|| {
                *candidates
                    .iter()
                    .find(|c| !chosen.contains(c))
                    .expect("candidate exists")
            });
            chosen.push(provider);
        }
        for provider in chosen {
            connect_pair(
                &isps,
                provider,
                k,
                Relationship::ProviderCustomer,
                &mut usage,
                &mut peering,
            );
        }
    }
    Internet {
        isps,
        peering,
        router_degree_cap: config.isp_template.max_router_degree,
    }
}

/// Maximum shared cities at which one ISP pair interconnects.
const PEER_CITIES: usize = 2;

/// Adds peering links between two ISPs at up to [`PEER_CITIES`] shared POP
/// cities. Among the shared cities, the least-used interconnection points
/// are preferred (ties broken toward the bigger city), modeling how ISPs
/// spread peering across their exchange presences as ports fill up.
/// Footprints always overlap because every footprint includes the rank-1
/// city.
fn connect_pair(
    isps: &[IspTopology],
    a: usize,
    b: usize,
    relationship: Relationship,
    usage: &mut std::collections::HashMap<(usize, usize), usize>,
    out: &mut Vec<PeeringLink>,
) {
    let mut shared: Vec<(usize, NodeId, NodeId)> = Vec::new();
    for (ia, &city_a) in isps[a].pop_cities.iter().enumerate() {
        if let Some(ib) = isps[b].pop_cities.iter().position(|&c| c == city_a) {
            shared.push((city_a, isps[a].pop_routers[ia], isps[b].pop_routers[ib]));
        }
    }
    shared.sort_by_key(|&(city, _, _)| {
        let load = usage.get(&(a, city)).copied().unwrap_or(0)
            + usage.get(&(b, city)).copied().unwrap_or(0);
        (load, city)
    });
    for &(city, ra, rb) in shared.iter().take(PEER_CITIES) {
        *usage.entry((a, city)).or_insert(0) += 1;
        *usage.entry((b, city)).or_insert(0) += 1;
        out.push(PeeringLink {
            isp_a: a,
            router_a: ra,
            isp_b: b,
            router_b: rb,
            city,
            relationship,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_graph::traversal::is_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64) -> (Census, TrafficMatrix) {
        let census = Census::synthesize(15, &mut StdRng::seed_from_u64(seed));
        let traffic = TrafficMatrix::gravity(&census);
        (census, traffic)
    }

    fn small_internet(seed: u64) -> Internet {
        let (census, traffic) = setup(seed);
        let config = InternetConfig {
            n_isps: 8,
            max_pops: 6,
            tier1_count: 2,
            transit_per_isp: 2,
            customers_per_pop: 10,
            ..InternetConfig::default()
        };
        generate_internet(
            &census,
            &traffic,
            &config,
            &mut StdRng::seed_from_u64(seed + 1),
        )
    }

    #[test]
    fn as_graph_connected_and_sized() {
        let net = small_internet(1);
        assert_eq!(net.isps.len(), 8);
        let asg = net.as_graph();
        assert_eq!(asg.node_count(), 8);
        assert!(
            is_connected(&asg),
            "every ISP buys transit, so the AS graph is connected"
        );
    }

    #[test]
    fn isp_sizes_decay() {
        let net = small_internet(2);
        let sizes: Vec<usize> = net.isps.iter().map(|i| i.pop_cities.len()).collect();
        for w in sizes.windows(2) {
            assert!(
                w[0] >= w[1],
                "ISP sizes must be non-increasing: {:?}",
                sizes
            );
        }
        assert_eq!(sizes[0], 6);
    }

    #[test]
    fn providers_have_higher_as_degree() {
        let net = small_internet(3);
        let deg = net.as_degrees();
        let tier1_max = deg[..2].iter().copied().max().unwrap();
        let fringe_min = deg[6..].iter().copied().min().unwrap();
        assert!(
            tier1_max > fringe_min,
            "tier-1 AS degree {:?} should exceed fringe {:?}",
            &deg[..2],
            &deg[6..]
        );
    }

    #[test]
    fn combined_router_graph_connected() {
        let net = small_internet(4);
        let g = net.combined_router_graph_uncapped();
        assert!(is_connected(&g));
        let total_nodes: usize = net.isps.iter().map(|i| i.graph.node_count()).sum();
        assert_eq!(g.node_count(), total_nodes);
        // Peering links present and labeled.
        let peering_edges = g
            .edges()
            .filter(|(_, _, _, l)| l.kind == LinkKind::Peering)
            .count();
        assert_eq!(peering_edges, net.peering.len());
        assert!(peering_edges > 0);
    }

    #[test]
    fn combined_router_graph_respects_degree_cap() {
        let net = small_internet(9);
        assert!(net.router_degree_cap > 0);
        let g = net.combined_router_graph();
        assert!(is_connected(&g));
        for v in g.node_ids() {
            assert!(
                g.degree(v) <= net.router_degree_cap,
                "router {:?} has degree {} over cap {}",
                v,
                g.degree(v),
                net.router_degree_cap
            );
        }
        // Peering links survive the re-capping.
        let peering_edges = g
            .edges()
            .filter(|(_, _, _, l)| l.kind == LinkKind::Peering)
            .count();
        assert_eq!(peering_edges, net.peering.len());
    }

    #[test]
    fn peering_spreads_across_cities() {
        let net = small_internet(10);
        // With usage-aware selection, the tier-1 providers' peering links
        // must not all land on one city.
        let cities: std::collections::HashSet<usize> = net.peering.iter().map(|p| p.city).collect();
        assert!(cities.len() >= 2, "all peering collapsed onto {:?}", cities);
    }

    #[test]
    fn peering_happens_in_big_cities() {
        let net = small_internet(5);
        // Every ISP has a POP in the rank-1 city (index 0), so the most
        // common peering city must be a top-ranked one.
        let min_city = net.peering.iter().map(|p| p.city).min().unwrap();
        assert_eq!(min_city, 0, "expected peering at the largest city");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small_internet(6);
        let b = small_internet(6);
        assert_eq!(a.peering.len(), b.peering.len());
        assert_eq!(a.as_degrees(), b.as_degrees());
    }

    #[test]
    fn transit_count_respected() {
        let net = small_internet(7);
        // Each non-tier-1 ISP appears as isp_b in >= 1 and <= 2*PEER_CITIES
        // peering links toward earlier providers.
        for k in 2..8 {
            let links = net
                .peering
                .iter()
                .filter(|p| p.isp_b == k && p.isp_a < k)
                .count();
            assert!(links >= 1, "ISP {} has no upstream", k);
        }
    }

    #[test]
    #[should_panic(expected = "at least one ISP")]
    fn zero_isps_rejected() {
        let (census, traffic) = setup(8);
        let config = InternetConfig {
            n_isps: 0,
            ..InternetConfig::default()
        };
        generate_internet(&census, &traffic, &config, &mut StdRng::seed_from_u64(0));
    }
}
