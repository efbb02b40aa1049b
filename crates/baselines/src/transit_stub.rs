//! Transit-stub hierarchical generator in the style of GT-ITM
//! (Zegura–Calvert–Donahoo, reference \[33\]; Calvert et al., reference
//! \[10\]).
//!
//! The canonical *structural* generator: hierarchy is imposed explicitly —
//! a random transit backbone, transit domains expanded into router-level
//! meshes, and stub domains hanging off transit routers. It encodes the
//! "Internet has domains" insight by construction rather than as the
//! outcome of any optimization, which is precisely the contrast the
//! paper draws.

use crate::random::gnp;
use hot_graph::csr::CsrGraph;
use hot_graph::graph::{Graph, NodeId};
use rand::Rng;

/// Transit-stub parameters.
#[derive(Clone, Copy, Debug)]
pub struct TransitStubConfig {
    /// Number of transit domains.
    pub transit_domains: usize,
    /// Routers per transit domain.
    pub transit_size: usize,
    /// Stub domains attached to each transit router.
    pub stubs_per_transit_node: usize,
    /// Routers per stub domain.
    pub stub_size: usize,
}

impl Default for TransitStubConfig {
    fn default() -> Self {
        TransitStubConfig {
            transit_domains: 2,
            transit_size: 6,
            stubs_per_transit_node: 2,
            stub_size: 8,
        }
    }
}

/// Edge probability inside a transit domain.
const TRANSIT_P: f64 = 0.6;
/// Edge probability inside a stub domain.
const STUB_P: f64 = 0.4;

/// Node annotation: which level of the explicit hierarchy a router sits in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TsRole {
    /// Router in a transit (backbone) domain.
    Transit,
    /// Router in a stub (edge) domain.
    Stub,
}

/// Generates a transit-stub topology.
///
/// Each domain is a connected `G(n, p)` (re-sampled edges are augmented
/// with a spanning path if disconnected, GT-ITM's standard fix-up);
/// transit domains are joined by single inter-domain links; each stub
/// domain connects to its transit router by one link.
pub fn generate(config: &TransitStubConfig, rng: &mut impl Rng) -> Graph<TsRole, ()> {
    assert!(config.transit_domains >= 1, "need a transit domain");
    assert!(
        config.transit_size >= 1 && config.stub_size >= 1,
        "domains need routers"
    );
    let mut g: Graph<TsRole, ()> = Graph::new();
    let mut transit_nodes: Vec<Vec<NodeId>> = Vec::new();
    for _ in 0..config.transit_domains {
        let nodes =
            add_connected_domain(&mut g, TsRole::Transit, config.transit_size, TRANSIT_P, rng);
        transit_nodes.push(nodes);
    }
    // Chain transit domains with single links (plus one extra random link
    // per adjacent pair for domain-level redundancy when possible).
    for d in 1..config.transit_domains {
        let a = transit_nodes[d - 1][rng.random_range(0..config.transit_size)];
        let b = transit_nodes[d][rng.random_range(0..config.transit_size)];
        g.add_edge(a, b, ());
    }
    // Stub domains.
    for domain in transit_nodes.iter() {
        for &t in domain {
            for _ in 0..config.stubs_per_transit_node {
                let stub =
                    add_connected_domain(&mut g, TsRole::Stub, config.stub_size, STUB_P, rng);
                let gateway = stub[rng.random_range(0..stub.len())];
                g.add_edge(t, gateway, ());
            }
        }
    }
    g
}

/// Adds a connected `G(n, p)` block of `role` nodes and returns their ids.
fn add_connected_domain(
    g: &mut Graph<TsRole, ()>,
    role: TsRole,
    n: usize,
    p: f64,
    rng: &mut impl Rng,
) -> Vec<NodeId> {
    let block = gnp(n, p, rng);
    let ids: Vec<NodeId> = (0..n).map(|_| g.add_node(role)).collect();
    for (_, a, b, _) in block.edges() {
        g.add_edge(ids[a.index()], ids[b.index()], ());
    }
    // Fix-up: if the block is disconnected, stitch components with a path.
    let components = CsrGraph::from_graph(&block).components(None);
    let k = components.sizes.len() as u32;
    if k > 1 {
        // First node of each component, linked in a chain.
        let mut reps = Vec::with_capacity(k as usize);
        for c in 0..k {
            let rep = components
                .labels
                .iter()
                .position(|&l| l == c)
                .expect("component non-empty");
            reps.push(rep);
        }
        for w in reps.windows(2) {
            g.add_edge(ids[w[0]], ids[w[1]], ());
        }
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_graph::traversal::is_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sizes_add_up() {
        let mut rng = StdRng::seed_from_u64(1);
        let config = TransitStubConfig::default();
        let g = generate(&config, &mut rng);
        let transit = config.transit_domains * config.transit_size;
        let stubs = transit * config.stubs_per_transit_node * config.stub_size;
        assert_eq!(g.node_count(), transit + stubs);
        let transit_count = g
            .node_ids()
            .filter(|&v| *g.node_weight(v) == TsRole::Transit)
            .count();
        assert_eq!(transit_count, transit);
    }

    #[test]
    fn always_connected() {
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // At stub p = 0.4 an 8-router stub domain is often
            // disconnected, so this exercises the connectivity fix-up.
            let g = generate(&TransitStubConfig::default(), &mut rng);
            assert!(is_connected(&g), "seed {}", seed);
        }
    }

    #[test]
    fn stub_routers_dominate() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generate(&TransitStubConfig::default(), &mut rng);
        let stub_count = g
            .node_ids()
            .filter(|&v| *g.node_weight(v) == TsRole::Stub)
            .count();
        assert!(stub_count as f64 > 0.8 * g.node_count() as f64);
    }

    #[test]
    fn single_domain_no_interdomain_links() {
        let mut rng = StdRng::seed_from_u64(3);
        let config = TransitStubConfig {
            transit_domains: 1,
            stubs_per_transit_node: 0,
            ..Default::default()
        };
        let g = generate(&config, &mut rng);
        assert_eq!(g.node_count(), config.transit_size);
        assert!(is_connected(&g));
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = TransitStubConfig::default();
        let a = generate(&cfg, &mut StdRng::seed_from_u64(4));
        let b = generate(&cfg, &mut StdRng::seed_from_u64(4));
        assert_eq!(a.degree_sequence(), b.degree_sequence());
    }
}
